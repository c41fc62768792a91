//! Cell-list neighbour search for the short-range (cutoff) interactions.
//!
//! The machine decomposes space into cells of up to 64 atoms managed by
//! the global memories; the nonbond pipelines then stream cell pairs. The
//! binning here is the same structure-of-arrays layout the solver's
//! short-range hot path runs on ([`tme_mesh::cells::CellBins`], DESIGN.md
//! §15): a stable counting sort into cells of edge ≥ `cutoff`, pairs from
//! each cell and its 13 forward neighbours (half stencil,
//! [`tme_mesh::cells::STENCIL`]), with an O(N²) fallback when the box is
//! too small for 3 bins per axis. NVE Verlet rebuilds pass their bins
//! back in ([`VerletList::build_with_bins`]) so the rebuild is
//! allocation-free once warm.
//!
//! Distances stay on `vec3::min_image` over the caller's raw positions —
//! the enumeration uses the bins, the geometry does not — so the pair
//! stream is bit-for-bit what the O(N²) reference produces and checkpoint
//! restarts remain bitwise (the Verlet pair *order* fixes the force
//! summation order).

use tme_mesh::cells::{CellBins, CellGrid, STENCIL};
use tme_num::vec3::{self, V3};

/// A rebuildable cell list over one configuration — the pair enumerator
/// behind [`VerletList`], which is the only consumer.
#[derive(Clone, Debug)]
pub(crate) struct CellList {
    /// SoA bins shared with the mesh short-range layout. Empty (untouched)
    /// in brute-force mode.
    bins: CellBins,
    cutoff: f64,
    box_l: V3,
    /// True when the box is too small for cells and we fall back to O(N²).
    brute_force: bool,
    n_atoms: usize,
}

impl CellList {
    /// Bin `pos` into the given (reused) bins, so steady-state rebuilds
    /// allocate nothing. Recover the bins with [`CellList::into_bins`].
    pub fn build_reusing(pos: &[V3], box_l: V3, cutoff: f64, mut bins: CellBins) -> Self {
        assert!(cutoff > 0.0);
        let min_edge = box_l.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            cutoff <= min_edge / 2.0 + 1e-12,
            "cutoff {cutoff} exceeds half the smallest box edge {min_edge}: \
             minimum-image pair search would miss periodic copies"
        );
        let grid = CellGrid::plan_capped(box_l, cutoff, pos.len());
        let brute_force = grid.is_none();
        if let Some(g) = grid {
            bins.bin(pos, box_l, g);
        }
        Self {
            bins,
            cutoff,
            box_l,
            brute_force,
            n_atoms: pos.len(),
        }
    }

    /// Take the bins back for the next [`CellList::build_reusing`].
    #[must_use]
    pub fn into_bins(self) -> CellBins {
        self.bins
    }

    /// Visit every unordered pair within the cutoff exactly once with the
    /// minimum-image displacement `d = pos[i] − pos[j]` and `r²`.
    pub fn for_each_pair(&self, pos: &[V3], mut f: impl FnMut(usize, usize, V3, f64)) {
        let rc2 = self.cutoff * self.cutoff;
        if self.brute_force {
            for i in 0..self.n_atoms {
                for j in (i + 1)..self.n_atoms {
                    let d = vec3::min_image(pos[i], pos[j], self.box_l);
                    let r2 = vec3::norm_sqr(d);
                    if r2 < rc2 && r2 > 0.0 {
                        f(i, j, d, r2);
                    }
                }
            }
            return;
        }
        let dims = self.bins.dims();
        let order = self.bins.order();
        let n_cells = dims[0] * dims[1] * dims[2];
        for c in 0..n_cells {
            let cz = c % dims[2];
            let cy = (c / dims[2]) % dims[1];
            let cx = c / (dims[2] * dims[1]);
            let (h0, h1) = self.bins.cell_range(c);
            // Pairs within the home cell (slots are in ascending original
            // index, so this enumerates exactly like the O(N²) loop).
            for a in h0..h1 {
                let i = order[a] as usize;
                for &j in &order[(a + 1)..h1] {
                    let j = j as usize;
                    let d = vec3::min_image(pos[i], pos[j], self.box_l);
                    let r2 = vec3::norm_sqr(d);
                    if r2 < rc2 && r2 > 0.0 {
                        f(i, j, d, r2);
                    }
                }
            }
            // Pairs with forward neighbour cells.
            for s in STENCIL {
                let nx = (cx as i64 + s[0]).rem_euclid(dims[0] as i64) as usize;
                let ny = (cy as i64 + s[1]).rem_euclid(dims[1] as i64) as usize;
                let nz = (cz as i64 + s[2]).rem_euclid(dims[2] as i64) as usize;
                let (n0, n1) = self.bins.cell_range((nx * dims[1] + ny) * dims[2] + nz);
                for &i in &order[h0..h1] {
                    let i = i as usize;
                    for &j in &order[n0..n1] {
                        let j = j as usize;
                        let d = vec3::min_image(pos[i], pos[j], self.box_l);
                        let r2 = vec3::norm_sqr(d);
                        if r2 < rc2 && r2 > 0.0 {
                            f(i, j, d, r2);
                        }
                    }
                }
            }
        }
    }
}

/// A Verlet neighbour list: pairs within `cutoff + skin`, reusable across
/// steps until any atom moves more than `skin/2` from its position at
/// build time. The per-step cost drops from scanning all candidates to
/// iterating the stored pairs (with a cheap distance re-check).
#[derive(Clone, Debug)]
pub struct VerletList {
    pairs: Vec<(u32, u32)>,
    cutoff: f64,
    skin: f64,
    box_l: V3,
    ref_pos: Vec<V3>,
}

impl VerletList {
    /// Build from scratch (uses a cell list over `cutoff + skin`),
    /// excluding the pairs for which `exclude(i, j)` is true so the hot
    /// loop never needs exclusion checks.
    pub fn build(
        pos: &[V3],
        box_l: V3,
        cutoff: f64,
        skin: f64,
        exclude: impl FnMut(usize, usize) -> bool,
    ) -> Self {
        let mut bins = CellBins::default();
        Self::build_with_bins(pos, box_l, cutoff, skin, exclude, &mut bins)
    }

    /// [`VerletList::build`] binning into caller-owned [`CellBins`] so
    /// periodic NVE rebuilds reuse the same buffers (allocation-free once
    /// warm, apart from pair-list growth).
    pub fn build_with_bins(
        pos: &[V3],
        box_l: V3,
        cutoff: f64,
        skin: f64,
        mut exclude: impl FnMut(usize, usize) -> bool,
        bins: &mut CellBins,
    ) -> Self {
        assert!(skin >= 0.0);
        let min_edge = box_l.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            cutoff <= min_edge / 2.0 + 1e-12,
            "cutoff {cutoff} exceeds half the smallest box edge {min_edge}"
        );
        // The listing reach cannot exceed the half box (the pair finder is
        // minimum-image); if the requested skin would push it past, shrink
        // the *effective* skin so the rebuild criterion stays sound (a
        // zero effective skin simply rebuilds every step).
        let reach = (cutoff + skin).min(min_edge / 2.0);
        let skin = reach - cutoff;
        let cells = CellList::build_reusing(pos, box_l, reach, std::mem::take(bins));
        let mut pairs = Vec::new();
        cells.for_each_pair(pos, |i, j, _, _| {
            if !exclude(i, j) {
                pairs.push((i as u32, j as u32));
            }
        });
        *bins = cells.into_bins();
        Self {
            pairs,
            cutoff,
            skin,
            box_l,
            ref_pos: pos.to_vec(),
        }
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// The stored pairs in iteration order. Exposed for checkpointing
    /// (DESIGN.md §11): the pair order fixes the floating-point summation
    /// order of the short-range forces, so a bitwise-identical restart
    /// must restore the list verbatim rather than rebuild it.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Effective skin (nm) after the half-box clamp applied at build time.
    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// The box the minimum-image convention uses.
    pub fn box_l(&self) -> V3 {
        self.box_l
    }

    /// Reference positions the rebuild criterion measures drift against.
    pub fn ref_pos(&self) -> &[V3] {
        &self.ref_pos
    }

    /// Reassemble a list from checkpointed parts — the inverse of the
    /// accessors above. The caller vouches that the parts came from a list
    /// produced by [`VerletList::build`] (same exclusion filter, skin
    /// already clamped); no pair search is repeated.
    pub fn from_parts(
        pairs: Vec<(u32, u32)>,
        cutoff: f64,
        skin: f64,
        box_l: V3,
        ref_pos: Vec<V3>,
    ) -> Self {
        Self {
            pairs,
            cutoff,
            skin,
            box_l,
            ref_pos,
        }
    }

    /// True once some atom has moved more than `skin/2` since the build —
    /// beyond that a pair could have entered the cutoff unseen. (With a
    /// zero effective skin this is true for any movement.)
    pub fn needs_rebuild(&self, pos: &[V3]) -> bool {
        debug_assert_eq!(pos.len(), self.ref_pos.len());
        if self.skin <= 0.0 {
            return true;
        }
        let limit = (self.skin / 2.0) * (self.skin / 2.0);
        pos.iter()
            .zip(&self.ref_pos)
            .any(|(a, b)| vec3::norm_sqr(vec3::sub(*a, *b)) > limit)
    }

    /// Visit the stored pairs currently within the *true* cutoff.
    pub fn for_each_pair(&self, pos: &[V3], mut f: impl FnMut(usize, usize, V3, f64)) {
        let rc2 = self.cutoff * self.cutoff;
        for &(i, j) in &self.pairs {
            let d = vec3::min_image(pos[i as usize], pos[j as usize], self.box_l);
            let r2 = vec3::norm_sqr(d);
            if r2 < rc2 && r2 > 0.0 {
                f(i as usize, j as usize, d, r2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_num::rng::SplitMix64;

    fn random_positions(n: usize, box_l: f64, seed: u64) -> Vec<V3> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..box_l),
                    rng.gen_range(0.0..box_l),
                    rng.gen_range(0.0..box_l),
                ]
            })
            .collect()
    }

    fn build(pos: &[V3], box_l: V3, cutoff: f64) -> CellList {
        CellList::build_reusing(pos, box_l, cutoff, CellBins::default())
    }

    fn collect_pairs(list: &CellList, pos: &[V3]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        list.for_each_pair(pos, |i, j, _, _| {
            pairs.push(if i < j { (i, j) } else { (j, i) });
        });
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn matches_brute_force_enumeration() {
        let box_l = 5.0;
        let cutoff = 1.1;
        let pos = random_positions(300, box_l, 42);
        let cells = build(&pos, [box_l; 3], cutoff);
        assert!(!cells.brute_force);
        let got = collect_pairs(&cells, &pos);
        // Reference: O(N²).
        let mut want = Vec::new();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                let d = vec3::min_image(pos[i], pos[j], [box_l; 3]);
                if vec3::norm_sqr(d) < cutoff * cutoff {
                    want.push((i, j));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn no_pair_visited_twice() {
        let pos = random_positions(200, 4.0, 7);
        let cells = build(&pos, [4.0; 3], 1.0);
        let pairs = collect_pairs(&cells, &pos);
        let mut dedup = pairs.clone();
        dedup.dedup();
        assert_eq!(pairs.len(), dedup.len());
    }

    #[test]
    fn small_box_falls_back_to_brute_force() {
        let pos = random_positions(20, 2.0, 1);
        let cells = build(&pos, [2.0; 3], 0.9);
        assert!(cells.brute_force);
        let got = collect_pairs(&cells, &pos);
        let mut want = Vec::new();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                let d = vec3::min_image(pos[i], pos[j], [2.0; 3]);
                let r2 = vec3::norm_sqr(d);
                if r2 < 0.81 && r2 > 0.0 {
                    want.push((i, j));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn sparse_box_falls_back_to_brute_force() {
        // Few atoms in a box that would shatter into thousands of cells:
        // the cell-count cap sends this to the O(N²) path with identical
        // pairs.
        let pos = random_positions(12, 30.0, 5);
        let cells = build(&pos, [30.0; 3], 1.0);
        assert!(cells.brute_force);
        let got = collect_pairs(&cells, &pos);
        let mut want = Vec::new();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                let d = vec3::min_image(pos[i], pos[j], [30.0; 3]);
                let r2 = vec3::norm_sqr(d);
                if r2 < 1.0 && r2 > 0.0 {
                    want.push((i, j));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn pairs_across_periodic_boundary_found() {
        let pos = vec![[0.05, 2.0, 2.0], [4.95, 2.0, 2.0]];
        let cells = build(&pos, [5.0; 3], 1.0);
        let pairs = collect_pairs(&cells, &pos);
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn reused_bins_enumerate_identically() {
        let box_l = 5.0;
        let pos_a = random_positions(180, box_l, 33);
        let pos_b = random_positions(180, box_l, 34);
        let fresh_a = build(&pos_a, [box_l; 3], 1.0);
        let want_a = collect_pairs(&fresh_a, &pos_a);
        // Bin a different configuration into the recovered bins, then the
        // first one again: both must match fresh builds pair-for-pair.
        let bins = fresh_a.into_bins();
        let reused_b = CellList::build_reusing(&pos_b, [box_l; 3], 1.0, bins);
        let fresh_b = build(&pos_b, [box_l; 3], 1.0);
        assert_eq!(
            collect_pairs(&reused_b, &pos_b),
            collect_pairs(&fresh_b, &pos_b)
        );
        let reused_a = CellList::build_reusing(&pos_a, [box_l; 3], 1.0, reused_b.into_bins());
        assert_eq!(collect_pairs(&reused_a, &pos_a), want_a);
    }

    #[test]
    fn verlet_list_matches_cell_list_pairs() {
        let box_l = 4.0;
        let pos = random_positions(250, box_l, 13);
        let cutoff = 1.0;
        let list = VerletList::build(&pos, [box_l; 3], cutoff, 0.3, |_, _| false);
        let mut got = Vec::new();
        list.for_each_pair(&pos, |i, j, _, _| {
            got.push(if i < j { (i, j) } else { (j, i) });
        });
        got.sort_unstable();
        let cells = build(&pos, [box_l; 3], cutoff);
        let want = collect_pairs(&cells, &pos);
        assert_eq!(got, want);
    }

    #[test]
    fn verlet_build_with_bins_matches_plain_build() {
        let box_l = 4.0;
        let pos = random_positions(200, box_l, 19);
        let plain = VerletList::build(&pos, [box_l; 3], 1.0, 0.25, |i, j| i + j == 3);
        let mut bins = CellBins::default();
        let reused =
            VerletList::build_with_bins(&pos, [box_l; 3], 1.0, 0.25, |i, j| i + j == 3, &mut bins);
        assert_eq!(plain.pairs(), reused.pairs());
        // And again with the warmed bins.
        let again =
            VerletList::build_with_bins(&pos, [box_l; 3], 1.0, 0.25, |i, j| i + j == 3, &mut bins);
        assert_eq!(plain.pairs(), again.pairs());
    }

    #[test]
    fn verlet_list_survives_small_motion() {
        let box_l = 4.0;
        let mut pos = random_positions(150, box_l, 21);
        let cutoff = 1.0;
        let skin = 0.3;
        let list = VerletList::build(&pos, [box_l; 3], cutoff, skin, |_, _| false);
        // Move every atom by less than skin/2 in a random direction.
        let mut rng = SplitMix64::seed_from_u64(5);
        for r in &mut pos {
            for c in r.iter_mut() {
                *c += rng.gen_range(-0.07..0.07);
            }
        }
        assert!(!list.needs_rebuild(&pos));
        // The stale list still finds every in-cutoff pair.
        let mut got = Vec::new();
        list.for_each_pair(&pos, |i, j, _, _| {
            got.push(if i < j { (i, j) } else { (j, i) });
        });
        got.sort_unstable();
        let fresh = build(&pos, [box_l; 3], cutoff);
        let want = collect_pairs(&fresh, &pos);
        assert_eq!(got, want);
    }

    #[test]
    fn verlet_rebuild_triggers_past_half_skin() {
        let pos = random_positions(10, 3.0, 2);
        let list = VerletList::build(&pos, [3.0; 3], 0.8, 0.2, |_, _| false);
        assert!(!list.needs_rebuild(&pos));
        let mut moved = pos.clone();
        moved[3][1] += 0.11; // > skin/2 = 0.1
        assert!(list.needs_rebuild(&moved));
    }

    #[test]
    fn verlet_exclusions_pre_filtered() {
        let pos = vec![[1.0, 1.0, 1.0], [1.3, 1.0, 1.0], [1.6, 1.0, 1.0]];
        let list = VerletList::build(&pos, [4.0; 3], 1.0, 0.2, |i, j| i + j == 1);
        let mut pairs = Vec::new();
        list.for_each_pair(&pos, |i, j, _, _| {
            pairs.push(if i < j { (i, j) } else { (j, i) });
        });
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn displacement_sign_convention() {
        // f receives d = pos[i] − pos[j] (minimum image).
        let pos = vec![[1.0, 1.0, 1.0], [1.5, 1.0, 1.0]];
        let cells = build(&pos, [6.0; 3], 1.0);
        cells.for_each_pair(&pos, |i, _j, d, _| {
            let expect = if i == 0 { -0.5 } else { 0.5 };
            assert!((d[0] - expect).abs() < 1e-12);
        });
    }
}
