//! Short-range (real-space) part of the Ewald splitting:
//! `g_{α,S}(r) = erfc(αr)/r`, paper Eq. 2.
//!
//! This is the piece every method in the paper shares — Ewald, SPME, MSM
//! and TME all evaluate it by direct pair summation inside the cutoff
//! `r_c` (on MDGRAPE-4A it runs on the 64 nonbond pipelines per SoC), so
//! it lives in the shared mesh crate. The O(N²) minimum-image loop here is
//! the *oracle*, nothing else: its non-test callers are
//! `tme_reference::Ewald` and the Table-1 harness (`cargo xtask analyze`,
//! rule a5). Every solver and backend sums its pairs through the SoA
//! cell-list kernel in [`crate::cells`] (DESIGN.md §15), and the MD
//! substrate's Verlet lists bin through the same layout. The kernels and the self term below are
//! shared by both.

use crate::model::{CoulombResult, CoulombSystem};
use tme_num::pool::{chunk_bounds, merge_ordered, Pool};
use tme_num::special::{erf, erfc, TWO_OVER_SQRT_PI};
use tme_num::table::PairKernelTable;
use tme_num::vec3;

/// Fixed number of row partitions for the parallel pair sum. The partition
/// count (not the thread count) defines the reduction order, so results are
/// bitwise identical for any `TME_THREADS`.
pub const SHORT_RANGE_PARTS: usize = 8;

/// Reusable per-partition accumulators for [`short_range_into`]: one
/// full-length [`CoulombResult`] per fixed partition, merged serially in
/// partition order after the parallel phase (the deterministic-reduction
/// rule, DESIGN.md §9).
#[derive(Clone, Debug, Default)]
pub struct PairwiseScratch {
    parts: Vec<CoulombResult>,
}

impl PairwiseScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Pair energy and the radial force factor for the erfc kernel:
/// returns `(erfc(αr)/r, erfc(αr)/r³ + (2α/√π)·e^{−α²r²}/r²)` so the force
/// is `q_i q_j · factor · r⃗`.
#[inline]
pub fn erfc_kernel(alpha: f64, r: f64) -> (f64, f64) {
    let e = erfc(alpha * r) / r;
    let gauss = TWO_OVER_SQRT_PI * alpha * (-alpha * alpha * r * r).exp();
    (e, (e + gauss) / (r * r))
}

/// Pair energy/force factor for the *long-range complement* `erf(αr)/r` —
/// the exact form of what the MD layer subtracts for an excluded pair
/// outside its kernel table, and of the middle-shell references.
#[inline]
pub fn erf_kernel(alpha: f64, r: f64) -> (f64, f64) {
    let e = erf(alpha * r) / r;
    let gauss = TWO_OVER_SQRT_PI * alpha * (-alpha * alpha * r * r).exp();
    // d/dr[erf(αr)/r] = −erf/r² + 2α/√π e^{−α²r²}/r ⇒ radial factor:
    (e, (e - gauss) / (r * r))
}

/// Direct O(N²) minimum-image short-range sum with cutoff `r_cut`.
///
/// Panics if `r_cut` exceeds half the smallest box edge (minimum image
/// would miss periodic copies).
pub fn short_range(system: &CoulombSystem, alpha: f64, r_cut: f64) -> CoulombResult {
    let mut scratch = PairwiseScratch::new();
    let mut out = CoulombResult::default();
    short_range_into(system, alpha, r_cut, Pool::global(), &mut scratch, &mut out);
    out
}

/// [`short_range`] writing into a reused result via reused per-partition
/// accumulators — allocation-free once warm, parallel over fixed row
/// partitions (the software analogue of the 64 nonbond pipelines per SoC).
///
/// This is the *exact* path (series/continued-fraction `erfc`), kept as
/// the reference oracle; production pipelines call
/// [`crate::cells::short_range_cells_into`] with a plan-time
/// [`PairKernelTable`].
///
/// Determinism: atom rows are split into [`SHORT_RANGE_PARTS`] fixed
/// partitions; each partition accumulates its pairs in row order into its
/// own full-length result, and partitions are merged serially in partition
/// order. Both orders are independent of the thread count.
pub fn short_range_into(
    system: &CoulombSystem,
    alpha: f64,
    r_cut: f64,
    pool: &Pool,
    scratch: &mut PairwiseScratch,
    out: &mut CoulombResult,
) {
    short_range_with(system, r_cut, pool, scratch, out, |r2| {
        erfc_kernel(alpha, r2.sqrt())
    });
}

/// [`short_range_into`] with the pair kernel served from a segmented
/// polynomial table instead of the exact `erfc` (DESIGN.md §10) — the
/// oracle that isolates the cell kernel's *traversal* from its table in
/// the cell-list tests. The table must cover `r_cut`
/// ([`PairKernelTable::r_max`] ≥ `r_cut`).
pub fn short_range_table_into(
    system: &CoulombSystem,
    table: &PairKernelTable,
    r_cut: f64,
    pool: &Pool,
    scratch: &mut PairwiseScratch,
    out: &mut CoulombResult,
) {
    debug_assert!(
        table.r_max() >= r_cut,
        "kernel table covers r ≤ {} but the cutoff is {r_cut}",
        table.r_max()
    );
    short_range_with(system, r_cut, pool, scratch, out, |r2| {
        table.erfc_kernel_r2(r2)
    });
}

/// Shared minimum-image pair loop behind both short-range entry points:
/// `kernel(r²)` returns `(energy, radial force factor)` for one pair.
fn short_range_with<K>(
    system: &CoulombSystem,
    r_cut: f64,
    pool: &Pool,
    scratch: &mut PairwiseScratch,
    out: &mut CoulombResult,
    kernel: K,
) where
    K: Fn(f64) -> (f64, f64) + Sync,
{
    let min_edge = system.box_l.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        r_cut <= min_edge / 2.0 + 1e-12,
        "r_cut {r_cut} exceeds half the smallest box edge {min_edge}"
    );
    let n = system.len();
    let rc2 = r_cut * r_cut;
    scratch
        .parts
        .resize_with(SHORT_RANGE_PARTS, CoulombResult::default);
    pool.for_each_chunk(&mut scratch.parts, 1, |part, slot| {
        let acc = &mut slot[0];
        acc.reset(n);
        let (lo, hi) = chunk_bounds(n, SHORT_RANGE_PARTS, part);
        for i in lo..hi {
            for j in (i + 1)..n {
                let d = vec3::min_image(system.pos[i], system.pos[j], system.box_l);
                let r2 = vec3::norm_sqr(d);
                if r2 >= rc2 || r2 == 0.0 {
                    continue;
                }
                let (pot, fr) = kernel(r2);
                let qq = system.q[i] * system.q[j];
                acc.energy += qq * pot;
                acc.potentials[i] += system.q[j] * pot;
                acc.potentials[j] += system.q[i] * pot;
                let f = vec3::scale(d, qq * fr);
                // Pair virial: W = Σ r_ij · F_ij.
                acc.virial += vec3::dot(d, f);
                vec3::acc(&mut acc.forces[i], f);
                vec3::acc(&mut acc.forces[j], vec3::scale(f, -1.0));
            }
        }
    });
    out.reset(n);
    merge_ordered(&scratch.parts, out, |acc, _part, p| acc.accumulate(p));
}

/// Ewald self-interaction term: energy `−(α/√π) Σ q²`, per-atom potential
/// `−(2α/√π) q_i`, no force.
pub fn self_term(system: &CoulombSystem, alpha: f64) -> CoulombResult {
    let mut out = CoulombResult::zeros(system.len());
    self_term_into(system, alpha, &mut out);
    out
}

/// [`self_term`] *accumulated* onto an existing result — no allocation.
pub fn self_term_into(system: &CoulombSystem, alpha: f64, out: &mut CoulombResult) {
    assert_eq!(out.potentials.len(), system.len());
    let c = TWO_OVER_SQRT_PI * alpha; // = 2α/√π
    for (i, &q) in system.q.iter().enumerate() {
        out.potentials[i] += -c * q;
        out.energy -= 0.5 * c * q * q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_complement_to_coulomb() {
        // erfc/r + erf/r = 1/r, both in energy and radial force factor.
        let alpha = 1.7;
        for i in 1..40 {
            let r = i as f64 * 0.1;
            let (es, fs) = erfc_kernel(alpha, r);
            let (el, fl) = erf_kernel(alpha, r);
            assert!((es + el - 1.0 / r).abs() < 1e-13 / r, "r={r}");
            assert!(
                (fs + fl - 1.0 / (r * r * r)).abs() < 1e-13 / (r * r * r),
                "r={r}"
            );
        }
    }

    #[test]
    fn kernel_force_is_minus_gradient() {
        let alpha = 1.3;
        let h = 1e-6;
        for i in 2..30 {
            let r = i as f64 * 0.13;
            let (_, fr) = erfc_kernel(alpha, r);
            let grad = (erfc_kernel(alpha, r + h).0 - erfc_kernel(alpha, r - h).0) / (2.0 * h);
            // force factor · r = −d(pot)/dr
            assert!((fr * r + grad).abs() < 1e-7, "r={r}");
            let (_, fl) = erf_kernel(alpha, r);
            let gradl = (erf_kernel(alpha, r + h).0 - erf_kernel(alpha, r - h).0) / (2.0 * h);
            assert!((fl * r + gradl).abs() < 1e-7, "r={r}");
        }
    }

    #[test]
    fn two_charges_short_range() {
        let s = CoulombSystem::new(
            vec![[1.0, 1.0, 1.0], [1.6, 1.0, 1.0]],
            vec![1.0, -1.0],
            [4.0, 4.0, 4.0],
        );
        let alpha = 2.0;
        let out = short_range(&s, alpha, 2.0);
        let r: f64 = 0.6;
        let want = -erfc(alpha * r) / r;
        assert!((out.energy - want).abs() < 1e-14);
        // Opposite charges attract: force on atom 0 points toward atom 1 (+x).
        assert!(out.forces[0][0] > 0.0);
        assert!((out.forces[0][0] + out.forces[1][0]).abs() < 1e-14);
        // Energy equals ½Σqφ.
        let e2 = 0.5 * (s.q[0] * out.potentials[0] + s.q[1] * out.potentials[1]);
        assert!((out.energy - e2).abs() < 1e-14);
    }

    #[test]
    fn cutoff_respected() {
        let s = CoulombSystem::new(
            vec![[0.0; 3], [1.5, 0.0, 0.0]],
            vec![1.0, 1.0],
            [4.0, 4.0, 4.0],
        );
        let out = short_range(&s, 1.0, 1.0);
        assert_eq!(out.energy, 0.0);
        assert_eq!(out.forces[0], [0.0; 3]);
    }

    #[test]
    fn minimum_image_pairs_found_across_boundary() {
        let s = CoulombSystem::new(
            vec![[0.1, 0.0, 0.0], [3.9, 0.0, 0.0]],
            vec![1.0, 1.0],
            [4.0, 4.0, 4.0],
        );
        let out = short_range(&s, 2.0, 1.0);
        let r: f64 = 0.2;
        let want = erfc(2.0 * r) / r;
        assert!((out.energy - want).abs() < 1e-13);
        // Repulsive across the boundary: atom 1's nearest image sits at
        // x = −0.1, so atom 0 is pushed in +x.
        assert!(out.forces[0][0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds half")]
    fn oversized_cutoff_rejected() {
        let s = CoulombSystem::new(vec![[0.0; 3]], vec![1.0], [2.0, 2.0, 2.0]);
        let _ = short_range(&s, 1.0, 1.5);
    }

    #[test]
    fn table_path_matches_exact_oracle() {
        // A scattered many-body system: the tabulated kernel must agree
        // with the exact continued-fraction path far below the mesh error.
        let mut pos = Vec::new();
        let mut q = Vec::new();
        let mut rng = tme_num::rng::SplitMix64::seed_from_u64(9);
        for i in 0..40 {
            pos.push([
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
                rng.gen_range(0.0..4.0),
            ]);
            q.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let s = CoulombSystem::new(pos, q, [4.0; 3]);
        let (alpha, r_cut) = (2.4, 1.6);
        let exact = short_range(&s, alpha, r_cut);
        let table = PairKernelTable::new(alpha, r_cut);
        let mut scratch = PairwiseScratch::new();
        let mut got = CoulombResult::default();
        short_range_table_into(&s, &table, r_cut, Pool::global(), &mut scratch, &mut got);
        let scale = exact.energy.abs().max(1.0);
        assert!(
            (got.energy - exact.energy).abs() < 1e-10 * scale,
            "{} vs {}",
            got.energy,
            exact.energy
        );
        for (a, b) in got.forces.iter().zip(&exact.forces) {
            for c in 0..3 {
                assert!((a[c] - b[c]).abs() < 1e-9, "{a:?} vs {b:?}");
            }
        }
        assert!((got.virial - exact.virial).abs() < 1e-9 * scale.max(exact.virial.abs()));
    }

    #[test]
    fn self_term_matches_formula() {
        let s = CoulombSystem::new(vec![[0.0; 3], [1.0; 3]], vec![0.5, -1.5], [3.0, 3.0, 3.0]);
        let alpha = 1.1;
        let out = self_term(&s, alpha);
        let want = -alpha / tme_num::special::SQRT_PI * (0.25 + 2.25);
        assert!((out.energy - want).abs() < 1e-14);
        // E = ½ Σ qφ holds for the self term too.
        let e2 = 0.5 * (0.5 * out.potentials[0] - 1.5 * out.potentials[1]);
        assert!((out.energy - e2).abs() < 1e-14);
    }
}
