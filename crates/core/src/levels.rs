//! Restriction and prolongation between grid levels (paper Fig. 2(e)/(f)).
//!
//! The two-scale relation `M_p(x) = Σ_m J_m M_p(2x − m)` makes the
//! inter-level transfers *exact*:
//!
//! * **restriction** (level `l` charges → level `l+1` charges): axis-wise
//!   convolution with `J` followed by down-sampling,
//!   `Q^{l+1}_m = Σ_k J_k Q^l_{2m+k}` per axis;
//! * **prolongation** (level `l+1` potentials → level `l` potentials):
//!   up-sampling followed by convolution with `J`,
//!   `Φ^l_n += Σ_m J_{n−2m} Φ^{l+1}_m` per axis — the exact adjoint.
//!
//! Because `J` has only `p+1` taps and the passes are axis-wise, the
//! hardware runs both on the GCU with low communication cost (§III.A).
//! Here every axis pass runs one part per output x-plane, each built from
//! read-only input, so a pass splits across a pool with the same bits
//! (DESIGN.md §18.4); prolongation therefore gathers what the reference
//! scatters, in the scatter's order.

use crate::rows::{accumulate_rows, along, next_around, Planes, Ring};
use tme_mesh::{BSpline, Grid3};
use tme_num::pool::{Pool, SendPtr};

/// Below this many multiply-adds of one axis pass per pool thread a
/// transfer pass runs its planes inline (DESIGN.md §18.4).
const SERIAL_MADDS_PER_THREAD: usize = 1 << 15;

/// Two-scale taps of the highest spline order [`BSpline::new`] accepts
/// (p = 12): the bound of prolongation's per-output term list, and of the
/// `p` outputs at the ends of an axis that take one.
const MAX_TAPS: usize = 13;

/// Reusable axis-pass intermediates for one restrict/prolong pair between a
/// `fine` grid and its halved coarse partner — allocated once at plan time
/// so the execute path never touches the heap. Both directions step
/// through the same two sizes (a restriction and a prolongation never run
/// at once), so they share the storage.
#[derive(Clone, Debug)]
pub struct TransferScratch {
    /// Half the fine grid: restricted on x (`[f0/2, f1, f2]`), or prolonged
    /// on x and y (`[f0, f1, f2/2]`).
    half: Vec<f64>,
    /// A quarter: restricted on x and y (`[f0/2, f1/2, f2]`), or prolonged
    /// on x (`[f0, f1/2, f2/2]`).
    quarter: Vec<f64>,
}

impl TransferScratch {
    /// Scratch for transfers whose *fine* side has dims `fine` (all even).
    #[must_use]
    pub fn for_fine_dims(fine: [usize; 3]) -> Self {
        let points: usize = fine.iter().product();
        Self {
            half: vec![0.0; points / 2],
            quarter: vec![0.0; points / 4],
        }
    }
}

/// One prolongation output's inputs `(m, J_k)` in the order the scatter
/// delivers them ([`LevelTransfer::terms`]).
#[derive(Clone, Copy, Debug, Default)]
struct Terms {
    pairs: [(usize, f64); MAX_TAPS],
    len: usize,
}

impl Terms {
    fn list(&self) -> &[(usize, f64)] {
        &self.pairs[..self.len]
    }
}

/// Prolongation along an axis of one length ([`LevelTransfer::axis_plan`]):
/// outputs `2i + φ` with `i` in `i0..i1` by parity phases, the `count`
/// outputs of `ends`, ascending, by their terms.
struct AxisPlan {
    i0: usize,
    i1: usize,
    ends: [(usize, Terms); MAX_TAPS],
    count: usize,
}

/// Restriction/prolongation operator for spline order `p`.
#[derive(Clone, Debug)]
pub struct LevelTransfer {
    /// Two-scale coefficients `J_m`, index `m + p/2`.
    j: Vec<f64>,
    half: i64,
    /// Prolongation by output parity `φ`: `(taps, back)` with output
    /// `2i + φ` = `Σ_t taps[t] · in_{i − back + t}` in ascending `t`
    /// (ascending coarse index) wherever those inputs lie on the axis.
    phases: [(Vec<f64>, usize); 2],
}

impl LevelTransfer {
    pub fn new(p: usize) -> Self {
        let j = BSpline::new(p).two_scale();
        assert!(j.len() <= MAX_TAPS, "two-scale stencil of p = {p} too long");
        let half = p / 2;
        // `2m + k = 2i + φ + p/2`: the lowest `m` is `i − back`, its tap
        // `k = φ + p/2 + 2·back`, and each next `m` takes the tap two lower.
        let phases = [0, 1].map(|phase| {
            let back = (half - phase) / 2;
            let first = phase + half + 2 * back;
            let taps = (0..=first / 2).map(|t| j[first - 2 * t]).collect();
            (taps, back)
        });
        Self {
            j,
            half: half as i64,
            phases,
        }
    }

    /// Fine index `2m − p/2` on a periodic axis of `fine` points: where the
    /// stencil of coarse point `m` starts.
    fn stencil_start(&self, m: usize, fine: usize) -> usize {
        (2 * m as i64 - self.half).rem_euclid(fine as i64) as usize
    }

    /// One axis of restriction: halve `axis` of the row-major grid `src` of
    /// dims `n`, `out_m = Σ_k J_k in_{2m+k}` — on x and y a sum of whole
    /// input rows per output row, taps ascending. One part per output
    /// x-plane: on x the plane is one output row, on y it holds the rows of
    /// one x-slab, on z its z-lines. Returns the dims of `dst`.
    fn restrict_axis(
        &self,
        src: &[f64],
        n: [usize; 3],
        axis: usize,
        planes: Planes,
        dst: &mut [f64],
    ) -> [usize; 3] {
        assert!(
            n[axis].is_multiple_of(2),
            "axis {axis} length {} not even",
            n[axis]
        );
        assert_eq!(dst.len(), src.len() / 2, "restriction output size mismatch");
        let (fine, width) = along(n, axis);
        let mut out_dims = n;
        out_dims[axis] /= 2;
        let madds = dst.len() * self.j.len();
        let (plane, src_plane) = (out_dims[1] * out_dims[2], n[1] * n[2]);
        planes.for_each_plane(dst, plane, madds, |x, plane| {
            if axis == 0 {
                return self.restrict_row(src, fine, width, x, plane);
            }
            let slabs = src[x * src_plane..][..src_plane].chunks_exact(fine * width);
            for (src, dst) in slabs.zip(plane.chunks_exact_mut(fine / 2 * width)) {
                if width == 1 {
                    self.restrict_line(src, dst);
                    continue;
                }
                for (m, row) in dst.chunks_exact_mut(width).enumerate() {
                    self.restrict_row(src, fine, width, m, row);
                }
            }
        });
        out_dims
    }

    /// Output row `m` of one restriction slab: `fine` rows of `width`.
    fn restrict_row(&self, slab: &[f64], fine: usize, width: usize, m: usize, row: &mut [f64]) {
        row.fill(0.0);
        let ring = Ring {
            src: slab,
            stride: width,
            n: fine,
            first: self.stencil_start(m, fine),
            up: true,
        };
        accumulate_rows(row, &self.j, ring);
    }

    /// Restriction along one z-line, `out_m = Σ_k J_k line_{2m−p/2+k}`,
    /// taps ascending; a stencil that does not wrap reads one run.
    fn restrict_line(&self, line: &[f64], out: &mut [f64]) {
        let (fine, half) = (line.len(), self.half as usize);
        for (m, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            if 2 * m >= half && 2 * m - half + self.j.len() <= fine {
                for (&j, v) in self.j.iter().zip(&line[2 * m - half..]) {
                    acc += j * v;
                }
            } else {
                let mut r = self.stencil_start(m, fine);
                for &j in &self.j {
                    acc += j * line[r];
                    r = next_around(r, fine);
                }
            }
            *o = acc;
        }
    }

    /// One axis of prolongation: double `axis` of the row-major grid `src`
    /// of dims `n`, `out_r = Σ_m J_{r−2m} in_m`, each output collecting its
    /// terms in ascending coarse index `m` (then ascending tap) — the order
    /// a scatter of the input rows would deliver them in. One part per
    /// output x-plane: on x the plane is one output row, on y it holds the
    /// rows of one x-slab, on z its z-lines. With `acc`, each finished
    /// output plane is also added into the same plane of `acc` (`acc +=
    /// out`). Returns the dims of `dst`.
    fn prolong_axis(
        &self,
        src: &[f64],
        n: [usize; 3],
        axis: usize,
        planes: Planes,
        dst: &mut [f64],
        acc: Option<&mut [f64]>,
    ) -> [usize; 3] {
        assert_eq!(
            dst.len(),
            src.len() * 2,
            "prolongation output size mismatch"
        );
        let (coarse, width) = along(n, axis);
        let mut out_dims = n;
        out_dims[axis] *= 2;
        let madds = src.len() * self.j.len();
        let (plane, src_plane) = (out_dims[1] * out_dims[2], n[1] * n[2]);
        if let Some(acc) = &acc {
            assert_eq!(acc.len(), dst.len(), "accumulation target size mismatch");
        }
        let acc = acc.map(|a| SendPtr(a.as_mut_ptr()));
        let axis_plan = self.axis_plan(coarse);
        let plan = &axis_plan;
        planes.for_each_plane(dst, plane, madds, |x, out| {
            if axis == 0 {
                self.prolong_row(plan, src, width, x, out);
            } else {
                let slabs = src[x * src_plane..][..src_plane].chunks_exact(coarse * width);
                for (src, dst) in slabs.zip(out.chunks_exact_mut(2 * coarse * width)) {
                    if width == 1 {
                        self.prolong_line(plan, src, dst);
                        continue;
                    }
                    for (r, row) in dst.chunks_exact_mut(width).enumerate() {
                        self.prolong_row(plan, src, width, r, row);
                    }
                }
            }
            if let Some(acc) = acc {
                // SAFETY: `acc` is as long as `dst` (asserted above) and
                // part `x` alone touches its plane `x`, once, while
                // `for_each_plane` holds the borrow.
                let acc =
                    unsafe { std::slice::from_raw_parts_mut(acc.get().add(x * plane), plane) };
                for (a, v) in acc.iter_mut().zip(&*out) {
                    *a += v;
                }
            }
        });
        out_dims
    }

    /// How prolongation runs along an axis of `coarse` inputs: the
    /// outputs `2i + φ`, `i` in `i0..i1`, read no wrapped input in either
    /// parity ([`Self::phases`]); each of the at most `p` outputs outside
    /// that block keeps its [`Terms`].
    fn axis_plan(&self, coarse: usize) -> AxisPlan {
        let [(even, back_e), (odd, back_o)] = &self.phases;
        let i0 = (*back_e).max(*back_o).min(coarse);
        let i1 = ((coarse + back_e + 1).saturating_sub(even.len()))
            .min((coarse + back_o + 1).saturating_sub(odd.len()))
            .clamp(i0, coarse);
        let mut plan = AxisPlan {
            i0,
            i1,
            ends: [(0, Terms::default()); MAX_TAPS],
            count: 0,
        };
        for r in (0..2 * i0).chain(2 * i1..2 * coarse) {
            plan.ends[plan.count] = (r, self.terms(coarse, r));
            plan.count += 1;
        }
        plan
    }

    /// Prolongation along one z-line by `plan` (from [`Self::axis_plan`]
    /// of `line.len()`), every output summing its inputs from `0.0` in
    /// [`Self::terms`] order. Inside the block, runs of outputs are two
    /// register-blocked passes — one per parity, over shifted views of
    /// the line — interleaved on store.
    fn prolong_line(&self, plan: &AxisPlan, line: &[f64], out: &mut [f64]) {
        const BLOCK: usize = 32;
        for (r, terms) in &plan.ends[..plan.count] {
            let mut acc = 0.0;
            for &(m, j) in terms.list() {
                acc += j * line[m];
            }
            out[*r] = acc;
        }
        let mut i = plan.i0;
        while i < plan.i1 {
            let len = (plan.i1 - i).min(BLOCK);
            let mut buf = [[0.0; BLOCK]; 2];
            for ((taps, back), buf) in self.phases.iter().zip(&mut buf) {
                let ring = Ring {
                    src: line,
                    stride: 1,
                    n: line.len(),
                    first: i - back,
                    up: true,
                };
                accumulate_rows(&mut buf[..len], taps, ring);
            }
            for (k, pair) in out[2 * i..][..2 * len].chunks_exact_mut(2).enumerate() {
                pair[0] = buf[0][k];
                pair[1] = buf[1][k];
            }
            i += len;
        }
    }

    /// Output row `r` of one prolongation slab of rows of `width` values,
    /// gathered by `plan` (from [`Self::axis_plan`] of the slab's row
    /// count) from `0.0` in [`Self::terms`] order: inside the block one
    /// register-blocked pass over its parity's consecutive rows, at the
    /// ends one pass per run of consecutive rows in its list.
    fn prolong_row(&self, plan: &AxisPlan, slab: &[f64], width: usize, r: usize, row: &mut [f64]) {
        let coarse = slab.len() / width;
        row.fill(0.0);
        let (i, phase) = (r / 2, r % 2);
        if (plan.i0..plan.i1).contains(&i) {
            let (taps, back) = &self.phases[phase];
            let ring = Ring {
                src: slab,
                stride: width,
                n: coarse,
                first: i - back,
                up: true,
            };
            return accumulate_rows(row, taps, ring);
        }
        let at = if i < plan.i0 {
            r
        } else {
            2 * plan.i0 + r - 2 * plan.i1
        };
        let (end, terms) = &plan.ends[at];
        assert_eq!(*end, r, "prolongation row outside its axis plan");
        let list = terms.list();
        let mut taps = [0.0; MAX_TAPS];
        let mut i = 0;
        while i < list.len() {
            let first = list[i].0;
            let mut run = 0;
            while i + run < list.len() && list[i + run].0 == first + run {
                taps[run] = list[i + run].1;
                run += 1;
            }
            let ring = Ring {
                src: slab,
                stride: width,
                n: coarse,
                first,
                up: true,
            };
            accumulate_rows(row, &taps[..run], ring);
            i += run;
        }
    }

    /// The inputs of prolongation output `r` from `coarse` inputs, in the
    /// order a scatter would deliver them. The scatter adds input `m` onto
    /// `r` through every tap `k` with `2m − p/2 + k ≡ r (mod 2·coarse)`,
    /// in ascending `m`, then ascending `k` — wrapped inputs included.
    /// Each `k` fixes `m`, so the list has at most `p + 1` pairs; they are
    /// inserted in ascending `m`, keeping ascending `k` among equal `m`
    /// (only a stencil that laps the axis has those).
    fn terms(&self, coarse: usize, r: usize) -> Terms {
        let top = r as i64 + self.half;
        let fine = 2 * coarse as i64;
        let mut terms = Terms::default();
        for (k, &j) in self.j.iter().enumerate() {
            let twice = (top - k as i64).rem_euclid(fine) as usize;
            if twice % 2 == 1 {
                continue;
            }
            let m = twice / 2;
            let mut at = terms.len;
            while at > 0 && terms.pairs[at - 1].0 > m {
                terms.pairs[at] = terms.pairs[at - 1];
                at -= 1;
            }
            terms.pairs[at] = (m, j);
            terms.len += 1;
        }
        terms
    }

    /// Full 3-D restriction (all dims halved).
    ///
    /// Debug builds assert charge conservation: the two-scale partition
    /// `Σ_k J_{2k} = Σ_k J_{2k+1} = 1` means every fine charge lands on the
    /// coarse grid exactly once, so `Σ Q^{l+1} = Σ Q^l` up to rounding.
    pub fn restrict(&self, grid: &Grid3) -> Grid3 {
        let n = grid.dims();
        let mut scratch = TransferScratch::for_fine_dims(n);
        let mut out = Grid3::zeros([n[0] / 2, n[1] / 2, n[2] / 2]);
        self.restrict_into(grid, &mut out, &mut scratch);
        out
    }

    /// [`Self::restrict`] into a reused output grid with reused axis-pass
    /// scratch (from [`TransferScratch::for_fine_dims`] of `grid.dims()`) —
    /// no heap allocation. Runs [`Self::restrict_with`]'s passes inline.
    pub fn restrict_into(&self, grid: &Grid3, out: &mut Grid3, scratch: &mut TransferScratch) {
        self.restrict_on(grid, out, scratch, Planes::INLINE);
    }

    /// [`Self::restrict_into`] with each axis pass one sized dispatch over
    /// its output x-planes on `pool` — the solver's form. Same bits.
    pub fn restrict_with(
        &self,
        grid: &Grid3,
        out: &mut Grid3,
        scratch: &mut TransferScratch,
        pool: &Pool,
    ) {
        let planes = Planes::on(pool, SERIAL_MADDS_PER_THREAD);
        self.restrict_on(grid, out, scratch, planes);
    }

    fn restrict_on(
        &self,
        grid: &Grid3,
        out: &mut Grid3,
        scratch: &mut TransferScratch,
        planes: Planes,
    ) {
        let TransferScratch { half, quarter } = scratch;
        let n = self.restrict_axis(grid.as_slice(), grid.dims(), 0, planes, half);
        let n = self.restrict_axis(half, n, 1, planes, quarter);
        let n = self.restrict_axis(quarter, n, 2, planes, out.as_mut_slice());
        assert_eq!(out.dims(), n, "restriction output dims mismatch");
        debug_assert!(
            (out.sum() - grid.sum()).abs() <= 1e-9 * abs_sum(grid).max(1.0),
            "restriction lost charge: Σ fine = {}, Σ coarse = {}",
            grid.sum(),
            out.sum()
        );
    }

    /// Full 3-D prolongation (all dims doubled).
    ///
    /// Debug builds assert the adjoint conservation law: `Σ_m J_m = 2` per
    /// axis (the two-scale relation preserves the spline's unit integral on
    /// the half-spaced grid), so the 3-D total scales by exactly 8.
    pub fn prolong(&self, grid: &Grid3) -> Grid3 {
        let n = grid.dims();
        let fine = [n[0] * 2, n[1] * 2, n[2] * 2];
        let mut scratch = TransferScratch::for_fine_dims(fine);
        let mut out = Grid3::zeros(fine);
        self.prolong_into(grid, &mut out, &mut scratch);
        out
    }

    /// [`Self::prolong`] into a reused output grid with reused axis-pass
    /// scratch (from [`TransferScratch::for_fine_dims`] of the *doubled*
    /// dims) — no heap allocation. Runs [`Self::prolong_add_with`]'s passes
    /// inline, without the accumulation.
    pub fn prolong_into(&self, grid: &Grid3, out: &mut Grid3, scratch: &mut TransferScratch) {
        self.prolong_on(grid, out, scratch, Planes::INLINE, None);
    }

    /// [`Self::prolong_into`] with each axis pass one sized dispatch over
    /// its output x-planes on `pool`, and the prolonged grid also added
    /// into `acc` (`acc += out`, plane by plane in the z pass) — the
    /// solver's upward step. Same bits as `prolong_into` followed by
    /// [`Grid3::accumulate`].
    pub fn prolong_add_with(
        &self,
        grid: &Grid3,
        out: &mut Grid3,
        scratch: &mut TransferScratch,
        pool: &Pool,
        acc: &mut Grid3,
    ) {
        assert_eq!(acc.dims(), out.dims(), "accumulation target dims mismatch");
        let planes = Planes::on(pool, SERIAL_MADDS_PER_THREAD);
        self.prolong_on(grid, out, scratch, planes, Some(acc));
    }

    fn prolong_on(
        &self,
        grid: &Grid3,
        out: &mut Grid3,
        scratch: &mut TransferScratch,
        planes: Planes,
        acc: Option<&mut Grid3>,
    ) {
        let TransferScratch { half, quarter } = scratch;
        let acc = acc.map(Grid3::as_mut_slice);
        let n = self.prolong_axis(grid.as_slice(), grid.dims(), 0, planes, quarter, None);
        let n = self.prolong_axis(quarter, n, 1, planes, half, None);
        let n = self.prolong_axis(half, n, 2, planes, out.as_mut_slice(), acc);
        assert_eq!(out.dims(), n, "prolongation output dims mismatch");
        debug_assert!(
            (out.sum() - 8.0 * grid.sum()).abs() <= 1e-9 * abs_sum(grid).max(1.0),
            "prolongation broke the Σ J = 2 scaling: Σ coarse = {}, Σ fine = {}",
            grid.sum(),
            out.sum()
        );
    }
}

/// `Σ |v|` — the conservation asserts scale their tolerance by this so a
/// grid whose *signed* sum cancels to ~0 still gets a meaningful bound.
fn abs_sum(grid: &Grid3) -> f64 {
    grid.as_slice().iter().map(|v| v.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::testing::{assert_bitwise, grid_with_zeros};
    use tme_mesh::SplineOps;

    impl LevelTransfer {
        fn j(&self, k: i64) -> f64 {
            self.j[(k + self.half) as usize]
        }

        /// Reference restriction the row passes are held to, bit for bit:
        /// direct periodic indexing per tap (slow, obviously correct).
        fn restrict_axis_naive(&self, grid: &Grid3, axis: usize) -> Grid3 {
            let mut out_dims = grid.dims();
            out_dims[axis] /= 2;
            let mut out = Grid3::zeros(out_dims);
            for x in 0..out_dims[0] as i64 {
                for y in 0..out_dims[1] as i64 {
                    for z in 0..out_dims[2] as i64 {
                        let mut acc = 0.0;
                        for k in -self.half..=self.half {
                            let mut src = [x, y, z];
                            src[axis] = 2 * src[axis] + k;
                            acc += self.j(k) * grid.get(src);
                        }
                        out.set([x, y, z], acc);
                    }
                }
            }
            out
        }

        /// Reference prolongation: one periodic scatter per input point in
        /// row-major order, zero inputs skipped.
        fn prolong_axis_naive(&self, grid: &Grid3, axis: usize) -> Grid3 {
            let mut out_dims = grid.dims();
            out_dims[axis] *= 2;
            let mut out = Grid3::zeros(out_dims);
            for (c, v) in grid.iter() {
                if v == 0.0 {
                    continue;
                }
                for k in -self.half..=self.half {
                    let mut dst = [c[0] as i64, c[1] as i64, c[2] as i64];
                    dst[axis] = 2 * dst[axis] + k;
                    out.add(dst, self.j(k) * v);
                }
            }
            out
        }
    }

    /// Every axis of both transfers against the point-by-point references,
    /// bit for bit, inline and dispatched plane by plane on 1, 2 and 4
    /// threads: non-cubic grids with a non-power-of-two axis, and a 4-point
    /// axis that the p = 8 stencil (9 taps) laps, so prolongation's x
    /// gather visits wrapped and repeated planes. Prolongation's folded
    /// accumulation must equal the naive pass added to the target.
    #[test]
    fn row_passes_match_naive_bitwise_on_all_axes() {
        let pools = [1, 2, 4].map(Pool::new);
        let runs: Vec<Planes> = std::iter::once(Planes::INLINE)
            .chain(pools.iter().map(|pool| Planes::on(pool, 0)))
            .collect();
        for p in [4, 6, 8] {
            let t = LevelTransfer::new(p);
            for dims in [[16, 12, 20], [4, 6, 4]] {
                let g = grid_with_zeros(dims, 31 + p as u64);
                for axis in 0..3 {
                    let mut halved = dims;
                    halved[axis] /= 2;
                    let mut doubled = dims;
                    doubled[axis] *= 2;
                    let restricted = t.restrict_axis_naive(&g, axis);
                    let prolonged = t.prolong_axis_naive(&g, axis);
                    let start = grid_with_zeros(doubled, 7);
                    let mut added = start.clone();
                    added.accumulate(&prolonged);
                    for (run, &planes) in runs.iter().enumerate() {
                        let what = format!("p {p} dims {dims:?} axis {axis} run {run}");
                        let mut fast = Grid3::zeros(halved);
                        fast.fill(f64::NAN);
                        t.restrict_axis(g.as_slice(), dims, axis, planes, fast.as_mut_slice());
                        assert_bitwise(&fast, &restricted, &format!("restrict {what}"));

                        let mut fast = Grid3::zeros(doubled);
                        fast.fill(f64::NAN);
                        let mut acc = start.clone();
                        let (src, out) = (g.as_slice(), fast.as_mut_slice());
                        t.prolong_axis(src, dims, axis, planes, out, Some(acc.as_mut_slice()));
                        assert_bitwise(&fast, &prolonged, &format!("prolong {what}"));
                        assert_bitwise(&acc, &added, &format!("prolong + acc {what}"));
                    }
                }
            }
        }
    }

    /// The pooled 3-D forms are the three naive passes composed, bit for
    /// bit, dispatched plane by plane on 1, 2 and 4 threads; prolongation
    /// also adds its output into the target.
    #[test]
    fn pooled_transfers_match_composed_naive_passes_bitwise() {
        let pools = [1, 2, 4].map(Pool::new);
        for p in [4, 6, 8] {
            let t = LevelTransfer::new(p);
            for dims in [[16, 12, 20], [4, 8, 4]] {
                let g = grid_with_zeros(dims, 5 + p as u64);
                let restricted = (0..3).fold(g.clone(), |a, axis| t.restrict_axis_naive(&a, axis));
                let prolonged = (0..3).fold(g.clone(), |a, axis| t.prolong_axis_naive(&a, axis));
                let fine = prolonged.dims();
                let start = grid_with_zeros(fine, 3);
                let mut added = start.clone();
                added.accumulate(&prolonged);
                for pool in &pools {
                    let what = format!("p {p} dims {dims:?} threads {}", pool.threads());
                    let planes = Planes::on(pool, 0);
                    let mut scratch = TransferScratch::for_fine_dims(dims);
                    let mut out = Grid3::zeros(restricted.dims());
                    t.restrict_on(&g, &mut out, &mut scratch, planes);
                    assert_bitwise(&out, &restricted, &format!("restrict {what}"));

                    let mut scratch = TransferScratch::for_fine_dims(fine);
                    let mut out = Grid3::zeros(fine);
                    let mut acc = start.clone();
                    t.prolong_on(&g, &mut out, &mut scratch, planes, Some(&mut acc));
                    assert_bitwise(&out, &prolonged, &format!("prolong {what}"));
                    assert_bitwise(&acc, &added, &format!("prolong + acc {what}"));
                }
            }
        }
    }

    #[test]
    fn restriction_conserves_total_charge() {
        // Σ_m J_{even} = Σ_m J_{odd} = 1, so each fine charge contributes
        // exactly once per axis.
        let t = LevelTransfer::new(6);
        let mut g = Grid3::zeros([8, 8, 8]);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 13 % 23) as f64 - 11.0) * 0.37;
        }
        let r = t.restrict(&g);
        assert_eq!(r.dims(), [4, 4, 4]);
        assert!((r.sum() - g.sum()).abs() < 1e-11);
    }

    #[test]
    fn restrict_prolong_are_adjoint() {
        // ⟨restrict(A), B⟩ = ⟨A, prolong(B)⟩ for all grids.
        let t = LevelTransfer::new(4);
        let mut a = Grid3::zeros([8, 8, 8]);
        let mut b = Grid3::zeros([4, 4, 4]);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 7 % 31) as f64) * 0.1 - 1.0;
        }
        for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 11 % 13) as f64) * 0.2 - 1.0;
        }
        let lhs = t.restrict(&a).dot(&b);
        let rhs = a.dot(&t.prolong(&b));
        assert!(
            (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    /// The paper's exactness claim: assigning charges on the fine grid and
    /// restricting equals assigning directly on the coarse grid (same p).
    #[test]
    fn restriction_equals_direct_coarse_assignment() {
        let box_l = [4.0, 4.0, 4.0];
        let p = 6;
        let fine = SplineOps::new(p, [16, 16, 16], box_l);
        let coarse = SplineOps::new(p, [8, 8, 8], box_l);
        let pos = vec![
            [0.123, 3.456, 2.001],
            [1.999, 0.001, 3.777],
            [2.5, 2.5, 2.5],
            [3.9, 0.2, 1.3],
        ];
        let q = vec![1.0, -0.75, 0.5, -0.75];
        let qf = fine.assign(&pos, &q);
        let restricted = LevelTransfer::new(p).restrict(&qf);
        let qc = coarse.assign(&pos, &q);
        for ((_, a), (_, b)) in restricted.iter().zip(qc.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    /// Dual exactness: interpolating a coarse potential at an atom equals
    /// prolonging it to the fine grid first and interpolating there.
    #[test]
    fn prolongation_equals_direct_coarse_interpolation() {
        let box_l = [4.0, 4.0, 4.0];
        let p = 6;
        let fine = SplineOps::new(p, [16, 16, 16], box_l);
        let coarse = SplineOps::new(p, [8, 8, 8], box_l);
        let mut phi_c = Grid3::zeros([8, 8, 8]);
        for (i, v) in phi_c.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 3 % 17) as f64 - 8.0) * 0.21;
        }
        let phi_f = LevelTransfer::new(p).prolong(&phi_c);
        for &r in &[[0.3, 1.7, 2.9], [3.99, 0.0, 1.5], [2.0, 2.0, 2.0]] {
            let direct = coarse.interpolate(&phi_c, &[r], &[1.0]).potential[0];
            let via_fine = fine.interpolate(&phi_f, &[r], &[1.0]).potential[0];
            assert!((direct - via_fine).abs() < 1e-12, "{direct} vs {via_fine}");
        }
    }

    #[test]
    fn prolong_then_restrict_preserves_constants() {
        // A constant grid must survive the round trip (Σ J even = Σ J odd = 1,
        // restrict(prolong(const)) rescales by Σ_k J_k² sums... verify the
        // simpler invariant: prolong of constant is constant).
        let t = LevelTransfer::new(6);
        let mut c = Grid3::zeros([4, 4, 4]);
        c.fill(2.0);
        let p = t.prolong(&c);
        for (_, v) in p.iter() {
            assert!((v - 2.0).abs() < 1e-13, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "not even")]
    fn odd_axis_cannot_restrict() {
        let t = LevelTransfer::new(4);
        let g = Grid3::zeros([6, 7, 8]);
        let _ = t.restrict(&g);
    }
}
