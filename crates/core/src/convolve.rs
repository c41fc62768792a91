//! Range-limited separable grid convolution — the functional model of the
//! GCU (paper §IV.B).
//!
//! A rank-`M` tensor kernel is applied as `M` sequences of three 1-D
//! periodic convolutions (x, then y, then z), each truncated at the grid
//! cutoff `g_c`:
//!
//! ```text
//! (K^{ν,j} ⊛ a)_m = Σ_{|m'| ≤ g_c} K^{ν,j}_{m'} a_{m−m'}     (§III.B)
//! ```
//!
//! On the machine each 1-D pass maps onto the 3-D torus axis: grid blocks
//! hop `⌈g_c/4⌉` nodes in each direction while the GCU multiply-accumulates
//! them into its grid memory (Eq. 18). Here the same arithmetic runs on one
//! address space; `SeparableStats` counts the multiply-adds so the §III.C
//! cost model can be validated against the implementation.
//!
//! Implementation (DESIGN.md §18): every pass runs over the contiguous
//! z-axis. An x or y pass builds each output z-row as `Σ_t tap_t · (input
//! row t steps round the axis)` — whole rows, the wrap resolved once per
//! row index, no gather. The y pass writes its rows with periodic sleeves
//! (the sleeve cells the torus exchange provides in hardware), so the z
//! pass reads each line's taps as shifted views of one contiguous run. All
//! three go through the one register-blocked loop of the `rows` module —
//! the software analogue of the GCU streaming blocks past its kernel
//! register file. A separable convolution runs one part per output
//! x-plane, which streams its plane through all three passes of every
//! term in its worker's plane buffers: no full-grid intermediate.

use crate::kernel::{Kernel1D, TensorKernel};
use crate::rows::{accumulate_rows, Planes, Ring};
use tme_mesh::Grid3;
use tme_num::isa::Isa;
use tme_num::pool::{Pool, SendPtr};

/// Below this many multiply-adds per pool thread a convolution runs its
/// planes inline — a whole level of `3·M` passes for
/// [`convolve_separable_into`], one pass for [`convolve_axis`]. A 16³
/// level (0.59 M at M = 3) gains nothing from a dispatch, a 32³ one
/// (5.1 M) does (DESIGN.md §18.4).
const SERIAL_MADDS_PER_THREAD: usize = 1 << 19;

/// Operation counters for one separable convolution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeparableStats {
    /// Multiply-add count.
    pub madds: u64,
    /// 1-D convolution passes executed.
    pub passes: u64,
}

/// Fold a kernel wider than the ring onto `len` cells: packets that lap the
/// torus accumulate per cell. Plan-time — depends only on the kernel and
/// the axis length.
#[must_use]
pub fn fold_kernel(kernel: &Kernel1D, len: usize) -> Vec<f64> {
    let gc = kernel.gc() as i64;
    let mut folded = vec![0.0; len];
    for m in -gc..=gc {
        folded[m.rem_euclid(len as i64) as usize] += kernel.get(m);
    }
    folded
}

/// Plan-time folded kernels for every `(term, axis)` pair of a tensor
/// kernel whose support `2g_c+1` exceeds the axis length at some level —
/// hoisted out of the per-call path of [`convolve_axis`].
#[derive(Clone, Debug, Default)]
pub struct FoldedKernels {
    per_term: Vec<[Option<Vec<f64>>; 3]>,
}

impl FoldedKernels {
    /// Plan for applying `kernel` on a grid of `dims`.
    #[must_use]
    pub fn plan(kernel: &TensorKernel, dims: [usize; 3]) -> Self {
        let gc = kernel.gc();
        let per_term = kernel
            .terms()
            .iter()
            .map(|term| {
                std::array::from_fn(|axis| {
                    let len = dims[axis];
                    (2 * gc + 1 > len).then(|| fold_kernel(&term[axis], len))
                })
            })
            .collect();
        Self { per_term }
    }

    /// The folded taps for `(term, axis)`, if that pass needs folding.
    #[must_use]
    pub fn get(&self, term: usize, axis: usize) -> Option<&[f64]> {
        self.per_term.get(term).and_then(|t| t[axis].as_deref())
    }
}

/// The taps of one axis pass in application order:
/// `out[c] = Σ_t taps[t] · in[(c + shift − t) mod len]`, ascending `t`. A
/// kernel that fits the axis applies its `2g_c+1` values from offset
/// `−g_c`; a folded one (`folded` is `Some`, from [`FoldedKernels::plan`]
/// or [`fold_kernel`]) applies `len` values from offset 0. Either way
/// `taps.len() ≤ len`.
#[derive(Clone, Copy)]
struct AxisTaps<'a> {
    taps: &'a [f64],
    shift: usize,
}

impl<'a> AxisTaps<'a> {
    fn new(kernel: &'a Kernel1D, folded: Option<&'a [f64]>, len: usize) -> Self {
        let gc = kernel.gc();
        if let Some(taps) = folded {
            assert_eq!(taps.len(), len, "folded kernel length mismatch");
            return Self { taps, shift: 0 };
        }
        assert!(
            2 * gc < len,
            "axis of length {len} needs a plan-time folded kernel for g_c = {gc}"
        );
        Self {
            taps: kernel.vals(),
            shift: gc,
        }
    }

    /// Cells the z pass reads before and after a line: `[lead | line | trail]`
    /// holds every `(c + shift − t)` without a wrap.
    fn sleeves(&self) -> (usize, usize) {
        (self.taps.len() - 1 - self.shift, self.shift)
    }
}

/// Copy the periodic sleeves of a `[lead | line | trail]` row from its line.
fn wrap_sleeves(row: &mut [f64], (lead, trail): (usize, usize)) {
    let len = row.len() - lead - trail;
    row.copy_within(len..len + lead, 0);
    row.copy_within(lead..lead + trail, lead + len);
}

/// The x pass for output plane `x` of a grid of dims `n`: `plane =
/// Σ_t tap_t · (input plane x + shift − t)` — whole y–z planes.
fn x_pass(isa: Isa, src: &[f64], n: [usize; 3], x: usize, at: AxisTaps, plane: &mut [f64]) {
    plane.fill(0.0);
    let ring = Ring {
        src,
        stride: n[1] * n[2],
        n: n[0],
        first: (x + at.shift) % n[0],
        up: false,
    };
    accumulate_rows(isa, plane, at.taps, ring);
}

/// The y pass of one y–z plane: z-line `y` of `dst` is `Σ_t tap_t · (line
/// y + shift − t of plane)`. `dst` lines carry `sleeves` periodic cells
/// around their `nz` values (both zero for a plain plane).
fn y_pass(
    isa: Isa,
    plane: &[f64],
    n: [usize; 3],
    at: AxisTaps,
    sleeves: (usize, usize),
    dst: &mut [f64],
) {
    let [_, ny, nz] = n;
    let padded = sleeves.0 + nz + sleeves.1;
    for (y, row) in dst.chunks_exact_mut(padded).take(ny).enumerate() {
        let line = &mut row[sleeves.0..sleeves.0 + nz];
        line.fill(0.0);
        let ring = Ring {
            src: plane,
            stride: nz,
            n: ny,
            first: (y + at.shift) % ny,
            up: false,
        };
        accumulate_rows(isa, line, at.taps, ring);
        wrap_sleeves(row, sleeves);
    }
}

/// The z pass of one y–z plane: `sleeved` holds every line as `[lead |
/// line | trail]` (from [`AxisTaps::sleeves`]), so tap `t` of output `c` is
/// `row[c + T−1 − t]` — the taps are shifted views of one contiguous run.
fn z_pass(isa: Isa, sleeved: &[f64], n: [usize; 3], at: AxisTaps, plane: &mut [f64]) {
    let nz = n[2];
    let width = nz + at.taps.len() - 1;
    for (line, row) in plane.chunks_exact_mut(nz).zip(sleeved.chunks_exact(width)) {
        line.fill(0.0);
        let ring = Ring {
            src: row,
            stride: 1,
            n: width,
            first: at.taps.len() - 1,
            up: false,
        };
        accumulate_rows(isa, line, at.taps, ring);
    }
}

/// One periodic 1-D convolution along `axis` (0 = x, 1 = y, 2 = z).
pub fn convolve_axis(grid: &Grid3, kernel: &Kernel1D, axis: usize) -> Grid3 {
    convolve_axis_on(
        grid,
        kernel,
        axis,
        Planes::on(Pool::global(), SERIAL_MADDS_PER_THREAD, Isa::detect()),
    )
}

/// [`convolve_axis`] with its output x-planes run by `planes`.
fn convolve_axis_on(grid: &Grid3, kernel: &Kernel1D, axis: usize, planes: Planes) -> Grid3 {
    let n = grid.dims();
    // Fold the kernel onto the ring if it exceeds the axis (packets that
    // lap the torus accumulate per cell).
    let folded = (2 * kernel.gc() + 1 > n[axis]).then(|| fold_kernel(kernel, n[axis]));
    let at = AxisTaps::new(kernel, folded.as_deref(), n[axis]);
    let mut out = Grid3::zeros(n);
    let (src, plane) = (grid.as_slice(), n[1] * n[2]);
    let madds = src.len() * at.taps.len();
    let (dst, isa) = (out.as_mut_slice(), planes.isa);
    match axis {
        0 => planes.for_each_plane(dst, plane, madds, |x, p| x_pass(isa, src, n, x, at, p)),
        1 => planes.for_each_plane(dst, plane, madds, |x, p| {
            y_pass(isa, &src[x * plane..][..plane], n, at, (0, 0), p);
        }),
        _ => {
            let (sleeves, width) = (at.sleeves(), n[2] + at.taps.len() - 1);
            let mut sleeved = vec![0.0; n[0] * n[1] * width];
            for (row, line) in sleeved.chunks_exact_mut(width).zip(src.chunks_exact(n[2])) {
                row[sleeves.0..sleeves.0 + n[2]].copy_from_slice(line);
                wrap_sleeves(row, sleeves);
            }
            let sleeved = &sleeved;
            planes.for_each_plane(dst, plane, madds, |x, p| {
                z_pass(isa, &sleeved[x * n[1] * width..], n, at, p);
            });
        }
    }
    out
}

/// Reference implementation the row passes are held to, bit for bit:
/// direct periodic indexing per tap (slow, obviously correct).
pub fn convolve_axis_naive(grid: &Grid3, kernel: &Kernel1D, axis: usize) -> Grid3 {
    let n = grid.dims();
    let gc = kernel.gc() as i64;
    let len = n[axis];
    // (offset m, K_m) in application order; a kernel wider than the ring
    // laps it, accumulating per cell.
    let taps: Vec<(i64, f64)> = if 2 * gc + 1 > len as i64 {
        (0..).zip(fold_kernel(kernel, len)).collect()
    } else {
        (-gc..=gc).map(|m| (m, kernel.get(m))).collect()
    };
    let mut out = Grid3::zeros(n);
    for (c, _) in grid.iter() {
        let center = [c[0] as i64, c[1] as i64, c[2] as i64];
        let mut acc = 0.0;
        for &(m, kv) in &taps {
            let mut src = center;
            src[axis] -= m;
            acc += kv * grid.get(src);
        }
        out.set(center, acc);
    }
    out
}

/// Reusable execute-phase state for the separable convolutions at one
/// level.
#[derive(Debug)]
pub struct ConvolveScratch {
    /// Not touched by the convolution: free for the caller (the workspace
    /// prolongs into it).
    pub tmp_a: Grid3,
    /// Per-worker y–z plane: the x-pass output, then the z-pass output.
    /// Worker `w` owns `planes[w·ny·nz..][..ny·nz]`.
    planes: Vec<f64>,
    /// Per-worker y-pass output in the z pass's sleeved layout, sized for
    /// the widest row a plan can ask for (`2·nz − 1`); a term touches
    /// `nz + taps − 1` per row. Worker `w` owns `sleeved[w·ny·(2nz−1)..]`.
    sleeved: Vec<f64>,
}

impl ConvolveScratch {
    /// Scratch for convolving grids of `dims`. The per-worker planes are
    /// sized on the first call, by the pool it runs on.
    #[must_use]
    pub fn for_dims(dims: [usize; 3]) -> Self {
        Self {
            tmp_a: Grid3::zeros(dims),
            planes: Vec::new(),
            sleeved: Vec::new(),
        }
    }
}

/// Full separable convolution `Φ = Σ_ν K^{ν,z} ⊛ K^{ν,y} ⊛ K^{ν,x} ⊛ Q`,
/// scaled by `prefactor` (the level's `1/2^{l−1}`).
pub fn convolve_separable(
    grid: &Grid3,
    kernel: &TensorKernel,
    prefactor: f64,
) -> (Grid3, SeparableStats) {
    let n = grid.dims();
    let folded = FoldedKernels::plan(kernel, n);
    let mut scratch = ConvolveScratch::for_dims(n);
    let mut out = Grid3::zeros(n);
    let stats = convolve_separable_into(
        grid,
        kernel,
        prefactor,
        &folded,
        Pool::global(),
        &mut scratch,
        &mut out,
    );
    (out, stats)
}

/// [`convolve_separable`] into a reused output grid with plan-time folded
/// kernels (from [`FoldedKernels::plan`] at `grid.dims()`) and reused
/// scratch — the execute-phase form: no heap allocation once the scratch
/// has met the pool, one pool dispatch over the output x-planes. Results
/// are bitwise identical at any thread count because every output plane's
/// arithmetic is self-contained.
pub fn convolve_separable_into(
    grid: &Grid3,
    kernel: &TensorKernel,
    prefactor: f64,
    folded: &FoldedKernels,
    pool: &Pool,
    scratch: &mut ConvolveScratch,
    out: &mut Grid3,
) -> SeparableStats {
    let planes = level_planes(pool, Isa::detect());
    convolve_separable_on(grid, kernel, prefactor, folded, planes, scratch, out)
}

/// How a separable convolution runs its x-planes: across `pool`, sized by
/// [`SERIAL_MADDS_PER_THREAD`], rows on `isa`.
pub(crate) fn level_planes(pool: &Pool, isa: Isa) -> Planes<'_> {
    Planes::on(pool, SERIAL_MADDS_PER_THREAD, isa)
}

/// [`convolve_separable_into`] with its output x-planes run by `planes`.
/// Each part streams its plane through every term — x pass, y pass into
/// the sleeved plane, z pass — adding each term's plane into its output
/// plane in term order, then scales it: the GCU's order per plane, with no
/// full-grid intermediate.
pub(crate) fn convolve_separable_on(
    grid: &Grid3,
    kernel: &TensorKernel,
    prefactor: f64,
    folded: &FoldedKernels,
    planes: Planes,
    scratch: &mut ConvolveScratch,
    out: &mut Grid3,
) -> SeparableStats {
    let n = grid.dims();
    assert_eq!(out.dims(), n, "output grid dims mismatch");
    assert_eq!(scratch.tmp_a.dims(), n, "scratch dims mismatch");
    // On a folded (kernel wider than the axis) pass only `len` taps are
    // actually applied per point.
    let taps_all: usize = (0..3).map(|a| (2 * kernel.gc() + 1).min(n[a])).sum();
    let terms = kernel.terms();
    let madds = taps_all * grid.len() * terms.len();
    let (plane, sleeved) = (n[1] * n[2], n[1] * (2 * n[2] - 1));
    let (threads, isa) = (planes.threads(), planes.isa);
    scratch.planes.resize(threads * plane, 0.0);
    scratch.sleeved.resize(threads * sleeved, 0.0);
    let src = grid.as_slice();
    let dst = SendPtr(out.as_mut_slice().as_mut_ptr());
    let bufs = SendPtr(scratch.planes.as_mut_ptr());
    let rows = SendPtr(scratch.sleeved.as_mut_ptr());
    planes.run(n[0], madds, |x, worker| {
        assert!(x < n[0] && worker < threads);
        // SAFETY: part `x` runs once and alone writes output plane `x`, and
        // at most one part runs per worker index at a time (the
        // `run_parts` contract), so each worker's two buffers — disjoint
        // ranges below `threads` of the lengths resized above — are
        // borrowed exclusively; `run` returns only after every part.
        let (dst, buf, rows) = unsafe {
            (
                std::slice::from_raw_parts_mut(dst.get().add(x * plane), plane),
                std::slice::from_raw_parts_mut(bufs.get().add(worker * plane), plane),
                std::slice::from_raw_parts_mut(rows.get().add(worker * sleeved), sleeved),
            )
        };
        dst.fill(0.0);
        for (ti, term) in terms.iter().enumerate() {
            let [xt, yt, zt]: [AxisTaps; 3] =
                std::array::from_fn(|a| AxisTaps::new(&term[a], folded.get(ti, a), n[a]));
            x_pass(isa, src, n, x, xt, buf);
            y_pass(isa, buf, n, yt, zt.sleeves(), rows);
            z_pass(isa, rows, n, zt, buf);
            for (o, v) in dst.iter_mut().zip(&*buf) {
                *o += v;
            }
        }
        for o in dst.iter_mut() {
            *o *= prefactor;
        }
    });
    SeparableStats {
        madds: madds as u64,
        passes: 3 * terms.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TensorKernel;
    use crate::rows::testing::{assert_bitwise, grid_with_zeros, noise};
    use crate::shells::GaussianFit;
    use tme_mesh::dense::{convolve_direct, DenseKernel};

    fn impulse(n: [usize; 3], at: [i64; 3]) -> Grid3 {
        let mut g = Grid3::zeros(n);
        g.set(at, 1.0);
        g
    }

    #[test]
    fn axis_convolution_shifts_impulse() {
        let k = Kernel1D::from_vals(1, vec![0.25, 0.5, 0.25]);
        let g = impulse([8, 8, 8], [3, 4, 5]);
        let out = convolve_axis(&g, &k, 0);
        assert_eq!(out.get([3, 4, 5]), 0.5);
        assert_eq!(out.get([2, 4, 5]), 0.25);
        assert_eq!(out.get([4, 4, 5]), 0.25);
        assert_eq!(out.get([3, 3, 5]), 0.0);
        // Mass conserved (kernel sums to 1).
        assert!((out.sum() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn asymmetric_kernel_orientation() {
        // K_{−1} = 1 means out[c] = in[c+1]·1: a left shift. Verify the
        // buffered implementation gets the direction right.
        let k = Kernel1D::from_vals(1, vec![1.0, 0.0, 0.0]); // K_{−1} = 1
        let g = impulse([4, 4, 4], [2, 0, 0]);
        let out = convolve_axis(&g, &k, 0);
        // out[c] = Σ K_m in[c − m] = in[c + 1] ⇒ peak moves to c = 1.
        assert_eq!(out.get([1, 0, 0]), 1.0);
        assert_eq!(out.sum(), 1.0);
    }

    /// Every axis of the row passes against the point-by-point reference,
    /// bit for bit, on a non-cubic grid whose axes put g_c = 3 inside every
    /// axis, g_c = 6 folded on y only, g_c = 10 folded on x and y and
    /// exactly at `2g_c + 1 == len` on z, and g_c = 12 folded everywhere —
    /// through the public form and plane by plane on 1, 2 and 4 threads.
    #[test]
    fn row_passes_match_naive_bitwise_on_all_axes() {
        let g = grid_with_zeros([16, 12, 21], 99);
        let pools = [1, 2, 4].map(Pool::new);
        for gc in [3, 6, 10, 12] {
            let mut vals = noise(2 * gc + 1, 5);
            vals[1] = 0.0;
            let k = Kernel1D::from_vals(gc, vals);
            for axis in 0..3 {
                let slow = convolve_axis_naive(&g, &k, axis);
                let fast = convolve_axis(&g, &k, axis);
                assert_bitwise(&fast, &slow, &format!("g_c {gc} axis {axis}"));
                for pool in &pools {
                    let planes = Planes::on(pool, 0, Isa::detect());
                    let fast = convolve_axis_on(&g, &k, axis, planes);
                    let what = format!("g_c {gc} axis {axis} threads {}", pool.threads());
                    assert_bitwise(&fast, &slow, &what);
                }
            }
        }
    }

    /// The fused separable pipeline (per plane: x pass, y pass writing
    /// sleeved rows, z pass, term sum) is the three reference passes
    /// composed, summed over terms from a `0.0` accumulator and scaled —
    /// bit for bit, folded or not, through the public form and dispatched
    /// plane by plane on 1, 2 and 4 threads with one reused scratch.
    #[test]
    fn separable_matches_composed_naive_passes_bitwise() {
        let fit = GaussianFit::new(2.0, 3);
        let q = grid_with_zeros([16, 12, 20], 41);
        let pools = [1, 2, 4].map(Pool::new);
        let mut scratch = ConvolveScratch::for_dims(q.dims());
        for gc in [4, 7] {
            let kernel = TensorKernel::new(&fit, [0.3, 0.35, 0.4], 6, gc);
            let mut slow = Grid3::zeros(q.dims());
            for term in kernel.terms() {
                let x = convolve_axis_naive(&q, &term[0], 0);
                let y = convolve_axis_naive(&x, &term[1], 1);
                slow.accumulate(&convolve_axis_naive(&y, &term[2], 2));
            }
            slow.scale(0.5);
            let (fast, _) = convolve_separable(&q, &kernel, 0.5);
            assert_bitwise(&fast, &slow, &format!("g_c {gc}"));
            let folded = FoldedKernels::plan(&kernel, q.dims());
            for pool in &pools {
                let mut fast = Grid3::zeros(q.dims());
                fast.fill(f64::NAN);
                let planes = Planes::on(pool, 0, Isa::detect());
                convolve_separable_on(&q, &kernel, 0.5, &folded, planes, &mut scratch, &mut fast);
                let what = format!("g_c {gc} threads {}", pool.threads());
                assert_bitwise(&fast, &slow, &what);
            }
        }
    }

    #[test]
    fn axis_convolution_is_periodic() {
        let k = Kernel1D::from_vals(2, vec![1.0, 2.0, 4.0, 2.0, 1.0]);
        let g = impulse([8, 4, 4], [0, 0, 0]);
        let out = convolve_axis(&g, &k, 0);
        assert_eq!(out.get([7, 0, 0]), 2.0); // wraps around
        assert_eq!(out.get([6, 0, 0]), 1.0);
        assert_eq!(out.get([1, 0, 0]), 2.0);
    }

    /// Separable evaluation must equal the densified direct convolution —
    /// the same kernel, two evaluation orders (the §III.C comparison).
    #[test]
    fn separable_matches_direct_dense() {
        let fit = GaussianFit::new(2.0, 3);
        let gc = 4usize;
        let kernel = TensorKernel::new(&fit, [0.3, 0.35, 0.4], 6, gc);
        // Random-ish charge grid.
        let mut q = Grid3::zeros([8, 8, 8]);
        for (i, v) in q.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 29 % 17) as f64 - 8.0) * 0.1;
        }
        let (sep, stats) = convolve_separable(&q, &kernel, 1.0);
        let dense = DenseKernel::from_fn(gc, |m| kernel.dense_value(m));
        let direct = convolve_direct(&dense, &q);
        for ((_, a), (_, b)) in sep.iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(stats.passes, 9);
        // g_c = 4 ⇒ 9 taps, but the 8-point axes fold to 8 applied taps.
        assert_eq!(stats.madds, 3 * 8 * 512 * 3);
    }

    #[test]
    fn prefactor_scales_output() {
        let fit = GaussianFit::new(1.5, 1);
        let kernel = TensorKernel::new(&fit, [0.3; 3], 4, 3);
        let q = impulse([8, 8, 8], [4, 4, 4]);
        let (full, _) = convolve_separable(&q, &kernel, 1.0);
        let (half, _) = convolve_separable(&q, &kernel, 0.5);
        for ((_, a), (_, b)) in full.iter().zip(half.iter()) {
            assert!((0.5 * a - b).abs() < 1e-15);
        }
    }

    /// When 2g_c+1 exceeds the axis length the kernel must alias
    /// periodically (one lap of the torus), preserving total mass.
    #[test]
    fn oversized_cutoff_aliases_periodically() {
        let k = Kernel1D::from_vals(5, vec![1.0; 11]);
        let g = impulse([4, 4, 4], [0, 0, 0]);
        let out = convolve_axis(&g, &k, 2);
        // Kernel mass 11 spread on a ring of 4: pattern 3,3,3,2 in some order.
        let total: f64 = out.sum();
        assert!((total - 11.0).abs() < 1e-13);
        let mut vals: Vec<f64> = (0..4).map(|z| out.get([0, 0, z])).collect();
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![2.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn convolution_commutes_across_axes() {
        let kx = Kernel1D::from_vals(2, vec![0.1, 0.2, 0.4, 0.2, 0.1]);
        let ky = Kernel1D::from_vals(2, vec![0.3, 0.1, 0.2, 0.1, 0.3]);
        let mut q = Grid3::zeros([8, 8, 8]);
        for (i, v) in q.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 7) as f64;
        }
        let xy = convolve_axis(&convolve_axis(&q, &kx, 0), &ky, 1);
        let yx = convolve_axis(&convolve_axis(&q, &ky, 1), &kx, 0);
        for ((_, a), (_, b)) in xy.iter().zip(yx.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
