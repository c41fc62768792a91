//! Particle↔grid transfer: charge assignment (anterpolation) and back
//! interpolation — the two operations the LRU hardware unit accelerates
//! (paper §IV.A, Eqs. 12–17).
//!
//! * **CA mode** (Eq. 12): spread point charges onto the grid with the
//!   order-`p` central B-spline, `Q_m = Σ_i q_i M_p(u_i − m − nN)`.
//! * **BI mode** (Eqs. 13–17): read the potential and force back,
//!   `φ_i = Σ_m Φ_m M_p(u_i − m)` and
//!   `F_i = −(q_i/h) Σ_m Φ_m M_p'(u_i − m)` per axis.
//!
//! Both use identical spline weights, which makes assignment and
//! interpolation exact adjoints — the property that gives mesh Ewald
//! methods their conservative (zero net self-force) structure.
//!
//! Every transfer evaluates the weights of four atoms at a time (all three
//! axes) through the 4-lane de Boor triangle, bit-identical to
//! [`BSpline::weights_into`], and runs one spread or gather body compiled
//! once per supported order (DESIGN.md §10.3). The TME's transfers run on
//! [`TransferBins`]: atoms binned into fixed x-plane parts, each part
//! spreading into a private slab, the way each MDGRAPE-4A SoC's LRU spreads
//! only its own domain (DESIGN.md §9.2).

use crate::bspline::{support_origin, weights4, with_order, BSpline, SplineWeights};
use crate::grid::Grid3;
use crate::window::PswfWindow;
use tme_num::pool::{chunk_bounds, Pool, SendPtr};
use tme_num::vec3::V3;

/// Atoms per parallel back-interpolation part. Outputs are per-atom
/// disjoint, so the value affects load balance only, never results.
const INTERP_CHUNK: usize = 64;

/// Below this many atoms per pool thread a transfer runs its parts inline
/// — spreading or gathering a few hundred atoms over workers costs more in
/// dispatch latency than the spline work saves (DESIGN.md §15). Where the
/// parts run never changes a bit of the result.
const TRANSFER_SERIAL_ATOMS_PER_THREAD: usize = 512;

/// Nominal width in x planes of one [`TransferBins`] part: `nx / 8` parts
/// (at least one). Part boundaries depend on the grid only, never on the
/// thread count.
const PART_PLANES: usize = 8;

/// Wrapped per-axis support indices: `out[i] = (m0 + i) mod n` for the `P`
/// support points of one axis, computed once per atom so the `P³` transfer
/// loops do no modular arithmetic. Returns the first wrapped index (the
/// support is contiguous in memory iff `first + P ≤ n`).
#[inline]
fn wrap_support<const P: usize>(n: usize, m0: i64, out: &mut [usize; P]) -> usize {
    let mut m = m0.rem_euclid(n as i64) as usize;
    let first = m;
    for slot in out.iter_mut() {
        *slot = m;
        m += 1;
        if m == n {
            m = 0;
        }
    }
    first
}

/// Add one atom's charge `qi` into `data`, a stack of `ny × nz` planes in
/// which support point `ix` lands on plane `xs[ix]`. The y and z supports
/// wrap; the z pass walks the row as a dense slice whenever the support
/// does not lap the boundary. Products and their order are the naive
/// triple loop's, so every cell sums its atoms in visit order.
#[inline]
fn spread_atom<const P: usize>(
    data: &mut [f64],
    [ny, nz]: [usize; 2],
    xs: &[usize; P],
    sx: &SplineWeights,
    sy: &SplineWeights,
    sz: &SplineWeights,
    qi: f64,
) {
    let (mut ys, mut zs) = ([0usize; P], [0usize; P]);
    wrap_support(ny, sy.m0, &mut ys);
    let z0 = wrap_support(nz, sz.m0, &mut zs);
    let wz = &sz.w[..P];
    let z_contig = z0 + P <= nz;
    for (&x, &wxv) in xs.iter().zip(&sx.w[..P]) {
        let qx = qi * wxv;
        let row_x = x * ny;
        for (&y, &wyv) in ys.iter().zip(&sy.w[..P]) {
            let qxy = qx * wyv;
            let row = (row_x + y) * nz;
            if z_contig {
                for (cell, &wzv) in data[row + z0..row + z0 + P].iter_mut().zip(wz) {
                    *cell += qxy * wzv;
                }
            } else {
                for (&iz, &wzv) in zs.iter().zip(wz) {
                    data[row + iz] += qxy * wzv;
                }
            }
        }
    }
}

/// Spline-based particle↔grid operator for one periodic box + grid.
#[derive(Clone, Debug)]
pub struct SplineOps {
    spline: BSpline,
    /// Replaces the B-spline as the gridding window when set (PSWF-SPME
    /// backend); `None` is the classic B-spline path. Both share the same
    /// support convention, so every transfer loop below is window-blind.
    window: Option<PswfWindow>,
    n: [usize; 3],
    box_l: V3,
    h: V3,
}

/// Per-atom result of back interpolation.
#[derive(Clone, Debug, Default)]
pub struct Interpolated {
    /// Electrostatic potential `φ_i` at each atom (Eq. 15).
    pub potential: Vec<f64>,
    /// Force `F_i = −q_i ∇φ(r_i)` on each atom (Eq. 16), *without* any
    /// Coulomb-constant prefactor (the caller applies units).
    pub force: Vec<V3>,
}

/// Spatial bins and slabs of the TME's particle↔grid transfers — the
/// software form of the LRU's domain layout (DESIGN.md §9.2).
///
/// The x planes split into fixed parts (`nx / 8` of them, boundaries from
/// [`chunk_bounds`]). An atom's bin is the part holding the first x plane
/// of its support, from the same `floor(u)` the weights use. Assignment
/// spreads each part's atoms, in index order, into a private slab of
/// `W + p − 1` planes (`W` = the part's width) and then sums, for every
/// output plane, the slab planes covering it in part order — a slab may
/// cover a plane twice when `W + p − 1 > nx`. Interpolation walks the
/// atoms in the same bin order, so consecutive atoms read one band of the
/// potential. Everything here depends on the grid and the order only, so
/// results are bitwise identical at any thread count; the buffers are
/// sized once per atom count and allocate nothing after that.
#[derive(Debug)]
pub struct TransferBins {
    dims: [usize; 3],
    order_p: usize,
    /// Part `k` owns the first-support planes `lo[k]..lo[k + 1]`.
    lo: Vec<usize>,
    /// The part owning each x plane.
    part_of: Vec<usize>,
    /// Part `k`'s atoms are `atoms[start[k]..start[k + 1]]`.
    start: Vec<usize>,
    /// Per-part fill cursor of the counting sort.
    cursor: Vec<usize>,
    /// Bin of each atom of the last binning.
    key: Vec<usize>,
    /// Atom indices grouped by part, index order within a part.
    atoms: Vec<usize>,
    /// Planes per slab: the widest part's `W + p − 1`.
    slab_planes: usize,
    /// One slab of `slab_planes` planes per part.
    slabs: Vec<f64>,
}

impl TransferBins {
    /// Bins and slabs for the transfers of `ops`.
    #[must_use]
    pub fn new(ops: &SplineOps) -> Self {
        let [nx, ny, nz] = ops.dims();
        let parts = (nx / PART_PLANES).max(1);
        let lo: Vec<usize> = (0..=parts).map(|k| chunk_bounds(nx, parts, k).0).collect();
        let mut part_of = vec![0; nx];
        for (k, w) in lo.windows(2).enumerate() {
            part_of[w[0]..w[1]].fill(k);
        }
        let widest = lo.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let slab_planes = widest + ops.order() - 1;
        Self {
            dims: ops.dims(),
            order_p: ops.order(),
            part_of,
            start: vec![0; parts + 1],
            cursor: vec![0; parts],
            key: Vec::new(),
            atoms: Vec::new(),
            slab_planes,
            slabs: vec![0.0; parts * slab_planes * ny * nz],
            lo,
        }
    }

    /// Stable counting sort of the atoms by the part holding their first
    /// support plane.
    fn bin(&mut self, ops: &SplineOps, pos: &[V3]) {
        let nx = self.dims[0] as i64;
        self.key.resize(pos.len(), 0);
        self.atoms.resize(pos.len(), 0);
        self.start.fill(0);
        for (key, r) in self.key.iter_mut().zip(pos) {
            let x0 = ops.first_support_plane(*r);
            *key = self.part_of[x0.rem_euclid(nx) as usize];
            self.start[*key + 1] += 1;
        }
        let parts = self.cursor.len();
        for k in 0..parts {
            self.start[k + 1] += self.start[k];
        }
        self.cursor.copy_from_slice(&self.start[..parts]);
        for (i, &k) in self.key.iter().enumerate() {
            self.atoms[self.cursor[k]] = i;
            self.cursor[k] += 1;
        }
    }
}

impl SplineOps {
    /// `p`-order operator on an `n`-point grid over box lengths `box_l` (nm).
    pub fn new(p: usize, n: [usize; 3], box_l: V3) -> Self {
        assert!(box_l.iter().all(|&l| l > 0.0));
        let h = [
            box_l[0] / n[0] as f64,
            box_l[1] / n[1] as f64,
            box_l[2] / n[2] as f64,
        ];
        Self {
            spline: BSpline::new(p),
            window: None,
            n,
            box_l,
            h,
        }
    }

    /// Operator gridding with a [`PswfWindow`] instead of the B-spline
    /// (same support width `window.order()`, same transfer loops). The
    /// matching Fourier-space deconvolution is
    /// [`crate::greens::influence_windowed`].
    pub fn with_window(n: [usize; 3], box_l: V3, window: PswfWindow) -> Self {
        let mut ops = Self::new(window.order(), n, box_l);
        ops.window = Some(window);
        ops
    }

    pub fn order(&self) -> usize {
        self.spline.order()
    }

    pub fn dims(&self) -> [usize; 3] {
        self.n
    }

    pub fn spacing(&self) -> V3 {
        self.h
    }

    pub fn box_lengths(&self) -> V3 {
        self.box_l
    }

    /// Normalised grid coordinate `u = r/h` per axis.
    #[inline]
    fn normalised(&self, r: V3) -> V3 {
        [r[0] / self.h[0], r[1] / self.h[1], r[2] / self.h[2]]
    }

    /// Unwrapped first x plane of the support of an atom at `r`: the
    /// `m0` its x weights carry, from the same expression.
    #[inline]
    fn first_support_plane(&self, r: V3) -> i64 {
        support_origin(self.normalised(r)[0], self.order()).1
    }

    /// The three axis weights of four atoms, lane `l` for atom `ids[l]`:
    /// B-spline weights from the 4-lane triangle, PSWF weights from one
    /// window evaluation per lane.
    #[inline]
    fn lane_weights<const P: usize>(
        &self,
        pos: &[V3],
        ids: [usize; 4],
        out: &mut [[SplineWeights; 4]; 3],
    ) {
        let mut u = [[0.0f64; 4]; 3];
        for (l, &i) in ids.iter().enumerate() {
            let ul = self.normalised(pos[i]);
            for (ua, &v) in u.iter_mut().zip(&ul) {
                ua[l] = v;
            }
        }
        for (ua, wa) in u.iter().zip(out.iter_mut()) {
            match &self.window {
                Some(win) => {
                    for (&v, w) in ua.iter().zip(wa.iter_mut()) {
                        win.weights_into(v, w);
                    }
                }
                None => weights4::<P>(*ua, wa),
            }
        }
    }

    /// Visit atoms `id(0)`, …, `id(count − 1)` in that order, four at a
    /// time: `visit(ids, lanes, w)` gets the group's atom indices, how many
    /// of its lanes are real (a short last group repeats its last atom in
    /// the idle lanes) and the lanes' x, y and z weights.
    #[inline]
    fn for_each_group<const P: usize>(
        &self,
        pos: &[V3],
        count: usize,
        id: impl Fn(usize) -> usize,
        mut visit: impl FnMut([usize; 4], usize, &[[SplineWeights; 4]; 3]),
    ) {
        let mut w = [[SplineWeights::default(); 4]; 3];
        for j in (0..count).step_by(4) {
            let lanes = (count - j).min(4);
            let ids = std::array::from_fn(|l| id(j + l.min(lanes - 1)));
            self.lane_weights::<P>(pos, ids, &mut w);
            visit(ids, lanes, &w);
        }
    }

    /// Potentials and forces of the four atoms of a group (charges `q`)
    /// from the grid potential `data`. The lanes are interleaved in the
    /// innermost loop, so their accumulation chains overlap, but each
    /// lane sums its `P³` terms in the naive triple loop's order: each
    /// atom's result is bitwise that of a one-atom loop.
    #[inline]
    #[allow(clippy::needless_range_loop)] // ix, iy, iz index seven arrays each
    fn gather4<const P: usize>(
        &self,
        data: &[f64],
        w: &[[SplineWeights; 4]; 3],
        q: [f64; 4],
    ) -> ([f64; 4], [V3; 4]) {
        let [nx, ny, nz] = self.n;
        let (mut xs, mut ys, mut zs) = ([[0usize; P]; 4], [[0usize; P]; 4], [[0usize; P]; 4]);
        for l in 0..4 {
            wrap_support(nx, w[0][l].m0, &mut xs[l]);
            wrap_support(ny, w[1][l].m0, &mut ys[l]);
            wrap_support(nz, w[2][l].m0, &mut zs[l]);
        }
        let (mut pot, mut gx, mut gy, mut gz) =
            ([0.0f64; 4], [0.0f64; 4], [0.0f64; 4], [0.0f64; 4]);
        for ix in 0..P {
            for iy in 0..P {
                let (mut wxy, mut dxy, mut xdy, mut row) = ([0.0; 4], [0.0; 4], [0.0; 4], [0; 4]);
                for l in 0..4 {
                    let (wxv, dxv) = (w[0][l].w[ix], w[0][l].dw[ix]);
                    wxy[l] = wxv * w[1][l].w[iy];
                    dxy[l] = dxv * w[1][l].w[iy];
                    xdy[l] = wxv * w[1][l].dw[iy];
                    row[l] = (xs[l][ix] * ny + ys[l][iy]) * nz;
                }
                for iz in 0..P {
                    for l in 0..4 {
                        let v = data[row[l] + zs[l][iz]];
                        let (wzv, dzv) = (w[2][l].w[iz], w[2][l].dw[iz]);
                        pot[l] += wxy[l] * wzv * v;
                        gx[l] += dxy[l] * wzv * v;
                        gy[l] += xdy[l] * wzv * v;
                        gz[l] += wxy[l] * dzv * v;
                    }
                }
            }
        }
        // F = −q ∇φ; ∇ in real space divides by the grid spacing.
        let force = std::array::from_fn(|l| {
            [
                -q[l] * gx[l] / self.h[0],
                -q[l] * gy[l] / self.h[1],
                -q[l] * gz[l] / self.h[2],
            ]
        });
        (pot, force)
    }

    /// Charge assignment (Eq. 12): returns the grid of charges `Q_m`.
    pub fn assign(&self, pos: &[V3], q: &[f64]) -> Grid3 {
        let mut grid = Grid3::zeros(self.n);
        self.assign_into(pos, q, &mut grid);
        grid
    }

    /// Charge assignment accumulating into an existing grid (the GM
    /// accumulate-on-write pattern: distributed partial sums just add).
    /// Serial; every cell sums its atoms in index order.
    pub fn assign_into(&self, pos: &[V3], q: &[f64], grid: &mut Grid3) {
        assert_eq!(pos.len(), q.len());
        assert_eq!(grid.dims(), self.n);
        let [nx, ny, nz] = self.n;
        let data = grid.as_mut_slice();
        with_order!(self.order(), P => {
            self.for_each_group::<P>(pos, pos.len(), |j| j, |ids, lanes, w| {
                for (l, &i) in ids.iter().enumerate().take(lanes) {
                    let mut xs = [0usize; P];
                    wrap_support(nx, w[0][l].m0, &mut xs);
                    spread_atom::<P>(data, [ny, nz], &xs, &w[0][l], &w[1][l], &w[2][l], q[i]);
                }
            });
        });
    }

    /// Charge assignment through `bins`, *overwriting* `grid`: the atoms
    /// are binned into the fixed x-plane parts, each part spreads into its
    /// private slab, and each output plane sums its slab planes in part
    /// order (see [`TransferBins`]). Equal to [`Self::assign_into`] on a
    /// zeroed grid up to summation order, bitwise identical at any thread
    /// count, allocation-free once `bins` has seen this many atoms.
    pub fn assign_binned_into(
        &self,
        pos: &[V3],
        q: &[f64],
        pool: &Pool,
        bins: &mut TransferBins,
        grid: &mut Grid3,
    ) {
        assert_eq!(pos.len(), q.len());
        assert_eq!(grid.dims(), self.n);
        assert!(
            bins.dims == self.n && bins.order_p == self.order(),
            "transfer bins planned for another grid or order"
        );
        bins.bin(self, pos);
        with_order!(self.order(), P => self.spread_slabs::<P>(pos, q, pool, bins));
        let [nx, ny, nz] = self.n;
        let plane = ny * nz;
        let p = self.order();
        let (lo, slabs, slab_planes) = (&bins.lo, &bins.slabs, bins.slab_planes);
        let per_slab = slab_planes * plane;
        pool.for_each_chunk_sized(
            grid.as_mut_slice(),
            plane,
            pos.len(),
            TRANSFER_SERIAL_ATOMS_PER_THREAD,
            |x, out| {
                // Every plane is covered at least by its own part's slab.
                let mut first = true;
                for (k, w) in lo.windows(2).enumerate() {
                    let planes = w[1] - w[0] + p - 1;
                    let mut s = (x + nx - w[0]) % nx;
                    while s < planes {
                        let src = &slabs[k * per_slab + s * plane..][..plane];
                        if first {
                            out.copy_from_slice(src);
                            first = false;
                        } else {
                            for (d, &v) in out.iter_mut().zip(src) {
                                *d += v;
                            }
                        }
                        s += nx;
                    }
                }
            },
        );
    }

    /// Each part of `bins` zeroes its slab and spreads its atoms into it,
    /// in bin order.
    fn spread_slabs<const P: usize>(
        &self,
        pos: &[V3],
        q: &[f64],
        pool: &Pool,
        bins: &mut TransferBins,
    ) {
        let [nx, ny, nz] = self.n;
        let plane = ny * nz;
        let TransferBins {
            lo,
            start,
            atoms,
            slab_planes,
            slabs,
            ..
        } = bins;
        pool.for_each_chunk_sized(
            slabs,
            *slab_planes * plane,
            pos.len(),
            TRANSFER_SERIAL_ATOMS_PER_THREAD,
            |k, slab| {
                let (x_lo, x_hi) = (lo[k], lo[k + 1]);
                slab[..(x_hi - x_lo + P - 1) * plane].fill(0.0);
                let ids = &atoms[start[k]..start[k + 1]];
                self.for_each_group::<P>(
                    pos,
                    ids.len(),
                    |j| ids[j],
                    |group, lanes, w| {
                        for (l, &i) in group.iter().enumerate().take(lanes) {
                            let (sx, sy, sz) = (&w[0][l], &w[1][l], &w[2][l]);
                            let x0 = sx.m0.rem_euclid(nx as i64) as usize;
                            debug_assert!(
                                (x_lo..x_hi).contains(&x0),
                                "atom {i}: support starts at plane {x0}, outside part {k}"
                            );
                            let xs = std::array::from_fn(|ix| x0 - x_lo + ix);
                            spread_atom::<P>(slab, [ny, nz], &xs, sx, sy, sz, q[i]);
                        }
                    },
                );
            },
        );
    }

    /// Back interpolation (BI mode): per-atom potential and force from the
    /// grid potential `Φ` (Eqs. 15–17).
    pub fn interpolate(&self, phi: &Grid3, pos: &[V3], q: &[f64]) -> Interpolated {
        let mut out = Interpolated::default();
        self.interpolate_into(phi, pos, q, Pool::global(), &mut out);
        out
    }

    /// [`Self::interpolate`] writing into a reused [`Interpolated`] (resized
    /// as needed, allocation-free once warm), parallel over atom chunks in
    /// index order. Per-atom outputs are independent, so results are
    /// bitwise identical at any thread count.
    pub fn interpolate_into(
        &self,
        phi: &Grid3,
        pos: &[V3],
        q: &[f64],
        pool: &Pool,
        out: &mut Interpolated,
    ) {
        self.gather_into(phi, pos, q, pool, |j| j, out);
    }

    /// [`Self::interpolate_into`] walking the atoms in the bin order of
    /// the last [`Self::assign_binned_into`] on `bins` (same atoms), so
    /// each part reads one band of the potential. Each atom's outputs are
    /// still written at its own index and computed by the same per-atom
    /// kernel, so the result is bitwise [`Self::interpolate_into`]'s.
    pub fn interpolate_binned_into(
        &self,
        phi: &Grid3,
        pos: &[V3],
        q: &[f64],
        pool: &Pool,
        bins: &TransferBins,
        out: &mut Interpolated,
    ) {
        let atoms = &bins.atoms;
        assert_eq!(atoms.len(), pos.len(), "bins of another atom set");
        self.gather_into(phi, pos, q, pool, |j| atoms[j], out);
    }

    /// Gather atoms `id(0..n)` — a permutation of `0..n` — in chunks of
    /// [`INTERP_CHUNK`] consecutive visits, inline below
    /// [`TRANSFER_SERIAL_ATOMS_PER_THREAD`] atoms per thread.
    fn gather_into(
        &self,
        phi: &Grid3,
        pos: &[V3],
        q: &[f64],
        pool: &Pool,
        id: impl Fn(usize) -> usize + Sync,
        out: &mut Interpolated,
    ) {
        assert_eq!(pos.len(), q.len());
        assert_eq!(phi.dims(), self.n);
        let n = pos.len();
        out.potential.resize(n, 0.0);
        out.force.resize(n, [0.0; 3]);
        let data = phi.as_slice();
        let pot_base = SendPtr(out.potential.as_mut_ptr());
        let force_base = SendPtr(out.force.as_mut_ptr());
        let parts = n.div_ceil(INTERP_CHUNK);
        pool.run_parts_sized(
            parts,
            n,
            TRANSFER_SERIAL_ATOMS_PER_THREAD,
            |part, _worker| {
                let (lo, hi) = (part * INTERP_CHUNK, ((part + 1) * INTERP_CHUNK).min(n));
                with_order!(self.order(), P => {
                    self.for_each_group::<P>(pos, hi - lo, |j| id(lo + j), |ids, lanes, w| {
                        let (pot, force) = self.gather4::<P>(data, w, ids.map(|i| q[i]));
                        for (l, &i) in ids.iter().enumerate().take(lanes) {
                            assert!(i < n);
                            // SAFETY: `id` is a permutation of `0..n` and the
                            // parts visit disjoint ranges of it, each part once,
                            // so each output element is written by exactly one
                            // part while `run_parts_sized` holds the borrow of
                            // `out`.
                            unsafe {
                                *pot_base.get().add(i) = pot[l];
                                *force_base.get().add(i) = force[l];
                            }
                        }
                    });
                });
            },
        );
    }

    /// Mesh energy `E = ½ Σ_i q_i φ_i` (Eq. 14), given per-atom potentials.
    pub fn energy(q: &[f64], potential: &[f64]) -> f64 {
        0.5 * q.iter().zip(potential).map(|(a, b)| a * b).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tme_num::rng::SplitMix64;

    fn ops() -> SplineOps {
        SplineOps::new(6, [8, 8, 8], [4.0, 4.0, 4.0])
    }

    #[test]
    fn assignment_conserves_total_charge() {
        let o = ops();
        let pos = vec![[0.1, 3.9, 2.0], [1.77, 0.02, 3.3], [2.5, 2.5, 2.5]];
        let q = vec![1.0, -0.5, 0.25];
        let grid = o.assign(&pos, &q);
        assert!((grid.sum() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn assignment_is_periodic() {
        let o = ops();
        let a = o.assign(&[[0.05, 2.0, 2.0]], &[1.0]);
        let b = o.assign(&[[0.05 + 4.0, 2.0, 2.0]], &[1.0]);
        for ((_, va), (_, vb)) in a.iter().zip(b.iter()) {
            assert!((va - vb).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_grid_interpolates_to_constant_with_zero_force() {
        let o = ops();
        let mut phi = Grid3::zeros([8, 8, 8]);
        phi.fill(2.5);
        let pos = vec![[0.33, 1.9, 3.7], [2.0, 2.0, 2.0]];
        let q = vec![1.0, -1.0];
        let out = o.interpolate(&phi, &pos, &q);
        for &p in &out.potential {
            assert!((p - 2.5).abs() < 1e-12);
        }
        for f in &out.force {
            assert!(f.iter().all(|c| c.abs() < 1e-10), "{f:?}");
        }
    }

    #[test]
    fn assignment_and_interpolation_are_adjoint() {
        // ⟨assign(q, r), Φ⟩ = q · interp(Φ, r) for any grid Φ.
        let o = ops();
        let r = [1.234, 0.567, 3.891];
        let q = 0.8;
        let grid = o.assign(&[r], &[q]);
        let mut phi = Grid3::zeros([8, 8, 8]);
        for (i, v) in phi.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 37 % 101) as f64 - 50.0) * 0.013;
        }
        let lhs = grid.dot(&phi);
        let rhs = q * o.interpolate(&phi, &[r], &[q]).potential[0];
        assert!((lhs - rhs).abs() < 1e-11, "{lhs} vs {rhs}");
    }

    #[test]
    fn force_matches_numerical_gradient() {
        let o = ops();
        let mut phi = Grid3::zeros([8, 8, 8]);
        for (i, v) in phi.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f64) * 0.7).sin();
        }
        let r = [1.3, 2.21, 0.77];
        let q = 1.5;
        let out = o.interpolate(&phi, &[r], &[q]);
        let h = 1e-6;
        for axis in 0..3 {
            let mut rp = r;
            let mut rm = r;
            rp[axis] += h;
            rm[axis] -= h;
            let at = |r: V3| o.interpolate(&phi, &[r], &[q]).potential[0];
            let grad = (at(rp) - at(rm)) / (2.0 * h);
            let want = -q * grad;
            assert!(
                (out.force[0][axis] - want).abs() < 1e-6 * (1.0 + want.abs()),
                "axis {axis}: {} vs {want}",
                out.force[0][axis]
            );
        }
    }

    #[test]
    fn point_charge_spreads_to_p_cubed_points() {
        let o = ops();
        let grid = o.assign(&[[1.26, 1.26, 1.26]], &[1.0]);
        let nonzero = grid.as_slice().iter().filter(|v| v.abs() > 1e-300).count();
        assert_eq!(nonzero, 6 * 6 * 6);
    }

    #[test]
    fn energy_helper() {
        let e = SplineOps::energy(&[1.0, 2.0], &[3.0, -1.0]);
        assert_eq!(e, 0.5);
    }

    #[test]
    fn anisotropic_box_uses_per_axis_spacing() {
        let o = SplineOps::new(4, [4, 8, 16], [2.0, 2.0, 2.0]);
        assert_eq!(o.spacing(), [0.5, 0.25, 0.125]);
        let grid = o.assign(&[[1.0, 1.0, 1.0]], &[2.0]);
        assert!((grid.sum() - 2.0).abs() < 1e-12);
    }

    /// The 4-lane triangle is the scalar one, bit for bit, at every order:
    /// on exact planes, one ulp below them, at negative coordinates, just
    /// below the grid size and with lanes from different cells.
    #[test]
    fn four_lane_weights_equal_scalar_bits() {
        let plane = 5.0f64;
        let lanes = [
            [plane, plane.next_down(), -3.25, 16.0f64.next_down()],
            [0.0, -0.0f64.next_down(), 1e-300, -1e-300],
            [-7.0, (-7.0f64).next_down(), 15.5, 2.0f64.next_up()],
            [0.375, 123.456, -0.999, 8.0],
        ];
        for p in (2..=12).step_by(2) {
            let sp = BSpline::new(p);
            for u in lanes {
                let mut four = [SplineWeights::default(); 4];
                sp.weights_into4(u, &mut four);
                for (l, got) in four.iter().enumerate() {
                    let mut want = SplineWeights::default();
                    sp.weights_into(u[l], &mut want);
                    assert_eq!(got.m0(), want.m0(), "p={p} u={}", u[l]);
                    for (a, b) in got.w().iter().zip(want.w()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "p={p} u={} w", u[l]);
                    }
                    for (a, b) in got.dw().iter().zip(want.dw()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "p={p} u={} dw", u[l]);
                    }
                }
            }
        }
    }

    fn random_atoms(n: usize, box_l: V3, seed: u64) -> (Vec<V3>, Vec<f64>) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let pos = (0..n)
            .map(|_| std::array::from_fn(|a| rng.gen_range(-0.3 * box_l[a]..1.3 * box_l[a])))
            .collect();
        let q = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (pos, q)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Binned assignment against the serial oracle on one system: within
    /// 1e-14 · max|Q|, charge conserved, the same bits at 1, 2 and 4
    /// threads (the larger systems dispatch, the smaller run inline), and
    /// bin-ordered interpolation bitwise equal to `interpolate_into`.
    fn check_binned(ops: &SplineOps, pos: &[V3], q: &[f64]) {
        let want = ops.assign(pos, q);
        let mut runs = Vec::new();
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let mut bins = TransferBins::new(ops);
            let mut grid = Grid3::zeros(ops.dims());
            grid.fill(7.0); // overwritten, not accumulated into
            ops.assign_binned_into(pos, q, &pool, &mut bins, &mut grid);
            let mut order = bins.atoms.clone();
            order.sort_unstable();
            assert!(
                order.iter().copied().eq(0..pos.len()),
                "bins are no permutation"
            );
            let mut phi = Grid3::zeros(ops.dims());
            for (i, v) in phi.as_mut_slice().iter_mut().enumerate() {
                *v = (i as f64 * 0.61).sin();
            }
            let (mut a, mut b) = (Interpolated::default(), Interpolated::default());
            ops.interpolate_into(&phi, pos, q, &pool, &mut a);
            ops.interpolate_binned_into(&phi, pos, q, &pool, &bins, &mut b);
            assert_eq!(bits(&a.potential), bits(&b.potential));
            let flat = |f: &[V3]| bits(&f.iter().flatten().copied().collect::<Vec<_>>());
            assert_eq!(flat(&a.force), flat(&b.force));
            runs.push(grid);
        }
        let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (got, w) in runs[0].as_slice().iter().zip(want.as_slice()) {
            assert!(
                (got - w).abs() <= 1e-14 * scale,
                "{got} vs {w} (max |Q| {scale})"
            );
        }
        // B-spline weights are a partition of unity; PSWF weights are not.
        let total: f64 = if ops.window.is_none() {
            q.iter().sum()
        } else {
            want.sum()
        };
        assert!((runs[0].sum() - total).abs() < 1e-12 * (1.0 + q.len() as f64));
        for run in &runs[1..] {
            assert_eq!(bits(runs[0].as_slice()), bits(run.as_slice()));
        }
    }

    #[test]
    fn binned_assignment_matches_serial_on_wrapping_slabs() {
        for p in (2..=12).step_by(2) {
            // The smallest grid for the order (one part, a slab of 2p − 1
            // planes over p) and a 16-plane grid (two parts; at p = 12 each
            // slab of 19 planes covers some planes twice).
            for (n, box_l) in [([p; 3], [1.7, 1.7, 1.7]), ([16, p, 2 * p], [3.0, 1.1, 2.3])] {
                let ops = SplineOps::new(p, n, box_l);
                for atoms in [0, 1, 300, 2100] {
                    let (pos, q) = random_atoms(atoms, box_l, (p * 1000 + atoms) as u64);
                    check_binned(&ops, &pos, &q);
                }
            }
        }
    }

    #[test]
    fn binned_assignment_on_anisotropic_boxes_and_pswf() {
        let box_l = [5.0, 2.0, 3.3];
        let (pos, q) = random_atoms(2100, box_l, 11);
        check_binned(&SplineOps::new(6, [40, 8, 24], box_l), &pos, &q);
        let win = PswfWindow::for_order(8);
        check_binned(&SplineOps::with_window([24, 16, 8], box_l, win), &pos, &q);
    }

    /// Atoms whose support starts exactly on a part boundary, and one ulp
    /// below it, bin to the part their weights write into (the slab
    /// `debug_assert` would fire otherwise) — and all atoms in one part.
    #[test]
    fn atoms_on_part_boundaries_bin_where_their_support_starts() {
        let (p, n, box_l) = (6, [32, 8, 8], [3.3, 1.0, 1.0]);
        let ops = SplineOps::new(p, n, box_l);
        let bins = TransferBins::new(&ops);
        assert_eq!(bins.lo.len(), 5);
        let h = ops.spacing()[0];
        let mut pos = Vec::new();
        for &lo in &bins.lo {
            // floor(u) − p/2 + 1 = lo at u = lo + p/2 − 1.
            let u = (lo + p / 2 - 1) as f64;
            for x in [
                u * h,
                (u * h).next_down(),
                (u * h).next_up(),
                u.next_down() * h,
            ] {
                pos.push([x, 0.31, 0.77]);
                pos.push([x + box_l[0], 0.5, 0.1]);
                pos.push([x - box_l[0], 0.9, 0.6]);
            }
        }
        let q: Vec<f64> = (0..pos.len())
            .map(|i| if i % 2 == 0 { 1.0 } else { -0.5 })
            .collect();
        check_binned(&ops, &pos, &q);
        // Every atom in one part.
        let one: Vec<V3> = (0..2100)
            .map(|i| [1.2 + 1e-5 * i as f64, 0.5, 0.1 + 4e-4 * i as f64])
            .collect();
        let q1 = vec![0.25; one.len()];
        let mut bins = TransferBins::new(&ops);
        let mut grid = Grid3::zeros(n);
        ops.assign_binned_into(&one, &q1, &Pool::new(2), &mut bins, &mut grid);
        assert_eq!(bins.start[2] - bins.start[1], one.len());
        check_binned(&ops, &one, &q1);
    }
}
