//! Distributed-dataflow emulation: the TME grid pipeline executed the way
//! MDGRAPE-4A executes it — each node owns a rectangular block of the
//! grid, and every operation uses only local data plus explicit sleeve
//! (halo) exchanges with torus neighbours (§II: cells "managed by a node
//! at a corresponding coordinate"; §IV.A: "the number of sleeve grids";
//! §IV.B: blocks hopping along an axis).
//!
//! This module does not model *time* (that is `mdgrape-sim`); it models
//! *dataflow*. Every per-node operation is the solver's own operator —
//! [`convolve_axis`], [`LevelTransfer::restrict`],
//! [`LevelTransfer::prolong`] — run on the node's block widened by the
//! halo it receives ([`Decomposition::halo_block`]), and the interior is
//! then cropped out. The halo is deep enough that no interior point reaches
//! the padded block's periodic wrap, so each interior value is the global
//! operator's value at that point, from the owning nodes' data alone. The
//! tests prove the decomposed execution reproduces the single-address-space
//! solver, which is the correctness premise the hardware design rests on.

use crate::convolve::convolve_axis;
use crate::kernel::{Kernel1D, TensorKernel};
use crate::levels::LevelTransfer;
use tme_mesh::{Grid3, SplineOps};
use tme_num::vec3::V3;

/// The level-`l` shell prefactor `1/2^{l−1}` (paper Eq. 5 self-similarity).
#[inline]
pub fn level_prefactor(level: u32) -> f64 {
    1.0 / (1u64 << (level - 1)) as f64
}

/// A rejected [`Decomposition`] configuration: zero-sized axes or a grid
/// that does not tile evenly over the node mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompositionError {
    /// `nodes[axis]` is zero.
    ZeroNodes { axis: usize },
    /// `grid[axis]` is zero.
    ZeroGrid { axis: usize },
    /// `grid[axis]` is not a multiple of `nodes[axis]`.
    NotDivisible {
        axis: usize,
        nodes: [usize; 3],
        grid: [usize; 3],
    },
}

impl std::fmt::Display for DecompositionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroNodes { axis } => write!(f, "node mesh has zero extent on axis {axis}"),
            Self::ZeroGrid { axis } => write!(f, "grid has zero extent on axis {axis}"),
            Self::NotDivisible { axis, nodes, grid } => write!(
                f,
                "grid {grid:?} not divisible by nodes {nodes:?} on axis {axis}"
            ),
        }
    }
}

impl std::error::Error for DecompositionError {}

/// A block decomposition of a global grid over a 3-D node mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decomposition {
    /// Nodes per axis (the torus shape, e.g. [8, 8, 8]).
    pub nodes: [usize; 3],
    /// Global grid points per axis.
    pub grid: [usize; 3],
}

impl Decomposition {
    /// Validating constructor: every axis must be nonzero and the grid
    /// must tile evenly over the node mesh, or a typed error says which
    /// rule failed.
    pub fn try_new(nodes: [usize; 3], grid: [usize; 3]) -> Result<Self, DecompositionError> {
        for axis in 0..3 {
            if nodes[axis] == 0 {
                return Err(DecompositionError::ZeroNodes { axis });
            }
            if grid[axis] == 0 {
                return Err(DecompositionError::ZeroGrid { axis });
            }
            if !grid[axis].is_multiple_of(nodes[axis]) {
                return Err(DecompositionError::NotDivisible { axis, nodes, grid });
            }
        }
        Ok(Self { nodes, grid })
    }

    /// Panicking constructor for statically-known shapes; see
    /// [`Decomposition::try_new`] for the checked variant.
    pub fn new(nodes: [usize; 3], grid: [usize; 3]) -> Self {
        match Self::try_new(nodes, grid) {
            Ok(d) => d,
            // lint:allow(l2) — documented panicking front-end over try_new
            Err(e) => panic!("{e}"),
        }
    }

    /// Local block dims per node.
    pub fn local(&self) -> [usize; 3] {
        [
            self.grid[0] / self.nodes[0],
            self.grid[1] / self.nodes[1],
            self.grid[2] / self.nodes[2],
        ]
    }

    pub fn node_count(&self) -> usize {
        self.nodes[0] * self.nodes[1] * self.nodes[2]
    }

    /// Linear node id of node coordinates.
    pub fn node_id(&self, c: [usize; 3]) -> usize {
        (c[0] * self.nodes[1] + c[1]) * self.nodes[2] + c[2]
    }

    /// Node coordinates of a linear id.
    pub fn node_coord(&self, id: usize) -> [usize; 3] {
        let z = id % self.nodes[2];
        let y = (id / self.nodes[2]) % self.nodes[1];
        let x = id / (self.nodes[1] * self.nodes[2]);
        [x, y, z]
    }

    /// Global coordinates of node `id`'s first grid point.
    fn origin(&self, id: usize) -> [usize; 3] {
        let (c, local) = (self.node_coord(id), self.local());
        [0, 1, 2].map(|a| c[a] * local[a])
    }

    /// The value at global point `g` (periodic), read from the block of the
    /// node that owns it — the emulated sleeve/packet read.
    fn owned_value(&self, blocks: &[Grid3], g: [i64; 3]) -> f64 {
        let local = self.local();
        let mut node = [0; 3];
        let mut off = [0; 3];
        for a in 0..3 {
            let w = g[a].rem_euclid(self.grid[a] as i64) as usize;
            node[a] = w / local[a];
            off[a] = (w % local[a]) as i64;
        }
        blocks[self.node_id(node)].get(off)
    }

    /// Split a global grid into per-node local blocks (node-id order).
    pub fn split(&self, global: &Grid3) -> Vec<Grid3> {
        assert_eq!(global.dims(), self.grid);
        (0..self.node_count())
            .map(|id| crop(global, self.origin(id), self.local()))
            .collect()
    }

    /// Reassemble per-node blocks into the global grid.
    pub fn gather(&self, blocks: &[Grid3]) -> Grid3 {
        assert_eq!(blocks.len(), self.node_count());
        assert!(blocks.iter().all(|b| b.dims() == self.local()));
        tabulate(self.grid, |g| self.owned_value(blocks, g))
    }

    /// Node `id`'s block widened by `pad[a]` points on each side of axis
    /// `a`, every point read from the block of the node that owns it: the
    /// node's own data plus the sleeves its torus neighbours send.
    pub fn halo_block(&self, blocks: &[Grid3], id: usize, pad: [usize; 3]) -> Grid3 {
        assert_eq!(blocks.len(), self.node_count());
        let (o, local) = (self.origin(id), self.local());
        let dims = [0, 1, 2].map(|a| local[a] + 2 * pad[a]);
        tabulate(dims, |m| {
            self.owned_value(
                blocks,
                [0, 1, 2].map(|a| o[a] as i64 - pad[a] as i64 + m[a]),
            )
        })
    }

    /// Every node runs `op` on its block widened by `pad` and keeps the
    /// `out_local` points of the result that start at `skip`.
    fn per_node(
        &self,
        blocks: &[Grid3],
        pad: [usize; 3],
        skip: [usize; 3],
        out_local: [usize; 3],
        op: impl Fn(&Grid3) -> Grid3,
    ) -> Vec<Grid3> {
        (0..self.node_count())
            .map(|id| crop(&op(&self.halo_block(blocks, id, pad)), skip, out_local))
            .collect()
    }

    /// The coarse decomposition after one restriction: same node mesh,
    /// halved grid.
    pub fn halved(&self) -> Decomposition {
        Decomposition::new(self.nodes, self.grid.map(|n| n / 2))
    }
}

/// A grid of `dims` whose point `m` is `f(m)`.
fn tabulate(dims: [usize; 3], f: impl Fn([i64; 3]) -> f64) -> Grid3 {
    let [nx, ny, nz] = dims.map(|n| n as i64);
    let points = (0..nx).flat_map(|x| (0..ny).flat_map(move |y| (0..nz).map(move |z| [x, y, z])));
    Grid3::from_vec(dims, points.map(f).collect())
}

/// The `dims` points of `grid` that start at `start` (periodic).
fn crop(grid: &Grid3, start: [usize; 3], dims: [usize; 3]) -> Grid3 {
    tabulate(dims, |m| {
        grid.get([0, 1, 2].map(|a| start[a] as i64 + m[a]))
    })
}

/// Distributed 1-D convolution along `axis`: every node runs the global
/// [`convolve_axis`] on its block plus a `g_c`-deep halo along `axis` (the
/// kernel's reach) — the GCU pass with its torus packets (Eq. 18).
pub fn convolve_axis_distributed(
    dec: &Decomposition,
    blocks: &[Grid3],
    kernel: &Kernel1D,
    axis: usize,
) -> Vec<Grid3> {
    let mut pad = [0; 3];
    pad[axis] = kernel.gc();
    dec.per_node(blocks, pad, pad, dec.local(), |b| {
        convolve_axis(b, kernel, axis)
    })
}

/// Distributed separable convolution: M Gaussians × 3 axis passes, each
/// pass a fresh halo exchange — the full GCU level-convolution phase.
pub fn convolve_separable_distributed(
    dec: &Decomposition,
    blocks: &[Grid3],
    kernel: &TensorKernel,
    prefactor: f64,
) -> Vec<Grid3> {
    let local = dec.local();
    let mut acc: Vec<Grid3> = (0..dec.node_count()).map(|_| Grid3::zeros(local)).collect();
    for term in kernel.terms() {
        let gx = convolve_axis_distributed(dec, blocks, &term[0], 0);
        let gy = convolve_axis_distributed(dec, &gx, &term[1], 1);
        let gz = convolve_axis_distributed(dec, &gy, &term[2], 2);
        for (a, g) in acc.iter_mut().zip(&gz) {
            a.accumulate(g);
        }
    }
    for a in &mut acc {
        a.scale(prefactor);
    }
    acc
}

/// Distributed restriction: every node runs [`LevelTransfer::restrict`] on
/// its fine block plus a halo of `p/2` points (the two-scale stencil reaches
/// `2m ± p/2`) rounded up to even, so the padded block starts on a coarse
/// point and its coarse interior starts at `halo/2`.
pub fn restrict_distributed(
    dec: &Decomposition,
    blocks: &[Grid3],
    p: usize,
) -> (Decomposition, Vec<Grid3>) {
    let coarse = dec.halved();
    let halo = (p / 2).next_multiple_of(2);
    let t = LevelTransfer::new(p);
    let out = dec.per_node(blocks, [halo; 3], [halo / 2; 3], coarse.local(), |b| {
        t.restrict(b)
    });
    (coarse, out)
}

/// Distributed prolongation: every node runs [`LevelTransfer::prolong`] on
/// its coarse block plus a `⌈p/4⌉`-deep coarse halo — fine point `n` reads
/// coarse points `m` with `|n − 2m| ≤ p/2` — and keeps the fine interior,
/// which starts at `2·halo`.
pub fn prolong_distributed(
    coarse: &Decomposition,
    blocks: &[Grid3],
    p: usize,
) -> (Decomposition, Vec<Grid3>) {
    let fine = Decomposition::new(coarse.nodes, coarse.grid.map(|n| 2 * n));
    let halo = (p / 2).div_ceil(2);
    let t = LevelTransfer::new(p);
    let out = coarse.per_node(blocks, [halo; 3], [2 * halo; 3], fine.local(), |b| {
        t.prolong(b)
    });
    (fine, out)
}

/// End-to-end distributed TME long-range solve for `levels ≥ 1`:
/// distributed CA → per-level distributed convolutions with restrictions
/// between them → top-level FFT on the gathered coarsest charges (the
/// TMENW/root-FPGA step, which IS a global gather in hardware too) →
/// distributed prolongations accumulating the level potentials → gather
/// the fine potential.
///
/// Returns the finest-grid long-range potential, bit-comparable to
/// `Tme::long_range_grid_potential` up to f64 summation order.
pub fn long_range_distributed(
    dec: &Decomposition,
    ops: &SplineOps,
    kernel: &TensorKernel,
    top: &crate::toplevel::TopLevel,
    p: usize,
    pos: &[V3],
    q: &[f64],
) -> Grid3 {
    // The level count is fully determined by the fine-grid / top-grid
    // ratio (each restriction halves every axis); deriving it removes a
    // redundant, mismatch-prone degree of freedom.
    let ratio = dec.grid[0] / top.dims()[0];
    assert!(
        ratio >= 2 && ratio.is_power_of_two(),
        "top grid {:?} must be the fine grid {:?} halved L ≥ 1 times",
        top.dims(),
        dec.grid
    );
    let levels = ratio.trailing_zeros();
    for a in 0..3 {
        assert_eq!(
            dec.grid[a] >> levels,
            top.dims()[a],
            "inconsistent fine/top grids on axis {a}"
        );
    }
    let mut level_dec = *dec;
    let mut blocks = assign_distributed(dec, ops, pos, q);
    // Downward pass: convolve each level, restrict to the next.
    let mut mids: Vec<(Decomposition, Vec<Grid3>)> = Vec::with_capacity(levels as usize);
    for l in 1..=levels {
        let phi_mid =
            convolve_separable_distributed(&level_dec, &blocks, kernel, level_prefactor(l));
        mids.push((level_dec, phi_mid));
        let (coarser, coarser_blocks) = restrict_distributed(&level_dec, &blocks, p);
        level_dec = coarser;
        blocks = coarser_blocks;
    }
    // Top level: gather to the root, solve, split back.
    let q_top = level_dec.gather(&blocks);
    let phi_top = top.solve(&q_top);
    let mut phi_blocks = level_dec.split(&phi_top);
    let mut phi_dec = level_dec;
    // Upward pass: prolong and accumulate each level's potentials.
    while let Some((mid_dec, mid_blocks)) = mids.pop() {
        let (fine_dec, prolonged) = prolong_distributed(&phi_dec, &phi_blocks, p);
        debug_assert_eq!(fine_dec, mid_dec);
        phi_blocks = mid_blocks;
        for (f, pr) in phi_blocks.iter_mut().zip(&prolonged) {
            f.accumulate(pr);
        }
        phi_dec = mid_dec;
    }
    phi_dec.gather(&phi_blocks)
}

/// Distributed charge assignment: each node spreads only the atoms whose
/// cell it owns, into a private full-size grid (standing in for its local
/// grid plus sleeves), and the sleeves are accumulated onto the owning
/// neighbours (the GM accumulate-on-write exchange of §IV.A): the per-node
/// grids are summed in node order, then split into blocks.
pub fn assign_distributed(
    dec: &Decomposition,
    ops: &SplineOps,
    pos: &[V3],
    q: &[f64],
) -> Vec<Grid3> {
    assert_eq!(ops.dims(), dec.grid);
    let box_l = ops.box_lengths();
    let nodes = dec.nodes;
    // Bucket atoms by owning node (by wrapped position).
    let mut buckets: Vec<(Vec<V3>, Vec<f64>)> = (0..dec.node_count())
        .map(|_| (Vec::new(), Vec::new()))
        .collect();
    for (r, &qi) in pos.iter().zip(q) {
        let w = tme_num::vec3::wrap(*r, box_l);
        let node =
            [0, 1, 2].map(|a| ((w[a] / box_l[a] * nodes[a] as f64) as usize).min(nodes[a] - 1));
        let b = &mut buckets[dec.node_id(node)];
        b.0.push(w);
        b.1.push(qi);
    }
    // Integer-exact on hardware via the GM accumulate-on-write; in f64 the
    // node order fixes every cell's summation order.
    let mut total = Grid3::zeros(dec.grid);
    for (bpos, bq) in buckets.iter().filter(|(bpos, _)| !bpos.is_empty()) {
        total.accumulate(&ops.assign(bpos, bq));
    }
    dec.split(&total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolve::convolve_separable;
    use crate::rows::testing::{assert_bitwise, noise};
    use crate::shells::GaussianFit;

    fn random_grid(n: [usize; 3], seed: u64) -> Grid3 {
        Grid3::from_vec(n, noise(n.iter().product(), seed))
    }

    #[test]
    fn split_gather_roundtrip() {
        let dec = Decomposition::new([2, 4, 2], [8, 16, 8]);
        let g = random_grid([8, 16, 8], 5);
        let blocks = dec.split(&g);
        assert_eq!(blocks.len(), 16);
        assert_eq!(blocks[0].dims(), [4, 4, 4]);
        let back = dec.gather(&blocks);
        assert_eq!(g, back);
    }

    /// The distributed axis pass equals the global one bit for bit — the
    /// GCU dataflow premise.
    #[test]
    fn distributed_axis_convolution_matches_global() {
        let dec = Decomposition::new([2, 2, 2], [8, 8, 8]);
        let g = random_grid([8, 8, 8], 11);
        let kernel = Kernel1D::from_vals(3, vec![0.05, -0.1, 0.4, 1.0, 0.4, -0.1, 0.05]);
        let blocks = dec.split(&g);
        for axis in 0..3 {
            let dist = dec.gather(&convolve_axis_distributed(&dec, &blocks, &kernel, axis));
            assert_bitwise(&dist, &convolve_axis(&g, &kernel, axis), "axis pass");
        }
    }

    /// The full distributed level convolution (M Gaussians × 3 passes with
    /// halo exchanges) reproduces the global separable convolution.
    #[test]
    fn distributed_separable_matches_global() {
        let dec = Decomposition::new([2, 2, 2], [16, 16, 16]);
        let g = random_grid([16, 16, 16], 3);
        let fit = GaussianFit::new(2.2, 3);
        let kernel = TensorKernel::new(&fit, [0.31; 3], 6, 6);
        let blocks = dec.split(&g);
        let dist = dec.gather(&convolve_separable_distributed(&dec, &blocks, &kernel, 0.5));
        let (global, _) = convolve_separable(&g, &kernel, 0.5);
        for ((_, a), (_, b)) in dist.iter().zip(global.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    /// Distributed restriction with its even `p/2` halo equals the global
    /// one bit for bit.
    #[test]
    fn distributed_restriction_matches_global() {
        let dec = Decomposition::new([2, 2, 2], [16, 16, 16]);
        let g = random_grid([16, 16, 16], 7);
        let blocks = dec.split(&g);
        let (coarse_dec, coarse_blocks) = restrict_distributed(&dec, &blocks, 6);
        assert_eq!(coarse_dec.grid, [8, 8, 8]);
        let dist = coarse_dec.gather(&coarse_blocks);
        assert_bitwise(&dist, &LevelTransfer::new(6).restrict(&g), "restriction");
    }

    /// Distributed charge assignment (per-node atoms + sleeve
    /// accumulation) equals the global assignment up to f64 summation
    /// order.
    #[test]
    fn distributed_assignment_matches_global() {
        let dec = Decomposition::new([2, 2, 2], [16, 16, 16]);
        let ops = SplineOps::new(6, [16, 16, 16], [4.0, 4.0, 4.0]);
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<[f64; 3]> = (0..120)
            .map(|_| [next() * 4.0, next() * 4.0, next() * 4.0])
            .collect();
        let q: Vec<f64> = (0..120)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let blocks = assign_distributed(&dec, &ops, &pos, &q);
        let dist = dec.gather(&blocks);
        let global = ops.assign(&pos, &q);
        for ((_, a), (_, b)) in dist.iter().zip(global.iter()) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
        // Charge conserved too.
        assert!((dist.sum() - global.sum()).abs() < 1e-11);
    }

    /// Distributed prolongation equals the global adjoint.
    #[test]
    fn distributed_prolongation_matches_global() {
        let coarse = Decomposition::new([2, 2, 2], [8, 8, 8]);
        let g = random_grid([8, 8, 8], 13);
        let blocks = coarse.split(&g);
        let (fine_dec, fine_blocks) = prolong_distributed(&coarse, &blocks, 6);
        assert_eq!(fine_dec.grid, [16, 16, 16]);
        let dist = fine_dec.gather(&fine_blocks);
        let global = LevelTransfer::new(6).prolong(&g);
        for ((_, a), (_, b)) in dist.iter().zip(global.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    /// The full distributed long-range pipeline equals the global TME
    /// solver — the machine's complete dataflow, validated end-to-end.
    #[test]
    fn end_to_end_distributed_pipeline_matches_tme() {
        use crate::solver::{Tme, TmeParams};
        let box_l = [4.0f64; 3];
        let dec = Decomposition::new([2, 2, 2], [16, 16, 16]);
        let params = TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 6,
            m_gaussians: 3,
            alpha: 2.5,
            r_cut: 1.0,
        };
        let tme = Tme::new(params, box_l);
        let ops = SplineOps::new(6, [16; 3], box_l);
        let fit = GaussianFit::new(params.alpha, params.m_gaussians);
        let kernel = TensorKernel::new(&fit, ops.spacing(), 6, params.gc);
        let top = crate::toplevel::TopLevel::new([8; 3], box_l, params.alpha / 2.0, 6);

        let mut state = 55u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<[f64; 3]> = (0..60)
            .map(|_| [next() * 4.0, next() * 4.0, next() * 4.0])
            .collect();
        let q: Vec<f64> = (0..60)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();

        let dist = long_range_distributed(&dec, &ops, &kernel, &top, 6, &pos, &q);
        let global_q = ops.assign(&pos, &q);
        let (global_phi, _) = tme.long_range_grid_potential(&global_q);
        for ((_, a), (_, b)) in dist.iter().zip(global_phi.iter()) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
    }

    /// The same end-to-end agreement with two middle levels (L = 2, the
    /// §VI.A configuration) — restriction/prolongation chains through two
    /// decompositions.
    #[test]
    fn end_to_end_distributed_two_levels_matches_tme() {
        use crate::solver::{Tme, TmeParams};
        let box_l = [8.0f64; 3];
        let dec = Decomposition::new([2, 2, 2], [32, 32, 32]);
        let params = TmeParams {
            n: [32; 3],
            p: 6,
            levels: 2,
            gc: 6,
            m_gaussians: 3,
            alpha: 2.75,
            r_cut: 1.0,
        };
        let tme = Tme::new(params, box_l);
        let ops = SplineOps::new(6, [32; 3], box_l);
        let fit = GaussianFit::new(params.alpha, params.m_gaussians);
        let kernel = TensorKernel::new(&fit, ops.spacing(), 6, params.gc);
        let top = crate::toplevel::TopLevel::new([8; 3], box_l, params.alpha / 4.0, 6);

        let mut state = 77u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<[f64; 3]> = (0..40)
            .map(|_| [next() * 8.0, next() * 8.0, next() * 8.0])
            .collect();
        let q: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();

        let dist = long_range_distributed(&dec, &ops, &kernel, &top, 6, &pos, &q);
        let global_q = ops.assign(&pos, &q);
        let (global_phi, _) = tme.long_range_grid_potential(&global_q);
        for ((_, a), (_, b)) in dist.iter().zip(global_phi.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_decomposition_rejected() {
        let _ = Decomposition::new([3, 2, 2], [16, 16, 16]);
    }

    /// The checked constructor reports zero axes and indivisible shapes
    /// as typed errors and accepts valid shapes.
    #[test]
    fn try_new_validates_shapes() {
        assert_eq!(
            Decomposition::try_new([0, 2, 2], [16, 16, 16]),
            Err(DecompositionError::ZeroNodes { axis: 0 })
        );
        assert_eq!(
            Decomposition::try_new([2, 2, 2], [16, 0, 16]),
            Err(DecompositionError::ZeroGrid { axis: 1 })
        );
        assert_eq!(
            Decomposition::try_new([2, 2, 3], [16, 16, 16]),
            Err(DecompositionError::NotDivisible {
                axis: 2,
                nodes: [2, 2, 3],
                grid: [16, 16, 16],
            })
        );
        let ok = Decomposition::try_new([2, 4, 2], [8, 16, 8]);
        assert_eq!(ok, Ok(Decomposition::new([2, 4, 2], [8, 16, 8])));
    }
}
