//! Structure-of-arrays cell-list layout for the short-range pair sum
//! (DESIGN.md §15).
//!
//! [`crate::pairwise`] keeps the O(N²) minimum-image loop as the reference
//! oracle; this module is the production layout the solver hot path runs
//! on. Atoms are binned into cells of side ≥ `r_cut` by a stable counting
//! sort, and the sorted copy stores positions and charges as contiguous
//! `x/y/z/q` slices per cell — the same dense, regular stream the
//! MDGRAPE-4A nonbond pipelines consume. Pair work then walks each cell
//! against itself and its 13 forward stencil neighbours (half stencil, so
//! every unordered pair is visited exactly once), one home atom at a time,
//! in four steps:
//!
//! 1. **Prune:** dense cells are counting-sorted into z sub-slabs, so a
//!    home atom visits only the slabs of a neighbour cell that its cutoff
//!    sphere can reach given its xy gap to that cell — and skips the cell
//!    when the gap alone exceeds the cutoff. The bound is conservative by
//!    construction (DESIGN.md §15.2): it never drops a pair the cutoff
//!    test would accept.
//! 2. **Compact:** fixed-width chunks of the surviving slot range get
//!    `dx/dy/dz/r²` and one cutoff-mask bit per pair computed
//!    straight-line (no branches, no gathers — the compiler vectorises
//!    it); the hits are then copied, one per set bit, into a contiguous
//!    buffer shared by all 14 ranges of the atom.
//! 3. **Batch:** the segmented r²-table kernel evaluates the whole hit
//!    buffer in one pass ([`PairKernelTable::erfc_kernel_r2_batch`]).
//! 4. **Accumulate:** a short scalar pass in hit order applies Newton's
//!    third law into per-part slabs in sorted-slot space, each covering
//!    only the x-planes its part's cells can reach (its [`Window`]).
//!
//! The pair phase has a compile-time Lennard-Jones lane (`LJ`): with it,
//! step 4 also adds the Lorentz–Berthelot `4ε(s¹² − s⁶)` term of every
//! hit, in closed form from per-slot `σ/2` and `√ε` ([`LjAtom`]), with no
//! branch — a pair with ε = 0 adds exactly zero. Without it
//! ([`short_range_cells_into`]) the lane is compiled out and the loop is
//! the Coulomb-only one.
//!
//! The body exists once and is instantiated twice — plainly, and under
//! `#[target_feature(enable = "avx2")]` behind runtime detection. AVX2
//! without FMA performs the same IEEE operations per lane, so both
//! instantiations produce identical bits.
//!
//! Periodicity is resolved *per cell pair*, not per pair of atoms: with at
//! least 3 cells per axis and cell side ≥ `r_cut`, at most one periodic
//! image of any atom can sit inside the cutoff, so a constant per-stencil
//! box shift makes the displacement exact minimum-image with zero
//! rounding work in the inner loop. Boxes too small for that (fewer than
//! 3 cells on some axis) or too empty for binning to pay fall back to
//! brute-force rows through the same body with a branch-free half-box
//! fold.
//!
//! Determinism (DESIGN.md §9): work is split into [`CELL_PARTS`] fixed
//! cell-range partitions (functions of the cell count only), each part
//! accumulates in a fixed traversal order into its own slabs, and the
//! final merge folds parts in ascending order per slot before scattering
//! back to the original atom order — bitwise-identical results at any
//! `TME_THREADS`. Dispatches go through the pool's per-thread work sizing
//! ([`tme_num::pool::Pool::run_parts_sized`]) so sub-threshold systems
//! run inline instead of paying worker wake-ups.

use crate::model::{CoulombResult, CoulombSystem};
use tme_num::cast::floor_usize;
use tme_num::pool::{chunk_bounds, merge_ordered, Pool, SendPtr};
use tme_num::table::PairKernelTable;
use tme_num::vec3::{self, V3};

/// Fixed number of cell-range partitions for the parallel pair phase. A
/// constant (not the thread count) so the reduction order is deterministic.
pub const CELL_PARTS: usize = 16;

/// Below this many atoms per pool thread the pair phase runs inline: the
/// measured pool dispatch cost (~tens of µs of wake-up/quiesce latency)
/// swamps the ~µs-scale per-atom pair work of small systems, which is
/// exactly the negative scaling the 1536-atom benchmark rows showed.
/// The serial fallback only changes *where* parts run, never the part
/// boundaries or merge order, so results stay bitwise identical.
pub const SERIAL_ATOMS_PER_THREAD: usize = 256;

/// Fixed chunk width (pairs per distance/mask pass): one bit of a `u64`
/// cutoff mask per pair.
pub const CHUNK_W: usize = u64::BITS as usize;

/// Hits buffered before the table kernel must run. One home atom of the
/// paper box collects ~220 over its 14 slot ranges; a fuller buffer is
/// flushed early, which only splits that atom's partial sums.
const HIT_CAP: usize = 8 * CHUNK_W;

/// Mean atoms per z sub-slab the binning aims for, and the most slabs a
/// cell is cut into. Cells holding a handful of atoms stay whole (one
/// slab): there the slab bookkeeping costs more than the pairs it prunes.
const SLAB_ATOMS: usize = 32;
const MAX_SLABS: usize = 8;

/// Rounding slack of the prune, relative to the box edge (lengths) and to
/// `r_cut²` (squared lengths): 2⁻⁴⁰, several thousand ulps, where the
/// inequalities it protects are off by a few (DESIGN.md §15.2).
const PRUNE_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Slots per task when merging the per-part slabs back to atom order.
const MERGE_CHUNK: usize = 4096;

/// A part's slab grows to `len + len / SLAB_HEADROOM` (at most the atom
/// count), so atoms drifting across plane faces between warm calls do not
/// make it reallocate.
const SLAB_HEADROOM: usize = 8;

/// Half stencil: 13 forward neighbours. Together with in-cell pairs this
/// visits every unordered cell pair exactly once. The order is part of
/// the deterministic traversal (and matches the MD cell list).
pub const STENCIL: [[i64; 3]; 13] = [
    [1, 0, 0],
    [-1, 1, 0],
    [0, 1, 0],
    [1, 1, 0],
    [-1, -1, 1],
    [0, -1, 1],
    [1, -1, 1],
    [-1, 0, 1],
    [0, 0, 1],
    [1, 0, 1],
    [-1, 1, 1],
    [0, 1, 1],
    [1, 1, 1],
];

/// Plan-time cell decomposition of a periodic box: how many cells of side
/// ≥ `cell_side` fit along each axis.
#[derive(Clone, Copy, Debug)]
pub struct CellGrid {
    dims: [usize; 3],
}

impl CellGrid {
    /// Decompose `box_l` into cells of side ≥ `cell_side`, requiring at
    /// least 3 cells per axis (the bound that makes per-cell-pair shifts
    /// exact minimum images — see the module docs). `None` when the box
    /// is too small on some axis; callers then use a brute-force path.
    #[must_use]
    pub fn plan(box_l: V3, cell_side: f64) -> Option<Self> {
        assert!(cell_side > 0.0, "cell side must be positive");
        let mut dims = [0usize; 3];
        for j in 0..3 {
            let d = box_l[j] / cell_side;
            if !d.is_finite() || d < 3.0 {
                return None;
            }
            dims[j] = floor_usize(d);
        }
        Some(Self { dims })
    }

    /// [`CellGrid::plan`] with a cell-count cap tied to the atom count:
    /// `None` (→ brute force) when the box would shatter into far more
    /// cells than there are atoms, where binning costs memory without
    /// pruning work — and where a hostile sparse box could otherwise
    /// demand unbounded cell storage.
    #[must_use]
    pub fn plan_capped(box_l: V3, cell_side: f64, n_atoms: usize) -> Option<Self> {
        let grid = Self::plan(box_l, cell_side)?;
        if grid.n_cells() > 4 * n_atoms.max(16) + 64 {
            return None;
        }
        Some(grid)
    }

    /// Cells per axis.
    #[must_use]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total cell count.
    #[must_use]
    pub fn n_cells(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }
}

/// Sub-slab of a stored coordinate `z` inside the cell whose lower z face
/// is `z0`. Every step is monotone non-decreasing in `z`; the prune relies
/// on exactly that, evaluating this same expression on its window ends.
#[inline(always)]
fn slab_of(z: f64, z0: f64, inv_slab_h: f64, slabs: usize) -> usize {
    floor_usize(((z - z0) * inv_slab_h).max(0.0)).min(slabs - 1)
}

/// Atoms binned into cells, stored structure-of-arrays in sorted-slot
/// order: slot `s` holds atom `order[s]` with wrapped coordinates
/// `(x[s], y[s], z[s])`, and each cell's slots are contiguous
/// (`cell_range`). The counting sort is stable, so slots within a cell
/// are in ascending original-index order ([`CellBins::bin`]; the pair
/// kernel's own binning orders a dense cell by z sub-slab first). All
/// buffers are reused across rebuilds (resize-only — allocation-free once
/// warm).
#[derive(Clone, Debug, Default)]
pub struct CellBins {
    dims: [usize; 3],
    n: usize,
    /// z sub-slabs per cell (≥ 1 once binned); z is the fastest cell
    /// index, so a cell's slabs are one contiguous slot range.
    slabs: usize,
    /// Cell edge lengths, and slabs per unit z.
    side: V3,
    inv_slab_h: f64,
    /// Original index → cell·slabs + slab, scratch for the counting sort.
    key_of: Vec<u32>,
    /// (Cell, slab) → first slot; `n_cells·slabs + 1` prefix sums.
    start: Vec<u32>,
    /// Counting-sort write cursors, one per (cell, slab).
    cursor: Vec<u32>,
    /// Slot → original atom index (a permutation of `0..n`).
    order: Vec<u32>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl CellBins {
    /// Bin `pos` into `grid` over `box_l` (stable counting sort; positions
    /// are wrapped into the box first). Reuses every buffer.
    pub fn bin(&mut self, pos: &[V3], box_l: V3, grid: CellGrid) {
        self.bin_slabbed(pos, box_l, grid, 1);
    }

    /// [`CellBins::bin`] with each cell's slots further ordered into
    /// `slabs` equal z sub-slabs (stable within a slab).
    fn bin_slabbed(&mut self, pos: &[V3], box_l: V3, grid: CellGrid, slabs: usize) {
        let dims = grid.dims();
        let n = pos.len();
        let n_keys = grid.n_cells() * slabs;
        let df = [dims[0] as f64, dims[1] as f64, dims[2] as f64];
        self.dims = dims;
        self.n = n;
        self.slabs = slabs;
        self.side = [box_l[0] / df[0], box_l[1] / df[1], box_l[2] / df[2]];
        self.inv_slab_h = slabs as f64 / self.side[2];
        self.key_of.resize(n, 0);
        self.start.resize(n_keys + 1, 0);
        self.cursor.resize(n_keys, 0);
        self.order.resize(n, 0);
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.start.fill(0);
        // Pass 1: (cell, slab) key and occupancy count per atom.
        for (i, r) in pos.iter().enumerate() {
            let w = vec3::wrap(*r, box_l);
            let cx = floor_usize(w[0] / box_l[0] * df[0]).min(dims[0] - 1);
            let cy = floor_usize(w[1] / box_l[1] * df[1]).min(dims[1] - 1);
            let cz = floor_usize(w[2] / box_l[2] * df[2]).min(dims[2] - 1);
            let slab = slab_of(w[2], cz as f64 * self.side[2], self.inv_slab_h, slabs);
            let key = ((cx * dims[1] + cy) * dims[2] + cz) * slabs + slab;
            self.key_of[i] = key as u32;
            self.start[key + 1] += 1;
        }
        // Prefix sums → per-(cell, slab) slot ranges.
        for k in 0..n_keys {
            self.start[k + 1] += self.start[k];
        }
        // Pass 2: stable scatter into slot order.
        self.cursor.copy_from_slice(&self.start[..n_keys]);
        for (i, r) in pos.iter().enumerate() {
            let k = self.key_of[i] as usize;
            let s = self.cursor[k] as usize;
            self.cursor[k] += 1;
            self.order[s] = i as u32;
            let w = vec3::wrap(*r, box_l);
            self.x[s] = w[0];
            self.y[s] = w[1];
            self.z[s] = w[2];
        }
    }

    /// Load `pos` unsorted (identity order, single implicit cell) — the
    /// SoA layout of the brute-force fallback. Positions are wrapped so
    /// the inner loop's single-fold minimum image is exact.
    pub fn load_unbinned(&mut self, pos: &[V3], box_l: V3) {
        let n = pos.len();
        self.dims = [1; 3];
        self.n = n;
        self.slabs = 1;
        self.start.resize(2, 0);
        self.start[0] = 0;
        self.start[1] = n as u32;
        self.order.resize(n, 0);
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.z.resize(n, 0.0);
        for (i, r) in pos.iter().enumerate() {
            let w = vec3::wrap(*r, box_l);
            self.order[i] = i as u32;
            self.x[i] = w[0];
            self.y[i] = w[1];
            self.z[i] = w[2];
        }
    }

    /// Cells per axis of the last bin.
    #[must_use]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Atom count of the last bin.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no atoms are binned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Slot range `[lo, hi)` of cell `c`.
    #[must_use]
    pub fn cell_range(&self, c: usize) -> (usize, usize) {
        self.slab_range(c, 0, self.slabs - 1)
    }

    /// Slot range `[lo, hi)` of slabs `s_lo..=s_hi` of cell `c`.
    #[inline(always)]
    fn slab_range(&self, c: usize, s_lo: usize, s_hi: usize) -> (usize, usize) {
        let base = c * self.slabs;
        (
            self.start[base + s_lo] as usize,
            self.start[base + s_hi + 1] as usize,
        )
    }

    /// First slot of x-plane `p` (`p ≤ dims[0]`; plane `dims[0]` starts at
    /// slot `n`). Slots are cell-major with x outermost, so a plane is one
    /// contiguous slot range; brute-force rows are one implicit plane.
    #[inline]
    fn plane_start(&self, p: usize) -> usize {
        self.start[p * self.dims[1] * self.dims[2] * self.slabs] as usize
    }

    /// The accumulation window of a part whose home cells lie in x-planes
    /// `cx_lo..=cx_hi`: planes `cx_lo − 1 ..= cx_hi + 1`, cyclically, or
    /// the whole box when that run covers every plane.
    fn window(&self, cx_lo: usize, cx_hi: usize) -> Window {
        let (d0, n) = (self.dims[0], self.n);
        let (p0, planes) = match cx_hi - cx_lo + 3 {
            every if every >= d0 => (0, d0),
            planes => ((cx_lo + d0 - 1) % d0, planes),
        };
        let (start, end) = (self.plane_start(p0), p0 + planes);
        // Past the last plane the window runs on into plane 0.
        let len = if end <= d0 {
            self.plane_start(end) - start
        } else {
            n - start + self.plane_start(end - d0)
        };
        let wrap = if planes == d0 { 0 } else { n };
        let win = Window {
            p0,
            planes,
            start,
            len,
            home: 0,
            wrap,
        };
        Window {
            home: win.plane_offset(cx_lo, n),
            ..win
        }
    }

    /// The 13 forward stencil neighbours of home cell `c`, in
    /// [`STENCIL`] order.
    fn neighbours(&self, c: usize, box_l: V3) -> [Neighbour; STENCIL.len()] {
        let dims = self.dims;
        let home = [
            c / (dims[2] * dims[1]),
            (c / dims[2]) % dims[1],
            c % dims[2],
        ];
        STENCIL.map(|s| {
            let (mut at, mut nb) = ([0usize; 3], Neighbour::default());
            for a in 0..3 {
                (at[a], nb.shift[a]) = wrap_dim(home[a], s[a], dims[a], box_l[a]);
                nb.lo[a] = at[a] as f64 * self.side[a];
            }
            nb.cell = (at[0] * dims[1] + at[1]) * dims[2] + at[2];
            nb
        })
    }

    /// Slot → original atom index (a permutation of `0..len()`).
    #[must_use]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Wrapped coordinates in slot order.
    #[must_use]
    pub fn coords(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.x, &self.y, &self.z)
    }
}

/// Distance from `p` to the interval `[lo, lo + side]`, less `pad`, floored
/// at zero: never more than `|p − c|` as the kernel computes it for any
/// stored coordinate `c` binned into that interval.
#[inline(always)]
fn gap(p: f64, lo: f64, side: f64, pad: f64) -> f64 {
    ((lo - p).max(p - (lo + side)) - pad).max(0.0)
}

/// One forward stencil neighbour of a home cell: its index, the box shift
/// its image crossed, and the lower corner of its (unshifted) rectangle.
#[derive(Clone, Copy, Default)]
struct Neighbour {
    cell: usize,
    shift: V3,
    lo: V3,
}

/// Lennard-Jones parameters of one atom in the form the LJ lane combines:
/// the Lorentz rule `σ_ij = (σ_i + σ_j)/2` is a sum and the Berthelot rule
/// `ε_ij = √(ε_i ε_j)` a product of these. ε is in the energy unit of
/// `q²/r`, so both terms share one accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LjAtom {
    pub half_sigma: f64,
    pub sqrt_eps: f64,
}

impl LjAtom {
    #[must_use]
    pub fn new(sigma: f64, epsilon: f64) -> Self {
        Self {
            half_sigma: 0.5 * sigma,
            sqrt_eps: epsilon.sqrt(),
        }
    }

    /// `4ε(s¹² − s⁶)` and its radial force factor `24ε(2s¹² − s⁶)/r²` of
    /// the pair with `other` at `1/r²`, `s = σ/r` — closed form, no branch.
    #[inline(always)]
    #[must_use]
    pub fn pair(self, other: Self, inv_r2: f64) -> (f64, f64) {
        let sigma = self.half_sigma + other.half_sigma;
        let eps = self.sqrt_eps * other.sqrt_eps;
        let s2 = sigma * sigma * inv_r2;
        let s6 = s2 * s2 * s2;
        let s12 = s6 * s6;
        (
            4.0 * eps * (s12 - s6),
            24.0 * eps * (2.0 * s12 - s6) * inv_r2,
        )
    }
}

/// What the pair phase reads, shared by every part.
struct PairInput<'a> {
    bins: &'a CellBins,
    /// Charges in slot order.
    q: &'a [f64],
    table: &'a PairKernelTable,
    rc2: f64,
    box_l: V3,
    /// Whether `bins` holds a cell grid (else: brute-force rows).
    binned: bool,
    /// LJ parameters in slot order (read by the LJ lane only).
    lj: &'a [LjAtom],
}

impl PairInput<'_> {
    /// Slots of neighbour `nb` that can hold a partner of an atom at `o`
    /// (the home atom moved by the neighbour's image shift). Conservative:
    /// DESIGN.md §15.2 derives why no pair inside the cutoff is dropped.
    #[inline(always)]
    fn pruned_range(&self, nb: &Neighbour, o: V3) -> (usize, usize) {
        let b = self.bins;
        let pad = vec3::scale(self.box_l, PRUNE_SLACK);
        let gx = gap(o[0], nb.lo[0], b.side[0], pad[0]);
        let gy = gap(o[1], nb.lo[1], b.side[1], pad[1]);
        let gz = gap(o[2], nb.lo[2], b.side[2], pad[2]);
        let gap2 = gx * gx + gy * gy;
        if gap2 + gz * gz >= self.rc2 {
            return (0, 0);
        }
        if b.slabs == 1 {
            return b.cell_range(nb.cell);
        }
        // Partners satisfy |dz| ≤ h; the slab of either window end bounds
        // the slab of every stored z inside the window (`slab_of` is
        // monotone).
        let h = (self.rc2 - gap2 + self.rc2 * PRUNE_SLACK).sqrt() + pad[2];
        let s_lo = slab_of(o[2] - h, nb.lo[2], b.inv_slab_h, b.slabs);
        let s_hi = slab_of(o[2] + h, nb.lo[2], b.inv_slab_h, b.slabs);
        b.slab_range(nb.cell, s_lo, s_hi)
    }
}

/// `a − b`, folded once into the half box when `FOLD` (select-based, so it
/// vectorises to cmp+blend; exact minimum image for pre-wrapped
/// coordinates, whose raw differences lie in `(−L, L)`).
#[inline(always)]
fn delta<const FOLD: bool>(a: f64, b: f64, l: f64) -> f64 {
    let mut d = a - b;
    if FOLD {
        let h = 0.5 * l;
        d -= if d > h { l } else { 0.0 };
        d += if d < -h { l } else { 0.0 };
    }
    d
}

/// The slots a part's slab covers: a cyclic run of x-planes, as one slot
/// range that may wrap past the last slot to the first. Slot `j` of a
/// covered plane sits at window index `(j − start) mod n`; the pair phase
/// gets there by a wrapping add of a per-neighbour constant, [`Window::home`]
/// plus or minus `wrap` for an image across the x boundary.
#[derive(Clone, Copy, Debug, Default)]
struct Window {
    /// First plane and plane count (`dims[0]`: the whole box).
    p0: usize,
    planes: usize,
    /// First slot and slot count.
    start: usize,
    len: usize,
    /// Window index minus slot (wrapping) for the part's own planes.
    home: usize,
    /// Slot distance between the two images of a plane across the x
    /// boundary: `n`, or 0 for a whole-box window, which has none.
    wrap: usize,
}

impl Window {
    /// Window index minus slot (wrapping) for a partner whose image
    /// crossed the x boundary by `shift_x` (0 or ±L).
    #[inline]
    fn offset(&self, shift_x: f64) -> usize {
        if shift_x > 0.0 {
            self.home.wrapping_add(self.wrap)
        } else if shift_x < 0.0 {
            self.home.wrapping_sub(self.wrap)
        } else {
            self.home
        }
    }

    /// Whether the window covers plane `p` of `d0`.
    fn covers(&self, p: usize, d0: usize) -> bool {
        (p + d0 - self.p0) % d0 < self.planes
    }

    /// Window index minus slot (wrapping) for the slots of a covered plane
    /// `p`, over `n` slots: planes below `p0` are reached past the wrap.
    fn plane_offset(&self, p: usize, n: usize) -> usize {
        if p >= self.p0 {
            self.start.wrapping_neg()
        } else {
            n - self.start
        }
    }
}

/// One partition's accumulators: scalars plus a slab over the part's
/// [`Window`] in sorted-slot space (capacity only grows — allocation-free
/// once warm).
#[derive(Clone, Debug, Default)]
struct PartState {
    energy: f64,
    virial: f64,
    /// Per window slot: force x/y/z and potential, one cache line per
    /// partner.
    acc: Vec<[f64; 4]>,
    win: Window,
    /// Declared after `energy`/`virial`: the Coulomb-only loop updates
    /// those two as one packed pair only while they are adjacent.
    lj_energy: f64,
}

/// One pool worker's buffers — a worker runs one part at a time, so these
/// are per worker, not per part: the chunk of the distance pass and the
/// hits awaiting the table pass. Aligned so two workers' hit cursors
/// never share a cache line.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct Lane {
    /// Per chunk: displacements and r².
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    r2: Vec<f64>,
    /// Per hit (`nh` buffered): partner slot and its window index,
    /// displacement, r² and the table kernel's energy / force factors.
    nh: usize,
    hj: Vec<u32>,
    hw: Vec<u32>,
    hd: Vec<V3>,
    hr2: Vec<f64>,
    he: Vec<f64>,
    hf: Vec<f64>,
}

impl Lane {
    fn prepare(&mut self) {
        for chunk in [&mut self.dx, &mut self.dy, &mut self.dz, &mut self.r2] {
            chunk.resize(CHUNK_W, 0.0);
        }
        self.hj.resize(HIT_CAP, 0);
        self.hw.resize(HIT_CAP, 0);
        self.hd.resize(HIT_CAP, [0.0; 3]);
        for hits in [&mut self.hr2, &mut self.he, &mut self.hf] {
            hits.resize(HIT_CAP, 0.0);
        }
    }

    /// Compact step for home slot `i` seen from `o` against the slot range
    /// `[j0, j1)`, whose window indices are the slots plus `off`
    /// (wrapping): chunked straight-line distances with the cutoff mask as
    /// a bit word, then the hits appended to the hit buffers.
    #[inline(always)]
    fn gather<const FOLD: bool, const LJ: bool>(
        &mut self,
        st: &mut PartState,
        inp: &PairInput,
        i: usize,
        o: V3,
        (j0, j1): (usize, usize),
        off: usize,
    ) {
        let (x, y, z) = inp.bins.coords();
        let l = inp.box_l;
        let mut j = j0;
        while j < j1 {
            let len = (j1 - j).min(CHUNK_W);
            if self.nh + len > HIT_CAP {
                self.flush::<LJ>(st, inp, i);
            }
            // Equal-length slices, no branches: the vectorised pass.
            let (dxb, dyb, dzb) = (
                &mut self.dx[..len],
                &mut self.dy[..len],
                &mut self.dz[..len],
            );
            let r2b = &mut self.r2[..len];
            let (xs, ys, zs) = (&x[j..j + len], &y[j..j + len], &z[j..j + len]);
            let mut mask = 0u64;
            for k in 0..len {
                let dx = delta::<FOLD>(o[0], xs[k], l[0]);
                let dy = delta::<FOLD>(o[1], ys[k], l[1]);
                let dz = delta::<FOLD>(o[2], zs[k], l[2]);
                let r2 = dx * dx + dy * dy + dz * dz;
                dxb[k] = dx;
                dyb[k] = dy;
                dzb[k] = dz;
                r2b[k] = r2;
                mask |= u64::from(r2 < inp.rc2 && r2 > 0.0) << k;
            }
            // One copy per set bit: the loop branch follows the hit count,
            // not each pair's outcome (hit rates are low, so a per-pair
            // branch would mispredict its way through).
            let mut nh = self.nh;
            while mask != 0 {
                let k = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.hj[nh] = (j + k) as u32;
                self.hw[nh] = (j + k).wrapping_add(off) as u32;
                self.hd[nh] = [dxb[k], dyb[k], dzb[k]];
                self.hr2[nh] = r2b[k];
                nh += 1;
            }
            self.nh = nh;
            j += len;
        }
    }

    /// Batch + accumulate steps: one table pass over the buffered hits of
    /// home slot `i`, then Newton-3 accumulation in hit order (plus the
    /// Lennard-Jones term of each hit when `LJ`).
    #[inline(always)]
    fn flush<const LJ: bool>(&mut self, st: &mut PartState, inp: &PairInput, i: usize) {
        let nh = std::mem::take(&mut self.nh);
        if nh == 0 {
            return;
        }
        inp.table
            .erfc_kernel_r2_batch(&self.hr2[..nh], &mut self.he[..nh], &mut self.hf[..nh]);
        let qi = inp.q[i];
        let lj_i = if LJ { inp.lj[i] } else { LjAtom::default() };
        let (start, n) = (st.win.start, inp.bins.n);
        let mut ai = [0.0f64; 4];
        for m in 0..nh {
            let (j, w) = (self.hj[m] as usize, self.hw[m] as usize);
            // An offset error that still lands inside the window would
            // otherwise go unnoticed.
            debug_assert_eq!((w + start) % n, j, "window index {w} is not slot {j}");
            let (e, f) = (self.he[m], self.hf[m]);
            let qj = inp.q[j];
            let qq = qi * qj;
            st.energy += qq * e;
            let mut fs = qq * f;
            if LJ {
                let (e_lj, f_lj) = lj_i.pair(inp.lj[j], 1.0 / self.hr2[m]);
                st.lj_energy += e_lj;
                fs += f_lj;
            }
            // Pair virial W = r⃗·F⃗ = fs·r².
            st.virial += fs * self.hr2[m];
            let [dx, dy, dz] = self.hd[m];
            let (fv, aj) = ([fs * dx, fs * dy, fs * dz], &mut st.acc[w]);
            for a in 0..3 {
                ai[a] += fv[a];
                aj[a] -= fv[a];
            }
            ai[3] += qj * e;
            aj[3] += qi * e;
        }
        let home = i.wrapping_add(st.win.home);
        debug_assert_eq!((home + start) % n, i, "window index {home} is not slot {i}");
        for (slot, add) in st.acc[home].iter_mut().zip(ai) {
            *slot += add;
        }
    }

    /// One partition of the pair phase. Binned: cells
    /// `[chunk_bounds(part)]`, each home atom against the rest of its cell
    /// and the pruned ranges of the 13 forward stencil neighbours under
    /// their per-cell-pair image shifts. Unbinned: brute-force rows
    /// `[chunk_bounds(part)]`, atom `i` against every later atom.
    #[inline(always)]
    fn run<const LJ: bool>(&mut self, st: &mut PartState, inp: &PairInput, part: usize) {
        (st.energy, st.virial, self.nh) = (0.0, 0.0, 0);
        if LJ {
            st.lj_energy = 0.0;
        }
        let bins = inp.bins;
        let plane = bins.dims[1] * bins.dims[2];
        let units = if inp.binned {
            bins.dims[0] * plane
        } else {
            bins.n
        };
        let (lo, hi) = chunk_bounds(units, CELL_PARTS, part);
        // Rows all lie in the one implicit plane.
        st.win = if inp.binned {
            bins.window(lo / plane, (hi - 1) / plane)
        } else {
            bins.window(0, 0)
        };
        let len = st.win.len;
        st.acc.clear();
        if st.acc.capacity() < len {
            st.acc
                .reserve_exact((len + len / SLAB_HEADROOM).min(bins.n));
        }
        st.acc.resize(len, [0.0; 4]);
        let (x, y, z) = bins.coords();
        if !inp.binned {
            for i in lo..hi {
                self.gather::<true, LJ>(st, inp, i, [x[i], y[i], z[i]], (i + 1, bins.n), 0);
                self.flush::<LJ>(st, inp, i);
            }
            return;
        }
        for c in lo..hi {
            let (h0, h1) = bins.cell_range(c);
            if h0 == h1 {
                continue;
            }
            let nbs = bins.neighbours(c, inp.box_l);
            let offs = nbs.map(|nb| st.win.offset(nb.shift[0]));
            for i in h0..h1 {
                let p = [x[i], y[i], z[i]];
                self.gather::<false, LJ>(st, inp, i, p, (i + 1, h1), st.win.home);
                for (nb, &off) in nbs.iter().zip(&offs) {
                    let o = vec3::sub(p, nb.shift);
                    let range = inp.pruned_range(nb, o);
                    self.gather::<false, LJ>(st, inp, i, o, range, off);
                }
                self.flush::<LJ>(st, inp, i);
            }
        }
    }

    /// [`Lane::run`] compiled for AVX2 (wider distance pass, VEX
    /// encodings). No FMA is enabled, so every lane performs the IEEE
    /// operations of the plain instantiation: identical bits.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2<const LJ: bool>(&mut self, st: &mut PartState, inp: &PairInput, part: usize) {
        self.run::<LJ>(st, inp, part);
    }
}

/// The instantiation of the pair phase a call runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    Avx2,
}

impl Isa {
    /// The widest instantiation the running CPU supports.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Self::Avx2;
        }
        Self::Portable
    }
}

/// Reusable state of the cell-list short-range path: the bins, the
/// sorted charge (and LJ) slabs, one [`PartState`] per fixed partition and
/// one [`Lane`] per pool worker.
#[derive(Clone, Debug, Default)]
pub struct CellScratch {
    bins: CellBins,
    /// Charges in slot order.
    q: Vec<f64>,
    /// LJ parameters in slot order (LJ calls only).
    lj: Vec<LjAtom>,
    parts: Vec<PartState>,
    lanes: Vec<Lane>,
}

impl CellScratch {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// One cell coordinate plus offset, wrapped periodically; returns the
/// wrapped coordinate and the box shift (±L or 0) the image crossed.
#[inline]
fn wrap_dim(c: usize, off: i64, dim: usize, box_len: f64) -> (usize, f64) {
    let raw = c as i64 + off;
    let dim_i = dim as i64;
    if raw < 0 {
        ((raw + dim_i) as usize, -box_len)
    } else if raw >= dim_i {
        ((raw - dim_i) as usize, box_len)
    } else {
        (raw as usize, 0.0)
    }
}

/// Short-range `erfc(αr)/r` pair sum over the SoA cell-list layout,
/// writing energy/forces/potentials/virial into `out` (overwritten, not
/// accumulated — same contract as `pairwise::short_range_table_into`,
/// which remains the O(N²) oracle this path is tested against).
///
/// Panics if `r_cut` exceeds half the smallest box edge.
pub fn short_range_cells_into(
    system: &CoulombSystem,
    table: &PairKernelTable,
    r_cut: f64,
    pool: &Pool,
    scratch: &mut CellScratch,
    out: &mut CoulombResult,
) {
    pair_sum::<false>(Isa::detect(), system, &[], table, r_cut, pool, scratch, out);
}

/// [`short_range_cells_into`] plus Lennard-Jones on the same pairs: `lj`
/// holds one [`LjAtom`] per atom. `out` gets the Coulomb energy and
/// potentials, and forces and virial of both terms; the Lennard-Jones
/// energy is returned. No pair is excluded — callers subtract what an
/// excluded pair added afterwards.
pub fn short_range_lj_cells_into(
    system: &CoulombSystem,
    lj: &[LjAtom],
    table: &PairKernelTable,
    r_cut: f64,
    pool: &Pool,
    scratch: &mut CellScratch,
    out: &mut CoulombResult,
) -> f64 {
    pair_sum::<true>(Isa::detect(), system, lj, table, r_cut, pool, scratch, out)
}

/// The pair phase, with the Lennard-Jones lane when `LJ`; returns the
/// Lennard-Jones energy (0 without the lane).
#[allow(clippy::too_many_arguments)] // the two entry points above name them
fn pair_sum<const LJ: bool>(
    isa: Isa,
    system: &CoulombSystem,
    lj: &[LjAtom],
    table: &PairKernelTable,
    r_cut: f64,
    pool: &Pool,
    scratch: &mut CellScratch,
    out: &mut CoulombResult,
) -> f64 {
    let min_edge = system.box_l.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        r_cut <= min_edge / 2.0 + 1e-12,
        "r_cut {r_cut} exceeds half the smallest box edge {min_edge}"
    );
    debug_assert!(
        table.r_max() >= r_cut,
        "kernel table covers r ≤ {} but the cutoff is {r_cut}",
        table.r_max()
    );
    #[cfg(target_arch = "x86_64")]
    assert!(
        isa == Isa::Portable || std::arch::is_x86_feature_detected!("avx2"),
        "AVX2 instantiation requested on a CPU without AVX2"
    );
    let (n, box_l) = (system.len(), system.box_l);
    assert!(!LJ || lj.len() == n, "one LjAtom per atom");
    let grid = CellGrid::plan_capped(box_l, r_cut, n);
    match grid {
        Some(g) => {
            // Slab count from the mean cell occupancy.
            let slabs = (n / (g.n_cells() * SLAB_ATOMS)).clamp(1, MAX_SLABS);
            scratch.bins.bin_slabbed(&system.pos, box_l, g, slabs);
        }
        None => scratch.bins.load_unbinned(&system.pos, box_l),
    }
    // Charge (and LJ) slabs in slot order.
    scratch.q.resize(n, 0.0);
    for (s, &a) in scratch.bins.order.iter().enumerate() {
        scratch.q[s] = system.q[a as usize];
    }
    if LJ {
        scratch.lj.resize(n, LjAtom::default());
        for (s, &a) in scratch.bins.order.iter().enumerate() {
            scratch.lj[s] = lj[a as usize];
        }
    }
    scratch.parts.resize_with(CELL_PARTS, PartState::default);
    scratch.lanes.resize_with(pool.threads(), Lane::default);
    scratch.lanes.iter_mut().for_each(Lane::prepare);
    // Parallel pair phase over fixed cell-range (or row-range) parts.
    let inp = PairInput {
        bins: &scratch.bins,
        q: &scratch.q,
        lj: &scratch.lj,
        table,
        rc2: r_cut * r_cut,
        box_l,
        binned: grid.is_some(),
    };
    let parts = SendPtr(scratch.parts.as_mut_ptr());
    let lanes = SendPtr(scratch.lanes.as_mut_ptr());
    pool.run_parts_sized(CELL_PARTS, n, SERIAL_ATOMS_PER_THREAD, |part, worker| {
        // SAFETY: every part index below `CELL_PARTS == parts.len()`
        // runs exactly once, and the pool runs at most one invocation
        // per worker index below `threads() == lanes.len()` at a time
        // (the `run_parts` contract), so both borrows are exclusive.
        let (st, lane) = unsafe { (&mut *parts.get().add(part), &mut *lanes.get().add(worker)) };
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assert at entry saw the CPU report AVX2.
            Isa::Avx2 => unsafe { lane.run_avx2::<LJ>(st, &inp, part) },
            _ => lane.run::<LJ>(st, &inp, part),
        }
    });
    // Ordered merge: scalars in part order, then per-slot slab sums in
    // part order — over the parts whose window covers the slot's plane —
    // scattered back to the original atom indices.
    out.reset(n);
    let mut lj_energy = 0.0;
    merge_ordered(&scratch.parts, out, |acc, _part, st| {
        acc.energy += st.energy;
        acc.virial += st.virial;
        if LJ {
            lj_energy += st.lj_energy;
        }
    });
    let (parts, bins) = (&scratch.parts, &scratch.bins);
    let d0 = bins.dims[0];
    let fdst = SendPtr(out.forces.as_mut_ptr());
    let pdst = SendPtr(out.potentials.as_mut_ptr());
    pool.run_parts_sized(
        n.div_ceil(MERGE_CHUNK),
        n,
        SERIAL_ATOMS_PER_THREAD,
        |chunk, _| {
            let (mut s, hi) = (chunk * MERGE_CHUNK, ((chunk + 1) * MERGE_CHUNK).min(n));
            let mut p = 0;
            while s < hi {
                while bins.plane_start(p + 1) <= s {
                    p += 1;
                }
                let end = bins.plane_start(p + 1).min(hi);
                // The parts covering plane `p`, ascending, with their
                // window offsets. Every other part holds +0.0 at these
                // slots, and adding +0.0 to a sum that is never −0.0
                // changes no bit (DESIGN.md §15.3).
                let mut cover = [(&[][..], 0usize); CELL_PARTS];
                let mut k = 0;
                for st in parts.iter().filter(|st| st.win.covers(p, d0)) {
                    cover[k] = (&st.acc[..], st.win.plane_offset(p, n));
                    k += 1;
                }
                for (s, &atom) in (s..end).zip(&bins.order[s..end]) {
                    let mut sum = [0.0f64; 4];
                    for &(acc, off) in &cover[..k] {
                        let a = acc[s.wrapping_add(off)];
                        for (t, v) in sum.iter_mut().zip(a) {
                            *t += v;
                        }
                    }
                    let a = atom as usize;
                    // SAFETY: `order` is a permutation of 0..n and the slot
                    // chunks are pairwise disjoint, so every output element
                    // is written exactly once by exactly one part.
                    unsafe {
                        *fdst.get().add(a) = [sum[0], sum[1], sum[2]];
                        *pdst.get().add(a) = sum[3];
                    }
                }
                s = end;
            }
        },
    );
    lj_energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::{short_range_table_into, PairwiseScratch};
    use tme_num::rng::SplitMix64;

    fn random_system(n: usize, box_l: V3, seed: u64) -> CoulombSystem {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let pos = (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..box_l[0]),
                    rng.gen_range(0.0..box_l[1]),
                    rng.gen_range(0.0..box_l[2]),
                ]
            })
            .collect();
        let q = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        CoulombSystem::new(pos, q, box_l)
    }

    fn run_on(
        isa: Isa,
        sys: &CoulombSystem,
        alpha: f64,
        r_cut: f64,
        threads: usize,
    ) -> CoulombResult {
        let table = PairKernelTable::new(alpha, r_cut);
        let mut out = CoulombResult::default();
        let mut scratch = CellScratch::new();
        let pool = Pool::new(threads);
        pair_sum::<false>(isa, sys, &[], &table, r_cut, &pool, &mut scratch, &mut out);
        out
    }

    fn assert_bitwise_eq(a: &CoulombResult, b: &CoulombResult, what: &str) {
        assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{what}: energy");
        assert_eq!(a.virial.to_bits(), b.virial.to_bits(), "{what}: virial");
        let bits = |f: &V3| f.map(f64::to_bits);
        assert!(
            a.forces.iter().map(bits).eq(b.forces.iter().map(bits)),
            "{what}: forces"
        );
        let bits = |p: &f64| p.to_bits();
        assert!(
            a.potentials
                .iter()
                .map(bits)
                .eq(b.potentials.iter().map(bits)),
            "{what}: potentials"
        );
    }

    fn assert_matches_oracle(sys: &CoulombSystem, r_cut: f64, tol: f64) {
        let table = PairKernelTable::new(1.9, r_cut);
        let pool = Pool::new(1);
        let mut oracle = CoulombResult::default();
        let mut pw = PairwiseScratch::new();
        short_range_table_into(sys, &table, r_cut, &pool, &mut pw, &mut oracle);
        let got = run_on(Isa::detect(), sys, 1.9, r_cut, 1);
        let scale = oracle.energy.abs().max(1.0);
        assert!(
            (got.energy - oracle.energy).abs() < tol * scale,
            "energy {} vs {}",
            got.energy,
            oracle.energy
        );
        assert!((got.virial - oracle.virial).abs() < tol * scale.max(oracle.virial.abs()));
        for (a, b) in got.forces.iter().zip(&oracle.forces) {
            for c in 0..3 {
                assert!((a[c] - b[c]).abs() < tol, "{a:?} vs {b:?}");
            }
        }
        for (a, b) in got.potentials.iter().zip(&oracle.potentials) {
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    /// Random LJ parameters; every third atom has ε = 0 (a TIP3P
    /// hydrogen's role) and a nonzero σ that must then contribute nothing.
    fn random_lj(n: usize, seed: u64) -> Vec<LjAtom> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let sigma = rng.gen_range(0.15..0.35);
                let eps = if i % 3 == 2 {
                    0.0
                } else {
                    rng.gen_range(0.0..0.01)
                };
                LjAtom::new(sigma, eps)
            })
            .collect()
    }

    fn run_lj_on(
        isa: Isa,
        sys: &CoulombSystem,
        lj: &[LjAtom],
        r_cut: f64,
        threads: usize,
    ) -> (CoulombResult, f64) {
        let table = PairKernelTable::new(1.7, r_cut);
        let mut out = CoulombResult::default();
        let pool = Pool::new(threads);
        let e = pair_sum::<true>(
            isa,
            sys,
            lj,
            &table,
            r_cut,
            &pool,
            &mut CellScratch::new(),
            &mut out,
        );
        (out, e)
    }

    #[test]
    fn lj_lane_matches_pairwise_reference() {
        // Slabbed cells, whole cells and brute-force rows.
        for (sys, r_cut) in [
            (random_system(27 * 80, [3.3; 3], 71), 1.0),
            (random_system(300, [5.0; 3], 72), 1.1),
            (random_system(150, [2.4; 3], 73), 1.1),
        ] {
            let lj = random_lj(sys.len(), 74);
            let (got, got_lj) = run_lj_on(Isa::detect(), &sys, &lj, r_cut, 2);
            // Coulomb from the table oracle, LJ by a direct O(N²) loop.
            let table = PairKernelTable::new(1.7, r_cut);
            let mut want = CoulombResult::default();
            let pool = Pool::new(1);
            short_range_table_into(
                &sys,
                &table,
                r_cut,
                &pool,
                &mut PairwiseScratch::new(),
                &mut want,
            );
            let mut want_lj = 0.0;
            for i in 0..sys.len() {
                for j in i + 1..sys.len() {
                    let d = vec3::min_image(sys.pos[i], sys.pos[j], sys.box_l);
                    let r2 = vec3::norm_sqr(d);
                    if r2 >= r_cut * r_cut {
                        continue;
                    }
                    let sigma = lj[i].half_sigma + lj[j].half_sigma;
                    let eps = lj[i].sqrt_eps * lj[j].sqrt_eps;
                    let s6 = (sigma * sigma / r2).powi(3);
                    want_lj += 4.0 * eps * (s6 * s6 - s6);
                    let fs = 24.0 * eps * (2.0 * s6 * s6 - s6) / r2;
                    want.virial += fs * r2;
                    for (a, da) in d.into_iter().enumerate() {
                        want.forces[i][a] += fs * da;
                        want.forces[j][a] -= fs * da;
                    }
                }
            }
            assert!((got_lj - want_lj).abs() < 1e-10 * want_lj.abs().max(1.0));
            assert!((got.energy - want.energy).abs() < 1e-10 * want.energy.abs());
            assert!((got.virial - want.virial).abs() < 1e-10 * want.virial.abs());
            let fmax = want
                .forces
                .iter()
                .flatten()
                .fold(0.0f64, |m, c| m.max(c.abs()));
            for (a, b) in got.forces.iter().zip(&want.forces) {
                for c in 0..3 {
                    assert!((a[c] - b[c]).abs() < 1e-11 * fmax, "{a:?} vs {b:?}");
                }
            }
            for (a, b) in got.potentials.iter().zip(&want.potentials) {
                assert!((a - b).abs() < 1e-10, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn lj_lane_with_zero_epsilon_is_the_coulomb_sum() {
        let sys = random_system(27 * 80, [3.3; 3], 75);
        let lj = vec![LjAtom::new(0.3, 0.0); sys.len()];
        let (got, e_lj) = run_lj_on(Isa::detect(), &sys, &lj, 1.0, 2);
        assert_eq!(e_lj.to_bits(), 0.0f64.to_bits());
        assert_bitwise_eq(&got, &run_on(Isa::detect(), &sys, 1.7, 1.0, 2), "ε = 0");
    }

    #[test]
    fn lj_lane_is_bitwise_identical_across_threads_and_isas() {
        let both = Isa::detect() == Isa::Avx2;
        if !both {
            eprintln!("portable only: this CPU has no AVX2");
        }
        for (sys, r_cut) in [
            (random_system(27 * 100, [3.2; 3], 76), 1.0),
            (random_system(400, [6.0, 5.0, 7.0], 77), 1.3),
            (random_system(700, [2.4; 3], 78), 1.2),
        ] {
            let lj = random_lj(sys.len(), 79);
            let (base, base_lj) = run_lj_on(Isa::Portable, &sys, &lj, r_cut, 1);
            for threads in [1usize, 2, 4] {
                let isas: &[Isa] = if both {
                    &[Isa::Portable, Isa::Avx2]
                } else {
                    &[Isa::Portable]
                };
                for &isa in isas {
                    let (got, got_lj) = run_lj_on(isa, &sys, &lj, r_cut, threads);
                    let what = format!("n = {}, T = {threads}, {isa:?}", sys.len());
                    assert_eq!(base_lj.to_bits(), got_lj.to_bits(), "{what}");
                    assert_bitwise_eq(&base, &got, &what);
                }
            }
        }
    }

    #[test]
    fn grid_plan_requires_three_cells_per_axis() {
        assert!(CellGrid::plan([3.0; 3], 1.0).is_some());
        assert!(CellGrid::plan([2.9, 3.0, 3.0], 1.0).is_none());
        let g = CellGrid::plan([5.0, 4.0, 3.5], 1.0).unwrap();
        assert_eq!(g.dims(), [5, 4, 3]);
        assert_eq!(g.n_cells(), 60);
    }

    #[test]
    fn grid_cap_rejects_shattered_sparse_boxes() {
        // 20 atoms in a box that would shatter into 1000 cells.
        assert!(CellGrid::plan_capped([10.0; 3], 1.0, 20).is_none());
        assert!(CellGrid::plan_capped([10.0; 3], 1.0, 5000).is_some());
    }

    #[test]
    fn bins_are_a_stable_permutation() {
        let box_l = [6.0, 5.0, 4.0];
        let sys = random_system(200, box_l, 3);
        let grid = CellGrid::plan(box_l, 1.0).unwrap();
        let mut bins = CellBins::default();
        bins.bin(&sys.pos, box_l, grid);
        let mut seen = [false; 200];
        for &a in bins.order() {
            assert!(!seen[a as usize], "atom {a} binned twice");
            seen[a as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Stability: ascending original index within each cell.
        for c in 0..grid.n_cells() {
            let (lo, hi) = bins.cell_range(c);
            for w in bins.order()[lo..hi].windows(2) {
                assert!(w[0] < w[1]);
            }
        }
        // Every slot's coordinate lies inside its cell.
        let (x, y, z) = bins.coords();
        for c in 0..grid.n_cells() {
            let (lo, hi) = bins.cell_range(c);
            let cz = c % grid.dims()[2];
            let cy = (c / grid.dims()[2]) % grid.dims()[1];
            let cx = c / (grid.dims()[2] * grid.dims()[1]);
            for s in lo..hi {
                let side = [
                    box_l[0] / grid.dims()[0] as f64,
                    box_l[1] / grid.dims()[1] as f64,
                    box_l[2] / grid.dims()[2] as f64,
                ];
                assert!(x[s] >= cx as f64 * side[0] - 1e-12);
                assert!(x[s] <= (cx + 1) as f64 * side[0] + 1e-12);
                assert!(y[s] >= cy as f64 * side[1] - 1e-12);
                assert!(y[s] <= (cy + 1) as f64 * side[1] + 1e-12);
                assert!(z[s] >= cz as f64 * side[2] - 1e-12);
                assert!(z[s] <= (cz + 1) as f64 * side[2] + 1e-12);
            }
        }
    }

    #[test]
    fn slabbed_bins_keep_cells_and_order_slabs_by_z() {
        let box_l = [6.0, 5.0, 4.0];
        let sys = random_system(900, box_l, 4);
        let grid = CellGrid::plan(box_l, 1.0).unwrap();
        let (mut whole, mut cut) = (CellBins::default(), CellBins::default());
        whole.bin(&sys.pos, box_l, grid);
        cut.bin_slabbed(&sys.pos, box_l, grid, 5);
        let slab_h = cut.side[2] / 5.0;
        for c in 0..grid.n_cells() {
            // Same members per cell, only reordered.
            let (lo, hi) = cut.cell_range(c);
            assert_eq!((lo, hi), whole.cell_range(c));
            let mut members = cut.order()[lo..hi].to_vec();
            members.sort_unstable();
            assert_eq!(members, whole.order()[lo..hi]);
            let z0 = (c % grid.dims()[2]) as f64 * cut.side[2];
            for s in 0..5 {
                let (a, b) = cut.slab_range(c, s, s);
                for slot in a..b {
                    let rel = cut.z[slot] - z0;
                    assert!(
                        rel >= s as f64 * slab_h - 1e-12 && rel <= (s + 1) as f64 * slab_h + 1e-12
                    );
                }
                // Stable within a slab.
                assert!(cut.order()[a..b].windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    /// The prune is conservative: every pair the kernel's own cutoff test
    /// accepts lies inside the pruned range, which is itself a sub-range of
    /// the neighbour cell — so the pruned traversal's hit multiset equals
    /// the unpruned traversal's. Returns (unpruned, pruned) candidates.
    fn assert_prune_keeps_every_hit(
        sys: &CoulombSystem,
        r_cut: f64,
        slabs: usize,
    ) -> (usize, usize) {
        let grid = CellGrid::plan(sys.box_l, r_cut).expect("box takes a cell grid");
        let mut bins = CellBins::default();
        bins.bin_slabbed(&sys.pos, sys.box_l, grid, slabs);
        let q = vec![0.0; sys.len()];
        let table = PairKernelTable::new(1.0, r_cut);
        let inp = PairInput {
            bins: &bins,
            q: &q,
            lj: &[],
            table: &table,
            rc2: r_cut * r_cut,
            box_l: sys.box_l,
            binned: true,
        };
        let (x, y, z) = bins.coords();
        let (mut full, mut kept) = (0, 0);
        for c in 0..grid.n_cells() {
            let (h0, h1) = bins.cell_range(c);
            for nb in bins.neighbours(c, sys.box_l) {
                let (c0, c1) = bins.cell_range(nb.cell);
                for i in h0..h1 {
                    let o = vec3::sub([x[i], y[i], z[i]], nb.shift);
                    let (j0, j1) = inp.pruned_range(&nb, o);
                    assert!(j0 == j1 || (c0 <= j0 && j0 <= j1 && j1 <= c1));
                    full += c1 - c0;
                    kept += j1 - j0;
                    for j in c0..c1 {
                        let (dx, dy, dz) = (o[0] - x[j], o[1] - y[j], o[2] - z[j]);
                        let r2 = dx * dx + dy * dy + dz * dz;
                        assert!(
                            !(r2 < inp.rc2 && r2 > 0.0) || (j0 <= j && j < j1),
                            "slabs {slabs}: pair ({i}, {j}) at r² = {r2} pruned away"
                        );
                    }
                }
            }
        }
        (full, kept)
    }

    #[test]
    fn pruned_ranges_keep_every_cutoff_hit() {
        for slabs in [1usize, 2, 3, 4, 8] {
            // Random cubic, anisotropic, and the minimal 3-cell box with
            // the cutoff exactly a third of every edge.
            let cases = [
                (random_system(1500, [5.0; 3], 31), 1.1),
                (random_system(1500, [6.4, 3.9, 4.7], 32), 1.2),
                (random_system(1200, [3.0; 3], 33), 1.0),
            ];
            for (sys, r_cut) in &cases {
                let (full, kept) = assert_prune_keeps_every_hit(sys, *r_cut, slabs);
                assert!(
                    kept < full,
                    "slabs {slabs}: nothing pruned ({kept} of {full})"
                );
            }
            // Atoms exactly on cell faces and on the faces of 2, 4 and 8
            // slabs (multiples of 1/8 of the unit cell side), partners at
            // exactly the cutoff distance along each axis included.
            let mut pos = Vec::new();
            for ix in 0..4 {
                for iy in 0..4 {
                    for iz in 0..32 {
                        pos.push([f64::from(ix), f64::from(iy) + 0.5, f64::from(iz) * 0.125]);
                    }
                }
            }
            let q = vec![1.0; pos.len()];
            let lattice = CoulombSystem::new(pos, q, [4.0; 3]);
            assert_prune_keeps_every_hit(&lattice, 1.0, slabs);
        }
    }

    #[test]
    fn slab_count_follows_occupancy_on_both_sides_of_the_switch() {
        // 27 cells; 2·32 atoms per cell is where the second slab appears.
        let table = PairKernelTable::new(1.9, 1.0);
        let pool = Pool::new(1);
        for (n, slabs) in [(27 * 63, 1), (27 * 64, 2), (27 * 140, 4)] {
            let sys = random_system(n, [3.3; 3], 50 + n as u64);
            let mut scratch = CellScratch::new();
            let mut out = CoulombResult::default();
            short_range_cells_into(&sys, &table, 1.0, &pool, &mut scratch, &mut out);
            assert_eq!(scratch.bins.slabs, slabs, "n = {n}");
            assert_matches_oracle(&sys, 1.0, 1e-10);
        }
    }

    #[test]
    fn slabs_cover_only_the_planes_their_parts_reach() {
        let table = PairKernelTable::new(1.9, 1.0);
        let pool = Pool::new(2);
        let footprint = |sys: &CoulombSystem| {
            let mut scratch = CellScratch::new();
            let mut out = CoulombResult::default();
            short_range_cells_into(sys, &table, 1.0, &pool, &mut scratch, &mut out);
            scratch.parts.iter().map(|st| st.acc.len()).sum::<usize>()
        };
        // 9³ cells: each part's window is 3 or 4 of the 9 planes, 0.389 of
        // the slots summed over the parts at uniform density.
        let wide = random_system(729 * 8, [9.0; 3], 81);
        let share = footprint(&wide) as f64 / (CELL_PARTS * wide.len()) as f64;
        assert!(share <= 0.40, "windows cover {share} of the slots");
        // 3³ cells and brute-force rows: every window is the whole box.
        for sys in [
            random_system(27 * 40, [3.3; 3], 82),
            random_system(150, [2.4; 3], 83),
        ] {
            assert_eq!(footprint(&sys), CELL_PARTS * sys.len(), "n = {}", sys.len());
        }
    }

    #[test]
    fn cell_path_matches_oracle_on_random_box() {
        let sys = random_system(300, [5.0; 3], 42);
        assert_matches_oracle(&sys, 1.1, 1e-11);
    }

    #[test]
    fn brute_path_matches_oracle_on_small_box() {
        // dims = 2 per axis → brute-force SoA path.
        let sys = random_system(120, [2.5; 3], 7);
        assert_matches_oracle(&sys, 0.9, 1e-11);
    }

    #[test]
    fn hit_buffer_overflow_only_splits_partial_sums() {
        // More partners per home atom than `HIT_CAP`, so the buffer is
        // flushed mid-atom: on brute-force rows (r_cut = L/2) and in cells.
        let rows = random_system(3 * HIT_CAP, [2.0; 3], 8);
        assert_matches_oracle(&rows, 1.0, 1e-9);
        let cells = random_system(27 * 330, [3.0; 3], 9);
        assert_matches_oracle(&cells, 1.0, 1e-9);
    }

    #[test]
    fn avx2_and_portable_instantiations_agree_bitwise() {
        if Isa::detect() != Isa::Avx2 {
            eprintln!("skipped: this CPU has no AVX2");
            return;
        }
        // Slabbed cells, whole cells, and brute-force rows.
        let cases = [
            (random_system(27 * 100, [3.2; 3], 61), 1.0),
            (random_system(400, [6.0, 5.0, 7.0], 62), 1.3),
            (random_system(700, [2.4; 3], 63), 1.2),
        ];
        for (sys, r_cut) in &cases {
            for threads in [1usize, 3] {
                let portable = run_on(Isa::Portable, sys, 1.7, *r_cut, threads);
                let avx2 = run_on(Isa::Avx2, sys, 1.7, *r_cut, threads);
                assert_bitwise_eq(
                    &portable,
                    &avx2,
                    &format!("n = {}, T = {threads}", sys.len()),
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_systems() {
        let pool = Pool::new(1);
        let table = PairKernelTable::new(2.0, 1.0);
        let mut scratch = CellScratch::new();
        let mut out = CoulombResult::default();
        let empty = CoulombSystem::new(Vec::new(), Vec::new(), [4.0; 3]);
        short_range_cells_into(&empty, &table, 1.0, &pool, &mut scratch, &mut out);
        assert_eq!(out.energy, 0.0);
        let one = CoulombSystem::new(vec![[1.0; 3]], vec![1.0], [4.0; 3]);
        short_range_cells_into(&one, &table, 1.0, &pool, &mut scratch, &mut out);
        assert_eq!(out.energy, 0.0);
        assert_eq!(out.forces[0], [0.0; 3]);
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        // Whole cells and slabbed cells.
        for (n, box_l) in [(400, [6.0; 3]), (27 * 100, [3.9; 3])] {
            let sys = random_system(n, box_l, 11);
            let r1 = run_on(Isa::detect(), &sys, 1.7, 1.3, 1);
            for threads in [2usize, 4, 8] {
                let rt = run_on(Isa::detect(), &sys, 1.7, 1.3, threads);
                assert_bitwise_eq(&r1, &rt, &format!("n = {n}, T = {threads}"));
            }
        }
    }

    #[test]
    fn repeat_calls_are_bitwise_stable() {
        // Scratch reuse must not leak state between calls — also across a
        // change of layout (slabbed → whole → brute) in between.
        let sys = random_system(27 * 70, [3.3; 3], 23);
        let table = PairKernelTable::new(2.1, 1.0);
        let pool = Pool::new(2);
        let mut scratch = CellScratch::new();
        let mut first = CoulombResult::default();
        short_range_cells_into(&sys, &table, 1.0, &pool, &mut scratch, &mut first);
        let mut other = CoulombResult::default();
        for detour in [
            random_system(150, [5.0; 3], 24),
            random_system(90, [2.2; 3], 25),
        ] {
            short_range_cells_into(&detour, &table, 1.0, &pool, &mut scratch, &mut other);
        }
        let mut again = CoulombResult::default();
        short_range_cells_into(&sys, &table, 1.0, &pool, &mut scratch, &mut again);
        assert_bitwise_eq(&first, &again, "repeat");
    }

    #[test]
    #[should_panic(expected = "exceeds half")]
    fn oversized_cutoff_rejected() {
        let sys = random_system(4, [2.0; 3], 1);
        let table = PairKernelTable::new(2.0, 1.5);
        let pool = Pool::new(1);
        let mut scratch = CellScratch::new();
        let mut out = CoulombResult::default();
        short_range_cells_into(&sys, &table, 1.5, &pool, &mut scratch, &mut out);
    }
}
