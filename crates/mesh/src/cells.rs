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
//!    `dx/dy/dz/r²` and the cutoff test computed a vector at a time, and
//!    the hits are appended without a branch per pair to structure-of-
//!    arrays hit buffers shared by all 14 ranges of the atom.
//! 3. **Batch:** the segmented r²-table kernel evaluates the whole hit
//!    buffer in one pass ([`PairKernelTable::erfc_kernel_r2_batch`]).
//! 4. **Accumulate:** a pass in hit order applies Newton's third law into
//!    per-part slabs in sorted-slot space, each covering only the x-planes
//!    its part's cells can reach (its `Window`): the per-hit products
//!    four hits wide, the sums one hit at a time.
//!
//! The pair phase has a compile-time Lennard-Jones lane (`LJ`): with it,
//! step 4 also adds the Lorentz–Berthelot `4ε(s¹² − s⁶)` term of a hit,
//! in closed form from per-slot `σ/2` and `√ε` ([`LjAtom`]). A pair with
//! ε = 0 adds ±0, which leaves every sum's bits as they are, so the SIMD
//! bodies run a home atom with ε = 0 through the Coulomb-only accumulate.
//! The portable body evaluates every hit's term and is the reference they
//! match (DESIGN.md §15.7). Without the lane ([`short_range_cells_into`])
//! it is compiled out and the loop is the Coulomb-only one.
//!
//! The pair phase is instantiated three times, one per [`Isa`], chosen
//! once per call by runtime detection ([`Isa::detect`]): the portable body,
//! which is the reference; AVX2 (4-lane candidate pass, accumulate and
//! table batch); and AVX-512F/VL (8-lane candidate pass, the same 4-lane
//! accumulate and table batch). Every SIMD body performs the
//! portable body's IEEE operations in the same order, without FMA, and
//! every instantiation tests for a hit-buffer flush once per
//! [`CHUNK_W`]-candidate chunk, so all three produce identical bits
//! (DESIGN.md §15.2).
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
use tme_num::isa::Isa;
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
        Window {
            p0,
            planes,
            start,
            len,
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
/// covered plane sits at window index `(j − start) mod n`
/// ([`Window::index`]).
#[derive(Clone, Copy, Debug, Default)]
struct Window {
    /// First plane and plane count (`dims[0]`: the whole box).
    p0: usize,
    planes: usize,
    /// First slot and slot count.
    start: usize,
    len: usize,
}

impl Window {
    /// Window index of slot `j` of a covered plane, over `n` slots:
    /// `(j − start) mod n`. Slots below `start` belong to planes reached
    /// past the wrap.
    #[inline(always)]
    fn index(&self, j: usize, n: usize) -> usize {
        let w = j.wrapping_sub(self.start);
        if w >= n {
            w.wrapping_add(n)
        } else {
            w
        }
    }

    /// Whether the window covers plane `p` of `d0`.
    fn covers(&self, p: usize, d0: usize) -> bool {
        (p + d0 - self.p0) % d0 < self.planes
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

/// The pair phase's instantiation ([`Isa`]) as a const-generic parameter
/// of [`Lane::run`], so each instantiation compiles only its own bodies.
const PORTABLE: u8 = 0;
const AVX2: u8 = 1;
const AVX512: u8 = 2;

/// Slack past `HIT_CAP` in the hit buffers the candidate pass writes: the
/// SIMD passes store whole vectors (up to 8 lanes) at the hit cursor.
const HIT_PAD: usize = 8;

/// The AVX2 compaction, one row per 4-bit hit mask: the `vpermps`
/// indices (two 32-bit halves per `f64` lane) that move the hit lanes, in
/// order, to the front of a vector, then those lanes' positions (the
/// candidate offsets of the compacted hits).
#[cfg(target_arch = "x86_64")]
static COMPACT4: [[i32; 12]; 16] = {
    let mut t = [[0; 12]; 16];
    let mut m = 0;
    while m < 16 {
        let (mut k, mut at) = (0, 0);
        while k < 4 {
            if m >> k & 1 == 1 {
                t[m][2 * at] = 2 * k;
                t[m][2 * at + 1] = 2 * k + 1;
                t[m][8 + at] = k;
                at += 1;
            }
            k += 1;
        }
        m += 1;
    }
    t
};

/// One pool worker's buffers — a worker runs one part at a time, so these
/// are per worker, not per part: the hits awaiting the table pass, stored
/// structure-of-arrays. Aligned so two workers' hit cursors never share a
/// cache line.
#[derive(Clone, Debug, Default)]
#[repr(align(128))]
struct Lane {
    /// Per hit (`nh` buffered): displacement and partner slot, appended by
    /// the candidate pass; r² and the table kernel's energy / force
    /// factors, filled by the flush.
    nh: usize,
    hx: Vec<f64>,
    hy: Vec<f64>,
    hz: Vec<f64>,
    hj: Vec<u32>,
    hr2: Vec<f64>,
    he: Vec<f64>,
    hf: Vec<f64>,
}

impl Lane {
    fn prepare(&mut self) {
        for hits in [&mut self.hx, &mut self.hy, &mut self.hz] {
            hits.resize(HIT_CAP + HIT_PAD, 0.0);
        }
        self.hj.resize(HIT_CAP + HIT_PAD, 0);
        for hits in [&mut self.hr2, &mut self.he, &mut self.hf] {
            hits.resize(HIT_CAP, 0.0);
        }
    }

    /// Compact step for home slot `i` seen from `o` against the slot range
    /// `[j0, j1)`: per chunk of [`CHUNK_W`] candidates, the flush test,
    /// then the candidate pass of the `ISA` instantiation appends the
    /// chunk's hits to the hit buffers. The test stays per chunk in every
    /// instantiation: it decides where an atom with more than `HIT_CAP`
    /// partners splits its partial sums, so it is part of the bits.
    #[inline(always)]
    fn gather<const FOLD: bool, const LJ: bool, const ISA: u8>(
        &mut self,
        st: &mut PartState,
        inp: &PairInput,
        i: usize,
        o: V3,
        (j0, j1): (usize, usize),
    ) {
        let mut j = j0;
        while j < j1 {
            let len = (j1 - j).min(CHUNK_W);
            if self.nh + len > HIT_CAP {
                self.flush::<LJ, ISA>(st, inp, i);
            }
            match ISA {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `pair_sum` runs `ISA == AVX512` only after
                // `Isa::Avx512.available()` held.
                AVX512 => unsafe { self.candidates_avx512::<FOLD>(inp, o, j, len) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `pair_sum` runs `ISA == AVX2` only after
                // `Isa::Avx2.available()` held.
                AVX2 => unsafe { self.candidates_avx2::<FOLD>(inp, o, j, len) },
                _ => self.candidates::<FOLD>(inp, o, j, len),
            }
            j += len;
        }
    }

    /// Portable candidate pass over slots `[j, j + len)`: straight-line
    /// displacements and the cutoff mask as a bit word (the compiler
    /// vectorises it), written at the hit cursor; then one copy per set
    /// bit moves the hits down into place. `nh + len <= HIT_CAP` (the
    /// flush test).
    #[inline(always)]
    fn candidates<const FOLD: bool>(&mut self, inp: &PairInput, o: V3, j: usize, len: usize) {
        let (x, y, z) = inp.bins.coords();
        let l = inp.box_l;
        let nh0 = self.nh;
        // Equal-length slices, no branches: the vectorised pass.
        let (dxb, dyb, dzb) = (
            &mut self.hx[nh0..nh0 + len],
            &mut self.hy[nh0..nh0 + len],
            &mut self.hz[nh0..nh0 + len],
        );
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
            mask |= u64::from(r2 < inp.rc2 && r2 > 0.0) << k;
        }
        // One copy per set bit: the loop branch follows the hit count,
        // not each pair's outcome (hit rates are low, so a per-pair
        // branch would mispredict its way through). Hit `nh` comes from
        // candidate `nh0 + k >= nh`, so no copy overwrites an unread one.
        let mut nh = nh0;
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let c = nh0 + k;
            self.hx[nh] = self.hx[c];
            self.hy[nh] = self.hy[c];
            self.hz[nh] = self.hz[c];
            self.hj[nh] = (j + k) as u32;
            nh += 1;
        }
        self.nh = nh;
    }

    /// [`Lane::candidates`] four lanes wide: `dx/dy/dz/r²` per vector
    /// (a masked load for the last, partial one), the cutoff mask as 4
    /// bits, and the hit lanes moved to the front by one `vpermps` from
    /// [`COMPACT4`] and stored whole at the cursor — no branch per hit.
    /// The same IEEE operations as the portable pass, lane by lane.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2. The body is plain code around
    /// the intrinsics, always inlined into [`Lane::run_avx2`], which
    /// enables the feature, so the intrinsics inline too.
    // SAFETY: an obligation of the caller, stated under `# Safety`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn candidates_avx2<const FOLD: bool>(
        &mut self,
        inp: &PairInput,
        o: V3,
        j: usize,
        len: usize,
    ) {
        use std::arch::x86_64::{
            __m128i, __m256d, __m256i, _mm256_add_pd, _mm256_and_pd, _mm256_castpd_ps,
            _mm256_castps_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_loadu_si256,
            _mm256_maskload_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_permutevar8x32_ps,
            _mm256_set1_pd, _mm256_setr_epi64x, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
            _mm_add_epi32, _mm_loadu_si128, _mm_set1_epi32, _mm_storeu_si128, _CMP_GT_OQ,
            _CMP_LT_OQ,
        };
        // SAFETY: the caller guarantees AVX2; each raw access below says why it
        // stays in bounds.
        unsafe {
            let (x, y, z) = inp.bins.coords();
            let (xs, ys, zs) = (&x[j..j + len], &y[j..j + len], &z[j..j + len]);
            let nh0 = self.nh;
            // Room for every candidate plus one whole vector past the last.
            let room = nh0..nh0 + len + HIT_PAD;
            let (hx, hy, hz, hj) = (
                self.hx[room.clone()].as_mut_ptr(),
                self.hy[room.clone()].as_mut_ptr(),
                self.hz[room.clone()].as_mut_ptr(),
                self.hj[room].as_mut_ptr(),
            );
            let l = inp.box_l;
            let ov = o.map(|c| _mm256_set1_pd(c));
            let lv = l.map(|c| _mm256_set1_pd(c));
            let hv = l.map(|c| _mm256_set1_pd(0.5 * c));
            let nhv = l.map(|c| _mm256_set1_pd(-(0.5 * c)));
            let (rc2, zero) = (_mm256_set1_pd(inp.rc2), _mm256_setzero_pd());
            // `delta::<FOLD>`, lane by lane: `d − (d > h ? L : 0) + (d < −h ? L : 0)`.
            let delta4 = |a: usize, c: __m256d| {
                let mut d = _mm256_sub_pd(ov[a], c);
                if FOLD {
                    let up = _mm256_cmp_pd::<_CMP_GT_OQ>(d, hv[a]);
                    d = _mm256_sub_pd(d, _mm256_and_pd(up, lv[a]));
                    let down = _mm256_cmp_pd::<_CMP_LT_OQ>(d, nhv[a]);
                    d = _mm256_add_pd(d, _mm256_and_pd(down, lv[a]));
                }
                d
            };
            let base = j as u32 as i32;
            let mut nh = 0usize;
            let mut k = 0;
            while k < len {
                let lanes = (len - k).min(4);
                // In bounds: `k < len`, so the first lane is inside the
                // slices; the masked load reads only lanes `< lanes <= len − k`.
                let load = |s: &[f64]| {
                    if lanes == 4 {
                        _mm256_loadu_pd(s.as_ptr().add(k))
                    } else {
                        let live = |m: usize| if m < lanes { -1 } else { 0 };
                        let mask = _mm256_setr_epi64x(live(0), live(1), live(2), live(3));
                        _mm256_maskload_pd(s.as_ptr().add(k), mask)
                    }
                };
                let (dx, dy, dz) = (
                    delta4(0, load(xs)),
                    delta4(1, load(ys)),
                    delta4(2, load(zs)),
                );
                let r2 = _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                    _mm256_mul_pd(dz, dz),
                );
                let hit = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_LT_OQ>(r2, rc2),
                    _mm256_cmp_pd::<_CMP_GT_OQ>(r2, zero),
                );
                let m = (_mm256_movemask_pd(hit) & ((1 << lanes) - 1)) as usize;
                // In bounds: `m < 16` indexes the table; every store writes
                // one vector at `nh <= k`, and `k + 4 <= len + HIT_PAD` keeps
                // it inside `room`.
                let perm = _mm256_loadu_si256(COMPACT4[m][..8].as_ptr().cast::<__m256i>());
                let pack = |v: __m256d| {
                    _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(v), perm))
                };
                _mm256_storeu_pd(hx.add(nh), pack(dx));
                _mm256_storeu_pd(hy.add(nh), pack(dy));
                _mm256_storeu_pd(hz.add(nh), pack(dz));
                let at = _mm_loadu_si128(COMPACT4[m][8..].as_ptr().cast::<__m128i>());
                let slots = _mm_add_epi32(at, _mm_set1_epi32(base.wrapping_add(k as i32)));
                _mm_storeu_si128(hj.add(nh).cast::<__m128i>(), slots);
                nh += m.count_ones() as usize;
                k += 4;
            }
            self.nh = nh0 + nh;
        }
    }

    /// [`Lane::candidates`] eight lanes wide (AVX-512F/VL): masked loads
    /// for the last, partial vector, the cutoff test as an 8-bit mask, and
    /// `vcompresspd` / `vpcompressd` into a register followed by one plain
    /// whole-vector store at the cursor. The same IEEE operations as the
    /// portable pass, lane by lane (the half-box fold adds or subtracts
    /// `+0.0` where it does not fire, as the scalar select does).
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX-512F/VL. The body is plain code around
    /// the intrinsics, always inlined into [`Lane::run_avx512`], which
    /// enables the features, so the intrinsics inline too.
    // SAFETY: an obligation of the caller, stated under `# Safety`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn candidates_avx512<const FOLD: bool>(
        &mut self,
        inp: &PairInput,
        o: V3,
        j: usize,
        len: usize,
    ) {
        use std::arch::x86_64::{
            __m256i, __m512d, _mm256_add_epi32, _mm256_maskz_compress_epi32, _mm256_set1_epi32,
            _mm256_setr_epi32, _mm256_storeu_si256, _mm512_add_pd, _mm512_cmp_pd_mask,
            _mm512_mask_cmp_pd_mask, _mm512_maskz_compress_pd, _mm512_maskz_loadu_pd,
            _mm512_maskz_mov_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd,
            _mm512_storeu_pd, _mm512_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ,
        };
        // SAFETY: the caller guarantees AVX-512F/VL; each raw access below says
        // why it stays in bounds.
        unsafe {
            let (x, y, z) = inp.bins.coords();
            let (xs, ys, zs) = (&x[j..j + len], &y[j..j + len], &z[j..j + len]);
            let nh0 = self.nh;
            // Room for every candidate plus one whole vector past the last.
            let room = nh0..nh0 + len + HIT_PAD;
            let (hx, hy, hz, hj) = (
                self.hx[room.clone()].as_mut_ptr(),
                self.hy[room.clone()].as_mut_ptr(),
                self.hz[room.clone()].as_mut_ptr(),
                self.hj[room].as_mut_ptr(),
            );
            let l = inp.box_l;
            let ov = o.map(|c| _mm512_set1_pd(c));
            let lv = l.map(|c| _mm512_set1_pd(c));
            let hv = l.map(|c| _mm512_set1_pd(0.5 * c));
            let nhv = l.map(|c| _mm512_set1_pd(-(0.5 * c)));
            let (rc2, zero) = (_mm512_set1_pd(inp.rc2), _mm512_setzero_pd());
            // `delta::<FOLD>`, lane by lane: `d − (d > h ? L : 0) + (d < −h ? L : 0)`.
            let delta8 = |a: usize, c: __m512d| {
                let mut d = _mm512_sub_pd(ov[a], c);
                if FOLD {
                    let up = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(d, hv[a]);
                    d = _mm512_sub_pd(d, _mm512_maskz_mov_pd(up, lv[a]));
                    let down = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, nhv[a]);
                    d = _mm512_add_pd(d, _mm512_maskz_mov_pd(down, lv[a]));
                }
                d
            };
            let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let base = j as u32 as i32;
            let mut nh = 0usize;
            let mut k = 0;
            while k < len {
                let live = (u16::MAX >> (16 - (len - k).min(8))) as u8;
                // In bounds: the masked loads read only lanes `< len − k`.
                let load = |s: &[f64]| _mm512_maskz_loadu_pd(live, s.as_ptr().add(k));
                let (dx, dy, dz) = (
                    delta8(0, load(xs)),
                    delta8(1, load(ys)),
                    delta8(2, load(zs)),
                );
                let r2 = _mm512_add_pd(
                    _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                    _mm512_mul_pd(dz, dz),
                );
                let m = _mm512_mask_cmp_pd_mask::<_CMP_LT_OQ>(live, r2, rc2)
                    & _mm512_cmp_pd_mask::<_CMP_GT_OQ>(r2, zero);
                let slots = _mm256_add_epi32(iota, _mm256_set1_epi32(base.wrapping_add(k as i32)));
                // In bounds: every store writes one vector at `nh <= k`, and
                // `k + 8 <= len + HIT_PAD` keeps it inside `room`.
                _mm512_storeu_pd(hx.add(nh), _mm512_maskz_compress_pd(m, dx));
                _mm512_storeu_pd(hy.add(nh), _mm512_maskz_compress_pd(m, dy));
                _mm512_storeu_pd(hz.add(nh), _mm512_maskz_compress_pd(m, dz));
                let hj = hj.add(nh).cast::<__m256i>();
                _mm256_storeu_si256(hj, _mm256_maskz_compress_epi32(m, slots));
                nh += m.count_ones() as usize;
                k += 8;
            }
            self.nh = nh0 + nh;
        }
    }

    /// Batch + accumulate steps: one table pass over the buffered hits of
    /// home slot `i`, then Newton-3 accumulation in hit order (plus the
    /// Lennard-Jones term of each hit when `LJ`) — whole quads by the
    /// SIMD body, the rest by the portable one. The SIMD instantiations
    /// run a home atom with ε = 0 through the Coulomb-only accumulate: its
    /// every LJ term is ±0, which leaves every sum's bits as they are
    /// (DESIGN.md §15.7).
    #[inline(always)]
    fn flush<const LJ: bool, const ISA: u8>(
        &mut self,
        st: &mut PartState,
        inp: &PairInput,
        i: usize,
    ) {
        let nh = std::mem::take(&mut self.nh);
        if nh == 0 {
            return;
        }
        // r² of each hit, recomputed from its displacement: the candidate
        // pass's expression on the same operands, so the same bits, and
        // one straight-line pass over the hits instead of a fifth
        // compaction per candidate vector.
        let (hx, hy, hz) = (&self.hx[..nh], &self.hy[..nh], &self.hz[..nh]);
        for (m, r2) in self.hr2[..nh].iter_mut().enumerate() {
            *r2 = hx[m] * hx[m] + hy[m] * hy[m] + hz[m] * hz[m];
        }
        let isa = match ISA {
            PORTABLE => Isa::Portable,
            AVX2 => Isa::Avx2,
            _ => Isa::Avx512,
        };
        inp.table.erfc_kernel_r2_batch(
            isa,
            &self.hr2[..nh],
            &mut self.he[..nh],
            &mut self.hf[..nh],
        );
        let ai = if LJ && (ISA == PORTABLE || inp.lj[i].sqrt_eps != 0.0) {
            self.accumulate_hits::<LJ, ISA>(st, inp, i, nh)
        } else {
            self.accumulate_hits::<false, ISA>(st, inp, i, nh)
        };
        for (slot, add) in st.acc[st.win.index(i, inp.bins.n)].iter_mut().zip(ai) {
            *slot += add;
        }
    }

    /// Accumulate step over the `nh` buffered hits of home slot `i`: the
    /// leading whole quads by the `ISA` instantiation's SIMD body, the rest
    /// by the portable one; returns the home atom's sums.
    #[inline(always)]
    fn accumulate_hits<const LJ: bool, const ISA: u8>(
        &self,
        st: &mut PartState,
        inp: &PairInput,
        i: usize,
        nh: usize,
    ) -> [f64; 4] {
        let (done, ai) = match ISA {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `pair_sum` runs a SIMD `ISA` only after its `Isa`
            // was available, and every SIMD `Isa` includes AVX2.
            AVX2 | AVX512 => unsafe { self.accumulate_avx2::<LJ>(st, inp, i, nh) },
            _ => (0, [0.0; 4]),
        };
        self.accumulate::<LJ>(st, inp, i, done..nh, ai)
    }

    /// Portable accumulate over buffered hits `hits`, in order, continuing
    /// the home atom's sums `ai` (force x/y/z, potential); returns them.
    #[inline(always)]
    fn accumulate<const LJ: bool>(
        &self,
        st: &mut PartState,
        inp: &PairInput,
        i: usize,
        hits: std::ops::Range<usize>,
        mut ai: [f64; 4],
    ) -> [f64; 4] {
        let qi = inp.q[i];
        let lj_i = if LJ { inp.lj[i] } else { LjAtom::default() };
        let (win, n) = (st.win, inp.bins.n);
        for m in hits {
            let j = self.hj[m] as usize;
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
            let fv = [fs * self.hx[m], fs * self.hy[m], fs * self.hz[m]];
            let aj = &mut st.acc[win.index(j, n)];
            for a in 0..3 {
                ai[a] += fv[a];
                aj[a] -= fv[a];
            }
            ai[3] += qj * e;
            aj[3] += qi * e;
        }
        ai
    }

    /// [`Lane::accumulate`] over the leading whole quads of the `nh`
    /// buffered hits; returns how many hits it took and the home atom's
    /// sums. Each quad computes `qq`, `qq·e`, `fs`, `fs·r²`, `fs·d⃗`,
    /// `qj·e` and `qi·e` (and the LJ pair terms) four hits wide, then adds
    /// them one hit at a time, so every sum sees the portable body's
    /// operands in the portable body's order: `[e, W]` as one packed
    /// pair, the home atom's `[fx, fy, fz, φ]` as one vector, and each
    /// partner's record as one read-modify-write of
    /// `[fx, fy, fz, φ] − [fs·dx, fs·dy, fs·dz, −qi·e]` after a 4×4
    /// transpose (`a − (−b)` is `a + b` exactly).
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2. The body is plain code around
    /// the intrinsics, always inlined into the instantiation that enables
    /// the features ([`Lane::run_avx2`] / [`Lane::run_avx512`]), where the
    /// intrinsics inline too.
    // SAFETY: an obligation of the caller, stated under `# Safety`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn accumulate_avx2<const LJ: bool>(
        &self,
        st: &mut PartState,
        inp: &PairInput,
        i: usize,
        nh: usize,
    ) -> (usize, [f64; 4]) {
        use std::arch::x86_64::{
            __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_div_pd, _mm256_extractf128_pd,
            _mm256_loadu_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_setr_pd,
            _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd,
            _mm256_unpacklo_pd, _mm256_xor_pd, _mm_add_pd, _mm_cvtsd_f64, _mm_setr_pd,
            _mm_unpackhi_pd,
        };
        // SAFETY: the caller guarantees AVX2; each raw access below says why it
        // stays in bounds.
        unsafe {
            let quads = nh / 4 * 4;
            let (q, lj) = (inp.q, inp.lj);
            let qi = _mm256_set1_pd(q[i]);
            let lj_i = if LJ { lj[i] } else { LjAtom::default() };
            let (hs_i, se_i) = (
                _mm256_set1_pd(lj_i.half_sigma),
                _mm256_set1_pd(lj_i.sqrt_eps),
            );
            let (one, two, four, c24) = (
                _mm256_set1_pd(1.0),
                _mm256_set1_pd(2.0),
                _mm256_set1_pd(4.0),
                _mm256_set1_pd(24.0),
            );
            let sign = _mm256_set1_pd(-0.0);
            let (win, n) = (st.win, inp.bins.n);
            let mut ew = _mm_setr_pd(st.energy, st.virial);
            let mut ai = _mm256_setzero_pd();
            let (hx, hy, hz) = (&self.hx[..quads], &self.hy[..quads], &self.hz[..quads]);
            let (hr2, he, hf) = (&self.hr2[..quads], &self.he[..quads], &self.hf[..quads]);
            // In bounds: callers pass `m + 4 <= quads == s.len()`.
            let ld = |s: &[f64], m: usize| _mm256_loadu_pd(s.as_ptr().add(m));
            for m in (0..quads).step_by(4) {
                let js = [0, 1, 2, 3].map(|k| self.hj[m + k] as usize);
                let qj = _mm256_setr_pd(q[js[0]], q[js[1]], q[js[2]], q[js[3]]);
                let (e, r2) = (ld(he, m), ld(hr2, m));
                let qq = _mm256_mul_pd(qi, qj);
                let qqe = _mm256_mul_pd(qq, e);
                let mut fs = _mm256_mul_pd(qq, ld(hf, m));
                let mut e_lj = [0.0f64; 4];
                if LJ {
                    let at = js.map(|j| lj[j]);
                    let hs = _mm256_setr_pd(
                        at[0].half_sigma,
                        at[1].half_sigma,
                        at[2].half_sigma,
                        at[3].half_sigma,
                    );
                    let se = _mm256_setr_pd(
                        at[0].sqrt_eps,
                        at[1].sqrt_eps,
                        at[2].sqrt_eps,
                        at[3].sqrt_eps,
                    );
                    // `LjAtom::pair`, four pairs wide.
                    let inv_r2 = _mm256_div_pd(one, r2);
                    let sigma = _mm256_add_pd(hs_i, hs);
                    let eps = _mm256_mul_pd(se_i, se);
                    let s2 = _mm256_mul_pd(_mm256_mul_pd(sigma, sigma), inv_r2);
                    let s6 = _mm256_mul_pd(_mm256_mul_pd(s2, s2), s2);
                    let s12 = _mm256_mul_pd(s6, s6);
                    let energy = _mm256_mul_pd(_mm256_mul_pd(four, eps), _mm256_sub_pd(s12, s6));
                    let force = _mm256_mul_pd(
                        _mm256_mul_pd(
                            _mm256_mul_pd(c24, eps),
                            _mm256_sub_pd(_mm256_mul_pd(two, s12), s6),
                        ),
                        inv_r2,
                    );
                    _mm256_storeu_pd(e_lj.as_mut_ptr(), energy);
                    fs = _mm256_add_pd(fs, force);
                }
                let fsr2 = _mm256_mul_pd(fs, r2);
                let fx = _mm256_mul_pd(fs, ld(hx, m));
                let fy = _mm256_mul_pd(fs, ld(hy, m));
                let fz = _mm256_mul_pd(fs, ld(hz, m));
                let qje = _mm256_mul_pd(qj, e);
                let nqie = _mm256_xor_pd(_mm256_mul_pd(qi, e), sign);
                // Rows → per-hit vectors: `home[k] = [fx, fy, fz, qj·e]` and
                // `part[k] = [fx, fy, fz, −qi·e]` of hit `m + k`.
                let (xy_lo, xy_hi) = (_mm256_unpacklo_pd(fx, fy), _mm256_unpackhi_pd(fx, fy));
                let transpose = |w: __m256d| {
                    let (zw_lo, zw_hi) = (_mm256_unpacklo_pd(fz, w), _mm256_unpackhi_pd(fz, w));
                    [
                        _mm256_permute2f128_pd::<0x20>(xy_lo, zw_lo),
                        _mm256_permute2f128_pd::<0x20>(xy_hi, zw_hi),
                        _mm256_permute2f128_pd::<0x31>(xy_lo, zw_lo),
                        _mm256_permute2f128_pd::<0x31>(xy_hi, zw_hi),
                    ]
                };
                let (home, part) = (transpose(qje), transpose(nqie));
                let (ew_lo, ew_hi) = (_mm256_unpacklo_pd(qqe, fsr2), _mm256_unpackhi_pd(qqe, fsr2));
                let ew_hits = [
                    _mm256_castpd256_pd128(ew_lo),
                    _mm256_castpd256_pd128(ew_hi),
                    _mm256_extractf128_pd::<1>(ew_lo),
                    _mm256_extractf128_pd::<1>(ew_hi),
                ];
                for k in 0..4 {
                    ew = _mm_add_pd(ew, ew_hits[k]);
                    if LJ {
                        st.lj_energy += e_lj[k];
                    }
                    ai = _mm256_add_pd(ai, home[k]);
                    // One `[f64; 4]`, bounds-checked: 32 bytes.
                    let aj = &mut st.acc[win.index(js[k], n)];
                    let v = _mm256_sub_pd(_mm256_loadu_pd(aj.as_ptr()), part[k]);
                    _mm256_storeu_pd(aj.as_mut_ptr(), v);
                }
            }
            st.energy = _mm_cvtsd_f64(ew);
            st.virial = _mm_cvtsd_f64(_mm_unpackhi_pd(ew, ew));
            let mut sums = [0.0f64; 4];
            _mm256_storeu_pd(sums.as_mut_ptr(), ai);
            (quads, sums)
        }
    }

    /// One partition of the pair phase. Binned: cells
    /// `[chunk_bounds(part)]`, each home atom against the rest of its cell
    /// and the pruned ranges of the 13 forward stencil neighbours under
    /// their per-cell-pair image shifts. Unbinned: brute-force rows
    /// `[chunk_bounds(part)]`, atom `i` against every later atom.
    #[inline(always)]
    fn run<const LJ: bool, const ISA: u8>(
        &mut self,
        st: &mut PartState,
        inp: &PairInput,
        part: usize,
    ) {
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
                let row = (i + 1, bins.n);
                self.gather::<true, LJ, ISA>(st, inp, i, [x[i], y[i], z[i]], row);
                self.flush::<LJ, ISA>(st, inp, i);
            }
            return;
        }
        for c in lo..hi {
            let (h0, h1) = bins.cell_range(c);
            if h0 == h1 {
                continue;
            }
            let nbs = bins.neighbours(c, inp.box_l);
            for i in h0..h1 {
                let p = [x[i], y[i], z[i]];
                self.gather::<false, LJ, ISA>(st, inp, i, p, (i + 1, h1));
                for nb in &nbs {
                    let o = vec3::sub(p, nb.shift);
                    let range = inp.pruned_range(nb, o);
                    self.gather::<false, LJ, ISA>(st, inp, i, o, range);
                }
                self.flush::<LJ, ISA>(st, inp, i);
            }
        }
    }

    /// [`Lane::run`] compiled for AVX2: the 4-lane candidate pass and
    /// accumulate, VEX encodings elsewhere.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2<const LJ: bool>(&mut self, st: &mut PartState, inp: &PairInput, part: usize) {
        self.run::<LJ, AVX2>(st, inp, part);
    }

    /// [`Lane::run`] compiled for AVX-512F/VL: the 8-lane candidate pass,
    /// the 4-lane accumulate.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vl")]
    fn run_avx512<const LJ: bool>(&mut self, st: &mut PartState, inp: &PairInput, part: usize) {
        self.run::<LJ, AVX512>(st, inp, part);
    }
}

/// Reusable state of the cell-list short-range path: the bins, the
/// sorted charge (and LJ) slabs, one `PartState` per fixed partition and
/// one `Lane` per pool worker.
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
    short_range_cells_on(Isa::detect(), system, table, r_cut, pool, scratch, out);
}

/// [`short_range_cells_into`] on the instantiation `isa`, which must be
/// available — the form a caller that detected its [`Isa`] once for a
/// whole call uses.
pub fn short_range_cells_on(
    isa: Isa,
    system: &CoulombSystem,
    table: &PairKernelTable,
    r_cut: f64,
    pool: &Pool,
    scratch: &mut CellScratch,
    out: &mut CoulombResult,
) {
    pair_sum::<false>(isa, system, &[], table, r_cut, pool, scratch, out);
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
    assert!(
        isa.available(),
        "{isa:?} instantiation requested on a CPU without it"
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
            // SAFETY: the assert at entry saw the CPU report AVX-512F/VL.
            Isa::Avx512 => unsafe { lane.run_avx512::<LJ>(st, &inp, part) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assert at entry saw the CPU report AVX2.
            Isa::Avx2 => unsafe { lane.run_avx2::<LJ>(st, &inp, part) },
            _ => lane.run::<LJ, PORTABLE>(st, &inp, part),
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
                // The parts covering plane `p`, ascending, each as its
                // slab from the plane's first slot on. Every other part
                // holds +0.0 at these slots, and adding +0.0 to a sum that
                // is never −0.0 changes no bit (DESIGN.md §15.3).
                let ps = bins.plane_start(p);
                let mut cover: [&[[f64; 4]]; CELL_PARTS] = [&[]; CELL_PARTS];
                let mut k = 0;
                for st in parts.iter().filter(|st| st.win.covers(p, d0)) {
                    cover[k] = &st.acc[st.win.index(ps, n)..];
                    k += 1;
                }
                for (s, &atom) in (s..end).zip(&bins.order[s..end]) {
                    let mut sum = [0.0f64; 4];
                    for acc in &cover[..k] {
                        let a = acc[s - ps];
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

    /// `n` random atoms in `box_l` in runs of 1 to 12 consecutive atoms of
    /// one Lennard-Jones kind — typed (σ, ε > 0), ε = 0 with σ > 0, or
    /// σ = ε = 0 — each atom independently charged 0, +0.8 or −0.8. On
    /// brute-force rows (slot = atom index) the runs put LJ-free home atoms
    /// right before LJ ones in one part, and mix LJ-free and LJ partners.
    fn lj_runs_system(n: usize, box_l: V3, seed: u64) -> (CoulombSystem, Vec<LjAtom>) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let (mut pos, mut q, mut lj) = (Vec::new(), Vec::new(), Vec::new());
        let (mut run, mut kind) = (0, 0);
        for _ in 0..n {
            if run == 0 {
                run = 1 + rng.next_u64() % 12;
                kind = rng.next_u64() % 3;
            }
            run -= 1;
            pos.push(box_l.map(|l| rng.gen_range(0.0..l)));
            q.push([0.0, 0.8, -0.8][(rng.next_u64() % 3) as usize]);
            let sigma = rng.gen_range(0.15..0.35);
            lj.push(match kind {
                0 => LjAtom::new(sigma, rng.gen_range(0.001..0.01)),
                1 => LjAtom::new(sigma, 0.0),
                _ => LjAtom::default(),
            });
        }
        (CoulombSystem::new(pos, q, box_l), lj)
    }

    /// On brute-force rows: how many LJ home atoms directly follow an
    /// LJ-free one in the same part, so that one lane switches from the
    /// Coulomb-only accumulate back to the LJ one.
    fn lj_after_lj_free(lj: &[LjAtom]) -> usize {
        let n = lj.len();
        let has_lj = |j: usize| lj[j].sqrt_eps != 0.0;
        let part_start = |i: usize| (0..CELL_PARTS).any(|p| chunk_bounds(n, CELL_PARTS, p).0 == i);
        (1..n)
            .filter(|&i| has_lj(i) && !has_lj(i - 1) && !part_start(i))
            .count()
    }

    #[test]
    fn lj_lane_is_bitwise_identical_across_threads_and_isas() {
        // The SIMD bodies run LJ-free home atoms through the Coulomb-only
        // accumulate; the portable body, the reference, evaluates every LJ
        // term. The twin systems with random LJ parameters, then runs of LJ
        // kinds on brute-force rows (one with `HIT_CAP` overflow, so flushes
        // split atoms mid-row), where LJ home atoms follow LJ-free ones.
        let isas = available_isas("lj_lane_is_bitwise_identical_across_threads_and_isas");
        let mut cases: Vec<_> = twin_systems(76)
            .into_iter()
            .map(|(sys, r_cut)| {
                let lj = random_lj(sys.len(), 79);
                (sys, lj, r_cut)
            })
            .collect();
        for (n, edge, r_cut, seed) in [(700, 2.4, 1.2, 93), (3 * HIT_CAP, 2.0, 1.0, 94)] {
            let (sys, lj) = lj_runs_system(n, [edge; 3], seed);
            assert!(CellGrid::plan(sys.box_l, r_cut).is_none(), "n = {n}");
            assert!(lj_after_lj_free(&lj) > 0, "n = {n}");
            cases.push((sys, lj, r_cut));
        }
        for (sys, lj, r_cut) in &cases {
            let (base, base_lj) = run_lj_on(Isa::Portable, sys, lj, *r_cut, 1);
            for threads in [1usize, 2, 4] {
                for &isa in &isas {
                    let (got, got_lj) = run_lj_on(isa, sys, lj, *r_cut, threads);
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

    /// Every instantiation this CPU can run, printed so a test log names
    /// what was compared.
    fn available_isas(test: &str) -> Vec<Isa> {
        let isas: Vec<Isa> = Isa::ALL.into_iter().filter(|isa| isa.available()).collect();
        eprintln!("{test}: comparing {isas:?}");
        isas
    }

    /// Systems the instantiation twins compare on, `seed`-dependent: slabbed
    /// cells, whole cells and brute-force rows; the two `HIT_CAP`-overflow
    /// systems of `hit_buffer_overflow_only_splits_partial_sums` (rows of
    /// `3 · HIT_CAP` atoms in a 2 nm box, 27 · 330 atoms in a 3 nm box),
    /// where the place the flush test splits an atom's partial sums is part
    /// of the bits; and [`every_residue_system`].
    fn twin_systems(seed: u64) -> Vec<(CoulombSystem, f64)> {
        vec![
            (random_system(27 * 100, [3.2; 3], seed), 1.0),
            (random_system(400, [6.0, 5.0, 7.0], seed + 1), 1.3),
            (random_system(700, [2.4; 3], seed + 2), 1.2),
            (random_system(3 * HIT_CAP, [2.0; 3], 8), 1.0),
            (random_system(27 * 330, [3.0; 3], 9), 1.0),
            (every_residue_system(seed + 3), 1.0),
        ]
    }

    /// Whole cells (one slab each) of a 3.3 nm box at r_cut 1.0 holding
    /// `8 + c % 8` atoms, 64 more in every fifth: the neighbour ranges, and
    /// so the last vector of a candidate pass, end on every residue mod 8,
    /// with and without a full 64-candidate chunk before it.
    fn every_residue_system(seed: u64) -> CoulombSystem {
        let (box_l, side) = ([3.3; 3], 1.1);
        let mut rng = SplitMix64::seed_from_u64(seed);
        let (mut pos, mut q) = (Vec::new(), Vec::new());
        for c in 0..27usize {
            let lo = [c / 9, c / 3 % 3, c % 3].map(|k| k as f64 * side);
            let count = 8 + c % 8 + if c % 5 == 0 { CHUNK_W } else { 0 };
            for k in 0..count {
                pos.push(lo.map(|l| l + rng.gen_range(0.01..side - 0.01)));
                q.push(if k % 2 == 0 { 0.8 } else { -0.8 });
            }
        }
        let sys = CoulombSystem::new(pos, q, box_l);
        let grid = CellGrid::plan(box_l, 1.0).expect("3 cells per axis");
        let mut bins = CellBins::default();
        bins.bin(&sys.pos, box_l, grid);
        let mut residues = [false; 8];
        for c in 0..grid.n_cells() {
            let (lo, hi) = bins.cell_range(c);
            residues[(hi - lo) % 8] = true;
        }
        assert!(residues.iter().all(|&r| r), "cell sizes miss a residue");
        sys
    }

    #[test]
    fn avx2_and_portable_instantiations_agree_bitwise() {
        let isas = available_isas("avx2_and_portable_instantiations_agree_bitwise");
        for (sys, r_cut) in &twin_systems(61) {
            for threads in [1usize, 3] {
                let portable = run_on(Isa::Portable, sys, 1.7, *r_cut, threads);
                for &isa in &isas {
                    let got = run_on(isa, sys, 1.7, *r_cut, threads);
                    let what = format!("n = {}, T = {threads}, {isa:?}", sys.len());
                    assert_bitwise_eq(&portable, &got, &what);
                }
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
