//! SoA cell-list short-range path vs the O(N²) pairwise oracle
//! (DESIGN.md §15): the production layout in `mesh::cells` must reproduce
//! `mesh::pairwise` — same kernel table, different traversal — on random
//! boxes, on cutoffs pushed against the half-box limit, and on atoms
//! placed exactly on cell boundaries, and must stay bitwise identical
//! across thread counts.

use mdgrape4a_tme::md::water::{water_box, water_box_in};
use mdgrape4a_tme::mesh::cells::{
    short_range_cells_into, short_range_lj_cells_into, CellGrid, CellScratch, LjAtom,
};
use mdgrape4a_tme::mesh::model::{CoulombResult, CoulombSystem};
use mdgrape4a_tme::mesh::pairwise::{short_range_into, short_range_table_into, PairwiseScratch};
use mdgrape4a_tme::num::pool::Pool;
use mdgrape4a_tme::num::rng::SplitMix64;
use mdgrape4a_tme::num::table::PairKernelTable;
use mdgrape4a_tme::num::vec3::V3;

/// Cells vs the *table* oracle evaluate the identical kernel per pair, so
/// the only daylight is floating-point summation order: relative for the
/// scalars, absolute for per-atom values (same bar as the
/// `table_path_matches_exact_oracle` anchor in `crates/num`).
const REORDER_ENERGY_RTOL: f64 = 1e-10;
const REORDER_FORCE_ATOL: f64 = 1e-9;

/// Cells vs the *exact*-`erfc` oracle additionally sees the table's
/// segmented-polynomial approximation error (~1e-9 relative by design).
const TABLE_ENERGY_RTOL: f64 = 1e-8;
const TABLE_FORCE_ATOL: f64 = 1e-6;

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

fn run_cells(
    sys: &CoulombSystem,
    table: &PairKernelTable,
    r_cut: f64,
    pool: &Pool,
) -> CoulombResult {
    let mut scratch = CellScratch::new();
    let mut out = CoulombResult::default();
    short_range_cells_into(sys, table, r_cut, pool, &mut scratch, &mut out);
    out
}

fn run_table_oracle(sys: &CoulombSystem, table: &PairKernelTable, r_cut: f64) -> CoulombResult {
    let pool = Pool::new(1);
    let mut scratch = PairwiseScratch::new();
    let mut out = CoulombResult::default();
    short_range_table_into(sys, table, r_cut, &pool, &mut scratch, &mut out);
    out
}

fn assert_close(got: &CoulombResult, want: &CoulombResult, e_rtol: f64, f_atol: f64, what: &str) {
    let scale = want.energy.abs().max(1.0);
    assert!(
        (got.energy - want.energy).abs() < e_rtol * scale,
        "{what}: energy {} vs {}",
        got.energy,
        want.energy
    );
    let vscale = want.virial.abs().max(scale);
    assert!(
        (got.virial - want.virial).abs() < e_rtol * vscale,
        "{what}: virial {} vs {}",
        got.virial,
        want.virial
    );
    assert_eq!(got.forces.len(), want.forces.len());
    for (i, (a, b)) in got.forces.iter().zip(&want.forces).enumerate() {
        for c in 0..3 {
            assert!(
                (a[c] - b[c]).abs() < f_atol,
                "{what}: force[{i}][{c}] {} vs {}",
                a[c],
                b[c]
            );
        }
    }
    for (i, (a, b)) in got.potentials.iter().zip(&want.potentials).enumerate() {
        assert!((a - b).abs() < f_atol, "{what}: potential[{i}] {a} vs {b}");
    }
}

#[test]
fn cells_match_pairwise_oracle_on_random_boxes() {
    let pool = Pool::new(2);
    for (seed, box_l, r_cut) in [
        (11u64, [5.0, 5.0, 5.0], 1.1),
        (12, [6.0, 4.5, 5.2], 1.2),
        (13, [4.0, 7.0, 3.6], 0.9),
        // Cutoff exactly a third of the smallest edge: 3 cells on that
        // axis, the tightest geometry the cell path accepts.
        (14, [4.8, 6.0, 5.4], 1.6),
    ] {
        let sys = random_system(280, box_l, seed);
        let table = PairKernelTable::new(1.9, r_cut);
        let got = run_cells(&sys, &table, r_cut, &pool);
        let want = run_table_oracle(&sys, &table, r_cut);
        assert_close(
            &got,
            &want,
            REORDER_ENERGY_RTOL,
            REORDER_FORCE_ATOL,
            &format!("seed {seed}"),
        );
    }
}

#[test]
fn cells_match_oracle_with_cutoff_near_half_box() {
    // Cutoffs this large leave fewer than 3 cells per axis, driving the
    // SoA brute-force fallback — including r_cut at exactly the half-box
    // boundary the API admits.
    let pool = Pool::new(4);
    let box_l = [4.2, 4.0, 4.4];
    for (seed, r_cut) in [(21u64, 1.9), (22, 1.99), (23, 2.0)] {
        let sys = random_system(150, box_l, seed);
        let table = PairKernelTable::new(1.3, r_cut);
        let got = run_cells(&sys, &table, r_cut, &pool);
        let want = run_table_oracle(&sys, &table, r_cut);
        assert_close(
            &got,
            &want,
            REORDER_ENERGY_RTOL,
            REORDER_FORCE_ATOL,
            &format!("r_cut {r_cut}"),
        );
    }
}

#[test]
fn cells_match_oracle_with_atoms_on_cell_boundaries() {
    // Atoms sitting exactly on cell faces (coordinates that are exact
    // multiples of the cell side, including the box edge itself, which
    // wraps to 0) — the binning must stay a permutation and the pair sum
    // must not double- or zero-count any of them.
    let box_l = [4.0, 4.0, 4.0];
    let r_cut = 1.0; // 4 cells per axis, side exactly 1.0
    let mut pos: Vec<V3> = Vec::new();
    for ix in 0..4 {
        for iy in 0..4 {
            for iz in 0..4 {
                pos.push([f64::from(ix), f64::from(iy), f64::from(iz)]);
            }
        }
    }
    // Atoms at the box edge itself (coordinate L wraps to 0), offset on
    // the other axes so no two atoms coincide exactly.
    pos.push([4.0, 0.5, 0.5]);
    pos.push([0.5, 4.0, 1.5]);
    pos.push([1.5, 2.5, 4.0]);
    let q = (0..pos.len())
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let sys = CoulombSystem::new(pos, q, box_l);
    let table = PairKernelTable::new(1.9, r_cut);
    let pool = Pool::new(2);
    let got = run_cells(&sys, &table, r_cut, &pool);
    let want = run_table_oracle(&sys, &table, r_cut);
    assert_close(
        &got,
        &want,
        REORDER_ENERGY_RTOL,
        REORDER_FORCE_ATOL,
        "boundary lattice",
    );
}

#[test]
fn cells_match_exact_erfc_oracle_on_water() {
    // Against the exact-erfc O(N²) reference the remaining error is the
    // kernel table's approximation, not the traversal.
    let sys = water_box(64, 7).coulomb_system();
    let min_edge = sys.box_l.iter().copied().fold(f64::INFINITY, f64::min);
    let r_cut = 0.9f64.min(min_edge / 2.0);
    let alpha = 1.8;
    let table = PairKernelTable::new(alpha, r_cut);
    let pool = Pool::new(2);
    let got = run_cells(&sys, &table, r_cut, &pool);
    let mut want = CoulombResult::default();
    let mut scratch = PairwiseScratch::new();
    short_range_into(&sys, alpha, r_cut, &Pool::new(1), &mut scratch, &mut want);
    assert_close(&got, &want, TABLE_ENERGY_RTOL, TABLE_FORCE_ATOL, "water");
}

#[test]
fn cells_match_oracle_at_paper_density() {
    // Liquid water at ≈ 100 atoms/nm³ under the paper's 1.0 nm cutoff:
    // ~110 atoms per cell, so the kernel runs on z-slabbed cells, pruned
    // slot ranges and full table batches — the paper-box regime.
    let sys = water_box(1000, 9).coulomb_system();
    let density = sys.len() as f64 / sys.box_l.iter().product::<f64>();
    assert!((90.0..110.0).contains(&density), "{density} atoms/nm³");
    let (alpha, r_cut) = (2.75, 1.0);
    let table = PairKernelTable::new(alpha, r_cut);
    let got = run_cells(&sys, &table, r_cut, &Pool::new(2));
    let want = run_table_oracle(&sys, &table, r_cut);
    assert_close(
        &got,
        &want,
        REORDER_ENERGY_RTOL,
        REORDER_FORCE_ATOL,
        "paper density",
    );
}

#[test]
fn cells_bitwise_identical_across_thread_counts_on_water() {
    // Brute-force rows (128 waters: the box takes no cell grid) and slabbed
    // cells at paper density (1000 waters).
    for (waters, seed) in [(128, 5), (1000, 9)] {
        let sys = water_box(waters, seed).coulomb_system();
        let min_edge = sys.box_l.iter().copied().fold(f64::INFINITY, f64::min);
        let r_cut = 0.9f64.min(min_edge / 2.0);
        let table = PairKernelTable::new(1.8, r_cut);
        let base = run_cells(&sys, &table, r_cut, &Pool::new(1));
        for threads in [2usize, 4, 8] {
            let got = run_cells(&sys, &table, r_cut, &Pool::new(threads));
            let what = format!("{waters} waters, threads {threads}");
            assert_eq!(base.energy.to_bits(), got.energy.to_bits(), "{what}");
            assert_eq!(base.virial.to_bits(), got.virial.to_bits(), "{what}");
            for (a, b) in base.forces.iter().zip(&got.forces) {
                for c in 0..3 {
                    assert_eq!(a[c].to_bits(), b[c].to_bits(), "{what}");
                }
            }
            for (a, b) in base.potentials.iter().zip(&got.potentials) {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}");
            }
        }
    }
}

#[test]
fn coulomb_only_kernel_bits_are_pinned() {
    // FNV-1a over every output bit of the Coulomb-only kernel on 1,536
    // atoms (512 waters, 3³ cells), recorded before the Lennard-Jones lane
    // was added beside it: the lane must compile out of this path entirely.
    let sys = water_box(512, 3).coulomb_system();
    let table = PairKernelTable::new(2.6, 0.8);
    let out = run_cells(&sys, &table, 0.8, &Pool::new(2));
    assert_eq!(sys.len(), 1536);
    assert_eq!(output_hash(&out, &[]), 0x955f_7237_0442_850c);
}

/// FNV-1a over every output bit of one kernel call — energy, virial, then
/// forces and potentials in atom order — followed by `extra`.
fn output_hash(out: &CoulombResult, extra: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: f64| h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    mix(out.energy);
    mix(out.virial);
    out.forces.iter().flatten().for_each(|&c| mix(c));
    out.potentials.iter().for_each(|&c| mix(c));
    extra.iter().for_each(|&c| mix(c));
    h
}

#[test]
fn kernel_bits_are_pinned_on_multi_plane_grids() {
    // Paper-density water on cell grids wide enough that a part's cells
    // reach only some of the box's x-planes: 4³ (4 slabs per cell), 5³
    // (2 slabs), 9³ (whole cells) and an anisotropic [9, 4, 5] grid. Both
    // lanes, at 1 and 2 threads. Recorded before the accumulation slabs
    // were windowed to the planes each part can reach: any offset error
    // in that window moves a pin.
    let cube = water_box(3000, 11);
    let slab = water_box_in(735, [4.4, 2.0, 2.5], 12);
    let cases = [
        (
            &cube,
            1.1,
            [4, 4, 4],
            [0x4f7e_33ed_aa65_7b0a, 0x18ef_251f_27ec_9896],
        ),
        (
            &cube,
            0.88,
            [5, 5, 5],
            [0x7611_7c9b_89dd_acfc, 0x85bc_04d0_6f23_cd3c],
        ),
        (
            &cube,
            0.49,
            [9, 9, 9],
            [0xa886_0edb_da44_ceee, 0x63cc_5d13_8d5a_b97f],
        ),
        (
            &slab,
            0.48,
            [9, 4, 5],
            [0x80c1_8ef8_ddcd_e72f, 0x0cf2_d41e_bad5_4b2e],
        ),
    ];
    for (md, r_cut, dims, [coulomb_pin, lj_pin]) in cases {
        let sys = md.coulomb_system();
        let lj: Vec<LjAtom> = md
            .lj
            .iter()
            .map(|p| LjAtom::new(p.sigma, p.epsilon))
            .collect();
        assert_eq!(CellGrid::plan(sys.box_l, r_cut).unwrap().dims(), dims);
        let table = PairKernelTable::new(2.2, r_cut);
        for threads in [1usize, 2] {
            let pool = Pool::new(threads);
            let mut scratch = CellScratch::new();
            let mut out = CoulombResult::default();
            short_range_cells_into(&sys, &table, r_cut, &pool, &mut scratch, &mut out);
            let coulomb = output_hash(&out, &[]);
            let e_lj =
                short_range_lj_cells_into(&sys, &lj, &table, r_cut, &pool, &mut scratch, &mut out);
            let both = output_hash(&out, &[e_lj]);
            assert_eq!(
                coulomb, coulomb_pin,
                "{dims:?} Coulomb-only, {threads} threads"
            );
            assert_eq!(both, lj_pin, "{dims:?} LJ lane, {threads} threads");
        }
    }
}
