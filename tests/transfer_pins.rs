//! Literal bit pins of the serial particle↔mesh transfers and of the SPME
//! paths built on them: an FNV-1a hash over every output bit, recorded
//! before the transfers moved to the batched 4-lane weight evaluation.
//! A single changed bit of a weight, or a changed summation order, on
//! these paths moves a hash. A last pin holds the TME's two-level grid
//! cascade end to end at a size where its passes are dispatched.

use std::sync::Arc;

use mdgrape4a_tme::md::water::water_box;
use mdgrape4a_tme::mesh::assign::Interpolated;
use mdgrape4a_tme::mesh::model::{CoulombResult, CoulombSystem};
use mdgrape4a_tme::mesh::{Grid3, PswfWindow, SplineOps};
use mdgrape4a_tme::num::pool::Pool;
use mdgrape4a_tme::num::rng::SplitMix64;
use mdgrape4a_tme::num::vec3::V3;
use mdgrape4a_tme::reference::ewald::EwaldParams;
use mdgrape4a_tme::reference::spme::Spme;
use mdgrape4a_tme::tme::{alpha_from_rtol, Tme, TmeParams, TmeWorkspace};

const BOX: V3 = [4.0, 3.6, 4.4];
const DIMS: [usize; 3] = [16, 16, 16];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: f64) {
        self.0 = (self.0 ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// 300 atoms, some outside the box on every side, charges of both signs.
fn atoms() -> (Vec<V3>, Vec<f64>) {
    let mut rng = SplitMix64::seed_from_u64(0x7A25_F3E5);
    let pos = (0..300)
        .map(|_| {
            [
                rng.gen_range(-0.5..BOX[0] + 0.5),
                rng.gen_range(-0.5..BOX[1] + 0.5),
                rng.gen_range(-0.5..BOX[2] + 0.5),
            ]
        })
        .collect();
    let q = (0..300).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (pos, q)
}

fn potential_grid() -> Grid3 {
    let mut phi = Grid3::zeros(DIMS);
    for (i, v) in phi.as_mut_slice().iter_mut().enumerate() {
        *v = (i as f64 * 0.37).sin() + 0.25 * (i as f64 * 0.011).cos();
    }
    phi
}

/// Hashes of the assigned grid and of the interpolated potentials and
/// forces (interpolation on 1 and 2 threads must agree).
fn transfer_hashes(ops: &SplineOps) -> (u64, u64) {
    let (pos, q) = atoms();
    let grid = ops.assign(&pos, &q);
    let mut g = Fnv::new();
    grid.as_slice().iter().for_each(|&v| g.mix(v));
    let phi = potential_grid();
    let mut hashes = Vec::new();
    for threads in [1, 2] {
        let mut out = Interpolated::default();
        ops.interpolate_into(&phi, &pos, &q, &Pool::new(threads), &mut out);
        let mut h = Fnv::new();
        out.potential.iter().for_each(|&v| h.mix(v));
        out.force.iter().flatten().for_each(|&v| h.mix(v));
        hashes.push(h.0);
    }
    assert_eq!(
        hashes[0], hashes[1],
        "interpolation depends on the thread count"
    );
    (g.0, hashes[0])
}

#[test]
fn bspline_transfer_bits_are_pinned() {
    let want = [
        (4, 0x7272_7720_e42d_83b5, 0xa5c3_27a5_690e_10df),
        (6, 0xb991_c08c_1b01_1c03, 0xd6bb_7870_0ba5_500c),
        (8, 0xcb68_5d16_efc1_8918, 0x3c95_dc81_570c_0fe6),
    ];
    for (p, assign, interp) in want {
        let got = transfer_hashes(&SplineOps::new(p, DIMS, BOX));
        assert_eq!(
            got,
            (assign, interp),
            "p = {p}: {:#018x}, {:#018x}",
            got.0,
            got.1
        );
    }
}

#[test]
fn pswf_transfer_bits_are_pinned() {
    let ops = SplineOps::with_window(DIMS, BOX, PswfWindow::for_order(6));
    let got = transfer_hashes(&ops);
    assert_eq!(
        got,
        (0x110b_5b78_4572_78f4, 0x203c_1e92_ac88_c2c1),
        "{:#018x}, {:#018x}",
        got.0,
        got.1
    );
}

fn spme_hash(spme: &Spme) -> u64 {
    let sys = water_box(64, 7).coulomb_system();
    let mut ws = spme.make_scratch(Arc::new(Pool::new(2)));
    let mut out = CoulombResult::default();
    spme.compute_into(&sys, &mut ws, &mut out);
    let mut h = Fnv::new();
    h.mix(out.energy);
    out.forces.iter().flatten().for_each(|&v| h.mix(v));
    h.0
}

#[test]
fn spme_bits_are_pinned() {
    let sys = water_box(64, 7).coulomb_system();
    let r_cut = 0.55;
    let alpha = EwaldParams::alpha_from_tolerance(r_cut, 1e-5);
    let plain = spme_hash(&Spme::new([16; 3], sys.box_l, alpha, 6, r_cut));
    let pswf = spme_hash(&Spme::with_pswf(
        [16; 3],
        sys.box_l,
        alpha,
        r_cut,
        PswfWindow::for_order(6),
    ));
    assert_eq!(
        (plain, pswf),
        (0x02ae_4426_64bd_f19e, 0x2a1d_cf32_a4ed_c6d7),
        "{plain:#018x}, {pswf:#018x}"
    );
}

/// `Tme::compute_with` on a 64³, L = 2 plan (p 6, g_c 8, M 3): the 64³
/// level's convolution and transfers are large enough to run on the pool,
/// the 32³ level sits near the dispatch thresholds and the top is 16³.
/// 400 ±1 charges keep the short-range part small. The hash covers the
/// energy, every force and every potential, at 1, 2 and 4 threads.
#[test]
fn cascade_bits_are_pinned() {
    let edge = 16.0;
    let r_cut = 1.2;
    let params = TmeParams {
        n: [64; 3],
        p: 6,
        levels: 2,
        gc: 8,
        m_gaussians: 3,
        alpha: alpha_from_rtol(r_cut, 1e-4),
        r_cut,
    };
    let tme = Tme::new(params, [edge; 3]);
    let mut rng = SplitMix64::seed_from_u64(0xCA5C_ADE5);
    let pos = (0..400)
        .map(|_| std::array::from_fn(|_| rng.gen_range(0.0..edge)))
        .collect();
    let q = (0..400)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let sys = CoulombSystem::new(pos, q, [edge; 3]);
    for threads in [1, 2, 4] {
        let mut ws = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(threads)));
        let out = tme.compute_with(&mut ws, &sys);
        let mut h = Fnv::new();
        h.mix(out.energy);
        out.forces.iter().flatten().for_each(|&v| h.mix(v));
        out.potentials.iter().for_each(|&v| h.mix(v));
        assert_eq!(
            h.0, 0x36b1_7256_f829_23db,
            "{threads} threads: {:#018x}",
            h.0
        );
    }
}
