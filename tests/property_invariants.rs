//! Randomised property tests on the core data structures and mathematical
//! invariants of the TME stack.
//!
//! Formerly a `proptest` suite; now driven by the in-tree deterministic
//! [`SplitMix64`] generator so the workspace builds with zero external
//! dependencies and every failure is reproducible from the printed case
//! seed alone (no shrink files, no OS entropy).

use std::sync::Arc;

use mdgrape4a_tme::mesh::assign::{Interpolated, TransferBins};
use mdgrape4a_tme::mesh::bspline::{BSpline, SplineWeights};
use mdgrape4a_tme::mesh::{CoulombSystem, Grid3, SplineOps};
use mdgrape4a_tme::num::fft::Fft;
use mdgrape4a_tme::num::fixed::Fix32;
use mdgrape4a_tme::num::isa::Isa;
use mdgrape4a_tme::num::pool::Pool;
use mdgrape4a_tme::num::quadrature::GaussLegendre;
use mdgrape4a_tme::num::rng::SplitMix64;
use mdgrape4a_tme::num::special::{erf, erfc};
use mdgrape4a_tme::num::vec3;
use mdgrape4a_tme::num::Complex64;
use mdgrape4a_tme::tme::convolve::{convolve_axis, convolve_axis_naive};
use mdgrape4a_tme::tme::kernel::Kernel1D;
use mdgrape4a_tme::tme::levels::LevelTransfer;
use mdgrape4a_tme::tme::{Tme, TmeConfigError, TmeParams, TmeWorkspace};

const CASES: u64 = 64;

/// Run `body` for `CASES` independently seeded generators, printing the
/// failing case index before re-raising any panic.
fn for_cases(name: &str, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0xD1CE_5EED ^ (case << 8) ^ case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("property `{name}` failed at case {case}");
            std::panic::resume_unwind(e);
        }
    }
}

/// erf/erfc complement and range for arbitrary finite inputs.
#[test]
fn erf_complement_and_bounds() {
    for_cases("erf_complement_and_bounds", |rng| {
        let x = rng.gen_range(-30.0..30.0);
        let e = erf(x);
        let c = erfc(x);
        assert!((-1.0..=1.0).contains(&e));
        assert!((0.0..=2.0).contains(&c));
        assert!((e + c - 1.0).abs() < 1e-14, "x = {x}");
    });
}

/// FFT round trip restores arbitrary signals.
#[test]
fn fft_roundtrip() {
    for_cases("fft_roundtrip", |rng| {
        let n = 1usize << (1 + rng.gen_index(7));
        let x: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
            .collect();
        let plan = Fft::new(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-11, "n = {n}");
        }
    });
}

/// B-spline partition of unity at arbitrary particle positions.
#[test]
fn spline_partition_of_unity() {
    for_cases("spline_partition_of_unity", |rng| {
        let u = rng.gen_range(-100.0..100.0);
        let p = [4usize, 6, 8][rng.gen_index(3)];
        let (_, w, dw) = BSpline::new(p).weights(u);
        let s: f64 = w.iter().sum();
        let ds: f64 = dw.iter().sum();
        assert!((s - 1.0).abs() < 1e-12, "u = {u}, p = {p}");
        assert!(ds.abs() < 1e-12, "u = {u}, p = {p}");
    });
}

/// The 4-lane weight evaluation is four scalar `weights_into` calls, bit
/// for bit, at any order and coordinate (integers and their neighbours
/// included).
#[test]
fn four_lane_weights_are_scalar_bits() {
    for_cases("four_lane_weights_are_scalar_bits", |rng| {
        let p = 2 * (1 + rng.gen_index(6));
        let sp = BSpline::new(p);
        let u: [f64; 4] = std::array::from_fn(|l| {
            let x = rng.gen_range(-100.0..100.0);
            match l {
                0 => x.round(),
                1 => x.round().next_down(),
                _ => x,
            }
        });
        let mut four = [SplineWeights::default(); 4];
        sp.weights_into4(u, &mut four);
        for (got, &ul) in four.iter().zip(&u) {
            let mut want = SplineWeights::default();
            sp.weights_into(ul, &mut want);
            assert_eq!(got.m0(), want.m0(), "u = {ul}, p = {p}");
            for (a, b) in got
                .w()
                .iter()
                .chain(got.dw())
                .zip(want.w().iter().chain(want.dw()))
            {
                assert_eq!(a.to_bits(), b.to_bits(), "u = {ul}, p = {p}");
            }
        }
    });
}

/// Charge assignment conserves total charge for arbitrary charges and
/// positions (inside or outside the box).
#[test]
fn assignment_conserves_charge() {
    for_cases("assignment_conserves_charge", |rng| {
        let n = 1 + rng.gen_index(10);
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                ]
            })
            .collect();
        let q: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let ops = SplineOps::new(6, [8, 8, 8], [4.0, 4.0, 4.0]);
        let grid = ops.assign(&pos, &q);
        let total: f64 = q.iter().sum();
        assert!(
            (grid.sum() - total).abs() < 1e-9 * (1.0 + total.abs()),
            "n = {n}"
        );
    });
}

/// Spatially binned charge assignment (the TME's step 1) against the
/// serial oracle on random orders, grids (down to one part whose slab laps
/// the grid), boxes and atom counts: within 1e-14 · max|Q|, the same bits
/// inline and dispatched, and bin-ordered interpolation bitwise equal to
/// `interpolate_into`.
#[test]
fn binned_assignment_matches_serial_oracle() {
    let pools = [Pool::new(1), Pool::new(2)];
    for_cases("binned_assignment_matches_serial_oracle", |rng| {
        let p = 2 * (1 + rng.gen_index(6));
        let n = [
            p + rng.gen_index(3 * p),
            p + rng.gen_index(9),
            p + rng.gen_index(9),
        ];
        let box_l = [
            rng.gen_range(0.5..4.0),
            rng.gen_range(0.5..4.0),
            rng.gen_range(0.5..4.0),
        ];
        let atoms = rng.gen_index(1100);
        let pos: Vec<[f64; 3]> = (0..atoms)
            .map(|_| std::array::from_fn(|a| rng.gen_range(-box_l[a]..2.0 * box_l[a])))
            .collect();
        let q: Vec<f64> = (0..atoms).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ops = SplineOps::new(p, n, box_l);
        let want = ops.assign(&pos, &q);
        let scale = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut phi = Grid3::zeros(n);
        for v in phi.as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let mut first: Option<Vec<u64>> = None;
        for pool in &pools {
            let mut bins = TransferBins::new(&ops);
            let mut grid = Grid3::zeros(n);
            ops.assign_binned_into(&pos, &q, pool, &mut bins, &mut grid);
            for (a, b) in grid.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (a - b).abs() <= 1e-14 * scale,
                    "p = {p}, n = {n:?}: {a} vs {b}"
                );
            }
            let got: Vec<u64> = grid.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                *first.get_or_insert_with(|| got.clone()),
                got,
                "p = {p}, n = {n:?}"
            );
            let (mut a, mut b) = (Interpolated::default(), Interpolated::default());
            ops.interpolate_into(&phi, &pos, &q, pool, &mut a);
            ops.interpolate_binned_into(&phi, &pos, &q, pool, Isa::detect(), &bins, &mut b);
            for (x, y) in a.potential.iter().zip(&b.potential) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.force.iter().flatten().zip(b.force.iter().flatten()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    });
}

/// Restriction/prolongation adjointness for random grids.
#[test]
fn transfer_adjointness() {
    for_cases("transfer_adjointness", |rng| {
        let mut a = Grid3::zeros([8, 8, 8]);
        for v in a.as_mut_slice() {
            *v = rng.gen_range(-0.5..0.5);
        }
        let mut b = Grid3::zeros([4, 4, 4]);
        for v in b.as_mut_slice() {
            *v = rng.gen_range(-0.5..0.5);
        }
        let t = LevelTransfer::new(6);
        let lhs = t.restrict(&a).dot(&b);
        let rhs = a.dot(&t.prolong(&b));
        assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()));
    });
}

/// Fixed-point round trip bounded by half an ULP; ordering preserved.
#[test]
fn fixed_point_quantisation() {
    for_cases("fixed_point_quantisation", |rng| {
        let x = rng.gen_range(-60.0..60.0);
        let y = rng.gen_range(-60.0..60.0);
        let fx = Fix32::<24>::from_f64(x);
        let fy = Fix32::<24>::from_f64(y);
        assert!(
            (fx.to_f64() - x).abs() <= 0.5 * Fix32::<24>::EPSILON,
            "x = {x}"
        );
        if x + Fix32::<24>::EPSILON < y {
            assert!(fx < fy, "x = {x}, y = {y}");
        }
    });
}

/// Minimum image is idempotent and within the half-box.
#[test]
fn min_image_bounds() {
    for_cases("min_image_bounds", |rng| {
        let l = [3.0, 4.0, 5.0];
        let a = [
            rng.gen_range(-20.0..20.0),
            rng.gen_range(-20.0..20.0),
            rng.gen_range(-20.0..20.0),
        ];
        let b = [
            rng.gen_range(-20.0..20.0),
            rng.gen_range(-20.0..20.0),
            rng.gen_range(-20.0..20.0),
        ];
        let d = vec3::min_image(a, b, l);
        for j in 0..3 {
            assert!(d[j].abs() <= l[j] / 2.0 + 1e-9, "a = {a:?}, b = {b:?}");
        }
    });
}

/// Grid periodic indexing: get after set through any alias.
#[test]
fn grid_periodic_aliasing() {
    for_cases("grid_periodic_aliasing", |rng| {
        let x = rng.gen_index(100) as i64 - 50;
        let y = rng.gen_index(100) as i64 - 50;
        let z = rng.gen_index(100) as i64 - 50;
        let mut g = Grid3::zeros([4, 8, 16]);
        g.set([x, y, z], 2.5);
        assert_eq!(g.get([x + 4, y - 8, z + 32]), 2.5, "({x}, {y}, {z})");
    });
}

/// The row-pass axis convolution equals the naive reference, bit for bit,
/// for arbitrary kernels, grids and axes (the GCU's functional model).
#[test]
fn axis_convolution_equivalence() {
    for_cases("axis_convolution_equivalence", |rng| {
        let gc = 1 + rng.gen_index(4);
        let axis = rng.gen_index(3);
        let taps: Vec<f64> = (0..2 * gc + 1).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let kernel = Kernel1D::from_vals(gc, taps);
        let mut g = Grid3::zeros([8, 12, 16]);
        for v in g.as_mut_slice() {
            *v = rng.gen_range(-0.5..0.5);
        }
        let fast = convolve_axis(&g, &kernel, axis);
        let slow = convolve_axis_naive(&g, &kernel, axis);
        for ((_, a), (_, b)) in fast.iter().zip(slow.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "gc = {gc}, axis = {axis}");
        }
    });
}

/// Axis convolution is linear: K⊛(a·X + Y) = a·(K⊛X) + K⊛Y.
#[test]
fn convolution_linearity() {
    for_cases("convolution_linearity", |rng| {
        let scale = rng.gen_range(-3.0..3.0);
        let kernel = Kernel1D::from_vals(2, (0..5).map(|_| rng.gen_range(-0.5..0.5)).collect());
        let mut x = Grid3::zeros([8, 8, 8]);
        let mut y = Grid3::zeros([8, 8, 8]);
        for v in x.as_mut_slice() {
            *v = rng.gen_range(-0.5..0.5);
        }
        for v in y.as_mut_slice() {
            *v = rng.gen_range(-0.5..0.5);
        }
        let mut combo = x.clone();
        combo.scale(scale);
        combo.accumulate(&y);
        let lhs = convolve_axis(&combo, &kernel, 1);
        let mut rhs = convolve_axis(&x, &kernel, 1);
        rhs.scale(scale);
        rhs.accumulate(&convolve_axis(&y, &kernel, 1));
        for ((_, a), (_, b)) in lhs.iter().zip(rhs.iter()) {
            assert!((a - b).abs() < 1e-11, "scale = {scale}");
        }
    });
}

/// Gauss–Legendre rules integrate arbitrary polynomials of degree ≤ 2n−1
/// exactly.
#[test]
fn quadrature_exactness() {
    for_cases("quadrature_exactness", |rng| {
        let n = 1 + rng.gen_index(11);
        let c0 = rng.gen_range(-2.0..2.0);
        let c1 = rng.gen_range(-2.0..2.0);
        let c2 = rng.gen_range(-2.0..2.0);
        let deg = (2 * n - 1) as i32;
        let q = GaussLegendre::new(n);
        // f(x) = c0 + c1·x^(deg−1) + c2·x^deg
        let f = |x: f64| c0 + c1 * x.powi(deg - 1) + c2 * x.powi(deg);
        let got = q.integrate(f);
        let exact_term = |k: i32, c: f64| {
            if k % 2 == 1 {
                0.0
            } else {
                2.0 * c / (f64::from(k) + 1.0)
            }
        };
        let want = exact_term(0, c0) + exact_term(deg - 1, c1) + exact_term(deg, c2);
        assert!((got - want).abs() < 1e-11 * (1.0 + want.abs()), "n = {n}");
    });
}

/// Water boxes are rigid TIP3P for any seed/size.
#[test]
fn water_box_always_rigid() {
    use mdgrape4a_tme::md::units::tip3p;
    use mdgrape4a_tme::md::water::water_box;
    for_cases("water_box_always_rigid", |rng| {
        let n = 1 + rng.gen_index(39);
        let seed = rng.next_u64() % 500;
        let sys = water_box(n, seed);
        for w in &sys.waters {
            let a = sys.pos[w.o];
            let b = sys.pos[w.h1];
            let d = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
            assert!((d - tip3p::R_OH).abs() < 1e-9, "n = {n}, seed = {seed}");
        }
    });
}

/// 200 atoms (100 exactly-cancelling ion pairs) at random positions.
fn random_neutral_system(rng: &mut SplitMix64, box_l: f64) -> CoulombSystem {
    let n = 200;
    let pos = (0..n)
        .map(|_| {
            [
                rng.uniform() * box_l,
                rng.uniform() * box_l,
                rng.uniform() * box_l,
            ]
        })
        .collect();
    let q = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    CoulombSystem::new(pos, q, [box_l; 3])
}

fn paper_like_tme(box_l: f64) -> Tme {
    Tme::new(
        TmeParams {
            n: [16; 3],
            p: 6,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            alpha: 2.0,
            r_cut: 1.2,
        },
        [box_l; 3],
    )
}

/// The deterministic-reduction contract: `Tme::compute_with` is bitwise
/// identical at every thread count (fixed part boundaries + ordered merge),
/// so `TME_THREADS` is a pure performance knob.
#[test]
fn compute_with_is_bitwise_identical_across_thread_counts() {
    let tme = paper_like_tme(4.0);
    let mut rng = SplitMix64::seed_from_u64(0xD1CE_5EED);
    let system = random_neutral_system(&mut rng, 4.0);
    let mut ws1 = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(1)));
    let serial = tme.compute_with(&mut ws1, &system).clone();
    for threads in [2usize, 4] {
        let mut wst = TmeWorkspace::with_pool(&tme, Arc::new(Pool::new(threads)));
        let parallel = tme.compute_with(&mut wst, &system);
        assert_eq!(
            serial.energy.to_bits(),
            parallel.energy.to_bits(),
            "energy bits at {threads} threads"
        );
        for (i, (a, b)) in serial.forces.iter().zip(&parallel.forces).enumerate() {
            for axis in 0..3 {
                assert_eq!(
                    a[axis].to_bits(),
                    b[axis].to_bits(),
                    "force bits atom {i} axis {axis} at {threads} threads"
                );
            }
        }
        for (i, (a, b)) in serial
            .potentials
            .iter()
            .zip(&parallel.potentials)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "potential bits atom {i}");
        }
    }
}

/// The allocating wrappers are thin shells over the workspace path: same
/// bits, call after call (the reused workspace carries no state across
/// calls that could change results).
#[test]
fn allocating_wrapper_matches_workspace_path_bitwise() {
    let tme = paper_like_tme(4.0);
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0200);
    let system = random_neutral_system(&mut rng, 4.0);
    let wrapper = tme.compute(&system);
    let mut ws = tme.make_workspace();
    for round in 0..3 {
        let with = tme.compute_with(&mut ws, &system);
        assert_eq!(
            wrapper.energy.to_bits(),
            with.energy.to_bits(),
            "energy bits round {round}"
        );
        for (i, (a, b)) in wrapper.forces.iter().zip(&with.forces).enumerate() {
            for axis in 0..3 {
                assert_eq!(a[axis].to_bits(), b[axis].to_bits(), "atom {i} axis {axis}");
            }
        }
    }
}

/// `Tme::try_new` reports every misconfiguration the panicking front-end
/// would abort on, as typed [`TmeConfigError`] values.
#[test]
fn try_new_reports_typed_config_errors() {
    let good = TmeParams {
        n: [16; 3],
        p: 6,
        levels: 1,
        gc: 8,
        m_gaussians: 4,
        alpha: 2.0,
        r_cut: 1.2,
    };
    assert!(Tme::try_new(good, [4.0; 3]).is_ok());

    let mut no_levels = good;
    no_levels.levels = 0;
    assert_eq!(
        Tme::try_new(no_levels, [4.0; 3]).unwrap_err(),
        TmeConfigError::NoLevels
    );

    let mut no_gaussians = good;
    no_gaussians.m_gaussians = 0;
    assert_eq!(
        Tme::try_new(no_gaussians, [4.0; 3]).unwrap_err(),
        TmeConfigError::NoGaussians
    );

    let mut indivisible = good;
    indivisible.n = [18; 3];
    indivisible.levels = 2; // 18 divides by 2 but not by 2^2
    assert_eq!(
        Tme::try_new(indivisible, [4.0; 3]).unwrap_err(),
        TmeConfigError::IndivisibleGrid {
            n: [18; 3],
            scale: 4
        }
    );

    let mut tiny_top = good;
    tiny_top.levels = 2; // 16 >> 2 = 4 < p = 6
    assert_eq!(
        Tme::try_new(tiny_top, [4.0; 3]).unwrap_err(),
        TmeConfigError::TopGridTooSmall {
            n_top: [4; 3],
            p: 6
        }
    );
    // Every error Displays a non-empty diagnostic.
    for e in [
        TmeConfigError::NoLevels,
        TmeConfigError::NoGaussians,
        TmeConfigError::IndivisibleGrid {
            n: [18; 3],
            scale: 2,
        },
        TmeConfigError::TopGridTooSmall {
            n_top: [4; 3],
            p: 6,
        },
    ] {
        assert!(!e.to_string().is_empty());
    }
}
