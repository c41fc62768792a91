//! Classical Ewald summation — the double-precision *reference* method.
//!
//! The paper (§III.B) computes Table 1 reference forces with "the Ewald
//! method with r_c = L_x/2 ... and conducted the lattice summation in the
//! reciprocal space (k = 2πn/L) for |n| ≤ n_c", choosing α and n_c so the
//! theoretical force-error factors `e^{−α²r_c²}` (real space) and
//! `e^{−(πn_c/(αL_x))²}` (reciprocal space, Kolafa & Perram) are below
//! 1e-15. [`EwaldParams::reference_quality`] reproduces exactly that
//! parameter choice.
//!
//! Total: `E = E_real(erfc pairs) + E_recip(lattice sum) + E_self`.

use crate::pairwise;
use std::sync::Arc;
use tme_mesh::model::{CoulombResult, CoulombSystem};
use tme_mesh::pairwise::PairwiseScratch;
use tme_num::bytes::{ByteReader, Codec, CodecError, Sink};
use tme_num::pool::Pool;
use tme_num::vec3::V3;
use tme_num::Complex64;

/// Parameters of a direct Ewald summation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EwaldParams {
    /// Ewald splitting parameter α (nm⁻¹).
    pub alpha: f64,
    /// Real-space cutoff (nm), ≤ min(L)/2.
    pub r_cut: f64,
    /// Reciprocal-space cutoff: include integer vectors with |n| ≤ n_cut.
    pub n_cut: i64,
}

impl EwaldParams {
    /// The paper's reference-quality parameters for a cubic-ish box:
    /// `r_c = min(L)/2`, with α and n_c chosen so both Kolafa–Perram force
    /// error factors fall below `tol` (the paper uses `tol = 1e-15`).
    pub fn reference_quality(box_l: V3, tol: f64) -> Self {
        let lmin = box_l.iter().cloned().fold(f64::INFINITY, f64::min);
        let r_cut = lmin / 2.0;
        // Real space: e^{−α²r_c²} < tol ⇒ α r_c > sqrt(ln 1/tol).
        let alpha = (-tol.ln()).sqrt() / r_cut;
        // Reciprocal: e^{−(πn_c/(αL_max))²} < tol per axis; use the largest
        // edge so every axis satisfies the bound.
        let lmax = box_l.iter().cloned().fold(0.0, f64::max);
        let n_cut = ((-tol.ln()).sqrt() * alpha * lmax / std::f64::consts::PI).ceil() as i64;
        Self {
            alpha,
            r_cut,
            n_cut,
        }
    }
}

/// The wire and fingerprint layout: the fields in declaration order.
impl Codec for EwaldParams {
    fn encode<S: Sink>(&self, s: &mut S) {
        self.alpha.encode(s);
        self.r_cut.encode(s);
        self.n_cut.encode(s);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            alpha: r.decode()?,
            r_cut: r.decode()?,
            n_cut: r.decode()?,
        })
    }
}

/// Direct Ewald solver.
#[derive(Clone, Debug)]
pub struct Ewald {
    pub params: EwaldParams,
}

/// Reusable buffers for [`Ewald::compute_into`] — the per-axis phase
/// tables, the per-mode `e^{ik·r}` column, the short-range partition
/// accumulators and the reciprocal sub-result. Allocation-free once warm,
/// which lets the reference solver honour the backend workspace contract
/// (DESIGN.md §14) exactly like the mesh methods.
#[derive(Debug)]
pub struct EwaldScratch {
    pool: Arc<Pool>,
    /// `phases[axis][atom·(n_cut+1) + m] = e^{2πi m x/L}`, `m = 0..=n_cut`.
    phases: [Vec<Complex64>; 3],
    /// Per-mode `e^{ik·r_j}` column reused across k-vectors.
    eikr: Vec<Complex64>,
    pair: PairwiseScratch,
    recip: CoulombResult,
}

impl Ewald {
    pub fn new(params: EwaldParams) -> Self {
        Self { params }
    }

    /// Full Coulomb energy/forces/potentials (reduced units).
    pub fn compute(&self, system: &CoulombSystem) -> CoulombResult {
        let mut out = pairwise::short_range(system, self.params.alpha, self.params.r_cut);
        out.accumulate(&self.reciprocal(system));
        out.accumulate(&pairwise::self_term(system, self.params.alpha));
        out
    }

    /// Build the reusable buffers for [`Ewald::compute_into`].
    pub fn make_scratch(&self, pool: Arc<Pool>) -> EwaldScratch {
        EwaldScratch {
            pool,
            phases: [Vec::new(), Vec::new(), Vec::new()],
            eikr: Vec::new(),
            pair: PairwiseScratch::new(),
            recip: CoulombResult::default(),
        }
    }

    /// [`Ewald::compute`] through reused buffers — `out` is reset, not
    /// accumulated. Bitwise identical to [`Ewald::compute`]: the pair sum
    /// uses the same fixed-partition reduction and the lattice sum is
    /// serial, so the thread count never enters the arithmetic. Both stay
    /// on the exact-`erfc` O(N²) loop on purpose: this is the oracle the
    /// cell kernel and its table are measured against.
    pub fn compute_into(
        &self,
        system: &CoulombSystem,
        ws: &mut EwaldScratch,
        out: &mut CoulombResult,
    ) {
        self.reciprocal_scratch(system, ws);
        let pool = Arc::clone(&ws.pool);
        pairwise::short_range_into(
            system,
            self.params.alpha,
            self.params.r_cut,
            &pool,
            &mut ws.pair,
            out,
        );
        out.accumulate(&ws.recip);
        pairwise::self_term_into(system, self.params.alpha, out);
    }

    /// [`Ewald::reciprocal`] through reused buffers — `out` is reset.
    pub fn reciprocal_into(
        &self,
        system: &CoulombSystem,
        ws: &mut EwaldScratch,
        out: &mut CoulombResult,
    ) {
        self.reciprocal_scratch(system, ws);
        out.copy_from(&ws.recip);
    }

    /// Reciprocal-space lattice sum over `0 < |n| ≤ n_cut`.
    ///
    /// Per-axis phase factors `e^{2πi n x/L}` are built once by recurrence,
    /// then each k-vector costs O(N) for the structure factor and O(N) for
    /// the force back-substitution. Only a half space of k-vectors is
    /// visited (S(−k) = S̄(k) for real charges).
    pub fn reciprocal(&self, system: &CoulombSystem) -> CoulombResult {
        let mut ws = self.make_scratch(Arc::clone(Pool::global()));
        self.reciprocal_scratch(system, &mut ws);
        ws.recip
    }

    /// Shared lattice-sum core writing into `ws.recip`.
    #[allow(clippy::needless_range_loop)] // j indexes three parallel arrays
    fn reciprocal_scratch(&self, system: &CoulombSystem, ws: &mut EwaldScratch) {
        let n = system.len();
        let nc = self.params.n_cut;
        let alpha = self.params.alpha;
        let vol = system.volume();
        let two_pi = 2.0 * std::f64::consts::PI;
        ws.recip.reset(n);
        let out = &mut ws.recip;

        // phases[axis][atom][m] = e^{2πi m x/L}, m = 0..=nc.
        for (axis, store) in ws.phases.iter_mut().enumerate() {
            store.clear();
            store.resize(n * (nc as usize + 1), Complex64::ONE);
            for (i, r) in system.pos.iter().enumerate() {
                let base = Complex64::cis(two_pi * r[axis] / system.box_l[axis]);
                let row = &mut store[i * (nc as usize + 1)..(i + 1) * (nc as usize + 1)];
                row[0] = Complex64::ONE;
                for m in 1..=nc as usize {
                    row[m] = row[m - 1] * base;
                }
            }
        }
        let phases = &ws.phases;
        let phase = |axis: usize, atom: usize, m: i64| -> Complex64 {
            let p = phases[axis][atom * (nc as usize + 1) + m.unsigned_abs() as usize];
            if m >= 0 {
                p
            } else {
                p.conj()
            }
        };

        let nc2 = nc * nc;
        ws.eikr.clear();
        ws.eikr.resize(n, Complex64::ZERO);
        let eikr = &mut ws.eikr;
        for nx in 0..=nc {
            for ny in -nc..=nc {
                for nz in -nc..=nc {
                    // Half space: nx > 0, or (nx = 0 and ny > 0), or
                    // (nx = ny = 0 and nz > 0); each counted twice.
                    if nx == 0 && (ny < 0 || (ny == 0 && nz <= 0)) {
                        continue;
                    }
                    let n2 = nx * nx + ny * ny + nz * nz;
                    if n2 > nc2 {
                        continue;
                    }
                    let k = [
                        two_pi * nx as f64 / system.box_l[0],
                        two_pi * ny as f64 / system.box_l[1],
                        two_pi * nz as f64 / system.box_l[2],
                    ];
                    let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
                    let expo = -k2 / (4.0 * alpha * alpha);
                    if expo < -700.0 {
                        continue;
                    }
                    // Weight includes the ×2 half-space factor.
                    let w = 2.0 * (4.0 * std::f64::consts::PI / (vol * k2)) * expo.exp();
                    // Structure factor S(k) = Σ q_j e^{ik·r_j}.
                    let mut s = Complex64::ZERO;
                    for j in 0..n {
                        let e = phase(0, j, nx) * phase(1, j, ny) * phase(2, j, nz);
                        eikr[j] = e;
                        s += e.scale(system.q[j]);
                    }
                    let mode_energy = 0.5 * w * s.norm_sqr();
                    out.energy += mode_energy;
                    // Isotropic reciprocal virial: W_k = E_k (1 − k²/2α²)
                    // (from dE/dV under affine scaling, k ∝ V^{−1/3}).
                    out.virial += mode_energy * (1.0 - k2 / (2.0 * alpha * alpha));
                    // F_i = q_i w k Im[e^{ik·r_i} S̄(k)]; φ_i = w Re[e^{ik·r_i} S̄(k)].
                    let sbar = s.conj();
                    for j in 0..n {
                        let z = eikr[j] * sbar;
                        out.potentials[j] += w * z.re;
                        let f = system.q[j] * w * z.im;
                        out.forces[j][0] += f * k[0];
                        out.forces[j][1] += f * k[1];
                        out.forces[j][2] += f * k[2];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_neutral_system(n_pairs: usize, box_l: f64, seed: u64) -> CoulombSystem {
        // Simple deterministic LCG so the test needs no RNG dependency here.
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pos = Vec::new();
        let mut q = Vec::new();
        for _ in 0..n_pairs {
            pos.push([next() * box_l, next() * box_l, next() * box_l]);
            q.push(1.0);
            pos.push([next() * box_l, next() * box_l, next() * box_l]);
            q.push(-1.0);
        }
        CoulombSystem::new(pos, q, [box_l; 3])
    }

    #[test]
    fn nacl_madelung_constant() {
        // Rock-salt unit cell, lattice constant 1, nearest-neighbour d = ½:
        // E_cell = −4·M/d with M = 1.747564594633… (Madelung constant).
        let pos = vec![
            [0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.0],
            [0.0, 0.5, 0.0],
            [0.0, 0.0, 0.5],
            [0.5, 0.5, 0.5],
        ];
        let q = vec![1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0];
        let sys = CoulombSystem::new(pos, q, [1.0; 3]);
        let ew = Ewald::new(EwaldParams::reference_quality([1.0; 3], 1e-12));
        let res = ew.compute(&sys);
        let madelung = 1.747_564_594_633_182_2;
        let want = -8.0 * madelung / (2.0 * 0.5);
        assert!(
            (res.energy - want).abs() < 1e-9,
            "E = {}, want {want}",
            res.energy
        );
        // By symmetry every force vanishes.
        for f in &res.forces {
            assert!(f.iter().all(|c| c.abs() < 1e-9), "{f:?}");
        }
    }

    #[test]
    fn energy_independent_of_alpha() {
        let sys = random_neutral_system(8, 2.0, 42);
        let e1 = Ewald::new(EwaldParams {
            alpha: 6.0,
            r_cut: 1.0,
            n_cut: 16,
        })
        .compute(&sys);
        let e2 = Ewald::new(EwaldParams {
            alpha: 8.0,
            r_cut: 1.0,
            n_cut: 22,
        })
        .compute(&sys);
        assert!(
            (e1.energy - e2.energy).abs() < 1e-8 * e1.energy.abs().max(1.0),
            "{} vs {}",
            e1.energy,
            e2.energy
        );
        for (f1, f2) in e1.forces.iter().zip(&e2.forces) {
            for a in 0..3 {
                assert!((f1[a] - f2[a]).abs() < 1e-7, "{f1:?} vs {f2:?}");
            }
        }
    }

    #[test]
    fn forces_are_minus_energy_gradient() {
        let mut sys = random_neutral_system(4, 2.0, 7);
        let ew = Ewald::new(EwaldParams {
            alpha: 5.0,
            r_cut: 1.0,
            n_cut: 14,
        });
        let res = ew.compute(&sys);
        let h = 1e-5;
        for atom in [0usize, 3] {
            for axis in 0..3 {
                let orig = sys.pos[atom][axis];
                sys.pos[atom][axis] = orig + h;
                let ep = ew.compute(&sys).energy;
                sys.pos[atom][axis] = orig - h;
                let em = ew.compute(&sys).energy;
                sys.pos[atom][axis] = orig;
                let want = -(ep - em) / (2.0 * h);
                assert!(
                    (res.forces[atom][axis] - want).abs() < 1e-5 * (1.0 + want.abs()),
                    "atom {atom} axis {axis}: {} vs {want}",
                    res.forces[atom][axis]
                );
            }
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let sys = random_neutral_system(10, 3.0, 99);
        let res = Ewald::new(EwaldParams {
            alpha: 4.0,
            r_cut: 1.5,
            n_cut: 12,
        })
        .compute(&sys);
        let mut total = [0.0f64; 3];
        for f in &res.forces {
            for a in 0..3 {
                total[a] += f[a];
            }
        }
        assert!(total.iter().all(|c| c.abs() < 1e-9), "{total:?}");
    }

    #[test]
    fn energy_is_half_sum_q_phi() {
        let sys = random_neutral_system(6, 2.5, 123);
        let res = Ewald::new(EwaldParams {
            alpha: 4.5,
            r_cut: 1.25,
            n_cut: 12,
        })
        .compute(&sys);
        let e2: f64 = 0.5
            * sys
                .q
                .iter()
                .zip(&res.potentials)
                .map(|(q, p)| q * p)
                .sum::<f64>();
        assert!(
            (res.energy - e2).abs() < 1e-10 * res.energy.abs().max(1.0),
            "{} vs {e2}",
            res.energy
        );
    }

    #[test]
    fn two_isolated_charges_approach_bare_coulomb() {
        // In a huge box with tight splitting, Ewald ≈ bare 1/r.
        let sys = CoulombSystem::new(
            vec![[10.0, 10.0, 10.0], [10.9, 10.0, 10.0]],
            vec![1.0, -1.0],
            [20.0; 3],
        );
        // α small enough that n_cut = 20 fully converges the lattice sum
        // (e^{−(πn_c/(αL))²} ≈ 1e−12).
        let ew = Ewald::new(EwaldParams {
            alpha: 0.6,
            r_cut: 9.0,
            n_cut: 20,
        });
        let res = ew.compute(&sys);
        // Periodic images of a ±1 dipole 0.9 nm apart in a 20 nm box shift
        // the energy only at the ~1e-4 level.
        assert!((res.energy + 1.0 / 0.9).abs() < 5e-4, "E = {}", res.energy);
        // Attraction pulls atom 0 toward atom 1 (+x): F ≈ +1/r².
        assert!((res.forces[0][0] - 1.0 / (0.9 * 0.9)).abs() < 5e-3);
    }

    /// The scalar virial must equal −3V·dE/dV: scale box + positions
    /// affinely and difference the total Ewald energy.
    #[test]
    fn virial_matches_volume_derivative() {
        let sys = random_neutral_system(8, 2.0, 61);
        let params = EwaldParams {
            alpha: 5.0,
            r_cut: 0.9,
            n_cut: 14,
        };
        let energy_at = |scale: f64| -> f64 {
            let s = CoulombSystem::new(
                sys.pos
                    .iter()
                    .map(|r| [r[0] * scale, r[1] * scale, r[2] * scale])
                    .collect(),
                sys.q.clone(),
                [
                    sys.box_l[0] * scale,
                    sys.box_l[1] * scale,
                    sys.box_l[2] * scale,
                ],
            );
            // Hold αr_c and the k-sum fixed in *scaled* coordinates so the
            // splitting stays consistent: α and r_c scale inversely with L.
            let p = EwaldParams {
                alpha: params.alpha / scale,
                r_cut: params.r_cut * scale,
                n_cut: params.n_cut,
            };
            Ewald::new(p).compute(&s).energy
        };
        let out = Ewald::new(params).compute(&sys);
        let eps = 1e-5;
        // dE/dV = dE/ds · ds/dV with V(s) = V s³ ⇒ dV/ds|₁ = 3V.
        let de_ds = (energy_at(1.0 + eps) - energy_at(1.0 - eps)) / (2.0 * eps);
        let w_expected = -de_ds; // W = −3V dE/dV = −dE/ds|₁
        assert!(
            (out.virial - w_expected).abs() < 1e-4 * w_expected.abs().max(1.0),
            "virial {} vs −dE/ds {}",
            out.virial,
            w_expected
        );
    }

    #[test]
    fn reference_quality_parameters_are_tight() {
        let p = EwaldParams::reference_quality([9.9727; 3], 1e-15);
        // Real-space factor at (or numerically indistinguishable from) the
        // requested tolerance:
        assert!((-p.alpha * p.alpha * p.r_cut * p.r_cut).exp() <= 1.01e-15);
        // Paper: α = 1.178612 nm⁻¹ and n_c = 22 for the 9.9727 nm box.
        assert!((p.alpha - 1.178_612).abs() < 1e-5, "α = {}", p.alpha);
        assert_eq!(p.n_cut, 22);
    }
}
