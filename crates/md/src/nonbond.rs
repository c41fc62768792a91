//! Short-range nonbonded interactions: Lennard-Jones + the Ewald
//! short-range Coulomb `erfc(αr)/r`, with intramolecular exclusions.
//!
//! This is the workload of the 64 "nonbond pipelines" per MDGRAPE-4A SoC
//! (direct Coulomb and van der Waals, §II). Energies in kJ/mol, forces in
//! kJ/mol/nm (the Coulomb constant is applied here, unlike the reduced
//! units of the solver crates).
//!
//! The Coulomb kernels come from a [`PairKernelTable`] — segmented table
//! lookup with polynomial interpolation in `r²`, exactly the structure of
//! the hardware's force pipelines (DESIGN.md §10). The table replaces the
//! previous A&S `erfc_fast` rational approximation: it is both faster (no
//! `exp`) and ~6 orders of magnitude more accurate.

use crate::neighbors::VerletList;
use crate::topology::MdSystem;
use crate::units::COULOMB;
use tme_num::special::{erf, erfc, TWO_OVER_SQRT_PI};
use tme_num::table::PairKernelTable;
use tme_num::vec3::V3;

/// Energy breakdown of one short-range evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShortRangeEnergy {
    pub lj: f64,
    pub coulomb: f64,
}

/// Evaluate LJ + short-range Coulomb over a pre-built Verlet list into
/// `forces` (accumulated), returning the energies. `table` carries the
/// Ewald splitting (its α) as tabulated kernels and must cover the list
/// cutoff; excluded pairs were filtered at list build time, so the hot
/// loop has no exclusion checks (their mesh contribution is removed
/// separately by [`exclusion_correction`]).
pub fn short_range_verlet(
    sys: &MdSystem,
    list: &VerletList,
    table: &PairKernelTable,
    forces: &mut [V3],
) -> ShortRangeEnergy {
    assert_eq!(forces.len(), sys.len());
    let mut e = ShortRangeEnergy::default();
    list.for_each_pair(&sys.pos, |i, j, d, r2| {
        accumulate_pair(sys, i, j, d, r2, table, &mut e, forces);
    });
    e
}

/// [`short_range_verlet`] through the exact `erfc` oracle instead of the
/// tabulated kernels — the graceful-degradation fallback when the table
/// path produces a non-finite result (DESIGN.md §11). Slower (an `exp`
/// and an `erfc` per pair) but with no table domain to violate.
pub fn short_range_verlet_exact(
    sys: &MdSystem,
    list: &VerletList,
    alpha: f64,
    forces: &mut [V3],
) -> ShortRangeEnergy {
    assert_eq!(forces.len(), sys.len());
    let mut e = ShortRangeEnergy::default();
    list.for_each_pair(&sys.pos, |i, j, d, r2| {
        let mut f_over_r = 0.0;
        let (li, lj_) = (sys.lj[i], sys.lj[j]);
        if li.epsilon > 0.0 && lj_.epsilon > 0.0 {
            let sigma = 0.5 * (li.sigma + lj_.sigma);
            let eps = (li.epsilon * lj_.epsilon).sqrt();
            let s2 = sigma * sigma / r2;
            let s6 = s2 * s2 * s2;
            let s12 = s6 * s6;
            e.lj += 4.0 * eps * (s12 - s6);
            f_over_r += 24.0 * eps * (2.0 * s12 - s6) / r2;
        }
        let qq = sys.q[i] * sys.q[j];
        if qq != 0.0 {
            let r = r2.sqrt();
            let ec = erfc(alpha * r) / r;
            let gauss = TWO_OVER_SQRT_PI * alpha * (-alpha * alpha * r2).exp();
            e.coulomb += COULOMB * qq * ec;
            f_over_r += COULOMB * qq * (ec + gauss) / r2;
        }
        forces[i][0] += f_over_r * d[0];
        forces[i][1] += f_over_r * d[1];
        forces[i][2] += f_over_r * d[2];
        forces[j][0] -= f_over_r * d[0];
        forces[j][1] -= f_over_r * d[1];
        forces[j][2] -= f_over_r * d[2];
    });
    e
}

/// One LJ + screened-Coulomb pair interaction. The Coulomb energy and radial force factor are
/// one table lookup (two Horner chains + a square root) — no `exp`/`erfc`.
#[inline]
#[allow(clippy::too_many_arguments)] // hot-path kernel; a params struct would obscure it
fn accumulate_pair(
    sys: &MdSystem,
    i: usize,
    j: usize,
    d: V3,
    r2: f64,
    table: &PairKernelTable,
    e: &mut ShortRangeEnergy,
    forces: &mut [V3],
) {
    let mut f_over_r = 0.0;
    // Lennard-Jones with Lorentz–Berthelot combination.
    let (li, lj_) = (sys.lj[i], sys.lj[j]);
    if li.epsilon > 0.0 && lj_.epsilon > 0.0 {
        let sigma = 0.5 * (li.sigma + lj_.sigma);
        let eps = (li.epsilon * lj_.epsilon).sqrt();
        let s2 = sigma * sigma / r2;
        let s6 = s2 * s2 * s2;
        let s12 = s6 * s6;
        e.lj += 4.0 * eps * (s12 - s6);
        // F = 24ε(2 s¹² − s⁶)/r² · r⃗
        f_over_r += 24.0 * eps * (2.0 * s12 - s6) / r2;
    }
    let qq = sys.q[i] * sys.q[j];
    if qq != 0.0 {
        let (ec, fc) = table.erfc_kernel_r2(r2);
        e.coulomb += COULOMB * qq * ec;
        f_over_r += COULOMB * qq * fc;
    }
    forces[i][0] += f_over_r * d[0];
    forces[i][1] += f_over_r * d[1];
    forces[i][2] += f_over_r * d[2];
    forces[j][0] -= f_over_r * d[0];
    forces[j][1] -= f_over_r * d[1];
    forces[j][2] -= f_over_r * d[2];
}

/// Remove the mesh's `erf(αr)/r` contribution for excluded intramolecular
/// pairs (they must not interact electrostatically at all).
/// Returns the energy correction; forces are accumulated.
///
/// Bonded pair distances are far inside the table range; should a
/// pathological topology stretch one past `r_max`, the pair falls back to
/// the exact `erf`.
pub fn exclusion_correction(sys: &MdSystem, table: &PairKernelTable, forces: &mut [V3]) -> f64 {
    let alpha = table.alpha();
    let mut energy = 0.0;
    for &(i, j) in &sys.exclusions {
        let d = tme_num::vec3::min_image(sys.pos[i], sys.pos[j], sys.box_l);
        let r2 = tme_num::vec3::norm_sqr(d);
        let qq = sys.q[i] * sys.q[j];
        // Long-range complement kernel: energy erf/r, radial factor
        // (erf/r − 2α/√π e^{−α²r²})/r² — tabulated, no square root.
        let (erf_r, fl) = if table.covers(r2) {
            table.erf_kernel_r2(r2)
        } else {
            let r = r2.sqrt();
            let e = erf(alpha * r) / r;
            let gauss = TWO_OVER_SQRT_PI * alpha * (-alpha * alpha * r2).exp();
            (e, (e - gauss) / r2)
        };
        energy -= COULOMB * qq * erf_r;
        // Negated: we subtract the interaction the mesh added.
        let fr = -COULOMB * qq * fl;
        forces[i][0] += fr * d[0];
        forces[i][1] += fr * d[1];
        forces[i][2] += fr * d[2];
        forces[j][0] -= fr * d[0];
        forces[j][1] -= fr * d[1];
        forces[j][2] -= fr * d[2];
    }
    energy
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // axis loops over paired arrays
mod tests {
    use super::*;
    use crate::topology::{LjParams, WaterMol};
    use crate::units::tip3p;
    use tme_num::special::erfc;

    fn pair_system(r: f64, with_lj: bool) -> MdSystem {
        let lj = if with_lj {
            LjParams {
                sigma: tip3p::SIGMA_O,
                epsilon: tip3p::EPS_O,
            }
        } else {
            LjParams::default()
        };
        let mut s = MdSystem {
            pos: vec![[2.0, 2.0, 2.0], [2.0 + r, 2.0, 2.0]],
            vel: vec![[0.0; 3]; 2],
            mass: vec![tip3p::M_O; 2],
            q: vec![1.0, -1.0],
            lj: vec![lj; 2],
            box_l: [6.0; 3],
            waters: vec![],
            exclusions: vec![],
            bonded: Default::default(),
        };
        s.finalize();
        s
    }

    fn table_for(alpha: f64, r_max: f64) -> PairKernelTable {
        PairKernelTable::new(alpha, r_max)
    }

    /// [`short_range_verlet`] on a fresh skinless list over the 1.2 nm
    /// test cutoff, into zeroed forces.
    fn evaluate(sys: &MdSystem, table: &PairKernelTable) -> (ShortRangeEnergy, Vec<V3>) {
        let list = VerletList::build(&sys.pos, sys.box_l, 1.2, 0.0, |i, j| sys.is_excluded(i, j));
        let mut forces = vec![[0.0; 3]; sys.len()];
        let e = short_range_verlet(sys, &list, table, &mut forces);
        (e, forces)
    }

    #[test]
    fn coulomb_pair_energy_and_force() {
        let r = 0.5;
        let sys = pair_system(r, false);
        let alpha = 3.0;
        let (e, forces) = evaluate(&sys, &table_for(alpha, 1.2));
        let want = -COULOMB * erfc(alpha * r) / r;
        // Tabulated kernel: ulp-level against the exact erfc.
        assert!((e.coulomb - want).abs() < 1e-9 * want.abs());
        assert_eq!(e.lj, 0.0);
        // Newton's third law.
        for a in 0..3 {
            assert!((forces[0][a] + forces[1][a]).abs() < 1e-10);
        }
        // Attraction: atom 0 pulled toward +x.
        assert!(forces[0][0] > 0.0);
    }

    #[test]
    fn lj_minimum_at_sigma_times_2_pow_sixth() {
        let rmin = tip3p::SIGMA_O * (2.0f64).powf(1.0 / 6.0);
        let mut sys = pair_system(rmin, true);
        sys.q = vec![0.0, 0.0];
        let (e, forces) = evaluate(&sys, &table_for(3.0, 1.2));
        assert!((e.lj + tip3p::EPS_O).abs() < 1e-10, "E_min = {}", e.lj);
        // Zero force at the minimum.
        assert!(forces[0][0].abs() < 1e-9, "{}", forces[0][0]);
    }

    #[test]
    fn lj_force_is_minus_gradient() {
        let r = 0.35;
        let mut sys = pair_system(r, true);
        sys.q = vec![0.0, 0.0];
        let table = table_for(3.0, 1.2);
        let (_, forces) = evaluate(&sys, &table);
        let h = 1e-7;
        let e_at = |rr: f64| {
            let mut s2 = pair_system(rr, true);
            s2.q = vec![0.0, 0.0];
            evaluate(&s2, &table).0.lj
        };
        let grad = (e_at(r + h) - e_at(r - h)) / (2.0 * h);
        // Force on atom 1 along +x equals −dE/dr.
        assert!(
            (forces[1][0] + grad).abs() < 1e-4 * grad.abs(),
            "{} vs {}",
            forces[1][0],
            -grad
        );
    }

    /// A skinned list carries pairs beyond the cutoff; the distance
    /// re-check must make it agree with the skinless list on a dense
    /// water box (different pair order, so to rounding).
    #[test]
    fn skin_does_not_change_the_sum() {
        use crate::water::water_box;
        let sys = water_box(64, 6);
        let r_cut = 0.6; // 64 waters → L ≈ 1.24 nm, half-box 0.62 nm
        let table = table_for(3.0, r_cut);
        let run = |skin: f64| {
            let list = VerletList::build(&sys.pos, sys.box_l, r_cut, skin, |i, j| {
                sys.is_excluded(i, j)
            });
            let mut f = vec![[0.0; 3]; sys.len()];
            (short_range_verlet(&sys, &list, &table, &mut f), f)
        };
        let (e_bare, f_bare) = run(0.0);
        let (e_skin, f_skin) = run(0.2);
        assert!((e_bare.lj - e_skin.lj).abs() < 1e-10);
        assert!((e_bare.coulomb - e_skin.coulomb).abs() < 1e-9);
        for (a, b) in f_bare.iter().zip(&f_skin) {
            for c in 0..3 {
                assert!((a[c] - b[c]).abs() < 1e-9);
            }
        }
    }

    /// The exact-`erfc` oracle (the DESIGN.md §11 fallback) agrees with
    /// the tabulated hot path to table accuracy on a dense water box.
    #[test]
    fn exact_fallback_matches_table_path() {
        use crate::water::water_box;
        let sys = water_box(64, 6);
        let alpha = 3.0;
        let r_cut = 0.6;
        let list = VerletList::build(&sys.pos, sys.box_l, r_cut, 0.2, |i, j| {
            sys.is_excluded(i, j)
        });
        let table = table_for(alpha, r_cut);
        let mut f_table = vec![[0.0; 3]; sys.len()];
        let e_table = short_range_verlet(&sys, &list, &table, &mut f_table);
        let mut f_exact = vec![[0.0; 3]; sys.len()];
        let e_exact = short_range_verlet_exact(&sys, &list, alpha, &mut f_exact);
        assert!((e_table.lj - e_exact.lj).abs() < 1e-10 * e_exact.lj.abs().max(1.0));
        assert!((e_table.coulomb - e_exact.coulomb).abs() < 1e-8 * e_exact.coulomb.abs());
        let scale = f_exact
            .iter()
            .flatten()
            .fold(0.0f64, |m, c| m.max(c.abs()))
            .max(1.0);
        for (a, b) in f_table.iter().zip(&f_exact) {
            for c in 0..3 {
                assert!((a[c] - b[c]).abs() < 1e-8 * scale, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn excluded_pairs_skipped() {
        let mut sys = pair_system(0.4, true);
        sys.exclusions = vec![(0, 1)];
        sys.waters = vec![WaterMol { o: 0, h1: 1, h2: 1 }];
        sys.finalize();
        let (e, forces) = evaluate(&sys, &table_for(3.0, 1.2));
        assert_eq!(e, ShortRangeEnergy::default());
        assert_eq!(forces[0], [0.0; 3]);
    }

    #[test]
    fn exclusion_correction_removes_erf_part() {
        let r: f64 = 0.09572;
        let mut sys = pair_system(r, false);
        sys.q = vec![tip3p::Q_O, tip3p::Q_H];
        sys.exclusions = vec![(0, 1)];
        sys.finalize();
        let alpha = 2.5;
        let mut forces = vec![[0.0; 3]; 2];
        let e = exclusion_correction(&sys, &table_for(alpha, 1.2), &mut forces);
        let want = -COULOMB * sys.q[0] * sys.q[1] * (1.0 - erfc(alpha * r)) / r;
        // Tabulated erf kernel: ulp-level against the exact function.
        assert!((e - want).abs() < 1e-9 * want.abs());
        // Momentum conserving.
        for a in 0..3 {
            assert!((forces[0][a] + forces[1][a]).abs() < 1e-10);
        }
    }

    /// Full identity: short_range + mesh(erf) + correction should equal the
    /// bare Coulomb pair when the pair is NOT excluded — verified at the
    /// kernel level: erfc + erf = 1/r (correction only applies to excluded).
    #[test]
    fn correction_plus_erf_cancels_exactly() {
        let r: f64 = 0.2;
        let alpha = 2.0;
        let erf_part = (1.0 - erfc(alpha * r)) / r;
        let mut sys = pair_system(r, false);
        sys.q = vec![0.5, 0.5];
        sys.exclusions = vec![(0, 1)];
        sys.finalize();
        let mut f = vec![[0.0; 3]; 2];
        let e = exclusion_correction(&sys, &table_for(alpha, 1.2), &mut f);
        assert!((e + COULOMB * 0.25 * erf_part).abs() < 1e-9);
    }
}
