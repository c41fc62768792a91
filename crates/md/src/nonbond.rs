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
//! the hardware's force pipelines (DESIGN.md §10). The table replaced an
//! Abramowitz & Stegun 7.1.26 rational approximation of `erfc`: it is both
//! faster (no `exp`) and ~6 orders of magnitude more accurate.
//!
//! The integrator's pairs run through the shared cell kernel with its
//! Lennard-Jones lane ([`CellPairs`], DESIGN.md §15.7): every pair inside
//! the cutoff is summed, and what an excluded pair added is subtracted
//! afterwards. Per flushed hit buffer the lane runs one vector pass that
//! writes every hit's LJ energy and force factor, beside the table pass
//! for `erfc`; the accumulate then adds both terms. The lane's SIMD bodies
//! run a home atom with ε = 0 (a TIP3P hydrogen) through the Coulomb-only
//! passes, with the output bits of the portable body, which evaluates
//! every LJ term. The Verlet-list loop below is the list-based form
//! `water::relax` still uses.

use crate::neighbors::VerletList;
use crate::topology::MdSystem;
use crate::units::COULOMB;
use tme_mesh::cells::{short_range_lj_cells_into, CellScratch, LjAtom};
use tme_mesh::model::{CoulombResult, CoulombSystem};
use tme_mesh::pairwise::{erf_kernel, erfc_kernel};
use tme_num::pool::Pool;
use tme_num::table::PairKernelTable;
use tme_num::vec3::{self, V3};

/// Energy breakdown of one short-range evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShortRangeEnergy {
    pub lj: f64,
    pub coulomb: f64,
}

/// Evaluate LJ + short-range Coulomb over a pre-built Verlet list into
/// `forces` (accumulated), returning the energies. `table` carries the
/// Ewald splitting (its α) as tabulated kernels and must cover the list
/// cutoff; excluded pairs were filtered at list build time, so the loop
/// has no exclusion checks (their mesh contribution is removed separately
/// by [`exclusion_correction`]).
pub fn short_range_verlet(
    sys: &MdSystem,
    list: &VerletList,
    table: &PairKernelTable,
    forces: &mut [V3],
) -> ShortRangeEnergy {
    list_sum(sys, list, forces, |r2| table.erfc_kernel_r2(r2))
}

/// LJ (Lorentz–Berthelot) + `COULOMB·q_i q_j·kernel(r²)` over the listed
/// pairs inside the cutoff; `kernel` returns the Coulomb energy and radial
/// force factor.
fn list_sum(
    sys: &MdSystem,
    list: &VerletList,
    forces: &mut [V3],
    kernel: impl Fn(f64) -> (f64, f64),
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
            // F = 24ε(2 s¹² − s⁶)/r² · r⃗
            f_over_r += 24.0 * eps * (2.0 * s12 - s6) / r2;
        }
        let qq = sys.q[i] * sys.q[j];
        if qq != 0.0 {
            let (ec, fc) = kernel(r2);
            e.coulomb += COULOMB * qq * ec;
            f_over_r += COULOMB * qq * fc;
        }
        for (a, da) in d.into_iter().enumerate() {
            forces[i][a] += f_over_r * da;
            forces[j][a] -= f_over_r * da;
        }
    });
    e
}

/// Remove the mesh's `erf(αr)/r` contribution for excluded intramolecular
/// pairs (they must not interact electrostatically at all).
/// Returns the energy correction; forces are accumulated.
///
/// Bonded pair distances are far inside the table range; should a
/// pathological topology stretch one past `r_max`, the pair falls back to
/// the exact `erf`.
pub fn exclusion_correction(sys: &MdSystem, table: &PairKernelTable, forces: &mut [V3]) -> f64 {
    let mut energy = 0.0;
    for &(i, j) in &sys.exclusions {
        let d = vec3::min_image(sys.pos[i], sys.pos[j], sys.box_l);
        let r2 = vec3::norm_sqr(d);
        let qq = sys.q[i] * sys.q[j];
        // Long-range complement kernel: energy erf/r, radial factor
        // (erf/r − 2α/√π e^{−α²r²})/r² — tabulated, no square root.
        let (erf_r, fl) = split_kernel(table, r2, false);
        energy -= COULOMB * qq * erf_r;
        // Negated: we subtract the interaction the mesh added.
        let fr = -COULOMB * qq * fl;
        for (a, da) in d.into_iter().enumerate() {
            forces[i][a] += fr * da;
            forces[j][a] -= fr * da;
        }
    }
    energy
}

/// The MD integrator's short-range state on the cell kernel: the system as the
/// kernel reads it (charges fixed, positions copied in per call), its
/// [`LjAtom`]s in reduced units (ε / [`COULOMB`], so one accumulator holds
/// both terms) and the reduced-unit pair sum. Allocation-free once warm.
#[derive(Clone, Debug)]
pub struct CellPairs {
    coulomb: CoulombSystem,
    lj: Vec<LjAtom>,
    sum: CoulombResult,
}

impl CellPairs {
    pub fn new(sys: &MdSystem) -> Self {
        Self {
            coulomb: sys.coulomb_system(),
            lj: sys
                .lj
                .iter()
                .map(|p| LjAtom::new(p.sigma, p.epsilon / COULOMB))
                .collect(),
            sum: CoulombResult::default(),
        }
    }

    /// Copy `pos` in as the positions [`Self::evaluate`] and
    /// [`Self::coulomb`] see.
    pub fn load(&mut self, pos: &[V3]) {
        self.coulomb.pos.copy_from_slice(pos);
    }

    /// The system as last [`Self::load`]ed, for the mesh solver.
    pub fn coulomb(&self) -> &CoulombSystem {
        &self.coulomb
    }

    /// LJ + `erfc` Coulomb of every pair within `r_cut` of the loaded
    /// positions, through the cell kernel on `pool`, minus what each
    /// excluded pair of `sys` added — and, when `mesh`, minus the mesh's
    /// `erf(αr)/r` of that pair too. Overwrites `forces` (kJ/mol/nm);
    /// returns the energies (kJ/mol).
    #[allow(clippy::too_many_arguments)] // the kernel's inputs, by name
    pub fn evaluate(
        &mut self,
        sys: &MdSystem,
        table: &PairKernelTable,
        r_cut: f64,
        mesh: bool,
        pool: &Pool,
        cells: &mut CellScratch,
        forces: &mut [V3],
    ) -> ShortRangeEnergy {
        let sum = &mut self.sum;
        let mut lj =
            short_range_lj_cells_into(&self.coulomb, &self.lj, table, r_cut, pool, cells, sum);
        let mut coulomb = sum.energy;
        let rc2 = r_cut * r_cut;
        for &(i, j) in &sys.exclusions {
            let d = vec3::min_image(sys.pos[i], sys.pos[j], sys.box_l);
            let r2 = vec3::norm_sqr(d);
            let qq = sys.q[i] * sys.q[j];
            let (mut e, mut fs) = (0.0, 0.0);
            // The kernel's own hit test: only those pairs were summed.
            if r2 < rc2 && r2 > 0.0 {
                let (ec, fc) = split_kernel(table, r2, true);
                (e, fs) = (qq * ec, qq * fc);
                let (a, b) = (self.lj[i], self.lj[j]);
                if a.sqrt_eps > 0.0 && b.sqrt_eps > 0.0 {
                    let (e_lj, f_lj) = a.pair(b, 1.0 / r2);
                    lj -= e_lj;
                    fs += f_lj;
                }
            }
            if mesh {
                let (el, fl) = split_kernel(table, r2, false);
                e += qq * el;
                fs += qq * fl;
            }
            coulomb -= e;
            for (a, da) in d.into_iter().enumerate() {
                sum.forces[i][a] -= fs * da;
                sum.forces[j][a] += fs * da;
            }
        }
        for (f, s) in forces.iter_mut().zip(&sum.forces) {
            *f = s.map(|c| COULOMB * c);
        }
        ShortRangeEnergy {
            lj: COULOMB * lj,
            coulomb: COULOMB * coulomb,
        }
    }
}

/// `(erfc(αr)/r, radial factor)` at `r²` when `short`, else the mesh's
/// `(erf(αr)/r, radial factor)` (see [`PairKernelTable::erfc_kernel_r2`]):
/// tabulated, or exact where a stretched bonded pair lies outside the
/// table.
fn split_kernel(table: &PairKernelTable, r2: f64, short: bool) -> (f64, f64) {
    match (table.covers(r2), short) {
        (true, true) => table.erfc_kernel_r2(r2),
        (true, false) => table.erf_kernel_r2(r2),
        (false, true) => erfc_kernel(table.alpha(), r2.sqrt()),
        (false, false) => erf_kernel(table.alpha(), r2.sqrt()),
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // axis loops over paired arrays
mod tests {
    use super::*;
    use crate::topology::{LjParams, WaterMol};
    use crate::units::tip3p;
    use tme_num::special::erfc;

    /// [`short_range_verlet`] through the exact `erfc` oracle instead of
    /// the tabulated kernels.
    fn short_range_verlet_exact(
        sys: &MdSystem,
        list: &VerletList,
        alpha: f64,
        forces: &mut [V3],
    ) -> ShortRangeEnergy {
        list_sum(sys, list, forces, |r2| erfc_kernel(alpha, r2.sqrt()))
    }

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

    /// The exact-`erfc` oracle agrees with the tabulated hot path to
    /// table accuracy on a dense water box.
    #[test]
    fn exact_erfc_matches_table_path() {
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

    /// The cell path (LJ lane, every excluded pair subtracted afterwards)
    /// against the list oracle: a skinless list with the exclusions
    /// filtered out, plus the mesh's `erf` removed by
    /// [`exclusion_correction`].
    fn assert_cells_match_list(sys: &MdSystem, alpha: f64, r_cut: f64) {
        let table = table_for(alpha, r_cut);
        let list = VerletList::build(&sys.pos, sys.box_l, r_cut, 0.0, |i, j| {
            sys.is_excluded(i, j)
        });
        let mut want_f = vec![[0.0; 3]; sys.len()];
        let mut want = short_range_verlet(sys, &list, &table, &mut want_f);
        want.coulomb += exclusion_correction(sys, &table, &mut want_f);
        let mut pairs = CellPairs::new(sys);
        pairs.load(&sys.pos);
        let mut got_f = vec![[0.0; 3]; sys.len()];
        let pool = Pool::new(2);
        let got = pairs.evaluate(
            sys,
            &table,
            r_cut,
            true,
            &pool,
            &mut CellScratch::new(),
            &mut got_f,
        );
        assert!(want.lj.abs() > 0.0 && want.coulomb.abs() > 0.0);
        assert!(
            (got.lj - want.lj).abs() < 1e-10 * want.lj.abs(),
            "{got:?} vs {want:?}"
        );
        let rel = (got.coulomb - want.coulomb).abs() / want.coulomb.abs();
        assert!(rel < 1e-10, "{got:?} vs {want:?}");
        let fmax = want_f.iter().flatten().fold(0.0f64, |m, c| m.max(c.abs()));
        for (a, b) in got_f.iter().zip(&want_f) {
            for c in 0..3 {
                assert!((a[c] - b[c]).abs() < 1e-9 * fmax, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn cell_path_matches_list_oracle_on_water() {
        // The benchmark's MD system: 1,000 waters at r_c 1.25 (the box
        // takes fewer than 3 cells per axis: brute-force rows).
        assert_cells_match_list(&crate::water::water_box(1000, 3), 2.5, 1.25);
    }

    #[test]
    fn cell_path_matches_list_oracle_on_solvated_polymer() {
        // LJ beads whose 1–2 and 1–3 pairs are excluded, among 1,000
        // waters at r_c 1.0 (3³ slabbed cells).
        use crate::solute::{solvate_chain, ChainParams};
        let mut sys = crate::water::water_box(1000, 5);
        let centre = sys.box_l.map(|l| 0.5 * l);
        let chain = solvate_chain(&mut sys, &ChainParams::default(), centre, 10);
        assert!(sys.exclusions.iter().any(|&(i, _)| chain.contains(&i)));
        assert_cells_match_list(&sys, 3.0, 1.0);
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
