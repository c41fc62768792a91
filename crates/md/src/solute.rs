//! Flexible solutes: build charged bead chains ("protein surrogates") and
//! merge them into a water box — the inhomogeneous workload class the
//! paper's production system represents (a 480-residue protein + ions +
//! water, §V.A).

use crate::bonded::{Angle, Bond};
use crate::topology::{LjParams, MdSystem};
use tme_num::vec3::{self, V3};

/// Parameters of a simple bead-chain solute.
#[derive(Clone, Copy, Debug)]
pub struct ChainParams {
    /// Number of beads.
    pub beads: usize,
    /// Equilibrium bond length (nm).
    pub bond_length: f64,
    /// Bond force constant (kJ/mol/nm²).
    pub bond_k: f64,
    /// Equilibrium angle (radians) and force constant (kJ/mol/rad²).
    pub angle_theta0: f64,
    pub angle_k: f64,
    /// Alternating bead charges ±q (e); the chain stays neutral for even
    /// bead counts.
    pub charge: f64,
    /// Bead mass (u) and LJ parameters.
    pub mass: f64,
    pub lj: LjParams,
}

impl Default for ChainParams {
    fn default() -> Self {
        Self {
            beads: 20,
            bond_length: 0.15,
            bond_k: 30_000.0,
            angle_theta0: 2.0,
            angle_k: 300.0,
            charge: 0.5,
            mass: 14.0,
            lj: LjParams {
                sigma: 0.33,
                epsilon: 0.4,
            },
        }
    }
}

/// Append a helical bead chain to a system, with bonds, angles,
/// alternating charges and 1–2/1–3 exclusions. Returns the atom index
/// range of the new chain.
pub fn add_chain(sys: &mut MdSystem, params: &ChainParams, centre: V3) -> std::ops::Range<usize> {
    assert!(params.beads >= 2);
    let base = sys.len();
    // Helix with the requested bond length: pitch + radius chosen so
    // consecutive beads sit `bond_length` apart.
    let turn = 0.6f64; // radians per bead
    let radius = 0.25;
    let chord = 2.0 * radius * (turn / 2.0).sin();
    let dz = (params.bond_length * params.bond_length - chord * chord)
        .max(1e-6)
        .sqrt();
    for i in 0..params.beads {
        let phi = i as f64 * turn;
        sys.pos.push(vec3::add(
            centre,
            [radius * phi.cos(), radius * phi.sin(), dz * i as f64],
        ));
        sys.vel.push([0.0; 3]);
        sys.mass.push(params.mass);
        sys.q.push(if i % 2 == 0 {
            params.charge
        } else {
            -params.charge
        });
        sys.lj.push(params.lj);
    }
    for i in 0..params.beads - 1 {
        sys.bonded.bonds.push(Bond {
            i: base + i,
            j: base + i + 1,
            r0: params.bond_length,
            k: params.bond_k,
        });
        sys.exclusions.push((base + i, base + i + 1));
    }
    for i in 0..params.beads.saturating_sub(2) {
        sys.bonded.angles.push(Angle {
            i: base + i,
            j: base + i + 1,
            k: base + i + 2,
            theta0: params.angle_theta0,
            kf: params.angle_k,
        });
        sys.exclusions.push((base + i, base + i + 2));
    }
    sys.finalize();
    base..sys.len()
}

/// Remove every water molecule whose oxygen lies within `r_min` of any
/// atom in `solute` (minimum image) — the carve-out step of solvation.
/// Solute atoms must come *after* all waters (as [`add_chain`] arranges);
/// their bonded/exclusion indices are remapped to the compacted layout.
pub fn remove_overlapping_waters(sys: &mut MdSystem, solute: std::ops::Range<usize>, r_min: f64) {
    let r2 = r_min * r_min;
    let keep_water: Vec<bool> = sys
        .waters
        .iter()
        .map(|w| {
            solute
                .clone()
                .all(|s| vec3::norm_sqr(vec3::min_image(sys.pos[w.o], sys.pos[s], sys.box_l)) > r2)
        })
        .collect();
    // Old-index → new-index map (waters first, then the solute block).
    let mut map = vec![usize::MAX; sys.len()];
    let mut next = 0usize;
    for (w, keep) in sys.waters.iter().zip(&keep_water) {
        if *keep {
            for idx in [w.o, w.h1, w.h2] {
                map[idx] = next;
                next += 1;
            }
        }
    }
    for s in solute.clone() {
        map[s] = next;
        next += 1;
    }
    let remap = |i: usize| map[i];
    let keep_atom = |i: usize| map[i] != usize::MAX;
    macro_rules! compact {
        ($field:ident) => {{
            let mut new_field = Vec::with_capacity(next);
            for (i, v) in sys.$field.iter().enumerate() {
                if keep_atom(i) {
                    new_field.push(v.clone());
                }
            }
            // `map` is order-preserving, so positions line up already.
            sys.$field = new_field;
        }};
    }
    compact!(pos);
    compact!(vel);
    compact!(mass);
    compact!(q);
    compact!(lj);
    sys.waters = sys
        .waters
        .iter()
        .zip(&keep_water)
        .filter(|(_, k)| **k)
        .map(|(w, _)| crate::topology::WaterMol {
            o: remap(w.o),
            h1: remap(w.h1),
            h2: remap(w.h2),
        })
        .collect();
    sys.exclusions = sys
        .exclusions
        .iter()
        .filter(|(i, j)| keep_atom(*i) && keep_atom(*j))
        .map(|&(i, j)| (remap(i), remap(j)))
        .collect();
    for b in &mut sys.bonded.bonds {
        b.i = remap(b.i);
        b.j = remap(b.j);
    }
    for a in &mut sys.bonded.angles {
        a.i = remap(a.i);
        a.j = remap(a.j);
        a.k = remap(a.k);
    }
    sys.finalize();
}

/// Full solvation workflow: insert a chain into a water box, carve out
/// overlapping waters and relax the contacts. Returns the chain's atom
/// range in the final layout.
pub fn solvate_chain(
    sys: &mut MdSystem,
    params: &ChainParams,
    centre: V3,
    relax_steps: usize,
) -> std::ops::Range<usize> {
    let range = add_chain(sys, params, centre);
    remove_overlapping_waters(sys, range.clone(), 0.30);
    let n_solute = range.len();
    let start = sys.len() - n_solute;
    crate::water::relax(sys, relax_steps, 0.8);
    start..sys.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CutoffBackend;
    use crate::nve::NveSim;
    use crate::water::{thermalize, water_box};

    fn chain_in_water() -> MdSystem {
        let mut sys = water_box(64, 7);
        let centre = [sys.box_l[0] * 0.5, sys.box_l[1] * 0.5, 0.2];
        // Uncharged chain: this test isolates the *bonded* force
        // consistency; a charged solute under plain cutoff electrostatics
        // would add truncation noise unrelated to the bonded terms (the
        // examples run charged chains with a proper mesh solver).
        let range = solvate_chain(
            &mut sys,
            &ChainParams {
                beads: 8,
                charge: 0.0,
                ..Default::default()
            },
            centre,
            120,
        );
        assert_eq!(range.len(), 8);
        assert_eq!(range.end, sys.len());
        sys
    }

    #[test]
    fn chain_geometry_matches_bond_length() {
        let mut sys = water_box(8, 1);
        let p = ChainParams::default();
        let range = add_chain(&mut sys, &p, [1.0, 1.0, 0.1]);
        for i in range.start..range.end - 1 {
            let d = vec3::norm(vec3::sub(sys.pos[i], sys.pos[i + 1]));
            assert!((d - p.bond_length).abs() < 1e-9, "bond {i}: {d}");
        }
    }

    #[test]
    fn chain_is_neutral_for_even_beads() {
        let mut sys = water_box(8, 2);
        add_chain(
            &mut sys,
            &ChainParams {
                beads: 10,
                ..Default::default()
            },
            [1.0, 1.0, 0.1],
        );
        assert!(sys.q.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn exclusions_cover_12_and_13() {
        let mut sys = water_box(4, 3);
        let r = add_chain(
            &mut sys,
            &ChainParams {
                beads: 5,
                ..Default::default()
            },
            [0.8, 0.8, 0.1],
        );
        let b = r.start;
        assert!(sys.is_excluded(b, b + 1));
        assert!(sys.is_excluded(b, b + 2));
        assert!(!sys.is_excluded(b, b + 3));
    }

    #[test]
    fn carving_removes_overlaps_and_remaps() {
        let mut sys = water_box(64, 9);
        let n_water_atoms = sys.len();
        let centre = [sys.box_l[0] * 0.5, sys.box_l[1] * 0.5, 0.2];
        let range = add_chain(
            &mut sys,
            &ChainParams {
                beads: 6,
                ..Default::default()
            },
            centre,
        );
        remove_overlapping_waters(&mut sys, range, 0.35);
        assert!(sys.len() < n_water_atoms + 6, "no waters were carved out");
        // Layout invariants after remap.
        assert_eq!(sys.len(), 3 * sys.waters.len() + 6);
        for w in &sys.waters {
            let d = vec3::norm(vec3::sub(sys.pos[w.o], sys.pos[w.h1]));
            assert!((d - crate::units::tip3p::R_OH).abs() < 1e-9);
        }
        for b in &sys.bonded.bonds {
            assert!(b.i < sys.len() && b.j < sys.len());
            let d = vec3::norm(vec3::sub(sys.pos[b.i], sys.pos[b.j]));
            assert!((d - 0.15).abs() < 1e-6, "bond length {d} after remap");
        }
        // No water oxygen within the carve radius of any chain bead.
        let chain_start = sys.len() - 6;
        for w in &sys.waters {
            for s in chain_start..sys.len() {
                let r = vec3::norm(vec3::min_image(sys.pos[w.o], sys.pos[s], sys.box_l));
                assert!(r > 0.35, "water at {r} from bead");
            }
        }
    }

    /// Flexible chain + rigid water NVE: energy conserved with bonded
    /// forces in the loop (cross-checks the bonded gradients dynamically).
    #[test]
    fn flexible_chain_nve_conserves_energy() {
        let mut sys = chain_in_water();
        thermalize(&mut sys, 250.0, 4);
        // Screened (Wolf-style) electrostatics: conservative under a
        // cutoff, so total-energy drift isolates the bonded forces.
        let solver = CutoffBackend::new(tme_core::alpha_from_rtol(0.6, 1e-3), 0.6).unwrap();
        // Short time step: the stiff bonds oscillate fast. (64 waters →
        // L ≈ 1.24 nm, so the cutoff must stay under the 0.62 nm half-box.)
        let mut sim = NveSim::new(sys, &solver, 0.0005, 0.6);
        let records = sim.run(200, 20);
        let e0 = records[0].total;
        let kinetic = records[0].kinetic.abs().max(1.0);
        for r in &records {
            assert!(
                (r.total - e0).abs() < 0.05 * kinetic,
                "t={}: {} vs {e0}",
                r.time,
                r.total
            );
        }
        // Bonded energy is alive (the chain vibrates).
        assert!(records.iter().any(|r| r.bonded > 0.01));
    }
}
