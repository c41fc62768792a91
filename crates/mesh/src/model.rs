//! Shared input/output types for the electrostatics solvers.
//!
//! All solver crates (`tme-reference`, `tme-core`) work in *reduced Gaussian
//! units*: charges in elementary charges, lengths in nm, energies in
//! `e²/nm`. The Coulomb constant `f = 138.935458 kJ·mol⁻¹·nm·e⁻²` is applied
//! by the MD layer, so force-*error* comparisons (paper Table 1) are unit
//! free.

use tme_num::vec3::V3;

/// A periodic system of point charges.
#[derive(Clone, Debug)]
pub struct CoulombSystem {
    /// Atom positions (nm), not required to be pre-wrapped.
    pub pos: Vec<V3>,
    /// Charges (e).
    pub q: Vec<f64>,
    /// Orthorhombic box lengths (nm).
    pub box_l: V3,
}

impl CoulombSystem {
    pub fn new(pos: Vec<V3>, q: Vec<f64>, box_l: V3) -> Self {
        assert_eq!(pos.len(), q.len(), "positions/charges length mismatch");
        assert!(
            box_l.iter().all(|&l| l > 0.0),
            "box lengths must be positive"
        );
        Self { pos, q, box_l }
    }

    pub fn len(&self) -> usize {
        self.q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Total charge (e); mesh methods assume (near) neutrality.
    pub fn total_charge(&self) -> f64 {
        self.q.iter().sum()
    }

    /// `Σ q_i²`, needed by the Ewald self-energy term.
    pub fn charge_sq_sum(&self) -> f64 {
        self.q.iter().map(|q| q * q).sum()
    }

    pub fn volume(&self) -> f64 {
        self.box_l[0] * self.box_l[1] * self.box_l[2]
    }
}

/// Energy, per-atom forces and potentials from a Coulomb solver
/// (reduced units: energy `e²/nm`, force `e²/nm²`, potential `e/nm`).
#[derive(Clone, Debug, Default)]
pub struct CoulombResult {
    pub energy: f64,
    pub forces: Vec<V3>,
    pub potentials: Vec<f64>,
    /// Scalar (isotropic) virial `W = −3V·dE/dV` (reduced units);
    /// populated by the solvers that track it (pair terms, reference
    /// Ewald reciprocal), zero otherwise. Pressure follows from
    /// `P = (2K + W)/3V`.
    pub virial: f64,
}

impl CoulombResult {
    pub fn zeros(n: usize) -> Self {
        Self {
            energy: 0.0,
            forces: vec![[0.0; 3]; n],
            potentials: vec![0.0; n],
            virial: 0.0,
        }
    }

    /// Resize to `n` atoms and zero every field, reusing the existing
    /// buffers (allocation-free once capacity is warm).
    pub fn reset(&mut self, n: usize) {
        self.energy = 0.0;
        self.virial = 0.0;
        self.forces.resize(n, [0.0; 3]);
        self.potentials.resize(n, 0.0);
        for f in &mut self.forces {
            *f = [0.0; 3];
        }
        for p in &mut self.potentials {
            *p = 0.0;
        }
    }

    /// Overwrite with `other`'s contents, reusing the existing buffers
    /// (allocation-free once capacity is warm) — unlike `clone_from`,
    /// which the derived `Clone` routes through a fresh `clone`.
    pub fn copy_from(&mut self, other: &CoulombResult) {
        self.energy = other.energy;
        self.virial = other.virial;
        self.forces.clear();
        self.forces.extend_from_slice(&other.forces);
        self.potentials.clear();
        self.potentials.extend_from_slice(&other.potentials);
    }

    /// Element-wise accumulate another contribution (e.g. short + long range).
    pub fn accumulate(&mut self, other: &CoulombResult) {
        assert_eq!(self.forces.len(), other.forces.len());
        self.energy += other.energy;
        self.virial += other.virial;
        for (a, b) in self.forces.iter_mut().zip(&other.forces) {
            a[0] += b[0];
            a[1] += b[1];
            a[2] += b[2];
        }
        for (a, b) in self.potentials.iter_mut().zip(&other.potentials) {
            *a += *b;
        }
    }
}

/// The paper's Table 1 metric:
/// `sqrt( Σ|F_i − F_i^ref|² / Σ|F_i^ref|² )`.
pub fn relative_force_error(test: &[V3], reference: &[V3]) -> f64 {
    assert_eq!(test.len(), reference.len());
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, r) in test.iter().zip(reference) {
        let d = [t[0] - r[0], t[1] - r[1], t[2] - r[2]];
        num += d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        den += r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
    }
    (num / den).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_of_identical_forces_is_zero() {
        let f = vec![[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]];
        assert_eq!(relative_force_error(&f, &f), 0.0);
    }

    #[test]
    fn relative_error_scales_linearly_with_perturbation() {
        let r = vec![[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]];
        let t1: Vec<_> = r.iter().map(|f| [f[0] + 1e-3, f[1], f[2]]).collect();
        let t2: Vec<_> = r.iter().map(|f| [f[0] + 2e-3, f[1], f[2]]).collect();
        let e1 = relative_force_error(&t1, &r);
        let e2 = relative_force_error(&t2, &r);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn system_charge_accounting() {
        let s = CoulombSystem::new(vec![[0.0; 3], [1.0; 3]], vec![0.5, -0.5], [2.0, 3.0, 4.0]);
        assert_eq!(s.total_charge(), 0.0);
        assert_eq!(s.charge_sq_sum(), 0.5);
        assert_eq!(s.volume(), 24.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn result_accumulation() {
        let mut a = CoulombResult::zeros(1);
        let b = CoulombResult {
            energy: 2.0,
            forces: vec![[1.0, 0.0, -1.0]],
            potentials: vec![3.0],
            virial: 1.5,
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.energy, 4.0);
        assert_eq!(a.forces[0], [2.0, 0.0, -2.0]);
        assert_eq!(a.potentials[0], 6.0);
        assert_eq!(a.virial, 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = CoulombSystem::new(vec![[0.0; 3]], vec![1.0, 2.0], [1.0; 3]);
    }
}
