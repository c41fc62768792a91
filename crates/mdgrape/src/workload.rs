//! MD-step workload descriptors for the machine simulator.

/// What one MD time step has to compute.
#[derive(Clone, Debug)]
pub struct StepWorkload {
    /// Total atom count (distributed over the torus).
    pub n_atoms: usize,
    /// Global TME grid per axis (32 or 64 supported by the hardware).
    pub grid: usize,
    /// Middle-range levels L.
    pub levels: u32,
    /// Grid cutoff g_c (8 or 12 on the hardware).
    pub gc: usize,
    /// Gaussians per shell M.
    pub m_gaussians: usize,
    /// Short-range cutoff (nm).
    pub r_cut: f64,
    /// Box edge lengths (nm).
    pub box_l: [f64; 3],
    /// Per-node atom-count fluctuation (fraction): the paper's §V.B load
    /// imbalance "because of fluctuations in the number and type of atoms".
    pub imbalance: f64,
    /// Evaluate the long-range (TME) part this step?
    pub long_range: bool,
    /// Seed decorrelating the per-node atom fluctuation between steps
    /// (atom migration); `simulate_run` advances it per step.
    pub imbalance_seed: u64,
    /// Evaluate the long-range part every this many steps (1 = every
    /// step, 2 = the Anton-style alternate-step policy).
    pub long_range_every: usize,
}

impl StepWorkload {
    /// The Fig. 9 production system: protein + water, 80,540 atoms in a
    /// 9.7 × 8.3 × 10.6 nm box; N = 32³, L = 1, r_c = 1.2 nm, g_c = 8,
    /// M = 4 (§V.A).
    pub fn paper_fig9() -> Self {
        Self {
            n_atoms: 80_540,
            grid: 32,
            levels: 1,
            gc: 8,
            m_gaussians: 4,
            r_cut: 1.2,
            box_l: [9.7, 8.3, 10.6],
            imbalance: 0.15,
            long_range: true,
            imbalance_seed: 0,
            long_range_every: 1,
        }
    }

    /// §VI.A's projected larger system: 64³ grid with L = 2 and the atom
    /// count scaled with the (8×) volume.
    pub fn paper_grid64() -> Self {
        let mut w = Self::paper_fig9();
        w.grid = 64;
        w.levels = 2;
        w.n_atoms *= 8;
        w.box_l = [19.4, 16.6, 21.2];
        w
    }

    /// Atoms per node (mean).
    pub fn atoms_per_node(&self, nodes: usize) -> f64 {
        self.n_atoms as f64 / nodes as f64
    }

    /// Local grid points per axis on each node of an `nx`-wide torus axis.
    pub fn local_grid(&self, torus_axis: usize) -> usize {
        assert!(
            self.grid.is_multiple_of(torus_axis),
            "global grid {} not divisible by torus {}",
            self.grid,
            torus_axis
        );
        self.grid / torus_axis
    }

    /// 4×4×4 GCU blocks per node (the GCU's basic data unit, §IV.B):
    /// 1 for the 32³ grid on 8³ nodes, 8 for 64³.
    pub fn gcu_blocks_per_node(&self, torus: [usize; 3]) -> usize {
        let bx = self.local_grid(torus[0]).div_ceil(4);
        let by = self.local_grid(torus[1]).div_ceil(4);
        let bz = self.local_grid(torus[2]).div_ceil(4);
        bx * by * bz
    }

    /// Average neighbours within the cutoff per atom (number density ×
    /// cutoff sphere) — the pair workload of the nonbond pipelines.
    pub fn neighbours_per_atom(&self) -> f64 {
        let vol = self.box_l[0] * self.box_l[1] * self.box_l[2];
        let density = self.n_atoms as f64 / vol;
        density * 4.0 / 3.0 * std::f64::consts::PI * self.r_cut.powi(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_workload_numbers() {
        let w = StepWorkload::paper_fig9();
        assert_eq!(w.n_atoms, 80_540);
        // ~157 atoms per node on 512 nodes.
        assert!((w.atoms_per_node(512) - 157.3).abs() < 0.1);
        // 32³ on 8³ nodes → 4³ local → 1 GCU block.
        assert_eq!(w.gcu_blocks_per_node([8, 8, 8]), 1);
    }

    #[test]
    fn grid64_has_eight_blocks() {
        let w = StepWorkload::paper_grid64();
        assert_eq!(w.gcu_blocks_per_node([8, 8, 8]), 8);
        assert_eq!(w.levels, 2);
    }

    #[test]
    fn neighbour_count_plausible_for_water_density() {
        let w = StepWorkload::paper_fig9();
        // ~94 atoms/nm³ × 7.24 nm³ ≈ 680 neighbours.
        let n = w.neighbours_per_atom();
        assert!(n > 500.0 && n < 900.0, "{n}");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_grid_rejected() {
        let mut w = StepWorkload::paper_fig9();
        w.grid = 48;
        let _ = w.local_grid(5);
    }
}
