//! Trajectory analysis: radial distribution functions and mean-square
//! displacement — the standard observables used to check that a water
//! simulation produces liquid-like structure (the implicit premise of the
//! paper's TIP3P benchmarks).

use crate::topology::MdSystem;
use tme_num::vec3::{self, V3};

/// A histogrammed radial distribution function g(r).
#[derive(Clone, Debug)]
pub struct Rdf {
    r_max: f64,
    bin_width: f64,
    counts: Vec<f64>,
    frames: usize,
    n_reference: usize,
    density: f64,
}

impl Rdf {
    /// `r_max` must stay below half the smallest box edge.
    pub fn new(bins: usize, r_max: f64) -> Self {
        assert!(bins > 0 && r_max > 0.0);
        Self {
            r_max,
            bin_width: r_max / bins as f64,
            counts: vec![0.0; bins],
            frames: 0,
            n_reference: 0,
            density: 0.0,
        }
    }

    /// Accumulate one frame of pair distances among the atoms selected by
    /// `select` (e.g. oxygens for the O–O g(r)).
    pub fn add_frame(&mut self, sys: &MdSystem, select: impl Fn(usize) -> bool) {
        let sel: Vec<usize> = (0..sys.len()).filter(|&i| select(i)).collect();
        let min_edge = sys.box_l.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(self.r_max <= min_edge / 2.0 + 1e-9, "r_max beyond half box");
        for a in 0..sel.len() {
            for b in (a + 1)..sel.len() {
                let d = vec3::min_image(sys.pos[sel[a]], sys.pos[sel[b]], sys.box_l);
                let r = vec3::norm(d);
                if r < self.r_max {
                    let bin = (r / self.bin_width) as usize;
                    self.counts[bin] += 2.0; // each pair seen from both ends
                }
            }
        }
        self.frames += 1;
        self.n_reference = sel.len();
        let vol = sys.box_l[0] * sys.box_l[1] * sys.box_l[2];
        self.density = sel.len() as f64 / vol;
    }

    /// Normalised g(r) samples: `(r_mid, g)` per bin.
    pub fn normalised(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        if self.frames == 0 || self.n_reference == 0 {
            return out;
        }
        let norm = self.frames as f64 * self.n_reference as f64 * self.density;
        for (i, &c) in self.counts.iter().enumerate() {
            let r_lo = i as f64 * self.bin_width;
            let r_hi = r_lo + self.bin_width;
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
            out.push((0.5 * (r_lo + r_hi), c / (norm * shell)));
        }
        out
    }

    /// Position and height of the first maximum of g(r) past `r_min`.
    pub fn first_peak(&self, r_min: f64) -> Option<(f64, f64)> {
        self.normalised()
            .into_iter()
            .filter(|(r, _)| *r >= r_min)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Mean-square displacement of selected atoms relative to reference
/// positions (diffusion estimates; unwrapped positions required, which is
/// how this crate stores them).
pub fn mean_square_displacement(
    reference: &[V3],
    current: &[V3],
    select: impl Fn(usize) -> bool,
) -> f64 {
    assert_eq!(reference.len(), current.len());
    let mut sum = 0.0;
    let mut n = 0usize;
    for i in 0..current.len() {
        if select(i) {
            sum += vec3::norm_sqr(vec3::sub(current[i], reference[i]));
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::water::{relax, water_box};

    #[test]
    fn ideal_gas_rdf_is_flat() {
        // Uniform random points: g(r) ≈ 1 everywhere.
        let mut sys = water_box(1, 1); // placeholder topology
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let box_l = 4.0;
        sys.box_l = [box_l; 3];
        sys.pos = (0..3000)
            .map(|_| [next() * box_l, next() * box_l, next() * box_l])
            .collect();
        sys.q = vec![0.0; 3000];
        sys.mass = vec![1.0; 3000];
        sys.lj = vec![Default::default(); 3000];
        sys.vel = vec![[0.0; 3]; 3000];
        sys.waters.clear();
        sys.exclusions.clear();
        let mut rdf = Rdf::new(40, 1.8);
        rdf.add_frame(&sys, |_| true);
        for (r, g) in rdf.normalised() {
            if r > 0.3 {
                assert!((g - 1.0).abs() < 0.25, "g({r:.2}) = {g:.2}");
            }
        }
    }

    #[test]
    fn relaxed_water_has_oo_structure() {
        // After steepest-descent relaxation the O–O g(r) must show the
        // signature of liquid/ordered water: depleted overlap region and a
        // first coordination peak near 0.26–0.36 nm.
        let mut sys = water_box(216, 3);
        relax(&mut sys, 150, 0.8);
        let mut rdf = Rdf::new(60, 0.9);
        let oxygens: Vec<bool> = (0..sys.len()).map(|i| i % 3 == 0).collect();
        rdf.add_frame(&sys, |i| oxygens[i]);
        // No oxygen pairs closer than ~0.24 nm.
        for (r, g) in rdf.normalised() {
            if r < 0.22 {
                assert!(g < 0.05, "overlap at r = {r:.3}: g = {g:.2}");
            }
        }
        let (r_peak, g_peak) = rdf.first_peak(0.2).unwrap();
        assert!(
            (0.24..=0.42).contains(&r_peak),
            "first peak at {r_peak:.3} nm"
        );
        assert!(g_peak > 1.5, "first peak height {g_peak:.2}");
    }

    #[test]
    fn msd_of_static_system_is_zero() {
        let sys = water_box(27, 5);
        let msd = mean_square_displacement(&sys.pos, &sys.pos, |_| true);
        assert_eq!(msd, 0.0);
    }

    #[test]
    fn msd_of_uniform_shift() {
        let sys = water_box(27, 5);
        let shifted: Vec<_> = sys.pos.iter().map(|r| [r[0] + 0.3, r[1], r[2]]).collect();
        let msd = mean_square_displacement(&sys.pos, &shifted, |_| true);
        assert!((msd - 0.09).abs() < 1e-12);
    }
}
