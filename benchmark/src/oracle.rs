//! The benchmark's own correctness oracle: a direct Ewald sum evaluated
//! only for a sample of atoms.
//!
//! It shares no code with the solvers it checks — its own `erfc`, its own
//! lattice sum — so an error common to the repository's Ewald reference
//! and its mesh solvers cannot hide. The real-space part runs under the
//! minimum image at `r_c = min(L)/2`; α and the reciprocal cutoff are
//! chosen so both Kolafa–Perram force-error factors, `exp(−α²r_c²)` and
//! `exp(−(π n_c / (α L))²)`, fall below [`ORACLE_TOL`]. Cost is
//! `O(N · n_c³)` for the structure factors plus `O(|sample| · N)` pairs,
//! which is what makes a 98,319-atom box checkable in seconds. It runs
//! after the timed phase, on `threads` scoped threads.

use crate::gen::V3;
use std::f64::consts::PI;

/// Bound on both Kolafa–Perram error factors of the oracle.
pub const ORACLE_TOL: f64 = 1e-9;

/// `erfc(x)` for `x ≥ 0` to ~1e-13 absolute: Maclaurin series of `erf`
/// below 3, backward continued fraction above. Slow (tens of terms); the
/// pair loop goes through [`ErfcTable`].
pub fn erfc(x: f64) -> f64 {
    debug_assert!(x >= 0.0);
    if x < 3.0 {
        // erf(x) = 2/√π Σ (−1)ⁿ x^(2n+1) / (n! (2n+1))
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        let mut n = 0.0;
        while term.abs() > 1e-17 * sum.abs() {
            n += 1.0;
            term *= -x2 / n;
            sum += term / (2.0 * n + 1.0);
        }
        1.0 - 2.0 / PI.sqrt() * sum
    } else {
        // erfc(x) = e^(−x²)/√π · 1/(x + ½/(x + 1/(x + 3⁄2/(x + …))))
        let mut tail = x;
        for k in (1..=60).rev() {
            tail = x + 0.5 * f64::from(k) / tail;
        }
        (-x * x).exp() / (PI.sqrt() * tail)
    }
}

/// `erfc(x)` and `e^(−x²)` on `[0, x_max]` from nodes 1/32 apart: with
/// `f(t) = e^(−(x_k+t)²)/e^(−x_k²) = Σ cₙ tⁿ` (from `f' = −2(x_k + t) f`:
/// `c₀ = 1`, `cₙ₊₁ = −2 (x_k cₙ + cₙ₋₁)/(n+1)`), `e^(−x²)` is
/// `e^(−x_k²)·f(h)` and `erfc(x)` is the exact `erfc(x_k)` minus
/// `2/√π·e^(−x_k²)·∫₀ʰ f`. Ten terms reach ~1e-14 for `x_k ≤ 6`, with no
/// call into libm in the pair loop.
pub struct ErfcTable {
    /// `erfc(x_k)`.
    erfc: Vec<f64>,
    /// `e^(−x_k²)`.
    gauss: Vec<f64>,
}

const ERFC_NODES_PER_UNIT: f64 = 32.0;
const ERFC_TERMS: usize = 10;
/// `1/(n+1)` for the recurrence and the term-wise integral.
const INV: [f64; ERFC_TERMS] = [
    1.0,
    1.0 / 2.0,
    1.0 / 3.0,
    1.0 / 4.0,
    1.0 / 5.0,
    1.0 / 6.0,
    1.0 / 7.0,
    1.0 / 8.0,
    1.0 / 9.0,
    1.0 / 10.0,
];

impl ErfcTable {
    pub fn new(x_max: f64) -> Self {
        let nodes = (x_max * ERFC_NODES_PER_UNIT).ceil() as usize + 2;
        let x = |k: usize| k as f64 / ERFC_NODES_PER_UNIT;
        Self {
            erfc: (0..nodes).map(|k| erfc(x(k))).collect(),
            gauss: (0..nodes).map(|k| (-x(k) * x(k)).exp()).collect(),
        }
    }

    /// `(erfc(x), e^(−x²))` for `0 ≤ x ≤ x_max`.
    pub fn eval(&self, x: f64) -> (f64, f64) {
        let k = (x * ERFC_NODES_PER_UNIT + 0.5) as usize;
        let xk = k as f64 / ERFC_NODES_PER_UNIT;
        let h = x - xk;
        let (mut c_prev, mut c) = (0.0, 1.0);
        let mut h_pow = 1.0;
        let (mut f, mut integral) = (0.0, 0.0);
        for inv in INV {
            f += c * h_pow;
            h_pow *= h;
            integral += c * h_pow * inv;
            let c_next = -2.0 * (xk * c + c_prev) * inv;
            c_prev = c;
            c = c_next;
        }
        let two_over_sqrt_pi = 2.0 / PI.sqrt();
        (
            self.erfc[k] - two_over_sqrt_pi * self.gauss[k] * integral,
            self.gauss[k] * f,
        )
    }
}

/// Direct Ewald sum for a subset of atoms of one periodic box.
#[derive(Clone, Copy, Debug)]
pub struct SubsetEwald {
    pub box_l: V3,
    pub alpha: f64,
    pub r_cut: f64,
    pub n_cut: i32,
}

/// One reciprocal vector of the half space with its structure factor.
struct Mode {
    n: [i32; 3],
    s_re: f64,
    s_im: f64,
}

/// `cos`/`sin(2π m x / L)` for `m = 0..=n_cut`, atom-contiguous per `m`.
struct Phases {
    cos: Vec<f64>,
    sin: Vec<f64>,
    atoms: usize,
}

impl Phases {
    fn new(pos: &[V3], axis: usize, edge: f64, n_cut: i32) -> Self {
        let atoms = pos.len();
        let mut cos = Vec::with_capacity(atoms * (n_cut as usize + 1));
        let mut sin = Vec::with_capacity(atoms * (n_cut as usize + 1));
        for m in 0..=n_cut {
            let w = 2.0 * PI * f64::from(m) / edge;
            for p in pos {
                let (s, c) = (w * p[axis]).sin_cos();
                cos.push(c);
                sin.push(s);
            }
        }
        Self { cos, sin, atoms }
    }

    /// `(cos, sin)` columns of signed mode `m` (`sin` sign applied by the
    /// caller through the returned factor).
    fn column(&self, m: i32) -> (&[f64], &[f64], f64) {
        let lo = m.unsigned_abs() as usize * self.atoms;
        let sign = if m < 0 { -1.0 } else { 1.0 };
        (
            &self.cos[lo..lo + self.atoms],
            &self.sin[lo..lo + self.atoms],
            sign,
        )
    }

    /// `e^{2πi m x_j / L}` of atom `j`.
    fn at(&self, m: i32, j: usize) -> (f64, f64) {
        let (c, s, sign) = self.column(m);
        (c[j], sign * s[j])
    }
}

impl SubsetEwald {
    /// Oracle parameters for `box_l` at [`ORACLE_TOL`].
    pub fn for_box(box_l: V3) -> Self {
        Self::with_tolerance(box_l, ORACLE_TOL)
    }

    /// Oracle parameters with both error factors below `tol`.
    pub fn with_tolerance(box_l: V3, tol: f64) -> Self {
        let l_min = box_l.iter().copied().fold(f64::INFINITY, f64::min);
        let l_max = box_l.iter().copied().fold(0.0, f64::max);
        let reach = (-tol.ln()).sqrt();
        let r_cut = l_min / 2.0;
        let alpha = reach / r_cut;
        let n_cut = (reach * alpha * l_max / PI).ceil() as i32;
        Self {
            box_l,
            alpha,
            r_cut,
            n_cut,
        }
    }

    /// Coulomb forces (reduced units, no exclusions) on the atoms listed in
    /// `sample`, in that order.
    pub fn forces(&self, pos: &[V3], q: &[f64], sample: &[usize], threads: usize) -> Vec<V3> {
        let threads = threads.max(1);
        let mut out = self.real_space(pos, q, sample, threads);
        let phases = [
            Phases::new(pos, 0, self.box_l[0], self.n_cut),
            Phases::new(pos, 1, self.box_l[1], self.n_cut),
            Phases::new(pos, 2, self.box_l[2], self.n_cut),
        ];
        let modes = self.structure_factors(q, &phases, threads);
        let volume = self.box_l[0] * self.box_l[1] * self.box_l[2];
        for (f, &i) in out.iter_mut().zip(sample) {
            let mut acc = [0.0; 3];
            for mode in &modes {
                let k: V3 =
                    std::array::from_fn(|a| 2.0 * PI * f64::from(mode.n[a]) / self.box_l[a]);
                let k2 = k.iter().map(|c| c * c).sum::<f64>();
                let (xr, xi) = phases[0].at(mode.n[0], i);
                let (yr, yi) = phases[1].at(mode.n[1], i);
                let (zr, zi) = phases[2].at(mode.n[2], i);
                let (xyr, xyi) = (xr * yr - xi * yi, xr * yi + xi * yr);
                let (er, ei) = (xyr * zr - xyi * zi, xyr * zi + xyi * zr);
                // Im[conj(S) e^{ik·r_i}]
                let im = mode.s_re * ei - mode.s_im * er;
                let c = (-k2 / (4.0 * self.alpha * self.alpha)).exp() / k2 * im;
                for a in 0..3 {
                    acc[a] += c * k[a];
                }
            }
            // Half space ⇒ ×2 on top of 4π q_i / V.
            let scale = 8.0 * PI * q[i] / volume;
            for a in 0..3 {
                f[a] += scale * acc[a];
            }
        }
        out
    }

    /// Screened pair forces on the sampled atoms under the minimum image.
    fn real_space(&self, pos: &[V3], q: &[f64], sample: &[usize], threads: usize) -> Vec<V3> {
        let mut out = vec![[0.0; 3]; sample.len()];
        let chunk = sample.len().div_ceil(threads).max(1);
        let two_a_sqrt_pi = 2.0 * self.alpha / PI.sqrt();
        let table = &ErfcTable::new(self.alpha * self.r_cut);
        // Wrapped once into [0, L), so that a single ±L shift per axis is
        // the minimum image.
        let box_l = self.box_l;
        let pos: &Vec<V3> = &pos
            .iter()
            .map(|p| std::array::from_fn(|a| p[a].rem_euclid(box_l[a])))
            .collect();
        std::thread::scope(|scope| {
            for (idx, dst) in sample.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (&i, f) in idx.iter().zip(dst) {
                        let ri = pos[i];
                        for (j, rj) in pos.iter().enumerate() {
                            if j == i {
                                continue;
                            }
                            let mut d = [0.0; 3];
                            let mut r2 = 0.0;
                            for a in 0..3 {
                                let l = self.box_l[a];
                                d[a] = ri[a] - rj[a];
                                if d[a] > 0.5 * l {
                                    d[a] -= l;
                                } else if d[a] < -0.5 * l {
                                    d[a] += l;
                                }
                                r2 += d[a] * d[a];
                            }
                            if r2 >= self.r_cut * self.r_cut {
                                continue;
                            }
                            let r = r2.sqrt();
                            let (erfc_ar, gauss_ar) = table.eval(self.alpha * r);
                            let g = (erfc_ar / r + two_a_sqrt_pi * gauss_ar) / r2;
                            let s = q[i] * q[j] * g;
                            for a in 0..3 {
                                f[a] += s * d[a];
                            }
                        }
                    }
                });
            }
        });
        out
    }

    /// `S(k) = Σ_j q_j e^{ik·r_j}` for every half-space vector with
    /// `|n| ≤ n_cut`, the `(n_x, n_y)` columns split over `threads`.
    fn structure_factors(&self, q: &[f64], phases: &[Phases; 3], threads: usize) -> Vec<Mode> {
        let nc = self.n_cut;
        let mut columns: Vec<(i32, i32)> = Vec::new();
        for nx in 0..=nc {
            for ny in -nc..=nc {
                if nx * nx + ny * ny <= nc * nc && (nx > 0 || ny >= 0) {
                    columns.push((nx, ny));
                }
            }
        }
        let chunk = columns.len().div_ceil(threads).max(1);
        let mut modes = Vec::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = columns
                .chunks(chunk)
                .map(|cols| scope.spawn(move || self.column_modes(q, phases, cols)))
                .collect();
            for w in workers {
                modes.extend(w.join().expect("oracle worker panicked"));
            }
        });
        modes
    }

    fn column_modes(&self, q: &[f64], phases: &[Phases; 3], cols: &[(i32, i32)]) -> Vec<Mode> {
        let atoms = q.len();
        let nc = self.n_cut;
        let mut a_re = vec![0.0; atoms];
        let mut a_im = vec![0.0; atoms];
        let mut modes = Vec::new();
        for &(nx, ny) in cols {
            let (xc, xs, x_sign) = phases[0].column(nx);
            let (yc, ys, y_sign) = phases[1].column(ny);
            for j in 0..atoms {
                let (xr, xi) = (xc[j], x_sign * xs[j]);
                let (yr, yi) = (yc[j], y_sign * ys[j]);
                a_re[j] = q[j] * (xr * yr - xi * yi);
                a_im[j] = q[j] * (xr * yi + xi * yr);
            }
            let nz_max = f64::from(nc * nc - nx * nx - ny * ny).sqrt().floor() as i32;
            for nz in 0..=nz_max {
                if nx == 0 && ny == 0 && nz == 0 {
                    continue;
                }
                let (zc, zs, _) = phases[2].column(nz);
                let (mut p, mut qq, mut r, mut t) = (0.0, 0.0, 0.0, 0.0);
                for j in 0..atoms {
                    p += a_re[j] * zc[j];
                    qq += a_im[j] * zs[j];
                    r += a_re[j] * zs[j];
                    t += a_im[j] * zc[j];
                }
                modes.push(Mode {
                    n: [nx, ny, nz],
                    s_re: p - qq,
                    s_im: r + t,
                });
                // −n_z is its own half-space member unless it is the
                // mirror of a vector already taken (n_x = n_y = 0).
                if nz > 0 && (nx > 0 || ny > 0) {
                    modes.push(Mode {
                        n: [nx, ny, -nz],
                        s_re: p + qq,
                        s_im: t - r,
                    });
                }
            }
        }
        modes
    }
}

/// Running sums of the relative RMS deviation
/// `sqrt(Σ|test − ref|² / Σ|ref|²)`, so that several frames or replies
/// pool into one figure weighted by their forces.
#[derive(Clone, Copy, Debug, Default)]
pub struct RmsError {
    num: f64,
    den: f64,
}

impl RmsError {
    pub fn add(&mut self, test: &[V3], reference: &[V3]) {
        for (t, r) in test.iter().zip(reference) {
            for a in 0..3 {
                self.num += (t[a] - r[a]).powi(2);
                self.den += r[a] * r[a];
            }
        }
    }

    /// `NaN` before anything was added.
    pub fn value(&self) -> f64 {
        (self.num / self.den).sqrt()
    }
}

/// Relative RMS deviation of one set of forces.
pub fn relative_rms_error(test: &[V3], reference: &[V3]) -> f64 {
    let mut err = RmsError::default();
    err.add(test, reference);
    err.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{water_box, water_edge, SplitMix64};
    use std::sync::Arc;
    use tme_mesh::{CoulombResult, CoulombSystem};
    use tme_reference::{Ewald, EwaldParams};

    /// The repository's reference Ewald forces. On a pool of its own:
    /// tests run on parallel threads and `tme_num::Pool` does not support
    /// two threads dispatching on one pool (the global one) at once.
    fn reference_forces(system: &CoulombSystem) -> Vec<V3> {
        let ewald = Ewald::new(EwaldParams::reference_quality(system.box_l, 1e-15));
        let mut scratch = ewald.make_scratch(Arc::new(tme_num::Pool::new(1)));
        let mut out = CoulombResult::default();
        ewald.compute_into(system, &mut scratch, &mut out);
        out.forces
    }

    #[test]
    fn erfc_matches_the_repository_special_function() {
        let table = ErfcTable::new(6.0);
        for i in 0..6000 {
            let x = f64::from(i) * 0.001;
            let want = tme_num::special::erfc(x);
            assert!((erfc(x) - want).abs() < 1e-12, "series at x = {x}");
            let (got, gauss) = table.eval(x);
            assert!((got - want).abs() < 1e-12, "table at x = {x}");
            assert!((gauss - (-x * x).exp()).abs() < 1e-13, "gauss at x = {x}");
        }
    }

    #[test]
    fn agrees_with_the_reference_ewald_on_64_waters() {
        let edge = water_edge(64);
        let (pos, q) = water_box(64, edge, &mut SplitMix64::new(21));
        let system = CoulombSystem::new(pos.clone(), q.clone(), [edge; 3]);
        let want = reference_forces(&system);
        let sample: Vec<usize> = (0..pos.len()).step_by(5).collect();
        let oracle = SubsetEwald::for_box([edge; 3]);
        for threads in [1, 2] {
            let got = oracle.forces(&pos, &q, &sample, threads);
            let want_sampled: Vec<V3> = sample.iter().map(|&i| want[i]).collect();
            let err = relative_rms_error(&got, &want_sampled);
            assert!(err < 1e-9, "{threads} threads: {err:e}");
        }
    }

    #[test]
    fn handles_a_non_cubic_box() {
        let box_l = [2.0, 2.4, 2.9];
        let mut rng = SplitMix64::new(4);
        let pos: Vec<V3> = (0..40)
            .map(|_| {
                [
                    rng.range(0.0, box_l[0]),
                    rng.range(0.0, box_l[1]),
                    rng.range(0.0, box_l[2]),
                ]
            })
            .collect();
        let q: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let system = CoulombSystem::new(pos.clone(), q.clone(), box_l);
        let want = reference_forces(&system);
        let sample: Vec<usize> = (0..40).collect();
        let got = SubsetEwald::for_box(box_l).forces(&pos, &q, &sample, 2);
        assert!(relative_rms_error(&got, &want) < 1e-8);
    }
}
