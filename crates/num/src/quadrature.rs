//! Gauss–Legendre quadrature on `[-1, 1]`.
//!
//! The TME middle-range shell (paper Eq. 6) is the exact integral
//!
//! ```text
//! g_{α,l}(r) = (1/2^{l-1}) (α/(2√π)) ∫_{-1}^{1} exp(-(((-u+3)/4) α r / 2^{l-1})²) du
//! ```
//!
//! which the paper approximates with the M-point Gauss–Legendre rule
//! (Eq. 7): nodes `u_ν` and weights `w_ν` become Gaussian exponents
//! `α_ν = ((−u_ν + 3)/4) α` and coefficients `c_ν = (α/(2√π)) w_ν`.
//!
//! Nodes are the roots of the Legendre polynomial `P_M`, found by Newton
//! iteration from the Tricomi initial guess; weights are
//! `w = 2 / ((1 − x²) P'_M(x)²)`.

/// A Gauss–Legendre rule: `nodes[i]` ∈ (−1, 1) ascending, matching `weights`.
#[derive(Clone, Debug)]
pub struct GaussLegendre {
    pub nodes: Vec<f64>,
    pub weights: Vec<f64>,
}

impl GaussLegendre {
    /// Build the `n`-point rule. Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "quadrature order must be at least 1");
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        // Roots come in ± pairs; compute the non-negative half.
        let m = n.div_ceil(2);
        for i in 0..m {
            // Tricomi/Chebyshev initial guess for the (i+1)-th root from the top.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            for _ in 0..100 {
                let (p, d) = legendre_and_derivative(n, x);
                let dx = p / d;
                x -= dx;
                if dx.abs() < 1e-16 {
                    break;
                }
            }
            // One clean-up iteration for full double precision.
            let (p, d) = legendre_and_derivative(n, x);
            x -= p / d;
            let dp = legendre_and_derivative(n, x).1;
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            nodes[n - 1 - i] = x;
            weights[n - 1 - i] = w;
            nodes[i] = -x;
            weights[i] = w;
        }
        if n % 2 == 1 {
            // The middle node of an odd rule is exactly 0.
            nodes[n / 2] = 0.0;
            let d = legendre_and_derivative(n, 0.0).1;
            weights[n / 2] = 2.0 / (d * d);
        }
        Self { nodes, weights }
    }

    /// Approximate `∫_{-1}^{1} f(u) du`.
    pub fn integrate(&self, mut f: impl FnMut(f64) -> f64) -> f64 {
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(x))
            .sum()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// `(P_n(x), P'_n(x))` via the three-term recurrence.
fn legendre_and_derivative(n: usize, x: f64) -> (f64, f64) {
    let mut p0 = 1.0; // P_0
    let mut p1 = x; // P_1
    if n == 0 {
        return (1.0, 0.0);
    }
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    // P'_n(x) = n (x P_n − P_{n−1}) / (x² − 1)
    let d = n as f64 * (x * p1 - p0) / (x * x - 1.0);
    (p1, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_point_rule_is_exact() {
        let q = GaussLegendre::new(2);
        let s = 1.0 / 3f64.sqrt();
        assert!((q.nodes[0] + s).abs() < 1e-15);
        assert!((q.nodes[1] - s).abs() < 1e-15);
        assert!((q.weights[0] - 1.0).abs() < 1e-15);
        assert!((q.weights[1] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn three_point_rule_matches_closed_form() {
        let q = GaussLegendre::new(3);
        assert!((q.nodes[1]).abs() < 1e-15);
        assert!((q.nodes[2] - (0.6f64).sqrt()).abs() < 1e-15);
        assert!((q.weights[1] - 8.0 / 9.0).abs() < 1e-15);
        assert!((q.weights[0] - 5.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn weights_sum_to_two() {
        for n in 1..=64 {
            let q = GaussLegendre::new(n);
            let s: f64 = q.weights.iter().sum();
            assert!((s - 2.0).abs() < 1e-13, "n={n}, sum={s}");
        }
    }

    #[test]
    fn exact_for_polynomials_up_to_degree_2n_minus_1() {
        for n in 1..=10 {
            let q = GaussLegendre::new(n);
            for deg in 0..2 * n {
                let val = q.integrate(|x| x.powi(deg as i32));
                let exact = if deg % 2 == 1 {
                    0.0
                } else {
                    2.0 / (deg as f64 + 1.0)
                };
                assert!(
                    (val - exact).abs() < 1e-13,
                    "n={n} deg={deg} got={val} want={exact}"
                );
            }
        }
    }

    #[test]
    fn nodes_ascending_and_inside_interval() {
        for n in 1..=40 {
            let q = GaussLegendre::new(n);
            for w in q.nodes.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(q.nodes.iter().all(|x| x.abs() < 1.0));
            assert!(q.weights.iter().all(|w| *w > 0.0));
        }
    }

    #[test]
    fn integrates_gaussian_accurately() {
        // ∫_{-1}^{1} e^{-x²} dx = √π erf(1)
        let exact = crate::special::SQRT_PI * crate::special::erf(1.0);
        let q = GaussLegendre::new(12);
        let got = q.integrate(|x| (-x * x).exp());
        assert!((got - exact).abs() < 1e-14);
    }
}
