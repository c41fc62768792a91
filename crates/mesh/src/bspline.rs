//! Cardinal B-splines and the spline machinery of the TME.
//!
//! Everything in the paper's theory section is built from the order-`p`
//! central cardinal B-spline `M_p`:
//!
//! * charge assignment / back interpolation use `M_p` and `M_p'`
//!   (Eqs. 12–17; the hardware fixes `p = 6`),
//! * restriction / prolongation use the two-scale coefficients
//!   `J_m = 2^{1−p} C(p, p/2+|m|)` of the refinement relation
//!   `M_p(x) = Σ_m J_m M_p(2x − m)`,
//! * the grid kernels use the fundamental-spline interpolation
//!   coefficients `ω` (the convolutional inverse of the integer samples of
//!   `M_p`) and `ω' = ω * ω` (Eq. 8 and the surrounding text; numerical
//!   values of `ω'` are tabulated by Hardy et al.).
//!
//! Conventions: the *shifted* spline `M_p(u)` is supported on `(0, p)`
//! (Essmann et al. SPME convention); the *central* spline is
//! `M_p^c(x) = M_p(x + p/2)`, supported on `(−p/2, p/2)` (the paper's
//! convention). `p` must be even, matching the paper.

use tme_num::fft::Fft;
use tme_num::Complex64;

/// Run `$body` with `$P` bound to the order `$p` as a compile-time
/// constant: one instantiation per supported order (even, 2..=12), so
/// every loop over the support unrolls. [`BSpline::new`] and
/// [`crate::PswfWindow::new`] reject every other order.
macro_rules! with_order {
    ($p:expr, $P:ident => $body:expr) => {
        match $p {
            2 => {
                const $P: usize = 2;
                $body
            }
            4 => {
                const $P: usize = 4;
                $body
            }
            6 => {
                const $P: usize = 6;
                $body
            }
            8 => {
                const $P: usize = 8;
                $body
            }
            10 => {
                const $P: usize = 10;
                $body
            }
            _ => {
                const $P: usize = 12;
                $body
            }
        }
    };
}
pub(crate) use with_order;

/// Order-`p` cardinal B-spline evaluator (`p` even, ≥ 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BSpline {
    p: usize,
}

/// Fixed-capacity carrier for [`BSpline::weights_into`]: the `p` non-zero
/// spline weights and their derivatives for one axis, on the stack so the
/// per-atom CA/BI hot loops never allocate. Capacity 16 covers every
/// supported order (`p ≤ 12`).
#[derive(Clone, Copy, Debug)]
pub struct SplineWeights {
    pub(crate) m0: i64,
    pub(crate) p: usize,
    pub(crate) w: [f64; 16],
    pub(crate) dw: [f64; 16],
}

impl Default for SplineWeights {
    fn default() -> Self {
        Self {
            m0: 0,
            p: 0,
            w: [0.0; 16],
            dw: [0.0; 16],
        }
    }
}

impl SplineWeights {
    /// Grid index that weight 0 multiplies (`floor(u) − p/2 + 1`).
    #[must_use]
    pub fn m0(&self) -> i64 {
        self.m0
    }

    /// The `p` non-zero weights `M_p^c(u − m_i)`.
    #[must_use]
    pub fn w(&self) -> &[f64] {
        &self.w[..self.p]
    }

    /// The matching derivative weights `d/du M_p^c(u − m_i)`.
    #[must_use]
    pub fn dw(&self) -> &[f64] {
        &self.dw[..self.p]
    }
}

impl BSpline {
    pub fn new(p: usize) -> Self {
        assert!(
            p >= 2 && p.is_multiple_of(2),
            "spline order must be even and ≥ 2, got {p}"
        );
        assert!(
            p <= 12,
            "spline order {p} unsupported (two-scale binomials overflow checks)"
        );
        Self { p }
    }

    #[inline]
    pub fn order(&self) -> usize {
        self.p
    }

    /// Shifted spline `M_p(u)`, supported on `(0, p)` — Cox–de Boor
    /// recursion `M_k(u) = (u M_{k−1}(u) + (k−u) M_{k−1}(u−1))/(k−1)`.
    pub fn eval(&self, u: f64) -> f64 {
        eval_order(self.p, u)
    }

    /// Central spline `M_p^c(x) = M_p(x + p/2)`, supported on `(−p/2, p/2)`.
    pub fn eval_central(&self, x: f64) -> f64 {
        self.eval(x + self.p as f64 / 2.0)
    }

    /// The `p` non-zero central-spline values seen by a particle at
    /// fractional grid coordinate `u`: weight `i` multiplies grid point
    /// `m_i = floor(u) − p/2 + 1 + i`, and equals `M_p^c(u − m_i)`.
    ///
    /// Returns `(m_0, weights, dweights)` where `dweights` are the
    /// derivatives `d/du M_p^c(u − m_i)` used for forces (Eq. 16).
    ///
    /// Allocating convenience over [`BSpline::weights_into`]; the per-step
    /// hot loops use the `_into` form so they never touch the heap.
    pub fn weights(&self, u: f64) -> (i64, Vec<f64>, Vec<f64>) {
        let mut sw = SplineWeights::default();
        self.weights_into(u, &mut sw);
        (sw.m0(), sw.w().to_vec(), sw.dw().to_vec())
    }

    /// [`BSpline::weights`] written into a stack carrier — allocation-free.
    ///
    /// This is the functional model of the LRU polynomial pipeline, which
    /// "evaluate\[s\] M_p and M_p' on six grid points simultaneously".
    pub fn weights_into(&self, u: f64, out: &mut SplineWeights) {
        let p = self.p;
        let (fl, m0) = support_origin(u, p);
        let t = u - fl; // ∈ [0, 1)
        debug_assert!(p <= 15);
        // de Boor triangle: V_k[i] = M_k(t + i) for the k non-zero
        // translates, built iteratively in O(p²) — the software analogue
        // of the LRU's 12-stage polynomial pipeline (all values of M_p
        // and M_p' in one pass, §IV.A).
        let mut v = [0.0f64; 16]; // V_k, updated in place
        v[0] = 1.0; // V_1[0] = M_1(t) = 1 for t ∈ [0, 1)
        let mut v_prev_order = [0.0f64; 16]; // V_{p−1}, kept for derivatives
        for k in 2..=p {
            if k == p {
                v_prev_order[..k - 1].copy_from_slice(&v[..k - 1]);
            }
            let kf = k as f64;
            // Build V_k from V_{k−1} in place, descending i so v[i−1] is
            // still the previous order's value when read.
            for i in (0..k).rev() {
                let ti = t + i as f64;
                let a = if i < k - 1 { ti * v[i] } else { 0.0 };
                let b = if i > 0 { (kf - ti) * v[i - 1] } else { 0.0 };
                v[i] = (a + b) / (kf - 1.0);
            }
        }
        // w[i] = M_p(t + p−1−i) = V_p[p−1−i];
        // dw[i] = M_{p−1}(t + p−1−i) − M_{p−1}(t + p−2−i).
        out.m0 = m0;
        out.p = p;
        for i in 0..p {
            let j = p - 1 - i;
            out.w[i] = v[j];
            let hi = if j < p - 1 { v_prev_order[j] } else { 0.0 };
            let lo = if j > 0 { v_prev_order[j - 1] } else { 0.0 };
            out.dw[i] = hi - lo;
        }
    }

    /// [`BSpline::weights_into`] for four coordinates at once, lane `l`
    /// of `out` for `u[l]` — bit-identical to four scalar calls (see
    /// [`weights4`]). The order is dispatched once here; the transfer
    /// loops call [`weights4`] at their own compile-time order.
    pub fn weights_into4(&self, u: [f64; 4], out: &mut [SplineWeights; 4]) {
        with_order!(self.p, P => weights4::<P>(u, out));
    }

    /// Two-scale (refinement) coefficients `J_m`, `|m| ≤ p/2`, with
    /// `M_p(x) = Σ_m J_m M_p(2x − m)` and `J_m = 2^{1−p} C(p, p/2+|m|)`.
    ///
    /// Returned as a vector of length `p + 1` indexed by `m + p/2`.
    pub fn two_scale(&self) -> Vec<f64> {
        let p = self.p;
        let scale = (2.0f64).powi(1 - p as i32);
        (0..=p).map(|i| scale * binomial(p, i) as f64).collect()
    }

    /// Integer samples of the central spline, `a_m = M_p^c(m)` for
    /// `|m| ≤ p/2 − 1` — the sequence whose convolutional inverse is ω.
    ///
    /// Returned as a vector of length `p − 1` indexed by `m + p/2 − 1`.
    pub fn integer_samples(&self) -> Vec<f64> {
        let half = self.p as i64 / 2;
        (-(half - 1)..=(half - 1))
            .map(|m| self.eval_central(m as f64))
            .collect()
    }

    /// `ω' = ω * ω`, the coefficients the grid-kernel construction
    /// `G(α) = g(α) * ω * ω` needs (paper text after Eq. 8). `ω`, the
    /// fundamental-spline interpolation coefficients, is the convolutional
    /// inverse of [`Self::integer_samples`]; `ω'` inverts them convolved
    /// with themselves. Computed by deconvolution on a periodic ring large
    /// enough that the (exponentially decaying) coefficients wrap
    /// negligibly, then truncated at `tail_tol`.
    pub fn omega2(&self, tail_tol: f64) -> SymmetricSeq {
        self.ring_inverse(2, tail_tol)
    }

    /// Inverse (power `pow`) of the spline symbol on a ring of 256 points.
    fn ring_inverse(&self, pow: i32, tail_tol: f64) -> SymmetricSeq {
        const RING: usize = 256;
        let samples = self.integer_samples();
        let half = (samples.len() / 2) as i64;
        let mut buf = vec![Complex64::ZERO; RING];
        for (i, &s) in samples.iter().enumerate() {
            let m = i as i64 - half;
            buf[m.rem_euclid(RING as i64) as usize] = Complex64::new(s, 0.0);
        }
        let plan = Fft::new(RING);
        plan.forward(&mut buf);
        for z in &mut buf {
            // Symbol of an even-order central B-spline is real positive;
            // divide in the complex domain anyway for generality.
            let denom = z.norm_sqr().powi(pow);
            let zc = z.conj();
            let mut num = Complex64::ONE;
            for _ in 0..pow {
                num *= zc;
            }
            *z = num.scale(1.0 / denom);
        }
        plan.inverse(&mut buf);
        // Truncate the symmetric, exponentially decaying result.
        let mut halfn = RING as i64 / 2 - 1;
        while halfn > 0 && buf[halfn.rem_euclid(RING as i64) as usize].re.abs() < tail_tol {
            halfn -= 1;
        }
        let vals: Vec<f64> = (-halfn..=halfn)
            .map(|m| buf[m.rem_euclid(RING as i64) as usize].re)
            .collect();
        SymmetricSeq { half: halfn, vals }
    }
}

/// `(floor(u), floor(u) − p/2 + 1)`: the floor of a grid coordinate and
/// the first grid index of its `p`-point support. The one expression
/// behind every weight evaluation and the assignment's spatial bins, so
/// an atom's bin always holds the first plane its weights touch.
#[inline]
pub(crate) fn support_origin(u: f64, p: usize) -> (f64, i64) {
    let fl = u.floor();
    (fl, fl as i64 - (p as i64) / 2 + 1)
}

/// Four de Boor triangles side by side: lane `l` of `out` receives
/// exactly what [`BSpline::weights_into`] writes for `u[l]` at order
/// `P`. Every lane performs the scalar form's IEEE operations in the
/// scalar order — the same products, sums and divisions by `k − 1`, no
/// fused multiply-add, no reciprocal — so the weights are bit-identical;
/// the lanes are independent, so they run as SIMD, and the compile-time
/// order unrolls the triangle.
#[inline]
pub(crate) fn weights4<const P: usize>(u: [f64; 4], out: &mut [SplineWeights; 4]) {
    let mut t = [0.0f64; 4];
    for ((tl, &ul), o) in t.iter_mut().zip(&u).zip(out.iter_mut()) {
        let (fl, m0) = support_origin(ul, P);
        *tl = ul - fl;
        o.m0 = m0;
        o.p = P;
    }
    // v[i][l] = V_k[i] of lane l (see `weights_into`); vp keeps V_{P−1}.
    let mut v = [[0.0f64; 4]; P];
    v[0] = [1.0; 4];
    let mut vp = [[0.0f64; 4]; P];
    for k in 2..=P {
        if k == P {
            vp[..k - 1].copy_from_slice(&v[..k - 1]);
        }
        let kf = k as f64;
        for i in (0..k).rev() {
            let fi = i as f64;
            let lo = if i > 0 { v[i - 1] } else { [0.0; 4] };
            let vi = &mut v[i];
            for l in 0..4 {
                let ti = t[l] + fi;
                let a = if i < k - 1 { ti * vi[l] } else { 0.0 };
                let b = if i > 0 { (kf - ti) * lo[l] } else { 0.0 };
                vi[l] = (a + b) / (kf - 1.0);
            }
        }
    }
    for (l, o) in out.iter_mut().enumerate() {
        for i in 0..P {
            let j = P - 1 - i;
            o.w[i] = v[j][l];
            let hi = if j < P - 1 { vp[j][l] } else { 0.0 };
            let lo = if j > 0 { vp[j - 1][l] } else { 0.0 };
            o.dw[i] = hi - lo;
        }
    }
}

/// Cox–de Boor recursion evaluated directly:
/// `M_k(u) = (u M_{k−1}(u) + (k − u) M_{k−1}(u − 1)) / (k − 1)`.
///
/// The recursion tree has at most `2^{p−1}` leaves and `p ≤ 12`, so the
/// direct form stays cheap while being obviously correct; the weights of a
/// whole particle are still only a few hundred flops, the same order as the
/// LRU's 12-stage polynomial pipeline does in hardware.
fn eval_order(p: usize, u: f64) -> f64 {
    if p == 1 {
        // Indicator of the half-open cell [0, 1): the closed left end makes
        // the recursion exact at integer knots (atoms exactly on grid
        // points), where M_p for p ≥ 2 is continuous.
        return if (0.0..1.0).contains(&u) { 1.0 } else { 0.0 };
    }
    if u <= 0.0 || u >= p as f64 {
        return 0.0;
    }
    let k = p as f64;
    (u * eval_order(p - 1, u) + (k - u) * eval_order(p - 1, u - 1.0)) / (k - 1.0)
}

/// A symmetric integer-indexed sequence `s_m = s_{−m}` for `|m| ≤ half`.
#[derive(Clone, Debug)]
pub struct SymmetricSeq {
    half: i64,
    vals: Vec<f64>, // index m + half
}

impl SymmetricSeq {
    #[inline]
    pub fn half(&self) -> i64 {
        self.half
    }

    /// Value at integer index `m` (zero outside the stored range).
    #[inline]
    pub fn get(&self, m: i64) -> f64 {
        if m.abs() > self.half {
            0.0
        } else {
            self.vals[(m + self.half) as usize]
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        let half = self.half;
        self.vals
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as i64 - half, v))
    }
}

/// Binomial coefficient C(n, k) in exact integer arithmetic.
fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut r: u64 = 1;
    for i in 0..k {
        r = r * (n - i) as u64 / (i + 1) as u64;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_of_unity() {
        for p in [2usize, 4, 6, 8] {
            let sp = BSpline::new(p);
            for i in 0..50 {
                let u = i as f64 * 0.137 + 0.01;
                let (_, w, _) = sp.weights(u);
                let s: f64 = w.iter().sum();
                assert!((s - 1.0).abs() < 1e-13, "p={p} u={u} sum={s}");
            }
        }
    }

    #[test]
    fn derivative_weights_sum_to_zero() {
        for p in [4usize, 6, 8] {
            let sp = BSpline::new(p);
            for i in 0..20 {
                let u = i as f64 * 0.31 + 0.05;
                let (_, _, dw) = sp.weights(u);
                let s: f64 = dw.iter().sum();
                assert!(s.abs() < 1e-13, "p={p} u={u}");
            }
        }
    }

    #[test]
    fn known_integer_samples() {
        // Cubic (p = 4): central samples (1/6, 4/6, 1/6).
        let s4 = BSpline::new(4).integer_samples();
        assert_eq!(s4.len(), 3);
        assert!((s4[0] - 1.0 / 6.0).abs() < 1e-14);
        assert!((s4[1] - 4.0 / 6.0).abs() < 1e-14);
        // Quintic+1 (p = 6): (1, 26, 66, 26, 1)/120.
        let s6 = BSpline::new(6).integer_samples();
        assert_eq!(s6.len(), 5);
        for (got, want) in s6.iter().zip([1.0, 26.0, 66.0, 26.0, 1.0]) {
            assert!((got - want / 120.0).abs() < 1e-13, "{got} vs {want}/120");
        }
    }

    #[test]
    fn central_spline_is_even() {
        let sp = BSpline::new(6);
        for i in 0..30 {
            let x = i as f64 * 0.1;
            assert!((sp.eval_central(x) - sp.eval_central(-x)).abs() < 1e-14);
        }
    }

    #[test]
    fn spline_integrates_to_one() {
        // ∫ M_p = 1; midpoint rule on a fine grid.
        for p in [2usize, 4, 6, 8] {
            let sp = BSpline::new(p);
            let n = 20_000;
            let h = p as f64 / n as f64;
            let s: f64 = (0..n).map(|i| sp.eval((i as f64 + 0.5) * h)).sum::<f64>() * h;
            assert!((s - 1.0).abs() < 1e-9, "p={p} integral={s}");
        }
    }

    #[test]
    fn two_scale_relation_holds_pointwise() {
        for p in [4usize, 6, 8] {
            let sp = BSpline::new(p);
            let j = sp.two_scale();
            for i in 0..40 {
                let x = -(p as f64) / 2.0 + i as f64 * (p as f64) / 40.0;
                let direct = sp.eval_central(x);
                let refined: f64 = j
                    .iter()
                    .enumerate()
                    .map(|(idx, &jm)| {
                        let m = idx as i64 - p as i64 / 2;
                        jm * sp.eval_central(2.0 * x - m as f64)
                    })
                    .sum();
                assert!((direct - refined).abs() < 1e-13, "p={p} x={x}");
            }
        }
    }

    #[test]
    fn two_scale_sums_to_two() {
        // Σ J_m = 2 (consistency of refinement with ∫M = 1 at half spacing).
        for p in [2usize, 4, 6, 8] {
            let s: f64 = BSpline::new(p).two_scale().iter().sum();
            assert!((s - 2.0).abs() < 1e-13);
        }
    }

    /// `ω' = ω * ω` inverts the integer samples convolved with
    /// themselves: `Σ_k ω'_k (s * s)_{m−k} = δ_{m0}`.
    #[test]
    fn omega2_inverts_the_self_convolved_integer_samples() {
        for p in [4usize, 6, 8] {
            let sp = BSpline::new(p);
            let s = sp.integer_samples();
            let half = (s.len() / 2) as i64;
            let ss = |m: i64| -> f64 {
                (-half..=half)
                    .filter(|k| (m - k).abs() <= half)
                    .map(|k| s[(k + half) as usize] * s[(m - k + half) as usize])
                    .sum()
            };
            let om2 = sp.omega2(1e-16);
            for m in -6i64..=6 {
                let conv: f64 = om2.iter().map(|(k, w)| w * ss(m - k)).sum();
                let want = if m == 0 { 1.0 } else { 0.0 };
                assert!((conv - want).abs() < 1e-10, "p={p} m={m} got {conv}");
            }
        }
    }

    #[test]
    fn omega2_p6_matches_hardy_center_scale() {
        // ω'_0 for p = 6 computed here is ≈ 12.379 (cross-checked below by
        // the ω*ω identity and the δ-inversion property); assert the value
        // is stable and the alternating-decay structure Hardy et al.
        // tabulate holds.
        let om2 = BSpline::new(6).omega2(1e-16);
        let w0 = om2.get(0);
        assert!((w0 - 12.379_121_245).abs() < 1e-6, "ω'_0 = {w0}");
        for m in 0..6 {
            let a = om2.get(m);
            let b = om2.get(m + 1);
            assert!(a * b < 0.0, "ω' must alternate in sign at m={m}");
            assert!(a.abs() > b.abs(), "ω' must decay at m={m}");
        }
    }

    #[test]
    fn weights_triangle_matches_pointwise_recursion() {
        // The O(p²) de Boor triangle must agree with the direct recursive
        // evaluation at every offset, including derivative weights.
        for p in [2usize, 4, 6, 8, 10] {
            let sp = BSpline::new(p);
            for s in 0..25 {
                let u = -3.0 + s as f64 * 0.47;
                let (m0, w, dw) = sp.weights(u);
                for i in 0..p {
                    let arg = u - (m0 + i as i64) as f64 + p as f64 / 2.0;
                    assert!((w[i] - sp.eval(arg)).abs() < 1e-13, "p={p} u={u} i={i}");
                    // M_p'(u) = M_{p−1}(u) − M_{p−1}(u−1), which the
                    // central difference of `eval` confirms where the
                    // spline is smooth (p ≥ 4; the p = 2 hat has kinks).
                    let deriv = eval_order(p - 1, arg) - eval_order(p - 1, arg - 1.0);
                    assert!((dw[i] - deriv).abs() < 1e-13, "p={p} u={u} i={i}");
                    let h = 1e-6;
                    let numeric = (sp.eval(arg + h) - sp.eval(arg - h)) / (2.0 * h);
                    assert!(p < 4 || (deriv - numeric).abs() < 1e-8, "p={p} u={u} i={i}");
                }
            }
        }
    }

    #[test]
    fn weights_localised_around_particle() {
        let sp = BSpline::new(6);
        let u = 10.37;
        let (m0, w, _) = sp.weights(u);
        assert_eq!(m0, 8);
        // All six weights positive; the largest nearest the particle.
        assert!(w.iter().all(|&x| x > 0.0));
        let imax = (0..6).max_by(|&a, &b| w[a].total_cmp(&w[b])).unwrap();
        let grid = m0 + imax as i64;
        assert!((grid as f64 - u).abs() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_order_rejected() {
        let _ = BSpline::new(5);
    }
}
