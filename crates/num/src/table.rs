//! Segmented-polynomial tables for the Ewald pair kernels.
//!
//! MDGRAPE-4A never evaluates transcendentals in its force pipelines: the
//! nonbond units implement `g(r²)` by *segmented table lookup with
//! polynomial interpolation* (paper §II — the same structure the earlier
//! MDGRAPE generations and Anton's pairwise point interaction modules use).
//! This module mirrors that design in software. The independent variable is
//! `s = r²` — exactly what the hardware uses, because the pair distance is
//! produced as a squared norm and a square root would cost another pipeline
//! stage.
//!
//! Two smooth functions are tabulated over uniform segments of `[0, r_max²]`
//! as degree-[`DEG`] polynomials fit at Chebyshev nodes:
//!
//! * `V(s) = erf(α√s)/√s` — the long-range (mesh-complement) energy kernel;
//!   analytic in `s` with `V(0) = 2α/√π`.
//! * `F(s) = (V(s) − (2α/√π)·e^{−α²s})/s` — its radial force factor, also
//!   analytic with `F(0) = (2α/√π)·2α²/3`.
//!
//! Both short- and long-range kernels derive from the pair:
//!
//! * `erf(αr)/r` energy/force = `(V, F)` directly — no square root at all;
//! * `erfc(αr)/r` energy/force = `(1/r − V, 1/r³ − F)` — one square root,
//!   using `erfc = 1 − erf` exactly (the complement identity in `s`).
//!
//! The fit error is ~1 ulp (see the error budget in DESIGN.md §10): with
//! segments of width `Δ(α²s) ≤ 1/8` the degree-8 Chebyshev remainder is
//! below 1e-16 relative, so the table is *more* accurate than the A&S
//! rational approximation previously used in the MD inner loops while
//! costing no `exp`/`erf` at all. The exact series/continued-fraction path
//! ([`crate::special`]) stays as the reference oracle; property tests bound
//! the table against it at ≤1e-10 relative energy error over `[0, r_cut]`.

use crate::cast::floor_usize;
use crate::special::{erf, TWO_OVER_SQRT_PI};

/// Polynomial degree per segment (9 coefficients, Horner-evaluated).
pub const DEG: usize = 8;
const NCOEF: usize = DEG + 1;

/// Per-segment coefficient block: `(V_k, F_k)` pairs in ascending `k`, so
/// one 16-byte load fetches both Horner chains' next coefficient and one
/// cache line covers most of a lookup.
type Segment = [f64; 2 * NCOEF];

/// Tabulated `erf(αr)/r` / `erfc(αr)/r` energy+force pair kernels on
/// `r ∈ [0, r_max]`, indexed by `r²`.
///
/// Built once at plan time ([`PairKernelTable::new`]); lookups are pure
/// float arithmetic (segment index, two Horner chains) and therefore
/// bitwise-deterministic regardless of thread count.
#[derive(Clone, Debug)]
pub struct PairKernelTable {
    alpha: f64,
    r_max: f64,
    s_max: f64,
    /// Segments per unit `s`: `idx = floor(s · inv_h)`.
    inv_h: f64,
    segs: Vec<Segment>,
}

impl PairKernelTable {
    /// Build the table for splitting parameter `alpha` covering pair
    /// distances up to `r_max` (use the neighbour-list cutoff, not the
    /// force cutoff, so every listed pair is in range).
    ///
    /// Segment width is chosen so `Δ(α²s) ≤ 1/8`, keeping the degree-8
    /// Chebyshev fit at ulp-level accuracy for any `alpha`.
    pub fn new(alpha: f64, r_max: f64) -> Self {
        // α = 0 is allowed: V ≡ F ≡ 0 and the erfc kernel degenerates to
        // the bare Coulomb 1/r — what an unscreened cutoff solver needs.
        assert!(
            alpha >= 0.0 && r_max > 0.0 && alpha.is_finite() && r_max.is_finite(),
            "PairKernelTable needs finite positive r_max ({r_max}) and alpha ≥ 0 ({alpha})"
        );
        let s_max = r_max * r_max;
        let u_max = alpha * alpha * s_max;
        let n_seg = ((u_max * 8.0).ceil().max(32.0) as usize).min(4096); // lint:allow(l1) — bounded by the min/max clamps
        let h = s_max / n_seg as f64;
        let inv_h = n_seg as f64 / s_max;
        let mut segs = Vec::with_capacity(n_seg);
        for i in 0..n_seg {
            let lo = i as f64 * h;
            let mut seg = [0.0; 2 * NCOEF];
            let v_fit = fit_segment(lo, h, |s| v_exact(alpha, s));
            let f_fit = fit_segment(lo, h, |s| f_exact(alpha, s));
            for (pair, (v, f)) in seg.chunks_exact_mut(2).zip(v_fit.iter().zip(&f_fit)) {
                pair.copy_from_slice(&[*v, *f]);
            }
            segs.push(seg);
        }
        Self {
            alpha,
            r_max,
            s_max,
            inv_h,
            segs,
        }
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Largest pair distance the table covers (lookups beyond it clamp to
    /// the last segment and lose accuracy — callers cut off before this).
    pub fn r_max(&self) -> f64 {
        self.r_max
    }

    /// Whether a squared distance lies inside the tabulated range — callers
    /// with unbounded pair distances (exclusion corrections on stretched
    /// bonded pairs) fall back to the exact kernel outside it.
    #[inline]
    pub fn covers(&self, r2: f64) -> bool {
        r2 <= self.s_max
    }

    /// Raw tabulated pair `(V(s), F(s))` at `s = r²` — two Horner chains
    /// over one segment's coefficient block.
    #[inline]
    pub fn eval_vf(&self, s: f64) -> (f64, f64) {
        debug_assert!(
            s >= 0.0 && s <= self.s_max * (1.0 + 1e-9),
            "table lookup outside [0, r_max²]: s = {s}, s_max = {}",
            self.s_max
        );
        let x = s * self.inv_h;
        let i = floor_usize(x).min(self.segs.len() - 1);
        // Local Chebyshev variable t ∈ [−1, 1] within segment i.
        let t = 2.0 * (x - i as f64) - 1.0;
        let c = &self.segs[i];
        let mut v = c[2 * DEG];
        let mut f = c[2 * DEG + 1];
        for k in (0..DEG).rev() {
            v = v * t + c[2 * k];
            f = f * t + c[2 * k + 1];
        }
        (v, f)
    }

    /// Long-range kernel at squared distance `r2`: returns
    /// `(erf(αr)/r, (erf(αr)/r − 2α/√π·e^{−α²r²})/r²)` — energy and radial
    /// force factor, with *no* square root (both are smooth in `r²`).
    #[inline]
    pub fn erf_kernel_r2(&self, r2: f64) -> (f64, f64) {
        self.eval_vf(r2)
    }

    /// Short-range kernel at squared distance `r2`: returns
    /// `(erfc(αr)/r, erfc(αr)/r³ + 2α/√π·e^{−α²r²}/r²)` via the exact
    /// complement `erfc/r = 1/r − erf/r` — one square root per pair.
    #[inline]
    pub fn erfc_kernel_r2(&self, r2: f64) -> (f64, f64) {
        let (v, f) = self.eval_vf(r2);
        let inv_r = 1.0 / r2.sqrt();
        let inv_r3 = inv_r * inv_r * inv_r;
        (inv_r - v, inv_r3 - f)
    }

    /// [`Self::erfc_kernel_r2`] over a whole buffer of squared distances:
    /// `(e[k], f[k]) = erfc_kernel_r2(r2[k])`, bit for bit, for every `k`.
    /// The cell-list pair kernel compacts its cutoff hits into `r2` and
    /// evaluates them here in one straight-line pass; where the CPU has
    /// AVX2 (detected per call — there is no other switch) whole quads run
    /// four lanes wide.
    ///
    /// Panics if the three slices differ in length.
    pub fn erfc_kernel_r2_batch(&self, r2: &[f64], e: &mut [f64], f: &mut [f64]) {
        assert!(
            e.len() == r2.len() && f.len() == r2.len(),
            "batch buffers differ in length"
        );
        #[cfg(target_arch = "x86_64")]
        let done = if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the running CPU just above.
            unsafe { self.erfc_batch_avx2(r2, e, f) }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        self.erfc_batch_scalar(&r2[done..], &mut e[done..], &mut f[done..]);
    }

    /// The portable batch body, and the tail of the AVX2 one.
    fn erfc_batch_scalar(&self, r2: &[f64], e: &mut [f64], f: &mut [f64]) {
        for ((&s, e), f) in r2.iter().zip(e).zip(f) {
            (*e, *f) = self.erfc_kernel_r2(s);
        }
    }

    /// Four-lane [`Self::erfc_kernel_r2`] over the leading whole quads of
    /// `r2`; returns how many elements it wrote. Every lane performs the
    /// scalar path's IEEE operations in the scalar path's order — one
    /// `mul`, truncation, two separate `mul`/`add` Horner chains, `sqrt`,
    /// `div`, no FMA — so the lanes are bitwise equal to scalar calls.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn erfc_batch_avx2(&self, r2: &[f64], e: &mut [f64], f: &mut [f64]) -> usize {
        use std::arch::x86_64::{
            __m128i, _mm256_add_pd, _mm256_castpd128_pd256, _mm256_cvtepi32_pd,
            _mm256_cvttpd_epi32, _mm256_div_pd, _mm256_insertf128_pd, _mm256_loadu_pd,
            _mm256_max_pd, _mm256_min_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
            _mm256_sqrt_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd,
            _mm256_unpacklo_pd, _mm_loadu_pd, _mm_storeu_si128,
        };
        let quads = r2.len() / 4 * 4;
        let (e, f) = (&mut e[..quads], &mut f[..quads]);
        let last = (self.segs.len() - 1) as f64;
        let (inv_h, one, two) = (
            _mm256_set1_pd(self.inv_h),
            _mm256_set1_pd(1.0),
            _mm256_set1_pd(2.0),
        );
        for k in (0..quads).step_by(4) {
            // SAFETY: `k + 4 <= quads <= r2.len()`; unaligned load.
            let s = unsafe { _mm256_loadu_pd(r2.as_ptr().add(k)) };
            let x = _mm256_mul_pd(s, inv_h);
            // The scalar path's `floor_usize(x).min(last)`: clamping first
            // keeps the truncation inside `i32` for any input (a NaN lane
            // clamps to `last`), so every lane of `seg` is a valid segment.
            let clamped =
                _mm256_max_pd(_mm256_min_pd(x, _mm256_set1_pd(last)), _mm256_setzero_pd());
            let seg = _mm256_cvttpd_epi32(clamped);
            let t = _mm256_sub_pd(
                _mm256_mul_pd(two, _mm256_sub_pd(x, _mm256_cvtepi32_pd(seg))),
                one,
            );
            let mut lane = [0i32; 4];
            // SAFETY: `lane` is 16 writable bytes; unaligned store.
            unsafe { _mm_storeu_si128(lane.as_mut_ptr().cast::<__m128i>(), seg) };
            let c = lane.map(|i| &self.segs[i as usize]);
            // Coefficient pair `n` of the four lanes' segments, transposed
            // into one vector of `V_n` and one of `F_n`.
            let pair = |n: usize| {
                // SAFETY: `n <= DEG`, so `2n + 1 < 2·NCOEF`: both doubles
                // read lie inside each lane's segment.
                let [p0, p1, p2, p3] = c.map(|c| unsafe { _mm_loadu_pd(c.as_ptr().add(2 * n)) });
                let a = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(p0), p2);
                let b = _mm256_insertf128_pd::<1>(_mm256_castpd128_pd256(p1), p3);
                (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b))
            };
            let (mut v, mut g) = pair(DEG);
            for n in (0..DEG).rev() {
                let (vn, gn) = pair(n);
                v = _mm256_add_pd(_mm256_mul_pd(v, t), vn);
                g = _mm256_add_pd(_mm256_mul_pd(g, t), gn);
            }
            let inv_r = _mm256_div_pd(one, _mm256_sqrt_pd(s));
            let inv_r3 = _mm256_mul_pd(_mm256_mul_pd(inv_r, inv_r), inv_r);
            // SAFETY: `k + 4 <= quads == e.len() == f.len()`.
            unsafe {
                _mm256_storeu_pd(e.as_mut_ptr().add(k), _mm256_sub_pd(inv_r, v));
                _mm256_storeu_pd(f.as_mut_ptr().add(k), _mm256_sub_pd(inv_r3, g));
            }
        }
        quads
    }
}

/// Fit one segment `[lo, lo+h]` with a degree-[`DEG`] polynomial in the
/// local variable `t ∈ [−1, 1]`: sample at Chebyshev nodes, compute the
/// Chebyshev-basis interpolant, convert to monomial coefficients for
/// Horner evaluation (well-conditioned at this low degree).
fn fit_segment(lo: f64, h: f64, f: impl Fn(f64) -> f64) -> [f64; NCOEF] {
    // Chebyshev points of the first kind and the sampled values.
    let mut fx = [0.0; NCOEF];
    for (j, slot) in fx.iter_mut().enumerate() {
        let theta = std::f64::consts::PI * (j as f64 + 0.5) / NCOEF as f64;
        let t = theta.cos();
        *slot = f(lo + 0.5 * h * (t + 1.0));
    }
    // Chebyshev coefficients by the discrete cosine sum.
    let mut cheb = [0.0; NCOEF];
    for (k, ck) in cheb.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &v) in fx.iter().enumerate() {
            let theta = std::f64::consts::PI * (j as f64 + 0.5) / NCOEF as f64;
            acc += v * (k as f64 * theta).cos();
        }
        *ck = acc * 2.0 / NCOEF as f64;
    }
    cheb[0] *= 0.5;
    // Accumulate c_k · T_k(t) in the monomial basis via the three-term
    // recurrence T_{k+1} = 2t·T_k − T_{k−1}.
    let mut mono = [0.0; NCOEF];
    let mut t_prev = [0.0; NCOEF]; // T_{k−1}
    let mut t_cur = [0.0; NCOEF]; // T_k
    t_prev[0] = 1.0; // T_0 = 1
    t_cur[1] = 1.0; // T_1 = t
    mono[0] += cheb[0];
    for (k, &ck) in cheb.iter().enumerate().skip(1) {
        for (m, &tc) in t_cur.iter().enumerate() {
            mono[m] += ck * tc;
        }
        if k + 1 < NCOEF {
            let mut t_next = [0.0; NCOEF];
            for m in 0..NCOEF - 1 {
                t_next[m + 1] = 2.0 * t_cur[m];
            }
            for (m, &tp) in t_prev.iter().enumerate() {
                t_next[m] -= tp;
            }
            t_prev = t_cur;
            t_cur = t_next;
        }
    }
    mono
}

/// Exact `V(s) = erf(α√s)/√s`, series near zero to dodge the 0/0 form.
fn v_exact(alpha: f64, s: f64) -> f64 {
    let u = alpha * alpha * s; // (αr)²
    if u <= 0.25 {
        // V = α·(2/√π)·Σ_{k≥0} (−u)^k / (k!(2k+1)); converges in ~10 terms.
        let mut sum = 0.0;
        let mut pow = 1.0; // (−u)^k / k!
        for k in 0..24u32 {
            sum += pow / (2 * k + 1) as f64;
            pow *= -u / (k + 1) as f64;
        }
        alpha * TWO_OVER_SQRT_PI * sum
    } else {
        let r = s.sqrt();
        erf(alpha * r) / r
    }
}

/// Exact `F(s) = (V(s) − (2α/√π)e^{−α²s})/s`, series near zero where the
/// numerator cancels to O(s).
fn f_exact(alpha: f64, s: f64) -> f64 {
    let u = alpha * alpha * s;
    if u <= 0.25 {
        // F = (2α³/√π)·Σ_{k≥1} (−1)^{k+1} u^{k−1} · 2k / (k!(2k+1)).
        let mut sum = 0.0;
        let mut pow = 1.0; // u^{k−1}·(−1)^{k+1}/k!-ish, built iteratively
        for k in 1..24u32 {
            let coeff = (2 * k) as f64 / ((2 * k + 1) as f64);
            sum += pow * coeff;
            pow *= -u / ((k + 1) as f64);
        }
        // pow above carries 1/k! built by the running division by (k+1):
        // k=1 term uses pow=1 (=1/1!), matching 2k/(k!(2k+1)) with the
        // division by k! folded into the recurrence.
        alpha * alpha * alpha * TWO_OVER_SQRT_PI * sum
    } else {
        let gauss = TWO_OVER_SQRT_PI * alpha * (-u).exp();
        (v_exact(alpha, s) - gauss) / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::erfc;

    #[test]
    fn v_exact_series_matches_direct_across_seam() {
        let alpha = 2.0;
        // u = 0.25 ⇒ s = 0.0625; probe both sides of the series hand-off.
        for &s in &[0.0624f64, 0.0625, 0.0626, 1e-12, 0.01] {
            let direct = erf(alpha * s.sqrt()) / s.sqrt();
            let v = v_exact(alpha, s);
            assert!(
                ((v - direct) / direct).abs() < 1e-13,
                "s={s}: {v} vs {direct}"
            );
        }
        assert!((v_exact(alpha, 0.0) - alpha * TWO_OVER_SQRT_PI).abs() < 1e-15);
    }

    #[test]
    fn f_exact_series_matches_direct_across_seam() {
        let alpha = 2.0;
        for &s in &[0.0624f64, 0.0626, 0.03, 0.06] {
            let gauss = TWO_OVER_SQRT_PI * alpha * (-alpha * alpha * s).exp();
            let direct = (erf(alpha * s.sqrt()) / s.sqrt() - gauss) / s;
            let f = f_exact(alpha, s);
            assert!(
                ((f - direct) / direct).abs() < 1e-11,
                "s={s}: {f} vs {direct}"
            );
        }
        // F(0) = (2α/√π)·2α²/3.
        let f0 = TWO_OVER_SQRT_PI * alpha * 2.0 * alpha * alpha / 3.0;
        assert!(((f_exact(alpha, 0.0) - f0) / f0).abs() < 1e-14);
    }

    #[test]
    fn table_reproduces_exact_kernels() {
        let alpha = 3.2;
        let r_max = 0.9;
        let table = PairKernelTable::new(alpha, r_max);
        for i in 1..=900 {
            let r = i as f64 * 1e-3;
            let (ve, fe) = table.erf_kernel_r2(r * r);
            let v_ref = erf(alpha * r) / r;
            assert!(((ve - v_ref) / v_ref).abs() < 1e-13, "erf energy at r={r}");
            let gauss = TWO_OVER_SQRT_PI * alpha * (-alpha * alpha * r * r).exp();
            let f_ref = (v_ref - gauss) / (r * r);
            assert!(((fe - f_ref) / f_ref).abs() < 1e-10, "erf force at r={r}");
            let (se, sf) = table.erfc_kernel_r2(r * r);
            let s_ref = erfc(alpha * r) / r;
            assert!(
                ((se - s_ref) / s_ref).abs() < 1e-10,
                "erfc energy at r={r}: {se} vs {s_ref}"
            );
            let sf_ref = s_ref / (r * r) + gauss / (r * r);
            assert!(
                ((sf - sf_ref) / sf_ref).abs() < 1e-10,
                "erfc force at r={r}"
            );
        }
    }

    #[test]
    fn complement_identity_holds_to_rounding() {
        // erfc_kernel + erf_kernel reconstruct 1/r and 1/r³ to within the
        // final subtraction's rounding (the same V/F values are added
        // back), so the split cannot leak kernel-approximation error.
        let table = PairKernelTable::new(2.5, 1.2);
        for i in 1..=40 {
            let r2 = i as f64 * 0.03;
            let (es, fs) = table.erfc_kernel_r2(r2);
            let (el, fl) = table.erf_kernel_r2(r2);
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r * inv_r * inv_r;
            assert!((es + el - inv_r).abs() <= 2.0 * f64::EPSILON * inv_r);
            assert!((fs + fl - inv_r3).abs() <= 2.0 * f64::EPSILON * inv_r3);
        }
    }

    #[test]
    fn lookup_clamps_at_the_far_edge() {
        let table = PairKernelTable::new(2.0, 1.0);
        // Exactly s_max lands on the (clamped) last segment.
        let (v, _) = table.eval_vf(1.0);
        let want = erf(2.0) / 1.0;
        assert!(((v - want) / want).abs() < 1e-12);
    }

    /// Both batch bodies against the one-pair kernel, bit for bit: the
    /// dispatched entry (AVX2 quads + scalar tail where the CPU has AVX2)
    /// and the portable body on its own.
    fn assert_batch_matches_scalar(table: &PairKernelTable, r2: &[f64]) {
        let want: Vec<(u64, u64)> = r2
            .iter()
            .map(|&s| table.erfc_kernel_r2(s))
            .map(|(e, f)| (e.to_bits(), f.to_bits()))
            .collect();
        let bits = |e: &[f64], f: &[f64]| -> Vec<(u64, u64)> {
            e.iter()
                .zip(f)
                .map(|(e, f)| (e.to_bits(), f.to_bits()))
                .collect()
        };
        let (mut e, mut f) = (vec![f64::NAN; r2.len()], vec![f64::NAN; r2.len()]);
        table.erfc_kernel_r2_batch(r2, &mut e, &mut f);
        assert_eq!(bits(&e, &f), want, "dispatched batch, len {}", r2.len());
        let (mut e, mut f) = (vec![f64::NAN; r2.len()], vec![f64::NAN; r2.len()]);
        table.erfc_batch_scalar(r2, &mut e, &mut f);
        assert_eq!(bits(&e, &f), want, "portable batch, len {}", r2.len());
    }

    #[test]
    fn batch_kernel_equals_the_pair_kernel_bit_for_bit() {
        for (alpha, r_max) in [(3.2, 0.9), (1.9, 1.25), (0.0, 1.0), (9.0, 2.0)] {
            let table = PairKernelTable::new(alpha, r_max);
            let n_seg = table.segs.len();
            let h = table.s_max / n_seg as f64;
            // Every segment at its lower face, just inside both faces and
            // mid-way; then the far edge and the last-segment clamp past it.
            let mut r2 = Vec::new();
            for i in 0..n_seg {
                for frac in [0.0, 1e-13, 0.37, 0.5, 1.0 - 1e-13] {
                    r2.push(((i as f64 + frac) * h).max(f64::MIN_POSITIVE));
                }
            }
            r2.push(table.s_max);
            r2.push(table.s_max * (1.0 + 5e-10));
            assert_batch_matches_scalar(&table, &r2);
            // Tail handling: every length 0..=9 at shifting offsets, so a
            // quad boundary falls on each position.
            for len in 0..=9 {
                for start in [0, 1, 2, 3, r2.len() - 9] {
                    assert_batch_matches_scalar(&table, &r2[start..start + len]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn batch_kernel_rejects_mismatched_buffers() {
        let table = PairKernelTable::new(2.0, 1.0);
        table.erfc_kernel_r2_batch(&[0.5; 4], &mut [0.0; 4], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "finite positive")]
    fn rejects_negative_alpha() {
        let _ = PairKernelTable::new(-1.0, 1.0);
    }

    #[test]
    fn zero_alpha_degenerates_to_bare_coulomb() {
        let table = PairKernelTable::new(0.0, 1.0);
        for i in 1..=10 {
            let r2 = i as f64 * 0.09;
            let (e, f) = table.erfc_kernel_r2(r2);
            let inv_r = 1.0 / r2.sqrt();
            assert!((e - inv_r).abs() <= 2.0 * f64::EPSILON * inv_r);
            let inv_r3 = inv_r * inv_r * inv_r;
            assert!((f - inv_r3).abs() <= 2.0 * f64::EPSILON * inv_r3);
        }
    }
}
