//! Q-format fixed-point arithmetic mirroring the MDGRAPE-4A datapaths.
//!
//! The hardware computes the long-range part almost entirely in fixed point
//! (§IV of the paper):
//!
//! * the LRU evaluates B-spline piecewise polynomials "in a fixed-point
//!   format with a 24-bit fractional part",
//! * grid charges/potentials travel as 32-bit fixed point with "an arbitrary
//!   binary point \[that\] can be shifted by a specified amount in the
//!   convolution to avoid overflow",
//! * convolution factors (the 1-D grid kernels) are 24-bit fixed point,
//! * force accumulation is 32-bit fixed point, total potential 64-bit.
//!
//! [`Fix32`] is a signed 32-bit value with a const-generic number of
//! fraction bits; multiplication widens to 64 bits and rounds to nearest.
//! [`Accum64`] is the 64-bit accumulator used by the global-memory
//! accumulate-on-write mode (sums of distributed partial forces/charges are
//! order-independent in integer arithmetic — the property the GM special
//! write mode exists to provide).

/// Signed 32-bit fixed point with `FRAC` fraction bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Fix32<const FRAC: u32>(pub i32);

impl<const FRAC: u32> Fix32<FRAC> {
    pub const SCALE: f64 = (1u64 << FRAC) as f64;
    /// Smallest representable increment.
    pub const EPSILON: f64 = 1.0 / Self::SCALE;
    pub const MAX: Self = Self(i32::MAX);
    pub const MIN: Self = Self(i32::MIN);
    pub const ZERO: Self = Self(0);

    /// Convert from f64, rounding to nearest and saturating at the rails
    /// (hardware clamps rather than wraps on the datapath inputs).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        let v = (x * Self::SCALE).round();
        if v >= i32::MAX as f64 {
            Self::MAX
        } else if v <= i32::MIN as f64 {
            Self::MIN
        } else {
            Self(v as i32)
        }
    }

    #[inline]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE
    }

    /// Saturating addition (grid accumulation clamps on overflow).
    #[inline]
    pub fn sat_add(self, o: Self) -> Self {
        Self(self.0.saturating_add(o.0))
    }

    /// Fixed-point multiply: widen to i64, round to nearest, saturate.
    /// (Named `fx_mul` to avoid shadowing `std::ops::Mul::mul`.)
    #[inline]
    pub fn fx_mul(self, o: Self) -> Self {
        let wide = self.0 as i64 * o.0 as i64;
        let rounded = round_shift(wide, FRAC);
        Self(clamp_i32(rounded))
    }

    /// Multiply with a different-format operand, producing `Fix32<OUT>`:
    /// the product has `FRAC + F2` fraction bits, shifted to `OUT`.
    /// This is how the GCU multiplies 32-bit grid data (tunable binary
    /// point) by 24-bit kernel factors.
    #[inline]
    pub fn mul_mixed<const F2: u32, const OUT: u32>(self, o: Fix32<F2>) -> Fix32<OUT> {
        let wide = self.0 as i64 * o.0 as i64;
        let shift = (FRAC + F2) as i64 - OUT as i64;
        let v = if shift >= 0 {
            round_shift(wide, shift as u32)
        } else {
            // Left shift can overflow i64 for large magnitudes; widen to
            // i128 so the saturation below sees the true value.
            let wide128 = (wide as i128) << (-shift) as u32;
            wide128.clamp(i64::MIN as i128, i64::MAX as i128) as i64
        };
        Fix32(clamp_i32(v))
    }
}

#[inline]
fn round_shift(v: i64, shift: u32) -> i64 {
    if shift == 0 {
        return v;
    }
    // Round to nearest, ties away from zero, preserving sign symmetry.
    let half = 1i64 << (shift - 1);
    if v >= 0 {
        (v + half) >> shift
    } else {
        -((-v + half) >> shift)
    }
}

#[inline]
fn clamp_i32(v: i64) -> i32 {
    v.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// The LRU polynomial datapath format: 24-bit fraction
/// ("maximum of 1 − 2⁻²⁴" for the spline values, §IV.A).
pub type LruFix = Fix32<24>;

/// 64-bit fixed-point accumulator with `FRAC` fraction bits — the total
/// potential accumulates "at a 64-bit fixed point".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accum64<const FRAC: u32>(pub i64);

impl<const FRAC: u32> Accum64<FRAC> {
    pub const SCALE: f64 = (1u128 << FRAC) as f64;
    pub const ZERO: Self = Self(0);

    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self(crate::cast::round_i64(x * Self::SCALE))
    }

    /// Accumulate a 32-bit value of the same binary point.
    #[inline]
    pub fn add32(&mut self, v: Fix32<FRAC>) {
        self.0 = self.0.wrapping_add(v.0 as i64);
    }
}

/// Quantise an `f64` slice through a `Fix32<FRAC>` round trip — used to
/// emulate what the hardware grid memories do to grid charges/potentials.
pub fn quantize_slice<const FRAC: u32>(data: &mut [f64]) {
    for x in data.iter_mut() {
        *x = Fix32::<FRAC>::from_f64(*x).to_f64();
    }
}

/// Choose a binary point (fraction bit count) so `max_abs` fits a signed
/// 32-bit value with one guard bit of headroom — the "shifted by a
/// specified amount ... to avoid overflow" logic of the GCU.
pub fn binary_point_for(max_abs: f64) -> u32 {
    let mut frac = 30u32;
    while frac > 0 {
        // Representable magnitude is 2^(31−frac); demanding max_abs below
        // 2^(30−frac) leaves a genuine guard bit for accumulation.
        let with_guard = (1i64 << (30 - frac)) as f64;
        if max_abs < with_guard {
            return frac;
        }
        frac -= 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_representable_values() {
        for i in -1000..1000 {
            let x = i as f64 / 256.0;
            let f = Fix32::<24>::from_f64(x);
            assert_eq!(f.to_f64(), x);
        }
    }

    #[test]
    fn quantisation_error_bounded_by_half_ulp() {
        for i in 0..10_000 {
            let x = (i as f64 * 0.001).sin() * 3.0;
            let f = Fix32::<24>::from_f64(x);
            assert!((f.to_f64() - x).abs() <= 0.5 * Fix32::<24>::EPSILON + 1e-18);
        }
    }

    #[test]
    fn saturates_at_rails() {
        let big = Fix32::<24>::from_f64(1e9);
        assert_eq!(big, Fix32::<24>::MAX);
        let small = Fix32::<24>::from_f64(-1e9);
        assert_eq!(small, Fix32::<24>::MIN);
        let s = Fix32::<24>::MAX.sat_add(Fix32::<24>::MAX);
        assert_eq!(s, Fix32::<24>::MAX);
    }

    #[test]
    fn multiplication_rounds_to_nearest() {
        let a = Fix32::<24>::from_f64(0.5);
        let b = Fix32::<24>::from_f64(0.25);
        assert!((a.fx_mul(b).to_f64() - 0.125).abs() < Fix32::<24>::EPSILON);
        // Sign symmetry of rounding.
        let c = Fix32::<24>::from_f64(-0.3);
        let d = Fix32::<24>::from_f64(0.7);
        let p = c.fx_mul(d).to_f64();
        let q = d.fx_mul(c).to_f64();
        assert_eq!(p, q);
        assert!((p + 0.21).abs() < 2.0 * Fix32::<24>::EPSILON);
    }

    #[test]
    fn mixed_format_multiply_matches_f64() {
        // 32-bit grid value (frac 20) × 24-bit kernel factor (frac 24) → frac 20.
        let g = Fix32::<20>::from_f64(123.456);
        let k = Fix32::<24>::from_f64(0.001234);
        let r: Fix32<20> = g.mul_mixed::<24, 20>(k);
        let want = 123.456 * 0.001234;
        assert!((r.to_f64() - want).abs() < 4.0 * Fix32::<20>::EPSILON);
    }

    #[test]
    fn integer_accumulation_is_order_independent() {
        // The GM accumulate-on-write exists so distributed sums need no lock
        // and no ordering; integer adds commute exactly.
        let xs: Vec<Fix32<20>> = (0..1000)
            .map(|i| Fix32::<20>::from_f64(((i * 37 % 100) as f64 - 50.0) * 0.01))
            .collect();
        let mut fwd = Accum64::<20>::ZERO;
        for &x in &xs {
            fwd.add32(x);
        }
        let mut rev = Accum64::<20>::ZERO;
        for &x in xs.iter().rev() {
            rev.add32(x);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn binary_point_gives_headroom() {
        for &m in &[0.1, 1.0, 10.0, 1000.0, 1e6, 1e8] {
            let frac = binary_point_for(m);
            if frac > 0 {
                // A genuine guard bit: twice the value still representable.
                let max_repr = (1i64 << (31 - frac)) as f64;
                assert!(2.0 * m <= max_repr, "m={m} frac={frac}");
                // And it is the largest such frac (tightest quantisation).
                if frac < 30 {
                    let tighter = (1i64 << (30 - frac - 1)) as f64;
                    assert!(m >= tighter, "m={m} frac={frac}");
                }
            }
        }
    }

    #[test]
    fn quantize_slice_is_idempotent() {
        let mut a: Vec<f64> = (0..100).map(|i| (i as f64 * 0.77).sin()).collect();
        quantize_slice::<24>(&mut a);
        let b = a.clone();
        quantize_slice::<24>(&mut a);
        assert_eq!(a, b);
    }
}
