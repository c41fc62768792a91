//! Plain `[f64; 3]` vector helpers and periodic minimum-image geometry.
//!
//! The GP cores of MDGRAPE-4A carry a 4-way SIMD extension "to efficiently
//! manipulate 3D vectors"; here the equivalent is a set of `#[inline]`
//! free functions over `[f64; 3]` that the compiler auto-vectorises.

use crate::cast::floor_f64;

pub type V3 = [f64; 3];

#[inline]
pub fn add(a: V3, b: V3) -> V3 {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

#[inline]
pub fn sub(a: V3, b: V3) -> V3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

#[inline]
pub fn scale(a: V3, s: f64) -> V3 {
    [a[0] * s, a[1] * s, a[2] * s]
}

#[inline]
pub fn dot(a: V3, b: V3) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

#[inline]
pub fn cross(a: V3, b: V3) -> V3 {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

#[inline]
pub fn norm_sqr(a: V3) -> f64 {
    dot(a, a)
}

#[inline]
pub fn norm(a: V3) -> f64 {
    norm_sqr(a).sqrt()
}

/// Accumulate `a += b` in place.
#[inline]
pub fn acc(a: &mut V3, b: V3) {
    a[0] += b[0];
    a[1] += b[1];
    a[2] += b[2];
}

/// Minimum-image displacement `a − b` in a periodic orthorhombic box.
#[inline]
pub fn min_image(a: V3, b: V3, box_l: V3) -> V3 {
    let mut d = sub(a, b);
    for j in 0..3 {
        d[j] -= box_l[j] * (d[j] / box_l[j]).round();
    }
    d
}

/// Wrap a position into `[0, L)` per axis.
#[inline]
pub fn wrap(mut r: V3, box_l: V3) -> V3 {
    for j in 0..3 {
        r[j] -= box_l[j] * floor_f64(r[j] / box_l[j]);
        // Guard against r[j] == L after rounding.
        if r[j] >= box_l[j] {
            r[j] -= box_l[j];
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_is_orthogonal() {
        let a = [1.0, 2.0, 3.0];
        let b = [-0.5, 4.0, 1.0];
        let c = cross(a, b);
        assert!(dot(a, c).abs() < 1e-14);
        assert!(dot(b, c).abs() < 1e-14);
    }

    #[test]
    fn min_image_stays_within_half_box() {
        let l = [2.0, 3.0, 4.0];
        let a = [1.9, 0.1, 3.9];
        let b = [0.1, 2.9, 0.2];
        let d = min_image(a, b, l);
        for j in 0..3 {
            assert!(d[j].abs() <= l[j] / 2.0 + 1e-12);
        }
        // Direct distance 1.8 along x wraps to −0.2.
        assert!((d[0] + 0.2).abs() < 1e-12);
    }

    #[test]
    fn wrap_into_box() {
        let l = [2.0, 2.0, 2.0];
        let r = wrap([-0.1, 4.3, 1.999_999], l);
        assert!(r.iter().zip(&l).all(|(x, lj)| *x >= 0.0 && *x < *lj));
        assert!((r[0] - 1.9).abs() < 1e-12);
        assert!((r[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn min_image_antisymmetric() {
        let l = [3.0, 3.0, 3.0];
        let a = [0.2, 1.7, 2.9];
        let b = [2.8, 0.3, 0.1];
        let d1 = min_image(a, b, l);
        let d2 = min_image(b, a, l);
        for j in 0..3 {
            assert!((d1[j] + d2[j]).abs() < 1e-12);
        }
    }
}
