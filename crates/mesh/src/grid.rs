//! Periodic scalar fields on a 3-D grid.
//!
//! `Grid3` stores `f64` values row-major (`index = (x·ny + y)·nz + z`) over
//! grid numbers `N = (nx, ny, nz)`, with all indexing periodic — the paper's
//! grids live in a periodic simulation box (Eq. 12 sums over periodic
//! images `nN`).

use tme_num::Complex64;

/// A periodic 3-D scalar field.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid3 {
    n: [usize; 3],
    data: Vec<f64>,
}

impl Grid3 {
    /// Zero-filled grid with `n = [nx, ny, nz]` points per axis.
    pub fn zeros(n: [usize; 3]) -> Self {
        assert!(
            n.iter().all(|&d| d >= 1),
            "grid dimensions must be positive"
        );
        Self {
            n,
            data: vec![0.0; n[0] * n[1] * n[2]],
        }
    }

    /// Build from existing row-major data.
    pub fn from_vec(n: [usize; 3], data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n[0] * n[1] * n[2]);
        Self { n, data }
    }

    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.n
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row-major linear index of an *in-range* grid point.
    #[inline]
    pub fn index(&self, m: [usize; 3]) -> usize {
        debug_assert!(m[0] < self.n[0] && m[1] < self.n[1] && m[2] < self.n[2]);
        (m[0] * self.n[1] + m[1]) * self.n[2] + m[2]
    }

    /// Wrap a possibly-negative integer coordinate onto the periodic grid.
    #[inline]
    pub fn wrap(&self, m: [i64; 3]) -> [usize; 3] {
        [
            m[0].rem_euclid(self.n[0] as i64) as usize,
            m[1].rem_euclid(self.n[1] as i64) as usize,
            m[2].rem_euclid(self.n[2] as i64) as usize,
        ]
    }

    /// Periodic read.
    #[inline]
    pub fn get(&self, m: [i64; 3]) -> f64 {
        self.data[self.index(self.wrap(m))]
    }

    /// Periodic accumulate.
    #[inline]
    pub fn add(&mut self, m: [i64; 3], v: f64) {
        let i = self.index(self.wrap(m));
        self.data[i] += v;
    }

    /// Periodic write.
    #[inline]
    pub fn set(&mut self, m: [i64; 3], v: f64) {
        let i = self.index(self.wrap(m));
        self.data[i] = v;
    }

    /// Sum of all grid values (e.g. total assigned charge).
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// `Σ_m a_m b_m` — used for energies `E = ½ Σ Q_m Φ_m`.
    pub fn dot(&self, other: &Self) -> f64 {
        assert_eq!(self.n, other.n);
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// In-place `self += other`.
    pub fn accumulate(&mut self, other: &Self) {
        assert_eq!(self.n, other.n);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Overwrite from the real part of a complex buffer.
    pub fn set_from_complex(&mut self, src: &[Complex64]) {
        assert_eq!(src.len(), self.data.len());
        for (d, z) in self.data.iter_mut().zip(src) {
            *d = z.re;
        }
    }

    /// Iterate `(m, value)` over all grid points.
    pub fn iter(&self) -> impl Iterator<Item = ([usize; 3], f64)> + '_ {
        let [_, ny, nz] = self.n;
        self.data.iter().enumerate().map(move |(i, &v)| {
            let z = i % nz;
            let y = (i / nz) % ny;
            let x = i / (nz * ny);
            ([x, y, z], v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_handles_negative_and_overflow() {
        let g = Grid3::zeros([4, 6, 8]);
        assert_eq!(g.wrap([-1, -7, 8]), [3, 5, 0]);
        assert_eq!(g.wrap([4, 6, -8]), [0, 0, 0]);
        assert_eq!(g.wrap([3, 5, 7]), [3, 5, 7]);
    }

    #[test]
    fn periodic_read_write_roundtrip() {
        let mut g = Grid3::zeros([4, 4, 4]);
        g.set([-1, 5, 2], 3.5);
        assert_eq!(g.get([3, 1, 2]), 3.5);
        g.add([7, 1, -2], 1.5);
        assert_eq!(g.get([3, 1, 2]), 5.0);
    }

    #[test]
    fn iter_visits_each_point_once_in_order() {
        let mut g = Grid3::zeros([2, 3, 4]);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            *v = i as f64;
        }
        let mut count = 0;
        for (m, v) in g.iter() {
            assert_eq!(g.index(m) as f64, v);
            count += 1;
        }
        assert_eq!(count, 24);
    }

    #[test]
    fn dot_and_sum() {
        let a = Grid3::from_vec([1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Grid3::from_vec([1, 2, 2], vec![2.0, 2.0, 2.0, 2.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.dot(&b), 20.0);
    }

    #[test]
    fn complex_roundtrip() {
        let g = Grid3::from_vec([2, 2, 2], (0..8).map(|i| i as f64).collect());
        let c: Vec<Complex64> = (0..8).map(|i| Complex64::new(f64::from(i), 0.0)).collect();
        let mut h = Grid3::zeros([2, 2, 2]);
        h.set_from_complex(&c);
        assert_eq!(g, h);
    }
}
