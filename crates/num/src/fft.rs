//! Power-of-two complex FFTs and 3-D transforms.
//!
//! Three pieces, matching how the paper uses Fourier transforms:
//!
//! * [`Fft`] — an iterative radix-2 Cooley–Tukey plan for any power of two.
//!   Used by the SPME baseline (any grid 16³–128³) and by the fundamental
//!   spline inverse ω (ring deconvolution).
//! * [`cfft16`] / [`cfft16_f32`] — a radix-4 16-point kernel structured like
//!   the FPGA "CFFT16" unit of §IV.C (two radix-4 stages + digit reversal).
//!   The `f32` variant mirrors the FPGA's single-precision datapath.
//! * [`Fft3`] — a 3-D transform over an `(nx, ny, nz)` row-major box,
//!   applying 1-D transforms axis by axis through a scratch line — the
//!   software analogue of the FPGA's "orthogonal memory" axis rotation.
//!
//! Convention: `forward` computes `X_k = Σ_n x_n e^{-2πi kn/N}` (negative
//! exponent); `inverse` uses the positive exponent and scales by `1/N`, so
//! `inverse(forward(x)) == x`.

use crate::complex::{Complex32, Complex64};

/// A reusable radix-2 FFT plan of fixed power-of-two size.
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    /// Twiddles `e^{-2πi k/n}` for `k < n/2`.
    twiddles: Vec<Complex64>,
    /// Bit-reversal permutation.
    rev: Vec<u32>,
}

impl Fft {
    /// Create a plan for transforms of length `n` (must be a power of two ≥ 1).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT size must be a power of two, got {n}"
        );
        let twiddles = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        Self { n, twiddles, rev }
    }

    /// In-place forward DFT (negative exponent), no scaling.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, false);
    }

    /// In-place inverse DFT (positive exponent), scaled by `1/n`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, true);
        let s = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(s);
        }
    }

    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "buffer length must equal plan size");
        // Bit-reversal reordering.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative butterflies; twiddle stride halves as block length doubles.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len *= 2;
        }
    }
}

/// Radix-4 16-point FFT in f64, structured like the FPGA CFFT16 unit:
/// two radix-4 stages with twiddle multiplication between them, then
/// base-4 digit reversal.
pub fn cfft16(data: &mut [Complex64; 16], inverse: bool) {
    let sign = if inverse { 1.0 } else { -1.0 };
    // Stage 1: 4 radix-4 butterflies on stride-4 groups.
    let mut stage = [Complex64::ZERO; 16];
    for g in 0..4 {
        let x0 = data[g];
        let x1 = data[g + 4];
        let x2 = data[g + 8];
        let x3 = data[g + 12];
        let (y0, y1, y2, y3) = radix4_butterfly(x0, x1, x2, x3, sign);
        // Twiddle: W16^{g·q} on output index q of group g.
        for (q, y) in [y0, y1, y2, y3].into_iter().enumerate() {
            let w = Complex64::cis(sign * 2.0 * std::f64::consts::PI * (g * q) as f64 / 16.0);
            stage[q * 4 + g] = y * w;
        }
    }
    // Stage 2: 4 radix-4 butterflies on contiguous groups.
    for g in 0..4 {
        let x0 = stage[g * 4];
        let x1 = stage[g * 4 + 1];
        let x2 = stage[g * 4 + 2];
        let x3 = stage[g * 4 + 3];
        let (y0, y1, y2, y3) = radix4_butterfly(x0, x1, x2, x3, sign);
        data[g * 4] = y0;
        data[g * 4 + 1] = y1;
        data[g * 4 + 2] = y2;
        data[g * 4 + 3] = y3;
    }
    // Base-4 digit reversal of the 2-digit index (swap digits).
    let mut out = [Complex64::ZERO; 16];
    for (i, item) in out.iter_mut().enumerate() {
        let hi = i / 4;
        let lo = i % 4;
        *item = data[lo * 4 + hi];
    }
    *data = out;
    if inverse {
        for z in data.iter_mut() {
            *z = z.scale(1.0 / 16.0);
        }
    }
}

#[inline]
fn radix4_butterfly(
    x0: Complex64,
    x1: Complex64,
    x2: Complex64,
    x3: Complex64,
    sign: f64,
) -> (Complex64, Complex64, Complex64, Complex64) {
    // DFT-4 with exponent sign: outputs y_q = Σ_p x_p e^{sign·2πi pq/4}.
    let a = x0 + x2;
    let b = x0 - x2;
    let c = x1 + x3;
    // sign −1 (forward): −i·(x1−x3); sign +1 (inverse): +i·(x1−x3).
    let d = (x1 - x3).mul_i().scale(sign);
    (a + c, b + d, a - c, b - d)
}

/// Single-precision CFFT16: the FPGA computes in native f32 DSPs; this
/// narrows, runs the same radix-4 structure, and keeps f32 throughout.
pub fn cfft16_f32(data: &mut [Complex32; 16], inverse: bool) {
    let sign: f32 = if inverse { 1.0 } else { -1.0 };
    let mut stage = [Complex32::ZERO; 16];
    for g in 0..4 {
        let x0 = data[g];
        let x1 = data[g + 4];
        let x2 = data[g + 8];
        let x3 = data[g + 12];
        let a = x0 + x2;
        let b = x0 - x2;
        let c = x1 + x3;
        let d = (x1 - x3).mul_i().scale(sign);
        let ys = [a + c, b + d, a - c, b - d];
        for (q, y) in ys.into_iter().enumerate() {
            let w = Complex32::cis(sign * 2.0 * std::f32::consts::PI * (g * q) as f32 / 16.0);
            stage[q * 4 + g] = y * w;
        }
    }
    for g in 0..4 {
        let x0 = stage[g * 4];
        let x1 = stage[g * 4 + 1];
        let x2 = stage[g * 4 + 2];
        let x3 = stage[g * 4 + 3];
        let a = x0 + x2;
        let b = x0 - x2;
        let c = x1 + x3;
        let d = (x1 - x3).mul_i().scale(sign);
        data[g * 4] = a + c;
        data[g * 4 + 1] = b + d;
        data[g * 4 + 2] = a - c;
        data[g * 4 + 3] = b - d;
    }
    let mut out = [Complex32::ZERO; 16];
    for (i, item) in out.iter_mut().enumerate() {
        *item = data[(i % 4) * 4 + i / 4];
    }
    *data = out;
    if inverse {
        for z in data.iter_mut() {
            *z = z.scale(1.0 / 16.0);
        }
    }
}

/// Real-input FFT of even length `n` via the packed half-size complex
/// transform: `forward_real_with` returns the `n/2 + 1` non-redundant spectrum
/// values (the rest follow from Hermitian symmetry), `inverse_real_with`
/// inverts it. This is the classic r2c trick: pack
/// `z_k = x_{2k} + i·x_{2k+1}`, transform at half size, then unravel even
/// and odd spectra with one twiddle pass — half the work of a full
/// complex FFT on real data (grid charges are real).
#[derive(Clone, Debug)]
pub struct RealFft {
    n: usize,
    half: Fft,
    /// `e^{−2πik/n}` for `k ≤ n/2`.
    twiddles: Vec<Complex64>,
}

impl RealFft {
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "real FFT size must be a power of two ≥ 2"
        );
        let twiddles = (0..=n / 2)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Self {
            n,
            half: Fft::new(n / 2),
            twiddles,
        }
    }

    /// Scratch length required by the `_with` transform variants: `n/2`.
    pub fn scratch_len(&self) -> usize {
        self.n / 2
    }

    /// Forward transform of `n` reals into `n/2 + 1` spectrum values
    /// (same convention as [`Fft::forward`]: negative exponent, unscaled),
    /// using caller-provided scratch (at least [`Self::scratch_len`]
    /// values) — no heap allocation.
    pub fn forward_real_with(&self, x: &[f64], out: &mut [Complex64], scratch: &mut [Complex64]) {
        let n = self.n;
        let m = n / 2;
        assert_eq!(x.len(), n);
        assert_eq!(out.len(), m + 1);
        assert!(scratch.len() >= m, "real FFT scratch too short");
        // Pack and transform at half size.
        let z = &mut scratch[..m];
        for (k, zk) in z.iter_mut().enumerate() {
            *zk = Complex64::new(x[2 * k], x[2 * k + 1]);
        }
        self.half.forward(z);
        // Unravel: X_k = E_k + e^{−2πik/n} O_k with
        // E_k = (Z_k + Z̄_{m−k})/2, O_k = −i (Z_k − Z̄_{m−k})/2.
        for k in 0..=m {
            let zk = if k == m { z[0] } else { z[k] };
            let zmk = z[(m - k) % m].conj();
            let e = (zk + zmk).scale(0.5);
            let o = (zk - zmk).mul_i().scale(-0.5);
            out[k] = e + self.twiddles[k] * o;
        }
    }

    /// Inverse of [`Self::forward_real_with`]: `n/2 + 1` spectrum values
    /// back to `n` reals, scaled by `1/n` (so the pair round-trips), using
    /// caller-provided scratch (at least [`Self::scratch_len`] values) — no
    /// heap allocation.
    pub fn inverse_real_with(
        &self,
        spec: &[Complex64],
        out: &mut [f64],
        scratch: &mut [Complex64],
    ) {
        let n = self.n;
        let m = n / 2;
        assert_eq!(spec.len(), m + 1);
        assert_eq!(out.len(), n);
        assert!(scratch.len() >= m, "real FFT scratch too short");
        // Re-pack: Z_k = E_k + i·W̄_k O_k with E/O from the spectrum ends.
        let z = &mut scratch[..m];
        for (k, zk) in z.iter_mut().enumerate() {
            let xk = spec[k];
            let xmk = spec[m - k].conj();
            let e = (xk + xmk).scale(0.5);
            let o = ((xk - xmk).scale(0.5)) * self.twiddles[k].conj();
            *zk = e + o.mul_i();
        }
        self.half.inverse(z);
        for k in 0..m {
            out[2 * k] = z[k].re;
            out[2 * k + 1] = z[k].im;
        }
    }
}

/// 3-D FFT plan over an `(nx, ny, nz)` row-major complex box
/// (`index = (x·ny + y)·nz + z`).
#[derive(Clone, Debug)]
pub struct Fft3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    fx: Fft,
    fy: Fft,
    fz: Fft,
}

impl Fft3 {
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            nx,
            ny,
            nz,
            fx: Fft::new(nx),
            fy: Fft::new(ny),
            fz: Fft::new(nz),
        }
    }

    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scratch length required by the `_with` variants: the longest axis.
    pub fn scratch_len(&self) -> usize {
        self.nx.max(self.ny).max(self.nz)
    }

    pub fn forward(&self, data: &mut [Complex64]) {
        let mut line = vec![Complex64::ZERO; self.scratch_len()];
        self.transform(data, false, &mut line);
    }

    pub fn inverse(&self, data: &mut [Complex64]) {
        let mut line = vec![Complex64::ZERO; self.scratch_len()];
        self.transform(data, true, &mut line);
    }

    /// [`Self::forward`] using caller-provided scratch (at least
    /// [`Self::scratch_len`] values) — no heap allocation.
    pub fn forward_with(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        self.transform(data, false, scratch);
    }

    /// [`Self::inverse`] using caller-provided scratch (at least
    /// [`Self::scratch_len`] values) — no heap allocation.
    pub fn inverse_with(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        self.transform(data, true, scratch);
    }

    /// Apply 1-D transforms along z, then y, then x — the software analogue
    /// of the FPGA orthogonal-memory axis rotation (§IV.C).
    fn transform(&self, data: &mut [Complex64], inverse: bool, scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.len());
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        assert!(
            scratch.len() >= self.scratch_len(),
            "FFT3 scratch too short"
        );
        let line = &mut scratch[..nx.max(ny).max(nz)];
        // z lines are contiguous.
        for xy in 0..nx * ny {
            let s = xy * nz;
            let lane = &mut data[s..s + nz];
            if inverse {
                self.fz.inverse(lane);
            } else {
                self.fz.forward(lane);
            }
        }
        // y lines: stride nz.
        for x in 0..nx {
            for z in 0..nz {
                let base = x * ny * nz + z;
                for y in 0..ny {
                    line[y] = data[base + y * nz];
                }
                let lane = &mut line[..ny];
                if inverse {
                    self.fy.inverse(lane);
                } else {
                    self.fy.forward(lane);
                }
                for y in 0..ny {
                    data[base + y * nz] = line[y];
                }
            }
        }
        // x lines: stride ny*nz.
        for y in 0..ny {
            for z in 0..nz {
                let base = y * nz + z;
                for x in 0..nx {
                    line[x] = data[base + x * ny * nz];
                }
                let lane = &mut line[..nx];
                if inverse {
                    self.fx.inverse(lane);
                } else {
                    self.fx.forward(lane);
                }
                for x in 0..nx {
                    data[base + x * ny * nz] = line[x];
                }
            }
        }
    }
}

/// 3-D real-input FFT over an `(nx, ny, nz)` row-major real box: r2c
/// along z (the contiguous axis) to an `(nx, ny, nz/2+1)` half spectrum,
/// then complex transforms along y and x. Halves the work and memory of
/// [`Fft3`] on real grids (grid charges and potentials are real).
#[derive(Clone, Debug)]
pub struct RealFft3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    rz: RealFft,
    fy: Fft,
    fx: Fft,
}

impl RealFft3 {
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            nx,
            ny,
            nz,
            rz: RealFft::new(nz),
            fy: Fft::new(ny),
            fx: Fft::new(nx),
        }
    }

    /// Points in the half spectrum: `nx · ny · (nz/2 + 1)`.
    pub fn spectrum_len(&self) -> usize {
        self.nx * self.ny * (self.nz / 2 + 1)
    }

    /// Real box length.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scratch length required by the `_with` variants: one complex line of
    /// the longest transverse axis plus the r2c half-size scratch.
    pub fn scratch_len(&self) -> usize {
        self.nx.max(self.ny) + self.rz.scratch_len()
    }

    /// Forward: real `(nx, ny, nz)` → complex `(nx, ny, nz/2+1)` half
    /// spectrum (row-major, z fastest), using caller-provided scratch (at
    /// least [`Self::scratch_len`] values) — no heap allocation.
    pub fn forward_with(&self, data: &[f64], spec: &mut [Complex64], scratch: &mut [Complex64]) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let mz = nz / 2 + 1;
        assert_eq!(data.len(), nx * ny * nz);
        assert_eq!(spec.len(), nx * ny * mz);
        assert!(
            scratch.len() >= self.scratch_len(),
            "real FFT3 scratch too short"
        );
        let (line, rz_scratch) = scratch.split_at_mut(nx.max(ny));
        // z: r2c per contiguous line.
        for xy in 0..nx * ny {
            self.rz.forward_real_with(
                &data[xy * nz..(xy + 1) * nz],
                &mut spec[xy * mz..(xy + 1) * mz],
                rz_scratch,
            );
        }
        // y and x: complex transforms with strides over the half spectrum.
        for x in 0..nx {
            for z in 0..mz {
                let base = x * ny * mz + z;
                for y in 0..ny {
                    line[y] = spec[base + y * mz];
                }
                self.fy.forward(&mut line[..ny]);
                for y in 0..ny {
                    spec[base + y * mz] = line[y];
                }
            }
        }
        for y in 0..ny {
            for z in 0..mz {
                let base = y * mz + z;
                for x in 0..nx {
                    line[x] = spec[base + x * ny * mz];
                }
                self.fx.forward(&mut line[..nx]);
                for x in 0..nx {
                    spec[base + x * ny * mz] = line[x];
                }
            }
        }
    }

    /// Inverse of [`Self::forward_with`] (scaled so the pair round-trips),
    /// using caller-provided scratch (at least [`Self::scratch_len`]
    /// values) — no heap allocation.
    pub fn inverse_with(
        &self,
        spec: &mut [Complex64],
        data: &mut [f64],
        scratch: &mut [Complex64],
    ) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let mz = nz / 2 + 1;
        assert_eq!(data.len(), nx * ny * nz);
        assert_eq!(spec.len(), nx * ny * mz);
        assert!(
            scratch.len() >= self.scratch_len(),
            "real FFT3 scratch too short"
        );
        let (line, rz_scratch) = scratch.split_at_mut(nx.max(ny));
        for y in 0..ny {
            for z in 0..mz {
                let base = y * mz + z;
                for x in 0..nx {
                    line[x] = spec[base + x * ny * mz];
                }
                self.fx.inverse(&mut line[..nx]);
                for x in 0..nx {
                    spec[base + x * ny * mz] = line[x];
                }
            }
        }
        for x in 0..nx {
            for z in 0..mz {
                let base = x * ny * mz + z;
                for y in 0..ny {
                    line[y] = spec[base + y * mz];
                }
                self.fy.inverse(&mut line[..ny]);
                for y in 0..ny {
                    spec[base + y * mz] = line[y];
                }
            }
        }
        for xy in 0..nx * ny {
            self.rz.inverse_real_with(
                &spec[xy * mz..(xy + 1) * mz],
                &mut data[xy * nz..(xy + 1) * nz],
                rz_scratch,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out = vec![Complex64::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            for (j, &v) in x.iter().enumerate() {
                let w =
                    Complex64::cis(sign * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
                *o += v * w;
            }
            if inverse {
                *o = o.scale(1.0 / n as f64);
            }
        }
        out
    }

    fn test_signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin() + 0.1, (i as f64 * 1.1).cos() * 0.5))
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let x = test_signal(n);
            let mut y = x.clone();
            Fft::new(n).forward(&mut y);
            let want = naive_dft(&x, false);
            for (a, b) in y.iter().zip(&want) {
                assert!((*a - *b).abs() < 1e-10 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [2usize, 16, 256, 1024] {
            let plan = Fft::new(n);
            let x = test_signal(n);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            for (a, b) in y.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 64;
        let x = test_signal(n);
        let mut y = x.clone();
        Fft::new(n).forward(&mut y);
        let time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time - freq).abs() < 1e-10);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        Fft::new(n).forward(&mut x);
        for z in &x {
            assert!((*z - Complex64::ONE).abs() < 1e-13);
        }
    }

    #[test]
    fn cfft16_matches_radix2_plan() {
        let x = test_signal(16);
        let mut a: [Complex64; 16] = x.clone().try_into().unwrap();
        cfft16(&mut a, false);
        let mut b = x.clone();
        Fft::new(16).forward(&mut b);
        for (p, q) in a.iter().zip(&b) {
            assert!((*p - *q).abs() < 1e-12);
        }
        // Round trip.
        cfft16(&mut a, true);
        for (p, q) in a.iter().zip(&x) {
            assert!((*p - *q).abs() < 1e-13);
        }
    }

    #[test]
    fn cfft16_f32_tracks_f64_within_single_precision() {
        let x = test_signal(16);
        let mut a: [Complex64; 16] = x.clone().try_into().unwrap();
        cfft16(&mut a, false);
        let mut s: [Complex32; 16] = core::array::from_fn(|i| x[i].to_c32());
        cfft16_f32(&mut s, false);
        let scale: f32 = x.iter().map(|z| z.abs() as f32).sum();
        for (p, q) in s.iter().zip(&a) {
            assert!((p.to_c64() - *q).abs() < (2e-6 * scale) as f64);
        }
    }

    #[test]
    fn fft3_roundtrip_and_impulse() {
        let (nx, ny, nz) = (4, 8, 16);
        let plan = Fft3::new(nx, ny, nz);
        let x: Vec<Complex64> = (0..plan.len())
            .map(|i| Complex64::new((i as f64 * 0.173).sin(), (i as f64 * 0.071).cos()))
            .collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-12);
        }
        // Impulse at origin → flat spectrum.
        let mut imp = vec![Complex64::ZERO; plan.len()];
        imp[0] = Complex64::ONE;
        plan.forward(&mut imp);
        for z in &imp {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn fft3_matches_separable_naive_on_plane_wave() {
        // A pure plane wave e^{−2πi(k·n/N)} transforms to a single spike.
        let (nx, ny, nz) = (8, 8, 8);
        let plan = Fft3::new(nx, ny, nz);
        let (kx, ky, kz) = (3usize, 5, 1);
        let mut x = vec![Complex64::ZERO; plan.len()];
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let ph = 2.0 * std::f64::consts::PI * (kx * ix) as f64 / nx as f64
                        + 2.0 * std::f64::consts::PI * (ky * iy) as f64 / ny as f64
                        + 2.0 * std::f64::consts::PI * (kz * iz) as f64 / nz as f64;
                    x[(ix * ny + iy) * nz + iz] = Complex64::cis(ph);
                }
            }
        }
        plan.forward(&mut x);
        let total = (nx * ny * nz) as f64;
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let v = x[(ix * ny + iy) * nz + iz];
                    if (ix, iy, iz) == (kx, ky, kz) {
                        assert!((v - Complex64::new(total, 0.0)).abs() < 1e-9);
                    } else {
                        assert!(v.abs() < 1e-9, "leak at {ix},{iy},{iz}: {v:?}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Fft::new(12);
    }

    #[test]
    fn real_fft_matches_complex_spectrum() {
        for n in [2usize, 4, 8, 16, 32, 128] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 0.2).collect();
            let plan = RealFft::new(n);
            let mut spec = vec![Complex64::ZERO; n / 2 + 1];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.forward_real_with(&x, &mut spec, &mut scratch);
            // Reference: full complex FFT of the same reals.
            let mut full: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            Fft::new(n).forward(&mut full);
            for k in 0..=n / 2 {
                assert!((spec[k] - full[k]).abs() < 1e-11 * n as f64, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn real_fft_roundtrip() {
        for n in [2usize, 8, 16, 32, 64, 512] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 37 % 19) as f64 - 9.0) * 0.3).collect();
            let plan = RealFft::new(n);
            let mut spec = vec![Complex64::ZERO; n / 2 + 1];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.forward_real_with(&x, &mut spec, &mut scratch);
            let mut back = vec![0.0; n];
            plan.inverse_real_with(&spec, &mut back, &mut scratch);
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn real_fft3_matches_complex_fft3() {
        let (nx, ny, nz) = (4usize, 8, 16);
        let x: Vec<f64> = (0..nx * ny * nz).map(|i| (i as f64 * 0.13).cos()).collect();
        let rplan = RealFft3::new(nx, ny, nz);
        let mut spec = vec![Complex64::ZERO; rplan.spectrum_len()];
        let mut scratch = vec![Complex64::ZERO; rplan.scratch_len()];
        rplan.forward_with(&x, &mut spec, &mut scratch);
        let mut full: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        Fft3::new(nx, ny, nz).forward(&mut full);
        let mz = nz / 2 + 1;
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..mz {
                    let got = spec[(ix * ny + iy) * mz + iz];
                    let want = full[(ix * ny + iy) * nz + iz];
                    assert!((got - want).abs() < 1e-9, "at {ix},{iy},{iz}");
                }
            }
        }
    }

    /// The real-input path must agree with the full complex transform and
    /// invert exactly on random grids at the cubic sizes the top-level
    /// solver actually plans (8³, 16³, 32³).
    #[test]
    fn real_fft3_random_grids_toplevel_sizes() {
        for n in [8usize, 16, 32] {
            let len = n * n * n;
            let mut state = 1442695040888963407u64 ^ n as u64;
            let x: Vec<f64> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                })
                .collect();
            let rplan = RealFft3::new(n, n, n);
            let mut spec = vec![Complex64::ZERO; rplan.spectrum_len()];
            let mut scratch = vec![Complex64::ZERO; rplan.scratch_len()];
            rplan.forward_with(&x, &mut spec, &mut scratch);
            // Half-spectrum matches the full complex transform.
            let mut full: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
            Fft3::new(n, n, n).forward(&mut full);
            let mz = n / 2 + 1;
            let tol = 1e-9 * (len as f64).sqrt();
            for ix in 0..n {
                for iy in 0..n {
                    for iz in 0..mz {
                        let got = spec[(ix * n + iy) * mz + iz];
                        let want = full[(ix * n + iy) * n + iz];
                        assert!((got - want).abs() < tol, "n={n} at {ix},{iy},{iz}");
                    }
                }
            }
            // Round trip restores the input.
            let mut back = vec![0.0; len];
            rplan.inverse_with(&mut spec, &mut back, &mut scratch);
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn real_fft3_roundtrip() {
        let (nx, ny, nz) = (8usize, 4, 8);
        let x: Vec<f64> = (0..nx * ny * nz)
            .map(|i| ((i * 7 % 23) as f64 - 11.0) * 0.17)
            .collect();
        let plan = RealFft3::new(nx, ny, nz);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.forward_with(&x, &mut spec, &mut scratch);
        let mut back = vec![0.0; x.len()];
        plan.inverse_with(&mut spec, &mut back, &mut scratch);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-11);
        }
    }
}
