//! Dense cubic grid kernels and direct range-limited 3-D convolution.
//!
//! This is the evaluation primitive of B-spline MSM (Hardy et al. 2016):
//! the level potential as a direct `(2g_c+1)³`-tap periodic convolution.
//! The TME replaces it with separable 1-D passes; both live against the
//! same [`Grid3`] so the two evaluation orders can be compared exactly.

use crate::grid::Grid3;

/// A dense cubic kernel `K_m`, `|m_j| ≤ g_c`, stored row-major over
/// `(2g_c+1)³` entries.
#[derive(Clone, Debug)]
pub struct DenseKernel {
    gc: i64,
    vals: Vec<f64>,
}

impl DenseKernel {
    /// Build from a function of the integer offset.
    pub fn from_fn(gc: usize, mut f: impl FnMut([i64; 3]) -> f64) -> Self {
        let g = gc as i64;
        let w = 2 * g + 1;
        let mut vals = Vec::with_capacity((w * w * w) as usize);
        for mx in -g..=g {
            for my in -g..=g {
                for mz in -g..=g {
                    vals.push(f([mx, my, mz]));
                }
            }
        }
        Self { gc: g, vals }
    }

    #[inline]
    pub fn gc(&self) -> usize {
        self.gc as usize
    }

    #[inline]
    pub fn get(&self, m: [i64; 3]) -> f64 {
        let g = self.gc;
        debug_assert!(m.iter().all(|&c| c.abs() <= g));
        let w = 2 * g + 1;
        self.vals[(((m[0] + g) * w + (m[1] + g)) * w + (m[2] + g)) as usize]
    }
}

/// Direct range-limited periodic convolution `Φ = K ⊛ Q`.
pub fn convolve_direct(kernel: &DenseKernel, q: &Grid3) -> Grid3 {
    let mut phi = Grid3::zeros(q.dims());
    convolve_direct_into(kernel, q, &mut phi);
    phi
}

/// [`convolve_direct`] writing into a caller-provided grid — the
/// allocation-free form the MSM workspace path uses.
pub fn convolve_direct_into(kernel: &DenseKernel, q: &Grid3, phi: &mut Grid3) {
    let n = q.dims();
    assert_eq!(phi.dims(), n);
    let g = kernel.gc;
    for (c, _) in q.iter() {
        let center = [c[0] as i64, c[1] as i64, c[2] as i64];
        let mut acc = 0.0;
        for mx in -g..=g {
            for my in -g..=g {
                for mz in -g..=g {
                    let v = q.get([center[0] - mx, center[1] - my, center[2] - mz]);
                    acc += kernel.get([mx, my, mz]) * v;
                }
            }
        }
        phi.set(center, acc);
    }
}
