//! The instruction-set instantiations of the SIMD kernels.
//!
//! A kernel with SIMD bodies picks one [`Isa`] per call, by runtime
//! detection ([`Isa::detect`]), and hands the same value to every stage it
//! runs, so one call never mixes instantiations: a TME execute call
//! detects once and runs the grid passes, interpolation and the
//! short-range sum on that value. Stages in other crates take it as
//! an argument; each SIMD body performs the IEEE operations of the
//! portable body in the same order (no FMA), so whichever available `Isa`
//! a caller passes changes speed, never bits.
//!
//! Which stage has which bodies:
//!
//! | stage | portable | `Avx2` | `Avx512` |
//! |---|---|---|---|
//! | pair candidates (`tme_mesh::cells`) | scalar | 4 lanes | 8 lanes, compress |
//! | pair table + accumulate (`table`, `cells`) | scalar | 4 lanes | the AVX2 bodies |
//! | gather weights (`tme_mesh::assign`) | 8-lane triangle | 4-lane vectors | 8-lane vectors |
//! | gather, atoms as lanes | 8 interleaved lanes | 2 × 4-lane `vgatherqpd` | 8-lane `vgatherqpd` |
//! | grid rows (`tme_core::rows`: convolve, restrict, prolong) | 32-output blocks | 32-output blocks | 64-output blocks |
//!
//! Every grid-row instantiation finishes a row in 32-, 16- and 8-output
//! blocks, then one output at a time. Charge assignment has the portable
//! body only: it is bound by memory traffic, and wider spread bodies
//! measured no faster.

/// One instantiation of a kernel with SIMD bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Plain Rust: the reference every SIMD body is pinned to.
    Portable,
    /// 256-bit AVX2 bodies.
    Avx2,
    /// AVX-512F/VL bodies (the 256-bit ones where a stage has no
    /// 512-bit body of its own).
    Avx512,
}

impl Isa {
    /// Every instantiation, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// The widest instantiation the running CPU supports.
    #[must_use]
    pub fn detect() -> Self {
        Isa::ALL
            .into_iter()
            .rev()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Portable)
    }

    /// Whether the running CPU can execute this instantiation.
    #[must_use]
    pub fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Isa::Portable => true,
                Isa::Avx2 => has!("avx2"),
                Isa::Avx512 => has!("avx2") && has!("avx512f") && has!("avx512vl"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Isa::Portable
        }
    }

    /// Lower-case name, as the benchmark rows record it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_picks_the_widest_available() {
        let widest = Isa::ALL.into_iter().rev().find(|isa| isa.available());
        assert_eq!(Some(Isa::detect()), widest);
        assert!(Isa::Portable.available());
    }
}
