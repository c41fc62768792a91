//! The grid path's one inner loop: a block of contiguous z-axis outputs
//! accumulates a run of source rows, `out[j] += Σ_t taps[t]·row_t[j]`.
//!
//! Every axis kernel of the GCU model — the separable convolutions
//! ([`crate::convolve`]) and the two-scale transfers ([`crate::levels`]) —
//! is this loop over a different set of rows (DESIGN.md §18). Each output
//! element receives its terms one at a time in ascending `t`, exactly as
//! the point-by-point reference forms do, so vectorising across `j` changes
//! no bit. The body exists once and is instantiated once per [`Isa`] —
//! plainly, under AVX2 and under AVX-512F/VL, the wider the longer its
//! register-held block of outputs. Without FMA each lane performs the same
//! IEEE multiply and add, so every instantiation produces identical bits.
//! A pass carries the instantiation its caller detected in its [`Planes`].

use tme_num::isa::Isa;
use tme_num::pool::Pool;

/// Where a grid pass runs its output x-planes, and on which instantiation
/// of the row loop. Either way every plane is one part with the same
/// arithmetic, so the output bits do not depend on where (or on how many
/// threads) the parts run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Planes<'a> {
    /// `None`: every part inline on the calling thread, in ascending order.
    pool: Option<&'a Pool>,
    /// Below this many multiply-adds of the pass per pool thread the parts
    /// run inline ([`Pool::should_serialize`]).
    serial_madds: usize,
    /// The row loop's instantiation, checked available when built.
    pub(crate) isa: Isa,
}

impl<'a> Planes<'a> {
    /// Every part inline on the calling thread, rows on `isa`.
    pub(crate) fn inline(isa: Isa) -> Planes<'static> {
        assert!(
            isa.available(),
            "{isa:?} rows requested on a CPU without it"
        );
        Planes {
            pool: None,
            serial_madds: 0,
            isa,
        }
    }

    /// Parts across `pool`, sized by `serial_madds` per thread, rows on
    /// `isa`.
    pub(crate) fn on(pool: &'a Pool, serial_madds: usize, isa: Isa) -> Self {
        Self {
            pool: Some(pool),
            serial_madds,
            ..Planes::inline(isa)
        }
    }

    /// The bound on the `worker` index [`Self::run`] hands its parts.
    pub(crate) fn threads(self) -> usize {
        self.pool.map_or(1, Pool::threads)
    }

    /// `f(part, worker)` for every part in `0..parts`; a pass of `madds`
    /// multiply-adds.
    pub(crate) fn run(self, parts: usize, madds: usize, f: impl Fn(usize, usize) + Sync) {
        match self.pool {
            Some(pool) => pool.run_parts_sized(parts, madds, self.serial_madds, f),
            None => (0..parts).for_each(|part| f(part, 0)),
        }
    }

    /// `f(x, plane)` for each consecutive `plane`-long chunk of `dst`; a
    /// pass of `madds` multiply-adds.
    pub(crate) fn for_each_plane(
        self,
        dst: &mut [f64],
        plane: usize,
        madds: usize,
        f: impl Fn(usize, &mut [f64]) + Sync,
    ) {
        match self.pool {
            Some(pool) => pool.for_each_chunk_sized(dst, plane, madds, self.serial_madds, f),
            None => dst
                .chunks_mut(plane)
                .enumerate()
                .for_each(|(x, chunk)| f(x, chunk)),
        }
    }
}

/// A row-major grid seen along `axis`: `(len, width)` — slabs of `len` rows
/// of `width` contiguous values each (an x-row is a whole y–z plane, a
/// y-row one z-line; on the z-axis `width` is 1 and a slab is one line).
pub(crate) fn along(n: [usize; 3], axis: usize) -> (usize, usize) {
    (n[axis], n[axis + 1..].iter().product())
}

/// The source rows of one output row: row `r` is `src[r·stride..]`, and term
/// `t` reads the row `t` steps from `first` around a periodic axis of `n`
/// rows — upward (restriction's `2m + k`) or downward (convolution's
/// `c − m`). The wrap costs one compare per term, not one per element.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ring<'a> {
    pub src: &'a [f64],
    pub stride: usize,
    pub n: usize,
    pub first: usize,
    pub up: bool,
}

impl<'a> Ring<'a> {
    #[inline(always)]
    fn step(&self, r: usize) -> usize {
        match (self.up, r) {
            (true, _) => next_around(r, self.n),
            (false, 0) => self.n - 1,
            (false, _) => r - 1,
        }
    }
}

/// The index after `r` on a periodic axis of `n` points.
#[inline(always)]
pub(crate) fn next_around(r: usize, n: usize) -> usize {
    if r + 1 == n {
        0
    } else {
        r + 1
    }
}

/// `out[j] += Σ_t taps[t] · row_t[j]`, each element's terms added in
/// ascending `t`, on the instantiation `isa` — the one a [`Planes`] was
/// built with, so it is available on the running CPU.
#[inline]
pub(crate) fn accumulate_rows(isa: Isa, out: &mut [f64], taps: &[f64], ring: Ring) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every `isa` handed here comes from a `Planes`, whose
        // constructor asserted `isa.available()`.
        Isa::Avx512 => unsafe { accumulate_rows_avx512(out, taps, ring) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — the `Planes` asserted AVX2 was available.
        Isa::Avx2 => unsafe { accumulate_rows_avx2(out, taps, ring) },
        _ => accumulate_rows_portable(out, taps, ring),
    }
}

fn accumulate_rows_portable(out: &mut [f64], taps: &[f64], ring: Ring) {
    accumulate_rows_body::<32>(out, taps, ring);
}

/// [`accumulate_rows_body`] compiled for AVX2 (four-lane multiply and add,
/// no FMA enabled): eight vectors of outputs stay in registers across the
/// tap loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn accumulate_rows_avx2(out: &mut [f64], taps: &[f64], ring: Ring) {
    accumulate_rows_body::<32>(out, taps, ring);
}

/// [`accumulate_rows_body`] compiled for AVX-512F/VL (eight-lane multiply
/// and add, no FMA enabled): eight vectors of outputs in registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn accumulate_rows_avx512(out: &mut [f64], taps: &[f64], ring: Ring) {
    accumulate_rows_body::<64>(out, taps, ring);
}

/// `WIDE`-element blocks held across the tap loop; a row's remainder goes
/// through blocks of 32, 16 and 8, then one element at a time, so a short
/// row (the 32- and 16-point axes) still keeps several vectors of add
/// chains in flight. The blocking decides only which elements share
/// registers: every element's terms arrive in the same order either way.
#[inline(always)]
fn accumulate_rows_body<const WIDE: usize>(out: &mut [f64], taps: &[f64], ring: Ring) {
    let done = accumulate_blocks::<WIDE>(out, 0, taps, ring);
    let done = accumulate_blocks::<32>(out, done, taps, ring);
    let done = accumulate_blocks::<16>(out, done, taps, ring);
    let done = accumulate_blocks::<8>(out, done, taps, ring);
    accumulate_blocks::<1>(out, done, taps, ring);
}

/// The whole `B`-wide blocks of `out[from..]`; returns where they end.
#[inline(always)]
fn accumulate_blocks<const B: usize>(
    out: &mut [f64],
    from: usize,
    taps: &[f64],
    ring: Ring,
) -> usize {
    let mut j = from;
    for block in out[from..].chunks_exact_mut(B) {
        let mut acc = [0.0; B];
        acc.copy_from_slice(block);
        let mut r = ring.first;
        for &tap in taps {
            let row = &ring.src[r * ring.stride + j..][..B];
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += tap * v;
            }
            r = ring.step(r);
        }
        block.copy_from_slice(&acc);
        j += B;
    }
    j
}

/// What the bitwise tests of the grid-path modules share.
#[cfg(test)]
pub(crate) mod testing {
    use tme_mesh::Grid3;

    /// Deterministic noise in `[−0.5, 0.5)`.
    pub(crate) fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// A noise grid with the values the term-order argument turns on:
    /// exact zeros (every seventh point) and a `-0.0`.
    pub(crate) fn grid_with_zeros(n: [usize; 3], seed: u64) -> Grid3 {
        let mut g = Grid3::from_vec(n, noise(n.iter().product(), seed));
        for v in g.as_mut_slice().iter_mut().step_by(7) {
            *v = 0.0;
        }
        g.as_mut_slice()[5] = -0.0;
        g
    }

    pub(crate) fn assert_bitwise(fast: &Grid3, slow: &Grid3, what: &str) {
        assert_eq!(fast.dims(), slow.dims(), "{what}");
        for ((m, a), (_, b)) in fast.iter().zip(slow.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} at {m:?}: {a:e} vs {b:e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::noise;
    use super::*;

    /// The definition, one element at a time with a modulo per term.
    fn reference(out: &mut [f64], taps: &[f64], ring: Ring) {
        for (j, o) in out.iter_mut().enumerate() {
            for (t, &tap) in taps.iter().enumerate() {
                let t = t % ring.n;
                let r = if ring.up {
                    (ring.first + t) % ring.n
                } else {
                    (ring.first + ring.n - t) % ring.n
                };
                *o += tap * ring.src[r * ring.stride + j];
            }
        }
    }

    /// Blocked, tail and wrapped rows in both directions against the
    /// definition, on every instantiation the CPU has.
    #[test]
    fn instantiations_match_the_definition_bitwise() {
        let isas: Vec<Isa> = Isa::ALL.into_iter().filter(|isa| isa.available()).collect();
        eprintln!("row instantiations compared: {isas:?}");
        let (n, stride) = (5, 131);
        let mut src = noise(n * stride, 7);
        src[3] = 0.0;
        src[stride + 17] = -0.0;
        let taps = noise(7, 11);
        for width in [1, 7, 8, 31, 32, 41, 63, 64, 65, 131] {
            for first in 0..n {
                for up in [false, true] {
                    let ring = Ring {
                        src: &src,
                        stride,
                        n,
                        first,
                        up,
                    };
                    let start = noise(width, 13);
                    let mut want = start.clone();
                    reference(&mut want, &taps, ring);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    for &isa in &isas {
                        let mut got = start.clone();
                        accumulate_rows(Planes::inline(isa).isa, &mut got, &taps, ring);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{isa:?} w={width} r0={first} up={up}"
                        );
                    }
                }
            }
        }
    }
}
