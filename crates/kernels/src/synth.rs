//! Synthetic expert weights drawn straight into `Q4_0` blocks with
//! AVX-512.
//!
//! [`ExpertFfn::random`](crate::ExpertFfn::random) fills each matrix with
//! the `rand` stub's `StdRng::gen_range(-bound..bound)`, a SplitMix64
//! stream, and stores it as `Q4_0`. Done literally, that builds a dense
//! `f32` matrix and then runs [`QuantizedMatrix::quantize`] over it, which
//! is what hosts without this pass do. Here the two are one pass: draw `k`
//! (counting from 0) of the stream seeded with `s` is the SplitMix64
//! output of the state `s + (k + 1)·γ`, so eight consecutive draws are
//! eight independent 64-bit lanes. Each op draws eight with the stub's
//! `f64` arithmetic and both of its endpoint guards, and the `Q4_0` rule
//! then encodes sixteen codes per op straight into the matrix's buffer.
//! The bytes are the literal path's; `tests/tests/weight_bits.rs` pins
//! their hashes.
//!
//! The pass needs AVX-512 F, DQ, BW and VL. [`Q4Gen::detect`] finds it
//! where the kernel backends' `Auto` ladder lands on `Avx512` and the host
//! also has DQ, so `HYBRIMOE_KERNEL_BACKEND=scalar` or `=avx2` turns it
//! off.

use crate::backend::KernelBackendKind;
use crate::quant::{packed_row_bytes, QuantizedMatrix, Q4_BLOCK};

/// SplitMix64's state increment `γ`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
/// SplitMix64's two output multipliers.
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// Proof that the host runs the AVX-512 pass: the private field makes
/// [`Q4Gen::detect`] the only way to get one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Q4Gen(());

impl Q4Gen {
    /// The pass, if the `Auto` ladder selects it (see the
    /// [module docs](self)).
    pub(crate) fn detect() -> Option<Self> {
        Q4Gen::on(KernelBackendKind::Auto)
    }

    /// The pass, if `kind` resolves to `Avx512` and the host has DQ.
    fn on(kind: KernelBackendKind) -> Option<Self> {
        let simd = kind.resolved() == KernelBackendKind::Avx512
            && std::arch::is_x86_feature_detected!("avx512dq");
        simd.then_some(Q4Gen(()))
    }

    /// A `rows × cols` matrix of draws `first..first + rows·cols` of the
    /// stream seeded with `seed`, row-major, each `gen_range(-bound..bound)`,
    /// quantized to `Q4_0`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is not a multiple of [`Q4_BLOCK`].
    pub(crate) fn uniform(
        self,
        rows: usize,
        cols: usize,
        bound: f32,
        seed: u64,
        first: u64,
    ) -> QuantizedMatrix {
        assert!(
            cols.is_multiple_of(Q4_BLOCK),
            "column count {cols} is not a multiple of {Q4_BLOCK}"
        );
        let mut data = vec![0u8; rows * packed_row_bytes(cols)];
        // The state before draw `first`.
        let state = seed.wrapping_add(first.wrapping_mul(GAMMA));
        // SAFETY: a `Q4Gen` exists only after `on` saw the AVX-512 F, BW
        // and VL checks of `resolved()` and the DQ check pass.
        #[allow(unsafe_code)]
        unsafe {
            avx512::fill(&mut data, bound, state)
        };
        QuantizedMatrix::from_packed(rows, cols, data)
    }
}

/// The pass: the stub's `gen_range` eight draws at a time, op for op
/// (`mul` then `add`, never FMA; `cvtpd_ps` rounds to nearest even like
/// `as f32`), and [`encode_block`](crate::quant::encode_block)'s rule
/// sixteen codes at a time.
#[allow(unsafe_code)]
mod avx512 {
    use std::arch::x86_64::*;

    use super::{GAMMA, MIX1, MIX2};
    use crate::quant::{q4_scale, Q4_BLOCK_BYTES};

    /// The loop-invariant vectors of one matrix.
    struct Consts {
        gamma8: __m512i,
        mix1: __m512i,
        mix2: __m512i,
        unit: __m512d,
        lo: __m512d,
        hi: __m512d,
        span: __m512d,
        low: __m512,
        high: __m512,
    }

    /// Fills `data`'s blocks with the draws after `state`, each
    /// `gen_range(-bound..bound)`, quantized.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, DQ, BW and VL at runtime.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub(super) unsafe fn fill(data: &mut [u8], bound: f32, state: u64) {
        let (low, high) = (-bound, bound);
        let c = Consts {
            gamma8: _mm512_set1_epi64(GAMMA.wrapping_mul(8) as i64),
            mix1: _mm512_set1_epi64(MIX1 as i64),
            mix2: _mm512_set1_epi64(MIX2 as i64),
            unit: _mm512_set1_pd(1.0 / (1u64 << 53) as f64),
            lo: _mm512_set1_pd(f64::from(low)),
            hi: _mm512_set1_pd(f64::from(high)),
            span: _mm512_set1_pd(f64::from(high) - f64::from(low)),
            low: _mm512_set1_ps(low),
            high: _mm512_set1_ps(high),
        };
        // Lane `i` holds the state of draw `i`, then of draw `i + 8`, ...
        let lane = |i: u64| state.wrapping_add(i.wrapping_mul(GAMMA)) as i64;
        let mut s = _mm512_setr_epi64(
            lane(1),
            lane(2),
            lane(3),
            lane(4),
            lane(5),
            lane(6),
            lane(7),
            lane(8),
        );
        for dst in data.chunks_exact_mut(Q4_BLOCK_BYTES) {
            let d0 = draw8(&mut s, &c);
            let d1 = draw8(&mut s, &c);
            let d2 = draw8(&mut s, &c);
            let d3 = draw8(&mut s, &c);
            encode(narrow(d0, d1, &c), narrow(d2, d3, &c), dst);
        }
    }

    /// [`encode_block`](crate::quant::encode_block) on a block held in two
    /// registers, `v0` its first sixteen values and `v1` the rest.
    ///
    /// # Safety
    ///
    /// Requires the module's features. Every value must be finite (see
    /// [`codes16`]).
    ///
    /// # Panics
    ///
    /// Panics unless `dst` is [`Q4_BLOCK_BYTES`] long.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    #[inline]
    unsafe fn encode(v0: __m512, v1: __m512, dst: &mut [u8]) {
        assert_eq!(dst.len(), Q4_BLOCK_BYTES, "one block");
        let amax = _mm512_reduce_max_ps(_mm512_max_ps(_mm512_abs_ps(v0), _mm512_abs_ps(v1)));
        let (scale, inv) = q4_scale(amax);
        let inv = _mm512_set1_ps(inv);
        // Codes as bytes, then each (even, odd) byte pair folded to
        // `even | odd << 4` in its 16-bit lane's low byte.
        let codes = _mm256_set_m128i(codes16(v1, inv), codes16(v0, inv));
        let pairs = _mm256_or_si256(codes, _mm256_srli_epi16::<4>(codes));
        dst[..4].copy_from_slice(&scale.to_le_bytes());
        // SAFETY: `dst` is one block: the scale, then 16 nibble bytes.
        _mm_storeu_si128(
            dst.as_mut_ptr().add(4) as *mut __m128i,
            _mm256_cvtepi16_epi8(pairs),
        );
    }

    /// [`encode`] on a block in memory, for the tests.
    ///
    /// # Safety
    ///
    /// As [`encode`].
    #[cfg(test)]
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    pub(super) unsafe fn encode_block(src: &[f32; 32], dst: &mut [u8]) {
        // SAFETY: two loads of sixteen floats inside `src`.
        let (v0, v1) = (
            _mm512_loadu_ps(src.as_ptr()),
            _mm512_loadu_ps(src.as_ptr().add(16)),
        );
        encode(v0, v1, dst);
    }

    /// The next eight draws as `f64` samples on `[lo, hi)`, narrowed to
    /// `f32`; advances every lane by eight draws.
    ///
    /// # Safety
    ///
    /// Requires the module's features.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    #[inline]
    unsafe fn draw8(s: &mut __m512i, c: &Consts) -> __m256 {
        let mut z = *s;
        *s = _mm512_add_epi64(z, c.gamma8);
        z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), c.mix1);
        z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), c.mix2);
        z = _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z));
        let unit = _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(z)), c.unit);
        let v = _mm512_add_pd(c.lo, _mm512_mul_pd(c.span, unit));
        let v = _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_GE_OQ>(v, c.hi), v, c.lo);
        _mm512_cvtpd_ps(v)
    }

    /// Sixteen draws in order, with the `f32` endpoint guard.
    ///
    /// # Safety
    ///
    /// Requires the module's features.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    #[inline]
    unsafe fn narrow(first: __m256, second: __m256, c: &Consts) -> __m512 {
        let v = _mm512_insertf32x8::<1>(_mm512_castps256_ps512(first), second);
        _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, c.high), v, c.low)
    }

    /// `quantize_one` on sixteen lanes: `(v · inv).round() + 8` clamped
    /// to `[0, 15]`, as bytes. The rounding is half away from zero, as
    /// `f32::round`: truncate, then step away from zero when the dropped
    /// fraction is at least ½. Below 2²³ in magnitude that fraction is
    /// exact, and `cvtt` truncates like `as i32` on every finite value
    /// below 2³¹; the generator's draws stay far inside both
    /// (`|v · inv| ≤ 7.5` up to rounding).
    ///
    /// # Safety
    ///
    /// Requires the module's features.
    #[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
    #[inline]
    unsafe fn codes16(v: __m512, inv: __m512) -> __m128i {
        let x = _mm512_mul_ps(v, inv);
        let t = _mm512_cvttps_epi32(x);
        let frac = _mm512_sub_ps(x, _mm512_cvtepi32_ps(t));
        let one = _mm512_set1_epi32(1);
        let up = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(frac, _mm512_set1_ps(0.5));
        let down = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(frac, _mm512_set1_ps(-0.5));
        let t = _mm512_mask_sub_epi32(_mm512_mask_add_epi32(t, up, t, one), down, t, one);
        let q = _mm512_add_epi32(t, _mm512_set1_epi32(8));
        let q = _mm512_min_epi32(
            _mm512_max_epi32(q, _mm512_setzero_si512()),
            _mm512_set1_epi32(15),
        );
        _mm512_cvtepi32_epi8(q)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    use super::*;
    use crate::quant::{encode_block, Q4_BLOCK_BYTES};

    /// The literal path: `rows·cols` draws from `first` on, then quantize.
    fn dense(rows: usize, cols: usize, bound: f32, seed: u64, first: u64) -> QuantizedMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..first {
            rng.next_u64();
        }
        let w: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        QuantizedMatrix::quantize(&w, rows, cols).unwrap()
    }

    /// The pass whenever the host has it, even where
    /// `HYBRIMOE_KERNEL_BACKEND` turns it off for `Auto`.
    fn pass() -> Option<Q4Gen> {
        Q4Gen::on(KernelBackendKind::Avx512)
    }

    #[test]
    fn pass_matches_the_dense_path() {
        let Some(gen) = pass() else { return };
        for (rows, cols) in [(1usize, 32usize), (3, 64), (5, 96), (16, 256)] {
            for seed in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
                for first in [0u64, 1, 7, 33] {
                    let bound = (1.0 / (cols as f32)).sqrt();
                    let want = dense(rows, cols, bound, seed, first);
                    let got = gen.uniform(rows, cols, bound, seed, first);
                    assert_eq!(got, want, "{rows}x{cols} seed {seed} first {first}");
                }
            }
        }
    }

    /// SplitMix64's output function inverted: the state whose draw is `y`.
    fn unmix(mut y: u64) -> u64 {
        fn unshift(y: u64, s: u32) -> u64 {
            let mut x = y;
            for _ in 0..64 / s {
                x = y ^ (x >> s);
            }
            x
        }
        fn inverse(m: u64) -> u64 {
            let mut inv = m;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
            }
            inv
        }
        y = unshift(y, 31).wrapping_mul(inverse(MIX2));
        y = unshift(y, 27).wrapping_mul(inverse(MIX1));
        unshift(y, 30)
    }

    /// Draws at the very top of the range take the endpoint guards, and the
    /// bottom one lands on `low` exactly; put each in every lane position
    /// of a block.
    #[test]
    fn endpoint_draws_take_the_stub_guards_in_every_lane() {
        let Some(gen) = pass() else { return };
        for bits in [u64::MAX, u64::MAX - (1 << 11), 0, 1 << 11] {
            for bound in [1.0f32, 0.0625, 0.044194173, 0.026648244, 3.3e-7] {
                for k in 0..Q4_BLOCK as u64 {
                    let seed = unmix(bits).wrapping_sub((k + 1).wrapping_mul(GAMMA));
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..k {
                        rng.next_u64();
                    }
                    assert_eq!(rng.next_u64(), bits, "draw {k} is placed");
                    let want = dense(2, 64, bound, seed, 0);
                    assert_eq!(gen.uniform(2, 64, bound, seed, 0), want, "bits {bits:#x}");
                }
            }
        }
    }

    /// Blocks whose largest magnitude is 7.5, so the scale is exactly 1 and
    /// each value is its own scaled code: exact ties of either sign, values
    /// just inside a tie, the saturating ends and zeros, in every lane
    /// position.
    #[test]
    fn avx512_encoder_matches_encode_block_on_ties() {
        if pass().is_none() {
            return;
        }
        let special = [
            0.5f32,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            6.5,
            -6.5,
            7.5,
            -7.5,
            0.49999997,
            -0.49999997,
            1.4999999,
            -1.4999999,
            0.0,
            -0.0,
            3.0,
            -4.0,
        ];
        for rotate in 0..Q4_BLOCK {
            let block: [f32; Q4_BLOCK] =
                std::array::from_fn(|i| special[(i + rotate) % special.len()]);
            let (mut want, mut got) = ([0u8; Q4_BLOCK_BYTES], [0u8; Q4_BLOCK_BYTES]);
            encode_block(&block, &mut want);
            // SAFETY: the AVX-512 features were just checked, and every
            // value is finite.
            #[allow(unsafe_code)]
            unsafe {
                avx512::encode_block(&block, &mut got)
            };
            assert_eq!(got, want, "rotation {rotate}");
        }
    }

    #[test]
    fn scalar_and_avx2_kinds_turn_the_pass_off() {
        assert!(Q4Gen::on(KernelBackendKind::Scalar).is_none());
        assert!(Q4Gen::on(KernelBackendKind::Avx2).is_none());
    }
}
