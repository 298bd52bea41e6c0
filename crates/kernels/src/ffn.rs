//! The SwiGLU expert feed-forward network.
//!
//! Every routed and shared expert in Mixtral, DeepSeek-V2 and Qwen2 is a
//! gated FFN: `y = W_down · (silu(W_gate · x) ⊙ (W_up · x))` with
//! `W_gate, W_up : inter x hidden` and `W_down : hidden x inter`. This module
//! implements that forward pass over `Q4_0` weights, the unit of work that
//! the hybrid scheduler assigns to the CPU.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::backend::Q8Acts;
use crate::gemm::swiglu_gate;
use crate::quant::{QuantError, QuantizedMatrix};
use crate::threadpool::WorkerPool;

/// Reusable scratch for the allocation-free expert forward passes.
///
/// [`ExpertFfn::forward_batch`] allocates four intermediates per call; on
/// the real-execution hot path that churn (one batch per expert per layer
/// per step) is pure overhead. An `ExecScratch` owns those buffers and is
/// resized — not freed — between calls, mirroring the scheduler's
/// `ScheduleScratch`. Thread one instance through the executor and pass it
/// to [`ExpertFfn::forward_batch_into`].
///
/// # Example
///
/// ```
/// use hybrimoe_kernels::{backend, ExecScratch, ExpertFfn, WorkerPool};
///
/// let ffn = ExpertFfn::random(64, 96, 7);
/// let pool = WorkerPool::new(2);
/// let mut scratch = ExecScratch::new();
/// let x = vec![0.05_f32; 2 * 64];
/// let mut y = vec![0.0_f32; 2 * 64];
/// ffn.forward_batch_into(&x, 2, &mut y, &mut scratch, &pool, backend::scalar());
/// assert_eq!(y, ffn.forward_batch(&x, 2));
/// ```
#[derive(Debug, Default, Clone)]
pub struct ExecScratch {
    /// Gate projection output, `tokens x inter`.
    g: Vec<f32>,
    /// Up projection output, `tokens x inter`.
    u: Vec<f32>,
    /// SwiGLU gating product, `tokens x inter`.
    h: Vec<f32>,
    /// Row-major GEMM intermediate shared by the three projections.
    band: Vec<f32>,
    /// The projection input in 8-bit codes: `x` for gate and up, then `h`
    /// for down.
    acts: Q8Acts,
}

impl ExecScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        ExecScratch::default()
    }
}

/// One expert's quantized weights and its forward pass.
///
/// # Example
///
/// ```
/// use hybrimoe_kernels::ExpertFfn;
///
/// let ffn = ExpertFfn::random(64, 96, 7);
/// let x = vec![0.05_f32; 64];
/// let y = ffn.forward(&x);
/// assert_eq!(y.len(), 64);
/// assert!(y.iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertFfn {
    hidden: usize,
    inter: usize,
    w_gate: QuantizedMatrix,
    w_up: QuantizedMatrix,
    w_down: QuantizedMatrix,
}

impl ExpertFfn {
    /// Builds an expert from dense weights, quantizing them to `Q4_0`.
    ///
    /// `w_gate` and `w_up` are `inter x hidden`; `w_down` is `hidden x
    /// inter`, all row-major.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError`] if either dimension is not a multiple of the
    /// quantization block or a slice length is wrong.
    pub fn from_dense(
        hidden: usize,
        inter: usize,
        w_gate: &[f32],
        w_up: &[f32],
        w_down: &[f32],
    ) -> Result<Self, QuantError> {
        Ok(ExpertFfn {
            hidden,
            inter,
            w_gate: QuantizedMatrix::quantize(w_gate, inter, hidden)?,
            w_up: QuantizedMatrix::quantize(w_up, inter, hidden)?,
            w_down: QuantizedMatrix::quantize(w_down, hidden, inter)?,
        })
    }

    /// Generates an expert with synthetic weights. Each weight is drawn
    /// uniformly from `[-1/√fan_in, 1/√fan_in)`, so its standard deviation
    /// is `1/√(3·fan_in)`; `fan_in` is `hidden` for the gate and up
    /// projections and `inter` for the down projection.
    ///
    /// The draws are the `rand` stub's `StdRng::seed_from_u64(seed)` stream
    /// taken by `gen_range`: the gate matrix row-major, then up, then
    /// down, each quantized to `Q4_0` as by [`ExpertFfn::from_dense`].
    /// Where the kernel backends' `Auto` ladder lands on AVX-512 and the
    /// host also has AVX-512 DQ, an AVX-512 pass draws and quantizes each
    /// matrix block by block, with no dense `f32` matrix, into the same
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` or `inter` is not a multiple of
    /// [`Q4_BLOCK`](crate::Q4_BLOCK).
    pub fn random(hidden: usize, inter: usize, seed: u64) -> Self {
        let scale_h = (1.0 / (hidden as f32)).sqrt();
        let scale_i = (1.0 / (inter as f32)).sqrt();
        #[cfg(target_arch = "x86_64")]
        if let Some(gen) = crate::synth::Q4Gen::detect() {
            let n = (inter * hidden) as u64;
            return ExpertFfn {
                hidden,
                inter,
                w_gate: gen.uniform(inter, hidden, scale_h, seed, 0),
                w_up: gen.uniform(inter, hidden, scale_h, seed, n),
                w_down: gen.uniform(hidden, inter, scale_i, seed, 2 * n),
            };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen =
            |n: usize, s: f32| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-s..s)).collect() };
        let w_gate = gen(inter * hidden, scale_h);
        let w_up = gen(inter * hidden, scale_h);
        let w_down = gen(hidden * inter, scale_i);
        ExpertFfn::from_dense(hidden, inter, &w_gate, &w_up, &w_down)
            .expect("dimensions must be block-aligned")
    }

    /// Hidden (model) dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Intermediate dimension.
    pub fn inter(&self) -> usize {
        self.inter
    }

    /// The three weight matrices: gate, up and down. Hidden from the docs:
    /// it exists so the weight byte pins can hash every packed byte.
    #[doc(hidden)]
    pub fn matrices(&self) -> [&QuantizedMatrix; 3] {
        [&self.w_gate, &self.w_up, &self.w_down]
    }

    /// Packed weight bytes across the three matrices.
    pub fn packed_bytes(&self) -> usize {
        self.w_gate.packed_bytes() + self.w_up.packed_bytes() + self.w_down.packed_bytes()
    }

    /// FLOPs for one token's forward pass (two FLOPs per multiply-add).
    pub fn flops_per_token(&self) -> u64 {
        // gate + up + down GEMVs.
        3 * 2 * self.hidden as u64 * self.inter as u64
    }

    /// Single-token reference forward pass: [`ExpertFfn::forward_batch`]
    /// at one token.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != hidden()`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.hidden, "input dimension mismatch");
        self.forward_batch(x, 1)
    }

    /// Batched reference forward pass, single-threaded on the scalar
    /// kernels: `x` is `tokens x hidden` row-major, the result is
    /// `tokens x hidden` row-major. The oracle
    /// [`ExpertFfn::forward_batch_into`] is pinned bit-identical to.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != tokens * hidden()`.
    pub fn forward_batch(&self, x: &[f32], tokens: usize) -> Vec<f32> {
        assert_eq!(x.len(), tokens * self.hidden, "input shape mismatch");
        let mut g = vec![0.0f32; tokens * self.inter];
        let mut u = vec![0.0f32; tokens * self.inter];
        self.w_gate.qgemm(x, tokens, &mut g);
        self.w_up.qgemm(x, tokens, &mut u);
        let mut h = vec![0.0f32; tokens * self.inter];
        swiglu_gate(&g, &u, &mut h);
        let mut y = vec![0.0f32; tokens * self.hidden];
        self.w_down.qgemm(&h, tokens, &mut y);
        y
    }

    /// [`ExpertFfn::forward_batch`] into a caller-owned output with reusable
    /// scratch, running on a persistent [`WorkerPool`]: zero allocations on
    /// the steady-state path. Each projection input is quantized once by
    /// `backend` (`x` for gate and up, `h` for down) and each Q4 block of
    /// the three weight matrices is unpacked once per call instead of once
    /// per token. Per-token results are bit-identical to
    /// [`ExpertFfn::forward`] on every backend and at every batch size
    /// (see [`crate::backend`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != tokens * hidden()` or
    /// `y.len() != tokens * hidden()`.
    pub fn forward_batch_into(
        &self,
        x: &[f32],
        tokens: usize,
        y: &mut [f32],
        scratch: &mut ExecScratch,
        pool: &WorkerPool,
        backend: &dyn crate::backend::KernelBackend,
    ) {
        assert_eq!(x.len(), tokens * self.hidden, "input shape mismatch");
        assert_eq!(y.len(), tokens * self.hidden, "output shape mismatch");
        let ExecScratch {
            g,
            u,
            h,
            band,
            acts,
        } = scratch;
        let inter = tokens * self.inter;
        g.resize(inter, 0.0);
        u.resize(inter, 0.0);
        h.resize(inter, 0.0);
        backend.quantize(x, self.hidden, acts);
        self.w_gate.qgemm_into(acts, g, band, pool, backend);
        self.w_up.qgemm_into(acts, u, band, pool, backend);
        swiglu_gate(g, u, h);
        backend.quantize(h, self.inter, acts);
        self.w_down.qgemm_into(acts, y, band, pool, backend);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_finiteness() {
        let ffn = ExpertFfn::random(32, 64, 1);
        let x = vec![0.1f32; 32];
        let y = ffn.forward(&x);
        assert_eq!(y.len(), 32);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_for_seed() {
        let a = ExpertFfn::random(32, 32, 42);
        let b = ExpertFfn::random(32, 32, 42);
        assert_eq!(a, b);
        let c = ExpertFfn::random(32, 32, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn batch_matches_single_token() {
        let ffn = ExpertFfn::random(32, 64, 2);
        let x: Vec<f32> = (0..3 * 32).map(|i| (i as f32 * 0.01).sin() * 0.1).collect();
        let batch = ffn.forward_batch(&x, 3);
        for t in 0..3 {
            let single = ffn.forward(&x[t * 32..(t + 1) * 32]);
            for i in 0..32 {
                assert!((batch[t * 32 + i] - single[i]).abs() < 1e-4, "t={t} i={i}");
            }
        }
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let ffn = ExpertFfn::random(32, 32, 3);
        let y = ffn.forward(&[0.0; 32]);
        assert!(y.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn flops_and_bytes_accounting() {
        let ffn = ExpertFfn::random(64, 96, 4);
        assert_eq!(ffn.flops_per_token(), 3 * 2 * 64 * 96);
        // 5 bits per weight over 3 matrices (Q4 nibbles + f32 block scale).
        let weights = 3 * 64 * 96;
        let expected = weights * 5 / 8;
        assert_eq!(ffn.packed_bytes(), expected);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_rejects_bad_input() {
        let ffn = ExpertFfn::random(32, 32, 6);
        let _ = ffn.forward(&[0.0; 31]);
    }

    #[test]
    fn batch_into_is_bit_identical_to_forward_threads() {
        // The expert-major hot path must reproduce the token-major
        // reference bit for bit.
        let (hidden, inter) = (64, 96);
        let ffn = ExpertFfn::random(hidden, inter, 9);
        for tokens in [1usize, 3, 5, 8] {
            let x: Vec<f32> = (0..tokens * hidden)
                .map(|i| (i as f32 * 0.013).sin() * 0.2)
                .collect();
            for threads in [1, 2, 4] {
                let pool = crate::threadpool::WorkerPool::new(threads);
                let mut scratch = ExecScratch::new();
                let mut y = vec![0.0f32; tokens * hidden];
                ffn.forward_batch_into(
                    &x,
                    tokens,
                    &mut y,
                    &mut scratch,
                    &pool,
                    crate::backend::scalar(),
                );
                for t in 0..tokens {
                    let single = ffn.forward(&x[t * hidden..(t + 1) * hidden]);
                    assert_eq!(
                        &y[t * hidden..(t + 1) * hidden],
                        &single[..],
                        "tokens={tokens} t={t} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_into_reuses_scratch_across_shapes() {
        let ffn = ExpertFfn::random(32, 64, 10);
        let pool = crate::threadpool::WorkerPool::new(2);
        let mut scratch = ExecScratch::new();
        // Shrinking and growing the batch between calls must not leak
        // stale values through the retained buffers.
        for tokens in [4usize, 1, 6, 2] {
            let x: Vec<f32> = (0..tokens * 32)
                .map(|i| (i as f32 * 0.07).cos() * 0.1)
                .collect();
            let mut y = vec![0.0f32; tokens * 32];
            ffn.forward_batch_into(
                &x,
                tokens,
                &mut y,
                &mut scratch,
                &pool,
                crate::backend::scalar(),
            );
            assert_eq!(y, ffn.forward_batch(&x, tokens), "tokens={tokens}");
        }
    }

    #[test]
    fn batch_into_every_backend_is_close_to_the_scalar_oracle() {
        // "Close" is exact: every backend runs the same arithmetic.
        let (hidden, inter) = (64, 96);
        let ffn = ExpertFfn::random(hidden, inter, 11);
        let pool = crate::threadpool::WorkerPool::new(2);
        for tokens in [1usize, 4, 7] {
            let x: Vec<f32> = (0..tokens * hidden)
                .map(|i| (i as f32 * 0.017).sin() * 0.2)
                .collect();
            let mut reference = vec![0.0f32; tokens * hidden];
            let mut scratch = ExecScratch::new();
            ffn.forward_batch_into(
                &x,
                tokens,
                &mut reference,
                &mut scratch,
                &pool,
                crate::backend::scalar(),
            );
            for backend in crate::backend::available() {
                let mut y = vec![0.0f32; tokens * hidden];
                let mut scratch = ExecScratch::new();
                ffn.forward_batch_into(&x, tokens, &mut y, &mut scratch, &pool, backend);
                assert_eq!(y, reference, "{:?} tokens={tokens}", backend.kind());
            }
        }
    }
}
