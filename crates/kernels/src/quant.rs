//! `Q4_0` block quantization, llama.cpp-compatible layout.
//!
//! Weights are grouped into blocks of [`Q4_BLOCK`] = 32 consecutive values.
//! Each block stores one `f32` scale and 32 packed 4-bit codes (two per
//! byte), code `q ∈ [0, 15]` decoding to `(q - 8) * scale`. This is the
//! format the paper's system inherits from llama.cpp/Marlin (§V); it costs
//! 5 bits per weight with the `f32` scale used here (llama.cpp's `f16`
//! scale brings it to 4.5).
//!
//! The kernels never expand it to `f32`: activations are quantized to
//! 8-bit codes ([`Q8Acts`]) and each block is dotted in integers — llama.cpp's
//! `Q4_0 × Q8_0`, the arithmetic [`crate::backend`] defines once for every
//! backend. [`QuantizedMatrix::dequantize`] remains as the oracle the tests
//! measure that arithmetic's accuracy against.
//!
//! Two kernels read it. [`QuantizedMatrix::qgemm`] (and its one-token
//! form [`QuantizedMatrix::qgemv`]) is the self-contained reference: `f32`
//! in, one thread, a fresh buffer, the scalar backend.
//! [`QuantizedMatrix::qgemm_into`] is the hot path: the caller quantizes a
//! projection's input once, a persistent [`WorkerPool`] splits the weight
//! rows into one contiguous band per worker, and each band goes to the
//! selected [`KernelBackend`] in a single `qdot_rows` call that writes
//! straight into the band's slice of the output — no allocation, one
//! virtual dispatch per band. Both produce the same bits.

use std::fmt;
use std::sync::Arc;

use crate::backend::{scalar, KernelBackend, Q8Acts};
use crate::threadpool::WorkerPool;

/// Number of weights per quantization block.
pub const Q4_BLOCK: usize = 32;

/// Bytes used to store one block: a 4-byte scale plus 16 packed nibbles.
pub const Q4_BLOCK_BYTES: usize = 4 + Q4_BLOCK / 2;

/// Packed bytes of one weight row of `cols` (block-aligned) columns.
pub(crate) const fn packed_row_bytes(cols: usize) -> usize {
    cols / Q4_BLOCK * Q4_BLOCK_BYTES
}

/// Errors from quantized matrix constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// The number of columns must be a multiple of [`Q4_BLOCK`].
    ColsNotBlockAligned {
        /// Offending column count.
        cols: usize,
    },
    /// The weight slice length does not equal `rows * cols`.
    ShapeMismatch {
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        actual: usize,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::ColsNotBlockAligned { cols } => {
                write!(f, "column count {cols} is not a multiple of {Q4_BLOCK}")
            }
            QuantError::ShapeMismatch { expected, actual } => {
                write!(f, "expected {expected} weights, got {actual}")
            }
        }
    }
}

impl std::error::Error for QuantError {}

/// A `rows x cols` matrix stored in `Q4_0` blocks, row-major.
///
/// The packed buffer is a shared `Arc<[u8]>`, so cloning a matrix copies
/// no weights.
///
/// # Example
///
/// ```
/// use hybrimoe_kernels::QuantizedMatrix;
///
/// let w: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 10.0).collect();
/// let q = QuantizedMatrix::quantize(&w, 2, 32)?;
/// let back = q.dequantize();
/// // Round-trip error is bounded by half a quantization step per weight.
/// for (a, b) in w.iter().zip(back.iter()) {
///     assert!((a - b).abs() <= q.max_step() / 2.0 + 1e-6);
/// }
/// # Ok::<(), hybrimoe_kernels::QuantError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Packed blocks: per row, `cols / Q4_BLOCK` blocks of
    /// [`Q4_BLOCK_BYTES`].
    data: Arc<[u8]>,
}

impl fmt::Debug for QuantizedMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantizedMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("packed_bytes", &self.data.len())
            .finish()
    }
}

impl QuantizedMatrix {
    /// Quantizes a dense row-major `rows x cols` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ColsNotBlockAligned`] if `cols` is not a
    /// multiple of [`Q4_BLOCK`], or [`QuantError::ShapeMismatch`] if the
    /// slice length is wrong.
    pub fn quantize(w: &[f32], rows: usize, cols: usize) -> Result<Self, QuantError> {
        if !cols.is_multiple_of(Q4_BLOCK) {
            return Err(QuantError::ColsNotBlockAligned { cols });
        }
        if w.len() != rows * cols {
            return Err(QuantError::ShapeMismatch {
                expected: rows * cols,
                actual: w.len(),
            });
        }
        let blocks_per_row = cols / Q4_BLOCK;
        let mut data = vec![0u8; rows * blocks_per_row * Q4_BLOCK_BYTES];
        for r in 0..rows {
            for b in 0..blocks_per_row {
                let src = &w[r * cols + b * Q4_BLOCK..r * cols + (b + 1) * Q4_BLOCK];
                let dst_off = (r * blocks_per_row + b) * Q4_BLOCK_BYTES;
                let dst = &mut data[dst_off..dst_off + Q4_BLOCK_BYTES];
                encode_block(src, dst);
            }
        }
        Ok(QuantizedMatrix::from_packed(rows, cols, data))
    }

    /// Wraps `rows` rows of already-packed blocks.
    pub(crate) fn from_packed(rows: usize, cols: usize, data: Vec<u8>) -> Self {
        debug_assert!(cols.is_multiple_of(Q4_BLOCK));
        debug_assert_eq!(data.len(), rows * packed_row_bytes(cols));
        QuantizedMatrix {
            rows,
            cols,
            data: Arc::from(data),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Size of the packed representation in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// The packed bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The largest quantization step across all blocks (`scale` of the block
    /// with the widest range). Bounds the element-wise round-trip error at
    /// `max_step() / 2`.
    pub fn max_step(&self) -> f32 {
        let blocks_per_row = self.cols / Q4_BLOCK;
        let mut max = 0.0f32;
        for i in 0..self.rows * blocks_per_row {
            let off = i * Q4_BLOCK_BYTES;
            let scale = f32::from_le_bytes(self.data[off..off + 4].try_into().expect("4 bytes"));
            max = max.max(scale.abs());
        }
        max
    }

    /// Decodes the matrix back to dense `f32`, row-major.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        let blocks_per_row = self.cols / Q4_BLOCK;
        for r in 0..self.rows {
            for b in 0..blocks_per_row {
                let off = (r * blocks_per_row + b) * Q4_BLOCK_BYTES;
                let dst =
                    &mut out[r * self.cols + b * Q4_BLOCK..r * self.cols + (b + 1) * Q4_BLOCK];
                decode_block(&self.data[off..off + Q4_BLOCK_BYTES], dst);
            }
        }
        out
    }

    /// Reference `y = W · x` GEMV: [`QuantizedMatrix::qgemm`] at one token.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn qgemv(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(y.len(), self.rows, "output length mismatch");
        self.qgemm(x, 1, y);
    }

    /// Reference `Y = X · Wᵀ` for a batch of inputs: `x` is `tokens x cols`
    /// row-major, `y` is `tokens x rows` row-major. Single-threaded on the
    /// scalar backend: quantizes `x` once, dots every row with every token
    /// and transposes the row-major result into `y`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn qgemm(&self, x: &[f32], tokens: usize, y: &mut [f32]) {
        assert_eq!(x.len(), tokens * self.cols, "input shape mismatch");
        assert_eq!(y.len(), tokens * self.rows, "output shape mismatch");
        let mut acts = Q8Acts::new();
        scalar().quantize(x, self.cols, &mut acts);
        let mut by_row = vec![0.0f32; self.rows * tokens];
        scalar().qdot_rows(&self.data, self.rows, &acts, &mut by_row);
        transpose_into(&by_row, tokens, self.rows, y);
    }

    /// [`QuantizedMatrix::qgemm`] on a persistent [`WorkerPool`] over
    /// already-quantized activations, with caller-owned scratch and no
    /// allocations once `band` has grown: each worker hands its band of
    /// rows and the whole token batch to `backend` in one
    /// [`KernelBackend::qdot_rows`] call, which writes straight into that
    /// band, so the backend can tile rows and tokens over registers and
    /// unpack each Q4 block once rather than once per token. Per-token
    /// results are bit-identical to `qgemv` on every backend.
    ///
    /// `band` is reusable scratch for the row-major intermediate; it is
    /// resized (capacity retained) and scattered into the token-major `y`
    /// (a single token needs neither and goes straight to `y`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn qgemm_into(
        &self,
        acts: &Q8Acts,
        y: &mut [f32],
        band: &mut Vec<f32>,
        pool: &WorkerPool,
        backend: &dyn KernelBackend,
    ) {
        let tokens = acts.tokens();
        assert!(
            tokens == 0 || acts.cols() == self.cols,
            "input shape mismatch"
        );
        assert_eq!(y.len(), tokens * self.rows, "output shape mismatch");
        if tokens == 0 {
            return;
        }
        if tokens == 1 {
            // Row-major and token-major coincide: skip the intermediate
            // and its scatter.
            return self.qdot_bands(acts, y, pool, backend);
        }
        band.clear();
        band.resize(self.rows * tokens, 0.0);
        self.qdot_bands(acts, band, pool, backend);
        transpose_into(band, tokens, self.rows, y);
    }

    /// Fills the row-major `out` (`rows × acts.tokens()`, at least one
    /// token) with one `qdot_rows` call per pool part. The parts' row
    /// ranges are exactly the successive `chunk`-row bands of `out`, so
    /// each non-empty part takes the next band off a shared iterator and
    /// computes that band's rows — disjoint `&mut` bands reach a `Fn` body
    /// without a per-call `Vec` of them (the lock is held only for the
    /// `next()`).
    fn qdot_bands(
        &self,
        acts: &Q8Acts,
        out: &mut [f32],
        pool: &WorkerPool,
        backend: &dyn KernelBackend,
    ) {
        let tokens = acts.tokens();
        let row_bytes = packed_row_bytes(self.cols);
        let (_, chunk) = pool.partition(self.rows);
        let bands = std::sync::Mutex::new(out.chunks_mut(chunk * tokens).enumerate());
        pool.run(self.rows, |_, r0, r1| {
            if r1 <= r0 {
                return;
            }
            let next = bands.lock().expect("band iterator poisoned").next();
            let (i, band) = next.expect("one band per non-empty part");
            let nrows = band.len() / tokens;
            let packed = &self.data[i * chunk * row_bytes..][..nrows * row_bytes];
            backend.qdot_rows(packed, nrows, acts, band);
        });
    }
}

/// Scatters the row-major `rows x tokens` kernel result into the
/// token-major `tokens x rows` output.
fn transpose_into(by_row: &[f32], tokens: usize, rows: usize, y: &mut [f32]) {
    for (r, row) in by_row.chunks(tokens).enumerate() {
        for (t, v) in row.iter().enumerate() {
            y[t * rows + r] = *v;
        }
    }
}

/// The `Q4_0` rule for one block: writes the scale and the 16 nibble bytes
/// of `src` into `dst`. The AVX-512 weight generator (`crate::synth`)
/// repeats this rule lane-wise; its tests check it against this function.
pub(crate) fn encode_block(src: &[f32], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), Q4_BLOCK);
    debug_assert_eq!(dst.len(), Q4_BLOCK_BYTES);
    let amax = src.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let (scale, inv) = q4_scale(amax);
    dst[..4].copy_from_slice(&scale.to_le_bytes());
    for i in 0..Q4_BLOCK / 2 {
        let q0 = quantize_one(src[2 * i], inv);
        let q1 = quantize_one(src[2 * i + 1], inv);
        dst[4 + i] = q0 | (q1 << 4);
    }
}

/// A block's scale and its reciprocal from the block's largest magnitude.
/// llama.cpp's `Q4_0` uses `scale = max|x| / 7` over `[-8, 7]`; this is the
/// symmetric variant `scale = max|x| / 7.5`, codes rounded into `[0, 15] - 8`.
/// An all-zero block has scale and reciprocal 0.
#[inline]
pub(crate) fn q4_scale(amax: f32) -> (f32, f32) {
    let scale = if amax == 0.0 { 0.0 } else { amax / 7.5 };
    let inv = if scale == 0.0 { 0.0 } else { 1.0 / scale };
    (scale, inv)
}

fn quantize_one(v: f32, inv_scale: f32) -> u8 {
    let q = (v * inv_scale).round() as i32 + 8;
    q.clamp(0, 15) as u8
}

fn decode_block(src: &[u8], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), Q4_BLOCK_BYTES);
    debug_assert_eq!(dst.len(), Q4_BLOCK);
    let scale = f32::from_le_bytes(src[..4].try_into().expect("4 bytes"));
    for i in 0..Q4_BLOCK / 2 {
        let byte = src[4 + i];
        dst[2 * i] = ((byte & 0x0f) as i32 - 8) as f32 * scale;
        dst[2 * i + 1] = ((byte >> 4) as i32 - 8) as f32 * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn round_trip_error_bounded() {
        let w = pseudo(4 * 64, 1);
        let q = QuantizedMatrix::quantize(&w, 4, 64).unwrap();
        let back = q.dequantize();
        let bound = q.max_step() / 2.0 + 1e-6;
        for (a, b) in w.iter().zip(back.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn zero_block_encodes_to_zero() {
        let w = vec![0.0f32; 32];
        let q = QuantizedMatrix::quantize(&w, 1, 32).unwrap();
        assert_eq!(q.dequantize(), w);
        assert_eq!(q.max_step(), 0.0);
    }

    #[test]
    fn rejects_unaligned_cols() {
        assert_eq!(
            QuantizedMatrix::quantize(&[0.0; 30], 1, 30),
            Err(QuantError::ColsNotBlockAligned { cols: 30 })
        );
    }

    #[test]
    fn rejects_shape_mismatch() {
        assert_eq!(
            QuantizedMatrix::quantize(&[0.0; 31], 1, 32),
            Err(QuantError::ShapeMismatch {
                expected: 32,
                actual: 31
            })
        );
    }

    #[test]
    fn packed_size_is_5_bits_per_weight() {
        let q = QuantizedMatrix::quantize(&pseudo(8 * 128, 2), 8, 128).unwrap();
        let bits_per_weight = q.packed_bytes() as f64 * 8.0 / (8.0 * 128.0);
        assert!((bits_per_weight - 5.0).abs() < 1e-9);
    }

    /// Roughly normal samples (sum of four uniforms), for the tails a
    /// uniform input lacks.
    fn gaussian(n: usize, seed: u32) -> Vec<f32> {
        pseudo(4 * n, seed)
            .chunks(4)
            .map(|c| c.iter().sum::<f32>())
            .collect()
    }

    /// The accuracy contract of the integer path at model-sized shapes
    /// (the benchmark model's projections among them): against the
    /// dequantized weights dotted with the unrounded activations in `f64`,
    /// an output is off by at most 1% of the output vector's largest
    /// magnitude. (Measured over 20 seeds per shape: worst 0.8%, rms
    /// 0.1–0.2%. The bound that holds at any shape is the rounding bound
    /// `backend::tests` and `kernel_backends.rs` check.)
    #[test]
    fn qgemv_matches_dequantized_gemv() {
        for (rows, cols) in [(64usize, 512usize), (256, 512), (512, 256), (32, 4096)] {
            for (name, w, x) in [
                ("uniform", pseudo(rows * cols, 3), pseudo(cols, 4)),
                ("gaussian", gaussian(rows * cols, 5), gaussian(cols, 6)),
            ] {
                let q = QuantizedMatrix::quantize(&w, rows, cols).unwrap();
                let mut y = vec![0.0; rows];
                q.qgemv(&x, &mut y);
                let truth: Vec<f64> = q
                    .dequantize()
                    .chunks(cols)
                    .map(|w| w.iter().zip(&x).map(|(w, x)| *w as f64 * *x as f64).sum())
                    .collect();
                let max_abs = truth.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (got, want) in y.iter().zip(&truth) {
                    assert!(
                        (*got as f64 - want).abs() <= 0.01 * max_abs,
                        "{name} {rows}x{cols}: {got} vs {want} (max |y| {max_abs})"
                    );
                }
            }
        }
    }

    #[test]
    fn qgemm_matches_per_token_qgemv() {
        let (rows, cols, tokens) = (5, 64, 3);
        let w = pseudo(rows * cols, 5);
        let q = QuantizedMatrix::quantize(&w, rows, cols).unwrap();
        let x = pseudo(tokens * cols, 6);
        let mut y = vec![0.0; tokens * rows];
        q.qgemm(&x, tokens, &mut y);
        for t in 0..tokens {
            let mut y1 = vec![0.0; rows];
            q.qgemv(&x[t * cols..(t + 1) * cols], &mut y1);
            for r in 0..rows {
                assert_eq!(y[t * rows + r], y1[r]);
            }
        }
    }

    #[test]
    fn qgemm_into_is_bit_identical_to_qgemv_per_token() {
        let (rows, cols) = (9, 96);
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 10), rows, cols).unwrap();
        for tokens in [1usize, 2, 4, 5, 9] {
            let x = pseudo(tokens * cols, 11);
            for threads in [1, 2, 3, 4] {
                let pool = WorkerPool::new(threads);
                for backend in crate::backend::available() {
                    let mut acts = Q8Acts::new();
                    backend.quantize(&x, cols, &mut acts);
                    let mut band = Vec::new();
                    let mut y = vec![0.0; tokens * rows];
                    q.qgemm_into(&acts, &mut y, &mut band, &pool, backend);
                    for t in 0..tokens {
                        let mut y1 = vec![0.0; rows];
                        q.qgemv(&x[t * cols..(t + 1) * cols], &mut y1);
                        assert_eq!(
                            &y[t * rows..(t + 1) * rows],
                            &y1[..],
                            "tokens={tokens} t={t} threads={threads} {:?}",
                            backend.kind()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(!QuantError::ColsNotBlockAligned { cols: 7 }
            .to_string()
            .is_empty());
        assert!(!QuantError::ShapeMismatch {
            expected: 1,
            actual: 2
        }
        .to_string()
        .is_empty());
    }
}
