//! Runtime-dispatched SIMD backends for the `Q4_0` dequant+dot inner loop.
//!
//! Every quantized kernel hot path in this crate ([`qgemv_into`],
//! [`qgemm_into`], and the expert forward built on them) bottoms out in one
//! primitive: *dequantize a band of packed weight rows and dot each with
//! one or more token activations* — [`KernelBackend::qdot_rows`], called
//! once per worker per projection. The threading and scatter logic around
//! it is written once; how rows and tokens are tiled inside a band is the
//! backend's business, selected at startup:
//!
//! * [`KernelBackendKind::Scalar`] — the original scalar loops, kept
//!   byte-for-byte as the **reference backend**. Every determinism pin in
//!   the repo is a pin of this backend's accumulation order.
//! * [`KernelBackendKind::Portable`] — a manually-unrolled eight-lane
//!   formulation that any arch's auto-vectorizer can turn into SIMD. Its
//!   per-lane accumulation order and final reduction tree are *exactly*
//!   those of the AVX2 path, so the two are bit-identical to each other
//!   (and differ from scalar only by documented float reassociation).
//! * [`KernelBackendKind::Avx2`] — `x86_64` AVX2 intrinsics
//!   (`target_feature`-gated): 16 packed nibbles unpack with one mask +
//!   shift + interleave, widen to `f32`, and multiply-accumulate eight
//!   lanes at a time, register-tiled over rows and tokens (below).
//!   Deliberately **no FMA**: fused multiply-adds round once where
//!   `mul`+`add` rounds twice, which would break the exact Portable ≡ AVX2
//!   equivalence the proptests pin.
//!
//! # Register tiling (AVX2)
//!
//! Each (row, token) output owns one eight-lane accumulator; the AVX2
//! backend keeps up to eight of them live in registers as an `R × T` tile
//! so that independent add chains overlap (a lone chain runs at add
//! latency, not add throughput) and loads are shared: `4 × 1` for a
//! single token (four rows share each activation load), `2 × T` for two to
//! four tokens (each dequantized block serves `T` tokens, each activation
//! load both rows), and above four tokens a row *pair* is dequantized once
//! into a few KiB of stack scratch and swept by `2 × 4` tiles — instead of
//! re-dequantizing the row for every four-token tile. Long rows are
//! chunked by columns with the accumulators carried across chunks, so no
//! shape allocates. Tiling never changes what an accumulator sees: the
//! four groups of each block, in column order, `mul` then `add`, then the
//! fixed reduction tree — so every tile shape, the one-row-at-a-time
//! Portable loop, GEMV and GEMM all produce the same bits.
//!
//! # Selection
//!
//! [`KernelBackendKind::resolve`] picks the implementation once at
//! executor startup, in this order:
//!
//! 1. An explicit config knob (`Scalar`/`Portable`/`Avx2`) wins outright
//!    (an explicit `Avx2` on hardware without AVX2 falls back to the
//!    scalar reference rather than faulting).
//! 2. `Auto` consults the `HYBRIMOE_KERNEL_BACKEND` environment variable
//!    (`scalar` | `portable` | `avx2` | `auto`, case-insensitive).
//! 3. Otherwise `Auto` runtime-detects: `is_x86_feature_detected!("avx2")`
//!    selects the AVX2 path, anything else falls back to the scalar
//!    reference.
//!
//! # Numerical contract
//!
//! All backends compute the same dequantization (`(q - 8) * scale` per
//! element — an exact integer-to-float conversion and one IEEE `f32`
//! multiply, so every backend holds the same weight bits) and differ only
//! in *float addition order*. Scalar sums each token's `cols` products
//! sequentially; Portable/AVX2 accumulate eight interleaved partial sums
//! and reduce them with a fixed tree. Each reassociation is one extra
//! rounding opportunity, so SIMD outputs stay within `cols/8 + 3` ulp-scale
//! rounding steps of the scalar oracle — the bound
//! `tests/tests/kernel_backends.rs` verifies against an `f64` ground-truth
//! accumulation.
//!
//! [`qgemv_into`]: crate::QuantizedMatrix::qgemv_into
//! [`qgemm_into`]: crate::QuantizedMatrix::qgemm_into

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::quant::{decode_block, packed_row_bytes, Q4_BLOCK, Q4_BLOCK_BYTES};

/// The environment variable consulted by [`KernelBackendKind::Auto`].
pub const KERNEL_BACKEND_ENV: &str = "HYBRIMOE_KERNEL_BACKEND";

/// Which `Q4_0` inner-loop implementation to use (the
/// `RealExecOptions::kernel_backend` knob).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelBackendKind {
    /// Resolve at startup: `HYBRIMOE_KERNEL_BACKEND` if set, else CPU
    /// feature detection (AVX2 where available, scalar elsewhere).
    #[default]
    Auto,
    /// The scalar reference loops (the determinism oracle).
    Scalar,
    /// Manually-unrolled eight-lane path, auto-vectorizable on any arch.
    Portable,
    /// AVX2 intrinsics (`x86_64` only; falls back to scalar elsewhere).
    Avx2,
}

impl KernelBackendKind {
    /// The lower-case name used by the env override, `real_bench` rows and
    /// the CI gate.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackendKind::Auto => "auto",
            KernelBackendKind::Scalar => "scalar",
            KernelBackendKind::Portable => "portable",
            KernelBackendKind::Avx2 => "avx2",
        }
    }

    /// Parses a backend name as accepted in `HYBRIMOE_KERNEL_BACKEND`
    /// (case-insensitive). Returns `None` for unrecognized values.
    pub fn parse(name: &str) -> Option<KernelBackendKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(KernelBackendKind::Auto),
            "scalar" => Some(KernelBackendKind::Scalar),
            "portable" => Some(KernelBackendKind::Portable),
            "avx2" => Some(KernelBackendKind::Avx2),
            _ => None,
        }
    }

    /// Resolves this knob to a concrete backend (see the [module
    /// docs](self) for the selection order). Never fails: unsupported
    /// explicit choices fall back to the scalar reference.
    pub fn resolve(self) -> &'static dyn KernelBackend {
        match self.resolved() {
            KernelBackendKind::Portable => &Portable,
            #[cfg(target_arch = "x86_64")]
            KernelBackendKind::Avx2 => &Avx2(()),
            _ => &Scalar,
        }
    }

    /// The concrete kind [`resolve`](KernelBackendKind::resolve) lands on:
    /// `Auto` is expanded (env override, then feature detection) and
    /// unsupported explicit choices collapse to `Scalar`.
    pub fn resolved(self) -> KernelBackendKind {
        let requested = match self {
            KernelBackendKind::Auto => std::env::var(KERNEL_BACKEND_ENV)
                .ok()
                .and_then(|v| KernelBackendKind::parse(&v))
                .unwrap_or(KernelBackendKind::Auto),
            explicit => explicit,
        };
        match requested {
            KernelBackendKind::Auto => {
                if avx2_available() {
                    KernelBackendKind::Avx2
                } else {
                    KernelBackendKind::Scalar
                }
            }
            KernelBackendKind::Avx2 if !avx2_available() => KernelBackendKind::Scalar,
            concrete => concrete,
        }
    }
}

/// Whether the AVX2 path can run on this host.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The scalar reference backend (see [`KernelBackendKind::Scalar`]).
pub fn scalar() -> &'static dyn KernelBackend {
    &Scalar
}

/// Every backend that can run on this host: scalar and portable always,
/// plus AVX2 where detected. `real_bench` sweeps exactly this set.
pub fn available() -> Vec<&'static dyn KernelBackend> {
    let mut backends: Vec<&'static dyn KernelBackend> = vec![&Scalar, &Portable];
    if avx2_available() {
        backends.push(KernelBackendKind::Avx2.resolve());
    }
    backends
}

/// One `Q4_0` inner-loop implementation: dequantize a band of packed
/// weight rows and dot each with a batch of activations.
///
/// Implementations are stateless statics; [`KernelBackendKind::resolve`]
/// hands out `&'static` references, so an executor stores the resolved
/// backend once and pays one virtual dispatch per *band* of rows (one per
/// worker per projection), inside which the backend is free to tile rows
/// and tokens over registers.
///
/// # Example
///
/// ```
/// use hybrimoe_kernels::{KernelBackendKind, QuantizedMatrix, Q4_BLOCK};
///
/// let weights: Vec<f32> = (0..Q4_BLOCK).map(|i| i as f32 / 16.0).collect();
/// let row = QuantizedMatrix::quantize(&weights, 1, Q4_BLOCK).unwrap();
///
/// let backend = KernelBackendKind::Scalar.resolve();
/// let x = vec![1.0_f32; Q4_BLOCK];
/// let mut out = [0.0_f32];
/// backend.qdot_row(&row.data(), &x, Q4_BLOCK, &mut out);
///
/// // Same math as dotting the dequantized row.
/// let reference: f32 = row.dequantize().iter().zip(&x).map(|(w, x)| w * x).sum();
/// assert!((out[0] - reference).abs() < 1e-3);
/// ```
pub trait KernelBackend: fmt::Debug + Send + Sync {
    /// The concrete kind of this implementation.
    fn kind(&self) -> KernelBackendKind;

    /// Computes `out[r * tokens + t] = dot(dequant(row r), x[t * cols ..
    /// (t+1) * cols])` for every row `r < nrows` and token `t < tokens`,
    /// where `tokens = out.len() / nrows`.
    ///
    /// `rows` is `nrows` consecutive packed weight rows (`cols / Q4_BLOCK`
    /// blocks of [`Q4_BLOCK_BYTES`] each); `x` is token-major (`tokens ×
    /// cols`). `out` is row-major and fully overwritten. Every (row, token)
    /// pair is accumulated in the same order whatever `nrows` and `tokens`
    /// are, so within one backend a multi-row call, a per-row call, a
    /// single-token call and a batched call all agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (in release builds too — the SIMD paths
    /// read through raw pointers on the strength of this check): `cols`
    /// must be a multiple of [`Q4_BLOCK`], `rows.len()` must be `nrows`
    /// rows of `cols` weights, `out.len()` must be a multiple of `nrows`,
    /// and `x.len()` must equal `tokens * cols`.
    fn qdot_rows(&self, rows: &[u8], nrows: usize, x: &[f32], cols: usize, out: &mut [f32]);

    /// [`qdot_rows`](KernelBackend::qdot_rows) on a single row:
    /// `out[t] = dot(dequant(row), x[t * cols .. (t+1) * cols])`.
    ///
    /// # Panics
    ///
    /// Panics on the shape mismatches `qdot_rows` rejects.
    fn qdot_row(&self, row: &[u8], x: &[f32], cols: usize, out: &mut [f32]) {
        self.qdot_rows(row, 1, x, cols, out);
    }
}

/// Validates a [`KernelBackend::qdot_rows`] call and returns its token
/// count. These are real asserts, paid once per band: the AVX2 kernels
/// index `rows`, `x` and `out` through raw pointers and rely on exactly
/// these extents (hence the overflow-checked products).
#[inline]
fn checked_tokens(rows: &[u8], nrows: usize, x: &[f32], cols: usize, out: &[f32]) -> usize {
    assert!(
        cols.is_multiple_of(Q4_BLOCK),
        "cols {cols} not block-aligned"
    );
    let row_bytes = packed_row_bytes(cols);
    assert_eq!(Some(rows.len()), nrows.checked_mul(row_bytes), "row bytes");
    let tokens = out.len().checked_div(nrows).unwrap_or(0);
    assert_eq!(out.len(), nrows * tokens, "output shape");
    assert_eq!(Some(x.len()), tokens.checked_mul(cols), "activation shape");
    tokens
}

/// [`KernelBackend::qdot_rows`] as a loop of a backend's one-row kernel:
/// shape-checks once, then hands `row_kernel` each `(row, x, cols,
/// out_row)`.
fn qdot_rows_by_row(
    rows: &[u8],
    nrows: usize,
    x: &[f32],
    cols: usize,
    out: &mut [f32],
    row_kernel: impl Fn(&[u8], &[f32], usize, &mut [f32]),
) {
    let tokens = checked_tokens(rows, nrows, x, cols, out);
    if tokens == 0 {
        return;
    }
    let row_bytes = packed_row_bytes(cols);
    for (r, out_row) in out.chunks_mut(tokens).enumerate() {
        row_kernel(&rows[r * row_bytes..(r + 1) * row_bytes], x, cols, out_row);
    }
}

/// The scalar reference implementation: byte-for-byte the pre-dispatch
/// loops of `qgemv_into`/`qgemm_into` (block-outer, four-token tiles with
/// independent accumulation chains, strictly sequential per-token adds).
#[derive(Debug, Clone, Copy)]
pub struct Scalar;

impl KernelBackend for Scalar {
    fn kind(&self) -> KernelBackendKind {
        KernelBackendKind::Scalar
    }

    fn qdot_rows(&self, rows: &[u8], nrows: usize, x: &[f32], cols: usize, out: &mut [f32]) {
        qdot_rows_by_row(rows, nrows, x, cols, out, scalar_row);
    }
}

/// One row of the [`Scalar`] backend; `out.len()` is the token count.
fn scalar_row(row: &[u8], x: &[f32], cols: usize, out: &mut [f32]) {
    let tokens = out.len();
    let blocks = cols / Q4_BLOCK;
    let mut buf = [0.0f32; Q4_BLOCK];
    out.fill(0.0);
    for b in 0..blocks {
        decode_block(&row[b * Q4_BLOCK_BYTES..(b + 1) * Q4_BLOCK_BYTES], &mut buf);
        let col0 = b * Q4_BLOCK;
        let mut t = 0;
        while t + 4 <= tokens {
            let x0 = &x[t * cols + col0..][..Q4_BLOCK];
            let x1 = &x[(t + 1) * cols + col0..][..Q4_BLOCK];
            let x2 = &x[(t + 2) * cols + col0..][..Q4_BLOCK];
            let x3 = &x[(t + 3) * cols + col0..][..Q4_BLOCK];
            let mut a0 = out[t];
            let mut a1 = out[t + 1];
            let mut a2 = out[t + 2];
            let mut a3 = out[t + 3];
            for i in 0..Q4_BLOCK {
                let w = buf[i];
                a0 += w * x0[i];
                a1 += w * x1[i];
                a2 += w * x2[i];
                a3 += w * x3[i];
            }
            out[t] = a0;
            out[t + 1] = a1;
            out[t + 2] = a2;
            out[t + 3] = a3;
            t += 4;
        }
        while t < tokens {
            let xs = &x[t * cols + col0..][..Q4_BLOCK];
            let mut acc = out[t];
            for (wv, xv) in buf.iter().zip(xs.iter()) {
                acc += wv * xv;
            }
            out[t] = acc;
            t += 1;
        }
    }
}

/// How many tokens the portable path processes per tile (per-token lane
/// accumulators live across the whole row).
const PORTABLE_TILE: usize = 4;

/// Reduces the eight lane accumulators with the fixed tree the AVX2
/// horizontal sum produces: `extract`+`add` folds lane `j` with `j+4`,
/// `movehl`+`add` folds pairs, and the final scalar add joins the halves.
/// Portable replicates it so the two SIMD paths agree bit for bit.
#[inline]
fn reduce8(l: &[f32; 8]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// The portable eight-lane implementation (see
/// [`KernelBackendKind::Portable`]): plain indexed loops over fixed-size
/// lane arrays, which LLVM auto-vectorizes on any target with 128/256-bit
/// vectors, and which executes correctly (if scalar) everywhere else.
#[derive(Debug, Clone, Copy)]
pub struct Portable;

impl KernelBackend for Portable {
    fn kind(&self) -> KernelBackendKind {
        KernelBackendKind::Portable
    }

    fn qdot_rows(&self, rows: &[u8], nrows: usize, x: &[f32], cols: usize, out: &mut [f32]) {
        qdot_rows_by_row(rows, nrows, x, cols, out, portable_row);
    }
}

/// One row of the [`Portable`] backend; `out.len()` is the token count.
fn portable_row(row: &[u8], x: &[f32], cols: usize, out: &mut [f32]) {
    let tokens = out.len();
    let blocks = cols / Q4_BLOCK;
    let mut buf = [0.0f32; Q4_BLOCK];
    let mut t = 0;
    while t < tokens {
        let tile = (tokens - t).min(PORTABLE_TILE);
        let mut lanes = [[0.0f32; 8]; PORTABLE_TILE];
        for b in 0..blocks {
            decode_block(&row[b * Q4_BLOCK_BYTES..(b + 1) * Q4_BLOCK_BYTES], &mut buf);
            let col0 = b * Q4_BLOCK;
            for (j, lane) in lanes.iter_mut().enumerate().take(tile) {
                let xs = &x[(t + j) * cols + col0..][..Q4_BLOCK];
                for g in 0..Q4_BLOCK / 8 {
                    for k in 0..8 {
                        lane[k] += buf[g * 8 + k] * xs[g * 8 + k];
                    }
                }
            }
        }
        for (j, lane) in lanes.iter().enumerate().take(tile) {
            out[t + j] = reduce8(lane);
        }
        t += tile;
    }
}

/// The AVX2 implementation (see [`KernelBackendKind::Avx2`]). The private
/// field makes [`KernelBackendKind::resolve`] the only constructor, and
/// that verifies AVX2 via `is_x86_feature_detected!` first.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl KernelBackend for Avx2 {
    fn kind(&self) -> KernelBackendKind {
        KernelBackendKind::Avx2
    }

    fn qdot_rows(&self, rows: &[u8], nrows: usize, x: &[f32], cols: usize, out: &mut [f32]) {
        let tokens = checked_tokens(rows, nrows, x, cols, out);
        // SAFETY: `Avx2` is only handed out by `resolve()` after
        // `is_x86_feature_detected!("avx2")` returned true, so the
        // target-feature function is safe to call on this host; and
        // `checked_tokens` just proved the extents it requires: `rows` holds
        // `nrows` rows of `cols` weights, `x` holds `tokens * cols` floats
        // and `out` holds `nrows * tokens`.
        #[allow(unsafe_code)]
        unsafe {
            avx2::qdot_rows(
                rows.as_ptr(),
                nrows,
                x.as_ptr(),
                cols,
                tokens,
                out.as_mut_ptr(),
            );
        }
    }
}

/// The AVX2 register-tiled kernels.
///
/// Per 32-weight block the dequantization ([`dequant`]) is exact and
/// yields four eight-lane weight groups. Every (row, token) pair owns one
/// eight-lane accumulator that receives `acc = acc + w[g] * x[g]` (`mul`
/// then `add`, never FMA) for the groups of the row's blocks in column
/// order, and is folded by [`hsum`] at the end. The tiles below only choose
/// *which* accumulators are live in registers together and how often a
/// block is dequantized; no accumulator ever sees a different sequence of
/// operands, which is why every tile shape produces the same bits.
///
/// An `R × T` tile keeps `R · T ≤ 8` accumulators live (plus four weight
/// groups and the constants, inside the sixteen `ymm` registers):
///
/// * one token — `micro::<4, 1>`: four rows share each activation load;
/// * two to four tokens — `micro::<2, T>`: each dequantized block is
///   applied to all `T` tokens, each activation load to both rows;
/// * more tokens — [`pair_dense`]: a row pair is dequantized once into an
///   L1-resident [`Scratch`] and swept by `2 × 4` [`sweep`] tiles, instead
///   of once per four-token tile;
/// * leftover rows — [`single_row`]: `micro::<1, T>` tiles of up to four
///   tokens.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{packed_row_bytes, Q4_BLOCK, Q4_BLOCK_BYTES};

    /// Eight-lane groups per block.
    const GROUPS: usize = Q4_BLOCK / 8;
    /// Columns of a row pair dequantized per [`pair_dense`] pass. Longer
    /// rows take several passes with the lane accumulators carried across
    /// them in [`Scratch::acc`], which leaves each accumulator's operand
    /// order untouched.
    const CHUNK_COLS: usize = 512;
    /// Tokens whose accumulators [`Scratch`] can carry; larger batches
    /// re-dequantize the row pair once per this many tokens.
    const TOKEN_SPAN: usize = 64;

    /// Stack scratch of the many-token path (8 KiB): a dequantized chunk
    /// of two rows, and one accumulator per (token, row) of the span.
    struct Scratch {
        w: [[f32; CHUNK_COLS]; 2],
        acc: [[__m256; 2]; TOKEN_SPAN],
    }

    /// See [`KernelBackend::qdot_rows`](super::KernelBackend::qdot_rows).
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime. `cols` must be a multiple of `Q4_BLOCK`;
    /// `rows` must be readable for `nrows` packed rows of `cols` weights,
    /// `x` for `tokens * cols` floats, and `out` writable for `nrows *
    /// tokens` floats.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qdot_rows(
        rows: *const u8,
        nrows: usize,
        x: *const f32,
        cols: usize,
        tokens: usize,
        out: *mut f32,
    ) {
        // SAFETY (all calls): the arguments are the caller's, unchanged.
        let tiled = match tokens {
            0 => return,
            1 => row_groups::<4, 1>(rows, nrows, x, cols, out),
            2 => row_groups::<2, 2>(rows, nrows, x, cols, out),
            3 => row_groups::<2, 3>(rows, nrows, x, cols, out),
            4 => row_groups::<2, 4>(rows, nrows, x, cols, out),
            _ => row_pairs_dense(rows, nrows, x, cols, tokens, out),
        };
        let row_bytes = packed_row_bytes(cols);
        for r in tiled..nrows {
            // SAFETY: row `r` and its `tokens` outputs are in bounds.
            single_row(
                rows.add(r * row_bytes),
                x,
                cols,
                tokens,
                out.add(r * tokens),
            );
        }
    }

    /// Runs `micro::<R, T>` over every full group of `R` rows of a
    /// `T`-token call; returns the number of rows covered.
    ///
    /// # Safety
    ///
    /// As [`qdot_rows`] with `tokens == T`.
    #[target_feature(enable = "avx2")]
    unsafe fn row_groups<const R: usize, const T: usize>(
        rows: *const u8,
        nrows: usize,
        x: *const f32,
        cols: usize,
        out: *mut f32,
    ) -> usize {
        let row_bytes = packed_row_bytes(cols);
        let mut r = 0;
        while r + R <= nrows {
            // SAFETY: rows `r..r + R` and their `R * T` outputs are in
            // bounds; `x` holds the `T` tokens.
            micro::<R, T>(rows.add(r * row_bytes), x, cols, out.add(r * T));
            r += R;
        }
        r
    }

    /// Runs [`pair_dense`] over every full row pair; returns the number of
    /// rows covered.
    ///
    /// # Safety
    ///
    /// As [`qdot_rows`].
    #[target_feature(enable = "avx2")]
    unsafe fn row_pairs_dense(
        rows: *const u8,
        nrows: usize,
        x: *const f32,
        cols: usize,
        tokens: usize,
        out: *mut f32,
    ) -> usize {
        let row_bytes = packed_row_bytes(cols);
        // Initialized once per band, not per pair: `pair_dense` overwrites
        // what it reads.
        let mut scratch = Scratch {
            w: [[0.0; CHUNK_COLS]; 2],
            acc: [[_mm256_setzero_ps(); 2]; TOKEN_SPAN],
        };
        let mut r = 0;
        while r + 2 <= nrows {
            // SAFETY: rows `r, r + 1` and their `2 * tokens` outputs are in
            // bounds; `x` is the caller's.
            pair_dense(
                rows.add(r * row_bytes),
                x,
                cols,
                tokens,
                out.add(r * tokens),
                &mut scratch,
            );
            r += 2;
        }
        r
    }

    /// One row against any number of tokens, in tiles of up to four.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `row` must be readable for one packed row of `cols`
    /// weights, `x` for `tokens * cols` floats, `out` writable for `tokens`.
    #[target_feature(enable = "avx2")]
    unsafe fn single_row(row: *const u8, x: *const f32, cols: usize, tokens: usize, out: *mut f32) {
        let mut t = 0;
        // SAFETY (all calls): tokens `t..t + T` and their outputs are in
        // bounds because `t + T <= tokens`.
        while t + 4 <= tokens {
            micro::<1, 4>(row, x.add(t * cols), cols, out.add(t));
            t += 4;
        }
        match tokens - t {
            1 => micro::<1, 1>(row, x.add(t * cols), cols, out.add(t)),
            2 => micro::<1, 2>(row, x.add(t * cols), cols, out.add(t)),
            3 => micro::<1, 3>(row, x.add(t * cols), cols, out.add(t)),
            _ => {}
        }
    }

    /// The `R × T` register tile: `out[r * T + t] = dot(dequant(row r),
    /// token t)` with all `R · T` accumulators live across the whole row
    /// and each block dequantized exactly once.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `rows` must be readable for `R` consecutive packed
    /// rows of `cols` weights, `x` for `T` tokens `cols` floats apart, and
    /// `out` writable for `R * T` floats.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn micro<const R: usize, const T: usize>(
        rows: *const u8,
        x: *const f32,
        cols: usize,
        out: *mut f32,
    ) {
        let blocks = cols / Q4_BLOCK;
        let row_bytes = packed_row_bytes(cols);
        let mut acc = [[_mm256_setzero_ps(); R]; T];
        for b in 0..blocks {
            // SAFETY: block `b` of row `r` is inside the `R` rows.
            let w: [[__m256; GROUPS]; R] =
                std::array::from_fn(|r| dequant(rows.add(r * row_bytes + b * Q4_BLOCK_BYTES)));
            for (t, acc_t) in acc.iter_mut().enumerate() {
                for g in 0..GROUPS {
                    // SAFETY: eight floats of block `b` of token `t`.
                    let xv = _mm256_loadu_ps(x.add(t * cols + b * Q4_BLOCK + g * 8));
                    for (acc_tr, w_r) in acc_t.iter_mut().zip(&w) {
                        *acc_tr = _mm256_add_ps(*acc_tr, _mm256_mul_ps(w_r[g], xv));
                    }
                }
            }
        }
        for (t, acc_t) in acc.iter().enumerate() {
            for (r, acc_tr) in acc_t.iter().enumerate() {
                // SAFETY: `r * T + t < R * T`.
                *out.add(r * T + t) = hsum(*acc_tr);
            }
        }
    }

    /// Two rows against more than four tokens: `out[r * tokens + t]`.
    /// Dequantizes the pair once per [`CHUNK_COLS`] columns (per
    /// [`TOKEN_SPAN`] tokens) into `scratch.w` and sweeps `2 × 4` tiles
    /// over it, carrying each (token, row) accumulator in `scratch.acc`
    /// from chunk to chunk.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `rows` must be readable for two consecutive packed
    /// rows of `cols` weights, `x` for `tokens * cols` floats, and `out`
    /// writable for `2 * tokens` floats.
    #[target_feature(enable = "avx2")]
    unsafe fn pair_dense(
        rows: *const u8,
        x: *const f32,
        cols: usize,
        tokens: usize,
        out: *mut f32,
        scratch: &mut Scratch,
    ) {
        let row_bytes = packed_row_bytes(cols);
        let mut t0 = 0;
        while t0 < tokens {
            let span = (tokens - t0).min(TOKEN_SPAN);
            let acc = &mut scratch.acc[..span];
            acc.fill([_mm256_setzero_ps(); 2]);
            let mut c0 = 0;
            while c0 < cols {
                let chunk = (cols - c0).min(CHUNK_COLS);
                for (r, w_r) in scratch.w.iter_mut().enumerate() {
                    // SAFETY: the chunk's blocks of row `r` are inside the
                    // two rows.
                    let packed = rows.add(r * row_bytes + c0 / Q4_BLOCK * Q4_BLOCK_BYTES);
                    for (b, w_b) in w_r[..chunk].chunks_exact_mut(Q4_BLOCK).enumerate() {
                        let w = dequant(packed.add(b * Q4_BLOCK_BYTES));
                        for (g, wg) in w.iter().enumerate() {
                            // SAFETY: `w_b` is `Q4_BLOCK = GROUPS * 8`
                            // floats.
                            _mm256_storeu_ps(w_b.as_mut_ptr().add(g * 8), *wg);
                        }
                    }
                }
                // SAFETY (all calls): tokens `t0 + t .. t0 + t + T` exist
                // because `t + T <= span`, and each has `chunk` floats
                // from column `c0`.
                let xs = x.add(t0 * cols + c0);
                let mut t = 0;
                while t + 4 <= span {
                    sweep::<4>(&scratch.w, chunk, xs.add(t * cols), cols, &mut acc[t..]);
                    t += 4;
                }
                match span - t {
                    1 => sweep::<1>(&scratch.w, chunk, xs.add(t * cols), cols, &mut acc[t..]),
                    2 => sweep::<2>(&scratch.w, chunk, xs.add(t * cols), cols, &mut acc[t..]),
                    3 => sweep::<3>(&scratch.w, chunk, xs.add(t * cols), cols, &mut acc[t..]),
                    _ => {}
                }
                c0 += chunk;
            }
            for (t, acc_t) in acc.iter().enumerate() {
                for (r, acc_tr) in acc_t.iter().enumerate() {
                    // SAFETY: `t0 + t < tokens` and `r < 2`.
                    *out.add(r * tokens + t0 + t) = hsum(*acc_tr);
                }
            }
            t0 += span;
        }
    }

    /// The `2 × T` tile over dequantized weights: continues `acc[t][r]`
    /// (the first `T` entries of `acc`) through `chunk` columns of the row
    /// pair in `w`, each weight load shared by the `T` tokens and each
    /// activation load by both rows.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `chunk` must be a multiple of 8 no larger than
    /// [`CHUNK_COLS`]; `x` must be readable for `T` tokens `cols` floats
    /// apart, `chunk` floats each.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn sweep<const T: usize>(
        w: &[[f32; CHUNK_COLS]; 2],
        chunk: usize,
        x: *const f32,
        cols: usize,
        acc: &mut [[__m256; 2]],
    ) {
        let mut a: [[__m256; 2]; T] = std::array::from_fn(|t| acc[t]);
        for c in (0..chunk).step_by(8) {
            // SAFETY: `c + 8 <= chunk <= CHUNK_COLS`.
            let w0 = _mm256_loadu_ps(w[0].as_ptr().add(c));
            let w1 = _mm256_loadu_ps(w[1].as_ptr().add(c));
            for (t, a_t) in a.iter_mut().enumerate() {
                // SAFETY: eight of token `t`'s `chunk` floats.
                let xv = _mm256_loadu_ps(x.add(t * cols + c));
                a_t[0] = _mm256_add_ps(a_t[0], _mm256_mul_ps(w0, xv));
                a_t[1] = _mm256_add_ps(a_t[1], _mm256_mul_ps(w1, xv));
            }
        }
        acc[..T].copy_from_slice(&a);
    }

    /// Dequantizes one packed block into its four eight-lane groups, in
    /// `decode_block`'s element order: one 16-byte load, nibble unpack
    /// (`and 0x0f` for even elements, `shift`+`and` for odd,
    /// `unpacklo/hi_epi8` to interleave them back), four zero-extending
    /// widens to `i32`, subtract 8, convert to `f32` and scale — every
    /// step exact.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `blk` must be readable for `Q4_BLOCK_BYTES`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dequant(blk: *const u8) -> [__m256; GROUPS] {
        // SAFETY: the block is a 4-byte scale followed by 16 nibble bytes.
        let scale = _mm256_set1_ps((blk as *const f32).read_unaligned());
        let raw = _mm_loadu_si128(blk.add(4) as *const __m128i);
        let low_nibble = _mm_set1_epi8(0x0f);
        let lo = _mm_and_si128(raw, low_nibble);
        let hi = _mm_and_si128(_mm_srli_epi16::<4>(raw), low_nibble);
        // Element 2i is byte i's low nibble, element 2i+1 its high nibble.
        let il_lo = _mm_unpacklo_epi8(lo, hi); // elements 0..16
        let il_hi = _mm_unpackhi_epi8(lo, hi); // elements 16..32
        [
            _mm256_cvtepu8_epi32(il_lo),
            _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(il_lo)),
            _mm256_cvtepu8_epi32(il_hi),
            _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(il_hi)),
        ]
        .map(|q| {
            let centred = _mm256_sub_epi32(q, _mm256_set1_epi32(8));
            _mm256_mul_ps(_mm256_cvtepi32_ps(centred), scale)
        })
    }

    /// The fixed reduction tree `reduce8` mirrors: fold lane `j` with
    /// `j + 4`, then pairs, then the two halves.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn hsum(v: __m256) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s3 = _mm_add_ss(s2, _mm_shuffle_ps::<0x55>(s2, s2));
        _mm_cvtss_f32(s3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantizedMatrix;

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    /// `f64` ground truth for one row × one token.
    fn dot_f64(w: &[f32], x: &[f32]) -> f64 {
        w.iter()
            .zip(x.iter())
            .map(|(a, b)| *a as f64 * *b as f64)
            .sum()
    }

    fn row_bytes(q: &QuantizedMatrix, r: usize) -> Vec<u8> {
        let bpr = q.cols() / Q4_BLOCK * Q4_BLOCK_BYTES;
        q.data()[r * bpr..(r + 1) * bpr].to_vec()
    }

    #[test]
    fn kind_round_trips_through_names() {
        for kind in [
            KernelBackendKind::Auto,
            KernelBackendKind::Scalar,
            KernelBackendKind::Portable,
            KernelBackendKind::Avx2,
        ] {
            assert_eq!(KernelBackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            KernelBackendKind::parse("AVX2"),
            Some(KernelBackendKind::Avx2)
        );
        assert_eq!(KernelBackendKind::parse("neon"), None);
    }

    #[test]
    fn explicit_kinds_resolve_to_themselves_or_scalar() {
        assert_eq!(
            KernelBackendKind::Scalar.resolve().kind(),
            KernelBackendKind::Scalar
        );
        assert_eq!(
            KernelBackendKind::Portable.resolve().kind(),
            KernelBackendKind::Portable
        );
        let avx2 = KernelBackendKind::Avx2.resolved();
        if avx2_available() {
            assert_eq!(avx2, KernelBackendKind::Avx2);
        } else {
            assert_eq!(avx2, KernelBackendKind::Scalar, "clean scalar fallback");
        }
    }

    #[test]
    fn auto_resolves_to_a_concrete_backend() {
        let kind = KernelBackendKind::Auto.resolve().kind();
        assert_ne!(kind, KernelBackendKind::Auto);
    }

    #[test]
    fn available_always_includes_the_reference() {
        let kinds: Vec<_> = available().iter().map(|b| b.kind()).collect();
        assert!(kinds.contains(&KernelBackendKind::Scalar));
        assert!(kinds.contains(&KernelBackendKind::Portable));
        assert_eq!(kinds.contains(&KernelBackendKind::Avx2), avx2_available());
    }

    #[test]
    fn every_backend_stays_within_the_reassociation_bound_of_f64_truth() {
        let (rows, cols) = (7, 96);
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 21), rows, cols).unwrap();
        let dense = q.dequantize();
        for tokens in [1usize, 2, 4, 5, 9] {
            let x = pseudo(tokens * cols, 22);
            for backend in available() {
                let mut out = vec![0.0f32; tokens];
                for r in 0..rows {
                    let row = row_bytes(&q, r);
                    backend.qdot_row(&row, &x, cols, &mut out);
                    for (t, got) in out.iter().enumerate() {
                        let w = &dense[r * cols..(r + 1) * cols];
                        let truth = dot_f64(w, &x[t * cols..(t + 1) * cols]);
                        let mag: f64 = w
                            .iter()
                            .zip(&x[t * cols..(t + 1) * cols])
                            .map(|(a, b)| (*a as f64 * *b as f64).abs())
                            .sum();
                        let bound = (cols as f64) * f64::from(f32::EPSILON) * mag + 1e-12;
                        assert!(
                            ((*got as f64) - truth).abs() <= bound,
                            "{:?} r={r} t={t}: {got} vs {truth} (bound {bound})",
                            backend.kind()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn portable_and_avx2_are_bit_identical() {
        if !avx2_available() {
            return;
        }
        let (rows, cols) = (5, 160);
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 31), rows, cols).unwrap();
        let avx2 = KernelBackendKind::Avx2.resolve();
        for tokens in [1usize, 3, 4, 6, 8] {
            let x = pseudo(tokens * cols, 32);
            for r in 0..rows {
                let row = row_bytes(&q, r);
                let mut a = vec![0.0f32; tokens];
                let mut b = vec![0.0f32; tokens];
                Portable.qdot_row(&row, &x, cols, &mut a);
                avx2.qdot_row(&row, &x, cols, &mut b);
                assert_eq!(a, b, "r={r} tokens={tokens}");
            }
        }
    }

    #[test]
    fn batched_and_single_token_calls_agree_within_each_backend() {
        let (rows, cols, tokens) = (4, 64, 7);
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 41), rows, cols).unwrap();
        let x = pseudo(tokens * cols, 42);
        for backend in available() {
            for r in 0..rows {
                let row = row_bytes(&q, r);
                let mut batched = vec![0.0f32; tokens];
                backend.qdot_row(&row, &x, cols, &mut batched);
                for t in 0..tokens {
                    let mut one = [0.0f32; 1];
                    backend.qdot_row(&row, &x[t * cols..(t + 1) * cols], cols, &mut one);
                    assert_eq!(
                        one[0].to_bits(),
                        batched[t].to_bits(),
                        "{:?} r={r} t={t}",
                        backend.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn multi_row_calls_match_per_row_calls_on_every_tile_shape() {
        // Row counts hit every row-group remainder, token counts every
        // tile shape plus the token-span boundary, and column counts one
        // block, several, and more than one column chunk (512) with a
        // ragged tail.
        for cols in [32usize, 96, 544, 1056] {
            let rows = 9;
            let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 61), rows, cols).unwrap();
            let data = q.data();
            let bpr = packed_row_bytes(cols);
            for tokens in [1usize, 2, 3, 4, 5, 8, 9, 63, 64, 65, 130] {
                let x = pseudo(tokens * cols, 62);
                for backend in available() {
                    let mut per_row = vec![0.0f32; rows * tokens];
                    for (r, out) in per_row.chunks_mut(tokens).enumerate() {
                        backend.qdot_row(&data[r * bpr..(r + 1) * bpr], &x, cols, out);
                    }
                    for nrows in [1usize, 2, 3, 4, 5, 9] {
                        let mut out = vec![f32::NAN; nrows * tokens];
                        backend.qdot_rows(&data[..nrows * bpr], nrows, &x, cols, &mut out);
                        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                        let want: Vec<u32> = per_row[..nrows * tokens]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        assert_eq!(
                            got,
                            want,
                            "{:?} cols={cols} tokens={tokens} nrows={nrows}",
                            backend.kind()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_calls_are_no_ops() {
        for backend in available() {
            backend.qdot_rows(&[], 0, &[], Q4_BLOCK, &mut []);
            backend.qdot_rows(&[0u8; 2 * Q4_BLOCK_BYTES], 2, &[], Q4_BLOCK, &mut []);
        }
    }

    /// Two rows by three tokens of one block each, for the shape checks.
    fn shape_check_call(rows: usize, x: usize, out: usize) {
        let backend = KernelBackendKind::Avx2.resolve();
        let rows = vec![0u8; rows];
        let x = vec![0.0f32; x];
        let mut out = vec![0.0f32; out];
        backend.qdot_rows(&rows, 2, &x, Q4_BLOCK, &mut out);
    }

    #[test]
    #[should_panic(expected = "activation shape")]
    fn short_activations_panic_in_release_builds_too() {
        shape_check_call(2 * Q4_BLOCK_BYTES, 3 * Q4_BLOCK - 1, 6);
    }

    #[test]
    #[should_panic(expected = "row bytes")]
    fn short_rows_panic_in_release_builds_too() {
        shape_check_call(2 * Q4_BLOCK_BYTES - 1, 3 * Q4_BLOCK, 6);
    }

    #[test]
    #[should_panic(expected = "output shape")]
    fn short_output_panics_in_release_builds_too() {
        shape_check_call(2 * Q4_BLOCK_BYTES, 3 * Q4_BLOCK, 5);
    }

    #[test]
    fn scalar_backend_overwrites_stale_output() {
        let cols = Q4_BLOCK;
        let q = QuantizedMatrix::quantize(&pseudo(cols, 51), 1, cols).unwrap();
        let x = pseudo(cols, 52);
        for backend in available() {
            let mut dirty = vec![123.0f32; 1];
            backend.qdot_row(&row_bytes(&q, 0), &x, cols, &mut dirty);
            let mut clean = vec![0.0f32; 1];
            backend.qdot_row(&row_bytes(&q, 0), &x, cols, &mut clean);
            assert_eq!(dirty, clean, "{:?}", backend.kind());
        }
    }
}
