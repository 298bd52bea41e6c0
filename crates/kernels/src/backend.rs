//! Runtime-dispatched backends for the `Q4_0 × Q8_0` integer dot.
//!
//! The quantized kernel hot path of this crate ([`qgemm_into`] and the
//! expert forward built on it) bottoms out in two primitives, the ones
//! llama.cpp's CPU experts run on:
//!
//! * [`KernelBackend::quantize`] — turn each 32-float activation block into
//!   one `f32` scale and 32 `i8` codes ([`Q8Acts`]), **once per projection
//!   input** (`x` for gate and up, `h` for down);
//! * [`KernelBackend::qdot_rows`] — dot a band of packed weight rows with
//!   those codes in integers, called once per worker per projection.
//!
//! The threading and scatter logic around them is written once; how rows
//! and tokens are tiled inside a band is the backend's business, selected
//! at startup:
//!
//! * [`KernelBackendKind::Scalar`] — the arithmetic below written out
//!   literally, one (row, token) at a time: the **reference backend**.
//! * [`KernelBackendKind::Avx2`] — `x86_64` AVX2 intrinsics
//!   (`target_feature`-gated): a block's 32 nibbles unpack into one `ymm`
//!   of bytes, `maddubs_epi16` + `madd_epi16` multiply them with the
//!   activation codes and sum them four at a time, register-tiled over
//!   rows and tokens (below).
//! * [`KernelBackendKind::Avx512`] — `x86_64` AVX-512 VNNI intrinsics
//!   (`avx512f+bw+vl+vnni`, Ice Lake and later): one `vpdpbusd` does the
//!   work of `maddubs`, `sub` and `madd`, and a `zmm` holds two weight
//!   rows' blocks side by side.
//!
//! # Numerical contract
//!
//! There is one arithmetic, and every backend produces its bits.
//!
//! *Activations.* A block's scale is `amax / 127` (`amax` the largest
//! magnitude in the block) and each code is `x / scale` rounded to the
//! nearest integer, **ties to even** (what `_mm256_cvtps_epi32` does), so
//! `±amax` maps to `±127` and `-128` never occurs. A block whose scale is
//! zero or subnormal gets all-zero codes. Codes are stored in the order a
//! weight block's nibbles unpack to — the 16 even elements, then the 16
//! odd ones — so no kernel interleaves anything. Activations are expected
//! to be finite: a `NaN` is dropped (ignored by `amax`, code 0), and an
//! infinity makes its block's scale infinite and its codes zero, so every
//! output that reads the block is `NaN`.
//!
//! *Dot.* Each (row, token) output owns eight `f32` lanes. Per block, lane
//! `k` receives `f32(Σ (q - 8) · x) · (w_scale · x_scale)` over the four
//! codes at unpack positions `4k..4k + 4` — an exact integer sum (at most
//! `4 · 8 · 127`), one exact conversion, then `mul`, `mul`, `add` in block
//! order (never FMA). The lanes are folded by one fixed tree (`reduce8` ≡
//! the AVX2 `hsum`). Nothing in that sequence depends on how many rows or
//! tokens a call covers or on which accumulators share registers, so
//! Scalar ≡ AVX2 ≡ AVX-512, GEMV ≡ GEMM and every tile shape
//! agree **bit for bit** (`tests/tests/kernel_backends.rs` pins it by
//! proptest and by a sweep of every small shape).
//!
//! *Accuracy.* Rounding activations to 8 bits is the one approximation on
//! top of the `Q4_0` weights: against [`dequantize`] + `f64` accumulation
//! an output moves by at most `Σ_blocks x_scale/2 · Σ|w|`, and at
//! model-sized shapes by under 1% of the output vector's largest
//! magnitude (worst measured 0.8%, rms 0.1–0.2%, on uniform and gaussian
//! inputs; both bounds are pinned in the tests). Weights, the wire protocol and shard files hold
//! the same `Q4_0` bytes as before.
//!
//! # Register tiling
//!
//! *AVX2.* An unpacked weight block is a single `ymm`, so nothing is
//! staged in memory: an `R × T` tile keeps `R · T ≤ 8` accumulators live,
//! unpacks each of its `R` blocks once and applies them to `T` tokens'
//! codes — `4 × 1` for one token, `4 × 2` for two, `2 × 4` tiles (plus a
//! `2 × T` remainder) above that, and `1 × T` tiles for leftover rows.
//! Independent add chains overlap, and each activation load and its
//! `8 · Σx` bias are shared by the tile's rows.
//!
//! *AVX-512.* Two weight rows share a `zmm`: its 128-bit chunks are `[r0
//! low nibbles | r0 high | r1 low | r1 high]` (two broadcast loads, one
//! per-chunk shift, one mask), a token's 32 codes are broadcast to both
//! halves, the scales are `[w_scale₀ × 8 | w_scale₁ × 8]`, and the token's
//! `-8 · Σ₄ x` — computed once per token and block — is `vpdpbusd`'s
//! accumulator operand, so one instruction yields both rows' exact
//! `Σ₄ (q - 8) · x` lanes. Each half of an accumulator is the `ymm` the
//! AVX2 tile would hold for that row: one extract splits them at the end
//! and the same `hsum` folds each. Tiles are 4 row pairs × up to 4 tokens
//! (16 of the 32 registers accumulate), then single pairs; an odd last
//! row runs the AVX2 `1 × T` tile. Row pairs are used at every token
//! count: on the `kernels` bench they beat one-row-per-`ymm` `vpdpbusd`
//! tiles from one token up (4.1 against 4.8 µs per 256 × 512 band at one
//! token, 6.1 against 8.3 at two), so there is no narrow VNNI tile.
//!
//! Both families are driven by one `row_groups` loop: full tiles across a
//! group of rows, then one narrower tile for the tokens left over.
//!
//! # Prefetch
//!
//! At one to a few tokens a band is bound by how fast its weight bytes
//! arrive, not by its arithmetic. A served model walks many experts per
//! step (bench-moe's 64 routed experts are 15.7 MB of packed weights,
//! against a 2 MB L2), so an expert's weights have usually left the L2
//! by the time it runs again. At the top of each row group `row_groups`
//! therefore hints the bytes ahead into the cache: one `prefetcht0` per
//! 64-byte line over one group's worth of the band, starting
//! `PREFETCH_DISTANCE` (2 KB) past the start of the next group and
//! clamped to the band's end (`prefetch_window`; the windows of
//! consecutive groups abut). A hint loads nothing into a register and
//! its address is never dereferenced, so every backend, tile shape and
//! batch keeps its bits.
//!
//! The distance is a constant, not a knob: 1, 2 and 4 KB measured alike
//! on `real_serve`, and nothing a deployment knows would pick between
//! them. Measured on a 2-vCPU Sapphire Rapids container, one thread, a
//! whole 256 × 512 expert at one token on AVX-512 (medians): with the
//! same expert every call, weights hot, 17.7 → 18.6 µs (the hints are
//! pure overhead there); with 64 experts in rotation 45.6 → 34.6 µs; per
//! expert call inside a one-token decode loop of the real engine 39–42 →
//! 25–29 µs.
//!
//! # Selection
//!
//! [`KernelBackendKind::resolve`] picks the implementation once at
//! executor startup, in this order:
//!
//! 1. An explicit config knob (`Scalar`/`Avx2`/`Avx512`) wins
//!    outright. A SIMD kind the host cannot run takes the widest rung
//!    below it rather than faulting: `Avx512` → `Avx2` → `Scalar`.
//! 2. `Auto` consults the `HYBRIMOE_KERNEL_BACKEND` environment variable
//!    (`scalar` | `avx2` | `avx512` | `auto`,
//!    case-insensitive; resolved by the same ladder). Any other value is
//!    reported once per process on stderr and ignored.
//! 3. Otherwise `Auto` runtime-detects with `is_x86_feature_detected!`:
//!    `avx512f`, `avx512bw`, `avx512vl` and `avx512vnni` together select
//!    the AVX-512 path, else `avx2` selects the AVX2 path, and anything
//!    else falls back to the scalar reference.
//!
//! [`qgemm_into`]: crate::QuantizedMatrix::qgemm_into
//! [`dequantize`]: crate::QuantizedMatrix::dequantize

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::quant::{packed_row_bytes, Q4_BLOCK, Q4_BLOCK_BYTES};

/// The environment variable consulted by [`KernelBackendKind::Auto`].
pub const KERNEL_BACKEND_ENV: &str = "HYBRIMOE_KERNEL_BACKEND";

/// Which `Q4_0` inner-loop implementation to use (the
/// `RealExecOptions::kernel_backend` knob).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelBackendKind {
    /// Resolve at startup: `HYBRIMOE_KERNEL_BACKEND` if set, else CPU
    /// feature detection (AVX-512 VNNI, else AVX2, else scalar).
    #[default]
    Auto,
    /// The scalar reference loops (the determinism oracle).
    Scalar,
    /// AVX2 intrinsics (`x86_64` only; falls back to scalar elsewhere).
    Avx2,
    /// AVX-512 VNNI intrinsics (`x86_64` with `avx512f+bw+vl+vnni`; falls
    /// back to AVX2, then scalar, elsewhere).
    Avx512,
}

impl KernelBackendKind {
    /// The lower-case name used by the env override and in reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackendKind::Auto => "auto",
            KernelBackendKind::Scalar => "scalar",
            KernelBackendKind::Avx2 => "avx2",
            KernelBackendKind::Avx512 => "avx512",
        }
    }

    /// Parses a backend name as accepted in `HYBRIMOE_KERNEL_BACKEND`
    /// (case-insensitive). Returns `None` for unrecognized values.
    pub fn parse(name: &str) -> Option<KernelBackendKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(KernelBackendKind::Auto),
            "scalar" => Some(KernelBackendKind::Scalar),
            "avx2" => Some(KernelBackendKind::Avx2),
            "avx512" => Some(KernelBackendKind::Avx512),
            _ => None,
        }
    }

    /// Resolves this knob to a concrete backend (see the [module
    /// docs](self) for the selection order). Never fails: an explicit SIMD
    /// choice the host cannot run falls down the ladder (`Avx512` → `Avx2`
    /// → `Scalar`).
    pub fn resolve(self) -> &'static dyn KernelBackend {
        match self.resolved() {
            #[cfg(target_arch = "x86_64")]
            KernelBackendKind::Avx2 => &Avx2(()),
            #[cfg(target_arch = "x86_64")]
            KernelBackendKind::Avx512 => &Avx512(()),
            _ => &Scalar,
        }
    }

    /// The concrete kind [`resolve`](KernelBackendKind::resolve) lands on:
    /// `Auto` is expanded (env override, then feature detection) and a
    /// SIMD kind takes the widest rung at or below it that the host runs.
    pub fn resolved(self) -> KernelBackendKind {
        use KernelBackendKind::{Auto, Avx2, Avx512, Scalar};
        let requested = match self {
            Auto => env_override().unwrap_or(Auto),
            explicit => explicit,
        };
        match requested {
            Auto | Avx512 if avx512_available() => Avx512,
            Auto | Avx512 | Avx2 if avx2_available() => Avx2,
            Auto | Avx512 | Avx2 => Scalar,
            concrete => concrete,
        }
    }
}

/// The backend `HYBRIMOE_KERNEL_BACKEND` names, if it is set to an
/// accepted name. Anything else is reported on stderr (once per process)
/// and ignored.
fn env_override() -> Option<KernelBackendKind> {
    let value = std::env::var_os(KERNEL_BACKEND_ENV)?;
    let value = value.to_string_lossy();
    let parsed = KernelBackendKind::parse(&value);
    if parsed.is_none() {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "hybrimoe: ignoring {KERNEL_BACKEND_ENV}={value:?}: expected one of \
                 auto, scalar, avx2, avx512; detecting the backend instead"
            );
        });
    }
    parsed
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

/// Whether the AVX-512 VNNI path can run on this host: `avx512f`,
/// `avx512bw`, `avx512vl` and `avx512vnni`, plus the AVX2 it shares its
/// quantizer and narrow tiles' helpers with.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512vnni")
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

/// Every backend that can run on this host, narrowest first: scalar
/// always, then AVX2 and AVX-512 where detected.
pub fn available() -> Vec<&'static dyn KernelBackend> {
    let mut backends: Vec<&'static dyn KernelBackend> = vec![&Scalar];
    if avx2_available() {
        backends.push(KernelBackendKind::Avx2.resolve());
    }
    if avx512_available() {
        backends.push(KernelBackendKind::Avx512.resolve());
    }
    backends
}

/// `Q8_0`-quantized activations: what [`KernelBackend::quantize`] writes
/// and [`KernelBackend::qdot_rows`] reads. Per token and 32-float block it
/// holds one `f32` scale and 32 `i8` codes in `[-127, 127]`, the codes in
/// nibble-unpack order (a block's 16 even elements, then its 16 odd ones —
/// see the [module docs](self)). The buffers are resized, never freed, so
/// a long-lived value (one sits in `ExecScratch`) stops allocating once it
/// has seen its largest batch.
///
/// The fields are private to this module: the SIMD kernels read them
/// through raw pointers on the strength of `codes.len() == tokens * cols`
/// and `scales.len() == tokens * cols / Q4_BLOCK`, which only
/// `Q8Acts::resize` establishes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Q8Acts {
    cols: usize,
    tokens: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
}

impl Q8Acts {
    /// Creates an empty buffer (no tokens).
    pub fn new() -> Self {
        Q8Acts::default()
    }

    /// Number of tokens held.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Activations per token.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The codes, token-major (`tokens × cols`), each block in unpack order.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The block scales, token-major (`tokens × cols / Q4_BLOCK`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reshapes to hold `len / cols` tokens (capacity retained) and hands
    /// back the code and scale buffers for a quantizer to overwrite.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` is a multiple of [`Q4_BLOCK`] and `len` a
    /// multiple of `cols`.
    fn resize(&mut self, len: usize, cols: usize) -> (&mut [i8], &mut [f32]) {
        assert!(
            cols.is_multiple_of(Q4_BLOCK),
            "cols {cols} not block-aligned"
        );
        assert!(len.is_multiple_of(cols), "activation shape");
        self.cols = cols;
        self.tokens = len.checked_div(cols).unwrap_or(0);
        self.codes.resize(len, 0);
        self.scales.resize(len / Q4_BLOCK, 0.0);
        (&mut self.codes, &mut self.scales)
    }
}

/// Quantizes one 32-float block: writes its codes in unpack order and
/// returns its scale. The reference for the rules in the [module
/// docs](self); `f32::max` ignores a `NaN` operand and `as i8` maps `NaN`
/// to 0, which is the documented non-finite behaviour.
fn quantize_block(x: &[f32], codes: &mut [i8]) -> f32 {
    let amax = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = amax / 127.0;
    let inv = if scale.is_normal() { 1.0 / scale } else { 0.0 };
    for i in 0..Q4_BLOCK / 2 {
        codes[i] = (x[2 * i] * inv).round_ties_even() as i8;
        codes[Q4_BLOCK / 2 + i] = (x[2 * i + 1] * inv).round_ties_even() as i8;
    }
    scale
}

/// One implementation of the `Q4_0 × Q8_0` kernels: quantize activations,
/// then dot bands of packed weight rows with them.
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
/// use hybrimoe_kernels::{KernelBackendKind, Q8Acts, QuantizedMatrix, Q4_BLOCK};
///
/// let weights: Vec<f32> = (0..Q4_BLOCK).map(|i| i as f32 / 16.0).collect();
/// let row = QuantizedMatrix::quantize(&weights, 1, Q4_BLOCK).unwrap();
///
/// let backend = KernelBackendKind::Scalar.resolve();
/// let x = vec![1.0_f32; Q4_BLOCK];
/// let mut acts = Q8Acts::new();
/// backend.quantize(&x, Q4_BLOCK, &mut acts);
/// let mut out = [0.0_f32];
/// backend.qdot_row(&row.data(), &acts, &mut out);
///
/// // The dequantized row's dot, up to the 8-bit rounding of `x`.
/// let reference: f32 = row.dequantize().iter().zip(&x).map(|(w, x)| w * x).sum();
/// assert!((out[0] - reference).abs() < 1e-3);
/// ```
pub trait KernelBackend: fmt::Debug + Send + Sync {
    /// The concrete kind of this implementation.
    fn kind(&self) -> KernelBackendKind;

    /// Quantizes the token-major activations `x` (`tokens × cols`) into
    /// `acts`, replacing its contents. Every backend writes the same codes
    /// and scales (rules in the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics unless `cols` is a multiple of [`Q4_BLOCK`] and `x.len()` a
    /// multiple of `cols`.
    fn quantize(&self, x: &[f32], cols: usize, acts: &mut Q8Acts) {
        let (codes, scales) = acts.resize(x.len(), cols);
        let blocks = x
            .chunks_exact(Q4_BLOCK)
            .zip(codes.chunks_exact_mut(Q4_BLOCK));
        for ((x, codes), scale) in blocks.zip(scales) {
            *scale = quantize_block(x, codes);
        }
    }

    /// Computes `out[r * tokens + t] = dot(row r, token t of acts)` for
    /// every row `r < nrows` and token `t < acts.tokens()`.
    ///
    /// `rows` is `nrows` consecutive packed weight rows (`acts.cols() /
    /// Q4_BLOCK` blocks of [`Q4_BLOCK_BYTES`] each). `out` is row-major and
    /// fully overwritten. Every (row, token) pair sees the same sequence of
    /// operations whatever `nrows`, the token count and the backend are, so
    /// a multi-row call, a per-row call, a single-token call and a batched
    /// call all agree bit for bit — within a backend and across backends.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (in release builds too — the SIMD paths
    /// read through raw pointers on the strength of this check):
    /// `rows.len()` must be `nrows` rows of `acts.cols()` weights and
    /// `out.len()` must be `nrows * acts.tokens()`.
    fn qdot_rows(&self, rows: &[u8], nrows: usize, acts: &Q8Acts, out: &mut [f32]);

    /// [`qdot_rows`](KernelBackend::qdot_rows) on a single row:
    /// `out[t] = dot(row, token t of acts)`.
    ///
    /// # Panics
    ///
    /// Panics on the shape mismatches `qdot_rows` rejects.
    fn qdot_row(&self, row: &[u8], acts: &Q8Acts, out: &mut [f32]) {
        self.qdot_rows(row, 1, acts, out);
    }
}

/// Validates a [`KernelBackend::qdot_rows`] call. These are real asserts,
/// paid once per band: the SIMD kernels index `rows` and `out` through raw
/// pointers and rely on exactly these extents (hence the overflow-checked
/// products); [`Q8Acts`] vouches for its own.
#[inline]
fn check_shapes(rows: &[u8], nrows: usize, acts: &Q8Acts, out: &[f32]) {
    let row_bytes = packed_row_bytes(acts.cols);
    assert_eq!(Some(rows.len()), nrows.checked_mul(row_bytes), "row bytes");
    assert_eq!(
        Some(out.len()),
        nrows.checked_mul(acts.tokens),
        "output shape"
    );
}

/// The `f32` scale a packed block starts with.
#[inline]
fn block_scale(blk: &[u8]) -> f32 {
    f32::from_le_bytes(blk[..4].try_into().expect("4 bytes"))
}

/// Reduces the eight lane accumulators with the fixed tree the AVX2
/// horizontal sum produces: `extract`+`add` folds lane `j` with `j+4`,
/// `movehl`+`add` folds pairs, and the final scalar add joins the halves.
#[inline]
fn reduce8(l: &[f32; 8]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// The scalar reference implementation: the [module docs](self)'
/// arithmetic written out one (row, token) output at a time.
#[derive(Debug, Clone, Copy)]
pub struct Scalar;

impl KernelBackend for Scalar {
    fn kind(&self) -> KernelBackendKind {
        KernelBackendKind::Scalar
    }

    fn qdot_rows(&self, rows: &[u8], nrows: usize, acts: &Q8Acts, out: &mut [f32]) {
        check_shapes(rows, nrows, acts, out);
        if acts.tokens == 0 {
            return;
        }
        let row_bytes = packed_row_bytes(acts.cols);
        for (row, out_row) in rows
            .chunks_exact(row_bytes)
            .zip(out.chunks_mut(acts.tokens))
        {
            scalar_row(row, acts, out_row);
        }
    }
}

/// One row of the [`Scalar`] backend; `out.len()` is the token count.
fn scalar_row(row: &[u8], acts: &Q8Acts, out: &mut [f32]) {
    let blocks = acts.cols / Q4_BLOCK;
    for (t, out_t) in out.iter_mut().enumerate() {
        let mut lanes = [0.0f32; 8];
        for (b, blk) in row.chunks_exact(Q4_BLOCK_BYTES).enumerate() {
            let d = block_scale(blk) * acts.scales[t * blocks + b];
            let x = &acts.codes[t * acts.cols + b * Q4_BLOCK..][..Q4_BLOCK];
            let nibbles = &blk[4..];
            // Unpack positions `4k..4k + 4` are the low nibbles of bytes
            // `4k..4k + 4`; positions `16 + 4k..` are their high nibbles.
            for k in 0..4 {
                let (mut low, mut high) = (0i32, 0i32);
                for i in 4 * k..4 * k + 4 {
                    low += (i32::from(nibbles[i] & 0x0f) - 8) * i32::from(x[i]);
                    high += (i32::from(nibbles[i] >> 4) - 8) * i32::from(x[16 + i]);
                }
                lanes[k] += low as f32 * d;
                lanes[k + 4] += high as f32 * d;
            }
        }
        *out_t = reduce8(&lanes);
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

    fn quantize(&self, x: &[f32], cols: usize, acts: &mut Q8Acts) {
        let (codes, scales) = acts.resize(x.len(), cols);
        // SAFETY: `Avx2` is only handed out by `resolve()` after
        // `is_x86_feature_detected!("avx2")` returned true; `resize` just
        // sized `codes` to `x.len()` and `scales` to one per 32-float
        // block of `x`, and `x.len()` is a multiple of the block size.
        #[allow(unsafe_code)]
        unsafe {
            avx2::quantize(
                x.as_ptr(),
                scales.len(),
                codes.as_mut_ptr(),
                scales.as_mut_ptr(),
            );
        }
    }

    fn qdot_rows(&self, rows: &[u8], nrows: usize, acts: &Q8Acts, out: &mut [f32]) {
        let band = tiling::Band::new(rows, nrows, acts, out);
        // SAFETY: AVX2 is present (as above).
        #[allow(unsafe_code)]
        unsafe {
            avx2::qdot_rows(band);
        }
    }
}

/// The AVX-512 VNNI implementation (see [`KernelBackendKind::Avx512`]).
/// The private field makes [`KernelBackendKind::resolve`] the only
/// constructor, and that verifies [`avx512_available`] first.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx512(());

#[cfg(target_arch = "x86_64")]
impl KernelBackend for Avx512 {
    fn kind(&self) -> KernelBackendKind {
        KernelBackendKind::Avx512
    }

    fn quantize(&self, x: &[f32], cols: usize, acts: &mut Q8Acts) {
        // Quantizing is a small share of a projection and its AVX2 form is
        // already one block per iteration. `Avx2`'s constructor condition
        // holds: `avx512_available` includes `avx2_available`.
        Avx2(()).quantize(x, cols, acts);
    }

    fn qdot_rows(&self, rows: &[u8], nrows: usize, acts: &Q8Acts, out: &mut [f32]) {
        let band = tiling::Band::new(rows, nrows, acts, out);
        // SAFETY: `Avx512` is only handed out by `resolve()` after
        // `avx512_available()` detected AVX2 and all four AVX-512 features.
        #[allow(unsafe_code)]
        unsafe {
            avx512::qdot_rows(band);
        }
    }
}

/// What the SIMD backends share: a shape-checked [`Band`] of raw pointers
/// and the [`row_groups`] driver that covers it with a backend's register
/// [`Tiles`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod tiling {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    use std::marker::PhantomData;
    use std::ops::Range;

    use super::{check_shapes, packed_row_bytes, Q8Acts, Q4_BLOCK};

    /// How far past the next row group [`row_groups`] prefetches, in bytes
    /// (see the [module docs](super#prefetch)).
    pub(super) const PREFETCH_DISTANCE: usize = 2048;

    /// The prefetch stride: one hint per 64-byte cache line.
    pub(super) const CACHE_LINE: usize = 64;

    /// The band bytes [`row_groups`] prefetches at the top of the group
    /// that starts at row `r`: one group's worth, `dist` bytes past the
    /// start of the next group, clamped to the band's `nrows * row_bytes`
    /// (so possibly empty). Over one pass the windows of consecutive groups
    /// abut, covering `[group * row_bytes + dist, band end)`.
    pub(super) fn prefetch_window(
        r: usize,
        group: usize,
        row_bytes: usize,
        nrows: usize,
        dist: usize,
    ) -> Range<usize> {
        let end = nrows * row_bytes;
        let start = (r + group) * row_bytes + dist;
        start.min(end)..(start + group * row_bytes).min(end)
    }

    /// One [`qdot_rows`](super::KernelBackend::qdot_rows) call as the raw
    /// pointers the tiles index. [`Band::new`] is the only constructor and
    /// runs [`check_shapes`], so holding a `Band` means: `rows` is readable
    /// for `nrows` packed rows of `cols` weights (`cols` a multiple of
    /// [`Q4_BLOCK`]), `codes` for `tokens * cols` bytes, `scales` for
    /// `tokens * cols / Q4_BLOCK` floats, and `out` is writable for `nrows
    /// * tokens` floats, all for `'a`.
    #[derive(Clone, Copy)]
    pub(super) struct Band<'a> {
        rows: *const u8,
        nrows: usize,
        codes: *const i8,
        scales: *const f32,
        cols: usize,
        tokens: usize,
        out: *mut f32,
        borrows: PhantomData<(&'a [u8], &'a Q8Acts, &'a mut [f32])>,
    }

    impl<'a> Band<'a> {
        /// # Panics
        ///
        /// Panics on the shape mismatches `qdot_rows` rejects.
        pub(super) fn new(
            rows: &'a [u8],
            nrows: usize,
            acts: &'a Q8Acts,
            out: &'a mut [f32],
        ) -> Self {
            check_shapes(rows, nrows, acts, out);
            Band {
                rows: rows.as_ptr(),
                nrows,
                codes: acts.codes.as_ptr(),
                scales: acts.scales.as_ptr(),
                cols: acts.cols,
                tokens: acts.tokens,
                out: out.as_mut_ptr(),
                borrows: PhantomData,
            }
        }

        pub(super) fn tokens(&self) -> usize {
            self.tokens
        }

        /// The band without its first `done` rows.
        pub(super) fn skip(self, done: usize) -> Self {
            assert!(done <= self.nrows, "rows skipped");
            Band {
                // SAFETY: `done` rows (and their outputs) lie inside the
                // band, so both pointers stay in or one past their slices.
                rows: unsafe { self.rows.add(done * packed_row_bytes(self.cols)) },
                out: unsafe { self.out.add(done * self.tokens) },
                nrows: self.nrows - done,
                ..self
            }
        }
    }

    /// A backend's family of register tiles: `R` units of [`ROWS`] weight
    /// rows each, by `T` tokens.
    ///
    /// [`ROWS`]: Tiles::ROWS
    pub(super) trait Tiles {
        /// Weight rows one unit holds (rows sharing a vector register).
        const ROWS: usize;

        /// `out[r * out_stride + t] = dot(row r, token t)` for the tile's
        /// `R * ROWS` rows and `T` tokens, every accumulator live across
        /// the whole row and each weight block unpacked exactly once.
        ///
        /// # Safety
        ///
        /// Requires the implementor's CPU features at runtime. `cols` must
        /// be a multiple of `Q4_BLOCK`; `rows` must be readable for `R *
        /// ROWS` consecutive packed rows of `cols` weights, `codes` for
        /// `T` tokens `cols` bytes apart, `scales` for `T` tokens `cols /
        /// Q4_BLOCK` floats apart, and `out` writable at `r * out_stride +
        /// t` for `r < R * ROWS`, `t < T`.
        unsafe fn tile<const R: usize, const T: usize>(
            rows: *const u8,
            codes: *const i8,
            scales: *const f32,
            cols: usize,
            out: *mut f32,
            out_stride: usize,
        );
    }

    /// Covers every full group of `R * K::ROWS` rows with `R × W` tiles
    /// and, for the `tokens % W` tokens left, one narrower tile; returns
    /// the number of rows covered. Inlined into its callers so the tiles
    /// (whose features they enable) inline in turn.
    ///
    /// # Safety
    ///
    /// Requires `K`'s CPU features at runtime.
    #[inline(always)]
    pub(super) unsafe fn row_groups<K: Tiles, const R: usize, const W: usize>(
        band: Band<'_>,
    ) -> usize {
        const { assert!(W >= 1 && W <= 4, "remainder tiles exist for 1..=3 tokens") };
        let Band {
            codes,
            scales,
            cols,
            tokens,
            ..
        } = band;
        let row_bytes = packed_row_bytes(cols);
        let blocks = cols / Q4_BLOCK;
        let group = R * K::ROWS;
        let mut r = 0;
        while r + group <= band.nrows {
            // A hint, never dereferenced, so the address needs no bounds
            // proof; the window keeps it inside the band regardless.
            let ahead = prefetch_window(r, group, row_bytes, band.nrows, PREFETCH_DISTANCE);
            for offset in ahead.step_by(CACHE_LINE) {
                _mm_prefetch::<_MM_HINT_T0>(band.rows.wrapping_add(offset) as *const i8);
            }
            let rows = band.rows.add(r * row_bytes);
            let out = band.out.add(r * tokens);
            // SAFETY (all calls): rows `r..r + group` are in bounds, tokens
            // `t..t + T` exist because `t + T <= tokens`, and the tile's
            // outputs are `out[(r + i) * tokens + t + j]`.
            let mut t = 0;
            while t + W <= tokens {
                K::tile::<R, W>(
                    rows,
                    codes.add(t * cols),
                    scales.add(t * blocks),
                    cols,
                    out.add(t),
                    tokens,
                );
                t += W;
            }
            let (codes, scales, out) = (codes.add(t * cols), scales.add(t * blocks), out.add(t));
            match tokens - t {
                1 if W > 1 => K::tile::<R, 1>(rows, codes, scales, cols, out, tokens),
                2 if W > 2 => K::tile::<R, 2>(rows, codes, scales, cols, out, tokens),
                3 if W > 3 => K::tile::<R, 3>(rows, codes, scales, cols, out, tokens),
                _ => {}
            }
            r += group;
        }
        r
    }
}

/// The AVX2 kernels: the [module docs](self)' arithmetic, eight lanes per
/// instruction.
///
/// Per block a row's 16 nibble bytes unpack into one `ymm` of 32 bytes
/// ([`unpack`]). For a token, `maddubs_epi16` multiplies them with the 32
/// activation codes and sums adjacent pairs, the token's bias (the same
/// `maddubs` with every weight byte 8) turns `Σ q·x` into `Σ (q - 8)·x`,
/// and `madd_epi16` with ones sums pairs again: eight `i32` lanes of four
/// products each, exact. Converted and scaled they are added to the
/// (row, token) accumulator (`mul` then `add`, never FMA), which [`hsum`]
/// folds at the end. The `R × T` tiles only choose which accumulators are
/// live together; no accumulator ever sees a different sequence of
/// operands, which is why every tile shape produces the same bits.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    use super::tiling::{row_groups, Band, Tiles};
    use super::{packed_row_bytes, Q4_BLOCK, Q4_BLOCK_BYTES};

    /// See [`KernelBackend::quantize`](super::KernelBackend::quantize):
    /// `quantize_block` for `blocks` consecutive blocks.
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime. `x` must be readable for `blocks *
    /// Q4_BLOCK` floats, `codes` writable for as many bytes and `scales`
    /// writable for `blocks` floats.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize(x: *const f32, blocks: usize, codes: *mut i8, scales: *mut f32) {
        let sign = _mm256_set1_ps(-0.0);
        // Even bytes of each 128-bit half to its low eight bytes, odd
        // bytes to its high eight.
        let split = _mm256_setr_epi8(
            0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15, //
            0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15,
        );
        for b in 0..blocks {
            // SAFETY: four groups of eight floats inside block `b`.
            let v: [__m256; 4] =
                std::array::from_fn(|g| _mm256_loadu_ps(x.add(b * Q4_BLOCK + g * 8)));
            // `max_ps` returns its second operand when either is NaN, so
            // a NaN element is skipped exactly as `f32::max` skips it.
            let mut m = _mm256_setzero_ps();
            for g in v {
                m = _mm256_max_ps(_mm256_andnot_ps(sign, g), m);
            }
            let m4 = _mm_max_ps(_mm256_castps256_ps128(m), _mm256_extractf128_ps::<1>(m));
            let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
            let amax = _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps::<0x55>(m2, m2)));
            let scale = amax / 127.0;
            let inv = _mm256_set1_ps(if scale.is_normal() { 1.0 / scale } else { 0.0 });
            // Round to nearest even (the default MXCSR mode); NaN → 0.
            let q = v.map(|g| {
                let s = _mm256_mul_ps(g, inv);
                _mm256_cvtps_epi32(_mm256_and_ps(s, _mm256_cmp_ps::<_CMP_ORD_Q>(s, s)))
            });
            // Saturating packs interleave 128-bit halves; the dword
            // permute restores element order, then evens | odds.
            let bytes = _mm256_packs_epi16(
                _mm256_packs_epi32(q[0], q[1]),
                _mm256_packs_epi32(q[2], q[3]),
            );
            let ordered =
                _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
            let halves = _mm256_shuffle_epi8(ordered, split);
            let unpack_order = _mm256_permute4x64_epi64::<0b11_01_10_00>(halves);
            // SAFETY: block `b`'s 32 codes and its scale.
            _mm256_storeu_si256(codes.add(b * Q4_BLOCK) as *mut __m256i, unpack_order);
            *scales.add(b) = scale;
        }
    }

    /// See [`KernelBackend::qdot_rows`](super::KernelBackend::qdot_rows).
    ///
    /// # Safety
    ///
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qdot_rows(band: Band<'_>) {
        // SAFETY (all calls): AVX2 is the caller's promise.
        let tiled = match band.tokens() {
            0 => return,
            1 => row_groups::<Ymm, 4, 1>(band),
            2 => row_groups::<Ymm, 4, 2>(band),
            _ => row_groups::<Ymm, 2, 4>(band),
        };
        row_groups::<Ymm, 1, 4>(band.skip(tiled));
    }

    /// The AVX2 tiles: one row per `ymm`, `R · T ≤ 8` accumulators.
    pub(super) struct Ymm;

    impl Tiles for Ymm {
        const ROWS: usize = 1;

        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn tile<const R: usize, const T: usize>(
            rows: *const u8,
            codes: *const i8,
            scales: *const f32,
            cols: usize,
            out: *mut f32,
            out_stride: usize,
        ) {
            let blocks = cols / Q4_BLOCK;
            let row_bytes = packed_row_bytes(cols);
            let eights = _mm256_set1_epi8(8);
            let ones = _mm256_set1_epi16(1);
            let mut acc = [[_mm256_setzero_ps(); R]; T];
            for b in 0..blocks {
                // SAFETY: block `b` of row `r` is inside the `R` rows.
                let w: [(__m256i, __m256); R] =
                    std::array::from_fn(|r| unpack(rows.add(r * row_bytes + b * Q4_BLOCK_BYTES)));
                for (t, acc_t) in acc.iter_mut().enumerate() {
                    // SAFETY: block `b` of token `t`: 32 codes and a scale.
                    let x =
                        _mm256_loadu_si256(codes.add(t * cols + b * Q4_BLOCK) as *const __m256i);
                    let x_scale = _mm256_broadcast_ss(&*scales.add(t * blocks + b));
                    // Pair sums stay inside i16: at most 2 · 15 · 127.
                    let bias = _mm256_maddubs_epi16(eights, x);
                    for (acc_tr, (q, w_scale)) in acc_t.iter_mut().zip(&w) {
                        let pairs = _mm256_sub_epi16(_mm256_maddubs_epi16(*q, x), bias);
                        let quads = _mm256_cvtepi32_ps(_mm256_madd_epi16(pairs, ones));
                        let d = _mm256_mul_ps(*w_scale, x_scale);
                        *acc_tr = _mm256_add_ps(*acc_tr, _mm256_mul_ps(quads, d));
                    }
                }
            }
            for (t, acc_t) in acc.iter().enumerate() {
                for (r, acc_tr) in acc_t.iter().enumerate() {
                    // SAFETY: inside the tile's outputs.
                    *out.add(r * out_stride + t) = hsum(*acc_tr);
                }
            }
        }
    }

    /// Unpacks one packed block into its 32 codes `q ∈ [0, 15]` as bytes —
    /// the 16 low nibbles (even elements), then the 16 high nibbles (odd
    /// elements), the order [`Q8Acts`](super::Q8Acts) stores activations
    /// in — and its broadcast scale.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `blk` must be readable for `Q4_BLOCK_BYTES`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn unpack(blk: *const u8) -> (__m256i, __m256) {
        // SAFETY: the block is a 4-byte scale followed by 16 nibble bytes.
        let scale = _mm256_set1_ps((blk as *const f32).read_unaligned());
        let raw = _mm_loadu_si128(blk.add(4) as *const __m128i);
        let both = _mm256_set_m128i(_mm_srli_epi16::<4>(raw), raw);
        (_mm256_and_si256(both, _mm256_set1_epi8(0x0f)), scale)
    }

    /// The fixed reduction tree `reduce8` mirrors: fold lane `j` with
    /// `j + 4`, then pairs, then the two halves.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn hsum(v: __m256) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let s2 = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s3 = _mm_add_ss(s2, _mm_shuffle_ps::<0x55>(s2, s2));
        _mm_cvtss_f32(s3)
    }
}

/// The AVX-512 VNNI kernels: the AVX2 kernels' arithmetic with the integer
/// part in one instruction. `vpdpbusd(acc, q, x)` adds the four `u8 × i8`
/// products of each 32-bit lane to `acc` without saturating, so with the
/// token's `-8 · Σ₄ x` as `acc` it yields the `Σ₄ (q - 8) · x` lanes that
/// `maddubs`, `sub` and `madd` produce in AVX2 — the same exact integers,
/// followed by the same `cvt`, `mul`, `mul`, `add` and the same [`hsum`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use std::arch::x86_64::*;

    use super::avx2::{self, hsum};
    use super::tiling::{row_groups, Band, Tiles};
    use super::{packed_row_bytes, Q4_BLOCK, Q4_BLOCK_BYTES};

    /// See [`KernelBackend::qdot_rows`](super::KernelBackend::qdot_rows).
    ///
    /// # Safety
    ///
    /// Requires AVX2 and AVX-512 F, BW, VL and VNNI at runtime.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    pub(super) unsafe fn qdot_rows(band: Band<'_>) {
        // SAFETY (all calls): the features are the caller's promise. Row
        // pairs four at a time, then one at a time; an odd last row has
        // no partner and takes the AVX2 tile, whose bits are the same.
        let wide = row_groups::<Zmm, 4, 4>(band);
        let paired = wide + row_groups::<Zmm, 1, 4>(band.skip(wide));
        row_groups::<avx2::Ymm, 1, 4>(band.skip(paired));
    }

    /// Two rows per `zmm`: the low half is the even row's block as
    /// `avx2::unpack` lays it out, the high half the odd row's; a token's
    /// codes and scale are broadcast to both halves, and each half of an
    /// accumulator is the `ymm` accumulator the AVX2 tile would have held
    /// for that row. Up to `4 × 4` accumulators of the 32 registers.
    struct Zmm;

    impl Tiles for Zmm {
        const ROWS: usize = 2;

        #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
        #[inline]
        unsafe fn tile<const R: usize, const T: usize>(
            rows: *const u8,
            codes: *const i8,
            scales: *const f32,
            cols: usize,
            out: *mut f32,
            out_stride: usize,
        ) {
            let blocks = cols / Q4_BLOCK;
            let row_bytes = packed_row_bytes(cols);
            let eights = _mm512_set1_epi8(8);
            let zero = _mm512_setzero_si512();
            let mut acc = [[_mm512_setzero_ps(); R]; T];
            for b in 0..blocks {
                // SAFETY: block `b` of rows `2r` and `2r + 1` is inside
                // the `2R` rows.
                let w: [(__m512i, __m512); R] = std::array::from_fn(|r| {
                    let blk = rows.add(2 * r * row_bytes + b * Q4_BLOCK_BYTES);
                    unpack_pair(blk, blk.add(row_bytes))
                });
                for (t, acc_t) in acc.iter_mut().enumerate() {
                    // SAFETY: block `b` of token `t`: 32 codes and a scale.
                    let x = _mm512_broadcast_i64x4(_mm256_loadu_si256(
                        codes.add(t * cols + b * Q4_BLOCK) as *const __m256i,
                    ));
                    let x_scale = _mm512_set1_ps(*scales.add(t * blocks + b));
                    let bias = _mm512_sub_epi32(zero, _mm512_dpbusd_epi32(zero, eights, x));
                    for (acc_tr, (q, w_scale)) in acc_t.iter_mut().zip(&w) {
                        let quads = _mm512_cvtepi32_ps(_mm512_dpbusd_epi32(bias, *q, x));
                        let d = _mm512_mul_ps(*w_scale, x_scale);
                        *acc_tr = _mm512_add_ps(*acc_tr, _mm512_mul_ps(quads, d));
                    }
                }
            }
            for (t, acc_t) in acc.iter().enumerate() {
                for (r, acc_tr) in acc_t.iter().enumerate() {
                    let odd = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(*acc_tr));
                    // SAFETY: inside the tile's outputs.
                    *out.add(2 * r * out_stride + t) = hsum(_mm512_castps512_ps256(*acc_tr));
                    *out.add((2 * r + 1) * out_stride + t) = hsum(_mm256_castpd_ps(odd));
                }
            }
        }
    }

    /// `avx2::unpack` for two rows' blocks at once: 128-bit chunks `[even
    /// row low nibbles | even row high | odd row low | odd row high]` and
    /// the scales `[even × 8 | odd × 8]`.
    ///
    /// # Safety
    ///
    /// Requires the module's features. Both blocks must be readable for
    /// `Q4_BLOCK_BYTES`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
    #[inline]
    unsafe fn unpack_pair(even: *const u8, odd: *const u8) -> (__m512i, __m512) {
        const ODD_ROW: u16 = 0xff00;
        // SAFETY: each block is a 4-byte scale followed by 16 nibble bytes.
        let scale = _mm512_mask_blend_ps(
            ODD_ROW,
            _mm512_set1_ps((even as *const f32).read_unaligned()),
            _mm512_set1_ps((odd as *const f32).read_unaligned()),
        );
        let raw_even = _mm_loadu_si128(even.add(4) as *const __m128i);
        let raw_odd = _mm_loadu_si128(odd.add(4) as *const __m128i);
        let raw = _mm512_mask_broadcast_i32x4(_mm512_broadcast_i32x4(raw_even), ODD_ROW, raw_odd);
        // Chunks 1 and 3 move their high nibbles down; the mask then drops
        // whatever the 64-bit shift carried across byte boundaries.
        let both = _mm512_srlv_epi64(raw, _mm512_setr_epi64(0, 0, 4, 4, 0, 0, 4, 4));
        (_mm512_and_si512(both, _mm512_set1_epi8(0x0f)), scale)
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

    #[test]
    fn kind_round_trips_through_names() {
        for kind in [
            KernelBackendKind::Auto,
            KernelBackendKind::Scalar,
            KernelBackendKind::Avx2,
            KernelBackendKind::Avx512,
        ] {
            assert_eq!(KernelBackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            KernelBackendKind::parse("AVX2"),
            Some(KernelBackendKind::Avx2)
        );
        assert_eq!(
            KernelBackendKind::parse(" Avx512\n"),
            Some(KernelBackendKind::Avx512)
        );
        assert_eq!(KernelBackendKind::parse("neon"), None);
        assert_eq!(KernelBackendKind::parse("portable"), None);
    }

    #[test]
    fn explicit_kinds_resolve_to_themselves_or_scalar() {
        assert_eq!(
            KernelBackendKind::Scalar.resolve().kind(),
            KernelBackendKind::Scalar
        );
        // A SIMD kind the host lacks lands on the next rung down, and an
        // explicit `Avx2` stays `Avx2` on an AVX-512 host.
        let below_avx512 = KernelBackendKind::Avx2.resolved();
        for (kind, available, fallback) in [
            (
                KernelBackendKind::Avx2,
                avx2_available(),
                KernelBackendKind::Scalar,
            ),
            (KernelBackendKind::Avx512, avx512_available(), below_avx512),
        ] {
            let want = if available { kind } else { fallback };
            assert_eq!(kind.resolved(), want);
            assert_eq!(kind.resolve().kind(), want);
        }
    }

    #[test]
    fn auto_resolves_to_a_concrete_backend() {
        let kind = KernelBackendKind::Auto.resolve().kind();
        assert_ne!(kind, KernelBackendKind::Auto);
        if std::env::var_os(KERNEL_BACKEND_ENV).is_none() {
            // Detection alone takes the widest SIMD rung the host has.
            assert_eq!(kind, KernelBackendKind::Avx512.resolved());
        }
    }

    #[test]
    fn available_always_includes_the_reference() {
        let kinds: Vec<_> = available().iter().map(|b| b.kind()).collect();
        assert!(kinds.contains(&KernelBackendKind::Scalar));
        assert_eq!(kinds.contains(&KernelBackendKind::Avx2), avx2_available());
        assert_eq!(
            kinds.contains(&KernelBackendKind::Avx512),
            avx512_available()
        );
    }

    /// Quantizes `x` with the scalar reference.
    fn quantized(x: &[f32], cols: usize) -> Q8Acts {
        let mut acts = Q8Acts::new();
        Scalar.quantize(x, cols, &mut acts);
        acts
    }

    /// `qdot_rows` over the whole matrix, as bit patterns.
    fn dot_bits(backend: &dyn KernelBackend, q: &QuantizedMatrix, acts: &Q8Acts) -> Vec<u32> {
        let mut out = vec![f32::NAN; q.rows() * acts.tokens()];
        backend.qdot_rows(q.data(), q.rows(), acts, &mut out);
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_backend_quantizes_to_the_same_codes_and_scales() {
        let cols = 3 * Q4_BLOCK;
        let mut x = pseudo(4 * cols, 71);
        // Exact .5 ties in both directions (amax 127 makes the scale 1),
        // a zero block, and a block whose scale is subnormal.
        x[..Q4_BLOCK].copy_from_slice(&std::array::from_fn::<f32, Q4_BLOCK, _>(|i| match i {
            0 => 127.0,
            1 => -127.0,
            _ => (i as f32 - 16.0) + 0.5,
        }));
        x[Q4_BLOCK..2 * Q4_BLOCK].fill(0.0);
        x[2 * Q4_BLOCK..3 * Q4_BLOCK].fill(1e-44);
        let reference = quantized(&x, cols);
        assert_eq!(reference.tokens(), 4);
        assert_eq!(reference.scales()[0], 1.0);
        // Unpack order: the even elements (127, -13.5 → -14, -11.5 → -12,
        // …), then the odd ones (-127, -12.5 → -12, -10.5 → -10, …).
        assert_eq!(&reference.codes()[..4], &[127, -14, -12, -10]);
        assert_eq!(&reference.codes()[16..20], &[-127, -12, -10, -8]);
        assert_eq!(reference.scales()[1], 0.0);
        assert!(reference.codes()[Q4_BLOCK..3 * Q4_BLOCK]
            .iter()
            .all(|c| *c == 0));
        assert!(reference.codes().iter().all(|c| *c != i8::MIN));
        for backend in available() {
            let mut acts = Q8Acts::new();
            backend.quantize(&x, cols, &mut acts);
            assert_eq!(acts, reference, "{:?}", backend.kind());
        }
    }

    #[test]
    fn non_finite_activations_follow_the_documented_rule() {
        let q = QuantizedMatrix::quantize(&pseudo(2 * Q4_BLOCK, 81), 1, 2 * Q4_BLOCK).unwrap();
        let mut with_nan = pseudo(2 * Q4_BLOCK, 82);
        let mut without = with_nan.clone();
        with_nan[5] = f32::NAN;
        without[5] = 0.0;
        let mut with_inf = with_nan.clone();
        with_inf[40] = f32::NEG_INFINITY;
        for backend in available() {
            // A NaN is dropped: the block quantizes as if it were zero.
            let mut acts = Q8Acts::new();
            backend.quantize(&with_nan, 2 * Q4_BLOCK, &mut acts);
            assert_eq!(
                acts,
                quantized(&without, 2 * Q4_BLOCK),
                "{:?}",
                backend.kind()
            );
            // An infinity poisons every output that reads its block.
            backend.quantize(&with_inf, 2 * Q4_BLOCK, &mut acts);
            assert_eq!(acts.scales()[1], f32::INFINITY);
            assert!(acts.codes()[Q4_BLOCK..].iter().all(|c| *c == 0));
            let mut out = [0.0f32];
            backend.qdot_row(q.data(), &acts, &mut out);
            assert!(out[0].is_nan(), "{:?}", backend.kind());
        }
    }

    #[test]
    fn zero_activations_give_zero_outputs() {
        let (rows, cols) = (5, 64);
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 83), rows, cols).unwrap();
        let acts = quantized(&vec![0.0; 3 * cols], cols);
        for backend in available() {
            assert_eq!(dot_bits(backend, &q, &acts), vec![0u32; rows * 3]);
        }
    }

    /// Each backend against `f64` ground truth over the dequantized weights
    /// and the unrounded activations. The bound is no longer one of float
    /// reassociation alone: an activation moves by at most half its
    /// block's scale when it is rounded to 8 bits, so an output moves by
    /// at most `Σ_blocks x_scale/2 · Σ|w|`, plus `f32` accumulation slack.
    #[test]
    fn every_backend_stays_within_the_reassociation_bound_of_f64_truth() {
        let (rows, cols) = (7, 96);
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 21), rows, cols).unwrap();
        let dense = q.dequantize();
        for tokens in [1usize, 2, 4, 5, 9] {
            let x = pseudo(tokens * cols, 22);
            for backend in available() {
                let mut acts = Q8Acts::new();
                backend.quantize(&x, cols, &mut acts);
                let mut out = vec![0.0f32; rows * tokens];
                backend.qdot_rows(q.data(), rows, &acts, &mut out);
                for (i, got) in out.iter().enumerate() {
                    let w = &dense[i / tokens * cols..][..cols];
                    let xt = &x[i % tokens * cols..][..cols];
                    let (mut truth, mut mag, mut rounding) = (0.0f64, 0.0f64, 0.0f64);
                    for (wb, xb) in w.chunks(Q4_BLOCK).zip(xt.chunks(Q4_BLOCK)) {
                        let amax = xb.iter().fold(0.0f64, |m, v| m.max(v.abs() as f64));
                        rounding += amax / 254.0 * wb.iter().map(|w| w.abs() as f64).sum::<f64>();
                        for (w, x) in wb.iter().zip(xb) {
                            truth += *w as f64 * *x as f64;
                            mag += (*w as f64 * *x as f64).abs();
                        }
                    }
                    let bound = rounding + (cols as f64) * f64::from(f32::EPSILON) * mag + 1e-12;
                    assert!(
                        ((*got as f64) - truth).abs() <= bound,
                        "{:?} output {i}: {got} vs {truth} (bound {bound})",
                        backend.kind()
                    );
                }
            }
        }
    }

    /// The largest pair sums the integer path can meet: every weight code
    /// 15 or 0 (centred: 7 or -8) against every activation code ±127.
    /// `maddubs` saturates at ±32767; the sums here reach 2 · 15 · 127.
    #[test]
    fn extreme_codes_do_not_saturate_the_pair_sums() {
        let cols = 2 * Q4_BLOCK;
        for (w, q_minus_8) in [(7.5f32, 7i32), (-7.5, -8)] {
            let q = QuantizedMatrix::quantize(&vec![w; 4 * cols], 4, cols).unwrap();
            for x in [1.0f32, -1.0] {
                let acts = quantized(&vec![x; 2 * cols], cols);
                assert!(acts.codes().iter().all(|c| c.abs() == 127));
                // Per lane and block: 4 products; exact in f32.
                let lane = (4 * q_minus_8 * 127 * x as i32) as f32 * (1.0 * (1.0 / 127.0));
                let want = 2.0 * 8.0 * lane;
                for backend in available() {
                    let mut out = vec![0.0f32; 4 * 2];
                    backend.qdot_rows(q.data(), 4, &acts, &mut out);
                    assert!(
                        out.iter().all(|v| *v == want),
                        "{:?} w={w} x={x}: {out:?} vs {want}",
                        backend.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn batched_and_single_token_calls_agree_within_each_backend() {
        let (rows, cols, tokens) = (4, 64, 7);
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 41), rows, cols).unwrap();
        let x = pseudo(tokens * cols, 42);
        for backend in available() {
            let batched = dot_bits(backend, &q, &quantized(&x, cols));
            for t in 0..tokens {
                let one = dot_bits(backend, &q, &quantized(&x[t * cols..(t + 1) * cols], cols));
                for r in 0..rows {
                    assert_eq!(
                        one[r],
                        batched[r * tokens + t],
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
        // tile shape and remainder, and column counts one block up to
        // long rows.
        for cols in [32usize, 96, 544, 1056] {
            let rows = 9;
            let q = QuantizedMatrix::quantize(&pseudo(rows * cols, 61), rows, cols).unwrap();
            let data = q.data();
            let bpr = packed_row_bytes(cols);
            for tokens in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 130] {
                let acts = quantized(&pseudo(tokens * cols, 62), cols);
                for backend in available() {
                    let mut per_row = vec![0.0f32; rows * tokens];
                    for (r, out) in per_row.chunks_mut(tokens).enumerate() {
                        backend.qdot_row(&data[r * bpr..(r + 1) * bpr], &acts, out);
                    }
                    for nrows in [1usize, 2, 3, 4, 5, 9] {
                        let mut out = vec![f32::NAN; nrows * tokens];
                        backend.qdot_rows(&data[..nrows * bpr], nrows, &acts, &mut out);
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
            let mut acts = Q8Acts::new();
            backend.qdot_rows(&[], 0, &acts, &mut []);
            backend.quantize(&[], Q4_BLOCK, &mut acts);
            assert_eq!(acts.tokens(), 0);
            backend.qdot_rows(&[0u8; 2 * Q4_BLOCK_BYTES], 2, &acts, &mut []);
        }
    }

    /// Two rows by three tokens of one block each, for the shape checks.
    fn shape_check_call(rows: usize, x: usize, out: usize) {
        let backend = KernelBackendKind::Avx2.resolve();
        let rows = vec![0u8; rows];
        let mut acts = Q8Acts::new();
        backend.quantize(&vec![0.0f32; x], Q4_BLOCK, &mut acts);
        let mut out = vec![0.0f32; out];
        backend.qdot_rows(&rows, 2, &acts, &mut out);
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

    /// Walks the row groups one `row_groups` pass over `nrows` rows visits
    /// and checks their prefetch windows: each lies inside the band and
    /// ahead of its group, each starts where the previous one ended, the
    /// first at `group * row_bytes + dist`, and the last ends at the band's
    /// end. The lines issued over the pass are then at most one line apart
    /// from the first offset to within a line of the band's end.
    #[cfg(target_arch = "x86_64")]
    fn check_prefetch_pass(
        nrows: usize,
        group: usize,
        row_bytes: usize,
        dist: usize,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prelude::*;
        use tiling::{prefetch_window, CACHE_LINE};

        let end = nrows * row_bytes;
        let mut next = (group * row_bytes + dist).min(end);
        let mut issued = Vec::new();
        let mut r = 0;
        while r + group <= nrows {
            let window = prefetch_window(r, group, row_bytes, nrows, dist);
            prop_assert_eq!(window.start, next, "r={} window {:?}", r, window);
            prop_assert!(window.start <= window.end && window.end <= end);
            prop_assert!(window.is_empty() || window.start >= (r + group) * row_bytes);
            next = window.end;
            issued.extend(window.step_by(CACHE_LINE));
            r += group;
        }
        if r > 0 {
            prop_assert_eq!(next, end, "the last window stops short of the band's end");
        }
        prop_assert!(issued.iter().all(|&offset| offset < end));
        prop_assert!(issued
            .windows(2)
            .all(|pair| pair[0] < pair[1] && pair[1] - pair[0] <= CACHE_LINE));
        if let (Some(first), Some(last)) = (issued.first(), issued.last()) {
            prop_assert_eq!(*first, group * row_bytes + dist);
            prop_assert!(*last + CACHE_LINE >= end);
        }
        Ok(())
    }

    #[cfg(target_arch = "x86_64")]
    proptest::proptest! {
        /// The prefetch window `row_groups` issues before each row group,
        /// for every tile family's group size (AVX2: 4, 2, 1 rows; AVX-512:
        /// 4 and 1 row pairs) at the shipped distance and at others.
        #[test]
        fn prefetch_windows_stay_in_the_band_and_leave_no_gap(
            blocks in 1usize..33,
            nrows in 1usize..65,
            family in 0usize..4,
            dist in 0usize..8192,
        ) {
            let group = [1, 2, 4, 8][family];
            let row_bytes = packed_row_bytes(blocks * Q4_BLOCK);
            check_prefetch_pass(nrows, group, row_bytes, tiling::PREFETCH_DISTANCE)?;
            check_prefetch_pass(nrows, group, row_bytes, dist)?;
        }
    }

    #[test]
    fn scalar_backend_overwrites_stale_output() {
        let cols = Q4_BLOCK;
        let q = QuantizedMatrix::quantize(&pseudo(cols, 51), 1, cols).unwrap();
        let acts = quantized(&pseudo(cols, 52), cols);
        for backend in available() {
            let mut dirty = vec![123.0f32; 1];
            backend.qdot_row(q.data(), &acts, &mut dirty);
            let mut clean = vec![0.0f32; 1];
            backend.qdot_row(q.data(), &acts, &mut clean);
            assert_eq!(dirty, clean, "{:?}", backend.kind());
        }
    }
}
