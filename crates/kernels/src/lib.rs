//! # hybrimoe-kernels
//!
//! Real CPU compute kernels for quantized Mixture-of-Experts inference:
//!
//! * [`backend`] — runtime-dispatched backends (scalar reference, `x86_64`
//!   AVX2 and AVX-512 VNNI) for the `Q4_0 × Q8_0` integer dot and the
//!   activation quantizer that feeds it, bit-identical to each other,
//!   selected once at startup by CPU feature detection with an env/config
//!   override;
//! * [`gemm`] — the single-precision GEMV oracle and the SwiGLU gate;
//! * [`quant`] — llama.cpp-style `Q4_0` block quantization (32 weights per
//!   block, one scale each) and the GEMV/GEMM entry points over it;
//! * [`ffn`] — the SwiGLU expert feed-forward used by Mixtral / DeepSeek /
//!   Qwen2 experts, running on quantized weights, and its synthetic
//!   weights ([`ExpertFfn::random`], drawn straight into `Q4_0` blocks on
//!   AVX-512 hosts);
//! * [`threadpool`] — the persistent [`WorkerPool`] the hot path splits
//!   weight rows across.
//!
//! Each kernel exists twice and only twice: the production path
//! (`*_into`: caller-owned scratch, a [`WorkerPool`], the dispatched
//! [`KernelBackend`]) and a single-threaded scalar reference that
//! allocates its result — the oracle the production path is pinned
//! bit-identical to.
//!
//! The GPU of the paper's testbed is not available in this environment, so
//! GPU and PCIe behaviour is modeled analytically in `hybrimoe-hw`; the CPU
//! path is the one that is executed for real.
//!
//! ## Example
//!
//! ```
//! use hybrimoe_kernels::ExpertFfn;
//!
//! let ffn = ExpertFfn::random(64, 96, 42);
//! let x = vec![0.1_f32; 64];
//! let y = ffn.forward(&x);
//! assert_eq!(y.len(), 64);
//! ```

// `deny` rather than `forbid`: the persistent `WorkerPool` needs two
// narrowly-scoped `allow(unsafe_code)` regions (lifetime erasure of the job
// closure, with a completion barrier guaranteeing the borrow outlives every
// use — see `threadpool`), and the AVX2 and AVX-512 kernel backends and the
// weight generator's AVX-512 pass need `allow(unsafe_code)` for their
// feature-gated intrinsics (guarded by `is_x86_feature_detected!` at
// selection time — see `backend` and `synth`). Everything else remains
// unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod ffn;
pub mod gemm;
pub mod quant;
#[cfg(target_arch = "x86_64")]
mod synth;
pub mod threadpool;

pub use backend::{KernelBackend, KernelBackendKind, Q8Acts};
pub use ffn::{ExecScratch, ExpertFfn};
pub use quant::{QuantError, QuantizedMatrix, Q4_BLOCK};
pub use threadpool::WorkerPool;
