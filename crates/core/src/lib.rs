//! # hybrimoe
//!
//! A reproduction of **HybriMoE: Hybrid CPU-GPU Scheduling and Cache
//! Management for Efficient MoE Inference** (Zhong et al., DAC 2025).
//!
//! Mixture-of-Experts models do not fit in GPU memory on edge platforms;
//! the practical question is what to do on an expert-cache miss: move the
//! weights over PCIe, or compute on the CPU where the weights already live.
//! HybriMoE answers it per expert, per layer, with three techniques:
//!
//! 1. **hybrid intra-layer scheduling** — a greedy timeline-filling
//!    simulation maps each activated expert to CPU, GPU, or
//!    transfer-then-GPU ([`hybrimoe_sched::HybridScheduler`]);
//! 2. **impact-driven prefetching** — idle PCIe time preloads the experts
//!    whose caching most reduces the *simulated* makespan of upcoming
//!    layers ([`hybrimoe_sched::ImpactDrivenPrefetcher`]);
//! 3. **score-aware caching (MRS)** — eviction by an exponentially
//!    averaged router-score estimate ([`hybrimoe_cache::Mrs`]).
//!
//! This crate ties the substrates together into an [`Engine`] that runs
//! prefill and decode over activation traces, plus [`Framework`] presets
//! reproducing the paper's baselines (llama.cpp, AdapMoE, kTransformers).
//!
//! ## Quickstart
//!
//! ```
//! use hybrimoe::{Engine, EngineConfig, Framework};
//! use hybrimoe_model::ModelConfig;
//! use hybrimoe_trace::TraceGenerator;
//!
//! let model = ModelConfig::deepseek();
//! let config = EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.25);
//! let mut engine = Engine::new(config);
//!
//! let trace = TraceGenerator::new(model, 42).decode_trace(8);
//! let metrics = engine.run(&trace);
//! assert_eq!(metrics.steps.len(), 8);
//! assert!(metrics.total.as_nanos() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod metrics;
pub mod realexec;
#[deny(clippy::unwrap_used)]
pub mod remote;
pub mod report;
#[deny(clippy::unwrap_used)]
pub mod serve;

pub use config::{
    BackendKind, CachePolicyKind, EngineConfig, Framework, PrefetcherKind, SchedulerKind,
    DEFAULT_MAX_INFLIGHT,
};
pub use engine::{Engine, PrefetchCounters};
pub use metrics::{StageMetrics, StepMetrics};
pub use realexec::{CpuMeasurement, RealExecOptions};
// Exists only for `benchmark/src/probes.rs:21,470` (frozen); the next
// benchmark-type PR drops it together with that import.
pub use realexec::RealLayerExecutor as RemoteLayerExecutor;
pub use remote::{RemoteWorkerOptions, WorkerHealthSnapshot};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use hybrimoe_cache as cache;
pub use hybrimoe_fault as fault;
pub use hybrimoe_hw as hw;
pub use hybrimoe_kernels as kernels;
pub use hybrimoe_model as model;
pub use hybrimoe_sched as sched;
pub use hybrimoe_trace as trace;
pub use hybrimoe_worker as worker;
