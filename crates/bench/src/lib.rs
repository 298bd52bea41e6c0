//! # hybrimoe_bench
//!
//! The experiment harness that regenerates the tables and figures of the
//! HybriMoE paper's evaluation. Each binary prints the same rows/series
//! the paper reports:
//!
//! | binary | artifact |
//! |---|---|
//! | `table2` | Table II — model configurations |
//! | `fig1`   | Fig. 1 — on-demand vs unbalanced vs balanced timelines |
//! | `fig3`   | Fig. 3(a)–(f) — motivation measurements |
//! | `fig5`   | Fig. 5 — worked scheduling example |
//! | `table3` | Table III — ablation breakdown |
//! | `fig7`   | Fig. 7 — prefill latency across lengths and cache ratios |
//! | `fig8`   | Fig. 8 — decode latency across cache ratios |
//! | `fig9`   | Fig. 9 — MRS vs LRU cache hit rates |
//!
//! Run them with `cargo run -p hybrimoe_bench --release --bin <name>`.
//! The crate also holds the TCP front-end's `server` and `load_gen`
//! binaries and the `chaos_bench` soak. Performance is gated elsewhere:
//! by the workloads of `BENCHMARK.json` (`benchmark/`) and by the test
//! suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod server_bench;

pub use chaos::{run_chaos_bench, ChaosSummary};
pub use server_bench::{run_server_bench, ServerLoad};

use hybrimoe::{Engine, EngineConfig, Framework, StageMetrics};
use hybrimoe_cache::{CachePolicy, ExpertCache};
use hybrimoe_model::{ExpertKey, ModelConfig};
use hybrimoe_trace::ActivationTrace;
use serde::Serialize;

/// Number of decode steps used by the decode experiments.
pub const DECODE_STEPS: usize = 32;

/// The cache ratios of Figs. 7 and 8.
pub const CACHE_RATIOS: [f64; 3] = [0.25, 0.50, 0.75];

/// The default measurement seed (printed by every binary for
/// reproducibility).
pub const SEED: u64 = 0x5EED_2025;

/// Runs `framework`'s preset engine, seeded with `seed`, over an already
/// generated trace and returns its metrics. A trace depends on neither the
/// framework nor the cache ratio, so a sweep generates each one once and
/// runs every configuration on it.
///
/// # Example
///
/// ```
/// use hybrimoe::Framework;
/// use hybrimoe_model::ModelConfig;
/// use hybrimoe_trace::TraceGenerator;
///
/// let model = ModelConfig::tiny_test();
/// let trace = TraceGenerator::new(model.clone(), 1).decode_trace(4);
/// let m = hybrimoe_bench::run_on(&trace, Framework::HybriMoe, &model, 0.5, 1);
/// assert_eq!(m.steps.len(), 4);
/// ```
pub fn run_on(
    trace: &ActivationTrace,
    framework: Framework,
    model: &ModelConfig,
    cache_ratio: f64,
    seed: u64,
) -> StageMetrics {
    let mut engine =
        Engine::new(EngineConfig::preset(framework, model.clone(), cache_ratio).with_seed(seed));
    engine.run(trace)
}

/// Replays a decode trace against a cache of `ratio` of the model's experts
/// under `policy`, inserting every miss, and returns the steady-state hit
/// rate (the first quarter of the steps warms the cache).
pub fn replay_hit_rate(
    trace: &ActivationTrace,
    model: &ModelConfig,
    policy: Box<dyn CachePolicy>,
    ratio: f64,
) -> f64 {
    let mut cache = ExpertCache::new(model.cache_capacity_for_ratio(ratio), policy);
    let warmup = trace.steps.len() / 4;
    for (i, step) in trace.steps.iter().enumerate() {
        if i == warmup {
            cache.reset_stats();
        }
        for rec in &step.layers {
            cache.note_routing(&rec.routing, model.activated_experts);
            for (expert, _) in rec.routing.activated() {
                let key = ExpertKey::new(rec.routing.layer(), expert);
                if !cache.lookup(key) {
                    cache.insert(key);
                }
            }
        }
    }
    cache.stats().hit_rate()
}

/// What one `load_gen` run against the serving front-end measured:
/// client-side SLO percentiles over completed streams. `load_gen` prints
/// it and exits 1 unless every request completed.
#[derive(Debug, Clone, Serialize)]
pub struct ServerBenchSummary {
    /// Model served.
    pub model: String,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Requests attempted.
    pub requests: u64,
    /// Requests that streamed to completion.
    pub completed: u64,
    /// Requests rejected with 503 (queue full, shed, or draining).
    pub rejected: u64,
    /// Requests that failed for any other reason (I/O, malformed stream).
    pub failed: u64,
    /// Prompt tokens per request.
    pub prompt_tokens: u32,
    /// Decode tokens per request.
    pub decode_tokens: u32,
    /// Wall-clock of the whole run, ms.
    pub elapsed_ms: f64,
    /// Output tokens streamed to clients.
    pub output_tokens: u64,
    /// Aggregate client-observed token throughput.
    pub output_tokens_per_sec: f64,
    /// Completed requests per second.
    pub requests_per_sec: f64,
    /// Median client-observed time to first token, ms.
    pub ttft_p50_ms: f64,
    /// 99th-percentile client-observed time to first token, ms.
    pub ttft_p99_ms: f64,
    /// Median client-observed end-to-end latency, ms.
    pub latency_p50_ms: f64,
    /// 99th-percentile client-observed end-to-end latency, ms.
    pub latency_p99_ms: f64,
    /// Median server-reported queue wait, ms.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile server-reported queue wait, ms.
    pub queue_wait_p99_ms: f64,
}

/// Formats a duration in seconds with three decimals, e.g. `"1.234s"`.
pub fn secs(d: hybrimoe_hw::SimDuration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Formats a duration in milliseconds with one decimal, e.g. `"12.3ms"`.
pub fn millis(d: hybrimoe_hw::SimDuration) -> String {
    format!("{:.1}ms", d.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrimoe_trace::TraceGenerator;

    #[test]
    fn decode_and_prefill_run_on_tiny_model() {
        let model = ModelConfig::tiny_test();
        let generator = TraceGenerator::new(model.clone(), 2);
        let d = run_on(
            &generator.decode_trace(3),
            Framework::KTransformers,
            &model,
            0.5,
            2,
        );
        assert_eq!(d.steps.len(), 3);
        let p = run_on(
            &generator.prefill_trace(16),
            Framework::HybriMoe,
            &model,
            0.5,
            2,
        );
        assert_eq!(p.steps.len(), 1);
        assert!(p.total.as_nanos() > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(hybrimoe_hw::SimDuration::from_millis(1500)), "1.500s");
        assert_eq!(
            millis(hybrimoe_hw::SimDuration::from_micros(12_340)),
            "12.3ms"
        );
    }
}
