//! Serving reports: per-request detail plus aggregate percentiles.

use hybrimoe_hw::SimDuration;
use serde::{Deserialize, Serialize};

use crate::serve::{RequestMetrics, ServeConfig, StepStat};

/// The full outcome of one serving experiment: experiment identity,
/// per-request metrics, and the per-step batch trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Model name.
    pub model: String,
    /// Cache ratio of the engine under test.
    pub cache_ratio: f64,
    /// GPU shards of the engine under test.
    pub num_gpus: usize,
    /// Continuous-batch bound.
    pub max_batch: usize,
    /// Arrival process name (`"deterministic"` or `"poisson"`).
    pub arrivals: String,
    /// Mean inter-arrival gap (quantized to whole nanoseconds).
    pub mean_interarrival: SimDuration,
    /// The *requested* arrival rate in requests per second — carried from
    /// the [`ArrivalProcess`](crate::serve::ArrivalProcess) rather than
    /// recomputed from the quantized gap, so rates that do not divide 1e9
    /// (e.g. 3.0) round-trip exactly into gate keys.
    pub arrival_rate_per_sec: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Per-request metrics, ascending by request id.
    pub requests: Vec<RequestMetrics>,
    /// Per-engine-step batch statistics, in execution order.
    pub steps: Vec<StepStat>,
    /// Time from the clock origin to the last completion. Includes any
    /// idle gap before the first arrival (Poisson draws a random first
    /// gap), so throughputs derived from it measure the whole experiment
    /// wall clock; comparisons across frameworks stay fair because the
    /// arrival schedule is shared.
    pub makespan: SimDuration,
}

impl ServeReport {
    /// Assembles a report (requests must already be sorted by id).
    pub(crate) fn new(
        config: &ServeConfig,
        requests: Vec<RequestMetrics>,
        steps: Vec<StepStat>,
        makespan: SimDuration,
    ) -> ServeReport {
        ServeReport {
            model: config.engine.model.name.clone(),
            cache_ratio: config.engine.cache_ratio,
            num_gpus: config.engine.platform.num_gpus.max(1),
            max_batch: config.max_batch,
            arrivals: config.arrivals.name().to_owned(),
            mean_interarrival: config.arrivals.mean_interval(),
            arrival_rate_per_sec: config.arrivals.rate_per_sec(),
            seed: config.seed,
            requests,
            steps,
            makespan,
        }
    }

    /// Aggregates the per-request metrics into a summary.
    pub fn summary(&self) -> ServeSummary {
        let makespan_s = self.makespan.as_secs_f64();
        let output_tokens: u64 = self.requests.iter().map(|r| r.decode_tokens as u64).sum();
        let prompt_tokens: u64 = self.requests.iter().map(|r| r.prompt_tokens as u64).sum();
        let batch_steps: u64 = self.steps.iter().map(|s| s.batch as u64).sum();
        ServeSummary {
            model: self.model.clone(),
            cache_ratio: self.cache_ratio,
            num_gpus: self.num_gpus,
            max_batch: self.max_batch,
            arrivals: self.arrivals.clone(),
            arrival_rate_per_sec: self.arrival_rate_per_sec,
            requests: self.requests.len() as u64,
            engine_steps: self.steps.len() as u64,
            makespan_ms: self.makespan.as_millis_f64(),
            prompt_tokens,
            output_tokens,
            output_tokens_per_sec: per_second(output_tokens, makespan_s),
            requests_per_sec: per_second(self.requests.len() as u64, makespan_s),
            mean_batch: if self.steps.is_empty() {
                0.0
            } else {
                batch_steps as f64 / self.steps.len() as f64
            },
            queue_wait_p50_ms: self.percentile_ms(RequestMetrics::queue_wait, 50.0),
            queue_wait_p99_ms: self.percentile_ms(RequestMetrics::queue_wait, 99.0),
            ttft_p50_ms: self.percentile_ms(RequestMetrics::ttft, 50.0),
            ttft_p99_ms: self.percentile_ms(RequestMetrics::ttft, 99.0),
            tpot_p50_ms: self.percentile_ms(RequestMetrics::tpot, 50.0),
            tpot_p99_ms: self.percentile_ms(RequestMetrics::tpot, 99.0),
            latency_p50_ms: self.percentile_ms(RequestMetrics::latency, 50.0),
            latency_p99_ms: self.percentile_ms(RequestMetrics::latency, 99.0),
        }
    }

    /// A percentile over a per-request duration, in milliseconds.
    fn percentile_ms(&self, metric: impl Fn(&RequestMetrics) -> SimDuration, p: f64) -> f64 {
        let mut values: Vec<SimDuration> = self.requests.iter().map(metric).collect();
        values.sort_unstable();
        percentile(&values, p).as_millis_f64()
    }
}

/// Aggregate serving metrics, flat and JSON-friendly: one row per
/// experiment in a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Model name.
    pub model: String,
    /// Cache ratio.
    pub cache_ratio: f64,
    /// GPU shards.
    pub num_gpus: usize,
    /// Continuous-batch bound.
    pub max_batch: usize,
    /// Arrival process name.
    pub arrivals: String,
    /// Mean arrival rate in requests per second.
    pub arrival_rate_per_sec: f64,
    /// Requests served.
    pub requests: u64,
    /// Engine steps taken.
    pub engine_steps: u64,
    /// Wall time of the experiment on the simulated clock, in ms.
    pub makespan_ms: f64,
    /// Total prompt tokens prefilled.
    pub prompt_tokens: u64,
    /// Total output tokens decoded.
    pub output_tokens: u64,
    /// Aggregate decode throughput (output tokens per second).
    pub output_tokens_per_sec: f64,
    /// Aggregate request throughput (requests per second).
    pub requests_per_sec: f64,
    /// Mean batch size across engine steps.
    pub mean_batch: f64,
    /// Median time spent waiting for a batch slot, ms.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile queue wait, ms.
    pub queue_wait_p99_ms: f64,
    /// Median time to first token, ms.
    pub ttft_p50_ms: f64,
    /// 99th-percentile time to first token, ms.
    pub ttft_p99_ms: f64,
    /// Median time per output token, ms.
    pub tpot_p50_ms: f64,
    /// 99th-percentile time per output token, ms.
    pub tpot_p99_ms: f64,
    /// Median end-to-end request latency, ms.
    pub latency_p50_ms: f64,
    /// 99th-percentile end-to-end request latency, ms.
    pub latency_p99_ms: f64,
}

/// Nearest-rank percentile of an ascending-sorted slice; zero for empty
/// input.
pub fn percentile(sorted: &[SimDuration], p: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    sorted[nearest_rank(sorted.len() as u64, p) as usize - 1]
}

/// The 1-based rank of the `p`th percentile among `n ≥ 1` samples:
/// `⌈p/100 · n⌉`, clamped to `1..=n`.
pub(crate) fn nearest_rank(n: u64, p: f64) -> u64 {
    ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n)
}

fn per_second(count: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        count as f64 / seconds
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<SimDuration> = (1..=10).map(us).collect();
        assert_eq!(percentile(&v, 50.0), us(5));
        assert_eq!(percentile(&v, 99.0), us(10));
        assert_eq!(percentile(&v, 100.0), us(10));
        assert_eq!(percentile(&v, 0.0), us(1));
        assert_eq!(percentile(&[], 50.0), SimDuration::ZERO);
        assert_eq!(percentile(&[us(3)], 99.0), us(3));
    }

    #[test]
    fn summary_of_a_small_run_is_consistent() {
        use crate::serve::{ArrivalProcess, ServeConfig, ServeSim};
        use crate::{EngineConfig, Framework};
        use hybrimoe_model::ModelConfig;

        let report = ServeSim::new(ServeConfig {
            engine: EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5),
            arrivals: ArrivalProcess::deterministic(SimDuration::from_millis(2)),
            requests: 4,
            prompt_tokens: 8,
            decode_tokens: 3,
            max_batch: 2,
            seed: 11,
        })
        .run();
        let s = report.summary();
        assert_eq!(s.requests, 4);
        assert_eq!(s.num_gpus, 1);
        assert_eq!(s.output_tokens, 12);
        assert_eq!(s.prompt_tokens, 32);
        assert!(s.output_tokens_per_sec > 0.0);
        assert!(s.ttft_p99_ms >= s.ttft_p50_ms);
        assert!(s.latency_p99_ms >= s.latency_p50_ms);
        assert!(s.queue_wait_p99_ms >= s.queue_wait_p50_ms);
        assert_eq!(s.arrival_rate_per_sec, 500.0);
        assert!(s.mean_batch >= 1.0 && s.mean_batch <= 2.0);
        // The summary serializes to JSON for sweep output.
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("output_tokens_per_sec"));
    }
}
