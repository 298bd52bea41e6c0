//! Inference metrics.

use hybrimoe_cache::CacheStats;
use hybrimoe_hw::{Device, SimDuration};
use serde::{Deserialize, Serialize};

/// Metrics of one forward pass (one decode token or one prefill batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepMetrics {
    /// Tokens in the step.
    pub tokens: u32,
    /// End-to-end latency of the step.
    pub latency: SimDuration,
    /// Busy time per device in canonical order (`CPU, GPU0.., PCIE0..`);
    /// length `1 + 2 * num_gpus`.
    pub device_busy: Vec<SimDuration>,
    /// Experts computed on the CPU.
    pub cpu_experts: u32,
    /// Experts computed on the GPUs.
    pub gpu_experts: u32,
    /// Experts transferred on demand within layers.
    pub demand_transfers: u32,
    /// Background transfers, prefetches and refills of missed experts
    /// alike, that finished in a layer's idle window and entered the
    /// cache. A prefetch still on the wire when its own layer runs, and
    /// finished by that layer's plan, is not counted here: it counts in
    /// [`demand_transfers`](Self::demand_transfers) and in the engine's
    /// [`PrefetchCounters::landed`](crate::PrefetchCounters::landed).
    pub background_landed: u32,
}

impl StepMetrics {
    /// The GPU count implied by the busy-vector layout.
    pub fn num_gpus(&self) -> usize {
        (self.device_busy.len().saturating_sub(1) / 2).max(1)
    }

    /// Busy time of one device during the step (zero for devices outside
    /// the platform).
    pub fn busy(&self, device: Device) -> SimDuration {
        let n = self.num_gpus();
        match device.gpu_id() {
            Some(g) if (g.0 as usize) >= n => SimDuration::ZERO,
            _ => self
                .device_busy
                .get(device.ordinal(n))
                .copied()
                .unwrap_or(SimDuration::ZERO),
        }
    }
}

/// Metrics of a whole stage (a prefill pass or a decode sequence).
///
/// # Example
///
/// ```
/// use hybrimoe::{Engine, EngineConfig, Framework};
/// use hybrimoe_model::ModelConfig;
/// use hybrimoe_trace::TraceGenerator;
///
/// let model = ModelConfig::tiny_test();
/// let mut engine = Engine::new(EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.5));
/// let metrics = engine.run(&TraceGenerator::new(model, 1).decode_trace(4));
/// assert_eq!(metrics.steps.len(), 4);
/// assert!(metrics.mean_step_latency() > hybrimoe_hw::SimDuration::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Per-step metrics, in order.
    pub steps: Vec<StepMetrics>,
    /// Sum of step latencies.
    pub total: SimDuration,
    /// Cache statistics accumulated over the stage.
    pub cache: CacheStats,
}

impl StageMetrics {
    /// Aggregates step metrics.
    pub fn from_steps(steps: Vec<StepMetrics>, cache: CacheStats) -> Self {
        let total = steps.iter().map(|s| s.latency).sum();
        StageMetrics {
            steps,
            total,
            cache,
        }
    }

    /// Time-to-first-token semantics: for a prefill stage (one step) this
    /// is the step latency; for longer stages the total.
    pub fn ttft(&self) -> SimDuration {
        self.total
    }

    /// Mean time-between-tokens over the steps (decode stages).
    pub fn mean_step_latency(&self) -> SimDuration {
        if self.steps.is_empty() {
            return SimDuration::ZERO;
        }
        self.total / self.steps.len() as u64
    }

    /// The cache hit rate over the stage.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Mean utilization of `device` across steps (busy time over latency).
    /// Devices outside the platform report zero.
    pub fn utilization(&self, device: Device) -> f64 {
        if self.total == SimDuration::ZERO {
            return 0.0;
        }
        let busy: SimDuration = self.steps.iter().map(|s| s.busy(device)).sum();
        busy.as_nanos() as f64 / self.total.as_nanos() as f64
    }

    /// Total experts computed on the CPU.
    pub fn cpu_experts(&self) -> u64 {
        self.steps.iter().map(|s| s.cpu_experts as u64).sum()
    }

    /// Total experts computed on the GPUs.
    pub fn gpu_experts(&self) -> u64 {
        self.steps.iter().map(|s| s.gpu_experts as u64).sum()
    }

    /// Total on-demand transfers.
    pub fn demand_transfers(&self) -> u64 {
        self.steps.iter().map(|s| s.demand_transfers as u64).sum()
    }

    /// Total background transfers that finished in an idle window and
    /// entered the cache (see [`StepMetrics::background_landed`]).
    pub fn background_landed(&self) -> u64 {
        self.steps.iter().map(|s| s.background_landed as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(latency_us: u64) -> StepMetrics {
        StepMetrics {
            tokens: 1,
            latency: SimDuration::from_micros(latency_us),
            device_busy: vec![
                SimDuration::from_micros(latency_us / 2),
                SimDuration::from_micros(latency_us / 4),
                SimDuration::ZERO,
            ],
            cpu_experts: 2,
            gpu_experts: 3,
            demand_transfers: 1,
            background_landed: 1,
        }
    }

    #[test]
    fn aggregation() {
        let m = StageMetrics::from_steps(vec![step(10), step(20)], CacheStats::default());
        assert_eq!(m.total, SimDuration::from_micros(30));
        assert_eq!(m.mean_step_latency(), SimDuration::from_micros(15));
        assert_eq!(m.cpu_experts(), 4);
        assert_eq!(m.gpu_experts(), 6);
        assert_eq!(m.demand_transfers(), 2);
        assert_eq!(m.background_landed(), 2);
    }

    #[test]
    fn utilization_per_device() {
        let m = StageMetrics::from_steps(vec![step(20), step(20)], CacheStats::default());
        assert!((m.utilization(Device::Cpu) - 0.5).abs() < 1e-9);
        assert!((m.utilization(Device::gpu(0)) - 0.25).abs() < 1e-9);
        assert_eq!(m.utilization(Device::pcie(0)), 0.0);
        // Devices beyond the platform's GPU count report zero.
        assert_eq!(m.utilization(Device::gpu(3)), 0.0);
    }

    #[test]
    fn multi_gpu_busy_layout() {
        let s = StepMetrics {
            tokens: 1,
            latency: SimDuration::from_micros(10),
            device_busy: vec![SimDuration::from_micros(1); 5], // N = 2
            cpu_experts: 0,
            gpu_experts: 0,
            demand_transfers: 0,
            background_landed: 0,
        };
        assert_eq!(s.num_gpus(), 2);
        assert_eq!(s.busy(Device::gpu(1)), SimDuration::from_micros(1));
        assert_eq!(s.busy(Device::pcie(1)), SimDuration::from_micros(1));
        assert_eq!(s.busy(Device::gpu(2)), SimDuration::ZERO);
    }

    #[test]
    fn empty_stage_is_zero() {
        let m = StageMetrics::from_steps(Vec::new(), CacheStats::default());
        assert_eq!(m.total, SimDuration::ZERO);
        assert_eq!(m.mean_step_latency(), SimDuration::ZERO);
        assert_eq!(m.utilization(Device::Cpu), 0.0);
    }
}
