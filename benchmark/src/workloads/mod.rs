//! The five workloads and what a round of one hands back to the harness.

pub mod batched;
pub mod server;

use hybrimoe::{EngineConfig, Framework};
use hybrimoe_hw::SimDuration;
use hybrimoe_model::{ExpertShape, ModelConfig};

use crate::cal::{HostClock, CORE_BOUND, KERNEL_CORE_SHARE};
use crate::gen::RoundInputs;
use crate::metrics::Bag;
use crate::spans::Tracer;

/// Hardware threads of this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The time base a workload's latency and throughput numbers are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// `SimDuration`: what the modeled platform would take. Deterministic
    /// in the seed.
    Modeled,
    /// Host time on the loop's calibrated clock ([`crate::cal::HostClock`]).
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Modeled => "modeled",
            Clock::Host => "calibrated host",
        }
    }
}

/// Threads a workload keeps busy, by role. Their sum never exceeds
/// `nproc` busy threads at once (see README.md, "Thread budget").
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadBudget {
    pub harness: usize,
    pub kernel: usize,
    pub worker: usize,
    pub client: usize,
    pub handler: usize,
}

impl ThreadBudget {
    /// Threads busy at the same time while the loop runs, never more than
    /// `nproc`. Kernel threads run inline on the harness thread, a harness
    /// thread blocks while workers or clients run, and a client blocks on
    /// its handler.
    pub fn busy(&self) -> usize {
        self.worker.max(self.client).max(1).min(nproc())
    }
}

/// The fixed description of one workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub clock: Clock,
    /// Loop type with its rate or client count.
    pub traffic: &'static str,
    /// A request meets its SLO when TTFT and TPOT are both under these.
    pub ttft_limit_ms: f64,
    pub tpot_limit_ms: f64,
    /// Share of the workload's host time that slows down with the core
    /// (see [`crate::cal`]).
    pub core_share: f64,
}

/// The workloads in the order `BENCHMARK.json` lists them.
///
/// SLO limits: fixed by the issue for the modeled workloads; for the host
/// workloads, three times the first accepted baseline's p50, rounded, and
/// frozen here.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "sim_decode",
        clock: Clock::Modeled,
        traffic: "closed loop, 1 user, max_batch 1; 10 requests/round, prompt 32, decode 80",
        ttft_limit_ms: 250.0,
        tpot_limit_ms: 25.0,
        core_share: CORE_BOUND,
    },
    Spec {
        name: "sim_serve",
        clock: Clock::Modeled,
        traffic: "open loop, Poisson 0.3 req/s, max_batch 8; 60 requests/round, \
                  prompts 32/128/512 at 50/35/15%, decode 32",
        ttft_limit_ms: 2000.0,
        tpot_limit_ms: 500.0,
        core_share: CORE_BOUND,
    },
    Spec {
        name: "real_serve",
        clock: Clock::Host,
        traffic: "closed loop, 4 users, max_batch 8; 24 requests/round, prompt 32, decode 32",
        ttft_limit_ms: 50.0,
        tpot_limit_ms: 15.0,
        core_share: KERNEL_CORE_SHARE,
    },
    Spec {
        name: "remote_serve",
        clock: Clock::Host,
        traffic: "closed loop, 4 users, max_batch 8; 24 requests/round, prompt 32, decode 32; \
                  experts on min(2, nproc) loopback workers",
        ttft_limit_ms: 35.0,
        tpot_limit_ms: 11.0,
        core_share: KERNEL_CORE_SHARE,
    },
    Spec {
        name: "server_stream",
        clock: Clock::Host,
        traffic: "closed loop, nproc client connections, one connection per request; \
                  320 requests/round, prompt 16, decode 64",
        ttft_limit_ms: 2.0,
        tpot_limit_ms: 0.2,
        core_share: CORE_BOUND,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Cache ratio every workload serves at.
pub const CACHE_RATIO: f64 = 0.25;

/// The model the three real-execution workloads share: small enough to
/// materialize (about 13 MB of Q4 weights) and large enough that a
/// batch-8 step is kernel-bound.
pub fn bench_moe() -> ModelConfig {
    ModelConfig {
        name: "bench-moe".to_owned(),
        layers: 4,
        shared_experts: 1,
        routed_experts: 16,
        activated_experts: 4,
        shared_shape: Some(ExpertShape::new(256, 512)),
        routed_shape: ExpertShape::new(256, 512),
    }
}

/// The HybriMoE preset at the benchmark's cache ratio with default knobs
/// (and therefore the all-zero fault plan).
pub fn preset(model: ModelConfig) -> EngineConfig {
    EngineConfig::preset(Framework::HybriMoe, model, CACHE_RATIO)
}

/// One completed request on the workload's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestSample {
    pub ttft_ms: f64,
    pub tpot_ms: f64,
}

/// What one step of a batcher-driven round was made of: the requests whose
/// prompts merged into it and the requests that decoded a token in it, in
/// the order the batcher merged them, and the latency the engine reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepComposition {
    pub admitted: Vec<u32>,
    pub decoded: Vec<u32>,
    pub latency: SimDuration,
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct RoundOutput {
    /// Loop time on the modeled clock, seconds (modeled workloads; a host
    /// workload's loop time is its clock's).
    pub modeled_loop_s: Option<f64>,
    pub requests: Vec<RequestSample>,
    /// Gaps between consecutive tokens of one request, pooled.
    pub itl_ms: Vec<f64>,
    pub output_tokens: u64,
    pub prompt_tokens: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// Hash of everything the round reported (modeled workloads).
    pub digest: Option<u64>,
    /// How late the open-loop generator ran in total (modeled workloads:
    /// zero by construction).
    pub generator_lateness_ns: Option<u64>,
    /// Every step of the round, recorded only while tracing: the engine
    /// probes replay exactly these steps.
    pub steps: Vec<StepComposition>,
    /// Per-layer samples, collected only while tracing: counts, ratios and
    /// modeled times.
    pub layers: Bag,
    /// Per-layer samples that are raw host durations; the harness applies
    /// the loop's mean calibration factor.
    pub host_timed: Bag,
}

/// A workload: generates a round's inputs from a content seed, sets up
/// what it serves with, and serves the round.
pub trait Workload {
    fn spec(&self) -> &'static Spec;

    fn threads(&self) -> ThreadBudget;

    /// The only place a seed enters: everything downstream receives the
    /// generated inputs.
    fn generate(&self, content_seed: u64) -> RoundInputs;

    /// Builds what the round serves with (timed as `setup_s`).
    fn setup(&self, inputs: &RoundInputs) -> Box<dyn Serving>;

    /// Checks that need direct access to a layer (run once, untimed).
    fn verify(&self, _seed: u64) -> Vec<String> {
        Vec::new()
    }

    /// The workload as a batcher-driven one, for the traced run's
    /// comparisons and layer probes.
    fn as_batched(&self) -> Option<&batched::Batched> {
        None
    }

    /// The workload as its engine sees it: the configuration, and the
    /// batcher whose steps the engine probes replay.
    fn engine_view(&self) -> batched::Batched;
}

/// A set-up system ready to serve one round.
pub trait Serving {
    /// Serves the round's requests (timed as the loop) on `clock`: ticks it
    /// where nothing is in flight, closes it when the last request is done,
    /// and reports host-clock samples calibrated by it.
    fn serve(
        &mut self,
        inputs: &RoundInputs,
        tracer: &mut Tracer,
        clock: &mut HostClock<'_>,
    ) -> RoundOutput;

    /// Tears down (untimed), adding the checks and counters that are only
    /// known once the system has drained.
    fn finish(self: Box<Self>, _out: &mut RoundOutput) {}
}

/// Serves one round on a clock of its own (unit tests).
#[cfg(test)]
pub fn serve_once(serving: &mut dyn Serving, inputs: &RoundInputs, traced: bool) -> RoundOutput {
    let mut cal = crate::cal::Calibrator::new();
    let mut clock = HostClock::start(&mut cal, CORE_BOUND);
    serving.serve(inputs, &mut Tracer::new(traced), &mut clock)
}

/// Builds a workload by name.
pub fn build(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim_decode" => Box::new(batched::Batched::sim_decode()),
        "sim_serve" => Box::new(batched::Batched::sim_serve()),
        "real_serve" => Box::new(batched::Batched::real_serve()),
        "remote_serve" => Box::new(batched::Batched::remote_serve()),
        "server_stream" => Box::new(server::ServerStream::new()),
        _ => return None,
    })
}
