//! # hybrimoe-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! HybriMoE paper's evaluation (see DESIGN.md §4 for the index). Each
//! binary prints the same rows/series the paper reports:
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
//! Run them with `cargo run -p hybrimoe-bench --release --bin <name>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod server_bench;

pub use chaos::{run_chaos_bench, ChaosSummary};
pub use server_bench::{run_server_bench, ServerLoad};

use std::time::Instant;

use hybrimoe::realexec::{RealExecOptions, RealLayerExecutor};
use hybrimoe::remote::{RemoteLayerExecutor, RemoteWorkerOptions};
use hybrimoe::serve::{ArrivalProcess, ServeConfig, ServeReport, ServeSim, ServeSummary};
use hybrimoe::{Engine, EngineConfig, Framework, StageMetrics};
use hybrimoe_hw::UnitCostModel;
use hybrimoe_kernels::KernelBackendKind;
use hybrimoe_model::{ExpertShape, LayerId, LayerRouting, ModelConfig, RouterOutput};
use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, SchedulePlan, Scheduler};
use hybrimoe_trace::TraceGenerator;
use hybrimoe_worker::{Endpoint, WorkerServer, WorkerServerOptions};
use serde::{Deserialize, Serialize};

/// Number of decode steps used by the decode experiments.
pub const DECODE_STEPS: usize = 32;

/// The cache ratios of Figs. 7 and 8.
pub const CACHE_RATIOS: [f64; 3] = [0.25, 0.50, 0.75];

/// The default measurement seed (printed by every binary for
/// reproducibility).
pub const SEED: u64 = 0x5EED_2025;

/// Arrival rates of the serving sweep, in requests per second.
pub const SERVE_ARRIVAL_RATES: [f64; 3] = [2.0, 5.0, 10.0];

/// Cache ratios of the serving sweep (the paper's tight and middle
/// points).
pub const SERVE_CACHE_RATIOS: [f64; 2] = [0.25, 0.50];

/// GPU counts of the serving sweep (expert sharding across shards).
pub const SERVE_GPU_COUNTS: [usize; 3] = [1, 2, 4];

/// Frameworks compared by the serving sweep.
pub const SERVE_FRAMEWORKS: [Framework; 2] = [Framework::KTransformers, Framework::HybriMoe];

/// Runs a decode stage for `framework` and returns its metrics.
///
/// # Example
///
/// ```
/// use hybrimoe::Framework;
/// use hybrimoe_model::ModelConfig;
///
/// let m = hybrimoe_bench::run_decode(
///     Framework::HybriMoe, &ModelConfig::tiny_test(), 0.5, 4, 1);
/// assert_eq!(m.steps.len(), 4);
/// ```
pub fn run_decode(
    framework: Framework,
    model: &ModelConfig,
    cache_ratio: f64,
    steps: usize,
    seed: u64,
) -> StageMetrics {
    let trace = TraceGenerator::new(model.clone(), seed).decode_trace(steps);
    let mut engine =
        Engine::new(EngineConfig::preset(framework, model.clone(), cache_ratio).with_seed(seed));
    engine.run(&trace)
}

/// Runs a prefill stage of `tokens` prompt tokens and returns its metrics.
pub fn run_prefill(
    framework: Framework,
    model: &ModelConfig,
    cache_ratio: f64,
    tokens: u32,
    seed: u64,
) -> StageMetrics {
    let trace = TraceGenerator::new(model.clone(), seed).prefill_trace(tokens);
    let mut engine =
        Engine::new(EngineConfig::preset(framework, model.clone(), cache_ratio).with_seed(seed));
    engine.run(&trace)
}

/// Parameters of one serving experiment shared across the sweep axes.
#[derive(Debug, Clone, Copy)]
pub struct ServeLoad {
    /// Requests to serve.
    pub requests: usize,
    /// Prompt tokens per request.
    pub prompt_tokens: u32,
    /// Output tokens per request.
    pub decode_tokens: u32,
    /// Continuous-batch bound.
    pub max_batch: usize,
    /// Whether arrivals are Poisson (else deterministic spacing).
    pub poisson: bool,
}

impl Default for ServeLoad {
    fn default() -> Self {
        ServeLoad {
            requests: 24,
            prompt_tokens: 64,
            decode_tokens: 16,
            max_batch: 8,
            poisson: true,
        }
    }
}

/// Runs one continuous-batching serving experiment.
///
/// # Example
///
/// ```
/// use hybrimoe::Framework;
/// use hybrimoe_bench::{run_serve, ServeLoad};
/// use hybrimoe_model::ModelConfig;
///
/// let load = ServeLoad {
///     requests: 3,
///     prompt_tokens: 8,
///     decode_tokens: 2,
///     max_batch: 2,
///     poisson: false,
/// };
/// let report = run_serve(Framework::HybriMoe, &ModelConfig::tiny_test(), 0.5, 50.0, load, 1);
/// assert_eq!(report.requests.len(), 3);
/// ```
pub fn run_serve(
    framework: Framework,
    model: &ModelConfig,
    cache_ratio: f64,
    arrival_rate_per_sec: f64,
    load: ServeLoad,
    seed: u64,
) -> ServeReport {
    run_serve_gpus(
        framework,
        model,
        cache_ratio,
        arrival_rate_per_sec,
        load,
        seed,
        1,
    )
}

/// Runs one continuous-batching serving experiment on a platform with
/// `num_gpus` GPU shards.
#[allow(clippy::too_many_arguments)]
pub fn run_serve_gpus(
    framework: Framework,
    model: &ModelConfig,
    cache_ratio: f64,
    arrival_rate_per_sec: f64,
    load: ServeLoad,
    seed: u64,
    num_gpus: usize,
) -> ServeReport {
    ServeSim::new(ServeConfig {
        engine: EngineConfig::preset(framework, model.clone(), cache_ratio)
            .with_seed(seed)
            .with_num_gpus(num_gpus),
        arrivals: ArrivalProcess::per_second(arrival_rate_per_sec, load.poisson),
        requests: load.requests,
        prompt_tokens: load.prompt_tokens,
        decode_tokens: load.decode_tokens,
        max_batch: load.max_batch,
        seed,
    })
    .run()
}

/// One row of the serving sweep: a framework label plus the experiment's
/// aggregate summary (which carries rate, ratio and GPU count).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeRow {
    /// Framework label (`Framework::to_string`).
    pub framework: String,
    /// Aggregate metrics of the experiment.
    pub summary: ServeSummary,
}

/// Runs the full serving sweep (arrival rate × cache ratio × GPU count ×
/// framework) that `serve_bench` reports and `bench_check` gates. The
/// sweep is deterministic: same model, load and seed give bit-identical
/// rows.
pub fn serve_sweep(model: &ModelConfig, load: ServeLoad, seed: u64) -> Vec<ServeRow> {
    let mut rows = Vec::new();
    for rate in SERVE_ARRIVAL_RATES {
        for ratio in SERVE_CACHE_RATIOS {
            for num_gpus in SERVE_GPU_COUNTS {
                for framework in SERVE_FRAMEWORKS {
                    let report =
                        run_serve_gpus(framework, model, ratio, rate, load, seed, num_gpus);
                    rows.push(ServeRow {
                        framework: framework.to_string(),
                        summary: report.summary(),
                    });
                }
            }
        }
    }
    rows
}

/// Batch sizes of the real-backend kernel sweep (`real_bench`).
pub const REAL_BATCH_SIZES: [usize; 5] = [1, 4, 8, 16, 32];

/// Routing widths of the real-backend sweep: every token routes among the
/// first `E` experts, so `E` bounds the activated expert count per layer.
pub const REAL_EXPERT_COUNTS: [u16; 2] = [4, 8];

/// Worker-thread caps of the real-backend sweep (the executor clamps to
/// the machine's available parallelism).
pub const REAL_THREAD_COUNTS: [usize; 2] = [1, 2];

/// One row of the real-backend sweep: measured decode throughput of the
/// expert-major batched executor (on one kernel backend) vs the retained
/// token-major scalar reference at one (batch, expert count, thread cap)
/// point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RealRow {
    /// Kernel backend of the expert-major executor (`scalar`, `portable`,
    /// `avx2`, `avx512` — the names of
    /// [`KernelBackendKind::name`](hybrimoe_kernels::KernelBackendKind)).
    pub backend: String,
    /// Tokens per layer execution.
    pub batch: usize,
    /// Routing width (experts the tokens route among).
    pub experts: u16,
    /// Worker-thread cap of both executors.
    pub threads: usize,
    /// Expert-major batched path, tokens per second.
    pub expert_major_tok_s: f64,
    /// Token-major scalar reference path, tokens per second.
    pub token_major_tok_s: f64,
    /// `expert_major_tok_s / token_major_tok_s`.
    pub speedup: f64,
}

/// The model `real_bench` executes: one MoE layer sized so a single expert
/// forward is kernel-bound (hidden 128, inter 256) yet the whole sweep
/// stays in a few hundred megabytes of synthetic weights.
pub fn real_bench_model() -> ModelConfig {
    ModelConfig {
        name: "real-bench".to_owned(),
        layers: 1,
        shared_experts: 0,
        routed_experts: 8,
        activated_experts: 2,
        shared_shape: None,
        routed_shape: ExpertShape::new(128, 256),
    }
}

/// Deterministic inputs, routes and a hybrid schedule for one real-bench
/// layer: `batch` tokens routing among the first `experts` experts.
fn real_layer(
    model: &ModelConfig,
    batch: usize,
    experts: u16,
    seed: u64,
) -> (Vec<Vec<f32>>, Vec<RouterOutput>, SchedulePlan) {
    let hidden = model.routed_shape.hidden() as usize;
    let total = model.routed_experts as usize;
    let k = model.activated_experts as usize;
    let (inputs, routes): (Vec<Vec<f32>>, Vec<RouterOutput>) = (0..batch)
        .map(|t| {
            let x: Vec<f32> = (0..hidden)
                .map(|i| (((t as u64 * 131 + i as u64 * 7 + seed) % 100) as f32 / 50.0 - 1.0) * 0.1)
                .collect();
            let logits: Vec<f32> = (0..total)
                .map(|e| {
                    if e < experts as usize {
                        (((t + e * 13 + seed as usize) % 17) as f32) / 4.0
                    } else {
                        -1e9
                    }
                })
                .collect();
            (x, RouterOutput::route(&logits, k))
        })
        .unzip();
    let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, &routes);
    let tasks: Vec<ExpertTask> = routing
        .activated()
        .into_iter()
        .map(|(e, load)| ExpertTask {
            expert: e,
            load,
            cached: e.0 % 2 == 0,
        })
        .collect();
    let cost = UnitCostModel::paper_fig5();
    let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
    let plan = HybridScheduler::new().schedule(&ctx);
    (inputs, routes, plan)
}

/// Measured decode throughput (tokens/s) of one executor: best of three
/// trials of `reps` repetitions each, after one untimed warmup execution
/// (weight materialization, scratch growth, pool spawn). Best-of-N is the
/// standard defence against transient scheduler interference: the fastest
/// trial is the one least perturbed by the host.
fn real_throughput(
    exec: &mut RealLayerExecutor,
    plan: &SchedulePlan,
    inputs: &[Vec<f32>],
    routes: &[RouterOutput],
    reps: usize,
) -> f64 {
    exec.execute_layer(LayerId(0), plan, inputs, routes)
        .expect("warmup executes");
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            let out = exec
                .execute_layer(LayerId(0), plan, inputs, routes)
                .expect("bench executes");
            std::hint::black_box(&out.output);
        }
        let rate = (reps * inputs.len()) as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// Median speedup across the rows (empty slice → 0). The real-backend CI
/// gate compares medians: individual wall-clock points wobble by tens of
/// percent on shared hosts, but the median of all batched within-run
/// ratios is stable.
pub fn median_speedup(rows: &[RealRow]) -> f64 {
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    median_f64(&speedups)
}

/// Runs the real-execution sweep (kernel backend × batch size × expert
/// count × thread cap) that `real_bench` reports and `bench_check` gates:
/// each point measures the token-major scalar reference once, then the
/// expert-major batched executor on every backend this host can run
/// ([`hybrimoe_kernels::backend::available`]) against identical inputs and
/// plans. Inputs are seed-deterministic; the measured rates are wall-clock
/// and therefore machine-dependent, which is why the CI gate compares the
/// within-run per-backend *speedup* rather than absolute rates.
pub fn real_sweep(seed: u64) -> Vec<RealRow> {
    let model = real_bench_model();
    let mut rows = Vec::new();
    for experts in REAL_EXPERT_COUNTS {
        for batch in REAL_BATCH_SIZES {
            let (inputs, routes, plan) = real_layer(&model, batch, experts, seed);
            // Constant total work per point: more reps for small batches.
            let reps = (128 / batch).clamp(2, 32);
            for threads in REAL_THREAD_COUNTS {
                let mut reference = RealLayerExecutor::with_options(
                    model.clone(),
                    seed,
                    RealExecOptions {
                        max_threads: threads,
                        token_major: true,
                        ..Default::default()
                    },
                );
                let token_major_tok_s =
                    real_throughput(&mut reference, &plan, &inputs, &routes, reps);
                for backend in hybrimoe_kernels::backend::available() {
                    let mut batched = RealLayerExecutor::with_options(
                        model.clone(),
                        seed,
                        RealExecOptions {
                            max_threads: threads,
                            kernel_backend: backend.kind(),
                            ..Default::default()
                        },
                    );
                    let expert_major_tok_s =
                        real_throughput(&mut batched, &plan, &inputs, &routes, reps);
                    rows.push(RealRow {
                        backend: backend.kind().name().to_owned(),
                        batch,
                        experts,
                        threads,
                        expert_major_tok_s,
                        token_major_tok_s,
                        speedup: expert_major_tok_s / token_major_tok_s,
                    });
                }
            }
        }
    }
    rows
}

/// Worker counts of the distributed-worker sweep (`worker_bench`).
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Batch sizes of the distributed-worker sweep; the CI gate watches the
/// points at [`WORKER_GATE_BATCH`] and above.
pub const WORKER_BATCH_SIZES: [usize; 3] = [1, 8, 32];

/// Minimum batch size of worker gate points: frame and dispatch overhead
/// amortizes over a batch, single-token layers stay ungated.
pub const WORKER_GATE_BATCH: usize = 8;

/// One row of the distributed-worker sweep: measured decode throughput of
/// the remote executor at one (worker count, pipelining, batch) point,
/// against the same executor running fully local (no endpoints) on
/// identical inputs and plans. Written to `BENCH_worker.json` and gated by
/// `bench_check --worker-fresh`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerRow {
    /// Expert workers serving shards over the framed wire protocol.
    pub workers: usize,
    /// Whether the client dispatched every expert batch before collecting
    /// any reply (strict-FIFO pipelining).
    pub pipelined: bool,
    /// Tokens per layer execution.
    pub batch: usize,
    /// Routing width (experts the tokens route among).
    pub experts: u16,
    /// Remote path: expert batches over the wire, tokens per second.
    pub remote_tok_s: f64,
    /// Fully-local path of the same executor, tokens per second.
    pub local_tok_s: f64,
    /// `remote_tok_s / local_tok_s`.
    pub speedup: f64,
}

/// The identity of a worker-sweep row within the sweep (what the gate
/// keys points by).
pub fn worker_point_key(r: &WorkerRow) -> (usize, bool, usize, u16) {
    (r.workers, r.pipelined, r.batch, r.experts)
}

/// Median of a finite sample (empty slice → 0); even lengths average the
/// two middle values.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Measured decode throughput (tokens/s) of the remote executor: best of
/// three trials after one untimed warmup (which also opens the worker
/// connections and loads shards). Panics if any batch failed over — a
/// measurement that silently fell back to local kernels would report the
/// wrong path.
fn worker_throughput(
    exec: &mut RemoteLayerExecutor,
    plan: &SchedulePlan,
    inputs: &[Vec<f32>],
    routes: &[RouterOutput],
    reps: usize,
) -> f64 {
    exec.execute_layer(LayerId(0), plan, inputs, routes)
        .expect("warmup executes");
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            let out = exec
                .execute_layer(LayerId(0), plan, inputs, routes)
                .expect("bench executes");
            std::hint::black_box(&out.output);
        }
        let rate = (reps * inputs.len()) as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    let health = exec.health();
    assert_eq!(
        health.failovers, 0,
        "worker bench measured a failover; the row would mix remote and local paths"
    );
    best
}

/// Runs the distributed-worker sweep (worker count × pipelining × batch)
/// that `worker_bench` reports and `bench_check` gates. Workers run
/// in-thread behind real loopback TCP sockets speaking the full framed
/// protocol — the same codec and client path as out-of-process workers,
/// minus the process spawn. Scalar kernels and single compute threads are
/// pinned on both sides, so the rows measure wire and dispatch structure
/// rather than SIMD or thread-count differences across hosts. On a
/// multi-core host the pipelined multi-worker rows show real scaling
/// (workers compute concurrently); on any host they must hold parity with
/// a single worker, which is what the CI gate checks.
pub fn worker_sweep(seed: u64) -> Vec<WorkerRow> {
    let model = real_bench_model();
    let experts = model.routed_experts;
    let exec_options = RealExecOptions {
        max_threads: 1,
        kernel_backend: KernelBackendKind::Scalar,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for batch in WORKER_BATCH_SIZES {
        let (inputs, routes, plan) = real_layer(&model, batch, experts, seed);
        let reps = (128 / batch).clamp(2, 32);
        let mut local = RemoteLayerExecutor::new(
            model.clone(),
            seed,
            exec_options,
            &RemoteWorkerOptions::default(),
        );
        let local_tok_s = worker_throughput(&mut local, &plan, &inputs, &routes, reps);
        for workers in WORKER_COUNTS {
            let mut handles = Vec::new();
            let mut endpoints = Vec::new();
            for _ in 0..workers {
                let handle = WorkerServer::bind(
                    &Endpoint::parse("127.0.0.1:0"),
                    WorkerServerOptions {
                        threads: 1,
                        drain_stops_server: false,
                        ..Default::default()
                    },
                )
                .expect("bind bench worker")
                .spawn();
                endpoints.push(handle.endpoint().to_string());
                handles.push(handle);
            }
            for pipelined in [true, false] {
                let mut remote = RemoteLayerExecutor::new(
                    model.clone(),
                    seed,
                    exec_options,
                    &RemoteWorkerOptions {
                        endpoints: endpoints.clone(),
                        pipeline: pipelined,
                        ..Default::default()
                    },
                );
                let remote_tok_s = worker_throughput(&mut remote, &plan, &inputs, &routes, reps);
                assert!(remote.health().requests > 0, "no batch ran remotely");
                rows.push(WorkerRow {
                    workers,
                    pipelined,
                    batch,
                    experts,
                    remote_tok_s,
                    local_tok_s,
                    speedup: remote_tok_s / local_tok_s,
                });
            }
            for handle in handles {
                handle.shutdown();
            }
        }
    }
    rows
}

/// Runs a decode stage for an explicit configuration (ablations).
pub fn run_decode_config(config: EngineConfig, steps: usize, seed: u64) -> StageMetrics {
    let trace = TraceGenerator::new(config.model.clone(), seed).decode_trace(steps);
    Engine::new(config).run(&trace)
}

/// Runs a prefill stage for an explicit configuration (ablations).
pub fn run_prefill_config(config: EngineConfig, tokens: u32, seed: u64) -> StageMetrics {
    let trace = TraceGenerator::new(config.model.clone(), seed).prefill_trace(tokens);
    Engine::new(config).run(&trace)
}

/// Whether two arrival rates denote the same sweep point.
///
/// Gate keys must not do exact float comparison: a snapshot written by an
/// older build may carry a rate recomputed from the *quantized*
/// inter-arrival gap (e.g. 3.0 round-tripping to 3.000000003 through a
/// 333333333ns gap), which would silently unmatch every gate point. A
/// relative tolerance of 1e-6 absorbs that quantization error while still
/// separating any two distinct swept rates.
pub fn same_rate(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1e-12)
}

/// Nearest-rank percentile of an unsorted sample of milliseconds; zero for
/// an empty sample. (The core crate's percentile works on `SimDuration`
/// series; the load generator measures client-side floats.)
pub fn percentile_f64(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// What one `load_gen` run against the serving front-end measured:
/// client-side SLO percentiles over completed streams. Written to
/// `BENCH_server.json` and gated by `bench_check --server-fresh`.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

    #[test]
    fn decode_and_prefill_run_on_tiny_model() {
        let model = ModelConfig::tiny_test();
        let d = run_decode(Framework::KTransformers, &model, 0.5, 3, 2);
        assert_eq!(d.steps.len(), 3);
        let p = run_prefill(Framework::HybriMoe, &model, 0.5, 16, 2);
        assert_eq!(p.steps.len(), 1);
        assert!(p.total.as_nanos() > 0);
    }

    #[test]
    fn same_rate_absorbs_interarrival_quantization() {
        // A rate of 3.0 requests/s quantizes to a 333_333_333ns gap; a
        // baseline written by a build that recomputed the rate from the
        // gap carries 3.000000003. The two must still key to the same
        // gate point, or every non-divisible rate silently un-gates.
        let recomputed = 1e9 / 333_333_333.0;
        assert_ne!(recomputed, 3.0, "rate must not round-trip exactly");
        assert!(same_rate(3.0, recomputed));
        assert!(same_rate(recomputed, 3.0));
        assert!(same_rate(0.0, 0.0));
        // Distinct swept rates never collide.
        for (i, a) in SERVE_ARRIVAL_RATES.iter().enumerate() {
            for (j, b) in SERVE_ARRIVAL_RATES.iter().enumerate() {
                assert_eq!(same_rate(*a, *b), i == j);
            }
        }
    }

    #[test]
    fn percentile_f64_nearest_rank() {
        let mut v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile_f64(&mut v, 50.0), 5.0);
        assert_eq!(percentile_f64(&mut v, 99.0), 10.0);
        assert_eq!(percentile_f64(&mut [], 50.0), 0.0);
        let mut unsorted = vec![9.0, 1.0, 5.0];
        assert_eq!(percentile_f64(&mut unsorted, 0.0), 1.0);
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
