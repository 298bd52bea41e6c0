//! Real-execution mode: compute actual MoE layer outputs with the
//! quantized CPU kernels.
//!
//! The paper's system executes real experts; this reproduction models the
//! GPU analytically (none is available) but keeps a real CPU execution
//! path for small configurations. It serves two purposes:
//!
//! 1. **Correctness oracle** — a schedule is only valid if the layer's
//!    numerical output is identical no matter where each expert was placed.
//!    [`RealLayerExecutor::execute_layer`] computes the true
//!    `y = Σᵢ wᵢ · Eᵢ(x)` with the `hybrimoe-kernels` Q4 FFNs and checks
//!    the plan partition covers every activated expert exactly once.
//! 2. **Calibration ground truth** — the measured wall-clock of the
//!    CPU-assigned portion grounds the cost model's CPU constants.
//!
//! In an [`Engine`](crate::Engine) configured for real execution the
//! executor does not keep a clock of its own: the engine replays each
//! layer's plan ([`PlanReplay::run_measured`]) with the executor's
//! measured time of every CPU-planned expert in place of the modeled one,
//! while GPU compute, the shared experts and PCIe stay modeled (no GPU and
//! no link exist to measure here).
//!
//! # Expert-major batched execution
//!
//! The hot path is **expert-major**: per layer it builds each expert's
//! routed token list once, gathers those tokens into a contiguous batch,
//! runs one [`ExpertFfn::forward_batch_into`](hybrimoe_kernels::ExpertFfn)
//! over the whole batch (each projection input is quantized to 8-bit codes
//! once and each Q4 block unpacked once per batch, not once per token), and
//! scatters the weighted results back. Where a batch runs is a per-expert
//! decision inside that one loop: the executor owns an (often empty) fleet
//! of out-of-process workers ([`crate::remote`]), offers every batch to it
//! first, and computes locally whatever the fleet does not return — with
//! no endpoints configured that is everything, and no socket is opened.
//! All scratch is owned by the executor ([`ExecScratch`] plus per-layer
//! buffers) and the kernels run on a persistent [`WorkerPool`] that parks
//! between calls — steady-state execution allocates nothing and spawns no
//! threads. The `Q4_0 × Q8_0` integer-dot kernels dispatch to the backend
//! selected by [`RealExecOptions::kernel_backend`] (runtime AVX-512 VNNI /
//! AVX2 detection by default); every backend runs the one arithmetic
//! [`hybrimoe_kernels::backend`] defines and produces the same bits.
//! Experts accumulate into the output in ascending id order, so results
//! are bit-identical across placements, across backends, across any mix
//! of remote and local experts, and to the retained token-major reference
//! path ([`RealExecOptions::token_major`]), which re-runs each expert once
//! per routed token on the single-threaded scalar kernels and never
//! dispatches.
//!
//! Only routed experts participate; the model must be small enough for the
//! [`WeightStore`] memory budget (use [`ModelConfig::tiny_test`]-sized
//! configurations).

use std::time::{Duration, Instant};

use hybrimoe_hw::{CalibrationProfile, SimDuration};
use hybrimoe_kernels::threadpool::default_threads;
use hybrimoe_kernels::{ExecScratch, KernelBackend, KernelBackendKind, WorkerPool};
use hybrimoe_model::{
    ExpertId, ExpertKey, LayerId, ModelConfig, RouterOutput, WeightStore, WeightStoreError,
};
use hybrimoe_sched::{PlanReplay, ScheduleContext, SchedulePlan};
use hybrimoe_trace::TokenStates;
use serde::{Deserialize, Serialize};

use crate::remote::{RemoteWorkerOptions, WorkerFleet, WorkerHealthSnapshot};
use crate::EngineConfig;

/// Resource limits and execution strategy of a [`RealLayerExecutor`].
///
/// # Example
///
/// ```
/// use hybrimoe::realexec::RealExecOptions;
/// use hybrimoe_kernels::KernelBackendKind;
///
/// let opts = RealExecOptions::default();
/// assert_eq!(opts.weight_budget_bytes, 512 * 1024 * 1024);
/// assert_eq!(opts.max_threads, 10);
/// assert!(!opts.token_major); // expert-major batching by default
/// assert_eq!(opts.kernel_backend, KernelBackendKind::Auto);
/// let single = RealExecOptions { max_threads: 1, ..Default::default() };
/// assert_eq!(single.max_threads, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RealExecOptions {
    /// Memory budget of the synthetic [`WeightStore`], in bytes.
    pub weight_budget_bytes: u64,
    /// Cap on worker threads; the executor's persistent [`WorkerPool`] uses
    /// the machine's available parallelism up to this many (the paper
    /// restricts its Xeon to 10 cores, §VI-A1).
    pub max_threads: usize,
    /// Run the retained token-major reference path instead of the
    /// expert-major batched hot path: one single-threaded
    /// [`ExpertFfn::forward`](hybrimoe_kernels::ExpertFfn::forward) per
    /// (expert, token) pair, like the pre-batching executor. The reference
    /// path always runs the scalar kernels, never dispatches to workers,
    /// and exists as the correctness oracle the batched path is checked
    /// against; outputs are bit-identical either way, whatever
    /// [`RealExecOptions::kernel_backend`] is.
    pub token_major: bool,
    /// Which backend the expert-major hot path dispatches its
    /// `Q4_0 × Q8_0` kernels to. Resolved once when the executor is
    /// built: `Auto` (the default) honors the `HYBRIMOE_KERNEL_BACKEND`
    /// env var and otherwise runtime-detects AVX-512 VNNI, then AVX2,
    /// falling back to the scalar reference (see
    /// [`hybrimoe_kernels::backend`]).
    pub kernel_backend: KernelBackendKind,
}

impl Default for RealExecOptions {
    fn default() -> Self {
        RealExecOptions {
            weight_budget_bytes: 512 * 1024 * 1024,
            max_threads: 10,
            token_major: false,
            kernel_backend: KernelBackendKind::Auto,
        }
    }
}

/// The result of really executing one MoE layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RealLayerOutput {
    /// The layer output, `tokens x hidden` row-major.
    pub output: Vec<f32>,
    /// Wall-clock time spent on the CPU-assigned experts.
    pub cpu_wall: Duration,
    /// Wall-clock time spent on the GPU-assigned experts, all shards
    /// together (also executed on the CPU here — no GPU in this
    /// environment — so the engine's clock models them instead).
    pub gpu_wall: Duration,
    /// Number of experts the plan assigned to the CPU.
    pub cpu_tasks: usize,
    /// Number of experts the plan assigned to the GPUs.
    pub gpu_tasks: usize,
}

/// Why real execution failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RealExecError {
    /// The plan does not cover the activated experts exactly once.
    InvalidPlan(String),
    /// Weight materialization failed (unknown expert or memory budget).
    Weights(WeightStoreError),
    /// A token's input has the wrong dimension.
    BadInput {
        /// Expected hidden size.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl std::fmt::Display for RealExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealExecError::InvalidPlan(why) => write!(f, "invalid plan: {why}"),
            RealExecError::Weights(e) => write!(f, "weight store: {e}"),
            RealExecError::BadInput { expected, actual } => {
                write!(f, "input dimension {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for RealExecError {}

impl From<WeightStoreError> for RealExecError {
    fn from(e: WeightStoreError) -> Self {
        RealExecError::Weights(e)
    }
}

/// Reusable per-layer buffers: cleared — not freed — between layers, so
/// steady-state execution allocates only the returned output vector.
#[derive(Debug, Default)]
struct LayerScratch {
    /// Per-expert routed token lists, `(token index, router weight)`,
    /// indexed by expert id. Built in one pass over the routes (replacing
    /// the per-(expert, token) linear scan of `routing.selected`).
    tokens_of: Vec<Vec<(u32, f32)>>,
    /// Gathered inputs of one expert's token batch, `batch x hidden`.
    gather: Vec<f32>,
    /// The expert's batched outputs, same shape.
    result: Vec<f32>,
    /// Activated expert ids, sorted ascending, deduplicated.
    activated: Vec<u16>,
    /// CPU partition of the plan, sorted ascending (binary-searched for
    /// membership instead of a per-layer `HashSet`).
    cpu: Vec<u16>,
    /// Every planned expert, sorted ascending — the fixed accumulation
    /// order (float addition is not associative, so summing in plan order
    /// would make the output depend on the placement).
    planned: Vec<u16>,
    /// Each planned expert's elapsed wall-clock in the last layer, indexed
    /// by expert id (entries of unplanned experts are stale).
    elapsed: Vec<SimDuration>,
}

impl LayerScratch {
    /// The layer's result: its output and the recorded times summed per
    /// device partition.
    fn finish(&self, output: Vec<f32>) -> RealLayerOutput {
        let (mut cpu_wall, mut gpu_wall) = (Duration::ZERO, Duration::ZERO);
        for &expert in &self.planned {
            let wall = Duration::from_nanos(self.elapsed[expert as usize].as_nanos());
            if self.cpu.binary_search(&expert).is_ok() {
                cpu_wall += wall;
            } else {
                gpu_wall += wall;
            }
        }
        RealLayerOutput {
            output,
            cpu_wall,
            gpu_wall,
            cpu_tasks: self.cpu.len(),
            gpu_tasks: self.planned.len() - self.cpu.len(),
        }
    }
}

/// Executes MoE layers for real on the CPU, using deterministic synthetic
/// weights; with worker endpoints configured, expert batches go to the
/// workers first and fall back to the local kernels per expert.
///
/// # Example
///
/// ```
/// use hybrimoe::realexec::{RealExecOptions, RealLayerExecutor};
/// use hybrimoe_model::ModelConfig;
///
/// let exec =
///     RealLayerExecutor::with_options(ModelConfig::tiny_test(), 42, RealExecOptions::default());
/// assert_eq!(exec.model().name, "tiny-test");
/// assert_eq!(exec.health().configured, 0); // no fleet: everything runs locally
/// ```
#[derive(Debug)]
pub struct RealLayerExecutor {
    /// The full model's weights — also what a failed-over expert runs on
    /// (same seed as the workers, so it computes the identical result).
    store: WeightStore,
    /// Persistent kernel workers, spawned once and parked between layers.
    pool: WorkerPool,
    options: RealExecOptions,
    /// The SIMD backend resolved once from
    /// [`RealExecOptions::kernel_backend`] at construction.
    backend: &'static dyn KernelBackend,
    /// Out-of-process workers; empty unless endpoints were configured.
    fleet: WorkerFleet,
    scratch: LayerScratch,
    ffn_scratch: ExecScratch,
}

impl RealLayerExecutor {
    /// Creates an executor with explicit resource limits and no worker
    /// fleet. Spawns the persistent kernel pool.
    pub fn with_options(model: ModelConfig, seed: u64, options: RealExecOptions) -> Self {
        RealLayerExecutor::new(model, seed, options, &RemoteWorkerOptions::default())
    }

    /// Creates an executor whose expert batches go to the workers at
    /// `remote.endpoints` (connections open lazily; none if empty). The
    /// workers are pinned to this executor's resolved kernel backend, so
    /// remote and local results are bit-identical.
    pub fn new(
        model: ModelConfig,
        seed: u64,
        options: RealExecOptions,
        remote: &RemoteWorkerOptions,
    ) -> Self {
        let backend = options.kernel_backend.resolve();
        RealLayerExecutor {
            fleet: WorkerFleet::new(
                &model,
                seed,
                options.weight_budget_bytes,
                backend.kind(),
                remote,
            ),
            store: WeightStore::new(model, seed, options.weight_budget_bytes),
            pool: WorkerPool::new(default_threads(options.max_threads.max(1))),
            backend,
            options,
            scratch: LayerScratch::default(),
            ffn_scratch: ExecScratch::new(),
        }
    }

    /// The model being executed.
    pub fn model(&self) -> &ModelConfig {
        self.store.config()
    }

    /// The worker-thread count the kernels run with.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The concrete kernel backend the expert-major hot path dispatches to
    /// (`Auto` already expanded by detection; never `Auto` itself).
    pub fn backend_kind(&self) -> KernelBackendKind {
        self.backend.kind()
    }

    /// Current worker fleet health (`configured == 0` for an executor
    /// without endpoints).
    pub fn health(&self) -> WorkerHealthSnapshot {
        self.fleet.health()
    }

    /// Drains every connected worker (best-effort; used at shutdown).
    pub fn drain(&mut self) {
        self.fleet.drain();
    }

    /// Each planned expert's elapsed wall-clock in the last executed layer,
    /// indexed by expert id: its local kernels, or the wait for its reply
    /// when a worker returned it. A worker receives its layer's batches in
    /// one write and answers in as few, so the first expert read from a
    /// worker carries most of the wait and the later ones almost none.
    /// What [`PlanReplay::run_measured`] substitutes for the modeled CPU
    /// ops.
    pub fn expert_times(&self) -> &[SimDuration] {
        &self.scratch.elapsed
    }

    /// Executes one layer for real.
    ///
    /// `inputs` holds each token's hidden state (`hidden` floats) and
    /// `routes` the matching routing decisions (same order); `plan` is the
    /// schedule whose placement is timed ([`Self::expert_times`]). The
    /// output combines each token's selected experts with its renormalized
    /// router weights (Eq. 1 of the paper). Experts accumulate into the output in ascending id order
    /// regardless of the plan's device orders, so the result is
    /// **bit-identical across placements** — the property the scheduler
    /// correctness suite pins — across remote/local execution mixes, and
    /// between the expert-major and token-major strategies (see
    /// [`RealExecOptions::token_major`]).
    ///
    /// # Errors
    ///
    /// Returns [`RealExecError::InvalidPlan`] if the plan does not compute
    /// every activated expert exactly once, [`RealExecError::BadInput`] on
    /// dimension or token-count mismatches, and [`RealExecError::Weights`]
    /// if a locally computed expert cannot be materialized within the
    /// memory budget. Worker failures are *not* errors — they fail over.
    pub fn execute_layer(
        &mut self,
        layer: LayerId,
        plan: &SchedulePlan,
        inputs: &[Vec<f32>],
        routes: &[RouterOutput],
    ) -> Result<RealLayerOutput, RealExecError> {
        self.validate(plan, inputs, routes)?;
        if self.options.token_major {
            return self.run_token_major(layer, inputs, routes);
        }
        let RealLayerExecutor {
            store,
            pool,
            backend,
            fleet,
            scratch,
            ffn_scratch,
            ..
        } = self;
        let LayerScratch {
            tokens_of,
            gather,
            result,
            planned,
            elapsed,
            ..
        } = scratch;
        let hidden = store.config().routed_shape.hidden() as usize;
        let experts = store.config().routed_experts as usize;

        // Build every expert's token list in one pass over the routes.
        if tokens_of.len() < experts {
            tokens_of.resize_with(experts, Vec::new);
        }
        for list in tokens_of.iter_mut() {
            list.clear();
        }
        for (t, routing) in routes.iter().enumerate() {
            for (e, w) in &routing.selected {
                tokens_of[e.0 as usize].push((t as u32, *w));
            }
        }

        // Dispatch phase: every batch a worker will take is queued, and the
        // flush puts each worker's queue on the wire in one write, before
        // any reply is read (nothing is, with no workers). Replies
        // arrive strictly FIFO per connection and the loop below walks the
        // same ascending expert order, so correlation is positional.
        fleet.begin_layer(planned.len());
        for (i, &expert) in planned.iter().enumerate() {
            let list = &tokens_of[expert as usize];
            fleet.send(i, layer, expert, list.len(), hidden, || {
                gather_batch(gather, list, inputs, hidden)
            });
        }
        fleet.flush();

        // Collect-or-compute phase, in ascending expert order — the fixed
        // accumulation order that makes outputs placement- and
        // transport-independent. Timing rule: an expert's clock covers the
        // wait for its reply if a worker returns it, and the local kernels
        // (gather, forward, scatter) otherwise — started only after its
        // weights are resolved, so neither first-use weight generation nor
        // the wait on a reply that never came is booked as kernel time.
        let mut output = vec![0.0f32; inputs.len() * hidden];
        for (i, &expert) in planned.iter().enumerate() {
            let list = &tokens_of[expert as usize];
            let batch = list.len();
            let mut start = Instant::now();
            let collected = fleet.collect(i, batch, hidden, |reply| {
                scatter(reply, list, hidden, &mut output)
            });
            if !collected {
                // Identical weights, identical kernel backend, identical
                // accumulation order: bit-identical to what a worker
                // returns.
                let ffn = store.expert(ExpertKey::new(layer, ExpertId(expert)))?;
                start = Instant::now();
                let x = gather_batch(gather, list, inputs, hidden);
                result.resize(batch * hidden, 0.0);
                ffn.forward_batch_into(x, batch, result, ffn_scratch, pool, *backend);
                scatter(result, list, hidden, &mut output);
            }
            elapsed[expert as usize] = sim_duration(start.elapsed());
        }
        Ok(scratch.finish(output))
    }

    /// Checks the inputs and distills the plan into the sorted scratch
    /// partitions both execution strategies consume.
    fn validate(
        &mut self,
        plan: &SchedulePlan,
        inputs: &[Vec<f32>],
        routes: &[RouterOutput],
    ) -> Result<(), RealExecError> {
        let hidden = self.model().routed_shape.hidden() as usize;
        if inputs.len() != routes.len() {
            return Err(RealExecError::BadInput {
                expected: inputs.len(),
                actual: routes.len(),
            });
        }
        for x in inputs {
            if x.len() != hidden {
                return Err(RealExecError::BadInput {
                    expected: hidden,
                    actual: x.len(),
                });
            }
        }

        let scratch = &mut self.scratch;
        // The activated set must match the plan's compute partition. All
        // sets are sorted slices; membership is binary search, not hashing.
        scratch.activated.clear();
        scratch
            .activated
            .extend(routes.iter().flat_map(|r| r.expert_ids().map(|e| e.0)));
        scratch.activated.sort_unstable();
        scratch.activated.dedup();

        scratch.cpu.clear();
        scratch.cpu.extend(plan.cpu_experts().map(|e| e.0));
        scratch.cpu.sort_unstable();
        scratch.planned.clear();
        scratch.planned.extend_from_slice(&scratch.cpu);
        scratch.planned.extend(plan.gpu_experts().map(|e| e.0));
        scratch.planned.sort_unstable();
        // Not deduplicated: an expert listed twice, on one device or both,
        // would be charged twice by the clock but computed once.
        if let Some(twice) = scratch.planned.windows(2).find(|w| w[0] == w[1]) {
            return Err(RealExecError::InvalidPlan(format!(
                "expert {} is planned twice",
                ExpertId(twice[0])
            )));
        }
        if scratch.planned != scratch.activated {
            return Err(RealExecError::InvalidPlan(format!(
                "plan covers {:?}, activated {:?}",
                scratch.planned, scratch.activated
            )));
        }
        scratch.elapsed.resize(
            self.store.config().routed_experts as usize,
            SimDuration::ZERO,
        );
        Ok(())
    }

    /// The retained token-major reference path: one single-token scalar
    /// forward per (expert, token) pair, like the pre-batching executor.
    /// Never dispatches to the fleet — it is the oracle.
    fn run_token_major(
        &mut self,
        layer: LayerId,
        inputs: &[Vec<f32>],
        routes: &[RouterOutput],
    ) -> Result<RealLayerOutput, RealExecError> {
        let RealLayerExecutor { store, scratch, .. } = self;
        let hidden = store.config().routed_shape.hidden() as usize;

        let mut output = vec![0.0f32; inputs.len() * hidden];
        for &expert in &scratch.planned {
            let ffn = store.expert(ExpertKey::new(layer, ExpertId(expert)))?;
            let start = Instant::now();
            for (t, (x, routing)) in inputs.iter().zip(routes.iter()).enumerate() {
                let Some((_, weight)) = routing.selected.iter().find(|(e, _)| e.0 == expert) else {
                    continue;
                };
                let y = ffn.forward(x);
                for (o, v) in output[t * hidden..(t + 1) * hidden]
                    .iter_mut()
                    .zip(y.iter())
                {
                    *o += weight * v;
                }
            }
            scratch.elapsed[expert as usize] = sim_duration(start.elapsed());
        }
        Ok(scratch.finish(output))
    }
}

/// A measured wall-clock on the modeled clock's nanosecond scale.
fn sim_duration(wall: Duration) -> SimDuration {
    SimDuration::from_nanos(wall.as_nanos() as u64)
}

/// Gathers `list`'s tokens into a contiguous `batch x hidden` buffer and
/// returns it as a slice.
fn gather_batch<'a>(
    gather: &'a mut Vec<f32>,
    list: &[(u32, f32)],
    inputs: &[Vec<f32>],
    hidden: usize,
) -> &'a [f32] {
    gather.resize(list.len() * hidden, 0.0);
    for (i, (t, _)) in list.iter().enumerate() {
        gather[i * hidden..(i + 1) * hidden].copy_from_slice(&inputs[*t as usize]);
    }
    gather
}

/// Scatters one expert's batched outputs back with the router weights.
/// Token order within `list` is ascending, so every output cell sees the
/// same addition order as the token-major reference, no matter where the
/// batch was computed.
fn scatter(result: &[f32], list: &[(u32, f32)], hidden: usize, output: &mut [f32]) {
    for (i, (t, w)) in list.iter().enumerate() {
        let dst = &mut output[*t as usize * hidden..(*t as usize + 1) * hidden];
        let src = &result[i * hidden..(i + 1) * hidden];
        for (o, v) in dst.iter_mut().zip(src.iter()) {
            *o += w * v;
        }
    }
}

/// Aggregate CPU-side measurements of an engine's real execution.
///
/// `flops` counts the CPU-assigned experts' work (load × per-token FLOPs).
/// `bytes` counts each CPU task's weight bytes **once per task**, matching
/// the convention of the cost model that consumes the distilled profile:
/// [`AffineCostModel`](hybrimoe_hw::AffineCostModel)'s memory floor charges
/// `expert.bytes() / bw` once per task, so the effective bandwidth must be
/// distilled against the same denominator (the real kernel streams the
/// weights once per token forward, but folding that into the rate would
/// inflate the simulated bandwidth for batched loads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuMeasurement {
    /// Wall-clock spent in CPU-assigned expert kernels.
    pub wall: Duration,
    /// FLOPs those kernels performed.
    pub flops: u64,
    /// Weight bytes charged once per task (the cost model's stream-once
    /// convention — see the struct docs).
    pub bytes: u64,
    /// CPU expert tasks executed.
    pub tasks: u32,
}

impl CpuMeasurement {
    /// Distills the measurement into a [`CalibrationProfile`] of effective
    /// achieved rates, or `None` if no CPU work has been measured yet
    /// (see [`CalibrationProfile::from_effective_rates`]).
    pub fn profile(&self) -> Option<CalibrationProfile> {
        CalibrationProfile::from_effective_rates(
            self.flops,
            self.bytes,
            self.wall.as_secs_f64(),
            self.tasks,
        )
    }
}

/// The engine's real-execution part, present when its configuration
/// [`needs_token_states`](crate::BackendKind::needs_token_states): the
/// executor, the outputs of the step in progress and the CPU measurement
/// accumulated so far.
#[derive(Debug)]
pub(crate) struct RealExecution {
    exec: RealLayerExecutor,
    outputs: Vec<RealLayerOutput>,
    measured: CpuMeasurement,
}

impl RealExecution {
    /// Builds the executor for the configuration's model, seed, resource
    /// limits and worker fleet (connections open lazily).
    pub(crate) fn new(config: &EngineConfig) -> RealExecution {
        RealExecution {
            exec: RealLayerExecutor::new(
                config.model.clone(),
                config.seed,
                config.real_exec,
                &config.remote_workers,
            ),
            outputs: Vec::new(),
            measured: CpuMeasurement::default(),
        }
    }

    /// Starts a step: the previous step's outputs are dropped, and the
    /// list has room for one output per layer.
    pub(crate) fn begin_step(&mut self) {
        self.outputs.clear();
        self.outputs.reserve(self.exec.model().layers as usize);
    }

    /// Computes one layer's outputs, then replays its plan with the
    /// measured time of every CPU-planned expert; returns the replayed
    /// makespan (the busy times are `replay`'s).
    ///
    /// # Panics
    ///
    /// Panics if the trace carries no token states, or the executor
    /// rejects the plan or the inputs.
    pub(crate) fn execute_layer(
        &mut self,
        replay: &mut PlanReplay,
        plan: &SchedulePlan,
        ctx: &ScheduleContext<'_>,
        states: Option<&TokenStates>,
    ) -> SimDuration {
        let states = states.unwrap_or_else(|| {
            panic!(
                "real execution needs per-token states at {}: generate the trace with \
                 TraceGenerator::with_token_states",
                ctx.layer
            )
        });
        let out = self
            .exec
            .execute_layer(ctx.layer, plan, &states.inputs, &states.routes)
            .unwrap_or_else(|e| panic!("real execution failed at {}: {e}", ctx.layer));

        // Bytes are charged once per task: the cost model's stream-once
        // convention (see [`CpuMeasurement`]).
        let profile = ctx.routed_profile;
        let tasks = plan.cpu_order.len() as u64;
        self.measured.flops +=
            plan.cpu_order.iter().map(|t| t.load as u64).sum::<u64>() * profile.flops_per_token();
        self.measured.bytes += tasks * profile.bytes();
        self.measured.tasks += tasks as u32;
        self.measured.wall += out.cpu_wall;
        self.outputs.push(out);
        replay.run_measured(plan, ctx, self.exec.expert_times())
    }

    /// Drains the outputs of the most recent step, in layer order.
    pub(crate) fn take_outputs(&mut self) -> Vec<RealLayerOutput> {
        std::mem::take(&mut self.outputs)
    }

    /// The accumulated CPU measurement.
    pub(crate) fn measurement(&self) -> CpuMeasurement {
        self.measured
    }

    /// Worker fleet health, if endpoints were configured.
    pub(crate) fn worker_health(&self) -> Option<WorkerHealthSnapshot> {
        let health = self.exec.health();
        (health.configured > 0).then_some(health)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hybrimoe_hw::{AffineCostModel, CostModel, Device, GpuId, UnitCostModel};
    use hybrimoe_model::LayerRouting;
    use hybrimoe_sched::baselines::FixedMappingScheduler;
    use hybrimoe_sched::{DevicePlacement, ExpertTask, HybridScheduler, PlannedTask, Scheduler};

    pub(crate) fn token_inputs(
        model: &ModelConfig,
        n: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<RouterOutput>) {
        let hidden = model.routed_shape.hidden() as usize;
        let experts = model.routed_experts as usize;
        let k = model.activated_experts as usize;
        (0..n)
            .map(|t| {
                let x: Vec<f32> = (0..hidden)
                    .map(|i| {
                        (((t as u64 * 131 + i as u64 * 7 + seed) % 100) as f32 / 50.0 - 1.0) * 0.1
                    })
                    .collect();
                let logits: Vec<f32> = (0..experts)
                    .map(|e| (((t + e * 13 + seed as usize) % 17) as f32) / 4.0)
                    .collect();
                (x, RouterOutput::route(&logits, k))
            })
            .unzip()
    }

    pub(crate) fn tasks_and_plan(
        model: &ModelConfig,
        routes: &[RouterOutput],
        cached_mod: u16,
        hybrid: bool,
    ) -> SchedulePlan {
        let experts = model.routed_experts;
        let routing = LayerRouting::from_tokens(LayerId(0), experts, routes);
        let tasks: Vec<ExpertTask> = routing
            .activated()
            .into_iter()
            .map(|(e, load)| ExpertTask {
                expert: e,
                load,
                cached: e.0 % cached_mod == 0,
            })
            .collect();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        if hybrid {
            HybridScheduler::new().schedule(&ctx)
        } else {
            FixedMappingScheduler::new().schedule(&ctx)
        }
    }

    #[test]
    fn output_is_independent_of_placement() {
        // The core correctness property: two different valid schedules of
        // the same layer produce bit-identical outputs.
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 3, 9);
        let plan_a = tasks_and_plan(&model, &routes, 2, true);
        let plan_b = tasks_and_plan(&model, &routes, 2, false);
        let mut exec = RealLayerExecutor::with_options(model, 7, RealExecOptions::default());
        let a = exec
            .execute_layer(LayerId(0), &plan_a, &inputs, &routes)
            .unwrap();
        let b = exec
            .execute_layer(LayerId(0), &plan_b, &inputs, &routes)
            .unwrap();
        assert_eq!(a.output, b.output);
        assert!(a.output.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn expert_major_matches_token_major_reference() {
        // The batched hot path (on the scalar backend) and the retained
        // reference path are the same function of the inputs, bit for bit.
        let model = ModelConfig::tiny_test();
        for (tokens, seed) in [(1usize, 3u64), (3, 9), (8, 17)] {
            let (inputs, routes) = token_inputs(&model, tokens, seed);
            let plan = tasks_and_plan(&model, &routes, 2, true);
            let batched = RealLayerExecutor::with_options(
                model.clone(),
                7,
                RealExecOptions {
                    max_threads: 2,
                    kernel_backend: KernelBackendKind::Scalar,
                    ..Default::default()
                },
            )
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
            let reference = RealLayerExecutor::with_options(
                model.clone(),
                7,
                RealExecOptions {
                    max_threads: 2,
                    token_major: true,
                    ..Default::default()
                },
            )
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
            assert_eq!(batched.output, reference.output, "tokens={tokens}");
            assert_eq!(batched.cpu_tasks, reference.cpu_tasks);
            assert_eq!(batched.gpu_tasks, reference.gpu_tasks);
        }
    }

    #[test]
    fn every_kernel_backend_matches_the_scalar_oracle_closely() {
        // "Closely" is exactly: every backend runs the one integer-dot
        // arithmetic, so whole-layer outputs agree bit for bit.
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 5, 23);
        let plan = tasks_and_plan(&model, &routes, 2, true);
        let run = |kind: KernelBackendKind| {
            RealLayerExecutor::with_options(
                model.clone(),
                7,
                RealExecOptions {
                    max_threads: 2,
                    kernel_backend: kind,
                    ..Default::default()
                },
            )
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap()
            .output
        };
        let reference = run(KernelBackendKind::Scalar);
        for backend in hybrimoe_kernels::backend::available() {
            assert_eq!(run(backend.kind()), reference, "{:?}", backend.kind());
        }
    }

    #[test]
    fn executor_reports_a_concrete_backend() {
        let exec = RealLayerExecutor::with_options(
            ModelConfig::tiny_test(),
            7,
            RealExecOptions::default(),
        );
        assert_ne!(exec.backend_kind(), KernelBackendKind::Auto);
        // No endpoints: no fleet to report on.
        let health = exec.health();
        assert_eq!((health.configured, health.requests), (0, 0));
        let scalar = RealLayerExecutor::with_options(
            ModelConfig::tiny_test(),
            7,
            RealExecOptions {
                kernel_backend: KernelBackendKind::Scalar,
                ..Default::default()
            },
        );
        assert_eq!(scalar.backend_kind(), KernelBackendKind::Scalar);
    }

    #[test]
    fn wall_times_and_counts_reported() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 3);
        let plan = tasks_and_plan(&model, &routes, 2, true);
        let mut exec = RealLayerExecutor::with_options(model, 7, RealExecOptions::default());
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(
            out.cpu_tasks + out.gpu_tasks,
            plan.cpu_order.len() + plan.gpu_order.len()
        );
        assert!(out.cpu_wall + out.gpu_wall > Duration::ZERO);
        // The walls are the planned experts' recorded times, per device.
        let times = exec.expert_times();
        let cpu: SimDuration = plan.cpu_experts().map(|e| times[e.0 as usize]).sum();
        let gpu: SimDuration = plan.gpu_experts().map(|e| times[e.0 as usize]).sum();
        assert_eq!(cpu, sim_duration(out.cpu_wall));
        assert_eq!(gpu, sim_duration(out.gpu_wall));
    }

    #[test]
    fn incomplete_plan_rejected() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 5);
        let plan = tasks_and_plan(&model, &routes, 2, true);
        let mut missing = plan.clone();
        if !missing.cpu_order.is_empty() {
            missing.cpu_order.pop();
        } else {
            missing.gpu_order.pop();
        }
        // Every expert is covered, but one is listed twice: the clock
        // would charge it twice while it is computed once.
        let mut twice = plan.clone();
        match twice.cpu_order.first() {
            Some(&t) => twice.cpu_order.push(t),
            None => twice.gpu_order.push(twice.gpu_order[0]),
        }
        let mut exec = RealLayerExecutor::with_options(model, 7, RealExecOptions::default());
        for bad in [missing, twice] {
            let err = exec
                .execute_layer(LayerId(0), &bad, &inputs, &routes)
                .unwrap_err();
            assert!(matches!(err, RealExecError::InvalidPlan(_)), "{err}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn bad_input_dimension_rejected() {
        let model = ModelConfig::tiny_test();
        let (mut inputs, routes) = token_inputs(&model, 1, 5);
        inputs[0].pop();
        let plan = tasks_and_plan(&model, &routes, 2, true);
        let mut exec = RealLayerExecutor::with_options(model, 7, RealExecOptions::default());
        let err = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap_err();
        assert!(matches!(err, RealExecError::BadInput { .. }));
    }

    #[test]
    fn mismatched_input_and_route_counts_rejected() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 5);
        let plan = tasks_and_plan(&model, &routes, 2, true);
        let mut exec = RealLayerExecutor::with_options(model, 7, RealExecOptions::default());
        let err = exec
            .execute_layer(LayerId(0), &plan, &inputs[..1], &routes)
            .unwrap_err();
        assert!(matches!(err, RealExecError::BadInput { .. }));
    }

    #[test]
    fn deterministic_outputs_across_executors() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 11);
        let plan = tasks_and_plan(&model, &routes, 2, true);
        let a = RealLayerExecutor::with_options(model.clone(), 7, RealExecOptions::default())
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        let b = RealLayerExecutor::with_options(model, 7, RealExecOptions::default())
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn scratch_survives_shrinking_batches() {
        // Re-running the same executor with a smaller batch must not leak
        // stale token lists or gather contents from the bigger layer.
        let model = ModelConfig::tiny_test();
        let mut exec =
            RealLayerExecutor::with_options(model.clone(), 7, RealExecOptions::default());
        for tokens in [6usize, 2, 4, 1] {
            let (inputs, routes) = token_inputs(&model, tokens, 13);
            let plan = tasks_and_plan(&model, &routes, 2, true);
            let got = exec
                .execute_layer(LayerId(0), &plan, &inputs, &routes)
                .unwrap();
            let fresh =
                RealLayerExecutor::with_options(model.clone(), 7, RealExecOptions::default())
                    .execute_layer(LayerId(0), &plan, &inputs, &routes)
                    .unwrap();
            assert_eq!(got.output, fresh.output, "tokens={tokens}");
        }
    }

    /// An engine configuration executing the tiny model for real.
    fn real_config() -> EngineConfig {
        EngineConfig::preset(crate::Framework::HybriMoe, ModelConfig::tiny_test(), 0.5)
            .with_backend(crate::BackendKind::RealCpu)
            .with_real_exec(RealExecOptions {
                max_threads: 1,
                ..Default::default()
            })
    }

    #[test]
    fn a_real_layer_runs_on_the_plan_clock() {
        // The first activated expert is transferred, the second cached,
        // the rest run on the CPU; the model has a shared expert.
        let config = real_config();
        let model = config.model.clone();
        let (inputs, routes) = token_inputs(&model, 3, 9);
        let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, &routes);
        let activated = routing.activated();
        assert!(activated.len() >= 3, "{activated:?}");
        let mut plan = SchedulePlan::empty(LayerId(0), 3);
        let mut tasks = Vec::new();
        for (i, (expert, load)) in activated.into_iter().enumerate() {
            let task = ExpertTask {
                expert,
                load,
                cached: i == 1,
            };
            tasks.push(task);
            match i {
                0 => {
                    plan.pcie_order.push(task);
                    plan.gpu_order.push(PlannedTask {
                        task,
                        placement: DevicePlacement::GpuAfterTransfer(GpuId(0)),
                    });
                }
                1 => plan.gpu_order.push(PlannedTask {
                    task,
                    placement: DevicePlacement::Gpu(GpuId(0)),
                }),
                _ => plan.cpu_order.push(task),
            }
        }
        assert_eq!(plan.validate(&tasks), Ok(()));
        let cost = AffineCostModel::from_platform(&config.platform);
        let (routed, shared) = (model.routed_profile(), model.shared_profile());
        let ctx = ScheduleContext::new(LayerId(0), 3, &tasks, routed, shared, &cost);

        let mut real = RealExecution::new(&config);
        real.begin_step();
        let mut replay = PlanReplay::default();
        let states = TokenStates { inputs, routes };
        let makespan = real.execute_layer(&mut replay, &plan, &ctx, Some(&states));
        let busy = replay.busy_times().to_vec();
        let out = real.take_outputs().pop().expect("one layer executed");

        let mut modeled = PlanReplay::default();
        modeled.run(&plan, &ctx);
        let (cpu, gpu, pcie) = (
            Device::Cpu.ordinal(1),
            Device::gpu(0).ordinal(1),
            Device::pcie(0).ordinal(1),
        );
        assert_eq!(busy[gpu], modeled.busy_times()[gpu]);
        assert_eq!(busy[pcie], modeled.busy_times()[pcie]);
        assert_eq!(busy[cpu], sim_duration(out.cpu_wall));
        // The shared expert is charged on GPU 0 next to the routed ones.
        let shared_time = cost.gpu_compute(&shared.expect("tiny model has one"), 3);
        let routed_time: SimDuration = plan
            .gpu_order
            .iter()
            .map(|g| cost.gpu_compute(&routed, g.task.load))
            .sum();
        assert_eq!(busy[gpu], shared_time + routed_time);
        // The transferred expert computes after its transfer lands.
        let moved = plan.gpu_order[0].task;
        assert!(makespan >= cost.transfer(&routed) + cost.gpu_compute(&routed, moved.load));
        assert!(makespan >= busy[cpu]);
    }

    #[test]
    fn real_execution_executes_and_measures() {
        let config = real_config();
        let trace = hybrimoe_trace::TraceGenerator::new(config.model.clone(), 7)
            .with_token_states()
            .decode_trace(4);
        let mut engine = crate::Engine::new(config);
        let metrics = engine.run(&trace);
        assert!(metrics.total > SimDuration::ZERO);
        let outputs = engine.take_real_outputs();
        assert_eq!(outputs.len(), trace.steps[0].layers.len());
        assert!(outputs[0].output.iter().any(|v| *v != 0.0));
        assert!(engine.take_real_outputs().is_empty());
        assert_eq!(engine.worker_health(), None, "no endpoints, no fleet");
        if metrics.steps.iter().any(|s| s.cpu_experts > 0) {
            let cal = engine.backend_calibration().expect("cpu work measured");
            assert!(cal.is_plausible());
        }
    }

    #[test]
    #[should_panic(expected = "needs per-token states")]
    fn real_execution_rejects_stateless_traces() {
        let config = real_config();
        let trace = hybrimoe_trace::TraceGenerator::new(config.model.clone(), 7).decode_trace(1);
        crate::Engine::new(config).step(&trace.steps[0]);
    }

    #[test]
    fn empty_measurement_has_no_profile() {
        assert_eq!(CpuMeasurement::default().profile(), None);
    }

    #[test]
    fn options_bound_budget_and_threads() {
        let model = ModelConfig::tiny_test();
        let per = model.routed_shape.packed_bytes();
        let opts = RealExecOptions {
            weight_budget_bytes: per, // room for exactly one expert
            max_threads: 1,
            token_major: false,
            kernel_backend: KernelBackendKind::Auto,
        };
        let mut exec = RealLayerExecutor::with_options(model.clone(), 7, opts);
        assert_eq!(exec.threads(), 1);
        let (inputs, routes) = token_inputs(&model, 2, 3);
        let plan = tasks_and_plan(&model, &routes, 2, true);
        let err = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap_err();
        assert!(matches!(err, RealExecError::Weights(_)), "{err}");
    }
}
