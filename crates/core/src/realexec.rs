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

use hybrimoe_kernels::threadpool::default_threads;
use hybrimoe_kernels::{ExecScratch, KernelBackend, KernelBackendKind, WorkerPool};
use hybrimoe_model::{
    ExpertId, ExpertKey, LayerId, ModelConfig, RouterOutput, WeightStore, WeightStoreError,
};
use hybrimoe_sched::SchedulePlan;
use serde::{Deserialize, Serialize};

use crate::remote::{RemoteWorkerOptions, WorkerFleet, WorkerHealthSnapshot};

/// Resource limits and execution strategy of a [`RealLayerExecutor`] (and
/// of the [`RealCpuBackend`](crate::RealCpuBackend) built on it).
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
    /// Total wall-clock time spent on the GPU-assigned experts (also
    /// executed on the CPU here — no GPU in this environment — but timed
    /// separately so the partition's balance can be inspected). Equals the
    /// sum of [`RealLayerOutput::gpu_walls`].
    pub gpu_wall: Duration,
    /// Wall-clock time per GPU shard, indexed by
    /// [`GpuId`](hybrimoe_hw::GpuId); length covers the highest shard the
    /// plan targets. On a multi-GPU platform each shard would run its
    /// partition concurrently, so the layer's GPU-side makespan is the
    /// *maximum* entry while `gpu_wall` is the serial total.
    pub gpu_walls: Vec<Duration>,
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

/// Reusable per-layer buffers of the expert-major path: cleared — not
/// freed — between layers, so steady-state execution allocates only the
/// returned output vector.
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
    /// GPU partition of the plan, sorted ascending.
    gpu: Vec<u16>,
    /// Union of the partitions, sorted ascending — the fixed accumulation
    /// order (float addition is not associative, so summing in plan order
    /// would make the output depend on the placement).
    planned: Vec<u16>,
    /// `(expert, shard)` pairs sorted by expert, for per-shard timing.
    shard: Vec<(u16, u16)>,
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

    /// Executes one layer for real.
    ///
    /// `inputs` holds each token's hidden state (`hidden` floats) and
    /// `routes` the matching routing decisions (same order); `plan` is the
    /// schedule whose placement is timed. The output combines each token's
    /// selected experts with its renormalized router weights (Eq. 1 of the
    /// paper). Experts accumulate into the output in ascending id order
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
        let num_shards = self.num_shards();
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
            cpu,
            gpu,
            planned,
            shard,
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

        // Dispatch phase: every batch a worker will take is on the wire
        // before any reply is read (nothing is, with no workers). Replies
        // arrive strictly FIFO per connection and the loop below walks the
        // same ascending expert order, so correlation is positional.
        fleet.begin_layer(planned.len());
        for (i, &expert) in planned.iter().enumerate() {
            let list = &tokens_of[expert as usize];
            fleet.send(i, layer, expert, list.len(), hidden, || {
                gather_batch(gather, list, inputs, hidden)
            });
        }

        // Collect-or-compute phase, in ascending expert order — the fixed
        // accumulation order that makes outputs placement- and
        // transport-independent. Timing rule: an expert's clock covers the
        // wait for its reply if a worker returns it, and the local kernels
        // (gather, forward, scatter) otherwise — started only after its
        // weights are resolved, so neither first-use weight generation nor
        // the wait on a reply that never came is booked as kernel time.
        let mut output = vec![0.0f32; inputs.len() * hidden];
        let mut cpu_wall = Duration::ZERO;
        let mut gpu_wall = Duration::ZERO;
        let mut gpu_walls = vec![Duration::ZERO; num_shards];
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
            account(
                expert,
                start.elapsed(),
                cpu,
                shard,
                &mut cpu_wall,
                &mut gpu_wall,
                &mut gpu_walls,
            );
        }

        Ok(RealLayerOutput {
            output,
            cpu_wall,
            gpu_wall,
            gpu_walls,
            cpu_tasks: cpu.len(),
            gpu_tasks: gpu.len(),
        })
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
        scratch.cpu.dedup();
        scratch.gpu.clear();
        scratch.gpu.extend(plan.gpu_experts().map(|e| e.0));
        scratch.gpu.sort_unstable();
        scratch.gpu.dedup();
        if scratch
            .cpu
            .iter()
            .any(|e| scratch.gpu.binary_search(e).is_ok())
        {
            return Err(RealExecError::InvalidPlan(
                "an expert is assigned to both devices".to_owned(),
            ));
        }

        // Sorted union of two sorted, disjoint partitions.
        scratch.planned.clear();
        scratch.planned.extend_from_slice(&scratch.cpu);
        scratch.planned.extend_from_slice(&scratch.gpu);
        scratch.planned.sort_unstable();
        if scratch.planned != scratch.activated {
            return Err(RealExecError::InvalidPlan(format!(
                "plan covers {:?}, activated {:?}",
                scratch.planned, scratch.activated
            )));
        }

        // Which shard each GPU-assigned expert runs on (per-shard timing).
        scratch.shard.clear();
        scratch.shard.extend(
            plan.gpu_order
                .iter()
                .filter_map(|g| g.placement.gpu().map(|gpu| (g.task.expert.0, gpu.0 as u16))),
        );
        scratch.shard.sort_unstable();
        Ok(())
    }

    /// Number of GPU shards the validated plan targets.
    fn num_shards(&self) -> usize {
        self.scratch
            .shard
            .iter()
            .map(|(_, s)| *s as usize)
            .max()
            .map_or(1, |m| m + 1)
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
        let num_shards = self.num_shards();
        let RealLayerExecutor { store, scratch, .. } = self;
        let LayerScratch {
            cpu,
            gpu,
            planned,
            shard,
            ..
        } = scratch;
        let hidden = store.config().routed_shape.hidden() as usize;

        let mut output = vec![0.0f32; inputs.len() * hidden];
        let mut cpu_wall = Duration::ZERO;
        let mut gpu_wall = Duration::ZERO;
        let mut gpu_walls = vec![Duration::ZERO; num_shards];
        for &expert in planned.iter() {
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
            let elapsed = start.elapsed();
            account(
                expert,
                elapsed,
                cpu,
                shard,
                &mut cpu_wall,
                &mut gpu_wall,
                &mut gpu_walls,
            );
        }

        Ok(RealLayerOutput {
            output,
            cpu_wall,
            gpu_wall,
            gpu_walls,
            cpu_tasks: cpu.len(),
            gpu_tasks: gpu.len(),
        })
    }
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

/// Books one expert's elapsed wall-clock against the device the plan put
/// it on, whether the batch ran locally or on a worker (sorted-slice
/// membership; GPU shard looked up by binary search).
fn account(
    expert: u16,
    elapsed: Duration,
    cpu: &[u16],
    shard: &[(u16, u16)],
    cpu_wall: &mut Duration,
    gpu_wall: &mut Duration,
    gpu_walls: &mut [Duration],
) {
    if cpu.binary_search(&expert).is_ok() {
        *cpu_wall += elapsed;
    } else {
        *gpu_wall += elapsed;
        let s = shard
            .binary_search_by_key(&expert, |(e, _)| *e)
            .map(|i| shard[i].1 as usize)
            .unwrap_or(0);
        gpu_walls[s] += elapsed;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hybrimoe_hw::UnitCostModel;
    use hybrimoe_model::LayerRouting;
    use hybrimoe_sched::baselines::FixedMappingScheduler;
    use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, Scheduler};

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
    }

    #[test]
    fn gpu_walls_are_timed_per_shard() {
        // A 2-GPU plan: each shard's wall-clock is timed separately, and
        // the per-shard walls account for exactly the total GPU time.
        let model = ModelConfig::tiny_test();
        let hidden = model.routed_shape.hidden() as usize;
        let k = model.activated_experts as usize;
        // Route every token to experts 0 (shard 0) and 1 (shard 1).
        let (inputs, routes): (Vec<Vec<f32>>, Vec<RouterOutput>) = (0..3)
            .map(|t| {
                let x: Vec<f32> = (0..hidden)
                    .map(|i| ((t * 37 + i * 11) % 100) as f32 / 500.0 - 0.1)
                    .collect();
                let mut logits = vec![0.0f32; model.routed_experts as usize];
                logits[0] = 5.0;
                logits[1] = 4.0;
                (x, RouterOutput::route(&logits, k))
            })
            .unzip();
        let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, &routes);
        let tasks: Vec<ExpertTask> = routing
            .activated()
            .into_iter()
            .map(|(e, load)| ExpertTask::cached(e, load))
            .collect();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(2);
        let plan = HybridScheduler::without_cpu_steal().schedule(&ctx);
        let shards_hit: std::collections::HashSet<_> = plan
            .gpu_order
            .iter()
            .filter_map(|g| g.placement.gpu())
            .collect();
        assert!(shards_hit.len() > 1, "routing should hit both shards");

        let mut exec = RealLayerExecutor::with_options(model, 7, RealExecOptions::default());
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.gpu_walls.len(), 2);
        assert_eq!(out.gpu_walls.iter().sum::<Duration>(), out.gpu_wall);
        for (g, wall) in out.gpu_walls.iter().enumerate() {
            assert!(*wall > Duration::ZERO, "shard {g} untimed");
        }
    }

    #[test]
    fn incomplete_plan_rejected() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 5);
        let mut plan = tasks_and_plan(&model, &routes, 2, true);
        if !plan.cpu_order.is_empty() {
            plan.cpu_order.pop();
        } else {
            plan.gpu_order.pop();
        }
        let mut exec = RealLayerExecutor::with_options(model, 7, RealExecOptions::default());
        let err = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap_err();
        assert!(matches!(err, RealExecError::InvalidPlan(_)), "{err}");
        assert!(!err.to_string().is_empty());
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
