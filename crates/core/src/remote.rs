//! Remote expert execution: dispatch expert batches to out-of-process
//! workers over the framed wire protocol.
//!
//! [`RemoteLayerExecutor`] runs the same expert-major batched layer loop
//! as [`RealLayerExecutor`](crate::realexec::RealLayerExecutor), but each
//! expert's gathered token batch can travel to the shard-affine worker
//! (`expert % num_workers`, the same static map the multi-GPU cache
//! shards use) instead of the local kernels. Activations move, weights
//! stay put — the point of compute-near-weights workers.
//!
//! Three properties the executor maintains:
//!
//! * **Bit-identity.** Experts accumulate into the output in ascending
//!   id order no matter where each batch ran, tensors travel as exact
//!   IEEE-754 bit patterns, and the [`LoadShard`] handshake pins every
//!   worker to the same kernel backend as the local fallback path — so
//!   a layer's output is bit-identical to fully-local execution for any
//!   mix of remote and local experts.
//! * **Pipelining.** Every expert's batch is dispatched before any reply
//!   is collected; each connection answers strictly FIFO, and replies are
//!   collected in the same ascending expert order they were sent.
//! * **Failover.** A send or receive failure marks the worker down
//!   (reconnect-with-backoff in [`WorkerClientPool`]) and the affected
//!   experts — including any whose pipelined replies died with the
//!   connection — fall back to the executor's own local weights. An
//!   in-flight layer never fails because a worker did. A per-worker
//!   circuit breaker trips after
//!   [`RemoteWorkerOptions::breaker_threshold`] consecutive failures:
//!   while open, experts route straight to the local fallback without
//!   paying connect or deadline cost, until a half-open heartbeat probe
//!   after the cooldown finds the worker healthy again.
//!
//! [`RemoteBackend`] wraps the executor as an
//! [`ExecutionBackend`], accounting outcomes
//! exactly like [`RealCpuBackend`](crate::RealCpuBackend) and exposing
//! worker fleet health for the serving layer's `/metrics`.

use std::time::{Duration, Instant};

use hybrimoe_hw::{device_count, CalibrationProfile, Device, SimDuration};
use hybrimoe_kernels::threadpool::default_threads;
use hybrimoe_kernels::{ExecScratch, KernelBackend, WorkerPool};
use hybrimoe_model::{shard_of, ExpertKey, LayerId, ModelConfig, RouterOutput, WeightStore};
use hybrimoe_sched::SchedulePlan;
use hybrimoe_worker::protocol::LoadShard;
use hybrimoe_worker::{wire_backend, ClientOptions, WorkerClientPool, WorkerHealthSnapshot};
use serde::{Deserialize, Serialize};

use crate::backend::{CpuMeasurement, ExecutionBackend, LayerOutcome, LayerRequest};
use crate::realexec::{account, RealExecError, RealExecOptions, RealLayerOutput};

/// Configuration of the remote-worker execution backend.
///
/// # Example
///
/// ```
/// use hybrimoe::remote::RemoteWorkerOptions;
///
/// let opts = RemoteWorkerOptions::default();
/// assert!(opts.endpoints.is_empty()); // degraded: everything runs locally
/// assert_eq!(opts.deadline_ms, 5_000);
/// assert_eq!(opts.breaker_threshold, 4);
/// assert_eq!(opts.breaker_cooldown_ms, 500);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteWorkerOptions {
    /// Worker endpoints, one per worker: TCP `host:port` or
    /// `unix:/path/to.sock`. Expert ownership is `expert % endpoints.len()`.
    /// Empty runs every expert on the local fallback path.
    pub endpoints: Vec<String>,
    /// Per-request deadline in milliseconds, enforced as the socket read
    /// timeout while waiting for each reply. `0` waits forever.
    pub deadline_ms: u64,
    /// Consecutive send/collect failures that trip a worker's circuit
    /// breaker. While open, experts owned by that worker route straight
    /// to the local fallback — no connect attempt, no deadline wait —
    /// until a half-open heartbeat probe succeeds after the cooldown.
    /// `0` disables the breaker (every dispatch retries the worker).
    pub breaker_threshold: u32,
    /// Minimum time a tripped breaker stays open before the next
    /// dispatch decision probes the worker with a heartbeat.
    pub breaker_cooldown_ms: u64,
}

impl Default for RemoteWorkerOptions {
    fn default() -> Self {
        RemoteWorkerOptions {
            endpoints: Vec::new(),
            deadline_ms: 5_000,
            breaker_threshold: 4,
            breaker_cooldown_ms: 500,
        }
    }
}

impl RemoteWorkerOptions {
    /// The per-connection client options these settings imply.
    pub fn client_options(&self) -> ClientOptions {
        ClientOptions {
            deadline: (self.deadline_ms > 0).then(|| Duration::from_millis(self.deadline_ms)),
            ..ClientOptions::default()
        }
    }
}

/// One worker's circuit-breaker state (see
/// [`RemoteWorkerOptions::breaker_threshold`]).
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    /// Dispatch allowed; counts consecutive failures.
    Closed {
        /// Consecutive failures since the last success.
        failures: u32,
    },
    /// Dispatch suspended; no probe before `until`.
    Open {
        /// Earliest next half-open probe.
        until: Instant,
    },
    /// Cooldown expired; the in-progress dispatch decision is probing.
    HalfOpen,
}

/// A per-worker circuit breaker with trip accounting for `/metrics`.
#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    /// Cumulative closed→open transitions (half-open re-opens after a
    /// failed probe do not count a new trip).
    trips: u64,
}

/// Where one planned expert's batch is headed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dispatch {
    /// Not dispatched (or failed over): compute with the local weights.
    Local,
    /// In flight to worker `w`; its reply is collected FIFO.
    Remote(usize),
}

/// Per-layer scratch of the remote executor, cleared between layers.
#[derive(Debug, Default)]
struct RemoteScratch {
    /// Per-expert routed token lists, `(token index, router weight)`.
    tokens_of: Vec<Vec<(u32, f32)>>,
    /// Gathered inputs of one expert's token batch, `batch x hidden`.
    gather: Vec<f32>,
    /// Local-fallback outputs of one batch, same shape.
    result: Vec<f32>,
    /// Activated expert ids, sorted ascending, deduplicated.
    activated: Vec<u16>,
    /// CPU partition of the plan, sorted ascending.
    cpu: Vec<u16>,
    /// GPU partition of the plan, sorted ascending.
    gpu: Vec<u16>,
    /// Sorted union of the partitions — the fixed accumulation order.
    planned: Vec<u16>,
    /// `(expert, shard)` pairs sorted by expert, for per-shard timing.
    shard: Vec<(u16, u16)>,
    /// Per-planned-expert dispatch state, aligned with `planned`.
    dispatch: Vec<Dispatch>,
}

/// Executes MoE layers with expert batches dispatched to out-of-process
/// workers, falling back to local kernels per expert on any failure.
#[derive(Debug)]
pub struct RemoteLayerExecutor {
    /// Local fallback weights — the full model, same seed as the workers,
    /// so a failed-over expert computes the identical result.
    store: WeightStore,
    pool: WorkerPool,
    backend: &'static dyn KernelBackend,
    workers: WorkerClientPool,
    scratch: RemoteScratch,
    ffn_scratch: ExecScratch,
    /// One circuit breaker per configured worker.
    breakers: Vec<Breaker>,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
}

impl RemoteLayerExecutor {
    /// Creates the executor: local fallback weights from `options`, a
    /// worker pool over `remote.endpoints` (connections open lazily), and
    /// a [`LoadShard`] spec that pins every worker to this executor's
    /// resolved kernel backend so remote and local results are
    /// bit-identical.
    pub fn new(
        model: ModelConfig,
        seed: u64,
        options: RealExecOptions,
        remote: &RemoteWorkerOptions,
    ) -> RemoteLayerExecutor {
        let backend = options.kernel_backend.resolve();
        let base = LoadShard {
            seed,
            worker: 0,
            num_workers: remote.endpoints.len().max(1) as u16,
            layers: model.layers,
            routed_experts: model.routed_experts,
            hidden: model.routed_shape.hidden(),
            inter: model.routed_shape.inter(),
            weight_budget_bytes: options.weight_budget_bytes,
            backend: wire_backend::to_wire(backend.kind()),
        };
        RemoteLayerExecutor {
            store: WeightStore::new(model, seed, options.weight_budget_bytes),
            pool: WorkerPool::new(default_threads(options.max_threads.max(1))),
            backend,
            workers: WorkerClientPool::new(&remote.endpoints, base, remote.client_options()),
            scratch: RemoteScratch::default(),
            ffn_scratch: ExecScratch::new(),
            breakers: (0..remote.endpoints.len())
                .map(|_| Breaker {
                    state: BreakerState::Closed { failures: 0 },
                    trips: 0,
                })
                .collect(),
            breaker_threshold: remote.breaker_threshold,
            breaker_cooldown: Duration::from_millis(remote.breaker_cooldown_ms),
        }
    }

    /// The model being executed.
    pub fn model(&self) -> &ModelConfig {
        self.store.config()
    }

    /// Current worker fleet health, including circuit-breaker state.
    pub fn health(&self) -> WorkerHealthSnapshot {
        let mut health = self.workers.health();
        health.breaker_open = self
            .breakers
            .iter()
            .filter(|b| matches!(b.state, BreakerState::Open { .. }))
            .count() as u64;
        health.breaker_trips = self.breakers.iter().map(|b| b.trips).sum();
        health
    }

    /// Drains every connected worker (best-effort; used at shutdown).
    pub fn drain(&mut self) {
        self.workers.drain();
    }

    /// Executes one layer, dispatching each planned expert's token batch
    /// to its shard-affine worker and falling back to the local kernels
    /// for experts whose worker is down or fails mid-request. Output
    /// semantics match
    /// [`RealLayerExecutor::execute_layer`](crate::realexec::RealLayerExecutor::execute_layer):
    /// experts accumulate in ascending id order, so the result is
    /// bit-identical across placements *and* across remote/local
    /// execution mixes.
    ///
    /// # Errors
    ///
    /// Same contract as the local executor: [`RealExecError::InvalidPlan`]
    /// if the plan does not cover the activated experts exactly once,
    /// [`RealExecError::BadInput`] on dimension mismatches, and
    /// [`RealExecError::Weights`] if a local fallback cannot materialize
    /// its expert within the memory budget. Worker failures are *not*
    /// errors — they fail over.
    pub fn execute_layer(
        &mut self,
        layer: LayerId,
        plan: &SchedulePlan,
        inputs: &[Vec<f32>],
        routes: &[RouterOutput],
    ) -> Result<RealLayerOutput, RealExecError> {
        self.validate(plan, inputs, routes)?;
        let hidden = self.store.config().routed_shape.hidden() as usize;
        let experts = self.store.config().routed_experts as usize;
        let num_shards = self.num_shards();

        // Build every expert's token list in one pass over the routes.
        let scratch = &mut self.scratch;
        if scratch.tokens_of.len() < experts {
            scratch.tokens_of.resize_with(experts, Vec::new);
        }
        for list in scratch.tokens_of.iter_mut() {
            list.clear();
        }
        for (t, routing) in routes.iter().enumerate() {
            for (e, w) in &routing.selected {
                scratch.tokens_of[e.0 as usize].push((t as u32, *w));
            }
        }

        // Dispatch phase: every expert's batch is on the wire before any
        // reply is read. Replies arrive strictly FIFO per connection, and
        // the collect loop below walks the same ascending expert order, so
        // correlation is positional. With no workers configured every
        // expert stays `Local`.
        scratch.dispatch.clear();
        scratch
            .dispatch
            .resize(scratch.planned.len(), Dispatch::Local);
        if self.workers.num_workers() > 0 {
            for i in 0..scratch.planned.len() {
                let expert = scratch.planned[i];
                let list = &scratch.tokens_of[expert as usize];
                if list.is_empty() {
                    continue;
                }
                let worker = self
                    .workers
                    .worker_for_expert(hybrimoe_model::ExpertId(expert));
                if !Self::breaker_allows(
                    &mut self.breakers,
                    &mut self.workers,
                    self.breaker_threshold,
                    self.breaker_cooldown,
                    worker,
                ) {
                    // Open breaker: route straight to the local fallback
                    // without paying connect or deadline cost.
                    self.workers.note_failover();
                    continue;
                }
                let sent = match self.workers.client(worker) {
                    Some(client) => client
                        .send_execute_parts(
                            layer.0,
                            expert,
                            list.len() as u32,
                            hidden as u32,
                            gather_batch(&mut scratch.gather, list, inputs, hidden),
                        )
                        .is_ok(),
                    None => false,
                };
                if sent {
                    self.workers.note_request();
                    scratch.dispatch[i] = Dispatch::Remote(worker);
                } else {
                    // The connection (and every reply still in its FIFO)
                    // is gone: earlier experts dispatched to this worker
                    // fail over too.
                    self.workers.fail(worker);
                    Self::breaker_fail(
                        &mut self.breakers,
                        self.breaker_threshold,
                        self.breaker_cooldown,
                        worker,
                    );
                    self.workers.note_failover();
                    for d in scratch.dispatch[..i].iter_mut() {
                        if *d == Dispatch::Remote(worker) {
                            *d = Dispatch::Local;
                            self.workers.note_failover();
                        }
                    }
                }
            }
        }

        // Collect phase: ascending expert order — the fixed accumulation
        // order that makes outputs placement- and transport-independent.
        let mut output = vec![0.0f32; inputs.len() * hidden];
        let mut cpu_wall = Duration::ZERO;
        let mut gpu_wall = Duration::ZERO;
        let mut gpu_walls = vec![Duration::ZERO; num_shards];
        for i in 0..scratch.planned.len() {
            let expert = scratch.planned[i];
            let list = &scratch.tokens_of[expert as usize];
            if list.is_empty() {
                continue;
            }
            let batch = list.len();
            let start = Instant::now();

            let mut collected = false;
            if let Dispatch::Remote(worker) = scratch.dispatch[i] {
                collected = Self::collect_remote(
                    &mut self.workers,
                    worker,
                    batch,
                    hidden,
                    list,
                    &mut output,
                );
                if collected {
                    Self::breaker_ok(&mut self.breakers, worker);
                } else {
                    // The reply (and the connection's whole FIFO) is
                    // lost: this expert and every later one still
                    // expecting a reply from this worker run locally.
                    Self::breaker_fail(
                        &mut self.breakers,
                        self.breaker_threshold,
                        self.breaker_cooldown,
                        worker,
                    );
                    self.workers.note_failover();
                    for d in scratch.dispatch[i..].iter_mut() {
                        if *d == Dispatch::Remote(worker) {
                            *d = Dispatch::Local;
                        }
                    }
                }
            }

            if !collected {
                // Local fallback: identical weights, identical kernel
                // backend, identical accumulation order — bit-identical
                // to what the worker would have returned.
                let key = ExpertKey::new(layer, hybrimoe_model::ExpertId(expert));
                let ffn = self.store.expert(key)?;
                let gather = gather_batch(&mut scratch.gather, list, inputs, hidden);
                scratch.result.resize(batch * hidden, 0.0);
                ffn.forward_batch_into(
                    gather,
                    batch,
                    &mut scratch.result,
                    &mut self.ffn_scratch,
                    &self.pool,
                    self.backend,
                );
                scatter(&scratch.result, list, hidden, &mut output);
            }

            account(
                expert,
                start.elapsed(),
                &scratch.cpu,
                &scratch.shard,
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
            cpu_tasks: scratch.cpu.len(),
            gpu_tasks: scratch.gpu.len(),
        })
    }

    /// Decides whether dispatch to `worker` is allowed right now. Closed
    /// breakers pass; open ones inside the cooldown refuse instantly; an
    /// open breaker past its cooldown runs a half-open heartbeat probe —
    /// success closes the breaker, failure re-opens it for another
    /// cooldown without counting a new trip. The probe cannot
    /// desynchronize pipelined replies: a breaker only opens after the
    /// failing connection was dropped, so the probe's (re)connection
    /// starts with an empty FIFO.
    fn breaker_allows(
        breakers: &mut [Breaker],
        workers: &mut WorkerClientPool,
        threshold: u32,
        cooldown: Duration,
        worker: usize,
    ) -> bool {
        if threshold == 0 {
            return true;
        }
        let breaker = &mut breakers[worker];
        match breaker.state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } if Instant::now() < until => false,
            _ => {
                breaker.state = BreakerState::HalfOpen;
                let alive = match workers.client(worker) {
                    Some(client) => client.heartbeat().is_ok(),
                    None => false,
                };
                if alive {
                    breakers[worker].state = BreakerState::Closed { failures: 0 };
                    true
                } else {
                    workers.fail(worker);
                    breakers[worker].state = BreakerState::Open {
                        until: Instant::now() + cooldown,
                    };
                    false
                }
            }
        }
    }

    /// Counts one successful collect: consecutive-failure tracking resets.
    fn breaker_ok(breakers: &mut [Breaker], worker: usize) {
        if let Some(breaker) = breakers.get_mut(worker) {
            breaker.state = BreakerState::Closed { failures: 0 };
        }
    }

    /// Counts one send/collect failure; at `threshold` consecutive
    /// failures the breaker trips open for `cooldown`.
    fn breaker_fail(breakers: &mut [Breaker], threshold: u32, cooldown: Duration, worker: usize) {
        if threshold == 0 {
            return;
        }
        let breaker = &mut breakers[worker];
        match breaker.state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= threshold {
                    breaker.trips += 1;
                    breaker.state = BreakerState::Open {
                        until: Instant::now() + cooldown,
                    };
                } else {
                    breaker.state = BreakerState::Closed { failures };
                }
            }
            // A failure during (or right after) a half-open probe re-opens
            // without a new trip.
            BreakerState::HalfOpen => {
                breaker.state = BreakerState::Open {
                    until: Instant::now() + cooldown,
                };
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Receives one pipelined reply from `worker` and scatters it. Returns
    /// `false` — after marking the worker down — if the reply cannot be
    /// used (connection gone, deadline exceeded, remote error, or shape
    /// mismatch); the caller then recomputes the batch locally.
    fn collect_remote(
        workers: &mut WorkerClientPool,
        worker: usize,
        batch: usize,
        hidden: usize,
        list: &[(u32, f32)],
        output: &mut [f32],
    ) -> bool {
        let Some(client) = workers.client(worker) else {
            return false;
        };
        // A reconnected client has an empty FIFO: the original reply died
        // with the old connection.
        if client.inflight() == 0 {
            workers.fail(worker);
            return false;
        }
        match client.recv_execute() {
            Ok(ack) if ack.tokens as usize == batch && ack.hidden as usize == hidden => {
                scatter(&ack.data, list, hidden, output);
                true
            }
            _ => {
                // Timeouts, disconnects, error replies and shape
                // mismatches all desynchronize or invalidate the FIFO:
                // drop the connection and recompute locally.
                workers.fail(worker);
                false
            }
        }
    }

    /// Checks the inputs and distills the plan into the sorted scratch
    /// partitions (same contract as the local executor's validation).
    fn validate(
        &mut self,
        plan: &SchedulePlan,
        inputs: &[Vec<f32>],
        routes: &[RouterOutput],
    ) -> Result<(), RealExecError> {
        let hidden = self.store.config().routed_shape.hidden() as usize;
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
/// same addition order no matter where the batch was computed.
fn scatter(result: &[f32], list: &[(u32, f32)], hidden: usize, output: &mut [f32]) {
    for (i, (t, w)) in list.iter().enumerate() {
        let dst = &mut output[*t as usize * hidden..(*t as usize + 1) * hidden];
        let src = &result[i * hidden..(i + 1) * hidden];
        for (o, v) in dst.iter_mut().zip(src.iter()) {
            *o += w * v;
        }
    }
}

/// The remote-worker execution backend: expert batches run on
/// out-of-process workers with per-expert local failover, outcomes are
/// accounted exactly like [`RealCpuBackend`](crate::RealCpuBackend).
#[derive(Debug)]
pub struct RemoteBackend {
    exec: RemoteLayerExecutor,
    outputs: Vec<RealLayerOutput>,
    measured: CpuMeasurement,
}

impl RemoteBackend {
    /// Creates the backend for one model's synthetic weights and a worker
    /// fleet (connections open lazily on first use).
    pub fn new(
        model: ModelConfig,
        seed: u64,
        options: RealExecOptions,
        remote: &RemoteWorkerOptions,
    ) -> RemoteBackend {
        RemoteBackend {
            exec: RemoteLayerExecutor::new(model, seed, options, remote),
            outputs: Vec::new(),
            measured: CpuMeasurement::default(),
        }
    }

    /// The accumulated CPU measurement.
    pub fn measurement(&self) -> CpuMeasurement {
        self.measured
    }
}

impl ExecutionBackend for RemoteBackend {
    fn name(&self) -> &'static str {
        "remote-workers"
    }

    fn execute_layer(&mut self, request: &LayerRequest<'_>, outcome: &mut LayerOutcome) {
        let states = request.states.unwrap_or_else(|| {
            panic!(
                "RemoteBackend needs per-token states at {}: generate the trace with \
                 TraceGenerator::with_token_states",
                request.layer
            )
        });
        let out = self
            .exec
            .execute_layer(request.layer, request.plan, &states.inputs, &states.routes)
            .unwrap_or_else(|e| panic!("remote execution failed at {}: {e}", request.layer));

        // Same accounting as RealCpuBackend: CPU work feeds calibration,
        // PCIe stays analytic (see [`CpuMeasurement`] for the bytes
        // convention).
        let profile = request.ctx.routed_profile;
        for t in &request.plan.cpu_order {
            self.measured.flops += t.load as u64 * profile.flops_per_token();
            self.measured.bytes += profile.bytes();
            self.measured.tasks += 1;
        }
        self.measured.wall += out.cpu_wall;

        let n = request.ctx.num_gpus.max(1);
        let wire = request.plan.transfer_profile.unwrap_or(profile);
        let mut pcie = vec![SimDuration::ZERO; n];
        for x in &request.plan.pcie_order {
            pcie[shard_of(x.expert, n)] += request.ctx.cost.transfer(&wire);
        }

        let cpu = SimDuration::from_secs_f64(out.cpu_wall.as_secs_f64());
        let mut busy = vec![SimDuration::ZERO; device_count(n)];
        busy[Device::Cpu.ordinal(n)] = cpu;
        let mut makespan = cpu;
        for g in 0..n {
            let wall = out.gpu_walls.get(g).copied().unwrap_or_default();
            let gpu = SimDuration::from_secs_f64(wall.as_secs_f64());
            busy[Device::gpu(g as u8).ordinal(n)] = gpu;
            busy[Device::pcie(g as u8).ordinal(n)] = pcie[g];
            makespan = makespan.max(gpu).max(pcie[g]);
        }
        self.outputs.push(out);
        *outcome = LayerOutcome { makespan, busy };
    }

    fn begin_step(&mut self) {
        self.outputs.clear();
    }

    fn take_step_outputs(&mut self) -> Vec<RealLayerOutput> {
        std::mem::take(&mut self.outputs)
    }

    fn calibration(&self) -> Option<CalibrationProfile> {
        self.measured.profile()
    }

    fn worker_health(&self) -> Option<WorkerHealthSnapshot> {
        Some(self.exec.health())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::realexec::RealLayerExecutor;
    use hybrimoe_kernels::KernelBackendKind;
    use hybrimoe_model::LayerRouting;
    use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, Scheduler};
    use hybrimoe_worker::{Endpoint, WorkerHandle, WorkerServer, WorkerServerOptions};

    fn scalar_options() -> RealExecOptions {
        RealExecOptions {
            max_threads: 2,
            kernel_backend: KernelBackendKind::Scalar,
            ..Default::default()
        }
    }

    fn spawn_workers(n: usize, options: WorkerServerOptions) -> (Vec<WorkerHandle>, Vec<String>) {
        let handles: Vec<WorkerHandle> = (0..n)
            .map(|_| {
                WorkerServer::bind(&Endpoint::parse("127.0.0.1:0"), options.clone())
                    .expect("bind worker")
                    .spawn()
            })
            .collect();
        let endpoints = handles.iter().map(|h| h.endpoint().to_string()).collect();
        (handles, endpoints)
    }

    fn token_inputs(
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

    fn plan_for(model: &ModelConfig, routes: &[RouterOutput]) -> SchedulePlan {
        let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, routes);
        let tasks: Vec<ExpertTask> = routing
            .activated()
            .into_iter()
            .map(|(e, load)| ExpertTask {
                expert: e,
                load,
                cached: e.0 % 2 == 0,
            })
            .collect();
        let cost = hybrimoe_hw::UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        HybridScheduler::new().schedule(&ctx)
    }

    fn local_reference(
        model: &ModelConfig,
        plan: &SchedulePlan,
        inputs: &[Vec<f32>],
        routes: &[RouterOutput],
    ) -> Vec<f32> {
        RealLayerExecutor::with_options(model.clone(), 7, scalar_options())
            .execute_layer(LayerId(0), plan, inputs, routes)
            .unwrap()
            .output
    }

    #[test]
    fn remote_execution_is_bit_identical_to_local() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 4, 9);
        let plan = plan_for(&model, &routes);
        let reference = local_reference(&model, &plan, &inputs, &routes);

        for workers in [1usize, 2] {
            let (handles, endpoints) = spawn_workers(workers, WorkerServerOptions::default());
            let remote = RemoteWorkerOptions {
                endpoints,
                ..Default::default()
            };
            let mut exec = RemoteLayerExecutor::new(model.clone(), 7, scalar_options(), &remote);
            let out = exec
                .execute_layer(LayerId(0), &plan, &inputs, &routes)
                .unwrap();
            assert_eq!(out.output, reference, "workers={workers}");
            let health = exec.health();
            assert_eq!(health.configured, workers as u64);
            assert_eq!(health.up, workers as u64);
            assert!(health.requests > 0);
            assert_eq!(health.failovers, 0);
            exec.drain();
            for h in handles {
                h.shutdown();
            }
        }
    }

    #[test]
    fn empty_endpoints_run_fully_local() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 5);
        let plan = plan_for(&model, &routes);
        let reference = local_reference(&model, &plan, &inputs, &routes);

        let mut exec =
            RemoteLayerExecutor::new(model, 7, scalar_options(), &RemoteWorkerOptions::default());
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert_eq!(health.configured, 0);
        assert_eq!(health.requests, 0);
    }

    #[test]
    fn mid_request_disconnect_fails_over_bit_identically() {
        // The worker dies mid-layer (drops the connection without
        // replying after its first execute); the affected experts fall
        // back to local weights and the output is still bit-identical.
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 4, 13);
        let plan = plan_for(&model, &routes);
        let reference = local_reference(&model, &plan, &inputs, &routes);

        let (handles, endpoints) = spawn_workers(
            1,
            WorkerServerOptions {
                fail_after_executes: Some(1),
                ..Default::default()
            },
        );
        let remote = RemoteWorkerOptions {
            endpoints,
            deadline_ms: 2_000,
            ..Default::default()
        };
        let mut exec = RemoteLayerExecutor::new(model, 7, scalar_options(), &remote);
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert!(health.failovers > 0, "health: {health:?}");
        drop(handles);
    }

    #[test]
    fn dead_endpoint_degrades_to_local() {
        // Nothing listening at all: every expert fails over, nothing
        // errors, and the output still matches.
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 3);
        let plan = plan_for(&model, &routes);
        let reference = local_reference(&model, &plan, &inputs, &routes);

        let remote = RemoteWorkerOptions {
            // A port from the ephemeral range with nothing bound; connect
            // fails fast on loopback.
            endpoints: vec!["127.0.0.1:1".to_owned()],
            ..Default::default()
        };
        let mut exec = RemoteLayerExecutor::new(model, 7, scalar_options(), &remote);
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert_eq!(health.up, 0);
        assert!(health.failovers > 0);
    }

    #[test]
    fn breaker_opens_on_dead_worker_and_reprobes_after_cooldown() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 3);
        let plan = plan_for(&model, &routes);
        let reference = local_reference(&model, &plan, &inputs, &routes);

        let remote = RemoteWorkerOptions {
            endpoints: vec!["127.0.0.1:1".to_owned()], // nothing listening
            breaker_threshold: 1,
            breaker_cooldown_ms: 1,
            ..Default::default()
        };
        let mut exec = RemoteLayerExecutor::new(model, 7, scalar_options(), &remote);
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert_eq!(health.breaker_open, 1);
        assert_eq!(health.breaker_trips, 1);
        assert!(health.failovers > 0);

        // Cooldown expired: the next layer's dispatch probes the (still
        // dead) worker, the probe fails, and the breaker re-opens without
        // counting a new trip. Output stays bit-identical throughout.
        std::thread::sleep(Duration::from_millis(5));
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert_eq!(health.breaker_open, 1);
        assert_eq!(health.breaker_trips, 1);
    }

    #[test]
    fn remote_backend_reports_health_and_outputs() {
        let model = ModelConfig::tiny_test();
        let (handles, endpoints) = spawn_workers(1, WorkerServerOptions::default());
        let remote = RemoteWorkerOptions {
            endpoints,
            ..Default::default()
        };
        let mut backend = RemoteBackend::new(model.clone(), 7, scalar_options(), &remote);
        assert_eq!(backend.name(), "remote-workers");

        let (inputs, routes) = token_inputs(&model, 2, 3);
        let plan = plan_for(&model, &routes);
        let states = hybrimoe_trace::TokenStates { inputs, routes };
        let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, &states.routes);
        let tasks: Vec<ExpertTask> = routing
            .activated()
            .into_iter()
            .map(|(e, load)| ExpertTask {
                expert: e,
                load,
                cached: e.0 % 2 == 0,
            })
            .collect();
        let cost = hybrimoe_hw::UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);

        backend.begin_step();
        let mut outcome = LayerOutcome::default();
        backend.execute_layer(
            &LayerRequest {
                layer: LayerId(0),
                plan: &plan,
                ctx: &ctx,
                states: Some(&states),
            },
            &mut outcome,
        );
        assert!(outcome.makespan > SimDuration::ZERO);
        let outputs = backend.take_step_outputs();
        assert_eq!(outputs.len(), 1);
        assert!(outputs[0].output.iter().any(|v| *v != 0.0));
        let health = backend.worker_health().expect("remote backend has health");
        assert_eq!(health.configured, 1);
        assert!(health.requests > 0);
        for h in handles {
            h.shutdown();
        }
    }
}
