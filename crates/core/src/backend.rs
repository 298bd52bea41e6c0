//! Pluggable schedule-execution backends.
//!
//! [`Engine::step`](crate::Engine::step) separates schedule *construction*
//! (routing, cache lookup, scheduling — always analytic) from schedule
//! *execution*, which is delegated to an [`ExecutionBackend`]:
//!
//! * [`SimBackend`] replays the plan on the analytic device clocks
//!   ([`PlanReplay`]: the makespan and busy times the
//!   [`PlanExecutor`](hybrimoe_hw::PlanExecutor) reports for the plan's ops,
//!   without building or labelling them) — the paper-reproduction path,
//!   bit-identical to the pre-backend engine and fast enough for full-size
//!   models;
//! * [`RealCpuBackend`] actually executes each layer's CPU- and
//!   GPU-assigned expert partitions with the `hybrimoe-kernels` quantized
//!   FFNs (the GPU partition is CPU-executed too — no GPU in this
//!   environment — but timed separately), returning measured per-device
//!   wall-clock and accumulating the numerical layer outputs. PCIe stays
//!   analytic: there is no real link to measure. Configured with worker
//!   endpoints, its executor sends expert batches to out-of-process
//!   workers first ([`crate::remote`]); that is a property of the one real
//!   backend, not a third one.
//!
//! The real backend closes the loop on the paper's warmup calibration
//! (§IV-A): its accumulated [`CpuMeasurement`] distills into a
//! [`CalibrationProfile`] that
//! [`Platform::with_calibration`](hybrimoe_hw::Platform::with_calibration)
//! folds back into the simulator, grounding the analytic CPU constants in
//! real kernel runs.

use std::time::Duration;

use hybrimoe_hw::{device_count, CalibrationProfile, Device, SimDuration};
use hybrimoe_model::shard_of;
use hybrimoe_model::LayerId;
use hybrimoe_sched::{PlanReplay, ScheduleContext, SchedulePlan};
use hybrimoe_trace::TokenStates;

use crate::realexec::{RealExecOptions, RealLayerExecutor, RealLayerOutput};
use crate::remote::{RemoteWorkerOptions, WorkerHealthSnapshot};

/// Everything a backend needs to execute one scheduled MoE layer.
#[derive(Debug)]
pub struct LayerRequest<'a> {
    /// The layer being executed.
    pub layer: LayerId,
    /// The schedule to execute (validated by the engine).
    pub plan: &'a SchedulePlan,
    /// The scheduling context the plan was built from (profiles, token
    /// count, cost model).
    pub ctx: &'a ScheduleContext<'a>,
    /// Per-token hidden states and routes, when the trace carries them
    /// (required by [`RealCpuBackend`], ignored by [`SimBackend`]).
    pub states: Option<&'a TokenStates>,
}

/// What executing one layer cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerOutcome {
    /// End-to-end time of the layer's MoE portion: the maximum finish time
    /// over every device timeline.
    pub makespan: SimDuration,
    /// Busy time per device in canonical order (`CPU, GPU0.., PCIE0..`);
    /// length `1 + 2 * num_gpus` of the scheduling context.
    pub busy: Vec<SimDuration>,
}

/// Executes scheduled layers: analytically (simulation) or for real.
///
/// Implementations must be deterministic in their *outputs* for a given
/// request; measured wall-clock times naturally vary between runs.
/// Backends are `Send` so an engine can run inside the serving front-end's
/// dedicated engine-loop thread.
pub trait ExecutionBackend: std::fmt::Debug + Send {
    /// A short stable name for reports.
    fn name(&self) -> &'static str;

    /// Executes one layer's schedule and overwrites `outcome` with its
    /// device times. The engine hands the same `outcome` in for every
    /// layer, so a backend that fills `outcome.busy` in place allocates
    /// nothing per layer.
    fn execute_layer(&mut self, request: &LayerRequest<'_>, outcome: &mut LayerOutcome);

    /// Called at the start of every engine step so per-step state (e.g.
    /// accumulated layer outputs) does not leak across steps.
    fn begin_step(&mut self) {}

    /// Drains the numerical layer outputs of the most recent step, in
    /// layer order. Empty for analytic backends.
    fn take_step_outputs(&mut self) -> Vec<RealLayerOutput> {
        Vec::new()
    }

    /// The CPU calibration distilled from every layer executed so far,
    /// if this backend measures real kernels.
    fn calibration(&self) -> Option<CalibrationProfile> {
        None
    }

    /// Worker fleet health, if this backend dispatches expert batches to
    /// out-of-process workers (a [`RealCpuBackend`] with endpoints
    /// configured). `None` for purely local backends.
    fn worker_health(&self) -> Option<WorkerHealthSnapshot> {
        None
    }
}

/// The analytic backend: executes plans on the simulated device clocks.
#[derive(Debug, Default, Clone)]
pub struct SimBackend {
    replay: PlanReplay,
}

impl SimBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        SimBackend::default()
    }
}

impl ExecutionBackend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn execute_layer(&mut self, request: &LayerRequest<'_>, outcome: &mut LayerOutcome) {
        outcome.makespan = self.replay.run(request.plan, request.ctx);
        outcome.busy.clear();
        outcome.busy.extend_from_slice(self.replay.busy_times());
    }
}

/// Aggregate CPU-side measurements of a [`RealCpuBackend`].
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

/// The real-execution backend: runs every expert partition with the
/// quantized CPU kernels — on out-of-process workers first, with per-expert
/// local failover, when worker endpoints are configured.
///
/// Requires traces generated with
/// [`TraceGenerator::with_token_states`](hybrimoe_trace::TraceGenerator::with_token_states)
/// and a model small enough for the weight budget (use
/// [`ModelConfig::tiny_test`](hybrimoe_model::ModelConfig::tiny_test)-sized
/// configurations).
#[derive(Debug)]
pub struct RealCpuBackend {
    exec: RealLayerExecutor,
    outputs: Vec<RealLayerOutput>,
    measured: CpuMeasurement,
}

impl RealCpuBackend {
    /// Creates the backend for one model's synthetic weights and a worker
    /// fleet over `remote.endpoints` (connections open lazily; no
    /// endpoints, no fleet).
    pub fn new(
        model: hybrimoe_model::ModelConfig,
        seed: u64,
        options: RealExecOptions,
        remote: &RemoteWorkerOptions,
    ) -> RealCpuBackend {
        RealCpuBackend {
            exec: RealLayerExecutor::new(model, seed, options, remote),
            outputs: Vec::new(),
            measured: CpuMeasurement::default(),
        }
    }

    /// The accumulated CPU measurement.
    pub fn measurement(&self) -> CpuMeasurement {
        self.measured
    }
}

impl ExecutionBackend for RealCpuBackend {
    fn name(&self) -> &'static str {
        "real-cpu"
    }

    fn execute_layer(&mut self, request: &LayerRequest<'_>, outcome: &mut LayerOutcome) {
        let states = request.states.unwrap_or_else(|| {
            panic!(
                "RealCpuBackend needs per-token states at {}: generate the trace with \
                 TraceGenerator::with_token_states",
                request.layer
            )
        });
        let out = self
            .exec
            .execute_layer(request.layer, request.plan, &states.inputs, &states.routes)
            .unwrap_or_else(|e| panic!("real execution failed at {}: {e}", request.layer));

        // Account the CPU-assigned work so the measurement can be distilled
        // into effective rates for calibration. Bytes are charged once per
        // task — the cost model's stream-once convention (see
        // [`CpuMeasurement`]).
        let profile = request.ctx.routed_profile;
        for t in &request.plan.cpu_order {
            self.measured.flops += t.load as u64 * profile.flops_per_token();
            self.measured.bytes += profile.bytes();
            self.measured.tasks += 1;
        }
        self.measured.wall += out.cpu_wall;

        // PCIe stays analytic — this environment has no real link. Each
        // transfer rides the lane of its target shard.
        let n = request.ctx.num_gpus.max(1);
        let wire = request.plan.transfer_profile.unwrap_or(profile);
        let mut pcie = vec![SimDuration::ZERO; n];
        for x in &request.plan.pcie_order {
            pcie[shard_of(x.expert, n)] += request.ctx.cost.transfer(&wire);
        }

        // Busy vector in canonical order: CPU, each GPU shard's measured
        // wall (shards run concurrently on real hardware, so the makespan
        // takes the max shard), each PCIe lane's analytic time.
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
        let health = self.exec.health();
        (health.configured > 0).then_some(health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrimoe_hw::{PlanExecutor, UnitCostModel};
    use hybrimoe_model::{ExpertId, LayerId, ModelConfig, RouterOutput};
    use hybrimoe_sched::{ExpertTask, HybridScheduler, Scheduler};

    fn layer_states(model: &ModelConfig, tokens: usize) -> TokenStates {
        let hidden = model.routed_shape.hidden() as usize;
        let experts = model.routed_experts as usize;
        let k = model.activated_experts as usize;
        let (inputs, routes) = (0..tokens)
            .map(|t| {
                let x: Vec<f32> = (0..hidden)
                    .map(|i| ((t * 31 + i * 7) % 100) as f32 / 500.0 - 0.1)
                    .collect();
                let logits: Vec<f32> = (0..experts)
                    .map(|e| ((t + e * 13) % 11) as f32 / 3.0)
                    .collect();
                (x, RouterOutput::route(&logits, k))
            })
            .unzip();
        TokenStates { inputs, routes }
    }

    fn tasks_from(states: &TokenStates, experts: u16) -> Vec<ExpertTask> {
        let routing =
            hybrimoe_model::LayerRouting::from_tokens(LayerId(0), experts, &states.routes);
        routing
            .activated()
            .into_iter()
            .map(|(e, load)| ExpertTask {
                expert: e,
                load,
                cached: e.0 % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn sim_backend_matches_plan_executor() {
        let tasks = vec![
            ExpertTask::uncached(ExpertId(0), 1),
            ExpertTask::cached(ExpertId(1), 2),
        ];
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();

        let mut outcome = LayerOutcome::default();
        SimBackend::new().execute_layer(
            &LayerRequest {
                layer: LayerId(0),
                plan: &plan,
                ctx: &ctx,
                states: None,
            },
            &mut outcome,
        );
        assert_eq!(outcome.makespan, executed.makespan);
        assert_eq!(outcome.busy, executed.timelines.busy_times());
    }

    #[test]
    fn real_backend_executes_and_measures() {
        let model = ModelConfig::tiny_test();
        let states = layer_states(&model, 2);
        let tasks = tasks_from(&states, model.routed_experts);
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);

        let mut backend = RealCpuBackend::new(
            model,
            7,
            RealExecOptions::default(),
            &RemoteWorkerOptions::default(),
        );
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
        assert!(backend.take_step_outputs().is_empty());
        assert_eq!(backend.worker_health(), None, "no endpoints, no fleet");
        if !plan.cpu_order.is_empty() {
            let m = backend.measurement();
            assert!(m.tasks > 0 && m.flops > 0 && m.bytes > 0);
            let cal = backend.calibration().expect("cpu work measured");
            assert!(cal.is_plausible());
        }
    }

    #[test]
    #[should_panic(expected = "needs per-token states")]
    fn real_backend_rejects_stateless_traces() {
        let model = ModelConfig::tiny_test();
        let tasks = vec![ExpertTask::uncached(ExpertId(0), 1)];
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        let mut backend = RealCpuBackend::new(
            model,
            7,
            RealExecOptions::default(),
            &RemoteWorkerOptions::default(),
        );
        backend.execute_layer(
            &LayerRequest {
                layer: LayerId(0),
                plan: &plan,
                ctx: &ctx,
                states: None,
            },
            &mut LayerOutcome::default(),
        );
    }

    #[test]
    fn empty_measurement_has_no_profile() {
        assert_eq!(CpuMeasurement::default().profile(), None);
    }
}
