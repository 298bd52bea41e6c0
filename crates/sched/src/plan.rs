//! The output of a scheduling decision.

use hybrimoe_hw::{Device, DeviceClocks, GpuId, Op, OpId, SimDuration, SimTime};
use hybrimoe_model::{ExpertId, LayerId};
use serde::{Deserialize, Serialize};

use crate::{ExpertTask, ScheduleContext};

/// Where a task was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DevicePlacement {
    /// Computed on the CPU from host memory.
    Cpu,
    /// Computed on a GPU from its cache shard.
    Gpu(GpuId),
    /// Transferred over a GPU's PCIe lane, then computed on that GPU.
    GpuAfterTransfer(GpuId),
}

impl DevicePlacement {
    /// The target GPU of a GPU-side placement; `None` for the CPU.
    pub const fn gpu(self) -> Option<GpuId> {
        match self {
            DevicePlacement::Cpu => None,
            DevicePlacement::Gpu(g) | DevicePlacement::GpuAfterTransfer(g) => Some(g),
        }
    }

    /// Whether the placement requires a PCIe transfer.
    pub const fn is_transfer(self) -> bool {
        matches!(self, DevicePlacement::GpuAfterTransfer(_))
    }
}

/// A task together with its placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedTask {
    /// The underlying expert task.
    pub task: ExpertTask,
    /// The chosen placement.
    pub placement: DevicePlacement,
}

/// The per-device execution orders for one MoE layer.
///
/// Device orders are execution orders: the CPU computes `cpu_order` front to
/// back; each GPU computes its subsequence of `gpu_order` front to back
/// (waiting for the matching transfer before a
/// [`DevicePlacement::GpuAfterTransfer`] entry); each PCIe lane issues its
/// subsequence of `pcie_order` front to back (a transfer rides the lane of
/// the GPU that consumes it). Shared experts, when the model has them, run
/// first on [`shared_on`](Self::shared_on).
///
/// A plan holds orders only; what it costs is [`PlanReplay`]'s answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulePlan {
    /// The layer this plan belongs to.
    pub layer: LayerId,
    /// Tokens in the batch.
    pub tokens: u32,
    /// CPU execution order.
    pub cpu_order: Vec<ExpertTask>,
    /// GPU execution order (cached and transferred experts interleaved).
    pub gpu_order: Vec<PlannedTask>,
    /// PCIe transfer order.
    pub pcie_order: Vec<ExpertTask>,
    /// The device that runs the shared experts, if the model has any:
    /// GPU 0, where they are pinned resident, unless the scheduler maps
    /// the whole layer to the CPU.
    pub shared_on: Device,
    /// Overrides the cost profile used for PCIe transfers (llama.cpp-style
    /// streaming moves dequantized weights, which are larger than the
    /// packed Q4 experts). `None` uses the routed expert profile.
    pub transfer_profile: Option<hybrimoe_hw::ExpertProfile>,
}

impl Default for SchedulePlan {
    fn default() -> Self {
        SchedulePlan::empty(LayerId::default(), 0)
    }
}

/// Why a plan failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanInvalid {
    /// An activated expert is computed zero or multiple times.
    WrongComputeCount(ExpertId),
    /// A cached expert is transferred.
    TransferredCached(ExpertId),
    /// A transferred expert is not computed on the GPU after its transfer.
    TransferNotConsumed(ExpertId),
    /// A GPU entry is marked `GpuAfterTransfer` but has no matching
    /// transfer.
    MissingTransfer(ExpertId),
}

impl std::fmt::Display for PlanInvalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanInvalid::WrongComputeCount(e) => {
                write!(f, "expert {e} computed zero or multiple times")
            }
            PlanInvalid::TransferredCached(e) => write!(f, "cached expert {e} transferred"),
            PlanInvalid::TransferNotConsumed(e) => {
                write!(f, "transfer of {e} has no GPU compute")
            }
            PlanInvalid::MissingTransfer(e) => {
                write!(f, "GPU compute of {e} expects a transfer that is absent")
            }
        }
    }
}

impl std::error::Error for PlanInvalid {}

impl SchedulePlan {
    /// An empty plan (no activated experts).
    pub fn empty(layer: LayerId, tokens: u32) -> Self {
        SchedulePlan {
            layer,
            tokens,
            cpu_order: Vec::new(),
            gpu_order: Vec::new(),
            pcie_order: Vec::new(),
            shared_on: Device::gpu(0),
            transfer_profile: None,
        }
    }

    /// Experts computed on the CPU, in execution order.
    pub fn cpu_experts(&self) -> impl Iterator<Item = ExpertId> + '_ {
        self.cpu_order.iter().map(|t| t.expert)
    }

    /// Experts computed on the GPU, in execution order.
    pub fn gpu_experts(&self) -> impl Iterator<Item = ExpertId> + '_ {
        self.gpu_order.iter().map(|t| t.task.expert)
    }

    /// Experts moved over PCIe, in transfer order. These become resident in
    /// the GPU cache after the layer executes.
    pub fn transferred_experts(&self) -> impl Iterator<Item = ExpertId> + '_ {
        self.pcie_order.iter().map(|t| t.expert)
    }

    /// Checks the structural invariants of the plan against the activated
    /// task set.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: every activated expert computed
    /// exactly once, no cached expert transferred, every transfer consumed
    /// by a `GpuAfterTransfer` compute and vice versa.
    pub fn validate(&self, tasks: &[ExpertTask]) -> Result<(), PlanInvalid> {
        for t in tasks {
            let on_cpu = self
                .cpu_order
                .iter()
                .filter(|c| c.expert == t.expert)
                .count();
            let on_gpu = self
                .gpu_order
                .iter()
                .filter(|g| g.task.expert == t.expert)
                .count();
            if on_cpu + on_gpu != 1 {
                return Err(PlanInvalid::WrongComputeCount(t.expert));
            }
        }
        for x in &self.pcie_order {
            if x.cached {
                return Err(PlanInvalid::TransferredCached(x.expert));
            }
            let consumed = self
                .gpu_order
                .iter()
                .any(|g| g.task.expert == x.expert && g.placement.is_transfer());
            if !consumed {
                return Err(PlanInvalid::TransferNotConsumed(x.expert));
            }
        }
        for g in &self.gpu_order {
            if g.placement.is_transfer()
                && !self.pcie_order.iter().any(|x| x.expert == g.task.expert)
            {
                return Err(PlanInvalid::MissingTransfer(g.task.expert));
            }
        }
        Ok(())
    }

    /// The GPU a transferred expert's lane must feed: the shard of its
    /// consuming GPU compute (GPU 0 when the plan is malformed — validation
    /// reports that separately).
    fn transfer_lane(&self, expert: ExpertId) -> GpuId {
        self.gpu_order
            .iter()
            .find(|g| g.task.expert == expert && g.placement.is_transfer())
            .and_then(|g| g.placement.gpu())
            .unwrap_or(GpuId(0))
    }

    /// Clears the plan for reuse as an empty plan of `layer` (the order
    /// vectors keep their capacity).
    pub fn reset(&mut self, layer: LayerId, tokens: u32) {
        self.layer = layer;
        self.tokens = tokens;
        self.cpu_order.clear();
        self.gpu_order.clear();
        self.pcie_order.clear();
        self.shared_on = Device::gpu(0);
        self.transfer_profile = None;
    }

    /// Visits the plan's hardware ops: the shared experts, then the
    /// transfers (so GPU computes can refer back to them), then the CPU
    /// and GPU computes, each device's ops in plan order. The first CPU op
    /// pays the cold start and later ones run warm; a transfer carried in
    /// from an earlier layer ([`ScheduleContext::with_inflight`]) costs
    /// its remaining wire time. This is the one place that decides what
    /// each op costs and where it runs.
    fn lower(&self, ctx: &ScheduleContext<'_>, mut emit: impl FnMut(LoweredOp)) {
        let mut cpu_warm = false;
        if let Some(shared) = ctx.shared_profile {
            let duration = if self.shared_on == Device::Cpu {
                cpu_warm = true;
                ctx.cost.cpu_compute(&shared, ctx.tokens, false)
            } else {
                ctx.cost.gpu_compute(&shared, ctx.tokens)
            };
            emit(LoweredOp {
                device: self.shared_on,
                duration,
                kind: OpKind::Shared,
            });
        }
        let transfer = ctx
            .cost
            .transfer(&self.transfer_profile.unwrap_or(ctx.routed_profile));
        for x in &self.pcie_order {
            emit(LoweredOp {
                device: Device::Pcie(self.transfer_lane(x.expert)),
                duration: ctx.carried(x.expert).unwrap_or(transfer),
                kind: OpKind::Load(x.expert),
            });
        }
        for t in &self.cpu_order {
            emit(LoweredOp {
                device: Device::Cpu,
                duration: ctx.cost.cpu_compute(&ctx.routed_profile, t.load, cpu_warm),
                kind: OpKind::Compute(t.expert, false),
            });
            cpu_warm = true;
        }
        for g in &self.gpu_order {
            emit(LoweredOp {
                device: Device::Gpu(g.placement.gpu().unwrap_or(GpuId(0))),
                duration: ctx.cost.gpu_compute(&ctx.routed_profile, g.task.load),
                kind: OpKind::Compute(g.task.expert, g.placement.is_transfer()),
            });
        }
    }

    /// Lowers the plan to labelled hardware ops for the
    /// [`PlanExecutor`](hybrimoe_hw::PlanExecutor) — the Gantt path:
    /// compute ops per device in plan order, transfer ops on the PCIe lane
    /// of the consuming GPU, and a dependency from each transferred
    /// expert's GPU compute to its transfer. Labels read `"L3/E17"`,
    /// `"L3/E17 load"` and `"L3 shared"`.
    pub fn to_ops(&self, ctx: &ScheduleContext<'_>) -> Vec<Op> {
        let mut ops: Vec<Op> = Vec::new();
        let mut transfer_ids: Vec<(ExpertId, OpId)> = Vec::new();
        self.lower(ctx, |lowered| {
            let label = match lowered.kind {
                OpKind::Shared => format!("{} shared", self.layer),
                OpKind::Load(e) => format!("{}/{} load", self.layer, e),
                OpKind::Compute(e, _) => format!("{}/{}", self.layer, e),
            };
            let mut op = Op::new(ops.len() as u32, lowered.device, lowered.duration, label);
            match lowered.kind {
                OpKind::Load(e) => transfer_ids.push((e, op.id)),
                OpKind::Compute(e, true) => {
                    if let Some((_, dep)) = transfer_ids.iter().find(|(x, _)| *x == e) {
                        op = op.after(*dep);
                    }
                }
                _ => {}
            }
            ops.push(op);
        });
        ops
    }
}

/// One hardware op of a lowered plan, before ids and labels.
struct LoweredOp {
    device: Device,
    duration: SimDuration,
    kind: OpKind,
}

#[derive(Clone, Copy)]
enum OpKind {
    /// The shared experts.
    Shared,
    /// The PCIe transfer of an expert.
    Load(ExpertId),
    /// The compute of an expert; `true` if it waits for the expert's
    /// transfer.
    Compute(ExpertId, bool),
}

/// Replays plans straight onto device clocks: the makespan and per-device
/// busy times the [`PlanExecutor`](hybrimoe_hw::PlanExecutor) reports for
/// [`SchedulePlan::to_ops`], without building the ops, their labels or the
/// executor's bookkeeping — a reused `PlanReplay` does not allocate. A
/// plan's ops are fixed per device and only ever wait for transfers, which
/// wait for nothing, so one pass in lowering order is exact.
///
/// # Example
///
/// ```
/// use hybrimoe_hw::UnitCostModel;
/// use hybrimoe_model::{ExpertId, LayerId};
/// use hybrimoe_sched::{ExpertTask, HybridScheduler, PlanReplay, ScheduleContext, Scheduler};
///
/// let tasks = vec![
///     ExpertTask::uncached(ExpertId(0), 2),
///     ExpertTask::cached(ExpertId(1), 2),
/// ];
/// let cost = UnitCostModel::paper_fig5();
/// let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
/// let plan = HybridScheduler::new().schedule(&ctx);
/// let mut replay = PlanReplay::default();
/// // CPU takes the uncached expert, GPU the cached one, in parallel.
/// assert_eq!(replay.run(&plan, &ctx).as_micros_f64(), 2.0);
/// assert_eq!(replay.busy_times().len(), 3); // CPU, GPU0, PCIE0
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlanReplay {
    clocks: DeviceClocks,
    /// When each transfer of the plan being replayed arrives.
    arrivals: Vec<(ExpertId, SimTime)>,
}

impl PlanReplay {
    /// Replays `plan` on idle devices and returns its makespan: the finish
    /// time of the last op on any device, PCIe lanes included.
    pub fn run(&mut self, plan: &SchedulePlan, ctx: &ScheduleContext<'_>) -> SimDuration {
        self.replay(plan, ctx, None)
    }

    /// Replays `plan` like [`PlanReplay::run`], except that each routed
    /// expert `e` the plan computes on the CPU takes `cpu_times[e]` (a
    /// measured time, indexed by expert id) instead of its modeled cost.
    /// The shared experts, GPU computes and transfers stay modeled.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_times` has no entry for a CPU-planned expert.
    pub fn run_measured(
        &mut self,
        plan: &SchedulePlan,
        ctx: &ScheduleContext<'_>,
        cpu_times: &[SimDuration],
    ) -> SimDuration {
        self.replay(plan, ctx, Some(cpu_times))
    }

    /// The one replay behind [`PlanReplay::run`] (`cpu_times` = `None`)
    /// and [`PlanReplay::run_measured`].
    fn replay(
        &mut self,
        plan: &SchedulePlan,
        ctx: &ScheduleContext<'_>,
        cpu_times: Option<&[SimDuration]>,
    ) -> SimDuration {
        let PlanReplay { clocks, arrivals } = self;
        clocks.reset(ctx.num_gpus.max(1));
        arrivals.clear();
        plan.lower(ctx, |op| {
            let release = match op.kind {
                OpKind::Compute(e, true) => arrivals
                    .iter()
                    .find(|(x, _)| *x == e)
                    .map_or(SimTime::ZERO, |(_, arrived)| *arrived),
                _ => SimTime::ZERO,
            };
            let duration = match (cpu_times, op.kind, op.device) {
                (Some(times), OpKind::Compute(e, _), Device::Cpu) => times[e.0 as usize],
                _ => op.duration,
            };
            let end = clocks.run(op.device, release, duration);
            if let OpKind::Load(e) = op.kind {
                arrivals.push((e, end));
            }
        });
        clocks.makespan()
    }

    /// Per-device busy times of the last replayed plan, in canonical
    /// device order (`CPU, GPU0.., PCIE0..`).
    pub fn busy_times(&self) -> &[SimDuration] {
        self.clocks.busy_times()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrimoe_hw::{GpuId, PlanExecutor, UnitCostModel};

    fn fig5_tasks() -> Vec<ExpertTask> {
        vec![
            ExpertTask::uncached(ExpertId(0), 1),
            ExpertTask::uncached(ExpertId(1), 1),
            ExpertTask::uncached(ExpertId(2), 3),
            ExpertTask::cached(ExpertId(3), 4),
            ExpertTask::cached(ExpertId(4), 1),
        ]
    }

    fn fig5_plan() -> SchedulePlan {
        SchedulePlan {
            layer: LayerId(0),
            tokens: 4,
            cpu_order: vec![
                ExpertTask::uncached(ExpertId(0), 1),
                ExpertTask::uncached(ExpertId(1), 1),
                ExpertTask::cached(ExpertId(4), 1),
            ],
            gpu_order: vec![
                PlannedTask {
                    task: ExpertTask::cached(ExpertId(3), 4),
                    placement: DevicePlacement::Gpu(GpuId(0)),
                },
                PlannedTask {
                    task: ExpertTask::uncached(ExpertId(2), 3),
                    placement: DevicePlacement::GpuAfterTransfer(GpuId(0)),
                },
            ],
            pcie_order: vec![ExpertTask::uncached(ExpertId(2), 3)],
            shared_on: Device::gpu(0),
            transfer_profile: None,
        }
    }

    #[test]
    fn fig5_plan_validates() {
        assert_eq!(fig5_plan().validate(&fig5_tasks()), Ok(()));
    }

    #[test]
    fn validation_catches_missing_compute() {
        let mut p = fig5_plan();
        p.cpu_order.pop();
        assert_eq!(
            p.validate(&fig5_tasks()),
            Err(PlanInvalid::WrongComputeCount(ExpertId(4)))
        );
    }

    #[test]
    fn validation_catches_duplicate_compute() {
        let mut p = fig5_plan();
        p.cpu_order.push(ExpertTask::cached(ExpertId(3), 4));
        assert_eq!(
            p.validate(&fig5_tasks()),
            Err(PlanInvalid::WrongComputeCount(ExpertId(3)))
        );
    }

    #[test]
    fn validation_catches_cached_transfer() {
        let mut p = fig5_plan();
        p.pcie_order.push(ExpertTask::cached(ExpertId(3), 4));
        assert_eq!(
            p.validate(&fig5_tasks()),
            Err(PlanInvalid::TransferredCached(ExpertId(3)))
        );
    }

    #[test]
    fn validation_catches_unconsumed_transfer() {
        let mut p = fig5_plan();
        p.gpu_order[1].placement = DevicePlacement::Gpu(GpuId(0));
        assert_eq!(
            p.validate(&fig5_tasks()),
            Err(PlanInvalid::TransferNotConsumed(ExpertId(2)))
        );
    }

    #[test]
    fn validation_catches_missing_transfer() {
        let mut p = fig5_plan();
        p.pcie_order.clear();
        assert_eq!(
            p.validate(&fig5_tasks()),
            Err(PlanInvalid::MissingTransfer(ExpertId(2)))
        );
    }

    #[test]
    fn to_ops_labels_and_executes_the_fig5_plan() {
        // The paper's Fig. 5 schedule finishes in 4 units.
        let plan = fig5_plan();
        let cost = UnitCostModel::paper_fig5();
        let tasks = fig5_tasks();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let ops = plan.to_ops(&ctx);
        let labels: Vec<&str> = ops.iter().map(|op| op.label.as_str()).collect();
        assert_eq!(
            labels,
            ["L0/E2 load", "L0/E0", "L0/E1", "L0/E4", "L0/E3", "L0/E2"]
        );
        let executed = PlanExecutor::new().execute(ops).unwrap();
        assert_eq!(executed.makespan, SimDuration::from_micros(4));
    }

    #[test]
    fn shared_experts_run_where_the_plan_puts_them() {
        let tasks = fig5_tasks();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::new(
            LayerId(0),
            4,
            &tasks,
            hybrimoe_hw::ExpertProfile::new(1, 1),
            Some(hybrimoe_hw::ExpertProfile::new(1, 1)),
            &cost,
        );
        let mut plan = fig5_plan();
        let mut replay = PlanReplay::default();
        // On GPU 0 the shared experts fill the wait for C's transfer.
        assert_eq!(replay.run(&plan, &ctx), SimDuration::from_micros(4));
        assert_eq!(replay.busy_times()[1], SimDuration::from_micros(3));
        // On the CPU they cost the batch's 4 tokens, ahead of A, B and E.
        plan.shared_on = Device::Cpu;
        assert_eq!(replay.run(&plan, &ctx), SimDuration::from_micros(7));
        let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();
        assert_eq!(executed.makespan, SimDuration::from_micros(7));
        assert_eq!(executed.ops[0].label, "L0 shared");
    }

    #[test]
    fn replay_matches_the_plan_executor() {
        let plan = fig5_plan();
        let cost = UnitCostModel::paper_fig5();
        let tasks = fig5_tasks();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();
        let mut replay = PlanReplay::default();
        // A reused replay starts every plan from idle devices.
        for _ in 0..2 {
            assert_eq!(replay.run(&plan, &ctx), executed.makespan);
            assert_eq!(replay.busy_times(), executed.timelines.busy_times());
        }
    }

    #[test]
    fn hybrid_plan_replay_matches_the_plan_executor() {
        use crate::{HybridScheduler, Scheduler};

        let tasks = vec![
            ExpertTask::uncached(ExpertId(0), 1),
            ExpertTask::cached(ExpertId(1), 2),
        ];
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();

        let mut replay = PlanReplay::default();
        assert_eq!(replay.run(&plan, &ctx), executed.makespan);
        assert_eq!(replay.busy_times(), executed.timelines.busy_times());
    }

    #[test]
    fn measured_cpu_times_replace_only_the_routed_cpu_ops() {
        let tasks = fig5_tasks();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::new(
            LayerId(0),
            4,
            &tasks,
            hybrimoe_hw::ExpertProfile::new(1, 1),
            Some(hybrimoe_hw::ExpertProfile::new(1, 1)),
            &cost,
        );
        let mut plan = fig5_plan();
        let mut times = vec![SimDuration::ZERO; 5];
        times[0] = SimDuration::from_micros(5);
        let mut replay = PlanReplay::default();
        let mut modeled = PlanReplay::default();
        assert_eq!(
            replay.run_measured(&plan, &ctx, &times),
            SimDuration::from_micros(5)
        );
        modeled.run(&plan, &ctx);
        assert_eq!(replay.busy_times()[0], SimDuration::from_micros(5));
        assert_eq!(replay.busy_times()[1..], modeled.busy_times()[1..]);
        // Shared experts on the CPU stay modeled: 4 tokens, then E0's 5.
        plan.shared_on = Device::Cpu;
        assert_eq!(
            replay.run_measured(&plan, &ctx, &times),
            SimDuration::from_micros(9)
        );
    }

    #[test]
    fn reset_empties_a_used_plan() {
        let mut plan = fig5_plan();
        plan.reset(LayerId(7), 3);
        assert_eq!(plan, SchedulePlan::empty(LayerId(7), 3));
    }

    #[test]
    fn empty_plan_is_valid_and_zero_cost() {
        let p = SchedulePlan::empty(LayerId(1), 0);
        assert_eq!(p.validate(&[]), Ok(()));
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(1), &[], &cost);
        assert!(p.to_ops(&ctx).is_empty());
        assert_eq!(PlanReplay::default().run(&p, &ctx), SimDuration::ZERO);
    }

    #[test]
    fn invalid_display_nonempty() {
        for e in [
            PlanInvalid::WrongComputeCount(ExpertId(0)),
            PlanInvalid::TransferredCached(ExpertId(0)),
            PlanInvalid::TransferNotConsumed(ExpertId(0)),
            PlanInvalid::MissingTransfer(ExpertId(0)),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
