//! Inputs to a scheduling decision.

use hybrimoe_hw::{CostModel, ExpertProfile, SimDuration, SimTime};
use hybrimoe_model::{ExpertId, ExpertKey, LayerId};

use crate::{ExpertTask, SchedulePlan};

/// Reusable device-queue buffers for one scheduling decision after another.
///
/// The [`HybridScheduler`](crate::HybridScheduler) simulates per-device
/// queues and clocks (one CPU queue, `N` GPU queues, `N` PCIe lane queues)
/// for every layer of every engine step — and once more per load class of
/// the impact-driven prefetcher's candidates; allocating them fresh each time churns
/// the allocator on the hot path. A `ScheduleQueues` owns those vectors
/// and is cleared — not freed — between uses. Pass it to
/// [`Scheduler::schedule_into`](crate::Scheduler::schedule_into) or
/// [`HybridScheduler::makespan`](crate::HybridScheduler::makespan);
/// schedulers that do not simulate queues ignore it.
#[derive(Debug, Default, Clone)]
pub struct ScheduleQueues {
    /// Per-shard GPU queues.
    pub(crate) gpu: Vec<Vec<crate::hybrid::GpuEntry>>,
    /// The CPU queue.
    pub(crate) cpu: Vec<ExpertTask>,
    /// Per-lane PCIe queues.
    pub(crate) pcie: Vec<Vec<ExpertTask>>,
    /// Per-shard GPU clocks.
    pub(crate) gpu_t: Vec<SimTime>,
    /// Per-lane PCIe clocks.
    pub(crate) pcie_t: Vec<SimTime>,
    /// Per-shard GPU and per-lane PCIe clocks that charge carried
    /// transfers their remainders when the greedy does not see them.
    pub(crate) gpu_done: Vec<SimTime>,
    pub(crate) pcie_done: Vec<SimTime>,
}

impl ScheduleQueues {
    /// Creates empty queue buffers.
    pub fn new() -> Self {
        ScheduleQueues::default()
    }
}

/// Reusable buffers for building one [`ScheduleContext`] after another.
///
/// A serving engine schedules every layer of every engine step; allocating
/// fresh task and protect vectors per layer churns the allocator on the hot
/// path, and the cost grows with batch size (more activated experts per
/// layer). A `ScheduleScratch` owns those buffers — plus the scheduler's
/// device-queue buffers ([`ScheduleQueues`]) and the plan it writes
/// ([`SchedulePlan`]) — and is cleared — not freed — between layers, so
/// steady-state scheduling allocates nothing.
///
/// # Example
///
/// ```
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
/// use hybrimoe_sched::{ExpertTask, ScheduleScratch};
///
/// let mut scratch = ScheduleScratch::new();
/// let layer = scratch.begin_layer();
/// layer.tasks.push(ExpertTask::cached(ExpertId(0), 1));
/// layer.protect.push(ExpertKey::new(LayerId(0), ExpertId(0)));
/// let layer = scratch.begin_layer();
/// assert!(layer.tasks.is_empty()); // cleared, capacity retained
/// ```
#[derive(Debug, Default, Clone)]
pub struct ScheduleScratch {
    /// The layer's activated task set.
    pub tasks: Vec<ExpertTask>,
    /// The layer's protected expert keys (shielded from eviction while the
    /// layer is in flight).
    pub protect: Vec<ExpertKey>,
    /// The scheduler's reusable device queues (cleared by the scheduler
    /// itself).
    pub queues: ScheduleQueues,
    /// The plan [`Scheduler::schedule_into`](crate::Scheduler::schedule_into)
    /// writes (reset by the scheduler itself).
    pub plan: SchedulePlan,
}

impl ScheduleScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        ScheduleScratch::default()
    }

    /// Clears the task and protect buffers (retaining capacity) and hands
    /// the scratch out for the next layer's bookkeeping.
    pub fn begin_layer(&mut self) -> &mut ScheduleScratch {
        self.tasks.clear();
        self.protect.clear();
        self
    }
}

/// Everything a [`Scheduler`](crate::Scheduler) needs to plan one layer.
///
/// # Example
///
/// ```
/// use hybrimoe_hw::UnitCostModel;
/// use hybrimoe_model::{ExpertId, LayerId};
/// use hybrimoe_sched::{ExpertTask, ScheduleContext};
///
/// let tasks = [ExpertTask::cached(ExpertId(0), 1)];
/// let cost = UnitCostModel::paper_fig5();
/// let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
/// assert_eq!(ctx.tokens, 1);
/// ```
#[derive(Debug)]
pub struct ScheduleContext<'a> {
    /// The layer being scheduled.
    pub layer: LayerId,
    /// Tokens in the current batch (1 during decode).
    pub tokens: u32,
    /// The activated experts with loads and residency. A cached expert is
    /// resident on its affinity shard
    /// ([`shard_of`](hybrimoe_model::shard_of)); with one GPU that is
    /// always GPU 0.
    pub tasks: &'a [ExpertTask],
    /// Cost profile of one routed expert of this model.
    pub routed_profile: ExpertProfile,
    /// Combined cost profile of the shared experts, if the model has any.
    /// They are pinned resident on GPU 0; the plan records where they run
    /// ([`SchedulePlan::shared_on`]).
    pub shared_profile: Option<ExpertProfile>,
    /// The platform cost model.
    pub cost: &'a dyn CostModel,
    /// Number of GPU shards the schedule may target (1 reproduces the
    /// paper's single-GPU setup).
    pub num_gpus: usize,
    /// Transfers already on the wire when the layer starts, with the wire
    /// time each still needs: an uncached task listed here that a plan
    /// transfers costs its remainder instead of a whole transfer (see
    /// [`with_inflight`](Self::with_inflight)). Empty by default.
    pub inflight: &'a [(ExpertId, SimDuration)],
}

impl<'a> ScheduleContext<'a> {
    /// Creates a single-GPU context; `tokens` is taken as the maximum task
    /// load (every token activates at least one expert, so the batch is at
    /// least the largest load). Scale out with
    /// [`with_gpus`](Self::with_gpus).
    pub fn new(
        layer: LayerId,
        tokens: u32,
        tasks: &'a [ExpertTask],
        routed_profile: ExpertProfile,
        shared_profile: Option<ExpertProfile>,
        cost: &'a dyn CostModel,
    ) -> Self {
        ScheduleContext {
            layer,
            tokens,
            tasks,
            routed_profile,
            shared_profile,
            cost,
            num_gpus: 1,
            inflight: &[],
        }
    }

    /// Carries transfers that are already on the wire into this layer's
    /// plan: each `(expert, remaining)` names an uncached task whose
    /// weights are partly across its PCIe lane, with `remaining` wire time
    /// left. A plan that transfers such an expert pays only `remaining`
    /// for it ([`SchedulePlan::lower`](crate::SchedulePlan) charges
    /// exactly that), and the [`HybridScheduler`](crate::HybridScheduler)
    /// puts it at the head of its lane, where the wire already is. A plan
    /// may still compute a carried expert on the CPU, discarding the head
    /// start.
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_hw::{SimDuration, UnitCostModel};
    /// use hybrimoe_model::{ExpertId, LayerId};
    /// use hybrimoe_sched::{ExpertTask, HybridScheduler, PlanReplay, ScheduleContext, Scheduler};
    ///
    /// let tasks = [ExpertTask::uncached(ExpertId(0), 4)];
    /// let cost = UnitCostModel::paper_fig5(); // a transfer takes 3 units
    /// let carried = [(ExpertId(0), SimDuration::from_micros(1))];
    /// let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_inflight(&carried);
    /// let plan = HybridScheduler::new().schedule(&ctx);
    /// // One unit of wire left plus one of GPU compute beats 4 on the CPU.
    /// assert_eq!(plan.transferred_experts().collect::<Vec<_>>(), [ExpertId(0)]);
    /// assert_eq!(PlanReplay::default().run(&plan, &ctx).as_micros_f64(), 2.0);
    /// ```
    pub fn with_inflight(mut self, inflight: &'a [(ExpertId, SimDuration)]) -> Self {
        self.inflight = inflight;
        self
    }

    /// The wire time `expert`'s transfer still needs if it is carried in
    /// from an earlier layer ([`with_inflight`](Self::with_inflight)).
    pub fn carried(&self, expert: ExpertId) -> Option<SimDuration> {
        self.inflight
            .iter()
            .find(|(e, _)| *e == expert)
            .map(|(_, remaining)| *remaining)
    }

    /// Overrides the GPU count (expert shards spread across the GPUs by the
    /// affinity map).
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn with_gpus(mut self, num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "a platform needs at least one GPU");
        self.num_gpus = num_gpus;
        self
    }

    /// A minimal context for unit tests and worked examples: no shared
    /// experts, a placeholder expert profile (the [`UnitCostModel`]
    /// ignores it), one GPU, and `tokens` equal to the maximum load.
    ///
    /// [`UnitCostModel`]: hybrimoe_hw::UnitCostModel
    pub fn for_test(layer: LayerId, tasks: &'a [ExpertTask], cost: &'a dyn CostModel) -> Self {
        let tokens = tasks.iter().map(|t| t.load).max().unwrap_or(0);
        ScheduleContext {
            layer,
            tokens,
            tasks,
            routed_profile: ExpertProfile::new(1, 1),
            shared_profile: None,
            cost,
            num_gpus: 1,
            inflight: &[],
        }
    }
}
