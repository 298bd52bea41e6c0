//! # hybrimoe-sched
//!
//! The scheduling layer of HybriMoE: given one MoE layer's activated experts
//! (with their token loads and cache residency), decide which device
//! computes each expert and which experts are moved over PCIe, minimizing
//! the layer makespan `max(CPU_TIME, GPU_TIME)` (paper Eq. 2).
//!
//! * [`HybridScheduler`] — the paper's greedy timeline-filling simulation
//!   (§IV-B) with its three priority rules: GPU computes cached experts
//!   high-load-first, CPU computes uncached experts low-load-first (stealing
//!   cached low-load experts when idle), PCIe transfers uncached experts
//!   high-load-first.
//! * [`baselines`] — policy re-implementations of the three comparison
//!   systems: kTransformers (fixed expert mapping), AdapMoE (GPU-centric
//!   with on-demand loading) and llama.cpp (static layer split).
//! * [`prefetch`] — inter-layer prefetchers, including the paper's
//!   impact-driven simulation-based prefetcher (§IV-C).
//!
//! ## Example
//!
//! ```
//! use hybrimoe_hw::UnitCostModel;
//! use hybrimoe_model::{ExpertId, LayerId};
//! use hybrimoe_sched::{ExpertTask, HybridScheduler, PlanReplay, ScheduleContext, Scheduler};
//!
//! // The worked example of the paper's Fig. 5.
//! let tasks = vec![
//!     ExpertTask::uncached(ExpertId(0), 1), // A
//!     ExpertTask::uncached(ExpertId(1), 1), // B
//!     ExpertTask::uncached(ExpertId(2), 3), // C
//!     ExpertTask::cached(ExpertId(3), 4),   // D
//!     ExpertTask::cached(ExpertId(4), 1),   // E
//! ];
//! let cost = UnitCostModel::paper_fig5();
//! let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
//! let plan = HybridScheduler::new().schedule(&ctx);
//! let makespan = PlanReplay::default().run(&plan, &ctx);
//! assert_eq!(makespan.as_micros_f64(), 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod context;
mod hybrid;
mod oracle;
mod plan;
pub mod prefetch;
mod task;

pub use context::{ScheduleContext, ScheduleQueues, ScheduleScratch};
pub use hybrid::HybridScheduler;
pub use oracle::{oracle_makespan, ORACLE_MAX_TASKS};
pub use plan::{DevicePlacement, PlanReplay, PlannedTask, SchedulePlan};
pub use prefetch::{
    ImpactDrivenPrefetcher, NextLayerTopKPrefetcher, NoPrefetcher, PredictedLayer, PrefetchContext,
    PrefetchScratch, Prefetcher,
};
pub use task::ExpertTask;

/// A per-layer scheduling policy: maps activated experts to devices.
///
/// A policy only decides *orders*: which device computes each expert, in
/// what sequence, and which experts cross PCIe. What a plan costs is
/// [`PlanReplay`]'s answer — the clock the engine charges — so no
/// scheduler reports a makespan of its own.
pub trait Scheduler: std::fmt::Debug + Send + Sync {
    /// A short stable name for reports (e.g. `"hybrimoe"`).
    fn name(&self) -> &str;

    /// Overwrites `plan` with the execution plan for one layer, reusing
    /// the caller's device-queue buffers and the plan's own vectors (both
    /// typically a [`ScheduleScratch`]'s), so the hot serving loop
    /// allocates nothing per layer.
    fn schedule_into(
        &self,
        ctx: &ScheduleContext<'_>,
        queues: &mut ScheduleQueues,
        plan: &mut SchedulePlan,
    );

    /// Produces the execution plan for one layer in fresh buffers.
    fn schedule(&self, ctx: &ScheduleContext<'_>) -> SchedulePlan {
        let mut plan = SchedulePlan::empty(ctx.layer, ctx.tokens);
        self.schedule_into(ctx, &mut ScheduleQueues::new(), &mut plan);
        plan
    }
}
