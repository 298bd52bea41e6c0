//! Scheduling policies of the paper's three baseline systems.
//!
//! The paper compares HybriMoE against llama.cpp, AdapMoE and kTransformers
//! (§VI-A3). Each baseline is re-implemented here as a [`Scheduler`] on the
//! same substrate, so that every measured difference is attributable to the
//! policy, not the platform.
//!
//! The baselines are **batch-aware**, following Table I of the paper:
//! kTransformers uses CPU expert computation only during *decode* (small
//! batches); during prefill it falls back to on-demand loading. llama.cpp
//! computes CPU-mapped layers on the CPU at decode, but for large prompt
//! batches it streams (dequantized) weights to the GPU for the heavy
//! matmuls, cuBLAS-offload style.

use std::cmp::Reverse;

use hybrimoe_hw::{Device, ExpertProfile, GpuId};
use hybrimoe_model::shard_of;

use crate::{
    DevicePlacement, ExpertTask, PlannedTask, ScheduleContext, SchedulePlan, ScheduleQueues,
    Scheduler,
};

/// Token count at and above which a batch is treated as prefill.
pub const PREFILL_BATCH_THRESHOLD: u32 = 32;

/// Expansion factor of llama.cpp-style streamed weights relative to the
/// packed Q4 experts (weights are dequantized to f16 for cuBLAS: 16 bits
/// vs 5 bits per weight).
pub const STREAM_EXPANSION: f64 = 3.2;

/// kTransformers-style **fixed expert mapping** (Table I: "KTrans").
///
/// Decode: cached (GPU-mapped) experts run on the GPU, highest load first;
/// every uncached expert runs on the CPU, lowest load first — no
/// intra-layer transfers, no dynamic rebalancing (the "unbalanced" timeline
/// of the paper's Fig. 1(b)). Prefill: CPU computation is not used
/// (Table I), so misses are fetched on demand and computed on the GPU.
///
/// # Example
///
/// ```
/// use hybrimoe_hw::UnitCostModel;
/// use hybrimoe_model::{ExpertId, LayerId};
/// use hybrimoe_sched::baselines::FixedMappingScheduler;
/// use hybrimoe_sched::{ExpertTask, PlanReplay, ScheduleContext, Scheduler};
///
/// let tasks = vec![
///     ExpertTask::cached(ExpertId(0), 1),
///     ExpertTask::uncached(ExpertId(1), 7),
/// ];
/// let cost = UnitCostModel::paper_fig5();
/// let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
/// let plan = FixedMappingScheduler::new().schedule(&ctx);
/// // Decode-sized batch: the heavy uncached expert pins the CPU.
/// assert_eq!(PlanReplay::default().run(&plan, &ctx).as_micros_f64(), 7.0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct FixedMappingScheduler {}

impl FixedMappingScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        FixedMappingScheduler {}
    }
}

impl Scheduler for FixedMappingScheduler {
    fn name(&self) -> &str {
        "ktransformers"
    }

    fn schedule_into(
        &self,
        ctx: &ScheduleContext<'_>,
        _queues: &mut ScheduleQueues,
        plan: &mut SchedulePlan,
    ) {
        plan.reset(ctx.layer, ctx.tokens);
        if ctx.tokens >= PREFILL_BATCH_THRESHOLD {
            // Prefill: GPU-centric with on-demand loading.
            return gpu_centric(ctx, plan);
        }
        push_cached(ctx, plan, ctx.tasks.iter().filter(|t| t.cached));
        plan.cpu_order
            .extend(ctx.tasks.iter().filter(|t| !t.cached));
        plan.cpu_order.sort_unstable_by_key(|t| (t.load, t.expert));
    }
}

/// AdapMoE-style **GPU-centric scheduling** (Table I: "AdapMoE").
///
/// All experts compute on the GPU in both stages; uncached experts are
/// fetched on demand over PCIe (highest load first so the GPU stalls
/// least). The CPU performs no expert computation — the state of the art
/// for GPU-only MoE offloading, which HybriMoE's hybrid schedule is
/// designed to beat when PCIe is the bottleneck.
#[derive(Debug, Default, Clone)]
pub struct GpuOnlyScheduler {}

impl GpuOnlyScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        GpuOnlyScheduler {}
    }
}

impl Scheduler for GpuOnlyScheduler {
    fn name(&self) -> &str {
        "adapmoe"
    }

    fn schedule_into(
        &self,
        ctx: &ScheduleContext<'_>,
        _queues: &mut ScheduleQueues,
        plan: &mut SchedulePlan,
    ) {
        plan.reset(ctx.layer, ctx.tokens);
        gpu_centric(ctx, plan);
    }
}

/// llama.cpp-style **static layer split** (Table I: "llama.cpp").
///
/// Whole layers are mapped to a device ahead of time. GPU layers always run
/// on the GPU. CPU layers run on the CPU at decode, shared experts
/// included; for prefill-sized batches the heavy matmuls stream
/// *dequantized* weights to the GPU (cuBLAS offload), paying
/// [`STREAM_EXPANSION`]-times the PCIe bytes of a packed expert — which is
/// why llama.cpp's prefill is the slowest of the four systems while its
/// decode stays competitive.
#[derive(Debug, Default, Clone)]
pub struct StaticSplitScheduler {}

impl StaticSplitScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        StaticSplitScheduler {}
    }
}

impl Scheduler for StaticSplitScheduler {
    fn name(&self) -> &str {
        "llama.cpp"
    }

    fn schedule_into(
        &self,
        ctx: &ScheduleContext<'_>,
        _queues: &mut ScheduleQueues,
        plan: &mut SchedulePlan,
    ) {
        plan.reset(ctx.layer, ctx.tokens);
        let gpu_layer = !ctx.tasks.is_empty() && ctx.tasks.iter().all(|t| t.cached);
        if gpu_layer {
            push_cached(ctx, plan, ctx.tasks.iter());
        } else if ctx.tokens >= PREFILL_BATCH_THRESHOLD {
            // CPU layer, prefill batch: stream dequantized weights to the
            // GPU for the heavy matmuls. Streamed experts do NOT enter the
            // expert cache (llama.cpp discards them after the matmul), but
            // the schedule-level mechanics are the same as on-demand
            // loading with bigger transfers.
            plan.transfer_profile = Some(ExpertProfile::new(
                (ctx.routed_profile.bytes() as f64 * STREAM_EXPANSION) as u64,
                ctx.routed_profile.flops_per_token(),
            ));
            gpu_centric(ctx, plan);
        } else {
            // CPU layer, decode: everything, shared experts included, on
            // the CPU.
            plan.shared_on = Device::Cpu;
            plan.cpu_order.extend_from_slice(ctx.tasks);
            plan.cpu_order.sort_unstable_by_key(|t| (t.load, t.expert));
        }
    }
}

/// Fills the plan's empty GPU order with `tasks`, each computed from the
/// cache of its affinity shard, highest load first. Every sort key in this
/// module ends in the (unique) expert id, so the unstable sorts are
/// deterministic.
fn push_cached<'a>(
    ctx: &ScheduleContext<'_>,
    plan: &mut SchedulePlan,
    tasks: impl Iterator<Item = &'a ExpertTask>,
) {
    let n = ctx.num_gpus.max(1);
    plan.gpu_order.extend(tasks.map(|t| PlannedTask {
        task: *t,
        placement: DevicePlacement::Gpu(GpuId(shard_of(t.expert, n) as u8)),
    }));
    plan.gpu_order
        .sort_unstable_by_key(|g| (Reverse(g.task.load), g.task.expert));
}

/// The GPU-centric order: cached experts first, then the uncached ones as
/// they arrive over PCIe, both highest load first.
fn gpu_centric(ctx: &ScheduleContext<'_>, plan: &mut SchedulePlan) {
    push_cached(ctx, plan, ctx.tasks.iter().filter(|t| t.cached));
    let n = ctx.num_gpus.max(1);
    let SchedulePlan {
        gpu_order,
        pcie_order,
        ..
    } = plan;
    pcie_order.extend(ctx.tasks.iter().filter(|t| !t.cached));
    pcie_order.sort_unstable_by_key(|t| (Reverse(t.load), t.expert));
    gpu_order.extend(pcie_order.iter().map(|t| PlannedTask {
        task: *t,
        placement: DevicePlacement::GpuAfterTransfer(GpuId(shard_of(t.expert, n) as u8)),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanReplay;
    use hybrimoe_hw::{ExpertProfile, UnitCostModel};
    use hybrimoe_model::{ExpertId, LayerId};

    fn cost() -> UnitCostModel {
        UnitCostModel::paper_fig5()
    }

    /// What the engine charges for `plan`, in µs.
    fn replayed(plan: &SchedulePlan, ctx: &ScheduleContext<'_>) -> f64 {
        PlanReplay::default().run(plan, ctx).as_micros_f64()
    }

    fn mixed_tasks() -> Vec<ExpertTask> {
        vec![
            ExpertTask::uncached(ExpertId(0), 1),
            ExpertTask::uncached(ExpertId(1), 1),
            ExpertTask::uncached(ExpertId(2), 3),
            ExpertTask::cached(ExpertId(3), 4),
            ExpertTask::cached(ExpertId(4), 1),
        ]
    }

    #[test]
    fn fixed_mapping_decode_never_transfers() {
        let c = cost();
        let tasks = mixed_tasks();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &c);
        let plan = FixedMappingScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert!(plan.pcie_order.is_empty());
        // CPU: loads 1+1+3 = 5; GPU: 2 tasks x 1 = 2 → makespan 5.
        assert_eq!(replayed(&plan, &ctx), 5.0);
    }

    #[test]
    fn fixed_mapping_prefill_loads_on_demand() {
        let c = cost();
        // Prefill-sized loads (>= 32 tokens).
        let tasks = vec![
            ExpertTask::cached(ExpertId(0), 40),
            ExpertTask::uncached(ExpertId(1), 40),
        ];
        let ctx = ScheduleContext::new(LayerId(0), 40, &tasks, ExpertProfile::new(1, 1), None, &c);
        let plan = FixedMappingScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert!(plan.cpu_order.is_empty(), "no CPU compute at prefill");
        assert_eq!(plan.pcie_order.len(), 1);
    }

    #[test]
    fn fixed_mapping_is_beaten_by_hybrid_on_fig5() {
        let c = cost();
        let tasks = mixed_tasks();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &c);
        let fixed = FixedMappingScheduler::new().schedule(&ctx);
        let hybrid = crate::HybridScheduler::new().schedule(&ctx);
        assert!(replayed(&hybrid, &ctx) < replayed(&fixed, &ctx));
    }

    #[test]
    fn gpu_only_computes_everything_on_gpu() {
        let c = cost();
        let tasks = mixed_tasks();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &c);
        let plan = GpuOnlyScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert!(plan.cpu_order.is_empty());
        assert_eq!(plan.pcie_order.len(), 3);
        // Transfers (desc load): C at 3, E0 at 6, E1 at 9; GPU computes
        // cached D, E4 (2 units) then arrivals: 3→4, 6→7, 9→10.
        assert_eq!(replayed(&plan, &ctx), 10.0);
    }

    #[test]
    fn static_split_gpu_layer_runs_on_gpu() {
        let c = cost();
        let tasks = vec![
            ExpertTask::cached(ExpertId(0), 2),
            ExpertTask::cached(ExpertId(1), 1),
        ];
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &c);
        let plan = StaticSplitScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert!(plan.cpu_order.is_empty());
        assert_eq!(replayed(&plan, &ctx), 2.0);
    }

    #[test]
    fn static_split_cpu_layer_decodes_on_cpu() {
        let c = cost();
        let tasks = mixed_tasks(); // one uncached expert → CPU layer
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &c);
        let plan = StaticSplitScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert!(plan.gpu_order.is_empty());
        assert!(plan.pcie_order.is_empty());
        // All loads on CPU: 1+1+3+4+1 = 10.
        assert_eq!(replayed(&plan, &ctx), 10.0);
        // The shared experts run there too: the batch's 4 tokens first.
        let shared = Some(ExpertProfile::new(1, 1));
        let ctx = ScheduleContext::new(LayerId(0), 4, &tasks, ExpertProfile::new(1, 1), shared, &c);
        let plan = StaticSplitScheduler::new().schedule(&ctx);
        assert_eq!(plan.shared_on, Device::Cpu);
        assert_eq!(replayed(&plan, &ctx), 14.0);
    }

    #[test]
    fn static_split_cpu_layer_streams_at_prefill() {
        let c = cost();
        let tasks = vec![
            ExpertTask::uncached(ExpertId(0), 64),
            ExpertTask::cached(ExpertId(1), 64),
        ];
        let ctx = ScheduleContext::new(
            LayerId(0),
            64,
            &tasks,
            ExpertProfile::new(1000, 1),
            None,
            &c,
        );
        let plan = StaticSplitScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert!(plan.cpu_order.is_empty());
        // Both experts stream: the layer is not fully resident, and
        // llama.cpp moves the whole layer's matmuls to the GPU.
        assert_eq!(plan.pcie_order.len(), 1);
        let streamed = plan.transfer_profile.expect("stream profile set");
        assert_eq!(streamed.bytes(), 3200);
    }

    #[test]
    fn shared_experts_prefix_gpu_schedulers() {
        let c = cost();
        let tasks = vec![ExpertTask::cached(ExpertId(0), 2)];
        let shared = ExpertProfile::new(1, 1);
        let ctx = ScheduleContext::new(
            LayerId(0),
            2,
            &tasks,
            ExpertProfile::new(1, 1),
            Some(shared),
            &c,
        );
        for plan in [
            FixedMappingScheduler::new().schedule(&ctx),
            GpuOnlyScheduler::new().schedule(&ctx),
            crate::HybridScheduler::without_cpu_steal().schedule(&ctx),
        ] {
            assert_eq!(plan.shared_on, Device::gpu(0));
            // 1 unit shared + 1 unit expert.
            assert_eq!(replayed(&plan, &ctx), 2.0);
        }
    }

    #[test]
    fn scheduler_names_are_distinct() {
        let names = [
            FixedMappingScheduler::new().name().to_owned(),
            GpuOnlyScheduler::new().name().to_owned(),
            StaticSplitScheduler::new().name().to_owned(),
            crate::HybridScheduler::new().name().to_owned(),
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
