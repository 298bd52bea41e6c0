//! Visualizing a single layer's schedule as a Gantt chart.
//!
//! Takes one MoE layer of a real Mixtral prefill trace, schedules it with
//! each policy, and draws the CPU/GPU/PCIe timelines — the fastest way to
//! see *why* the hybrid schedule wins: the CPU absorbs small experts while
//! PCIe feeds the GPU the heavy ones.
//!
//! ```text
//! cargo run -p hybrimoe-examples --release --bin gantt_trace
//! ```

use hybrimoe_cache::{ExpertCache, Mrs};
use hybrimoe_hw::{AffineCostModel, Gantt, PlanExecutor, Platform};
use hybrimoe_model::{ExpertKey, ModelConfig};
use hybrimoe_sched::baselines::{FixedMappingScheduler, GpuOnlyScheduler};
use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, Scheduler};
use hybrimoe_trace::TraceGenerator;

fn main() {
    let model = ModelConfig::mixtral();
    let tokens = 64u32;
    let trace = TraceGenerator::new(model.clone(), 5).prefill_trace(tokens);
    let rec = &trace.steps[0].layers[3]; // an arbitrary mid-stack layer
    let layer = rec.routing.layer();

    // Cache half the experts (MRS policy, warmed by the routing itself).
    let mut cache = ExpertCache::new(model.cache_capacity_for_ratio(0.5), Box::new(Mrs::new(0.3)));
    for key in model.expert_keys().step_by(2) {
        cache.insert(key);
    }

    let tasks: Vec<ExpertTask> = rec
        .routing
        .activated()
        .into_iter()
        .map(|(expert, load)| ExpertTask {
            expert,
            load,
            cached: cache.contains(ExpertKey::new(layer, expert)),
        })
        .collect();
    println!(
        "{} prefill, layer {layer}, {} activated experts, loads {:?}\n",
        model.name,
        tasks.len(),
        tasks.iter().map(|t| t.load).collect::<Vec<_>>()
    );

    let cost = AffineCostModel::from_platform(&Platform::a6000_xeon10());
    let ctx = ScheduleContext::new(
        layer,
        tokens,
        &tasks,
        model.routed_profile(),
        model.shared_profile(),
        &cost,
    );

    let schedulers: [(&str, Box<dyn Scheduler>); 3] = [
        (
            "GPU-only on-demand (AdapMoE)",
            Box::new(GpuOnlyScheduler::new()),
        ),
        (
            "fixed mapping (kTransformers)",
            Box::new(FixedMappingScheduler::new()),
        ),
        ("hybrid (HybriMoE)", Box::new(HybridScheduler::new())),
    ];
    for (name, scheduler) in schedulers {
        let plan = scheduler.schedule(&ctx);
        plan.validate(&tasks).expect("valid plan");
        let executed = PlanExecutor::new()
            .execute(plan.to_ops(&ctx))
            .expect("acyclic plan");
        println!("-- {name}: {:.2} ms --", executed.makespan.as_millis_f64());
        println!("{}\n", Gantt::render(&executed.timelines, 64));
    }
}
