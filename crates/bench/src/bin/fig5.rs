//! Fig. 5 — the paper's worked scheduling example.
//!
//! CPU queue holds uncached experts A:1, B:1, C:3; the GPU cache holds
//! D:4 and E:1; transfers take 3 time units, GPU tasks 1 unit, CPU tasks
//! `load` units. The hybrid schedule loads C to the GPU instead of
//! computing it on the CPU and finishes in 4 units, against 5+ for the
//! fixed mapping.

use hybrimoe_hw::{Gantt, PlanExecutor, UnitCostModel};
use hybrimoe_model::{ExpertId, LayerId};
use hybrimoe_sched::baselines::FixedMappingScheduler;
use hybrimoe_sched::{ExpertTask, HybridScheduler, PlanReplay, ScheduleContext, Scheduler};

fn main() {
    println!("== Fig. 5: worked hybrid scheduling example ==\n");
    let tasks = vec![
        ExpertTask::uncached(ExpertId(0), 1), // A
        ExpertTask::uncached(ExpertId(1), 1), // B
        ExpertTask::uncached(ExpertId(2), 3), // C
        ExpertTask::cached(ExpertId(3), 4),   // D
        ExpertTask::cached(ExpertId(4), 1),   // E
    ];
    let names = ["A", "B", "C", "D", "E"];
    let cost = UnitCostModel::paper_fig5();
    let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);

    for (title, plan) in [
        (
            "HybriMoE hybrid schedule",
            HybridScheduler::new().schedule(&ctx),
        ),
        (
            "Fixed mapping (kTransformers-style)",
            FixedMappingScheduler::new().schedule(&ctx),
        ),
    ] {
        plan.validate(&tasks).expect("plan must be valid");
        let executed = PlanExecutor::new()
            .execute(plan.to_ops(&ctx))
            .expect("acyclic");
        println!("-- {title} --");
        println!(
            "  CPU order:  {:?}",
            plan.cpu_experts()
                .map(|e| names[e.0 as usize])
                .collect::<Vec<_>>()
        );
        println!(
            "  GPU order:  {:?}",
            plan.gpu_experts()
                .map(|e| names[e.0 as usize])
                .collect::<Vec<_>>()
        );
        println!(
            "  transfers:  {:?}",
            plan.transferred_experts()
                .map(|e| names[e.0 as usize])
                .collect::<Vec<_>>()
        );
        println!(
            "  makespan:   {} time units (replayed {})",
            executed.makespan.as_micros_f64(),
            PlanReplay::default().run(&plan, &ctx).as_micros_f64()
        );
        println!("{}\n", Gantt::render(&executed.timelines, 48));
    }
    println!("paper: the hybrid schedule finishes in 4 units by loading C to the GPU");
}
