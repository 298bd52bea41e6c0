//! Fig. 1 — execution timelines of three scheduling scenarios for one MoE
//! layer with six activated experts: (a) pure on-demand loading, (b) an
//! unbalanced fixed CPU-GPU mapping, (c) the balanced hybrid schedule.
//!
//! GPU expert compute time is constant, CPU time scales with load, and the
//! balanced schedule finishes first — the motivating observation of the
//! paper.

use hybrimoe_hw::{Gantt, PlanExecutor, UnitCostModel};
use hybrimoe_model::{ExpertId, LayerId};
use hybrimoe_sched::baselines::{FixedMappingScheduler, GpuOnlyScheduler};
use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, Scheduler};

fn main() {
    println!("== Fig. 1: on-demand vs unbalanced vs balanced timelines ==\n");
    // Six experts, two cached, uneven loads.
    let tasks = vec![
        ExpertTask::cached(ExpertId(0), 4),
        ExpertTask::cached(ExpertId(1), 2),
        ExpertTask::uncached(ExpertId(2), 4),
        ExpertTask::uncached(ExpertId(3), 2),
        ExpertTask::uncached(ExpertId(4), 1),
        ExpertTask::uncached(ExpertId(5), 1),
    ];
    let cost = UnitCostModel::paper_fig5();
    let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);

    let scenarios: [(&str, Box<dyn Scheduler>); 3] = [
        (
            "(a) on-demand loading (GPU only)",
            Box::new(GpuOnlyScheduler::new()),
        ),
        (
            "(b) unbalanced hybrid (fixed mapping)",
            Box::new(FixedMappingScheduler::new()),
        ),
        (
            "(c) balanced hybrid (HybriMoE)",
            Box::new(HybridScheduler::new()),
        ),
    ];
    let mut results = Vec::new();
    for (title, scheduler) in scenarios {
        let plan = scheduler.schedule(&ctx);
        plan.validate(&tasks).expect("valid plan");
        let executed = PlanExecutor::new()
            .execute(plan.to_ops(&ctx))
            .expect("acyclic");
        println!(
            "-- {title}: makespan {} units --",
            executed.makespan.as_micros_f64()
        );
        println!("{}\n", Gantt::render(&executed.timelines, 56));
        results.push(executed.makespan);
    }
    assert!(
        results[2] <= results[1] && results[2] <= results[0],
        "the balanced schedule must finish first"
    );
    println!(
        "balanced hybrid is {:.2}x faster than on-demand and {:.2}x faster than unbalanced",
        results[0].as_nanos() as f64 / results[2].as_nanos() as f64,
        results[1].as_nanos() as f64 / results[2].as_nanos() as f64,
    );
}
