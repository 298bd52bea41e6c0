//! An exhaustive optimal scheduler for small task sets.
//!
//! The mapping problem is NP-hard in general (§III), but for the task-set
//! sizes of one MoE layer (≤ 8 activated experts for Mixtral/Qwen2) it can
//! be solved exactly by enumeration. The oracle is not part of the runtime
//! system — it exists to *measure the optimality gap* of the greedy hybrid
//! scheduler, an evaluation the paper does not include.
//!
//! For every assignment of tasks to {CPU, GPU-cached, transfer-then-GPU}
//! (cached tasks may run on CPU or GPU; uncached on CPU or via transfer),
//! the oracle computes the optimal makespan of that assignment:
//!
//! * CPU cost is order-independent (a sum), modulo the cold start;
//! * transfers are sequenced on PCIe and feed GPU computes; for ≤ 6
//!   transferred tasks every transfer order is tried, with the GPU greedily
//!   interleaving ready work.

use hybrimoe_hw::{SimDuration, SimTime};

use crate::{ExpertTask, ScheduleContext};

/// Upper bound on task-set size the oracle accepts (3^n assignments).
pub const ORACLE_MAX_TASKS: usize = 9;

/// Upper bound on simultaneously transferred tasks (n! transfer orders).
const MAX_TRANSFERS_ENUMERATED: usize = 6;

/// The exhaustively optimal layer makespan for `ctx`, or `None` if the task
/// set is too large to enumerate.
///
/// The returned value is the paper's objective (Eq. 2): the compute finish
/// time `max(CPU, GPU)` under the same cost model the schedulers use. It is
/// a lower bound certificate for any valid schedule of the layer.
///
/// # Example
///
/// ```
/// use hybrimoe_hw::UnitCostModel;
/// use hybrimoe_model::{ExpertId, LayerId};
/// use hybrimoe_sched::{oracle_makespan, ExpertTask, ScheduleContext};
///
/// // The Fig. 5 example: the optimum is the published 4 time units.
/// let tasks = vec![
///     ExpertTask::uncached(ExpertId(0), 1),
///     ExpertTask::uncached(ExpertId(1), 1),
///     ExpertTask::uncached(ExpertId(2), 3),
///     ExpertTask::cached(ExpertId(3), 4),
///     ExpertTask::cached(ExpertId(4), 1),
/// ];
/// let cost = UnitCostModel::paper_fig5();
/// let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
/// assert_eq!(oracle_makespan(&ctx).unwrap().as_micros_f64(), 4.0);
/// ```
pub fn oracle_makespan(ctx: &ScheduleContext<'_>) -> Option<SimDuration> {
    let n = ctx.tasks.len();
    if n > ORACLE_MAX_TASKS {
        return None;
    }
    if n == 0 {
        return Some(shared_preamble(ctx));
    }

    let mut best: Option<SimDuration> = None;
    // Each task has 2 placement choices encoded by a bit:
    // cached:   0 → GPU, 1 → CPU (steal)
    // uncached: 0 → transfer+GPU, 1 → CPU
    for mask in 0u32..(1 << n) {
        let mut cpu: Vec<ExpertTask> = Vec::new();
        let mut gpu: Vec<ExpertTask> = Vec::new();
        let mut transfers: Vec<ExpertTask> = Vec::new();
        for (i, t) in ctx.tasks.iter().enumerate() {
            let to_cpu = mask & (1 << i) != 0;
            match (t.cached, to_cpu) {
                (_, true) => cpu.push(*t),
                (true, false) => gpu.push(*t),
                (false, false) => transfers.push(*t),
            }
        }
        if transfers.len() > MAX_TRANSFERS_ENUMERATED {
            continue;
        }
        let makespan = assignment_makespan(ctx, &cpu, &gpu, &transfers);
        best = Some(match best {
            Some(b) => b.min(makespan),
            None => makespan,
        });
    }
    best
}

/// The GPU preamble cost for the shared experts, if any.
fn shared_preamble(ctx: &ScheduleContext<'_>) -> SimDuration {
    ctx.shared_profile
        .map(|s| ctx.cost.gpu_compute(&s, ctx.tokens))
        .unwrap_or(SimDuration::ZERO)
}

/// Optimal makespan of one fixed assignment.
fn assignment_makespan(
    ctx: &ScheduleContext<'_>,
    cpu: &[ExpertTask],
    gpu: &[ExpertTask],
    transfers: &[ExpertTask],
) -> SimDuration {
    // CPU: a sum; only the cold start depends on order (it applies to
    // whichever task runs first, so the sum is order-independent too).
    let mut cpu_t = SimDuration::ZERO;
    for (i, t) in cpu.iter().enumerate() {
        cpu_t += ctx.cost.cpu_compute(&ctx.routed_profile, t.load, i > 0);
    }

    // GPU + PCIe: try every transfer order (the GPU interleaves cached
    // work greedily while waiting for arrivals).
    let shared = shared_preamble(ctx);
    let mut best_gpu = None;
    let mut order: Vec<usize> = (0..transfers.len()).collect();
    permute(&mut order, 0, &mut |perm| {
        let gpu_time = gpu_schedule_makespan(ctx, gpu, transfers, perm, shared);
        best_gpu = Some(match best_gpu {
            Some(b) if b <= gpu_time => b,
            _ => gpu_time,
        });
    });
    let gpu_t = best_gpu.unwrap_or(shared);

    cpu_t.max(gpu_t)
}

/// GPU finish time for a fixed transfer order: cached tasks fill PCIe wait
/// gaps; arrivals are computed as they land.
fn gpu_schedule_makespan(
    ctx: &ScheduleContext<'_>,
    gpu: &[ExpertTask],
    transfers: &[ExpertTask],
    order: &[usize],
    shared: SimDuration,
) -> SimDuration {
    let mut gpu_t = SimTime::ZERO + shared;
    let mut pcie_t = SimTime::ZERO;
    let mut arrivals: Vec<(SimTime, u32)> = Vec::with_capacity(order.len());
    for &i in order {
        pcie_t += ctx.cost.transfer(&ctx.routed_profile);
        arrivals.push((pcie_t, transfers[i].load));
    }
    // Cached tasks are fully flexible: schedule them while waiting. A
    // simple exchange argument shows computing each arrival as early as
    // possible and filling gaps with cached work is optimal for makespan
    // on a single machine with release dates and flexible filler jobs.
    let mut cached: Vec<u32> = gpu.iter().map(|t| t.load).collect();
    cached.sort_unstable_by(|a, b| b.cmp(a));
    let mut ci = 0usize;
    for (ready, load) in arrivals {
        // Fill idle time before the arrival with cached tasks that fit.
        while gpu_t < ready && ci < cached.len() {
            gpu_t += ctx.cost.gpu_compute(&ctx.routed_profile, cached[ci]);
            ci += 1;
        }
        gpu_t = gpu_t.max(ready) + ctx.cost.gpu_compute(&ctx.routed_profile, load);
    }
    while ci < cached.len() {
        gpu_t += ctx.cost.gpu_compute(&ctx.routed_profile, cached[ci]);
        ci += 1;
    }
    gpu_t.elapsed_since(SimTime::ZERO)
}

/// Heap's algorithm over `items[at..]`.
fn permute(items: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        visit(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, visit);
        items.swap(at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HybridScheduler, ScheduleQueues};
    use hybrimoe_hw::UnitCostModel;
    use hybrimoe_model::{ExpertId, LayerId};

    fn fig5_tasks() -> Vec<ExpertTask> {
        vec![
            ExpertTask::uncached(ExpertId(0), 1),
            ExpertTask::uncached(ExpertId(1), 1),
            ExpertTask::uncached(ExpertId(2), 3),
            ExpertTask::cached(ExpertId(3), 4),
            ExpertTask::cached(ExpertId(4), 1),
        ]
    }

    #[test]
    fn fig5_optimum_is_four_units() {
        let cost = UnitCostModel::paper_fig5();
        let tasks = fig5_tasks();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        assert_eq!(oracle_makespan(&ctx).unwrap().as_micros_f64(), 4.0);
    }

    #[test]
    fn hybrid_is_optimal_on_fig5() {
        let cost = UnitCostModel::paper_fig5();
        let tasks = fig5_tasks();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let hybrid = HybridScheduler::new().makespan(&ctx, &mut ScheduleQueues::new());
        assert_eq!(hybrid, oracle_makespan(&ctx).unwrap());
    }

    #[test]
    fn empty_task_set() {
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &[], &cost);
        assert_eq!(oracle_makespan(&ctx), Some(SimDuration::ZERO));
    }

    #[test]
    fn oversized_task_set_declined() {
        let cost = UnitCostModel::paper_fig5();
        let tasks: Vec<ExpertTask> = (0..12)
            .map(|i| ExpertTask::cached(ExpertId(i), 1))
            .collect();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        assert_eq!(oracle_makespan(&ctx), None);
    }

    #[test]
    fn oracle_never_exceeds_hybrid_on_random_instances() {
        let cost = UnitCostModel::paper_fig5();
        let mut seed = 777u64;
        let mut optimal_hits = 0usize;
        let total = 150usize;
        let mut queues = ScheduleQueues::new();
        for _ in 0..total {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let n = 1 + (seed >> 40) as usize % 6;
            let tasks: Vec<ExpertTask> = (0..n)
                .map(|i| {
                    let s = seed.wrapping_add(i as u64 * 0x9E37);
                    ExpertTask {
                        expert: ExpertId(i as u16),
                        load: 1 + (s >> 13) as u32 % 5,
                        cached: (s >> 7).is_multiple_of(2),
                    }
                })
                .collect();
            let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
            let hybrid = HybridScheduler::new().makespan(&ctx, &mut queues);
            let oracle = oracle_makespan(&ctx).unwrap();
            assert!(oracle <= hybrid, "oracle {oracle} > hybrid {hybrid}");
            if oracle == hybrid {
                optimal_hits += 1;
            }
        }
        // The greedy should be exactly optimal on a large majority of
        // small instances (the paper's premise that the priority rules
        // capture the structure of the problem).
        assert!(
            optimal_hits * 10 >= total * 7,
            "hybrid optimal on only {optimal_hits}/{total}"
        );
    }

    #[test]
    fn shared_preamble_included() {
        let cost = UnitCostModel::paper_fig5();
        let tasks = vec![ExpertTask::cached(ExpertId(0), 1)];
        let ctx = ScheduleContext::new(
            LayerId(0),
            1,
            &tasks,
            hybrimoe_hw::ExpertProfile::new(1, 1),
            Some(hybrimoe_hw::ExpertProfile::new(1, 1)),
            &cost,
        );
        // 1 unit shared + 1 unit expert (GPU) — CPU steal of the only task
        // would still wait for nothing better: optimum is 2 on GPU path or
        // 1 via CPU while GPU does shared. CPU path: cpu=1, gpu=1 → max 1.
        assert_eq!(oracle_makespan(&ctx).unwrap().as_micros_f64(), 1.0);
    }
}
