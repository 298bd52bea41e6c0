//! The HybriMoE hybrid scheduling algorithm (paper §IV-B), generalized to
//! `N` GPU shards.

use hybrimoe_hw::{GpuId, SimDuration, SimTime};
use hybrimoe_model::shard_of;

use crate::{
    DevicePlacement, ExpertTask, PlannedTask, ScheduleContext, SchedulePlan, ScheduleQueues,
    Scheduler,
};

/// The paper's greedy timeline-filling scheduler.
///
/// Three priority rules turn the NP-hard mapping problem into queue
/// disciplines (§IV-B):
///
/// * **GPU priority** — each GPU computes its shard's cached experts,
///   highest load first;
/// * **CPU priority** — compute uncached experts, lowest load first; when
///   its queue drains, steal the lowest-load *cached* expert from any GPU
///   queue;
/// * **Transfer priority** — each PCIe lane moves its shard's uncached
///   experts host→GPU, highest load first; a transferred expert joins its
///   GPU's queue (ordered by load) and leaves the CPU queue. A transfer
///   carried in from an earlier layer
///   ([`ScheduleContext::with_inflight`]) heads its lane, costed at its
///   remaining wire time.
///
/// The scheduler then simulates all device timelines (one CPU, `N` GPUs,
/// `N` PCIe lanes): at every step the candidate operation with the
/// **earliest completion time** is committed (ties: CPU, then GPUs in shard
/// order, then PCIe lanes in shard order), until every activated expert is
/// computed exactly once. The simulation is the schedule: the committed
/// orders become the plan, and the simulated `max(CPU, GPU_0..GPU_{N-1})`
/// finish time is [`makespan`](HybridScheduler::makespan) (Eq. 2, with the
/// max taken over every compute device — transfer tails are excluded
/// because every transfer is consumed by a later GPU compute), which is
/// exactly what [`PlanReplay`](crate::PlanReplay) charges for the plan.
/// With `num_gpus = 1` the algorithm is exactly the paper's single-GPU
/// schedule.
///
/// Expert residency follows the static affinity map
/// ([`shard_of`](hybrimoe_model::shard_of)): a cached expert lives on its
/// affinity shard and a transfer lands there, so per-GPU caches never hold
/// duplicate copies.
///
/// # Example
///
/// ```
/// use hybrimoe_hw::UnitCostModel;
/// use hybrimoe_model::{ExpertId, LayerId};
/// use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, ScheduleQueues, Scheduler};
///
/// let tasks = vec![
///     ExpertTask::uncached(ExpertId(0), 2),
///     ExpertTask::cached(ExpertId(1), 2),
/// ];
/// let cost = UnitCostModel::paper_fig5();
/// let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
/// let hybrid = HybridScheduler::new();
/// let plan = hybrid.schedule(&ctx);
/// plan.validate(&tasks).unwrap();
/// // CPU takes the uncached expert, GPU the cached one, in parallel.
/// let makespan = hybrid.makespan(&ctx, &mut ScheduleQueues::new());
/// assert_eq!(makespan.as_micros_f64(), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct HybridScheduler {
    cpu_steal: bool,
}

impl HybridScheduler {
    /// The full algorithm, including CPU work-stealing of cached experts.
    pub fn new() -> Self {
        HybridScheduler { cpu_steal: true }
    }

    /// A variant without the CPU-steal rule, for ablation studies.
    pub fn without_cpu_steal() -> Self {
        HybridScheduler { cpu_steal: false }
    }

    /// The makespan of the plan [`schedule`](Scheduler::schedule) would
    /// build for `ctx`, without building it: the same simulation, with the
    /// committed orders dropped instead of recorded. The impact-driven
    /// prefetcher asks this once per load class of a predicted layer's
    /// candidates, so it runs on the caller's reusable `queues` and
    /// allocates nothing in steady state.
    pub fn makespan(&self, ctx: &ScheduleContext<'_>, queues: &mut ScheduleQueues) -> SimDuration {
        self.simulate(ctx, queues, None)
    }
}

impl Default for HybridScheduler {
    fn default() -> Self {
        HybridScheduler::new()
    }
}

/// A task waiting in one GPU's queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GpuEntry {
    task: ExpertTask,
    /// Transfer completion time for transferred experts, as the greedy
    /// sees it.
    ready: Option<SimTime>,
    /// When the weights are actually on the GPU: `ready`, unless the
    /// greedy ignores head starts that the clocks still charge (see
    /// `HybridScheduler::run`); zero for cached experts.
    arrived: SimTime,
}

/// The candidate op of one device at a simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidate {
    CpuQueueHead,
    /// Steal entry `idx` from shard `g`'s GPU queue.
    CpuSteal(usize, usize),
    /// Compute shard `g`'s queue head.
    GpuHead(usize),
    /// Transfer shard `g`'s lane head.
    PcieHead(usize),
}

impl Scheduler for HybridScheduler {
    fn name(&self) -> &str {
        "hybrimoe"
    }

    fn schedule_into(
        &self,
        ctx: &ScheduleContext<'_>,
        queues: &mut ScheduleQueues,
        plan: &mut SchedulePlan,
    ) {
        plan.reset(ctx.layer, ctx.tokens);
        self.simulate(ctx, queues, Some(plan));
    }
}

impl HybridScheduler {
    /// The timeline-filling simulation. Returns the makespan; with a
    /// `plan`, the committed orders are appended to it.
    ///
    /// Transfers carried in from an earlier layer head their lanes. A
    /// greedy is not monotone, though: a shorter transfer at the head of a
    /// lane can steer later choices into a longer schedule than the one
    /// without it. So when the layer carries any, the simulation also runs
    /// the greedy as if every transfer were whole, charging the carried
    /// ones their remainders on the clocks only; that schedule never costs
    /// more than the layer without head starts, and the cheaper of the two
    /// wins (the head-start one on a tie).
    fn simulate(
        &self,
        ctx: &ScheduleContext<'_>,
        queues: &mut ScheduleQueues,
        mut plan: Option<&mut SchedulePlan>,
    ) -> SimDuration {
        let led = self.run(ctx, queues, true, plan.as_deref_mut());
        if !ctx
            .tasks
            .iter()
            .any(|t| !t.cached && ctx.carried(t.expert).is_some())
        {
            return led;
        }
        let unled = self.run(ctx, queues, false, None);
        if unled >= led {
            return led;
        }
        if let Some(plan) = plan {
            plan.reset(ctx.layer, ctx.tokens);
            self.run(ctx, queues, false, Some(plan));
        }
        unled
    }

    /// One greedy pass. With `lead`, carried transfers head their lanes
    /// and the greedy sees their remaining wire time; without, the greedy
    /// orders and costs every transfer as a whole one, and only the
    /// clocks that yield the makespan charge the remainders.
    fn run(
        &self,
        ctx: &ScheduleContext<'_>,
        queues: &mut ScheduleQueues,
        lead: bool,
        mut plan: Option<&mut SchedulePlan>,
    ) -> SimDuration {
        let n = ctx.num_gpus.max(1);

        // Reset the caller's reusable queues (capacity retained across
        // layers; every sort key below is unique thanks to the expert-id
        // tie-break, so the unstable sorts are fully deterministic).
        let ScheduleQueues {
            gpu: gpu_q,
            cpu: cpu_q,
            pcie: pcie_q,
            gpu_t,
            pcie_t,
            gpu_done,
            pcie_done,
        } = queues;
        gpu_q.truncate(n);
        gpu_q.resize_with(n, Vec::new);
        pcie_q.truncate(n);
        pcie_q.resize_with(n, Vec::new);
        for q in gpu_q.iter_mut() {
            q.clear();
        }
        for q in pcie_q.iter_mut() {
            q.clear();
        }
        cpu_q.clear();

        // Per-shard GPU queues: cached experts of the shard, load
        // descending (ties: id ascending).
        for t in ctx.tasks.iter().filter(|t| t.cached) {
            gpu_q[shard_of(t.expert, n)].push(GpuEntry {
                task: *t,
                ready: None,
                arrived: SimTime::ZERO,
            });
        }
        for q in gpu_q.iter_mut() {
            q.sort_unstable_by_key(|e| (std::cmp::Reverse(e.task.load), e.task.expert));
        }

        // CPU queue: uncached experts, load ascending.
        cpu_q.extend(ctx.tasks.iter().filter(|t| !t.cached).copied());
        cpu_q.sort_unstable_by_key(|t| (t.load, t.expert));

        // Per-lane PCIe queues: the shard's uncached experts, load
        // descending — behind the transfers carried in from an earlier
        // layer, which are already on the wire (least remaining first).
        for t in cpu_q.iter() {
            pcie_q[shard_of(t.expert, n)].push(*t);
        }
        for q in pcie_q.iter_mut() {
            q.sort_unstable_by_key(|t| {
                let carried = ctx.carried(t.expert).filter(|_| lead);
                (
                    carried.is_none(),
                    carried,
                    std::cmp::Reverse(t.load),
                    t.expert,
                )
            });
        }

        let total = ctx.tasks.len();
        let mut computed = 0usize;

        let mut cpu_t = SimTime::ZERO;
        gpu_t.clear();
        gpu_t.resize(n, SimTime::ZERO);
        if let Some(shared) = ctx.shared_profile {
            // Shared experts are pinned on GPU 0 (the paper's single GPU).
            gpu_t[0] += ctx.cost.gpu_compute(&shared, ctx.tokens);
        }
        pcie_t.clear();
        pcie_t.resize(n, SimTime::ZERO);
        // The clocks the makespan comes from: the greedy's own, unless it
        // ignores head starts.
        gpu_done.clone_from(gpu_t);
        pcie_done.clone_from(pcie_t);
        let mut cpu_warm = false;
        // Every routed expert is the same size: one wire time for all but
        // the carried-in transfers.
        let wire = ctx.cost.transfer(&ctx.routed_profile);
        let actual_wire = |t: &ExpertTask| ctx.carried(t.expert).unwrap_or(wire);
        let seen_wire = |t: &ExpertTask| if lead { actual_wire(t) } else { wire };
        let mut costs = ComputeCosts::new(ctx);

        while computed < total {
            // Rank is (class, shard): class 0 = CPU, 1 = GPU, 2 = PCIe;
            // with one GPU this is exactly the paper's CPU/GPU/PCIe
            // tie-break.
            let mut best: Option<(SimTime, (u8, usize), Candidate)> = None;
            let mut consider = |finish: SimTime, rank: (u8, usize), c: Candidate| {
                if best.is_none_or(|(bf, br, _)| (finish, rank) < (bf, br)) {
                    best = Some((finish, rank, c));
                }
            };

            // CPU: uncached head, else steal the lowest-load cached entry
            // across every shard.
            if let Some(head) = cpu_q.first() {
                let d = costs.cpu(head.load, cpu_warm);
                consider(cpu_t + d, (0, 0), Candidate::CpuQueueHead);
            } else if self.cpu_steal {
                // Steal only experts that are genuinely cached (not in
                // flight over PCIe) — lowest load first, across all shards.
                let steal = gpu_q
                    .iter()
                    .enumerate()
                    .flat_map(|(g, q)| q.iter().enumerate().map(move |(i, e)| (g, i, e)))
                    .filter(|(_, _, e)| e.ready.is_none())
                    .min_by_key(|(g, _, e)| (e.task.load, e.task.expert, *g));
                if let Some((g, idx, entry)) = steal {
                    let d = costs.cpu(entry.task.load, cpu_warm);
                    consider(cpu_t + d, (0, 0), Candidate::CpuSteal(g, idx));
                }
            }

            // Each GPU: queue head (highest load), honoring transfer
            // arrival.
            for (g, q) in gpu_q.iter().enumerate() {
                if let Some(head) = q.first() {
                    let start = head.ready.map_or(gpu_t[g], |r| gpu_t[g].max(r));
                    let d = costs.gpu(head.task.load);
                    consider(start + d, (1, g), Candidate::GpuHead(g));
                }
            }

            // Each PCIe lane: queue head (highest-load uncached of the
            // shard not yet computed). A transfer is only useful through
            // the GPU compute it feeds, so its effective completion
            // includes that compute: without this, the greedy commits
            // transfers that finish early on the wire but land the expert
            // on the GPU *later* than the CPU would have finished it.
            for (g, q) in pcie_q.iter().enumerate() {
                if let Some(head) = q.first() {
                    let arrival = pcie_t[g] + seen_wire(head);
                    let compute_start = arrival.max(gpu_t[g]);
                    let d = costs.gpu(head.load);
                    consider(compute_start + d, (2, g), Candidate::PcieHead(g));
                }
            }

            let Some((finish, _, candidate)) = best else {
                // No candidate but tasks remain: impossible by construction
                // (every task sits in at least one queue).
                unreachable!("scheduler ran out of candidates");
            };

            match candidate {
                Candidate::CpuQueueHead => {
                    let task = cpu_q.remove(0);
                    pcie_q[shard_of(task.expert, n)].retain(|t| t.expert != task.expert);
                    cpu_t = finish;
                    cpu_warm = true;
                    if let Some(plan) = plan.as_deref_mut() {
                        plan.cpu_order.push(task);
                    }
                    computed += 1;
                }
                Candidate::CpuSteal(g, idx) => {
                    let entry = gpu_q[g].remove(idx);
                    cpu_t = finish;
                    cpu_warm = true;
                    if let Some(plan) = plan.as_deref_mut() {
                        plan.cpu_order.push(entry.task);
                    }
                    computed += 1;
                }
                Candidate::GpuHead(g) => {
                    let entry = gpu_q[g].remove(0);
                    gpu_t[g] = finish;
                    gpu_done[g] = gpu_done[g].max(entry.arrived) + costs.gpu(entry.task.load);
                    if let Some(plan) = plan.as_deref_mut() {
                        plan.gpu_order.push(PlannedTask {
                            task: entry.task,
                            placement: if entry.ready.is_some() {
                                DevicePlacement::GpuAfterTransfer(GpuId(g as u8))
                            } else {
                                DevicePlacement::Gpu(GpuId(g as u8))
                            },
                        });
                    }
                    computed += 1;
                }
                Candidate::PcieHead(g) => {
                    // `finish` includes the downstream GPU compute (the
                    // selection metric); the wire itself frees earlier.
                    let task = pcie_q[g].remove(0);
                    cpu_q.retain(|t| t.expert != task.expert);
                    let arrival = pcie_t[g] + seen_wire(&task);
                    pcie_t[g] = arrival;
                    pcie_done[g] += actual_wire(&task);
                    if let Some(plan) = plan.as_deref_mut() {
                        plan.pcie_order.push(task);
                    }
                    insert_by_load(
                        &mut gpu_q[g],
                        GpuEntry {
                            task,
                            ready: Some(arrival),
                            arrived: pcie_done[g],
                        },
                    );
                }
            }
        }

        // Makespan = max over all compute timelines (Eq. 2 generalized).
        let finish = gpu_done.iter().fold(cpu_t, |acc, t| acc.max(*t));
        finish.elapsed_since(SimTime::ZERO)
    }
}

/// The compute cost of a routed expert at a given load, remembering the
/// last answer per device. The simulation asks for the queue heads' costs
/// again on every step, and a layer's experts share few distinct loads
/// (one, at decode), so most of the cost model's float math — the bulk of
/// a simulation otherwise — is a repeat.
struct ComputeCosts<'a> {
    ctx: &'a ScheduleContext<'a>,
    /// Last CPU cost, cold and warm.
    cpu: [Option<(u32, SimDuration)>; 2],
    gpu: Option<(u32, SimDuration)>,
}

impl<'a> ComputeCosts<'a> {
    fn new(ctx: &'a ScheduleContext<'a>) -> Self {
        ComputeCosts {
            ctx,
            cpu: [None; 2],
            gpu: None,
        }
    }

    fn cpu(&mut self, load: u32, warm: bool) -> SimDuration {
        let ctx = self.ctx;
        remembered(&mut self.cpu[usize::from(warm)], load, || {
            ctx.cost.cpu_compute(&ctx.routed_profile, load, warm)
        })
    }

    fn gpu(&mut self, load: u32) -> SimDuration {
        let ctx = self.ctx;
        remembered(&mut self.gpu, load, || {
            ctx.cost.gpu_compute(&ctx.routed_profile, load)
        })
    }
}

/// `last`'s cost if it was computed for `load`, else `compute()`'s,
/// remembered.
fn remembered(
    last: &mut Option<(u32, SimDuration)>,
    load: u32,
    compute: impl FnOnce() -> SimDuration,
) -> SimDuration {
    match *last {
        Some((l, cost)) if l == load => cost,
        _ => {
            let cost = compute();
            *last = Some((load, cost));
            cost
        }
    }
}

/// Inserts into a GPU queue keeping load-descending order (stable: equal
/// loads keep arrival order, ties broken after existing entries).
fn insert_by_load(gpu_q: &mut Vec<GpuEntry>, entry: GpuEntry) {
    let pos = gpu_q
        .iter()
        .position(|e| e.task.load < entry.task.load)
        .unwrap_or(gpu_q.len());
    gpu_q.insert(pos, entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanReplay;
    use hybrimoe_hw::{PlanExecutor, UnitCostModel};
    use hybrimoe_model::{ExpertId, LayerId};

    fn us(n: f64) -> f64 {
        n
    }

    /// What the engine charges for `plan`, in µs.
    fn replayed(plan: &SchedulePlan, ctx: &ScheduleContext<'_>) -> f64 {
        PlanReplay::default().run(plan, ctx).as_micros_f64()
    }

    fn fig5_tasks() -> Vec<ExpertTask> {
        vec![
            ExpertTask::uncached(ExpertId(0), 1), // A
            ExpertTask::uncached(ExpertId(1), 1), // B
            ExpertTask::uncached(ExpertId(2), 3), // C
            ExpertTask::cached(ExpertId(3), 4),   // D
            ExpertTask::cached(ExpertId(4), 1),   // E
        ]
    }

    #[test]
    fn fig5_golden_schedule() {
        // Paper Fig. 5: makespan 4 time units; C is loaded to the GPU
        // instead of being computed on the CPU; A and B run on the CPU.
        let tasks = fig5_tasks();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert_eq!(replayed(&plan, &ctx), us(4.0));
        let transferred: Vec<ExpertId> = plan.transferred_experts().collect();
        assert_eq!(transferred, vec![ExpertId(2)]);
        let cpu: Vec<ExpertId> = plan.cpu_experts().collect();
        assert!(cpu.contains(&ExpertId(0)));
        assert!(cpu.contains(&ExpertId(1)));
        // D stays on the GPU.
        assert!(plan.gpu_experts().any(|e| e == ExpertId(3)));
    }

    #[test]
    fn fig5_prediction_matches_executor() {
        let tasks = fig5_tasks();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();
        let predicted = HybridScheduler::new().makespan(&ctx, &mut ScheduleQueues::new());
        assert_eq!(executed.makespan, predicted);
    }

    #[test]
    fn all_cached_goes_to_gpu_with_steals() {
        let tasks = vec![
            ExpertTask::cached(ExpertId(0), 3),
            ExpertTask::cached(ExpertId(1), 2),
            ExpertTask::cached(ExpertId(2), 1),
        ];
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        // GPU takes 1 unit per task; the CPU steals the lowest-load expert
        // (1 unit on CPU) in parallel: makespan 2 beats GPU-only's 3.
        assert_eq!(replayed(&plan, &ctx), us(2.0));
        assert_eq!(plan.cpu_order.len(), 1);
        assert_eq!(plan.cpu_order[0].expert, ExpertId(2));
    }

    #[test]
    fn without_steal_leaves_cached_on_gpu() {
        let tasks = vec![
            ExpertTask::cached(ExpertId(0), 3),
            ExpertTask::cached(ExpertId(1), 1),
        ];
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::without_cpu_steal().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert!(plan.cpu_order.is_empty());
        assert_eq!(plan.gpu_order.len(), 2);
    }

    #[test]
    fn all_uncached_splits_between_cpu_and_transfer() {
        // Six uncached experts of load 2: CPU computes the cheap ones while
        // PCIe feeds the GPU.
        let tasks: Vec<ExpertTask> = (0..6)
            .map(|i| ExpertTask::uncached(ExpertId(i), 2))
            .collect();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        assert!(!plan.cpu_order.is_empty(), "CPU must take some work");
        assert!(!plan.pcie_order.is_empty(), "PCIe must take some work");
        // Pure CPU would need 12 units; pure transfer+GPU 3+6*1s staggered.
        assert!(replayed(&plan, &ctx) < us(12.0));
    }

    #[test]
    fn gpu_orders_by_load_descending() {
        let tasks = vec![
            ExpertTask::cached(ExpertId(0), 1),
            ExpertTask::cached(ExpertId(1), 5),
            ExpertTask::cached(ExpertId(2), 3),
        ];
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::without_cpu_steal().schedule(&ctx);
        let gpu: Vec<ExpertId> = plan.gpu_experts().collect();
        assert_eq!(gpu, vec![ExpertId(1), ExpertId(2), ExpertId(0)]);
    }

    #[test]
    fn cpu_orders_by_load_ascending() {
        // Make transfers prohibitively slow so everything lands on the CPU.
        let cost = UnitCostModel {
            cpu_per_load: hybrimoe_hw::SimDuration::from_micros(1),
            gpu_per_task: hybrimoe_hw::SimDuration::from_micros(1),
            transfer_per_expert: hybrimoe_hw::SimDuration::from_micros(1_000),
        };
        let tasks = vec![
            ExpertTask::uncached(ExpertId(0), 5),
            ExpertTask::uncached(ExpertId(1), 1),
            ExpertTask::uncached(ExpertId(2), 3),
        ];
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        let cpu: Vec<ExpertId> = plan.cpu_experts().collect();
        assert_eq!(cpu, vec![ExpertId(1), ExpertId(2), ExpertId(0)]);
        assert!(plan.pcie_order.is_empty());
    }

    #[test]
    fn empty_task_set_gives_empty_plan() {
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &[], &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        assert_eq!(replayed(&plan, &ctx), 0.0);
        assert!(plan.cpu_order.is_empty() && plan.gpu_order.is_empty());
    }

    #[test]
    fn insert_by_load_keeps_descending_order() {
        let mk = |load| GpuEntry {
            task: ExpertTask::cached(ExpertId(load as u16), load),
            ready: None,
            arrived: SimTime::ZERO,
        };
        let mut q = vec![mk(5), mk(3), mk(1)];
        insert_by_load(&mut q, mk(4));
        let loads: Vec<u32> = q.iter().map(|e| e.task.load).collect();
        assert_eq!(loads, vec![5, 4, 3, 1]);
        insert_by_load(&mut q, mk(9));
        assert_eq!(q[0].task.load, 9);
        insert_by_load(&mut q, mk(0));
        assert_eq!(q.last().unwrap().task.load, 0);
    }

    #[test]
    fn hybrid_beats_or_matches_fixed_split_on_random_inputs() {
        // The greedy schedule must never be worse than either trivial
        // policy: everything-on-CPU or cached-on-GPU/uncached-on-CPU.
        let cost = UnitCostModel::paper_fig5();
        let mut seed = 12345u64;
        for _ in 0..200 {
            let n = 1 + (seed % 7) as usize;
            let mut tasks = Vec::new();
            for i in 0..n {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let load = 1 + (seed >> 33) % 6;
                let cached = (seed >> 17).is_multiple_of(2);
                tasks.push(ExpertTask {
                    expert: ExpertId(i as u16),
                    load: load as u32,
                    cached,
                });
            }
            let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
            let plan = HybridScheduler::new().schedule(&ctx);
            plan.validate(&tasks).unwrap();

            // Fixed mapping: cached → GPU sequentially, uncached → CPU.
            let gpu_time: f64 = tasks.iter().filter(|t| t.cached).count() as f64;
            let cpu_time: f64 = tasks
                .iter()
                .filter(|t| !t.cached)
                .map(|t| t.load as f64)
                .sum();
            let fixed = gpu_time.max(cpu_time);
            assert!(
                replayed(&plan, &ctx) <= fixed + 1e-9,
                "hybrid {} > fixed {} for {:?}",
                replayed(&plan, &ctx),
                fixed,
                tasks
            );
        }
    }

    #[test]
    fn two_gpus_place_experts_on_their_affinity_shard() {
        let tasks = vec![
            ExpertTask::cached(ExpertId(0), 4), // shard 0
            ExpertTask::cached(ExpertId(1), 4), // shard 1
            ExpertTask::cached(ExpertId(2), 4), // shard 0
            ExpertTask::cached(ExpertId(3), 4), // shard 1
        ];
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(2);
        let plan = HybridScheduler::without_cpu_steal().schedule(&ctx);
        plan.validate(&tasks).unwrap();
        for g in &plan.gpu_order {
            let expect = shard_of(g.task.expert, 2) as u8;
            assert_eq!(g.placement.gpu(), Some(GpuId(expect)), "{:?}", g.task);
        }
        // Two GPUs halve the serial cached chain: 2 units, not 4.
        assert_eq!(replayed(&plan, &ctx), us(2.0));
    }

    #[test]
    fn more_gpus_never_slow_a_cached_layer() {
        let tasks: Vec<ExpertTask> = (0..8).map(|i| ExpertTask::cached(ExpertId(i), 2)).collect();
        let cost = UnitCostModel::paper_fig5();
        let mut last = f64::INFINITY;
        for n in [1usize, 2, 4] {
            let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(n);
            let plan = HybridScheduler::without_cpu_steal().schedule(&ctx);
            plan.validate(&tasks).unwrap();
            let m = replayed(&plan, &ctx);
            assert!(m <= last, "N={n}: {m} > {last}");
            last = m;
        }
    }

    #[test]
    fn multi_gpu_prediction_matches_executor() {
        let tasks = fig5_tasks();
        let cost = UnitCostModel::paper_fig5();
        for n in [1usize, 2, 3, 4] {
            let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(n);
            let plan = HybridScheduler::new().schedule(&ctx);
            plan.validate(&tasks).unwrap();
            let executed = PlanExecutor::new()
                .with_gpus(n)
                .execute(plan.to_ops(&ctx))
                .unwrap();
            let predicted = HybridScheduler::new().makespan(&ctx, &mut ScheduleQueues::new());
            assert_eq!(executed.makespan, predicted, "N={n}");
        }
    }

    #[test]
    fn schedule_into_reused_buffers_is_identical() {
        // One ScheduleQueues and one plan driven across layers and GPU
        // counts (growing and shrinking the per-shard vectors) must give
        // the same plans as fresh per-call buffers — and the makespan-only
        // entry, sharing the queues, the same makespan.
        let cost = UnitCostModel::paper_fig5();
        let mut queues = ScheduleQueues::new();
        let mut reused = SchedulePlan::empty(LayerId(9), 9);
        for n in [1usize, 3, 2, 1, 4] {
            let tasks = fig5_tasks();
            let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(n);
            let fresh = HybridScheduler::new().schedule(&ctx);
            HybridScheduler::new().schedule_into(&ctx, &mut queues, &mut reused);
            assert_eq!(fresh, reused, "N={n}");
            assert_eq!(
                HybridScheduler::new().makespan(&ctx, &mut queues),
                PlanReplay::default().run(&fresh, &ctx),
                "N={n}"
            );
        }
    }

    #[test]
    fn single_gpu_context_matches_default_context() {
        // with_gpus(1) must be the identity: same plan, same placements.
        let tasks = fig5_tasks();
        let cost = UnitCostModel::paper_fig5();
        let base = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let one = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(1);
        assert_eq!(
            HybridScheduler::new().schedule(&base),
            HybridScheduler::new().schedule(&one)
        );
    }
}
