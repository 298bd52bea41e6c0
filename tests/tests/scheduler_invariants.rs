//! Property-based invariants on the schedulers, checked across random task
//! sets: plans are complete and valid, a plan costs on the replay clock
//! (what the engine charges) exactly what the ground-truth plan executor
//! says — makespan and every device's busy time — and, for the hybrid,
//! what the scheduler's own simulation says, the shared
//! experts are always charged, transfers carried in from an earlier layer
//! cost exactly their remaining wire time, and the hybrid schedule never
//! loses to the fixed mapping.

use hybrimoe_hw::{Device, ExecutedPlan, ExpertProfile, PlanExecutor, SimDuration, UnitCostModel};
use hybrimoe_model::{shard_of, ExpertId, LayerId};
use hybrimoe_sched::baselines::{
    FixedMappingScheduler, GpuOnlyScheduler, StaticSplitScheduler, PREFILL_BATCH_THRESHOLD,
};
use hybrimoe_sched::{
    ExpertTask, HybridScheduler, PlanReplay, ScheduleContext, SchedulePlan, ScheduleQueues,
    Scheduler,
};
use proptest::prelude::*;

fn arb_tasks() -> impl Strategy<Value = Vec<ExpertTask>> {
    proptest::collection::vec((1u32..12, any::<bool>()), 1..10).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (load, cached))| ExpertTask {
                expert: ExpertId(i as u16),
                load,
                cached,
            })
            .collect()
    })
}

/// Every scheduler the engine can be configured with.
fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(HybridScheduler::new()),
        Box::new(HybridScheduler::without_cpu_steal()),
        Box::new(FixedMappingScheduler::new()),
        Box::new(GpuOnlyScheduler::new()),
        Box::new(StaticSplitScheduler::new()),
    ]
}

/// What the engine charges for `plan`.
fn replayed(plan: &SchedulePlan, ctx: &ScheduleContext<'_>) -> SimDuration {
    PlanReplay::default().run(plan, ctx)
}

/// The replay clock's makespan and per-device busy times for `plan`.
fn replay_clock(plan: &SchedulePlan, ctx: &ScheduleContext<'_>) -> (SimDuration, Vec<SimDuration>) {
    let mut replay = PlanReplay::default();
    (replay.run(plan, ctx), replay.busy_times().to_vec())
}

/// The executor's makespan and per-device busy times, to compare with
/// [`replay_clock`].
fn executor_clock(executed: &ExecutedPlan) -> (SimDuration, Vec<SimDuration>) {
    (executed.makespan, executed.timelines.busy_times())
}

fn arb_cost() -> impl Strategy<Value = UnitCostModel> {
    (1u64..6, 1u64..6, 1u64..12).prop_map(|(cpu, gpu, xfer)| UnitCostModel {
        cpu_per_load: SimDuration::from_micros(cpu),
        gpu_per_task: SimDuration::from_micros(gpu),
        transfer_per_expert: SimDuration::from_micros(xfer),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hybrid_plans_are_valid_and_prediction_matches_executor(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let hybrid = HybridScheduler::new();
        let plan = hybrid.schedule(&ctx);
        prop_assert_eq!(plan.validate(&tasks), Ok(()));
        let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();
        // The executor includes PCIe tails; the paper's objective (Eq. 2)
        // excludes them, but every transfer is consumed by a GPU compute so
        // the two agree exactly.
        prop_assert_eq!(executed.makespan, hybrid.makespan(&ctx, &mut ScheduleQueues::new()));
        prop_assert_eq!(executor_clock(&executed), replay_clock(&plan, &ctx));
    }

    #[test]
    fn baseline_plans_are_valid(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        for scheduler in [
            Box::new(FixedMappingScheduler::new()) as Box<dyn Scheduler>,
            Box::new(GpuOnlyScheduler::new()),
        ] {
            let plan = scheduler.schedule(&ctx);
            prop_assert_eq!(plan.validate(&tasks), Ok(()));
            let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();
            prop_assert_eq!(executor_clock(&executed), replay_clock(&plan, &ctx));
        }
    }

    #[test]
    fn hybrid_never_loses_to_fixed_mapping(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let hybrid = replayed(&HybridScheduler::new().schedule(&ctx), &ctx);
        let fixed = replayed(&FixedMappingScheduler::new().schedule(&ctx), &ctx);
        prop_assert!(hybrid <= fixed, "hybrid {} > fixed {} on {:?}", hybrid, fixed, tasks);
    }

    #[test]
    fn hybrid_without_steal_is_still_valid(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::without_cpu_steal().schedule(&ctx);
        prop_assert_eq!(plan.validate(&tasks), Ok(()));
    }

    #[test]
    fn every_cached_task_avoids_pcie(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);
        for x in &plan.pcie_order {
            prop_assert!(!x.cached, "cached expert {} transferred", x.expert);
        }
    }
}

// The new suites run under `ProptestConfig::default()`, whose case count CI
// pins via the PROPTEST_CASES environment variable.
proptest! {
    /// Conservation across **all** schedulers, llama.cpp included: every
    /// activated expert is computed exactly once, on exactly one device.
    #[test]
    fn every_activated_expert_computed_exactly_once(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            prop_assert_eq!(plan.validate(&tasks), Ok(()), "{} invalid", scheduler.name());
            for t in &tasks {
                let computes = plan.cpu_experts().filter(|e| *e == t.expert).count()
                    + plan.gpu_experts().filter(|e| *e == t.expert).count();
                prop_assert_eq!(
                    computes, 1,
                    "{}: expert {} computed {} times", scheduler.name(), t.expert, computes
                );
            }
        }
    }

    /// The paper's objective (Eq. 2): the realized makespan is exactly
    /// `max(CPU, GPU)` finish time — PCIe never has a dangling tail because
    /// every committed transfer is consumed by a GPU compute.
    #[test]
    fn makespan_equals_max_of_cpu_and_gpu_timelines(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();
            let cpu_end = executed.timelines.get(Device::Cpu).ready_at();
            let gpu_end = executed.timelines.get(Device::gpu(0)).ready_at();
            let expected = cpu_end.max(gpu_end).elapsed_since(hybrimoe_hw::SimTime::ZERO);
            prop_assert_eq!(
                executed.makespan, expected,
                "{}: makespan {} != max(CPU {}, GPU {})",
                scheduler.name(), executed.makespan, cpu_end, gpu_end
            );
            prop_assert_eq!(
                executor_clock(&executed), replay_clock(&plan, &ctx),
                "{} replay off", scheduler.name()
            );
        }
    }

    /// The same invariants hold in the prefill regime, where the batch-aware
    /// baselines switch policy (kTransformers stops using the CPU, llama.cpp
    /// streams dequantized weights).
    #[test]
    fn prefill_contexts_keep_all_invariants(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let tokens = PREFILL_BATCH_THRESHOLD + 8;
        let ctx = ScheduleContext::new(
            LayerId(0),
            tokens,
            &tasks,
            hybrimoe_hw::ExpertProfile::new(100, 10),
            None,
            &cost,
        );
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            prop_assert_eq!(plan.validate(&tasks), Ok(()), "{} invalid at prefill", scheduler.name());
            let executed = PlanExecutor::new().execute(plan.to_ops(&ctx)).unwrap();
            prop_assert_eq!(
                executor_clock(&executed), replay_clock(&plan, &ctx),
                "{} prefill replay off", scheduler.name()
            );
        }
    }

    /// HybriMoE's makespan never exceeds the fixed mapping's on the same
    /// context, decode or prefill.
    #[test]
    fn hybrid_never_loses_to_fixed_mapping_any_regime(
        tasks in arb_tasks(),
        cost in arb_cost(),
        prefill in any::<bool>(),
    ) {
        let tokens = if prefill {
            PREFILL_BATCH_THRESHOLD
        } else {
            tasks.iter().map(|t| t.load).max().unwrap_or(1)
        };
        let ctx = ScheduleContext::new(
            LayerId(0),
            tokens,
            &tasks,
            hybrimoe_hw::ExpertProfile::new(100, 10),
            None,
            &cost,
        );
        let hybrid = replayed(&HybridScheduler::new().schedule(&ctx), &ctx);
        let fixed = replayed(&FixedMappingScheduler::new().schedule(&ctx), &ctx);
        prop_assert!(
            hybrid <= fixed,
            "hybrid {} > fixed {} (prefill={}) on {:?}",
            hybrid, fixed, prefill, tasks
        );
    }

    /// The shared experts are always charged: replaying a scheduler's plan
    /// under a context with a shared profile keeps the devices busy
    /// strictly longer, in total, than replaying the same plan for the
    /// same tasks without one — whichever device the plan runs them on,
    /// decode or prefill, on 1–4 GPUs.
    #[test]
    fn shared_experts_always_add_busy_time(
        tasks in arb_tasks(),
        cost in arb_cost(),
        num_gpus in 1usize..5,
        prefill in any::<bool>(),
    ) {
        let tokens = if prefill {
            PREFILL_BATCH_THRESHOLD
        } else {
            tasks.iter().map(|t| t.load).max().unwrap_or(1)
        };
        let routed = ExpertProfile::new(100, 10);
        let shared = Some(ExpertProfile::new(200, 20));
        let plain = ScheduleContext::new(LayerId(0), tokens, &tasks, routed, None, &cost)
            .with_gpus(num_gpus);
        let with_shared = ScheduleContext::new(LayerId(0), tokens, &tasks, routed, shared, &cost)
            .with_gpus(num_gpus);
        let mut replay = PlanReplay::default();
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&with_shared);
            replay.run(&plan, &plain);
            let without: SimDuration = replay.busy_times().iter().copied().sum();
            replay.run(&plan, &with_shared);
            let with: SimDuration = replay.busy_times().iter().copied().sum();
            prop_assert!(
                with > without,
                "{} N={} prefill={}: shared experts dropped ({} vs {})",
                scheduler.name(), num_gpus, prefill, with, without
            );
        }
    }
}

// Multi-GPU properties: the sharded generalization must keep every
// single-GPU invariant across 1, 2 and 4 shards, respect the expert→shard
// affinity map, and stay bit-identical to the pre-refactor algorithm at
// N = 1.
proptest! {
    /// Exactly-once expert computation across **all** GPUs: no expert runs
    /// on two shards, none is dropped, for every scheduler at every GPU
    /// count.
    #[test]
    fn every_expert_computed_exactly_once_across_all_gpus(
        tasks in arb_tasks(),
        cost in arb_cost(),
        num_gpus in 1usize..5,
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(num_gpus);
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            prop_assert_eq!(
                plan.validate(&tasks), Ok(()),
                "{} invalid at N={}", scheduler.name(), num_gpus
            );
            for t in &tasks {
                let computes = plan.cpu_experts().filter(|e| *e == t.expert).count()
                    + plan.gpu_experts().filter(|e| *e == t.expert).count();
                prop_assert_eq!(
                    computes, 1,
                    "{} N={}: expert {} computed {} times",
                    scheduler.name(), num_gpus, t.expert, computes
                );
            }
        }
    }

    /// Every GPU-side placement (compute or transfer target) lands on the
    /// expert's affinity shard, so per-GPU caches never hold duplicates.
    #[test]
    fn gpu_placements_respect_the_affinity_map(
        tasks in arb_tasks(),
        cost in arb_cost(),
        num_gpus in 1usize..5,
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(num_gpus);
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            for g in &plan.gpu_order {
                let Some(gpu) = g.placement.gpu() else {
                    prop_assert!(false, "{}: CPU placement in gpu_order", scheduler.name());
                    continue;
                };
                prop_assert_eq!(
                    gpu.0 as usize,
                    shard_of(g.task.expert, num_gpus),
                    "{} N={}: {} off its shard",
                    scheduler.name(), num_gpus, g.task.expert
                );
            }
        }
    }

    /// The executed makespan equals the maximum finish time over **every**
    /// per-device timeline (CPU, all GPUs, all PCIe lanes) — and, because
    /// every transfer is consumed by a GPU compute, also over just the
    /// compute devices. The replay clock agrees.
    #[test]
    fn makespan_is_max_over_per_device_timelines(
        tasks in arb_tasks(),
        cost in arb_cost(),
        num_gpus in 1usize..5,
    ) {
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(num_gpus);
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            let executed = PlanExecutor::new()
                .with_gpus(num_gpus)
                .execute(plan.to_ops(&ctx))
                .unwrap();
            let all_max = executed
                .timelines
                .iter()
                .map(|tl| tl.ready_at())
                .fold(hybrimoe_hw::SimTime::ZERO, hybrimoe_hw::SimTime::max)
                .elapsed_since(hybrimoe_hw::SimTime::ZERO);
            prop_assert_eq!(
                executed.makespan, all_max,
                "{} N={}: makespan != max over device timelines", scheduler.name(), num_gpus
            );
            let compute_max = executed
                .timelines
                .compute_finish_time()
                .elapsed_since(hybrimoe_hw::SimTime::ZERO);
            prop_assert_eq!(
                executed.makespan, compute_max,
                "{} N={}: PCIe tail not consumed", scheduler.name(), num_gpus
            );
            prop_assert_eq!(
                executor_clock(&executed), replay_clock(&plan, &ctx),
                "{} N={}: replay off", scheduler.name(), num_gpus
            );
        }
    }

    /// `with_gpus(1)` is the identity: the whole plan (orders and
    /// placements) matches the default single-GPU context bit for bit.
    #[test]
    fn single_gpu_plans_are_bit_identical_to_default(
        tasks in arb_tasks(),
        cost in arb_cost(),
    ) {
        let base = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let one = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(1);
        for scheduler in all_schedulers() {
            prop_assert_eq!(
                scheduler.schedule(&base),
                scheduler.schedule(&one),
                "{} diverges at explicit N=1",
                scheduler.name()
            );
        }
    }

    /// Adding GPUs never hurts the hybrid schedule: with more shards the
    /// makespan is monotone non-increasing on fully cached layers (each
    /// shard serializes less work).
    #[test]
    fn more_gpus_never_slow_fully_cached_layers(
        loads in proptest::collection::vec(1u32..12, 1..10),
        cost in arb_cost(),
    ) {
        let tasks: Vec<ExpertTask> = loads
            .into_iter()
            .enumerate()
            .map(|(i, load)| ExpertTask::cached(ExpertId(i as u16), load))
            .collect();
        let mut last = None;
        for num_gpus in [1usize, 2, 4] {
            let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(num_gpus);
            let makespan = replayed(&HybridScheduler::without_cpu_steal().schedule(&ctx), &ctx);
            if let Some(prev) = last {
                prop_assert!(
                    makespan <= prev,
                    "N={} makespan {} > previous {}",
                    num_gpus, makespan, prev
                );
            }
            last = Some(makespan);
        }
    }

    /// The allocation-free entries decide exactly what the allocating ones
    /// do, on buffers reused from one case to the next: every scheduler's
    /// `schedule_into` writes the plan `schedule` builds, the hybrid's
    /// makespan-only simulation (what the impact-driven prefetcher runs
    /// per candidate) returns its plan's replayed makespan, and replaying
    /// a plan on bare device clocks (what the simulation backend runs per
    /// layer) reports the executor's makespan and busy times — at decode
    /// and prefill batch sizes, on 1–4 GPUs.
    #[test]
    fn allocation_free_entries_match_the_allocating_ones(
        tasks in arb_tasks(),
        cost in arb_cost(),
        num_gpus in 1usize..5,
        prefill in any::<bool>(),
    ) {
        let mut ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost).with_gpus(num_gpus);
        if prefill {
            ctx.tokens = ctx.tokens.max(PREFILL_BATCH_THRESHOLD);
        }
        // Dirty buffers: a larger layer on more GPUs went through first.
        let mut queues = ScheduleQueues::new();
        let mut reused = SchedulePlan::empty(LayerId(7), 7);
        let mut replay = PlanReplay::default();
        let crowd: Vec<ExpertTask> = (0..24)
            .map(|i| ExpertTask { expert: ExpertId(i), load: 1 + u32::from(i % 5), cached: i % 3 == 0 })
            .collect();
        let crowded = ScheduleContext::for_test(LayerId(1), &crowd, &cost).with_gpus(4);
        HybridScheduler::new().schedule_into(&crowded, &mut queues, &mut reused);
        replay.run(&reused, &crowded);

        for hybrid in [HybridScheduler::new(), HybridScheduler::without_cpu_steal()] {
            let plan = hybrid.schedule(&ctx);
            prop_assert_eq!(hybrid.makespan(&ctx, &mut queues), replayed(&plan, &ctx));
        }
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            scheduler.schedule_into(&ctx, &mut queues, &mut reused);
            prop_assert_eq!(&reused, &plan, "{}", scheduler.name());
            let executed = PlanExecutor::new()
                .with_gpus(num_gpus)
                .execute(plan.to_ops(&ctx))
                .unwrap();
            prop_assert_eq!(replay.run(&plan, &ctx), executed.makespan, "{}", scheduler.name());
            prop_assert_eq!(
                replay.busy_times(),
                executed.timelines.busy_times(),
                "{}", scheduler.name()
            );
        }
    }
}

// Head starts: transfers still on the wire when a layer starts
// (`ScheduleContext::with_inflight`).
proptest! {
    /// Every scheduler, decode and prefill, on 1–4 GPUs, with a random
    /// subset of the uncached experts carried in at a random remainder of
    /// their wire time: the plan validates, replays exactly as the plan
    /// executor runs it, and lowers each carried expert it transfers to a
    /// lane op of exactly its remainder (every other transfer costs a whole
    /// one). For the hybrid, a head start never raises the makespan.
    #[test]
    fn carried_transfers_cost_their_remainder(
        tasks in arb_tasks(),
        cost in arb_cost(),
        carry in proptest::collection::vec((any::<bool>(), 1u64..100), 10),
        num_gpus in 1usize..5,
        prefill in any::<bool>(),
    ) {
        let tokens = if prefill {
            PREFILL_BATCH_THRESHOLD
        } else {
            tasks.iter().map(|t| t.load).max().unwrap_or(1)
        };
        let wire = cost.transfer_per_expert;
        let inflight: Vec<(ExpertId, SimDuration)> = tasks
            .iter()
            .zip(&carry)
            .filter(|(t, (carried, _))| !t.cached && *carried)
            .map(|(t, (_, percent))| {
                (t.expert, SimDuration::from_nanos(wire.as_nanos() * percent / 100))
            })
            .collect();
        let routed = ExpertProfile::new(100, 10);
        let cold = ScheduleContext::new(LayerId(0), tokens, &tasks, routed, None, &cost)
            .with_gpus(num_gpus);
        let ctx = ScheduleContext::new(LayerId(0), tokens, &tasks, routed, None, &cost)
            .with_gpus(num_gpus)
            .with_inflight(&inflight);
        let mut replay = PlanReplay::default();
        for scheduler in all_schedulers() {
            let name = scheduler.name();
            let plan = scheduler.schedule(&ctx);
            prop_assert_eq!(plan.validate(&tasks), Ok(()), "{} N={}", name, num_gpus);
            let ops = plan.to_ops(&ctx);
            for x in &plan.pcie_order {
                let label = format!("{}/{} load", LayerId(0), x.expert);
                let op = ops.iter().find(|op| op.label == label);
                let expected = ctx.carried(x.expert).unwrap_or(wire);
                prop_assert_eq!(
                    op.map(|op| op.duration), Some(expected),
                    "{} N={}: {} lane op", name, num_gpus, x.expert
                );
            }
            let executed = PlanExecutor::new().with_gpus(num_gpus).execute(ops).unwrap();
            prop_assert_eq!(replay.run(&plan, &ctx), executed.makespan, "{} N={}", name, num_gpus);
            prop_assert_eq!(
                replay.busy_times(), executed.timelines.busy_times(),
                "{} N={}", name, num_gpus
            );
        }
        let hybrid = HybridScheduler::new();
        let mut queues = ScheduleQueues::new();
        let with_head_start = hybrid.makespan(&ctx, &mut queues);
        prop_assert_eq!(with_head_start, replayed(&hybrid.schedule(&ctx), &ctx));
        let without = hybrid.makespan(&cold, &mut queues);
        prop_assert!(
            with_head_start <= without,
            "N={} prefill={}: head starts {:?} raised the makespan {} -> {} on {:?}",
            num_gpus, prefill, inflight, without, with_head_start, tasks
        );
    }
}
