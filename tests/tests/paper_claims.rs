//! Shape tests for the paper's headline claims: these assert the
//! *qualitative* results of every figure — who wins, in which stage, and
//! in which direction the trends run — on small, fast configurations.

use hybrimoe::Framework;
use hybrimoe_cache::{CachePolicy, ExpertCache, Lru, Mrs};
use hybrimoe_hw::UnitCostModel;
use hybrimoe_model::{ExpertId, ExpertKey, LayerId, ModelConfig};
use hybrimoe_sched::baselines::FixedMappingScheduler;
use hybrimoe_sched::{ExpertTask, HybridScheduler, PlanReplay, ScheduleContext, Scheduler};
use hybrimoe_tests::{decode, decode_trace, prefill};

/// Fig. 7/8 headline: HybriMoE beats kTransformers in both stages on every
/// paper model at the paper's tightest cache ratio.
#[test]
fn hybrimoe_beats_ktransformers_everywhere() {
    for model in ModelConfig::paper_models() {
        let h = decode(Framework::HybriMoe, &model, 0.25, 8);
        let k = decode(Framework::KTransformers, &model, 0.25, 8);
        assert!(
            h.total <= k.total,
            "decode {}: hybri {} vs ktrans {}",
            model.name,
            h.total,
            k.total
        );
        let hp = prefill(Framework::HybriMoe, &model, 0.25, 128);
        let kp = prefill(Framework::KTransformers, &model, 0.25, 128);
        assert!(
            hp.total <= kp.total,
            "prefill {}: hybri {} vs ktrans {}",
            model.name,
            hp.total,
            kp.total
        );
    }
}

/// Fig. 7: llama.cpp is the worst prefill performer (static whole-layer
/// mapping serializes the heavy batch through streamed weights).
#[test]
fn llamacpp_is_worst_at_prefill() {
    let model = ModelConfig::qwen2();
    let l = prefill(Framework::LlamaCpp, &model, 0.25, 256);
    for other in [
        Framework::AdapMoe,
        Framework::KTransformers,
        Framework::HybriMoe,
    ] {
        let o = prefill(other, &model, 0.25, 256);
        assert!(
            l.total >= o.total,
            "llama.cpp {} should not beat {other} {}",
            l.total,
            o.total
        );
    }
}

/// Fig. 8 discussion: llama.cpp is *relatively* strong at decode — closer
/// to kTransformers than it is at prefill.
#[test]
fn llamacpp_decode_gap_is_smaller_than_prefill_gap() {
    let model = ModelConfig::deepseek();
    let ld = decode(Framework::LlamaCpp, &model, 0.5, 8).total.as_nanos() as f64;
    let kd = decode(Framework::KTransformers, &model, 0.5, 8)
        .total
        .as_nanos() as f64;
    let lp = prefill(Framework::LlamaCpp, &model, 0.5, 256)
        .total
        .as_nanos() as f64;
    let kp = prefill(Framework::KTransformers, &model, 0.5, 256)
        .total
        .as_nanos() as f64;
    assert!(
        ld / kd < lp / kp,
        "decode ratio {:.2} should be smaller than prefill ratio {:.2}",
        ld / kd,
        lp / kp
    );
}

/// Fig. 9: MRS achieves a higher hit rate than LRU at tight capacities, and
/// the gap narrows as the cache grows.
#[test]
fn mrs_beats_lru_with_narrowing_gap() {
    let model = ModelConfig::deepseek();
    let trace = decode_trace(&model, 160);
    let rate = |policy: Box<dyn CachePolicy>, ratio: f64| {
        let mut cache = ExpertCache::new(model.cache_capacity_for_ratio(ratio), policy);
        let warm = trace.steps.len() / 4;
        for (i, step) in trace.steps.iter().enumerate() {
            if i == warm {
                cache.reset_stats();
            }
            for rec in &step.layers {
                cache.note_routing(&rec.routing, model.activated_experts);
                for (expert, _) in rec.routing.activated() {
                    let key = ExpertKey::new(rec.routing.layer(), expert);
                    if !cache.lookup(key) {
                        cache.insert(key);
                    }
                }
            }
        }
        cache.stats().hit_rate()
    };
    let gap_low = rate(Box::new(Mrs::new(0.3)), 0.3) - rate(Box::new(Lru::new()), 0.3);
    let gap_high = rate(Box::new(Mrs::new(0.3)), 0.7) - rate(Box::new(Lru::new()), 0.7);
    assert!(gap_low > 0.0, "MRS must beat LRU at 30%: gap {gap_low:.3}");
    assert!(
        gap_high < gap_low,
        "gap must narrow with capacity: low {gap_low:.3} high {gap_high:.3}"
    );
}

/// Fig. 5 golden test: the worked example schedules to a 4-unit makespan
/// with C transferred, beating the fixed mapping's 5 units.
#[test]
fn fig5_worked_example_schedules_as_published() {
    let tasks = vec![
        ExpertTask::uncached(ExpertId(0), 1),
        ExpertTask::uncached(ExpertId(1), 1),
        ExpertTask::uncached(ExpertId(2), 3),
        ExpertTask::cached(ExpertId(3), 4),
        ExpertTask::cached(ExpertId(4), 1),
    ];
    let cost = UnitCostModel::paper_fig5();
    let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
    let hybrid = HybridScheduler::new().schedule(&ctx);
    let fixed = FixedMappingScheduler::new().schedule(&ctx);
    let mut replay = PlanReplay::default();
    assert_eq!(replay.run(&hybrid, &ctx).as_micros_f64(), 4.0);
    assert_eq!(replay.run(&fixed, &ctx).as_micros_f64(), 5.0);
    assert_eq!(
        hybrid.transferred_experts().collect::<Vec<_>>(),
        vec![ExpertId(2)]
    );
}

/// Table III directionality: each technique alone speeds up decode, and the
/// full system is at least as fast as each single technique.
#[test]
fn ablation_components_compose() {
    use hybrimoe::{CachePolicyKind, EngineConfig, PrefetcherKind, SchedulerKind};
    use hybrimoe_tests::decode_trace as trace_for;

    let model = ModelConfig::qwen2();
    let trace = trace_for(&model, 10);
    let run = |config: EngineConfig| hybrimoe::Engine::new(config).run(&trace).total;

    let base = EngineConfig::preset(Framework::KTransformers, model.clone(), 0.25);
    let baseline = run(base.clone());
    let sched = run(base.clone().with_scheduler(SchedulerKind::Hybrid));
    let cached = run(base.clone().with_cache_policy(CachePolicyKind::Mrs));
    let prefetched = run(base.with_prefetcher(PrefetcherKind::ImpactDriven));
    let all = run(EngineConfig::preset(Framework::HybriMoe, model, 0.25));

    assert!(sched <= baseline, "scheduling must not slow decode");
    assert!(cached <= baseline, "caching must not slow decode");
    assert!(prefetched <= baseline, "prefetching must not slow decode");
    assert!(
        all <= sched.min(cached).min(prefetched) + baseline / 10,
        "the full system should be in the ballpark of the best single technique or better"
    );
}
