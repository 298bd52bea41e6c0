//! Property-based invariants on the full engine, across random
//! configurations: conservation (every activated expert computed exactly
//! once), metric bounds, and determinism.

use hybrimoe::{CachePolicyKind, Engine, EngineConfig, Framework, PrefetcherKind, SchedulerKind};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;
use proptest::prelude::*;

fn arb_framework() -> impl Strategy<Value = Framework> {
    prop_oneof![
        Just(Framework::LlamaCpp),
        Just(Framework::AdapMoe),
        Just(Framework::KTransformers),
        Just(Framework::HybriMoe),
    ]
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Hybrid),
        Just(SchedulerKind::FixedMapping),
        Just(SchedulerKind::GpuOnly),
        Just(SchedulerKind::StaticSplit),
    ]
}

fn arb_policy() -> impl Strategy<Value = CachePolicyKind> {
    prop_oneof![
        Just(CachePolicyKind::Lru),
        Just(CachePolicyKind::Lfu),
        Just(CachePolicyKind::Mrs),
    ]
}

fn arb_prefetcher() -> impl Strategy<Value = PrefetcherKind> {
    prop_oneof![
        Just(PrefetcherKind::None),
        Just(PrefetcherKind::NextLayerTopK),
        Just(PrefetcherKind::ImpactDriven),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_holds_for_every_preset(
        framework in arb_framework(),
        ratio in 0.0f64..1.0,
        seed in 0u64..500,
        steps in 1usize..5,
    ) {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model.clone(), seed).decode_trace(steps);
        let mut engine = Engine::new(EngineConfig::preset(framework, model, ratio));
        let m = engine.run(&trace);
        // Every activated expert computed exactly once.
        prop_assert_eq!(m.cpu_experts() + m.gpu_experts(), m.cache.lookups());
        prop_assert!(m.hit_rate() >= 0.0 && m.hit_rate() <= 1.0);
        prop_assert!(m.total.as_nanos() > 0);
        // Hits never exceed lookups; eviction count never exceeds inserts.
        prop_assert!(m.cache.hits <= m.cache.lookups());
        prop_assert!(m.cache.evictions <= m.cache.insertions);
    }

    #[test]
    fn conservation_holds_for_random_component_mixes(
        scheduler in arb_scheduler(),
        policy in arb_policy(),
        prefetcher in arb_prefetcher(),
        refill in any::<bool>(),
        demand in any::<bool>(),
        ratio in 0.1f64..0.9,
        seed in 0u64..200,
    ) {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model.clone(), seed).decode_trace(2);
        let config = EngineConfig {
            scheduler,
            cache_policy: policy,
            prefetcher,
            refill_on_miss: refill,
            demand_inserts: demand,
            ..EngineConfig::preset(Framework::HybriMoe, model, ratio)
        };
        let mut engine = Engine::new(config);
        let m = engine.run(&trace);
        prop_assert_eq!(m.cpu_experts() + m.gpu_experts(), m.cache.lookups());
    }

    #[test]
    fn runs_are_reproducible(
        framework in arb_framework(),
        ratio in 0.1f64..0.9,
        seed in 0u64..200,
    ) {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model.clone(), seed).decode_trace(3);
        let config = EngineConfig::preset(framework, model, ratio);
        let a = Engine::new(config.clone()).run(&trace);
        let b = Engine::new(config).run(&trace);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn prefill_conservation(
        framework in arb_framework(),
        tokens in 1u32..96,
        seed in 0u64..200,
    ) {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model.clone(), seed).prefill_trace(tokens);
        let mut engine = Engine::new(EngineConfig::preset(framework, model, 0.5));
        let m = engine.run(&trace);
        prop_assert_eq!(m.cpu_experts() + m.gpu_experts(), m.cache.lookups());
        prop_assert_eq!(m.steps[0].tokens, tokens);
    }
}
