//! Behavioural contracts of each framework preset — the properties that
//! define llama.cpp / AdapMoE / kTransformers / HybriMoE as *policies*,
//! independent of any latency numbers.

use hybrimoe::{Engine, EngineConfig, Framework};
use hybrimoe_model::ModelConfig;
use hybrimoe_sched::{
    oracle_makespan, ExpertTask, HybridScheduler, ScheduleContext, ScheduleQueues,
};
use hybrimoe_tests::{decode, decode_trace, prefill, prefill_trace};

/// AdapMoE is GPU-centric: it never computes an expert on the CPU.
#[test]
fn adapmoe_never_uses_cpu_experts() {
    for model in ModelConfig::paper_models() {
        let d = decode(Framework::AdapMoe, &model, 0.25, 4);
        assert_eq!(d.cpu_experts(), 0, "{} decode", model.name);
        let p = prefill(Framework::AdapMoe, &model, 0.25, 64);
        assert_eq!(p.cpu_experts(), 0, "{} prefill", model.name);
    }
}

/// kTransformers never transfers experts on demand (its mapping is fixed).
#[test]
fn ktransformers_decode_never_transfers() {
    for model in ModelConfig::paper_models() {
        let d = decode(Framework::KTransformers, &model, 0.25, 4);
        assert_eq!(d.demand_transfers(), 0, "{} decode", model.name);
        assert_eq!(d.background_landed(), 0);
    }
}

/// llama.cpp at decode keeps every layer on one device: a layer's experts
/// are either all CPU or all GPU.
#[test]
fn llamacpp_decode_is_whole_layer() {
    let model = ModelConfig::deepseek();
    let trace = decode_trace(&model, 4);
    let mut engine = Engine::new(EngineConfig::preset(
        Framework::LlamaCpp,
        model.clone(),
        0.5,
    ));
    let m = engine.run(&trace);
    // 50% cache = 13 resident layers of 26; per step, K experts per layer:
    // GPU experts = resident_layers * K, CPU experts = rest.
    let k = model.activated_experts as u64;
    let steps = m.steps.len() as u64;
    assert_eq!(m.gpu_experts(), 13 * k * steps);
    assert_eq!(m.cpu_experts(), 13 * k * steps);
}

/// llama.cpp streams prefill batches: no cache insertions from prefill
/// loads (streamed weights are discarded).
#[test]
fn llamacpp_prefill_streams_without_caching() {
    let model = ModelConfig::deepseek();
    let m = prefill(Framework::LlamaCpp, &model, 0.25, 128);
    assert!(m.demand_transfers() > 0, "CPU layers must stream");
    assert_eq!(m.cache.insertions, 0, "streamed weights are not cached");
}

/// HybriMoE's decode uses all three mechanisms on a tight cache.
#[test]
fn hybrimoe_uses_all_three_mechanisms() {
    let model = ModelConfig::deepseek();
    let m = decode(Framework::HybriMoe, &model, 0.25, 16);
    assert!(m.cpu_experts() > 0, "hybrid must use the CPU");
    assert!(m.gpu_experts() > 0, "hybrid must use the GPU");
    assert!(m.background_landed() > 0, "prefetch/refill must fire");
    assert!(m.cache.evictions > 0, "MRS must manage the cache");
}

/// The engine's hybrid plans stay optimal against the exhaustive oracle on
/// real cost models, for every small layer of a real trace.
#[test]
fn hybrid_matches_oracle_on_real_traces() {
    use hybrimoe_hw::{AffineCostModel, Platform};
    let model = ModelConfig::mixtral(); // ≤ 8 experts: oracle territory
    let trace = decode_trace(&model, 3);
    let cost = AffineCostModel::from_platform(&Platform::a6000_xeon10());
    let mut checked = 0;
    for step in &trace.steps {
        for (l, rec) in step.layers.iter().enumerate() {
            let tasks: Vec<ExpertTask> = rec
                .routing
                .activated()
                .into_iter()
                .map(|(e, load)| ExpertTask {
                    expert: e,
                    load,
                    cached: e.0 % 2 == 0, // arbitrary residency pattern
                })
                .collect();
            let ctx = ScheduleContext::new(
                hybrimoe_model::LayerId(l as u16),
                step.tokens,
                &tasks,
                model.routed_profile(),
                model.shared_profile(),
                &cost,
            );
            let hybrid = HybridScheduler::new().makespan(&ctx, &mut ScheduleQueues::new());
            let Some(opt) = oracle_makespan(&ctx) else {
                continue;
            };
            assert!(
                hybrid <= opt.mul_f64(1.02).max(opt),
                "layer {l}: hybrid {hybrid} vs oracle {opt}"
            );
            checked += 1;
        }
    }
    assert!(checked > 50, "oracle comparison must cover real layers");
}

/// Prefill-sized batches flip kTransformers into on-demand loading.
#[test]
fn ktransformers_prefill_loads_on_demand() {
    let model = ModelConfig::mixtral();
    let trace = prefill_trace(&model, 128);
    let mut engine = Engine::new(EngineConfig::preset(Framework::KTransformers, model, 0.25));
    let m = engine.run(&trace);
    assert_eq!(m.cpu_experts(), 0, "no CPU expert compute at prefill");
    assert!(m.demand_transfers() > 0, "misses are fetched on demand");
}

/// The laptop platform (weaker PCIe) must widen HybriMoE's advantage over
/// the GPU-centric baseline — CPU compute substitutes for scarce bandwidth.
#[test]
fn weaker_pcie_favors_hybrid_over_gpu_centric() {
    use hybrimoe_hw::Platform;
    let model = ModelConfig::deepseek();
    let trace = decode_trace(&model, 6);
    let ratio_on = |platform: Platform| {
        let h = Engine::new(
            EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.25)
                .with_platform(platform.clone()),
        )
        .run(&trace);
        let a = Engine::new(
            EngineConfig::preset(Framework::AdapMoe, model.clone(), 0.25).with_platform(platform),
        )
        .run(&trace);
        a.total.as_nanos() as f64 / h.total.as_nanos() as f64
    };
    let desktop = ratio_on(Platform::a6000_xeon10());
    let laptop = ratio_on(Platform::rtx4060_laptop());
    assert!(
        laptop >= desktop,
        "advantage should widen on the laptop: {laptop:.2} vs {desktop:.2}"
    );
}
