//! Table III — ablation breakdown of the proposed techniques, measured for
//! Qwen2 with a 25% expert cache ratio (as in the paper): baseline
//! (kTransformers), baseline + hybrid scheduling, baseline + impact-driven
//! prefetching, baseline + score-aware caching (decode only in the paper),
//! and everything combined.
//!
//! Paper shape (speedup over baseline): prefill — scheduling 1.26x,
//! prefetching 1.06x, all 1.31x; decode — scheduling 1.46x, prefetching
//! 1.15x, caching 1.38x, all 1.86x. Scheduling contributes most,
//! prefetching least, and the techniques compose.

use hybrimoe::report::Table;
use hybrimoe::{CachePolicyKind, Engine, EngineConfig, Framework, PrefetcherKind, SchedulerKind};
use hybrimoe_bench::{secs, DECODE_STEPS, SEED};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;

const PREFILL_TOKENS: u32 = 128;
const CACHE_RATIO: f64 = 0.25;

fn variants(model: &ModelConfig) -> Vec<(&'static str, EngineConfig)> {
    let base = || EngineConfig::preset(Framework::KTransformers, model.clone(), CACHE_RATIO);
    vec![
        ("Baseline", base()),
        (
            "Baseline+Scheduling",
            base().with_scheduler(SchedulerKind::Hybrid),
        ),
        (
            "Baseline+Prefetching",
            base().with_prefetcher(PrefetcherKind::ImpactDriven),
        ),
        (
            "Baseline+Caching",
            base().with_cache_policy(CachePolicyKind::Mrs),
        ),
        (
            "All",
            EngineConfig::preset(Framework::HybriMoe, model.clone(), CACHE_RATIO),
        ),
    ]
}

fn main() {
    let model = ModelConfig::qwen2();
    println!(
        "== Table III: ablation, {} @ {:.0}% cache, prefill {} tokens / decode {} steps, seed {:#x} ==\n",
        model.name,
        CACHE_RATIO * 100.0,
        PREFILL_TOKENS,
        DECODE_STEPS,
        SEED
    );

    let generator = TraceGenerator::new(model.clone(), SEED);
    let prefill = generator.prefill_trace(PREFILL_TOKENS);
    let decode = generator.decode_trace(DECODE_STEPS);
    for stage in ["Prefill", "Decode"] {
        let mut table = Table::new(vec!["technique".into(), "latency".into(), "speedup".into()]);
        let mut baseline_ns = 0u64;
        for (name, config) in variants(&model) {
            // The paper's prefill table has no caching-only row (the cache
            // cannot influence a single forward pass).
            if stage == "Prefill" && name == "Baseline+Caching" {
                continue;
            }
            let trace = if stage == "Prefill" {
                &prefill
            } else {
                &decode
            };
            let latency = Engine::new(config).run(trace).total;
            if name == "Baseline" {
                baseline_ns = latency.as_nanos();
            }
            table.push_row(vec![
                name.to_owned(),
                secs(latency),
                format!("{:.2}x", baseline_ns as f64 / latency.as_nanos() as f64),
            ]);
        }
        println!("-- {stage} --\n{table}");
    }
    println!("paper: prefill 1.26/1.06/1.31x; decode 1.46/1.15/1.38/1.86x");
}
