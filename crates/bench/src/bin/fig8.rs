//! Fig. 8 — decode stage latency (TBT) for the three models across cache
//! ratios, with speedups relative to kTransformers.
//!
//! Paper shape: HybriMoE lowest everywhere (avg ~1.70x over kTransformers);
//! llama.cpp is competitive at decode (unlike prefill); AdapMoE suffers
//! from paying PCIe for every miss.

use hybrimoe::report::{percent, speedup, Table};
use hybrimoe::Framework;
use hybrimoe_bench::{millis, run_on, CACHE_RATIOS, DECODE_STEPS, SEED};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;

fn main() {
    println!("== Fig. 8: decode latency (TBT), {DECODE_STEPS} steps, seed {SEED:#x} ==\n");
    let mut speedups = Vec::new();
    for model in ModelConfig::paper_models() {
        let trace = TraceGenerator::new(model.clone(), SEED).decode_trace(DECODE_STEPS);
        let mut table = Table::new(vec![
            "cache".into(),
            "framework".into(),
            "TBT".into(),
            "speedup vs KTrans".into(),
            "hit rate".into(),
        ]);
        for ratio in CACHE_RATIOS {
            let ktrans = run_on(&trace, Framework::KTransformers, &model, ratio, SEED);
            let base = ktrans.mean_step_latency();
            for framework in Framework::ALL {
                let m = if framework == Framework::KTransformers {
                    ktrans.clone()
                } else {
                    run_on(&trace, framework, &model, ratio, SEED)
                };
                let tbt = m.mean_step_latency();
                if framework == Framework::HybriMoe {
                    speedups.push(base.as_nanos() as f64 / tbt.as_nanos() as f64);
                }
                table.push_row(vec![
                    format!("{:.0}%", ratio * 100.0),
                    framework.to_string(),
                    millis(tbt),
                    speedup(base.as_nanos(), tbt.as_nanos()),
                    percent(m.hit_rate()),
                ]);
            }
        }
        println!("-- {} --\n{table}", model.name);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("HybriMoE average decode speedup vs kTransformers: {avg:.2}x (paper: 1.70x)");
}
