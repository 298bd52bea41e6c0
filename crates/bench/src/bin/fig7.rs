//! Fig. 7 — prefill latency (TTFT) for the three models across input
//! lengths (~32/128/512/1024) and cache ratios (25/50/75 %), with speedups
//! relative to kTransformers.
//!
//! Paper shape: HybriMoE lowest everywhere (avg ~1.33x over kTransformers);
//! llama.cpp far worst at prefill (whole CPU layers serialize the heavy
//! batch); AdapMoE competitive because prefill loads amortize over many
//! tokens.

use hybrimoe::report::Table;
use hybrimoe::Framework;
use hybrimoe_bench::{run_on, secs, CACHE_RATIOS, SEED};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{ActivationTrace, LengthBucket, TraceGenerator};

fn main() {
    println!("== Fig. 7: prefill latency (TTFT), seed {SEED:#x} ==\n");
    let mut speedups = Vec::new();
    for model in ModelConfig::paper_models() {
        // One prompt per length, shared by every framework and cache ratio.
        let generator = TraceGenerator::new(model.clone(), SEED);
        let traces: Vec<ActivationTrace> = LengthBucket::ALL
            .iter()
            .map(|bucket| generator.prefill_trace(bucket.tokens()))
            .collect();
        for ratio in CACHE_RATIOS {
            let mut table = Table::new(
                std::iter::once("framework".to_owned())
                    .chain(LengthBucket::ALL.iter().map(|b| format!("{b} tok")))
                    .chain(std::iter::once("avg speedup".to_owned()))
                    .collect(),
            );
            let base: Vec<_> = traces
                .iter()
                .map(|trace| run_on(trace, Framework::KTransformers, &model, ratio, SEED).ttft())
                .collect();
            for framework in Framework::ALL {
                let mut row = vec![framework.to_string()];
                let mut ratios = Vec::new();
                for (i, trace) in traces.iter().enumerate() {
                    let ttft = if framework == Framework::KTransformers {
                        base[i]
                    } else {
                        run_on(trace, framework, &model, ratio, SEED).ttft()
                    };
                    ratios.push(base[i].as_nanos() as f64 / ttft.as_nanos() as f64);
                    row.push(secs(ttft));
                }
                let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
                if framework == Framework::HybriMoe {
                    speedups.push(avg);
                }
                row.push(format!("{avg:.2}x"));
                table.push_row(row);
            }
            println!(
                "-- {} with {:.0}% cache ratio --\n{table}",
                model.name,
                ratio * 100.0
            );
        }
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("HybriMoE average prefill speedup vs kTransformers: {avg:.2}x (paper: 1.33x)");
}
