//! Fig. 3 — the paper's six motivation measurements. Run all panels or a
//! single one: `cargo run -p hybrimoe-bench --release --bin fig3 -- b`.
//!
//! (a) activation-frequency CDF: neuron sparsity is concentrated, MoE
//!     experts are near-uniform;
//! (b) reuse probability decays with score rank (the MRS signal);
//! (c) per-expert token loads of one prefill forward are highly uneven;
//! (d) no existing method wins in every scenario;
//! (e) CPU vs GPU time over expert count at fixed load: the first CPU
//!     expert pays a cold penalty, later ones overlap;
//! (f) CPU time grows linearly with workload, GPU time stays nearly flat.

use hybrimoe::report::Table;
use hybrimoe::Framework;
use hybrimoe_bench::{millis, run_on, SEED};
use hybrimoe_hw::{AffineCostModel, CostModel, Platform};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{neuron, stats, TraceGenerator};

fn main() {
    let panel = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    match panel.as_str() {
        "a" => panel_a(),
        "b" => panel_b(),
        "c" => panel_c(),
        "d" => panel_d(),
        "e" => panel_e(),
        "f" => panel_f(),
        "all" => {
            panel_a();
            panel_b();
            panel_c();
            panel_d();
            panel_e();
            panel_f();
        }
        other => {
            eprintln!("unknown panel {other:?}; expected a-f or all");
            std::process::exit(2);
        }
    }
}

fn panel_a() {
    println!("== Fig. 3(a): cumulative activation frequency (CDF) ==\n");
    let neuron_cdf = neuron::neuron_activation_cdf(512, 1.05, 100_000, SEED);
    let mixtral =
        stats::activation_cdf(&TraceGenerator::new(ModelConfig::mixtral(), SEED).decode_trace(256));
    let deepseek = stats::activation_cdf(
        &TraceGenerator::new(ModelConfig::deepseek(), SEED).decode_trace(256),
    );
    let mut table = Table::new(vec![
        "population %".into(),
        "OPT neurons".into(),
        "Mixtral experts".into(),
        "DeepSeek experts".into(),
    ]);
    for pct in [10, 20, 40, 60, 80, 100] {
        let at = |cdf: &[f64]| {
            let idx = (cdf.len() * pct / 100).max(1) - 1;
            format!("{:.1}%", cdf[idx] * 100.0)
        };
        table.push_row(vec![
            format!("{pct}%"),
            at(&neuron_cdf),
            at(&mixtral),
            at(&deepseek),
        ]);
    }
    println!("{table}");
    println!("shape: neurons concentrate early; expert curves hug the diagonal\n");
}

fn panel_b() {
    println!("== Fig. 3(b): reuse probability by expert score rank (DeepSeek) ==\n");
    let trace = TraceGenerator::new(ModelConfig::deepseek(), SEED).decode_trace(256);
    let reuse = stats::reuse_probability_by_rank(&trace);
    let mut table = Table::new(vec!["score rank".into(), "reuse probability".into()]);
    for rank in [0usize, 1, 2, 4, 8, 16, 32, 63] {
        table.push_row(vec![
            rank.to_string(),
            format!("{:.3}", reuse.get(rank).copied().unwrap_or(0.0)),
        ]);
    }
    println!("{table}");
    println!("shape: ~0.3 at the top ranks, flattening below ~0.1 (paper Fig. 3(b))\n");
}

fn panel_c() {
    println!("== Fig. 3(c): expert workload distribution, DeepSeek 128-token prefill ==\n");
    let trace = TraceGenerator::new(ModelConfig::deepseek(), SEED).prefill_trace(128);
    let loads = stats::workload_distribution(&trace, 0, 0).expect("layer 0 exists");
    let max = loads.iter().copied().max().unwrap_or(1).max(1);
    let mut sorted = loads.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    println!("top-8 loads: {:?}", &sorted[..8]);
    println!(
        "zero-load experts: {}",
        loads.iter().filter(|l| **l == 0).count()
    );
    println!("Gini coefficient: {:.3}", stats::load_gini(&loads));
    for (i, l) in loads.iter().enumerate().take(16) {
        println!("E{i:02} {:5} |{}", l, "#".repeat((l * 40 / max) as usize));
    }
    println!("(first 16 of 64 experts shown)\n");
}

fn panel_d() {
    println!("== Fig. 3(d): no existing method wins everywhere (25% cache) ==\n");
    let mut table = Table::new(vec![
        "scenario".into(),
        "llama.cpp".into(),
        "AdapMoE".into(),
        "KTransformers".into(),
    ]);
    let frameworks = [
        Framework::LlamaCpp,
        Framework::AdapMoe,
        Framework::KTransformers,
    ];
    let qwen = ModelConfig::qwen2();
    let mixtral = ModelConfig::mixtral();
    let scenarios = [
        (
            "Qwen2 prefill 128 (per layer)",
            TraceGenerator::new(qwen.clone(), SEED).prefill_trace(128),
            &qwen,
        ),
        (
            "Mixtral prefill 128 (per layer)",
            TraceGenerator::new(mixtral.clone(), SEED).prefill_trace(128),
            &mixtral,
        ),
        (
            "Mixtral decode 10 (per layer)",
            TraceGenerator::new(mixtral.clone(), SEED).decode_trace(10),
            &mixtral,
        ),
    ];
    for (name, trace, model) in &scenarios {
        let mut row = vec![(*name).to_owned()];
        let per_layer = trace.steps.len() as u64 * model.layers as u64;
        for f in frameworks {
            let m = run_on(trace, f, model, 0.25, SEED);
            row.push(millis(m.total / per_layer));
        }
        table.push_row(row);
    }
    println!("{table}");
    println!("shape: the winner differs per scenario — motivation for dynamic scheduling\n");
}

fn panel_e() {
    println!("== Fig. 3(e): CPU vs GPU time for 1..6 experts at fixed load ==\n");
    let cost = AffineCostModel::from_platform(&Platform::a6000_xeon10());
    let expert = ModelConfig::deepseek().routed_profile();
    let load = 8;
    let mut table = Table::new(vec![
        "#experts".into(),
        "CPU total".into(),
        "GPU total".into(),
    ]);
    for n in 1..=6u32 {
        let cpu: hybrimoe_hw::SimDuration =
            (0..n).map(|i| cost.cpu_compute(&expert, load, i > 0)).sum();
        let gpu: hybrimoe_hw::SimDuration = (0..n).map(|_| cost.gpu_compute(&expert, load)).sum();
        table.push_row(vec![n.to_string(), millis(cpu), millis(gpu)]);
    }
    println!("{table}");
    println!("shape: the first CPU expert is slower (cold), later ones amortize\n");
}

fn panel_f() {
    println!("== Fig. 3(f): CPU and GPU time across workload sizes ==\n");
    let cost = AffineCostModel::from_platform(&Platform::a6000_xeon10());
    let expert = ModelConfig::deepseek().routed_profile();
    let mut table = Table::new(vec!["tokens".into(), "CPU".into(), "GPU".into()]);
    for tokens in [1u32, 8, 32, 128, 256, 512, 1024] {
        table.push_row(vec![
            tokens.to_string(),
            millis(cost.cpu_compute(&expert, tokens, true)),
            millis(cost.gpu_compute(&expert, tokens)),
        ]);
    }
    println!("{table}");
    println!("shape: CPU grows linearly with workload; GPU stays nearly flat\n");
}
