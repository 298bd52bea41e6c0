//! Design-choice ablations beyond the paper's Table III: sweeps over the
//! MRS and prefetch knobs the paper fixes, plus the greedy scheduler's
//! optimality gap against an exhaustive oracle (an evaluation the paper
//! does not include).
//!
//! Panels:
//! * `alpha`    — MRS averaging coefficient α (Eq. 3)
//! * `topp`     — MRS top-P cutoff (the paper picks p = 2K)
//! * `discount` — impact-driven prefetch distance discount
//! * `steal`    — CPU work-stealing of cached experts on/off
//! * `oracle`   — hybrid scheduler vs exhaustive optimum
//! * `batch`    — batched decode serving (1-8 concurrent sequences)
//!
//! Run one panel: `cargo run -p hybrimoe-bench --release --bin ablations -- alpha`

use hybrimoe::report::{percent, Table};
use hybrimoe::{Engine, EngineConfig, Framework};
use hybrimoe_bench::replay_hit_rate;
use hybrimoe_cache::Mrs;
use hybrimoe_hw::{AffineCostModel, Platform};
use hybrimoe_model::{ExpertId, LayerId, ModelConfig};
use hybrimoe_sched::{
    oracle_makespan, ExpertTask, HybridScheduler, ScheduleContext, ScheduleQueues,
};
use hybrimoe_trace::TraceGenerator;

const SEED: u64 = 0xAB1A;

fn main() {
    let panel = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    match panel.as_str() {
        "alpha" => alpha_sweep(),
        "topp" => topp_sweep(),
        "discount" => discount_sweep(),
        "steal" => steal_ablation(),
        "oracle" => oracle_gap(),
        "batch" => batched_decode(),
        "all" => {
            alpha_sweep();
            topp_sweep();
            discount_sweep();
            steal_ablation();
            oracle_gap();
            batched_decode();
        }
        other => {
            eprintln!(
                "unknown panel {other:?}; expected alpha|topp|discount|steal|oracle|batch|all"
            );
            std::process::exit(2);
        }
    }
}

fn alpha_sweep() {
    println!("== ablation: MRS averaging coefficient α (DeepSeek, 30% cache) ==\n");
    let model = ModelConfig::deepseek();
    let trace = TraceGenerator::new(model.clone(), SEED).decode_trace(160);
    let mut table = Table::new(vec!["alpha".into(), "hit rate".into()]);
    for alpha in [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let rate = replay_hit_rate(&trace, &model, Box::new(Mrs::new(alpha)), 0.3);
        table.push_row(vec![format!("{alpha:.2}"), percent(rate)]);
    }
    println!("{table}");
    println!("takeaway: a broad plateau around α≈0.2-0.5; the library default is 0.3\n");
}

fn topp_sweep() {
    println!("== ablation: MRS top-P cutoff (DeepSeek K=6, 30% cache) ==\n");
    let model = ModelConfig::deepseek();
    let trace = TraceGenerator::new(model.clone(), SEED).decode_trace(160);
    let mut table = Table::new(vec!["p".into(), "hit rate".into(), "note".into()]);
    for (p, note) in [
        (3u16, "K/2"),
        (6, "K"),
        (12, "2K (paper)"),
        (24, "4K"),
        (64, "all experts"),
    ] {
        let rate = replay_hit_rate(&trace, &model, Box::new(Mrs::with_top_p(0.3, p)), 0.3);
        table.push_row(vec![p.to_string(), percent(rate), note.to_owned()]);
    }
    println!("{table}");
    println!("takeaway: accumulating only the top scores matters; p=2K is near the peak\n");
}

fn discount_sweep() {
    println!("== ablation: prefetcher choice, refill disabled (Mixtral decode, 25% cache) ==\n");
    // Cache refill shares the background PCIe queue with prefetching and
    // masks its effect; disabling it isolates the prefetcher. Mixtral is
    // the model where prefetch matters most: its 110 MB experts take two
    // decode layers to move, so only lookahead can hide the latency.
    use hybrimoe::PrefetcherKind;
    let model = ModelConfig::mixtral();
    let trace = TraceGenerator::new(model.clone(), SEED).decode_trace(24);
    let mut table = Table::new(vec!["prefetcher".into(), "TBT".into(), "hit rate".into()]);
    for kind in [
        PrefetcherKind::None,
        PrefetcherKind::NextLayerTopK,
        PrefetcherKind::ImpactDriven,
    ] {
        let config = EngineConfig {
            prefetcher: kind,
            refill_on_miss: false,
            ..EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.25)
        };
        let m = Engine::new(config).run(&trace);
        table.push_row(vec![
            format!("{kind:?}"),
            format!("{:.1}ms", m.mean_step_latency().as_millis_f64()),
            percent(m.hit_rate()),
        ]);
    }
    println!("{table}");
    println!("takeaway: lookahead prefetching converts misses that refill alone cannot\n");
}

fn steal_ablation() {
    println!("== ablation: CPU work-stealing of cached experts ==\n");
    // Two regimes. (1) The paper's Fig. 5 regime, where CPU and GPU
    // per-expert times are comparable: stealing shortens the fully-cached
    // layer. (2) The calibrated A6000 platform, where the GPU is an order
    // of magnitude faster per expert: the steal rule (correctly) never
    // fires. Both are printed; the second is an honest negative result.
    let mut table = Table::new(vec!["regime".into(), "with steal".into(), "without".into()]);

    let unit = hybrimoe_hw::UnitCostModel::paper_fig5();
    let unit_tasks: Vec<ExpertTask> = (0..4)
        .map(|i| ExpertTask::cached(ExpertId(i), 1 + i as u32))
        .collect();
    let ctx = ScheduleContext::for_test(LayerId(0), &unit_tasks, &unit);
    table.push_row(steal_row("comparable CPU/GPU (Fig. 5 units)", &ctx));

    let cost = AffineCostModel::from_platform(&Platform::a6000_xeon10());
    let model = ModelConfig::deepseek();
    let a6000_tasks: Vec<ExpertTask> = (0..8)
        .map(|i| ExpertTask::cached(ExpertId(i), 12 + 4 * i as u32))
        .collect();
    let ctx = ScheduleContext::new(
        LayerId(0),
        64,
        &a6000_tasks,
        model.routed_profile(),
        None,
        &cost,
    );
    table.push_row(steal_row("calibrated A6000 (GPU much faster)", &ctx));
    println!("{table}");
    println!("takeaway: stealing only pays when per-expert CPU and GPU times are");
    println!("comparable; the greedy applies it exactly then and stays silent otherwise\n");
}

/// The hybrid's makespan on `ctx` with and without CPU stealing.
fn steal_row(regime: &str, ctx: &ScheduleContext<'_>) -> Vec<String> {
    let mut queues = ScheduleQueues::new();
    vec![
        regime.into(),
        HybridScheduler::new()
            .makespan(ctx, &mut queues)
            .to_string(),
        HybridScheduler::without_cpu_steal()
            .makespan(ctx, &mut queues)
            .to_string(),
    ]
}

fn oracle_gap() {
    println!("== ablation: hybrid scheduler vs exhaustive oracle ==\n");
    let cost = AffineCostModel::from_platform(&Platform::a6000_xeon10());
    let model = ModelConfig::deepseek();
    let mut total_ratio = 0.0;
    let mut optimal = 0usize;
    let mut n_cases = 0usize;
    let mut worst: f64 = 1.0;
    let mut seed = SEED;
    for _ in 0..300 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let n = 2 + (seed >> 41) as usize % 6;
        let tasks: Vec<ExpertTask> = (0..n)
            .map(|i| {
                let s = seed.wrapping_add(i as u64 * 0x9E37_79B9);
                ExpertTask {
                    expert: ExpertId(i as u16),
                    load: 1 + (s >> 13) as u32 % 24,
                    cached: (s >> 7).is_multiple_of(2),
                }
            })
            .collect();
        let tokens = tasks.iter().map(|t| t.load).max().unwrap_or(1);
        let ctx = ScheduleContext::new(
            LayerId(0),
            tokens,
            &tasks,
            model.routed_profile(),
            None,
            &cost,
        );
        let hybrid = HybridScheduler::new().makespan(&ctx, &mut ScheduleQueues::new());
        let Some(opt) = oracle_makespan(&ctx) else {
            continue;
        };
        let ratio = hybrid.as_nanos() as f64 / opt.as_nanos().max(1) as f64;
        total_ratio += ratio;
        worst = worst.max(ratio);
        if hybrid == opt {
            optimal += 1;
        }
        n_cases += 1;
    }
    println!("random DeepSeek-like layers: {n_cases} instances");
    println!(
        "  exactly optimal: {} ({:.1}%)",
        optimal,
        optimal as f64 / n_cases as f64 * 100.0
    );
    println!("  mean makespan ratio: {:.4}", total_ratio / n_cases as f64);
    println!("  worst ratio: {worst:.4}");
    println!("\ntakeaway: the paper's greedy priority rules are near-optimal in practice,");
    println!("justifying 'predefined scheduling rules can achieve efficient balancing'\n");
}

/// Batched decode: HybriMoE vs kTransformers as concurrent sequences grow.
fn batched_decode() {
    println!("== ablation: batched decode serving (DeepSeek, 25% cache) ==\n");
    let model = ModelConfig::deepseek();
    let mut table = Table::new(vec![
        "batch".into(),
        "KTrans ms/step".into(),
        "HybriMoE ms/step".into(),
        "speedup".into(),
    ]);
    for batch in [1u32, 2, 4, 8] {
        let trace = TraceGenerator::new(model.clone(), SEED).decode_trace_batched(16, batch);
        let k = Engine::new(EngineConfig::preset(
            Framework::KTransformers,
            model.clone(),
            0.25,
        ))
        .run(&trace);
        let h = Engine::new(EngineConfig::preset(
            Framework::HybriMoe,
            model.clone(),
            0.25,
        ))
        .run(&trace);
        table.push_row(vec![
            batch.to_string(),
            format!("{:.1}", k.mean_step_latency().as_millis_f64()),
            format!("{:.1}", h.mean_step_latency().as_millis_f64()),
            format!(
                "{:.2}x",
                k.total.as_nanos() as f64 / h.total.as_nanos() as f64
            ),
        ]);
    }
    println!("{table}");
    println!("takeaway: batching multiplies per-expert loads, moving decode toward the");
    println!("prefill regime where transfers amortize — the hybrid advantage persists\n");
}
