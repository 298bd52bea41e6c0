//! Fig. 9 — cache hit rate of MRS vs LRU across cached expert percentages
//! (30–70%) for the three models.
//!
//! Pure cache simulation: per decode iteration and layer, the policy sees
//! the routing scores, the activated experts are looked up, and misses are
//! inserted on demand (evicting per policy). No scheduling or prefetching
//! is involved, isolating the replacement policy exactly as the paper's
//! discussion section does.
//!
//! Paper shape: MRS above LRU everywhere, by ~6–8 points at 25–30% cache,
//! with the gap narrowing as capacity grows (e.g. Mixtral 83.3% vs 80.6%
//! at 75%).

use hybrimoe::report::{percent, Table};
use hybrimoe_bench::replay_hit_rate;
use hybrimoe_cache::{CachePolicy, Lru, Mrs};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;

const ITERATIONS: usize = 256;
const SEED: u64 = 0xF19_2025;

fn main() {
    println!(
        "== Fig. 9: MRS vs LRU cache hit rate, {ITERATIONS} decode iterations, seed {SEED:#x} ==\n"
    );
    let ratios = [0.30, 0.40, 0.50, 0.60, 0.70];
    let mut table = Table::new(
        std::iter::once("model / policy".to_owned())
            .chain(ratios.iter().map(|r| format!("{:.0}%", r * 100.0)))
            .collect(),
    );
    for model in ModelConfig::paper_models() {
        let trace = TraceGenerator::new(model.clone(), SEED).decode_trace(ITERATIONS);
        for mrs in [false, true] {
            let mut row = vec![format!(
                "{} {}",
                model.name,
                if mrs { "MRS" } else { "LRU" }
            )];
            for ratio in ratios {
                let policy: Box<dyn CachePolicy> = if mrs {
                    Box::new(Mrs::new(0.3))
                } else {
                    Box::new(Lru::new())
                };
                row.push(percent(replay_hit_rate(&trace, &model, policy, ratio)));
            }
            table.push_row(row);
        }
    }
    println!("{table}");
    println!("paper @30%: Mixtral 36.2/30.2, DeepSeek 52.7/47.7, Qwen2 52.8/45.0 (MRS/LRU)");
    println!("paper @70-75%: gap narrows (Mixtral 83.3 vs 80.6)");
}
