//! Calibration sweep for the trace generator (developer tool, not a paper
//! figure): prints reuse probability, hit rates and CDF skew across
//! parameter combinations so the defaults can be pinned to the paper's
//! measured statistics.

use hybrimoe_bench::replay_hit_rate;
use hybrimoe_cache::{Lru, Mrs};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{stats, TraceConfig, TraceGenerator};

fn main() {
    let model = ModelConfig::deepseek();
    println!("DeepSeek targets: top-rank reuse ~0.30, LRU@30% ~47.7, MRS@30% ~52.7");
    for rho_t in [0.25, 0.3, 0.35, 0.4] {
        for bias in [0.5, 0.6, 0.7] {
            let config = TraceConfig {
                temporal_correlation: rho_t,
                expert_bias: bias,
                ..TraceConfig::default()
            };
            let trace = TraceGenerator::with_config(model.clone(), 0xF19, config).decode_trace(192);
            let reuse = stats::reuse_probability_by_rank(&trace);
            let top = reuse[0];
            let tail = reuse[reuse.len() / 2];
            let cdf = stats::activation_cdf(&trace);
            let top20 = cdf[cdf.len() / 5 - 1];
            let lru = replay_hit_rate(&trace, &model, Box::new(Lru::new()), 0.30);
            let mrs = replay_hit_rate(&trace, &model, Box::new(Mrs::new(0.3)), 0.30);
            println!(
                "rho_t={rho_t:.2} bias={bias:.1} | reuse top={top:.2} mid={tail:.2} | cdf top20%={top20:.2} | LRU@30={:.1}% MRS@30={:.1}%",
                lru * 100.0,
                mrs * 100.0
            );
        }
    }
}
