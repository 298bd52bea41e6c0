//! Quickstart: run HybriMoE decode on DeepSeek-V2-Lite and compare against
//! the kTransformers baseline.
//!
//! ```text
//! cargo run -p hybrimoe-examples --release --bin quickstart
//! ```

use hybrimoe::{Engine, EngineConfig, Framework};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;

fn main() {
    // 1. Pick a model (paper presets: deepseek / mixtral / qwen2) and a GPU
    //    expert-cache ratio.
    let model = ModelConfig::deepseek();
    let cache_ratio = 0.25;

    // 2. Generate a deterministic synthetic activation trace: 32 decode
    //    steps of one token each.
    let trace = TraceGenerator::new(model.clone(), 42).decode_trace(32);

    // 3. Run both engines on the identical trace.
    let mut hybri = Engine::new(EngineConfig::preset(
        Framework::HybriMoe,
        model.clone(),
        cache_ratio,
    ));
    let mut ktrans = Engine::new(EngineConfig::preset(
        Framework::KTransformers,
        model,
        cache_ratio,
    ));
    let ours = hybri.run(&trace);
    let base = ktrans.run(&trace);

    // 4. Report.
    println!("DeepSeek-V2-Lite decode, 32 tokens, 25% expert cache\n");
    println!(
        "kTransformers: {:>8.2} ms/token (hit rate {:.1}%)",
        base.mean_step_latency().as_millis_f64(),
        base.hit_rate() * 100.0
    );
    println!(
        "HybriMoE:      {:>8.2} ms/token (hit rate {:.1}%)",
        ours.mean_step_latency().as_millis_f64(),
        ours.hit_rate() * 100.0
    );
    println!(
        "speedup:       {:>8.2}x",
        base.total.as_nanos() as f64 / ours.total.as_nanos() as f64
    );
    let prefetch = hybri.prefetch_counters();
    println!(
        "\nHybriMoE placed {} experts on the CPU, {} on the GPU and moved {} on demand.",
        ours.cpu_experts(),
        ours.gpu_experts(),
        ours.demand_transfers(),
    );
    println!(
        "Prefetches: {} issued, {} landed, {} wasted \
         ({} stale, {} cut short, {} unadmitted); \
         background transfers landed (prefetches and refills): {}.",
        prefetch.issued,
        prefetch.landed,
        prefetch.wasted,
        prefetch.stale,
        prefetch.cut_short,
        prefetch.unadmitted,
        ours.background_landed()
    );
}
