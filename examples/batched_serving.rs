//! Small-batch decode serving: several concurrent requests decoded in
//! lockstep — the regime between single-user decode and prefill. Batching
//! multiplies per-expert loads, which shifts the optimal placement (more
//! transfers pay off) and widens the dynamic scheduler's advantage.
//!
//! ```text
//! cargo run -p hybrimoe-examples --release --bin batched_serving
//! ```

use hybrimoe::report::Table;
use hybrimoe::{Engine, EngineConfig, Framework};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;

fn main() {
    let model = ModelConfig::deepseek();
    let cache_ratio = 0.25;
    println!(
        "Batched decode serving — {} @ {:.0}% cache, 16 steps\n",
        model.name,
        cache_ratio * 100.0
    );

    let mut table = Table::new(vec![
        "batch".into(),
        "framework".into(),
        "ms/step".into(),
        "ms/token".into(),
        "CPU experts".into(),
        "transfers".into(),
    ]);
    for batch in [1u32, 2, 4, 8] {
        let trace = TraceGenerator::new(model.clone(), 31).decode_trace_batched(16, batch);
        for framework in [Framework::KTransformers, Framework::HybriMoe] {
            let mut engine =
                Engine::new(EngineConfig::preset(framework, model.clone(), cache_ratio));
            let m = engine.run(&trace);
            let per_step = m.mean_step_latency().as_millis_f64();
            table.push_row(vec![
                batch.to_string(),
                framework.to_string(),
                format!("{per_step:.1}"),
                format!("{:.1}", per_step / batch as f64),
                m.cpu_experts().to_string(),
                (m.demand_transfers() + m.background_landed()).to_string(),
            ]);
        }
    }
    println!("{table}");
    println!("Per-token cost falls with batch size for both systems, but HybriMoE");
    println!("converts the growing loads into transfers the fixed mapping cannot use.");
}
