//! Table II — configuration of the three evaluated MoE models, extended
//! with the derived per-expert byte/FLOP accounting the cost model uses.

use hybrimoe::report::Table;
use hybrimoe_model::ModelConfig;

fn main() {
    println!("== Table II: evaluated MoE model configurations ==\n");
    let mut table = Table::new(vec![
        "".into(),
        "Mixtral".into(),
        "Qwen2".into(),
        "DeepSeek".into(),
    ]);
    let models = [
        ModelConfig::mixtral(),
        ModelConfig::qwen2(),
        ModelConfig::deepseek(),
    ];
    let row = |label: &str, f: &dyn Fn(&ModelConfig) -> String| {
        let mut r = vec![label.to_owned()];
        r.extend(models.iter().map(f));
        r
    };
    table.push_row(row("#Layers", &|m| m.layers.to_string()));
    table.push_row(row("#Shared Experts", &|m| m.shared_experts.to_string()));
    table.push_row(row("#Routed Experts", &|m| m.routed_experts.to_string()));
    table.push_row(row("#Activated Experts", &|m| {
        m.activated_experts.to_string()
    }));
    table.push_row(row("Shared Expert Size", &|m| match m.shared_shape {
        Some(s) => format!("({}, {})", s.hidden(), s.inter()),
        None => "/".to_owned(),
    }));
    table.push_row(row("Routed Expert Size", &|m| {
        format!("({}, {})", m.routed_shape.hidden(), m.routed_shape.inter())
    }));
    table.push_row(row("Routed expert MBytes (Q4)", &|m| {
        format!("{:.1}", m.routed_shape.packed_bytes() as f64 / 1e6)
    }));
    table.push_row(row("Routed expert MFLOP/token", &|m| {
        format!("{:.1}", m.routed_shape.flops_per_token() as f64 / 1e6)
    }));
    table.push_row(row("All routed experts (GB)", &|m| {
        format!("{:.1}", m.total_routed_bytes() as f64 / 1e9)
    }));
    println!("{table}");
    println!(
        "note: Qwen2 routed expert size uses the published checkpoint value (3584, 2560);\n\
         the paper's table prints the dense-FFN width (see ModelConfig::qwen2)."
    );
}
