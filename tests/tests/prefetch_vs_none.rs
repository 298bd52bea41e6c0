//! The prefetch gate, on the modeled clock where it is exact: each
//! surviving prefetcher against *not prefetching* (the baseline to beat),
//! on DeepSeek-V2-Lite decode at the paper's three cache ratios.

use hybrimoe::{Engine, EngineConfig, Framework, PrefetchCounters, PrefetcherKind};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{ActivationTrace, TraceGenerator};

const SEED: u64 = 7;
const DECODE_STEPS: usize = 96;

/// Decode throughput (tokens per modeled second), cache hit ratio and
/// prefetch accounting of the HybriMoE preset with one prefetcher.
fn decode(
    trace: &ActivationTrace,
    kind: PrefetcherKind,
    ratio: f64,
) -> (f64, f64, PrefetchCounters) {
    let config = EngineConfig::preset(Framework::HybriMoe, ModelConfig::deepseek(), ratio)
        .with_seed(SEED)
        .with_prefetcher(kind);
    let mut engine = Engine::new(config);
    let metrics = engine.run(trace);
    let tok_s = DECODE_STEPS as f64 / (metrics.total.as_nanos() as f64 / 1e9);
    (tok_s, metrics.hit_rate(), engine.prefetch_counters())
}

/// `none` issues nothing; the others issue and account for every transfer;
/// and no survivor costs more than 6% of `none`'s throughput. Prints the
/// `tok_s_vs_none` / hit-ratio-delta table the README quotes.
#[test]
fn surviving_prefetchers_stay_within_six_percent_of_none() {
    let trace = TraceGenerator::new(ModelConfig::deepseek(), SEED).decode_trace(DECODE_STEPS);
    println!("DeepSeek-V2-Lite, {DECODE_STEPS}-step decode, HybriMoE preset, seed {SEED}");
    println!("ratio  prefetcher       tok/s  vs none  hit ratio  delta pts  issued landed wasted");
    for ratio in [0.25, 0.5, 0.75] {
        let runs = [
            PrefetcherKind::None,
            PrefetcherKind::NextLayerTopK,
            PrefetcherKind::ImpactDriven,
        ]
        .map(|kind| (kind.name(), decode(&trace, kind, ratio)));
        let (_, (none_tok_s, none_hit, none_counters)) = runs[0];
        assert_eq!(none_counters, PrefetchCounters::default());
        for (name, (tok_s, hit, c)) in runs {
            let vs_none = tok_s / none_tok_s;
            println!(
                "{ratio:<5}  {name:<15} {tok_s:>6.2}    {vs_none:.3}     {hit:.4}     {:>+6.2}  {:>6} {:>6} {:>6}",
                (hit - none_hit) * 100.0,
                c.issued,
                c.landed,
                c.wasted
            );
            if name == PrefetcherKind::None.name() {
                continue;
            }
            assert!(c.issued > 0, "{name} issued nothing at ratio {ratio}");
            assert!(
                c.landed + c.wasted <= c.issued,
                "{name} at ratio {ratio}: {c:?} resolves more transfers than it issued"
            );
            assert!(
                vs_none >= 0.94,
                "{name} at ratio {ratio}: {tok_s:.2} tok/s is {vs_none:.3}x none ({none_tok_s:.2})"
            );
        }
    }
}
