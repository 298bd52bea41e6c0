//! The prefetch gate, on the modeled clock where it is exact: each
//! surviving prefetcher against *not prefetching* (the baseline to beat),
//! on DeepSeek-V2-Lite decode at the paper's three cache ratios.

use hybrimoe::{Engine, EngineConfig, Framework, PrefetchCounters, PrefetcherKind};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{ActivationTrace, TraceGenerator};

const SEED: u64 = 7;
const DECODE_STEPS: usize = 96;

/// Decode throughput (tokens per modeled second), cache hit ratio,
/// prefetch accounting and the prefetches still queued at the end, of the
/// HybriMoE preset with one prefetcher.
fn decode(
    trace: &ActivationTrace,
    kind: PrefetcherKind,
    ratio: f64,
) -> (f64, f64, PrefetchCounters, u64) {
    let config = EngineConfig::preset(Framework::HybriMoe, ModelConfig::deepseek(), ratio)
        .with_seed(SEED)
        .with_prefetcher(kind);
    let mut engine = Engine::new(config);
    let metrics = engine.run(trace);
    let tok_s = DECODE_STEPS as f64 / (metrics.total.as_nanos() as f64 / 1e9);
    (
        tok_s,
        metrics.hit_rate(),
        engine.prefetch_counters(),
        engine.queued_prefetches(),
    )
}

/// `none` issues nothing; the others issue, and account for every
/// prefetch they issue exactly (landed, wasted or still queued); no
/// survivor falls below `none`'s throughput at any ratio, and the default
/// impact-driven prefetcher beats it by at least 3% at the tightest cache.
/// Prints the `tok_s_vs_none` / hit-ratio-delta table the README quotes.
#[test]
fn surviving_prefetchers_at_least_match_none() {
    let trace = TraceGenerator::new(ModelConfig::deepseek(), SEED).decode_trace(DECODE_STEPS);
    println!("DeepSeek-V2-Lite, {DECODE_STEPS}-step decode, HybriMoE preset, seed {SEED}");
    println!("ratio  prefetcher       tok/s  vs none  hit ratio  delta pts  issued landed wasted");
    for ratio in [0.25, 0.5, 0.75] {
        let runs = [
            PrefetcherKind::None,
            PrefetcherKind::NextLayerTopK,
            PrefetcherKind::ImpactDriven,
        ]
        .map(|kind| (kind, decode(&trace, kind, ratio)));
        let (_, (none_tok_s, none_hit, none_counters, _)) = runs[0];
        assert_eq!(none_counters, PrefetchCounters::default());
        for (kind, (tok_s, hit, c, queued)) in runs {
            let name = kind.name();
            let vs_none = tok_s / none_tok_s;
            println!(
                "{ratio:<5}  {name:<15} {tok_s:>6.2}    {vs_none:.3}     {hit:.4}     {:>+6.2}  {:>6} {:>6} {:>6}",
                (hit - none_hit) * 100.0,
                c.issued,
                c.landed,
                c.wasted
            );
            if kind == PrefetcherKind::None {
                continue;
            }
            assert!(c.issued > 0, "{name} issued nothing at ratio {ratio}");
            assert_eq!(
                c.issued,
                c.landed + c.wasted + queued,
                "{name} at ratio {ratio}: {c:?} with {queued} queued does not account for every prefetch"
            );
            assert!(
                vs_none >= 1.0,
                "{name} at ratio {ratio}: {tok_s:.2} tok/s is {vs_none:.3}x none ({none_tok_s:.2})"
            );
            if kind == PrefetcherKind::ImpactDriven && ratio == 0.25 {
                assert!(
                    vs_none >= 1.03,
                    "{name} at ratio {ratio}: {vs_none:.3}x none, below the 1.03x floor"
                );
            }
        }
    }
}
