//! Extending HybriMoE with a custom cache replacement policy.
//!
//! The `CachePolicy` trait is the extension point: implement it, hand it to
//! an `ExpertCache`, and compare hit rates against the built-in policies on
//! the same trace. The example policy is "score-weighted LRU": recency
//! aged by the router-score mass each expert accumulated.
//!
//! The cache calls a policy on every layer of every engine step, so the
//! contract (see `hybrimoe_cache::CachePolicy`) is built around views and
//! dense state: per-expert values live in a `KeyMap` (a flat array indexed
//! by expert key, unwritten keys read as the default), `on_routing` gets
//! the layer's mean scores as a reused `RoutingScores`, and
//! `choose_victim` scans the `Candidates` — already in ascending key
//! order, protected experts already excluded — in one pass.
//!
//! ```text
//! cargo run -p hybrimoe-examples --release --bin custom_policy
//! ```

use hybrimoe::report::Table;
use hybrimoe_cache::{CachePolicy, Candidates, ExpertCache, KeyMap, Lru, Mrs, RoutingScores};
use hybrimoe_model::{ExpertKey, ModelConfig};
use hybrimoe_trace::{ActivationTrace, TraceGenerator};

/// LRU whose timestamps are advanced further for experts with high recent
/// router scores, making them look "fresher" than raw recency.
#[derive(Debug, Default)]
struct ScoreWeightedLru {
    /// Effective timestamp per expert; 0 (the default) for experts that
    /// are not resident.
    last_access: KeyMap<f64>,
    clock: f64,
}

impl CachePolicy for ScoreWeightedLru {
    fn name(&self) -> &str {
        "score-weighted-lru"
    }

    fn on_routing(&mut self, scores: &mut RoutingScores) {
        // Scores push a resident expert's effective timestamp forward in
        // time. Only the experts this instance owns: behind a sharded
        // cache every shard has its own policy.
        let mean = scores.mean();
        let row = self.last_access.row_mut(scores.layer(), mean.len());
        for e in scores.owned_experts() {
            let t = &mut row[e.0 as usize];
            if *t > 0.0 {
                *t += 64.0 * mean[e.0 as usize] as f64;
            }
        }
    }

    fn on_access(&mut self, key: ExpertKey, _now: u64) {
        self.clock += 1.0;
        self.last_access.set(key, self.clock);
    }

    fn on_insert(&mut self, key: ExpertKey, _now: u64) {
        self.clock += 1.0;
        self.last_access.set(key, self.clock);
    }

    fn on_evict(&mut self, key: ExpertKey) {
        self.last_access.set(key, 0.0);
    }

    fn choose_victim(&mut self, candidates: Candidates<'_>) -> Option<ExpertKey> {
        // Smallest timestamp first, ties to the smallest key: candidates
        // arrive in ascending key order, so one pass decides.
        candidates.min_by_value(|k| self.last_access.get(k))
    }
}

/// Replays a decode trace through a cache and reports its hit rate.
fn measure(trace: &ActivationTrace, model: &ModelConfig, policy: Box<dyn CachePolicy>) -> f64 {
    let mut cache = ExpertCache::new(model.cache_capacity_for_ratio(0.3), policy);
    let warmup = trace.steps.len() / 4;
    for (i, step) in trace.steps.iter().enumerate() {
        if i == warmup {
            cache.reset_stats();
        }
        for rec in &step.layers {
            cache.note_routing(&rec.routing, model.activated_experts);
            for (expert, _) in rec.routing.activated() {
                let key = ExpertKey::new(rec.routing.layer(), expert);
                if !cache.lookup(key) {
                    cache.insert(key);
                }
            }
        }
    }
    cache.stats().hit_rate()
}

fn main() {
    let model = ModelConfig::deepseek();
    let trace = TraceGenerator::new(model.clone(), 11).decode_trace(192);
    println!(
        "Cache policy comparison on {} (30% capacity, 192 decode steps)\n",
        model.name
    );
    let mut table = Table::new(vec!["policy".into(), "hit rate".into()]);
    let policies: Vec<Box<dyn CachePolicy>> = vec![
        Box::new(Lru::new()),
        Box::new(Mrs::new(0.3)),
        Box::new(ScoreWeightedLru::default()),
    ];
    for policy in policies {
        let name = policy.name().to_owned();
        let rate = measure(&trace, &model, policy);
        table.push_row(vec![name, format!("{:.1}%", rate * 100.0)]);
    }
    println!("{table}");
    println!("Any policy implementing `CachePolicy` plugs into the same cache and");
    println!("engine — see hybrimoe_cache::CachePolicy for the contract.");
}
