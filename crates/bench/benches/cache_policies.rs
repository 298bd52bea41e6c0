//! Cache policy overhead: one full decode iteration of cache maintenance
//! (routing note + lookups + demand inserts) for each replacement policy.
//! MRS must stay within the same order of magnitude as LRU/LFU for its
//! hit-rate gains to be free. `eviction_at_capacity_416` isolates the
//! costliest single operation of that path: one insert into a full cache
//! of DeepSeek's 416 slots (cache ratio 0.25), which has to scan every
//! resident expert for the policy's victim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hybrimoe_cache::{CachePolicy, ExpertCache, InsertOutcome, Lfu, Lru, Mrs};
use hybrimoe_model::{ExpertId, ExpertKey, LayerId, ModelConfig};
use hybrimoe_trace::TraceGenerator;

type PolicyFactory = fn() -> Box<dyn CachePolicy>;

const POLICIES: [(&str, PolicyFactory); 3] = [
    ("lru", || Box::new(Lru::new())),
    ("lfu", || Box::new(Lfu::new())),
    ("mrs", || Box::new(Mrs::new(0.3))),
];

fn bench_policies(c: &mut Criterion) {
    let model = ModelConfig::deepseek();
    let trace = TraceGenerator::new(model.clone(), 7).decode_trace(8);
    let mut group = c.benchmark_group("cache_decode_iteration");

    for (name, factory) in POLICIES {
        group.bench_with_input(BenchmarkId::new(name, "deepseek"), &trace, |b, trace| {
            b.iter(|| {
                let mut cache = ExpertCache::new(model.cache_capacity_for_ratio(0.3), factory());
                for step in &trace.steps {
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
                std::hint::black_box(cache.stats())
            });
        });
    }
    group.finish();
}

fn bench_eviction(c: &mut Criterion) {
    let model = ModelConfig::deepseek();
    let capacity = model.cache_capacity_for_ratio(0.25);
    assert_eq!(capacity, 416);
    let trace = TraceGenerator::new(model.clone(), 7).decode_trace(8);
    let mut group = c.benchmark_group("eviction_at_capacity_416");
    for (name, factory) in POLICIES {
        // A full cache with primed scores, as a warm engine holds it: 16
        // residents in each of the 26 layers.
        let mut cache = ExpertCache::new(capacity, factory());
        for rec in trace.steps.iter().flat_map(|s| &s.layers) {
            cache.note_routing(&rec.routing, model.activated_experts);
        }
        for key in model.expert_keys().filter(|k| k.expert.0 < 16) {
            cache.insert(key);
        }
        assert!(cache.is_full());
        // The layer in flight protects its six activated experts.
        let protect: Vec<ExpertKey> = (0..6)
            .map(|e| ExpertKey::new(LayerId(3), ExpertId(e)))
            .collect();
        // Every insert evicts, and re-inserts the victim of the one before.
        let mut incoming = ExpertKey::new(LayerId(3), ExpertId(40));
        group.bench_function(name, |b| {
            b.iter(|| match cache.insert_protected(incoming, &protect) {
                InsertOutcome::InsertedEvicting(victim) => incoming = victim,
                outcome => panic!("a full cache must evict, got {outcome:?}"),
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_policies, bench_eviction
}
criterion_main!(benches);
