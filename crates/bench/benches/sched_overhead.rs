//! Scheduling decision overhead: the paper's scheduler must be cheap enough
//! to run per layer in real time (§IV-B calls the simulation "greedy" and
//! "minimal overhead"). `schedule_one_layer` measures one scheduling
//! decision for realistic task-set sizes (Mixtral: 8 experts;
//! DeepSeek/Qwen2: up to 64). The schedule is only a small part of what a
//! layer costs the host, so `decision_path_per_layer` measures all of it:
//! the routing note, the cache lookups, the schedule, the impact-driven
//! prefetch plan and the demand inserts with their evictions, on DeepSeek
//! decode at cache ratio 0.25 — everything `Engine::step` does per layer
//! except executing the plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hybrimoe_cache::{Mrs, ShardedExpertCache};
use hybrimoe_hw::{AffineCostModel, CostModel, Platform};
use hybrimoe_model::{ExpertId, ExpertKey, LayerId, ModelConfig};
use hybrimoe_sched::baselines::{FixedMappingScheduler, GpuOnlyScheduler};
use hybrimoe_sched::{
    ExpertTask, HybridScheduler, ImpactDrivenPrefetcher, PredictedLayer, PrefetchContext,
    PrefetchScratch, Prefetcher, ScheduleContext, ScheduleScratch, Scheduler,
};
use hybrimoe_trace::{LayerRecord, TraceGenerator};

fn tasks(n: u16, seed: u64) -> Vec<ExpertTask> {
    let mut state = seed;
    (0..n)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ExpertTask {
                expert: ExpertId(i),
                load: 1 + (state >> 33) as u32 % 16,
                cached: (state >> 17).is_multiple_of(2),
            }
        })
        .collect()
}

fn bench_schedulers(c: &mut Criterion) {
    let cost = AffineCostModel::from_platform(&Platform::a6000_xeon10());
    let model = ModelConfig::deepseek();
    let mut group = c.benchmark_group("schedule_one_layer");
    for n in [8u16, 16, 32, 64] {
        let ts = tasks(n, 42);
        let ctx = ScheduleContext::new(
            LayerId(0),
            64,
            &ts,
            model.routed_profile(),
            model.shared_profile(),
            &cost,
        );
        group.bench_with_input(BenchmarkId::new("hybrid", n), &ctx, |b, ctx| {
            let s = HybridScheduler::new();
            b.iter(|| s.schedule(std::hint::black_box(ctx)));
        });
        group.bench_with_input(BenchmarkId::new("fixed", n), &ctx, |b, ctx| {
            let s = FixedMappingScheduler::new();
            b.iter(|| s.schedule(std::hint::black_box(ctx)));
        });
        group.bench_with_input(BenchmarkId::new("gpu_only", n), &ctx, |b, ctx| {
            let s = GpuOnlyScheduler::new();
            b.iter(|| s.schedule(std::hint::black_box(ctx)));
        });
    }
    group.finish();
}

/// The state one layer's decisions read and write, with every buffer
/// reused from layer to layer as the engine does.
struct DecisionPath {
    model: ModelConfig,
    cost: AffineCostModel,
    cache: ShardedExpertCache,
    sched: ScheduleScratch,
    lookahead: Vec<PredictedLayer>,
    prefetch: PrefetchScratch,
}

impl DecisionPath {
    /// One layer of a decode step; returns how many experts it touched.
    fn layer(&mut self, rec: &LayerRecord) -> usize {
        let model = &self.model;
        let layer = rec.routing.layer();
        self.cache
            .note_routing(&rec.routing, model.activated_experts);

        let ScheduleScratch {
            tasks,
            protect,
            queues,
            plan,
        } = self.sched.begin_layer();
        for (expert, load) in rec.routing.activated_iter() {
            let key = ExpertKey::new(layer, expert);
            protect.push(key);
            tasks.push(ExpertTask {
                expert,
                load,
                cached: self.cache.lookup(key),
            });
        }
        let ctx = ScheduleContext::new(
            layer,
            1,
            tasks,
            model.routed_profile(),
            model.shared_profile(),
            &self.cost,
        );
        HybridScheduler::new().schedule_into(&ctx, queues, plan);

        self.lookahead
            .resize_with(rec.predicted.len(), || PredictedLayer {
                layer,
                tasks: Vec::new(),
                scores: Vec::new(),
            });
        for (entry, routing) in self.lookahead.iter_mut().zip(&rec.predicted) {
            entry.layer = routing.layer();
            entry.tasks.clear();
            entry
                .tasks
                .extend(routing.activated_iter().map(|(expert, load)| ExpertTask {
                    expert,
                    load,
                    cached: self.cache.contains(ExpertKey::new(routing.layer(), expert)),
                }));
            routing.mean_scores_into(&mut entry.scores);
        }
        let transfer = self.cost.transfer(&model.routed_profile());
        let picks = ImpactDrivenPrefetcher::new()
            .plan_with(
                &PrefetchContext {
                    current_layer: layer,
                    lookahead: &self.lookahead,
                    free_slots: 4,
                    budget: transfer * 4,
                    tokens: 1,
                    routed_profile: model.routed_profile(),
                    shared_profile: model.shared_profile(),
                    cost: &self.cost,
                    num_gpus: 1,
                    confidence: None,
                    shard_free: None,
                },
                &mut self.prefetch,
            )
            .len();

        for expert in plan.transferred_experts() {
            self.cache
                .insert_protected(ExpertKey::new(layer, expert), protect);
        }
        tasks.len() + picks
    }
}

fn bench_decision_path(c: &mut Criterion) {
    let model = ModelConfig::deepseek();
    let trace = TraceGenerator::new(model.clone(), 7).decode_trace(32);
    let records: Vec<&LayerRecord> = trace.steps.iter().flat_map(|s| &s.layers).collect();
    let capacity = model.cache_capacity_for_ratio(0.25);
    let mut path = DecisionPath {
        cost: AffineCostModel::from_platform(&Platform::a6000_xeon10()),
        cache: ShardedExpertCache::new(capacity, 1, || Box::new(Mrs::new(0.3))),
        sched: ScheduleScratch::new(),
        lookahead: Vec::new(),
        prefetch: PrefetchScratch::default(),
        model,
    };
    // Fill the cache (every demand insert then evicts) and grow every
    // buffer to its steady-state size before anything is timed.
    while path.cache.free_slots() > 0 {
        for rec in &records {
            path.layer(rec);
        }
    }
    let mut group = c.benchmark_group("decision_path_per_layer");
    group.bench_function("deepseek_decode_r0.25", |b| {
        let mut at = 0usize;
        b.iter(|| {
            at = (at + 1) % records.len();
            path.layer(records[at])
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_schedulers, bench_decision_path
}
criterion_main!(benches);
