//! Multi-GPU expert sharding, end to end: the engine and the serving layer
//! must actually get faster with more GPUs at the paper's tight cache
//! point, residency must follow the affinity map, and the metrics layout
//! must scale with the device count.

use hybrimoe::serve::{ArrivalProcess, ServeConfig, ServeReport, ServeSim};
use hybrimoe::{Engine, EngineConfig, Framework};
use hybrimoe_model::{shard_of, ModelConfig};
use hybrimoe_trace::TraceGenerator;

fn decode_total(num_gpus: usize) -> hybrimoe_hw::SimDuration {
    let model = ModelConfig::deepseek();
    let config =
        EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.25).with_num_gpus(num_gpus);
    let trace = TraceGenerator::new(model, 42).decode_trace(12);
    Engine::new(config).run(&trace).total
}

/// The acceptance property of the sharded stack: two GPUs decode strictly
/// faster than one on the same workload at cache ratio 0.25, and four are
/// at least as fast as two.
#[test]
fn two_gpus_decode_strictly_faster_than_one() {
    let one = decode_total(1);
    let two = decode_total(2);
    let four = decode_total(4);
    assert!(two < one, "2 GPUs not faster: {two} >= {one}");
    assert!(four <= two, "4 GPUs slower than 2: {four} > {two}");
}

fn serve_once(num_gpus: usize, arrivals_per_sec: f64) -> ServeReport {
    ServeSim::new(ServeConfig {
        engine: EngineConfig::preset(Framework::HybriMoe, ModelConfig::deepseek(), 0.25)
            .with_seed(0x5EED_2025)
            .with_num_gpus(num_gpus),
        arrivals: ArrivalProcess::per_second(arrivals_per_sec, true),
        requests: 24,
        prompt_tokens: 64,
        decode_tokens: 16,
        max_batch: 8,
        seed: 0x5EED_2025,
    })
    .run()
}

/// The serving layer inherits the speedup at every arrival rate from
/// lightly loaded to saturated: under the same Poisson schedule two shards
/// give strictly higher output throughput than one, and four at least as
/// much as two. (The three GPU counts of a rate run side by side: a
/// DeepSeek serving run takes seconds in an unoptimized build.)
#[test]
fn serving_throughput_scales_with_gpus() {
    for rate in [2.0, 5.0, 10.0] {
        let [one, two, four] = std::thread::scope(|scope| {
            [1, 2, 4]
                .map(|n| {
                    scope.spawn(move || {
                        let summary = serve_once(n, rate).summary();
                        assert_eq!(summary.num_gpus, n);
                        summary.output_tokens_per_sec
                    })
                })
                .map(|run| run.join().expect("serving run panicked"))
        });
        assert!(
            two > one,
            "{rate}/s: 2 GPUs {two} tok/s <= 1 GPU {one} tok/s"
        );
        assert!(
            four >= two,
            "{rate}/s: 4 GPUs {four} tok/s < 2 GPUs {two} tok/s"
        );
    }
}

/// Every resident expert sits on its affinity shard, after warmup and
/// after a dynamic workload churned the cache.
#[test]
fn cache_residency_follows_the_affinity_map() {
    let model = ModelConfig::deepseek();
    let config = EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.25).with_num_gpus(4);
    let mut engine = Engine::new(config);
    let check = |engine: &Engine, when: &str| {
        for s in 0..engine.cache().num_shards() {
            for key in engine.cache().shard(s).resident_keys() {
                assert_eq!(
                    shard_of(key.expert, engine.cache().num_shards()),
                    s,
                    "{when}: {key} resident off its shard"
                );
            }
        }
    };
    check(&engine, "after warmup");
    let trace = TraceGenerator::new(model, 7).decode_trace(8);
    engine.run(&trace);
    check(&engine, "after decode");
}

/// The busy-vector layout tracks the device count (`1 + 2 * num_gpus`) and
/// the per-step latency bounds each device's busy time.
#[test]
fn step_metrics_scale_with_device_count() {
    let model = ModelConfig::tiny_test();
    for num_gpus in [1usize, 2, 4] {
        let config =
            EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.5).with_num_gpus(num_gpus);
        let trace = TraceGenerator::new(model.clone(), 3).decode_trace(4);
        let metrics = Engine::new(config).run(&trace);
        for step in &metrics.steps {
            assert_eq!(step.device_busy.len(), 1 + 2 * num_gpus);
            assert_eq!(step.num_gpus(), num_gpus);
            for (d, busy) in hybrimoe_hw::devices(num_gpus).zip(step.device_busy.iter()) {
                assert!(
                    *busy <= step.latency,
                    "N={num_gpus}: {d} busy {busy} exceeds step latency {}",
                    step.latency
                );
            }
        }
    }
}

/// Warmup placement is shard-aware: every shard fills to its own capacity
/// (a shard-blind frequency fill would overfill some shards — dropping
/// their most frequent experts — while leaving others with free slots).
#[test]
fn warmup_fills_every_shard_to_capacity() {
    for framework in [Framework::HybriMoe, Framework::KTransformers] {
        for num_gpus in [1usize, 2, 4] {
            let config = EngineConfig::preset(framework, ModelConfig::deepseek(), 0.25)
                .with_num_gpus(num_gpus);
            let engine = Engine::new(config);
            for s in 0..num_gpus {
                let shard = engine.cache().shard(s);
                assert_eq!(
                    shard.len(),
                    shard.capacity(),
                    "{framework:?} N={num_gpus}: shard {s} not full after warmup"
                );
            }
        }
    }
}

/// Total cache capacity is preserved across shard counts (shards split the
/// budget; they do not multiply it).
#[test]
fn sharding_preserves_total_cache_capacity() {
    let model = ModelConfig::deepseek();
    let base = EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.25);
    let expect = base.cache_capacity();
    for num_gpus in [1usize, 2, 4] {
        let engine = Engine::new(base.clone().with_num_gpus(num_gpus));
        assert_eq!(engine.cache().capacity(), expect, "N={num_gpus}");
        assert_eq!(engine.cache().num_shards(), num_gpus);
    }
}
