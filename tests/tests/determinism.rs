//! Reproducibility regression: the whole pipeline — trace generation,
//! scheduling, prefetching, caching, simulated execution — must be a pure
//! function of the seed. Bench comparisons across PRs rely on this: if two
//! runs of the same configuration diverge, every figure/table binary
//! becomes noise.

use hybrimoe::realexec::RealExecOptions;
use hybrimoe::serve::{ArrivalProcess, ServeConfig, ServeReport, ServeSim};
use hybrimoe::{BackendKind, Engine, EngineConfig, Framework, StageMetrics};
use hybrimoe_hw::SimDuration;
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;

fn run_once(framework: Framework, seed: u64, decode_steps: usize) -> StageMetrics {
    let model = ModelConfig::deepseek();
    let config = EngineConfig::preset(framework, model.clone(), 0.25);
    let mut engine = Engine::new(config);
    let trace = TraceGenerator::new(model, seed).decode_trace(decode_steps);
    engine.run(&trace)
}

#[test]
fn same_seed_gives_identical_stage_metrics() {
    for framework in [
        Framework::LlamaCpp,
        Framework::AdapMoe,
        Framework::KTransformers,
        Framework::HybriMoe,
    ] {
        let a = run_once(framework, 42, 12);
        let b = run_once(framework, 42, 12);
        assert_eq!(a, b, "{framework:?}: same seed, different metrics");
    }
}

#[test]
fn same_seed_gives_identical_traces() {
    let model = ModelConfig::deepseek();
    let t1 = TraceGenerator::new(model.clone(), 7).decode_trace(16);
    let t2 = TraceGenerator::new(model, 7).decode_trace(16);
    assert_eq!(t1, t2, "trace generation is not seed-deterministic");
}

#[test]
fn different_seeds_give_different_traces() {
    let model = ModelConfig::deepseek();
    let t1 = TraceGenerator::new(model.clone(), 1).decode_trace(16);
    let t2 = TraceGenerator::new(model, 2).decode_trace(16);
    assert_ne!(t1, t2, "seed does not influence the trace");
}

#[test]
fn prefill_is_seed_deterministic_end_to_end() {
    let model = ModelConfig::deepseek();
    let config = EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.25);
    let trace = TraceGenerator::new(model, 1234).prefill_trace(64);
    let a = Engine::new(config.clone()).run(&trace);
    let b = Engine::new(config).run(&trace);
    assert_eq!(a, b, "prefill replay diverged between engines");
}

fn serve_once(framework: Framework, seed: u64) -> ServeReport {
    ServeSim::new(ServeConfig {
        engine: EngineConfig::preset(framework, ModelConfig::deepseek(), 0.25),
        arrivals: ArrivalProcess::poisson(SimDuration::from_millis(120)),
        requests: 6,
        prompt_tokens: 16,
        decode_tokens: 4,
        max_batch: 4,
        seed,
    })
    .run()
}

/// The continuous-batching path is a pure function of the seed: arrivals,
/// per-request traces, batch formation and engine state all replay, so
/// TTFT/TPOT/throughput are bit-identical across runs.
#[test]
fn serving_metrics_are_bit_identical_across_runs() {
    for framework in [Framework::KTransformers, Framework::HybriMoe] {
        let a = serve_once(framework, 42);
        let b = serve_once(framework, 42);
        assert_eq!(a, b, "{framework:?}: same seed, different serving report");
        // The derived metrics (including every float) pin down too.
        assert_eq!(a.summary(), b.summary());
        for (x, y) in a.requests.iter().zip(b.requests.iter()) {
            assert_eq!(x.ttft(), y.ttft());
            assert_eq!(x.tpot(), y.tpot());
            assert_eq!(x.latency(), y.latency());
        }
    }
}

#[test]
fn serving_seed_changes_the_outcome() {
    let a = serve_once(Framework::HybriMoe, 1);
    let b = serve_once(Framework::HybriMoe, 2);
    assert_ne!(a, b, "serving seed has no effect");
}

/// Absolute pins captured on the pre-multi-GPU engine (single GPU, flat
/// cache, scalar timelines). The `num_gpus = 1` path of the generalized
/// stack must reproduce them bit for bit: any drift means the refactor
/// changed single-GPU scheduling, caching or accounting behaviour.
#[test]
fn single_gpu_pins_match_the_pre_refactor_engine() {
    // (framework, total latency in ns, cache hits, cache misses) for
    // run_once(seed 42, 12 decode steps) on the DeepSeek model at cache
    // ratio 0.25. llama.cpp's total moved once, from 470_022_552, when its
    // CPU-mapped decode layers started charging their shared experts to
    // the CPU instead of dropping them. AdapMoE's and HybriMoE's moved
    // once, from 321_147_595 (773/1099) and 225_848_268 (680/1192), when
    // background transfers still on the wire started counting as head
    // starts in their layer's plan.
    let pins: [(Framework, u64, u64, u64); 4] = [
        (Framework::LlamaCpp, 521_497_272, 432, 1440),
        (Framework::AdapMoe, 307_025_873, 777, 1095),
        (Framework::KTransformers, 337_071_861, 453, 1419),
        (Framework::HybriMoe, 212_589_989, 781, 1091),
    ];
    for (framework, total_ns, hits, misses) in pins {
        let m = run_once(framework, 42, 12);
        assert_eq!(m.total.as_nanos(), total_ns, "{framework:?} total drifted");
        assert_eq!(m.cache.hits, hits, "{framework:?} hits drifted");
        assert_eq!(m.cache.misses, misses, "{framework:?} misses drifted");
    }
}

/// The serving path's pre-refactor pins (seed 42, DeepSeek, ratio 0.25,
/// Poisson arrivals): wall clock and decode throughput. HybriMoE's moved
/// once, from 1041.30531 ms and 23.047995404921156 tok/s, with the head
/// starts.
#[test]
fn single_gpu_serving_pins_match_the_pre_refactor_engine() {
    let k = serve_once(Framework::KTransformers, 42).summary();
    assert_eq!(k.makespan_ms, 1523.34477);
    assert_eq!(k.output_tokens_per_sec, 15.754805131867817);
    let h = serve_once(Framework::HybriMoe, 42).summary();
    assert_eq!(h.makespan_ms, 1034.565307);
    assert_eq!(h.output_tokens_per_sec, 23.1981488627281);
}

/// Absolute pin of the real backend's numerical layer outputs: a hash over
/// the f32 bit patterns of all layer outputs of a 2-step tiny-model decode,
/// seed 41. Captured on the scalar kernel backend when the kernels became
/// the `Q4_0 × Q8_0` integer dot (the earlier pin, `0x4eb5ef82fc189ade`,
/// was of the f32 dequantize-and-dot loops that change removed) and
/// asserted here on every available backend, which all run one arithmetic.
#[test]
fn real_backend_outputs_match_the_q4q8_pin() {
    for backend in hybrimoe_kernels::backend::available() {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model.clone(), 41)
            .with_token_states()
            .decode_trace(2);
        let config = EngineConfig::preset(Framework::HybriMoe, model, 0.25)
            .with_backend(BackendKind::RealCpu)
            .with_real_exec(RealExecOptions {
                max_threads: 1,
                kernel_backend: backend.kind(),
                ..Default::default()
            })
            .with_seed(41);
        let mut engine = Engine::new(config);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for step in &trace.steps {
            engine.step(step);
            for out in engine.take_real_outputs() {
                for w in out.output.iter().map(|v| v.to_bits()) {
                    for b in w.to_le_bytes() {
                        h ^= b as u64;
                        h = h.wrapping_mul(0x1000_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(
            h,
            0x41f63fc37b413781,
            "real outputs drifted on {:?}",
            backend.kind()
        );
    }
}

/// An explicit `num_gpus = 1` is the identity: same metrics as the default
/// configuration, step for step.
#[test]
fn explicit_single_gpu_is_bit_identical_to_default() {
    let model = ModelConfig::deepseek();
    let trace = TraceGenerator::new(model.clone(), 42).decode_trace(12);
    for framework in [Framework::KTransformers, Framework::HybriMoe] {
        let default_cfg = EngineConfig::preset(framework, model.clone(), 0.25);
        let explicit = default_cfg.clone().with_num_gpus(1);
        let a = Engine::new(default_cfg).run(&trace);
        let b = Engine::new(explicit).run(&trace);
        assert_eq!(a, b, "{framework:?}: explicit num_gpus=1 diverged");
    }
}
