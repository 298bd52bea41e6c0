//! Integration tests for chunked prefill: numerical equivalence of
//! chunked and unchunked prefill on the real backend, decode-latency
//! flatness while a long prompt is in flight, and the throughput chunking
//! pays for that on prompts short enough not to need it.

use hybrimoe::realexec::RealExecOptions;
use hybrimoe::serve::{ArrivalProcess, ContinuousBatcher, RequestSpec, ServeConfig, ServeSim};
use hybrimoe::{BackendKind, Engine, EngineConfig, Framework};
use hybrimoe_hw::{SimDuration, SimTime};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;

/// Chunked prefill computes exactly what unchunked prefill computes: on
/// the real CPU backend, running a prompt as decode-interleavable chunks
/// yields bit-identical per-layer hidden states to the single-pass
/// prefill, row for row.
#[test]
fn chunked_prefill_is_bit_identical_on_the_real_backend() {
    let model = ModelConfig::tiny_test();
    let layers = model.layers as usize;
    let config = EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.5)
        .with_backend(BackendKind::RealCpu)
        .with_real_exec(RealExecOptions {
            max_threads: 1,
            ..Default::default()
        })
        .with_seed(19);

    let generator = TraceGenerator::new(model, 19).with_token_states();
    let (full, _) = generator.request(40);
    let (chunks, _) = generator.request_chunked(40, 16);
    assert!(chunks.len() > 1, "the prompt must actually split");
    assert_eq!(chunks.iter().map(|c| c.tokens).sum::<u32>(), 40);

    let mut reference = Engine::new(config.clone());
    reference.step(&full);
    let unchunked: Vec<Vec<f32>> = reference
        .take_real_outputs()
        .into_iter()
        .map(|o| o.output)
        .collect();
    assert_eq!(unchunked.len(), layers);

    let mut engine = Engine::new(config);
    let mut stitched: Vec<Vec<f32>> = vec![Vec::new(); layers];
    for chunk in &chunks {
        engine.step(chunk);
        let outputs = engine.take_real_outputs();
        assert_eq!(outputs.len(), layers);
        for (layer, out) in outputs.into_iter().enumerate() {
            stitched[layer].extend(out.output);
        }
    }
    assert_eq!(
        stitched, unchunked,
        "chunked prefill must be bit-identical to the single-pass prefill"
    );
}

/// While a 1024-token prompt is in flight, chunked prefill keeps the
/// decode TPOT of a neighboring request flat: no decode step stalls behind
/// a monolithic prefill pass, so the worst decode-step latency under
/// chunking stays far below the unchunked spike.
#[test]
fn chunked_prefill_keeps_decode_tpot_flat_under_a_long_prompt() {
    let run = |chunk: Option<u32>| -> (SimDuration, SimDuration) {
        let mut engine =
            EngineConfig::preset(Framework::HybriMoe, ModelConfig::deepseek(), 0.25).with_seed(3);
        if let Some(size) = chunk {
            engine = engine.with_chunked_prefill(size);
        }
        let mut batcher = ContinuousBatcher::new(engine, 4, 3);
        // The neighbor is admitted alone and decodes for a few steps
        // before the 1024-token prompt arrives, so the long prefill must
        // merge into steps that also carry the neighbor's decode tokens.
        batcher.enqueue(RequestSpec {
            id: 0,
            arrival: SimTime::ZERO,
            prompt_tokens: 8,
            decode_tokens: 48,
            priority: 0,
            deadline: None,
        });
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            let outcome = batcher.step(now, |lat| now + lat);
            now = outcome.end;
        }
        batcher.enqueue(RequestSpec {
            id: 1,
            arrival: now,
            prompt_tokens: 1024,
            decode_tokens: 4,
            priority: 1,
            deadline: None,
        });
        // Worst and median step latency among steps where the neighbor
        // decoded while the long request was still prefilling or decoding.
        let mut decode_lat: Vec<SimDuration> = Vec::new();
        let mut worst = SimDuration::ZERO;
        while !batcher.is_idle() {
            let outcome = batcher.step(now, |lat| now + lat);
            now = outcome.end;
            if outcome.decoded.iter().any(|(id, _)| *id == 0) {
                decode_lat.push(outcome.stat.latency);
                worst = worst.max(outcome.stat.latency);
            }
        }
        decode_lat.sort();
        (worst, decode_lat[decode_lat.len() / 2])
    };

    let (unchunked_worst, _) = run(None);
    let (chunked_worst, chunked_median) = run(Some(32));
    // The monolithic 1024-token pass stalls a decode step for far longer
    // than any chunk-sized pass does (the spike is the neighbor's decode
    // TPOT p99 in this scenario — one giant step dominates the tail).
    assert!(
        chunked_worst * 2 < unchunked_worst,
        "chunking should cut the worst decode-step stall at least 2x: \
         chunked {chunked_worst:?}, unchunked {unchunked_worst:?}"
    );
    // Flat in absolute terms too: while the prompt is in flight, the worst
    // chunked decode step stays within a small factor of the median one —
    // no step stalls out of line with its peers.
    assert!(
        chunked_worst < chunked_median * 2,
        "chunked decode latency is not flat: worst {chunked_worst:?} vs \
         median {chunked_median:?}"
    );
}

/// What the stall cut above costs where there is no stall to cut: on
/// 128-token prompts every chunk re-schedules and re-transfers the layer's
/// experts, so chunked serving delivers fewer tokens per second than
/// monolithic prefill. The cost is printed (the README quotes it beside
/// the stall win) and bounded, so chunking getting more expensive fails
/// here rather than passing unnoticed.
#[test]
fn chunking_costs_bounded_throughput_on_short_prompts() {
    let tok_s = |chunk: Option<u32>| -> f64 {
        let mut engine =
            EngineConfig::preset(Framework::HybriMoe, ModelConfig::deepseek(), 0.25).with_seed(3);
        if let Some(size) = chunk {
            engine = engine.with_chunked_prefill(size);
        }
        ServeSim::new(ServeConfig {
            engine,
            arrivals: ArrivalProcess::per_second(5.0, true),
            requests: 8,
            prompt_tokens: 128,
            decode_tokens: 16,
            max_batch: 8,
            seed: 3,
        })
        .run()
        .summary()
        .output_tokens_per_sec
    };
    let unchunked = tok_s(None);
    println!("128-token prompts, 5 req/s, cache ratio 0.25: unchunked {unchunked:.2} tok/s");
    for chunk in [32, 64] {
        let chunked = tok_s(Some(chunk));
        let ratio = chunked / unchunked;
        println!("  chunk {chunk:>2}: {chunked:.2} tok/s ({ratio:.3}x unchunked)");
        assert!(
            (0.75..=1.0).contains(&ratio),
            "chunk {chunk}: {chunked:.2} tok/s is {ratio:.3}x unchunked {unchunked:.2}"
        );
    }
}
