//! Shared helpers for the HybriMoE integration test suite.

use std::thread;
use std::time::{Duration, Instant};

use hybrimoe::serve::server::{Server, ServerConfig, ServerHandle, ServerMetrics};
use hybrimoe::{Engine, EngineConfig, Framework, StageMetrics};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{ActivationTrace, TraceGenerator};

/// Seed used across the integration tests.
pub const SEED: u64 = 0x1E57;

/// Runs a framework preset over a decode trace.
pub fn decode(framework: Framework, model: &ModelConfig, ratio: f64, steps: usize) -> StageMetrics {
    let trace = decode_trace(model, steps);
    Engine::new(EngineConfig::preset(framework, model.clone(), ratio)).run(&trace)
}

/// Runs a framework preset over a prefill trace.
pub fn prefill(framework: Framework, model: &ModelConfig, ratio: f64, tokens: u32) -> StageMetrics {
    let trace = prefill_trace(model, tokens);
    Engine::new(EngineConfig::preset(framework, model.clone(), ratio)).run(&trace)
}

/// The shared decode trace for `model`.
pub fn decode_trace(model: &ModelConfig, steps: usize) -> ActivationTrace {
    TraceGenerator::new(model.clone(), SEED).decode_trace(steps)
}

/// The shared prefill trace for `model`.
pub fn prefill_trace(model: &ModelConfig, tokens: u32) -> ActivationTrace {
    TraceGenerator::new(model.clone(), SEED).prefill_trace(tokens)
}

/// A tiny-model server config; tests tweak the knobs they care about
/// (fault plans, default deadlines) before starting it.
pub fn tiny_config(max_batch: usize, queue_depth: usize, min_step: Duration) -> ServerConfig {
    let mut config = ServerConfig::new(EngineConfig::preset(
        Framework::HybriMoe,
        ModelConfig::tiny_test(),
        0.5,
    ));
    config.max_batch = max_batch;
    config.queue_depth = queue_depth;
    config.min_step = Some(min_step);
    config
}

/// Starts a tiny-model server with the knobs the serving tests care about.
pub fn tiny_server(
    max_batch: usize,
    queue_depth: usize,
    min_step: Duration,
    shed_watermark: Option<Duration>,
) -> ServerHandle {
    let mut config = tiny_config(max_batch, queue_depth, min_step);
    config.shed_watermark = shed_watermark;
    Server::start(config).expect("server binds a loopback port")
}

/// Polls the server's metrics until `pred` holds. Fixed sleeps are not
/// enough on a loaded single-core host, where a client thread can take
/// hundreds of milliseconds to even connect.
pub fn wait_for_metrics(server: &ServerHandle, what: &str, pred: impl Fn(&ServerMetrics) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred(&server.metrics()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}
