//! Network serving: start the TCP front-end in-process, stream a few
//! requests over real HTTP/1.1 connections through
//! `serve::server::client`, and report the server's SLO accounting.
//!
//! ```text
//! cargo run -p hybrimoe --release --example network_serving
//! ```
//!
//! The server runs the same continuous batcher the simulator drives, but
//! stepped against the wall clock: admission control (queue depth and a
//! load-shed watermark), per-token chunked streaming, and a graceful
//! drain on shutdown.

use std::thread;
use std::time::Duration;

use hybrimoe::serve::server::{client, Server, ServerConfig};
use hybrimoe::{EngineConfig, Framework};
use hybrimoe_model::ModelConfig;

fn main() {
    let mut config = ServerConfig::new(EngineConfig::preset(
        Framework::HybriMoe,
        ModelConfig::tiny_test(),
        0.5,
    ));
    config.max_batch = 8;
    config.queue_depth = 64;
    config.shed_watermark = Some(Duration::from_millis(500));
    config.min_step = Some(Duration::from_millis(2));
    let server = Server::start(config).expect("bind a loopback port");
    let addr = server.addr();
    println!("serving on {addr} (tiny model, max batch 8, queue depth 64)\n");

    // Eight concurrent clients, each streaming one request.
    let clients: Vec<_> = (0..8)
        .map(|i| {
            thread::spawn(move || {
                let body = format!("{{\"prompt_tokens\":16,\"decode_tokens\":{}}}", 4 + i % 3);
                let mut response = client::generate(addr, &body, &[]).expect("send request");
                assert_eq!(response.head.status, 200, "request admitted");
                assert!(response.head.chunked, "admitted responses stream");
                let chunks = response.chunks().expect("stream to completion");
                let tokens = chunks.iter().filter(|c| c.contains("\"token\"")).count();
                let elapsed = response.sent.elapsed();
                (
                    i,
                    tokens,
                    elapsed,
                    chunks.last().cloned().unwrap_or_default(),
                )
            })
        })
        .collect();

    for client in clients {
        let (i, tokens, elapsed, done) = client.join().expect("client thread");
        println!(
            "client {i}: {tokens} tokens in {:>5.1} ms — {}",
            elapsed.as_secs_f64() * 1e3,
            done.trim()
        );
    }

    // Graceful shutdown drains accepted requests, then reports totals.
    let metrics = server.shutdown();
    println!(
        "\nserver totals: {} admitted, {} completed, {} output tokens over {} steps",
        metrics.admitted, metrics.completed, metrics.output_tokens, metrics.engine_steps
    );
    println!(
        "SLO: queue wait p50/p99 {:.1}/{:.1} ms, TTFT p50/p99 {:.1}/{:.1} ms, \
         TPOT p50/p99 {:.2}/{:.2} ms",
        metrics.queue_wait_p50_ms,
        metrics.queue_wait_p99_ms,
        metrics.ttft_p50_ms,
        metrics.ttft_p99_ms,
        metrics.tpot_p50_ms,
        metrics.tpot_p99_ms
    );
}
