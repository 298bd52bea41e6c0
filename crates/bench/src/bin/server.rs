//! The serving front-end as a standalone process.
//!
//! ```text
//! cargo run -p hybrimoe_bench --release --bin server -- --addr 127.0.0.1:8080
//! ```
//!
//! Serves `POST /v1/generate` (streamed tokens), `GET /metrics`,
//! `GET /healthz` and `POST /admin/drain`; see
//! `hybrimoe::serve::server` for the protocol. On SIGTERM or SIGINT the
//! process drains gracefully — admission closes, every accepted request
//! streams to completion — then prints the final metrics snapshot as JSON
//! and exits 0.
//!
//! Options (all have serving defaults):
//!
//! | flag | meaning |
//! |---|---|
//! | `--addr HOST:PORT` | bind address (default `127.0.0.1:8080`) |
//! | `--model NAME` | `tiny` (default) or `deepseek` |
//! | `--cache-ratio R` | GPU cache ratio (default 0.5) |
//! | `--max-batch N` | continuous-batch bound (default 16) |
//! | `--queue-depth N` | admission queue bound (default 1024) |
//! | `--shed-watermark-ms N` | load-shed queue-delay watermark (default off) |
//! | `--min-step-us N` | engine-step pacing floor (default 5000) |
//! | `--seed N` | trace seed (default 0) |

// The bench *library* forbids unsafe; this binary is a separate crate
// target and needs exactly one unsafe line to register POSIX signal
// handlers without adding a libc dependency.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hybrimoe::serve::server::{Server, ServerConfig};
use hybrimoe::{EngineConfig, Framework};
use hybrimoe_model::ModelConfig;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: flip the flag, let main drain.
    SHUTDOWN.store(true, Ordering::Release);
}

/// Registers `on_signal` for SIGTERM and SIGINT via the libc `signal`
/// symbol every Unix process already links.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("server: cannot parse {name} value {raw:?}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model = match flag(&args, "--model").as_deref() {
        None | Some("tiny") => ModelConfig::tiny_test(),
        Some("deepseek") => ModelConfig::deepseek(),
        Some(other) => {
            eprintln!("server: unknown model {other:?} (expected tiny or deepseek)");
            std::process::exit(2);
        }
    };
    let cache_ratio: f64 = parsed(&args, "--cache-ratio", 0.5);
    let seed: u64 = parsed(&args, "--seed", 0);

    let mut config = ServerConfig::new(EngineConfig::preset(
        Framework::HybriMoe,
        model,
        cache_ratio,
    ));
    config.addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:8080".to_owned());
    config.max_batch = parsed(&args, "--max-batch", config.max_batch);
    config.queue_depth = parsed(&args, "--queue-depth", config.queue_depth);
    config.seed = seed;
    let shed_ms: u64 = parsed(&args, "--shed-watermark-ms", 0);
    config.shed_watermark = (shed_ms > 0).then(|| Duration::from_millis(shed_ms));
    let min_step_us: u64 = parsed(&args, "--min-step-us", 5000);
    config.min_step = (min_step_us > 0).then(|| Duration::from_micros(min_step_us));

    install_signal_handlers();
    let handle = Server::start(config).unwrap_or_else(|e| {
        eprintln!("server: cannot start: {e}");
        std::process::exit(2);
    });
    println!("server: listening on {}", handle.addr());
    println!("server: POST /v1/generate | GET /metrics | GET /healthz | POST /admin/drain");

    while !SHUTDOWN.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("server: signal received, draining");
    let metrics = handle.shutdown();
    println!(
        "{}",
        serde_json::to_string_pretty(&metrics).expect("metrics serialize")
    );
}
