//! Load generator for the serving front-end: opens many concurrent
//! streamed `POST /v1/generate` requests and reports client-observed SLO
//! percentiles.
//!
//! ```text
//! cargo run -p hybrimoe_bench --release --bin load_gen                    # in-process server
//! cargo run -p hybrimoe_bench --release --bin load_gen -- --addr 127.0.0.1:8080
//! cargo run -p hybrimoe_bench --release --bin load_gen -- --json --out summary.json
//! ```
//!
//! With no `--addr`, a tiny-model server is started in-process so the run
//! is self-contained. The defaults drive 1000 concurrent streamed
//! requests; the exit code is 1 unless every one of them completed.
//!
//! | flag | meaning |
//! |---|---|
//! | `--addr HOST:PORT` | target an already-running server |
//! | `--requests N` | total requests (default 1000) |
//! | `--concurrency N` | client connections in flight (default 1000) |
//! | `--prompt-tokens N` | prompt length (default 16) |
//! | `--decode-tokens N` | output length (default 8) |
//! | `--max-batch N` | in-process server batch bound (default 16) |
//! | `--queue-depth N` | in-process server queue bound (default 1024) |
//! | `--min-step-us N` | in-process server pacing floor (default 5000) |
//! | `--json` | print the summary as JSON instead of text |
//! | `--out PATH` | also write the JSON summary to a file |

use std::net::SocketAddr;

use hybrimoe_bench::{run_server_bench, ServerLoad};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("load_gen: cannot parse {name} value {raw:?}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr: Option<SocketAddr> = flag(&args, "--addr").map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("load_gen: cannot parse --addr value {raw:?}");
            std::process::exit(2);
        })
    });
    let defaults = ServerLoad::default();
    let load = ServerLoad {
        requests: parsed(&args, "--requests", defaults.requests),
        concurrency: parsed(&args, "--concurrency", defaults.concurrency),
        prompt_tokens: parsed(&args, "--prompt-tokens", defaults.prompt_tokens),
        decode_tokens: parsed(&args, "--decode-tokens", defaults.decode_tokens),
        max_batch: parsed(&args, "--max-batch", defaults.max_batch),
        queue_depth: parsed(&args, "--queue-depth", defaults.queue_depth),
        min_step_us: parsed(&args, "--min-step-us", defaults.min_step_us),
    };

    match addr {
        Some(a) => eprintln!(
            "load_gen: {} requests, {} concurrent, against {a}",
            load.requests, load.concurrency
        ),
        None => eprintln!(
            "load_gen: {} requests, {} concurrent, in-process tiny-model server",
            load.requests, load.concurrency
        ),
    }
    let summary = run_server_bench(addr, load);

    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    if let Some(path) = flag(&args, "--out") {
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("load_gen: cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("load_gen: wrote {path}");
    }
    if args.iter().any(|a| a == "--json") {
        println!("{json}");
    } else {
        println!(
            "completed {}/{} (rejected {}, failed {}) in {:.0}ms",
            summary.completed,
            summary.requests,
            summary.rejected,
            summary.failed,
            summary.elapsed_ms
        );
        println!(
            "throughput: {:.1} tok/s, {:.1} req/s",
            summary.output_tokens_per_sec, summary.requests_per_sec
        );
        println!(
            "ttft p50/p99: {:.1}/{:.1} ms   latency p50/p99: {:.1}/{:.1} ms   \
             queue wait p50/p99: {:.1}/{:.1} ms",
            summary.ttft_p50_ms,
            summary.ttft_p99_ms,
            summary.latency_p50_ms,
            summary.latency_p99_ms,
            summary.queue_wait_p50_ms,
            summary.queue_wait_p99_ms
        );
    }
    if summary.completed < summary.requests {
        eprintln!(
            "load_gen: {} request(s) did not complete",
            summary.requests - summary.completed
        );
        std::process::exit(1);
    }
}
