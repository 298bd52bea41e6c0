//! The network-serving load driver behind the `load_gen` binary.
//!
//! Opens [`ServerLoad::concurrency`] client connections against a serving
//! front-end (an in-process one by default), streams every request to
//! completion, and reports client-observed SLO percentiles as a
//! [`ServerBenchSummary`](crate::ServerBenchSummary).

use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use hybrimoe::serve::percentile;
use hybrimoe::serve::server::client::{self, ClientError};
use hybrimoe::serve::server::{Server, ServerConfig};
use hybrimoe::{EngineConfig, Framework};
use hybrimoe_hw::SimDuration;
use hybrimoe_model::ModelConfig;
use serde::Value;

use crate::ServerBenchSummary;

/// The load `run_server_bench` offers.
#[derive(Debug, Clone, Copy)]
pub struct ServerLoad {
    /// Requests to stream.
    pub requests: usize,
    /// Concurrent client connections (worker threads).
    pub concurrency: usize,
    /// Prompt tokens per request.
    pub prompt_tokens: u32,
    /// Decode tokens per request.
    pub decode_tokens: u32,
    /// Continuous-batch bound of the in-process server (ignored with an
    /// external `addr`).
    pub max_batch: usize,
    /// Admission queue depth of the in-process server.
    pub queue_depth: usize,
    /// Pacing floor of the in-process server's engine steps. A floor that
    /// dominates per-step compute makes the measured TTFT distribution a
    /// property of the *queueing structure* rather than of host speed, so
    /// the CI gate on p99 TTFT holds across machines.
    pub min_step_us: u64,
}

impl Default for ServerLoad {
    fn default() -> Self {
        ServerLoad {
            requests: 1000,
            concurrency: 1000,
            prompt_tokens: 16,
            decode_tokens: 8,
            max_batch: 16,
            queue_depth: 1024,
            min_step_us: 5000,
        }
    }
}

/// Stack size of client worker threads: each just owns one socket and a
/// small read buffer.
const WORKER_STACK: usize = 256 * 1024;

/// Ramp spacing between request starts, so a thousand simultaneous SYNs
/// don't overflow the listener backlog into kernel retransmit delays
/// (which would measure the TCP stack, not the server).
const RAMP_PER_REQUEST: Duration = Duration::from_micros(100);

/// Attempts per request for *pre-admission* transport failures
/// ([`ClientError::Send`]). A burst of a thousand connections can
/// overflow the listener's accept queue; Linux then completes the
/// handshake but resets the first data packet, so the client sees
/// ECONNRESET on a write the server never read. That is load-generator
/// noise, not a served request, and gets retried.
const TRANSPORT_ATTEMPTS: usize = 4;

/// Backoff between transport retries, doubled per attempt — long enough
/// for the acceptor to drain a burst, short next to any TTFT of interest.
const RETRY_BACKOFF: Duration = Duration::from_millis(20);

/// Total admission attempts when a 503 carries `Retry-After`: the server
/// marked the rejection retryable, so the client honors the wait once
/// before counting the request as rejected.
const ADMISSION_ATTEMPTS: usize = 2;

/// Safety cap on an honored `Retry-After` wait, so a misbehaving server
/// cannot stall the load generator indefinitely.
const MAX_RETRY_AFTER: Duration = Duration::from_secs(2);

/// One completed stream, timed by the client's clock (the queue wait is
/// the server's, from the terminal chunk).
struct Sample {
    ttft: SimDuration,
    latency: SimDuration,
    queue_wait: SimDuration,
    tokens: u64,
}

#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    rejected: u64,
    failed: u64,
    /// What went wrong with the first failed request.
    first_failure: Option<String>,
}

enum RequestError {
    /// The server said 503 (admission control did its job), carrying the
    /// `Retry-After` seconds when the rejection was retryable (shed or
    /// queue-full — not draining).
    Rejected(Option<u64>),
    /// The exchange failed before a response head arrived. Only a
    /// [`ClientError::Send`] is retried: nothing was admitted.
    Client(ClientError),
    /// The server took the request but the stream went wrong: bad
    /// status, truncated chunks, missing terminal accounting.
    Failed(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Rejected(_) => f.write_str("rejected with 503"),
            RequestError::Client(e) => e.fmt(f),
            RequestError::Failed(why) => f.write_str(why),
        }
    }
}

/// Runs the load against the server at `addr`, or against a fresh
/// in-process tiny-model server when `addr` is `None`. Blocks until every
/// request resolves; the in-process server is gracefully shut down before
/// returning. When any request failed, prints the failed count and the
/// first failure's detail on stderr.
///
/// # Panics
///
/// Panics if the in-process server cannot bind a loopback port.
pub fn run_server_bench(addr: Option<SocketAddr>, load: ServerLoad) -> ServerBenchSummary {
    let server = match addr {
        Some(_) => None,
        None => {
            let mut config = ServerConfig::new(EngineConfig::preset(
                Framework::HybriMoe,
                ModelConfig::tiny_test(),
                0.5,
            ));
            config.max_batch = load.max_batch;
            config.queue_depth = load.queue_depth;
            config.min_step =
                (load.min_step_us > 0).then(|| Duration::from_micros(load.min_step_us));
            Some(Server::start(config).expect("in-process server binds a loopback port"))
        }
    };
    let addr = addr.unwrap_or_else(|| server.as_ref().expect("started above").addr());

    let tally = Mutex::new(Tally::default());
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    thread::scope(|scope| {
        for _ in 0..load.concurrency.max(1) {
            let builder = thread::Builder::new().stack_size(WORKER_STACK);
            let tally = &tally;
            let next = &next;
            let spawned = builder.spawn_scoped(scope, move || loop {
                let ticket = next.fetch_add(1, Ordering::Relaxed);
                if ticket >= load.requests {
                    break;
                }
                // Stagger connection starts across the ramp window.
                let due = RAMP_PER_REQUEST * ticket as u32;
                let elapsed = started.elapsed();
                if due > elapsed {
                    thread::sleep(due - elapsed);
                }
                let outcome = request_with_retry(addr, load.prompt_tokens, load.decode_tokens);
                let mut tally = tally.lock().expect("tally lock poisoned");
                match outcome {
                    Ok(sample) => tally.samples.push(sample),
                    Err(RequestError::Rejected(_)) => tally.rejected += 1,
                    Err(failure) => {
                        tally.failed += 1;
                        tally
                            .first_failure
                            .get_or_insert_with(|| failure.to_string());
                    }
                }
            });
            spawned.expect("spawn load worker");
        }
    });
    let elapsed = started.elapsed();
    let model = match server {
        Some(handle) => {
            let metrics = handle.shutdown();
            debug_assert_eq!(metrics.queued, 0, "graceful drain left requests queued");
            "tiny-test".to_owned()
        }
        None => "external".to_owned(),
    };

    let mut tally = tally.into_inner().expect("tally lock poisoned");
    if let Some(first) = &tally.first_failure {
        eprintln!(
            "load_gen: {} request(s) failed; the first: {first}",
            tally.failed
        );
    }
    summarize(&mut tally, &model, load, elapsed)
}

fn summarize(
    tally: &mut Tally,
    model: &str,
    load: ServerLoad,
    elapsed: Duration,
) -> ServerBenchSummary {
    let completed = tally.samples.len() as u64;
    let output_tokens: u64 = tally.samples.iter().map(|s| s.tokens).sum();
    let secs = elapsed.as_secs_f64();
    // The p50 and p99 of one per-sample duration, in ms.
    let p50_p99 = |metric: fn(&Sample) -> SimDuration| {
        let mut sorted: Vec<SimDuration> = tally.samples.iter().map(metric).collect();
        sorted.sort_unstable();
        [50.0, 99.0].map(|p| percentile(&sorted, p).as_millis_f64())
    };
    let [ttft_p50_ms, ttft_p99_ms] = p50_p99(|s| s.ttft);
    let [latency_p50_ms, latency_p99_ms] = p50_p99(|s| s.latency);
    let [queue_wait_p50_ms, queue_wait_p99_ms] = p50_p99(|s| s.queue_wait);
    ServerBenchSummary {
        model: model.to_owned(),
        concurrency: load.concurrency,
        requests: load.requests as u64,
        completed,
        rejected: tally.rejected,
        failed: tally.failed,
        prompt_tokens: load.prompt_tokens,
        decode_tokens: load.decode_tokens,
        elapsed_ms: secs * 1e3,
        output_tokens,
        output_tokens_per_sec: if secs > 0.0 {
            output_tokens as f64 / secs
        } else {
            0.0
        },
        requests_per_sec: if secs > 0.0 {
            completed as f64 / secs
        } else {
            0.0
        },
        ttft_p50_ms,
        ttft_p99_ms,
        latency_p50_ms,
        latency_p99_ms,
        queue_wait_p50_ms,
        queue_wait_p99_ms,
    }
}

/// Streams one request, retrying pre-admission transport failures with a
/// doubling backoff and honoring `Retry-After` on retryable 503s (once,
/// waiting the advertised seconds up to [`MAX_RETRY_AFTER`]). A 503
/// without `Retry-After` (draining) and post-admission failures pass
/// through unretried — those count against the server.
fn request_with_retry(addr: SocketAddr, prompt: u32, decode: u32) -> Result<Sample, RequestError> {
    let mut backoff = RETRY_BACKOFF;
    let mut transport_attempts = 0usize;
    let mut admission_attempts = 0usize;
    loop {
        match one_request(addr, prompt, decode) {
            Err(RequestError::Client(ClientError::Send(_)))
                if transport_attempts + 1 < TRANSPORT_ATTEMPTS =>
            {
                transport_attempts += 1;
                thread::sleep(backoff);
                backoff *= 2;
            }
            Err(RequestError::Rejected(Some(secs)))
                if admission_attempts + 1 < ADMISSION_ATTEMPTS =>
            {
                admission_attempts += 1;
                thread::sleep(Duration::from_secs(secs).min(MAX_RETRY_AFTER));
            }
            outcome => return outcome,
        }
    }
}

/// Streams one request, timing TTFT and end-to-end latency client-side
/// from the request write.
fn one_request(addr: SocketAddr, prompt: u32, decode: u32) -> Result<Sample, RequestError> {
    let body = format!("{{\"prompt_tokens\":{prompt},\"decode_tokens\":{decode}}}");
    let mut response = client::generate(addr, &body, &[]).map_err(RequestError::Client)?;
    let head = response.head;
    if head.status == 503 {
        return Err(RequestError::Rejected(head.retry_after));
    }
    if head.status != 200 || !head.chunked {
        return Err(RequestError::Failed(format!(
            "status {} chunked {}",
            head.status, head.chunked
        )));
    }

    let start = response.sent;
    let mut ttft = None;
    let mut tokens: u64 = 0;
    let mut last_chunk = None;
    while let Some(chunk) = response
        .next_chunk()
        .map_err(|e| RequestError::Failed(format!("chunk: {e}")))?
    {
        if ttft.is_none() {
            ttft = Some(SimDuration::from_secs_f64(start.elapsed().as_secs_f64()));
        }
        if chunk.contains("\"token\"") {
            tokens += 1;
        }
        last_chunk = Some(chunk);
    }
    let latency = SimDuration::from_secs_f64(start.elapsed().as_secs_f64());
    // The terminal chunk carries the server-side accounting.
    let (Some(ttft), Some(done)) = (ttft, last_chunk) else {
        return Err(RequestError::Failed(
            "stream closed with zero chunks".into(),
        ));
    };
    if !done.contains("\"done\"") {
        return Err(RequestError::Failed(
            "stream ended without done chunk".into(),
        ));
    }
    let queue_wait_ms = serde_json::from_str::<Value>(&done)
        .ok()
        .and_then(|v| match v {
            Value::Map(map) => map
                .into_iter()
                .find(|(k, _)| k == "queue_wait_ms")
                .and_then(|(_, v)| v.as_f64()),
            _ => None,
        })
        .unwrap_or(0.0);
    Ok(Sample {
        ttft,
        latency,
        queue_wait: SimDuration::from_secs_f64(queue_wait_ms / 1e3),
        tokens,
    })
}
