//! Failure-path integration tests for the serving front-end: end-to-end
//! request deadlines (admission 504s, waiting- and running-expiry with
//! the typed `timed_out` terminal chunk), `Retry-After` on retryable
//! 503s, engine-panic containment with the `failed` terminal chunk, and
//! the degraded `/healthz` body.
//!
//! Like `server.rs`, every test drives a real loopback server with a
//! hand-rolled HTTP/1.1 client; pacing floors make queueing structure
//! deterministic without exact-timing assertions.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use hybrimoe::fault::{FaultPlan, FaultRates};
use hybrimoe::serve::server::{
    read_one_chunk, read_response_head_full, ResponseHead, Server, ServerConfig, ServerHandle,
    ServerMetrics,
};
use hybrimoe::{EngineConfig, Framework};
use hybrimoe_model::ModelConfig;

/// Builds a tiny-model server config; tests tweak the knobs they care
/// about (fault plans, default deadlines) before starting it.
fn tiny_config(max_batch: usize, queue_depth: usize, min_step: Duration) -> ServerConfig {
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

/// One `POST /v1/generate` with optional extra headers (e.g.
/// `X-Deadline-Ms`): returns the parsed response head and, for streamed
/// responses, every chunk in order.
fn generate_with_headers(
    addr: SocketAddr,
    body: &str,
    headers: &[(&str, &str)],
) -> (ResponseHead, Vec<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut request = String::from("POST /v1/generate HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!(
        "Content-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    ));
    stream.write_all(request.as_bytes()).expect("write request");
    let mut reader = BufReader::new(stream);
    let head = read_response_head_full(&mut reader).expect("response head");
    let mut chunks = Vec::new();
    if head.chunked {
        while let Some(chunk) = read_one_chunk(&mut reader).expect("read chunk") {
            chunks.push(chunk);
        }
    }
    (head, chunks)
}

/// Like [`generate_with_headers`], but blocks only until the first chunk
/// arrives, then hands back the reader: lets a test know a request
/// entered the batch while it keeps streaming.
fn generate_streaming(addr: SocketAddr, body: &str) -> (BufReader<TcpStream>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write!(
        stream,
        "POST /v1/generate HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut reader = BufReader::new(stream);
    let head = read_response_head_full(&mut reader).expect("response head");
    assert_eq!(head.status, 200, "request should be admitted");
    assert!(head.chunked, "admitted responses stream");
    let first = read_one_chunk(&mut reader)
        .expect("read first chunk")
        .expect("stream has a first chunk");
    (reader, first)
}

/// Drains a streaming reader to its terminal chunk.
fn finish_stream(mut reader: BufReader<TcpStream>) -> Vec<String> {
    let mut chunks = Vec::new();
    while let Some(chunk) = read_one_chunk(&mut reader).expect("read chunk") {
        chunks.push(chunk);
    }
    chunks
}

/// Fetches a GET endpoint's full body (reading to connection close).
fn get_body(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut reader = BufReader::new(stream);
    let head = read_response_head_full(&mut reader).expect("response head");
    let mut body = String::new();
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read body") > 0 {
        body.push_str(&line);
        line.clear();
    }
    (head.status, body)
}

/// Polls the server's metrics until `pred` holds.
fn wait_for_metrics(server: &ServerHandle, what: &str, pred: impl Fn(&ServerMetrics) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred(&server.metrics()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// An `X-Deadline-Ms: 0` budget is already spent: the server answers 504
/// at admission without ever enqueueing, and counts the rejection.
#[test]
fn zero_deadline_is_rejected_with_504() {
    let server = Server::start(tiny_config(2, 8, Duration::from_millis(1))).expect("server starts");
    let (head, _) = generate_with_headers(
        server.addr(),
        "{\"prompt_tokens\":4,\"decode_tokens\":2}",
        &[("X-Deadline-Ms", "0")],
    );
    assert_eq!(head.status, 504, "expired budget rejected at admission");
    let metrics = server.shutdown();
    assert_eq!(metrics.rejected_deadline, 1);
    assert_eq!(metrics.admitted, 0, "nothing should have been enqueued");
}

/// A garbage `X-Deadline-Ms` value is a client error, not a crash.
#[test]
fn unparseable_deadline_header_is_400() {
    let server = Server::start(tiny_config(2, 8, Duration::from_millis(1))).expect("server starts");
    let (head, _) = generate_with_headers(
        server.addr(),
        "{\"prompt_tokens\":4,\"decode_tokens\":2}",
        &[("X-Deadline-Ms", "soon")],
    );
    assert_eq!(head.status, 400);
    server.shutdown();
}

/// A request whose deadline expires while it queues behind a full batch
/// gets the typed `timed_out` terminal chunk — admitted (200, streamed),
/// never silently dropped — and the `timed_out` counter moves.
#[test]
fn waiting_request_past_deadline_streams_timed_out_chunk() {
    // One slot, slow steps: the occupant pins the batch long past the
    // waiter's 100ms budget.
    let server =
        Server::start(tiny_config(1, 8, Duration::from_millis(20))).expect("server starts");
    let addr = server.addr();
    let occupant = generate_streaming(addr, "{\"prompt_tokens\":4,\"decode_tokens\":100}");
    wait_for_metrics(&server, "occupant running", |m| m.running >= 1);

    let (head, chunks) = generate_with_headers(
        addr,
        "{\"prompt_tokens\":4,\"decode_tokens\":1}",
        &[("X-Deadline-Ms", "100")],
    );
    assert_eq!(head.status, 200, "deadline expiry is a streamed outcome");
    let last = chunks.last().expect("stream has a terminal chunk");
    assert!(
        last.contains("\"timed_out\":true"),
        "terminal chunk should be typed timed_out, got {last:?}"
    );

    finish_stream(occupant.0);
    let metrics = server.shutdown();
    assert_eq!(metrics.timed_out, 1);
    assert_eq!(metrics.completed, 1, "the occupant still completes");
    assert_eq!(metrics.admitted, 2);
}

/// With no header, `default_deadline` from config applies: a decode too
/// long for the budget expires mid-run (the running-expiry path), after
/// streaming at least one token.
#[test]
fn default_deadline_expires_running_request() {
    let mut config = tiny_config(2, 8, Duration::from_millis(20));
    config.default_deadline = Some(Duration::from_millis(150));
    let server = Server::start(config).expect("server starts");

    let (head, chunks) = generate_with_headers(
        server.addr(),
        "{\"prompt_tokens\":4,\"decode_tokens\":100}",
        &[],
    );
    assert_eq!(head.status, 200);
    let last = chunks.last().expect("stream has a terminal chunk");
    assert!(
        last.contains("\"timed_out\":true"),
        "terminal chunk should be typed timed_out, got {last:?}"
    );
    assert!(
        chunks.len() > 1,
        "the request should stream some tokens before expiring"
    );

    let metrics = server.shutdown();
    assert_eq!(metrics.timed_out, 1);
    assert_eq!(metrics.completed, 0);
}

/// A generous deadline never fires: the request completes normally even
/// though a `default_deadline` is configured.
#[test]
fn generous_deadline_does_not_fire() {
    let mut config = tiny_config(2, 8, Duration::from_millis(1));
    config.default_deadline = Some(Duration::from_secs(60));
    let server = Server::start(config).expect("server starts");
    let (head, chunks) = generate_with_headers(
        server.addr(),
        "{\"prompt_tokens\":4,\"decode_tokens\":3}",
        &[("X-Deadline-Ms", "60000")],
    );
    assert_eq!(head.status, 200);
    let last = chunks.last().expect("terminal chunk");
    assert!(last.contains("\"done\":true"), "got {last:?}");
    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.timed_out, 0);
}

/// Queue-full 503s are retryable and say so: the response carries a
/// `Retry-After` header a client can honor.
#[test]
fn queue_full_rejection_carries_retry_after() {
    // One slot, queue depth 1: an occupant plus one waiter fill the
    // house; the third request bounces.
    let server =
        Server::start(tiny_config(1, 1, Duration::from_millis(20))).expect("server starts");
    let addr = server.addr();
    let occupant = generate_streaming(addr, "{\"prompt_tokens\":4,\"decode_tokens\":60}");
    let waiter = thread::spawn(move || {
        generate_with_headers(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[])
    });
    wait_for_metrics(&server, "waiter queued", |m| m.queued >= 1);

    let (head, _) = generate_with_headers(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[]);
    assert_eq!(head.status, 503, "full queue rejects");
    assert_eq!(
        head.retry_after,
        Some(1),
        "retryable 503 should carry Retry-After"
    );

    finish_stream(occupant.0);
    let (waiter_head, _) = waiter.join().expect("waiter thread");
    assert_eq!(waiter_head.status, 200);
    server.shutdown();
}

/// A panicking engine step is contained: the in-flight request gets the
/// typed `failed` terminal chunk, the engine loop re-arms with a fresh
/// batcher, `/healthz` reports `degraded` (while staying HTTP 200 — the
/// process is alive and still serving), and the next request completes.
#[test]
fn engine_panic_is_contained_and_reported_degraded() {
    let mut config = tiny_config(2, 8, Duration::from_millis(1));
    // Every step panics until the hook disarms nothing — rate 100%: the
    // first admitted request is guaranteed to hit the failure path.
    config.engine = config.engine.with_fault_plan(FaultPlan {
        seed: 7,
        rates: FaultRates {
            panic_ppm: 1_000_000,
            ..FaultRates::default()
        },
    });
    let server = Server::start(config).expect("server starts");
    let addr = server.addr();

    let (status, body) = get_body(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"status\":\"ok\""),
        "fresh server is healthy, got {body:?}"
    );

    let (head, chunks) =
        generate_with_headers(addr, "{\"prompt_tokens\":4,\"decode_tokens\":4}", &[]);
    assert_eq!(head.status, 200, "the request is admitted before the panic");
    let last = chunks.last().expect("stream has a terminal chunk");
    assert!(
        last.contains("\"failed\":true"),
        "terminal chunk should be typed failed, got {last:?}"
    );

    wait_for_metrics(&server, "restart counted", |m| m.engine_restarts >= 1);
    let (status, body) = get_body(addr, "/healthz");
    assert_eq!(status, 200, "degraded is a body statement, not an error");
    assert!(
        body.contains("\"status\":\"degraded\""),
        "healthz should report degradation, got {body:?}"
    );
    assert!(
        body.contains("engine restarted"),
        "healthz should say why, got {body:?}"
    );

    let metrics = server.shutdown();
    assert!(metrics.engine_restarts >= 1);
    assert!(metrics.failed >= 1);
    assert_eq!(
        metrics.admitted,
        metrics.completed + metrics.cancelled + metrics.timed_out + metrics.failed,
        "every admitted request reached exactly one terminal outcome"
    );
}

/// Contained panics cost no admission capacity. Every step panics, so
/// every request fails in the very step that moved it from waiting to
/// running; if any of those exits kept its waiting-queue reservation, a
/// server with `queue_depth` slots would answer `503 queue full` from
/// request `queue_depth + 1` on, forever.
#[test]
fn panicking_steps_do_not_leak_queue_reservations() {
    let queue_depth = 2;
    let mut config = tiny_config(2, queue_depth, Duration::from_millis(1));
    config.engine = config.engine.with_fault_plan(FaultPlan {
        seed: 7,
        rates: FaultRates {
            panic_ppm: 1_000_000,
            ..FaultRates::default()
        },
    });
    let server = Server::start(config).expect("server starts");

    let requests = queue_depth as u64 + 2;
    for i in 0..requests {
        let (head, chunks) = generate_with_headers(
            server.addr(),
            "{\"prompt_tokens\":4,\"decode_tokens\":4}",
            &[],
        );
        assert_eq!(head.status, 200, "request {i} should be admitted");
        let last = chunks.last().expect("stream has a terminal chunk");
        assert!(
            last.contains("\"failed\":true"),
            "request {i}: terminal chunk should be typed failed, got {last:?}"
        );
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.rejected_queue_full, 0);
    assert_eq!(metrics.queued, 0, "a panic leaked a queue reservation");
    assert_eq!(metrics.running, 0);
    assert_eq!(metrics.admitted, requests);
    assert_eq!(metrics.failed, requests);
}

/// After contained panics the server keeps serving: with the fault plan
/// off, requests behind a restart-scarred server complete normally.
#[test]
fn healthy_server_reports_ok_status() {
    let server = Server::start(tiny_config(2, 8, Duration::from_millis(1))).expect("server starts");
    let (head, chunks) = generate_with_headers(
        server.addr(),
        "{\"prompt_tokens\":4,\"decode_tokens\":2}",
        &[],
    );
    assert_eq!(head.status, 200);
    assert!(chunks
        .last()
        .expect("terminal chunk")
        .contains("\"done\":true"));
    let (status, body) = get_body(server.addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "got {body:?}");
    server.shutdown();
}
