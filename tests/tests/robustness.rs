//! Failure-path integration tests for the serving front-end: end-to-end
//! request deadlines (admission 504s, waiting- and running-expiry with
//! the typed `timed_out` terminal chunk), `Retry-After` on retryable
//! 503s, engine-panic containment with the `failed` terminal chunk, and
//! the degraded `/healthz` body.
//!
//! Like `server.rs`, every test drives a real loopback server through
//! `serve::server::client`; pacing floors make queueing structure
//! deterministic without exact-timing assertions.

use std::thread;
use std::time::Duration;

use hybrimoe::fault::{FaultPlan, FaultRates};
use hybrimoe::serve::server::client::{generate, get};
use hybrimoe::serve::server::Server;
use hybrimoe_tests::{tiny_config, tiny_server, wait_for_metrics};

/// An `X-Deadline-Ms: 0` budget is already spent: the server answers 504
/// at admission without ever enqueueing, and counts the rejection.
#[test]
fn zero_deadline_is_rejected_with_504() {
    let server = tiny_server(2, 8, Duration::from_millis(1), None);
    let head = generate(
        server.addr(),
        "{\"prompt_tokens\":4,\"decode_tokens\":2}",
        &[("X-Deadline-Ms", "0")],
    )
    .expect("generate")
    .head;
    assert_eq!(head.status, 504, "expired budget rejected at admission");
    let metrics = server.shutdown();
    assert_eq!(metrics.rejected_deadline, 1);
    assert_eq!(metrics.admitted, 0, "nothing should have been enqueued");
}

/// A garbage `X-Deadline-Ms` value is a client error, not a crash.
#[test]
fn unparseable_deadline_header_is_400() {
    let server = tiny_server(2, 8, Duration::from_millis(1), None);
    let head = generate(
        server.addr(),
        "{\"prompt_tokens\":4,\"decode_tokens\":2}",
        &[("X-Deadline-Ms", "soon")],
    )
    .expect("generate")
    .head;
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
    let server = tiny_server(1, 8, Duration::from_millis(20), None);
    let addr = server.addr();
    let mut occupant =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":100}", &[]).expect("occupant");
    assert_eq!(occupant.head.status, 200, "request should be admitted");
    let first = occupant.next_chunk().expect("read first chunk");
    assert!(first.is_some(), "stream has a first chunk");
    wait_for_metrics(&server, "occupant running", |m| m.running >= 1);

    let mut response = generate(
        addr,
        "{\"prompt_tokens\":4,\"decode_tokens\":1}",
        &[("X-Deadline-Ms", "100")],
    )
    .expect("generate");
    let chunks = response.chunks().expect("read chunks");
    assert_eq!(
        response.head.status, 200,
        "deadline expiry is a streamed outcome"
    );
    let last = chunks.last().expect("stream has a terminal chunk");
    assert!(
        last.contains("\"timed_out\":true"),
        "terminal chunk should be typed timed_out, got {last:?}"
    );

    occupant.chunks().expect("finish the occupant");
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
    let addr = server.addr();

    let mut response =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":100}", &[]).expect("generate");
    let chunks = response.chunks().expect("read chunks");
    assert_eq!(response.head.status, 200);
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
    let addr = server.addr();
    let mut response = generate(
        addr,
        "{\"prompt_tokens\":4,\"decode_tokens\":3}",
        &[("X-Deadline-Ms", "60000")],
    )
    .expect("generate");
    let chunks = response.chunks().expect("read chunks");
    assert_eq!(response.head.status, 200);
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
    let server = tiny_server(1, 1, Duration::from_millis(20), None);
    let addr = server.addr();
    let mut occupant =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":60}", &[]).expect("occupant");
    assert_eq!(occupant.head.status, 200, "request should be admitted");
    let first = occupant.next_chunk().expect("read first chunk");
    assert!(first.is_some(), "stream has a first chunk");
    let waiter = thread::spawn(move || {
        let mut waiter =
            generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[]).expect("waiter");
        waiter.chunks().expect("waiter chunks");
        waiter.head
    });
    wait_for_metrics(&server, "waiter queued", |m| m.queued >= 1);

    let head = generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[])
        .expect("generate")
        .head;
    assert_eq!(head.status, 503, "full queue rejects");
    assert_eq!(
        head.retry_after,
        Some(1),
        "retryable 503 should carry Retry-After"
    );

    occupant.chunks().expect("finish the occupant");
    let waiter_head = waiter.join().expect("waiter thread");
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

    let (status, body) = get(addr, "/healthz").expect("GET /healthz");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"status\":\"ok\""),
        "fresh server is healthy, got {body:?}"
    );

    let mut response =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":4}", &[]).expect("generate");
    let chunks = response.chunks().expect("read chunks");
    assert_eq!(
        response.head.status, 200,
        "the request is admitted before the panic"
    );
    let last = chunks.last().expect("stream has a terminal chunk");
    assert!(
        last.contains("\"failed\":true"),
        "terminal chunk should be typed failed, got {last:?}"
    );

    wait_for_metrics(&server, "restart counted", |m| m.engine_restarts >= 1);
    let (status, body) = get(addr, "/healthz").expect("GET /healthz");
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
    let addr = server.addr();

    let requests = queue_depth as u64 + 2;
    for i in 0..requests {
        let mut response =
            generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":4}", &[]).expect("generate");
        let chunks = response.chunks().expect("read chunks");
        assert_eq!(response.head.status, 200, "request {i} should be admitted");
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
    let server = tiny_server(2, 8, Duration::from_millis(1), None);
    let addr = server.addr();
    let mut response =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":2}", &[]).expect("generate");
    let chunks = response.chunks().expect("read chunks");
    assert_eq!(response.head.status, 200);
    assert!(chunks
        .last()
        .expect("terminal chunk")
        .contains("\"done\":true"));
    let (status, body) = get(addr, "/healthz").expect("GET /healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "got {body:?}");
    server.shutdown();
}
