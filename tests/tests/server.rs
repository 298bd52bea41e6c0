//! Integration tests for the TCP serving front-end: streaming, admission
//! control (queue depth, load shed, drain), and SLO accounting.
//!
//! Every test drives a real server over loopback TCP through
//! `serve::server::client`, the same client the `load_gen` bench uses.
//! Pacing floors (`min_step`) make queueing structure deterministic
//! without depending on host speed: assertions are orderings and lower
//! bounds, never exact timings.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use hybrimoe::serve::percentile;
use hybrimoe::serve::server::client::{generate, get};
use hybrimoe::serve::server::{read_response_head_full, Server, ServerMetrics};
use hybrimoe_hw::SimDuration;
use hybrimoe_tests::{tiny_config, tiny_server, wait_for_metrics};

/// Pulls a named `"key":<f64>` field out of a flat JSON chunk.
fn json_f64(chunk: &str, key: &str) -> f64 {
    let value: serde::Value = serde_json::from_str(chunk).expect("chunk parses");
    let serde::Value::Map(map) = value else {
        panic!("chunk is not an object: {chunk}")
    };
    map.into_iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or_else(|| panic!("chunk lacks {key}: {chunk}"))
}

#[test]
fn streams_one_chunk_per_token_then_done() {
    let server = tiny_server(4, 64, Duration::from_millis(5), None);
    let addr = server.addr();
    let mut response =
        generate(addr, "{\"prompt_tokens\":8,\"decode_tokens\":4}", &[]).expect("generate");
    let chunks = response.chunks().expect("read chunks");
    assert_eq!(response.head.status, 200);
    // One first token + one per decode step + the terminal accounting.
    let tokens = chunks.iter().filter(|c| c.contains("\"token\"")).count();
    assert_eq!(tokens, 5, "chunks: {chunks:?}");
    let done = chunks.last().expect("stream has chunks");
    assert!(done.contains("\"done\":true"), "done chunk: {done}");
    assert!(json_f64(done, "ttft_ms") >= json_f64(done, "queue_wait_ms"));

    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.admitted, 1);
    assert_eq!(metrics.output_tokens, 5);
}

#[test]
fn full_queue_rejects_with_503() {
    // One batch slot, one waiting slot: with a long request running and
    // another waiting, the third arrival must bounce.
    let server = tiny_server(1, 1, Duration::from_millis(30), None);
    let addr = server.addr();
    let mut occupant =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":30}", &[]).expect("occupant");
    assert_eq!(occupant.head.status, 200, "request should be admitted");
    let first = occupant.next_chunk().expect("read first chunk");
    assert!(first.is_some(), "stream has a first chunk");
    // The occupant's first token means it left the waiting queue.
    let waiter = thread::spawn(move || {
        let mut waiter =
            generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[]).expect("waiter");
        waiter.chunks().expect("waiter chunks");
        waiter.head.status
    });
    // The waiter holds the one queue slot once its reservation shows up.
    wait_for_metrics(&server, "the waiter's queue slot", |m| m.queued >= 1);
    let third = generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[]).expect("third");
    let status = third.head.status;
    assert_eq!(status, 503, "third request should find the queue full");
    assert!(server.metrics().rejected_queue_full >= 1);

    let waiter_status = waiter.join().expect("waiter thread");
    assert_eq!(waiter_status, 200, "the queued request still completes");
    occupant.chunks().expect("finish the occupant");
    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 2);
}

#[test]
fn shed_watermark_sheds_best_effort_but_not_priority_zero() {
    // A long occupant plus a queued waiter push queue delay over the
    // 1 ms watermark; default-priority arrivals shed, priority 0 rides.
    let server = tiny_server(
        1,
        64,
        Duration::from_millis(30),
        Some(Duration::from_millis(1)),
    );
    let addr = server.addr();
    let mut occupant =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":40}", &[]).expect("occupant");
    assert_eq!(occupant.head.status, 200, "request should be admitted");
    let first = occupant.next_chunk().expect("read first chunk");
    assert!(first.is_some(), "stream has a first chunk");
    let waiter = thread::spawn(move || {
        let mut waiter =
            generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[]).expect("waiter");
        waiter.chunks().expect("waiter chunks");
        waiter.head.status
    });
    // Wait for the waiter to reach the engine's waiting queue (two
    // admissions counted: occupant + waiter), then let it age past the
    // 1 ms watermark.
    wait_for_metrics(&server, "the waiter's admission", |m| m.admitted >= 2);
    thread::sleep(Duration::from_millis(150));

    let shed = generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[]).expect("shed");
    let shed_status = shed.head.status;
    assert_eq!(shed_status, 503, "best-effort traffic sheds under overload");
    assert!(server.metrics().rejected_shed >= 1);

    let mut vip = generate(
        addr,
        "{\"prompt_tokens\":4,\"decode_tokens\":1,\"priority\":0}",
        &[],
    )
    .expect("vip request");
    let vip_chunks = vip.chunks().expect("vip chunks");
    assert_eq!(vip.head.status, 200, "priority 0 is exempt from shedding");
    assert!(vip_chunks.last().expect("vip stream").contains("\"done\""));

    assert_eq!(waiter.join().expect("waiter thread"), 200);
    occupant.chunks().expect("finish the occupant");
    server.shutdown();
}

#[test]
fn graceful_drain_completes_every_admitted_request() {
    let server = tiny_server(2, 64, Duration::from_millis(10), None);
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                let mut client = generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":8}", &[])
                    .expect("client request");
                (client.head.status, client.chunks().expect("client chunks"))
            })
        })
        .collect();
    // Let all four through admission before closing it.
    wait_for_metrics(&server, "all four admissions", |m| m.admitted >= 4);
    server.drain();

    let late = generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[]).expect("late");
    assert_eq!(late.head.status, 503, "a draining server admits nothing");

    for client in clients {
        let (status, chunks) = client.join().expect("client thread");
        assert_eq!(status, 200);
        assert!(
            chunks
                .last()
                .expect("stream has chunks")
                .contains("\"done\""),
            "admitted requests stream to completion through a drain"
        );
    }
    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 4);
    assert_eq!(metrics.queued, 0);
    assert_eq!(metrics.running, 0);
    assert!(metrics.rejected_draining >= 1);
    assert!(metrics.draining);
}

#[test]
fn ttft_includes_queue_wait() {
    // One batch slot: the second request's first token can only land
    // after the occupant finishes, so its TTFT is dominated by queue wait.
    let server = tiny_server(1, 64, Duration::from_millis(20), None);
    let addr = server.addr();
    let mut occupant =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":10}", &[]).expect("occupant");
    assert_eq!(occupant.head.status, 200, "request should be admitted");
    let first = occupant.next_chunk().expect("read first chunk");
    assert!(first.is_some(), "stream has a first chunk");
    let mut queued =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":1}", &[]).expect("queued request");
    let chunks = queued.chunks().expect("queued chunks");
    assert_eq!(queued.head.status, 200);
    let done = chunks.last().expect("stream has chunks").clone();
    let queue_wait = json_f64(&done, "queue_wait_ms");
    let ttft = json_f64(&done, "ttft_ms");
    // ~10 remaining occupant steps at a 20 ms floor: well over 100 ms.
    assert!(queue_wait > 100.0, "queue wait was only {queue_wait} ms");
    assert!(ttft >= queue_wait, "ttft {ttft} < queue wait {queue_wait}");
    occupant.chunks().expect("finish the occupant");

    let metrics = server.shutdown();
    assert!(metrics.ttft_p99_ms >= metrics.queue_wait_p50_ms);
}

#[test]
fn priority_zero_jumps_the_waiting_queue() {
    let server = tiny_server(1, 64, Duration::from_millis(25), None);
    let addr = server.addr();
    let mut occupant =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":20}", &[]).expect("occupant");
    assert_eq!(occupant.head.status, 200, "request should be admitted");
    let first = occupant.next_chunk().expect("read first chunk");
    assert!(first.is_some(), "stream has a first chunk");
    let best_effort = thread::spawn(move || {
        let mut be = generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":2}", &[])
            .expect("best-effort request");
        be.chunks().expect("best-effort chunks");
        (be.head.status, Instant::now())
    });
    // The best-effort request must be queued before the VIP arrives.
    wait_for_metrics(&server, "the best-effort admission", |m| m.admitted >= 2);
    let vip = thread::spawn(move || {
        let mut vip = generate(
            addr,
            "{\"prompt_tokens\":4,\"decode_tokens\":2,\"priority\":0}",
            &[],
        )
        .expect("vip request");
        vip.chunks().expect("vip chunks");
        (vip.head.status, Instant::now())
    });

    let (be_status, be_done) = best_effort.join().expect("best-effort thread");
    let (vip_status, vip_done) = vip.join().expect("vip thread");
    assert_eq!(be_status, 200);
    assert_eq!(vip_status, 200);
    assert!(
        vip_done < be_done,
        "the priority-0 request should finish first despite arriving later"
    );
    occupant.chunks().expect("finish the occupant");
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_cancels_and_frees_the_slot() {
    // One batch slot: a long occupant streams while a short request waits.
    // Dropping the occupant's connection mid-stream must cancel it at the
    // next step boundary — counted in `cancelled` — and hand its slot to
    // the waiter, which completes normally.
    let server = tiny_server(1, 64, Duration::from_millis(20), None);
    let addr = server.addr();
    let mut occupant =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":200}", &[]).expect("occupant");
    assert_eq!(occupant.head.status, 200, "request should be admitted");
    let first = occupant.next_chunk().expect("read first chunk");
    assert!(first.is_some(), "stream has a first chunk");
    let waiter = thread::spawn(move || {
        let mut waiter =
            generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":2}", &[]).expect("waiter");
        (waiter.head.status, waiter.chunks().expect("waiter chunks"))
    });
    wait_for_metrics(&server, "the waiter's admission", |m| m.admitted >= 2);

    // Hang up on the occupant mid-stream.
    drop(occupant);
    wait_for_metrics(&server, "the hangup to be cancelled", |m| m.cancelled >= 1);

    // The freed slot admits the waiter, which streams to completion long
    // before the occupant's 200 steps could have elapsed.
    let (waiter_status, waiter_chunks) = waiter.join().expect("waiter thread");
    assert_eq!(waiter_status, 200);
    assert!(
        waiter_chunks
            .last()
            .expect("waiter stream has chunks")
            .contains("\"done\""),
        "the queued request completes after the hangup frees its slot"
    );

    let metrics = server.shutdown();
    assert_eq!(metrics.cancelled, 1);
    assert_eq!(metrics.completed, 1, "only the waiter ran to completion");
    assert_eq!(metrics.running, 0, "the cancelled slot was reclaimed");
    assert_eq!(metrics.queued, 0);
}

/// Sends raw bytes, optionally half-closing the write side, and returns
/// the response status (0 when the server closed without a response).
fn raw_status(addr: SocketAddr, bytes: &[u8], half_close: bool) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(bytes).expect("write raw bytes");
    stream.flush().expect("flush");
    if half_close {
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }
    let mut reader = BufReader::new(stream);
    read_response_head_full(&mut reader).map_or(0, |head| head.status)
}

#[test]
fn malformed_requests_answer_400_and_never_hang() {
    let server = tiny_server(2, 8, Duration::from_millis(5), None);
    let addr = server.addr();

    // Binary garbage in the request line: lossily decoded, no path.
    assert_eq!(
        raw_status(addr, b"\x00\xff\xfe\x01garbage\r\n\r\n", false),
        400
    );
    // Truncated request line (EOF before the newline).
    assert_eq!(raw_status(addr, b"POST /v1/generate", true), 400);
    // Truncated header line.
    assert_eq!(
        raw_status(addr, b"GET /healthz HTTP/1.1\r\nHost: te", true),
        400
    );
    // Non-numeric, negative, and overflowing Content-Length values.
    for bad in ["banana", "-1", "99999999999999999999999999"] {
        let req =
            format!("POST /v1/generate HTTP/1.1\r\nHost: test\r\nContent-Length: {bad}\r\n\r\n");
        assert_eq!(
            raw_status(addr, req.as_bytes(), false),
            400,
            "Content-Length: {bad}"
        );
    }
    // A parseable Content-Length over the body cap.
    assert_eq!(
        raw_status(
            addr,
            b"POST /v1/generate HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n",
            false
        ),
        400
    );
    // A single header line blowing the 8 KiB head budget.
    let mut oversized = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    oversized.extend(std::iter::repeat_n(b'a', 9000));
    oversized.extend_from_slice(b"\r\n\r\n");
    assert_eq!(raw_status(addr, &oversized, false), 400);

    // The server is still fully operational afterwards.
    let mut response =
        generate(addr, "{\"prompt_tokens\":4,\"decode_tokens\":2}", &[]).expect("generate");
    let chunks = response.chunks().expect("read chunks");
    assert_eq!(response.head.status, 200);
    assert!(chunks.last().expect("stream").contains("\"done\""));
    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 1);
}

#[test]
fn metrics_and_healthz_endpoints_answer() {
    let server = tiny_server(4, 64, Duration::from_millis(5), None);
    let addr = server.addr();
    for _ in 0..2 {
        let mut response =
            generate(addr, "{\"prompt_tokens\":8,\"decode_tokens\":2}", &[]).expect("generate");
        response.chunks().expect("read chunks");
        assert_eq!(response.head.status, 200);
    }

    let (status, body) = get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    assert!(!body.is_empty(), "metrics responses carry a length");
    let metrics: ServerMetrics = serde_json::from_str(&body).expect("metrics parse");
    assert_eq!(metrics.completed, 2);
    assert_eq!(metrics.admitted, 2);
    assert!(!metrics.draining);
    assert!(metrics.ttft_p50_ms > 0.0);

    let (status, _) = get(addr, "/healthz").expect("GET /healthz");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn invalid_limits_are_refused_not_panicked_on() {
    // max_batch 40 reaches the prefill threshold (32): a pure-decode batch
    // that large would schedule as prefill.
    for (max_batch, queue_depth) in [(0, 64), (40, 64), (4, 0)] {
        let config = tiny_config(max_batch, queue_depth, Duration::from_millis(5));
        let err = Server::start(config)
            .err()
            .expect("an invalid config starts nothing");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "max_batch {max_batch}, queue_depth {queue_depth}: {err}"
        );
    }
}

/// `/metrics` percentiles agree with the terminal chunks the clients saw:
/// over a mixed batch of requests, each reported p50/p99 is never below
/// the exact nearest-rank value and at most 12.5 % (or 1 µs) above it.
#[test]
fn metrics_percentiles_agree_with_the_terminal_chunks() {
    const CLIENTS: u32 = 8;
    const PER_CLIENT: u32 = 5;
    let server = tiny_server(4, 64, Duration::from_millis(2), None);
    let addr = server.addr();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                (0..PER_CLIENT)
                    .map(|r| {
                        let i = c * PER_CLIENT + r;
                        let body = format!(
                            "{{\"prompt_tokens\":{},\"decode_tokens\":{}}}",
                            4 + (i * 7) % 60,
                            (i * 5) % 13,
                        );
                        let mut response = generate(addr, &body, &[]).expect("generate");
                        let chunks = response.chunks().expect("read chunks");
                        assert_eq!(response.head.status, 200);
                        let done = chunks.last().expect("stream has chunks").clone();
                        assert!(done.contains("\"done\":true"), "done chunk: {done}");
                        ["queue_wait_ms", "ttft_ms", "tpot_ms"].map(|key| json_f64(&done, key))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let samples: Vec<[f64; 3]> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();

    let (status, body) = get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    let metrics: ServerMetrics = serde_json::from_str(&body).expect("metrics parse");
    assert_eq!(metrics.completed, u64::from(CLIENTS * PER_CLIENT));
    let reported = [
        (metrics.queue_wait_p50_ms, metrics.queue_wait_p99_ms),
        (metrics.ttft_p50_ms, metrics.ttft_p99_ms),
        (metrics.tpot_p50_ms, metrics.tpot_p99_ms),
    ];
    for (series, name) in ["queue_wait", "ttft", "tpot"].iter().enumerate() {
        let mut exact: Vec<SimDuration> = samples
            .iter()
            .map(|s| SimDuration::from_nanos((s[series] * 1e6).round() as u64))
            .collect();
        exact.sort_unstable();
        let (p50, p99) = reported[series];
        for (p, got) in [(50.0, p50), (99.0, p99)] {
            let want = percentile(&exact, p).as_millis_f64();
            // Chunks carry whole nanoseconds; allow float rounding only.
            let ceiling = (want * 1.125).max(want + 0.001) + 1e-9;
            assert!(
                want - 1e-9 <= got && got <= ceiling,
                "{name} p{p}: /metrics says {got} ms, exact {want} ms"
            );
        }
    }
    server.shutdown();
}

/// `GET /metrics` exposes the engine's prefetch telemetry on the default
/// preset: the raw wire JSON carries the fields, and the parsed snapshot
/// reports prefetch counters and per-shard hit ratios consistent with each
/// other.
#[test]
fn metrics_expose_prefetch_telemetry() {
    let server = tiny_server(4, 64, Duration::from_millis(5), None);
    let addr = server.addr();

    let mut response =
        generate(addr, "{\"prompt_tokens\":8,\"decode_tokens\":4}", &[]).expect("generate");
    response.chunks().expect("read chunks");
    assert_eq!(response.head.status, 200);

    let (status, body) = get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    for field in [
        "\"prefetch_issued\"",
        "\"prefetch_landed\"",
        "\"prefetch_wasted\"",
        "\"shard_hit_ratio\"",
    ] {
        assert!(body.contains(field), "wire JSON lacks {field}: {body}");
    }

    let metrics: ServerMetrics = serde_json::from_str(&body).expect("metrics parse");
    assert!(metrics.engine_steps > 0, "the request must have stepped");
    // Every landed or wasted transfer was issued first, and each wasted
    // one is counted under exactly one cause.
    assert!(metrics.prefetch_landed + metrics.prefetch_wasted <= metrics.prefetch_issued);
    assert_eq!(
        metrics.prefetch_wasted,
        metrics.prefetch_wasted_stale
            + metrics.prefetch_wasted_cut_short
            + metrics.prefetch_wasted_unadmitted
    );
    assert!(
        !metrics.shard_hit_ratio.is_empty(),
        "per-shard hit ratios are published every step"
    );
    assert!(metrics
        .shard_hit_ratio
        .iter()
        .all(|r| (0.0..=1.0).contains(r)));
    server.shutdown();
}
