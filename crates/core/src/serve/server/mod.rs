//! A real TCP serving front-end over the continuous batcher.
//!
//! [`Server::start`] binds a std-TCP listener and serves a minimal
//! HTTP/1.1 API (hand-rolled, no external dependencies):
//!
//! * `POST /v1/generate` with a JSON body
//!   `{"prompt_tokens": N, "decode_tokens": M, "priority": P}` streams one
//!   chunk per output token (`{"token": i}` lines), ending with a
//!   terminal chunk: `{"done": true, ...}` with the request's realized
//!   SLO numbers, `{"timed_out": true}` when the request expired past its
//!   deadline, or `{"failed": true, ...}` when an engine panic killed it.
//!   `priority` is optional; see [`Server`] for its semantics. An
//!   `X-Deadline-Ms` header (or [`ServerConfig::default_deadline`]) sets
//!   a completion deadline; a request whose deadline already passed is
//!   answered `504` without queueing.
//! * `GET /metrics` returns a [`ServerMetrics`] JSON snapshot: counters
//!   plus queue-wait/TTFT/TPOT percentiles of every request completed
//!   since startup, read from fixed-size histograms.
//! * `GET /healthz` answers liveness probes: `{"ok":true,"status":"ok"}`
//!   normally, `"status":"degraded"` (with reasons, still HTTP 200) once
//!   the engine has been restarted after a panic or a remote worker is
//!   down.
//! * `POST /admin/drain` starts a graceful drain (admission closes,
//!   accepted requests run to completion).
//!
//! [`client`] is the other end of the same format: the one client that
//! `load_gen`, the chaos soak, the tests and the examples stream through.
//!
//! The engine runs in its own loop thread, the single owner of the
//! [`ContinuousBatcher`] — the same admission/merge/leave core the
//! [`ServeSim`](crate::serve::ServeSim) drives, stepped with wall-clock
//! stamps instead of the modeled clock. Connection handlers talk to it
//! over a bounded channel, so a slow client never blocks the batch. The
//! loop is also the single owner of request and engine state: handlers
//! write only the admission reservation and the rejection counters, and
//! read everything else from the one snapshot the loop publishes.
//!
//! # Admission control
//!
//! Three gates, in order, each answering `503` with a JSON error naming
//! the gate:
//!
//! 1. **Drain**: a draining server admits nothing new.
//! 2. **Load shed**: when the oldest waiting request has queued longer
//!    than [`ServerConfig::shed_watermark`], best-effort requests
//!    (priority above [`DEFAULT_PRIORITY`]) are shed. Priority-0 traffic
//!    rides through overload at the cost of deeper queues.
//! 3. **Queue depth**: at most [`ServerConfig::queue_depth`] requests may
//!    wait for a batch slot; beyond that the queue is full.
//!
//! Load-shed and queue-full rejections are retryable and carry a
//! `Retry-After` header; draining and expired-deadline rejections are
//! not retryable on this server and don't.

pub mod client;
mod engine_loop;
mod http;
mod metrics;

pub use client::{read_one_chunk, read_response_head_full, ResponseHead};
pub use metrics::ServerMetrics;

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hybrimoe_hw::{SimDuration, SimTime};
use serde::Value;

use crate::serve::server::engine_loop::{StreamEvent, Submission, Terminal};
use crate::serve::server::metrics::Snapshot;
use crate::serve::{ContinuousBatcher, DEFAULT_PRIORITY};
use crate::EngineConfig;

/// Stack size for connection-handler threads. Handlers only parse one
/// small request and relay channel events, so a sliver of stack keeps a
/// thousand concurrent streams cheap.
const HANDLER_STACK: usize = 128 * 1024;

/// Per-connection socket read timeout: a client that stops sending
/// mid-request releases its handler thread.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The priority assigned to `POST /v1/generate` requests that omit the
/// field: best-effort, one class above the shed-exempt
/// [`DEFAULT_PRIORITY`].
pub const DEFAULT_HTTP_PRIORITY: u8 = 1;

/// Configuration of a serving front-end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The engine (framework preset, model, cache ratio) to serve.
    pub engine: EngineConfig,
    /// Bind address. Port 0 picks a free port; read the real one from
    /// [`ServerHandle::addr`].
    pub addr: String,
    /// Continuous-batch bound (see [`ContinuousBatcher::new`] for the
    /// validity constraints).
    pub max_batch: usize,
    /// Admission bound: requests allowed to wait for a batch slot before
    /// new arrivals get `503 queue full`.
    pub queue_depth: usize,
    /// Load-shed watermark: when the oldest waiting request has queued
    /// longer than this, best-effort arrivals are shed with `503`.
    /// `None` disables shedding.
    pub shed_watermark: Option<Duration>,
    /// Upper bound a request may ask to decode.
    pub max_decode_tokens: u32,
    /// Upper bound on a request's prompt length.
    pub max_prompt_tokens: u32,
    /// Pacing floor: every engine step takes at least this long of wall
    /// time. `None` free-runs. Useful to make overload reproducible in
    /// tests and to emulate slower hardware.
    pub min_step: Option<Duration>,
    /// Default end-to-end deadline for requests that send no
    /// `X-Deadline-Ms` header. A request past its deadline is expired at
    /// the next step boundary (terminal `timed_out` chunk, slot freed);
    /// one whose deadline has already passed at admission is rejected
    /// with `504`. `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// Seed for per-request synthetic traces.
    pub seed: u64,
}

impl ServerConfig {
    /// A config with serving defaults on an OS-assigned port.
    pub fn new(engine: EngineConfig) -> ServerConfig {
        ServerConfig {
            engine,
            addr: "127.0.0.1:0".to_owned(),
            max_batch: 16,
            queue_depth: 1024,
            shed_watermark: None,
            max_decode_tokens: 512,
            max_prompt_tokens: 4096,
            min_step: None,
            default_deadline: None,
            seed: 0,
        }
    }
}

/// State shared between the acceptor, connection handlers, and the
/// engine loop. Handlers write the flags, the rejection counters and the
/// reservation counter; everything else is the engine loop's, which
/// publishes it whole as the one [`Snapshot`].
pub(crate) struct Shared {
    /// Admission is closed; accepted requests are running out.
    pub draining: AtomicBool,
    /// The acceptor should exit.
    closed: AtomicBool,
    rejected_queue_full: AtomicU64,
    rejected_shed: AtomicU64,
    rejected_draining: AtomicU64,
    rejected_deadline: AtomicU64,
    /// Waiting-queue slots handlers have reserved (and handed to the
    /// engine loop) since startup. With the loop's
    /// [`Snapshot::left_waiting`] it gives the slots held right now:
    /// `queued = reserved − left_waiting`, submissions still in the
    /// channel plus requests in the batcher's waiting queue. A stale
    /// snapshot only under-reports `left_waiting`, so `queued` can
    /// over-count for a moment but never under-count.
    reserved: AtomicU64,
    /// The engine loop's books as of its last publish.
    snapshot: Mutex<Snapshot>,
    /// The server clock's origin; all `SimTime` stamps count from here.
    origin: Instant,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            draining: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            rejected_queue_full: AtomicU64::new(0),
            rejected_shed: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            reserved: AtomicU64::new(0),
            snapshot: Mutex::new(Snapshot::default()),
            origin: Instant::now(),
        }
    }

    /// Now, on the server clock (nanoseconds since startup).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// The engine loop's last published books. Poison-tolerant: the only
    /// writer overwrites plain fields, which leaves the snapshot valid at
    /// every step.
    pub fn snapshot(&self) -> MutexGuard<'_, Snapshot> {
        self.snapshot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// How long the oldest waiting request has been queued.
    fn queue_delay(&self) -> SimDuration {
        let oldest = self.snapshot().oldest_waiting;
        oldest.map_or(SimDuration::ZERO, |arrival| {
            self.now().elapsed_since(arrival)
        })
    }

    /// A point-in-time metrics snapshot. The percentiles are read from
    /// the published ledger's histograms in O(buckets) under the lock.
    fn metrics(&self) -> ServerMetrics {
        let snap = self.snapshot();
        let Snapshot {
            ledger,
            prefetch,
            workers,
            ..
        } = &*snap;
        ServerMetrics {
            admitted: ledger.admitted,
            completed: ledger.completed,
            cancelled: ledger.cancelled,
            timed_out: ledger.timed_out,
            failed: ledger.failed,
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_shed: self.rejected_shed.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            // Loaded after the snapshot was taken, so `reserved` is never
            // behind the `left_waiting` it is compared with.
            queued: self.reserved.load(Ordering::Acquire) - snap.left_waiting(),
            running: snap.running,
            engine_steps: ledger.steps,
            output_tokens: ledger.output_tokens,
            draining: self.draining.load(Ordering::Relaxed),
            queue_wait_p50_ms: ledger.queue_wait.percentile(50.0).as_millis_f64(),
            queue_wait_p99_ms: ledger.queue_wait.percentile(99.0).as_millis_f64(),
            ttft_p50_ms: ledger.ttft.percentile(50.0).as_millis_f64(),
            ttft_p99_ms: ledger.ttft.percentile(99.0).as_millis_f64(),
            tpot_p50_ms: ledger.tpot.percentile(50.0).as_millis_f64(),
            tpot_p99_ms: ledger.tpot.percentile(99.0).as_millis_f64(),
            prefetch_issued: prefetch.issued,
            prefetch_landed: prefetch.landed,
            prefetch_wasted: prefetch.wasted,
            prefetch_wasted_stale: prefetch.stale,
            prefetch_wasted_cut_short: prefetch.cut_short,
            prefetch_wasted_unadmitted: prefetch.unadmitted,
            shard_hit_ratio: snap.shard_hit_ratio.clone(),
            workers_configured: workers.configured,
            workers_up: workers.up,
            worker_requests: workers.requests,
            worker_failovers: workers.failovers,
            worker_reconnects: workers.reconnects,
            workers_down: workers.down,
            engine_restarts: ledger.engine_restarts,
        }
    }
}

/// Admission limits the connection handlers enforce.
struct Limits {
    queue_depth: usize,
    shed_watermark: Option<SimDuration>,
    max_decode_tokens: u32,
    max_prompt_tokens: u32,
    /// Deadline applied to requests without an `X-Deadline-Ms` header.
    default_deadline: Option<Duration>,
}

/// The serving front-end. See the [module docs](self) for the API and
/// the admission-control design; [`Server::start`] is the entry point.
pub struct Server;

impl Server {
    /// Binds the listener, warms up the engine, and spawns the engine
    /// loop and acceptor threads. Returns once the server is accepting.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] — before binding a port or
    /// spawning a thread — if `config.max_batch` is outside
    /// `1..PREFILL_BATCH_THRESHOLD` (see [`ContinuousBatcher::new`]) or
    /// `config.queue_depth` is zero, and the bind or spawn error if either
    /// fails.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let threshold = hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD;
        if config.max_batch == 0 || config.max_batch as u64 >= u64::from(threshold) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("max_batch {} is outside 1..{threshold}", config.max_batch),
            ));
        }
        if config.queue_depth == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "queue_depth must be at least 1",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let batcher = ContinuousBatcher::new(config.engine.clone(), config.max_batch, config.seed);
        let shared = Arc::new(Shared::new());
        // Capacity matches the queue depth: handlers reserve a slot
        // before sending, so the channel can never fill past it.
        let (submit, submissions) = mpsc::sync_channel::<Submission>(config.queue_depth);

        let engine = {
            let shared = Arc::clone(&shared);
            let min_step = config.min_step;
            let engine_cfg = config.engine.clone();
            let max_batch = config.max_batch;
            let seed = config.seed;
            thread::Builder::new()
                .name("hybrimoe-engine".to_owned())
                .spawn(move || {
                    // The factory re-arms the loop with a fresh engine
                    // after a contained step panic.
                    let make_batcher =
                        move || ContinuousBatcher::new(engine_cfg.clone(), max_batch, seed);
                    engine_loop::run(batcher, make_batcher, submissions, shared, min_step)
                })?
        };

        let limits = Arc::new(Limits {
            queue_depth: config.queue_depth,
            shed_watermark: config
                .shed_watermark
                .map(|d| SimDuration::from_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))),
            max_decode_tokens: config.max_decode_tokens,
            max_prompt_tokens: config.max_prompt_tokens,
            default_deadline: config.default_deadline,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            let submit = submit.clone();
            thread::Builder::new()
                .name("hybrimoe-accept".to_owned())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shared.closed.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let shared = Arc::clone(&shared);
                        let submit = submit.clone();
                        let limits = Arc::clone(&limits);
                        // Spawn consumes the stream even on failure, so
                        // keep a duplicate handle: out of threads, the
                        // client gets an honest 503 instead of a reset.
                        let fallback = stream.try_clone().ok();
                        let spawned = thread::Builder::new()
                            .name("hybrimoe-conn".to_owned())
                            .stack_size(HANDLER_STACK)
                            .spawn(move || handle_connection(stream, &shared, &submit, &limits));
                        if spawned.is_err() {
                            if let Some(mut stream) = fallback {
                                let _ = http::respond_json(
                                    &mut stream,
                                    503,
                                    &error_body("out of handler threads"),
                                );
                            }
                        }
                    }
                })?
        };

        Ok(ServerHandle {
            addr,
            shared,
            _submit: submit,
            engine: Some(engine),
            acceptor: Some(acceptor),
        })
    }
}

/// A running server. Dropping the handle shuts the server down without
/// waiting; call [`ServerHandle::shutdown`] for an orderly drain-and-join.
///
/// # Example
///
/// ```
/// use hybrimoe::serve::server::{Server, ServerConfig};
/// use hybrimoe::{EngineConfig, Framework};
/// use hybrimoe_model::ModelConfig;
///
/// let engine = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5);
/// let handle = Server::start(ServerConfig::new(engine)).unwrap();
/// println!("listening on http://{}", handle.addr()); // OS-assigned port
/// let metrics = handle.shutdown(); // graceful drain-and-join
/// assert_eq!(metrics.completed, 0);
/// ```
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Held so the engine loop only sees a disconnected submission
    /// channel once the handle (and the acceptor) are gone.
    _submit: SyncSender<Submission>,
    engine: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time metrics snapshot (same data as `GET /metrics`).
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.metrics()
    }

    /// Closes admission. Accepted requests keep running; new ones get
    /// `503 draining`.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Gracefully shuts down: drains, waits for every accepted request
    /// to complete, stops accepting, and returns the final metrics.
    pub fn shutdown(mut self) -> ServerMetrics {
        self.drain();
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
        self.close_acceptor();
        self.shared.metrics()
    }

    fn close_acceptor(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        // The acceptor blocks in accept(); a throwaway connection wakes
        // it to observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.drain();
        if self.acceptor.is_some() {
            self.close_acceptor();
        }
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

/// One accepted connection: parse a request, route it, answer, close.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    submit: &SyncSender<Submission>,
    limits: &Limits,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match http::read_request(&mut stream) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(err) => {
            let _ = http::respond_json(&mut stream, 400, &error_body(&err.to_string()));
            return;
        }
    };
    let path = request.path.split('?').next().unwrap_or("");
    let result = match (request.method.as_str(), path) {
        ("POST", "/v1/generate") => handle_generate(&mut stream, &request, shared, submit, limits),
        ("GET", "/metrics") => {
            let body = serde_json::to_string(&shared.metrics())
                .unwrap_or_else(|_| error_body("metrics serialization failed"));
            http::respond_json(&mut stream, 200, &body)
        }
        ("GET", "/healthz") => http::respond_json(&mut stream, 200, &healthz_body(shared)),
        ("POST", "/admin/drain") => {
            shared.draining.store(true, Ordering::Release);
            http::respond_json(&mut stream, 200, "{\"draining\":true}")
        }
        (_, "/v1/generate" | "/metrics" | "/healthz" | "/admin/drain") => {
            http::respond_json(&mut stream, 405, &error_body("method not allowed"))
        }
        _ => http::respond_json(&mut stream, 404, &error_body("no such endpoint")),
    };
    // A client that hung up mid-stream is not a server error.
    drop(result);
}

/// The `/healthz` body: `ok` until the server has visibly degraded —
/// the engine was restarted after a panic, or a remote worker is down.
/// Degraded stays HTTP 200 (the server is alive and serving);
/// orchestration that wants to act on degradation reads `status`.
fn healthz_body(shared: &Shared) -> String {
    let (restarts, down) = {
        let snap = shared.snapshot();
        (snap.ledger.engine_restarts, snap.workers.down)
    };
    if restarts == 0 && down == 0 {
        return "{\"ok\":true,\"status\":\"ok\"}".to_owned();
    }
    let mut reasons = Vec::new();
    if restarts > 0 {
        reasons.push(format!("\"engine restarted {restarts} time(s)\""));
    }
    if down > 0 {
        reasons.push(format!("\"{down} worker(s) down\""));
    }
    format!(
        "{{\"ok\":true,\"status\":\"degraded\",\"reasons\":[{}]}}",
        reasons.join(",")
    )
}

/// `POST /v1/generate`: admission control, then stream tokens until the
/// request completes.
fn handle_generate(
    stream: &mut TcpStream,
    request: &http::Request,
    shared: &Shared,
    submit: &SyncSender<Submission>,
    limits: &Limits,
) -> io::Result<()> {
    let generate = match parse_generate(&request.body, limits) {
        Ok(generate) => generate,
        Err(msg) => return http::respond_json(stream, 400, &error_body(&msg)),
    };
    // The per-request header wins over the configured default.
    let deadline_budget = request
        .deadline_ms
        .map(Duration::from_millis)
        .or(limits.default_deadline);

    // Gate 0: a deadline of zero has already passed — don't queue work
    // that must miss.
    if deadline_budget == Some(Duration::ZERO) {
        shared.rejected_deadline.fetch_add(1, Ordering::Relaxed);
        return http::respond_json(stream, 504, &error_body("deadline already expired"));
    }
    // Gate 1: a draining server admits nothing.
    if shared.draining.load(Ordering::Acquire) {
        shared.rejected_draining.fetch_add(1, Ordering::Relaxed);
        return http::respond_json(stream, 503, &error_body("draining"));
    }
    // Gate 2: overload sheds best-effort traffic by queue delay. Shed is
    // transient, so the 503 invites a retry.
    if generate.priority > DEFAULT_PRIORITY {
        if let Some(watermark) = limits.shed_watermark {
            if shared.queue_delay() > watermark {
                shared.rejected_shed.fetch_add(1, Ordering::Relaxed);
                return http::respond_json_with(
                    stream,
                    503,
                    &error_body("shed: queue delay over watermark"),
                    &[("Retry-After", "1")],
                );
            }
        }
    }
    // Gate 3: reserve a waiting-queue slot or reject (also retryable).
    // `reserved` is read after `left_waiting`, so it is never behind it.
    let left_waiting = shared.snapshot().left_waiting();
    let reserved = shared
        .reserved
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |reserved| {
            (reserved - left_waiting < limits.queue_depth as u64).then_some(reserved + 1)
        });
    if reserved.is_err() {
        shared.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
        return http::respond_json_with(
            stream,
            503,
            &error_body("queue full"),
            &[("Retry-After", "1")],
        );
    }

    let (events_tx, events_rx) = mpsc::channel::<StreamEvent>();
    let arrival = shared.now();
    let submission = Submission {
        arrival,
        prompt_tokens: generate.prompt_tokens,
        decode_tokens: generate.decode_tokens,
        priority: generate.priority,
        deadline: deadline_budget.map(|d| {
            arrival + SimDuration::from_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        }),
        events: events_tx,
    };
    if let Err(err) = submit.try_send(submission) {
        // The loop will never see this submission: hand the slot back.
        shared.reserved.fetch_sub(1, Ordering::AcqRel);
        let (counter, msg, retryable) = match err {
            // Unreachable by construction (reservation bounds the channel),
            // but never silently drop an accepted request.
            TrySendError::Full(_) => (&shared.rejected_queue_full, "queue full", true),
            TrySendError::Disconnected(_) => (&shared.rejected_draining, "shutting down", false),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let headers: &[(&str, &str)] = if retryable {
            &[("Retry-After", "1")]
        } else {
            &[]
        };
        return http::respond_json_with(stream, 503, &error_body(msg), headers);
    }

    stream_events(stream, &events_rx)
}

/// Streams engine events for one admitted request as HTTP chunks. Each
/// payload is formatted into `payload` and framed into `frame`, both
/// reused for the whole stream.
fn stream_events(stream: &mut TcpStream, events: &mpsc::Receiver<StreamEvent>) -> io::Result<()> {
    http::begin_stream(stream)?;
    let mut payload = String::new();
    let mut frame = Vec::new();
    loop {
        match events.recv() {
            Ok(StreamEvent::Token { index }) => {
                payload.clear();
                let _ = writeln!(payload, "{{\"token\":{index}}}");
                http::write_chunk(stream, &mut frame, &payload)?;
            }
            Ok(StreamEvent::End(Terminal::Completed(metrics))) => {
                payload.clear();
                let _ = writeln!(
                    payload,
                    "{{\"done\":true,\"id\":{},\"queue_wait_ms\":{:.6},\"ttft_ms\":{:.6},\"tpot_ms\":{:.6},\"latency_ms\":{:.6}}}",
                    metrics.id,
                    metrics.queue_wait().as_millis_f64(),
                    metrics.ttft().as_millis_f64(),
                    metrics.tpot().as_millis_f64(),
                    metrics.latency().as_millis_f64(),
                );
                http::write_chunk(stream, &mut frame, &payload)?;
                return http::end_chunks(stream);
            }
            Ok(StreamEvent::End(Terminal::TimedOut)) => {
                http::write_chunk(stream, &mut frame, "{\"timed_out\":true}\n")?;
                return http::end_chunks(stream);
            }
            Ok(StreamEvent::End(Terminal::Failed)) => {
                http::write_chunk(
                    stream,
                    &mut frame,
                    "{\"failed\":true,\"error\":\"engine restarted\"}\n",
                )?;
                return http::end_chunks(stream);
            }
            // The engine loop is gone mid-request (or, for `Cancelled`,
            // the client is): terminate the stream so whoever still reads
            // sees a well-formed (if short) response.
            Ok(StreamEvent::End(Terminal::Cancelled)) | Err(_) => return http::end_chunks(stream),
        }
    }
}

/// A validated `POST /v1/generate` body.
struct Generate {
    prompt_tokens: u32,
    decode_tokens: u32,
    priority: u8,
}

/// Parses and validates a generate request. Unknown fields are ignored;
/// `priority` defaults to [`DEFAULT_HTTP_PRIORITY`].
fn parse_generate(body: &[u8], limits: &Limits) -> Result<Generate, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let value: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let Value::Map(map) = &value else {
        return Err("body must be a JSON object".to_owned());
    };
    let field_u64 = |name: &str| -> Result<Option<u64>, String> {
        match map.iter().find(|(k, _)| k == name) {
            None => Ok(None),
            Some((_, v)) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("`{name}` must be a non-negative integer")),
        }
    };

    let prompt_tokens = field_u64("prompt_tokens")?.ok_or("missing `prompt_tokens`")?;
    if prompt_tokens == 0 || prompt_tokens > limits.max_prompt_tokens as u64 {
        return Err(format!(
            "`prompt_tokens` must be in 1..={}",
            limits.max_prompt_tokens
        ));
    }
    let decode_tokens = field_u64("decode_tokens")?.ok_or("missing `decode_tokens`")?;
    if decode_tokens > limits.max_decode_tokens as u64 {
        return Err(format!(
            "`decode_tokens` must be at most {}",
            limits.max_decode_tokens
        ));
    }
    let priority = match field_u64("priority")? {
        None => DEFAULT_HTTP_PRIORITY,
        Some(p) => u8::try_from(p).map_err(|_| "`priority` must fit in 0..=255".to_owned())?,
    };
    Ok(Generate {
        prompt_tokens: prompt_tokens as u32,
        decode_tokens: decode_tokens as u32,
        priority,
    })
}

fn error_body(msg: &str) -> String {
    // The messages are server-authored ASCII; escape just in case.
    let escaped: String = msg
        .chars()
        .flat_map(|c| {
            if c == '"' || c == '\\' {
                vec!['\\', c]
            } else {
                vec![c]
            }
        })
        .collect();
    format!("{{\"error\":\"{escaped}\"}}")
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits {
            queue_depth: 4,
            shed_watermark: None,
            max_decode_tokens: 64,
            max_prompt_tokens: 128,
            default_deadline: None,
        }
    }

    #[test]
    fn generate_body_parses_with_default_priority() {
        let g = parse_generate(br#"{"prompt_tokens": 8, "decode_tokens": 4}"#, &limits()).unwrap();
        assert_eq!(g.prompt_tokens, 8);
        assert_eq!(g.decode_tokens, 4);
        assert_eq!(g.priority, DEFAULT_HTTP_PRIORITY);
    }

    #[test]
    fn generate_body_validates_ranges() {
        let l = limits();
        assert!(parse_generate(br#"{"prompt_tokens": 0, "decode_tokens": 4}"#, &l).is_err());
        assert!(parse_generate(br#"{"prompt_tokens": 9999, "decode_tokens": 4}"#, &l).is_err());
        assert!(parse_generate(br#"{"prompt_tokens": 8, "decode_tokens": 65}"#, &l).is_err());
        assert!(parse_generate(br#"{"prompt_tokens": 8}"#, &l).is_err());
        assert!(parse_generate(b"not json", &l).is_err());
        assert!(parse_generate(br#"[1, 2]"#, &l).is_err());
        let g = parse_generate(
            br#"{"prompt_tokens": 8, "decode_tokens": 0, "priority": 0}"#,
            &l,
        )
        .unwrap();
        assert_eq!(g.decode_tokens, 0);
        assert_eq!(g.priority, 0);
    }

    #[test]
    fn readers_survive_a_poisoned_snapshot_lock() {
        let shared = Shared::new();
        // Three requests reserved, admitted and completed.
        shared.reserved.store(3, Ordering::Relaxed);
        {
            let mut snap = shared.snapshot();
            snap.ledger.admitted = 3;
            snap.ledger.completed = 3;
            snap.ledger.engine_restarts = 1;
            let sample = SimDuration::from_millis(4);
            for _ in 0..3 {
                snap.ledger.ttft.record(sample);
            }
        }
        // Panic while holding the lock, poisoning the mutex the way a
        // crashed thread would.
        thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = shared.snapshot.lock().unwrap();
                panic!("die holding the snapshot lock");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(shared.snapshot.lock().is_err(), "lock should be poisoned");

        // `/metrics` and `/healthz` still answer from the recovered books.
        let m = shared.metrics();
        assert_eq!((m.admitted, m.completed, m.engine_restarts), (3, 3, 1));
        assert!((4.0..=4.5).contains(&m.ttft_p50_ms), "{}", m.ttft_p50_ms);
        assert_eq!(m.queue_wait_p50_ms, 0.0);
        let health = healthz_body(&shared);
        assert!(health.contains("\"status\":\"degraded\""), "{health}");
        assert!(health.contains("engine restarted 1 time(s)"), "{health}");
    }

    #[test]
    fn error_bodies_escape_quotes() {
        assert_eq!(error_body(r#"bad "field""#), r#"{"error":"bad \"field\""}"#);
    }
}
