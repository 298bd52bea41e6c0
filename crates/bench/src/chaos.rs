//! The chaos soak behind the `chaos_bench` binary, and the gate it exits
//! on ([`ChaosSummary::invariants_hold`]).
//!
//! Two phases, one invariant: **every admitted request terminates, and no
//! batch slot leaks** — under injected engine panics, latency spikes,
//! request deadlines, client cancels, client hangups and slow readers.
//!
//! * **Phase 1 (soak)** drives a [`ContinuousBatcher`] directly on the
//!   modeled clock with a seeded storm of arrivals, deadlines and cancels
//!   while the engine injects step panics and latency spikes from a
//!   [`FaultPlan`]. Everything runs on the simulated clock, so the counts
//!   are bit-reproducible from the seed: running `chaos_bench` twice with
//!   the same seed must produce byte-identical JSON (CI diffs exactly
//!   that).
//! * **Phase 2 (server)** starts a real TCP [`Server`] with the same
//!   engine fault plan and fires concurrent clients at it — some with
//!   tight deadlines, some that hang up mid-stream, some that read
//!   slowly, all honoring `Retry-After` on retryable 503s. Wall-clock
//!   scheduling makes the individual counters nondeterministic, so the
//!   summary reports only the *invariants* as booleans: they hold on
//!   every run or the gate fails.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use hybrimoe::serve::server::{client, Server, ServerConfig, ServerMetrics};
use hybrimoe::serve::{ContinuousBatcher, RequestSpec};
use hybrimoe::{EngineConfig, Framework};
use hybrimoe_fault::{FaultPlan, FaultRates, FaultStream};
use hybrimoe_hw::{SimDuration, SimTime};
use hybrimoe_model::ModelConfig;
use serde::{Serialize, Value};

/// What one chaos run measured. `chaos_bench` exits 1 unless
/// [`invariants_hold`](ChaosSummary::invariants_hold), and CI diffs its
/// JSON against the committed `BENCH_chaos.json`.
///
/// The soak fields are deterministic functions of `seed`; the server
/// fields are invariant booleans (plus the fixed request count), so the
/// whole summary serializes byte-identically across same-seed runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ChaosSummary {
    /// Seed the whole run derived from.
    pub seed: u64,
    /// Requests enqueued by the soak.
    pub soak_requests: u64,
    /// Soak requests that completed their full token stream.
    pub soak_completed: u64,
    /// Soak requests expired past their deadline.
    pub soak_timed_out: u64,
    /// Soak requests cancelled mid-flight (simulated client hangups).
    pub soak_cancelled: u64,
    /// Soak requests killed by a contained engine panic.
    pub soak_failed: u64,
    /// Engine step panics the soak contained (batcher rebuilt each time).
    pub soak_panics_contained: u64,
    /// Engine steps the soak took across all batcher incarnations.
    pub soak_steps: u64,
    /// Requests still holding a batch slot after the soak drained —
    /// **must be zero**.
    pub soak_leaked_slots: u64,
    /// Requests the server phase attempted.
    pub server_requests: u64,
    /// Every server-phase request reached a definite terminal outcome
    /// (completed / timed out / failed / rejected / hung up) — none
    /// vanished.
    pub server_all_terminated: bool,
    /// The server's final metrics balance: `admitted == completed +
    /// cancelled + timed_out + failed`, with nothing queued or running.
    pub server_accounted: bool,
    /// `/healthz` still answered after the storm, and its `status` agreed
    /// with the metrics (degraded iff restarts or workers down).
    pub server_healthz_consistent: bool,
}

impl ChaosSummary {
    /// The chaos gate: every soak request reached a terminal outcome, no
    /// batch slot leaked, the fault plan actually injected panics (the
    /// storm must storm), and the server phase's three invariants held.
    pub fn invariants_hold(&self) -> bool {
        let soak_terminal =
            self.soak_completed + self.soak_timed_out + self.soak_cancelled + self.soak_failed;
        soak_terminal == self.soak_requests
            && self.soak_leaked_slots == 0
            && self.soak_panics_contained > 0
            && self.server_all_terminated
            && self.server_accounted
            && self.server_healthz_consistent
    }
}

/// Fixed request count of the soak phase.
const SOAK_REQUESTS: u64 = 300;

/// Batch bound of the soak's batcher.
const SOAK_MAX_BATCH: usize = 4;

/// Fixed request count of the server phase.
const SERVER_REQUESTS: usize = 48;

/// Concurrent client threads of the server phase.
const SERVER_CONCURRENCY: usize = 8;

/// Total admission attempts a chaos client makes when its 503s carry
/// `Retry-After`, each wait capped at 2 s. `load_gen` makes 2 attempts
/// under the same cap. Chaos makes no transport retries: a failed send
/// or receive is [`ClientOutcome::Lost`], which the gate counts.
const ADMISSION_ATTEMPTS: usize = 3;

/// The engine-side fault plan both phases inject: step panics plus small
/// latency spikes.
fn engine_faults(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        rates: FaultRates {
            // ~1 panic per 250 steps: several contained restarts per
            // phase, never so many that nothing completes.
            panic_ppm: 4_000,
            // Occasional 1ms spikes: exercises the spike path without
            // stretching wall time.
            spike_ppm: 10_000,
            spike_ms: 1,
            ..FaultRates::default()
        },
    }
}

/// Runs both phases and assembles the summary.
pub fn run_chaos_bench(seed: u64) -> ChaosSummary {
    let soak = run_chaos_soak(seed);
    let server = run_chaos_server(seed);
    ChaosSummary {
        seed,
        soak_requests: soak.requests,
        soak_completed: soak.completed,
        soak_timed_out: soak.timed_out,
        soak_cancelled: soak.cancelled,
        soak_failed: soak.failed,
        soak_panics_contained: soak.panics_contained,
        soak_steps: soak.steps,
        soak_leaked_slots: soak.leaked_slots,
        server_requests: SERVER_REQUESTS as u64,
        server_all_terminated: server.all_terminated,
        server_accounted: server.accounted,
        server_healthz_consistent: server.healthz_consistent,
    }
}

/// Phase-1 counters (all deterministic from the seed).
#[derive(Debug, Default)]
pub struct SoakOutcome {
    /// Requests enqueued.
    pub requests: u64,
    /// Requests that streamed to completion.
    pub completed: u64,
    /// Requests expired past their deadline.
    pub timed_out: u64,
    /// Requests cancelled mid-flight.
    pub cancelled: u64,
    /// Requests killed by a contained panic.
    pub failed: u64,
    /// Step panics contained.
    pub panics_contained: u64,
    /// Steps taken.
    pub steps: u64,
    /// Slots still held after the drain (must be zero).
    pub leaked_slots: u64,
}

/// Phase 1: the sim-clock batcher soak. A seeded storm of arrivals (with
/// deadlines tight enough that some must expire), random mid-flight
/// cancels, and an engine that panics and spikes per its fault plan. The
/// driver contains each panic exactly like the server's engine loop:
/// `catch_unwind`, fail everything in flight, rebuild the batcher.
pub fn run_chaos_soak(seed: u64) -> SoakOutcome {
    let model = ModelConfig::tiny_test();
    let engine = EngineConfig::preset(Framework::HybriMoe, model, 0.5)
        .with_seed(seed)
        .with_fault_plan(engine_faults(seed));
    let make_batcher = || ContinuousBatcher::new(engine.clone(), SOAK_MAX_BATCH, seed);
    let mut batcher = make_batcher();
    // The driver's own randomness is a separate site so the storm shape
    // never correlates with the engine's fault rolls.
    let mut rng = FaultStream::new(seed ^ 0x0C4A_05BE_EC01);

    let mut out = SoakOutcome::default();
    let mut live: Vec<u32> = Vec::new();
    let mut next_id: u32 = 0;
    let mut now = SimTime::ZERO;

    while out.requests < SOAK_REQUESTS || !batcher.is_idle() {
        // A bursty trickle of arrivals; about a third carry deadlines
        // short enough that queueing or a spike blows them.
        while out.requests < SOAK_REQUESTS && rng.below(100) < 40 {
            let deadline = match rng.below(3) {
                0 => Some(now + SimDuration::from_micros(rng.next_u64() % 20_000)),
                _ => None,
            };
            batcher.enqueue(RequestSpec {
                id: next_id,
                arrival: now,
                prompt_tokens: 1 + (rng.next_u64() % 24) as u32,
                decode_tokens: 1 + (rng.next_u64() % 12) as u32,
                priority: (rng.next_u64() % 2) as u8,
                deadline,
            });
            live.push(next_id);
            next_id = next_id.wrapping_add(1);
            out.requests += 1;
        }
        // Simulated client hangups: cancel a random live request.
        if !live.is_empty() && rng.roll_ppm(60_000) {
            let victim = live[rng.below(live.len() as u64) as usize];
            if batcher.cancel(victim) {
                out.cancelled += 1;
                live.retain(|id| *id != victim);
            }
        }
        if batcher.is_idle() {
            now += SimDuration::from_millis(1);
            continue;
        }
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batcher.step(now, |latency| now + latency)
        }));
        match stepped {
            Ok(outcome) => {
                out.steps += 1;
                out.completed += outcome.completed.len() as u64;
                for m in &outcome.completed {
                    live.retain(|id| *id != m.id);
                }
                for id in outcome
                    .expired_waiting
                    .iter()
                    .chain(&outcome.expired_running)
                {
                    out.timed_out += 1;
                    live.retain(|l| l != id);
                }
                now = outcome.end;
            }
            Err(_) => {
                // Contained exactly like the serving engine loop: every
                // request in flight fails, a fresh batcher takes over.
                out.panics_contained += 1;
                out.failed += live.len() as u64;
                live.clear();
                batcher = make_batcher();
                now += SimDuration::from_millis(1);
            }
        }
    }
    out.leaked_slots = (batcher.waiting_len() + batcher.running_len()) as u64;
    out
}

/// Phase-2 invariant verdicts.
#[derive(Debug)]
pub struct ServerPhaseOutcome {
    /// Every request reached a definite terminal outcome.
    pub all_terminated: bool,
    /// Final server metrics balance with nothing queued or running.
    pub accounted: bool,
    /// `/healthz` answered and agreed with the metrics.
    pub healthz_consistent: bool,
}

/// What one chaos client observed for its request.
enum ClientOutcome {
    /// Stream ended with a terminal `done` chunk.
    Completed,
    /// Stream ended with a terminal `timed_out` chunk.
    TimedOut,
    /// Stream ended with a terminal `failed` chunk (engine restarted).
    FailedChunk,
    /// Admission said 503/504 (after honoring any `Retry-After`).
    Rejected,
    /// The client hung up mid-stream on purpose.
    HungUp,
    /// Anything else: transport error, malformed stream.
    Lost,
}

/// Phase 2: a real TCP server under the same engine fault plan, attacked
/// by concurrent clients that mix tight deadlines, deliberate mid-stream
/// hangups and slow reads. Returns invariant verdicts only — wall-clock
/// scheduling makes raw counts vary run to run.
pub fn run_chaos_server(seed: u64) -> ServerPhaseOutcome {
    let mut config = ServerConfig::new(
        EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5)
            .with_seed(seed)
            .with_fault_plan(engine_faults(seed)),
    );
    config.max_batch = 4;
    config.queue_depth = 64;
    config.seed = seed;
    let server = Server::start(config).expect("chaos server binds a loopback port");
    let addr = server.addr();

    let lost = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::<ClientOutcome>::new());
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        for worker in 0..SERVER_CONCURRENCY {
            let outcomes = &outcomes;
            let lost = &lost;
            let next = &next;
            scope.spawn(move || {
                // Per-worker fault stream: which requests hang up, read
                // slowly, or carry tight deadlines.
                let mut rng = FaultStream::new(seed ^ (0xC11E47 + worker as u64));
                loop {
                    let ticket = next.fetch_add(1, Ordering::Relaxed);
                    if ticket >= SERVER_REQUESTS {
                        break;
                    }
                    let outcome = chaos_request(addr, ticket, &mut rng);
                    if matches!(outcome, ClientOutcome::Lost) {
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                    outcomes.lock().expect("outcome lock").push(outcome);
                }
            });
        }
    });

    // Read the health endpoints while the server is idle but alive, then
    // shut down and check the final books.
    let metrics = fetch_metrics(addr);
    let healthz_consistent = match (fetch_healthz_status(addr), &metrics) {
        (Some(status), Some(m)) => {
            let degraded = m.engine_restarts > 0 || m.workers_down > 0;
            status == if degraded { "degraded" } else { "ok" }
        }
        _ => false,
    };
    let terminated = outcomes.into_inner().expect("outcome lock").len();
    let all_terminated = terminated == SERVER_REQUESTS && lost.load(Ordering::Relaxed) == 0;
    let last = server.shutdown();
    let accounted = last.admitted == last.completed + last.cancelled + last.timed_out + last.failed
        && last.queued == 0
        && last.running == 0;
    ServerPhaseOutcome {
        all_terminated,
        accounted,
        healthz_consistent,
    }
}

/// Streams one chaos request: maybe a tight deadline, maybe a deliberate
/// mid-stream hangup, maybe slow reads; honors `Retry-After` on 503.
fn chaos_request(addr: SocketAddr, ticket: usize, rng: &mut FaultStream) -> ClientOutcome {
    // Every 8th request asks for the impossible: a zero deadline, which
    // admission must answer 504 without queueing.
    let deadline_ms = if ticket % 8 == 7 {
        Some(0)
    } else if rng.roll_ppm(300_000) {
        Some(1 + rng.next_u64() % 40) // tight: some of these expire
    } else {
        None
    };
    let hangup = rng.roll_ppm(200_000);
    let slow_read = rng.roll_ppm(200_000);

    let deadline_ms = deadline_ms.map(|ms| ms.to_string());
    let headers: Vec<_> = deadline_ms
        .iter()
        .map(|ms| ("X-Deadline-Ms", ms.as_str()))
        .collect();
    for attempt in 1..=ADMISSION_ATTEMPTS {
        let Ok(mut response) =
            client::generate(addr, "{\"prompt_tokens\":6,\"decode_tokens\":5}", &headers)
        else {
            return ClientOutcome::Lost;
        };
        match response.head.status {
            200 if response.head.chunked => {}
            504 => return ClientOutcome::Rejected,
            503 => match response.head.retry_after {
                Some(secs) if attempt < ADMISSION_ATTEMPTS => {
                    thread::sleep(Duration::from_secs(secs.min(2)));
                    continue;
                }
                _ => return ClientOutcome::Rejected,
            },
            _ => return ClientOutcome::Lost,
        }
        // Stream the chunks; a hangup client drops the socket after the
        // first token and lets the server reclaim the slot.
        let mut saw = None;
        loop {
            match response.next_chunk() {
                Ok(Some(chunk)) => {
                    if hangup {
                        return ClientOutcome::HungUp;
                    }
                    if slow_read {
                        thread::sleep(Duration::from_millis(2));
                    }
                    saw = Some(chunk);
                }
                Ok(None) => break,
                Err(_) => return ClientOutcome::Lost,
            }
        }
        return match saw {
            Some(chunk) if chunk.contains("\"done\"") => ClientOutcome::Completed,
            Some(chunk) if chunk.contains("\"timed_out\"") => ClientOutcome::TimedOut,
            Some(chunk) if chunk.contains("\"failed\"") => ClientOutcome::FailedChunk,
            _ => ClientOutcome::Lost,
        };
    }
    ClientOutcome::Rejected
}

/// GETs `/metrics` and parses the snapshot.
fn fetch_metrics(addr: SocketAddr) -> Option<ServerMetrics> {
    let body = fetch(addr, "/metrics")?;
    serde_json::from_str(&body).ok()
}

/// GETs `/healthz` and extracts the `status` field.
fn fetch_healthz_status(addr: SocketAddr) -> Option<String> {
    let body = fetch(addr, "/healthz")?;
    match serde_json::from_str::<Value>(&body).ok()? {
        Value::Map(map) => {
            map.into_iter()
                .find(|(k, _)| k == "status")
                .and_then(|(_, v)| match v {
                    Value::Str(s) => Some(s),
                    _ => None,
                })
        }
        _ => None,
    }
}

/// One plain GET, returning the body of a 200.
fn fetch(addr: SocketAddr, path: &str) -> Option<String> {
    let (status, body) = client::get(addr, path).ok()?;
    (status == 200).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_deterministic_and_leak_free() {
        let a = run_chaos_soak(7);
        let b = run_chaos_soak(7);
        assert_eq!(a.requests, SOAK_REQUESTS);
        assert_eq!(a.leaked_slots, 0);
        assert_eq!(
            a.completed + a.timed_out + a.cancelled + a.failed,
            a.requests,
            "every admitted soak request must terminate"
        );
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.timed_out, b.timed_out);
        assert_eq!(a.cancelled, b.cancelled);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.panics_contained, b.panics_contained);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn a_storm_that_injected_nothing_fails_the_gate() {
        let healthy = ChaosSummary {
            seed: 7,
            soak_requests: 10,
            soak_completed: 6,
            soak_timed_out: 2,
            soak_cancelled: 1,
            soak_failed: 1,
            soak_panics_contained: 1,
            soak_steps: 40,
            soak_leaked_slots: 0,
            server_requests: 4,
            server_all_terminated: true,
            server_accounted: true,
            server_healthz_consistent: true,
        };
        assert!(healthy.invariants_hold());
        let calm = ChaosSummary {
            soak_panics_contained: 0,
            soak_failed: 0,
            soak_completed: 7,
            ..healthy
        };
        assert!(!calm.invariants_hold(), "the storm must storm");
    }
}
