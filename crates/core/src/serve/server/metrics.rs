//! The serving front-end's books: the engine loop's published snapshot,
//! the `/metrics` view built from it, and per-request SLO percentiles.

use std::collections::VecDeque;
use std::sync::Mutex;

use hybrimoe_hw::{SimDuration, SimTime};
use hybrimoe_worker::WorkerHealthSnapshot;
use serde::{Deserialize, Serialize};

use crate::serve::summary::percentile;
use crate::serve::{ContinuousBatcher, RequestMetrics};
use crate::PrefetchCounters;

/// A point-in-time snapshot of the server's SLO accounting, served as JSON
/// at `GET /metrics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerMetrics {
    /// Requests admitted into the waiting queue since startup.
    pub admitted: u64,
    /// Requests that completed their full token stream.
    pub completed: u64,
    /// Requests cancelled because the client hung up mid-stream (their
    /// batch slot was reclaimed at the next step boundary).
    pub cancelled: u64,
    /// Admitted requests expired past their deadline (waiting or
    /// mid-decode); each got a terminal `timed_out` chunk and freed its
    /// slot at the next step boundary.
    pub timed_out: u64,
    /// Admitted requests failed by an engine panic; each got a terminal
    /// `failed` chunk while the engine was rebuilt.
    pub failed: u64,
    /// Requests rejected because the waiting queue was full.
    pub rejected_queue_full: u64,
    /// Requests shed because queue delay exceeded the watermark.
    pub rejected_shed: u64,
    /// Requests rejected because the server was draining.
    pub rejected_draining: u64,
    /// Requests rejected at admission because their deadline had already
    /// passed (or was zero) — answered 504 without queueing.
    pub rejected_deadline: u64,
    /// Requests currently waiting for a batch slot.
    pub queued: u64,
    /// Requests currently decoding in the batch.
    pub running: u64,
    /// Engine steps taken.
    pub engine_steps: u64,
    /// Output tokens streamed (first tokens plus decode tokens).
    pub output_tokens: u64,
    /// Whether the server is draining (admission closed).
    pub draining: bool,
    /// Median queue wait over the last 4096 completed requests, ms.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile queue wait over the last 4096 completed requests,
    /// ms.
    pub queue_wait_p99_ms: f64,
    /// Median time to first token (measured from arrival) over the last
    /// 4096 completed requests, ms.
    pub ttft_p50_ms: f64,
    /// 99th-percentile time to first token over the last 4096 completed
    /// requests, ms.
    pub ttft_p99_ms: f64,
    /// Median time per output token over the last 4096 completed
    /// requests, ms.
    pub tpot_p50_ms: f64,
    /// 99th-percentile time per output token over the last 4096 completed
    /// requests, ms.
    pub tpot_p99_ms: f64,
    /// Background expert transfers issued by the prefetcher since startup.
    /// Each ends landed or wasted, or is still queued (see
    /// [`PrefetchCounters`]).
    pub prefetch_issued: u64,
    /// Prefetched experts that reached the GPU: completed into the cache,
    /// or finished by their layer's plan as a head start.
    pub prefetch_landed: u64,
    /// Prefetches that never delivered: dropped unstarted when their layer
    /// ran first, cut short when the plan computed the expert on the CPU,
    /// completed with no slot to enter, or discarded by a re-warm.
    pub prefetch_wasted: u64,
    /// Expert-cache hit ratio per GPU shard, refreshed every engine step.
    pub shard_hit_ratio: Vec<f64>,
    /// Remote expert workers configured (zero unless the engine runs the
    /// remote-worker backend).
    pub workers_configured: u64,
    /// Remote workers currently connected.
    pub workers_up: u64,
    /// Expert batches dispatched to remote workers since startup.
    pub worker_requests: u64,
    /// Expert batches that fell back to local execution after a worker
    /// failure or while a worker was down.
    pub worker_failovers: u64,
    /// Successful worker reconnects after a failure.
    pub worker_reconnects: u64,
    /// Remote workers whose circuit breaker is currently open (their
    /// experts route local until a half-open probe succeeds).
    pub worker_breaker_open: u64,
    /// Cumulative circuit-breaker trips across the worker fleet.
    pub worker_breaker_trips: u64,
    /// Times the engine was rebuilt after a step panic. The listener and
    /// every connection survive a restart; only the requests in flight at
    /// the panic fail.
    pub engine_restarts: u64,
}

/// The engine loop's lifecycle counts: one plain, loop-local integer per
/// transition of a request's life (Submitted → Waiting → Running → one
/// of four terminals). Only the loop writes them, each at exactly one
/// place — `admit` and `terminate` in the engine loop.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ledger {
    pub admitted: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub timed_out: u64,
    pub failed: u64,
    pub engine_restarts: u64,
    pub steps: u64,
    pub output_tokens: u64,
}

/// Everything the engine loop knows, published whole: its [`Ledger`] plus
/// what the batcher and the engine report *at publish time*. Nothing here
/// is adjusted in place — a batcher rebuilt after a panic simply reports
/// an empty queue and batch at the next publish.
#[derive(Debug, Default)]
pub(crate) struct Snapshot {
    pub ledger: Ledger,
    /// `batcher.waiting_len()` / `running_len()` / `oldest_waiting_arrival()`.
    pub waiting: u64,
    pub running: u64,
    pub oldest_waiting: Option<SimTime>,
    pub prefetch: PrefetchCounters,
    pub shard_hit_ratio: Vec<f64>,
    /// All-zero unless the remote-worker backend runs.
    pub workers: WorkerHealthSnapshot,
}

impl Snapshot {
    /// Recomputes the snapshot from its two sources.
    pub fn refresh(&mut self, ledger: &Ledger, batcher: &ContinuousBatcher) {
        let engine = batcher.engine();
        self.ledger = *ledger;
        self.waiting = batcher.waiting_len() as u64;
        self.running = batcher.running_len() as u64;
        self.oldest_waiting = batcher.oldest_waiting_arrival();
        self.prefetch = engine.prefetch_counters();
        self.workers = engine.worker_health().unwrap_or_default();
        let cache = engine.cache();
        self.shard_hit_ratio.clear();
        self.shard_hit_ratio
            .extend((0..cache.num_shards()).map(|s| cache.shard(s).stats().hit_rate()));
    }

    /// Requests the loop pulled off the submission channel that have since
    /// left the waiting queue (into the batch, or to a terminal). Monotone:
    /// nothing re-enters the queue. Every pulled request is counted
    /// `admitted`, so this is the loop's half of the admission reservation
    /// (`queued = reserved − left_waiting`).
    pub fn left_waiting(&self) -> u64 {
        self.ledger.admitted - self.waiting
    }
}

/// Completions the latency percentiles look back over.
pub const SLO_WINDOW: usize = 4096;

/// Keeps the SLO samples of the last [`SLO_WINDOW`] completions behind a
/// mutex, so memory and scrape cost stay constant however long the server
/// runs. The engine loop pushes one sample per completion; `/metrics`
/// handlers read percentiles.
#[derive(Debug, Default)]
pub struct SloRecorder {
    /// One `[queue_wait, ttft, tpot]` triple per completion, oldest first.
    inner: Mutex<VecDeque<[SimDuration; 3]>>,
}

impl SloRecorder {
    /// Records one completed request, ageing out the oldest past the
    /// window.
    ///
    /// Poison-tolerant: every update leaves the ring valid, so if another
    /// thread panicked holding the lock, recovering the guard keeps
    /// `/metrics` and the drain path alive for everyone else.
    pub fn record(&self, m: &RequestMetrics) {
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == SLO_WINDOW {
            ring.pop_front();
        }
        ring.push_back([m.queue_wait(), m.ttft(), m.tpot()]);
    }

    /// Percentiles over the window, in milliseconds:
    /// `(queue_wait p50/p99, ttft p50/p99, tpot p50/p99)`.
    /// Poison-tolerant like [`SloRecorder::record`]. The window is copied
    /// out and sorted off the lock, so a scrape never holds up the engine
    /// loop's next `record`.
    pub fn percentiles_ms(&self) -> [f64; 6] {
        let samples: Vec<[SimDuration; 3]> = {
            let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            ring.iter().copied().collect()
        };
        let mut sorted = Vec::with_capacity(samples.len());
        let mut out = [0.0; 6];
        for series in 0..3 {
            sorted.clear();
            sorted.extend(samples.iter().map(|sample| sample[series]));
            sorted.sort_unstable();
            out[2 * series] = percentile(&sorted, 50.0).as_millis_f64();
            out[2 * series + 1] = percentile(&sorted, 99.0).as_millis_f64();
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn metrics(id: u32, wait_ms: u64, ttft_ms: u64) -> RequestMetrics {
        RequestMetrics {
            id,
            arrival: SimTime::ZERO,
            admitted: SimTime::ZERO + SimDuration::from_millis(wait_ms),
            first_token: SimTime::ZERO + SimDuration::from_millis(ttft_ms),
            completion: SimTime::ZERO + SimDuration::from_millis(ttft_ms + 10),
            prompt_tokens: 8,
            decode_tokens: 5,
        }
    }

    #[test]
    fn recorder_reports_percentiles() {
        let rec = SloRecorder::default();
        for i in 0..10 {
            rec.record(&metrics(i, i as u64 + 1, 2 * (i as u64 + 1)));
        }
        let [qw50, qw99, ttft50, ttft99, tpot50, tpot99] = rec.percentiles_ms();
        assert_eq!(qw50, 5.0);
        assert_eq!(qw99, 10.0);
        assert_eq!(ttft50, 10.0);
        assert_eq!(ttft99, 20.0);
        assert_eq!(tpot50, 2.0);
        assert!(tpot99 >= tpot50);
    }

    #[test]
    fn recorder_survives_a_poisoned_lock() {
        let rec = std::sync::Arc::new(SloRecorder::default());
        rec.record(&metrics(0, 4, 8));
        // Panic while holding the lock, poisoning the mutex the way a
        // crashed handler thread would.
        let poisoner = std::sync::Arc::clone(&rec);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("die holding the slo lock");
        })
        .join();
        assert!(rec.inner.lock().is_err(), "lock should be poisoned");

        // Both paths must keep working on the recovered state.
        rec.record(&metrics(1, 6, 12));
        let [qw50, ..] = rec.percentiles_ms();
        assert_eq!(qw50, 4.0);
    }

    #[test]
    fn recorder_keeps_only_the_last_window() {
        let rec = SloRecorder::default();
        // Three windows of samples, each window slower than the last.
        for i in 0..3 * SLO_WINDOW {
            let window = (i / SLO_WINDOW) as u64;
            rec.record(&metrics(i as u32, 10 * (window + 1), 100));
        }
        assert_eq!(rec.inner.lock().unwrap().len(), SLO_WINDOW);
        // Only the third window (30 ms waits) is left: the 10 ms and
        // 20 ms samples aged out.
        let oldest = rec.inner.lock().unwrap().front().copied().unwrap();
        assert_eq!(oldest[0], SimDuration::from_millis(30));
        let [qw50, ..] = rec.percentiles_ms();
        assert_eq!(qw50, 30.0);
    }
}
