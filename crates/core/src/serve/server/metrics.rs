//! The serving front-end's books: the engine loop's [`Ledger`] (lifecycle
//! counts and per-request SLO histograms), the snapshot it publishes, and
//! the `/metrics` view built from it.

use hybrimoe_hw::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::remote::WorkerHealthSnapshot;
use crate::serve::summary::nearest_rank;
use crate::serve::ContinuousBatcher;
use crate::PrefetchCounters;

/// A point-in-time snapshot of the server's SLO accounting, served as JSON
/// at `GET /metrics`.
///
/// The queue-wait/TTFT/TPOT percentiles cover every request completed
/// since startup. They are read from fixed log-linear histograms, so each
/// is never below the exact nearest-rank value and at most 12.5 % (or
/// 1 µs) above it; one past about 67 s reports the largest sample.
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
    /// Median queue wait of completed requests, ms.
    pub queue_wait_p50_ms: f64,
    /// 99th-percentile queue wait of completed requests, ms.
    pub queue_wait_p99_ms: f64,
    /// Median time to first token (measured from arrival) of completed
    /// requests, ms.
    pub ttft_p50_ms: f64,
    /// 99th-percentile time to first token of completed requests, ms.
    pub ttft_p99_ms: f64,
    /// Median time per output token of completed requests, ms.
    pub tpot_p50_ms: f64,
    /// 99th-percentile time per output token of completed requests, ms.
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
    /// or completed with no slot to enter.
    pub prefetch_wasted: u64,
    /// The part of `prefetch_wasted` dropped unstarted because its layer
    /// ran first ([`PrefetchCounters::stale`]).
    pub prefetch_wasted_stale: u64,
    /// The part of `prefetch_wasted` on the wire when its layer ran, whose
    /// plan did not finish it ([`PrefetchCounters::cut_short`]).
    pub prefetch_wasted_cut_short: u64,
    /// The part of `prefetch_wasted` that completed with no slot to enter
    /// ([`PrefetchCounters::unadmitted`]).
    pub prefetch_wasted_unadmitted: u64,
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
    /// Remote workers currently down (their experts run locally until a
    /// reconnect after the backoff succeeds).
    pub workers_down: u64,
    /// Times the engine was rebuilt after a step panic. The listener and
    /// every connection survive a restart; only the requests in flight at
    /// the panic fail.
    pub engine_restarts: u64,
}

/// The engine loop's books: one plain, loop-local integer per transition
/// of a request's life (Submitted → Waiting → Running → one of four
/// terminals), plus one SLO histogram per series over the completed
/// requests. Only the loop writes them, each at exactly one place —
/// `admit` and `terminate` in the engine loop.
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
    pub queue_wait: SloHistogram,
    pub ttft: SloHistogram,
    pub tpot: SloHistogram,
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

/// Linear sub-buckets per power of two.
const SUB_BUCKETS: usize = 8;
/// Powers of two covered above [`HISTOGRAM_BASE`]: 1 µs up to 2²⁶ µs
/// (about 67 s). Longer samples land in the overflow bucket.
const OCTAVES: usize = 26;
/// The lowest octave's lower edge (1 µs); one bucket holds everything
/// below it.
const HISTOGRAM_BASE: SimDuration = SimDuration::from_micros(1);
/// One bucket below the base, the log-linear buckets, one overflow bucket.
const BUCKETS: usize = 1 + OCTAVES * SUB_BUCKETS + 1;

/// A fixed-size log-linear histogram of durations: [`SUB_BUCKETS`] equal
/// buckets per power of two from 1 µs, one bucket below that and one
/// overflow bucket. Recording is O(1) and a percentile O(buckets); the
/// whole histogram is about 1.7 KiB, so the ledger it lives in stays cheap
/// to publish.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SloHistogram {
    counts: [u64; BUCKETS],
    /// The largest sample: what a percentile in the overflow bucket
    /// reports.
    max: SimDuration,
}

impl Default for SloHistogram {
    fn default() -> Self {
        SloHistogram {
            counts: [0; BUCKETS],
            max: SimDuration::ZERO,
        }
    }
}

impl SloHistogram {
    /// Counts one sample.
    pub fn record(&mut self, sample: SimDuration) {
        self.counts[bucket_of(sample)] += 1;
        self.max = self.max.max(sample);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `p`th nearest-rank percentile, reported as the upper edge of the
    /// bucket holding that sample (the largest sample for the overflow
    /// bucket); zero when empty. Never below the exact value, and at most
    /// 12.5 % or 1 µs above it below the overflow bucket.
    pub fn percentile(&self, p: f64) -> SimDuration {
        let n = self.count();
        if n == 0 {
            return SimDuration::ZERO;
        }
        let rank = nearest_rank(n, p);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return self.upper_edge(bucket);
            }
        }
        unreachable!("rank {rank} is at most the sample count {n}")
    }

    /// What a percentile landing in `bucket` reports: the bucket's
    /// exclusive upper edge, or the largest sample for the overflow bucket.
    fn upper_edge(&self, bucket: usize) -> SimDuration {
        if bucket == 0 {
            return HISTOGRAM_BASE;
        }
        if bucket == BUCKETS - 1 {
            return self.max;
        }
        let (octave, sub) = ((bucket - 1) / SUB_BUCKETS, (bucket - 1) % SUB_BUCKETS);
        let width = (HISTOGRAM_BASE.as_nanos() << octave) / SUB_BUCKETS as u64;
        SimDuration::from_nanos(width * (SUB_BUCKETS + sub + 1) as u64)
    }
}

/// The bucket a sample lands in.
fn bucket_of(sample: SimDuration) -> usize {
    let base = HISTOGRAM_BASE.as_nanos();
    let ns = sample.as_nanos();
    if ns < base {
        return 0;
    }
    // ⌊log₂(ns / base)⌋ equals ⌊log₂⌊ns / base⌋⌋: powers of two are
    // integers.
    let octave = (ns / base).ilog2() as usize;
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    let width = (base << octave) / SUB_BUCKETS as u64;
    let sub = ((ns - (base << octave)) / width) as usize;
    1 + octave * SUB_BUCKETS + sub
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::serve::summary::percentile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The promised bound: `[exact, max(exact × 1.125, exact + 1 µs)]`.
    fn assert_within_bound(reported: SimDuration, exact: SimDuration, what: &str) {
        let exact_ns = exact.as_nanos() as f64;
        let ceiling = (exact_ns * 1.125).max(exact_ns + 1_000.0);
        let got = reported.as_nanos() as f64;
        assert!(
            exact_ns <= got && got <= ceiling,
            "{what}: reported {got} ns, exact {exact_ns} ns"
        );
    }

    #[test]
    fn histogram_percentiles_bound_the_exact_nearest_rank() {
        let mut rng = StdRng::seed_from_u64(0x5107);
        for round in 0..200 {
            let n = rng.gen_range(1usize..400);
            // Log-uniform from 10 ns to ~10 s, so every octave and the
            // below-1 µs bucket see samples.
            let mut samples: Vec<SimDuration> = (0..n)
                .map(|_| {
                    let exp = rng.gen_range(1.0f64..10.0);
                    SimDuration::from_nanos(10f64.powf(exp) as u64)
                })
                .collect();
            let mut hist = SloHistogram::default();
            for &sample in &samples {
                hist.record(sample);
            }
            assert_eq!(hist.count(), n as u64);
            samples.sort_unstable();
            for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
                let what = format!("round {round}, p{p}, n {n}");
                assert_within_bound(hist.percentile(p), percentile(&samples, p), &what);
            }
        }
    }

    #[test]
    fn bucket_edges_are_exact_at_every_octave() {
        for octave in 0..OCTAVES {
            for sub in 0..SUB_BUCKETS {
                let bucket = 1 + octave * SUB_BUCKETS + sub;
                let width = (1_000u64 << octave) / 8;
                let lower = SimDuration::from_nanos(width * (8 + sub) as u64);
                let upper = lower + SimDuration::from_nanos(width);
                assert_eq!(bucket_of(lower), bucket, "lower edge of {bucket}");
                assert_eq!(
                    bucket_of(upper - SimDuration::from_nanos(1)),
                    bucket,
                    "last value of {bucket}"
                );
                assert_eq!(SloHistogram::default().upper_edge(bucket), upper);
            }
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let hist = SloHistogram::default();
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.percentile(50.0), SimDuration::ZERO);
        assert_eq!(hist.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn sub_microsecond_samples_report_one_microsecond() {
        let mut hist = SloHistogram::default();
        for ns in [0, 1, 500, 999] {
            hist.record(SimDuration::from_nanos(ns));
        }
        assert_eq!(bucket_of(SimDuration::from_nanos(999)), 0);
        assert_eq!(hist.percentile(50.0), HISTOGRAM_BASE);
        assert_eq!(hist.percentile(100.0), HISTOGRAM_BASE);
    }

    #[test]
    fn overflow_samples_report_the_largest_sample() {
        let top = SimDuration::from_micros(1 << OCTAVES);
        assert_eq!(bucket_of(top - SimDuration::from_nanos(1)), BUCKETS - 2);
        assert_eq!(bucket_of(top), BUCKETS - 1);
        let mut hist = SloHistogram::default();
        hist.record(SimDuration::from_millis(1));
        hist.record(top + SimDuration::from_millis(5_000));
        let largest = top + SimDuration::from_millis(30_000);
        hist.record(largest);
        // p50 is the 2nd sample, p99 the 3rd: both overflow, both report
        // the largest, which is never below either.
        assert_eq!(hist.percentile(50.0), largest);
        assert_eq!(hist.percentile(99.0), largest);
        assert_within_bound(hist.percentile(0.0), SimDuration::from_millis(1), "p0");
    }
}
