//! Rounds: one discarded warm-up plus measured rounds of fixed work, each
//! with its set-up and its loop on a calibrated host clock.

use crate::alloc;
use crate::cal::{Calibrator, HostClock};
use crate::metrics::{Bag, Reported, END_TO_END};
use crate::spans::{self, Span, Tracer};
use crate::stats;
use crate::workloads::{Clock, RequestSample, RoundOutput, Spec, Workload};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads CLOCK_PROCESS_CPUTIME_ID with its Linux clock id");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) of every thread of this process so far,
/// threads that have exited included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` (two 64-bit
    // fields on 64-bit Linux) that the call only writes to.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One measured round with its host durations calibrated.
pub struct Round {
    /// Which content the round served, and whether spans were recorded.
    pub planned: Planned,
    pub out: RoundOutput,
    /// Calibrated host time of the set-up.
    pub setup_s: f64,
    /// Loop time on the workload's clock.
    pub loop_s: f64,
    /// Calibrated host time of the loop, whatever the workload's clock.
    pub loop_host_s: f64,
    /// Calibrated process CPU time of the loop.
    pub loop_cpu_s: f64,
    /// Calibrated over raw loop time: below 1 the machine was slower than
    /// nominal while the loop ran.
    pub factor: f64,
    pub peak_heap_mb: f64,
}

/// Everything a run of rounds produced.
pub struct Run {
    pub rounds: Vec<Round>,
    /// Segments whose two calibration samples differ by more than
    /// [`crate::cal::TORN_LIMIT`].
    pub torn_segments: u32,
    /// Every calibration sample taken, milliseconds.
    pub cal_ms: Vec<f64>,
    pub spans: Vec<Span>,
    /// Digest of the warm-up round, which serves round 1's inputs: round 1
    /// is therefore a replay and must reproduce it.
    pub warmup_digest: Option<u64>,
    /// Output checks that did not hold, over all rounds.
    pub problems: Vec<String>,
}

impl Run {
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.out.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.out.failed).sum()
    }

    /// The digests of the measured rounds folded into one.
    pub fn sim_digest(&self) -> Option<u64> {
        let mut d = crate::digest::Digest::new();
        for r in &self.rounds {
            d.word(r.out.digest?);
        }
        Some(d.finish())
    }

    /// All per-layer samples of all rounds.
    pub fn layers(&self) -> Bag {
        let mut bag = Bag::default();
        for r in &self.rounds {
            bag.merge(r.out.layers.clone());
        }
        bag
    }
}

/// Content seed of measured round `i` (1-based).
pub fn content_seed(seed: u64, round: usize) -> u64 {
    seed ^ round as u64
}

/// One round to run: which content it serves and whether spans are
/// recorded.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub content: usize,
    pub traced: bool,
}

/// Runs one warm-up round and `rounds` measured rounds of `workload`,
/// untraced: the run the end-to-end metrics come from.
pub fn run_rounds(workload: &dyn Workload, seed: u64, rounds: usize, cal: &mut Calibrator) -> Run {
    let plan: Vec<Planned> = (1..=rounds)
        .map(|content| Planned {
            content,
            traced: false,
        })
        .collect();
    run_plan(workload, seed, &plan, true, cal)
}

/// Runs the planned rounds, after a discarded warm-up round on the first
/// round's content if `warmup` is set.
pub fn run_plan(
    workload: &dyn Workload,
    seed: u64,
    plan: &[Planned],
    warmup: bool,
    cal: &mut Calibrator,
) -> Run {
    let mut run = Run {
        rounds: Vec::with_capacity(plan.len()),
        torn_segments: 0,
        cal_ms: Vec::new(),
        spans: Vec::new(),
        warmup_digest: None,
        problems: Vec::new(),
    };
    // Index 0 is the warm-up, which serves round 1's content.
    for index in usize::from(!warmup)..=plan.len() {
        let planned = plan[index.max(1) - 1];
        let inputs = workload.generate(content_seed(seed, planned.content));
        let mut tracer = Tracer::new(planned.traced && index > 0);
        let core_share = workload.spec().core_share;

        alloc::reset_peak();
        let mut setup_clock = HostClock::start(cal, core_share);
        let mut serving = workload.setup(&inputs);
        setup_clock.close();
        let setup_s = setup_clock.total_s();
        let setup_samples: Vec<f64> = setup_clock.samples_ms().collect();
        let setup_torn = setup_clock.torn_segments();

        let mut clock = HostClock::start(cal, core_share);
        let mut out = serving.serve(&inputs, &mut tracer, &mut clock);
        clock.close();
        let peak_heap_mb = alloc::peak_bytes() as f64 / 1e6;
        serving.finish(&mut out);

        if index == 0 {
            run.warmup_digest = out.digest;
            continue;
        }
        run.cal_ms.extend(setup_samples);
        run.cal_ms.extend(clock.samples_ms());
        run.torn_segments += setup_torn + clock.torn_segments();

        let loop_host_s = clock.total_s();
        for problem in &out.problems {
            run.problems.push(format!("round {index}: {problem}"));
        }
        let host_timed = std::mem::take(&mut out.host_timed);
        out.layers.merge(host_timed.scaled(clock.mean_factor()));
        spans::append(&mut run.spans, tracer.into_spans());
        run.rounds.push(Round {
            planned,
            setup_s,
            loop_s: match workload.spec().clock {
                Clock::Modeled => out
                    .modeled_loop_s
                    .expect("a modeled round reports its time"),
                Clock::Host => loop_host_s,
            },
            loop_host_s,
            loop_cpu_s: clock.cpu_s(),
            factor: clock.mean_factor(),
            peak_heap_mb,
            out,
        });
    }
    if warmup && run.warmup_digest != run.rounds.first().and_then(|r| r.out.digest) {
        run.problems
            .push("replaying round 1 gave another sim_digest".to_owned());
    }
    run
}

impl Round {
    /// Output tokens per second of loop time on the workload's clock.
    pub fn tok_s(&self) -> f64 {
        self.out.output_tokens as f64 / self.loop_s
    }

    /// Calibrated process CPU time of the loop per token served.
    pub fn cpu_us_per_token(&self) -> f64 {
        self.loop_cpu_s * 1e6 / (self.out.prompt_tokens + self.out.output_tokens) as f64
    }

    fn p50(&self, pick: fn(&RequestSample) -> f64) -> f64 {
        let samples = stats::sorted(self.out.requests.iter().map(pick).collect());
        stats::percentile(&samples, 50.0)
    }

    /// Nearest-rank median of the round's requests.
    pub fn ttft_ms_p50(&self) -> f64 {
        self.p50(|q| q.ttft_ms)
    }

    pub fn tpot_ms_p50(&self) -> f64 {
        self.p50(|q| q.tpot_ms)
    }
}

/// The median of a request latency over a run, with its sample count.
///
/// Modeled rounds differ in content only: their requests are pooled and
/// the pool's nearest-rank median reported. Host rounds differ in how much
/// the machine's other tenants took from them as well, which the
/// calibrated clock sees only in part (memory contention slows the real
/// kernels by up to 40% for seconds on end and the frozen loop by 3%) and
/// which only ever adds time: the round with the best median is the one
/// least disturbed, and it repeats from run to run where the pool's median
/// does not (README.md, "Rounds and statistics").
fn latency_p50(spec: &Spec, run: &Run, pick: fn(&RequestSample) -> f64) -> (f64, usize) {
    match spec.clock {
        Clock::Modeled => {
            let pool = stats::sorted(
                run.rounds
                    .iter()
                    .flat_map(|r| r.out.requests.iter().map(pick))
                    .collect(),
            );
            (stats::percentile(&pool, 50.0), pool.len())
        }
        Clock::Host => {
            let rounds: Vec<f64> = run.rounds.iter().map(|r| r.p50(pick)).collect();
            (stats::best(&rounds, "lower"), rounds.len())
        }
    }
}

/// The six end-to-end metrics of an untraced run. `ttft_ms_p50` and
/// `tpot_ms_p50` are reduced by [`latency_p50`]; `tok_s` is the median
/// round's on the modeled clock and the best round's on the host clock, for
/// the same reason; `setup_s` and `peak_heap_mb` are medians over rounds (a
/// set-up is one short segment of its clock, bracketed exactly);
/// `slo_ok_share` counts every request of every round.
pub fn end_to_end(spec: &Spec, run: &Run) -> Vec<Reported> {
    let per_round = |f: &dyn Fn(&Round) -> f64| run.rounds.iter().map(f).collect::<Vec<f64>>();
    let met: usize = run
        .rounds
        .iter()
        .map(|r| {
            r.out
                .requests
                .iter()
                .filter(|q| q.ttft_ms < spec.ttft_limit_ms && q.tpot_ms < spec.tpot_limit_ms)
                .count()
        })
        .sum();
    let tok_s = per_round(&Round::tok_s);

    let rounds = run.rounds.len();
    let values: [(f64, usize); 6] = [
        (stats::median(&per_round(&|r| r.setup_s)), rounds),
        latency_p50(spec, run, |q| q.ttft_ms),
        latency_p50(spec, run, |q| q.tpot_ms),
        (
            match spec.clock {
                Clock::Modeled => stats::median(&tok_s),
                Clock::Host => stats::best(&tok_s, "higher"),
            },
            rounds,
        ),
        (
            met as f64 / run.attempted().max(1) as f64,
            run.attempted() as usize,
        ),
        (stats::median(&per_round(&|r| r.peak_heap_mb)), rounds),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Reported {
            name: m.name,
            unit: m.unit,
            better: m.better,
            value,
            samples,
        })
        .collect()
}

/// The per-layer metrics that come from whole rounds and not from spans
/// or probes: the two demoted tails, pooled over every request and token
/// of the run, and the loop's CPU time per token of every round.
pub fn round_layers(run: &Run, bag: &mut Bag) {
    let pooled = |pick: &dyn Fn(&Round) -> Vec<f64>| -> Vec<f64> {
        run.rounds.iter().flat_map(pick).collect()
    };
    bag.extend(
        "tail.ttft_ms_p90",
        pooled(&|r| r.out.requests.iter().map(|q| q.ttft_ms).collect()),
    );
    bag.extend("tail.itl_ms_p99", pooled(&|r| r.out.itl_ms.clone()));
    bag.extend(
        "host.cpu_us_per_token",
        run.rounds.iter().map(Round::cpu_us_per_token),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn rounds_use_the_seed_xor_their_index() {
        assert_eq!(content_seed(8, 1), 9);
        assert_eq!(content_seed(8, 10), 2);
        assert_ne!(content_seed(8, 3), content_seed(9, 3));
    }
}
