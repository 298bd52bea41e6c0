//! The calibrated host clock.
//!
//! This host is a few vCPUs of a shared machine, and the core under them
//! runs at two speeds: about three quarters of the time one frozen loop
//! takes 0.50 ms, the rest of the time 0.39 ms, and it changes every few
//! seconds (README.md, "Time bases", has the series). CPU time equals wall
//! time throughout, so nothing is descheduled: the machine itself is
//! faster and slower, and no statistic over raw durations removes that.
//!
//! A timed region therefore runs on a [`HostClock`]: the region's driver
//! calls [`HostClock::tick`] between units of its work, and every
//! [`SAMPLE_INTERVAL_NS`] the clock stops, times the frozen loop and goes
//! on. Two neighbouring samples bracket a *segment* of at most a few tens
//! of milliseconds, so a change of speed falls inside one short segment
//! and not inside a two-second round. Raw time inside a segment is
//! multiplied by `(NOMINAL / mean(before, after)) ^ core_share`, and a
//! raw stamp maps to a calibrated one through the running sum
//! ([`HostClock::at`]): a calibrated duration is "what this would have
//! taken with the frozen loop at its nominal speed".
//!
//! `core_share` is the share of a workload's time that slows down with the
//! core: the simulator and the TCP front-end slow down exactly as the loop
//! does (share 1), the Q4 kernels wait on memory for part of their time
//! and slow down a little less (README.md has the measurement).
//!
//! The loop is frozen: changing its work changes every calibrated number
//! the benchmark has ever reported.

use std::hint::black_box;
use std::time::Instant;

use crate::harness::process_cpu_ns;

/// What one repetition of the frozen loop takes on the host the benchmark
/// was defined on in its slower, usual state, in nanoseconds. Only a
/// scale: it sets the unit of the calibrated clock, not its steadiness.
pub const NOMINAL_NS: f64 = 0.5e6;

/// Raw time a clock lets pass before [`HostClock::tick`] samples again.
pub const SAMPLE_INTERVAL_NS: u64 = 40_000_000;

/// Two samples that bracket a segment may differ by this share of their
/// mean before the segment counts as torn (the machine changed speed
/// inside it). A torn segment is still calibrated with the mean; the count
/// is reported as `harness.torn_segments`.
pub const TORN_LIMIT: f64 = 0.10;

/// `core_share` of work that slows down exactly as the frozen loop does.
pub const CORE_BOUND: f64 = 1.0;

/// `core_share` of the real Q4 kernels: between the host's two speeds the
/// loop changes by 1.27 and a round of `real_serve` by 1.22 (its decode
/// steps by 1.22, its prompts by 1.27), and ln 1.22 / ln 1.27 is 0.85.
pub const KERNEL_CORE_SHARE: f64 = 0.85;

const SCATTER_WORDS: usize = 512 * 1024 / 4;
const SCATTER_STEPS: usize = 250_000;

/// The frozen loop: an xorshift-indexed scatter-add over 512 KiB, integer
/// work on a table that fits the second-level cache, like the simulator's.
/// Between the host's two speeds it changes by 1.266 and a round of
/// `sim_decode` by 1.269.
pub struct Calibrator {
    table: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![0; SCATTER_WORDS],
        }
    }

    fn repetition(&mut self) {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..SCATTER_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & (SCATTER_WORDS - 1)];
            *slot = slot.wrapping_add(x as u32);
        }
        black_box(&mut self.table);
    }

    /// One calibration sample in nanoseconds: the minimum of three
    /// back-to-back repetitions (the minimum drops a repetition that an
    /// interrupt landed in; machine speed moves all three alike).
    pub fn sample(&mut self) -> f64 {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                self.repetition();
                start.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The factor that turns raw host durations measured between two samples
/// into calibrated ones, for work that slows down exactly as the loop.
pub fn factor(before_ns: f64, after_ns: f64) -> f64 {
    NOMINAL_NS / ((before_ns + after_ns) / 2.0)
}

/// Whether the segment between two samples is torn.
pub fn torn(before_ns: f64, after_ns: f64) -> bool {
    let mean = (before_ns + after_ns) / 2.0;
    (before_ns - after_ns).abs() / mean > TORN_LIMIT
}

/// One stop of the clock: where on the clock it happened, what the frozen
/// loop took, and the process CPU time on either side of the sample.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at_ns: u64,
    sample_ns: f64,
    cpu_before_ns: u64,
    cpu_after_ns: u64,
}

/// The piecewise-linear map from raw clock time to calibrated time that a
/// closed clock's marks define.
#[derive(Debug, Default)]
struct Warp {
    /// Per segment: raw start, calibrated start, factor.
    segments: Vec<(u64, f64, f64)>,
    total_ns: f64,
    cpu_ns: f64,
    torn: u32,
}

impl Warp {
    fn from_marks(marks: &[Mark], core_share: f64) -> Warp {
        let mut warp = Warp::default();
        for pair in marks.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let f = factor(a.sample_ns, b.sample_ns).powf(core_share);
            warp.segments.push((a.at_ns, warp.total_ns, f));
            warp.total_ns += (b.at_ns - a.at_ns) as f64 * f;
            warp.cpu_ns += (b.cpu_before_ns - a.cpu_after_ns) as f64 * f;
            warp.torn += u32::from(torn(a.sample_ns, b.sample_ns));
        }
        warp
    }

    fn at(&self, raw_ns: u64) -> f64 {
        let i = self
            .segments
            .partition_point(|(start, _, _)| *start <= raw_ns)
            .max(1)
            - 1;
        let (start, calibrated, f) = self.segments[i];
        calibrated + raw_ns.saturating_sub(start) as f64 * f
    }
}

/// A clock for one timed region. It starts at zero with a sample, stands
/// still while it samples, and is closed with a last sample; only a closed
/// clock can calibrate.
pub struct HostClock<'a> {
    cal: &'a mut Calibrator,
    core_share: f64,
    epoch: Instant,
    paused_ns: u64,
    marks: Vec<Mark>,
    warp: Option<Warp>,
}

/// What turns an `Instant` taken on another thread into a raw stamp of the
/// clock; valid until the clock's next sample.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    start: Instant,
    paused_ns: u64,
}

impl Epoch {
    pub fn raw_ns(&self, at: Instant) -> u64 {
        (at.duration_since(self.start).as_nanos() as u64).saturating_sub(self.paused_ns)
    }
}

impl<'a> HostClock<'a> {
    pub fn start(cal: &'a mut Calibrator, core_share: f64) -> HostClock<'a> {
        let mut clock = HostClock {
            cal,
            core_share,
            epoch: Instant::now(),
            paused_ns: 0,
            marks: Vec::new(),
            warp: None,
        };
        clock.mark();
        clock
    }

    /// Raw time on the clock: host time since the start less the time
    /// spent sampling.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 - self.paused_ns
    }

    pub fn epoch(&self) -> Epoch {
        Epoch {
            start: self.epoch,
            paused_ns: self.paused_ns,
        }
    }

    fn mark(&mut self) {
        let at_ns = self.now_ns();
        let cpu_before_ns = process_cpu_ns();
        let began = Instant::now();
        let sample_ns = self.cal.sample();
        let cpu_after_ns = process_cpu_ns();
        self.paused_ns += began.elapsed().as_nanos() as u64;
        self.marks.push(Mark {
            at_ns,
            sample_ns,
            cpu_before_ns,
            cpu_after_ns,
        });
    }

    /// Samples if the interval has passed since the last sample. Call it
    /// where nothing timed is in flight.
    pub fn tick(&mut self) {
        let last = self.marks.last().expect("start marked").at_ns;
        if self.now_ns() - last >= SAMPLE_INTERVAL_NS {
            self.mark();
        }
    }

    /// The last sample; the clock calibrates from here on.
    pub fn close(&mut self) {
        if self.warp.is_none() {
            self.mark();
            self.warp = Some(Warp::from_marks(&self.marks, self.core_share));
        }
    }

    fn warp(&self) -> &Warp {
        self.warp.as_ref().expect("the region closed its clock")
    }

    /// The calibrated time of a raw stamp, nanoseconds.
    pub fn at(&self, raw_ns: u64) -> f64 {
        self.warp().at(raw_ns)
    }

    /// Calibrated length of the region, seconds.
    pub fn total_s(&self) -> f64 {
        self.warp().total_ns / 1e9
    }

    /// Calibrated process CPU time of the region, samples excluded,
    /// seconds.
    pub fn cpu_s(&self) -> f64 {
        self.warp().cpu_ns / 1e9
    }

    /// Calibrated over raw length: the factor for durations that were not
    /// stamped on this clock (spans, per-layer samples).
    pub fn mean_factor(&self) -> f64 {
        let raw = self.marks.last().expect("start marked").at_ns;
        self.warp().total_ns / (raw.max(1) as f64)
    }

    pub fn torn_segments(&self) -> u32 {
        self.warp().torn
    }

    /// Every sample the clock took, milliseconds.
    pub fn samples_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.marks.iter().map(|m| m.sample_ns / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(at_ms: u64, sample_ns: f64, cpu_before_ms: u64, cpu_after_ms: u64) -> Mark {
        Mark {
            at_ns: at_ms * 1_000_000,
            sample_ns,
            cpu_before_ns: cpu_before_ms * 1_000_000,
            cpu_after_ns: cpu_after_ms * 1_000_000,
        }
    }

    #[test]
    fn factor_is_nominal_over_the_mean_of_the_bracket() {
        assert_eq!(factor(NOMINAL_NS, NOMINAL_NS), 1.0);
        // A machine running the loop in 0.4 and 0.6 ms averages nominal.
        assert_eq!(factor(0.4e6, 0.6e6), 1.0);
        // A machine twice as slow halves every duration it reports.
        assert_eq!(factor(1e6, 1e6), 0.5);
    }

    #[test]
    fn torn_rule_is_ten_percent_of_the_mean() {
        assert!(!torn(20e6, 20e6));
        assert!(!torn(19e6, 21e6)); // exactly 10% of 20
        assert!(torn(18.9e6, 21.1e6));
        assert!(torn(21.1e6, 18.9e6));
    }

    #[test]
    fn a_sample_is_positive_and_repeats_roughly() {
        let mut cal = Calibrator::new();
        let a = cal.sample();
        let b = cal.sample();
        assert!(a > 0.0 && b > 0.0);
        assert!((a - b).abs() / a < 0.5, "samples {a} and {b}");
    }

    #[test]
    fn each_segment_is_scaled_by_its_own_bracket() {
        // 100 ms at nominal speed, then 100 ms on a machine twice as slow;
        // the samples in between took 3 ms of CPU each.
        let marks = [
            mark(0, NOMINAL_NS, 0, 3),
            mark(100, NOMINAL_NS, 103, 106),
            mark(200, 3.0 * NOMINAL_NS, 206, 209),
        ];
        let warp = Warp::from_marks(&marks, CORE_BOUND);
        // The second segment's bracket averages 2 x nominal.
        assert_eq!(warp.total_ns, 100e6 + 50e6);
        assert_eq!(warp.cpu_ns, 100e6 + 50e6);
        assert_eq!(warp.torn, 1);
        assert_eq!(warp.at(0), 0.0);
        assert_eq!(warp.at(50_000_000), 50e6);
        assert_eq!(warp.at(100_000_000), 100e6);
        assert_eq!(warp.at(150_000_000), 125e6);
        assert_eq!(warp.at(200_000_000), 150e6);
    }

    #[test]
    fn core_share_is_the_exponent_of_the_factor() {
        let marks = [
            mark(0, 4.0 * NOMINAL_NS, 0, 0),
            mark(100, 4.0 * NOMINAL_NS, 100, 100),
        ];
        assert_eq!(Warp::from_marks(&marks, 1.0).total_ns, 25e6);
        assert_eq!(Warp::from_marks(&marks, 0.5).total_ns, 50e6);
        assert_eq!(Warp::from_marks(&marks, 0.0).total_ns, 100e6);
    }

    #[test]
    fn a_clock_stands_still_while_it_samples() {
        let mut cal = Calibrator::new();
        let began = Instant::now();
        let mut clock = HostClock::start(&mut cal, CORE_BOUND);
        clock.close();
        // Two samples were taken and none of their time is on the clock.
        let outside = began.elapsed().as_nanos() as f64;
        assert_eq!(clock.samples_ms().count(), 2);
        assert!(clock.total_s() * 1e9 < outside / 2.0);
        assert!(clock.at(0) == 0.0);
    }
}
