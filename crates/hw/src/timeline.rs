//! Per-device busy timelines.
//!
//! A [`Timeline`] records the ordered, non-overlapping busy intervals of one
//! [`Device`]; a [`TimelineSet`] bundles every device timeline of the
//! hybrid platform (one CPU, `N` GPUs, `N` PCIe lanes) and answers
//! makespan and busy-time queries over them.

use serde::{Deserialize, Serialize};

use crate::{device_count, devices, Device, SimDuration, SimTime};

/// One busy interval on a device timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interval {
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval (exclusive).
    pub end: SimTime,
    /// Human-readable label, e.g. `"L3/E17 compute"`.
    pub label: String,
}

impl Interval {
    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The ordered busy intervals of one device.
///
/// Operations are appended with [`Timeline::push`], which starts each op at
/// the later of the device's ready time and the op's own release time —
/// exactly the "fill the earliest-available timeline" primitive used by the
/// paper's scheduling simulation (§IV-B).
///
/// # Example
///
/// ```
/// use hybrimoe_hw::{Device, SimDuration, SimTime, Timeline};
///
/// let mut tl = Timeline::new(Device::gpu(0));
/// let (s1, e1) = tl.push(SimTime::ZERO, SimDuration::from_micros(10), "op1");
/// // Released early but the device is busy until e1:
/// let (s2, _) = tl.push(SimTime::ZERO, SimDuration::from_micros(5), "op2");
/// assert_eq!(s1, SimTime::ZERO);
/// assert_eq!(s2, e1);
/// assert_eq!(tl.busy_time(), SimDuration::from_micros(15));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    device: Device,
    intervals: Vec<Interval>,
    cursor: SimTime,
}

impl Timeline {
    /// Creates an empty timeline for `device`, ready at the clock origin.
    pub fn new(device: Device) -> Self {
        Timeline {
            device,
            intervals: Vec::new(),
            cursor: SimTime::ZERO,
        }
    }

    /// The device this timeline belongs to.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The time at which the device becomes idle.
    pub fn ready_at(&self) -> SimTime {
        self.cursor
    }

    /// When an op released at `release` and lasting `duration` would run,
    /// without committing it.
    pub fn peek(&self, release: SimTime, duration: SimDuration) -> (SimTime, SimTime) {
        let start = self.cursor.max(release);
        (start, start + duration)
    }

    /// Appends an op released at `release` with the given `duration`;
    /// returns its `(start, end)` times.
    ///
    /// Zero-length ops are recorded too (they serve as markers in Gantt
    /// output) but do not advance the cursor.
    pub fn push(
        &mut self,
        release: SimTime,
        duration: SimDuration,
        label: impl Into<String>,
    ) -> (SimTime, SimTime) {
        let (start, end) = self.peek(release, duration);
        self.intervals.push(Interval {
            start,
            end,
            label: label.into(),
        });
        self.cursor = end;
        (start, end)
    }

    /// The recorded busy intervals, in execution order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Total busy time across all intervals.
    pub fn busy_time(&self) -> SimDuration {
        self.intervals.iter().map(Interval::duration).sum()
    }

    /// Checks the internal invariant: intervals are ordered and
    /// non-overlapping.
    pub fn is_well_formed(&self) -> bool {
        self.intervals.windows(2).all(|w| w[0].end <= w[1].start)
    }
}

/// The device timelines of a hybrid platform with `N` GPUs, in canonical
/// order (`CPU, GPU0.., PCIE0..`).
///
/// # Example
///
/// ```
/// use hybrimoe_hw::{Device, SimDuration, SimTime, TimelineSet};
///
/// let mut set = TimelineSet::with_gpus(2);
/// set.get_mut(Device::Cpu)
///     .push(SimTime::ZERO, SimDuration::from_micros(4), "expert A");
/// set.get_mut(Device::gpu(1))
///     .push(SimTime::ZERO, SimDuration::from_micros(9), "expert D");
/// assert_eq!(set.makespan(), SimDuration::from_micros(9));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSet {
    num_gpus: usize,
    timelines: Vec<Timeline>,
}

impl TimelineSet {
    /// Creates the timelines of a single-GPU platform (the paper's setup),
    /// starting at the clock origin.
    pub fn new() -> Self {
        TimelineSet::with_gpus(1)
    }

    /// Creates the timelines of a platform with `num_gpus` GPUs, starting
    /// at the clock origin.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn with_gpus(num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "a platform needs at least one GPU");
        TimelineSet {
            num_gpus,
            timelines: devices(num_gpus).map(Timeline::new).collect(),
        }
    }

    /// The number of GPUs this set models.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// The timeline of `device`.
    ///
    /// # Panics
    ///
    /// Panics if the device's GPU index is out of range.
    pub fn get(&self, device: Device) -> &Timeline {
        &self.timelines[device.ordinal(self.num_gpus)]
    }

    /// The mutable timeline of `device`.
    ///
    /// # Panics
    ///
    /// Panics if the device's GPU index is out of range.
    pub fn get_mut(&mut self, device: Device) -> &mut Timeline {
        &mut self.timelines[device.ordinal(self.num_gpus)]
    }

    /// Iterates over the timelines in canonical device order.
    pub fn iter(&self) -> impl Iterator<Item = &Timeline> {
        self.timelines.iter()
    }

    /// The time at which every device is idle.
    pub fn finish_time(&self) -> SimTime {
        self.timelines
            .iter()
            .map(Timeline::ready_at)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// The makespan measured from the clock origin: the maximum finish time
    /// over **all** device timelines.
    pub fn makespan(&self) -> SimDuration {
        self.finish_time().elapsed_since(SimTime::ZERO)
    }

    /// The finish time considering only compute devices (CPU and GPUs).
    ///
    /// The paper's objective (Eq. 2) excludes in-flight transfers whose
    /// results are not consumed; this accessor supports that metric.
    pub fn compute_finish_time(&self) -> SimTime {
        self.timelines
            .iter()
            .filter(|tl| tl.device().is_compute())
            .map(Timeline::ready_at)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Per-device busy times in canonical device order (the layout of
    /// step-metric busy vectors).
    pub fn busy_times(&self) -> Vec<SimDuration> {
        self.timelines.iter().map(Timeline::busy_time).collect()
    }
}

impl Default for TimelineSet {
    fn default() -> Self {
        TimelineSet::new()
    }
}

/// The ready time and accumulated busy time of every device — a
/// [`TimelineSet`] without the interval log.
///
/// Ops start exactly as on a [`Timeline`] (at the later of the device's
/// ready time and the op's release), so running a plan's ops here gives the
/// makespan and busy times a [`TimelineSet`] would report, but nothing is
/// recorded per op and a reused `DeviceClocks` never allocates. This is
/// what the simulation backend runs every layer on; the interval log (and
/// its labels) is only worth its cost where a Gantt chart is drawn.
///
/// # Example
///
/// ```
/// use hybrimoe_hw::{Device, DeviceClocks, SimDuration, SimTime};
///
/// let mut clocks = DeviceClocks::default();
/// clocks.reset(1);
/// let arrived = clocks.run(Device::pcie(0), SimTime::ZERO, SimDuration::from_micros(3));
/// clocks.run(Device::gpu(0), SimTime::ZERO, SimDuration::from_micros(1));
/// clocks.run(Device::gpu(0), arrived, SimDuration::from_micros(1));
/// assert_eq!(clocks.makespan(), SimDuration::from_micros(4));
/// assert_eq!(clocks.busy_times()[1], SimDuration::from_micros(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeviceClocks {
    num_gpus: usize,
    ready: Vec<SimTime>,
    busy: Vec<SimDuration>,
}

impl DeviceClocks {
    /// Sets every device of a platform with `num_gpus` GPUs idle at the
    /// clock origin with no busy time (keeping the buffers).
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn reset(&mut self, num_gpus: usize) {
        assert!(num_gpus > 0, "a platform needs at least one GPU");
        self.num_gpus = num_gpus;
        self.ready.clear();
        self.ready.resize(device_count(num_gpus), SimTime::ZERO);
        self.busy.clear();
        self.busy.resize(device_count(num_gpus), SimDuration::ZERO);
    }

    /// Runs an op released at `release` for `duration` on `device`;
    /// returns its end time.
    ///
    /// # Panics
    ///
    /// Panics if the device's GPU index is out of range.
    pub fn run(&mut self, device: Device, release: SimTime, duration: SimDuration) -> SimTime {
        let d = device.ordinal(self.num_gpus);
        let end = self.ready[d].max(release) + duration;
        self.ready[d] = end;
        self.busy[d] += duration;
        end
    }

    /// The time at which every device is idle, measured from the clock
    /// origin.
    pub fn makespan(&self) -> SimDuration {
        self.ready
            .iter()
            .fold(SimTime::ZERO, |acc, t| acc.max(*t))
            .elapsed_since(SimTime::ZERO)
    }

    /// Per-device busy times in canonical device order (the layout of
    /// step-metric busy vectors).
    pub fn busy_times(&self) -> &[SimDuration] {
        &self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_respects_release_time() {
        let mut tl = Timeline::new(Device::pcie(0));
        let release = SimTime::from_nanos(100);
        let (start, end) = tl.push(release, SimDuration::from_nanos(50), "xfer");
        assert_eq!(start, release);
        assert_eq!(end, SimTime::from_nanos(150));
    }

    #[test]
    fn push_respects_device_busy() {
        let mut tl = Timeline::new(Device::Cpu);
        tl.push(SimTime::ZERO, SimDuration::from_nanos(100), "a");
        let (start, _) = tl.push(SimTime::ZERO, SimDuration::from_nanos(10), "b");
        assert_eq!(start, SimTime::from_nanos(100));
        assert!(tl.is_well_formed());
    }

    #[test]
    fn peek_does_not_commit() {
        let tl = Timeline::new(Device::gpu(0));
        let before = tl.clone();
        let _ = tl.peek(SimTime::ZERO, SimDuration::from_nanos(42));
        assert_eq!(tl, before);
    }

    #[test]
    fn zero_length_op_does_not_advance() {
        let mut tl = Timeline::new(Device::gpu(0));
        tl.push(SimTime::ZERO, SimDuration::ZERO, "marker");
        assert_eq!(tl.ready_at(), SimTime::ZERO);
        assert_eq!(tl.intervals().len(), 1);
    }

    #[test]
    fn busy_time_excludes_idle_gaps() {
        let mut tl = Timeline::new(Device::Cpu);
        tl.push(SimTime::ZERO, SimDuration::from_nanos(30), "a");
        tl.push(SimTime::from_nanos(70), SimDuration::from_nanos(30), "b");
        assert_eq!(tl.busy_time(), SimDuration::from_nanos(60));
        assert_eq!(tl.ready_at(), SimTime::from_nanos(100));
    }

    #[test]
    fn timeline_set_makespan() {
        let mut set = TimelineSet::new();
        set.get_mut(Device::Cpu)
            .push(SimTime::ZERO, SimDuration::from_nanos(5), "c");
        set.get_mut(Device::gpu(0))
            .push(SimTime::ZERO, SimDuration::from_nanos(9), "g");
        set.get_mut(Device::pcie(0))
            .push(SimTime::ZERO, SimDuration::from_nanos(7), "p");
        assert_eq!(set.makespan(), SimDuration::from_nanos(9));
        assert_eq!(set.compute_finish_time(), SimTime::from_nanos(9));
    }

    #[test]
    fn multi_gpu_set_has_a_lane_per_gpu() {
        let mut set = TimelineSet::with_gpus(3);
        assert_eq!(set.num_gpus(), 3);
        assert_eq!(set.iter().count(), device_count(3));
        for g in 0..3 {
            set.get_mut(Device::gpu(g)).push(
                SimTime::ZERO,
                SimDuration::from_nanos(g as u64 + 1),
                "c",
            );
            set.get_mut(Device::pcie(g))
                .push(SimTime::ZERO, SimDuration::from_nanos(10), "x");
        }
        // Makespan is the max over all device timelines (PCIe included).
        assert_eq!(set.makespan(), SimDuration::from_nanos(10));
        // Compute finish excludes the PCIe tails.
        assert_eq!(set.compute_finish_time(), SimTime::from_nanos(3));
        assert_eq!(set.busy_times().len(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_gpu_rejected() {
        let set = TimelineSet::with_gpus(2);
        let _ = set.get(Device::gpu(2));
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        let _ = TimelineSet::with_gpus(0);
    }
}
