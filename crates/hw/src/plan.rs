//! Dependency-aware plan execution.
//!
//! A scheduler produces an ordered list of operations per device (compute on
//! CPU/GPU, transfers on PCIe) with cross-device dependencies — most
//! importantly "a GPU compute of an uncached expert depends on its PCIe
//! transfer". The [`PlanExecutor`] replays such a plan on the device
//! timelines and yields the realized start/end time of every op plus the
//! overall makespan. This is the "ground truth" executor; the scheduler's
//! own internal simulation (in `hybrimoe-sched`) must agree with it.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{device_count, devices, Device, SimDuration, SimTime, Timeline, TimelineSet};

/// Identifier of an operation within one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// One operation of a schedule plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// Unique id within the plan.
    pub id: OpId,
    /// Device the op occupies.
    pub device: Device,
    /// How long the op takes.
    pub duration: SimDuration,
    /// Ops that must finish before this op may start (any device).
    pub deps: Vec<OpId>,
    /// Human-readable label for Gantt output.
    pub label: String,
}

impl Op {
    /// Convenience constructor for an op without dependencies.
    pub fn new(id: u32, device: Device, duration: SimDuration, label: impl Into<String>) -> Self {
        Op {
            id: OpId(id),
            device,
            duration,
            deps: Vec::new(),
            label: label.into(),
        }
    }

    /// Adds a dependency and returns the op (builder style).
    pub fn after(mut self, dep: OpId) -> Self {
        self.deps.push(dep);
        self
    }
}

/// A realized operation with its committed times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutedOp {
    /// The op id.
    pub id: OpId,
    /// Device it ran on.
    pub device: Device,
    /// Committed start time.
    pub start: SimTime,
    /// Committed end time.
    pub end: SimTime,
    /// Label copied from the plan.
    pub label: String,
}

/// The result of executing a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutedPlan {
    /// Realized ops in commit order.
    pub ops: Vec<ExecutedOp>,
    /// The three device timelines after execution.
    pub timelines: TimelineSet,
    /// Time at which the last op finishes.
    pub makespan: SimDuration,
}

impl ExecutedPlan {
    /// The realized end time of op `id`, if it was executed.
    pub fn end_of(&self, id: OpId) -> Option<SimTime> {
        self.ops.iter().find(|o| o.id == id).map(|o| o.end)
    }

    /// The realized start time of op `id`, if it was executed.
    pub fn start_of(&self, id: OpId) -> Option<SimTime> {
        self.ops.iter().find(|o| o.id == id).map(|o| o.start)
    }
}

/// Errors from [`PlanExecutor::execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Two ops share the same [`OpId`].
    DuplicateOpId(OpId),
    /// An op depends on an id that is not part of the plan.
    UnknownDependency {
        /// The op with the bad dependency.
        op: OpId,
        /// The missing dependency id.
        missing: OpId,
    },
    /// The per-device op orders and the dependencies cannot all be
    /// satisfied (a cycle, e.g. op A on CPU before B, but A depends on B's
    /// GPU successor which depends on B).
    DependencyCycle,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::DuplicateOpId(id) => write!(f, "duplicate op id {id}"),
            PlanError::UnknownDependency { op, missing } => {
                write!(f, "{op} depends on unknown {missing}")
            }
            PlanError::DependencyCycle => write!(f, "dependency cycle in plan"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Replays ordered per-device op lists on fresh timelines.
///
/// Ops run on each device **in the order given**; an op additionally waits
/// for all of its dependencies. Among devices whose next op is ready, the op
/// with the earliest feasible start time is committed first (ties broken by
/// canonical device order: CPU, then GPUs, then PCIe lanes), which makes
/// the executor deterministic.
///
/// The executor sizes its timelines for one GPU by default and grows to
/// cover any higher GPU index appearing in the ops; [`PlanExecutor::with_gpus`]
/// forces a fixed device count so the resulting [`TimelineSet`] shape does
/// not depend on which devices a particular plan happens to use.
///
/// # Example
///
/// ```
/// use hybrimoe_hw::{Device, Op, OpId, PlanExecutor, SimDuration};
///
/// // Transfer expert C (3us on PCIe), then compute it on the GPU (1us).
/// let xfer = Op::new(0, Device::pcie(0), SimDuration::from_micros(3), "load C");
/// let comp = Op::new(1, Device::gpu(0), SimDuration::from_micros(1), "C").after(OpId(0));
/// let executed = PlanExecutor::new().execute(vec![xfer, comp])?;
/// assert_eq!(executed.makespan, SimDuration::from_micros(4));
/// # Ok::<(), hybrimoe_hw::PlanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PlanExecutor {
    num_gpus: usize,
}

impl Default for PlanExecutor {
    fn default() -> Self {
        PlanExecutor::new()
    }
}

impl PlanExecutor {
    /// Creates an executor whose timelines start at the clock origin.
    pub fn new() -> Self {
        PlanExecutor { num_gpus: 1 }
    }

    /// Forces the executor to model at least `num_gpus` GPUs (and their
    /// PCIe lanes), so the executed timeline shape is stable across plans.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn with_gpus(mut self, num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "a platform needs at least one GPU");
        self.num_gpus = num_gpus;
        self
    }

    /// Executes `ops` and returns the realized timeline.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if op ids are duplicated, a dependency names an
    /// unknown op, or the dependencies combined with per-device ordering form
    /// a cycle.
    pub fn execute(&self, ops: Vec<Op>) -> Result<ExecutedPlan, PlanError> {
        let mut known: HashMap<OpId, ()> = HashMap::with_capacity(ops.len());
        for op in &ops {
            if known.insert(op.id, ()).is_some() {
                return Err(PlanError::DuplicateOpId(op.id));
            }
        }
        for op in &ops {
            for dep in &op.deps {
                if !known.contains_key(dep) {
                    return Err(PlanError::UnknownDependency {
                        op: op.id,
                        missing: *dep,
                    });
                }
            }
        }

        // Grow to cover every GPU index the ops reference.
        let num_gpus = ops
            .iter()
            .filter_map(|op| op.device.gpu_id())
            .map(|g| g.0 as usize + 1)
            .fold(self.num_gpus, usize::max);
        let order: Vec<Device> = devices(num_gpus).collect();

        // Per-device FIFO queues preserving the given order.
        let mut queues: Vec<Vec<&Op>> = vec![Vec::new(); device_count(num_gpus)];
        for op in &ops {
            queues[op.device.ordinal(num_gpus)].push(op);
        }
        // Reverse so pop() takes from the front.
        for q in &mut queues {
            q.reverse();
        }

        let mut timelines = TimelineSet::with_gpus(num_gpus);
        let mut finished: HashMap<OpId, SimTime> = HashMap::with_capacity(ops.len());
        let mut executed = Vec::with_capacity(ops.len());
        let total = ops.len();

        while executed.len() < total {
            // Among device heads whose deps are all finished, pick the one
            // with the earliest feasible start (ties: canonical device
            // order).
            let mut best: Option<(SimTime, usize)> = None;
            for (di, q) in queues.iter().enumerate() {
                let Some(head) = q.last() else { continue };
                let Some(release) = deps_ready(head, &finished) else {
                    continue;
                };
                let tl: &Timeline = timelines.get(order[di]);
                let (start, _) = tl.peek(release, head.duration);
                if best.is_none_or(|(bs, _)| start < bs) {
                    best = Some((start, di));
                }
            }
            let Some((_, di)) = best else {
                return Err(PlanError::DependencyCycle);
            };
            let op = queues[di].pop().expect("head existed");
            let release = deps_ready(op, &finished).expect("checked ready");
            let (start, end) =
                timelines
                    .get_mut(op.device)
                    .push(release, op.duration, op.label.clone());
            finished.insert(op.id, end);
            executed.push(ExecutedOp {
                id: op.id,
                device: op.device,
                start,
                end,
                label: op.label.clone(),
            });
        }

        let makespan = timelines.makespan();
        Ok(ExecutedPlan {
            ops: executed,
            timelines,
            makespan,
        })
    }
}

/// If all deps of `op` are finished, the earliest release time; else `None`.
fn deps_ready(op: &Op, finished: &HashMap<OpId, SimTime>) -> Option<SimTime> {
    let mut release = SimTime::ZERO;
    for dep in &op.deps {
        match finished.get(dep) {
            Some(&end) => release = release.max(end),
            None => return None,
        }
    }
    Some(release)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn sequential_same_device() {
        let ops = vec![
            Op::new(0, Device::Cpu, us(2), "a"),
            Op::new(1, Device::Cpu, us(3), "b"),
        ];
        let ex = PlanExecutor::new().execute(ops).unwrap();
        assert_eq!(ex.makespan, us(5));
        assert_eq!(ex.start_of(OpId(1)).unwrap(), SimTime::ZERO + us(2));
    }

    #[test]
    fn parallel_devices_overlap() {
        let ops = vec![
            Op::new(0, Device::Cpu, us(4), "cpu"),
            Op::new(1, Device::gpu(0), us(3), "gpu"),
            Op::new(2, Device::pcie(0), us(2), "xfer"),
        ];
        let ex = PlanExecutor::new().execute(ops).unwrap();
        assert_eq!(ex.makespan, us(4));
        for op in &ex.ops {
            assert_eq!(op.start, SimTime::ZERO);
        }
    }

    #[test]
    fn transfer_gates_gpu_compute() {
        let ops = vec![
            Op::new(0, Device::pcie(0), us(3), "load C"),
            Op::new(1, Device::gpu(0), us(1), "D"),
            Op::new(2, Device::gpu(0), us(1), "C").after(OpId(0)),
        ];
        let ex = PlanExecutor::new().execute(ops).unwrap();
        // GPU runs D first (1us), then must wait for the transfer to finish
        // at t=3 before computing C.
        assert_eq!(ex.start_of(OpId(2)).unwrap(), SimTime::from_nanos(3_000));
        assert_eq!(ex.makespan, us(4));
    }

    #[test]
    fn fig5_like_plan_makespan() {
        // Paper Fig. 5: CPU queue A:1,B:1,C:3 (uncached), GPU cached D:4,E:1,
        // transfer=3. Chosen plan: CPU computes A,B then E; GPU computes D
        // then C (after transfer); PCIe loads C.
        let ops = vec![
            Op::new(0, Device::Cpu, us(1), "A"),
            Op::new(1, Device::Cpu, us(1), "B"),
            Op::new(2, Device::Cpu, us(1), "E"),
            Op::new(3, Device::gpu(0), us(1), "D"),
            Op::new(4, Device::pcie(0), us(3), "load C"),
            Op::new(5, Device::gpu(0), us(1), "C").after(OpId(4)),
        ];
        let ex = PlanExecutor::new().execute(ops).unwrap();
        assert_eq!(ex.makespan, us(4));
    }

    #[test]
    fn duplicate_id_rejected() {
        let ops = vec![
            Op::new(7, Device::Cpu, us(1), "a"),
            Op::new(7, Device::gpu(0), us(1), "b"),
        ];
        assert_eq!(
            PlanExecutor::new().execute(ops),
            Err(PlanError::DuplicateOpId(OpId(7)))
        );
    }

    #[test]
    fn unknown_dependency_rejected() {
        let ops = vec![Op::new(0, Device::Cpu, us(1), "a").after(OpId(99))];
        assert!(matches!(
            PlanExecutor::new().execute(ops),
            Err(PlanError::UnknownDependency { .. })
        ));
    }

    #[test]
    fn cycle_detected() {
        // Two CPU ops in order a, b — but a depends on b.
        let ops = vec![
            Op::new(0, Device::Cpu, us(1), "a").after(OpId(1)),
            Op::new(1, Device::Cpu, us(1), "b"),
        ];
        assert_eq!(
            PlanExecutor::new().execute(ops),
            Err(PlanError::DependencyCycle)
        );
    }

    #[test]
    fn error_display_is_nonempty() {
        let e = PlanError::DuplicateOpId(OpId(3));
        assert!(!e.to_string().is_empty());
        let e = PlanError::DependencyCycle;
        assert!(!e.to_string().is_empty());
    }
}
