//! # hybrimoe-hw
//!
//! Discrete-event hardware model for hybrid CPU-GPU Mixture-of-Experts
//! inference, the substrate on which the HybriMoE scheduler, prefetcher and
//! cache policies are evaluated.
//!
//! The model has three kinds of resource, mirroring the platform of the
//! paper (an NVIDIA A6000 GPU, a 10-core Xeon CPU and the PCIe link
//! between them) and generalizing it to `N` identical GPUs:
//!
//! * [`Device::Cpu`] — computes experts out of host memory; time grows
//!   linearly with the token workload and the first expert of a burst pays a
//!   cold-start penalty (paper Fig. 3(e)).
//! * [`Device::Gpu`] — one of `N` GPUs, each computing experts resident in
//!   its cache shard; time is nearly flat in the token workload (paper
//!   Fig. 3(f)).
//! * [`Device::Pcie`] — the PCIe lane feeding one GPU, moving expert
//!   weights from host to that GPU's memory at a fixed per-expert cost
//!   (paper §III, Opportunity 2).
//!
//! Everything is deterministic: times are integer nanoseconds
//! ([`SimDuration`]), so identical inputs produce bit-identical schedules.
//!
//! ## Example
//!
//! ```
//! use hybrimoe_hw::{AffineCostModel, CostModel, ExpertProfile, Platform};
//!
//! let platform = Platform::a6000_xeon10();
//! let model = AffineCostModel::from_platform(&platform);
//! let expert = ExpertProfile::new(90_000_000, 350_000_000); // ~Mixtral expert
//! // A single decode token is cheaper to compute on the CPU than to move:
//! let cpu = model.cpu_compute(&expert, 1, true);
//! let load = model.transfer(&expert);
//! assert!(cpu < load);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibration;
mod cost;
mod device;
mod gantt;
mod plan;
mod platform;
mod time;
mod timeline;

pub use calibration::CalibrationProfile;
pub use cost::{AffineCostModel, CostModel, ExpertProfile, UnitCostModel};
pub use device::{device_count, devices, Device, GpuId};
pub use gantt::{Gantt, GanttRow};
pub use plan::{ExecutedOp, ExecutedPlan, Op, OpId, PlanError, PlanExecutor};
pub use platform::Platform;
pub use time::{SimDuration, SimTime};
pub use timeline::{DeviceClocks, Interval, Timeline, TimelineSet};
