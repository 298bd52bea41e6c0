//! Continuous-batching serving on top of the incremental engine step API.
//!
//! [`Engine::run`](crate::Engine::run) replays one pre-generated trace end
//! to end — a single-user measurement. Real serving is different: requests
//! arrive over time, overlap, and each one cares about *its own* latency.
//! This module models that regime the way vLLM-style systems do, at the
//! granularity the engine exposes — one forward pass per engine step:
//!
//! * an [`ArrivalProcess`] draws seeded request arrival times
//!   (deterministic spacing or a Poisson process);
//! * each request decodes through its own incremental
//!   [`DecodeStream`](hybrimoe_trace::DecodeStream);
//! * every engine step, the **continuous batcher** re-forms the batch:
//!   waiting requests join (their prefill pass merges into the batch),
//!   finished requests leave, and at most
//!   [`ServeConfig::max_batch`] requests run concurrently;
//! * the batcher builds one [`TraceStep`](hybrimoe_trace::TraceStep) per
//!   engine step, in buffers it reuses across decode steps — prompt chunks
//!   absorbed whole, each decode token routed straight in with
//!   [`DecodeStream::next_step_into`](hybrimoe_trace::DecodeStream::next_step_into),
//!   bit for bit the merge of every request's own step — runs it through
//!   [`Engine::step`](crate::Engine::step), and the simulated clock
//!   advances by the step latency;
//! * per-request TTFT/TPOT/latency and aggregate throughput come out as a
//!   [`ServeReport`].
//!
//! One modeling consequence of merging prefills into the running batch:
//! the engine and the schedulers classify a forward pass as prefill or
//! decode by its token count (the batch-aware baseline semantics of the
//! paper's Table I), so a step that absorbs a prompt is handled with
//! prefill policies — conservative cache insertion included — for that
//! step. [`ServeSim::new`] rejects `max_batch` values large enough for a
//! *pure-decode* batch to cross the threshold.
//!
//! The admission/merge/leave core lives in [`ContinuousBatcher`], which
//! both the deterministic [`ServeSim`] and the live TCP front-end in
//! [`server`] drive — the simulator with its modeled clock, the server
//! with wall-clock stamps — so simulated and served behavior cannot
//! diverge structurally.
//!
//! # Example
//!
//! ```
//! use hybrimoe::serve::{ArrivalProcess, ServeConfig, ServeSim};
//! use hybrimoe::{EngineConfig, Framework};
//! use hybrimoe_hw::SimDuration;
//! use hybrimoe_model::ModelConfig;
//!
//! let config = ServeConfig {
//!     engine: EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5),
//!     arrivals: ArrivalProcess::deterministic(SimDuration::from_millis(5)),
//!     requests: 4,
//!     prompt_tokens: 16,
//!     decode_tokens: 8,
//!     max_batch: 2,
//!     seed: 42,
//! };
//! let report = ServeSim::new(config).run();
//! assert_eq!(report.requests.len(), 4);
//! assert!(report.summary().output_tokens_per_sec > 0.0);
//! ```

mod arrivals;
mod batcher;
mod request;
pub mod server;
mod sim;
mod summary;

pub use arrivals::{ArrivalKind, ArrivalProcess};
pub use batcher::{ContinuousBatcher, StepOutcome};
pub use request::{RequestMetrics, RequestSpec, DEFAULT_PRIORITY};
pub use sim::{ServeConfig, ServeSim, StepStat};
pub use summary::{percentile, ServeReport, ServeSummary};
