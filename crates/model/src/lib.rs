//! # hybrimoe-model
//!
//! Mixture-of-Experts model descriptions for the HybriMoE framework:
//!
//! * [`ids`] — typed identifiers for layers and experts;
//! * [`shape`] — expert tensor shapes with byte/FLOP accounting;
//! * [`config`] — full architecture presets for the three models the paper
//!   evaluates (Table II): Mixtral-8x7B, DeepSeek-V2-Lite, Qwen2-57B-A14B;
//! * [`router`] — the gating math (softmax, top-K selection, load
//!   aggregation);
//! * [`weights`] — a synthetic weight store that lazily materializes real
//!   quantized [`ExpertFfn`](hybrimoe_kernels::ExpertFfn) weights for
//!   small configurations (real-execution mode) under a memory budget.
//!
//! ## Example
//!
//! ```
//! use hybrimoe_model::ModelConfig;
//!
//! let mixtral = ModelConfig::mixtral();
//! assert_eq!(mixtral.layers, 32);
//! assert_eq!(mixtral.routed_experts, 8);
//! assert_eq!(mixtral.activated_experts, 2);
//! // ~110 MB per quantized expert:
//! assert!(mixtral.routed_shape.packed_bytes() > 80_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ids;
pub mod router;
pub mod shape;
pub mod weights;

pub use config::ModelConfig;
pub use ids::{shard_of, ExpertId, ExpertKey, LayerId};
pub use router::{route_in_place, softmax, top_k, LayerRouting, RouterOutput};
pub use shape::ExpertShape;
pub use weights::{WeightStore, WeightStoreError};
