//! # hybrimoe-cache
//!
//! The GPU expert cache of the HybriMoE system and its replacement
//! policies:
//!
//! * [`Lru`] — least-recently-used, the baseline the paper compares against
//!   in Fig. 9 (and the policy AdapMoE uses);
//! * [`Lfu`] — least-frequently-used, as used by PowerInfer/llama.cpp/
//!   kTransformers (Table I);
//! * [`Mrs`] — the paper's score-aware **Minus Recent Score** policy
//!   (§IV-D): an exponentially averaged routing-score estimate
//!   `S = α·TopP(s) + (1−α)·S`, evicting the cached expert with the lowest
//!   estimate.
//!
//! The [`ExpertCache`] container tracks which experts are resident in GPU
//! memory, never evicts the experts an insertion protects (the ones still
//! in flight), and records hit/miss/eviction statistics. On multi-GPU platforms a
//! [`ShardedExpertCache`] keeps one cache (and one policy instance) per
//! GPU shard, routed by the expert→shard affinity map, so residency and
//! score estimates stay device-local.
//!
//! Every operation here runs on the per-layer critical path of an engine
//! step, so residency and the policies' per-expert values are dense
//! arrays indexed by expert key ([`KeySet`], [`KeyMap`]) and an eviction
//! scans the resident slots in key order ([`Candidates`]) — no hashing, no
//! per-call collections. [`CachePolicy`] documents the contract a custom
//! policy has to keep.
//!
//! ## Example
//!
//! ```
//! use hybrimoe_cache::{ExpertCache, Lru};
//! use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
//!
//! let mut cache = ExpertCache::new(2, Box::new(Lru::new()));
//! let a = ExpertKey::new(LayerId(0), ExpertId(0));
//! let b = ExpertKey::new(LayerId(0), ExpertId(1));
//! let c = ExpertKey::new(LayerId(0), ExpertId(2));
//! cache.insert(a);
//! cache.insert(b);
//! assert!(cache.lookup(a));   // hit, refreshes A
//! cache.insert(c);            // evicts B (least recently used)
//! assert!(cache.contains(a));
//! assert!(!cache.contains(b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dense;
#[cfg(test)]
mod differential;
mod lfu;
mod lru;
mod mrs;
mod policy;
#[cfg(test)]
mod policy_tests;
mod sharded;
mod stats;

pub use cache::{ExpertCache, InsertOutcome};
pub use dense::{Candidates, KeyMap, KeySet};
pub use lfu::Lfu;
pub use lru::Lru;
pub use mrs::Mrs;
pub use policy::{CachePolicy, RoutingScores};
pub use sharded::ShardedExpertCache;
pub use stats::CacheStats;
