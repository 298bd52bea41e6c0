//! Typed identifiers for layers and experts.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A transformer layer index, from `0` to `ModelConfig::layers - 1`.
///
/// # Example
///
/// ```
/// use hybrimoe_model::LayerId;
///
/// let l = LayerId(3);
/// assert_eq!(l.next(), LayerId(4));
/// assert_eq!(l.to_string(), "L3");
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct LayerId(pub u16);

impl LayerId {
    /// The following layer.
    pub const fn next(self) -> LayerId {
        LayerId(self.0 + 1)
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A routed-expert index within one layer, from `0` to
/// `ModelConfig::routed_experts - 1`.
///
/// # Example
///
/// ```
/// use hybrimoe_model::ExpertId;
///
/// assert_eq!(ExpertId(17).to_string(), "E17");
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ExpertId(pub u16);

impl fmt::Display for ExpertId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// The globally unique identity of a routed expert: `(layer, expert)`.
///
/// This is the unit that the GPU cache tracks and that PCIe transfers move.
///
/// # Example
///
/// ```
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
///
/// let k = ExpertKey::new(LayerId(2), ExpertId(5));
/// assert_eq!(k.to_string(), "L2/E5");
/// assert!(k < ExpertKey::new(LayerId(3), ExpertId(0)));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ExpertKey {
    /// The layer the expert belongs to.
    pub layer: LayerId,
    /// The expert index within the layer.
    pub expert: ExpertId,
}

impl ExpertKey {
    /// Creates a key from its parts.
    pub const fn new(layer: LayerId, expert: ExpertId) -> Self {
        ExpertKey { layer, expert }
    }

    /// A dense index given the number of routed experts per layer (or any
    /// row width above every expert id in use), suitable for flat arrays
    /// over all experts of a model. Ascending index order is ascending key
    /// order.
    pub fn dense_index(self, experts_per_layer: usize) -> usize {
        self.layer.0 as usize * experts_per_layer + self.expert.0 as usize
    }
}

impl fmt::Display for ExpertKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.layer, self.expert)
    }
}

/// The expert→shard affinity map of a multi-GPU deployment: expert `e` may
/// only be cached on (and transferred to) GPU shard `e mod num_shards`.
///
/// A static affinity keeps every shard's cache and score estimates
/// device-local — an expert never has copies on two GPUs, so residency,
/// eviction and MRS scoring all stay per-shard decisions. Round-robin by
/// expert id spreads each layer's experts evenly across shards. With one
/// shard everything maps to shard 0 (the paper's single-GPU setup).
///
/// # Example
///
/// ```
/// use hybrimoe_model::{shard_of, ExpertId};
///
/// assert_eq!(shard_of(ExpertId(5), 1), 0);
/// assert_eq!(shard_of(ExpertId(5), 4), 1);
/// assert_eq!(shard_of(ExpertId(6), 4), 2);
/// ```
pub fn shard_of(expert: ExpertId, num_shards: usize) -> usize {
    debug_assert!(num_shards > 0, "a deployment needs at least one shard");
    expert.0 as usize % num_shards.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_ordering_and_next() {
        assert!(LayerId(1) < LayerId(2));
        assert_eq!(LayerId(0).next(), LayerId(1));
    }

    #[test]
    fn key_ordering_is_layer_major() {
        let a = ExpertKey::new(LayerId(1), ExpertId(63));
        let b = ExpertKey::new(LayerId(2), ExpertId(0));
        assert!(a < b);
    }

    #[test]
    fn dense_index_is_bijective() {
        let per_layer = 8u16;
        let mut seen = std::collections::HashSet::new();
        for l in 0..4u16 {
            for e in 0..per_layer {
                let k = ExpertKey::new(LayerId(l), ExpertId(e));
                assert!(seen.insert(k.dense_index(per_layer as usize)));
            }
        }
        assert_eq!(seen.len(), 32);
        assert_eq!(*seen.iter().max().unwrap(), 31);
    }

    #[test]
    fn shard_affinity_is_round_robin_and_total() {
        for shards in 1..=4usize {
            let mut counts = vec![0usize; shards];
            for e in 0..64u16 {
                let s = shard_of(ExpertId(e), shards);
                assert!(s < shards);
                counts[s] += 1;
            }
            // 64 experts split evenly across 1, 2 or 4 shards.
            assert!(counts.iter().all(|c| *c == 64 / shards || shards == 3));
        }
        assert_eq!(shard_of(ExpertId(9), 1), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(LayerId(7).to_string(), "L7");
        assert_eq!(ExpertId(9).to_string(), "E9");
        assert_eq!(ExpertKey::new(LayerId(7), ExpertId(9)).to_string(), "L7/E9");
    }
}
