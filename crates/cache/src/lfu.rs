//! Least-frequently-used replacement.

use hybrimoe_model::ExpertKey;

use crate::{CachePolicy, Candidates, KeyMap, RoutingScores};

/// LFU with recency tie-break: evicts the resident expert with the fewest
/// recorded accesses, using the older last-access to break ties.
///
/// PowerInfer, llama.cpp and kTransformers manage their caches this way
/// (paper Table I); frequency is a poor signal for MoE because long-run
/// expert frequencies are close to uniform (Fig. 3(a)).
///
/// # Example
///
/// ```
/// use hybrimoe_cache::{CachePolicy, KeySet, Lfu};
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
///
/// let mut lfu = Lfu::new();
/// let a = ExpertKey::new(LayerId(0), ExpertId(0));
/// let b = ExpertKey::new(LayerId(0), ExpertId(1));
/// lfu.on_insert(a, 1);
/// lfu.on_insert(b, 2);
/// lfu.on_access(a, 3);
/// lfu.on_access(a, 4);
/// lfu.on_access(b, 5);
/// let resident: KeySet = [a, b].into_iter().collect();
/// assert_eq!(lfu.choose_victim(resident.candidates()), Some(b));
/// ```
#[derive(Debug, Default)]
pub struct Lfu {
    usage: KeyMap<Usage>,
}

/// What LFU remembers about one expert; all zero until first seen.
#[derive(Debug, Default, Clone, Copy)]
struct Usage {
    /// Recorded accesses, kept across evictions.
    count: u64,
    /// Logical time of the last access; reset to 0 on eviction.
    last_access: u64,
}

impl Lfu {
    /// Creates an empty LFU policy.
    pub fn new() -> Self {
        Lfu::default()
    }
}

impl CachePolicy for Lfu {
    fn name(&self) -> &str {
        "LFU"
    }

    fn on_routing(&mut self, _scores: &mut RoutingScores) {}

    fn on_access(&mut self, key: ExpertKey, now: u64) {
        let usage = self.usage.slot_mut(key);
        usage.count += 1;
        usage.last_access = now;
    }

    fn on_insert(&mut self, key: ExpertKey, now: u64) {
        self.usage.slot_mut(key).last_access = now;
    }

    fn on_evict(&mut self, key: ExpertKey) {
        // Frequency history survives eviction (classic LFU keeps global
        // counts), but recency is reset.
        self.usage.slot_mut(key).last_access = 0;
    }

    fn choose_victim(&mut self, candidates: Candidates<'_>) -> Option<ExpertKey> {
        candidates.min_by_value(|k| {
            let usage = self.usage.get(k);
            (usage.count, usage.last_access)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeySet;
    use hybrimoe_model::{ExpertId, LayerId};

    fn key(e: u16) -> ExpertKey {
        ExpertKey::new(LayerId(0), ExpertId(e))
    }

    fn victim(lfu: &mut Lfu, resident: &[ExpertKey]) -> Option<ExpertKey> {
        let resident: KeySet = resident.iter().copied().collect();
        lfu.choose_victim(resident.candidates())
    }

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new();
        for k in [key(0), key(1)] {
            lfu.on_insert(k, 0);
        }
        lfu.on_access(key(0), 1);
        lfu.on_access(key(0), 2);
        lfu.on_access(key(1), 3);
        assert_eq!(victim(&mut lfu, &[key(0), key(1)]), Some(key(1)));
    }

    #[test]
    fn frequency_ties_break_by_recency() {
        let mut lfu = Lfu::new();
        lfu.on_insert(key(0), 0);
        lfu.on_insert(key(1), 0);
        lfu.on_access(key(0), 10);
        lfu.on_access(key(1), 20);
        assert_eq!(victim(&mut lfu, &[key(0), key(1)]), Some(key(0)));
    }

    #[test]
    fn counts_survive_eviction() {
        let mut lfu = Lfu::new();
        lfu.on_insert(key(0), 0);
        lfu.on_access(key(0), 1);
        lfu.on_access(key(0), 2);
        lfu.on_evict(key(0));
        lfu.on_insert(key(0), 3);
        lfu.on_insert(key(1), 3);
        lfu.on_access(key(1), 4);
        // key(0) has 2 historical accesses vs key(1)'s 1.
        assert_eq!(victim(&mut lfu, &[key(0), key(1)]), Some(key(1)));
    }

    #[test]
    fn empty_candidates_give_none() {
        assert_eq!(victim(&mut Lfu::new(), &[]), None);
    }
}
