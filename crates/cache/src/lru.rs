//! Least-recently-used replacement.

use hybrimoe_model::ExpertKey;

use crate::{CachePolicy, Candidates, KeyMap, RoutingScores};

/// Classic LRU: evicts the resident expert whose last access is oldest.
///
/// This is the baseline of the paper's Fig. 9 comparison and the policy
/// AdapMoE uses (Table I).
///
/// # Example
///
/// ```
/// use hybrimoe_cache::{CachePolicy, KeySet, Lru};
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
///
/// let mut lru = Lru::new();
/// let a = ExpertKey::new(LayerId(0), ExpertId(0));
/// let b = ExpertKey::new(LayerId(0), ExpertId(1));
/// lru.on_insert(a, 1);
/// lru.on_insert(b, 2);
/// lru.on_access(a, 3);
/// let resident: KeySet = [a, b].into_iter().collect();
/// assert_eq!(lru.choose_victim(resident.candidates()), Some(b));
/// ```
#[derive(Debug, Default)]
pub struct Lru {
    /// Logical time of the last access; 0 for experts that are not
    /// resident (forgotten on eviction) or were never seen.
    last_access: KeyMap<u64>,
}

impl Lru {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        Lru::default()
    }
}

impl CachePolicy for Lru {
    fn name(&self) -> &str {
        "LRU"
    }

    fn on_routing(&mut self, _scores: &mut RoutingScores) {}

    fn on_access(&mut self, key: ExpertKey, now: u64) {
        self.last_access.set(key, now);
    }

    fn on_insert(&mut self, key: ExpertKey, now: u64) {
        self.last_access.set(key, now);
    }

    fn on_evict(&mut self, key: ExpertKey) {
        self.last_access.set(key, 0);
    }

    fn choose_victim(&mut self, candidates: Candidates<'_>) -> Option<ExpertKey> {
        candidates.min_by_value(|k| self.last_access.get(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeySet;
    use hybrimoe_model::{ExpertId, LayerId};

    fn key(l: u16, e: u16) -> ExpertKey {
        ExpertKey::new(LayerId(l), ExpertId(e))
    }

    fn victim(lru: &mut Lru, resident: &[ExpertKey]) -> Option<ExpertKey> {
        let resident: KeySet = resident.iter().copied().collect();
        lru.choose_victim(resident.candidates())
    }

    #[test]
    fn evicts_oldest_access() {
        let mut lru = Lru::new();
        lru.on_insert(key(0, 0), 1);
        lru.on_insert(key(0, 1), 2);
        lru.on_insert(key(0, 2), 3);
        lru.on_access(key(0, 0), 4);
        assert_eq!(
            victim(&mut lru, &[key(0, 0), key(0, 1), key(0, 2)]),
            Some(key(0, 1))
        );
    }

    #[test]
    fn unknown_candidates_treated_as_oldest() {
        let mut lru = Lru::new();
        lru.on_insert(key(0, 0), 5);
        assert_eq!(victim(&mut lru, &[key(0, 0), key(0, 9)]), Some(key(0, 9)));
    }

    #[test]
    fn empty_candidates_give_none() {
        let mut lru = Lru::new();
        assert_eq!(victim(&mut lru, &[]), None);
    }

    #[test]
    fn eviction_forgets_state() {
        let mut lru = Lru::new();
        lru.on_insert(key(0, 0), 10);
        lru.on_evict(key(0, 0));
        // Re-inserted later with a fresh timestamp; old one must not linger.
        lru.on_insert(key(0, 1), 1);
        assert_eq!(victim(&mut lru, &[key(0, 0), key(0, 1)]), Some(key(0, 0)));
    }

    #[test]
    fn ties_break_by_key_order() {
        let mut lru = Lru::new();
        lru.on_insert(key(0, 3), 1);
        lru.on_insert(key(0, 1), 1);
        assert_eq!(victim(&mut lru, &[key(0, 1), key(0, 3)]), Some(key(0, 1)));
    }
}
