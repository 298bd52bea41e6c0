//! The GPU-resident expert cache.

use hybrimoe_model::{ExpertKey, LayerRouting};

use crate::{CachePolicy, CacheStats, Candidates, KeySet, RoutingScores};

/// What happened on an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The expert was already resident; nothing changed.
    AlreadyResident,
    /// Inserted into free space.
    Inserted,
    /// Inserted after evicting the contained expert.
    InsertedEvicting(ExpertKey),
    /// The insertion was refused (capacity zero, or every resident expert is
    /// protected).
    Refused,
}

impl InsertOutcome {
    /// Whether the expert ended up resident.
    pub fn is_resident(&self) -> bool {
        !matches!(self, InsertOutcome::Refused)
    }
}

/// Tracks which routed experts are resident in GPU memory.
///
/// Capacity is counted in experts, matching the paper's "GPU expert cache
/// ratio" axis (all routed experts of a model are the same size; shared
/// experts always stay on the GPU and live outside this budget).
///
/// Nothing here is pinned: residency changes only through the insert
/// methods, and an insertion never evicts a key in its `protect` set. A
/// caller that wants a placement to stay put stops inserting.
///
/// The cache is policy-agnostic: all replacement decisions are delegated to
/// the [`CachePolicy`] it owns. The logical clock passed to the policy
/// advances on every lookup/insert, giving recency-based policies a total
/// order of events.
///
/// # Example
///
/// ```
/// use hybrimoe_cache::{ExpertCache, Mrs};
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
///
/// let mut cache = ExpertCache::new(8, Box::new(Mrs::new(0.3)));
/// let k = ExpertKey::new(LayerId(1), ExpertId(4));
/// assert!(!cache.lookup(k)); // miss
/// cache.insert(k);
/// assert!(cache.lookup(k)); // hit
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct ExpertCache {
    capacity: usize,
    resident: KeySet,
    policy: Box<dyn CachePolicy>,
    clock: u64,
    stats: CacheStats,
    /// Reused buffers for handing routings to the policy.
    scores: RoutingScores,
}

impl ExpertCache {
    /// Creates a cache holding up to `capacity` routed experts.
    pub fn new(capacity: usize, policy: Box<dyn CachePolicy>) -> Self {
        ExpertCache {
            capacity,
            resident: KeySet::new(),
            policy,
            clock: 0,
            stats: CacheStats::default(),
            scores: RoutingScores::new(),
        }
    }

    /// The policy's name (for reports).
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Capacity in experts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident experts.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether no experts are resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Whether the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.resident.len() >= self.capacity
    }

    /// Free expert slots.
    pub fn free_slots(&self) -> usize {
        self.capacity.saturating_sub(self.resident.len())
    }

    /// Whether `key` is resident, without recording a lookup.
    pub fn contains(&self, key: ExpertKey) -> bool {
        self.resident.contains(key)
    }

    /// Looks up `key`, recording a hit or miss and notifying the policy.
    pub fn lookup(&mut self, key: ExpertKey) -> bool {
        self.clock += 1;
        if self.resident.contains(key) {
            self.stats.hits += 1;
            self.policy.on_access(key, self.clock);
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Forwards one layer's routing to the policy (score-aware policies
    /// update their estimates here).
    pub fn note_routing(&mut self, routing: &LayerRouting, activated_k: u16) {
        self.scores.load(routing, activated_k);
        self.policy.on_routing(&mut self.scores);
    }

    /// Shows the policy its share of an already loaded routing (one shard
    /// of a [`ShardedExpertCache`](crate::ShardedExpertCache)).
    pub(crate) fn note_scores(&mut self, scores: &mut RoutingScores) {
        self.policy.on_routing(scores);
    }

    /// Inserts `key`, evicting a policy-chosen victim if the cache is full.
    /// Equivalent to [`insert_protected`](Self::insert_protected) with no
    /// protected set.
    pub fn insert(&mut self, key: ExpertKey) -> InsertOutcome {
        self.insert_protected(key, &[])
    }

    /// Inserts `key`; when eviction is needed, experts in `protect` (e.g.
    /// the ones still queued for computation in the current layer) are not
    /// eligible victims.
    pub fn insert_protected(&mut self, key: ExpertKey, protect: &[ExpertKey]) -> InsertOutcome {
        if self.resident.contains(key) {
            return InsertOutcome::AlreadyResident;
        }
        if self.capacity == 0 {
            return InsertOutcome::Refused;
        }
        self.clock += 1;
        if self.resident.len() < self.capacity {
            self.resident.insert(key);
            self.stats.insertions += 1;
            self.policy.on_insert(key, self.clock);
            return InsertOutcome::Inserted;
        }
        // Candidates: resident and unprotected — scanned in key order
        // straight off the residency bits.
        let candidates = Candidates::new(&self.resident, protect);
        let Some(victim) = self.policy.choose_victim(candidates) else {
            return InsertOutcome::Refused;
        };
        let was_resident = self.resident.remove(victim);
        debug_assert!(was_resident, "policy chose a non-resident victim");
        self.policy.on_evict(victim);
        self.stats.evictions += 1;
        self.resident.insert(key);
        self.stats.insertions += 1;
        self.policy.on_insert(key, self.clock);
        InsertOutcome::InsertedEvicting(victim)
    }

    /// Inserts `key` only if there is free space, never evicting (the
    /// engine's path during a prefill batch, whose inserts go to free slots
    /// only).
    pub fn insert_if_free(&mut self, key: ExpertKey) -> InsertOutcome {
        if self.resident.contains(key) {
            return InsertOutcome::AlreadyResident;
        }
        if self.is_full() {
            return InsertOutcome::Refused;
        }
        self.clock += 1;
        self.resident.insert(key);
        self.stats.insertions += 1;
        self.policy.on_insert(key, self.clock);
        InsertOutcome::Inserted
    }

    /// All resident experts, ascending.
    pub fn resident_keys(&self) -> impl Iterator<Item = ExpertKey> + '_ {
        self.resident.iter()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (e.g. after a warmup phase) without touching
    /// residency or policy state.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lru, Mrs};
    use hybrimoe_model::{ExpertId, LayerId, RouterOutput};

    fn key(l: u16, e: u16) -> ExpertKey {
        ExpertKey::new(LayerId(l), ExpertId(e))
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = ExpertCache::new(2, Box::new(Lru::new()));
        assert_eq!(c.insert(key(0, 0)), InsertOutcome::Inserted);
        assert_eq!(c.insert(key(0, 0)), InsertOutcome::AlreadyResident);
        assert!(c.lookup(key(0, 0)));
        assert!(!c.lookup(key(0, 1)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn eviction_when_full() {
        let mut c = ExpertCache::new(2, Box::new(Lru::new()));
        c.insert(key(0, 0));
        c.insert(key(0, 1));
        c.lookup(key(0, 0)); // refresh
        let outcome = c.insert(key(0, 2));
        assert_eq!(outcome, InsertOutcome::InsertedEvicting(key(0, 1)));
        assert_eq!(c.len(), 2);
        assert!(c.contains(key(0, 0)));
        assert!(c.contains(key(0, 2)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn protected_experts_not_victims() {
        let mut c = ExpertCache::new(2, Box::new(Lru::new()));
        c.insert(key(0, 0));
        c.insert(key(0, 1));
        // key(0,0) is LRU but protected; the victim must be key(0,1).
        let outcome = c.insert_protected(key(0, 2), &[key(0, 0)]);
        assert_eq!(outcome, InsertOutcome::InsertedEvicting(key(0, 1)));
        // With every resident protected there is no victim.
        let outcome = c.insert_protected(key(0, 3), &[key(0, 0), key(0, 2)]);
        assert_eq!(outcome, InsertOutcome::Refused);
        assert!(!outcome.is_resident());
    }

    #[test]
    fn zero_capacity_refuses() {
        let mut c = ExpertCache::new(0, Box::new(Lru::new()));
        assert_eq!(c.insert(key(0, 0)), InsertOutcome::Refused);
        assert!(c.is_empty());
    }

    #[test]
    fn insert_if_free_never_evicts() {
        let mut c = ExpertCache::new(1, Box::new(Lru::new()));
        assert_eq!(c.insert_if_free(key(0, 0)), InsertOutcome::Inserted);
        assert_eq!(c.insert_if_free(key(0, 1)), InsertOutcome::Refused);
        assert_eq!(c.insert_if_free(key(0, 0)), InsertOutcome::AlreadyResident);
        assert_eq!(c.stats().insertions, 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn mrs_cache_keeps_high_score_experts() {
        let mut c = ExpertCache::new(2, Box::new(Mrs::new(0.5)));
        let routing = LayerRouting::from_tokens(
            LayerId(0),
            4,
            &[RouterOutput::route(&[6.0, 5.0, 0.0, 0.0], 2)],
        );
        c.note_routing(&routing, 2);
        c.insert(key(0, 0));
        c.insert(key(0, 3));
        // Expert 3 has no score mass; inserting expert 1 must evict it.
        let outcome = c.insert(key(0, 1));
        assert_eq!(outcome, InsertOutcome::InsertedEvicting(key(0, 3)));
    }

    #[test]
    fn reset_stats_clears_counts_only() {
        let mut c = ExpertCache::new(2, Box::new(Lru::new()));
        c.insert(key(0, 0));
        c.lookup(key(0, 0));
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.contains(key(0, 0)));
    }
}
