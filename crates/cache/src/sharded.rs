//! Per-GPU cache shards behind one facade.
//!
//! A multi-GPU deployment gives every GPU its own expert cache: residency,
//! eviction and score estimates are device-local, and the static
//! expert→shard affinity map ([`shard_of`](hybrimoe_model::shard_of))
//! guarantees an expert is only ever resident on one GPU. A
//! [`ShardedExpertCache`] owns one [`ExpertCache`] per shard and routes
//! every operation to the key's affinity shard; with a single shard it is
//! exactly the flat cache of the paper's single-GPU setup.

use hybrimoe_model::{shard_of, ExpertKey, LayerRouting};

use crate::{CachePolicy, CacheStats, ExpertCache, InsertOutcome, RoutingScores};

/// One expert cache per GPU shard, routed by the expert affinity map.
///
/// The total capacity is split as evenly as possible across shards (earlier
/// shards absorb the remainder), modeling each GPU's own memory budget.
/// Statistics aggregate over all shards.
///
/// # Example
///
/// ```
/// use hybrimoe_cache::{Mrs, ShardedExpertCache};
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
///
/// let mut cache = ShardedExpertCache::new(8, 2, || Box::new(Mrs::new(0.3)));
/// let k = ExpertKey::new(LayerId(1), ExpertId(4)); // shard 0 of 2
/// assert!(!cache.lookup(k)); // miss
/// cache.insert(k);
/// assert!(cache.lookup(k)); // hit, on shard 0
/// assert_eq!(cache.shard(0).len(), 1);
/// assert_eq!(cache.shard(1).len(), 0);
/// ```
#[derive(Debug)]
pub struct ShardedExpertCache {
    shards: Vec<ExpertCache>,
    /// Reused buffers for handing routings to the shard policies.
    scores: RoutingScores,
}

impl ShardedExpertCache {
    /// Creates `num_shards` cache shards totalling `capacity` experts, each
    /// shard with its own replacement-policy instance from
    /// `policy_builder`.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(
        capacity: usize,
        num_shards: usize,
        mut policy_builder: impl FnMut() -> Box<dyn CachePolicy>,
    ) -> Self {
        assert!(num_shards > 0, "a cache needs at least one shard");
        let base = capacity / num_shards;
        let remainder = capacity % num_shards;
        let shards = (0..num_shards)
            .map(|s| ExpertCache::new(base + usize::from(s < remainder), policy_builder()))
            .collect();
        ShardedExpertCache {
            shards,
            scores: RoutingScores::new(),
        }
    }

    /// Number of shards (GPUs).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `key` under the affinity map.
    fn shard_mut(&mut self, key: ExpertKey) -> &mut ExpertCache {
        let s = shard_of(key.expert, self.shards.len());
        &mut self.shards[s]
    }

    /// The shard holding `key` under the affinity map (shared access).
    fn shard_ref(&self, key: ExpertKey) -> &ExpertCache {
        let s = shard_of(key.expert, self.shards.len());
        &self.shards[s]
    }

    /// Shard `index`'s cache (per-GPU inspection).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard(&self, index: usize) -> &ExpertCache {
        &self.shards[index]
    }

    /// The policy name (identical for every shard).
    pub fn policy_name(&self) -> &str {
        self.shards[0].policy_name()
    }

    /// Total capacity in experts across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(ExpertCache::capacity).sum()
    }

    /// Total resident experts across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(ExpertCache::len).sum()
    }

    /// Whether no experts are resident on any shard.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ExpertCache::is_empty)
    }

    /// Total free expert slots across all shards.
    pub fn free_slots(&self) -> usize {
        self.shards.iter().map(ExpertCache::free_slots).sum()
    }

    /// Whether `key` is resident (on its affinity shard), without recording
    /// a lookup.
    pub fn contains(&self, key: ExpertKey) -> bool {
        self.shard_ref(key).contains(key)
    }

    /// Looks up `key` on its affinity shard, recording a hit or miss there.
    pub fn lookup(&mut self, key: ExpertKey) -> bool {
        self.shard_mut(key).lookup(key)
    }

    /// Forwards one layer's routing to every shard's policy. The routing's
    /// scores (and their top-P cut) are worked out once; each shard's
    /// policy then updates only the estimates of its own affinity experts,
    /// the only ones that shard ever reads.
    pub fn note_routing(&mut self, routing: &LayerRouting, activated_k: u16) {
        self.scores.load(routing, activated_k);
        let num_shards = self.shards.len();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            self.scores.set_owner(s, num_shards);
            shard.note_scores(&mut self.scores);
        }
    }

    /// Inserts `key` into its affinity shard, evicting a shard-local victim
    /// if that shard is full.
    pub fn insert(&mut self, key: ExpertKey) -> InsertOutcome {
        self.shard_mut(key).insert(key)
    }

    /// Inserts `key` into its affinity shard; experts in `protect` are not
    /// eligible victims.
    pub fn insert_protected(&mut self, key: ExpertKey, protect: &[ExpertKey]) -> InsertOutcome {
        self.shard_mut(key).insert_protected(key, protect)
    }

    /// Inserts `key` only if its affinity shard has free space (the
    /// prefetch path).
    pub fn insert_if_free(&mut self, key: ExpertKey) -> InsertOutcome {
        self.shard_mut(key).insert_if_free(key)
    }

    /// All resident experts across all shards, ascending by key.
    pub fn resident_keys(&self) -> Vec<ExpertKey> {
        let mut all: Vec<ExpertKey> = self.shards.iter().flat_map(|s| s.resident_keys()).collect();
        all.sort_unstable();
        all
    }

    /// Statistics summed over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total
    }

    /// Resets every shard's statistics without touching residency or
    /// policy state.
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lru, Mrs};
    use hybrimoe_model::{ExpertId, LayerId};

    fn key(l: u16, e: u16) -> ExpertKey {
        ExpertKey::new(LayerId(l), ExpertId(e))
    }

    fn sharded(capacity: usize, shards: usize) -> ShardedExpertCache {
        ShardedExpertCache::new(capacity, shards, || Box::new(Lru::new()))
    }

    #[test]
    fn capacity_splits_evenly_with_remainder_up_front() {
        let c = sharded(7, 3);
        assert_eq!(c.capacity(), 7);
        assert_eq!(c.shard(0).capacity(), 3);
        assert_eq!(c.shard(1).capacity(), 2);
        assert_eq!(c.shard(2).capacity(), 2);
    }

    #[test]
    fn keys_land_on_their_affinity_shard() {
        let mut c = sharded(8, 2);
        c.insert(key(0, 0)); // shard 0
        c.insert(key(0, 1)); // shard 1
        c.insert(key(3, 2)); // shard 0
        assert_eq!(c.shard(0).len(), 2);
        assert_eq!(c.shard(1).len(), 1);
        assert!(c.contains(key(0, 1)));
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        // Residents merge across shards in key order.
        assert_eq!(c.resident_keys(), vec![key(0, 0), key(0, 1), key(3, 2)]);
    }

    #[test]
    fn eviction_is_shard_local() {
        // 2 slots per shard; filling shard 0 beyond capacity must never
        // evict a shard-1 resident.
        let mut c = sharded(4, 2);
        c.insert(key(0, 0));
        c.insert(key(0, 2));
        c.insert(key(0, 1)); // shard 1 resident
        let out = c.insert(key(0, 4)); // shard 0 full → evicts shard-0 LRU
        assert_eq!(out, InsertOutcome::InsertedEvicting(key(0, 0)));
        assert!(c.contains(key(0, 1)), "shard 1 resident evicted");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn single_shard_behaves_like_flat_cache() {
        let mut flat = ExpertCache::new(2, Box::new(Lru::new()));
        let mut one = sharded(2, 1);
        for k in [key(0, 0), key(0, 1), key(0, 2)] {
            assert_eq!(flat.lookup(k), one.lookup(k));
            assert_eq!(flat.insert(k), one.insert(k));
        }
        assert_eq!(flat.stats(), one.stats());
        assert_eq!(
            flat.resident_keys().collect::<Vec<_>>(),
            one.resident_keys()
        );
    }

    #[test]
    fn insert_if_free_respects_shard_capacity() {
        let mut c = sharded(2, 2); // one slot per shard
        assert_eq!(c.insert_if_free(key(0, 0)), InsertOutcome::Inserted);
        // Shard 0 is full even though shard 1 has a free slot.
        assert_eq!(c.insert_if_free(key(0, 2)), InsertOutcome::Refused);
        assert_eq!(c.insert_if_free(key(0, 1)), InsertOutcome::Inserted);
        assert_eq!(c.free_slots(), 0);
    }

    #[test]
    fn mrs_scores_stay_device_local() {
        use hybrimoe_model::RouterOutput;
        let mut c = ShardedExpertCache::new(2, 2, || Box::new(Mrs::new(0.5)));
        // Expert 0 and 2 on shard 0; score mass on expert 0.
        let routing = LayerRouting::from_tokens(
            LayerId(0),
            4,
            &[RouterOutput::route(&[6.0, 0.0, 1.0, 0.0], 2)],
        );
        c.note_routing(&routing, 2);
        c.insert(key(0, 2));
        // Shard 0 has one slot: inserting the higher-scoring expert 0
        // evicts expert 2 — a purely shard-local MRS decision.
        assert_eq!(
            c.insert(key(0, 0)),
            InsertOutcome::InsertedEvicting(key(0, 2))
        );
        // Shard 1 is untouched by any of this.
        assert_eq!(c.shard(1).len(), 0);
        assert_eq!(c.shard(1).stats(), CacheStats::default());
    }

    #[test]
    fn reset_stats_clears_all_shards() {
        let mut c = sharded(4, 2);
        c.insert(key(0, 0));
        c.lookup(key(0, 0));
        c.lookup(key(0, 1));
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.contains(key(0, 0)));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = sharded(4, 0);
    }
}
