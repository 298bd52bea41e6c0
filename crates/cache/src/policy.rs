//! The cache replacement policy interface.

use std::fmt;

use hybrimoe_model::{shard_of, ExpertId, ExpertKey, LayerId, LayerRouting};

use crate::Candidates;

/// A cache replacement policy for routed experts.
///
/// The policy sees three event streams from the [`ExpertCache`](crate::ExpertCache):
///
/// 1. [`on_routing`](CachePolicy::on_routing) — once per layer per
///    iteration, with the layer's mean router scores over **all** experts.
///    Score-aware policies update their estimates here; the paper's
///    insight is that *scores of non-activated experts* are predictive too
///    (§III, Opportunity 1).
/// 2. [`on_access`](CachePolicy::on_access) / [`on_insert`](CachePolicy::on_insert)
///    / [`on_evict`](CachePolicy::on_evict) — residency changes.
/// 3. [`choose_victim`](CachePolicy::choose_victim) — pick which of the
///    eviction candidates to drop.
///
/// # Contract
///
/// * **No per-call collections.** All three streams run on the per-layer
///   critical path of an engine step. The cache hands out *views*
///   ([`RoutingScores`], [`Candidates`]) over state it already holds, and a
///   policy is expected to keep its own per-expert values in a dense
///   [`KeyMap`](crate::KeyMap) rather than a hash map, so that neither
///   side hashes or allocates in steady state.
/// * **Candidates come in ascending key order** and contain exactly the
///   resident experts that the caller does not protect.
///   The victim must be one of them.
/// * **Determinism.** Given the same event sequence a policy must pick the
///   same victim. The built-in policies order candidates by
///   `(value, key)` — smallest value first, ties to the smallest key —
///   which the ascending candidate order makes a single pass
///   ([`Candidates::min_by_value`]).
/// * **Sharded caches.** With several GPU shards every shard has its own
///   policy instance, and each is shown only its own share of a routing:
///   write estimates for [`RoutingScores::owned_experts`] only (with one
///   shard that is every expert).
pub trait CachePolicy: fmt::Debug + Send {
    /// A short stable name for reports (e.g. `"LRU"`, `"MRS"`).
    fn name(&self) -> &str;

    /// Observes one layer's routing for the current iteration.
    fn on_routing(&mut self, scores: &mut RoutingScores);

    /// Observes a cache hit on `key` at logical time `now`.
    fn on_access(&mut self, key: ExpertKey, now: u64);

    /// Observes `key` becoming resident at logical time `now`.
    fn on_insert(&mut self, key: ExpertKey, now: u64);

    /// Observes `key` being evicted.
    fn on_evict(&mut self, key: ExpertKey);

    /// Picks the victim among `candidates` (the unprotected resident
    /// experts, in ascending key order). Returns `None` only if
    /// there is no candidate.
    fn choose_victim(&mut self, candidates: Candidates<'_>) -> Option<ExpertKey>;
}

/// One layer's routing as the cache policies see it: the mean router score
/// of every expert, the paper's `TopP(s)` on request, and which experts
/// the observing policy instance owns.
///
/// The buffers are reused from one layer to the next, and `TopP(s)` is
/// computed once per routing however many shard policies ask for it.
///
/// # Example
///
/// ```
/// use hybrimoe_cache::RoutingScores;
/// use hybrimoe_model::{LayerId, LayerRouting};
///
/// let routing = LayerRouting::from_parts(
///     LayerId(4), 2, vec![0; 4], vec![0.2, 1.0, 0.0, 0.8]);
/// let mut scores = RoutingScores::new();
/// scores.load(&routing, 1);
/// assert_eq!(scores.mean(), &[0.1, 0.5, 0.0, 0.4]);
/// // Only the two largest scores survive TopP with p = 2:
/// assert_eq!(scores.top_p(2), &[0.0, 0.5, 0.0, 0.4]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoutingScores {
    layer: LayerId,
    activated_k: u16,
    shard: usize,
    num_shards: usize,
    mean: Vec<f32>,
    top: Vec<f32>,
    /// The `p` that `top` currently holds `TopP(mean)` for.
    top_for: Option<usize>,
    select: Vec<f32>,
}

impl RoutingScores {
    /// Creates empty buffers.
    pub fn new() -> Self {
        RoutingScores::default()
    }

    /// Loads one layer's routing; the observer owns every expert until
    /// [`set_owner`](Self::set_owner) narrows it. `activated_k` is the
    /// model's number of activated experts per token.
    pub fn load(&mut self, routing: &LayerRouting, activated_k: u16) {
        self.layer = routing.layer();
        self.activated_k = activated_k;
        routing.mean_scores_into(&mut self.mean);
        self.top_for = None;
        self.set_owner(0, 1);
    }

    /// Restricts [`owned_experts`](Self::owned_experts) to the affinity
    /// experts of `shard` out of `num_shards`.
    pub fn set_owner(&mut self, shard: usize, num_shards: usize) {
        self.shard = shard;
        self.num_shards = num_shards.max(1);
    }

    /// The layer the routing belongs to.
    pub fn layer(&self) -> LayerId {
        self.layer
    }

    /// The model's number of activated experts per token (the K from which
    /// MRS derives its default top-P cutoff).
    pub fn activated_k(&self) -> u16 {
        self.activated_k
    }

    /// Normalized mean score per expert (indexed by expert id), the `s` of
    /// the MRS update rule (Eq. 3).
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// The experts whose estimates the observing policy keeps: all of them
    /// for a single cache, the shard's affinity experts
    /// ([`shard_of`]) for one shard of several.
    pub fn owned_experts(&self) -> impl Iterator<Item = ExpertId> {
        let (shard, num_shards) = (self.shard, self.num_shards);
        (0..self.mean.len() as u16)
            .map(ExpertId)
            .filter(move |e| shard_of(*e, num_shards) == shard)
    }

    /// `TopP(s)`: the mean scores with everything but the `p` largest
    /// positive ones zeroed (ties at the cutoff go to the lower expert
    /// ids). Memoized per loaded routing.
    pub fn top_p(&mut self, p: usize) -> &[f32] {
        if self.top_for != Some(p) {
            // The p'th largest score, by selection on a scratch copy.
            let cutoff = match p.checked_sub(1).filter(|nth| *nth < self.mean.len()) {
                Some(nth) => {
                    self.select.clear();
                    self.select.extend_from_slice(&self.mean);
                    *self
                        .select
                        .select_nth_unstable_by(nth, |a, b| b.total_cmp(a))
                        .1
                }
                None => f32::NEG_INFINITY,
            };
            // Count how many meet the cutoff to keep exactly p under ties.
            let mut kept = 0usize;
            self.top.clear();
            self.top.extend(self.mean.iter().map(|&s| {
                let top = s >= cutoff && kept < p && s > 0.0;
                kept += usize::from(top);
                if top {
                    s
                } else {
                    0.0
                }
            }));
            self.top_for = Some(p);
        }
        &self.top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(scores: &[f32]) -> RoutingScores {
        let routing =
            LayerRouting::from_parts(LayerId(1), 1, vec![0; scores.len()], scores.to_vec());
        let mut s = RoutingScores::new();
        s.load(&routing, 2);
        s
    }

    #[test]
    fn top_p_keeps_exactly_p_under_ties() {
        let mut s = loaded(&[0.2, 0.3, 0.2, 0.2, 0.1]);
        // Three experts tie at the cutoff; the lower ids win.
        assert_eq!(s.top_p(3), &[0.2, 0.3, 0.2, 0.0, 0.0]);
        // A different p recomputes; p beyond the expert count keeps all.
        assert_eq!(s.top_p(1), &[0.0, 0.3, 0.0, 0.0, 0.0]);
        assert_eq!(s.top_p(9), &[0.2, 0.3, 0.2, 0.2, 0.1]);
    }

    #[test]
    fn top_p_never_credits_zero_scores() {
        let mut s = loaded(&[0.0, 0.9, 0.0]);
        assert_eq!(s.top_p(2), &[0.0, 0.9, 0.0]);
    }

    #[test]
    fn reloading_forgets_the_previous_top_p() {
        let mut s = loaded(&[0.6, 0.4]);
        assert_eq!(s.top_p(1), &[0.6, 0.0]);
        let routing = LayerRouting::from_parts(LayerId(2), 2, vec![0; 2], vec![0.4, 1.6]);
        s.load(&routing, 2);
        assert_eq!(s.layer(), LayerId(2));
        assert_eq!(s.top_p(1), &[0.0, 0.8]);
    }

    #[test]
    fn ownership_follows_the_affinity_map() {
        let mut s = loaded(&[0.1; 6]);
        assert_eq!(s.owned_experts().count(), 6);
        s.set_owner(1, 2);
        let owned: Vec<u16> = s.owned_experts().map(|e| e.0).collect();
        assert_eq!(owned, vec![1, 3, 5]);
    }
}
