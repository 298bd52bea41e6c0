//! Minus Recent Score (MRS): the paper's score-aware replacement policy.

use hybrimoe_model::ExpertKey;

use crate::{CachePolicy, Candidates, KeyMap, RoutingScores};

/// The **Minus Recent Score** policy of §IV-D.
///
/// Per layer and iteration, the estimated priority score of every expert is
/// updated from the router's softmax scores `s` (Eq. 3):
///
/// ```text
/// S = α · TopP(s) + (1 − α) · S
/// ```
///
/// where `TopP` keeps only the largest `p` scores of the iteration and
/// zeroes the rest — the paper observes that reuse probability is flat below
/// the top scores (Fig. 3(b)), so accumulating small scores would only add
/// noise. `p` defaults to **twice the number of activated experts** (§IV-D).
/// The eviction victim is the resident expert with the smallest estimate.
///
/// # Example
///
/// ```
/// use hybrimoe_cache::{CachePolicy, KeySet, Mrs, RoutingScores};
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId, LayerRouting, RouterOutput};
///
/// let mut mrs = Mrs::new(0.3);
/// // One token strongly preferring expert 0:
/// let routing = LayerRouting::from_tokens(
///     LayerId(0), 4, &[RouterOutput::route(&[4.0, 2.0, 0.0, 0.0], 1)]);
/// let mut scores = RoutingScores::new();
/// scores.load(&routing, 1);
/// mrs.on_routing(&mut scores);
/// let lo = ExpertKey::new(LayerId(0), ExpertId(3));
/// let hi = ExpertKey::new(LayerId(0), ExpertId(0));
/// let resident: KeySet = [hi, lo].into_iter().collect();
/// assert_eq!(mrs.choose_victim(resident.candidates()), Some(lo));
/// ```
#[derive(Debug)]
pub struct Mrs {
    alpha: f64,
    p_override: Option<u16>,
    scores: KeyMap<f64>,
}

impl Mrs {
    /// Creates the policy with averaging coefficient `alpha` and the default
    /// top-P cutoff of `2 × K`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Mrs {
            alpha,
            p_override: None,
            scores: KeyMap::new(),
        }
    }

    /// Creates the policy with an explicit top-P cutoff instead of `2 × K`
    /// (used by the ablation benches).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1` and `p > 0`.
    pub fn with_top_p(alpha: f64, p: u16) -> Self {
        assert!(p > 0, "top-p cutoff must be positive");
        let mut m = Mrs::new(alpha);
        m.p_override = Some(p);
        m
    }

    /// The current estimated priority score of `key` (0 if never routed).
    pub fn score(&self, key: ExpertKey) -> f64 {
        self.scores.get(key)
    }

    /// The averaging coefficient α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CachePolicy for Mrs {
    fn name(&self) -> &str {
        "MRS"
    }

    fn on_routing(&mut self, scores: &mut RoutingScores) {
        let p = self
            .p_override
            .unwrap_or_else(|| (2 * scores.activated_k()).max(1)) as usize;
        let layer = scores.layer();
        let owned = scores.owned_experts();
        let top = scores.top_p(p);
        let row = self.scores.row_mut(layer, top.len());
        for e in owned {
            let e = e.0 as usize;
            row[e] = self.alpha * top[e] as f64 + (1.0 - self.alpha) * row[e];
        }
    }

    fn on_access(&mut self, _key: ExpertKey, _now: u64) {}

    fn on_insert(&mut self, _key: ExpertKey, _now: u64) {}

    fn on_evict(&mut self, _key: ExpertKey) {
        // Scores persist across residency changes: an evicted expert keeps
        // its estimate and competes normally when re-inserted.
    }

    fn choose_victim(&mut self, candidates: Candidates<'_>) -> Option<ExpertKey> {
        candidates.min_by_value(|k| self.scores.get(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeySet;
    use hybrimoe_model::{ExpertId, LayerId, LayerRouting, RouterOutput};

    fn key(l: u16, e: u16) -> ExpertKey {
        ExpertKey::new(LayerId(l), ExpertId(e))
    }

    /// One token's routing from its gate logits, as the policy sees it
    /// (`activated_k` = 1).
    fn routing_from_logits(layer: u16, logits: &[f32], k: usize) -> RoutingScores {
        let routing = LayerRouting::from_tokens(
            LayerId(layer),
            logits.len() as u16,
            &[RouterOutput::route(logits, k)],
        );
        let mut scores = RoutingScores::new();
        scores.load(&routing, 1);
        scores
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = Mrs::new(0.0);
    }

    #[test]
    fn scores_follow_ewma() {
        let mut mrs = Mrs::new(0.5);
        let mut r = routing_from_logits(0, &[10.0, 0.0, 0.0, 0.0], 1);
        mrs.on_routing(&mut r);
        let s1 = mrs.score(key(0, 0));
        assert!(s1 > 0.4, "first update should be ~alpha*score, got {s1}");
        mrs.on_routing(&mut r);
        let s2 = mrs.score(key(0, 0));
        assert!(s2 > s1, "repeated activation grows the estimate");
        assert!(s2 <= 1.0);
    }

    #[test]
    fn non_top_p_scores_decay() {
        let mut mrs = Mrs::with_top_p(0.5, 1);
        // Round 1: expert 0 dominates, gets credit.
        mrs.on_routing(&mut routing_from_logits(0, &[10.0, 0.0, 0.0, 0.0], 1));
        let before = mrs.score(key(0, 0));
        // Round 2: expert 1 dominates; expert 0 is outside top-1 and decays.
        mrs.on_routing(&mut routing_from_logits(0, &[0.0, 10.0, 0.0, 0.0], 1));
        let after = mrs.score(key(0, 0));
        assert!(after < before);
        assert!((after - before * 0.5).abs() < 1e-9);
    }

    #[test]
    fn victim_is_lowest_score() {
        let mut mrs = Mrs::new(0.3);
        mrs.on_routing(&mut routing_from_logits(0, &[3.0, 2.0, 1.0, 0.0], 2));
        let cands: KeySet = [key(0, 0), key(0, 1), key(0, 3)].into_iter().collect();
        assert_eq!(mrs.choose_victim(cands.candidates()), Some(key(0, 3)));
    }

    #[test]
    fn top_p_defaults_to_twice_k() {
        // alpha=1: S = TopP(s). 6 experts, k=1 → p=2: only the top two
        // experts get credit.
        let mut mrs = Mrs::new(1.0);
        mrs.on_routing(&mut routing_from_logits(
            0,
            &[5.0, 4.0, 3.0, 2.0, 1.0, 0.0],
            1,
        ));
        assert!(mrs.score(key(0, 0)) > 0.0);
        assert!(mrs.score(key(0, 1)) > 0.0);
        assert_eq!(mrs.score(key(0, 2)), 0.0);
        assert_eq!(mrs.score(key(0, 5)), 0.0);
    }

    #[test]
    fn scores_are_per_layer() {
        let mut mrs = Mrs::new(0.5);
        mrs.on_routing(&mut routing_from_logits(0, &[10.0, 0.0, 0.0, 0.0], 1));
        assert!(mrs.score(key(0, 0)) > 0.0);
        assert_eq!(mrs.score(key(1, 0)), 0.0);
    }

    #[test]
    fn scores_survive_eviction() {
        let mut mrs = Mrs::new(0.5);
        mrs.on_routing(&mut routing_from_logits(0, &[10.0, 0.0, 0.0, 0.0], 1));
        let before = mrs.score(key(0, 0));
        mrs.on_evict(key(0, 0));
        assert_eq!(mrs.score(key(0, 0)), before);
    }

    #[test]
    fn empty_candidates_give_none() {
        assert_eq!(
            Mrs::new(0.3).choose_victim(KeySet::new().candidates()),
            None
        );
    }
}
