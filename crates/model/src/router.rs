//! MoE gating math.
//!
//! The router maps a token's gate logits to a probability distribution over
//! the layer's routed experts (Eq. 1 of the paper):
//! `y = Σ Softmax(TopK(x·Wg))_i · E_i(x)`. Besides selecting the top-K
//! experts per token, the full softmax score vector is preserved — it is the
//! signal the MRS cache policy (§IV-D) and the impact-driven prefetcher
//! (§IV-C) consume.

use serde::{Deserialize, Serialize};

use crate::{ExpertId, LayerId};

/// Numerically stable softmax.
///
/// Returns an empty vector for empty input.
///
/// # Example
///
/// ```
/// let p = hybrimoe_model::softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut scores = logits.to_vec();
    softmax_in_place(&mut scores);
    scores
}

/// [`softmax`] over a buffer the caller owns: logits in, scores out.
fn softmax_in_place(values: &mut [f32]) {
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in values.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = values.iter().sum();
    for v in values.iter_mut() {
        *v /= sum;
    }
}

/// Indices and values of the `k` largest scores, descending, ties broken by
/// the lower index (deterministic).
///
/// # Example
///
/// ```
/// let top = hybrimoe_model::top_k(&[0.1, 0.7, 0.2], 2);
/// assert_eq!(top[0].0, 1);
/// assert_eq!(top[1].0, 2);
/// ```
pub fn top_k(scores: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut top = Vec::with_capacity(k.min(scores.len()));
    top_k_into(scores, k, &mut top);
    top
}

/// [`top_k`] into a reused buffer (cleared first). Selection, not a sort:
/// a score is inserted into the at most `k` kept so far only if it can
/// still make the cut, so the cost is one pass plus a few insertions, and
/// nothing is allocated once `out` holds `k` entries. The order is exactly
/// a stable sort by descending score truncated to `k`; NaN scores have no
/// defined place in it.
fn top_k_into(scores: &[f32], k: usize, out: &mut Vec<(usize, f32)>) {
    out.clear();
    let n = scores.len();
    if k == 0 || n == 0 {
        return;
    }
    // Each of `k` disjoint slices holds a score at least as high as the
    // least of their maxima, so no score below that floor makes the top k.
    let floor = if n < k {
        f32::NEG_INFINITY
    } else {
        (0..k)
            .map(|c| {
                scores[c * n / k..(c + 1) * n / k]
                    .iter()
                    .copied()
                    .fold(f32::NEG_INFINITY, f32::max)
            })
            .fold(f32::INFINITY, f32::min)
    };
    for (b, block) in scores.chunks(64).enumerate() {
        // The candidates, as a bit mask built without branches.
        let mut candidates = block
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &s)| m | u64::from(s >= floor) << i);
        while candidates != 0 {
            let i = 64 * b + candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let s = scores[i];
            if out.len() == k {
                // A tie keeps the earlier (lower) index.
                if s <= out[k - 1].1 {
                    continue;
                }
                out.pop();
            }
            let mut at = out.len();
            while at > 0 && out[at - 1].1 < s {
                at -= 1;
            }
            out.insert(at, (i, s));
        }
    }
}

/// [`RouterOutput::route`] into buffers the caller owns, for per-token hot
/// paths: `scores` holds the gate logits on entry and their softmax on
/// return, and `top` receives the top-`k` `(expert index, score)` pairs
/// before renormalization. [`RouterOutput::from_top_k`] turns the two
/// into the owned output.
///
/// # Panics
///
/// Panics if `k == 0` or `k > scores.len()`.
pub fn route_in_place(scores: &mut [f32], k: usize, top: &mut Vec<(usize, f32)>) {
    assert!(k > 0 && k <= scores.len(), "invalid top-k: {k}");
    softmax_in_place(scores);
    top_k_into(scores, k, top);
}

/// The routing decision for one token at one layer.
///
/// # Example
///
/// ```
/// use hybrimoe_model::RouterOutput;
///
/// let out = RouterOutput::route(&[2.0, 0.0, 1.0, 0.5], 2);
/// assert_eq!(out.selected.len(), 2);
/// assert_eq!(out.selected[0].0 .0, 0); // highest logit
/// // Selected weights are renormalized to sum to 1:
/// let w: f32 = out.selected.iter().map(|(_, w)| w).sum();
/// assert!((w - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterOutput {
    /// Full softmax scores over all routed experts (the cache/prefetch
    /// signal).
    pub scores: Vec<f32>,
    /// The selected top-K experts with their renormalized combine weights,
    /// in descending score order.
    pub selected: Vec<(ExpertId, f32)>,
}

impl RouterOutput {
    /// Routes a token given its gate logits: softmax over all experts,
    /// top-`k` selection, then renormalization of the selected weights.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > logits.len()`.
    pub fn route(logits: &[f32], k: usize) -> RouterOutput {
        let mut scores = logits.to_vec();
        let mut top = Vec::with_capacity(k);
        route_in_place(&mut scores, k, &mut top);
        RouterOutput::from_top_k(scores, &top)
    }

    /// The output of [`route_in_place`]: the softmax `scores` and the
    /// selected `top` pairs, whose scores are renormalized to sum to 1.
    pub fn from_top_k(scores: Vec<f32>, top: &[(usize, f32)]) -> RouterOutput {
        let total: f32 = top.iter().map(|(_, s)| s).sum();
        let selected = top
            .iter()
            .map(|&(i, s)| {
                (
                    ExpertId(i as u16),
                    if total > 0.0 { s / total } else { 0.0 },
                )
            })
            .collect();
        RouterOutput { scores, selected }
    }

    /// The selected expert ids, descending by score.
    pub fn expert_ids(&self) -> impl Iterator<Item = ExpertId> + '_ {
        self.selected.iter().map(|(e, _)| *e)
    }
}

/// Aggregated routing of a whole token batch at one layer: the input to the
/// scheduler (per-expert loads) and the cache policy (per-expert score
/// mass).
///
/// # Example
///
/// ```
/// use hybrimoe_model::{LayerId, LayerRouting, RouterOutput};
///
/// let t0 = RouterOutput::route(&[5.0, 0.0, 0.0, 0.0], 1);
/// let t1 = RouterOutput::route(&[5.0, 4.0, 0.0, 0.0], 1);
/// let routing = LayerRouting::from_tokens(LayerId(0), 4, &[t0, t1]);
/// assert_eq!(routing.tokens(), 2);
/// assert_eq!(routing.loads()[0], 2); // expert 0 got both tokens
/// assert_eq!(routing.activated().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerRouting {
    layer: LayerId,
    tokens: u32,
    loads: Vec<u32>,
    score_mass: Vec<f32>,
}

impl LayerRouting {
    /// Aggregates per-token router outputs into per-expert loads and score
    /// masses.
    ///
    /// # Panics
    ///
    /// Panics if any token selects an expert index `>= experts` or has a
    /// score vector whose length differs from `experts`.
    pub fn from_tokens(layer: LayerId, experts: u16, tokens: &[RouterOutput]) -> Self {
        let mut routing = LayerRouting::empty(layer, experts);
        for t in tokens {
            routing.add_token(&t.scores, t.expert_ids().map(|e| e.0 as usize));
        }
        routing
    }

    /// A routing of zero tokens: every load and score mass is zero.
    pub fn empty(layer: LayerId, experts: u16) -> Self {
        LayerRouting {
            layer,
            tokens: 0,
            loads: vec![0; experts as usize],
            score_mass: vec![0.0; experts as usize],
        }
    }

    /// Empties the routing in place, keeping its buffers: afterwards it
    /// equals [`empty`](Self::empty) of the same layer and expert count.
    pub fn clear(&mut self) {
        self.tokens = 0;
        self.loads.fill(0);
        self.score_mass.fill(0.0);
    }

    /// Adds one token: its softmax `scores` to the score masses and one
    /// load to each `selected` expert index. Adding tokens one by one in
    /// batch order is exactly [`from_tokens`](Self::from_tokens).
    ///
    /// # Panics
    ///
    /// Panics if `scores` has the wrong length or an index is out of range.
    pub fn add_token(&mut self, scores: &[f32], selected: impl IntoIterator<Item = usize>) {
        assert_eq!(scores.len(), self.loads.len(), "score length mismatch");
        for (m, s) in self.score_mass.iter_mut().zip(scores) {
            *m += s;
        }
        for e in selected {
            self.loads[e] += 1;
        }
        self.tokens += 1;
    }

    /// Builds a routing directly from loads and score masses (used by trace
    /// replay).
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length.
    pub fn from_parts(layer: LayerId, tokens: u32, loads: Vec<u32>, score_mass: Vec<f32>) -> Self {
        assert_eq!(loads.len(), score_mass.len(), "length mismatch");
        LayerRouting {
            layer,
            tokens,
            loads,
            score_mass,
        }
    }

    /// The layer this routing belongs to.
    pub fn layer(&self) -> LayerId {
        self.layer
    }

    /// Number of tokens in the batch.
    pub fn tokens(&self) -> u32 {
        self.tokens
    }

    /// Tokens routed to each expert (indexed by expert id).
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// Sum of softmax scores per expert across the batch.
    pub fn score_mass(&self) -> &[f32] {
        &self.score_mass
    }

    /// Experts with nonzero load, with their loads, ascending by expert id.
    pub fn activated(&self) -> Vec<(ExpertId, u32)> {
        self.activated_iter().collect()
    }

    /// [`activated`](Self::activated) without the allocation, for per-layer
    /// hot paths.
    pub fn activated_iter(&self) -> impl Iterator<Item = (ExpertId, u32)> + '_ {
        self.loads
            .iter()
            .enumerate()
            .filter(|(_, l)| **l > 0)
            .map(|(i, l)| (ExpertId(i as u16), *l))
    }

    /// Merges another routing of the **same layer** into this one, adding
    /// loads, score masses and token counts — the aggregation a
    /// continuous-batching server performs when several requests' tokens go
    /// through one forward pass together.
    ///
    /// # Panics
    ///
    /// Panics if the layers or expert counts disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_model::{LayerId, LayerRouting};
    ///
    /// let mut a = LayerRouting::from_parts(LayerId(0), 1, vec![1, 0], vec![0.9, 0.1]);
    /// let b = LayerRouting::from_parts(LayerId(0), 1, vec![0, 1], vec![0.2, 0.8]);
    /// a.merge(&b);
    /// assert_eq!(a.tokens(), 2);
    /// assert_eq!(a.loads(), &[1, 1]);
    /// ```
    pub fn merge(&mut self, other: &LayerRouting) {
        assert_eq!(self.layer, other.layer, "merging routings across layers");
        assert_eq!(
            self.loads.len(),
            other.loads.len(),
            "merging routings across models"
        );
        self.tokens += other.tokens;
        for (l, o) in self.loads.iter_mut().zip(other.loads.iter()) {
            *l += o;
        }
        for (m, o) in self.score_mass.iter_mut().zip(other.score_mass.iter()) {
            *m += o;
        }
    }

    /// Normalized mean score per expert (score mass divided by tokens),
    /// the `s` of the MRS update rule (Eq. 3).
    pub fn mean_scores(&self) -> Vec<f32> {
        let mut mean = Vec::new();
        self.mean_scores_into(&mut mean);
        mean
    }

    /// Writes [`mean_scores`](Self::mean_scores) into `out` (cleared
    /// first), so per-layer hot paths can reuse one buffer.
    pub fn mean_scores_into(&self, out: &mut Vec<f32>) {
        out.clear();
        let tokens = self.tokens as f32;
        out.extend(
            self.score_mass
                .iter()
                .map(|m| if self.tokens == 0 { 0.0 } else { m / tokens }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.0, 1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn top_k_breaks_ties_by_index() {
        let top = top_k(&[0.5, 0.5, 0.5], 2);
        assert_eq!(top[0].0, 0);
        assert_eq!(top[1].0, 1);
    }

    #[test]
    fn top_k_handles_k_equal_len() {
        let top = top_k(&[0.1, 0.3], 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1);
    }

    #[test]
    #[should_panic(expected = "invalid top-k")]
    fn route_rejects_zero_k() {
        let _ = RouterOutput::route(&[1.0, 2.0], 0);
    }

    #[test]
    fn route_renormalizes_selected() {
        let out = RouterOutput::route(&[3.0, 2.0, 1.0, 0.0], 2);
        let sum: f32 = out.selected.iter().map(|(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert_eq!(out.scores.len(), 4);
        let ids: Vec<u16> = out.expert_ids().map(|e| e.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn layer_routing_aggregates_loads_and_mass() {
        let tokens: Vec<RouterOutput> = (0..4)
            .map(|i| {
                let mut logits = vec![0.0f32; 8];
                logits[i % 2] = 5.0;
                RouterOutput::route(&logits, 2)
            })
            .collect();
        let routing = LayerRouting::from_tokens(LayerId(3), 8, &tokens);
        assert_eq!(routing.tokens(), 4);
        assert_eq!(routing.loads().iter().sum::<u32>(), 8); // 4 tokens x top-2
        let mass: f32 = routing.score_mass().iter().sum();
        assert!((mass - 4.0).abs() < 1e-5); // each token's scores sum to 1
        assert_eq!(routing.layer(), LayerId(3));
    }

    #[test]
    fn activated_lists_only_loaded_experts() {
        let routing = LayerRouting::from_parts(LayerId(0), 2, vec![0, 3, 0, 1], vec![0.0; 4]);
        let act = routing.activated();
        assert_eq!(act, vec![(ExpertId(1), 3), (ExpertId(3), 1)]);
    }

    #[test]
    fn merge_adds_loads_mass_and_tokens() {
        let mut a = LayerRouting::from_parts(LayerId(2), 2, vec![1, 0, 1], vec![0.5, 0.2, 0.3]);
        let b = LayerRouting::from_parts(LayerId(2), 1, vec![0, 2, 0], vec![0.1, 0.8, 0.1]);
        a.merge(&b);
        assert_eq!(a.tokens(), 3);
        assert_eq!(a.loads(), &[1, 2, 1]);
        assert!((a.score_mass()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clear_equals_empty() {
        let mut a = LayerRouting::from_parts(LayerId(2), 2, vec![1, 0, 1], vec![0.5, 0.2, 0.3]);
        a.clear();
        assert_eq!(a, LayerRouting::empty(LayerId(2), 3));
    }

    #[test]
    #[should_panic(expected = "across layers")]
    fn merge_rejects_layer_mismatch() {
        let mut a = LayerRouting::from_parts(LayerId(0), 1, vec![1], vec![1.0]);
        let b = LayerRouting::from_parts(LayerId(1), 1, vec![1], vec![1.0]);
        a.merge(&b);
    }

    #[test]
    fn mean_scores_divide_by_tokens() {
        let routing = LayerRouting::from_parts(LayerId(0), 4, vec![0; 2], vec![2.0, 4.0]);
        assert_eq!(routing.mean_scores(), vec![0.5, 1.0]);
        let empty = LayerRouting::from_parts(LayerId(0), 0, vec![0; 2], vec![2.0, 4.0]);
        assert_eq!(empty.mean_scores(), vec![0.0, 0.0]);
    }
}
