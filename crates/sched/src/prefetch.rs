//! Inter-layer expert prefetching.
//!
//! While a layer computes, the PCIe link is often idle; prefetching experts
//! for upcoming layers into that idle time hides transfer latency. The
//! paper's contribution (§IV-C) is to rank candidates by **simulated
//! impact** — how much the next layers' makespan would shrink if the expert
//! were already cached — rather than by raw predicted probability.

use hybrimoe_hw::{CostModel, ExpertProfile, SimDuration};
use hybrimoe_model::{shard_of, ExpertId, ExpertKey, LayerId};

use crate::{ExpertTask, HybridScheduler, ScheduleContext, ScheduleQueues};

/// The predicted routing of one upcoming layer.
///
/// Predictions reuse the *current* hidden state on later routers (the
/// residual stream changes slowly across layers, §IV-C), so accuracy decays
/// with distance; the trace layer models that decay.
#[derive(Debug, Clone)]
pub struct PredictedLayer {
    /// The layer being predicted.
    pub layer: LayerId,
    /// Predicted activated experts with predicted loads, `cached` reflecting
    /// *current* cache residency.
    pub tasks: Vec<ExpertTask>,
    /// Predicted mean router scores over all experts of the layer.
    pub scores: Vec<f32>,
}

/// Everything a [`Prefetcher`] may consult.
#[derive(Debug)]
pub struct PrefetchContext<'a> {
    /// The layer that just finished scheduling.
    pub current_layer: LayerId,
    /// Predictions for the next layers (typically 3), nearest first.
    pub lookahead: &'a [PredictedLayer],
    /// The most picks a plan may return. The engine passes the free slots
    /// of its background transfer queue (`EngineConfig::max_inflight`
    /// minus the transfers queued), not free GPU cache slots: a prefetch
    /// that lands at decode may evict (`insert_protected`, which spares
    /// the running layer's experts); at prefill it takes only a free slot
    /// unless `prefill_evict_inserts` is set.
    pub free_slots: usize,
    /// PCIe time the plan may spend **per lane**. The engine passes
    /// `transfer_time × free_slots`, room for one transfer per free queue
    /// slot, not the layer's idle PCIe time: picks wait in the background
    /// queue, which drains them in this and later layers' idle windows.
    /// Every GPU shard owns its own PCIe lane, so with `N` shards the total
    /// transferable volume is `N` times this budget; the selection fills
    /// each lane independently.
    pub budget: SimDuration,
    /// Token count of the current batch.
    pub tokens: u32,
    /// Cost profile of a routed expert.
    pub routed_profile: ExpertProfile,
    /// Combined shared-expert profile, if any.
    pub shared_profile: Option<ExpertProfile>,
    /// The platform cost model.
    pub cost: &'a dyn CostModel,
    /// Number of GPU shards of the platform: the impact simulation re-runs
    /// the hybrid schedule with the same shard layout the engine executes,
    /// so prefetch ranking stays device-local.
    pub num_gpus: usize,
    /// Per-distance prediction confidence in `(0, 1]`, nearest layer
    /// first; when present it replaces the impact-driven prefetcher's
    /// geometric distance discount. Vestigial: the engine always passes
    /// `None` (nothing in the repo measures a confidence any more); the
    /// field stays only because the frozen `benchmark/` builds this struct
    /// literally.
    pub confidence: Option<&'a [f64]>,
    /// Free cache slots per GPU shard: a candidate whose affinity shard
    /// (`shard_of(expert)`) has none left is skipped. Vestigial like
    /// [`confidence`](Self::confidence): the engine always passes `None`
    /// (its inserts may evict, so no shard is ever "full").
    pub shard_free: Option<&'a [usize]>,
}

/// Reusable buffers for one prefetch plan after another: the ranking and
/// selection lists, the scheduler queues and task set the impact-driven
/// simulation re-runs on, and the per-layer memo holding one simulated
/// makespan per impact class, which every candidate of the class reads.
/// The engine plans a prefetch on every layer of every step; with a
/// `PrefetchScratch` kept across calls that planning allocates nothing in
/// steady state.
#[derive(Debug, Default, Clone)]
pub struct PrefetchScratch {
    queues: ScheduleQueues,
    tasks: Vec<ExpertTask>,
    with_memo: Vec<(ImpactClass, SimDuration)>,
    ranked: Vec<(f64, ExpertKey)>,
    lane_used: Vec<usize>,
    shard_left: Vec<usize>,
    picks: Vec<ExpertKey>,
}

/// A prefetching policy: returns the expert keys to transfer during idle
/// PCIe time, best candidate first.
pub trait Prefetcher: std::fmt::Debug + Send + Sync {
    /// A short stable name for reports.
    fn name(&self) -> &str;

    /// Ranks and caps the prefetch candidates for this step, working in
    /// (and returning a view of) the caller's reusable `scratch`.
    fn plan_with<'s>(
        &self,
        ctx: &PrefetchContext<'_>,
        scratch: &'s mut PrefetchScratch,
    ) -> &'s [ExpertKey];

    /// [`plan_with`](Self::plan_with) on fresh buffers, for one-off calls.
    fn plan(&self, ctx: &PrefetchContext<'_>) -> Vec<ExpertKey> {
        self.plan_with(ctx, &mut PrefetchScratch::default())
            .to_vec()
    }
}

/// No prefetching (the ablation baseline).
#[derive(Debug, Default, Clone)]
pub struct NoPrefetcher {}

impl NoPrefetcher {
    /// Creates the no-op prefetcher.
    pub fn new() -> Self {
        NoPrefetcher {}
    }
}

impl Prefetcher for NoPrefetcher {
    fn name(&self) -> &str {
        "none"
    }

    fn plan_with<'s>(
        &self,
        _ctx: &PrefetchContext<'_>,
        _scratch: &'s mut PrefetchScratch,
    ) -> &'s [ExpertKey] {
        &[]
    }
}

/// Probability-ranked prefetching of the immediately following layer
/// (the strategy of prior work such as AdapMoE / Pre-gated MoE): pick the
/// highest-scoring uncached experts of layer `current + 1`.
#[derive(Debug, Default, Clone)]
pub struct NextLayerTopKPrefetcher {}

impl NextLayerTopKPrefetcher {
    /// Creates the next-layer top-K prefetcher.
    pub fn new() -> Self {
        NextLayerTopKPrefetcher {}
    }
}

impl Prefetcher for NextLayerTopKPrefetcher {
    fn name(&self) -> &str {
        "next-layer-topk"
    }

    fn plan_with<'s>(
        &self,
        ctx: &PrefetchContext<'_>,
        scratch: &'s mut PrefetchScratch,
    ) -> &'s [ExpertKey] {
        scratch.ranked.clear();
        if let Some(next) = ctx.lookahead.first() {
            scratch
                .ranked
                .extend(next.tasks.iter().filter(|t| !t.cached).map(|t| {
                    let score = next.scores.get(t.expert.0 as usize).copied().unwrap_or(0.0);
                    (f64::from(score), ExpertKey::new(next.layer, t.expert))
                }));
        }
        select_across_lanes(ctx, scratch)
    }
}

/// The paper's **impact-driven** prefetcher (§IV-C).
///
/// For every uncached predicted-activated expert of the next `lookahead`
/// layers, re-run the hybrid scheduling simulation with that expert marked
/// cached; its *impact* is the simulated makespan reduction, discounted by
/// prediction confidence for farther layers. Candidates are ranked by
/// *expected* impact — the impact times the candidate's predicted router
/// probability (its entry in [`PredictedLayer::scores`]; `1` when the
/// layer carries no scores) — and picked in that order until
/// [`PrefetchContext::free_slots`] picks are made, skipping a candidate
/// whose lane has spent its [`PrefetchContext::budget`]. At one-token
/// decode every load is 1, so the candidates of a layer gain alike and
/// the probability decides.
///
/// Every uncached candidate is scored; none is skipped on a bound. The
/// simulations are shared instead: candidates of the same load on the
/// same shard make the same makespan when cached, so a predicted layer
/// runs one base simulation and one with-expert simulation per such class
/// (with more than one GPU a class also splits where an equal-load expert
/// of another shard sits between two candidates in id order, since the
/// greedy orders equal loads by id across shards). Each candidate still
/// weighs the shared makespan by its own probability, so gains, ranking
/// and picks are those of one simulation per candidate. At one-token
/// decode on one GPU a predicted layer costs two simulations, whatever
/// its candidates.
///
/// # Example
///
/// ```
/// use hybrimoe_hw::{SimDuration, UnitCostModel};
/// use hybrimoe_model::{ExpertId, LayerId};
/// use hybrimoe_sched::{
///     ExpertTask, ImpactDrivenPrefetcher, PredictedLayer, PrefetchContext, Prefetcher,
/// };
///
/// let cost = UnitCostModel::paper_fig5();
/// let next = PredictedLayer {
///     layer: LayerId(1),
///     tasks: vec![
///         ExpertTask::uncached(ExpertId(0), 6), // heavy: caching it helps a lot
///         ExpertTask::uncached(ExpertId(1), 1), // light: CPU handles it anyway
///     ],
///     scores: vec![0.6, 0.4],
/// };
/// let ctx = PrefetchContext {
///     current_layer: LayerId(0),
///     lookahead: &[next],
///     free_slots: 1,
///     budget: SimDuration::from_micros(3),
///     tokens: 6,
///     routed_profile: hybrimoe_hw::ExpertProfile::new(1, 1),
///     shared_profile: None,
///     cost: &cost,
///     num_gpus: 1,
///     confidence: None,
///     shard_free: None,
/// };
/// let picks = ImpactDrivenPrefetcher::new().plan(&ctx);
/// assert_eq!(picks.len(), 1);
/// assert_eq!(picks[0].expert, ExpertId(0));
/// ```
#[derive(Debug, Default, Clone)]
pub struct ImpactDrivenPrefetcher {}

/// Confidence discount of the impact-driven ranking per layer of distance
/// beyond the next one.
const DISTANCE_DISCOUNT: f64 = 0.6;

impl ImpactDrivenPrefetcher {
    /// Creates the impact-driven prefetcher.
    pub fn new() -> Self {
        ImpactDrivenPrefetcher {}
    }
}

impl Prefetcher for ImpactDrivenPrefetcher {
    fn name(&self) -> &str {
        "impact-driven"
    }

    fn plan_with<'s>(
        &self,
        ctx: &PrefetchContext<'_>,
        scratch: &'s mut PrefetchScratch,
    ) -> &'s [ExpertKey] {
        scratch.ranked.clear();
        let scheduler = HybridScheduler::new();
        for (distance, predicted) in ctx.lookahead.iter().enumerate() {
            let discount = confidence_discount(ctx, distance);
            let base = simulate_makespan(&scheduler, ctx, predicted, None, scratch);
            scratch.with_memo.clear();
            for t in predicted.tasks.iter().filter(|t| !t.cached) {
                let with = with_makespan(&scheduler, ctx, predicted, t, scratch);
                let gain = base.saturating_sub(with).as_nanos() as f64
                    * discount
                    * probability(predicted, t.expert);
                if gain > 0.0 {
                    scratch
                        .ranked
                        .push((gain, ExpertKey::new(predicted.layer, t.expert)));
                }
            }
        }
        select_across_lanes(ctx, scratch)
    }
}

/// The predicted router probability of `expert` in `predicted`: its entry
/// in [`PredictedLayer::scores`], or `1` when the scores hold none for it.
fn probability(predicted: &PredictedLayer, expert: ExpertId) -> f64 {
    predicted
        .scores
        .get(expert.0 as usize)
        .map_or(1.0, |p| f64::from(*p))
}

/// The per-distance gain discount: the context's confidence when it
/// carries one, the geometric [`DISTANCE_DISCOUNT`] decay otherwise.
fn confidence_discount(ctx: &PrefetchContext<'_>, distance: usize) -> f64 {
    ctx.confidence
        .and_then(|c| c.get(distance))
        .copied()
        .unwrap_or_else(|| DISTANCE_DISCOUNT.powi(distance as i32))
}

/// How many transfers one PCIe lane's budget admits.
fn per_lane_cap(ctx: &PrefetchContext<'_>) -> usize {
    let per_transfer = ctx.cost.transfer(&ctx.routed_profile);
    if per_transfer == SimDuration::ZERO {
        usize::MAX
    } else {
        (ctx.budget.as_nanos() / per_transfer.as_nanos()) as usize
    }
}

/// Ranks `scratch.ranked` (highest value first, ties to the smaller key)
/// and walks it admitting keys while capacity lasts: each GPU shard's PCIe
/// lane has its own transfer budget (a full lane skips the candidate
/// rather than ending selection, so idle lanes keep filling), the global
/// `free_slots` bound caps the total, and — when the context carries
/// per-shard free-slot counts — a candidate whose affinity shard is out of
/// slots is skipped because its transfer could never land. With one GPU
/// this degenerates to the classic `min(budget/transfer, free_slots)`
/// prefix.
fn select_across_lanes<'s>(
    ctx: &PrefetchContext<'_>,
    scratch: &'s mut PrefetchScratch,
) -> &'s [ExpertKey] {
    let PrefetchScratch {
        ranked,
        lane_used,
        shard_left,
        picks,
        ..
    } = scratch;
    // Keys are unique, so the order is total and the unstable sort exact.
    ranked.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let lanes = ctx.num_gpus.max(1);
    let per_lane = per_lane_cap(ctx);
    lane_used.clear();
    lane_used.resize(lanes, 0);
    shard_left.clear();
    shard_left.extend_from_slice(ctx.shard_free.unwrap_or(&[]));
    picks.clear();
    for (_, key) in ranked.iter() {
        if picks.len() >= ctx.free_slots {
            break;
        }
        let lane = shard_of(key.expert, lanes);
        if lane_used[lane] >= per_lane {
            continue;
        }
        if ctx.shard_free.is_some() {
            match shard_left.get_mut(lane) {
                Some(slots) if *slots > 0 => *slots -= 1,
                _ => continue,
            }
        }
        lane_used[lane] += 1;
        picks.push(*key);
    }
    picks
}

/// The candidates of one predicted layer whose with-expert simulations
/// are the same simulation.
///
/// The hybrid scheduler costs an expert by its load alone and places it by
/// its shard, and the prefetch simulations carry no in-flight transfers.
/// Expert ids only break ties between equal loads: within one shard's
/// queues equal-load experts are interchangeable, but the CPU queue and
/// its steals order equal loads across shards. So two candidates of the
/// same load on the same shard make the same makespan when cached unless
/// an equal-load expert of another shard sits between them in id order;
/// `rank` counts those below the candidate. With one GPU it is always 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ImpactClass {
    load: u32,
    shard: usize,
    rank: usize,
}

impl ImpactClass {
    fn of(predicted: &PredictedLayer, candidate: &ExpertTask, num_gpus: usize) -> Self {
        let shard = shard_of(candidate.expert, num_gpus);
        let rank = predicted
            .tasks
            .iter()
            .filter(|t| {
                t.load == candidate.load
                    && t.expert < candidate.expert
                    && shard_of(t.expert, num_gpus) != shard
            })
            .count();
        ImpactClass {
            load: candidate.load,
            shard,
            rank,
        }
    }
}

/// Simulated makespan of `predicted` with `candidate` treated as cached,
/// simulated once per [`ImpactClass`] of the layer: later candidates of a
/// class reuse the first one's from `scratch.with_memo`, which the caller
/// clears per predicted layer.
fn with_makespan(
    scheduler: &HybridScheduler,
    ctx: &PrefetchContext<'_>,
    predicted: &PredictedLayer,
    candidate: &ExpertTask,
    scratch: &mut PrefetchScratch,
) -> SimDuration {
    let class = ImpactClass::of(predicted, candidate, ctx.num_gpus.max(1));
    if let Some(&(_, with)) = scratch.with_memo.iter().find(|(c, _)| *c == class) {
        return with;
    }
    let with = simulate_makespan(scheduler, ctx, predicted, Some(candidate.expert), scratch);
    scratch.with_memo.push((class, with));
    with
}

/// Simulated makespan of a predicted layer, optionally with one extra
/// expert treated as cached.
fn simulate_makespan(
    scheduler: &HybridScheduler,
    ctx: &PrefetchContext<'_>,
    predicted: &PredictedLayer,
    extra_cached: Option<ExpertId>,
    scratch: &mut PrefetchScratch,
) -> SimDuration {
    scratch.tasks.clear();
    scratch
        .tasks
        .extend(predicted.tasks.iter().map(|t| ExpertTask {
            cached: t.cached || Some(t.expert) == extra_cached,
            ..*t
        }));
    let sched_ctx = ScheduleContext::new(
        predicted.layer,
        ctx.tokens,
        &scratch.tasks,
        ctx.routed_profile,
        ctx.shared_profile,
        ctx.cost,
    )
    .with_gpus(ctx.num_gpus.max(1));
    scheduler.makespan(&sched_ctx, &mut scratch.queues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrimoe_hw::{AffineCostModel, Platform, UnitCostModel};
    use hybrimoe_model::ModelConfig;
    use proptest::collection::vec;
    use proptest::prelude::{any, ProptestConfig};

    fn ctx<'a>(
        lookahead: &'a [PredictedLayer],
        free_slots: usize,
        budget_us: u64,
        cost: &'a UnitCostModel,
    ) -> PrefetchContext<'a> {
        PrefetchContext {
            current_layer: LayerId(0),
            lookahead,
            free_slots,
            budget: SimDuration::from_micros(budget_us),
            tokens: 8,
            routed_profile: ExpertProfile::new(1, 1),
            shared_profile: None,
            cost,
            num_gpus: 1,
            confidence: None,
            shard_free: None,
        }
    }

    fn predicted(layer: u16, tasks: Vec<ExpertTask>) -> PredictedLayer {
        let n = tasks.iter().map(|t| t.expert.0 + 1).max().unwrap_or(0);
        let scores = (0..n).map(|i| 1.0 / (i + 1) as f32).collect();
        PredictedLayer {
            layer: LayerId(layer),
            tasks,
            scores,
        }
    }

    #[test]
    fn no_prefetcher_returns_empty() {
        let cost = UnitCostModel::paper_fig5();
        let look = [predicted(1, vec![ExpertTask::uncached(ExpertId(0), 5)])];
        assert!(NoPrefetcher::new()
            .plan(&ctx(&look, 8, 100, &cost))
            .is_empty());
    }

    #[test]
    fn impact_prefers_high_gain_expert() {
        let cost = UnitCostModel::paper_fig5();
        // Heavy uncached expert: caching it moves 8 CPU units to 1 GPU unit.
        // Light one: CPU absorbs it with negligible cost.
        let look = [predicted(
            1,
            vec![
                ExpertTask::uncached(ExpertId(0), 8),
                ExpertTask::uncached(ExpertId(1), 1),
            ],
        )];
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 2, 100, &cost));
        assert!(!picks.is_empty());
        assert_eq!(picks[0], ExpertKey::new(LayerId(1), ExpertId(0)));
    }

    #[test]
    fn impact_skips_cached_and_zero_gain() {
        let cost = UnitCostModel::paper_fig5();
        let look = [predicted(
            1,
            vec![
                ExpertTask::cached(ExpertId(0), 8),
                // Light task that the CPU absorbs in parallel: zero gain.
                ExpertTask::uncached(ExpertId(1), 1),
            ],
        )];
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 2, 100, &cost));
        assert!(picks.is_empty(), "{picks:?}");
    }

    #[test]
    fn budget_caps_count() {
        let cost = UnitCostModel::paper_fig5(); // transfers take 3us
                                                // Two high-gain candidates across two layers (the single-layer
                                                // variant is exercised by impact_prefers_high_gain_expert).
        let look = [
            predicted(1, vec![ExpertTask::uncached(ExpertId(0), 8)]),
            predicted(2, vec![ExpertTask::uncached(ExpertId(0), 8)]),
        ];
        // A generous budget admits both...
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 8, 100, &cost));
        assert_eq!(picks.len(), 2);
        // ...a 7us budget fits only two 3us transfers, 5us only one...
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 8, 5, &cost));
        assert_eq!(picks.len(), 1);
        // ...a budget below one transfer admits none...
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 8, 2, &cost));
        assert!(picks.is_empty());
        // ...and free slots can be the binding constraint too.
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 1, 100, &cost));
        assert_eq!(picks.len(), 1);
    }

    #[test]
    fn equal_gains_go_to_the_more_probable_expert() {
        let cost = UnitCostModel::paper_fig5();
        // One-token decode: caching either expert saves the same CPU unit,
        // so the router probability breaks the tie — not the expert id.
        let look = [PredictedLayer {
            layer: LayerId(1),
            tasks: vec![
                ExpertTask::uncached(ExpertId(0), 1),
                ExpertTask::uncached(ExpertId(1), 1),
            ],
            scores: vec![0.2, 0.7],
        }];
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 1, 100, &cost));
        assert_eq!(picks, vec![ExpertKey::new(LayerId(1), ExpertId(1))]);
    }

    #[test]
    fn nearer_layer_wins_on_equal_shape() {
        let cost = UnitCostModel::paper_fig5();
        let look = [
            predicted(1, vec![ExpertTask::uncached(ExpertId(0), 8)]),
            predicted(2, vec![ExpertTask::uncached(ExpertId(0), 8)]),
        ];
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 2, 100, &cost));
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0].layer, LayerId(1), "discounted farther layer");
        assert_eq!(picks[1].layer, LayerId(2));
    }

    #[test]
    fn next_layer_topk_ranks_by_score() {
        let cost = UnitCostModel::paper_fig5();
        let look = [PredictedLayer {
            layer: LayerId(1),
            tasks: vec![
                ExpertTask::uncached(ExpertId(0), 1),
                ExpertTask::uncached(ExpertId(1), 1),
                ExpertTask::cached(ExpertId(2), 1),
            ],
            scores: vec![0.1, 0.8, 0.1],
        }];
        let picks = NextLayerTopKPrefetcher::new().plan(&ctx(&look, 8, 100, &cost));
        assert_eq!(picks[0], ExpertKey::new(LayerId(1), ExpertId(1)));
        // The cached expert is never prefetched.
        assert!(picks.iter().all(|k| k.expert != ExpertId(2)));
    }

    #[test]
    fn empty_lookahead_yields_nothing() {
        let cost = UnitCostModel::paper_fig5();
        for p in [
            Box::new(ImpactDrivenPrefetcher::new()) as Box<dyn Prefetcher>,
            Box::new(NextLayerTopKPrefetcher::new()),
        ] {
            assert!(p.plan(&ctx(&[], 8, 100, &cost)).is_empty());
        }
    }

    #[test]
    fn per_lane_budget_fills_idle_lanes() {
        let cost = UnitCostModel::paper_fig5(); // transfers take 3us
                                                // One high-gain expert per layer, on different shards of a
                                                // 2-GPU platform (expert 0 → shard 0, expert 1 → shard 1).
        let look = [
            predicted(1, vec![ExpertTask::uncached(ExpertId(0), 8)]),
            predicted(2, vec![ExpertTask::uncached(ExpertId(1), 8)]),
        ];
        // 5us fits one transfer per lane; a global budget would admit one
        // total, but each lane fills independently.
        let mut c = ctx(&look, 8, 5, &cost);
        c.num_gpus = 2;
        let picks = ImpactDrivenPrefetcher::new().plan(&c);
        assert_eq!(picks.len(), 2, "{picks:?}");
        let lanes: Vec<usize> = picks.iter().map(|k| shard_of(k.expert, 2)).collect();
        assert!(lanes.contains(&0) && lanes.contains(&1));
        // Same-shard candidates still respect the one-per-lane cap.
        let look = [
            predicted(1, vec![ExpertTask::uncached(ExpertId(0), 8)]),
            predicted(2, vec![ExpertTask::uncached(ExpertId(2), 8)]),
            predicted(3, vec![ExpertTask::uncached(ExpertId(4), 8)]),
        ];
        let mut c = ctx(&look, 8, 5, &cost);
        c.num_gpus = 2;
        let picks = ImpactDrivenPrefetcher::new().plan(&c);
        assert_eq!(picks.len(), 1, "{picks:?}");
    }

    #[test]
    fn full_affinity_shard_skips_candidate() {
        let cost = UnitCostModel::paper_fig5();
        let look = [
            predicted(1, vec![ExpertTask::uncached(ExpertId(0), 8)]), // shard 0
            predicted(2, vec![ExpertTask::uncached(ExpertId(1), 8)]), // shard 1
        ];
        let shard_free = [0usize, 1];
        let mut c = ctx(&look, 8, 100, &cost);
        c.num_gpus = 2;
        c.shard_free = Some(&shard_free);
        let picks = ImpactDrivenPrefetcher::new().plan(&c);
        assert_eq!(picks, vec![ExpertKey::new(LayerId(2), ExpertId(1))]);
        // No shard space at all: nothing is picked.
        let none = [0usize, 0];
        c.shard_free = Some(&none);
        assert!(ImpactDrivenPrefetcher::new().plan(&c).is_empty());
    }

    #[test]
    fn confidence_overrides_distance_discount() {
        let cost = UnitCostModel::paper_fig5();
        let look = [
            predicted(1, vec![ExpertTask::uncached(ExpertId(0), 8)]),
            predicted(2, vec![ExpertTask::uncached(ExpertId(0), 8)]),
        ];
        // Measured confidence says the farther layer is the *reliable*
        // one: the ordering of nearer_layer_wins_on_equal_shape flips.
        let confidence = [0.1, 1.0];
        let mut c = ctx(&look, 2, 100, &cost);
        c.confidence = Some(&confidence);
        let picks = ImpactDrivenPrefetcher::new().plan(&c);
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0].layer, LayerId(2));
        assert_eq!(picks[1].layer, LayerId(1));
    }

    #[test]
    fn one_slot_takes_the_best_candidate() {
        let cost = UnitCostModel::paper_fig5();
        // Several candidates, one slot: the plan selects exactly the
        // highest-gain expert, the heavy one of the nearest layer.
        let look = [
            predicted(1, vec![ExpertTask::uncached(ExpertId(0), 8)]),
            predicted(2, vec![ExpertTask::uncached(ExpertId(0), 3)]),
            predicted(3, vec![ExpertTask::uncached(ExpertId(0), 2)]),
        ];
        let picks = ImpactDrivenPrefetcher::new().plan(&ctx(&look, 1, 100, &cost));
        assert_eq!(picks, vec![ExpertKey::new(LayerId(1), ExpertId(0))]);
    }

    #[test]
    fn a_candidate_below_the_best_gains_fills_an_idle_lane() {
        let cost = UnitCostModel::paper_fig5(); // transfers take 3us
                                                // Two GPUs, one 3us transfer per lane, two slots. Layer 1's E0 and
                                                // E2 both sit on shard 0 and outgain layer 2's E1 (discounted by
                                                // distance), so E1 ranks third, below the two best gains. E0 takes
                                                // lane 0, E2 finds it full, and E1 fills lane 1.
        let look = [
            PredictedLayer {
                layer: LayerId(1),
                tasks: vec![
                    ExpertTask::uncached(ExpertId(0), 8),
                    ExpertTask::uncached(ExpertId(2), 8),
                ],
                scores: vec![1.0; 3],
            },
            PredictedLayer {
                layer: LayerId(2),
                tasks: vec![ExpertTask::uncached(ExpertId(1), 8)],
                scores: vec![1.0; 2],
            },
        ];
        let mut c = ctx(&look, 2, 3, &cost);
        c.num_gpus = 2;
        let picks = ImpactDrivenPrefetcher::new().plan(&c);
        assert_eq!(
            picks,
            vec![
                ExpertKey::new(LayerId(1), ExpertId(0)),
                ExpertKey::new(LayerId(2), ExpertId(1)),
            ]
        );
        assert_eq!(picks, plan_per_candidate(&c));
    }

    /// §IV-C stated directly, the reference the impact-driven plan must
    /// match: simulate the predicted layer with each uncached candidate
    /// cached, rank the candidates by their gains, select.
    fn plan_per_candidate(ctx: &PrefetchContext<'_>) -> Vec<ExpertKey> {
        let mut scratch = PrefetchScratch::default();
        let scheduler = HybridScheduler::new();
        for (distance, predicted) in ctx.lookahead.iter().enumerate() {
            let discount = confidence_discount(ctx, distance);
            let base = simulate_makespan(&scheduler, ctx, predicted, None, &mut scratch);
            for t in predicted.tasks.iter().filter(|t| !t.cached) {
                let with =
                    simulate_makespan(&scheduler, ctx, predicted, Some(t.expert), &mut scratch);
                let gain = base.saturating_sub(with).as_nanos() as f64
                    * discount
                    * probability(predicted, t.expert);
                if gain > 0.0 {
                    scratch
                        .ranked
                        .push((gain, ExpertKey::new(predicted.layer, t.expert)));
                }
            }
        }
        select_across_lanes(ctx, &mut scratch).to_vec()
    }

    /// A predicted layer from `(expert, load level, cached)` draws:
    /// duplicate experts dropped, and the four load levels spread over
    /// `1..=tokens`, so equal loads on different shards are common. Router
    /// scores come from `scores` (an empty list leaves every weight at 1).
    fn drawn_layer(
        layer: u16,
        tokens: u32,
        draws: &[(u16, u32, bool)],
        scores: &[u16],
    ) -> PredictedLayer {
        let mut tasks: Vec<ExpertTask> = Vec::new();
        for &(expert, level, cached) in draws {
            if tasks.iter().all(|t| t.expert.0 != expert) {
                tasks.push(ExpertTask {
                    expert: ExpertId(expert),
                    load: 1 + level * (tokens - 1) / 3,
                    cached,
                });
            }
        }
        PredictedLayer {
            layer: LayerId(layer),
            tasks,
            scores: scores.iter().map(|&s| f32::from(s) / 100.0).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(8192))]
        #[test]
        fn one_simulation_per_class_plans_like_one_per_candidate(
            num_gpus in 1usize..4,
            tokens in 1u32..65,
            free_slots in 1usize..5,
            budget_us in 0u64..40,
            affine in any::<bool>(),
            layers in vec(
                (vec((0u16..20, 0u32..4, any::<bool>()), 1..16), vec(0u16..100, 0..20)),
                1..4,
            ),
        ) {
            let unit = UnitCostModel::paper_fig5();
            let platform = AffineCostModel::from_platform(&Platform::a6000_xeon10());
            let model = ModelConfig::deepseek();
            let lookahead: Vec<PredictedLayer> = layers
                .iter()
                .enumerate()
                .map(|(i, (draws, scores))| drawn_layer(i as u16 + 1, tokens, draws, scores))
                .collect();
            let mut ctx = ctx(&lookahead, free_slots, budget_us, &unit);
            ctx.tokens = tokens;
            ctx.num_gpus = num_gpus;
            if affine {
                ctx.cost = &platform;
                ctx.routed_profile = model.routed_profile();
                ctx.shared_profile = model.shared_profile();
                ctx.budget = platform.transfer(&ctx.routed_profile) * free_slots as u64;
            }
            let reference = plan_per_candidate(&ctx);
            let planned = ImpactDrivenPrefetcher::new().plan(&ctx);
            proptest::prop_assert_eq!(planned, reference);
        }
    }

    #[test]
    fn prefetcher_names_distinct() {
        let names = [
            NoPrefetcher::new().name().to_owned(),
            NextLayerTopKPrefetcher::new().name().to_owned(),
            ImpactDrivenPrefetcher::new().name().to_owned(),
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
