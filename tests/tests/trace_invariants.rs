//! Property-based invariants on trace generation and the routing math.

use hybrimoe_model::{top_k, ExpertId, LayerRouting, ModelConfig, RouterOutput};
use hybrimoe_trace::{ActivationTrace, DecodeStream, TraceGenerator, TraceStep};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_loads_always_sum_to_k(seed in 0u64..1000, steps in 1usize..6) {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model.clone(), seed).decode_trace(steps);
        for step in &trace.steps {
            for rec in &step.layers {
                prop_assert_eq!(
                    rec.routing.loads().iter().sum::<u32>(),
                    model.activated_experts as u32
                );
            }
        }
    }

    #[test]
    fn prefill_loads_always_sum_to_tokens_times_k(seed in 0u64..1000, tokens in 1u32..64) {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model.clone(), seed).prefill_trace(tokens);
        let rec = &trace.steps[0].layers[0];
        prop_assert_eq!(
            rec.routing.loads().iter().sum::<u32>(),
            tokens * model.activated_experts as u32
        );
    }

    #[test]
    fn score_mass_per_token_is_one(seed in 0u64..1000) {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model, seed).decode_trace(2);
        for step in &trace.steps {
            for rec in &step.layers {
                let mass: f32 = rec.routing.score_mass().iter().sum();
                prop_assert!((mass - step.tokens as f32).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn traces_round_trip_through_json(seed in 0u64..100) {
        let trace = TraceGenerator::new(ModelConfig::tiny_test(), seed).decode_trace(2);
        let json = trace.to_json().unwrap();
        prop_assert_eq!(ActivationTrace::from_json(&json).unwrap(), trace);
    }

    #[test]
    fn router_selects_k_distinct_experts(
        logits in proptest::collection::vec(-5.0f32..5.0, 4..32),
        k in 1usize..4,
    ) {
        prop_assume!(k <= logits.len());
        let out = RouterOutput::route(&logits, k);
        prop_assert_eq!(out.selected.len(), k);
        let distinct: std::collections::HashSet<u16> =
            out.expert_ids().map(|e| e.0).collect();
        prop_assert_eq!(distinct.len(), k);
        // Combine weights are a distribution.
        let total: f32 = out.selected.iter().map(|(_, w)| w).sum();
        prop_assert!((total - 1.0).abs() < 1e-4);
        // Scores are a distribution over all experts.
        let mass: f32 = out.scores.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-4);
    }

    /// A decode token routed straight into a step that already holds a
    /// prompt chunk and other tokens lands there bit for bit as its own
    /// step would merge in, and a cleared step refills to what a fresh
    /// one fills to. Tiny-test and Mixtral route through the partial
    /// tile only, Qwen2 through full tiles only.
    #[test]
    fn routing_a_token_into_a_step_equals_absorbing_its_step(
        seed in 0u64..1000,
        model in 0usize..3,
        states in any::<bool>(),
        prompt in 1u32..24,
        held in 0u64..4,
    ) {
        let model = [ModelConfig::tiny_test(), ModelConfig::mixtral(), ModelConfig::qwen2()]
            [model]
            .clone();
        let generator = |seed: u64| {
            let g = TraceGenerator::new(model.clone(), seed);
            if states { g.with_token_states() } else { g }
        };
        let (chunk, first) = generator(seed).request(prompt);
        // One stream per token: the prompt's own, then `held` others.
        let streams: Vec<DecodeStream> = std::iter::once(first)
            .chain((1..=held).map(|i| generator(seed + i).decode_stream()))
            .collect();

        let mut merged = generator(seed).empty_step();
        merged.absorb(chunk.clone());
        for stream in &mut streams.clone() {
            merged.absorb(stream.next_step());
        }
        let fill = |step: &mut TraceStep| {
            step.absorb(chunk.clone());
            for stream in &mut streams.clone() {
                stream.next_step_into(step);
            }
        };
        let mut routed = generator(seed).empty_step();
        fill(&mut routed);
        prop_assert_eq!(step_bits(&routed), step_bits(&merged));

        routed.clear();
        prop_assert_eq!(&routed, &generator(seed).empty_step());
        fill(&mut routed);
        prop_assert_eq!(step_bits(&routed), step_bits(&merged));
    }

    #[test]
    fn predicted_layers_are_always_future_layers(seed in 0u64..200) {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model, seed).decode_trace(2);
        for step in &trace.steps {
            for (l, rec) in step.layers.iter().enumerate() {
                for (d, pred) in rec.predicted.iter().enumerate() {
                    prop_assert_eq!(pred.layer().0 as usize, l + d + 1);
                }
            }
        }
    }

    #[test]
    fn top_k_equals_sort_and_truncate_with_ties(
        raw in proptest::collection::vec(-4.0f32..4.0, 1..65),
        levels in proptest::collection::vec(0u8..5, 64),
        k in 1usize..65,
    ) {
        let scores = with_ties(&raw, &levels);
        for k in [k, 1, scores.len(), scores.len() + 1] {
            prop_assert_eq!(bits(&top_k(&scores, k)), bits(&reference_top_k(&scores, k)));
        }
    }

    #[test]
    fn route_equals_sort_and_truncate_with_ties(
        raw in proptest::collection::vec(-6.0f32..6.0, 1..65),
        levels in proptest::collection::vec(0u8..5, 64),
        k in 1usize..65,
    ) {
        // Tied logits give tied scores; so do distinct logits that round
        // to one score.
        let logits = with_ties(&raw, &levels);
        let k = 1 + (k - 1) % logits.len();
        let got = RouterOutput::route(&logits, k);
        let want = reference_route(&logits, k);
        prop_assert_eq!(bits_of(&got.scores), bits_of(&want.scores));
        let selected = |r: &RouterOutput| -> Vec<(u16, u32)> {
            r.selected.iter().map(|(e, w)| (e.0, w.to_bits())).collect()
        };
        prop_assert_eq!(selected(&got), selected(&want));
    }
}

/// `raw` with the entries whose level is nonzero replaced by one of a few
/// shared values (including both zeros), so most draws hold exact ties.
fn with_ties(raw: &[f32], levels: &[u8]) -> Vec<f32> {
    raw.iter()
        .zip(levels)
        .map(|(&r, &level)| match level {
            0 => r,
            1 => 1.5,
            2 => 0.0,
            3 => -0.0,
            _ => -2.25,
        })
        .collect()
}

/// Everything a step holds, floats as bits: per layer the true and
/// predicted routings (layer, tokens, loads, score masses) and the token
/// states.
fn step_bits(step: &TraceStep) -> (u32, Vec<StepLayerBits>) {
    let routing = |r: &LayerRouting| RoutingBits {
        layer: r.layer().0,
        tokens: r.tokens(),
        loads: r.loads().to_vec(),
        mass: bits_of(r.score_mass()),
    };
    let layers = step
        .layers
        .iter()
        .map(|rec| StepLayerBits {
            routing: routing(&rec.routing),
            predicted: rec.predicted.iter().map(routing).collect(),
            states: rec.states.as_ref().map(|s| {
                let inputs = s.inputs.iter().map(|x| bits_of(x)).collect();
                let routes = s
                    .routes
                    .iter()
                    .map(|r| {
                        let selected = r.selected.iter().map(|(e, w)| (e.0, w.to_bits()));
                        (bits_of(&r.scores), selected.collect())
                    })
                    .collect();
                (inputs, routes)
            }),
        })
        .collect();
    (step.tokens, layers)
}

#[derive(Debug, PartialEq)]
struct RoutingBits {
    layer: u16,
    tokens: u32,
    loads: Vec<u32>,
    mass: Vec<u32>,
}

/// Per-token inputs, and per-token scores and selected `(expert, weight)`.
type StatesBits = (Vec<Vec<u32>>, Vec<(Vec<u32>, Vec<(u16, u32)>)>);

#[derive(Debug, PartialEq)]
struct StepLayerBits {
    routing: RoutingBits,
    predicted: Vec<RoutingBits>,
    states: Option<StatesBits>,
}

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits(top: &[(usize, f32)]) -> Vec<(usize, u32)> {
    top.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// Top-k as a stable sort by descending score, truncated.
fn reference_top_k(scores: &[f32], k: usize) -> Vec<(usize, f32)> {
    let mut indexed: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    indexed.truncate(k);
    indexed
}

/// Routing as separate softmax, sort-and-truncate and renormalize passes.
fn reference_route(logits: &[f32], k: usize) -> RouterOutput {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let scores: Vec<f32> = exps.into_iter().map(|e| e / sum).collect();
    let top = reference_top_k(&scores, k);
    let total: f32 = top.iter().map(|(_, s)| s).sum();
    let selected = top
        .into_iter()
        .map(|(i, s)| {
            (
                ExpertId(i as u16),
                if total > 0.0 { s / total } else { 0.0 },
            )
        })
        .collect();
    RouterOutput { scores, selected }
}
