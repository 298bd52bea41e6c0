//! Trace data structures.

use hybrimoe_model::{LayerRouting, RouterOutput};
use serde::{Deserialize, Serialize};

/// Per-token hidden states and routing decisions at one layer — the
/// concrete inputs a real-execution backend needs to compute the layer's
/// numerical output (the analytic simulator only needs the aggregated
/// [`LayerRouting`]). Produced by
/// [`TraceGenerator::with_token_states`](crate::TraceGenerator::with_token_states);
/// deterministic per seed like everything else in a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TokenStates {
    /// Per-token hidden-state input to the layer, `hidden` floats each,
    /// in batch order.
    pub inputs: Vec<Vec<f32>>,
    /// Per-token routing decisions, same order as `inputs`.
    pub routes: Vec<RouterOutput>,
}

impl TokenStates {
    /// Number of tokens recorded.
    pub fn tokens(&self) -> usize {
        self.inputs.len()
    }

    /// Moves another batch's states onto the end of these (continuous-batching
    /// merge): the other step's tokens follow this step's tokens, matching
    /// the order in which [`LayerRouting::merge`] adds their loads.
    pub fn append(&mut self, mut other: TokenStates) {
        self.inputs.append(&mut other.inputs);
        self.routes.append(&mut other.routes);
    }
}

/// One layer's record within a forward pass: the true routing plus the
/// predicted routings of the following layers (computed from *this* layer's
/// hidden state, as the paper's prefetcher does).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerRecord {
    /// The true routing of this layer.
    pub routing: LayerRouting,
    /// Predicted routings for the next layers (nearest first, up to the
    /// generator's lookahead depth). Predictions use the current hidden
    /// state on the later routers, so their accuracy decays with distance.
    pub predicted: Vec<LayerRouting>,
    /// Per-token hidden states and routes for real execution, when the
    /// trace was generated with
    /// [`TraceGenerator::with_token_states`](crate::TraceGenerator::with_token_states).
    /// `None` for simulation-only traces.
    pub states: Option<TokenStates>,
}

/// One forward pass: a single decode token or one prefill batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStep {
    /// Tokens in this forward pass (1 for decode).
    pub tokens: u32,
    /// Per-layer records, in layer order.
    pub layers: Vec<LayerRecord>,
}

impl TraceStep {
    /// Merges the forward passes of several concurrent requests into one
    /// batched pass: per layer, loads and score masses add up, and the
    /// predicted routings of the lookahead layers merge elementwise. All
    /// inputs must come from the same model (same layer count, expert
    /// count and lookahead depth). A continuous batcher builds the same
    /// pass without whole parts: it [`absorb`](Self::absorb)s prompt chunks
    /// and routes decode tokens straight in with
    /// [`DecodeStream::next_step_into`](crate::DecodeStream::next_step_into).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or the steps' shapes disagree.
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_model::ModelConfig;
    /// use hybrimoe_trace::{TraceGenerator, TraceStep};
    ///
    /// let m = ModelConfig::tiny_test();
    /// let a = TraceGenerator::new(m.clone(), 1).decode_trace(1).steps.remove(0);
    /// let b = TraceGenerator::new(m, 2).decode_trace(1).steps.remove(0);
    /// let merged = TraceStep::merge(&[&a, &b]);
    /// assert_eq!(merged.tokens, 2);
    /// ```
    pub fn merge(steps: &[&TraceStep]) -> TraceStep {
        let (first, rest) = steps.split_first().expect("merging zero trace steps");
        let mut out = (*first).clone();
        for step in rest {
            out.absorb((*step).clone());
        }
        out
    }

    /// Merges `other`'s forward pass into this one in place, as
    /// [`merge`](Self::merge) merges its second step into its first. A
    /// part absorbed into a [`clear`](Self::clear)ed step keeps its bits:
    /// every score mass is `0.0 + m == m`. The part is consumed: its
    /// captured token states move over instead of being copied.
    ///
    /// # Panics
    ///
    /// Panics if the steps' shapes disagree.
    pub fn absorb(&mut self, other: TraceStep) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "merging steps of different models"
        );
        self.tokens += other.tokens;
        for (dst, src) in self.layers.iter_mut().zip(other.layers) {
            dst.routing.merge(&src.routing);
            assert_eq!(
                dst.predicted.len(),
                src.predicted.len(),
                "merging steps with different lookahead depths"
            );
            for (p, q) in dst.predicted.iter_mut().zip(src.predicted.iter()) {
                p.merge(q);
            }
            match (&mut dst.states, src.states) {
                (Some(d), Some(s)) => d.append(s),
                (None, None) => {}
                _ => panic!("merging steps with and without token states"),
            }
        }
    }

    /// Empties the step in place, keeping every buffer: zero tokens, every
    /// routing (true and predicted) cleared, captured token states emptied
    /// (but still present). A batcher
    /// clears one step per engine step and refills it, so a warm step
    /// allocates no trace buffers.
    pub fn clear(&mut self) {
        self.tokens = 0;
        for rec in &mut self.layers {
            rec.routing.clear();
            for p in &mut rec.predicted {
                p.clear();
            }
            if let Some(states) = &mut rec.states {
                states.inputs.clear();
                states.routes.clear();
            }
        }
    }
}

/// A recorded sequence of forward passes for one model.
///
/// Traces serialize to JSON so experiments can be replayed bit-for-bit.
///
/// # Example
///
/// ```
/// use hybrimoe_model::ModelConfig;
/// use hybrimoe_trace::TraceGenerator;
///
/// let trace = TraceGenerator::new(ModelConfig::tiny_test(), 7).decode_trace(4);
/// let json = trace.to_json().unwrap();
/// let back = hybrimoe_trace::ActivationTrace::from_json(&json).unwrap();
/// assert_eq!(trace, back);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivationTrace {
    /// Name of the model that produced the trace.
    pub model_name: String,
    /// Seed the generator used.
    pub seed: u64,
    /// The recorded forward passes.
    pub steps: Vec<TraceStep>,
}

impl ActivationTrace {
    /// Serializes the trace to JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a trace from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Total number of layer records across all steps.
    pub fn layer_records(&self) -> usize {
        self.steps.iter().map(|s| s.layers.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceGenerator;
    use hybrimoe_model::{LayerId, LayerRouting, ModelConfig};

    fn tiny_trace() -> ActivationTrace {
        ActivationTrace {
            model_name: "t".to_owned(),
            seed: 1,
            steps: vec![TraceStep {
                tokens: 1,
                layers: vec![LayerRecord {
                    routing: LayerRouting::from_parts(LayerId(0), 1, vec![1, 0], vec![0.9, 0.1]),
                    predicted: Vec::new(),
                    states: None,
                }],
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let t = tiny_trace();
        let json = t.to_json().unwrap();
        assert_eq!(ActivationTrace::from_json(&json).unwrap(), t);
    }

    #[test]
    fn layer_records_counts() {
        assert_eq!(tiny_trace().layer_records(), 1);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(ActivationTrace::from_json("not json").is_err());
    }

    #[test]
    fn merge_sums_tokens_and_loads() {
        let step = |load| TraceStep {
            tokens: 1,
            layers: vec![LayerRecord {
                routing: LayerRouting::from_parts(LayerId(0), 1, vec![load, 0], vec![0.5, 0.5]),
                predicted: vec![LayerRouting::from_parts(
                    LayerId(1),
                    1,
                    vec![0, load],
                    vec![0.5, 0.5],
                )],
                states: None,
            }],
        };
        let (a, b) = (step(1), step(2));
        let merged = TraceStep::merge(&[&a, &b]);
        assert_eq!(merged.tokens, 2);
        assert_eq!(merged.layers[0].routing.loads(), &[3, 0]);
        assert_eq!(merged.layers[0].predicted[0].loads(), &[0, 3]);
    }

    #[test]
    fn merge_of_one_is_identity() {
        let t = tiny_trace();
        let merged = TraceStep::merge(&[&t.steps[0]]);
        assert_eq!(merged, t.steps[0]);
    }

    #[test]
    #[should_panic(expected = "zero trace steps")]
    fn merge_rejects_empty() {
        let _ = TraceStep::merge(&[]);
    }

    fn step_with_states(value: f32) -> TraceStep {
        TraceStep {
            tokens: 1,
            layers: vec![LayerRecord {
                routing: LayerRouting::from_parts(LayerId(0), 1, vec![1, 0], vec![0.9, 0.1]),
                predicted: Vec::new(),
                states: Some(TokenStates {
                    inputs: vec![vec![value; 4]],
                    routes: vec![RouterOutput::route(&[1.0, 0.0], 1)],
                }),
            }],
        }
    }

    #[test]
    fn merge_concatenates_token_states_in_part_order() {
        let (a, b) = (step_with_states(0.1), step_with_states(0.2));
        let merged = TraceStep::merge(&[&a, &b]);
        let states = merged.layers[0].states.as_ref().unwrap();
        assert_eq!(states.tokens(), 2);
        assert_eq!(states.inputs[0], vec![0.1; 4]);
        assert_eq!(states.inputs[1], vec![0.2; 4]);
        assert_eq!(states.routes.len(), 2);
    }

    #[test]
    fn absorb_matches_merge() {
        let plain = |seed| {
            TraceGenerator::new(ModelConfig::tiny_test(), seed)
                .decode_trace(1)
                .steps
                .remove(0)
        };
        let with_states = |seed| {
            TraceGenerator::new(ModelConfig::tiny_test(), seed)
                .with_token_states()
                .request(5)
                .0
        };
        for parts in [
            [plain(1), plain(2), plain(3)],
            [with_states(1), with_states(2), with_states(3)],
        ] {
            let merged = TraceStep::merge(&parts.iter().collect::<Vec<_>>());
            let [mut first, rest @ ..] = parts;
            for part in rest {
                first.absorb(part);
            }
            assert_eq!(first, merged);
        }
    }

    #[test]
    #[should_panic(expected = "with and without token states")]
    fn merge_rejects_mixed_state_presence() {
        let a = step_with_states(0.1);
        let b = tiny_trace().steps.remove(0);
        let _ = TraceStep::merge(&[&a, &b]);
    }

    #[test]
    fn states_survive_json_round_trip() {
        let t = ActivationTrace {
            model_name: "t".to_owned(),
            seed: 1,
            steps: vec![step_with_states(0.3)],
        };
        let json = t.to_json().unwrap();
        assert_eq!(ActivationTrace::from_json(&json).unwrap(), t);
    }
}
