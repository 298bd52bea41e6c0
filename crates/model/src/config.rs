//! Full model architecture configurations (paper Table II).

use hybrimoe_hw::ExpertProfile;
use serde::{Deserialize, Serialize};

use crate::{ExpertId, ExpertKey, ExpertShape, LayerId};

/// The architecture of one MoE model, as consumed by the trace generator,
/// the cache and the scheduler.
///
/// The three presets mirror the paper's Table II, with one deliberate
/// deviation: the table lists Qwen2's routed expert as
/// `(3584, 18944)`, which is the *dense* FFN width of the Qwen2 7B model and
/// is inconsistent both with the published Qwen2-57B-A14B configuration
/// (`moe_intermediate_size = 2560`) and with the paper's own measured decode
/// latencies; [`ModelConfig::qwen2`] therefore uses `(3584, 2560)`.
///
/// # Example
///
/// ```
/// use hybrimoe_model::ModelConfig;
///
/// let ds = ModelConfig::deepseek();
/// assert_eq!(ds.shared_experts, 2);
/// assert_eq!(ds.total_routed_experts(), 26 * 64);
/// assert_eq!(ds.cache_capacity_for_ratio(0.25), 26 * 64 / 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable model name.
    pub name: String,
    /// Number of MoE transformer layers.
    pub layers: u16,
    /// Shared experts activated for every token (0 for Mixtral).
    pub shared_experts: u16,
    /// Routed experts per layer.
    pub routed_experts: u16,
    /// Routed experts activated per token (the K of top-K).
    pub activated_experts: u16,
    /// Shape of each shared expert, if any.
    pub shared_shape: Option<ExpertShape>,
    /// Shape of each routed expert.
    pub routed_shape: ExpertShape,
}

impl ModelConfig {
    /// Mixtral-8x7B-Instruct: few large experts, no shared expert.
    pub fn mixtral() -> Self {
        ModelConfig {
            name: "Mixtral-8x7B".to_owned(),
            layers: 32,
            shared_experts: 0,
            routed_experts: 8,
            activated_experts: 2,
            shared_shape: None,
            routed_shape: ExpertShape::new(4096, 14336),
        }
    }

    /// DeepSeek-V2-Lite-Chat: many small experts plus two shared experts.
    pub fn deepseek() -> Self {
        ModelConfig {
            name: "DeepSeek-V2-Lite".to_owned(),
            layers: 26,
            shared_experts: 2,
            routed_experts: 64,
            activated_experts: 6,
            shared_shape: Some(ExpertShape::new(2048, 1408)),
            routed_shape: ExpertShape::new(2048, 1408),
        }
    }

    /// Qwen2-57B-A14B-Instruct: many small experts plus one large shared
    /// expert (see the type-level note about the routed expert shape).
    pub fn qwen2() -> Self {
        ModelConfig {
            name: "Qwen2-57B-A14B".to_owned(),
            layers: 28,
            shared_experts: 1,
            routed_experts: 64,
            activated_experts: 8,
            shared_shape: Some(ExpertShape::new(3584, 20480)),
            routed_shape: ExpertShape::new(3584, 2560),
        }
    }

    /// A tiny configuration whose weights fit in memory, for real-execution
    /// tests and examples (not a paper model).
    pub fn tiny_test() -> Self {
        ModelConfig {
            name: "tiny-test".to_owned(),
            layers: 4,
            shared_experts: 1,
            routed_experts: 8,
            activated_experts: 2,
            shared_shape: Some(ExpertShape::new(64, 96)),
            routed_shape: ExpertShape::new(64, 96),
        }
    }

    /// The three paper models, in the order the figures list them.
    pub fn paper_models() -> Vec<ModelConfig> {
        vec![
            ModelConfig::deepseek(),
            ModelConfig::mixtral(),
            ModelConfig::qwen2(),
        ]
    }

    /// Total number of routed experts across all layers.
    pub fn total_routed_experts(&self) -> usize {
        self.layers as usize * self.routed_experts as usize
    }

    /// The cost profile of one routed expert.
    pub fn routed_profile(&self) -> ExpertProfile {
        self.routed_shape.profile()
    }

    /// The combined cost profile of the per-token shared-expert work (all
    /// shared experts fused), if the model has shared experts.
    pub fn shared_profile(&self) -> Option<ExpertProfile> {
        let shape = self.shared_shape?;
        if self.shared_experts == 0 {
            return None;
        }
        Some(ExpertProfile::new(
            shape.packed_bytes() * self.shared_experts as u64,
            shape.flops_per_token() * self.shared_experts as u64,
        ))
    }

    /// The cost profile of the non-MoE work of one layer (attention,
    /// norms), which always runs on the GPU. Approximated as the standard
    /// `8 · hidden²` FLOPs per token of fused QKV/output projections.
    pub fn attention_profile(&self) -> ExpertProfile {
        let hidden = self.routed_shape.hidden() as u64;
        // 4 projection matrices of hidden x hidden at 5 bits/weight.
        ExpertProfile::new(4 * hidden * hidden * 5 / 8, 8 * hidden * hidden)
    }

    /// Total bytes of all quantized routed experts (what must live in host
    /// memory when nothing is cached).
    pub fn total_routed_bytes(&self) -> u64 {
        self.total_routed_experts() as u64 * self.routed_shape.packed_bytes()
    }

    /// How many routed experts fit in a cache holding `ratio` of them,
    /// as used by the paper's "GPU expert cache ratio" axis (25/50/75 %).
    ///
    /// The result is clamped to `[0, total_routed_experts()]`.
    pub fn cache_capacity_for_ratio(&self, ratio: f64) -> usize {
        let total = self.total_routed_experts();
        if !ratio.is_finite() || ratio <= 0.0 {
            return 0;
        }
        ((total as f64 * ratio).round() as usize).min(total)
    }

    /// Iterates over every routed expert key of the model, layer-major.
    pub fn expert_keys(&self) -> impl Iterator<Item = ExpertKey> + '_ {
        let experts = self.routed_experts;
        (0..self.layers)
            .flat_map(move |l| (0..experts).map(move |e| ExpertKey::new(LayerId(l), ExpertId(e))))
    }

    /// Whether `key` addresses a valid routed expert of this model.
    pub fn contains(&self, key: ExpertKey) -> bool {
        key.layer.0 < self.layers && key.expert.0 < self.routed_experts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table2() {
        let m = ModelConfig::mixtral();
        assert_eq!((m.layers, m.shared_experts), (32, 0));
        assert_eq!((m.routed_experts, m.activated_experts), (8, 2));
        assert!(m.shared_shape.is_none());

        let q = ModelConfig::qwen2();
        assert_eq!((q.layers, q.shared_experts), (28, 1));
        assert_eq!((q.routed_experts, q.activated_experts), (64, 8));
        assert_eq!(q.shared_shape.unwrap(), ExpertShape::new(3584, 20480));

        let d = ModelConfig::deepseek();
        assert_eq!((d.layers, d.shared_experts), (26, 2));
        assert_eq!((d.routed_experts, d.activated_experts), (64, 6));
        assert_eq!(d.routed_shape, ExpertShape::new(2048, 1408));
    }

    #[test]
    fn cache_capacity_ratios() {
        let m = ModelConfig::mixtral();
        assert_eq!(m.cache_capacity_for_ratio(0.5), 128);
        assert_eq!(m.cache_capacity_for_ratio(0.0), 0);
        assert_eq!(m.cache_capacity_for_ratio(-1.0), 0);
        assert_eq!(m.cache_capacity_for_ratio(2.0), 256);
        assert_eq!(m.cache_capacity_for_ratio(f64::NAN), 0);
    }

    #[test]
    fn shared_profile_scales_with_count() {
        let d = ModelConfig::deepseek();
        let p = d.shared_profile().unwrap();
        let single = d.shared_shape.unwrap();
        assert_eq!(p.bytes(), 2 * single.packed_bytes());
        assert_eq!(p.flops_per_token(), 2 * single.flops_per_token());
        assert!(ModelConfig::mixtral().shared_profile().is_none());
    }

    #[test]
    fn expert_keys_enumerates_all() {
        let t = ModelConfig::tiny_test();
        let keys: Vec<_> = t.expert_keys().collect();
        assert_eq!(keys.len(), t.total_routed_experts());
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys.iter().all(|k| t.contains(*k)));
        assert!(!t.contains(ExpertKey::new(LayerId(99), ExpertId(0))));
    }

    #[test]
    fn mixtral_total_bytes_are_tens_of_gb() {
        let m = ModelConfig::mixtral();
        let gb = m.total_routed_bytes() as f64 / 1e9;
        assert!(gb > 20.0 && gb < 40.0, "{gb} GB");
    }

    #[test]
    fn paper_models_order() {
        let names: Vec<_> = ModelConfig::paper_models()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names.len(), 3);
        assert!(names[0].contains("DeepSeek"));
        assert!(names[1].contains("Mixtral"));
        assert!(names[2].contains("Qwen2"));
    }
}
