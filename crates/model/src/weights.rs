//! Synthetic expert weight store for real-execution mode.
//!
//! The paper runs on real model checkpoints; this reproduction generates
//! deterministic synthetic weights instead. A [`WeightStore`]
//! lazily materializes the quantized [`ExpertFfn`] of any expert key, under
//! an explicit memory budget so that a full-size Mixtral cannot be
//! accidentally instantiated on a laptop.

use std::collections::HashMap;
use std::fmt;

use hybrimoe_kernels::ExpertFfn;

use crate::{ExpertKey, ModelConfig};

/// Errors from [`WeightStore`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightStoreError {
    /// The key does not address a routed expert of the model.
    UnknownExpert(ExpertKey),
    /// Materializing the expert would exceed the store's memory budget.
    BudgetExceeded {
        /// Bytes that would be resident after the materialization.
        needed: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl fmt::Display for WeightStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightStoreError::UnknownExpert(key) => write!(f, "unknown expert {key}"),
            WeightStoreError::BudgetExceeded { needed, budget } => {
                write!(f, "materializing needs {needed} bytes, budget is {budget}")
            }
        }
    }
}

impl std::error::Error for WeightStoreError {}

/// Lazily materialized synthetic expert weights.
///
/// Every expert's weights are generated from a seed derived from the store
/// seed and the expert key, so two stores with the same seed hold identical
/// weights — runs are reproducible without shipping checkpoints.
///
/// # Example
///
/// ```
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId, ModelConfig, WeightStore};
///
/// let config = ModelConfig::tiny_test();
/// let mut store = WeightStore::new(config, 42, 64 * 1024 * 1024);
/// let key = ExpertKey::new(LayerId(0), ExpertId(3));
/// let ffn = store.expert(key)?;
/// assert_eq!(ffn.hidden(), 64);
/// assert!(store.resident_bytes() > 0);
/// # Ok::<(), hybrimoe_model::WeightStoreError>(())
/// ```
#[derive(Debug)]
pub struct WeightStore {
    config: ModelConfig,
    seed: u64,
    budget_bytes: u64,
    resident: HashMap<ExpertKey, ExpertFfn>,
    resident_bytes: u64,
}

impl WeightStore {
    /// Creates a store for `config` with the given seed and memory budget.
    pub fn new(config: ModelConfig, seed: u64, budget_bytes: u64) -> Self {
        WeightStore {
            config,
            seed,
            budget_bytes,
            resident: HashMap::new(),
            resident_bytes: 0,
        }
    }

    /// The model this store belongs to.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Bytes currently materialized.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Number of experts currently materialized.
    pub fn resident_experts(&self) -> usize {
        self.resident.len()
    }

    /// Returns (materializing if necessary) the weights of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`WeightStoreError::UnknownExpert`] for out-of-range keys and
    /// [`WeightStoreError::BudgetExceeded`] if materialization would exceed
    /// the memory budget.
    pub fn expert(&mut self, key: ExpertKey) -> Result<&ExpertFfn, WeightStoreError> {
        if !self.config.contains(key) {
            return Err(WeightStoreError::UnknownExpert(key));
        }
        if !self.resident.contains_key(&key) {
            let bytes = self.config.routed_shape.packed_bytes();
            let needed = self.resident_bytes + bytes;
            if needed > self.budget_bytes {
                return Err(WeightStoreError::BudgetExceeded {
                    needed,
                    budget: self.budget_bytes,
                });
            }
            let shape = self.config.routed_shape;
            let ffn = ExpertFfn::random(
                shape.hidden() as usize,
                shape.inter() as usize,
                expert_seed(self.seed, key),
            );
            self.resident_bytes += bytes;
            self.resident.insert(key, ffn);
        }
        Ok(self.resident.get(&key).expect("just inserted"))
    }

    /// Drops the materialized weights of `key`, if resident. Returns whether
    /// anything was evicted.
    pub fn evict(&mut self, key: ExpertKey) -> bool {
        if self.resident.remove(&key).is_some() {
            self.resident_bytes -= self.config.routed_shape.packed_bytes();
            true
        } else {
            false
        }
    }
}

/// Derives a unique, stable seed for one expert's weights.
fn expert_seed(store_seed: u64, key: ExpertKey) -> u64 {
    // SplitMix64-style mixing of (seed, layer, expert).
    let mut z = store_seed
        ^ ((key.layer.0 as u64) << 32)
        ^ ((key.expert.0 as u64) << 1)
        ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExpertId, LayerId};

    fn key(l: u16, e: u16) -> ExpertKey {
        ExpertKey::new(LayerId(l), ExpertId(e))
    }

    #[test]
    fn materializes_and_accounts() {
        let mut store = WeightStore::new(ModelConfig::tiny_test(), 1, u64::MAX);
        assert_eq!(store.resident_experts(), 0);
        store.expert(key(0, 0)).unwrap();
        store.expert(key(0, 1)).unwrap();
        assert_eq!(store.resident_experts(), 2);
        let per = store.config().routed_shape.packed_bytes();
        assert_eq!(store.resident_bytes(), 2 * per);
    }

    #[test]
    fn repeated_access_does_not_regenerate() {
        let mut store = WeightStore::new(ModelConfig::tiny_test(), 1, u64::MAX);
        store.expert(key(1, 1)).unwrap();
        let bytes = store.resident_bytes();
        store.expert(key(1, 1)).unwrap();
        assert_eq!(store.resident_bytes(), bytes);
    }

    #[test]
    fn deterministic_across_stores() {
        let mut a = WeightStore::new(ModelConfig::tiny_test(), 7, u64::MAX);
        let mut b = WeightStore::new(ModelConfig::tiny_test(), 7, u64::MAX);
        assert_eq!(a.expert(key(2, 3)).unwrap(), b.expert(key(2, 3)).unwrap());
        let mut c = WeightStore::new(ModelConfig::tiny_test(), 8, u64::MAX);
        assert_ne!(a.expert(key(2, 3)).unwrap(), c.expert(key(2, 3)).unwrap());
    }

    #[test]
    fn distinct_experts_get_distinct_weights() {
        let mut store = WeightStore::new(ModelConfig::tiny_test(), 7, u64::MAX);
        let x = store.expert(key(0, 0)).unwrap().clone();
        let y = store.expert(key(0, 1)).unwrap().clone();
        assert_ne!(x, y);
    }

    #[test]
    fn budget_enforced() {
        let config = ModelConfig::tiny_test();
        let per = config.routed_shape.packed_bytes();
        let mut store = WeightStore::new(config, 1, per); // room for exactly one
        store.expert(key(0, 0)).unwrap();
        let err = store.expert(key(0, 1)).unwrap_err();
        assert!(matches!(err, WeightStoreError::BudgetExceeded { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn eviction_frees_budget() {
        let config = ModelConfig::tiny_test();
        let per = config.routed_shape.packed_bytes();
        let mut store = WeightStore::new(config, 1, per);
        store.expert(key(0, 0)).unwrap();
        assert!(store.evict(key(0, 0)));
        assert!(!store.evict(key(0, 0)));
        store.expert(key(0, 1)).unwrap();
        assert_eq!(store.resident_experts(), 1);
    }

    #[test]
    fn unknown_expert_rejected() {
        let mut store = WeightStore::new(ModelConfig::tiny_test(), 1, u64::MAX);
        let err = store.expert(key(99, 0)).unwrap_err();
        assert_eq!(err, WeightStoreError::UnknownExpert(key(99, 0)));
    }
}
