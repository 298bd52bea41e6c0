//! Property-based invariants on the expert cache: capacity is never
//! exceeded, protected experts are never evicted, statistics balance, and
//! all three policies maintain these invariants under random workloads.

use hybrimoe_cache::{CachePolicy, ExpertCache, InsertOutcome, Lfu, Lru, Mrs};
use hybrimoe_model::{ExpertId, ExpertKey, LayerId, LayerRouting, RouterOutput};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum OpSpec {
    Lookup(u16, u16),
    Insert(u16, u16),
    InsertIfFree(u16, u16),
}

fn arb_ops() -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec(
        (0u8..3, 0u16..4, 0u16..16).prop_map(|(kind, l, e)| match kind {
            0 => OpSpec::Lookup(l, e),
            1 => OpSpec::Insert(l, e),
            _ => OpSpec::InsertIfFree(l, e),
        }),
        1..120,
    )
}

fn policies() -> Vec<Box<dyn CachePolicy>> {
    vec![
        Box::new(Lru::new()),
        Box::new(Lfu::new()),
        Box::new(Mrs::new(0.3)),
    ]
}

fn key(l: u16, e: u16) -> ExpertKey {
    ExpertKey::new(LayerId(l), ExpertId(e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn capacity_never_exceeded(ops in arb_ops(), capacity in 0usize..12) {
        for policy in policies() {
            let mut cache = ExpertCache::new(capacity, policy);
            for op in &ops {
                match op {
                    OpSpec::Lookup(l, e) => {
                        cache.lookup(key(*l, *e));
                    }
                    OpSpec::Insert(l, e) => {
                        cache.insert(key(*l, *e));
                    }
                    OpSpec::InsertIfFree(l, e) => {
                        cache.insert_if_free(key(*l, *e));
                    }
                }
                prop_assert!(cache.len() <= capacity.max(cache.len().min(capacity)));
                prop_assert!(cache.len() <= capacity);
            }
        }
    }

    #[test]
    fn protected_resident_experts_survive(ops in arb_ops()) {
        for policy in policies() {
            let mut cache = ExpertCache::new(4, policy);
            // Insert one key up front and protect it on every insert.
            let protected = key(0, 0);
            cache.insert(protected);
            for op in &ops {
                match op {
                    OpSpec::Lookup(l, e) => {
                        cache.lookup(key(*l, *e));
                    }
                    OpSpec::Insert(l, e) | OpSpec::InsertIfFree(l, e) => {
                        cache.insert_protected(key(*l, *e), &[protected]);
                    }
                }
                prop_assert!(cache.contains(protected), "protected key evicted");
            }
        }
    }

    #[test]
    fn stats_balance(ops in arb_ops()) {
        for policy in policies() {
            let mut cache = ExpertCache::new(6, policy);
            let mut lookups = 0u64;
            for op in &ops {
                match op {
                    OpSpec::Lookup(l, e) => {
                        cache.lookup(key(*l, *e));
                        lookups += 1;
                    }
                    OpSpec::Insert(l, e) => {
                        cache.insert(key(*l, *e));
                    }
                    OpSpec::InsertIfFree(l, e) => {
                        cache.insert_if_free(key(*l, *e));
                    }
                }
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.lookups(), lookups);
            // Residency = insertions - evictions.
            prop_assert_eq!(
                cache.len() as u64,
                stats.insertions - stats.evictions
            );
        }
    }

    #[test]
    fn lookup_after_insert_always_hits(l in 0u16..4, e in 0u16..16) {
        for policy in policies() {
            let mut cache = ExpertCache::new(2, policy);
            cache.insert(key(l, e));
            prop_assert!(cache.lookup(key(l, e)));
        }
    }
}

/// A batched-workload op: cache operations interleaved with whole-batch
/// routing observations, as the serving engine produces them.
#[derive(Debug, Clone)]
enum BatchedOp {
    Lookup(u16, u16),
    Insert(u16, u16),
    InsertProtected(u16, u16, u16),
    InsertIfFree(u16, u16),
    /// `NoteRouting(layer, batch)`: a batch of tokens routes on `layer`
    /// (scores derived deterministically from the tuple).
    NoteRouting(u16, u8),
}

fn arb_batched_ops() -> impl Strategy<Value = Vec<BatchedOp>> {
    proptest::collection::vec(
        (0u8..5, 0u16..4, 0u16..16, 1u8..6).prop_map(|(kind, l, e, b)| match kind {
            0 => BatchedOp::Lookup(l, e),
            1 => BatchedOp::Insert(l, e),
            2 => BatchedOp::InsertProtected(l, e, e / 2),
            3 => BatchedOp::InsertIfFree(l, e),
            _ => BatchedOp::NoteRouting(l, b),
        }),
        1..150,
    )
}

/// Deterministic batched routing for `NoteRouting`: `batch` tokens whose
/// logits depend only on (layer, batch), 16 experts, top-2.
fn routing_for(l: u16, batch: u8) -> LayerRouting {
    let tokens: Vec<RouterOutput> = (0..batch)
        .map(|t| {
            let logits: Vec<f32> = (0..16)
                .map(|e| ((e as u32 * 7 + t as u32 * 3 + l as u32 * 11) % 13) as f32 / 2.0)
                .collect();
            RouterOutput::route(&logits, 2)
        })
        .collect();
    LayerRouting::from_tokens(LayerId(l), 16, &tokens)
}

/// Replays `ops` on a fresh cache; returns (resident keys, stats debug).
fn replay(
    policy: Box<dyn CachePolicy>,
    capacity: usize,
    ops: &[BatchedOp],
) -> (Vec<ExpertKey>, String) {
    let mut cache = ExpertCache::new(capacity, policy);
    for op in ops {
        match op {
            BatchedOp::Lookup(l, e) => {
                cache.lookup(key(*l, *e));
            }
            BatchedOp::Insert(l, e) => {
                cache.insert(key(*l, *e));
            }
            BatchedOp::InsertProtected(l, e, p) => {
                cache.insert_protected(key(*l, *e), &[key(*l, *p)]);
            }
            BatchedOp::InsertIfFree(l, e) => {
                cache.insert_if_free(key(*l, *e));
            }
            BatchedOp::NoteRouting(l, b) => cache.note_routing(&routing_for(*l, *b), 2),
        }
    }
    (
        cache.resident_keys().collect(),
        format!("{:?}", cache.stats()),
    )
}

// The new suites run under `ProptestConfig::default()`, whose case count CI
// pins via the PROPTEST_CASES environment variable.
proptest! {
    /// Order consistency: the cache is a pure function of its op sequence.
    /// Replaying the same random batched workload twice yields the same
    /// resident set and statistics for every policy.
    #[test]
    fn replay_is_order_consistent(ops in arb_batched_ops(), capacity in 0usize..10) {
        for (a, b) in policies().into_iter().zip(policies()) {
            let ra = replay(a, capacity, &ops);
            let rb = replay(b, capacity, &ops);
            prop_assert_eq!(ra, rb);
        }
    }

    /// Every [`InsertOutcome`] tells the truth about the state transition
    /// it reports, and the capacity invariant holds after each op.
    #[test]
    fn insert_outcomes_match_state_transitions(
        ops in arb_batched_ops(),
        capacity in 0usize..10,
    ) {
        for policy in policies() {
            let mut cache = ExpertCache::new(capacity, policy);
            for op in &ops {
                let insert: Option<(ExpertKey, Option<ExpertKey>, bool)> = match op {
                    BatchedOp::Insert(l, e) => Some((key(*l, *e), None, true)),
                    BatchedOp::InsertProtected(l, e, p) => {
                        Some((key(*l, *e), Some(key(*l, *p)), true))
                    }
                    BatchedOp::InsertIfFree(l, e) => Some((key(*l, *e), None, false)),
                    BatchedOp::Lookup(l, e) => {
                        cache.lookup(key(*l, *e));
                        None
                    }
                    BatchedOp::NoteRouting(l, b) => {
                        cache.note_routing(&routing_for(*l, *b), 2);
                        None
                    }
                };
                if let Some((k, protect, may_evict)) = insert {
                    let was_resident = cache.contains(k);
                    let was_full = cache.is_full();
                    let len_before = cache.len();
                    let outcome = match (protect, may_evict) {
                        (Some(p), true) => cache.insert_protected(k, &[p]),
                        (None, true) => cache.insert(k),
                        (_, false) => cache.insert_if_free(k),
                    };
                    match outcome {
                        InsertOutcome::AlreadyResident => {
                            prop_assert!(was_resident);
                            prop_assert_eq!(cache.len(), len_before);
                        }
                        InsertOutcome::Inserted => {
                            prop_assert!(!was_resident && !was_full);
                            prop_assert_eq!(cache.len(), len_before + 1);
                            prop_assert!(cache.contains(k));
                        }
                        InsertOutcome::InsertedEvicting(victim) => {
                            prop_assert!(!was_resident && was_full && may_evict);
                            if let Some(p) = protect {
                                prop_assert!(victim != p, "evicted protected {victim:?}");
                            }
                            prop_assert!(!cache.contains(victim));
                            prop_assert!(cache.contains(k));
                            prop_assert_eq!(cache.len(), len_before);
                        }
                        InsertOutcome::Refused => {
                            prop_assert!(!was_resident);
                            prop_assert!(!cache.contains(k));
                            prop_assert_eq!(cache.len(), len_before);
                        }
                    }
                }
                prop_assert!(cache.len() <= capacity);
            }
        }
    }

    /// A resident held in every insert's protect set survives arbitrary
    /// batched workloads, next to a second protected key per insert.
    #[test]
    fn protected_residents_survive_batched_workloads(ops in arb_batched_ops()) {
        for policy in policies() {
            let mut cache = ExpertCache::new(3, policy);
            let protected = key(0, 0);
            cache.insert(protected);
            for op in &ops {
                match op {
                    BatchedOp::Lookup(l, e) => {
                        cache.lookup(key(*l, *e));
                    }
                    BatchedOp::NoteRouting(l, b) => {
                        cache.note_routing(&routing_for(*l, *b), 2);
                    }
                    // Map every mutation onto eviction-pressure inserts.
                    BatchedOp::Insert(l, e)
                    | BatchedOp::InsertProtected(l, e, _)
                    | BatchedOp::InsertIfFree(l, e) => {
                        cache.insert_protected(key(*l, *e), &[protected, key(*l, e / 2)]);
                    }
                }
                prop_assert!(cache.contains(protected), "protected key evicted");
            }
        }
    }
}
