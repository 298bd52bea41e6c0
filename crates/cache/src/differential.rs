//! Differential test: the dense cache against a reference model of the
//! container-based implementation it replaced.
//!
//! The reference keeps residency in an ordered set and every
//! policy's values in hash maps, collects the eviction candidates into a
//! `Vec` and lets every shard's policy update every expert on a routing —
//! the semantics every determinism pin in the repository was recorded
//! against. Random operation sequences must produce the same
//! [`InsertOutcome`]s (victim identity included), the same statistics and
//! the same resident keys from both, for every policy and shard count.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use hybrimoe_model::{shard_of, ExpertId, ExpertKey, LayerId, LayerRouting};
use proptest::prelude::*;

use crate::{CachePolicy, CacheStats, InsertOutcome, Lfu, Lru, Mrs, ShardedExpertCache};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PolicyKind {
    Lru,
    Lfu,
    /// MRS with the default top-P cutoff (`2 × K`).
    Mrs,
    /// MRS with an explicit top-P cutoff.
    MrsTopP(u16),
}

const ALPHA: f64 = 0.3;

impl PolicyKind {
    fn build(self) -> Box<dyn CachePolicy> {
        match self {
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Lfu => Box::new(Lfu::new()),
            PolicyKind::Mrs => Box::new(Mrs::new(ALPHA)),
            PolicyKind::MrsTopP(p) => Box::new(Mrs::with_top_p(ALPHA, p)),
        }
    }
}

/// The replaced policies: one hash map per value, keyed by expert.
#[derive(Debug)]
struct RefPolicy {
    kind: PolicyKind,
    last_access: HashMap<ExpertKey, u64>,
    counts: HashMap<ExpertKey, u64>,
    scores: HashMap<ExpertKey, f64>,
}

impl RefPolicy {
    fn new(kind: PolicyKind) -> Self {
        RefPolicy {
            kind,
            last_access: HashMap::new(),
            counts: HashMap::new(),
            scores: HashMap::new(),
        }
    }

    fn on_routing(&mut self, routing: &LayerRouting, activated_k: u16) {
        let p = match self.kind {
            PolicyKind::Lru | PolicyKind::Lfu => return,
            PolicyKind::Mrs => (2 * activated_k).max(1) as usize,
            PolicyKind::MrsTopP(p) => p as usize,
        };
        let mean = routing.mean_scores();
        let mut sorted = mean.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal));
        let cutoff = sorted
            .get(p.saturating_sub(1))
            .copied()
            .unwrap_or(f32::NEG_INFINITY);
        let mut kept = 0usize;
        for (i, &s) in mean.iter().enumerate() {
            let key = ExpertKey::new(routing.layer(), ExpertId(i as u16));
            let top = s >= cutoff && kept < p && s > 0.0;
            if top {
                kept += 1;
            }
            let contribution = if top { s as f64 } else { 0.0 };
            let entry = self.scores.entry(key).or_insert(0.0);
            *entry = ALPHA * contribution + (1.0 - ALPHA) * *entry;
        }
    }

    fn on_access(&mut self, key: ExpertKey, now: u64) {
        match self.kind {
            PolicyKind::Lru => {
                self.last_access.insert(key, now);
            }
            PolicyKind::Lfu => {
                *self.counts.entry(key).or_insert(0) += 1;
                self.last_access.insert(key, now);
            }
            PolicyKind::Mrs | PolicyKind::MrsTopP(_) => {}
        }
    }

    fn on_insert(&mut self, key: ExpertKey, now: u64) {
        if matches!(self.kind, PolicyKind::Lru | PolicyKind::Lfu) {
            self.last_access.insert(key, now);
        }
    }

    fn on_evict(&mut self, key: ExpertKey) {
        self.last_access.remove(&key);
    }

    fn choose_victim(&self, candidates: &[ExpertKey]) -> Option<ExpertKey> {
        let last = |k: &ExpertKey| self.last_access.get(k).copied().unwrap_or(0);
        match self.kind {
            PolicyKind::Lru => candidates.iter().copied().min_by_key(|k| (last(k), *k)),
            PolicyKind::Lfu => candidates
                .iter()
                .copied()
                .min_by_key(|k| (self.counts.get(k).copied().unwrap_or(0), last(k), *k)),
            PolicyKind::Mrs | PolicyKind::MrsTopP(_) => {
                candidates.iter().copied().min_by(|a, b| {
                    let score = |k: &ExpertKey| self.scores.get(k).copied().unwrap_or(0.0);
                    score(a)
                        .partial_cmp(&score(b))
                        .unwrap_or(Ordering::Equal)
                        .then(a.cmp(b))
                })
            }
        }
    }
}

/// The replaced cache: ordered sets and a collected candidate list.
#[derive(Debug)]
struct RefCache {
    capacity: usize,
    resident: BTreeSet<ExpertKey>,
    policy: RefPolicy,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn lookup(&mut self, key: ExpertKey) -> bool {
        self.clock += 1;
        if self.resident.contains(&key) {
            self.stats.hits += 1;
            self.policy.on_access(key, self.clock);
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    fn insert_protected(&mut self, key: ExpertKey, protect: &[ExpertKey]) -> InsertOutcome {
        if self.resident.contains(&key) {
            return InsertOutcome::AlreadyResident;
        }
        if self.capacity == 0 {
            return InsertOutcome::Refused;
        }
        self.clock += 1;
        if self.resident.len() < self.capacity {
            self.resident.insert(key);
            self.stats.insertions += 1;
            self.policy.on_insert(key, self.clock);
            return InsertOutcome::Inserted;
        }
        let candidates: Vec<ExpertKey> = self
            .resident
            .iter()
            .copied()
            .filter(|k| !protect.contains(k))
            .collect();
        let Some(victim) = self.policy.choose_victim(&candidates) else {
            return InsertOutcome::Refused;
        };
        self.resident.remove(&victim);
        self.policy.on_evict(victim);
        self.stats.evictions += 1;
        self.resident.insert(key);
        self.stats.insertions += 1;
        self.policy.on_insert(key, self.clock);
        InsertOutcome::InsertedEvicting(victim)
    }

    fn insert_if_free(&mut self, key: ExpertKey) -> InsertOutcome {
        if self.resident.contains(&key) {
            return InsertOutcome::AlreadyResident;
        }
        if self.resident.len() >= self.capacity {
            return InsertOutcome::Refused;
        }
        self.clock += 1;
        self.resident.insert(key);
        self.stats.insertions += 1;
        self.policy.on_insert(key, self.clock);
        InsertOutcome::Inserted
    }
}

/// The replaced sharded facade: every shard's policy sees the full
/// routing and updates every expert.
#[derive(Debug)]
struct RefSharded {
    shards: Vec<RefCache>,
}

impl RefSharded {
    fn new(capacity: usize, num_shards: usize, kind: PolicyKind) -> Self {
        let (base, remainder) = (capacity / num_shards, capacity % num_shards);
        let shards = (0..num_shards)
            .map(|s| RefCache {
                capacity: base + usize::from(s < remainder),
                resident: BTreeSet::new(),
                policy: RefPolicy::new(kind),
                clock: 0,
                stats: CacheStats::default(),
            })
            .collect();
        RefSharded { shards }
    }

    fn shard(&mut self, key: ExpertKey) -> &mut RefCache {
        let s = shard_of(key.expert, self.shards.len());
        &mut self.shards[s]
    }

    fn note_routing(&mut self, routing: &LayerRouting, activated_k: u16) {
        for shard in &mut self.shards {
            shard.policy.on_routing(routing, activated_k);
        }
    }

    fn resident_keys(&self) -> Vec<ExpertKey> {
        let mut all: Vec<ExpertKey> = self
            .shards
            .iter()
            .flat_map(|s| s.resident.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats);
        }
        total
    }
}

#[derive(Debug, Clone)]
enum Op {
    NoteRouting(LayerRouting, u16),
    Lookup(ExpertKey),
    Insert(ExpertKey),
    InsertProtected(ExpertKey, Vec<ExpertKey>),
    InsertIfFree(ExpertKey),
}

/// Keys over four layers and twenty experts, eight of which sit past the
/// first 64-bit residency word.
fn arb_key() -> impl Strategy<Value = ExpertKey> {
    (0u16..4, 0u16..20).prop_map(|(l, x)| {
        let e = if x < 12 { x } else { 50 + x };
        ExpertKey::new(LayerId(l), ExpertId(e))
    })
}

/// Routings of 8, 16 or 80 experts whose scores come from a handful of
/// levels, so ties at the top-P cutoff (and zeros) are common.
fn arb_routing() -> impl Strategy<Value = (LayerRouting, u16)> {
    (
        0u16..4,
        1u32..4,
        0usize..3,
        proptest::collection::vec(0u8..5, 80),
        1u16..4,
    )
        .prop_map(|(layer, tokens, width, levels, k)| {
            let experts = [8, 16, 80][width];
            let mass: Vec<f32> = levels[..experts]
                .iter()
                .map(|l| [0.0, 0.125, 0.25, 0.25, 0.5][*l as usize])
                .collect();
            let routing = LayerRouting::from_parts(LayerId(layer), tokens, vec![0; experts], mass);
            (routing, k)
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_routing().prop_map(|(r, k)| Op::NoteRouting(r, k)),
        arb_key().prop_map(Op::Lookup),
        arb_key().prop_map(Op::Lookup),
        arb_key().prop_map(Op::Insert),
        arb_key().prop_map(Op::Insert),
        (arb_key(), proptest::collection::vec(arb_key(), 0..6))
            .prop_map(|(k, protect)| Op::InsertProtected(k, protect)),
        arb_key().prop_map(Op::InsertIfFree),
    ]
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Lfu),
        Just(PolicyKind::Mrs),
        (1u16..7).prop_map(PolicyKind::MrsTopP),
    ]
}

proptest! {
    #[test]
    fn dense_cache_matches_the_container_reference(
        kind in arb_policy(),
        num_shards in 1usize..5,
        capacity in 0usize..14,
        ops in proptest::collection::vec(arb_op(), 1..160),
    ) {
        let mut dense = ShardedExpertCache::new(capacity, num_shards, || kind.build());
        let mut reference = RefSharded::new(capacity, num_shards, kind);
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::NoteRouting(routing, k) => {
                    dense.note_routing(routing, *k);
                    reference.note_routing(routing, *k);
                }
                Op::Lookup(key) => {
                    prop_assert_eq!(dense.lookup(*key), reference.shard(*key).lookup(*key), "op {}", i);
                }
                Op::Insert(key) => {
                    let expect = reference.shard(*key).insert_protected(*key, &[]);
                    prop_assert_eq!(dense.insert(*key), expect, "op {}: {:?}", i, op);
                }
                Op::InsertProtected(key, protect) => {
                    let expect = reference.shard(*key).insert_protected(*key, protect);
                    prop_assert_eq!(dense.insert_protected(*key, protect), expect, "op {}: {:?}", i, op);
                }
                Op::InsertIfFree(key) => {
                    let expect = reference.shard(*key).insert_if_free(*key);
                    prop_assert_eq!(dense.insert_if_free(*key), expect, "op {}: {:?}", i, op);
                }
            }
            prop_assert_eq!(dense.stats(), reference.stats(), "after op {}: {:?}", i, op);
            prop_assert_eq!(dense.resident_keys(), reference.resident_keys(), "after op {}: {:?}", i, op);
        }
    }
}
