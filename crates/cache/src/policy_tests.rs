//! Focused cross-policy unit tests, complementing the per-policy test
//! modules and the `cache_invariants` integration suite:
//!
//! * the MRS exponential average is checked against its closed form,
//! * LRU/LFU eviction *order* is checked by draining a populated policy,
//! * the capacity bound is checked under a mixed workload for all three
//!   policies behind a real [`ExpertCache`].

use hybrimoe_model::{ExpertId, ExpertKey, LayerId, LayerRouting};

use crate::{CachePolicy, ExpertCache, KeySet, Lfu, Lru, Mrs, RoutingScores};

fn key(l: u16, e: u16) -> ExpertKey {
    ExpertKey::new(LayerId(l), ExpertId(e))
}

/// A single-token routing whose mean scores are exactly `scores`.
fn routing(layer: u16, scores: &[f32]) -> LayerRouting {
    LayerRouting::from_parts(LayerId(layer), 1, vec![0; scores.len()], scores.to_vec())
}

/// Shows `mrs` one [`routing`] with `activated_k` experts per token.
fn observe(mrs: &mut Mrs, layer: u16, scores: &[f32], activated_k: u16) {
    let mut seen = RoutingScores::new();
    seen.load(&routing(layer, scores), activated_k);
    mrs.on_routing(&mut seen);
}

#[test]
fn mrs_update_matches_closed_form() {
    // With every expert inside the top-P window, S_n is exactly the
    // exponential average  S_n = α·s_n + (1−α)·S_{n−1}  of the per-round
    // mean scores.
    let alpha = 0.3f64;
    let rounds = [
        [0.50f32, 0.30, 0.15, 0.05],
        [0.10, 0.60, 0.20, 0.10],
        [0.25, 0.25, 0.25, 0.25],
        [0.70, 0.10, 0.10, 0.10],
    ];
    let mut mrs = Mrs::with_top_p(alpha, 4);
    let mut expected = [0f64; 4];
    for round in &rounds {
        observe(&mut mrs, 0, round, 2);
        for (e, s) in expected.iter_mut().zip(round.iter()) {
            *e = alpha * f64::from(*s) + (1.0 - alpha) * *e;
        }
        for (i, e) in expected.iter().enumerate() {
            let got = mrs.score(key(0, i as u16));
            assert!(
                (got - e).abs() < 1e-9,
                "expert {i}: got {got}, closed form {e}"
            );
        }
    }
}

#[test]
fn mrs_decay_is_geometric_outside_top_p() {
    // Once an expert drops out of the top-P window its estimate decays by
    // exactly (1−α) per round.
    let alpha = 0.4f64;
    // The policy widens the routing's f32 scores, so expectations must start
    // from the widened value.
    let s = f64::from(0.9f32);
    let mut mrs = Mrs::with_top_p(alpha, 1);
    observe(&mut mrs, 0, &[0.9, 0.1], 1);
    let s0 = mrs.score(key(0, 0));
    assert!((s0 - alpha * s).abs() < 1e-9);
    for round in 1..=5 {
        observe(&mut mrs, 0, &[0.0, 0.9], 1);
        let expect = alpha * s * (1.0 - alpha).powi(round);
        let got = mrs.score(key(0, 0));
        assert!(
            (got - expect).abs() < 1e-9,
            "round {round}: got {got}, expected {expect}"
        );
    }
}

/// Drains `policy` by repeatedly evicting its chosen victim, returning the
/// eviction order.
fn drain(policy: &mut dyn CachePolicy, resident: Vec<ExpertKey>) -> Vec<ExpertKey> {
    let mut resident: KeySet = resident.into_iter().collect();
    let mut order = Vec::new();
    while !resident.is_empty() {
        let victim = policy
            .choose_victim(resident.candidates())
            .expect("candidates remain");
        policy.on_evict(victim);
        resident.remove(victim);
        order.push(victim);
    }
    order
}

#[test]
fn lru_evicts_in_last_access_order() {
    let mut lru = Lru::new();
    let keys = [key(0, 0), key(0, 1), key(0, 2), key(0, 3)];
    for (i, &k) in keys.iter().enumerate() {
        lru.on_insert(k, i as u64);
    }
    // Reorder recency: 2 is now the most recent, then 0; 1 and 3 keep their
    // insertion times.
    lru.on_access(keys[0], 10);
    lru.on_access(keys[2], 11);
    let order = drain(&mut lru, keys.to_vec());
    assert_eq!(order, vec![keys[1], keys[3], keys[0], keys[2]]);
}

#[test]
fn lfu_evicts_in_frequency_then_recency_order() {
    let mut lfu = Lfu::new();
    let keys = [key(0, 0), key(0, 1), key(0, 2)];
    let mut now = 0u64;
    for &k in &keys {
        lfu.on_insert(k, now);
        now += 1;
    }
    // Access counts: key0 ×3, key1 ×1, key2 ×1 (key2 accessed later).
    for _ in 0..3 {
        lfu.on_access(keys[0], now);
        now += 1;
    }
    lfu.on_access(keys[1], now);
    now += 1;
    lfu.on_access(keys[2], now);
    // key1 and key2 tie on count; key1's last access is older, so it goes
    // first. key0 is the most frequent and goes last.
    let order = drain(&mut lfu, keys.to_vec());
    assert_eq!(order, vec![keys[1], keys[2], keys[0]]);
}

/// A deterministic pseudo-random workload stressing one policy behind a
/// real cache, asserting the capacity bound on every step.
fn capacity_never_exceeded(policy: Box<dyn CachePolicy>) {
    let capacity = 6;
    let mut cache = ExpertCache::new(capacity, policy);
    let mut state = 0x5EED_u64;
    for step in 0..2000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let l = ((state >> 33) % 4) as u16;
        let e = ((state >> 16) % 8) as u16;
        let k = key(l, e);
        match state % 5 {
            0 => {
                cache.lookup(k);
            }
            1 | 2 => {
                assert!(cache.insert(k).is_resident());
            }
            3 => {
                cache.note_routing(&routing(l, &[0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0]), 2);
            }
            _ => {
                cache.insert_if_free(k);
            }
        }
        assert!(
            cache.len() <= capacity,
            "step {step}: {} resident with capacity {capacity}",
            cache.len()
        );
    }
    // The workload touches more distinct experts than fit, so the cache
    // must have filled up and stayed full.
    assert_eq!(cache.len(), capacity);
    assert!(cache.stats().evictions > 0, "workload never evicted");
}

#[test]
fn lru_capacity_never_exceeded() {
    capacity_never_exceeded(Box::new(Lru::new()));
}

#[test]
fn lfu_capacity_never_exceeded() {
    capacity_never_exceeded(Box::new(Lfu::new()));
}

#[test]
fn mrs_capacity_never_exceeded() {
    capacity_never_exceeded(Box::new(Mrs::new(0.3)));
}
