//! Weight bit pins: every packed byte `ExpertFfn::random` produces, hashed.
//!
//! `ExpertFfn::random` draws each weight from the `rand` stub's SplitMix64
//! stream with `gen_range` and quantizes it to `Q4_0`: in one AVX-512 pass
//! per matrix where the kernel backend ladder lands on AVX-512, and by
//! building dense matrices and quantizing them elsewhere. This file pins
//! what it writes: FNV-1a over every packed byte, block scales included,
//! at the bench-moe (256×512), tiny (64×96) and DeepSeek (2048×1408)
//! shapes and for a few `WeightStore` keys. `random` and the literal
//! generate-then-quantize oracle (`gen_range` into dense matrices, then
//! `ExpertFfn::from_dense`) must both hit the same pins, so on an AVX-512
//! host one run compares the two constructions; run it again with
//! `HYBRIMOE_KERNEL_BACKEND=scalar` to pin the dense one inside `random`.
//! The pins were recorded from the literal construction; a change to the
//! stream, the sampler or the `Q4_0` rule moves them.

use hybrimoe_kernels::ExpertFfn;
use hybrimoe_model::{ExpertId, ExpertKey, ExpertShape, LayerId, ModelConfig, WeightStore};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// FNV-1a, 64-bit, over the three matrices' packed bytes.
fn fnv(ffn: &ExpertFfn) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for m in ffn.matrices() {
        for &b in m.data().iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The literal construction: every weight drawn into dense matrices (gate,
/// up, down, each row-major), then quantized.
fn dense_oracle(hidden: usize, inter: usize, seed: u64) -> ExpertFfn {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = |n: usize, fan_in: usize| -> Vec<f32> {
        let bound = (1.0 / (fan_in as f32)).sqrt();
        (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
    };
    let w_gate = draw(inter * hidden, hidden);
    let w_up = draw(inter * hidden, hidden);
    let w_down = draw(hidden * inter, inter);
    ExpertFfn::from_dense(hidden, inter, &w_gate, &w_up, &w_down).expect("block-aligned shape")
}

/// Checks the oracle and `random` against each `(seed, pin)`.
fn check_shape(name: &str, hidden: usize, inter: usize, pins: &[(u64, u64)]) {
    for &(seed, pin) in pins {
        let oracle = fnv(&dense_oracle(hidden, inter, seed));
        assert_eq!(oracle, pin, "{name} seed {seed:#x}: dense oracle");
        let auto = fnv(&ExpertFfn::random(hidden, inter, seed));
        assert_eq!(auto, pin, "{name} seed {seed:#x}: random");
    }
}

#[test]
fn bench_moe_shape_matches_its_pins() {
    check_shape(
        "bench-moe 256x512",
        256,
        512,
        &[
            (1, 0xd20b_81b6_2455_9e6e),
            (0xBE7C, 0xdd77_d914_1016_ffef),
            (u64::MAX, 0x7750_64cf_4f6e_c9f5),
        ],
    );
}

#[test]
fn tiny_shape_matches_its_pins() {
    check_shape(
        "tiny 64x96",
        64,
        96,
        &[
            (0, 0x2db7_c81a_f7d8_e907),
            (7, 0x157f_023d_14ad_9f4b),
            (42, 0xe73b_5c1f_d934_d556),
        ],
    );
}

#[test]
fn deepseek_shape_matches_its_pins() {
    check_shape(
        "DeepSeek 2048x1408",
        2048,
        1408,
        &[(3, 0xbd72_e04f_39f2_8590)],
    );
}

/// A few keys of two stores: the per-expert seed derivation and the
/// generator together.
#[test]
fn weight_store_experts_match_their_pins() {
    let bench_moe = ModelConfig {
        name: "bench-moe".to_owned(),
        layers: 4,
        shared_experts: 1,
        routed_experts: 16,
        activated_experts: 4,
        shared_shape: Some(ExpertShape::new(256, 512)),
        routed_shape: ExpertShape::new(256, 512),
    };
    let cases = [
        (ModelConfig::tiny_test(), 42, (0, 0), 0xd9cd_db31_37a4_c170),
        (ModelConfig::tiny_test(), 42, (3, 7), 0xbcb8_66e8_5c66_5887),
        (bench_moe.clone(), 1, (0, 5), 0xb827_91b0_ba1a_4aee),
        (bench_moe, 1, (3, 15), 0x286e_8f08_85a7_4f88),
    ];
    for (config, seed, (layer, expert), pin) in cases {
        let mut store = WeightStore::new(config.clone(), seed, u64::MAX);
        let key = ExpertKey::new(LayerId(layer), ExpertId(expert));
        let got = fnv(store.expert(key).expect("unbounded budget"));
        assert_eq!(got, pin, "{} seed {seed} {key}", config.name);
    }
}

/// The generator computes the stream itself: draw `k` of a stream seeded
/// with `s` is SplitMix64's output for the state `s + (k + 1)·γ`, and
/// `gen_range(low..high)` on `f32` is a 53-bit `f64` sample with two
/// endpoint guards. Both must be what `StdRng` does.
#[test]
fn hand_rolled_splitmix_matches_std_rng() {
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn gen_range(bits: u64, low: f32, high: f32) -> f32 {
        let (lo, hi) = (f64::from(low), f64::from(high));
        let v = lo + (hi - lo) * ((bits >> 11) as f64 / (1u64 << 53) as f64);
        let v = if v >= hi { lo } else { v } as f32;
        if v >= high {
            low
        } else {
            v
        }
    }
    for seed in [0u64, 1, 42, 0xBE7C, u64::MAX] {
        let mut raw = StdRng::seed_from_u64(seed);
        for k in 0..1000u64 {
            let state = seed.wrapping_add((k + 1).wrapping_mul(GAMMA));
            assert_eq!(raw.next_u64(), mix(state), "seed {seed} draw {k}");
        }
        for bound in [1.0f32, 0.0625, (1.0f32 / 1408.0).sqrt(), 3.0e-7] {
            let mut rng = StdRng::seed_from_u64(seed);
            for k in 0..10_000u64 {
                let bits = mix(seed.wrapping_add((k + 1).wrapping_mul(GAMMA)));
                let want = rng.gen_range(-bound..bound);
                assert_eq!(gen_range(bits, -bound, bound).to_bits(), want.to_bits());
            }
        }
    }
}
