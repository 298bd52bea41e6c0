//! Trace bit pins: every number a generated trace carries, hashed.
//!
//! `determinism.rs` compares two runs of one build, and the engine pins
//! there see only loads. This file pins the bits themselves: FNV-1a over
//! the `to_bits()` of every load, score mass and predicted routing, and of
//! every captured token input and route, for each generator entry point on
//! `tiny_test` and the three paper models. A generator change that moves
//! any bit — a reordered sum, an extra or reordered RNG draw, a different
//! tie-break in top-k — fails here, naming the entry point and model.

use hybrimoe_model::{LayerRouting, ModelConfig};
use hybrimoe_trace::{TraceGenerator, TraceStep};

const SEED: u64 = 0x5EED_2025;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn routing(&mut self, r: &LayerRouting) {
        self.u32(u32::from(r.layer().0));
        self.u32(r.tokens());
        for &load in r.loads() {
            self.u32(load);
        }
        for mass in r.score_mass() {
            self.u32(mass.to_bits());
        }
    }

    fn step(&mut self, step: &TraceStep) {
        self.u32(step.tokens);
        self.u32(step.layers.len() as u32);
        for rec in &step.layers {
            self.routing(&rec.routing);
            self.u32(rec.predicted.len() as u32);
            for p in &rec.predicted {
                self.routing(p);
            }
            let Some(states) = &rec.states else {
                self.u32(0);
                continue;
            };
            self.u32(states.tokens() as u32);
            for input in &states.inputs {
                self.u32(input.len() as u32);
                for v in input {
                    self.u32(v.to_bits());
                }
            }
            for route in &states.routes {
                for s in &route.scores {
                    self.u32(s.to_bits());
                }
                for (e, w) in &route.selected {
                    self.u32(u32::from(e.0));
                    self.u32(w.to_bits());
                }
            }
        }
    }

    fn steps<'a>(mut self, steps: impl IntoIterator<Item = &'a TraceStep>) -> u64 {
        for s in steps {
            self.step(s);
        }
        self.0
    }
}

/// The generator entry points, in the column order of [`PINS`].
const CASES: [&str; 8] = [
    "decode_trace",
    "decode_trace_batched",
    "prefill_trace",
    "request",
    "request_chunked",
    "states/decode_trace",
    "states/decode_trace_batched",
    "states/request_chunked",
];

fn fingerprints(model: &ModelConfig) -> [u64; 8] {
    let plain = TraceGenerator::new(model.clone(), SEED);
    let states = TraceGenerator::new(model.clone(), SEED).with_token_states();

    let (prefill, stream) = plain.request(20);
    let request =
        Fnv::new().steps(std::iter::once(&prefill).chain(&stream.take(3).collect::<Vec<_>>()));
    let chunked = |g: &TraceGenerator, prompt, chunk| {
        let (chunks, stream) = g.request_chunked(prompt, chunk);
        let decode: Vec<TraceStep> = stream.take(2).collect();
        Fnv::new().steps(chunks.iter().chain(&decode))
    };
    [
        Fnv::new().steps(&plain.decode_trace(6).steps),
        Fnv::new().steps(&plain.decode_trace_batched(3, 4).steps),
        Fnv::new().steps(&plain.prefill_trace(24).steps),
        request,
        chunked(&plain, 40, 16),
        Fnv::new().steps(&states.decode_trace(2).steps),
        Fnv::new().steps(&states.decode_trace_batched(2, 3).steps),
        chunked(&states, 12, 5),
    ]
}

/// The values the generator produced before its buffers and top-k
/// selection were reworked; every later change must reproduce them.
const PINS: [(&str, [u64; 8]); 4] = [
    (
        "tiny-test",
        [
            0x54e50a5aebb39dd8,
            0x31f6dc76171e733a,
            0xdda0de84dd4a8520,
            0x7b59374cc3eef197,
            0x1ef9d2c88a0aef49,
            0x079453be5caf00c7,
            0x6ee764a396ef645b,
            0xe7febedd9be3fb14,
        ],
    ),
    (
        "DeepSeek-V2-Lite",
        [
            0x52e7fb16f018e198,
            0xe4615b2e6aad55af,
            0xb2643a3402953c4e,
            0x2247c9e2993898d1,
            0x28f4152714eceb4d,
            0x8865c3cebd43381f,
            0xe1cbcaaa66850306,
            0x8dcb025728bb08c4,
        ],
    ),
    (
        "Mixtral-8x7B",
        [
            0xc249ee0b6ec365d8,
            0x63e6f779d3acfb92,
            0x8a3860a7b875e2e3,
            0x64a3644947ae64d6,
            0x2abacec86f01cb9c,
            0x0bd59d0c0bfff2eb,
            0x6ae90f9eaab791c5,
            0x4d7a830f0d9fa885,
        ],
    ),
    (
        "Qwen2-57B-A14B",
        [
            0x786f7ffb3ec6ac58,
            0xbe32035db331dbda,
            0x930400ada19b860b,
            0xfa3a6dfd6c3c6e2e,
            0x5e1e26fa55ecdc15,
            0x28573cf7da74ca92,
            0xc1af0b9fd468ab33,
            0xa242846bc0984cc0,
        ],
    ),
];

#[test]
fn every_trace_bit_matches_the_pin() {
    let models = std::iter::once(ModelConfig::tiny_test()).chain(ModelConfig::paper_models());
    let mut mismatches = Vec::new();
    let mut actual = Vec::new();
    for (model, (name, pins)) in models.zip(PINS) {
        assert_eq!(model.name, name, "PINS lists the models in order");
        let got = fingerprints(&model);
        for (case, (g, p)) in CASES.iter().zip(got.iter().zip(pins)) {
            if *g != p {
                mismatches.push(format!("{name} {case}: {g:#018x} (pinned {p:#018x})"));
            }
        }
        actual.push(format!(
            "(\"{name}\", [{}]),",
            got.map(|g| format!("{g:#018x}")).join(", ")
        ));
    }
    assert!(
        mismatches.is_empty(),
        "trace bits moved:\n{}\nactual:\n{}",
        mismatches.join("\n"),
        actual.join("\n")
    );
}
