//! Cross-backend kernel dispatch suite: every runtime-selectable kernel
//! backend (scalar reference, AVX2 and AVX-512 VNNI intrinsics) must
//! compute the same `Q4_0 × Q8_0` integer dot — the same activation codes
//! and scales, the same output bits at every shape — and that one
//! arithmetic must stay within its pinned accuracy bound of an `f64`
//! oracle over the dequantized weights. Runs with the default proptest
//! config so the weekly deep-fuzz job's `PROPTEST_CASES=1024` scales it up.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hybrimoe::realexec::{RealExecOptions, RealLayerExecutor};
use hybrimoe_hw::UnitCostModel;
use hybrimoe_kernels::backend;
use hybrimoe_kernels::{KernelBackend, KernelBackendKind, Q8Acts, QuantizedMatrix, Q4_BLOCK};
use hybrimoe_model::{LayerId, LayerRouting, ModelConfig, RouterOutput};
use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, Scheduler};
use proptest::prelude::*;

const Q4_BLOCK_BYTES: usize = hybrimoe_kernels::quant::Q4_BLOCK_BYTES;

/// Deterministic pseudo-random f32s in [-0.5, 0.5) (LCG; no rand dep).
fn pseudo(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
        })
        .collect()
}

/// One weight row's packed Q4 blocks.
fn row_bytes(q: &QuantizedMatrix, r: usize) -> Vec<u8> {
    let bpr = q.cols() / Q4_BLOCK * Q4_BLOCK_BYTES;
    q.data()[r * bpr..(r + 1) * bpr].to_vec()
}

/// Deterministic token inputs and routes for one tiny-model layer.
fn layer_tokens(
    model: &ModelConfig,
    tokens: usize,
    seed: u64,
) -> (Vec<Vec<f32>>, Vec<RouterOutput>) {
    let hidden = model.routed_shape.hidden() as usize;
    let experts = model.routed_experts as usize;
    let k = model.activated_experts as usize;
    (0..tokens)
        .map(|t| {
            let x: Vec<f32> = (0..hidden)
                .map(|i| (((t as u64 * 131 + i as u64 * 7 + seed) % 100) as f32 / 50.0 - 1.0) * 0.1)
                .collect();
            let logits: Vec<f32> = (0..experts)
                .map(|e| (((t + e * 13 + seed as usize) % 17) as f32) / 4.0)
                .collect();
            (x, RouterOutput::route(&logits, k))
        })
        .unzip()
}

/// Runs one scheduled layer under a pinned kernel backend.
fn run_layer(kind: KernelBackendKind, tokens: usize, threads: usize, seed: u64) -> Vec<f32> {
    let model = ModelConfig::tiny_test();
    let (inputs, routes) = layer_tokens(&model, tokens, seed);
    let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, &routes);
    let tasks: Vec<ExpertTask> = routing
        .activated()
        .into_iter()
        .map(|(e, load)| ExpertTask {
            expert: e,
            load,
            cached: e.0 % 2 == 0,
        })
        .collect();
    let cost = UnitCostModel::paper_fig5();
    let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
    let plan = HybridScheduler::new().schedule(&ctx);
    let mut exec = RealLayerExecutor::with_options(
        model,
        7,
        RealExecOptions {
            max_threads: threads,
            kernel_backend: kind,
            ..Default::default()
        },
    );
    exec.execute_layer(LayerId(0), &plan, &inputs, &routes)
        .expect("valid plan executes")
        .output
}

/// Roughly normal samples (sum of four uniforms): the tails a uniform
/// input lacks, which is what costs an 8-bit block its resolution.
fn gaussian(n: usize, seed: u32) -> Vec<f32> {
    pseudo(4 * n, seed)
        .chunks(4)
        .map(|c| c.iter().sum::<f32>())
        .collect()
}

fn quantized(b: &dyn KernelBackend, x: &[f32], cols: usize) -> Q8Acts {
    let mut acts = Q8Acts::new();
    b.quantize(x, cols, &mut acts);
    acts
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    // Default config on purpose: PROPTEST_CASES scales the case count in
    // the weekly deep-fuzz job (1024) without touching this file.

    /// Quantizer contract: every backend emits the same codes and scales,
    /// on ordinary inputs and on blocks built to sit on exact `.5` ties
    /// (amax 127 makes the scale exactly 1); `±amax` lands on `±127` and
    /// `-128` never appears.
    #[test]
    fn backends_quantize_activations_identically(
        seed in 0u32..10_000,
        blocks in 1usize..9,
        tokens in 1usize..6,
        tie_block in 0usize..9,
    ) {
        let cols = blocks * Q4_BLOCK;
        let mut x = pseudo(tokens * cols, seed);
        if tie_block < blocks {
            for (i, v) in x[tie_block * Q4_BLOCK..][..Q4_BLOCK].iter_mut().enumerate() {
                *v = ((seed as usize + 7 * i) % 250) as f32 - 125.0 + 0.5;
            }
            x[tie_block * Q4_BLOCK] = 127.0;
        }
        let reference = quantized(backend::scalar(), &x, cols);
        prop_assert!(reference.codes().iter().all(|c| *c != i8::MIN));
        for (b, xb) in x.chunks(Q4_BLOCK).enumerate() {
            let amax = xb.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            prop_assert_eq!(reference.scales()[b], amax / 127.0);
            // Unpack order: element 2i at i, element 2i + 1 at 16 + i.
            let at_amax = xb.iter().position(|v| v.abs() == amax).unwrap();
            let code = reference.codes()[b * Q4_BLOCK + at_amax / 2 + 16 * (at_amax % 2)];
            prop_assert_eq!(i32::from(code), 127 * xb[at_amax].signum() as i32);
        }
        if tie_block < blocks {
            // Ties go to even: every code of the tie block but the 127.
            let codes = &reference.codes()[tie_block * Q4_BLOCK..][..Q4_BLOCK];
            prop_assert!(codes[1..].iter().all(|c| c % 2 == 0), "{:?}", codes);
        }
        for b in backend::available() {
            prop_assert_eq!(&quantized(b, &x, cols), &reference, "{:?}", b.kind());
        }
    }

    /// Kernel-level contract: every backend's `qdot_row` produces the
    /// same bits, and those bits stay within the rounding bound of `f64`
    /// ground truth over the dequantized weights and the unrounded
    /// activations: each activation moves by at most half its block's
    /// scale, so an output moves by at most `Σ_blocks scale/2 · Σ|w|`
    /// (plus `f32` accumulation slack). The statistical "under 1% of the
    /// output's largest magnitude" at model-sized shapes is pinned in
    /// `quant::tests::qgemv_matches_dequantized_gemv`.
    #[test]
    fn backends_agree_on_qdot_row(
        seed in 0u32..10_000,
        rows in 1usize..6,
        blocks in 1usize..6,
        tokens in 1usize..6,
        normal in 0usize..2,
    ) {
        let cols = blocks * Q4_BLOCK;
        let sample = if normal == 1 { gaussian } else { pseudo };
        let q = QuantizedMatrix::quantize(&sample(rows * cols, seed), rows, cols).unwrap();
        let dense = q.dequantize();
        let x = sample(tokens * cols, seed ^ 0x9e37);

        let mut per_backend: Vec<(KernelBackendKind, Vec<f32>)> = Vec::new();
        for b in backend::available() {
            let acts = quantized(b, &x, cols);
            let mut out = vec![f32::NAN; rows * tokens];
            for r in 0..rows {
                b.qdot_row(&row_bytes(&q, r), &acts, &mut out[r * tokens..(r + 1) * tokens]);
            }
            per_backend.push((b.kind(), out));
        }

        let (_, reference) = &per_backend[0];
        for (kind, out) in &per_backend {
            prop_assert_eq!(bits(out), bits(reference), "{:?} diverged from scalar", kind);
        }

        for (i, got) in reference.iter().enumerate() {
            let w = &dense[i / tokens * cols..][..cols];
            let xt = &x[i % tokens * cols..][..cols];
            let (mut truth, mut mag, mut rounding) = (0.0f64, 0.0f64, 0.0f64);
            for (wb, xb) in w.chunks(Q4_BLOCK).zip(xt.chunks(Q4_BLOCK)) {
                let amax = xb.iter().fold(0.0f64, |m, v| m.max(v.abs() as f64));
                rounding += amax / 254.0 * wb.iter().map(|w| w.abs() as f64).sum::<f64>();
                for (w, x) in wb.iter().zip(xb) {
                    truth += *w as f64 * *x as f64;
                    mag += (*w as f64 * *x as f64).abs();
                }
            }
            let bound = rounding + (cols as f64) * f64::from(f32::EPSILON) * mag + 1e-12;
            prop_assert!(
                (*got as f64 - truth).abs() <= bound,
                "output {}: {} vs {} (bound {})", i, got, truth, bound
            );
        }
    }

    /// Tiling contract: one multi-row `qdot_rows` call equals per-row
    /// `qdot_row` calls bit for bit, on every backend and across backends
    /// — over every AVX2 tile shape (4×1, 4×2, 2×4 and its 2×T
    /// remainders, 1×T for leftover rows), every AVX-512 one (four row
    /// pairs, one pair, the odd last row), every row and token remainder,
    /// and long rows.
    #[test]
    fn qdot_rows_equals_per_row_qdot_row(
        seed in 0u32..10_000,
        rows in 1usize..13,
        tokens in 1usize..41,
        cols_choice in 0usize..5,
    ) {
        let cols = [32usize, 96, 256, 512, 4096][cols_choice];
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, seed), rows, cols).unwrap();
        let x = pseudo(tokens * cols, seed ^ 0x51ed);
        let mut reference: Option<Vec<u32>> = None;
        for b in backend::available() {
            let acts = quantized(b, &x, cols);
            let mut per_row = vec![f32::NAN; rows * tokens];
            for (r, out) in per_row.chunks_mut(tokens).enumerate() {
                b.qdot_row(&row_bytes(&q, r), &acts, out);
            }
            let mut banded = vec![f32::NAN; rows * tokens];
            b.qdot_rows(q.data(), rows, &acts, &mut banded);
            prop_assert_eq!(
                bits(&banded),
                bits(&per_row),
                "{:?} diverged at rows={} tokens={} cols={}",
                b.kind(),
                rows,
                tokens,
                cols
            );
            let want = reference.get_or_insert_with(|| bits(&banded));
            prop_assert_eq!(
                &bits(&banded),
                &*want,
                "{:?} diverged from scalar at rows={} tokens={} cols={}",
                b.kind(),
                rows,
                tokens,
                cols
            );
        }
    }

    /// Executor-level contract: a layer executed under any available
    /// backend produces the bits of the scalar-pinned run, across batch
    /// sizes and thread counts.
    #[test]
    fn layer_outputs_agree_across_backends(
        seed in 0u64..1_000,
        tokens in 1usize..41,
        threads in 1usize..4,
    ) {
        let reference = run_layer(KernelBackendKind::Scalar, tokens, threads, seed);
        prop_assert!(reference.iter().all(|v| v.is_finite()));
        for b in backend::available() {
            let out = run_layer(b.kind(), tokens, threads, seed);
            prop_assert_eq!(
                bits(&out),
                bits(&reference),
                "{:?} diverged from scalar (tokens={}, threads={})",
                b.kind(),
                tokens,
                threads
            );
        }
    }
}

/// The edges a random sweep can miss, one by one: every (rows, tokens) in
/// 0..=9 × 0..=9 — empty bands and batches, odd rows, each row-group and
/// token remainder of every tile family — at block counts that are and
/// are not multiples of two.
#[test]
fn every_small_shape_matches_the_scalar_reference() {
    for cols in [32usize, 96, 256, 512] {
        let q = QuantizedMatrix::quantize(&pseudo(9 * cols, 17), 9, cols).unwrap();
        let data = q.data();
        for tokens in 0..=9usize {
            let acts = quantized(backend::scalar(), &pseudo(tokens * cols, 18), cols);
            for nrows in 0..=9usize {
                let rows = &data[..nrows * cols / Q4_BLOCK * Q4_BLOCK_BYTES];
                let mut want = vec![f32::NAN; nrows * tokens];
                backend::scalar().qdot_rows(rows, nrows, &acts, &mut want);
                for b in backend::available() {
                    let mut out = vec![f32::NAN; nrows * tokens];
                    b.qdot_rows(rows, nrows, &acts, &mut out);
                    assert_eq!(
                        bits(&out),
                        bits(&want),
                        "{:?} cols={cols} tokens={tokens} nrows={nrows}",
                        b.kind()
                    );
                }
            }
        }
    }
}

/// The largest sums the integer dot can meet: every nibble 15 or 0
/// (centred 7 or -8) against every activation code +127 or -127. Nothing
/// may saturate on the way (`maddubs` pair sums, `vpdpbusd` rather than
/// `vpdpbusds`), so each output is the exact product sum.
#[test]
fn extreme_codes_give_exact_sums_on_every_backend() {
    let (nrows, blocks, tokens) = (9usize, 3usize, 5usize);
    let cols = blocks * Q4_BLOCK;
    for (nibbles, centred) in [(0xffu8, 7.0f64), (0x00, -8.0)] {
        let mut block = 1.0f32.to_le_bytes().to_vec();
        block.resize(Q4_BLOCK_BYTES, nibbles);
        let rows = block.repeat(nrows * blocks);
        for sign in [1.0f32, -1.0] {
            let acts = quantized(backend::scalar(), &vec![sign; tokens * cols], cols);
            assert!(acts.codes().iter().all(|c| f32::from(*c) == sign * 127.0));
            // 127 · (1/127) is 1 up to the rounding of the scale.
            let want = cols as f64 * centred * f64::from(sign);
            let mut reference = vec![f32::NAN; nrows * tokens];
            backend::scalar().qdot_rows(&rows, nrows, &acts, &mut reference);
            assert!(reference
                .iter()
                .all(|v| (f64::from(*v) - want).abs() < 1e-3 * want.abs()));
            for b in backend::available() {
                let mut out = vec![f32::NAN; nrows * tokens];
                b.qdot_rows(&rows, nrows, &acts, &mut out);
                assert_eq!(bits(&out), bits(&reference), "{:?}", b.kind());
            }
        }
    }
}

/// The ladder `Auto` climbs (`avx512` → `avx2` → `scalar`) is a speed
/// ladder on this host: on one 256 × 512 band, at one token and at 32, no
/// rung is slower than the one below it. Trials are interleaved across
/// rungs and the best of nine kept, because a shared host's clock moves
/// between trials more than it does within one round of them. Each trial
/// times the second of two calls: the first call after another rung ran
/// pays that switch (cold code, the 512-bit units waking), which at one
/// token costs AVX-512 its whole lead (5.7 against 5.4 µs cold, 3.8
/// against 5.1 µs warm on the host this was written on).
#[test]
fn wider_backends_are_not_slower_on_this_host() {
    let (nrows, cols) = (256usize, 512usize);
    let q = QuantizedMatrix::quantize(&pseudo(nrows * cols, 91), nrows, cols).unwrap();
    let data = q.data();
    // Ascending width: scalar, then whichever SIMD rungs the host has.
    let rungs = backend::available();
    for kind in [KernelBackendKind::Avx2, KernelBackendKind::Avx512] {
        if !rungs.iter().any(|b| b.kind() == kind) {
            println!("skipping {}: this host cannot run it", kind.name());
        }
    }
    for tokens in [1usize, 32] {
        let acts = quantized(backend::scalar(), &pseudo(tokens * cols, 92), cols);
        let mut out = vec![0.0f32; nrows * tokens];
        let mut best = vec![Duration::MAX; rungs.len()];
        for _ in 0..9 {
            for (b, best) in rungs.iter().zip(&mut best) {
                b.qdot_rows(black_box(data), nrows, black_box(&acts), &mut out);
                let start = Instant::now();
                b.qdot_rows(black_box(data), nrows, black_box(&acts), &mut out);
                black_box(&mut out);
                *best = (*best).min(start.elapsed());
            }
        }
        let timed: Vec<String> = rungs
            .iter()
            .zip(&best)
            .map(|(b, t)| format!("{} {:.1} µs", b.kind().name(), t.as_secs_f64() * 1e6))
            .collect();
        println!("qdot_rows {nrows}x{cols}, T={tokens}: {}", timed.join(", "));
        for (i, pair) in best.windows(2).enumerate() {
            assert!(
                pair[1] <= pair[0],
                "T={tokens}: {} took {:?}, slower than {} at {:?}",
                rungs[i + 1].kind().name(),
                pair[1],
                rungs[i].kind().name(),
                pair[0]
            );
        }
    }
}

/// The shape checks are real asserts on every backend, in release builds
/// too: the SIMD kernels read through raw pointers on their strength.
#[test]
fn shape_mismatches_panic_on_every_backend() {
    // (row bytes, activation floats, outputs) for two one-block rows by
    // three tokens, each off by one in turn.
    let cases = [
        (2 * Q4_BLOCK_BYTES - 1, 3 * Q4_BLOCK, 6, "row bytes"),
        (2 * Q4_BLOCK_BYTES, 3 * Q4_BLOCK - 1, 6, "activation shape"),
        (2 * Q4_BLOCK_BYTES, 3 * Q4_BLOCK, 5, "output shape"),
    ];
    for b in backend::available() {
        for (row_bytes, x_len, out_len, message) in cases {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let acts = quantized(b, &vec![0.0; x_len], Q4_BLOCK);
                b.qdot_rows(&vec![0u8; row_bytes], 2, &acts, &mut vec![0.0; out_len]);
            }))
            .expect_err("a bad shape was accepted");
            let text = match panic.downcast_ref::<String>() {
                Some(formatted) => formatted.as_str(),
                None => panic.downcast_ref::<&str>().expect("assert message"),
            };
            assert!(text.contains(message), "{:?}: {text}", b.kind());
        }
    }
}

/// The `HYBRIMOE_KERNEL_BACKEND` knob and the `RealExecOptions` field pick
/// concrete backends, and an executor always reports one (never `Auto`).
/// A SIMD kind the host lacks lands on the next rung down.
#[test]
fn executors_report_concrete_backends() {
    for kind in [
        KernelBackendKind::Auto,
        KernelBackendKind::Scalar,
        KernelBackendKind::Avx2,
        KernelBackendKind::Avx512,
    ] {
        let exec = RealLayerExecutor::with_options(
            ModelConfig::tiny_test(),
            7,
            RealExecOptions {
                kernel_backend: kind,
                ..Default::default()
            },
        );
        let resolved = exec.backend_kind();
        assert_ne!(resolved, KernelBackendKind::Auto);
        let below_avx512 = KernelBackendKind::Avx2.resolved();
        match kind {
            KernelBackendKind::Auto => {}
            KernelBackendKind::Avx2 if !backend::avx2_available() => {
                assert_eq!(resolved, KernelBackendKind::Scalar, "clean scalar fallback");
            }
            KernelBackendKind::Avx512 if !backend::avx512_available() => {
                assert_eq!(resolved, below_avx512, "one rung down");
            }
            pinned => assert_eq!(resolved, pinned),
        }
    }
}
