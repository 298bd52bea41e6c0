//! Cross-backend kernel dispatch suite: every runtime-selectable kernel
//! backend (scalar reference, portable auto-vectorized, AVX2 intrinsics)
//! must compute the same Q4 dequant+dot — bit-identically between the two
//! SIMD formulations, and within the documented reassociation bound of an
//! `f64` oracle for all of them. Runs with the default proptest config so
//! the weekly deep-fuzz job's `PROPTEST_CASES=1024` scales it up.

use hybrimoe::realexec::{RealExecOptions, RealLayerExecutor};
use hybrimoe_hw::UnitCostModel;
use hybrimoe_kernels::backend;
use hybrimoe_kernels::{KernelBackendKind, QuantizedMatrix, Q4_BLOCK};
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

proptest! {
    // Default config on purpose: PROPTEST_CASES scales the case count in
    // the weekly deep-fuzz job (1024) without touching this file.

    /// Kernel-level contract: each backend's `qdot_row` stays within the
    /// documented reassociation bound of `f64` ground truth over random
    /// matrices, token counts, and column counts, and the portable and
    /// AVX2 backends (same tile/lane accumulation order, no FMA) are bit
    /// for bit identical.
    #[test]
    fn backends_agree_on_qdot_row(
        seed in 0u32..10_000,
        rows in 1usize..6,
        blocks in 1usize..6,
        tokens in 1usize..6,
    ) {
        let cols = blocks * Q4_BLOCK;
        let q = QuantizedMatrix::quantize(&pseudo(rows * cols, seed), rows, cols).unwrap();
        let dense = q.dequantize();
        let x = pseudo(tokens * cols, seed ^ 0x9e37);

        let mut per_backend: Vec<(KernelBackendKind, Vec<f32>)> = Vec::new();
        for b in backend::available() {
            let mut out = vec![f32::NAN; rows * tokens];
            for r in 0..rows {
                b.qdot_row(&row_bytes(&q, r), &x, cols, &mut out[r * tokens..(r + 1) * tokens]);
            }
            per_backend.push((b.kind(), out));
        }

        for (kind, out) in &per_backend {
            for r in 0..rows {
                let w = &dense[r * cols..(r + 1) * cols];
                for t in 0..tokens {
                    let xt = &x[t * cols..(t + 1) * cols];
                    let truth: f64 = w.iter().zip(xt).map(|(a, b)| *a as f64 * *b as f64).sum();
                    let mag: f64 = w
                        .iter()
                        .zip(xt)
                        .map(|(a, b)| (*a as f64 * *b as f64).abs())
                        .sum();
                    let bound = (cols as f64) * f64::from(f32::EPSILON) * mag + 1e-12;
                    let got = out[r * tokens + t] as f64;
                    prop_assert!(
                        (got - truth).abs() <= bound,
                        "{kind:?} r={r} t={t}: {got} vs {truth} (bound {bound})"
                    );
                }
            }
        }

        let portable = per_backend
            .iter()
            .find(|(k, _)| *k == KernelBackendKind::Portable)
            .map(|(_, o)| o);
        let avx2 = per_backend
            .iter()
            .find(|(k, _)| *k == KernelBackendKind::Avx2)
            .map(|(_, o)| o);
        if let (Some(p), Some(a)) = (portable, avx2) {
            let pb: Vec<u32> = p.iter().map(|v| v.to_bits()).collect();
            let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(pb, ab, "portable and AVX2 diverged bitwise");
        }
    }

    /// Tiling contract: one multi-row `qdot_rows` call equals per-row
    /// `qdot_row` calls bit for bit on every backend — over every AVX2
    /// tile shape (4×1, 2×T, dequantize-once 2×4 sweeps), every row and
    /// token remainder, and rows longer than one column chunk.
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
        for b in backend::available() {
            let mut per_row = vec![f32::NAN; rows * tokens];
            for (r, out) in per_row.chunks_mut(tokens).enumerate() {
                b.qdot_row(&row_bytes(&q, r), &x, cols, out);
            }
            let mut banded = vec![f32::NAN; rows * tokens];
            b.qdot_rows(&q.data(), rows, &x, cols, &mut banded);
            let want: Vec<u32> = per_row.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = banded.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                got,
                want,
                "{:?} diverged at rows={} tokens={} cols={}",
                b.kind(),
                rows,
                tokens,
                cols
            );
        }
    }

    /// Executor-level contract: a layer executed under any available
    /// backend lands within a tight tolerance of the scalar-pinned run
    /// across batch sizes and thread counts, the scalar run is
    /// bit-identical to itself under dispatch (same loops, dispatched
    /// once at startup), and portable/AVX2 agree bitwise end to end.
    #[test]
    fn layer_outputs_agree_across_backends(
        seed in 0u64..1_000,
        tokens in 1usize..41,
        threads in 1usize..4,
    ) {
        let reference = run_layer(KernelBackendKind::Scalar, tokens, threads, seed);
        prop_assert!(reference.iter().all(|v| v.is_finite()));

        let mut per_kind: Vec<(KernelBackendKind, Vec<f32>)> = Vec::new();
        for b in backend::available() {
            per_kind.push((b.kind(), run_layer(b.kind(), tokens, threads, seed)));
        }
        for (kind, out) in &per_kind {
            prop_assert_eq!(out.len(), reference.len());
            if *kind == KernelBackendKind::Scalar {
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want, "scalar dispatch drifted from the pinned scalar run");
                continue;
            }
            for (i, (a, b)) in out.iter().zip(reference.iter()).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-4 * b.abs().max(1.0),
                    "{kind:?} diverged from scalar at {i}: {a} vs {b} \
                     (tokens={tokens}, threads={threads})"
                );
            }
        }

        let portable = per_kind
            .iter()
            .find(|(k, _)| *k == KernelBackendKind::Portable)
            .map(|(_, o)| o);
        let avx2 = per_kind
            .iter()
            .find(|(k, _)| *k == KernelBackendKind::Avx2)
            .map(|(_, o)| o);
        if let (Some(p), Some(a)) = (portable, avx2) {
            let pb: Vec<u32> = p.iter().map(|v| v.to_bits()).collect();
            let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(pb, ab, "portable and AVX2 layer outputs diverged bitwise");
        }
    }
}

/// The `HYBRIMOE_KERNEL_BACKEND` knob and the `RealExecOptions` field pick
/// concrete backends, and an executor always reports one (never `Auto`).
#[test]
fn executors_report_concrete_backends() {
    for kind in [
        KernelBackendKind::Auto,
        KernelBackendKind::Scalar,
        KernelBackendKind::Portable,
        KernelBackendKind::Avx2,
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
        match kind {
            KernelBackendKind::Auto => {}
            KernelBackendKind::Avx2 if !backend::avx2_available() => {
                assert_eq!(resolved, KernelBackendKind::Scalar, "clean scalar fallback");
            }
            pinned => assert_eq!(resolved, pinned),
        }
    }
}
