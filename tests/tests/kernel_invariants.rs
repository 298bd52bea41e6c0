//! Property-based invariants on the compute kernels: quantization error
//! bounds, GEMV linearity, and FFN batch/single-token agreement.

use hybrimoe_kernels::{gemm, ExpertFfn, QuantizedMatrix, Q4_BLOCK};
use proptest::prelude::*;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantization_error_is_bounded(w in arb_matrix(3, Q4_BLOCK * 2)) {
        let q = QuantizedMatrix::quantize(&w, 3, Q4_BLOCK * 2).unwrap();
        let back = q.dequantize();
        let bound = q.max_step() / 2.0 + 1e-6;
        for (a, b) in w.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() <= bound, "{a} vs {b}, bound {bound}");
        }
    }

    #[test]
    fn double_quantization_error_stays_bounded(w in arb_matrix(2, Q4_BLOCK)) {
        // Re-quantizing a dequantized matrix compounds at most one extra
        // quantization step (the scale shifts by the code-range asymmetry,
        // so exact idempotence does not hold).
        let q1 = QuantizedMatrix::quantize(&w, 2, Q4_BLOCK).unwrap();
        let d1 = q1.dequantize();
        let q2 = QuantizedMatrix::quantize(&d1, 2, Q4_BLOCK).unwrap();
        let d2 = q2.dequantize();
        let bound = q1.max_step() / 2.0 + q2.max_step() / 2.0 + 1e-6;
        for (a, b) in w.iter().zip(d2.iter()) {
            prop_assert!((a - b).abs() <= bound, "{a} vs {b}, bound {bound}");
        }
    }

    #[test]
    fn gemv_is_linear(
        w in arb_matrix(4, 8),
        x in proptest::collection::vec(-1.0f32..1.0, 8),
        scale in -3.0f32..3.0,
    ) {
        let mut y1 = vec![0.0; 4];
        gemm::gemv(&w, 4, 8, &x, &mut y1);
        let sx: Vec<f32> = x.iter().map(|v| v * scale).collect();
        let mut y2 = vec![0.0; 4];
        gemm::gemv(&w, 4, 8, &sx, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            prop_assert!((a * scale - b).abs() < 1e-3, "{} vs {}", a * scale, b);
        }
    }

    #[test]
    fn ffn_batch_agrees_with_single(seed in 0u64..50, tokens in 1usize..4) {
        let ffn = ExpertFfn::random(Q4_BLOCK, Q4_BLOCK * 2, seed);
        let x: Vec<f32> = (0..tokens * Q4_BLOCK)
            .map(|i| ((i as f32) * 0.13).sin() * 0.2)
            .collect();
        let batch = ffn.forward_batch(&x, tokens);
        for t in 0..tokens {
            let single = ffn.forward(&x[t * Q4_BLOCK..(t + 1) * Q4_BLOCK]);
            for i in 0..Q4_BLOCK {
                prop_assert!((batch[t * Q4_BLOCK + i] - single[i]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn silu_is_bounded_below(x in -50.0f32..50.0) {
        let y = gemm::silu(x);
        prop_assert!(y >= -0.279, "silu({x}) = {y}");
        prop_assert!(y <= x.max(0.0) + 1e-6);
    }
}
