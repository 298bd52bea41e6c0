//! The single-precision GEMV oracle and the SwiGLU activation.
//!
//! [`gemv`] is deliberately simple and dependency-free: a dense `f32`
//! reference for tests, not a kernel anything runs in production, and it
//! is *not* dispatched through [`crate::backend`]. [`silu`] and
//! [`swiglu_gate`] are the one activation every FFN path — production and
//! reference — shares.

/// `y = W · x` where `W` is `rows x cols` row-major.
///
/// # Panics
///
/// Panics if `w.len() != rows * cols`, `x.len() != cols`, or
/// `y.len() != rows`.
///
/// # Example
///
/// ```
/// let w = vec![1.0, 2.0, 3.0, 4.0]; // [[1,2],[3,4]]
/// let x = vec![10.0, 20.0];
/// let mut y = vec![0.0; 2];
/// hybrimoe_kernels::gemm::gemv(&w, 2, 2, &x, &mut y);
/// assert_eq!(y, vec![50.0, 110.0]);
/// ```
pub fn gemv(w: &[f32], rows: usize, cols: usize, x: &[f32], y: &mut [f32]) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        // 4-way unrolled dot product; the remainder is handled below.
        let mut c = 0;
        while c + 4 <= cols {
            acc += row[c] * x[c]
                + row[c + 1] * x[c + 1]
                + row[c + 2] * x[c + 2]
                + row[c + 3] * x[c + 3];
            c += 4;
        }
        while c < cols {
            acc += row[c] * x[c];
            c += 1;
        }
        *yr = acc;
    }
}

/// SiLU (swish) activation: `x * sigmoid(x)`.
///
/// # Example
///
/// ```
/// assert_eq!(hybrimoe_kernels::gemm::silu(0.0), 0.0);
/// assert!(hybrimoe_kernels::gemm::silu(10.0) > 9.9);
/// ```
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// `y[i] = silu(g[i]) * u[i]` — the SwiGLU gating product.
///
/// # Panics
///
/// Panics if lengths differ.
///
/// # Example
///
/// ```
/// let mut y = [0.0_f32; 2];
/// hybrimoe_kernels::gemm::swiglu_gate(&[0.0, 1.0], &[3.0, 2.0], &mut y);
/// assert_eq!(y[0], 0.0);
/// ```
pub fn swiglu_gate(g: &[f32], u: &[f32], y: &mut [f32]) {
    assert_eq!(g.len(), u.len());
    assert_eq!(g.len(), y.len());
    for ((yv, gv), uv) in y.iter_mut().zip(g.iter()).zip(u.iter()) {
        *yv = silu(*gv) * uv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1u32 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn gemv_matches_naive() {
        let (rows, cols) = (13, 29);
        let w = pseudo(rows * cols, 1);
        let x = pseudo(cols, 2);
        let mut y = vec![0.0; rows];
        gemv(&w, rows, cols, &x, &mut y);
        let c = naive_gemm(&w, &x, rows, cols, 1);
        for (a, b) in y.iter().zip(c.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn gemv_rejects_bad_shape() {
        let mut y = vec![0.0; 2];
        gemv(&[1.0; 3], 2, 2, &[1.0; 2], &mut y);
    }

    #[test]
    fn silu_properties() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(5.0) > 0.0);
        assert!(silu(-5.0) < 0.0);
        assert!(silu(-5.0).abs() < 0.05);
    }

    #[test]
    fn swiglu_gate_elementwise() {
        let g = [0.0, 1.0];
        let u = [3.0, 2.0];
        let mut y = [9.0, 9.0];
        swiglu_gate(&g, &u, &mut y);
        assert_eq!(y[0], 0.0);
        assert!((y[1] - silu(1.0) * 2.0).abs() < 1e-6);
    }
}
