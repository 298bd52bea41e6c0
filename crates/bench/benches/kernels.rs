//! Compute kernel throughput: quantized GEMV / batched GEMM / expert FFN
//! forward. These are the numbers the warmup calibration feeds into the
//! cost model, so they double as a sanity check that the calibrated
//! CPU GFLOP/s is self-consistent.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hybrimoe_kernels::{backend, ExpertFfn, Q8Acts, QuantizedMatrix};

fn bench_qgemv(c: &mut Criterion) {
    let mut group = c.benchmark_group("qgemv");
    for (rows, cols) in [(256usize, 256usize), (512, 512)] {
        let w: Vec<f32> = (0..rows * cols)
            .map(|i| ((i % 97) as f32 - 48.0) / 50.0)
            .collect();
        let q = QuantizedMatrix::quantize(&w, rows, cols).unwrap();
        let x: Vec<f32> = (0..cols).map(|i| ((i % 13) as f32 - 6.0) / 7.0).collect();
        group.throughput(Throughput::Elements((rows * cols) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{rows}x{cols}")),
            &q,
            |b, q| {
                let mut y = vec![0.0f32; rows];
                b.iter(|| q.qgemv(std::hint::black_box(&x), &mut y, 1));
            },
        );
    }
    group.finish();
}

/// The primitive under every pooled kernel: one `qdot_rows` call over a
/// 256-row band of 512 columns of already-quantized activations on each
/// available backend, at the batch sizes that select each AVX2 tile shape
/// (4×1, 4×2, 2×4, and repeated 2×4 tiles at 8 and 32 tokens).
fn bench_qdot_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("qdot_rows");
    let (rows, cols) = (256usize, 512usize);
    let w: Vec<f32> = (0..rows * cols)
        .map(|i| ((i % 97) as f32 - 48.0) / 50.0)
        .collect();
    let q = QuantizedMatrix::quantize(&w, rows, cols).unwrap();
    let packed = q.data();
    for tokens in [1usize, 2, 4, 8, 32] {
        let x: Vec<f32> = (0..tokens * cols)
            .map(|i| ((i % 13) as f32 - 6.0) / 7.0)
            .collect();
        let mut out = vec![0.0f32; rows * tokens];
        group.throughput(Throughput::Elements((2 * rows * cols * tokens) as u64));
        for b in backend::available() {
            let mut acts = Q8Acts::new();
            b.quantize(&x, cols, &mut acts);
            group.bench_function(
                BenchmarkId::new(b.kind().name(), format!("T{tokens}")),
                |bench| {
                    bench
                        .iter(|| b.qdot_rows(&packed, rows, std::hint::black_box(&acts), &mut out));
                },
            );
        }
    }
    group.finish();
}

fn bench_ffn(c: &mut Criterion) {
    let mut group = c.benchmark_group("expert_ffn_forward");
    let ffn = ExpertFfn::random(256, 384, 3);
    let x = vec![0.1f32; 256];
    group.throughput(Throughput::Elements(ffn.flops_per_token()));
    group.bench_function("single_token", |b| {
        b.iter(|| ffn.forward(std::hint::black_box(&x)));
    });
    let batch: Vec<f32> = vec![0.1f32; 8 * 256];
    group.bench_function("batch_8", |b| {
        b.iter(|| ffn.forward_batch(std::hint::black_box(&batch), 8, 1));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_qgemv, bench_qdot_rows, bench_ffn
}
criterion_main!(benches);
