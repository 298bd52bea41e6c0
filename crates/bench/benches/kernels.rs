//! Compute kernel throughput: the scalar reference GEMV, then the
//! production path per backend — one `qdot_rows` band and a whole expert
//! FFN forward, on one cache-hot expert and on 64 experts in rotation
//! whose weights stream past the L2. The FFN numbers are what `hybrimoe::CpuMeasurement::profile()`
//! distills from an engine executing for real (`BackendKind::RealCpu`), so
//! they double as a sanity check that the calibrated CPU GFLOP/s is
//! self-consistent.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hybrimoe_kernels::{backend, ExecScratch, ExpertFfn, Q8Acts, QuantizedMatrix, WorkerPool};

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
                b.iter(|| q.qgemv(std::hint::black_box(&x), &mut y));
            },
        );
    }
    group.finish();
}

/// The batch sizes the per-backend groups sweep: one, two and three or
/// more tokens select different register tiles (AVX2 `4×1`, `4×2`, `2×4`;
/// AVX-512 `ymm` tiles up to two tokens and two-rows-per-`zmm` tiles from
/// three), so `avx512` against `avx2` at `T2` and `T3` is the measured
/// case for that switch; `T32` is repeated full tiles.
const BATCHES: [usize; 5] = [1, 2, 3, 4, 32];

/// The primitive under every pooled kernel: one `qdot_rows` call over a
/// 256-row band of 512 columns of already-quantized activations on each
/// available backend.
fn bench_qdot_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("qdot_rows");
    let (rows, cols) = (256usize, 512usize);
    let w: Vec<f32> = (0..rows * cols)
        .map(|i| ((i % 97) as f32 - 48.0) / 50.0)
        .collect();
    let q = QuantizedMatrix::quantize(&w, rows, cols).unwrap();
    let packed = q.data();
    for tokens in BATCHES {
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
                    bench.iter(|| b.qdot_rows(packed, rows, std::hint::black_box(&acts), &mut out));
                },
            );
        }
    }
    group.finish();
}

/// One whole expert (quantize, gate, up, SwiGLU, quantize, down) at the
/// repo benchmark's expert shape on each available backend, single
/// threaded as `real_serve` runs it.
fn bench_ffn(c: &mut Criterion) {
    let mut group = c.benchmark_group("expert_ffn_forward");
    let (hidden, inter) = (256usize, 512usize);
    let ffn = ExpertFfn::random(hidden, inter, 3);
    let pool = WorkerPool::new(1);
    let mut scratch = ExecScratch::new();
    for tokens in BATCHES {
        let x = vec![0.1f32; tokens * hidden];
        let mut y = vec![0.0f32; tokens * hidden];
        group.throughput(Throughput::Elements(ffn.flops_per_token() * tokens as u64));
        for b in backend::available() {
            group.bench_function(
                BenchmarkId::new(b.kind().name(), format!("T{tokens}")),
                |bench| {
                    bench.iter(|| {
                        let x = std::hint::black_box(&x);
                        ffn.forward_batch_into(x, tokens, &mut y, &mut scratch, &pool, b);
                    });
                },
            );
        }
    }
    group.finish();
}

/// The batch sizes a decode step's CPU experts mostly see: at one to
/// four tokens an expert is bound by how fast its weight bytes arrive.
const STREAM_BATCHES: [usize; 3] = [1, 2, 4];

/// [`bench_ffn`] with the weights cold: 64 distinct experts of the same
/// shape in rotation, one per iteration, as `real_serve` walks bench-moe's
/// 64 experts a layer. Their 15.7 MB of packed weights exceed the L2, so
/// each call streams its expert's bytes from L3 or memory; against the
/// hot group at the same batch this is the cost of weight streaming.
fn bench_ffn_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("expert_ffn_stream");
    let (hidden, inter) = (256usize, 512usize);
    let experts: Vec<ExpertFfn> = (0..64)
        .map(|seed| ExpertFfn::random(hidden, inter, seed))
        .collect();
    let pool = WorkerPool::new(1);
    let mut scratch = ExecScratch::new();
    for tokens in STREAM_BATCHES {
        let x = vec![0.1f32; tokens * hidden];
        let mut y = vec![0.0f32; tokens * hidden];
        group.throughput(Throughput::Elements(
            experts[0].flops_per_token() * tokens as u64,
        ));
        for b in backend::available() {
            let mut next = experts.iter().cycle();
            group.bench_function(
                BenchmarkId::new(b.kind().name(), format!("T{tokens}")),
                |bench| {
                    bench.iter(|| {
                        let ffn = next.next().expect("a cycle never ends");
                        let x = std::hint::black_box(&x);
                        ffn.forward_batch_into(x, tokens, &mut y, &mut scratch, &pool, b);
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_qgemv, bench_qdot_rows, bench_ffn, bench_ffn_stream
}
criterion_main!(benches);
