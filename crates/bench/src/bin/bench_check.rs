//! CI perf-regression gates: the serving sweep vs the committed
//! `BENCH_serve.json` snapshot, the real-backend kernel
//! sweep vs the committed `BENCH_real.json` snapshot, the
//! network-serving load vs the committed `BENCH_server.json` snapshot,
//! and the distributed-worker sweep vs the committed `BENCH_worker.json`
//! snapshot.
//!
//! ```text
//! cargo run -p hybrimoe_bench --release --bin bench_check                 # gate vs committed snapshots
//! cargo run -p hybrimoe_bench --release --bin bench_check -- --baseline x.json
//! cargo run -p hybrimoe_bench --release --bin bench_check -- --fresh serve_bench.json
//! cargo run -p hybrimoe_bench --release --bin bench_check -- --real-fresh real_bench.json
//! cargo run -p hybrimoe_bench --release --bin bench_check -- --server-fresh server_bench.json
//! cargo run -p hybrimoe_bench --release --bin bench_check -- --worker-fresh worker_bench.json
//! cargo run -p hybrimoe_bench --release --bin bench_check -- --chaos-fresh chaos_bench.json
//! ```
//!
//! `--fresh <path>` / `--real-fresh <path>` / `--server-fresh <path>` /
//! `--worker-fresh <path>` reuse already-computed sweep JSON (e.g. the
//! artifacts the CI smoke job's `serve_bench` / `real_bench` /
//! `load_gen` / `worker_bench` steps just wrote) instead of re-running
//! the sweeps.
//!
//! **Serve gate**: fails (exit code 1) if HybriMoE's decode throughput at
//! cache ratio 0.25 drops more than [`TOLERANCE`] below the snapshot on
//! any swept arrival rate (at any swept GPU count). The simulation is
//! deterministic, so on an unchanged engine the fresh run reproduces the
//! snapshot exactly; a failure means a code change slowed the modeled
//! system down — refresh the snapshot deliberately with
//! `serve_bench --json --out BENCH_serve.json` if the regression is
//! intended and justified.
//!
//! **Real gate**: fails if the expert-major batched executor's *speedup*
//! over the token-major reference at any batch ≥ [`REAL_GATE_BATCH`] point
//! drops more than [`TOLERANCE`] below the committed snapshot. The gate
//! compares speedups, not absolute tokens/s: wall-clock rates differ
//! across machines, but the within-run ratio of the two paths (measured
//! back to back on identical inputs) is portable. Refresh deliberately
//! with `real_bench --json --out BENCH_real.json`. A snapshot series of a
//! kernel backend this host cannot run (an `avx512` series on a CPU
//! without AVX-512 VNNI) is reported as skipped; a backend the host can
//! run and the fresh sweep lost still fails.
//!
//! **Server gate**: fails if the network-serving load shows any request
//! shortfall (`completed < requests`) or a client-observed p99 TTFT more
//! than [`TOLERANCE`] above the committed snapshot. The load's engine
//! steps run against a pacing floor that dominates per-step compute, so
//! the TTFT distribution is a property of the queueing structure, not of
//! host speed. Refresh deliberately with
//! `load_gen --json --out BENCH_server.json`.
//!
//! **Worker gate**: two checks over the distributed-worker sweep. First,
//! each (workers, pipelining) series' *median remote-vs-local speedup* at
//! batch ≥ [`WORKER_GATE_BATCH`] must not drop more than [`TOLERANCE`]
//! below the committed snapshot (same median construction as the real
//! gate — wall-clock points wobble, within-run ratios are portable).
//! Second, an absolute scaling check on the fresh sweep alone: every
//! pipelined multi-worker series' median throughput over the
//! single-worker pipelined series at the gated batch sizes must hold
//! parity ([`TOLERANCE`]-backed, since a single-core CI host serializes
//! the workers and gets exactly parity). Refresh deliberately with
//! `worker_bench --json --out BENCH_worker.json`.
//!
//! **Chaos gate**: pure invariants on one chaos run (`BENCH_chaos.json`
//! or `--chaos-fresh`): every soak request terminated (completed +
//! timed_out + cancelled + failed == requests) with zero leaked slots,
//! and the real-server phase's booleans (all requests terminated, final
//! metrics balance, `/healthz` consistent) all hold. Determinism is
//! checked separately by CI, which runs `chaos_bench` twice and diffs the
//! JSON byte for byte. Refresh deliberately with
//! `chaos_bench --json --out BENCH_chaos.json`.
//!
//! For the sweep gates, points present in the fresh sweep but absent from
//! the snapshot are reported and tolerated (they appear when a sweep
//! grows an axis); snapshot gate points missing from the fresh sweep fail
//! the gate (the sweep silently shrank).

use hybrimoe_bench::{
    median_f64, real_sweep, run_chaos_bench, run_server_bench, same_rate, serve_sweep,
    worker_point_key, worker_sweep, ChaosSummary, RealRow, ServeLoad, ServeRow, ServerBenchSummary,
    ServerLoad, WorkerRow, SEED, WORKER_GATE_BATCH,
};
use hybrimoe_kernels::KernelBackendKind;
use hybrimoe_model::ModelConfig;

/// Maximum tolerated relative regression at a gate point: throughput drop
/// for the serve and real gates, p99-TTFT growth for the server gate.
const TOLERANCE: f64 = 0.15;

/// The cache ratio the gate watches (the paper's tight memory point).
const GATE_RATIO: f64 = 0.25;

/// The framework the gate protects.
const GATE_FRAMEWORK: &str = "HybriMoE";

/// Minimum batch size of real-backend gate points: the expert-major win
/// the ISSUE promises (and the snapshot records) is for batched decode;
/// single-token layers have nothing to amortize and stay ungated.
const REAL_GATE_BATCH: usize = 8;

/// Whether a serve-sweep row is one of the points the gate watches.
fn is_serve_gate_row(row: &ServeRow) -> bool {
    row.framework == GATE_FRAMEWORK && row.summary.cache_ratio == GATE_RATIO
}

/// Whether two gate rows describe the same sweep point. Arrival rates are
/// matched within a relative tolerance rather than bit-exactly: a rate is
/// realized as a quantized inter-arrival gap, so a baseline written by an
/// older binary can carry `3.000000003` where the sweep asks for `3.0`.
fn same_serve_point(a: &ServeRow, b: &ServeRow) -> bool {
    same_rate(
        a.summary.arrival_rate_per_sec,
        b.summary.arrival_rate_per_sec,
    ) && a.summary.num_gpus == b.summary.num_gpus
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn read_json<T: serde::Deserialize>(path: &str, what: &str) -> T {
    let raw = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_check: cannot read {what} {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&raw).unwrap_or_else(|e| {
        eprintln!("bench_check: cannot parse {what} {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path =
        flag_value(&args, "--baseline").unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let baseline: Vec<ServeRow> = read_json(&baseline_path, "baseline");

    println!(
        "bench_check: gating {GATE_FRAMEWORK} throughput at ratio {GATE_RATIO} \
         (tolerance -{:.0}%) against {baseline_path}",
        TOLERANCE * 100.0
    );
    let fresh: Vec<ServeRow> = match flag_value(&args, "--fresh") {
        Some(path) => {
            println!("bench_check: reusing fresh sweep from {path}");
            read_json(&path, "fresh sweep")
        }
        None => serve_sweep(&ModelConfig::deepseek(), ServeLoad::default(), SEED),
    };

    let mut failures = Vec::new();
    let mut compared = 0usize;
    for row in fresh.iter().filter(|r| is_serve_gate_row(r)) {
        let base = baseline
            .iter()
            .filter(|b| is_serve_gate_row(b))
            .find(|b| same_serve_point(b, row));
        let Some(base) = base else {
            println!(
                "  new gate point (not in snapshot): rate {:.1}/s, {} GPU(s) -> {:.2} tok/s",
                row.summary.arrival_rate_per_sec,
                row.summary.num_gpus,
                row.summary.output_tokens_per_sec
            );
            continue;
        };
        compared += 1;
        let was = base.summary.output_tokens_per_sec;
        let now = row.summary.output_tokens_per_sec;
        let delta = if was > 0.0 { now / was - 1.0 } else { 0.0 };
        let verdict = if now < was * (1.0 - TOLERANCE) {
            failures.push(format!(
                "rate {:.1}/s, {} GPU(s): {now:.2} tok/s is {:.1}% below snapshot {was:.2}",
                row.summary.arrival_rate_per_sec,
                row.summary.num_gpus,
                -delta * 100.0
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  rate {:.1}/s, {} GPU(s): snapshot {was:>8.2} tok/s, fresh {now:>8.2} tok/s \
             ({:+.1}%) {verdict}",
            row.summary.arrival_rate_per_sec,
            row.summary.num_gpus,
            delta * 100.0
        );
    }

    // Snapshot gate points the fresh sweep no longer covers: the sweep
    // shrank, which would silently disarm the gate.
    for base in baseline.iter().filter(|b| is_serve_gate_row(b)) {
        let covered = fresh
            .iter()
            .filter(|r| is_serve_gate_row(r))
            .any(|r| same_serve_point(r, base));
        if !covered {
            failures.push(format!(
                "gate point rate {:.1}/s, {} GPU(s) vanished from the sweep",
                base.summary.arrival_rate_per_sec, base.summary.num_gpus
            ));
        }
    }

    if compared == 0 && failures.is_empty() {
        eprintln!("bench_check: snapshot has no gate points; refresh BENCH_serve.json");
        std::process::exit(2);
    }
    if failures.is_empty() {
        println!("bench_check: serve gate — {compared} point(s) within tolerance");
    }

    // ---- Real-backend gate: expert-major speedup over the token-major
    // reference must not regress at any batched gate point. ----
    let real_baseline_path =
        flag_value(&args, "--real-baseline").unwrap_or_else(|| "BENCH_real.json".to_owned());
    let real_baseline: Vec<RealRow> = read_json(&real_baseline_path, "real baseline");
    println!(
        "bench_check: gating expert-major speedup at batch >= {REAL_GATE_BATCH} \
         (tolerance -{:.0}%) against {real_baseline_path}",
        TOLERANCE * 100.0
    );
    let real_fresh: Vec<RealRow> = match flag_value(&args, "--real-fresh") {
        Some(path) => {
            println!("bench_check: reusing fresh real sweep from {path}");
            read_json(&path, "fresh real sweep")
        }
        None => real_sweep(SEED),
    };

    // A real gate point's identity within the sweep. The backend is part
    // of the identity: each backend's speedup series is gated separately,
    // so a SIMD path that vanishes from the sweep or regresses fails CI
    // rather than silently blending into the scalar numbers.
    let point = |r: &RealRow| (r.backend.clone(), r.batch, r.experts, r.threads);
    // Per-point deltas are informational: individual wall-clock ratios
    // wobble by tens of percent on shared hosts. The gate criterion is the
    // per-backend *median* speedup across its gate points, which is stable.
    let fresh_gate: Vec<RealRow> = real_fresh
        .iter()
        .filter(|r| r.batch >= REAL_GATE_BATCH)
        .cloned()
        .collect();
    // A snapshot series of a SIMD backend this host cannot run (the
    // snapshot was taken on a wider CPU) is skipped, not failed as
    // vanished: the sweep covers `backend::available()`, and losing a
    // backend the host *can* run still fails below.
    let host_runs =
        |name: &str| KernelBackendKind::parse(name).is_some_and(|kind| kind.resolved() == kind);
    let skipped_backends: std::collections::BTreeSet<&str> = real_baseline
        .iter()
        .map(|b| b.backend.as_str())
        .filter(|name| !host_runs(name))
        .collect();
    for name in skipped_backends {
        println!("  {name}: skipped (host lacks the {name} kernel backend)");
    }
    let base_gate: Vec<RealRow> = real_baseline
        .iter()
        .filter(|b| b.batch >= REAL_GATE_BATCH && host_runs(&b.backend))
        .cloned()
        .collect();
    for row in &fresh_gate {
        match base_gate.iter().find(|b| point(b) == point(row)) {
            Some(base) => {
                let delta = if base.speedup > 0.0 {
                    row.speedup / base.speedup - 1.0
                } else {
                    0.0
                };
                println!(
                    "  {:>9}: batch {:>2}, {} experts, {} thread(s): snapshot {:>5.2}x, fresh \
                     {:>5.2}x ({:+.1}%)",
                    row.backend,
                    row.batch,
                    row.experts,
                    row.threads,
                    base.speedup,
                    row.speedup,
                    delta * 100.0
                );
            }
            None => println!(
                "  new real gate point (not in snapshot): {} batch {}, {} experts, {} thread(s) \
                 -> {:.2}x",
                row.backend, row.batch, row.experts, row.threads, row.speedup
            ),
        }
    }
    for base in &base_gate {
        if !fresh_gate.iter().any(|r| point(r) == point(base)) {
            failures.push(format!(
                "real gate point {} batch {}, {} experts, {} thread(s) vanished from the sweep",
                base.backend, base.batch, base.experts, base.threads
            ));
        }
    }
    // Per-backend medians over the *key intersection* only: growing a
    // sweep axis must not shift what the gate measures (new points are
    // reported above, gated once the snapshot is refreshed to include
    // them).
    let mut gate_backends: Vec<String> = base_gate.iter().map(|b| b.backend.clone()).collect();
    gate_backends.sort();
    gate_backends.dedup();
    let mut real_compared = 0usize;
    let mut base_covered = 0usize;
    for backend in &gate_backends {
        let fresh_common: Vec<RealRow> = fresh_gate
            .iter()
            .filter(|r| &r.backend == backend && base_gate.iter().any(|b| point(b) == point(r)))
            .cloned()
            .collect();
        let base_common: Vec<RealRow> = base_gate
            .iter()
            .filter(|b| &b.backend == backend && fresh_gate.iter().any(|r| point(r) == point(b)))
            .cloned()
            .collect();
        base_covered += base_common.len();
        if fresh_common.is_empty() {
            // Every point of this backend vanished — already reported as
            // vanished-point failures above.
            continue;
        }
        real_compared += fresh_common.len();
        let fresh_median = hybrimoe_bench::median_speedup(&fresh_common);
        let base_median = hybrimoe_bench::median_speedup(&base_common);
        println!(
            "  {backend}: median speedup over {} shared gate point(s): {fresh_median:.2}x \
             (snapshot median {base_median:.2}x)",
            fresh_common.len()
        );
        if fresh_median < base_median * (1.0 - TOLERANCE) {
            failures.push(format!(
                "real: {backend} median speedup {fresh_median:.2}x is {:.1}% below snapshot \
                 median {base_median:.2}x",
                (1.0 - fresh_median / base_median) * 100.0
            ));
        }
    }
    let vanished = base_gate.len() - base_covered;
    if real_compared == 0 && vanished == 0 {
        eprintln!("bench_check: real snapshot has no gate points; refresh BENCH_real.json");
        std::process::exit(2);
    }

    // ---- Server gate: the network-serving front-end must complete the
    // full load, and client-observed p99 TTFT must not regress. ----
    let server_baseline_path =
        flag_value(&args, "--server-baseline").unwrap_or_else(|| "BENCH_server.json".to_owned());
    let server_baseline: ServerBenchSummary = read_json(&server_baseline_path, "server baseline");
    println!(
        "bench_check: gating server p99 TTFT (tolerance +{:.0}%) against {server_baseline_path}",
        TOLERANCE * 100.0
    );
    let server_fresh: ServerBenchSummary = match flag_value(&args, "--server-fresh") {
        Some(path) => {
            println!("bench_check: reusing fresh server run from {path}");
            read_json(&path, "fresh server run")
        }
        None => run_server_bench(None, ServerLoad::default()),
    };

    println!(
        "  completed {}/{} (rejected {}, failed {})",
        server_fresh.completed, server_fresh.requests, server_fresh.rejected, server_fresh.failed
    );
    if server_fresh.completed < server_fresh.requests {
        failures.push(format!(
            "server: only {}/{} requests completed ({} rejected, {} failed)",
            server_fresh.completed,
            server_fresh.requests,
            server_fresh.rejected,
            server_fresh.failed
        ));
    }
    let was = server_baseline.ttft_p99_ms;
    let now = server_fresh.ttft_p99_ms;
    let delta = if was > 0.0 { now / was - 1.0 } else { 0.0 };
    let ttft_verdict = if was > 0.0 && now > was * (1.0 + TOLERANCE) {
        failures.push(format!(
            "server: p99 TTFT {now:.1} ms is {:.1}% above snapshot {was:.1} ms",
            delta * 100.0
        ));
        "FAIL"
    } else {
        "ok"
    };
    println!(
        "  p99 TTFT: snapshot {was:>8.1} ms, fresh {now:>8.1} ms ({:+.1}%) {ttft_verdict}",
        delta * 100.0
    );
    let server_compared = 1usize;

    // ---- Worker gate: the distributed-worker sweep's remote-vs-local
    // speedups must not regress against the snapshot, and pipelined
    // multi-worker throughput must hold parity with a single worker at
    // the gated batch sizes. ----
    let worker_baseline_path =
        flag_value(&args, "--worker-baseline").unwrap_or_else(|| "BENCH_worker.json".to_owned());
    let worker_baseline: Vec<WorkerRow> = read_json(&worker_baseline_path, "worker baseline");
    println!(
        "bench_check: gating worker speedups at batch >= {WORKER_GATE_BATCH} \
         (tolerance -{:.0}%) against {worker_baseline_path}",
        TOLERANCE * 100.0
    );
    let worker_fresh: Vec<WorkerRow> = match flag_value(&args, "--worker-fresh") {
        Some(path) => {
            println!("bench_check: reusing fresh worker sweep from {path}");
            read_json(&path, "fresh worker sweep")
        }
        None => worker_sweep(SEED),
    };

    let worker_fresh_gate: Vec<WorkerRow> = worker_fresh
        .iter()
        .filter(|r| r.batch >= WORKER_GATE_BATCH)
        .cloned()
        .collect();
    let worker_base_gate: Vec<WorkerRow> = worker_baseline
        .iter()
        .filter(|b| b.batch >= WORKER_GATE_BATCH)
        .cloned()
        .collect();
    for row in &worker_fresh_gate {
        match worker_base_gate
            .iter()
            .find(|b| worker_point_key(b) == worker_point_key(row))
        {
            Some(base) => {
                let delta = if base.speedup > 0.0 {
                    row.speedup / base.speedup - 1.0
                } else {
                    0.0
                };
                println!(
                    "  {} worker(s), pipelined {:<5}, batch {:>2}, {} experts: snapshot \
                     {:>5.2}x, fresh {:>5.2}x ({:+.1}%)",
                    row.workers,
                    row.pipelined,
                    row.batch,
                    row.experts,
                    base.speedup,
                    row.speedup,
                    delta * 100.0
                );
            }
            None => println!(
                "  new worker gate point (not in snapshot): {} worker(s), pipelined {}, \
                 batch {}, {} experts -> {:.2}x",
                row.workers, row.pipelined, row.batch, row.experts, row.speedup
            ),
        }
    }
    for base in &worker_base_gate {
        if !worker_fresh_gate
            .iter()
            .any(|r| worker_point_key(r) == worker_point_key(base))
        {
            failures.push(format!(
                "worker gate point {} worker(s), pipelined {}, batch {}, {} experts vanished \
                 from the sweep",
                base.workers, base.pipelined, base.batch, base.experts
            ));
        }
    }
    // Per-series (workers, pipelining) medians over the key intersection,
    // exactly like the real gate's per-backend medians.
    let mut worker_series: Vec<(usize, bool)> = worker_base_gate
        .iter()
        .map(|b| (b.workers, b.pipelined))
        .collect();
    worker_series.sort();
    worker_series.dedup();
    let mut worker_compared = 0usize;
    for (workers, pipelined) in &worker_series {
        let fresh_common: Vec<f64> = worker_fresh_gate
            .iter()
            .filter(|r| {
                r.workers == *workers
                    && r.pipelined == *pipelined
                    && worker_base_gate
                        .iter()
                        .any(|b| worker_point_key(b) == worker_point_key(r))
            })
            .map(|r| r.speedup)
            .collect();
        let base_common: Vec<f64> = worker_base_gate
            .iter()
            .filter(|b| {
                b.workers == *workers
                    && b.pipelined == *pipelined
                    && worker_fresh_gate
                        .iter()
                        .any(|r| worker_point_key(r) == worker_point_key(b))
            })
            .map(|b| b.speedup)
            .collect();
        if fresh_common.is_empty() {
            // Every point of this series vanished — already reported above.
            continue;
        }
        worker_compared += fresh_common.len();
        let fresh_median = median_f64(&fresh_common);
        let base_median = median_f64(&base_common);
        println!(
            "  {workers} worker(s), pipelined {pipelined}: median speedup over {} shared gate \
             point(s): {fresh_median:.2}x (snapshot median {base_median:.2}x)",
            fresh_common.len()
        );
        if fresh_median < base_median * (1.0 - TOLERANCE) {
            failures.push(format!(
                "worker: {workers} worker(s) pipelined {pipelined} median speedup \
                 {fresh_median:.2}x is {:.1}% below snapshot median {base_median:.2}x",
                (1.0 - fresh_median / base_median) * 100.0
            ));
        }
    }
    // Absolute scaling check on the fresh sweep: pipelined multi-worker
    // throughput vs the single-worker pipelined row at the same point.
    let single_worker = |batch: usize, experts: u16| {
        worker_fresh
            .iter()
            .find(|r| r.workers == 1 && r.pipelined && r.batch == batch && r.experts == experts)
            .map(|r| r.remote_tok_s)
    };
    let mut multi_counts: Vec<usize> = worker_fresh_gate
        .iter()
        .filter(|r| r.workers > 1 && r.pipelined)
        .map(|r| r.workers)
        .collect();
    multi_counts.sort_unstable();
    multi_counts.dedup();
    if multi_counts.is_empty() && !worker_fresh_gate.is_empty() {
        failures.push("worker: sweep has no pipelined multi-worker gate points".to_owned());
    }
    for workers in &multi_counts {
        let ratios: Vec<f64> = worker_fresh_gate
            .iter()
            .filter(|r| r.workers == *workers && r.pipelined)
            .filter_map(|r| single_worker(r.batch, r.experts).map(|s| r.remote_tok_s / s))
            .collect();
        let median = median_f64(&ratios);
        let verdict = if ratios.is_empty() || median < 1.0 - TOLERANCE {
            failures.push(format!(
                "worker: {workers} pipelined worker(s) median throughput is {median:.2}x of a \
                 single worker at batch >= {WORKER_GATE_BATCH} (need >= {:.2}x)",
                1.0 - TOLERANCE
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "  scaling: {workers} pipelined worker(s) vs 1 at batch >= {WORKER_GATE_BATCH}: \
             median {median:.2}x over {} point(s) {verdict}",
            ratios.len()
        );
    }
    if worker_compared == 0 && worker_base_gate.is_empty() {
        eprintln!("bench_check: worker snapshot has no gate points; refresh BENCH_worker.json");
        std::process::exit(2);
    }

    // ---- Chaos gate: every admitted request terminates, no slot leaks,
    // the real server under faults keeps its books and stays alive. ----
    let chaos_fresh: ChaosSummary = match flag_value(&args, "--chaos-fresh") {
        Some(path) => {
            println!("bench_check: reusing fresh chaos run from {path}");
            read_json(&path, "fresh chaos run")
        }
        None => run_chaos_bench(SEED),
    };
    println!(
        "bench_check: chaos gate — soak {} requests: {} completed, {} timed out, {} cancelled, \
         {} failed, {} panic(s) contained, {} leaked slot(s)",
        chaos_fresh.soak_requests,
        chaos_fresh.soak_completed,
        chaos_fresh.soak_timed_out,
        chaos_fresh.soak_cancelled,
        chaos_fresh.soak_failed,
        chaos_fresh.soak_panics_contained,
        chaos_fresh.soak_leaked_slots
    );
    let soak_terminal = chaos_fresh.soak_completed
        + chaos_fresh.soak_timed_out
        + chaos_fresh.soak_cancelled
        + chaos_fresh.soak_failed;
    if soak_terminal != chaos_fresh.soak_requests {
        failures.push(format!(
            "chaos: soak terminal outcomes {soak_terminal} != {} admitted requests",
            chaos_fresh.soak_requests
        ));
    }
    if chaos_fresh.soak_leaked_slots != 0 {
        failures.push(format!(
            "chaos: soak leaked {} batch slot(s)",
            chaos_fresh.soak_leaked_slots
        ));
    }
    if chaos_fresh.soak_panics_contained == 0 {
        failures.push("chaos: soak contained no panics — the fault plan injected nothing".into());
    }
    if !chaos_fresh.server_all_terminated {
        failures.push("chaos: a server-phase request never reached a terminal outcome".into());
    }
    if !chaos_fresh.server_accounted {
        failures.push("chaos: server metrics do not balance after the storm".into());
    }
    if !chaos_fresh.server_healthz_consistent {
        failures.push("chaos: /healthz was unreachable or disagreed with the metrics".into());
    }
    let chaos_compared = 1usize;

    if failures.is_empty() {
        println!(
            "bench_check: all gates passed ({compared} serve + {real_compared} real + \
             {server_compared} server + {worker_compared} worker + {chaos_compared} chaos \
             point(s))"
        );
    } else {
        eprintln!("bench_check: FAILED");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
