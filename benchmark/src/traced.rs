//! The traced run: a separate run that produces the per-layer metrics.
//!
//! Three rounds are served twice each, once with spans recorded around
//! every call the harness makes into a layer and once without; the
//! difference is the tracing overhead. Then come the comparisons against
//! not having a feature (modeled workloads: exact), the replay of the first
//! traced round on an engine the harness drives, and the isolated probes.
//! End-to-end metrics never come from this run.

use std::path::PathBuf;

use hybrimoe::{CachePolicyKind, EngineConfig, Framework, PrefetcherKind};

use crate::cal::{self, Calibrator};
use crate::harness::{self, content_seed, Planned, Round, Run};
use crate::metrics::{self, Bag, Reported};
use crate::probes::{self, Probed};
use crate::spans;
use crate::stats;
use crate::workloads::batched::{Batched, Traffic};
use crate::workloads::{Clock, Workload, CACHE_RATIO};
use crate::Args;

/// The traced run's rounds as `(content, traced)`: each content is served
/// traced and untraced, in alternating order so that a drift over the run
/// does not read as tracing overhead.
const TRACE_PLAN: [(usize, bool); 6] = [
    (1, true),
    (1, false),
    (2, false),
    (2, true),
    (3, true),
    (3, false),
];

/// Arrival rates `batcher.slo_rate_rps` is searched over, requests/s.
const SLO_RATES: [f64; 5] = [0.15, 0.225, 0.3, 0.375, 0.45];

/// Share of the requests sent that must meet the SLO at a rate.
const SLO_SHARE: f64 = 0.9;

fn hit_ratio(round: &Round) -> f64 {
    stats::mean(round.out.layers.get("cache.hit_ratio"))
}

/// Round 1 of a variant of the workload, traced so it reports its cache.
fn variant_round(variant: &Batched, seed: u64, cal: &mut Calibrator) -> Round {
    let plan = [Planned {
        content: 1,
        traced: true,
    }];
    harness::run_plan(variant, seed, &plan, false, cal)
        .rounds
        .pop()
        .expect("one planned round")
}

/// Modeled workloads against not having a feature: same round, same seed,
/// one knob changed. The modeled clock makes each ratio exact.
fn modeled_comparisons(
    workload: &Batched,
    base: &Round,
    seed: u64,
    cal: &mut Calibrator,
    bag: &mut Bag,
) {
    let model = workload.config.model.clone();
    let with = |config: EngineConfig| workload.clone().with_config(config);

    let kt = variant_round(
        &with(EngineConfig::preset(
            Framework::KTransformers,
            model,
            CACHE_RATIO,
        )),
        seed,
        cal,
    );
    bag.push("sched.tok_s_vs_ktransformers", base.tok_s() / kt.tok_s());
    bag.push(
        "sched.ttft_p50_vs_ktransformers",
        base.ttft_ms_p50() / kt.ttft_ms_p50(),
    );

    let none = variant_round(
        &with(
            workload
                .config
                .clone()
                .with_prefetcher(PrefetcherKind::None),
        ),
        seed,
        cal,
    );
    bag.push("prefetch.tok_s_vs_none", base.tok_s() / none.tok_s());
    bag.push(
        "prefetch.hit_ratio_vs_none",
        hit_ratio(base) / hit_ratio(&none),
    );

    let lru = variant_round(
        &with(
            workload
                .config
                .clone()
                .with_cache_policy(CachePolicyKind::Lru),
        ),
        seed,
        cal,
    );
    bag.push("cache.hit_ratio_vs_lru", hit_ratio(base) / hit_ratio(&lru));
}

/// The highest of a few fixed arrival rates at which at least nine tenths
/// of the requests sent meet the workload's SLO.
fn slo_rate(workload: &Batched, base: &Round, seed: u64, cal: &mut Calibrator, bag: &mut Bag) {
    let spec = workload.spec();
    let Traffic::Open {
        rate_per_s: base_rate,
        ..
    } = workload.traffic
    else {
        return;
    };
    let share = |round: &Round| {
        let met = round
            .out
            .requests
            .iter()
            .filter(|q| q.ttft_ms < spec.ttft_limit_ms && q.tpot_ms < spec.tpot_limit_ms)
            .count();
        met as f64 / round.out.attempted as f64
    };
    let mut best = 0.0;
    for rate in SLO_RATES {
        let met = if rate == base_rate {
            share(base)
        } else {
            share(&variant_round(&workload.clone().with_rate(rate), seed, cal))
        };
        if met >= SLO_SHARE {
            best = rate;
        }
    }
    bag.push("batcher.slo_rate_rps", best);
}

/// Runs one probe between two calibration samples and adds what it
/// collected, host durations calibrated.
fn probe(cal: &mut Calibrator, bag: &mut Bag, body: impl FnOnce(&mut Probed)) {
    let mut probed = Probed::default();
    let before = cal.sample();
    body(&mut probed);
    let after = cal.sample();
    bag.merge(probed.plain);
    bag.merge(probed.host_timed.scaled(cal::factor(before, after)));
}

fn batched_layers(workload: &Batched, run: &Run, seed: u64, cal: &mut Calibrator, bag: &mut Bag) {
    let base = &run.rounds[0];
    if workload.spec().clock == Clock::Modeled {
        modeled_comparisons(workload, base, seed, cal, bag);
        slo_rate(workload, base, seed, cal, bag);
    }
    let probe_seed = content_seed(seed, 1);
    let config = &workload.config;
    if workload.real_execution() {
        probe(cal, bag, |p| probes::kernels(&config.model, p));
        probes::derive_gflops(&config.model, bag);
        probe(cal, bag, |p| {
            probes::weight_setup(&config.model, probe_seed, p)
        });
        probe(cal, bag, |p| probes::realexec(config, probe_seed, p));
    }
    if workload.remote() {
        // The untraced rounds' contents with every expert in-process.
        let contents: Vec<Planned> = run
            .rounds
            .iter()
            .filter(|r| !r.planned.traced)
            .map(|r| r.planned)
            .collect();
        let local = harness::run_plan(&Batched::real_serve(), seed, &contents, true, cal);
        for (remote, local) in run
            .rounds
            .iter()
            .filter(|r| !r.planned.traced)
            .zip(&local.rounds)
        {
            bag.push("remote.tok_s_vs_local", remote.tok_s() / local.tok_s());
        }
        probe(cal, bag, |p| {
            probes::remote(config, workload.workers(), probe_seed, p)
        });
    }
}

/// Where the span file of a workload goes: `benchmark/out/`.
fn span_file(workload: &str) -> PathBuf {
    [
        env!("CARGO_MANIFEST_DIR"),
        "out",
        &format!("trace-{workload}.json"),
    ]
    .iter()
    .collect()
}

pub fn run(workload: &dyn Workload, args: &Args, cal: &mut Calibrator) -> (Run, Vec<Reported>) {
    let plan = TRACE_PLAN.map(|(content, traced)| Planned { content, traced });
    let mut run = harness::run_plan(workload, args.seed, &plan, true, cal);
    let mut bag = run.layers();
    harness::round_layers(&run, &mut bag);

    for traced in run.rounds.iter().filter(|r| r.planned.traced) {
        let plain = run
            .rounds
            .iter()
            .find(|r| !r.planned.traced && r.planned.content == traced.planned.content)
            .expect("every content is also served untraced");
        bag.push(
            "trace_overhead_share",
            traced.loop_host_s / plain.loop_host_s - 1.0,
        );
    }
    bag.push("trace.spans", run.spans.len() as f64);

    // The engine probes replay the first traced round step by step. The
    // server owns its batcher, so its steps come from an in-process batcher
    // serving the same requests from the same number of users.
    let view = workload.engine_view();
    let inputs = workload.generate(content_seed(args.seed, TRACE_PLAN[0].0));
    let steps = match workload.as_batched() {
        Some(_) => std::mem::take(&mut run.rounds[0].out.steps),
        None => variant_round(&view, args.seed, cal).out.steps,
    };
    let mut problems = Vec::new();
    probe(cal, &mut bag, |p| {
        probes::engine_replay(&view, &inputs, &steps, p);
        problems = std::mem::take(&mut p.problems);
    });
    run.problems.extend(problems);
    if let Some(batched) = workload.as_batched() {
        batched_layers(batched, &run, args.seed, cal, &mut bag);
    }

    // The harness's own numbers, over every calibration sample of the run.
    bag.push("harness.torn_segments", run.torn_segments as f64);
    bag.extend("harness.cal_ms_p50", run.cal_ms.iter().copied());
    let cal_sorted = stats::sorted(run.cal_ms.clone());
    if let (Some(min), Some(max)) = (cal_sorted.first(), cal_sorted.last()) {
        bag.push(
            "harness.cal_spread",
            (max - min) / stats::median(&cal_sorted),
        );
    }

    let path = span_file(workload.spec().name);
    let json = spans::to_json(workload.spec().name, args.seed, &run.spans);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => println!("wrote {} spans to {}", run.spans.len(), path.display()),
        Err(e) => run
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
    (run, metrics::reduce_per_layer(&bag))
}
