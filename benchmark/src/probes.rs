//! Isolated probes: each layer's public functions called directly by the
//! harness, on inputs sampled from the traced round, so a change to one
//! layer shows in that layer's number.
//!
//! The batcher does not hand out the engine's per-step metrics or a step's
//! routing, but it reports what every step was made of and derives every
//! request's trace from the round's trace seed and the request's id. The
//! traced round records each step's composition; the probes rebuild the
//! very same steps from the round's inputs, drive an engine of their own
//! with them (`Engine::step` is public) and, every sixteenth step and on
//! every prompt, rebuild each layer's tasks from the step's routing and
//! `engine.cache()` residency for the scheduler, prefetcher and cache
//! probes. On the modeled clock every replayed step must report the latency
//! the traced round saw, which is checked.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hybrimoe::realexec::RealLayerExecutor;
use hybrimoe::{BackendKind, Engine, EngineConfig, RemoteLayerExecutor, RemoteWorkerOptions};
use hybrimoe_cache::ShardedExpertCache;
use hybrimoe_hw::{AffineCostModel, CostModel, Device, SimDuration};
use hybrimoe_kernels::{ExecScratch, ExpertFfn, WorkerPool};
use hybrimoe_model::{ExpertKey, LayerId, ModelConfig, WeightStore};
use hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD;
use hybrimoe_sched::{
    ExpertTask, HybridScheduler, PredictedLayer, PrefetchContext, ScheduleContext, Scheduler,
};
use hybrimoe_trace::{DecodeStream, TraceGenerator, TraceStep};
use hybrimoe_worker::protocol::{ExecuteBatch, ExecuteBatchAck, LoadShard, HEADER_LEN};
use hybrimoe_worker::{wire_backend, ClientOptions, Endpoint, WorkerClient};

use crate::gen::RoundInputs;
use crate::metrics::Bag;
use crate::workloads::batched::{
    remote_config, sampled_steps, spawn_workers, Batched, WEIGHT_WARM_PROMPT,
};
use crate::workloads::StepComposition;

/// A probe samples every this many replayed steps (and every prompt).
const SAMPLE_EVERY: usize = 16;

/// What the probes collected: counts, ratios and modeled times in `plain`;
/// raw host durations in `host_timed`, for the caller to calibrate; and
/// checks that did not hold.
#[derive(Default)]
pub struct Probed {
    pub plain: Bag,
    pub host_timed: Bag,
    pub problems: Vec<String>,
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

fn regime(tokens: u32) -> usize {
    usize::from(tokens >= PREFILL_BATCH_THRESHOLD)
}

/// The seed the batcher derives a request's trace from (its private
/// `request_seed`). If the two drift apart the replay's modeled latencies
/// stop matching the round's, which `engine_replay` reports.
fn request_seed(trace_seed: u64, id: u32) -> u64 {
    trace_seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Replays the steps of a traced round on an engine the harness drives
/// itself: every step is rebuilt from the round's inputs and the recorded
/// composition (the prompts that merged into it, the requests that decoded
/// in it), so batch sizes, prompt merges and cache state are the round's
/// own. Times every step and samples the scheduler, prefetcher and cache
/// probes on every prompt and every sixteenth step.
pub fn engine_replay(
    workload: &Batched,
    inputs: &RoundInputs,
    steps: &[StepComposition],
    out: &mut Probed,
) {
    let (workers, endpoints) = spawn_workers(workload.workers());
    let config = if workload.remote() {
        remote_config(&workload.config, endpoints)
    } else {
        workload.config.clone()
    };
    assert!(
        config.chunked_prefill_size.is_none(),
        "the replay rebuilds unchunked prompts"
    );
    let model = config.model.clone();
    let real = workload.real_execution();
    let mut engine = Engine::new(config.clone());
    // The same steps on the simulated backend give the modeled CPU time the
    // measured one is compared with.
    let mut model_engine = (config.backend == BackendKind::RealCpu)
        .then(|| Engine::new(config.clone().with_backend(BackendKind::Sim)));
    let (mut modeled_cpu, mut measured_cpu) = (SimDuration::ZERO, SimDuration::ZERO);

    let generator = |id: u32| {
        let g = TraceGenerator::new(model.clone(), request_seed(inputs.trace_seed, id));
        if real {
            g.with_token_states()
        } else {
            g
        }
    };
    if real {
        // As the workload's set-up does: every expert's weights exist
        // before anything is timed.
        let (warm, _) = generator(u32::MAX).request(WEIGHT_WARM_PROMPT);
        engine.step(&warm);
        engine.take_real_outputs();
    }
    let probe_cost = AffineCostModel::from_platform(&config.platform);
    let mut streams: BTreeMap<u32, DecodeStream> = BTreeMap::new();

    for (index, composition) in steps.iter().enumerate() {
        let mut parts: Vec<TraceStep> =
            Vec::with_capacity(composition.admitted.len() + composition.decoded.len());
        for id in &composition.admitted {
            let prompt = inputs.requests[*id as usize].prompt_tokens;
            let start = Instant::now();
            let (prefill, stream) = generator(*id).request(prompt);
            out.host_timed.push(
                "trace.request_us_per_prompt_token",
                us_since(start) / prompt as f64,
            );
            parts.push(prefill);
            streams.insert(*id, stream);
        }
        for id in &composition.decoded {
            let stream = streams.get_mut(id).expect("a decoder was admitted earlier");
            let start = Instant::now();
            parts.push(stream.next_step());
            out.host_timed.push("trace.next_step_us", us_since(start));
        }
        let merged;
        let step = if let [single] = parts.as_slice() {
            single
        } else {
            merged = TraceStep::merge(&parts.iter().collect::<Vec<_>>());
            &merged
        };

        let start = Instant::now();
        let metrics = engine.step(step);
        let step_us = us_since(start);
        let kernel_us: f64 = engine
            .take_real_outputs()
            .iter()
            .map(|o| (o.cpu_wall + o.gpu_wall).as_nanos() as f64 / 1e3)
            .sum();
        let name = ["engine.step_us.decode", "engine.step_us.prefill"][regime(step.tokens)];
        out.host_timed.push(name, step_us);
        out.host_timed
            .push("engine.self_us_per_step", step_us - kernel_us);
        let latency = metrics.latency.as_secs_f64();
        let share = |d: Device| metrics.busy(d).as_secs_f64() / latency;
        out.plain.push("hw.cpu_busy_share", share(Device::Cpu));
        out.plain.push("hw.gpu_busy_share", share(Device::gpu(0)));
        out.plain.push("hw.pcie_busy_share", share(Device::pcie(0)));
        let experts = (metrics.cpu_experts + metrics.gpu_experts).max(1);
        out.plain.push(
            "sched.cpu_expert_share",
            metrics.cpu_experts as f64 / experts as f64,
        );
        out.plain.push(
            "sched.demand_transfers_per_step",
            metrics.demand_transfers as f64,
        );
        if !real {
            // The paper's overhead claim: calibrated host time spent
            // producing a step against what the step takes on the platform.
            // A simulated step's latency is a function of its inputs, so the
            // replay must reproduce the round's.
            out.host_timed
                .push("sched.host_overhead_share", step_us / 1e6 / latency);
            if metrics.latency != composition.latency && out.problems.is_empty() {
                out.problems.push(format!(
                    "the engine replay diverged from the traced round at step {index}: \
                     {:?} against {:?}",
                    metrics.latency, composition.latency
                ));
            }
        }
        if let Some(sim) = model_engine.as_mut() {
            modeled_cpu += sim.step(step).busy(Device::Cpu);
            measured_cpu += metrics.busy(Device::Cpu);
        }
        if index.is_multiple_of(SAMPLE_EVERY) || regime(step.tokens) == 1 {
            layer_probes(&engine, &probe_cost, step, out);
        }
    }
    if measured_cpu > SimDuration::ZERO {
        out.plain.push(
            "hw.model_vs_measured_cpu_ratio",
            modeled_cpu.as_secs_f64() / measured_cpu.as_secs_f64(),
        );
    }
    drop(engine);
    for worker in workers {
        worker.shutdown();
    }
}

/// Scheduler, prefetcher and cache probes on one sampled step: per layer,
/// the tasks are rebuilt from the step's routing and the engine's current
/// cache residency.
fn layer_probes(engine: &Engine, cost: &AffineCostModel, step: &TraceStep, out: &mut Probed) {
    let config = engine.config();
    let model = &config.model;
    let cache = engine.cache();
    let scheduler = HybridScheduler::new();
    let prefetcher = config.prefetcher.build();
    let routed_profile = model.routed_profile();
    let shared_profile = model.shared_profile();
    let tasks_of = |layer: LayerId, routing: &hybrimoe_model::LayerRouting| -> Vec<ExpertTask> {
        routing
            .activated()
            .into_iter()
            .map(|(expert, load)| ExpertTask {
                expert,
                load,
                cached: cache.contains(ExpertKey::new(layer, expert)),
            })
            .collect()
    };

    // A cache of the engine's shape holding the engine's residents, so
    // lookups can be timed without touching the engine's statistics.
    let mut lookup_cache = ShardedExpertCache::new(cache.capacity(), cache.num_shards(), || {
        config.cache_policy.build(config.mrs_alpha)
    });
    for key in cache.resident_keys() {
        lookup_cache.insert(key);
    }

    for (l, rec) in step.layers.iter().enumerate() {
        let layer = LayerId(l as u16);
        let tasks = tasks_of(layer, &rec.routing);
        let ctx = ScheduleContext::new(
            layer,
            step.tokens,
            &tasks,
            routed_profile,
            shared_profile,
            cost,
        );
        let start = Instant::now();
        let plan = scheduler.schedule(&ctx);
        let name = [
            "sched.schedule_us_per_layer.decode",
            "sched.schedule_us_per_layer.prefill",
        ][regime(step.tokens)];
        out.host_timed.push(name, us_since(start));
        black_box(plan);

        let start = Instant::now();
        let mut hits = 0usize;
        for t in &tasks {
            hits += usize::from(lookup_cache.lookup(ExpertKey::new(layer, t.expert)));
        }
        black_box(hits);
        out.host_timed.push(
            "cache.lookup_ns",
            start.elapsed().as_nanos() as f64 / tasks.len().max(1) as f64,
        );

        if rec.predicted.is_empty() {
            continue;
        }
        let lookahead: Vec<PredictedLayer> = rec
            .predicted
            .iter()
            .map(|routing| PredictedLayer {
                layer: routing.layer(),
                tasks: tasks_of(routing.layer(), routing),
                scores: routing.mean_scores(),
            })
            .collect();
        let queue_slots = config.max_inflight.max(1);
        let pctx = PrefetchContext {
            current_layer: layer,
            lookahead: &lookahead,
            free_slots: queue_slots,
            budget: cost.transfer(&routed_profile) * queue_slots as u64,
            tokens: step.tokens,
            routed_profile,
            shared_profile,
            cost,
            num_gpus: 1,
            confidence: None,
            shard_free: None,
        };
        let start = Instant::now();
        let picks = prefetcher.plan(&pctx);
        out.host_timed
            .push("prefetch.plan_us_per_layer", us_since(start));
        black_box(picks);
    }
}

fn probe_input(tokens: usize, hidden: usize) -> Vec<f32> {
    (0..tokens * hidden)
        .map(|i| ((i * 37 % 199) as f32 / 199.0 - 0.5) * 0.2)
        .collect()
}

/// The expert FFN on the kernel backend in use, one thread, at decode and
/// prompt batch sizes. `flop_per_token` and `weight_bytes_per_token` are
/// computed from the shapes (routed experts only, as `realexec` runs).
pub fn kernels(model: &ModelConfig, out: &mut Probed) {
    let (hidden, inter) = (
        model.routed_shape.hidden() as usize,
        model.routed_shape.inter() as usize,
    );
    let ffn = ExpertFfn::random(hidden, inter, 0xBE7C);
    let pool = WorkerPool::new(1);
    let backend = hybrimoe_kernels::KernelBackendKind::Auto.resolve();
    let mut scratch = ExecScratch::new();
    for (batch, reps, name) in [
        (1usize, 400, "kernels.ffn_us_per_token.b1"),
        (32, 40, "kernels.ffn_us_per_token.b32"),
    ] {
        let x = probe_input(batch, hidden);
        let mut y = vec![0.0f32; batch * hidden];
        for rep in 0..reps + 2 {
            let start = Instant::now();
            ffn.forward_batch_into(&x, batch, &mut y, &mut scratch, &pool, backend);
            let us = us_since(start);
            black_box(&mut y);
            if rep >= 2 {
                out.host_timed.push(name, us / batch as f64);
            }
        }
    }
    let per_token = (model.layers as u64 * model.activated_experts as u64) as f64;
    out.plain.push(
        "kernels.flop_per_token",
        per_token * ffn.flops_per_token() as f64,
    );
    out.plain.push(
        "kernels.weight_bytes_per_token",
        per_token * model.routed_shape.packed_bytes() as f64,
    );
}

/// Derives the `kernels.gflops.*` samples from the calibrated
/// microseconds per token.
pub fn derive_gflops(model: &ModelConfig, bag: &mut Bag) {
    let flops = model.routed_shape.flops_per_token() as f64;
    for (us_name, name) in [
        ("kernels.ffn_us_per_token.b1", "kernels.gflops.b1"),
        ("kernels.ffn_us_per_token.b32", "kernels.gflops.b32"),
    ] {
        let rates: Vec<f64> = bag.get(us_name).iter().map(|us| flops / us / 1e3).collect();
        bag.extend(name, rates);
    }
}

/// Materializes every expert's weights once.
pub fn weight_setup(model: &ModelConfig, seed: u64, out: &mut Probed) {
    let start = Instant::now();
    let mut store = WeightStore::new(model.clone(), seed, u64::MAX);
    for key in model.expert_keys() {
        black_box(store.expert(key).expect("unbounded budget"));
    }
    out.host_timed
        .push("model.weight_setup_ms", us_since(start) / 1e3);
}

/// The schedule of one layer of `step`, with even experts counted cached.
fn layer_plan(
    cost: &AffineCostModel,
    model: &ModelConfig,
    step: &TraceStep,
    l: usize,
) -> hybrimoe_sched::SchedulePlan {
    let tasks: Vec<ExpertTask> = step.layers[l]
        .routing
        .activated()
        .into_iter()
        .map(|(expert, load)| ExpertTask {
            expert,
            load,
            cached: expert.0 % 2 == 0,
        })
        .collect();
    let ctx = ScheduleContext::new(
        LayerId(l as u16),
        step.tokens,
        &tasks,
        model.routed_profile(),
        model.shared_profile(),
        cost,
    );
    HybridScheduler::new().schedule(&ctx)
}

/// `RealLayerExecutor::execute_layer` on decode and prompt layers, and
/// the share of a layer that is not kernel time (gather and scatter):
/// the same experts' FFNs are timed alone on the same token counts.
pub fn realexec(config: &EngineConfig, seed: u64, out: &mut Probed) {
    let model = &config.model;
    let cost = AffineCostModel::from_platform(&config.platform);
    let hidden = model.routed_shape.hidden() as usize;
    let mut exec = RealLayerExecutor::with_options(model.clone(), seed, config.real_exec);
    let mut store = WeightStore::new(model.clone(), seed, u64::MAX);
    let pool = WorkerPool::new(1);
    let backend = config.real_exec.kernel_backend.resolve();
    let mut scratch = ExecScratch::new();
    let steps = sampled_steps(model, seed);
    const REPS: usize = 12;
    for step in &steps {
        let name = ["realexec.layer_us.decode", "realexec.layer_us.prefill"][regime(step.tokens)];
        for (l, rec) in step.layers.iter().enumerate() {
            let layer = LayerId(l as u16);
            let plan = layer_plan(&cost, model, step, l);
            let states = rec.states.as_ref().expect("generated with token states");
            let mut layer_us = Vec::with_capacity(REPS);
            for rep in 0..REPS + 1 {
                let start = Instant::now();
                let result = exec
                    .execute_layer(layer, &plan, &states.inputs, &states.routes)
                    .expect("the plan covers the routing");
                let us = us_since(start);
                black_box(result);
                if rep > 0 {
                    layer_us.push(us);
                }
            }
            let mut kernel_us = Vec::with_capacity(REPS);
            for rep in 0..REPS + 1 {
                let mut total = 0.0;
                for (expert, load) in rec.routing.activated() {
                    let ffn = store
                        .expert(ExpertKey::new(layer, expert))
                        .expect("unbounded budget");
                    let x = probe_input(load as usize, hidden);
                    let mut y = vec![0.0f32; load as usize * hidden];
                    let start = Instant::now();
                    ffn.forward_batch_into(&x, load as usize, &mut y, &mut scratch, &pool, backend);
                    total += us_since(start);
                    black_box(&mut y);
                }
                if rep > 0 {
                    kernel_us.push(total);
                }
            }
            let layer_med = crate::stats::median(&layer_us);
            out.host_timed.extend(name, layer_us);
            out.plain.push(
                "realexec.overhead_share",
                1.0 - crate::stats::median(&kernel_us) / layer_med,
            );
        }
    }
}

/// The remote path's parts: a layer through `RemoteLayerExecutor`, one
/// expert batch's round trip through `WorkerClient::execute`, and the
/// codec alone.
pub fn remote(config: &EngineConfig, worker_count: usize, seed: u64, out: &mut Probed) {
    let model = &config.model;
    let cost = AffineCostModel::from_platform(&config.platform);
    let hidden = model.routed_shape.hidden();
    let (workers, endpoints) = spawn_workers(worker_count);

    let mut exec = RemoteLayerExecutor::new(
        model.clone(),
        seed,
        config.real_exec,
        &RemoteWorkerOptions {
            endpoints: endpoints.clone(),
            ..Default::default()
        },
    );
    let [_, decode_step] = sampled_steps(model, seed);
    for (l, rec) in decode_step.layers.iter().enumerate() {
        let plan = layer_plan(&cost, model, &decode_step, l);
        let states = rec.states.as_ref().expect("generated with token states");
        for rep in 0..13 {
            let start = Instant::now();
            let result = exec
                .execute_layer(LayerId(l as u16), &plan, &states.inputs, &states.routes)
                .expect("the plan covers the routing");
            let us = us_since(start);
            black_box(result);
            if rep > 0 {
                out.host_timed.push("remote.layer_us", us);
            }
        }
    }
    drop(exec);

    let mut client =
        WorkerClient::connect(&Endpoint::parse(&endpoints[0]), ClientOptions::default())
            .expect("connect to the loopback worker");
    client
        .load_shard(&LoadShard {
            seed,
            worker: 0,
            num_workers: 1,
            layers: model.layers,
            routed_experts: model.routed_experts,
            hidden,
            inter: model.routed_shape.inter(),
            weight_budget_bytes: config.real_exec.weight_budget_bytes,
            backend: wire_backend::to_wire(config.real_exec.kernel_backend.resolved()),
        })
        .expect("load the shard");
    for (tokens, name) in [(1u32, "worker.rtt_us.b1"), (8, "worker.rtt_us.b8")] {
        let batch = ExecuteBatch {
            layer: 0,
            expert: 0,
            tokens,
            hidden,
            data: probe_input(tokens as usize, hidden as usize),
        };
        for rep in 0..42 {
            let start = Instant::now();
            let ack = client.execute(&batch).expect("the worker answers");
            let us = us_since(start);
            black_box(ack);
            if rep >= 2 {
                out.host_timed.push(name, us);
            }
        }
    }
    drop(client);
    for worker in workers {
        worker.shutdown();
    }

    let batch = ExecuteBatch {
        layer: 0,
        expert: 0,
        tokens: 8,
        hidden,
        data: probe_input(8, hidden as usize),
    };
    let mut payload = Vec::new();
    for _ in 0..200 {
        payload.clear();
        let start = Instant::now();
        batch.encode(&mut payload);
        out.host_timed.push("worker.encode_us", us_since(start));
        let start = Instant::now();
        let decoded = ExecuteBatch::decode(&payload).expect("round trip");
        out.host_timed.push("worker.decode_us", us_since(start));
        black_box(decoded);
    }
    let mut reply = Vec::new();
    ExecuteBatchAck {
        tokens: batch.tokens,
        hidden,
        data: batch.data.clone(),
    }
    .encode(&mut reply);
    out.plain.push(
        "worker.wire_bytes_per_token",
        (2 * HEADER_LEN + payload.len() + reply.len()) as f64 / batch.tokens as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::batched::Traffic;
    use crate::workloads::{serve_once, Workload};

    #[test]
    fn the_replay_reproduces_every_step_of_a_traced_round() {
        let mut workload = Batched::sim_serve();
        workload.traffic = Traffic::Open {
            rate_per_s: 2.0,
            mix: vec![(32, 3), (128, 2)],
            decode: 6,
        };
        let inputs = workload.generate(11);
        let mut serving = workload.setup(&inputs);
        let mut round = serve_once(serving.as_mut(), &inputs, true);
        serving.finish(&mut round);
        assert!(round
            .steps
            .iter()
            .any(|s| s.admitted.len() + s.decoded.len() > 1));

        let mut probed = Probed::default();
        engine_replay(&workload, &inputs, &round.steps, &mut probed);
        assert!(probed.problems.is_empty(), "{:?}", probed.problems);
        assert_eq!(
            probed.host_timed.get("sched.host_overhead_share").len(),
            round.steps.len()
        );
        assert_eq!(
            probed.host_timed.get("trace.next_step_us").len(),
            5 * 6,
            "one generated step per decoded token"
        );

        // Another round's steps are not this round's: the check notices.
        let other = workload.generate(12);
        let mut probed = Probed::default();
        engine_replay(&workload, &other, &round.steps, &mut probed);
        assert_eq!(probed.problems.len(), 1, "{:?}", probed.problems);
    }
}
