//! Real-execution backend suite: placement invariance of the numerical
//! layer outputs (property-tested across every scheduler), sim/real engine
//! interchangeability, continuous-batching serving on real kernels, and
//! the calibration feedback loop — after grounding the simulator's CPU
//! constants in measured kernel runs, its predicted CPU time must land
//! within ±30% of the measured wall-clock.

use hybrimoe::realexec::{RealExecOptions, RealLayerExecutor};
use hybrimoe::serve::{ArrivalProcess, ServeConfig, ServeSim};
use hybrimoe::{BackendKind, Engine, EngineConfig, Framework, SchedulerKind};
use hybrimoe_hw::{Device, SimDuration, UnitCostModel};
use hybrimoe_model::{LayerId, LayerRouting, ModelConfig, RouterOutput};
use hybrimoe_sched::baselines::{FixedMappingScheduler, GpuOnlyScheduler, StaticSplitScheduler};
use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, Scheduler};
use hybrimoe_trace::TraceGenerator;
use proptest::prelude::*;

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

/// Every scheduler an engine can be configured with, including StaticSplit.
fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(HybridScheduler::new()),
        Box::new(HybridScheduler::without_cpu_steal()),
        Box::new(FixedMappingScheduler::new()),
        Box::new(GpuOnlyScheduler::new()),
        Box::new(StaticSplitScheduler::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The expert-major batched hot path is bit-identical to the retained
    /// token-major reference across random placements (every scheduler ×
    /// random residency), batch sizes, and thread counts. The batched side
    /// pins the scalar kernel backend: the token-major reference always
    /// runs the scalar loops, and cross-strategy bit-identity is only
    /// promised when both sides use the same arithmetic.
    #[test]
    fn expert_major_is_bit_identical_to_token_major(
        seed in 0u64..1_000,
        cached_mask in any::<u8>(),
        tokens in 1usize..10,
        threads in 1usize..4,
    ) {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = layer_tokens(&model, tokens, seed);
        let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, &routes);
        let tasks: Vec<ExpertTask> = routing
            .activated()
            .into_iter()
            .map(|(e, load)| ExpertTask {
                expert: e,
                load,
                cached: cached_mask & (1 << (e.0 % 8)) != 0,
            })
            .collect();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);

        let mut batched = RealLayerExecutor::with_options(
            model.clone(),
            7,
            RealExecOptions {
                max_threads: threads,
                kernel_backend: hybrimoe_kernels::KernelBackendKind::Scalar,
                ..Default::default()
            },
        );
        let mut reference = RealLayerExecutor::with_options(
            model,
            7,
            RealExecOptions { max_threads: threads, token_major: true, ..Default::default() },
        );
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            prop_assert_eq!(plan.validate(&tasks), Ok(()));
            let fast = batched
                .execute_layer(LayerId(0), &plan, &inputs, &routes)
                .expect("valid plan executes");
            let slow = reference
                .execute_layer(LayerId(0), &plan, &inputs, &routes)
                .expect("valid plan executes");
            prop_assert_eq!(
                &fast.output,
                &slow.output,
                "{} diverged between strategies (tokens={}, threads={})",
                scheduler.name(),
                tokens,
                threads
            );
            prop_assert_eq!(fast.cpu_tasks, slow.cpu_tasks);
            prop_assert_eq!(fast.gpu_tasks, slow.gpu_tasks);
            prop_assert!(fast.output.iter().all(|v| v.is_finite()));
        }
    }

    /// A layer's real output is bit-identical no matter which scheduler
    /// produced the plan — HybridScheduler, every baseline, and
    /// StaticSplit — across random inputs and cache residency patterns.
    #[test]
    fn real_output_is_bit_identical_across_all_schedulers(
        seed in 0u64..1_000,
        cached_mask in any::<u8>(),
        tokens in 1usize..4,
    ) {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = layer_tokens(&model, tokens, seed);
        let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, &routes);
        let tasks: Vec<ExpertTask> = routing
            .activated()
            .into_iter()
            .map(|(e, load)| ExpertTask {
                expert: e,
                load,
                cached: cached_mask & (1 << (e.0 % 8)) != 0,
            })
            .collect();
        let cost = UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);

        let mut exec = RealLayerExecutor::with_options(
            model,
            7,
            RealExecOptions { max_threads: 1, ..Default::default() },
        );
        let mut reference: Option<Vec<f32>> = None;
        for scheduler in all_schedulers() {
            let plan = scheduler.schedule(&ctx);
            prop_assert_eq!(plan.validate(&tasks), Ok(()));
            let out = exec
                .execute_layer(LayerId(0), &plan, &inputs, &routes)
                .expect("valid plan executes");
            match &reference {
                None => reference = Some(out.output),
                Some(r) => prop_assert_eq!(
                    r,
                    &out.output,
                    "{} diverged from the reference output",
                    scheduler.name()
                ),
            }
        }
        prop_assert!(reference.unwrap().iter().any(|v| *v != 0.0));
    }
}

fn real_config(framework: Framework, seed: u64) -> EngineConfig {
    EngineConfig::preset(framework, ModelConfig::tiny_test(), 0.25)
        .with_backend(BackendKind::RealCpu)
        .with_real_exec(RealExecOptions {
            max_threads: 1,
            ..Default::default()
        })
        .with_seed(seed)
}

/// End-to-end placement invariance: engines with different frameworks
/// (different schedulers, caches, placements) produce bit-identical real
/// layer outputs for the same trace.
#[test]
fn engine_real_outputs_are_framework_independent() {
    let model = ModelConfig::tiny_test();
    let trace = TraceGenerator::new(model, 41)
        .with_token_states()
        .decode_trace(3);

    let mut reference: Option<Vec<Vec<Vec<f32>>>> = None;
    for framework in Framework::ALL {
        let mut engine = Engine::new(real_config(framework, 41));
        let mut per_step = Vec::new();
        for step in &trace.steps {
            engine.step(step);
            let outputs: Vec<Vec<f32>> = engine
                .take_real_outputs()
                .into_iter()
                .map(|o| o.output)
                .collect();
            assert_eq!(outputs.len(), engine.config().model.layers as usize);
            per_step.push(outputs);
        }
        match &reference {
            None => reference = Some(per_step),
            Some(r) => assert_eq!(r, &per_step, "{framework} diverged"),
        }
    }
}

/// The sim backend ignores token states: metrics are identical whether or
/// not the trace carries them, and identical to the pre-backend engine
/// (the determinism suite pins the latter).
#[test]
fn sim_backend_ignores_token_states() {
    let model = ModelConfig::tiny_test();
    let plain = TraceGenerator::new(model.clone(), 43).decode_trace(6);
    let stated = TraceGenerator::new(model.clone(), 43)
        .with_token_states()
        .decode_trace(6);
    let config = EngineConfig::preset(Framework::HybriMoe, model, 0.5);
    let a = Engine::new(config.clone()).run(&plain);
    let b = Engine::new(config).run(&stated);
    assert_eq!(a, b);
}

/// Real execution works under the continuous-batching serve loop: prefill
/// merges, join-on-arrival and leave-on-completion all run on the real
/// kernels (the serve layer generates token states automatically).
#[test]
fn real_backend_serves_continuous_batches() {
    let report = ServeSim::new(ServeConfig {
        engine: real_config(Framework::HybriMoe, 7),
        arrivals: ArrivalProcess::deterministic(SimDuration::from_micros(200)),
        requests: 4,
        prompt_tokens: 6,
        decode_tokens: 3,
        max_batch: 2,
        seed: 7,
    })
    .run();
    assert_eq!(report.requests.len(), 4);
    for m in &report.requests {
        assert!(m.first_token >= m.arrival);
        assert!(m.completion >= m.first_token);
    }
    // Real kernels took real time: every step has nonzero latency.
    assert!(report.steps.iter().all(|s| s.latency > SimDuration::ZERO));
    // The batcher actually merged concurrent requests at some point.
    assert!(report.steps.iter().any(|s| s.batch == 2));
}

/// One calibrate-then-predict round: profile run on `profile_seed` grounds
/// the CPU constants, then the calibrated simulator predicts a fresh
/// workload (`smoke_seed`) that the real backend measures. Returns
/// `predicted / measured` total CPU seconds.
fn calibration_round(profile_seed: u64, smoke_seed: u64) -> f64 {
    let model = ModelConfig::tiny_test();
    // KTransformers' fixed mapping sends every uncached expert to the CPU
    // *independently of the cost model*, so (a) the tiny-model workload is
    // guaranteed to exercise the CPU and (b) the sim and real engines build
    // identical schedules before and after calibration. Background
    // transfers are disabled because they depend on the (measured, hence
    // noisy) makespan.
    let base = real_config(Framework::KTransformers, 51).with_max_inflight(0);

    // Phase 1: profile run grounds the CPU constants.
    let profile_trace = TraceGenerator::new(model.clone(), profile_seed)
        .with_token_states()
        .decode_trace(12);
    let mut probe = Engine::new(base.clone());
    probe.run(&profile_trace);
    let calibration = probe
        .backend_calibration()
        .expect("the profile run executed CPU experts");
    assert!(calibration.is_plausible(), "{calibration:?}");

    // Phase 2: fresh workload, calibrated platform, real vs simulated.
    let platform = base.platform.with_calibration(&calibration);
    let smoke_trace = TraceGenerator::new(model, smoke_seed)
        .with_token_states()
        .decode_trace(12);
    let calibrated = base.with_platform(platform);

    let measured = Engine::new(calibrated.clone()).run(&smoke_trace);
    let predicted = Engine::new(calibrated.with_backend(BackendKind::Sim)).run(&smoke_trace);

    // Identical schedules on both sides (same cost model, no background
    // transfers), so CPU expert counts must agree exactly.
    assert_eq!(measured.cpu_experts(), predicted.cpu_experts());
    assert!(measured.cpu_experts() > 0, "workload must exercise the CPU");

    let cpu = |m: &hybrimoe::StageMetrics| -> f64 {
        m.steps
            .iter()
            .map(|s| s.busy(Device::Cpu).as_secs_f64())
            .sum()
    };
    cpu(&predicted) / cpu(&measured)
}

/// The calibration loop closes: measured CPU wall-clock from a real run is
/// distilled into a `CalibrationProfile`, folded into the platform, and the
/// re-grounded simulator predicts the CPU time of a *fresh* workload within
/// ±30% of what the real backend measures for it.
///
/// Wall-clock assertions on microsecond-scale kernels can be perturbed by a
/// noisy host (frequency scaling, scheduler interference between the two
/// phases), so a transient miss gets up to two fresh retries with new
/// seeds; a systematic calibration error fails all three rounds.
#[test]
fn calibrated_simulator_predicts_real_cpu_time_within_30_percent() {
    let mut ratios = Vec::new();
    for (profile_seed, smoke_seed) in [(61, 67), (161, 167), (261, 267)] {
        let ratio = calibration_round(profile_seed, smoke_seed);
        if (0.7..=1.3).contains(&ratio) {
            return;
        }
        ratios.push(ratio);
    }
    panic!("predicted/measured CPU-time ratio outside ±30% in every round: {ratios:?}");
}

/// FNV-1a over the f32 bit patterns, for compact output pins.
fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Absolute output pins of one scheduled layer at three batch sizes.
/// Captured on the scalar kernel backend when the kernels became the
/// `Q4_0 × Q8_0` integer dot (the earlier pins were of the f32
/// dequantize-and-dot loops that change removed) and asserted here on
/// every available backend: any drift means a change moved the numerics,
/// not just the speed.
#[test]
fn expert_major_output_matches_the_q4q8_pin() {
    let pins: [(usize, u64); 3] = [
        (1, 0x3f1fb7f66a125df3),
        (3, 0x6938a1512e7bf910),
        (8, 0x64f4727be15cbfa6),
    ];
    let model = ModelConfig::tiny_test();
    for (tokens, expected) in pins {
        let (inputs, routes) = layer_tokens(&model, tokens, 9);
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
        for backend in hybrimoe_kernels::backend::available() {
            let mut exec = RealLayerExecutor::with_options(
                model.clone(),
                7,
                RealExecOptions {
                    max_threads: 2,
                    kernel_backend: backend.kind(),
                    ..Default::default()
                },
            );
            let out = exec
                .execute_layer(LayerId(0), &plan, &inputs, &routes)
                .unwrap();
            assert_eq!(
                fnv1a(out.output.iter().map(|v| v.to_bits())),
                expected,
                "tokens={tokens}: output drifted on {:?}",
                backend.kind()
            );
        }
    }
}

/// The StaticSplit scheduler can drive the real backend end to end as an
/// explicit configuration (not just a llama.cpp preset).
#[test]
fn static_split_runs_real_backend_end_to_end() {
    let model = ModelConfig::tiny_test();
    let trace = TraceGenerator::new(model, 45)
        .with_token_states()
        .decode_trace(2);
    let config = real_config(Framework::LlamaCpp, 45).with_scheduler(SchedulerKind::StaticSplit);
    let mut engine = Engine::new(config);
    let metrics = engine.run(&trace);
    assert_eq!(metrics.steps.len(), 2);
    assert!(metrics.total > SimDuration::ZERO);
}
