//! Real execution end to end: run a tiny model with
//! `BackendKind::RealCpu`, where every scheduled expert is actually
//! computed with the quantized CPU kernels and each CPU-planned expert's
//! measured time replaces its modeled one on the engine's clock (GPU and
//! PCIe stay modeled), then close the calibration loop — the measured
//! wall-clock grounds the simulator's CPU constants, and the re-grounded
//! simulator predicts the same workload's CPU time.
//!
//! ```text
//! cargo run -p hybrimoe --release --example real_execution
//! ```

use hybrimoe::realexec::RealExecOptions;
use hybrimoe::{BackendKind, Engine, EngineConfig, Framework};
use hybrimoe_hw::Device;
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;

fn main() {
    let model = ModelConfig::tiny_test();
    let steps = 8;
    // Fixed expert mapping (uncached -> CPU) guarantees CPU kernel work on
    // a model this small, and keeps the schedule independent of the cost
    // model so the before/after-calibration comparison is apples to apples.
    let config = EngineConfig::preset(Framework::KTransformers, model.clone(), 0.25)
        .with_backend(BackendKind::RealCpu)
        .with_real_exec(RealExecOptions {
            max_threads: 1,
            ..Default::default()
        })
        .with_max_inflight(0);

    println!(
        "Real CPU execution — {} | {} decode steps, {:?}\n",
        model.name, steps, config.backend
    );

    // The trace must carry per-token hidden states for real execution.
    let trace = TraceGenerator::new(model.clone(), 42)
        .with_token_states()
        .decode_trace(steps);

    let mut engine = Engine::new(config.clone());
    let mut checksum = 0.0f64;
    println!("step | cpu (measured) | gpu (modeled) | cpu experts | gpu experts");
    for (i, step) in trace.steps.iter().enumerate() {
        let metrics = engine.step(step);
        let outputs = engine.take_real_outputs();
        for layer in &outputs {
            checksum += layer.output.iter().map(|v| *v as f64).sum::<f64>();
        }
        println!(
            "{i:>4} | {:>12.1}µs | {:>11.1}µs | {:>11} | {:>11}",
            metrics.busy(Device::Cpu).as_micros_f64(),
            metrics.busy(Device::gpu(0)).as_micros_f64(),
            metrics.cpu_experts,
            metrics.gpu_experts,
        );
    }
    println!("\noutput checksum over all layers: {checksum:+.6}");

    // Close the loop: measured kernels -> calibration -> simulator.
    let calibration = engine
        .backend_calibration()
        .expect("the run executed CPU experts");
    println!(
        "\nmeasured calibration: {:.2} GFLOP/s, {:.2} GB/s over {} CPU tasks",
        calibration.cpu_gflops, calibration.cpu_mem_bw_gbps, calibration.samples
    );

    let calibrated = config
        .clone()
        .with_platform(config.platform.with_calibration(&calibration));
    let cpu_secs = |m: &hybrimoe::StageMetrics| -> f64 {
        m.steps
            .iter()
            .map(|s| s.busy(Device::Cpu).as_secs_f64())
            .sum()
    };
    let predicted = Engine::new(calibrated.clone().with_backend(BackendKind::Sim)).run(&trace);
    let sim_s = cpu_secs(&predicted);

    // Wall-clock on microsecond-scale kernels can be perturbed by a noisy
    // host, so a transient miss gets one fresh re-measurement before the
    // smoke check fails.
    let mut ratio = f64::NAN;
    for attempt in 0..2 {
        let measured = Engine::new(calibrated.clone()).run(&trace);
        let real_s = cpu_secs(&measured);
        ratio = sim_s / real_s;
        println!(
            "calibrated simulator: predicted CPU {:.3} ms vs measured {:.3} ms (ratio {:.2})",
            sim_s * 1e3,
            real_s * 1e3,
            ratio
        );
        if (0.5..=2.0).contains(&ratio) {
            break;
        }
        if attempt == 0 {
            println!("ratio outside bounds, re-measuring once...");
        }
    }
    assert!(
        (0.5..=2.0).contains(&ratio),
        "calibrated prediction drifted from measurement (ratio {ratio:.2})"
    );
    println!("done: real execution and calibration feedback agree.");
}
