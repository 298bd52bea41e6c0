//! Distributed expert workers end to end: spawn real `hybrimoe_worker`
//! processes, give the engine's real backend their endpoints
//! (`with_remote_workers`) so every expert batch travels over the framed
//! wire protocol, verify the
//! decoded outputs are bit-identical to fully-local execution, then kill
//! a worker mid-run and watch the engine fail over to local kernels
//! without dropping a step, and restart it on the same endpoint and watch
//! the engine reconnect once the worker's backoff expires.
//!
//! ```text
//! cargo run -p hybrimoe --release --example distributed_workers
//! ```
//!
//! The worker binary is located next to this example under the cargo
//! target directory; if it has not been built (`cargo build -p
//! hybrimoe_worker`), the example falls back to in-thread workers behind
//! the same codec.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use hybrimoe::realexec::RealExecOptions;
use hybrimoe::remote::RemoteWorkerOptions;
use hybrimoe::{Engine, EngineConfig, Framework};
use hybrimoe_kernels::KernelBackendKind;
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::TraceGenerator;
use hybrimoe_worker::{Endpoint, WorkerHandle, WorkerServer, WorkerServerOptions};

/// A worker that is either a real child process or an in-thread server
/// (when the worker binary is not built).
enum Worker {
    Process(Child),
    Thread(Option<WorkerHandle>),
}

impl Worker {
    fn kill(&mut self) {
        match self {
            Worker::Process(child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Worker::Thread(handle) => {
                if let Some(handle) = handle.take() {
                    handle.shutdown();
                }
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `target/<profile>/hybrimoe_worker`, resolved relative to this example
/// (`target/<profile>/examples/distributed_workers`).
fn worker_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe.parent()?.parent()?.join("hybrimoe_worker");
    bin.is_file().then_some(bin)
}

/// Spawns one worker listening on `listen` and returns it with its
/// resolved endpoint.
fn spawn_worker(binary: Option<&PathBuf>, listen: &str) -> (Worker, String) {
    if let Some(binary) = binary {
        let mut child = Command::new(binary)
            .args(["--listen", listen, "--threads", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn hybrimoe_worker");
        // The worker prints `listening on <endpoint>` once bound.
        let stdout = child.stdout.take().expect("worker stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read worker banner");
        let endpoint = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
            .to_owned();
        (Worker::Process(child), endpoint)
    } else {
        let handle = WorkerServer::bind(&Endpoint::parse(listen), WorkerServerOptions::default())
            .expect("bind in-thread worker")
            .spawn();
        let endpoint = handle.endpoint().to_string();
        (Worker::Thread(Some(handle)), endpoint)
    }
}

fn main() {
    let model = ModelConfig::tiny_test();
    let steps = 16;
    // Worker 0 is killed before step `kill` and restarted on the same
    // endpoint before step `restart`.
    let (kill, restart) = (steps / 4, steps / 4 + 2);
    let binary = worker_binary();
    match &binary {
        Some(bin) => println!("worker binary: {}", bin.display()),
        None => println!("worker binary not built; using in-thread workers"),
    }

    let mut workers = Vec::new();
    let mut endpoints = Vec::new();
    for _ in 0..2 {
        let (worker, endpoint) = spawn_worker(binary.as_ref(), "127.0.0.1:0");
        println!("worker up at {endpoint}");
        workers.push(worker);
        endpoints.push(endpoint);
    }

    // Pin the scalar kernels on both sides so remote and local results
    // are comparable bit for bit.
    let exec = RealExecOptions {
        max_threads: 1,
        kernel_backend: KernelBackendKind::Scalar,
        ..Default::default()
    };
    let base = EngineConfig::preset(Framework::KTransformers, model.clone(), 0.25)
        .with_real_exec(exec)
        .with_max_inflight(0);
    let remote_config = base.clone().with_remote_workers(RemoteWorkerOptions {
        endpoints: endpoints.clone(),
        ..Default::default()
    });
    let local_config = base.with_remote_workers(RemoteWorkerOptions::default());

    let trace = TraceGenerator::new(model, 42)
        .with_token_states()
        .decode_trace(steps);

    // Reference: the same backend with no workers runs everything on the
    // local kernels.
    let mut local = Engine::new(local_config);
    let mut reference = Vec::new();
    for step in &trace.steps {
        local.step(step);
        reference.push(local.take_real_outputs());
    }

    let mut engine = Engine::new(remote_config);
    println!("\nstep | remote requests | failovers | reconnects | workers up | identical");
    let mut all_identical = true;
    // Failovers as of the step worker 0 reconnected: worker 1 keeps
    // taking requests throughout, so worker 0 serving again shows as
    // failovers that stop growing.
    let mut failovers_at_reconnect = None;
    for (i, step) in trace.steps.iter().enumerate() {
        // Kill worker 0: its experts fail over to local execution and the
        // stream keeps going.
        if i == kill {
            workers[0].kill();
            println!("    -- killed worker 0 --");
        }
        // Restart it on the same endpoint: the first dispatch after its
        // reconnect backoff (50 ms, doubling per failure) brings it back.
        if i == restart {
            let (worker, endpoint) = spawn_worker(binary.as_ref(), &endpoints[0]);
            workers[0] = worker;
            println!("    -- restarted worker 0 at {endpoint} --");
        }
        if i > kill {
            // Pace the steps so the backoff expires within the run.
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        engine.step(step);
        let outputs = engine.take_real_outputs();
        let identical = outputs
            .iter()
            .zip(reference[i].iter())
            .all(|(a, b)| a.output == b.output);
        all_identical &= identical;
        let health = engine.worker_health().expect("remote backend has health");
        if health.reconnects > 0 && failovers_at_reconnect.is_none() {
            failovers_at_reconnect = Some(health.failovers);
        }
        println!(
            "{i:>4} | {:>15} | {:>9} | {:>10} | {:>10} | {}",
            health.requests, health.failovers, health.reconnects, health.up, identical
        );
    }

    let health = engine.worker_health().expect("remote backend has health");
    assert!(all_identical, "remote outputs diverged from local");
    assert!(health.requests > 0, "no batch ever ran remotely");
    assert!(health.failovers > 0, "killing a worker should fail over");
    assert!(
        health.reconnects >= 1,
        "the restarted worker never reconnected"
    );
    assert_eq!(
        (health.up, Some(health.failovers)),
        (2, failovers_at_reconnect),
        "worker 0 did not take its experts back after reconnecting"
    );
    println!(
        "\nall {} steps bit-identical to local execution; \
         {} remote batches, {} failovers after the kill, {} reconnect(s) after the restart",
        steps, health.requests, health.failovers, health.reconnects
    );
}
