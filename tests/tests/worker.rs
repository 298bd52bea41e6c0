//! Out-of-process worker suite: socket-level protocol robustness (a raw
//! client driving a real worker over loopback TCP with hand-crafted
//! frames), the client's deadline on a worker that stops accepting or
//! reading, failover integration (a worker that crashes mid-request must
//! degrade to local execution without failing any in-flight request),
//! remote ≡ local bit-identity (property-tested across worker counts,
//! pipelining and routing, and pinned on layers whose frames overflow the
//! connections' write buffers), and the `docs/protocol.md` example frames
//! round-tripped through the real codec.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hybrimoe::fault::{FaultPlan, FaultRates};
use hybrimoe::realexec::{RealExecOptions, RealLayerExecutor};
use hybrimoe::remote::{RemoteWorkerOptions, WorkerHealthSnapshot};
use hybrimoe::{Engine, EngineConfig, Framework};
use hybrimoe_kernels::{backend, ExecScratch, KernelBackendKind, WorkerPool};
use hybrimoe_model::{
    ExpertId, ExpertKey, LayerId, LayerRouting, ModelConfig, RouterOutput, WeightStore,
};
use hybrimoe_sched::{ExpertTask, HybridScheduler, ScheduleContext, SchedulePlan, Scheduler};
use hybrimoe_trace::TraceGenerator;
use hybrimoe_worker::protocol::{
    encode_frame, read_frame, ErrorCode, ErrorReply, ExecuteBatch, ExecuteBatchAck, FrameHeader,
    LoadShard, LoadShardAck, Opcode, ProtocolError, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use hybrimoe_worker::{
    wire_backend, ClientError, ClientOptions, Endpoint, WorkerClient, WorkerHandle, WorkerServer,
    WorkerServerOptions, IO_BUFFER,
};
use proptest::prelude::*;

/// Spawns an in-thread worker on a loopback port.
fn spawn_worker(options: WorkerServerOptions) -> WorkerHandle {
    WorkerServer::bind(&Endpoint::parse("127.0.0.1:0"), options)
        .expect("bind a loopback worker")
        .spawn()
}

/// Connects a raw TCP client to a worker.
fn connect(worker: &WorkerHandle) -> TcpStream {
    let stream = TcpStream::connect(worker.endpoint().to_string()).expect("connect to worker");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Writes one frame and returns the next reply `(header, payload)`.
fn roundtrip(
    stream: &mut TcpStream,
    opcode: Opcode,
    id: u32,
    payload: &[u8],
) -> (FrameHeader, Vec<u8>) {
    let mut wire = Vec::new();
    encode_frame(opcode, id, payload, &mut wire);
    stream.write_all(&wire).expect("write frame");
    let mut reply = Vec::new();
    let header = read_frame(stream, &mut reply).expect("read reply");
    (header, reply)
}

/// Asserts the stream is closed: the next read returns EOF or a reset
/// (the worker may close with bytes still unread in its receive buffer,
/// which surfaces as ECONNRESET instead of a clean FIN).
fn assert_closed(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("expected EOF, worker sent more bytes"),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected EOF or reset, got {e}"),
    }
}

/// Asserts the next reply is an `Error(VersionMismatch)` (with request id
/// 0: the rest of another version's header is untrusted) and that the
/// worker then closes the connection.
fn assert_version_mismatch_then_closed(stream: &mut TcpStream, what: &str) {
    let mut reply = Vec::new();
    let header = read_frame(stream, &mut reply).expect("read reply");
    assert_eq!(header.opcode, Opcode::Error, "{what}");
    assert_eq!(header.request_id, 0, "{what}");
    let err = ErrorReply::decode(&reply).expect("error reply");
    assert_eq!(err.code, ErrorCode::VersionMismatch, "{what}");
    assert_closed(stream);
}

/// The encoded `LoadShard` of a one-worker, four-expert shard.
fn one_worker_shard() -> Vec<u8> {
    let mut payload = Vec::new();
    LoadShard {
        seed: 7,
        worker: 0,
        num_workers: 1,
        layers: 1,
        routed_experts: 4,
        hidden: 4,
        inter: 8,
        weight_budget_bytes: 1 << 20,
        backend: 1,
    }
    .encode(&mut payload);
    payload
}

#[test]
fn unsupported_frame_version_is_answered_then_closed() {
    let worker = spawn_worker(WorkerServerOptions::default());
    // The first frame a version-2 build sends (a Hello naming version 2),
    // and a LoadShard from a version far ahead of ours.
    let mut v2_hello = MAGIC.to_be_bytes().to_vec();
    v2_hello.extend_from_slice(&[2, 0x01, 0, 0, 0, 1, 0, 0, 0, 1, 2]);
    let payload = one_worker_shard();
    let mut v99_load_shard = Vec::new();
    encode_frame(Opcode::LoadShard, 1, &payload, &mut v99_load_shard);
    v99_load_shard[4] = 99;
    for (what, wire) in [("v2 Hello", v2_hello), ("v99 LoadShard", v99_load_shard)] {
        let mut stream = connect(&worker);
        stream.write_all(&wire).expect("write frame");
        assert_version_mismatch_then_closed(&mut stream, what);
    }
    worker.shutdown();
}

#[test]
fn a_frame_of_another_version_after_load_shard_is_answered_then_closed() {
    let worker = spawn_worker(WorkerServerOptions::default());
    let mut stream = connect(&worker);
    let payload = one_worker_shard();
    let (header, _) = roundtrip(&mut stream, Opcode::LoadShard, 1, &payload);
    assert_eq!(header.opcode, Opcode::LoadShardAck);
    // Mid-connection, the version byte is checked as on the first frame: a
    // Drain this worker would otherwise acknowledge is refused instead.
    let mut wire = Vec::new();
    encode_frame(Opcode::Drain, 2, &[], &mut wire);
    wire[4] = VERSION + 1;
    stream.write_all(&wire).expect("write frame");
    assert_version_mismatch_then_closed(&mut stream, "a later frame");
    worker.shutdown();
}

/// The client deadline of the two stall tests.
const DEADLINE: Duration = Duration::from_millis(200);

/// Runs `op` on its own thread and returns its result, failing the test
/// if the thread is still blocked 5 s after starting: far past
/// [`DEADLINE`], so a client that ignores its deadline fails the test
/// instead of hanging it.
fn within_guard<T: Send + 'static>(what: &str, op: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(op());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{what} was still blocked 5 s after a {DEADLINE:?} deadline"))
}

/// Whether a client call failed because a socket wait hit its timeout.
fn timed_out(result: &Result<(), ClientError>) -> bool {
    matches!(
        result,
        Err(ClientError::Protocol(ProtocolError::Io(e)))
            if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock)
    )
}

/// A worker bound but not accepting, its accept queue filled: Linux drops
/// every further SYN, so an unbounded connect waits out the SYN retries
/// (minutes). The client's connect must fail at its deadline instead.
#[cfg(target_os = "linux")]
#[test]
fn connect_to_a_worker_with_a_full_accept_queue_fails_at_the_deadline() {
    let worker = WorkerServer::bind(
        &Endpoint::parse("127.0.0.1:0"),
        WorkerServerOptions::default(),
    )
    .expect("bind a loopback worker");
    let endpoint = worker.endpoint().clone();
    let addr = endpoint.to_string().parse().expect("an ip:port endpoint");
    // Connect until the queue is full: the first connect that times out.
    let mut queued = Vec::new();
    loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
            Ok(stream) => queued.push(stream),
            Err(e) if e.kind() == ErrorKind::TimedOut => break,
            Err(e) => panic!(
                "filling the accept queue after {} connects: {e}",
                queued.len()
            ),
        }
    }
    let result = within_guard("WorkerClient::connect", move || {
        WorkerClient::connect(
            &endpoint,
            ClientOptions {
                deadline: Some(DEADLINE),
            },
        )
        .map(drop)
    });
    assert!(timed_out(&result), "{result:?}");
}

/// A worker that stopped reading: it reads the first batch, then sleeps
/// 30 s before its reply, so nothing more is read from the connection and
/// the socket buffers fill. A pipelined send must fail at the deadline —
/// where the engine's fleet fails over — instead of blocking its caller.
#[test]
fn send_to_a_worker_that_stopped_reading_fails_at_the_deadline() {
    let worker = spawn_worker(WorkerServerOptions {
        threads: 1,
        fault_plan: FaultPlan {
            rates: FaultRates {
                reply_delay_ppm: 1_000_000,
                reply_delay_ms: 30_000,
                ..Default::default()
            },
            ..FaultPlan::off()
        },
        ..Default::default()
    });
    let endpoint = worker.endpoint().clone();
    let result = within_guard("WorkerClient::send_execute_parts", move || {
        let mut client = WorkerClient::connect(
            &endpoint,
            ClientOptions {
                deadline: Some(DEADLINE),
            },
        )?;
        client.load_shard(&LoadShard {
            seed: 7,
            worker: 0,
            num_workers: 1,
            layers: 1,
            routed_experts: 4,
            hidden: 64,
            inter: 96,
            weight_budget_bytes: 1 << 20,
            backend: 0,
        })?;
        // 1 MiB batches: 256 of them are far more than loopback buffers.
        let (tokens, hidden) = (4096u32, 64u32);
        let data = vec![0.0f32; (tokens * hidden) as usize];
        for _ in 0..256 {
            client.send_execute_parts(0, 0, tokens, hidden, &data)?;
        }
        Ok(())
    });
    assert!(timed_out(&result), "{result:?}");
    worker.shutdown();
}

#[test]
fn bad_magic_closes_the_connection_without_a_reply() {
    let worker = spawn_worker(WorkerServerOptions::default());
    let mut stream = connect(&worker);
    // Garbage where a header should be: the stream has desynchronized and
    // there is no way to find the next frame boundary, so the worker must
    // hang up rather than answer.
    stream.write_all(&[0u8; HEADER_LEN]).expect("write garbage");
    assert_closed(&mut stream);
    worker.shutdown();
}

#[test]
fn oversized_payload_length_closes_the_connection() {
    let worker = spawn_worker(WorkerServerOptions::default());
    let mut stream = connect(&worker);
    // A hostile length field: headers above MAX_PAYLOAD must be rejected
    // before any allocation, and the connection dropped.
    let mut wire = Vec::new();
    encode_frame(Opcode::Drain, 1, &[], &mut wire);
    wire[10..14].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
    stream.write_all(&wire).expect("write frame");
    assert_closed(&mut stream);
    worker.shutdown();
}

#[test]
fn truncated_frame_is_a_clean_teardown() {
    let worker = spawn_worker(WorkerServerOptions::default());
    let mut stream = connect(&worker);
    // Announce a 64-byte payload, deliver 10 bytes, hang up mid-frame.
    let mut wire = Vec::new();
    encode_frame(Opcode::ExecuteBatch, 1, &[0u8; 64], &mut wire);
    stream
        .write_all(&wire[..HEADER_LEN + 10])
        .expect("write partial frame");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("close write half");
    // The worker treats mid-frame EOF as a disconnect, not a protocol
    // error: no reply, no panic, just a close.
    assert_closed(&mut stream);
    worker.shutdown();
}

#[test]
fn requests_before_load_shard_get_not_loaded_and_the_connection_survives() {
    let worker = spawn_worker(WorkerServerOptions::default());
    let mut stream = connect(&worker);
    let mut payload = Vec::new();
    ExecuteBatch {
        layer: 0,
        expert: 0,
        tokens: 1,
        hidden: 2,
        data: vec![0.0, 0.0],
    }
    .encode(&mut payload);
    let (header, reply) = roundtrip(&mut stream, Opcode::ExecuteBatch, 5, &payload);
    assert_eq!(header.opcode, Opcode::Error);
    let err = ErrorReply::decode(&reply).expect("error reply");
    assert_eq!(err.code, ErrorCode::NotLoaded);
    // The connection is still usable after the error.
    let (header, _) = roundtrip(&mut stream, Opcode::Drain, 6, &[]);
    assert_eq!(header.opcode, Opcode::DrainAck);
    assert_closed(&mut stream);
    worker.shutdown();
}

#[test]
fn wrong_shard_and_reply_opcodes_get_error_replies() {
    let worker = spawn_worker(WorkerServerOptions::default());
    let mut stream = connect(&worker);
    let mut shard = Vec::new();
    LoadShard {
        seed: 7,
        worker: 0,
        num_workers: 2,
        layers: 1,
        routed_experts: 4,
        hidden: 4,
        inter: 8,
        weight_budget_bytes: 1 << 20,
        backend: 1,
    }
    .encode(&mut shard);
    let (header, reply) = roundtrip(&mut stream, Opcode::LoadShard, 1, &shard);
    assert_eq!(header.opcode, Opcode::LoadShardAck);
    // Worker 0 of 2 owns the even experts of 4.
    assert_eq!(LoadShardAck::decode(&reply).expect("ack").experts_owned, 2);

    // Expert 1 maps to worker 1 under the shard map: NotMyShard, and the
    // engine's client fails that batch over to local execution.
    let mut payload = Vec::new();
    ExecuteBatch {
        layer: 0,
        expert: 1,
        tokens: 1,
        hidden: 4,
        data: vec![0.0; 4],
    }
    .encode(&mut payload);
    let (header, reply) = roundtrip(&mut stream, Opcode::ExecuteBatch, 2, &payload);
    assert_eq!(header.opcode, Opcode::Error);
    assert_eq!(
        ErrorReply::decode(&reply).expect("error").code,
        ErrorCode::NotMyShard
    );

    // A reply opcode sent as a request is a violation but survivable.
    let (header, reply) = roundtrip(&mut stream, Opcode::ExecuteBatchAck, 3, &[]);
    assert_eq!(header.opcode, Opcode::Error);
    assert_eq!(
        ErrorReply::decode(&reply).expect("error").code,
        ErrorCode::BadPayload
    );
    let (header, _) = roundtrip(&mut stream, Opcode::LoadShard, 5, &shard);
    assert_eq!(header.opcode, Opcode::LoadShardAck);
    worker.shutdown();
}

/// A `LoadShard` pinning byte 4 (`avx512`) loads on whatever host runs the
/// worker: a CPU without the features runs the widest backend below it.
/// Reserved byte 2 (a backend since removed) loads as scalar. Either way
/// the outputs are the local scalar ones bit for bit.
#[test]
fn avx512_pinned_shard_loads_on_any_host_and_matches_local() {
    assert_eq!(wire_backend::to_wire(KernelBackendKind::Avx512), 4);
    assert_eq!(wire_backend::from_wire(2), Some(KernelBackendKind::Scalar));
    let model = ModelConfig::tiny_test();
    let hidden = model.routed_shape.hidden();
    for backend_byte in [4u8, 2] {
        let worker = spawn_worker(WorkerServerOptions::default());
        let mut stream = connect(&worker);
        let mut payload = Vec::new();
        LoadShard {
            seed: 7,
            worker: 0,
            num_workers: 1,
            layers: model.layers,
            routed_experts: model.routed_experts,
            hidden,
            inter: model.routed_shape.inter(),
            weight_budget_bytes: 1 << 24,
            backend: backend_byte,
        }
        .encode(&mut payload);
        assert_eq!(payload.last(), Some(&backend_byte), "the wire byte");
        let (header, _) = roundtrip(&mut stream, Opcode::LoadShard, 1, &payload);
        assert_eq!(header.opcode, Opcode::LoadShardAck);

        let mut store = WeightStore::new(model.clone(), 7, 1 << 24);
        let pool = WorkerPool::new(1);
        let mut scratch = ExecScratch::new();
        // One, two and more tokens: each register-tile family, plus remainders.
        for (id, tokens) in [1u32, 2, 3, 5, 8].into_iter().enumerate() {
            let data: Vec<f32> = (0..tokens * hidden)
                .map(|i| ((i * 37 + tokens) % 101) as f32 / 500.0 - 0.1)
                .collect();
            payload.clear();
            ExecuteBatch {
                layer: 0,
                expert: 1,
                tokens,
                hidden,
                data: data.clone(),
            }
            .encode(&mut payload);
            let (header, reply) =
                roundtrip(&mut stream, Opcode::ExecuteBatch, 2 + id as u32, &payload);
            assert_eq!(header.opcode, Opcode::ExecuteBatchAck);
            let remote = ExecuteBatchAck::decode(&reply).expect("ack").data;

            let ffn = store
                .expert(ExpertKey::new(LayerId(0), ExpertId(1)))
                .expect("within budget");
            let mut local = vec![0.0f32; data.len()];
            ffn.forward_batch_into(
                &data,
                tokens as usize,
                &mut local,
                &mut scratch,
                &pool,
                backend::scalar(),
            );
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&remote),
                bits(&local),
                "backend byte {backend_byte}, tokens={tokens}"
            );
        }
        worker.shutdown();
    }
}

/// A worker that crashes mid-request (drops the connection without
/// replying) must degrade to local execution without failing a single
/// in-flight engine step, and the degraded outputs must stay
/// bit-identical to a fully-local run.
#[test]
fn mid_request_crash_fails_over_without_failing_requests() {
    let model = ModelConfig::tiny_test();
    let steps = 6;
    let crashing = spawn_worker(WorkerServerOptions {
        threads: 1,
        drain_stops_server: true,
        fault_plan: FaultPlan {
            rates: FaultRates {
                fail_after: Some(2),
                ..Default::default()
            },
            ..FaultPlan::off()
        },
    });
    let healthy = spawn_worker(WorkerServerOptions {
        threads: 1,
        ..Default::default()
    });
    let endpoints = vec![
        crashing.endpoint().to_string(),
        healthy.endpoint().to_string(),
    ];

    let exec = RealExecOptions {
        max_threads: 1,
        kernel_backend: KernelBackendKind::Scalar,
        ..Default::default()
    };
    let base = EngineConfig::preset(Framework::KTransformers, model.clone(), 0.25)
        .with_real_exec(exec)
        .with_max_inflight(0);
    let remote_config = base.clone().with_remote_workers(RemoteWorkerOptions {
        endpoints,
        deadline_ms: 2_000,
    });
    let local_config = base.with_remote_workers(RemoteWorkerOptions::default());

    let trace = TraceGenerator::new(model, 11)
        .with_token_states()
        .decode_trace(steps);

    let mut local = Engine::new(local_config);
    let mut reference = Vec::new();
    for step in &trace.steps {
        local.step(step);
        reference.push(local.take_real_outputs());
    }

    let mut engine = Engine::new(remote_config);
    for (i, step) in trace.steps.iter().enumerate() {
        engine.step(step);
        let outputs = engine.take_real_outputs();
        assert_eq!(outputs.len(), reference[i].len());
        for (a, b) in outputs.iter().zip(reference[i].iter()) {
            assert_eq!(a.output, b.output, "step {i} diverged from local");
        }
    }
    let health = engine.worker_health().expect("remote backend has health");
    assert!(health.requests > 0, "no batch ever ran remotely");
    assert!(health.failovers > 0, "the crash must register as failover");
    healthy.shutdown();
    crashing.shutdown();
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Remote and local execution are both bit-identical to the
    /// token-major scalar oracle — separate code from the one expert-major
    /// loop the other two run — across worker counts, batch sizes and
    /// random placements. Scalar kernels are pinned on both sides
    /// (LoadShard carries the backend), and the engine accumulates experts
    /// in ascending id order regardless of which worker computed them, so
    /// float non-associativity never enters.
    #[test]
    fn remote_execution_is_bit_identical_to_local(
        seed in 0u64..500,
        tokens in 1usize..8,
        workers in 1usize..4,
        cached_mask in any::<u8>(),
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
        let cost = hybrimoe_hw::UnitCostModel::paper_fig5();
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);
        let plan = HybridScheduler::new().schedule(&ctx);

        let options = RealExecOptions {
            max_threads: 1,
            kernel_backend: KernelBackendKind::Scalar,
            ..Default::default()
        };
        let oracle = RealExecOptions { token_major: true, ..options };
        let expected = RealLayerExecutor::with_options(model.clone(), 7, oracle)
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .expect("token-major execution");
        let local = RealLayerExecutor::with_options(model.clone(), 7, options)
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .expect("local execution");
        prop_assert_eq!(&local.output, &expected.output);

        let handles: Vec<WorkerHandle> = (0..workers)
            .map(|_| spawn_worker(WorkerServerOptions { threads: 1, ..Default::default() }))
            .collect();
        let endpoints = handles.iter().map(|h| h.endpoint().to_string()).collect();
        let mut remote = RealLayerExecutor::new(
            model,
            7,
            options,
            &RemoteWorkerOptions { endpoints, ..Default::default() },
        );
        let got = remote
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .expect("remote execution");
        prop_assert_eq!(&got.output, &expected.output);
        let health = remote.health();
        prop_assert_eq!(health.failovers, 0, "healthy workers must not fail over");
        prop_assert!(health.requests > 0);
        for handle in handles {
            handle.shutdown();
        }
    }
}

/// One tiny-model layer of `tokens` tokens, scheduled by HybriMoE with
/// the even experts cached.
struct Layer {
    model: ModelConfig,
    inputs: Vec<Vec<f32>>,
    routes: Vec<RouterOutput>,
    plan: SchedulePlan,
    /// The token-major scalar oracle's output.
    expected: Vec<f32>,
}

impl Layer {
    fn new(tokens: usize, seed: u64) -> Layer {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = layer_tokens(&model, tokens, seed);
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
        let cost = hybrimoe_hw::UnitCostModel::paper_fig5();
        let plan =
            HybridScheduler::new().schedule(&ScheduleContext::for_test(LayerId(0), &tasks, &cost));
        let oracle = RealExecOptions {
            token_major: true,
            ..scalar_one_thread()
        };
        let expected = RealLayerExecutor::with_options(model.clone(), 7, oracle)
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .expect("token-major execution")
            .output;
        Layer {
            model,
            inputs,
            routes,
            plan,
            expected,
        }
    }

    /// The experts the layer activates.
    fn experts(&self) -> u64 {
        (self.plan.cpu_experts().count() + self.plan.gpu_experts().count()) as u64
    }

    /// The `ExecuteBatch` bytes the layer sends each of `workers` workers.
    fn request_bytes(&self, workers: usize) -> Vec<usize> {
        let hidden = self.model.routed_shape.hidden() as usize;
        let mut bytes = vec![0; workers];
        let expert_ids = self.plan.cpu_experts().chain(self.plan.gpu_experts());
        for expert in expert_ids {
            let tokens = self
                .routes
                .iter()
                .filter(|r| r.selected.iter().any(|(e, _)| *e == expert))
                .count();
            // Header, the four batch fields, then the tensor.
            bytes[expert.0 as usize % workers] += HEADER_LEN + 12 + tokens * hidden * 4;
        }
        bytes
    }

    /// Runs the layer on `workers` loopback workers, each started with
    /// `options`, and asserts its output equals the oracle's bit for bit.
    /// Returns the fleet's health after the layer.
    fn run_remote(&self, workers: usize, options: WorkerServerOptions) -> WorkerHealthSnapshot {
        let handles: Vec<WorkerHandle> = (0..workers)
            .map(|_| spawn_worker(options.clone()))
            .collect();
        let endpoints = handles.iter().map(|h| h.endpoint().to_string()).collect();
        let mut exec = RealLayerExecutor::new(
            self.model.clone(),
            7,
            scalar_one_thread(),
            &RemoteWorkerOptions {
                endpoints,
                deadline_ms: 2_000,
            },
        );
        let got = exec
            .execute_layer(LayerId(0), &self.plan, &self.inputs, &self.routes)
            .expect("remote execution");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.output),
            bits(&self.expected),
            "{workers} workers, {} tokens",
            self.inputs.len()
        );
        let health = exec.health();
        exec.drain();
        for handle in handles {
            handle.shutdown();
        }
        health
    }
}

/// Scalar kernels on one thread: what both sides of the bit-identity
/// cases pin.
fn scalar_one_thread() -> RealExecOptions {
    RealExecOptions {
        max_threads: 1,
        kernel_backend: KernelBackendKind::Scalar,
        ..Default::default()
    }
}

/// Layers whose batches to one worker overflow [`IO_BUFFER`]: the client
/// writes its queue in the middle of the dispatch loop, and the worker
/// writes held replies in the middle of its queue, yet the output is the
/// oracle's bit for bit and nothing fails over.
#[test]
fn layers_past_the_io_buffer_stay_bit_identical_to_local() {
    let mut largest = 0;
    for tokens in [64, 128] {
        let layer = Layer::new(tokens, 41);
        for workers in 1..=3 {
            let health = layer.run_remote(
                workers,
                WorkerServerOptions {
                    threads: 1,
                    ..Default::default()
                },
            );
            assert_eq!(health.failovers, 0, "{workers} workers: {health:?}");
            assert_eq!(health.requests, layer.experts(), "{health:?}");
            let sent = layer.request_bytes(workers);
            largest = largest.max(sent.into_iter().max().unwrap_or(0));
        }
    }
    assert!(
        largest > 2 * IO_BUFFER,
        "no layer sent one worker more than two buffers: {largest} bytes"
    );
}

/// A worker that crashes on its third request, while the replies to the
/// first two are held (the whole layer fits one buffer): it writes them
/// before it drops the connection, so exactly the experts whose replies
/// were never written fail over, and the output is still the oracle's.
#[test]
fn a_crash_inside_a_held_group_fails_over_only_the_unanswered_experts() {
    let layer = Layer::new(8, 41);
    assert!(layer.request_bytes(1)[0] < IO_BUFFER);
    let answered = 2;
    assert!(
        layer.experts() > answered + 1,
        "{} experts",
        layer.experts()
    );
    let health = layer.run_remote(
        1,
        WorkerServerOptions {
            threads: 1,
            fault_plan: FaultPlan {
                rates: FaultRates {
                    fail_after: Some(answered),
                    ..Default::default()
                },
                ..FaultPlan::off()
            },
            ..Default::default()
        },
    );
    assert_eq!(health.requests, layer.experts(), "{health:?}");
    assert_eq!(health.failovers, layer.experts() - answered, "{health:?}");
}

/// Re-encodes every example frame of `docs/protocol.md` through the real
/// codec and asserts the documented hex matches — the byte-level doc can
/// never drift from the implementation.
#[test]
fn protocol_doc_examples_round_trip() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../docs/protocol.md"))
        .expect("docs/protocol.md exists");
    let hex = |wire: &[u8]| -> String { wire.iter().map(|b| format!("{b:02x}")).collect() };
    let assert_documented = |name: &str, wire: &[u8]| {
        assert!(
            doc.contains(&hex(wire)),
            "docs/protocol.md is out of sync: the {name} example frame should be {}",
            hex(wire)
        );
    };

    let mut wire = Vec::new();
    let mut payload = Vec::new();
    LoadShard {
        seed: 42,
        worker: 0,
        num_workers: 2,
        layers: 2,
        routed_experts: 4,
        hidden: 8,
        inter: 16,
        weight_budget_bytes: 1 << 20,
        backend: 1,
    }
    .encode(&mut payload);
    encode_frame(Opcode::LoadShard, 2, &payload, &mut wire);
    assert_documented("LoadShard", &wire);

    wire.clear();
    payload.clear();
    ExecuteBatch {
        layer: 0,
        expert: 3,
        tokens: 1,
        hidden: 2,
        data: vec![1.0, -2.0],
    }
    .encode(&mut payload);
    encode_frame(Opcode::ExecuteBatch, 3, &payload, &mut wire);
    assert_documented("ExecuteBatch", &wire);

    wire.clear();
    payload.clear();
    ExecuteBatchAck {
        tokens: 1,
        hidden: 2,
        data: vec![0.5, 0.25],
    }
    .encode(&mut payload);
    encode_frame(Opcode::ExecuteBatchAck, 3, &payload, &mut wire);
    assert_documented("ExecuteBatchAck", &wire);

    wire.clear();
    encode_frame(Opcode::Drain, 7, &[], &mut wire);
    assert_documented("Drain", &wire);

    wire.clear();
    payload.clear();
    ErrorReply::new(ErrorCode::VersionMismatch, "frame version 2 unsupported").encode(&mut payload);
    encode_frame(Opcode::Error, 0, &payload, &mut wire);
    assert_documented("Error", &wire);

    // The opcode and error-code tables list exactly the codec's variants.
    let row = |key: String| doc.lines().find(|l| l.starts_with(&format!("| {key} ")));
    for byte in 0..=u8::MAX {
        let documented = row(format!("{byte:#04X}"));
        match Opcode::from_u8(byte) {
            Some(op) => assert!(
                documented.is_some_and(|l| l.contains(&format!("| {op:?} "))),
                "the opcode table lacks {byte:#04X} {op:?}"
            ),
            None => assert!(documented.is_none(), "the opcode table lists {byte:#04X}"),
        }
    }
    for raw in 0..=u16::from(u8::MAX) {
        let documented = row(raw.to_string());
        match ErrorCode::from_u16(raw) {
            Some(code) => assert!(
                documented.is_some_and(|l| l.contains(&format!("| {code:?} "))),
                "the error-code table lacks {raw} {code:?}"
            ),
            None => assert!(documented.is_none(), "the error-code table lists {raw}"),
        }
    }
}
