//! The worker server: owns a weight shard and executes expert batches.
//!
//! A [`WorkerServer`] listens on a TCP address, accepts engine
//! connections, and serves the framed protocol of [`crate::protocol`]:
//! [`LoadShard`] to set up its deterministic weight shard (an empty store
//! per connection, filled expert by expert on first use), then a stream of
//! pipelined [`ExecuteBatch`] requests answered strictly in order. The same
//! server runs in-process (behind [`WorkerServer::spawn`]) for deterministic
//! tests and benches, and as a standalone process via the `hybrimoe_worker`
//! bin.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use hybrimoe_kernels::{backend::KernelBackend, ExecScratch, WorkerPool};
use hybrimoe_model::{
    ids::shard_of, ExpertId, ExpertKey, ExpertShape, LayerId, ModelConfig, WeightStore,
    WeightStoreError,
};

use hybrimoe_fault::{FaultPlan, FaultRates, FaultStream};

use crate::client::Endpoint;
use crate::protocol::{
    encode_frame_with, read_frame, write_frame, ErrorCode, ErrorReply, ExecuteBatch,
    ExecuteBatchAck, LoadShard, LoadShardAck, Opcode, ProtocolError, HEADER_LEN,
};
use crate::wire_backend;

/// Tuning and fault-injection knobs of a [`WorkerServer`].
#[derive(Debug, Clone)]
pub struct WorkerServerOptions {
    /// Kernel threads of the worker's compute pool.
    pub threads: usize,
    /// Whether a [`Opcode::Drain`] also stops the accept loop (the
    /// standalone bin's exit path). Defaults to `true`.
    pub drain_stops_server: bool,
    /// Seeded fault plan for chaos runs: per-reply connection drops,
    /// delays, and corrupt/truncated frames on [`Opcode::ExecuteBatchAck`]
    /// replies, each connection drawing its own deterministic decision
    /// stream; its `fail_after` rate is a deterministic mid-request
    /// crash: after that many [`ExecuteBatch`] requests have been
    /// *received* (across all connections), the worker drops the
    /// triggering connection without replying and stops accepting.
    /// Defaults to [`FaultPlan::off`].
    pub fault_plan: FaultPlan,
}

impl Default for WorkerServerOptions {
    fn default() -> Self {
        WorkerServerOptions {
            threads: 2,
            drain_stops_server: true,
            fault_plan: FaultPlan::off(),
        }
    }
}

/// One connection's execute-reply faults, drawn from a [`FaultPlan`]
/// (`None` when the plan is off).
///
/// Every reply rolls each fault class once, always in the same order —
/// drop, truncate, corrupt, delay, then one noise draw — so the decision
/// sequence of connection `i` under seed `s` is identical on every run.
struct ReplyFaults(Option<(FaultRates, FaultStream)>);

impl ReplyFaults {
    fn new(plan: &FaultPlan, connection: u64) -> ReplyFaults {
        ReplyFaults((!plan.is_off()).then(|| {
            (
                plan.rates,
                plan.stream(&format!("worker.conn.{connection}")),
            )
        }))
    }

    /// Writes the encoded reply `frame` as this reply's fault has it:
    /// whole, after a delay, with one header byte flipped (so the peer's
    /// codec detects the damage instead of consuming wrong data), cut
    /// short, or not at all. Returns `false` when the fault drops the
    /// connection, after a cut-short write or without any write.
    fn write(&mut self, stream: &mut TcpStream, frame: &mut [u8]) -> io::Result<bool> {
        if let Some((rates, faults)) = &mut self.0 {
            let drop = faults.roll_ppm(rates.conn_drop_ppm);
            let truncate = faults.roll_ppm(rates.truncate_ppm);
            let corrupt = faults.roll_ppm(rates.corrupt_ppm);
            let delay = faults.roll_ppm(rates.reply_delay_ppm);
            let noise = faults.next_u64() as usize;
            if drop {
                return Ok(false);
            }
            if truncate {
                stream.write_all(&frame[..noise % frame.len()])?;
                let _ = stream.flush();
                return Ok(false);
            }
            if corrupt {
                frame[noise % HEADER_LEN] ^= 0xFF;
            } else if delay {
                thread::sleep(Duration::from_millis(rates.reply_delay_ms));
            }
        }
        stream.write_all(frame)?;
        stream.flush()?;
        Ok(true)
    }
}

/// An expert worker serving the framed protocol on one endpoint.
#[derive(Debug)]
pub struct WorkerServer {
    listener: TcpListener,
    endpoint: Endpoint,
    options: WorkerServerOptions,
    shutdown: Arc<AtomicBool>,
    executed: Arc<AtomicU64>,
}

impl WorkerServer {
    /// Binds to `endpoint` without accepting yet. The endpoint may use
    /// port `0`; [`WorkerServer::endpoint`] reports the resolved port.
    pub fn bind(endpoint: &Endpoint, options: WorkerServerOptions) -> io::Result<WorkerServer> {
        let listener = TcpListener::bind(endpoint.as_str())?;
        let endpoint = Endpoint::parse(&listener.local_addr()?.to_string());
        Ok(WorkerServer {
            listener,
            endpoint,
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
            executed: Arc::new(AtomicU64::new(0)),
        })
    }

    /// The bound endpoint, with any port 0 resolved.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Runs the accept loop on a background thread, returning a handle
    /// that can stop it. This is the worker-in-a-thread mode tests and
    /// benches use to exercise the real codec without process management.
    pub fn spawn(self) -> WorkerHandle {
        let endpoint = self.endpoint.clone();
        let shutdown = Arc::clone(&self.shutdown);
        let join = thread::spawn(move || {
            let _ = self.run();
        });
        WorkerHandle {
            endpoint,
            shutdown,
            join: Some(join),
        }
    }

    /// Runs the accept loop on the calling thread until shut down (or, if
    /// `drain_stops_server`, until a client drains the worker).
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut connections: u64 = 0;
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(false)?;
                    let options = self.options.clone();
                    let shutdown = Arc::clone(&self.shutdown);
                    let executed = Arc::clone(&self.executed);
                    let connection = connections;
                    connections += 1;
                    thread::spawn(move || {
                        let _ = serve_connection(stream, options, shutdown, executed, connection);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Controls a [`WorkerServer`] running on a background thread.
#[derive(Debug)]
pub struct WorkerHandle {
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// The endpoint the worker is serving on.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Stops the accept loop and joins the server thread. Connection
    /// threads finish their current request and close the connection
    /// without answering the next one, as a killed worker process would.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Everything a connection holds after a successful [`LoadShard`].
struct Loaded {
    spec: LoadShard,
    store: WeightStore,
    pool: WorkerPool,
    scratch: ExecScratch,
    backend: &'static dyn KernelBackend,
    output: Vec<f32>,
}

/// Serves one engine connection: a request loop that answers every frame
/// in arrival order (the wire-level FIFO the client's pipelining relies
/// on). A frame of another protocol version, first or later, is answered
/// [`ErrorCode::VersionMismatch`] and the connection closed.
fn serve_connection(
    mut stream: TcpStream,
    options: WorkerServerOptions,
    shutdown: Arc<AtomicBool>,
    executed: Arc<AtomicU64>,
    connection: u64,
) -> Result<(), ProtocolError> {
    let mut payload = Vec::new();
    // The chaos seam: only execute replies suffer the plan's faults.
    // Shard loading stays clean so a chaos run still exercises the execute
    // path, not just setup.
    let mut faults = ReplyFaults::new(&options.fault_plan, connection);
    // Every frame this connection sends is encoded here.
    let mut frame = Vec::new();
    let mut loaded: Option<Loaded> = None;

    loop {
        let header = match read_frame(&mut stream, &mut payload) {
            Ok(h) => h,
            // Peer hung up between requests: normal teardown.
            Err(ProtocolError::Truncated) => return Ok(()),
            // The rest of another version's header cannot be trusted, its
            // request id included.
            Err(ProtocolError::UnsupportedVersion(v)) => {
                return reply_error(
                    &mut stream,
                    0,
                    ErrorCode::VersionMismatch,
                    format!("frame version {v} unsupported"),
                );
            }
            Err(e) => return Err(e),
        };
        // A stopped worker answers nothing more: its peers see the same
        // mid-request disconnect a killed worker process gives them.
        if shutdown.load(Ordering::Relaxed) {
            return Ok(());
        }
        let id = header.request_id;
        match header.opcode {
            Opcode::LoadShard => match LoadShard::decode(&payload) {
                Ok(spec) => {
                    loaded = Some(load_shard(&spec, &options));
                    let owned = (0..spec.routed_experts)
                        .filter(|&e| {
                            shard_of(ExpertId(e), spec.num_workers as usize) == spec.worker as usize
                        })
                        .count() as u32;
                    let ack = LoadShardAck {
                        experts_owned: owned,
                    };
                    write_frame(&mut stream, Opcode::LoadShardAck, id, &mut frame, |out| {
                        ack.encode(out)
                    })?;
                }
                Err(e) => {
                    reply_error(&mut stream, id, ErrorCode::BadPayload, e.to_string())?;
                }
            },
            Opcode::ExecuteBatch => {
                if let Some(limit) = options.fault_plan.rates.fail_after {
                    // fetch_add returns the prior count, so requests
                    // 1..=limit succeed and request limit+1 trips the fault.
                    if executed.fetch_add(1, Ordering::Relaxed) >= limit {
                        shutdown.store(true, Ordering::Relaxed);
                        // Drop the stream without a reply: the client sees
                        // a mid-request disconnect.
                        return Ok(());
                    }
                } else {
                    executed.fetch_add(1, Ordering::Relaxed);
                }
                let Some(state) = loaded.as_mut() else {
                    reply_error(&mut stream, id, ErrorCode::NotLoaded, "no shard loaded")?;
                    continue;
                };
                match ExecuteBatch::decode(&payload) {
                    Ok(batch) => match execute_batch(state, &batch) {
                        Ok(()) => {
                            // Straight from the output buffer into the
                            // connection's frame buffer.
                            frame.clear();
                            encode_frame_with(Opcode::ExecuteBatchAck, id, &mut frame, |out| {
                                ExecuteBatchAck::encode_parts(
                                    batch.tokens,
                                    batch.hidden,
                                    &state.output,
                                    out,
                                )
                            });
                            if !faults.write(&mut stream, &mut frame)? {
                                // A fault dropped (or cut short) the reply:
                                // the client sees a mid-request disconnect.
                                return Ok(());
                            }
                        }
                        Err((code, msg)) => {
                            reply_error(&mut stream, id, code, msg)?;
                        }
                    },
                    Err(e) => {
                        reply_error(&mut stream, id, ErrorCode::BadPayload, e.to_string())?;
                    }
                }
            }
            Opcode::Drain => {
                // Pipelined requests are answered strictly FIFO, so every
                // request sent before the Drain has already been replied
                // to by the time this frame is read — draining never
                // abandons in-flight work.
                write_frame(&mut stream, Opcode::DrainAck, id, &mut frame, |_| {})?;
                if options.drain_stops_server {
                    shutdown.store(true, Ordering::Relaxed);
                }
                return Ok(());
            }
            // A reply opcode arriving as a request is a protocol violation;
            // answer and keep the connection (the client can resync).
            Opcode::LoadShardAck | Opcode::ExecuteBatchAck | Opcode::DrainAck | Opcode::Error => {
                reply_error(
                    &mut stream,
                    id,
                    ErrorCode::BadPayload,
                    format!("{:?} is not a request", header.opcode),
                )?;
            }
        }
    }
}

/// Builds connection state from a [`LoadShard`] spec. The store starts
/// empty and generates an expert's weights on its first batch, with
/// exactly the engine's deterministic construction (same seed, same
/// shapes), so worker outputs match local ones.
fn load_shard(spec: &LoadShard, options: &WorkerServerOptions) -> Loaded {
    let config = ModelConfig {
        name: format!("worker{}-shard", spec.worker),
        layers: spec.layers,
        shared_experts: 0,
        routed_experts: spec.routed_experts,
        activated_experts: 1,
        shared_shape: None,
        routed_shape: ExpertShape::new(spec.hidden, spec.inter),
    };
    Loaded {
        store: WeightStore::new(config, spec.seed, spec.weight_budget_bytes),
        pool: WorkerPool::new(options.threads.max(1)),
        scratch: ExecScratch::new(),
        backend: wire_backend::from_wire(spec.backend)
            .unwrap_or_default()
            .resolve(),
        output: Vec::new(),
        spec: *spec,
    }
}

/// Runs one expert batch, leaving the outputs in `state.output`.
fn execute_batch(state: &mut Loaded, batch: &ExecuteBatch) -> Result<(), (ErrorCode, String)> {
    let spec = &state.spec;
    if shard_of(ExpertId(batch.expert), spec.num_workers as usize) != spec.worker as usize {
        return Err((
            ErrorCode::NotMyShard,
            format!(
                "expert {} maps to worker {}, this is worker {}",
                batch.expert,
                shard_of(ExpertId(batch.expert), spec.num_workers as usize),
                spec.worker
            ),
        ));
    }
    if batch.hidden != spec.hidden {
        return Err((
            ErrorCode::BadPayload,
            format!("hidden {} != shard hidden {}", batch.hidden, spec.hidden),
        ));
    }
    let key = ExpertKey::new(LayerId(batch.layer), ExpertId(batch.expert));
    let tokens = batch.tokens as usize;
    state.output.clear();
    state.output.resize(tokens * batch.hidden as usize, 0.0);
    if tokens == 0 {
        return Ok(());
    }
    let ffn = match state.store.expert(key) {
        Ok(ffn) => ffn,
        Err(WeightStoreError::BudgetExceeded { needed, budget }) => {
            return Err((
                ErrorCode::WeightBudget,
                format!("need {needed} bytes, budget {budget}"),
            ));
        }
        Err(e) => return Err((ErrorCode::BadPayload, e.to_string())),
    };
    ffn.forward_batch_into(
        &batch.data,
        tokens,
        &mut state.output,
        &mut state.scratch,
        &state.pool,
        state.backend,
    );
    Ok(())
}

/// Sends an [`Opcode::Error`] reply.
fn reply_error(
    stream: &mut TcpStream,
    request_id: u32,
    code: ErrorCode,
    message: impl Into<String>,
) -> Result<(), ProtocolError> {
    let reply = ErrorReply::new(code, message);
    write_frame(stream, Opcode::Error, request_id, &mut Vec::new(), |out| {
        reply.encode(out)
    })
}
