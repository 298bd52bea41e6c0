//! The worker server: owns a weight shard and executes expert batches.
//!
//! A [`WorkerServer`] listens on a TCP address, accepts engine
//! connections, and serves the framed protocol of [`crate::protocol`]:
//! [`LoadShard`] to set up its deterministic weight shard (an empty store
//! per connection, filled expert by expert on first use), then a stream of
//! pipelined [`ExecuteBatch`] requests answered strictly in order. While
//! more requests are already buffered, execute replies are held and then
//! written together, up to [`IO_BUFFER`] bytes a write. The same server
//! runs in-process (behind [`WorkerServer::spawn`]) for deterministic
//! tests and benches, and as a standalone process via the
//! `hybrimoe_worker` bin.

use std::io::{self, BufReader, Write};
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
    encode_frame_with, read_frame, starts_with_whole_frame, ErrorCode, ErrorReply, ExecuteBatch,
    ExecuteBatchAck, LoadShard, LoadShardAck, Opcode, ProtocolError, HEADER_LEN,
};
use crate::{wire_backend, IO_BUFFER};

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

    /// Applies this reply's fault to the reply last held in `out`, which
    /// starts at byte `start`. With no fault the reply stays held. A fault
    /// first writes the replies held before it, then writes the reply as
    /// the fault has it: after a delay, with one header byte flipped (so
    /// the peer's codec detects the damage instead of consuming wrong
    /// data), cut short, or not at all. Returns `false` when the fault
    /// drops the connection, after a cut-short write or without any write.
    fn apply(&mut self, out: &mut Outbox<'_>, start: usize) -> io::Result<bool> {
        let Some((rates, faults)) = &mut self.0 else {
            return Ok(true);
        };
        let drop = faults.roll_ppm(rates.conn_drop_ppm);
        let truncate = faults.roll_ppm(rates.truncate_ppm);
        let corrupt = faults.roll_ppm(rates.corrupt_ppm);
        let delay = faults.roll_ppm(rates.reply_delay_ppm);
        let noise = faults.next_u64() as usize;
        if !(drop || truncate || corrupt || delay) {
            return Ok(true);
        }
        out.write_front(start)?;
        if drop {
            return Ok(false);
        }
        if truncate {
            let len = out.held.len();
            out.held.truncate(noise % len);
            out.flush()?;
            return Ok(false);
        }
        if corrupt {
            out.held[noise % HEADER_LEN] ^= 0xFF;
        } else {
            thread::sleep(Duration::from_millis(rates.reply_delay_ms));
        }
        out.flush()?;
        Ok(true)
    }
}

/// A connection's outgoing frames, encoded back to back and written
/// together. Execute replies are held here until [`serve_connection`]
/// writes them; every other frame is written at once, behind them.
struct Outbox<'a> {
    stream: &'a TcpStream,
    held: Vec<u8>,
}

impl Outbox<'_> {
    /// Encodes a frame behind the held ones and returns where it starts.
    fn hold(&mut self, opcode: Opcode, id: u32, payload: impl FnOnce(&mut Vec<u8>)) -> usize {
        let start = self.held.len();
        encode_frame_with(opcode, id, &mut self.held, payload);
        start
    }

    /// Writes the first `len` held bytes and drops them.
    fn write_front(&mut self, len: usize) -> io::Result<()> {
        if len > 0 {
            let written = self.stream.write_all(&self.held[..len]);
            self.held.drain(..len);
            written?;
        }
        Ok(())
    }

    /// Writes every held frame.
    fn flush(&mut self) -> io::Result<()> {
        self.write_front(self.held.len())
    }

    /// Writes the held frames and then this one, in one write.
    fn send(
        &mut self,
        opcode: Opcode,
        id: u32,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<()> {
        self.hold(opcode, id, payload);
        self.flush()
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
    /// The request being executed, decoded into a reused buffer.
    request: ExecuteBatch,
    output: Vec<f32>,
}

/// Serves one engine connection: a request loop that answers every frame
/// in arrival order (the wire-level FIFO the client's pipelining relies
/// on). A frame of another protocol version, first or later, is answered
/// [`ErrorCode::VersionMismatch`] and the connection closed.
///
/// Requests are read through an [`IO_BUFFER`]-byte buffer. Each execute
/// reply is held, and the held replies are written together once the
/// buffer holds no further whole frame or [`IO_BUFFER`] bytes are held, so
/// the loop never blocks on a read while it holds a reply. Every other
/// write — an ack, an error, an injected fault — and every return writes
/// the held replies first, so the peer sees the same frames in the same
/// order as if each reply had been written on its own.
fn serve_connection(
    stream: TcpStream,
    options: WorkerServerOptions,
    shutdown: Arc<AtomicBool>,
    executed: Arc<AtomicU64>,
    connection: u64,
) -> Result<(), ProtocolError> {
    let mut reader = BufReader::with_capacity(IO_BUFFER, &stream);
    let mut out = Outbox {
        stream: &stream,
        held: Vec::new(),
    };
    let mut payload = Vec::new();
    // The chaos seam: only execute replies suffer the plan's faults.
    // Shard loading stays clean so a chaos run still exercises the execute
    // path, not just setup.
    let mut faults = ReplyFaults::new(&options.fault_plan, connection);
    let mut loaded: Option<Loaded> = None;

    loop {
        if out.held.len() >= IO_BUFFER || !starts_with_whole_frame(reader.buffer()) {
            out.flush()?;
        }
        let header = match read_frame(&mut reader, &mut payload) {
            Ok(h) => h,
            Err(e) => {
                // A buffered frame that fails to decode: the requests read
                // before it still get their replies.
                out.flush()?;
                return match e {
                    // Peer hung up between requests: normal teardown.
                    ProtocolError::Truncated => Ok(()),
                    // The rest of another version's header cannot be
                    // trusted, its request id included.
                    ProtocolError::UnsupportedVersion(v) => reply_error(
                        &mut out,
                        0,
                        ErrorCode::VersionMismatch,
                        format!("frame version {v} unsupported"),
                    ),
                    e => Err(e),
                };
            }
        };
        // A stopped worker answers nothing more: its peers see the same
        // mid-request disconnect a killed worker process gives them.
        if shutdown.load(Ordering::Relaxed) {
            out.flush()?;
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
                    out.send(Opcode::LoadShardAck, id, |p| ack.encode(p))?;
                }
                Err(e) => {
                    reply_error(&mut out, id, ErrorCode::BadPayload, e.to_string())?;
                }
            },
            Opcode::ExecuteBatch => {
                if let Some(limit) = options.fault_plan.rates.fail_after {
                    // fetch_add returns the prior count, so requests
                    // 1..=limit succeed and request limit+1 trips the fault.
                    if executed.fetch_add(1, Ordering::Relaxed) >= limit {
                        shutdown.store(true, Ordering::Relaxed);
                        // Drop the stream without a reply: the client sees
                        // a mid-request disconnect, after the replies of
                        // the requests before this one.
                        out.flush()?;
                        return Ok(());
                    }
                } else {
                    executed.fetch_add(1, Ordering::Relaxed);
                }
                let Some(state) = loaded.as_mut() else {
                    reply_error(&mut out, id, ErrorCode::NotLoaded, "no shard loaded")?;
                    continue;
                };
                if let Err(e) = state.request.decode_from(&payload) {
                    reply_error(&mut out, id, ErrorCode::BadPayload, e.to_string())?;
                    continue;
                }
                match execute_batch(state) {
                    Ok(()) => {
                        // Straight from the output buffer behind the held
                        // replies.
                        let batch = &state.request;
                        let start = out.hold(Opcode::ExecuteBatchAck, id, |p| {
                            ExecuteBatchAck::encode_parts(
                                batch.tokens,
                                batch.hidden,
                                &state.output,
                                p,
                            )
                        });
                        if !faults.apply(&mut out, start)? {
                            // A fault dropped (or cut short) the reply:
                            // the client sees a mid-request disconnect.
                            return Ok(());
                        }
                    }
                    Err((code, msg)) => {
                        reply_error(&mut out, id, code, msg)?;
                    }
                }
            }
            Opcode::Drain => {
                // Pipelined requests are answered strictly FIFO, so every
                // request sent before the Drain has already been replied
                // to by the time this frame is read — draining never
                // abandons in-flight work.
                out.send(Opcode::DrainAck, id, |_| {})?;
                if options.drain_stops_server {
                    shutdown.store(true, Ordering::Relaxed);
                }
                return Ok(());
            }
            // A reply opcode arriving as a request is a protocol violation;
            // answer and keep the connection (the client can resync).
            Opcode::LoadShardAck | Opcode::ExecuteBatchAck | Opcode::DrainAck | Opcode::Error => {
                reply_error(
                    &mut out,
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
        request: ExecuteBatch::default(),
        output: Vec::new(),
        spec: *spec,
    }
}

/// Runs the batch in `state.request`, leaving the outputs in
/// `state.output`.
fn execute_batch(state: &mut Loaded) -> Result<(), (ErrorCode, String)> {
    let Loaded {
        spec,
        store,
        pool,
        scratch,
        backend,
        request: batch,
        output,
    } = state;
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
    output.clear();
    output.resize(tokens * batch.hidden as usize, 0.0);
    if tokens == 0 {
        return Ok(());
    }
    let ffn = match store.expert(key) {
        Ok(ffn) => ffn,
        Err(WeightStoreError::BudgetExceeded { needed, budget }) => {
            return Err((
                ErrorCode::WeightBudget,
                format!("need {needed} bytes, budget {budget}"),
            ));
        }
        Err(e) => return Err((ErrorCode::BadPayload, e.to_string())),
    };
    ffn.forward_batch_into(&batch.data, tokens, output, scratch, pool, *backend);
    Ok(())
}

/// Sends an [`Opcode::Error`] reply, behind the held replies.
fn reply_error(
    out: &mut Outbox<'_>,
    request_id: u32,
    code: ErrorCode,
    message: impl Into<String>,
) -> Result<(), ProtocolError> {
    let reply = ErrorReply::new(code, message);
    Ok(out.send(Opcode::Error, request_id, |p| reply.encode(p))?)
}
