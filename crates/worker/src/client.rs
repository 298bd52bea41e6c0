//! The blocking worker client and the shard-affine client pool.
//!
//! [`WorkerClient`] owns one connection: it performs the Hello handshake
//! on connect, enforces a per-request deadline via socket read timeouts,
//! and supports request pipelining (send several [`ExecuteBatch`] frames,
//! then collect their in-order replies — the worker answers strictly
//! FIFO). [`WorkerClientPool`] owns one slot per configured worker with a
//! reconnect-with-backoff state machine: a failed worker goes `Down` and
//! its experts fall back to local execution until the backoff expires and
//! a reconnect succeeds.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hybrimoe_model::{ids::shard_of, ExpertId};

use crate::protocol::{
    read_frame, write_frame, ErrorReply, ExecuteBatch, ExecuteBatchAck, FrameHeader, HeartbeatAck,
    Hello, HelloAck, LoadShard, LoadShardAck, Opcode, ProtocolError,
};
use crate::transport::WireStream;

/// Where a worker listens: a TCP address or a Unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP `host:port` address.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint string: `unix:/path/to.sock` selects a
    /// Unix-domain socket, anything else is a TCP `host:port`.
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_worker::Endpoint;
    ///
    /// assert_eq!(
    ///     Endpoint::parse("127.0.0.1:7070"),
    ///     Endpoint::Tcp("127.0.0.1:7070".into())
    /// );
    /// assert_eq!(
    ///     Endpoint::parse("unix:/tmp/w0.sock"),
    ///     Endpoint::Unix("/tmp/w0.sock".into())
    /// );
    /// ```
    pub fn parse(s: &str) -> Endpoint {
        match s.strip_prefix("unix:") {
            Some(path) => Endpoint::Unix(PathBuf::from(path)),
            None => Endpoint::Tcp(s.to_owned()),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => f.write_str(addr),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Client-side failure: either the transport/codec broke, or the worker
/// answered with a protocol-level [`ErrorReply`].
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure (timeouts surface as
    /// [`ProtocolError::Io`] with a `WouldBlock`/`TimedOut` kind,
    /// disconnects as [`ProtocolError::Truncated`]).
    Protocol(ProtocolError),
    /// The worker answered with an error reply.
    Remote(ErrorReply),
}

impl ClientError {
    /// Whether the connection is unusable after this error. Remote error
    /// replies keep the stream in sync; everything else (timeouts
    /// included — a late reply would desynchronize the FIFO) requires a
    /// reconnect.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ClientError::Remote(_))
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Remote(e) => write!(f, "worker error {:?}: {}", e.code, e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Protocol(e.into())
    }
}

/// Deadline and backoff knobs of a client (and of every
/// client a [`WorkerClientPool`] opens).
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Per-request deadline, enforced as the socket read timeout while
    /// waiting for each reply. `None` waits forever.
    pub deadline: Option<Duration>,
    /// First reconnect delay after a worker goes down.
    pub backoff_initial: Duration,
    /// Reconnect delay ceiling (each failed attempt doubles the delay).
    pub backoff_max: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            deadline: Some(Duration::from_secs(5)),
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

/// One blocking connection to a worker.
///
/// # Example
///
/// Connect to an in-thread worker, load its shard and execute a batch:
///
/// ```
/// use hybrimoe_worker::protocol::{ExecuteBatch, LoadShard};
/// use hybrimoe_worker::{
///     ClientOptions, Endpoint, WorkerClient, WorkerServer, WorkerServerOptions,
/// };
///
/// let server = WorkerServer::bind(
///     &Endpoint::parse("127.0.0.1:0"),
///     WorkerServerOptions::default(),
/// )
/// .unwrap();
/// let handle = server.spawn();
///
/// let mut client =
///     WorkerClient::connect(handle.endpoint(), ClientOptions::default()).unwrap();
/// let ack = client
///     .load_shard(&LoadShard {
///         seed: 42,
///         worker: 0,
///         num_workers: 1,
///         layers: 4,
///         routed_experts: 8,
///         hidden: 64,
///         inter: 96,
///         weight_budget_bytes: 64 * 1024 * 1024,
///         backend: 1, // scalar
///     })
///     .unwrap();
/// assert_eq!(ack.experts_owned, 8);
///
/// let out = client
///     .execute(&ExecuteBatch {
///         layer: 0,
///         expert: 3,
///         tokens: 2,
///         hidden: 64,
///         data: vec![0.05; 2 * 64],
///     })
///     .unwrap();
/// assert_eq!(out.data.len(), 2 * 64);
/// handle.shutdown();
/// ```
#[derive(Debug)]
pub struct WorkerClient {
    stream: WireStream,
    next_id: u32,
    /// Request ids awaiting their FIFO replies (pipelined executes).
    inflight: VecDeque<u32>,
    /// The payload of the reply read last.
    payload: Vec<u8>,
    /// Every frame this connection sends is encoded here.
    frame: Vec<u8>,
}

impl WorkerClient {
    /// Connects and performs the Hello handshake.
    pub fn connect(
        endpoint: &Endpoint,
        options: ClientOptions,
    ) -> Result<WorkerClient, ClientError> {
        let stream = WireStream::connect(endpoint)?;
        stream.set_read_timeout(options.deadline)?;
        let mut client = WorkerClient {
            stream,
            next_id: 1,
            inflight: VecDeque::new(),
            payload: Vec::new(),
            frame: Vec::new(),
        };
        let id = client.send(Opcode::Hello, |out| Hello::current().encode(out))?;
        let header = client.recv(id, Opcode::HelloAck)?;
        debug_assert_eq!(header.opcode, Opcode::HelloAck);
        let ack = HelloAck::decode(&client.payload)?;
        let _ = ack.version; // v1 only today; future versions downshift here.
        Ok(client)
    }

    /// Loads the worker's weight shard.
    pub fn load_shard(&mut self, spec: &LoadShard) -> Result<LoadShardAck, ClientError> {
        let id = self.send(Opcode::LoadShard, |out| spec.encode(out))?;
        self.recv(id, Opcode::LoadShardAck)?;
        Ok(LoadShardAck::decode(&self.payload)?)
    }

    /// Executes one expert batch, blocking for the reply.
    pub fn execute(&mut self, batch: &ExecuteBatch) -> Result<ExecuteBatchAck, ClientError> {
        self.send_execute(batch)?;
        self.recv_execute()
    }

    /// Sends an [`ExecuteBatch`] without waiting (pipelining). Replies
    /// must be collected with [`WorkerClient::recv_execute`] in send
    /// order.
    pub fn send_execute(&mut self, batch: &ExecuteBatch) -> Result<(), ClientError> {
        self.send_execute_parts(
            batch.layer,
            batch.expert,
            batch.tokens,
            batch.hidden,
            &batch.data,
        )
    }

    /// [`WorkerClient::send_execute`] from borrowed parts (the fields of an
    /// [`ExecuteBatch`]): the tensor is encoded straight from `data` into
    /// the connection's frame buffer.
    pub fn send_execute_parts(
        &mut self,
        layer: u16,
        expert: u16,
        tokens: u32,
        hidden: u32,
        data: &[f32],
    ) -> Result<(), ClientError> {
        let id = self.send(Opcode::ExecuteBatch, |out| {
            ExecuteBatch::encode_parts(layer, expert, tokens, hidden, data, out)
        })?;
        self.inflight.push_back(id);
        Ok(())
    }

    /// Receives the oldest in-flight execute reply.
    pub fn recv_execute(&mut self) -> Result<ExecuteBatchAck, ClientError> {
        let id = self
            .inflight
            .pop_front()
            .expect("recv_execute with no in-flight request");
        self.recv(id, Opcode::ExecuteBatchAck)?;
        Ok(ExecuteBatchAck::decode(&self.payload)?)
    }

    /// In-flight pipelined requests awaiting replies.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Probes worker liveness.
    pub fn heartbeat(&mut self) -> Result<HeartbeatAck, ClientError> {
        let id = self.send(Opcode::Heartbeat, |_| {})?;
        self.recv(id, Opcode::HeartbeatAck)?;
        Ok(HeartbeatAck::decode(&self.payload)?)
    }

    /// Asks the worker to finish and close the connection.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        let id = self.send(Opcode::Drain, |_| {})?;
        self.recv(id, Opcode::DrainAck)?;
        Ok(())
    }

    fn send(
        &mut self,
        opcode: Opcode,
        payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u32, ClientError> {
        debug_assert!(
            opcode == Opcode::ExecuteBatch || self.inflight.is_empty(),
            "only ExecuteBatch may be pipelined"
        );
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        write_frame(&mut self.stream, opcode, id, &mut self.frame, payload)?;
        Ok(id)
    }

    /// Reads the next reply frame, checking FIFO id correlation, and
    /// leaves its payload in `self.payload`. An [`Opcode::Error`] reply
    /// becomes [`ClientError::Remote`].
    fn recv(&mut self, id: u32, expect: Opcode) -> Result<FrameHeader, ClientError> {
        let header = read_frame(&mut self.stream, &mut self.payload)?;
        if header.request_id != id {
            return Err(ClientError::Protocol(ProtocolError::BadPayload(format!(
                "reply id {} does not match oldest in-flight id {id}",
                header.request_id
            ))));
        }
        if header.opcode == Opcode::Error {
            let reply = ErrorReply::decode(&self.payload)?;
            return Err(ClientError::Remote(reply));
        }
        if header.opcode != expect {
            return Err(ClientError::Protocol(ProtocolError::BadPayload(format!(
                "expected {expect:?}, got {:?}",
                header.opcode
            ))));
        }
        Ok(header)
    }
}

/// Worker fleet health, as published in the serving layer's `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerHealthSnapshot {
    /// Workers configured in the pool.
    pub configured: u64,
    /// Workers currently connected.
    pub up: u64,
    /// Expert batches dispatched remotely.
    pub requests: u64,
    /// Expert batches that fell back to local execution after a worker
    /// failure or while a worker was down.
    pub failovers: u64,
    /// Successful reconnects after a worker was marked down.
    pub reconnects: u64,
    /// Workers whose circuit breaker is currently open (remote dispatch
    /// suspended; traffic routes local until a half-open probe succeeds).
    /// Filled by the engine-side executor — the pool itself tracks
    /// connections, not breakers.
    pub breaker_open: u64,
    /// Cumulative closed→open breaker transitions across the fleet.
    pub breaker_trips: u64,
}

/// The per-worker connection state machine.
#[derive(Debug)]
enum SlotState {
    /// Never connected (or cleanly drained); connect on first use.
    Idle,
    /// Connected and healthy.
    Up(Box<WorkerClient>),
    /// Recently failed; no reconnect attempt before `until`.
    Down {
        /// Earliest next reconnect attempt.
        until: Instant,
        /// Delay to apply after the *next* failed attempt.
        backoff: Duration,
    },
}

#[derive(Debug)]
struct Slot {
    endpoint: Endpoint,
    state: SlotState,
    shard: LoadShard,
    ever_connected: bool,
}

/// A pool of worker connections with static shard affinity
/// (`expert % num_workers`, the same map the multi-GPU cache shards use)
/// and reconnect-with-backoff failover.
#[derive(Debug)]
pub struct WorkerClientPool {
    slots: Vec<Slot>,
    options: ClientOptions,
    requests: u64,
    failovers: u64,
    reconnects: u64,
}

impl WorkerClientPool {
    /// Creates a pool over `endpoints`, one worker per endpoint. `base`
    /// is the shard spec template; each slot gets its own
    /// `(worker, num_workers)` pair. Connections open lazily on first
    /// use, so a pool can be built while its workers are still starting.
    pub fn new(endpoints: &[String], base: LoadShard, options: ClientOptions) -> WorkerClientPool {
        let n = endpoints.len() as u16;
        let slots = endpoints
            .iter()
            .enumerate()
            .map(|(i, e)| Slot {
                endpoint: Endpoint::parse(e),
                state: SlotState::Idle,
                shard: LoadShard {
                    worker: i as u16,
                    num_workers: n,
                    ..base
                },
                ever_connected: false,
            })
            .collect();
        WorkerClientPool {
            slots,
            options,
            requests: 0,
            failovers: 0,
            reconnects: 0,
        }
    }

    /// Workers configured in this pool.
    pub fn num_workers(&self) -> usize {
        self.slots.len()
    }

    /// The worker owning `expert` under the static shard map.
    pub fn worker_for_expert(&self, expert: ExpertId) -> usize {
        shard_of(expert, self.slots.len())
    }

    /// The connected client of worker `worker`, connecting (with the
    /// Hello handshake and shard load) if the slot is idle or its backoff
    /// has expired. Returns `None` while the worker is down — the caller
    /// executes the expert locally instead.
    pub fn client(&mut self, worker: usize) -> Option<&mut WorkerClient> {
        let options = self.options.clone();
        let attempt_backoff = match &self.slots[worker].state {
            SlotState::Up(_) => None,
            SlotState::Down { until, backoff } => {
                if Instant::now() < *until {
                    return None;
                }
                Some(*backoff)
            }
            SlotState::Idle => Some(options.backoff_initial),
        };
        if let Some(backoff) = attempt_backoff {
            let endpoint = self.slots[worker].endpoint.clone();
            let shard = self.slots[worker].shard;
            match WorkerClient::connect(&endpoint, options.clone())
                .and_then(|mut c| c.load_shard(&shard).map(|_| c))
            {
                Ok(client) => {
                    if self.slots[worker].ever_connected {
                        self.reconnects += 1;
                    }
                    let slot = &mut self.slots[worker];
                    slot.ever_connected = true;
                    slot.state = SlotState::Up(Box::new(client));
                }
                Err(_) => {
                    self.slots[worker].state = SlotState::Down {
                        until: Instant::now() + backoff,
                        backoff: (backoff * 2).min(options.backoff_max),
                    };
                    return None;
                }
            }
        }
        match &mut self.slots[worker].state {
            SlotState::Up(client) => Some(client),
            _ => None,
        }
    }

    /// Marks worker `worker` failed: its connection is dropped and its
    /// experts run locally until the backoff expires and a reconnect
    /// succeeds.
    pub fn fail(&mut self, worker: usize) {
        let initial = self.options.backoff_initial;
        let max = self.options.backoff_max;
        let slot = &mut self.slots[worker];
        let backoff = match &slot.state {
            SlotState::Down { backoff, .. } => *backoff,
            _ => initial,
        };
        slot.state = SlotState::Down {
            until: Instant::now() + backoff,
            backoff: (backoff * 2).min(max),
        };
    }

    /// Counts one remotely-dispatched expert batch.
    pub fn note_request(&mut self) {
        self.requests += 1;
    }

    /// Counts one expert batch that fell back to local execution.
    pub fn note_failover(&mut self) {
        self.failovers += 1;
    }

    /// Current fleet health.
    pub fn health(&self) -> WorkerHealthSnapshot {
        WorkerHealthSnapshot {
            configured: self.slots.len() as u64,
            up: self
                .slots
                .iter()
                .filter(|s| matches!(s.state, SlotState::Up(_)))
                .count() as u64,
            requests: self.requests,
            failovers: self.failovers,
            reconnects: self.reconnects,
            breaker_open: 0,
            breaker_trips: 0,
        }
    }

    /// Drains every connected worker (best-effort; used at shutdown).
    pub fn drain(&mut self) {
        for slot in &mut self.slots {
            if let SlotState::Up(client) = &mut slot.state {
                let _ = client.drain();
            }
            slot.state = SlotState::Idle;
        }
    }
}
