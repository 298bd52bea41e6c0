//! The blocking worker client.
//!
//! [`WorkerClient`] owns one TCP connection. It sends no greeting: every
//! frame header carries [`VERSION`](crate::protocol::VERSION), and each side
//! rejects a frame of another version, so the first request
//! ([`LoadShard`]) is the version check. The client bounds every socket
//! wait — connect, write and read — by its deadline, and supports request
//! pipelining (send several [`ExecuteBatch`] frames, then collect their
//! in-order replies — the worker answers strictly FIFO). Sent frames are
//! encoded back to back into one buffer and written together: by
//! [`WorkerClient::flush`], once [`IO_BUFFER`] bytes are queued, or before
//! any receive. Replies are read through a buffer of the same size. Which
//! worker to connect to, and when to retry one that failed, is the
//! engine's worker fleet's business (`hybrimoe::remote`).

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    encode_frame_with, read_frame, ErrorReply, ExecuteBatch, ExecuteBatchAck, LoadShard,
    LoadShardAck, Opcode, ProtocolError,
};
use crate::IO_BUFFER;

/// Where a worker listens: a TCP `host:port` address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint(String);

impl Endpoint {
    /// Parses an endpoint string, a TCP `host:port` address. Nothing is
    /// resolved until a connect or bind.
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_worker::Endpoint;
    ///
    /// let endpoint = Endpoint::parse("127.0.0.1:7070");
    /// assert_eq!(endpoint.to_string(), "127.0.0.1:7070");
    /// ```
    pub fn parse(s: &str) -> Endpoint {
        Endpoint(s.to_owned())
    }

    /// The `host:port` address.
    pub(crate) fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
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

/// Connection knobs of a [`WorkerClient`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Bounds every wait on the worker: each connect attempt (one per
    /// resolved address), each socket write and each reply read. A worker
    /// that stops accepting, reading or answering fails the call with a
    /// timeout instead of blocking the caller. `None` waits forever.
    pub deadline: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            deadline: Some(Duration::from_secs(5)),
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
    /// The connection: replies are read through the buffer, requests are
    /// written to the stream underneath.
    reader: BufReader<TcpStream>,
    next_id: u32,
    /// Request ids awaiting their FIFO replies (pipelined executes).
    inflight: VecDeque<u32>,
    /// The payload of the reply read last.
    payload: Vec<u8>,
    /// Frames sent but not yet written, back to back.
    outgoing: Vec<u8>,
}

impl WorkerClient {
    /// Connects to `endpoint`, trying each address it resolves to for at
    /// most the deadline. No frame is sent: [`WorkerClient::load_shard`]
    /// is the first request.
    pub fn connect(
        endpoint: &Endpoint,
        options: ClientOptions,
    ) -> Result<WorkerClient, ClientError> {
        let stream = match options.deadline {
            Some(deadline) => connect_within(endpoint, deadline)?,
            None => TcpStream::connect(endpoint.as_str())?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(options.deadline)?;
        stream.set_write_timeout(options.deadline)?;
        Ok(WorkerClient {
            reader: BufReader::with_capacity(IO_BUFFER, stream),
            next_id: 1,
            inflight: VecDeque::new(),
            payload: Vec::new(),
            outgoing: Vec::new(),
        })
    }

    /// Loads the worker's weight shard.
    pub fn load_shard(&mut self, spec: &LoadShard) -> Result<LoadShardAck, ClientError> {
        let id = self.send(Opcode::LoadShard, |out| spec.encode(out))?;
        self.recv(id, Opcode::LoadShardAck)?;
        Ok(LoadShardAck::decode(&self.payload)?)
    }

    /// Executes one expert batch, blocking for the reply.
    pub fn execute(&mut self, batch: &ExecuteBatch) -> Result<ExecuteBatchAck, ClientError> {
        self.send_execute_parts(
            batch.layer,
            batch.expert,
            batch.tokens,
            batch.hidden,
            &batch.data,
        )?;
        self.recv_execute()
    }

    /// Sends an [`ExecuteBatch`], given as its fields, without waiting
    /// (pipelining): the tensor is encoded straight from `data` behind the
    /// frames already queued, and the queue is written once it holds
    /// [`IO_BUFFER`] bytes (an error here is that write's). Replies must be
    /// collected with [`WorkerClient::recv_execute`] in send order.
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
        let mut ack = ExecuteBatchAck::default();
        self.recv_execute_into(&mut ack)?;
        Ok(ack)
    }

    /// [`WorkerClient::recv_execute`] into `ack`, reusing its tensor
    /// buffer: a caller that keeps one reply allocates nothing once it has
    /// seen its largest.
    pub fn recv_execute_into(&mut self, ack: &mut ExecuteBatchAck) -> Result<(), ClientError> {
        let id = self
            .inflight
            .pop_front()
            .expect("recv_execute with no in-flight request");
        self.recv(id, Opcode::ExecuteBatchAck)?;
        Ok(ack.decode_from(&self.payload)?)
    }

    /// Writes every queued frame. A failed write leaves the connection
    /// unusable: the frames are gone, and so are the replies of any
    /// request still in flight.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.outgoing.is_empty() {
            return Ok(());
        }
        let written = self.reader.get_mut().write_all(&self.outgoing);
        self.outgoing.clear();
        Ok(written?)
    }

    /// In-flight pipelined requests awaiting replies.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
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
        encode_frame_with(opcode, id, &mut self.outgoing, payload);
        if self.outgoing.len() >= IO_BUFFER {
            self.flush()?;
        }
        Ok(id)
    }

    /// Writes the queued frames, then reads the next reply frame, checking
    /// FIFO id correlation, and leaves its payload in `self.payload`. An
    /// [`Opcode::Error`] reply becomes [`ClientError::Remote`].
    fn recv(&mut self, id: u32, expect: Opcode) -> Result<(), ClientError> {
        self.flush()?;
        let header = read_frame(&mut self.reader, &mut self.payload)?;
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
        Ok(())
    }
}

/// Connects to the first of `endpoint`'s addresses that accepts within
/// `deadline`, returning the last failure if none does.
fn connect_within(endpoint: &Endpoint, deadline: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{endpoint} resolves to no address"),
    );
    for addr in endpoint.as_str().to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, deadline) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}
