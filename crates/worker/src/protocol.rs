//! The framed wire protocol spoken between the engine and expert workers.
//!
//! Every message is one **frame**: a fixed 14-byte header followed by an
//! opcode-specific payload. All integers are big-endian (network order);
//! `f32` tensors travel as their IEEE-754 bit patterns, so a round trip is
//! bit-exact.
//!
//! ```text
//! offset  size  field
//! 0       4     magic        0x48594D57 ("HYMW")
//! 4       1     version      protocol version (currently 3)
//! 5       1     opcode       see the opcode table
//! 6       4     request id   echoed verbatim in the reply
//! 10      4     payload len  bytes following the header (<= 32 MiB)
//! ```
//!
//! There is no handshake: [`read_frame`] rejects a header of any version
//! but [`VERSION`], in both directions, and a worker answers such a frame
//! with [`ErrorCode::VersionMismatch`] before it closes the connection.
//! The byte-level layout, the opcode table, and the error-reply semantics
//! are documented in `docs/protocol.md`, which a test keeps in sync by
//! round-tripping its example frames through this codec.
//!
//! # Example
//!
//! ```
//! use hybrimoe_worker::protocol::{encode_frame, read_frame, Opcode, HEADER_LEN};
//!
//! let mut wire = Vec::new();
//! encode_frame(Opcode::Drain, 7, &[], &mut wire);
//! assert_eq!(wire.len(), HEADER_LEN);
//! let mut payload = Vec::new();
//! let header = read_frame(&mut &wire[..], &mut payload).unwrap();
//! assert_eq!(header.opcode, Opcode::Drain);
//! assert_eq!(header.request_id, 7);
//! assert!(payload.is_empty());
//! ```

use std::fmt;
use std::io::{self, Read};

/// The frame magic, ASCII `HYMW`.
pub const MAGIC: u32 = 0x4859_4D57;

/// The one protocol version this build speaks, carried in every frame
/// header. Version 3 dropped the version-2 `Hello`/`HelloAck` handshake
/// (opcodes `0x01`/`0x02`), so a version-2 peer's `Hello` gets
/// [`ErrorCode::VersionMismatch`].
pub const VERSION: u8 = 3;

/// Frame header length in bytes: magic + version + opcode + request id +
/// payload length.
pub const HEADER_LEN: usize = 14;

/// Upper bound on a frame's payload. A 32 MiB ceiling bounds worker memory
/// against corrupt or hostile length fields while leaving room for a
/// 2048-token batch of an 4096-wide model.
pub const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

/// Frame opcodes. Requests use odd values, their acknowledgments the next
/// even value; [`Opcode::Error`] answers any request that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Sets up the worker's weight shard for this connection; the first
    /// request on every connection.
    LoadShard = 0x03,
    /// Acknowledges a shard load with the number of experts owned.
    LoadShardAck = 0x04,
    /// One expert's gathered token batch to execute.
    ExecuteBatch = 0x05,
    /// The batch's outputs, same shape as the request tensor.
    ExecuteBatchAck = 0x06,
    /// Asks the worker to finish in-flight work and close.
    Drain = 0x09,
    /// Acknowledges a drain; the worker closes the connection after.
    DrainAck = 0x0A,
    /// Error reply to any request (see [`ErrorCode`]).
    Error = 0x0F,
}

impl Opcode {
    /// Parses a wire opcode byte.
    pub fn from_u8(byte: u8) -> Option<Opcode> {
        Some(match byte {
            0x03 => Opcode::LoadShard,
            0x04 => Opcode::LoadShardAck,
            0x05 => Opcode::ExecuteBatch,
            0x06 => Opcode::ExecuteBatchAck,
            0x09 => Opcode::Drain,
            0x0A => Opcode::DrainAck,
            0x0F => Opcode::Error,
            _ => return None,
        })
    }
}

/// Why an [`Opcode::Error`] reply was sent (the payload's leading `u16`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// A frame's version byte is not [`VERSION`]. The worker sends this
    /// reply with request id 0 (the rest of such a header is untrusted)
    /// and closes the connection.
    VersionMismatch = 1,
    /// The requested expert is not in this worker's shard.
    NotMyShard = 2,
    /// The payload failed to decode or its dimensions are inconsistent.
    BadPayload = 3,
    /// The worker's weight budget cannot materialize the expert.
    WeightBudget = 4,
    /// A request arrived before [`Opcode::LoadShard`] configured the worker.
    NotLoaded = 6,
}

impl ErrorCode {
    /// Parses a wire error code.
    pub fn from_u16(raw: u16) -> Option<ErrorCode> {
        Some(match raw {
            1 => ErrorCode::VersionMismatch,
            2 => ErrorCode::NotMyShard,
            3 => ErrorCode::BadPayload,
            4 => ErrorCode::WeightBudget,
            6 => ErrorCode::NotLoaded,
            _ => return None,
        })
    }
}

/// What went wrong while encoding, decoding, or transporting frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// The first four bytes were not [`MAGIC`]; the stream is not speaking
    /// this protocol (or has desynchronized) and must be closed.
    BadMagic(u32),
    /// The frame's version byte is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The opcode byte names no known opcode.
    UnknownOpcode(u8),
    /// The header announces a payload longer than [`MAX_PAYLOAD`].
    Oversized {
        /// The announced payload length.
        len: u32,
        /// The enforced ceiling ([`MAX_PAYLOAD`]).
        max: u32,
    },
    /// The stream ended inside a header or announced payload.
    Truncated,
    /// The payload decoded structurally but its contents are inconsistent.
    BadPayload(String),
    /// An I/O error on the underlying stream.
    Io(io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic(got) => {
                write!(f, "bad frame magic {got:#010x} (expected {MAGIC:#010x})")
            }
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (speak {VERSION})")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds the {max}-byte ceiling")
            }
            ProtocolError::Truncated => f.write_str("stream ended mid-frame"),
            ProtocolError::BadPayload(why) => write!(f, "bad payload: {why}"),
            ProtocolError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated
        } else {
            ProtocolError::Io(e)
        }
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the frame carries.
    pub opcode: Opcode,
    /// Correlates a reply with its request under pipelining.
    pub request_id: u32,
    /// Payload bytes following the header.
    pub len: u32,
}

/// Appends one whole frame (header + payload) to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — callers build payloads and
/// are expected to respect the ceiling they enforce on the receive side.
pub fn encode_frame(opcode: Opcode, request_id: u32, payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_with(opcode, request_id, out, |out| {
        out.extend_from_slice(payload)
    });
}

/// [`encode_frame`] with the payload being whatever `payload` appends: a
/// codec writes straight behind the header, with no payload buffer between.
///
/// # Panics
///
/// Panics if the appended payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame_with(
    opcode: Opcode,
    request_id: u32,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION);
    out.push(opcode as u8);
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = out.len() - start - HEADER_LEN;
    assert!(
        len <= MAX_PAYLOAD as usize,
        "payload of {len} bytes exceeds MAX_PAYLOAD"
    );
    out[start + 10..start + HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
}

/// Decodes a 14-byte header: the one place a frame's version is checked.
fn decode_header(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader, ProtocolError> {
    let magic = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    let version = bytes[4];
    if version != VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let opcode = Opcode::from_u8(bytes[5]).ok_or(ProtocolError::UnknownOpcode(bytes[5]))?;
    let request_id = u32::from_be_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
    let len = u32::from_be_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok(FrameHeader {
        opcode,
        request_id,
        len,
    })
}

/// Whether `bytes` begins with a whole frame: a header and as many payload
/// bytes as it announces. What a buffered reader holds decides this
/// without a read, so reading such a frame from the buffer cannot block.
pub(crate) fn starts_with_whole_frame(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN
        && u32::from_be_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]) as usize
            <= bytes.len() - HEADER_LEN
}

/// Reads exactly one frame from a blocking stream. The payload lands in
/// `payload` (cleared first, so the buffer is reusable across calls). A
/// bad magic, another version, an unknown opcode or a length above
/// [`MAX_PAYLOAD`] fails before any payload byte is read or allocated; a
/// stream that ends mid-frame is [`ProtocolError::Truncated`].
pub fn read_frame<R: Read>(
    stream: &mut R,
    payload: &mut Vec<u8>,
) -> Result<FrameHeader, ProtocolError> {
    let mut head = [0u8; HEADER_LEN];
    stream.read_exact(&mut head)?;
    let header = decode_header(&head)?;
    payload.clear();
    payload.resize(header.len as usize, 0);
    stream.read_exact(payload)?;
    Ok(header)
}

// ---- payload codecs ----

/// A little bounds-checked big-endian reader over a payload slice.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ProtocolError::BadPayload("payload shorter than announced".into()))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtocolError::BadPayload(format!(
                "{} trailing bytes",
                self.bytes.len() - self.at
            )))
        }
    }
}

/// Sets up a worker's deterministic weight shard for one connection: the
/// same `(seed, shape)` inputs the engine's local `WeightStore` uses,
/// plus the `(worker, num_workers)` affinity pair that selects which
/// experts this worker owns (`expert % num_workers == worker`). The
/// worker builds an empty store; each expert's weights are generated on
/// its first `ExecuteBatch` on the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadShard {
    /// Weight-generation seed (must match the engine's).
    pub seed: u64,
    /// This worker's index in the deployment.
    pub worker: u16,
    /// Total workers in the deployment.
    pub num_workers: u16,
    /// MoE layers of the model.
    pub layers: u16,
    /// Routed experts per layer.
    pub routed_experts: u16,
    /// Hidden (model) dimension of each routed expert.
    pub hidden: u32,
    /// Intermediate dimension of each routed expert.
    pub inter: u32,
    /// Weight-budget bytes of the worker's store.
    pub weight_budget_bytes: u64,
    /// Kernel backend the worker must execute with, as a
    /// `wire_backend` byte (`auto`/`scalar`/`avx2`/`avx512`).
    /// A kind the worker's CPU lacks resolves to the widest one below it;
    /// every backend produces the same bits, so remote outputs stay
    /// bit-identical to local ones either way.
    pub backend: u8,
}

impl LoadShard {
    /// Serializes the payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seed.to_be_bytes());
        out.extend_from_slice(&self.worker.to_be_bytes());
        out.extend_from_slice(&self.num_workers.to_be_bytes());
        out.extend_from_slice(&self.layers.to_be_bytes());
        out.extend_from_slice(&self.routed_experts.to_be_bytes());
        out.extend_from_slice(&self.hidden.to_be_bytes());
        out.extend_from_slice(&self.inter.to_be_bytes());
        out.extend_from_slice(&self.weight_budget_bytes.to_be_bytes());
        out.push(self.backend);
    }

    /// Deserializes the payload.
    pub fn decode(payload: &[u8]) -> Result<LoadShard, ProtocolError> {
        let mut r = Reader::new(payload);
        let spec = LoadShard {
            seed: r.u64()?,
            worker: r.u16()?,
            num_workers: r.u16()?,
            layers: r.u16()?,
            routed_experts: r.u16()?,
            hidden: r.u32()?,
            inter: r.u32()?,
            weight_budget_bytes: r.u64()?,
            backend: r.u8()?,
        };
        r.finish()?;
        if spec.num_workers == 0 {
            return Err(ProtocolError::BadPayload("num_workers must be >= 1".into()));
        }
        if spec.worker >= spec.num_workers {
            return Err(ProtocolError::BadPayload(format!(
                "worker {} out of range for {} workers",
                spec.worker, spec.num_workers
            )));
        }
        if spec.hidden == 0 || spec.inter == 0 {
            return Err(ProtocolError::BadPayload("zero expert dimension".into()));
        }
        Ok(spec)
    }
}

/// Acknowledges a [`LoadShard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadShardAck {
    /// Experts per layer this worker owns under the shard map.
    pub experts_owned: u32,
}

impl LoadShardAck {
    /// Serializes the payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.experts_owned.to_be_bytes());
    }

    /// Deserializes the payload.
    pub fn decode(payload: &[u8]) -> Result<LoadShardAck, ProtocolError> {
        let mut r = Reader::new(payload);
        let ack = LoadShardAck {
            experts_owned: r.u32()?,
        };
        r.finish()?;
        Ok(ack)
    }
}

/// One expert's gathered token batch: the engine gathers the expert's
/// routed tokens into a contiguous `tokens x hidden` tensor (expert-major,
/// exactly like the local batched path) and ships it to the expert's
/// shard-affine worker.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecuteBatch {
    /// The MoE layer of the expert.
    pub layer: u16,
    /// The expert to execute.
    pub expert: u16,
    /// Tokens in the batch.
    pub tokens: u32,
    /// Hidden dimension (redundant with [`LoadShard`]; cross-checked).
    pub hidden: u32,
    /// The batch, `tokens x hidden` row-major.
    pub data: Vec<f32>,
}

impl ExecuteBatch {
    /// Serializes the header fields and the tensor (IEEE-754 bit patterns,
    /// big-endian — bit-exact on the wire).
    pub fn encode(&self, out: &mut Vec<u8>) {
        Self::encode_parts(
            self.layer,
            self.expert,
            self.tokens,
            self.hidden,
            &self.data,
            out,
        );
    }

    /// [`ExecuteBatch::encode`] from borrowed parts, for a sender whose
    /// tensor lives in a buffer it reuses.
    pub fn encode_parts(
        layer: u16,
        expert: u16,
        tokens: u32,
        hidden: u32,
        data: &[f32],
        out: &mut Vec<u8>,
    ) {
        out.extend_from_slice(&layer.to_be_bytes());
        out.extend_from_slice(&expert.to_be_bytes());
        out.extend_from_slice(&tokens.to_be_bytes());
        out.extend_from_slice(&hidden.to_be_bytes());
        encode_tensor(data, out);
    }

    /// Deserializes the payload, checking the tensor length against the
    /// announced `tokens * hidden`.
    pub fn decode(payload: &[u8]) -> Result<ExecuteBatch, ProtocolError> {
        let mut batch = ExecuteBatch::default();
        batch.decode_from(payload)?;
        Ok(batch)
    }

    /// [`ExecuteBatch::decode`] into `self`, reusing its tensor buffer: a
    /// receiver that keeps one batch allocates nothing once it has seen
    /// its largest. On an error `self` holds no meaningful batch.
    pub(crate) fn decode_from(&mut self, payload: &[u8]) -> Result<(), ProtocolError> {
        let mut r = Reader::new(payload);
        self.layer = r.u16()?;
        self.expert = r.u16()?;
        self.tokens = r.u32()?;
        self.hidden = r.u32()?;
        decode_tensor(&mut r, self.tokens, self.hidden, &mut self.data)?;
        r.finish()
    }
}

/// The outputs of an [`ExecuteBatch`], same shape as the request tensor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecuteBatchAck {
    /// Tokens in the batch (echoed).
    pub tokens: u32,
    /// Hidden dimension (echoed).
    pub hidden: u32,
    /// The expert outputs, `tokens x hidden` row-major.
    pub data: Vec<f32>,
}

impl ExecuteBatchAck {
    /// Serializes the payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        Self::encode_parts(self.tokens, self.hidden, &self.data, out);
    }

    /// [`ExecuteBatchAck::encode`] from borrowed parts, for a sender whose
    /// tensor lives in a buffer it reuses.
    pub fn encode_parts(tokens: u32, hidden: u32, data: &[f32], out: &mut Vec<u8>) {
        out.extend_from_slice(&tokens.to_be_bytes());
        out.extend_from_slice(&hidden.to_be_bytes());
        encode_tensor(data, out);
    }

    /// Deserializes the payload.
    pub fn decode(payload: &[u8]) -> Result<ExecuteBatchAck, ProtocolError> {
        let mut ack = ExecuteBatchAck::default();
        ack.decode_from(payload)?;
        Ok(ack)
    }

    /// [`ExecuteBatchAck::decode`] into `self`, reusing its tensor buffer.
    /// On an error `self` holds no meaningful reply.
    pub(crate) fn decode_from(&mut self, payload: &[u8]) -> Result<(), ProtocolError> {
        let mut r = Reader::new(payload);
        self.tokens = r.u32()?;
        self.hidden = r.u32()?;
        decode_tensor(&mut r, self.tokens, self.hidden, &mut self.data)?;
        r.finish()
    }
}

/// Appends an f32 tensor as big-endian IEEE-754 bit patterns.
fn encode_tensor(data: &[f32], out: &mut Vec<u8>) {
    out.reserve(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_bits().to_be_bytes());
    }
}

/// Reads a `tokens x hidden` f32 tensor into `data` (cleared first),
/// validating the element count against the payload before allocating.
fn decode_tensor(
    r: &mut Reader<'_>,
    tokens: u32,
    hidden: u32,
    data: &mut Vec<f32>,
) -> Result<(), ProtocolError> {
    let elems = (tokens as u64)
        .checked_mul(hidden as u64)
        .filter(|&n| n.checked_mul(4).is_some_and(|b| b <= MAX_PAYLOAD as u64))
        .ok_or_else(|| ProtocolError::BadPayload("tensor dimensions overflow".into()))?
        as usize;
    let bytes = r.take(elems * 4)?;
    data.clear();
    data.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_be_bytes([c[0], c[1], c[2], c[3]]))),
    );
    Ok(())
}

/// An error reply: a [`ErrorCode`] and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Why the request failed.
    pub code: ErrorCode,
    /// Worker-authored description.
    pub message: String,
}

impl ErrorReply {
    /// Creates an error reply.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            code,
            message: message.into(),
        }
    }

    /// Serializes the payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.code as u16).to_be_bytes());
        out.extend_from_slice(self.message.as_bytes());
    }

    /// Deserializes the payload.
    pub fn decode(payload: &[u8]) -> Result<ErrorReply, ProtocolError> {
        let mut r = Reader::new(payload);
        let raw = r.u16()?;
        let code = ErrorCode::from_u16(raw)
            .ok_or_else(|| ProtocolError::BadPayload(format!("unknown error code {raw}")))?;
        let message = String::from_utf8_lossy(r.take(payload.len() - 2)?).into_owned();
        Ok(ErrorReply { code, message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads one frame from `wire` through [`read_frame`].
    fn read(wire: &[u8]) -> Result<(FrameHeader, Vec<u8>), ProtocolError> {
        let mut payload = Vec::new();
        read_frame(&mut &wire[..], &mut payload).map(|header| (header, payload))
    }

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        encode_frame(Opcode::ExecuteBatch, 0xDEAD_BEEF, &[1, 2, 3], &mut wire);
        assert_eq!(wire[4], VERSION);
        let (header, payload) = read(&wire).unwrap();
        assert_eq!(header.opcode, Opcode::ExecuteBatch);
        assert_eq!(header.request_id, 0xDEAD_BEEF);
        assert_eq!(header.len, 3);
        assert_eq!(payload, [1, 2, 3]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = Vec::new();
        encode_frame(Opcode::Drain, 1, &[], &mut wire);
        wire[0] = 0x00;
        assert!(matches!(read(&wire), Err(ProtocolError::BadMagic(_))));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut wire = Vec::new();
        encode_frame(Opcode::Drain, 1, &[], &mut wire);
        for version in [1, VERSION - 1, VERSION + 1, 99] {
            wire[4] = version;
            assert!(matches!(
                read(&wire),
                Err(ProtocolError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut wire = Vec::new();
        encode_frame(Opcode::Drain, 1, &[], &mut wire);
        // The retired handshake opcodes are unknown too.
        for opcode in [0x01, 0x02, 0x7E] {
            wire[5] = opcode;
            assert!(matches!(
                read(&wire),
                Err(ProtocolError::UnknownOpcode(op)) if op == opcode
            ));
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        let mut wire = Vec::new();
        encode_frame(Opcode::ExecuteBatch, 1, &[9; 16], &mut wire);
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 7] {
            assert!(
                matches!(read(&wire[..cut]), Err(ProtocolError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut wire = Vec::new();
        encode_frame(Opcode::ExecuteBatch, 1, &[], &mut wire);
        wire[10..14].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        let mut payload = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], &mut payload),
            Err(ProtocolError::Oversized { .. })
        ));
        assert_eq!(payload.capacity(), 0);
    }

    #[test]
    fn read_frame_maps_eof_to_truncated() {
        let mut wire = Vec::new();
        encode_frame(Opcode::ExecuteBatch, 1, &[5; 32], &mut wire);
        wire.truncate(HEADER_LEN + 10);
        let mut cursor = io::Cursor::new(wire);
        let mut payload = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut payload),
            Err(ProtocolError::Truncated)
        ));
    }

    #[test]
    fn frames_encoded_back_to_back_match_encode_frame_and_split_whole() {
        let ack = ExecuteBatchAck {
            tokens: 2,
            hidden: 3,
            data: vec![1.5, -2.0, 0.0, f32::MIN_POSITIVE, 7.25, -0.0],
        };
        let mut payload = Vec::new();
        ack.encode(&mut payload);
        let mut want = Vec::new();
        encode_frame(Opcode::ExecuteBatchAck, 9, &payload, &mut want);
        encode_frame(Opcode::DrainAck, 10, &[], &mut want);

        // A long frame, then a short one, appended to one buffer.
        let mut wire = Vec::new();
        encode_frame_with(Opcode::ExecuteBatchAck, 9, &mut wire, |out| {
            ExecuteBatchAck::encode_parts(ack.tokens, ack.hidden, &ack.data, out)
        });
        encode_frame_with(Opcode::DrainAck, 10, &mut wire, |_| {});
        assert_eq!(wire, want);

        // Only a prefix holding a header and all its payload is whole.
        let first = HEADER_LEN + payload.len();
        for cut in 0..=wire.len() {
            assert_eq!(starts_with_whole_frame(&wire[..cut]), cut >= first, "{cut}");
        }
        assert!(starts_with_whole_frame(&wire[first..]));
        assert!(!starts_with_whole_frame(&wire[first..wire.len() - 1]));
    }

    #[test]
    fn error_codes_the_worker_never_sends_are_rejected() {
        for code in [0u16, 5, 7, 8] {
            let mut buf = code.to_be_bytes().to_vec();
            buf.extend_from_slice(b"gone");
            assert!(
                matches!(ErrorReply::decode(&buf), Err(ProtocolError::BadPayload(_))),
                "code {code}"
            );
        }
    }

    #[test]
    fn payloads_round_trip() {
        let mut buf = Vec::new();
        let spec = LoadShard {
            seed: 7,
            worker: 1,
            num_workers: 4,
            layers: 4,
            routed_experts: 8,
            hidden: 64,
            inter: 96,
            weight_budget_bytes: 1 << 20,
            backend: 1,
        };
        spec.encode(&mut buf);
        assert_eq!(LoadShard::decode(&buf).unwrap(), spec);

        buf.clear();
        let batch = ExecuteBatch {
            layer: 2,
            expert: 5,
            tokens: 3,
            hidden: 2,
            data: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE, 1e30, -0.0],
        };
        batch.encode(&mut buf);
        let back = ExecuteBatch::decode(&buf).unwrap();
        assert_eq!(back, batch);
        // Bit-exactness, not just value equality.
        for (a, b) in back.data.iter().zip(batch.data.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        buf.clear();
        let err = ErrorReply::new(ErrorCode::NotMyShard, "expert 3 lives on worker 1");
        err.encode(&mut buf);
        assert_eq!(ErrorReply::decode(&buf).unwrap(), err);
    }

    #[test]
    fn inconsistent_tensor_dimensions_rejected() {
        let mut buf = Vec::new();
        let batch = ExecuteBatch {
            layer: 0,
            expert: 0,
            tokens: 2,
            hidden: 2,
            data: vec![0.0; 4],
        };
        batch.encode(&mut buf);
        // Announce more tokens than the tensor carries.
        buf[4..8].copy_from_slice(&3u32.to_be_bytes());
        assert!(matches!(
            ExecuteBatch::decode(&buf),
            Err(ProtocolError::BadPayload(_))
        ));
        // Dimension overflow must not allocate.
        buf[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        buf[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            ExecuteBatch::decode(&buf),
            Err(ProtocolError::BadPayload(_))
        ));
    }

    #[test]
    fn load_shard_validates_affinity() {
        let mut buf = Vec::new();
        LoadShard {
            seed: 0,
            worker: 4,
            num_workers: 4,
            layers: 1,
            routed_experts: 8,
            hidden: 8,
            inter: 8,
            weight_budget_bytes: 1024,
            backend: 0,
        }
        .encode(&mut buf);
        assert!(matches!(
            LoadShard::decode(&buf),
            Err(ProtocolError::BadPayload(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        LoadShardAck { experts_owned: 3 }.encode(&mut buf);
        buf.push(0xFF);
        assert!(matches!(
            LoadShardAck::decode(&buf),
            Err(ProtocolError::BadPayload(_))
        ));
    }
}
