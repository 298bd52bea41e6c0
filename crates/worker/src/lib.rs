//! # hybrimoe-worker
//!
//! Out-of-process expert workers for scale-out MoE serving.
//!
//! HybriMoE's scheduler treats every compute resource as a queue with a
//! transfer cost; this crate extends the set of resources past the local
//! box. A worker owns a deterministic weight shard (the same
//! `expert % num_workers` affinity map the multi-GPU cache shards use) and
//! executes each expert's gathered token batch on request, speaking a
//! compact length-prefixed framed protocol over one TCP connection per
//! engine:
//!
//! * [`protocol`] — the codec: 14-byte big-endian frame header (magic,
//!   version, opcode, request id, payload length), typed payloads, and the
//!   error-reply rules. The header's version byte is the only version
//!   check; there is no handshake. Byte-level documentation lives in
//!   `docs/protocol.md`, kept honest by a round-trip test.
//! * [`server`] — [`WorkerServer`]: the worker side. Runs in-process on a
//!   thread (deterministic tests/benches) or standalone via the
//!   `hybrimoe_worker` bin.
//! * [`client`] — [`WorkerClient`]: one blocking connection, pipelined,
//!   with a deadline on every connect, write and read. Frames queue up
//!   and are written together, up to [`IO_BUFFER`] bytes a write.
//!
//! The engine side lives in the `hybrimoe` core crate: its one real
//! executor gathers tokens expert-major, offers each batch to the
//! expert's shard-affine worker when endpoints are configured, and
//! computes it locally when no worker returns it — outputs are
//! bit-identical either way. Its worker fleet (`hybrimoe::remote`) owns
//! the connections, the reconnect backoff and the health counters.
//!
//! ## Example
//!
//! ```
//! use hybrimoe_worker::protocol::{ExecuteBatch, LoadShard};
//! use hybrimoe_worker::{
//!     ClientOptions, Endpoint, WorkerClient, WorkerServer, WorkerServerOptions,
//! };
//!
//! // A worker in a thread, speaking the real codec over a real socket.
//! let server = WorkerServer::bind(
//!     &Endpoint::parse("127.0.0.1:0"),
//!     WorkerServerOptions::default(),
//! )
//! .unwrap();
//! let handle = server.spawn();
//!
//! let mut client =
//!     WorkerClient::connect(handle.endpoint(), ClientOptions::default()).unwrap();
//! client
//!     .load_shard(&LoadShard {
//!         seed: 42,
//!         worker: 0,
//!         num_workers: 1,
//!         layers: 4,
//!         routed_experts: 8,
//!         hidden: 64,
//!         inter: 96,
//!         weight_budget_bytes: 64 * 1024 * 1024,
//!         backend: 1, // scalar
//!     })
//!     .unwrap();
//! let ack = client
//!     .execute(&ExecuteBatch {
//!         layer: 0,
//!         expert: 0,
//!         tokens: 1,
//!         hidden: 64,
//!         data: vec![0.1; 64],
//!     })
//!     .unwrap();
//! assert!(ack.data.iter().all(|v| v.is_finite()));
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ClientError, ClientOptions, Endpoint, WorkerClient};
pub use server::{WorkerHandle, WorkerServer, WorkerServerOptions};

/// Bytes a connection buffers each way. The client writes its queued
/// frames once this many are queued and the worker its held replies once
/// this many are held, so a layer's frames to one worker, and their
/// replies, travel in few writes; each side reads through a buffer of
/// this size.
pub const IO_BUFFER: usize = 16 * 1024;

/// The wire encoding of `KernelBackendKind` used by
/// [`protocol::LoadShard::backend`]: the engine pins the worker's kernel
/// backend so remote outputs are bit-identical to local ones.
pub mod wire_backend {
    use hybrimoe_kernels::KernelBackendKind;

    /// Encodes a kernel backend kind as its wire byte.
    pub fn to_wire(kind: KernelBackendKind) -> u8 {
        match kind {
            KernelBackendKind::Auto => 0,
            KernelBackendKind::Scalar => 1,
            KernelBackendKind::Avx2 => 3,
            KernelBackendKind::Avx512 => 4,
        }
    }

    /// Decodes a wire byte back to a kernel backend kind. Byte 2 is
    /// reserved: it named a backend that no longer exists, and since every
    /// backend produces the same bits a peer still pinning it gets
    /// identical output from `Scalar`.
    pub fn from_wire(byte: u8) -> Option<KernelBackendKind> {
        Some(match byte {
            0 => KernelBackendKind::Auto,
            1 | 2 => KernelBackendKind::Scalar,
            3 => KernelBackendKind::Avx2,
            4 => KernelBackendKind::Avx512,
            _ => return None,
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn wire_round_trips() {
            for kind in [
                KernelBackendKind::Auto,
                KernelBackendKind::Scalar,
                KernelBackendKind::Avx2,
                KernelBackendKind::Avx512,
            ] {
                assert_eq!(from_wire(to_wire(kind)), Some(kind));
            }
            assert_eq!(to_wire(KernelBackendKind::Avx512), 4);
            assert_eq!(from_wire(2), Some(KernelBackendKind::Scalar));
            assert_eq!(from_wire(5), None);
        }
    }
}
