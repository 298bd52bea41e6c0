//! Remote expert dispatch: the worker fleet a
//! [`RealLayerExecutor`](crate::realexec::RealLayerExecutor) may own.
//!
//! Where an expert runs is data, not a second executor: the real
//! executor's one expert-major loop offers every planned expert's gathered
//! token batch to a `WorkerFleet` and computes locally whatever the fleet
//! does not return. With [`RemoteWorkerOptions::endpoints`] empty — the
//! default — the fleet has no workers, opens no socket and every offer is
//! a no-op. With endpoints, a batch travels to its shard-affine worker
//! (`expert % num_workers`, the same static map the multi-GPU cache shards
//! use). Activations move, weights stay put — the point of
//! compute-near-weights workers.
//!
//! This module holds what is genuinely remote — each worker's connection,
//! its retry time and the fleet's counters — in one place:
//!
//! * **Bit-identity.** Tensors travel as exact IEEE-754 bit patterns and
//!   each connection's [`LoadShard`] pins every worker to the same kernel
//!   backend as the executor's local kernels; the executor accumulates
//!   experts in ascending id order no matter where each batch ran — so a
//!   layer's output is bit-identical to fully-local execution for any mix
//!   of remote and local experts.
//! * **Pipelining.** Every expert's batch is dispatched
//!   (`WorkerFleet::send`) before any reply is collected
//!   (`WorkerFleet::collect`); each connection answers strictly FIFO,
//!   and replies are collected in the same ascending expert order they
//!   were sent. A dispatch only queues the batch on its worker's
//!   connection; `WorkerFleet::flush` then writes each connection's queue,
//!   so a layer costs each worker one write (one per
//!   [`IO_BUFFER`](hybrimoe_worker::IO_BUFFER) bytes of batches),
//!   and the worker answers with as few. Replies decode into one buffer
//!   the fleet reuses.
//! * **Failover.** A failed connect, send, flush or reply drops the worker's
//!   connection and marks it down; the affected experts — including any
//!   whose pipelined replies died with the connection — are left to the
//!   executor's own local weights. An in-flight layer never fails because
//!   a worker did. While a worker is down its experts route straight to
//!   the local kernels, paying no connect or deadline cost and changing
//!   nothing; the first dispatch after the backoff reconnects, and its
//!   [`LoadShard`] — the connection's first frame — is the probe. The
//!   deadline bounds every connect, send and reply, so a worker that
//!   stops accepting, reading or answering fails over like a dead one
//!   instead of blocking the engine. Each failure doubles
//!   the backoff (from 50 ms up to 2 s) and only a successful reply resets
//!   it, so a worker that accepts connections but fails every request
//!   backs off as surely as one that refuses them.

use std::ops::Range;
use std::time::{Duration, Instant};

use hybrimoe_kernels::KernelBackendKind;
use hybrimoe_model::{ids::shard_of, ExpertId, LayerId, ModelConfig};
use hybrimoe_worker::protocol::{ExecuteBatchAck, LoadShard};
use hybrimoe_worker::{wire_backend, ClientOptions, Endpoint, WorkerClient};
use serde::{Deserialize, Serialize};

/// Reconnect delay after a worker's first failure, and what a successful
/// reply resets it to.
const BACKOFF_INITIAL: Duration = Duration::from_millis(50);
/// Reconnect delay ceiling: each failure without a successful reply in
/// between doubles the delay, up to this.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Configuration of a real executor's worker fleet.
///
/// # Example
///
/// ```
/// use hybrimoe::remote::RemoteWorkerOptions;
///
/// let opts = RemoteWorkerOptions::default();
/// assert!(opts.endpoints.is_empty()); // no fleet: everything runs locally
/// assert_eq!(opts.deadline_ms, 5_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteWorkerOptions {
    /// Worker endpoints, one TCP `host:port` per worker. Expert ownership
    /// is `expert % endpoints.len()`.
    /// Empty (the default) runs every expert on the local kernels.
    pub endpoints: Vec<String>,
    /// Deadline in milliseconds on every wait on a worker: each connect,
    /// each request write and each reply read. `0` waits forever.
    pub deadline_ms: u64,
}

impl Default for RemoteWorkerOptions {
    fn default() -> Self {
        RemoteWorkerOptions {
            endpoints: Vec::new(),
            deadline_ms: 5_000,
        }
    }
}

/// Worker fleet health, as published in the serving layer's `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerHealthSnapshot {
    /// Workers configured in the fleet.
    pub configured: u64,
    /// Workers currently connected.
    pub up: u64,
    /// Workers currently down: their experts run locally until a
    /// reconnect after the backoff succeeds.
    pub down: u64,
    /// Expert batches dispatched remotely.
    pub requests: u64,
    /// Expert batches that fell back to local execution after a worker
    /// failure or while a worker was down.
    pub failovers: u64,
    /// Successful reconnects after a worker was marked down.
    pub reconnects: u64,
}

/// One worker's connection state.
#[derive(Debug)]
enum Conn {
    /// Never connected (or cleanly drained): connect on first dispatch.
    Idle,
    /// Connected. `backoff` is the delay the next failure applies; only a
    /// successful reply resets it.
    Up {
        client: Box<WorkerClient>,
        backoff: Duration,
    },
    /// Failed: every dispatch before `until` runs locally, the first one
    /// after it reconnects; `backoff` is the delay the next failure
    /// applies.
    Down { until: Instant, backoff: Duration },
}

/// One configured worker.
#[derive(Debug)]
struct Worker {
    endpoint: Endpoint,
    /// The shard spec sent on every (re)connect.
    shard: LoadShard,
    conn: Conn,
    /// Whether a connect ever succeeded, so later ones count as reconnects.
    ever_connected: bool,
}

/// Where one planned expert's batch is headed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Dispatch {
    /// Not dispatched (or failed over): compute with the local weights.
    Local,
    /// In flight to worker `w`; its reply is collected FIFO.
    Remote(usize),
}

/// The (often empty) fleet of out-of-process workers a real executor
/// offers its expert batches to: each worker's connection state, the
/// per-layer dispatch state that correlates pipelined replies, and the
/// fleet's counters.
#[derive(Debug)]
pub(crate) struct WorkerFleet {
    workers: Vec<Worker>,
    client_options: ClientOptions,
    /// Dispatch state of the layer in flight, one entry per planned expert
    /// in ascending order (the index [`WorkerFleet::send`] and
    /// [`WorkerFleet::collect`] take).
    dispatch: Vec<Dispatch>,
    /// The reply collected last, decoded into a reused buffer.
    reply: ExecuteBatchAck,
    requests: u64,
    failovers: u64,
    reconnects: u64,
}

impl WorkerFleet {
    /// Creates the fleet over `remote.endpoints` (connections open lazily,
    /// so a fleet can be built while its workers are still starting) with
    /// a [`LoadShard`] spec that pins every worker to `backend`, the
    /// executor's resolved kernel backend, so remote and local results are
    /// bit-identical.
    pub(crate) fn new(
        model: &ModelConfig,
        seed: u64,
        weight_budget_bytes: u64,
        backend: KernelBackendKind,
        remote: &RemoteWorkerOptions,
    ) -> WorkerFleet {
        let num_workers = remote.endpoints.len() as u16;
        let workers = remote
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, endpoint)| Worker {
                endpoint: Endpoint::parse(endpoint),
                shard: LoadShard {
                    seed,
                    worker: i as u16,
                    num_workers,
                    layers: model.layers,
                    routed_experts: model.routed_experts,
                    hidden: model.routed_shape.hidden(),
                    inter: model.routed_shape.inter(),
                    weight_budget_bytes,
                    backend: wire_backend::to_wire(backend),
                },
                conn: Conn::Idle,
                ever_connected: false,
            })
            .collect();
        WorkerFleet {
            workers,
            client_options: ClientOptions {
                deadline: (remote.deadline_ms > 0)
                    .then(|| Duration::from_millis(remote.deadline_ms)),
            },
            dispatch: Vec::new(),
            reply: ExecuteBatchAck::default(),
            requests: 0,
            failovers: 0,
            reconnects: 0,
        }
    }

    /// Starts a layer of `planned` experts: nothing is in flight.
    pub(crate) fn begin_layer(&mut self, planned: usize) {
        self.dispatch.clear();
        self.dispatch.resize(planned, Dispatch::Local);
    }

    /// Offers planned expert `i`'s batch of `tokens x hidden` activations
    /// to its shard-affine worker; `gather` builds the batch only if a
    /// connection is there to take it. The batch is queued on the
    /// connection, which writes it with [`WorkerFleet::flush`] or once its
    /// queue is full. A no-op with no workers, and whatever is not sent
    /// stays [`Dispatch::Local`].
    pub(crate) fn send<'a>(
        &mut self,
        i: usize,
        layer: LayerId,
        expert: u16,
        tokens: usize,
        hidden: usize,
        gather: impl FnOnce() -> &'a [f32],
    ) {
        if self.workers.is_empty() {
            return;
        }
        let worker = shard_of(ExpertId(expert), self.workers.len());
        let Some(client) = self.client(worker) else {
            self.failovers += 1;
            return;
        };
        if client
            .send_execute_parts(layer.0, expert, tokens as u32, hidden as u32, gather())
            .is_ok()
        {
            self.requests += 1;
            self.dispatch[i] = Dispatch::Remote(worker);
        } else {
            // The connection (and every reply still in its FIFO) is gone:
            // earlier experts dispatched to this worker fail over too.
            self.failovers += 1;
            self.fail(worker, 0..i);
        }
    }

    /// Writes every connection's queued batches, once per layer after the
    /// last [`WorkerFleet::send`]. A failed write fails over every expert
    /// sent to that worker in the layer, as a failed send does.
    pub(crate) fn flush(&mut self) {
        for worker in 0..self.workers.len() {
            if let Conn::Up { client, .. } = &mut self.workers[worker].conn {
                if client.flush().is_err() {
                    self.fail(worker, 0..self.dispatch.len());
                }
            }
        }
    }

    /// Receives planned expert `i`'s pipelined reply and hands its
    /// `tokens x hidden` data to `sink`. Returns `false` — the caller
    /// computes the batch locally — if the expert was never sent or its
    /// reply cannot be used (connection gone, deadline exceeded, remote
    /// error, shape mismatch); a lost reply takes the connection's whole
    /// FIFO with it, so every later expert still expecting one from that
    /// worker turns local as well.
    pub(crate) fn collect(
        &mut self,
        i: usize,
        tokens: usize,
        hidden: usize,
        sink: impl FnOnce(&[f32]),
    ) -> bool {
        let Dispatch::Remote(worker) = self.dispatch[i] else {
            return false;
        };
        // Every failure turns the worker's outstanding experts local, so
        // an expert still marked remote has its reply on a live connection.
        let Conn::Up { client, backoff } = &mut self.workers[worker].conn else {
            unreachable!("a remote dispatch outlived its connection");
        };
        let reply = &mut self.reply;
        match client.recv_execute_into(reply) {
            Ok(()) if reply.tokens as usize == tokens && reply.hidden as usize == hidden => {
                sink(&reply.data);
                *backoff = BACKOFF_INITIAL;
                true
            }
            // Timeouts, disconnects, error replies and shape mismatches
            // all desynchronize or invalidate the FIFO.
            _ => {
                self.fail(worker, i..self.dispatch.len());
                false
            }
        }
    }

    /// Current fleet health.
    pub(crate) fn health(&self) -> WorkerHealthSnapshot {
        let count = |state: fn(&Conn) -> bool| {
            self.workers.iter().filter(|w| state(&w.conn)).count() as u64
        };
        WorkerHealthSnapshot {
            configured: self.workers.len() as u64,
            up: count(|c| matches!(c, Conn::Up { .. })),
            down: count(|c| matches!(c, Conn::Down { .. })),
            requests: self.requests,
            failovers: self.failovers,
            reconnects: self.reconnects,
        }
    }

    /// Drains every connected worker (best-effort; used at shutdown).
    pub(crate) fn drain(&mut self) {
        for worker in &mut self.workers {
            if let Conn::Up { client, .. } = &mut worker.conn {
                let _ = client.drain();
            }
            worker.conn = Conn::Idle;
        }
    }

    /// Worker `worker`'s live connection. An idle worker, or a down one
    /// whose backoff has expired, connects first — its [`LoadShard`], the
    /// connection's first frame, is the probe, and a failed one marks the
    /// worker down again. A down worker inside its backoff returns `None`
    /// and nothing changes.
    fn client(&mut self, worker: usize) -> Option<&mut WorkerClient> {
        let w = &mut self.workers[worker];
        let backoff = match w.conn {
            Conn::Up { .. } => None,
            Conn::Down { until, .. } if Instant::now() < until => return None,
            Conn::Down { backoff, .. } => Some(backoff),
            Conn::Idle => Some(BACKOFF_INITIAL),
        };
        if let Some(backoff) = backoff {
            match WorkerClient::connect(&w.endpoint, self.client_options.clone())
                .and_then(|mut c| c.load_shard(&w.shard).map(|_| c))
            {
                Ok(client) => {
                    self.reconnects += u64::from(w.ever_connected);
                    w.ever_connected = true;
                    w.conn = Conn::Up {
                        client: Box::new(client),
                        backoff,
                    };
                }
                Err(_) => {
                    // Nothing was in flight on a connection just opened.
                    self.fail(worker, 0..0);
                    return None;
                }
            }
        }
        match &mut self.workers[worker].conn {
            Conn::Up { client, .. } => Some(client),
            _ => None,
        }
    }

    /// Drops `worker`'s connection, marks it down for its current backoff
    /// and doubles the next one, and fails over every expert in `pending`
    /// still waiting on a reply from it.
    fn fail(&mut self, worker: usize, pending: Range<usize>) {
        let conn = &mut self.workers[worker].conn;
        let backoff = match *conn {
            Conn::Up { backoff, .. } | Conn::Down { backoff, .. } => backoff,
            Conn::Idle => BACKOFF_INITIAL,
        };
        *conn = Conn::Down {
            until: Instant::now() + backoff,
            backoff: (backoff * 2).min(BACKOFF_MAX),
        };
        for d in &mut self.dispatch[pending] {
            if *d == Dispatch::Remote(worker) {
                *d = Dispatch::Local;
                self.failovers += 1;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::realexec::tests::{tasks_and_plan, token_inputs};
    use crate::realexec::{RealExecOptions, RealLayerExecutor};
    use hybrimoe_fault::{FaultPlan, FaultRates};
    use hybrimoe_hw::SimDuration;
    use hybrimoe_model::RouterOutput;
    use hybrimoe_sched::SchedulePlan;
    use hybrimoe_worker::{WorkerHandle, WorkerServer, WorkerServerOptions};

    fn scalar_options() -> RealExecOptions {
        RealExecOptions {
            max_threads: 2,
            kernel_backend: KernelBackendKind::Scalar,
            ..Default::default()
        }
    }

    fn spawn_workers(n: usize, options: WorkerServerOptions) -> (Vec<WorkerHandle>, Vec<String>) {
        let handles: Vec<WorkerHandle> = (0..n)
            .map(|_| {
                WorkerServer::bind(&Endpoint::parse("127.0.0.1:0"), options.clone())
                    .expect("bind worker")
                    .spawn()
            })
            .collect();
        let endpoints = handles.iter().map(|h| h.endpoint().to_string()).collect();
        (handles, endpoints)
    }

    /// A worker whose execute replies suffer `rates`.
    fn faulty(rates: FaultRates) -> WorkerServerOptions {
        WorkerServerOptions {
            fault_plan: FaultPlan {
                rates,
                ..FaultPlan::off()
            },
            ..Default::default()
        }
    }

    fn plan_for(model: &ModelConfig, routes: &[RouterOutput]) -> SchedulePlan {
        tasks_and_plan(model, routes, 2, true)
    }

    /// The oracle: the token-major scalar executor — separate code from
    /// the expert-major loop every other executor here runs, and it never
    /// dispatches.
    fn token_major_reference(
        model: &ModelConfig,
        plan: &SchedulePlan,
        inputs: &[Vec<f32>],
        routes: &[RouterOutput],
    ) -> Vec<f32> {
        let options = RealExecOptions {
            token_major: true,
            ..scalar_options()
        };
        RealLayerExecutor::with_options(model.clone(), 7, options)
            .execute_layer(LayerId(0), plan, inputs, routes)
            .unwrap()
            .output
    }

    #[test]
    fn remote_execution_is_bit_identical_to_local() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 4, 9);
        let plan = plan_for(&model, &routes);
        let reference = token_major_reference(&model, &plan, &inputs, &routes);

        for workers in [1usize, 2] {
            let (handles, endpoints) = spawn_workers(workers, WorkerServerOptions::default());
            let remote = RemoteWorkerOptions {
                endpoints,
                ..Default::default()
            };
            let mut exec = RealLayerExecutor::new(model.clone(), 7, scalar_options(), &remote);
            let out = exec
                .execute_layer(LayerId(0), &plan, &inputs, &routes)
                .unwrap();
            assert_eq!(out.output, reference, "workers={workers}");
            let health = exec.health();
            assert_eq!(health.configured, workers as u64);
            assert_eq!(health.up, workers as u64);
            assert!(health.requests > 0);
            assert_eq!(health.failovers, 0);

            // The oracle itself never dispatches, live endpoints or not.
            let options = RealExecOptions {
                token_major: true,
                ..scalar_options()
            };
            let mut oracle = RealLayerExecutor::new(model.clone(), 7, options, &remote);
            let out = oracle
                .execute_layer(LayerId(0), &plan, &inputs, &routes)
                .unwrap();
            assert_eq!(out.output, reference);
            assert_eq!(oracle.health().requests, 0);

            exec.drain();
            for h in handles {
                h.shutdown();
            }
        }
    }

    #[test]
    fn empty_endpoints_run_fully_local() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 5);
        let plan = plan_for(&model, &routes);
        let reference = token_major_reference(&model, &plan, &inputs, &routes);

        let mut exec = RealLayerExecutor::with_options(model, 7, scalar_options());
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert_eq!(health.configured, 0);
        assert_eq!(health.requests, 0);
    }

    #[test]
    fn mid_request_disconnect_fails_over_bit_identically() {
        // The worker dies mid-layer (drops the connection without
        // replying after its first execute); the affected experts fall
        // back to local weights and the output is still bit-identical.
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 4, 13);
        let plan = plan_for(&model, &routes);
        let reference = token_major_reference(&model, &plan, &inputs, &routes);

        let (handles, endpoints) = spawn_workers(
            1,
            faulty(FaultRates {
                fail_after: Some(1),
                ..Default::default()
            }),
        );
        let remote = RemoteWorkerOptions {
            endpoints,
            deadline_ms: 2_000,
        };
        let mut exec = RealLayerExecutor::new(model, 7, scalar_options(), &remote);
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert!(health.failovers > 0, "health: {health:?}");
        drop(handles);
    }

    #[test]
    fn dead_endpoint_degrades_to_local() {
        // Nothing listening at all: every expert fails over, nothing
        // errors, and the output still matches.
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 3);
        let plan = plan_for(&model, &routes);
        let reference = token_major_reference(&model, &plan, &inputs, &routes);

        let remote = RemoteWorkerOptions {
            // A port from the ephemeral range with nothing bound; connect
            // fails fast on loopback.
            endpoints: vec!["127.0.0.1:1".to_owned()],
            ..Default::default()
        };
        let mut exec = RealLayerExecutor::new(model, 7, scalar_options(), &remote);
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert_eq!(health.up, 0);
        assert!(health.failovers > 0);
    }

    /// Runs the layer every ~5 ms, checking each output against
    /// `reference`, until `done` holds for the fleet's health or `within`
    /// has passed. Returns the last health.
    fn layers_every_5ms(
        exec: &mut RealLayerExecutor,
        (plan, inputs, routes): (&SchedulePlan, &[Vec<f32>], &[RouterOutput]),
        reference: &[f32],
        within: Duration,
        mut done: impl FnMut(&WorkerHealthSnapshot) -> bool,
    ) -> WorkerHealthSnapshot {
        let start = Instant::now();
        loop {
            let out = exec
                .execute_layer(LayerId(0), plan, inputs, routes)
                .unwrap();
            assert_eq!(out.output, reference);
            let health = exec.health();
            if done(&health) || start.elapsed() >= within {
                return health;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn restarted_worker_reconnects_and_takes_traffic_again() {
        // A worker dies mid-run and stays dead for a second, then a fresh
        // one is bound on the same endpoint, while layers keep arriving
        // every ~5 ms: the first dispatch after the backoff reconnects,
        // remote requests resume and failovers stop. Dispatches refused
        // while the worker is down must not push its retry time out, or
        // steady traffic locks it out for good.
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 4, 13);
        let plan = plan_for(&model, &routes);
        let reference = token_major_reference(&model, &plan, &inputs, &routes);
        let layer = (&plan, &inputs[..], &routes[..]);

        let (handles, endpoints) = spawn_workers(
            1,
            faulty(FaultRates {
                fail_after: Some(10),
                ..Default::default()
            }),
        );
        let remote = RemoteWorkerOptions {
            endpoints,
            deadline_ms: 2_000,
        };
        let mut exec = RealLayerExecutor::new(model, 7, scalar_options(), &remote);
        let died = layers_every_5ms(&mut exec, layer, &reference, Duration::from_secs(3), |h| {
            h.failovers > 0
        });
        assert!(died.failovers > 0 && died.requests > 0, "health: {died:?}");
        let dead = layers_every_5ms(&mut exec, layer, &reference, Duration::from_secs(1), |_| {
            false
        });
        assert_eq!((dead.down, dead.reconnects), (1, 0), "health: {dead:?}");

        // The crashed worker's accept loop has stopped; its listener
        // closes when the handle is joined, and a fresh worker rebinds it.
        let endpoint = handles[0].endpoint().clone();
        drop(handles);
        let restarted = WorkerServer::bind(&endpoint, WorkerServerOptions::default())
            .expect("rebind the worker endpoint")
            .spawn();

        let back = layers_every_5ms(&mut exec, layer, &reference, Duration::from_secs(3), |h| {
            h.reconnects == 1 && h.requests > dead.requests
        });
        assert_eq!(back.reconnects, 1, "no reconnect within 3 s: {back:?}");
        assert!(back.requests > dead.requests, "health: {back:?}");

        let mut steady = back;
        for _ in 0..20 {
            steady = layers_every_5ms(&mut exec, layer, &reference, Duration::ZERO, |_| true);
        }
        assert_eq!(steady.failovers, back.failovers, "health: {steady:?}");
        assert!(steady.requests > back.requests);
        assert_eq!((steady.up, steady.down, steady.reconnects), (1, 0, 1));
        exec.drain();
        restarted.shutdown();
    }

    #[test]
    fn a_worker_failing_every_reply_backs_off_exponentially() {
        // The worker accepts every connection (LoadShard stays
        // clean) but drops each reply. A reconnect is not a success, so the
        // backoff keeps doubling: reconnects at ~0.05, 0.15, 0.35, 0.75 and
        // 1.55 s, where a backoff reset on connect would give ~60 in 3 s.
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 4, 9);
        let plan = plan_for(&model, &routes);
        let reference = token_major_reference(&model, &plan, &inputs, &routes);

        let (handles, endpoints) = spawn_workers(
            1,
            faulty(FaultRates {
                conn_drop_ppm: 1_000_000,
                ..Default::default()
            }),
        );
        let remote = RemoteWorkerOptions {
            endpoints,
            deadline_ms: 2_000,
        };
        let mut exec = RealLayerExecutor::new(model, 7, scalar_options(), &remote);
        let layer = (&plan, &inputs[..], &routes[..]);
        let health = layers_every_5ms(&mut exec, layer, &reference, Duration::from_secs(3), |_| {
            false
        });
        assert!((1..=7).contains(&health.reconnects), "health: {health:?}");
        assert!(health.failovers > health.requests, "health: {health:?}");
        assert_eq!((health.up, health.down), (0, 1));
        drop(handles);
    }

    /// One layer against a worker whose every execute reply suffers
    /// `rates`: the output is still the token-major one bit for bit, the
    /// damaged replies fail over, and the worker is reported down.
    fn every_reply_faulted(rates: FaultRates, deadline_ms: u64) {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 4, 9);
        let plan = plan_for(&model, &routes);
        let reference = token_major_reference(&model, &plan, &inputs, &routes);

        let (handles, endpoints) = spawn_workers(1, faulty(rates));
        let remote = RemoteWorkerOptions {
            endpoints,
            deadline_ms,
        };
        let mut exec = RealLayerExecutor::new(model, 7, scalar_options(), &remote);
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.output), bits(&reference));
        let health = exec.health();
        assert!(health.failovers > 0, "health: {health:?}");
        assert_eq!((health.up, health.down), (0, 1), "health: {health:?}");
        drop(handles);
    }

    #[test]
    fn a_worker_corrupting_every_reply_fails_over_and_is_marked_down() {
        every_reply_faulted(
            FaultRates {
                corrupt_ppm: 1_000_000,
                ..Default::default()
            },
            500,
        );
    }

    #[test]
    fn a_worker_truncating_every_reply_fails_over_and_is_marked_down() {
        every_reply_faulted(
            FaultRates {
                truncate_ppm: 1_000_000,
                ..Default::default()
            },
            500,
        );
    }

    #[test]
    fn a_worker_delaying_every_reply_past_the_deadline_fails_over_and_is_marked_down() {
        every_reply_faulted(
            FaultRates {
                reply_delay_ppm: 1_000_000,
                reply_delay_ms: 400,
                ..Default::default()
            },
            100,
        );
    }

    #[test]
    fn remote_backend_reports_health_and_outputs() {
        // An engine executing for real with one live worker.
        let model = ModelConfig::tiny_test();
        let (handles, endpoints) = spawn_workers(1, WorkerServerOptions::default());
        let config = crate::EngineConfig::preset(crate::Framework::HybriMoe, model.clone(), 0.5)
            .with_real_exec(scalar_options())
            .with_remote_workers(RemoteWorkerOptions {
                endpoints,
                ..Default::default()
            });
        let mut engine = crate::Engine::new(config);
        let trace = hybrimoe_trace::TraceGenerator::new(model.clone(), 3)
            .with_token_states()
            .decode_trace(1);
        let metrics = engine.step(&trace.steps[0]);
        assert!(metrics.latency > SimDuration::ZERO);
        let outputs = engine.take_real_outputs();
        assert_eq!(outputs.len(), model.layers as usize);
        assert!(outputs[0].output.iter().any(|v| *v != 0.0));
        let health = engine.worker_health().expect("endpoints configured");
        assert_eq!(health.configured, 1);
        assert!(health.requests > 0);
        for h in handles {
            h.shutdown();
        }
    }
}
