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
//! This module holds what is genuinely remote, so FIFO failover and
//! breaker policy live in one place:
//!
//! * **Bit-identity.** Tensors travel as exact IEEE-754 bit patterns and
//!   the [`LoadShard`] handshake pins every worker to the same kernel
//!   backend as the executor's local kernels; the executor accumulates
//!   experts in ascending id order no matter where each batch ran — so a
//!   layer's output is bit-identical to fully-local execution for any mix
//!   of remote and local experts.
//! * **Pipelining.** Every expert's batch is dispatched
//!   (`WorkerFleet::send`) before any reply is collected
//!   (`WorkerFleet::collect`); each connection answers strictly FIFO,
//!   and replies are collected in the same ascending expert order they
//!   were sent.
//! * **Failover.** A send or receive failure marks the worker down
//!   (reconnect-with-backoff in [`WorkerClientPool`]) and the affected
//!   experts — including any whose pipelined replies died with the
//!   connection — are left to the executor's own local weights. An
//!   in-flight layer never fails because a worker did. A per-worker
//!   circuit breaker trips after
//!   [`RemoteWorkerOptions::breaker_threshold`] consecutive failures:
//!   while open, experts route straight to the local kernels without
//!   paying connect or deadline cost, until a half-open heartbeat probe
//!   after the cooldown finds the worker healthy again.

use std::time::{Duration, Instant};

use hybrimoe_kernels::KernelBackendKind;
use hybrimoe_model::{ExpertId, LayerId, ModelConfig};
use hybrimoe_worker::protocol::LoadShard;
use hybrimoe_worker::{wire_backend, ClientOptions, WorkerClientPool, WorkerHealthSnapshot};
use serde::{Deserialize, Serialize};

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
/// assert_eq!(opts.breaker_threshold, 4);
/// assert_eq!(opts.breaker_cooldown_ms, 500);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteWorkerOptions {
    /// Worker endpoints, one per worker: TCP `host:port` or
    /// `unix:/path/to.sock`. Expert ownership is `expert % endpoints.len()`.
    /// Empty (the default) runs every expert on the local kernels.
    pub endpoints: Vec<String>,
    /// Per-request deadline in milliseconds, enforced as the socket read
    /// timeout while waiting for each reply. `0` waits forever.
    pub deadline_ms: u64,
    /// Consecutive send/collect failures that trip a worker's circuit
    /// breaker. While open, experts owned by that worker route straight
    /// to the local fallback — no connect attempt, no deadline wait —
    /// until a half-open heartbeat probe succeeds after the cooldown.
    /// `0` disables the breaker (every dispatch retries the worker).
    pub breaker_threshold: u32,
    /// Minimum time a tripped breaker stays open before the next
    /// dispatch decision probes the worker with a heartbeat.
    pub breaker_cooldown_ms: u64,
}

impl Default for RemoteWorkerOptions {
    fn default() -> Self {
        RemoteWorkerOptions {
            endpoints: Vec::new(),
            deadline_ms: 5_000,
            breaker_threshold: 4,
            breaker_cooldown_ms: 500,
        }
    }
}

impl RemoteWorkerOptions {
    /// The per-connection client options these settings imply.
    pub fn client_options(&self) -> ClientOptions {
        ClientOptions {
            deadline: (self.deadline_ms > 0).then(|| Duration::from_millis(self.deadline_ms)),
            ..ClientOptions::default()
        }
    }
}

/// One worker's circuit-breaker state (see
/// [`RemoteWorkerOptions::breaker_threshold`]).
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    /// Dispatch allowed; counts consecutive failures.
    Closed {
        /// Consecutive failures since the last success.
        failures: u32,
    },
    /// Dispatch suspended; no probe before `until`.
    Open {
        /// Earliest next half-open probe.
        until: Instant,
    },
    /// Cooldown expired; the in-progress dispatch decision is probing.
    HalfOpen,
}

/// A per-worker circuit breaker with trip accounting for `/metrics`.
#[derive(Debug)]
struct Breaker {
    state: BreakerState,
    /// Cumulative closed→open transitions (half-open re-opens after a
    /// failed probe do not count a new trip).
    trips: u64,
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
/// offers its expert batches to, with the per-layer dispatch state that
/// correlates pipelined replies and the per-worker circuit breakers.
#[derive(Debug)]
pub(crate) struct WorkerFleet {
    workers: WorkerClientPool,
    /// One circuit breaker per configured worker.
    breakers: Vec<Breaker>,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    /// Dispatch state of the layer in flight, one entry per planned expert
    /// in ascending order (the index [`WorkerFleet::send`] and
    /// [`WorkerFleet::collect`] take).
    dispatch: Vec<Dispatch>,
}

impl WorkerFleet {
    /// Creates the fleet over `remote.endpoints` (connections open lazily)
    /// with a [`LoadShard`] spec that pins every worker to `backend`, the
    /// executor's resolved kernel backend, so remote and local results are
    /// bit-identical.
    pub(crate) fn new(
        model: &ModelConfig,
        seed: u64,
        weight_budget_bytes: u64,
        backend: KernelBackendKind,
        remote: &RemoteWorkerOptions,
    ) -> WorkerFleet {
        let base = LoadShard {
            seed,
            worker: 0,
            num_workers: remote.endpoints.len().max(1) as u16,
            layers: model.layers,
            routed_experts: model.routed_experts,
            hidden: model.routed_shape.hidden(),
            inter: model.routed_shape.inter(),
            weight_budget_bytes,
            backend: wire_backend::to_wire(backend),
        };
        WorkerFleet {
            workers: WorkerClientPool::new(&remote.endpoints, base, remote.client_options()),
            breakers: (0..remote.endpoints.len())
                .map(|_| Breaker {
                    state: BreakerState::Closed { failures: 0 },
                    trips: 0,
                })
                .collect(),
            breaker_threshold: remote.breaker_threshold,
            breaker_cooldown: Duration::from_millis(remote.breaker_cooldown_ms),
            dispatch: Vec::new(),
        }
    }

    /// Starts a layer of `planned` experts: nothing is in flight.
    pub(crate) fn begin_layer(&mut self, planned: usize) {
        self.dispatch.clear();
        self.dispatch.resize(planned, Dispatch::Local);
    }

    /// Offers planned expert `i`'s batch of `tokens x hidden` activations
    /// to its shard-affine worker; `gather` builds the batch only if a
    /// connection is there to take it. A no-op with no workers, and
    /// whatever is not sent stays [`Dispatch::Local`].
    pub(crate) fn send<'a>(
        &mut self,
        i: usize,
        layer: LayerId,
        expert: u16,
        tokens: usize,
        hidden: usize,
        gather: impl FnOnce() -> &'a [f32],
    ) {
        if self.workers.num_workers() == 0 {
            return;
        }
        let worker = self.workers.worker_for_expert(ExpertId(expert));
        if !self.breaker_allows(worker) {
            // Open breaker: straight to the local kernels without paying
            // connect or deadline cost.
            self.workers.note_failover();
            return;
        }
        let sent = match self.workers.client(worker) {
            Some(client) => client
                .send_execute_parts(layer.0, expert, tokens as u32, hidden as u32, gather())
                .is_ok(),
            None => false,
        };
        if sent {
            self.workers.note_request();
            self.dispatch[i] = Dispatch::Remote(worker);
        } else {
            // The connection (and every reply still in its FIFO) is gone:
            // earlier experts dispatched to this worker fail over too.
            self.workers.fail(worker);
            self.breaker_fail(worker);
            self.workers.note_failover();
            for d in self.dispatch[..i].iter_mut() {
                if *d == Dispatch::Remote(worker) {
                    *d = Dispatch::Local;
                    self.workers.note_failover();
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
        if self.recv(worker, tokens, hidden, sink) {
            self.breakers[worker].state = BreakerState::Closed { failures: 0 };
            return true;
        }
        self.breaker_fail(worker);
        self.workers.note_failover();
        for d in self.dispatch[i..].iter_mut() {
            if *d == Dispatch::Remote(worker) {
                *d = Dispatch::Local;
            }
        }
        false
    }

    /// Reads one reply off `worker`'s FIFO into `sink`. Anything that
    /// desynchronizes or invalidates the FIFO (timeouts, disconnects,
    /// error replies, shape mismatches) drops the connection and returns
    /// `false`.
    fn recv(
        &mut self,
        worker: usize,
        tokens: usize,
        hidden: usize,
        sink: impl FnOnce(&[f32]),
    ) -> bool {
        let Some(client) = self.workers.client(worker) else {
            return false;
        };
        // A reconnected client has an empty FIFO: the original reply died
        // with the old connection.
        let usable = client.inflight() > 0
            && match client.recv_execute() {
                Ok(ack) if ack.tokens as usize == tokens && ack.hidden as usize == hidden => {
                    sink(&ack.data);
                    true
                }
                _ => false,
            };
        if !usable {
            self.workers.fail(worker);
        }
        usable
    }

    /// Current fleet health, including circuit-breaker state.
    pub(crate) fn health(&self) -> WorkerHealthSnapshot {
        let mut health = self.workers.health();
        health.breaker_open = self
            .breakers
            .iter()
            .filter(|b| matches!(b.state, BreakerState::Open { .. }))
            .count() as u64;
        health.breaker_trips = self.breakers.iter().map(|b| b.trips).sum();
        health
    }

    /// Drains every connected worker (best-effort; used at shutdown).
    pub(crate) fn drain(&mut self) {
        self.workers.drain();
    }

    /// Decides whether dispatch to `worker` is allowed right now. Closed
    /// breakers pass; open ones inside the cooldown refuse instantly; an
    /// open breaker past its cooldown runs a half-open heartbeat probe —
    /// success closes the breaker, failure re-opens it for another
    /// cooldown without counting a new trip. The probe cannot
    /// desynchronize pipelined replies: a breaker only opens after the
    /// failing connection was dropped, so the probe's (re)connection
    /// starts with an empty FIFO.
    fn breaker_allows(&mut self, worker: usize) -> bool {
        if self.breaker_threshold == 0 {
            return true;
        }
        match self.breakers[worker].state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } if Instant::now() < until => false,
            _ => {
                self.breakers[worker].state = BreakerState::HalfOpen;
                let alive = match self.workers.client(worker) {
                    Some(client) => client.heartbeat().is_ok(),
                    None => false,
                };
                if alive {
                    self.breakers[worker].state = BreakerState::Closed { failures: 0 };
                } else {
                    self.workers.fail(worker);
                    self.breakers[worker].state = BreakerState::Open {
                        until: Instant::now() + self.breaker_cooldown,
                    };
                }
                alive
            }
        }
    }

    /// Counts one send/collect failure; at the threshold's worth of
    /// consecutive failures the breaker trips open for the cooldown.
    fn breaker_fail(&mut self, worker: usize) {
        if self.breaker_threshold == 0 {
            return;
        }
        let reopen = BreakerState::Open {
            until: Instant::now() + self.breaker_cooldown,
        };
        let breaker = &mut self.breakers[worker];
        match breaker.state {
            BreakerState::Closed { failures } if failures + 1 >= self.breaker_threshold => {
                breaker.trips += 1;
                breaker.state = reopen;
            }
            BreakerState::Closed { failures } => {
                breaker.state = BreakerState::Closed {
                    failures: failures + 1,
                };
            }
            // A failure during (or right after) a half-open probe re-opens
            // without a new trip.
            BreakerState::HalfOpen => breaker.state = reopen,
            BreakerState::Open { .. } => {}
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::{ExecutionBackend, LayerOutcome, LayerRequest, RealCpuBackend};
    use crate::realexec::tests::{tasks_and_plan, token_inputs};
    use crate::realexec::{RealExecOptions, RealLayerExecutor};
    use hybrimoe_hw::SimDuration;
    use hybrimoe_model::{LayerRouting, RouterOutput};
    use hybrimoe_sched::{ExpertTask, ScheduleContext, SchedulePlan};
    use hybrimoe_worker::{Endpoint, WorkerHandle, WorkerServer, WorkerServerOptions};

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
            WorkerServerOptions {
                fail_after_executes: Some(1),
                ..Default::default()
            },
        );
        let remote = RemoteWorkerOptions {
            endpoints,
            deadline_ms: 2_000,
            ..Default::default()
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

    #[test]
    fn breaker_opens_on_dead_worker_and_reprobes_after_cooldown() {
        let model = ModelConfig::tiny_test();
        let (inputs, routes) = token_inputs(&model, 2, 3);
        let plan = plan_for(&model, &routes);
        let reference = token_major_reference(&model, &plan, &inputs, &routes);

        let remote = RemoteWorkerOptions {
            endpoints: vec!["127.0.0.1:1".to_owned()], // nothing listening
            breaker_threshold: 1,
            breaker_cooldown_ms: 1,
            ..Default::default()
        };
        let mut exec = RealLayerExecutor::new(model, 7, scalar_options(), &remote);
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert_eq!(health.breaker_open, 1);
        assert_eq!(health.breaker_trips, 1);
        assert!(health.failovers > 0);

        // Cooldown expired: the next layer's dispatch probes the (still
        // dead) worker, the probe fails, and the breaker re-opens without
        // counting a new trip. Output stays bit-identical throughout.
        std::thread::sleep(Duration::from_millis(5));
        let out = exec
            .execute_layer(LayerId(0), &plan, &inputs, &routes)
            .unwrap();
        assert_eq!(out.output, reference);
        let health = exec.health();
        assert_eq!(health.breaker_open, 1);
        assert_eq!(health.breaker_trips, 1);
    }

    #[test]
    fn remote_backend_reports_health_and_outputs() {
        // The one real backend with one live worker.
        let model = ModelConfig::tiny_test();
        let (handles, endpoints) = spawn_workers(1, WorkerServerOptions::default());
        let remote = RemoteWorkerOptions {
            endpoints,
            ..Default::default()
        };
        let mut backend = RealCpuBackend::new(model.clone(), 7, scalar_options(), &remote);
        assert_eq!(backend.name(), "real-cpu");

        let (inputs, routes) = token_inputs(&model, 2, 3);
        let plan = plan_for(&model, &routes);
        let states = hybrimoe_trace::TokenStates { inputs, routes };
        let routing = LayerRouting::from_tokens(LayerId(0), model.routed_experts, &states.routes);
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
        let ctx = ScheduleContext::for_test(LayerId(0), &tasks, &cost);

        backend.begin_step();
        let mut outcome = LayerOutcome::default();
        backend.execute_layer(
            &LayerRequest {
                layer: LayerId(0),
                plan: &plan,
                ctx: &ctx,
                states: Some(&states),
            },
            &mut outcome,
        );
        assert!(outcome.makespan > SimDuration::ZERO);
        let outputs = backend.take_step_outputs();
        assert_eq!(outputs.len(), 1);
        assert!(outputs[0].output.iter().any(|v| *v != 0.0));
        let health = backend.worker_health().expect("endpoints configured");
        assert_eq!(health.configured, 1);
        assert!(health.requests > 0);
        for h in handles {
            h.shutdown();
        }
    }
}
