//! The four workloads that drive a [`ContinuousBatcher`] in-process: two on
//! the modeled clock with the simulated backend, two on the host clock
//! with real kernels (local, and behind loopback workers).

use std::collections::VecDeque;

use hybrimoe::serve::{ContinuousBatcher, RequestMetrics, RequestSpec, DEFAULT_PRIORITY};
use hybrimoe::{BackendKind, Engine, EngineConfig, RealExecOptions, RemoteWorkerOptions};
use hybrimoe_hw::SimTime;
use hybrimoe_kernels::KernelBackendKind;
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{TraceGenerator, TraceStep};
use hybrimoe_worker::{Endpoint, WorkerHandle, WorkerServer, WorkerServerOptions};

use super::{
    bench_moe, nproc, preset, spec, Clock, RequestSample, RoundOutput, Serving, Spec,
    StepComposition, ThreadBudget, Workload,
};
use crate::cal::HostClock;
use crate::digest::Digest;
use crate::gen::{self, PlannedRequest, RoundInputs};
use crate::spans::{SpanClock, Tracer};

/// How a round's requests are sent.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// `users` callers that each wait for a reply before sending again.
    Closed {
        users: usize,
        requests: u32,
        prompt: u32,
        decode: u32,
    },
    /// Independent users: requests are sent when due, whatever the system
    /// is doing, and timed from when they were due.
    Open {
        rate_per_s: f64,
        /// `(prompt tokens, requests per round)`.
        mix: Vec<(u32, u32)>,
        decode: u32,
    },
}

/// A batcher-driven workload.
#[derive(Debug, Clone)]
pub struct Batched {
    spec: &'static Spec,
    pub config: EngineConfig,
    pub max_batch: usize,
    pub traffic: Traffic,
    /// Loopback expert workers (0 runs every expert in-process).
    workers: usize,
}

/// Prompt of the untimed-by-the-loop request that set-up sends through a
/// real-execution batcher so every expert's weights exist (on both sides
/// of the wire) before the loop is timed.
pub const WEIGHT_WARM_PROMPT: u32 = 96;

const REAL_EXEC: RealExecOptions = RealExecOptions {
    weight_budget_bytes: 512 * 1024 * 1024,
    max_threads: 1,
    token_major: false,
    kernel_backend: KernelBackendKind::Auto,
};

impl Batched {
    /// The paper's decode case: DeepSeek-V2-Lite activates 6 of 64 experts
    /// per layer, so cache hit ratio and prefetch set TPOT.
    pub fn sim_decode() -> Batched {
        Batched {
            spec: spec("sim_decode").expect("listed"),
            config: preset(ModelConfig::deepseek()),
            max_batch: 1,
            traffic: Traffic::Closed {
                users: 1,
                requests: 10,
                prompt: 32,
                decode: 80,
            },
            workers: 0,
        }
    }

    /// The paper's prefill case under multi-user traffic: every Mixtral
    /// expert is active with uneven load and a transfer costs more than a
    /// layer, so CPU-vs-PCIe balancing sets TTFT.
    pub fn sim_serve() -> Batched {
        Batched {
            spec: spec("sim_serve").expect("listed"),
            config: preset(ModelConfig::mixtral()),
            max_batch: 8,
            traffic: Traffic::Open {
                rate_per_s: 0.3,
                mix: vec![(32, 30), (128, 21), (512, 9)],
                decode: 32,
            },
            workers: 0,
        }
    }

    /// Real kernels behind the batcher, everything in-process.
    pub fn real_serve() -> Batched {
        Batched {
            spec: spec("real_serve").expect("listed"),
            config: preset(bench_moe())
                .with_backend(BackendKind::RealCpu)
                .with_real_exec(REAL_EXEC),
            max_batch: 8,
            traffic: Traffic::Closed {
                users: 4,
                requests: 24,
                prompt: 32,
                decode: 32,
            },
            workers: 0,
        }
    }

    /// The same traffic with expert batches crossing loopback TCP.
    pub fn remote_serve() -> Batched {
        Batched {
            spec: spec("remote_serve").expect("listed"),
            workers: nproc().min(2),
            ..Batched::real_serve()
        }
    }

    /// The engine-side view of a workload that is not batcher-driven (the
    /// server owns its batcher): the same requests through an in-process
    /// batcher of the same shape, whose steps the probes replay.
    pub fn engine_view(
        spec: &'static Spec,
        config: EngineConfig,
        max_batch: usize,
        traffic: Traffic,
    ) -> Batched {
        Batched {
            spec,
            config,
            max_batch,
            traffic,
            workers: 0,
        }
    }

    /// The same workload with another engine configuration (the traced
    /// run's comparisons against not having a feature).
    pub fn with_config(mut self, config: EngineConfig) -> Batched {
        self.config = config;
        self
    }

    /// The same open-loop workload at another arrival rate.
    pub fn with_rate(mut self, rate: f64) -> Batched {
        if let Traffic::Open { rate_per_s, .. } = &mut self.traffic {
            *rate_per_s = rate;
        }
        self
    }

    pub fn real_execution(&self) -> bool {
        self.config.backend.needs_token_states()
    }

    pub fn remote(&self) -> bool {
        self.workers > 0
    }

    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// Loopback expert workers, one kernel thread each.
pub fn spawn_workers(count: usize) -> (Vec<WorkerHandle>, Vec<String>) {
    let handles: Vec<WorkerHandle> = (0..count)
        .map(|_| {
            WorkerServer::bind(
                &Endpoint::parse("127.0.0.1:0"),
                WorkerServerOptions {
                    threads: 1,
                    drain_stops_server: false,
                    ..Default::default()
                },
            )
            .expect("bind a loopback worker")
            .spawn()
        })
        .collect();
    let endpoints = handles.iter().map(|h| h.endpoint().to_string()).collect();
    (handles, endpoints)
}

/// The engine configuration with its expert batches sent to `endpoints`
/// (default wire knobs: pipelined, 5 s deadline).
pub fn remote_config(config: &EngineConfig, endpoints: Vec<String>) -> EngineConfig {
    config.clone().with_remote_workers(RemoteWorkerOptions {
        endpoints,
        ..Default::default()
    })
}

impl Workload for Batched {
    fn spec(&self) -> &'static Spec {
        self.spec
    }

    fn threads(&self) -> ThreadBudget {
        ThreadBudget {
            harness: 1,
            // One kernel thread means the kernels run inline on the
            // harness thread; remote workers compute while it waits.
            kernel: usize::from(self.real_execution()),
            worker: self.workers,
            ..Default::default()
        }
    }

    fn generate(&self, content_seed: u64) -> RoundInputs {
        match &self.traffic {
            Traffic::Closed {
                requests,
                prompt,
                decode,
                ..
            } => gen::uniform_requests(content_seed, *requests, *prompt, *decode),
            Traffic::Open {
                rate_per_s,
                mix,
                decode,
            } => gen::open_loop_requests(content_seed, *rate_per_s, mix, *decode),
        }
    }

    fn setup(&self, inputs: &RoundInputs) -> Box<dyn Serving> {
        let (workers, endpoints) = spawn_workers(self.workers);
        let config = if self.remote() {
            remote_config(&self.config, endpoints)
        } else {
            self.config.clone()
        };
        let mut batcher = ContinuousBatcher::new(config, self.max_batch, inputs.trace_seed);
        if self.real_execution() {
            batcher.enqueue(RequestSpec {
                id: u32::MAX,
                arrival: SimTime::ZERO,
                prompt_tokens: WEIGHT_WARM_PROMPT,
                decode_tokens: 0,
                priority: DEFAULT_PRIORITY,
                deadline: None,
            });
            while !batcher.is_idle() {
                batcher.step(SimTime::ZERO, |_| SimTime::ZERO);
            }
        }
        Box::new(BatchedServing {
            batcher,
            workers,
            clock: self.spec.clock,
            users: match self.traffic {
                Traffic::Closed { users, .. } => Some(users),
                Traffic::Open { .. } => None,
            },
            remote: self.remote(),
            traced: false,
        })
    }

    fn as_batched(&self) -> Option<&Batched> {
        Some(self)
    }

    fn engine_view(&self) -> Batched {
        self.clone()
    }

    fn verify(&self, seed: u64) -> Vec<String> {
        if self.remote() {
            verify_remote_matches_local(&self.config, self.workers, seed)
        } else if self.real_execution() {
            verify_against_token_major(&self.config, seed)
        } else {
            Vec::new()
        }
    }
}

struct BatchedServing {
    batcher: ContinuousBatcher,
    workers: Vec<WorkerHandle>,
    clock: Clock,
    /// Closed-loop client count; `None` for an open loop.
    users: Option<usize>,
    remote: bool,
    traced: bool,
}

/// Per-request bookkeeping the harness keeps from outside the batcher.
#[derive(Clone, Copy, Default)]
struct Seen {
    tokens: u32,
    last_token: Option<SimTime>,
}

impl Serving for BatchedServing {
    fn serve(
        &mut self,
        inputs: &RoundInputs,
        tracer: &mut Tracer,
        host: &mut HostClock<'_>,
    ) -> RoundOutput {
        self.traced = tracer.enabled();
        let mut out = RoundOutput {
            attempted: inputs.requests.len() as u64,
            prompt_tokens: inputs.prompt_tokens(),
            ..Default::default()
        };
        let mut digest = Digest::new();
        let mut seen = vec![Seen::default(); inputs.requests.len()];
        let mut pending: VecDeque<PlannedRequest> = inputs.requests.iter().copied().collect();
        let mut completed = 0usize;
        // Host-clock stamps are raw stamps of `host`, calibrated once the
        // loop is over and the clock is closed.
        let mut stamps: Vec<([SimTime; 3], u32)> = Vec::with_capacity(inputs.requests.len());
        let mut gaps: Vec<(SimTime, SimTime)> = Vec::new();
        let span_clock = match self.clock {
            Clock::Modeled => SpanClock::Modeled,
            Clock::Host => SpanClock::Host,
        };
        let clock = self.clock;
        // When a closed-loop user's next request arrives, given the step
        // that freed the user ended at `end`.
        let arrival_after = |end: SimTime, host: &HostClock<'_>| match clock {
            Clock::Modeled => end,
            Clock::Host => SimTime::from_nanos(host.now_ns()),
        };
        let mut now = SimTime::ZERO;
        let mut lateness_ns = 0u64;

        let send = |batcher: &mut ContinuousBatcher,
                    tracer: &mut Tracer,
                    request: PlannedRequest,
                    arrival: SimTime| {
            tracer.span("batcher.enqueue", Some(request.id), |_| {
                batcher.enqueue(RequestSpec {
                    id: request.id,
                    arrival,
                    prompt_tokens: request.prompt_tokens,
                    decode_tokens: request.decode_tokens,
                    priority: DEFAULT_PRIORITY,
                    deadline: None,
                })
            });
        };

        // Closed loop: the users start staggered by an equal share of a
        // request's decode steps and, the requests being equally long, stay
        // staggered. Every prompt then merges into the other users' decode
        // steps; started together they would prefill in lockstep, and TTFT
        // would have a quarter of the independent samples.
        let mut users_to_start = 0usize;
        let mut stagger = 1usize;
        if let Some(users) = self.users {
            if let Some(first) = pending.pop_front() {
                users_to_start = users - 1;
                stagger = (first.decode_tokens as usize / users).max(1);
                send(&mut self.batcher, tracer, first, now);
            }
        }
        let mut steps = 0usize;

        loop {
            // Nothing runs between two steps, workers included.
            host.tick();
            if self.clock == Clock::Host {
                now = SimTime::from_nanos(host.now_ns());
            }
            if self.users.is_none() {
                // Open loop: everything due by now is sent, stamped with
                // the time it was due. On the modeled clock the generator
                // is exact, so its lateness is zero by construction.
                while pending.front().is_some_and(|r| r.due <= now) {
                    let request = pending.pop_front().expect("front checked");
                    send(&mut self.batcher, tracer, request, request.due);
                }
            }
            if self.batcher.is_idle() {
                match pending.front() {
                    Some(next) if self.users.is_none() => {
                        lateness_ns += now.as_nanos().saturating_sub(next.due.as_nanos());
                        now = now.max(next.due);
                        continue;
                    }
                    _ => break,
                }
            }

            let batcher = &mut self.batcher;
            let outcome = tracer.span("batcher.step", None, |_| {
                batcher.step(now, |latency| match clock {
                    Clock::Modeled => now + latency,
                    Clock::Host => SimTime::from_nanos(host.now_ns()),
                })
            });
            let end = outcome.end;
            now = end;
            digest.step(&outcome.stat);
            if tracer.enabled() {
                let decoders = outcome.stat.batch - outcome.stat.prefills;
                out.layers
                    .push("batcher.batch_mean", outcome.stat.batch as f64);
                out.layers.push(
                    "batcher.prefill_tokens_per_step",
                    (outcome.stat.tokens - decoders) as f64,
                );
                out.steps.push(StepComposition {
                    admitted: outcome.admitted.clone(),
                    decoded: outcome.decoded.iter().map(|(id, _)| *id).collect(),
                    latency: outcome.stat.latency,
                });
            }

            for id in &outcome.first_tokens {
                let s = &mut seen[*id as usize];
                s.tokens += 1;
                s.last_token = Some(end);
            }
            for (id, _) in &outcome.decoded {
                let s = &mut seen[*id as usize];
                s.tokens += 1;
                let last = s
                    .last_token
                    .replace(end)
                    .expect("decode follows a first token");
                gaps.push((last, end));
            }
            out.output_tokens += (outcome.first_tokens.len() + outcome.decoded.len()) as u64;

            for m in &outcome.completed {
                completed += 1;
                digest.request(m);
                check_request(m, seen[m.id as usize].tokens, &mut out.problems);
                stamps.push(([m.arrival, m.first_token, m.completion], m.decode_tokens));
                record_request_spans(tracer, m, span_clock);
                if tracer.enabled() {
                    let wait = m.queue_wait().as_millis_f64();
                    match self.clock {
                        Clock::Modeled => out.layers.push("batcher.queue_wait_ms_p50", wait),
                        Clock::Host => out.host_timed.push("batcher.queue_wait_ms_p50", wait),
                    }
                }
                if self.users.is_some() {
                    if let Some(request) = pending.pop_front() {
                        send(&mut self.batcher, tracer, request, arrival_after(end, host));
                    }
                }
            }

            steps += 1;
            if users_to_start > 0 && steps.is_multiple_of(stagger) {
                users_to_start -= 1;
                if let Some(request) = pending.pop_front() {
                    send(&mut self.batcher, tracer, request, arrival_after(end, host));
                }
            }
        }
        host.close();

        let to_ms = |t: SimTime| match clock {
            Clock::Modeled => t.as_nanos() as f64 / 1e6,
            Clock::Host => host.at(t.as_nanos()) / 1e6,
        };
        out.requests = stamps
            .iter()
            .map(|([arrival, first, completion], decode)| RequestSample {
                ttft_ms: to_ms(*first) - to_ms(*arrival),
                tpot_ms: (to_ms(*completion) - to_ms(*first)) / f64::from((*decode).max(1)),
            })
            .collect();
        out.itl_ms = gaps.iter().map(|(a, b)| to_ms(*b) - to_ms(*a)).collect();

        out.failed = out.attempted - completed as u64;
        if completed != inputs.requests.len() {
            out.problems.push(format!(
                "{completed} of {} requests completed",
                inputs.requests.len()
            ));
        }
        if !self.batcher.is_idle() {
            out.problems
                .push("the batcher did not drain to idle".to_owned());
        }
        if self.clock == Clock::Modeled {
            out.modeled_loop_s = Some(now.as_secs_f64());
            out.digest = Some(digest.finish());
            out.generator_lateness_ns = Some(lateness_ns);
        }
        out.host_timed
            .extend("batcher.step_us", tracer.durations_us("batcher.step"));
        out
    }

    fn finish(self: Box<Self>, out: &mut RoundOutput) {
        let this = *self;
        let engine = this.batcher.engine();
        let health = engine.worker_health().unwrap_or_default();
        if this.remote {
            if health.requests == 0 {
                out.problems.push("no expert batch ran remotely".to_owned());
            }
            if health.failovers != 0 {
                out.problems
                    .push(format!("{} expert batches failed over", health.failovers));
            }
        }
        if this.traced {
            let cache = engine.cache().stats();
            let steps = out.layers.get("batcher.batch_mean").len().max(1) as f64;
            out.layers.push("cache.hit_ratio", cache.hit_rate());
            out.layers
                .push("cache.evictions_per_step", cache.evictions as f64 / steps);
            let prefetch = engine.prefetch_counters();
            out.layers.push("prefetch.issued", prefetch.issued as f64);
            out.layers.push("prefetch.landed", prefetch.landed as f64);
            out.layers.push("prefetch.wasted", prefetch.wasted as f64);
            if prefetch.issued > 0 {
                out.layers.push(
                    "prefetch.useful_ratio",
                    prefetch.landed as f64 / prefetch.issued as f64,
                );
            }
            out.layers.push("remote.requests", health.requests as f64);
            out.layers.push("remote.failovers", health.failovers as f64);
        }
        // The batcher's connections close before the workers are joined.
        drop(this.batcher);
        for worker in this.workers {
            worker.shutdown();
        }
    }
}

/// Every request yields exactly its decode tokens (after the first) with
/// ordered stamps.
fn check_request(m: &RequestMetrics, tokens: u32, problems: &mut Vec<String>) {
    if tokens != m.decode_tokens + 1 {
        problems.push(format!(
            "request {} produced {tokens} tokens, expected {}",
            m.id,
            m.decode_tokens + 1
        ));
    }
    if !(m.arrival <= m.admitted && m.admitted <= m.first_token && m.first_token <= m.completion) {
        problems.push(format!("request {} has unordered stamps: {m:?}", m.id));
    }
}

/// A request's life as the program reported it: one span from arrival to
/// completion with its queue, prefill and decode phases as children.
fn record_request_spans(tracer: &mut Tracer, m: &RequestMetrics, clock: SpanClock) {
    let id = Some(m.id);
    let at = |t: SimTime| t.as_nanos();
    let parent = tracer.record("request", at(m.arrival), at(m.completion), None, id, clock);
    tracer.record(
        "request.queue",
        at(m.arrival),
        at(m.admitted),
        parent,
        id,
        clock,
    );
    tracer.record(
        "request.prefill",
        at(m.admitted),
        at(m.first_token),
        parent,
        id,
        clock,
    );
    tracer.record(
        "request.decode",
        at(m.first_token),
        at(m.completion),
        parent,
        id,
        clock,
    );
}

/// The steps the output checks and the layer probes execute directly: one
/// 32-token prompt and one batch-4 decode pass, with token states.
pub fn sampled_steps(model: &ModelConfig, seed: u64) -> [TraceStep; 2] {
    let (prefill, _) = TraceGenerator::new(model.clone(), seed)
        .with_token_states()
        .request(32);
    let decoders: Vec<TraceStep> = (1..=4)
        .map(|i| {
            TraceGenerator::new(model.clone(), seed.wrapping_add(i))
                .with_token_states()
                .decode_stream()
                .next_step()
        })
        .collect();
    let refs: Vec<&TraceStep> = decoders.iter().collect();
    [prefill, TraceStep::merge(&refs)]
}

/// Layer outputs of `config` over the sampled steps, layer-major.
fn layer_outputs(config: EngineConfig, steps: &[TraceStep]) -> (Vec<Vec<f32>>, Engine) {
    let mut engine = Engine::new(config);
    let mut outputs = Vec::new();
    for step in steps {
        engine.step(step);
        outputs.extend(engine.take_real_outputs().into_iter().map(|o| o.output));
    }
    (outputs, engine)
}

/// `real_serve`: the expert-major kernels match the token-major scalar
/// reference within 1e-3 relative on a sampled step.
fn verify_against_token_major(config: &EngineConfig, seed: u64) -> Vec<String> {
    let steps = sampled_steps(&config.model, seed);
    let (ours, _) = layer_outputs(config.clone(), &steps);
    let reference = config.clone().with_real_exec(RealExecOptions {
        token_major: true,
        kernel_backend: KernelBackendKind::Scalar,
        ..config.real_exec
    });
    let (theirs, _) = layer_outputs(reference, &steps);
    let mut problems = Vec::new();
    if ours.is_empty() || ours.len() != theirs.len() {
        problems.push(format!(
            "{} layer outputs against {} reference outputs",
            ours.len(),
            theirs.len()
        ));
    }
    for (layer, (a, b)) in ours.iter().zip(&theirs).enumerate() {
        let scale = b
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(f32::MIN_POSITIVE);
        let worst = a
            .iter()
            .zip(b)
            .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()));
        if a.len() != b.len() || worst / scale > 1e-3 {
            problems.push(format!(
                "layer output {layer} differs from the token-major reference by {:.2e} relative",
                worst / scale
            ));
        }
    }
    problems
}

/// `remote_serve`: outputs computed behind the workers are bit-identical
/// to local execution of the same steps, with no failover.
fn verify_remote_matches_local(config: &EngineConfig, workers: usize, seed: u64) -> Vec<String> {
    let steps = sampled_steps(&config.model, seed);
    let (local, _) = layer_outputs(config.clone(), &steps);
    let (handles, endpoints) = spawn_workers(workers);
    let (remote, engine) = layer_outputs(remote_config(config, endpoints), &steps);
    let health = engine.worker_health().unwrap_or_default();
    drop(engine);
    for handle in handles {
        handle.shutdown();
    }
    let mut problems = Vec::new();
    let same_bits = |a: &Vec<f32>, b: &Vec<f32>| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    if local.is_empty() || local.len() != remote.len() {
        problems.push(format!(
            "{} remote layer outputs against {} local ones",
            remote.len(),
            local.len()
        ));
    } else if !local.iter().zip(&remote).all(|(a, b)| same_bits(a, b)) {
        problems.push("remote layer outputs are not bit-identical to local execution".to_owned());
    }
    if health.requests == 0 || health.failovers != 0 {
        problems.push(format!(
            "remote check ran {} remote batches with {} failovers",
            health.requests, health.failovers
        ));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::serve_once;

    /// One short `sim_decode` round: two requests of 32 + 4 tokens.
    fn short_round(content_seed: u64) -> RoundOutput {
        let workload = Batched {
            traffic: Traffic::Closed {
                users: 1,
                requests: 2,
                prompt: 32,
                decode: 4,
            },
            ..Batched::sim_decode()
        };
        let inputs = workload.generate(content_seed);
        let mut serving = workload.setup(&inputs);
        let mut out = serve_once(serving.as_mut(), &inputs, false);
        serving.finish(&mut out);
        out
    }

    #[test]
    fn an_open_loop_round_serves_every_request_from_its_due_time() {
        let workload = Batched {
            traffic: Traffic::Open {
                rate_per_s: 0.5,
                mix: vec![(32, 3), (128, 1)],
                decode: 4,
            },
            ..Batched::sim_serve()
        };
        let inputs = workload.generate(3);
        let mut serving = workload.setup(&inputs);
        let mut out = serve_once(serving.as_mut(), &inputs, true);
        serving.finish(&mut out);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!((out.attempted, out.failed, out.requests.len()), (4, 0, 4));
        assert_eq!(out.output_tokens, 4 * 5);
        assert_eq!(out.itl_ms.len(), 4 * 4);
        assert_eq!(out.generator_lateness_ns, Some(0));
        // The loop cannot end before the last request was due.
        let last_due = inputs.requests.last().unwrap().due.as_secs_f64();
        assert!(out.modeled_loop_s.unwrap() > last_due);
        assert_eq!(out.layers.get("batcher.queue_wait_ms_p50").len(), 4);
    }

    #[test]
    fn closed_loop_users_start_staggered() {
        let workload = Batched {
            traffic: Traffic::Closed {
                users: 2,
                requests: 4,
                prompt: 32,
                decode: 8,
            },
            max_batch: 2,
            ..Batched::sim_decode()
        };
        let inputs = workload.generate(1);
        let mut serving = workload.setup(&inputs);
        let mut out = serve_once(serving.as_mut(), &inputs, true);
        serving.finish(&mut out);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert_eq!(out.requests.len(), 4);
        // The second user starts 8 / 2 = 4 steps after the first, so every
        // later prompt merges into the other user's decode step: no step
        // carries two prompts.
        assert!(out
            .layers
            .get("batcher.prefill_tokens_per_step")
            .iter()
            .all(|tokens| *tokens <= 32.0));
    }

    #[test]
    fn sim_digest_is_stable_for_a_fixed_seed() {
        let a = short_round(5);
        let b = short_round(5);
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert_eq!((a.attempted, a.failed, a.output_tokens), (2, 0, 10));
        assert!(a.digest.is_some());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.modeled_loop_s, b.modeled_loop_s);
        assert_eq!(a.generator_lateness_ns, Some(0));
        assert_ne!(a.digest, short_round(6).digest);
    }
}
