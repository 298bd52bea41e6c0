//! The engine's per-layer decision path must stay off the heap.
//!
//! A steady-state decode `Engine::step` on the simulation backend works in
//! reused buffers: the only thing it may allocate is the metrics it
//! returns. A counting global allocator pins that, so a stray `Vec`,
//! `format!` or hash map on the per-layer path fails here instead of
//! quietly costing every token a few microseconds again. The same
//! allocator pins the real-execution path: a warm real decode step
//! allocates only the outputs it hands out, with its experts computed
//! locally or on loopback workers, a warm expert forward
//! allocates nothing, a warm trace-generator step allocates only the
//! trace it returns and a decode token routed into an existing step
//! allocates nothing. A warm continuous-batcher step routes its tokens
//! into one reused step, so it allocates a few per-step lists and no
//! trace buffers. The allocator also tracks the calling thread's live and
//! peak bytes, which pins how much working memory generating a prompt
//! holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hybrimoe::remote::RemoteWorkerOptions;
use hybrimoe::serve::{ContinuousBatcher, RequestSpec, DEFAULT_PRIORITY};
use hybrimoe::{BackendKind, Engine, EngineConfig, Framework, RealExecOptions};
use hybrimoe_hw::SimTime;
use hybrimoe_kernels::{ExecScratch, ExpertFfn, KernelBackendKind, WorkerPool};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{TraceGenerator, TraceStep};
use hybrimoe_worker::{Endpoint, WorkerHandle, WorkerServer, WorkerServerOptions};

/// Counts the allocations (and growing reallocations) of the calling
/// thread, and the bytes it holds live and at its peak, so the test
/// harness's own threads do not disturb the counts.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (negative when it
    /// frees what another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

fn peak_bytes() -> i64 {
    PEAK.with(Cell::get)
}

/// Restarts the calling thread's peak from what it holds live now.
fn reset_peak() {
    PEAK.with(|p| p.set(live_bytes()));
}

/// Moves the calling thread's live bytes by `delta`, raising its peak.
fn track(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only additions are thread-local counter updates, which neither allocate
// (the cells are const-initialized and have no destructor) nor touch the
// memory being managed.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// What one decode step may allocate: the busy vector of the
/// `StepMetrics` it returns, with one spare for a buffer that meets a new
/// high-water mark (a layer activating more experts than any before it).
const STEP_ALLOCATION_BUDGET: u64 = 2;

/// Every preset is pinned: each scheduler writes its plan into the reused
/// one, and between them the presets run both prefetchers that plan on
/// this path (HybriMoE's impact-driven one, AdapMoE's next-layer top-k).
#[test]
fn a_warm_decode_step_stays_off_the_heap() {
    for framework in Framework::ALL {
        let model = ModelConfig::deepseek();
        let mut engine = Engine::new(EngineConfig::preset(framework, model.clone(), 0.25));
        let trace = TraceGenerator::new(model, 17).decode_trace(96);
        let (warmup, measured) = trace.steps.split_at(32);
        // The first steps fill the cache to capacity and grow every reused
        // buffer to its working size.
        for step in warmup {
            engine.step(step);
        }

        let mut worst = 0;
        let mut total = 0;
        for step in measured {
            let before = allocations();
            let metrics = engine.step(step);
            let spent = allocations() - before;
            drop(metrics);
            worst = worst.max(spent);
            total += spent;
        }
        assert!(
            worst <= STEP_ALLOCATION_BUDGET,
            "{}: a warm decode step allocated {worst} times \
             (budget {STEP_ALLOCATION_BUDGET})",
            framework.name()
        );
        // Nearly every step allocates exactly its returned metrics.
        assert!(
            total <= measured.len() as u64 + 4,
            "{}: {total} allocations over {} warm decode steps",
            framework.name(),
            measured.len()
        );
    }
}

/// A warm decode step executing for real allocates what it hands out and
/// nothing more: each layer's output vector, the list carrying them
/// (drained by `take_real_outputs`) and the busy vector of the returned
/// metrics. The plan is charged on the engine's reused replay, and the
/// executor records its expert times in a reused buffer.
#[test]
fn a_warm_real_decode_step_allocates_only_its_outputs() {
    let mut engine = Engine::new(real_config(RemoteWorkerOptions::default()));
    warm_real_decode_steps_allocate_only_their_outputs(&mut engine);
}

/// The same steps with every expert sent to one of two loopback workers:
/// the fleet queues each batch on a reused buffer and decodes each reply
/// into another, so the engine thread allocates what it does locally. The
/// counter is per thread, so the workers' own allocations do not count.
#[test]
fn a_warm_remote_decode_step_allocates_only_its_outputs() {
    let workers: Vec<WorkerHandle> = (0..2)
        .map(|_| {
            WorkerServer::bind(
                &Endpoint::parse("127.0.0.1:0"),
                WorkerServerOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .expect("bind a loopback worker")
            .spawn()
        })
        .collect();
    let endpoints = workers.iter().map(|w| w.endpoint().to_string()).collect();
    let mut engine = Engine::new(real_config(RemoteWorkerOptions {
        endpoints,
        ..Default::default()
    }));
    warm_real_decode_steps_allocate_only_their_outputs(&mut engine);
    let health = engine.worker_health().expect("endpoints configured");
    assert!(health.requests > 0, "no batch ran remotely: {health:?}");
    assert_eq!(health.failovers, 0, "{health:?}");
    for worker in workers {
        worker.shutdown();
    }
}

/// A HybriMoE engine executing the tiny model for real on one kernel
/// thread, its experts offered to `remote`'s workers.
fn real_config(remote: RemoteWorkerOptions) -> EngineConfig {
    EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5)
        .with_backend(BackendKind::RealCpu)
        .with_real_exec(RealExecOptions {
            max_threads: 1,
            ..Default::default()
        })
        .with_remote_workers(remote)
}

fn warm_real_decode_steps_allocate_only_their_outputs(engine: &mut Engine) {
    let model = ModelConfig::tiny_test();
    let generator = TraceGenerator::new(model.clone(), 17).with_token_states();
    // A long prompt activates, and so materializes, every expert's
    // weights; the first decode steps grow every reused buffer to its
    // working size.
    let prompt = generator.prefill_trace(64);
    let trace = generator.decode_trace(48);
    let (warmup, measured) = trace.steps.split_at(16);
    for step in prompt.steps.iter().chain(warmup) {
        engine.step(step);
        engine.take_real_outputs();
    }

    let owned = u64::from(model.layers) + 2;
    for step in measured {
        let before = allocations();
        let metrics = engine.step(step);
        let outputs = engine.take_real_outputs();
        let spent = allocations() - before;
        assert_eq!(outputs.len(), model.layers as usize);
        drop((metrics, outputs));
        assert!(
            spent <= owned,
            "a warm real decode step allocated {spent} times, it hands out {owned} buffers"
        );
    }
}

/// A warm decode stream routes into reused buffers: a step allocates
/// exactly the buffers the `TraceStep` it returns owns — its layers `Vec`,
/// and per layer the loads and score masses of each routing (true and
/// predicted) plus the `predicted` list when it is non-empty.
#[test]
fn a_warm_trace_step_allocates_only_what_it_returns() {
    let models = std::iter::once(ModelConfig::tiny_test()).chain(ModelConfig::paper_models());
    for model in models {
        let mut stream = TraceGenerator::new(model.clone(), 17).decode_stream();
        // The first step grows the reused buffers to their working size.
        stream.next_step();
        for _ in 0..8 {
            let before = allocations();
            let step = stream.next_step();
            let spent = allocations() - before;
            let owned = owned_buffers(&step);
            assert_eq!(
                spent, owned,
                "{}: a warm decode step allocated {spent} times, its step owns {owned} buffers",
                model.name
            );
        }
    }
}

/// A warm decode stream routes a token into an existing step without a
/// heap buffer: the step's routings have their size, and the stream's
/// scratch has its working size after the first token.
#[test]
fn a_warm_routed_decode_token_allocates_nothing() {
    let models = std::iter::once(ModelConfig::tiny_test()).chain(ModelConfig::paper_models());
    for model in models {
        let generator = TraceGenerator::new(model.clone(), 17);
        let mut stream = generator.decode_stream();
        let mut step = generator.empty_step();
        stream.next_step_into(&mut step);
        for _ in 0..8 {
            let before = allocations();
            stream.next_step_into(&mut step);
            let spent = allocations() - before;
            assert_eq!(
                spent, 0,
                "{}: a warm routed decode token allocated {spent} times",
                model.name
            );
        }
        assert_eq!(step.tokens, 9);
    }
}

/// Working memory a prompt pass may hold beyond the prompt's latents:
/// one token's innovations, the router scratch and the bookkeeping.
const PROMPT_PASS_SLACK: i64 = 64 * 1024;

/// Generating a request's prompt holds at most the prompt's latents (one
/// `latent_dim` vector of `f64` per token) beyond what it returns: each
/// token's layer noise is drawn just before that token's pass, into one
/// reused buffer, so no buffer grows with tokens × layers.
#[test]
fn a_prompt_pass_holds_only_its_latents_beyond_what_it_returns() {
    for model in [ModelConfig::mixtral(), ModelConfig::deepseek()] {
        let generator = TraceGenerator::new(model.clone(), 17);
        let latent_dim = generator.config().latent_dim as i64;
        for tokens in [512u32, 4096] {
            reset_peak();
            let request = generator.request(tokens);
            let transient = peak_bytes() - live_bytes();
            drop(request);
            let bound = i64::from(tokens) * latent_dim * 8 + PROMPT_PASS_SLACK;
            assert!(
                transient <= bound,
                "{}: a {tokens}-token prompt held {transient} bytes beyond what it \
                 returned (bound {bound})",
                model.name
            );
        }
    }
}

/// The heap buffers a simulation-only `TraceStep` owns: its layers `Vec`,
/// and per layer the loads and score masses of each routing (true and
/// predicted) plus the `predicted` list when it is non-empty.
fn owned_buffers(step: &TraceStep) -> u64 {
    1 + step
        .layers
        .iter()
        .map(|rec| {
            let routings = 1 + rec.predicted.len() as u64;
            2 * routings + u64::from(!rec.predicted.is_empty())
        })
        .sum::<u64>()
}

/// The lists a continuous-batcher decode step allocates besides the
/// engine step: which requests carried a prefill chunk, and the decoded
/// tokens it reports.
const BATCHER_STEP_LISTS: u64 = 2;

/// A warm decode step of a two-request batch routes each request's token
/// straight into the batcher's reused step: it allocates the batcher's
/// per-step lists and what one engine step may, and no trace buffer.
#[test]
fn a_warm_batcher_decode_step_allocates_no_trace_buffers() {
    let mut batcher = ContinuousBatcher::new(
        EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5),
        2,
        7,
    );
    for id in 0..2 {
        batcher.enqueue(RequestSpec {
            id,
            arrival: SimTime::ZERO,
            prompt_tokens: 8,
            decode_tokens: 64,
            priority: DEFAULT_PRIORITY,
            deadline: None,
        });
    }
    let mut now = SimTime::ZERO;
    // The admitting step, then decode steps that grow every reused buffer
    // to its working size.
    for _ in 0..24 {
        now = batcher.step(now, |latency| now + latency).end;
    }

    let budget = BATCHER_STEP_LISTS + STEP_ALLOCATION_BUDGET;
    for _ in 0..16 {
        let before = allocations();
        let outcome = batcher.step(now, |latency| now + latency);
        let spent = allocations() - before;
        assert_eq!(outcome.decoded.len(), 2);
        now = outcome.end;
        drop(outcome);
        assert!(
            spent <= budget,
            "a warm two-request batcher step allocated {spent} times, budget {budget}"
        );
    }
}

#[test]
fn a_warm_expert_forward_stays_off_the_heap() {
    let (hidden, inter) = (64, 96);
    let ffn = ExpertFfn::random(hidden, inter, 5);
    let backend = KernelBackendKind::Auto.resolve();
    // Two parts, so the bands really are handed across threads.
    let pool = WorkerPool::new(2);
    let mut scratch = ExecScratch::new();
    // The GEMV path, then the GEMM path through the many-token tiles.
    for tokens in [1usize, 8] {
        let x = vec![0.05f32; tokens * hidden];
        let mut y = vec![0.0f32; tokens * hidden];
        // Grows the scratch to this batch size.
        ffn.forward_batch_into(&x, tokens, &mut y, &mut scratch, &pool, backend);
        let before = allocations();
        ffn.forward_batch_into(&x, tokens, &mut y, &mut scratch, &pool, backend);
        let spent = allocations() - before;
        assert_eq!(spent, 0, "a warm {tokens}-token expert forward allocated");
    }
}
