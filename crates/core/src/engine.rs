//! The HybriMoE inference engine.

use std::collections::VecDeque;

use hybrimoe_cache::{CacheStats, InsertOutcome, ShardedExpertCache};
use hybrimoe_fault::{FaultRates, FaultStream};
use hybrimoe_hw::{
    device_count, AffineCostModel, CalibrationProfile, CostModel, Device, SimDuration,
};
use hybrimoe_model::{shard_of, ExpertId, ExpertKey, LayerId, LayerRouting};
use hybrimoe_sched::{
    ExpertPredictor, ExpertTask, PredictedLayer, PrefetchContext, PrefetchScratch, Prefetcher,
    ScheduleContext, ScheduleScratch, Scheduler, TransitionPredictor,
};
use hybrimoe_trace::{ActivationTrace, TraceGenerator, TraceStep};

use crate::backend::{ExecutionBackend, LayerOutcome, LayerRequest};
use crate::realexec::RealLayerOutput;
use crate::{EngineConfig, PlacementKind, PrefetcherKind, StageMetrics, StepMetrics};

/// Runs MoE inference over activation traces on the modeled hybrid
/// platform, with pluggable scheduler, prefetcher and cache policy.
///
/// The engine mirrors the paper's per-layer loop: route → look up the cache
/// → schedule the activated experts across CPU/GPU/PCIe → execute → update
/// the cache with on-demand transfers → use idle PCIe time for prefetching
/// (and cache refill). The warmup phase (§IV-A) happens in [`Engine::new`]:
/// a short calibration trace drives the initial cache placement and primes
/// the score estimates of the cache policy.
///
/// # Incremental stepping
///
/// The fundamental unit of work is one forward pass: [`Engine::step`] runs
/// a single [`TraceStep`] (a decode token batch or a prefill batch) and
/// returns its [`StepMetrics`]. [`Engine::run`] is a thin loop over `step`
/// bracketed by [`Engine::begin_stage`]/[`Engine::end_stage`], which
/// aggregate per-step metrics and cache-statistics deltas into
/// [`StageMetrics`]. A serving layer drives `step` directly, feeding it
/// merged batches formed from concurrently active requests (see
/// [`crate::serve`]).
///
/// # Execution backends
///
/// Schedule *construction* (routing, cache lookups, scheduling) is always
/// analytic; schedule *execution* is delegated to the configured
/// [`ExecutionBackend`]: the default [`SimBackend`](crate::SimBackend)
/// replays plans on the simulated device timelines, while
/// [`RealCpuBackend`](crate::RealCpuBackend) runs every expert partition
/// with the quantized CPU kernels and reports measured wall-clock (see
/// [`crate::backend`]). The real backend requires traces generated with
/// [`TraceGenerator::with_token_states`].
///
/// # Example
///
/// ```
/// use hybrimoe::{Engine, EngineConfig, Framework};
/// use hybrimoe_model::ModelConfig;
/// use hybrimoe_trace::TraceGenerator;
///
/// let model = ModelConfig::deepseek();
/// let mut hybri = Engine::new(EngineConfig::preset(Framework::HybriMoe, model.clone(), 0.25));
/// let mut ktrans = Engine::new(EngineConfig::preset(Framework::KTransformers, model.clone(), 0.25));
/// let trace = TraceGenerator::new(model, 7).decode_trace(4);
/// let a = hybri.run(&trace);
/// let b = ktrans.run(&trace);
/// assert!(a.total <= b.total); // HybriMoE never loses to the fixed mapping
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cost: AffineCostModel,
    cache: ShardedExpertCache,
    scheduler: Box<dyn Scheduler>,
    prefetcher: Box<dyn Prefetcher>,
    /// Executes each layer's schedule: analytic simulation or real kernels
    /// (see [`crate::backend`]). Schedule construction is backend-agnostic.
    backend: Box<dyn ExecutionBackend>,
    /// Number of fully GPU-resident layers (whole-layer placement).
    resident_layers: u16,
    /// Background PCIe transfers in flight (prefetches and refills), each
    /// with its remaining wire time. Background transfers pipeline across
    /// layer boundaries: a Mixtral-sized expert takes longer than one
    /// decode layer, so restricting transfers to a single layer's idle
    /// window would starve prefetching entirely.
    inflight: VecDeque<Transfer>,
    /// Learned cross-layer expert predictor, present when the configured
    /// prefetcher is [`PrefetcherKind::Predictive`]. It observes every
    /// routing the engine executes and supplies the prefetch lookahead
    /// (with measured per-distance confidence) in place of the trace's
    /// oracle-decay predictions.
    predictor: Option<TransitionPredictor>,
    /// Transfers that finished during the current step, staged until the
    /// next step boundary (pipelined prefetch only): committing at the
    /// boundary keeps mid-step cache state identical for every layer of a
    /// forward pass and makes landings observable exactly once per step.
    pending_commit: Vec<(ExpertKey, bool)>,
    /// The last routing the engine executed, kept so pipelined mode can
    /// issue prefetch for the *next* forward pass at step boundaries.
    last_routing: Option<LayerRouting>,
    /// Cumulative prefetch accounting (issued / landed / wasted).
    counters: PrefetchCounters,
    /// Reused per-layer buffers (no steady-state allocation in a step).
    scratch: StepScratch,
    /// The currently open stage, if any.
    stage: Option<StageAccum>,
    /// Seeded fault injector for the step loop, present only when the
    /// configured [`EngineConfig::fault_plan`] arms an engine knob
    /// (`spike_ppm` or `panic_ppm`) — the off path costs one branch.
    faults: Option<EngineFaults>,
}

/// Deterministic engine-step fault state: the plan's rates plus the
/// `engine.step` roll stream (advances once per armed knob per step, so
/// outcomes are bit-reproducible from the plan seed regardless of timing).
#[derive(Debug)]
struct EngineFaults {
    rates: FaultRates,
    stream: FaultStream,
}

/// One background PCIe transfer in flight.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    key: ExpertKey,
    remaining: SimDuration,
    /// Whether the transfer was issued by the prefetcher (as opposed to a
    /// refill-on-miss), for the issued/landed/wasted accounting.
    prefetch: bool,
}

/// The buffers one engine step works in, kept across layers and steps so a
/// steady-state step allocates nothing but the metrics it returns.
#[derive(Debug, Default)]
struct StepScratch {
    /// The layer's tasks, protected keys, scheduler queues and plan.
    sched: ScheduleScratch,
    /// The backend's report on the layer just executed.
    outcome: LayerOutcome,
    /// Idle PCIe time left on each lane (pipelined prefetch).
    lane_budgets: Vec<SimDuration>,
    /// The layer's mean router scores, ranking its missed experts.
    mean_scores: Vec<f32>,
    /// The layer's missed experts that no demand transfer covered, ranked
    /// for refill.
    missed: Vec<ExpertId>,
    /// The prefetcher's inputs and working buffers.
    lookahead: Lookahead,
    shard_free: Vec<usize>,
    prefetch: PrefetchScratch,
}

/// A reusable prefetch lookahead: predicted layers (with the buffers of
/// the entries beyond `len` kept for the next fill) and, for learned
/// predictions, their per-distance confidence.
#[derive(Debug, Default)]
struct Lookahead {
    layers: Vec<PredictedLayer>,
    len: usize,
    confidence: Vec<f64>,
}

impl Lookahead {
    fn clear(&mut self) {
        self.len = 0;
        self.confidence.clear();
    }

    /// Appends an empty prediction for `layer`, reusing a spare entry's
    /// buffers when there is one.
    fn push(&mut self, layer: LayerId) -> &mut PredictedLayer {
        if self.len == self.layers.len() {
            self.layers.push(PredictedLayer {
                layer,
                tasks: Vec::new(),
                scores: Vec::new(),
            });
        }
        let entry = &mut self.layers[self.len];
        self.len += 1;
        entry.layer = layer;
        entry.tasks.clear();
        entry.scores.clear();
        entry
    }

    fn layers(&self) -> &[PredictedLayer] {
        &self.layers[..self.len]
    }
}

/// Cumulative background-prefetch accounting since the engine was built
/// (never reset by [`Engine::warmup`]; surfaced at `GET /metrics`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchCounters {
    /// Prefetch transfers enqueued on the background PCIe queue.
    pub issued: u64,
    /// Prefetch transfers that completed and entered the cache.
    pub landed: u64,
    /// Prefetch transfers whose wire time was spent for nothing: the
    /// expert could not enter the cache (no eligible slot, or it became
    /// resident through another path first) or the queue was discarded
    /// before the transfer finished (re-warm).
    pub wasted: u64,
}

/// Accumulates the metrics of an open stage.
#[derive(Debug)]
struct StageAccum {
    base: CacheStats,
    steps: Vec<StepMetrics>,
}

impl Engine {
    /// Builds the engine and runs the warmup phase (initial placement and
    /// policy priming). Equivalent to [`Engine::cold`] followed by
    /// [`Engine::warmup`].
    pub fn new(config: EngineConfig) -> Engine {
        let mut engine = Engine::cold(config);
        engine.warmup();
        engine
    }

    /// Builds the engine **without** warming up: the cache starts empty and
    /// the policy unprimed. Call [`Engine::warmup`] before measuring, or
    /// run cold deliberately (e.g. to study cold-start behaviour).
    pub fn cold(config: EngineConfig) -> Engine {
        let cost = AffineCostModel::from_platform(&config.platform);
        let capacity = config.cache_capacity();
        // One cache shard (and one policy instance) per GPU: residency and
        // score estimates are device-local under the affinity map.
        let cache = ShardedExpertCache::new(capacity, config.num_gpus.max(1), || {
            config.cache_policy.build(config.mrs_alpha)
        });

        let predictor = (config.prefetcher == PrefetcherKind::Predictive).then(|| {
            TransitionPredictor::new(
                config.model.layers as usize,
                config.model.routed_experts as usize,
            )
        });

        let faults = (config.fault_plan.rates.spike_ppm > 0
            || config.fault_plan.rates.panic_ppm > 0)
            .then(|| EngineFaults {
                rates: config.fault_plan.rates,
                stream: config.fault_plan.stream("engine.step"),
            });

        Engine {
            scheduler: config.scheduler.build(),
            prefetcher: config.prefetcher.build(),
            backend: config.backend.build(&config),
            cost,
            cache,
            config,
            resident_layers: 0,
            inflight: VecDeque::new(),
            predictor,
            pending_commit: Vec::new(),
            last_routing: None,
            counters: PrefetchCounters::default(),
            scratch: StepScratch::default(),
            stage: None,
            faults,
        }
    }

    /// Runs the warmup phase (§IV-A): fills the cache according to the
    /// configured placement, pins it if the framework is static, primes the
    /// policy's score estimates, and resets the cache statistics so
    /// measurement starts clean. Warming an already-warm engine re-primes
    /// the policy, re-applies the placement (which can evict residents that
    /// drifted from it while the cache was full), and resets the
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if a stage is open: resetting statistics mid-stage would
    /// invalidate the stage's baseline snapshot.
    pub fn warmup(&mut self) {
        assert!(self.stage.is_none(), "cannot warm up while a stage is open");
        // Background transfers queued by a previous workload would leak
        // into the next measurement; warmup starts clean. Discarded
        // prefetches spent wire time without landing.
        self.counters.wasted += self.inflight.iter().filter(|t| t.prefetch).count() as u64
            + self.pending_commit.iter().filter(|(_, p)| *p).count() as u64;
        self.inflight.clear();
        self.pending_commit.clear();
        self.last_routing = None;
        // Prime the learned predictor on the same warmup trace that drives
        // the frequency placement, so serving starts with a usable
        // transition matrix instead of a cold decline-to-predict phase.
        if let Some(pred) = self.predictor.as_mut() {
            let warm =
                TraceGenerator::new(self.config.model.clone(), self.config.seed ^ 0x57A2_77A2)
                    .decode_trace(24);
            for step in &warm.steps {
                for rec in &step.layers {
                    pred.observe(&rec.routing);
                }
            }
        }
        match self.config.placement {
            PlacementKind::WholeLayers => {
                let capacity = self.cache.capacity();
                self.resident_layers =
                    (capacity / self.config.model.routed_experts.max(1) as usize) as u16;
                let placement: Vec<ExpertKey> =
                    (0..self.resident_layers.min(self.config.model.layers))
                        .flat_map(|l| {
                            (0..self.config.model.routed_experts)
                                .map(move |e| ExpertKey::new(LayerId(l), ExpertId(e)))
                        })
                        .collect();
                apply_placement(&mut self.cache, &placement, self.config.pinned);
            }
            PlacementKind::PerLayerFrequency => {
                place_by_frequency(&mut self.cache, &self.config);
            }
        }
        self.cache.reset_stats();
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current cache shards (resident sets and statistics).
    pub fn cache(&self) -> &ShardedExpertCache {
        &self.cache
    }

    /// The execution backend running the schedules.
    pub fn backend(&self) -> &dyn ExecutionBackend {
        self.backend.as_ref()
    }

    /// Drains the numerical layer outputs of the most recent step, in layer
    /// order. Empty unless the engine runs a real-execution backend.
    pub fn take_real_outputs(&mut self) -> Vec<RealLayerOutput> {
        self.backend.take_step_outputs()
    }

    /// The CPU calibration the backend has accumulated so far, if it
    /// measures real kernels. Feed it back through
    /// [`Platform::with_calibration`](hybrimoe_hw::Platform::with_calibration)
    /// to ground the simulator's CPU constants in measured runs.
    pub fn backend_calibration(&self) -> Option<CalibrationProfile> {
        self.backend.calibration()
    }

    /// Worker fleet health, if the engine runs the remote-worker backend
    /// ([`crate::BackendKind::RemoteWorkers`]); `None` for local backends.
    pub fn worker_health(&self) -> Option<hybrimoe_worker::WorkerHealthSnapshot> {
        self.backend.worker_health()
    }

    /// Cumulative prefetch accounting (issued / landed / wasted) since the
    /// engine was built.
    pub fn prefetch_counters(&self) -> PrefetchCounters {
        self.counters
    }

    /// The learned predictor's running top-k accuracy, if one is
    /// configured ([`PrefetcherKind::Predictive`]); `0.0` before the first
    /// scored transition.
    pub fn predictor_accuracy(&self) -> Option<f64> {
        self.predictor.as_ref().map(ExpertPredictor::accuracy)
    }

    /// Prefetched transfers that finished during the current step and are
    /// staged for the next step boundary (pipelined mode only — empty
    /// otherwise). Staged landings become cache-resident, or are counted
    /// wasted, exactly when the next step begins.
    pub fn pending_prefetch_commits(&self) -> Vec<ExpertKey> {
        self.pending_commit
            .iter()
            .filter(|(_, prefetch)| *prefetch)
            .map(|(key, _)| *key)
            .collect()
    }

    /// Cache hit ratio per GPU shard since the last statistics reset
    /// (`0.0` for shards with no lookups yet).
    pub fn shard_hit_ratios(&self) -> Vec<f64> {
        (0..self.cache.num_shards())
            .map(|s| self.cache.shard(s).stats().hit_rate())
            .collect()
    }

    /// Opens a stage: subsequent [`Engine::step`] calls accumulate into it
    /// until [`Engine::end_stage`] closes it.
    ///
    /// # Panics
    ///
    /// Panics if a stage is already open.
    pub fn begin_stage(&mut self) {
        assert!(self.stage.is_none(), "a stage is already open");
        self.stage = Some(StageAccum {
            base: self.cache.stats(),
            steps: Vec::new(),
        });
        // Pipelined mode issues prefetch for the coming forward pass at the
        // stage boundary, so the transfers overlap the pass's first layers
        // instead of waiting for its own planning points.
        if self.config.pipelined_prefetch {
            self.issue_boundary_prefetch();
        }
    }

    /// Issues prefetch transfers for the *next* forward pass from the last
    /// observed routing (pipelined mode). The learned predictor projects
    /// past the model end, so distances 1.. map to the next pass's layers
    /// 0, 1, …; without a (warm) predictor this is a no-op.
    fn issue_boundary_prefetch(&mut self) {
        let Some(routing) = self.last_routing.take() else {
            return;
        };
        let max_inflight = self.config.max_inflight;
        let queue_slots = max_inflight.saturating_sub(self.inflight.len());
        let StepScratch {
            lookahead,
            shard_free,
            prefetch,
            ..
        } = &mut self.scratch;
        if queue_slots > 0
            && predicted_lookahead(
                self.predictor.as_ref(),
                &self.cache,
                self.config.model.layers as usize,
                self.config.prefetch_lookahead,
                &routing,
                lookahead,
            )
        {
            let routed_profile = self.config.model.routed_profile();
            let transfer_time = self.cost.transfer(&routed_profile);
            shard_free_slots(&self.cache, shard_free);
            let pctx = PrefetchContext {
                current_layer: routing.layer(),
                lookahead: lookahead.layers(),
                free_slots: queue_slots,
                budget: transfer_time * queue_slots as u64,
                tokens: routing.tokens().max(1),
                routed_profile,
                shared_profile: self.config.model.shared_profile(),
                cost: &self.cost,
                num_gpus: self.config.num_gpus.max(1),
                confidence: Some(&lookahead.confidence),
                shard_free: Some(shard_free),
            };
            for key in self.prefetcher.plan_with(&pctx, prefetch) {
                if enqueue_background(
                    &mut self.inflight,
                    &self.cache,
                    &self.pending_commit,
                    max_inflight,
                    *key,
                    transfer_time,
                    true,
                ) {
                    self.counters.issued += 1;
                }
            }
        }
        self.last_routing = Some(routing);
    }

    /// Commits transfers that finished during the previous step into the
    /// cache at the step boundary (pipelined mode). Commits never evict —
    /// staged landings take free slots only, preserving the
    /// prefetch-never-evicts invariant even though the protected set of
    /// the step they finished in is long gone. Returns how many entered
    /// the cache.
    fn commit_landed(&mut self) -> u32 {
        let mut landed = 0u32;
        for (key, prefetch) in std::mem::take(&mut self.pending_commit) {
            let outcome = self.cache.insert_if_free(key);
            let entered = matches!(
                outcome,
                InsertOutcome::Inserted | InsertOutcome::InsertedEvicting(_)
            );
            if entered {
                landed += 1;
            }
            if prefetch {
                if entered {
                    self.counters.landed += 1;
                } else {
                    self.counters.wasted += 1;
                }
            }
        }
        landed
    }

    /// Closes the open stage and returns its aggregated metrics (per-step
    /// metrics plus the cache-statistics delta over the stage).
    ///
    /// # Panics
    ///
    /// Panics if no stage is open.
    pub fn end_stage(&mut self) -> StageMetrics {
        let stage = self
            .stage
            .take()
            .expect("no open stage: call begin_stage first");
        StageMetrics::from_steps(stage.steps, diff_stats(stage.base, self.cache.stats()))
    }

    /// Runs every step of `trace` and returns the stage metrics. A thin
    /// loop over the incremental API:
    /// [`begin_stage`](Self::begin_stage) → [`step`](Self::step)* →
    /// [`end_stage`](Self::end_stage).
    ///
    /// # Panics
    ///
    /// Panics if the trace was generated for a different model (layer or
    /// expert counts disagree) or a stage is already open.
    pub fn run(&mut self, trace: &ActivationTrace) -> StageMetrics {
        self.begin_stage();
        for step in &trace.steps {
            self.step(step);
        }
        self.end_stage()
    }

    /// Runs one forward pass (a decode token batch or a prefill batch) and
    /// returns its metrics. If a stage is open, the step is also
    /// accumulated into it.
    ///
    /// # Panics
    ///
    /// Panics if the step was generated for a different model.
    pub fn step(&mut self, step: &TraceStep) -> StepMetrics {
        assert_eq!(
            step.layers.len(),
            self.config.model.layers as usize,
            "trace was generated for a different model"
        );
        // Injected faults roll before any work so a panicking step never
        // half-mutates engine state beyond what a real mid-step panic
        // could. A spike lands on both clocks: the modeled latency (for
        // sim-driven soaks) and wall time (for live-server SLOs).
        let spike = match self.faults.as_mut() {
            None => SimDuration::ZERO,
            Some(chaos) => {
                if chaos.stream.roll_ppm(chaos.rates.panic_ppm) {
                    panic!("injected engine fault: step panic");
                }
                if chaos.stream.roll_ppm(chaos.rates.spike_ppm) {
                    std::thread::sleep(std::time::Duration::from_millis(chaos.rates.spike_ms));
                    SimDuration::from_millis(chaos.rates.spike_ms)
                } else {
                    SimDuration::ZERO
                }
            }
        };
        let tokens = step.tokens;
        self.backend.begin_step();
        // Profiles and counts are Copy; no need to clone the model config
        // on the hot path.
        let routed_profile = self.config.model.routed_profile();
        let shared_profile = self.config.model.shared_profile();
        let attn_profile = self.config.model.attention_profile();
        let k = self.config.model.activated_experts;
        let max_inflight = self.config.max_inflight;
        let num_gpus = self.config.num_gpus.max(1);

        let mut latency = spike;
        let mut busy = vec![SimDuration::ZERO; device_count(num_gpus)];
        let mut cpu_experts = 0u32;
        let mut gpu_experts = 0u32;
        let mut demand_transfers = 0u32;
        let mut prefetches = 0u32;

        // Pipelined mode: transfers that finished during the previous step
        // become cache-resident now, at the step boundary.
        let pipelined = self.config.pipelined_prefetch;
        if pipelined {
            prefetches += self.commit_landed();
        }

        // Prefill steps may cap background cache-promotion work (prefetch
        // and refill enqueues) at `max_deferred_experts_per_token × tokens`
        // so a huge prompt cannot monopolize the PCIe link against
        // concurrent decodes. `usize::MAX` = legacy unbounded.
        let prefill_batch = tokens >= hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD;
        let mut deferred_budget: usize = if prefill_batch
            && self.config.max_deferred_experts_per_token != u32::MAX
        {
            (self.config.max_deferred_experts_per_token as usize).saturating_mul(tokens as usize)
        } else {
            usize::MAX
        };

        // Everything below works in the step scratch; the engine's other
        // fields are borrowed one by one beside it.
        let StepScratch {
            sched,
            outcome,
            lane_budgets,
            mean_scores,
            missed,
            lookahead,
            shard_free,
            prefetch,
        } = &mut self.scratch;

        for (l, rec) in step.layers.iter().enumerate() {
            let layer = LayerId(l as u16);
            // 1. The cache policy observes the routing scores (Eq. 3), and
            // so does the learned cross-layer predictor when one is
            // configured (it scores its previous prediction and updates
            // the transition matrix online).
            self.cache.note_routing(&rec.routing, k);
            if let Some(pred) = self.predictor.as_mut() {
                pred.observe(&rec.routing);
            }

            // 2. Non-MoE work (attention, norms). llama.cpp runs it on the
            // device the layer is mapped to at decode — for prefill batches
            // even CPU layers push the heavy matmuls to the GPU (cuBLAS
            // offload). Everyone else keeps it on the GPU.
            let attn_on_gpu = !self.config.attention_follows_layer
                || prefill_batch
                || layer_resident(&self.config, self.resident_layers, &self.cache, layer);
            let attn_time = if attn_on_gpu {
                self.cost.gpu_compute(&attn_profile, tokens)
            } else {
                self.cost.cpu_compute(&attn_profile, tokens, false)
            };
            // Attention (and the other non-MoE work) runs on GPU 0: it is
            // not expert-sharded, so it stays on the shard holding the
            // pinned shared experts.
            let attn_device = if attn_on_gpu {
                Device::gpu(0)
            } else {
                Device::Cpu
            };
            busy[attn_device.ordinal(num_gpus)] += attn_time;

            // 3. Cache lookups define the task set; the activated experts
            // are also the protected set (never evicted while in flight).
            // Scratch buffers are reused across layers and steps.
            let ScheduleScratch {
                tasks,
                protect,
                queues,
                plan,
            } = sched.begin_layer();
            for (expert, load) in rec.routing.activated_iter() {
                let key = ExpertKey::new(layer, expert);
                protect.push(key);
                tasks.push(ExpertTask {
                    expert,
                    load,
                    cached: self.cache.lookup(key),
                });
            }

            // 4. Schedule and execute the layer.
            let ctx = ScheduleContext::new(
                layer,
                tokens,
                tasks,
                routed_profile,
                shared_profile,
                &self.cost,
            )
            .with_gpus(num_gpus);
            self.scheduler.schedule_into(&ctx, queues, plan);
            debug_assert_eq!(plan.validate(tasks), Ok(()), "invalid plan from scheduler");
            self.backend.execute_layer(
                &LayerRequest {
                    layer,
                    plan,
                    ctx: &ctx,
                    states: rec.states.as_ref(),
                },
                outcome,
            );
            let moe_makespan = outcome.makespan;

            cpu_experts += plan.cpu_order.len() as u32;
            gpu_experts += plan.gpu_order.len() as u32;
            demand_transfers += plan.pcie_order.len() as u32;
            debug_assert_eq!(outcome.busy.len(), busy.len());
            for (acc, b) in busy.iter_mut().zip(outcome.busy.iter()) {
                *acc += *b;
            }

            // 5. On-demand transfers become resident (may evict per policy,
            // but never the experts of the layer in flight). llama.cpp-style
            // streamed weights (transfer_profile set) are discarded after
            // the matmul and never enter the cache.
            //
            // During a prefill batch each layer is visited exactly once, so
            // evicting a placed expert of a *later* layer to cache a
            // transfer is strictly harmful within the pass; inserts go to
            // free slots only ("subject to free cache space", §IV-C). At
            // decode, temporal reuse justifies eviction-based insertion.
            let evict_ok = !prefill_batch || self.config.prefill_evict_inserts;
            if plan.transfer_profile.is_none() && self.config.demand_inserts {
                for e in plan.transferred_experts() {
                    let key = ExpertKey::new(layer, e);
                    if evict_ok {
                        self.cache.insert_protected(key, protect);
                    } else {
                        self.cache.insert_if_free(key);
                    }
                }
            }

            // 6. Idle PCIe time advances background transfers (prefetches
            // and cache refills), which pipeline across layer boundaries.
            // Legacy mode budgets the idle time of the *busiest* lane — a
            // single conservative window shared by the FIFO background
            // queue (identical to the single-lane budget when `num_gpus`
            // is 1) — and lands completions immediately. Pipelined mode
            // gives every shard's lane its own idle window and stages
            // completions until the next step boundary.
            let transfer_time = self.cost.transfer(&routed_profile);
            let lane_busy = |g: usize| outcome.busy[Device::pcie(g as u8).ordinal(num_gpus)];
            let mut budget = SimDuration::ZERO;
            if pipelined {
                lane_budgets.clear();
                lane_budgets.extend(
                    (0..num_gpus).map(|g| moe_makespan.saturating_sub(lane_busy(g)) + attn_time),
                );
                drain_inflight_lanes(
                    &mut self.inflight,
                    num_gpus,
                    lane_budgets,
                    &mut busy,
                    &mut self.pending_commit,
                );
            } else {
                let pcie_busy = (0..num_gpus)
                    .map(lane_busy)
                    .fold(SimDuration::ZERO, SimDuration::max);
                budget = moe_makespan.saturating_sub(pcie_busy) + attn_time;
                budget = drain_inflight(
                    &mut self.inflight,
                    &mut self.cache,
                    num_gpus,
                    budget,
                    evict_ok,
                    protect,
                    &mut busy,
                    &mut prefetches,
                    &mut self.counters,
                );
            }

            // Enqueue new prefetch candidates for the predicted layers:
            // from the learned predictor when one is warm (wrapping past
            // the model end into the next forward pass), else from the
            // trace record's oracle-decay predictions.
            let queue_slots = max_inflight.saturating_sub(self.inflight.len());
            if queue_slots > 0 && deferred_budget > 0 {
                let learned = predicted_lookahead(
                    self.predictor.as_ref(),
                    &self.cache,
                    self.config.model.layers as usize,
                    self.config.prefetch_lookahead,
                    &rec.routing,
                    lookahead,
                );
                if !learned {
                    build_lookahead(&self.cache, rec, lookahead);
                }
                if !lookahead.layers().is_empty() {
                    if pipelined {
                        shard_free_slots(&self.cache, shard_free);
                    }
                    let pctx = PrefetchContext {
                        current_layer: layer,
                        lookahead: lookahead.layers(),
                        free_slots: queue_slots,
                        budget: transfer_time * queue_slots as u64,
                        tokens,
                        routed_profile,
                        shared_profile,
                        cost: &self.cost,
                        num_gpus,
                        confidence: learned.then_some(&lookahead.confidence),
                        shard_free: pipelined.then_some(shard_free),
                    };
                    for key in self.prefetcher.plan_with(&pctx, prefetch) {
                        if deferred_budget == 0 {
                            break;
                        }
                        if enqueue_background(
                            &mut self.inflight,
                            &self.cache,
                            &self.pending_commit,
                            max_inflight,
                            *key,
                            transfer_time,
                            true,
                        ) {
                            self.counters.issued += 1;
                            if deferred_budget != usize::MAX {
                                deferred_budget -= 1;
                            }
                        }
                    }
                }
            }

            // Refill the highest-scoring missed experts of this layer
            // (background cache update; temporal reuse makes recently
            // missed experts likely to be needed again).
            if self.config.refill_on_miss {
                rec.routing.mean_scores_into(mean_scores);
                let score = |e: ExpertId| mean_scores.get(e.0 as usize).copied().unwrap_or(0.0);
                missed.clear();
                missed.extend(
                    tasks
                        .iter()
                        .filter(|t| !t.cached)
                        .map(|t| t.expert)
                        .filter(|e| !plan.transferred_experts().any(|x| x == *e)),
                );
                // Experts are distinct, so the order is total and the
                // unstable sort exact.
                missed.sort_unstable_by(|a, b| {
                    score(*b)
                        .partial_cmp(&score(*a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(b))
                });
                for expert in missed.iter() {
                    if deferred_budget == 0 {
                        break;
                    }
                    if enqueue_background(
                        &mut self.inflight,
                        &self.cache,
                        &self.pending_commit,
                        max_inflight,
                        ExpertKey::new(layer, *expert),
                        transfer_time,
                        false,
                    ) && deferred_budget != usize::MAX
                    {
                        deferred_budget -= 1;
                    }
                }
            }

            // Newly enqueued transfers may start in this layer's leftover
            // idle time.
            if pipelined {
                drain_inflight_lanes(
                    &mut self.inflight,
                    num_gpus,
                    lane_budgets,
                    &mut busy,
                    &mut self.pending_commit,
                );
            } else {
                drain_inflight(
                    &mut self.inflight,
                    &mut self.cache,
                    num_gpus,
                    budget,
                    evict_ok,
                    protect,
                    &mut busy,
                    &mut prefetches,
                    &mut self.counters,
                );
            }

            latency += attn_time + moe_makespan;
        }

        // Pipelined mode: remember the pass's final routing and overlap
        // prefetch planning for the *next* step with whatever runs between
        // the two (the serving layer's admission work, the next stage's
        // setup, …).
        if pipelined {
            if let Some(rec) = step.layers.last() {
                self.last_routing = Some(rec.routing.clone());
            }
            self.issue_boundary_prefetch();
        }

        let metrics = StepMetrics {
            tokens,
            latency,
            device_busy: busy,
            cpu_experts,
            gpu_experts,
            demand_transfers,
            prefetches,
        };
        if let Some(stage) = &mut self.stage {
            stage.steps.push(metrics.clone());
        }
        metrics
    }
}

/// Whether every routed expert of `layer` is resident (whole-layer mapping
/// semantics). Kept lazy: the residency scan only runs for configurations
/// whose attention placement depends on it.
fn layer_resident(
    config: &EngineConfig,
    resident_layers: u16,
    cache: &ShardedExpertCache,
    layer: LayerId,
) -> bool {
    if config.placement == PlacementKind::WholeLayers {
        return layer.0 < resident_layers;
    }
    cache.cached_in_layer(layer).len() == config.model.routed_experts as usize
}

/// Spends idle PCIe `budget` on the in-flight background transfers;
/// completed ones become resident (evicting per policy only when
/// `evict_ok`; prefill passes insert into free slots only). Each transfer
/// occupies the PCIe lane of its target expert's affinity shard. Returns
/// the leftover budget.
#[allow(clippy::too_many_arguments)]
fn drain_inflight(
    inflight: &mut VecDeque<Transfer>,
    cache: &mut ShardedExpertCache,
    num_gpus: usize,
    mut budget: SimDuration,
    evict_ok: bool,
    protect: &[ExpertKey],
    busy: &mut [SimDuration],
    prefetches: &mut u32,
    counters: &mut PrefetchCounters,
) -> SimDuration {
    while budget > SimDuration::ZERO {
        let Some(t) = inflight.front_mut() else {
            break;
        };
        let lane = Device::pcie(shard_of(t.key.expert, num_gpus) as u8).ordinal(num_gpus);
        if t.remaining > budget {
            t.remaining -= budget;
            busy[lane] += budget;
            return SimDuration::ZERO;
        }
        budget -= t.remaining;
        busy[lane] += t.remaining;
        let Transfer { key, prefetch, .. } = *t;
        inflight.pop_front();
        let outcome = if evict_ok {
            cache.insert_protected(key, protect)
        } else {
            cache.insert_if_free(key)
        };
        if outcome.is_resident() {
            *prefetches += 1;
        }
        if prefetch {
            if matches!(
                outcome,
                InsertOutcome::Inserted | InsertOutcome::InsertedEvicting(_)
            ) {
                counters.landed += 1;
            } else {
                counters.wasted += 1;
            }
        }
    }
    budget
}

/// Per-lane variant of [`drain_inflight`] for pipelined mode: every GPU
/// shard's PCIe lane spends its own idle budget on the transfers bound for
/// it (FIFO per lane; an exhausted lane skips ahead to other lanes'
/// transfers instead of blocking the whole queue). Completed transfers are
/// staged in `pending` and committed at the next step boundary, never
/// mid-step.
fn drain_inflight_lanes(
    inflight: &mut VecDeque<Transfer>,
    num_gpus: usize,
    lane_budgets: &mut [SimDuration],
    busy: &mut [SimDuration],
    pending: &mut Vec<(ExpertKey, bool)>,
) {
    let mut i = 0;
    while i < inflight.len() {
        let t = &mut inflight[i];
        let g = shard_of(t.key.expert, num_gpus);
        let b = &mut lane_budgets[g];
        if *b == SimDuration::ZERO {
            i += 1;
            continue;
        }
        let lane = Device::pcie(g as u8).ordinal(num_gpus);
        if t.remaining > *b {
            t.remaining -= *b;
            busy[lane] += *b;
            *b = SimDuration::ZERO;
            i += 1;
        } else {
            *b -= t.remaining;
            busy[lane] += t.remaining;
            let done = inflight.remove(i).expect("index is in bounds");
            pending.push((done.key, done.prefetch));
        }
    }
}

/// Queues a background transfer unless the expert is already resident,
/// already queued or staged for commit, or the queue is full. Returns
/// whether the transfer was enqueued.
fn enqueue_background(
    inflight: &mut VecDeque<Transfer>,
    cache: &ShardedExpertCache,
    pending: &[(ExpertKey, bool)],
    max_inflight: usize,
    key: ExpertKey,
    transfer_time: SimDuration,
    prefetch: bool,
) -> bool {
    if inflight.len() >= max_inflight
        || cache.contains(key)
        || inflight.iter().any(|t| t.key == key)
        || pending.iter().any(|(k, _)| *k == key)
    {
        return false;
    }
    inflight.push_back(Transfer {
        key,
        remaining: transfer_time,
        prefetch,
    });
    true
}

/// Writes the free slots of every cache shard (where a never-evicting
/// prefetch could land) into `out`.
fn shard_free_slots(cache: &ShardedExpertCache, out: &mut Vec<usize>) {
    out.clear();
    out.extend((0..cache.num_shards()).map(|s| cache.shard(s).free_slots()));
}

/// Fills `out` with the prefetch lookahead of the learned predictor:
/// predicted expert distributions for the next `depth` layers, wrapping
/// past the model end into the next forward pass (the oracle lookahead
/// truncates there, which starves prefetch for the last layers). Per
/// predicted layer the top `activated-count` experts become tasks with
/// loads proportional to their predicted probability mass. Returns whether
/// anything was predicted: nothing is when no predictor is configured, it
/// is still cold, or the routing activated nothing — the caller then falls
/// back to the trace's own predictions.
fn predicted_lookahead(
    predictor: Option<&TransitionPredictor>,
    cache: &ShardedExpertCache,
    layers: usize,
    depth: usize,
    routing: &LayerRouting,
    out: &mut Lookahead,
) -> bool {
    out.clear();
    let Some(pred) = predictor else {
        return false;
    };
    let breadth = routing.activated_iter().count();
    if breadth == 0 || layers == 0 {
        return false;
    }
    let total_load: u32 = routing.activated_iter().map(|(_, l)| l).sum();
    let start = routing.layer().0 as usize % layers;
    for d in 1..=depth.max(1) {
        let Some(scores) = pred.predict(routing, d) else {
            break;
        };
        let layer = LayerId(((start + d) % layers) as u16);
        let mass: f32 = scores.iter().sum();
        let entry = out.push(layer);
        entry.tasks.extend(
            hybrimoe_model::top_k(&scores, breadth)
                .into_iter()
                .map(|(idx, s)| {
                    let expert = ExpertId(idx as u16);
                    let share = if mass > 0.0 { s / mass } else { 0.0 };
                    ExpertTask {
                        expert,
                        load: ((share * total_load as f32).round() as u32).max(1),
                        cached: cache.contains(ExpertKey::new(layer, expert)),
                    }
                }),
        );
        entry.scores = scores;
        out.confidence.push(pred.confidence(d));
    }
    !out.layers().is_empty()
}

/// Fills `out` with a record's predicted routings as prefetch inputs with
/// current cache residency.
fn build_lookahead(
    cache: &ShardedExpertCache,
    rec: &hybrimoe_trace::LayerRecord,
    out: &mut Lookahead,
) {
    out.clear();
    for routing in &rec.predicted {
        let layer = routing.layer();
        let entry = out.push(layer);
        entry
            .tasks
            .extend(routing.activated_iter().map(|(expert, load)| ExpertTask {
                expert,
                load,
                cached: cache.contains(ExpertKey::new(layer, expert)),
            }));
        routing.mean_scores_into(&mut entry.scores);
    }
}

/// Inserts a placement into the cache, protecting the whole placement set
/// so that on a drifted full cache (re-warming an unpinned engine) the
/// evicted experts are the drifted residents — never the placement keys
/// inserted moments earlier, which a score-based policy would otherwise
/// rank lowest. On a cold cache this is identical to plain insertion.
fn apply_placement(cache: &mut ShardedExpertCache, placement: &[ExpertKey], pin: bool) {
    for key in placement {
        let outcome = cache.insert_protected(*key, placement);
        if pin && outcome.is_resident() {
            cache.pin(*key);
        }
    }
}

/// Initial placement: fill per-layer quotas with the experts that were
/// activated most often in a short warmup trace.
fn place_by_frequency(cache: &mut ShardedExpertCache, config: &EngineConfig) {
    let model = &config.model;
    let capacity = cache.capacity();
    if capacity == 0 {
        return;
    }
    let warm_trace = TraceGenerator::new(model.clone(), config.seed ^ 0x57A2_77A2).decode_trace(24);

    let layers = model.layers as usize;
    let experts = model.routed_experts as usize;
    let mut counts = vec![0u32; layers * experts];
    for step in &warm_trace.steps {
        for (l, rec) in step.layers.iter().enumerate() {
            for (e, _) in rec.routing.activated() {
                counts[l * experts + e.0 as usize] += 1;
            }
        }
    }

    // Fill each shard's own capacity with even per-layer quotas (earlier
    // layers absorb the remainder), ranking only the shard's experts: the
    // affinity map fixes which shard an expert may live on, so a
    // shard-blind global selection would overfill some shards (dropping
    // their most frequent experts) while leaving others with free slots.
    // With one shard this is exactly the flat per-layer quota fill.
    let num_shards = cache.num_shards();
    let mut placement: Vec<ExpertKey> = Vec::with_capacity(capacity);
    for s in 0..num_shards {
        let shard_capacity = cache.shard(s).capacity();
        let base = shard_capacity / layers;
        let remainder = shard_capacity % layers;
        for l in 0..layers {
            let quota = base + usize::from(l < remainder);
            let mut ranked: Vec<(u32, u16)> = (0..experts)
                .filter(|e| shard_of(ExpertId(*e as u16), num_shards) == s)
                .map(|e| (counts[l * experts + e], e as u16))
                .collect();
            ranked.sort_by_key(|(c, e)| (std::cmp::Reverse(*c), *e));
            let available = ranked.len();
            for (_, e) in ranked.into_iter().take(quota.min(available)) {
                placement.push(ExpertKey::new(LayerId(l as u16), ExpertId(e)));
            }
        }
    }
    apply_placement(cache, &placement, config.pinned);

    // Prime score/recency estimates with the warmup routings.
    for step in &warm_trace.steps {
        for rec in &step.layers {
            cache.note_routing(&rec.routing, model.activated_experts);
        }
    }
}

/// The counter delta between two stats snapshots.
fn diff_stats(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
        prefetch_insertions: after.prefetch_insertions - before.prefetch_insertions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Framework;
    use hybrimoe_model::ModelConfig;

    fn tiny_engine(framework: Framework, ratio: f64) -> Engine {
        Engine::new(EngineConfig::preset(
            framework,
            ModelConfig::tiny_test(),
            ratio,
        ))
    }

    fn tiny_trace(seed: u64, steps: usize) -> ActivationTrace {
        TraceGenerator::new(ModelConfig::tiny_test(), seed).decode_trace(steps)
    }

    #[test]
    fn deterministic_runs() {
        let trace = tiny_trace(3, 6);
        let a = tiny_engine(Framework::HybriMoe, 0.5).run(&trace);
        let b = tiny_engine(Framework::HybriMoe, 0.5).run(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_fills_to_capacity() {
        for f in Framework::ALL {
            let e = tiny_engine(f, 0.5);
            let expected = match f {
                // llama.cpp rounds down to whole layers: 16 slots = 2 layers
                // of 8.
                Framework::LlamaCpp => 16,
                _ => 16,
            };
            assert_eq!(e.cache().len(), expected, "{f}");
        }
    }

    #[test]
    fn pinned_frameworks_keep_their_placement() {
        let trace = tiny_trace(5, 8);
        let mut e = tiny_engine(Framework::KTransformers, 0.25);
        let before: Vec<ExpertKey> = e.cache().resident_keys();
        e.run(&trace);
        let after: Vec<ExpertKey> = e.cache().resident_keys();
        assert_eq!(before, after);
    }

    #[test]
    fn dynamic_framework_updates_cache() {
        let trace = tiny_trace(5, 8);
        let mut e = tiny_engine(Framework::HybriMoe, 0.25);
        let metrics = e.run(&trace);
        assert!(
            metrics.cache.insertions > 0,
            "dynamic cache must take insertions: {:?}",
            metrics.cache
        );
    }

    #[test]
    fn hybrimoe_not_slower_than_ktransformers() {
        let trace = tiny_trace(7, 10);
        let h = tiny_engine(Framework::HybriMoe, 0.25).run(&trace);
        let k = tiny_engine(Framework::KTransformers, 0.25).run(&trace);
        assert!(
            h.total <= k.total,
            "hybri {} vs ktrans {}",
            h.total,
            k.total
        );
    }

    #[test]
    fn hit_rate_monotone_in_capacity() {
        let trace = tiny_trace(9, 12);
        let lo = tiny_engine(Framework::KTransformers, 0.25).run(&trace);
        let hi = tiny_engine(Framework::KTransformers, 0.75).run(&trace);
        assert!(hi.hit_rate() >= lo.hit_rate());
    }

    #[test]
    fn full_cache_means_all_hits_and_gpu_only() {
        let trace = tiny_trace(11, 5);
        let m = tiny_engine(Framework::HybriMoe, 1.0).run(&trace);
        assert!((m.hit_rate() - 1.0).abs() < 1e-9);
        assert_eq!(m.demand_transfers(), 0);
    }

    #[test]
    fn prefill_step_counts_tokens() {
        let model = ModelConfig::tiny_test();
        let trace = TraceGenerator::new(model.clone(), 13).prefill_trace(32);
        let mut e = tiny_engine(Framework::HybriMoe, 0.5);
        let m = e.run(&trace);
        assert_eq!(m.steps.len(), 1);
        assert_eq!(m.steps[0].tokens, 32);
        assert!(m.total > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn wrong_model_trace_rejected() {
        let trace = TraceGenerator::new(ModelConfig::deepseek(), 1).decode_trace(1);
        tiny_engine(Framework::HybriMoe, 0.5).run(&trace);
    }

    #[test]
    fn stats_are_per_run() {
        let trace = tiny_trace(15, 4);
        let mut e = tiny_engine(Framework::HybriMoe, 0.5);
        let a = e.run(&trace);
        let b = e.run(&trace);
        // Each run reports its own lookups (same trace length).
        assert_eq!(a.cache.lookups(), b.cache.lookups());
    }

    #[test]
    fn zero_capacity_runs_cpu_only() {
        let trace = tiny_trace(17, 4);
        let mut e = tiny_engine(Framework::HybriMoe, 0.0);
        let m = e.run(&trace);
        assert_eq!(m.hit_rate(), 0.0);
        assert!(m.total > SimDuration::ZERO);
    }

    #[test]
    fn run_equals_manual_step_loop() {
        let trace = tiny_trace(19, 6);
        let via_run = tiny_engine(Framework::HybriMoe, 0.5).run(&trace);

        let mut e = tiny_engine(Framework::HybriMoe, 0.5);
        e.begin_stage();
        let mut manual = Vec::new();
        for s in &trace.steps {
            manual.push(e.step(s));
        }
        let via_steps = e.end_stage();
        assert_eq!(via_run, via_steps);
        assert_eq!(via_run.steps, manual);
    }

    #[test]
    fn steps_outside_a_stage_are_standalone() {
        let trace = tiny_trace(21, 3);
        let mut e = tiny_engine(Framework::HybriMoe, 0.5);
        let m = e.step(&trace.steps[0]);
        assert!(m.latency > SimDuration::ZERO);
        // No stage open: end_stage must panic, so open/close an empty one.
        e.begin_stage();
        let empty = e.end_stage();
        assert!(empty.steps.is_empty());
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn nested_stages_rejected() {
        let mut e = tiny_engine(Framework::HybriMoe, 0.5);
        e.begin_stage();
        e.begin_stage();
    }

    #[test]
    #[should_panic(expected = "no open stage")]
    fn end_without_begin_rejected() {
        let mut e = tiny_engine(Framework::HybriMoe, 0.5);
        let _ = e.end_stage();
    }

    #[test]
    #[should_panic(expected = "stage is open")]
    fn warmup_mid_stage_rejected() {
        let mut e = tiny_engine(Framework::HybriMoe, 0.5);
        e.begin_stage();
        e.warmup();
    }

    #[test]
    fn rewarming_reapplies_placement_on_drifted_cache() {
        // Unpinned whole-layer placement with a dynamic scheduler: the run
        // drifts the cache, and re-warming must restore full residency of
        // the placed layers rather than letting fresh zero-score placement
        // keys evict each other.
        let config = EngineConfig::preset(Framework::LlamaCpp, ModelConfig::tiny_test(), 0.25)
            .with_scheduler(crate::SchedulerKind::Hybrid);
        let mut e = Engine::new(config);
        e.run(&tiny_trace(29, 10));
        e.warmup();
        for l in 0..e.resident_layers {
            assert_eq!(
                e.cache().cached_in_layer(LayerId(l)).len(),
                e.config().model.routed_experts as usize,
                "layer {l} not fully resident after re-warm"
            );
        }
    }

    #[test]
    fn rewarming_clears_background_queue() {
        let trace = tiny_trace(27, 8);
        let mut e = tiny_engine(Framework::HybriMoe, 0.25);
        e.run(&trace);
        e.warmup();
        // A fresh stage after re-warming starts with clean statistics and
        // no carried-over transfers from the previous workload.
        assert_eq!(e.cache().stats(), CacheStats::default());
        assert!(e.inflight.is_empty());
    }

    #[test]
    fn cold_engine_starts_empty_and_warmup_fills() {
        let config = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5);
        let mut e = Engine::cold(config);
        assert!(e.cache().is_empty());
        e.warmup();
        assert_eq!(e.cache().len(), 16);
        assert_eq!(e.cache().stats(), CacheStats::default());
    }

    #[test]
    fn zero_max_inflight_disables_background_transfers() {
        let trace = tiny_trace(23, 12);
        let config = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.25)
            .with_max_inflight(0);
        let mut e = Engine::new(config);
        let m = e.run(&trace);
        // The run completes (no deadlock) and performs no background work.
        assert_eq!(m.steps.len(), 12);
        assert_eq!(m.prefetches(), 0);
        assert!(m.total > SimDuration::ZERO);
    }

    #[test]
    fn max_inflight_bounds_are_respected() {
        // A deeper queue can only help (more background transfers land).
        let trace = tiny_trace(25, 12);
        let base = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.25);
        let narrow = Engine::new(base.clone().with_max_inflight(1)).run(&trace);
        let wide = Engine::new(base.with_max_inflight(8)).run(&trace);
        assert!(wide.prefetches() >= narrow.prefetches());
    }
}
