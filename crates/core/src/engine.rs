//! The HybriMoE inference engine.

use std::collections::VecDeque;

use hybrimoe_cache::{CacheStats, InsertOutcome, ShardedExpertCache};
use hybrimoe_fault::{FaultRates, FaultStream};
use hybrimoe_hw::{
    device_count, AffineCostModel, CalibrationProfile, CostModel, Device, ExpertProfile,
    SimDuration,
};
use hybrimoe_model::{shard_of, ExpertId, ExpertKey, LayerId};
use hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD;
use hybrimoe_sched::{
    ExpertTask, PredictedLayer, PrefetchContext, PrefetchScratch, Prefetcher, ScheduleContext,
    ScheduleScratch, Scheduler,
};
use hybrimoe_trace::{ActivationTrace, LayerRecord, TraceGenerator, TraceStep};

use crate::backend::{ExecutionBackend, LayerOutcome, LayerRequest};
use crate::realexec::RealLayerOutput;
use crate::{EngineConfig, PlacementKind, StageMetrics, StepMetrics};

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
/// with the quantized CPU kernels — on out-of-process workers first when
/// [`EngineConfig::remote_workers`] names endpoints — and reports measured
/// wall-clock (see [`crate::backend`]). The real backend requires traces
/// generated with
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
    /// Background PCIe transfers in flight (prefetches and refills), whose
    /// progress carries across layers into the plans that need them, and
    /// their cumulative accounting.
    background: BackgroundQueue,
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

/// The one background-transfer path: a bounded queue of prefetches and
/// refills, each with its remaining wire time, plus the prefetch
/// accounting its enqueues, hand-offs and landings drive.
///
/// The PCIe lane is one clock across layers: a Mixtral-sized expert takes
/// longer than one decode layer's idle window, so a transfer keeps its
/// progress from layer to layer. The queue drains by need. When a queued
/// expert's layer runs and activates it, [`Engine::lookup`] takes the
/// transfer out: one that has started is carried into the layer's plan as
/// a head start ([`ScheduleContext::with_inflight`]), one that has not is
/// simply planned afresh. Unstarted prefetches aimed at the running layer
/// that it did not activate are dropped as stale. The rest drains in
/// priority order — the started head, then the prefetcher's picks, then
/// refills of missed experts — in the idle time each layer leaves on the
/// lane.
#[derive(Debug)]
struct BackgroundQueue {
    inflight: VecDeque<Transfer>,
    /// [`EngineConfig::max_inflight`]: bounding the queue keeps prefetches
    /// from going stale.
    max_inflight: usize,
    counters: PrefetchCounters,
}

impl BackgroundQueue {
    fn new(max_inflight: usize) -> BackgroundQueue {
        BackgroundQueue {
            inflight: VecDeque::new(),
            max_inflight,
            counters: PrefetchCounters::default(),
        }
    }

    /// How many more transfers the queue takes.
    fn free_slots(&self) -> usize {
        self.max_inflight.saturating_sub(self.inflight.len())
    }

    /// Drops every queued transfer; discarded prefetches never reach the
    /// GPU.
    fn discard(&mut self) {
        self.counters.wasted += self.inflight.iter().filter(|t| t.prefetch).count() as u64;
        self.inflight.clear();
    }

    /// Takes `key`'s transfer out of the queue, if one is queued.
    fn take(&mut self, key: ExpertKey) -> Option<Transfer> {
        let at = self.inflight.iter().position(|t| t.key == key)?;
        self.inflight.remove(at)
    }

    /// Drops the unstarted prefetches aimed at `layer`, which is running
    /// now without them: they count as wasted.
    fn drop_stale(&mut self, layer: LayerId, transfer_time: SimDuration) {
        let before = self.inflight.len();
        self.inflight
            .retain(|t| !(t.prefetch && t.key.layer == layer && t.remaining == transfer_time));
        self.counters.wasted += (before - self.inflight.len()) as u64;
    }

    /// Queues a transfer unless the expert is already resident or queued,
    /// or the queue is full. A prefetch goes ahead of the unstarted
    /// refills; a refill goes last.
    fn enqueue(
        &mut self,
        cache: &ShardedExpertCache,
        key: ExpertKey,
        transfer_time: SimDuration,
        prefetch: bool,
    ) {
        if self.free_slots() == 0
            || cache.contains(key)
            || self.inflight.iter().any(|t| t.key == key)
        {
            return;
        }
        let transfer = Transfer {
            key,
            remaining: transfer_time,
            prefetch,
        };
        let at = if prefetch {
            self.inflight
                .iter()
                .position(|t| !t.prefetch && t.remaining == transfer_time)
                .unwrap_or(self.inflight.len())
        } else {
            self.inflight.len()
        };
        self.inflight.insert(at, transfer);
        if prefetch {
            self.counters.issued += 1;
        }
    }

    /// Spends the idle PCIe time left in `budget` on the queue, front
    /// first; completed transfers become resident (evicting per policy
    /// only when `evict_ok`, and never an expert in `protect`). Each
    /// transfer occupies the PCIe lane of its target expert's affinity
    /// shard. Returns how many transfers ended resident.
    fn drain(
        &mut self,
        cache: &mut ShardedExpertCache,
        budget: &mut SimDuration,
        evict_ok: bool,
        protect: &[ExpertKey],
        busy: &mut [SimDuration],
    ) -> u32 {
        let num_gpus = cache.num_shards();
        let mut resident = 0;
        while *budget > SimDuration::ZERO {
            let Some(t) = self.inflight.front_mut() else {
                break;
            };
            let lane = Device::pcie(shard_of(t.key.expert, num_gpus) as u8).ordinal(num_gpus);
            let spent = t.remaining.min(*budget);
            t.remaining -= spent;
            *budget -= spent;
            busy[lane] += spent;
            if t.remaining > SimDuration::ZERO {
                break;
            }
            let Transfer { key, prefetch, .. } = *t;
            self.inflight.pop_front();
            let outcome = if evict_ok {
                cache.insert_protected(key, protect)
            } else {
                cache.insert_if_free(key)
            };
            if outcome.is_resident() {
                resident += 1;
            }
            if prefetch {
                if matches!(
                    outcome,
                    InsertOutcome::Inserted | InsertOutcome::InsertedEvicting(_)
                ) {
                    self.counters.landed += 1;
                } else {
                    self.counters.wasted += 1;
                }
            }
        }
        resident
    }

    /// Prefetches still queued: with the counters, they account for every
    /// prefetch issued (`issued == landed + wasted + queued`).
    fn queued_prefetches(&self) -> u64 {
        self.inflight.iter().filter(|t| t.prefetch).count() as u64
    }
}

/// The buffers one engine step works in, kept across layers and steps so a
/// steady-state step allocates nothing but the metrics it returns. The
/// stages of a layer hand their results to each other through it: `lookup`
/// fills `sched.tasks`/`sched.protect`, `schedule_and_execute` fills
/// `sched.plan` and `outcome`, and the later stages read those.
#[derive(Debug, Default)]
struct StepScratch {
    /// The layer's tasks, protected keys, scheduler queues and plan.
    sched: ScheduleScratch,
    /// The backend's report on the layer just executed.
    outcome: LayerOutcome,
    /// The layer's mean router scores, ranking its missed experts.
    mean_scores: Vec<f32>,
    /// The layer's missed experts that no demand transfer covered, ranked
    /// for refill.
    missed: Vec<ExpertId>,
    /// The started background transfers of the layer's activated experts,
    /// taken off the queue by `lookup`: each expert's remaining wire time
    /// (the plan's head starts), and which of them the prefetcher issued.
    inflight: Vec<(ExpertId, SimDuration)>,
    carried_prefetches: Vec<ExpertId>,
    /// The prefetcher's inputs and working buffers.
    lookahead: Lookahead,
    prefetch: PrefetchScratch,
}

/// A reusable prefetch lookahead: predicted layers, with the buffers of
/// the entries beyond `len` kept for the next fill.
#[derive(Debug, Default)]
struct Lookahead {
    layers: Vec<PredictedLayer>,
    len: usize,
}

impl Lookahead {
    /// Refills the lookahead from a record's predicted routings, with
    /// current cache residency.
    fn fill(&mut self, cache: &ShardedExpertCache, rec: &LayerRecord) {
        self.len = 0;
        for routing in &rec.predicted {
            let layer = routing.layer();
            let entry = self.push(layer);
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

/// What is constant over one step: the batch's size and regime and the
/// model's cost profiles (all `Copy` — nothing clones the model config on
/// the hot path).
#[derive(Debug, Clone, Copy)]
struct StepConsts {
    tokens: u32,
    /// Whether the batch schedules in the prefill regime.
    prefill_batch: bool,
    /// Whether this step's cache inserts may evict. During a prefill batch
    /// each layer is visited exactly once, so evicting a placed expert of
    /// a *later* layer to cache a transfer is strictly harmful within the
    /// pass; inserts go to free slots only ("subject to free cache space",
    /// §IV-C). At decode, temporal reuse justifies eviction-based
    /// insertion.
    evict_ok: bool,
    routed_profile: ExpertProfile,
    shared_profile: Option<ExpertProfile>,
    attn_profile: ExpertProfile,
    /// PCIe time of one routed expert's weights.
    transfer_time: SimDuration,
    num_gpus: usize,
}

/// One layer of one step, as its stages see it.
#[derive(Debug, Clone, Copy)]
struct LayerCtx<'a> {
    step: &'a StepConsts,
    layer: LayerId,
    rec: &'a LayerRecord,
}

/// Cumulative background-prefetch accounting since the engine was built
/// (never reset by [`Engine::warmup`]; surfaced at `GET /metrics`).
///
/// Every issued prefetch ends in exactly one of `landed` or `wasted`, or
/// is still queued: `issued == landed + wasted + queued`
/// ([`Engine::queued_prefetches`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchCounters {
    /// Prefetch transfers enqueued on the background PCIe queue.
    pub issued: u64,
    /// Prefetch transfers that reached the GPU: they completed and entered
    /// the cache, or their layer ran while they were on the wire and its
    /// plan finished them as a head start.
    pub landed: u64,
    /// Prefetch transfers that never delivered: dropped unstarted because
    /// their layer ran first (it activated the expert, which its plan then
    /// moved afresh, or did not need it), cut short because the plan
    /// computed their expert on the CPU instead, completed but unable to
    /// enter the cache (no eligible slot), or discarded by a re-warm.
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
            resident_layers: 0,
            background: BackgroundQueue::new(config.max_inflight),
            scratch: StepScratch::default(),
            stage: None,
            faults,
            config,
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
        // into the next measurement; warmup starts clean.
        self.background.discard();
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

    /// Worker fleet health, if the engine's real backend was given worker
    /// endpoints ([`EngineConfig::with_remote_workers`]); `None` otherwise.
    pub fn worker_health(&self) -> Option<hybrimoe_worker::WorkerHealthSnapshot> {
        self.backend.worker_health()
    }

    /// Cumulative prefetch accounting (issued / landed / wasted) since the
    /// engine was built.
    pub fn prefetch_counters(&self) -> PrefetchCounters {
        self.background.counters
    }

    /// Prefetches issued but still on the background queue: the part of
    /// [`PrefetchCounters::issued`] that is neither landed nor wasted yet.
    pub fn queued_prefetches(&self) -> u64 {
        self.background.queued_prefetches()
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
    /// Panics if the trace was generated for a different model (the layer
    /// count is always checked, the expert count in debug builds) or a
    /// stage is already open.
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
    /// Every layer goes through the same stages, in this order: the cache
    /// policy observes the routing, attention is costed, cache lookups
    /// define the task set, the scheduler plans it and the backend
    /// executes the plan, demand transfers are admitted to the cache, and
    /// the layer's idle PCIe time goes to the background queue.
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
        let spike = self.roll_faults();
        self.backend.begin_step();
        let consts = self.step_consts(step.tokens);
        let mut metrics = StepMetrics {
            tokens: step.tokens,
            latency: spike,
            device_busy: vec![SimDuration::ZERO; device_count(consts.num_gpus)],
            cpu_experts: 0,
            gpu_experts: 0,
            demand_transfers: 0,
            prefetches: 0,
        };
        for (l, rec) in step.layers.iter().enumerate() {
            let cx = LayerCtx {
                step: &consts,
                layer: LayerId(l as u16),
                rec,
            };
            self.observe(&cx);
            let attn_time = self.attention(&cx, &mut metrics);
            self.lookup(&cx);
            let moe_makespan = self.schedule_and_execute(&cx, &mut metrics);
            self.admit_demand_transfers(&cx);
            self.background(&cx, attn_time, moe_makespan, &mut metrics);
            metrics.latency += attn_time + moe_makespan;
        }
        if let Some(stage) = &mut self.stage {
            stage.steps.push(metrics.clone());
        }
        metrics
    }

    /// Rolls the injected faults of one step and returns the latency spike
    /// it suffers (zero when none is armed or none fires). Faults roll
    /// before any work so a panicking step never half-mutates engine state
    /// beyond what a real mid-step panic could. A spike lands on both
    /// clocks: the modeled latency (for sim-driven soaks) and wall time
    /// (for live-server SLOs).
    fn roll_faults(&mut self) -> SimDuration {
        let Some(chaos) = self.faults.as_mut() else {
            return SimDuration::ZERO;
        };
        if chaos.stream.roll_ppm(chaos.rates.panic_ppm) {
            panic!("injected engine fault: step panic");
        }
        if !chaos.stream.roll_ppm(chaos.rates.spike_ppm) {
            return SimDuration::ZERO;
        }
        std::thread::sleep(std::time::Duration::from_millis(chaos.rates.spike_ms));
        SimDuration::from_millis(chaos.rates.spike_ms)
    }

    /// What stays fixed while a batch of `tokens` runs through the layers.
    fn step_consts(&self, tokens: u32) -> StepConsts {
        let model = &self.config.model;
        let prefill_batch = tokens >= PREFILL_BATCH_THRESHOLD;
        let routed_profile = model.routed_profile();
        StepConsts {
            tokens,
            prefill_batch,
            evict_ok: !prefill_batch || self.config.prefill_evict_inserts,
            routed_profile,
            shared_profile: model.shared_profile(),
            attn_profile: model.attention_profile(),
            transfer_time: self.cost.transfer(&routed_profile),
            num_gpus: self.config.num_gpus.max(1),
        }
    }

    /// Stage 1: the cache policy observes the routing scores (Eq. 3).
    fn observe(&mut self, cx: &LayerCtx<'_>) {
        debug_assert_eq!(
            cx.rec.routing.loads().len(),
            self.config.model.routed_experts as usize,
            "trace was generated for a different model"
        );
        self.cache
            .note_routing(&cx.rec.routing, self.config.model.activated_experts);
    }

    /// Stage 2: non-MoE work (attention, norms); returns its time, charged
    /// to the device that runs it. llama.cpp runs it on the device the
    /// layer is mapped to at decode — for prefill batches even CPU layers
    /// push the heavy matmuls to the GPU (cuBLAS offload). Everyone else
    /// keeps it on the GPU — GPU 0: attention is not expert-sharded, so it
    /// stays on the shard holding the pinned shared experts.
    fn attention(&self, cx: &LayerCtx<'_>, metrics: &mut StepMetrics) -> SimDuration {
        let StepConsts {
            tokens,
            prefill_batch,
            attn_profile,
            num_gpus,
            ..
        } = *cx.step;
        let on_gpu =
            !self.config.attention_follows_layer || prefill_batch || self.layer_resident(cx.layer);
        let (device, time) = if on_gpu {
            (Device::gpu(0), self.cost.gpu_compute(&attn_profile, tokens))
        } else {
            let time = self.cost.cpu_compute(&attn_profile, tokens, false);
            (Device::Cpu, time)
        };
        metrics.device_busy[device.ordinal(num_gpus)] += time;
        time
    }

    /// Whether every routed expert of `layer` is resident (whole-layer
    /// mapping semantics). Kept lazy: the residency scan only runs for
    /// configurations whose attention placement depends on it.
    fn layer_resident(&self, layer: LayerId) -> bool {
        if self.config.placement == PlacementKind::WholeLayers {
            return layer.0 < self.resident_layers;
        }
        self.cache.cached_in_layer(layer).len() == self.config.model.routed_experts as usize
    }

    /// Stage 3: cache lookups define the task set; the activated experts
    /// are also the protected set (never evicted while in flight). A
    /// missed expert with a background transfer queued leaves the queue:
    /// a started transfer becomes the plan's head start, an unstarted one
    /// is planned afresh. Unstarted prefetches of this layer are stale.
    fn lookup(&mut self, cx: &LayerCtx<'_>) {
        let StepScratch {
            sched,
            inflight,
            carried_prefetches,
            ..
        } = &mut self.scratch;
        let sched = sched.begin_layer();
        inflight.clear();
        carried_prefetches.clear();
        let transfer_time = cx.step.transfer_time;
        for (expert, load) in cx.rec.routing.activated_iter() {
            let key = ExpertKey::new(cx.layer, expert);
            sched.protect.push(key);
            let cached = self.cache.lookup(key);
            sched.tasks.push(ExpertTask {
                expert,
                load,
                cached,
            });
            if cached {
                continue;
            }
            match self.background.take(key) {
                Some(t) if t.remaining < transfer_time => {
                    inflight.push((expert, t.remaining));
                    if t.prefetch {
                        carried_prefetches.push(expert);
                    }
                }
                Some(t) if t.prefetch => self.background.counters.wasted += 1,
                _ => {}
            }
        }
        self.background.drop_stale(cx.layer, transfer_time);
    }

    /// Stage 4: schedules the task set and executes the plan on the
    /// backend; returns the MoE makespan.
    fn schedule_and_execute(
        &mut self,
        cx: &LayerCtx<'_>,
        metrics: &mut StepMetrics,
    ) -> SimDuration {
        let StepScratch {
            sched:
                ScheduleScratch {
                    tasks,
                    queues,
                    plan,
                    ..
                },
            outcome,
            inflight,
            carried_prefetches,
            ..
        } = &mut self.scratch;
        let ctx = ScheduleContext::new(
            cx.layer,
            cx.step.tokens,
            tasks,
            cx.step.routed_profile,
            cx.step.shared_profile,
            &self.cost,
        )
        .with_gpus(cx.step.num_gpus)
        .with_inflight(inflight);
        self.scheduler.schedule_into(&ctx, queues, plan);
        debug_assert_eq!(plan.validate(tasks), Ok(()), "invalid plan from scheduler");
        self.backend.execute_layer(
            &LayerRequest {
                layer: cx.layer,
                plan,
                ctx: &ctx,
                states: cx.rec.states.as_ref(),
            },
            outcome,
        );

        // A carried prefetch landed if the plan finished its transfer.
        for expert in carried_prefetches.iter() {
            if plan.transferred_experts().any(|e| e == *expert) {
                self.background.counters.landed += 1;
            } else {
                self.background.counters.wasted += 1;
            }
        }

        metrics.cpu_experts += plan.cpu_order.len() as u32;
        metrics.gpu_experts += plan.gpu_order.len() as u32;
        metrics.demand_transfers += plan.pcie_order.len() as u32;
        debug_assert_eq!(outcome.busy.len(), metrics.device_busy.len());
        for (acc, b) in metrics.device_busy.iter_mut().zip(outcome.busy.iter()) {
            *acc += *b;
        }
        outcome.makespan
    }

    /// Stage 5: on-demand transfers become resident (may evict per policy,
    /// but never the experts of the layer in flight). llama.cpp-style
    /// streamed weights (transfer_profile set) are discarded after the
    /// matmul and never enter the cache.
    fn admit_demand_transfers(&mut self, cx: &LayerCtx<'_>) {
        let ScheduleScratch { protect, plan, .. } = &self.scratch.sched;
        if plan.transfer_profile.is_some() || !self.config.demand_inserts {
            return;
        }
        for e in plan.transferred_experts() {
            let key = ExpertKey::new(cx.layer, e);
            if cx.step.evict_ok {
                self.cache.insert_protected(key, protect);
            } else {
                self.cache.insert_if_free(key);
            }
        }
    }

    /// Stage 6: the layer's idle PCIe time advances the background queue
    /// (prefetches and cache refills). The window is the idle time of the
    /// *busiest* lane — one conservative budget shared by the queue — plus
    /// the attention time. The transfer already on the wire drains first;
    /// then the prefetcher's picks and the refills of this layer's misses
    /// enqueue, picks ahead of refills, and start in whatever is left of
    /// the window. A transfer the window does not finish carries its
    /// progress into later layers (see [`BackgroundQueue`]).
    fn background(
        &mut self,
        cx: &LayerCtx<'_>,
        attn_time: SimDuration,
        moe_makespan: SimDuration,
        metrics: &mut StepMetrics,
    ) {
        let num_gpus = cx.step.num_gpus;
        let lane_busy = &self.scratch.outcome.busy;
        let pcie_busy = (0..num_gpus)
            .map(|g| lane_busy[Device::pcie(g as u8).ordinal(num_gpus)])
            .fold(SimDuration::ZERO, SimDuration::max);
        let mut budget = moe_makespan.saturating_sub(pcie_busy) + attn_time;
        self.drain_background(cx, &mut budget, metrics);
        self.plan_prefetch(cx);
        self.refill_missed(cx);
        self.drain_background(cx, &mut budget, metrics);
    }

    /// Spends what is left of the layer's idle window on the background
    /// queue, protecting the layer's own experts from eviction.
    fn drain_background(
        &mut self,
        cx: &LayerCtx<'_>,
        budget: &mut SimDuration,
        metrics: &mut StepMetrics,
    ) {
        metrics.prefetches += self.background.drain(
            &mut self.cache,
            budget,
            cx.step.evict_ok,
            &self.scratch.sched.protect,
            &mut metrics.device_busy,
        );
    }

    /// Enqueues the prefetcher's picks for the layers the trace record
    /// predicts, as far as the background queue has room.
    fn plan_prefetch(&mut self, cx: &LayerCtx<'_>) {
        let queue_slots = self.background.free_slots();
        if queue_slots == 0 {
            return;
        }
        let StepScratch {
            lookahead,
            prefetch,
            ..
        } = &mut self.scratch;
        lookahead.fill(&self.cache, cx.rec);
        if lookahead.layers().is_empty() {
            return;
        }
        let transfer_time = cx.step.transfer_time;
        let pctx = PrefetchContext {
            current_layer: cx.layer,
            lookahead: lookahead.layers(),
            free_slots: queue_slots,
            budget: transfer_time * queue_slots as u64,
            tokens: cx.step.tokens,
            routed_profile: cx.step.routed_profile,
            shared_profile: cx.step.shared_profile,
            cost: &self.cost,
            num_gpus: cx.step.num_gpus,
            confidence: None,
            shard_free: None,
        };
        for key in self.prefetcher.plan_with(&pctx, prefetch) {
            self.background
                .enqueue(&self.cache, *key, transfer_time, true);
        }
    }

    /// Enqueues refills of the layer's missed experts that no demand
    /// transfer covered, highest router score first (background cache
    /// update; temporal reuse makes recently missed experts likely to be
    /// needed again).
    fn refill_missed(&mut self, cx: &LayerCtx<'_>) {
        if !self.config.refill_on_miss {
            return;
        }
        let StepScratch {
            sched,
            mean_scores,
            missed,
            ..
        } = &mut self.scratch;
        cx.rec.routing.mean_scores_into(mean_scores);
        let score = |e: ExpertId| mean_scores.get(e.0 as usize).copied().unwrap_or(0.0);
        missed.clear();
        missed.extend(
            sched
                .tasks
                .iter()
                .filter(|t| !t.cached)
                .map(|t| t.expert)
                .filter(|e| !sched.plan.transferred_experts().any(|x| x == *e)),
        );
        // Experts are distinct, so the order is total and the unstable
        // sort exact.
        missed.sort_unstable_by(|a, b| {
            score(*b)
                .partial_cmp(&score(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        for expert in missed.iter() {
            let key = ExpertKey::new(cx.layer, *expert);
            self.background
                .enqueue(&self.cache, key, cx.step.transfer_time, false);
        }
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
            // 16 slots for everyone: llama.cpp rounds down to whole
            // layers, and 16 is exactly 2 layers of 8.
            assert_eq!(tiny_engine(f, 0.5).cache().len(), 16, "{f}");
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
        assert!(e.background.inflight.is_empty());
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
    fn a_partly_sent_expert_crosses_the_lane_once() {
        // Everything is resident but one expert that layer 1 activates. Its
        // transfer is queued before the step: layer 0's idle window sends
        // part of it, and layer 1's plan finishes it as a head start. A
        // slow CPU and a slow lane make the transfer the plan's choice and
        // longer than layer 0's window.
        let model = ModelConfig::tiny_test();
        let platform = hybrimoe_hw::Platform {
            cpu_task_overhead: SimDuration::from_millis(10),
            pcie_latency: SimDuration::from_millis(1),
            ..hybrimoe_hw::Platform::a6000_xeon10()
        };
        let config =
            EngineConfig::preset(Framework::HybriMoe, model.clone(), 1.0).with_platform(platform);
        let trace = tiny_trace(31, 1);
        let step = &trace.steps[0];
        let (expert, _) = step.layers[1].routing.activated_iter().next().unwrap();
        let key = ExpertKey::new(LayerId(1), expert);
        let mut e = Engine::cold(config);
        for k in model.expert_keys().filter(|k| *k != key) {
            e.cache.insert(k);
        }
        let transfer_time = e.step_consts(1).transfer_time;
        e.background.enqueue(&e.cache, key, transfer_time, true);

        let m = e.step(step);
        // One transfer's wire time in total, split across the two layers,
        // and the plan moved the expert once.
        assert_eq!(m.busy(Device::pcie(0)), transfer_time);
        assert_eq!(m.demand_transfers, 1);
        let c = e.prefetch_counters();
        assert_eq!((c.issued, c.landed, c.wasted), (1, 1, 0), "{c:?}");
        assert!(e.cache().contains(key));
        assert!(e.background.inflight.is_empty());
    }

    #[test]
    fn every_issued_prefetch_is_landed_wasted_or_queued() {
        let model = ModelConfig::deepseek();
        let trace = TraceGenerator::new(model.clone(), 33).decode_trace(12);
        for (framework, max_inflight) in [
            (Framework::HybriMoe, 1),
            (Framework::HybriMoe, 4),
            (Framework::AdapMoe, 1),
            (Framework::AdapMoe, 4),
        ] {
            let config = EngineConfig::preset(framework, model.clone(), 0.25)
                .with_max_inflight(max_inflight);
            let mut e = Engine::new(config);
            for step in &trace.steps {
                e.step(step);
                let c = e.prefetch_counters();
                assert_eq!(
                    c.issued,
                    c.landed + c.wasted + e.queued_prefetches(),
                    "{framework} max_inflight {max_inflight}: {c:?}"
                );
            }
            assert!(e.prefetch_counters().issued > 0, "{framework}");
            // Re-warming discards the queue: what was queued is wasted.
            e.warmup();
            let c = e.prefetch_counters();
            assert_eq!(c.issued, c.landed + c.wasted, "{framework}");
        }
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
