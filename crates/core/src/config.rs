//! Engine configuration and framework presets.

use hybrimoe_cache::{CachePolicy, Lfu, Lru, Mrs};
use hybrimoe_fault::FaultPlan;
use hybrimoe_hw::Platform;
use hybrimoe_model::ModelConfig;
use hybrimoe_sched::baselines::{FixedMappingScheduler, GpuOnlyScheduler, StaticSplitScheduler};
use hybrimoe_sched::{
    HybridScheduler, ImpactDrivenPrefetcher, NextLayerTopKPrefetcher, NoPrefetcher, Prefetcher,
    Scheduler,
};
use serde::{Deserialize, Serialize};

use crate::realexec::RealExecOptions;
use crate::remote::RemoteWorkerOptions;

/// Whether the engine also executes each layer for real. Every kind is
/// charged on the one plan clock ([`PlanReplay`](hybrimoe_sched::PlanReplay));
/// the real kinds compute the layer outputs with the quantized CPU kernels
/// and put their measured CPU op times on that clock (see
/// [`crate::realexec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The modeled clock alone (the default; the only kind that scales to
    /// the paper's full-size models).
    Sim,
    /// Real CPU execution with the quantized kernels; needs traces carrying
    /// [`TokenStates`](hybrimoe_trace::TokenStates) and a model that fits
    /// the weight budget in [`EngineConfig::real_exec`]. With worker
    /// endpoints in [`EngineConfig::remote_workers`] (what
    /// [`EngineConfig::with_remote_workers`] sets), expert batches are
    /// offered to out-of-process workers first, falling back to the local
    /// kernels per expert when a worker is down.
    RealCpu,
}

impl BackendKind {
    /// Whether this kind executes for real, consuming per-token hidden
    /// states (so trace generation must capture them).
    pub fn needs_token_states(self) -> bool {
        self != BackendKind::Sim
    }
}

/// Which intra-layer scheduler the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// HybriMoE's greedy timeline-filling scheduler (§IV-B).
    Hybrid,
    /// kTransformers-style fixed mapping (cached→GPU, uncached→CPU).
    FixedMapping,
    /// AdapMoE-style GPU-only with on-demand loading.
    GpuOnly,
    /// llama.cpp-style static whole-layer split (`-ngl`): the warmup places
    /// whole layers from layer 0 up instead of per-layer hot experts, and
    /// attention runs on the CPU for a decode batch of a layer that is not
    /// resident.
    StaticSplit,
}

impl SchedulerKind {
    /// Instantiates the scheduler.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Hybrid => Box::new(HybridScheduler::new()),
            SchedulerKind::FixedMapping => Box::new(FixedMappingScheduler::new()),
            SchedulerKind::GpuOnly => Box::new(GpuOnlyScheduler::new()),
            SchedulerKind::StaticSplit => Box::new(StaticSplitScheduler::new()),
        }
    }
}

/// Which prefetcher the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrefetcherKind {
    /// No prefetching.
    None,
    /// Probability-ranked prefetch of the next layer's top experts.
    NextLayerTopK,
    /// HybriMoE's impact-driven simulation-based prefetch (§IV-C).
    ImpactDriven,
}

impl PrefetcherKind {
    /// A stable lowercase label for reports and benchmark rows.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::NextLayerTopK => "next-layer-topk",
            PrefetcherKind::ImpactDriven => "impact-driven",
        }
    }

    /// Instantiates the prefetcher.
    pub fn build(self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherKind::None => Box::new(NoPrefetcher::new()),
            PrefetcherKind::NextLayerTopK => Box::new(NextLayerTopKPrefetcher::new()),
            PrefetcherKind::ImpactDriven => Box::new(ImpactDrivenPrefetcher::new()),
        }
    }
}

/// Which cache replacement policy the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CachePolicyKind {
    /// Least recently used.
    Lru,
    /// Least frequently used.
    Lfu,
    /// HybriMoE's Minus Recent Score (§IV-D).
    Mrs,
}

impl CachePolicyKind {
    /// Instantiates the policy. `alpha` is the MRS averaging coefficient
    /// (ignored by LRU/LFU).
    pub fn build(self, alpha: f64) -> Box<dyn CachePolicy> {
        match self {
            CachePolicyKind::Lru => Box::new(Lru::new()),
            CachePolicyKind::Lfu => Box::new(Lfu::new()),
            CachePolicyKind::Mrs => Box::new(Mrs::new(alpha)),
        }
    }
}

/// The four systems the paper evaluates (§VI-A3).
///
/// A framework is nothing more than its components (Table I): a scheduler,
/// a prefetcher, a cache policy and the cache-write switches of
/// [`EngineConfig`]. The static frameworks (llama.cpp, kTransformers) keep
/// their warmup placement because their presets turn off every cache
/// write — `demand_inserts`, `refill_on_miss` and the prefetcher — not
/// through a separate pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Framework {
    /// llama.cpp: static whole-layer CPU/GPU split, no expert-level
    /// decisions.
    LlamaCpp,
    /// AdapMoE: GPU-centric, adaptive prefetching and LRU caching.
    AdapMoe,
    /// kTransformers: fixed hot-expert mapping, CPU computes misses.
    KTransformers,
    /// This paper.
    HybriMoe,
}

impl Framework {
    /// All frameworks in the order the paper's figures list them.
    pub const ALL: [Framework; 4] = [
        Framework::LlamaCpp,
        Framework::AdapMoe,
        Framework::KTransformers,
        Framework::HybriMoe,
    ];

    /// A short stable name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            Framework::LlamaCpp => "llama.cpp",
            Framework::AdapMoe => "AdapMoE",
            Framework::KTransformers => "KTransformers",
            Framework::HybriMoe => "HybriMoE",
        }
    }
}

impl std::fmt::Display for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full configuration of an [`Engine`](crate::Engine).
///
/// Use [`EngineConfig::preset`] for the paper's frameworks and the builder
/// methods for ablations. Nothing here pins the cache: a configuration is
/// static exactly when it writes nothing to the cache after warmup
/// (`demand_inserts` and `refill_on_miss` off, [`PrefetcherKind::None`]),
/// which is how the llama.cpp and kTransformers presets are built. The
/// builders that make a component dynamic also turn on the cache writes
/// that component needs.
///
/// # Example
///
/// ```
/// use hybrimoe::{EngineConfig, Framework, SchedulerKind};
/// use hybrimoe_model::ModelConfig;
///
/// // kTransformers baseline with only the hybrid scheduler enabled
/// // (the "Baseline+Scheduling" row of Table III):
/// let config = EngineConfig::preset(Framework::KTransformers, ModelConfig::qwen2(), 0.25)
///     .with_scheduler(SchedulerKind::Hybrid);
/// assert_eq!(config.scheduler, SchedulerKind::Hybrid);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The model architecture.
    pub model: ModelConfig,
    /// The hardware platform. Its `num_gpus` is the number of GPU shards:
    /// experts are distributed across the GPUs by the static affinity map
    /// ([`shard_of`](hybrimoe_model::shard_of)), each GPU owns a cache
    /// shard and a PCIe lane, and the scheduler fills all device timelines
    /// by minimum completion time. `1` reproduces the paper's single-GPU
    /// system exactly.
    pub platform: Platform,
    /// Fraction of all routed experts the GPU cache holds (25/50/75 % in
    /// the paper).
    pub cache_ratio: f64,
    /// Intra-layer scheduler.
    pub scheduler: SchedulerKind,
    /// Inter-layer prefetcher.
    pub prefetcher: PrefetcherKind,
    /// Cache replacement policy.
    pub cache_policy: CachePolicyKind,
    /// Whether missed experts computed on the CPU are refilled into the
    /// cache over leftover idle PCIe time (part of the paper's cache
    /// management; static frameworks have it off).
    pub refill_on_miss: bool,
    /// Whether on-demand transfers enter the cache. kTransformers and
    /// llama.cpp discard on-demand loads (with refill and prefetch off, this
    /// is what keeps their placements static); AdapMoE and HybriMoE cache
    /// them.
    pub demand_inserts: bool,
    /// Whether cache insertions during a *prefill* batch may evict resident
    /// experts. HybriMoE restricts prefill insertions to free slots (each
    /// layer runs once per pass, so evicting a later layer's expert is
    /// strictly harmful); AdapMoE's LRU caches every on-demand load
    /// unconditionally, which is one reason its prefill trails.
    pub prefill_evict_inserts: bool,
    /// MRS averaging coefficient α (Eq. 3).
    pub mrs_alpha: f64,
    /// Seed for the warmup trace that drives initial placement.
    pub seed: u64,
    /// Maximum queued background PCIe transfers (prefetches and refills).
    /// Bounding the queue keeps prefetches from going stale; `0` disables
    /// background transfers entirely (on-demand transfers still happen).
    pub max_inflight: usize,
    /// Whether the engine also executes each layer for real (the modeled
    /// clock alone by default).
    pub backend: BackendKind,
    /// Resource limits of real execution (ignored by
    /// [`BackendKind::Sim`]).
    pub real_exec: RealExecOptions,
    /// Worker endpoints and wire knobs of real execution's worker fleet
    /// (set through [`EngineConfig::with_remote_workers`]; with no
    /// endpoints every expert runs on the local kernels).
    pub remote_workers: RemoteWorkerOptions,
    /// When set, prefill passes of at least this many tokens are split into
    /// decode-interleaved chunks of this size so a long prompt no longer
    /// blocks in-flight decode streams (ktransformers-style chunked
    /// prefill). Must be at least the prefill regime threshold (32) so every
    /// chunk still schedules as a prefill batch. `None` keeps monolithic
    /// prefill.
    pub chunked_prefill_size: Option<u32>,
    /// Deterministic fault-injection plan. The engine reads the
    /// `spike_ppm`/`spike_ms` and `panic_ppm` knobs (per-step latency
    /// spikes and injected step panics, drawn from the seeded
    /// `engine.step` stream); the remaining knobs target the expert
    /// workers. [`FaultPlan::off`] (the default) injects nothing
    /// and costs one branch per step.
    pub fault_plan: FaultPlan,
}

/// Default bound on queued background transfers. One beats two and four
/// on DeepSeek-V2-Lite decode (`sim_decode` tok/s 54.6 against 54.2 and
/// 53.6): with the lane as busy as it is, a second queued transfer rarely
/// starts before its layer runs.
pub const DEFAULT_MAX_INFLIGHT: usize = 1;

impl EngineConfig {
    /// The configuration of one of the paper's frameworks.
    pub fn preset(framework: Framework, model: ModelConfig, cache_ratio: f64) -> EngineConfig {
        let platform = Platform::a6000_xeon10();
        let base = EngineConfig {
            model,
            platform,
            cache_ratio,
            scheduler: SchedulerKind::Hybrid,
            prefetcher: PrefetcherKind::ImpactDriven,
            cache_policy: CachePolicyKind::Mrs,
            refill_on_miss: true,
            demand_inserts: true,
            prefill_evict_inserts: false,
            mrs_alpha: 0.3,
            seed: 0xB0B,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            backend: BackendKind::Sim,
            real_exec: RealExecOptions::default(),
            remote_workers: RemoteWorkerOptions::default(),
            chunked_prefill_size: None,
            fault_plan: FaultPlan::off(),
        };
        match framework {
            Framework::HybriMoe => base,
            Framework::KTransformers => EngineConfig {
                scheduler: SchedulerKind::FixedMapping,
                prefetcher: PrefetcherKind::None,
                cache_policy: CachePolicyKind::Lfu,
                refill_on_miss: false,
                demand_inserts: false,
                ..base
            },
            Framework::AdapMoe => EngineConfig {
                scheduler: SchedulerKind::GpuOnly,
                prefetcher: PrefetcherKind::NextLayerTopK,
                cache_policy: CachePolicyKind::Lru,
                refill_on_miss: false,
                prefill_evict_inserts: true,
                ..base
            },
            Framework::LlamaCpp => EngineConfig {
                scheduler: SchedulerKind::StaticSplit,
                prefetcher: PrefetcherKind::None,
                cache_policy: CachePolicyKind::Lfu,
                refill_on_miss: false,
                demand_inserts: false,
                ..base
            },
        }
    }

    /// Overrides the platform (default: the paper's A6000 + Xeon),
    /// including its GPU count.
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Overrides the scheduler (ablations).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        // A dynamic scheduler implies a dynamic cache: its transfers are
        // worth keeping.
        if scheduler == SchedulerKind::Hybrid || scheduler == SchedulerKind::GpuOnly {
            self.demand_inserts = true;
        }
        self
    }

    /// Overrides the prefetcher (ablations).
    pub fn with_prefetcher(mut self, prefetcher: PrefetcherKind) -> Self {
        self.prefetcher = prefetcher;
        self
    }

    /// Overrides the cache policy (ablations). Enables dynamic cache
    /// management (demand inserts and refill-on-miss).
    pub fn with_cache_policy(mut self, policy: CachePolicyKind) -> Self {
        self.cache_policy = policy;
        self.refill_on_miss = true;
        self.demand_inserts = true;
        self
    }

    /// Overrides the measurement seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the background-transfer queue bound (`0` disables
    /// background transfers).
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Overrides the platform's GPU count ([`Platform::with_gpus`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero or exceeds 64.
    pub fn with_num_gpus(mut self, num_gpus: usize) -> Self {
        self.platform = self.platform.with_gpus(num_gpus);
        self
    }

    /// Overrides the execution kind (default: the modeled clock alone).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the real-execution resource limits (weight budget and
    /// thread cap; [`BackendKind::Sim`] ignores them).
    pub fn with_real_exec(mut self, options: RealExecOptions) -> Self {
        self.real_exec = options;
        self
    }

    /// Selects real execution ([`BackendKind::RealCpu`]) with the given
    /// worker fleet.
    pub fn with_remote_workers(mut self, options: RemoteWorkerOptions) -> Self {
        self.backend = BackendKind::RealCpu;
        self.remote_workers = options;
        self
    }

    /// Enables chunked prefill with the given chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is below the prefill regime threshold
    /// ([`PREFILL_BATCH_THRESHOLD`](hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD)):
    /// smaller chunks would schedule as decode batches and change the
    /// regime-dependent cache policy mid-prompt.
    pub fn with_chunked_prefill(mut self, size: u32) -> Self {
        assert!(
            size >= hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD,
            "chunked prefill size must be at least the prefill threshold ({})",
            hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD
        );
        self.chunked_prefill_size = Some(size);
        self
    }

    /// Arms the deterministic fault injector (see
    /// [`EngineConfig::fault_plan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The cache capacity in experts implied by the ratio.
    pub fn cache_capacity(&self) -> usize {
        self.model.cache_capacity_for_ratio(self.cache_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_along_the_table1_axes() {
        let m = ModelConfig::deepseek();
        let h = EngineConfig::preset(Framework::HybriMoe, m.clone(), 0.25);
        let k = EngineConfig::preset(Framework::KTransformers, m.clone(), 0.25);
        let a = EngineConfig::preset(Framework::AdapMoe, m.clone(), 0.25);
        let l = EngineConfig::preset(Framework::LlamaCpp, m, 0.25);

        assert_eq!(h.scheduler, SchedulerKind::Hybrid);
        assert_eq!(k.scheduler, SchedulerKind::FixedMapping);
        assert_eq!(a.scheduler, SchedulerKind::GpuOnly);
        assert_eq!(l.scheduler, SchedulerKind::StaticSplit);

        // The static frameworks write nothing to the cache after warmup.
        for c in [&k, &l] {
            assert!(!c.demand_inserts && !c.refill_on_miss);
            assert_eq!(c.prefetcher, PrefetcherKind::None);
        }
        assert!(h.demand_inserts && a.demand_inserts);
        assert_eq!(h.cache_policy, CachePolicyKind::Mrs);
        assert_eq!(a.cache_policy, CachePolicyKind::Lru);
    }

    #[test]
    fn ablation_builders_unpin() {
        // A builder that makes a component dynamic turns on the cache
        // writes it needs, so the static placement can move.
        let m = ModelConfig::qwen2();
        let c = EngineConfig::preset(Framework::KTransformers, m.clone(), 0.25)
            .with_scheduler(SchedulerKind::Hybrid);
        assert!(c.demand_inserts && !c.refill_on_miss);
        assert_eq!(c.prefetcher, PrefetcherKind::None);
        let c = EngineConfig::preset(Framework::KTransformers, m, 0.25)
            .with_cache_policy(CachePolicyKind::Mrs);
        assert!(c.demand_inserts && c.refill_on_miss);
    }

    #[test]
    fn cache_capacity_follows_ratio() {
        let c = EngineConfig::preset(Framework::HybriMoe, ModelConfig::mixtral(), 0.5);
        assert_eq!(c.cache_capacity(), 128);
    }

    #[test]
    fn kinds_build_components() {
        for s in [
            SchedulerKind::Hybrid,
            SchedulerKind::FixedMapping,
            SchedulerKind::GpuOnly,
            SchedulerKind::StaticSplit,
        ] {
            assert!(!s.build().name().is_empty());
        }
        for p in [
            PrefetcherKind::None,
            PrefetcherKind::NextLayerTopK,
            PrefetcherKind::ImpactDriven,
        ] {
            assert!(!p.build().name().is_empty());
        }
        for c in [
            CachePolicyKind::Lru,
            CachePolicyKind::Lfu,
            CachePolicyKind::Mrs,
        ] {
            assert!(!c.build(0.3).name().is_empty());
        }
    }

    #[test]
    fn num_gpus_defaults_to_one_and_lives_on_the_platform() {
        let c = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5);
        assert_eq!(c.platform.num_gpus, 1);
        assert_eq!(c.clone().with_num_gpus(4).platform.num_gpus, 4);
        // Both builders describe the same two-GPU engine.
        assert_eq!(
            c.clone().with_num_gpus(2),
            c.with_platform(Platform::a6000_xeon10().with_gpus(2))
        );
    }

    #[test]
    fn presets_use_default_inflight_bound() {
        for f in Framework::ALL {
            let c = EngineConfig::preset(f, ModelConfig::tiny_test(), 0.5);
            assert_eq!(c.max_inflight, DEFAULT_MAX_INFLIGHT);
        }
        let c = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5)
            .with_max_inflight(0);
        assert_eq!(c.max_inflight, 0);
    }

    #[test]
    fn presets_default_to_sim_backend() {
        for f in Framework::ALL {
            let c = EngineConfig::preset(f, ModelConfig::tiny_test(), 0.5);
            assert_eq!(c.backend, BackendKind::Sim);
            assert!(!c.backend.needs_token_states());
            assert_eq!(c.real_exec, RealExecOptions::default());
        }
        let opts = RealExecOptions {
            weight_budget_bytes: 1 << 20,
            max_threads: 2,
            ..Default::default()
        };
        let c = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5)
            .with_backend(BackendKind::RealCpu)
            .with_real_exec(opts);
        assert!(c.backend.needs_token_states());
        assert_eq!(c.real_exec, opts);
    }

    #[test]
    fn prefetch_pipeline_knobs_default_off() {
        for f in Framework::ALL {
            let c = EngineConfig::preset(f, ModelConfig::tiny_test(), 0.5);
            assert_eq!(c.chunked_prefill_size, None);
        }
        let c = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5)
            .with_chunked_prefill(64);
        assert_eq!(c.chunked_prefill_size, Some(64));
    }

    #[test]
    #[should_panic(expected = "chunked prefill size")]
    fn sub_threshold_chunk_rejected() {
        let _ = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5)
            .with_chunked_prefill(16);
    }

    #[test]
    fn framework_names_unique() {
        let names: std::collections::HashSet<_> = Framework::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 4);
        assert_eq!(Framework::HybriMoe.to_string(), "HybriMoE");
    }
}
