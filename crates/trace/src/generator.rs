//! The AR(1) hidden-state trace generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hybrimoe_model::{route_in_place, LayerId, LayerRouting, ModelConfig, RouterOutput};

use crate::{ActivationTrace, LayerRecord, TokenStates, TraceStep};

/// Tunable parameters of the synthetic activation process.
///
/// Defaults are chosen so the generated traces match the paper's measured
/// statistics: an expert-frequency CDF close to the diagonal (Fig. 3(a)),
/// reuse probability rising with score rank (Fig. 3(b)), and adjacent-layer
/// similarity high enough for prefetching to pay off.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// AR(1) coefficient of the hidden state across layers (residual-stream
    /// similarity). Higher → adjacent layers route more similarly.
    pub layer_correlation: f64,
    /// AR(1) coefficient of the hidden state across decode iterations
    /// (temporal continuity of language). Higher → more expert reuse.
    pub temporal_correlation: f64,
    /// Gain applied to router logits. Higher → sharper routing (more skew
    /// within an iteration).
    pub gate_gain: f64,
    /// AR(1) coefficient of the router projections across layers. Adjacent
    /// layers of trained MoE models route similarly ("high activation
    /// similarity between adjacent layers", §III); correlated projections
    /// reproduce that.
    pub projection_correlation: f64,
    /// Standard deviation of the persistent per-(layer, expert) popularity
    /// bias added to the router logits. Zero gives perfectly uniform
    /// long-run frequencies; the paper's Fig. 3(a) CDFs show mild skew.
    pub expert_bias: f64,
    /// Dimension of the latent hidden state.
    pub latent_dim: usize,
    /// How many future layers each record predicts (the paper uses 3).
    pub lookahead: usize,
    /// Correlation between tokens of one prefill prompt (shared topic).
    pub prompt_cohesion: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            layer_correlation: 0.82,
            temporal_correlation: 0.35,
            gate_gain: 2.2,
            projection_correlation: 0.72,
            expert_bias: 0.7,
            latent_dim: 32,
            lookahead: 3,
            prompt_cohesion: 0.55,
        }
    }
}

/// Generates deterministic synthetic activation traces for one model.
///
/// # Example
///
/// ```
/// use hybrimoe_model::ModelConfig;
/// use hybrimoe_trace::TraceGenerator;
///
/// let g = TraceGenerator::new(ModelConfig::mixtral(), 1);
/// let a = g.decode_trace(8);
/// let b = g.decode_trace(8);
/// assert_eq!(a, b); // same seed → identical trace
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    model: ModelConfig,
    config: TraceConfig,
    seed: u64,
    capture_states: bool,
}

impl TraceGenerator {
    /// Creates a generator with default [`TraceConfig`].
    pub fn new(model: ModelConfig, seed: u64) -> Self {
        TraceGenerator {
            model,
            config: TraceConfig::default(),
            seed,
            capture_states: false,
        }
    }

    /// Creates a generator with an explicit configuration.
    pub fn with_config(model: ModelConfig, seed: u64, config: TraceConfig) -> Self {
        TraceGenerator {
            model,
            config,
            seed,
            capture_states: false,
        }
    }

    /// Enables [`TokenStates`](crate::TokenStates) capture: every generated
    /// [`LayerRecord`] additionally carries each token's hidden-state input
    /// (expanded deterministically from the latent process to the model's
    /// hidden dimension) and its per-token [`RouterOutput`] — the inputs a
    /// real-execution backend needs. Capture draws no extra randomness, so
    /// the routings are bit-identical to the same seed without capture.
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_model::ModelConfig;
    /// use hybrimoe_trace::TraceGenerator;
    ///
    /// let model = ModelConfig::tiny_test();
    /// let g = TraceGenerator::new(model.clone(), 3).with_token_states();
    /// let t = g.decode_trace(1);
    /// let states = t.steps[0].layers[0].states.as_ref().unwrap();
    /// assert_eq!(states.tokens(), 1);
    /// assert_eq!(states.inputs[0].len(), model.routed_shape.hidden() as usize);
    /// ```
    pub fn with_token_states(mut self) -> Self {
        self.capture_states = true;
        self
    }

    /// The model this generator describes.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The generator configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Generates a decode trace: `iterations` autoregressive steps of one
    /// token each.
    ///
    /// Equivalent to draining [`TraceGenerator::decode_stream`] for
    /// `iterations` steps; the two produce bit-identical routings for the
    /// same seed.
    pub fn decode_trace(&self, iterations: usize) -> ActivationTrace {
        let mut stream = self.decode_stream();
        let steps = (0..iterations).map(|_| stream.next_step()).collect();
        ActivationTrace {
            model_name: self.model.name.clone(),
            seed: self.seed,
            steps,
        }
    }

    /// Opens an **incremental** decode stream: each call to
    /// [`DecodeStream::next_step`] produces the next autoregressive token's
    /// forward pass without pre-generating the whole trace. This is the
    /// per-request generation path of the serving layer, where a request's
    /// output length is not known up front.
    ///
    /// The token latent *and* every layer transition's innovation evolve
    /// with the temporal AR(1) coefficient, so the hidden state at
    /// **every** depth is equally correlated across iterations — fresh
    /// per-iteration layer noise would destroy temporal reuse in deep
    /// layers.
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_model::ModelConfig;
    /// use hybrimoe_trace::TraceGenerator;
    ///
    /// let g = TraceGenerator::new(ModelConfig::tiny_test(), 3);
    /// let mut stream = g.decode_stream();
    /// let step = stream.next_step();
    /// assert_eq!(step, g.decode_trace(1).steps[0]);
    /// ```
    pub fn decode_stream(&self) -> DecodeStream {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let bundle = self.model_params(&mut rng);
        self.stream_from(bundle, rng)
    }

    /// Builds a decode stream from an already-derived parameter bundle and
    /// the rng positioned right after it — the single construction path
    /// that keeps [`decode_stream`](Self::decode_stream) and
    /// [`request`](Self::request) bit-identical on the decode side.
    fn stream_from(&self, bundle: ModelParams, mut rng: StdRng) -> DecodeStream {
        let d = self.config.latent_dim;
        let token_latent = gaussian_vec(&mut rng, d);
        let innovations: Vec<Vec<f64>> = (0..self.read_innovations())
            .map(|_| gaussian_vec(&mut rng, d))
            .collect();
        skip_gaussians(&mut rng, self.unread_innovation_draws());
        DecodeStream {
            generator: self.clone(),
            bundle,
            rng,
            token_latent,
            innovations,
            scratch: ForwardScratch::default(),
        }
    }

    /// Generates a batched decode trace: `sequences` independent requests
    /// decoded in lockstep for `iterations` steps (small-batch serving).
    /// Each step routes `sequences` tokens, one per request, so per-expert
    /// loads range over `0..=sequences` — the intermediate regime between
    /// single-token decode and prefill.
    pub fn decode_trace_batched(&self, iterations: usize, sequences: u32) -> ActivationTrace {
        assert!(sequences > 0, "batch must contain at least one sequence");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xBA7C_4ED0);
        let bundle = self.model_params(&mut rng);
        let d = self.config.latent_dim;
        let rho_t = self.config.temporal_correlation;
        let n = sequences as usize;

        // Independent latent chains and per-layer innovations per sequence.
        let mut token_latents: Vec<Vec<f64>> = (0..n).map(|_| gaussian_vec(&mut rng, d)).collect();
        let mut innovations: Vec<Vec<Vec<f64>>> = (0..n)
            .map(|_| {
                let read = (0..self.read_innovations())
                    .map(|_| gaussian_vec(&mut rng, d))
                    .collect();
                skip_gaussians(&mut rng, self.unread_innovation_draws());
                read
            })
            .collect();

        let mut scratch = ForwardScratch::default();
        let mut steps = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            for latent in &mut token_latents {
                evolve(latent, rho_t, &mut rng);
            }
            for seq in &mut innovations {
                for inno in seq.iter_mut() {
                    evolve(inno, rho_t, &mut rng);
                }
                skip_gaussians(&mut rng, self.unread_innovation_draws());
            }
            let mut step = self.empty_step();
            for (latent, seq) in token_latents.iter().zip(&innovations) {
                self.forward_into(&bundle, latent, |l| &seq[l], &mut scratch, &mut step);
            }
            steps.push(step);
        }
        ActivationTrace {
            model_name: self.model.name.clone(),
            seed: self.seed,
            steps,
        }
    }

    /// Generates a prefill trace: one forward pass over a batch of `tokens`
    /// prompt tokens.
    pub fn prefill_trace(&self, tokens: u32) -> ActivationTrace {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED_F111);
        let bundle = self.model_params(&mut rng);
        ActivationTrace {
            model_name: self.model.name.clone(),
            seed: self.seed,
            steps: self.prefill_chunks_with(&bundle, &mut rng, tokens, u32::MAX),
        }
    }

    /// Opens a full request view: the prompt's prefill pass plus an
    /// incremental decode stream, sharing **one** set of per-seed router
    /// parameters — a request's prompt and output go through the same
    /// model weights, and deriving the parameter bundle once halves the
    /// per-request setup cost of a serving admission.
    ///
    /// The decode stream is bit-identical to
    /// [`TraceGenerator::decode_stream`]; the prefill pass routes with the
    /// decode-side parameters and therefore differs from
    /// [`TraceGenerator::prefill_trace`] (which draws its own bundle).
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_model::ModelConfig;
    /// use hybrimoe_trace::TraceGenerator;
    ///
    /// let g = TraceGenerator::new(ModelConfig::tiny_test(), 3);
    /// let (prefill, mut stream) = g.request(16);
    /// assert_eq!(prefill.tokens, 16);
    /// assert_eq!(stream.next_step(), g.decode_stream().next_step());
    /// ```
    pub fn request(&self, prompt_tokens: u32) -> (TraceStep, DecodeStream) {
        let (mut chunks, stream) = self.request_chunked(prompt_tokens, u32::MAX);
        let prefill = chunks.pop().expect("an unchunked prompt is one chunk");
        (prefill, stream)
    }

    /// [`TraceGenerator::request`] with the prompt split into
    /// decode-interleavable chunks of `chunk_size` tokens (ktransformers
    /// style): each chunk is its own [`TraceStep`] over a contiguous token
    /// range of the prompt, so a serving layer can run other requests'
    /// decode steps between chunks. A short remainder is merged into the
    /// final chunk (every chunk spans `[chunk_size, 2·chunk_size)` tokens)
    /// so no trailing sliver schedules as a decode-regime batch.
    ///
    /// The randomness is drawn in **exactly** the same order whatever
    /// `chunk_size`, and only the forward pass is sliced, so every token's
    /// latent, routes and captured hidden states are bit-identical to the
    /// unchunked prefill of [`TraceGenerator::request`] — chunking changes
    /// *when* tokens run, never *what* they compute. With `chunk_size >=
    /// prompt_tokens` the single chunk is that prefill step.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_model::ModelConfig;
    /// use hybrimoe_trace::TraceGenerator;
    ///
    /// let g = TraceGenerator::new(ModelConfig::tiny_test(), 3);
    /// let (chunks, _) = g.request_chunked(80, 32);
    /// let tokens: Vec<u32> = chunks.iter().map(|c| c.tokens).collect();
    /// assert_eq!(tokens, vec![32, 48]); // 80 = 32 + 48, no 16-token sliver
    /// ```
    pub fn request_chunked(
        &self,
        prompt_tokens: u32,
        chunk_size: u32,
    ) -> (Vec<TraceStep>, DecodeStream) {
        assert!(chunk_size > 0, "chunk size must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let bundle = self.model_params(&mut rng);

        let mut prefill_rng = StdRng::seed_from_u64(self.seed ^ 0x5EED_F111);
        let chunks = self.prefill_chunks_with(&bundle, &mut prefill_rng, prompt_tokens, chunk_size);
        (chunks, self.stream_from(bundle, rng))
    }

    /// The shared prefill path. It draws the prompt's topic and every
    /// token's latent first, into one flat `tokens × latent_dim` buffer,
    /// then runs the prompt one token at a time in contiguous `chunk_size`
    /// spans: just before each token's forward pass it draws that token's
    /// layer innovations into one reused buffer (skipping the unread
    /// ones). That is the draw order of drawing every innovation up front,
    /// and each routing still receives its tokens in prompt order, so
    /// every bit matches; only the working memory shrinks, from the whole
    /// prompt's innovations to one token's.
    fn prefill_chunks_with(
        &self,
        bundle: &ModelParams,
        rng: &mut StdRng,
        tokens: u32,
        chunk_size: u32,
    ) -> Vec<TraceStep> {
        let d = self.config.latent_dim;
        let cohesion = self.config.prompt_cohesion;
        let private = (1.0 - cohesion * cohesion).sqrt();
        let n = tokens as usize;

        // Tokens of one prompt share a topic latent plus private noise.
        let topic = gaussian_vec(rng, d);
        let mut latents = Vec::with_capacity(n * d);
        for _ in 0..n {
            latents.extend(topic.iter().map(|t| cohesion * t + private * gaussian(rng)));
        }

        // One token's per-layer innovations (a single pass: no temporal
        // dimension to correlate), redrawn before each token's pass.
        let mut innovations = vec![0.0; self.read_innovations() * d];
        let size = (chunk_size as usize).max(1);
        let mut scratch = ForwardScratch::default();
        let mut steps = Vec::with_capacity(n / size + 1);
        let mut start = 0usize;
        while start < n {
            let remaining = n - start;
            // Merge a short remainder into this chunk instead of emitting
            // a trailing sliver.
            let take = if remaining < 2 * size {
                remaining
            } else {
                size
            };
            let mut step = self.empty_step();
            // The chunk's tokens are routed one at a time: size its state
            // lists once.
            for states in step.layers.iter_mut().filter_map(|r| r.states.as_mut()) {
                states.inputs.reserve_exact(take);
                states.routes.reserve_exact(take);
            }
            for t in start..start + take {
                innovations.fill_with(|| gaussian(rng));
                skip_gaussians(rng, self.unread_innovation_draws());
                let latent = &latents[t * d..(t + 1) * d];
                let innovation = |l: usize| &innovations[l * d..][..d];
                self.forward_into(bundle, latent, innovation, &mut scratch, &mut step);
            }
            steps.push(step);
            start += take;
        }
        if steps.is_empty() {
            // A zero-token prompt still produces one (empty) forward pass.
            steps.push(self.empty_step());
        }
        steps
    }

    /// A forward pass of zero tokens in this generator's shape: every
    /// layer's routing and its predicted routings are empty, and token
    /// states are present (and empty) exactly when the generator captures
    /// them. [`DecodeStream::next_step_into`] and
    /// [`TraceStep::absorb`] fill it; a filled step returns to this value
    /// with [`TraceStep::clear`].
    ///
    /// # Example
    ///
    /// ```
    /// use hybrimoe_model::ModelConfig;
    /// use hybrimoe_trace::TraceGenerator;
    ///
    /// let g = TraceGenerator::new(ModelConfig::tiny_test(), 3);
    /// let mut step = g.empty_step();
    /// g.decode_stream().next_step_into(&mut step);
    /// assert_eq!(step, g.decode_trace(1).steps[0]);
    /// ```
    pub fn empty_step(&self) -> TraceStep {
        let experts = self.model.routed_experts;
        let empty = |l: usize| LayerRouting::empty(LayerId(l as u16), experts);
        TraceStep {
            tokens: 0,
            layers: (0..self.model.layers as usize)
                .map(|l| LayerRecord {
                    routing: empty(l),
                    predicted: (l + 1..=l + self.lookahead(l)).map(empty).collect(),
                    states: self.capture_states.then(|| TokenStates {
                        inputs: Vec::new(),
                        routes: Vec::new(),
                    }),
                })
                .collect(),
        }
    }

    /// How many later routers layer `l` predicts: the configured lookahead,
    /// cut at the model's last layer.
    fn lookahead(&self, l: usize) -> usize {
        self.config
            .lookahead
            .min(self.model.layers as usize - 1 - l)
    }

    /// How many innovation vectors a forward pass reads: one per layer
    /// transition. The last layer's would only evolve the hidden state
    /// after the last router, which nothing reads.
    fn read_innovations(&self) -> usize {
        (self.model.layers as usize).saturating_sub(1)
    }

    /// The gaussian draws of the innovations a forward pass does not read
    /// (see [`read_innovations`](Self::read_innovations)): the rng still
    /// advances past them, so every later draw stays where it was.
    fn unread_innovation_draws(&self) -> usize {
        (self.model.layers as usize - self.read_innovations()) * self.config.latent_dim
    }

    /// The per-seed model parameters: router projections (AR(1)-correlated
    /// across layers) and a persistent per-(layer, expert) popularity bias.
    fn model_params(&self, rng: &mut StdRng) -> ModelParams {
        let e = self.model.routed_experts as usize;
        let d = self.config.latent_dim;
        let rho = self.config.projection_correlation;
        let noise_scale = (1.0 - rho * rho).max(0.0).sqrt();
        // Drawn expert-major, stored latent-major (and padded) for the
        // logit tiles.
        let latent_major = |w: &[f64]| -> Vec<f64> {
            let pad = e.next_multiple_of(TILE) - e;
            let mut out = Vec::with_capacity(d * e + pad);
            for j in 0..d {
                out.extend(w[j..].iter().step_by(d).take(e));
            }
            out.resize(d * e + pad, 0.0);
            out
        };
        let mut current: Vec<f64> = (0..e * d).map(|_| gaussian(rng)).collect();
        let mut projections = Vec::with_capacity(self.model.layers as usize);
        projections.push(latent_major(&current));
        for _ in 1..self.model.layers {
            for v in current.iter_mut() {
                *v = rho * *v + noise_scale * gaussian(rng);
            }
            projections.push(latent_major(&current));
        }
        let biases: Vec<Vec<f64>> = (0..self.model.layers)
            .map(|_| {
                (0..e)
                    .map(|_| self.config.expert_bias * gaussian(rng))
                    .collect()
            })
            .collect();
        ModelParams {
            projections,
            biases,
        }
    }

    /// Runs one token's latent through every layer and adds the token to
    /// `step`, after any it already holds: per layer, its true routing, its
    /// predicted routings and (when captured) its state. `innovation(l)`
    /// supplies the layer-transition noise entering layer `l+1`; it is
    /// never asked for the last layer, whose hidden state would feed no
    /// router. A batch is one call per token, in batch order. Everything
    /// but `step` lives in `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not in this generator's shape (see
    /// [`empty_step`](Self::empty_step)).
    fn forward_into<'a>(
        &self,
        params: &ModelParams,
        latent: &[f64],
        innovation: impl Fn(usize) -> &'a [f64],
        scratch: &mut ForwardScratch,
        step: &mut TraceStep,
    ) {
        let layers = self.model.layers as usize;
        let rho_l = self.config.layer_correlation;
        let noise_scale = (1.0 - rho_l * rho_l).max(0.0).sqrt();
        assert_eq!(
            step.layers.len(),
            layers,
            "routing into a step of another model"
        );

        // The token's hidden state, evolving across layers.
        scratch.hidden.clear();
        scratch.hidden.extend_from_slice(latent);
        step.tokens += 1;
        let model_hidden = self.model.routed_shape.hidden() as usize;
        for (l, record) in step.layers.iter_mut().enumerate() {
            let LayerRecord {
                routing,
                predicted,
                states,
            } = record;
            assert_eq!(
                states.is_some(),
                self.capture_states,
                "routing into a step with and without token states"
            );
            // Real-execution inputs: the latent expanded to the model's
            // hidden dimension plus this layer's route. Captured *before*
            // the latent evolves, so the state is the layer's actual input.
            let routes = states.as_mut().map(|s| {
                s.inputs.push(expand_latent(&scratch.hidden, model_hidden));
                &mut s.routes
            });
            // True routing from the current hidden state.
            self.route_layer(params, l, scratch, routing, routes);

            // Predicted routings: current hidden state through the *later*
            // routers (paper Fig. 6).
            assert_eq!(
                predicted.len(),
                self.lookahead(l),
                "routing into a step with another lookahead depth"
            );
            for (later, p) in (l + 1..).zip(predicted.iter_mut()) {
                self.route_layer(params, later, scratch, p, None);
            }

            // Evolve the hidden state into the next layer.
            if l + 1 == layers {
                break;
            }
            for (v, n) in scratch.hidden.iter_mut().zip(innovation(l)) {
                *v = rho_l * *v + noise_scale * n;
            }
        }
    }

    /// Routes the hidden state in `scratch` through `layer`'s router and
    /// adds the token to `routing`. With `routes`, its [`RouterOutput`] is
    /// kept too.
    fn route_layer(
        &self,
        params: &ModelParams,
        layer: usize,
        scratch: &mut ForwardScratch,
        routing: &mut LayerRouting,
        routes: Option<&mut Vec<RouterOutput>>,
    ) {
        let k = self.model.activated_experts as usize;
        let experts = self.model.routed_experts as usize;
        let ForwardScratch {
            hidden,
            dots,
            scores,
            top,
        } = scratch;
        dots.resize(experts, 0.0);
        scores.resize(experts, 0.0);
        self.logits_into(params, layer, hidden, dots, scores);
        route_in_place(scores, k, top);
        routing.add_token(scores, top.iter().map(|&(e, _)| e));
        if let Some(routes) = routes {
            routes.push(RouterOutput::from_top_k(scores.clone(), top));
        }
    }

    /// Router logits for one token at one layer, written to `logits`
    /// (`dots` is scratch). Each expert's dot is summed from `-0.0` in
    /// latent order — the bits of `row.iter().zip(hidden).map(|(a, b)| a *
    /// b).sum()` — but [`TILE`] experts' sums run side by side, so they
    /// vectorize and no one sum waits on its own adder. The last `e %
    /// TILE` experts run in one more full-width tile, whose spare lanes
    /// read past the row (into the next latent's weights or the
    /// projection's zero padding) and are dropped: every tile has the same
    /// const width, so the remainder is as fast as a full tile.
    fn logits_into(
        &self,
        params: &ModelParams,
        layer: usize,
        hidden: &[f64],
        dots: &mut [f64],
        logits: &mut [f32],
    ) {
        let e = self.model.routed_experts as usize;
        let projection = &params.projections[layer];
        for (t, tile) in dots.chunks_mut(TILE).enumerate() {
            let mut acc = [-0.0f64; TILE];
            for (j, &h) in hidden.iter().enumerate() {
                let w = &projection[j * e + t * TILE..][..TILE];
                for (a, w) in acc.iter_mut().zip(w) {
                    *a += w * h;
                }
            }
            tile.copy_from_slice(&acc[..tile.len()]);
        }
        let norm = (self.config.latent_dim as f64).sqrt();
        let gain = self.config.gate_gain;
        for ((logit, &dot), &bias) in logits
            .iter_mut()
            .zip(dots.iter())
            .zip(&params.biases[layer])
        {
            *logit = (gain * dot / norm + bias) as f32;
        }
    }
}

/// Experts whose router dots [`TraceGenerator::logits_into`] sums at once.
const TILE: usize = 16;

/// The buffers one forward pass reuses across layers, tokens and (in a
/// [`DecodeStream`]) steps.
#[derive(Debug, Clone, Default)]
struct ForwardScratch {
    /// The routed token's hidden state, `latent_dim` floats.
    hidden: Vec<f64>,
    /// One token's router dots, one per expert.
    dots: Vec<f64>,
    /// One token's logits, softmaxed in place into its scores.
    scores: Vec<f32>,
    /// One token's top-k `(expert, score)` pairs.
    top: Vec<(usize, f32)>,
}

/// Per-seed router parameters.
#[derive(Debug, Clone)]
struct ModelParams {
    /// Per-layer projection matrices, `latent_dim x experts`: expert `i`'s
    /// weight on latent `j` is at `j * experts + i`. Zeros pad each to
    /// `(latent_dim - 1) * experts` plus a whole number of [`TILE`]s, so
    /// the last tile of the last latent reads in bounds.
    projections: Vec<Vec<f64>>,
    /// Per-layer, per-expert popularity biases.
    biases: Vec<Vec<f64>>,
}

/// An incremental autoregressive decode: one token per call, with the
/// AR(1) hidden state carried across calls — as its own [`TraceStep`]
/// ([`next_step`](Self::next_step)) or routed into a batch's step
/// ([`next_step_into`](Self::next_step_into)). Obtained from
/// [`TraceGenerator::decode_stream`]; also usable as an [`Iterator`]
/// (infinite — bound it with `take`).
///
/// The stream keeps one innovation per layer transition. The last layer's
/// innovation would only evolve the hidden state after the last router,
/// which nothing reads, so its draws advance the rng without being
/// computed: every routing is bit-identical to drawing it.
#[derive(Debug, Clone)]
pub struct DecodeStream {
    generator: TraceGenerator,
    bundle: ModelParams,
    rng: StdRng,
    token_latent: Vec<f64>,
    innovations: Vec<Vec<f64>>,
    scratch: ForwardScratch,
}

impl DecodeStream {
    /// Advances the latent process one iteration and routes the next token
    /// through every layer.
    pub fn next_step(&mut self) -> TraceStep {
        let mut step = self.generator.empty_step();
        self.next_step_into(&mut step);
        step
    }

    /// [`next_step`](Self::next_step), with the token added to `step`
    /// after whatever it already holds: bit for bit
    /// `step.absorb(stream.next_step())`, because a one-token part's score
    /// mass is `0.0 + s == s`. A continuous batcher routes every decode
    /// token of a batch straight into the batch's step this way; a warm
    /// call allocates nothing unless the stream captures token states.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not in the shape of this stream's
    /// [`TraceGenerator::empty_step`] (layers, lookahead, token states).
    pub fn next_step_into(&mut self, step: &mut TraceStep) {
        let rho_t = self.generator.config.temporal_correlation;
        evolve(&mut self.token_latent, rho_t, &mut self.rng);
        for inno in &mut self.innovations {
            evolve(inno, rho_t, &mut self.rng);
        }
        skip_gaussians(&mut self.rng, self.generator.unread_innovation_draws());
        self.generator.forward_into(
            &self.bundle,
            &self.token_latent,
            |l| &self.innovations[l],
            &mut self.scratch,
            step,
        );
    }

    /// The model this stream decodes for.
    pub fn model(&self) -> &ModelConfig {
        &self.generator.model
    }
}

impl Iterator for DecodeStream {
    type Item = TraceStep;

    fn next(&mut self) -> Option<TraceStep> {
        Some(self.next_step())
    }
}

/// Expands a latent vector to the model's hidden dimension: each repetition
/// block reuses the latent at a decaying scale, keeping the magnitude in
/// the ~0.1 range the quantized kernels are exercised with. Deterministic
/// (no randomness), so token states replay bit-for-bit.
fn expand_latent(latent: &[f64], hidden: usize) -> Vec<f32> {
    if latent.is_empty() {
        return vec![0.0; hidden];
    }
    let d = latent.len();
    (0..hidden)
        .map(|i| (latent[i % d] * 0.1 / (1 + i / d) as f64) as f32)
        .collect()
}

/// One AR(1) step: `h ← ρ·h + sqrt(1-ρ²)·ε` (keeps unit variance).
fn evolve(h: &mut [f64], rho: f64, rng: &mut StdRng) {
    let noise_scale = (1.0 - rho * rho).max(0.0).sqrt();
    for v in h.iter_mut() {
        *v = rho * *v + noise_scale * gaussian(rng);
    }
}

/// A standard normal sample (Box-Muller, deterministic from the rng).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Advances `rng` past `n` [`gaussian`] draws without their `ln`, `sqrt`
/// and `cos`: the same two uniform draws each, discarded.
fn skip_gaussians(rng: &mut StdRng, n: usize) {
    for _ in 0..n {
        let _: f64 = rng.gen_range(f64::EPSILON..1.0);
        let _: f64 = rng.gen_range(0.0..1.0);
    }
}

fn gaussian_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| gaussian(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrimoe_model::ModelConfig;

    #[test]
    fn skipping_gaussians_leaves_the_rng_where_drawing_them_does() {
        for n in [0, 1, 2, 31, 32] {
            let mut drawn = StdRng::seed_from_u64(19);
            let mut skipped = drawn.clone();
            for _ in 0..n {
                gaussian(&mut drawn);
            }
            skip_gaussians(&mut skipped, n);
            assert_eq!(
                gaussian(&mut skipped),
                gaussian(&mut drawn),
                "after {n} draws"
            );
        }
    }

    /// Every dot, full tile or remainder, has the bits of the plain
    /// latent-order sum from `-0.0`.
    #[test]
    fn tiled_dots_equal_the_plain_sum() {
        for experts in [1u16, 7, 8, 15, 16, 17, 60, 64] {
            let model = ModelConfig {
                routed_experts: experts,
                activated_experts: 1,
                ..ModelConfig::tiny_test()
            };
            let g = TraceGenerator::new(model, 43);
            let mut rng = StdRng::seed_from_u64(43);
            let params = g.model_params(&mut rng);
            let d = g.config.latent_dim;
            let e = experts as usize;
            let hidden = gaussian_vec(&mut rng, d);
            let mut dots = vec![f64::NAN; e];
            let mut logits = vec![0.0f32; e];
            for layer in 0..g.model.layers as usize {
                g.logits_into(&params, layer, &hidden, &mut dots, &mut logits);
                let projection = &params.projections[layer];
                for (i, dot) in dots.iter().enumerate() {
                    let row: Vec<f64> = (0..d).map(|j| projection[j * e + i]).collect();
                    let plain: f64 = row.iter().zip(&hidden).map(|(a, b)| a * b).sum();
                    assert_eq!(
                        dot.to_bits(),
                        plain.to_bits(),
                        "{experts} experts, layer {layer}, expert {i}"
                    );
                }
            }
        }
    }

    /// The latent-major projections are the expert-major draws, transposed,
    /// then zero-padded to the end of the last latent's last tile.
    #[test]
    fn projections_are_the_transposed_draws() {
        let model = ModelConfig {
            layers: 1,
            routed_experts: 5,
            ..ModelConfig::tiny_test()
        };
        let g = TraceGenerator::new(model, 47);
        let params = g.model_params(&mut StdRng::seed_from_u64(47));
        let mut rng = StdRng::seed_from_u64(47);
        let drawn: Vec<f64> = (0..5 * g.config.latent_dim)
            .map(|_| gaussian(&mut rng))
            .collect();
        for (i, row) in drawn.chunks_exact(g.config.latent_dim).enumerate() {
            for (j, w) in row.iter().enumerate() {
                assert_eq!(params.projections[0][j * 5 + i].to_bits(), w.to_bits());
            }
        }
        assert_eq!(params.projections[0][drawn.len()..], [0.0; TILE - 5]);
    }

    #[test]
    fn decode_trace_shape() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 3);
        let t = g.decode_trace(5);
        assert_eq!(t.steps.len(), 5);
        for step in &t.steps {
            assert_eq!(step.tokens, 1);
            assert_eq!(step.layers.len(), 4);
            for rec in &step.layers {
                assert_eq!(rec.routing.loads().len(), 8);
                // One token activates exactly K experts with load 1.
                assert_eq!(rec.routing.loads().iter().sum::<u32>(), 2);
                assert!(rec.routing.loads().iter().all(|l| *l <= 1));
            }
        }
    }

    #[test]
    fn lookahead_truncates_at_model_end() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 3);
        let t = g.decode_trace(1);
        let layers = &t.steps[0].layers;
        assert_eq!(layers[0].predicted.len(), 3);
        assert_eq!(layers[1].predicted.len(), 2);
        assert_eq!(layers[3].predicted.len(), 0);
        // Predicted layer ids are consecutive.
        assert_eq!(layers[0].predicted[0].layer(), LayerId(1));
        assert_eq!(layers[0].predicted[2].layer(), LayerId(3));
    }

    #[test]
    fn batched_decode_shape_and_loads() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 7);
        let t = g.decode_trace_batched(3, 4);
        assert_eq!(t.steps.len(), 3);
        for step in &t.steps {
            assert_eq!(step.tokens, 4);
            for rec in &step.layers {
                // 4 sequences x top-2 routing.
                assert_eq!(rec.routing.loads().iter().sum::<u32>(), 8);
                assert!(rec.routing.loads().iter().all(|l| *l <= 4));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one sequence")]
    fn batched_decode_rejects_empty_batch() {
        let _ = TraceGenerator::new(ModelConfig::tiny_test(), 7).decode_trace_batched(1, 0);
    }

    #[test]
    fn decode_stream_matches_decode_trace() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 21);
        let trace = g.decode_trace(6);
        let streamed: Vec<TraceStep> = g.decode_stream().take(6).collect();
        assert_eq!(trace.steps, streamed);
    }

    #[test]
    fn decode_stream_is_stateful() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 23);
        let mut s = g.decode_stream();
        let a = s.next_step();
        let b = s.next_step();
        // Consecutive steps are distinct draws of the same process.
        assert_ne!(a, b);
        assert_eq!(s.model().name, "tiny-test");
    }

    #[test]
    fn request_decode_half_matches_decode_stream() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 27);
        let (prefill, stream) = g.request(8);
        assert_eq!(prefill.tokens, 8);
        assert_eq!(prefill.layers.len(), 4);
        // One token of a request's prompt activates exactly K experts.
        assert_eq!(prefill.layers[0].routing.loads().iter().sum::<u32>(), 16);
        let streamed: Vec<TraceStep> = stream.take(4).collect();
        let reference: Vec<TraceStep> = g.decode_stream().take(4).collect();
        assert_eq!(streamed, reference);
    }

    #[test]
    fn chunked_request_with_one_chunk_equals_request() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 31).with_token_states();
        let (prefill, mut stream) = g.request(40);
        let (chunks, mut chunked_stream) = g.request_chunked(40, 64);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], prefill);
        assert_eq!(chunked_stream.next_step(), stream.next_step());
    }

    #[test]
    fn chunked_request_slices_the_same_tokens() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 37).with_token_states();
        let (prefill, _) = g.request(80);
        let (chunks, _) = g.request_chunked(80, 32);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].tokens, 32);
        assert_eq!(chunks[1].tokens, 48);
        for l in 0..prefill.layers.len() {
            // Per-token hidden states and routes concatenate back exactly.
            let full = prefill.layers[l].states.as_ref().unwrap();
            let mut token = 0usize;
            for chunk in &chunks {
                let part = chunk.layers[l].states.as_ref().unwrap();
                for (i, input) in part.inputs.iter().enumerate() {
                    assert_eq!(*input, full.inputs[token + i]);
                    assert_eq!(part.routes[i], full.routes[token + i]);
                }
                token += part.inputs.len();
            }
            assert_eq!(token, 80);
            // Integer loads add back to the unchunked routing.
            let mut loads = vec![0u32; prefill.layers[l].routing.loads().len()];
            for chunk in &chunks {
                for (acc, c) in loads.iter_mut().zip(chunk.layers[l].routing.loads()) {
                    *acc += c;
                }
            }
            assert_eq!(loads, prefill.layers[l].routing.loads());
        }
    }

    #[test]
    fn chunk_remainder_merges_into_last_chunk() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 39);
        // 100 = 32 + 32 + 36: the 4-token sliver rides with the last chunk.
        let (chunks, _) = g.request_chunked(100, 32);
        let tokens: Vec<u32> = chunks.iter().map(|c| c.tokens).collect();
        assert_eq!(tokens, vec![32, 32, 36]);
        assert!(tokens.iter().all(|t| *t >= 32 && *t < 64));
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_size_rejected() {
        let _ = TraceGenerator::new(ModelConfig::tiny_test(), 41).request_chunked(64, 0);
    }

    #[test]
    fn request_is_deterministic_per_seed() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 29);
        let (p1, mut s1) = g.request(8);
        let (p2, mut s2) = g.request(8);
        assert_eq!(p1, p2);
        assert_eq!(s1.next_step(), s2.next_step());
    }

    #[test]
    fn prefill_loads_sum_to_tokens_times_k() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 9);
        let t = g.prefill_trace(32);
        let rec = &t.steps[0].layers[0];
        assert_eq!(rec.routing.tokens(), 32);
        assert_eq!(rec.routing.loads().iter().sum::<u32>(), 32 * 2);
    }

    #[test]
    fn token_state_capture_does_not_change_routings() {
        let m = ModelConfig::tiny_test();
        let plain = TraceGenerator::new(m.clone(), 33).decode_trace(4);
        let with = TraceGenerator::new(m.clone(), 33)
            .with_token_states()
            .decode_trace(4);
        assert_eq!(plain.steps.len(), with.steps.len());
        for (p, w) in plain.steps.iter().zip(with.steps.iter()) {
            for (pl, wl) in p.layers.iter().zip(w.layers.iter()) {
                assert_eq!(pl.routing, wl.routing);
                assert_eq!(pl.predicted, wl.predicted);
                assert!(pl.states.is_none());
                let states = wl.states.as_ref().unwrap();
                assert_eq!(states.tokens() as u32, w.tokens);
                assert!(states
                    .inputs
                    .iter()
                    .all(|x| x.len() == m.routed_shape.hidden() as usize));
                // The per-token routes aggregate back to the layer routing.
                let rebuilt = hybrimoe_model::LayerRouting::from_tokens(
                    wl.routing.layer(),
                    m.routed_experts,
                    &states.routes,
                );
                assert_eq!(rebuilt, wl.routing);
            }
        }
    }

    #[test]
    fn request_captures_states_for_prefill_and_decode() {
        let g = TraceGenerator::new(ModelConfig::tiny_test(), 35).with_token_states();
        let (prefill, mut stream) = g.request(8);
        let states = prefill.layers[0].states.as_ref().unwrap();
        assert_eq!(states.tokens(), 8);
        assert!(states.inputs.iter().any(|x| x.iter().any(|v| *v != 0.0)));
        let step = stream.next_step();
        assert_eq!(step.layers[0].states.as_ref().unwrap().tokens(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = ModelConfig::tiny_test();
        let a = TraceGenerator::new(m.clone(), 5).decode_trace(3);
        let b = TraceGenerator::new(m.clone(), 5).decode_trace(3);
        assert_eq!(a, b);
        let c = TraceGenerator::new(m, 6).decode_trace(3);
        assert_ne!(a, c);
    }

    #[test]
    fn nearer_predictions_are_more_accurate() {
        // Measure top-K overlap between predicted and true routings at
        // distance 1 vs distance 3: distance 1 must be at least as accurate.
        let g = TraceGenerator::new(ModelConfig::deepseek(), 11);
        let t = g.decode_trace(60);
        let mut overlap = [0.0f64; 3];
        let mut counts = [0usize; 3];
        for step in &t.steps {
            for (l, rec) in step.layers.iter().enumerate() {
                for (d, pred) in rec.predicted.iter().enumerate() {
                    let target = &step.layers[l + d + 1].routing;
                    let true_set: std::collections::HashSet<u16> =
                        target.activated().iter().map(|(e, _)| e.0).collect();
                    let pred_set: std::collections::HashSet<u16> =
                        pred.activated().iter().map(|(e, _)| e.0).collect();
                    let inter = true_set.intersection(&pred_set).count();
                    overlap[d] += inter as f64 / true_set.len().max(1) as f64;
                    counts[d] += 1;
                }
            }
        }
        let acc: Vec<f64> = (0..3).map(|d| overlap[d] / counts[d] as f64).collect();
        assert!(
            acc[0] >= acc[2],
            "accuracy should decay with distance: {acc:?}"
        );
        // Distance-1 prediction must be usefully better than chance
        // (random K of 64 would overlap ~9%).
        assert!(acc[0] > 0.3, "distance-1 accuracy too low: {acc:?}");
    }

    #[test]
    fn temporal_reuse_above_chance() {
        // The probability that an activated expert is activated again next
        // iteration must exceed the uniform baseline K/N.
        let m = ModelConfig::deepseek();
        let g = TraceGenerator::new(m.clone(), 13);
        let t = g.decode_trace(80);
        let mut reused = 0usize;
        let mut total = 0usize;
        for w in t.steps.windows(2) {
            for l in 0..w[0].layers.len() {
                let a: std::collections::HashSet<u16> = w[0].layers[l]
                    .routing
                    .activated()
                    .iter()
                    .map(|(e, _)| e.0)
                    .collect();
                let b: std::collections::HashSet<u16> = w[1].layers[l]
                    .routing
                    .activated()
                    .iter()
                    .map(|(e, _)| e.0)
                    .collect();
                reused += a.intersection(&b).count();
                total += a.len();
            }
        }
        let reuse_rate = reused as f64 / total as f64;
        let chance = m.activated_experts as f64 / m.routed_experts as f64;
        assert!(
            reuse_rate > 1.5 * chance,
            "reuse {reuse_rate:.3} vs chance {chance:.3}"
        );
    }

    #[test]
    fn long_run_frequencies_are_not_too_skewed() {
        // Fig. 3(a): expert frequency CDF is far flatter than neuron-level
        // sparsity. Check the top 20% of experts carry less than half of
        // all activations.
        let m = ModelConfig::deepseek();
        let g = TraceGenerator::new(m.clone(), 17);
        let t = g.decode_trace(120);
        let mut counts = vec![0u64; m.routed_experts as usize];
        for step in &t.steps {
            for rec in &step.layers {
                for (e, _) in rec.routing.activated() {
                    counts[e.0 as usize] += 1;
                }
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top20: u64 = counts.iter().take(counts.len() / 5).sum();
        let share = top20 as f64 / total as f64;
        assert!(share < 0.5, "top-20% share too skewed: {share:.3}");
    }
}
