//! The continuous-batching core shared by the simulator and the live
//! server.
//!
//! [`ContinuousBatcher`] owns the engine, the waiting queue and the running
//! batch, and exposes exactly one operation: [`ContinuousBatcher::step`],
//! which admits waiting requests into free batch slots, builds one pass
//! from their prefill chunks and one decode token of every running request,
//! runs it through [`Engine::step`](crate::Engine::step), and reports what
//! happened as a [`StepOutcome`].
//!
//! The caller owns the *clock*. [`ServeSim`](crate::serve::ServeSim)
//! advances a simulated clock by each step's modeled latency;
//! [`serve::server`](crate::serve::server) stamps steps with real
//! wall-clock time while the engine loop thread free-runs. Both drive the
//! identical admission/merge/leave logic, so the simulator remains a
//! bit-exact model of the served system.

use std::collections::VecDeque;

use hybrimoe_hw::{SimDuration, SimTime};
use hybrimoe_model::ModelConfig;
use hybrimoe_trace::{TraceGenerator, TraceStep};

use crate::serve::request::ActiveRequest;
use crate::serve::sim::StepStat;
use crate::serve::{RequestMetrics, RequestSpec};
use crate::{Engine, EngineConfig};

/// Everything one engine step of the continuous batch produced.
#[derive(Debug)]
pub struct StepOutcome {
    /// Aggregate step statistics (batch size, merged tokens, latency).
    pub stat: StepStat,
    /// When the step finished: its start plus the engine-reported latency.
    /// Newly admitted requests landed their first token here; running
    /// requests each earned one more.
    pub end: SimTime,
    /// Ids of requests admitted from the waiting queue into this step
    /// (their first prefill chunk merged in).
    pub admitted: Vec<u32>,
    /// Ids of requests whose first token landed at [`StepOutcome::end`] —
    /// the admitting step when prefill is unchunked, or the step that
    /// carried the request's final prefill chunk.
    pub first_tokens: Vec<u32>,
    /// `(id, tokens decoded so far)` for every request that contributed a
    /// decode token to this step — including requests finishing with it.
    pub decoded: Vec<(u32, u32)>,
    /// Requests that completed with this step, in batch order.
    pub completed: Vec<RequestMetrics>,
    /// Ids of waiting requests dropped before admission because their
    /// [`RequestSpec::deadline`] had passed at the step's start.
    pub expired_waiting: Vec<u32>,
    /// Ids of running requests terminated at the step's start because
    /// their deadline had passed — their batch slots freed before
    /// admission, so an expired request never consumes another step.
    pub expired_running: Vec<u32>,
}

/// The join/admit/step/leave core of continuous batching.
///
/// Each [`step`](ContinuousBatcher::step) is one forward pass: requests
/// enqueued via [`enqueue`](ContinuousBatcher::enqueue) join the batch as
/// slots free up (their prefill merges into the pass), every running
/// request contributes its next decode token, and requests leave as soon
/// as their output length is reached — no request waits for an epoch
/// boundary. Admission is FIFO within a priority class; lower
/// [`RequestSpec::priority`] values are admitted first.
///
/// Each request's trace comes from its own generator, seeded per request
/// id, so each request also draws its own router (projections and
/// per-expert popularity biases). A running request's decode stream holds
/// that bundle: about 81 KB on Mixtral and 449 KB on DeepSeek.
///
/// # Example
///
/// ```
/// use hybrimoe::serve::{ContinuousBatcher, RequestSpec, DEFAULT_PRIORITY};
/// use hybrimoe::{EngineConfig, Framework};
/// use hybrimoe_hw::SimTime;
/// use hybrimoe_model::ModelConfig;
///
/// let config = EngineConfig::preset(Framework::HybriMoe, ModelConfig::deepseek(), 0.25);
/// let mut batcher = ContinuousBatcher::new(config, 4, 7);
/// batcher.enqueue(RequestSpec {
///     id: 0,
///     arrival: SimTime::ZERO,
///     prompt_tokens: 16,
///     decode_tokens: 4,
///     priority: DEFAULT_PRIORITY,
///     deadline: None,
/// });
///
/// // The caller owns the clock: here each step lands at its modeled
/// // latency, which is what `ServeSim` does.
/// let mut now = SimTime::ZERO;
/// let mut completed = Vec::new();
/// while !batcher.is_idle() {
///     let outcome = batcher.step(now, |latency| now + latency);
///     now = outcome.end;
///     completed.extend(outcome.completed);
/// }
/// assert_eq!(completed.len(), 1);
/// assert_eq!(completed[0].id, 0);
/// ```
#[derive(Debug)]
pub struct ContinuousBatcher {
    engine: Engine,
    model: ModelConfig,
    needs_token_states: bool,
    seed: u64,
    max_batch: usize,
    waiting: VecDeque<RequestSpec>,
    running: Vec<ActiveRequest>,
    /// The step's forward pass: a step that admits builds it on its first
    /// prompt chunk, and every other step clears and refills it, so a warm
    /// decode step allocates no trace buffers. Empty (no layers) until the
    /// first step, which always admits.
    merged: TraceStep,
}

impl ContinuousBatcher {
    /// Creates a batcher around a fresh (warmed-up) engine.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero, or if it reaches
    /// [`PREFILL_BATCH_THRESHOLD`]: the engine and the schedulers classify
    /// the prefill/decode regime of a forward pass by its token count, so a
    /// pure-decode batch that large would be misclassified as prefill and
    /// silently disable decode-time cache adaptation.
    ///
    /// [`PREFILL_BATCH_THRESHOLD`]: hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD
    pub fn new(engine: EngineConfig, max_batch: usize, seed: u64) -> ContinuousBatcher {
        assert!(max_batch > 0, "max_batch must be at least 1");
        assert!(
            (max_batch as u32) < hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD,
            "max_batch {} would make pure-decode batches look like prefill (threshold {})",
            max_batch,
            hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD
        );
        let model = engine.model.clone();
        let needs_token_states = engine.backend.needs_token_states();
        ContinuousBatcher {
            engine: Engine::new(engine),
            model,
            needs_token_states,
            seed,
            max_batch,
            waiting: VecDeque::new(),
            running: Vec::new(),
            merged: TraceStep {
                tokens: 0,
                layers: Vec::new(),
            },
        }
    }

    /// Adds a request to the waiting queue. Placement is FIFO within its
    /// priority class: the request goes after every queued request of the
    /// same or a more urgent (lower) class, and before less urgent ones.
    pub fn enqueue(&mut self, spec: RequestSpec) {
        let at = self
            .waiting
            .iter()
            .rposition(|q| q.priority <= spec.priority)
            .map_or(0, |i| i + 1);
        self.waiting.insert(at, spec);
    }

    /// Requests waiting for a batch slot.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Requests currently decoding in the batch.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Whether the batcher has nothing to do (no waiting or running
    /// requests). [`step`](ContinuousBatcher::step) panics in this state.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty() && self.waiting.is_empty()
    }

    /// The earliest arrival time among waiting requests, if any — the
    /// queue-delay signal the server's load-shed watermark reads.
    pub fn oldest_waiting_arrival(&self) -> Option<SimTime> {
        self.waiting.iter().map(|s| s.arrival).min()
    }

    /// The continuous-batch bound.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The engine driving the batch — read-only, for observability
    /// surfaces (cache statistics, prefetch counters).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Evicts a request wherever it is — the waiting queue or the running
    /// batch — freeing its slot for the next admission. Returns whether the
    /// request was found (false if it already completed or was never
    /// enqueued). The server calls this at a step boundary when a client
    /// hangs up mid-stream, so an abandoned request stops consuming batch
    /// slots within one step.
    pub fn cancel(&mut self, id: u32) -> bool {
        if let Some(i) = self.waiting.iter().position(|s| s.id == id) {
            self.waiting.remove(i);
            return true;
        }
        if let Some(i) = self.running.iter().position(|r| r.spec.id == id) {
            self.running.remove(i);
            return true;
        }
        false
    }

    /// Runs one engine step starting at `now`: admits waiting requests into
    /// free batch slots, merges their prefills with one decode token from
    /// every running request, and advances every request's lifecycle.
    ///
    /// `land` maps the engine-reported step latency to the time the step's
    /// tokens *land* — the stamp on first tokens and completions. The
    /// simulator passes `|latency| now + latency` (the modeled clock); the
    /// live server reads its wall clock instead, so SLO metrics reflect
    /// real elapsed time.
    ///
    /// # Panics
    ///
    /// Panics if the batcher [`is_idle`](ContinuousBatcher::is_idle), or if
    /// `land` returns a time before `now` (the clock ran backwards).
    pub fn step(&mut self, now: SimTime, land: impl FnOnce(SimDuration) -> SimTime) -> StepOutcome {
        assert!(!self.is_idle(), "step on an idle batcher");

        // Expire deadlined requests first: waiting ones drop before they
        // can take a slot, running ones free their slot for this step's
        // admissions. An expired request is terminal — it never runs
        // another token.
        let mut expired_waiting = Vec::new();
        self.waiting.retain(|s| match s.deadline {
            Some(d) if d <= now => {
                expired_waiting.push(s.id);
                false
            }
            _ => true,
        });
        let mut expired_running = Vec::new();
        self.running.retain(|r| match r.spec.deadline {
            Some(d) if d <= now => {
                expired_running.push(r.spec.id);
                false
            }
            _ => true,
        });
        // Expiry may have emptied the batcher: report it without running
        // a zero-part engine step.
        if self.is_idle() {
            return StepOutcome {
                stat: StepStat {
                    start: now,
                    batch: 0,
                    prefills: 0,
                    tokens: 0,
                    latency: SimDuration::ZERO,
                },
                end: now,
                admitted: Vec::new(),
                first_tokens: Vec::new(),
                decoded: Vec::new(),
                completed: Vec::new(),
                expired_waiting,
                expired_running,
            };
        }

        // Admit waiting requests into free batch slots (FIFO within each
        // priority class); their first prefill chunk merges into this step
        // and any remaining chunks queue on the request.
        let chunk_size = self.engine.config().chunked_prefill_size;
        let slots = self.max_batch.saturating_sub(self.running.len());
        let mut admitted: Vec<ActiveRequest> = Vec::new();
        // The step's parts in merge order: admitted prompts' first chunks,
        // then every running request's contribution. A chunk is absorbed
        // whole and a decode token routed straight in, so every sum runs
        // in the order merging whole parts would run it. A step that
        // admits drops the reused pass and starts from its first chunk,
        // which already holds every buffer a pass needs: the reused
        // pass's buffers would only add to the heap.
        if slots > 0 && !self.waiting.is_empty() {
            self.merged.layers = Vec::new();
        } else {
            self.merged.clear();
        }
        for _ in 0..slots {
            let Some(spec) = self.waiting.pop_front() else {
                break;
            };
            let mut generator =
                TraceGenerator::new(self.model.clone(), request_seed(self.seed, spec.id));
            if self.needs_token_states {
                // A real-execution backend computes actual layer outputs,
                // so every request's trace must carry its hidden states.
                generator = generator.with_token_states();
            }
            // One router-parameter bundle serves both the prompt and the
            // decode stream of the request.
            let (chunks, stream) =
                generator.request_chunked(spec.prompt_tokens, chunk_size.unwrap_or(u32::MAX));
            let mut chunks = VecDeque::from(chunks);
            let first = chunks.pop_front().expect("a prompt has at least one chunk");
            if self.merged.layers.is_empty() {
                self.merged = first;
            } else {
                self.merged.absorb(first);
            }
            admitted.push(ActiveRequest {
                spec,
                stream,
                admitted: now,
                first_token: None, // set when the final chunk lands
                decoded: 0,
                pending_chunks: chunks,
            });
        }

        // Every running request contributes its next prefill chunk if it
        // still has one, otherwise its next decode token.
        let mut contributed_chunk: Vec<bool> = Vec::with_capacity(self.running.len());
        for r in self.running.iter_mut() {
            if let Some(chunk) = r.pending_chunks.pop_front() {
                self.merged.absorb(chunk);
                contributed_chunk.push(true);
            } else {
                r.stream.next_step_into(&mut self.merged);
                contributed_chunk.push(false);
            }
        }

        let metrics = self.engine.step(&self.merged);
        let step_tokens = self.merged.tokens;
        let end = land(metrics.latency);
        assert!(end >= now, "step landed before it started");
        let stat = StepStat {
            start: now,
            batch: (self.running.len() + admitted.len()) as u32,
            prefills: admitted.len() as u32,
            tokens: step_tokens,
            latency: metrics.latency,
        };

        // Leave: decoding requests earned one token; requests landing
        // their last prefill chunk earned their first. Finished requests
        // exit the batch.
        let mut decoded = Vec::with_capacity(self.running.len());
        let mut first_tokens = Vec::new();
        for (r, chunked) in self.running.iter_mut().zip(&contributed_chunk) {
            if *chunked {
                if r.pending_chunks.is_empty() {
                    r.first_token = Some(end);
                    first_tokens.push(r.spec.id);
                }
            } else {
                r.decoded += 1;
                decoded.push((r.spec.id, r.decoded));
            }
        }
        let mut admitted_ids = Vec::with_capacity(admitted.len());
        let mut completed = Vec::new();
        for mut r in admitted {
            admitted_ids.push(r.spec.id);
            if r.pending_chunks.is_empty() {
                r.first_token = Some(end);
                first_tokens.push(r.spec.id);
                if r.spec.decode_tokens == 0 {
                    completed.push(r.finish(end));
                    continue;
                }
            }
            self.running.push(r);
        }
        let mut i = 0;
        while i < self.running.len() {
            let r = &self.running[i];
            if r.pending_chunks.is_empty() && r.decoded >= r.spec.decode_tokens {
                let done = self.running.remove(i);
                completed.push(done.finish(end));
            } else {
                i += 1;
            }
        }

        StepOutcome {
            stat,
            end,
            admitted: admitted_ids,
            first_tokens,
            decoded,
            completed,
            expired_waiting,
            expired_running,
        }
    }
}

/// The trace seed of one request: decorrelated from its neighbours but a
/// pure function of the experiment seed and the request id.
///
/// The generator derives its router parameters from this seed too, so
/// every request routes through its own router projections and
/// per-expert popularity biases: no expert is popular across requests.
fn request_seed(seed: u64, id: u32) -> u64 {
    seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::serve::DEFAULT_PRIORITY;
    use crate::Framework;
    use hybrimoe_model::ModelConfig;

    fn spec(id: u32, priority: u8) -> RequestSpec {
        RequestSpec {
            id,
            arrival: SimTime::ZERO,
            prompt_tokens: 8,
            decode_tokens: 2,
            priority,
            deadline: None,
        }
    }

    fn batcher(max_batch: usize) -> ContinuousBatcher {
        ContinuousBatcher::new(
            EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5),
            max_batch,
            7,
        )
    }

    #[test]
    fn priority_classes_jump_the_queue_fifo_within_class() {
        let mut b = batcher(1);
        b.enqueue(spec(0, 1));
        b.enqueue(spec(1, 1));
        b.enqueue(spec(2, DEFAULT_PRIORITY)); // urgent: goes first
        b.enqueue(spec(3, 1));
        let order: Vec<u32> = b.waiting.iter().map(|s| s.id).collect();
        assert_eq!(order, vec![2, 0, 1, 3]);
    }

    #[test]
    fn uniform_priorities_stay_fifo() {
        let mut b = batcher(1);
        for id in 0..4 {
            b.enqueue(spec(id, DEFAULT_PRIORITY));
        }
        let order: Vec<u32> = b.waiting.iter().map(|s| s.id).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn step_lifecycle_admits_decodes_and_completes() {
        let mut b = batcher(2);
        b.enqueue(spec(0, 0));
        b.enqueue(spec(1, 0));
        // Step 1: both admitted, first tokens land at step end.
        let out = b.step(SimTime::ZERO, |lat| SimTime::ZERO + lat);
        assert_eq!(out.admitted, vec![0, 1]);
        assert!(out.decoded.is_empty());
        assert!(out.completed.is_empty());
        assert_eq!(out.stat.prefills, 2);
        assert_eq!(b.running_len(), 2);
        // Steps 2-3: two decode tokens each, then both complete.
        let now = out.end;
        let out = b.step(now, |lat| now + lat);
        assert_eq!(out.decoded, vec![(0, 1), (1, 1)]);
        let now = out.end;
        let out = b.step(now, |lat| now + lat);
        assert_eq!(out.decoded, vec![(0, 2), (1, 2)]);
        assert_eq!(out.completed.len(), 2);
        assert!(b.is_idle());
        for m in &out.completed {
            assert!(m.first_token >= m.arrival);
            assert!(m.completion >= m.first_token);
            assert_eq!(m.queue_wait(), hybrimoe_hw::SimDuration::ZERO);
        }
    }

    #[test]
    fn unchunked_first_tokens_match_admissions() {
        let mut b = batcher(2);
        b.enqueue(spec(0, 0));
        b.enqueue(spec(1, 0));
        let out = b.step(SimTime::ZERO, |lat| SimTime::ZERO + lat);
        assert_eq!(out.first_tokens, out.admitted);
    }

    #[test]
    fn chunked_prefill_interleaves_with_decode() {
        // Chunk size 32, prompt 80 → chunks [32, 48]: the first token only
        // lands when the second chunk completes, and a decoding neighbour
        // keeps earning tokens in between.
        let config = EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5)
            .with_chunked_prefill(32);
        let mut b = ContinuousBatcher::new(config, 2, 7);
        let mut req = spec(0, DEFAULT_PRIORITY);
        req.decode_tokens = 4;
        b.enqueue(req);
        let out = b.step(SimTime::ZERO, |lat| SimTime::ZERO + lat);
        assert_eq!(out.admitted, vec![0]);
        assert_eq!(out.first_tokens, vec![0]); // short prompt: admitted whole

        let mut long = spec(1, DEFAULT_PRIORITY);
        long.prompt_tokens = 80;
        long.decode_tokens = 1;
        b.enqueue(long);
        let now = out.end;
        let out = b.step(now, |lat| now + lat);
        assert_eq!(out.admitted, vec![1]);
        assert!(out.first_tokens.is_empty()); // chunk 1 of 2 in flight
        assert_eq!(out.decoded, vec![(0, 1)]); // neighbour still decodes

        let now = out.end;
        let out = b.step(now, |lat| now + lat);
        assert!(out.admitted.is_empty());
        assert_eq!(out.first_tokens, vec![1]); // final chunk landed
        assert_eq!(out.decoded, vec![(0, 2)]);

        // From here the long request decodes like any other and finishes.
        let now = out.end;
        let out = b.step(now, |lat| now + lat);
        assert_eq!(out.decoded, vec![(0, 3), (1, 1)]);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].id, 1);
        assert!(out.completed[0].tpot() > hybrimoe_hw::SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "idle")]
    fn stepping_an_idle_batcher_panics() {
        let mut b = batcher(2);
        let _ = b.step(SimTime::ZERO, |lat| SimTime::ZERO + lat);
    }

    #[test]
    fn deadlines_expire_waiting_and_running_requests() {
        use hybrimoe_hw::SimDuration;

        let mut b = batcher(1);
        let mut doomed = spec(0, 0);
        doomed.deadline = Some(SimTime::ZERO + SimDuration::from_millis(1));
        b.enqueue(doomed);
        b.enqueue(spec(1, 0));
        // The deadlined request expires before admission; the other takes
        // the freed slot in the same step.
        let now = SimTime::ZERO + SimDuration::from_millis(2);
        let out = b.step(now, |lat| now + lat);
        assert_eq!(out.expired_waiting, vec![0]);
        assert!(out.expired_running.is_empty());
        assert_eq!(out.admitted, vec![1]);
        assert_eq!(b.running_len(), 1);

        // A running request past its deadline is terminated at the next
        // step boundary; with nothing else to run, the outcome is empty
        // (no engine step) and the batcher goes idle.
        let mut slow = spec(2, 0);
        slow.decode_tokens = 100;
        slow.deadline = Some(out.end); // expires as soon as it would decode
        b.cancel(1);
        b.enqueue(slow);
        let now = out.end;
        let out = b.step(now, |lat| now + lat); // admitted: deadline == now drops it first
        assert_eq!(out.expired_waiting, vec![2]);
        assert_eq!(out.stat.batch, 0);
        assert_eq!(out.stat.latency, SimDuration::ZERO);
        assert_eq!(out.end, now);
        assert!(b.is_idle());

        // And a request that makes it into the batch expires mid-decode.
        let mut mid = spec(3, 0);
        mid.decode_tokens = 100;
        mid.deadline = Some(now + SimDuration::from_nanos(1));
        b.enqueue(mid);
        let out = b.step(now, |lat| now + lat); // admits: deadline still ahead
        assert_eq!(out.admitted, vec![3]);
        let later = out.end.max(mid.deadline.unwrap());
        let out = b.step(later, |lat| later + lat);
        assert_eq!(out.expired_running, vec![3]);
        assert!(b.is_idle());
    }

    #[test]
    fn cancel_evicts_waiting_and_running_requests() {
        let mut b = batcher(1);
        b.enqueue(spec(0, 0));
        b.enqueue(spec(1, 0));
        // Step 1: request 0 takes the only slot, request 1 queues.
        let out = b.step(SimTime::ZERO, |lat| SimTime::ZERO + lat);
        assert_eq!(out.admitted, vec![0]);
        assert_eq!((b.running_len(), b.waiting_len()), (1, 1));

        // Cancel the running request: its slot frees and the queued
        // request is admitted on the very next step.
        assert!(b.cancel(0));
        assert_eq!((b.running_len(), b.waiting_len()), (0, 1));
        let now = out.end;
        let out = b.step(now, |lat| now + lat);
        assert_eq!(out.admitted, vec![1]);

        // Cancel from the waiting queue, and cancel of an unknown or
        // already-evicted id reports not-found.
        b.enqueue(spec(2, 0));
        assert!(b.cancel(2));
        assert!(!b.cancel(2));
        assert!(!b.cancel(99));
        assert!(b.cancel(1));
        assert!(b.is_idle());
    }
}
