//! The engine loop thread: the single owner of the [`ContinuousBatcher`].
//!
//! Connection handlers never touch the engine. They submit accepted
//! requests over a bounded channel and receive [`StreamEvent`]s back on a
//! per-request channel; the loop free-runs — pull submissions, step the
//! batch, deliver tokens — stamping every step with real wall-clock time.
//!
//! The loop is also the single owner of every request's lifecycle
//! (Submitted → Waiting → Running → one of four [`Terminal`]s): its
//! [`Lifecycle`] counts each transition in one place, and handlers and
//! `/metrics` read those books only as the one snapshot it publishes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hybrimoe_hw::SimTime;

use crate::serve::server::metrics::Ledger;
use crate::serve::server::Shared;
use crate::serve::{ContinuousBatcher, RequestMetrics, RequestSpec, StepOutcome};

/// How long an idle loop blocks on the submission channel before
/// re-checking the drain flag.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// One grace window after drain starts: a handler that passed the
/// admission checks just before the flag flipped still gets its request
/// served rather than silently dropped.
const DRAIN_GRACE: Duration = Duration::from_millis(50);

/// An accepted request on its way from a connection handler to the
/// engine loop.
pub(crate) struct Submission {
    /// Arrival stamp taken by the handler (server clock).
    pub arrival: SimTime,
    pub prompt_tokens: u32,
    pub decode_tokens: u32,
    pub priority: u8,
    /// Absolute completion deadline on the server clock, if any; the
    /// batcher expires the request at the first step boundary past it.
    pub deadline: Option<SimTime>,
    /// Where the handler listens for this request's tokens.
    pub events: Sender<StreamEvent>,
}

/// What the engine loop tells a connection handler about its request.
pub(crate) enum StreamEvent {
    /// One output token landed; `index` counts from zero (the first
    /// token) up to `decode_tokens`.
    Token { index: u32 },
    /// The request reached its terminal; the stream is complete.
    End(Terminal),
}

/// How a request's life ended. A request is Submitted by a handler,
/// Waiting once the loop pulls it into the batcher, Running once a step
/// admits it, and leaves through exactly one of these.
pub(crate) enum Terminal {
    /// The full token stream was delivered.
    Completed(RequestMetrics),
    /// The client hung up mid-stream; nobody is left to tell.
    Cancelled,
    /// The deadline passed, waiting or mid-decode.
    TimedOut,
    /// An engine panic killed the request in flight.
    Failed,
}

/// The loop's books on live requests: who listens for each, and how many
/// reached each stage of the lifecycle.
#[derive(Default)]
struct Lifecycle {
    clients: HashMap<u32, Sender<StreamEvent>>,
    next_id: u32,
    ledger: Ledger,
    /// Terminals counted by [`Lifecycle::terminate`] whose event has not
    /// been sent yet.
    farewells: Vec<(u32, Terminal)>,
}

impl Lifecycle {
    /// Submitted → Waiting: the one way into the batcher.
    fn admit(&mut self, sub: Submission, batcher: &mut ContinuousBatcher) {
        let id = self.next_id;
        self.next_id = id.wrapping_add(1);
        self.clients.insert(id, sub.events);
        batcher.enqueue(RequestSpec {
            id,
            arrival: sub.arrival,
            prompt_tokens: sub.prompt_tokens,
            decode_tokens: sub.decode_tokens,
            priority: sub.priority,
            deadline: sub.deadline,
        });
        self.ledger.admitted += 1;
    }

    /// The one way out: counts the request's terminal, whichever path
    /// ended it, and records a completion's SLO samples. The terminal
    /// event goes out with the next [`Lifecycle::say_farewells`], after
    /// the books that show it.
    fn terminate(&mut self, id: u32, how: Terminal) {
        let ledger = &mut self.ledger;
        match &how {
            Terminal::Completed(m) => {
                ledger.completed += 1;
                ledger.queue_wait.record(m.queue_wait());
                ledger.ttft.record(m.ttft());
                ledger.tpot.record(m.tpot());
            }
            Terminal::Cancelled => ledger.cancelled += 1,
            Terminal::TimedOut => ledger.timed_out += 1,
            Terminal::Failed => ledger.failed += 1,
        }
        self.farewells.push((id, how));
    }

    /// Publishes the books. Everything a handler or `/metrics` reads about
    /// the engine side comes from here, derived from the batcher as it is
    /// now — never adjusted — so no exit path has accounting of its own.
    fn publish(&self, batcher: &ContinuousBatcher, shared: &Shared) {
        let ledger = &self.ledger;
        debug_assert_eq!(
            ledger.admitted,
            ledger.completed
                + ledger.cancelled
                + ledger.timed_out
                + ledger.failed
                + (batcher.waiting_len() + batcher.running_len()) as u64,
            "every admitted request is waiting, running, or at exactly one terminal"
        );
        debug_assert!(
            [&ledger.queue_wait, &ledger.ttft, &ledger.tpot]
                .iter()
                .all(|series| series.count() == ledger.completed),
            "every completion is one sample in each SLO series"
        );
        shared.snapshot().refresh(ledger, batcher);
    }

    /// Forgets every terminated request and closes its stream with the
    /// terminal event. Always called after [`Lifecycle::publish`]: a
    /// client never hears an outcome `/metrics` does not show yet.
    fn say_farewells(&mut self) {
        for (id, how) in self.farewells.drain(..) {
            if let Some(events) = self.clients.remove(&id) {
                let _ = events.send(StreamEvent::End(how));
            }
        }
    }
}

/// Runs the engine loop until shutdown: all submitters gone, or a drain
/// was requested and every accepted request has completed.
///
/// `make_batcher` rebuilds the batcher (and its engine) after a step
/// panic: an injected (or real) engine panic is contained with
/// `catch_unwind`, the requests in flight fail with a terminal event,
/// and a fresh engine replaces the poisoned one — the listener and every
/// other connection never notice.
pub(crate) fn run(
    mut batcher: ContinuousBatcher,
    make_batcher: impl Fn() -> ContinuousBatcher,
    submissions: Receiver<Submission>,
    shared: Arc<Shared>,
    min_step: Option<Duration>,
) {
    let mut life = Lifecycle::default();

    loop {
        // Pull everything already submitted into the waiting queue, then
        // publish: the sweep, and whatever the last iteration's hangups or
        // panic changed.
        while let Ok(sub) = submissions.try_recv() {
            life.admit(sub, &mut batcher);
        }
        life.publish(&batcher, &shared);
        life.say_farewells();

        if batcher.is_idle() {
            if shared.draining.load(Ordering::Acquire) {
                // A submission may have passed the admission checks just
                // before the drain flag flipped; give it one grace window.
                match submissions.recv_timeout(DRAIN_GRACE) {
                    Ok(sub) => {
                        life.admit(sub, &mut batcher);
                        continue;
                    }
                    Err(_) => break,
                }
            }
            match submissions.recv_timeout(IDLE_POLL) {
                Ok(sub) => life.admit(sub, &mut batcher),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            continue; // sweep the channel again before stepping
        }

        let started = Instant::now();
        let now = shared.now();
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            batcher.step(now, |_latency| {
                // Tokens land when the step *actually* finished, plus any
                // configured pacing floor — not when the model says it
                // should have. SLOs measure the real server.
                if let Some(floor) = min_step {
                    let elapsed = started.elapsed();
                    if elapsed < floor {
                        std::thread::sleep(floor - elapsed);
                    }
                }
                shared.now()
            })
        }));
        let Ok(outcome) = stepped else {
            // The engine panicked mid-step. Every live request fails,
            // and a fresh engine replaces the poisoned batcher — which
            // reports an empty queue and batch at the next publish; the
            // listener and the submission channel live on.
            let live: Vec<u32> = life.clients.keys().copied().collect();
            for id in live {
                life.terminate(id, Terminal::Failed);
            }
            life.ledger.engine_restarts += 1;
            batcher = make_batcher();
            continue;
        };
        life.ledger.steps += 1;
        life.ledger.output_tokens += (outcome.first_tokens.len() + outcome.decoded.len()) as u64;
        // Every request that left the batcher with this step is terminal.
        for id in outcome
            .expired_waiting
            .iter()
            .chain(&outcome.expired_running)
        {
            life.terminate(*id, Terminal::TimedOut);
        }
        for metrics in &outcome.completed {
            life.terminate(metrics.id, Terminal::Completed(*metrics));
        }
        // Publish BEFORE delivering tokens: a client acts the moment its
        // first chunk lands, and neither admission gate may still count a
        // request that already left the waiting queue.
        life.publish(&batcher, &shared);
        let hung_up = deliver_tokens(&outcome, &life.clients);
        life.say_farewells();
        // The client is gone: evict its request at this step boundary so
        // the slot is free for the next admission instead of decoding to
        // completion for nobody. (A request that completed with this very
        // step has no slot to reclaim, and `cancel` says so.)
        for id in hung_up {
            if batcher.cancel(id) {
                life.terminate(id, Terminal::Cancelled);
            }
        }
    }
}

/// Streams this step's tokens to the waiting handlers and returns the ids
/// whose send failed — the handler dropped its receiver, meaning the
/// client hung up mid-stream.
fn deliver_tokens(outcome: &StepOutcome, clients: &HashMap<u32, Sender<StreamEvent>>) -> Vec<u32> {
    // First tokens for requests whose prefill completed this step (the
    // admitting step, or the one carrying the last prefill chunk), then
    // one decode token per running request.
    let first = outcome.first_tokens.iter().map(|id| (*id, 0));
    let tokens = first.chain(outcome.decoded.iter().copied());
    let mut hung_up: Vec<u32> = Vec::new();
    for (id, index) in tokens {
        if let Some(events) = clients.get(&id) {
            if events.send(StreamEvent::Token { index }).is_err() {
                hung_up.push(id);
            }
        }
    }
    hung_up
}
