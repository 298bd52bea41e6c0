//! The continuous-batching simulation loop.

use std::collections::VecDeque;

use hybrimoe_hw::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::serve::request::DEFAULT_PRIORITY;
use crate::serve::{ArrivalProcess, ContinuousBatcher, RequestMetrics, RequestSpec, ServeReport};
use crate::EngineConfig;

/// Configuration of one serving experiment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The engine (framework preset, model, cache ratio) under test.
    pub engine: EngineConfig,
    /// The request arrival process.
    pub arrivals: ArrivalProcess,
    /// Number of requests to serve.
    pub requests: usize,
    /// Prompt length of every request, in tokens.
    pub prompt_tokens: u32,
    /// Output length of every request, in tokens.
    pub decode_tokens: u32,
    /// Maximum concurrently running requests (the continuous batch bound).
    pub max_batch: usize,
    /// Seed driving arrivals and per-request traces.
    pub seed: u64,
}

/// What one engine step of the serving loop looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepStat {
    /// When the step started.
    pub start: SimTime,
    /// Requests in the batch (decoding plus newly admitted).
    pub batch: u32,
    /// Newly admitted requests whose prefill merged into this step.
    pub prefills: u32,
    /// Tokens in the merged forward pass.
    pub tokens: u32,
    /// Step latency.
    pub latency: SimDuration,
}

/// A deterministic continuous-batching server simulation.
///
/// The simulation drives the same [`ContinuousBatcher`] core as the live
/// [`serve::server`](crate::serve::server), but closed-loop: arrivals come
/// from a seeded [`ArrivalProcess`] and the clock advances by each step's
/// modeled latency. Requests whose arrival time has passed enter the
/// waiting queue, the batcher admits them as slots free up, and requests
/// leave as soon as their output length is reached — no request waits for
/// an epoch boundary.
///
/// See the [module docs](crate::serve) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ServeSim {
    config: ServeConfig,
}

impl ServeSim {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is zero, or if `max_batch` is invalid (zero or
    /// large enough to misclassify pure-decode batches as prefill — see
    /// [`ContinuousBatcher::new`]).
    pub fn new(config: ServeConfig) -> ServeSim {
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        assert!(
            (config.max_batch as u32) < hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD,
            "max_batch {} would make pure-decode batches look like prefill (threshold {})",
            config.max_batch,
            hybrimoe_sched::baselines::PREFILL_BATCH_THRESHOLD
        );
        assert!(config.requests > 0, "must serve at least one request");
        ServeSim { config }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(&self) -> ServeReport {
        let cfg = &self.config;
        let mut batcher = ContinuousBatcher::new(cfg.engine.clone(), cfg.max_batch, cfg.seed);

        let mut pending: VecDeque<RequestSpec> = cfg
            .arrivals
            .schedule(cfg.requests, cfg.seed)
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| RequestSpec {
                id: i as u32,
                arrival,
                prompt_tokens: cfg.prompt_tokens,
                decode_tokens: cfg.decode_tokens,
                priority: DEFAULT_PRIORITY,
                deadline: None,
            })
            .collect();
        let mut completed: Vec<RequestMetrics> = Vec::new();
        let mut steps: Vec<StepStat> = Vec::new();
        let mut now = SimTime::ZERO;

        while completed.len() < cfg.requests {
            // Join: arrivals up to the current clock enter the queue.
            while pending.front().is_some_and(|s| s.arrival <= now) {
                batcher.enqueue(pending.pop_front().expect("front checked"));
            }
            if batcher.is_idle() {
                // Idle: jump to the next arrival.
                now = pending.front().expect("requests remain").arrival;
                continue;
            }

            let outcome = batcher.step(now, |latency| now + latency);
            now = outcome.end;
            steps.push(outcome.stat);
            completed.extend(outcome.completed);
        }

        completed.sort_by_key(|m| m.id);
        ServeReport::new(cfg, completed, steps, now.elapsed_since(SimTime::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Framework;
    use hybrimoe_model::ModelConfig;

    fn tiny_sim(max_batch: usize, requests: usize) -> ServeSim {
        ServeSim::new(ServeConfig {
            engine: EngineConfig::preset(Framework::HybriMoe, ModelConfig::tiny_test(), 0.5),
            arrivals: ArrivalProcess::deterministic(SimDuration::from_millis(1)),
            requests,
            prompt_tokens: 8,
            decode_tokens: 4,
            max_batch,
            seed: 7,
        })
    }

    #[test]
    fn every_request_completes_with_ordered_timestamps() {
        let report = tiny_sim(3, 6).run();
        assert_eq!(report.requests.len(), 6);
        for m in &report.requests {
            assert!(m.admitted >= m.arrival);
            assert!(m.first_token >= m.admitted);
            assert!(m.completion >= m.first_token);
            assert_eq!(m.decode_tokens, 4);
        }
        // Requests are reported in id order.
        let ids: Vec<u32> = report.requests.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn batch_bound_is_respected() {
        let report = tiny_sim(2, 8).run();
        assert!(report.steps.iter().all(|s| s.batch <= 2));
        // With arrivals faster than decoding, the batch should actually
        // fill up at some point.
        assert!(report.steps.iter().any(|s| s.batch == 2));
    }

    #[test]
    fn serial_server_matches_sequential_sessions_shape() {
        // max_batch = 1 degenerates into one request at a time.
        let report = tiny_sim(1, 3).run();
        assert!(report.steps.iter().all(|s| s.batch == 1));
        // Each request needs 1 prefill + 4 decode steps.
        assert_eq!(report.steps.len(), 3 * 5);
    }

    #[test]
    fn zero_decode_requests_finish_at_prefill() {
        let mut sim = tiny_sim(2, 2);
        sim.config.decode_tokens = 0;
        let report = ServeSim::new(sim.config().clone()).run();
        for m in &report.requests {
            assert_eq!(m.completion, m.first_token);
            assert_eq!(m.tpot(), SimDuration::ZERO);
        }
    }

    #[test]
    fn same_seed_same_report() {
        let a = tiny_sim(3, 5).run();
        let b = tiny_sim(3, 5).run();
        assert_eq!(a, b);
    }

    #[test]
    fn queue_wait_is_charged_to_ttft() {
        // One slot, back-to-back arrivals: later requests wait in the
        // queue, and that wait must show up in both queue_wait and TTFT.
        let report = tiny_sim(1, 3).run();
        let last = &report.requests[2];
        assert!(last.queue_wait() > SimDuration::ZERO);
        assert!(last.ttft() >= last.queue_wait());
        assert_eq!(
            last.ttft(),
            last.queue_wait() + last.first_token.elapsed_since(last.admitted)
        );
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        let mut cfg = tiny_sim(1, 1).config().clone();
        cfg.max_batch = 0;
        let _ = ServeSim::new(cfg);
    }
}
