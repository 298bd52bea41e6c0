//! The workload generator: the only code `--seed` reaches. It turns a
//! content seed into arrival schedules, prompt mixes and the seed the
//! program derives per-request traces from; the program receives those
//! generated inputs and never the seed itself.

use hybrimoe_hw::SimTime;

/// SplitMix64: a small seeded generator owned by the benchmark, so the
/// inputs do not change when the repository's `rand` stand-in does.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One request the generator asks a workload to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRequest {
    pub id: u32,
    /// When the request is due on the workload's clock. Open loops send
    /// at this time; closed loops ignore it and send when a user is free.
    pub due: SimTime,
    pub prompt_tokens: u32,
    pub decode_tokens: u32,
}

/// Everything one round sends, and the seed handed to the program for
/// its per-request traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundInputs {
    pub trace_seed: u64,
    pub requests: Vec<PlannedRequest>,
}

impl RoundInputs {
    pub fn prompt_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.prompt_tokens as u64).sum()
    }
}

/// The seed a round hands the program for per-request traces, decorrelated
/// from the draws that shape the traffic.
fn trace_seed(content_seed: u64) -> u64 {
    SplitMix64::new(content_seed ^ 0x7ACE_5EED).next_u64()
}

/// `count` identical requests, all due at time zero (closed loops).
pub fn uniform_requests(content_seed: u64, count: u32, prompt: u32, decode: u32) -> RoundInputs {
    RoundInputs {
        trace_seed: trace_seed(content_seed),
        requests: (0..count)
            .map(|id| PlannedRequest {
                id,
                due: SimTime::ZERO,
                prompt_tokens: prompt,
                decode_tokens: decode,
            })
            .collect(),
    }
}

/// An open-loop round: `count` Poisson arrivals at `rate_per_s` and a
/// prompt mix given as `(prompt tokens, requests)` pairs summing to
/// `count`.
///
/// Both are drawn *conditioned on the round's totals*, so every round
/// offers exactly the same work and rounds differ only in its order and
/// spacing: a Poisson process observed to have `count` arrivals in a
/// window has them independently uniform over the window, so the arrivals
/// are `count` sorted uniform draws over `count / rate` seconds; the mix is
/// the exact multiset, shuffled.
pub fn open_loop_requests(
    content_seed: u64,
    rate_per_s: f64,
    mix: &[(u32, u32)],
    decode: u32,
) -> RoundInputs {
    let count: u32 = mix.iter().map(|(_, n)| n).sum();
    let mut rng = SplitMix64::new(content_seed);
    let window_ns = count as f64 / rate_per_s * 1e9;
    let mut due: Vec<u64> = (0..count)
        .map(|_| (rng.next_f64() * window_ns) as u64)
        .collect();
    due.sort_unstable();

    let mut prompts: Vec<u32> = mix
        .iter()
        .flat_map(|&(tokens, n)| std::iter::repeat_n(tokens, n as usize))
        .collect();
    for i in (1..prompts.len()).rev() {
        prompts.swap(i, rng.below(i as u64 + 1) as usize);
    }

    RoundInputs {
        trace_seed: trace_seed(content_seed),
        requests: due
            .into_iter()
            .zip(prompts)
            .enumerate()
            .map(|(id, (due_ns, prompt_tokens))| PlannedRequest {
                id: id as u32,
                due: SimTime::from_nanos(due_ns),
                prompt_tokens,
                decode_tokens: decode,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let mix = [(32, 24), (128, 17), (512, 7)];
        let a = open_loop_requests(9, 0.3, &mix, 32);
        assert_eq!(a, open_loop_requests(9, 0.3, &mix, 32));
        assert_ne!(a, open_loop_requests(10, 0.3, &mix, 32));
        assert_ne!(
            a.trace_seed,
            open_loop_requests(10, 0.3, &mix, 32).trace_seed
        );
    }

    #[test]
    fn open_loop_rounds_offer_identical_totals() {
        let mix = [(32, 24), (128, 17), (512, 7)];
        for seed in 0..20 {
            let r = open_loop_requests(seed, 0.3, &mix, 32);
            assert_eq!(r.requests.len(), 48);
            assert_eq!(r.prompt_tokens(), 24 * 32 + 17 * 128 + 7 * 512);
            assert!(r.requests.windows(2).all(|w| w[0].due <= w[1].due));
            let window = SimTime::from_nanos((48.0 / 0.3 * 1e9) as u64);
            assert!(r.requests.iter().all(|q| q.due < window));
            let ids: Vec<u32> = r.requests.iter().map(|q| q.id).collect();
            assert_eq!(ids, (0..48).collect::<Vec<_>>());
        }
    }

    #[test]
    fn closed_loop_requests_are_uniform() {
        let r = uniform_requests(3, 10, 32, 96);
        assert_eq!(r.requests.len(), 10);
        assert!(r
            .requests
            .iter()
            .all(|q| q.prompt_tokens == 32 && q.decode_tokens == 96));
        assert_eq!(r.prompt_tokens(), 320);
    }
}
