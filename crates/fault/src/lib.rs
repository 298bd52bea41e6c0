//! # hybrimoe-fault
//!
//! Deterministic, seeded fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a seed plus a set of rate knobs. Every injection
//! site in the stack derives its own [`FaultStream`] from the plan via a
//! stable site label ([`FaultPlan::stream`]), so the decision sequence at
//! each site depends only on `(seed, site, call index)` — never on thread
//! interleaving or wall-clock time. Two runs with the same plan make the
//! same injection decisions at every site, which is what lets the chaos
//! soak (`chaos_bench`) emit bit-identical outcome counts from the same
//! seed.
//!
//! Rates are expressed in parts-per-million ([`FaultRates`]); a rate of 0
//! disables that fault, and the all-zero [`FaultPlan::off`] plan is the
//! default everywhere. Sites guard their hooks with
//! [`FaultPlan::is_off`] so the disabled path costs one predictable
//! branch.
//!
//! The knobs cover every boundary of the serving stack:
//!
//! | knob | site |
//! |---|---|
//! | `conn_drop_ppm` | worker drops the connection instead of replying |
//! | `reply_delay_ppm` / `reply_delay_ms` | worker stalls before replying |
//! | `corrupt_ppm` | worker flips one byte of a reply frame |
//! | `truncate_ppm` | worker writes a partial reply frame, then drops |
//! | `fail_after` | worker dies after N executes |
//! | `spike_ppm` / `spike_ms` | engine step reports an inflated latency |
//! | `panic_ppm` | engine step panics |
//!
//! ## Example
//!
//! ```
//! use hybrimoe_fault::FaultPlan;
//!
//! let plan = FaultPlan::parse_spec("seed=42,panic_ppm=1000,spike_ppm=5000,spike_ms=40")
//!     .unwrap();
//! assert!(!plan.is_off());
//! let mut a = plan.stream("engine.step");
//! let mut b = plan.stream("engine.step");
//! // Same seed + same site => identical decision sequences.
//! for _ in 0..100 {
//!     assert_eq!(a.roll_ppm(1000), b.roll_ppm(1000));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// One million: the denominator of every injection rate.
pub const PPM: u64 = 1_000_000;

/// Per-site injection rates, in parts per million, plus the magnitudes
/// of the faults that have one. All-zero means no injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Worker drops the connection instead of writing a reply.
    pub conn_drop_ppm: u32,
    /// Worker sleeps [`FaultRates::reply_delay_ms`] before replying.
    pub reply_delay_ppm: u32,
    /// Length of an injected reply delay, in milliseconds.
    pub reply_delay_ms: u64,
    /// Worker flips one byte of the encoded reply frame.
    pub corrupt_ppm: u32,
    /// Worker writes only a prefix of the reply frame, then drops.
    pub truncate_ppm: u32,
    /// Worker drops the connection mid-request and stops accepting work
    /// after this many executed batches.
    pub fail_after: Option<u64>,
    /// Engine step reports a latency inflated by [`FaultRates::spike_ms`].
    pub spike_ppm: u32,
    /// Size of an injected engine latency spike, in milliseconds.
    pub spike_ms: u64,
    /// Engine step panics.
    pub panic_ppm: u32,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            conn_drop_ppm: 0,
            reply_delay_ppm: 0,
            reply_delay_ms: 20,
            corrupt_ppm: 0,
            truncate_ppm: 0,
            fail_after: None,
            spike_ppm: 0,
            spike_ms: 50,
            panic_ppm: 0,
        }
    }
}

impl FaultRates {
    /// Whether every rate is zero (magnitudes alone inject nothing).
    pub fn all_zero(&self) -> bool {
        self.conn_drop_ppm == 0
            && self.reply_delay_ppm == 0
            && self.corrupt_ppm == 0
            && self.truncate_ppm == 0
            && self.fail_after.is_none()
            && self.spike_ppm == 0
            && self.panic_ppm == 0
    }
}

/// A seeded fault-injection plan: the single source of truth for what a
/// chaos run injects and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed every per-site stream derives from.
    pub seed: u64,
    /// The injection rates and magnitudes.
    pub rates: FaultRates,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::off()
    }
}

impl FaultPlan {
    /// The plan that injects nothing (the default everywhere).
    pub fn off() -> Self {
        FaultPlan {
            seed: 0,
            rates: FaultRates::default(),
        }
    }

    /// Whether this plan injects nothing. Sites check this once and skip
    /// their hooks entirely, so a disabled plan costs one predictable
    /// branch per site.
    pub fn is_off(&self) -> bool {
        self.rates.all_zero()
    }

    /// Derives the deterministic decision stream for one injection site.
    ///
    /// The label names the site (`"engine.step"`, `"worker.conn.3"`, …);
    /// the stream's sequence depends only on `(seed, label)`, so sites on
    /// different threads never perturb each other's decisions.
    pub fn stream(&self, site: &str) -> FaultStream {
        FaultStream::new(self.seed ^ fnv1a(site))
    }

    /// Parses a `key=value,key=value` spec into a plan.
    ///
    /// Keys are `seed` plus every knob of the table in the crate docs:
    /// `conn_drop_ppm`, `reply_delay_ppm`, `reply_delay_ms`,
    /// `corrupt_ppm`, `truncate_ppm`, `fail_after`, `spike_ppm`,
    /// `spike_ms`, `panic_ppm`. Unknown keys and unparsable values are
    /// errors.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::off();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {part:?} is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let num = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("fault spec {what} value {value:?} is not a number"))
            };
            let ppm = |what: &str| -> Result<u32, String> {
                let v = num(what)?;
                if v > PPM {
                    return Err(format!("fault spec {what}={v} exceeds {PPM} ppm"));
                }
                Ok(v as u32)
            };
            match key {
                "seed" => plan.seed = num(key)?,
                "conn_drop_ppm" => plan.rates.conn_drop_ppm = ppm(key)?,
                "reply_delay_ppm" => plan.rates.reply_delay_ppm = ppm(key)?,
                "reply_delay_ms" => plan.rates.reply_delay_ms = num(key)?,
                "corrupt_ppm" => plan.rates.corrupt_ppm = ppm(key)?,
                "truncate_ppm" => plan.rates.truncate_ppm = ppm(key)?,
                "fail_after" => plan.rates.fail_after = Some(num(key)?),
                "spike_ppm" => plan.rates.spike_ppm = ppm(key)?,
                "spike_ms" => plan.rates.spike_ms = num(key)?,
                "panic_ppm" => plan.rates.panic_ppm = ppm(key)?,
                other => return Err(format!("fault spec has unknown key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// FNV-1a over the site label: cheap, stable across runs and platforms.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One injection site's deterministic decision stream (SplitMix64).
///
/// Every call advances the stream exactly one state, so the sequence of
/// decisions depends only on the seed and the call index — the property
/// that makes same-seed chaos runs bit-reproducible.
#[derive(Debug, Clone)]
pub struct FaultStream {
    state: u64,
}

impl FaultStream {
    /// A stream over `seed` (normally via [`FaultPlan::stream`]).
    pub fn new(seed: u64) -> Self {
        FaultStream { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "FaultStream::below(0)");
        self.next_u64() % n
    }

    /// One Bernoulli trial at `ppm` parts per million. Always advances
    /// the stream, even at rate 0, so interleaving rolls for different
    /// faults at one site stays aligned across runs.
    pub fn roll_ppm(&mut self, ppm: u32) -> bool {
        self.below(PPM) < u64::from(ppm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_is_off_and_default() {
        assert!(FaultPlan::off().is_off());
        assert_eq!(FaultPlan::default(), FaultPlan::off());
        assert!(FaultPlan::parse_spec("").unwrap().is_off());
        // A plan with only a seed and magnitudes still injects nothing.
        let plan = FaultPlan::parse_spec("seed=7,spike_ms=100").unwrap();
        assert!(plan.is_off());
        // fail_after alone turns the plan on (it is a fault, not a rate).
        assert!(!FaultPlan::parse_spec("fail_after=3").unwrap().is_off());
    }

    #[test]
    fn spec_round_trips_every_knob() {
        let plan = FaultPlan::parse_spec(
            "seed=42,conn_drop_ppm=1,reply_delay_ppm=2,reply_delay_ms=3,corrupt_ppm=4,\
             truncate_ppm=5,fail_after=6,spike_ppm=7,spike_ms=8,panic_ppm=9",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rates.conn_drop_ppm, 1);
        assert_eq!(plan.rates.reply_delay_ppm, 2);
        assert_eq!(plan.rates.reply_delay_ms, 3);
        assert_eq!(plan.rates.corrupt_ppm, 4);
        assert_eq!(plan.rates.truncate_ppm, 5);
        assert_eq!(plan.rates.fail_after, Some(6));
        assert_eq!(plan.rates.spike_ppm, 7);
        assert_eq!(plan.rates.spike_ms, 8);
        assert_eq!(plan.rates.panic_ppm, 9);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultPlan::parse_spec("banana").is_err());
        assert!(FaultPlan::parse_spec("seed=banana").is_err());
        assert!(FaultPlan::parse_spec("no_such_knob=1").is_err());
        assert!(FaultPlan::parse_spec("panic_ppm=2000000").is_err());
        // Knobs that once existed but that no site read: a stale spec
        // naming one fails loudly instead of injecting nothing.
        for stale in ["hangup_ppm=1", "slow_read_ppm=1", "slow_read_ms=1"] {
            assert!(FaultPlan::parse_spec(stale).is_err(), "{stale}");
        }
    }

    #[test]
    fn streams_are_deterministic_per_site_and_independent_across_sites() {
        let plan = FaultPlan::parse_spec("seed=99,panic_ppm=300000").unwrap();
        let a: Vec<u64> = {
            let mut s = plan.stream("engine.step");
            (0..64).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = plan.stream("engine.step");
            (0..64).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b, "same site must replay the same sequence");
        let c: Vec<u64> = {
            let mut s = plan.stream("worker.conn.0");
            (0..64).map(|_| s.next_u64()).collect()
        };
        assert_ne!(a, c, "distinct sites draw distinct sequences");
    }

    #[test]
    fn roll_rates_are_plausible_and_stream_advancing() {
        let plan = FaultPlan::parse_spec("seed=5").unwrap();
        let mut s = plan.stream("rates");
        let hits = (0..10_000).filter(|_| s.roll_ppm(250_000)).count();
        // 25% +- a wide margin; this is a sanity bound, not a statistics test.
        assert!((1_500..=3_500).contains(&hits), "hits {hits}");
        // Rate-0 rolls never fire but still advance the stream.
        let mut x = plan.stream("advance");
        let mut y = plan.stream("advance");
        assert!(!x.roll_ppm(0));
        y.next_u64();
        assert_eq!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn plan_serializes_round_trip() {
        // The plan rides inside EngineConfig, which must stay
        // serde-round-trippable.
        let plan = FaultPlan::parse_spec("seed=42,spike_ppm=100,fail_after=2").unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
