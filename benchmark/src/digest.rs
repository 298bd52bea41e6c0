//! `sim_digest`: one hash over everything a modeled-clock round reported.
//! A change meant only to make the simulator cheaper to run must leave it
//! unchanged.

use hybrimoe::serve::{RequestMetrics, StepStat};

/// FNV-1a over 64-bit words.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn request(&mut self, m: &RequestMetrics) {
        for w in [
            m.id as u64,
            m.arrival.as_nanos(),
            m.admitted.as_nanos(),
            m.first_token.as_nanos(),
            m.completion.as_nanos(),
            m.prompt_tokens as u64,
            m.decode_tokens as u64,
        ] {
            self.word(w);
        }
    }

    pub fn step(&mut self, s: &StepStat) {
        for w in [
            s.start.as_nanos(),
            s.batch as u64,
            s.prefills as u64,
            s.tokens as u64,
            s.latency.as_nanos(),
        ] {
            self.word(w);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrimoe_hw::{SimDuration, SimTime};

    #[test]
    fn digest_depends_on_every_field_and_on_order() {
        let step = |latency| StepStat {
            start: SimTime::ZERO,
            batch: 1,
            prefills: 0,
            tokens: 1,
            latency: SimDuration::from_nanos(latency),
        };
        let of = |steps: &[StepStat]| {
            let mut d = Digest::new();
            steps.iter().for_each(|s| d.step(s));
            d.finish()
        };
        assert_eq!(of(&[step(5), step(6)]), of(&[step(5), step(6)]));
        assert_ne!(of(&[step(5), step(6)]), of(&[step(6), step(5)]));
        assert_ne!(of(&[step(5)]), of(&[step(4)]));
        assert_ne!(of(&[]), of(&[step(0)]));
    }
}
