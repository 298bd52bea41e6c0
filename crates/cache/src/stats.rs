//! Cache statistics.

use serde::{Deserialize, Serialize};

/// Counters of cache behaviour over a run.
///
/// # Example
///
/// ```
/// use hybrimoe_cache::CacheStats;
///
/// let mut s = CacheStats::default();
/// s.hits = 3;
/// s.misses = 1;
/// assert_eq!(s.hit_rate(), 0.75);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the expert resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Experts inserted (on-demand transfers and prefetches).
    pub insertions: u64,
    /// Experts evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0.0` when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.hits, 2);
        assert_eq!(a.misses, 4);
        assert_eq!(a.insertions, 6);
        assert_eq!(a.evictions, 8);
    }
}
