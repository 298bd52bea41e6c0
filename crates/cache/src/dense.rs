//! Dense per-expert state, grown on demand.
//!
//! The cache and its policies sit on the per-layer critical path of every
//! engine step, so they keep their state in flat arrays indexed by
//! [`ExpertKey::dense_index`] instead of ordered sets and hash maps:
//! residency is a bitset ([`KeySet`]), per-expert policy values
//! (score, last access, frequency) live in a [`KeyMap`]. Neither is told
//! the model's shape up front — the row width grows to cover the largest
//! expert id seen and rows are appended as later layers appear — so the
//! public constructors stay model-agnostic.
//!
//! Both lay experts out layer-major with a row width above every expert id
//! stored, so ascending slot order is ascending [`ExpertKey`] order. That
//! is what lets eviction scan the resident slots in key order
//! ([`Candidates`]) without first collecting them.

use hybrimoe_model::{ExpertId, ExpertKey, LayerId};

/// Grows a row-major grid so that row `row` exists and every row is at
/// least `width` slots wide (existing values keep their `(row, column)`).
/// Widths double, so re-layouts are rare and stop once the model's real
/// shape has been seen.
fn grow<T: Copy + Default>(slots: &mut Vec<T>, stride: &mut usize, row: usize, width: usize) {
    if width > *stride {
        let wider = width.next_power_of_two();
        let rows = slots.len().checked_div(*stride).unwrap_or(0);
        let mut relaid = vec![T::default(); rows * wider];
        for r in 0..rows {
            relaid[r * wider..r * wider + *stride]
                .copy_from_slice(&slots[r * *stride..(r + 1) * *stride]);
        }
        *slots = relaid;
        *stride = wider;
    }
    let needed = (row + 1) * *stride;
    if slots.len() < needed {
        slots.resize(needed, T::default());
    }
}

/// A dense map from [`ExpertKey`] to a small `Copy` value, where every key
/// that was never written reads as `T::default()`.
///
/// This is the storage the built-in policies use for scores, timestamps
/// and counters, and what a custom [`CachePolicy`](crate::CachePolicy)
/// should use too: reads are one bounds-checked index, with no hashing.
///
/// # Example
///
/// ```
/// use hybrimoe_cache::KeyMap;
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
///
/// let mut last_access: KeyMap<u64> = KeyMap::new();
/// let k = ExpertKey::new(LayerId(3), ExpertId(17));
/// assert_eq!(last_access.get(k), 0); // never written
/// last_access.set(k, 42);
/// assert_eq!(last_access.get(k), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyMap<T> {
    /// Slots per layer; above every expert id written so far.
    stride: usize,
    slots: Vec<T>,
}

impl<T: Copy + Default> KeyMap<T> {
    /// Creates an empty map (every key reads as the default).
    pub fn new() -> Self {
        KeyMap {
            stride: 0,
            slots: Vec::new(),
        }
    }

    /// The value of `key`; `T::default()` if it was never written.
    #[inline]
    pub fn get(&self, key: ExpertKey) -> T {
        if key.expert.0 as usize >= self.stride {
            return T::default();
        }
        self.slots
            .get(key.dense_index(self.stride))
            .copied()
            .unwrap_or_default()
    }

    /// Mutable access to the value of `key`, growing the map to hold it.
    pub fn slot_mut(&mut self, key: ExpertKey) -> &mut T {
        grow(
            &mut self.slots,
            &mut self.stride,
            key.layer.0 as usize,
            key.expert.0 as usize + 1,
        );
        &mut self.slots[key.dense_index(self.stride)]
    }

    /// Writes the value of `key`.
    pub fn set(&mut self, key: ExpertKey, value: T) {
        *self.slot_mut(key) = value;
    }

    /// The values of experts `0..experts` of `layer`, as one mutable row
    /// (indexed by expert id), growing the map to hold it.
    pub fn row_mut(&mut self, layer: LayerId, experts: usize) -> &mut [T] {
        let row = layer.0 as usize;
        grow(&mut self.slots, &mut self.stride, row, experts);
        &mut self.slots[row * self.stride..row * self.stride + experts]
    }
}

/// A dense set of [`ExpertKey`]s iterated in ascending key order.
///
/// # Example
///
/// ```
/// use hybrimoe_cache::KeySet;
/// use hybrimoe_model::{ExpertId, ExpertKey, LayerId};
///
/// let a = ExpertKey::new(LayerId(0), ExpertId(9));
/// let b = ExpertKey::new(LayerId(2), ExpertId(1));
/// let set: KeySet = [b, a].into_iter().collect();
/// assert!(set.contains(a));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![a, b]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeySet {
    /// 64-bit words per layer; `64 * words_per_layer` is above every
    /// expert id inserted so far.
    words_per_layer: usize,
    words: Vec<u64>,
    len: usize,
}

/// The word offset within a layer's row and the bit mask of `expert`.
#[inline]
fn word_and_mask(expert: ExpertId) -> (usize, u64) {
    (expert.0 as usize / 64, 1u64 << (expert.0 % 64))
}

impl KeySet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        KeySet {
            words_per_layer: 0,
            words: Vec::new(),
            len: 0,
        }
    }

    /// Number of keys in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bits of word `word` of `layer`'s row; zero outside the grid.
    #[inline]
    fn word(&self, layer: usize, word: usize) -> u64 {
        if word >= self.words_per_layer {
            return 0;
        }
        self.words
            .get(layer * self.words_per_layer + word)
            .copied()
            .unwrap_or(0)
    }

    /// Whether `key` is in the set.
    #[inline]
    pub fn contains(&self, key: ExpertKey) -> bool {
        let (word, mask) = word_and_mask(key.expert);
        self.word(key.layer.0 as usize, word) & mask != 0
    }

    /// Adds `key`; returns whether it was absent.
    pub fn insert(&mut self, key: ExpertKey) -> bool {
        let (word, mask) = word_and_mask(key.expert);
        let layer = key.layer.0 as usize;
        grow(&mut self.words, &mut self.words_per_layer, layer, word + 1);
        let slot = &mut self.words[layer * self.words_per_layer + word];
        let added = *slot & mask == 0;
        *slot |= mask;
        self.len += usize::from(added);
        added
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: ExpertKey) -> bool {
        if !self.contains(key) {
            return false;
        }
        let (word, mask) = word_and_mask(key.expert);
        self.words[key.layer.0 as usize * self.words_per_layer + word] &= !mask;
        self.len -= 1;
        true
    }

    /// All keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = ExpertKey> + '_ {
        self.candidates().iter()
    }

    /// Every key of the set as eviction candidates (nothing protected) —
    /// what a policy's unit test hands to
    /// [`CachePolicy::choose_victim`](crate::CachePolicy::choose_victim).
    pub fn candidates(&self) -> Candidates<'_> {
        Candidates::new(self, &[])
    }
}

impl FromIterator<ExpertKey> for KeySet {
    fn from_iter<I: IntoIterator<Item = ExpertKey>>(keys: I) -> Self {
        let mut set = KeySet::new();
        for key in keys {
            set.insert(key);
        }
        set
    }
}

/// The eviction candidates of one insertion: the resident experts that
/// are not protected, **in ascending key order**.
///
/// This is a view over the cache's own residency bits — nothing is
/// collected — so a policy picks its victim in one pass, usually
/// [`candidates.min_by_value(|key| ...)`](Candidates::min_by_value).
#[derive(Debug, Clone, Copy)]
pub struct Candidates<'a> {
    resident: &'a KeySet,
    protect: &'a [ExpertKey],
}

impl<'a> Candidates<'a> {
    /// The candidates among `resident`: everything except the keys in
    /// `protect`.
    pub(crate) fn new(resident: &'a KeySet, protect: &'a [ExpertKey]) -> Self {
        Candidates { resident, protect }
    }

    /// The candidate keys, ascending.
    pub fn iter(&self) -> impl Iterator<Item = ExpertKey> + 'a {
        CandidateIter {
            set: *self,
            next_word: 0,
            bits: 0,
            layer: LayerId(0),
            first_expert: 0,
        }
    }

    /// The candidate with the smallest `value`, ties going to the smallest
    /// key — the victim order of every built-in policy. One pass: a later
    /// candidate only displaces the best so far when its value is strictly
    /// smaller.
    pub fn min_by_value<V: PartialOrd>(
        &self,
        mut value: impl FnMut(ExpertKey) -> V,
    ) -> Option<ExpertKey> {
        let mut candidates = self.iter();
        let first = candidates.next()?;
        let mut best = (value(first), first);
        for key in candidates {
            let v = value(key);
            if v < best.0 {
                best = (v, key);
            }
        }
        Some(best.1)
    }

    /// The residency bits `resident` of word `word` of `layer`'s row with
    /// the protected bits cleared.
    fn eligible(&self, layer: usize, word: usize, resident: u64) -> u64 {
        let mut bits = resident;
        for key in self.protect {
            let (w, mask) = word_and_mask(key.expert);
            if key.layer.0 as usize == layer && w == word {
                bits &= !mask;
            }
        }
        bits
    }
}

struct CandidateIter<'a> {
    set: Candidates<'a>,
    /// Index of the next residency word to load.
    next_word: usize,
    /// Unvisited candidate bits of the word loaded last, which holds
    /// experts `first_expert..first_expert + 64` of `layer`.
    bits: u64,
    layer: LayerId,
    first_expert: u16,
}

impl Iterator for CandidateIter<'_> {
    type Item = ExpertKey;

    #[inline]
    fn next(&mut self) -> Option<ExpertKey> {
        while self.bits == 0 {
            let resident = *self.set.resident.words.get(self.next_word)?;
            if resident != 0 {
                let per_layer = self.set.resident.words_per_layer;
                let (layer, word) = (self.next_word / per_layer, self.next_word % per_layer);
                self.bits = self.set.eligible(layer, word, resident);
                self.layer = LayerId(layer as u16);
                self.first_expert = (word * 64) as u16;
            }
            self.next_word += 1;
        }
        let bit = self.bits.trailing_zeros() as u16;
        self.bits &= self.bits - 1;
        let expert = ExpertId(self.first_expert + bit);
        Some(ExpertKey::new(self.layer, expert))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(l: u16, e: u16) -> ExpertKey {
        ExpertKey::new(LayerId(l), ExpertId(e))
    }

    #[test]
    fn key_map_defaults_and_grows_in_both_directions() {
        let mut m: KeyMap<u64> = KeyMap::new();
        assert_eq!(m.get(key(5, 5)), 0);
        m.set(key(1, 3), 13);
        m.set(key(0, 0), 7);
        // Widening the rows and appending layers keeps earlier values.
        m.set(key(1, 200), 1200);
        m.set(key(9, 1), 91);
        assert_eq!(m.get(key(1, 3)), 13);
        assert_eq!(m.get(key(0, 0)), 7);
        assert_eq!(m.get(key(1, 200)), 1200);
        assert_eq!(m.get(key(9, 1)), 91);
        assert_eq!(m.get(key(9, 2)), 0);
        assert_eq!(m.get(key(40, 2)), 0);
        assert_eq!(m.get(key(0, 60_000)), 0);
    }

    #[test]
    fn key_map_rows_are_indexed_by_expert() {
        let mut m: KeyMap<f64> = KeyMap::new();
        m.row_mut(LayerId(2), 4)
            .copy_from_slice(&[0.0, 0.5, 0.0, 2.0]);
        assert_eq!(m.get(key(2, 1)), 0.5);
        assert_eq!(m.get(key(2, 3)), 2.0);
        assert_eq!(m.get(key(1, 1)), 0.0);
        m.row_mut(LayerId(2), 4)[1] += 1.0;
        assert_eq!(m.get(key(2, 1)), 1.5);
    }

    #[test]
    fn key_set_tracks_membership_and_len() {
        let mut s = KeySet::new();
        assert!(s.is_empty());
        assert!(s.insert(key(1, 70)));
        assert!(!s.insert(key(1, 70)));
        assert!(s.insert(key(0, 2)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(key(1, 70)));
        assert!(!s.contains(key(1, 6)));
        assert!(!s.contains(key(7, 70)));
        assert!(!s.remove(key(3, 3)));
        assert!(s.remove(key(1, 70)));
        assert!(!s.contains(key(1, 70)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn key_set_iterates_in_key_order_across_regrowth() {
        let keys = [key(2, 1), key(0, 63), key(0, 64), key(1, 300), key(0, 0)];
        let set: KeySet = keys.into_iter().collect();
        let mut sorted = keys.to_vec();
        sorted.sort();
        assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn candidates_exclude_protected() {
        let resident: KeySet = [key(0, 1), key(0, 2), key(1, 1), key(1, 65)]
            .into_iter()
            .collect();
        // Protected keys past the first word, and some not resident at all.
        let protect = [key(0, 2), key(1, 65), key(3, 3), key(4, 900)];
        let c = Candidates::new(&resident, &protect);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![key(0, 1), key(1, 1)]);
        let everyone = [key(0, 1), key(0, 2), key(1, 1), key(1, 65)];
        assert_eq!(Candidates::new(&resident, &everyone).iter().next(), None);
        assert_eq!(KeySet::new().candidates().iter().next(), None);
    }

    #[test]
    fn min_by_value_breaks_ties_by_key() {
        let set: KeySet = [key(0, 5), key(1, 1), key(1, 2), key(2, 0)]
            .into_iter()
            .collect();
        let c = set.candidates();
        assert_eq!(c.min_by_value(|k| k.expert.0 % 2), Some(key(1, 2)));
        assert_eq!(c.min_by_value(|_| 0), Some(key(0, 5)));
        // Incomparable values never displace the best so far.
        assert_eq!(c.min_by_value(|_| f64::NAN), Some(key(0, 5)));
        assert_eq!(KeySet::new().candidates().min_by_value(|_| 0), None);
    }
}
