//! Small open-addressed integer maps for hot sampler state.
//!
//! The virtual Fisher–Yates shuffle takes one entry out of this table and
//! puts one in *per draw*; even with a fast hasher, `std::collections::
//! HashMap`'s general-purpose machinery (SipHash by default, tagged control
//! bytes, separate allocation paths) is measurable there. This map is the
//! special case that state needs and nothing more: power-of-two capacity,
//! interleaved `(key, value)` slots (one cache line serves a whole probe),
//! linear probing, and backward-shift deletion (no tombstones, so probe
//! chains never degrade).
//!
//! ## Keys are homed at their low bits
//!
//! A key's home slot is `key & mask` — no hash. That is safe *for these
//! keys*, and only for them: they are logical ranks the sampler computes
//! itself (`drawn`, and a uniform `j` in `drawn..eligible`), never outside
//! input, so nobody can aim them at one slot, and uniform `j`s spread over
//! the low bits exactly as a hash would spread them. What the identity buys
//! is the access pattern of the shuffle's other key: `drawn` counts up by
//! one per draw, so its home slot walks the table **sequentially** — the
//! next line is the one the hardware prefetcher already fetched — and the
//! uniform `j` is the only random access a draw makes. The dense key run a
//! shuffle ends in (every remaining slot displaced, `drawn..eligible`
//! contiguous) maps to distinct slots, collision-free, where a hash would
//! scatter it.
//!
//! ## What a draw costs
//!
//! A long without-replacement run grows this table past cache, and each
//! probe sequence is then one memory latency. The shuffle's swap is two of
//! them: [`RawMap::remove`] of `drawn` *is* the lookup of the value it
//! displaces, and [`RawMap::replace`] of `j` *is* the lookup of the value it
//! chooses. [`RawMap::touch`] is a plain load of a key's home slot, for a
//! batch that wants the random one of those two lines on its way before the
//! swap needs it.
//!
//! Two widths are provided: [`U64Map`] for arbitrary ranks and [`U32Map`]
//! for samplers whose population fits in `u32` — the common case, and half
//! the memory per entry, so twice the entries per cache line.
//!
//! Keys are logical sampler ranks, so each width's all-ones key is reserved
//! as the empty marker (`MAX` would mean a table of `2^width` rows).

/// Slot word types usable by [`RawMap`].
pub trait SlotWord: Copy + Eq + std::fmt::Debug {
    /// The reserved empty-slot marker (all ones).
    const EMPTY: Self;
    /// Widening conversion.
    fn to_u64(self) -> u64;
    /// Narrowing conversion; caller guarantees the value fits.
    fn from_u64(v: u64) -> Self;
}

impl SlotWord for u64 {
    const EMPTY: Self = u64::MAX;

    #[inline]
    fn to_u64(self) -> u64 {
        self
    }

    #[inline]
    fn from_u64(v: u64) -> Self {
        v
    }
}

impl SlotWord for u32 {
    const EMPTY: Self = u32::MAX;

    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }

    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn from_u64(v: u64) -> Self {
        debug_assert!(v < u64::from(u32::MAX));
        v as u32
    }
}

/// Open-addressed integer map with linear probing over interleaved slots.
#[derive(Debug, Clone)]
pub struct RawMap<T: SlotWord> {
    entries: Vec<(T, T)>,
    len: usize,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
}

/// Map for arbitrary `u64` ranks.
pub type U64Map = RawMap<u64>;
/// Half-size map for populations below `u32::MAX`.
pub type U32Map = RawMap<u32>;

impl<T: SlotWord> Default for RawMap<T> {
    fn default() -> Self {
        Self::with_capacity(16)
    }
}

impl<T: SlotWord> RawMap<T> {
    /// A map able to hold roughly `cap` entries before growing.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        let capacity = (cap.max(8) * 2).next_power_of_two();
        Self {
            entries: vec![(T::EMPTY, T::EMPTY); capacity],
            len: 0,
            mask: capacity - 1,
        }
    }

    /// Home slot: the key's low bits (the module docs say why these keys
    /// need no hash).
    #[inline]
    fn home(&self, key: T) -> usize {
        key.to_u64() as usize & self.mask
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored for `key`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> Option<u64> {
        let key = T::from_u64(key);
        debug_assert!(key != T::EMPTY, "all-ones key is reserved");
        let mut i = self.home(key);
        loop {
            let (k, v) = self.entries[i];
            if k == key {
                return Some(v.to_u64());
            }
            if k == T::EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The key word in `key`'s home slot, live or empty: one plain load
    /// that depends on nothing but the key. A batch folds these into a
    /// `black_box`ed accumulator to have the slots' cache lines in flight
    /// before it probes them; the value means nothing.
    #[inline]
    #[must_use]
    pub fn touch(&self, key: u64) -> u64 {
        self.entries[self.home(T::from_u64(key))].0.to_u64()
    }

    /// Inserts or updates `key`.
    #[inline]
    pub fn insert(&mut self, key: u64, val: u64) {
        let _ = self.replace(key, val);
    }

    /// Inserts or updates `key`, returning the value it held before — one
    /// probe sequence for a lookup and a store.
    pub fn replace(&mut self, key: u64, val: u64) -> Option<u64> {
        let key = T::from_u64(key);
        let val = T::from_u64(val);
        debug_assert!(key != T::EMPTY, "all-ones key is reserved");
        // Grow at 50% load: probe chains under linear probing lengthen
        // sharply past that, and the doubled table is still tiny relative
        // to the bitmaps it indexes into.
        if (self.len + 1) * 2 > self.entries.len() {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            let (k, old) = self.entries[i];
            if k == key {
                self.entries[i].1 = val;
                return Some(old.to_u64());
            }
            if k == T::EMPTY {
                self.entries[i] = (key, val);
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key` if present, returning its value. Uses backward-shift
    /// deletion so no tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let key = T::from_u64(key);
        debug_assert!(key != T::EMPTY, "all-ones key is reserved");
        let mut i = self.home(key);
        loop {
            let k = self.entries[i].0;
            if k == T::EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let removed = self.entries[i].1;
        self.len -= 1;
        // Backward shift: close the gap by pulling forward any entry whose
        // home slot lies cyclically outside (gap, j].
        let mut gap = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let entry = self.entries[j];
            if entry.0 == T::EMPTY {
                break;
            }
            let home = self.home(entry.0);
            let moveable = if gap <= j {
                home <= gap || home > j
            } else {
                home <= gap && home > j
            };
            if moveable {
                self.entries[gap] = entry;
                gap = j;
            }
        }
        self.entries[gap].0 = T::EMPTY;
        Some(removed.to_u64())
    }

    /// Visits every live `(key, value)` entry in unspecified (slot) order;
    /// callers that need a layout-independent view sort by key.
    pub fn for_each_entry(&self, mut f: impl FnMut(u64, u64)) {
        for &(k, v) in &self.entries {
            if k != T::EMPTY {
                f(k.to_u64(), v.to_u64());
            }
        }
    }

    /// Pre-grows so `extra` further inserts need no rehash mid-batch.
    pub fn reserve(&mut self, extra: usize) {
        while (self.len + extra) * 2 > self.entries.len() {
            self.grow();
        }
    }

    /// Removes every entry, keeping a small table.
    pub fn clear(&mut self) {
        // Shrink back: long without-replacement runs can grow the table
        // large, and `reset` starts a fresh permutation anyway.
        *self = Self::default();
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = self.entries.len() * 2;
        let old = std::mem::replace(&mut self.entries, vec![(T::EMPTY, T::EMPTY); new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in old {
            if k != T::EMPTY {
                self.insert_raw(k, v);
            }
        }
    }

    /// Insert during rehash (no growth check).
    fn insert_raw(&mut self, key: T, val: T) {
        let mut i = self.home(key);
        loop {
            let k = self.entries[i].0;
            if k == T::EMPTY {
                self.entries[i] = (key, val);
                self.len += 1;
                return;
            }
            debug_assert!(k != key);
            i = (i + 1) & self.mask;
        }
    }
}

/// Fisher–Yates swap state that picks the narrow table when the population
/// allows it (anything below `u32::MAX` logical slots).
#[derive(Debug, Clone)]
pub enum SwapMap {
    /// Populations below `u32::MAX`: 8-byte entries.
    Narrow(U32Map),
    /// Full-width fallback.
    Wide(U64Map),
}

impl SwapMap {
    /// Chooses the width for a population of `n` logical slots.
    #[must_use]
    pub fn for_population(n: u64) -> Self {
        if n < u64::from(u32::MAX) {
            SwapMap::Narrow(U32Map::default())
        } else {
            SwapMap::Wide(U64Map::default())
        }
    }

    /// The value stored for `key`, if present.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> Option<u64> {
        match self {
            SwapMap::Narrow(m) => m.get(key),
            SwapMap::Wide(m) => m.get(key),
        }
    }

    /// The key word in `key`'s home slot (see [`RawMap::touch`]).
    #[inline]
    #[must_use]
    pub fn touch(&self, key: u64) -> u64 {
        match self {
            SwapMap::Narrow(m) => m.touch(key),
            SwapMap::Wide(m) => m.touch(key),
        }
    }

    /// Inserts or updates `key`.
    #[inline]
    pub fn insert(&mut self, key: u64, val: u64) {
        match self {
            SwapMap::Narrow(m) => m.insert(key, val),
            SwapMap::Wide(m) => m.insert(key, val),
        }
    }

    /// Inserts or updates `key`, returning the value it held before.
    #[inline]
    pub fn replace(&mut self, key: u64, val: u64) -> Option<u64> {
        match self {
            SwapMap::Narrow(m) => m.replace(key, val),
            SwapMap::Wide(m) => m.replace(key, val),
        }
    }

    /// Removes `key` if present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        match self {
            SwapMap::Narrow(m) => m.remove(key),
            SwapMap::Wide(m) => m.remove(key),
        }
    }

    /// Visits every live `(key, value)` entry in unspecified (slot) order.
    pub fn for_each_entry(&self, f: impl FnMut(u64, u64)) {
        match self {
            SwapMap::Narrow(m) => m.for_each_entry(f),
            SwapMap::Wide(m) => m.for_each_entry(f),
        }
    }

    /// Pre-grows for `extra` further inserts.
    pub fn reserve(&mut self, extra: usize) {
        match self {
            SwapMap::Narrow(m) => m.reserve(extra),
            SwapMap::Wide(m) => m.reserve(extra),
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SwapMap::Narrow(m) => m.len(),
            SwapMap::Wide(m) => m.len(),
        }
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry, keeping a small table.
    pub fn clear(&mut self) {
        match self {
            SwapMap::Narrow(m) => m.clear(),
            SwapMap::Wide(m) => m.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = U64Map::default();
        assert!(m.is_empty());
        for i in 0..1000u64 {
            m.insert(i * 3, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 3), Some(i));
            assert_eq!(m.get(i * 3 + 1), None);
        }
        for i in 0..500u64 {
            assert_eq!(m.remove(i * 3), Some(i));
            assert_eq!(m.remove(i * 3), None);
        }
        assert_eq!(m.len(), 500);
        for i in 500..1000u64 {
            assert_eq!(m.get(i * 3), Some(i), "survivor {i} lost after removes");
        }
    }

    #[test]
    fn update_overwrites() {
        let mut m = U32Map::default();
        m.insert(7, 1);
        m.insert(7, 2);
        assert_eq!(m.get(7), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn replace_and_touch_wrap_around_the_table_end() {
        let mut m = U32Map::default();
        let cap = m.entries.len() as u64;
        // Three keys homed at the last slot: they occupy it and, wrapping,
        // the first two.
        let keys = [cap - 1, 2 * cap - 1, 3 * cap - 1];
        for (i, &k) in (0u64..).zip(&keys) {
            assert_eq!(m.replace(k, i), None);
        }
        let slots: Vec<u32> = [cap as usize - 1, 0, 1]
            .iter()
            .map(|&i| m.entries[i].0)
            .collect();
        assert_eq!(slots, keys.map(|k| k as u32));
        // touch reads the home slot, whoever lives there; an empty home
        // reads as the empty marker.
        assert_eq!(m.touch(3 * cap - 1), cap - 1);
        assert_eq!(m.touch(5), u64::from(u32::MAX));
        // replace finds a key past the wrap and hands back its old value.
        assert_eq!(m.replace(3 * cap - 1, 9), Some(2));
        assert_eq!(m.get(3 * cap - 1), Some(9));
        assert_eq!(m.len(), 3);
        // Removing the head shifts the wrapped tail back across the end.
        assert_eq!(m.remove(cap - 1), Some(0));
        assert_eq!(m.touch(cap - 1), 2 * cap - 1);
        assert_eq!(m.get(2 * cap - 1), Some(1));
        assert_eq!(m.get(3 * cap - 1), Some(9));
        assert_eq!(m.entries[1].0, u32::MAX, "the run's old tail slot is free");
    }

    #[test]
    fn clear_resets() {
        let mut m = U32Map::default();
        for i in 0..10_000 {
            m.insert(i, i);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(3), None);
        m.insert(3, 4);
        assert_eq!(m.get(3), Some(4));
    }

    #[test]
    fn reserve_prevents_mid_batch_growth() {
        let mut m = U32Map::default();
        m.reserve(1000);
        let cap_before = m.entries.len();
        for i in 0..1000 {
            m.insert(i, i);
        }
        assert_eq!(m.entries.len(), cap_before, "reserve must pre-size");
    }

    #[test]
    fn swap_map_picks_width() {
        assert!(matches!(
            SwapMap::for_population(1_000_000),
            SwapMap::Narrow(_)
        ));
        assert!(matches!(
            SwapMap::for_population(u64::from(u32::MAX)),
            SwapMap::Wide(_)
        ));
        let mut wide = SwapMap::for_population(u64::MAX);
        wide.insert(u64::from(u32::MAX) + 7, 1);
        assert_eq!(wide.get(u64::from(u32::MAX) + 7), Some(1));
    }

    #[test]
    fn for_each_entry_visits_exactly_the_live_set() {
        let mut m = SwapMap::for_population(1000);
        for i in 0..200u64 {
            m.insert(i * 2, i);
        }
        for i in 0..50u64 {
            m.remove(i * 4);
        }
        let mut seen = Vec::new();
        m.for_each_entry(|k, v| seen.push((k, v)));
        seen.sort_unstable();
        let expect: Vec<(u64, u64)> = (0..200u64)
            .map(|i| (i * 2, i))
            .filter(|&(k, _)| !(k.is_multiple_of(4) && k < 200))
            .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn randomized_agreement_with_std_hashmap() {
        use std::collections::HashMap;
        // Deterministic xorshift exercise of mixed ops, checked against the
        // std map as the oracle (this is what correctness of backward-shift
        // deletion hinges on), over both widths.
        for narrow in [false, true] {
            let mut x = 0x0123_4567_89AB_CDEF_u64;
            let mut step = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // xorshift64*: the raw low bits are linearly related from
                // one word to the next, which would tie each key to one op.
                x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32
            };
            let mut ours = if narrow {
                SwapMap::Narrow(U32Map::default())
            } else {
                SwapMap::Wide(U64Map::default())
            };
            let mut oracle: HashMap<u64, u64> = HashMap::new();
            for round in 0..60_000 {
                // 512 keys in 8 families `r + 2^20·i`. Low-bit homing sends
                // a whole family to one slot at every capacity this test
                // reaches, and the residues straddle the table end (the last
                // four slots, then the first four), so the families pile
                // into one long probe run that wraps — a small *dense*
                // domain would be collision-free under this homing.
                let draw = step() % 512;
                let residue = ((1u64 << 20) - 4 + draw % 8) % (1 << 20);
                let key = residue + ((draw / 8) << 20);
                match step() % 4 {
                    0 => {
                        let val = step() % 100_000;
                        ours.insert(key, val);
                        oracle.insert(key, val);
                    }
                    1 => {
                        let val = step() % 100_000;
                        assert_eq!(
                            ours.replace(key, val),
                            oracle.insert(key, val),
                            "round {round}"
                        );
                    }
                    2 => {
                        assert_eq!(ours.remove(key), oracle.remove(&key), "round {round}");
                    }
                    _ => {
                        assert_eq!(ours.get(key), oracle.get(&key).copied(), "round {round}");
                    }
                }
                assert_eq!(ours.len(), oracle.len(), "round {round}");
            }
            for (&k, &v) in &oracle {
                assert_eq!(ours.get(k), Some(v));
            }
        }
    }
}
