//! A small bounded LRU map for the engine's plan cache.
//!
//! The engine caches ready group plans per immutable table
//! ([`crate::engine::NeedleTail`]); the cache is tiny (64 entries) but must
//! not grow without bound under an adversarial stream of distinct
//! queries. This map is the minimal structure that serves: a
//! `HashMap` tagged with a monotone use tick, evicting the
//! least-recently-used entry on overflow. Eviction is an `O(capacity)`
//! scan — at the capacities the engine uses (≤ 64) that is a few cache
//! lines, far below the cost of the plan it replaces, and it keeps the
//! structure free of the unsafe pointer juggling an intrusive LRU list
//! would need (this crate is `#![forbid(unsafe_code)]`).

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded least-recently-used map.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    /// Value plus the tick of its last use.
    map: HashMap<K, (u64, V)>,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates an empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            tick: 0,
        }
    }

    /// Number of entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `key` up, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            &slot.1
        })
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used entry
    /// if the cache is full and `key` is new.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            #[expect(clippy::disallowed_methods, reason = "min of unique ticks: order-free")]
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Drops every entry (capacity is retained).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_reported_and_survives_clear() {
        let mut c: LruCache<&str, u32> = LruCache::new(3);
        c.insert("a", 1);
        c.clear();
        assert!(c.is_empty());
        for (k, v) in [("a", 1), ("b", 2), ("c", 3), ("d", 4)] {
            c.insert(k, v);
        }
        assert_eq!(c.len(), 3, "the bound holds after a clear");
    }

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2);
        assert!(c.is_empty());
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(c.get(&"a"), Some(&1));
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "LRU entry must be evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacing_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u32, u32>::new(0);
    }
}
