//! A small in-memory LRU keyed by text — the hot tier in front of the
//! persistent result store, and the daemon's memo of parsed request bodies.
//!
//! The verdict cache keys by cache fingerprint (store fingerprint plus the
//! repair flag) and holds the exact serialized report bodies, so a hit is a
//! pure byte copy: no recomputation, no re-serialization, byte-identical to
//! the miss that filled it.  The deck memo keys by the exact request body
//! and bounds the total bytes of its keys as well as their number.
//!
//! Recency is a monotone tick per entry; eviction scans for the minimum.
//! That is O(capacity), which at the daemon's cache sizes (hundreds to a few
//! thousand entries) is cheaper and far simpler than an intrusive list —
//! eviction only happens on insert after the cache is full.

use std::collections::HashMap;

/// Least-recently-used map from a text key to a value, bounded by entry
/// count and by the total length of its keys.
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    key_budget: usize,
    key_bytes: usize,
    tick: u64,
    map: HashMap<String, (u64, V)>,
}

impl<V: Clone> LruCache<V> {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self::with_key_budget(capacity, usize::MAX)
    }

    /// A cache holding at most `capacity` entries whose keys total at most
    /// `key_budget` bytes; a key longer than the budget is never stored.
    pub fn with_key_budget(capacity: usize, key_budget: usize) -> Self {
        LruCache {
            capacity,
            key_budget,
            key_bytes: 0,
            tick: 0,
            map: HashMap::with_capacity(capacity.min(1024)),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a value and marks it most-recently used.
    pub fn get(&mut self, key: &str) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.0 = tick;
            entry.1.clone()
        })
    }

    /// Inserts (or refreshes) an entry, evicting least-recently-used ones
    /// until both bounds hold.
    pub fn put(&mut self, key: &str, value: V) {
        if self.capacity == 0 || key.len() > self.key_budget {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.map.get_mut(key) {
            *entry = (self.tick, value);
            return;
        }
        while self.map.len() >= self.capacity || self.key_bytes + key.len() > self.key_budget {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            self.key_bytes -= oldest.len();
        }
        self.key_bytes += key.len();
        self.map.insert(key.to_string(), (self.tick, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let mut cache: LruCache<String> = LruCache::new(2);
        cache.put("a", "A".into());
        cache.put("b", "B".into());
        assert_eq!(cache.get("a"), Some("A".into())); // refresh a
        cache.put("c", "C".into()); // evicts b
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some("A".into()));
        assert_eq!(cache.get("c"), Some("C".into()));
        assert_eq!(cache.len(), 2);

        // The deck memo's shape: any value type, and a key budget that
        // evicts by bytes before the entry count is reached.
        let mut memo = LruCache::with_key_budget(3, 8);
        memo.put("aaa", 1u64);
        memo.put("bbb", 2);
        assert_eq!(memo.get("aaa"), Some(1)); // refresh aaa
        memo.put("cccc", 3); // 3 + 3 + 4 bytes > 8: evicts bbb only
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get("bbb"), None);
        memo.put("dddddddd", 4); // the whole budget: evicts aaa and cccc
        assert_eq!(memo.len(), 1);
        memo.put("eeeeeeeee", 5); // longer than the budget: never stored
        assert_eq!(memo.get("eeeeeeeee"), None);
        assert_eq!(memo.get("dddddddd"), Some(4));
        for key in ["e", "f", "g", "h"] {
            memo.put(key, 0);
        }
        // The entry count binds once the keys are short.
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.get("e"), None);
    }

    #[test]
    fn reinsertion_refreshes_instead_of_evicting() {
        let mut cache: LruCache<String> = LruCache::new(2);
        cache.put("a", "A".into());
        cache.put("b", "B".into());
        cache.put("a", "A2".into());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("a"), Some("A2".into()));
        assert_eq!(cache.get("b"), Some("B".into()));

        // A refreshed key counts against the key budget once.
        let mut memo = LruCache::with_key_budget(4, 2);
        memo.put("a", 1u64);
        memo.put("a", 2);
        memo.put("b", 3);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache: LruCache<String> = LruCache::new(0);
        cache.put("a", "A".into());
        assert!(cache.is_empty());
        assert_eq!(cache.get("a"), None);
    }
}
