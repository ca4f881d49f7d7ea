//! Lock-sharded aggregation tables.
//!
//! Hook callbacks arrive concurrently from every rank thread and from
//! executor workers, so a single `Mutex<HashMap>` would serialize all of
//! them. [`StatsTable`] shards the map 16 ways by key hash: two threads
//! recording different kernels almost never touch the same lock. The
//! table is generic over the key so the same machinery backs the
//! profiler's `(kernel, space)` table, the region table, and
//! `licom::Timers` (keyed by `&'static str`).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use parking_lot::Mutex;

const SHARDS: usize = 16;

/// Aggregate for one key: call count, duration moments, and optional
/// byte / work-item tallies (used by deep copies and policy accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stat {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    pub bytes: u64,
    pub work_items: u64,
}

impl Stat {
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    fn fold(&mut self, dur_ns: u64, bytes: u64, work_items: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.max_ns = self.max_ns.max(dur_ns);
        self.bytes += bytes;
        self.work_items += work_items;
    }
}

fn shard_of<K: Hash>(key: &K) -> usize {
    // FNV-1a over the key's std hash: cheap and stable enough to spread
    // a handful of static strings across 16 shards.
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    let x = h.finish();
    ((x ^ (x >> 32)) as usize) % SHARDS
}

/// Concurrent key → [`Stat`] map, sharded to keep hook callbacks from
/// serializing on one lock.
pub struct StatsTable<K: Eq + Hash + Clone> {
    shards: [Mutex<HashMap<K, Stat>>; SHARDS],
}

impl<K: Eq + Hash + Clone> Default for StatsTable<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> StatsTable<K> {
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    /// Fold one sample into the key's aggregate.
    pub fn record(&self, key: K, dur_ns: u64, bytes: u64, work_items: u64) {
        let mut shard = self.shards[shard_of(&key)].lock();
        shard
            .entry(key)
            .or_default()
            .fold(dur_ns, bytes, work_items);
    }

    /// Read one key's aggregate.
    pub fn get(&self, key: &K) -> Option<Stat> {
        self.shards[shard_of(key)].lock().get(key).copied()
    }

    /// Copy out every (key, aggregate) pair.
    pub fn snapshot(&self) -> Vec<(K, Stat)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (k, v) in shard.lock().iter() {
                out.push((k.clone(), *v));
            }
        }
        out
    }

    /// Sum of `total_ns` across all keys.
    pub fn grand_total_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().values().map(|v| v.total_ns).sum::<u64>())
            .sum()
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

/// Concurrent key → `u64` counter map with the same sharding scheme;
/// backs `licom::Timers::add_count`.
pub struct CounterTable<K: Eq + Hash + Clone> {
    shards: [Mutex<HashMap<K, u64>>; SHARDS],
}

impl<K: Eq + Hash + Clone> Default for CounterTable<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> CounterTable<K> {
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    pub fn add(&self, key: K, n: u64) {
        *self.shards[shard_of(&key)].lock().entry(key).or_insert(0) += n;
    }

    pub fn get(&self, key: &K) -> u64 {
        self.shards[shard_of(key)]
            .lock()
            .get(key)
            .copied()
            .unwrap_or(0)
    }

    pub fn snapshot(&self) -> Vec<(K, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (k, v) in shard.lock().iter() {
                out.push((k.clone(), *v));
            }
        }
        out
    }

    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_folds_all_fields() {
        let t: StatsTable<&'static str> = StatsTable::new();
        t.record("k", 10, 100, 7);
        t.record("k", 30, 50, 7);
        let s = t.get(&"k").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 40);
        assert_eq!(s.max_ns, 30);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.work_items, 14);
        assert_eq!(s.mean_ns(), 20);
    }

    #[test]
    fn snapshot_and_grand_total_cover_all_shards() {
        let t: StatsTable<u64> = StatsTable::new();
        for k in 0..100u64 {
            t.record(k, k, 0, 0);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.grand_total_ns(), (0..100).sum::<u64>());
        let snap = t.snapshot();
        assert_eq!(snap.len(), 100);
    }

    #[test]
    fn concurrent_records_do_not_lose_samples() {
        let t: std::sync::Arc<StatsTable<usize>> = std::sync::Arc::new(StatsTable::new());
        let mut handles = Vec::new();
        for thread in 0..8 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    t.record((thread * 1000 + i) % 64, 1, 0, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = t.snapshot().iter().map(|(_, s)| s.count).sum();
        assert_eq!(total, 8000);
    }

    #[test]
    fn counters_accumulate_and_clear() {
        let c: CounterTable<&'static str> = CounterTable::new();
        c.add("wet_cells", 5);
        c.add("wet_cells", 7);
        assert_eq!(c.get(&"wet_cells"), 12);
        c.clear();
        assert_eq!(c.get(&"wet_cells"), 0);
    }
}
