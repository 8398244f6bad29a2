//! The result cache: identical queries against an unchanged graph are
//! answered without running a single superstep.
//!
//! Keys are `(graph_id, algorithm, canonical params, graph_epoch,
//! delta_seq)`. The version components make invalidation structural:
//! re-registering a graph with changed bytes (or compacting it) bumps its
//! epoch, and every live mutation advances its delta seq — so every old
//! entry simply stops matching (and [`ResultCache::purge_graph`] reclaims
//! the memory eagerly). Eviction is least-recently-used over a fixed
//! entry capacity.
//!
//! With a spill directory attached, the cache also survives restarts:
//! [`ResultCache::spill`] writes an entry to one JSON file (tmp + rename,
//! named by an FNV-1a hash of the key), eviction and purging delete the
//! file, and [`ResultCache::open`] loads whatever the directory holds.
//! Inserting and spilling are separate steps so the scheduler can answer
//! the client between them. The spill is strictly best-effort — a lost,
//! unwritable or corrupt entry file is a cache miss after a restart,
//! never an error, and the in-memory entry serves either way — with
//! failures counted ([`ResultCache::spill_failures`]) for the `stats`
//! op. [`ResultCache::retain_valid`] drops restored entries whose graph
//! epoch no longer matches the restored registry.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use crate::job::{JobOutcome, ValueType};
use crate::json::Json;

/// Cache key. `params` must be the canonical rendering produced by
/// [`crate::job::AlgorithmSpec::canonical_params`] so that semantically
/// identical submissions hash identically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registered graph id.
    pub graph_id: String,
    /// Algorithm name (`"pagerank"`, `"bfs"`, ...).
    pub algorithm: String,
    /// Canonical parameter string.
    pub params: String,
    /// Registry epoch of the graph at submit time.
    pub epoch: u64,
    /// Delta batches folded into the graph's overlay at submit time —
    /// the within-epoch mutation counter.
    pub delta_seq: u64,
}

impl CacheKey {
    /// Stable spill filename for this key: FNV-1a over the fields with a
    /// separator no field can contain.
    fn file_name(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h ^= 0x1f; // field separator
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        eat(self.graph_id.as_bytes());
        eat(self.algorithm.as_bytes());
        eat(self.params.as_bytes());
        eat(&self.epoch.to_le_bytes());
        eat(&self.delta_seq.to_le_bytes());
        format!("e{h:016x}.json")
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("graph_id", Json::str(&self.graph_id))
            .set("algorithm", Json::str(&self.algorithm))
            .set("params", Json::str(&self.params))
            .set("epoch", Json::num(self.epoch))
            .set("delta_seq", Json::num(self.delta_seq))
    }

    fn from_json(j: &Json) -> Option<CacheKey> {
        Some(CacheKey {
            graph_id: j.get("graph_id")?.as_str()?.to_string(),
            algorithm: j.get("algorithm")?.as_str()?.to_string(),
            params: j.get("params")?.as_str()?.to_string(),
            epoch: j.get("epoch")?.as_u64()?,
            // Spills from before live graphs carry no seq: read as 0,
            // the only seq that existed then.
            delta_seq: j.get("delta_seq").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

fn outcome_to_json(o: &JobOutcome) -> Json {
    let head = Json::obj()
        .set("value_type", Json::str(o.value_type.as_str()))
        .set("values_u32", Json::U32s(o.values_u32.clone()));
    o.set_counters(head)
}

fn outcome_from_json(j: &Json) -> Option<JobOutcome> {
    // Every spill has carried these three; the dispatch-I/O counters
    // arrived after the format shipped and read back as 0 when missing.
    for k in ["supersteps", "messages", "retry_attempts"] {
        j.get(k)?.as_u64()?;
    }
    let value_type = ValueType::parse(j.get("value_type")?.as_str()?)?;
    // Phase timings describe one run, not the cached value set.
    Some(JobOutcome::from_counters(
        j,
        value_type,
        j.get("values_u32")?.to_u32s()?,
    ))
}

struct Slot {
    outcome: Arc<JobOutcome>,
    /// Logical access clock value at last touch; smallest = coldest.
    last_used: u64,
}

/// LRU cache of completed job outcomes.
pub struct ResultCache {
    slots: HashMap<CacheKey, Slot>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    spill_dir: Option<PathBuf>,
    spill_failures: u64,
}

impl ResultCache {
    /// An empty, memory-only cache holding at most `capacity` entries
    /// (0 disables caching entirely: every lookup misses, every insert is
    /// dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            slots: HashMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            spill_dir: None,
            spill_failures: 0,
        }
    }

    /// A durable cache spilling to `spill_dir`, reloaded with whatever a
    /// previous server left there (at most `capacity` entries; surplus
    /// and unreadable files are deleted). Restored entries start cold —
    /// recency does not survive a restart, which only costs eviction
    /// ordering, never correctness.
    pub fn open(capacity: usize, spill_dir: PathBuf) -> Self {
        let mut cache = ResultCache::new(capacity);
        let _ = std::fs::create_dir_all(&spill_dir);
        if let Ok(entries) = std::fs::read_dir(&spill_dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let loaded = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| Json::parse(&text).ok())
                    .and_then(|j| {
                        let key = CacheKey::from_json(j.get("key")?)?;
                        let outcome = outcome_from_json(j.get("outcome")?)?;
                        Some((key, outcome))
                    });
                match loaded {
                    Some((key, outcome)) if cache.slots.len() < capacity => {
                        cache.clock += 1;
                        cache.slots.insert(
                            key,
                            Slot {
                                outcome: Arc::new(outcome),
                                last_used: cache.clock,
                            },
                        );
                    }
                    _ => {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
        cache.spill_dir = Some(spill_dir);
        cache
    }

    /// Persist the entry under `key` to the spill directory, if there is
    /// one and the entry is still cached. A failure costs only the
    /// entry's survival across a restart, so it is counted, not returned.
    pub fn spill(&mut self, key: &CacheKey) {
        let (Some(dir), Some(slot)) = (&self.spill_dir, self.slots.get(key)) else {
            return;
        };
        let body = Json::obj()
            .set("key", key.to_json())
            .set("outcome", outcome_to_json(&slot.outcome))
            .encode();
        let path = dir.join(key.file_name());
        let tmp = path.with_extension("json.tmp");
        let written =
            std::fs::write(&tmp, body.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            self.spill_failures += 1;
            eprintln!(
                "gpsa-serve: cannot spill cache entry {}: {e}",
                path.display()
            );
        }
    }

    fn spill_remove(&self, key: &CacheKey) {
        if let Some(dir) = &self.spill_dir {
            let _ = std::fs::remove_file(dir.join(key.file_name()));
        }
    }

    /// Look up a result, counting a hit or miss and refreshing recency.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<JobOutcome>> {
        self.clock += 1;
        match self.slots.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.clock;
                self.hits += 1;
                Some(slot.outcome.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a completed outcome in memory, evicting the
    /// least-recently-used entry (and its spill file) if the cache is
    /// full. A no-op when capacity is 0. Follow with
    /// [`ResultCache::spill`] to make the entry survive a restart.
    pub fn put(&mut self, key: CacheKey, outcome: Arc<JobOutcome>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if self.slots.len() >= self.capacity && !self.slots.contains_key(&key) {
            if let Some(coldest) = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            {
                self.slots.remove(&coldest);
                self.spill_remove(&coldest);
            }
        }
        self.slots.insert(
            key,
            Slot {
                outcome,
                last_used: self.clock,
            },
        );
    }

    /// Drop every entry for `graph_id`, whatever its epoch. Called on
    /// re-register; correctness does not depend on it (the epoch in the
    /// key already prevents stale hits) but it frees the value arrays.
    pub fn purge_graph(&mut self, graph_id: &str) -> usize {
        let doomed: Vec<CacheKey> = self
            .slots
            .keys()
            .filter(|k| k.graph_id == graph_id)
            .cloned()
            .collect();
        for key in &doomed {
            self.slots.remove(key);
            self.spill_remove(key);
        }
        doomed.len()
    }

    /// Drop every entry whose `(graph_id, epoch, delta_seq)` is not
    /// current in `versions` (the restored registry's
    /// [`crate::GraphRegistry::versions`]). Run once after a restart: a
    /// graph that vanished, changed on disk, or lost a torn mutation
    /// batch invalidates its restored results here. Returns how many
    /// were dropped.
    pub fn retain_valid(&mut self, versions: &HashMap<String, (u64, u64)>) -> usize {
        let doomed: Vec<CacheKey> = self
            .slots
            .keys()
            .filter(|k| versions.get(&k.graph_id) != Some(&(k.epoch, k.delta_seq)))
            .cloned()
            .collect();
        for key in &doomed {
            self.slots.remove(key);
            self.spill_remove(key);
        }
        doomed.len()
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lifetime (hits, misses).
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries [`ResultCache::spill`] could not write since boot.
    pub fn spill_failures(&self) -> u64 {
        self.spill_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ValueType;

    fn key(graph: &str, params: &str, epoch: u64) -> CacheKey {
        key_seq(graph, params, epoch, 0)
    }

    fn key_seq(graph: &str, params: &str, epoch: u64, delta_seq: u64) -> CacheKey {
        CacheKey {
            graph_id: graph.to_string(),
            algorithm: "bfs".to_string(),
            params: params.to_string(),
            epoch,
            delta_seq,
        }
    }

    fn outcome(tag: u32) -> Arc<JobOutcome> {
        Arc::new(JobOutcome {
            value_type: ValueType::U32,
            values_u32: Arc::new(vec![tag]),
            supersteps: 1,
            messages: 1,
            edges_streamed: 0,
            edges_skipped: 0,
            mean_frontier_density: 0.0,
            retry_attempts: 0,
            phases: Vec::new(),
        })
    }

    /// What the scheduler does per completed job: insert, then persist.
    fn put_spilled(c: &mut ResultCache, key: CacheKey, outcome: Arc<JobOutcome>) {
        c.put(key.clone(), outcome);
        c.spill(&key);
    }

    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpsa-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut c = ResultCache::new(4);
        assert!(c.get(&key("g", "root=0", 1)).is_none());
        c.put(key("g", "root=0", 1), outcome(7));
        let got = c.get(&key("g", "root=0", 1)).unwrap();
        assert_eq!(*got.values_u32, vec![7]);
        // Different epoch: structurally a different key.
        assert!(c.get(&key("g", "root=0", 2)).is_none());
        // Different delta seq (a mutation happened): also a miss.
        assert!(c.get(&key_seq("g", "root=0", 1, 1)).is_none());
        assert_eq!(c.counters(), (1, 3));
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let mut c = ResultCache::new(2);
        c.put(key("g", "a", 1), outcome(1));
        c.put(key("g", "b", 1), outcome(2));
        // Touch "a" so "b" is the coldest.
        assert!(c.get(&key("g", "a", 1)).is_some());
        c.put(key("g", "c", 1), outcome(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key("g", "a", 1)).is_some());
        assert!(c.get(&key("g", "b", 1)).is_none());
        assert!(c.get(&key("g", "c", 1)).is_some());
    }

    #[test]
    fn purge_drops_all_epochs_of_one_graph() {
        let mut c = ResultCache::new(8);
        c.put(key("g", "a", 1), outcome(1));
        c.put(key("g", "a", 2), outcome(2));
        c.put(key("h", "a", 1), outcome(3));
        assert_eq!(c.purge_graph("g"), 2);
        assert_eq!(c.len(), 1);
        assert!(c.get(&key("h", "a", 1)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ResultCache::new(0);
        c.put(key("g", "a", 1), outcome(1));
        assert!(c.get(&key("g", "a", 1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = ResultCache::new(1);
        c.put(key("g", "a", 1), outcome(1));
        c.put(key("g", "a", 1), outcome(9));
        assert_eq!(c.len(), 1);
        assert_eq!(*c.get(&key("g", "a", 1)).unwrap().values_u32, vec![9]);
    }

    #[test]
    fn spilled_entries_reload_bit_exact() {
        let dir = spill_dir("reload");
        {
            let mut c = ResultCache::open(8, dir.clone());
            put_spilled(
                &mut c,
                key("g", "damping_bits=1062836634,supersteps=5", 2),
                Arc::new(JobOutcome {
                    value_type: ValueType::F32,
                    values_u32: Arc::new(vec![0.17f32.to_bits(), f32::NAN.to_bits(), u32::MAX]),
                    supersteps: 5,
                    messages: 42,
                    edges_streamed: 640,
                    edges_skipped: 128,
                    mean_frontier_density: 0.5,
                    retry_attempts: 1,
                    phases: Vec::new(),
                }),
            );
            put_spilled(&mut c, key("h", "root=3", 1), outcome(9));
        }
        let mut c = ResultCache::open(8, dir);
        assert_eq!(c.len(), 2);
        let got = c
            .get(&key("g", "damping_bits=1062836634,supersteps=5", 2))
            .unwrap();
        assert_eq!(
            *got.values_u32,
            vec![0.17f32.to_bits(), f32::NAN.to_bits(), u32::MAX],
            "restored values must be bit-identical"
        );
        assert_eq!(got.value_type, ValueType::F32);
        assert_eq!(got.supersteps, 5);
        assert_eq!(got.edges_streamed, 640);
        assert_eq!(got.edges_skipped, 128);
        assert!((got.mean_frontier_density - 0.5).abs() < 1e-9);
        assert_eq!(got.retry_attempts, 1);
        assert_eq!(*c.get(&key("h", "root=3", 1)).unwrap().values_u32, vec![9]);
    }

    #[test]
    fn a_spill_needs_its_original_counters_and_a_reply_needs_none() {
        let full = outcome_to_json(&JobOutcome {
            value_type: ValueType::U32,
            values_u32: Arc::new(vec![7]),
            supersteps: 3,
            messages: 40,
            edges_streamed: 50,
            edges_skipped: 60,
            mean_frontier_density: 0.5,
            retry_attempts: 2,
            phases: Vec::new(),
        });
        let without = |drop: &str| match &full {
            Json::Obj(fields) => {
                Json::Obj(fields.iter().filter(|(k, _)| k != drop).cloned().collect())
            }
            _ => unreachable!(),
        };
        let counters = |o: &JobOutcome| {
            let density = o.mean_frontier_density;
            (
                o.supersteps,
                o.messages,
                o.edges_streamed,
                o.edges_skipped,
                density,
                o.retry_attempts,
            )
        };
        assert_eq!(
            counters(&outcome_from_json(&full).unwrap()),
            (3, 40, 50, 60, 0.5, 2)
        );
        // A reply frame reads any missing counter as 0.
        let reply = |k: &str| {
            counters(&JobOutcome::from_counters(
                &without(k),
                ValueType::U32,
                Arc::new(vec![7]),
            ))
        };
        assert_eq!(reply("supersteps"), (0, 40, 50, 60, 0.5, 2));
        assert_eq!(reply("retry_attempts"), (3, 40, 50, 60, 0.5, 0));
        // A spill is rejected without the counters it has always carried,
        // and reads the later dispatch-I/O counters as 0.
        for k in ["supersteps", "messages", "retry_attempts"] {
            assert!(
                outcome_from_json(&without(k)).is_none(),
                "spill without {k}"
            );
        }
        let spill = |k: &str| counters(&outcome_from_json(&without(k)).unwrap());
        assert_eq!(spill("edges_streamed"), (3, 40, 0, 60, 0.5, 2));
        assert_eq!(spill("edges_skipped"), (3, 40, 50, 0, 0.5, 2));
        assert_eq!(spill("mean_frontier_density"), (3, 40, 50, 60, 0.0, 2));
    }

    #[test]
    fn eviction_and_purge_delete_spill_files() {
        let dir = spill_dir("evict");
        let mut c = ResultCache::open(2, dir.clone());
        put_spilled(&mut c, key("g", "a", 1), outcome(1));
        put_spilled(&mut c, key("g", "b", 1), outcome(2));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        c.get(&key("g", "a", 1));
        put_spilled(&mut c, key("g", "c", 1), outcome(3)); // evicts "b"
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        c.purge_graph("g");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        // A fresh open of the emptied dir restores nothing.
        drop(c);
        let c = ResultCache::open(2, dir);
        assert!(c.is_empty());
    }

    #[test]
    fn corrupt_spill_files_are_deleted_not_fatal() {
        let dir = spill_dir("corrupt");
        {
            let mut c = ResultCache::open(4, dir.clone());
            put_spilled(&mut c, key("g", "a", 1), outcome(5));
        }
        std::fs::write(dir.join("e0000000000000000.json"), b"{not json").unwrap();
        let mut c = ResultCache::open(4, dir.clone());
        assert_eq!(c.len(), 1, "the intact entry survives");
        assert!(c.get(&key("g", "a", 1)).is_some());
        assert!(
            !dir.join("e0000000000000000.json").exists(),
            "garbage is swept"
        );
    }

    #[test]
    fn retain_valid_drops_stale_versions() {
        let dir = spill_dir("retain");
        let mut c = ResultCache::open(8, dir.clone());
        put_spilled(&mut c, key("g", "a", 1), outcome(1));
        put_spilled(&mut c, key("g", "a", 2), outcome(2));
        put_spilled(&mut c, key_seq("g", "a", 2, 3), outcome(4));
        put_spilled(&mut c, key("dead", "a", 1), outcome(3));
        let versions = HashMap::from([("g".to_string(), (2u64, 3u64))]);
        assert_eq!(c.retain_valid(&versions), 3);
        assert_eq!(c.len(), 1);
        assert!(c.get(&key_seq("g", "a", 2, 3)).is_some());
        // Deletions reached the spill files too.
        drop(c);
        let c = ResultCache::open(8, dir);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn an_unwritable_spill_is_counted_and_the_entry_still_serves() {
        let dir = spill_dir("unwritable");
        let mut c = ResultCache::open(4, dir.clone());
        // A regular file where the directory was: every write under it
        // fails, whoever runs the test.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        put_spilled(&mut c, key("g", "a", 1), outcome(5));
        assert_eq!(c.spill_failures(), 1);
        assert_eq!(*c.get(&key("g", "a", 1)).unwrap().values_u32, vec![5]);
        // Spilling a key that was never inserted (or already evicted) is
        // not a failure.
        c.spill(&key("g", "missing", 1));
        assert_eq!(c.spill_failures(), 1);
        std::fs::remove_file(&dir).unwrap();
    }
}
