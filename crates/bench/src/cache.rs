//! The content-addressed result cache behind `tenways serve`:
//! [`ResultCache`].
//!
//! Every simulation in this workspace is deterministic, so a completed
//! `run_record.v1` document is fully identified by the canonical hash of
//! its configuration ([`SimConfig::cache_key`](tenways_waste::SimConfig::cache_key)).
//! This module stores those records in two tiers:
//!
//! * an **in-memory LRU** of the hottest entries (bounded by
//!   `mem_capacity`; a disk hit is promoted into it), and
//! * a **disk store** under the cache directory — one
//!   `<key>.entry.json` file per record, written atomically via the
//!   temp-file + rename pattern ([`crate::write_text_atomic`]), so a
//!   crash mid-write can never corrupt an entry.
//!
//! The directory is its own index: opening a cache lists the entry
//! files, oldest modification first (ties broken by key), with their
//! byte sizes from the same `stat`. Caches that share a directory
//! (`tenways sweep --cache` defaults to the store `tenways serve` uses)
//! therefore see each other's entries on their next open, and no crash
//! between two writes can orphan one.
//!
//! The disk tier is **byte-budgeted**: when `disk_budget` is set, a `put`
//! that pushes the tier past the budget evicts least-recently-accessed
//! entries (file removed, counted in [`CacheCounters::disk_evictions`])
//! until the tier fits again. The entry being written is never evicted
//! by its own `put`, so a single record larger than the whole budget
//! still serves — the budget is a steady-state bound, not an admission
//! filter. Access order is kept in memory: a disk hit or a `put` makes
//! its key the most recent, and a reopen starts again from modification
//! order.
//!
//! Robustness contract: a truncated, garbage, wrong-schema, or
//! wrong-key entry file is treated as a **miss** — the caller recomputes
//! and the fresh `put` overwrites the bad bytes. The cache never crashes
//! on, and never serves, a corrupt entry.
//!
//! All behaviour counters live in an [`Arc<CacheCounters>`] of atomics
//! ([`ResultCache::counters`]): the serve layer's `/stats` endpoint reads
//! them without taking the cache lock, so stats traffic never contends
//! with the hot request path.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use tenways_sim::json::Json;

/// Version of the on-disk cache entry layout; bumped on any breaking
/// change. Entries with a different version are misses.
pub const CACHE_ENTRY_SCHEMA_VERSION: u64 = 1;

/// Lock-free behaviour counters shared out of the cache via
/// [`ResultCache::counters`]. Monotonic counts plus a few gauges; all
/// relaxed atomics — readers want freshness, not ordering.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Lookups answered from the in-memory tier.
    pub mem_hits: AtomicU64,
    /// Lookups answered from the disk tier (and promoted to memory).
    pub disk_hits: AtomicU64,
    /// Lookups that found nothing usable.
    pub misses: AtomicU64,
    /// Disk entries rejected as corrupt (counted within `misses`).
    pub corrupt_entries: AtomicU64,
    /// In-memory entries evicted by the LRU bound.
    pub mem_evictions: AtomicU64,
    /// Disk entries evicted by the byte budget.
    pub disk_evictions: AtomicU64,
    /// Gauge: entries currently in the memory tier.
    pub mem_entries: AtomicU64,
    /// Gauge: entries currently in the disk tier.
    pub disk_entries: AtomicU64,
    /// Gauge: total bytes the disk tier currently holds.
    pub disk_bytes: AtomicU64,
}

impl CacheCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of the counters, for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the in-memory tier.
    pub mem_hits: u64,
    /// Lookups answered from the disk tier (and promoted to memory).
    pub disk_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Disk entries rejected as corrupt (counted within `misses`).
    pub corrupt_entries: u64,
    /// In-memory entries evicted by the LRU bound.
    pub evictions: u64,
    /// Disk entries evicted by the byte budget.
    pub disk_evictions: u64,
    /// Total bytes the disk tier currently holds.
    pub disk_bytes: u64,
}

/// One disk-tier entry: a key plus the byte size of its entry file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexEntry {
    key: String,
    bytes: u64,
}

/// A two-tier (memory LRU + atomic disk store) map from canonical config
/// hashes to `run_record.v1` JSON trees. See the [module docs](self).
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    mem_capacity: usize,
    disk_budget: Option<u64>,
    mem: HashMap<String, Json>,
    /// LRU order: front = least recently used, back = most recent.
    order: Vec<String>,
    /// The disk tier's entries in access order: front = least recently
    /// accessed. Listed from the directory on open, then kept in memory.
    index: Vec<IndexEntry>,
    counters: Arc<CacheCounters>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory and lists its entry
    /// files, with an **unbounded** disk tier.
    ///
    /// `mem_capacity` bounds the in-memory tier (0 disables it; every hit
    /// then reads disk).
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, mem_capacity: usize) -> Result<ResultCache, String> {
        ResultCache::open_budgeted(dir, mem_capacity, None)
    }

    /// [`ResultCache::open`] with a disk-tier byte budget. `None` leaves
    /// the disk tier unbounded; `Some(bytes)` evicts least-recently-used
    /// entries on `put` until the tier fits.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created.
    pub fn open_budgeted(
        dir: impl Into<PathBuf>,
        mem_capacity: usize,
        disk_budget: Option<u64>,
    ) -> Result<ResultCache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        let mut cache = ResultCache {
            dir,
            mem_capacity,
            disk_budget,
            mem: HashMap::new(),
            order: Vec::new(),
            index: Vec::new(),
            counters: Arc::new(CacheCounters::default()),
        };
        cache.index = cache.scan_entries();
        cache.sync_disk_gauges();
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured disk budget in bytes (`None` = unbounded).
    pub fn disk_budget(&self) -> Option<u64> {
        self.disk_budget
    }

    /// Entries currently held in the memory tier.
    pub fn len_mem(&self) -> usize {
        self.mem.len()
    }

    /// Entries in the disk tier.
    pub fn len_disk(&self) -> usize {
        self.index.len()
    }

    /// Total bytes the disk tier currently holds.
    pub fn disk_bytes(&self) -> u64 {
        self.index.iter().map(|e| e.bytes).sum()
    }

    /// The shared atomic counters: clone the `Arc` to read hit/miss/
    /// eviction counts and tier gauges without holding the cache lock.
    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(&self.counters)
    }

    /// A snapshot of the counters (tests and reports).
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            mem_hits: c.mem_hits.load(Ordering::Relaxed),
            disk_hits: c.disk_hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            corrupt_entries: c.corrupt_entries.load(Ordering::Relaxed),
            evictions: c.mem_evictions.load(Ordering::Relaxed),
            disk_evictions: c.disk_evictions.load(Ordering::Relaxed),
            disk_bytes: c.disk_bytes.load(Ordering::Relaxed),
        }
    }

    /// Looks up `key`, checking memory first, then disk. A disk hit is
    /// promoted into the memory LRU and refreshes the key's disk access
    /// order. Any disk problem — unreadable file, garbage bytes, wrong
    /// schema version, entry recorded under a different key — is a miss,
    /// never an error.
    pub fn get(&mut self, key: &str) -> Option<Json> {
        if let Some(record) = self.mem.get(key).cloned() {
            self.touch(key);
            CacheCounters::bump(&self.counters.mem_hits);
            return Some(record);
        }
        match self.load_entry(key, true) {
            Some(record) => {
                CacheCounters::bump(&self.counters.disk_hits);
                self.touch_disk(key);
                self.insert_mem(key.to_string(), record.clone());
                Some(record)
            }
            None => {
                CacheCounters::bump(&self.counters.misses);
                None
            }
        }
    }

    /// Looks up `key` without counting a hit or a miss and without
    /// promoting or touching anything — the read-only probe behind
    /// `GET /jobs/<key>`, whose polls must not skew the hit/miss
    /// counters or the LRU orders.
    pub fn peek(&mut self, key: &str) -> Option<Json> {
        if let Some(record) = self.mem.get(key) {
            return Some(record.clone());
        }
        self.load_entry(key, false)
    }

    /// Stores `record` under `key` in both tiers. The entry file is
    /// written atomically; an existing (possibly corrupt) entry under the
    /// same key is overwritten. When the disk budget is exceeded,
    /// least-recently-accessed entries (never the one just written) are
    /// evicted until the tier fits.
    ///
    /// # Errors
    ///
    /// Returns a message when the disk write fails; the memory tier is
    /// updated regardless, so the current process still benefits.
    pub fn put(&mut self, key: &str, record: Json) -> Result<(), String> {
        let entry = Json::obj([
            ("schema_version", Json::U64(CACHE_ENTRY_SCHEMA_VERSION)),
            ("kind", Json::from("cache_entry")),
            ("key", Json::from(key)),
            ("record", record.clone()),
        ]);
        self.insert_mem(key.to_string(), record);
        let mut text = entry.pretty();
        text.push('\n');
        let bytes = text.len() as u64;
        crate::write_text_atomic(&self.entry_path(key), &text)?;
        if let Some(pos) = self.index.iter().position(|e| e.key == key) {
            self.index.remove(pos);
        }
        self.index.push(IndexEntry {
            key: key.to_string(),
            bytes,
        });
        self.enforce_disk_budget();
        self.sync_disk_gauges();
        Ok(())
    }

    /// Evicts least-recently-accessed disk entries until the tier fits
    /// the budget. The most recent entry (the one a `put` just wrote) is
    /// never evicted, so an oversized single record still serves.
    fn enforce_disk_budget(&mut self) {
        let Some(budget) = self.disk_budget else {
            return;
        };
        while self.disk_bytes() > budget && self.index.len() > 1 {
            let victim = self.index.remove(0);
            let _ = std::fs::remove_file(self.entry_path(&victim.key));
            // The memory tier may still hold the record; that is fine —
            // it is bounded separately and a re-put restores the file.
            CacheCounters::bump(&self.counters.disk_evictions);
        }
    }

    /// Refreshes the gauge counters after a disk-tier change.
    fn sync_disk_gauges(&self) {
        self.counters
            .disk_entries
            .store(self.index.len() as u64, Ordering::Relaxed);
        self.counters
            .disk_bytes
            .store(self.disk_bytes(), Ordering::Relaxed);
    }

    /// Marks `key` most-recently-used in the memory LRU order.
    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }

    /// Marks `key` most-recently-accessed in the disk tier's order.
    fn touch_disk(&mut self, key: &str) {
        if let Some(pos) = self.index.iter().position(|e| e.key == key) {
            let e = self.index.remove(pos);
            self.index.push(e);
        }
    }

    /// Inserts into the memory tier, evicting the least recently used
    /// entry when the capacity bound is hit.
    fn insert_mem(&mut self, key: String, record: Json) {
        if self.mem_capacity == 0 {
            return;
        }
        if self.mem.insert(key.clone(), record).is_some() {
            self.touch(&key);
            return;
        }
        self.order.push(key);
        while self.mem.len() > self.mem_capacity {
            let oldest = self.order.remove(0);
            self.mem.remove(&oldest);
            CacheCounters::bump(&self.counters.mem_evictions);
        }
        self.counters
            .mem_entries
            .store(self.mem.len() as u64, Ordering::Relaxed);
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        // Keys are hex digests, but sanitize anyway so a hostile key can
        // never traverse out of the cache directory.
        let safe: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        self.dir.join(format!("{safe}.entry.json"))
    }

    /// Reads and validates one entry file; `None` on any defect.
    /// `count_defects` suppresses the corrupt counter for [`peek`].
    fn load_entry(&mut self, key: &str, count_defects: bool) -> Option<Json> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => return None, // absent (or unreadable) = plain miss
        };
        let defect = |cache: &mut ResultCache| {
            if count_defects {
                CacheCounters::bump(&cache.counters.corrupt_entries);
            }
            None
        };
        let Ok(doc) = Json::parse(&text) else {
            return defect(self);
        };
        if doc.get("schema_version").and_then(Json::as_u64) != Some(CACHE_ENTRY_SCHEMA_VERSION)
            || doc.get("kind").and_then(Json::as_str) != Some("cache_entry")
            || doc.get("key").and_then(Json::as_str) != Some(key)
        {
            return defect(self);
        }
        match doc.get("record") {
            Some(record @ Json::Obj(_)) => Some(record.clone()),
            _ => defect(self),
        }
    }

    /// Lists the directory's entry files, oldest modification first
    /// (ties broken by key), each sized from the same `stat`.
    fn scan_entries(&self) -> Vec<IndexEntry> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<(SystemTime, IndexEntry)> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let key = name.strip_suffix(".entry.json")?.to_string();
                let meta = e.metadata().ok()?;
                let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                let bytes = meta.len();
                Some((modified, IndexEntry { key, bytes }))
            })
            .collect();
        found.sort_by(|(t1, a), (t2, b)| t1.cmp(t2).then_with(|| a.key.cmp(&b.key)));
        found.into_iter().map(|(_, entry)| entry).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn record(n: u64) -> Json {
        Json::obj([("schema_version", Json::U64(1)), ("cycles", Json::U64(n))])
    }

    /// A record padded to roughly `kb` kilobytes on disk.
    fn fat_record(n: u64, kb: usize) -> Json {
        Json::obj([
            ("schema_version", Json::U64(1)),
            ("cycles", Json::U64(n)),
            ("pad", Json::from("x".repeat(kb * 1024))),
        ])
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tenways-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_then_get_round_trips_both_tiers() {
        let dir = tmp_dir("roundtrip");
        let mut cache = ResultCache::open(&dir, 4).unwrap();
        assert_eq!(cache.get("k1"), None);
        cache.put("k1", record(7)).unwrap();
        assert_eq!(cache.get("k1"), Some(record(7)));
        assert_eq!(cache.stats().mem_hits, 1);

        // A fresh instance over the same directory hits disk.
        let mut fresh = ResultCache::open(&dir, 4).unwrap();
        assert_eq!(fresh.len_disk(), 1);
        assert_eq!(fresh.len_mem(), 0);
        assert_eq!(fresh.get("k1"), Some(record(7)));
        assert_eq!(fresh.stats().disk_hits, 1);
        // ...and the disk hit was promoted into memory.
        assert_eq!(fresh.len_mem(), 1);
        assert_eq!(fresh.get("k1"), Some(record(7)));
        assert_eq!(fresh.stats().mem_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let dir = tmp_dir("lru");
        let mut cache = ResultCache::open(&dir, 2).unwrap();
        cache.put("a", record(1)).unwrap();
        cache.put("b", record(2)).unwrap();
        // Touch `a` so `b` is the LRU entry when `c` arrives.
        assert!(cache.get("a").is_some());
        cache.put("c", record(3)).unwrap();
        assert_eq!(cache.len_mem(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.mem.contains_key("a"), "recently-used entry survives");
        assert!(cache.mem.contains_key("c"));
        assert!(!cache.mem.contains_key("b"), "LRU entry is evicted");
        // The evicted entry is still served — from disk — and re-promoted.
        assert_eq!(cache.get("b"), Some(record(2)));
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_disables_the_memory_tier() {
        let dir = tmp_dir("mem0");
        let mut cache = ResultCache::open(&dir, 0).unwrap();
        cache.put("k", record(1)).unwrap();
        assert_eq!(cache.len_mem(), 0);
        assert_eq!(cache.get("k"), Some(record(1)));
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_least_recently_accessed_first() {
        let dir = tmp_dir("budget");
        // ~1 KiB records under a 3.5 KiB budget: the fourth put overflows.
        let budget = 3 * 1024 + 512;
        let mut cache = ResultCache::open_budgeted(&dir, 0, Some(budget as u64)).unwrap();
        cache.put("a", fat_record(1, 1)).unwrap();
        cache.put("b", fat_record(2, 1)).unwrap();
        cache.put("c", fat_record(3, 1)).unwrap();
        assert_eq!(cache.stats().disk_evictions, 0);
        // Touch `a` (disk hit — mem tier is off) so `b` is the victim.
        assert!(cache.get("a").is_some());
        cache.put("d", fat_record(4, 1)).unwrap();
        assert_eq!(cache.stats().disk_evictions, 1);
        assert!(cache.disk_bytes() <= budget as u64, "tier fits the budget");
        assert_eq!(cache.get("b"), None, "least-recently-accessed is gone");
        assert!(cache.get("a").is_some(), "recently-touched entry survives");
        assert!(cache.get("d").is_some(), "the new entry is never evicted");
        assert!(
            !cache.entry_path("b").exists(),
            "evicted entry file is removed"
        );

        // The eviction is durable: a reopen sees the same membership.
        let mut fresh = ResultCache::open_budgeted(&dir, 0, Some(budget as u64)).unwrap();
        assert_eq!(fresh.len_disk(), 3);
        assert_eq!(fresh.get("b"), None);
        assert!(fresh.get("d").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_entry_exceeds_budget_but_still_serves() {
        let dir = tmp_dir("oversize");
        let mut cache = ResultCache::open_budgeted(&dir, 0, Some(512)).unwrap();
        cache.put("big", fat_record(1, 4)).unwrap();
        // The entry is larger than the whole budget; it must survive its
        // own put and keep serving.
        assert!(cache.get("big").is_some());
        assert_eq!(cache.len_disk(), 1);
        // The next put evicts it (it is now the LRU entry).
        cache.put("big2", fat_record(2, 4)).unwrap();
        assert_eq!(cache.get("big"), None);
        assert!(cache.get("big2").is_some());
        assert_eq!(cache.stats().disk_evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_eviction_vs_readers_never_tears() {
        // Readers and writers share the cache under a mutex with a budget
        // tight enough to evict constantly. Every get must return either
        // None (a miss — the entry was evicted) or the exact record that
        // was put for that key: never a torn or mixed-up entry.
        let dir = tmp_dir("concurrent");
        let budget = 2 * 1024 + 512; // ~2 fat entries
        let cache = Arc::new(Mutex::new(
            ResultCache::open_budgeted(&dir, 1, Some(budget as u64)).unwrap(),
        ));
        let keys: Vec<String> = (0..6).map(|i| format!("key{i}")).collect();
        std::thread::scope(|scope| {
            for t in 0..3 {
                let cache = Arc::clone(&cache);
                let keys = keys.clone();
                scope.spawn(move || {
                    for round in 0..30 {
                        let i = (t * 7 + round) % keys.len();
                        let key = &keys[i];
                        let mut guard = cache.lock().unwrap();
                        if round % 3 == 0 {
                            guard.put(key, fat_record(i as u64, 1)).unwrap();
                        } else if let Some(record) = guard.get(key) {
                            assert_eq!(
                                record.get("cycles").and_then(Json::as_u64),
                                Some(i as u64),
                                "entry under {key} served someone else's record"
                            );
                        }
                    }
                });
            }
        });
        let guard = cache.lock().unwrap();
        assert!(guard.disk_bytes() <= budget as u64);
        assert!(guard.stats().disk_evictions > 0, "budget actually evicted");
        // Defect path under concurrency: corrupt one survivor, then prove
        // it reads as a miss and counts as corrupt.
        drop(guard);
        let survivor = {
            let guard = cache.lock().unwrap();
            guard.index.last().unwrap().key.clone()
        };
        let path = {
            let guard = cache.lock().unwrap();
            guard.entry_path(&survivor)
        };
        std::fs::write(&path, b"torn bytes").unwrap();
        let mut fresh = ResultCache::open_budgeted(&dir, 0, Some(budget as u64)).unwrap();
        assert_eq!(fresh.get(&survivor), None, "torn entry must be a miss");
        assert_eq!(fresh.stats().corrupt_entries, 1);
        assert_eq!(fresh.stats().misses, 1, "defects still count as misses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_reads_without_counting_or_promoting() {
        let dir = tmp_dir("peek");
        let mut cache = ResultCache::open(&dir, 4).unwrap();
        cache.put("k", record(5)).unwrap();
        let mut fresh = ResultCache::open(&dir, 4).unwrap();
        assert_eq!(fresh.peek("k"), Some(record(5)));
        assert_eq!(fresh.peek("absent"), None);
        let stats = fresh.stats();
        assert_eq!(
            (stats.mem_hits, stats.disk_hits, stats.misses),
            (0, 0, 0),
            "peek must not touch the hit/miss counters"
        );
        assert_eq!(fresh.len_mem(), 0, "peek must not promote");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses_and_recoverable() {
        let dir = tmp_dir("corrupt");
        let mut cache = ResultCache::open(&dir, 4).unwrap();
        cache.put("k", record(9)).unwrap();
        let path = cache.entry_path("k");

        for (tag, bytes) in [
            ("truncated", &b"{\"schema_version\": 1, \"kind\": \"cac"[..]),
            ("garbage", &b"\x00\xffnot json at all"[..]),
            (
                "wrong-schema",
                br#"{"schema_version":99,"kind":"cache_entry","key":"k","record":{}}"#,
            ),
            (
                "wrong-key",
                br#"{"schema_version":1,"kind":"cache_entry","key":"other","record":{}}"#,
            ),
            (
                "wrong-kind",
                br#"{"schema_version":1,"kind":"index","key":"k","record":{}}"#,
            ),
            (
                "non-object-record",
                br#"{"schema_version":1,"kind":"cache_entry","key":"k","record":3}"#,
            ),
        ] {
            std::fs::write(&path, bytes).unwrap();
            let mut fresh = ResultCache::open(&dir, 4).unwrap();
            assert_eq!(fresh.get("k"), None, "{tag} entry must be a miss");
            // Recompute-and-overwrite: a put replaces the bad bytes and the
            // key serves again.
            fresh.put("k", record(10)).unwrap();
            let mut reread = ResultCache::open(&dir, 4).unwrap();
            assert_eq!(reread.get("k"), Some(record(10)), "{tag} recovery");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bytes of the entry files in `dir`, read off the file system.
    fn entry_bytes_on_disk(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".entry.json"))
            .map(|e| e.metadata().unwrap().len())
            .sum()
    }

    #[test]
    fn caches_sharing_a_directory_lose_no_entry() {
        // `tenways sweep --cache` defaults to the directory `tenways
        // serve` uses. Two caches write into one directory; a reopen
        // must list, size and budget every entry either of them wrote.
        let dir = tmp_dir("shared");
        let mut a = ResultCache::open(&dir, 0).unwrap();
        let mut b = ResultCache::open(&dir, 0).unwrap();
        a.put("k1", fat_record(1, 1)).unwrap();
        a.put("k2", fat_record(2, 1)).unwrap();
        b.put("k3", fat_record(3, 1)).unwrap();

        let budget = 3 * 1024 + 512;
        let mut reopened = ResultCache::open_budgeted(&dir, 0, Some(budget)).unwrap();
        assert_eq!(
            reopened.len_disk(),
            3,
            "a reopen lists both writers' entries"
        );
        assert_eq!(reopened.disk_bytes(), entry_bytes_on_disk(&dir));
        for n in 4..10 {
            reopened.put(&format!("k{n}"), fat_record(n, 1)).unwrap();
        }
        assert_eq!(
            reopened.disk_bytes(),
            entry_bytes_on_disk(&dir),
            "every entry on disk is one the cache accounts for"
        );
        assert!(reopened.disk_bytes() <= budget);
        assert_eq!(reopened.get("k1"), None, "the oldest entry was evicted");
        assert!(reopened.get("k9").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_keys_stay_inside_the_cache_dir() {
        let dir = tmp_dir("hostile");
        let cache = ResultCache::open(&dir, 4).unwrap();
        let path = cache.entry_path("../../etc/passwd");
        assert!(path.starts_with(&dir), "{}", path.display());
        assert!(!path.to_string_lossy().contains(".."));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
