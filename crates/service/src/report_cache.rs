//! Content-addressed cache of serialized [`AnalysisReport`]s.
//!
//! The paper's model is deterministic: identical requests against
//! identical calibration always produce identical reports, so
//! re-simulating duplicated traffic is pure waste. This module memoizes
//! whole answers the same way [`gpa_ubench::cache`] memoizes calibration
//! curves — content-hashed keys, atomic temp+rename disk writes — but
//! one layer up, at the request/report boundary, where a hit skips
//! trace generation and the timing simulator entirely.
//!
//! # The canonical-hash contract
//!
//! A cache key ([`CacheKey`]) is an FNV-1a 64-bit hash over a
//! human-readable *fingerprint* string, and the fingerprint — not just
//! the hash — is stored with every entry and compared on lookup, so a
//! 64-bit collision reads as a miss, never as a wrong answer. The
//! fingerprint is built from exactly three parts:
//!
//! 1. **`gen=` — [`gpa_ubench::cache::CACHE_GENERATION`].** Bumping the
//!    generation (a measurement- or model-code change that alters
//!    answers) invalidates every existing entry.
//! 2. **`calib=` — the calibration identity.** A hash of the full
//!    [`Machine`](gpa_hw::Machine) description (its `Debug` rendering,
//!    so no field can be silently omitted) plus the measured
//!    [`ThroughputCurves`](gpa_ubench::ThroughputCurves) JSON. Two
//!    analyzers answer from the same entry only if they calibrated the
//!    same machine to bit-identical curves.
//! 3. **The canonical request** — the deterministic
//!    [`wire`](crate::wire) JSON of the request, normalized so that
//!    options which provably cannot change the answer stay **out** of
//!    the key:
//!    * `options.threads` is normalized to `"auto"` — reports are
//!      bit-identical at every worker count (a tested invariant).
//!    * `options.calibration` is normalized to its default — explicitly
//!      calibrated analyzers ignore it, and the *actual* calibration is
//!      already covered by the `calib=` part.
//!    * `options.mode` is never written — no request chooses a trace
//!      mode and the wire ignores the legacy field.
//!
//!    Everything else **is** part of the key: the kernel spec (including
//!    a custom kernel's full assembly, launch, params, and memory
//!    image), the resolved machine name, `options.fuel`,
//!    `options.verify`, and the what-if list (what-ifs are part of the
//!    report).
//!
//! Requests with observable side effects are never cached by the
//! [`Analyzer`](crate::Analyzer): `verify: true` runs must actually run
//! the oracle, and custom kernels with `readback` regions produce
//! reports whose size defeats the point of a byte-budgeted cache.
//! Failed requests are never cached either — errors are cheap to
//! recompute and must not mask a later fix (e.g. a machine registered
//! after the miss).
//!
//! # Storage
//!
//! In memory, entries live in 16 shards of `Mutex<HashMap>` so
//! concurrent server workers rarely contend on one lock; each shard is
//! LRU-bounded by an equal slice of [`ReportCacheConfig::max_bytes`].
//! Optionally, every stored report is also persisted to
//! [`ReportCacheConfig::disk_dir`] (the shared `results/` directory in
//! the CLIs) with the same atomic temp+rename protocol as the curve
//! cache, so `gpa-analyze` runs and a `gpa-serve` next door share
//! answers across processes; a disk entry that fails to read, parse, or
//! fingerprint-match is a miss, never a panic.
//!
//! Memory entries are shared `Arc<str>`s: a hit is a reference-count
//! bump under the shard lock. They hold only this process's own
//! [`AnalysisReport::to_json`] output, so a hit is served as its stored
//! bytes without decoding. The disk tier is where foreign bytes can
//! enter: a disk entry is decoded once, when it is promoted into memory,
//! and stored as the re-serialized report. One whose body is not a
//! report is a miss, and the caller's recompute overwrites it.

use crate::AnalysisReport;
use gpa_json::Value;
use gpa_telemetry::Counter;
use gpa_ubench::cache::{fnv1a, write_atomic, CACHE_GENERATION};
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a [`ReportCache`] is shaped. `Default` gives 64 MiB across 16
/// shards with no disk tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportCacheConfig {
    /// Total in-memory budget in bytes across all shards. Each shard is
    /// LRU-bounded by an equal slice; an entry larger than its shard's
    /// slice is evicted immediately (stored on disk only, if a disk
    /// tier is configured).
    pub max_bytes: usize,
    /// Directory for the persistent tier (`None` = memory only).
    /// Entries are `report-<hash>.json` files written atomically, safe
    /// to share between concurrent processes.
    pub disk_dir: Option<PathBuf>,
}

impl Default for ReportCacheConfig {
    fn default() -> ReportCacheConfig {
        ReportCacheConfig {
            max_bytes: 64 << 20,
            disk_dir: None,
        }
    }
}

/// Counters and occupancy of a [`ReportCache`]; served by
/// `GET /v1/stats` in `gpa-serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportCacheStats {
    /// Lookups answered from the cache (memory or disk).
    pub hits: u64,
    /// Lookups that found nothing (or a fingerprint mismatch).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries currently held in memory.
    pub entries: usize,
    /// Bytes currently held in memory (reports + fingerprints +
    /// bookkeeping).
    pub bytes: usize,
}

/// The content address of one report: the FNV-1a hash routes to a
/// shard/slot, the full fingerprint string disambiguates it. See the
/// [module docs](self) for what the fingerprint does and does not
/// contain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    fingerprint: String,
}

impl CacheKey {
    /// Assemble a key from its three fingerprint parts: a generation
    /// counter (bump ⇒ every prior key misses), the calibration
    /// identity hash, and the canonical request JSON. The
    /// [`Analyzer`](crate::Analyzer) always passes
    /// [`CACHE_GENERATION`]; the parameter exists so invalidation-by-
    /// bump is testable without editing a constant.
    pub fn from_parts(generation: u32, calibration: u64, canonical_request: &str) -> CacheKey {
        let fingerprint = format!("gen={generation}|calib={calibration:016x}|{canonical_request}");
        CacheKey {
            hash: fnv1a(fingerprint.as_bytes()),
            fingerprint,
        }
    }

    /// [`CacheKey::from_parts`] at the current [`CACHE_GENERATION`].
    pub fn new(calibration: u64, canonical_request: &str) -> CacheKey {
        CacheKey::from_parts(CACHE_GENERATION, calibration, canonical_request)
    }

    /// The disk-tier file name for this key.
    fn file_name(&self) -> String {
        format!("report-{:016x}.json", self.hash)
    }
}

/// One memoized report.
#[derive(Debug)]
struct Entry {
    fingerprint: String,
    report_json: Arc<str>,
    /// Logical timestamp of the last hit or insertion (LRU clock).
    last_used: u64,
}

/// Independent `Mutex<HashMap>` shards of the memory tier.
const SHARDS: usize = 16;

/// Nominal bookkeeping bytes charged per entry on top of its strings.
const ENTRY_OVERHEAD: usize = 64;

impl Entry {
    fn cost(&self) -> usize {
        self.fingerprint.len() + self.report_json.len() + ENTRY_OVERHEAD
    }
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    bytes: usize,
}

/// The sharded, byte-budgeted, optionally disk-backed report cache.
/// See the [module docs](self) for the key contract and storage layout.
///
/// All methods take `&self`; the cache is safe to share across server
/// workers behind an `Arc`.
#[derive(Debug)]
pub struct ReportCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    disk_dir: Option<PathBuf>,
    /// Logical LRU clock, bumped on every lookup/insert.
    clock: AtomicU64,
    // Telemetry handles rather than raw atomics: `Counter` clones share
    // the underlying value, so the serving layer can expose these same
    // counters on its /v1/metrics registry.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl ReportCache {
    /// An empty cache shaped by `config` (the disk directory is created
    /// lazily on first store).
    pub fn new(config: ReportCacheConfig) -> ReportCache {
        ReportCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: config.max_bytes / SHARDS,
            disk_dir: config.disk_dir,
            clock: AtomicU64::new(0),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.hash % SHARDS as u64) as usize]
    }

    /// Look up the serialized report for `key`, consulting memory first
    /// and then the disk tier (a disk hit is promoted into memory).
    /// Every outcome is counted.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.shard(key).lock().expect("report cache poisoned");
            if let Some(entry) = shard.map.get_mut(&key.hash) {
                // The fingerprint check turns a 64-bit hash collision
                // into a miss instead of a wrong answer.
                if entry.fingerprint == key.fingerprint {
                    entry.last_used = now;
                    self.hits.inc();
                    return Some(Arc::clone(&entry.report_json));
                }
            }
        }
        if let Some(json) = self.disk_load(key) {
            self.hits.inc();
            self.insert(key, Arc::clone(&json), now);
            return Some(json);
        }
        self.misses.inc();
        None
    }

    /// Store the serialized report for `key` in memory (evicting LRU
    /// entries past the shard budget) and, when configured, on disk.
    pub fn put(&self, key: &CacheKey, report_json: &str) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        self.insert(key, report_json.into(), now);
        self.disk_store(key, report_json);
    }

    fn insert(&self, key: &CacheKey, report_json: Arc<str>, now: u64) {
        let entry = Entry {
            fingerprint: key.fingerprint.clone(),
            report_json,
            last_used: now,
        };
        let mut shard = self.shard(key).lock().expect("report cache poisoned");
        let added = entry.cost();
        if let Some(old) = shard.map.insert(key.hash, entry) {
            shard.bytes -= old.cost();
        }
        shard.bytes += added;
        // Evict least-recently-used entries until the shard fits. The
        // scan is linear, but shards are small by construction; an
        // entry larger than the whole budget evicts itself (the disk
        // tier, if any, still holds it).
        while shard.bytes > self.shard_budget {
            let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let evicted = shard.map.remove(&victim).expect("victim is present");
            shard.bytes -= evicted.cost();
            self.evictions.inc();
        }
    }

    /// Read `key` from the disk tier. Any failure — missing file, torn
    /// write survivor, foreign JSON, fingerprint mismatch, a body that is
    /// not a report — is a miss. A healthy body comes back re-serialized,
    /// so memory only ever holds this process's own report JSON.
    fn disk_load(&self, key: &CacheKey) -> Option<Arc<str>> {
        let dir = self.disk_dir.as_ref()?;
        let text = fs::read_to_string(dir.join(key.file_name())).ok()?;
        let doc = Value::parse(&text).ok()?;
        let fingerprint = doc.get("fingerprint").ok()?.as_str().ok()?;
        if fingerprint != key.fingerprint {
            return None;
        }
        let report = AnalysisReport::from_json(doc.get("report").ok()?.as_str().ok()?).ok()?;
        Some(report.to_json().into())
    }

    /// Persist `key` atomically with [`gpa_ubench::cache::write_atomic`]
    /// (concurrent writers race benignly — identical content, last
    /// rename wins). Errors are swallowed: the report is already in
    /// hand, the disk tier is an optimization.
    fn disk_store(&self, key: &CacheKey, report_json: &str) {
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        let _ = fs::create_dir_all(dir);
        let wrapper = Value::Object(vec![
            ("fingerprint".into(), Value::from(key.fingerprint.as_str())),
            ("report".into(), Value::from(report_json)),
        ])
        .to_string_pretty();
        write_atomic(&dir.join(key.file_name()), wrapper.as_bytes());
    }

    /// Current counters and memory occupancy.
    pub fn stats(&self) -> ReportCacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let shard = shard.lock().expect("report cache poisoned");
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        ReportCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: &str) -> CacheKey {
        CacheKey::new(0xDEAD_BEEF, tag)
    }

    #[test]
    fn put_then_get_round_trips_and_counts() {
        let cache = ReportCache::new(ReportCacheConfig::default());
        let k = key("{\"req\": 1}");
        assert_eq!(cache.get(&k), None);
        cache.put(&k, "{\"report\": true}");
        assert_eq!(cache.get(&k).as_deref(), Some("{\"report\": true}"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn generation_bump_invalidates_every_key() {
        let cache = ReportCache::new(ReportCacheConfig::default());
        let old = CacheKey::from_parts(CACHE_GENERATION, 7, "{\"req\": 1}");
        let new = CacheKey::from_parts(CACHE_GENERATION + 1, 7, "{\"req\": 1}");
        cache.put(&old, "answer");
        // Same calibration, same request, newer generation: a miss —
        // and since the two fingerprints differ, even an (engineered)
        // hash collision could not serve the stale answer.
        assert_ne!(old.fingerprint, new.fingerprint);
        assert_eq!(cache.get(&new), None);
        assert_eq!(cache.get(&old).as_deref(), Some("answer"));
    }

    #[test]
    fn colliding_hashes_with_different_fingerprints_miss() {
        let cache = ReportCache::new(ReportCacheConfig::default());
        let a = key("request A");
        let mut b = key("request B");
        b.hash = a.hash; // forced 64-bit collision
        cache.put(&a, "answer A");
        assert_eq!(cache.get(&b), None, "collision must read as a miss");
        // Overwriting the slot with B's answer replaces, not corrupts.
        cache.put(&b, "answer B");
        assert_eq!(cache.get(&b).as_deref(), Some("answer B"));
        assert_eq!(cache.get(&a), None);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let payload = "x".repeat(200);
        // Every shard holds three entries; the keys below all land in
        // shard 0, whose LRU order the test then drives.
        let config = ReportCacheConfig {
            max_bytes: SHARDS * 3 * (payload.len() + ENTRY_OVERHEAD + 64),
            disk_dir: None,
        };
        let cache = ReportCache::new(config.clone());
        let in_shard_0 = |i: u64| CacheKey {
            hash: i * SHARDS as u64,
            ..key(&format!("req {i}"))
        };
        let keys: Vec<CacheKey> = (0..4).map(in_shard_0).collect();
        for k in &keys {
            cache.put(k, &payload);
        }
        // Touch key 1 so key 2 becomes the LRU victim of the next put.
        assert!(cache.get(&keys[1]).is_some());
        cache.put(&in_shard_0(4), &payload);
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.bytes <= config.max_bytes / SHARDS, "{stats:?}");
        assert_eq!(cache.get(&keys[0]), None, "oldest entry was evicted");
        assert!(cache.get(&keys[1]).is_some(), "recently used survives");
    }

    #[test]
    fn disk_tier_survives_a_process_restart() {
        let dir = std::env::temp_dir().join(format!("gpa-report-cache-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = ReportCacheConfig {
            disk_dir: Some(dir.clone()),
            ..ReportCacheConfig::default()
        };
        let k = key("{\"req\":\n \"with \\\"escapes\\\"\"}");
        let report = include_str!("../tests/golden/matmul_report.json");
        ReportCache::new(config.clone()).put(&k, report);
        // A fresh cache (a "new process") answers from disk and promotes
        // the entry into memory.
        let reborn = ReportCache::new(config.clone());
        assert_eq!(reborn.get(&k).as_deref(), Some(report));
        let stats = reborn.stats();
        assert_eq!((stats.hits, stats.entries), (1, 1));
        assert_eq!(reborn.get(&k).as_deref(), Some(report), "memory hit");
        // A torn or corrupted file reads as a miss, never a panic.
        let path = dir.join(k.file_name());
        fs::write(&path, "{\"fingerprint\": \"gen=").unwrap();
        let corrupt = ReportCache::new(config.clone());
        assert_eq!(corrupt.get(&k), None);
        // So does a matching fingerprint over a body that is not a report.
        ReportCache::new(config.clone()).put(&k, "{\n  \"answer\": 42\n}");
        let foreign = ReportCache::new(config);
        assert_eq!(foreign.get(&k), None);
        assert_eq!((foreign.stats().misses, foreign.stats().entries), (1, 0));
        // No temp files left behind by the atomic store protocol.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
