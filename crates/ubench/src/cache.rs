//! Shared on-disk cache for measured [`ThroughputCurves`].
//!
//! Calibration is the expensive step of the paper's workflow, and several
//! processes want to amortize it against the same `results/` directory:
//! the `gpa-bench` exhibit binaries, the `gpa-analyze` CLI, and the
//! `gpa-serve` HTTP front end. This module is the one implementation they
//! share. Entries are keyed by a content hash of the full [`Machine`]
//! description plus the effort knobs of [`MeasureOpts`], so per-SKU and
//! per-effort curves never collide; the `threads` selection is excluded
//! because it changes wall-clock, not results.
//!
//! Writes are **atomic**: the JSON is staged to a process-unique temp
//! file in the same directory and `rename`d into place, so a reader
//! never observes a torn entry even while another process is writing the
//! same key. A cache entry that fails to read, parse, or validate is
//! treated as absent (falling back to recalibration), never a panic —
//! concurrent `gpa-serve` / `gpa-analyze` processes can share one
//! directory safely.

use crate::{MeasureOpts, ThroughputCurves};
use gpa_hw::Machine;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The workspace-relative default cache directory (`results/` at the
/// repository root) shared by the bench harness, the CLI, and the
/// server. Created on first use by [`load_or_measure`].
pub fn default_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// 64-bit FNV-1a (dependency-free stable content hash). Public so
/// other caches keyed the same way — notably the report cache in
/// `gpa-service` — hash with the identical function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Generation counter folded into every cache key. Bump it whenever a
/// measurement-code change alters the curves a given `(machine, opts)`
/// produces: processes built after the bump then see old entries as
/// misses and recalibrate, instead of silently serving stale curves
/// measured by an older binary.
// Generation 4: the atomic-unit component changed report content (new
// `atomic` time, contention factor, causes), so reports memoized by
// older binaries must not be served.
pub const CACHE_GENERATION: u32 = 4;

/// Content-hashed cache file for one `(machine, effort)` combination:
/// `<dir>/curves-<name-slug>-<hash>.json`.
///
/// The hash covers [`CACHE_GENERATION`], every [`Machine`] field (via
/// its `Debug` rendering — a complete fingerprint with no hand-listed,
/// silently missing fields), and the effort knobs of [`MeasureOpts`]
/// (`unroll`, `iters`, `dense`).
pub fn cache_path(dir: &Path, machine: &Machine, opts: &MeasureOpts) -> PathBuf {
    let fingerprint = format!(
        "gen={CACHE_GENERATION}|{machine:?}|unroll={} iters={} dense={}",
        opts.unroll, opts.iters, opts.dense
    );
    let slug: String = machine
        .name
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    dir.join(format!(
        "curves-{slug}-{:016x}.json",
        fnv1a(fingerprint.as_bytes())
    ))
}

/// Load the cached curves at `path` if they exist, parse, and were
/// measured on `machine`. Any failure reads as a miss.
fn load(path: &Path, machine: &Machine) -> Option<ThroughputCurves> {
    let text = fs::read_to_string(path).ok()?;
    let curves = ThroughputCurves::from_json(&text).ok()?;
    (curves.machine_name == machine.name).then_some(curves)
}

/// Write `bytes` to `path` atomically: stage them in a process-unique
/// temp file in the target directory, then `rename` over `path` (atomic
/// on POSIX — concurrent writers race benignly, last rename wins, and no
/// reader ever sees a partial file). Errors are swallowed: every caller
/// is a cache whose value is already in hand. The report cache in
/// `gpa-service` persists its disk tier through this too.
pub fn write_atomic(path: &Path, bytes: &[u8]) {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return;
    };
    let temp = path.with_file_name(format!(
        "{name}.tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if fs::write(&temp, bytes).is_ok() && fs::rename(&temp, path).is_err() {
        let _ = fs::remove_file(&temp);
    }
}

/// Persist `curves` at `path` with [`write_atomic`].
fn store(path: &Path, curves: &ThroughputCurves) {
    // A non-finite measurement is not representable: skip caching.
    if let Ok(json) = curves.to_json() {
        write_atomic(path, json.as_bytes());
    }
}

/// Load the curves for `(machine, opts)` from the cache under `dir`,
/// measuring and caching them on a miss (including a torn or stale
/// entry, which falls back to recalibration rather than panicking).
///
/// The measurement honors `opts.threads`; sample points are independent,
/// so the curves — and the cache key — are identical at any thread count.
pub fn load_or_measure(dir: &Path, machine: &Machine, opts: MeasureOpts) -> ThroughputCurves {
    let _ = fs::create_dir_all(dir);
    let path = cache_path(dir, machine, &opts);
    if let Some(curves) = load(&path, machine) {
        return curves;
    }
    eprintln!(
        "measuring throughput curves (cached at {})...",
        path.display()
    );
    let curves = ThroughputCurves::measure_with(machine, opts);
    store(&path, &curves);
    curves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gpa-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn miss_measures_then_hit_loads_identical_curves() {
        let dir = temp_dir("roundtrip");
        let machine = Machine::gtx285();
        let opts = MeasureOpts::quick();
        let fresh = load_or_measure(&dir, &machine, opts);
        assert!(cache_path(&dir, &machine, &opts).is_file());
        let cached = load_or_measure(&dir, &machine, opts);
        // JSON round-trips are bit-exact, so a cache hit is
        // indistinguishable from a fresh measurement.
        assert_eq!(fresh, cached);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_foreign_entries_fall_back_to_recalibration() {
        let dir = temp_dir("torn");
        let machine = Machine::gtx285();
        let opts = MeasureOpts::quick();
        let path = cache_path(&dir, &machine, &opts);
        // A torn write: truncated JSON must read as a miss, not a panic.
        fs::write(&path, "{\"machine_name\": \"GeForce GT").unwrap();
        let curves = load_or_measure(&dir, &machine, opts);
        assert_eq!(curves.machine_name, machine.name);
        // ...and the recovery rewrote the entry in place.
        let healed = load(&path, &machine).expect("entry healed");
        assert_eq!(healed, curves);
        // An entry measured on a different machine also reads as a miss.
        let mut renamed = curves.clone();
        renamed.machine_name = "Some Other GPU".into();
        store(&path, &renamed);
        assert!(load(&path, &machine).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_leaves_no_temp_files_behind() {
        let dir = temp_dir("tempfiles");
        let machine = Machine::gtx285();
        let opts = MeasureOpts::quick();
        let _ = load_or_measure(&dir, &machine, opts);
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
