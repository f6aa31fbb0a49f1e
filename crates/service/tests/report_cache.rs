//! Acceptance for the content-addressed report cache: hits are
//! **byte-identical** to the simulator's answers (property-tested over
//! random requests, single and batch), the canonical key ignores
//! exactly the fields the report provably does not depend on
//! (`threads`, `calibration`, the ignored legacy `mode`) and nothing else, recalibration
//! invalidates stale entries, verify/readback requests bypass the cache
//! entirely, and the disk tier shares answers across processes. Through
//! the wire front door, hits answer their stored bytes and batches
//! splice them byte-equal to the value-tree writer.

use gpa_apps::TraceMode;
use gpa_hw::Machine;
use gpa_json::Value;
use gpa_service::wire::{self, Answer};
use gpa_service::{
    AnalysisOptions, AnalysisRequest, Analyzer, Effort, KernelSpec, ReportCacheConfig, WhatIfSpec,
};
use gpa_sim::Threads;
use gpa_ubench::{MeasureOpts, ThroughputCurves};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Instant;

fn machine() -> &'static Machine {
    static M: OnceLock<Machine> = OnceLock::new();
    M.get_or_init(Machine::gtx285)
}

fn curves() -> &'static ThroughputCurves {
    static C: OnceLock<ThroughputCurves> = OnceLock::new();
    C.get_or_init(|| ThroughputCurves::measure_with(machine(), MeasureOpts::quick()))
}

/// An analyzer over the shared quick-effort curves, cache **off**: the
/// byte-identity oracle every cached answer is compared against.
fn fresh_analyzer() -> Analyzer {
    let mut a = Analyzer::new();
    a.install(machine().clone(), curves().clone()).unwrap();
    a
}

/// The same analyzer with an in-memory report cache enabled.
fn cached_analyzer() -> Analyzer {
    let mut a = fresh_analyzer();
    a.enable_report_cache(ReportCacheConfig::default());
    a
}

fn matmul(n: u32, tile: u32) -> AnalysisRequest {
    AnalysisRequest::new(KernelSpec::Matmul { n, tile }, "gtx285")
}

/// A private scratch directory for disk-tier tests.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("gpa-report-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn repeated_requests_hit_and_answers_are_byte_identical() {
    let analyzer = cached_analyzer();
    let req = matmul(64, 16);

    let first = analyzer.analyze(&req).expect("miss analyzes").to_json();
    let second = analyzer.analyze(&req).expect("hit answers").to_json();
    assert_eq!(first, second, "hit must reproduce the miss byte-for-byte");

    // And both match an analyzer that never had a cache.
    let oracle = fresh_analyzer().analyze(&req).unwrap().to_json();
    assert_eq!(first, oracle);

    let stats = analyzer.report_cache_stats().expect("cache enabled");
    assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
    assert_eq!(stats.entries, 1);
    assert!(stats.bytes > 0);
}

#[test]
fn threads_calibration_and_mode_normalize_into_one_entry() {
    let analyzer = cached_analyzer();
    let base = matmul(64, 16);
    let baseline = analyzer.analyze(&base).unwrap().to_json();

    // Reports are bit-identical at any worker count, an explicitly
    // calibrated analyzer ignores the on-demand calibration effort, and
    // the kernel (not the request) picks the trace mode — so none of
    // these fields may fragment the key.
    for options in [
        AnalysisOptions {
            threads: Threads::Fixed(2),
            ..AnalysisOptions::default()
        },
        AnalysisOptions {
            threads: Threads::Fixed(7),
            calibration: Effort::Paper,
            ..AnalysisOptions::default()
        },
        AnalysisOptions {
            mode: Some(TraceMode::Auto),
            ..AnalysisOptions::default()
        },
    ] {
        let req = base.clone().with_options(options);
        assert_eq!(analyzer.analyze(&req).unwrap().to_json(), baseline);
    }

    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (3, 1), "{stats:?}");
    assert_eq!(stats.entries, 1, "normalized variants share one entry");
}

#[test]
fn every_other_request_field_is_part_of_the_key() {
    let mut analyzer = cached_analyzer();
    analyzer
        .install(Machine::geforce_8800gt(), {
            let m = Machine::geforce_8800gt();
            ThroughputCurves::measure_with(&m, MeasureOpts::quick())
        })
        .unwrap();

    let variants = [
        matmul(64, 16),
        matmul(64, 32),  // different kernel
        matmul(128, 16), // different problem size
        AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "8800gt"),
        matmul(64, 16).with_options(AnalysisOptions {
            fuel: Some(1 << 40),
            ..AnalysisOptions::default()
        }),
        matmul(64, 16).with_options(AnalysisOptions {
            what_ifs: vec![WhatIfSpec::PerfectCoalescing],
            ..AnalysisOptions::default()
        }),
    ];
    for req in &variants {
        analyzer.analyze(req).expect("variant analyzes");
    }

    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert_eq!(stats.misses, variants.len() as u64);
    assert_eq!(stats.entries, variants.len());
}

#[test]
fn recalibration_invalidates_stale_answers() {
    let mut analyzer = cached_analyzer();
    let req = matmul(64, 16);
    let stale = analyzer.analyze(&req).unwrap().to_json();

    // Recalibrate the same machine with visibly different curves: every
    // instruction class twice as fast.
    let mut faster = curves().clone();
    for series in faster.instr.iter_mut() {
        for v in series.iter_mut() {
            *v *= 2.0;
        }
    }
    analyzer.install(machine().clone(), faster.clone()).unwrap();

    let recalibrated = analyzer.analyze(&req).unwrap().to_json();
    assert_ne!(
        recalibrated, stale,
        "doubled throughput must change the report"
    );

    // The answer matches a never-cached analyzer over the same curves —
    // i.e. the old entry was not served.
    let mut oracle = Analyzer::new();
    oracle.install(machine().clone(), faster).unwrap();
    assert_eq!(recalibrated, oracle.analyze(&req).unwrap().to_json());

    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (0, 2), "{stats:?}");
}

#[test]
fn verify_requests_bypass_the_cache() {
    let analyzer = cached_analyzer();
    let req = matmul(64, 16).with_options(AnalysisOptions {
        verify: true,
        ..AnalysisOptions::default()
    });
    for _ in 0..2 {
        let report = analyzer.analyze(&req).unwrap();
        assert_eq!(report.verified, Some(true));
    }
    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
}

#[test]
fn readback_kernels_bypass_the_cache() {
    let sample =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data/sample_custom_kernel.json");
    let text = std::fs::read_to_string(sample).expect("checked-in custom sample");
    let req = AnalysisRequest::from_json(&text).expect("sample parses");

    let analyzer = cached_analyzer();
    let first = analyzer.analyze(&req).unwrap();
    assert!(
        !first.outputs.is_empty(),
        "sample must exercise the readback path"
    );
    let second = analyzer.analyze(&req).unwrap();
    assert_eq!(first.to_json(), second.to_json());

    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
}

#[test]
fn disk_tier_shares_answers_across_analyzers() {
    let dir = TempDir::new("share");
    let config = || ReportCacheConfig {
        disk_dir: Some(dir.0.clone()),
        ..ReportCacheConfig::default()
    };
    let req = matmul(64, 16);

    let mut writer = fresh_analyzer();
    writer.enable_report_cache(config());
    let written = writer.analyze(&req).unwrap().to_json();

    // A second analyzer — a stand-in for a restarted process — finds
    // the report on disk without ever simulating.
    let mut reader = fresh_analyzer();
    reader.enable_report_cache(config());
    let read = reader.analyze(&req).unwrap().to_json();
    assert_eq!(read, written);

    let stats = reader.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 0), "{stats:?}");
}

/// Named zoo workloads are cacheable like any other spec: repeats hit
/// with byte-identical answers, and the key covers the name AND the
/// scale knobs — same name at a different `n` or `seed` must miss, and
/// a named request never collides with its custom twin (different
/// canonical encodings, even though their reports are byte-identical).
#[test]
fn named_workloads_cache_by_name_and_knobs() {
    let analyzer = cached_analyzer();
    let named = |name: &str, n: u32, seed: u32| {
        AnalysisRequest::new(
            KernelSpec::Named {
                name: name.to_owned(),
                n,
                seed,
            },
            "gtx285",
        )
    };

    let first = analyzer
        .analyze(&named("histogram", 1024, 1))
        .unwrap()
        .to_json();
    let hit = analyzer
        .analyze(&named("histogram", 1024, 1))
        .unwrap()
        .to_json();
    assert_eq!(first, hit, "hit must reproduce the miss byte-for-byte");
    assert_eq!(
        first,
        fresh_analyzer()
            .analyze(&named("histogram", 1024, 1))
            .unwrap()
            .to_json()
    );
    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");

    for variant in [
        named("histogram", 2048, 1), // different n
        named("histogram", 1024, 2), // different seed
        named("saxpy", 1024, 1),     // different workload
    ] {
        analyzer.analyze(&variant).unwrap();
    }
    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 4), "{stats:?}");
    assert_eq!(stats.entries, 4);
}

#[test]
fn hits_skip_the_simulator() {
    // A lenient in-process floor under the Criterion bench's ≥100×
    // claim: a problem size big enough that simulation visibly costs
    // something, and a 10× margin so debug builds and noisy CI pass.
    let analyzer = cached_analyzer();
    let req = matmul(256, 16);

    let start = Instant::now();
    let missed = analyzer.analyze(&req).unwrap().to_json();
    let miss_time = start.elapsed();

    let start = Instant::now();
    let hit = analyzer.analyze(&req).unwrap().to_json();
    let hit_time = start.elapsed();

    assert_eq!(missed, hit);
    assert_eq!(analyzer.report_cache_stats().unwrap().hits, 1);
    assert!(
        hit_time * 10 < miss_time,
        "hit ({hit_time:?}) not clearly faster than miss ({miss_time:?})"
    );
}

/// Valid matmul shapes and option mixes for the property below. `n` is
/// kept at 64 so the 64-case run stays fast; tile and options span the
/// full cacheable space.
fn any_request() -> impl Strategy<Value = AnalysisRequest> {
    let tile = prop_oneof![Just(8u32), Just(16), Just(32)];
    let mode = proptest::option::of(Just(TraceMode::Auto));
    let threads = prop_oneof![Just(Threads::Auto), (1usize..4).prop_map(Threads::Fixed)];
    let what_ifs = proptest::collection::vec(
        prop_oneof![
            Just(WhatIfSpec::NoBankConflicts),
            Just(WhatIfSpec::PerfectCoalescing),
            Just(WhatIfSpec::Granularity16),
        ],
        0..3,
    );
    let fuel = proptest::option::of(Just(1u64 << 40));
    (tile, mode, threads, what_ifs, fuel).prop_map(|(tile, mode, threads, what_ifs, fuel)| {
        matmul(64, tile).with_options(AnalysisOptions {
            mode,
            threads,
            fuel,
            what_ifs,
            ..AnalysisOptions::default()
        })
    })
}

proptest! {
    /// The cache is invisible: for any request, a cached analyzer's
    /// first and second answers and a never-cached analyzer's answer
    /// are all byte-identical — singly and through `analyze_batch`
    /// with duplicates in the same batch.
    #[test]
    fn cached_answers_are_byte_identical_to_fresh_ones(req in any_request()) {
        static CACHED: OnceLock<Analyzer> = OnceLock::new();
        let cached = CACHED.get_or_init(cached_analyzer);
        let fresh = fresh_analyzer();

        let oracle = fresh.analyze(&req).unwrap().to_json();
        let miss_or_hit = cached.analyze(&req).unwrap().to_json();
        let hit = cached.analyze(&req).unwrap().to_json();
        prop_assert_eq!(&miss_or_hit, &oracle);
        prop_assert_eq!(&hit, &oracle);

        // Batch with the same request twice: both elements answered,
        // both byte-identical to the oracle.
        let batch = cached.analyze_batch(&[req.clone(), req.clone()]);
        for answer in batch {
            prop_assert_eq!(answer.unwrap().to_json(), oracle.clone());
        }
    }
}

/// Admit every request of a document, as `gpa-serve` does at full effort.
fn answer_with(analyzer: &Analyzer, text: &str) -> Answer {
    wire::answer(text, |reqs| {
        (analyzer, reqs.iter().map(|_| Ok(())).collect())
    })
}

#[test]
fn wire_hits_answer_the_stored_bytes_of_a_fresh_report() {
    let analyzer = cached_analyzer();
    let req = matmul(64, 16);
    let oracle = fresh_analyzer().analyze(&req).unwrap().to_json();
    let text = req.to_json();
    assert_eq!(
        answer_with(&analyzer, &text),
        Answer::Report(oracle.clone())
    );
    assert_eq!(answer_with(&analyzer, &text), Answer::Report(oracle));
    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
}

#[test]
fn spliced_batches_equal_the_value_writer() {
    let analyzer = cached_analyzer();
    let fresh = fresh_analyzer();
    // The value-tree rendering every batch answer used to be built with.
    let oracle = |reqs: &[AnalysisRequest]| {
        let items = fresh
            .analyze_batch(reqs)
            .into_iter()
            .map(|answer| match answer {
                Ok(report) => report.to_value(),
                Err(e) => {
                    Value::Object(vec![("error".into(), Value::from(e.to_string().as_str()))])
                }
            })
            .collect();
        Value::Array(items).to_string_pretty()
    };
    let document = |reqs: &[AnalysisRequest]| {
        let items: Vec<String> = reqs.iter().map(AnalysisRequest::to_json).collect();
        format!("[{}]", items.join(","))
    };
    analyzer.analyze(&matmul(64, 16)).unwrap(); // a hit below
    let unknown = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "titan");
    let batches = [
        vec![],
        vec![matmul(64, 16)],
        vec![matmul(64, 8)],
        vec![unknown.clone()],
        vec![matmul(64, 16), unknown, matmul(64, 32), matmul(64, 7)],
    ];
    for reqs in &batches {
        let failed = reqs.iter().any(|r| fresh.analyze(r).is_err());
        assert_eq!(
            answer_with(&analyzer, &document(reqs)),
            Answer::Batch {
                json: oracle(reqs),
                failed
            },
            "{} requests",
            reqs.len()
        );
    }
    let stats = analyzer.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (2, 4), "{stats:?}");
}

#[test]
fn a_disk_entry_that_is_not_a_report_is_recomputed_and_overwritten() {
    let dir = TempDir::new("foreign");
    let config = || ReportCacheConfig {
        disk_dir: Some(dir.0.clone()),
        ..ReportCacheConfig::default()
    };
    let req = matmul(64, 16);
    let oracle = fresh_analyzer().analyze(&req).unwrap().to_json();

    let mut writer = fresh_analyzer();
    writer.enable_report_cache(config());
    writer.analyze(&req).unwrap();
    let files: Vec<_> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    // Keep the entry's fingerprint, replace its body with valid JSON
    // that is not a report.
    let entry = |path: &std::path::Path| {
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Value::parse(&text).unwrap();
        let fingerprint = doc.get("fingerprint").unwrap().as_str().unwrap().to_owned();
        (
            fingerprint,
            doc.get("report").unwrap().as_str().unwrap().to_owned(),
        )
    };
    let (fingerprint, report) = entry(&files[0]);
    assert_eq!(report, oracle);
    let foreign = Value::Object(vec![
        ("fingerprint".into(), Value::from(fingerprint.as_str())),
        ("report".into(), Value::from("{\"answer\": 42}")),
    ]);
    std::fs::write(&files[0], foreign.to_string_pretty()).unwrap();

    let mut reader = fresh_analyzer();
    reader.enable_report_cache(config());
    assert_eq!(
        answer_with(&reader, &req.to_json()),
        Answer::Report(oracle.clone())
    );
    let stats = reader.report_cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
    assert_eq!(entry(&files[0]), (fingerprint, oracle), "overwritten");
}
