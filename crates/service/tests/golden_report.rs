//! Golden-file tests: the wire representations of one fixed matmul
//! report and one fixed custom-kernel report are stable byte for byte
//! (quick-effort calibration and the simulators are fully
//! deterministic, so any drift here is a real wire or model change).
//! Regenerate with `GPA_BLESS=1 cargo test -p gpa-service
//! --test golden_report`.

use gpa_hw::Machine;
use gpa_service::{AnalysisOptions, AnalysisRequest, Analyzer, KernelSpec, WhatIfSpec};
use gpa_sim::Threads;
use gpa_ubench::MeasureOpts;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/matmul_report.json")
}

fn custom_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/custom_report.json")
}

fn sample_custom_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/sample_custom_kernel.json")
}

fn golden_request() -> AnalysisRequest {
    AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285").with_options(
        AnalysisOptions {
            threads: Threads::sequential(),
            verify: true,
            what_ifs: vec![WhatIfSpec::MaxBlocks(16)],
            ..AnalysisOptions::default()
        },
    )
}

#[test]
fn matmul_report_matches_golden_file() {
    let mut analyzer = Analyzer::new();
    analyzer.calibrate(Machine::gtx285(), MeasureOpts::quick());
    let report = analyzer.analyze(&golden_request()).unwrap();
    let json = report.to_json();

    let path = golden_path();
    if std::env::var_os("GPA_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with GPA_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        json,
        golden,
        "report drifted from {}; if intended, regenerate with GPA_BLESS=1",
        path.display()
    );

    // And the golden file itself parses back to the same report.
    let parsed = gpa_service::AnalysisReport::from_json(&golden).unwrap();
    assert_eq!(parsed, report);
}

/// The checked-in custom-kernel sample (the saxpy CI smokes) against its
/// golden report: pins the portable kernel encoding end to end —
/// assembly parsing, the deterministic memory-image initializers, the
/// dynamic flop count, and the readback block.
#[test]
fn custom_report_matches_golden_file() {
    let request_json =
        std::fs::read_to_string(sample_custom_path()).expect("sample_custom_kernel.json");
    let mut request = AnalysisRequest::from_json(&request_json).expect("sample parses");
    assert!(
        matches!(request.kernel, KernelSpec::Custom(_)),
        "sample must exercise the custom encoding"
    );
    request.options.threads = Threads::sequential();

    let mut analyzer = Analyzer::new();
    analyzer.calibrate(Machine::gtx285(), MeasureOpts::quick());
    let report = analyzer.analyze(&request).unwrap();
    assert!(report.flops > 0, "custom kernels report honest flops");
    assert!(!report.outputs.is_empty(), "sample requests readback");
    let json = report.to_json();

    let path = custom_golden_path();
    if std::env::var_os("GPA_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with GPA_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        json,
        golden,
        "report drifted from {}; if intended, regenerate with GPA_BLESS=1",
        path.display()
    );

    let parsed = gpa_service::AnalysisReport::from_json(&golden).unwrap();
    assert_eq!(parsed, report);
}

/// Every golden under `tests/golden/`, recursively, sorted by path.
fn all_goldens() -> Vec<(PathBuf, String)> {
    let mut dirs = vec![PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")];
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                found.push((path, text));
            }
        }
    }
    found.sort();
    found
}

/// The JSON writer is pinned byte for byte against every golden: a
/// parse → write cycle, as a generic tree and as a typed report,
/// reproduces each file exactly, and splicing the files into one array
/// equals writing that array as a tree.
#[test]
fn every_golden_rewrites_byte_identically() {
    let goldens = all_goldens();
    assert!(goldens.len() >= 14, "found only {} goldens", goldens.len());
    let mut trees = Vec::new();
    for (path, text) in &goldens {
        let tree = gpa_json::Value::parse(text).unwrap();
        assert_eq!(&tree.to_string_pretty(), text, "{}", path.display());
        let report = gpa_service::AnalysisReport::from_json(text).unwrap();
        assert_eq!(&report.to_json(), text, "{}", path.display());
        trees.push(tree);
    }
    assert_eq!(
        gpa_json::pretty_array(goldens.iter().map(|(_, text)| text.as_str())),
        gpa_json::Value::Array(trees).to_string_pretty()
    );
}
