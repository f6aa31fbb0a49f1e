//! Acceptance: the service's answers are *identical* to the direct path
//! (`CaseStudy::run` over `run_study`) — same curves
//! in, same `Analysis` and timing out, bit for bit — at every worker
//! count. (`Analyzer::batch` against sequential `analyze` calls is a unit
//! test in `src/lib.rs`.)

use gpa_apps::{matmul, spmv, tridiag, zoo};
use gpa_core::Model;
use gpa_hw::Machine;
use gpa_service::{AnalysisRequest, Analyzer, KernelSpec, ServiceError};
use gpa_sim::engine::GRAIN;
use gpa_sim::{FunctionalSim, Threads};
use gpa_ubench::{MeasureOpts, ThroughputCurves};
use std::sync::OnceLock;

fn machine() -> &'static Machine {
    static M: OnceLock<Machine> = OnceLock::new();
    M.get_or_init(Machine::gtx285)
}

fn curves() -> &'static ThroughputCurves {
    static C: OnceLock<ThroughputCurves> = OnceLock::new();
    C.get_or_init(|| ThroughputCurves::measure_with(machine(), MeasureOpts::quick()))
}

fn analyzer() -> Analyzer {
    let mut a = Analyzer::new();
    a.install(machine().clone(), curves().clone()).unwrap();
    a
}

fn case_requests() -> Vec<AnalysisRequest> {
    vec![
        AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285"),
        AnalysisRequest::new(
            KernelSpec::Tridiag {
                n: 512,
                nsys: 4,
                padded: false,
            },
            "gtx285",
        ),
        AnalysisRequest::new(
            KernelSpec::Spmv {
                l: 4,
                seed: 42,
                format: spmv::Format::BellIm,
                texture: false,
            },
            "gtx285",
        ),
    ]
}

#[test]
fn batch_reports_match_the_driver_path_bitwise() {
    let analyzer = analyzer();
    let reports: Vec<_> = analyzer
        .analyze_batch(&case_requests())
        .into_iter()
        .map(|r| r.expect("case study analyzes"))
        .collect();

    // The driver path: per-app drivers over run_study, one shared model
    // built from the same measured curves.
    let mut model = Model::new(machine(), curves().clone());
    let direct = [
        matmul::case(64, 16).run(machine(), &mut model).unwrap(),
        tridiag::case(512, 4, false)
            .run(machine(), &mut model)
            .unwrap(),
        spmv::case(&spmv::qcd_like(4, 42), spmv::Format::BellIm, false)
            .run(machine(), &mut model)
            .unwrap(),
    ];

    for (report, case) in reports.iter().zip(&direct) {
        assert_eq!(report.analysis, case.analysis, "{}", report.kernel);
        assert_eq!(
            report.measured_seconds.to_bits(),
            case.timing.seconds.to_bits(),
            "{}: measured time diverges",
            report.kernel
        );
        assert_eq!(
            report.measured_cycles.to_bits(),
            case.timing.cycles.to_bits(),
            "{}: measured cycles diverge",
            report.kernel
        );
    }
}

#[test]
fn case_study_reports_are_bit_identical_for_every_thread_count() {
    // The three case studies end-to-end (functional pass, parallel
    // timing replay, model analysis): the worker-thread knob must never
    // leak into the answer. Texture-cached SpMV exercises the sharded
    // per-block cluster replay; matmul and tridiag ride the block-0 path.
    // The zoo kernels are loop-free and small, so `Auto` runs them on the
    // caller's thread while `Fixed(2)`/`Fixed(5)` shard them; histogram
    // replays per block.
    let analyzer = analyzer();
    let small_zoo = [
        ("saxpy", 16384),
        ("histogram", 16384),
        ("shared_transpose", 128),
    ];
    for (name, n) in small_zoo {
        let case = zoo::case(name, n, 1);
        let sim = FunctionalSim::new(machine(), &case.kernel, case.launch).unwrap();
        let work = sim.work_estimate().expect("zoo kernel is loop-free");
        assert!(work < GRAIN, "{name} n={n}: {work} warp instructions");
    }
    let zoo_requests = small_zoo.map(|(name, n)| {
        AnalysisRequest::new(
            KernelSpec::Named {
                name: name.to_owned(),
                n,
                seed: 1,
            },
            "gtx285",
        )
    });
    let textured = AnalysisRequest::new(
        KernelSpec::Spmv {
            l: 4,
            seed: 42,
            format: spmv::Format::BellIm,
            texture: true,
        },
        "gtx285",
    );
    for base in case_requests()
        .into_iter()
        .chain([textured])
        .chain(zoo_requests)
    {
        let mut reference = None;
        for threads in [
            Threads::Fixed(1),
            Threads::Fixed(2),
            Threads::Fixed(5),
            Threads::Auto,
        ] {
            let mut req = base.clone();
            req.options.threads = threads;
            let report = analyzer.analyze(&req).expect("case study analyzes");
            match &reference {
                None => reference = Some(report),
                Some(r) => {
                    assert_eq!(
                        report.measured_cycles.to_bits(),
                        r.measured_cycles.to_bits(),
                        "{}: cycles diverge at {threads:?}",
                        report.kernel
                    );
                    assert_eq!(&report, r, "{threads:?}");
                    assert_eq!(report.to_json(), r.to_json(), "{threads:?}");
                }
            }
        }
    }
}

#[test]
fn batch_surfaces_per_request_failures_in_order() {
    let analyzer = analyzer();
    let reqs = vec![
        AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285"),
        AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 7 }, "gtx285"),
        AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "titan"),
    ];
    let results = analyzer.analyze_batch(&reqs);
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(ServiceError::InvalidRequest(_))));
    assert!(matches!(results[2], Err(ServiceError::UnknownMachine(_))));
}

#[test]
fn verification_and_what_ifs_ride_along() {
    use gpa_service::{AnalysisOptions, WhatIfSpec};
    let analyzer = analyzer();
    let mut req = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285");
    req.options = AnalysisOptions {
        verify: true,
        what_ifs: vec![WhatIfSpec::MaxBlocks(16), WhatIfSpec::PerfectCoalescing],
        ..AnalysisOptions::default()
    };
    let report = analyzer.analyze(&req).unwrap();
    assert_eq!(report.verified, Some(true));
    assert_eq!(report.what_ifs.len(), 2);
    assert_eq!(report.what_ifs[0].name, "max-blocks");
    assert!(report.flops > 0);
    assert!(report.measured_gflops() > 0.0);
    let rendered = report.render();
    assert!(rendered.contains("bottleneck"), "{rendered}");
    assert!(rendered.contains("what-if"), "{rendered}");
}

/// A wire `threads` of 2^32 once truncated to zero block ranges and
/// panicked. An explicit count is now clamped to the host's cores, and
/// the answer is byte-identical to the request without `threads`. (The
/// grid has 16 blocks, so even an unclamped run spawns at most 16
/// threads.)
#[test]
fn a_huge_thread_count_answers_like_auto() {
    let analyzer = analyzer();
    let plain = r#"{"kernel": {"case": "matmul", "n": 64, "tile": 16}, "machine": "gtx285"}"#;
    let huge = r#"{"kernel": {"case": "matmul", "n": 64, "tile": 16}, "machine": "gtx285",
        "options": {"threads": 4294967296}}"#;
    let answer = |text: &str| {
        let req = AnalysisRequest::from_json(text).unwrap();
        analyzer.analyze(&req).unwrap().to_json()
    };
    let req = AnalysisRequest::from_json(huge).unwrap();
    assert_eq!(req.options.threads, Threads::Fixed(1 << 32));
    assert_eq!(answer(huge), answer(plain));
}
