//! Integration: the paper's headline accuracy claim — the model predicts
//! the three case studies "with a 5–15% error". Our synthetic machine
//! reproduces the bottleneck identities exactly and the accuracy within a
//! wider but same-shape band. The `table3` exhibit (`gpa-bench`) prints
//! the per-SKU errors; ROADMAP.md open item 1 tracks the band.

use gpa::apps::{matmul, spmv, tridiag};
use gpa::hw::Machine;
use gpa::model::{Component, Model};
use gpa::ubench::{MeasureOpts, ThroughputCurves};
use std::sync::OnceLock;

fn machine() -> &'static Machine {
    static M: OnceLock<Machine> = OnceLock::new();
    M.get_or_init(Machine::gtx285)
}

fn model() -> Model<'static> {
    static C: OnceLock<ThroughputCurves> = OnceLock::new();
    let c = C.get_or_init(|| ThroughputCurves::measure_with(machine(), MeasureOpts::quick()));
    Model::new(machine(), c.clone())
}

#[test]
fn bottleneck_identities_match_the_paper() {
    let mut m = model();
    // §5.1: 16×16 matmul is instruction-bound. (n = 512 is the smallest
    // grid that fills every SM to the paper's 16-warp occupancy.)
    let mm = matmul::case(512, 16).run(machine(), &mut m).unwrap();
    assert_eq!(mm.analysis.bottleneck, Component::InstructionPipeline);
    // §5.2: CR is shared-memory-bound; CR-NBC is instruction-bound.
    let cr = tridiag::case(512, 30, false)
        .run(machine(), &mut m)
        .unwrap();
    assert_eq!(cr.analysis.bottleneck, Component::SharedMemory);
    let nbc = tridiag::case(512, 30, true).run(machine(), &mut m).unwrap();
    assert_eq!(nbc.analysis.bottleneck, Component::InstructionPipeline);
    // §5.3: every SpMV format is global-memory-bound.
    let qcd = spmv::qcd_like(8, 3);
    for format in spmv::Format::ALL {
        let r = spmv::case(&qcd, format, false)
            .run(machine(), &mut m)
            .unwrap();
        assert_eq!(
            r.analysis.bottleneck,
            Component::GlobalMemory,
            "{}",
            format.name()
        );
    }
}

#[test]
fn error_bands_hold_across_case_studies() {
    let mut m = model();
    let mut worst: f64 = 0.0;
    let mm = matmul::case(256, 16).run(machine(), &mut m).unwrap();
    worst = worst.max(mm.model_error().abs());
    let cr = tridiag::case(512, 30, false)
        .run(machine(), &mut m)
        .unwrap();
    worst = worst.max(cr.model_error().abs());
    let qcd = spmv::qcd_like(8, 3);
    let sp = spmv::case(&qcd, spmv::Format::BellIm, false)
        .run(machine(), &mut m)
        .unwrap();
    worst = worst.max(sp.model_error().abs());
    assert!(
        worst < 0.35,
        "worst model error across the paper's three case studies: {:.0}%",
        worst * 100.0
    );
}

#[test]
fn optimization_payoffs_match_the_paper_direction() {
    let mut m = model();
    // §5.2: padding wins ~1.6×.
    let cr = tridiag::case(512, 30, false)
        .run(machine(), &mut m)
        .unwrap();
    let nbc = tridiag::case(512, 30, true).run(machine(), &mut m).unwrap();
    let speedup = cr.measured_seconds() / nbc.measured_seconds();
    assert!(speedup > 1.25, "padding speedup ×{speedup:.2}");
    // §5.3: vector interleaving wins.
    let qcd = spmv::qcd_like(8, 3);
    let im = spmv::case(&qcd, spmv::Format::BellIm, false)
        .run(machine(), &mut m)
        .unwrap();
    let iv = spmv::case(&qcd, spmv::Format::BellImIv, false)
        .run(machine(), &mut m)
        .unwrap();
    assert!(iv.measured_seconds() < im.measured_seconds());
}
