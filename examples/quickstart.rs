//! Quickstart: the full paper workflow on a small custom kernel, served
//! through the `Analyzer` session API.
//!
//! Builds a native-ISA kernel with `KernelBuilder`, calibrates an
//! `Analyzer` for the GTX 285 once, and submits the kernel in its portable
//! encoding (`KernelSpec::Custom`: assembly text, launch, parameters, and
//! a declarative memory image): the service runs the functional simulator
//! (the Barra substitute), extracts dynamic statistics, "measures" on the
//! timing simulator, runs the performance model, and returns the typed
//! bottleneck report — with what-if advisor estimates and the output
//! region's contents riding along.
//!
//! Run with: `cargo run --release --example quickstart`

use gpa::hw::Machine;
use gpa::isa::asm::kernel_to_asm;
use gpa::isa::builder::KernelBuilder;
use gpa::isa::instr::{CmpOp, MemAddr, NumTy, Pred, SpecialReg, Src, Width};
use gpa::service::{
    AnalysisOptions, AnalysisRequest, Analyzer, CustomKernel, KernelSpec, MemInit, MemRegionSpec,
    ParamValue, WhatIfSpec,
};
use gpa::sim::LaunchConfig;
use gpa::ubench::MeasureOpts;

fn main() {
    let machine = Machine::gtx285();
    println!("machine: {machine}");

    // ---- 1. Write a kernel: y[i] = a·x[i] + y[i], grid-strided ----
    let mut b = KernelBuilder::new("saxpy");
    b.set_threads(256);
    let x_p = b.param_alloc();
    let y_p = b.param_alloc();
    let n_p = b.param_alloc();
    let i = b.alloc_reg().unwrap();
    let tmp = b.alloc_reg().unwrap();
    let a = b.alloc_reg().unwrap();
    b.mov_imm_f32(a, 2.0);
    // i = ctaid.x · ntid.x + tid.x
    b.s2r(i, SpecialReg::CtaIdX);
    b.s2r(tmp, SpecialReg::NTidX);
    b.imul(i, Src::Reg(i), Src::Reg(tmp));
    let tid = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.iadd(i, Src::Reg(i), Src::Reg(tid));
    let n = b.alloc_reg().unwrap();
    b.ld_param(n, n_p);
    let xa = b.alloc_reg().unwrap();
    let ya = b.alloc_reg().unwrap();
    let xv = b.alloc_reg().unwrap();
    let yv = b.alloc_reg().unwrap();
    b.label("loop");
    b.shl(xa, Src::Reg(i), Src::Imm(2));
    b.ld_param(tmp, x_p);
    b.iadd(xa, Src::Reg(xa), Src::Reg(tmp));
    b.ld_global(xv, MemAddr::new(Some(xa), 0), Width::B32);
    b.shl(ya, Src::Reg(i), Src::Imm(2));
    b.ld_param(tmp, y_p);
    b.iadd(ya, Src::Reg(ya), Src::Reg(tmp));
    b.ld_global(yv, MemAddr::new(Some(ya), 0), Width::B32);
    b.fmad(yv, Src::Reg(a), Src::Reg(xv), Src::Reg(yv));
    b.st_global(MemAddr::new(Some(ya), 0), yv, Width::B32);
    // i += gridDim·blockDim; loop while i < n
    b.s2r(tmp, SpecialReg::NCtaIdX);
    let bsz = b.alloc_reg().unwrap();
    b.s2r(bsz, SpecialReg::NTidX);
    b.imad(i, Src::Reg(tmp), Src::Reg(bsz), Src::Reg(i));
    b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(i), Src::Reg(n));
    b.bra_if(Pred(0), false, "loop");
    b.exit();
    let kernel = b.finish().expect("kernel builds");
    println!("kernel: {kernel}");

    // ---- 2. Describe device memory: x[k] = k/1000, y = 1.0, y read back ----
    let elems: u32 = 1 << 18;
    let x: Vec<f32> = (0..elems).map(|k| k as f32 / 1000.0).collect();
    let region = |name: &str, init: MemInit, readback: bool| MemRegionSpec {
        name: name.into(),
        len: 4 * u64::from(elems),
        init,
        texture: false,
        readback,
    };
    let custom = CustomKernel {
        asm: kernel_to_asm(&kernel),
        launch: LaunchConfig::new_1d(60, 256),
        params: vec![
            ParamValue::RegionBase("x".into()),
            ParamValue::RegionBase("y".into()),
            ParamValue::Word(elems),
        ],
        memory: vec![
            region(
                "x",
                MemInit::Words(x.iter().map(|v| v.to_bits()).collect()),
                false,
            ),
            region("y", MemInit::Fill(1.0f32.to_bits()), true),
        ],
    };

    // ---- 3. Calibrate the Analyzer once (the expensive step) ----
    let mut analyzer = Analyzer::new();
    analyzer.calibrate(machine, MeasureOpts::quick());

    // ---- 4. Submit the kernel: simulate, measure, model, report ----
    let request = AnalysisRequest::new(KernelSpec::Custom(Box::new(custom)), "gtx285")
        .with_options(AnalysisOptions {
            what_ifs: vec![
                WhatIfSpec::PerfectCoalescing,
                WhatIfSpec::Granularity4,
                WhatIfSpec::MaxBlocks(16),
            ],
            ..AnalysisOptions::default()
        });
    let report = analyzer.analyze(&request).expect("saxpy analyzes");

    // Sanity: the read-back y region holds the result (y[5] = 2·0.005 + 1).
    let y5 = f32::from_bits(report.outputs[0].words[5]);
    assert!((y5 - (2.0 * x[5] + 1.0)).abs() < 1e-6);
    println!("functional result verified (y[5] = {y5})");

    println!("\n{}", report.render());
    let yt = report.region("y").expect("y region attributed");
    println!(
        "region `y`: {} transactions, {} bytes moved for {} requested",
        yt.transactions, yt.bytes, yt.requested_bytes
    );
}
