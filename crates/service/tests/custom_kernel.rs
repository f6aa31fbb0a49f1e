//! The portable-kernel-encoding acceptance suite.
//!
//! * **Property**: a random `KernelBuilder` kernel pushed through the
//!   full wire path — `kernel_to_asm` → `KernelSpec::Custom` → JSON →
//!   parse → `Analyzer::analyze` — answers **bit-identically** to
//!   `run_study` on the in-process kernel, launch, and memory (analysis,
//!   measured time, flops), with the report's `outputs` readback equal
//!   to the in-process memory image.
//! * **Negative**: malformed assembly and memory-image specs are typed
//!   [`ServiceError`]s in-process and clean HTTP 400s through the
//!   server's route table — never panics.
//! * **Fuel**: a request's fuel budget covers the whole grid at every
//!   worker count, and a runaway loop ends within a stated time.

use gpa_apps::workflow::{run_study, CaseStudy, Region};
use gpa_core::{extract, Analysis, Model};
use gpa_hw::Machine;
use gpa_isa::asm::kernel_to_asm;
use gpa_isa::instr::{CmpOp, MemAddr, NumTy, SpecialReg, Width};
use gpa_isa::{Kernel, KernelBuilder, Pred, Src};
use gpa_service::{
    AnalysisOptions, AnalysisRequest, Analyzer, CustomKernel, KernelSpec, MemInit, MemRegionSpec,
    ParamValue, ServiceError, CUSTOM_REGION_ALIGN, MAX_CUSTOM_MEMORY_BYTES,
    MAX_CUSTOM_READBACK_BYTES,
};
use gpa_sim::{
    FunctionalSim, GlobalMemory, LaunchConfig, SimError, Threads, TimingResult, TimingSim,
    TraceSource,
};
use gpa_ubench::MeasureOpts;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn analyzer() -> &'static Analyzer {
    static A: OnceLock<Analyzer> = OnceLock::new();
    A.get_or_init(|| {
        let mut a = Analyzer::new();
        a.calibrate(Machine::gtx285(), MeasureOpts::quick());
        a
    })
}

/// Deterministically expand `seed` into a small varied kernel mixing
/// integer hashing, f32 arithmetic (so the dynamic flop count is
/// non-trivial), guarded ops, divergence, and a shared-memory round,
/// ending in one global store per thread to `out`.
fn random_kernel(seed: u64, threads: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("wire_{seed:016x}"));
    b.set_threads(threads);
    let smem = b.smem_alloc(threads * 4, 4).unwrap() as i32;
    let out_p = b.param_alloc();

    let tid = b.alloc_reg().unwrap();
    let cta = b.alloc_reg().unwrap();
    let ntid = b.alloc_reg().unwrap();
    let acc = b.alloc_reg().unwrap();
    let tmp = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    let facc = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.s2r(cta, SpecialReg::CtaIdX);
    b.s2r(ntid, SpecialReg::NTidX);
    b.imad(acc, Src::Reg(cta), Src::Imm(1_664_525), Src::Reg(tid));
    b.i2f(facc, Src::Reg(tid));
    // One unconditional f32 op so every generated kernel has a non-zero
    // dynamic flop count for the honesty assertion below.
    b.fmad(facc, Src::Reg(facc), Src::Reg(facc), Src::Reg(tid));

    let n_ops = 1 + (seed % 6) as usize;
    let mut bits = seed;
    for i in 0..n_ops {
        bits = bits
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (bits >> 33) as i32;
        match bits % 6 {
            0 => {
                b.iadd(acc, Src::Reg(acc), Src::Imm(k));
            }
            1 => {
                b.xor(acc, Src::Reg(acc), Src::Imm(k));
            }
            2 => {
                // f32 work: facc = facc * facc + tid; keeps flops > 0.
                b.fmad(facc, Src::Reg(facc), Src::Reg(facc), Src::Reg(tid));
                b.rsq(facc, Src::Reg(facc));
            }
            3 => {
                // Guarded update: only some lanes take it.
                b.and(tmp, Src::Reg(tid), Src::Imm(3));
                b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(tmp), Src::Imm(2));
                b.set_guard(Pred(0), false);
                b.iadd(acc, Src::Reg(acc), Src::Imm(k | 7));
                b.clear_guard();
            }
            4 => {
                // Warp divergence through the PDOM stack.
                let skip = format!("skip{i}");
                b.and(tmp, Src::Reg(tid), Src::Imm(1));
                b.setp(Pred(1), CmpOp::Eq, NumTy::S32, Src::Reg(tmp), Src::Imm(0));
                b.bra_if(Pred(1), false, skip.clone());
                b.imad(acc, Src::Reg(acc), Src::Imm(k | 3), Src::Reg(tid));
                b.label(skip);
            }
            _ => {
                // Shared staging: smem[tid] = acc; bar; acc ^= smem[tid].
                b.shl(addr, Src::Reg(tid), Src::Imm(2));
                b.st_shared(MemAddr::new(Some(addr), smem), acc, Width::B32);
                b.bar();
                b.ld_shared(tmp, MemAddr::new(Some(addr), smem), Width::B32);
                b.xor(acc, Src::Reg(acc), Src::Reg(tmp));
            }
        }
    }

    // out[cta * ntid + tid] = acc ^ (bits of facc)
    b.f2i(tmp, Src::Reg(facc));
    b.xor(acc, Src::Reg(acc), Src::Reg(tmp));
    b.imad(addr, Src::Reg(cta), Src::Reg(ntid), Src::Reg(tid));
    b.shl(addr, Src::Reg(addr), Src::Imm(2));
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), acc, Width::B32);
    b.exit();
    b.finish().expect("generated kernel is structurally valid")
}

proptest! {
    #[test]
    fn wire_path_equals_in_process_path(
        seed in 0u64..u64::MAX,
        grid in 1u32..=6,
        threads in prop_oneof![Just(32u32), Just(64), Just(96)],
    ) {
        let analyzer = analyzer();
        let kernel = random_kernel(seed, threads);
        let launch = LaunchConfig::new_1d(grid, threads);
        let out_len = u64::from(grid) * u64::from(threads) * 4;
        let options = AnalysisOptions::default();

        // In-process path: the builder kernel over caller-owned memory,
        // straight through the workflow driver.
        let mut gmem = GlobalMemory::new();
        let out = gmem.alloc(out_len, CUSTOM_REGION_ALIGN);
        let regions = vec![Region::new("out", out, out_len)];
        let mut study = CaseStudy::adhoc(
            kernel.clone(), launch, vec![out as u32], gmem, regions,
        );
        let machine = analyzer.machine("gtx285").unwrap();
        let mut model = Model::with_curves(machine, analyzer.curves("gtx285").unwrap());
        let in_process = run_study(machine, &mut model, &mut study, options.threads, None)
            .expect("in-process analysis");

        // Wire path: the same kernel as asm + declarative memory, routed
        // through JSON both ways.
        let custom = CustomKernel {
            asm: kernel_to_asm(&kernel),
            launch,
            params: vec![ParamValue::RegionBase("out".into())],
            memory: vec![MemRegionSpec {
                name: "out".into(),
                len: out_len,
                init: MemInit::Zero,
                texture: false,
                readback: true,
            }],
        };
        let request = AnalysisRequest::new(KernelSpec::Custom(Box::new(custom)), "gtx285");
        let json = request.to_json();
        let parsed = AnalysisRequest::from_json(&json).expect("request round-trips");
        prop_assert_eq!(&parsed, &request);
        let wire = analyzer.analyze(&parsed).expect("wire analysis");

        // The report survives its own wire format bit-exactly.
        let report_json = wire.to_json();
        let wire_back = gpa_service::AnalysisReport::from_json(&report_json).unwrap();
        prop_assert_eq!(&wire_back, &wire);
        prop_assert_eq!(wire_back.to_json(), report_json);

        // Readback must equal the in-process memory image.
        prop_assert_eq!(wire.outputs.len(), 1);
        prop_assert_eq!(&wire.outputs[0].name, "out");
        let in_process_words = study
            .gmem
            .read_u32s(out, (out_len / 4) as usize)
            .expect("out region readable");
        prop_assert_eq!(&wire.outputs[0].words, &in_process_words, "side effects diverge");

        // And the answer itself is bit-identical between the two paths.
        prop_assert_eq!(&wire.analysis, &in_process.analysis, "seed {:#x}", seed);
        prop_assert_eq!(wire.measured_cycles.to_bits(), in_process.timing.cycles.to_bits());
        prop_assert_eq!(wire.flops, in_process.input.stats.total().flops);
        let traffic: Vec<_> = in_process
            .input
            .stats
            .regions
            .iter()
            .map(|r| {
                let g = &r.gmem[gpa_sim::stats::GRAN_GT200];
                (r.name.as_str(), g.transactions, g.bytes, r.requested_bytes)
            })
            .collect();
        let wire_traffic: Vec<_> = wire
            .regions
            .iter()
            .map(|r| (r.name.as_str(), r.transactions, r.bytes, r.requested_bytes))
            .collect();
        prop_assert_eq!(wire_traffic, traffic);
        prop_assert!(wire.flops > 0, "dynamic flop count should be honest, got 0");
    }
}

/// A minimal valid custom kernel to mutate in the negative tests.
fn valid_custom() -> CustomKernel {
    CustomKernel {
        asm: ".kernel ok\n.reg 2\n.threads 32\n.param 4\n    ld.param.b32 r0, c[0x0]\n    \
              st.global.b32 g[r0], r1\n    exit\n"
            .into(),
        launch: LaunchConfig::new_1d(1, 32),
        params: vec![ParamValue::RegionBase("out".into())],
        memory: vec![MemRegionSpec {
            name: "out".into(),
            len: 128,
            init: MemInit::Zero,
            texture: false,
            readback: false,
        }],
    }
}

fn expect_invalid(custom: CustomKernel, want: &str) {
    match KernelSpec::Custom(Box::new(custom)).build() {
        Err(ServiceError::InvalidRequest(msg)) => {
            assert!(msg.contains(want), "`{msg}` does not mention `{want}`");
        }
        other => panic!("expected InvalidRequest mentioning `{want}`, got {other:?}"),
    }
}

#[test]
fn valid_custom_builds() {
    assert!(KernelSpec::Custom(Box::new(valid_custom())).build().is_ok());
}

#[test]
fn malformed_custom_kernels_are_typed_errors_not_panics() {
    // Unknown mnemonic in the assembly.
    let mut c = valid_custom();
    c.asm = ".kernel x\n.threads 32\n    frobnicate r0\n    exit\n".into();
    c.params.clear();
    expect_invalid(c, "frobnicate");

    // Branch-target overflow (would silently wrap before the hardening).
    let mut c = valid_custom();
    c.asm = ".kernel x\n.threads 32\n    bra 4294967296\n    exit\n".into();
    c.params.clear();
    expect_invalid(c, "out of range");

    // Label out of range (structural validation).
    let mut c = valid_custom();
    c.asm = ".kernel x\n.threads 32\n    bra 99\n    exit\n".into();
    c.params.clear();
    expect_invalid(c, "out of range");

    // Register beyond the declared count is caught by the simulator's
    // structural checks; register beyond the file is an asm error.
    let mut c = valid_custom();
    c.asm = ".kernel x\n.threads 32\n    mov.b32 r500, r0\n    exit\n".into();
    c.params.clear();
    expect_invalid(c, "register");

    // Parameter load past the declared block.
    let mut c = valid_custom();
    c.asm = ".kernel x\n.threads 32\n.param 4\n    ld.param.b32 r0, c[0x8]\n    exit\n".into();
    expect_invalid(c, "param");

    // Launch/threads mismatch.
    let mut c = valid_custom();
    c.launch = LaunchConfig::new_1d(1, 64);
    expect_invalid(c, ".threads 32");

    // Missing parameter words for the declared block.
    let mut c = valid_custom();
    c.params.clear();
    expect_invalid(c, "parameter block");

    // Unknown region named by a parameter.
    let mut c = valid_custom();
    c.params = vec![ParamValue::RegionBase("nope".into())];
    expect_invalid(c, "unknown region");

    // Duplicate region names.
    let mut c = valid_custom();
    c.memory.push(c.memory[0].clone());
    expect_invalid(c, "duplicate");

    // Region length not a word multiple.
    let mut c = valid_custom();
    c.memory[0].len = 127;
    expect_invalid(c, "multiple of 4");

    // Oversized memory image.
    let mut c = valid_custom();
    c.memory[0].len = MAX_CUSTOM_MEMORY_BYTES + 4;
    expect_invalid(c, "limit");

    // Oversized readback.
    let mut c = valid_custom();
    c.memory[0].len = MAX_CUSTOM_READBACK_BYTES + CUSTOM_REGION_ALIGN;
    c.memory[0].readback = true;
    expect_invalid(c, "readback");

    // Words initializer longer than the region.
    let mut c = valid_custom();
    c.memory[0].init = MemInit::Words(vec![0; 33]);
    c.memory[0].len = 128;
    expect_invalid(c, "initializer");

    // Empty and absurd launches.
    let mut c = valid_custom();
    c.launch = LaunchConfig::new_2d((0, 1), (32, 1));
    expect_invalid(c, "empty launch");
    let mut c = valid_custom();
    c.launch = LaunchConfig::new_2d((1 << 16, 1 << 16), (32, 1));
    expect_invalid(c, "block");

    // Oversized assembly text.
    let mut c = valid_custom();
    c.asm = "// pad\n".repeat(40_000);
    expect_invalid(c, "byte limit");
}

#[test]
fn verify_on_a_custom_kernel_is_refused() {
    let analyzer = analyzer();
    let mut request = AnalysisRequest::new(KernelSpec::Custom(Box::new(valid_custom())), "gtx285");
    request.options.verify = true;
    match analyzer.analyze(&request) {
        Err(ServiceError::InvalidRequest(msg)) => {
            assert!(msg.contains("no"), "{msg}");
        }
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
}

#[test]
fn wire_level_custom_garbage_is_a_wire_error() {
    for (body, want) in [
        (
            // A custom case with a non-numeric launch dimension.
            r#"{"kernel": {"case": "custom", "asm": "exit",
                "launch": {"grid": true, "block": 32}}, "machine": "x"}"#,
            "grid",
        ),
        (
            // Unknown initializer kind.
            r#"{"kernel": {"case": "custom", "asm": "exit",
                "launch": {"grid": 1, "block": 32},
                "memory": [{"name": "m", "len": 64, "init": {"kind": "entropy"}}]},
                "machine": "x"}"#,
            "entropy",
        ),
        (
            // 3-D launches do not exist here.
            r#"{"kernel": {"case": "custom", "asm": "exit",
                "launch": {"grid": [1, 1, 1], "block": 32}}, "machine": "x"}"#,
            "dimensions",
        ),
        (
            // A parameter that is neither a word nor a region reference.
            r#"{"kernel": {"case": "custom", "asm": "exit",
                "launch": {"grid": 1, "block": 32}, "params": ["zap"]},
                "machine": "x"}"#,
            "parameter",
        ),
    ] {
        match AnalysisRequest::from_json(body) {
            Err(ServiceError::Wire(msg)) => {
                assert!(msg.contains(want), "`{msg}` does not mention `{want}`");
            }
            other => panic!("expected Wire error mentioning `{want}`, got {other:?}"),
        }
    }
}

/// The block-0 path, built by hand: one functional pass over `spec`'s
/// study, the grid timed from block 0's trace alone
/// (`TraceSource::Homogeneous`), and the model on the pass's statistics.
fn block0_replay(spec: &KernelSpec) -> (TimingResult, Analysis) {
    let analyzer = analyzer();
    let machine = analyzer.machine("gtx285").unwrap();
    let mut study = spec.build().unwrap();
    let mut func = FunctionalSim::new(machine, &study.kernel, study.launch).unwrap();
    func.set_params(&study.params).collect_traces(true);
    for r in &study.regions {
        func.add_region(r.name.clone(), r.base, r.len);
    }
    let out = func.run(&mut study.gmem).unwrap();
    let block0 = Arc::clone(&out.traces.unwrap()[0]);
    let timing = TimingSim::new(machine).run(
        &TraceSource::Homogeneous(block0),
        &study.launch,
        study.kernel.resources,
    );
    let (kernel, launch) = (&study.kernel, study.launch);
    let input = extract(machine, &kernel.name, launch, kernel.resources, out.stats).unwrap();
    let mut model = Model::with_curves(machine, analyzer.curves("gtx285").unwrap());
    (timing, model.analyze(&input))
}

/// A grid whose blocks execute *different* instruction streams. Block 0
/// takes a guarded early exit after two instructions; blocks 1..4 run a
/// 16-deep f32 chain. Block-0 replay times every cluster with block 0's
/// short trace — a silently wrong (under-estimated) answer that a request
/// could once force with `"mode": "homogeneous"`. Now every legacy mode
/// string is accepted and ignored: each answers byte-identically to the
/// request without one, and that answer is the per-block replay. (Block 0
/// is the *short* block on purpose: were it the longest, it would
/// dominate the critical path either way and the two replays would
/// coincide.)
#[test]
fn auto_mode_replays_divergent_grids_per_block() {
    let analyzer = analyzer();
    let mut asm = String::from(
        ".kernel divergent\n.reg 2\n.threads 32\n\
         \x20   s2r r0, %ctaid.x\n\
         \x20   setp.eq.s32 p0, r0, 0\n\
         \x20   @p0 exit\n",
    );
    for _ in 0..16 {
        asm.push_str("    mad.f32 r1, r1, r1, r1\n");
    }
    asm.push_str("    exit\n");
    let kernel = KernelSpec::Custom(Box::new(CustomKernel {
        asm,
        launch: LaunchConfig::new_1d(4, 32),
        params: vec![],
        memory: vec![],
    }));
    let request = AnalysisRequest::new(kernel.clone(), "gtx285");
    let json = request.to_json();
    assert!(!json.contains("\"mode\""), "mode is never written:\n{json}");
    let reference = analyzer
        .analyze(&request)
        .expect("divergent kernel analyzes")
        .to_json();
    let with_mode = |mode: &str| {
        json.replacen(
            "\"options\": {",
            &format!("\"options\": {{\"mode\": \"{mode}\", "),
            1,
        )
    };
    for mode in ["homogeneous", "per-block", "auto"] {
        let parsed = AnalysisRequest::from_json(&with_mode(mode)).expect("legacy alias parses");
        assert_eq!(parsed, request, "`{mode}` must be dropped");
        let answer = analyzer.analyze(&parsed).unwrap().to_json();
        assert_eq!(answer, reference, "`{mode}` changed the answer");
    }
    assert!(matches!(
        AnalysisRequest::from_json(&with_mode("sideways")),
        Err(ServiceError::Wire(msg)) if msg.contains("unknown trace mode")
    ));

    // The grid must actually tell the replays apart, or this test proves
    // nothing: block-0 replay of the same study under-reports.
    let (block0, _) = block0_replay(&kernel);
    let served = analyzer.analyze(&request).unwrap();
    assert!(
        served.measured_cycles > block0.cycles,
        "per-block replay ({}) must exceed block-0 replay ({})",
        served.measured_cycles,
        block0.cycles
    );
}

/// The flip side: on a shape-uniform multi-block grid, the functional
/// pass must observe uniformity and take the cheap block-0 path,
/// answering bit-identically to it.
#[test]
fn auto_mode_matches_homogeneous_on_uniform_grids() {
    let analyzer = analyzer();
    let mut kernel = valid_custom();
    kernel.launch = LaunchConfig::new_1d(4, 32);
    kernel.memory[0].len = 4 * 32 * 4;
    let spec = KernelSpec::Custom(Box::new(kernel));
    let machine = analyzer.machine("gtx285").unwrap();
    let auto = {
        let mut study = spec.build().unwrap();
        let mut model = Model::with_curves(machine, analyzer.curves("gtx285").unwrap());
        run_study(machine, &mut model, &mut study, Threads::Auto, None).unwrap()
    };
    let (timing, analysis) = block0_replay(&spec);
    assert_eq!(auto.timing, timing);
    assert_eq!(auto.analysis, analysis);
    let served = analyzer
        .analyze(&AnalysisRequest::new(spec, "gtx285"))
        .unwrap();
    assert_eq!(
        served.measured_cycles.to_bits(),
        auto.timing.cycles.to_bits()
    );
}

/// A fuel-limited request for the kernel `asm` over `grid` blocks of its
/// declared threads, with no memory.
fn fuel_request(asm: &str, grid: u32, fuel: u64, threads: Threads) -> AnalysisRequest {
    let kernel = KernelSpec::Custom(Box::new(CustomKernel {
        asm: asm.into(),
        launch: LaunchConfig::new_1d(grid, 128),
        params: vec![],
        memory: vec![],
    }));
    let mut request = AnalysisRequest::new(kernel, "gtx285");
    request.options.fuel = Some(fuel);
    request.options.threads = threads;
    request
}

fn expect_fuel_exhausted(request: &AnalysisRequest) {
    match analyzer().analyze(request) {
        Err(ServiceError::Sim(SimError::FuelExhausted)) => {}
        other => panic!(
            "expected fuel exhaustion at {:?}, got {:?}",
            request.options.threads,
            other.map(|r| r.measured_cycles)
        ),
    }
}

/// The sample `lanehash` kernel over 64 blocks of 128 threads runs 87
/// warp instructions per warp, 22,272 for the grid. Split four ways,
/// each block range needs 5,568: every range fits in 10,000, the grid
/// does not. One budget covers the grid, so the run fails the same way
/// at every worker count, and succeeds at every count with exactly
/// enough.
#[test]
fn fuel_is_one_budget_for_the_whole_grid() {
    let asm = include_str!("../data/sample_kernel.asm");
    for threads in [Threads::Fixed(1), Threads::Fixed(4), Threads::Auto] {
        expect_fuel_exhausted(&fuel_request(asm, 64, 10_000, threads));
        expect_fuel_exhausted(&fuel_request(asm, 64, 22_271, threads));
        let exact = analyzer().analyze(&fuel_request(asm, 64, 22_272, threads));
        assert!(exact.is_ok(), "{threads:?}: {exact:?}");
    }
}

/// A kernel that branches to itself ends on its fuel, inline and
/// sharded, within a stated wall-clock budget: a million warp
/// instructions take ~50 ms per worker in a release build, and the
/// budget leaves room for an unoptimized build on a loaded host. The
/// second kernel spins in block 7 only, the last of four block ranges,
/// so at 4 workers the merge walks that range a second time on the fuel
/// the lower ranges leave: about twice the sequential walk's time.
#[test]
fn a_spinning_kernel_ends_on_its_fuel_in_bounded_time() {
    const BUDGET: Duration = Duration::from_secs(30);
    let everywhere = ".kernel spin\n.threads 128\nL0:\n    bra L0\n";
    let last_block = ".kernel spin7\n.reg 1\n.threads 128\n    s2r r0, %ctaid.x\n    \
        setp.eq.s32 p0, r0, 7\nL0:\n    @p0 bra L0\n    exit\n";
    for (asm, threads) in [everywhere, last_block]
        .into_iter()
        .flat_map(|asm| [(asm, Threads::Fixed(1)), (asm, Threads::Fixed(4))])
    {
        let start = Instant::now();
        expect_fuel_exhausted(&fuel_request(asm, 8, 1_000_000, threads));
        let took = start.elapsed();
        assert!(
            took < BUDGET,
            "{threads:?} took {took:?}, budget {BUDGET:?}"
        );
    }
}
