//! Integration property: a functional run sharded across worker threads
//! ([`gpa::sim::FunctionalSim::run`] under [`gpa::sim::Threads`]) is
//! **observationally identical** to the sequential walk. For random
//! kernels and launch shapes, it must produce exactly the same
//! `DynamicStats`, the same per-warp traces, and the same final
//! global-memory image as `Threads::sequential()` — bit for bit — and a
//! run that faults must return the same error and leave the same memory.

use gpa::hw::Machine;
use gpa::isa::instr::{CmpOp, MemAddr, NumTy, SpecialReg, Width};
use gpa::isa::{Kernel, KernelBuilder, Pred, Src};
use gpa::sim::func::RunOutput;
use gpa::sim::{FunctionalSim, GlobalMemory, LaunchConfig, SimError, Threads};
use proptest::prelude::*;
use std::sync::OnceLock;

fn machine() -> &'static Machine {
    static M: OnceLock<Machine> = OnceLock::new();
    M.get_or_init(Machine::gtx285)
}

/// Deterministically expand `seed` into a small but varied kernel:
/// an integer hash chain over `tid`/`ctaid` with optional guarded ops,
/// warp divergence, and a shared-memory staging round (store → barrier →
/// read a rotated neighbour slot), ending in one global store per thread.
fn random_kernel(seed: u64, threads: u32) -> Kernel {
    let mut b = KernelBuilder::new(format!("prop_{seed:016x}"));
    b.set_threads(threads);
    let smem = b.smem_alloc(threads * 4, 4).unwrap() as i32;
    let out_p = b.param_alloc();

    let tid = b.alloc_reg().unwrap();
    let cta = b.alloc_reg().unwrap();
    let ntid = b.alloc_reg().unwrap();
    let acc = b.alloc_reg().unwrap();
    let tmp = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.s2r(cta, SpecialReg::CtaIdX);
    b.s2r(ntid, SpecialReg::NTidX);
    b.imad(acc, Src::Reg(cta), Src::Imm(1_664_525), Src::Reg(tid));

    let n_ops = 1 + (seed % 8) as usize;
    let mut bits = seed;
    for i in 0..n_ops {
        bits = bits
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (bits >> 33) as i32;
        match bits % 7 {
            0 => {
                b.iadd(acc, Src::Reg(acc), Src::Imm(k));
            }
            1 => {
                b.imul(acc, Src::Reg(acc), Src::Imm(k | 1));
            }
            2 => {
                b.xor(acc, Src::Reg(acc), Src::Imm(k));
            }
            3 => {
                b.shl(tmp, Src::Reg(acc), Src::Imm(k.rem_euclid(8)));
                b.xor(acc, Src::Reg(acc), Src::Reg(tmp));
            }
            4 => {
                b.imax(acc, Src::Reg(acc), Src::Imm(k));
            }
            5 => {
                // Guarded update: only lanes with tid & mask take it.
                b.and(tmp, Src::Reg(tid), Src::Imm(3));
                b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(tmp), Src::Imm(2));
                b.set_guard(Pred(0), false);
                b.iadd(acc, Src::Reg(acc), Src::Imm(k | 7));
                b.clear_guard();
            }
            _ => {
                // Warp divergence through the PDOM stack.
                let skip = format!("skip{i}");
                b.and(tmp, Src::Reg(tid), Src::Imm(1));
                b.setp(Pred(1), CmpOp::Eq, NumTy::S32, Src::Reg(tmp), Src::Imm(0));
                b.bra_if(Pred(1), false, skip.clone());
                b.imad(acc, Src::Reg(acc), Src::Imm(k | 3), Src::Reg(tid));
                b.label(skip);
            }
        }
    }

    if seed & 1 == 0 {
        // Shared staging round: smem[tid] = acc; bar; acc ^= smem[rot(tid)].
        let rot = 1 + ((seed >> 8) % u64::from(threads.min(31))) as i32;
        b.shl(addr, Src::Reg(tid), Src::Imm(2));
        b.st_shared(MemAddr::new(Some(addr), smem), acc, Width::B32);
        b.bar();
        b.iadd(tmp, Src::Reg(tid), Src::Imm(rot));
        // tmp %= threads (threads is a power-of-two-free count, so use
        // compare-and-subtract, valid for rot < threads).
        b.setp(
            Pred(2),
            CmpOp::Ge,
            NumTy::S32,
            Src::Reg(tmp),
            Src::Imm(threads as i32),
        );
        b.set_guard(Pred(2), false);
        b.isub(tmp, Src::Reg(tmp), Src::Imm(threads as i32));
        b.clear_guard();
        b.shl(tmp, Src::Reg(tmp), Src::Imm(2));
        b.ld_shared(tmp, MemAddr::new(Some(tmp), smem), Width::B32);
        b.xor(acc, Src::Reg(acc), Src::Reg(tmp));
    }

    // out[cta * ntid + tid] = acc
    b.imad(addr, Src::Reg(cta), Src::Reg(ntid), Src::Reg(tid));
    b.shl(addr, Src::Reg(addr), Src::Imm(2));
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), acc, Width::B32);
    b.exit();
    b.finish().expect("generated kernel is structurally valid")
}

/// Run `kernel` with an output buffer `short` blocks smaller than the
/// grid's stores need (0: exactly large enough), the last allocation, so
/// the first store past it faults.
fn run_short(
    kernel: &Kernel,
    launch: LaunchConfig,
    threads: Threads,
    short: u32,
) -> (Result<RunOutput, SimError>, GlobalMemory) {
    let total = u64::from(launch.num_blocks() - short) * u64::from(launch.threads_per_block());
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(total * 4, 128);
    let mut sim = FunctionalSim::new(machine(), kernel, launch).expect("launchable");
    sim.set_params(&[out as u32])
        .collect_traces(true)
        .set_threads(threads);
    sim.add_region("out", out, total * 4);
    let output = sim.run(&mut gmem);
    (output, gmem)
}

fn run(kernel: &Kernel, launch: LaunchConfig, threads: Threads) -> (RunOutput, GlobalMemory) {
    let (output, gmem) = run_short(kernel, launch, threads, 0);
    (output.expect("kernel runs"), gmem)
}

proptest! {
    #[test]
    fn parallel_engine_equals_sequential(
        seed in 0u64..u64::MAX,
        grid in 1u32..=24,
        threads in prop_oneof![Just(32u32), Just(48), Just(64), Just(96), Just(128)],
        workers in 2usize..=6,
    ) {
        let kernel = random_kernel(seed, threads);
        let launch = LaunchConfig::new_1d(grid, threads);
        let (seq, seq_mem) = run(&kernel, launch, Threads::sequential());
        let (par, par_mem) = run(&kernel, launch, Threads::Fixed(workers));
        prop_assert_eq!(
            &seq.stats, &par.stats,
            "stats diverge (seed {:#x}, {} blocks, {} workers)", seed, grid, workers
        );
        prop_assert_eq!(
            &seq.traces, &par.traces,
            "traces diverge (seed {:#x}, {} blocks, {} workers)", seed, grid, workers
        );
        prop_assert_eq!(
            &seq_mem, &par_mem,
            "memory diverges (seed {:#x}, {} blocks, {} workers)", seed, grid, workers
        );
    }

    #[test]
    fn faulting_runs_match_the_sequential_walk(
        seed in 0u64..u64::MAX,
        grid in 1u32..=24,
        threads in prop_oneof![Just(32u32), Just(48), Just(64), Just(96), Just(128)],
        short in 1u32..=24,
    ) {
        let kernel = random_kernel(seed, threads);
        let launch = LaunchConfig::new_1d(grid, threads);
        let short = short.min(grid);
        let (seq, seq_mem) = run_short(&kernel, launch, Threads::sequential(), short);
        prop_assert!(seq.is_err(), "a short buffer must fault (seed {:#x})", seed);
        for workers in [Threads::Fixed(2), Threads::Fixed(3), Threads::Auto] {
            let (par, par_mem) = run_short(&kernel, launch, workers, short);
            prop_assert_eq!(
                seq.as_ref().err(), par.as_ref().err(),
                "error diverges (seed {:#x}, {} blocks, {} short, {:?})", seed, grid, short, workers
            );
            prop_assert_eq!(
                &seq_mem, &par_mem,
                "memory diverges (seed {:#x}, {} blocks, {} short, {:?})", seed, grid, short, workers
            );
        }
    }
}

/// The real case studies, end to end: the workflow driver produces the
/// same extracted statistics and the same timing measurement on one
/// worker as on several (or on the engine's own choice).
#[test]
fn case_studies_are_thread_count_invariant() {
    use gpa::apps::workflow::run_study;
    use gpa::apps::{matmul, spmv, tridiag, CaseStudy};
    use gpa::model::Model;
    use gpa::ubench::{MeasureOpts, ThroughputCurves};

    let m = machine();
    let curves = ThroughputCurves::measure_with(m, MeasureOpts::quick());
    let mut model = Model::new(m, curves);
    let mut invariant = |make: &dyn Fn() -> CaseStudy, threads: Threads| {
        let mut run = |threads| {
            let mut study = make();
            let run = run_study(m, &mut model, &mut study, threads, None).unwrap();
            study.check().unwrap();
            run
        };
        let seq = run(Threads::sequential());
        let par = run(threads);
        assert_eq!(seq.input.stats, par.input.stats);
        assert_eq!(seq.timing, par.timing);
    };

    invariant(&|| matmul::case(256, 16), Threads::Auto);
    invariant(&|| tridiag::case(512, 16, false), Threads::Fixed(3));
    let qcd = spmv::qcd_like(4, 7);
    invariant(
        &|| spmv::case(&qcd, spmv::Format::BellIm, true),
        Threads::Fixed(4),
    );
}
