//! Criterion microbenchmarks of the simulator substrate: the pieces every
//! figure regeneration exercises (coalescer, bank-conflict calculator,
//! functional simulation, timing replay, and a full model analysis).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gpa_apps::{matmul, spmv, tridiag};
use gpa_core::{extract, Model};
use gpa_hw::{KernelResources, Machine};
use gpa_isa::builder::KernelBuilder;
use gpa_isa::instr::{MemAddr, Reg, SpecialReg, Src, Width};
use gpa_isa::kernel::Kernel;
use gpa_mem::bank::{bank_transactions, BankConfig};
use gpa_mem::coalesce::{coalesce_half_warp, CoalesceConfig};
use gpa_sim::{FunctionalSim, GlobalMemory, LaunchConfig, Threads, TimingSim, TraceSource};
use gpa_ubench::{MeasureOpts, ThroughputCurves};
use std::hint::black_box;
use std::sync::Arc;

fn bench_coalescer(c: &mut Criterion) {
    let strided: Vec<Option<(u64, u32)>> = (0..16u64)
        .map(|i| Some((i * 36 % 4096 / 4 * 4, 4)))
        .collect();
    let unit: Vec<Option<(u64, u32)>> = (0..16u64).map(|i| Some((i * 4, 4))).collect();
    let cfg = CoalesceConfig::gt200();
    c.bench_function("coalesce/unit_stride", |b| {
        b.iter(|| coalesce_half_warp(black_box(&unit), cfg))
    });
    c.bench_function("coalesce/scattered", |b| {
        b.iter(|| coalesce_half_warp(black_box(&strided), cfg))
    });
}

fn bench_bank_conflicts(c: &mut Criterion) {
    let cfg = BankConfig::gt200();
    let stride2: Vec<Option<u64>> = (0..16u64).map(|i| Some(i * 8)).collect();
    c.bench_function("bank/stride2", |b| {
        b.iter(|| bank_transactions(black_box(&stride2), cfg))
    });
}

fn bench_functional_sim(c: &mut Criterion) {
    let machine = Machine::gtx285();
    let kernel = matmul::kernel(128, 16).unwrap();
    c.bench_function("func_sim/matmul128_block", |b| {
        b.iter_batched(
            || {
                let mut gmem = GlobalMemory::new();
                let data = matmul::setup(&mut gmem, 128);
                (
                    gmem,
                    [data.a_dev as u32, data.b_dev as u32, data.c_dev as u32],
                )
            },
            |(mut gmem, params)| {
                let mut sim =
                    FunctionalSim::new(&machine, &kernel, LaunchConfig::new_2d((8, 2), (64, 1)))
                        .unwrap();
                sim.set_params(&params);
                let mut stats = sim.fresh_stats();
                sim.run_block(&mut gmem, 0, &mut stats).unwrap();
                stats
            },
            BatchSize::LargeInput,
        )
    });
}

/// Copies of the probed instruction in a straight-line kernel.
const COPIES: usize = 2_000;

/// A straight-line kernel of 64-thread blocks: `setup` emits code once
/// (its registers are `tid`, holding the thread id, and `r`, holding it
/// as an `f32`), then `probe` emits one instruction [`COPIES`] times.
fn straight_line(
    name: &str,
    setup: impl FnOnce(&mut KernelBuilder, Reg, Reg),
    probe: impl Fn(&mut KernelBuilder, Reg, Reg),
) -> Kernel {
    let mut b = KernelBuilder::new(name);
    b.set_threads(64);
    b.smem_alloc(1024, 4).unwrap();
    let [tid, r] = [(); 2].map(|_| b.alloc_reg().unwrap());
    b.s2r(tid, SpecialReg::TidX);
    b.i2f(r, Src::Reg(tid));
    setup(&mut b, tid, r);
    for _ in 0..COPIES {
        probe(&mut b, tid, r);
    }
    b.exit();
    b.finish().unwrap()
}

/// The cost of one shared access per warp instruction: straight-line
/// kernels over 64 blocks × 64 threads on the GTX 285, sequentially.
/// `smem_scalar_operand` is `mad.f32 r, r, s[0x4], r` (a base-less
/// operand); `smem_lanes_affine` is `ld.shared` at a two-word lane
/// stride (a 2-way conflict in closed form); `smem_lanes_conflicted` is
/// `ld.shared` at word `tid² mod 256`, a 4-way conflict that is not
/// affine.
fn bench_shared_access(c: &mut Criterion) {
    let machine = Machine::gtx285();
    let launch = LaunchConfig::new_1d(64, 64);
    let kernels = [
        straight_line(
            "smem_scalar_operand",
            |_, _, _| {},
            |b, _, r| {
                b.fmad(r, Src::Reg(r), Src::smem(None, 4), Src::Reg(r));
            },
        ),
        straight_line(
            "smem_lanes_affine",
            |b, tid, _| {
                b.shl(tid, Src::Reg(tid), Src::Imm(3));
            },
            |b, tid, r| {
                b.ld_shared(r, MemAddr::new(Some(tid), 0), Width::B32);
            },
        ),
        straight_line(
            "smem_lanes_conflicted",
            |b, tid, _| {
                b.imul(tid, Src::Reg(tid), Src::Reg(tid));
                b.and(tid, Src::Reg(tid), Src::Imm(255));
                b.shl(tid, Src::Reg(tid), Src::Imm(2));
            },
            |b, tid, r| {
                b.ld_shared(r, MemAddr::new(Some(tid), 0), Width::B32);
            },
        ),
    ];
    let mut group = c.benchmark_group("func_sim");
    for kernel in &kernels {
        let sim = FunctionalSim::new(&machine, kernel, launch).unwrap();
        let warp_instrs = sim.work_estimate().expect("a straight-line kernel");
        group.throughput(Throughput::Elements(warp_instrs));
        group.bench_function(&kernel.name, |b| {
            b.iter(|| sim.run(&mut GlobalMemory::new()).unwrap().stats)
        });
    }
    group.finish();
}

/// The cost of one global access per warp instruction, on the kernels
/// and launch of [`bench_shared_access`], each lane addressing a 4 KiB
/// region through a base register: `gmem_load_unit_stride` and
/// `gmem_store_unit_stride` move word `tid` (one 128-byte row per warp),
/// `gmem_load_scattered` loads word `tid² mod 1024` (a segment per lane
/// or two).
fn bench_global_access(c: &mut Criterion) {
    let machine = Machine::gtx285();
    let launch = LaunchConfig::new_1d(64, 64);
    let address = |b: &mut KernelBuilder, tid: Reg| {
        let p = b.param_alloc();
        let at = b.alloc_reg().unwrap();
        b.ld_param(at, p);
        b.shl(tid, Src::Reg(tid), Src::Imm(2));
        b.iadd(tid, Src::Reg(tid), Src::Reg(at));
    };
    let load = |b: &mut KernelBuilder, tid: Reg, r: Reg| {
        b.ld_global(r, MemAddr::new(Some(tid), 0), Width::B32);
    };
    let kernels = [
        straight_line("gmem_load_unit_stride", |b, tid, _| address(b, tid), load),
        straight_line(
            "gmem_store_unit_stride",
            |b, tid, _| address(b, tid),
            |b, tid, r| {
                b.st_global(MemAddr::new(Some(tid), 0), r, Width::B32);
            },
        ),
        straight_line(
            "gmem_load_scattered",
            |b, tid, _| {
                b.imul(tid, Src::Reg(tid), Src::Reg(tid));
                b.and(tid, Src::Reg(tid), Src::Imm(1023));
                address(b, tid);
            },
            load,
        ),
    ];
    let mut group = c.benchmark_group("func_sim");
    for kernel in &kernels {
        let mut gmem = GlobalMemory::new();
        let at = gmem.alloc(4096, 128);
        let mut sim = FunctionalSim::new(&machine, kernel, launch).unwrap();
        sim.set_params(&[at as u32]);
        sim.add_region("words", at, 4096);
        let warp_instrs = sim.work_estimate().expect("a straight-line kernel");
        group.throughput(Throughput::Elements(warp_instrs));
        group.bench_function(&kernel.name, |b| {
            b.iter(|| sim.run(&mut gmem).unwrap().stats)
        });
    }
    group.finish();
}

fn bench_engine_sharding(c: &mut Criterion) {
    // The block-sharding speedup exhibit: one large homogeneous grid
    // (matmul 256², 64 blocks of 64 threads), executed sequentially vs
    // sharded across all cores. Outputs are bit-identical; only
    // wall-clock differs.
    let machine = Machine::gtx285();
    let kernel = matmul::kernel(256, 16).unwrap();
    let launch = LaunchConfig::new_2d((16, 4), (64, 1));
    let mut gmem0 = GlobalMemory::new();
    let data = matmul::setup(&mut gmem0, 256);
    let params = [data.a_dev as u32, data.b_dev as u32, data.c_dev as u32];
    for (name, threads) in [
        ("engine/matmul256_seq", Threads::sequential()),
        ("engine/matmul256_par", Threads::Auto),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || gmem0.clone(),
                |mut gmem| {
                    let mut sim = FunctionalSim::new(&machine, &kernel, launch).unwrap();
                    sim.set_params(&params).set_threads(threads);
                    sim.run(&mut gmem).unwrap()
                },
                BatchSize::LargeInput,
            )
        });
    }
}

fn bench_timing_sim(c: &mut Criterion) {
    let machine = Machine::gtx285();
    let kernel = matmul::kernel(128, 16).unwrap();
    let mut gmem = GlobalMemory::new();
    let data = matmul::setup(&mut gmem, 128);
    let mut sim =
        FunctionalSim::new(&machine, &kernel, LaunchConfig::new_2d((8, 2), (64, 1))).unwrap();
    sim.set_params(&[data.a_dev as u32, data.b_dev as u32, data.c_dev as u32]);
    sim.collect_traces(true);
    let mut stats = sim.fresh_stats();
    let trace = Arc::new(sim.run_block(&mut gmem, 0, &mut stats).unwrap().unwrap());
    c.bench_function("timing_sim/matmul128", |b| {
        b.iter(|| {
            let timing = TimingSim::new(&machine);
            let src = TraceSource::Homogeneous(Arc::clone(&trace));
            timing.run(
                &src,
                &LaunchConfig::new_2d((8, 2), (64, 1)),
                KernelResources::new(30, 1088, 64),
            )
        })
    });
}

fn bench_model(c: &mut Criterion) {
    let machine = Machine::gtx285();
    let curves = ThroughputCurves::measure_with(&machine, MeasureOpts::quick());
    let kernel = tridiag::kernel(512, false).unwrap();
    let mut gmem = GlobalMemory::new();
    let data = tridiag::setup(&mut gmem, 512, 8, 1);
    let launch = LaunchConfig::new_1d(8, 256);
    let mut sim = FunctionalSim::new(&machine, &kernel, launch).unwrap();
    let params: Vec<u32> = data.dev.iter().map(|d| *d as u32).collect();
    sim.set_params(&params);
    let out = sim.run(&mut gmem).unwrap();
    let input = extract(&machine, "cr", launch, kernel.resources, out.stats)
        .expect("statistics match the launch");
    c.bench_function("model/analyze_cr", |b| {
        let mut model = Model::new(&machine, curves.clone());
        b.iter(|| model.analyze(black_box(&input)))
    });
}

fn bench_spmv_generation(c: &mut Criterion) {
    c.bench_function("workload/qcd_like_l4", |b| b.iter(|| spmv::qcd_like(4, 7)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_coalescer, bench_bank_conflicts, bench_functional_sim, bench_shared_access,
              bench_global_access, bench_engine_sharding, bench_timing_sim, bench_model,
              bench_spmv_generation
}
criterion_main!(benches);
