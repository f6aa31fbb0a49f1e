//! Criterion microbenchmarks of the simulator substrate: the pieces every
//! figure regeneration exercises (coalescer, bank-conflict calculator,
//! functional simulation, timing replay, and a full model analysis).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gpa_apps::{matmul, spmv, tridiag};
use gpa_core::{extract, Model};
use gpa_hw::{KernelResources, Machine};
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

fn bench_engine_sharding(c: &mut Criterion) {
    // The SimEngine speedup exhibit: one large homogeneous grid
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
    targets = bench_coalescer, bench_bank_conflicts, bench_functional_sim,
              bench_engine_sharding, bench_timing_sim, bench_model,
              bench_spmv_generation
}
criterion_main!(benches);
