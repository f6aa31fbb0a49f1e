//! Per-layer benchmarks, named after the telemetry phase they time.
//!
//! `layer/functional_sim/<workload>` runs the functional simulator — the
//! `functional_sim` span of a served request — over one paper case study,
//! sequentially, on the GTX 285: untraced (statistics only) and
//! `_traced` (per-warp traces recorded too, as a served request records
//! them: every block is traced and a trace that repeats block 0's shape
//! is dropped, [`TraceBlocks::Replay`]). Setup (kernel
//! build and the device-memory image) is excluded from the timing.
//! `tridiag256_unpadded` is the one workload whose shared accesses
//! conflict (2- to 16-way), so it times the bank-conflict path.
//!
//! `layer/timing_replay/<workload>` replays one study's traces — the
//! `timing_replay` span — sequentially, from the trace source
//! `run_study` builds: `matmul256_t16` is uniform, so it replays block
//! 0's trace on one cluster (homogeneous), and `spmv_ell_tex` replays
//! every block's own trace through the texture cache on every cluster
//! (per block). Tracing is excluded from the timing.
//!
//! `layer/calibrate/gtx285_quick` measures the GTX 285's throughput
//! curves at quick effort — the `calibrate` step of a cold start.
//!
//! ```sh
//! cargo bench -p gpa-bench --bench layers
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gpa_apps::spmv::{self, Format};
use gpa_apps::workflow::CaseStudy;
use gpa_apps::{matmul, tridiag};
use gpa_hw::Machine;
use gpa_sim::{FunctionalSim, Threads, TimingSim, TraceBlocks};
use gpa_ubench::{MeasureOpts, ThroughputCurves};
use std::hint::black_box;

fn bench_functional_sim(c: &mut Criterion) {
    let machine = Machine::gtx285();
    let workloads = [
        ("matmul256_t16", matmul::case(256, 16)),
        ("tridiag256_padded", tridiag::case(512, 256, true)),
        ("tridiag256_unpadded", tridiag::case(512, 256, false)),
        (
            "spmv_ell",
            spmv::case(&spmv::qcd_like(8, 1), Format::Ell, false),
        ),
    ];
    for (name, study) in workloads {
        for (suffix, traced) in [("", TraceBlocks::Off), ("_traced", TraceBlocks::Replay)] {
            c.bench_function(&format!("layer/functional_sim/{name}{suffix}"), |b| {
                b.iter_batched(
                    || study.gmem.clone(),
                    |mut gmem| {
                        let mut sim =
                            FunctionalSim::new(&machine, &study.kernel, study.launch).unwrap();
                        sim.set_params(&study.params)
                            .set_threads(Threads::sequential())
                            .collect_traces(traced);
                        for r in &study.regions {
                            sim.add_region(r.name.clone(), r.base, r.len);
                        }
                        sim.run(&mut gmem).unwrap().stats
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
}

/// The replay `run_study` times for `study`, from the trace source its
/// functional pass hands over, with the study's texture regions.
fn replay(machine: &Machine, mut study: CaseStudy) -> impl FnMut() + '_ {
    let mut sim = FunctionalSim::new(machine, &study.kernel, study.launch).unwrap();
    sim.set_params(&study.params)
        .set_threads(Threads::sequential())
        .collect_traces(TraceBlocks::Replay);
    let mut timing = TimingSim::new(machine);
    let mut tex = Vec::new();
    for r in &study.regions {
        if r.texture {
            sim.add_texture_region(r.name.clone(), r.base, r.len);
            tex.push((r.base, r.len));
        } else {
            sim.add_region(r.name.clone(), r.base, r.len);
        }
    }
    timing.set_texture_regions(tex);
    let source = sim.run(&mut study.gmem).unwrap().trace_source().unwrap();
    move || {
        black_box(timing.run(&source, &study.launch, study.kernel.resources));
    }
}

fn bench_timing_replay(c: &mut Criterion) {
    let machine = Machine::gtx285();
    let workloads = [
        ("matmul256_t16", matmul::case(256, 16)),
        (
            "spmv_ell_tex",
            spmv::case(&spmv::qcd_like(8, 1), Format::Ell, true),
        ),
    ];
    for (name, study) in workloads {
        let mut run = replay(&machine, study);
        c.bench_function(&format!("layer/timing_replay/{name}"), |b| b.iter(&mut run));
    }
}

fn bench_calibrate(c: &mut Criterion) {
    let machine = Machine::gtx285();
    c.bench_function("layer/calibrate/gtx285_quick", |b| {
        b.iter(|| ThroughputCurves::measure_with(&machine, MeasureOpts::quick()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_functional_sim, bench_timing_replay, bench_calibrate
}
criterion_main!(benches);
