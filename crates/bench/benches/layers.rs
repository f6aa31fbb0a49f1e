//! Per-layer benchmarks, named after the telemetry phase they time.
//!
//! `layer/functional_sim/<workload>` runs the functional simulator — the
//! `functional_sim` span of a served request — over one paper case study,
//! sequentially, on the GTX 285: untraced (statistics only) and
//! `_traced` (every block's per-warp trace recorded too). Setup (kernel
//! build and the device-memory image) is excluded from the timing.
//! `tridiag256_unpadded` is the one workload whose shared accesses
//! conflict (2- to 16-way), so it times the bank-conflict path.
//!
//! ```sh
//! cargo bench -p gpa-bench --bench layers
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gpa_apps::spmv::{self, Format};
use gpa_apps::{matmul, tridiag};
use gpa_hw::Machine;
use gpa_sim::{FunctionalSim, Threads};

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
        for traced in [false, true] {
            let suffix = if traced { "_traced" } else { "" };
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_functional_sim
}
criterion_main!(benches);
