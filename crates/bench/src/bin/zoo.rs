//! Workload-zoo sweep: every named zoo workload on every Table 3 SKU,
//! through one batched `Analyzer` call, printed as a bottleneck/GFLOPS
//! grid. The zoo spans the model's diagnosis space — coalesced and
//! strided streaming, shared-memory staging, bank conflicts, contended
//! atomics, divergence — so this exhibit is a one-page portrait of what
//! each machine is limited by on each pattern.
//!
//! Default sizes keep the sweep quick; `--paper` selects each
//! workload's default (larger) size and full-resolution calibration.
//! The calibration and the batch pick their own worker counts.

use gpa_bench::{curves_with, paper_scale, rule};
use gpa_core::Component;
use gpa_hw::Machine;
use gpa_service::{zoo, AnalysisRequest, Analyzer, Effort, KernelSpec};

fn main() {
    let paper = paper_scale(true);
    let effort = if paper { Effort::Paper } else { Effort::Quick };

    let skus = Machine::paper_table3();
    let mut analyzer = Analyzer::new();
    for sku in &skus {
        analyzer
            .install(sku.clone(), curves_with(sku, effort.measure_opts()))
            .expect("cached curves match the machine");
    }

    let size = |w: &zoo::Workload| -> u32 {
        if paper {
            w.default_n
        } else {
            match w.name {
                "naive_transpose" | "shared_transpose" => 64,
                _ => 1024,
            }
        }
    };

    // One batch over the whole workload × SKU grid.
    let requests: Vec<AnalysisRequest> = zoo::WORKLOADS
        .iter()
        .flat_map(|w| {
            skus.iter().map(|sku| {
                AnalysisRequest::new(
                    KernelSpec::Named {
                        name: w.name.to_owned(),
                        n: size(w),
                        seed: 1,
                    },
                    &sku.name,
                )
            })
        })
        .collect();
    let reports = analyzer.analyze_batch(&requests);
    let mut it = reports.into_iter();

    println!("Workload zoo: bottleneck and GFLOPS per Table 3 SKU");
    let width = 28 + 22 * skus.len();
    rule(width);
    print!("{:<28}", "workload");
    for sku in &skus {
        print!(" {:>21}", sku.name.replace("GeForce ", ""));
    }
    println!();
    rule(width);
    for w in &zoo::WORKLOADS {
        print!("{:<28}", format!("{} n={}", w.name, size(w)));
        for _ in &skus {
            let report = it.next().expect("grid answer").expect("workload analyzes");
            let gflops = if report.flops > 0 {
                format!("{:.1}", report.flops as f64 / report.measured_seconds / 1e9)
            } else {
                "-".into()
            };
            print!(" {:>13} {:>7}", short(report.analysis.bottleneck), gflops);
        }
        println!();
    }
    rule(width);
    println!("columns per SKU: bottleneck component, GFLOPS from the timing simulator");
    println!("(`-` = no floating-point work). Atomic workloads should pin the atomic");
    println!("unit, the conflict workload shared memory, the strided/gather/transpose");
    println!("workloads global memory.");
}

fn short(c: Component) -> &'static str {
    match c {
        Component::InstructionPipeline => "instr",
        Component::SharedMemory => "smem",
        Component::GlobalMemory => "gmem",
        Component::AtomicUnit => "atomic",
    }
}
