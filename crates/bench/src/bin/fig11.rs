//! Figure 11: SpMV bytes per matrix entry by region and transaction
//! granularity (a), and measured vs simulated breakdown (b).

use gpa_apps::spmv::{self, Format};
use gpa_bench::{curves, ms, paper_scale, rule};
use gpa_core::Model;
use gpa_hw::Machine;

fn main() {
    let paper = paper_scale(true);
    let m = Machine::gtx285();
    let mut model = Model::new(&m, curves(&m));
    let l = if paper { 12 } else { 8 };
    let mat = spmv::qcd_like(l, 0xACDC);
    println!(
        "Figure 11: SpMV on the QCD-like operator, L = {l} ({} rows, {} nnz)",
        mat.rows(),
        mat.nnz()
    );

    println!("\n(a) average bytes per matrix entry (32 / 16 / 4 B granularity)");
    rule(86);
    println!(
        "{:>10} | {:>21} | {:>21} | {:>21}",
        "format", "matrix entry", "column index", "vector entry"
    );
    rule(86);
    let mut runs = Vec::new();
    for format in Format::ALL {
        let r = spmv::run(&m, &mut model, &mat, format, false, false).expect("spmv runs");
        let row = |region: &str| -> String {
            format!(
                "{:>6.2} {:>6.2} {:>6.2}",
                spmv::bytes_per_entry(&r, &mat, region, 0),
                spmv::bytes_per_entry(&r, &mat, region, 1),
                spmv::bytes_per_entry(&r, &mat, region, 2)
            )
        };
        println!(
            "{:>10} | {:>21} | {:>21} | {:>21}",
            format.name(),
            row("matrix"),
            row("colidx"),
            row("vector")
        );
        runs.push(r);
    }
    rule(86);
    println!("paper (QCD): matrix 4.00 everywhere; colidx 4.00 (ELL) vs 0.44 (BELL);");
    println!("vector: ELL 6.69/4.55/4.00, interleaving and finer granularity both cut bytes.");

    println!("\n(b) measured vs simulated breakdown");
    rule(86);
    println!(
        "{:>10} {:>12} {:>12} {:>9} | {:>10} {:>10} {:>10}",
        "format", "measured ms", "simul. ms", "error", "instr ms", "shared ms", "global ms"
    );
    rule(86);
    for (format, r) in Format::ALL.iter().zip(&runs) {
        println!(
            "{:>10} {:>12} {:>12} {:>8.1}% | {:>10} {:>10} {:>10}",
            format.name(),
            ms(r.measured_seconds()),
            ms(r.predicted_seconds()),
            r.model_error() * 100.0,
            ms(r.analysis.totals.instr),
            ms(r.analysis.totals.smem),
            ms(r.analysis.totals.gmem)
        );
        assert_eq!(r.analysis.bottleneck, gpa_core::Component::GlobalMemory);
    }
    rule(86);
    println!("paper: all three formats are global-memory-bound (error within 5%);");
    println!("with 16 B transactions performance would improve further (granularity");
    println!("what-if below).");
    let w = model.what_if_granularity(&runs[0].input, 1);
    println!("what-if 16 B granularity on ELL: x{:.2}", w.speedup);
}
