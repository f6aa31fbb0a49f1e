//! Figure 8: CR vs CR-NBC — measured and simulated totals.

use gpa_apps::tridiag;
use gpa_bench::{curves, ms, paper_scale, rule, vs_paper};
use gpa_core::Model;
use gpa_hw::Machine;

fn main() {
    let paper = paper_scale(true);
    let m = Machine::gtx285();
    let mut model = Model::new(&m, curves(&m));
    let nsys = if paper { 512 } else { 128 };
    println!("Figure 8: CR vs CR-NBC, {nsys} systems x 512 equations (paper: 512)");
    rule(88);
    println!(
        "{:>8} {:>12} {:>12} {:>9} | {:>11} {:>11} {:>11}",
        "solver", "measured ms", "simul. ms", "error", "instr ms", "shared ms", "global ms"
    );
    rule(88);
    let mut results = Vec::new();
    for padded in [false, true] {
        let r = tridiag::run(&m, &mut model, 512, nsys, padded, true).expect("solvers run");
        let at = r.analysis.serialized_attribution;
        println!(
            "{:>8} {:>12} {:>12} {:>8.1}% | {:>11} {:>11} {:>11}",
            if padded { "CR-NBC" } else { "CR" },
            ms(r.measured_seconds()),
            ms(r.predicted_seconds()),
            r.model_error() * 100.0,
            ms(at.instr),
            ms(at.smem),
            ms(at.gmem)
        );
        results.push(r);
    }
    rule(88);
    let speedup = results[0].measured_seconds() / results[1].measured_seconds();
    let what_if = model.what_if_no_bank_conflicts(&results[0].input);
    println!(
        "measured speedup CR → CR-NBC: x{speedup:.2} (paper: x1.62, {})",
        vs_paper(speedup, 1.62)
    );
    println!(
        "model's a-priori estimate of removing conflicts: x{:.2} (paper model: x1.83)",
        what_if.speedup
    );
    println!("paper: CR dominated by shared-memory time, CR-NBC by instruction time;");
    println!("measured vs simulated within 7% (paper), see error column for ours.");
}
