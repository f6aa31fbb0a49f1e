//! Figure 6: simulated per-step component breakdown for CR and CR-NBC
//! (forward reduction phase, as in the paper).

use gpa_apps::tridiag;
use gpa_bench::{curves, paper_scale, rule};
use gpa_core::Model;
use gpa_hw::Machine;

fn main() {
    let paper = paper_scale(true);
    let m = Machine::gtx285();
    let mut model = Model::new(&m, curves(&m));
    let nsys = if paper { 512 } else { 128 };
    for padded in [false, true] {
        let name = if padded {
            "CR-NBC (Figure 6b)"
        } else {
            "CR (Figure 6a)"
        };
        let r = tridiag::case(512, nsys, padded)
            .run(&m, &mut model)
            .expect("CR runs");
        println!("{name}: {nsys} systems x 512 equations (paper: 512)");
        rule(76);
        println!(
            "{:>10} {:>11} {:>11} {:>11}  {:<20}",
            "step", "instr us", "shared us", "global us", "bottleneck"
        );
        rule(76);
        for (i, s) in r.analysis.stages.iter().enumerate().take(10) {
            let label = match i {
                0 => "load".to_owned(),
                k => format!("fwd {k}"),
            };
            println!(
                "{:>10} {:>11.3} {:>11.3} {:>11.3}  {:<20}",
                label,
                s.times.instr * 1e6,
                s.times.smem * 1e6,
                s.times.gmem * 1e6,
                s.bottleneck.to_string()
            );
        }
        rule(76);
        println!(
            "totals: measured {:.3} ms, predicted {:.3} ms (error {:+.1}%)\n",
            r.measured_seconds() * 1e3,
            r.predicted_seconds() * 1e3,
            r.model_error() * 100.0
        );
    }
    println!("paper: CR is global-bound in step 0, instruction-bound in step 1, and");
    println!("shared-memory-bound beyond; CR-NBC is instruction-bound throughout.");
}
