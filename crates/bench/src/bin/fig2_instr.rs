//! Figure 2 (left): instruction throughput per class vs warps per SM.

use gpa_bench::{curves, rule};
use gpa_hw::{InstrClass, Machine};

fn main() {
    gpa_bench::paper_scale(false);
    let m = Machine::gtx285();
    let c = curves(&m);
    println!("Figure 2 (left): instruction throughput (Ginstr/s) vs warps/SM");
    rule(64);
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "warps", "Type I", "Type II", "Type III", "Type IV"
    );
    rule(64);
    for &w in &c.warps {
        print!("{w:>6}");
        for class in InstrClass::ALL {
            print!(" {:>12.2}", c.instruction_throughput(class, w) / 1e9);
        }
        println!();
    }
    rule(64);
    println!("paper landmarks: Type II saturates at ~6 warps (pipeline ~6 stages);");
    println!("sustained Type II ≈ 9.3 of 11.1 Ginstr/s theoretical (84%).");
    let knee = c
        .warps
        .iter()
        .find(|&&w| {
            c.instruction_throughput(InstrClass::TypeII, w)
                > 0.95 * c.instruction_throughput(InstrClass::TypeII, 32)
        })
        .copied()
        .unwrap_or(0);
    println!(
        "ours: Type II reaches 95% of plateau at {} warps; plateau {:.2} Ginstr/s",
        knee,
        c.instruction_throughput(InstrClass::TypeII, 32) / 1e9
    );
}
