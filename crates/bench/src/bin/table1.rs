//! Table 1: instruction classes, functional units, and peak throughputs,
//! plus our measured saturated throughput for each class — read from an
//! `Analyzer` session holding the (disk-cached) calibration.

use gpa_bench::{curves, rule};
use gpa_hw::{InstrClass, Machine};
use gpa_service::Analyzer;

fn main() {
    gpa_bench::paper_scale(false);
    let m = Machine::gtx285();
    let mut analyzer = Analyzer::new();
    analyzer
        .install(m.clone(), curves(&m))
        .expect("cached curves match the machine");
    let c = analyzer.curves("gtx285").expect("calibrated");
    println!("Table 1: instruction types ({})", m.name);
    rule(78);
    println!(
        "{:<10} {:>8} {:>22} {:>18} {:>12}",
        "type", "FUs/SM", "examples", "peak (Ginstr/s)", "measured"
    );
    rule(78);
    let examples = [
        "mul",
        "mov, add, mad",
        "sin, cos, lg2, rcp",
        "double precision",
    ];
    for class in InstrClass::ALL {
        let peak = m.peak_warp_instruction_throughput(class) / 1e9;
        let meas = c.instruction_throughput(class, 32) / 1e9;
        println!(
            "{:<10} {:>8} {:>22} {:>18.2} {:>12.2}",
            class.to_string(),
            m.fus(class),
            examples[class.index()],
            peak,
            meas
        );
    }
    rule(78);
    println!(
        "peak MAD throughput:      {:>8.1} Ginstr/s (paper: 11.1)",
        m.peak_warp_instruction_throughput(InstrClass::TypeII) / 1e9
    );
    println!(
        "peak single-precision:    {:>8.1} GFLOPS   (paper: 710.4)",
        m.peak_flops_sp() / 1e9
    );
    println!(
        "peak shared bandwidth:    {:>8.1} GB/s     (paper: 1420)",
        m.peak_shared_bandwidth() / 1e9
    );
    println!(
        "peak global bandwidth:    {:>8.1} GB/s     (paper: 160)",
        m.peak_global_bandwidth() / 1e9
    );
}
