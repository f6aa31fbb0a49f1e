//! Figure 12: SpMV GFLOPS for the six optimization combinations.

use gpa_apps::spmv::{self, Format};
use gpa_bench::{curves, paper_scale, rule, vs_paper};
use gpa_core::Model;
use gpa_hw::Machine;
use std::time::Instant;

fn main() {
    let paper = paper_scale(true);
    let m = Machine::gtx285();
    let mut model = Model::new(&m, curves(&m));
    let l = if paper { 12 } else { 8 };
    let start = Instant::now();
    let mat = spmv::qcd_like(l, 0xACDC);
    println!(
        "Figure 12: SpMV GFLOPS, QCD-like operator, L = {l} ({} nnz; paper matrix: 1.9M nnz)",
        mat.nnz()
    );
    rule(64);
    println!("{:>18} {:>12} {:>14}", "variant", "GFLOPS", "paper GFLOPS");
    rule(64);
    // Paper's bars: ELL 15.9, BELL+IM 23.4, ELL+Cache 23.4,
    // BELL+IM+Cache 32.0, BELL+IMIV 33.7, BELL+IMIV+Cache 37.7.
    let variants: [(Format, bool, f64); 6] = [
        (Format::Ell, false, 15.9),
        (Format::BellIm, false, 23.4),
        (Format::Ell, true, 23.4),
        (Format::BellIm, true, 32.0),
        (Format::BellImIv, false, 33.7),
        (Format::BellImIv, true, 37.7),
    ];
    let mut seconds = std::collections::HashMap::new();
    for (format, cache, paper) in variants {
        let r = spmv::run(&m, &mut model, &mat, format, cache, false).expect("spmv runs");
        let gflops = r.measured_gflops(mat.flops());
        let name = format!("{}{}", format.name(), if cache { "+Cache" } else { "" });
        println!("{name:>18} {gflops:>12.1} {paper:>14.1}");
        seconds.insert((format, cache), r.measured_seconds());
    }
    rule(64);
    let best = seconds[&(Format::BellImIv, true)];
    let prior = seconds[&(Format::BellIm, true)];
    let gain = prior / best - 1.0;
    println!(
        "BELL+IMIV+Cache vs prior best BELL+IM+Cache: {:+.0}% (paper: +18%, {})",
        gain * 100.0,
        vs_paper(1.0 + gain, 1.18)
    );
    println!("paper: vector interleaving wins even without the texture cache.");
    eprintln!("[fig12] simulated in {:.2}s", start.elapsed().as_secs_f64());
}
