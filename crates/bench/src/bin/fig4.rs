//! Figure 4: matmul program statistics and performance per tile size.
//!
//! (a) dynamic counts: total instructions, MADs, shared transactions,
//!     global transactions; (b) measured time vs simulated component
//!     breakdown and GFLOPS.

use gpa_apps::matmul;
use gpa_bench::{curves, ms, paper_scale, rule};
use gpa_core::Model;
use gpa_hw::Machine;
use gpa_sim::stats::GRAN_GT200;

fn main() {
    let paper = paper_scale(true);
    let m = Machine::gtx285();
    let mut model = Model::new(&m, curves(&m));
    let n = if paper { 1024 } else { 512 };
    println!("Figure 4: dense matmul, n = {n} (paper: 1024)");

    // Paper values for n = 1024, in millions (Figure 4a) and ms (4b).
    let paper_counts = [
        (47.02, 33.55, 34.43, 4.75),
        (41.71, 33.55, 34.28, 2.65),
        (38.81, 33.55, 34.17, 1.61),
    ];
    let paper_times = [
        (6.0, 5.2, 4.0, 4.4),
        (5.4, 4.6, 3.9, 2.5),
        (5.6, 4.6, 5.0, 1.5),
    ];
    let paper_gflops = [356.0, 399.0, 397.0];

    rule(100);
    println!(
        "{:>7} {:>11} {:>9} {:>11} {:>11} | {:>9} {:>9} {:>9} {:>9} {:>8}",
        "tile",
        "instr(M)",
        "MAD(M)",
        "shared(M)",
        "global(M)",
        "meas ms",
        "instr ms",
        "shrd ms",
        "glob ms",
        "GFLOPS"
    );
    rule(100);
    for (i, tile) in matmul::TILES.into_iter().enumerate() {
        let r = matmul::run(&m, &mut model, n, tile, false).expect("matmul runs");
        let t = r.input.stats.total();
        let a = &r.analysis;
        let gflops = r.measured_gflops(matmul::flops(n));
        println!(
            "{:>7} {:>11.2} {:>9.2} {:>11.2} {:>11.2} | {:>9} {:>9} {:>9} {:>9} {:>8.0}",
            format!("{tile}x{tile}"),
            t.instr_total() as f64 / 1e6,
            t.fmad as f64 / 1e6,
            t.smem_warp_equiv() / 1e6,
            t.gmem[GRAN_GT200].transactions as f64 / 1e6,
            ms(r.measured_seconds()),
            ms(a.totals.instr),
            ms(a.totals.smem),
            ms(a.totals.gmem),
            gflops
        );
        let (pi, pm, ps, pg) = paper_counts[i];
        let (pt, pti, pts, ptg) = paper_times[i];
        println!(
            "{:>7} {:>11.2} {:>9.2} {:>11.2} {:>11.2} | {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.0}   <- paper (n=1024)",
            "", pi, pm, ps, pg, pt, pti, pts, ptg, paper_gflops[i]
        );
        println!(
            "{:>7} bottleneck: {} (next: {}); density {:.0}%",
            "",
            a.bottleneck,
            a.next_bottleneck,
            a.computational_density * 100.0
        );
    }
    rule(100);
    println!("paper findings: MAD count constant; totals fall with tile size; global");
    println!("transactions drop ~45%/40%; 16x16 fastest; 32x32 turns shared-memory-bound.");
}
