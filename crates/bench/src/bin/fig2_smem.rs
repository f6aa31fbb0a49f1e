//! Figure 2 (right): shared-memory bandwidth vs warps per SM.

use gpa_bench::{curves, rule, vs_paper};
use gpa_hw::Machine;

fn main() {
    gpa_bench::paper_scale(false);
    let m = Machine::gtx285();
    let c = curves(&m);
    println!("Figure 2 (right): shared-memory bandwidth (GB/s) vs warps/SM");
    rule(40);
    println!("{:>6} {:>14}", "warps", "bandwidth");
    rule(40);
    for &w in &c.warps {
        println!("{w:>6} {:>14.0}", c.shared_bandwidth(w) / 1e9);
    }
    rule(40);
    println!("paper reference points (§5.1/§5.2):");
    for (w, paper) in [(6u32, 870.0), (8, 1029.0), (16, 1112.0), (32, 1165.0)] {
        let ours = c.shared_bandwidth(w) / 1e9;
        println!(
            "  {w:>2} warps: ours {ours:>6.0} GB/s, paper {paper:>6.0} GB/s ({})",
            vs_paper(ours, paper)
        );
    }
    println!(
        "theoretical peak: {:.0} GB/s (paper: 1420)",
        m.peak_shared_bandwidth() / 1e9
    );
}
