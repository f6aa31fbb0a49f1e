//! Figure 3: global-memory bandwidth vs number of blocks for the paper's
//! eight (threads, transactions-per-thread) configurations.

use gpa_bench::{paper_scale, rule};
use gpa_hw::Machine;
use gpa_ubench::gmem::{measure, GmemConfig};

fn main() {
    let paper = paper_scale(true);
    let m = Machine::gtx285();
    // The paper's legend: T = threads/block, M = 4-byte transactions/thread.
    let configs: [(u32, u32); 8] = [
        (512, 256),
        (256, 256),
        (256, 128),
        (128, 256),
        (128, 128),
        (64, 256),
        (512, 2),
        (256, 2),
    ];
    let max_blocks = if paper { 60 } else { 40 };
    println!("Figure 3: global bandwidth (GB/s) vs blocks");
    print!("{:>7}", "blocks");
    for (t, mm) in configs {
        print!(" {:>9}", format!("{t}T,{mm}M"));
    }
    println!();
    rule(7 + 10 * configs.len());
    for blocks in (1..=max_blocks).step_by(if paper { 1 } else { 3 }) {
        print!("{blocks:>7}");
        for (t, mm) in configs {
            let bw = measure(&m, GmemConfig::new(blocks, t, mm)) / 1e9;
            print!(" {bw:>9.1}");
        }
        println!();
    }
    rule(7 + 10 * configs.len());
    println!(
        "theoretical peak {:.0} GB/s; paper observes ~125 GB/s sustained,",
        m.peak_global_bandwidth() / 1e9
    );
    println!("a sawtooth of period 10 (blocks should be a multiple of 10), and");
    println!("near-linear growth while transactions are too few to cover latency.");
}
