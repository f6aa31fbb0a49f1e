//! Figure 10: why interleaving the vector helps — transaction grouping
//! under the paper's simplified issue model (2-thread granularity, 8-byte
//! transactions) for a small blocked gather.

use gpa_bench::rule;
use gpa_mem::coalesce::{coalesce_half_warp, CoalesceConfig};

/// Four threads, each owning one block-row of a 4-block-row matrix whose
/// slots reference the diagonal and the right neighbour (periodic) — the
/// 1-D skeleton of the QCD-like operator. `bcol(t, j)` is the block column
/// thread `t` gathers in slot `j`.
fn bcol(t: u64, j: u64) -> u64 {
    (t + j) % 4
}

fn total_bytes(addr_of: impl Fn(u64, u64) -> u64) -> u64 {
    // Paper's simplified model: transactions issue for 2 threads at a time
    // and are 8 bytes long.
    let cfg = CoalesceConfig {
        min_segment: 8,
        max_segment: 8,
    };
    let mut bytes = 0;
    for j in 0..2u64 {
        for p in 0..3u64 {
            for pair in [[0u64, 1], [2, 3]] {
                let accesses: Vec<Option<(u64, u32)>> = pair
                    .iter()
                    .map(|t| Some((addr_of(bcol(*t, j), p) * 4, 4u32)))
                    .collect();
                bytes += coalesce_half_warp(&accesses, cfg)
                    .iter()
                    .map(|t| u64::from(t.size))
                    .sum::<u64>();
            }
        }
    }
    bytes
}

fn main() {
    gpa_bench::paper_scale(false);
    println!("Figure 10: vector storage vs memory-transaction grouping");
    println!("(4 threads gather x[3c..3c+3] for their block columns; 2-thread");
    println!(" transaction issue, 8-byte transactions — the paper's toy model)");
    rule(68);
    // Straightforward: x[3c + p] lives at position 3c + p.
    let straight = total_bytes(|c, p| 3 * c + p);
    // Interleaved: plane p holds x[3c + p] at position p·4 + c.
    let inter = total_bytes(|c, p| p * 4 + c);
    let useful = 2 * 3 * 4 * 4; // slots × planes × threads × 4 B
    println!("{:>28} {:>10} {:>16}", "storage", "bytes", "useful bytes");
    rule(68);
    println!("{:>28} {straight:>10} {useful:>16}", "straightforward");
    println!("{:>28} {inter:>10} {useful:>16}", "interleaved");
    rule(68);
    println!(
        "interleaving cuts gather traffic x{:.2}: neighbouring threads' entries",
        straight as f64 / inter as f64
    );
    println!("of the same plane are adjacent, so they share transactions - the");
    println!("paper's Figure 10(b) effect, measured at scale in fig11/fig12.");
}
