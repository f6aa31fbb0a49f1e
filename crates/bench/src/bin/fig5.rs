//! Figure 5: the cyclic-reduction communication pattern — stride, active
//! threads, and bank-conflict degree per forward-reduction step.

use gpa_bench::rule;
use gpa_mem::bank::{bank_transactions, BankConfig};

fn main() {
    gpa_bench::paper_scale(false);
    let n: u32 = 512;
    println!("Figure 5: CR forward reduction on a {n}-equation system");
    rule(66);
    println!(
        "{:>6} {:>8} {:>15} {:>15} {:>12}",
        "step", "stride", "active threads", "conflict (way)", "padded (way)"
    );
    rule(66);
    let cfg = BankConfig::gt200();
    for s in 1..=n.trailing_zeros() {
        let stride = 1u64 << (s - 1);
        let active = n >> s;
        // Half-warp of accesses at the step's stride (wrapped like the kernel).
        let addrs: Vec<Option<u64>> = (0..16u64)
            .map(|i| Some((((i + 1) << s) - 1) % u64::from(n) * 4))
            .collect();
        let way = bank_transactions(&addrs, cfg);
        let padded: Vec<Option<u64>> = addrs
            .iter()
            .map(|a| a.map(|b| (b / 4 + b / 4 / 16) * 4))
            .collect();
        let pway = bank_transactions(&padded, cfg);
        println!("{s:>6} {stride:>8} {active:>15} {way:>15} {pway:>12}");
    }
    rule(66);
    println!("paper: conflicts double each step (2-way, 4-way, 8-way, ...) until the");
    println!("16-bank cap; padding one word per 16 (CR-NBC) redirects them to free banks.");
}
