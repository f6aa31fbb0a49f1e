//! Architectural ablations: the hardware improvements the paper *suggests*
//! from its analysis, actually simulated.
//!
//! * §5.1: raise the resident-block ceiling from 8 to 16 so small-block
//!   kernels (matmul's 64-thread blocks) reach 32 warps/SM.
//! * §5.1: double the per-SM register file and shared memory so the 32×32
//!   tile keeps its computational-density advantage at full occupancy.
//! * §5.2: make the number of shared-memory banks prime (17) to remove
//!   power-of-two-stride conflicts without code changes.

use gpa_apps::{matmul, tridiag};
use gpa_bench::{curves, ms, rule};
use gpa_core::Model;
use gpa_hw::Machine;

fn main() {
    gpa_bench::paper_scale(false);
    let base = Machine::gtx285();
    let shared_curves = curves(&base);
    let n = 512;
    let nsys = 128;

    println!("Architectural ablations (the paper's §5 suggestions, simulated)");
    rule(78);
    println!(
        "{:<44} {:>12} {:>10} {:>8}",
        "configuration", "measured ms", "baseline", "speedup"
    );
    rule(78);

    // ---- §5.1: 16 resident blocks for the 16×16 matmul ----
    let mut model = Model::new(&base, shared_curves.clone());
    let mm_base = matmul::run(&base, &mut model, n, 16, false).unwrap();
    let mut m16 = base.clone();
    m16.max_blocks_per_sm = 16;
    let mut model16 = Model::new(&m16, shared_curves.clone());
    let mm_16 = matmul::run(&m16, &mut model16, n, 16, false).unwrap();
    println!(
        "{:<44} {:>12} {:>10} {:>7.2}x",
        "matmul 16x16, 16 resident blocks (32 warps)",
        ms(mm_16.measured_seconds()),
        ms(mm_base.measured_seconds()),
        mm_base.measured_seconds() / mm_16.measured_seconds()
    );

    // ---- §5.1: double registers + shared memory for the 32×32 tile ----
    let mm32_base = matmul::run(&base, &mut model, n, 32, false).unwrap();
    let mut big = base.clone();
    big.regs_per_sm *= 2;
    big.smem_per_sm *= 2;
    let mut model_big = Model::new(&big, shared_curves.clone());
    let mm32_big = matmul::run(&big, &mut model_big, n, 32, false).unwrap();
    println!(
        "{:<44} {:>12} {:>10} {:>7.2}x",
        "matmul 32x32, 2x registers & shared memory",
        ms(mm32_big.measured_seconds()),
        ms(mm32_base.measured_seconds()),
        mm32_base.measured_seconds() / mm32_big.measured_seconds()
    );

    // ---- §5.2: 17 shared-memory banks for plain CR ----
    let cr_base = tridiag::run(&base, &mut model, 512, nsys, false, false).unwrap();
    let mut prime = base.clone();
    prime.smem_banks = 17;
    let mut model_p = Model::new(&prime, shared_curves.clone());
    let cr_prime = tridiag::run(&prime, &mut model_p, 512, nsys, false, true).unwrap();
    println!(
        "{:<44} {:>12} {:>10} {:>7.2}x",
        "plain CR, 17 (prime) shared-memory banks",
        ms(cr_prime.measured_seconds()),
        ms(cr_base.measured_seconds()),
        cr_base.measured_seconds() / cr_prime.measured_seconds()
    );
    println!(
        "{:<44} conflict factor {:.2} -> {:.2}",
        "", cr_base.analysis.bank_conflict_factor, cr_prime.analysis.bank_conflict_factor
    );

    // Software fix for comparison.
    let nbc = tridiag::run(&base, &mut model, 512, nsys, true, false).unwrap();
    println!(
        "{:<44} {:>12} {:>10} {:>7.2}x",
        "  (software fix for comparison: CR-NBC)",
        ms(nbc.measured_seconds()),
        ms(cr_base.measured_seconds()),
        cr_base.measured_seconds() / nbc.measured_seconds()
    );
    rule(78);
    println!("paper: more resident blocks would raise instruction and shared throughput");
    println!("for small-block kernels; prime banks would remove CR's conflicts entirely.");
}
