//! The paper's motivating contrast (§3): the traditional algorithmic-level
//! model cannot explain the case studies; the quantitative model can.
//!
//! For each case study we feed the traditional model the *algorithmic*
//! FLOP and byte counts and the measured time, and print its verdict next
//! to the quantitative model's bottleneck diagnosis.

use gpa_apps::{matmul, spmv, tridiag};
use gpa_bench::{curves, rule};
use gpa_core::{traditional_analysis, Model};
use gpa_hw::Machine;

fn main() {
    gpa_bench::paper_scale(false);
    let m = Machine::gtx285();
    let mut model = Model::new(&m, curves(&m));
    println!("Traditional (algorithmic) model vs the paper's quantitative model");
    rule(100);

    // ---- dense matmul 16x16, n = 512 ----
    let n = 512u64;
    let mm = matmul::run(&m, &mut model, n as u32, 16, false).unwrap();
    // Algorithmic counts: 2n^3 flops; 3 n^2 matrix elements moved once.
    let trad = traditional_analysis(&m, 2 * n * n * n, 3 * n * n * 4, mm.measured_seconds(), 0.5);
    println!("matmul 16x16 (n={n}):");
    println!("  traditional:  {trad}");
    println!(
        "  quantitative: bottleneck {} (density {:.0}%)",
        mm.analysis.bottleneck,
        mm.analysis.computational_density * 100.0
    );

    // ---- cyclic reduction, 128 systems ----
    let nsys = 128u64;
    let cr = tridiag::run(&m, &mut model, 512, nsys as u32, false, false).unwrap();
    // Algorithmic counts per system of size 512: forward ~12 flops per
    // eliminated equation + backward ~5 per solved equation; bytes: load
    // 4 arrays, store x.
    let eqs = 512u64;
    let flops = nsys * (12 * (eqs - 1) + 5 * eqs);
    let bytes = nsys * (4 * eqs * 4 + eqs * 4);
    let trad = traditional_analysis(&m, flops, bytes, cr.measured_seconds(), 0.5);
    println!("cyclic reduction ({nsys} x 512 systems):");
    println!("  traditional:  {trad}");
    println!(
        "  quantitative: bottleneck {} (bank-conflict factor x{:.2})",
        cr.analysis.bottleneck, cr.analysis.bank_conflict_factor
    );
    println!("  paper: \"neither computation-bound nor memory-bound ... 6 GFLOPS and 7 GB/s\";");
    println!("         the quantitative model finds the shared-memory wall the roofline hides.");

    // ---- SpMV, ELL, L = 8 ----
    let qcd = spmv::qcd_like(8, 9);
    let sp = spmv::run(&m, &mut model, &qcd, spmv::Format::Ell, false, false).unwrap();
    // Algorithmic: 2 flops/nnz; 12 bytes/nnz (value + index + vector).
    let trad = traditional_analysis(
        &m,
        sp_flops(&qcd),
        qcd.nnz() * 12,
        sp.measured_seconds(),
        0.5,
    );
    println!("SpMV ELL (L=8):");
    println!("  traditional:  {trad}");
    println!(
        "  quantitative: bottleneck {} (coalescing {:.0}%)",
        sp.analysis.bottleneck,
        sp.analysis.coalescing_efficiency * 100.0
    );
    rule(100);
    println!("the traditional model sees low fractions everywhere and explains nothing;");
    println!("the quantitative model names the wall and prices its removal (paper §3).");
}

fn sp_flops(m: &gpa_apps::spmv::BlockSparse) -> u64 {
    m.flops()
}
