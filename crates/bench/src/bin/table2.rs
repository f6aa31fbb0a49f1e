//! Table 2: matmul resource usage and occupancy per sub-matrix size —
//! the static occupancy calculation side by side with the occupancy an
//! `Analyzer` run actually reports.

use gpa_bench::{curves_with, rule};
use gpa_hw::{occupancy, Machine};
use gpa_service::{AnalysisRequest, Analyzer, KernelSpec};
use gpa_ubench::MeasureOpts;

fn main() {
    let m = Machine::gtx285();
    let mut analyzer = Analyzer::new();
    analyzer
        .install(m.clone(), curves_with(&m, MeasureOpts::quick()))
        .expect("cached curves match the machine");

    // n = 384 is the smallest grid valid for every tile size (multiple
    // of 8, 16, 32, and 64); occupancy is independent of n.
    let requests: Vec<AnalysisRequest> = gpa_apps::matmul::TILES
        .iter()
        .map(|&tile| AnalysisRequest::new(KernelSpec::Matmul { n: 384, tile }, "gtx285"))
        .collect();
    let reports = analyzer.analyze_batch(&requests);

    println!("Table 2: dense matmul occupancy (64-thread blocks)");
    rule(100);
    println!(
        "{:>9} {:>9} {:>9} {:>14} {:>10} {:>8} {:>13} {:>14}",
        "tile",
        "regs",
        "smem B",
        "blocks(regs)",
        "blocks(sm)",
        "blocks",
        "active warps",
        "analyzer b/w"
    );
    rule(100);
    for (tile, report) in gpa_apps::matmul::TILES.iter().zip(&reports) {
        let r = gpa_apps::matmul::paper_resources(*tile);
        let o = occupancy(&m, r);
        let report = report.as_ref().expect("matmul analyzes");
        assert_eq!(report.analysis.resident_blocks, o.blocks, "tile {tile}");
        assert_eq!(
            report.analysis.resident_warps, o.active_warps,
            "tile {tile}"
        );
        println!(
            "{:>9} {:>9} {:>9} {:>14} {:>10} {:>8} {:>13} {:>14}",
            format!("{tile}x{tile}"),
            r.regs_per_thread,
            r.smem_per_block,
            o.blocks_by_regs,
            o.blocks_by_smem,
            o.blocks,
            o.active_warps,
            format!(
                "{}/{}",
                report.analysis.resident_blocks, report.analysis.resident_warps
            ),
        );
    }
    rule(100);
    println!("paper rows: 8x8: min(16,47,8)=8 blocks, 16 warps; 16x16: min(8,15,8)=8, 16;");
    println!("            32x32: min(3,3,8)=3 blocks, 6 warps.");
    println!("(our register column shows 4 where the paper lists 3 for 32x32; the shared-");
    println!(" memory ceiling binds either way, so occupancy matches.)");
}
