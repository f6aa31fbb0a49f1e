//! Table 3: the paper's cross-GPU validation — run the three case
//! studies on every Table 3 SKU (GTX 285 flagship, 9800 GTX, 8800 GT)
//! through one `Analyzer` session holding all three calibrated profiles,
//! and print the per-SKU predictions side by side.
//!
//! Default sizes keep the sweep quick; `--paper` selects the paper-scale
//! problems (and full-resolution calibration). The calibration and the
//! batch pick their own worker counts; calibrations are cached under
//! `results/` like every other exhibit.

use gpa_bench::{curves_with, paper_scale, rule, vs_paper};
use gpa_hw::Machine;
use gpa_service::{AnalysisRequest, Analyzer, Effort, KernelSpec};

fn main() {
    let paper = paper_scale(true);
    let effort = if paper { Effort::Paper } else { Effort::Quick };

    let skus = Machine::paper_table3();
    let mut analyzer = Analyzer::new();
    for sku in &skus {
        analyzer
            .install(sku.clone(), curves_with(sku, effort.measure_opts()))
            .expect("cached curves match the machine");
    }

    let (mm_n, cr_nsys, spmv_l) = if paper { (1024, 256, 8) } else { (256, 64, 4) };
    let cases = [
        (
            format!("matmul 16x16 n={mm_n}"),
            KernelSpec::Matmul { n: mm_n, tile: 16 },
        ),
        (
            format!("CR n=512 nsys={cr_nsys}"),
            KernelSpec::Tridiag {
                n: 512,
                nsys: cr_nsys,
                padded: false,
            },
        ),
        (
            format!("SpMV BELL+IMIV l={spmv_l}"),
            KernelSpec::Spmv {
                l: spmv_l,
                seed: 42,
                format: gpa_apps::spmv::Format::BellImIv,
                texture: true,
            },
        ),
    ];

    // One batch over the whole SKU × case grid.
    let requests: Vec<AnalysisRequest> = skus
        .iter()
        .flat_map(|sku| {
            cases
                .iter()
                .map(|(_, spec)| AnalysisRequest::new(spec.clone(), &sku.name))
        })
        .collect();
    let reports = analyzer.analyze_batch(&requests);

    println!("Table 3: per-SKU model predictions (ms, measured = timing simulator)");
    rule(30 + 26 * skus.len());
    print!("{:<30}", "case");
    for sku in &skus {
        print!(" {:>25}", sku.name.replace("GeForce ", ""));
    }
    println!();
    rule(30 + 26 * skus.len());
    let mut it = reports.iter();
    let mut rows: Vec<Vec<&gpa_service::AnalysisReport>> = vec![Vec::new(); cases.len()];
    for _ in &skus {
        for row in rows.iter_mut() {
            row.push(it.next().unwrap().as_ref().expect("case analyzes"));
        }
    }
    for ((label, _), row) in cases.iter().zip(&rows) {
        print!("{label:<30}");
        for report in row {
            print!(
                " {:>11} pred {:>4} err",
                format!(
                    "{:.3}/{:.3}",
                    report.analysis.predicted_seconds * 1e3,
                    report.measured_seconds * 1e3
                ),
                vs_paper(report.analysis.predicted_seconds, report.measured_seconds),
            );
        }
        println!();
    }
    rule(30 + 26 * skus.len());
    println!("columns per SKU: predicted/measured ms, signed model error.");
    println!("paper Table 3 reports 5-15% magnitudes across these GPUs; the G92 SKUs");
    println!("differ from the flagship in SM count, clocks, residency, and bus width.");
    for (sku, row) in skus.iter().zip(rows_by_sku(&rows, skus.len())) {
        let worst = row
            .iter()
            .map(|r| (r.model_error().abs() * 100.0).round() as i64)
            .max()
            .unwrap_or(0);
        println!("  {:<18} worst-case |error| {worst}%", sku.name);
    }
}

/// Transpose the case-major rows into SKU-major rows.
fn rows_by_sku<'a>(
    rows: &'a [Vec<&'a gpa_service::AnalysisReport>],
    skus: usize,
) -> Vec<Vec<&'a gpa_service::AnalysisReport>> {
    (0..skus)
        .map(|s| rows.iter().map(|row| row[s]).collect())
        .collect()
}
