#![warn(missing_docs)]

//! Regeneration harness for every table and figure of the paper.
//!
//! Each `src/bin/*.rs` binary reproduces one exhibit:
//!
//! | Binary | Paper exhibit |
//! |--------|---------------|
//! | `table1` | Table 1: instruction classes, functional units, peaks |
//! | `fig2_instr` | Figure 2 (left): instruction throughput vs warps/SM |
//! | `fig2_smem` | Figure 2 (right): shared-memory bandwidth vs warps/SM |
//! | `fig3_gmem` | Figure 3: global bandwidth vs blocks, eight configs |
//! | `table2` | Table 2: matmul occupancy |
//! | `table3` | Table 3: case studies across all three SKUs via `gpa_service::Analyzer` |
//! | `fig4` | Figure 4: matmul counts, breakdown, GFLOPS |
//! | `fig5` | Figure 5: CR communication pattern / conflict degrees |
//! | `fig6` | Figure 6: CR and CR-NBC per-step breakdown |
//! | `fig7` | Figure 7: per-step bandwidth and transaction counts |
//! | `fig8` | Figure 8: CR vs CR-NBC, measured vs simulated |
//! | `fig10` | Figure 10: vector-interleaving transaction grouping |
//! | `fig11` | Figure 11: SpMV bytes/entry and breakdown |
//! | `fig12` | Figure 12: SpMV GFLOPS, six variants |
//!
//! Binaries print the paper's reported values next to ours; run them in
//! release mode (`cargo run --release -p gpa-bench --bin fig4`). Passing
//! `--paper` selects the paper's full problem sizes. The simulation
//! engine picks its own worker count, and the output is bit-identical at
//! every count.
//!
//! `benches/primitives.rs` holds Criterion microbenchmarks of the
//! simulator substrate itself (coalescer, bank conflicts, functional and
//! timing simulation, parallel engine sharding, model analysis);
//! `benches/layers.rs` times one request phase per bench, named
//! `layer/<phase>/<workload>` after the telemetry phase.

use gpa_hw::Machine;
use gpa_ubench::{MeasureOpts, ThroughputCurves};
use std::fs;
use std::path::PathBuf;

/// Where figure outputs and cached measurements live — the same
/// `results/` directory `gpa-analyze` and `gpa-serve` use
/// ([`gpa_ubench::cache::default_dir`] is the single definition, so the
/// three surfaces can never drift apart and stop sharing calibration).
pub fn results_dir() -> PathBuf {
    let dir = gpa_ubench::cache::default_dir();
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Content-hashed cache file for one `(machine, effort)` combination:
/// `results/curves-<name-slug>-<hash>.json`.
///
/// Delegates to [`gpa_ubench::cache::cache_path`] (the shared cache the
/// `gpa-analyze` CLI and the `gpa-serve` HTTP server also read): the key
/// covers every [`Machine`] field and the effort knobs of
/// [`MeasureOpts`] (`unroll`, `iters`, `dense`), so per-SKU and
/// per-effort curves never collide. The `threads` selection is
/// deliberately excluded: it changes wall-clock, not results.
pub fn curves_cache_path(machine: &Machine, opts: &MeasureOpts) -> PathBuf {
    gpa_ubench::cache::cache_path(&results_dir(), machine, opts)
}

/// Load the full-resolution throughput curves for `machine`, measuring
/// and caching them on first use.
pub fn curves(machine: &Machine) -> ThroughputCurves {
    curves_with(machine, MeasureOpts::paper())
}

/// Load throughput curves at explicit effort, measuring and caching on
/// first use under a content-hashed key ([`curves_cache_path`]).
///
/// Entries are written atomically (temp file + rename) and a torn or
/// unparseable entry falls back to recalibration, so concurrent
/// `gpa-bench` / `gpa-analyze` / `gpa-serve` processes can share
/// `results/` safely — see [`gpa_ubench::cache`].
pub fn curves_with(machine: &Machine, opts: MeasureOpts) -> ThroughputCurves {
    gpa_ubench::cache::load_or_measure(&results_dir(), machine, opts)
}

/// `true` when the binary was invoked with `--paper` (full problem sizes).
pub fn paper_scale() -> bool {
    std::env::args().any(|a| a == "--paper")
}

/// Print a rule line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Format seconds as milliseconds with 3 decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Relative difference `ours` vs `paper` in percent, signed.
pub fn vs_paper(ours: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "n/a".into();
    }
    format!("{:+.0}%", (ours - paper) / paper * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_sim::Threads;

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn cache_keys_separate_skus_and_efforts() {
        let gtx285 = Machine::gtx285();
        let paper = MeasureOpts::paper();
        let base = curves_cache_path(&gtx285, &paper);
        assert!(base
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("curves-geforce-gtx-285-"));
        // Different SKU → different key.
        assert_ne!(base, curves_cache_path(&Machine::geforce_8800gt(), &paper));
        // Same SKU, different effort → different key.
        assert_ne!(base, curves_cache_path(&gtx285, &MeasureOpts::quick()));
        // A perturbed machine (what-if experiments) → different key.
        let mut perturbed = gtx285.clone();
        perturbed.max_blocks_per_sm = 16;
        assert_ne!(base, curves_cache_path(&perturbed, &paper));
        // Thread count does not affect results, so it shares the key.
        assert_eq!(
            base,
            curves_cache_path(&gtx285, &paper.with_threads(Threads::Fixed(8)))
        );
        // Stable across calls.
        assert_eq!(
            base,
            curves_cache_path(&Machine::gtx285(), &MeasureOpts::paper())
        );
    }

    #[test]
    fn formatting() {
        assert_eq!(ms(0.0123), "12.300");
        assert_eq!(vs_paper(1.1, 1.0), "+10%");
        assert_eq!(vs_paper(1.0, 0.0), "n/a");
    }
}
