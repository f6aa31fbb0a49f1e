//! Bit-identity fingerprints of the timing replay.
//!
//! `tests/sim_fingerprint.rs` pins the functional simulator; this sweep
//! pins what the timing simulator makes of its traces. Every run of that
//! sweep is replayed on each Table 3 SKU twice: from the trace source
//! `run_study` replays (its functional pass observes whether the grid is
//! uniform; the golden keeps the older label `declared` for it, so the
//! file stays byte-identical), and from every block's own trace
//! (`TraceSource::PerBlock`, so every cluster is replayed). Each `TimingResult` is reduced to one FNV-1a hash of the
//! bits of all its fields and compared with
//! `tests/golden/timing_fingerprints.txt`. The quick throughput curves of
//! each SKU — the microbenchmarks that calibrate the model, themselves
//! timing replays — are hashed the same way.
//!
//! The default (debug) test checks a small subset; the full sweep is
//! ignored by default and runs under
//! `cargo test --release --test timing_fingerprint -- --ignored`.
//! Regenerate the file with `GPA_BLESS=1` on that same command — only when
//! the output is meant to change.

mod fingerprint;

use fingerprint::{check_golden, runs, Run};
use gpa::apps::workflow::run_study;
use gpa::hw::Machine;
use gpa::model::Model;
use gpa::sim::{FunctionalSim, Threads, TimingResult, TimingSim, TraceBlocks, TraceSource};
use gpa::ubench::cache::fnv1a;
use gpa::ubench::{MeasureOpts, ThroughputCurves};

/// Synthetic curves: only the timing replay is fingerprinted, never the
/// model's prediction.
fn model(machine: &Machine) -> Model<'_> {
    Model::new(
        machine,
        ThroughputCurves {
            machine_name: machine.name.clone(),
            warps: vec![1, 32],
            instr: std::array::from_fn(|_| vec![1e9, 1e10]),
            smem: vec![1e10, 1e11],
        },
    )
}

fn hash_timing(r: &TimingResult) -> u64 {
    let mut bytes = Vec::new();
    for x in [r.cycles, r.seconds] {
        bytes.extend(x.to_bits().to_le_bytes());
    }
    bytes.extend((r.per_cluster_cycles.len() as u64).to_le_bytes());
    for x in &r.per_cluster_cycles {
        bytes.extend(x.to_bits().to_le_bytes());
    }
    bytes.extend(r.issued.to_le_bytes());
    for x in [r.alu_busy, r.smem_busy, r.pipe_busy] {
        bytes.extend(x.to_bits().to_le_bytes());
    }
    bytes.extend(r.gmem_bytes.to_le_bytes());
    bytes.extend(r.tex_hit_rate.to_bits().to_le_bytes());
    fnv1a(&bytes)
}

/// The replay of `run_study`'s own source, as it times the study.
fn declared(machine: &Machine, run: &Run) -> TimingResult {
    let mut study = (run.build)();
    run_study(
        machine,
        &mut model(machine),
        &mut study,
        Threads::sequential(),
        None,
    )
    .unwrap()
    .timing
}

/// The replay of every block's own trace, on every cluster.
fn all_blocks(machine: &Machine, run: &Run) -> TimingResult {
    let mut study = (run.build)();
    let mut func = FunctionalSim::new(machine, &study.kernel, study.launch).unwrap();
    func.set_params(&study.params)
        .set_threads(Threads::sequential())
        .collect_traces(TraceBlocks::All);
    let mut timing = TimingSim::new(machine);
    let mut tex = Vec::new();
    for r in &study.regions {
        if r.texture {
            func.add_texture_region(r.name.clone(), r.base, r.len);
            tex.push((r.base, r.len));
        } else {
            func.add_region(r.name.clone(), r.base, r.len);
        }
    }
    timing.set_texture_regions(tex);
    let traces = func.run(&mut study.gmem).unwrap().traces.unwrap();
    timing.run(
        &TraceSource::PerBlock(traces),
        &study.launch,
        study.kernel.resources,
    )
}

/// A trace source a run is replayed from: its golden-line name and the
/// replay.
type Source = (&'static str, fn(&Machine, &Run) -> TimingResult);

/// The two replays a run is fingerprinted under.
const SOURCES: [Source; 2] = [("declared", declared), ("all_blocks", all_blocks)];

/// The golden line of one replay: `<sku> | <case> | <source> | hash`.
fn fingerprint(machine: &Machine, run: &Run, (source, replay): Source) -> String {
    format!(
        "{} | {} | {source} | {:016x}",
        machine.name,
        run.case,
        hash_timing(&replay(machine, run))
    )
}

/// The golden line of one SKU's quick curves: `<sku> | curves quick | hash`.
fn curves_fingerprint(machine: &Machine) -> String {
    let c = ThroughputCurves::measure_with(machine, MeasureOpts::quick());
    let mut bytes = Vec::new();
    for &w in &c.warps {
        bytes.extend(w.to_le_bytes());
    }
    for ys in c.instr.iter().chain([&c.smem]) {
        for y in ys {
            bytes.extend(y.to_bits().to_le_bytes());
        }
    }
    format!("{} | curves quick | {:016x}", machine.name, fnv1a(&bytes))
}

/// Compute the lines for every `(sku, case, source)` and every SKU's
/// curves that the filters select, and compare them with the golden
/// file's lines for the same keys. Returns how many lines were checked.
fn check(
    keep: impl Fn(&Machine, &str, &str) -> bool,
    keep_curves: impl Fn(&Machine) -> bool,
    bless: bool,
) -> usize {
    let mut got = Vec::new();
    let runs = runs();
    for machine in Machine::paper_table3() {
        for run in &runs {
            for source in SOURCES {
                if keep(&machine, &run.case, source.0) {
                    got.push(fingerprint(&machine, run, source));
                }
            }
        }
        if keep_curves(&machine) {
            got.push(curves_fingerprint(&machine));
        }
    }
    check_golden("timing_fingerprints.txt", &got, bless)
}

/// A quick cross-section for the debug suite: both trace sources, the
/// homogeneous and per-block replays, texture and conflicted shared
/// memory, and one SKU's curves.
#[test]
fn timing_fingerprint_subset_matches_golden() {
    let subset = [
        ("GeForce GTX 285", "matmul n=128 tile=16", "declared"),
        ("GeForce GTX 285", "adhoc smem_strides", "all_blocks"),
        (
            "GeForce GTX 285",
            "spmv l=8 seed=1 ELL texture=true",
            "declared",
        ),
        ("GeForce 8800 GT", "zoo histogram n=4096 seed=1", "declared"),
        (
            "GeForce 8800 GT",
            "tridiag n=512 nsys=128 padded=false",
            "declared",
        ),
        ("GeForce 9800 GTX", "adhoc smem_scalar", "all_blocks"),
        (
            "GeForce 9800 GTX",
            "zoo shared_bank_conflict n=4096 seed=1",
            "all_blocks",
        ),
    ];
    let checked = check(
        |m, case, source| subset.contains(&(m.name.as_str(), case, source)),
        |m| m.name == "GeForce 8800 GT",
        false,
    );
    assert_eq!(checked, subset.len() + 1, "every subset entry names a run");
}

/// Every case, SKU and trace source, and every SKU's curves (the
/// release-mode sweep).
#[test]
#[ignore = "full sweep: run with --release -- --ignored"]
fn timing_fingerprint_full_sweep_matches_golden() {
    let checked = check(
        |_, _, _| true,
        |_| true,
        std::env::var_os("GPA_BLESS").is_some(),
    );
    assert_eq!(checked, 3 * (runs().len() * SOURCES.len() + 1));
}
