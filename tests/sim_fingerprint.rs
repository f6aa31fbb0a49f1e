//! Bit-identity fingerprints of the functional simulator.
//!
//! Every paper case-study kernel the benchmark sends (matmul, tridiag,
//! SpMV) and every zoo kernel runs on each Table 3 SKU, traced and
//! untraced. Each run is reduced to three FNV-1a hashes — the
//! `DynamicStats`, the per-warp traces, and the post-run global memory —
//! and compared with `tests/golden/sim_fingerprints.txt`. Any change to
//! the simulator's observable output, however small, changes a hash.
//!
//! Three ad-hoc kernels pin the memory paths the paper cases exercise
//! only partly: base-less (scalar) shared addresses at every width and
//! under a divergent guard, conflicted shared strides with mixed
//! broadcasts, and global accesses that straddle two regions.
//!
//! The default (debug) test checks a small subset; the full sweep is
//! ignored by default and runs under
//! `cargo test --release --test sim_fingerprint -- --ignored`.
//! Regenerate the file with `GPA_BLESS=1` on that same command — only when
//! the output is meant to change.

mod fingerprint;

use fingerprint::{check_golden, runs, Run};
use gpa::hw::Machine;
use gpa::sim::stats::BlockTrace;
use gpa::sim::{FunctionalSim, GlobalMemory, Threads};
use gpa::ubench::cache::fnv1a;
use std::sync::Arc;

/// The golden line of one run: `<sku> | <case> | <traced> | stats traces memory`.
fn fingerprint(machine: &Machine, run: &Run, traced: bool) -> String {
    let mut study = (run.build)();
    let mut sim = FunctionalSim::new(machine, &study.kernel, study.launch).unwrap();
    sim.set_params(&study.params)
        .set_threads(Threads::sequential())
        .collect_traces(traced);
    for r in &study.regions {
        if r.texture {
            sim.add_texture_region(r.name.clone(), r.base, r.len);
        } else {
            sim.add_region(r.name.clone(), r.base, r.len);
        }
    }
    let out = sim.run(&mut study.gmem).unwrap();
    let stats = fnv1a(format!("{:?}", out.stats).as_bytes());
    let traces = out.traces.as_deref().map_or(0, hash_traces);
    let memory = hash_memory(&study.gmem);
    format!(
        "{} | {} | traced={traced} | {stats:016x} {traces:016x} {memory:016x}",
        machine.name, run.case
    )
}

/// Each step is expanded back into the bytes of its full entry (skeleton
/// fields, conflict weight, then `0` for no transactions or `1`, the count
/// and each transaction), so the golden does not depend on the layout.
fn hash_traces(blocks: &[Arc<BlockTrace>]) -> u64 {
    let mut bytes = Vec::new();
    for block in blocks {
        bytes.extend((block.warps.len() as u64).to_le_bytes());
        for warp in &block.warps {
            bytes.extend((warp.steps.len() as u64).to_le_bytes());
            let mut txns = warp.txns.iter();
            for step in &warp.steps {
                let e = &block.skeletons[step.id as usize];
                bytes.extend([e.class.index() as u8, e.dst, e.dst_n]);
                bytes.extend(e.srcs);
                bytes.extend([e.nsrcs, e.dst_lat as u8]);
                bytes.extend(step.smem_half_txns.to_le_bytes());
                bytes.extend([u8::from(e.gmem_load), u8::from(e.bar)]);
                if step.ntx == 0 {
                    bytes.push(0);
                } else {
                    bytes.push(1);
                    bytes.extend(u64::from(step.ntx).to_le_bytes());
                    for t in txns.by_ref().take(usize::from(step.ntx)) {
                        bytes.extend(t.base.to_le_bytes());
                        bytes.extend(t.size.to_le_bytes());
                    }
                }
            }
            assert!(txns.next().is_none(), "every transaction belongs to a step");
        }
    }
    fnv1a(&bytes)
}

/// Hash of the allocated extent and every whole word below it.
fn hash_memory(gmem: &GlobalMemory) -> u64 {
    const BASE: u64 = 256;
    let words = gmem.read_u32s(BASE, ((gmem.extent() - BASE) / 4) as usize);
    let mut bytes = gmem.extent().to_le_bytes().to_vec();
    for w in words.expect("the allocated extent is readable") {
        bytes.extend(w.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Compute the lines for every `(sku, case, traced)` that `keep` selects
/// and compare them with the golden file's lines for the same runs.
/// Returns how many runs were checked.
fn check(keep: impl Fn(&Machine, &str, bool) -> bool, bless: bool) -> usize {
    let mut got = Vec::new();
    let runs = runs();
    for machine in Machine::paper_table3() {
        for run in &runs {
            for traced in [false, true] {
                if keep(&machine, &run.case, traced) {
                    got.push(fingerprint(&machine, run, traced));
                }
            }
        }
    }
    check_golden("sim_fingerprints.txt", &got, bless)
}

/// A quick cross-section for the debug suite: every case family, traced
/// and untraced, on all three SKUs.
#[test]
fn fingerprint_subset_matches_golden() {
    let subset = [
        ("GeForce GTX 285", "matmul n=128 tile=16", true),
        (
            "GeForce GTX 285",
            "tridiag n=512 nsys=128 padded=false",
            false,
        ),
        (
            "GeForce GTX 285",
            "spmv l=8 seed=1 BELL+IM texture=true",
            true,
        ),
        ("GeForce GTX 285", "zoo histogram n=4096 seed=1", true),
        (
            "GeForce GTX 285",
            "zoo vector_add_divergent n=4096 seed=1",
            true,
        ),
        (
            "GeForce 8800 GT",
            "zoo shared_bank_conflict n=4096 seed=1",
            false,
        ),
        ("GeForce 8800 GT", "zoo naive_transpose n=128 seed=1", true),
        (
            "GeForce 9800 GTX",
            "tridiag n=512 nsys=128 padded=true",
            true,
        ),
        (
            "GeForce 9800 GTX",
            "zoo atomic_hotspot n=4096 seed=1",
            false,
        ),
        ("GeForce GTX 285", "adhoc smem_scalar", true),
        ("GeForce 8800 GT", "adhoc smem_strides", true),
        ("GeForce 9800 GTX", "adhoc gmem_two_regions", false),
    ];
    let checked = check(
        |m, case, traced| subset.contains(&(m.name.as_str(), case, traced)),
        false,
    );
    assert_eq!(checked, subset.len(), "every subset entry names a run");
}

/// Every case, SKU, and trace setting (the release-mode sweep).
#[test]
#[ignore = "full sweep: run with --release -- --ignored"]
fn fingerprint_full_sweep_matches_golden() {
    let checked = check(|_, _, _| true, std::env::var_os("GPA_BLESS").is_some());
    assert_eq!(checked, 3 * runs().len() * 2);
}
