//! Tests for the timing simulator, using hand-built traces.

use super::*;
use crate::stats::TraceEntry;
use gpa_hw::InstrClass;
use gpa_mem::coalesce::Transaction;

fn machine() -> Machine {
    Machine::gtx285()
}

fn entry(class: InstrClass) -> TraceEntry {
    TraceEntry {
        class,
        dst: 0,
        dst_n: 0,
        srcs: [0xFF; 8],
        nsrcs: 0,
        dst_lat: DstLatency::Alu,
        smem_half_txns: 0,
        gmem: None,
        gmem_load: false,
        bar: false,
    }
}

/// A chain of `n` Type II instructions, each reading its own result (RAW).
fn dependent_chain(n: usize) -> Vec<TraceEntry> {
    (0..n)
        .map(|_| {
            let mut e = entry(InstrClass::TypeII);
            e.dst = 0;
            e.dst_n = 1;
            e.srcs[0] = 0;
            e.nsrcs = 1;
            e
        })
        .collect()
}

/// `n` independent Type II instructions.
fn independent_stream(n: usize) -> Vec<TraceEntry> {
    (0..n)
        .map(|i| {
            let mut e = entry(InstrClass::TypeII);
            e.dst = (i % 16) as u8;
            e.dst_n = 1;
            e
        })
        .collect()
}

fn res(threads: u32) -> KernelResources {
    KernelResources::new(8, 0, threads)
}

fn one_block(warps: Vec<Vec<TraceEntry>>) -> TraceSource {
    TraceSource::Homogeneous(Arc::new(BlockTrace::from_entries(warps)))
}

/// `n` blocks sharing one trace, replayed on every cluster.
fn every_block(warps: Vec<Vec<TraceEntry>>, n: usize) -> TraceSource {
    let t = Arc::new(BlockTrace::from_entries(warps));
    TraceSource::PerBlock(vec![Arc::clone(&t); n])
}

#[test]
fn dependent_chain_is_latency_bound() {
    let m = machine();
    let sim = TimingSim::new(&m);
    let n = 200;
    let src = one_block(vec![dependent_chain(n)]);
    let r = sim.run(&src, &LaunchConfig::new_1d(1, 32), res(32));
    // One warp, RAW chain: ~alu_latency per instruction.
    let expect = n as f64 * sim.config().alu_latency;
    assert!(
        (r.cycles - expect).abs() / expect < 0.1,
        "cycles {} vs expected {expect}",
        r.cycles
    );
}

#[test]
fn independent_stream_is_issue_bound() {
    let m = machine();
    let sim = TimingSim::new(&m);
    let n = 400;
    let src = one_block(vec![independent_stream(n)]);
    let r = sim.run(&src, &LaunchConfig::new_1d(1, 32), res(32));
    let occ = 32.0 / 8.0 + sim.config().issue_overhead;
    let expect = n as f64 * occ;
    assert!(
        (r.cycles - expect).abs() / expect < 0.1,
        "cycles {} vs expected {expect}",
        r.cycles
    );
}

#[test]
fn warp_parallelism_hides_alu_latency() {
    // With 6+ warps of dependent chains, throughput reaches the issue
    // bound (the paper's Figure 2 saturation at ~6 warps for Type II).
    let m = machine();
    let sim = TimingSim::new(&m);
    let n = 200;
    for (warps, saturated) in [(1usize, false), (2, false), (6, true), (8, true)] {
        let src = one_block(vec![dependent_chain(n); warps]);
        let r = sim.run(
            &src,
            &LaunchConfig::new_1d(1, 32 * warps as u32),
            res(32 * warps as u32),
        );
        let issue_bound = (n * warps) as f64 * (4.0 + sim.config().issue_overhead);
        let ratio = r.cycles / issue_bound;
        if saturated {
            assert!(ratio < 1.1, "{warps} warps: ratio {ratio}");
        } else {
            assert!(ratio > 1.5, "{warps} warps: ratio {ratio}");
        }
    }
}

#[test]
fn type_classes_have_table1_occupancies() {
    let m = machine();
    let sim = TimingSim::new(&m);
    let n = 300;
    let mut cycles = Vec::new();
    for class in InstrClass::ALL {
        let stream: Vec<TraceEntry> = (0..n).map(|_| entry(class)).collect();
        let src = one_block(vec![stream]);
        let r = sim.run(&src, &LaunchConfig::new_1d(1, 32), res(32));
        cycles.push(r.cycles);
    }
    // Type I < Type II < Type III < Type IV issue cost.
    assert!(cycles[0] < cycles[1]);
    assert!(cycles[1] < cycles[2]);
    assert!(cycles[2] < cycles[3]);
    // Type IV ≈ 32 + overhead cycles per instruction.
    let per = cycles[3] / n as f64;
    assert!((per - 32.75).abs() < 1.0, "type IV per-instr {per}");
}

#[test]
fn bank_conflicts_serialize_the_smem_port() {
    let m = machine();
    let sim = TimingSim::new(&m);
    let n = 300;
    let make = |half_txns: u16| -> Vec<TraceEntry> {
        (0..n)
            .map(|_| {
                let mut e = entry(InstrClass::TypeII);
                e.smem_half_txns = half_txns;
                e
            })
            .collect()
    };
    // Enough warps to saturate the port.
    let free = one_block(vec![make(2); 8]);
    let r_free = sim.run(&free, &LaunchConfig::new_1d(1, 256), res(256));
    let conf = one_block(vec![make(4); 8]);
    let r_conf = sim.run(&conf, &LaunchConfig::new_1d(1, 256), res(256));
    let ratio = r_conf.cycles / r_free.cycles;
    // 2-way conflicts serialize the shared port *and* replay through the
    // issue stage (GT200 behaviour), so the slowdown exceeds 2×.
    assert!(
        (2.0..=3.8).contains(&ratio),
        "2-way conflicts should cost ×2–3.8, got ×{ratio}"
    );
}

#[test]
fn barrier_synchronizes_warps() {
    let m = machine();
    let sim = TimingSim::new(&m);
    // Warp 0: short prologue; warp 1: long prologue; both bar then epilogue.
    let mut w0 = dependent_chain(10);
    let mut w1 = dependent_chain(100);
    let mut bar = entry(InstrClass::TypeII);
    bar.bar = true;
    w0.push(bar.clone());
    w1.push(bar);
    w0.extend(dependent_chain(10));
    w1.extend(dependent_chain(10));
    let src = one_block(vec![w0, w1]);
    let r = sim.run(&src, &LaunchConfig::new_1d(1, 64), res(64));
    // Total dominated by the long warp: 100×24 + barrier + 10×24.
    let expect = 110.0 * 24.0;
    assert!(r.cycles > expect * 0.95, "cycles {} vs {expect}", r.cycles);
    assert!(r.cycles < expect * 1.3, "cycles {} vs {expect}", r.cycles);
}

#[test]
fn gmem_saturates_cluster_pipe_bandwidth() {
    let m = machine();
    let sim = TimingSim::new(&m);
    // One block with 8 warps, each issuing 200 independent 128 B loads.
    let make_warp = || -> Vec<TraceEntry> {
        (0..200)
            .map(|i| {
                let mut e = entry(InstrClass::TypeII);
                e.dst = (i % 16) as u8;
                e.dst_n = 1;
                e.dst_lat = DstLatency::Gmem;
                e.gmem_load = true;
                e.gmem = Some(
                    vec![Transaction {
                        base: 4096 + i as u64 * 128,
                        size: 128,
                    }]
                    .into_boxed_slice(),
                );
                e
            })
            .collect()
    };
    let src = one_block((0..8).map(|_| make_warp()).collect());
    let r = sim.run(&src, &LaunchConfig::new_1d(1, 256), res(256));
    // One cluster's share: peak × efficiency / 10, minus transaction
    // overhead effects.
    let cluster_bw = m.peak_global_bandwidth() * sim.config().dram_efficiency / 10.0;
    let achieved = r.global_bandwidth();
    assert!(
        achieved > 0.6 * cluster_bw && achieved <= 1.01 * cluster_bw,
        "achieved {achieved:.3e} vs cluster {cluster_bw:.3e}"
    );
}

#[test]
fn blocks_fill_all_clusters() {
    let m = machine();
    let sim = TimingSim::new(&m);
    // 10 single-warp blocks land on 10 distinct clusters: same total time
    // as 1 block (plus nothing), while 11 blocks make one cluster do two.
    let chain = vec![dependent_chain(100)];
    let t1 = {
        let src = every_block(chain.clone(), 10);
        sim.run(&src, &LaunchConfig::new_1d(10, 32), res(32)).cycles
    };
    let t2 = {
        let src = every_block(chain, 11);
        sim.run(&src, &LaunchConfig::new_1d(11, 32), res(32)).cycles
    };
    assert!(t2 > t1 * 0.99, "11th block must not be free: {t1} vs {t2}");
}

#[test]
fn waves_scale_with_occupancy() {
    let m = machine();
    let sim = TimingSim::new(&m);
    // Resources allowing 1 block/SM: 3 blocks fit a cluster at once.
    // 30 blocks on cluster 0 (uniform mode) → 10 waves.
    let chain = vec![dependent_chain(50)];
    let one_wave = {
        let src = one_block(chain.clone());
        sim.run(
            &src,
            &LaunchConfig::new_1d(30, 32),
            KernelResources::new(8, 9000, 32),
        )
        .cycles
    };
    let ten_waves = {
        let src = one_block(chain);
        sim.run(
            &src,
            &LaunchConfig::new_1d(300, 32),
            KernelResources::new(8, 9000, 32),
        )
        .cycles
    };
    let ratio = ten_waves / one_wave;
    assert!((8.0..=12.0).contains(&ratio), "wave scaling ratio {ratio}");
}

#[test]
fn uniform_cluster_mode_matches_full_simulation() {
    let m = machine();
    let base = TimingSim::new(&m);
    let chain: Vec<Vec<TraceEntry>> = vec![dependent_chain(80); 2];
    let full = {
        let src = every_block(chain.clone(), 40);
        base.run(&src, &LaunchConfig::new_1d(40, 64), res(64))
    };
    let fast = {
        let src = one_block(chain);
        base.run(&src, &LaunchConfig::new_1d(40, 64), res(64))
    };
    let rel = (full.cycles - fast.cycles).abs() / full.cycles;
    assert!(rel < 0.01, "uniform-mode divergence {rel}");
}

#[test]
fn uniform_scaling_is_exact_on_divisible_grids() {
    // 20 blocks over GTX 285's 10 clusters: every cluster runs exactly 2
    // blocks, so the uniform-mode scale factor is the integer 10 and the
    // scaled counters must equal the full simulation's *exactly* — no
    // float round-trip allowed to shave an instruction or a byte.
    let m = machine();
    let make_warp = || -> Vec<TraceEntry> {
        (0..60)
            .map(|i| {
                let mut e = entry(InstrClass::TypeII);
                e.dst = (i % 16) as u8;
                e.dst_n = 1;
                if i % 3 == 0 {
                    e.dst_lat = DstLatency::Gmem;
                    e.gmem_load = true;
                    e.gmem = Some(
                        vec![Transaction {
                            base: 4096 + i as u64 * 64,
                            size: 64,
                        }]
                        .into_boxed_slice(),
                    );
                }
                e
            })
            .collect()
    };
    let warps: Vec<Vec<TraceEntry>> = vec![make_warp(); 2];
    let launch = LaunchConfig::new_1d(20, 64);
    let full = {
        let src = every_block(warps.clone(), 20);
        TimingSim::new(&m).run(&src, &launch, res(64))
    };
    let fast = {
        let src = one_block(warps);
        TimingSim::new(&m).run(&src, &launch, res(64))
    };
    assert_eq!(fast.issued, full.issued, "issued must scale exactly");
    assert_eq!(fast.gmem_bytes, full.gmem_bytes, "bytes must scale exactly");
    // Identical blocks: the totals divide evenly by the grid size.
    assert_eq!(fast.issued % 20, 0);
    assert_eq!(fast.gmem_bytes % 20, 0);
}

#[test]
fn the_source_decides_the_replay() {
    // 31 identical blocks at one block per SM: cluster 0 gets 4 blocks
    // (two waves on its 3 SMs), every other cluster 3 (one wave).
    let m = machine();
    let sim = TimingSim::new(&m);
    let launch = LaunchConfig::new_1d(31, 32);
    let resources = KernelResources::new(8, 9000, 32);
    let chain = vec![dependent_chain(50)];
    let full = sim.run(&every_block(chain.clone(), 31), &launch, resources);
    let fast = sim.run(&one_block(chain), &launch, resources);
    // PerBlock replays every cluster, so the lighter ones finish first.
    assert!(
        full.per_cluster_cycles[1] < full.per_cluster_cycles[0],
        "{:?}",
        full.per_cluster_cycles
    );
    // Homogeneous replays cluster 0 and reports its time everywhere.
    let t0 = fast.per_cluster_cycles[0];
    assert!(
        fast.per_cluster_cycles.iter().all(|&t| t == t0),
        "{:?}",
        fast.per_cluster_cycles
    );
    assert_eq!(fast.cycles.to_bits(), full.cycles.to_bits());
    assert_eq!(fast.issued, full.issued);
}

#[test]
fn texture_cache_accelerates_reused_loads() {
    let m = machine();
    // All warps hammer the same 1 KB of "vector" data.
    let make_warp = |seed: u64| -> Vec<TraceEntry> {
        (0..200u64)
            .map(|i| {
                let mut e = entry(InstrClass::TypeII);
                e.dst = (i % 16) as u8;
                e.dst_n = 1;
                e.dst_lat = DstLatency::Gmem;
                e.gmem_load = true;
                let base = 4096 + (seed * 37 + i * 29) % 1024 / 32 * 32;
                e.gmem = Some(vec![Transaction { base, size: 32 }].into_boxed_slice());
                e
            })
            .collect()
    };
    let warps: Vec<Vec<TraceEntry>> = (0..4).map(|w| make_warp(w as u64)).collect();
    let plain = {
        let sim = TimingSim::new(&m);
        let src = one_block(warps.clone());
        sim.run(&src, &LaunchConfig::new_1d(1, 128), res(128))
    };
    let cached = {
        let mut sim = TimingSim::new(&m);
        sim.set_texture_regions(vec![(4096, 1024)]);
        let src = one_block(warps);
        sim.run(&src, &LaunchConfig::new_1d(1, 128), res(128))
    };
    assert!(
        cached.tex_hit_rate > 0.9,
        "hit rate {}",
        cached.tex_hit_rate
    );
    assert!(
        cached.cycles < plain.cycles * 0.95,
        "cache should help: {} vs {}",
        cached.cycles,
        plain.cycles
    );
    // Hits bypass the cluster pipe entirely.
    assert!(
        cached.gmem_bytes < plain.gmem_bytes / 5,
        "pipe traffic should collapse: {} vs {}",
        cached.gmem_bytes,
        plain.gmem_bytes
    );
}

#[test]
fn a_fully_masked_load_is_ready_after_the_alu_pipeline() {
    // A load whose lanes are all masked off moves no transactions, so
    // its destination is ready when an ALU result would be: the
    // dependent chain times like a chain of ALU instructions.
    let m = machine();
    let sim = TimingSim::new(&m);
    let chain = |masked_load: bool| {
        let mut warp = dependent_chain(50);
        if masked_load {
            for e in warp.iter_mut().step_by(2) {
                e.dst_lat = DstLatency::Gmem;
                e.gmem_load = true;
            }
        }
        sim.run(
            &one_block(vec![warp]),
            &LaunchConfig::new_1d(1, 32),
            res(32),
        )
    };
    let (masked, alu) = (chain(true), chain(false));
    assert_eq!(masked.cycles, alu.cycles);
    assert_eq!(masked.gmem_bytes, 0);
}

#[test]
fn empty_trace_finishes_instantly() {
    let m = machine();
    let sim = TimingSim::new(&m);
    let src = one_block(vec![Vec::new()]);
    let r = sim.run(&src, &LaunchConfig::new_1d(5, 32), res(32));
    assert_eq!(r.issued, 0);
    assert_eq!(r.cycles, 0.0);
}

/// An SM holding `blocks`, each a list of warps `(ready, smem)`: warp
/// `w` may issue from `ready` on, and its one entry accesses shared
/// memory when `smem`.
fn sm_state(blocks: &[&[(f64, bool)]], alu_free: f64, smem_free: f64, rotate: usize) -> SmState {
    let mut sm = SmState {
        alu_free,
        smem_free,
        rotate,
        ..SmState::default()
    };
    for warps in blocks {
        let trace = BlockTrace::from_entries(
            warps
                .iter()
                .map(|&(_, smem)| {
                    let mut e = entry(InstrClass::TypeII);
                    e.smem_half_txns = if smem { 2 } else { 0 };
                    vec![e]
                })
                .collect(),
        );
        let mut blk = BlockRun::new(Arc::new(trace), 0.0, &mut Vec::new());
        for (w, &(ready, _)) in blk.warps.iter_mut().zip(warps.iter()) {
            w.ready = ready;
        }
        sm.blocks.push(blk);
    }
    sm.rebuild_slots();
    sm
}

/// The slots' pick, checked against the scan; `None` when it falls back.
fn fast_pick(sm: &mut SmState) -> Option<Candidate> {
    let scan = TimingSim::sm_best(sm);
    let fast = sm.pick_fast();
    assert!(fast.is_none() || fast == scan, "{fast:?} vs scan {scan:?}");
    assert_eq!(sm.pick(), scan);
    fast
}

#[test]
fn exact_ties_at_the_floor_pick_round_robin_from_rotate() {
    // Two blocks of four warps, every one ready below the port's floor:
    // all issue at `alu_free`, and the pick walks round-robin from
    // `rotate` over the flat (block, warp) order, wrapping past the end.
    let ready: &[(f64, bool)] = &[(0.0, false), (10.0, false), (50.0, false), (99.0, false)];
    for rotate in 0..=9 {
        let mut sm = sm_state(&[ready, ready], 100.0, 0.0, rotate);
        let idx = rotate % 8;
        assert_eq!(fast_pick(&mut sm), Some((idx / 4, idx % 4, 100.0, 0)));
    }
    // A warp still waiting on its scoreboard is skipped: from slot 2,
    // the next tied slot is 3, at distance 1.
    let late: &[(f64, bool)] = &[(0.0, false), (0.0, false), (200.0, false), (0.0, false)];
    let mut sm = sm_state(&[late], 100.0, 0.0, 2);
    assert_eq!(fast_pick(&mut sm), Some((0, 3, 100.0, 1)));
    // Once the floor passes it, the warp is ready and tied again.
    sm.alu_free = 300.0;
    assert_eq!(fast_pick(&mut sm), Some((0, 2, 300.0, 0)));
}

#[test]
fn near_tie_chains_fall_back_to_the_scan() {
    // Values 0.6e-9 apart tie pairwise with their neighbours but not
    // across the chain, so the scan's fold depends on its order; the
    // slots must not guess.
    let chain: Vec<(f64, bool)> = (0..4)
        .map(|k| (1000.0 + 0.6e-9 * k as f64, false))
        .collect();
    for rotate in 0..4 {
        let mut sm = sm_state(&[&chain], 0.0, 0.0, rotate);
        assert_eq!(fast_pick(&mut sm), None, "rotate {rotate}");
    }
    // One near value beside an exact tie falls back too.
    let warps: &[(f64, bool)] = &[(500.0, false), (500.0, false), (500.0 + 0.5e-9, false)];
    let mut sm = sm_state(&[warps], 0.0, 0.0, 1);
    assert_eq!(fast_pick(&mut sm), None);
    // Far enough apart, the earliest wins without a tie.
    let warps: &[(f64, bool)] = &[(500.0, false), (500.0, false), (500.0 - 4e-9, false)];
    let mut sm = sm_state(&[warps], 0.0, 0.0, 0);
    assert_eq!(fast_pick(&mut sm), Some((0, 2, 500.0 - 4e-9, 2)));
}

#[test]
fn ties_past_two_to_the_24_fall_back_to_the_scan() {
    // From 2^24 cycles on, `t + 1e-9 == t`: exact ties no longer pass
    // the scan's tie predicate, so the first warp in scan order wins
    // whatever `rotate` says. The slots hand these picks to the scan.
    let warps: &[(f64, bool)] = &[(0.0, false); 4];
    let big = f64::from(1u32 << 24) + 0.5;
    let mut sm = sm_state(&[warps], big, 0.0, 2);
    assert_eq!(fast_pick(&mut sm), None);
    assert_eq!(sm.pick(), Some((0, 0, big, 2)));
    // Below 2^24 the same ties go round-robin, from the slots.
    let below = f64::from(1u32 << 23) + 0.5;
    let mut sm = sm_state(&[warps], below, 0.0, 2);
    assert_eq!(fast_pick(&mut sm), Some((0, 2, below, 0)));
}

#[test]
fn shared_and_alu_floors_split_the_ready_warps() {
    // Warps 0 and 2 wait for the shared port, 1 and 3 only for the
    // issue port.
    let warps: &[(f64, bool)] = &[(0.0, true), (0.0, false), (0.0, true), (0.0, false)];
    // A busy shared port: the ALU warps issue first.
    let mut sm = sm_state(&[warps], 100.0, 150.0, 2);
    assert_eq!(fast_pick(&mut sm), Some((0, 3, 100.0, 1)));
    // A shared port free before the issue port: one floor, four ties.
    let mut sm = sm_state(&[warps], 100.0, 80.0, 2);
    assert_eq!(fast_pick(&mut sm), Some((0, 2, 100.0, 0)));
    // Floors 0.5e-9 apart are a near tie: the scan decides.
    let mut sm = sm_state(&[warps], 100.0, 100.0 + 0.5e-9, 2);
    assert_eq!(fast_pick(&mut sm), None);
    // A not-ready ALU warp whose own time equals the shared floor ties
    // with the shared warps.
    let warps: &[(f64, bool)] = &[(0.0, true), (150.0, false), (0.0, true)];
    for (rotate, want) in [(0, 0), (1, 1), (2, 2), (3, 0)] {
        let mut sm = sm_state(&[warps], 100.0, 150.0, rotate);
        let got = fast_pick(&mut sm).expect("exact ties");
        assert_eq!((got.1, got.2), (want, 150.0), "rotate {rotate}");
    }
}

#[test]
fn dependent_load_chains_run_past_two_to_the_24_cycles() {
    // Two warps of dependent global loads (~520 cycles each) run the
    // replay past 2^24 cycles, where every pick falls back to the scan.
    // Debug builds check each pick of the slots against the scan.
    let n = 34_000;
    let chain = || -> Vec<TraceEntry> {
        (0..n)
            .map(|i| {
                let mut e = entry(InstrClass::TypeII);
                e.dst_n = 1;
                e.srcs[0] = 0;
                e.nsrcs = 1;
                e.dst_lat = DstLatency::Gmem;
                e.gmem_load = true;
                e.gmem = Some(
                    vec![Transaction {
                        base: 4096 + (i % 64) as u64 * 128,
                        size: 128,
                    }]
                    .into_boxed_slice(),
                );
                e
            })
            .collect()
    };
    let m = machine();
    let r = TimingSim::new(&m).run(
        &one_block(vec![chain(), chain()]),
        &LaunchConfig::new_1d(1, 64),
        res(64),
    );
    assert_eq!(r.issued, 2 * n as u64);
    assert!(r.cycles > f64::from(1u32 << 24), "cycles {}", r.cycles);
    // The two chains overlap: together they take about as long as one.
    let one = TimingSim::new(&m).run(
        &one_block(vec![chain()]),
        &LaunchConfig::new_1d(1, 32),
        res(32),
    );
    assert!(
        r.cycles < 1.1 * one.cycles,
        "{} vs {}",
        r.cycles,
        one.cycles
    );
}

#[test]
fn more_than_64_resident_warps_fall_back_to_the_scan() {
    // No preset lets 64 warps share an SM, but a hand-built trace can:
    // its SM has no slot masks and every pick scans.
    let m = machine();
    let sim = TimingSim::new(&m);
    let n = 20;
    let src = one_block(vec![independent_stream(n); 70]);
    let r = sim.run(&src, &LaunchConfig::new_1d(1, 32), res(32));
    assert_eq!(r.issued, 70 * n as u64);
    let issue_bound = (70 * n) as f64 * (4.0 + sim.config().issue_overhead);
    assert!(
        (r.cycles - issue_bound).abs() / issue_bound < 0.05,
        "cycles {} vs issue bound {issue_bound}",
        r.cycles
    );
}
