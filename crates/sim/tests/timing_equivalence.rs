//! Acceptance property for the parallel timing replay: for random kernels
//! (random per-block traces — mixed instruction classes, register
//! dependences, shared-memory transactions with bank-conflict replays,
//! coalesced global transactions, barriers) across machines and thread
//! counts, the sharded replay's [`TimingResult`] is **bit-identical** to
//! the sequential walk — cycles, the per-cluster vector, and every
//! counter. Clusters are independent and outcomes merge in cluster-id
//! order, so thread count must never leak into the answer.

use gpa_hw::{InstrClass, KernelResources, Machine};
use gpa_mem::coalesce::Transaction;
use gpa_sim::stats::{BlockTrace, DstLatency, TraceEntry};
use gpa_sim::{LaunchConfig, Threads, TimingSim, TraceSource};
use proptest::prelude::*;
use std::sync::Arc;

/// SplitMix64: a tiny deterministic generator so one proptest-drawn seed
/// expands into a whole grid of block traces.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_entry(rng: &mut u64) -> TraceEntry {
    let r = mix(rng);
    let class = InstrClass::ALL[(r % 4) as usize];
    let dst = ((r >> 2) % 16) as u8;
    let dst_n = if (r >> 6).is_multiple_of(3) { 0 } else { 1 };
    let nsrcs = ((r >> 8) % 4) as u8;
    let mut srcs = [0xFF; 8];
    for slot in srcs.iter_mut().take(usize::from(nsrcs)) {
        *slot = (mix(rng) % 16) as u8;
    }
    let smem_half_txns = match (r >> 12) % 5 {
        0 | 1 => 0,
        2 => 2,
        3 => 3,
        _ => 6,
    };
    let (gmem, gmem_load) = if (r >> 16).is_multiple_of(4) {
        let ntx = 1 + (mix(rng) % 2) as usize;
        let txs: Vec<Transaction> = (0..ntx)
            .map(|_| Transaction {
                base: 4096 + (mix(rng) % 512) * 64,
                size: [32u32, 64, 128][(mix(rng) % 3) as usize],
            })
            .collect();
        (Some(txs.into_boxed_slice()), mix(rng).is_multiple_of(2))
    } else {
        (None, false)
    };
    let dst_lat = if gmem_load {
        DstLatency::Gmem
    } else if smem_half_txns > 0 {
        DstLatency::Smem
    } else {
        DstLatency::Alu
    };
    TraceEntry {
        class,
        dst,
        dst_n,
        srcs,
        nsrcs,
        dst_lat,
        smem_half_txns,
        gmem,
        gmem_load,
        bar: false,
    }
}

/// A deadlock-free random block: every warp runs the same number of
/// barrier-separated phases (warps that exit early stop participating in
/// barriers, matching GT200 semantics, but keeping the phase count equal
/// per block avoids degenerate all-waiting states).
fn random_block(rng: &mut u64, nwarps: usize, phases: usize) -> BlockTrace {
    let mut warps: Vec<Vec<TraceEntry>> = vec![Vec::new(); nwarps];
    for phase in 0..phases {
        for w in warps.iter_mut() {
            let len = 1 + (mix(rng) % 10) as usize;
            for _ in 0..len {
                w.push(random_entry(rng));
            }
            if phase + 1 < phases {
                let mut bar = random_entry(rng);
                bar.bar = true;
                bar.gmem = None;
                bar.gmem_load = false;
                bar.dst_lat = DstLatency::Alu;
                w.push(bar);
            }
        }
    }
    BlockTrace::from_entries(warps)
}

fn machines() -> [Machine; 3] {
    [
        Machine::gtx285(),
        Machine::geforce_8800gt(),
        Machine::geforce_9800gtx(),
    ]
}

const THREAD_GRID: [Threads; 4] = [
    Threads::Fixed(2),
    Threads::Fixed(3),
    Threads::Fixed(7),
    Threads::Auto,
];

proptest! {
    /// Per-block traces (the worst case for sharding: every block
    /// distinct): every thread count reproduces the sequential result
    /// bit for bit on every machine.
    #[test]
    fn parallel_per_block_replay_is_bit_identical(
        seed in 0u64..u64::MAX / 2,
        nblocks in 1u32..24,
        nwarps in 1usize..4,
        phases in 1usize..4,
    ) {
        let mut rng = seed;
        let traces: Vec<Arc<BlockTrace>> = (0..nblocks)
            .map(|_| Arc::new(random_block(&mut rng, nwarps, phases)))
            .collect();
        for m in machines() {
            let res = KernelResources::new(8, 0, 32 * nwarps as u32);
            let launch = LaunchConfig::new_1d(nblocks, 32 * nwarps as u32);
            let reference = {
                let mut sim = TimingSim::new(&m);
                sim.set_threads(Threads::sequential());
                sim.run(&TraceSource::PerBlock(traces.clone()), &launch, res)
            };
            for threads in THREAD_GRID {
                let mut sim = TimingSim::new(&m);
                sim.set_threads(threads);
                let got = sim.run(&TraceSource::PerBlock(traces.clone()), &launch, res);
                prop_assert_eq!(
                    got.cycles.to_bits(),
                    reference.cycles.to_bits(),
                    "cycles diverge on {} with {:?}", m.name, threads
                );
                prop_assert_eq!(&got, &reference, "{} with {:?}", m.name, threads);
            }
        }
    }

    /// One shared trace, replayed on every cluster (`PerBlock`) or on the
    /// most-loaded cluster and scaled (`Homogeneous`): both must be
    /// insensitive to the thread knob (the uniform replay walks one
    /// cluster, so parallel and sequential collapse to the same walk).
    #[test]
    fn homogeneous_and_uniform_replay_are_bit_identical(
        seed in 0u64..u64::MAX / 2,
        nblocks in 1u32..40,
        nwarps in 1usize..4,
    ) {
        let mut rng = seed;
        let trace = Arc::new(random_block(&mut rng, nwarps, 2));
        let m = Machine::gtx285();
        let res = KernelResources::new(8, 0, 32 * nwarps as u32);
        let launch = LaunchConfig::new_1d(nblocks, 32 * nwarps as u32);
        for uniform in [false, true] {
            let source = if uniform {
                TraceSource::Homogeneous(Arc::clone(&trace))
            } else {
                TraceSource::PerBlock(vec![Arc::clone(&trace); nblocks as usize])
            };
            let reference = {
                let mut sim = TimingSim::new(&m);
                sim.set_threads(Threads::sequential());
                sim.run(&source, &launch, res)
            };
            for threads in THREAD_GRID {
                let mut sim = TimingSim::new(&m);
                sim.set_threads(threads);
                let got = sim.run(&source, &launch, res);
                prop_assert_eq!(&got, &reference, "uniform={} {:?}", uniform, threads);
            }
        }
    }
}
