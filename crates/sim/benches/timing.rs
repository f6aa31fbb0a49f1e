//! Timing-replay benchmarks: the sequential cluster walk against the
//! sharded parallel walk, on an identical per-block workload. The two
//! must produce bit-identical [`gpa_sim::TimingResult`]s (asserted here
//! once, property-tested in `tests/timing_equivalence.rs`); only
//! wall-clock may differ, and on a multi-core runner `sim/timing_par`
//! should beat `sim/timing_seq`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpa_hw::{InstrClass, KernelResources, Machine};
use gpa_mem::coalesce::Transaction;
use gpa_sim::stats::{BlockTrace, DstLatency, TraceEntry};
use gpa_sim::{LaunchConfig, Threads, TimingSim, TraceSource};
use std::hint::black_box;
use std::sync::Arc;

/// One warp of a matmul-shaped inner loop: shared-memory loads feeding
/// FMA-class arithmetic with RAW dependences, a coalesced global access
/// per iteration, and a barrier between iterations.
fn warp_stream(iters: usize, salt: u64) -> Vec<TraceEntry> {
    let mut out = Vec::new();
    let e = |class: InstrClass| TraceEntry {
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
    };
    for i in 0..iters {
        for j in 0..16u8 {
            let mut ld = e(InstrClass::TypeII);
            ld.dst = j % 8;
            ld.dst_n = 1;
            ld.dst_lat = DstLatency::Smem;
            ld.smem_half_txns = if j % 5 == 0 { 4 } else { 2 };
            out.push(ld);
            let mut fma = e(InstrClass::TypeII);
            fma.dst = 8 + j % 4;
            fma.dst_n = 1;
            fma.srcs[0] = j % 8;
            fma.srcs[1] = 8 + j % 4;
            fma.nsrcs = 2;
            out.push(fma);
        }
        let mut gld = e(InstrClass::TypeII);
        gld.dst = 12;
        gld.dst_n = 1;
        gld.dst_lat = DstLatency::Gmem;
        gld.gmem_load = true;
        gld.gmem = Some(
            vec![Transaction {
                base: 4096 + ((salt + i as u64) % 512) * 128,
                size: 128,
            }]
            .into_boxed_slice(),
        );
        out.push(gld);
        let mut bar = e(InstrClass::TypeII);
        bar.bar = true;
        out.push(bar);
    }
    out
}

fn workload() -> (Vec<Arc<BlockTrace>>, LaunchConfig, KernelResources) {
    // 40 blocks over GTX 285's 10 clusters, 4 warps each: every cluster
    // replays 4 blocks of ~2.7k warp-instructions.
    let blocks: Vec<Arc<BlockTrace>> = (0..40u64)
        .map(|b| {
            Arc::new(BlockTrace::from_entries(
                (0..4).map(|w| warp_stream(40, b * 7 + w)).collect(),
            ))
        })
        .collect();
    (
        blocks,
        LaunchConfig::new_1d(40, 128),
        KernelResources::new(16, 2048, 128),
    )
}

fn bench_timing(c: &mut Criterion) {
    let machine = Machine::gtx285();
    let (blocks, launch, res) = workload();

    let run = |threads: Threads| {
        let mut sim = TimingSim::new(&machine);
        sim.set_threads(threads);
        let src = TraceSource::PerBlock(blocks.clone());
        sim.run(&src, &launch, res)
    };
    assert_eq!(
        run(Threads::sequential()),
        run(Threads::Auto),
        "parallel replay must be bit-identical to sequential"
    );

    c.bench_function("sim/timing_seq", |b| {
        b.iter(|| black_box(run(Threads::sequential())))
    });
    c.bench_function("sim/timing_par", |b| {
        b.iter(|| black_box(run(Threads::Auto)))
    });
}

criterion_group!(benches, bench_timing);
criterion_main!(benches);
