//! Parallel execution: the one order-preserving fan-out ([`par_map`]),
//! the worker-count policy ([`Threads`]), and the block-sharded
//! functional run built on them.
//!
//! Every parallel job in the workspace is a list of independent items:
//! blocks of a grid, TPC clusters of a timing replay, warp-count samples
//! of a calibration, requests of a batch. [`par_map`] runs such a list on
//! scoped worker threads that claim items one at a time and returns the
//! results in item order, so which worker ran an item never reaches a
//! result. The core count is read here and nowhere else
//! ([`Threads::count`]).
//!
//! # Block sharding
//!
//! Blocks of one launch may not communicate through global memory (real
//! CUDA offers no global barrier), so [`FunctionalSim::run`] can execute
//! disjoint block ranges on separate threads and still produce output
//! **bit-identical** to the sequential walk:
//!
//! * The grid's blocks `0..n` are split into one **contiguous range** of
//!   near-equal size per worker; the workers claim the ranges through
//!   [`par_map`].
//! * The first range runs against the **caller's memory**, so its writes
//!   land in place and in block-id order, as the sequential walk's do.
//!   Every other range runs against a **private copy** of the initial
//!   [`GlobalMemory`] with write capture enabled
//!   ([`GlobalMemory::begin_write_capture`]). The first range can write in
//!   place because it runs first in the sequential order: it is never
//!   aborted and never overdraws the fuel, so nothing below it can
//!   invalidate its writes. Each range gets a fresh
//!   [`crate::stats::DynamicStats`] accumulator and the grid's whole fuel
//!   budget and walks in block-id order — the same walk an inline run
//!   takes over the whole grid.
//! * Results merge **in block-id order**: per-stage statistics via
//!   [`crate::stats::StageStats::merge_blocks`] (all counters are additive
//!   across disjoint block sets), per-region traffic summed, traces
//!   concatenated, and the captured write logs of the later ranges
//!   replayed into the caller's memory ([`GlobalMemory::apply_writes`]).
//!   Replaying in block-id order makes even racy cross-block overwrites
//!   resolve exactly as the sequential walk would, and an outer capture
//!   on the caller's memory logs the first range's writes as they happen
//!   and the rest as they are replayed: the sequential walk's log.
//!
//! Under [`crate::TraceBlocks::Replay`] the merge also drops repeats
//! across ranges: a range whose first trace is shape-equal to block 0's
//! shares block 0's trace. A dropped block may then hold a different
//! shape-equal trace than the sequential walk gives it (each range drops
//! against its own first block), but never a different shape, so the
//! trace source ([`crate::func::RunOutput::trace_source`]) is homogeneous at
//! every worker count or at none, and its replay is the same.
//!
//! # One fault rule, fuel included
//!
//! A failing run returns the lowest-block-id [`SimError`] and leaves the
//! caller's memory exactly as the sequential walk leaves it: the writes of
//! every block below the faulting one, plus the faulting block's own
//! writes up to its fault. That holds at every worker count: a sharded run
//! keeps the first range's writes in place, replays the logs of every
//! later range below the failing one, then the failing range's log, which
//! stops at its fault. Ranges *above* a failing one
//! abort between blocks (their results could never be observed); ranges
//! below always run to completion, because one of them may still fail
//! earlier and become the authoritative error.
//!
//! Running out of fuel is such a fault. The fuel budget
//! ([`FunctionalSim::set_fuel`]) covers the whole grid at every worker
//! count, so a run exhausts it exactly where the sequential walk does.
//! Each range walks with the full budget and reports what it spent; the
//! in-order merge charges each range against what the grid has left. The
//! first range that overdraws is walked again on the caller's thread, on
//! the memory the lower ranges leave and with exactly the fuel that is
//! left, and that walk's result is the answer. Range 0 never overdraws,
//! so a grid whose first range runs out is never walked twice. A later
//! range that runs out is walked in parallel on the full budget and then
//! again on what is left, so a runaway loop outside range 0 takes up to
//! about twice the sequential walk's wall time. A counter shared by the
//! workers would not save the merge: which range drew its last unit
//! would be a race, and the merge would still have to reproduce the
//! sequential error and memory.
//!
//! # When `Auto` shards
//!
//! Sharding has a fixed price however small the grid. One
//! `std::thread::scope` that spawns two idle threads costs about 32 µs
//! user + 100 µs system time; when each thread also allocates its warps'
//! register files, its first touches of a cold allocator arena raise
//! that to about 150 µs user + 650 µs system time and ~190 page faults
//! (2-vCPU host). Each range after the first also copies the device
//! memory. On a 1–3 ms kernel that is as much CPU as the simulation
//! itself.
//!
//! So [`Threads::Auto`] shards only work that repays the threads: a job
//! whose estimated size is below [`GRAIN`] runs on the caller's thread
//! ([`Threads::workers_for`]). For a functional pass the size is
//! [`FunctionalSim::work_estimate`] (warp instructions of a loop-free
//! kernel; a kernel with a loop has no estimate and always shards); for
//! a per-block timing replay it is the trace entries to replay.
//! [`Threads::Fixed`] is never second-guessed: `Fixed(n)` means exactly
//! `n` workers for any job.
//!
//! Results, errors and memory are the same for every worker count, so the
//! estimate decides only time, never output. The price is on an idle
//! machine: a lone small request gives up its split, at most about half
//! of a run below `GRAIN` (a few ms). Under load, when every core already
//! has a request, the inline run is faster too.

use crate::error::SimError;
use crate::func::{FunctionalSim, RunOutput, TraceRecorder};
use crate::memory::GlobalMemory;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The smallest job, in warp instructions or trace entries, that
/// [`Threads::Auto`] shards; smaller jobs run on the caller's thread.
///
/// At 20–65 ns per warp instruction (20 for an `add.s32`, 60–70 for a
/// unit-stride `ld.global`, ~62 on average for the matmul n=256 and SpMV
/// ELL layer benches, 56–61 over perfbench's `paper_cases` mix; a
/// scattered `ld.global` alone costs ~550; sequential, 2-vCPU host),
/// `GRAIN` is ~0.7–2 ms of simulation, the same order as the ~0.8 ms of
/// CPU that spawning two workers with cold allocator arenas costs (see
/// the [module docs](crate::engine)). The
/// smallest paper case that shards, spmv in the blocked-ELL format, has
/// ~41.7k; keep `GRAIN` below it.
pub const GRAIN: u64 = 1 << 15;

/// Worker-thread selection for work that shards into independent pieces:
/// block execution and timing replay ([`FunctionalSim::set_threads`],
/// [`crate::TimingSim::set_threads`], `run_study` in `gpa-apps`), curve
/// calibration (`MeasureOpts` in `gpa-ubench`), and one request's
/// simulation (`AnalysisOptions::threads` in `gpa-service`).
///
/// Sharded results, errors and memory are **bit-identical at every
/// thread count** throughout the workspace (see the
/// [module docs](crate::engine)), so everything above `run_study` (the
/// case-study driver, batch analysis, the exhibits) leaves the count to
/// [`Threads::Auto`]. An explicit count is for comparing counts in tests,
/// for single-core profiling, and for a wire request's `threads`.
///
/// This enum is the one in-process thread encoding. The wire's numeric
/// `threads` (`0` = auto, `n` = exactly `n` workers) is decoded by
/// `gpa-service`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Threads {
    /// One worker per available CPU core, for jobs of at least [`GRAIN`];
    /// one worker below it. The core count is read from the OS once per
    /// process (it reads cgroup files, ~30 µs) and cached.
    #[default]
    Auto,
    /// Exactly `n` workers; `Fixed(1)` is the sequential special case.
    Fixed(usize),
}

impl Threads {
    /// The sequential special case (`Fixed(1)`).
    pub fn sequential() -> Threads {
        Threads::Fixed(1)
    }

    /// Resolved worker count (≥ 1): `Auto` is the number of available
    /// CPU cores, `Fixed(0)` is normalized to one worker.
    pub fn count(self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        match self {
            Threads::Auto => {
                *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
            }
            Threads::Fixed(n) => n.max(1),
        }
    }

    /// Workers (≥ 1) for a job of `work` units, `None` when its size is
    /// unknown: `Auto` runs a job below [`GRAIN`] on one worker and
    /// anything else on [`Threads::count`]; `Fixed(n)` is `n` for any job.
    pub fn workers_for(self, work: Option<u64>) -> usize {
        match (self, work) {
            (Threads::Auto, Some(w)) if w < GRAIN => 1,
            _ => self.count(),
        }
    }
}

/// Apply `f` to every item on up to `workers` scoped threads and return
/// the results in item order. `f` gets each item's index too.
///
/// With `workers ≤ 1` or at most one item, the items run in order on the
/// caller's thread. Otherwise `min(workers, items.len())` threads claim
/// item indices one at a time from a shared counter, so items of uneven
/// cost still spread across every thread. A panic in `f` propagates to
/// the caller.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(i, item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Split `num_blocks` blocks into at most `workers` contiguous, non-empty,
/// near-equal ranges covering `0..num_blocks` in order.
fn shard_plan(num_blocks: u32, workers: usize) -> Vec<Range<u32>> {
    // Min first: a worker count of 2^32 or more must not truncate.
    let shards = workers.max(1).min(num_blocks as usize) as u32;
    let mut plan = Vec::with_capacity(shards as usize);
    let mut start = 0u32;
    for s in 0..shards {
        // Distribute the remainder over the leading ranges.
        let len = num_blocks / shards + u32::from(s < num_blocks % shards);
        plan.push(start..start + len);
        start += len;
    }
    plan
}

/// Execute every block of `sim`'s grid against `gmem` on `workers`
/// threads, with output bit-identical to the sequential walk, faults and
/// fuel included (see the [module docs](crate::engine)).
pub(crate) fn run(
    sim: &FunctionalSim<'_>,
    gmem: &mut GlobalMemory,
    workers: usize,
) -> Result<RunOutput, SimError> {
    let num_blocks = sim.launch().num_blocks();
    let budget = sim.fuel_budget();
    if workers <= 1 || num_blocks <= 1 {
        let inline = walk(sim, gmem, 0..num_blocks, budget, || false);
        return inline.expect("an inline walk never aborts").0;
    }

    // Range 0 walks on the caller's memory, so its writes land in place
    // and in order (an outer capture logs them as they happen). Every
    // other range walks on a copy of the initial memory with write capture
    // on. The copies are made on the caller's thread before any range
    // starts: a copy made on a worker comes from that worker's allocator
    // arena, which keeps its peak after the run (perfbench `paper_cases`
    // `rss_mb` read ~11% higher that way on a 2-vCPU host).
    let plan = shard_plan(num_blocks, workers);
    let copies: Vec<Mutex<GlobalMemory>> =
        plan[1..].iter().map(|_| Mutex::new(gmem.clone())).collect();
    let caller = Mutex::new(&mut *gmem);
    // Fail-fast coordination: a failing range publishes its index so
    // *higher* ranges stop wasting work between blocks. Lower ranges
    // always run to completion — they must, because the authoritative
    // error is the one from the lowest failing range (sequential
    // semantics), and a lower range may still fail earlier.
    let lowest_failed = AtomicUsize::new(usize::MAX);
    let outs = par_map(&plan, plan.len(), |idx, range| {
        let aborted = || lowest_failed.load(Ordering::Relaxed) < idx;
        let (out, spent, writes) = if idx == 0 {
            let mut mem = caller.lock().expect("a range runs once");
            let (out, spent) = walk(sim, &mut mem, range.clone(), budget, aborted)?;
            (out, spent, None)
        } else {
            let mut copy = copies[idx - 1].lock().expect("a range runs once");
            copy.begin_write_capture();
            let (out, spent) = walk(sim, &mut copy, range.clone(), budget, aborted)?;
            (out, spent, Some(copy.take_captured_writes()))
        };
        if out.is_err() {
            lowest_failed.fetch_min(idx, Ordering::Relaxed);
        }
        Some((out, spent, writes))
    });
    // Free the copies before the merge allocates.
    drop((copies, caller));

    // Deterministic merge in block-id order, up to and including the
    // first failing range, charging each range's fuel against what the
    // grid has left.
    let mut left = budget;
    let mut stats = sim.fresh_stats();
    let mut traces = sim.recorder();
    for (range, out) in plan.into_iter().zip(outs) {
        let (out, spent) = match out {
            Some((out, spent, writes)) if spent <= left => {
                if let Some(writes) = writes {
                    gmem.apply_writes(&writes)
                        .expect("captured writes replay into the memory they came from");
                }
                (out, spent)
            }
            // The range overdraws the grid's fuel (or was aborted, which
            // only a range above a failing one is): the sequential walk
            // answers it, on the memory the lower ranges leave and with
            // exactly the fuel that is left. Its parallel output (traces
            // of up to a whole budget) is freed first.
            overdrawn => {
                drop(overdrawn);
                walk(sim, gmem, range, left, || false).expect("an inline walk never aborts")
            }
        };
        left -= spent;
        let shard = out?;
        stats.merge_shard(&shard.stats);
        if let (Some(all), Some(t)) = (traces.as_mut(), shard.traces) {
            all.append_range(t);
        }
    }
    Ok(RunOutput {
        stats,
        traces: traces.map(TraceRecorder::finish),
    })
}

/// Execute `blocks` of `sim`'s grid in block-id order against `gmem` on
/// `budget` units of fuel, returning the result and the fuel it spent.
/// Returns `None` when `aborted` fires between blocks (a lower range
/// failed, so this one's result could never be observed).
fn walk(
    sim: &FunctionalSim<'_>,
    gmem: &mut GlobalMemory,
    blocks: Range<u32>,
    budget: u64,
    aborted: impl Fn() -> bool,
) -> Option<(Result<RunOutput, SimError>, u64)> {
    let mut stats = sim.fresh_stats();
    stats.blocks = u64::from(blocks.end - blocks.start);
    let mut traces = sim.recorder();
    let mut fuel = budget;
    for b in blocks {
        if aborted() {
            return None;
        }
        if let Err(e) = sim.exec_grid_block(gmem, b, traces.as_mut(), &mut stats, &mut fuel) {
            return Some((Err(e), budget - fuel));
        }
    }
    let traces = traces.map(TraceRecorder::finish);
    Some((Ok(RunOutput { stats, traces }), budget - fuel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::TraceBlocks;
    use crate::grid::LaunchConfig;
    use crate::timing::TraceSource;
    use gpa_hw::Machine;
    use gpa_isa::builder::KernelBuilder;
    use gpa_isa::instr::{CmpOp, MemAddr, NumTy, Op, Pred, SpecialReg, Src, Width};
    use gpa_isa::Kernel;
    use std::sync::Arc;

    /// out[global_tid] = ctaid * 3 + tid, with a shared-memory staging
    /// round (store, barrier, load the neighbour's slot) so the kernel
    /// exercises stages, smem traffic, and gmem writes.
    fn staged_kernel(threads: u32) -> Kernel {
        staged_kernel_exiting_from(threads, None)
    }

    /// The staged kernel, except that blocks from `from` on, if given,
    /// exit at once, so their traces differ from block 0's.
    fn staged_kernel_exiting_from(threads: u32, from: Option<i32>) -> Kernel {
        let mut b = KernelBuilder::new("engine_test");
        b.set_threads(threads);
        let smem = b.smem_alloc(threads * 4, 4).unwrap();
        let tid = b.alloc_reg().unwrap();
        let cta = b.alloc_reg().unwrap();
        b.s2r(cta, SpecialReg::CtaIdX);
        if let Some(from) = from {
            b.setp(
                Pred(0),
                CmpOp::Ge,
                NumTy::S32,
                Src::Reg(cta),
                Src::Imm(from),
            );
            b.set_guard(Pred(0), false);
            b.emit(Op::Exit);
            b.clear_guard();
        }
        let v = b.alloc_reg().unwrap();
        let addr = b.alloc_reg().unwrap();
        let base = b.alloc_reg().unwrap();
        let ntid = b.alloc_reg().unwrap();
        let p = b.param_alloc();
        b.s2r(tid, SpecialReg::TidX);
        b.s2r(ntid, SpecialReg::NTidX);
        b.imad(v, Src::Reg(cta), Src::Imm(3), Src::Reg(tid));
        // smem[tid] = v; bar; v = smem[tid]
        b.shl(addr, Src::Reg(tid), Src::Imm(2));
        b.iadd(addr, Src::Reg(addr), Src::Imm(smem as i32));
        b.st_shared(MemAddr::new(Some(addr), 0), v, Width::B32);
        b.bar();
        b.ld_shared(v, MemAddr::new(Some(addr), 0), Width::B32);
        // out[cta * ntid + tid] = v
        b.imad(base, Src::Reg(cta), Src::Reg(ntid), Src::Reg(tid));
        b.shl(base, Src::Reg(base), Src::Imm(2));
        b.ld_param(addr, p);
        b.iadd(base, Src::Reg(base), Src::Reg(addr));
        b.st_global(MemAddr::new(Some(base), 0), v, Width::B32);
        b.exit();
        b.finish().unwrap()
    }

    /// The staged kernel over 37 blocks of 64 threads, on `fuel`.
    fn run_staged_on(
        threads: Threads,
        trace: bool,
        fuel: u64,
    ) -> (Result<RunOutput, SimError>, GlobalMemory) {
        let m = Machine::gtx285();
        let k = staged_kernel(64);
        let launch = LaunchConfig::new_1d(37, 64);
        let mut gmem = GlobalMemory::new();
        let out = gmem.alloc(u64::from(37u32 * 64) * 4, 128);
        let mut sim = FunctionalSim::new(&m, &k, launch).unwrap();
        sim.set_params(&[out as u32])
            .collect_traces(trace)
            .set_threads(threads)
            .set_fuel(fuel);
        sim.add_region("out", out, u64::from(37u32 * 64) * 4);
        let output = sim.run(&mut gmem);
        (output, gmem)
    }

    fn run_staged(threads: Threads, trace: bool) -> (RunOutput, GlobalMemory) {
        let (output, gmem) = run_staged_on(threads, trace, u64::MAX);
        (output.unwrap(), gmem)
    }

    #[test]
    fn shard_plan_covers_grid_contiguously() {
        for blocks in [1u32, 2, 3, 7, 8, 61, 1000] {
            for threads in [1usize, 2, 3, 4, 13, 64] {
                let plan = shard_plan(blocks, threads);
                assert!(plan.len() <= threads);
                assert!(plan.len() as u32 <= blocks);
                let mut next = 0u32;
                for r in &plan {
                    assert_eq!(r.start, next, "gap at {r:?} ({blocks}b/{threads}t)");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, blocks);
                let sizes: Vec<u32> = plan.iter().map(|r| r.end - r.start).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced plan {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_plan_never_truncates_a_huge_worker_count() {
        assert_eq!(
            shard_plan(8, 1 << 32),
            (0..8).map(|b| b..b + 1).collect::<Vec<_>>()
        );
        assert_eq!(shard_plan(8, usize::MAX).len(), 8);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (seq, seq_mem) = run_staged(Threads::sequential(), true);
        for threads in [
            Threads::Fixed(2),
            Threads::Fixed(3),
            Threads::Fixed(4),
            Threads::Auto,
        ] {
            let (par, par_mem) = run_staged(threads, true);
            assert_eq!(seq.stats, par.stats, "stats diverge at {threads:?}");
            assert_eq!(seq.traces, par.traces, "traces diverge at {threads:?}");
            assert_eq!(seq_mem, par_mem, "memory diverges at {threads:?}");
        }
    }

    /// The staged grid of 37 blocks, where blocks from `exit_from` on
    /// exit at once, traced as `blocks` on `threads` workers, with its
    /// out buffer as a texture region when `texture`.
    fn run_exiting(
        exit_from: i32,
        blocks: TraceBlocks,
        threads: Threads,
        texture: bool,
    ) -> RunOutput {
        let m = Machine::gtx285();
        let k = staged_kernel_exiting_from(64, Some(exit_from));
        let mut gmem = GlobalMemory::new();
        let len = u64::from(37u32 * 64) * 4;
        let out = gmem.alloc(len, 128);
        let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(37, 64)).unwrap();
        sim.set_params(&[out as u32])
            .collect_traces(blocks)
            .set_threads(threads);
        if texture {
            sim.add_texture_region("out", out, len);
        } else {
            sim.add_region("out", out, len);
        }
        sim.run(&mut gmem).unwrap()
    }

    #[test]
    fn replay_traces_share_shapes_at_every_worker_count() {
        for exit_from in [0, 1, 10, 19, 30, 36, 37] {
            let all = run_exiting(exit_from, TraceBlocks::All, Threads::sequential(), false);
            let all = all.traces.unwrap();
            for threads in [1usize, 2, 3, 4, 8] {
                let what = format!("exit from {exit_from}, {threads} threads");
                let out = run_exiting(
                    exit_from,
                    TraceBlocks::Replay,
                    Threads::Fixed(threads),
                    false,
                );
                let traces = out.traces.as_ref().unwrap();
                assert_eq!(traces.len(), all.len(), "{what}");
                for (b, (got, own)) in traces.iter().zip(&all).enumerate() {
                    assert!(got.shape_eq(own), "block {b}: {what}");
                }
                let uniform = exit_from == 0 || exit_from >= 37;
                match out.trace_source().unwrap() {
                    TraceSource::Homogeneous(t) => {
                        assert!(uniform, "{what}");
                        assert_eq!(*t, *all[0], "block 0's own trace: {what}");
                    }
                    TraceSource::PerBlock(_) => assert!(!uniform, "{what}"),
                }
                if threads == 1 {
                    // The walk drops every block that repeats block 0.
                    for (b, t) in traces.iter().enumerate() {
                        let dropped = b > 0 && t.shape_eq(&traces[0]);
                        assert_eq!(Arc::ptr_eq(t, &traces[0]), b == 0 || dropped, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn replay_keeps_every_block_of_a_textured_grid() {
        let all = run_exiting(37, TraceBlocks::All, Threads::sequential(), true);
        for threads in [1usize, 3] {
            let out = run_exiting(37, TraceBlocks::Replay, Threads::Fixed(threads), true);
            assert_eq!(out, all, "{threads} threads");
            assert!(matches!(out.trace_source(), Some(TraceSource::PerBlock(_))));
        }
    }

    #[test]
    fn parallel_without_traces_matches_too() {
        let (seq, seq_mem) = run_staged(Threads::sequential(), false);
        let (par, par_mem) = run_staged(Threads::Fixed(3), false);
        assert!(seq.traces.is_none() && par.traces.is_none());
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq_mem, par_mem);
    }

    #[test]
    fn outer_write_capture_is_thread_count_invariant() {
        let m = Machine::gtx285();
        let k = staged_kernel(64);
        let launch = LaunchConfig::new_1d(9, 64);
        let capture_with = |threads: usize| {
            let mut gmem = GlobalMemory::new();
            let out = gmem.alloc(u64::from(9u32 * 64) * 4, 128);
            let mut sim = FunctionalSim::new(&m, &k, launch).unwrap();
            sim.set_params(&[out as u32])
                .set_threads(Threads::Fixed(threads));
            gmem.begin_write_capture();
            sim.run(&mut gmem).unwrap();
            gmem.take_captured_writes()
        };
        let seq = capture_with(1);
        assert!(!seq.is_empty());
        assert_eq!(seq, capture_with(4));
    }

    #[test]
    fn fuel_runs_out_where_the_sequential_walk_runs_out() {
        let need = run_staged(Threads::sequential(), false)
            .0
            .stats
            .total()
            .instr_total();
        for fuel in [1, need / 3, need / 2, need - 1, need, need + 1] {
            let (seq, seq_mem) = run_staged_on(Threads::sequential(), true, fuel);
            assert_eq!(seq.is_ok(), fuel >= need, "fuel {fuel} of {need}");
            for threads in [2usize, 3, 4, 8] {
                let (par, par_mem) = run_staged_on(Threads::Fixed(threads), true, fuel);
                let what = format!("fuel {fuel} of {need}, {threads} threads");
                assert_eq!(par, seq, "{what}");
                assert_eq!(par_mem, seq_mem, "{what}");
            }
        }
    }

    /// The errors tests' launch: 8 blocks of 32 threads whose out buffer
    /// is sized for only 2 blocks, so block 2 is the first to store out of
    /// bounds at any worker count. Returns the error, the memory image and
    /// the out buffer's address.
    fn run_faulting(threads: Threads) -> (SimError, GlobalMemory, u64) {
        let m = Machine::gtx285();
        let k = staged_kernel(32);
        let launch = LaunchConfig::new_1d(8, 32);
        let mut gmem = GlobalMemory::new();
        let out = gmem.alloc(2 * 32 * 4, 128);
        let mut sim = FunctionalSim::new(&m, &k, launch).unwrap();
        sim.set_params(&[out as u32]).set_threads(threads);
        let err = sim.run(&mut gmem).unwrap_err();
        (err, gmem, out)
    }

    #[test]
    fn errors_and_memory_match_the_sequential_walk() {
        let (seq_err, seq_mem, _) = run_faulting(Threads::sequential());
        for threads in [2usize, 3, 4, 8] {
            let (err, gmem, _) = run_faulting(Threads::Fixed(threads));
            assert_eq!(
                format!("{err:?}"),
                format!("{seq_err:?}"),
                "error diverges at {threads} threads"
            );
            assert_eq!(gmem, seq_mem, "memory diverges at {threads} threads");
        }
    }

    #[test]
    fn small_auto_grids_fault_like_the_sequential_walk() {
        // Loop-free and far below `GRAIN`, so `Auto` runs inline while
        // `Fixed(2)` shards. Blocks 0–1 store before block 2 faults, and
        // their writes stay either way.
        let m = Machine::gtx285();
        let k = staged_kernel(32);
        let sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(8, 32)).unwrap();
        assert!(sim.work_estimate().unwrap() < GRAIN);
        let expected: Vec<u32> = (0..2)
            .flat_map(|b| (0..32).map(move |t| b * 3 + t))
            .collect();
        for threads in [Threads::Auto, Threads::Fixed(2)] {
            let (_, gmem, out) = run_faulting(threads);
            let words: Vec<u32> = (0..64u64)
                .map(|i| gmem.read_u32(out + i * 4).unwrap())
                .collect();
            assert_eq!(words, expected, "{threads:?}");
        }
    }

    #[test]
    fn auto_shards_only_work_that_repays_the_threads() {
        let cores = Threads::Auto.count();
        for work in [None, Some(0), Some(GRAIN - 1), Some(GRAIN), Some(u64::MAX)] {
            for n in [1usize, 2, 5] {
                assert_eq!(Threads::Fixed(n).workers_for(work), n, "{work:?}");
            }
            let auto = if work.is_some_and(|w| w < GRAIN) {
                1
            } else {
                cores
            };
            assert_eq!(Threads::Auto.workers_for(work), auto, "{work:?}");
        }
    }

    #[test]
    fn auto_resolves_to_at_least_one_worker() {
        assert!(Threads::Auto.workers_for(None) >= 1);
        assert_eq!(Threads::Auto.workers_for(Some(1)), 1);
        assert_eq!(Threads::Fixed(5).workers_for(Some(1)), 5);
    }

    #[test]
    fn par_map_returns_results_in_item_order() {
        let items: Vec<u64> = (0..7).collect();
        for workers in 0..=items.len() + 2 {
            let out = par_map(&items, workers, |i, &x| (i, x * x));
            let expected: Vec<(usize, u64)> = (0..7).map(|x| (x as usize, x * x)).collect();
            assert_eq!(out, expected, "{workers} workers");
        }
    }

    #[test]
    fn par_map_of_nothing_is_empty() {
        for workers in [0usize, 1, 4] {
            assert!(par_map(&[] as &[u8], workers, |_, &x| x).is_empty());
        }
    }

    #[test]
    fn par_map_calls_each_item_exactly_once() {
        let items: Vec<usize> = (0..50).collect();
        let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        par_map(&items, 4, |i, &x| {
            assert_eq!(i, x);
            calls[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_keeps_order_under_uneven_costs() {
        // Costs rise steeply with the index, as calibration's warp
        // samples do, so late items finish long after early ones.
        let items: Vec<u64> = (0..12).collect();
        let spin = |n: u64| (0..n * n * 2000).fold(0u64, |a, b| a.wrapping_add(b ^ a));
        let out = par_map(&items, 3, |_, &x| (x, spin(x)));
        let expected: Vec<(u64, u64)> = items.iter().map(|&x| (x, spin(x))).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn threads_resolution_and_legacy_encoding() {
        assert_eq!(Threads::default(), Threads::Auto);
        assert_eq!(Threads::sequential(), Threads::Fixed(1));
        assert_eq!(Threads::sequential().count(), 1);
        assert_eq!(Threads::Fixed(0).count(), 1);
        assert_eq!(Threads::Fixed(7).count(), 7);
        assert!(Threads::Auto.count() >= 1);
    }
}
