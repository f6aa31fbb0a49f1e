//! The parallel block-sharded execution engine.
//!
//! Block execution in a grid launch is embarrassingly parallel: blocks of
//! one launch may not communicate through global memory (real CUDA offers
//! no global barrier), so the functional simulator can execute disjoint
//! block ranges on separate OS threads and still produce output that is
//! **bit-identical** to the sequential walk. [`SimEngine`] is that layer.
//!
//! # Sharding/merge contract
//!
//! * The grid's blocks `0..n` are split into at most `num_threads`
//!   **contiguous shards** of near-equal size ([`SimEngine::shard_plan`]),
//!   one [`std::thread`] scoped worker per shard — no work stealing, so
//!   the assignment is deterministic.
//! * Each worker gets a **private copy** of the initial [`GlobalMemory`]
//!   with write capture enabled
//!   ([`GlobalMemory::begin_write_capture`]), a fresh [`DynamicStats`]
//!   accumulator, and its own fuel budget, and executes its shard's
//!   blocks sequentially in block-id order.
//! * Results merge **in shard (= block-id) order**: per-stage statistics
//!   via [`crate::stats::StageStats::merge_blocks`] (all counters are
//!   additive across disjoint block sets), per-region traffic summed,
//!   traces concatenated, and the captured global-memory write logs
//!   replayed into the caller's memory
//!   ([`GlobalMemory::apply_writes`]). Replaying in block-id order makes
//!   even racy cross-block overwrites resolve exactly as the sequential
//!   walk would.
//! * Errors are deterministic too: the error reported is the one from the
//!   lowest-numbered failing shard, which (for independent blocks) is the
//!   same lowest-block-id error the sequential walk raises. Shards
//!   *above* a failing one abort between blocks (their results could
//!   never be observed); shards below always run to completion, because
//!   one of them may still fail earlier and become the authoritative
//!   error. When execution was actually sharded (two or more workers and
//!   blocks), an error leaves the caller's memory untouched; the
//!   sequential fallback (one worker, or a single-block grid) keeps the
//!   classic walk's behaviour of leaving already-executed writes in
//!   place.
//!
//! The only observable divergence from the sequential path is the fuel
//! accounting: a sequential run spends one budget across the whole grid,
//! a parallel run one budget per shard, so a grid that exhausts fuel
//! sequentially may complete in parallel (never the reverse for
//! per-block-affordable kernels). This is deliberate: fuel is a
//! runaway-loop guard, not a metered resource, and the deterministic
//! alternative — splitting one budget across shards up front — would
//! make parallel runs fail where sequential ones succeed. Layers that
//! expose a fuel knob (`run_study`'s `fuel` in `gpa-apps`,
//! `AnalysisOptions::fuel` in `gpa-service`) document the same
//! per-shard semantics.

use crate::error::SimError;
use crate::func::{FunctionalSim, RunOutput};
use crate::memory::{GlobalMemory, WriteRecord};
use crate::stats::{BlockTrace, DynamicStats};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-thread selection, the one threading knob shared by every layer
/// that shards independent work: block execution ([`SimEngine`],
/// `run_study` in `gpa-apps`), curve calibration (`MeasureOpts` in
/// `gpa-ubench`), and batch analysis (`AnalysisOptions` in `gpa-service`).
///
/// Sharded results are **bit-identical at every thread count** throughout
/// the workspace, so the options layers default to [`Threads::Auto`]; pick
/// [`Threads::sequential`] only when wall-clock determinism or single-core
/// profiling matters. (The exception is fuel accounting: a parallel run
/// budgets fuel per shard — see the [module docs](crate::engine).)
///
/// The legacy `usize` encoding (`0` = auto, `n` = exactly `n` workers)
/// converts via `From`, so call sites may pass plain counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Threads {
    /// One worker per available CPU core.
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

    /// Resolved worker count (≥ 1): `Auto` asks the OS for the number of
    /// available CPU cores, `Fixed(0)` is normalized to one worker.
    pub fn count(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism().map_or(1, |p| p.get()),
            Threads::Fixed(n) => n.max(1),
        }
    }

    /// The legacy `usize` encoding: `0` = auto, `n` = exactly `n` workers.
    pub fn raw(self) -> usize {
        match self {
            Threads::Auto => 0,
            Threads::Fixed(n) => n,
        }
    }
}

impl From<usize> for Threads {
    /// Legacy encoding: `0` = auto, `n` = exactly `n` workers.
    fn from(n: usize) -> Threads {
        if n == 0 {
            Threads::Auto
        } else {
            Threads::Fixed(n)
        }
    }
}

/// Executes a [`FunctionalSim`]'s grid across worker threads.
///
/// Construct with an explicit thread count ([`SimEngine::new`]) or one
/// worker per available CPU core ([`SimEngine::auto`]). The engine is
/// cheap to build; all simulation state lives in the `FunctionalSim` and
/// the per-run shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimEngine {
    num_threads: usize,
}

/// What one shard worker produces: its statistics, its (optional) traces
/// in block order, and the global-memory writes its blocks performed.
struct ShardOutput {
    stats: DynamicStats,
    traces: Option<Vec<BlockTrace>>,
    writes: Vec<WriteRecord>,
}

impl SimEngine {
    /// An engine with `num_threads` workers. `0` means "auto" (one worker
    /// per available CPU core); `1` is the sequential special case.
    pub fn new(num_threads: usize) -> SimEngine {
        let n = if num_threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            num_threads
        };
        SimEngine { num_threads: n }
    }

    /// One worker per available CPU core.
    pub fn auto() -> SimEngine {
        SimEngine::new(0)
    }

    /// An engine from a [`Threads`] selection.
    pub fn with_threads(threads: Threads) -> SimEngine {
        SimEngine {
            num_threads: threads.count(),
        }
    }

    /// Resolved worker count (≥ 1).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Split `num_blocks` blocks into at most `num_threads` contiguous,
    /// non-empty, near-equal shards covering `0..num_blocks` in order.
    pub fn shard_plan(num_blocks: u32, num_threads: usize) -> Vec<Range<u32>> {
        let shards = (num_threads.max(1) as u32).min(num_blocks);
        let mut plan = Vec::with_capacity(shards as usize);
        let mut start = 0u32;
        for s in 0..shards {
            // Distribute the remainder over the leading shards.
            let len = num_blocks / shards + u32::from(s < num_blocks % shards);
            plan.push(start..start + len);
            start += len;
        }
        plan
    }

    /// Execute every block of `sim`'s grid against `gmem`, sharded across
    /// this engine's workers, and return output bit-identical to the
    /// sequential path (see the [module docs](crate::engine) for the
    /// contract and the fuel caveat).
    ///
    /// # Errors
    ///
    /// Propagates the lowest-block-id [`SimError`]. When execution was
    /// actually sharded (≥ 2 workers and ≥ 2 blocks), `gmem` is unchanged
    /// on error; the sequential fallback leaves already-executed writes
    /// in place, exactly like the classic walk.
    pub fn run(
        &self,
        sim: &FunctionalSim<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<RunOutput, SimError> {
        let num_blocks = sim.launch().num_blocks();
        if self.num_threads <= 1 || num_blocks <= 1 {
            return Self::run_sequential(sim, gmem);
        }

        let plan = Self::shard_plan(num_blocks, self.num_threads);
        // Fail-fast coordination: a failing shard publishes its index so
        // *higher* shards stop wasting work between blocks. Lower shards
        // always run to completion — they must, because the authoritative
        // error is the one from the lowest failing shard (sequential
        // semantics), and a lower shard may still fail earlier.
        let lowest_failed = AtomicUsize::new(usize::MAX);
        let shard_results: Vec<Option<Result<ShardOutput, SimError>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = plan
                    .iter()
                    .enumerate()
                    .map(|(idx, range)| {
                        let mut shard_mem = gmem.clone();
                        let range = range.clone();
                        let failed = &lowest_failed;
                        scope.spawn(move || {
                            let out = Self::run_shard(sim, &mut shard_mem, range, idx, failed);
                            if matches!(out, Some(Err(_))) {
                                failed.fetch_min(idx, Ordering::Relaxed);
                            }
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("simulation worker panicked"))
                    .collect()
            });

        // Deterministic merge in shard (= block-id) order.
        let mut stats = sim.fresh_stats();
        let mut traces = sim.is_collecting_traces().then(Vec::new);
        let mut writes: Vec<WriteRecord> = Vec::new();
        for result in shard_results {
            // An aborted shard (`None`) only exists above a failing one,
            // so the `?` below always returns before reaching it.
            let shard = result.expect("shard aborted with no lower-shard failure")?;
            stats.merge_shard(&shard.stats);
            if let (Some(all), Some(mut t)) = (traces.as_mut(), shard.traces) {
                all.append(&mut t);
            }
            writes.extend(shard.writes);
        }
        gmem.apply_writes(&writes)
            .expect("captured writes replay into the memory they came from");
        stats.blocks = u64::from(num_blocks);
        Ok(RunOutput { stats, traces })
    }

    /// The `num_threads == 1` special case: the classic sequential walk,
    /// with one fuel budget shared across the whole grid.
    fn run_sequential(
        sim: &FunctionalSim<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<RunOutput, SimError> {
        let mut stats = sim.fresh_stats();
        let mut traces = sim.is_collecting_traces().then(Vec::new);
        let mut fuel = sim.fuel_budget();
        for b in 0..sim.launch().num_blocks() {
            let trace = sim.exec_grid_block(gmem, b, &mut stats, &mut fuel)?;
            if let (Some(ts), Some(t)) = (traces.as_mut(), trace) {
                ts.push(t);
            }
        }
        stats.blocks = u64::from(sim.launch().num_blocks());
        Ok(RunOutput { stats, traces })
    }

    /// Run one shard's blocks sequentially against its private memory.
    /// Returns `None` when aborted because a lower-indexed shard failed
    /// (this shard's result could never be observed).
    fn run_shard(
        sim: &FunctionalSim<'_>,
        shard_mem: &mut GlobalMemory,
        range: Range<u32>,
        shard_idx: usize,
        lowest_failed: &AtomicUsize,
    ) -> Option<Result<ShardOutput, SimError>> {
        shard_mem.begin_write_capture();
        let mut stats = sim.fresh_stats();
        let mut traces = sim.is_collecting_traces().then(Vec::new);
        let mut fuel = sim.fuel_budget();
        for b in range {
            if lowest_failed.load(Ordering::Relaxed) < shard_idx {
                return None;
            }
            match sim.exec_grid_block(shard_mem, b, &mut stats, &mut fuel) {
                Ok(trace) => {
                    if let (Some(ts), Some(t)) = (traces.as_mut(), trace) {
                        ts.push(t);
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        stats.blocks = 0; // the merge sets the grid total
        Some(Ok(ShardOutput {
            stats,
            traces,
            writes: shard_mem.take_captured_writes(),
        }))
    }
}

impl Default for SimEngine {
    fn default() -> Self {
        SimEngine::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::LaunchConfig;
    use gpa_hw::Machine;
    use gpa_isa::builder::KernelBuilder;
    use gpa_isa::instr::{MemAddr, SpecialReg, Src, Width};
    use gpa_isa::Kernel;

    /// out[global_tid] = ctaid * 3 + tid, with a shared-memory staging
    /// round (store, barrier, load the neighbour's slot) so the kernel
    /// exercises stages, smem traffic, and gmem writes.
    fn staged_kernel(threads: u32) -> Kernel {
        let mut b = KernelBuilder::new("engine_test");
        b.set_threads(threads);
        let smem = b.smem_alloc(threads * 4, 4).unwrap();
        let tid = b.alloc_reg().unwrap();
        let cta = b.alloc_reg().unwrap();
        let v = b.alloc_reg().unwrap();
        let addr = b.alloc_reg().unwrap();
        let base = b.alloc_reg().unwrap();
        let ntid = b.alloc_reg().unwrap();
        let p = b.param_alloc();
        b.s2r(tid, SpecialReg::TidX);
        b.s2r(cta, SpecialReg::CtaIdX);
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

    fn run_with_threads(threads: usize, trace: bool) -> (RunOutput, GlobalMemory) {
        let m = Machine::gtx285();
        let k = staged_kernel(64);
        let launch = LaunchConfig::new_1d(37, 64);
        let mut gmem = GlobalMemory::new();
        let out = gmem.alloc(u64::from(37u32 * 64) * 4, 128);
        let mut sim = FunctionalSim::new(&m, &k, launch).unwrap();
        sim.set_params(&[out as u32])
            .collect_traces(trace)
            .set_num_threads(threads);
        sim.add_region("out", out, u64::from(37u32 * 64) * 4);
        let output = sim.run(&mut gmem).unwrap();
        (output, gmem)
    }

    #[test]
    fn shard_plan_covers_grid_contiguously() {
        for blocks in [1u32, 2, 3, 7, 8, 61, 1000] {
            for threads in [1usize, 2, 3, 4, 13, 64] {
                let plan = SimEngine::shard_plan(blocks, threads);
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
    fn parallel_matches_sequential_bitwise() {
        let (seq, seq_mem) = run_with_threads(1, true);
        for threads in [2usize, 3, 4, 0] {
            let (par, par_mem) = run_with_threads(threads, true);
            assert_eq!(seq.stats, par.stats, "stats diverge at {threads} threads");
            assert_eq!(
                seq.traces, par.traces,
                "traces diverge at {threads} threads"
            );
            assert_eq!(seq_mem, par_mem, "memory diverges at {threads} threads");
        }
    }

    #[test]
    fn parallel_without_traces_matches_too() {
        let (seq, seq_mem) = run_with_threads(1, false);
        let (par, par_mem) = run_with_threads(3, false);
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
            sim.set_params(&[out as u32]).set_num_threads(threads);
            gmem.begin_write_capture();
            sim.run(&mut gmem).unwrap();
            gmem.take_captured_writes()
        };
        let seq = capture_with(1);
        assert!(!seq.is_empty());
        assert_eq!(seq, capture_with(4));
    }

    #[test]
    fn errors_are_deterministic_and_leave_memory_untouched() {
        // out buffer sized for only 2 blocks: block 2 is the first to
        // store out of bounds regardless of thread count.
        let m = Machine::gtx285();
        let k = staged_kernel(32);
        let launch = LaunchConfig::new_1d(8, 32);
        let seq_err = {
            let mut gmem = GlobalMemory::new();
            let out = gmem.alloc(2 * 32 * 4, 128);
            let mut sim = FunctionalSim::new(&m, &k, launch).unwrap();
            sim.set_params(&[out as u32]);
            sim.run(&mut gmem).unwrap_err()
        };
        for threads in [2usize, 4, 8] {
            let mut gmem = GlobalMemory::new();
            let out = gmem.alloc(2 * 32 * 4, 128);
            let pristine = gmem.clone();
            let mut sim = FunctionalSim::new(&m, &k, launch).unwrap();
            sim.set_params(&[out as u32]).set_num_threads(threads);
            let err = sim.run(&mut gmem).unwrap_err();
            assert_eq!(
                format!("{err:?}"),
                format!("{seq_err:?}"),
                "error diverges at {threads} threads"
            );
            assert_eq!(gmem, pristine, "memory mutated on error");
        }
    }

    #[test]
    fn auto_resolves_to_at_least_one_worker() {
        assert!(SimEngine::auto().num_threads() >= 1);
        assert_eq!(SimEngine::new(5).num_threads(), 5);
        assert_eq!(SimEngine::default(), SimEngine::auto());
    }

    #[test]
    fn threads_resolution_and_legacy_encoding() {
        assert_eq!(Threads::default(), Threads::Auto);
        assert_eq!(Threads::sequential(), Threads::Fixed(1));
        assert_eq!(Threads::sequential().count(), 1);
        assert_eq!(Threads::Fixed(0).count(), 1);
        assert_eq!(Threads::Fixed(7).count(), 7);
        assert!(Threads::Auto.count() >= 1);
        assert_eq!(Threads::from(0usize), Threads::Auto);
        assert_eq!(Threads::from(3usize), Threads::Fixed(3));
        assert_eq!(Threads::Auto.raw(), 0);
        assert_eq!(Threads::Fixed(3).raw(), 3);
        assert_eq!(
            SimEngine::with_threads(Threads::Fixed(4)),
            SimEngine::new(4)
        );
    }
}
