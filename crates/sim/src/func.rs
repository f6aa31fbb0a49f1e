//! The functional simulator (Barra substitute).
//!
//! Executes a kernel warp-lockstep over a grid. Lanes of a warp step
//! together under an active mask; branch divergence uses the classic
//! immediate-postdominator reconvergence stack driven by
//! [`gpa_isa::cfg::Cfg`]. While executing, the simulator gathers the
//! dynamic statistics of paper Figure 1 (instruction counts per class,
//! bank-conflict-weighted shared transactions, coalesced global
//! transactions at three granularities, barrier stage splits) and — when
//! asked — per-warp instruction traces for the timing simulator.
//!
//! # The warp-wide datapath
//!
//! Every instruction executes on whole warps. Each source operand is
//! resolved once into a 32-lane register row; the operation computes all
//! 32 lanes, inactive ones included; and the result row is written back
//! under the instruction's execution mask. Inactive lanes therefore cost
//! arithmetic but have no effect: integer arithmetic wraps and floating
//! point never traps, so no value they hold can fault, write, or count.
//!
//! Memory instructions compute their lane addresses the same way and check
//! bounds and alignment once over the active lanes. Only when that check
//! fails are the lanes walked in order, so a fault raises exactly the
//! error — variant, address, and (for global stores) the writes that land
//! before it — of a lane-by-lane interpreter.
//!
//! A shared address without a base register names one address for every
//! lane. [`FunctionalSim::new`] checks it once per kernel, against the
//! arena and the access width, and keeps its word index per instruction.
//! Running the access then costs the count of active half-warps (two mask
//! tests for 16-lane half-warps), each of which broadcasts once per
//! 4-byte phase, and one word read: a load or ALU operand splats the
//! word, and a store writes the highest active lane's value. An address
//! that fails the check (validation refuses such a kernel) is checked
//! again at every execution, so it faults only when a lane is active.
//! Measured per warp instruction over a straight-line kernel of 2,000
//! copies, 64 blocks × 64 threads on the GTX 285, sequentially (minimum
//! of 25 runs, 2-vCPU Xeon host): `mad.f32 r, r, s[0x4], r` costs 42 ns
//! and a bare `ld.shared` 21 ns, where checking the address and counting
//! its half-warps at every execution cost 70 and 45 ns; a register
//! `mad.f32` costs 34 ns and `add.s32` 20 ns.
//!
//! An address through a base register is checked over the lanes, and each
//! half-warp's conflict degree comes from [`bank_degree`], which answers
//! a broadcast, an affine row and a row with every lane in its own bank
//! without sorting. On the same kernels a conflict-free `ld.shared
//! s[r]` costs 97 ns (was 120 ns) and a 2-way stride-2 row 97 ns (was
//! 225 ns); a 4-way row that is not affine still sorts (~240 ns, as
//! before).
//!
//! A global access finds what each half-warp's active lanes span
//! ([`Extent`]). When the warp's addresses step by one stride (checked on
//! the 32-bit register row, where the pass vectorizes) the ends of each
//! half-warp bound it; otherwise [`Extent::of`] finds it. One comparison
//! of the warp's ends checks bounds, and the alignment comes with the
//! extent. A half-warp inside one 128-byte segment emits its one span
//! directly ([`half_warp_spans`]), each span reduces in closed form, and
//! a region that holds the lowest address's segment and the highest
//! address takes every transaction at once. A full-warp unit-stride
//! `B32` load or store moves its row in one copy. On the kernels above,
//! a unit-stride `ld.global` costs 62–67 ns and `st.global` 63–70 ns per
//! warp instruction (was 243–270 and 253–280 ns), and a scattered load
//! (`tid² mod 1024` words) 540–590 ns (was 870–910 ns).

use crate::engine::{self, Threads};
use crate::error::SimError;
use crate::grid::LaunchConfig;
use crate::memory::GlobalMemory;
use crate::stats::{
    intern, BlockTrace, DstLatency, DynamicStats, GmemGranStats, RegionStats, StageStats, Step,
    TraceEntry, WarpTrace, GRANULARITIES, GRAN_GT200,
};
use crate::timing::TraceSource;
use gpa_hw::Machine;
use gpa_isa::cfg::Cfg;
use gpa_isa::instr::{Instruction, MemAddr, NumTy, Op, Reg, SpecialReg, Src, Width};
use gpa_isa::kernel::Kernel;
use gpa_mem::bank::{atomic_bank_degree, bank_degree, BankConfig};
use gpa_mem::coalesce::{half_warp_spans, CoalesceConfig, Extent};
use std::sync::Arc;

const WARP: usize = 32;
const PRED_BASE: u8 = 128;
const NO_RECONV: usize = usize::MAX;

/// One 32-bit value per lane of a warp.
type Row = [u32; WARP];

/// The implicit base of an address without a base register.
const ZERO_ROW: Row = [0; WARP];

/// Fused multiply-add over a whole warp.
///
/// `f32::mul_add`/`f64::mul_add` lower to libm calls unless the build
/// enables the FMA target feature, and the baseline x86-64 target does
/// not. IEEE 754 `fusedMultiplyAdd` has exactly one correct answer, so
/// the hardware instruction is bit-identical to the libm fallback — this
/// module only picks the fast one at runtime.
mod fma {
    use super::{Row, WARP};

    /// `a[l] * b[l] + c[l]` in `f32` with a single rounding, every lane.
    pub fn f32_row(a: &Row, b: &Row, c: &Row) -> Row {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: the FMA target feature was detected at runtime.
            return unsafe { f32_row_fma(a, b, c) };
        }
        f32_row_any(a, b, c)
    }

    /// `a[l] * b[l] + c[l]` in `f64` with a single rounding, every lane.
    pub fn f64_row(a: &[f64; WARP], b: &[f64; WARP], c: &[f64; WARP]) -> [f64; WARP] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: the FMA target feature was detected at runtime.
            return unsafe { f64_row_fma(a, b, c) };
        }
        f64_row_any(a, b, c)
    }

    /// Inside this function `mul_add` lowers to the hardware instruction
    /// and the loop vectorizes.
    ///
    /// # Safety
    ///
    /// The CPU must support FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    unsafe fn f32_row_fma(a: &Row, b: &Row, c: &Row) -> Row {
        f32_row_any(a, b, c)
    }

    /// See [`f32_row_fma`].
    ///
    /// # Safety
    ///
    /// The CPU must support FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    unsafe fn f64_row_fma(a: &[f64; WARP], b: &[f64; WARP], c: &[f64; WARP]) -> [f64; WARP] {
        f64_row_any(a, b, c)
    }

    // Plain loops, not closures: a closure is a function of its own and
    // would not inherit the FMA feature of the caller it is inlined into.
    #[inline(always)]
    fn f32_row_any(a: &Row, b: &Row, c: &Row) -> Row {
        let mut out = [0u32; WARP];
        for l in 0..WARP {
            out[l] = f32::from_bits(a[l])
                .mul_add(f32::from_bits(b[l]), f32::from_bits(c[l]))
                .to_bits();
        }
        out
    }

    #[inline(always)]
    fn f64_row_any(a: &[f64; WARP], b: &[f64; WARP], c: &[f64; WARP]) -> [f64; WARP] {
        let mut out = [0f64; WARP];
        for l in 0..WARP {
            out[l] = a[l].mul_add(b[l], c[l]);
        }
        out
    }
}

/// Which blocks of a launch record per-warp traces
/// ([`FunctionalSim::collect_traces`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceBlocks {
    /// No traces (the default).
    #[default]
    Off,
    /// What the timing replay needs, with repeats dropped. Every block is
    /// traced into warp buffers the walk reuses; a block whose trace is
    /// shape-equal ([`BlockTrace::shape_eq`]) to its walk's first block's
    /// is dropped and holds that first block's `Arc` instead, and the
    /// merge of a sharded run does the same for each range's first block
    /// against block 0. A grid whose blocks all share one shape therefore
    /// holds one trace ([`RunOutput::trace_source`] makes it
    /// [`TraceSource::Homogeneous`]). A simulator with a texture region
    /// keeps every block's own trace, because the texture replay reads
    /// real addresses, which shape equality ignores.
    Replay,
    /// Every block's own trace: the lossless form.
    All,
}

impl From<bool> for TraceBlocks {
    /// `true` traces every block, `false` none.
    fn from(yes: bool) -> TraceBlocks {
        if yes {
            TraceBlocks::All
        } else {
            TraceBlocks::Off
        }
    }
}

/// Result of a full-grid functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Aggregated dynamic statistics.
    pub stats: DynamicStats,
    /// Block `b`'s trace at index `b`, when trace collection was enabled.
    /// Under [`TraceBlocks::Replay`] a dropped block holds the `Arc` of
    /// an earlier block whose trace is shape-equal to its own.
    pub traces: Option<Vec<Arc<BlockTrace>>>,
}

impl RunOutput {
    /// The timing replay's source for the traces, `None` when the run
    /// was untraced: [`TraceSource::Homogeneous`] with block 0's trace
    /// when every block holds block 0's `Arc` (a [`TraceBlocks::Replay`]
    /// run of a grid whose blocks all share one shape), else
    /// [`TraceSource::PerBlock`].
    pub fn trace_source(&self) -> Option<TraceSource> {
        let traces = self.traces.as_ref()?;
        let first = traces.first().expect("a launch has at least one block");
        Some(if traces.iter().all(|t| Arc::ptr_eq(t, first)) {
            TraceSource::Homogeneous(Arc::clone(first))
        } else {
            TraceSource::PerBlock(traces.clone())
        })
    }
}

/// The traces of one walk over consecutive blocks, or of the merge of
/// several walks' ranges in block order ([`FunctionalSim::recorder`]).
pub(crate) struct TraceRecorder {
    /// Drop a trace that is shape-equal to the first one
    /// ([`TraceBlocks::Replay`] without a texture region).
    share: bool,
    /// The warp buffers the next block records into.
    scratch: BlockTrace,
    /// One trace per finished block, in block order.
    traces: Vec<Arc<BlockTrace>>,
}

impl TraceRecorder {
    /// Close the block just traced into [`Self::scratch`]: share the
    /// first block's trace if this one is shape-equal to it (the buffers
    /// stay for the next block), else keep this one.
    fn end_block(&mut self) {
        let trace = match self.traces.first() {
            Some(first) if self.share && first.shape_eq(&self.scratch) => Arc::clone(first),
            _ => {
                let mut warps = std::mem::take(&mut self.scratch.warps);
                for w in &mut warps {
                    w.steps.shrink_to_fit();
                    w.txns.shrink_to_fit();
                }
                Arc::new(BlockTrace {
                    skeletons: Arc::clone(&self.scratch.skeletons),
                    warps,
                })
            }
        };
        self.traces.push(trace);
    }

    /// Append the traces of the next block range. When sharing, a range
    /// whose first trace is shape-equal to block 0's holds block 0's
    /// `Arc` wherever it held its own first.
    pub(crate) fn append_range(&mut self, range: Vec<Arc<BlockTrace>>) {
        let shared = match (self.traces.first(), range.first()) {
            (Some(b0), Some(first)) if self.share && b0.shape_eq(first) => {
                Some((Arc::clone(b0), Arc::clone(first)))
            }
            _ => None,
        };
        self.traces.extend(range.into_iter().map(|t| match &shared {
            Some((b0, first)) if Arc::ptr_eq(&t, first) => Arc::clone(b0),
            _ => t,
        }));
    }

    /// The recorded traces, in block order.
    pub(crate) fn finish(self) -> Vec<Arc<BlockTrace>> {
        self.traces
    }
}

/// The functional simulator. Construct with [`FunctionalSim::new`],
/// configure, then [`FunctionalSim::run`].
#[derive(Debug)]
pub struct FunctionalSim<'a> {
    machine: &'a Machine,
    kernel: &'a Kernel,
    launch: LaunchConfig,
    params: Vec<u32>,
    region_defs: Vec<(String, u64, u64, bool)>,
    fuel: u64,
    trace_blocks: TraceBlocks,
    threads: Threads,
    cfg: Cfg,
    /// Warp instructions the grid executes, when the kernel is loop-free.
    work: Option<u64>,
    /// Registers per lane: one past the highest the kernel names.
    lane_regs: usize,
    bank_cfg: BankConfig,
    /// Largest transaction, shared by every entry of [`GRANULARITIES`].
    max_segment: u32,
    /// The kernel's distinct trace skeletons: each instruction's trace
    /// entry without the per-execution shared conflict weight and global
    /// transactions. Every traced block shares this table.
    skeletons: Arc<[TraceEntry]>,
    /// Per instruction: its skeleton's index in `skeletons`.
    skeleton_ids: Vec<u32>,
    /// Per instruction: the word index of its base-less shared address,
    /// when it has one and it passed [`checked_smem_scalar`]'s check at
    /// the access width ([`bare_smem_words`]).
    bare_words: Vec<Option<u32>>,
}

impl<'a> FunctionalSim<'a> {
    /// Prepare a simulation of `kernel` with shape `launch` on `machine`.
    ///
    /// # Errors
    ///
    /// Fails if the kernel is structurally invalid or the launch exceeds
    /// hardware limits.
    pub fn new(
        machine: &'a Machine,
        kernel: &'a Kernel,
        launch: LaunchConfig,
    ) -> Result<FunctionalSim<'a>, SimError> {
        kernel.validate()?;
        FunctionalSim::unvalidated(machine, kernel, launch)
    }

    /// [`FunctionalSim::new`] for a kernel already validated (or, in
    /// tests, one whose static shared offsets deliberately are not).
    fn unvalidated(
        machine: &'a Machine,
        kernel: &'a Kernel,
        launch: LaunchConfig,
    ) -> Result<FunctionalSim<'a>, SimError> {
        launch.check(machine).map_err(SimError::LaunchTooLarge)?;
        if kernel.resources.smem_per_block > machine.smem_per_sm {
            return Err(SimError::LaunchTooLarge(format!(
                "{} B shared memory exceeds the {} B per-SM arena",
                kernel.resources.smem_per_block, machine.smem_per_sm
            )));
        }
        // Coalescing steps 1–2 run once per half-warp for all three
        // granularities, which is exact only because they share the
        // maximum segment.
        let coalesce = GRANULARITIES.map(CoalesceConfig::with_min_segment);
        assert!(coalesce
            .iter()
            .all(|c| c.max_segment == coalesce[0].max_segment));
        // Without a back edge a warp's pc only moves forward, so each
        // warp issues each instruction about once (an arm of a diverged
        // branch may rerun code the other arm already ran).
        let looping = kernel
            .instrs
            .iter()
            .enumerate()
            .any(|(pc, ins)| matches!(ins.op, Op::Bra { target } if target as usize <= pc));
        let (skeletons, skeleton_ids) = intern(kernel.instrs.iter().map(skeleton));
        let work = (!looping).then(|| {
            kernel.instrs.len() as u64
                * u64::from(launch.warps_per_block(machine))
                * u64::from(launch.num_blocks())
        });
        Ok(FunctionalSim {
            machine,
            kernel,
            launch,
            params: Vec::new(),
            region_defs: Vec::new(),
            fuel: 20_000_000_000,
            trace_blocks: TraceBlocks::Off,
            threads: Threads::sequential(),
            cfg: Cfg::build(&kernel.instrs),
            work,
            lane_regs: lane_regs(kernel),
            bank_cfg: BankConfig {
                banks: machine.smem_banks,
                width: machine.smem_bank_width,
                half_warp: machine.half_warp as usize,
            },
            max_segment: coalesce[0].max_segment,
            skeletons,
            skeleton_ids,
            bare_words: bare_smem_words(kernel),
        })
    }

    /// Set the kernel parameter words.
    pub fn set_params(&mut self, params: &[u32]) -> &mut Self {
        self.params = params.to_vec();
        self
    }

    /// Name a global address range for traffic attribution (paper Figure
    /// 11a separates matrix, column-index, and vector bytes).
    pub fn add_region(&mut self, name: impl Into<String>, base: u64, len: u64) -> &mut Self {
        self.region_defs.push((name.into(), base, len, false));
        self
    }

    /// Like [`FunctionalSim::add_region`], but loads from this range go
    /// through the texture cache in the timing simulator.
    pub fn add_texture_region(
        &mut self,
        name: impl Into<String>,
        base: u64,
        len: u64,
    ) -> &mut Self {
        self.region_defs.push((name.into(), base, len, true));
        self
    }

    /// Limit the warp instructions the whole grid executes (runaway-loop
    /// guard), at every worker count.
    pub fn set_fuel(&mut self, fuel: u64) -> &mut Self {
        self.fuel = fuel;
        self
    }

    /// Record per-warp traces for the timing simulator: `true` or
    /// [`TraceBlocks::All`] keeps every block's own trace,
    /// [`TraceBlocks::Replay`] drops the traces that repeat.
    pub fn collect_traces(&mut self, blocks: impl Into<TraceBlocks>) -> &mut Self {
        self.trace_blocks = blocks.into();
        self
    }

    /// Shard the grid's blocks across worker threads in
    /// [`FunctionalSim::run`]. The simulator defaults to
    /// [`Threads::sequential`], the plain sequential walk; the
    /// options layers above (`MeasureOpts`, `gpa-service`) default to
    /// [`Threads::Auto`], which shards only a grid whose
    /// [`FunctionalSim::work_estimate`] is unknown or at least
    /// [`crate::engine::GRAIN`]. Output is bit-identical for every
    /// selection; see [`crate::engine`] for the sharding/merge contract.
    pub fn set_threads(&mut self, threads: Threads) -> &mut Self {
        self.threads = threads;
        self
    }

    /// The launch shape being simulated.
    pub fn launch(&self) -> &LaunchConfig {
        &self.launch
    }

    /// An empty recorder for one walk's traces, `None` when untraced.
    pub(crate) fn recorder(&self) -> Option<TraceRecorder> {
        let share = match self.trace_blocks {
            TraceBlocks::Off => return None,
            TraceBlocks::Replay => !self.region_defs.iter().any(|r| r.3),
            TraceBlocks::All => false,
        };
        Some(TraceRecorder {
            share,
            scratch: BlockTrace {
                skeletons: Arc::clone(&self.skeletons),
                warps: Vec::new(),
            },
            traces: Vec::new(),
        })
    }

    /// The grid's warp-instruction count as estimated before running:
    /// instructions × warps per block × blocks for a loop-free kernel,
    /// `None` for a kernel with a backward branch. Under
    /// [`Threads::Auto`] it decides whether [`FunctionalSim::run`] shards
    /// (see [`crate::engine`]); it never changes the output.
    pub fn work_estimate(&self) -> Option<u64> {
        self.work
    }

    /// Configured fuel budget for the whole grid.
    pub(crate) fn fuel_budget(&self) -> u64 {
        self.fuel
    }

    /// Execute every block of the grid, in block-id order.
    ///
    /// With the default single worker thread ([`FunctionalSim::set_threads`]),
    /// or under [`Threads::Auto`] for a loop-free grid below
    /// [`crate::engine::GRAIN`] warp instructions, blocks run sequentially
    /// on the calling thread; with more, the engine shards blocks across
    /// workers and merges the results into the same (bit-identical)
    /// output ([`crate::engine`]). Blocks must be
    /// independent, as in a real grid launch: a block that reads global
    /// memory written by a lower-id block of the same launch observes the
    /// pre-launch contents under the parallel engine.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-block-id) [`SimError`] (out-of-bounds
    /// access, divergent barrier, fuel exhaustion, …), the same at every
    /// worker count.
    pub fn run(&self, gmem: &mut GlobalMemory) -> Result<RunOutput, SimError> {
        let _span = gpa_telemetry::PhaseSpan::start(gpa_telemetry::phase::FUNCTIONAL_SIM);
        engine::run(self, gmem, self.threads.workers_for(self.work))
    }

    /// Execute a single block with a fresh fuel budget, as the
    /// microbenchmarks do to trace one representative block. Statistics
    /// accumulate into `stats`; `stats.blocks` is *not* advanced. The
    /// block is traced unless trace collection is off.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    pub fn run_block(
        &self,
        gmem: &mut GlobalMemory,
        block: u32,
        stats: &mut DynamicStats,
    ) -> Result<Option<BlockTrace>, SimError> {
        let mut fuel = self.fuel;
        let mut recorder = self.recorder();
        self.exec_grid_block(gmem, block, recorder.as_mut(), stats, &mut fuel)?;
        Ok(recorder.map(|r| Arc::unwrap_or_clone(r.finish().remove(0))))
    }

    /// Empty statistics with region definitions installed.
    pub fn fresh_stats(&self) -> DynamicStats {
        DynamicStats {
            stages: Vec::new(),
            regions: self
                .region_defs
                .iter()
                .map(|(name, base, len, texture)| RegionStats {
                    name: name.clone(),
                    base: *base,
                    len: *len,
                    texture: *texture,
                    gmem: Default::default(),
                    requested_bytes: 0,
                })
                .collect(),
            blocks: 0,
            warps_per_block: self.launch.warps_per_block(self.machine),
            threads_per_block: self.launch.threads_per_block(),
        }
    }

    /// Execute block `block`, recording its trace into `recorder` if
    /// there is one.
    pub(crate) fn exec_grid_block(
        &self,
        gmem: &mut GlobalMemory,
        block: u32,
        recorder: Option<&mut TraceRecorder>,
        stats: &mut DynamicStats,
        fuel: &mut u64,
    ) -> Result<(), SimError> {
        match recorder {
            None => self.exec_block(gmem, block, None, stats, fuel),
            Some(r) => {
                self.exec_block(gmem, block, Some(&mut r.scratch.warps), stats, fuel)?;
                r.end_block();
                Ok(())
            }
        }
    }

    /// Execute one block. A traced block records into `buffers`, one per
    /// warp, each cleared first.
    fn exec_block(
        &self,
        gmem: &mut GlobalMemory,
        block: u32,
        mut buffers: Option<&mut Vec<WarpTrace>>,
        stats: &mut DynamicStats,
        fuel: &mut u64,
    ) -> Result<(), SimError> {
        let threads = self.launch.threads_per_block();
        let nwarps = threads.div_ceil(WARP as u32) as usize;
        // Shared accesses are word-aligned (checked per instruction), so
        // the arena is kept as words.
        let smem_bytes = self.kernel.resources.smem_per_block as usize;
        let mut smem = Shared {
            words: vec![0u32; smem_bytes.div_ceil(4)],
            bytes: smem_bytes,
        };

        if let Some(b) = buffers.as_deref_mut() {
            b.resize_with(nwarps, WarpTrace::default);
        }
        let mut warps: Vec<WarpState> = (0..nwarps)
            .map(|w| {
                let trace = buffers.as_deref_mut().map(|b| {
                    let mut t = std::mem::take(&mut b[w]);
                    t.steps.clear();
                    t.txns.clear();
                    t
                });
                WarpState::new(w as u32, threads, self.lane_regs, trace)
            })
            .collect();

        loop {
            let mut all_done = true;
            for w in &mut warps {
                if !w.done && !w.at_barrier {
                    self.run_warp(w, block, gmem, &mut smem, stats, fuel)?;
                }
                all_done &= w.done;
            }
            if all_done {
                break;
            }
            // Everyone is done or parked at a barrier: release. Exited
            // warps do not participate (GT200 barrier semantics).
            for w in &mut warps {
                w.at_barrier = false;
            }
        }

        if let Some(b) = buffers {
            for (slot, w) in b.iter_mut().zip(warps) {
                *slot = w.trace.expect("traced warps carry a buffer");
            }
        }
        Ok(())
    }

    /// Run one warp until it parks at a barrier or exits.
    fn run_warp(
        &self,
        w: &mut WarpState,
        block: u32,
        gmem: &mut GlobalMemory,
        smem: &mut Shared,
        stats: &mut DynamicStats,
        fuel: &mut u64,
    ) -> Result<(), SimError> {
        loop {
            // Reconvergence / dead-mask unwinding.
            loop {
                if w.mask == 0 {
                    match w.stack.last_mut() {
                        Some(top) => {
                            if let Some((opc, omask)) = top.other.take() {
                                w.pc = opc;
                                w.mask = omask & !w.exited;
                            } else {
                                w.mask = top.merged & !w.exited;
                                w.pc = top.reconv;
                                w.stack.pop();
                            }
                            continue;
                        }
                        None => {
                            w.done = true;
                            return Ok(());
                        }
                    }
                }
                match w.stack.last_mut() {
                    Some(top) if w.pc == top.reconv => {
                        if let Some((opc, omask)) = top.other.take() {
                            w.pc = opc;
                            w.mask = omask & !w.exited;
                        } else {
                            w.mask = top.merged & !w.exited;
                            w.stack.pop();
                        }
                    }
                    _ => break,
                }
            }

            if *fuel == 0 {
                return Err(SimError::FuelExhausted);
            }
            *fuel -= 1;

            let pc = w.pc;
            let ins = &self.kernel.instrs[pc];
            let exec_mask = w.guard_mask(ins);

            match ins.op {
                Op::Bar => {
                    if !w.stack.is_empty() {
                        return Err(SimError::DivergentBarrier { pc });
                    }
                    let stage = w.stage;
                    self.stage_mut(stats, stage).barriers += 1;
                    self.count_issue(stats, w, ins);
                    self.record(w, pc, 0, 0);
                    w.stage += 1;
                    w.pc += 1;
                    w.at_barrier = true;
                    return Ok(());
                }
                Op::Exit => {
                    self.count_issue(stats, w, ins);
                    w.exited |= exec_mask;
                    w.mask &= !exec_mask;
                    if ins.guard.is_none() {
                        // Unguarded exit retires the whole active arm.
                        w.mask = 0;
                    }
                    if w.mask != 0 {
                        w.pc += 1;
                    }
                    continue;
                }
                Op::Bra { target } => {
                    self.count_issue(stats, w, ins);
                    self.record(w, pc, 0, 0);
                    let taken = exec_mask;
                    let fall = w.mask & !exec_mask;
                    if ins.guard.is_none() || fall == 0 {
                        if taken == 0 {
                            w.pc += 1;
                        } else {
                            w.pc = target as usize;
                        }
                    } else if taken == 0 {
                        w.pc += 1;
                    } else {
                        // Divergence: run the taken arm first, park the
                        // fall-through arm, reconverge at the ipdom.
                        let reconv = self.cfg.reconvergence_pc(pc).unwrap_or(NO_RECONV);
                        w.stack.push(Frame {
                            reconv,
                            other: Some((pc + 1, fall)),
                            merged: w.mask,
                        });
                        w.pc = target as usize;
                        w.mask = taken;
                    }
                    continue;
                }
                _ => {}
            }

            // Non-control instruction.
            self.exec_datapath(w, ins, exec_mask, block, gmem, smem, stats)?;
            w.pc += 1;
        }
    }

    fn stage_mut<'s>(&self, stats: &'s mut DynamicStats, stage: usize) -> &'s mut StageStats {
        if stats.stages.len() <= stage {
            stats.stages.resize(stage + 1, StageStats::default());
        }
        &mut stats.stages[stage]
    }

    /// Count an issued warp-instruction (issued even when fully masked).
    fn count_issue(&self, stats: &mut DynamicStats, w: &mut WarpState, ins: &Instruction) {
        let stage = w.stage;
        let class = ins.op.class();
        let s = self.stage_mut(stats, stage);
        s.instr_by_class[class.index()] += 1;
        if matches!(ins.op, Op::FMad { .. }) {
            s.fmad += 1;
        }
        if w.counted_any != Some(stage) {
            w.counted_any = Some(stage);
            s.warps_any += 1;
        }
    }

    /// Append instruction `pc`'s step, if this warp is traced: its
    /// skeleton id, shared conflict weight, and the number of global
    /// transactions [`Self::global_access`] just appended.
    fn record(&self, w: &mut WarpState, pc: usize, smem_half_txns: u16, ntx: u16) {
        if let Some(trace) = w.trace.as_mut() {
            trace.steps.push(Step {
                id: self.skeleton_ids[pc],
                smem_half_txns,
                ntx,
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_datapath(
        &self,
        w: &mut WarpState,
        ins: &Instruction,
        exec: u32,
        block: u32,
        gmem: &mut GlobalMemory,
        smem: &mut Shared,
        stats: &mut DynamicStats,
    ) -> Result<(), SimError> {
        let pc = w.pc;
        self.count_issue(stats, w, ins);
        if exec == 0 {
            // Fully masked: issued, but no lane reads, writes, or counts.
            self.record(w, pc, 0, 0);
            return Ok(());
        }

        let lane_flops = match ins.op {
            Op::FAdd { .. } | Op::FMul { .. } | Op::DAdd { .. } | Op::DMul { .. } => 1u64,
            Op::FMad { .. } | Op::DFma { .. } => 2,
            Op::Rcp { .. }
            | Op::Rsq { .. }
            | Op::Sin { .. }
            | Op::Cos { .. }
            | Op::Lg2 { .. }
            | Op::Ex2 { .. } => 1,
            _ => 0,
        };
        if lane_flops > 0 {
            self.stage_mut(stats, w.stage).flops += lane_flops * u64::from(exec.count_ones());
        }

        let mut smem_half_txns = 0u16;
        let mut ntx = 0u16;
        match ins.op {
            Op::LdShared { d, addr, width } => {
                if addr.base.is_none() {
                    let (word, txns) =
                        self.bare_access(w, addr, width.bytes(), exec, smem, stats)?;
                    smem_half_txns = txns;
                    for k in 0..width.regs() {
                        let v = smem.words[word + usize::from(k)];
                        w.write_row(d.0 + k, &[v; WARP], exec);
                    }
                } else {
                    let (a, txns) = self.lane_access(w, addr, width.bytes(), exec, smem, stats)?;
                    smem_half_txns = txns;
                    for k in 0..width.regs() {
                        w.write_row(d.0 + k, &smem.gather(&a, k), exec);
                    }
                }
            }
            Op::StShared { addr, src, width } => {
                // Lane order: the highest lane wins a same-address race.
                if addr.base.is_none() {
                    let (word, txns) =
                        self.bare_access(w, addr, width.bytes(), exec, smem, stats)?;
                    smem_half_txns = txns;
                    let last = (WARP - 1) - exec.leading_zeros() as usize;
                    for k in 0..width.regs() {
                        smem.words[word + usize::from(k)] = w.row(src.0 + k)[last];
                    }
                } else {
                    let (a, txns) = self.lane_access(w, addr, width.bytes(), exec, smem, stats)?;
                    smem_half_txns = txns;
                    for l in lanes(exec) {
                        for k in 0..width.regs() {
                            smem.words[a[l] as usize / 4 + usize::from(k)] = w.row(src.0 + k)[l];
                        }
                    }
                }
            }
            Op::AtomSharedAdd { d, addr, src } => {
                let (a, txns) = self.atomic_access(w, addr, exec, smem, stats)?;
                smem_half_txns = txns;
                // Same-word lanes serialize in lane order, so the returned
                // old values are deterministic.
                for l in lanes(exec) {
                    let i = a[l] as usize / 4;
                    let old = smem.words[i];
                    smem.words[i] = (old as i32).wrapping_add(w.row(src.0)[l] as i32) as u32;
                    w.row_mut(d.0)[l] = old;
                }
            }
            Op::AtomSharedCas { d, addr, cmp, src } => {
                let (a, txns) = self.atomic_access(w, addr, exec, smem, stats)?;
                smem_half_txns = txns;
                for l in lanes(exec) {
                    let i = a[l] as usize / 4;
                    let old = smem.words[i];
                    if old == w.row(cmp.0)[l] {
                        smem.words[i] = w.row(src.0)[l];
                    }
                    w.row_mut(d.0)[l] = old;
                }
            }
            Op::LdGlobal { d, addr, width } => {
                let (a, n) = self.global_access(w, addr, width, exec, None, gmem, stats)?;
                ntx = n;
                let rows = w.rows_mut(d, width.regs());
                match a.row {
                    Some(at) => gmem.load_row(at, &mut rows[0]),
                    None => gmem.load_lanes(&a.addrs, exec, rows),
                }
            }
            Op::StGlobal { addr, src, width } => {
                let (a, n) = self.global_access(w, addr, width, exec, Some(src), gmem, stats)?;
                ntx = n;
                let rows = w.rows(src, width.regs());
                match a.row {
                    Some(at) => gmem.store_row(at, &rows[0]),
                    None => gmem.store_lanes(&a.addrs, exec, rows),
                }
            }
            Op::LdParam { d, offset } => {
                let v = *self
                    .params
                    .get(usize::from(offset) / 4)
                    .ok_or(SimError::ParamOutOfBounds { offset })?;
                w.write_row(d.0, &[v; WARP], exec);
            }
            op => {
                // ALU: a shared operand is addressed, checked, counted, and
                // loaded before the operation (these ops only read shared
                // memory, so loading first is order-equivalent).
                let pre = match op.smem_operand() {
                    Some(addr) if addr.base.is_none() => {
                        let (word, txns) = self.bare_access(w, addr, 4, exec, smem, stats)?;
                        smem_half_txns = txns;
                        Some([smem.words[word]; WARP])
                    }
                    Some(addr) => {
                        let (a, txns) = self.lane_access(w, addr, 4, exec, smem, stats)?;
                        smem_half_txns = txns;
                        Some(smem.gather(&a, 0))
                    }
                    None => None,
                };
                self.alu(w, op, exec, block, pre.as_ref());
            }
        }
        self.record(w, pc, smem_half_txns, ntx);
        Ok(())
    }

    /// Address, check, and bank-account a shared load, store, or ALU
    /// operand of `width` bytes per lane through a base register. Returns
    /// the lanes' byte addresses (inactive lanes hold unchecked values)
    /// and the serialized half-warp transaction count.
    fn lane_access(
        &self,
        w: &mut WarpState,
        addr: MemAddr,
        width: u32,
        exec: u32,
        smem: &Shared,
        stats: &mut DynamicStats,
    ) -> Result<([u32; WARP], u16), SimError> {
        // Wide shared accesses proceed in 4-byte phases.
        let a = checked_smem_addrs(w, addr, width, exec, smem)?;
        let (mut half_txns, mut half_accesses) = self.per_half_warp(&a, exec, bank_degree);
        for phase in 1..width / 4 {
            let shifted = a.map(|x| x.wrapping_add(phase * 4));
            let (t, n) = self.per_half_warp(&shifted, exec, bank_degree);
            half_txns += t;
            half_accesses += n;
        }
        self.count_shared(w, stats, half_txns, half_accesses);
        Ok((a, saturate_u16(half_txns)))
    }

    /// [`Self::lane_access`] for an address without a base register:
    /// one address for every lane, so each active half-warp broadcasts
    /// once per 4-byte phase, which is the degree `bank_degree` gives.
    /// Returns the word index and the serialized half-warp transaction
    /// count. The address was checked once per kernel
    /// ([`bare_smem_words`]); one that failed is checked here, so it
    /// faults only when a lane is active.
    #[inline]
    fn bare_access(
        &self,
        w: &mut WarpState,
        addr: MemAddr,
        width: u32,
        exec: u32,
        smem: &Shared,
        stats: &mut DynamicStats,
    ) -> Result<(usize, u16), SimError> {
        let word = match self.bare_words[w.pc] {
            Some(word) => {
                debug_assert_eq!(
                    checked_smem_scalar(w, addr, width, exec, smem),
                    Ok(word * 4)
                );
                word
            }
            None => checked_smem_scalar(w, addr, width, exec, smem)? / 4,
        };
        let n = width / 4 * self.active_half_warps(exec);
        self.count_shared(w, stats, n, n);
        Ok((word as usize, saturate_u16(n)))
    }

    /// Address, check, and account a shared-memory atomic. Lanes of a
    /// half-warp hitting the same word (or the same bank) serialize lane
    /// by lane — there is no broadcast for a read-modify-write. The
    /// serialized weight occupies the shared-memory pipeline (folded into
    /// the smem counters and the trace entry) and is also attributed to
    /// the atomic counters, so the analysis can tell contention apart from
    /// ordinary bank conflicts.
    fn atomic_access(
        &self,
        w: &mut WarpState,
        addr: MemAddr,
        exec: u32,
        smem: &Shared,
        stats: &mut DynamicStats,
    ) -> Result<([u32; WARP], u16), SimError> {
        let a = checked_smem_addrs(w, addr, 4, exec, smem)?;
        let (half_txns, half_accesses) = self.per_half_warp(&a, exec, atomic_bank_degree);
        let stage = w.stage;
        let s = self.count_shared(w, stats, half_txns, half_accesses);
        s.atomic_half_txns += u64::from(half_txns);
        s.atomic_half_accesses += u64::from(half_accesses);
        s.atomic_instrs += 1;
        if w.counted_atomic != Some(stage) {
            w.counted_atomic = Some(stage);
            s.warps_atomic += 1;
        }
        Ok((a, saturate_u16(half_txns)))
    }

    /// Count one shared-memory warp-instruction and its serialized
    /// half-warp transactions; returns the stage's statistics.
    fn count_shared<'s>(
        &self,
        w: &mut WarpState,
        stats: &'s mut DynamicStats,
        half_txns: u32,
        half_accesses: u32,
    ) -> &'s mut StageStats {
        let stage = w.stage;
        let s = self.stage_mut(stats, stage);
        s.smem_half_txns += u64::from(half_txns);
        s.smem_half_accesses += u64::from(half_accesses);
        s.smem_instrs += 1;
        if w.counted_smem != Some(stage) {
            w.counted_smem = Some(stage);
            s.warps_smem += 1;
        }
        s
    }

    /// The half-warps of `exec` with at least one active lane.
    fn active_half_warps(&self, exec: u32) -> u32 {
        let hw = self.bank_cfg.half_warp;
        let count = |exec| {
            (0..WARP.div_ceil(hw))
                .map(|c| u32::from(chunk_mask(exec, c, hw) != 0))
                .sum()
        };
        if hw == 16 {
            let n = u32::from(exec & 0xFFFF != 0) + u32::from(exec >> 16 != 0);
            debug_assert_eq!(n, count(exec));
            return n;
        }
        count(exec)
    }

    /// Sum a bank-conflict degree over the half-warps of `addrs`: the
    /// serialized transactions, and the half-warps that access at all.
    fn per_half_warp(
        &self,
        addrs: &[u32; WARP],
        exec: u32,
        degree: impl Fn(&[u32], u32, BankConfig) -> u32,
    ) -> (u32, u32) {
        let hw = self.bank_cfg.half_warp;
        let (mut txns, mut accesses) = (0u32, 0u32);
        for (c, chunk) in addrs.chunks(hw).enumerate() {
            let d = degree(chunk, chunk_mask(exec, c, hw), self.bank_cfg);
            txns += d;
            accesses += u32::from(d > 0);
        }
        (txns, accesses)
    }

    /// Address, check, and coalesce a global load or store (`store` names
    /// its first source register). Returns the lanes' addresses and the
    /// number of GT200-granularity transactions, which a traced warp
    /// appends to its [`WarpTrace::txns`] (an untraced warp keeps none).
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn global_access(
        &self,
        w: &mut WarpState,
        addr: MemAddr,
        width: Width,
        exec: u32,
        store: Option<Reg>,
        gmem: &mut GlobalMemory,
        stats: &mut DynamicStats,
    ) -> Result<(GlobalLanes, u16), SimError> {
        let len = width.bytes();
        let base = addr.base.map_or(&ZERO_ROW, |r| w.row(r.0));
        let off = i64::from(addr.offset);
        // Every lane's address, then what each half-warp's active lanes
        // span. The access is valid when both ends of the warp's span are
        // valid starts (a negative address wraps far above them) and every
        // active address is aligned to the width.
        let a: [u64; WARP] = std::array::from_fn(|l| (i64::from(base[l]) + off) as u64);
        let hw = self.machine.half_warp as usize;
        // Each half-warp's extent: on the stack for half-warps of 16 lanes
        // or more, on the heap for a machine with more half-warps.
        let (mut few, mut many) = ([None; 2], Vec::new());
        let halves = match WARP.div_ceil(hw) {
            n if n <= few.len() => &mut few[..n],
            n => {
                many.resize(n, None);
                &mut many[..]
            }
        };
        // When the warp's addresses step by one stride, each half-warp's
        // ends bound it; otherwise `Extent::of` walks its lanes.
        let stride = affine_stride(base, off, exec);
        match stride {
            Some(stride) => {
                for (c, half) in halves.iter_mut().enumerate() {
                    let chunk = &a[c * hw..WARP.min(c * hw + hw)];
                    *half = Some(Extent::affine(chunk[0], stride, chunk.len()));
                    debug_assert_eq!(*half, Extent::of(chunk, chunk_mask(exec, c, hw)));
                }
            }
            None => {
                for (c, chunk) in a.chunks(hw).enumerate() {
                    halves[c] = Extent::of(chunk, chunk_mask(exec, c, hw));
                }
            }
        }
        // A full warp of one-word lanes at unit stride moves one row.
        let row = (stride == Some(4) && len == 4).then_some(a[0]);
        debug_assert!(row.is_none_or(|r| (0..WARP).all(|l| a[l] == r + 4 * l as u64)));
        let (first, last) = gmem.valid_starts(len);
        let Extent { lo, hi, .. } = match halves.iter().flatten().copied().reduce(Extent::union) {
            Some(e) if e.lo >= first && e.hi <= last && e.aligned(len) => e,
            _ => return Err(global_fault(w, &a, exec, width, store, gmem)),
        };

        let stage = w.stage;
        let st = self.stage_mut(stats, stage);
        let active = u64::from(exec.count_ones());
        st.gmem_requested_bytes += u64::from(len) * active;
        st.gmem_instrs += 1;
        // Regions are intervals: when the lowest and highest address lie
        // in the first active lane's region, every lane does. Every
        // transaction's base lies between the lowest address's segment
        // base and the highest address, so when the region holds both,
        // it takes every transaction too.
        let mut region = find_region(&stats.regions, None, a[exec.trailing_zeros() as usize]);
        let segment_lo = lo & !(u64::from(self.max_segment) - 1);
        let whole = match region {
            Some(r) if stats.regions[r].contains(lo) && stats.regions[r].contains(hi) => {
                stats.regions[r].requested_bytes += u64::from(len) * active;
                stats.regions[r].contains(segment_lo).then_some(r)
            }
            _ => {
                for l in lanes(exec) {
                    region = find_region(&stats.regions, region, a[l]);
                    if let Some(r) = region {
                        stats.regions[r].requested_bytes += u64::from(len);
                    }
                }
                None
            }
        };

        // Steps 1–2 of the coalescing protocol once per half-warp, step 3
        // once per granularity.
        let mut grans = [GmemGranStats::default(); 3];
        let mut txs = w.trace.as_mut().map(|t| &mut t.txns);
        let pushed = txs.as_ref().map_or(0, |t| t.len());
        for (c, chunk) in a.chunks(hw).enumerate() {
            let Some(extent) = halves[c] else { continue };
            let mask = chunk_mask(exec, c, hw);
            half_warp_spans(chunk, mask, extent, len, self.max_segment, |span| {
                for (g, &min) in GRANULARITIES.iter().enumerate() {
                    let t = span.reduce(min);
                    grans[g].transactions += 1;
                    grans[g].bytes += u64::from(t.size);
                    if let Some(r) = whole {
                        debug_assert_eq!(find_region(&stats.regions, Some(r), t.base), Some(r));
                    } else {
                        region = find_region(&stats.regions, region, t.base);
                        if let Some(r) = region {
                            let r = &mut stats.regions[r].gmem[g];
                            r.transactions += 1;
                            r.bytes += u64::from(t.size);
                        }
                    }
                    if g == GRAN_GT200 {
                        if let Some(txs) = txs.as_mut() {
                            txs.push(t);
                        }
                    }
                }
            });
        }
        if let Some(r) = whole {
            for (total, g) in stats.regions[r].gmem.iter_mut().zip(grans) {
                total.transactions += g.transactions;
                total.bytes += g.bytes;
            }
        }
        let ntx = txs.map_or(0, |t| t.len() - pushed);
        let st = self.stage_mut(stats, stage);
        for (total, g) in st.gmem.iter_mut().zip(grans) {
            total.transactions += g.transactions;
            total.bytes += g.bytes;
        }
        let ntx = u16::try_from(ntx).expect("a warp access makes fewer than 2^16 transactions");
        Ok((GlobalLanes { addrs: a, row }, ntx))
    }

    /// Execute an ALU instruction on all 32 lanes and write the result
    /// under `exec`. `pre` is the instruction's shared operand, already
    /// checked and loaded for the active lanes.
    fn alu(&self, w: &mut WarpState, op: Op, exec: u32, block: u32, pre: Option<&Row>) {
        use Op::*;
        let src = |s: Src| operand(w, s, pre);
        let f = f32::from_bits;
        let (d, out) = match op {
            FMul { d, a, b } => (d, map2(&src(a), &src(b), |x, y| (f(x) * f(y)).to_bits())),
            FAdd { d, a, b } => (d, map2(&src(a), &src(b), |x, y| (f(x) + f(y)).to_bits())),
            FMad { d, a, b, c } => {
                let (a, b, c) = (src(a), src(b), src(c));
                (d, fma::f32_row(&a, &b, &c))
            }
            IAdd { d, a, b } => (d, map2(&src(a), &src(b), u32::wrapping_add)),
            ISub { d, a, b } => (d, map2(&src(a), &src(b), u32::wrapping_sub)),
            IMul { d, a, b } => (d, map2(&src(a), &src(b), u32::wrapping_mul)),
            IMad { d, a, b, c } => {
                let (a, b, c) = (src(a), src(b), src(c));
                let ab = map2(&a, &b, u32::wrapping_mul);
                (d, map2(&ab, &c, u32::wrapping_add))
            }
            IMin { d, a, b } => (
                d,
                map2(&src(a), &src(b), |x, y| (x as i32).min(y as i32) as u32),
            ),
            IMax { d, a, b } => (
                d,
                map2(&src(a), &src(b), |x, y| (x as i32).max(y as i32) as u32),
            ),
            Shl { d, a, b } => (d, map2(&src(a), &src(b), |x, y| x << (y & 31))),
            Shr { d, a, b } => (d, map2(&src(a), &src(b), |x, y| x >> (y & 31))),
            And { d, a, b } => (d, map2(&src(a), &src(b), |x, y| x & y)),
            Or { d, a, b } => (d, map2(&src(a), &src(b), |x, y| x | y)),
            Xor { d, a, b } => (d, map2(&src(a), &src(b), |x, y| x ^ y)),
            Mov { d, a } => (d, src(a)),
            MovImm { d, imm } => (d, [imm; WARP]),
            S2R { d, sr } => (d, self.special_row(w, block, sr)),
            SetP { p, cmp, ty, a, b } => {
                let (a, b) = (src(a), src(b));
                let mut bits = 0u32;
                for l in 0..WARP {
                    let r = match ty {
                        NumTy::S32 => cmp.eval_i32(a[l] as i32, b[l] as i32),
                        NumTy::F32 => cmp.eval_f32(f(a[l]), f(b[l])),
                    };
                    bits |= u32::from(r) << l;
                }
                let pr = &mut w.preds[usize::from(p.0)];
                *pr = (*pr & !exec) | (bits & exec);
                return;
            }
            Sel { d, p, a, b } => {
                let taken = w.preds[usize::from(p.0)];
                let (a, b) = (src(a), src(b));
                (
                    d,
                    std::array::from_fn(|l| if taken >> l & 1 != 0 { a[l] } else { b[l] }),
                )
            }
            I2F { d, a } => (d, src(a).map(|x| (x as i32 as f32).to_bits())),
            F2I { d, a } => (d, src(a).map(|x| f(x) as i32 as u32)),
            Rcp { d, a } => (d, src(a).map(|x| (1.0 / f(x)).to_bits())),
            Rsq { d, a } => (d, src(a).map(|x| (1.0 / f(x).sqrt()).to_bits())),
            Sin { d, a } => (d, src(a).map(|x| f(x).sin().to_bits())),
            Cos { d, a } => (d, src(a).map(|x| f(x).cos().to_bits())),
            Lg2 { d, a } => (d, src(a).map(|x| f(x).log2().to_bits())),
            Ex2 { d, a } => (d, src(a).map(|x| f(x).exp2().to_bits())),
            DAdd { d, a, b } => {
                let (a, b) = (w.f64_row(a), w.f64_row(b));
                w.write_f64_row(d, &std::array::from_fn(|l| a[l] + b[l]), exec);
                return;
            }
            DMul { d, a, b } => {
                let (a, b) = (w.f64_row(a), w.f64_row(b));
                w.write_f64_row(d, &std::array::from_fn(|l| a[l] * b[l]), exec);
                return;
            }
            DFma { d, a, b, c } => {
                let v = fma::f64_row(&w.f64_row(a), &w.f64_row(b), &w.f64_row(c));
                w.write_f64_row(d, &v, exec);
                return;
            }
            Nop => return,
            LdShared { .. }
            | StShared { .. }
            | LdGlobal { .. }
            | StGlobal { .. }
            | LdParam { .. }
            | AtomSharedAdd { .. }
            | AtomSharedCas { .. }
            | Bar
            | Bra { .. }
            | Exit => unreachable!("{op:?} is not an ALU instruction"),
        };
        w.write_row(d.0, &out, exec);
    }

    /// A special register across all 32 lanes.
    fn special_row(&self, w: &WarpState, block: u32, sr: SpecialReg) -> Row {
        let (bx, by) = self.launch.block_coords(block);
        let tid = |l: usize| self.launch.thread_coords(w.first_thread + l as u32);
        match sr {
            SpecialReg::TidX => std::array::from_fn(|l| tid(l).0),
            SpecialReg::TidY => std::array::from_fn(|l| tid(l).1),
            SpecialReg::CtaIdX => [bx; WARP],
            SpecialReg::CtaIdY => [by; WARP],
            SpecialReg::NTidX => [self.launch.block.0; WARP],
            SpecialReg::NTidY => [self.launch.block.1; WARP],
            SpecialReg::NCtaIdX => [self.launch.grid.0; WARP],
            SpecialReg::NCtaIdY => [self.launch.grid.1; WARP],
        }
    }
}

/// The trace entry of `ins` with everything known before it executes:
/// class, register dependencies, destination and its latency source.
fn skeleton(ins: &Instruction) -> TraceEntry {
    if matches!(ins.op, Op::Bar) {
        return TraceEntry {
            class: gpa_hw::InstrClass::TypeII,
            dst: 0,
            dst_n: 0,
            srcs: [0xFF; 8],
            nsrcs: 0,
            dst_lat: DstLatency::Alu,
            smem_half_txns: 0,
            gmem: None,
            gmem_load: false,
            bar: true,
        };
    }
    let mut srcs = [0xFFu8; 8];
    let mut n = 0usize;
    let mut push = |id: u8| {
        if n < srcs.len() && !srcs[..n].contains(&id) {
            srcs[n] = id;
            n += 1;
        }
    };
    for r in ins.op.src_regs() {
        push(r.0);
    }
    if let Some(g) = ins.guard {
        push(PRED_BASE + g.pred.0);
    }
    if let Op::Sel { p, .. } = ins.op {
        push(PRED_BASE + p.0);
    }
    let (dst, dst_n) = match ins.op {
        Op::SetP { p, .. } => (PRED_BASE + p.0, 1),
        _ => match ins.op.dst() {
            Some((r, k)) => (r.0, k),
            None => (0, 0),
        },
    };
    let shared = matches!(ins.op, Op::LdShared { .. } | Op::StShared { .. })
        || ins.op.smem_operand().is_some()
        || ins.op.is_atomic();
    let load = matches!(ins.op, Op::LdGlobal { .. });
    TraceEntry {
        class: ins.op.class(),
        dst,
        dst_n,
        srcs,
        nsrcs: n as u8,
        dst_lat: if load {
            DstLatency::Gmem
        } else if shared {
            DstLatency::Smem
        } else {
            DstLatency::Alu
        },
        smem_half_txns: 0,
        gmem: None,
        gmem_load: load,
        bar: false,
    }
}

/// The block's shared-memory arena, as words, with its size in bytes.
struct Shared {
    words: Vec<u32>,
    bytes: usize,
}

impl Shared {
    /// Word `k` of each lane's access at byte addresses `addrs`. Lanes
    /// whose address was not checked (inactive ones) read an unspecified
    /// value, never out of bounds.
    fn gather(&self, addrs: &[u32; WARP], k: u8) -> Row {
        std::array::from_fn(|l| {
            let i = addrs[l] as usize / 4 + usize::from(k);
            self.words.get(i).copied().unwrap_or(0)
        })
    }
}

/// Source operand `s` across all 32 lanes. A validated instruction has at
/// most one shared operand (it occupies the immediate field), already
/// checked and loaded into `pre`.
fn operand(w: &WarpState, s: Src, pre: Option<&Row>) -> Row {
    match s {
        Src::Reg(r) => *w.row(r.0),
        Src::Imm(v) => [v as u32; WARP],
        Src::SMem(_) => *pre.expect("the shared operand is loaded before the operation"),
    }
}

/// Byte addresses of a shared access of `len` bytes per lane, checked for
/// bounds and alignment over the active lanes. Inactive lanes hold
/// unchecked values.
fn checked_smem_addrs(
    w: &WarpState,
    addr: MemAddr,
    len: u32,
    exec: u32,
    smem: &Shared,
) -> Result<[u32; WARP], SimError> {
    debug_assert!(len.is_power_of_two());
    let base = addr.base.map_or(&ZERO_ROW, |r| w.row(r.0));
    let off = addr.offset as u32;
    // The last valid start, if one access fits the arena at all.
    let (last, fits) = match u32::try_from(smem.bytes)
        .ok()
        .and_then(|b| b.checked_sub(len))
    {
        Some(last) => (last, true),
        None => (0, false),
    };
    let mut out = [0u32; WARP];
    let mut bad = 0u32;
    for l in 0..WARP {
        // The base register is a signed word. The exact sum lies in
        // [0, last] iff the 32-bit signed addition does not overflow and
        // its bits, read unsigned, are at most `last` (negative sums read
        // as at least 2^31).
        let a = base[l].wrapping_add(off);
        let overflow = ((base[l] ^ a) & (off ^ a)) >> 31 != 0;
        let ok = fits & !overflow & (a <= last) & (a & (len - 1) == 0);
        bad |= u32::from(!ok) << l;
        out[l] = a;
    }
    if bad & exec != 0 {
        return Err(smem_fault(w, addr, exec, len, smem.bytes));
    }
    Ok(out)
}

/// Per instruction of `kernel`: the word index of its base-less shared
/// address (a load, a store, or an ALU operand), when it has one that
/// [`checked_smem_scalar`] accepts at the access width in the kernel's
/// arena. The check depends on nothing a lane holds, so it is made once
/// per kernel; validation refuses a kernel with an address that fails
/// it.
fn bare_smem_words(kernel: &Kernel) -> Vec<Option<u32>> {
    let bytes = i64::from(kernel.resources.smem_per_block);
    kernel
        .instrs
        .iter()
        .map(|ins| {
            let (off, len) = ins.op.bare_smem()?;
            let (a, len) = (i64::from(off), i64::from(len));
            (a >= 0 && a + len <= bytes && a % len == 0).then_some((a / 4) as u32)
        })
        .collect()
}

/// The byte address of a shared access of `len` bytes without a base
/// register, checked as [`checked_smem_addrs`] checks every lane; `exec`
/// must have an active lane.
fn checked_smem_scalar(
    w: &WarpState,
    addr: MemAddr,
    len: u32,
    exec: u32,
    smem: &Shared,
) -> Result<u32, SimError> {
    debug_assert!(addr.base.is_none() && exec != 0);
    let a = i64::from(addr.offset);
    if a < 0 || a + i64::from(len) > smem.bytes as i64 || a & i64::from(len - 1) != 0 {
        return Err(smem_fault(w, addr, exec, len, smem.bytes));
    }
    Ok(a as u32)
}

/// The error a lane-order walk raises for a shared access that failed
/// the row check: the accounting pass checks each 4-byte phase over the
/// lanes, then the access itself checks each lane's full width.
fn smem_fault(w: &WarpState, addr: MemAddr, exec: u32, width: u32, smem_bytes: usize) -> SimError {
    let pc = w.pc;
    let lane_addr = |l: usize| {
        let base = addr.base.map_or(0, |r| i64::from(w.row(r.0)[l] as i32));
        base + i64::from(addr.offset)
    };
    let check = |a: i64, len: u32| {
        if a < 0 || (a + i64::from(len)) as usize > smem_bytes {
            Err(SimError::SharedOutOfBounds { offset: a, len, pc })
        } else if a % i64::from(len) != 0 {
            Err(SimError::Misaligned {
                addr: a as u64,
                len,
                pc,
            })
        } else {
            Ok(())
        }
    };
    let phases = (0..i64::from(width / 4)).flat_map(|p| lanes(exec).map(move |l| (l, p * 4, 4)));
    let whole = lanes(exec).map(|l| (l, 0, width));
    phases
        .chain(whole)
        .find_map(|(l, off, len)| check(lane_addr(l) + off, len).err())
        .expect("a lane failed the shared-memory check")
}

/// The error a lane-order walk raises for a global access (addresses as
/// wrapped `i64`s) that failed the row check: first every lane's address
/// is validated (sign, then alignment), then the lanes access memory in
/// order — a store lands every word before the faulting one, exactly as
/// the walk would.
fn global_fault(
    w: &WarpState,
    addrs: &[u64; WARP],
    exec: u32,
    width: Width,
    store: Option<Reg>,
    gmem: &mut GlobalMemory,
) -> SimError {
    let (len, pc) = (width.bytes(), w.pc);
    for l in lanes(exec) {
        let a = addrs[l] as i64;
        if a < 0 {
            return SimError::GlobalOutOfBounds {
                addr: a as u64,
                len,
                pc,
            };
        }
        if a % i64::from(len) != 0 {
            return SimError::Misaligned {
                addr: a as u64,
                len,
                pc,
            };
        }
    }
    for l in lanes(exec) {
        let a = addrs[l];
        for k in 0..width.regs() {
            let at = a + u64::from(k) * 4;
            let ok = match store {
                Some(src) => gmem.write_u32(at, w.row(src.0 + k)[l]).is_ok(),
                None => gmem.in_bounds(at, 4),
            };
            if !ok {
                return SimError::GlobalOutOfBounds { addr: a, len, pc };
            }
        }
    }
    unreachable!("a lane failed the global-memory check")
}

/// The stride of a full warp's addresses `base[l] + off`, when they step
/// by one stride and stay inside `0..2^63`. The stride is found on the
/// 32-bit register row, where the pass vectorizes (a 64-bit minimum over
/// the addresses does not on baseline x86-64).
fn affine_stride(base: &Row, off: i64, exec: u32) -> Option<i64> {
    let d = base[1].wrapping_sub(base[0]);
    let steps = (1..WARP).fold(0, |x, l| x | (base[l].wrapping_sub(base[l - 1]) ^ d));
    // Stepping by `d` read as signed from the first lane reaches the last
    // lane exactly, so no lane wrapped past either end of 32 bits.
    let stride = i64::from(d as i32);
    let first = i64::from(base[0]) + off;
    let last = first + (WARP as i64 - 1) * stride;
    let exact = i64::from(base[WARP - 1]) + off == last;
    (exec == u32::MAX && steps == 0 && exact && first >= 0 && last >= 0).then_some(stride)
}

/// Index of the region containing `addr`, trying `last` first.
fn find_region(regions: &[RegionStats], last: Option<usize>, addr: u64) -> Option<usize> {
    match last {
        Some(r) if regions[r].contains(addr) => Some(r),
        _ => regions.iter().position(|r| r.contains(addr)),
    }
}

fn saturate_u16(v: u32) -> u16 {
    v.min(u32::from(u16::MAX)) as u16
}

/// The bits of `exec` that belong to chunk `c` of `size` lanes, shifted
/// down to bit 0.
fn chunk_mask(exec: u32, c: usize, size: usize) -> u32 {
    let shifted = exec.checked_shr((c * size) as u32).unwrap_or(0);
    if size >= WARP {
        shifted
    } else {
        shifted & ((1u32 << size) - 1)
    }
}

/// The set lanes of `mask`, lowest first.
pub(crate) fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

#[inline(always)]
fn map2(a: &Row, b: &Row, f: impl Fn(u32, u32) -> u32) -> Row {
    std::array::from_fn(|l| f(a[l], b[l]))
}

/// A checked global access's lanes ([`FunctionalSim::global_access`]).
struct GlobalLanes {
    /// Each lane's address (inactive lanes hold unchecked values).
    addrs: [u64; WARP],
    /// The first address, when the warp moves one row of 32 consecutive
    /// words in lane order.
    row: Option<u64>,
}

/// A divergence-stack frame.
#[derive(Debug, Clone)]
struct Frame {
    reconv: usize,
    other: Option<(usize, u32)>,
    merged: u32,
}

/// Registers per lane a warp of `kernel` needs: one past the highest
/// register any instruction writes (wide loads included) or reads
/// (address bases and store sources included). The `.reg` declaration
/// does not bound them, so it is not consulted.
fn lane_regs(kernel: &Kernel) -> usize {
    kernel
        .instrs
        .iter()
        .flat_map(|ins| {
            let dst = ins.op.dst().map(|(d, n)| usize::from(d.0) + usize::from(n));
            let srcs = ins.op.src_regs().into_iter().map(|r| usize::from(r.0) + 1);
            dst.into_iter().chain(srcs)
        })
        .max()
        .unwrap_or(0)
}

/// Predicate registers per lane.
const LANE_PREDS: usize = 4;

/// Execution state of one warp. The register file is **register-major**:
/// one architectural register across all 32 lanes is one contiguous
/// [`Row`], the unit the datapath reads and writes. Predicates are one
/// bit per lane.
#[derive(Debug)]
struct WarpState {
    pc: usize,
    mask: u32,
    exited: u32,
    stack: Vec<Frame>,
    at_barrier: bool,
    done: bool,
    stage: usize,
    first_thread: u32,
    /// One row per register the kernel names ([`lane_regs`]).
    regs: Box<[Row]>,
    /// Bit `l` of `preds[p]` is lane `l`'s predicate `p`.
    preds: [u32; LANE_PREDS],
    /// The warp's trace, when its block is traced.
    trace: Option<WarpTrace>,
    counted_any: Option<usize>,
    counted_smem: Option<usize>,
    counted_atomic: Option<usize>,
}

impl WarpState {
    fn new(
        warp_idx: u32,
        block_threads: u32,
        lane_regs: usize,
        trace: Option<WarpTrace>,
    ) -> WarpState {
        let first_thread = warp_idx * WARP as u32;
        let live = (block_threads - first_thread).min(WARP as u32);
        let mask = if live >= 32 {
            u32::MAX
        } else {
            (1u32 << live) - 1
        };
        WarpState {
            pc: 0,
            mask,
            exited: 0,
            stack: Vec::new(),
            at_barrier: false,
            done: false,
            stage: 0,
            first_thread,
            regs: vec![[0u32; WARP]; lane_regs].into_boxed_slice(),
            preds: [0; LANE_PREDS],
            trace,
            counted_any: None,
            counted_smem: None,
            counted_atomic: None,
        }
    }

    /// Lanes of the active mask whose guard predicate passes.
    fn guard_mask(&self, ins: &Instruction) -> u32 {
        match ins.guard {
            None => self.mask,
            Some(g) => {
                let p = self.preds[usize::from(g.pred.0)];
                self.mask & if g.negate { !p } else { p }
            }
        }
    }

    #[inline]
    fn row(&self, r: u8) -> &Row {
        &self.regs[usize::from(r)]
    }

    #[inline]
    fn row_mut(&mut self, r: u8) -> &mut Row {
        &mut self.regs[usize::from(r)]
    }

    /// The rows of registers `r .. r + n` (a validated kernel keeps them
    /// in the file).
    fn rows(&self, r: Reg, n: u8) -> &[Row] {
        &self.regs[usize::from(r.0)..usize::from(r.0) + usize::from(n)]
    }

    fn rows_mut(&mut self, r: Reg, n: u8) -> &mut [Row] {
        &mut self.regs[usize::from(r.0)..usize::from(r.0) + usize::from(n)]
    }

    /// Write `vals` into register `r` for the lanes in `exec`.
    #[inline]
    fn write_row(&mut self, r: u8, vals: &Row, exec: u32) {
        let row = self.row_mut(r);
        if exec == u32::MAX {
            *row = *vals;
        } else {
            for (l, (dst, v)) in row.iter_mut().zip(vals).enumerate() {
                if exec >> l & 1 != 0 {
                    *dst = *v;
                }
            }
        }
    }

    /// The double in register pair `(r, r + 1)` across all 32 lanes.
    fn f64_row(&self, r: Reg) -> [f64; WARP] {
        let (lo, hi) = (self.row(r.0), self.row(r.0 + 1));
        std::array::from_fn(|l| f64::from_bits(u64::from(lo[l]) | (u64::from(hi[l]) << 32)))
    }

    fn write_f64_row(&mut self, r: Reg, vals: &[f64; WARP], exec: u32) {
        let bits = vals.map(f64::to_bits);
        self.write_row(r.0, &bits.map(|b| b as u32), exec);
        self.write_row(r.0 + 1, &bits.map(|b| (b >> 32) as u32), exec);
    }
}

#[cfg(test)]
#[path = "func_tests.rs"]
mod func_tests;
