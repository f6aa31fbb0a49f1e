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

use crate::error::SimError;
use crate::grid::LaunchConfig;
use crate::memory::GlobalMemory;
use crate::stats::{
    BlockTrace, DstLatency, DynamicStats, RegionStats, StageStats, TraceEntry, GRANULARITIES,
    GRAN_GT200,
};
use gpa_hw::Machine;
use gpa_isa::cfg::Cfg;
use gpa_isa::instr::{Instruction, MemAddr, NumTy, Op, Reg, SpecialReg, Src};
use gpa_isa::kernel::Kernel;
use gpa_mem::bank::{atomic_bank_transactions, bank_transactions, BankConfig};
use gpa_mem::coalesce::{coalesce_half_warp_with, CoalesceConfig};

/// Hardware fused-multiply-add dispatch.
///
/// `f32::mul_add`/`f64::mul_add` lower to libm calls unless the build
/// enables the FMA target feature, and the baseline x86-64 target does
/// not. IEEE 754 `fusedMultiplyAdd` has exactly one correct answer, so
/// the hardware instruction is bit-identical to the libm fallback — this
/// module just picks the fast one at runtime.
mod fma {
    #[cfg(target_arch = "x86_64")]
    pub fn available() -> bool {
        // Detection is cached by std; this is an atomic load after the
        // first call.
        std::arch::is_x86_feature_detected!("fma")
    }

    /// Fused `a * b + c`, single rounding.
    ///
    /// # Safety
    ///
    /// The caller must ensure [`available`] returned `true`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    pub unsafe fn f32_fma(a: f32, b: f32, c: f32) -> f32 {
        use std::arch::x86_64::{_mm_cvtss_f32, _mm_fmadd_ss, _mm_set_ss};
        _mm_cvtss_f32(_mm_fmadd_ss(_mm_set_ss(a), _mm_set_ss(b), _mm_set_ss(c)))
    }

    /// Fused `a * b + c`, single rounding.
    ///
    /// # Safety
    ///
    /// The caller must ensure [`available`] returned `true`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    pub unsafe fn f64_fma(a: f64, b: f64, c: f64) -> f64 {
        use std::arch::x86_64::{_mm_cvtsd_f64, _mm_fmadd_sd, _mm_set_sd};
        _mm_cvtsd_f64(_mm_fmadd_sd(_mm_set_sd(a), _mm_set_sd(b), _mm_set_sd(c)))
    }

    #[cfg(not(target_arch = "x86_64"))]
    pub fn available() -> bool {
        false
    }

    /// Portable stand-in (never reached: [`available`] is `false` here).
    ///
    /// # Safety
    ///
    /// Trivially safe; marked `unsafe` to match the x86-64 signature.
    #[cfg(not(target_arch = "x86_64"))]
    pub unsafe fn f32_fma(a: f32, b: f32, c: f32) -> f32 {
        a.mul_add(b, c)
    }

    /// Portable stand-in (never reached: [`available`] is `false` here).
    ///
    /// # Safety
    ///
    /// Trivially safe; marked `unsafe` to match the x86-64 signature.
    #[cfg(not(target_arch = "x86_64"))]
    pub unsafe fn f64_fma(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }

    /// Fused multiply-add across a full warp: `out[l] = a[l] * b[l] + c[l]`
    /// with a single rounding per lane. Inside an FMA-enabled function
    /// `mul_add` lowers to the hardware instruction and the loop
    /// vectorizes; the result is still IEEE 754 `fusedMultiplyAdd`,
    /// bit-identical to the libm path.
    ///
    /// # Safety
    ///
    /// The caller must ensure [`available`] returned `true`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    pub unsafe fn fmad_warp(a: &[u32; 32], b: &[u32; 32], c: &[u32; 32], out: &mut [u32; 32]) {
        for l in 0..32 {
            out[l] = f32::from_bits(a[l])
                .mul_add(f32::from_bits(b[l]), f32::from_bits(c[l]))
                .to_bits();
        }
    }

    /// Portable stand-in (never reached: [`available`] is `false` here).
    ///
    /// # Safety
    ///
    /// Trivially safe; marked `unsafe` to match the x86-64 signature.
    #[cfg(not(target_arch = "x86_64"))]
    pub unsafe fn fmad_warp(a: &[u32; 32], b: &[u32; 32], c: &[u32; 32], out: &mut [u32; 32]) {
        for l in 0..32 {
            out[l] = f32::from_bits(a[l])
                .mul_add(f32::from_bits(b[l]), f32::from_bits(c[l]))
                .to_bits();
        }
    }
}

/// Result of a full-grid functional run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Aggregated dynamic statistics.
    pub stats: DynamicStats,
    /// Per-block traces, when trace collection was enabled.
    pub traces: Option<Vec<BlockTrace>>,
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
    collect_trace: bool,
    num_threads: usize,
    cfg: Cfg,
    bank_cfg: BankConfig,
    coalesce_cfgs: [CoalesceConfig; 3],
}

const WARP: usize = 32;
const PRED_BASE: u8 = 128;
const NO_RECONV: usize = usize::MAX;

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
        launch.check(machine).map_err(SimError::LaunchTooLarge)?;
        if kernel.resources.smem_per_block > machine.smem_per_sm {
            return Err(SimError::LaunchTooLarge(format!(
                "{} B shared memory exceeds the {} B per-SM arena",
                kernel.resources.smem_per_block, machine.smem_per_sm
            )));
        }
        Ok(FunctionalSim {
            machine,
            kernel,
            launch,
            params: Vec::new(),
            region_defs: Vec::new(),
            fuel: 20_000_000_000,
            collect_trace: false,
            num_threads: 1,
            cfg: Cfg::build(&kernel.instrs),
            bank_cfg: BankConfig {
                banks: machine.smem_banks,
                width: machine.smem_bank_width,
                half_warp: machine.half_warp as usize,
            },
            coalesce_cfgs: GRANULARITIES.map(CoalesceConfig::with_min_segment),
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

    /// Limit the total warp-instructions executed (runaway-loop guard).
    pub fn set_fuel(&mut self, fuel: u64) -> &mut Self {
        self.fuel = fuel;
        self
    }

    /// Record per-warp traces for the timing simulator.
    pub fn collect_traces(&mut self, yes: bool) -> &mut Self {
        self.collect_trace = yes;
        self
    }

    /// Shard the grid's blocks across `n` worker threads in
    /// [`FunctionalSim::run`] (the `par` knob). `1` — the default — is the
    /// plain sequential path; `0` means "auto": one worker per available
    /// CPU core. Output is bit-identical for every thread count; see
    /// [`crate::engine`] for the sharding/merge contract.
    pub fn set_num_threads(&mut self, n: usize) -> &mut Self {
        self.num_threads = n;
        self
    }

    /// [`set_num_threads`](FunctionalSim::set_num_threads) via the shared
    /// [`Threads`](crate::engine::Threads) selector. The simulator itself
    /// defaults to the sequential walk (the deterministic low-level
    /// baseline, including fuel accounting); the options layers above
    /// (`MeasureOpts`, `gpa-service`) default to auto.
    pub fn set_threads(&mut self, threads: crate::engine::Threads) -> &mut Self {
        self.set_num_threads(threads.raw())
    }

    /// Configured worker-thread count (`0` = auto).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The launch shape being simulated.
    pub fn launch(&self) -> &LaunchConfig {
        &self.launch
    }

    /// Whether per-warp traces are being recorded.
    pub fn is_collecting_traces(&self) -> bool {
        self.collect_trace
    }

    /// Configured fuel budget (shared by a whole sequential run; applied
    /// per shard by the parallel engine).
    pub(crate) fn fuel_budget(&self) -> u64 {
        self.fuel
    }

    /// Execute every block of the grid, in block-id order.
    ///
    /// With the default single worker thread ([`FunctionalSim::set_num_threads`])
    /// blocks run sequentially on the calling thread; with more, the
    /// [`crate::engine::SimEngine`] shards blocks across workers and merges
    /// the results into the same (bit-identical) output. Blocks must be
    /// independent, as in a real grid launch: a block that reads global
    /// memory written by a lower-id block of the same launch observes the
    /// pre-launch contents under the parallel engine.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-block-id) [`SimError`] (out-of-bounds
    /// access, divergent barrier, fuel exhaustion, …). The fuel budget
    /// covers the whole grid in a sequential run but each shard separately
    /// in a parallel one, so only fuel-exhaustion behaviour may differ
    /// between thread counts.
    pub fn run(&self, gmem: &mut GlobalMemory) -> Result<RunOutput, SimError> {
        let _span = gpa_telemetry::PhaseSpan::start(gpa_telemetry::phase::FUNCTIONAL_SIM);
        crate::engine::SimEngine::new(self.num_threads).run(self, gmem)
    }

    /// Execute a single block (used by the timing simulator's lazy trace
    /// sources). Statistics accumulate into `stats`; `stats.blocks` is
    /// *not* advanced.
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
        self.exec_block(gmem, block, stats, &mut fuel)
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

    pub(crate) fn exec_block(
        &self,
        gmem: &mut GlobalMemory,
        block: u32,
        stats: &mut DynamicStats,
        fuel: &mut u64,
    ) -> Result<Option<BlockTrace>, SimError> {
        let threads = self.launch.threads_per_block();
        let nwarps = threads.div_ceil(WARP as u32) as usize;
        let mut smem = vec![0u8; self.kernel.resources.smem_per_block as usize];

        let mut warps: Vec<WarpState> = (0..nwarps)
            .map(|w| WarpState::new(w as u32, threads))
            .collect();
        if self.collect_trace {
            // Pooled buffers: repeated traced runs (a serving process, a
            // calibration sweep) grow each warp's trace once and then
            // recycle the capacity instead of reallocating per block.
            for w in &mut warps {
                w.trace = crate::trace_pool::take();
            }
        }

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

        if self.collect_trace {
            Ok(Some(BlockTrace {
                warps: warps.into_iter().map(|w| w.trace).collect(),
            }))
        } else {
            Ok(None)
        }
    }

    /// Run one warp until it parks at a barrier or exits.
    fn run_warp(
        &self,
        w: &mut WarpState,
        block: u32,
        gmem: &mut GlobalMemory,
        smem: &mut [u8],
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
            let exec_mask = self.guard_mask(w, ins);

            match ins.op {
                Op::Bar => {
                    if !w.stack.is_empty() {
                        return Err(SimError::DivergentBarrier { pc });
                    }
                    let stage = w.stage;
                    self.stage_mut(stats, stage).barriers += 1;
                    self.count_issue(stats, w, ins);
                    if self.collect_trace {
                        w.trace.push(bar_entry());
                    }
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
                    if self.collect_trace {
                        w.trace.push(self.alu_entry(ins));
                    }
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

    /// Lanes of `w.mask` whose guard predicate passes.
    fn guard_mask(&self, w: &WarpState, ins: &Instruction) -> u32 {
        match ins.guard {
            None => w.mask,
            Some(g) => {
                let mut m = 0u32;
                for lane in 0..WARP {
                    if w.mask & (1 << lane) != 0 {
                        let v = w.pred(lane, g.pred.0);
                        if v != g.negate {
                            m |= 1 << lane;
                        }
                    }
                }
                m
            }
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

    #[allow(clippy::too_many_arguments)]
    fn exec_datapath(
        &self,
        w: &mut WarpState,
        ins: &Instruction,
        exec_mask: u32,
        block: u32,
        gmem: &mut GlobalMemory,
        smem: &mut [u8],
        stats: &mut DynamicStats,
    ) -> Result<(), SimError> {
        let pc = w.pc;
        let stage = w.stage;
        self.count_issue(stats, w, ins);

        // Per-op FLOP weight (counted per active lane).
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
            self.stage_mut(stats, stage).flops += lane_flops * u64::from(exec_mask.count_ones());
        }

        // Shared-memory traffic: explicit ld/st or an ALU shared operand.
        let mut smem_half_txns_entry: u16 = 0;
        let is_smem_ldst = matches!(ins.op, Op::LdShared { .. } | Op::StShared { .. });
        let smem_access: Option<(MemAddr, u32)> = match ins.op {
            Op::LdShared { addr, width, .. } | Op::StShared { addr, width, .. } => {
                Some((addr, width.bytes()))
            }
            _ => ins.op.smem_operand().map(|a| (a, 4)),
        };
        // ALU shared operands are addressed, checked, and loaded here,
        // once per lane, and the word values handed to the semantic step
        // below — these ops only read shared memory, so preloading is
        // order-equivalent to fetching during execution.
        let mut smem_pre = SmemPre {
            addr: None,
            vals: [0u32; WARP],
        };
        if let Some((addr, width)) = smem_access {
            if exec_mask != 0 {
                let mut half_txns = 0u32;
                let mut half_accesses = 0u32;
                // Wide shared accesses proceed in 4-byte phases.
                for phase in 0..(width / 4) {
                    let mut addrs = [None::<u64>; WARP];
                    for (lane, slot) in addrs.iter_mut().enumerate() {
                        if exec_mask & (1 << lane) != 0 {
                            let a = self.smem_lane_addr(w, lane, addr)? + i64::from(phase * 4);
                            self.check_smem(a, 4, smem.len(), pc)?;
                            *slot = Some(a as u64);
                            if !is_smem_ldst {
                                let i = a as usize;
                                smem_pre.vals[lane] =
                                    u32::from_le_bytes(smem[i..i + 4].try_into().unwrap());
                            }
                        }
                    }
                    for hw_chunk in addrs.chunks(self.bank_cfg.half_warp) {
                        let d = bank_transactions(hw_chunk, self.bank_cfg);
                        half_txns += d;
                        if d > 0 {
                            half_accesses += 1;
                        }
                    }
                }
                if !is_smem_ldst {
                    smem_pre.addr = Some(addr);
                }
                let s = self.stage_mut(stats, stage);
                s.smem_half_txns += u64::from(half_txns);
                s.smem_half_accesses += u64::from(half_accesses);
                s.smem_instrs += 1;
                if w.counted_smem != Some(stage) {
                    w.counted_smem = Some(stage);
                    s.warps_smem += 1;
                }
                smem_half_txns_entry = half_txns.min(u32::from(u16::MAX)) as u16;
            }
        }

        // Shared-memory atomic traffic: lanes of a half-warp hitting the
        // same word (or the same bank) serialize lane by lane — there is
        // no broadcast for a read-modify-write. The serialized weight
        // occupies the shared-memory pipeline (folded into the smem
        // counters and the trace entry) and is additionally attributed to
        // the atomic counters so the analysis can tell contention apart
        // from ordinary bank conflicts.
        if ins.op.is_atomic() && exec_mask != 0 {
            let addr = match ins.op {
                Op::AtomSharedAdd { addr, .. } | Op::AtomSharedCas { addr, .. } => addr,
                _ => unreachable!("is_atomic covers exactly the atomic ops"),
            };
            let mut addrs = [None::<u64>; WARP];
            for (lane, slot) in addrs.iter_mut().enumerate() {
                if exec_mask & (1 << lane) != 0 {
                    let a = self.smem_lane_addr(w, lane, addr)?;
                    self.check_smem(a, 4, smem.len(), pc)?;
                    *slot = Some(a as u64);
                }
            }
            let mut half_txns = 0u32;
            let mut half_accesses = 0u32;
            for hw_chunk in addrs.chunks(self.bank_cfg.half_warp) {
                let d = atomic_bank_transactions(hw_chunk, self.bank_cfg);
                half_txns += d;
                if d > 0 {
                    half_accesses += 1;
                }
            }
            let s = self.stage_mut(stats, stage);
            s.smem_half_txns += u64::from(half_txns);
            s.smem_half_accesses += u64::from(half_accesses);
            s.smem_instrs += 1;
            s.atomic_half_txns += u64::from(half_txns);
            s.atomic_half_accesses += u64::from(half_accesses);
            s.atomic_instrs += 1;
            if w.counted_smem != Some(stage) {
                w.counted_smem = Some(stage);
                s.warps_smem += 1;
            }
            if w.counted_atomic != Some(stage) {
                w.counted_atomic = Some(stage);
                s.warps_atomic += 1;
            }
            smem_half_txns_entry = half_txns.min(u32::from(u16::MAX)) as u16;
        }

        // Global-memory traffic.
        let mut gmem_txns: Option<Box<[gpa_mem::coalesce::Transaction]>> = None;
        if let Op::LdGlobal { addr, width, .. } | Op::StGlobal { addr, width, .. } = ins.op {
            if exec_mask != 0 {
                let mut accesses = [None::<(u64, u32)>; WARP];
                let mut requested = 0u64;
                for (lane, slot) in accesses.iter_mut().enumerate() {
                    if exec_mask & (1 << lane) != 0 {
                        let a = self.gmem_lane_addr(w, lane, addr);
                        let a = u64::try_from(a).map_err(|_| SimError::GlobalOutOfBounds {
                            addr: a as u64,
                            len: width.bytes(),
                            pc,
                        })?;
                        if a % u64::from(width.bytes()) != 0 {
                            return Err(SimError::Misaligned {
                                addr: a,
                                len: width.bytes(),
                                pc,
                            });
                        }
                        *slot = Some((a, width.bytes()));
                        requested += u64::from(width.bytes());
                    }
                }
                // The GT200-granularity transaction list is only kept for
                // the timing trace; the statistics fold in-place.
                let mut all_txs = Vec::new();
                let collect_txs = self.collect_trace;
                for (g, cfg) in self.coalesce_cfgs.iter().enumerate() {
                    for hw_chunk in accesses.chunks(self.machine.half_warp as usize) {
                        coalesce_half_warp_with(hw_chunk, *cfg, &mut |t| {
                            let st = self.stage_mut(stats, stage);
                            st.gmem[g].transactions += 1;
                            st.gmem[g].bytes += u64::from(t.size);
                            if let Some(r) = stats.regions.iter_mut().find(|r| r.contains(t.base)) {
                                r.gmem[g].transactions += 1;
                                r.gmem[g].bytes += u64::from(t.size);
                            }
                            if g == GRAN_GT200 && collect_txs {
                                all_txs.push(t);
                            }
                        });
                    }
                }
                for (a, l) in accesses.iter().flatten() {
                    if let Some(r) = stats.regions.iter_mut().find(|r| r.contains(*a)) {
                        r.requested_bytes += u64::from(*l);
                    }
                }
                let st = self.stage_mut(stats, stage);
                st.gmem_requested_bytes += requested;
                st.gmem_instrs += 1;
                gmem_txns = Some(all_txs.into_boxed_slice());
            }
        }

        // Semantics.
        self.apply_semantics(w, ins, exec_mask, block, gmem, smem, pc, &smem_pre)?;

        // Trace.
        if self.collect_trace {
            let mut e = self.alu_entry(ins);
            e.smem_half_txns = smem_half_txns_entry;
            if smem_access.is_some() || ins.op.is_atomic() {
                e.dst_lat = DstLatency::Smem;
            }
            if let Op::LdGlobal { .. } = ins.op {
                e.dst_lat = DstLatency::Gmem;
                e.gmem_load = true;
            }
            e.gmem = gmem_txns;
            w.trace.push(e);
        }
        Ok(())
    }

    /// Byte offset into shared memory for one lane (bounds unchecked).
    fn smem_lane_addr(&self, w: &WarpState, lane: usize, addr: MemAddr) -> Result<i64, SimError> {
        let base = match addr.base {
            Some(r) => i64::from(w.reg(lane, r.0) as i32),
            None => 0,
        };
        Ok(base + i64::from(addr.offset))
    }

    fn check_smem(&self, addr: i64, len: u32, smem_len: usize, pc: usize) -> Result<(), SimError> {
        if addr < 0 || (addr + i64::from(len)) as usize > smem_len {
            return Err(SimError::SharedOutOfBounds {
                offset: addr,
                len,
                pc,
            });
        }
        if addr % i64::from(len) != 0 {
            return Err(SimError::Misaligned {
                addr: addr as u64,
                len,
                pc,
            });
        }
        Ok(())
    }

    /// Device address for one lane of a global access.
    fn gmem_lane_addr(&self, w: &WarpState, lane: usize, addr: MemAddr) -> i64 {
        let base = match addr.base {
            Some(r) => i64::from(w.reg(lane, r.0)),
            None => 0,
        };
        base + i64::from(addr.offset)
    }

    /// Execute one warp-instruction's semantics for every active lane.
    ///
    /// The op is matched **once per warp** and each arm loops over the
    /// active lanes — this (not the arithmetic) is the interpreter's hot
    /// shape: per-lane dispatch costs more than the lane's work.
    #[allow(clippy::too_many_arguments)]
    fn apply_semantics(
        &self,
        w: &mut WarpState,
        ins: &Instruction,
        exec_mask: u32,
        block: u32,
        gmem: &mut GlobalMemory,
        smem: &mut [u8],
        pc: usize,
        pre: &SmemPre,
    ) -> Result<(), SimError> {
        use Op::*;

        macro_rules! lanes {
            (|$lane:ident| $body:expr) => {
                for $lane in 0..WARP {
                    if exec_mask & (1 << $lane) != 0 {
                        $body;
                    }
                }
            };
        }
        macro_rules! get {
            ($lane:ident, $s:expr) => {
                self.fetch(w, $lane, $s, smem, pc, pre)?
            };
        }
        macro_rules! set {
            ($lane:ident, $d:expr, $v:expr) => {{
                let v = $v;
                w.set_reg($lane, $d.0, v);
            }};
        }
        let f = f32::from_bits;
        let fb = |x: f32| x.to_bits();

        match ins.op {
            FMul { d, a, b } => lanes!(|l| set!(l, d, fb(f(get!(l, a)) * f(get!(l, b))))),
            FAdd { d, a, b } => lanes!(|l| set!(l, d, fb(f(get!(l, a)) + f(get!(l, b))))),
            FMad { d, a, b, c } => {
                // Full-warp vector path: resolve each operand into a
                // contiguous row, fuse all 32 lanes at once.
                if exec_mask == u32::MAX && fma::available() {
                    let mut va = [0u32; WARP];
                    let mut vb = [0u32; WARP];
                    let mut vc = [0u32; WARP];
                    if self.resolve_full(w, a, pre, &mut va)
                        && self.resolve_full(w, b, pre, &mut vb)
                        && self.resolve_full(w, c, pre, &mut vc)
                    {
                        // SAFETY: `fma::available()` confirmed the FMA
                        // target feature at runtime.
                        unsafe { fma::fmad_warp(&va, &vb, &vc, w.reg_row_mut(d.0)) };
                        return Ok(());
                    }
                }
                if fma::available() {
                    lanes!(|l| {
                        let (va, vb, vc) = (f(get!(l, a)), f(get!(l, b)), f(get!(l, c)));
                        // SAFETY: `fma::available()` confirmed the FMA
                        // target feature at runtime.
                        set!(l, d, fb(unsafe { fma::f32_fma(va, vb, vc) }));
                    })
                } else {
                    lanes!(|l| set!(
                        l,
                        d,
                        fb(f(get!(l, a)).mul_add(f(get!(l, b)), f(get!(l, c))))
                    ))
                }
            }
            IAdd { d, a, b } => {
                lanes!(|l| set!(
                    l,
                    d,
                    (get!(l, a) as i32).wrapping_add(get!(l, b) as i32) as u32
                ))
            }
            ISub { d, a, b } => {
                lanes!(|l| set!(
                    l,
                    d,
                    (get!(l, a) as i32).wrapping_sub(get!(l, b) as i32) as u32
                ))
            }
            IMul { d, a, b } => {
                lanes!(|l| set!(
                    l,
                    d,
                    (get!(l, a) as i32).wrapping_mul(get!(l, b) as i32) as u32
                ))
            }
            IMad { d, a, b, c } => {
                lanes!(|l| set!(
                    l,
                    d,
                    (get!(l, a) as i32)
                        .wrapping_mul(get!(l, b) as i32)
                        .wrapping_add(get!(l, c) as i32) as u32
                ))
            }
            IMin { d, a, b } => {
                lanes!(|l| set!(l, d, (get!(l, a) as i32).min(get!(l, b) as i32) as u32))
            }
            IMax { d, a, b } => {
                lanes!(|l| set!(l, d, (get!(l, a) as i32).max(get!(l, b) as i32) as u32))
            }
            Shl { d, a, b } => lanes!(|l| set!(l, d, get!(l, a) << (get!(l, b) & 31))),
            Shr { d, a, b } => lanes!(|l| set!(l, d, get!(l, a) >> (get!(l, b) & 31))),
            And { d, a, b } => lanes!(|l| set!(l, d, get!(l, a) & get!(l, b))),
            Or { d, a, b } => lanes!(|l| set!(l, d, get!(l, a) | get!(l, b))),
            Xor { d, a, b } => lanes!(|l| set!(l, d, get!(l, a) ^ get!(l, b))),
            Mov { d, a } => lanes!(|l| set!(l, d, get!(l, a))),
            MovImm { d, imm } => lanes!(|l| set!(l, d, imm)),
            S2R { d, sr } => lanes!(|l| set!(l, d, self.special_value(w, l, block, sr))),
            SetP { p, cmp, ty, a, b } => {
                lanes!(|l| {
                    let va = get!(l, a);
                    let vb = get!(l, b);
                    let r = match ty {
                        NumTy::S32 => cmp.eval_i32(va as i32, vb as i32),
                        NumTy::F32 => cmp.eval_f32(f(va), f(vb)),
                    };
                    w.set_pred(l, p.0, r);
                })
            }
            Sel { d, p, a, b } => {
                lanes!(|l| {
                    let v = if w.pred(l, p.0) {
                        get!(l, a)
                    } else {
                        get!(l, b)
                    };
                    set!(l, d, v);
                })
            }
            I2F { d, a } => lanes!(|l| set!(l, d, fb(get!(l, a) as i32 as f32))),
            F2I { d, a } => lanes!(|l| set!(l, d, (f(get!(l, a)) as i32) as u32)),
            Rcp { d, a } => lanes!(|l| set!(l, d, fb(1.0 / f(get!(l, a))))),
            Rsq { d, a } => lanes!(|l| set!(l, d, fb(1.0 / f(get!(l, a)).sqrt()))),
            Sin { d, a } => lanes!(|l| set!(l, d, fb(f(get!(l, a)).sin()))),
            Cos { d, a } => lanes!(|l| set!(l, d, fb(f(get!(l, a)).cos()))),
            Lg2 { d, a } => lanes!(|l| set!(l, d, fb(f(get!(l, a)).log2()))),
            Ex2 { d, a } => lanes!(|l| set!(l, d, fb(f(get!(l, a)).exp2()))),
            DAdd { d, a, b } => {
                lanes!(|l| {
                    let v = w.read_f64(l, a) + w.read_f64(l, b);
                    w.write_f64(l, d, v);
                })
            }
            DMul { d, a, b } => {
                lanes!(|l| {
                    let v = w.read_f64(l, a) * w.read_f64(l, b);
                    w.write_f64(l, d, v);
                })
            }
            DFma { d, a, b, c } => {
                if fma::available() {
                    lanes!(|l| {
                        let (va, vb, vc) = (w.read_f64(l, a), w.read_f64(l, b), w.read_f64(l, c));
                        // SAFETY: `fma::available()` confirmed the FMA
                        // target feature at runtime.
                        let v = unsafe { fma::f64_fma(va, vb, vc) };
                        w.write_f64(l, d, v);
                    })
                } else {
                    lanes!(|l| {
                        let v = w.read_f64(l, a).mul_add(w.read_f64(l, b), w.read_f64(l, c));
                        w.write_f64(l, d, v);
                    })
                }
            }
            LdShared { d, addr, width } => {
                lanes!(|l| {
                    let a = self.smem_lane_addr(w, l, addr)?;
                    self.check_smem(a, width.bytes(), smem.len(), pc)?;
                    for k in 0..width.regs() {
                        let i = a as usize + usize::from(k) * 4;
                        let v = u32::from_le_bytes(smem[i..i + 4].try_into().unwrap());
                        w.set_reg(l, d.0 + k, v);
                    }
                })
            }
            StShared { addr, src, width } => {
                lanes!(|l| {
                    let a = self.smem_lane_addr(w, l, addr)?;
                    self.check_smem(a, width.bytes(), smem.len(), pc)?;
                    for k in 0..width.regs() {
                        let i = a as usize + usize::from(k) * 4;
                        let v = w.reg(l, src.0 + k);
                        smem[i..i + 4].copy_from_slice(&v.to_le_bytes());
                    }
                })
            }
            LdGlobal { d, addr, width } => {
                lanes!(|l| {
                    let a = self.gmem_lane_addr(w, l, addr) as u64;
                    for k in 0..width.regs() {
                        let v = gmem.read_u32(a + u64::from(k) * 4).map_err(|_| {
                            SimError::GlobalOutOfBounds {
                                addr: a,
                                len: width.bytes(),
                                pc,
                            }
                        })?;
                        w.set_reg(l, d.0 + k, v);
                    }
                })
            }
            StGlobal { addr, src, width } => {
                lanes!(|l| {
                    let a = self.gmem_lane_addr(w, l, addr) as u64;
                    for k in 0..width.regs() {
                        let v = w.reg(l, src.0 + k);
                        gmem.write_u32(a + u64::from(k) * 4, v).map_err(|_| {
                            SimError::GlobalOutOfBounds {
                                addr: a,
                                len: width.bytes(),
                                pc,
                            }
                        })?;
                    }
                })
            }
            AtomSharedAdd { d, addr, src } => {
                // Same-word lanes serialize in lane order, so the returned
                // old values are deterministic.
                lanes!(|l| {
                    let a = self.smem_lane_addr(w, l, addr)?;
                    self.check_smem(a, 4, smem.len(), pc)?;
                    let i = a as usize;
                    let old = u32::from_le_bytes(smem[i..i + 4].try_into().unwrap());
                    let add = w.reg(l, src.0);
                    let new = (old as i32).wrapping_add(add as i32) as u32;
                    smem[i..i + 4].copy_from_slice(&new.to_le_bytes());
                    set!(l, d, old);
                })
            }
            AtomSharedCas { d, addr, cmp, src } => {
                lanes!(|l| {
                    let a = self.smem_lane_addr(w, l, addr)?;
                    self.check_smem(a, 4, smem.len(), pc)?;
                    let i = a as usize;
                    let old = u32::from_le_bytes(smem[i..i + 4].try_into().unwrap());
                    if old == w.reg(l, cmp.0) {
                        let v = w.reg(l, src.0);
                        smem[i..i + 4].copy_from_slice(&v.to_le_bytes());
                    }
                    set!(l, d, old);
                })
            }
            LdParam { d, offset } => {
                if exec_mask != 0 {
                    let idx = usize::from(offset) / 4;
                    let v = *self
                        .params
                        .get(idx)
                        .ok_or(SimError::ParamOutOfBounds { offset })?;
                    lanes!(|l| set!(l, d, v));
                }
            }
            Bar | Bra { .. } | Exit | Nop => {}
        }
        Ok(())
    }

    /// Resolve one operand for **all 32 lanes** of a fully-active warp
    /// into `out`. Returns `false` (leaving `out` unspecified) when the
    /// operand is a shared-memory word that was not preloaded — the
    /// caller falls back to the per-lane path.
    #[inline]
    fn resolve_full(&self, w: &WarpState, s: Src, pre: &SmemPre, out: &mut [u32; WARP]) -> bool {
        match s {
            Src::Reg(r) => {
                out.copy_from_slice(w.reg_row(r.0));
                true
            }
            Src::Imm(v) => {
                out.fill(v as u32);
                true
            }
            Src::SMem(a) => {
                if pre.addr == Some(a) {
                    out.copy_from_slice(&pre.vals);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Fetch one operand for one lane. Shared-memory operands normally
    /// come pre-loaded from the accounting pass (`pre`); the fallback
    /// path reads shared memory directly.
    #[inline(always)]
    fn fetch(
        &self,
        w: &WarpState,
        lane: usize,
        s: Src,
        smem: &[u8],
        pc: usize,
        pre: &SmemPre,
    ) -> Result<u32, SimError> {
        match s {
            Src::Reg(r) => Ok(w.reg(lane, r.0)),
            Src::Imm(v) => Ok(v as u32),
            Src::SMem(a) => {
                if pre.addr == Some(a) {
                    return Ok(pre.vals[lane]);
                }
                let addr = self.smem_lane_addr(w, lane, a)?;
                self.check_smem(addr, 4, smem.len(), pc)?;
                let i = addr as usize;
                Ok(u32::from_le_bytes(smem[i..i + 4].try_into().unwrap()))
            }
        }
    }

    fn special_value(&self, w: &WarpState, lane: usize, block: u32, sr: SpecialReg) -> u32 {
        let tid = w.first_thread + lane as u32;
        let (tx, ty) = self.launch.thread_coords(tid);
        let (bx, by) = self.launch.block_coords(block);
        match sr {
            SpecialReg::TidX => tx,
            SpecialReg::TidY => ty,
            SpecialReg::CtaIdX => bx,
            SpecialReg::CtaIdY => by,
            SpecialReg::NTidX => self.launch.block.0,
            SpecialReg::NTidY => self.launch.block.1,
            SpecialReg::NCtaIdX => self.launch.grid.0,
            SpecialReg::NCtaIdY => self.launch.grid.1,
        }
    }

    /// Trace skeleton for an instruction: class, dependencies, destination.
    fn alu_entry(&self, ins: &Instruction) -> TraceEntry {
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
        match ins.op {
            Op::Sel { p, .. } => push(PRED_BASE + p.0),
            Op::SetP { .. } => {}
            _ => {}
        }
        let (dst, dst_n) = match ins.op {
            Op::SetP { p, .. } => (PRED_BASE + p.0, 1),
            _ => match ins.op.dst() {
                Some((r, k)) => (r.0, k),
                None => (0, 0),
            },
        };
        TraceEntry {
            class: ins.op.class(),
            dst,
            dst_n,
            srcs,
            nsrcs: n as u8,
            dst_lat: DstLatency::Alu,
            smem_half_txns: 0,
            gmem: None,
            gmem_load: false,
            bar: false,
        }
    }
}

fn bar_entry() -> TraceEntry {
    TraceEntry {
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
    }
}

/// A divergence-stack frame.
#[derive(Debug, Clone)]
struct Frame {
    reconv: usize,
    other: Option<(usize, u32)>,
    merged: u32,
}

/// Pre-resolved shared-memory operand of an ALU instruction: the word
/// each lane would read, loaded once during the bank-accounting pass.
struct SmemPre {
    /// The operand this covers, or `None` when nothing was preloaded.
    addr: Option<MemAddr>,
    /// Per-lane word values (valid for lanes in the exec mask).
    vals: [u32; WARP],
}

/// Architectural registers per lane (the GT200 register-file slice a
/// kernel may address).
const LANE_REGS: usize = 128;
/// Predicate registers per lane.
const LANE_PREDS: usize = 4;

/// Execution state of one warp. The register file is one flat slab in
/// **register-major** order (`reg * WARP + lane`) rather than per-lane
/// boxes: one architectural register across all 32 lanes is contiguous,
/// which is both the locality the per-lane interpreter loop wants and
/// the layout the vectorized full-warp fast paths require.
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
    regs: Box<[u32; WARP * LANE_REGS]>,
    preds: [bool; WARP * LANE_PREDS],
    trace: Vec<TraceEntry>,
    counted_any: Option<usize>,
    counted_smem: Option<usize>,
    counted_atomic: Option<usize>,
}

impl WarpState {
    fn new(warp_idx: u32, block_threads: u32) -> WarpState {
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
            regs: vec![0u32; WARP * LANE_REGS]
                .into_boxed_slice()
                .try_into()
                .expect("fixed-size register slab"),
            preds: [false; WARP * LANE_PREDS],
            trace: Vec::new(),
            counted_any: None,
            counted_smem: None,
            counted_atomic: None,
        }
    }

    #[inline]
    fn reg(&self, lane: usize, r: u8) -> u32 {
        self.regs[r as usize * WARP + lane]
    }

    #[inline]
    fn set_reg(&mut self, lane: usize, r: u8, v: u32) {
        self.regs[r as usize * WARP + lane] = v;
    }

    /// One register across all 32 lanes.
    #[inline]
    fn reg_row(&self, r: u8) -> &[u32; WARP] {
        self.regs[r as usize * WARP..(r as usize + 1) * WARP]
            .try_into()
            .expect("warp-sized register row")
    }

    /// One register across all 32 lanes, mutably.
    #[inline]
    fn reg_row_mut(&mut self, r: u8) -> &mut [u32; WARP] {
        (&mut self.regs[r as usize * WARP..(r as usize + 1) * WARP])
            .try_into()
            .expect("warp-sized register row")
    }

    #[inline]
    fn pred(&self, lane: usize, p: u8) -> bool {
        self.preds[lane * LANE_PREDS + p as usize]
    }

    #[inline]
    fn set_pred(&mut self, lane: usize, p: u8, v: bool) {
        self.preds[lane * LANE_PREDS + p as usize] = v;
    }

    fn read_f64(&self, lane: usize, r: Reg) -> f64 {
        let lo = self.reg(lane, r.0);
        let hi = self.reg(lane, r.0 + 1);
        f64::from_bits(u64::from(lo) | (u64::from(hi) << 32))
    }

    fn write_f64(&mut self, lane: usize, r: Reg, v: f64) {
        let bits = v.to_bits();
        self.set_reg(lane, r.0, bits as u32);
        self.set_reg(lane, r.0 + 1, (bits >> 32) as u32);
    }
}

#[cfg(test)]
#[path = "func_tests.rs"]
mod func_tests;
