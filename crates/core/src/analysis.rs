//! The three-component throughput model and bottleneck analysis (paper §3).

use crate::input::ModelInput;
use gpa_hw::{InstrClass, Machine};
use gpa_sim::stats::{StageStats, GRAN_GT200};
use gpa_ubench::gmem::GmemConfig;
use gpa_ubench::{GmemBench, ThroughputCurves};
use std::borrow::Cow;
use std::fmt;

/// Relative cost of one serialized atomic transaction against one plain
/// shared-memory transaction: a read plus a write through the bank.
const ATOMIC_RMW_COST: f64 = 2.0;

/// The GPU execution components the model prices: the paper's three (§3)
/// plus the atomic unit, which serializes conflicting read-modify-write
/// updates to the same shared-memory word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Instruction issue/execution.
    InstructionPipeline,
    /// On-chip shared memory.
    SharedMemory,
    /// Off-chip global memory.
    GlobalMemory,
    /// Shared-memory atomic unit (contended read-modify-write traffic).
    AtomicUnit,
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::InstructionPipeline => "instruction pipeline",
            Component::SharedMemory => "shared memory",
            Component::GlobalMemory => "global memory",
            Component::AtomicUnit => "atomic unit",
        };
        f.write_str(s)
    }
}

/// Predicted seconds per component.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentTimes {
    /// Instruction-pipeline seconds.
    pub instr: f64,
    /// Shared-memory seconds.
    pub smem: f64,
    /// Global-memory seconds.
    pub gmem: f64,
    /// Atomic-unit seconds (contended shared read-modify-write traffic).
    pub atomic: f64,
}

impl ComponentTimes {
    /// Time of the named component.
    pub fn get(&self, c: Component) -> f64 {
        match c {
            Component::InstructionPipeline => self.instr,
            Component::SharedMemory => self.smem,
            Component::GlobalMemory => self.gmem,
            Component::AtomicUnit => self.atomic,
        }
    }

    /// The dominating time (the paper's perfect-overlap assumption).
    pub fn max(&self) -> f64 {
        self.instr.max(self.smem).max(self.gmem).max(self.atomic)
    }

    /// The dominating component.
    pub fn bottleneck(&self) -> Component {
        if self.gmem >= self.instr && self.gmem >= self.smem && self.gmem >= self.atomic {
            Component::GlobalMemory
        } else if self.atomic >= self.instr && self.atomic >= self.smem {
            Component::AtomicUnit
        } else if self.smem >= self.instr {
            Component::SharedMemory
        } else {
            Component::InstructionPipeline
        }
    }

    /// The runner-up: what becomes the bottleneck if the current one is
    /// removed (paper §3: "we can further infer … the next component that
    /// becomes the new bottleneck").
    pub fn second_bottleneck(&self) -> Component {
        let b = self.bottleneck();
        [
            Component::AtomicUnit,
            Component::GlobalMemory,
            Component::SharedMemory,
            Component::InstructionPipeline,
        ]
        .into_iter()
        .filter(|c| *c != b)
        .max_by(|a, z| self.get(*a).total_cmp(&self.get(*z)))
        .expect("three candidates remain")
    }
}

/// Bottleneck causes, following the paper's §3 catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cause {
    /// Few of the issued instructions do "actual computation".
    LowComputationalDensity {
        /// MAD fraction of all instructions.
        density: f64,
    },
    /// A large share of Type III/IV (expensive) instructions.
    ExpensiveInstructions {
        /// Fraction of instructions in classes III and IV.
        fraction: f64,
    },
    /// Too few warps to cover the instruction pipeline latency.
    InsufficientWarpsForPipeline {
        /// Warps per SM during the stage.
        warps: u32,
    },
    /// Shared-memory bank conflicts serialize accesses.
    BankConflicts {
        /// Actual over conflict-free transactions (1.0 = none).
        factor: f64,
    },
    /// Too few warps to cover the shared-memory pipeline latency.
    InsufficientWarpsForSharedMemory {
        /// Warps per SM issuing shared accesses during the stage.
        warps: u32,
    },
    /// Global accesses waste transaction bytes.
    UncoalescedAccesses {
        /// Requested over transferred bytes (1.0 = perfectly coalesced).
        efficiency: f64,
    },
    /// A finer transaction granularity would transfer far fewer bytes
    /// (paper §5.3's 16-byte experiment).
    LargeTransactionGranularity {
        /// Bytes at 32 B granularity over bytes at 16 B granularity.
        reduction_at_16b: f64,
    },
    /// Not enough concurrent memory transactions to cover DRAM latency.
    InsufficientMemoryParallelism {
        /// Achieved fraction of the machine's effective peak bandwidth.
        bandwidth_fraction: f64,
    },
    /// Conflicting shared-memory atomics serialize within the warp.
    AtomicContention {
        /// Actual over contention-free atomic transactions (1.0 = none).
        factor: f64,
    },
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cause::LowComputationalDensity { density } => {
                write!(f, "low computational density ({:.0}% MAD)", density * 100.0)
            }
            Cause::ExpensiveInstructions { fraction } => {
                write!(
                    f,
                    "expensive (Type III/IV) instructions ({:.0}%)",
                    fraction * 100.0
                )
            }
            Cause::InsufficientWarpsForPipeline { warps } => {
                write!(
                    f,
                    "insufficient warps for the instruction pipeline ({warps}/SM)"
                )
            }
            Cause::BankConflicts { factor } => {
                write!(f, "bank conflicts (×{factor:.2} transactions)")
            }
            Cause::InsufficientWarpsForSharedMemory { warps } => {
                write!(f, "insufficient warps for shared memory ({warps}/SM)")
            }
            Cause::UncoalescedAccesses { efficiency } => {
                write!(
                    f,
                    "uncoalesced accesses ({:.0}% efficiency)",
                    efficiency * 100.0
                )
            }
            Cause::LargeTransactionGranularity { reduction_at_16b } => {
                write!(
                    f,
                    "large transaction granularity (16 B transactions would cut bytes ×{reduction_at_16b:.2})"
                )
            }
            Cause::InsufficientMemoryParallelism { bandwidth_fraction } => {
                write!(
                    f,
                    "insufficient memory parallelism ({:.0}% of effective bandwidth)",
                    bandwidth_fraction * 100.0
                )
            }
            Cause::AtomicContention { factor } => {
                write!(
                    f,
                    "atomic contention (×{factor:.2} serialization) — privatize \
                     updates per warp/block or pad the shared layout"
                )
            }
        }
    }
}

/// Analysis of one synchronization stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAnalysis {
    /// Stage index (barrier intervals, 0-based).
    pub stage: usize,
    /// Predicted component times.
    pub times: ComponentTimes,
    /// The stage's bottleneck.
    pub bottleneck: Component,
    /// Warps per SM issuing instructions during this stage.
    pub warps_instr: u32,
    /// Warps per SM issuing shared accesses during this stage.
    pub warps_smem: u32,
    /// Instruction throughput used (warp-instr/s, whole GPU).
    pub instr_throughput: f64,
    /// Shared bandwidth used (bytes/s, whole GPU) — paper Figure 7a.
    pub smem_bandwidth: f64,
    /// Global bandwidth used (bytes/s), 0 when the stage has no traffic.
    pub gmem_bandwidth: f64,
    /// Diagnosed causes for the stage bottleneck.
    pub causes: Vec<Cause>,
}

/// Complete model output for one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Kernel name.
    pub kernel_name: String,
    /// Machine name.
    pub machine_name: String,
    /// Resident blocks per SM.
    pub resident_blocks: u32,
    /// Resident warps per SM.
    pub resident_warps: u32,
    /// Per-stage analyses.
    pub stages: Vec<StageAnalysis>,
    /// Whole-program component times (aggregate counts).
    pub totals: ComponentTimes,
    /// Σ over stages of the stage maxima (single-resident-block rule).
    pub serialized_seconds: f64,
    /// max of the whole-program component times (multi-block rule).
    pub overlapped_seconds: f64,
    /// The paper's prediction: `serialized` when one block is resident,
    /// `overlapped` otherwise (§3).
    pub predicted_seconds: f64,
    /// Per-stage maxima summed into each stage's bottleneck component —
    /// the decomposition of paper Figures 6 and 8 ("the time of CR is
    /// mainly dominated by shared memory access").
    pub serialized_attribution: ComponentTimes,
    /// Program bottleneck: for serialized (single-resident-block) programs
    /// the component that dominates [`Analysis::serialized_attribution`];
    /// otherwise the largest whole-program component time.
    pub bottleneck: Component,
    /// What would bind next if the bottleneck were removed.
    pub next_bottleneck: Component,
    /// Whole-program computational density (MAD fraction).
    pub computational_density: f64,
    /// Whole-program bank-conflict factor.
    pub bank_conflict_factor: f64,
    /// Whole-program coalescing efficiency at GT200 granularity.
    pub coalescing_efficiency: f64,
    /// Whole-program atomic contention factor (1.0 = contention-free).
    pub atomic_contention_factor: f64,
}

/// The performance model: measured curves + the synthetic global-memory
/// benchmark, applied to extracted inputs.
#[derive(Debug)]
pub struct Model<'m> {
    machine: &'m Machine,
    curves: Cow<'m, ThroughputCurves>,
    gmem_bench: GmemBench<'m>,
}

impl<'m> Model<'m> {
    /// Build a model from previously measured curves, taking ownership.
    pub fn new(machine: &'m Machine, curves: ThroughputCurves) -> Model<'m> {
        Model {
            machine,
            curves: Cow::Owned(curves),
            gmem_bench: GmemBench::new(machine),
        }
    }

    /// Build a model borrowing long-lived curves — no copy, so sessions
    /// that answer many queries against one calibration (the
    /// `gpa-service` `Analyzer`) can build a per-query model for free.
    pub fn with_curves(machine: &'m Machine, curves: &'m ThroughputCurves) -> Model<'m> {
        Model {
            machine,
            curves: Cow::Borrowed(curves),
            gmem_bench: GmemBench::new(machine),
        }
    }

    /// The curves in use.
    pub fn curves(&self) -> &ThroughputCurves {
        &self.curves
    }

    /// The machine being modeled.
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// Run the model on one extracted launch.
    pub fn analyze(&mut self, input: &ModelInput) -> Analysis {
        let mut stages = Vec::with_capacity(input.stats.stages.len());
        let mut serialized = 0.0;
        for (i, s) in input.stats.stages.iter().enumerate() {
            let sa = self.analyze_stage(input, i, s);
            serialized += sa.times.max();
            stages.push(sa);
        }

        let total_stats = input.stats.total();
        let total_sa = self.analyze_stage(input, usize::MAX, &total_stats);
        let totals = total_sa.times;
        let overlapped = totals.max();

        // Paper §3: one resident block ⇒ barrier-separated stages
        // serialize; multiple resident blocks ⇒ stages from different
        // blocks overlap, use the whole-program bottleneck.
        let predicted = if input.occupancy.blocks <= 1 {
            serialized
        } else {
            overlapped
        };

        let mut attribution = ComponentTimes::default();
        for sa in &stages {
            match sa.bottleneck {
                Component::InstructionPipeline => attribution.instr += sa.times.max(),
                Component::SharedMemory => attribution.smem += sa.times.max(),
                Component::GlobalMemory => attribution.gmem += sa.times.max(),
                Component::AtomicUnit => attribution.atomic += sa.times.max(),
            }
        }
        let serialized_mode = input.occupancy.blocks <= 1 && stages.len() > 1;
        let bottleneck = if serialized_mode {
            attribution.bottleneck()
        } else {
            totals.bottleneck()
        };
        let next_bottleneck = if serialized_mode {
            attribution.second_bottleneck()
        } else {
            totals.second_bottleneck()
        };

        Analysis {
            kernel_name: input.kernel_name.clone(),
            machine_name: self.machine.name.clone(),
            resident_blocks: input.occupancy.blocks,
            resident_warps: input.occupancy.active_warps,
            stages,
            totals,
            serialized_seconds: serialized,
            overlapped_seconds: overlapped,
            predicted_seconds: predicted,
            serialized_attribution: attribution,
            bottleneck,
            next_bottleneck,
            computational_density: total_stats.computational_density(),
            bank_conflict_factor: total_stats.bank_conflict_factor(),
            coalescing_efficiency: total_stats.coalesce_efficiency(GRAN_GT200),
            atomic_contention_factor: total_stats.atomic_contention_factor(),
        }
    }

    fn analyze_stage(&mut self, input: &ModelInput, stage: usize, s: &StageStats) -> StageAnalysis {
        let blocks = input.stats.blocks.max(1);
        let m = self.machine;

        // Warp-level parallelism during the stage: per-block active warps
        // times resident blocks (paper §5.2 reads per-step warp counts).
        // Small grids cannot fill every SM to its occupancy ceiling; the
        // most-loaded SM gets ceil(blocks / num_sms).
        let resident = input
            .occupancy
            .blocks
            .min((blocks as f64 / f64::from(m.num_sms)).ceil() as u32)
            .max(1);
        let per_block_any = (s.warps_any as f64 / blocks as f64).round() as u32;
        let per_block_smem = (s.warps_smem as f64 / blocks as f64).round() as u32;
        let warps_instr = (per_block_any * resident).clamp(1, m.max_warps_per_sm);
        let warps_smem = (per_block_smem * resident).clamp(1, m.max_warps_per_sm);

        // Fraction of SMs covered by the launch.
        let coverage = (blocks as f64 / f64::from(m.num_sms)).min(1.0);

        // Instruction pipeline: linear combination over classes (paper §3).
        let mut instr_time = 0.0;
        for class in InstrClass::ALL {
            let n = s.instr_by_class[class.index()];
            if n > 0 {
                instr_time += n as f64 / self.curves.instruction_throughput(class, warps_instr);
            }
        }
        instr_time /= coverage;
        let instr_throughput = self
            .curves
            .instruction_throughput(InstrClass::TypeII, warps_instr);

        // Shared memory: conflict-corrected transactions over the measured
        // bandwidth at this stage's warp parallelism (paper §4.2). Atomic
        // traffic is folded into the shared counters because it occupies
        // the same pipeline.
        let smem_bandwidth = self.curves.shared_bandwidth(warps_smem);
        let smem_bytes = s.smem_warp_equiv() * f64::from(m.warp_access_bytes());
        let smem_time = smem_bytes / smem_bandwidth / coverage;

        // Atomic unit: the atomic share of the shared pipeline, priced at
        // the read-modify-write cost (each serialized transaction performs
        // a read and a write through the bank). The component overtakes
        // plain shared traffic exactly when contended atomics dominate.
        let atomic_bytes =
            s.atomic_warp_equiv() * f64::from(m.warp_access_bytes()) * ATOMIC_RMW_COST;
        let atomic_time = atomic_bytes / smem_bandwidth / coverage;

        // Global memory: run the synthetic benchmark at the same
        // configuration (paper §4.3).
        let hw = &s.gmem[GRAN_GT200];
        let (gmem_time, gmem_bandwidth) = if hw.bytes == 0 {
            (0.0, 0.0)
        } else {
            let threads_total = blocks * u64::from(input.launch.threads_per_block());
            let per_thread = (hw.bytes as f64 / threads_total as f64 / 4.0).round() as u32;
            let mpt = per_thread.clamp(1, 256);
            // Saturation is reached well before 60 blocks; beyond that the
            // cluster imbalance is negligible, so cap the synthetic run.
            let bench_blocks = if blocks <= 60 { blocks as u32 } else { 60 };
            let cfg = GmemConfig::new(bench_blocks, input.launch.threads_per_block(), mpt);
            let bw = self.gmem_bench.bandwidth(cfg);
            (hw.bytes as f64 / bw, bw)
        };

        let times = ComponentTimes {
            instr: instr_time,
            smem: smem_time,
            gmem: gmem_time,
            atomic: atomic_time,
        };
        let bottleneck = times.bottleneck();
        let causes = self.diagnose(s, bottleneck, warps_instr, warps_smem, gmem_bandwidth);

        StageAnalysis {
            stage,
            times,
            bottleneck,
            warps_instr,
            warps_smem,
            instr_throughput,
            smem_bandwidth,
            gmem_bandwidth,
            causes,
        }
    }

    fn diagnose(
        &self,
        s: &StageStats,
        bottleneck: Component,
        warps_instr: u32,
        warps_smem: u32,
        gmem_bw: f64,
    ) -> Vec<Cause> {
        let mut causes = Vec::new();
        match bottleneck {
            Component::InstructionPipeline => {
                let density = s.computational_density();
                if density < 0.5 && s.instr_total() > 0 {
                    causes.push(Cause::LowComputationalDensity { density });
                }
                let expensive = (s.instr(InstrClass::TypeIII) + s.instr(InstrClass::TypeIV)) as f64
                    / s.instr_total().max(1) as f64;
                if expensive > 0.1 {
                    causes.push(Cause::ExpensiveInstructions {
                        fraction: expensive,
                    });
                }
                if warps_instr < 6 {
                    causes.push(Cause::InsufficientWarpsForPipeline { warps: warps_instr });
                }
            }
            Component::SharedMemory => {
                let factor = s.bank_conflict_factor();
                if factor > 1.1 {
                    causes.push(Cause::BankConflicts { factor });
                }
                if warps_smem < 12 {
                    causes.push(Cause::InsufficientWarpsForSharedMemory { warps: warps_smem });
                }
            }
            Component::AtomicUnit => {
                let factor = s.atomic_contention_factor();
                if factor > 1.1 {
                    causes.push(Cause::AtomicContention { factor });
                }
                if warps_smem < 12 {
                    causes.push(Cause::InsufficientWarpsForSharedMemory { warps: warps_smem });
                }
            }
            Component::GlobalMemory => {
                let eff = s.coalesce_efficiency(GRAN_GT200);
                if eff < 0.9 {
                    causes.push(Cause::UncoalescedAccesses { efficiency: eff });
                    let b32 = s.gmem[0].bytes.max(1) as f64;
                    let b16 = s.gmem[1].bytes.max(1) as f64;
                    if b32 / b16 > 1.15 {
                        causes.push(Cause::LargeTransactionGranularity {
                            reduction_at_16b: b32 / b16,
                        });
                    }
                }
                let effective = self.machine.peak_global_bandwidth() * 0.8;
                if gmem_bw > 0.0 && gmem_bw < 0.6 * effective {
                    causes.push(Cause::InsufficientMemoryParallelism {
                        bandwidth_fraction: gmem_bw / effective,
                    });
                }
            }
        }
        causes
    }
}

#[cfg(test)]
#[path = "analysis_tests.rs"]
mod analysis_tests;
