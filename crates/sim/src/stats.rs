//! Dynamic statistics (the paper's "info extractor" inputs) and warp traces.

use gpa_hw::InstrClass;
use gpa_mem::coalesce::Transaction;
use std::collections::HashMap;
use std::sync::Arc;

/// Global-memory transaction granularities the functional simulator
/// evaluates side by side: the real GT200 32-byte minimum plus the paper's
/// hypothetical 16-byte and 4-byte memory systems (Figure 11).
pub const GRANULARITIES: [u32; 3] = [32, 16, 4];

/// Index of the real GT200 granularity in [`GRANULARITIES`].
pub const GRAN_GT200: usize = 0;

/// Transaction count and bytes moved under one coalescing granularity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GmemGranStats {
    /// Hardware transactions issued.
    pub transactions: u64,
    /// Bytes moved (transaction sizes summed).
    pub bytes: u64,
}

/// Dynamic statistics for one synchronization stage (the intervals between
/// `bar.sync` instructions, paper §3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageStats {
    /// Warp-level dynamic instruction counts per Table 1 class.
    pub instr_by_class: [u64; 4],
    /// Warp-level `mad.f32` count (the paper's "actual computation"
    /// instructions in the matmul/SpMV studies).
    pub fmad: u64,
    /// Floating-point operations actually executed (lane-level, masked
    /// lanes excluded).
    pub flops: u64,
    /// Shared-memory **half-warp transactions** after bank-conflict
    /// serialization. Divide by 2 for the paper's warp-equivalent unit
    /// ([`StageStats::smem_warp_equiv`]).
    pub smem_half_txns: u64,
    /// Half-warp transactions a conflict-free shared memory would need
    /// (the "no bank conflicts" series of paper Figure 7b).
    pub smem_half_accesses: u64,
    /// Warp-level instructions that touched shared memory.
    pub smem_instrs: u64,
    /// Half-warp transactions from shared-memory *atomics* after
    /// same-address/same-bank serialization. Also included in
    /// [`StageStats::smem_half_txns`] (atomics occupy the shared-memory
    /// pipeline); kept separately so the analysis can attribute
    /// serialization to contention rather than ordinary bank conflicts.
    pub atomic_half_txns: u64,
    /// Half-warp transactions a contention-free atomic unit would need
    /// (one per active half-warp — the privatized/padded ideal).
    pub atomic_half_accesses: u64,
    /// Warp-level atomic instructions.
    pub atomic_instrs: u64,
    /// Global-memory statistics per [`GRANULARITIES`] entry.
    pub gmem: [GmemGranStats; 3],
    /// Bytes the lanes actually asked for (coalescing-independent).
    pub gmem_requested_bytes: u64,
    /// Warp-level instructions that touched global memory.
    pub gmem_instrs: u64,
    /// Warp-level barrier arrivals ending this stage.
    pub barriers: u64,
    /// Warps (summed over blocks) that issued at least one instruction in
    /// this stage.
    pub warps_any: u64,
    /// Warps (summed over blocks) that issued at least one shared-memory
    /// access in this stage — the paper's per-step warp parallelism for the
    /// Figure 7a bandwidth lookup.
    pub warps_smem: u64,
    /// Warps (summed over blocks) that issued at least one shared-memory
    /// atomic in this stage.
    pub warps_atomic: u64,
}

impl StageStats {
    /// Total warp-level instructions.
    pub fn instr_total(&self) -> u64 {
        self.instr_by_class.iter().sum()
    }

    /// Count for one instruction class.
    pub fn instr(&self, class: InstrClass) -> u64 {
        self.instr_by_class[class.index()]
    }

    /// Shared-memory transactions in the paper's warp-equivalent unit
    /// (conflict-free full-warp access = 1.0).
    pub fn smem_warp_equiv(&self) -> f64 {
        self.smem_half_txns as f64 / 2.0
    }

    /// Conflict-free warp-equivalent transactions.
    pub fn smem_warp_equiv_no_conflicts(&self) -> f64 {
        self.smem_half_accesses as f64 / 2.0
    }

    /// Bank-conflict penalty: actual transactions over conflict-free
    /// transactions (1.0 = conflict-free).
    pub fn bank_conflict_factor(&self) -> f64 {
        if self.smem_half_accesses == 0 {
            1.0
        } else {
            self.smem_half_txns as f64 / self.smem_half_accesses as f64
        }
    }

    /// Shared-memory atomic transactions in the paper's warp-equivalent
    /// unit (contention-free full-warp atomic = 1.0).
    pub fn atomic_warp_equiv(&self) -> f64 {
        self.atomic_half_txns as f64 / 2.0
    }

    /// Atomic-contention penalty: serialized transactions over the
    /// contention-free count (1.0 = no same-word or same-bank collisions).
    pub fn atomic_contention_factor(&self) -> f64 {
        if self.atomic_half_accesses == 0 {
            1.0
        } else {
            self.atomic_half_txns as f64 / self.atomic_half_accesses as f64
        }
    }

    /// Coalescing efficiency under granularity index `g`: requested bytes
    /// over transferred bytes (1.0 = perfectly coalesced).
    pub fn coalesce_efficiency(&self, g: usize) -> f64 {
        if self.gmem[g].bytes == 0 {
            1.0
        } else {
            self.gmem_requested_bytes as f64 / self.gmem[g].bytes as f64
        }
    }

    /// Computational density: the fraction of issued instructions doing
    /// "actual computation" (MADs), paper §5.1/§5.3.
    pub fn computational_density(&self) -> f64 {
        let total = self.instr_total();
        if total == 0 {
            0.0
        } else {
            self.fmad as f64 / total as f64
        }
    }

    /// Accumulate another stage's counts into this one.
    ///
    /// This is the **cross-stage** combination used by
    /// [`DynamicStats::total`]: the per-step warp-parallelism gauges
    /// `warps_any`/`warps_smem` take the *maximum* (a program's peak
    /// parallelism, not a sum over its stages). To combine the same stage
    /// from disjoint block shards use [`StageStats::merge_blocks`].
    pub fn merge(&mut self, other: &StageStats) {
        self.add_counts(other);
        self.warps_any = self.warps_any.max(other.warps_any);
        self.warps_smem = self.warps_smem.max(other.warps_smem);
        self.warps_atomic = self.warps_atomic.max(other.warps_atomic);
    }

    /// Combine the same stage observed over **disjoint sets of blocks**
    /// (the parallel engine's shard merge): every field is additive,
    /// including `warps_any`/`warps_smem`, which are defined as warps
    /// *summed over blocks*.
    pub fn merge_blocks(&mut self, other: &StageStats) {
        self.add_counts(other);
        self.warps_any += other.warps_any;
        self.warps_smem += other.warps_smem;
        self.warps_atomic += other.warps_atomic;
    }

    fn add_counts(&mut self, other: &StageStats) {
        for i in 0..4 {
            self.instr_by_class[i] += other.instr_by_class[i];
        }
        self.fmad += other.fmad;
        self.flops += other.flops;
        self.smem_half_txns += other.smem_half_txns;
        self.smem_half_accesses += other.smem_half_accesses;
        self.smem_instrs += other.smem_instrs;
        self.atomic_half_txns += other.atomic_half_txns;
        self.atomic_half_accesses += other.atomic_half_accesses;
        self.atomic_instrs += other.atomic_instrs;
        for g in 0..3 {
            self.gmem[g].transactions += other.gmem[g].transactions;
            self.gmem[g].bytes += other.gmem[g].bytes;
        }
        self.gmem_requested_bytes += other.gmem_requested_bytes;
        self.gmem_instrs += other.gmem_instrs;
        self.barriers += other.barriers;
    }
}

/// A named global-memory address range for traffic attribution (the paper's
/// Figure 11a separates matrix-entry, column-index, and vector-entry
/// bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// Region name (e.g. `"vector"`).
    pub name: String,
    /// Device base address.
    pub base: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Whether loads from this region go through the texture cache in the
    /// timing simulator.
    pub texture: bool,
    /// Traffic per [`GRANULARITIES`] entry.
    pub gmem: [GmemGranStats; 3],
    /// Bytes requested by lanes from this region.
    pub requested_bytes: u64,
}

impl RegionStats {
    /// Returns `true` if `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.len
    }
}

/// All dynamic statistics of one launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicStats {
    /// Per-stage statistics, aggregated over blocks by stage index.
    pub stages: Vec<StageStats>,
    /// Per-region global traffic attribution.
    pub regions: Vec<RegionStats>,
    /// Blocks executed.
    pub blocks: u64,
    /// Warps per block.
    pub warps_per_block: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl DynamicStats {
    /// Sum of all stages.
    pub fn total(&self) -> StageStats {
        let mut t = StageStats::default();
        for s in &self.stages {
            t.merge(s);
        }
        t
    }

    /// Fold the statistics of a **disjoint block shard** into this one
    /// (the parallel engine's deterministic merge): stages combine
    /// index-wise via [`StageStats::merge_blocks`], per-region traffic is
    /// summed, and `blocks` accumulates. Both sides must come from the
    /// same launch (same region definitions and block shape).
    ///
    /// # Panics
    ///
    /// Panics if the region lists disagree, which indicates the shards
    /// came from differently configured simulators.
    pub fn merge_shard(&mut self, other: &DynamicStats) {
        if self.stages.len() < other.stages.len() {
            self.stages
                .resize(other.stages.len(), StageStats::default());
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.merge_blocks(theirs);
        }
        assert_eq!(
            self.regions.len(),
            other.regions.len(),
            "shard region lists differ"
        );
        for (mine, theirs) in self.regions.iter_mut().zip(&other.regions) {
            assert_eq!(mine.name, theirs.name, "shard region lists differ");
            for g in 0..3 {
                mine.gmem[g].transactions += theirs.gmem[g].transactions;
                mine.gmem[g].bytes += theirs.gmem[g].bytes;
            }
            mine.requested_bytes += theirs.requested_bytes;
        }
        self.blocks += other.blocks;
        self.warps_per_block = other.warps_per_block;
        self.threads_per_block = other.threads_per_block;
    }
}

/// How a trace entry's destination becomes ready (selects the latency the
/// timing simulator applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DstLatency {
    /// Ready after the arithmetic pipeline.
    Alu,
    /// Ready after the shared-memory pipeline.
    Smem,
    /// Ready when all global transactions complete.
    Gmem,
}

/// One warp-level instruction in a timing trace, spelled out.
///
/// A [`BlockTrace`] does not store these per instruction: its skeleton
/// table holds each distinct one once, with `smem_half_txns: 0` and
/// `gmem: None`, and each [`Step`] adds the two dynamic fields back.
/// Hand-built traces are written as entries and interned by
/// [`BlockTrace::from_entries`].
///
/// Register identifiers 0–127 are general registers; 128–131 are the four
/// predicate registers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceEntry {
    /// Table 1 class (sets issue-port occupancy).
    pub class: InstrClass,
    /// First destination register id, plus count (0 = no destination).
    pub dst: u8,
    /// Number of destination registers written.
    pub dst_n: u8,
    /// Source register ids (`0xFF` padding beyond `nsrcs`).
    pub srcs: [u8; 8],
    /// Number of valid entries in `srcs`.
    pub nsrcs: u8,
    /// Which pipeline produces the destination value.
    pub dst_lat: DstLatency,
    /// Shared-memory half-warp transactions this instruction generates
    /// (0 = does not touch shared memory).
    pub smem_half_txns: u16,
    /// Coalesced global transactions (GT200 granularity), if any.
    pub gmem: Option<Box<[Transaction]>>,
    /// `true` for global loads (destination waits on memory).
    pub gmem_load: bool,
    /// `true` for `bar.sync`.
    pub bar: bool,
}

/// One traced warp instruction: its skeleton's index in
/// [`BlockTrace::skeletons`] plus the two fields that depend on the
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index of the instruction's skeleton.
    pub id: u32,
    /// Shared-memory half-warp transactions after bank-conflict
    /// serialization (0 = does not touch shared memory).
    pub smem_half_txns: u16,
    /// Coalesced global transactions this step appended to
    /// [`WarpTrace::txns`] (0 = no global access, or a fully masked one).
    pub ntx: u16,
}

/// One warp's trace: its steps, and the global transactions of all its
/// steps back to back, in step order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpTrace {
    /// The warp's instructions in issue order.
    pub steps: Vec<Step>,
    /// Step `k`'s transactions follow those of steps `0..k`.
    pub txns: Vec<Transaction>,
}

/// Per-warp instruction traces of one block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockTrace {
    /// The distinct instruction skeletons the steps name. Equal skeletons
    /// share one id, and a functional simulator gives every block it
    /// traces the same table.
    pub skeletons: Arc<[TraceEntry]>,
    /// One trace per warp.
    pub warps: Vec<WarpTrace>,
}

/// Intern `entries` as skeletons (`smem_half_txns: 0`, `gmem: None`):
/// the table of distinct ones in order of first appearance, and each
/// entry's id in it.
pub(crate) fn intern(
    entries: impl IntoIterator<Item = TraceEntry>,
) -> (Arc<[TraceEntry]>, Vec<u32>) {
    let mut table = Vec::new();
    let mut index = HashMap::new();
    let ids = entries
        .into_iter()
        .map(|mut e| {
            e.smem_half_txns = 0;
            e.gmem = None;
            *index.entry(e).or_insert_with_key(|e| {
                table.push(e.clone());
                table.len() as u32 - 1
            })
        })
        .collect();
    (table.into(), ids)
}

impl BlockTrace {
    /// A trace from spelled-out entries, one list per warp. Skeletons are
    /// interned as [`crate::FunctionalSim`] interns them.
    ///
    /// # Panics
    ///
    /// Panics if an entry carries more than `u16::MAX` transactions.
    pub fn from_entries(warps: Vec<Vec<TraceEntry>>) -> BlockTrace {
        let (skeletons, ids) = intern(warps.iter().flatten().cloned());
        let mut ids = ids.into_iter();
        let warps = warps
            .into_iter()
            .map(|entries| {
                let mut w = WarpTrace::default();
                for e in entries {
                    let txns = e.gmem.as_deref().unwrap_or_default();
                    w.steps.push(Step {
                        id: ids.next().expect("one id per entry"),
                        smem_half_txns: e.smem_half_txns,
                        ntx: u16::try_from(txns.len()).expect("at most u16::MAX transactions"),
                    });
                    w.txns.extend_from_slice(txns);
                }
                w
            })
            .collect();
        BlockTrace { skeletons, warps }
    }

    /// Total traced warp-instructions.
    pub fn len(&self) -> usize {
        self.warps.iter().map(|w| w.steps.len()).sum()
    }

    /// Returns `true` if no instructions were traced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether two block traces replay identically on a non-texture
    /// timing simulation: equal skeletons, conflict weights and
    /// transaction counts and sizes at every step, but not transaction
    /// base addresses, which legitimately differ between blocks of a
    /// perfectly homogeneous grid (each block walks its own slice of
    /// memory). This is the homogeneity test behind
    /// [`crate::TraceBlocks::Replay`]: a block shape-equal to an earlier
    /// one can be timed from that block's trace, and a grid whose blocks
    /// are all shape-equal from block 0's trace alone.
    ///
    /// Ids are compared, so traces whose tables differ are never
    /// shape-equal; traces from one simulator share a table.
    pub fn shape_eq(&self, other: &BlockTrace) -> bool {
        (Arc::ptr_eq(&self.skeletons, &other.skeletons) || self.skeletons == other.skeletons)
            && self.warps.len() == other.warps.len()
            && self.warps.iter().zip(&other.warps).all(|(a, b)| {
                a.steps == b.steps
                    && a.txns.len() == b.txns.len()
                    && a.txns.iter().zip(&b.txns).all(|(x, y)| x.size == y.size)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = StageStats::default();
        a.instr_by_class[1] = 10;
        a.fmad = 4;
        let mut b = StageStats::default();
        b.instr_by_class[1] = 5;
        b.smem_half_txns = 8;
        b.smem_half_accesses = 2;
        a.merge(&b);
        assert_eq!(a.instr(InstrClass::TypeII), 15);
        assert_eq!(a.smem_warp_equiv(), 4.0);
        assert_eq!(a.bank_conflict_factor(), 4.0);
    }

    #[test]
    fn merge_blocks_sums_warp_gauges() {
        let mut a = StageStats {
            warps_any: 4,
            warps_smem: 2,
            ..Default::default()
        };
        let b = StageStats {
            warps_any: 3,
            warps_smem: 5,
            ..Default::default()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!((m.warps_any, m.warps_smem), (4, 5)); // cross-stage: max
        a.merge_blocks(&b);
        assert_eq!((a.warps_any, a.warps_smem), (7, 7)); // shards: sum
    }

    #[test]
    fn merge_shard_is_stagewise_and_additive() {
        let region = |n: u64| RegionStats {
            name: "r".into(),
            base: 0,
            len: 64,
            texture: false,
            gmem: [GmemGranStats {
                transactions: n,
                bytes: 32 * n,
            }; 3],
            requested_bytes: 4 * n,
        };
        let stage = |instrs: u64, warps: u64| StageStats {
            instr_by_class: [instrs, 0, 0, 0],
            warps_any: warps,
            ..Default::default()
        };
        let mut a = DynamicStats {
            stages: vec![stage(3, 2)],
            regions: vec![region(1)],
            blocks: 2,
            warps_per_block: 2,
            threads_per_block: 64,
        };
        let b = DynamicStats {
            stages: vec![stage(5, 4), stage(7, 4)],
            regions: vec![region(10)],
            blocks: 3,
            warps_per_block: 2,
            threads_per_block: 64,
        };
        a.merge_shard(&b);
        assert_eq!(a.blocks, 5);
        assert_eq!(a.stages.len(), 2);
        assert_eq!(a.stages[0].instr(InstrClass::TypeI), 8);
        assert_eq!(a.stages[0].warps_any, 6);
        assert_eq!(a.stages[1].instr(InstrClass::TypeI), 7);
        assert_eq!(a.regions[0].gmem[0].transactions, 11);
        assert_eq!(a.regions[0].requested_bytes, 44);
    }

    #[test]
    #[should_panic(expected = "shard region lists differ")]
    fn merge_shard_rejects_mismatched_regions() {
        let mut a = DynamicStats::default();
        let b = DynamicStats {
            regions: vec![RegionStats {
                name: "x".into(),
                base: 0,
                len: 4,
                texture: false,
                gmem: Default::default(),
                requested_bytes: 0,
            }],
            ..Default::default()
        };
        a.merge_shard(&b);
    }

    #[test]
    fn density_and_efficiency() {
        let mut s = StageStats::default();
        s.instr_by_class[1] = 10;
        s.fmad = 8;
        s.gmem[0] = GmemGranStats {
            transactions: 2,
            bytes: 64,
        };
        s.gmem_requested_bytes = 32;
        assert!((s.computational_density() - 0.8).abs() < 1e-12);
        assert!((s.coalesce_efficiency(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = StageStats::default();
        assert_eq!(s.instr_total(), 0);
        assert_eq!(s.bank_conflict_factor(), 1.0);
        assert_eq!(s.coalesce_efficiency(0), 1.0);
        assert_eq!(s.computational_density(), 0.0);
    }

    #[test]
    fn dynamic_total_sums_stages() {
        let mut d = DynamicStats::default();
        let mut s1 = StageStats::default();
        s1.instr_by_class[0] = 3;
        let mut s2 = StageStats::default();
        s2.instr_by_class[0] = 4;
        d.stages = vec![s1, s2];
        assert_eq!(d.total().instr(InstrClass::TypeI), 7);
    }

    #[test]
    fn a_step_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Step>(), 8);
    }

    /// Two warps, each a load through register `src` with one
    /// transaction of `size` bytes per entry of `bases`, then a shared
    /// access of weight `smem`.
    fn entries(bases: &[u64], size: u32, src: u8, smem: u16) -> Vec<Vec<TraceEntry>> {
        let mut srcs = [0xFF; 8];
        srcs[0] = src;
        let load = TraceEntry {
            class: InstrClass::TypeII,
            dst: 2,
            dst_n: 1,
            srcs,
            nsrcs: 1,
            dst_lat: DstLatency::Gmem,
            smem_half_txns: 0,
            gmem: Some(
                bases
                    .iter()
                    .map(|&base| Transaction { base, size })
                    .collect(),
            ),
            gmem_load: true,
            bar: false,
        };
        let shared = TraceEntry {
            dst_lat: DstLatency::Smem,
            smem_half_txns: smem,
            gmem: None,
            gmem_load: false,
            ..load.clone()
        };
        vec![vec![load, shared]; 2]
    }

    #[test]
    fn shape_eq_ignores_bases_only() {
        let a = BlockTrace::from_entries(entries(&[0, 64], 32, 1, 2));
        assert_eq!(a.len(), 4);
        assert_eq!(a.skeletons.len(), 2);
        assert_eq!(a.warps[0].steps[0].ntx, 2);
        assert_eq!(a.warps[0].txns.len(), 2);
        let moved = BlockTrace::from_entries(entries(&[4096, 8192], 32, 1, 2));
        assert!(a.shape_eq(&moved) && moved.shape_eq(&a));
        assert!(a.shape_eq(&a.clone()));
        for (other, what) in [
            (entries(&[0, 64], 32, 3, 2), "source register"),
            (entries(&[0, 64], 32, 1, 4), "shared weight"),
            (entries(&[0], 32, 1, 2), "transaction count"),
            (entries(&[0, 64], 64, 1, 2), "transaction size"),
        ] {
            let b = BlockTrace::from_entries(other);
            assert!(!a.shape_eq(&b) && !b.shape_eq(&a), "{what}");
        }
        let mut fewer = a.clone();
        fewer.warps.pop();
        assert!(!a.shape_eq(&fewer), "warp count");
    }

    #[test]
    fn from_entries_interns_skeletons() {
        let warps = entries(&[0], 32, 1, 2);
        let t = BlockTrace::from_entries(warps.clone());
        // Both warps name the same two skeletons, stored without their
        // dynamic fields.
        assert_eq!(t.warps[0].steps, t.warps[1].steps);
        assert_eq!(t.skeletons[0].gmem, None);
        assert_eq!(t.skeletons[1].smem_half_txns, 0);
        let step = t.warps[0].steps[1];
        assert_eq!((step.smem_half_txns, step.ntx), (2, 0));
        assert_eq!(t.warps[1].txns, warps[1][0].gmem.as_deref().unwrap());
    }

    #[test]
    fn region_contains() {
        let r = RegionStats {
            name: "x".into(),
            base: 100,
            len: 50,
            texture: false,
            gmem: Default::default(),
            requested_bytes: 0,
        };
        assert!(r.contains(100));
        assert!(r.contains(149));
        assert!(!r.contains(150));
        assert!(!r.contains(99));
    }
}
