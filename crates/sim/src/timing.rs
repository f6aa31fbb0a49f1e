//! The timing simulator: a coarse cycle-level GTX 285.
//!
//! This is the workspace's stand-in for the paper's physical GPU. It
//! replays per-warp instruction traces (produced by the functional
//! simulator) through:
//!
//! * an **issue/ALU port** per SM — every instruction occupies it for
//!   `warp_size / functional_units(class) + issue_overhead` cycles, which
//!   reproduces the Table 1 throughput ratios and the ≈84%-of-peak
//!   saturation the paper measures;
//! * a **shared-memory port** per SM — 2 cycles per half-warp transaction,
//!   so bank conflicts serialize exactly as §4.2 describes, with a longer
//!   pipeline latency than the ALU (the paper's Figure 2 observation);
//! * a **scoreboard** per warp — in-order issue, register-ready times,
//!   so warp-level parallelism is the only latency-hiding mechanism, as on
//!   real GT200 (paper §4.1);
//! * a **cluster memory pipeline** — 3 SMs share one pipe (GT200 TPC);
//!   each pipe gets 1/10 of the (efficiency-derated) DRAM bandwidth. Blocks
//!   are scheduled to clusters round-robin, which produces the paper's
//!   Figure 3 sawtooth of period 10;
//! * an optional per-cluster **texture cache** for address ranges marked as
//!   texture-bound (Figure 12's `+Cache` variants);
//! * an occupancy-limited **block scheduler**.
//!
//! Calibration constants live in [`TimingConfig::gt200`], each documented
//! on its field; they are fitted to the paper's Figure 2–3 curves.

use crate::engine::{par_map, Threads};
use crate::grid::LaunchConfig;
use crate::stats::{BlockTrace, DstLatency};
use gpa_hw::{occupancy, KernelResources, Machine};
use gpa_mem::texcache::TexCache;
use std::sync::Arc;

/// Calibrated timing parameters (cycles at the shader clock).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingConfig {
    /// ALU pipeline depth: results ready this many cycles after issue.
    pub alu_latency: f64,
    /// Extra port occupancy per issued instruction (scheduler friction;
    /// calibrates sustained Type II throughput to ≈ 9.3 of 11.1 G/s).
    pub issue_overhead: f64,
    /// Shared-memory pipeline depth (longer than the ALU; Figure 2 right).
    pub smem_latency: f64,
    /// Shared-memory port occupancy per half-warp transaction.
    pub smem_cycles_per_half_txn: f64,
    /// Global-memory latency after the transaction is serviced.
    pub gmem_latency: f64,
    /// Fraction of theoretical DRAM bandwidth sustainable in practice.
    pub dram_efficiency: f64,
    /// Fixed cluster-pipe occupancy per transaction (penalizes many small
    /// transactions beyond their byte cost).
    pub gmem_txn_overhead: f64,
    /// Extra issue-stage occupancy per serialized half-warp transaction
    /// beyond the conflict-free two (bank-conflict replay).
    pub smem_replay_cycles: f64,
    /// Latency of a texture-cache hit.
    pub tex_hit_latency: f64,
    /// Cycles between the last warp arriving at a barrier and release.
    pub barrier_latency: f64,
    /// Cycles to launch a fresh block onto a freed SM slot.
    pub block_launch_latency: f64,
}

impl TimingConfig {
    /// Calibration against the paper's published curves (Figures 2–3).
    pub fn gt200() -> TimingConfig {
        TimingConfig {
            alu_latency: 24.0,
            issue_overhead: 0.75,
            smem_latency: 84.0,
            smem_cycles_per_half_txn: 2.0,
            gmem_latency: 500.0,
            dram_efficiency: 0.8,
            gmem_txn_overhead: 1.0,
            smem_replay_cycles: 5.0,
            tex_hit_latency: 40.0,
            barrier_latency: 8.0,
            block_launch_latency: 100.0,
        }
    }
}

/// Where block traces come from, and so how much of the chip
/// [`TimingSim::run`] replays.
///
/// Homogeneous grids (every block runs the same instruction stream with the
/// same conflict degrees and transaction shapes — matmul, the tridiagonal
/// solver, the microbenchmarks) share one trace. Data-dependent kernels
/// provide per-block traces.
pub enum TraceSource {
    /// Every block replays the same trace. The replay simulates only the
    /// most-loaded cluster (cluster 0) and scales from it: every cluster
    /// that got blocks reports cluster 0's time, and the aggregate
    /// counters scale by `blocks / cluster-0 blocks` (exactly, in integer
    /// arithmetic, for the integer counters).
    Homogeneous(Arc<BlockTrace>),
    /// `traces[b]` is block `b`'s trace. The replay simulates every
    /// cluster.
    PerBlock(Vec<Arc<BlockTrace>>),
}

impl TraceSource {
    /// A [`TraceSource::PerBlock`] from already-collected traces in
    /// block-id order — the bridge from a functional run
    /// ([`crate::FunctionalSim::run`], whose sharded form concatenates its
    /// ranges' traces in block order) to the timing replay.
    pub fn from_blocks(traces: Vec<BlockTrace>) -> TraceSource {
        TraceSource::PerBlock(traces.into_iter().map(Arc::new).collect())
    }

    /// Trace entries a replay of every cluster walks; `None` for a
    /// homogeneous source, which replays one cluster and never shards.
    fn work(&self) -> Option<u64> {
        match self {
            TraceSource::Homogeneous(_) => None,
            TraceSource::PerBlock(v) => Some(
                v.iter()
                    .flat_map(|b| &b.warps)
                    .map(|w| w.len() as u64)
                    .sum(),
            ),
        }
    }

    fn fetch(&self, block: u32) -> Arc<BlockTrace> {
        match self {
            TraceSource::Homogeneous(t) => Arc::clone(t),
            TraceSource::PerBlock(v) => Arc::clone(&v[block as usize]),
        }
    }
}

impl std::fmt::Debug for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSource::Homogeneous(_) => f.write_str("TraceSource::Homogeneous"),
            TraceSource::PerBlock(v) => write!(f, "TraceSource::PerBlock({} blocks)", v.len()),
        }
    }
}

/// Output of a timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingResult {
    /// End-to-end kernel cycles (max over clusters).
    pub cycles: f64,
    /// `cycles` at the shader clock.
    pub seconds: f64,
    /// Completion time of each simulated cluster.
    pub per_cluster_cycles: Vec<f64>,
    /// Warp-instructions issued.
    pub issued: u64,
    /// Sum of issue-port busy cycles across simulated SMs.
    pub alu_busy: f64,
    /// Sum of shared-memory-port busy cycles across simulated SMs.
    pub smem_busy: f64,
    /// Sum of cluster-pipe busy cycles across simulated clusters.
    pub pipe_busy: f64,
    /// Global bytes moved through the cluster pipes.
    pub gmem_bytes: u64,
    /// Texture-cache hit rate (0 when no texture regions configured).
    pub tex_hit_rate: f64,
}

impl TimingResult {
    /// Achieved global-memory bandwidth in bytes/second.
    pub fn global_bandwidth(&self) -> f64 {
        if self.seconds > 0.0 {
            self.gmem_bytes as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// The timing simulator. One instance per machine + calibration.
#[derive(Debug, Clone)]
pub struct TimingSim<'m> {
    machine: &'m Machine,
    config: TimingConfig,
    tex_regions: Vec<(u64, u64)>,
    threads: Threads,
}

impl<'m> TimingSim<'m> {
    /// A timing simulator with the GT200 calibration ([`TimingConfig::gt200`]).
    pub fn new(machine: &'m Machine) -> TimingSim<'m> {
        TimingSim {
            machine,
            config: TimingConfig::gt200(),
            tex_regions: Vec::new(),
            threads: Threads::sequential(),
        }
    }

    /// Address ranges whose loads go through the per-cluster texture cache.
    pub fn set_texture_regions(&mut self, regions: Vec<(u64, u64)>) -> &mut Self {
        self.tex_regions = regions;
        self
    }

    /// Shard cluster replay across this many worker threads (clusters are
    /// fully independent — own SMs, own shared-memory port, own memory
    /// pipe, own texture cache). The default is the sequential walk, like
    /// [`crate::FunctionalSim`]; the options layers above default to
    /// auto. Output is bit-identical for every thread count: outcomes are
    /// merged in cluster-id order.
    pub fn set_threads(&mut self, threads: Threads) -> &mut Self {
        self.threads = threads;
        self
    }

    /// Timing parameters in use.
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// Replay a launch and return its simulated time.
    ///
    /// `resources` determines occupancy (resident blocks per SM) exactly as
    /// paper Table 2 computes it. The source decides how much is replayed:
    /// one cluster, scaled to the chip, for [`TraceSource::Homogeneous`];
    /// every cluster for [`TraceSource::PerBlock`].
    ///
    /// # Panics
    ///
    /// Panics if traces are inconsistent (warps of one block disagree on
    /// barrier counts), which indicates a bug in trace generation.
    pub fn run(
        &self,
        source: &TraceSource,
        launch: &LaunchConfig,
        resources: KernelResources,
    ) -> TimingResult {
        let _span = gpa_telemetry::PhaseSpan::start(gpa_telemetry::phase::TIMING_REPLAY);
        let nclusters = self.machine.num_clusters();
        let nblocks = launch.num_blocks();
        let occ = occupancy(self.machine, resources);
        assert!(occ.blocks > 0, "kernel does not fit on an SM");

        let uniform = matches!(source, TraceSource::Homogeneous(_));
        let simulate: Vec<u32> = if uniform {
            // The first cluster always has the most blocks.
            vec![0]
        } else {
            (0..nclusters).collect()
        };

        let outcomes = self.run_clusters(&simulate, source, nblocks, occ.blocks);

        // Deterministic merge: fold outcomes in cluster-id order (the
        // `simulate` list is ascending and the parallel path returns one
        // outcome per entry, in order), so the f64 accumulation below is
        // the same sum in the same order for every thread count.
        let mut per_cluster = vec![0.0f64; nclusters as usize];
        let mut issued = 0u64;
        let mut alu_busy = 0.0;
        let mut smem_busy = 0.0;
        let mut pipe_busy = 0.0;
        let mut gmem_bytes = 0u64;
        let mut tex_hits = 0u64;
        let mut tex_total = 0u64;

        for (&c, r) in simulate.iter().zip(&outcomes) {
            per_cluster[c as usize] = r.end;
            issued += r.issued;
            alu_busy += r.alu_busy;
            smem_busy += r.smem_busy;
            pipe_busy += r.pipe_busy;
            gmem_bytes += r.gmem_bytes;
            tex_hits += r.tex_hits;
            tex_total += r.tex_total;
        }

        if uniform {
            // Unsimulated clusters take at most as long as cluster 0.
            let t0 = per_cluster[0];
            for (c, slot) in per_cluster.iter_mut().enumerate().skip(1) {
                // Round-robin assignment: cluster c got blocks iff c < nblocks.
                *slot = if (c as u32) < nblocks { t0 } else { 0.0 };
            }
            // Scale aggregate counters to the whole chip. Integer counters
            // scale exactly in integer arithmetic (`issued * nblocks` fits
            // u128 comfortably) — on a grid that divides evenly across
            // clusters this is exact, with no float round-trip.
            let q0 = ClusterQueue::new(0, nclusters, nblocks).len().max(1);
            issued = (u128::from(issued) * u128::from(nblocks) / q0 as u128) as u64;
            gmem_bytes = (u128::from(gmem_bytes) * u128::from(nblocks) / q0 as u128) as u64;
            let scale = f64::from(nblocks) / q0 as f64;
            alu_busy *= scale;
            smem_busy *= scale;
            pipe_busy *= scale;
        }

        let cycles = per_cluster.iter().cloned().fold(0.0, f64::max);
        TimingResult {
            cycles,
            seconds: cycles / self.machine.clock_hz,
            per_cluster_cycles: per_cluster,
            issued,
            alu_busy,
            smem_busy,
            pipe_busy,
            gmem_bytes,
            tex_hit_rate: if tex_total == 0 {
                0.0
            } else {
                tex_hits as f64 / tex_total as f64
            },
        }
    }

    /// Replay `simulate`'s clusters across the configured worker threads,
    /// returning one [`ClusterOutcome`] per entry, in order. A per-block
    /// source below [`crate::engine::GRAIN`] entries replays on the
    /// caller's thread under [`Threads::Auto`].
    ///
    /// Clusters share nothing (the paper's TPC: private SMs, shared-memory
    /// ports, memory pipe, texture cache), so each cluster replays on its
    /// own and [`par_map`] returns exactly the sequence the sequential walk
    /// would produce.
    fn run_clusters(
        &self,
        simulate: &[u32],
        source: &TraceSource,
        nblocks: u32,
        blocks_per_sm: u32,
    ) -> Vec<ClusterOutcome> {
        let nclusters = self.machine.num_clusters();
        par_map(
            simulate,
            self.threads.workers_for(source.work()),
            |_, &c| {
                let queue = ClusterQueue::new(c, nclusters, nblocks);
                self.run_cluster(queue, source, blocks_per_sm)
            },
        )
    }

    /// The SM's earliest-issuable warp: minimum issue time over resident
    /// warps, ties broken by loose round-robin distance from the SM's
    /// rotation pointer (greedy earliest-first alone phase-locks warps
    /// into convoys and lets the port idle; GT200 schedulers rotate).
    ///
    /// This scan is the definition of the pick, and the exact fallback of
    /// [`SmState::pick`], which answers the same question from per-slot
    /// state without touching every warp. The fold below is order
    /// dependent: a near tie (`|t - bt| < 1e-9`) goes to the smaller
    /// distance, so a chain of values 0.6e-9 apart, or equal values past
    /// 2^24 cycles (where `x + 1e-9 == x`), resolve by scan order, and
    /// only a scan reproduces them.
    ///
    /// Selection reads only SM-local state (`alu_free`, `smem_free`,
    /// `rotate`, warp scoreboards) — never the shared cluster pipe — which
    /// is what lets [`Self::run_cluster`] cache this result per SM and
    /// recompute it only for the SM that last issued.
    fn sm_best(sm: &SmState) -> Option<Candidate> {
        let total: usize = sm.blocks.iter().map(|b| b.warps.len()).sum();
        let mut sm_best: Option<Candidate> = None;
        let mut flat = 0usize;
        for (bi, blk) in sm.blocks.iter().enumerate() {
            for (wi, w) in blk.warps.iter().enumerate() {
                let idx = flat;
                flat += 1;
                if w.done() || w.waiting {
                    continue;
                }
                let e = &blk.trace.warps[wi][w.cursor];
                let mut t = w.ready.max(sm.alu_free);
                if e.smem_half_txns > 0 {
                    t = t.max(sm.smem_free);
                }
                for s in 0..usize::from(e.nsrcs) {
                    t = t.max(w.reg_ready[usize::from(e.srcs[s])]);
                }
                let dist = (idx + total - sm.rotate % total.max(1)) % total.max(1);
                let better = match sm_best {
                    None => true,
                    Some((_, _, bt, bdist)) => t < bt - 1e-9 || (t < bt + 1e-9 && dist < bdist),
                };
                if better {
                    sm_best = Some((bi, wi, t, dist));
                }
            }
        }
        sm_best
    }

    fn run_cluster(
        &self,
        queue: ClusterQueue,
        source: &TraceSource,
        blocks_per_sm: u32,
    ) -> ClusterOutcome {
        let cfg = &self.config;
        let m = self.machine;
        let nsms = m.sms_per_cluster as usize;
        let bytes_per_cycle = m.peak_global_bandwidth() * cfg.dram_efficiency
            / f64::from(m.num_clusters())
            / m.clock_hz;

        let mut sms: Vec<SmState> = (0..nsms).map(|_| SmState::default()).collect();
        let mut pipe_free = 0.0f64;
        let mut tex = TexCache::gt200_tpc();
        let mut next_block = 0usize;
        let mut out = ClusterOutcome::default();
        // Retired blocks donate their warp scoreboards back to a pool so
        // admitting a fresh block does not reallocate.
        let mut warp_pool: Vec<Vec<WarpRun>> = Vec::new();

        // Initial fill, round-robin across the cluster's SMs.
        'fill: for _ in 0..blocks_per_sm {
            for sm in sms.iter_mut() {
                if next_block >= queue.len() {
                    break 'fill;
                }
                let trace = source.fetch(queue.get(next_block));
                sm.blocks.push(BlockRun::new(trace, 0.0, &mut warp_pool));
                next_block += 1;
            }
        }
        for sm in &mut sms {
            sm.rebuild_slots();
        }

        // Incremental issue scheduling: every event that can change an
        // SM's best candidate — issuing (alu_free/smem_free/rotate/
        // scoreboard updates), barrier release, block retirement, block
        // admission — happens on the SM that issues this iteration, so
        // only that SM's cached candidate is recomputed. The global pick
        // below compares cached candidates in SM index order with strict
        // `t < bt`, exactly the order and tie-break of a full rescan.
        let mut cached: Vec<Option<Candidate>> = vec![None; nsms];
        let mut dirty: Vec<bool> = vec![true; nsms];

        loop {
            let mut best: Option<(usize, usize, usize, f64)> = None;
            for si in 0..nsms {
                if dirty[si] {
                    cached[si] = sms[si].pick();
                    dirty[si] = false;
                }
                if let Some((bi, wi, t, _dist)) = cached[si] {
                    if best.is_none_or(|(_, _, _, bt)| t < bt) {
                        best = Some((si, bi, wi, t));
                    }
                }
            }

            let Some((si, bi, wi, t)) = best else {
                // No issuable warp: every resident warp is done or waiting.
                let any_waiting = sms
                    .iter()
                    .any(|sm| sm.blocks.iter().any(|b| b.warps.iter().any(|w| w.waiting)));
                assert!(!any_waiting, "barrier deadlock in timing replay");
                break;
            };

            // Issue. Everything below mutates only SM `si` (plus the
            // cluster-shared pipe/texture state, which selection ignores),
            // so only `si`'s cached candidate is invalidated.
            dirty[si] = true;
            let sm = &mut sms[si];
            let slot = sm.slots.first[bi] + wi;
            sm.rotate = slot + 1;
            let BlockRun {
                trace,
                warps,
                arrived,
                unfinished,
            } = &mut sm.blocks[bi];
            let e = &trace.warps[wi][warps[wi].cursor];
            out.issued += 1;

            // Bank-conflicted shared accesses are replayed through the
            // issue stage (one slot per serialized half-warp transaction),
            // which is what makes conflict-heavy kernels shared-memory
            // bound on GT200 (paper §5.2). A conflict-free access
            // (2 half-warp transactions) fits the normal issue slot.
            let base_occ = f64::from(m.warp_size) / f64::from(m.fus(e.class)) + cfg.issue_overhead;
            let occ_cycles = if e.smem_half_txns > 2 {
                base_occ + cfg.smem_replay_cycles * f64::from(e.smem_half_txns - 2)
            } else {
                base_occ
            };
            sm.alu_free = t + occ_cycles;
            out.alu_busy += occ_cycles;

            let mut data_ready = t + cfg.alu_latency;
            if e.smem_half_txns > 0 {
                let occ_smem = cfg.smem_cycles_per_half_txn * f64::from(e.smem_half_txns);
                let start = sm.smem_free.max(t);
                sm.smem_free = start + occ_smem;
                out.smem_busy += occ_smem;
                data_ready = start + occ_smem + cfg.smem_latency;
            }
            if let Some(txs) = &e.gmem {
                let mut last = t;
                for tx in txs.iter() {
                    let is_tex = self
                        .tex_regions
                        .iter()
                        .any(|(b, l)| tx.base >= *b && tx.base < b + l);
                    if is_tex {
                        out.tex_total += 1;
                        if tex.access(tx.base) {
                            out.tex_hits += 1;
                            last = last.max(t + cfg.tex_hit_latency);
                            continue;
                        }
                    }
                    let start = pipe_free.max(t);
                    let service = f64::from(tx.size) / bytes_per_cycle + cfg.gmem_txn_overhead;
                    pipe_free = start + service;
                    out.pipe_busy += service;
                    out.gmem_bytes += u64::from(tx.size);
                    last = last.max(start + service + cfg.gmem_latency);
                    out.end = out.end.max(start + service + cfg.gmem_latency);
                }
                if e.gmem_load {
                    data_ready = last;
                }
            }

            let w = &mut warps[wi];
            w.ready = t + occ_cycles;
            if e.dst_n > 0 {
                let ready = match e.dst_lat {
                    DstLatency::Alu => t + cfg.alu_latency,
                    DstLatency::Smem | DstLatency::Gmem => data_ready,
                };
                for k in 0..usize::from(e.dst_n) {
                    w.reg_ready[usize::from(e.dst) + k] = ready;
                }
            }
            w.cursor += 1;
            if w.done() {
                *unfinished -= 1;
            }
            out.end = out.end.max(w.ready);

            let mut released = false;
            if e.bar {
                w.waiting = true;
                *arrived += 1;
                // Warps that already finished their whole trace no longer
                // participate in barriers (GT200 semantics for exited
                // threads).
                if *arrived >= *unfinished {
                    let release = t + cfg.barrier_latency;
                    for w in warps.iter_mut() {
                        if w.waiting {
                            w.waiting = false;
                            w.ready = w.ready.max(release);
                        }
                    }
                    *arrived = 0;
                    released = true;
                }
            }

            // Block completion → admit the next queued block to this SM.
            if *unfinished == 0 {
                let done_at = warps.iter().map(|w| w.ready).fold(t, f64::max);
                let mut retired = sm.blocks.swap_remove(bi);
                retired.warps.clear();
                warp_pool.push(retired.warps);
                if next_block < queue.len() {
                    let trace = source.fetch(queue.get(next_block));
                    next_block += 1;
                    sm.blocks.push(BlockRun::new(
                        trace,
                        done_at + cfg.block_launch_latency,
                        &mut warp_pool,
                    ));
                }
                sm.rebuild_slots();
            } else if released {
                let first = sm.slots.first[bi];
                for i in first..first + sm.blocks[bi].warps.len() {
                    sm.refresh_slot(i);
                }
            } else {
                sm.refresh_slot(slot);
            }
        }

        out.end = out.end.max(pipe_free).max(
            sms.iter()
                .map(|s| s.alu_free.max(s.smem_free))
                .fold(0.0, f64::max),
        );
        out
    }
}

/// An SM-local issue candidate: `(block index, warp index, issue time,
/// round-robin distance)`.
type Candidate = (usize, usize, f64, usize);

/// A cluster's block queue under round-robin assignment (paper Figure 3):
/// cluster `c` runs blocks `c, c + nclusters, c + 2·nclusters, …` — pure
/// arithmetic, so nothing is materialized per cluster.
#[derive(Debug, Clone, Copy)]
struct ClusterQueue {
    first: u32,
    stride: u32,
    len: usize,
}

impl ClusterQueue {
    fn new(cluster: u32, nclusters: u32, nblocks: u32) -> ClusterQueue {
        debug_assert!(cluster < nclusters);
        let len = if nblocks > cluster {
            ((nblocks - cluster - 1) / nclusters + 1) as usize
        } else {
            0
        };
        ClusterQueue {
            first: cluster,
            stride: nclusters,
            len,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        self.first + i as u32 * self.stride
    }
}

#[derive(Debug, Default)]
struct ClusterOutcome {
    end: f64,
    issued: u64,
    alu_busy: f64,
    smem_busy: f64,
    pipe_busy: f64,
    gmem_bytes: u64,
    tex_hits: u64,
    tex_total: u64,
}

#[derive(Debug, Default)]
struct SmState {
    blocks: Vec<BlockRun>,
    alu_free: f64,
    smem_free: f64,
    /// Loose round-robin pointer over the SM's flattened warp list.
    rotate: usize,
    slots: Slots,
}

/// Per-SM selection state: one slot per resident warp, in the flat order
/// [`TimingSim::sm_best`] scans (`SmState::blocks` order, then warps).
/// Only the warp that issued, a barrier release, or a block admission or
/// retirement changes it. Slots past the 64th have no mask bit; an SM with
/// that many resident warps (more than any preset's `max_warps_per_sm`
/// allows) always scans.
#[derive(Debug, Default)]
struct Slots {
    /// `(block, warp)` of each slot.
    at: Vec<(usize, usize)>,
    /// The first slot of each block.
    first: Vec<usize>,
    /// A live warp's own earliest issue time: its `ready`, maxed with the
    /// `reg_ready` of its next entry's sources.
    own: Vec<f64>,
    /// Warps that are neither done nor waiting at a barrier.
    live: u64,
    /// Live warps whose next entry accesses shared memory.
    smem: u64,
    /// Live warps whose `own` is at or below their floor (see
    /// [`SmState::pick`]).
    ready: u64,
}

impl SmState {
    /// Lay the slots out again, after a block was admitted or retired.
    fn rebuild_slots(&mut self) {
        let s = &mut self.slots;
        s.at.clear();
        s.first.clear();
        for (bi, blk) in self.blocks.iter().enumerate() {
            s.first.push(s.at.len());
            s.at.extend((0..blk.warps.len()).map(|wi| (bi, wi)));
        }
        s.own.clear();
        s.own.resize(s.at.len(), 0.0);
        (s.live, s.smem, s.ready) = (0, 0, 0);
        for i in 0..s.at.len() {
            self.refresh_slot(i);
        }
    }

    /// Recompute slot `i` from its warp, after the warp issued or was
    /// released from a barrier. The slot is no longer ready until
    /// [`Self::pick`] promotes it again.
    fn refresh_slot(&mut self, i: usize) {
        if i >= 64 {
            return;
        }
        let bit = 1u64 << i;
        let s = &mut self.slots;
        s.live &= !bit;
        s.smem &= !bit;
        s.ready &= !bit;
        let (bi, wi) = s.at[i];
        let blk = &self.blocks[bi];
        let w = &blk.warps[wi];
        if w.done() || w.waiting {
            return;
        }
        let e = &blk.trace.warps[wi][w.cursor];
        let mut own = w.ready;
        for &r in &e.srcs[..usize::from(e.nsrcs)] {
            own = own.max(w.reg_ready[usize::from(r)]);
        }
        s.own[i] = own;
        s.live |= bit;
        if e.smem_half_txns > 0 {
            s.smem |= bit;
        }
    }

    /// [`TimingSim::sm_best`]'s answer: from the slots when
    /// [`Self::pick_fast`] can decide it, else from the scan.
    fn pick(&mut self) -> Option<Candidate> {
        if self.slots.at.len() > 64 {
            return TimingSim::sm_best(self);
        }
        if self.slots.live == 0 {
            return None;
        }
        let fast = self.pick_fast();
        debug_assert!(fast.is_none() || fast == TimingSim::sm_best(self));
        fast.or_else(|| TimingSim::sm_best(self))
    }

    /// The scan's pick from the slots, or `None` when only the scan can
    /// tell. Needs at most 64 slots and a live one.
    ///
    /// A slot issues at `max(own, floor)`. The floor is `alu_free`, or
    /// `max(alu_free, smem_free)` for a shared-memory entry; both only
    /// grow. So a slot whose `own` is at or below its floor is *ready*
    /// and stays ready until it issues again: every ready slot issues at
    /// one of the two floors. Promotion walks only the slots that are not
    /// ready. The candidates are then the two ready sets at their floors
    /// and the not-ready slots at their `own`; `m` is their minimum and C
    /// the slots at exactly `m`. The pick is the first C slot in
    /// round-robin order from `rotate`: one shift plus `trailing_zeros`.
    ///
    /// That is the scan's answer when the scan's own float predicates
    /// (`t < bt - 1e-9`, `t < bt + 1e-9`) say so: C's members tie both
    /// ways, every C slot beats every other slot by the first predicate,
    /// and no other slot ties with a C slot by the second. `fl(x ± 1e-9)`
    /// is monotone, so comparing `m` with the smallest other time covers
    /// every pair. Otherwise — a near tie, or `m ≥ 2^24` where
    /// `m + 1e-9 == m` and ties resolve in scan order — the scan decides.
    fn pick_fast(&mut self) -> Option<Candidate> {
        let total = self.slots.at.len();
        debug_assert!(total <= 64 && self.slots.live != 0);
        let s = &mut self.slots;
        let alu_floor = self.alu_free;
        let smem_floor = alu_floor.max(self.smem_free);
        // Promote, and find the two smallest times of the rest.
        let (mut n1, mut n1_mask, mut n2) = (f64::INFINITY, 0u64, f64::INFINITY);
        let mut pending = s.live & !s.ready;
        while pending != 0 {
            let bit = pending & pending.wrapping_neg();
            pending ^= bit;
            let own = s.own[bit.trailing_zeros() as usize];
            let floor = if s.smem & bit != 0 {
                smem_floor
            } else {
                alu_floor
            };
            if own <= floor {
                s.ready |= bit;
            } else if own < n1 {
                (n2, n1, n1_mask) = (n1, own, bit);
            } else if own == n1 {
                n1_mask |= bit;
            } else if own < n2 {
                n2 = own;
            }
        }
        let groups = [
            (alu_floor, s.ready & !s.smem),
            (smem_floor, s.ready & s.smem),
            (n1, n1_mask),
        ];
        let m = groups
            .iter()
            .filter(|&&(_, mask)| mask != 0)
            .fold(f64::INFINITY, |m, &(t, _)| m.min(t));
        let (mut near, mut other) = (0u64, n2);
        for (t, mask) in groups.into_iter().filter(|&(_, mask)| mask != 0) {
            if t == m {
                near |= mask;
            } else {
                other = other.min(t);
            }
        }
        let exact = m < m + 1e-9 && m < other - 1e-9 && other >= m + 1e-9;
        if !exact {
            return None;
        }
        let r = self.rotate % total;
        let late = near & (u64::MAX << r);
        let idx = if late != 0 { late } else { near }.trailing_zeros() as usize;
        let (bi, wi) = s.at[idx];
        Some((bi, wi, m, (idx + total - r) % total))
    }
}

#[derive(Debug)]
struct BlockRun {
    trace: Arc<BlockTrace>,
    warps: Vec<WarpRun>,
    arrived: usize,
    /// Warps that have not finished their trace.
    unfinished: usize,
}

impl BlockRun {
    fn new(trace: Arc<BlockTrace>, start: f64, pool: &mut Vec<Vec<WarpRun>>) -> BlockRun {
        let mut warps = pool.pop().unwrap_or_default();
        debug_assert!(warps.is_empty());
        warps.extend(trace.warps.iter().map(|t| WarpRun {
            len: t.len(),
            cursor: 0,
            ready: start,
            waiting: false,
            reg_ready: [0.0; 132],
        }));
        let unfinished = warps.iter().filter(|w| !w.done()).count();
        BlockRun {
            trace,
            warps,
            arrived: 0,
            unfinished,
        }
    }
}

#[derive(Debug)]
struct WarpRun {
    len: usize,
    cursor: usize,
    ready: f64,
    waiting: bool,
    reg_ready: [f64; 132],
}

impl WarpRun {
    fn done(&self) -> bool {
        self.cursor >= self.len
    }
}

#[cfg(test)]
#[path = "timing_tests.rs"]
mod timing_tests;
