//! Synthetic global-memory benchmark (paper §4.3, Figure 3).
//!
//! The paper found global bandwidth too complex for a closed-form model
//! and instead *runs a synthetic benchmark with the same configuration* —
//! the same number of blocks, block size, and memory transactions per
//! thread — and reads the bandwidth off that. This module is that
//! instrument: a streaming, fully-coalesced read kernel parameterized by
//! `(blocks, threads_per_block, transactions_per_thread)`.

use gpa_hw::{KernelResources, Machine};
use gpa_isa::builder::{BuildError, KernelBuilder};
use gpa_isa::instr::{CmpOp, MemAddr, NumTy, Pred, SpecialReg, Src, Width};
use gpa_isa::Kernel;
use gpa_sim::{GlobalMemory, LaunchConfig};

/// Benchmark shape: the three factors paper §4.3 identifies as what global
/// bandwidth is sensitive to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GmemConfig {
    /// Number of blocks.
    pub blocks: u32,
    /// Threads per block.
    pub threads: u32,
    /// 4-byte loads per thread.
    pub trans_per_thread: u32,
}

impl GmemConfig {
    /// Convenience constructor.
    pub fn new(blocks: u32, threads: u32, trans_per_thread: u32) -> GmemConfig {
        GmemConfig {
            blocks,
            threads,
            trans_per_thread,
        }
    }

    /// Total bytes read by the whole launch.
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.blocks) * u64::from(self.threads) * u64::from(self.trans_per_thread) * 4
    }
}

/// Build the streaming-read kernel: grid-strided, fully coalesced 4-byte
/// loads, unrolled ×4 for memory-level parallelism (×2 when fewer
/// transactions are requested).
///
/// # Errors
///
/// Propagates builder errors.
pub fn kernel(cfg: GmemConfig) -> Result<Kernel, BuildError> {
    let unroll = if cfg.trans_per_thread.is_multiple_of(4) {
        4
    } else if cfg.trans_per_thread.is_multiple_of(2) {
        2
    } else {
        1
    };
    let iters = cfg.trans_per_thread / unroll;

    let mut b = KernelBuilder::new("ub_gmem_stream");
    b.set_threads(cfg.threads);
    let buf_p = b.param_alloc();

    let counter = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    let tid = b.alloc_reg()?;
    let tmp = b.alloc_reg()?;
    b.mov_imm(counter, 0);
    // addr = buf + 4 * (ctaid * ntid + tid)
    b.s2r(tid, SpecialReg::TidX);
    b.s2r(addr, SpecialReg::CtaIdX);
    b.s2r(tmp, SpecialReg::NTidX);
    b.imad(addr, Src::Reg(addr), Src::Reg(tmp), Src::Reg(tid));
    b.shl(addr, Src::Reg(addr), Src::Imm(2));
    b.ld_param(tmp, buf_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    // Stride between a thread's consecutive accesses: the whole grid row.
    let stride = b.alloc_reg()?;
    b.mov_imm(stride, cfg.blocks * cfg.threads * 4 * unroll);

    let dsts: Vec<_> = (0..unroll)
        .map(|_| b.alloc_reg())
        .collect::<Result<_, _>>()?;
    b.label("loop");
    for (j, d) in dsts.iter().enumerate() {
        let off = (j as u32 * cfg.blocks * cfg.threads * 4) as i32;
        b.ld_global(*d, MemAddr::new(Some(addr), off), Width::B32);
    }
    b.iadd(addr, Src::Reg(addr), Src::Reg(stride));
    b.iadd(counter, Src::Reg(counter), Src::Imm(1));
    b.setp(
        Pred(0),
        CmpOp::Lt,
        NumTy::S32,
        Src::Reg(counter),
        Src::Imm(iters as i32),
    );
    b.bra_if(Pred(0), false, "loop");
    b.exit();
    b.finish()
}

/// Run the synthetic benchmark and return the sustained bandwidth in
/// bytes/second.
///
/// # Panics
///
/// Panics if kernel construction or simulation fails.
pub fn measure(machine: &Machine, cfg: GmemConfig) -> f64 {
    let k = kernel(cfg).expect("gmem microbenchmark kernel");
    let launch = LaunchConfig::new_1d(cfg.blocks, cfg.threads);
    let mut gmem = GlobalMemory::new();
    let buf = gmem.alloc(cfg.total_bytes().max(4), 128);
    let res = KernelResources::new(12, 0, cfg.threads);
    let seconds = crate::replay_block0(machine, &k, launch, &[buf as u32], &mut gmem, res);
    cfg.total_bytes() as f64 / seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_sim::FunctionalSim;

    #[test]
    fn kernel_counts_loads_exactly() {
        let m = Machine::gtx285();
        let cfg = GmemConfig::new(2, 64, 8);
        let k = kernel(cfg).unwrap();
        let mut gmem = GlobalMemory::new();
        let buf = gmem.alloc(cfg.total_bytes(), 128);
        let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(2, 64)).unwrap();
        sim.set_params(&[buf as u32]);
        let out = sim.run(&mut gmem).unwrap();
        let t = out.stats.total();
        assert_eq!(t.gmem_requested_bytes, cfg.total_bytes());
        // Fully coalesced: bytes moved equal bytes requested.
        assert_eq!(t.gmem[0].bytes, cfg.total_bytes());
    }

    #[test]
    fn saturated_config_approaches_effective_peak() {
        let m = Machine::gtx285();
        // Paper Figure 3: 512 threads × 256 transactions saturates around
        // 120–130 GB/s once blocks cover the clusters.
        let bw = measure(&m, GmemConfig::new(30, 512, 64));
        let effective = m.peak_global_bandwidth() * 0.8;
        assert!(
            bw > 0.75 * effective && bw <= 1.02 * effective,
            "bw {:.1} GB/s vs effective peak {:.1} GB/s",
            bw / 1e9,
            effective / 1e9
        );
    }

    #[test]
    fn tiny_config_is_latency_limited() {
        let m = Machine::gtx285();
        // Paper Figure 3: 512T, 2M stays an order of magnitude below peak.
        let bw = measure(&m, GmemConfig::new(4, 512, 2));
        assert!(
            bw < 0.35 * m.peak_global_bandwidth(),
            "bw {:.1} GB/s",
            bw / 1e9
        );
    }

    #[test]
    fn multiples_of_ten_blocks_are_efficient() {
        // The sawtooth: 15 blocks leave half the clusters with double work,
        // so 20 blocks (same work per cluster everywhere) has strictly
        // better efficiency per block.
        let m = Machine::gtx285();
        let bw15 = measure(&m, GmemConfig::new(15, 256, 32));
        let bw20 = measure(&m, GmemConfig::new(20, 256, 32));
        assert!(
            bw20 > bw15 * 1.15,
            "bw20 {:.1} GB/s should clearly beat bw15 {:.1} GB/s",
            bw20 / 1e9,
            bw15 / 1e9
        );
    }

    #[test]
    fn bandwidth_grows_with_blocks_below_saturation() {
        let m = Machine::gtx285();
        let bw1 = measure(&m, GmemConfig::new(1, 128, 32));
        let bw5 = measure(&m, GmemConfig::new(5, 128, 32));
        let bw10 = measure(&m, GmemConfig::new(10, 128, 32));
        assert!(bw5 > 3.0 * bw1, "bw5 {bw5:.3e} vs bw1 {bw1:.3e}");
        assert!(bw10 > 1.5 * bw5, "bw10 {bw10:.3e} vs bw5 {bw5:.3e}");
    }
}
