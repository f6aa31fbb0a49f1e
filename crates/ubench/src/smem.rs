//! Shared-memory bandwidth microbenchmark (paper §4.2, Figure 2 right).
//!
//! The benchmark "repeatedly moves data from one shared memory region to
//! another": each thread load/stores 4-byte words between two conflict-free
//! regions. The load→store chain exposes the shared-memory pipeline
//! latency, which is longer than the ALU's — the paper's observation that
//! shared memory "needs more parallel warps to cover its latency".

use crate::instr::launch_for_warps;
use gpa_hw::{KernelResources, Machine};
use gpa_isa::builder::{BuildError, KernelBuilder};
use gpa_isa::instr::{CmpOp, MemAddr, NumTy, Pred, Src, Width};
use gpa_isa::Kernel;
use gpa_sim::{FunctionalSim, GlobalMemory, LaunchConfig};

/// Number of load+store slot pairs per loop iteration. High enough that
/// loop bookkeeping is negligible next to the memory instructions.
pub const UNROLL: u32 = 32;

/// Build the copy kernel: per iteration, [`UNROLL`] dependent
/// load-then-store pairs between two 2 KB regions, conflict-free stride-1
/// addressing.
///
/// # Errors
///
/// Propagates builder errors.
pub fn kernel(iters: u32, threads: u32) -> Result<Kernel, BuildError> {
    let mut b = KernelBuilder::new("ub_smem_copy");
    b.set_threads(threads);
    let region_words: u32 = 512;
    let src_off = b.smem_alloc(region_words * 4, 4)? as i32;
    let dst_off = b.smem_alloc(region_words * 4, 4)? as i32;

    let counter = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    let tid = b.alloc_reg()?;
    let v0 = b.alloc_reg()?;
    let v1 = b.alloc_reg()?;
    b.mov_imm(counter, 0);
    b.s2r(tid, gpa_isa::instr::SpecialReg::TidX);
    // Byte address of the thread's word within a 64-word window; each
    // unroll slot shifts the window so the whole region is touched while
    // every access stays stride-1 across the half-warp (conflict-free)
    // and inside the region.
    b.and(addr, Src::Reg(tid), Src::Imm(63));
    b.shl(addr, Src::Reg(addr), Src::Imm(2));

    b.label("loop");
    // Pairs of independent load/store chains (ILP 2): the natural way to
    // write a fast copy at the native level, and what keeps some
    // memory-level parallelism per warp, as real copy kernels have.
    for pair in 0..UNROLL / 2 {
        let b0 = (pair * 2 * 64 % (region_words - 64)) as i32 * 4;
        let b1 = ((pair * 2 + 1) * 64 % (region_words - 64)) as i32 * 4;
        b.ld_shared(v0, MemAddr::new(Some(addr), src_off + b0), Width::B32);
        b.ld_shared(v1, MemAddr::new(Some(addr), src_off + b1), Width::B32);
        b.st_shared(MemAddr::new(Some(addr), dst_off + b0), v0, Width::B32);
        b.st_shared(MemAddr::new(Some(addr), dst_off + b1), v1, Width::B32);
    }
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

/// Measure sustained shared-memory bandwidth at `warps_per_sm`, in
/// bytes/second over the whole GPU (each warp-level access moves 128 B).
///
/// # Panics
///
/// Panics if kernel construction or simulation fails.
pub fn measure(machine: &Machine, warps_per_sm: u32, iters: u32) -> f64 {
    let (launch, _) = launch_for_warps(machine, warps_per_sm);
    let threads = launch.threads_per_block();
    let k = kernel(iters, threads).expect("smem microbenchmark kernel");
    let res = KernelResources::new(8, k.resources.smem_per_block, threads);
    let seconds = crate::replay_block0(machine, &k, launch, &[], &mut GlobalMemory::new(), res);

    let accesses = 2u64
        * u64::from(UNROLL)
        * u64::from(iters)
        * u64::from(launch.warps_per_block(machine))
        * u64::from(launch.num_blocks());
    let bytes = accesses * u64::from(machine.warp_access_bytes());
    bytes as f64 / seconds
}

/// One full-grid copy launch for correctness checking (returns the
/// functional statistics).
#[doc(hidden)]
pub fn functional_stats(machine: &Machine, warps_per_sm: u32, iters: u32) -> gpa_sim::DynamicStats {
    let (launch, _) = launch_for_warps(machine, warps_per_sm);
    let k = kernel(iters, launch.threads_per_block()).unwrap();
    let mut gmem = GlobalMemory::new();
    let sim = FunctionalSim::new(
        machine,
        &k,
        LaunchConfig::new_1d(1, launch.threads_per_block()),
    )
    .unwrap();
    sim.run(&mut gmem).unwrap().stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_are_conflict_free() {
        let m = Machine::gtx285();
        let stats = functional_stats(&m, 8, 4);
        let t = stats.total();
        assert_eq!(t.bank_conflict_factor(), 1.0);
        // 2 accesses × UNROLL × iters × warps.
        assert_eq!(t.smem_instrs, 2 * u64::from(UNROLL) * 4 * 8);
    }

    #[test]
    fn bandwidth_saturates_below_theoretical_peak() {
        let m = Machine::gtx285();
        let bw32 = measure(&m, 16, 12);
        let peak = m.peak_shared_bandwidth();
        assert!(
            bw32 < peak,
            "sustained {bw32:.3e} must stay below peak {peak:.3e}"
        );
        assert!(bw32 > 0.6 * peak, "sustained {bw32:.3e} too far below peak");
    }

    #[test]
    fn needs_more_warps_than_the_instruction_pipeline() {
        // Paper §4.2: the shared-memory pipeline is longer, so at the
        // instruction pipeline's saturation point (6 warps) shared memory
        // is still well below its own plateau.
        let m = Machine::gtx285();
        let at6 = measure(&m, 6, 12);
        let at16 = measure(&m, 16, 12);
        assert!(
            at6 < 0.85 * at16,
            "6 warps {at6:.3e} should be below 85% of 16-warp {at16:.3e}"
        );
    }

    #[test]
    fn bandwidth_increases_with_warps() {
        let m = Machine::gtx285();
        let mut last = 0.0;
        for w in [1u32, 2, 4, 8, 16] {
            let bw = measure(&m, w, 10);
            assert!(
                bw > last * 0.98,
                "bw({w}) = {bw:.3e} not ≳ bw(prev) {last:.3e}"
            );
            last = bw;
        }
    }
}
