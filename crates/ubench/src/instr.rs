//! Instruction-pipeline microbenchmarks (paper §4.1, Figure 2 left).
//!
//! For each Table 1 class, the benchmark kernel runs a register-dependent
//! chain of that instruction, unrolled inside a counted loop. Dependent
//! chains expose the pipeline latency; sweeping the number of resident
//! warps per SM then traces out the saturation curve, whose knee reveals
//! the pipeline depth (the paper reads ~6 stages off the Type II curve).

use gpa_hw::{InstrClass, KernelResources, Machine};
use gpa_isa::builder::{BuildError, KernelBuilder};
use gpa_isa::instr::{CmpOp, NumTy, Pred, Src};
use gpa_isa::Kernel;
use gpa_sim::{GlobalMemory, LaunchConfig};

/// Build the microbenchmark kernel for one instruction class.
///
/// The loop body is `unroll` copies of a dependent instruction of `class`;
/// the loop runs `iters` times. `threads` is the block size.
///
/// # Errors
///
/// Propagates builder errors (register exhaustion for absurd parameters).
pub fn kernel(
    class: InstrClass,
    unroll: u32,
    iters: u32,
    threads: u32,
) -> Result<Kernel, BuildError> {
    let mut b = KernelBuilder::new(format!("ub_instr_{class:?}"));
    b.set_threads(threads);
    let counter = b.alloc_reg()?;
    b.mov_imm(counter, 0);

    // Class-specific operand setup.
    let x = b.alloc_reg()?;
    let one = b.alloc_reg()?;
    let zero = b.alloc_reg()?;
    b.mov_imm_f32(x, 1.0);
    b.mov_imm_f32(one, 1.0);
    b.mov_imm_f32(zero, 0.0);
    // Double-precision pair operands (kept at 1.0 and 0.0).
    let (dx, dzero) = if class == InstrClass::TypeIV {
        let dx = b.alloc_contig(2)?;
        let dz = b.alloc_contig(2)?;
        let bits = 1.0f64.to_bits();
        b.mov_imm(dx, bits as u32);
        b.mov_imm(gpa_isa::Reg(dx.0 + 1), (bits >> 32) as u32);
        b.mov_imm(dz, 0);
        b.mov_imm(gpa_isa::Reg(dz.0 + 1), 0);
        (dx, dz)
    } else {
        (x, x)
    };

    b.label("loop");
    for _ in 0..unroll {
        match class {
            // x = x * 1.0 — dependent Type I chain.
            InstrClass::TypeI => {
                b.fmul(x, Src::Reg(x), Src::Reg(one));
            }
            // x = x * 1.0 + 0.0 — dependent MAD chain.
            InstrClass::TypeII => {
                b.fmad(x, Src::Reg(x), Src::Reg(one), Src::Reg(zero));
            }
            // x = 1 / x — dependent SFU chain (stable at 1.0).
            InstrClass::TypeIII => {
                b.rcp(x, Src::Reg(x));
            }
            // dx = dx + 0.0 — dependent double chain.
            InstrClass::TypeIV => {
                b.dadd(dx, dx, dzero);
            }
        }
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

/// Launch shape placing exactly `warps_per_sm` warps on every SM.
///
/// Up to 16 warps fit one block per SM; beyond that two blocks per SM are
/// used (so odd counts above 16 round up to the next even count).
pub fn launch_for_warps(machine: &Machine, warps_per_sm: u32) -> (LaunchConfig, u32) {
    let max_warps_block = machine.max_threads_per_block / machine.warp_size;
    if warps_per_sm <= max_warps_block {
        (
            LaunchConfig::new_1d(machine.num_sms, warps_per_sm * machine.warp_size),
            warps_per_sm,
        )
    } else {
        let per_block = warps_per_sm.div_ceil(2);
        (
            LaunchConfig::new_1d(machine.num_sms * 2, per_block * machine.warp_size),
            per_block * 2,
        )
    }
}

/// Measure the sustained throughput of `class` at `warps_per_sm`, in
/// warp-instructions/second over the whole GPU (counting only the chain
/// instructions, not loop bookkeeping — as a hardware microbenchmark
/// would).
///
/// # Panics
///
/// Panics if kernel construction or simulation fails (these are
/// fixed-shape kernels; failure indicates a bug).
pub fn measure(
    machine: &Machine,
    class: InstrClass,
    warps_per_sm: u32,
    unroll: u32,
    iters: u32,
) -> f64 {
    let (launch, _) = launch_for_warps(machine, warps_per_sm);
    let threads = launch.threads_per_block();
    let k = kernel(class, unroll, iters, threads).expect("microbenchmark kernel");
    // Resources: declare enough so the requested blocks per SM are resident.
    let res = KernelResources::new(8, 0, threads);
    let seconds = crate::replay_block0(machine, &k, launch, &[], &mut GlobalMemory::new(), res);

    let chain_ops = u64::from(unroll)
        * u64::from(iters)
        * u64::from(launch.warps_per_block(machine))
        * u64::from(launch.num_blocks());
    chain_ops as f64 / seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_shape() {
        let k = kernel(InstrClass::TypeII, 8, 10, 64).unwrap();
        // setup(4) + 8 chain + 3 loop + exit.
        assert_eq!(k.len(), 4 + 8 + 3 + 1);
    }

    #[test]
    fn launch_shapes() {
        let m = Machine::gtx285();
        let (l, w) = launch_for_warps(&m, 4);
        assert_eq!((l.num_blocks(), l.threads_per_block(), w), (30, 128, 4));
        let (l, w) = launch_for_warps(&m, 24);
        assert_eq!((l.num_blocks(), l.threads_per_block(), w), (60, 384, 24));
        let (l, w) = launch_for_warps(&m, 32);
        assert_eq!((l.num_blocks(), l.threads_per_block(), w), (60, 512, 32));
    }

    #[test]
    fn type_ii_saturates_near_paper_value() {
        // Paper §5.1: sustained MAD throughput ≈ 9.3 G warp-instr/s at high
        // occupancy (84% of the 11.1 G/s theoretical peak).
        let m = Machine::gtx285();
        let thr = measure(&m, InstrClass::TypeII, 16, 32, 20);
        assert!(
            (8.0e9..10.0e9).contains(&thr),
            "throughput {:.3} G/s",
            thr / 1e9
        );
    }

    #[test]
    fn low_warp_counts_underutilize() {
        let m = Machine::gtx285();
        let t1 = measure(&m, InstrClass::TypeII, 1, 32, 20);
        let t6 = measure(&m, InstrClass::TypeII, 6, 32, 20);
        // 1 warp is latency-bound: far below the 6-warp saturation point.
        assert!(t1 < 0.35 * t6, "t1 {t1:.3e} vs t6 {t6:.3e}");
    }

    #[test]
    fn class_ordering_matches_table1() {
        let m = Machine::gtx285();
        let at16: Vec<f64> = InstrClass::ALL
            .iter()
            .map(|c| measure(&m, *c, 16, 16, 10))
            .collect();
        assert!(
            at16[0] > at16[1],
            "Type I ({:.2e}) > Type II ({:.2e})",
            at16[0],
            at16[1]
        );
        assert!(at16[1] > at16[2], "Type II > Type III");
        assert!(at16[2] > at16[3], "Type III > Type IV");
    }
}
