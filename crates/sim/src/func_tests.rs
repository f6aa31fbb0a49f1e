//! Tests for the functional simulator.

use super::*;
use gpa_isa::builder::{BuildError, KernelBuilder};
#[allow(unused_imports)]
use gpa_isa::instr as _instr_mod;
use gpa_isa::instr::{CmpOp, NumTy, Pred, Reg, Src, Width};
use gpa_isa::kernel::ValidateError;

fn machine() -> Machine {
    Machine::gtx285()
}

/// out[global_tid] = global_tid * 3 + 1
fn linear_kernel() -> Kernel {
    let mut b = KernelBuilder::new("linear");
    b.set_threads(64);
    let out_p = b.param_alloc();
    let tid = b.alloc_reg().unwrap();
    let tmp = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    let val = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.s2r(tmp, SpecialReg::CtaIdX);
    b.s2r(addr, SpecialReg::NTidX);
    b.imad(tid, Src::Reg(tmp), Src::Reg(addr), Src::Reg(tid)); // global tid
    b.imul(val, Src::Reg(tid), Src::Imm(3));
    b.iadd(val, Src::Reg(val), Src::Imm(1));
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), val, Width::B32);
    b.exit();
    b.finish().unwrap()
}

#[test]
fn linear_kernel_writes_expected_values() {
    let m = machine();
    let k = linear_kernel();
    let launch = LaunchConfig::new_1d(4, 64);
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(256 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, launch).unwrap();
    sim.set_params(&[out as u32]);
    let res = sim.run(&mut gmem).unwrap();
    for i in 0..256u64 {
        assert_eq!(
            gmem.read_u32(out + i * 4).unwrap(),
            (i * 3 + 1) as u32,
            "index {i}"
        );
    }
    let total = res.stats.total();
    // 11 instructions (incl. exit) × 2 warps × 4 blocks.
    assert_eq!(total.instr_total(), 11 * 2 * 4);
    assert_eq!(res.stats.blocks, 4);
    assert_eq!(res.stats.warps_per_block, 2);
    // The store is one coalesced 64 B transaction per half-warp.
    assert_eq!(total.gmem[GRAN_GT200].transactions, 4 * 4);
    assert_eq!(total.gmem[GRAN_GT200].bytes, 4 * 4 * 64);
    assert_eq!(total.gmem_requested_bytes, 256 * 4);
    assert!((total.coalesce_efficiency(GRAN_GT200) - 1.0).abs() < 1e-12);
}

#[test]
fn loop_accumulates() {
    // acc = Σ_{i<10} i = 45, stored per thread.
    let mut b = KernelBuilder::new("loop");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let acc = b.alloc_reg().unwrap();
    let i = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    b.mov_imm(acc, 0);
    b.mov_imm(i, 0);
    b.label("top");
    b.iadd(acc, Src::Reg(acc), Src::Reg(i));
    b.iadd(i, Src::Reg(i), Src::Imm(1));
    b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(i), Src::Imm(10));
    b.bra_if(Pred(0), false, "top");
    b.s2r(addr, SpecialReg::TidX);
    b.shl(addr, Src::Reg(addr), Src::Imm(2));
    let tmp = b.alloc_reg().unwrap();
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), acc, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(32 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    sim.run(&mut gmem).unwrap();
    assert_eq!(gmem.read_u32(out).unwrap(), 45);
    assert_eq!(gmem.read_u32(out + 31 * 4).unwrap(), 45);
}

#[test]
fn work_estimate_needs_a_loop_free_kernel() {
    let m = machine();
    let k = linear_kernel();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(256 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(4, 64)).unwrap();
    sim.set_params(&[out as u32]);
    // 11 instructions × 2 warps × 4 blocks, which is what the run issues.
    assert_eq!(sim.work_estimate(), Some(11 * 2 * 4));
    let issued = sim.run(&mut gmem).unwrap().stats.total().instr_total();
    assert_eq!(sim.work_estimate(), Some(issued));

    // A forward branch keeps the estimate; a backward one, or a branch
    // to itself, is a loop and has none.
    let branchy = |target: &str| {
        let mut b = KernelBuilder::new("branchy");
        b.set_threads(32);
        let i = b.alloc_reg().unwrap();
        b.mov_imm(i, 0);
        b.label("top");
        b.iadd(i, Src::Reg(i), Src::Imm(1));
        b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(i), Src::Imm(3));
        b.label("self");
        b.bra_if(Pred(0), false, target);
        b.label("end");
        b.exit();
        b.finish().unwrap()
    };
    let launch = LaunchConfig::new_1d(3, 32);
    for (target, expect) in [("end", Some(5 * 3)), ("top", None), ("self", None)] {
        let k = branchy(target);
        let sim = FunctionalSim::new(&m, &k, launch).unwrap();
        assert_eq!(sim.work_estimate(), expect, "branch to {target}");
    }
}

#[test]
fn register_file_covers_every_named_register() {
    for (text, regs) in [
        (".smem 64\n exit\n", 0),
        (".smem 64\n ld.shared.b128 r4, s[0x0]\n exit\n", 8),
        (".smem 64\n st.global.b64 g[r9], r2\n exit\n", 10),
        (".smem 64\n st.global.b128 g[r0], r12\n exit\n", 16),
        (".smem 64\n add.f32 r1, r3, s[0x4]\n exit\n", 4),
    ] {
        let kernel = gpa_isa::asm::parse_kernel(text).unwrap();
        assert_eq!(lane_regs(&kernel), regs, "{text:?}");
    }
}

#[test]
fn divergent_if_else_reconverges() {
    // x = tid < 10 ? 111 : 222; both arms then add 1 after reconvergence.
    let mut b = KernelBuilder::new("diverge");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let tid = b.alloc_reg().unwrap();
    let x = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(tid), Src::Imm(10));
    b.bra_if(Pred(0), false, "then");
    b.mov_imm(x, 222); // else arm
    b.bra("join");
    b.label("then");
    b.mov_imm(x, 111);
    b.label("join");
    b.iadd(x, Src::Reg(x), Src::Imm(1));
    let addr = b.alloc_reg().unwrap();
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    let tmp = b.alloc_reg().unwrap();
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), x, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(32 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    sim.run(&mut gmem).unwrap();
    for i in 0..32u64 {
        let expect = if i < 10 { 112 } else { 223 };
        assert_eq!(gmem.read_u32(out + i * 4).unwrap(), expect, "lane {i}");
    }
}

#[test]
fn nested_divergence() {
    // y = tid < 16 ? (tid < 8 ? 1 : 2) : 3, plus 10 after the join.
    let mut b = KernelBuilder::new("nested");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let tid = b.alloc_reg().unwrap();
    let y = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(tid), Src::Imm(16));
    b.bra_if(Pred(0), false, "outer_then");
    b.mov_imm(y, 3);
    b.bra("outer_join");
    b.label("outer_then");
    b.setp(Pred(1), CmpOp::Lt, NumTy::S32, Src::Reg(tid), Src::Imm(8));
    b.bra_if(Pred(1), false, "inner_then");
    b.mov_imm(y, 2);
    b.bra("outer_join");
    b.label("inner_then");
    b.mov_imm(y, 1);
    b.label("outer_join");
    b.iadd(y, Src::Reg(y), Src::Imm(10));
    let addr = b.alloc_reg().unwrap();
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    let tmp = b.alloc_reg().unwrap();
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), y, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(32 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    sim.run(&mut gmem).unwrap();
    for i in 0..32u64 {
        let expect = if i < 8 {
            11
        } else if i < 16 {
            12
        } else {
            13
        };
        assert_eq!(gmem.read_u32(out + i * 4).unwrap(), expect, "lane {i}");
    }
}

#[test]
fn barrier_stages_split_statistics() {
    // Stage 0: each thread stores tid to shared; barrier; stage 1: read
    // the reversed entry and store to global.
    let mut b = KernelBuilder::new("stages");
    b.set_threads(64);
    let out_p = b.param_alloc();
    let buf = b.smem_alloc(64 * 4, 4).unwrap() as i32;
    let tid = b.alloc_reg().unwrap();
    let a = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.shl(a, Src::Reg(tid), Src::Imm(2));
    b.st_shared(MemAddr::new(Some(a), buf), tid, Width::B32);
    b.bar();
    // rev = (63 - tid) * 4
    let rev = b.alloc_reg().unwrap();
    b.isub(rev, Src::Imm(63), Src::Reg(tid));
    b.shl(rev, Src::Reg(rev), Src::Imm(2));
    let v = b.alloc_reg().unwrap();
    b.ld_shared(v, MemAddr::new(Some(rev), buf), Width::B32);
    let addr = b.alloc_reg().unwrap();
    let tmp = b.alloc_reg().unwrap();
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), v, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(64 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 64)).unwrap();
    sim.set_params(&[out as u32]);
    let res = sim.run(&mut gmem).unwrap();
    for i in 0..64u64 {
        assert_eq!(gmem.read_u32(out + i * 4).unwrap(), 63 - i as u32);
    }
    // Two stages, with the barrier counted in stage 0.
    assert_eq!(res.stats.stages.len(), 2);
    assert_eq!(res.stats.stages[0].barriers, 2); // 2 warps arrived
    assert_eq!(res.stats.stages[0].smem_instrs, 2); // 2 warps × 1 store
    assert_eq!(res.stats.stages[1].smem_instrs, 2); // 2 warps × 1 load
                                                    // Conflict-free accesses: warp-equivalent = instruction count.
    assert_eq!(res.stats.stages[0].smem_warp_equiv(), 2.0);
    assert_eq!(res.stats.stages[0].bank_conflict_factor(), 1.0);
}

#[test]
fn stride_two_shared_access_counts_double_transactions() {
    // Each thread reads s[(2*tid)*4]: classic 2-way bank conflict.
    let mut b = KernelBuilder::new("conflict");
    b.set_threads(32);
    let buf = b.smem_alloc(64 * 4, 4).unwrap() as i32;
    let tid = b.alloc_reg().unwrap();
    let a = b.alloc_reg().unwrap();
    let v = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.shl(a, Src::Reg(tid), Src::Imm(3)); // tid * 8 bytes = stride 2 words
    b.ld_shared(v, MemAddr::new(Some(a), buf), Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    let res = sim.run(&mut gmem).unwrap();
    let t = res.stats.total();
    assert_eq!(t.smem_instrs, 1);
    // 2-way conflict in both half-warps: 4 half-transactions = 2.0
    // warp-equivalents over a conflict-free 1.0.
    assert_eq!(t.smem_half_txns, 4);
    assert_eq!(t.smem_half_accesses, 2);
    assert_eq!(t.bank_conflict_factor(), 2.0);
}

#[test]
fn smem_operand_in_fmad_counts_shared_traffic() {
    let mut b = KernelBuilder::new("smem_operand");
    b.set_threads(32);
    let buf = b.smem_alloc(4, 4).unwrap() as i32;
    let two = b.alloc_reg().unwrap();
    let acc = b.alloc_reg().unwrap();
    b.mov_imm_f32(two, 2.0);
    b.st_shared(MemAddr::new(None, buf), two, Width::B32);
    b.mov_imm_f32(acc, 1.0);
    // acc = acc * s[buf] + acc → 1*2+1 = 3
    b.fmad(acc, Src::Reg(acc), Src::smem(None, buf), Src::Reg(acc));
    let out_p = b.param_alloc();
    let addr = b.alloc_reg().unwrap();
    let tid = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    let tmp = b.alloc_reg().unwrap();
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), acc, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(32 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    let res = sim.run(&mut gmem).unwrap();
    assert_eq!(gmem.read_f32(out).unwrap(), 3.0);
    let t = res.stats.total();
    // One store + one broadcast operand read = 2 shared instructions.
    assert_eq!(t.smem_instrs, 2);
    assert_eq!(t.fmad, 1);
    // FMad = 2 flops × 32 lanes.
    assert_eq!(t.flops, 64);
}

#[test]
fn uncoalesced_loads_need_more_transactions() {
    // Each thread loads a[tid * 32] (stride 128 B): 16 transactions per
    // half-warp at GT200 granularity.
    let mut b = KernelBuilder::new("scatter");
    b.set_threads(32);
    let in_p = b.param_alloc();
    let tid = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    let v = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.shl(addr, Src::Reg(tid), Src::Imm(7)); // ×128
    let base = b.alloc_reg().unwrap();
    b.ld_param(base, in_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(base));
    b.ld_global(v, MemAddr::new(Some(addr), 0), Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let input = gmem.alloc(32 * 128, 128);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[input as u32]);
    sim.add_region("input", input, 32 * 128);
    let res = sim.run(&mut gmem).unwrap();
    let t = res.stats.total();
    assert_eq!(t.gmem[GRAN_GT200].transactions, 32);
    assert_eq!(t.gmem[GRAN_GT200].bytes, 32 * 32);
    assert_eq!(t.gmem_requested_bytes, 32 * 4);
    // 16 B and 4 B granularities move fewer bytes (Figure 11's effect).
    assert_eq!(t.gmem[1].bytes, 32 * 16);
    assert_eq!(t.gmem[2].bytes, 32 * 4);
    // Region attribution captured everything.
    assert_eq!(res.stats.regions[0].gmem[GRAN_GT200].bytes, 32 * 32);
    assert_eq!(res.stats.regions[0].requested_bytes, 32 * 4);
}

#[test]
fn special_registers_reflect_block_and_grid() {
    let mut b = KernelBuilder::new("sr");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let r = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    let tmp = b.alloc_reg().unwrap();
    // r = ctaid.y * 1000 + ctaid.x
    b.s2r(r, SpecialReg::CtaIdY);
    b.imul(r, Src::Reg(r), Src::Imm(1000));
    b.s2r(tmp, SpecialReg::CtaIdX);
    b.iadd(r, Src::Reg(r), Src::Reg(tmp));
    // addr = out + 4*(bid_linear = ctaid.y * nctaid.x + ctaid.x)
    b.s2r(addr, SpecialReg::CtaIdY);
    let w = b.alloc_reg().unwrap();
    b.s2r(w, SpecialReg::NCtaIdX);
    b.imul(addr, Src::Reg(addr), Src::Reg(w));
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.shl(addr, Src::Reg(addr), Src::Imm(2));
    b.ld_param(w, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(w));
    b.st_global(MemAddr::new(Some(addr), 0), r, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(6 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_2d((3, 2), (32, 1))).unwrap();
    sim.set_params(&[out as u32]);
    sim.run(&mut gmem).unwrap();
    for by in 0..2u64 {
        for bx in 0..3u64 {
            let v = gmem.read_u32(out + (by * 3 + bx) * 4).unwrap();
            assert_eq!(v, (by * 1000 + bx) as u32);
        }
    }
}

#[test]
fn partial_warp_masks_inactive_lanes() {
    let m = machine();
    let k = linear_kernel();
    // 40 threads: warp 1 has only 8 live lanes.
    let launch = LaunchConfig::new_2d((1, 1), (40, 1));
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(40 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, launch).unwrap();
    sim.set_params(&[out as u32]);
    let res = sim.run(&mut gmem).unwrap();
    for i in 0..40u64 {
        assert_eq!(gmem.read_u32(out + i * 4).unwrap(), (i * 3 + 1) as u32);
    }
    // Still 2 warps issued (partial warp occupies a whole warp, paper §2).
    assert_eq!(res.stats.total().instr_total(), 11 * 2);
}

#[test]
fn doubles_compute_correctly() {
    let mut b = KernelBuilder::new("dbl");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let a = b.alloc_contig(2).unwrap();
    let c = b.alloc_contig(2).unwrap();
    // a = 1.5 (f64), c = a*a + a = 3.75
    let bits = 1.5f64.to_bits();
    b.mov_imm(a, bits as u32);
    b.mov_imm(Reg(a.0 + 1), (bits >> 32) as u32);
    b.dfma(c, a, a, a);
    let addr = b.alloc_reg().unwrap();
    let tid = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.shl(addr, Src::Reg(tid), Src::Imm(3));
    let tmp = b.alloc_reg().unwrap();
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), c, Width::B64);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(32 * 8, 8);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    let res = sim.run(&mut gmem).unwrap();
    let lo = gmem.read_u32(out).unwrap();
    let hi = gmem.read_u32(out + 4).unwrap();
    assert_eq!(f64::from_bits(u64::from(lo) | (u64::from(hi) << 32)), 3.75);
    // DFma is Type IV.
    assert_eq!(res.stats.total().instr(gpa_hw::InstrClass::TypeIV), 1);
}

#[test]
fn sfu_ops_are_type_iii_and_compute() {
    let mut b = KernelBuilder::new("sfu");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let x = b.alloc_reg().unwrap();
    b.mov_imm_f32(x, 4.0);
    b.rcp(x, Src::Reg(x)); // 0.25
    b.rsq(x, Src::Reg(x)); // 2.0
    let addr = b.alloc_reg().unwrap();
    let tid = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    let tmp = b.alloc_reg().unwrap();
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), x, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(32 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    let res = sim.run(&mut gmem).unwrap();
    assert_eq!(gmem.read_f32(out).unwrap(), 2.0);
    assert_eq!(res.stats.total().instr(gpa_hw::InstrClass::TypeIII), 2);
}

#[test]
fn global_out_of_bounds_reported() {
    let mut b = KernelBuilder::new("oob");
    b.set_threads(32);
    let v = b.alloc_reg().unwrap();
    b.ld_global(v, MemAddr::new(None, 8), Width::B32); // nothing allocated
    b.exit();
    let k = b.finish().unwrap();
    let m = machine();
    let mut gmem = GlobalMemory::new();
    let sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    let err = sim.run(&mut gmem).unwrap_err();
    assert!(matches!(err, SimError::GlobalOutOfBounds { .. }), "{err}");
}

#[test]
fn shared_out_of_bounds_reported() {
    let mut b = KernelBuilder::new("soob");
    b.set_threads(32);
    let _ = b.smem_alloc(16, 4).unwrap();
    let tid = b.alloc_reg().unwrap();
    let a = b.alloc_reg().unwrap();
    let v = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.shl(a, Src::Reg(tid), Src::Imm(2));
    b.ld_shared(v, MemAddr::new(Some(a), 0), Width::B32); // lanes ≥ 4 fault
    b.exit();
    let k = b.finish().unwrap();
    let m = machine();
    let mut gmem = GlobalMemory::new();
    let sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    let err = sim.run(&mut gmem).unwrap_err();
    assert!(matches!(err, SimError::SharedOutOfBounds { .. }), "{err}");
}

#[test]
fn divergent_barrier_reported() {
    let mut b = KernelBuilder::new("divbar");
    b.set_threads(32);
    let tid = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(tid), Src::Imm(16));
    b.bra_if(Pred(0), false, "skip");
    b.bar(); // inside a divergent region
    b.label("skip");
    b.bar();
    b.exit();
    let k = b.finish().unwrap();
    let m = machine();
    let mut gmem = GlobalMemory::new();
    let sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    let err = sim.run(&mut gmem).unwrap_err();
    assert!(matches!(err, SimError::DivergentBarrier { .. }), "{err}");
}

#[test]
fn fuel_guards_infinite_loops() {
    let mut b = KernelBuilder::new("inf");
    b.set_threads(32);
    b.label("top");
    b.nop();
    b.bra("top");
    b.exit();
    let k = b.finish().unwrap();
    let m = machine();
    let mut gmem = GlobalMemory::new();
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_fuel(1000);
    assert_eq!(sim.run(&mut gmem).unwrap_err(), SimError::FuelExhausted);
}

#[test]
fn param_out_of_bounds_reported() {
    let mut b = KernelBuilder::new("p");
    b.set_threads(32);
    let _ = b.param_alloc();
    let r = b.alloc_reg().unwrap();
    b.ld_param(r, 0);
    b.exit();
    let k = b.finish().unwrap();
    let m = machine();
    let mut gmem = GlobalMemory::new();
    let sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    // No params supplied.
    let err = sim.run(&mut gmem).unwrap_err();
    assert_eq!(err, SimError::ParamOutOfBounds { offset: 0 });
}

#[test]
fn traces_record_dependencies_and_memory() {
    let mut b = KernelBuilder::new("trace");
    b.set_threads(32);
    let buf = b.smem_alloc(4 * 32, 4).unwrap() as i32;
    let in_p = b.param_alloc();
    let tid = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    let v = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    let base = b.alloc_reg().unwrap();
    b.ld_param(base, in_p);
    b.iadd(base, Src::Reg(base), Src::Reg(addr));
    b.ld_global(v, MemAddr::new(Some(base), 0), Width::B32);
    b.st_shared(MemAddr::new(Some(addr), buf), v, Width::B32);
    b.bar();
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let input = gmem.alloc(32 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[input as u32]);
    sim.collect_traces(true);
    let res = sim.run(&mut gmem).unwrap();
    let traces = res.traces.unwrap();
    assert_eq!(traces.len(), 1);
    let skeletons = &traces[0].skeletons;
    let warp0 = &traces[0].warps[0];
    // 7 instructions traced (incl. bar, excl. exit).
    assert_eq!(warp0.steps.len(), 7);
    let ld = warp0.steps[4];
    assert!(skeletons[ld.id as usize].gmem_load);
    assert_eq!(skeletons[ld.id as usize].dst_lat, DstLatency::Gmem);
    assert_eq!(ld.ntx, 2); // two coalesced half-warps
    assert_eq!(warp0.txns.len(), 2); // the only global access
    let st = warp0.steps[5];
    assert_eq!(st.smem_half_txns, 2); // conflict-free store
    assert!(skeletons[warp0.steps[6].id as usize].bar);
}

#[test]
fn equal_instructions_share_a_skeleton_id() {
    // `x += 1` at two pcs, and a load at a third.
    let mut b = KernelBuilder::new("twice");
    b.set_threads(64);
    let in_p = b.param_alloc();
    let x = b.alloc_reg().unwrap();
    let base = b.alloc_reg().unwrap();
    b.mov_imm(x, 0);
    b.iadd(x, Src::Reg(x), Src::Imm(1));
    b.iadd(x, Src::Reg(x), Src::Imm(1));
    b.ld_param(base, in_p);
    b.ld_global(x, MemAddr::new(Some(base), 0), Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let input = gmem.alloc(64, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(2, 64)).unwrap();
    sim.set_params(&[input as u32]).collect_traces(true);
    let traces = sim.run(&mut gmem).unwrap().traces.unwrap();
    let steps = &traces[0].warps[0].steps;
    assert_eq!(steps.len(), 5);
    assert_eq!(steps[1].id, steps[2].id);
    assert_ne!(steps[0].id, steps[1].id);
    // Six instructions (the exit is not traced), five distinct
    // skeletons, one table for the grid.
    assert_eq!(traces[0].skeletons.len(), 5);
    assert!(Arc::ptr_eq(&traces[0].skeletons, &traces[1].skeletons));
    // Every lane reads one word: one transaction per half-warp.
    assert_eq!(steps[4].ntx, 2);
    assert_eq!(traces[0].warps[0].txns.len(), 2);
    assert_eq!(traces[0].warps[0].txns[0].base, input);
    assert!(traces[0].shape_eq(&traces[1]));
}

#[test]
fn guarded_exit_retires_lanes_early() {
    // Lanes ≥ 8 exit immediately; the rest store 5.
    let mut b = KernelBuilder::new("gexit");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let tid = b.alloc_reg().unwrap();
    b.s2r(tid, SpecialReg::TidX);
    b.setp(Pred(0), CmpOp::Ge, NumTy::S32, Src::Reg(tid), Src::Imm(8));
    b.set_guard(Pred(0), false);
    b.emit(gpa_isa::instr::Op::Exit);
    b.clear_guard();
    let v = b.alloc_reg().unwrap();
    b.mov_imm(v, 5);
    let addr = b.alloc_reg().unwrap();
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    let tmp = b.alloc_reg().unwrap();
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), v, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(32 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    sim.run(&mut gmem).unwrap();
    for i in 0..32u64 {
        let expect = if i < 8 { 5 } else { 0 };
        assert_eq!(gmem.read_u32(out + i * 4).unwrap(), expect, "lane {i}");
    }
}

#[test]
fn atomic_add_serializes_and_returns_old_values() {
    // Every lane atomically adds 1 to the same shared word; old values
    // (lane order 0..31) go to global memory, the final count to slot 32.
    let mut b = KernelBuilder::new("hotspot");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let one = b.alloc_reg().unwrap();
    let old = b.alloc_reg().unwrap();
    let tid = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    let tmp = b.alloc_reg().unwrap();
    let _slot = b.smem_alloc(4, 4).unwrap();
    b.mov_imm(one, 1);
    b.atom_shared_add(old, MemAddr::new(None, 0), one);
    b.s2r(tid, SpecialReg::TidX);
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), old, Width::B32);
    b.bar();
    // Lane 0 publishes the final counter.
    b.setp(Pred(0), CmpOp::Eq, NumTy::S32, Src::Reg(tid), Src::Imm(0));
    b.set_guard(Pred(0), false);
    b.ld_shared(old, MemAddr::new(None, 0), Width::B32);
    b.st_global(MemAddr::new(Some(addr), 32 * 4), old, Width::B32);
    b.clear_guard();
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(33 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    let res = sim.run(&mut gmem).unwrap();
    for lane in 0..32u64 {
        assert_eq!(gmem.read_u32(out + lane * 4).unwrap(), lane as u32);
    }
    assert_eq!(gmem.read_u32(out + 32 * 4).unwrap(), 32);

    // One warp, all 32 lanes on one word: each half-warp serializes
    // 16-deep → 32 half-warp transactions against 2 contention-free.
    let total = res.stats.total();
    assert_eq!(total.atomic_instrs, 1);
    assert_eq!(total.atomic_half_txns, 32);
    assert_eq!(total.atomic_half_accesses, 2);
    assert_eq!(total.warps_atomic, 1);
    assert!((total.atomic_contention_factor() - 16.0).abs() < 1e-12);
    // The serialized weight also occupies the shared-memory pipeline
    // (the ld.shared above adds its own conflict-free access).
    assert_eq!(total.smem_half_txns, 32 + 1);
    assert_eq!(total.atomic_instrs + 1, total.smem_instrs);
}

#[test]
fn atomic_add_spread_across_banks_is_contention_free() {
    // Lane i increments word i: distinct banks, no serialization.
    let mut b = KernelBuilder::new("spread");
    b.set_threads(32);
    let one = b.alloc_reg().unwrap();
    let old = b.alloc_reg().unwrap();
    let tid = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    let _arr = b.smem_alloc(32 * 4, 4).unwrap();
    b.mov_imm(one, 1);
    b.s2r(tid, SpecialReg::TidX);
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    b.atom_shared_add(old, MemAddr::new(Some(addr), 0), one);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    let res = sim.run(&mut gmem).unwrap();
    let total = res.stats.total();
    assert_eq!(total.atomic_half_txns, 2);
    assert_eq!(total.atomic_half_accesses, 2);
    assert!((total.atomic_contention_factor() - 1.0).abs() < 1e-12);
}

#[test]
fn atomic_cas_takes_only_first_lane() {
    // All lanes CAS(0 -> tid+1) on one word. Lane 0 wins (lane-order
    // serialization); every other lane reads lane 0's value back.
    let mut b = KernelBuilder::new("cas");
    b.set_threads(32);
    let out_p = b.param_alloc();
    let zero = b.alloc_reg().unwrap();
    let val = b.alloc_reg().unwrap();
    let old = b.alloc_reg().unwrap();
    let tid = b.alloc_reg().unwrap();
    let addr = b.alloc_reg().unwrap();
    let tmp = b.alloc_reg().unwrap();
    let _slot = b.smem_alloc(4, 4).unwrap();
    b.mov_imm(zero, 0);
    b.s2r(tid, SpecialReg::TidX);
    b.iadd(val, Src::Reg(tid), Src::Imm(1));
    b.atom_shared_cas(old, MemAddr::new(None, 0), zero, val);
    b.shl(addr, Src::Reg(tid), Src::Imm(2));
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), old, Width::B32);
    b.exit();
    let k = b.finish().unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let out = gmem.alloc(32 * 4, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    sim.set_params(&[out as u32]);
    sim.run(&mut gmem).unwrap();
    assert_eq!(gmem.read_u32(out).unwrap(), 0); // lane 0 saw the initial 0
    for lane in 1..32u64 {
        assert_eq!(gmem.read_u32(out + lane * 4).unwrap(), 1, "lane {lane}");
    }
}

// ---- Masked lanes and fault precedence ----
//
// The datapath computes all 32 lanes of every instruction. These tests pin
// down that lanes outside the execution mask stay invisible whatever they
// hold, and that a faulting access reports exactly the error a lane-order
// interpreter would.

/// Lanes `0..ACTIVE` take the branch body / pass the guard.
const ACTIVE: u32 = 13;
/// Sentinel each result register holds before the body.
const SENTINEL: u32 = 0xDEAD_0000;

/// Poison for the inactive lanes: a shared byte address, a global
/// address, and an operand value.
#[derive(Clone, Copy)]
struct Poison {
    smem: u32,
    gmem: u32,
    value: u32,
}

/// A kernel whose lanes `ACTIVE..32` first load poison into their shared
/// address, global address, and operand registers, then sit out a body of
/// FMad, IMad, SetP, Sel and shared/global loads and stores — masked by a
/// divergent branch, or by a guard predicate on every body instruction.
/// Afterwards every lane writes its result registers (still holding
/// `SENTINEL + k` where the body did not run) through a clean address.
///
/// Params: `[data, out, poison_smem, poison_gmem, poison_value]`. `data`
/// holds 32 input words, then room for the body's 32 stores; `out` holds
/// 6 × 32 result words.
fn masked_body_kernel(guarded: bool) -> Kernel {
    let mut b = KernelBuilder::new("masked_body");
    b.set_threads(32);
    let smem = b.smem_alloc(32 * 4, 4).unwrap() as i32;
    let [data_p, out_p, ps_p, pg_p, pv_p] = [(); 5].map(|_| b.param_alloc());
    let [tid, t4, sa, ga, oa, x, tmp] = [(); 7].map(|_| b.alloc_reg().unwrap());
    let results = [(); 6].map(|_| b.alloc_reg().unwrap());
    let [v, f, i, s, g, sel_p] = results;
    b.s2r(tid, SpecialReg::TidX);
    b.shl(t4, Src::Reg(tid), Src::Imm(2));
    b.iadd(sa, Src::Reg(t4), Src::Imm(smem));
    b.ld_param(tmp, data_p);
    b.iadd(ga, Src::Reg(t4), Src::Reg(tmp));
    b.ld_param(tmp, out_p);
    b.iadd(oa, Src::Reg(t4), Src::Reg(tmp));
    b.i2f(x, Src::Reg(tid));
    b.fadd(x, Src::Reg(x), Src::Imm(0.5f32.to_bits() as i32));
    for (k, reg) in results.iter().enumerate() {
        b.mov_imm(*reg, SENTINEL + k as u32);
    }
    b.setp(
        Pred(0),
        CmpOp::Lt,
        NumTy::S32,
        Src::Reg(tid),
        Src::Imm(ACTIVE as i32),
    );
    // Poison the lanes that sit the body out.
    b.set_guard(Pred(0), true);
    b.ld_param(sa, ps_p);
    b.ld_param(ga, pg_p);
    b.ld_param(x, pv_p);
    b.clear_guard();

    if guarded {
        b.set_guard(Pred(0), false);
    } else {
        b.bra_if(Pred(0), true, "join");
    }
    b.st_shared(MemAddr::new(Some(sa), 0), x, Width::B32);
    b.ld_shared(v, MemAddr::new(Some(sa), 0), Width::B32);
    b.fmad(f, Src::Reg(x), Src::smem(Some(sa), 0), Src::Reg(x));
    b.imad(i, Src::Reg(x), Src::Reg(x), Src::Reg(x));
    b.setp(Pred(1), CmpOp::Lt, NumTy::F32, Src::Reg(x), Src::Reg(f));
    b.sel(s, Pred(1), Src::Reg(x), Src::smem(Some(sa), 0));
    b.ld_global(g, MemAddr::new(Some(ga), 0), Width::B32);
    b.st_global(MemAddr::new(Some(ga), 32 * 4), f, Width::B32);
    if guarded {
        b.clear_guard();
    } else {
        b.label("join");
    }
    b.mov_imm(tmp, 1);
    b.sel(sel_p, Pred(1), Src::Reg(tmp), Src::Imm(0));
    for (k, reg) in results.iter().enumerate() {
        b.st_global(MemAddr::new(Some(oa), k as i32 * 128), *reg, Width::B32);
    }
    b.exit();
    b.finish().unwrap()
}

/// Run `masked_body_kernel` under `poison`, traced, returning stats,
/// traces, and the final memory with its `data`/`out` bases.
fn run_masked(guarded: bool, poison: Poison) -> (RunOutput, GlobalMemory, u64, u64) {
    let m = machine();
    let k = masked_body_kernel(guarded);
    let mut gmem = GlobalMemory::new();
    let inputs: Vec<u32> = (0..64).map(|t| if t < 32 { t * 7 } else { 0 }).collect();
    let data = gmem.alloc_u32(&inputs);
    let out = gmem.alloc(6 * 128, 4);
    let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
    // A zero global poison stands for the data base itself.
    let poison_gmem = if poison.gmem == 0 {
        data as u32
    } else {
        poison.gmem
    };
    sim.set_params(&[
        data as u32,
        out as u32,
        poison.smem,
        poison_gmem,
        poison.value,
    ])
    .add_region("data", data, 64 * 4)
    .collect_traces(true);
    let res = sim.run(&mut gmem).expect("masked lanes never fault");
    (res, gmem, data, out)
}

#[test]
fn inactive_lanes_never_fault_write_or_count() {
    let benign = Poison {
        smem: 0,
        gmem: 0, // replaced by the data base: a valid, aligned address
        value: 1.0f32.to_bits(),
    };
    let poisons = [
        // Out of range, both directions, and misaligned.
        Poison {
            smem: 1 << 20,
            gmem: 8, // below the first allocation
            value: f32::NAN.to_bits(),
        },
        Poison {
            smem: (-6i32) as u32,
            gmem: u32::MAX - 3,
            value: f32::MAX.to_bits(), // x·x + x overflows to +inf
        },
        Poison {
            smem: 6,
            gmem: 0x1000_0002,
            value: i32::MAX as u32, // integer overflow in IMad
        },
    ];
    for guarded in [false, true] {
        let (base, base_mem, data, out) = run_masked(guarded, benign);
        for poison in poisons {
            let (res, mem, _, _) = run_masked(guarded, poison);
            assert_eq!(res.stats, base.stats, "guarded={guarded}");
            assert_eq!(res.traces, base.traces, "guarded={guarded}");
            assert_eq!(mem, base_mem, "guarded={guarded}");
        }

        // Active lanes computed the body; the others kept every sentinel,
        // and SetP left their predicate alone.
        for lane in 0..32u32 {
            let word = |k: u64| {
                base_mem
                    .read_u32(out + k * 128 + u64::from(lane) * 4)
                    .unwrap()
            };
            let x = lane as f32 + 0.5;
            let fx = x.mul_add(x, x);
            if lane < ACTIVE {
                let xb = x.to_bits();
                assert_eq!(word(0), xb, "v, lane {lane}");
                assert_eq!(word(1), fx.to_bits(), "f, lane {lane}");
                assert_eq!(
                    word(2),
                    xb.wrapping_mul(xb).wrapping_add(xb),
                    "i, lane {lane}"
                );
                assert_eq!(word(3), xb, "sel, lane {lane}");
                assert_eq!(word(4), lane * 7, "g, lane {lane}");
                assert_eq!(word(5), 1, "setp, lane {lane}");
                let stored = base_mem.read_u32(data + 128 + u64::from(lane) * 4).unwrap();
                assert_eq!(stored, fx.to_bits(), "st.global, lane {lane}");
            } else {
                for k in 0..5 {
                    assert_eq!(word(k), SENTINEL + k as u32, "result {k}, lane {lane}");
                }
                assert_eq!(word(5), 0, "setp leaked into lane {lane}");
                let stored = base_mem.read_u32(data + 128 + u64::from(lane) * 4).unwrap();
                assert_eq!(stored, 0, "st.global leaked from lane {lane}");
            }
        }

        // The body's statistics count the active lanes only.
        let t = base.stats.total();
        // One FMad over the active lanes, after one FAdd over all 32.
        assert_eq!(t.flops, 2 * u64::from(ACTIVE) + 32);
        // ld + st of 4 B each over the body, plus 6 × 32 result stores.
        assert_eq!(
            t.gmem_requested_bytes,
            2 * 4 * u64::from(ACTIVE) + 6 * 32 * 4
        );
        let region = &base.stats.regions[0];
        assert_eq!(region.requested_bytes, 2 * 4 * u64::from(ACTIVE));
        // st, ld, the FMad and Sel shared operands: one conflict-free
        // half-warp transaction each (13 lanes fit the first half-warp).
        assert_eq!(t.smem_half_txns, 4);
        assert_eq!(t.smem_half_accesses, 4);
    }
}

/// Run a one-instruction fault probe: every lane loads its address from
/// `addrs` and its enable bit from `active`, then executes `op` under
/// that mask. `op` gets the builder, the address register, a second
/// address register (from `addrs2`), and a value register (`tid + 100`),
/// and returns the probed instruction's pc.
fn probe(
    smem_bytes: u32,
    addrs: &[u32; 32],
    addrs2: &[u32; 32],
    active: u32,
    op: impl Fn(&mut KernelBuilder, Reg, Reg, Reg) -> usize,
) -> (Result<RunOutput, SimError>, usize, GlobalMemory) {
    let (k, pc) = probe_kernel(smem_bytes, op);
    let k = k.unwrap();

    let m = machine();
    let mut gmem = GlobalMemory::new();
    let mut table: Vec<u32> = addrs.to_vec();
    table.extend(addrs2);
    table.extend((0..32).map(|l| active >> l & 1));
    // One pad word, so memory ends 4 bytes past a double-word boundary.
    table.push(0);
    let tab = gmem.alloc_u32(&table);
    let sim_res = {
        let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 32)).unwrap();
        sim.set_params(&[tab as u32]);
        sim.run(&mut gmem)
    };
    (sim_res, pc, gmem)
}

/// The kernel of a [`probe`] (built and validated) and the probed pc.
fn probe_kernel(
    smem_bytes: u32,
    op: impl Fn(&mut KernelBuilder, Reg, Reg, Reg) -> usize,
) -> (Result<Kernel, BuildError>, usize) {
    let mut b = KernelBuilder::new("probe");
    b.set_threads(32);
    if smem_bytes > 0 {
        b.smem_alloc(smem_bytes, 4).unwrap();
    }
    let tab_p = b.param_alloc();
    let [tid, ta, a, a2, m, val] = [(); 6].map(|_| b.alloc_reg().unwrap());
    b.s2r(tid, SpecialReg::TidX);
    b.shl(ta, Src::Reg(tid), Src::Imm(2));
    b.ld_param(m, tab_p);
    b.iadd(ta, Src::Reg(ta), Src::Reg(m));
    b.ld_global(a, MemAddr::new(Some(ta), 0), Width::B32);
    b.ld_global(a2, MemAddr::new(Some(ta), 128), Width::B32);
    b.ld_global(m, MemAddr::new(Some(ta), 256), Width::B32);
    b.iadd(val, Src::Reg(tid), Src::Imm(100));
    b.setp(Pred(0), CmpOp::Ne, NumTy::S32, Src::Reg(m), Src::Imm(0));
    b.set_guard(Pred(0), false);
    let pc = op(&mut b, a, a2, val);
    b.clear_guard();
    b.exit();
    (b.finish(), pc)
}

fn probe_err(
    smem_bytes: u32,
    addrs: &[u32; 32],
    addrs2: &[u32; 32],
    active: u32,
    op: impl Fn(&mut KernelBuilder, Reg, Reg, Reg) -> usize,
) -> (SimError, usize) {
    let (res, pc, _) = probe(smem_bytes, addrs, addrs2, active, op);
    (res.expect_err("the probe faults"), pc)
}

/// Lane `l` at `base + l * stride`, then the listed overrides.
fn lane_addrs(base: u32, stride: u32, overrides: &[(usize, u32)]) -> [u32; 32] {
    let mut a: [u32; 32] = std::array::from_fn(|l| base + l as u32 * stride);
    for &(l, v) in overrides {
        a[l] = v;
    }
    a
}

fn emit(b: &mut KernelBuilder, f: impl FnOnce(&mut KernelBuilder)) -> usize {
    let pc = b.pc() as usize;
    f(b);
    pc
}

#[test]
fn shared_faults_follow_lane_order() {
    let ok = lane_addrs(0, 4, &[]);
    let ld = |w: Width| {
        move |b: &mut KernelBuilder, a: Reg, _: Reg, v: Reg| {
            emit(b, |b| {
                b.ld_shared(v, MemAddr::new(Some(a), 0), w);
            })
        }
    };

    // The lowest faulting lane wins, whatever the later lanes do.
    let addrs = lane_addrs(0, 4, &[(3, 14), (9, 4096)]);
    let (err, pc) = probe_err(128, &addrs, &ok, u32::MAX, ld(Width::B32));
    assert_eq!(
        err,
        SimError::Misaligned {
            addr: 14,
            len: 4,
            pc
        }
    );

    // A masked lane's bad address is ignored.
    let addrs = lane_addrs(0, 4, &[(3, 4096), (9, 38)]);
    let (err, pc) = probe_err(128, &addrs, &ok, !(1 << 3), ld(Width::B32));
    assert_eq!(
        err,
        SimError::Misaligned {
            addr: 38,
            len: 4,
            pc
        }
    );

    // Wide accesses: the 4-byte phases are checked over all lanes before
    // any lane's full width, so lane 7's out-of-range first word beats
    // lane 2's 8-byte misalignment.
    let addrs = lane_addrs(0, 8, &[(2, 4), (7, 256)]);
    let (err, pc) = probe_err(256, &addrs, &ok, u32::MAX, ld(Width::B64));
    assert_eq!(
        err,
        SimError::SharedOutOfBounds {
            offset: 256,
            len: 4,
            pc
        }
    );
    // ... and a second-phase overrun beats it too.
    let addrs = lane_addrs(0, 8, &[(1, 12), (3, 252)]);
    let (err, pc) = probe_err(256, &addrs, &ok, 0xFF, ld(Width::B64));
    assert_eq!(
        err,
        SimError::SharedOutOfBounds {
            offset: 256,
            len: 4,
            pc
        }
    );
    // With every phase in range, the full-width check reports.
    let addrs = lane_addrs(0, 8, &[(6, 20)]);
    let (err, pc) = probe_err(256, &addrs, &ok, u32::MAX, |b, a, _, _| {
        emit(b, |b| {
            b.st_shared(MemAddr::new(Some(a), 0), a, Width::B64);
        })
    });
    assert_eq!(
        err,
        SimError::Misaligned {
            addr: 20,
            len: 8,
            pc
        }
    );

    // An ALU shared operand: a negative offset in an active lane.
    let addrs = lane_addrs(0, 4, &[(2, 4096), (4, (-4i32) as u32)]);
    let (err, pc) = probe_err(128, &addrs, &ok, !(1 << 2), |b, a, _, v| {
        emit(b, |b| {
            b.fmad(v, Src::Reg(v), Src::smem(Some(a), 0), Src::Reg(v));
        })
    });
    assert_eq!(
        err,
        SimError::SharedOutOfBounds {
            offset: -4,
            len: 4,
            pc
        }
    );

    // SetP reads its shared operand like any ALU op.
    let addrs = lane_addrs(0, 4, &[(11, 128)]);
    let (err, pc) = probe_err(128, &addrs, &ok, u32::MAX, |b, a, _, v| {
        emit(b, |b| {
            b.setp(
                Pred(1),
                CmpOp::Lt,
                NumTy::F32,
                Src::Reg(v),
                Src::smem(Some(a), 0),
            );
        })
    });
    assert_eq!(
        err,
        SimError::SharedOutOfBounds {
            offset: 128,
            len: 4,
            pc
        }
    );

    // Atomics check every active lane before touching memory.
    let addrs = lane_addrs(0, 0, &[(5, 130)]);
    let (err, pc) = probe_err(128, &addrs, &ok, u32::MAX, |b, a, _, v| {
        emit(b, |b| {
            b.atom_shared_add(v, MemAddr::new(Some(a), 0), v);
        })
    });
    assert_eq!(
        err,
        SimError::SharedOutOfBounds {
            offset: 130,
            len: 4,
            pc
        }
    );
}

#[test]
fn sel_checks_its_shared_operand_on_every_active_lane() {
    // Sel's shared operand is addressed, checked, and bank-counted for
    // every active lane before the select, so a bad address faults even
    // in a lane whose predicate picks the other operand (lane 20 here).
    let sel = |b: &mut KernelBuilder, a: Reg, _: Reg, v: Reg| {
        b.setp(Pred(1), CmpOp::Lt, NumTy::S32, Src::Reg(v), Src::Imm(116));
        emit(b, |b| {
            b.sel(v, Pred(1), Src::Reg(v), Src::smem(Some(a), 0));
        })
    };
    let ok = lane_addrs(0, 4, &[]);
    let addrs = lane_addrs(0, 4, &[(20, 4098)]);
    let (err, pc) = probe_err(128, &addrs, &ok, u32::MAX, sel);
    assert_eq!(
        err,
        SimError::SharedOutOfBounds {
            offset: 4098,
            len: 4,
            pc
        }
    );
    // Masked out, the same lane is ignored.
    let (res, _, _) = probe(128, &addrs, &ok, !(1 << 20), sel);
    res.expect("a masked lane's address is never checked");
}

#[test]
fn global_faults_follow_lane_order() {
    // The probe's own table (3 × 32 words) is the only allocation.
    let (_, _, gmem) = probe(0, &[0; 32], &[0; 32], 0, |b, _, _, _| b.pc() as usize);
    let base = 256u32; // first allocation
    let extent = gmem.extent() as u32;
    let ok = lane_addrs(base, 4, &[]);
    let ld = |off: i32| {
        move |b: &mut KernelBuilder, a: Reg, _: Reg, v: Reg| {
            emit(b, |b| {
                b.ld_global(v, MemAddr::new(Some(a), off), Width::B32);
            })
        }
    };

    // Addresses are validated (sign, alignment) over every lane before
    // any lane is bounds-checked: lane 4's negative address beats lane
    // 2's overrun.
    let addrs = lane_addrs(base + 8, 4, &[(2, extent + 8), (4, 0)]);
    let (err, pc) = probe_err(0, &addrs, &ok, u32::MAX, ld(-8));
    assert_eq!(
        err,
        SimError::GlobalOutOfBounds {
            addr: (-8i64) as u64,
            len: 4,
            pc
        }
    );
    let addrs = lane_addrs(base, 4, &[(3, extent), (6, base + 2)]);
    let (err, pc) = probe_err(0, &addrs, &ok, u32::MAX, ld(0));
    assert_eq!(
        err,
        SimError::Misaligned {
            addr: u64::from(base + 2),
            len: 4,
            pc
        }
    );
    // Masked lanes are ignored; the lowest active overrun reports.
    let addrs = lane_addrs(base, 4, &[(1, 2), (5, extent), (7, extent + 64)]);
    let (err, pc) = probe_err(0, &addrs, &ok, !0b10, ld(0));
    assert_eq!(
        err,
        SimError::GlobalOutOfBounds {
            addr: u64::from(extent),
            len: 4,
            pc
        }
    );
}

#[test]
fn faulting_global_store_lands_the_lanes_before_it() {
    // A wide store whose lane 10 starts on the last allocated word: lanes
    // 0..10 land, lane 10's first word lands, nothing after it does.
    let (_, _, gmem) = probe(0, &[0; 32], &[0; 32], 0, |b, _, _, _| b.pc() as usize);
    let base = 256u32;
    let last = gmem.extent() as u32 - 4;
    assert_eq!(
        last % 8,
        0,
        "memory ends 4 bytes past a double-word boundary"
    );
    // Lanes store [v, v + 1000] pairs over the table's first 64 words,
    // except lane 10, whose pair straddles the end of memory.
    let addrs = lane_addrs(base, 8, &[(10, last)]);
    // The memory image is the probe's table: both address tables, the
    // enable bits, and the pad word.
    let table: Vec<u32> = [&addrs[..], &addrs[..], &[1; 32], &[0]].concat();
    let untouched = |a: u64| table[(a - u64::from(base)) as usize / 4];
    let (res, pc, after) = probe(0, &addrs, &addrs, u32::MAX, |b, a, _, v| {
        let pair = b.alloc_contig(2).unwrap();
        b.mov(pair, Src::Reg(v));
        b.iadd(Reg(pair.0 + 1), Src::Reg(v), Src::Imm(1000));
        emit(b, |b| {
            b.st_global(MemAddr::new(Some(a), 0), pair, Width::B64);
        })
    });
    assert_eq!(
        res.unwrap_err(),
        SimError::GlobalOutOfBounds {
            addr: u64::from(last),
            len: 8,
            pc
        }
    );
    for l in 0..32u32 {
        let a = u64::from(addrs[l as usize]);
        let (lo, hi) = (l + 100, l + 1100);
        if l < 10 {
            assert_eq!(after.read_u32(a).unwrap(), lo, "lane {l}");
            assert_eq!(after.read_u32(a + 4).unwrap(), hi, "lane {l}");
        } else if l == 10 {
            assert_eq!(after.read_u32(a).unwrap(), lo, "lane 10's first word");
        } else {
            assert_eq!(after.read_u32(a).unwrap(), untouched(a), "lane {l}");
            assert_eq!(after.read_u32(a + 4).unwrap(), untouched(a + 4), "lane {l}");
        }
    }
}

/// The three ways to read or write shared memory at `addr`: a load, a
/// store, and an ALU operand (which reads one word).
#[derive(Clone, Copy, Debug)]
enum SmemUse {
    Load(Width),
    Store(Width),
    Operand,
}

impl SmemUse {
    const ALL: [SmemUse; 7] = [
        SmemUse::Load(Width::B32),
        SmemUse::Load(Width::B64),
        SmemUse::Load(Width::B128),
        SmemUse::Store(Width::B32),
        SmemUse::Store(Width::B64),
        SmemUse::Store(Width::B128),
        SmemUse::Operand,
    ];

    fn bytes(self) -> u32 {
        match self {
            SmemUse::Load(w) | SmemUse::Store(w) => w.bytes(),
            SmemUse::Operand => 4,
        }
    }

    /// A probe op (see [`probe`]) that accesses shared memory at byte
    /// `off`, from a base register holding `off` in every lane when
    /// `based`, else from the bare offset.
    fn op(self, off: i32, based: bool) -> impl Fn(&mut KernelBuilder, Reg, Reg, Reg) -> usize {
        move |b, a, _, v| {
            let addr = if based {
                MemAddr::new(Some(a), 0)
            } else {
                MemAddr::new(None, off)
            };
            let wide = b.alloc_contig(4).unwrap();
            emit(b, |b| match self {
                SmemUse::Load(w) => {
                    b.ld_shared(wide, addr, w);
                }
                SmemUse::Store(w) => {
                    b.st_shared(addr, wide, w);
                }
                SmemUse::Operand => {
                    b.iadd(v, Src::Reg(v), Src::smem(addr.base, addr.offset));
                }
            })
        }
    }
}

#[test]
fn baseless_shared_counts_one_broadcast_per_active_half_warp_and_phase() {
    // A base-less address is one address for every lane: each active
    // half-warp broadcasts once per 4-byte phase. The statistics equal
    // those of a base register holding the same address in every lane.
    let ok = lane_addrs(0, 4, &[]);
    for u in SmemUse::ALL {
        let off = 32;
        for (active, halves) in [
            (u32::MAX, 2),
            (0xFFFF, 1),
            (0x0001_0000, 1),
            (0x8000_0001, 2),
            (0, 0),
        ] {
            let run = |based: bool| {
                let (res, _, gmem) = probe(128, &[off as u32; 32], &ok, active, u.op(off, based));
                (res.unwrap().stats, gmem)
            };
            let (stats, gmem) = run(false);
            let t = stats.total();
            let want = u64::from(u.bytes() / 4 * halves);
            assert_eq!(t.smem_half_txns, want, "{u:?} {active:#x}");
            assert_eq!(t.smem_half_accesses, want, "{u:?} {active:#x}");
            assert_eq!(t.smem_instrs, u64::from(active != 0), "{u:?} {active:#x}");
            assert_eq!((stats, gmem), run(true), "{u:?} {active:#x}");
        }
    }
}

#[test]
fn baseless_shared_faults_match_a_uniform_base_register() {
    // Validation rejects a negative, out-of-range or misaligned bare
    // offset, so the simulator never meets one; a base register holding
    // the same misaligned offset still faults at execution.
    let ok = lane_addrs(0, 4, &[]);
    for u in SmemUse::ALL {
        for off in [2, 4, 6, 8, 12] {
            if off % u.bytes() as i32 == 0 {
                continue;
            }
            let (kernel, pc) = probe_kernel(128, u.op(off, false));
            assert_eq!(
                kernel.unwrap_err(),
                BuildError::Validate(ValidateError::SMemMisaligned {
                    at: pc,
                    offset: off,
                    width: u.bytes(),
                }),
                "{u:?} {off}"
            );
            for active in [u32::MAX, 1 << 7, 0x8000_0000] {
                let (err, _) = probe_err(128, &[off as u32; 32], &ok, active, u.op(off, true));
                assert!(matches!(err, SimError::Misaligned { .. }), "{err}");
            }
        }
    }

    // Every bare offset, misaligned or out of range in either direction
    // or in a later 4-byte phase only, against the row check of a base
    // register holding it.
    let smem = Shared {
        words: vec![0; 32],
        bytes: 128,
    };
    let mut w = WarpState::new(0, 32, 2, None);
    let offsets = [
        i32::MIN,
        -16,
        -4,
        -1,
        0,
        2,
        4,
        8,
        112,
        116,
        120,
        124,
        126,
        128,
        1 << 20,
        i32::MAX,
    ];
    for off in offsets {
        *w.row_mut(1) = [off as u32; WARP];
        for len in [4, 8, 16] {
            for exec in [1, 1 << 31, 0x00F0_0F00, u32::MAX] {
                let scalar = checked_smem_scalar(&w, MemAddr::new(None, off), len, exec, &smem);
                let row = checked_smem_addrs(&w, MemAddr::new(Some(Reg(1)), 0), len, exec, &smem);
                let row = row.map(|a| a[exec.trailing_zeros() as usize]);
                assert_eq!(scalar, row, "offset {off} len {len} exec {exec:#x}");
            }
        }
    }
}

#[test]
fn baseless_shared_store_takes_the_highest_active_lane() {
    // Two warps store to one bare address under a guard (tid < 37), then
    // every lane loads it back, and adds it as an ALU operand under the
    // same guard. The bare and the zero-register forms agree on memory
    // and shared statistics; the highest active lane, tid 36, wins.
    for width in [Width::B32, Width::B64, Width::B128] {
        let n = usize::from(width.regs());
        let run = |based: bool| {
            let mut b = KernelBuilder::new("uniform_store");
            b.set_threads(64);
            let buf = b.smem_alloc(256, 16).unwrap() as i32;
            let out_p = b.param_alloc();
            let [tid, zero, acc, addr, tmp] = [(); 5].map(|_| b.alloc_reg().unwrap());
            let vals = b.alloc_contig(4).unwrap();
            let got = b.alloc_contig(4).unwrap();
            let at = |off: i32| {
                if based {
                    MemAddr::new(Some(zero), buf + off)
                } else {
                    MemAddr::new(None, buf + off)
                }
            };
            b.s2r(tid, SpecialReg::TidX);
            b.mov_imm(zero, 0);
            for k in 0..4u8 {
                b.iadd(
                    Reg(vals.0 + k),
                    Src::Reg(tid),
                    Src::Imm(1000 * i32::from(k)),
                );
            }
            b.setp(Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(tid), Src::Imm(37));
            b.set_guard(Pred(0), false);
            b.st_shared(at(16), vals, width);
            b.clear_guard();
            b.bar();
            b.ld_shared(got, at(16), width);
            b.mov(acc, Src::Reg(tid));
            b.set_guard(Pred(0), false);
            b.iadd(acc, Src::Reg(acc), Src::smem(at(16).base, at(16).offset));
            b.clear_guard();
            b.shl(addr, Src::Reg(tid), Src::Imm(5));
            b.ld_param(tmp, out_p);
            b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
            for k in 0..width.regs() {
                b.st_global(
                    MemAddr::new(Some(addr), 4 * i32::from(k)),
                    Reg(got.0 + k),
                    Width::B32,
                );
            }
            b.st_global(MemAddr::new(Some(addr), 16), acc, Width::B32);
            b.exit();
            let k = b.finish().unwrap();
            let m = machine();
            let mut gmem = GlobalMemory::new();
            let out = gmem.alloc(64 * 32, 16);
            let mut sim = FunctionalSim::new(&m, &k, LaunchConfig::new_1d(1, 64)).unwrap();
            sim.set_params(&[out as u32]);
            let t = sim.run(&mut gmem).unwrap().stats.total();
            let smem_stats = (t.smem_half_txns, t.smem_half_accesses, t.smem_instrs);
            (gmem, out, smem_stats)
        };
        let (gmem, out, stats) = run(false);
        for tid in 0..64u32 {
            let row = gmem.read_u32s(out + u64::from(tid) * 32, 5).unwrap();
            for (k, &word) in row[..n].iter().enumerate() {
                assert_eq!(word, 36 + 1000 * k as u32, "{width:?} tid {tid} word {k}");
            }
            let acc = if tid < 37 { tid + 36 } else { tid };
            assert_eq!(row[4], acc, "{width:?} tid {tid}");
        }
        let (based, _, based_stats) = run(true);
        assert_eq!(gmem, based, "{width:?}");
        assert_eq!(stats, based_stats, "{width:?}");
    }
}
