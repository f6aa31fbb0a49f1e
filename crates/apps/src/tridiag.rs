//! Cyclic-reduction tridiagonal solver (paper §5.2).
//!
//! Solves many independent tridiagonal systems, one per block, entirely in
//! shared memory: forward reduction halves the system `log2(n)` times, a
//! base step solves the last equation, and backward substitution unwinds.
//! The memory stride doubles every forward step, so plain **CR** suffers
//! 2-way, then 4-way, … bank conflicts while the number of shared-memory
//! transactions stays flat instead of halving (paper Figure 7b). **CR-NBC**
//! pads one word per 16 — element *i* lives at word `i + i/16` — which
//! redirects conflicting accesses to free banks and shifts the bottleneck
//! to the instruction pipeline for a ≈1.6× speedup (paper Figure 8).
//!
//! Implementation notes mirroring the paper:
//! * each algorithmic step ends in `bar.sync`, so steps are the model's
//!   synchronization stages; with one resident block per SM (the 8 KB
//!   footprint allows no more) the stages serialize (paper §3);
//! * warps keep all 32 lanes active with wrap-around addressing
//!   (`index & (n-1)`) and guard only the stores, the reason the paper's
//!   steps 4–9 "have identical performance characteristics": a full warp
//!   of distinct same-bank addresses serializes 16-ways regardless of how
//!   few lanes carry useful work;
//! * the solution is written into the `d` array in place, keeping the
//!   footprint at four arrays.

use crate::workflow::{CaseStudy, Region};
use gpa_hw::KernelResources;
use gpa_isa::builder::{BuildError, KernelBuilder};
use gpa_isa::instr::{CmpOp, MemAddr, NumTy, Pred, Reg, SpecialReg, Src, Width};
use gpa_isa::Kernel;
use gpa_sim::{GlobalMemory, LaunchConfig};

/// Threads per block (the paper's configuration for 512-equation systems).
pub const THREADS: u32 = 256;

/// Shared-memory word index of logical element `i`.
fn pad_index(i: u32, padded: bool) -> u32 {
    if padded {
        i + i / 16
    } else {
        i
    }
}

/// Bytes of one shared array for an `n`-equation system.
fn array_bytes(n: u32, padded: bool) -> u32 {
    pad_index(n - 1, padded) * 4 + 4
}

/// Declared resources: four shared arrays plus the GT200 parameter area.
pub fn resources(n: u32, padded: bool) -> KernelResources {
    KernelResources::new(16, 4 * array_bytes(n, padded) + 256, THREADS)
}

/// Emit code computing the shared byte offset of (possibly padded) element
/// index held in `idx` (result in `out`, `idx` preserved).
fn emit_pad(b: &mut KernelBuilder, out: Reg, idx: Reg, padded: bool) {
    if padded {
        b.shr(out, Src::Reg(idx), Src::Imm(4));
        b.iadd(out, Src::Reg(out), Src::Reg(idx));
        b.shl(out, Src::Reg(out), Src::Imm(2));
    } else {
        b.shl(out, Src::Reg(idx), Src::Imm(2));
    }
}

/// Build the CR (or CR-NBC when `padded`) kernel for `n`-equation systems.
///
/// Parameters: `a, b, c, d` input arrays (system-major `nsys × n`) and the
/// solution output, five pointers.
///
/// # Panics
///
/// Panics unless `n` is a power of two with `n = 2·THREADS`.
///
/// # Errors
///
/// Propagates kernel-builder errors.
#[allow(clippy::too_many_lines)]
pub fn kernel(n: u32, padded: bool) -> Result<Kernel, BuildError> {
    assert!(n.is_power_of_two() && (64..=1024).contains(&n));
    assert_eq!(n, 2 * THREADS, "one thread loads two elements");
    let steps = n.trailing_zeros(); // log2(n)
    let ab = array_bytes(n, padded) as i32; // shared array stride
    let mask = (n - 1) as i32;

    let mut bld = KernelBuilder::new(if padded { "cr_nbc" } else { "cr" });
    let b = &mut bld;
    b.set_threads(THREADS);
    let a_p = b.param_alloc();
    let b_p = b.param_alloc();
    let c_p = b.param_alloc();
    let d_p = b.param_alloc();
    let x_p = b.param_alloc();
    // Four shared arrays at offsets 0, ab, 2·ab, 3·ab.
    let _ = b.smem_alloc(4 * ab as u32, 4)?;

    let tid = b.alloc_reg()?;
    b.s2r(tid, SpecialReg::TidX);
    // Base of this block's system in each global array: ctaid.x · n · 4.
    let sysoff = b.alloc_reg()?;
    b.s2r(sysoff, SpecialReg::CtaIdX);
    b.imul(sysoff, Src::Reg(sysoff), Src::Imm((n * 4) as i32));

    let m1 = b.alloc_reg()?; // constant −1.0
    b.mov_imm_f32(m1, -1.0);

    let t0 = b.alloc_reg()?;
    let t1 = b.alloc_reg()?;
    let v = b.alloc_reg()?;

    // ---- Stage 0: load the system into shared memory (coalesced) ----
    let goff = b.alloc_reg()?; // global byte offset of element i
    let soff = b.alloc_reg()?; // shared byte offset of element i
    for half in 0..2u32 {
        // i = tid + half·THREADS
        b.iadd(t0, Src::Reg(tid), Src::Imm((half * THREADS) as i32));
        b.shl(goff, Src::Reg(t0), Src::Imm(2));
        b.iadd(goff, Src::Reg(goff), Src::Reg(sysoff));
        emit_pad(b, soff, t0, padded);
        for (arr, param) in [(0i32, a_p), (1, b_p), (2, c_p), (3, d_p)] {
            b.ld_param(t1, param);
            b.iadd(t1, Src::Reg(t1), Src::Reg(goff));
            b.ld_global(v, MemAddr::new(Some(t1), 0), Width::B32);
            b.st_shared(MemAddr::new(Some(soff), arr * ab), v, Width::B32);
        }
    }
    b.bar();

    // Work registers for the reduction.
    let off_i = b.alloc_reg()?;
    let off_im = b.alloc_reg()?;
    let off_ip = b.alloc_reg()?;
    let (ai, bi, ci, di) = (
        b.alloc_reg()?,
        b.alloc_reg()?,
        b.alloc_reg()?,
        b.alloc_reg()?,
    );
    let (am, bm, cm, dm) = (
        b.alloc_reg()?,
        b.alloc_reg()?,
        b.alloc_reg()?,
        b.alloc_reg()?,
    );
    let (ap, bp, cp, dp) = (
        b.alloc_reg()?,
        b.alloc_reg()?,
        b.alloc_reg()?,
        b.alloc_reg()?,
    );
    let k1 = b.alloc_reg()?;
    let k2 = b.alloc_reg()?;

    // ---- Forward reduction: steps s = 1..=log2(n) (paper: "forward
    // reduction requires log2(n) steps") ----
    for s in 1..=steps {
        let h = 1i32 << (s - 1);
        let active = (n >> s) as i32;
        // Whole warps past the active range skip straight to the barrier
        // (a uniform, non-divergent branch); the last active warp keeps
        // all 32 lanes busy with wrapped addresses. This is why the
        // paper's per-step transaction count stays flat: fewer active
        // warps × stronger conflicts = constant.
        let active_ceil = ((active as u32).div_ceil(32) * 32) as i32;
        b.setp(
            Pred(1),
            CmpOp::Ge,
            NumTy::S32,
            Src::Reg(tid),
            Src::Imm(active_ceil),
        );
        b.bra_if(Pred(1), false, format!("fwd_skip_{s}"));
        // i = ((tid + 1) << s) − 1, wrapped to keep all 32 lanes busy.
        b.iadd(t0, Src::Reg(tid), Src::Imm(1));
        b.shl(t0, Src::Reg(t0), Src::Imm(s as i32));
        b.iadd(t0, Src::Reg(t0), Src::Imm(-1));
        b.and(t0, Src::Reg(t0), Src::Imm(mask));
        // Neighbour indices, wrapped.
        b.iadd(t1, Src::Reg(t0), Src::Imm(-h));
        b.and(t1, Src::Reg(t1), Src::Imm(mask));
        emit_pad(b, off_im, t1, padded);
        b.iadd(t1, Src::Reg(t0), Src::Imm(h));
        b.and(t1, Src::Reg(t1), Src::Imm(mask));
        emit_pad(b, off_ip, t1, padded);
        emit_pad(b, off_i, t0, padded);

        // Twelve shared loads: (a, b, c, d) at i, i−h, i+h.
        for (dst, off, arr) in [
            (ai, off_i, 0i32),
            (bi, off_i, 1),
            (ci, off_i, 2),
            (di, off_i, 3),
            (am, off_im, 0),
            (bm, off_im, 1),
            (cm, off_im, 2),
            (dm, off_im, 3),
            (ap, off_ip, 0),
            (bp, off_ip, 1),
            (cp, off_ip, 2),
            (dp, off_ip, 3),
        ] {
            b.ld_shared(dst, MemAddr::new(Some(off), arr * ab), Width::B32);
        }

        // k1 = a_i / b_{i−h},   k2 = c_i / b_{i+h} (negated for FMAD form).
        b.rcp(bm, Src::Reg(bm));
        b.rcp(bp, Src::Reg(bp));
        b.fmul(k1, Src::Reg(ai), Src::Reg(bm));
        b.fmul(k2, Src::Reg(ci), Src::Reg(bp));
        b.fmul(k1, Src::Reg(k1), Src::Reg(m1)); // −k1
        b.fmul(k2, Src::Reg(k2), Src::Reg(m1)); // −k2
                                                // a' = −a_{i−h}·k1, c' = −c_{i+h}·k2 (k already negated).
        b.fmul(am, Src::Reg(am), Src::Reg(k1));
        b.fmul(cp, Src::Reg(cp), Src::Reg(k2));
        // b' = b_i − c_{i−h}·k1 − a_{i+h}·k2.
        b.fmad(bi, Src::Reg(cm), Src::Reg(k1), Src::Reg(bi));
        b.fmad(bi, Src::Reg(ap), Src::Reg(k2), Src::Reg(bi));
        // d' = d_i − d_{i−h}·k1 − d_{i+h}·k2.
        b.fmad(di, Src::Reg(dm), Src::Reg(k1), Src::Reg(di));
        b.fmad(di, Src::Reg(dp), Src::Reg(k2), Src::Reg(di));

        // Stores guarded to the truly active lanes.
        b.setp(
            Pred(0),
            CmpOp::Lt,
            NumTy::S32,
            Src::Reg(tid),
            Src::Imm(active),
        );
        b.set_guard(Pred(0), false);
        b.st_shared(MemAddr::new(Some(off_i), 0), am, Width::B32);
        b.st_shared(MemAddr::new(Some(off_i), ab), bi, Width::B32);
        b.st_shared(MemAddr::new(Some(off_i), 2 * ab), cp, Width::B32);
        b.st_shared(MemAddr::new(Some(off_i), 3 * ab), di, Width::B32);
        b.clear_guard();
        b.label(format!("fwd_skip_{s}"));
        b.bar();
    }

    // ---- Base: solve the last remaining equation (i = n−1) ----
    let base = pad_index(n - 1, padded) as i32 * 4;
    b.setp(Pred(0), CmpOp::Eq, NumTy::S32, Src::Reg(tid), Src::Imm(0));
    b.set_guard(Pred(0), false);
    b.ld_shared(bi, MemAddr::new(None, base + ab), Width::B32);
    b.ld_shared(di, MemAddr::new(None, base + 3 * ab), Width::B32);
    b.rcp(bi, Src::Reg(bi));
    b.fmul(di, Src::Reg(di), Src::Reg(bi));
    b.st_shared(MemAddr::new(None, base + 3 * ab), di, Width::B32);
    b.clear_guard();
    b.bar();

    // ---- Backward substitution: levels s = log2(n) .. 1 ----
    for s in (1..=steps).rev() {
        let h = 1i32 << (s - 1);
        let active = (n >> s) as i32;
        let active_ceil = ((active as u32).div_ceil(32) * 32) as i32;
        b.setp(
            Pred(1),
            CmpOp::Ge,
            NumTy::S32,
            Src::Reg(tid),
            Src::Imm(active_ceil),
        );
        b.bra_if(Pred(1), false, format!("bwd_skip_{s}"));
        // i = (tid << s) + h − 1, wrapped.
        b.shl(t0, Src::Reg(tid), Src::Imm(s as i32));
        b.iadd(t0, Src::Reg(t0), Src::Imm(h - 1));
        b.and(t0, Src::Reg(t0), Src::Imm(mask));
        b.iadd(t1, Src::Reg(t0), Src::Imm(-h));
        b.and(t1, Src::Reg(t1), Src::Imm(mask));
        emit_pad(b, off_im, t1, padded);
        b.iadd(t1, Src::Reg(t0), Src::Imm(h));
        b.and(t1, Src::Reg(t1), Src::Imm(mask));
        emit_pad(b, off_ip, t1, padded);
        emit_pad(b, off_i, t0, padded);

        b.ld_shared(ai, MemAddr::new(Some(off_i), 0), Width::B32);
        b.ld_shared(bi, MemAddr::new(Some(off_i), ab), Width::B32);
        b.ld_shared(ci, MemAddr::new(Some(off_i), 2 * ab), Width::B32);
        b.ld_shared(di, MemAddr::new(Some(off_i), 3 * ab), Width::B32);
        b.ld_shared(dm, MemAddr::new(Some(off_im), 3 * ab), Width::B32); // x_{i−h}
        b.ld_shared(dp, MemAddr::new(Some(off_ip), 3 * ab), Width::B32); // x_{i+h}

        // x = (d − a·x_{i−h} − c·x_{i+h}) / b.
        b.fmul(ai, Src::Reg(ai), Src::Reg(m1));
        b.fmul(ci, Src::Reg(ci), Src::Reg(m1));
        b.fmad(di, Src::Reg(ai), Src::Reg(dm), Src::Reg(di));
        b.fmad(di, Src::Reg(ci), Src::Reg(dp), Src::Reg(di));
        b.rcp(bi, Src::Reg(bi));
        b.fmul(di, Src::Reg(di), Src::Reg(bi));

        b.setp(
            Pred(0),
            CmpOp::Lt,
            NumTy::S32,
            Src::Reg(tid),
            Src::Imm(active),
        );
        b.set_guard(Pred(0), false);
        b.st_shared(MemAddr::new(Some(off_i), 3 * ab), di, Width::B32);
        b.clear_guard();
        b.label(format!("bwd_skip_{s}"));
        b.bar();
    }

    // ---- Write the solution back (coalesced) ----
    for half in 0..2u32 {
        b.iadd(t0, Src::Reg(tid), Src::Imm((half * THREADS) as i32));
        b.shl(goff, Src::Reg(t0), Src::Imm(2));
        b.iadd(goff, Src::Reg(goff), Src::Reg(sysoff));
        emit_pad(b, soff, t0, padded);
        b.ld_shared(v, MemAddr::new(Some(soff), 3 * ab), Width::B32);
        b.ld_param(t1, x_p);
        b.iadd(t1, Src::Reg(t1), Src::Reg(goff));
        b.st_global(MemAddr::new(Some(t1), 0), v, Width::B32);
    }
    b.exit();

    b.declare_resources(resources(n, padded));
    bld.finish()
}

/// Host-side data for one solver run.
#[derive(Debug)]
pub struct TridiagData {
    /// Equations per system.
    pub n: u32,
    /// Number of systems (blocks).
    pub nsys: u32,
    /// Sub-diagonal (`a[0] = 0` per system).
    pub a: Vec<f32>,
    /// Diagonal (diagonally dominant).
    pub b: Vec<f32>,
    /// Super-diagonal (`c[n−1] = 0` per system).
    pub c: Vec<f32>,
    /// Right-hand side.
    pub d: Vec<f32>,
    /// Device addresses of a, b, c, d, x.
    pub dev: [u64; 5],
}

/// Generate `nsys` diagonally-dominant systems and upload them.
pub fn setup(gmem: &mut GlobalMemory, n: u32, nsys: u32, seed: u32) -> TridiagData {
    let total = (n * nsys) as usize;
    let mut state = seed | 1;
    let mut rnd = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        ((state >> 16) & 0xFFFF) as f32 / 65536.0
    };
    let mut a = vec![0.0f32; total];
    let mut bdiag = vec![0.0f32; total];
    let mut c = vec![0.0f32; total];
    let mut d = vec![0.0f32; total];
    for sys in 0..nsys as usize {
        for i in 0..n as usize {
            let idx = sys * n as usize + i;
            a[idx] = if i == 0 { 0.0 } else { rnd() - 0.5 };
            c[idx] = if i == n as usize - 1 {
                0.0
            } else {
                rnd() - 0.5
            };
            bdiag[idx] = 2.5 + rnd(); // dominance: |a| + |c| ≤ 1 < 2.5
            d[idx] = rnd() * 2.0 - 1.0;
        }
    }
    let dev = [
        gmem.alloc_f32(&a),
        gmem.alloc_f32(&bdiag),
        gmem.alloc_f32(&c),
        gmem.alloc_f32(&d),
        gmem.alloc(u64::from(n) * u64::from(nsys) * 4, 128),
    ];
    TridiagData {
        n,
        nsys,
        a,
        b: bdiag,
        c,
        d,
        dev,
    }
}

/// CPU reference: the Thomas algorithm, per system.
pub fn thomas(n: usize, a: &[f32], b: &[f32], c: &[f32], d: &[f32]) -> Vec<f32> {
    let mut cp = vec![0.0f64; n];
    let mut dp = vec![0.0f64; n];
    cp[0] = f64::from(c[0]) / f64::from(b[0]);
    dp[0] = f64::from(d[0]) / f64::from(b[0]);
    for i in 1..n {
        let m = f64::from(b[i]) - f64::from(a[i]) * cp[i - 1];
        cp[i] = f64::from(c[i]) / m;
        dp[i] = (f64::from(d[i]) - f64::from(a[i]) * dp[i - 1]) / m;
    }
    let mut x = vec![0.0f32; n];
    x[n - 1] = dp[n - 1] as f32;
    for i in (0..n - 1).rev() {
        x[i] = (dp[i] - cp[i] * f64::from(x[i + 1])) as f32;
    }
    x
}

/// Prepare the cyclic-reduction case study (CR, or CR-NBC when
/// `padded`): kernel, device image, regions, and the Thomas-algorithm
/// oracle.
///
/// # Panics
///
/// Panics on unsupported `n` (see [`kernel`]); the `gpa-service` request
/// path validates before calling.
pub fn case(n: u32, nsys: u32, padded: bool) -> CaseStudy {
    let k = kernel(n, padded).expect("CR kernel builds");
    let mut gmem = GlobalMemory::new();
    let data = setup(&mut gmem, n, nsys, 0xBEEF);
    let launch = LaunchConfig::new_1d(nsys, THREADS);
    let params: Vec<u32> = data.dev.iter().map(|d| *d as u32).collect();
    let bytes = u64::from(n) * u64::from(nsys) * 4;
    let regions = vec![
        Region::new("system", data.dev[0], 4 * bytes),
        Region::new("solution", data.dev[4], bytes),
    ];
    let label = format!("{} n={n} nsys={nsys}", if padded { "cr_nbc" } else { "cr" });
    let verify = move |gmem: &GlobalMemory| {
        let ns = n as usize;
        for sys in 0..nsys as usize {
            let got = gmem
                .read_f32s(data.dev[4] + (sys * ns * 4) as u64, ns)
                .map_err(|e| format!("solution unreadable: {e:?}"))?;
            let s = sys * ns;
            let want = thomas(
                ns,
                &data.a[s..s + ns],
                &data.b[s..s + ns],
                &data.c[s..s + ns],
                &data.d[s..s + ns],
            );
            for i in 0..ns {
                // Negated so a NaN result fails verification too.
                let ok = (got[i] - want[i]).abs() <= 2e-3 * want[i].abs().max(1.0);
                if !ok {
                    return Err(format!(
                        "system {sys}, x[{i}] = {}, reference {} (padded={padded})",
                        got[i], want[i]
                    ));
                }
            }
        }
        Ok(())
    };
    CaseStudy::new(
        label,
        k,
        launch,
        params,
        gmem,
        regions,
        0, // the paper reports times, not GFLOPS, for CR
        Some(Box::new(verify)),
    )
}

/// Index of the first forward-reduction stage in the per-stage analysis
/// (stage 0 is the global load).
pub const FIRST_FORWARD_STAGE: usize = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_core::{Component, Model};
    use gpa_hw::Machine;
    use gpa_ubench::{MeasureOpts, ThroughputCurves};
    use std::sync::OnceLock;

    fn machine() -> &'static Machine {
        static M: OnceLock<Machine> = OnceLock::new();
        M.get_or_init(Machine::gtx285)
    }

    fn model() -> Model<'static> {
        static C: OnceLock<ThroughputCurves> = OnceLock::new();
        let curves =
            C.get_or_init(|| ThroughputCurves::measure_with(machine(), MeasureOpts::quick()));
        Model::new(machine(), curves.clone())
    }

    #[test]
    fn cr_solves_systems() {
        let mut m = model();
        let mut study = case(512, 4, false);
        study.run(machine(), &mut m).unwrap();
        study.check().unwrap();
    }

    #[test]
    fn cr_nbc_solves_systems() {
        let mut m = model();
        let mut study = case(512, 4, true);
        study.run(machine(), &mut m).unwrap();
        study.check().unwrap();
    }

    #[test]
    fn one_resident_block_serializes_stages() {
        let mut m = model();
        let r = case(512, 30, false).run(machine(), &mut m).unwrap();
        assert_eq!(r.input.occupancy.blocks, 1);
        // load + 9 forward + base + 9 backward + writeback = 21 stages.
        assert_eq!(r.input.stats.stages.len(), 21);
        assert_eq!(r.analysis.predicted_seconds, r.analysis.serialized_seconds);
    }

    #[test]
    fn conflicts_double_each_forward_step_until_the_cap() {
        // Paper Figure 5/7b: 2-way, 4-way, 8-way, 16-way.
        let mut m = model();
        let r = case(512, 8, false).run(machine(), &mut m).unwrap();
        let stages = &r.input.stats.stages;
        for (k, expect) in [(0usize, 2.0), (1, 4.0), (2, 8.0), (3, 16.0), (4, 16.0)] {
            let f = stages[FIRST_FORWARD_STAGE + k].bank_conflict_factor();
            assert!(
                (f - expect).abs() / expect < 0.35,
                "forward step {}: conflict factor {f:.2}, expected {expect}",
                k + 1
            );
        }
    }

    #[test]
    fn padding_removes_conflicts() {
        // Paper §5.2: CR-NBC eliminates the conflicts (a small residual
        // remains past stride 16 — see gpa-mem's padding tests).
        let mut m = model();
        let r = case(512, 8, true).run(machine(), &mut m).unwrap();
        let stages = &r.input.stats.stages;
        for k in 0..4 {
            let f = stages[FIRST_FORWARD_STAGE + k].bank_conflict_factor();
            assert!(f < 1.4, "forward step {}: conflict factor {f:.2}", k + 1);
        }
        let total = r.analysis.bank_conflict_factor;
        assert!(total < 1.5, "overall factor {total:.2}");
    }

    #[test]
    fn transactions_stay_flat_for_cr_but_halve_without_conflicts() {
        // Paper Figure 7b: with conflicts the per-step transaction count
        // stays ~constant over the first steps; the conflict-free
        // equivalent halves.
        let mut m = model();
        let cr = case(512, 8, false).run(machine(), &mut m).unwrap();
        let s = &cr.input.stats.stages;
        let t1 = s[FIRST_FORWARD_STAGE].smem_warp_equiv();
        let t3 = s[FIRST_FORWARD_STAGE + 2].smem_warp_equiv();
        assert!(
            (t3 / t1 - 1.0).abs() < 0.3,
            "CR step 3 / step 1 transaction ratio {:.2} should be ~1",
            t3 / t1
        );
        let nc1 = s[FIRST_FORWARD_STAGE].smem_warp_equiv_no_conflicts();
        let nc3 = s[FIRST_FORWARD_STAGE + 2].smem_warp_equiv_no_conflicts();
        assert!(
            (nc3 / nc1 - 0.25).abs() < 0.15,
            "conflict-free step 3 / step 1 ratio {:.2} should be ~0.25",
            nc3 / nc1
        );
    }

    #[test]
    fn cr_is_shared_memory_bound_and_nbc_is_not() {
        let mut m = model();
        let cr = case(512, 30, false).run(machine(), &mut m).unwrap();
        assert_eq!(cr.analysis.bottleneck, Component::SharedMemory);
        let nbc = case(512, 30, true).run(machine(), &mut m).unwrap();
        assert_eq!(nbc.analysis.bottleneck, Component::InstructionPipeline);
    }

    #[test]
    fn padding_speeds_up_measurably() {
        // Paper Figure 8: ≈1.6×.
        let mut m = model();
        let cr = case(512, 30, false).run(machine(), &mut m).unwrap();
        let nbc = case(512, 30, true).run(machine(), &mut m).unwrap();
        let speedup = cr.measured_seconds() / nbc.measured_seconds();
        assert!(
            (1.25..2.2).contains(&speedup),
            "CR-NBC speedup ×{speedup:.2} (CR {:.3e}s, NBC {:.3e}s)",
            cr.measured_seconds(),
            nbc.measured_seconds()
        );
    }

    #[test]
    fn what_if_predicts_the_padding_benefit() {
        // The paper's §5.2 workflow: the model prices the removal of bank
        // conflicts *before* implementing CR-NBC, then verifies.
        let mut m = model();
        let cr = case(512, 30, false).run(machine(), &mut m).unwrap();
        let nbc = case(512, 30, true).run(machine(), &mut m).unwrap();
        let what_if = m.what_if_no_bank_conflicts(&cr.input);
        let actual = cr.measured_seconds() / nbc.measured_seconds();
        // The model overestimates the gain (the real CR-NBC is
        // latency-bound in its one-warp steps, which a pure throughput
        // model cannot see — the paper lists "model situations of
        // non-perfect overlap" as its own future work). The paper's
        // prediction ran high too (×1.83 model vs ×1.62 achieved).
        // Require the right direction and a bounded overshoot.
        assert!(
            what_if.speedup > 1.2 && what_if.speedup / actual < 2.0,
            "predicted ×{:.2}, actual ×{actual:.2}",
            what_if.speedup
        );
    }

    #[test]
    fn model_error_within_band() {
        // Paper Figure 8: measured and simulated agree within 7%; allow a
        // wider band for our reproduction.
        let mut m = model();
        for padded in [false, true] {
            let r = case(512, 30, padded).run(machine(), &mut m).unwrap();
            let err = r.model_error().abs();
            assert!(
                err < 0.30,
                "padded={padded}: predicted {:.3e}, measured {:.3e} ({:.0}%)",
                r.predicted_seconds(),
                r.measured_seconds(),
                err * 100.0
            );
        }
    }

    #[test]
    fn stage_zero_is_global_memory_bound() {
        // Paper Figure 6a: step 0 (the system load) is global-bound.
        let mut m = model();
        let r = case(512, 30, false).run(machine(), &mut m).unwrap();
        assert_eq!(r.analysis.stages[0].bottleneck, Component::GlobalMemory);
    }
}
