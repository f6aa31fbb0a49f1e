//! Dense matrix multiply (paper §5.1): Volkov-style register tiling.
//!
//! The computation follows Volkov & Demmel's scheme as the paper describes
//! it: the result matrix is divided into sub-matrices with **only the B
//! sub-matrix staged in shared memory** — A streams through registers. A
//! 64-thread block computes a 64-row × `tile`-column strip of C against a
//! `tile × tile` B tile: thread *t* owns row *t* of the strip and all
//! `tile` accumulator columns, loads its A value with a fully-coalesced
//! scalar load (double-buffered across k so the load latency hides behind
//! the MADs), and reads B directly as a shared-memory MAD operand — the
//! GT200 idiom `mad.f32 rd, ra, s[..], rd`, which broadcasts to the whole
//! half-warp conflict-free.
//!
//! This structure reproduces the paper's Table 2 register footprints
//! (accumulators dominate: 8/16/32 + addressing), its Figure 4a counts
//! (constant MAD count `n³/32`, total instructions decreasing with tile
//! size, global traffic dropping ≈45%/40% per tile-size step), and its
//! bottleneck story (instruction-bound at 8/16, shared-memory-bound at
//! 32×32 where occupancy drops to 6 warps).
//!
//! Layouts: A column-major, B row-major, C column-major — every global
//! stream is coalesced.

use crate::workflow::{CaseStudy, Region};
use gpa_hw::KernelResources;
use gpa_isa::builder::{BuildError, KernelBuilder};
use gpa_isa::instr::{CmpOp, MemAddr, NumTy, Pred, Reg, SpecialReg, Src, Width};
use gpa_isa::Kernel;
use gpa_sim::{GlobalMemory, LaunchConfig};

/// Tile sizes the paper studies.
pub const TILES: [u32; 3] = [8, 16, 32];

/// Rows of C computed per block (one per thread).
pub const STRIP_ROWS: u32 = 64;

/// Paper Table 2 resource footprints per tile size
/// (registers/thread, shared bytes/block) for 64-thread blocks.
pub fn paper_resources(tile: u32) -> KernelResources {
    match tile {
        8 => KernelResources::new(16, 348, 64),
        16 => KernelResources::new(30, 1088, 64),
        32 => KernelResources::new(58, 4284, 64),
        _ => panic!("unsupported tile size {tile}"),
    }
}

/// Build the matmul kernel for `n × n` matrices with a `tile × tile` B
/// sub-matrix per 64-thread block.
///
/// # Panics
///
/// Panics unless `tile ∈ {8, 16, 32}`, `n` is a multiple of both `tile`
/// and 64, and `n ≤ 1024` (static offsets are sized for the paper's 1024²
/// experiment).
///
/// # Errors
///
/// Propagates kernel-builder errors.
pub fn kernel(n: u32, tile: u32) -> Result<Kernel, BuildError> {
    assert!(TILES.contains(&tile), "tile must be one of {TILES:?}");
    assert!(
        n.is_multiple_of(tile) && n.is_multiple_of(STRIP_ROWS),
        "n must be a multiple of tile and 64"
    );
    assert!(n <= 1024, "static offsets are sized for n ≤ 1024");
    let ltile = tile.trailing_zeros() as i32;
    let e_stage = (tile * tile / STRIP_ROWS) as usize; // staging loads/thread
    let n4 = n * 4;
    // A k-offsets must fit the 18-bit memory-offset field; for tile=32 and
    // n=1024 a mid-tile base advance keeps them in range.
    let split = tile as usize * n as usize * 4 > MemAddr::MAX_OFFSET as usize;
    let half = (tile / 2) as usize;

    let mut b = KernelBuilder::new(format!("matmul{tile}x{tile}"));
    b.set_threads(64);
    let a_p = b.param_alloc();
    let b_p = b.param_alloc();
    let c_p = b.param_alloc();
    let bsm = b.smem_alloc(tile * tile * 4, 4)? as i32;

    // ---- Prologue ----
    let tid = b.alloc_reg()?;
    b.s2r(tid, SpecialReg::TidX);
    let tmp = b.alloc_reg()?;

    // Global row of this thread: ctaid.y · 64 + tid.
    let row = b.alloc_reg()?;
    b.s2r(row, SpecialReg::CtaIdY);
    b.shl(row, Src::Reg(row), Src::Imm(6));
    b.iadd(row, Src::Reg(row), Src::Reg(tid));

    // a_addr = A + row·4 (column-major, k = 0).
    let a_addr = b.alloc_reg()?;
    b.shl(a_addr, Src::Reg(row), Src::Imm(2));
    b.ld_param(tmp, a_p);
    b.iadd(a_addr, Src::Reg(a_addr), Src::Reg(tmp));

    // bg_addr = B + ((tid/tile)·n + tc·tile + tid%tile)·4 (staging source).
    let tc = b.alloc_reg()?;
    b.s2r(tc, SpecialReg::CtaIdX);
    let bg_addr = b.alloc_reg()?;
    b.shr(bg_addr, Src::Reg(tid), Src::Imm(ltile));
    b.imul(bg_addr, Src::Reg(bg_addr), Src::Imm(n as i32));
    b.shl(tmp, Src::Reg(tc), Src::Imm(ltile));
    b.iadd(bg_addr, Src::Reg(bg_addr), Src::Reg(tmp));
    b.and(tmp, Src::Reg(tid), Src::Imm(tile as i32 - 1));
    b.iadd(bg_addr, Src::Reg(bg_addr), Src::Reg(tmp));
    b.shl(bg_addr, Src::Reg(bg_addr), Src::Imm(2));
    b.ld_param(tmp, b_p);
    b.iadd(bg_addr, Src::Reg(bg_addr), Src::Reg(tmp));

    // bsm_addr = tid·4 (staging destination).
    let bsm_addr = b.alloc_reg()?;
    b.shl(bsm_addr, Src::Reg(tid), Src::Imm(2));

    // c_addr = C + (tc·tile·n + row)·4 (column-major).
    let c_addr = b.alloc_reg()?;
    b.shl(c_addr, Src::Reg(tc), Src::Imm(ltile));
    b.imul(c_addr, Src::Reg(c_addr), Src::Imm(n as i32));
    b.iadd(c_addr, Src::Reg(c_addr), Src::Reg(row));
    b.shl(c_addr, Src::Reg(c_addr), Src::Imm(2));
    b.ld_param(tmp, c_p);
    b.iadd(c_addr, Src::Reg(c_addr), Src::Reg(tmp));

    // Strides and loop counter.
    let stride = b.alloc_reg()?; // tile·n·4 per k-tile (B; A advances in halves when split)
    b.mov_imm(stride, tile * n4);
    let half_stride = if split {
        let r = b.alloc_reg()?;
        b.mov_imm(r, tile / 2 * n4);
        Some(r)
    } else {
        None
    };
    let k = b.alloc_reg()?;
    b.mov_imm(k, 0);

    // Accumulators, double-buffered A, staging temporaries.
    let acc: Vec<Reg> = (0..tile).map(|_| b.alloc_reg()).collect::<Result<_, _>>()?;
    for a in &acc {
        b.mov_imm_f32(*a, 0.0);
    }
    let a_buf = [b.alloc_reg()?, b.alloc_reg()?];
    let stage: Vec<Reg> = (0..e_stage)
        .map(|_| b.alloc_reg())
        .collect::<Result<_, _>>()?;

    // Warm the A pipeline: a_buf[0] = A[row, 0].
    b.ld_global(a_buf[0], MemAddr::new(Some(a_addr), 0), Width::B32);

    // ---- k-tile loop ----
    b.label("ktile");
    // Stage the B tile (loads first for MLP, stores after).
    for (s, reg) in stage.iter().enumerate() {
        let off = (STRIP_ROWS / tile * s as u32 * n4) as i32;
        b.ld_global(*reg, MemAddr::new(Some(bg_addr), off), Width::B32);
    }
    for (s, reg) in stage.iter().enumerate() {
        b.st_shared(
            MemAddr::new(Some(bsm_addr), bsm + 256 * s as i32),
            *reg,
            Width::B32,
        );
    }
    b.bar();

    // Compute the k-tile: per kk, prefetch the next A value and run `tile`
    // broadcast MADs out of shared memory.
    for kk in 0..tile as usize {
        if split && kk == half {
            // Mid-tile base advance keeps prefetch offsets encodable.
            b.iadd(a_addr, Src::Reg(a_addr), Src::Reg(half_stride.unwrap()));
        }
        let prefetch_kk = kk + 1 - if split && kk >= half { half } else { 0 };
        b.ld_global(
            a_buf[(kk + 1) % 2],
            MemAddr::new(Some(a_addr), (prefetch_kk * n4 as usize) as i32),
            Width::B32,
        );
        for (j, a) in acc.iter().enumerate() {
            let word = kk as u32 * tile + j as u32;
            b.fmad(
                *a,
                Src::Reg(a_buf[kk % 2]),
                Src::smem(None, bsm + (word * 4) as i32),
                Src::Reg(*a),
            );
        }
    }
    b.bar();

    // Advance and loop.
    if let Some(hs) = half_stride {
        b.iadd(a_addr, Src::Reg(a_addr), Src::Reg(hs));
    } else {
        b.iadd(a_addr, Src::Reg(a_addr), Src::Reg(stride));
    }
    b.iadd(bg_addr, Src::Reg(bg_addr), Src::Reg(stride));
    b.iadd(k, Src::Reg(k), Src::Imm(1));
    b.setp(
        Pred(0),
        CmpOp::Lt,
        NumTy::S32,
        Src::Reg(k),
        Src::Imm((n / tile) as i32),
    );
    b.bra_if(Pred(0), false, "ktile");

    // ---- Epilogue: write the C strip ----
    for (j, a) in acc.iter().enumerate() {
        let off = (j as u32 * n4) as i32;
        b.st_global(MemAddr::new(Some(c_addr), off), *a, Width::B32);
    }
    b.exit();

    b.declare_resources(paper_resources(tile));
    b.finish()
}

/// Host-side data for one matmul run.
#[derive(Debug)]
pub struct MatmulData {
    /// Matrix dimension.
    pub n: u32,
    /// A, column-major.
    pub a: Vec<f32>,
    /// B, row-major.
    pub b: Vec<f32>,
    /// Device address of A.
    pub a_dev: u64,
    /// Device address of B.
    pub b_dev: u64,
    /// Device address of C.
    pub c_dev: u64,
}

/// Deterministic small pseudo-random values (keeps f32 sums well away from
/// cancellation).
fn fill(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) & 0xFF) as f32 / 256.0 - 0.5
        })
        .collect()
}

/// Allocate and initialize matrices in device memory. A carries one k-tile
/// of padding: the software-pipelined A prefetch reads one tile past the
/// end on the final iteration.
pub fn setup(gmem: &mut GlobalMemory, n: u32) -> MatmulData {
    let elems = (n * n) as usize;
    let a = fill(elems, 0x1234);
    let b = fill(elems, 0x5678);
    let a_dev = gmem.alloc(u64::from(n) * u64::from(n + 32) * 4, 128);
    for (i, v) in a.iter().enumerate() {
        gmem.write_u32(a_dev + i as u64 * 4, v.to_bits()).unwrap();
    }
    let b_dev = gmem.alloc_f32(&b);
    let c_dev = gmem.alloc(u64::from(n) * u64::from(n) * 4, 128);
    MatmulData {
        n,
        a,
        b,
        a_dev,
        b_dev,
        c_dev,
    }
}

/// CPU reference: C (column-major) = A (column-major) × B (row-major),
/// accumulating in ascending k with fused multiply-add — the same order
/// and rounding the kernel uses, so results match exactly.
pub fn reference(data: &MatmulData) -> Vec<f32> {
    let n = data.n as usize;
    let mut c = vec![0.0f32; n * n];
    for col in 0..n {
        for row in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc = data.a[k * n + row].mul_add(data.b[k * n + col], acc);
            }
            c[col * n + row] = acc;
        }
    }
    c
}

/// Floating-point operations of an n×n matmul (2n³).
pub fn flops(n: u32) -> u64 {
    2 * u64::from(n) * u64::from(n) * u64::from(n)
}

/// Prepare the matmul case study for one tile size: kernel, device
/// memory image, regions, and the CPU-reference oracle.
///
/// # Panics
///
/// Panics on unsupported `n`/`tile` combinations (see [`kernel`]); the
/// `gpa-service` request path validates before calling.
pub fn case(n: u32, tile: u32) -> CaseStudy {
    let k = kernel(n, tile).expect("matmul kernel builds");
    let mut gmem = GlobalMemory::new();
    let data = setup(&mut gmem, n);
    let launch = LaunchConfig::new_2d((n / tile, n / STRIP_ROWS), (64, 1));
    let params = vec![data.a_dev as u32, data.b_dev as u32, data.c_dev as u32];
    let nn = u64::from(n) * u64::from(n) * 4;
    let regions = vec![
        Region::new("A", data.a_dev, u64::from(n) * u64::from(n + 32) * 4),
        Region::new("B", data.b_dev, nn),
        Region::new("C", data.c_dev, nn),
    ];
    let verify = move |gmem: &GlobalMemory| {
        let c = gmem
            .read_f32s(data.c_dev, (n * n) as usize)
            .map_err(|e| format!("C unreadable: {e:?}"))?;
        let reference = reference(&data);
        for (i, (got, want)) in c.iter().zip(&reference).enumerate() {
            // Negated so a NaN result fails verification too.
            let ok = (got - want).abs() <= 1e-4 * want.abs().max(1.0);
            if !ok {
                return Err(format!(
                    "C[{i}] = {got}, reference {want} (n={n}, tile={tile})"
                ));
            }
        }
        Ok(())
    };
    CaseStudy::new(
        format!("matmul{tile}x{tile} n={n}"),
        k,
        launch,
        params,
        gmem,
        regions,
        flops(n),
        Some(Box::new(verify)),
    )
}

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
    fn all_tiles_compute_correct_products() {
        let mut m = model();
        for tile in TILES {
            let mut study = case(64, tile);
            study.run(machine(), &mut m).unwrap();
            study.check().unwrap();
        }
    }

    #[test]
    fn table2_occupancy_is_reproduced() {
        let mut m = model();
        for (tile, blocks, warps) in [(8, 8, 16), (16, 8, 16), (32, 3, 6)] {
            let r = case(64, tile).run(machine(), &mut m).unwrap();
            assert_eq!(r.input.occupancy.blocks, blocks, "tile {tile}");
            assert_eq!(r.input.occupancy.active_warps, warps, "tile {tile}");
        }
    }

    #[test]
    fn mad_count_is_constant_across_tiles() {
        // Paper Figure 4a: MAD count = n³/warpSize regardless of tile size.
        let mut m = model();
        let n = 128u32;
        let expect = u64::from(n).pow(3) / 32;
        for tile in TILES {
            let r = case(n, tile).run(machine(), &mut m).unwrap();
            assert_eq!(r.input.stats.total().fmad, expect, "tile {tile}");
        }
    }

    #[test]
    fn total_instructions_decrease_with_tile_size() {
        // Paper Figure 4a: larger tiles raise computational density.
        let mut m = model();
        let counts: Vec<u64> = TILES
            .iter()
            .map(|t| {
                case(128, *t)
                    .run(machine(), &mut m)
                    .unwrap()
                    .input
                    .stats
                    .total()
                    .instr_total()
            })
            .collect();
        assert!(
            counts[0] > counts[1],
            "8×8 {} > 16×16 {}",
            counts[0],
            counts[1]
        );
        assert!(
            counts[1] > counts[2],
            "16×16 {} > 32×32 {}",
            counts[1],
            counts[2]
        );
    }

    #[test]
    fn global_traffic_decreases_with_tile_size() {
        // Paper Figure 4a: transactions drop ≈45% and ≈40% per step.
        let mut m = model();
        let bytes: Vec<u64> = TILES
            .iter()
            .map(|t| {
                case(128, *t)
                    .run(machine(), &mut m)
                    .unwrap()
                    .input
                    .stats
                    .total()
                    .gmem[0]
                    .bytes
            })
            .collect();
        let r1 = bytes[1] as f64 / bytes[0] as f64;
        let r2 = bytes[2] as f64 / bytes[1] as f64;
        assert!((0.4..0.75).contains(&r1), "16×16/8×8 byte ratio {r1:.2}");
        assert!((0.4..0.8).contains(&r2), "32×32/16×16 byte ratio {r2:.2}");
    }

    #[test]
    fn computational_density_matches_paper_range() {
        // Paper §5.1: ~80% of instructions are MADs at 16×16.
        let mut m = model();
        let r = case(128, 16).run(machine(), &mut m).unwrap();
        let d = r.analysis.computational_density;
        assert!((0.7..0.95).contains(&d), "density {d:.2}");
    }

    #[test]
    fn thirty_two_is_shared_memory_bound() {
        // Paper §5.1: 32×32 is shared-memory-bound because occupancy drops
        // to 3 blocks/6 warps; 16×16 is never global-memory-bound. (The
        // full three-way comparison at the paper's saturated 1024² grid is
        // regenerated by the fig4 bench binary; small grids distort the
        // instruction/shared balance because warp counts sit below the
        // knees of both curves.)
        let mut m = model();
        let r16 = case(128, 16).run(machine(), &mut m).unwrap();
        assert_ne!(r16.analysis.bottleneck, Component::GlobalMemory);
        // n = 384 is the smallest grid giving the paper's 3 resident
        // blocks / 6 warps at the 32×32 tile.
        let r32 = case(384, 32).run(machine(), &mut m).unwrap();
        assert_eq!(r32.input.occupancy.active_warps, 6);
        assert_eq!(r32.analysis.bottleneck, Component::SharedMemory);
    }

    #[test]
    fn sixteen_beats_thirty_two_even_on_small_grids() {
        // The 32×32 occupancy penalty (6 warps) hurts at any size.
        let mut m = model();
        let t16 = case(128, 16)
            .run(machine(), &mut m)
            .unwrap()
            .measured_seconds();
        let t32 = case(128, 32)
            .run(machine(), &mut m)
            .unwrap()
            .measured_seconds();
        assert!(t16 < t32, "16×16 {t16:.3e} < 32×32 {t32:.3e}");
    }

    /// Paper Figure 4b's full ordering (16×16 fastest) needs a grid large
    /// enough to saturate all 30 SMs at each tile size; run with
    /// `cargo test -- --ignored --release` or regenerate via the `fig4`
    /// bench binary at n = 1024.
    #[test]
    #[ignore = "saturated-grid comparison; slow in debug builds"]
    fn sixteen_by_sixteen_is_fastest_saturated() {
        let mut m = model();
        let times: Vec<f64> = TILES
            .iter()
            .map(|t| {
                case(512, *t)
                    .run(machine(), &mut m)
                    .unwrap()
                    .measured_seconds()
            })
            .collect();
        assert!(
            times[1] < times[0],
            "16×16 {:.3e} < 8×8 {:.3e}",
            times[1],
            times[0]
        );
        assert!(
            times[1] < times[2],
            "16×16 {:.3e} < 32×32 {:.3e}",
            times[1],
            times[2]
        );
    }

    #[test]
    fn model_tracks_measurement() {
        // The microbenchmark curves are measured on dependent chains
        // (ILP 1); the matmul's 8–32 independent accumulators out-run them
        // when warps are scarce, so accuracy claims need a grid that fills
        // the SMs reasonably. n = 256 gives 5 resident blocks at 8×8 and
        // 3 at 16×16.
        let mut m = model();
        for tile in [8u32, 16] {
            let r = case(256, tile).run(machine(), &mut m).unwrap();
            let err = r.model_error().abs();
            assert!(
                err < 0.40,
                "tile {tile}: predicted {:.3e}, measured {:.3e} ({:.0}%)",
                r.predicted_seconds(),
                r.measured_seconds(),
                err * 100.0
            );
        }
    }
}
