//! Sparse matrix–vector multiply (paper §5.3).
//!
//! The paper studies SpMV on a *naturally 3×3-blocked* sparse matrix (the
//! QCD matrix of the Bell & Garland suite) in three storage formats:
//!
//! * **ELL** — the ELLPACK format: rows padded to a uniform width and
//!   stored column-by-column so that value and column-index loads coalesce.
//!   One thread per scalar row; per entry it loads a matrix value, a column
//!   index, and a gathered vector entry.
//! * **BELL+IM** — blocked ELLPACK with interleaved matrix storage: one
//!   thread per 3×3 block-row; a single column index serves nine values
//!   (column-index bytes drop to 4/9 ≈ 0.44 per entry, paper Figure 11a)
//!   and the value planes stay coalesced.
//! * **BELL+IMIV** — additionally stores the **vector interleaved** in
//!   three planes, the paper's contribution: gathers of `x[3c]`,
//!   `x[3c+1]`, `x[3c+2]` become three per-plane gathers at 4-byte stride,
//!   so neighbouring threads' vector entries share transactions far more
//!   often (+18% end-to-end in the paper, Figure 12).
//!
//! The matrix is a synthetic **QCD-like** operator: a periodic 4-D lattice
//! where every site couples to itself and its eight ±1 neighbours with a
//! 3×3 block — exactly the structural properties (block size, nine blocks
//! per block-row, mixed near/far column distances) the paper's analysis
//! depends on. It stands in for the paper's lattice-QCD matrix, which is
//! not published with the paper.
//!
//! All three kernels are global-memory-bound; the texture-cache variants
//! of Figure 12 are produced by routing the vector region through the
//! timing simulator's per-cluster texture cache.

use crate::workflow::{run_study, CaseError, CaseRun, CaseStudy, Region, TraceMode};
use gpa_core::Model;
use gpa_hw::{KernelResources, Machine};
use gpa_isa::builder::{BuildError, KernelBuilder};
use gpa_isa::instr::{MemAddr, SpecialReg, Src, Width};
use gpa_isa::Kernel;
use gpa_sim::{GlobalMemory, LaunchConfig, Threads};

/// Threads per block for all SpMV kernels.
pub const THREADS: u32 = 256;

/// Blocks per block-row of the QCD-like operator (self + 8 neighbours).
pub const BLOCKS_PER_ROW: u32 = 9;

/// Storage formats under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Scalar ELLPACK.
    Ell,
    /// Blocked ELLPACK, interleaved matrix.
    BellIm,
    /// Blocked ELLPACK, interleaved matrix *and* vector.
    BellImIv,
}

impl Format {
    /// All formats in the paper's presentation order.
    pub const ALL: [Format; 3] = [Format::Ell, Format::BellIm, Format::BellImIv];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Format::Ell => "ELL",
            Format::BellIm => "BELL+IM",
            Format::BellImIv => "BELL+IMIV",
        }
    }
}

/// A QCD-like block-sparse matrix: `brows` block-rows of nine 3×3 blocks.
///
/// Storage is already "interleaved matrix" (plane-major): block-column
/// indices as nine planes `bcol[j][brow]`, values as 81 planes
/// `values[j*9 + e][brow]` with `e = r*3 + c` inside the block.
#[derive(Debug, Clone)]
pub struct BlockSparse {
    /// Lattice extent.
    pub l: u32,
    /// Block rows (= lattice sites = L⁴).
    pub brows: u32,
    /// `bcol[j * brows + i]`: block column of slot `j` in block-row `i`.
    pub bcol: Vec<u32>,
    /// `values[(j*9 + e) * brows + i]`: element `e` of slot `j`.
    pub values: Vec<f32>,
}

impl BlockSparse {
    /// Scalar rows.
    pub fn rows(&self) -> u32 {
        3 * self.brows
    }

    /// Scalar non-zeros.
    pub fn nnz(&self) -> u64 {
        u64::from(self.brows) * u64::from(BLOCKS_PER_ROW) * 9
    }

    /// FLOPs of one SpMV (multiply + add per non-zero).
    pub fn flops(&self) -> u64 {
        2 * self.nnz()
    }
}

/// Generate the QCD-like operator on an `l⁴` periodic lattice.
///
/// # Panics
///
/// Panics unless `l ≥ 2` and `l⁴` is a multiple of [`THREADS`] (so kernels
/// need no row guards; `l ∈ {4, 8, 12, 16}` all qualify).
pub fn qcd_like(l: u32, seed: u32) -> BlockSparse {
    let sites = l * l * l * l;
    assert!(l >= 2, "lattice too small");
    assert_eq!(sites % THREADS, 0, "l⁴ must be a multiple of {THREADS}");
    let site = |x: u32, y: u32, z: u32, t: u32| ((t * l + z) * l + y) * l + x;
    let mut bcol = vec![0u32; (BLOCKS_PER_ROW * sites) as usize];
    for x in 0..l {
        for y in 0..l {
            for z in 0..l {
                for t in 0..l {
                    let s = site(x, y, z, t);
                    let up = |v: u32| (v + 1) % l;
                    let dn = |v: u32| (v + l - 1) % l;
                    let neighbours = [
                        s,
                        site(up(x), y, z, t),
                        site(dn(x), y, z, t),
                        site(x, up(y), z, t),
                        site(x, dn(y), z, t),
                        site(x, y, up(z), t),
                        site(x, y, dn(z), t),
                        site(x, y, z, up(t)),
                        site(x, y, z, dn(t)),
                    ];
                    for (j, n) in neighbours.into_iter().enumerate() {
                        bcol[j * sites as usize + s as usize] = n;
                    }
                }
            }
        }
    }
    let mut state = seed | 1;
    let mut rnd = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        ((state >> 16) & 0xFF) as f32 / 256.0 - 0.5
    };
    let values = (0..81 * sites).map(|_| rnd()).collect();
    BlockSparse {
        l,
        brows: sites,
        bcol,
        values,
    }
}

/// Scalar ELLPACK view of a [`BlockSparse`] (27 slots per scalar row,
/// column-major planes).
#[derive(Debug, Clone)]
pub struct EllMatrix {
    /// Scalar rows.
    pub rows: u32,
    /// Entries per row (27 for the QCD-like operator).
    pub width: u32,
    /// `col[slot * rows + row]`.
    pub col: Vec<u32>,
    /// `val[slot * rows + row]`.
    pub val: Vec<f32>,
}

/// Expand the block matrix into scalar ELL (slot order `j*3 + c`, matching
/// the kernels' accumulation order so results agree bitwise).
pub fn to_ell(m: &BlockSparse) -> EllMatrix {
    let rows = m.rows();
    let width = BLOCKS_PER_ROW * 3;
    let brows = m.brows as usize;
    let mut col = vec![0u32; (rows * width) as usize];
    let mut val = vec![0f32; (rows * width) as usize];
    for bi in 0..brows {
        for r in 0..3usize {
            let row = bi * 3 + r;
            for j in 0..BLOCKS_PER_ROW as usize {
                let bc = m.bcol[j * brows + bi];
                for c in 0..3usize {
                    let slot = j * 3 + c;
                    col[slot * rows as usize + row] = bc * 3 + c as u32;
                    val[slot * rows as usize + row] = m.values[(j * 9 + r * 3 + c) * brows + bi];
                }
            }
        }
    }
    EllMatrix {
        rows,
        width,
        col,
        val,
    }
}

/// CPU reference SpMV in the kernels' accumulation order (ascending block
/// slot, then ascending column within the block, fused multiply-add), so
/// device results match exactly.
pub fn reference(m: &BlockSparse, x: &[f32]) -> Vec<f32> {
    let brows = m.brows as usize;
    let mut y = vec![0f32; 3 * brows];
    for bi in 0..brows {
        let mut acc = [0f32; 3];
        for j in 0..BLOCKS_PER_ROW as usize {
            let bc = m.bcol[j * brows + bi] as usize;
            for (r, a) in acc.iter_mut().enumerate() {
                for c in 0..3usize {
                    let v = m.values[(j * 9 + r * 3 + c) * brows + bi];
                    *a = v.mul_add(x[bc * 3 + c], *a);
                }
            }
        }
        for (r, a) in acc.iter().enumerate() {
            y[bi * 3 + r] = *a;
        }
    }
    y
}

/// Build the scalar ELL kernel.
///
/// Parameters: column-index base, value base, x base, y base.
/// One thread per scalar row; 27 slots, plane pointers advanced per slot.
///
/// # Errors
///
/// Propagates kernel-builder errors.
pub fn ell_kernel(m: &BlockSparse) -> Result<Kernel, BuildError> {
    let rows = m.rows();
    let mut b = KernelBuilder::new("spmv_ell");
    b.set_threads(THREADS);
    let col_p = b.param_alloc();
    let val_p = b.param_alloc();
    let x_p = b.param_alloc();
    let y_p = b.param_alloc();

    let row = b.alloc_reg()?;
    let tmp = b.alloc_reg()?;
    b.s2r(row, SpecialReg::TidX);
    b.s2r(tmp, SpecialReg::CtaIdX);
    b.imad(row, Src::Reg(tmp), Src::Imm(THREADS as i32), Src::Reg(row));

    let roff = b.alloc_reg()?; // row byte offset within a plane
    b.shl(roff, Src::Reg(row), Src::Imm(2));
    let cbase = b.alloc_reg()?;
    b.ld_param(cbase, col_p);
    b.iadd(cbase, Src::Reg(cbase), Src::Reg(roff));
    let vbase = b.alloc_reg()?;
    b.ld_param(vbase, val_p);
    b.iadd(vbase, Src::Reg(vbase), Src::Reg(roff));
    let xbase = b.alloc_reg()?;
    b.ld_param(xbase, x_p);
    let plane = b.alloc_reg()?; // plane stride in bytes
    b.mov_imm(plane, rows * 4);

    let acc = b.alloc_reg()?;
    b.mov_imm_f32(acc, 0.0);
    let cidx = b.alloc_reg()?;
    let xv = b.alloc_reg()?;
    let mv = b.alloc_reg()?;

    for _slot in 0..27 {
        b.ld_global(cidx, MemAddr::new(Some(cbase), 0), Width::B32);
        b.ld_global(mv, MemAddr::new(Some(vbase), 0), Width::B32);
        b.shl(cidx, Src::Reg(cidx), Src::Imm(2));
        b.iadd(cidx, Src::Reg(cidx), Src::Reg(xbase));
        b.ld_global(xv, MemAddr::new(Some(cidx), 0), Width::B32);
        b.fmad(acc, Src::Reg(mv), Src::Reg(xv), Src::Reg(acc));
        b.iadd(cbase, Src::Reg(cbase), Src::Reg(plane));
        b.iadd(vbase, Src::Reg(vbase), Src::Reg(plane));
    }

    // y[row] = acc
    b.ld_param(tmp, y_p);
    b.iadd(tmp, Src::Reg(tmp), Src::Reg(roff));
    b.st_global(MemAddr::new(Some(tmp), 0), acc, Width::B32);
    b.exit();

    b.declare_resources(KernelResources::new(14, 256, THREADS));
    b.finish()
}

/// Build a blocked-ELL kernel (`interleaved_vector` selects BELL+IMIV).
///
/// Parameters: block-column base, value base, x base, y base.
/// One thread per block-row; nine blocks, value planes advanced
/// sequentially (j-major layout), three accumulators.
///
/// # Errors
///
/// Propagates kernel-builder errors.
pub fn bell_kernel(m: &BlockSparse, interleaved_vector: bool) -> Result<Kernel, BuildError> {
    let brows = m.brows;
    let name = if interleaved_vector {
        "spmv_bell_imiv"
    } else {
        "spmv_bell_im"
    };
    let mut b = KernelBuilder::new(name);
    b.set_threads(THREADS);
    let col_p = b.param_alloc();
    let val_p = b.param_alloc();
    let x_p = b.param_alloc();
    let y_p = b.param_alloc();

    let brow = b.alloc_reg()?;
    let tmp = b.alloc_reg()?;
    b.s2r(brow, SpecialReg::TidX);
    b.s2r(tmp, SpecialReg::CtaIdX);
    b.imad(
        brow,
        Src::Reg(tmp),
        Src::Imm(THREADS as i32),
        Src::Reg(brow),
    );

    let roff = b.alloc_reg()?;
    b.shl(roff, Src::Reg(brow), Src::Imm(2));
    let cbase = b.alloc_reg()?;
    b.ld_param(cbase, col_p);
    b.iadd(cbase, Src::Reg(cbase), Src::Reg(roff));
    let vbase = b.alloc_reg()?;
    b.ld_param(vbase, val_p);
    b.iadd(vbase, Src::Reg(vbase), Src::Reg(roff));
    let xbase = b.alloc_reg()?;
    b.ld_param(xbase, x_p);
    let plane = b.alloc_reg()?;
    b.mov_imm(plane, brows * 4);

    let acc: Vec<_> = (0..3).map(|_| b.alloc_reg()).collect::<Result<_, _>>()?;
    for a in &acc {
        b.mov_imm_f32(*a, 0.0);
    }
    let vv: Vec<_> = (0..9).map(|_| b.alloc_reg()).collect::<Result<_, _>>()?;
    let xv: Vec<_> = (0..3).map(|_| b.alloc_reg()).collect::<Result<_, _>>()?;
    let bc = b.alloc_reg()?;
    let xa = b.alloc_reg()?;

    for _j in 0..BLOCKS_PER_ROW {
        // Block column index (one per nine values — the BELL saving).
        b.ld_global(bc, MemAddr::new(Some(cbase), 0), Width::B32);
        b.iadd(cbase, Src::Reg(cbase), Src::Reg(plane));
        // Vector entries x[3c..3c+3].
        if interleaved_vector {
            // Three planes of brows entries each: x_p[p][c].
            b.shl(xa, Src::Reg(bc), Src::Imm(2));
            b.iadd(xa, Src::Reg(xa), Src::Reg(xbase));
            b.ld_global(xv[0], MemAddr::new(Some(xa), 0), Width::B32);
            b.iadd(xa, Src::Reg(xa), Src::Reg(plane));
            b.ld_global(xv[1], MemAddr::new(Some(xa), 0), Width::B32);
            b.iadd(xa, Src::Reg(xa), Src::Reg(plane));
            b.ld_global(xv[2], MemAddr::new(Some(xa), 0), Width::B32);
        } else {
            // Straightforward storage: three consecutive entries at 3c.
            b.imul(xa, Src::Reg(bc), Src::Imm(12));
            b.iadd(xa, Src::Reg(xa), Src::Reg(xbase));
            b.ld_global(xv[0], MemAddr::new(Some(xa), 0), Width::B32);
            b.ld_global(xv[1], MemAddr::new(Some(xa), 4), Width::B32);
            b.ld_global(xv[2], MemAddr::new(Some(xa), 8), Width::B32);
        }
        // Nine values (planes are j-major, so the pointer just walks on).
        for v in &vv {
            b.ld_global(*v, MemAddr::new(Some(vbase), 0), Width::B32);
            b.iadd(vbase, Src::Reg(vbase), Src::Reg(plane));
        }
        // acc[r] += v[r][c] · x[c]
        for r in 0..3 {
            for c in 0..3 {
                b.fmad(
                    acc[r],
                    Src::Reg(vv[r * 3 + c]),
                    Src::Reg(xv[c]),
                    Src::Reg(acc[r]),
                );
            }
        }
    }

    // Store y (interleaved when the vector is, so chained SpMV would keep
    // the layout; unpermuted on the host).
    let ya = b.alloc_reg()?;
    b.ld_param(ya, y_p);
    if interleaved_vector {
        b.iadd(ya, Src::Reg(ya), Src::Reg(roff));
        for (r, a) in acc.iter().enumerate() {
            b.st_global(MemAddr::new(Some(ya), 0), *a, Width::B32);
            if r < 2 {
                b.iadd(ya, Src::Reg(ya), Src::Reg(plane));
            }
        }
    } else {
        b.imul(tmp, Src::Reg(brow), Src::Imm(12));
        b.iadd(ya, Src::Reg(ya), Src::Reg(tmp));
        for (r, a) in acc.iter().enumerate() {
            b.st_global(MemAddr::new(Some(ya), (r * 4) as i32), *a, Width::B32);
        }
    }
    b.exit();

    b.declare_resources(KernelResources::new(26, 256, THREADS));
    b.finish()
}

/// Host-side data for one SpMV run.
#[derive(Debug)]
pub struct SpmvData {
    /// The operator.
    pub matrix: BlockSparse,
    /// Input vector (straightforward order).
    pub x: Vec<f32>,
    /// Device addresses: col, val, x, y.
    pub dev: [u64; 4],
    /// Whether x/y are stored interleaved on the device.
    pub interleaved: bool,
}

/// Upload one format's data. `x` is permuted into planes for BELL+IMIV.
pub fn setup(gmem: &mut GlobalMemory, m: &BlockSparse, format: Format, seed: u32) -> SpmvData {
    let brows = m.brows as usize;
    let mut state = seed | 1;
    let mut rnd = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        ((state >> 16) & 0xFF) as f32 / 256.0 - 0.5
    };
    let x: Vec<f32> = (0..3 * brows).map(|_| rnd()).collect();
    let interleaved = format == Format::BellImIv;

    let (col_dev, val_dev) = match format {
        Format::Ell => {
            let e = to_ell(m);
            (gmem.alloc_u32(&e.col), gmem.alloc_f32(&e.val))
        }
        Format::BellIm | Format::BellImIv => (gmem.alloc_u32(&m.bcol), gmem.alloc_f32(&m.values)),
    };
    let x_dev = if interleaved {
        // Plane p holds x[3c + p] at index c.
        let mut planes = vec![0f32; 3 * brows];
        for c in 0..brows {
            for p in 0..3 {
                planes[p * brows + c] = x[3 * c + p];
            }
        }
        gmem.alloc_f32(&planes)
    } else {
        gmem.alloc_f32(&x)
    };
    let y_dev = gmem.alloc(3 * brows as u64 * 4, 128);
    SpmvData {
        matrix: m.clone(),
        x,
        dev: [col_dev, val_dev, x_dev, y_dev],
        interleaved,
    }
}

/// Read back y, undoing the interleaved layout if needed.
pub fn read_y(gmem: &GlobalMemory, data: &SpmvData) -> Vec<f32> {
    let brows = data.matrix.brows as usize;
    let raw = gmem.read_f32s(data.dev[3], 3 * brows).expect("y readable");
    if data.interleaved {
        let mut y = vec![0f32; 3 * brows];
        for c in 0..brows {
            for p in 0..3 {
                y[3 * c + p] = raw[p * brows + c];
            }
        }
        y
    } else {
        raw
    }
}

/// Prepare the SpMV case study for one format, optionally with the
/// vector bound to the texture cache (the `+Cache` variants of paper
/// Figure 12): kernel, device image, regions, and the CPU oracle.
///
/// # Panics
///
/// Panics if the format kernel cannot be built for `m`; the
/// `gpa-service` request path validates before calling.
pub fn case(m: &BlockSparse, format: Format, texture: bool) -> CaseStudy {
    let kernel = match format {
        Format::Ell => ell_kernel(m).expect("ELL kernel builds"),
        Format::BellIm => bell_kernel(m, false).expect("BELL+IM kernel builds"),
        Format::BellImIv => bell_kernel(m, true).expect("BELL+IMIV kernel builds"),
    };
    let mut gmem = GlobalMemory::new();
    let data = setup(&mut gmem, m, format, 0x5151);
    let blocks = match format {
        Format::Ell => m.rows() / THREADS,
        _ => m.brows / THREADS,
    };
    let launch = LaunchConfig::new_1d(blocks, THREADS);
    let params: Vec<u32> = data.dev.iter().map(|d| *d as u32).collect();
    let brows = u64::from(m.brows);
    let (col_len, val_len) = match format {
        Format::Ell => (u64::from(m.rows()) * 27 * 4, u64::from(m.rows()) * 27 * 4),
        _ => (brows * 9 * 4, brows * 81 * 4),
    };
    let xlen = 3 * brows * 4;
    let mut xregion = Region::new("vector", data.dev[2], xlen);
    xregion.texture = texture;
    let regions = vec![
        Region::new("colidx", data.dev[0], col_len),
        Region::new("matrix", data.dev[1], val_len),
        xregion,
        Region::new("y", data.dev[3], xlen),
    ];
    let label = format!(
        "spmv {}{} ({} rows)",
        format.name(),
        if texture { "+Cache" } else { "" },
        m.rows()
    );
    let flops = m.flops();
    let matrix = m.clone();
    let verify = move |gmem: &GlobalMemory| {
        let got = read_y(gmem, &data);
        let want = reference(&matrix, &data.x);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            // Negated so a NaN result fails verification too.
            let ok = (g - w).abs() <= 1e-4 * w.abs().max(1.0);
            if !ok {
                return Err(format!("y[{i}] = {g}, reference {w} ({format:?})"));
            }
        }
        Ok(())
    };
    CaseStudy::new(
        label,
        kernel,
        launch,
        params,
        gmem,
        regions,
        TraceMode::Auto,
        flops,
        Some(Box::new(verify)),
    )
}

/// Run the full workflow for one format on a single thread (the
/// deterministic baseline), optionally with the vector bound to the
/// texture cache (the `+Cache` variants of paper Figure 12).
///
/// # Errors
///
/// Propagates simulation and extraction errors.
///
/// # Panics
///
/// Panics if verification fails.
pub fn run(
    machine: &Machine,
    model: &mut Model<'_>,
    m: &BlockSparse,
    format: Format,
    texture: bool,
    verify: bool,
) -> Result<CaseRun, CaseError> {
    run_with_threads(machine, model, m, format, texture, verify, 1)
}

/// Like [`run`], with block execution (and the per-block trace pass)
/// sharded across `threads` worker threads (plain counts convert: `0` =
/// auto). Results are bit-identical to [`run`].
///
/// # Errors
///
/// Propagates simulation and extraction errors.
///
/// # Panics
///
/// Panics if verification fails.
pub fn run_with_threads(
    machine: &Machine,
    model: &mut Model<'_>,
    m: &BlockSparse,
    format: Format,
    texture: bool,
    verify: bool,
    threads: impl Into<Threads>,
) -> Result<CaseRun, CaseError> {
    let mut study = case(m, format, texture);
    let run = run_study(machine, model, &mut study, threads.into(), None)?;
    if verify {
        study.check().unwrap_or_else(|e| panic!("{e}"));
    }
    Ok(run)
}

/// Bytes per scalar non-zero attributed to a named region at coalescing
/// granularity index `g` (the paper's Figure 11a metric).
pub fn bytes_per_entry(run: &CaseRun, m: &BlockSparse, region: &str, g: usize) -> f64 {
    let r = run
        .input
        .stats
        .regions
        .iter()
        .find(|r| r.name == region)
        .unwrap_or_else(|| panic!("region {region} missing"));
    r.gmem[g].bytes as f64 / m.nnz() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_core::Component;
    use gpa_sim::stats::GRAN_GT200;
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

    /// Small matrix: structure and correctness checks.
    fn matrix() -> &'static BlockSparse {
        static M: OnceLock<BlockSparse> = OnceLock::new();
        M.get_or_init(|| qcd_like(4, 0xACDC))
    }

    /// Performance matrix: large enough that the 48 KB vector defeats the
    /// 8 KB texture cache and the grid covers the SMs (the paper's QCD
    /// matrix is larger still; the bench binaries use L = 12).
    fn perf_matrix() -> &'static BlockSparse {
        static M: OnceLock<BlockSparse> = OnceLock::new();
        M.get_or_init(|| qcd_like(8, 0xACDC))
    }

    #[test]
    fn qcd_structure() {
        let m = matrix();
        assert_eq!(m.brows, 256);
        assert_eq!(m.rows(), 768);
        assert_eq!(m.nnz(), 256 * 81);
        // Each block-row references itself and eight distinct neighbours.
        for bi in 0..m.brows as usize {
            assert_eq!(m.bcol[bi], bi as u32, "slot 0 is the diagonal");
            let mut n: Vec<u32> = (0..9).map(|j| m.bcol[j * 256 + bi]).collect();
            n.sort_unstable();
            n.dedup();
            assert_eq!(n.len(), 9, "block-row {bi} has duplicate neighbours");
        }
    }

    #[test]
    fn all_formats_compute_the_same_product() {
        let mut md = model();
        for format in Format::ALL {
            run(machine(), &mut md, matrix(), format, false, true).unwrap();
        }
    }

    #[test]
    fn all_formats_are_global_memory_bound() {
        // Paper Figure 11b: "In all three cases, the performance is
        // bottlenecked by global memory access."
        let mut md = model();
        for format in Format::ALL {
            let r = run(machine(), &mut md, perf_matrix(), format, false, false).unwrap();
            assert_eq!(
                r.analysis.bottleneck,
                Component::GlobalMemory,
                "{}",
                format.name()
            );
        }
    }

    #[test]
    fn figure_11a_byte_accounting() {
        let mut md = model();
        let m = matrix();
        let ell = run(machine(), &mut md, m, Format::Ell, false, false).unwrap();
        let im = run(machine(), &mut md, m, Format::BellIm, false, false).unwrap();
        let iv = run(machine(), &mut md, m, Format::BellImIv, false, false).unwrap();

        // Matrix values: 4 B per entry, fully coalesced, in every format.
        for (r, name) in [(&ell, "ELL"), (&im, "BELL+IM"), (&iv, "BELL+IMIV")] {
            let v = bytes_per_entry(r, m, "matrix", GRAN_GT200);
            assert!((v - 4.0).abs() < 0.2, "{name} matrix bytes/entry {v:.2}");
        }
        // Column indices: 4 B in ELL, 4/9 ≈ 0.44 B in BELL.
        let c_ell = bytes_per_entry(&ell, m, "colidx", GRAN_GT200);
        assert!((c_ell - 4.0).abs() < 0.2, "ELL colidx {c_ell:.2}");
        for (r, name) in [(&im, "BELL+IM"), (&iv, "BELL+IMIV")] {
            let c = bytes_per_entry(r, m, "colidx", GRAN_GT200);
            assert!((c - 4.0 / 9.0).abs() < 0.1, "{name} colidx {c:.2}");
        }
        // Vector gathers: interleaving reduces bytes (the key insight),
        // and a finer granularity helps every format (paper's 16 B study).
        let x_im = bytes_per_entry(&im, m, "vector", GRAN_GT200);
        let x_iv = bytes_per_entry(&iv, m, "vector", GRAN_GT200);
        assert!(
            x_iv < 0.8 * x_im,
            "interleaving should cut vector bytes: IM {x_im:.2} vs IV {x_iv:.2}"
        );
        for (r, name) in [(&ell, "ELL"), (&im, "BELL+IM"), (&iv, "BELL+IMIV")] {
            let b32 = bytes_per_entry(r, m, "vector", 0);
            let b16 = bytes_per_entry(r, m, "vector", 1);
            let b4 = bytes_per_entry(r, m, "vector", 2);
            assert!(
                b16 <= b32 && b4 <= b16,
                "{name}: vector bytes must fall with granularity ({b32:.2}, {b16:.2}, {b4:.2})"
            );
        }
    }

    #[test]
    fn interleaved_vector_is_fastest_without_cache() {
        // Paper Figure 12: BELL+IMIV beats BELL+IM (and ELL) even without
        // the texture cache.
        let mut md = model();
        let m = perf_matrix();
        let t: Vec<f64> = Format::ALL
            .iter()
            .map(|f| {
                run(machine(), &mut md, m, *f, false, false)
                    .unwrap()
                    .measured_seconds()
            })
            .collect();
        assert!(t[2] < t[1], "IMIV {:.3e} < IM {:.3e}", t[2], t[1]);
        assert!(t[2] < t[0], "IMIV {:.3e} < ELL {:.3e}", t[2], t[0]);
    }

    #[test]
    fn texture_cache_helps_every_format() {
        let mut md = model();
        let m = perf_matrix();
        for format in Format::ALL {
            let plain = run(machine(), &mut md, m, format, false, false).unwrap();
            let cached = run(machine(), &mut md, m, format, true, false).unwrap();
            assert!(
                cached.measured_seconds() < plain.measured_seconds(),
                "{}: cache {:.3e} should beat plain {:.3e}",
                format.name(),
                cached.measured_seconds(),
                plain.measured_seconds()
            );
        }
    }

    #[test]
    fn best_combination_is_imiv_with_cache() {
        // Paper Figure 12's winner: BELL+IMIV+Cache.
        let mut md = model();
        let m = perf_matrix();
        let best = run(machine(), &mut md, m, Format::BellImIv, true, false).unwrap();
        let prior_best = run(machine(), &mut md, m, Format::BellIm, true, false).unwrap();
        assert!(
            best.measured_seconds() < prior_best.measured_seconds(),
            "IMIV+Cache {:.3e} < IM+Cache {:.3e}",
            best.measured_seconds(),
            prior_best.measured_seconds()
        );
    }

    #[test]
    fn model_error_within_band() {
        // Paper §5.3: bottleneck-component error within 5%; we allow a
        // wider reproduction band.
        let mut md = model();
        let m = perf_matrix();
        for format in Format::ALL {
            let r = run(machine(), &mut md, m, format, false, false).unwrap();
            let err = r.model_error().abs();
            assert!(
                err < 0.40,
                "{}: predicted {:.3e}, measured {:.3e} ({:.0}%)",
                format.name(),
                r.predicted_seconds(),
                r.measured_seconds(),
                err * 100.0
            );
        }
    }

    #[test]
    fn low_computational_density_is_diagnosed() {
        // Paper §5.3: ~1/10 of instructions do computation; the what-if on
        // granularity shows 16 B transactions would help.
        let mut md = model();
        let m = perf_matrix();
        let r = run(machine(), &mut md, m, Format::Ell, false, false).unwrap();
        assert!(
            r.analysis.computational_density < 0.3,
            "density {:.2}",
            r.analysis.computational_density
        );
        let w = md.what_if_granularity(&r.input, 1);
        assert!(
            w.speedup > 1.0,
            "16 B granularity should predict a speedup, got ×{:.2}",
            w.speedup
        );
    }
}
