//! The workload zoo: twelve named, parameterizable micro-workloads, one
//! per canonical GPU performance pattern, each addressable by name over
//! the service wire (`"case": "named"`) and from the `gpa-analyze` CLI
//! (`--workload`).
//!
//! | Name | Pattern it exercises |
//! |------|----------------------|
//! | `vector_add` | streaming, perfectly coalesced global traffic |
//! | `saxpy` | streaming read-modify-write with an FMA |
//! | `strided_copy` | stride-8 global accesses wasting transaction bytes |
//! | `naive_transpose` | coalesced reads, fully uncoalesced column writes |
//! | `shared_transpose` | tile staging through padded (conflict-free) shared memory |
//! | `reduce_sum` | butterfly reduction, shared-memory traffic dominated |
//! | `dot_product` | fused multiply + butterfly reduction |
//! | `histogram` | skewed shared-memory atomics (contended bins) |
//! | `atomic_hotspot` | every lane hammering one shared word atomically |
//! | `shared_bank_conflict` | stride-2 shared accesses (2-way bank conflicts) |
//! | `random_access` | data-dependent gathers, uncoalesced |
//! | `vector_add_divergent` | intra-warp branch divergence on an odd/even split |
//!
//! Every workload is a [`CaseStudy`] with a CPU-reference verifier, built
//! from two scale knobs: `n` (elements, or the matrix dimension for the
//! transposes) and `seed` (deterministic input data). Regions are
//! allocated in declaration order at [`REGION_ALIGN`] — the same contract
//! as the service's custom-kernel arena — so a zoo workload and its
//! hand-built `KernelSpec::Custom` equivalent produce byte-identical
//! reports.

use crate::workflow::{CaseStudy, Region, Verifier};
use gpa_hw::KernelResources;
use gpa_isa::builder::{BuildError, KernelBuilder};
use gpa_isa::instr::{CmpOp, MemAddr, NumTy, Pred, Reg, SpecialReg, Src, Width};
use gpa_isa::Kernel;
use gpa_sim::{GlobalMemory, LaunchConfig};

/// Threads per block for every zoo workload (the transposes map the
/// 256 threads onto a 16×16 tile).
pub const THREADS: u32 = 256;

/// Region alignment: matches the service's custom-kernel arena
/// (`gpa_service::CUSTOM_REGION_ALIGN`), so region base addresses — and
/// therefore reports — are identical between a named workload and its
/// wire-encoded custom equivalent.
pub const REGION_ALIGN: u64 = 256;

/// Shared-memory histogram bins.
pub const HISTOGRAM_BINS: u32 = 64;

/// Distinct bins the skewed histogram input actually touches — the skew
/// is the point: it concentrates atomics onto few bins so contention
/// (not bandwidth) binds.
pub const HISTOGRAM_HOT_BINS: u32 = 4;

/// Atomic increments per histogram item (each item is inserted with
/// weight [`HISTOGRAM_REPEAT`]): keeps the atomic pipeline — not the two
/// coalesced global streams — the dominant cost.
pub const HISTOGRAM_REPEAT: u32 = 4;

/// Atomic adds per thread in `atomic_hotspot`.
pub const HOTSPOT_ITERS: u32 = 16;

/// Word stride of `strided_copy` (8 words = 32 bytes: every half-warp
/// transaction carries mostly unrequested bytes).
pub const COPY_STRIDE_WORDS: u32 = 8;

/// Shared load/store round trips in `shared_bank_conflict`.
pub const CONFLICT_ROUNDS: u32 = 8;

/// One zoo entry: the name clients address it by, a one-line
/// description, and the default problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Wire/CLI name (also the kernel name in reports).
    pub name: &'static str,
    /// One-line description for listings (`GET /v1/workloads`).
    pub description: &'static str,
    /// Default `n` when a request omits the knob.
    pub default_n: u32,
}

/// The zoo, in listing order.
pub const WORKLOADS: [Workload; 12] = [
    Workload {
        name: "vector_add",
        description: "streaming c[i] = a[i] + b[i], perfectly coalesced",
        default_n: 4096,
    },
    Workload {
        name: "saxpy",
        description: "y[i] = alpha * x[i] + y[i] (fused multiply-add)",
        default_n: 4096,
    },
    Workload {
        name: "strided_copy",
        description: "stride-8 copy wasting global transaction bytes",
        default_n: 4096,
    },
    Workload {
        name: "naive_transpose",
        description: "n x n transpose with uncoalesced column writes",
        default_n: 128,
    },
    Workload {
        name: "shared_transpose",
        description: "tiled transpose staged through padded shared memory",
        default_n: 128,
    },
    Workload {
        name: "reduce_sum",
        description: "per-block butterfly sum in shared memory",
        default_n: 4096,
    },
    Workload {
        name: "dot_product",
        description: "per-block dot partials via fmul + butterfly reduce",
        default_n: 4096,
    },
    Workload {
        name: "histogram",
        description: "64-bin shared histogram, skewed input (contended atomics)",
        default_n: 4096,
    },
    Workload {
        name: "atomic_hotspot",
        description: "every lane atomically increments one shared word",
        default_n: 4096,
    },
    Workload {
        name: "shared_bank_conflict",
        description: "stride-2 shared accesses: 2-way bank conflicts",
        default_n: 4096,
    },
    Workload {
        name: "random_access",
        description: "data-dependent gather through an index table",
        default_n: 4096,
    },
    Workload {
        name: "vector_add_divergent",
        description: "vector add with an odd/even intra-warp branch split",
        default_n: 4096,
    },
];

/// Look up a workload by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Largest accepted `n` for the 1-D (element-count) workloads.
pub const MAX_ELEMS: u32 = 1 << 18;

/// Check the scale knobs for `name`.
///
/// # Errors
///
/// A message naming the violated constraint (unknown workload, or `n`
/// out of the workload's supported range).
pub fn validate(name: &str, n: u32) -> Result<(), String> {
    if find(name).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{name}`; available: {}",
            names.join(", ")
        ));
    }
    match name {
        "naive_transpose" | "shared_transpose" => {
            if !n.is_power_of_two() || !(64..=1024).contains(&n) {
                return Err(format!("{name} n={n} must be a power of two in 64..=1024"));
            }
        }
        _ => {
            if !n.is_multiple_of(THREADS) || !(THREADS..=MAX_ELEMS).contains(&n) {
                return Err(format!(
                    "{name} n={n} must be a multiple of {THREADS} in {THREADS}..={MAX_ELEMS}"
                ));
            }
        }
    }
    Ok(())
}

// ---- deterministic input data ----

/// SplitMix64 over `(seed, index)`, reduced to 32 bits. This stream is
/// part of the zoo's contract: a custom-kernel equivalent reproduces a
/// workload's inputs through [`data_f32`] / [`data_u32`].
fn raw(seed: u32, i: u64) -> u32 {
    let mut z = (u64::from(seed) << 32)
        ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// Deterministic small pseudo-random `f32`s in `[-0.5, 0.5)` (multiples
/// of 1/256, so f32 sums stay exact-friendly).
pub fn data_f32(seed: u32, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((raw(seed, i as u64) >> 16) & 0xFF) as f32 / 256.0 - 0.5)
        .collect()
}

/// Deterministic pseudo-random `u32`s.
pub fn data_u32(seed: u32, len: usize) -> Vec<u32> {
    (0..len).map(|i| raw(seed, i as u64)).collect()
}

// ---- kernel construction helpers ----

struct Ids {
    tid: Reg,
    ctaid: Reg,
    gid: Reg,
}

/// Standard prologue: `gid = ctaid.x * ntid.x + tid.x`.
fn ids(b: &mut KernelBuilder) -> Result<Ids, BuildError> {
    let tid = b.alloc_reg()?;
    b.s2r(tid, SpecialReg::TidX);
    let ctaid = b.alloc_reg()?;
    b.s2r(ctaid, SpecialReg::CtaIdX);
    let ntid = b.alloc_reg()?;
    b.s2r(ntid, SpecialReg::NTidX);
    let gid = b.alloc_reg()?;
    b.imad(gid, Src::Reg(ctaid), Src::Reg(ntid), Src::Reg(tid));
    Ok(Ids { tid, ctaid, gid })
}

// ---- kernels ----

fn vector_add_kernel(divergent: bool) -> Result<Kernel, BuildError> {
    let name = if divergent {
        "vector_add_divergent"
    } else {
        "vector_add"
    };
    let mut b = KernelBuilder::new(name);
    b.set_threads(THREADS);
    let a_p = b.param_alloc();
    let b_p = b.param_alloc();
    let c_p = b.param_alloc();
    let ids = ids(&mut b)?;
    let off = b.alloc_reg()?;
    b.shl(off, Src::Reg(ids.gid), Src::Imm(2));
    let tmp = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    b.ld_param(tmp, a_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let va = b.alloc_reg()?;
    b.ld_global(va, MemAddr::new(Some(addr), 0), Width::B32);
    b.ld_param(tmp, b_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let vb = b.alloc_reg()?;
    b.ld_global(vb, MemAddr::new(Some(addr), 0), Width::B32);
    let vc = b.alloc_reg()?;
    if divergent {
        let zero = b.alloc_reg()?;
        b.mov_imm_f32(zero, 0.0);
        let parity = b.alloc_reg()?;
        b.and(parity, Src::Reg(ids.tid), Src::Imm(1));
        b.setp(
            Pred(0),
            CmpOp::Eq,
            NumTy::S32,
            Src::Reg(parity),
            Src::Imm(0),
        );
        b.bra_if(Pred(0), false, "even");
        // Odd lanes: same sum, plus two redundant adds of +0.0 — extra
        // work that only half of each warp executes.
        b.fadd(vc, Src::Reg(va), Src::Reg(vb));
        b.fadd(vc, Src::Reg(vc), Src::Reg(zero));
        b.fadd(vc, Src::Reg(vc), Src::Reg(zero));
        b.bra("join");
        b.label("even");
        b.fadd(vc, Src::Reg(va), Src::Reg(vb));
        b.label("join");
    } else {
        b.fadd(vc, Src::Reg(va), Src::Reg(vb));
    }
    b.ld_param(tmp, c_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), vc, Width::B32);
    b.exit();
    b.declare_resources(KernelResources::new(12, 0, THREADS));
    b.finish()
}

fn saxpy_kernel() -> Result<Kernel, BuildError> {
    let mut b = KernelBuilder::new("saxpy");
    b.set_threads(THREADS);
    let x_p = b.param_alloc();
    let y_p = b.param_alloc();
    let alpha_p = b.param_alloc();
    let ids = ids(&mut b)?;
    let off = b.alloc_reg()?;
    b.shl(off, Src::Reg(ids.gid), Src::Imm(2));
    let tmp = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    b.ld_param(tmp, x_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let vx = b.alloc_reg()?;
    b.ld_global(vx, MemAddr::new(Some(addr), 0), Width::B32);
    b.ld_param(tmp, y_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let vy = b.alloc_reg()?;
    b.ld_global(vy, MemAddr::new(Some(addr), 0), Width::B32);
    let va = b.alloc_reg()?;
    b.ld_param(va, alpha_p);
    b.fmad(vy, Src::Reg(vx), Src::Reg(va), Src::Reg(vy));
    b.st_global(MemAddr::new(Some(addr), 0), vy, Width::B32);
    b.exit();
    b.declare_resources(KernelResources::new(12, 0, THREADS));
    b.finish()
}

fn strided_copy_kernel() -> Result<Kernel, BuildError> {
    let mut b = KernelBuilder::new("strided_copy");
    b.set_threads(THREADS);
    let in_p = b.param_alloc();
    let out_p = b.param_alloc();
    let ids = ids(&mut b)?;
    let off = b.alloc_reg()?;
    // Byte offset = gid * stride * 4 = gid << 5.
    b.shl(off, Src::Reg(ids.gid), Src::Imm(5));
    let tmp = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    b.ld_param(tmp, in_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let v = b.alloc_reg()?;
    b.ld_global(v, MemAddr::new(Some(addr), 0), Width::B32);
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), v, Width::B32);
    b.exit();
    b.declare_resources(KernelResources::new(12, 0, THREADS));
    b.finish()
}

fn transpose_kernel(n: u32, shared: bool) -> Result<Kernel, BuildError> {
    let ln = n.trailing_zeros() as i32;
    let tiles = n / 16;
    let lt = tiles.trailing_zeros() as i32;
    let name = if shared {
        "shared_transpose"
    } else {
        "naive_transpose"
    };
    let mut b = KernelBuilder::new(name);
    b.set_threads(THREADS);
    let in_p = b.param_alloc();
    let out_p = b.param_alloc();
    // 16×17 f32 tile: the +1 column pad keeps the transposed reads
    // conflict-free.
    let sm = if shared {
        b.smem_alloc(16 * 17 * 4, 4)? as i32
    } else {
        0
    };
    let tid = b.alloc_reg()?;
    b.s2r(tid, SpecialReg::TidX);
    let ctaid = b.alloc_reg()?;
    b.s2r(ctaid, SpecialReg::CtaIdX);
    let tx = b.alloc_reg()?;
    b.and(tx, Src::Reg(tid), Src::Imm(15));
    let ty = b.alloc_reg()?;
    b.shr(ty, Src::Reg(tid), Src::Imm(4));
    let bx = b.alloc_reg()?;
    b.and(bx, Src::Reg(ctaid), Src::Imm(tiles as i32 - 1));
    let by = b.alloc_reg()?;
    b.shr(by, Src::Reg(ctaid), Src::Imm(lt));
    let row = b.alloc_reg()?;
    b.shl(row, Src::Reg(by), Src::Imm(4));
    b.iadd(row, Src::Reg(row), Src::Reg(ty));
    let col = b.alloc_reg()?;
    b.shl(col, Src::Reg(bx), Src::Imm(4));
    b.iadd(col, Src::Reg(col), Src::Reg(tx));
    let idx = b.alloc_reg()?;
    b.shl(idx, Src::Reg(row), Src::Imm(ln));
    b.iadd(idx, Src::Reg(idx), Src::Reg(col));
    let addr = b.alloc_reg()?;
    b.shl(addr, Src::Reg(idx), Src::Imm(2));
    let tmp = b.alloc_reg()?;
    b.ld_param(tmp, in_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    let v = b.alloc_reg()?;
    b.ld_global(v, MemAddr::new(Some(addr), 0), Width::B32);
    if shared {
        let sidx = b.alloc_reg()?;
        b.imad(sidx, Src::Reg(ty), Src::Imm(17), Src::Reg(tx));
        let saddr = b.alloc_reg()?;
        b.shl(saddr, Src::Reg(sidx), Src::Imm(2));
        b.st_shared(MemAddr::new(Some(saddr), sm), v, Width::B32);
        b.bar();
        b.imad(sidx, Src::Reg(tx), Src::Imm(17), Src::Reg(ty));
        b.shl(saddr, Src::Reg(sidx), Src::Imm(2));
        b.ld_shared(v, MemAddr::new(Some(saddr), sm), Width::B32);
        // Coalesced write of the transposed tile: row = bx·16 + ty,
        // col = by·16 + tx.
        b.shl(row, Src::Reg(bx), Src::Imm(4));
        b.iadd(row, Src::Reg(row), Src::Reg(ty));
        b.shl(col, Src::Reg(by), Src::Imm(4));
        b.iadd(col, Src::Reg(col), Src::Reg(tx));
        b.shl(idx, Src::Reg(row), Src::Imm(ln));
        b.iadd(idx, Src::Reg(idx), Src::Reg(col));
    } else {
        // Uncoalesced column write: out[col·n + row].
        b.shl(idx, Src::Reg(col), Src::Imm(ln));
        b.iadd(idx, Src::Reg(idx), Src::Reg(row));
    }
    b.shl(addr, Src::Reg(idx), Src::Imm(2));
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(addr), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), v, Width::B32);
    b.exit();
    let smem = if shared { 16 * 17 * 4 } else { 0 };
    b.declare_resources(KernelResources::new(
        if shared { 20 } else { 16 },
        smem,
        THREADS,
    ));
    b.finish()
}

/// Butterfly strides: after the eight steps every thread holds the full
/// 256-lane sum.
const BUTTERFLY: [i32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

fn reduce_kernel(dot: bool) -> Result<Kernel, BuildError> {
    let name = if dot { "dot_product" } else { "reduce_sum" };
    let mut b = KernelBuilder::new(name);
    b.set_threads(THREADS);
    let a_p = b.param_alloc();
    let b_p = if dot { Some(b.param_alloc()) } else { None };
    let out_p = b.param_alloc();
    let sm = b.smem_alloc(THREADS * 4, 4)? as i32;
    let ids = ids(&mut b)?;
    let off = b.alloc_reg()?;
    b.shl(off, Src::Reg(ids.gid), Src::Imm(2));
    let tmp = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    b.ld_param(tmp, a_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let v = b.alloc_reg()?;
    b.ld_global(v, MemAddr::new(Some(addr), 0), Width::B32);
    if let Some(b_p) = b_p {
        b.ld_param(tmp, b_p);
        b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
        let vb = b.alloc_reg()?;
        b.ld_global(vb, MemAddr::new(Some(addr), 0), Width::B32);
        b.fmul(v, Src::Reg(v), Src::Reg(vb));
    }
    let saddr = b.alloc_reg()?;
    b.shl(saddr, Src::Reg(ids.tid), Src::Imm(2));
    b.st_shared(MemAddr::new(Some(saddr), sm), v, Width::B32);
    b.bar();
    let pidx = b.alloc_reg()?;
    let paddr = b.alloc_reg()?;
    let pv = b.alloc_reg()?;
    for stride in BUTTERFLY {
        b.xor(pidx, Src::Reg(ids.tid), Src::Imm(stride));
        b.shl(paddr, Src::Reg(pidx), Src::Imm(2));
        b.ld_shared(pv, MemAddr::new(Some(paddr), sm), Width::B32);
        b.bar();
        b.fadd(v, Src::Reg(v), Src::Reg(pv));
        b.st_shared(MemAddr::new(Some(saddr), sm), v, Width::B32);
        b.bar();
    }
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), v, Width::B32);
    b.exit();
    b.declare_resources(KernelResources::new(16, THREADS * 4, THREADS));
    b.finish()
}

fn histogram_kernel() -> Result<Kernel, BuildError> {
    let mut b = KernelBuilder::new("histogram");
    b.set_threads(THREADS);
    let in_p = b.param_alloc();
    let out_p = b.param_alloc();
    let sm = b.smem_alloc(HISTOGRAM_BINS * 4, 4)? as i32;
    let ids = ids(&mut b)?;
    // Clear the bins: each of the 64 words is written (to zero) by four
    // lanes — redundant but branch-free.
    let zidx = b.alloc_reg()?;
    b.and(zidx, Src::Reg(ids.tid), Src::Imm(HISTOGRAM_BINS as i32 - 1));
    let zaddr = b.alloc_reg()?;
    b.shl(zaddr, Src::Reg(zidx), Src::Imm(2));
    let zero = b.alloc_reg()?;
    b.mov_imm(zero, 0);
    b.st_shared(MemAddr::new(Some(zaddr), sm), zero, Width::B32);
    b.bar();
    let off = b.alloc_reg()?;
    b.shl(off, Src::Reg(ids.gid), Src::Imm(2));
    let tmp = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    b.ld_param(tmp, in_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let v = b.alloc_reg()?;
    b.ld_global(v, MemAddr::new(Some(addr), 0), Width::B32);
    let baddr = b.alloc_reg()?;
    b.shl(baddr, Src::Reg(v), Src::Imm(2));
    let one = b.alloc_reg()?;
    b.mov_imm(one, 1);
    let old = b.alloc_reg()?;
    for _ in 0..HISTOGRAM_REPEAT {
        b.atom_shared_add(old, MemAddr::new(Some(baddr), sm), one);
    }
    b.bar();
    // Publish: out[ctaid·64 + bin] (four lanes store the same count).
    let cnt = b.alloc_reg()?;
    b.ld_shared(cnt, MemAddr::new(Some(zaddr), sm), Width::B32);
    let oidx = b.alloc_reg()?;
    b.shl(oidx, Src::Reg(ids.ctaid), Src::Imm(6));
    b.iadd(oidx, Src::Reg(oidx), Src::Reg(zidx));
    b.shl(oidx, Src::Reg(oidx), Src::Imm(2));
    b.ld_param(tmp, out_p);
    b.iadd(oidx, Src::Reg(oidx), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(oidx), 0), cnt, Width::B32);
    b.exit();
    b.declare_resources(KernelResources::new(20, HISTOGRAM_BINS * 4, THREADS));
    b.finish()
}

fn atomic_hotspot_kernel() -> Result<Kernel, BuildError> {
    let mut b = KernelBuilder::new("atomic_hotspot");
    b.set_threads(THREADS);
    let out_p = b.param_alloc();
    let sm = b.smem_alloc(4, 4)? as i32;
    let ids = ids(&mut b)?;
    let zero = b.alloc_reg()?;
    b.mov_imm(zero, 0);
    b.st_shared(MemAddr::new(None, sm), zero, Width::B32);
    b.bar();
    let one = b.alloc_reg()?;
    b.mov_imm(one, 1);
    let old = b.alloc_reg()?;
    for _ in 0..HOTSPOT_ITERS {
        b.atom_shared_add(old, MemAddr::new(None, sm), one);
    }
    b.bar();
    let cnt = b.alloc_reg()?;
    b.ld_shared(cnt, MemAddr::new(None, sm), Width::B32);
    let off = b.alloc_reg()?;
    b.shl(off, Src::Reg(ids.gid), Src::Imm(2));
    let tmp = b.alloc_reg()?;
    b.ld_param(tmp, out_p);
    b.iadd(off, Src::Reg(off), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(off), 0), cnt, Width::B32);
    b.exit();
    b.declare_resources(KernelResources::new(12, 4, THREADS));
    b.finish()
}

fn shared_bank_conflict_kernel() -> Result<Kernel, BuildError> {
    let mut b = KernelBuilder::new("shared_bank_conflict");
    b.set_threads(THREADS);
    let in_p = b.param_alloc();
    let out_p = b.param_alloc();
    // 512 words: thread t owns word 2t — stride-2, 2-way bank conflicts.
    let sm = b.smem_alloc(THREADS * 2 * 4, 4)? as i32;
    let ids = ids(&mut b)?;
    let off = b.alloc_reg()?;
    b.shl(off, Src::Reg(ids.gid), Src::Imm(2));
    let tmp = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    b.ld_param(tmp, in_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let v = b.alloc_reg()?;
    b.ld_global(v, MemAddr::new(Some(addr), 0), Width::B32);
    let saddr = b.alloc_reg()?;
    b.shl(saddr, Src::Reg(ids.tid), Src::Imm(3));
    b.st_shared(MemAddr::new(Some(saddr), sm), v, Width::B32);
    for _ in 0..CONFLICT_ROUNDS {
        b.ld_shared(v, MemAddr::new(Some(saddr), sm), Width::B32);
        b.st_shared(MemAddr::new(Some(saddr), sm), v, Width::B32);
    }
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), v, Width::B32);
    b.exit();
    b.declare_resources(KernelResources::new(12, THREADS * 2 * 4, THREADS));
    b.finish()
}

fn random_access_kernel() -> Result<Kernel, BuildError> {
    let mut b = KernelBuilder::new("random_access");
    b.set_threads(THREADS);
    let idx_p = b.param_alloc();
    let table_p = b.param_alloc();
    let out_p = b.param_alloc();
    let ids = ids(&mut b)?;
    let off = b.alloc_reg()?;
    b.shl(off, Src::Reg(ids.gid), Src::Imm(2));
    let tmp = b.alloc_reg()?;
    let addr = b.alloc_reg()?;
    b.ld_param(tmp, idx_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    let iv = b.alloc_reg()?;
    b.ld_global(iv, MemAddr::new(Some(addr), 0), Width::B32);
    let taddr = b.alloc_reg()?;
    b.shl(taddr, Src::Reg(iv), Src::Imm(2));
    b.ld_param(tmp, table_p);
    b.iadd(taddr, Src::Reg(taddr), Src::Reg(tmp));
    let v = b.alloc_reg()?;
    b.ld_global(v, MemAddr::new(Some(taddr), 0), Width::B32);
    b.ld_param(tmp, out_p);
    b.iadd(addr, Src::Reg(off), Src::Reg(tmp));
    b.st_global(MemAddr::new(Some(addr), 0), v, Width::B32);
    b.exit();
    b.declare_resources(KernelResources::new(12, 0, THREADS));
    b.finish()
}

/// Build the named kernel at size `n` (only the transposes specialize on
/// `n`; the 1-D kernels derive everything from the launch).
///
/// # Errors
///
/// Propagates kernel-builder errors.
///
/// # Panics
///
/// Panics on an unknown name — call [`validate`] first.
pub fn kernel(name: &str, n: u32) -> Result<Kernel, BuildError> {
    match name {
        "vector_add" => vector_add_kernel(false),
        "vector_add_divergent" => vector_add_kernel(true),
        "saxpy" => saxpy_kernel(),
        "strided_copy" => strided_copy_kernel(),
        "naive_transpose" => transpose_kernel(n, false),
        "shared_transpose" => transpose_kernel(n, true),
        "reduce_sum" => reduce_kernel(false),
        "dot_product" => reduce_kernel(true),
        "histogram" => histogram_kernel(),
        "atomic_hotspot" => atomic_hotspot_kernel(),
        "shared_bank_conflict" => shared_bank_conflict_kernel(),
        "random_access" => random_access_kernel(),
        other => panic!("unknown zoo workload `{other}`"),
    }
}

// ---- study assembly ----

/// Allocate a region at the zoo/custom alignment and write `words`.
fn alloc_words(gmem: &mut GlobalMemory, words: &[u32]) -> u64 {
    let base = gmem.alloc(words.len() as u64 * 4, REGION_ALIGN);
    for (i, w) in words.iter().enumerate() {
        gmem.write_u32(base + i as u64 * 4, *w).expect("in bounds");
    }
    base
}

fn alloc_zero(gmem: &mut GlobalMemory, bytes: u64) -> u64 {
    gmem.alloc(bytes, REGION_ALIGN)
}

fn f32_words(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Compare a device region against expected words.
fn check_words(gmem: &GlobalMemory, base: u64, expect: &[u32], what: &str) -> Result<(), String> {
    let got = gmem
        .read_u32s(base, expect.len())
        .map_err(|e| format!("{what} unreadable: {e:?}"))?;
    for (i, (g, w)) in got.iter().zip(expect).enumerate() {
        if g != w {
            return Err(format!("{what}[{i}] = {g:#010x}, reference {w:#010x}"));
        }
    }
    Ok(())
}

/// The host-side butterfly: replicates the kernel's pairing order
/// exactly, so f32 results match bit for bit.
fn butterfly_block(vals: &mut [f32]) {
    debug_assert_eq!(vals.len(), THREADS as usize);
    for stride in BUTTERFLY {
        let prev = vals.to_vec();
        for (t, v) in vals.iter_mut().enumerate() {
            *v = prev[t] + prev[t ^ stride as usize];
        }
    }
}

struct Built {
    kernel: Kernel,
    launch: LaunchConfig,
    params: Vec<u32>,
    gmem: GlobalMemory,
    regions: Vec<Region>,
    verify: Verifier,
}

fn build_vector_add(n: u32, seed: u32, divergent: bool) -> Built {
    let kernel = vector_add_kernel(divergent).expect("zoo kernel builds");
    let a = data_f32(seed, n as usize);
    let bv = data_f32(seed.wrapping_add(1), n as usize);
    let mut gmem = GlobalMemory::new();
    let a_dev = alloc_words(&mut gmem, &f32_words(&a));
    let b_dev = alloc_words(&mut gmem, &f32_words(&bv));
    let c_dev = alloc_zero(&mut gmem, u64::from(n) * 4);
    let expect: Vec<u32> = a
        .iter()
        .zip(&bv)
        .map(|(x, y)| {
            let mut s = x + y;
            if divergent {
                // Odd lanes add +0.0 twice; IEEE keeps the value (and
                // normalizes any -0.0, which our data cannot produce).
                s = s + 0.0 + 0.0;
            }
            s.to_bits()
        })
        .collect();
    // Even lanes skip the extra adds; both paths round identically, so
    // one expectation covers the whole vector.
    let len = u64::from(n) * 4;
    Built {
        kernel,
        launch: LaunchConfig::new_1d(n / THREADS, THREADS),
        params: vec![a_dev as u32, b_dev as u32, c_dev as u32],
        gmem,
        regions: vec![
            Region::new("a", a_dev, len),
            Region::new("b", b_dev, len),
            Region::new("c", c_dev, len),
        ],
        verify: Box::new(move |g| check_words(g, c_dev, &expect, "c")),
    }
}

fn build_saxpy(n: u32, seed: u32) -> Built {
    let kernel = saxpy_kernel().expect("zoo kernel builds");
    let alpha = 1.5f32;
    let x = data_f32(seed, n as usize);
    let y = data_f32(seed.wrapping_add(1), n as usize);
    let mut gmem = GlobalMemory::new();
    let x_dev = alloc_words(&mut gmem, &f32_words(&x));
    let y_dev = alloc_words(&mut gmem, &f32_words(&y));
    let expect: Vec<u32> = x
        .iter()
        .zip(&y)
        .map(|(xi, yi)| xi.mul_add(alpha, *yi).to_bits())
        .collect();
    let len = u64::from(n) * 4;
    Built {
        kernel,
        launch: LaunchConfig::new_1d(n / THREADS, THREADS),
        params: vec![x_dev as u32, y_dev as u32, alpha.to_bits()],
        gmem,
        regions: vec![Region::new("x", x_dev, len), Region::new("y", y_dev, len)],
        verify: Box::new(move |g| check_words(g, y_dev, &expect, "y")),
    }
}

fn build_strided_copy(n: u32, seed: u32) -> Built {
    let kernel = strided_copy_kernel().expect("zoo kernel builds");
    let words = (n * COPY_STRIDE_WORDS) as usize;
    let data = data_u32(seed, words);
    let mut gmem = GlobalMemory::new();
    let in_dev = alloc_words(&mut gmem, &data);
    let out_dev = alloc_zero(&mut gmem, words as u64 * 4);
    let expect: Vec<u32> = (0..words)
        .map(|i| {
            if (i as u32).is_multiple_of(COPY_STRIDE_WORDS) {
                data[i]
            } else {
                0
            }
        })
        .collect();
    let len = words as u64 * 4;
    Built {
        kernel,
        launch: LaunchConfig::new_1d(n / THREADS, THREADS),
        params: vec![in_dev as u32, out_dev as u32],
        gmem,
        regions: vec![
            Region::new("in", in_dev, len),
            Region::new("out", out_dev, len),
        ],
        verify: Box::new(move |g| check_words(g, out_dev, &expect, "out")),
    }
}

fn build_transpose(n: u32, seed: u32, shared: bool) -> Built {
    let kernel = transpose_kernel(n, shared).expect("zoo kernel builds");
    let elems = (n * n) as usize;
    let data = data_f32(seed, elems);
    let mut gmem = GlobalMemory::new();
    let in_dev = alloc_words(&mut gmem, &f32_words(&data));
    let out_dev = alloc_zero(&mut gmem, elems as u64 * 4);
    let nn = n as usize;
    let expect: Vec<u32> = (0..elems)
        .map(|i| {
            let (r, c) = (i / nn, i % nn);
            data[c * nn + r].to_bits()
        })
        .collect();
    let tiles = n / 16;
    let len = elems as u64 * 4;
    Built {
        kernel,
        launch: LaunchConfig::new_1d(tiles * tiles, THREADS),
        params: vec![in_dev as u32, out_dev as u32],
        gmem,
        regions: vec![
            Region::new("in", in_dev, len),
            Region::new("out", out_dev, len),
        ],
        verify: Box::new(move |g| check_words(g, out_dev, &expect, "out")),
    }
}

fn build_reduce(n: u32, seed: u32, dot: bool) -> Built {
    let kernel = reduce_kernel(dot).expect("zoo kernel builds");
    let a = data_f32(seed, n as usize);
    let bv = data_f32(seed.wrapping_add(1), n as usize);
    let mut gmem = GlobalMemory::new();
    let a_dev = alloc_words(&mut gmem, &f32_words(&a));
    let b_dev = if dot {
        Some(alloc_words(&mut gmem, &f32_words(&bv)))
    } else {
        None
    };
    let out_dev = alloc_zero(&mut gmem, u64::from(n) * 4);
    let mut expect = Vec::with_capacity(n as usize);
    for block in a.chunks(THREADS as usize).zip(bv.chunks(THREADS as usize)) {
        let mut vals: Vec<f32> = if dot {
            block.0.iter().zip(block.1).map(|(x, y)| x * y).collect()
        } else {
            block.0.to_vec()
        };
        butterfly_block(&mut vals);
        expect.extend(vals.iter().map(|v| v.to_bits()));
    }
    let len = u64::from(n) * 4;
    let mut params = vec![a_dev as u32];
    let mut regions = vec![Region::new("a", a_dev, len)];
    if let Some(b_dev) = b_dev {
        params.push(b_dev as u32);
        regions.push(Region::new("b", b_dev, len));
    }
    params.push(out_dev as u32);
    regions.push(Region::new("out", out_dev, len));
    Built {
        kernel,
        launch: LaunchConfig::new_1d(n / THREADS, THREADS),
        params,
        gmem,
        regions,
        verify: Box::new(move |g| check_words(g, out_dev, &expect, "out")),
    }
}

fn build_histogram(n: u32, seed: u32) -> Built {
    let kernel = histogram_kernel().expect("zoo kernel builds");
    // Skewed bins: only HISTOGRAM_HOT_BINS of the 64 are populated, so
    // same-bin atomics within each half-warp serialize heavily.
    let values: Vec<u32> = data_u32(seed, n as usize)
        .into_iter()
        .map(|v| v & (HISTOGRAM_HOT_BINS - 1))
        .collect();
    let mut gmem = GlobalMemory::new();
    let in_dev = alloc_words(&mut gmem, &values);
    let blocks = n / THREADS;
    let out_words = (blocks * HISTOGRAM_BINS) as usize;
    let out_dev = alloc_zero(&mut gmem, out_words as u64 * 4);
    let mut expect = vec![0u32; out_words];
    for (i, v) in values.iter().enumerate() {
        let block = i / THREADS as usize;
        expect[block * HISTOGRAM_BINS as usize + *v as usize] += HISTOGRAM_REPEAT;
    }
    Built {
        kernel,
        launch: LaunchConfig::new_1d(blocks, THREADS),
        params: vec![in_dev as u32, out_dev as u32],
        gmem,
        regions: vec![
            Region::new("in", in_dev, u64::from(n) * 4),
            Region::new("out", out_dev, out_words as u64 * 4),
        ],
        verify: Box::new(move |g| check_words(g, out_dev, &expect, "out")),
    }
}

fn build_atomic_hotspot(n: u32, _seed: u32) -> Built {
    let kernel = atomic_hotspot_kernel().expect("zoo kernel builds");
    let mut gmem = GlobalMemory::new();
    let out_dev = alloc_zero(&mut gmem, u64::from(n) * 4);
    let expect = vec![THREADS * HOTSPOT_ITERS; n as usize];
    Built {
        kernel,
        launch: LaunchConfig::new_1d(n / THREADS, THREADS),
        params: vec![out_dev as u32],
        gmem,
        regions: vec![Region::new("out", out_dev, u64::from(n) * 4)],
        verify: Box::new(move |g| check_words(g, out_dev, &expect, "out")),
    }
}

fn build_shared_bank_conflict(n: u32, seed: u32) -> Built {
    let kernel = shared_bank_conflict_kernel().expect("zoo kernel builds");
    let data = data_u32(seed, n as usize);
    let mut gmem = GlobalMemory::new();
    let in_dev = alloc_words(&mut gmem, &data);
    let out_dev = alloc_zero(&mut gmem, u64::from(n) * 4);
    let expect = data.clone();
    let len = u64::from(n) * 4;
    Built {
        kernel,
        launch: LaunchConfig::new_1d(n / THREADS, THREADS),
        params: vec![in_dev as u32, out_dev as u32],
        gmem,
        regions: vec![
            Region::new("in", in_dev, len),
            Region::new("out", out_dev, len),
        ],
        verify: Box::new(move |g| check_words(g, out_dev, &expect, "out")),
    }
}

fn build_random_access(n: u32, seed: u32) -> Built {
    let kernel = random_access_kernel().expect("zoo kernel builds");
    let idx: Vec<u32> = data_u32(seed, n as usize)
        .into_iter()
        .map(|v| v % n)
        .collect();
    let table = data_u32(seed.wrapping_add(1), n as usize);
    let mut gmem = GlobalMemory::new();
    let idx_dev = alloc_words(&mut gmem, &idx);
    let table_dev = alloc_words(&mut gmem, &table);
    let out_dev = alloc_zero(&mut gmem, u64::from(n) * 4);
    let expect: Vec<u32> = idx.iter().map(|i| table[*i as usize]).collect();
    let len = u64::from(n) * 4;
    Built {
        kernel,
        launch: LaunchConfig::new_1d(n / THREADS, THREADS),
        params: vec![idx_dev as u32, table_dev as u32, out_dev as u32],
        gmem,
        regions: vec![
            Region::new("idx", idx_dev, len),
            Region::new("table", table_dev, len),
            Region::new("out", out_dev, len),
        ],
        verify: Box::new(move |g| check_words(g, out_dev, &expect, "out")),
    }
}

/// Prepare the named workload as a full [`CaseStudy`] (kernel, memory
/// image, regions, CPU-reference verifier). The study declares no
/// algorithmic flop count (consumers fall back to the simulator's
/// dynamic count — the same accounting a custom-kernel request gets).
///
/// # Panics
///
/// Panics when [`validate`]`(name, n)` would reject the knobs; the
/// service request path validates before calling.
pub fn case(name: &str, n: u32, seed: u32) -> CaseStudy {
    validate(name, n).unwrap_or_else(|e| panic!("{e}"));
    let built = match name {
        "vector_add" => build_vector_add(n, seed, false),
        "vector_add_divergent" => build_vector_add(n, seed, true),
        "saxpy" => build_saxpy(n, seed),
        "strided_copy" => build_strided_copy(n, seed),
        "naive_transpose" => build_transpose(n, seed, false),
        "shared_transpose" => build_transpose(n, seed, true),
        "reduce_sum" => build_reduce(n, seed, false),
        "dot_product" => build_reduce(n, seed, true),
        "histogram" => build_histogram(n, seed),
        "atomic_hotspot" => build_atomic_hotspot(n, seed),
        "shared_bank_conflict" => build_shared_bank_conflict(n, seed),
        "random_access" => build_random_access(n, seed),
        _ => unreachable!("validated above"),
    };
    CaseStudy::new(
        format!("{name} n={n} seed={seed}"),
        built.kernel,
        built.launch,
        built.params,
        built.gmem,
        built.regions,
        0,
        Some(built.verify),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::run_study;
    use gpa_core::Model;
    use gpa_hw::Machine;
    use gpa_sim::Threads;
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
    fn every_workload_verifies_against_its_reference() {
        let mut m = model();
        for w in WORKLOADS {
            let n = match w.name {
                "naive_transpose" | "shared_transpose" => 64,
                _ => 1024,
            };
            let mut study = case(w.name, n, 7);
            run_study(machine(), &mut m, &mut study, Threads::sequential(), None)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            study.check().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn every_workload_round_trips_through_asm() {
        for w in WORKLOADS {
            let n = match w.name {
                "naive_transpose" | "shared_transpose" => 128,
                _ => w.default_n,
            };
            let k = kernel(w.name, n).unwrap();
            let text = gpa_isa::asm::kernel_to_asm(&k);
            let back =
                gpa_isa::asm::parse_kernel(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(back, k, "{} asm round trip", w.name);
        }
    }

    #[test]
    fn validate_rejects_bad_scales() {
        assert!(validate("vector_add", 4096).is_ok());
        assert!(validate("vector_add", 100).is_err());
        assert!(validate("vector_add", 0).is_err());
        assert!(validate("naive_transpose", 128).is_ok());
        assert!(validate("naive_transpose", 96).is_err());
        assert!(validate("naive_transpose", 2048).is_err());
        assert!(validate("warp_drive", 256).is_err());
        assert!(validate("histogram", MAX_ELEMS + 256).is_err());
    }

    #[test]
    fn seeds_change_data_deterministically() {
        assert_eq!(data_u32(1, 16), data_u32(1, 16));
        assert_ne!(data_u32(1, 16), data_u32(2, 16));
        let f = data_f32(3, 64);
        assert!(f.iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    fn atomic_workloads_report_contention() {
        let mut m = model();
        let mut study = case("atomic_hotspot", 1024, 1);
        let run = run_study(machine(), &mut m, &mut study, Threads::sequential(), None).unwrap();
        assert!(
            run.analysis.atomic_contention_factor > 8.0,
            "hotspot contention ×{:.2}",
            run.analysis.atomic_contention_factor
        );
        assert_eq!(
            run.analysis.bottleneck,
            gpa_core::Component::AtomicUnit,
            "hotspot bottleneck {:?}",
            run.analysis.bottleneck
        );
        let mut study = case("histogram", 1024, 1);
        let run = run_study(machine(), &mut m, &mut study, Threads::sequential(), None).unwrap();
        assert!(
            run.analysis.atomic_contention_factor > 1.1,
            "histogram contention ×{:.2}",
            run.analysis.atomic_contention_factor
        );
    }

    #[test]
    fn bank_conflict_workload_is_conflicted() {
        let mut m = model();
        let mut study = case("shared_bank_conflict", 1024, 1);
        let run = run_study(machine(), &mut m, &mut study, Threads::sequential(), None).unwrap();
        assert!(
            run.analysis.bank_conflict_factor > 1.5,
            "factor {:.2}",
            run.analysis.bank_conflict_factor
        );
    }
}
