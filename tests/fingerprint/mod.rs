//! The runs both fingerprint sweeps cover, and their golden-file check.
//!
//! `tests/sim_fingerprint.rs` hashes the functional simulator's output of
//! every run; `tests/timing_fingerprint.rs` hashes the timing replay of
//! the same runs. Both compare against a golden file keyed by everything
//! before a line's last ` | `.

use gpa::apps::spmv::{self, Format};
use gpa::apps::workflow::{CaseStudy, Region};
use gpa::apps::{matmul, tridiag, zoo};
use gpa::isa::asm::parse_kernel;
use gpa::sim::{GlobalMemory, LaunchConfig};
use std::path::PathBuf;

/// One fingerprinted run: a key and the study it simulates.
pub struct Run {
    /// The run's key in the golden files.
    pub case: String,
    /// Builds a fresh study (each call gets a pristine memory image).
    pub build: Box<dyn Fn() -> CaseStudy>,
}

/// Every fingerprinted run, in golden-file order.
pub fn runs() -> Vec<Run> {
    let mut out = Vec::new();
    let mut push = |case: String, build: Box<dyn Fn() -> CaseStudy>| out.push(Run { case, build });
    for n in [128, 256] {
        for tile in matmul::TILES {
            push(
                format!("matmul n={n} tile={tile}"),
                Box::new(move || matmul::case(n, tile)),
            );
        }
    }
    for nsys in [128, 256] {
        for padded in [true, false] {
            push(
                format!("tridiag n=512 nsys={nsys} padded={padded}"),
                Box::new(move || tridiag::case(512, nsys, padded)),
            );
        }
    }
    for format in Format::ALL {
        for texture in [false, true] {
            push(
                format!("spmv l=8 seed=1 {} texture={texture}", format.name()),
                Box::new(move || spmv::case(&spmv::qcd_like(8, 1), format, texture)),
            );
        }
    }
    for w in zoo::WORKLOADS {
        push(
            format!("zoo {} n={} seed=1", w.name, w.default_n),
            Box::new(move || zoo::case(w.name, w.default_n, 1)),
        );
    }
    for name in ["smem_scalar", "smem_strides", "gmem_two_regions"] {
        push(format!("adhoc {name}"), Box::new(move || adhoc(name)));
    }
    out
}

/// The ad-hoc kernel `name`.
fn adhoc(name: &str) -> CaseStudy {
    match name {
        "smem_scalar" => smem_scalar(),
        "smem_strides" => smem_strides(),
        "gmem_two_regions" => gmem_two_regions(),
        _ => unreachable!("no ad-hoc kernel {name}"),
    }
}

/// Two blocks of 64 threads, writing 16 words per thread to `out`.
const ADHOC_BLOCKS: u32 = 2;
const ADHOC_THREADS: u32 = 64;

/// Base-less shared loads and stores at B32, B64 and B128, and base-less
/// shared ALU operands under a divergent guard and a guard that masks
/// every lane. Each thread writes what it read to `out[16 * gid..]`.
fn smem_scalar() -> CaseStudy {
    adhoc_smem(
        "
.kernel smem_scalar
.reg 32
.smem 512
.threads 64
.param 4
    s2r r0, %tid.x
    s2r r1, %ctaid.x
    mad.s32 r2, r1, 64, r0
    shl.b32 r3, r0, 2
    i2f r4, r2
    st.shared.b32 s[r3], r4
    add.s32 r5, r2, 1000
    st.shared.b32 s[r3+0x100], r5
    bar.sync
    ld.shared.b32 r6, s[0x10]
    ld.shared.b64 r8, s[0x28]
    ld.shared.b128 r12, s[0x40]
    and.b32 r16, r0, 1
    setp.eq.s32 p0, r16, 0
    @p0 add.f32 r17, r4, s[0x14]
    @!p0 mad.f32 r17, r4, s[0x18], r6
    setp.lt.s32 p1, r0, 0
    @p1 add.f32 r17, r17, s[0x1fc]
    @p1 ld.shared.b32 r17, s[0x1fc]
    bar.sync
    st.shared.b32 s[0x100], r2
    @p0 st.shared.b64 s[0x108], r4
    st.shared.b128 s[0x110], r12
    @!p0 st.shared.b32 s[0x120], r0
    bar.sync
    ld.shared.b128 r18, s[0x100]
    ld.shared.b128 r24, s[0x110]
    ld.shared.b32 r22, s[0x120]
    mov.b32 r10, r17
    add.s32 r11, r6, r22
    ld.param.b32 r28, c[0x0]
    shl.b32 r29, r2, 6
    add.s32 r28, r28, r29
    st.global.b128 g[r28], r12
    st.global.b128 g[r28+0x10], r18
    st.global.b128 g[r28+0x20], r24
    st.global.b128 g[r28+0x30], r8
    exit
",
    )
}

/// Shared loads at word strides 2, 4, 8 and 16; a conflicted B64 load; a
/// row with four distinct words in one bank, each broadcast to four
/// lanes; the same mix over two banks as an ALU operand; and a
/// conflicted store.
fn smem_strides() -> CaseStudy {
    adhoc_smem(
        "
.kernel smem_strides
.reg 16
.smem 4096
.threads 64
.param 4
    s2r r0, %tid.x
    s2r r1, %ctaid.x
    mad.s32 r2, r1, 64, r0
    shl.b32 r3, r0, 2
    i2f r4, r2
    mov32 r5, 0
fill:
    add.s32 r6, r3, r5
    add.s32 r7, r2, r5
    st.shared.b32 s[r6], r7
    add.s32 r5, r5, 256
    setp.lt.s32 p0, r5, 4096
    @p0 bra fill
    bar.sync
    shl.b32 r8, r0, 3
    ld.shared.b32 r9, s[r8]
    shl.b32 r8, r0, 4
    ld.shared.b32 r10, s[r8]
    add.s32 r9, r9, r10
    shl.b32 r8, r0, 5
    ld.shared.b32 r10, s[r8]
    add.s32 r9, r9, r10
    shl.b32 r8, r0, 6
    ld.shared.b32 r10, s[r8]
    add.s32 r9, r9, r10
    shl.b32 r8, r0, 4
    ld.shared.b64 r10, s[r8+0x8]
    add.s32 r9, r9, r10
    add.s32 r9, r9, r11
    and.b32 r8, r0, 3
    shl.b32 r8, r8, 6
    ld.shared.b32 r10, s[r8]
    add.s32 r9, r9, r10
    shr.b32 r12, r0, 2
    and.b32 r12, r12, 1
    shl.b32 r12, r12, 2
    add.s32 r8, r8, r12
    add.f32 r13, r4, s[r8]
    bar.sync
    shl.b32 r8, r0, 3
    st.shared.b32 s[r8], r9
    bar.sync
    ld.shared.b32 r14, s[r3]
    ld.param.b32 r15, c[0x0]
    shl.b32 r8, r2, 6
    add.s32 r15, r15, r8
    st.global.b32 g[r15], r9
    st.global.b32 g[r15+0x4], r13
    st.global.b32 g[r15+0x8], r14
    exit
",
    )
}

/// An ad-hoc study of a shared-memory kernel: one parameter, the `out`
/// buffer of 16 words per thread.
fn adhoc_smem(asm: &str) -> CaseStudy {
    let kernel = parse_kernel(asm).unwrap();
    let mut gmem = GlobalMemory::new();
    let words = 16 * ADHOC_BLOCKS * ADHOC_THREADS;
    let out = gmem.alloc_u32(&vec![0; words as usize]);
    let launch = LaunchConfig::new_1d(ADHOC_BLOCKS, ADHOC_THREADS);
    let regions = vec![Region::new("out", out, u64::from(words) * 4)];
    CaseStudy::adhoc(kernel, launch, vec![out as u32], gmem, regions)
}

/// Global loads and stores whose lanes straddle the boundary between two
/// regions (`lo` and `hi`, the halves of one table): a data-dependent
/// gather, contiguous B32/B64/B128 windows across the boundary, a load
/// from memory outside every region, and a scatter store.
fn gmem_two_regions() -> CaseStudy {
    let kernel = parse_kernel(
        "
.kernel gmem_two_regions
.reg 24
.threads 64
.param 12
    s2r r0, %tid.x
    s2r r1, %ctaid.x
    mad.s32 r2, r1, 64, r0
    ld.param.b32 r3, c[0x0]
    ld.param.b32 r4, c[0x4]
    ld.param.b32 r5, c[0x8]
    shl.b32 r6, r2, 2
    add.s32 r7, r4, r6
    ld.global.b32 r8, g[r7]
    shl.b32 r8, r8, 2
    add.s32 r8, r3, r8
    ld.global.b32 r16, g[r8]
    and.b32 r9, r2, 63
    shl.b32 r9, r9, 2
    add.s32 r9, r3, r9
    ld.global.b32 r17, g[r9+0xe0]
    and.b32 r9, r2, 31
    shl.b32 r10, r9, 3
    add.s32 r10, r3, r10
    ld.global.b64 r18, g[r10+0x80]
    shl.b32 r10, r9, 4
    add.s32 r10, r3, r10
    ld.global.b128 r12, g[r10]
    add.s32 r12, r12, r13
    add.s32 r12, r12, r14
    add.s32 r19, r19, r15
    add.s32 r19, r19, r12
    shl.b32 r11, r2, 4
    add.s32 r11, r5, r11
    st.global.b128 g[r11], r16
    sub.s32 r8, r8, r3
    add.s32 r8, r8, r5
    st.global.b32 g[r8+0x800], r2
    exit
",
    )
    .unwrap();
    let threads = ADHOC_BLOCKS * ADHOC_THREADS;
    let mut gmem = GlobalMemory::new();
    let table: Vec<u32> = (0..128u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let idx: Vec<u32> = (0..threads).map(|g| (g * 37 + 11) % 96).collect();
    let table_at = gmem.alloc_u32(&table);
    let idx_at = gmem.alloc_u32(&idx);
    let out_at = gmem.alloc_u32(&vec![0; 4 * threads as usize + 128]);
    assert_eq!(table_at % 16, 0, "B128 windows are aligned");
    assert_eq!(out_at % 16, 0, "B128 stores are aligned");
    let regions = vec![
        Region::new("lo", table_at, 256),
        Region::new("hi", table_at + 256, 256),
        Region::new("out", out_at, (4 * u64::from(threads) + 128) * 4),
    ];
    CaseStudy::adhoc(
        kernel,
        LaunchConfig::new_1d(ADHOC_BLOCKS, ADHOC_THREADS),
        vec![table_at as u32, idx_at as u32, out_at as u32],
        gmem,
        regions,
    )
}

/// Compare `got` with the lines of `tests/golden/<file>` that have the
/// same keys, or overwrite the file with `got` when `bless` is set.
/// Returns how many lines were checked.
pub fn check_golden(file: &str, got: &[String], bless: bool) -> usize {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        return got.len();
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with GPA_BLESS=1",
            path.display()
        )
    });
    let key = |line: &str| line.rsplit_once(" | ").map(|(k, _)| k.to_owned());
    for line in got {
        let k = key(line).unwrap();
        let want = text
            .lines()
            .find(|l| key(l).as_deref() == Some(k.as_str()))
            .unwrap_or_else(|| panic!("no golden line for {k}"));
        assert_eq!(line, want, "simulator output drifted");
    }
    got.len()
}
