//! The instruction set: registers, operands, and operations.
//!
//! The ISA is deliberately GT200-flavoured: scalar 32-bit registers, four
//! predicate registers, ALU instructions that may take **one** operand
//! directly from shared memory (the idiom Volkov's matrix multiply relies
//! on: `mad.f32 r4, s[r2], r5, r4`), per-half-warp memory transactions, and
//! a `bar.sync` barrier. Every operation maps to one of the paper's Table 1
//! instruction classes via [`Op::class`].

use gpa_hw::InstrClass;
use std::fmt;

/// A 32-bit general-purpose register, `r0..r127`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of addressable registers per thread.
    pub const COUNT: u8 = 128;

    /// Returns `true` if the register index is addressable.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 < Self::COUNT
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A predicate register, `p0..p3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pred(pub u8);

impl Pred {
    /// Number of predicate registers per thread.
    pub const COUNT: u8 = 4;

    /// Returns `true` if the predicate index is addressable.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 < Self::COUNT
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Guard on an instruction: execute only in lanes where the predicate holds
/// (`@p0`) or does not (`@!p0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredGuard {
    /// The predicate register tested.
    pub pred: Pred,
    /// `true` → execute where the predicate is **false** (`@!pN`).
    pub negate: bool,
}

impl fmt::Display for PredGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "@!{}", self.pred)
        } else {
            write!(f, "@{}", self.pred)
        }
    }
}

/// Per-lane special registers readable with `s2r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// Thread index within the block, x dimension.
    TidX,
    /// Thread index within the block, y dimension.
    TidY,
    /// Block index within the grid, x dimension.
    CtaIdX,
    /// Block index within the grid, y dimension.
    CtaIdY,
    /// Block size (threads), x dimension.
    NTidX,
    /// Block size (threads), y dimension.
    NTidY,
    /// Grid size (blocks), x dimension.
    NCtaIdX,
    /// Grid size (blocks), y dimension.
    NCtaIdY,
}

impl SpecialReg {
    /// All special registers.
    pub const ALL: [SpecialReg; 8] = [
        SpecialReg::TidX,
        SpecialReg::TidY,
        SpecialReg::CtaIdX,
        SpecialReg::CtaIdY,
        SpecialReg::NTidX,
        SpecialReg::NTidY,
        SpecialReg::NCtaIdX,
        SpecialReg::NCtaIdY,
    ];

    /// Assembly mnemonic, e.g. `%tid.x`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SpecialReg::TidX => "%tid.x",
            SpecialReg::TidY => "%tid.y",
            SpecialReg::CtaIdX => "%ctaid.x",
            SpecialReg::CtaIdY => "%ctaid.y",
            SpecialReg::NTidX => "%ntid.x",
            SpecialReg::NTidY => "%ntid.y",
            SpecialReg::NCtaIdX => "%nctaid.x",
            SpecialReg::NCtaIdY => "%nctaid.y",
        }
    }
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A memory address expression `[base + offset]`.
///
/// With `base == None` the address is absolute (`offset` only). Offsets are
/// byte offsets; the ISA's 18-bit signed offset field limits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAddr {
    /// Optional base register (per-lane value).
    pub base: Option<Reg>,
    /// Byte offset added to the base.
    pub offset: i32,
}

impl MemAddr {
    /// Largest offset the ISA's 18-bit signed offset field holds.
    pub const MAX_OFFSET: i32 = (1 << 17) - 1;
    /// Smallest offset the ISA's 18-bit signed offset field holds.
    pub const MIN_OFFSET: i32 = -(1 << 17);

    /// Address with a base register and byte offset.
    pub fn new(base: Option<Reg>, offset: i32) -> MemAddr {
        MemAddr { base, offset }
    }
}

impl fmt::Display for MemAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, mag) = if self.offset < 0 {
            ("-", self.offset.unsigned_abs())
        } else {
            ("+", self.offset as u32)
        };
        match self.base {
            Some(r) if self.offset != 0 => write!(f, "{r}{sign}{mag:#x}"),
            Some(r) => write!(f, "{r}"),
            None if self.offset < 0 => write!(f, "-{mag:#x}"),
            None => write!(f, "{mag:#x}"),
        }
    }
}

/// An ALU source operand: a register, a small immediate, or a shared-memory
/// word (`s[base+off]`, the GT200 shared-operand idiom).
///
/// At most one `Imm` **or** one `SMem` operand may appear per instruction
/// (they share the instruction's one 14-bit immediate field); this is checked
/// by [`crate::kernel::Kernel::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// A general-purpose register.
    Reg(Reg),
    /// A signed immediate; the ISA's immediate field is 14 bits
    /// ([`Src::MAX_IMM`]), though [`crate::kernel::Kernel::validate`] does
    /// not enforce the width.
    /// Full 32-bit constants are materialized with [`Op::MovImm`].
    Imm(i32),
    /// A 4-byte shared-memory operand.
    SMem(MemAddr),
}

impl Src {
    /// Largest inline immediate the ISA's 14-bit signed field holds.
    pub const MAX_IMM: i32 = (1 << 13) - 1;
    /// Smallest inline immediate the ISA's 14-bit signed field holds.
    pub const MIN_IMM: i32 = -(1 << 13);

    /// Shorthand for a shared-memory operand.
    pub fn smem(base: Option<Reg>, offset: i32) -> Src {
        Src::SMem(MemAddr::new(base, offset))
    }

    /// The register read by this operand, if any (the address base for
    /// `SMem`).
    pub fn read_reg(self) -> Option<Reg> {
        match self {
            Src::Reg(r) => Some(r),
            Src::SMem(a) => a.base,
            Src::Imm(_) => None,
        }
    }

    /// Returns `true` for a shared-memory operand.
    pub fn is_smem(self) -> bool {
        matches!(self, Src::SMem(_))
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(v) => write!(f, "{v}"),
            Src::SMem(a) => write!(f, "s[{a}]"),
        }
    }
}

/// Comparison operators for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// All comparison operators.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Assembly suffix (`eq`, `ne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Evaluate on signed 32-bit integers.
    pub fn eval_i32(self, a: i32, b: i32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Evaluate on `f32` (IEEE semantics; all comparisons with NaN are
    /// false except `Ne`).
    pub fn eval_f32(self, a: f32, b: f32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Scalar type selector for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumTy {
    /// Signed 32-bit integer.
    S32,
    /// IEEE single precision.
    F32,
}

impl NumTy {
    /// Assembly suffix.
    pub fn mnemonic(self) -> &'static str {
        match self {
            NumTy::S32 => "s32",
            NumTy::F32 => "f32",
        }
    }
}

/// Memory access width per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 4 bytes (one register).
    B32,
    /// 8 bytes (an aligned register pair).
    B64,
    /// 16 bytes (an aligned register quad).
    B128,
}

impl Width {
    /// Access size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Width::B32 => 4,
            Width::B64 => 8,
            Width::B128 => 16,
        }
    }

    /// Number of consecutive registers moved.
    pub fn regs(self) -> u8 {
        (self.bytes() / 4) as u8
    }

    /// Assembly suffix (`b32`, `b64`, `b128`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Width::B32 => "b32",
            Width::B64 => "b64",
            Width::B128 => "b128",
        }
    }
}

/// The operation performed by an instruction.
///
/// Operand conventions: `d` is the destination register, `a`/`b`/`c` are
/// sources. Double-precision operations treat `d`/sources as the low
/// register of an aligned pair.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // operand fields follow the conventions above
pub enum Op {
    // ---- Type I ----
    /// `d = a * b` (f32). Ten functional units can run this (Table 1).
    FMul { d: Reg, a: Src, b: Src },

    // ---- Type II ----
    /// `d = a + b` (f32).
    FAdd { d: Reg, a: Src, b: Src },
    /// `d = a * b + c` (f32 fused multiply-add, the workhorse).
    FMad { d: Reg, a: Src, b: Src, c: Src },
    /// `d = a + b` (s32, wrapping).
    IAdd { d: Reg, a: Src, b: Src },
    /// `d = a - b` (s32, wrapping).
    ISub { d: Reg, a: Src, b: Src },
    /// `d = a * b` (s32 low 32 bits, wrapping).
    IMul { d: Reg, a: Src, b: Src },
    /// `d = a * b + c` (s32, wrapping).
    IMad { d: Reg, a: Src, b: Src, c: Src },
    /// `d = min(a, b)` (s32).
    IMin { d: Reg, a: Src, b: Src },
    /// `d = max(a, b)` (s32).
    IMax { d: Reg, a: Src, b: Src },
    /// `d = a << (b & 31)`.
    Shl { d: Reg, a: Src, b: Src },
    /// `d = ((u32)a) >> (b & 31)` (logical).
    Shr { d: Reg, a: Src, b: Src },
    /// `d = a & b`.
    And { d: Reg, a: Src, b: Src },
    /// `d = a | b`.
    Or { d: Reg, a: Src, b: Src },
    /// `d = a ^ b`.
    Xor { d: Reg, a: Src, b: Src },
    /// `d = a` (register/immediate/shared-operand move).
    Mov { d: Reg, a: Src },
    /// `d = imm` (full 32-bit immediate; the only way to materialize f32
    /// constants).
    MovImm { d: Reg, imm: u32 },
    /// `d = special register` (`%tid.x` etc.).
    S2R { d: Reg, sr: SpecialReg },
    /// `p = a <cmp> b` on `ty`.
    SetP {
        p: Pred,
        cmp: CmpOp,
        ty: NumTy,
        a: Src,
        b: Src,
    },
    /// `d = p ? a : b`.
    Sel { d: Reg, p: Pred, a: Src, b: Src },
    /// `d = (f32)(s32)a`.
    I2F { d: Reg, a: Src },
    /// `d = (s32)truncate(f32 a)`.
    F2I { d: Reg, a: Src },

    // ---- Type III (special-function unit) ----
    /// `d = 1 / a` (f32 approximate reciprocal).
    Rcp { d: Reg, a: Src },
    /// `d = 1 / sqrt(a)` (f32).
    Rsq { d: Reg, a: Src },
    /// `d = sin(a)` (f32).
    Sin { d: Reg, a: Src },
    /// `d = cos(a)` (f32).
    Cos { d: Reg, a: Src },
    /// `d = log2(a)` (f32).
    Lg2 { d: Reg, a: Src },
    /// `d = 2^a` (f32).
    Ex2 { d: Reg, a: Src },

    // ---- Type IV (double precision; registers are aligned pairs) ----
    /// `d:d+1 = a:a+1 + b:b+1` (f64).
    DAdd { d: Reg, a: Reg, b: Reg },
    /// `d:d+1 = a:a+1 * b:b+1` (f64).
    DMul { d: Reg, a: Reg, b: Reg },
    /// `d:d+1 = a:a+1 * b:b+1 + c:c+1` (f64 fused).
    DFma { d: Reg, a: Reg, b: Reg, c: Reg },

    // ---- Memory ----
    /// Load `width` bytes from shared memory into `d..` .
    LdShared { d: Reg, addr: MemAddr, width: Width },
    /// Store `width` bytes from `src..` to shared memory.
    StShared {
        addr: MemAddr,
        src: Reg,
        width: Width,
    },
    /// Load `width` bytes from global memory into `d..` .
    LdGlobal { d: Reg, addr: MemAddr, width: Width },
    /// Store `width` bytes from `src..` to global memory.
    StGlobal {
        addr: MemAddr,
        src: Reg,
        width: Width,
    },
    /// Load a 32-bit kernel parameter word (byte `offset` into the
    /// parameter block).
    LdParam { d: Reg, offset: u16 },
    /// Atomic read-modify-write add on a shared-memory word:
    /// `d = [addr]; [addr] = d + src` (s32, wrapping). Lanes of a warp
    /// hitting the same word serialize in lane order, so the returned old
    /// values are deterministic.
    AtomSharedAdd { d: Reg, addr: MemAddr, src: Reg },
    /// Atomic compare-and-swap on a shared-memory word:
    /// `d = [addr]; if d == cmp then [addr] = src`. Same-word lanes
    /// serialize in lane order.
    AtomSharedCas {
        d: Reg,
        addr: MemAddr,
        cmp: Reg,
        src: Reg,
    },

    // ---- Control ----
    /// Block-wide barrier (`bar.sync`). Splits the program into the stages
    /// the model analyzes (paper §3).
    Bar,
    /// Branch to absolute instruction index `target`. Conditional when the
    /// instruction carries a [`PredGuard`].
    Bra { target: u32 },
    /// Terminate the thread.
    Exit,
    /// No operation (padding; still occupies an issue slot).
    Nop,
}

/// The registers `r, r + 1, …` of an `n`-register operand, up to `r255`.
fn reg_range(r: Reg, n: u8) -> impl Iterator<Item = Reg> {
    (0..n).map_while(move |i| r.0.checked_add(i).map(Reg))
}

impl Op {
    /// The paper Table 1 class of this operation.
    ///
    /// Memory and control instructions occupy an issue slot like a Type II
    /// instruction: the GT200 issue unit treats them uniformly; their
    /// *memory* cost is modeled separately by the shared/global components.
    pub fn class(&self) -> InstrClass {
        match self {
            Op::FMul { .. } => InstrClass::TypeI,
            Op::Rcp { .. }
            | Op::Rsq { .. }
            | Op::Sin { .. }
            | Op::Cos { .. }
            | Op::Lg2 { .. }
            | Op::Ex2 { .. } => InstrClass::TypeIII,
            Op::DAdd { .. } | Op::DMul { .. } | Op::DFma { .. } => InstrClass::TypeIV,
            _ => InstrClass::TypeII,
        }
    }

    /// Destination register and the number of consecutive registers written
    /// starting there, if the op writes registers.
    pub fn dst(&self) -> Option<(Reg, u8)> {
        match *self {
            Op::FMul { d, .. }
            | Op::FAdd { d, .. }
            | Op::FMad { d, .. }
            | Op::IAdd { d, .. }
            | Op::ISub { d, .. }
            | Op::IMul { d, .. }
            | Op::IMad { d, .. }
            | Op::IMin { d, .. }
            | Op::IMax { d, .. }
            | Op::Shl { d, .. }
            | Op::Shr { d, .. }
            | Op::And { d, .. }
            | Op::Or { d, .. }
            | Op::Xor { d, .. }
            | Op::Mov { d, .. }
            | Op::MovImm { d, .. }
            | Op::S2R { d, .. }
            | Op::Sel { d, .. }
            | Op::I2F { d, .. }
            | Op::F2I { d, .. }
            | Op::Rcp { d, .. }
            | Op::Rsq { d, .. }
            | Op::Sin { d, .. }
            | Op::Cos { d, .. }
            | Op::Lg2 { d, .. }
            | Op::Ex2 { d, .. }
            | Op::LdParam { d, .. }
            | Op::AtomSharedAdd { d, .. }
            | Op::AtomSharedCas { d, .. } => Some((d, 1)),
            Op::DAdd { d, .. } | Op::DMul { d, .. } | Op::DFma { d, .. } => Some((d, 2)),
            Op::LdShared { d, width, .. } | Op::LdGlobal { d, width, .. } => {
                Some((d, width.regs()))
            }
            _ => None,
        }
    }

    /// Registers read by this operation (including address bases and store
    /// sources), expanded for multi-register operands. A range that would
    /// run past `r255` stops there; it starts out of range itself, which
    /// [`crate::Kernel::validate`] reports.
    pub fn src_regs(&self) -> Vec<Reg> {
        let mut out = Vec::with_capacity(4);
        let mut push_src = |s: &Src| {
            if let Some(r) = s.read_reg() {
                out.push(r);
            }
        };
        match self {
            Op::FMul { a, b, .. }
            | Op::FAdd { a, b, .. }
            | Op::IAdd { a, b, .. }
            | Op::ISub { a, b, .. }
            | Op::IMul { a, b, .. }
            | Op::IMin { a, b, .. }
            | Op::IMax { a, b, .. }
            | Op::Shl { a, b, .. }
            | Op::Shr { a, b, .. }
            | Op::And { a, b, .. }
            | Op::Or { a, b, .. }
            | Op::Xor { a, b, .. }
            | Op::SetP { a, b, .. }
            | Op::Sel { a, b, .. } => {
                push_src(a);
                push_src(b);
            }
            Op::FMad { a, b, c, .. } | Op::IMad { a, b, c, .. } => {
                push_src(a);
                push_src(b);
                push_src(c);
            }
            Op::Mov { a, .. }
            | Op::I2F { a, .. }
            | Op::F2I { a, .. }
            | Op::Rcp { a, .. }
            | Op::Rsq { a, .. }
            | Op::Sin { a, .. }
            | Op::Cos { a, .. }
            | Op::Lg2 { a, .. }
            | Op::Ex2 { a, .. } => push_src(a),
            Op::DAdd { a, b, .. } | Op::DMul { a, b, .. } => {
                for r in [a, b] {
                    out.extend(reg_range(*r, 2));
                }
            }
            Op::DFma { a, b, c, .. } => {
                for r in [a, b, c] {
                    out.extend(reg_range(*r, 2));
                }
            }
            Op::LdShared { addr, .. } | Op::LdGlobal { addr, .. } => {
                out.extend(addr.base);
            }
            Op::StShared { addr, src, width } | Op::StGlobal { addr, src, width } => {
                out.extend(addr.base);
                out.extend(reg_range(*src, width.regs()));
            }
            Op::AtomSharedAdd { addr, src, .. } => {
                out.extend(addr.base);
                out.push(*src);
            }
            Op::AtomSharedCas { addr, cmp, src, .. } => {
                out.extend(addr.base);
                out.extend([*cmp, *src]);
            }
            Op::MovImm { .. }
            | Op::S2R { .. }
            | Op::LdParam { .. }
            | Op::Bar
            | Op::Bra { .. }
            | Op::Exit
            | Op::Nop => {}
        }
        out
    }

    /// The shared-memory operand of an ALU instruction, if present.
    ///
    /// Allocation-free (the functional simulator asks this once per
    /// executed warp-instruction); equivalent to scanning
    /// [`Op::operands`] in order for the first [`Src::SMem`].
    pub fn smem_operand(&self) -> Option<MemAddr> {
        fn pick(s: &Src) -> Option<MemAddr> {
            match s {
                Src::SMem(a) => Some(*a),
                _ => None,
            }
        }
        match self {
            Op::FMul { a, b, .. }
            | Op::FAdd { a, b, .. }
            | Op::IAdd { a, b, .. }
            | Op::ISub { a, b, .. }
            | Op::IMul { a, b, .. }
            | Op::IMin { a, b, .. }
            | Op::IMax { a, b, .. }
            | Op::Shl { a, b, .. }
            | Op::Shr { a, b, .. }
            | Op::And { a, b, .. }
            | Op::Or { a, b, .. }
            | Op::Xor { a, b, .. }
            | Op::SetP { a, b, .. }
            | Op::Sel { a, b, .. } => pick(a).or_else(|| pick(b)),
            Op::FMad { a, b, c, .. } | Op::IMad { a, b, c, .. } => {
                pick(a).or_else(|| pick(b)).or_else(|| pick(c))
            }
            Op::Mov { a, .. }
            | Op::I2F { a, .. }
            | Op::F2I { a, .. }
            | Op::Rcp { a, .. }
            | Op::Rsq { a, .. }
            | Op::Sin { a, .. }
            | Op::Cos { a, .. }
            | Op::Lg2 { a, .. }
            | Op::Ex2 { a, .. } => pick(a),
            _ => None,
        }
    }

    /// All `Src` operands of an ALU-style instruction (empty for memory and
    /// control ops).
    pub fn operands(&self) -> Vec<Src> {
        match self {
            Op::FMul { a, b, .. }
            | Op::FAdd { a, b, .. }
            | Op::IAdd { a, b, .. }
            | Op::ISub { a, b, .. }
            | Op::IMul { a, b, .. }
            | Op::IMin { a, b, .. }
            | Op::IMax { a, b, .. }
            | Op::Shl { a, b, .. }
            | Op::Shr { a, b, .. }
            | Op::And { a, b, .. }
            | Op::Or { a, b, .. }
            | Op::Xor { a, b, .. }
            | Op::SetP { a, b, .. }
            | Op::Sel { a, b, .. } => vec![*a, *b],
            Op::FMad { a, b, c, .. } | Op::IMad { a, b, c, .. } => vec![*a, *b, *c],
            Op::Mov { a, .. }
            | Op::I2F { a, .. }
            | Op::F2I { a, .. }
            | Op::Rcp { a, .. }
            | Op::Rsq { a, .. }
            | Op::Sin { a, .. }
            | Op::Cos { a, .. }
            | Op::Lg2 { a, .. }
            | Op::Ex2 { a, .. } => vec![*a],
            _ => Vec::new(),
        }
    }

    /// Returns `true` if this op touches shared memory (explicit `ld/st`,
    /// an atomic, or an ALU shared operand).
    pub fn touches_shared(&self) -> bool {
        matches!(
            self,
            Op::LdShared { .. }
                | Op::StShared { .. }
                | Op::AtomSharedAdd { .. }
                | Op::AtomSharedCas { .. }
        ) || self.smem_operand().is_some()
    }

    /// Returns `true` for shared-memory atomic read-modify-write ops.
    pub fn is_atomic(&self) -> bool {
        matches!(self, Op::AtomSharedAdd { .. } | Op::AtomSharedCas { .. })
    }

    /// Returns `true` if this op touches global memory.
    pub fn touches_global(&self) -> bool {
        matches!(self, Op::LdGlobal { .. } | Op::StGlobal { .. })
    }

    /// Returns `true` for control-flow operations (`bra`, `exit`, `bar`).
    pub fn is_control(&self) -> bool {
        matches!(self, Op::Bra { .. } | Op::Exit | Op::Bar)
    }
}

/// A complete instruction: an optional predicate guard plus the operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// Lane guard; `None` executes in all active lanes.
    pub guard: Option<PredGuard>,
    /// The operation.
    pub op: Op,
}

impl Instruction {
    /// An unguarded instruction.
    pub fn new(op: Op) -> Instruction {
        Instruction { guard: None, op }
    }

    /// A guarded instruction (`@p` / `@!p`).
    pub fn guarded(pred: Pred, negate: bool, op: Op) -> Instruction {
        Instruction {
            guard: Some(PredGuard { pred, negate }),
            op,
        }
    }
}

impl From<Op> for Instruction {
    fn from(op: Op) -> Instruction {
        Instruction::new(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_match_table1() {
        let r = Reg(0);
        let s = Src::Reg(Reg(1));
        assert_eq!(Op::FMul { d: r, a: s, b: s }.class(), InstrClass::TypeI);
        assert_eq!(
            Op::FMad {
                d: r,
                a: s,
                b: s,
                c: s
            }
            .class(),
            InstrClass::TypeII
        );
        assert_eq!(Op::Mov { d: r, a: s }.class(), InstrClass::TypeII);
        assert_eq!(Op::IAdd { d: r, a: s, b: s }.class(), InstrClass::TypeII);
        assert_eq!(Op::Rcp { d: r, a: s }.class(), InstrClass::TypeIII);
        assert_eq!(Op::Sin { d: r, a: s }.class(), InstrClass::TypeIII);
        assert_eq!(
            Op::DFma {
                d: Reg(0),
                a: Reg(2),
                b: Reg(4),
                c: Reg(6)
            }
            .class(),
            InstrClass::TypeIV
        );
        // Memory and control occupy a Type II issue slot.
        assert_eq!(Op::Bar.class(), InstrClass::TypeII);
        assert_eq!(
            Op::LdGlobal {
                d: r,
                addr: MemAddr::new(None, 0),
                width: Width::B32
            }
            .class(),
            InstrClass::TypeII
        );
    }

    #[test]
    fn dst_and_srcs_account_for_widths() {
        let op = Op::LdGlobal {
            d: Reg(4),
            addr: MemAddr::new(Some(Reg(2)), 16),
            width: Width::B128,
        };
        assert_eq!(op.dst(), Some((Reg(4), 4)));
        assert_eq!(op.src_regs(), vec![Reg(2)]);

        let st = Op::StShared {
            addr: MemAddr::new(Some(Reg(1)), 0),
            src: Reg(8),
            width: Width::B64,
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.src_regs(), vec![Reg(1), Reg(8), Reg(9)]);
    }

    #[test]
    fn smem_operand_detection() {
        let mad = Op::FMad {
            d: Reg(0),
            a: Src::smem(Some(Reg(3)), 8),
            b: Src::Reg(Reg(1)),
            c: Src::Reg(Reg(0)),
        };
        assert!(mad.touches_shared());
        assert_eq!(mad.smem_operand(), Some(MemAddr::new(Some(Reg(3)), 8)));
        assert!(!mad.touches_global());

        let add = Op::IAdd {
            d: Reg(0),
            a: Src::Reg(Reg(1)),
            b: Src::Imm(4),
        };
        assert!(!add.touches_shared());
        assert_eq!(add.smem_operand(), None);
    }

    #[test]
    fn atomic_ops_account_operands() {
        let add = Op::AtomSharedAdd {
            d: Reg(0),
            addr: MemAddr::new(Some(Reg(1)), 4),
            src: Reg(2),
        };
        assert!(add.touches_shared() && add.is_atomic());
        assert_eq!(add.dst(), Some((Reg(0), 1)));
        assert_eq!(add.src_regs(), vec![Reg(1), Reg(2)]);
        assert_eq!(add.class(), InstrClass::TypeII);
        let cas = Op::AtomSharedCas {
            d: Reg(0),
            addr: MemAddr::new(None, 8),
            cmp: Reg(3),
            src: Reg(4),
        };
        assert_eq!(cas.src_regs(), vec![Reg(3), Reg(4)]);
        assert!(
            cas.smem_operand().is_none(),
            "atomics are not ALU shared operands"
        );
        assert!(!add.touches_global() && !add.is_control());
    }

    #[test]
    fn cmp_eval() {
        assert!(CmpOp::Lt.eval_i32(-1, 0));
        assert!(!CmpOp::Lt.eval_i32(0, 0));
        assert!(CmpOp::Ge.eval_f32(2.0, 2.0));
        assert!(CmpOp::Ne.eval_f32(f32::NAN, 0.0));
        assert!(!CmpOp::Eq.eval_f32(f32::NAN, f32::NAN));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Reg(7)), "r7");
        assert_eq!(format!("{}", Pred(2)), "p2");
        assert_eq!(format!("{}", Src::smem(Some(Reg(2)), 16)), "s[r2+0x10]");
        assert_eq!(format!("{}", Src::smem(None, 0)), "s[0x0]");
        assert_eq!(format!("{}", Src::Imm(-3)), "-3");
        assert_eq!(
            format!(
                "{}",
                PredGuard {
                    pred: Pred(1),
                    negate: true
                }
            ),
            "@!p1"
        );
        assert_eq!(SpecialReg::TidX.mnemonic(), "%tid.x");
    }

    #[test]
    fn width_sizes() {
        assert_eq!(Width::B32.bytes(), 4);
        assert_eq!(Width::B64.regs(), 2);
        assert_eq!(Width::B128.regs(), 4);
    }
}
