//! Programmatic kernel construction with labels and resource tracking.
//!
//! [`KernelBuilder`] plays the role of the paper's CUBIN generator: it lets
//! the microbenchmarks and case studies emit *exactly* the native
//! instructions they intend — no compiler in the loop to fold constants or
//! eliminate "dead" benchmark code.
//!
//! ```
//! use gpa_isa::builder::KernelBuilder;
//! use gpa_isa::instr::{CmpOp, NumTy, Src};
//!
//! // for (i = 0; i < 8; i++) acc += acc * 2.0
//! let mut b = KernelBuilder::new("demo");
//! b.set_threads(64);
//! let acc = b.alloc_reg()?;
//! let two = b.alloc_reg()?;
//! let i = b.alloc_reg()?;
//! b.mov_imm_f32(acc, 1.0);
//! b.mov_imm_f32(two, 2.0);
//! b.mov_imm(i, 0);
//! b.label("top");
//! b.fmad(acc, Src::Reg(acc), Src::Reg(two), Src::Reg(acc));
//! b.iadd(i, Src::Reg(i), Src::Imm(1));
//! b.setp(gpa_isa::instr::Pred(0), CmpOp::Lt, NumTy::S32, Src::Reg(i), Src::Imm(8));
//! b.bra_if(gpa_isa::instr::Pred(0), false, "top");
//! b.exit();
//! let kernel = b.finish()?;
//! assert_eq!(kernel.resources.regs_per_thread, 3);
//! # Ok::<(), gpa_isa::builder::BuildError>(())
//! ```

use crate::instr::{
    CmpOp, Instruction, MemAddr, NumTy, Op, Pred, PredGuard, Reg, SpecialReg, Src, Width,
};
use crate::kernel::{Kernel, ValidateError};
use gpa_hw::KernelResources;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors produced while building a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A branch referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// More than 128 registers are live at once.
    OutOfRegisters,
    /// The shared-memory arena exceeded 16 KB.
    OutOfSharedMemory {
        /// Bytes the failing allocation asked for.
        requested: u32,
    },
    /// The finished kernel failed structural validation.
    Validate(ValidateError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            BuildError::OutOfRegisters => {
                write!(f, "register allocator exhausted (128 per thread)")
            }
            BuildError::OutOfSharedMemory { requested } => {
                write!(
                    f,
                    "shared-memory allocation of {requested} B exceeds the 16 KB arena"
                )
            }
            BuildError::Validate(e) => write!(f, "built kernel failed validation: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Validate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for BuildError {
    fn from(e: ValidateError) -> Self {
        BuildError::Validate(e)
    }
}

/// Incremental kernel emitter. See the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instruction>,
    labels: HashMap<String, u32>,
    fixups: Vec<(usize, String)>,
    free_regs: Vec<u8>,
    next_reg: u32,
    high_water: u32,
    smem_cursor: u32,
    param_cursor: u32,
    threads_per_block: u32,
    declared: Option<KernelResources>,
    guard: Option<PredGuard>,
}

impl KernelBuilder {
    /// Start a new kernel with the given name.
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            free_regs: Vec::new(),
            next_reg: 0,
            high_water: 0,
            smem_cursor: 0,
            param_cursor: 0,
            threads_per_block: 32,
            declared: None,
            guard: None,
        }
    }

    /// Set the block size recorded in the kernel's resources.
    pub fn set_threads(&mut self, threads: u32) -> &mut Self {
        self.threads_per_block = threads;
        self
    }

    /// Override the *declared* resource usage recorded in the finished
    /// kernel (the numbers the occupancy calculation uses). The builder's
    /// own register high-water mark and shared-memory cursor remain
    /// available as a consistency check via [`KernelBuilder::computed_resources`].
    ///
    /// The case studies use this to carry the paper's published per-kernel
    /// footprints (e.g. Table 2), which reflect the original GT200 compiler
    /// rather than this builder's allocator.
    pub fn declare_resources(&mut self, res: KernelResources) -> &mut Self {
        self.declared = Some(res);
        self
    }

    /// Resource usage as actually observed by the builder.
    pub fn computed_resources(&self) -> KernelResources {
        KernelResources::new(self.high_water, self.smem_cursor, self.threads_per_block)
    }

    // ---- Registers, shared memory, parameters ----

    /// Allocate one register.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::OutOfRegisters`] if 128 registers are live.
    pub fn alloc_reg(&mut self) -> Result<Reg, BuildError> {
        if let Some(r) = self.free_regs.pop() {
            return Ok(Reg(r));
        }
        if self.next_reg >= u32::from(Reg::COUNT) {
            return Err(BuildError::OutOfRegisters);
        }
        let r = self.next_reg as u8;
        self.next_reg += 1;
        self.high_water = self.high_water.max(self.next_reg);
        Ok(Reg(r))
    }

    /// Allocate `n` contiguous registers aligned to `n` (for `b64`/`b128`
    /// accesses and double-precision pairs). Contiguous blocks always come
    /// from fresh registers, never from the free list.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::OutOfRegisters`] when the file is exhausted.
    pub fn alloc_contig(&mut self, n: u8) -> Result<Reg, BuildError> {
        let align = u32::from(n.next_power_of_two());
        let base = self.next_reg.div_ceil(align) * align;
        let end = base + u32::from(n);
        if end > u32::from(Reg::COUNT) {
            return Err(BuildError::OutOfRegisters);
        }
        // Return skipped alignment padding to the free list.
        for r in self.next_reg..base {
            self.free_regs.push(r as u8);
        }
        self.next_reg = end;
        self.high_water = self.high_water.max(self.next_reg);
        Ok(Reg(base as u8))
    }

    /// Return a register to the allocator.
    pub fn free_reg(&mut self, r: Reg) {
        debug_assert!(!self.free_regs.contains(&r.0), "double free of {r}");
        self.free_regs.push(r.0);
    }

    /// Reserve `bytes` of shared memory aligned to `align` and return the
    /// byte offset.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::OutOfSharedMemory`] past 16 KB.
    pub fn smem_alloc(&mut self, bytes: u32, align: u32) -> Result<u32, BuildError> {
        let align = align.max(1);
        let base = self.smem_cursor.div_ceil(align) * align;
        let end = base + bytes;
        if end > 16_384 {
            return Err(BuildError::OutOfSharedMemory { requested: bytes });
        }
        self.smem_cursor = end;
        Ok(base)
    }

    /// Reserve a 4-byte parameter slot and return its byte offset.
    pub fn param_alloc(&mut self) -> u16 {
        let off = self.param_cursor;
        self.param_cursor += 4;
        off as u16
    }

    // ---- Guards and labels ----

    /// Guard all subsequently emitted instructions with `@p` (or `@!p`).
    pub fn set_guard(&mut self, pred: Pred, negate: bool) -> &mut Self {
        self.guard = Some(PredGuard { pred, negate });
        self
    }

    /// Stop guarding emitted instructions.
    pub fn clear_guard(&mut self) -> &mut Self {
        self.guard = None;
        self
    }

    /// Define a label at the current position. Labels may be referenced
    /// before definition.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        let at = self.instrs.len() as u32;
        if self.labels.insert(name.clone(), at).is_some() {
            // Surface duplicates at finish() via a poisoned fixup.
            self.fixups.push((usize::MAX, name));
        }
        self
    }

    /// Emit a raw operation with the pending guard.
    pub fn emit(&mut self, op: Op) -> &mut Self {
        self.instrs.push(Instruction {
            guard: self.guard,
            op,
        });
        self
    }

    /// Current instruction count (the PC a label defined now would get).
    pub fn pc(&self) -> u32 {
        self.instrs.len() as u32
    }

    // ---- Instruction emitters ----

    /// `d = a * b` (f32, Type I).
    pub fn fmul(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::FMul { d, a, b })
    }

    /// `d = a + b` (f32).
    pub fn fadd(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::FAdd { d, a, b })
    }

    /// `d = a * b + c` (f32).
    pub fn fmad(&mut self, d: Reg, a: Src, b: Src, c: Src) -> &mut Self {
        self.emit(Op::FMad { d, a, b, c })
    }

    /// `d = a + b` (s32).
    pub fn iadd(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::IAdd { d, a, b })
    }

    /// `d = a - b` (s32).
    pub fn isub(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::ISub { d, a, b })
    }

    /// `d = a * b` (s32).
    pub fn imul(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::IMul { d, a, b })
    }

    /// `d = a * b + c` (s32).
    pub fn imad(&mut self, d: Reg, a: Src, b: Src, c: Src) -> &mut Self {
        self.emit(Op::IMad { d, a, b, c })
    }

    /// `d = max(a, b)` (s32).
    pub fn imax(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::IMax { d, a, b })
    }

    /// `d = a << b`.
    pub fn shl(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::Shl { d, a, b })
    }

    /// `d = a >> b` (logical).
    pub fn shr(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::Shr { d, a, b })
    }

    /// `d = a & b`.
    pub fn and(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::And { d, a, b })
    }

    /// `d = a | b`.
    pub fn or(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::Or { d, a, b })
    }

    /// `d = a ^ b`.
    pub fn xor(&mut self, d: Reg, a: Src, b: Src) -> &mut Self {
        self.emit(Op::Xor { d, a, b })
    }

    /// `d = a`.
    pub fn mov(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::Mov { d, a })
    }

    /// `d = imm` (raw 32 bits).
    pub fn mov_imm(&mut self, d: Reg, imm: u32) -> &mut Self {
        self.emit(Op::MovImm { d, imm })
    }

    /// `d = imm` (f32 bit pattern).
    pub fn mov_imm_f32(&mut self, d: Reg, imm: f32) -> &mut Self {
        self.mov_imm(d, imm.to_bits())
    }

    /// `d = special register`.
    pub fn s2r(&mut self, d: Reg, sr: SpecialReg) -> &mut Self {
        self.emit(Op::S2R { d, sr })
    }

    /// `p = a <cmp> b`.
    pub fn setp(&mut self, p: Pred, cmp: CmpOp, ty: NumTy, a: Src, b: Src) -> &mut Self {
        self.emit(Op::SetP { p, cmp, ty, a, b })
    }

    /// `d = p ? a : b`.
    pub fn sel(&mut self, d: Reg, p: Pred, a: Src, b: Src) -> &mut Self {
        self.emit(Op::Sel { d, p, a, b })
    }

    /// `d = (f32)a`.
    pub fn i2f(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::I2F { d, a })
    }

    /// `d = (s32)a`.
    pub fn f2i(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::F2I { d, a })
    }

    /// `d = 1/a` (Type III).
    pub fn rcp(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::Rcp { d, a })
    }

    /// `d = 1/sqrt(a)` (Type III).
    pub fn rsq(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::Rsq { d, a })
    }

    /// `d = sin(a)` (Type III).
    pub fn sin(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::Sin { d, a })
    }

    /// `d = cos(a)` (Type III).
    pub fn cos(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::Cos { d, a })
    }

    /// `d = log2(a)` (Type III).
    pub fn lg2(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::Lg2 { d, a })
    }

    /// `d = 2^a` (Type III).
    pub fn ex2(&mut self, d: Reg, a: Src) -> &mut Self {
        self.emit(Op::Ex2 { d, a })
    }

    /// `d = a + b` (f64 pairs, Type IV).
    pub fn dadd(&mut self, d: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Op::DAdd { d, a, b })
    }

    /// `d = a * b + c` (f64 pairs, Type IV).
    pub fn dfma(&mut self, d: Reg, a: Reg, b: Reg, c: Reg) -> &mut Self {
        self.emit(Op::DFma { d, a, b, c })
    }

    /// Load from shared memory.
    pub fn ld_shared(&mut self, d: Reg, addr: MemAddr, width: Width) -> &mut Self {
        self.emit(Op::LdShared { d, addr, width })
    }

    /// Store to shared memory.
    pub fn st_shared(&mut self, addr: MemAddr, src: Reg, width: Width) -> &mut Self {
        self.emit(Op::StShared { addr, src, width })
    }

    /// Load from global memory.
    pub fn ld_global(&mut self, d: Reg, addr: MemAddr, width: Width) -> &mut Self {
        self.emit(Op::LdGlobal { d, addr, width })
    }

    /// Store to global memory.
    pub fn st_global(&mut self, addr: MemAddr, src: Reg, width: Width) -> &mut Self {
        self.emit(Op::StGlobal { addr, src, width })
    }

    /// Load a kernel parameter word.
    pub fn ld_param(&mut self, d: Reg, offset: u16) -> &mut Self {
        self.emit(Op::LdParam { d, offset })
    }

    /// Atomic `d = [addr]; [addr] += src` on a shared-memory word.
    pub fn atom_shared_add(&mut self, d: Reg, addr: MemAddr, src: Reg) -> &mut Self {
        self.emit(Op::AtomSharedAdd { d, addr, src })
    }

    /// Atomic `d = [addr]; if d == cmp { [addr] = src }` on a shared-memory
    /// word.
    pub fn atom_shared_cas(&mut self, d: Reg, addr: MemAddr, cmp: Reg, src: Reg) -> &mut Self {
        self.emit(Op::AtomSharedCas { d, addr, cmp, src })
    }

    /// Block-wide barrier.
    pub fn bar(&mut self) -> &mut Self {
        self.emit(Op::Bar)
    }

    /// Unconditional branch to a label.
    pub fn bra(&mut self, label: impl Into<String>) -> &mut Self {
        let at = self.instrs.len();
        self.fixups.push((at, label.into()));
        // Placeholder target patched in finish(); guard applies as pending.
        self.instrs.push(Instruction {
            guard: self.guard,
            op: Op::Bra { target: u32::MAX },
        });
        self
    }

    /// Conditional branch: `@p bra label` (or `@!p`). The explicit guard
    /// overrides any pending [`KernelBuilder::set_guard`] for this one
    /// instruction.
    pub fn bra_if(&mut self, pred: Pred, negate: bool, label: impl Into<String>) -> &mut Self {
        let at = self.instrs.len();
        self.fixups.push((at, label.into()));
        self.instrs.push(Instruction {
            guard: Some(PredGuard { pred, negate }),
            op: Op::Bra { target: u32::MAX },
        });
        self
    }

    /// Terminate the thread.
    pub fn exit(&mut self) -> &mut Self {
        // `exit` ends the kernel for all lanes; an accidental pending guard
        // would make validation fail with FallsOffEnd, so emit unguarded.
        self.instrs.push(Instruction::new(Op::Exit));
        self
    }

    /// No-op (issue-slot filler).
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Op::Nop)
    }

    /// Resolve labels, compute resources, validate, and produce the kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for unresolved or duplicate labels, or any
    /// structural validation failure.
    pub fn finish(self) -> Result<Kernel, BuildError> {
        let mut instrs = self.instrs;
        for (at, label) in &self.fixups {
            if *at == usize::MAX {
                return Err(BuildError::DuplicateLabel(label.clone()));
            }
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| BuildError::UndefinedLabel(label.clone()))?;
            match &mut instrs[*at].op {
                Op::Bra { target: t } => *t = target,
                _ => unreachable!("fixup on a non-branch"),
            }
        }
        let computed =
            KernelResources::new(self.high_water, self.smem_cursor, self.threads_per_block);
        let resources = self.declared.unwrap_or(computed);
        let kernel = Kernel::new(self.name, instrs, resources, self.param_cursor);
        kernel.validate()?;
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = KernelBuilder::new("t");
        let r = b.alloc_reg().unwrap();
        b.mov_imm(r, 0);
        b.bra("end"); // forward reference
        b.label("mid");
        b.nop();
        b.label("end");
        b.exit();
        let k = b.finish().unwrap();
        assert_eq!(k.instrs[1].op, Op::Bra { target: 3 });
    }

    #[test]
    fn undefined_label_fails() {
        let mut b = KernelBuilder::new("t");
        b.bra("nowhere");
        b.exit();
        assert_eq!(
            b.finish().unwrap_err(),
            BuildError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_fails() {
        let mut b = KernelBuilder::new("t");
        b.label("x");
        b.nop();
        b.label("x");
        b.exit();
        assert_eq!(
            b.finish().unwrap_err(),
            BuildError::DuplicateLabel("x".into())
        );
    }

    #[test]
    fn register_allocation_reuses_freed() {
        let mut b = KernelBuilder::new("t");
        let r0 = b.alloc_reg().unwrap();
        let r1 = b.alloc_reg().unwrap();
        assert_eq!((r0, r1), (Reg(0), Reg(1)));
        b.free_reg(r0);
        assert_eq!(b.alloc_reg().unwrap(), Reg(0));
        // High-water unaffected by reuse.
        b.nop();
        b.exit();
        let k = b.finish().unwrap();
        assert_eq!(k.resources.regs_per_thread, 2);
    }

    #[test]
    fn contiguous_allocation_is_aligned() {
        let mut b = KernelBuilder::new("t");
        let _ = b.alloc_reg().unwrap(); // r0
        let quad = b.alloc_contig(4).unwrap();
        assert_eq!(quad, Reg(4)); // aligned to 4
                                  // The padding r1..r3 is recycled.
        let r = b.alloc_reg().unwrap();
        assert!(r.0 >= 1 && r.0 <= 3);
    }

    #[test]
    fn register_exhaustion_detected() {
        let mut b = KernelBuilder::new("t");
        for _ in 0..128 {
            b.alloc_reg().unwrap();
        }
        assert_eq!(b.alloc_reg().unwrap_err(), BuildError::OutOfRegisters);
    }

    #[test]
    fn smem_allocation_aligns_and_bounds() {
        let mut b = KernelBuilder::new("t");
        assert_eq!(b.smem_alloc(5, 1).unwrap(), 0);
        assert_eq!(b.smem_alloc(8, 4).unwrap(), 8);
        assert!(matches!(
            b.smem_alloc(16_384, 4),
            Err(BuildError::OutOfSharedMemory { .. })
        ));
    }

    #[test]
    fn guards_apply_to_emitted_instructions() {
        let mut b = KernelBuilder::new("t");
        let r = b.alloc_reg().unwrap();
        b.set_guard(Pred(1), true);
        b.mov_imm(r, 7);
        b.clear_guard();
        b.mov_imm(r, 8);
        b.exit();
        let k = b.finish().unwrap();
        assert_eq!(
            k.instrs[0].guard,
            Some(PredGuard {
                pred: Pred(1),
                negate: true
            })
        );
        assert_eq!(k.instrs[1].guard, None);
    }

    #[test]
    fn declared_resources_override_computed() {
        let mut b = KernelBuilder::new("t");
        b.set_threads(64);
        let _ = b.alloc_reg().unwrap();
        b.declare_resources(KernelResources::new(30, 1088, 64));
        b.nop();
        b.exit();
        let computed = b.computed_resources();
        let k = b.finish().unwrap();
        assert_eq!(k.resources.regs_per_thread, 30);
        assert_eq!(computed.regs_per_thread, 1);
    }

    #[test]
    fn validation_runs_on_finish() {
        let mut b = KernelBuilder::new("t");
        b.nop(); // no exit
        assert!(matches!(b.finish(), Err(BuildError::Validate(_))));
    }

    #[test]
    fn param_slots_advance() {
        let mut b = KernelBuilder::new("t");
        assert_eq!(b.param_alloc(), 0);
        assert_eq!(b.param_alloc(), 4);
        let r = b.alloc_reg().unwrap();
        b.ld_param(r, 4);
        b.exit();
        assert_eq!(b.finish().unwrap().param_bytes, 8);
    }
}
