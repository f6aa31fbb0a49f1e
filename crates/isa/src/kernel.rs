//! The kernel container: an instruction stream plus declared resources.

use crate::instr::{Instruction, Op, Reg, Src};
use gpa_hw::KernelResources;
use std::error::Error;
use std::fmt;

/// A compiled kernel: the unit the simulators execute and the model
/// analyzes.
///
/// Branch targets are absolute instruction indices (labels exist only in the
/// textual assembly form, see [`crate::asm`]). `resources` carries the
/// *declared* register/shared-memory/thread footprint used for occupancy —
/// the role NVCC's `-Xptxas -v` output plays in the paper's Figure 1
/// workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (diagnostics and assembly round-trips).
    pub name: String,
    /// The instruction stream.
    pub instrs: Vec<Instruction>,
    /// Declared resource usage (drives the occupancy calculation).
    pub resources: KernelResources,
    /// Size of the parameter block in bytes.
    pub param_bytes: u32,
}

/// Problems detected by [`Kernel::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // fields are the instruction index and offending value
pub enum ValidateError {
    /// The kernel has no instructions.
    Empty,
    /// A branch at `at` targets an out-of-range instruction index.
    BranchOutOfRange { at: usize, target: u32 },
    /// The final instruction can fall off the end of the stream.
    FallsOffEnd,
    /// An instruction uses more than one immediate-field operand.
    ImmFieldConflict { at: usize },
    /// A register operand (or multi-register access) exceeds `r127`.
    RegOutOfRange { at: usize, reg: u8 },
    /// A shared-operand or `ld/st.shared` offset lies outside the declared
    /// shared-memory size.
    SMemOutOfDeclared { at: usize, offset: i32 },
    /// A base-less shared offset is not a multiple of its access width
    /// (`width` bytes; 4 for an ALU operand), so every executing lane
    /// faults.
    SMemMisaligned { at: usize, offset: i32, width: u32 },
    /// A parameter load reads past the declared parameter block.
    ParamOutOfRange { at: usize, offset: u16 },
    /// Double-precision operands must be even-aligned register pairs.
    MisalignedPair { at: usize, reg: u8 },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Empty => write!(f, "kernel has no instructions"),
            ValidateError::BranchOutOfRange { at, target } => {
                write!(
                    f,
                    "instruction {at}: branch target {target} is out of range"
                )
            }
            ValidateError::FallsOffEnd => {
                write!(f, "control can fall off the end of the instruction stream")
            }
            ValidateError::ImmFieldConflict { at } => {
                write!(f, "instruction {at}: more than one immediate-field operand")
            }
            ValidateError::RegOutOfRange { at, reg } => {
                write!(f, "instruction {at}: register r{reg} is out of range")
            }
            ValidateError::SMemOutOfDeclared { at, offset } => {
                write!(
                    f,
                    "instruction {at}: shared-memory offset {offset} exceeds the declared size"
                )
            }
            ValidateError::SMemMisaligned { at, offset, width } => {
                write!(
                    f,
                    "instruction {at}: shared-memory offset {offset} is not {width}-byte aligned"
                )
            }
            ValidateError::ParamOutOfRange { at, offset } => {
                write!(
                    f,
                    "instruction {at}: parameter offset {offset} exceeds the param block"
                )
            }
            ValidateError::MisalignedPair { at, reg } => {
                write!(
                    f,
                    "instruction {at}: r{reg} is not an even-aligned register pair"
                )
            }
        }
    }
}

impl Error for ValidateError {}

impl Kernel {
    /// Create a kernel. Most callers should use
    /// [`crate::builder::KernelBuilder`] instead, which resolves labels and
    /// computes resources.
    pub fn new(
        name: impl Into<String>,
        instrs: Vec<Instruction>,
        resources: KernelResources,
        param_bytes: u32,
    ) -> Kernel {
        Kernel {
            name: name.into(),
            instrs,
            resources,
            param_bytes,
        }
    }

    /// Structural validation: branch targets, operand ranges, resource
    /// consistency. The simulators require a validated kernel.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found, in instruction order.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.instrs.is_empty() {
            return Err(ValidateError::Empty);
        }
        let n = self.instrs.len();
        for (at, ins) in self.instrs.iter().enumerate() {
            // Immediate-field sharing: at most one non-register ALU operand.
            let operands = ins.op.operands();
            if operands
                .iter()
                .filter(|s| !matches!(s, Src::Reg(_)))
                .count()
                > 1
            {
                return Err(ValidateError::ImmFieldConflict { at });
            }
            // Register ranges, including multi-register widths.
            if let Some((d, k)) = ins.op.dst() {
                let last = u32::from(d.0) + u32::from(k) - 1;
                if last >= u32::from(Reg::COUNT) {
                    return Err(ValidateError::RegOutOfRange { at, reg: d.0 });
                }
            }
            for r in ins.op.src_regs() {
                if !r.is_valid() {
                    return Err(ValidateError::RegOutOfRange { at, reg: r.0 });
                }
            }
            // Double-precision pair alignment.
            match ins.op {
                Op::DAdd { d, a, b } | Op::DMul { d, a, b } => {
                    for r in [d, a, b] {
                        if r.0 % 2 != 0 {
                            return Err(ValidateError::MisalignedPair { at, reg: r.0 });
                        }
                    }
                }
                Op::DFma { d, a, b, c } => {
                    for r in [d, a, b, c] {
                        if r.0 % 2 != 0 {
                            return Err(ValidateError::MisalignedPair { at, reg: r.0 });
                        }
                    }
                }
                _ => {}
            }
            // Static shared offsets must fall inside the declared region
            // (dynamic base registers are checked at execution time).
            let smem_limit = i64::from(self.resources.smem_per_block);
            if let Some((off, len)) = ins.op.bare_smem() {
                // In i64: an offset near `i32::MAX` plus the width must
                // not wrap back into range.
                if off < 0 || i64::from(off) + i64::from(len) > smem_limit {
                    return Err(ValidateError::SMemOutOfDeclared { at, offset: off });
                }
                if i64::from(off) % i64::from(len) != 0 {
                    return Err(ValidateError::SMemMisaligned {
                        at,
                        offset: off,
                        width: len,
                    });
                }
            }
            if let Op::LdParam { offset, .. } = ins.op {
                if u32::from(offset) + 4 > self.param_bytes {
                    return Err(ValidateError::ParamOutOfRange { at, offset });
                }
            }
            // Branch targets.
            if let Op::Bra { target } = ins.op {
                if target as usize >= n {
                    return Err(ValidateError::BranchOutOfRange { at, target });
                }
            }
        }
        // Control must not run off the end: the last instruction must be an
        // exit or an unconditional branch.
        match self.instrs[n - 1] {
            Instruction {
                guard: None,
                op: Op::Exit,
            }
            | Instruction {
                guard: None,
                op: Op::Bra { .. },
            } => Ok(()),
            _ => Err(ValidateError::FallsOffEnd),
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` if the kernel has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {} ({} instrs, {} regs, {} B smem)",
            self.name,
            self.instrs.len(),
            self.resources.regs_per_thread,
            self.resources.smem_per_block
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{MemAddr, Width};

    fn res() -> KernelResources {
        KernelResources::new(8, 1024, 64)
    }

    fn k(instrs: Vec<Instruction>) -> Kernel {
        Kernel::new("t", instrs, res(), 16)
    }

    #[test]
    fn valid_minimal_kernel() {
        let kernel = k(vec![Instruction::new(Op::Exit)]);
        assert!(kernel.validate().is_ok());
    }

    #[test]
    fn empty_kernel_rejected() {
        assert_eq!(k(vec![]).validate(), Err(ValidateError::Empty));
    }

    #[test]
    fn fall_off_end_rejected() {
        let kernel = k(vec![Instruction::new(Op::Nop)]);
        assert_eq!(kernel.validate(), Err(ValidateError::FallsOffEnd));
        // A guarded exit can fall through too.
        let kernel = k(vec![Instruction::guarded(
            crate::instr::Pred(0),
            false,
            Op::Exit,
        )]);
        assert_eq!(kernel.validate(), Err(ValidateError::FallsOffEnd));
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let kernel = k(vec![
            Instruction::new(Op::Bra { target: 9 }),
            Instruction::new(Op::Exit),
        ]);
        assert_eq!(
            kernel.validate(),
            Err(ValidateError::BranchOutOfRange { at: 0, target: 9 })
        );
    }

    #[test]
    fn smem_static_bounds_checked() {
        let kernel = k(vec![
            Instruction::new(Op::LdShared {
                d: Reg(0),
                addr: MemAddr::new(None, 1022),
                width: Width::B32,
            }),
            Instruction::new(Op::Exit),
        ]);
        assert_eq!(
            kernel.validate(),
            Err(ValidateError::SMemOutOfDeclared {
                at: 0,
                offset: 1022
            })
        );
    }

    #[test]
    fn smem_static_alignment_checked() {
        // A base-less offset must be a multiple of the access width: 4,
        // 8 or 16 bytes for `ld/st.shared`, 4 for a shared ALU operand.
        for (text, offset, width) in [
            (".smem 64\n ld.shared.b64 r0, s[0x4]\n exit\n", 4, 8),
            (".smem 64\n ld.shared.b128 r0, s[0x8]\n exit\n", 8, 16),
            (".smem 64\n st.shared.b32 s[0x2], r0\n exit\n", 2, 4),
            (".smem 64\n add.f32 r0, r1, s[0x6]\n exit\n", 6, 4),
        ] {
            let kernel = crate::asm::parse_kernel(text).unwrap();
            assert_eq!(
                kernel.validate(),
                Err(ValidateError::SMemMisaligned {
                    at: 0,
                    offset,
                    width
                }),
                "{text}"
            );
        }
        // Aligned offsets pass, and a base register defers the check to
        // execution.
        for text in [
            ".smem 64\n ld.shared.b64 r0, s[0x8]\n exit\n",
            ".smem 64\n ld.shared.b128 r0, s[0x30]\n exit\n",
            ".smem 64\n add.f32 r0, r1, s[0x4]\n exit\n",
            ".smem 64\n ld.shared.b64 r0, s[r2+0x4]\n exit\n",
        ] {
            let kernel = crate::asm::parse_kernel(text).unwrap();
            assert_eq!(kernel.validate(), Ok(()), "{text}");
        }
    }

    #[test]
    fn param_bounds_checked() {
        let kernel = k(vec![
            Instruction::new(Op::LdParam {
                d: Reg(0),
                offset: 14,
            }),
            Instruction::new(Op::Exit),
        ]);
        assert_eq!(
            kernel.validate(),
            Err(ValidateError::ParamOutOfRange { at: 0, offset: 14 })
        );
    }

    #[test]
    fn wide_store_from_the_last_registers_is_out_of_range() {
        // The register range of a wide store from r254/r255 runs past
        // r255; validation reports it instead of overflowing.
        for text in [
            ".smem 64\n st.shared.b64 s[r0], r255\n exit\n",
            ".smem 64\n st.global.b128 g[r0], r254\n exit\n",
        ] {
            let kernel = crate::asm::parse_kernel(text).unwrap();
            let reg = match kernel.instrs[0].op {
                Op::StShared { src, .. } | Op::StGlobal { src, .. } => src.0,
                _ => unreachable!(),
            };
            assert_eq!(
                kernel.validate(),
                Err(ValidateError::RegOutOfRange { at: 0, reg }),
                "{text}"
            );
        }
        // Double-precision pairs at r254/r255 likewise.
        let kernel = crate::asm::parse_kernel("add.f64 r0, r255, r2\n exit\n").unwrap();
        assert_eq!(
            kernel.validate(),
            Err(ValidateError::RegOutOfRange { at: 0, reg: 255 })
        );
    }

    #[test]
    fn static_smem_offset_near_i32_max_is_out_of_declared() {
        // `offset + width` must not wrap back into the declared range.
        let kernel =
            crate::asm::parse_kernel(".smem 64\n ld.shared.b32 r0, s[0x7ffffffe]\n exit\n")
                .unwrap();
        assert_eq!(
            kernel.validate(),
            Err(ValidateError::SMemOutOfDeclared {
                at: 0,
                offset: 0x7fff_fffe
            })
        );
    }

    #[test]
    fn wide_load_register_range_checked() {
        let kernel = k(vec![
            Instruction::new(Op::LdGlobal {
                d: Reg(126),
                addr: MemAddr::new(None, 0),
                width: Width::B128,
            }),
            Instruction::new(Op::Exit),
        ]);
        assert_eq!(
            kernel.validate(),
            Err(ValidateError::RegOutOfRange { at: 0, reg: 126 })
        );
    }

    #[test]
    fn dfma_alignment_checked() {
        let kernel = k(vec![
            Instruction::new(Op::DFma {
                d: Reg(1),
                a: Reg(2),
                b: Reg(4),
                c: Reg(6),
            }),
            Instruction::new(Op::Exit),
        ]);
        assert_eq!(
            kernel.validate(),
            Err(ValidateError::MisalignedPair { at: 0, reg: 1 })
        );
    }

    #[test]
    fn display_mentions_name_and_size() {
        let kernel = k(vec![Instruction::new(Op::Exit)]);
        let s = format!("{kernel}");
        assert!(s.contains('t') && s.contains("1 instrs"));
    }
}
