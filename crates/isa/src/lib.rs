#![warn(missing_docs)]

//! Native-flavoured GPU instruction set for the `gpa` performance model.
//!
//! The paper's central methodological claim is that accurate GPU performance
//! modeling must happen at the **native** instruction level, not at PTX or
//! source level, and that microbenchmarks must be built by emitting *exactly*
//! the binary instructions one intends (the paper modifies CUBINs with a
//! Decuda-based toolchain to defeat compiler interference). This crate is
//! that layer for our simulated GT200:
//!
//! * [`instr`] — the instruction set itself: a decuda-flavoured, structured
//!   representation of GT200-style native instructions, each tagged with its
//!   Table 1 [`gpa_hw::InstrClass`];
//! * [`asm`] — a textual assembler and disassembler. Its text is the one
//!   serialized kernel form: the service's custom-kernel wire format and
//!   `gpa-analyze --kernel-asm` carry it. The simulators run the in-memory
//!   [`Instruction`] stream directly, with no binary form in between;
//! * [`kernel`] — the kernel container (instructions + declared resources)
//!   and its validator;
//! * [`mod@cfg`] — control-flow analysis: basic blocks, postdominators, and the
//!   branch reconvergence points the SIMT divergence stack needs;
//! * [`builder`] — [`builder::KernelBuilder`], an ergonomic programmatic
//!   emitter with label patching, a register allocator, and shared-memory /
//!   parameter layout management.
//!
//! # Example
//!
//! ```
//! use gpa_isa::builder::KernelBuilder;
//! use gpa_isa::instr::Src;
//!
//! // acc = x * s[buf] + acc, reading one operand from shared memory.
//! let mut b = KernelBuilder::new("saxpy_like");
//! let buf = b.smem_alloc(4, 4)?;
//! let acc = b.alloc_reg()?;
//! let x = b.alloc_reg()?;
//! b.mov_imm_f32(acc, 0.0);
//! b.mov_imm_f32(x, 2.0);
//! b.fmad(acc, Src::Reg(x), Src::smem(None, buf as i32), Src::Reg(acc));
//! b.exit();
//! let kernel = b.finish()?;
//! assert_eq!(kernel.instrs.len(), 4);
//! # Ok::<(), gpa_isa::builder::BuildError>(())
//! ```

pub mod asm;
pub mod builder;
pub mod cfg;
pub mod instr;
pub mod kernel;

pub use builder::KernelBuilder;
pub use instr::{CmpOp, Instruction, MemAddr, Op, Pred, PredGuard, Reg, Src, Width};
pub use kernel::Kernel;
