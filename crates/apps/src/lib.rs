#![warn(missing_docs)]

//! Case studies (paper §5): three real-world workloads, one per bottleneck.
//!
//! | Module | Application | Paper's finding |
//! |--------|-------------|-----------------|
//! | [`matmul`] | dense matrix multiply (Volkov-style register tiling) | instruction-pipeline-bound at 8×8/16×16 tiles; shifts to shared memory at 32×32 because occupancy drops to 6 warps (§5.1) |
//! | [`tridiag`] | cyclic-reduction tridiagonal solver | shared-memory-bound from doubling bank conflicts; padding (CR-NBC) removes them for ≈1.6× (§5.2) |
//! | [`spmv`] | sparse matrix–vector multiply (ELL / blocked ELL) | global-memory-bound; interleaving the vector cuts gather bytes, +18% over the prior best (§5.3) |
//!
//! [`zoo`] complements the case studies with twelve small named
//! workloads — one per canonical performance pattern (coalesced
//! streaming, strided/uncoalesced access, bank conflicts, contended
//! atomics, divergence, …) — addressable by name from the CLI and the
//! service wire.
//!
//! Each module provides the kernels (built with `gpa_isa::KernelBuilder`),
//! a CPU reference for functional verification, and a `case()` constructor
//! whose [`CaseStudy`] runs the full paper workflow
//! ([`CaseStudy::run`]): functional simulation → info extraction → model
//! analysis → timing-simulator measurement. [`workflow`] holds the shared
//! driver.

pub mod matmul;
pub mod spmv;
pub mod tridiag;
pub mod workflow;
pub mod zoo;

pub use workflow::{CaseError, CaseRun, CaseStudy, TraceMode};
