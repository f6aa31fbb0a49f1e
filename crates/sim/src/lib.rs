#![warn(missing_docs)]

//! Functional and timing simulators for a GT200-class GPU.
//!
//! Two simulators share the [`gpa_isa`] instruction set:
//!
//! * [`func::FunctionalSim`] — the **Barra substitute** (paper Figure 1):
//!   executes a kernel warp-lockstep over a grid, with PDOM-stack branch
//!   divergence, and collects the *dynamic* statistics the model consumes —
//!   warp-level instruction counts per Table 1 class, shared-memory
//!   transactions weighted by bank conflicts, coalesced global-memory
//!   transactions at several granularities, and per-barrier stage splits.
//!   It can also record per-warp instruction traces for the timing
//!   simulator. Grids can execute sequentially or sharded across worker
//!   threads by [`engine`] with bit-identical output
//!   ([`func::FunctionalSim::set_threads`] with an [`engine::Threads`]
//!   selection; under `Auto`, only grids of at least [`engine::GRAIN`]
//!   warp instructions shard).
//! * [`timing::TimingSim`] — the **hardware substitute**: a coarse
//!   cycle-level model of the GTX 285 (scoreboarded in-order warp issue,
//!   per-class port occupancy, a 16-bank shared-memory port, TPC clusters
//!   sharing a memory pipeline, a DRAM bandwidth server, and an
//!   occupancy-limited block scheduler). Microbenchmarks "measure" this
//!   machine, and applications' *measured* times come from it; the
//!   analytical model in `gpa-core` never sees its internals — only the
//!   published machine description — so model-vs-measured comparisons are
//!   meaningful, as in the paper.
//!
//! A trace is an ordinary value: the functional simulator allocates it,
//! the timing replay reads it through a [`timing::TraceSource`], and the
//! caller drops it. It is compact ([`stats::BlockTrace`]): a kernel's
//! instruction skeletons are interned once into a shared table, and a
//! traced warp instruction is an 8-byte [`stats::Step`] (skeleton id,
//! bank-conflict weight, transaction count) whose global transactions
//! follow the warp's earlier ones in one list. The source is also the
//! one statement of how much of the chip to replay:
//! [`timing::TraceSource::Homogeneous`] (every block the same) replays
//! the most-loaded cluster and scales from it,
//! [`timing::TraceSource::PerBlock`] replays every cluster. The
//! functional pass observes which one a grid gets
//! ([`func::TraceBlocks::Replay`]): no kernel declares it.
//!
//! The timing parameters ([`timing::TimingConfig::gt200`]) are calibrated
//! against the paper's published throughput curves (Figures 2–3);
//! `tests/microbench_properties.rs` at the workspace root checks the
//! calibrated curves against the paper's peaks and plateaus.

pub mod engine;
pub mod error;
pub mod func;
pub mod grid;
pub mod memory;
pub mod stats;
pub mod timing;

pub use engine::Threads;
pub use error::SimError;
pub use func::{FunctionalSim, TraceBlocks};
pub use grid::LaunchConfig;
pub use memory::GlobalMemory;
pub use stats::{BlockTrace, DynamicStats, StageStats};
pub use timing::{TimingConfig, TimingResult, TimingSim, TraceSource};
