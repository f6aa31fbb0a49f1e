#![warn(missing_docs)]

//! Microbenchmarks and throughput curves (paper §4).
//!
//! The paper's key methodological choice is to *measure first, model
//! after*: purpose-built native-code microbenchmarks characterize the
//! machine, and the performance model is a lookup into those measurements.
//! This crate is that layer:
//!
//! * [`instr`] — the **instruction pipeline** microbenchmarks: dependent
//!   chains of each Table 1 instruction class, swept over warps/SM
//!   (Figure 2, left);
//! * [`smem`] — the **shared memory** copy benchmark swept over warps/SM
//!   (Figure 2, right);
//! * [`gmem`] — the **synthetic global-memory benchmark** parameterized by
//!   (blocks, threads/block, transactions/thread), the paper's instrument
//!   for Figure 3 and for the model's global-memory component;
//! * [`curves`] — [`curves::ThroughputCurves`], the measured tables with
//!   interpolating lookups and JSON persistence, plus the memoizing
//!   [`curves::GmemBench`];
//! * [`cache`] — the shared on-disk curve cache (content-hashed keys,
//!   atomic writes) that lets `gpa-bench`, `gpa-analyze`, and `gpa-serve`
//!   processes amortize calibration against one `results/` directory.
//!
//! Every benchmark builds a kernel with `gpa_isa::KernelBuilder` (exact
//! native instructions, no compiler interference), traces one block with
//! the functional simulator, and replays it on the timing simulator.

pub mod cache;
pub mod curves;
pub mod gmem;
pub mod instr;
pub mod smem;

pub use curves::{GmemBench, MeasureOpts, ThroughputCurves};

use gpa_hw::{KernelResources, Machine};
use gpa_isa::Kernel;
use gpa_sim::{FunctionalSim, GlobalMemory, LaunchConfig, TimingSim, TraceSource};
use std::sync::Arc;

/// Trace block 0 of `kernel` with the functional simulator and replay it
/// as a homogeneous grid on the timing simulator: the measurement every
/// microbenchmark shares. Returns the simulated seconds.
///
/// # Panics
///
/// Panics if the launch does not fit `machine` or block 0 faults (the
/// microbenchmarks are fixed-shape kernels; a failure is a bug).
pub(crate) fn replay_block0(
    machine: &Machine,
    kernel: &Kernel,
    launch: LaunchConfig,
    params: &[u32],
    gmem: &mut GlobalMemory,
    res: KernelResources,
) -> f64 {
    let mut sim = FunctionalSim::new(machine, kernel, launch).expect("launchable");
    sim.set_params(params);
    sim.collect_traces(true);
    let mut stats = sim.fresh_stats();
    let trace = sim
        .run_block(gmem, 0, &mut stats)
        .expect("block 0 runs")
        .expect("trace collected");
    let src = TraceSource::Homogeneous(Arc::new(trace));
    TimingSim::new(machine).run(&src, &launch, res).seconds
}
