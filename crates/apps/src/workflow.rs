//! The shared case-study driver: the paper's Figure 1 workflow end to end.
//!
//! A [`CaseStudy`] is a *portable description* of one prepared case study
//! (kernel, launch, device memory image, regions, verification oracle),
//! and [`run_study`] runs it: functional simulation → info extraction →
//! model analysis → timing measurement. No kernel declares how its blocks
//! are timed: the one functional pass observes whether they are uniform
//! and hands the timing replay its [`gpa_sim::TraceSource`]. The
//! per-application `case()` constructors ([`crate::matmul::case`],
//! [`crate::tridiag::case`], [`crate::spmv::case`]) build these, and both
//! [`CaseStudy::run`] and the `gpa-service` `Analyzer` execute them
//! through [`run_study`], so a service request and a direct call produce
//! bit-identical results. [`CaseStudy::run`] leaves the worker count to
//! the engine ([`Threads::Auto`]): the answer is the same at every count,
//! so only [`run_study`] takes a [`Threads`].

use gpa_core::{extract, Analysis, InputError, Model, ModelInput};
use gpa_hw::Machine;
use gpa_isa::Kernel;
use gpa_sim::func::RunOutput;
use gpa_sim::{
    FunctionalSim, GlobalMemory, LaunchConfig, SimError, Threads, TimingResult, TimingSim,
    TraceBlocks,
};
use std::fmt;

/// A stub kept for callers outside this workspace that still name a
/// trace mode. It chooses nothing: [`run_study`]'s functional pass
/// observes whether a grid's blocks are uniform
/// ([`gpa_sim::TraceBlocks::Replay`]), and no kernel or request declares
/// it. To be deleted with [`CaseStudy::mode`] once nothing names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// The only mode: let the traced pass decide.
    Auto,
}

/// Why a case run failed: the simulation itself, or assembling the
/// model's input from inconsistent pieces. The drivers used to panic on
/// the latter; the service API surfaces both as values.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseError {
    /// The functional simulation failed.
    Sim(SimError),
    /// The extracted statistics do not describe the launch.
    Input(InputError),
}

impl fmt::Display for CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseError::Sim(e) => write!(f, "simulation failed: {e}"),
            CaseError::Input(e) => write!(f, "info extraction failed: {e}"),
        }
    }
}

impl std::error::Error for CaseError {}

impl From<SimError> for CaseError {
    fn from(e: SimError) -> CaseError {
        CaseError::Sim(e)
    }
}

impl From<InputError> for CaseError {
    fn from(e: InputError) -> CaseError {
        CaseError::Input(e)
    }
}

/// A named global region to attribute traffic to.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region name (e.g. `"vector"`).
    pub name: String,
    /// Device base address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Route loads from this region through the texture cache.
    pub texture: bool,
}

impl Region {
    /// A plain (non-texture) region.
    pub fn new(name: impl Into<String>, base: u64, len: u64) -> Region {
        Region {
            name: name.into(),
            base,
            len,
            texture: false,
        }
    }

    /// A texture-cached region.
    pub fn texture(name: impl Into<String>, base: u64, len: u64) -> Region {
        Region {
            name: name.into(),
            base,
            len,
            texture: true,
        }
    }
}

/// Everything one workflow run produces: dynamic statistics and model
/// analysis ("simulated") plus the timing-simulator result ("measured").
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// The extracted model input (launch, occupancy, statistics).
    pub input: ModelInput,
    /// The model's analysis.
    pub analysis: Analysis,
    /// The timing simulator's end-to-end measurement.
    pub timing: TimingResult,
}

impl CaseRun {
    /// Measured wall time in seconds.
    pub fn measured_seconds(&self) -> f64 {
        self.timing.seconds
    }

    /// Model prediction in seconds.
    pub fn predicted_seconds(&self) -> f64 {
        self.analysis.predicted_seconds
    }

    /// Signed relative model error vs the measurement (the paper reports
    /// 5–15% magnitudes).
    pub fn model_error(&self) -> f64 {
        (self.predicted_seconds() - self.measured_seconds()) / self.measured_seconds()
    }

    /// GFLOP/s at the measured time for a workload of `flops` operations.
    pub fn measured_gflops(&self, flops: u64) -> f64 {
        flops as f64 / self.measured_seconds() / 1e9
    }
}

/// Verification oracle of a [`CaseStudy`]: inspects the post-run global
/// memory and reports the first mismatch against the CPU reference.
pub type Verifier = Box<dyn Fn(&GlobalMemory) -> Result<(), String> + Send + Sync>;

/// One prepared case study: everything [`run_study`] needs to execute the
/// full workflow, plus the CPU-reference oracle to check the result.
///
/// Built by [`crate::matmul::case`], [`crate::tridiag::case`], and
/// [`crate::spmv::case`]; run by [`CaseStudy::run`] and by
/// `gpa-service`'s `Analyzer` through the same code path.
pub struct CaseStudy {
    /// Human-readable label (e.g. `"matmul16x16 n=256"`).
    pub label: String,
    /// The kernel to launch.
    pub kernel: Kernel,
    /// Launch shape.
    pub launch: LaunchConfig,
    /// Kernel parameter words.
    pub params: Vec<u32>,
    /// The prepared device-memory image; mutated in place by the run.
    pub gmem: GlobalMemory,
    /// Named regions for traffic attribution (and texture binding).
    pub regions: Vec<Region>,
    /// Always [`TraceMode::Auto`]; see [`TraceMode`].
    pub mode: TraceMode,
    /// Floating-point operations of the workload (`0` = not meaningful).
    pub flops: u64,
    verify: Option<Verifier>,
}

impl fmt::Debug for CaseStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CaseStudy")
            .field("label", &self.label)
            .field("kernel", &self.kernel.name)
            .field("launch", &self.launch)
            .field("flops", &self.flops)
            .field("verified", &self.verify.is_some())
            .finish_non_exhaustive()
    }
}

impl CaseStudy {
    /// Construct a study; `verify` is the optional CPU-reference oracle.
    // One argument per field; the per-app `case()` constructors are the
    // only callers and already have every piece in hand.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        kernel: Kernel,
        launch: LaunchConfig,
        params: Vec<u32>,
        gmem: GlobalMemory,
        regions: Vec<Region>,
        flops: u64,
        verify: Option<Verifier>,
    ) -> CaseStudy {
        CaseStudy {
            label: label.into(),
            kernel,
            launch,
            params,
            gmem,
            regions,
            mode: TraceMode::Auto,
            flops,
            verify,
        }
    }

    /// An ad-hoc study around an arbitrary kernel: no verification oracle
    /// and no declared flop count (`flops: 0`, so consumers fall back to
    /// the simulator's dynamic count). This is how wire-built kernels —
    /// `gpa-service`'s `KernelSpec::Custom` — enter the same
    /// [`run_study`] path as the case studies.
    pub fn adhoc(
        kernel: Kernel,
        launch: LaunchConfig,
        params: Vec<u32>,
        gmem: GlobalMemory,
        regions: Vec<Region>,
    ) -> CaseStudy {
        CaseStudy {
            label: kernel.name.clone(),
            kernel,
            launch,
            params,
            gmem,
            regions,
            mode: TraceMode::Auto,
            flops: 0,
            verify: None,
        }
    }

    /// Whether this study carries a verification oracle.
    pub fn has_verifier(&self) -> bool {
        self.verify.is_some()
    }

    /// Run the full workflow ([`run_study`]) with the engine's choice of
    /// worker count and the default fuel. The study's memory image holds
    /// the result afterwards, for [`CaseStudy::check`].
    ///
    /// # Errors
    ///
    /// Propagates functional-simulation errors and info-extraction errors.
    pub fn run(&mut self, machine: &Machine, model: &mut Model<'_>) -> Result<CaseRun, CaseError> {
        run_study(machine, model, self, Threads::Auto, None)
    }

    /// Check the current memory image against the CPU reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch. Studies without an
    /// oracle trivially pass.
    pub fn check(&self) -> Result<(), String> {
        match &self.verify {
            Some(v) => v(&self.gmem),
            None => Ok(()),
        }
    }
}

/// Run the full workflow for one prepared [`CaseStudy`].
///
/// The functional simulation runs every block (verifying memory safety and
/// mutating the study's memory image in place, so [`CaseStudy::check`] can
/// verify afterwards) and traces it for the timing replay, dropping the
/// traces that repeat ([`TraceBlocks::Replay`]). The pass hands the
/// replay its [`gpa_sim::TraceSource`]: one cluster from block 0's trace
/// when every block is shape-equal to it, else every cluster. `threads`
/// shards both block execution and the timing replay; results and errors
/// are bit-identical for every selection. `fuel` is the grid's
/// warp-instruction budget (runaway-loop guard; `None` keeps the
/// simulator's default).
///
/// # Errors
///
/// Propagates functional-simulation errors and info-extraction errors.
pub fn run_study(
    machine: &Machine,
    model: &mut Model<'_>,
    study: &mut CaseStudy,
    threads: Threads,
    fuel: Option<u64>,
) -> Result<CaseRun, CaseError> {
    let out = functional_pass(machine, study, threads, fuel)?;
    let src = out.trace_source().expect("trace collection enabled");

    let CaseStudy {
        kernel,
        launch,
        regions,
        ..
    } = study;
    let mut timing = TimingSim::new(machine);
    // The same worker selection drives both phases: block execution in the
    // functional pass and cluster replay in the timing pass (a homogeneous
    // source replays one cluster, so it stays single-worker regardless).
    timing.set_threads(threads);
    let tex: Vec<(u64, u64)> = regions
        .iter()
        .filter(|r| r.texture)
        .map(|r| (r.base, r.len))
        .collect();
    if !tex.is_empty() {
        timing.set_texture_regions(tex);
    }
    let timing_result = timing.run(&src, launch, kernel.resources);

    let input = extract(machine, &kernel.name, *launch, kernel.resources, out.stats)?;
    let analysis = model.analyze(&input);

    Ok(CaseRun {
        input,
        analysis,
        timing: timing_result,
    })
}

/// [`run_study`]'s one functional pass over every block: it verifies
/// memory safety, mutates the study's memory image in place, gathers the
/// dynamic statistics, and records the traces the timing replay needs.
fn functional_pass(
    machine: &Machine,
    study: &mut CaseStudy,
    threads: Threads,
    fuel: Option<u64>,
) -> Result<RunOutput, SimError> {
    let CaseStudy {
        kernel,
        launch,
        params,
        gmem,
        regions,
        ..
    } = study;
    let mut func = FunctionalSim::new(machine, kernel, *launch)?;
    func.set_params(params)
        .set_threads(threads)
        .collect_traces(TraceBlocks::Replay);
    if let Some(fuel) = fuel {
        func.set_fuel(fuel);
    }
    for r in regions.iter() {
        if r.texture {
            func.add_texture_region(r.name.clone(), r.base, r.len);
        } else {
            func.add_region(r.name.clone(), r.base, r.len);
        }
    }
    func.run(gmem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_sim::TraceSource;

    /// Whether `study`'s functional pass on `machine` replays the grid
    /// from block 0's trace alone.
    fn uniform(machine: &Machine, mut study: CaseStudy) -> bool {
        let out = functional_pass(machine, &mut study, Threads::Auto, None).unwrap();
        matches!(out.trace_source(), Some(TraceSource::Homogeneous(_)))
    }

    /// Matmul and tridiag blocks are identical by construction: each
    /// block walks its own slice of memory with the same instructions,
    /// conflict degrees and transaction shapes. The pass must observe
    /// that, or their replay would cost every cluster and their traces
    /// every block. Every built-in size of both, on every Table 3 SKU.
    #[test]
    fn built_in_matmul_and_tridiag_grids_are_uniform() {
        for machine in Machine::paper_table3() {
            for n in [128, 256] {
                for tile in crate::matmul::TILES {
                    let study = crate::matmul::case(n, tile);
                    assert!(uniform(&machine, study), "n={n} tile={tile}");
                }
            }
            for nsys in [128, 256] {
                for padded in [true, false] {
                    let n = 2 * crate::tridiag::THREADS;
                    let study = crate::tridiag::case(n, nsys, padded);
                    assert!(uniform(&machine, study), "nsys={nsys} padded={padded}");
                }
            }
        }
    }

    /// The same at every size the wire accepts: matmul n = 64..=1024 in
    /// steps of 64 with every tile on the GTX 285 and up to 640 on the
    /// G92 SKUs, and tridiag at odd and round system counts on all three
    /// (156 grids, a minute on 2 cores in release).
    #[test]
    #[ignore = "wire-size sweep: run with --release -- --ignored"]
    fn every_wire_size_of_matmul_and_tridiag_is_uniform() {
        for machine in Machine::paper_table3() {
            let max_n = if machine.name == "GeForce GTX 285" {
                1024
            } else {
                640
            };
            for n in (64..=max_n).step_by(64) {
                for tile in crate::matmul::TILES {
                    let study = crate::matmul::case(n, tile);
                    let what = format!("matmul n={n} tile={tile} on {}", machine.name);
                    assert!(uniform(&machine, study), "{what}");
                }
            }
            for nsys in [1, 2, 3, 7, 31, 64, 100, 1000] {
                for padded in [true, false] {
                    let n = 2 * crate::tridiag::THREADS;
                    let study = crate::tridiag::case(n, nsys, padded);
                    let what = format!("tridiag nsys={nsys} padded={padded} on {}", machine.name);
                    assert!(uniform(&machine, study), "{what}");
                }
            }
        }
    }
}
