//! The shared case-study driver: the paper's Figure 1 workflow end to end.
//!
//! A [`CaseStudy`] is a *portable description* of one prepared case study
//! (kernel, launch, device memory image, regions, declared trace mode,
//! verification oracle), and [`run_study`] runs it: functional simulation
//! → info extraction → model analysis → timing measurement. The
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
use gpa_sim::{
    FunctionalSim, GlobalMemory, LaunchConfig, SimError, Threads, TimingResult, TimingSim,
    TraceBlocks, TraceSource,
};
use std::fmt;
use std::sync::Arc;

/// How timing traces are obtained. The kernel declares it
/// ([`CaseStudy::mode`]); requests cannot override it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// All blocks behave identically (same instruction stream, conflict
    /// degrees, and transaction shapes) by construction: trace block 0
    /// once and simulate only the most-loaded cluster. Only kernels that
    /// guarantee uniformity may declare it (matmul, tridiag); it skips
    /// tracing the other blocks, which keeps peak memory at one block's
    /// trace. [`TraceMode::Auto`] holds every block's compact trace
    /// (about 8 B per warp instruction plus 16 B per global transaction,
    /// [`gpa_sim::BlockTrace`]) until the shape check ends.
    Homogeneous,
    /// Detect per-block divergence instead of assuming it away: trace
    /// every block once, and when all traces are pairwise shape-equal
    /// ([`gpa_sim::BlockTrace::shape_eq`]) time the grid from block 0's
    /// trace exactly as [`TraceMode::Homogeneous`] would; otherwise
    /// replay every block's own trace. Texture-cached kernels always take
    /// the per-block replay (it consults real addresses, which shape
    /// equality deliberately ignores). Every kernel whose behavior is not
    /// known ahead of time uses it — SpMV, the zoo, and wire-submitted
    /// custom kernels.
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
    /// The trace mode the kernel declares: [`TraceMode::Homogeneous`]
    /// only when every block is identical by construction.
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
            .field("mode", &self.mode)
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
        mode: TraceMode,
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
            mode,
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
        mode: TraceMode,
    ) -> CaseStudy {
        CaseStudy {
            label: kernel.name.clone(),
            kernel,
            launch,
            params,
            gmem,
            regions,
            mode,
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

/// Run the full workflow for one prepared [`CaseStudy`] with the study's
/// declared trace mode.
///
/// The functional simulation runs every block (verifying memory safety and
/// mutating the study's memory image in place, so [`CaseStudy::check`] can
/// verify afterwards). `threads` shards both block execution and the
/// timing replay; results and errors are bit-identical for every
/// selection. `fuel` is the grid's warp-instruction budget (runaway-loop
/// guard; `None` keeps the simulator's default).
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
    let CaseStudy {
        kernel,
        launch,
        params,
        gmem,
        regions,
        mode,
        ..
    } = study;
    let launch = *launch;
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
    let textured = !tex.is_empty();
    if textured {
        timing.set_texture_regions(tex);
    }

    // One functional pass over every block: it verifies memory safety,
    // mutates the study's memory image in place, gathers the dynamic
    // statistics, and records the traces the timing replay needs.
    let mut func = FunctionalSim::new(machine, kernel, launch)?;
    func.set_params(params).set_threads(threads);
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
    // A declared-homogeneous kernel traces block 0 alone; any other
    // traces every block, so one pass also tells whether they diverge.
    func.collect_traces(match mode {
        TraceMode::Homogeneous => TraceBlocks::First,
        TraceMode::Auto => TraceBlocks::All,
    });
    let out = func.run(gmem)?;
    let mut traces = out.traces.expect("trace collection enabled");
    let uniform = *mode == TraceMode::Homogeneous
        || (!textured && traces.windows(2).all(|w| w[0].shape_eq(&w[1])));
    let src = if uniform {
        // Block 0 runs first on pre-launch memory in every engine
        // configuration, so its trace from inside the full pass is
        // exactly the trace of a separate pass over a pristine copy.
        traces.truncate(1);
        TraceSource::Homogeneous(Arc::new(
            traces.pop().expect("a launch has at least one block"),
        ))
    } else {
        TraceSource::from_blocks(traces)
    };
    let timing_result = timing.run(&src, &launch, kernel.resources);

    let input = extract(machine, &kernel.name, launch, kernel.resources, out.stats)?;
    let analysis = model.analyze(&input);

    Ok(CaseRun {
        input,
        analysis,
        timing: timing_result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_ubench::ThroughputCurves;

    /// Synthetic curves: the runs below never consult real measurements.
    fn model(machine: &Machine) -> Model<'_> {
        Model::new(
            machine,
            ThroughputCurves {
                machine_name: machine.name.clone(),
                warps: vec![1, 32],
                instr: std::array::from_fn(|_| vec![1e9, 1e10]),
                smem: vec![1e10, 1e11],
            },
        )
    }

    /// Matmul and tridiag declare the block-0 path because their blocks
    /// are identical by construction. Every built-in size of both, on
    /// every Table 3 SKU, must answer bit-equal under `Auto` — which
    /// traces every block and replays block 0 only if all are
    /// shape-equal — so an edit that makes a declared case divergent
    /// fails here instead of silently under-reporting.
    #[test]
    fn declared_block0_cases_are_uniform_under_auto() {
        let mut builders: Vec<Box<dyn Fn() -> CaseStudy>> = Vec::new();
        for n in [128, 256] {
            for tile in crate::matmul::TILES {
                builders.push(Box::new(move || crate::matmul::case(n, tile)));
            }
        }
        for nsys in [128, 256] {
            for padded in [true, false] {
                let n = 2 * crate::tridiag::THREADS;
                builders.push(Box::new(move || crate::tridiag::case(n, nsys, padded)));
            }
        }
        for machine in Machine::paper_table3() {
            let mut model = model(&machine);
            for build in &builders {
                let mut declared = build();
                assert_eq!(declared.mode, TraceMode::Homogeneous, "{}", declared.label);
                let mut auto = build();
                auto.mode = TraceMode::Auto;
                let a = run_study(&machine, &mut model, &mut declared, Threads::Auto, None);
                let b = run_study(&machine, &mut model, &mut auto, Threads::Auto, None);
                let (a, b) = (a.unwrap(), b.unwrap());
                let what = format!("{} on {}", declared.label, machine.name);
                assert_eq!(
                    a.timing.cycles.to_bits(),
                    b.timing.cycles.to_bits(),
                    "{what}"
                );
                assert_eq!(a.timing, b.timing, "{what}");
                assert_eq!(a.analysis, b.analysis, "{what}");
            }
        }
    }
}
