#![warn(missing_docs)]

//! The unified analysis service: one typed entry point over the whole
//! paper workflow (kernel → functional sim → info extractor → model →
//! bottleneck report), built for answering *many* queries against
//! calibrated machine profiles.
//!
//! # Shape
//!
//! * [`Analyzer`] — the session object. It owns one calibrated profile
//!   ([`gpa_ubench::ThroughputCurves`]) per registered
//!   [`Machine`]: **calibrate once, answer many**.
//! * [`AnalysisRequest`] — one query: a [`KernelSpec`] (a case-study
//!   kernel at some size, or **any** kernel at all via
//!   [`KernelSpec::Custom`]'s portable encoding — asm text, launch,
//!   params, declarative memory image), a machine selector, and
//!   [`AnalysisOptions`] ([`Threads`], fuel, verification, what-if
//!   toggles).
//! * [`AnalysisReport`] — the typed answer: the model's full
//!   [`Analysis`] (component times, per-stage breakdown, bottleneck,
//!   occupancy, diagnosed causes), the timing-simulator measurement,
//!   honest flop accounting, any requested [`WhatIf`] advisor
//!   estimates, and (for custom kernels that ask) post-run region
//!   readback in [`AnalysisReport::outputs`].
//! * [`Analyzer::analyze_batch`] — spreads independent requests across
//!   worker threads (via [`gpa_sim::engine::par_map`]); answers are
//!   identical to sequential [`Analyzer::analyze`] calls.
//! * [`wire`] — the JSON wire format: requests and reports serialize
//!   over `gpa-json` with exact `f64` round-trips, and
//!   [`wire::answer`] is the one front door that both the
//!   `gpa-analyze` binary (request JSON on a file or stdin, no Rust
//!   required) and `gpa-serve` answer through.
//!
//! Every fallible path returns [`ServiceError`] — the service never
//! panics on inconsistent requests.
//!
//! ```
//! use gpa_service::{Analyzer, AnalysisRequest, KernelSpec};
//! use gpa_hw::Machine;
//! use gpa_ubench::MeasureOpts;
//!
//! let mut analyzer = Analyzer::new();
//! analyzer.calibrate(Machine::gtx285(), MeasureOpts::quick());
//! let req = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285");
//! let report = analyzer.analyze(&req).unwrap();
//! assert_eq!(report.machine, "GeForce GTX 285");
//! assert!(report.analysis.predicted_seconds > 0.0);
//! ```

pub mod report_cache;
pub mod wire;

use crate::report_cache::CacheKey;
use gpa_apps::workflow::{run_study, CaseError, CaseStudy, Region, TraceMode};
use gpa_apps::{matmul, spmv, tridiag};
use gpa_core::{Analysis, InputError, Model, ModelInput, WhatIf};
use gpa_hw::Machine;
use gpa_sim::engine::par_map;
use gpa_sim::{GlobalMemory, LaunchConfig, SimError, Threads};
use gpa_ubench::{MeasureOpts, ThroughputCurves};
use std::fmt;
use std::sync::Arc;

pub use gpa_apps::zoo;
pub use report_cache::{ReportCache, ReportCacheConfig, ReportCacheStats};

/// Why the service refused or failed a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// No calibrated machine matches the selector.
    UnknownMachine(String),
    /// The selector matches more than one calibrated machine.
    AmbiguousMachine(String),
    /// The request's kernel specification is out of the supported range.
    InvalidRequest(String),
    /// The functional simulation failed.
    Sim(SimError),
    /// Info extraction rejected the collected statistics.
    Input(InputError),
    /// The result did not match the CPU reference oracle.
    VerificationFailed(String),
    /// The wire payload could not be parsed.
    Wire(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownMachine(s) => {
                write!(f, "no calibrated machine matches `{s}`")
            }
            ServiceError::AmbiguousMachine(s) => {
                write!(f, "machine selector `{s}` is ambiguous")
            }
            ServiceError::InvalidRequest(s) => write!(f, "invalid request: {s}"),
            ServiceError::Sim(e) => write!(f, "simulation failed: {e}"),
            ServiceError::Input(e) => write!(f, "info extraction failed: {e}"),
            ServiceError::VerificationFailed(s) => {
                write!(f, "result does not match the CPU reference: {s}")
            }
            ServiceError::Wire(s) => write!(f, "malformed wire payload: {s}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SimError> for ServiceError {
    fn from(e: SimError) -> ServiceError {
        ServiceError::Sim(e)
    }
}

impl From<InputError> for ServiceError {
    fn from(e: InputError) -> ServiceError {
        ServiceError::Input(e)
    }
}

impl From<CaseError> for ServiceError {
    fn from(e: CaseError) -> ServiceError {
        match e {
            CaseError::Sim(e) => ServiceError::Sim(e),
            CaseError::Input(e) => ServiceError::Input(e),
        }
    }
}

impl From<gpa_json::Error> for ServiceError {
    fn from(e: gpa_json::Error) -> ServiceError {
        ServiceError::Wire(e.to_string())
    }
}

/// Which kernel a request targets.
///
/// The first three variants are the paper's case-study workloads; each
/// maps to the corresponding `gpa_apps::*::case` constructor, so a
/// service request and a direct driver call are bit-identical.
/// [`KernelSpec::Custom`] carries a *portable kernel encoding* — any
/// kernel expressible in the `gpa_isa::asm` text form, with declared
/// launch shape, parameters, and a wire-expressible memory image — so
/// the served surface is exactly as general as the model itself.
/// [`KernelSpec::validate`] checks the size constraints the constructors
/// would otherwise panic on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelSpec {
    /// Dense matmul (§5.1): `n × n` matrices, `tile × tile` B sub-matrix.
    Matmul {
        /// Matrix dimension (multiple of `tile` and 64, ≤ 1024).
        n: u32,
        /// Sub-matrix size: 8, 16, or 32.
        tile: u32,
    },
    /// Cyclic-reduction tridiagonal solver (§5.2).
    Tridiag {
        /// Equations per system (must be 512: two per thread).
        n: u32,
        /// Independent systems (one per block).
        nsys: u32,
        /// Pad shared memory to remove bank conflicts (CR-NBC).
        padded: bool,
    },
    /// Sparse matrix–vector multiply on the QCD-like operator (§5.3).
    Spmv {
        /// Lattice extent: the operator has `l⁴` block rows
        /// (`l⁴ · 3` scalar rows; `l⁴` must be a multiple of 256).
        l: u32,
        /// Operator sparsity seed (deterministic).
        seed: u32,
        /// Storage format.
        format: spmv::Format,
        /// Route vector gathers through the texture cache.
        texture: bool,
    },
    /// A workload-zoo kernel addressed by name (see [`gpa_apps::zoo`]):
    /// twelve canonical performance patterns, each parameterized by a
    /// problem size and a data seed.
    Named {
        /// Workload name (one of [`zoo::WORKLOADS`]).
        name: String,
        /// Problem size (elements, or matrix dimension for the
        /// transposes); see [`zoo::validate`] for the per-workload range.
        n: u32,
        /// Deterministic input-data seed.
        seed: u32,
    },
    /// An arbitrary kernel in the portable wire encoding (boxed: the
    /// payload is much larger than the case-study selectors).
    Custom(Box<CustomKernel>),
}

/// Largest accepted tridiagonal system count (see
/// [`KernelSpec::validate`]).
pub const MAX_TRIDIAG_NSYS: u32 = 8192;

/// Largest accepted SpMV lattice extent (see [`KernelSpec::validate`]).
pub const MAX_SPMV_L: u32 = 16;

/// Largest accepted custom-kernel assembly text, in bytes.
pub const MAX_CUSTOM_ASM_BYTES: usize = 256 * 1024;

/// Largest accepted custom-kernel instruction count after parsing.
pub const MAX_CUSTOM_INSTRS: usize = 16_384;

/// Most memory regions a custom kernel may declare.
pub const MAX_CUSTOM_REGIONS: usize = 32;

/// Most parameter words a custom kernel may pass.
pub const MAX_CUSTOM_PARAMS: usize = 256;

/// Ceiling on a custom kernel's total declared device memory. Like
/// [`MAX_TRIDIAG_NSYS`], this keeps a wire request from OOMing the
/// service, and (with the 256-byte region alignment) guarantees every
/// region base fits the 32-bit pointers kernels pass as parameters.
pub const MAX_CUSTOM_MEMORY_BYTES: u64 = 64 << 20;

/// Ceiling on a custom launch's total block count (the per-shard fuel
/// budget guards runaway loops; this guards runaway grids).
pub const MAX_CUSTOM_BLOCKS: u64 = 65_536;

/// Ceiling on the memory a custom kernel may mark for readback, so a
/// report cannot be made arbitrarily large.
pub const MAX_CUSTOM_READBACK_BYTES: u64 = 1 << 20;

/// Alignment of every custom-kernel memory region (fixed, so region
/// base addresses — and therefore reports — are fully determined by the
/// request).
pub const CUSTOM_REGION_ALIGN: u64 = 256;

/// An arbitrary kernel in the portable wire encoding: the decuda-style
/// assembly text (`gpa_isa::asm` — its module docs are the grammar
/// contract), the launch shape, the kernel parameters, and a declarative
/// device-memory image that replaces caller-owned
/// [`GlobalMemory`] with wire-expressible state.
///
/// Everything is deterministic: regions are allocated in declaration
/// order at [`CUSTOM_REGION_ALIGN`], initializers are pure functions of
/// the spec, and parameters resolve region names to the resulting base
/// addresses — so two services given the same request byte-for-byte
/// produce the same report byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomKernel {
    /// Assembly text ([`gpa_isa::asm::parse_kernel`] grammar). The
    /// `.kernel`/`.reg`/`.smem`/`.threads`/`.param` directives declare
    /// the name and resources; `.threads` must match `launch`.
    pub asm: String,
    /// Launch shape (grid and block, up to 2-D).
    pub launch: LaunchConfig,
    /// Kernel parameter words, literal or region-relative.
    pub params: Vec<ParamValue>,
    /// Named device-memory regions, allocated in order.
    pub memory: Vec<MemRegionSpec>,
}

/// One 32-bit kernel parameter word of a [`CustomKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamValue {
    /// A literal word (integers, f32 bit patterns, sizes…).
    Word(u32),
    /// The base device address of the named [`MemRegionSpec`] — how a
    /// wire request passes device pointers it cannot know in advance.
    RegionBase(String),
}

/// One named device-memory region of a [`CustomKernel`]: length,
/// initializer, and flags. Doubles as the traffic-attribution region in
/// the report (the paper's Figure 11a metric).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRegionSpec {
    /// Region name (unique within the request).
    pub name: String,
    /// Length in bytes (positive, multiple of 4).
    pub len: u64,
    /// Initial contents.
    pub init: MemInit,
    /// Route loads from this region through the texture cache.
    pub texture: bool,
    /// Return the region's post-run contents in
    /// [`AnalysisReport::outputs`], so side effects stay observable
    /// without caller-owned memory.
    pub readback: bool,
}

/// Declarative initializer of a [`MemRegionSpec`], word by word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemInit {
    /// All zeros.
    Zero,
    /// Every word holds the same 32-bit pattern.
    Fill(u32),
    /// Explicit words from offset 0; the remainder (if any) is zero.
    Words(Vec<u32>),
    /// Deterministic pseudo-random `f32` values in `[0, 1)`: word `i` is
    /// `pattern_word(seed, i)` (a SplitMix64 hash of the seed and index,
    /// mapped to a float). The sequence is part of the wire contract.
    Pattern {
        /// Stream selector; equal seeds give equal contents.
        seed: u32,
    },
}

/// The deterministic [`MemInit::Pattern`] generator: word `i` of a
/// region seeded with `seed` (an `f32` in `[0, 1)`, returned as its bit
/// pattern). Exposed so clients can precompute expected inputs.
pub fn pattern_word(seed: u32, i: u64) -> u32 {
    // SplitMix64 over (seed, index); top 24 bits → f32 fraction.
    let mut z = (u64::from(seed) << 32)
        ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x243F_6A88_85A3_08D3);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (((z >> 40) as f32) / (1u64 << 24) as f32).to_bits()
}

impl CustomKernel {
    /// Check every size ceiling and cross-reference *without* parsing the
    /// assembly or allocating memory — a hostile request is rejected
    /// before it costs anything.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ServiceError> {
        let bad = |msg: String| Err(ServiceError::InvalidRequest(msg));
        if self.asm.is_empty() {
            return bad("custom kernel has no assembly text".into());
        }
        if self.asm.len() > MAX_CUSTOM_ASM_BYTES {
            return bad(format!(
                "assembly text of {} bytes exceeds the {MAX_CUSTOM_ASM_BYTES}-byte limit",
                self.asm.len()
            ));
        }
        // Grid/block products in u64: the u32 fields must not overflow
        // the LaunchConfig arithmetic downstream.
        let blocks = u64::from(self.launch.grid.0) * u64::from(self.launch.grid.1);
        let threads = u64::from(self.launch.block.0) * u64::from(self.launch.block.1);
        if blocks == 0 || threads == 0 {
            return bad("empty launch".into());
        }
        if blocks > MAX_CUSTOM_BLOCKS {
            return bad(format!(
                "launch of {blocks} blocks exceeds the {MAX_CUSTOM_BLOCKS}-block limit"
            ));
        }
        if threads > 512 {
            return bad(format!(
                "block of {threads} threads exceeds the 512-thread limit"
            ));
        }
        if self.params.len() > MAX_CUSTOM_PARAMS {
            return bad(format!(
                "{} parameter words exceed the {MAX_CUSTOM_PARAMS}-word limit",
                self.params.len()
            ));
        }
        if self.memory.len() > MAX_CUSTOM_REGIONS {
            return bad(format!(
                "{} memory regions exceed the {MAX_CUSTOM_REGIONS}-region limit",
                self.memory.len()
            ));
        }
        let mut total = 0u64;
        let mut readback = 0u64;
        for (i, region) in self.memory.iter().enumerate() {
            if region.name.is_empty() {
                return bad(format!("memory region {i} has an empty name"));
            }
            if self.memory[..i].iter().any(|r| r.name == region.name) {
                return bad(format!("duplicate memory region `{}`", region.name));
            }
            if region.len == 0 || region.len % 4 != 0 {
                return bad(format!(
                    "region `{}` length {} must be a positive multiple of 4",
                    region.name, region.len
                ));
            }
            // Account the alignment padding too, so `total` bounds the
            // arena extent (and thus every base address) exactly.
            total = total.div_ceil(CUSTOM_REGION_ALIGN) * CUSTOM_REGION_ALIGN + region.len;
            if total > MAX_CUSTOM_MEMORY_BYTES {
                return bad(format!(
                    "memory image exceeds the {MAX_CUSTOM_MEMORY_BYTES}-byte limit at region `{}`",
                    region.name
                ));
            }
            if let MemInit::Words(words) = &region.init {
                if words.len() as u64 * 4 > region.len {
                    return bad(format!(
                        "region `{}` initializer has {} words but the region holds {}",
                        region.name,
                        words.len(),
                        region.len / 4
                    ));
                }
            }
            if region.readback {
                readback += region.len;
                if readback > MAX_CUSTOM_READBACK_BYTES {
                    return bad(format!(
                        "readback regions exceed the {MAX_CUSTOM_READBACK_BYTES}-byte limit"
                    ));
                }
            }
        }
        for p in &self.params {
            if let ParamValue::RegionBase(name) = p {
                if !self.memory.iter().any(|r| r.name == *name) {
                    return bad(format!("parameter names unknown region `{name}`"));
                }
            }
        }
        Ok(())
    }

    /// Parse, validate, and materialize the kernel into an executable
    /// [`CaseStudy`]: assemble the instruction stream, allocate and
    /// initialize the memory image, and resolve region-relative
    /// parameters.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] for ceiling violations, assembly
    /// errors (with their source line), structurally invalid kernels, or
    /// launch/resource mismatches.
    pub fn build(&self) -> Result<CaseStudy, ServiceError> {
        self.validate()?;
        let bad = |msg: String| Err(ServiceError::InvalidRequest(msg));
        let kernel = gpa_isa::asm::parse_kernel(&self.asm)
            .map_err(|e| ServiceError::InvalidRequest(format!("assembly: {e}")))?;
        if kernel.len() > MAX_CUSTOM_INSTRS {
            return bad(format!(
                "kernel has {} instructions, over the {MAX_CUSTOM_INSTRS}-instruction limit",
                kernel.len()
            ));
        }
        kernel
            .validate()
            .map_err(|e| ServiceError::InvalidRequest(format!("kernel: {e}")))?;
        if kernel.resources.threads_per_block != self.launch.threads_per_block() {
            return bad(format!(
                "kernel declares .threads {} but the launch block has {} threads",
                kernel.resources.threads_per_block,
                self.launch.threads_per_block()
            ));
        }
        if self.params.len() * 4 < kernel.param_bytes as usize {
            return bad(format!(
                "kernel declares a {}-byte parameter block but the request provides {} words",
                kernel.param_bytes,
                self.params.len()
            ));
        }

        let mut gmem = GlobalMemory::new();
        let mut regions = Vec::with_capacity(self.memory.len());
        for spec in &self.memory {
            let base = gmem.alloc(spec.len, CUSTOM_REGION_ALIGN);
            let words = spec.len / 4;
            match &spec.init {
                MemInit::Zero => {}
                MemInit::Fill(word) => {
                    for i in 0..words {
                        gmem.write_u32(base + i * 4, *word).expect("in allocation");
                    }
                }
                MemInit::Words(values) => {
                    for (i, w) in values.iter().enumerate() {
                        gmem.write_u32(base + i as u64 * 4, *w)
                            .expect("in allocation");
                    }
                }
                MemInit::Pattern { seed } => {
                    for i in 0..words {
                        gmem.write_u32(base + i * 4, pattern_word(*seed, i))
                            .expect("in allocation");
                    }
                }
            }
            regions.push(if spec.texture {
                Region::texture(spec.name.clone(), base, spec.len)
            } else {
                Region::new(spec.name.clone(), base, spec.len)
            });
        }
        let params: Vec<u32> = self
            .params
            .iter()
            .map(|p| match p {
                ParamValue::Word(w) => *w,
                ParamValue::RegionBase(name) => {
                    let region = regions
                        .iter()
                        .find(|r| r.name == *name)
                        .expect("validated: parameter region exists");
                    // The memory ceiling keeps the arena under 4 GiB, so
                    // the 32-bit device pointer is exact.
                    region.base as u32
                }
            })
            .collect();
        Ok(CaseStudy::adhoc(
            kernel,
            self.launch,
            params,
            gmem,
            regions,
            // Wire-submitted kernels carry no promise of homogeneity:
            // let the traced pass decide. Grids whose blocks are
            // shape-identical still get the cheap single-cluster
            // timing, byte for byte; divergent grids (the old silent
            // wrong answer) get per-block replay.
            TraceMode::Auto,
        ))
    }

    /// Post-run contents of every `readback` region, in declaration
    /// order (`study` must be the product of [`CustomKernel::build`]).
    fn collect_readback(&self, study: &CaseStudy) -> Vec<RegionReadback> {
        self.memory
            .iter()
            .filter(|spec| spec.readback)
            .map(|spec| {
                let region = study
                    .regions
                    .iter()
                    .find(|r| r.name == spec.name)
                    .expect("built study holds every declared region");
                let words = study
                    .gmem
                    .read_u32s(region.base, (region.len / 4) as usize)
                    .expect("region lies in the allocated image");
                RegionReadback {
                    name: spec.name.clone(),
                    words,
                }
            })
            .collect()
    }
}

impl KernelSpec {
    /// Check the size constraints the case constructors require.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidRequest`] describing the violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ServiceError> {
        let bad = |msg: String| Err(ServiceError::InvalidRequest(msg));
        match *self {
            KernelSpec::Custom(ref custom) => custom.validate(),
            KernelSpec::Named { ref name, n, .. } => {
                zoo::validate(name, n).map_err(ServiceError::InvalidRequest)
            }
            KernelSpec::Matmul { n, tile } => {
                if !matmul::TILES.contains(&tile) {
                    return bad(format!("matmul tile {tile} not in {:?}", matmul::TILES));
                }
                if n == 0 || n % tile != 0 || n % matmul::STRIP_ROWS != 0 {
                    return bad(format!(
                        "matmul n={n} must be a positive multiple of tile ({tile}) and {}",
                        matmul::STRIP_ROWS
                    ));
                }
                if n > 1024 {
                    return bad(format!("matmul n={n} exceeds the supported 1024"));
                }
                Ok(())
            }
            KernelSpec::Tridiag { n, nsys, .. } => {
                if n != 2 * tridiag::THREADS {
                    return bad(format!(
                        "tridiag n={n} must be {} (two equations per thread)",
                        2 * tridiag::THREADS
                    ));
                }
                // The ceiling keeps the five n×nsys device arrays (plus
                // host references) in the hundreds of MB and n·nsys far
                // from u32 overflow — a wire request must not OOM or
                // panic the service.
                if nsys == 0 || nsys > MAX_TRIDIAG_NSYS {
                    return bad(format!(
                        "tridiag nsys={nsys} must be in 1..={MAX_TRIDIAG_NSYS}"
                    ));
                }
                Ok(())
            }
            KernelSpec::Spmv { l, .. } => {
                // Computed in u64: the generator works in u32, so the
                // ceiling also guarantees l⁴ (and the ~l⁴·81·4-byte
                // operator) stays far inside u32 and memory budgets.
                let sites = u64::from(l).pow(4);
                if !(2..=MAX_SPMV_L).contains(&l) || sites % u64::from(spmv::THREADS) != 0 {
                    return bad(format!(
                        "spmv l={l}: need 2 ≤ l ≤ {MAX_SPMV_L} with l⁴ a multiple of {}",
                        spmv::THREADS
                    ));
                }
                Ok(())
            }
        }
    }

    /// Build the prepared case study (validates first).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::InvalidRequest`] on out-of-range sizes.
    pub fn build(&self) -> Result<CaseStudy, ServiceError> {
        self.validate()?;
        Ok(match *self {
            KernelSpec::Custom(ref custom) => return custom.build(),
            KernelSpec::Named { ref name, n, seed } => zoo::case(name, n, seed),
            KernelSpec::Matmul { n, tile } => matmul::case(n, tile),
            KernelSpec::Tridiag { n, nsys, padded } => tridiag::case(n, nsys, padded),
            KernelSpec::Spmv {
                l,
                seed,
                format,
                texture,
            } => spmv::case(&spmv::qcd_like(l, seed), format, texture),
        })
    }
}

/// Calibration effort for machines registered on demand (the
/// `gpa-analyze` CLI). An [`Analyzer`] calibrated explicitly via
/// [`Analyzer::calibrate`]/[`Analyzer::install`] ignores this field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Effort {
    /// Sparse warp grid, short loops ([`MeasureOpts::quick`]).
    #[default]
    Quick,
    /// Full-resolution measurement ([`MeasureOpts::paper`]).
    Paper,
}

impl Effort {
    /// The corresponding measurement options.
    pub fn measure_opts(self) -> MeasureOpts {
        match self {
            Effort::Quick => MeasureOpts::quick(),
            Effort::Paper => MeasureOpts::paper(),
        }
    }
}

/// An advisor estimate to attach to the report (paper §5's use of the
/// model to price optimizations before implementing them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhatIfSpec {
    /// Eliminate all shared-memory bank conflicts (CR → CR-NBC).
    NoBankConflicts,
    /// Perfectly coalesce all global accesses.
    PerfectCoalescing,
    /// Shrink the global transaction granularity to 16 bytes (§5.3).
    Granularity16,
    /// Shrink the global transaction granularity to 4 bytes (§5.3).
    Granularity4,
    /// Privatize contended shared-memory atomics into per-warp partials.
    PrivatizedAtomics,
    /// Raise the resident-block ceiling (§5.1's architectural ask).
    MaxBlocks(u32),
    /// Scale the per-SM register file and shared memory (§5.1).
    ResourcesScaled(u32),
}

impl WhatIfSpec {
    fn eval(self, model: &mut Model<'_>, input: &ModelInput) -> WhatIf {
        match self {
            WhatIfSpec::NoBankConflicts => model.what_if_no_bank_conflicts(input),
            WhatIfSpec::PerfectCoalescing => model.what_if_perfect_coalescing(input),
            WhatIfSpec::Granularity16 => model.what_if_granularity(input, 1),
            WhatIfSpec::Granularity4 => model.what_if_granularity(input, 2),
            WhatIfSpec::PrivatizedAtomics => model.what_if_privatized_atomics(input),
            WhatIfSpec::MaxBlocks(b) => model.what_if_max_blocks(input, b),
            WhatIfSpec::ResourcesScaled(f) => model.what_if_resources_scaled(input, f),
        }
    }
}

/// Per-request options: threading, fuel, verification, advisor toggles,
/// and on-demand calibration effort.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisOptions {
    /// Ignored: the kernel declares its trace mode
    /// ([`gpa_apps::workflow::CaseStudy::mode`]) and a request cannot
    /// override it. The wire accepts the legacy `"mode"` strings and
    /// drops them, so this is always `None` on parsed requests.
    pub mode: Option<TraceMode>,
    /// Worker threads for block execution and the timing replay within
    /// this request. Reports are bit-identical for every selection;
    /// defaults to auto, which runs a small request on the calling thread
    /// (a loop-free grid below [`gpa_sim::engine::GRAIN`] warp
    /// instructions, a per-block replay below `GRAIN` trace entries) and
    /// shards anything larger across every core. `Fixed(n)` is always
    /// exactly `n` workers.
    pub threads: Threads,
    /// Warp-instruction fuel budget (runaway-loop guard); `None` keeps
    /// the simulator default (20 × 10⁹). **Accounting granularity
    /// depends on `threads`**: a sequential run spends one budget across
    /// the whole grid, a sharded run one budget *per shard* of blocks —
    /// so a grid that exhausts fuel sequentially may complete when
    /// sharded, never the reverse for per-block-affordable kernels (see
    /// [`gpa_sim::engine`] for the contract).
    pub fuel: Option<u64>,
    /// Check the simulated result against the CPU reference oracle and
    /// record the outcome in [`AnalysisReport::verified`].
    pub verify: bool,
    /// Advisor estimates to attach to the report.
    pub what_ifs: Vec<WhatIfSpec>,
    /// Calibration effort for hosts that register machines on demand
    /// (the CLI); ignored by explicitly calibrated analyzers.
    pub calibration: Effort,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            mode: None,
            threads: Threads::Auto,
            fuel: None,
            verify: false,
            what_ifs: Vec::new(),
            calibration: Effort::Quick,
        }
    }
}

/// One analysis query: which kernel, on which machine, with what options.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRequest {
    /// The kernel and problem size.
    pub kernel: KernelSpec,
    /// Machine selector, matched case-insensitively against calibrated
    /// machine names with punctuation ignored (`"gtx285"`,
    /// `"GeForce 8800 GT"`, `"9800gtx"`, …).
    pub machine: String,
    /// Per-request options.
    pub options: AnalysisOptions,
}

impl AnalysisRequest {
    /// A request with default options.
    pub fn new(kernel: KernelSpec, machine: impl Into<String>) -> AnalysisRequest {
        AnalysisRequest {
            kernel,
            machine: machine.into(),
            options: AnalysisOptions::default(),
        }
    }

    /// The same request with different options.
    pub fn with_options(mut self, options: AnalysisOptions) -> AnalysisRequest {
        self.options = options;
        self
    }
}

/// Global traffic attributed to one named device region at the real
/// GT200 transaction granularity (the paper's Figure 11a metric).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTraffic {
    /// Region name (e.g. `"vector"`).
    pub name: String,
    /// Hardware transactions issued against the region.
    pub transactions: u64,
    /// Bytes moved (transaction sizes summed).
    pub bytes: u64,
    /// Bytes the lanes actually asked for (coalescing-independent).
    pub requested_bytes: u64,
}

/// Post-run contents of one `readback` memory region (custom kernels
/// only): how side effects stay observable when the service, not the
/// caller, owns device memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionReadback {
    /// Region name from the request.
    pub name: String,
    /// The region's final contents as little-endian 32-bit words.
    pub words: Vec<u32>,
}

/// The service's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Kernel name (e.g. `"matmul16x16"`).
    pub kernel: String,
    /// Full machine name (e.g. `"GeForce GTX 285"`).
    pub machine: String,
    /// The model's complete output: per-stage breakdown, component
    /// times, bottleneck and runner-up, occupancy, diagnosed causes.
    pub analysis: Analysis,
    /// The timing simulator's end-to-end measurement, seconds.
    pub measured_seconds: f64,
    /// The measurement in shader-clock cycles.
    pub measured_cycles: f64,
    /// Floating-point operations of the workload: the case study's
    /// declared algorithmic count (e.g. matmul's 2n³) when one exists,
    /// otherwise the functional simulator's lane-level dynamic count —
    /// never a silently hardcoded zero.
    pub flops: u64,
    /// Per-region global traffic attribution, in region order.
    pub regions: Vec<RegionTraffic>,
    /// Advisor estimates, in request order.
    pub what_ifs: Vec<WhatIf>,
    /// Readback of the custom-kernel regions that requested it, in
    /// declaration order (empty otherwise).
    pub outputs: Vec<RegionReadback>,
    /// CPU-reference verification outcome: `Some(true)` when requested
    /// and passed, `None` when not requested. (A failed check surfaces
    /// as [`ServiceError::VerificationFailed`] instead of a report.)
    pub verified: Option<bool>,
}

impl AnalysisReport {
    /// Signed relative model error vs the measurement.
    pub fn model_error(&self) -> f64 {
        (self.analysis.predicted_seconds - self.measured_seconds) / self.measured_seconds
    }

    /// The named region's traffic, if the request attributed one.
    pub fn region(&self, name: &str) -> Option<&RegionTraffic> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// GFLOP/s at the measured time (0.0 when `flops` is 0).
    pub fn measured_gflops(&self) -> f64 {
        self.flops as f64 / self.measured_seconds / 1e9
    }

    /// Render as the fixed-width text report a profiler would print.
    pub fn render(&self) -> String {
        let mut out = gpa_core::report::render_with_measured(&self.analysis, self.measured_seconds);
        if self.flops > 0 {
            out.push_str(&format!(
                "measured throughput: {:.1} GFLOPS\n",
                self.measured_gflops()
            ));
        }
        if let Some(v) = self.verified {
            out.push_str(if v {
                "functional result verified against the CPU reference\n"
            } else {
                "verification FAILED\n"
            });
        }
        if !self.what_ifs.is_empty() {
            out.push_str(&gpa_core::report::render_what_ifs(&self.what_ifs));
        }
        out
    }
}

/// One registered machine: the description plus its measured profile.
#[derive(Debug, Clone)]
struct Calibrated {
    machine: Machine,
    curves: ThroughputCurves,
    /// Content hash of `(machine, curves)`, precomputed at registration:
    /// the `calib=` part of every report-cache key for this entry (see
    /// [`report_cache`]).
    identity: u64,
}

/// The calibration-identity hash: FNV-1a over the complete [`Machine`]
/// description (its `Debug` rendering, so no field can be silently
/// omitted) and the measured curves' bit-exact JSON. Curves holding a
/// non-finite value have no JSON form; their `Debug` rendering stands
/// in (still a complete, deterministic fingerprint).
fn calibration_identity(machine: &Machine, curves: &ThroughputCurves) -> u64 {
    let curves_text = curves.to_json().unwrap_or_else(|_| format!("{curves:?}"));
    gpa_ubench::cache::fnv1a(format!("{machine:?}|{curves_text}").as_bytes())
}

/// Summarize a run's per-region traffic at the real GT200 granularity.
fn region_traffic(input: &ModelInput) -> Vec<RegionTraffic> {
    use gpa_sim::stats::GRAN_GT200;
    input
        .stats
        .regions
        .iter()
        .map(|r| RegionTraffic {
            name: r.name.clone(),
            transactions: r.gmem[GRAN_GT200].transactions,
            bytes: r.gmem[GRAN_GT200].bytes,
            requested_bytes: r.requested_bytes,
        })
        .collect()
}

/// The session object: calibrated machine profiles plus the analysis
/// entry points. See the [crate docs](crate) for the full shape.
///
/// `Analyzer` is `Sync`: concurrent [`Analyzer::analyze`] calls (and
/// [`Analyzer::analyze_batch`], which makes them for you) share the
/// calibration read-only.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    entries: Vec<Calibrated>,
    /// Optional memoization of whole answers ([`report_cache`]). Behind
    /// an `Arc` so cloned analyzers share one cache (and its counters).
    report_cache: Option<Arc<ReportCache>>,
}

/// Selector normalization: lowercase, punctuation and spaces dropped.
fn slug(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Find the unique machine in `machines` matching `selector`. An exact
/// slug match wins outright; otherwise the selector must be a substring
/// of exactly one machine's slug.
fn select<'m>(
    machines: impl Iterator<Item = &'m Machine>,
    selector: &str,
) -> Result<&'m Machine, ServiceError> {
    let want = slug(selector);
    if want.is_empty() {
        return Err(ServiceError::UnknownMachine(selector.to_owned()));
    }
    let mut substring: Vec<&Machine> = Vec::new();
    for m in machines {
        let have = slug(&m.name);
        if have == want {
            // Exact matches short-circuit so a machine whose full name
            // is a prefix of another's stays addressable.
            return Ok(m);
        }
        if have.contains(&want) {
            substring.push(m);
        }
    }
    match substring.len() {
        0 => Err(ServiceError::UnknownMachine(selector.to_owned())),
        1 => Ok(substring[0]),
        _ => Err(ServiceError::AmbiguousMachine(selector.to_owned())),
    }
}

/// The built-in machine presets a selector can name without a custom
/// [`Machine`]: the paper's GTX 285 and the two Table 3 G92 SKUs.
pub fn builtin_machines() -> [Machine; 3] {
    Machine::paper_table3()
}

/// Resolve a selector against [`builtin_machines`].
///
/// # Errors
///
/// [`ServiceError::UnknownMachine`] / [`ServiceError::AmbiguousMachine`].
pub fn find_builtin(selector: &str) -> Result<Machine, ServiceError> {
    let machines = builtin_machines();
    select(machines.iter(), selector).cloned()
}

impl Analyzer {
    /// An analyzer with no machines registered.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Measure `machine`'s throughput curves at `opts` effort and
    /// register the profile (the expensive step — amortized over every
    /// subsequent request). Re-registering a machine with the same name
    /// replaces its profile.
    pub fn calibrate(&mut self, machine: Machine, opts: MeasureOpts) -> &mut Self {
        let curves = ThroughputCurves::measure_with(&machine, opts);
        self.register(machine, curves);
        self
    }

    /// Replace-or-append the entry for `machine`, computing its
    /// report-cache identity once.
    fn register(&mut self, machine: Machine, curves: ThroughputCurves) {
        let identity = calibration_identity(&machine, &curves);
        self.entries.retain(|e| e.machine.name != machine.name);
        self.entries.push(Calibrated {
            machine,
            curves,
            identity,
        });
    }

    /// [`Analyzer::calibrate`] through the shared on-disk curve cache
    /// ([`gpa_ubench::cache`]): load the curves for `(machine, opts)`
    /// from `cache_dir` when a valid entry exists, otherwise measure and
    /// persist them (atomically) for the next process. Because the cache
    /// JSON round-trips `f64`s bit-exactly, a cache hit registers
    /// *identical* curves to a fresh measurement — reports do not depend
    /// on which process calibrated first. This is how `gpa-analyze` and
    /// `gpa-serve` share calibration across processes.
    pub fn calibrate_cached(
        &mut self,
        machine: Machine,
        opts: MeasureOpts,
        cache_dir: &std::path::Path,
    ) -> &mut Self {
        let curves = gpa_ubench::cache::load_or_measure(cache_dir, &machine, opts);
        self.register(machine, curves);
        self
    }

    /// Register a machine with previously measured curves (e.g. from the
    /// on-disk cache the bench harness keeps).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] if the curves were measured on a
    /// differently named machine.
    pub fn install(
        &mut self,
        machine: Machine,
        curves: ThroughputCurves,
    ) -> Result<&mut Self, ServiceError> {
        if curves.machine_name != machine.name {
            return Err(ServiceError::InvalidRequest(format!(
                "curves were measured on `{}`, not `{}`",
                curves.machine_name, machine.name
            )));
        }
        self.register(machine, curves);
        Ok(self)
    }

    /// Names of the registered machines, in registration order.
    pub fn machines(&self) -> Vec<&str> {
        self.entries
            .iter()
            .map(|e| e.machine.name.as_str())
            .collect()
    }

    /// Whether a selector resolves to a registered machine.
    pub fn has_machine(&self, selector: &str) -> bool {
        self.lookup(selector).is_ok()
    }

    /// The registered machine a selector resolves to.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownMachine`] / [`ServiceError::AmbiguousMachine`].
    pub fn machine(&self, selector: &str) -> Result<&Machine, ServiceError> {
        Ok(&self.lookup(selector)?.machine)
    }

    /// The calibrated curves a selector resolves to.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownMachine`] / [`ServiceError::AmbiguousMachine`].
    pub fn curves(&self, selector: &str) -> Result<&ThroughputCurves, ServiceError> {
        Ok(&self.lookup(selector)?.curves)
    }

    /// Memoize whole answers in a [`ReportCache`] shaped by `config`.
    /// Subsequent [`Analyzer::analyze`] / [`Analyzer::analyze_batch`]
    /// calls consult the cache for every cacheable request (see
    /// [`report_cache`] for the key contract and the verify/readback
    /// exclusions). Clones of this analyzer share the cache; enabling
    /// again replaces it with a fresh, empty one.
    pub fn enable_report_cache(&mut self, config: ReportCacheConfig) -> &mut Self {
        self.report_cache = Some(Arc::new(ReportCache::new(config)));
        self
    }

    /// Counters of the report cache, if one is enabled.
    pub fn report_cache_stats(&self) -> Option<ReportCacheStats> {
        self.report_cache.as_ref().map(|cache| cache.stats())
    }

    /// Whether the answer to `req` may be served from / stored in the
    /// report cache. `verify` runs must actually exercise the oracle,
    /// and readback-bearing custom kernels produce reports whose
    /// payload defeats a byte-budgeted cache — both always recompute.
    fn cacheable(req: &AnalysisRequest) -> bool {
        if req.options.verify {
            return false;
        }
        if let KernelSpec::Custom(custom) = &req.kernel {
            if custom.memory.iter().any(|r| r.readback) {
                return false;
            }
        }
        true
    }

    fn lookup(&self, selector: &str) -> Result<&Calibrated, ServiceError> {
        let machine = select(self.entries.iter().map(|e| &e.machine), selector)?;
        // Identity-free re-find: names are unique by construction.
        Ok(self
            .entries
            .iter()
            .find(|e| e.machine.name == machine.name)
            .expect("selected machine is registered"))
    }

    /// Answer one request. Every [`KernelSpec`] — the three case studies
    /// *and* [`KernelSpec::Custom`] — flows through the same prepared
    /// [`CaseStudy`] path, so a wire request and an in-process call are
    /// bit-identical. A report-cache hit is decoded from its stored JSON.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`]: unknown machine, invalid sizes or custom
    /// encodings, simulation or extraction failure, or a failed
    /// verification.
    pub fn analyze(&self, req: &AnalysisRequest) -> Result<AnalysisReport, ServiceError> {
        match self.resolve(req)? {
            Resolved::Stored(json) => AnalysisReport::from_json(&json),
            Resolved::Computed(report, _) => Ok(*report),
        }
    }

    /// The one report-cache path: look `req` up, or compute it. A hit is
    /// the stored JSON, never decoded. A cacheable miss is serialized
    /// once, under the `serialize` span, and that JSON is both stored and
    /// returned.
    pub(crate) fn resolve(&self, req: &AnalysisRequest) -> Result<Resolved, ServiceError> {
        let entry = {
            let _span = gpa_telemetry::PhaseSpan::start(gpa_telemetry::phase::CALIBRATION_FETCH);
            self.lookup(&req.machine)?
        };
        let cache = match &self.report_cache {
            Some(cache) if Self::cacheable(req) => cache,
            _ => {
                let report = self.analyze_resolved(entry, req)?;
                return Ok(Resolved::Computed(Box::new(report), None));
            }
        };
        let span = gpa_telemetry::PhaseSpan::start(gpa_telemetry::phase::CACHE_LOOKUP);
        let canonical =
            wire::canonical_request_json(&req.kernel, &entry.machine.name, &req.options);
        let key = CacheKey::new(entry.identity, &canonical);
        let cached = cache.get(&key);
        drop(span);
        gpa_telemetry::trace::set_cache_hit(cached.is_some());
        if let Some(json) = cached {
            return Ok(Resolved::Stored(json));
        }
        let report = self.analyze_resolved(entry, req)?;
        let json = {
            let _span = gpa_telemetry::PhaseSpan::start(gpa_telemetry::phase::SERIALIZE);
            report.to_json()
        };
        cache.put(&key, &json);
        Ok(Resolved::Computed(Box::new(report), Some(json)))
    }

    /// The uncached single-request path: build the study, run it with
    /// its declared trace mode, and assemble the report (with custom-kernel
    /// readback).
    fn analyze_resolved(
        &self,
        entry: &Calibrated,
        req: &AnalysisRequest,
    ) -> Result<AnalysisReport, ServiceError> {
        let options = &req.options;
        let mut study = {
            let _span = gpa_telemetry::PhaseSpan::start(gpa_telemetry::phase::BUILD);
            req.kernel.build()?
        };
        if options.verify && !study.has_verifier() {
            // No CPU-reference oracle exists for this kernel; refuse
            // rather than silently returning `verified: None` to a
            // caller who asked for a check.
            return Err(ServiceError::InvalidRequest(
                "verify is only available for case-study requests (this kernel has no \
                 reference oracle); request region readback instead"
                    .into(),
            ));
        }
        let mut model = Model::with_curves(&entry.machine, &entry.curves);
        let run = run_study(
            &entry.machine,
            &mut model,
            &mut study,
            options.threads,
            options.fuel,
        )?;
        let verified = if options.verify {
            study.check().map_err(ServiceError::VerificationFailed)?;
            Some(true)
        } else {
            None
        };
        let what_ifs = {
            let _span = gpa_telemetry::PhaseSpan::start(gpa_telemetry::phase::WHAT_IFS);
            options
                .what_ifs
                .iter()
                .map(|w| w.eval(&mut model, &run.input))
                .collect()
        };
        // Honest flop accounting: a case study's declared algorithmic
        // count when present, the simulator's lane-level count otherwise.
        let flops = if study.flops != 0 {
            study.flops
        } else {
            run.input.stats.total().flops
        };
        let outputs = match &req.kernel {
            KernelSpec::Custom(custom) => custom.collect_readback(&study),
            _ => Vec::new(),
        };
        Ok(AnalysisReport {
            kernel: run.input.kernel_name.clone(),
            machine: entry.machine.name.clone(),
            regions: region_traffic(&run.input),
            analysis: run.analysis,
            measured_seconds: run.timing.seconds,
            measured_cycles: run.timing.cycles,
            flops,
            what_ifs,
            outputs,
            verified,
        })
    }

    /// Answer a batch, spreading the independent requests across one
    /// worker per available CPU core. Per-request results (including
    /// per-request failures) come back in request order and are
    /// identical to sequential [`Analyzer::analyze`] calls.
    pub fn analyze_batch(
        &self,
        reqs: &[AnalysisRequest],
    ) -> Vec<Result<AnalysisReport, ServiceError>> {
        self.batch(reqs, Threads::Auto, Self::analyze)
    }

    /// Apply `each` to every request, in request order, on `threads`
    /// batch workers.
    pub(crate) fn batch<T: Send>(
        &self,
        reqs: &[AnalysisRequest],
        threads: Threads,
        each: impl Fn(&Self, &AnalysisRequest) -> T + Sync,
    ) -> Vec<T> {
        let workers = threads.count().min(reqs.len());
        // Nested-parallelism coordination: a request left on
        // [`Threads::Auto`] would spawn one worker per core *inside each
        // batch worker*, oversubscribing the machine `workers`-fold. Split
        // the cores across the batch instead (`Auto` → `Fixed(cores /
        // workers)`); an explicit `Fixed` request setting is the caller's
        // decision and passes through untouched. Results are unaffected —
        // every phase is bit-identical for every thread count, and the
        // report-cache key normalizes `threads` out.
        let inner = (workers > 1).then(|| Threads::Fixed((Threads::Auto.count() / workers).max(1)));
        par_map(reqs, workers, |_, r| match inner {
            Some(inner) if r.options.threads == Threads::Auto => {
                let mut r = r.clone();
                r.options.threads = inner;
                each(self, &r)
            }
            _ => each(self, r),
        })
    }
}

/// How [`Analyzer::resolve`] answered one request.
pub(crate) enum Resolved {
    /// A report-cache hit: the stored report JSON.
    Stored(Arc<str>),
    /// A computed report, with its JSON when the report cache stored it.
    Computed(Box<AnalysisReport>, Option<String>),
}

impl Resolved {
    /// The report JSON: the stored or just-stored bytes when there are
    /// any, otherwise the report serialized now.
    pub(crate) fn json(&self) -> std::borrow::Cow<'_, str> {
        match self {
            Resolved::Stored(json) => json.as_ref().into(),
            Resolved::Computed(_, Some(json)) => json.as_str().into(),
            Resolved::Computed(report, None) => report.to_json().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_slugs_match_presets() {
        assert_eq!(find_builtin("gtx285").unwrap().name, "GeForce GTX 285");
        assert_eq!(find_builtin("GTX 285").unwrap().name, "GeForce GTX 285");
        assert_eq!(find_builtin("8800gt").unwrap().name, "GeForce 8800 GT");
        assert_eq!(
            find_builtin("geforce 9800 gtx").unwrap().name,
            "GeForce 9800 GTX"
        );
        assert!(matches!(
            find_builtin("geforce"),
            Err(ServiceError::AmbiguousMachine(_))
        ));
        assert!(matches!(
            find_builtin("tesla"),
            Err(ServiceError::UnknownMachine(_))
        ));
        assert!(matches!(
            find_builtin("  "),
            Err(ServiceError::UnknownMachine(_))
        ));
    }

    #[test]
    fn kernel_specs_validate_sizes() {
        assert!(KernelSpec::Matmul { n: 64, tile: 16 }.validate().is_ok());
        assert!(KernelSpec::Matmul { n: 64, tile: 7 }.validate().is_err());
        assert!(KernelSpec::Matmul { n: 100, tile: 8 }.validate().is_err());
        assert!(KernelSpec::Matmul { n: 2048, tile: 16 }.validate().is_err());
        assert!(KernelSpec::Tridiag {
            n: 512,
            nsys: 4,
            padded: false
        }
        .validate()
        .is_ok());
        assert!(KernelSpec::Tridiag {
            n: 256,
            nsys: 4,
            padded: false
        }
        .validate()
        .is_err());
        assert!(KernelSpec::Tridiag {
            n: 512,
            nsys: 0,
            padded: true
        }
        .validate()
        .is_err());
        let spmv_ok = KernelSpec::Spmv {
            l: 4,
            seed: 42,
            format: spmv::Format::Ell,
            texture: false,
        };
        assert!(spmv_ok.validate().is_ok());
        let spmv_bad = KernelSpec::Spmv {
            l: 3,
            seed: 42,
            format: spmv::Format::Ell,
            texture: false,
        };
        assert!(spmv_bad.validate().is_err());
    }

    /// Tiny synthetic curves (selector tests never analyze with them).
    fn fake_curves(name: &str) -> ThroughputCurves {
        ThroughputCurves {
            machine_name: name.to_owned(),
            warps: vec![1, 32],
            instr: std::array::from_fn(|_| vec![1e9, 1e10]),
            smem: vec![1e10, 1e11],
        }
    }

    #[test]
    fn exact_selector_beats_substring_shadowing() {
        let mut analyzer = Analyzer::new();
        for name in ["Tesla", "Tesla Plus"] {
            let mut m = Machine::gtx285();
            m.name = name.to_owned();
            analyzer.install(m, fake_curves(name)).unwrap();
        }
        // "tesla" is the exact slug of the first machine — it must not
        // be reported ambiguous just because it prefixes the second.
        assert_eq!(analyzer.machine("tesla").unwrap().name, "Tesla");
        assert_eq!(analyzer.machine("tesla plus").unwrap().name, "Tesla Plus");
        assert!(matches!(
            analyzer.machine("tesl"),
            Err(ServiceError::AmbiguousMachine(_))
        ));
    }

    #[test]
    fn oversized_requests_are_rejected_not_run() {
        // These would overflow u32 arithmetic (or exhaust memory) in the
        // case constructors; validation must catch them first.
        assert!(KernelSpec::Spmv {
            l: 256,
            seed: 1,
            format: spmv::Format::Ell,
            texture: false,
        }
        .validate()
        .is_err());
        assert!(KernelSpec::Tridiag {
            n: 512,
            nsys: 10_000_000,
            padded: false,
        }
        .validate()
        .is_err());
        assert!(KernelSpec::Tridiag {
            n: 512,
            nsys: crate::MAX_TRIDIAG_NSYS,
            padded: false,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn custom_kernels_refuse_unverifiable_verify() {
        let mut analyzer = Analyzer::new();
        analyzer
            .install(Machine::gtx285(), fake_curves("GeForce GTX 285"))
            .unwrap();
        let noop = CustomKernel {
            asm: ".kernel noop\n.reg 1\n.threads 32\n    exit\n".into(),
            launch: LaunchConfig::new_1d(1, 32),
            params: Vec::new(),
            memory: Vec::new(),
        };
        let req = AnalysisRequest::new(KernelSpec::Custom(Box::new(noop)), "gtx285").with_options(
            AnalysisOptions {
                verify: true,
                ..AnalysisOptions::default()
            },
        );
        let err = analyzer.analyze(&req).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidRequest(_)), "{err}");
    }

    #[test]
    fn batch_is_identical_to_sequential_analyze() {
        // `Fixed(3)` shards the batch even on a one-core host.
        let mut analyzer = Analyzer::new();
        analyzer.calibrate(Machine::gtx285(), MeasureOpts::quick());
        let reqs = [
            AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285"),
            AnalysisRequest::new(
                KernelSpec::Tridiag {
                    n: 512,
                    nsys: 4,
                    padded: false,
                },
                "gtx285",
            ),
            AnalysisRequest::new(
                KernelSpec::Spmv {
                    l: 4,
                    seed: 42,
                    format: spmv::Format::BellIm,
                    texture: false,
                },
                "gtx285",
            ),
        ];
        let batched = analyzer.batch(&reqs, Threads::Fixed(3), Analyzer::analyze);
        let sequential: Vec<_> = reqs.iter().map(|r| analyzer.analyze(r)).collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn unknown_machine_is_an_error_not_a_panic() {
        let analyzer = Analyzer::new();
        let req = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285");
        assert!(matches!(
            analyzer.analyze(&req),
            Err(ServiceError::UnknownMachine(_))
        ));
    }

    #[test]
    fn calibrate_cached_is_indistinguishable_from_fresh_calibration() {
        let dir = std::env::temp_dir().join(format!("gpa-svc-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = MeasureOpts::quick();
        let mut fresh = Analyzer::new();
        fresh.calibrate(Machine::gtx285(), opts);
        // First process: cache miss, measures and persists.
        let mut miss = Analyzer::new();
        miss.calibrate_cached(Machine::gtx285(), opts, &dir);
        // Second process: cache hit, loads the persisted curves.
        let mut hit = Analyzer::new();
        hit.calibrate_cached(Machine::gtx285(), opts, &dir);
        let expected = fresh.curves("gtx285").unwrap();
        assert_eq!(miss.curves("gtx285").unwrap(), expected);
        assert_eq!(hit.curves("gtx285").unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_rejects_mismatched_curves() {
        let mut analyzer = Analyzer::new();
        let gtx = Machine::gtx285();
        let curves = ThroughputCurves::measure_with(&gtx, MeasureOpts::quick());
        assert!(analyzer
            .install(Machine::geforce_8800gt(), curves.clone())
            .is_err());
        analyzer.install(gtx, curves).unwrap();
        assert_eq!(analyzer.machines(), vec!["GeForce GTX 285"]);
        assert!(analyzer.has_machine("gtx285"));
        assert!(!analyzer.has_machine("8800gt"));
    }
}
