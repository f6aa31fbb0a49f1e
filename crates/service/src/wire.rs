//! The JSON wire format: [`AnalysisRequest`] and [`AnalysisReport`]
//! serialize over [`gpa_json`] so the model is drivable without writing
//! Rust (the `gpa-analyze` binary reads request JSON and emits report
//! JSON).
//!
//! Numbers ride `gpa_json`'s shortest-round-trip `f64` formatting, so a
//! serialize → parse → serialize cycle is **bit-exact** for every finite
//! field (integral counters stay below 2⁵³ by construction). Optional
//! fields (`options.fuel`, `verified`, report `outputs`, and the
//! custom-kernel `texture`/`readback` flags) are omitted when absent;
//! every other field is always written. The legacy `options.mode`
//! strings (`"homogeneous"`, `"per-block"`, `"auto"`) are accepted and
//! ignored — the functional pass observes whether a grid is uniform —
//! and never written.
//!
//! [`answer`] is the one front door over this format: `gpa-analyze` and
//! `gpa-serve` both hand it the request document and differ only in
//! their admission rule and transport.
//!
//! Besides the three case-study selectors, `"case": "custom"` carries
//! the portable kernel encoding ([`crate::CustomKernel`]): the
//! `gpa_isa::asm` text, a launch shape, parameter words (literal or
//! `{"region": "name"}` base addresses), and a declarative memory image
//! whose initializer kinds are `zero`, `fill`, `words`, and `pattern`.
//! Requests are bounded by the `MAX_CUSTOM_*` ceilings exactly as
//! case-study sizes are bounded by [`crate::MAX_TRIDIAG_NSYS`] — an
//! oversized or malformed custom request is a clean error, never a
//! panic or an OOM.
//!
//! ```
//! use gpa_service::{AnalysisRequest, KernelSpec};
//!
//! let req = AnalysisRequest::new(KernelSpec::Matmul { n: 256, tile: 16 }, "gtx285");
//! let json = req.to_json();
//! assert_eq!(AnalysisRequest::from_json(&json).unwrap(), req);
//! ```

use crate::{
    AnalysisOptions, AnalysisReport, AnalysisRequest, Analyzer, CustomKernel, Effort, KernelSpec,
    MemInit, MemRegionSpec, ParamValue, RegionReadback, RegionTraffic, ServiceError, WhatIfSpec,
};
use gpa_apps::spmv::Format;
use gpa_apps::zoo;
use gpa_core::{Analysis, Cause, Component, ComponentTimes, StageAnalysis, WhatIf};
use gpa_json::Value;
use gpa_sim::{LaunchConfig, Threads};
use gpa_telemetry::{phase, PhaseSpan};
use std::borrow::{Borrow, Cow};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn u64_value(n: u64) -> Value {
    debug_assert!(n <= 1 << 53, "counter exceeds exact f64 range");
    Value::Number(n as f64)
}

fn wire_err(msg: impl Into<String>) -> ServiceError {
    ServiceError::Wire(msg.into())
}

// ---- enums ----

fn component_to_value(c: Component) -> Value {
    Value::from(match c {
        Component::InstructionPipeline => "instruction-pipeline",
        Component::SharedMemory => "shared-memory",
        Component::GlobalMemory => "global-memory",
        Component::AtomicUnit => "atomic-unit",
    })
}

fn component_from_value(v: &Value) -> Result<Component, ServiceError> {
    match v.as_str()? {
        "instruction-pipeline" => Ok(Component::InstructionPipeline),
        "shared-memory" => Ok(Component::SharedMemory),
        "global-memory" => Ok(Component::GlobalMemory),
        "atomic-unit" => Ok(Component::AtomicUnit),
        other => Err(wire_err(format!("unknown component `{other}`"))),
    }
}

/// Check a legacy `options.mode` string. No request chooses a trace
/// mode, so the value is validated and then dropped.
fn legacy_mode_from_value(v: &Value) -> Result<(), ServiceError> {
    match v.as_str()? {
        "homogeneous" | "per-block" | "auto" => Ok(()),
        other => Err(wire_err(format!("unknown trace mode `{other}`"))),
    }
}

fn threads_to_value(t: Threads) -> Value {
    match t {
        Threads::Auto => Value::from("auto"),
        // Never emit 0: on the wire `0` is the legacy "auto" encoding,
        // while `Fixed(0)` resolves to one worker — serialize the
        // resolved count so the selection round-trips semantically.
        Threads::Fixed(n) => u64_value(n.max(1) as u64),
    }
}

fn threads_from_value(v: &Value) -> Result<Threads, ServiceError> {
    match v {
        Value::String(s) if s == "auto" => Ok(Threads::Auto),
        // Numeric encoding: 0 = auto, n = exactly n workers.
        Value::Number(_) => Ok(match v.as_u64()? {
            0 => Threads::Auto,
            n => Threads::Fixed(n as usize),
        }),
        _ => Err(wire_err("threads must be \"auto\" or a worker count")),
    }
}

fn effort_to_value(e: Effort) -> Value {
    Value::from(match e {
        Effort::Quick => "quick",
        Effort::Paper => "paper",
    })
}

fn effort_from_value(v: &Value) -> Result<Effort, ServiceError> {
    match v.as_str()? {
        "quick" => Ok(Effort::Quick),
        "paper" => Ok(Effort::Paper),
        other => Err(wire_err(format!("unknown calibration effort `{other}`"))),
    }
}

fn format_to_value(f: Format) -> Value {
    Value::from(match f {
        Format::Ell => "ell",
        Format::BellIm => "bell-im",
        Format::BellImIv => "bell-im-iv",
    })
}

fn format_from_value(v: &Value) -> Result<Format, ServiceError> {
    match v.as_str()? {
        "ell" => Ok(Format::Ell),
        "bell-im" => Ok(Format::BellIm),
        "bell-im-iv" => Ok(Format::BellImIv),
        other => Err(wire_err(format!("unknown spmv format `{other}`"))),
    }
}

fn what_if_spec_to_value(w: WhatIfSpec) -> Value {
    match w {
        WhatIfSpec::NoBankConflicts => obj(vec![("kind", Value::from("no-bank-conflicts"))]),
        WhatIfSpec::PerfectCoalescing => obj(vec![("kind", Value::from("perfect-coalescing"))]),
        WhatIfSpec::Granularity16 => obj(vec![("kind", Value::from("granularity-16b"))]),
        WhatIfSpec::Granularity4 => obj(vec![("kind", Value::from("granularity-4b"))]),
        WhatIfSpec::PrivatizedAtomics => obj(vec![("kind", Value::from("privatized-atomics"))]),
        WhatIfSpec::MaxBlocks(b) => obj(vec![
            ("kind", Value::from("max-blocks")),
            ("blocks", Value::from(b)),
        ]),
        WhatIfSpec::ResourcesScaled(f) => obj(vec![
            ("kind", Value::from("resources-scaled")),
            ("factor", Value::from(f)),
        ]),
    }
}

fn what_if_spec_from_value(v: &Value) -> Result<WhatIfSpec, ServiceError> {
    match v.get("kind")?.as_str()? {
        "no-bank-conflicts" => Ok(WhatIfSpec::NoBankConflicts),
        "perfect-coalescing" => Ok(WhatIfSpec::PerfectCoalescing),
        "granularity-16b" => Ok(WhatIfSpec::Granularity16),
        "granularity-4b" => Ok(WhatIfSpec::Granularity4),
        "privatized-atomics" => Ok(WhatIfSpec::PrivatizedAtomics),
        "max-blocks" => Ok(WhatIfSpec::MaxBlocks(v.get("blocks")?.as_u32()?)),
        "resources-scaled" => Ok(WhatIfSpec::ResourcesScaled(v.get("factor")?.as_u32()?)),
        other => Err(wire_err(format!("unknown what-if kind `{other}`"))),
    }
}

// ---- custom kernels ----

fn launch_to_value(l: LaunchConfig) -> Value {
    obj(vec![
        (
            "grid",
            Value::Array(vec![Value::from(l.grid.0), Value::from(l.grid.1)]),
        ),
        (
            "block",
            Value::Array(vec![Value::from(l.block.0), Value::from(l.block.1)]),
        ),
    ])
}

/// A launch dimension pair: `[x, y]`, `[x]`, or a bare `x` (1-D).
fn dim2_from_value(v: &Value, what: &str) -> Result<(u32, u32), ServiceError> {
    match v {
        Value::Number(_) => Ok((v.as_u32()?, 1)),
        Value::Array(_) => match v.as_array()? {
            [x] => Ok((x.as_u32()?, 1)),
            [x, y] => Ok((x.as_u32()?, y.as_u32()?)),
            dims => Err(wire_err(format!(
                "{what} has {} dimensions; launches are at most 2-D",
                dims.len()
            ))),
        },
        _ => Err(wire_err(format!("{what} must be a number or an array"))),
    }
}

fn launch_from_value(v: &Value) -> Result<LaunchConfig, ServiceError> {
    Ok(LaunchConfig {
        grid: dim2_from_value(v.get("grid")?, "grid")?,
        block: dim2_from_value(v.get("block")?, "block")?,
    })
}

fn param_to_value(p: &ParamValue) -> Value {
    match p {
        ParamValue::Word(w) => Value::from(*w),
        ParamValue::RegionBase(name) => obj(vec![("region", Value::from(name.as_str()))]),
    }
}

fn param_from_value(v: &Value) -> Result<ParamValue, ServiceError> {
    match v {
        Value::Number(_) => Ok(ParamValue::Word(v.as_u32()?)),
        Value::Object(_) => Ok(ParamValue::RegionBase(
            v.get("region")?.as_str()?.to_owned(),
        )),
        _ => Err(wire_err(
            "parameter must be a 32-bit word or {\"region\": \"name\"}",
        )),
    }
}

fn mem_init_to_value(init: &MemInit) -> Value {
    match init {
        MemInit::Zero => obj(vec![("kind", Value::from("zero"))]),
        MemInit::Fill(word) => obj(vec![
            ("kind", Value::from("fill")),
            ("word", Value::from(*word)),
        ]),
        MemInit::Words(words) => obj(vec![
            ("kind", Value::from("words")),
            (
                "words",
                Value::Array(words.iter().map(|w| Value::from(*w)).collect()),
            ),
        ]),
        MemInit::Pattern { seed } => obj(vec![
            ("kind", Value::from("pattern")),
            ("seed", Value::from(*seed)),
        ]),
    }
}

fn mem_init_from_value(v: &Value) -> Result<MemInit, ServiceError> {
    match v.get("kind")?.as_str()? {
        "zero" => Ok(MemInit::Zero),
        "fill" => Ok(MemInit::Fill(v.get("word")?.as_u32()?)),
        "words" => Ok(MemInit::Words(
            v.get("words")?
                .as_array()?
                .iter()
                .map(gpa_json::Value::as_u32)
                .collect::<Result<_, _>>()?,
        )),
        "pattern" => Ok(MemInit::Pattern {
            seed: v.get("seed")?.as_u32()?,
        }),
        other => Err(wire_err(format!("unknown initializer kind `{other}`"))),
    }
}

fn mem_region_to_value(r: &MemRegionSpec) -> Value {
    let mut fields = vec![
        ("name", Value::from(r.name.as_str())),
        ("len", u64_value(r.len)),
        ("init", mem_init_to_value(&r.init)),
    ];
    if r.texture {
        fields.push(("texture", Value::from(true)));
    }
    if r.readback {
        fields.push(("readback", Value::from(true)));
    }
    obj(fields)
}

fn mem_region_from_value(v: &Value) -> Result<MemRegionSpec, ServiceError> {
    Ok(MemRegionSpec {
        name: v.get("name")?.as_str()?.to_owned(),
        len: v.get("len")?.as_u64()?,
        init: match v.get("init") {
            Ok(init) => mem_init_from_value(init)?,
            Err(_) => MemInit::Zero,
        },
        texture: match v.get("texture") {
            Ok(b) => b.as_bool()?,
            Err(_) => false,
        },
        readback: match v.get("readback") {
            Ok(b) => b.as_bool()?,
            Err(_) => false,
        },
    })
}

fn custom_to_value(c: &CustomKernel) -> Value {
    obj(vec![
        ("case", Value::from("custom")),
        ("asm", Value::from(c.asm.as_str())),
        ("launch", launch_to_value(c.launch)),
        (
            "params",
            Value::Array(c.params.iter().map(param_to_value).collect()),
        ),
        (
            "memory",
            Value::Array(c.memory.iter().map(mem_region_to_value).collect()),
        ),
    ])
}

fn custom_from_value(v: &Value) -> Result<CustomKernel, ServiceError> {
    Ok(CustomKernel {
        asm: v.get("asm")?.as_str()?.to_owned(),
        launch: launch_from_value(v.get("launch")?)?,
        params: match v.get("params") {
            Ok(params) => params
                .as_array()?
                .iter()
                .map(param_from_value)
                .collect::<Result<_, _>>()?,
            Err(_) => Vec::new(),
        },
        memory: match v.get("memory") {
            Ok(memory) => memory
                .as_array()?
                .iter()
                .map(mem_region_from_value)
                .collect::<Result<_, _>>()?,
            Err(_) => Vec::new(),
        },
    })
}

// ---- request ----

fn kernel_spec_to_value(k: &KernelSpec) -> Value {
    match *k {
        KernelSpec::Matmul { n, tile } => obj(vec![
            ("case", Value::from("matmul")),
            ("n", Value::from(n)),
            ("tile", Value::from(tile)),
        ]),
        KernelSpec::Tridiag { n, nsys, padded } => obj(vec![
            ("case", Value::from("tridiag")),
            ("n", Value::from(n)),
            ("nsys", Value::from(nsys)),
            ("padded", Value::from(padded)),
        ]),
        KernelSpec::Spmv {
            l,
            seed,
            format,
            texture,
        } => obj(vec![
            ("case", Value::from("spmv")),
            ("l", Value::from(l)),
            ("seed", Value::from(seed)),
            ("format", format_to_value(format)),
            ("texture", Value::from(texture)),
        ]),
        KernelSpec::Named { ref name, n, seed } => obj(vec![
            ("case", Value::from("named")),
            ("name", Value::from(name.as_str())),
            ("n", Value::from(n)),
            ("seed", Value::from(seed)),
        ]),
        KernelSpec::Custom(ref custom) => custom_to_value(custom),
    }
}

fn kernel_spec_from_value(v: &Value) -> Result<KernelSpec, ServiceError> {
    match v.get("case")?.as_str()? {
        "matmul" => Ok(KernelSpec::Matmul {
            n: v.get("n")?.as_u32()?,
            tile: v.get("tile")?.as_u32()?,
        }),
        "tridiag" => Ok(KernelSpec::Tridiag {
            n: v.get("n")?.as_u32()?,
            nsys: v.get("nsys")?.as_u32()?,
            padded: v.get("padded")?.as_bool()?,
        }),
        "spmv" => Ok(KernelSpec::Spmv {
            l: v.get("l")?.as_u32()?,
            seed: v.get("seed")?.as_u32()?,
            format: format_from_value(v.get("format")?)?,
            texture: v.get("texture")?.as_bool()?,
        }),
        "named" => {
            let name = v.get("name")?.as_str()?.to_owned();
            // `n` and `seed` are optional on the way in: the defaults
            // (the workload's default size, seed 1) keep the common
            // "analyze histogram" request a two-field object.
            let n = match v.get("n") {
                Ok(n) => n.as_u32()?,
                Err(_) => zoo::find(&name).map_or(0, |w| w.default_n),
            };
            let seed = match v.get("seed") {
                Ok(s) => s.as_u32()?,
                Err(_) => 1,
            };
            Ok(KernelSpec::Named { name, n, seed })
        }
        "custom" => Ok(KernelSpec::Custom(Box::new(custom_from_value(v)?))),
        other => Err(wire_err(format!("unknown case `{other}`"))),
    }
}

fn options_to_value(o: &AnalysisOptions) -> Value {
    let mut fields = vec![("threads", threads_to_value(o.threads))];
    if let Some(fuel) = o.fuel {
        fields.push(("fuel", u64_value(fuel)));
    }
    fields.push(("verify", Value::from(o.verify)));
    fields.push((
        "what_ifs",
        Value::Array(
            o.what_ifs
                .iter()
                .copied()
                .map(what_if_spec_to_value)
                .collect(),
        ),
    ));
    fields.push(("calibration", effort_to_value(o.calibration)));
    obj(fields)
}

fn options_from_value(v: &Value) -> Result<AnalysisOptions, ServiceError> {
    let mut o = AnalysisOptions::default();
    if let Ok(mode) = v.get("mode") {
        legacy_mode_from_value(mode)?;
    }
    if let Ok(threads) = v.get("threads") {
        o.threads = threads_from_value(threads)?;
    }
    if let Ok(fuel) = v.get("fuel") {
        o.fuel = Some(fuel.as_u64()?);
    }
    if let Ok(verify) = v.get("verify") {
        o.verify = verify.as_bool()?;
    }
    if let Ok(what_ifs) = v.get("what_ifs") {
        o.what_ifs = what_ifs
            .as_array()?
            .iter()
            .map(what_if_spec_from_value)
            .collect::<Result<_, _>>()?;
    }
    if let Ok(c) = v.get("calibration") {
        o.calibration = effort_from_value(c)?;
    }
    Ok(o)
}

/// The canonical request JSON the report cache keys on: the wire form
/// of the request with `machine` replaced by the *resolved* machine
/// name (so every selector spelling of one machine shares a key) and
/// the answer-invariant options normalized out — `threads` to `"auto"`
/// (reports are bit-identical at every worker count) and `calibration`
/// to its default (explicitly calibrated analyzers ignore it, and the
/// cache key separately covers the actual calibration identity); the
/// ignored `mode` is never written. See
/// [`crate::report_cache`] for the full contract.
pub(crate) fn canonical_request_json(
    kernel: &KernelSpec,
    machine_name: &str,
    options: &AnalysisOptions,
) -> String {
    let mut options = options.clone();
    options.threads = Threads::Auto;
    options.calibration = Effort::default();
    obj(vec![
        ("kernel", kernel_spec_to_value(kernel)),
        ("machine", Value::from(machine_name)),
        ("options", options_to_value(&options)),
    ])
    .to_string_pretty()
}

impl AnalysisRequest {
    /// The request as a `gpa_json` tree.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("kernel", kernel_spec_to_value(&self.kernel)),
            ("machine", Value::from(self.machine.as_str())),
            ("options", options_to_value(&self.options)),
        ])
    }

    /// Parse a request from a `gpa_json` tree. Missing `options` (or
    /// missing option fields) take their defaults.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] describing the malformed field.
    pub fn from_value(v: &Value) -> Result<AnalysisRequest, ServiceError> {
        let options = match v.get("options") {
            Ok(o) => options_from_value(o)?,
            Err(_) => AnalysisOptions::default(),
        };
        Ok(AnalysisRequest {
            kernel: kernel_spec_from_value(v.get("kernel")?)?,
            machine: v.get("machine")?.as_str()?.to_owned(),
            options,
        })
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    /// Parse from JSON text.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] on parse or schema errors.
    pub fn from_json(text: &str) -> Result<AnalysisRequest, ServiceError> {
        AnalysisRequest::from_value(&Value::parse(text)?)
    }
}

// ---- report ----

fn times_to_value(t: &ComponentTimes) -> Value {
    obj(vec![
        ("instr", Value::from(t.instr)),
        ("smem", Value::from(t.smem)),
        ("gmem", Value::from(t.gmem)),
        ("atomic", Value::from(t.atomic)),
    ])
}

fn times_from_value(v: &Value) -> Result<ComponentTimes, ServiceError> {
    Ok(ComponentTimes {
        instr: v.get("instr")?.as_f64()?,
        smem: v.get("smem")?.as_f64()?,
        gmem: v.get("gmem")?.as_f64()?,
        atomic: v.get("atomic")?.as_f64()?,
    })
}

fn cause_to_value(c: &Cause) -> Value {
    match *c {
        Cause::LowComputationalDensity { density } => obj(vec![
            ("kind", Value::from("low-computational-density")),
            ("density", Value::from(density)),
        ]),
        Cause::ExpensiveInstructions { fraction } => obj(vec![
            ("kind", Value::from("expensive-instructions")),
            ("fraction", Value::from(fraction)),
        ]),
        Cause::InsufficientWarpsForPipeline { warps } => obj(vec![
            ("kind", Value::from("insufficient-warps-pipeline")),
            ("warps", Value::from(warps)),
        ]),
        Cause::BankConflicts { factor } => obj(vec![
            ("kind", Value::from("bank-conflicts")),
            ("factor", Value::from(factor)),
        ]),
        Cause::InsufficientWarpsForSharedMemory { warps } => obj(vec![
            ("kind", Value::from("insufficient-warps-smem")),
            ("warps", Value::from(warps)),
        ]),
        Cause::AtomicContention { factor } => obj(vec![
            ("kind", Value::from("atomic-contention")),
            ("factor", Value::from(factor)),
        ]),
        Cause::UncoalescedAccesses { efficiency } => obj(vec![
            ("kind", Value::from("uncoalesced-accesses")),
            ("efficiency", Value::from(efficiency)),
        ]),
        Cause::LargeTransactionGranularity { reduction_at_16b } => obj(vec![
            ("kind", Value::from("large-transaction-granularity")),
            ("reduction_at_16b", Value::from(reduction_at_16b)),
        ]),
        Cause::InsufficientMemoryParallelism { bandwidth_fraction } => obj(vec![
            ("kind", Value::from("insufficient-memory-parallelism")),
            ("bandwidth_fraction", Value::from(bandwidth_fraction)),
        ]),
    }
}

fn cause_from_value(v: &Value) -> Result<Cause, ServiceError> {
    match v.get("kind")?.as_str()? {
        "low-computational-density" => Ok(Cause::LowComputationalDensity {
            density: v.get("density")?.as_f64()?,
        }),
        "expensive-instructions" => Ok(Cause::ExpensiveInstructions {
            fraction: v.get("fraction")?.as_f64()?,
        }),
        "insufficient-warps-pipeline" => Ok(Cause::InsufficientWarpsForPipeline {
            warps: v.get("warps")?.as_u32()?,
        }),
        "bank-conflicts" => Ok(Cause::BankConflicts {
            factor: v.get("factor")?.as_f64()?,
        }),
        "insufficient-warps-smem" => Ok(Cause::InsufficientWarpsForSharedMemory {
            warps: v.get("warps")?.as_u32()?,
        }),
        "atomic-contention" => Ok(Cause::AtomicContention {
            factor: v.get("factor")?.as_f64()?,
        }),
        "uncoalesced-accesses" => Ok(Cause::UncoalescedAccesses {
            efficiency: v.get("efficiency")?.as_f64()?,
        }),
        "large-transaction-granularity" => Ok(Cause::LargeTransactionGranularity {
            reduction_at_16b: v.get("reduction_at_16b")?.as_f64()?,
        }),
        "insufficient-memory-parallelism" => Ok(Cause::InsufficientMemoryParallelism {
            bandwidth_fraction: v.get("bandwidth_fraction")?.as_f64()?,
        }),
        other => Err(wire_err(format!("unknown cause kind `{other}`"))),
    }
}

fn stage_to_value(s: &StageAnalysis) -> Value {
    obj(vec![
        ("stage", u64_value(s.stage as u64)),
        ("times", times_to_value(&s.times)),
        ("bottleneck", component_to_value(s.bottleneck)),
        ("warps_instr", Value::from(s.warps_instr)),
        ("warps_smem", Value::from(s.warps_smem)),
        ("instr_throughput", Value::from(s.instr_throughput)),
        ("smem_bandwidth", Value::from(s.smem_bandwidth)),
        ("gmem_bandwidth", Value::from(s.gmem_bandwidth)),
        (
            "causes",
            Value::Array(s.causes.iter().map(cause_to_value).collect()),
        ),
    ])
}

fn stage_from_value(v: &Value) -> Result<StageAnalysis, ServiceError> {
    Ok(StageAnalysis {
        stage: v.get("stage")?.as_u64()? as usize,
        times: times_from_value(v.get("times")?)?,
        bottleneck: component_from_value(v.get("bottleneck")?)?,
        warps_instr: v.get("warps_instr")?.as_u32()?,
        warps_smem: v.get("warps_smem")?.as_u32()?,
        instr_throughput: v.get("instr_throughput")?.as_f64()?,
        smem_bandwidth: v.get("smem_bandwidth")?.as_f64()?,
        gmem_bandwidth: v.get("gmem_bandwidth")?.as_f64()?,
        causes: v
            .get("causes")?
            .as_array()?
            .iter()
            .map(cause_from_value)
            .collect::<Result<_, _>>()?,
    })
}

fn analysis_to_value(a: &Analysis) -> Value {
    obj(vec![
        ("kernel_name", Value::from(a.kernel_name.as_str())),
        ("machine_name", Value::from(a.machine_name.as_str())),
        ("resident_blocks", Value::from(a.resident_blocks)),
        ("resident_warps", Value::from(a.resident_warps)),
        (
            "stages",
            Value::Array(a.stages.iter().map(stage_to_value).collect()),
        ),
        ("totals", times_to_value(&a.totals)),
        ("serialized_seconds", Value::from(a.serialized_seconds)),
        ("overlapped_seconds", Value::from(a.overlapped_seconds)),
        ("predicted_seconds", Value::from(a.predicted_seconds)),
        (
            "serialized_attribution",
            times_to_value(&a.serialized_attribution),
        ),
        ("bottleneck", component_to_value(a.bottleneck)),
        ("next_bottleneck", component_to_value(a.next_bottleneck)),
        (
            "computational_density",
            Value::from(a.computational_density),
        ),
        ("bank_conflict_factor", Value::from(a.bank_conflict_factor)),
        (
            "coalescing_efficiency",
            Value::from(a.coalescing_efficiency),
        ),
        (
            "atomic_contention_factor",
            Value::from(a.atomic_contention_factor),
        ),
    ])
}

fn analysis_from_value(v: &Value) -> Result<Analysis, ServiceError> {
    Ok(Analysis {
        kernel_name: v.get("kernel_name")?.as_str()?.to_owned(),
        machine_name: v.get("machine_name")?.as_str()?.to_owned(),
        resident_blocks: v.get("resident_blocks")?.as_u32()?,
        resident_warps: v.get("resident_warps")?.as_u32()?,
        stages: v
            .get("stages")?
            .as_array()?
            .iter()
            .map(stage_from_value)
            .collect::<Result<_, _>>()?,
        totals: times_from_value(v.get("totals")?)?,
        serialized_seconds: v.get("serialized_seconds")?.as_f64()?,
        overlapped_seconds: v.get("overlapped_seconds")?.as_f64()?,
        predicted_seconds: v.get("predicted_seconds")?.as_f64()?,
        serialized_attribution: times_from_value(v.get("serialized_attribution")?)?,
        bottleneck: component_from_value(v.get("bottleneck")?)?,
        next_bottleneck: component_from_value(v.get("next_bottleneck")?)?,
        computational_density: v.get("computational_density")?.as_f64()?,
        bank_conflict_factor: v.get("bank_conflict_factor")?.as_f64()?,
        coalescing_efficiency: v.get("coalescing_efficiency")?.as_f64()?,
        atomic_contention_factor: v.get("atomic_contention_factor")?.as_f64()?,
    })
}

fn region_to_value(r: &RegionTraffic) -> Value {
    obj(vec![
        ("name", Value::from(r.name.as_str())),
        ("transactions", u64_value(r.transactions)),
        ("bytes", u64_value(r.bytes)),
        ("requested_bytes", u64_value(r.requested_bytes)),
    ])
}

fn region_from_value(v: &Value) -> Result<RegionTraffic, ServiceError> {
    Ok(RegionTraffic {
        name: v.get("name")?.as_str()?.to_owned(),
        transactions: v.get("transactions")?.as_u64()?,
        bytes: v.get("bytes")?.as_u64()?,
        requested_bytes: v.get("requested_bytes")?.as_u64()?,
    })
}

fn what_if_to_value(w: &WhatIf) -> Value {
    obj(vec![
        ("name", Value::from(w.name.as_str())),
        ("description", Value::from(w.description.as_str())),
        ("baseline_seconds", Value::from(w.baseline_seconds)),
        ("predicted_seconds", Value::from(w.predicted_seconds)),
        ("speedup", Value::from(w.speedup)),
        ("new_bottleneck", component_to_value(w.new_bottleneck)),
    ])
}

fn readback_to_value(r: &RegionReadback) -> Value {
    obj(vec![
        ("name", Value::from(r.name.as_str())),
        (
            "words",
            Value::Array(r.words.iter().map(|w| Value::from(*w)).collect()),
        ),
    ])
}

fn readback_from_value(v: &Value) -> Result<RegionReadback, ServiceError> {
    Ok(RegionReadback {
        name: v.get("name")?.as_str()?.to_owned(),
        words: v
            .get("words")?
            .as_array()?
            .iter()
            .map(gpa_json::Value::as_u32)
            .collect::<Result<_, _>>()?,
    })
}

fn what_if_from_value(v: &Value) -> Result<WhatIf, ServiceError> {
    Ok(WhatIf {
        name: v.get("name")?.as_str()?.to_owned(),
        description: v.get("description")?.as_str()?.to_owned(),
        baseline_seconds: v.get("baseline_seconds")?.as_f64()?,
        predicted_seconds: v.get("predicted_seconds")?.as_f64()?,
        speedup: v.get("speedup")?.as_f64()?,
        new_bottleneck: component_from_value(v.get("new_bottleneck")?)?,
    })
}

impl AnalysisReport {
    /// The report as a `gpa_json` tree.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("kernel", Value::from(self.kernel.as_str())),
            ("machine", Value::from(self.machine.as_str())),
            ("analysis", analysis_to_value(&self.analysis)),
            ("measured_seconds", Value::from(self.measured_seconds)),
            ("measured_cycles", Value::from(self.measured_cycles)),
            ("flops", u64_value(self.flops)),
            (
                "regions",
                Value::Array(self.regions.iter().map(region_to_value).collect()),
            ),
            (
                "what_ifs",
                Value::Array(self.what_ifs.iter().map(what_if_to_value).collect()),
            ),
        ];
        if !self.outputs.is_empty() {
            fields.push((
                "outputs",
                Value::Array(self.outputs.iter().map(readback_to_value).collect()),
            ));
        }
        if let Some(v) = self.verified {
            fields.push(("verified", Value::from(v)));
        }
        obj(fields)
    }

    /// Parse a report from a `gpa_json` tree.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] describing the malformed field.
    pub fn from_value(v: &Value) -> Result<AnalysisReport, ServiceError> {
        Ok(AnalysisReport {
            kernel: v.get("kernel")?.as_str()?.to_owned(),
            machine: v.get("machine")?.as_str()?.to_owned(),
            analysis: analysis_from_value(v.get("analysis")?)?,
            measured_seconds: v.get("measured_seconds")?.as_f64()?,
            measured_cycles: v.get("measured_cycles")?.as_f64()?,
            flops: v.get("flops")?.as_u64()?,
            regions: v
                .get("regions")?
                .as_array()?
                .iter()
                .map(region_from_value)
                .collect::<Result<_, _>>()?,
            what_ifs: v
                .get("what_ifs")?
                .as_array()?
                .iter()
                .map(what_if_from_value)
                .collect::<Result<_, _>>()?,
            outputs: match v.get("outputs") {
                Ok(outputs) => outputs
                    .as_array()?
                    .iter()
                    .map(readback_from_value)
                    .collect::<Result<_, _>>()?,
                Err(_) => Vec::new(),
            },
            verified: match v.get("verified") {
                Ok(b) => Some(b.as_bool()?),
                Err(_) => None,
            },
        })
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    /// Parse from JSON text.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Wire`] on parse or schema errors.
    pub fn from_json(text: &str) -> Result<AnalysisReport, ServiceError> {
        AnalysisReport::from_value(&Value::parse(text)?)
    }
}

// ---- the front door ----

/// The answer to one request document, ready for a transport to deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A single request's report JSON.
    Report(String),
    /// A batch's JSON array: reports and `{"error": "..."}` elements in
    /// request order.
    Batch {
        /// The serialized array.
        json: String,
        /// Whether any element is an `{"error"}`.
        failed: bool,
    },
    /// Nothing to deliver but this message: the document is not JSON, an
    /// element is not a request, or the single request failed.
    Refused(String),
}

/// Answer one request document — a request object or a batch array.
///
/// The document is parsed once. `admit` is the caller's admission rule:
/// it sees every parsed request in order (and may rewrite them, e.g. to
/// canonical machine names), and returns the analyzer to answer with
/// plus one verdict per request. Refused requests keep their error; the
/// admitted ones are answered like [`Analyzer::analyze_batch`] (a lone
/// request runs inline), except that a report-cache hit answers with its
/// stored JSON and is never decoded. A batch degrades each failure to an
/// `{"error"}` element so healthy answers still come back, and splices
/// each element's JSON into the array with [`gpa_json::pretty_array`]; a
/// single request's failure is [`Answer::Refused`]. Serialization runs
/// under the `serialize` phase span.
///
/// # Panics
///
/// Panics if `admit` returns a different number of verdicts than it was
/// given requests.
pub fn answer<A: Borrow<Analyzer>>(
    text: &str,
    admit: impl FnOnce(&mut [AnalysisRequest]) -> (A, Vec<Result<(), ServiceError>>),
) -> Answer {
    let (parsed, batch) = match Value::parse(text) {
        Err(e) => return Answer::Refused(format!("malformed JSON: {e}")),
        Ok(Value::Array(items)) => (
            items.iter().map(AnalysisRequest::from_value).collect(),
            true,
        ),
        Ok(v) => (AnalysisRequest::from_value(&v).map(|r| vec![r]), false),
    };
    let mut reqs: Vec<AnalysisRequest> = match parsed {
        Ok(reqs) => reqs,
        Err(e) => return Answer::Refused(e.to_string()),
    };
    let (analyzer, verdicts) = admit(&mut reqs);
    assert_eq!(verdicts.len(), reqs.len(), "one verdict per request");
    let mut admitted = Vec::with_capacity(reqs.len());
    let mut refusals = Vec::with_capacity(reqs.len());
    for (req, verdict) in reqs.into_iter().zip(verdicts) {
        if verdict.is_ok() {
            admitted.push(req);
        }
        refusals.push(verdict.err());
    }
    let mut resolved = analyzer
        .borrow()
        .batch(&admitted, Threads::Auto, Analyzer::resolve)
        .into_iter();
    let answers: Vec<_> = refusals
        .into_iter()
        .map(|refusal| match refusal {
            Some(e) => Err(e),
            None => resolved.next().expect("one answer per admitted request"),
        })
        .collect();

    let _span = PhaseSpan::start(phase::SERIALIZE);
    if !batch {
        return match &answers[0] {
            Ok(report) => Answer::Report(report.json().into_owned()),
            Err(e) => Answer::Refused(e.to_string()),
        };
    }
    let mut failed = false;
    let items: Vec<Cow<str>> = answers
        .iter()
        .map(|answer| match answer {
            Ok(report) => report.json(),
            Err(e) => {
                failed = true;
                Cow::Owned(
                    obj(vec![("error", Value::from(e.to_string().as_str()))]).to_string_pretty(),
                )
            }
        })
        .collect();
    Answer::Batch {
        json: gpa_json::pretty_array(items.iter().map(|item| &**item)),
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisOptions;

    #[test]
    fn minimal_request_parses_with_defaults() {
        let req = AnalysisRequest::from_json(
            r#"{"kernel": {"case": "matmul", "n": 256, "tile": 16}, "machine": "gtx285"}"#,
        )
        .unwrap();
        assert_eq!(req.kernel, KernelSpec::Matmul { n: 256, tile: 16 });
        assert_eq!(req.machine, "gtx285");
        assert_eq!(req.options, AnalysisOptions::default());
    }

    #[test]
    fn request_round_trips_all_fields() {
        let req = AnalysisRequest {
            kernel: KernelSpec::Spmv {
                l: 4,
                seed: 42,
                format: Format::BellImIv,
                texture: true,
            },
            machine: "GeForce 8800 GT".into(),
            options: AnalysisOptions {
                mode: None,
                threads: Threads::Fixed(3),
                fuel: Some(1_000_000),
                verify: true,
                what_ifs: vec![
                    WhatIfSpec::NoBankConflicts,
                    WhatIfSpec::MaxBlocks(16),
                    WhatIfSpec::Granularity16,
                ],
                calibration: Effort::Paper,
            },
        };
        let json = req.to_json();
        let back = AnalysisRequest::from_json(&json).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn degenerate_thread_selections_round_trip_semantically() {
        // Fixed(0) resolves to one worker; it serializes as 1 (0 is the
        // legacy "auto" wire encoding) and parses back as Fixed(1).
        let mut req = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285");
        req.options.threads = Threads::Fixed(0);
        let back = AnalysisRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back.options.threads, Threads::Fixed(1));
        assert_eq!(back.options.threads.count(), req.options.threads.count());
        // And the explicit auto string plus the legacy 0 both mean Auto.
        for json in [
            r#"{"kernel": {"case": "matmul", "n": 64, "tile": 16}, "machine": "x", "options": {"threads": "auto"}}"#,
            r#"{"kernel": {"case": "matmul", "n": 64, "tile": 16}, "machine": "x", "options": {"threads": 0}}"#,
        ] {
            let parsed = AnalysisRequest::from_json(json).unwrap();
            assert_eq!(parsed.options.threads, Threads::Auto);
        }
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        for bad in [
            "",
            "{",
            r#"{"machine": "gtx285"}"#,
            r#"{"kernel": {"case": "nope"}, "machine": "x"}"#,
            r#"{"kernel": {"case": "matmul", "n": 1.5, "tile": 16}, "machine": "x"}"#,
            r#"{"kernel": {"case": "matmul", "n": 64, "tile": 16}, "machine": "x", "options": {"threads": true}}"#,
            r#"{"kernel": {"case": "matmul", "n": 64, "tile": 16}, "machine": "x", "options": {"what_ifs": [{"kind": "warp-drive"}]}}"#,
        ] {
            assert!(
                matches!(AnalysisRequest::from_json(bad), Err(ServiceError::Wire(_))),
                "accepted: {bad}"
            );
        }
    }

    // ---- the front door ----

    /// An analyzer with the GTX 285 on synthetic curves: enough to answer
    /// small matmuls quickly.
    fn gtx285() -> Analyzer {
        let machine = gpa_hw::Machine::gtx285();
        let curves = gpa_ubench::ThroughputCurves {
            machine_name: machine.name.clone(),
            warps: vec![1, 32],
            instr: std::array::from_fn(|_| vec![1e9, 1e10]),
            smem: vec![1e10, 1e11],
        };
        let mut analyzer = Analyzer::new();
        analyzer.install(machine, curves).unwrap();
        analyzer
    }

    const MATMUL: &str =
        r#"{"kernel": {"case": "matmul", "n": 64, "tile": 16}, "machine": "gtx285"}"#;

    /// Admit everything.
    fn open<'a>(
        analyzer: &'a Analyzer,
    ) -> impl FnOnce(&mut [AnalysisRequest]) -> (&'a Analyzer, Vec<Result<(), ServiceError>>) {
        move |reqs| (analyzer, reqs.iter().map(|_| Ok(())).collect())
    }

    /// An admission rule that must not be reached.
    fn unreachable(_: &mut [AnalysisRequest]) -> (Analyzer, Vec<Result<(), ServiceError>>) {
        panic!("admission ran on a document that does not parse")
    }

    #[test]
    fn single_request_answers_its_report_json() {
        let analyzer = gtx285();
        let oracle = analyzer
            .analyze(&AnalysisRequest::from_json(MATMUL).unwrap())
            .unwrap()
            .to_json();
        assert_eq!(
            answer(MATMUL, open(&analyzer)),
            Answer::Report(oracle.clone())
        );
        // Admission may rewrite a request before it is answered.
        let aliased = MATMUL.replace("gtx285", "flagship");
        let got = answer(&aliased, |reqs| {
            reqs[0].machine = "gtx285".into();
            (&analyzer, vec![Ok(())])
        });
        assert_eq!(got, Answer::Report(oracle));
    }

    #[test]
    fn single_request_failure_is_refused_with_its_message() {
        let analyzer = gtx285();
        let unknown = MATMUL.replace("gtx285", "titan");
        match answer(&unknown, open(&analyzer)) {
            Answer::Refused(msg) => assert!(msg.contains("no calibrated machine"), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        let refused = answer(MATMUL, |_| {
            (
                &analyzer,
                vec![Err(ServiceError::InvalidRequest("too fine".into()))],
            )
        });
        assert_eq!(refused, Answer::Refused("invalid request: too fine".into()));
    }

    #[test]
    fn batch_mixes_reports_and_error_elements_in_order() {
        let analyzer = gtx285();
        let oracle = analyzer
            .analyze(&AnalysisRequest::from_json(MATMUL).unwrap())
            .unwrap()
            .to_value();
        let bad_tile = MATMUL.replace("\"tile\": 16", "\"tile\": 7");
        let text = format!("[{MATMUL}, {bad_tile}, {MATMUL}]");
        let got = answer(&text, |reqs| {
            let mut verdicts: Vec<_> = reqs.iter().map(|_| Ok(())).collect();
            verdicts[2] = Err(ServiceError::InvalidRequest("not admitted".into()));
            (&analyzer, verdicts)
        });
        let Answer::Batch { json, failed } = got else {
            panic!("expected a batch, got {got:?}")
        };
        assert!(failed);
        let items = Value::parse(&json).unwrap();
        let items = items.as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0], oracle);
        let error = |i: usize| items[i].get("error").unwrap().as_str().unwrap().to_owned();
        assert!(error(1).contains("matmul tile 7"), "{}", error(1));
        assert_eq!(error(2), "invalid request: not admitted");

        // All healthy: no failure flagged; an empty batch is an empty array.
        let healthy = answer(&format!("[{MATMUL}]"), open(&analyzer));
        assert!(matches!(healthy, Answer::Batch { failed: false, .. }));
        let empty = answer("[]", open(&analyzer));
        assert_eq!(
            empty,
            Answer::Batch {
                json: "[]\n".into(),
                failed: false
            }
        );
    }

    #[test]
    fn malformed_json_is_refused_before_admission() {
        match answer("{", unreachable) {
            Answer::Refused(msg) => assert!(msg.starts_with("malformed JSON: "), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn a_non_request_element_refuses_the_whole_batch() {
        for text in [
            format!("[{MATMUL}, 42]"),
            format!("[{MATMUL}, {{\"machine\": \"gtx285\"}}]"),
        ] {
            match answer(&text, unreachable) {
                Answer::Refused(msg) => assert!(msg.starts_with("malformed wire payload"), "{msg}"),
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
    }
}
