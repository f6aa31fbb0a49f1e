//! `gpa-analyze`: drive the analysis service from JSON, no Rust needed.
//!
//! Reads an [`AnalysisRequest`] (or an array of them) as JSON from a file
//! argument or stdin, calibrates the named machines once per process
//! (honoring each request's `"calibration"` effort; `"paper"` wins over
//! `"quick"` when requests share a machine), answers every request, and
//! writes the report JSON to stdout — an object for a single request, an
//! array (in request order) for a batch.
//!
//! ```text
//! gpa-analyze request.json            # file
//! gpa-analyze < request.json          # stdin
//! gpa-analyze - < request.json       # stdin, explicit
//! ```
//!
//! Calibration goes through the shared on-disk curve cache
//! (`gpa_ubench::cache`, the workspace `results/` directory by default,
//! `--cache-dir DIR` to relocate, `--no-cache` to always measure), so
//! repeated CLI runs — and a `gpa-serve` instance next door — measure
//! each machine once. Cache hits register bit-identical curves, so
//! reports never depend on who calibrated first.
//!
//! A failed single request prints the error to stderr and exits 1. In a
//! batch, failed requests become `{"error": "..."}` elements so the
//! healthy answers still come back; the exit code is 1 if any failed.

use gpa_service::wire::{self, Answer};
use gpa_service::{find_builtin, AnalysisRequest, Analyzer, Effort, ServiceError};
use gpa_telemetry::log::{self, Level, LogFormat};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: gpa-analyze [--cache-dir DIR | --no-cache] [--no-report-cache] [REQUEST.json | -]
       gpa-analyze --kernel-asm FILE.asm [--machine SEL] [--grid X[xY]]
       gpa-analyze --workload NAME [--n N] [--seed S] [--machine SEL]

Reads an analysis request (JSON object) or batch (JSON array) from the
given file or stdin and writes the report JSON to stdout. See the
`gpa_service::wire` docs for the schema; machines: gtx285, 8800gt,
9800gtx. Any kernel is accepted: besides the three case studies, a
request with {\"case\": \"custom\"} carries decuda-style assembly, a
launch shape, parameters, and a declarative memory image.

Options:
  --cache-dir DIR   load/store calibration curves (and cached reports)
                    under DIR (default: the shared workspace results/)
  --no-cache        always measure; do not touch the on-disk cache
  --no-report-cache recompute every answer instead of memoizing whole
                    answers under the cache dir (the default; either way
                    the output is byte-identical, only speed changes)
  --kernel-asm FILE wrap a bare `.asm` kernel into a custom request:
                    the block shape comes from the file's `.threads`
                    directive, the grid from --grid (default 1), the
                    machine from --machine (default gtx285). Kernels
                    needing parameters or device memory must use the
                    full request JSON instead.
  --workload NAME   analyze a workload-zoo kernel by name (vector_add,
                    saxpy, strided_copy, naive_transpose,
                    shared_transpose, reduce_sum, dot_product, histogram,
                    atomic_hotspot, shared_bank_conflict, random_access,
                    vector_add_divergent); equivalent to a request with
                    {\"case\": \"named\"}
  --n N             problem size for --workload (default: per workload)
  --seed S          input-data seed for --workload (default 1)
  --machine SEL     machine selector for --kernel-asm / --workload
  --grid X[xY]      grid shape in blocks for --kernel-asm
  --log-format FMT  log line format: text | json (default text)
  -v, --verbose     log at DEBUG
  -q, --quiet       log at WARN (suppresses the calibrating lines)";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        emit(&format!("{USAGE}\n"));
        return ExitCode::SUCCESS;
    }
    match extract_log_flags(&mut args) {
        Ok((level, format)) => log::init(level, format),
        Err(e) => {
            eprintln!("gpa-analyze: {e}");
            return ExitCode::from(2);
        }
    }
    let cache_dir = match extract_cache_dir(&mut args) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gpa-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let report_cache = extract_report_cache(&mut args);
    let workload_request = match extract_workload(&mut args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gpa-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let asm_request = match extract_kernel_asm(&mut args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gpa-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if workload_request.is_some() && asm_request.is_some() {
        eprintln!("gpa-analyze: choose one of --workload / --kernel-asm\n{USAGE}");
        return ExitCode::from(2);
    }
    // The flag forms enter the front door as the wire request they stand
    // for, so they answer byte-identically to it by construction.
    let text = if let Some(req) = workload_request.or(asm_request) {
        if !args.is_empty() {
            eprintln!("gpa-analyze: --workload/--kernel-asm take no request file\n{USAGE}");
            return ExitCode::from(2);
        }
        req.to_json()
    } else {
        match read_input(&args) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gpa-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let answer = wire::answer(&text, |reqs| {
        // Resolve every selector against the built-in presets up front and
        // rewrite it to the canonical machine name, so a request's answer
        // never depends on which machines *other* requests caused to be
        // calibrated (an ambiguous selector stays ambiguous in a batch).
        let verdicts: Vec<Result<(), ServiceError>> = reqs
            .iter_mut()
            .map(|req| {
                find_builtin(&req.machine).map(|machine| {
                    req.machine = machine.name;
                })
            })
            .collect();
        let analyzer = calibrate(reqs, &verdicts, cache_dir.as_ref(), report_cache);
        (analyzer, verdicts)
    });
    match answer {
        Answer::Report(json) => {
            emit(&json);
            ExitCode::SUCCESS
        }
        Answer::Batch { json, failed } => {
            emit(&json);
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Answer::Refused(msg) => {
            eprintln!("gpa-analyze: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// An analyzer for the resolved requests: each distinct machine
/// calibrated once, at the highest effort any of its requests asks for
/// (the expensive step; answers are cheap), through the curve cache in
/// `cache_dir` when there is one.
fn calibrate(
    reqs: &[AnalysisRequest],
    verdicts: &[Result<(), ServiceError>],
    cache_dir: Option<&PathBuf>,
    report_cache: bool,
) -> Analyzer {
    let mut calibrated: Vec<(&str, Effort)> = Vec::new();
    for (req, _) in reqs.iter().zip(verdicts).filter(|(_, v)| v.is_ok()) {
        let effort = req.options.calibration;
        match calibrated.iter_mut().find(|(name, _)| *name == req.machine) {
            Some((_, have)) if *have >= effort => {}
            Some(entry) => entry.1 = effort,
            None => calibrated.push((&req.machine, effort)),
        }
    }
    let mut analyzer = Analyzer::new();
    for (name, effort) in calibrated {
        let machine = find_builtin(name).expect("calibration list holds resolved names");
        log::info(
            "analyze",
            "calibrating",
            &[
                ("machine", name.into()),
                ("effort", format!("{effort:?}").into()),
            ],
        );
        match cache_dir {
            Some(dir) => analyzer.calibrate_cached(machine, effort.measure_opts(), dir),
            None => analyzer.calibrate(machine, effort.measure_opts()),
        };
    }
    // Memoized answers are byte-identical to recomputed ones (the cache
    // stores the exact serialized report), so caching is on by default;
    // the disk tier rides the same directory as the curve cache.
    if report_cache {
        analyzer.enable_report_cache(gpa_service::ReportCacheConfig {
            disk_dir: cache_dir.cloned(),
            ..gpa_service::ReportCacheConfig::default()
        });
    }
    analyzer
}

/// Write to stdout, swallowing broken-pipe errors so `gpa-analyze … |
/// head` exits quietly instead of panicking mid-print.
fn emit(text: &str) {
    let _ = std::io::stdout().write_all(text.as_bytes());
}

/// Strip the logging flags (`-q`/`--quiet`, `-v`/`--verbose`,
/// `--log-format FMT`) out of `args`, returning the level and format to
/// initialize the structured logger with.
fn extract_log_flags(args: &mut Vec<String>) -> Result<(Level, LogFormat), String> {
    let mut level = Level::Info;
    let mut format = LogFormat::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-q" | "--quiet" => {
                level = Level::Warn;
                args.remove(i);
            }
            "-v" | "--verbose" => {
                level = Level::Debug;
                args.remove(i);
            }
            "--log-format" => {
                if i + 1 >= args.len() {
                    return Err("--log-format requires a value".into());
                }
                args.remove(i);
                let spec = args.remove(i);
                format = LogFormat::parse(&spec)
                    .ok_or_else(|| format!("unknown log format `{spec}` (text | json)"))?;
            }
            _ => i += 1,
        }
    }
    Ok((level, format))
}

/// Strip the calibration-cache flags out of `args`, returning the cache
/// directory to use (`None` = caching disabled via `--no-cache`).
fn extract_cache_dir(args: &mut Vec<String>) -> Result<Option<PathBuf>, String> {
    let mut dir = Some(gpa_ubench::cache::default_dir());
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-cache" => {
                dir = None;
                args.remove(i);
            }
            "--cache-dir" => {
                if i + 1 >= args.len() {
                    return Err("--cache-dir requires a directory argument".into());
                }
                args.remove(i);
                dir = Some(PathBuf::from(args.remove(i)));
            }
            arg => {
                if let Some(v) = arg.strip_prefix("--cache-dir=") {
                    dir = Some(PathBuf::from(v));
                    args.remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }
    Ok(dir)
}

/// Strip `--no-report-cache` out of `args`, returning whether answers
/// should be memoized (default yes).
fn extract_report_cache(args: &mut Vec<String>) -> bool {
    let before = args.len();
    args.retain(|a| a != "--no-report-cache");
    args.len() == before
}

/// Handle `--workload NAME [--n N] [--seed S] [--machine SEL]`: wrap a
/// workload-zoo name into a [`gpa_service::KernelSpec::Named`] request —
/// the CLI twin of a `{"case": "named"}` wire request, so both produce
/// byte-identical reports. `--machine` is only consumed when
/// `--workload` is present (it otherwise belongs to `--kernel-asm`).
fn extract_workload(args: &mut Vec<String>) -> Result<Option<AnalysisRequest>, String> {
    let mut name: Option<String> = None;
    let mut n: Option<u32> = None;
    let mut seed: Option<u32> = None;
    let take_value = |args: &mut Vec<String>, i: usize, flag: &str| -> Result<String, String> {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires an argument"));
        }
        args.remove(i);
        Ok(args.remove(i))
    };
    let parse_u32 = |spec: String, flag: &str| -> Result<u32, String> {
        spec.parse()
            .map_err(|_| format!("{flag} expects a non-negative integer, got `{spec}`"))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => name = Some(take_value(args, i, "--workload")?),
            "--n" => n = Some(parse_u32(take_value(args, i, "--n")?, "--n")?),
            "--seed" => seed = Some(parse_u32(take_value(args, i, "--seed")?, "--seed")?),
            _ => i += 1,
        }
    }
    let Some(name) = name else {
        if n.is_some() || seed.is_some() {
            return Err("--n/--seed require --workload".into());
        }
        return Ok(None);
    };
    let mut machine: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--machine" {
            machine = Some(take_value(args, i, "--machine")?);
        } else {
            i += 1;
        }
    }
    let workload = gpa_apps::zoo::find(&name).ok_or_else(|| {
        let names: Vec<&str> = gpa_apps::zoo::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; available: {}", names.join(", "))
    })?;
    let n = n.unwrap_or(workload.default_n);
    gpa_apps::zoo::validate(&name, n)?;
    Ok(Some(AnalysisRequest::new(
        gpa_service::KernelSpec::Named {
            name,
            n,
            seed: seed.unwrap_or(1),
        },
        machine.unwrap_or_else(|| "gtx285".into()),
    )))
}

/// Handle `--kernel-asm FILE [--machine SEL] [--grid X[xY]]`: wrap a
/// bare assembly file into a [`gpa_service::KernelSpec::Custom`] request. The block
/// shape comes from the file's `.threads` directive, so the convenience
/// form needs no launch JSON.
fn extract_kernel_asm(args: &mut Vec<String>) -> Result<Option<AnalysisRequest>, String> {
    let mut asm_path: Option<String> = None;
    let mut machine: Option<String> = None;
    let mut grid: Option<(u32, u32)> = None;
    let mut i = 0;
    let take_value = |args: &mut Vec<String>, i: usize, flag: &str| -> Result<String, String> {
        if i + 1 >= args.len() {
            return Err(format!("{flag} requires an argument"));
        }
        args.remove(i);
        Ok(args.remove(i))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--kernel-asm" => asm_path = Some(take_value(args, i, "--kernel-asm")?),
            "--machine" => machine = Some(take_value(args, i, "--machine")?),
            "--grid" => {
                let spec = take_value(args, i, "--grid")?;
                grid = Some(parse_grid(&spec)?);
            }
            _ => i += 1,
        }
    }
    let Some(path) = asm_path else {
        // Refuse rather than silently discard: these flags only have
        // meaning alongside --kernel-asm (request JSON carries its own
        // machine and launch).
        if machine.is_some() || grid.is_some() {
            return Err("--machine/--grid require --kernel-asm".into());
        }
        return Ok(None);
    };
    let machine = machine.unwrap_or_else(|| "gtx285".into());
    let grid = grid.unwrap_or((1, 1));
    let asm = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Parse once here only to learn the declared block size; the service
    // parses again through the same grammar when it builds the kernel.
    let kernel = gpa_isa::asm::parse_kernel(&asm).map_err(|e| format!("{path}: {e}"))?;
    let launch = gpa_sim::LaunchConfig::new_2d(grid, (kernel.resources.threads_per_block, 1));
    let custom = gpa_service::CustomKernel {
        asm,
        launch,
        params: Vec::new(),
        memory: Vec::new(),
    };
    Ok(Some(AnalysisRequest::new(
        gpa_service::KernelSpec::Custom(Box::new(custom)),
        machine,
    )))
}

fn parse_grid(spec: &str) -> Result<(u32, u32), String> {
    let bad = || format!("--grid expects X or XxY in blocks, got `{spec}`");
    match spec.split_once('x') {
        Some((x, y)) => Ok((x.parse().map_err(|_| bad())?, y.parse().map_err(|_| bad())?)),
        None => Ok((spec.parse().map_err(|_| bad())?, 1)),
    }
}

fn read_input(args: &[String]) -> Result<String, String> {
    match args {
        [] => read_stdin(),
        [path] if path == "-" => read_stdin(),
        [path] => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
        _ => Err(format!("expected one input file\n{USAGE}")),
    }
}

fn read_stdin() -> Result<String, String> {
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| format!("cannot read stdin: {e}"))?;
    Ok(text)
}
