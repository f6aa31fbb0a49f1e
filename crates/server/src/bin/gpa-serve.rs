//! `gpa-serve`: the analysis model as a network service.
//!
//! Calibrates the requested machines once at startup — through the
//! shared on-disk curve cache (`gpa_ubench::cache`), so a warm
//! `results/` directory (from a previous run, from `gpa-analyze`, or
//! from `gpa-bench`) makes startup instant — then serves analysis
//! requests over HTTP until killed:
//!
//! ```text
//! gpa-serve --addr 127.0.0.1:7070 --machines gtx285,8800gt --effort quick
//! gpa-http post http://127.0.0.1:7070/v1/analyze request.json
//! ```
//!
//! The first stdout line is `listening on http://<addr>` (flushed), so
//! scripts can scrape the bound address even with `--addr :0`'s
//! ephemeral port.

use gpa_server::api::AnalyzeApi;
use gpa_server::server::{Server, ServerConfig};
use gpa_service::{find_builtin, Analyzer, Effort, ReportCacheConfig};
use gpa_telemetry::log::{self, Level, LogFormat};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
usage: gpa-serve [options]

Serve the calibrated analysis model over HTTP (POST /v1/analyze,
GET /v1/machines, GET /v1/workloads, GET /healthz, GET /v1/stats,
GET /v1/metrics). Each connection is served by one worker thread.

Options:
  --addr HOST:PORT   listen address (default 127.0.0.1:7070; port 0 = ephemeral)
  --workers N        worker threads (default 0 = one per CPU core)
  --queue-depth N    pending connections beyond in-flight before 503 (default 64)
  --machines LIST    comma-separated machine selectors to calibrate
                     (default gtx285; also: 8800gt, 9800gtx)
  --effort LEVEL     calibration effort: quick | paper (default quick)
  --cache-dir DIR    curve/report cache directory (default: shared workspace results/)
  --no-cache         always measure; do not touch the on-disk cache
  --max-body BYTES   request body ceiling (default 1048576)
  --no-report-cache  recompute every answer instead of memoizing whole
                     answers, content-addressed (the default; persisted
                     under the cache dir unless --no-cache)
  --report-cache-bytes BYTES
                     in-memory report cache budget (default 67108864)
  --slow-request-ms N
                     promote requests slower than N ms end-to-end to WARN
                     access-log lines carrying the full per-phase breakdown
  --log-format FMT   log line format: text | json (default text)
  -v, --verbose      log at DEBUG
  -q, --quiet        log at WARN (errors and slow requests only)";

struct Options {
    addr: String,
    config: ServerConfig,
    machines: Vec<String>,
    effort: Effort,
    cache_dir: Option<PathBuf>,
    report_cache: bool,
    report_cache_bytes: usize,
    log_level: Level,
    log_format: LogFormat,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:7070".into(),
        config: ServerConfig::default(),
        machines: vec!["gtx285".into()],
        effort: Effort::Quick,
        cache_dir: Some(gpa_ubench::cache::default_dir()),
        report_cache: true,
        report_cache_bytes: ReportCacheConfig::default().max_bytes,
        log_level: Level::Info,
        log_format: LogFormat::Text,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => opts.addr = value(&mut i, "--addr")?,
            "--workers" => {
                opts.config.workers = value(&mut i, "--workers")?
                    .parse()
                    .map_err(|_| "--workers requires a count (0 = auto)".to_owned())?;
            }
            "--queue-depth" => {
                opts.config.queue_depth = value(&mut i, "--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth requires a count".to_owned())?;
            }
            "--machines" => {
                let list = value(&mut i, "--machines")?;
                opts.machines = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if opts.machines.is_empty() {
                    return Err("--machines requires at least one selector".into());
                }
            }
            "--effort" => {
                opts.effort = match value(&mut i, "--effort")?.as_str() {
                    "quick" => Effort::Quick,
                    "paper" => Effort::Paper,
                    other => return Err(format!("unknown effort `{other}` (quick | paper)")),
                };
            }
            "--cache-dir" => opts.cache_dir = Some(PathBuf::from(value(&mut i, "--cache-dir")?)),
            "--no-cache" => opts.cache_dir = None,
            "--no-report-cache" => opts.report_cache = false,
            "--report-cache-bytes" => {
                opts.report_cache_bytes = value(&mut i, "--report-cache-bytes")?
                    .parse()
                    .map_err(|_| "--report-cache-bytes requires a byte count".to_owned())?;
            }
            "--max-body" => {
                opts.config.max_body_bytes = value(&mut i, "--max-body")?
                    .parse()
                    .map_err(|_| "--max-body requires a byte count".to_owned())?;
            }
            "--slow-request-ms" => {
                let ms: u64 = value(&mut i, "--slow-request-ms")?
                    .parse()
                    .map_err(|_| "--slow-request-ms requires milliseconds".to_owned())?;
                opts.config.slow_request_ms = Some(ms);
            }
            "--log-format" => {
                let spec = value(&mut i, "--log-format")?;
                opts.log_format = LogFormat::parse(&spec)
                    .ok_or_else(|| format!("unknown log format `{spec}` (text | json)"))?;
            }
            "-v" | "--verbose" => opts.log_level = Level::Debug,
            "-q" | "--quiet" => opts.log_level = Level::Warn,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gpa-serve: {e}");
            return ExitCode::from(2);
        }
    };
    log::init(opts.log_level, opts.log_format);

    // Calibrate every requested machine before accepting a single
    // connection: requests are then pure read-only lookups and the
    // worker pool shares one Analyzer with no locking.
    let mut analyzer = Analyzer::new();
    for selector in &opts.machines {
        let machine = match find_builtin(selector) {
            Ok(m) => m,
            Err(e) => {
                log::error("serve", &e.to_string(), &[]);
                return ExitCode::from(2);
            }
        };
        log::info(
            "serve",
            "calibrating",
            &[
                ("machine", machine.name.as_str().into()),
                ("effort", format!("{:?}", opts.effort).into()),
            ],
        );
        match &opts.cache_dir {
            Some(dir) => analyzer.calibrate_cached(machine, opts.effort.measure_opts(), dir),
            None => analyzer.calibrate(machine, opts.effort.measure_opts()),
        };
    }

    // Memoize whole answers (content-addressed on request + calibration
    // identity): duplicated traffic skips the simulator entirely. The
    // disk tier shares the curve-cache directory, so reports persist
    // across restarts and are shared with `gpa-analyze` next door.
    if opts.report_cache {
        analyzer.enable_report_cache(ReportCacheConfig {
            max_bytes: opts.report_cache_bytes,
            disk_dir: opts.cache_dir.clone(),
        });
    }

    // Advertise the startup effort: requests asking for finer
    // calibration get refused instead of silently coarser answers.
    let handler = Arc::new(AnalyzeApi::new(Arc::new(analyzer)).with_effort(opts.effort));
    let server = match Server::start(opts.addr.as_str(), opts.config, handler) {
        Ok(s) => s,
        Err(e) => {
            log::error(
                "serve",
                "cannot bind",
                &[
                    ("addr", opts.addr.as_str().into()),
                    ("error", e.to_string().into()),
                ],
            );
            return ExitCode::FAILURE;
        }
    };

    // Scripts scrape this line for the bound (possibly ephemeral) port;
    // stdout is block-buffered under a pipe, so flush explicitly.
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "listening on http://{}", server.local_addr());
    let _ = stdout.flush();
    log::info(
        "serve",
        "serving",
        &[
            ("machines", opts.machines.len().into()),
            ("workers", server.stats().workers.into()),
            ("queue_depth", opts.config.queue_depth.into()),
        ],
    );

    server.wait(); // runs until the process is killed
    ExitCode::SUCCESS
}
