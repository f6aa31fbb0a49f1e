#![warn(missing_docs)]

//! Std-only observability primitives shared by the whole workspace.
//!
//! Three independent pieces, composable but separately usable:
//!
//! * [`metrics`] — a lock-cheap registry of monotonic [`Counter`]s,
//!   [`Gauge`]s, and log-linear latency [`Histogram`]s, rendered as
//!   Prometheus text exposition with byte-stable ordering (the contract
//!   is documented on [`Registry::render`]).
//! * [`trace`] — per-request [`RequestTrace`]s: a process-unique request
//!   id plus accumulated `(phase, micros)` spans. A trace is *installed*
//!   on the current thread; [`PhaseSpan`] RAII guards then attribute
//!   elapsed time to named phases from anywhere below in the call stack
//!   (simulator passes, cache lookups) without plumbing a context
//!   through every signature. When no trace is installed the guards are
//!   no-ops.
//! * [`log`] — a leveled structured logger (text or JSON lines on
//!   stderr) behind a process-global configuration, replacing ad-hoc
//!   `eprintln!` in the binaries.
//!
//! Everything here is dependency-free on purpose: this crate sits below
//! `gpa-sim` in the workspace graph so even the simulators can annotate
//! phases.

pub mod log;
pub mod metrics;
pub mod trace;

pub use metrics::{AdHoc, Counter, Gauge, Histogram, HistogramSnapshot, Kind, Registry};
pub use trace::{PhaseSpan, RequestTrace};

/// Canonical phase names used across the serving stack.
///
/// The server pre-registers one latency histogram per phase so that the
/// `/v1/metrics` label set is independent of traffic. Spans recorded
/// under any other name are still carried in the trace (and the access
/// log) but get no histogram.
pub mod phase {
    /// Reading + parsing the request head and body off the socket.
    pub const PARSE: &str = "parse";
    /// Time an accepted connection waits in the queue for a worker
    /// (first request on a connection only).
    pub const QUEUE: &str = "queue";
    /// Total time inside the application handler.
    pub const HANDLE: &str = "handle";
    /// Serializing the response bytes onto the socket.
    pub const WRITE: &str = "write";
    /// Report-cache key derivation + lookup inside `Analyzer::analyze`.
    pub const CACHE_LOOKUP: &str = "cache_lookup";
    /// Fetching the calibrated machine entry (curves + identity).
    pub const CALIBRATION_FETCH: &str = "calibration_fetch";
    /// Building/validating a custom kernel from its wire spec.
    pub const BUILD: &str = "build";
    /// The functional simulation pass (all blocks, side effects).
    pub const FUNCTIONAL_SIM: &str = "functional_sim";
    /// The timing replay pass over collected traces.
    pub const TIMING_REPLAY: &str = "timing_replay";
    /// Evaluating `what_if` scenario re-analyses.
    pub const WHAT_IFS: &str = "what_ifs";
    /// Rendering the analysis report to response JSON.
    pub const SERIALIZE: &str = "serialize";

    /// Every phase above, in the fixed exposition order.
    pub const ALL: [&str; 11] = [
        PARSE,
        QUEUE,
        HANDLE,
        WRITE,
        CACHE_LOOKUP,
        CALIBRATION_FETCH,
        BUILD,
        FUNCTIONAL_SIM,
        TIMING_REPLAY,
        WHAT_IFS,
        SERIALIZE,
    ];
}
