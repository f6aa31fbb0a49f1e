#![warn(missing_docs)]

//! The HTTP serving subsystem: the paper's calibrate-once/query-many
//! workflow ([`gpa_service::Analyzer`]) behind a network front end, with
//! zero dependencies outside `std` and the workspace.
//!
//! # Shape
//!
//! * [`http`] — a strict HTTP/1.1 message layer: request parsing with
//!   size ceilings, `Content-Length` framing, correct
//!   400/404/405/413/500/503 responses.
//! * [`server`] — the connection engine: an acceptor feeding a
//!   **bounded queue** and a worker thread pool sharing one calibrated
//!   [`Analyzer`](gpa_service::Analyzer) behind an `Arc`. Queue-full
//!   answers 503 so overload degrades predictably; shutdown drains
//!   queued and in-flight work before returning. Each connection is
//!   served by one worker thread from accept to close.
//! * [`api`] — the route table: `POST /v1/analyze` (single object or
//!   batch array, the same `gpa_service::wire` JSON as `gpa-analyze`,
//!   byte-identical output at matching calibration effort),
//!   `GET /v1/machines`, `GET /v1/workloads`, `GET /healthz`,
//!   `GET /v1/stats`, `GET /v1/metrics`.
//! * [`client`] — a minimal blocking HTTP client (tests, CI, and the
//!   `gpa-http` binary drive the server with it; no curl required).
//! * [`telemetry`] — the observability bundle behind `GET /v1/metrics`:
//!   a Prometheus-text registry (request counter, latency histogram,
//!   per-phase histograms fed by [`gpa_telemetry`] trace spans), the
//!   structured access log with `--slow-request-ms` WARN promotion, and
//!   the `X-Request-Id` / opt-in `Server-Timing` response headers.
//!
//! The `gpa-serve` binary ties it together: calibrate the requested
//! machines through the shared on-disk curve cache
//! ([`gpa_ubench::cache`], also used by `gpa-analyze` and `gpa-bench`,
//! so co-located processes measure each machine once), then serve.
//!
//! ```no_run
//! use gpa_server::{api::AnalyzeApi, client::Client, server::{Server, ServerConfig}};
//! use gpa_service::Analyzer;
//! use gpa_hw::Machine;
//! use gpa_ubench::MeasureOpts;
//! use std::sync::Arc;
//!
//! let mut analyzer = Analyzer::new();
//! analyzer.calibrate(Machine::gtx285(), MeasureOpts::quick());
//! let server = Server::start(
//!     "127.0.0.1:0",
//!     ServerConfig::default(),
//!     Arc::new(AnalyzeApi::new(Arc::new(analyzer))),
//! )
//! .unwrap();
//! let client = Client::new(server.local_addr().to_string());
//! let health = client.get("/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! server.shutdown();
//! ```

pub mod api;
pub mod client;
pub mod http;
pub mod server;
pub mod telemetry;

pub use api::AnalyzeApi;
pub use client::{Client, HttpResponse};
pub use http::{Request, Response};
pub use server::{Handler, RequestContext, Server, ServerConfig, StatsSnapshot};
pub use telemetry::ServerTelemetry;
