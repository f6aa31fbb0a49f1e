//! The server's observability bundle: the metrics registry behind
//! `GET /v1/metrics`, per-request finishing (histograms + access log +
//! slow-request promotion), and build/uptime identity.
//!
//! One [`ServerTelemetry`] is created per [`crate::Server`] and shared
//! by its worker threads. See [`gpa_telemetry::Registry::render`] for
//! the exposition format contract.

use crate::server::StatsSnapshot;
use gpa_service::ReportCacheStats;
use gpa_telemetry::{log, phase, AdHoc, Counter, Histogram, Registry, RequestTrace};
use std::time::{Duration, Instant};

/// Log-field key for each phase (`<phase>_us`), precomputed so access
/// logging allocates nothing per phase.
const PHASE_KEYS: [(&str, &str); 11] = [
    (phase::PARSE, "parse_us"),
    (phase::QUEUE, "queue_us"),
    (phase::HANDLE, "handle_us"),
    (phase::WRITE, "write_us"),
    (phase::CACHE_LOOKUP, "cache_lookup_us"),
    (phase::CALIBRATION_FETCH, "calibration_fetch_us"),
    (phase::BUILD, "build_us"),
    (phase::FUNCTIONAL_SIM, "functional_sim_us"),
    (phase::TIMING_REPLAY, "timing_replay_us"),
    (phase::WHAT_IFS, "what_ifs_us"),
    (phase::SERIALIZE, "serialize_us"),
];

/// Per-server metrics, identity, and access-log policy.
pub struct ServerTelemetry {
    registry: Registry,
    requests_total: Counter,
    request_duration: Histogram,
    phases: Vec<(&'static str, &'static str, Histogram)>,
    started: Instant,
    slow_request: Option<Duration>,
}

/// Everything known about one finished request, fed to
/// [`ServerTelemetry::finish_request`] by the serving engine at the moment
/// the response bytes are fully on the socket.
pub(crate) struct RequestOutcome<'a> {
    /// The trace carried through the request, when one was created
    /// (overload rejections and pre-parse failures have none).
    pub trace: Option<&'a RequestTrace>,
    /// Request method, or `-` when parsing never produced one.
    pub method: &'a str,
    /// Request target, or `-`.
    pub target: &'a str,
    /// Response status.
    pub status: u16,
    /// Response body bytes.
    pub bytes: usize,
    /// Wall-clock time from first request byte to last response byte.
    pub total: Duration,
}

impl ServerTelemetry {
    /// A fresh registry with every serving metric pre-registered, so
    /// the exposed label set does not depend on traffic.
    pub fn new(slow_request_ms: Option<u64>) -> ServerTelemetry {
        let registry = Registry::new();
        let requests_total = registry.counter(
            "gpa_requests_total",
            "Requests answered through the serving path (any status).",
        );
        let request_duration = registry.histogram(
            "gpa_request_duration_us",
            "End-to-end request latency in microseconds; the +Inf bucket equals gpa_requests_total.",
        );
        let phases = PHASE_KEYS
            .iter()
            .map(|&(name, key)| {
                let h = registry.histogram_with(
                    "gpa_request_phase_us",
                    "Per-phase request latency in microseconds, from trace spans.",
                    &[("phase", name)],
                );
                (name, key, h)
            })
            .collect();
        registry
            .gauge_with(
                "gpa_build_info",
                "Constant 1; the labels carry the build version.",
                &[("version", Self::version())],
            )
            .set(1);
        ServerTelemetry {
            registry,
            requests_total,
            request_duration,
            phases,
            started: Instant::now(),
            slow_request: slow_request_ms.map(Duration::from_millis),
        }
    }

    /// Whole seconds since this server started.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The crate version baked into the binary.
    pub fn version() -> &'static str {
        env!("CARGO_PKG_VERSION")
    }

    /// Total requests finished so far (the `gpa_requests_total` value).
    pub fn requests_total(&self) -> u64 {
        self.requests_total.get()
    }

    /// Render the full `/v1/metrics` exposition: registered serving
    /// metrics plus scrape-time families derived from the stats
    /// snapshot and (when enabled) the report cache.
    pub fn render(&self, stats: &StatsSnapshot, cache: Option<&ReportCacheStats>) -> String {
        let mut extra = vec![
            AdHoc::counter(
                "gpa_server_served_total",
                "Requests answered with a 2xx status.",
                stats.served,
            ),
            AdHoc::counter(
                "gpa_server_errors_total",
                "Requests answered with a 4xx/5xx status.",
                stats.errors,
            ),
            AdHoc::counter(
                "gpa_server_rejected_total",
                "Connections refused 503 because the queue was full.",
                stats.rejected,
            ),
            AdHoc::counter(
                "gpa_server_timeouts_total",
                "Requests that stalled mid-transfer and were answered 408.",
                stats.timeouts,
            ),
            AdHoc::gauge(
                "gpa_server_queue_depth",
                "Connections waiting for a worker.",
                stats.queue_depth as u64,
            ),
            AdHoc::gauge(
                "gpa_server_open_connections",
                "Connections currently open.",
                stats.open_connections as u64,
            ),
            AdHoc::gauge(
                "gpa_server_idle_connections",
                "Open connections parked idle between keep-alive requests.",
                stats.idle_connections as u64,
            ),
            AdHoc::gauge(
                "gpa_server_workers",
                "Worker threads serving requests.",
                stats.workers as u64,
            ),
            AdHoc::gauge(
                "gpa_process_uptime_seconds",
                "Whole seconds since the server started.",
                self.uptime_seconds(),
            ),
        ];
        if let Some(cache) = cache {
            extra.extend([
                AdHoc::counter(
                    "gpa_report_cache_hits_total",
                    "Report-cache lookups answered from memory or disk.",
                    cache.hits,
                ),
                AdHoc::counter(
                    "gpa_report_cache_misses_total",
                    "Report-cache lookups that fell through to simulation.",
                    cache.misses,
                ),
                AdHoc::counter(
                    "gpa_report_cache_evictions_total",
                    "Entries evicted from the in-memory report cache.",
                    cache.evictions,
                ),
                AdHoc::gauge(
                    "gpa_report_cache_entries",
                    "Entries resident in the in-memory report cache.",
                    cache.entries as u64,
                ),
                AdHoc::gauge(
                    "gpa_report_cache_bytes",
                    "Bytes charged against the report-cache budget.",
                    cache.bytes as u64,
                ),
            ]);
        }
        self.registry.render(&extra)
    }

    /// Count one finished request: bump `gpa_requests_total`, observe
    /// the duration and phase histograms, and emit the access-log line
    /// (promoted to WARN past the `--slow-request-ms` threshold).
    ///
    /// The serving engine calls this exactly once per response written through
    /// the normal serving path, at the same point the counter and the
    /// histogram are advanced — which is why bucket counts always sum
    /// to the counter.
    pub(crate) fn finish_request(&self, outcome: &RequestOutcome<'_>) {
        let total_us = u64::try_from(outcome.total.as_micros()).unwrap_or(u64::MAX);
        self.requests_total.inc();
        self.request_duration.observe_micros(total_us);
        if let Some(trace) = outcome.trace {
            for &(name, us) in trace.phases() {
                if let Some((_, _, h)) = self.phases.iter().find(|(n, _, _)| *n == name) {
                    h.observe_micros(us);
                }
            }
        }
        let slow = self.slow_request.is_some_and(|t| outcome.total >= t);
        let level = if slow {
            log::Level::Warn
        } else {
            log::Level::Info
        };
        if !log::enabled(level) {
            return;
        }
        let mut fields: Vec<(&str, log::FieldValue)> = Vec::with_capacity(8 + PHASE_KEYS.len());
        if let Some(trace) = outcome.trace {
            fields.push(("id", trace.id().into()));
        }
        fields.push(("method", outcome.method.into()));
        fields.push(("path", outcome.target.into()));
        fields.push(("status", outcome.status.into()));
        fields.push(("bytes", outcome.bytes.into()));
        fields.push(("total_us", total_us.into()));
        if let Some(trace) = outcome.trace {
            for &(name, us) in trace.phases() {
                if let Some(&(_, key, _)) = self.phases.iter().find(|(n, _, _)| *n == name) {
                    fields.push((key, us.into()));
                }
            }
            if let Some(hit) = trace.cache_hit() {
                fields.push(("cache", if hit { "hit".into() } else { "miss".into() }));
            }
        }
        let msg = if slow { "slow request" } else { "request" };
        log::log(level, "access", msg, &fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_names_are_traffic_independent() {
        let quiet = ServerTelemetry::new(None);
        let busy = ServerTelemetry::new(Some(1));
        let mut trace = RequestTrace::new();
        trace.record(phase::PARSE, 10);
        busy.finish_request(&RequestOutcome {
            trace: Some(&trace),
            method: "GET",
            target: "/healthz",
            status: 200,
            bytes: 2,
            total: Duration::from_micros(25),
        });
        let stats = crate::server::Shared::new(1, crate::ServerConfig::default()).snapshot();
        let names = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split_whitespace().next().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names(&quiet.render(&stats, None)),
            names(&busy.render(&stats, None)),
        );
        assert_eq!(busy.requests_total(), 1);
    }

    #[test]
    fn duration_bucket_total_tracks_the_counter() {
        let t = ServerTelemetry::new(None);
        for us in [3, 70, 9_000] {
            t.finish_request(&RequestOutcome {
                trace: None,
                method: "-",
                target: "-",
                status: 400,
                bytes: 0,
                total: Duration::from_micros(us),
            });
        }
        let stats = crate::server::Shared::new(1, crate::ServerConfig::default()).snapshot();
        let text = t.render(&stats, None);
        let inf = text
            .lines()
            .find(|l| l.starts_with("gpa_request_duration_us_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket rendered");
        assert_eq!(inf.split_whitespace().last(), Some("3"));
        assert!(text.contains("gpa_requests_total 3\n"));
    }
}
