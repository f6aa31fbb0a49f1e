//! The analysis API: routes over one shared, calibrated
//! [`Analyzer`].
//!
//! | Route | Answer |
//! |-------|--------|
//! | `POST /v1/analyze` | report JSON for one request object, or an array of per-request reports/`{"error"}` elements for a batch array — the same `gpa_service::wire` JSON as `gpa-analyze` |
//! | `GET /v1/machines` | `{"machines": [...]}`, the calibrated machine names |
//! | `GET /v1/workloads` | `{"workloads": [{"name", "description", "default_n"}, ...]}`, the workload zoo addressable via `{"case": "named"}` |
//! | `GET /healthz` | `{"status": "ok", "machines": N}` |
//! | `GET /v1/stats` | served/error/rejected/timeout/deadline/admission counters, queue depth, open/idle connection gauges, workers, uptime, build version, the selected io model |
//! | `GET /v1/metrics` | Prometheus text exposition (see [`gpa_telemetry::Registry::render`]): request counter, latency and per-phase histograms, server counters/gauges, report-cache counters when enabled |
//!
//! Unknown paths answer 404, known paths with the wrong method 405
//! (with `Allow`), malformed JSON or failed single requests 400. The
//! analyzer is calibrated **before** the server starts and never
//! mutated afterwards, so every worker shares it read-only.
//!
//! Unlike `gpa-analyze` (which calibrates per run, honoring each
//! request's `"calibration"` effort), the server calibrates once at
//! startup. A request asking for *more* effort than the server
//! calibrated with is refused (400, or an `{"error"}` element in a
//! batch) rather than silently answered from coarser curves. That
//! refusal is the route's admission rule for
//! [`gpa_service::wire::answer`], the front door `gpa-analyze` answers
//! through too — so whenever the server's effort matches what
//! `gpa-analyze` would use, accepted answers are **byte-identical** to
//! `gpa-analyze` stdout.

use crate::http::{Request, Response};
use crate::server::{Handler, RequestContext};
use crate::telemetry::ServerTelemetry;
use gpa_json::Value;
use gpa_service::wire::{self, Answer};
use gpa_service::{AnalysisRequest, Analyzer, Effort, ServiceError};
use std::sync::Arc;

/// The route table over a calibrated [`Analyzer`].
pub struct AnalyzeApi {
    analyzer: Arc<Analyzer>,
    effort: Effort,
}

impl AnalyzeApi {
    /// An API over `analyzer` (calibrate it first; the server answers
    /// only machines the analyzer already knows). Defaults to
    /// advertising [`Effort::Paper`] calibration — pass the real effort
    /// via [`AnalyzeApi::with_effort`] if the analyzer was calibrated
    /// more coarsely.
    pub fn new(analyzer: Arc<Analyzer>) -> AnalyzeApi {
        AnalyzeApi {
            analyzer,
            effort: Effort::Paper,
        }
    }

    /// Declare the effort the analyzer was calibrated with; requests
    /// asking for more are refused instead of silently downgraded.
    pub fn with_effort(mut self, effort: Effort) -> AnalyzeApi {
        self.effort = effort;
        self
    }

    /// Refuse requests wanting finer calibration than the server has.
    fn check_effort(&self, request: &AnalysisRequest) -> Result<(), ServiceError> {
        if request.options.calibration > self.effort {
            return Err(ServiceError::InvalidRequest(format!(
                "request asks for {:?} calibration but this server calibrated at {:?}",
                request.options.calibration, self.effort
            )));
        }
        Ok(())
    }

    fn analyze(&self, req: &Request) -> Response {
        let text = match req.body_utf8() {
            Ok(t) => t,
            Err(e) => return Response::error(400, &e.message()),
        };
        let answer = wire::answer(text, |reqs| {
            let verdicts = reqs.iter().map(|r| self.check_effort(r)).collect();
            (&*self.analyzer, verdicts)
        });
        match answer {
            Answer::Report(json) | Answer::Batch { json, .. } => Response::json(200, json),
            // Every analysis failure is something the request asked for
            // (malformed JSON, unknown machine, out-of-range size, failed
            // verification): a client error, not a 500.
            Answer::Refused(msg) => Response::error(400, &msg),
        }
    }

    fn machines(&self) -> Response {
        let names = self
            .analyzer
            .machines()
            .into_iter()
            .map(Value::from)
            .collect();
        Response::json(
            200,
            Value::Object(vec![("machines".into(), Value::Array(names))]).to_string_pretty(),
        )
    }

    /// The workload zoo: static (the library is compiled in), but served
    /// as a route so clients can discover names/defaults before posting
    /// a `{"case": "named"}` request.
    fn workloads() -> Response {
        let items = gpa_service::zoo::WORKLOADS
            .iter()
            .map(|w| {
                Value::Object(vec![
                    ("name".into(), Value::from(w.name)),
                    ("description".into(), Value::from(w.description)),
                    ("default_n".into(), Value::from(w.default_n)),
                ])
            })
            .collect();
        Response::json(
            200,
            Value::Object(vec![("workloads".into(), Value::Array(items))]).to_string_pretty(),
        )
    }

    fn healthz(&self) -> Response {
        Response::json(
            200,
            Value::Object(vec![
                ("status".into(), Value::from("ok")),
                (
                    "machines".into(),
                    Value::from(self.analyzer.machines().len() as u32),
                ),
            ])
            .to_string_pretty(),
        )
    }

    fn stats(&self, ctx: &RequestContext<'_>) -> Response {
        let stats = ctx.stats;
        let mut fields = vec![
            ("served".into(), Value::Number(stats.served as f64)),
            ("errors".into(), Value::Number(stats.errors as f64)),
            ("rejected".into(), Value::Number(stats.rejected as f64)),
            ("timeouts".into(), Value::Number(stats.timeouts as f64)),
            (
                "deadline_expired".into(),
                Value::Number(stats.deadline_expired as f64),
            ),
            (
                "admission_rejected".into(),
                Value::Number(stats.admission_rejected as f64),
            ),
            (
                "queue_depth".into(),
                Value::Number(stats.queue_depth as f64),
            ),
            (
                "open_connections".into(),
                Value::Number(stats.open_connections as f64),
            ),
            (
                "idle_connections".into(),
                Value::Number(stats.idle_connections as f64),
            ),
            ("workers".into(), Value::Number(stats.workers as f64)),
            (
                "uptime_seconds".into(),
                Value::Number(ctx.telemetry.uptime_seconds() as f64),
            ),
            ("version".into(), Value::from(ServerTelemetry::version())),
            ("io_model".into(), Value::from(ctx.telemetry.io_model_str())),
        ];
        // Only present when the analyzer memoizes reports, so a scraper
        // can tell "cache off" from "cache cold".
        if let Some(cache) = self.analyzer.report_cache_stats() {
            fields.push((
                "report_cache".into(),
                Value::Object(vec![
                    ("hits".into(), Value::Number(cache.hits as f64)),
                    ("misses".into(), Value::Number(cache.misses as f64)),
                    ("evictions".into(), Value::Number(cache.evictions as f64)),
                    ("entries".into(), Value::Number(cache.entries as f64)),
                    ("bytes".into(), Value::Number(cache.bytes as f64)),
                ]),
            ));
        }
        Response::json(200, Value::Object(fields).to_string_pretty())
    }

    /// The Prometheus scrape: the server's registered metrics plus the
    /// stats-snapshot and report-cache families, rendered by
    /// [`ServerTelemetry::render`].
    fn metrics(&self, ctx: &RequestContext<'_>) -> Response {
        let text = ctx
            .telemetry
            .render(&ctx.stats, self.analyzer.report_cache_stats().as_ref());
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: text.into_bytes(),
        }
    }
}

impl Handler for AnalyzeApi {
    fn handle(&self, req: &Request, ctx: &RequestContext<'_>) -> Response {
        // Route on the path first so a wrong method gets a 405 naming
        // the right one, not a 404.
        let allowed: &'static str = match req.target.as_str() {
            "/v1/analyze" => "POST",
            "/v1/machines" | "/v1/workloads" | "/v1/stats" | "/v1/metrics" | "/healthz" => "GET",
            _ => return Response::error(404, &format!("no such path `{}`", req.target)),
        };
        if req.method != allowed {
            return Response::error(405, &format!("use {allowed} for `{}`", req.target))
                .with_header("Allow", allowed);
        }
        match req.target.as_str() {
            "/v1/analyze" => self.analyze(req),
            "/v1/machines" => self.machines(),
            "/v1/workloads" => Self::workloads(),
            "/v1/stats" => self.stats(ctx),
            "/v1/metrics" => self.metrics(ctx),
            "/healthz" => self.healthz(),
            _ => unreachable!("routed above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{IoModel, StatsSnapshot};

    fn api() -> AnalyzeApi {
        AnalyzeApi::new(Arc::new(Analyzer::new()))
    }

    fn get(target: &str) -> Request {
        Request {
            method: "GET".into(),
            target: target.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn stats0() -> StatsSnapshot {
        StatsSnapshot {
            served: 5,
            errors: 2,
            rejected: 1,
            timeouts: 7,
            deadline_expired: 6,
            admission_rejected: 8,
            queue_depth: 3,
            open_connections: 9,
            idle_connections: 1,
            workers: 4,
        }
    }

    fn ctx(telemetry: &ServerTelemetry) -> RequestContext<'_> {
        RequestContext {
            stats: stats0(),
            telemetry,
        }
    }

    #[test]
    fn routes_without_an_analyzer_entry() {
        let api = api();
        let t = ServerTelemetry::new(IoModel::Threads, None);
        assert_eq!(api.handle(&get("/healthz"), &ctx(&t)).status, 200);
        assert_eq!(api.handle(&get("/v1/machines"), &ctx(&t)).status, 200);
        assert_eq!(api.handle(&get("/nope"), &ctx(&t)).status, 404);
        let post = Request {
            method: "POST".into(),
            ..get("/healthz")
        };
        let resp = api.handle(&post, &ctx(&t));
        assert_eq!(resp.status, 405);
        assert!(resp.headers.contains(&("Allow".into(), "GET".into())));
    }

    #[test]
    fn stats_serialize_every_counter() {
        let api = api();
        let t = ServerTelemetry::new(IoModel::Reactor, None);
        let resp = api.handle(&get("/v1/stats"), &ctx(&t));
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("served").unwrap().as_u64().unwrap(), 5);
        assert_eq!(v.get("errors").unwrap().as_u64().unwrap(), 2);
        assert_eq!(v.get("rejected").unwrap().as_u64().unwrap(), 1);
        assert_eq!(v.get("timeouts").unwrap().as_u64().unwrap(), 7);
        assert_eq!(v.get("deadline_expired").unwrap().as_u64().unwrap(), 6);
        assert_eq!(v.get("admission_rejected").unwrap().as_u64().unwrap(), 8);
        assert_eq!(v.get("queue_depth").unwrap().as_u64().unwrap(), 3);
        assert_eq!(v.get("open_connections").unwrap().as_u64().unwrap(), 9);
        assert_eq!(v.get("idle_connections").unwrap().as_u64().unwrap(), 1);
        assert_eq!(v.get("workers").unwrap().as_u64().unwrap(), 4);
        // The identity satellite: uptime, build version, io model.
        assert!(v.get("uptime_seconds").unwrap().as_u64().is_ok());
        assert_eq!(
            v.get("version").unwrap().as_str().unwrap(),
            env!("CARGO_PKG_VERSION")
        );
        assert_eq!(v.get("io_model").unwrap().as_str().unwrap(), "reactor");
        // No report cache enabled: the section is absent, not zeroed.
        assert!(v.get("report_cache").is_err());
    }

    #[test]
    fn stats_surface_report_cache_counters_when_enabled() {
        let mut analyzer = Analyzer::new();
        analyzer.enable_report_cache(gpa_service::ReportCacheConfig::default());
        let api = AnalyzeApi::new(Arc::new(analyzer));
        let t = ServerTelemetry::new(IoModel::Threads, None);
        let resp = api.handle(&get("/v1/stats"), &ctx(&t));
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let cache = v.get("report_cache").unwrap();
        for field in ["hits", "misses", "evictions", "entries", "bytes"] {
            assert_eq!(cache.get(field).unwrap().as_u64().unwrap(), 0, "{field}");
        }
    }

    #[test]
    fn metrics_expose_server_and_cache_families() {
        let mut analyzer = Analyzer::new();
        analyzer.enable_report_cache(gpa_service::ReportCacheConfig::default());
        let api = AnalyzeApi::new(Arc::new(analyzer));
        let t = ServerTelemetry::new(IoModel::Threads, None);
        let resp = api.handle(&get("/v1/metrics"), &ctx(&t));
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain"));
        let text = String::from_utf8(resp.body).unwrap();
        for family in [
            "gpa_requests_total 0\n",
            "gpa_request_duration_us_bucket{le=\"+Inf\"} 0\n",
            "gpa_request_phase_us_count{phase=\"handle\"} 0\n",
            "gpa_server_served_total 5\n",
            "gpa_server_errors_total 2\n",
            "gpa_report_cache_hits_total 0\n",
            "gpa_process_uptime_seconds",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        // Without a report cache the cache families disappear entirely
        // (absent, not zeroed — same contract as /v1/stats).
        let bare = api_no_cache_metrics(&t);
        assert!(!bare.contains("gpa_report_cache_"));
    }

    fn api_no_cache_metrics(t: &ServerTelemetry) -> String {
        let resp = api().handle(&get("/v1/metrics"), &ctx(t));
        String::from_utf8(resp.body).unwrap()
    }

    #[test]
    fn requests_beyond_the_server_effort_are_refused_not_downgraded() {
        let api = AnalyzeApi::new(Arc::new(Analyzer::new())).with_effort(Effort::Quick);
        let body = |calibration: &str| {
            format!(
                "{{\"kernel\": {{\"case\": \"matmul\", \"n\": 64, \"tile\": 16}}, \
                 \"machine\": \"gtx285\", \"options\": {{\"calibration\": \"{calibration}\"}}}}"
            )
        };
        let post = |payload: String| Request {
            method: "POST".into(),
            target: "/v1/analyze".into(),
            headers: Vec::new(),
            body: payload.into_bytes(),
        };
        let t = ServerTelemetry::new(IoModel::Threads, None);
        // Paper-effort request on a quick-effort server: refused with a
        // message naming both efforts.
        let resp = api.handle(&post(body("paper")), &ctx(&t));
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("Paper") && text.contains("Quick"), "{text}");
        // Matching effort passes the gate (and then fails on the empty
        // analyzer, proving the gate ran first).
        let resp = api.handle(&post(body("quick")), &ctx(&t));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("no calibrated machine"), "{text}");
        // In a batch, the refusal is an {"error"} element in order.
        let batch = format!("[{}, {}]", body("quick"), body("paper"));
        let resp = api.handle(&post(batch), &ctx(&t));
        assert_eq!(resp.status, 200);
        let doc = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let items = doc.as_array().unwrap();
        assert!(items[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("no calibrated machine"));
        assert!(items[1]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("calibration"));
    }

    /// A body at the server's ceiling goes through the whole handler —
    /// UTF-8 check, JSON decode, wire decode — and is refused as a wire
    /// error within a wall-clock budget generous for an unoptimized
    /// build.
    #[test]
    fn a_maximum_size_body_is_refused_within_budget() {
        let body = format!(
            "{{\"machine\": \"{}\"}}",
            "x".repeat(crate::http::DEFAULT_MAX_BODY_BYTES - 15)
        );
        assert_eq!(body.len(), crate::http::DEFAULT_MAX_BODY_BYTES);
        let req = Request {
            method: "POST".into(),
            target: "/v1/analyze".into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        let t = ServerTelemetry::new(IoModel::Threads, None);
        let start = std::time::Instant::now();
        let resp = api().handle(&req, &ctx(&t));
        let took = start.elapsed();
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("malformed wire payload"), "{text}");
        assert!(took <= std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn analyze_rejects_bad_payloads_cleanly() {
        let api = api();
        let t = ServerTelemetry::new(IoModel::Threads, None);
        for (body, want) in [
            (&b"\xff\xfe"[..], "not valid UTF-8"),
            (b"{", "malformed JSON"),
            (b"{\"machine\": \"gtx285\"}", "missing"),
            (b"{\"kernel\": {\"case\": \"matmul\", \"n\": 64, \"tile\": 16}, \"machine\": \"gtx285\"}",
             "no calibrated machine"),
        ] {
            let req = Request {
                method: "POST".into(),
                target: "/v1/analyze".into(),
                headers: Vec::new(),
                body: body.to_vec(),
            };
            let resp = api.handle(&req, &ctx(&t));
            assert_eq!(resp.status, 400, "{want}");
            let text = String::from_utf8(resp.body).unwrap();
            assert!(text.contains(want), "`{text}` missing `{want}`");
        }
    }
}
