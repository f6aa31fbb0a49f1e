//! End-to-end acceptance: the real `gpa-serve` binary, driven over
//! loopback with the built-in client, answers the checked-in sample
//! request with report JSON **byte-identical** to the in-process wire
//! serialization — which `crates/service/tests/cli_roundtrip.rs`
//! separately proves byte-identical to `gpa-analyze` output, so server
//! and CLI answers are interchangeable. Concurrent clients get the same
//! bytes as sequential in-process calls.

use gpa_hw::Machine;
use gpa_json::Value;
use gpa_server::api::AnalyzeApi;
use gpa_server::client::Client;
use gpa_server::server::{Server, ServerConfig};
use gpa_service::{AnalysisRequest, Analyzer, KernelSpec, ReportCacheConfig};
use gpa_ubench::MeasureOpts;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

fn sample_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../service/data/sample_request.json")
}

fn sample_custom_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../service/data/sample_custom_kernel.json")
}

fn quick_analyzer() -> Analyzer {
    let mut analyzer = Analyzer::new();
    analyzer.calibrate(Machine::gtx285(), MeasureOpts::quick());
    analyzer
}

/// A running `gpa-serve` child whose process dies with the test.
struct ServeGuard {
    child: Child,
    addr: String,
}

impl ServeGuard {
    fn spawn(extra_args: &[&str]) -> ServeGuard {
        let cache_dir =
            std::env::temp_dir().join(format!("gpa-serve-e2e-cache-{}", std::process::id()));
        let mut child = Command::new(env!("CARGO_BIN_EXE_gpa-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--machines",
                "gtx285",
                "--effort",
                "quick",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn gpa-serve");
        // The first stdout line carries the ephemeral port.
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listen line");
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected startup line `{line}`"))
            .to_owned();
        ServeGuard { child, addr }
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn binary_answers_the_sample_request_byte_identically() {
    let server = ServeGuard::spawn(&[]);
    let client = server.client();

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let health_doc = Value::parse(health.body_str().unwrap()).unwrap();
    assert_eq!(health_doc.get("status").unwrap().as_str().unwrap(), "ok");
    assert_eq!(health_doc.get("machines").unwrap().as_u64().unwrap(), 1);

    let machines = client.get("/v1/machines").expect("machines");
    assert_eq!(machines.status, 200);
    let doc = Value::parse(machines.body_str().unwrap()).unwrap();
    let names = doc.get("machines").unwrap().as_array().unwrap();
    assert_eq!(names.len(), 1);
    assert_eq!(names[0].as_str().unwrap(), "GeForce GTX 285");

    // The acceptance bar: the HTTP answer to the checked-in sample
    // request is byte-identical to the in-process wire serialization
    // (and therefore, via cli_roundtrip.rs, to `gpa-analyze` stdout).
    let sample = std::fs::read_to_string(sample_path()).expect("sample request");
    let response = client.post_json("/v1/analyze", &sample).expect("analyze");
    assert_eq!(
        response.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&response.body)
    );
    assert_eq!(response.header("content-type"), Some("application/json"));
    let request = AnalysisRequest::from_json(&sample).expect("sample parses");
    let expected = quick_analyzer()
        .analyze(&request)
        .expect("in-process answer");
    assert_eq!(response.body_str().unwrap(), expected.to_json());

    let stats = client.get("/v1/stats").expect("stats");
    let doc = Value::parse(stats.body_str().unwrap()).unwrap();
    // healthz + machines + analyze answered 200 before this call.
    assert!(doc.get("served").unwrap().as_u64().unwrap() >= 3);
    assert_eq!(doc.get("errors").unwrap().as_u64().unwrap(), 0);
    assert_eq!(doc.get("rejected").unwrap().as_u64().unwrap(), 0);
    assert!(doc.get("workers").unwrap().as_u64().unwrap() >= 1);

    // A request wanting finer calibration than the server holds is
    // refused, never silently answered from the quick-effort curves.
    let mut paper = request.clone();
    paper.options.calibration = gpa_service::Effort::Paper;
    let refused = client
        .post_json("/v1/analyze", &paper.to_json())
        .expect("refusal roundtrip");
    assert_eq!(refused.status, 400);
    assert!(
        refused.body_str().unwrap().contains("calibrated at Quick"),
        "{}",
        refused.body_str().unwrap()
    );
}

#[test]
fn binary_serves_custom_kernels_byte_identically() {
    let server = ServeGuard::spawn(&[]);
    let client = server.client();

    // A kernel the server was never hand-wired for: the checked-in saxpy
    // sample rides the portable kernel encoding, and the HTTP answer —
    // dynamic flops, traffic attribution, and the readback block
    // included — must be byte-identical to the in-process answer.
    let sample = std::fs::read_to_string(sample_custom_path()).expect("custom sample");
    let response = client.post_json("/v1/analyze", &sample).expect("analyze");
    assert_eq!(
        response.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&response.body)
    );
    let request = AnalysisRequest::from_json(&sample).expect("custom sample parses");
    assert!(matches!(request.kernel, KernelSpec::Custom(_)));
    let expected = quick_analyzer()
        .analyze(&request)
        .expect("in-process answer");
    assert!(expected.flops > 0);
    assert!(!expected.outputs.is_empty());
    assert_eq!(response.body_str().unwrap(), expected.to_json());

    // Batch sharding treats custom kernels like any other request:
    // custom + case study + a failing request mix in one array, with
    // answers in order.
    let case = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285");
    let bad = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "no-such-gpu");
    let batch =
        Value::Array(vec![request.to_value(), case.to_value(), bad.to_value()]).to_string_pretty();
    let response = client.post_json("/v1/analyze", &batch).expect("batch");
    assert_eq!(response.status, 200);
    let doc = Value::parse(response.body_str().unwrap()).unwrap();
    let items = doc.as_array().unwrap();
    assert_eq!(items.len(), 3);
    assert_eq!(items[0].to_string_pretty(), expected.to_json());
    assert!(items[1].get("analysis").is_ok(), "case study answered");
    assert!(items[2].get("error").is_ok(), "failure stays isolated");
}

#[test]
fn batch_arrays_mirror_gpa_analyze_output() {
    let server = ServeGuard::spawn(&[]);
    let client = server.client();

    let good = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285");
    let bad = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "no-such-gpu");
    let batch = Value::Array(vec![good.to_value(), bad.to_value()]).to_string_pretty();
    let response = client.post_json("/v1/analyze", &batch).expect("batch");
    // Per-request failures degrade to {"error"} elements, not a failed
    // transport status — exactly like gpa-analyze batch output.
    assert_eq!(response.status, 200);

    let analyzer = quick_analyzer();
    let expected = Value::Array(vec![
        analyzer.analyze(&good).unwrap().to_value(),
        Value::Object(vec![(
            "error".into(),
            Value::String(analyzer.analyze(&bad).unwrap_err().to_string()),
        )]),
    ])
    .to_string_pretty();
    assert_eq!(response.body_str().unwrap(), expected);
}

#[test]
fn report_cache_serves_repeat_traffic_byte_identically() {
    // The real binary with its default configuration: the report cache
    // is on, so the second posting of the same request is a hit — and
    // the hit must be byte-identical to the miss.
    let server = ServeGuard::spawn(&[]);
    let client = server.client();
    // Not the checked-in sample: that one asks for `verify`, which is
    // deliberately uncacheable. Plain requests are the cached shape.
    let body = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285").to_json();

    let first = client.post_json("/v1/analyze", &body).expect("first post");
    assert_eq!(
        first.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&first.body)
    );
    let second = client.post_json("/v1/analyze", &body).expect("second post");
    assert_eq!(second.status, 200);
    assert_eq!(first.body_str().unwrap(), second.body_str().unwrap());

    let stats = client.get("/v1/stats").expect("stats");
    let doc = Value::parse(stats.body_str().unwrap()).unwrap();
    let cache = doc.get("report_cache").expect("cache block present");
    assert!(
        cache.get("hits").unwrap().as_u64().unwrap() >= 1,
        "{}",
        stats.body_str().unwrap()
    );
    assert!(cache.get("entries").unwrap().as_u64().unwrap() >= 1);
}

#[test]
fn no_report_cache_flag_disables_the_cache() {
    let server = ServeGuard::spawn(&["--no-report-cache"]);
    let client = server.client();

    // Still a fully working server…
    let sample = std::fs::read_to_string(sample_path()).expect("sample request");
    let resp = client.post_json("/v1/analyze", &sample).expect("analyze");
    assert_eq!(resp.status, 200);

    // …but the stats document carries no cache block at all.
    let stats = client.get("/v1/stats").expect("stats");
    let doc = Value::parse(stats.body_str().unwrap()).unwrap();
    assert!(
        doc.get("report_cache").is_err(),
        "{}",
        stats.body_str().unwrap()
    );
}

#[test]
fn in_process_cache_counters_are_exact() {
    // An in-process server with a memory-only cache: no disk tier, no
    // sibling processes, so hit/miss/entry counts are exact.
    let mut analyzer = quick_analyzer();
    analyzer.enable_report_cache(ReportCacheConfig::default());
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(AnalyzeApi::new(Arc::new(analyzer))),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());

    let request = AnalysisRequest::new(KernelSpec::Matmul { n: 64, tile: 16 }, "gtx285");
    let first = client
        .post_json("/v1/analyze", &request.to_json())
        .expect("miss");
    let second = client
        .post_json("/v1/analyze", &request.to_json())
        .expect("hit");
    assert_eq!(first.status, 200);
    assert_eq!(first.body_str().unwrap(), second.body_str().unwrap());

    let stats = client.get("/v1/stats").expect("stats");
    let doc = Value::parse(stats.body_str().unwrap()).unwrap();
    let cache = doc.get("report_cache").expect("cache block present");
    assert_eq!(cache.get("hits").unwrap().as_u64().unwrap(), 1);
    assert_eq!(cache.get("misses").unwrap().as_u64().unwrap(), 1);
    assert_eq!(cache.get("entries").unwrap().as_u64().unwrap(), 1);
    assert!(cache.get("bytes").unwrap().as_u64().unwrap() > 0);

    server.shutdown();
}

#[test]
fn concurrent_clients_get_sequential_answers() {
    // In-process server so the test owns the calibration (and the
    // comparison analyzer shares it bit-exactly by construction).
    let analyzer = Arc::new(quick_analyzer());
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(AnalyzeApi::new(Arc::clone(&analyzer))),
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // Distinct problem sizes so answers cannot be confused across
    // threads; each thread hammers its own request a few times.
    let specs = [
        KernelSpec::Matmul { n: 64, tile: 16 },
        KernelSpec::Matmul { n: 128, tile: 16 },
        KernelSpec::Matmul { n: 64, tile: 8 },
        KernelSpec::Matmul { n: 128, tile: 32 },
        KernelSpec::Matmul { n: 256, tile: 16 },
        KernelSpec::Matmul { n: 192, tile: 16 },
        KernelSpec::Matmul { n: 64, tile: 32 },
        KernelSpec::Matmul { n: 128, tile: 8 },
    ];
    let num_specs = specs.len() as u64;
    std::thread::scope(|scope| {
        for spec in specs {
            let addr = addr.clone();
            let analyzer = Arc::clone(&analyzer);
            scope.spawn(move || {
                let request = AnalysisRequest::new(spec, "gtx285");
                let expected = analyzer.analyze(&request).expect("in-process").to_json();
                let client = Client::new(addr);
                for _ in 0..3 {
                    let response = client
                        .post_json("/v1/analyze", &request.to_json())
                        .expect("roundtrip");
                    assert_eq!(response.status, 200, "{:?}", request.kernel);
                    assert_eq!(
                        response.body_str().unwrap(),
                        expected,
                        "{:?}",
                        request.kernel
                    );
                }
            });
        }
    });

    let stats = server.shutdown();
    assert_eq!(stats.served, num_specs * 3);
    assert_eq!(stats.errors, 0);
}
