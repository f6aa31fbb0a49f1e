//! Criterion benchmarks of the serving hot path: HTTP parsing in
//! isolation, full loopback round trips (connect → parse → dispatch →
//! serialize → close) against a running server, and dispatch latency
//! through a crowd of parked keep-alive connections under each I/O
//! model — the scenario the reactor engine exists for.
//!
//! As everywhere in the workspace, `GPA_BENCH_SAMPLES=<n>` overrides the
//! sample counts (CI smokes these with `GPA_BENCH_SAMPLES=1`).

use criterion::{criterion_group, criterion_main, Criterion};
use gpa_hw::Machine;
use gpa_server::api::AnalyzeApi;
use gpa_server::client::Client;
use gpa_server::http;
use gpa_server::server::{IoModel, Server, ServerConfig};
use gpa_service::wire::{self, Answer};
use gpa_service::{AnalysisRequest, Analyzer, KernelSpec, ReportCacheConfig};
use gpa_ubench::{MeasureOpts, ThroughputCurves};
use std::hint::black_box;
use std::io::BufReader;
use std::sync::Arc;

const ANALYZE_BODY: &str = r#"{
  "kernel": {"case": "matmul", "n": 64, "tile": 16},
  "machine": "gtx285"
}"#;

/// A workload-zoo request by name: the registry constructor plus the
/// atomic-unit accounting, the serving cost of `{"case": "named"}`.
const ZOO_BODY: &str = r#"{
  "kernel": {"case": "named", "name": "histogram", "n": 1024, "seed": 1},
  "machine": "gtx285"
}"#;

fn bench_http_parse(c: &mut Criterion) {
    let mut raw = format!(
        "POST /v1/analyze HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        ANALYZE_BODY.len()
    )
    .into_bytes();
    raw.extend_from_slice(ANALYZE_BODY.as_bytes());
    c.bench_function("serve/http_parse", |b| {
        b.iter(|| {
            http::read_request(
                &mut BufReader::new(black_box(&raw[..])),
                http::DEFAULT_MAX_BODY_BYTES,
            )
            .unwrap()
        })
    });
}

fn bench_loopback(c: &mut Criterion) {
    let mut analyzer = Analyzer::new();
    analyzer.calibrate(Machine::gtx285(), MeasureOpts::quick());
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(AnalyzeApi::new(Arc::new(analyzer))),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());

    // Parse + dispatch + serialize with no analysis work: the transport
    // floor a keep-alive or async implementation has to beat.
    c.bench_function("serve/healthz_roundtrip", |b| {
        b.iter(|| {
            let resp = client.get("/healthz").unwrap();
            assert_eq!(resp.status, 200);
            resp
        })
    });

    // The same probe over one persistent connection: what connection
    // reuse saves relative to connect-per-request above.
    c.bench_function("serve/healthz_keepalive_roundtrip", |b| {
        let mut conn = client.connect().expect("keep-alive connect");
        b.iter(|| {
            // The server closes after its per-connection request cap;
            // reconnect transparently so the bench measures steady-state
            // reuse, not the cap policy.
            let resp = match conn.get("/healthz") {
                Ok(resp) => resp,
                Err(_) => {
                    conn = client.connect().expect("keep-alive reconnect");
                    conn.get("/healthz").unwrap()
                }
            };
            assert_eq!(resp.status, 200);
            resp
        })
    });

    // The full serving path including one matmul analysis.
    c.bench_function("serve/analyze_roundtrip", |b| {
        b.iter(|| {
            let resp = client.post_json("/v1/analyze", ANALYZE_BODY).unwrap();
            assert_eq!(resp.status, 200);
            resp
        })
    });

    // A named zoo workload through the same path: the contended
    // histogram exercises the registry constructor, the shared-memory
    // atomic replay, and the atomic-unit component end to end.
    c.bench_function("zoo/analyze_histogram", |b| {
        b.iter(|| {
            let resp = client.post_json("/v1/analyze", ZOO_BODY).unwrap();
            assert_eq!(resp.status, 200);
            resp
        })
    });

    server.shutdown();
}

/// One keep-alive `healthz` round trip while 32 idle keep-alive
/// connections sit parked on the server, under each I/O model.
///
/// The two engines pay for the parked crowd in different currencies:
/// the threaded model must be provisioned with a worker **per parked
/// connection** (each one blocks a thread in `read`), so its server
/// gets `PARKED + 2` workers; the reactor holds them all in one poll
/// set and serves the probe with 2 workers. The tracked numbers keep
/// the *latency* of threading a request through the crowd comparable —
/// a reactor dispatch regression shows up as `idle_burst_reactor`
/// drifting away from `idle_burst_threads`.
fn bench_idle_burst(c: &mut Criterion) {
    const PARKED: usize = 32;
    let mut models = vec![("serve/idle_burst_threads", IoModel::Threads, PARKED + 2)];
    if cfg!(unix) {
        models.push(("serve/idle_burst_reactor", IoModel::Reactor, 2));
    }
    for (name, io, workers) in models {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                io_model: io,
                workers,
                // Far past the bench duration: the crowd stays parked.
                keep_alive_idle: std::time::Duration::from_secs(300),
                keep_alive_requests: usize::MAX,
                max_connections: 4096,
                ..ServerConfig::default()
            },
            Arc::new(AnalyzeApi::new(Arc::new(Analyzer::new()))),
        )
        .expect("bind loopback");
        let client = Client::new(server.local_addr().to_string());

        // Park the crowd: serve one request per connection, keep it open.
        let mut crowd = Vec::with_capacity(PARKED);
        for _ in 0..PARKED {
            let mut conn = client.connect().expect("park connect");
            assert_eq!(conn.get("/healthz").expect("park request").status, 200);
            crowd.push(conn);
        }

        let mut probe = client.connect().expect("probe connect");
        c.bench_function(name, |b| {
            b.iter(|| {
                let resp = probe.get("/healthz").unwrap();
                assert_eq!(resp.status, 200);
                resp
            })
        });

        // Close the crowd before shutdown so threaded workers parked in
        // blocking reads see EOF now rather than an idle timeout later.
        drop(probe);
        drop(crowd);
        server.shutdown();
    }
}

fn bench_report_cache(c: &mut Criterion) {
    // One measurement, two analyzers over identical curves: the first
    // simulates every request, the second answers from the report
    // cache. The gap between `cache/analyze_simulate` and
    // `cache/analyze_hit` is the tentpole claim — hits are expected to
    // run ≥100× faster than the simulation they memoize.
    let machine = Machine::gtx285();
    let curves = ThroughputCurves::measure_with(&machine, MeasureOpts::quick());
    let req = AnalysisRequest::new(KernelSpec::Matmul { n: 256, tile: 16 }, "gtx285");

    let mut uncached = Analyzer::new();
    uncached.install(machine.clone(), curves.clone()).unwrap();
    c.bench_function("cache/analyze_simulate", |b| {
        b.iter(|| uncached.analyze(black_box(&req)).unwrap())
    });

    // A hit as the wire answers it: the request document decoded, the
    // stored report JSON handed back without being decoded.
    let mut cached = Analyzer::new();
    cached.install(machine, curves).unwrap();
    cached.enable_report_cache(ReportCacheConfig::default());
    let body = req.to_json();
    let admit_all = |reqs: &mut [AnalysisRequest]| (&cached, reqs.iter().map(|_| Ok(())).collect());
    wire::answer(&body, admit_all); // warm: every timed iteration hits
    c.bench_function("cache/analyze_hit", |b| {
        b.iter(|| {
            let answer = wire::answer(black_box(&body), admit_all);
            assert!(matches!(answer, Answer::Report(_)));
            answer
        })
    });

    // The same hit through the full HTTP path: what repeat traffic
    // costs a served deployment.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(AnalyzeApi::new(Arc::new(cached))),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());
    c.bench_function("cache/hit_roundtrip", |b| {
        b.iter(|| {
            let resp = client.post_json("/v1/analyze", &body).unwrap();
            assert_eq!(resp.status, 200);
            resp
        })
    });
    server.shutdown();
}

criterion_group!(
    name = serving;
    config = Criterion::default().sample_size(10);
    targets = bench_http_parse, bench_loopback, bench_idle_burst, bench_report_cache
);
criterion_main!(serving);
