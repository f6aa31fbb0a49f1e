//! Protocol-level behavior of the connection engine, tested against
//! small deterministic handlers: malformed requests, oversized bodies,
//! unknown paths, wrong methods, queue-full 503s, and graceful-shutdown
//! draining. No analysis work happens here — the analyzer-specific
//! behavior is covered by `e2e.rs`.

use gpa_json::Value;
use gpa_server::api::AnalyzeApi;
use gpa_server::client::Client;
use gpa_server::http::{Request, Response};
use gpa_server::server::{RequestContext, Server, ServerConfig};
use gpa_service::Analyzer;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// An API server over an uncalibrated analyzer (routing behavior only).
fn api_server(config: ServerConfig) -> Server {
    Server::start(
        "127.0.0.1:0",
        config,
        Arc::new(AnalyzeApi::new(Arc::new(Analyzer::new()))),
    )
    .expect("bind loopback")
}

/// Raw socket exchange: write `bytes`, read the full response text.
fn raw_roundtrip(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn malformed_and_oversized_requests_get_correct_statuses() {
    let server = api_server(ServerConfig {
        max_body_bytes: 1024,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Not HTTP at all → 400.
    let resp = raw_roundtrip(addr, b"NOT-HTTP\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // Unsupported framing → 400.
    let resp = raw_roundtrip(
        addr,
        b"POST /v1/analyze HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");

    // A body over the ceiling → 413, even though the body was sent.
    let mut oversized = b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 2048\r\n\r\n".to_vec();
    oversized.extend(vec![b'x'; 2048]);
    let resp = raw_roundtrip(addr, &oversized);
    assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");
    assert!(resp.contains("exceeds the 1024-byte limit"), "{resp}");

    let client = Client::new(addr.to_string());
    // Unknown path → 404.
    assert_eq!(client.get("/v2/analyze").unwrap().status, 404);
    // Known path, wrong method → 405 with Allow.
    let resp = client.post_json("/healthz", "{}").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    let resp = client.get("/v1/analyze").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));

    let stats = server.shutdown();
    assert_eq!(stats.served, 0);
    assert_eq!(stats.errors, 6);
}

/// A trivial 200-everything handler for connection-behavior tests.
fn echo_handler() -> Arc<dyn gpa_server::server::Handler> {
    Arc::new(|req: &Request, _: &RequestContext| {
        Response::json(200, format!("{{\"path\": \"{}\"}}", req.target))
    })
}

#[test]
fn keep_alive_answers_many_requests_on_one_socket() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        echo_handler(),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());

    let mut conn = client.connect().expect("keep-alive connect");
    for i in 0..10 {
        let resp = conn.get(&format!("/req{i}")).expect("keep-alive roundtrip");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"), "req {i}");
        assert_eq!(
            resp.body_str().unwrap(),
            format!("{{\"path\": \"/req{i}\"}}")
        );
    }

    let stats = server.shutdown();
    assert_eq!((stats.served, stats.errors), (10, 0));
}

#[test]
fn keep_alive_request_cap_closes_the_connection() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            keep_alive_requests: 3,
            ..ServerConfig::default()
        },
        echo_handler(),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());

    let mut conn = client.connect().expect("keep-alive connect");
    for i in 0..2 {
        let resp = conn.get("/again").unwrap();
        assert_eq!(resp.header("connection"), Some("keep-alive"), "req {i}");
    }
    // The capped (3rd) response still succeeds but announces the close…
    let resp = conn.get("/last").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    // …and the socket is then really closed: the next roundtrip fails.
    assert!(conn.get("/dead").is_err());

    let stats = server.shutdown();
    assert_eq!((stats.served, stats.errors), (3, 0));
}

#[test]
fn keep_alive_idle_timeout_reclaims_the_worker() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            keep_alive_idle: Duration::from_millis(100),
            ..ServerConfig::default()
        },
        echo_handler(),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());

    let mut conn = client.connect().expect("keep-alive connect");
    assert_eq!(conn.get("/first").unwrap().status, 200);
    // Sit idle past the window; the server hangs up…
    std::thread::sleep(Duration::from_millis(400));
    assert!(conn.get("/tardy").is_err());
    // …and the (single) worker is free again for new connections.
    assert_eq!(client.get("/fresh").unwrap().status, 200);

    server.shutdown();
}

#[test]
fn parked_keep_alive_connections_show_in_the_gauges_then_drain() {
    // Two workers: one parks with the keep-alive client, one answers
    // the stats probes.
    let server = api_server(ServerConfig {
        workers: 2,
        keep_alive_idle: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let client = Client::new(server.local_addr().to_string());
    let mut parked = client.connect().expect("keep-alive connect");
    assert_eq!(parked.get("/healthz").unwrap().status, 200);

    // The worker marks the connection idle just after the response
    // leaves, so poll until /v1/stats sees it parked.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.get("/v1/stats").unwrap();
        let doc = Value::parse(stats.body_str().unwrap()).unwrap();
        let gauge = |key: &str| doc.get(key).unwrap().as_u64().unwrap();
        if gauge("idle_connections") >= 1 {
            assert!(gauge("open_connections") >= 1, "{doc:?}");
            break;
        }
        assert!(Instant::now() < deadline, "never parked: {doc:?}");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Past keep_alive_idle the worker hangs up and both gauges drain.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if (stats.open_connections, stats.idle_connections) == (0, 0) {
            break;
        }
        assert!(Instant::now() < deadline, "gauges never drained: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(parked.get("/healthz").is_err(), "the server hung up");

    server.shutdown();
}

#[test]
fn errors_close_even_under_keep_alive() {
    let server = api_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    // Two well-formed keep-alive requests to an unknown path on one
    // socket: the 404 must carry Connection: close, and everything after
    // the first request must go unanswered (read_to_string sees exactly
    // one response before EOF).
    let two = b"GET /nope HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
                GET /nope HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
    let resp = raw_roundtrip(addr, two);
    assert!(resp.starts_with("HTTP/1.1 404 "), "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");
    assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");

    // Clients that do not opt in keep the one-request contract even on a
    // healthy exchange.
    let plain = b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
    let resp = raw_roundtrip(addr, plain);
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");
    assert_eq!(resp.matches("HTTP/1.1").count(), 1, "{resp}");

    server.shutdown();
}

#[test]
fn connection_token_lists_negotiate_keep_alive() {
    // RFC 7230 §6.1: Connection carries a comma-separated token list.
    // `keep-alive, TE` opts in; a `close` token anywhere is
    // authoritative no matter what else rides along.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            keep_alive_idle: Duration::from_millis(100),
            ..ServerConfig::default()
        },
        echo_handler(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Two pipelined requests whose Connection header lists extra
    // tokens: both must be answered on the one socket, the first with
    // an explicit keep-alive acknowledgement.
    let two = b"GET /a HTTP/1.1\r\nConnection: keep-alive, TE\r\n\r\n\
                GET /b HTTP/1.1\r\nConnection: Keep-Alive , trailers\r\n\r\n";
    let resp = raw_roundtrip(addr, two);
    assert_eq!(resp.matches("HTTP/1.1 200").count(), 2, "{resp}");
    assert!(resp.contains("Connection: keep-alive"), "{resp}");

    // `close` wins even when keep-alive is also present: exactly one
    // answer, marked close, then EOF.
    let mixed = b"GET /a HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n\
                  GET /b HTTP/1.1\r\n\r\n";
    let resp = raw_roundtrip(addr, mixed);
    assert_eq!(resp.matches("HTTP/1.1 200").count(), 1, "{resp}");
    assert!(resp.contains("Connection: close"), "{resp}");

    let stats = server.shutdown();
    assert_eq!((stats.served, stats.errors), (3, 0));
}

#[test]
fn stalled_request_heads_get_408_and_idle_sockets_do_not() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            read_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
        echo_handler(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // A connection that sends part of a request head and stalls: the
    // server owes the client a diagnosis, not a silent hangup.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /x HT").expect("partial head");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    assert!(response.contains("timed out"), "{response}");
    drop(stream);

    // A connection that sends *nothing* is just a speculative socket
    // (browser preconnect, health probe): closed silently, not counted.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut nothing = String::new();
    idle.read_to_string(&mut nothing).expect("read EOF");
    assert_eq!(nothing, "", "idle close must carry no bytes");

    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1, "only the mid-head stall counts");
    assert_eq!(stats.served, 0);
}

#[test]
fn handler_panics_become_500s_and_the_worker_survives() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        Arc::new(|req: &Request, _: &RequestContext| {
            if req.target == "/boom" {
                panic!("handler exploded");
            }
            Response::json(200, "{}")
        }),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());

    assert_eq!(client.get("/boom").unwrap().status, 500);
    // The single worker must still be alive to answer this.
    assert_eq!(client.get("/fine").unwrap().status, 200);
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.errors), (1, 1));
}

/// A handler whose requests block until the test opens the gate —
/// making "worker busy" and "queue occupied" deterministic states.
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            opened: Condvar::new(),
            entered: AtomicUsize::new(0),
        })
    }

    fn handler(self: &Arc<Gate>) -> Arc<dyn gpa_server::server::Handler> {
        let gate = Arc::clone(self);
        Arc::new(move |_: &Request, _: &RequestContext| {
            gate.entered.fetch_add(1, Ordering::SeqCst);
            let mut open = gate.open.lock().unwrap();
            while !*open {
                open = gate.opened.wait(open).unwrap();
            }
            Response::json(200, "{\"done\": true}")
        })
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    /// Spin until `n` requests have entered the handler.
    fn await_entered(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.entered.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "handler never entered");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Spin until the queue holds exactly `n` connections.
fn await_queue_depth(server: &Server, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().queue_depth != n {
        assert!(
            Instant::now() < deadline,
            "queue never reached depth {n}: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn queue_full_rejects_with_503_and_overload_is_counted() {
    let gate = Gate::new();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
        gate.handler(),
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    std::thread::scope(|scope| {
        // A: occupies the single worker (blocked inside the handler).
        let a = {
            let addr = addr.clone();
            scope.spawn(move || Client::new(addr).get("/a").unwrap().status)
        };
        gate.await_entered(1);

        // B: occupies the single queue slot.
        let b = {
            let addr = addr.clone();
            scope.spawn(move || Client::new(addr).get("/b").unwrap().status)
        };
        await_queue_depth(&server, 1);

        // C: over quota → an immediate 503, no queueing, no handler work.
        let c = Client::new(addr.clone()).get("/c").unwrap();
        assert_eq!(c.status, 503);
        let doc = Value::parse(c.body_str().unwrap()).unwrap();
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("capacity"));

        // The flood is over: let A and B complete normally.
        gate.release();
        assert_eq!(a.join().unwrap(), 200);
        assert_eq!(b.join().unwrap(), 200);
    });
    assert_eq!(
        gate.entered.load(Ordering::SeqCst),
        2,
        "only A and B may reach the handler"
    );

    let stats = server.shutdown();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.errors, 0);
}

#[test]
fn malformed_custom_kernels_are_http_400s_never_500s() {
    use gpa_hw::Machine;
    use gpa_ubench::ThroughputCurves;

    // Synthetic curves suffice: every request below fails validation
    // before the model would consult them.
    let curves = ThroughputCurves {
        machine_name: "GeForce GTX 285".into(),
        warps: vec![1, 32],
        instr: std::array::from_fn(|_| vec![1e9, 1e10]),
        smem: vec![1e10, 1e11],
    };
    let mut analyzer = Analyzer::new();
    analyzer.install(Machine::gtx285(), curves).unwrap();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            ..ServerConfig::default()
        },
        Arc::new(AnalyzeApi::new(Arc::new(analyzer))),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());

    let wrap = |kernel: &str| format!(r#"{{"kernel": {kernel}, "machine": "gtx285"}}"#);
    for (body, want) in [
        // Unknown mnemonic: an AsmError with its source line, not a panic.
        (
            wrap(
                r#"{"case": "custom",
                    "asm": ".kernel x\n.threads 32\n    warp.drive r0\n    exit\n",
                    "launch": {"grid": 1, "block": 32}}"#,
            ),
            "warp.drive",
        ),
        // Branch-target overflow caught by the hardened parser.
        (
            wrap(
                r#"{"case": "custom",
                    "asm": ".kernel x\n.threads 32\n    bra 4294967296\n    exit\n",
                    "launch": {"grid": 1, "block": 32}}"#,
            ),
            "out of range",
        ),
        // Oversized memory region: rejected before any allocation.
        (
            wrap(
                r#"{"case": "custom", "asm": "    exit\n",
                    "launch": {"grid": 1, "block": 32},
                    "memory": [{"name": "m", "len": 1099511627776,
                                "init": {"kind": "zero"}}]}"#,
            ),
            "limit",
        ),
        // Parameter/register mismatch: ld.param past the declared block.
        (
            wrap(
                r#"{"case": "custom",
                    "asm": ".kernel x\n.threads 32\n.param 4\n    ld.param.b32 r0, c[0x8]\n    exit\n",
                    "launch": {"grid": 1, "block": 32}, "params": [0]}"#,
            ),
            "param",
        ),
        // Wire-level garbage in the memory image.
        (
            wrap(
                r#"{"case": "custom", "asm": "    exit\n",
                    "launch": {"grid": 1, "block": 32},
                    "memory": [{"name": "m", "len": 64, "init": {"kind": "entropy"}}]}"#,
            ),
            "entropy",
        ),
    ] {
        let resp = client.post_json("/v1/analyze", &body).unwrap();
        // 400 (typed error), never 500 (which would mean catch_unwind
        // swallowed a panic).
        assert_eq!(resp.status, 400, "{want}: {}", resp.body_str().unwrap());
        assert!(
            resp.body_str().unwrap().contains(want),
            "`{}` does not mention `{want}`",
            resp.body_str().unwrap()
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.served, 0);
}

#[test]
fn graceful_shutdown_drains_queued_work() {
    let gate = Gate::new();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            ..ServerConfig::default()
        },
        gate.handler(),
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    std::thread::scope(|scope| {
        // A in-flight, B queued.
        let a = {
            let addr = addr.clone();
            scope.spawn(move || Client::new(addr).get("/a").unwrap().status)
        };
        gate.await_entered(1);
        let b = {
            let addr = addr.clone();
            scope.spawn(move || Client::new(addr).get("/b").unwrap().status)
        };
        await_queue_depth(&server, 1);

        // Open the gate a beat after shutdown starts, so the drain
        // provably begins while work is still queued and in flight.
        let release = {
            let gate = Arc::clone(&gate);
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                gate.release();
            })
        };
        let stats = server.shutdown();
        release.join().unwrap();

        // Both the in-flight and the queued request got real answers.
        assert_eq!(a.join().unwrap(), 200);
        assert_eq!(b.join().unwrap(), 200);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.queue_depth, 0);
    });
}

#[test]
fn every_handled_response_carries_a_unique_request_id() {
    let server = api_server(ServerConfig {
        ..ServerConfig::default()
    });
    let client = Client::new(server.local_addr().to_string());

    let mut ids = std::collections::HashSet::new();
    for i in 0..5 {
        let resp = client.get("/healthz").unwrap();
        let id = resp
            .header("x-request-id")
            .expect("X-Request-Id on every handled response")
            .to_string();
        assert!(!id.is_empty());
        assert!(ids.insert(id), "req {i}: request ids must be unique");
    }

    // Server-Timing is opt-in: absent by default, present (with the
    // server phases) when the request carries x-gpa-server-timing.
    let plain = client.get("/healthz").unwrap();
    assert_eq!(plain.header("server-timing"), None);
    let resp = raw_roundtrip(
        server.local_addr(),
        b"GET /healthz HTTP/1.1\r\nx-gpa-server-timing: 1\r\n\r\n",
    );
    assert!(resp.contains("X-Request-Id: "), "{resp}");
    assert!(resp.contains("Server-Timing: "), "{resp}");
    assert!(resp.contains("handle;dur="), "{resp}");

    server.shutdown();
}

#[test]
fn metrics_exposition_balances_its_books() {
    let server = api_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let client = Client::new(server.local_addr().to_string());
    for _ in 0..3 {
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }
    assert_eq!(client.get("/nope").unwrap().status, 404); // error path too

    // finish_request lands a hair after the response bytes reach the
    // client (and each scrape counts itself once finished), so poll
    // until a scrape shows the books balanced: at least the 4
    // requests above, with the histogram agreeing with the counter.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = client
            .get("/v1/metrics")
            .unwrap()
            .body_str()
            .unwrap()
            .to_string();
        let value = |prefix: &str| -> Option<u64> {
            text.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
        };
        let requests = value("gpa_requests_total ").unwrap_or(0);
        if requests >= 4
            && value("gpa_request_duration_us_count ") == Some(requests)
            && value("gpa_request_duration_us_bucket{le=\"+Inf\"} ") == Some(requests)
        {
            break;
        }
        assert!(Instant::now() < deadline, "books never balanced:\n{text}");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn slow_requests_warn_with_a_phase_breakdown_that_adds_up() {
    // The WARN promotion and span accounting live in finish_request.
    let capture = Arc::new(Mutex::new(Vec::new()));
    gpa_telemetry::log::set_capture(Some(Arc::clone(&capture)));
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            slow_request_ms: Some(10),
            ..ServerConfig::default()
        },
        Arc::new(|_: &Request, _: &RequestContext| {
            std::thread::sleep(Duration::from_millis(30));
            Response::json(200, "{}")
        }),
    )
    .expect("bind loopback");
    let client = Client::new(server.local_addr().to_string());
    let resp = client.get("/slow").unwrap();
    let id = resp.header("x-request-id").unwrap().to_string();
    // shutdown joins the workers, so the access line is captured by now.
    server.shutdown();
    gpa_telemetry::log::set_capture(None);

    let lines = capture.lock().unwrap();
    let needle = format!("id={id}");
    let line = lines
        .iter()
        .find(|l| l.contains(&needle))
        .unwrap_or_else(|| panic!("no access line for {id} in {lines:?}"));
    assert!(line.contains("WARN"), "{line}");
    assert!(line.contains("slow request"), "{line}");
    assert!(line.contains("status=200"), "{line}");
    let field = |key: &str| -> u64 {
        let prefix = format!("{key}=");
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(prefix.as_str()))
            .unwrap_or_else(|| panic!("missing {key} in {line}"))
            .parse()
            .unwrap()
    };
    let total = field("total_us");
    let sum = field("parse_us") + field("queue_us") + field("handle_us") + field("write_us");
    assert!(total >= 30_000, "slept 30ms but total_us={total}");
    // The acceptance bound: the four server phases account for the
    // request within 10% of wall clock.
    assert!(
        sum * 10 >= total * 9 && sum <= total + total / 10,
        "phases sum to {sum}us vs total {total}us: {line}"
    );
}
