//! The connection engine: a `TcpListener` acceptor, a bounded queue of
//! accepted connections, and a worker thread pool that parses, routes,
//! and answers them.
//!
//! Each accepted connection is handed to one worker thread, which
//! blocks on it until the connection closes. Open connections are
//! therefore bounded by `workers + queue_depth`; a parked keep-alive
//! client holds its worker for at most
//! [`ServerConfig::keep_alive_idle`].
//!
//! # Overload and shutdown semantics
//!
//! * The queue holds at most `queue_depth` connections beyond the ones
//!   workers are already serving. When it is full, the acceptor answers
//!   **503 Service Unavailable** immediately and hangs up — overload
//!   degrades predictably instead of piling latency onto every client.
//! * [`Server::shutdown`] is graceful: the listener stops accepting,
//!   queued connections are **drained** (every request already accepted
//!   gets a real answer), in-flight work finishes, and all threads are
//!   joined before the call returns.
//!
//! # Connection reuse
//!
//! Clients that send `Connection: keep-alive` get a persistent
//! connection: up to [`ServerConfig::keep_alive_requests`] requests are
//! answered back-to-back on one socket (each marked
//! `Connection: keep-alive` until the last), with
//! [`ServerConfig::keep_alive_idle`] bounding the silence between them
//! so a parked client frees its worker quickly. Errors — malformed
//! requests and 4xx/5xx answers — always close, and clients that don't
//! opt in keep the original one-request `Connection: close` behavior.

use crate::http::{self, HttpError, Request, Response};
use crate::telemetry::{RequestOutcome, ServerTelemetry};
use gpa_telemetry::{phase, trace, RequestTrace};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the pool is shaped. `Default` gives a small general-purpose
/// server: auto-sized workers, a 64-connection queue, 1 MiB bodies,
/// keep-alive capped at 64 requests per connection with a 5-second idle
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads (`0` = one per available CPU core).
    pub workers: usize,
    /// Connections held beyond the ones being served; the 503 threshold.
    pub queue_depth: usize,
    /// Request-body ceiling in bytes (the 413 threshold).
    pub max_body_bytes: usize,
    /// Most requests served per connection when the client asks for
    /// `Connection: keep-alive`; `1` disables keep-alive entirely. The
    /// cap bounds how long one client can monopolize a worker.
    pub keep_alive_requests: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the worker hangs up and returns to the queue.
    pub keep_alive_idle: Duration,
    /// How long a request (head or body) may stall mid-transfer before
    /// the worker gives up. A stall *after* request bytes started
    /// arriving is answered with a best-effort `408 Request Timeout`
    /// (and counted in [`StatsSnapshot::timeouts`]); a connection that
    /// never sent a byte is closed silently.
    pub read_timeout: Duration,
    /// Requests slower than this many milliseconds end-to-end are
    /// promoted from INFO to WARN in the access log, carrying their
    /// full per-phase span breakdown (`None` = never promote).
    pub slow_request_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_depth: 64,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            keep_alive_requests: 64,
            keep_alive_idle: Duration::from_secs(5),
            read_timeout: Duration::from_secs(30),
            slow_request_ms: None,
        }
    }
}

impl ServerConfig {
    fn worker_count(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// What the server has done so far; served by `GET /v1/stats` and
/// readable in-process via [`Server::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests answered with a 2xx status.
    pub served: u64,
    /// Requests answered with a 4xx/5xx status (excluding queue-full
    /// rejections, counted separately).
    pub errors: u64,
    /// Connections refused with 503 because the queue was full.
    pub rejected: u64,
    /// Requests that stalled mid-transfer past
    /// [`ServerConfig::read_timeout`] and were answered 408 (also
    /// counted in `errors`).
    pub timeouts: u64,
    /// Connections waiting for a worker right now.
    pub queue_depth: usize,
    /// Connections currently open, gauges not counters: accepted and
    /// not yet closed, whatever state they are in.
    pub open_connections: usize,
    /// The subset of open connections parked idle between keep-alive
    /// requests.
    pub idle_connections: usize,
    /// Worker threads serving requests.
    pub workers: usize,
}

/// Everything the serving engine hands a [`Handler`] beyond the request
/// itself: a stats snapshot taken just before dispatch, and the
/// server's [`ServerTelemetry`] (the `/v1/metrics` registry and
/// uptime).
pub struct RequestContext<'a> {
    /// Counters and gauges at dispatch time.
    pub stats: StatsSnapshot,
    /// The server's metrics registry and identity.
    pub telemetry: &'a ServerTelemetry,
}

/// A request handler. One instance is shared by every worker thread, so
/// implementations must be internally synchronized (the analyzer API is
/// read-only after calibration, which is why the whole server can share
/// one [`gpa_service::Analyzer`] behind an `Arc`).
pub trait Handler: Send + Sync + 'static {
    /// Answer one parsed request.
    fn handle(&self, req: &Request, ctx: &RequestContext<'_>) -> Response;
}

impl<F> Handler for F
where
    F: for<'a> Fn(&Request, &RequestContext<'a>) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: &Request, ctx: &RequestContext<'_>) -> Response {
        self(req, ctx)
    }
}

/// Counters plus the connection queue, shared by acceptor and workers.
pub(crate) struct Shared {
    queue: Mutex<QueueState>,
    ready: Condvar,
    served: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    /// Live 503-rejector threads (bounded by [`MAX_REJECTORS`]).
    rejectors: AtomicUsize,
    /// Set by [`Server::shutdown`]; checked by the acceptor between
    /// accepts and by workers between jobs.
    stopping: AtomicBool,
    /// Open-connection gauge: connections a worker holds.
    open_conns: AtomicUsize,
    /// Idle-parked-connection gauge (subset of `open_conns`).
    idle_conns: AtomicUsize,
    workers: usize,
    config: ServerConfig,
    /// Metrics registry + request finishing.
    telemetry: ServerTelemetry,
}

struct QueueState {
    /// Accepted connections with their enqueue instants (the `queue`
    /// phase of the first request on each).
    pending: VecDeque<(TcpStream, Instant)>,
    /// Mirrors `stopping` under the queue lock so workers can't miss the
    /// wake-up between their emptiness check and their `wait`.
    closed: bool,
}

impl Shared {
    pub(crate) fn new(workers: usize, config: ServerConfig) -> Shared {
        Shared {
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            rejectors: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            idle_conns: AtomicUsize::new(0),
            workers,
            config,
            telemetry: ServerTelemetry::new(config.slow_request_ms),
        }
    }

    /// The context handed to the handler for one dispatch.
    fn request_context(&self) -> RequestContext<'_> {
        RequestContext {
            stats: self.snapshot(),
            telemetry: &self.telemetry,
        }
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            queue_depth: self.queue.lock().expect("queue poisoned").pending.len(),
            open_connections: self.open_conns.load(Ordering::Relaxed),
            idle_connections: self.idle_conns.load(Ordering::Relaxed),
            workers: self.workers,
        }
    }

    fn count_response(&self, status: u16) {
        if status < 400 {
            self.served.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Decrements a gauge on drop, so connection counts survive every early
/// return (and handler panics).
struct GaugeGuard<'a>(&'a AtomicUsize);

impl<'a> GaugeGuard<'a> {
    fn acquire(gauge: &'a AtomicUsize) -> GaugeGuard<'a> {
        gauge.fetch_add(1, Ordering::Relaxed);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running HTTP server. Dropping it without calling
/// [`Server::shutdown`] detaches the threads (the process exit reaps
/// them); call `shutdown` for a drained, joined stop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and start the acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission).
    pub fn start(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        handler: Arc<dyn Handler>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = config.worker_count();
        let shared = Arc::new(Shared::new(workers, config));

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("gpa-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, handler.as_ref()))
                    .expect("spawn worker thread")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gpa-serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters and queue depth.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Stop accepting, drain every queued connection, finish in-flight
    /// requests, and join all threads. Consumes the server; the final
    /// counters come back so a caller can log them.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // `accept` has no cancellation in std; a throwaway connection to
        // ourselves unblocks it so it can observe `stopping`. A wildcard
        // bind address (0.0.0.0 / ::) is not connectable everywhere, so
        // aim the wake-up at the matching loopback instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        if let Ok(stream) = TcpStream::connect_timeout(&wake, Duration::from_secs(2)) {
            drop(stream);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            queue.closed = true;
            self.shared.ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.snapshot()
    }

    /// Block until the server is shut down from another thread (or
    /// forever in the `gpa-serve` binary, which runs until killed).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent failure (e.g. EMFILE) returns instantly;
                // back off instead of spinning a core until it clears.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            // The wake-up connection (or a client racing the shutdown):
            // stop accepting. Queued connections still get drained.
            return;
        }
        // A response goes out as one buffer, but one larger than a
        // segment leaves a partial last segment: without TCP_NODELAY,
        // Nagle holds it until the earlier segments are acked, and a
        // keep-alive peer's delayed ACK turns such an exchange into a
        // ~40 ms stall.
        let _ = stream.set_nodelay(true);
        let over_quota = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            if queue.pending.len() >= shared.config.queue_depth {
                Some(stream)
            } else {
                queue.pending.push_back((stream, Instant::now()));
                shared.ready.notify_one();
                None
            }
        };
        if let Some(stream) = over_quota {
            reject_overload(shared, stream);
        }
    }
}

/// Most concurrent rejector threads; above this a flood gets the cheap
/// best-effort 503 so rejection cost stays bounded.
const MAX_REJECTORS: usize = 64;

/// Decrements the rejector count when the thread finishes — or when the
/// closure is dropped unrun because spawning failed.
struct RejectorSlot(Arc<Shared>);

impl Drop for RejectorSlot {
    fn drop(&mut self) {
        self.0.rejectors.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Tell an over-quota client to back off with a 503. The well-mannered
/// path runs on a short-lived thread (so a slow client can't stall
/// accept) and drains the unread request before closing — closing with
/// unread data would RST the socket and risk destroying the 503 in
/// flight. Under a flood (rejector budget exhausted) or thread-spawn
/// failure, degrade to a best-effort inline write: bounded acceptor
/// work beats a guaranteed delivery.
fn reject_overload(shared: &Arc<Shared>, mut stream: TcpStream) {
    shared.rejected.fetch_add(1, Ordering::Relaxed);
    let resp = Response::error(503, "server is at capacity, retry later");
    if shared.rejectors.fetch_add(1, Ordering::SeqCst) >= MAX_REJECTORS {
        shared.rejectors.fetch_sub(1, Ordering::SeqCst);
        let _ = http::write_response(&mut stream, &resp);
        return;
    }
    let slot = RejectorSlot(Arc::clone(shared));
    let spawned = std::thread::Builder::new()
        .name("gpa-serve-reject".into())
        .spawn(move || {
            let _slot = slot; // freed when the thread (or unrun closure) drops
            if http::write_response(&mut stream, &resp).is_ok() {
                let _ = stream.shutdown(Shutdown::Write);
                drain(&mut stream);
            }
        });
    // On spawn failure the closure is dropped unrun: the slot frees
    // itself and the connection closes — the safe floor when the
    // process is out of threads.
    drop(spawned);
}

/// Read and discard until EOF, a 2-second stall, or a 256 KiB cap.
fn drain(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut sink = [0u8; 4096];
    let mut budget = 256 * 1024;
    while budget > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n.min(budget),
        }
    }
}

fn worker_loop(shared: &Shared, handler: &dyn Handler) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(stream) = queue.pending.pop_front() {
                    break Some(stream);
                }
                if queue.closed {
                    break None;
                }
                queue = shared.ready.wait(queue).expect("queue poisoned");
            }
        };
        let Some((stream, enqueued)) = stream else {
            return; // shutdown, queue fully drained
        };
        serve_connection(stream, shared, handler, enqueued.elapsed());
    }
}

/// Returns `true` when the client explicitly asked to keep the
/// connection open. Opt-in only: absent the header (HTTP/1.1's implicit
/// default included) the server keeps its original one-request
/// `Connection: close` contract, so pre-keep-alive clients observe no
/// change.
///
/// `Connection` is an RFC 7230 §6.1 *token list*: `keep-alive, TE` is
/// legal and still asks for keep-alive, so each header value is split
/// on commas and the trimmed tokens matched case-insensitively. A
/// `close` token anywhere (even `keep-alive, close`) is authoritative —
/// the client is withdrawing the offer, and honoring the stronger
/// disposition is always framing-safe.
fn wants_keep_alive(req: &Request) -> bool {
    let mut keep = false;
    for token in req
        .headers
        .iter()
        .filter(|(name, _)| name.eq_ignore_ascii_case("Connection"))
        .flat_map(|(_, value)| value.split(','))
        .map(str::trim)
    {
        if token.eq_ignore_ascii_case("close") {
            return false;
        }
        keep |= token.eq_ignore_ascii_case("keep-alive");
    }
    keep
}

/// A [`TcpStream`] that counts the bytes read off the wire, so the
/// timeout path can distinguish "client never sent anything" (a silent
/// close is fine) from "client stalled mid-request" (worth a 408).
struct MeteredStream {
    inner: TcpStream,
    bytes_read: u64,
}

impl Read for MeteredStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes_read += n as u64;
        Ok(n)
    }
}

impl std::io::Write for MeteredStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Bytes `reader` has handed to consumers so far: everything metered
/// off the socket minus what still sits unread in the buffer.
fn consumed(reader: &BufReader<MeteredStream>) -> u64 {
    reader.get_ref().bytes_read - reader.buffer().len() as u64
}

/// Whole microseconds of a duration, saturating (traces carry `u64` µs).
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Answer a request that could not be read (a parse error, a
/// mid-transfer stall) with `resp` and close the connection. The request
/// may have unread bytes (an oversized body we refused to read, trailing
/// garbage, the rest of a stalled upload), so half-close and drain before
/// closing: otherwise the error response may not survive the trip.
fn refuse(shared: &Shared, mut stream: TcpStream, resp: &Response, wait: Duration, start: Instant) {
    shared.count_response(resp.status);
    if http::write_response(&mut stream, resp).is_ok() {
        shared.telemetry.finish_request(&RequestOutcome {
            trace: None,
            method: "-",
            target: "-",
            status: resp.status,
            bytes: resp.body.len(),
            total: wait + start.elapsed(),
        });
        let _ = stream.shutdown(Shutdown::Write);
        drain(&mut stream);
    }
}

/// Serve one connection: parse requests, answer them, and honor
/// `Connection: keep-alive` up to the configured per-connection request
/// cap and idle timeout. Any error — malformed request, oversized body,
/// or a handler answer of 4xx/5xx — closes the connection
/// (`Connection: close`), so a confused peer can never wedge the framing.
///
/// Every request gets a [`RequestTrace`]: `parse` covers reading the
/// head and body off the socket (including waiting for the first
/// byte), `queue` is the connection's wait for this worker (first
/// request only — follow-ups on a kept-alive connection never queue),
/// `handle` wraps the handler (whose own spans nest inside via the
/// thread-local trace), and `write` covers response serialization.
fn serve_connection(
    stream: TcpStream,
    shared: &Shared,
    handler: &dyn Handler,
    queue_wait: Duration,
) {
    let _open = GaugeGuard::acquire(&shared.open_conns);
    // A silent client must not wedge a worker forever.
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let mut reader = BufReader::new(MeteredStream {
        inner: stream,
        bytes_read: 0,
    });
    let cap = shared.config.keep_alive_requests.max(1);
    let mut queue_wait = Some(queue_wait);
    for served in 1..=cap {
        let consumed_before = consumed(&reader);
        let req_start = Instant::now();
        match http::read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(req) => {
                let mut req_trace = RequestTrace::new();
                req_trace.record(phase::PARSE, micros(req_start.elapsed()));
                let wait = queue_wait.take().unwrap_or(Duration::ZERO);
                req_trace.record(phase::QUEUE, micros(wait));
                let _ = trace::install(req_trace);
                let span = trace::PhaseSpan::start(phase::HANDLE);
                // A handler panic answers 500 and keeps the worker alive.
                let mut resp = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    handler.handle(&req, &shared.request_context())
                }))
                .unwrap_or_else(|_| Response::error(500, "internal server error"));
                drop(span);
                let mut req_trace = trace::take().expect("trace installed above");
                resp = resp.with_header("X-Request-Id", req_trace.id());
                if req.header("x-gpa-server-timing").is_some() {
                    resp = resp.with_header("Server-Timing", &req_trace.server_timing());
                }
                shared.count_response(resp.status);
                let client_keep = wants_keep_alive(&req);
                let keep = client_keep && served < cap && resp.status < 400;
                let write_start = Instant::now();
                if http::write_response_with(reader.get_mut(), &resp, keep).is_err() {
                    return;
                }
                req_trace.record(phase::WRITE, micros(write_start.elapsed()));
                shared.telemetry.finish_request(&RequestOutcome {
                    trace: Some(&req_trace),
                    method: &req.method,
                    target: &req.target,
                    status: resp.status,
                    bytes: resp.body.len(),
                    total: wait + req_start.elapsed(),
                });
                if !keep {
                    if client_keep {
                        // The client asked for keep-alive and may have
                        // pipelined a follow-up we refused (cap reached,
                        // error status): closing with those bytes unread
                        // would RST the socket and could destroy this
                        // response in flight — drain first, exactly like
                        // `refuse` does.
                        let mut stream = reader.into_inner().inner;
                        let _ = stream.shutdown(Shutdown::Write);
                        drain(&mut stream);
                    }
                    // Otherwise the one request was fully read, so
                    // closing now is a clean FIN.
                    return;
                }
                // Between keep-alive requests the shorter idle timeout
                // applies: a parked connection frees its worker quickly.
                // The wait happens in fill_buf so that once the next
                // request *starts* arriving, its head and body get the
                // full read-timeout budget again (a slow uplink is not
                // "idle").
                let _ = reader
                    .get_ref()
                    .inner
                    .set_read_timeout(Some(shared.config.keep_alive_idle));
                let idle = GaugeGuard::acquire(&shared.idle_conns);
                match reader.fill_buf() {
                    Ok([]) | Err(_) => return, // clean close or idle timeout
                    Ok(_) => {
                        drop(idle);
                        let _ = reader
                            .get_ref()
                            .inner
                            .set_read_timeout(Some(shared.config.read_timeout));
                    }
                }
            }
            Err(HttpError::Closed) => {
                // Clean pre-request hang-up: nothing to answer.
                return;
            }
            Err(HttpError::Io(e)) => {
                // A read timeout *after* request bytes started arriving
                // is a mid-transfer stall: tell the client before
                // closing (best-effort — it may be gone) and count it.
                // Anything else — a dead socket, a reset, or a timeout
                // with zero bytes (a parked keep-alive connection) —
                // stays a silent close.
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                if timed_out && consumed(&reader) > consumed_before {
                    shared.timeouts.fetch_add(1, Ordering::Relaxed);
                    refuse(
                        shared,
                        reader.into_inner().inner,
                        &Response::error(408, "timed out waiting for the rest of the request"),
                        queue_wait.take().unwrap_or(Duration::ZERO),
                        req_start,
                    );
                }
                return;
            }
            Err(e) => {
                refuse(
                    shared,
                    reader.into_inner().inner,
                    &Response::error(e.status(), &e.message()),
                    queue_wait.take().unwrap_or(Duration::ZERO),
                    req_start,
                );
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_resolves_auto() {
        let auto = ServerConfig::default();
        assert!(auto.worker_count() >= 1);
        let fixed = ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        };
        assert_eq!(fixed.worker_count(), 3);
    }

    #[test]
    fn keep_alive_negotiation_parses_token_lists() {
        let req = |connection: &[&str]| Request {
            method: "GET".into(),
            target: "/healthz".into(),
            headers: connection
                .iter()
                .map(|v| ("Connection".to_owned(), (*v).to_owned()))
                .collect(),
            body: Vec::new(),
        };
        // Plain spellings, any case.
        assert!(wants_keep_alive(&req(&["keep-alive"])));
        assert!(wants_keep_alive(&req(&["Keep-Alive"])));
        assert!(!wants_keep_alive(&req(&["close"])));
        assert!(!wants_keep_alive(&req(&[])));
        // RFC 7230 token lists: the other tokens must not mask the ask.
        assert!(wants_keep_alive(&req(&["keep-alive, TE"])));
        assert!(wants_keep_alive(&req(&["TE , Keep-Alive"])));
        assert!(!wants_keep_alive(&req(&["TE"])));
        // A close token is authoritative wherever it appears.
        assert!(!wants_keep_alive(&req(&["keep-alive, close"])));
        assert!(!wants_keep_alive(&req(&["close, keep-alive"])));
        // Repeated Connection headers are one combined list.
        assert!(wants_keep_alive(&req(&["TE", "keep-alive"])));
        assert!(!wants_keep_alive(&req(&["keep-alive", "close"])));
    }

    #[test]
    fn stats_classify_statuses() {
        let shared = Shared::new(2, ServerConfig::default());
        shared.count_response(200);
        shared.count_response(404);
        shared.count_response(500);
        let snap = shared.snapshot();
        assert_eq!((snap.served, snap.errors, snap.rejected), (1, 2, 0));
        assert_eq!(snap.workers, 2);
    }

    #[test]
    fn gauges_balance_via_guards() {
        let shared = Shared::new(1, ServerConfig::default());
        {
            let _a = GaugeGuard::acquire(&shared.open_conns);
            let _b = GaugeGuard::acquire(&shared.open_conns);
            assert_eq!(shared.snapshot().open_connections, 2);
        }
        assert_eq!(shared.snapshot().open_connections, 0);
    }
}
