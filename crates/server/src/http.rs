//! A minimal HTTP/1.1 message layer over `std::io` streams.
//!
//! Exactly the subset the serving subsystem needs, implemented from
//! scratch (the build image has no crates.io access): request-line and
//! header parsing with hard size ceilings, `Content-Length`-framed
//! bodies, and a response writer that always emits `Content-Length` plus
//! an explicit `Connection:` disposition — `close` by default,
//! `keep-alive` via [`write_response_with`] for the server's persistent
//! connections (the framing makes back-to-back requests unambiguous).
//!
//! The parser is deliberately strict — anything outside the subset
//! (chunked transfer encoding, HTTP/2 preludes, missing versions) is a
//! clean [`HttpError::BadRequest`], never a panic or a mis-framed read.

use std::io::{self, BufRead, Read, Write};

/// Default ceiling on request bodies (1 MiB — a batch of thousands of
/// analysis requests fits in a few hundred KiB).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1 << 20;

/// Ceiling on the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Why a request could not be read. Each variant maps onto exactly one
/// response status ([`HttpError::status`]).
#[derive(Debug)]
pub enum HttpError {
    /// The connection closed before a single request byte arrived — a
    /// normal hang-up, not worth a response.
    Closed,
    /// The bytes are not a well-formed HTTP/1.x request (or use a
    /// feature outside the supported subset). Maps to 400.
    BadRequest(String),
    /// The declared body exceeds the configured ceiling. Maps to 413.
    PayloadTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured ceiling it exceeded.
        limit: usize,
    },
    /// The underlying socket failed (timeout, reset) mid-request.
    Io(io::Error),
}

impl HttpError {
    /// The response status this error maps to (`Closed` and `Io` get no
    /// response; by convention they report as 400 here).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::PayloadTooLarge { .. } => 413,
            _ => 400,
        }
    }

    /// Human-readable detail for the error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::Closed => "connection closed".into(),
            HttpError::BadRequest(m) => m.clone(),
            HttpError::PayloadTooLarge { declared, limit } => {
                format!("request body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => format!("i/o error: {e}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// One parsed request: method, target path, headers, and the complete
/// (`Content-Length`-framed) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (`/v1/analyze`).
    pub target: String,
    /// Header name/value pairs in arrival order, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`HttpError::BadRequest`] when the body is not valid UTF-8.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadRequest("request body is not valid UTF-8".into()))
    }
}

/// Read one CRLF- (or bare-LF-) terminated line, charging its bytes
/// against `budget`.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let mut take = reader.take(*budget as u64 + 1);
    let n = take.read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Ok(None); // EOF
    }
    if n > *budget {
        return Err(HttpError::BadRequest(format!(
            "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
        )));
    }
    *budget -= n;
    if raw.last() != Some(&b'\n') {
        return Err(HttpError::BadRequest("truncated header line".into()));
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| HttpError::BadRequest("header line is not valid UTF-8".into()))
}

/// Read and parse one request from `reader`, enforcing the
/// [`MAX_HEAD_BYTES`] head ceiling and the caller's body ceiling.
///
/// # Errors
///
/// [`HttpError::Closed`] on a clean pre-request hang-up, otherwise the
/// variant naming what was malformed or oversized.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = match read_line(reader, &mut budget)? {
        None => return Err(HttpError::Closed),
        Some(line) if line.is_empty() => {
            return Err(HttpError::BadRequest("empty request line".into()))
        }
        Some(line) => line,
    };

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version `{version}`"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget)? {
            None => return Err(HttpError::BadRequest("EOF inside request head".into())),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line `{line}`"
            )));
        };
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
    }

    let req = Request {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body: Vec::new(),
    };
    if req.header("Transfer-Encoding").is_some() {
        // Refusing is the only safe option: honoring Content-Length on a
        // chunked body would mis-frame the connection.
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported; send Content-Length".into(),
        ));
    }
    let body_len = match req.header("Content-Length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("unparseable Content-Length `{v}`")))?,
    };
    if body_len > max_body {
        return Err(HttpError::PayloadTooLarge {
            declared: body_len,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; body_len];
    reader.read_exact(&mut body)?;
    Ok(Request { body, ..req })
}

/// One response: status, content type, extra headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (`200`, `404`, …).
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Allow` on a 405).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error response: `{"error": <message>}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = gpa_json::Value::Object(vec![(
            "error".into(),
            gpa_json::Value::String(message.to_owned()),
        )])
        .to_string_pretty();
        Response::json(status, body)
    }

    /// The response with an extra header attached.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }
}

/// The reason phrase for the statuses this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `resp` onto `writer` (HTTP/1.1, explicit `Content-Length`,
/// `Connection: close`).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(writer: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_response_with(writer, resp, false)
}

/// [`write_response`] with an explicit connection disposition: the
/// response always carries `Content-Length` framing, so `keep_alive`
/// only switches the advertised `Connection:` header (the server's
/// keep-alive loop relies on this — see `gpa_server::server`). Head and
/// body go to `writer` as one buffer.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response_with(
    writer: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    writer.write_all(&out)?;
    writer.flush()
}

/// A [`BufRead`] over bytes already in memory. While `eof` is false,
/// running out of bytes raises [`io::ErrorKind::WouldBlock`] instead of
/// reporting end-of-stream, so [`read_request`] run over it either
/// finishes on the prefix exactly as it would on a socket, or surfaces
/// "need more bytes" as a distinguishable error.
struct PartialInput<'a> {
    data: &'a [u8],
    pos: usize,
    eof: bool,
}

impl Read for PartialInput<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(out.len());
        out[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PartialInput<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.data.len() && !self.eof {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "awaiting more request bytes",
            ));
        }
        Ok(&self.data[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Verdict of [`parse_buffered`] on the bytes at hand.
#[derive(Debug)]
pub enum ParseOutcome {
    /// A complete request, plus how many buffered bytes it consumed
    /// (trailing bytes belong to the next pipelined request).
    Request(Request, usize),
    /// The bytes are a prefix consistent with a request still in
    /// flight; more bytes are needed before there is a verdict.
    Incomplete,
    /// The bytes already doom the request — same error, at the same
    /// point, as [`read_request`] on a socket would report.
    Failed(HttpError),
}

/// Run the request parser over bytes already in memory. `eof` says no
/// more bytes will follow. Because [`read_request`] is deterministic on
/// the byte prefix it consumes, the verdict on any prefix is either
/// [`Incomplete`](ParseOutcome::Incomplete) or exactly what
/// [`read_request`] reports on the whole stream — including early 400s
/// on malformed lines that precede the end of the head.
pub fn parse_buffered(data: &[u8], eof: bool, max_body: usize) -> ParseOutcome {
    let mut input = PartialInput { data, pos: 0, eof };
    match read_request(&mut input, max_body) {
        Ok(req) => ParseOutcome::Request(req, input.pos),
        Err(HttpError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => ParseOutcome::Incomplete,
        Err(e) => ParseOutcome::Failed(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes), DEFAULT_MAX_BODY_BYTES)
    }

    /// A request at the body ceiling parses within a wall-clock budget
    /// generous for an unoptimized build: head and body are read in time
    /// linear in their size.
    #[test]
    fn a_maximum_size_body_parses_within_budget() {
        let body = format!(
            "{{\"machine\": \"{}\"}}",
            "x".repeat(DEFAULT_MAX_BODY_BYTES - 15)
        );
        assert_eq!(body.len(), DEFAULT_MAX_BODY_BYTES);
        let mut raw = format!(
            "POST /v1/analyze HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body.as_bytes());
        let start = std::time::Instant::now();
        let outcome = parse_buffered(&raw, false, DEFAULT_MAX_BODY_BYTES);
        let took = start.elapsed();
        match outcome {
            ParseOutcome::Request(req, used) => {
                assert_eq!(used, raw.len());
                assert_eq!(req.body, body.as_bytes());
            }
            other => panic!("expected a request, got {other:?}"),
        }
        assert!(took <= std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\n{\"a\"")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/analyze");
        assert_eq!(req.header("CONTENT-LENGTH"), Some("4"));
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_a_bare_lf_get() {
        let req = parse(b"GET /healthz HTTP/1.0\n\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_heads() {
        for bytes in [
            &b"NOT-HTTP\r\n\r\n"[..],
            b"GET /healthz HTTP/2\r\n\r\n",
            b"GET nothing-absolute HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: twelve\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"\r\n\r\n",
        ] {
            let err = parse(bytes).unwrap_err();
            assert!(
                matches!(err, HttpError::BadRequest(_)),
                "{bytes:?}: {err:?}"
            );
        }
    }

    #[test]
    fn clean_hangup_is_distinguished_from_garbage() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        let err = read_request(
            &mut BufReader::new(&b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n"[..]),
            64,
        )
        .unwrap_err();
        match err {
            HttpError::PayloadTooLarge { declared, limit } => {
                assert_eq!((declared, limit), (100, 64));
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
        assert_eq!(
            err_status_of(b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n", 64),
            413
        );
    }

    fn err_status_of(bytes: &[u8], max_body: usize) -> u16 {
        read_request(&mut BufReader::new(bytes), max_body)
            .unwrap_err()
            .status()
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let mut head = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..2000 {
            head.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
        }
        head.extend_from_slice(b"\r\n");
        assert_eq!(err_status_of(&head, DEFAULT_MAX_BODY_BYTES), 400);
    }

    #[test]
    fn responses_round_trip_the_writer() {
        let resp = Response::json(200, "{}").with_header("Allow", "GET");
        let mut out = Vec::new();
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Allow: GET\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// At every prefix length, the incremental parser must either say
    /// `Incomplete` or agree exactly with the blocking parser on the
    /// full input — same request or same error variant and message.
    fn assert_incremental_matches_blocking(bytes: &[u8], max_body: usize) {
        let blocking = read_request(&mut BufReader::new(bytes), max_body);
        let mut settled = None;
        for cut in 0..=bytes.len() {
            match parse_buffered(&bytes[..cut], false, max_body) {
                ParseOutcome::Incomplete => {
                    assert!(settled.is_none(), "verdict regressed at cut {cut}");
                }
                outcome => {
                    settled.get_or_insert(cut);
                    match (&outcome, &blocking) {
                        (ParseOutcome::Request(req, consumed), Ok(want)) => {
                            assert_eq!(req, want, "cut {cut}");
                            assert!(*consumed <= cut);
                        }
                        (ParseOutcome::Failed(got), Err(want)) => {
                            assert_eq!(got.status(), want.status(), "cut {cut}");
                            assert_eq!(got.message(), want.message(), "cut {cut}");
                        }
                        other => panic!("cut {cut}: mismatched verdicts {other:?}"),
                    }
                }
            }
        }
        // The full input with eof must settle to the blocking verdict
        // even if no prefix did (e.g. a head truncated mid-line).
        match (parse_buffered(bytes, true, max_body), blocking) {
            (ParseOutcome::Request(req, consumed), Ok(want)) => {
                assert_eq!(req, want);
                assert!(consumed <= bytes.len());
            }
            (ParseOutcome::Failed(got), Err(want)) => {
                assert_eq!(got.message(), want.message());
            }
            (got, want) => panic!("eof verdicts disagree: {got:?} vs {want:?}"),
        }
    }

    #[test]
    fn incremental_parse_matches_blocking_at_every_split() {
        let cases: &[&[u8]] = &[
            b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\n{\"a\"",
            b"GET /healthz HTTP/1.0\n\n",
            b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
            b"NOT-HTTP\r\n\r\n",
            b"GET /healthz HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: twelve\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"\r\n\r\n",
        ];
        for bytes in cases {
            assert_incremental_matches_blocking(bytes, DEFAULT_MAX_BODY_BYTES);
        }
        assert_incremental_matches_blocking(b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n", 64);
    }

    #[test]
    fn incremental_parse_handles_eof_and_pipelining() {
        // Clean pre-request hangup: no bytes, peer closed.
        assert!(matches!(
            parse_buffered(b"", true, DEFAULT_MAX_BODY_BYTES),
            ParseOutcome::Failed(HttpError::Closed)
        ));
        // No bytes, peer still connected: keep waiting.
        assert!(matches!(
            parse_buffered(b"", false, DEFAULT_MAX_BODY_BYTES),
            ParseOutcome::Incomplete
        ));
        // EOF mid-head surfaces the blocking parser's 400s.
        match parse_buffered(b"GET /x HTTP/1.1\r\nHost", true, DEFAULT_MAX_BODY_BYTES) {
            ParseOutcome::Failed(HttpError::BadRequest(m)) => {
                assert_eq!(m, "truncated header line");
            }
            other => panic!("expected truncated-line 400, got {other:?}"),
        }
        match parse_buffered(b"GET /x HTTP/1.1\r\n", true, DEFAULT_MAX_BODY_BYTES) {
            ParseOutcome::Failed(HttpError::BadRequest(m)) => {
                assert_eq!(m, "EOF inside request head");
            }
            other => panic!("expected EOF-in-head 400, got {other:?}"),
        }
        // A pipelined second request is left in the buffer.
        let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\n\r\n";
        match parse_buffered(two, false, DEFAULT_MAX_BODY_BYTES) {
            ParseOutcome::Request(req, consumed) => {
                assert_eq!(req.target, "/healthz");
                assert_eq!(&two[consumed..], b"GET /v1/stats HTTP/1.1\r\n\r\n");
            }
            other => panic!("expected first request, got {other:?}"),
        }
        // An oversized head is doomed as soon as the budget overflows,
        // even with the connection open and no newline in sight.
        let mut junk = b"GET /x HTTP/1.1\r\n".to_vec();
        junk.resize(MAX_HEAD_BYTES + 2, b'y');
        match parse_buffered(&junk, false, DEFAULT_MAX_BODY_BYTES) {
            ParseOutcome::Failed(e) => assert_eq!(e.status(), 400),
            other => panic!("expected head-budget 400, got {other:?}"),
        }
    }

    #[test]
    fn error_bodies_are_json() {
        let resp = Response::error(400, "nope");
        assert_eq!(resp.status, 400);
        let v = gpa_json::Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str().unwrap(), "nope");
    }
}
