//! A minimal blocking HTTP/1.1 client — just enough to drive
//! `gpa-serve` from tests, CI, and the `gpa-http` binary without curl.
//!
//! [`Client`] opens one connection per request (matching the server's
//! default `Connection: close`); [`Client::connect`] returns a
//! [`Connection`] that pipelines sequential requests over one socket
//! with `Connection: keep-alive`. `Content-Length`-framed bodies on both
//! sides, and a read timeout so a dead server fails fast instead of
//! hanging a caller.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The complete body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body as UTF-8 (every `gpa-serve` body is JSON).
    ///
    /// # Errors
    ///
    /// `io::Error` when the body is not valid UTF-8.
    pub fn body_str(&self) -> io::Result<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not valid UTF-8"))
    }

    /// The first header with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Duration,
}

impl Client {
    /// A client for `addr` (`host:port`) with a 60-second read timeout
    /// (analysis requests are allowed to take a while; `gpa-serve`
    /// calibrates up front so requests are answered in milliseconds).
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(60),
        }
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// Connection, timeout, or response-framing failures.
    pub fn get(&self, path: &str) -> io::Result<HttpResponse> {
        self.roundtrip("GET", path, None)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Connection, timeout, or response-framing failures.
    pub fn post_json(&self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.roundtrip("POST", path, Some(body.as_bytes()))
    }

    fn roundtrip(&self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<HttpResponse> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        let _ = stream.set_nodelay(true);
        write_request(&mut stream, &self.addr, method, path, body, false)?;
        read_response(&mut BufReader::new(stream))
    }

    /// Open a persistent connection that reuses one socket for
    /// sequential requests (`Connection: keep-alive`).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(&self) -> io::Result<Connection> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        // Requests are written head-then-body; TCP_NODELAY keeps Nagle
        // from parking the body behind the server's delayed ACK on
        // long-lived connections.
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            addr: self.addr.clone(),
            stream: BufReader::new(stream),
            reusable: true,
        })
    }
}

/// A persistent keep-alive connection from [`Client::connect`].
///
/// Requests are strictly sequential (send, then read the full framed
/// response). The server may close after any response — its request cap,
/// idle timeout, or an error disposition — so callers looping on one
/// `Connection` should reconnect when a call fails or
/// [`Connection::is_reusable`] reports `false`.
///
/// The connection marks itself dead — refusing further requests with
/// `BrokenPipe` instead of desyncing — after any response that ends its
/// framing: an I/O or parse failure, a response without `Content-Length`
/// (read-to-EOF consumed the socket), or a `Connection: close`
/// disposition (the server will not read again; a request written after
/// it could be silently discarded or answered out of sync).
#[derive(Debug)]
pub struct Connection {
    addr: String,
    stream: BufReader<TcpStream>,
    reusable: bool,
}

impl Connection {
    /// `GET path` on the persistent connection.
    ///
    /// # Errors
    ///
    /// Connection, timeout, or response-framing failures (including the
    /// server having closed the connection since the last request).
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.roundtrip("GET", path, None)
    }

    /// `POST path` with a JSON body on the persistent connection.
    ///
    /// # Errors
    ///
    /// As for [`Connection::get`].
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.roundtrip("POST", path, Some(body.as_bytes()))
    }

    /// Whether the socket can carry another request. `false` once a
    /// response ended the framing (see the type docs); reconnect then.
    pub fn is_reusable(&self) -> bool {
        self.reusable
    }

    fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<HttpResponse> {
        if !self.reusable {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection is no longer reusable (the previous response ended it); reconnect",
            ));
        }
        let result = write_request(self.stream.get_mut(), &self.addr, method, path, body, true)
            .and_then(|()| read_response(&mut self.stream));
        match &result {
            Ok(resp) => {
                // Without Content-Length the body was read to EOF — the
                // socket is spent. A `close` token means the server
                // stops reading after this answer.
                let eof_framed = resp.header("Content-Length").is_none();
                let closing = resp
                    .header("Connection")
                    .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")));
                if eof_framed || closing {
                    self.reusable = false;
                }
            }
            // After an I/O error mid-exchange the framing state is
            // unknown; anything written next could desync.
            Err(_) => self.reusable = false,
        }
        result
    }
}

fn write_request(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head =
        format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: {connection}\r\n");
    if body.is_some() {
        head.push_str("Content-Type: application/json\r\n");
    }
    head.push_str(&format!(
        "Content-Length: {}\r\n\r\n",
        body.map_or(0, <[u8]>::len)
    ));
    stream.write_all(head.as_bytes())?;
    if let Some(body) = body {
        stream.write_all(body)?;
    }
    stream.flush()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Parse a response off `reader`: status line, headers, then either a
/// `Content-Length`-framed body or (absent that header) read-to-EOF.
fn read_response(reader: &mut impl BufRead) -> io::Result<HttpResponse> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(bad("server closed the connection before responding"));
    }
    let mut parts = status_line.trim_end().splitn(3, ' ');
    let (proto, code) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if !proto.starts_with("HTTP/1.") {
        return Err(bad(format!("not an HTTP response: `{status_line}`")));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| bad(format!("unparseable status in `{status_line}`")))?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("EOF inside response head"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_owned(), value.trim().to_owned()));
        }
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("Content-Length"))
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| bad(format!("unparseable Content-Length `{v}`")))
        })
        .transpose()?;
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.read_to_end(&mut body)?;
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Split an `http://host:port/path` URL into `(host:port, /path)` for
/// the `gpa-http` binary.
///
/// # Errors
///
/// A description of what is missing (scheme, host, or port).
pub fn split_url(url: &str) -> Result<(String, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("`{url}`: only http:// URLs are supported"))?;
    let (addr, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if addr.is_empty() || !addr.contains(':') {
        return Err(format!("`{url}`: expected http://host:port/path"));
    }
    Ok((addr.to_owned(), path.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_framed_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let resp = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.body_str().unwrap(), "{}");
    }

    #[test]
    fn parses_an_unframed_response_to_eof() {
        let raw = b"HTTP/1.0 503 Service Unavailable\r\n\r\nbusy";
        let resp = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, b"busy");
    }

    #[test]
    fn rejects_non_http() {
        assert!(read_response(&mut BufReader::new(&b"SSH-2.0-OpenSSH\r\n"[..])).is_err());
        assert!(read_response(&mut BufReader::new(&b""[..])).is_err());
    }

    /// A scripted one-connection server: accepts once, reads until the
    /// blank line ending the request head, writes `responses` verbatim,
    /// and then — crucially — keeps the socket open until dropped, so a
    /// desynced client would happily (and wrongly) write into it.
    fn scripted_server(responses: &'static str) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(socket.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                if line == "\r\n" || line == "\n" {
                    break;
                }
                line.clear();
            }
            socket.write_all(responses.as_bytes()).unwrap();
            socket.flush().unwrap();
            // Hold the socket open long enough for a buggy client to
            // attempt (and for the test to catch) a reuse.
            std::thread::sleep(Duration::from_millis(300));
        });
        (addr, handle)
    }

    #[test]
    fn connection_close_response_marks_the_connection_dead() {
        let (addr, server) =
            scripted_server("HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}");
        let mut conn = Client::new(addr).connect().unwrap();
        let resp = conn.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert!(!conn.is_reusable());
        // The next request must fail fast instead of writing into a
        // socket the server will never read (desync/hang).
        let err = conn.get("/healthz").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        server.join().unwrap();
    }

    #[test]
    fn eof_framed_response_marks_the_connection_dead() {
        // No Content-Length: the client frames by reading to EOF, which
        // spends the socket even though the server left it open.
        let (addr, server) = scripted_server("HTTP/1.1 200 OK\r\n\r\nunframed body");
        let mut conn = Client::new(addr).connect().unwrap();
        // read_to_end returns once the scripted server closes (~300 ms).
        let resp = conn.get("/healthz").unwrap();
        assert_eq!(resp.body, b"unframed body");
        assert!(!conn.is_reusable());
        assert!(conn.post_json("/v1/analyze", "{}").is_err());
        server.join().unwrap();
    }

    #[test]
    fn framed_keep_alive_response_stays_reusable() {
        let (addr, server) = scripted_server(
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}",
        );
        let mut conn = Client::new(addr).connect().unwrap();
        conn.get("/healthz").unwrap();
        assert!(conn.is_reusable());
        server.join().unwrap();
    }

    #[test]
    fn splits_urls() {
        assert_eq!(
            split_url("http://127.0.0.1:7070/v1/analyze").unwrap(),
            ("127.0.0.1:7070".to_owned(), "/v1/analyze".to_owned())
        );
        assert_eq!(
            split_url("http://localhost:80").unwrap(),
            ("localhost:80".to_owned(), "/".to_owned())
        );
        assert!(split_url("https://x:1/").is_err());
        assert!(split_url("http://nohost/").is_err());
    }
}
