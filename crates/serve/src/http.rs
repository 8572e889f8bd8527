//! A deliberately small HTTP/1.1 codec — an incremental, pure request
//! parser for the server's event loop, response rendering with
//! keep-alive semantics, and a blocking keep-alive client
//! ([`ClientConn`]) used by `melreq client`, `melreq loadbench`, and
//! the service tests.
//!
//! Scope: `Content-Length` bodies only (no chunked encoding), bounded
//! header and body sizes, `Connection: close` honored in both
//! directions. That is exactly the profile the service speaks, and
//! keeping the codec this small is what lets the workspace stay
//! dependency-free.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted head (request line + headers), in bytes.
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method verb, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path only; queries are not used by this service).
    pub path: String,
    /// Decoded body (empty when there was none).
    pub body: String,
    /// The request carried `Connection: close` — the server answers it
    /// and then closes instead of keeping the connection alive.
    pub close: bool,
}

/// Try to parse one complete request from the front of `buf`.
///
/// * `Ok(None)` — the buffer holds only a partial request; read more.
/// * `Ok(Some((req, n)))` — a full request occupying the first `n`
///   bytes (the caller consumes them; pipelined successors may follow).
/// * `Err(_)` — the bytes can never become a valid request (oversized,
///   malformed); the connection should answer 400 and close.
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<Option<(HttpRequest, usize)>, String> {
    // A head within the cap ends (terminator included) inside this window.
    let window = &buf[..buf.len().min(MAX_HEAD + 4)];
    let Some(head_end) = find_head_end(window) else {
        if window.len() == MAX_HEAD + 4 {
            return Err("request head too large".into());
        }
        return Ok(None);
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-utf8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("request line missing target")?.to_string();

    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length '{}'", value.trim()))?;
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    if content_length > max_body {
        return Err(format!("body of {content_length} bytes exceeds the {max_body}-byte cap"));
    }

    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8(buf[head_end + 4..total].to_vec())
        .map_err(|_| "non-utf8 body".to_string())?;
    Ok(Some((HttpRequest { method, path, body, close }, total)))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Standard reason phrase for the statuses this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Render one complete response. `close` controls the `Connection`
/// header: keep-alive responses leave the connection open for the next
/// pipelined request, `close` announces the server will hang up.
pub fn response_bytes(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
    close: bool,
) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// A blocking keep-alive HTTP/1.1 client connection. Requests are
/// serial: send one, read its `Content-Length`-framed response, repeat
/// on the same socket. The final request of a session should pass
/// `close = true` so the server tears the connection down eagerly.
pub struct ClientConn {
    stream: TcpStream,
    addr: String,
    // Bytes read past the previous response's body (possible when the
    // server batches writes); consumed before touching the socket.
    carry: Vec<u8>,
}

impl ClientConn {
    /// Connect to `addr` with `timeout` as both read and write timeout.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_read_timeout(Some(timeout)).map_err(|e| format!("set timeout: {e}"))?;
        stream.set_write_timeout(Some(timeout)).map_err(|e| format!("set timeout: {e}"))?;
        Ok(ClientConn { stream, addr: addr.to_string(), carry: Vec::new() })
    }

    /// One request/response exchange on this connection. `close`
    /// controls the request's `Connection` header; after a `close`
    /// exchange the connection is spent.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
    ) -> Result<(u16, String), String> {
        let body = body.unwrap_or("");
        let connection = if close { "close" } else { "keep-alive" };
        // Head and body leave in one write: as two, Nagle's algorithm
        // holds the body back until the server's delayed ACK of the head
        // (~40 ms per exchange on a keep-alive connection).
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        self.stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;
        self.stream.flush().map_err(|e| format!("flush: {e}"))?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<(u16, String), String> {
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = find_head_end(&buf) {
                break pos;
            }
            let n = self.stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| "non-utf8 response head".to_string())?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("malformed status line in {head:?}"))?;
        let mut content_length: Option<usize> = None;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let content_length =
            content_length.ok_or_else(|| "response without content-length".to_string())?;
        let body_start = head_end + 4;
        while buf.len() < body_start + content_length {
            let n = self.stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        self.carry = buf.split_off(body_start + content_length);
        let body = String::from_utf8(buf[body_start..].to_vec())
            .map_err(|_| "non-utf8 response body".to_string())?;
        Ok((status, body))
    }
}

/// One blocking HTTP exchange: connect to `addr`, send `method path`
/// with `Connection: close`, return `(status, body)`.
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(u16, String), String> {
    ClientConn::connect(addr, timeout)?.request(method, path, body, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The fake server's read: block until one whole request has arrived.
    fn read_request(stream: &mut TcpStream) -> HttpRequest {
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 2048];
        loop {
            if let Some((req, _)) = parse_request(&buf, 1024).unwrap() {
                return req;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "connection closed mid-request");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// The fake server's answer: 200 with `body`.
    fn write_response(stream: &mut TcpStream, body: &str, close: bool) {
        stream.write_all(&response_bytes(200, "application/json", &[], body, close)).unwrap();
    }

    #[test]
    fn request_round_trips_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream);
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/run");
            assert_eq!(req.body, "{\"x\":1}");
            assert!(req.close, "exchange sends Connection: close");
            write_response(&mut stream, "{\"ok\":true}", true);
        });
        let (status, body) =
            exchange(&addr.to_string(), "POST", "/run", Some("{\"x\":1}"), Duration::from_secs(5))
                .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn client_conn_reuses_one_socket_for_many_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Exactly one accept: both requests must arrive on it.
            let (mut stream, _) = listener.accept().unwrap();
            let first = read_request(&mut stream);
            assert!(!first.close);
            write_response(&mut stream, "1", false);
            let second = read_request(&mut stream);
            assert!(second.close);
            write_response(&mut stream, "22", true);
        });
        let mut conn = ClientConn::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        assert_eq!(conn.request("GET", "/a", None, false).unwrap(), (200, "1".to_string()));
        assert_eq!(conn.request("GET", "/b", None, true).unwrap(), (200, "22".to_string()));
        server.join().unwrap();
    }

    #[test]
    fn parse_request_handles_partial_pipelined_and_malformed_input() {
        let one = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut two = one.to_vec();
        two.extend_from_slice(b"POST /run HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");

        // Partial: no terminator yet.
        assert!(parse_request(&one[..10], 1024).unwrap().is_none());
        // Complete head, body still missing.
        let partial_body = &two[one.len()..two.len() - 1];
        assert!(parse_request(partial_body, 1024).unwrap().is_none());
        // Two pipelined requests parse front-to-back.
        let (first, n) = parse_request(&two, 1024).unwrap().unwrap();
        assert_eq!((first.method.as_str(), first.path.as_str()), ("GET", "/healthz"));
        assert_eq!(n, one.len());
        let (second, m) = parse_request(&two[n..], 1024).unwrap().unwrap();
        assert_eq!((second.method.as_str(), second.body.as_str()), ("POST", "{}"));
        assert_eq!(n + m, two.len());
        // Oversized declared body is a hard error.
        assert!(parse_request(b"POST /run HTTP/1.1\r\nContent-Length: 99\r\n\r\n", 4)
            .unwrap_err()
            .contains("cap"));
    }

    #[test]
    fn a_head_over_the_cap_is_rejected_even_when_complete() {
        let pad = "x".repeat(20 * 1024);
        let big = format!("GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n");
        assert!(parse_request(big.as_bytes(), 1024).unwrap_err().contains("too large"));
        // A head of exactly the cap still parses.
        let line = "GET /healthz HTTP/1.1\r\nX-Pad: ";
        let at_cap = format!("{line}{}\r\n\r\n", "x".repeat(MAX_HEAD - line.len()));
        let (_, n) = parse_request(at_cap.as_bytes(), 1024).unwrap().unwrap();
        assert_eq!(n, MAX_HEAD + 4);
    }

    #[test]
    fn reasons_cover_emitted_statuses() {
        for status in [200, 400, 404, 405, 429, 500, 503, 504] {
            assert_ne!(reason(status), "Unknown");
        }
    }
}
