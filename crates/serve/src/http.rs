//! A minimal, bounded HTTP/1.1 layer over blocking streams.
//!
//! Hand-rolled on purpose: the build environment has no registry access, and
//! the daemon's needs are narrow — parse one request per connection
//! (`Connection: close` semantics), enforce hard limits on every input
//! dimension, and write one response.  Anything outside the envelope maps to
//! a 4xx before any work is scheduled.

use std::io::{BufRead, Write};

/// Hard limit on the request-line length (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Hard limit on a single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Hard limit on the number of headers.
pub const MAX_HEADERS: usize = 64;

/// One parsed request: method, split target, lower-cased headers, raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Target path without the query string.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` framed; no chunked support).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; each variant maps to one status code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Malformed request line, header, or framing → 400.
    BadRequest(String),
    /// Declared or actual body size above the configured cap → 413.
    PayloadTooLarge {
        /// The configured cap the request exceeded, in bytes.
        limit: usize,
    },
    /// The peer vanished mid-request; no response can be delivered.
    Disconnected,
}

fn read_line_limited(
    reader: &mut impl BufRead,
    limit: usize,
    what: &str,
) -> Result<String, RequestError> {
    let mut line = Vec::with_capacity(128);
    loop {
        let byte = {
            let buf = reader.fill_buf().map_err(|_| RequestError::Disconnected)?;
            if buf.is_empty() {
                return Err(RequestError::Disconnected);
            }
            buf[0]
        };
        reader.consume(1);
        if byte == b'\n' {
            break;
        }
        line.push(byte);
        if line.len() > limit {
            return Err(RequestError::BadRequest(format!(
                "{what} exceeds {limit} bytes"
            )));
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| RequestError::BadRequest(format!("{what} is not UTF-8")))
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// Reads one request from the stream, enforcing all limits.
///
/// # Errors
///
/// [`RequestError::BadRequest`] on any framing violation,
/// [`RequestError::PayloadTooLarge`] when the body exceeds `max_body_bytes`,
/// [`RequestError::Disconnected`] when the peer closes early.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Request, RequestError> {
    let request_line = read_line_limited(reader, MAX_REQUEST_LINE, "request line")?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(RequestError::BadRequest(format!(
                "malformed request line: '{request_line}'"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::BadRequest(format!(
            "unsupported protocol version '{version}'"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(reader, MAX_HEADER_LINE, "header line")?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(RequestError::BadRequest(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::BadRequest(format!("malformed header: '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| RequestError::BadRequest(format!("bad Content-Length: '{v}'")))?,
        None => 0,
    };
    if content_length > max_body_bytes {
        return Err(RequestError::PayloadTooLarge {
            limit: max_body_bytes,
        });
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        let chunk = reader.fill_buf().map_err(|_| RequestError::Disconnected)?;
        if chunk.is_empty() {
            return Err(RequestError::Disconnected);
        }
        let take = chunk.len().min(content_length - filled);
        body[filled..filled + take].copy_from_slice(&chunk[..take]);
        reader.consume(take);
        filled += take;
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// One response: status, extra headers, body.  `Content-Length`,
/// `Content-Type` and `Connection: close` are always emitted.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Additional headers (name, value), written verbatim.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A response with an explicit content type (Prometheus exposition,
    /// trace JSONL, plain text).
    pub fn text(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: content_type.to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the response to the stream: status line, headers and body
    /// go out in one buffer through one `write_all`, not a write per piece.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying writer.
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        writer.write_all(&out)?;
        writer.flush()
    }
}

/// Reason phrase for the status codes this daemon emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(text.as_bytes()), 1024)
    }

    #[test]
    fn parses_a_post_with_query_and_body() {
        let req = parse(
            "POST /check?method=lmi&repair=true HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/check");
        assert_eq!(req.query_param("method"), Some("lmi"));
        assert_eq!(req.query_param("repair"), Some("true"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            parse("NONSENSE\r\n\r\n"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1 extra\r\n\r\n"),
            Err(RequestError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_by_declared_length() {
        let err = parse("POST /check HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert_eq!(err, RequestError::PayloadTooLarge { limit: 1024 });
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(RequestError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(RequestError::BadRequest(_))
        ));
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse("GET /health HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/health");
    }

    #[test]
    fn responses_carry_framing_headers() {
        let mut out = Vec::new();
        Response::json(429, "{}")
            .with_header("Retry-After", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_goes_out_in_one_write_with_unchanged_bytes() {
        let verdict = "{\"passive\":true}";
        let cases = [
            (
                Response::json(200, verdict)
                    .with_header("X-Cache", "hit")
                    .with_header("X-Deck-Hash", "00c0ffee00c0ffee")
                    .with_header("X-Trace-Id", "t-42"),
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 16\r\n\
                 Connection: close\r\nX-Cache: hit\r\nX-Deck-Hash: 00c0ffee00c0ffee\r\n\
                 X-Trace-Id: t-42\r\n\r\n{\"passive\":true}",
            ),
            (
                Response::json(400, "{\"kind\":\"parse\",\"line\":1,\"column\":9}"),
                "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
                 Content-Length: 36\r\nConnection: close\r\n\r\n\
                 {\"kind\":\"parse\",\"line\":1,\"column\":9}",
            ),
            (
                Response::json(429, "{}").with_header("Retry-After", "1"),
                "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                 Content-Length: 2\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{}",
            ),
            (
                Response::text(200, "text/plain; charset=utf-8", ""),
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: 0\r\nConnection: close\r\n\r\n",
            ),
        ];
        for (response, expected) in cases {
            let mut out = CountingWriter::default();
            response.write_to(&mut out).unwrap();
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
            assert_eq!(out.writes, 1, "status {}", response.status);
        }
    }

    #[test]
    fn text_responses_carry_their_content_type() {
        let mut out = Vec::new();
        Response::text(200, "text/plain; charset=utf-8", "x 1\n")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; charset=utf-8\r\n"));
        assert!(text.ends_with("\r\n\r\nx 1\n"));
    }
}
