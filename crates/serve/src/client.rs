//! A minimal blocking HTTP/1.1 client for one-shot requests against the
//! daemon — used by the integration tests and the benchmark's `serve-ci`
//! workload.  `Connection: close` semantics only: one request per
//! connection, body read to EOF or `Content-Length`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names, in order.
    pub headers: Vec<(String, String)>,
    /// Response body as text.
    pub body: String,
}

impl HttpResponse {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// Reports connection, I/O and response-framing failures as text.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<HttpResponse, String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("setting read timeout: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cloning stream: {e}"))?;
    // The request line, headers and body go out in one write.
    let payload = body.unwrap_or("");
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    request.extend_from_slice(payload.as_bytes());
    writer
        .write_all(&request)
        .map_err(|e| format!("writing request: {e}"))?;
    writer.flush().map_err(|e| format!("flushing: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("reading status line: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: '{}'", status_line.trim_end()))?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("reading header: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }

    let mut body_bytes = Vec::new();
    match content_length {
        Some(n) => {
            body_bytes.resize(n, 0);
            reader
                .read_exact(&mut body_bytes)
                .map_err(|e| format!("reading body: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut body_bytes)
                .map_err(|e| format!("reading body: {e}"))?;
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body: String::from_utf8_lossy(&body_bytes).into_owned(),
    })
}

/// `GET path`.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: SocketAddr, path: &str) -> Result<HttpResponse, String> {
    request(addr, "GET", path, None)
}

/// `POST path` with a text body.
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<HttpResponse, String> {
    request(addr, "POST", path, Some(body))
}
