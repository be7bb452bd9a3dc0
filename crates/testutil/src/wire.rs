//! A minimal std-only HTTP/1.1 test client for exercising `sigma-daemon`
//! through real sockets.
//!
//! This is deliberately a *second implementation* of the wire protocol —
//! the daemon's own parser never validates itself. Tests drive the daemon
//! with this client (well-formed traffic, keep-alive reuse) and with the
//! raw-byte helpers (malformed traffic: truncated bodies, slow writers,
//! garbage) and assert on exact status codes and bodies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Status code from the status line.
    pub status: u16,
    /// `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The response body (empty if no `Content-Length`).
    pub body: Vec<u8>,
}

impl WireResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on invalid UTF-8 — test helper).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is not UTF-8")
    }
}

/// Reads one response off `reader` (status line, headers, `Content-Length`
/// body).
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<WireResponse> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let (_version, status) = match (parts.next(), parts.next()) {
        (Some(v), Some(s)) if v.starts_with("HTTP/1.") => (v, s),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line: {line:?}"),
            ))
        }
    };
    let status: u16 = status
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-numeric status"))?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(WireResponse {
        status,
        headers,
        body,
    })
}

/// A keep-alive client over one daemon connection.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl WireClient {
    /// Connects with generous (5 s) socket timeouts.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let timeout = Duration::from_secs(5);
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Sends one request (keep-alive) and reads the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<WireResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: sigma-daemon\r\n");
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }

    /// Sends raw bytes verbatim (no framing added).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one response after raw writes.
    pub fn read_response(&mut self) -> io::Result<WireResponse> {
        read_response(&mut self.reader)
    }
}

/// One-shot `POST` of a JSON body; opens and closes its own connection.
pub fn post_json(addr: SocketAddr, path: &str, json: &str) -> io::Result<WireResponse> {
    let mut client = WireClient::connect(addr)?;
    client.request("POST", path, &[("connection", "close")], json.as_bytes())
}

/// One-shot `GET`; opens and closes its own connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<WireResponse> {
    let mut client = WireClient::connect(addr)?;
    client.request("GET", path, &[("connection", "close")], b"")
}

/// Writes `bytes` raw on a fresh connection, then reads whatever the server
/// sends back until it closes (for fault-injection assertions).
pub fn send_raw_once(addr: SocketAddr, bytes: &[u8]) -> io::Result<Vec<u8>> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(bytes)?;
    writer.flush()?;
    writer.shutdown(std::net::Shutdown::Write)?;
    let mut out = Vec::new();
    let mut reader = stream;
    let mut buf = [0u8; 4096];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    Ok(out)
}
