//! A minimal blocking HTTP/1.1 client.
//!
//! This is the measurement side of the serving stack: `std::net` only, no
//! external dependencies, just enough protocol to drive the serve crate's
//! HTTP front end over loopback — keep-alive connection reuse,
//! `Content-Length` framing, and status-line parsing. It deliberately does
//! not implement chunked transfer or compression; the server never emits
//! either.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A single parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code from the status line (e.g. 200).
    pub status: u16,
    /// Lowercased header name → value, last occurrence wins.
    pub headers: Vec<(String, String)>,
    /// The response body (empty if no `content-length`).
    pub body: Vec<u8>,
    /// Whether the server asked to keep the connection open.
    pub keep_alive: bool,
}

impl ClientResponse {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A blocking HTTP/1.1 client holding one keep-alive connection.
///
/// `get` transparently reconnects when the server closed the previous
/// connection (or asked to via `connection: close`).
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    timeout: Duration,
}

impl HttpClient {
    /// Creates a client for `addr`; connects lazily on the first request.
    pub fn connect(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            stream: None,
            timeout: Duration::from_secs(10),
        }
    }

    fn ensure_stream(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().expect("stream just set"))
    }

    /// Sends `GET <path>` and reads the full response.
    ///
    /// Reuses the live connection when possible; one silent retry on a
    /// fresh connection covers the race where the server closed a
    /// keep-alive connection between our requests.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        let had_live_conn = self.stream.is_some();
        match self.try_get(path) {
            Ok(resp) => Ok(resp),
            Err(e) if had_live_conn => {
                // Stale keep-alive connection: drop it and retry once.
                let _ = e;
                self.stream = None;
                self.try_get(path)
            }
            Err(e) => Err(e),
        }
    }

    fn try_get(&mut self, path: &str) -> io::Result<ClientResponse> {
        let request = format!("GET {path} HTTP/1.1\r\nhost: loopback\r\n\r\n");
        let reader = self.ensure_stream()?;
        reader.get_mut().write_all(request.as_bytes())?;
        reader.get_mut().flush()?;
        let resp = read_client_response(reader)?;
        if !resp.keep_alive {
            self.stream = None;
        }
        Ok(resp)
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one HTTP/1.1 response (status line, headers, `Content-Length`
/// body) from `reader`.
pub fn read_client_response<R: BufRead>(reader: &mut R) -> io::Result<ClientResponse> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let line = line.trim_end();
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("bad status line version"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status code"))?;

    let mut headers = Vec::new();
    loop {
        let mut hline = String::new();
        if reader.read_line(&mut hline)? == 0 {
            return Err(invalid("eof in headers"));
        }
        let hline = hline.trim_end();
        if hline.is_empty() {
            break;
        }
        let (name, value) = hline.split_once(':').ok_or_else(|| invalid("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().map_err(|_| invalid("bad content-length")))
        .transpose()?
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let keep_alive = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| !v.eq_ignore_ascii_case("close"))
        .unwrap_or(true);

    Ok(ClientResponse {
        status,
        headers,
        body,
        keep_alive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_response_with_body() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 5\r\nconnection: keep-alive\r\n\r\nhello";
        let resp = read_client_response(&mut Cursor::new(&raw[..])).expect("parse");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hello");
        assert!(resp.keep_alive);
        assert_eq!(resp.header("content-type"), Some("text/plain"));
    }

    #[test]
    fn connection_close_and_no_body() {
        let raw = b"HTTP/1.1 404 Not Found\r\nconnection: close\r\n\r\n";
        let resp = read_client_response(&mut Cursor::new(&raw[..])).expect("parse");
        assert_eq!(resp.status, 404);
        assert!(resp.body.is_empty());
        assert!(!resp.keep_alive);
    }

    #[test]
    fn rejects_garbage_status_line() {
        let raw = b"not-http at all\r\n\r\n";
        assert!(read_client_response(&mut Cursor::new(&raw[..])).is_err());
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort";
        assert!(read_client_response(&mut Cursor::new(&raw[..])).is_err());
    }
}
