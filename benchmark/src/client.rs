//! A minimal blocking HTTP/1.1 client over `std::net`: one GET at a time,
//! on a kept-alive connection or on a fresh connection per request. It is
//! the benchmark's own code so that the load it offers never changes with
//! the program under test.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A stuck server must fail the run, not hang it.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// The exact bytes of one GET. The stage walk parses these same bytes.
pub fn request_bytes(path: &str, close: bool) -> Vec<u8> {
    let connection = if close { "connection: close\r\n" } else { "" };
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n{connection}\r\n").into_bytes()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

/// Reads one response with a `content-length` body into `body` (cleared
/// first) and returns the status code. `line` is scratch space.
pub fn read_response<R: BufRead>(
    r: &mut R,
    line: &mut Vec<u8>,
    body: &mut Vec<u8>,
) -> io::Result<u16> {
    line.clear();
    if r.read_until(b'\n', line)? == 0 {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "closed before status",
        ));
    }
    let status = std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.trim().parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if r.read_until(b'\n', line)? == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "closed inside headers",
            ));
        }
        let header = line.trim_ascii_end();
        if header.is_empty() {
            break;
        }
        if let Some(colon) = header.iter().position(|&b| b == b':') {
            if header[..colon].eq_ignore_ascii_case(b"content-length") {
                content_length = std::str::from_utf8(&header[colon + 1..])
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(|| bad("bad content-length"))?;
            }
        }
    }
    // The server under test is local and trusted, but a length is still
    // input: refuse one that could not be a page.
    if content_length > 64 << 20 {
        return Err(bad("content-length over 64 MiB"));
    }
    body.clear();
    body.resize(content_length, 0);
    r.read_exact(body)?;
    Ok(status)
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// One kept-alive connection.
pub struct KeepAlive {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl KeepAlive {
    pub fn connect(addr: SocketAddr) -> io::Result<KeepAlive> {
        let writer = open(addr)?;
        Ok(KeepAlive {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: Vec::new(),
        })
    }

    /// Sends `request` and reads the response body into `body`.
    pub fn get(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.writer.write_all(request)?;
        read_response(&mut self.reader, &mut self.line, body)
    }
}

/// One GET on a fresh connection (`request` must carry `connection:
/// close`). Returns the status and how long `connect` took.
pub fn get_once(
    addr: SocketAddr,
    request: &[u8],
    body: &mut Vec<u8>,
) -> io::Result<(u16, Duration)> {
    let start = std::time::Instant::now();
    let mut stream = open(addr)?;
    let connect = start.elapsed();
    stream.write_all(request)?;
    let mut reader = BufReader::new(stream);
    let status = read_response(&mut reader, &mut Vec::new(), body)?;
    Ok((status, connect))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    fn read(wire: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut body = Vec::new();
        let status = read_response(&mut Cursor::new(wire), &mut Vec::new(), &mut body)?;
        Ok((status, body))
    }

    #[test]
    fn reads_status_and_body() {
        let (status, body) =
            read(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nx: y\r\n\r\nhelloEXTRA").unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"hello"[..]));
        let (status, body) = read(b"HTTP/1.1 503 Service Unavailable\r\n\r\n").unwrap();
        assert_eq!((status, body.len()), (503, 0));
    }

    #[test]
    fn malformed_responses_are_errors() {
        assert!(read(b"").is_err());
        assert!(read(b"garbage\r\n\r\n").is_err());
        assert!(read(b"HTTP/1.1 200 OK\r\ncontent-length: pony\r\n\r\n").is_err());
        assert!(read(b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nshort").is_err());
        assert!(read(b"HTTP/1.1 200 OK\r\ncontent-length: 5").is_err());
    }

    #[test]
    fn request_bytes_differ_only_in_the_close_header() {
        assert_eq!(
            request_bytes("/run/x", false),
            b"GET /run/x HTTP/1.1\r\nhost: bench\r\n\r\n"
        );
        assert_eq!(
            request_bytes("/run/x", true),
            b"GET /run/x HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n"
        );
    }

    /// A canned server: answers each request with its request line as body.
    fn echo_server(connections: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..connections {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                loop {
                    let mut first = String::new();
                    if reader.read_line(&mut first).unwrap() == 0 {
                        break;
                    }
                    let mut close = false;
                    loop {
                        let mut h = String::new();
                        reader.read_line(&mut h).unwrap();
                        if h.trim().is_empty() {
                            break;
                        }
                        close |= h.trim() == "connection: close";
                    }
                    let body = first.trim();
                    write!(
                        writer,
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                    if close {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn keep_alive_reuses_one_connection_and_get_once_opens_its_own() {
        let (addr, server) = echo_server(3);
        let mut body = Vec::new();
        let mut conn = KeepAlive::connect(addr).unwrap();
        for path in ["/a", "/b", "/c"] {
            assert_eq!(
                conn.get(&request_bytes(path, false), &mut body).unwrap(),
                200
            );
            assert_eq!(body, format!("GET {path} HTTP/1.1").as_bytes());
        }
        drop(conn);
        for path in ["/d", "/e"] {
            let (status, _) = get_once(addr, &request_bytes(path, true), &mut body).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("GET {path} HTTP/1.1").as_bytes());
        }
        server.join().unwrap();
    }
}
