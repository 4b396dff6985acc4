//! A minimal HTTP/1.1 client over real sockets: the load generator's only
//! way to talk to `v2v serve`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply slower than this counts as a failed operation, not a sample.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Largest reply the benchmark reads; `/metricz` is the biggest at a few KiB.
const MAX_RESPONSE_BYTES: usize = 16 << 20;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server announced `Connection: close`: reconnect before the next
    /// request.
    pub close: bool,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Incremental response framing: bytes go in as the socket delivers them,
/// complete responses come out. Handles a reply split at any byte and
/// several replies in one read.
#[derive(Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if the buffer holds one.
    pub fn next_response(&mut self) -> io::Result<Option<Response>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            if self.buf.len() > MAX_RESPONSE_BYTES {
                return Err(bad("response head too large"));
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut length, mut close) = (None, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("no Content-Length"))?;
        if length > MAX_RESPONSE_BYTES {
            return Err(bad("response body too large"));
        }
        let body_start = head_end + 4;
        if self.buf.len() < body_start + length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Some(Response {
            status,
            body,
            close,
        }))
    }
}

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// Client-side timestamps of one request, for the traced run's spans.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub write_start: Instant,
    pub write_end: Instant,
    pub first_byte: Instant,
    pub end: Instant,
}

pub struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            parser: ResponseParser::default(),
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads one response, returning when its first byte arrived too.
    pub fn recv(&mut self) -> io::Result<(Response, Instant)> {
        let mut first_byte = None;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(resp) = self.parser.next_response()? {
                return Ok((resp, first_byte.unwrap_or_else(Instant::now)));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            self.parser.push(&chunk[..n]);
        }
    }

    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(Response, Timing)> {
        let write_start = Instant::now();
        self.send(request)?;
        let write_end = Instant::now();
        let (resp, first_byte) = self.recv()?;
        Ok((
            resp,
            Timing {
                write_start,
                write_end,
                first_byte,
                end: Instant::now(),
            },
        ))
    }
}

/// A keep-alive connection that reconnects when the server ends it, as
/// `v2v serve` does after a connection's 1024 requests.
pub struct KeepAlive {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl KeepAlive {
    pub fn new(addr: SocketAddr) -> KeepAlive {
        KeepAlive { addr, conn: None }
    }

    pub fn call(&mut self, request: &[u8]) -> io::Result<Response> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => Conn::connect(self.addr)?,
        };
        let (response, _) = conn.round_trip(request)?;
        if !response.close {
            self.conn = Some(conn);
        }
        Ok(response)
    }

    /// `GET path`, answered 200: the body as text.
    pub fn get_ok(&mut self, path: &str) -> Result<String, String> {
        let response = self
            .call(&get(path, false))
            .map_err(|e| format!("{path}: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "{path} answered {}: {}",
                response.status,
                response.text()
            ));
        }
        Ok(response.text().to_string())
    }
}

/// Request bytes for a `GET`; `close` asks the server to end the connection
/// after replying.
pub fn get(path: &str, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n{connection}\r\n").into_bytes()
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request on a fresh connection.
pub fn once(addr: SocketAddr, request: &[u8]) -> io::Result<Response> {
    Ok(Conn::connect(addr)?.round_trip(request)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 7\r\nConnection: keep-alive\r\n\r\n{\"a\":1}HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\nno";

    fn expected() -> Vec<Response> {
        vec![
            Response {
                status: 200,
                body: b"{\"a\":1}".to_vec(),
                close: false,
            },
            Response {
                status: 404,
                body: b"no".to_vec(),
                close: true,
            },
        ]
    }

    #[test]
    fn frames_replies_split_at_every_byte_boundary() {
        for cut in 0..=TWO.len() {
            let mut p = ResponseParser::default();
            let mut got = Vec::new();
            for part in [&TWO[..cut], &TWO[cut..]] {
                p.push(part);
                while let Some(r) = p.next_response().unwrap() {
                    got.push(r);
                }
            }
            assert_eq!(got, expected(), "cut at {cut}");
        }
    }

    #[test]
    fn frames_replies_fed_one_byte_at_a_time() {
        let mut p = ResponseParser::default();
        let mut got = Vec::new();
        for b in TWO {
            p.push(&[*b]);
            while let Some(r) = p.next_response().unwrap() {
                got.push(r);
            }
        }
        assert_eq!(got, expected());
    }

    #[test]
    fn rejects_a_reply_without_a_length() {
        let mut p = ResponseParser::default();
        p.push(b"HTTP/1.1 200 OK\r\n\r\nbody");
        assert!(p.next_response().is_err());
    }
}
