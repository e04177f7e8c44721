//! A minimal keep-alive HTTP/1.1 client: one `TcpStream`, Nagle off,
//! Content-Length framing both ways.
//!
//! `gatherd::client` sends `Connection: close` on every request, so a
//! closed loop over it opens one socket per request. On a two-core
//! virtual machine, five back-to-back 3000-request passes that way left
//! 15k sockets in TIME_WAIT, and the cache-hit p50 drifted from 88 to
//! 133 µs across the passes while requests/s fell from 4098 to 2987.
//! Over one keep-alive connection the same traffic held 74–77 µs and
//! 3886–4204 req/s with no trend.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest header block accepted from the server.
const MAX_HEAD: usize = 16 * 1024;
/// Largest body accepted from the server.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One parsed response plus where its time went on the client.
pub struct Reply {
    pub status: u16,
    /// The `X-Gatherd-Cache` verdict, when present.
    pub cache: Option<String>,
    pub body: Vec<u8>,
    /// Start of the request write.
    pub started: Instant,
    /// End of the request write.
    pub sent: Instant,
    /// First response bytes read.
    pub first_byte: Instant,
    /// End of the response body.
    pub done: Instant,
}

impl Reply {
    pub fn latency(&self) -> Duration {
        self.done - self.started
    }
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(8 * 1024),
        })
    }

    /// Send one request and read its response off the same connection.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut req = Vec::with_capacity(body.len() + 96);
        write!(
            req,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        req.extend_from_slice(body);
        let t0 = Instant::now();
        self.stream.write_all(&req)?;
        let t1 = Instant::now();

        let mut chunk = [0u8; 16 * 1024];
        let mut first: Option<Instant> = None;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(io::Error::other("response header block too large"));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            first.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let first = first.unwrap_or(t1);

        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::other("non-utf8 response head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::other("bad status line"))?;
        let mut len = None;
        let mut cache = None;
        let mut closes = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-gatherd-cache") {
                cache = Some(value.to_string());
            } else if name.eq_ignore_ascii_case("connection") {
                closes = value.eq_ignore_ascii_case("close");
            }
        }
        let len = len.ok_or_else(|| io::Error::other("response without Content-Length"))?;
        if len > MAX_BODY {
            return Err(io::Error::other("response body too large"));
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let t3 = Instant::now();
        let body = self.buf[body_start..body_start + len].to_vec();
        self.buf.drain(..body_start + len);
        if closes {
            return Err(io::Error::other("server dropped keep-alive"));
        }
        Ok(Reply {
            status,
            cache,
            body,
            started: t0,
            sent: t1,
            first_byte: first,
            done: t3,
        })
    }
}
