//! The system under test as a child process, and a minimal HTTP/1.1
//! client for it.
//!
//! The client is the benchmark's own so that a change to the program's
//! client code never changes the instrument: it speaks just enough
//! HTTP/1.1 for `firehose serve` (keep-alive, `Content-Length` and chunked
//! bodies) and counts the bytes it moves.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to answer its first `/healthz`.
const SETUP_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `firehose serve` child. Dropping it kills and reaps the child.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    log: PathBuf,
}

/// What the benchmark passes to `firehose serve`.
pub struct ServeArgs<'a> {
    pub binary: &'a Path,
    pub graph: &'a Path,
    pub subscriptions: &'a Path,
    pub strategy: &'a str,
    pub log: &'a Path,
}

impl ServerProc {
    /// Spawn the server and wait for its first `200` from `/healthz`.
    /// Returns the server and the set-up time in seconds: spawn to that
    /// first `200`.
    pub fn start(args: &ServeArgs) -> Result<(Self, f64), String> {
        let port = free_port().map_err(|e| format!("pick a loopback port: {e}"))?;
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let log = File::create(args.log).map_err(|e| format!("{}: {e}", args.log.display()))?;
        let started = Instant::now();
        let child = Command::new(args.binary)
            .arg("serve")
            .arg("--graph")
            .arg(args.graph)
            .arg("--subscriptions")
            .arg(args.subscriptions)
            .args(["--strategy", args.strategy])
            .args(["--listen", &addr.to_string()])
            .args(["--allow-shutdown", "true"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", args.binary.display()))?;
        let mut server = Self {
            child,
            addr,
            log: args.log.to_path_buf(),
        };
        loop {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "firehose serve exited with {status} before answering: {}",
                    server.log_tail()
                ));
            }
            if let Ok(mut conn) = Conn::connect(addr) {
                if let Ok(resp) = conn.request("GET", "/healthz", b"") {
                    if resp.status == 200 {
                        return Ok((server, started.elapsed().as_secs_f64()));
                    }
                }
            }
            if started.elapsed() > SETUP_TIMEOUT {
                return Err(format!("no /healthz 200 within {SETUP_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Ask the server to stop and wait for the process to end.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::connect(self.addr)
            .and_then(|mut c| {
                c.request("POST", "/shutdown", b"")
                    .map_err(io::Error::other)
            })
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("firehose serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for firehose serve: {e}")),
            }
        }
        Err(format!(
            "firehose serve did not stop on /shutdown: {}",
            self.log_tail()
        ))
    }

    fn log_tail(&self) -> String {
        let bytes = std::fs::read(&self.log).unwrap_or_default();
        let start = bytes.len().saturating_sub(600);
        String::from_utf8_lossy(&bytes[start..]).trim().to_string()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// One parsed response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive connection that counts the bytes it writes and reads.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    pos: usize,
    out: Vec<u8>,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            pos: 0,
            out: Vec::with_capacity(64 * 1024),
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// Send one request and read its whole response.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Response, String> {
        self.send(method, target, body).map_err(|e| e.to_string())?;
        let (status, chunked, len) = self.read_head()?;
        let body = if chunked {
            let mut body = Vec::new();
            self.read_chunks(&mut |c| body.extend_from_slice(c))?;
            body
        } else {
            self.read_exact_body(len)?
        };
        Ok(Response { status, body })
    }

    /// `GET target` expecting a chunked long-poll; `on_chunk` sees each
    /// chunk as it arrives. Returns the status.
    pub fn stream(&mut self, target: &str, on_chunk: &mut dyn FnMut(&[u8])) -> Result<u16, String> {
        self.send("GET", target, b"").map_err(|e| e.to_string())?;
        let (status, chunked, len) = self.read_head()?;
        if chunked {
            self.read_chunks(on_chunk)?;
        } else {
            self.read_exact_body(len)?;
        }
        Ok(status)
    }

    fn send(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<()> {
        self.out.clear();
        let _ = write!(
            self.out,
            "{method} {target} HTTP/1.1\r\nHost: firehose\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.out.extend_from_slice(body);
        self.stream.write_all(&self.out)?;
        self.bytes_sent += self.out.len() as u64;
        Ok(())
    }

    fn fill(&mut self) -> Result<(), String> {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 1 << 20 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + 64 * 1024, 0);
        match self.stream.read(&mut self.buf[old..]) {
            Ok(0) => {
                self.buf.truncate(old);
                Err("connection closed mid-response".to_string())
            }
            Ok(n) => {
                self.buf.truncate(old + n);
                self.bytes_received += n as u64;
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e.to_string())
            }
        }
    }

    /// Read up to a line end; returns the line (without CRLF).
    fn read_line(&mut self) -> Result<String, String> {
        loop {
            if let Some(i) = self.buf[self.pos..].windows(2).position(|w| w == b"\r\n") {
                let line = String::from_utf8_lossy(&self.buf[self.pos..self.pos + i]).into_owned();
                self.pos += i + 2;
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// Status, whether the body is chunked, and its `Content-Length`.
    fn read_head(&mut self) -> Result<(u16, bool, usize), String> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let (mut chunked, mut len) = (false, 0usize);
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                return Ok((status, chunked, len));
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("bad header {line:?}"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| format!("bad length {value:?}"))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
    }

    fn read_exact_body(&mut self, len: usize) -> Result<Vec<u8>, String> {
        while self.buf.len() - self.pos < len {
            self.fill()?;
        }
        let body = self.buf[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(body)
    }

    fn read_chunks(&mut self, on_chunk: &mut dyn FnMut(&[u8])) -> Result<(), String> {
        loop {
            let size_line = self.read_line()?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| format!("bad chunk size {size_line:?}"))?;
            if size == 0 {
                self.read_line()?;
                return Ok(());
            }
            while self.buf.len() - self.pos < size + 2 {
                self.fill()?;
            }
            on_chunk(&self.buf[self.pos..self.pos + size]);
            self.pos += size + 2;
        }
    }
}
