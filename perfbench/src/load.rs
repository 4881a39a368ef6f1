//! The load generator: one ingest connection and one long-poll reader of
//! the watched user's stream, driving a running `firehose serve`.
//!
//! A run goes through up to four phases, always in this order: an untimed
//! warm-up prefix, a closed loop of 256-post batches, a paced phase that
//! sends fixed-size batches on a fixed schedule, and a churn probe (ops
//! sent one per request after the stream). Churn ops inside the stream go
//! before the batch that starts at or after their position, one op per
//! request. Every request is logged so that the reference replays exactly
//! what the server saw.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::inputs::Traffic;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::wire::Conn;

/// Generator threads and connections: the ingest side and the reader.
pub const GENERATOR_THREADS: usize = 2;

/// Posts per request in the warm-up and closed-loop phases.
pub const BATCH: usize = 256;

/// One request, as the reference must replay it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// `POST /ingest` of posts `start..end`.
    Batch(usize, usize),
    /// `POST /churn` of `traffic.ops[i]`.
    Churn(usize),
}

pub struct Paced {
    /// Posts per second: a constant of the workload.
    pub rate: f64,
    /// Posts per request.
    pub batch: usize,
    pub secs: f64,
}

pub struct Plan {
    pub warmup_posts: usize,
    pub closed_posts: usize,
    pub paced: Option<Paced>,
}

impl Plan {
    /// Posts the plan sends.
    pub fn posts(&self) -> usize {
        self.warmup_posts + self.closed_posts + self.paced.as_ref().map_or(0, paced_posts)
    }
}

#[derive(Default)]
pub struct Outcome {
    pub log: Vec<Req>,
    /// Index in `log` of the first request after the warm-up.
    pub warm_end: usize,
    /// Digest of every `/ingest` and `/churn` response body, in order.
    pub digest: Digest,
    pub attempted: u64,
    pub failed: u64,
    /// First failure, for the log.
    pub first_error: Option<String>,
    pub closed_posts: usize,
    pub closed_secs: f64,
    /// Closed loop, after each batch: posts sent and seconds since the
    /// phase began (churn requests included).
    pub closed_marks: Vec<(usize, f64)>,
    /// Closed-loop `/ingest` requests: summed time, bytes, delivery lines.
    pub closed_ingest_ns: u64,
    pub closed_bytes_sent: u64,
    pub closed_bytes_received: u64,
    pub closed_delivery_lines: u64,
    /// Paced `/ingest` latency from due time to full response.
    pub ingest_ms: Vec<f64>,
    /// Paced: how late the generator sent a request it was free to send.
    pub lag_ms: Vec<f64>,
    /// Every timed `/churn` request (closed loop, paced phase and probe).
    pub churn_ms: Vec<f64>,
    /// Paced posts' due time to arrival on the watched stream.
    pub delivery_ms: Vec<f64>,
    /// Post ids the watched stream carried, in order.
    pub watched: Vec<u64>,
    pub healthz: String,
    pub metrics: String,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(what);
        }
    }
}

struct Generator<'a> {
    conn: Conn,
    traffic: &'a Traffic,
    out: Outcome,
    /// Next in-stream churn op to send.
    next_op: usize,
    /// Set when a transport error makes the connection unusable.
    broken: bool,
}

impl Generator<'_> {
    fn send_churn(&mut self, i: usize) -> f64 {
        self.out.log.push(Req::Churn(i));
        self.out.attempted += 1;
        let t = Instant::now();
        let result = self
            .conn
            .request("POST", "/churn", self.traffic.ops[i].line.as_bytes());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(resp) => {
                self.out.digest.update(&resp.body);
                if resp.status != 200 || resp.body.starts_with(b"err") {
                    let text = String::from_utf8_lossy(&resp.body).trim().to_string();
                    self.out.fail(format!("churn: HTTP {} {text}", resp.status));
                }
            }
            Err(e) => {
                self.out.fail(format!("churn: {e}"));
                self.broken = true;
            }
        }
        ms
    }

    /// Send every in-stream op due before a batch starting at `offset`.
    fn send_due_churn(
        &mut self,
        offset: usize,
        timed: bool,
        tracer: &mut Tracer,
        root: Option<usize>,
    ) {
        while self.next_op < self.traffic.probe_start
            && self.traffic.ops[self.next_op].after_posts <= offset as u64
            && !self.broken
        {
            let i = self.next_op;
            self.next_op += 1;
            let span = tracer.open("net.churn", root, self.out.log.len() as u64);
            let ms = self.send_churn(i);
            tracer.close(span);
            if timed {
                self.out.churn_ms.push(ms);
            }
        }
    }

    /// `POST /ingest` posts `start..end`; returns the delivery lines it
    /// caused (users named in the decision lines).
    fn send_batch(&mut self, start: usize, end: usize) -> u64 {
        self.out.log.push(Req::Batch(start, end));
        self.out.attempted += 1;
        match self
            .conn
            .request("POST", "/ingest", self.traffic.body(start, end))
        {
            Ok(resp) => {
                self.out.digest.update(&resp.body);
                if resp.status != 200 {
                    self.out.fail(format!("ingest: HTTP {}", resp.status));
                }
                delivery_lines(&resp.body)
            }
            Err(e) => {
                self.out.fail(format!("ingest: {e}"));
                self.broken = true;
                0
            }
        }
    }

    /// Closed loop over posts `start..end`. Returns where it stopped.
    fn closed_loop(
        &mut self,
        start: usize,
        end: usize,
        timed: bool,
        tracer: &mut Tracer,
        root: Option<usize>,
    ) -> usize {
        let t0 = Instant::now();
        let mut at = start;
        while at < end && !self.broken {
            self.send_due_churn(at, timed, tracer, root);
            let batch_end = (at + BATCH).min(end);
            let (sent, received) = (self.conn.bytes_sent, self.conn.bytes_received);
            let span = tracer.open("net.ingest", root, self.out.log.len() as u64);
            let t = Instant::now();
            let lines = self.send_batch(at, batch_end);
            let ns = t.elapsed().as_nanos() as u64;
            tracer.close(span);
            if timed {
                self.out.closed_ingest_ns += ns;
                self.out.closed_bytes_sent += self.conn.bytes_sent - sent;
                self.out.closed_bytes_received += self.conn.bytes_received - received;
                self.out.closed_delivery_lines += lines;
                let marks = &mut self.out.closed_marks;
                marks.push((batch_end - start, t0.elapsed().as_secs_f64()));
            }
            at = batch_end;
        }
        at
    }
}

/// Users named in a `/ingest` response: one delivery line each.
fn delivery_lines(body: &[u8]) -> u64 {
    body.split(|&b| b == b'\n')
        .filter_map(|line| line.split(|&b| b == b'\t').nth(1))
        .filter(|users| !users.is_empty() && *users != b"-")
        .map(|users| users.iter().filter(|&&b| b == b',').count() as u64 + 1)
        .sum()
}

/// Run `plan` against the server at `addr`. The watched user's stream is
/// read on a second thread for the whole run.
pub fn drive(
    addr: SocketAddr,
    traffic: &Traffic,
    watched: u32,
    plan: &Plan,
    probe: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_stream(addr, watched, &done));
        // Whatever happens below, release the reader.
        struct Release<'a>(&'a AtomicBool);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let release = Release(&done);
        let result = run_phases(addr, traffic, plan, probe, tracer);
        drop(release);
        let stream = reader
            .join()
            .map_err(|_| "stream reader panicked".to_string())?;
        let (mut out, due) = result?;
        match stream {
            Ok(items) => {
                let mut expect_seq = 0u64;
                for (seq, id, at) in items {
                    if seq != expect_seq {
                        out.fail(format!(
                            "watched stream skipped from seq {expect_seq} to {seq}"
                        ));
                    }
                    expect_seq = seq + 1;
                    out.watched.push(id);
                    if let Some(&d) = due.get(&id) {
                        out.delivery_ms
                            .push(at.duration_since(d).as_secs_f64() * 1e3);
                    }
                }
            }
            Err(e) => out.fail(format!("watched stream: {e}")),
        }
        // Scrape after the reader is done so its last poll is not counted
        // as in flight.
        let mut conn = Conn::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
        out.healthz = scrape(&mut conn, "/healthz")?;
        out.metrics = scrape(&mut conn, "/metrics")?;
        Ok(out)
    })
}

fn scrape(conn: &mut Conn, path: &str) -> Result<String, String> {
    let resp = conn.request("GET", path, b"")?;
    if resp.status != 200 {
        return Err(format!("GET {path}: HTTP {}", resp.status));
    }
    Ok(String::from_utf8_lossy(&resp.body).into_owned())
}

type DueTimes = HashMap<u64, Instant>;

fn run_phases(
    addr: SocketAddr,
    traffic: &Traffic,
    plan: &Plan,
    probe: bool,
    tracer: &mut Tracer,
) -> Result<(Outcome, DueTimes), String> {
    let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut d = Generator {
        conn,
        traffic,
        out: Outcome::default(),
        next_op: 0,
        broken: false,
    };
    if traffic.posts.len() < plan.posts() {
        return Err("the generated stream is too short for this plan".into());
    }

    // 1. Warm-up: untimed.
    let mut off = Tracer::new(false);
    let at = d.closed_loop(0, plan.warmup_posts, false, &mut off, None);
    d.out.warm_end = d.out.log.len();

    // 2. Closed loop.
    let root = tracer.open("net", None, d.out.log.len() as u64);
    let end = d.closed_loop(at, at + plan.closed_posts, true, tracer, root);
    d.out.closed_secs = d.out.closed_marks.last().map_or(0.0, |m| m.1);
    d.out.closed_posts = end - at;

    // 3. Paced phase.
    let mut due_times = HashMap::new();
    if let Some(p) = &plan.paced {
        paced_phase(&mut d, p, end, &mut due_times);
    }

    // 4. Churn probe: ops after the stream, one per request.
    if probe {
        for i in traffic.probe_start..traffic.ops.len() {
            if d.broken {
                break;
            }
            let span = tracer.open("net.churn", root, d.out.log.len() as u64);
            let ms = d.send_churn(i);
            tracer.close(span);
            d.out.churn_ms.push(ms);
        }
    }
    tracer.close(root);
    Ok((d.out, due_times))
}

fn paced_requests(p: &Paced) -> usize {
    (p.secs * p.rate / p.batch as f64).floor() as usize
}

fn paced_posts(p: &Paced) -> usize {
    paced_requests(p) * p.batch
}

fn paced_phase(d: &mut Generator, p: &Paced, start: usize, due_times: &mut DueTimes) {
    let interval = Duration::from_secs_f64(p.batch as f64 / p.rate);
    let mut off = Tracer::new(false);
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut at = start;
    for k in 0..paced_requests(p) {
        if d.broken {
            break;
        }
        let due = t0 + interval * k as u32;
        d.send_due_churn(at, true, &mut off, None);
        let free = Instant::now();
        if free < due {
            std::thread::sleep(due - free);
        }
        let sent = Instant::now();
        d.out
            .lag_ms
            .push(sent.duration_since(due.max(free)).as_secs_f64() * 1e3);
        let end = at + p.batch;
        d.send_batch(at, end);
        d.out
            .ingest_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        for post in &d.traffic.posts[at..end] {
            due_times.insert(post.id, due);
        }
        at = end;
    }
}

/// Long-poll the watched user's stream until a poll that began after the
/// ingest side finished returns nothing. Returns `(seq, post id, arrival)`.
fn read_stream(
    addr: SocketAddr,
    user: u32,
    done: &AtomicBool,
) -> Result<Vec<(u64, u64, Instant)>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut items: Vec<(u64, u64, Instant)> = Vec::with_capacity(1 << 16);
    let mut next = 0u64;
    loop {
        let finishing = done.load(Ordering::SeqCst);
        let before = items.len();
        let target = format!("/stream/{user}?from={next}&max=1000000&wait_ms=200");
        let status = conn.stream(&target, &mut |chunk| {
            let at = Instant::now();
            let mut fields = chunk.split(|&b| b == b'\t');
            let mut num = || {
                fields
                    .next()
                    .and_then(|f| std::str::from_utf8(f).ok())
                    .and_then(|f| f.parse::<u64>().ok())
            };
            if let (Some(seq), Some(id)) = (num(), num()) {
                items.push((seq, id, at));
                next = seq + 1;
            }
        })?;
        if status != 200 {
            return Err(format!("GET /stream/{user}: HTTP {status}"));
        }
        if finishing && items.len() == before {
            return Ok(items);
        }
    }
}
