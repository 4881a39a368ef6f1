//! The correctness gate: replay the exact request log through an
//! in-process `FirehoseService` with the served configuration and render
//! the responses the server must have sent.

use std::time::Instant;

use firehose_core::engine::AlgorithmKind;
use firehose_core::multi::{MultiDecision, Subscriptions};
use firehose_core::service::{ChurnOp, FirehoseService, StrategyKind};
use firehose_core::{EngineConfig, Thresholds};
use firehose_stream::Post;

use crate::inputs::{Deployment, Traffic};
use crate::load::Req;
use crate::stats::Digest;
use crate::trace::Tracer;

/// The engine configuration `firehose serve` runs with its defaults.
pub fn served_config() -> EngineConfig {
    EngineConfig::builder(Thresholds::paper_defaults()).build()
}

/// A service configured the way `firehose serve --strategy <strategy>` is.
pub fn service(deployment: &Deployment, strategy: &str) -> Result<FirehoseService, String> {
    let strategy: StrategyKind = strategy.parse()?;
    let subscriptions = Subscriptions::new(deployment.graph.node_count(), deployment.sets.clone())
        .map_err(|e| e.to_string())?;
    FirehoseService::builder(&deployment.graph, subscriptions)
        .strategy(strategy)
        .algorithm(AlgorithmKind::UniBin)
        .engine_config(served_config())
        .build()
        .map_err(|e| e.to_string())
}

/// The `/ingest` response line for one decision.
pub fn decision_line(out: &mut Vec<u8>, post: &Post, decision: &MultiDecision) {
    use std::io::Write as _;
    let _ = write!(out, "{}\t", post.id);
    if decision.delivered_to.is_empty() {
        out.push(b'-');
    }
    for (i, user) in decision.delivered_to.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        let _ = write!(out, "{user}");
    }
    out.push(b'\n');
}

/// The `/churn` response line for one op, applied to `service`.
pub fn apply_churn(service: &mut FirehoseService, op: &ChurnOp) -> String {
    let outcome = match op {
        ChurnOp::Subscribe(u, a) => service.subscribe(*u, *a).map(|c| format!("ok\t{c}")),
        ChurnOp::Unsubscribe(u, a) => service.unsubscribe(*u, *a).map(|c| format!("ok\t{c}")),
        ChurnOp::AddUser(authors) => service
            .add_user(authors.iter().copied())
            .map(|uid| format!("ok\t{uid}")),
        ChurnOp::RemoveUser(u) => service.remove_user(*u).map(|()| "ok".to_string()),
    };
    match outcome {
        Ok(line) => format!("{line}\n"),
        Err(e) => format!("err\t{e}\n"),
    }
}

/// What the server must have answered for `log`, and what answering cost
/// the in-process service.
pub struct Replay {
    pub digest: Digest,
    /// Post ids delivered to the watched user, in order.
    pub watched: Vec<u64>,
    /// Deliveries over the whole log.
    pub deliveries: u64,
    pub build_ms: f64,
    /// Time in `process_batch` from request `warm_end` on.
    pub process_ns: u64,
    /// Time of each churn op from request `warm_end` on.
    pub apply_us: Vec<f64>,
}

/// Replay `log` through a fresh service, recording a span per call from
/// request `warm_end` on.
pub fn replay(
    deployment: &Deployment,
    traffic: &Traffic,
    strategy: &str,
    log: &[Req],
    warm_end: usize,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let span = tracer.open("service.build", None, 0);
    let t = Instant::now();
    let mut service = service(deployment, strategy)?;
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);

    let watched = deployment.watched;
    let mut r = Replay {
        digest: Digest::default(),
        watched: Vec::new(),
        deliveries: 0,
        build_ms,
        process_ns: 0,
        apply_us: Vec::new(),
    };
    let root = tracer.open("service", None, warm_end as u64);
    let mut body = Vec::new();
    for (i, req) in log.iter().enumerate() {
        let measured = i >= warm_end;
        match *req {
            Req::Batch(start, end) => {
                body.clear();
                let (mut deliveries, mut hits) = (0u64, Vec::new());
                let span = measured.then(|| tracer.open("service.process_batch", root, i as u64));
                let t = Instant::now();
                service
                    .process_batch(traffic.posts[start..end].iter().cloned(), |post, d| {
                        decision_line(&mut body, post, d);
                        deliveries += d.delivered_to.len() as u64;
                        if d.delivered_to.binary_search(&watched).is_ok() {
                            hits.push(post.id);
                        }
                    })
                    .map_err(|e| format!("reference batch {start}..{end}: {e}"))?;
                if let Some(span) = span {
                    r.process_ns += t.elapsed().as_nanos() as u64;
                    tracer.close(span);
                }
                r.digest.update(&body);
                r.deliveries += deliveries;
                r.watched.extend(hits);
            }
            Req::Churn(op) => {
                let span = measured.then(|| tracer.open("service.apply", root, i as u64));
                let t = Instant::now();
                let line = apply_churn(&mut service, &traffic.ops[op].op);
                if let Some(span) = span {
                    r.apply_us.push(t.elapsed().as_secs_f64() * 1e6);
                    tracer.close(span);
                }
                r.digest.update(line.as_bytes());
            }
        }
    }
    tracer.close(root);
    Ok(r)
}
