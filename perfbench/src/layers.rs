//! `--trace 1`: the per-layer ledger.
//!
//! One fixed request log (warm-up, a fixed number of posts in 256-post
//! batches with their churn ops, then the churn probe) is replayed through
//! each layer's public entry point, bottom up the way a post crosses them:
//!
//! | layer | entry point |
//! |---|---|
//! | `graph` | `graph_io::read_undirected` on the served file |
//! | `simhash` | `Post::to_record`, `hamming::filter_within_into` |
//! | `engine` | one UniBin `Diversifier::offer_record` |
//! | `multi` | `MultiDiversifier::offer_batch` and its churn methods |
//! | `service` | `FirehoseService::process_batch` and churn |
//! | `net` | `POST /ingest`, `POST /churn` to `firehose serve` over loopback |
//!
//! Spans wrap each call (one batch or one churn op) from outside; the
//! warm-up is replayed untimed. A layer's self time is its replay time per
//! post minus that of the layer beneath it.

use std::sync::Arc;
use std::time::Instant;

use firehose_core::engine::{build_engine, AlgorithmKind};
use firehose_core::multi::{MultiDiversifier, ShardedMulti, SharedMulti, Subscriptions};
use firehose_core::service::{ChurnOp, StrategyKind};
use firehose_simhash::hamming::filter_within_into;
use firehose_stream::PostRecord;

use crate::inputs::{self, Deployment, Traffic};
use crate::load::{self, Outcome, Plan, Req};
use crate::reference;
use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use crate::{Ctx, Prepared, RunResult, Workload};

/// Per-layer metrics, in print order, with units.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("graph.load_ms", "ms"),
    ("simhash.fingerprint_ns_per_post", "ns"),
    ("simhash.scan_ns_per_fp", "ns"),
    ("engine.offer_ns_per_post", "ns"),
    ("engine.comparisons_per_post", "count"),
    ("engine.emitted_ratio", "ratio"),
    ("multi.build_ms", "ms"),
    ("multi.offer_ns_per_post", "ns"),
    ("multi.engine_offers_per_post", "count"),
    ("multi.comparisons_per_post", "count"),
    ("multi.deliveries_per_post", "count"),
    ("multi.deliveries_per_engine_offer", "ratio"),
    ("multi.churn_op_us", "us"),
    ("multi.engines_spawned_per_op", "count"),
    ("multi.warm_start_ratio", "ratio"),
    ("multi.peak_memory_mb", "MB"),
    ("service.build_ms", "ms"),
    ("service.process_ns_per_post", "ns"),
    ("service.self_ns_per_post", "ns"),
    ("service.apply_us", "us"),
    ("service.refused_ratio", "ratio"),
    ("net.request_ns_per_post", "ns"),
    ("net.self_ns_per_post", "ns"),
    ("net.request_bytes_per_post", "B"),
    ("net.response_bytes_per_post", "B"),
    ("net.delivery_lines_per_post", "count"),
    ("net.delivery_lines_unread_ratio", "ratio"),
    ("net.churn_request_us", "us"),
    ("net.protocol_errors", "count"),
    ("trace_overhead_pct", "%"),
];

const MB: f64 = 1024.0 * 1024.0;

/// The measured part of a log: batches and churn ops after the warm-up.
struct Segment<'a> {
    log: &'a [Req],
    warm_end: usize,
    posts: u64,
}

impl Segment<'_> {
    fn measured(&self, i: usize) -> bool {
        i >= self.warm_end
    }
}

pub fn run_traced(ctx: &Ctx, w: &Workload) -> Result<RunResult, String> {
    let plan = Plan {
        warmup_posts: ctx.warmup_posts(),
        closed_posts: w.traced_posts,
        paced: None,
    };
    let Prepared {
        deployment,
        traffic,
    } = ctx.prepare(w, plan.posts())?;
    let mut tracer = Tracer::new(true);
    let mut m = Metrics::default();

    // graph: the served file, read as the server reads it.
    let mut loads = Vec::new();
    for _ in 0..3 {
        let span = tracer.open("graph.read_undirected", None, 0);
        let t = Instant::now();
        inputs::load_graph(&deployment.graph_path)?;
        loads.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
    }
    m.push("graph.load_ms", "ms", median(&mut loads));

    // net, untraced then traced, over the same fixed log.
    let probe = w.traffic.probe_ops > 0;
    let untraced = net_replay(
        ctx,
        w,
        &deployment,
        &traffic,
        &plan,
        probe,
        &mut Tracer::new(false),
    )?;
    let net = net_replay(ctx, w, &deployment, &traffic, &plan, probe, &mut tracer)?;
    if net.log != untraced.log {
        return Err("the traced replay sent a different request log".into());
    }
    let seg = Segment {
        log: &net.log,
        warm_end: net.warm_end,
        posts: net.closed_posts as u64,
    };

    simhash_layer(&traffic, &seg, &mut tracer, &mut m);
    engine_layer(&deployment, &traffic, &seg, &mut tracer, &mut m);
    multi_layer(&deployment, &traffic, w.strategy, &seg, &mut tracer, &mut m)?;
    // service: the in-process replay that is also the correctness gate.
    let mut service = reference::replay(
        &deployment,
        &traffic,
        w.strategy,
        seg.log,
        seg.warm_end,
        &mut tracer,
    )?;
    let process = service.process_ns as f64 / seg.posts as f64;
    m.push("service.build_ms", "ms", service.build_ms);
    m.push("service.process_ns_per_post", "ns", process);
    m.push(
        "service.self_ns_per_post",
        "ns",
        process - m.get("multi.offer_ns_per_post").unwrap_or(f64::NAN),
    );
    m.push("service.apply_us", "us", median(&mut service.apply_us));

    // net metrics from the traced replay.
    let posts = seg.posts as f64;
    let request_ns = net.closed_ingest_ns as f64 / posts;
    let shed = health_count(&net.healthz, "shed")
        + health_count(&net.healthz, "rejected")
        + health_count(&net.healthz, "rate_limited");
    m.push(
        "service.refused_ratio",
        "ratio",
        shed / health_count(&net.healthz, "posts_ingested").max(1.0),
    );
    m.push("net.request_ns_per_post", "ns", request_ns);
    m.push(
        "net.self_ns_per_post",
        "ns",
        request_ns - m.get("service.process_ns_per_post").unwrap_or(f64::NAN),
    );
    m.push(
        "net.request_bytes_per_post",
        "B",
        net.closed_bytes_sent as f64 / posts,
    );
    m.push(
        "net.response_bytes_per_post",
        "B",
        net.closed_bytes_received as f64 / posts,
    );
    m.push(
        "net.delivery_lines_per_post",
        "count",
        net.closed_delivery_lines as f64 / posts,
    );
    let dropped = prom_value(&net.metrics, "firehose_net_deliveries_dropped_total");
    m.push(
        "net.delivery_lines_unread_ratio",
        "ratio",
        dropped / (service.deliveries as f64).max(1.0),
    );
    let mut churn_us: Vec<f64> = net.churn_ms.iter().map(|ms| ms * 1e3).collect();
    m.push("net.churn_request_us", "us", median(&mut churn_us));
    m.push(
        "net.protocol_errors",
        "count",
        prom_value(&net.metrics, "firehose_net_protocol_errors_total"),
    );
    let rate = |o: &Outcome| o.closed_posts as f64 / o.closed_secs;
    m.push(
        "trace_overhead_pct",
        "%",
        (rate(&untraced) - rate(&net)) / rate(&untraced) * 100.0,
    );

    // The gate: the server answered exactly what the service replay did.
    let mut correct = net.failed == 0 && untraced.failed == 0;
    if service.digest != net.digest || service.digest != untraced.digest {
        correct = false;
        eprintln!("[perfbench] MISMATCH: wire responses differ from the service replay");
    }
    if service.watched != net.watched {
        correct = false;
        eprintln!("[perfbench] MISMATCH: watched stream differs from the service replay");
    }
    for e in [&untraced.first_error, &net.first_error]
        .into_iter()
        .flatten()
    {
        eprintln!("[perfbench] first failure: {e}");
    }

    let spans = ctx
        .run_dir
        .join(format!("spans-{}-{}.jsonl", w.name, ctx.seed));
    tracer.write(&spans)?;
    eprintln!(
        "[perfbench] {} spans -> {}",
        tracer.spans.len(),
        spans.display()
    );

    // Print in the declared order.
    let mut ordered = Metrics::default();
    for (name, unit) in PER_LAYER {
        ordered.push(name, unit, m.get(name).unwrap_or(f64::NAN));
    }
    Ok(RunResult {
        correct,
        attempted: untraced.attempted + net.attempted,
        failed: untraced.failed + net.failed,
        metrics: ordered,
    })
}

fn net_replay(
    ctx: &Ctx,
    w: &Workload,
    deployment: &Deployment,
    traffic: &Traffic,
    plan: &Plan,
    probe: bool,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let (server, _) = ctx.start_server(w, deployment)?;
    let out = load::drive(
        server.addr,
        traffic,
        deployment.watched,
        plan,
        probe,
        tracer,
    )?;
    server.stop()?;
    Ok(out)
}

/// `Post::to_record` per post, then the λt-window scan per fingerprint.
fn simhash_layer(traffic: &Traffic, seg: &Segment, tracer: &mut Tracer, m: &mut Metrics) {
    let options = reference::served_config().simhash;
    let lambda = reference::served_config().thresholds;
    let mut records: Vec<PostRecord> = Vec::with_capacity(traffic.posts.len());
    let root = tracer.open("simhash", None, seg.warm_end as u64);
    let mut ns = 0u64;
    for (i, req) in seg.log.iter().enumerate() {
        if let Req::Batch(s, e) = *req {
            let span = seg
                .measured(i)
                .then(|| tracer.open("simhash.to_record", root, i as u64));
            let t = Instant::now();
            records.extend(traffic.posts[s..e].iter().map(|p| p.to_record(options)));
            if let Some(span) = span {
                ns += t.elapsed().as_nanos() as u64;
                tracer.close(span);
            }
        }
    }
    m.push(
        "simhash.fingerprint_ns_per_post",
        "ns",
        ns as f64 / seg.posts as f64,
    );

    // Scan each measured post's λt window (all earlier posts within λt).
    let fps: Vec<u64> = records.iter().map(|r| r.fingerprint).collect();
    let first = records.len() - seg.posts as usize;
    let mut out = Vec::new();
    let (mut start, mut scanned, mut ns) = (0usize, 0u64, 0u64);
    for (chunk, batch) in (first..records.len()).step_by(load::BATCH).enumerate() {
        let end = (batch + load::BATCH).min(records.len());
        let span = tracer.open("simhash.filter_within_into", root, chunk as u64);
        let t = Instant::now();
        for i in batch..end {
            let now = records[i].timestamp;
            while records[start].timestamp + lambda.lambda_t < now {
                start += 1;
            }
            out.clear();
            filter_within_into(fps[i], &fps[start..i], lambda.lambda_c, &mut out);
            scanned += (i - start) as u64;
        }
        ns += t.elapsed().as_nanos() as u64;
        tracer.close(span);
    }
    tracer.close(root);
    m.push(
        "simhash.scan_ns_per_fp",
        "ns",
        ns as f64 / scanned.max(1) as f64,
    );
}

/// Every post through one UniBin engine, pre-fingerprinted.
fn engine_layer(
    deployment: &Deployment,
    traffic: &Traffic,
    seg: &Segment,
    tracer: &mut Tracer,
    m: &mut Metrics,
) {
    let config = reference::served_config();
    let mut engine = build_engine(AlgorithmKind::UniBin, config, Arc::clone(&deployment.graph));
    let root = tracer.open("engine", None, seg.warm_end as u64);
    let mut ns = 0u64;
    let mut before = None;
    for (i, req) in seg.log.iter().enumerate() {
        let Req::Batch(s, e) = *req else { continue };
        let records: Vec<PostRecord> = traffic.posts[s..e]
            .iter()
            .map(|p| p.to_record(config.simhash))
            .collect();
        if seg.measured(i) && before.is_none() {
            before = Some(*engine.metrics());
        }
        let span = seg
            .measured(i)
            .then(|| tracer.open("engine.offer_record", root, i as u64));
        let t = Instant::now();
        for r in records {
            std::hint::black_box(engine.offer_record(r));
        }
        if let Some(span) = span {
            ns += t.elapsed().as_nanos() as u64;
            tracer.close(span);
        }
    }
    tracer.close(root);
    let after = *engine.metrics();
    let before = before.unwrap_or_default();
    let offered = (after.posts_processed - before.posts_processed).max(1) as f64;
    m.push(
        "engine.offer_ns_per_post",
        "ns",
        ns as f64 / seg.posts as f64,
    );
    m.push(
        "engine.comparisons_per_post",
        "count",
        (after.comparisons - before.comparisons) as f64 / offered,
    );
    m.push(
        "engine.emitted_ratio",
        "ratio",
        (after.posts_emitted - before.posts_emitted) as f64 / offered,
    );
}

fn build_multi(
    deployment: &Deployment,
    strategy: &str,
) -> Result<Box<dyn MultiDiversifier>, String> {
    let subs = Subscriptions::new(deployment.graph.node_count(), deployment.sets.clone())
        .map_err(|e| e.to_string())?;
    let config = reference::served_config();
    let graph = &deployment.graph;
    match strategy.parse::<StrategyKind>()? {
        StrategyKind::Shared => Ok(Box::new(SharedMulti::new(
            AlgorithmKind::UniBin,
            config,
            graph,
            subs,
        ))),
        StrategyKind::Sharded { shards } => Ok(Box::new(
            ShardedMulti::new(AlgorithmKind::UniBin, config, graph, subs, shards)
                .map_err(|e| e.to_string())?,
        )),
        other => Err(format!("no bare multi layer for strategy {other:?}")),
    }
}

fn multi_churn(multi: &mut dyn MultiDiversifier, op: &ChurnOp) -> Result<(), String> {
    let r = match op {
        ChurnOp::Subscribe(u, a) => multi.subscribe(*u, *a).map(|_| ()),
        ChurnOp::Unsubscribe(u, a) => multi.unsubscribe(*u, *a).map(|_| ()),
        ChurnOp::AddUser(authors) => multi.add_user(authors).map(|_| ()),
        ChurnOp::RemoveUser(u) => multi.remove_user(*u),
    };
    r.map_err(|e| format!("multi churn {op}: {e}"))
}

/// A bare `SharedMulti` / `ShardedMulti` driven through `MultiDiversifier`.
fn multi_layer(
    deployment: &Deployment,
    traffic: &Traffic,
    strategy: &str,
    seg: &Segment,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let span = tracer.open("multi.build", None, 0);
    let t = Instant::now();
    let mut multi = build_multi(deployment, strategy)?;
    m.push("multi.build_ms", "ms", t.elapsed().as_secs_f64() * 1e3);
    tracer.close(span);

    // Engine counters are summed over live engines, so churn that retires
    // an engine lowers them: count offers and comparisons per batch.
    let root = tracer.open("multi", None, seg.warm_end as u64);
    let (mut offer_ns, mut churn_us) = (0u64, Vec::new());
    let (mut deliveries, mut offers, mut comparisons, mut peak) = (0u64, 0u64, 0u64, 0u64);
    let mut churn_before = None;
    for (i, req) in seg.log.iter().enumerate() {
        let measured = seg.measured(i);
        if measured && churn_before.is_none() {
            churn_before = Some(multi.churn_stats());
        }
        match *req {
            Req::Batch(s, e) => {
                let before = multi.metrics();
                let span = measured.then(|| tracer.open("multi.offer_batch", root, i as u64));
                let t = Instant::now();
                let decisions = multi.offer_batch(&traffic.posts[s..e]);
                if let Some(span) = span {
                    offer_ns += t.elapsed().as_nanos() as u64;
                    tracer.close(span);
                }
                let after = multi.metrics();
                peak = peak.max(after.peak_memory_bytes);
                if measured {
                    deliveries += decisions
                        .iter()
                        .map(|d| d.delivered_to.len() as u64)
                        .sum::<u64>();
                    offers += after.posts_processed - before.posts_processed;
                    comparisons += after.comparisons - before.comparisons;
                }
            }
            Req::Churn(op) => {
                let span = measured.then(|| tracer.open("multi.churn", root, i as u64));
                let t = Instant::now();
                multi_churn(multi.as_mut(), &traffic.ops[op].op)?;
                if let Some(span) = span {
                    churn_us.push(t.elapsed().as_secs_f64() * 1e6);
                    tracer.close(span);
                }
            }
        }
    }
    tracer.close(root);
    let cb = churn_before.unwrap_or_default();
    let ca = multi.churn_stats();
    let posts = seg.posts as f64;
    let offers = offers as f64;
    let ops = (ca.ops_total() - cb.ops_total()).max(1) as f64;
    let spawned = (ca.engines_spawned - cb.engines_spawned) as f64;
    m.push("multi.offer_ns_per_post", "ns", offer_ns as f64 / posts);
    m.push("multi.engine_offers_per_post", "count", offers / posts);
    m.push(
        "multi.comparisons_per_post",
        "count",
        comparisons as f64 / posts,
    );
    m.push(
        "multi.deliveries_per_post",
        "count",
        deliveries as f64 / posts,
    );
    m.push(
        "multi.deliveries_per_engine_offer",
        "ratio",
        deliveries as f64 / offers.max(1.0),
    );
    m.push("multi.churn_op_us", "us", median(&mut churn_us));
    m.push("multi.engines_spawned_per_op", "count", spawned / ops);
    m.push(
        "multi.warm_start_ratio",
        "ratio",
        (ca.warm_starts - cb.warm_starts) as f64 / spawned.max(1.0),
    );
    m.push("multi.peak_memory_mb", "MB", peak as f64 / MB);
    Ok(())
}

/// A numeric field of the `/healthz` JSON document.
fn health_count(doc: &str, key: &str) -> f64 {
    doc.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| {
            s.chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect::<String>()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// The sum of a Prometheus series' samples (all label sets).
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}
