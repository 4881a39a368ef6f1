//! Generated inputs: a fixed deployment per workload and seeded traffic.
//!
//! The deployment — the bench-scale social graph, its λa similarity graph
//! and the subscription table — is a property of the workload and is the
//! same for every seed, so a workload names one system configuration. The
//! seed draws the traffic: the post stream and the churn trace. Generating
//! inputs is never timed; the similarity graph is cached on disk under the
//! run directory because it does not depend on the seed.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use firehose_core::service::ChurnOp;
use firehose_datagen::{
    generate_churn_trace, generate_subscriptions, ChurnEvent, ChurnGenConfig, ChurnTraceEntry,
    SubscriptionGenConfig, SyntheticSocialGraph, Workload, WorkloadConfig,
};
use firehose_graph::io as graph_io;
use firehose_graph::{build_similarity_graph_parallel, UndirectedGraph};
use firehose_stream::{corpus, hours, AuthorId, Post};

/// The paper's author-similarity threshold λa.
pub const LAMBDA_A: f64 = 0.7;

/// What the served process loads: written once per run directory.
pub struct Deployment {
    pub graph: Arc<UndirectedGraph>,
    pub graph_path: PathBuf,
    pub subs_path: PathBuf,
    pub sets: Vec<Vec<AuthorId>>,
    /// The user with the largest subscription set (lowest id on ties).
    pub watched: u32,
}

/// One churn op with its wire text.
pub struct ChurnEntry {
    /// Send once this many posts have been sent (`u64::MAX` for probe ops,
    /// which follow the stream).
    pub after_posts: u64,
    pub op: ChurnOp,
    pub line: String,
}

/// The seeded traffic: posts, their pre-rendered corpus lines, churn ops.
pub struct Traffic {
    pub posts: Vec<Post>,
    /// Corpus TSV of every post back to back; post `i` is
    /// `text[offsets[i]..offsets[i + 1]]`, so a batch body is one slice.
    text: Vec<u8>,
    offsets: Vec<usize>,
    /// In-stream ops (ascending `after_posts`) followed by probe ops.
    pub ops: Vec<ChurnEntry>,
    /// Index in `ops` of the first probe op.
    pub probe_start: usize,
}

impl Traffic {
    /// The `POST /ingest` body for posts `start..end`.
    pub fn body(&self, start: usize, end: usize) -> &[u8] {
        &self.text[self.offsets[start]..self.offsets[end]]
    }
}

/// A seed-independent derivation of one generator seed per input.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Write (or reuse) the deployment files for `users` users under `dir`.
pub fn deployment(
    social: &SyntheticSocialGraph,
    users: usize,
    dir: &Path,
) -> Result<Deployment, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let graph_path = dir.join("similarity.fhg");
    if !graph_path.exists() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let graph = build_similarity_graph_parallel(&social.graph, LAMBDA_A, threads);
        write_atomically(&graph_path, |w| graph_io::write_undirected(&graph, w))?;
    }
    let graph = Arc::new(load_graph(&graph_path)?);

    let sets = generate_subscriptions(
        social.author_count(),
        users,
        SubscriptionGenConfig::default(),
    );
    let subs_path = dir.join(format!("subscriptions-{users}.txt"));
    write_atomically(&subs_path, |w| {
        for set in &sets {
            let line: Vec<String> = set.iter().map(|a| a.to_string()).collect();
            writeln!(
                w,
                "{}",
                if line.is_empty() {
                    "-".to_string()
                } else {
                    line.join(",")
                }
            )?;
        }
        Ok(())
    })?;
    let watched = (0..sets.len())
        .max_by_key(|&u| (sets[u].len(), std::cmp::Reverse(u)))
        .ok_or("a deployment needs at least one user")? as u32;
    Ok(Deployment {
        graph,
        graph_path,
        subs_path,
        sets,
        watched,
    })
}

/// Read the served similarity graph the way `firehose serve` does.
pub fn load_graph(path: &Path) -> Result<UndirectedGraph, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    graph_io::read_undirected(&mut BufReader::new(file)).map_err(|e| e.to_string())
}

fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let fail = |e: std::io::Error| format!("{}: {e}", tmp.display());
    let mut w = BufWriter::new(File::create(&tmp).map_err(fail)?);
    write(&mut w).map_err(fail)?;
    w.flush().map_err(fail)?;
    drop(w);
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Traffic shape of one workload.
#[derive(Clone, Copy)]
pub struct TrafficSpec {
    /// One in-stream churn op per this many posts (`None`: no churn).
    pub churn_every: Option<u64>,
    /// Churn ops sent after the stream.
    pub probe_ops: usize,
}

/// Draw the post stream (at least `posts` posts) and churn ops for `seed`.
pub fn traffic(
    social: &SyntheticSocialGraph,
    deployment: &Deployment,
    spec: &TrafficSpec,
    posts: usize,
    seed: u64,
) -> Result<Traffic, String> {
    let config = WorkloadConfig::default();
    let per_hour = social.author_count() as f64 * config.posts_per_author_per_day / 24.0;
    // Arrivals are random: a fifth more stream time than the mean need.
    let stream_hours = (posts as f64 * 1.2 / per_hour).ceil() as u64 + 1;
    let workload = Workload::generate(
        social,
        WorkloadConfig {
            seed: derive(seed, 1),
            duration: hours(stream_hours),
            ..config
        },
    );
    let posts = workload.posts;
    let mut text = Vec::with_capacity(posts.len() * 96);
    let mut offsets = Vec::with_capacity(posts.len() + 1);
    for post in &posts {
        offsets.push(text.len());
        corpus::write_posts(std::slice::from_ref(post), &mut text).map_err(|e| e.to_string())?;
    }
    offsets.push(text.len());

    let authors = social.author_count();
    let mut ops = Vec::new();
    if let Some(every) = spec.churn_every {
        let n = posts.len() as u64 / every;
        let trace = churn_trace(authors, &deployment.sets, posts.len() as u64, n, seed, 2);
        ops.extend(entries(trace, deployment.watched, false)?);
    }
    let probe_start = ops.len();
    if spec.probe_ops > 0 {
        let trace = churn_trace(authors, &deployment.sets, 1, spec.probe_ops as u64, seed, 3);
        ops.extend(entries(trace, deployment.watched, true)?);
    }
    Ok(Traffic {
        posts,
        text,
        offsets,
        ops,
        probe_start,
    })
}

fn churn_trace(
    authors: usize,
    sets: &[Vec<AuthorId>],
    post_count: u64,
    ops: u64,
    seed: u64,
    stream: u64,
) -> Vec<ChurnTraceEntry> {
    generate_churn_trace(
        authors,
        sets,
        post_count,
        ChurnGenConfig {
            seed: derive(seed, stream),
            ops: ops as usize,
            ..ChurnGenConfig::default()
        },
    )
}

/// Convert a generated trace to wire ops. Removing the watched user would
/// end the stream the benchmark reads, so those ops are dropped.
fn entries(
    trace: Vec<ChurnTraceEntry>,
    watched: u32,
    probe: bool,
) -> Result<Vec<ChurnEntry>, String> {
    trace
        .into_iter()
        .filter(|e| !matches!(e.event, ChurnEvent::RemoveUser(u) if u == watched as usize))
        .map(|e| {
            let op: ChurnOp = e.event.to_string().parse()?;
            Ok(ChurnEntry {
                after_posts: if probe { u64::MAX } else { e.after_posts },
                line: format!("{op}\n"),
                op,
            })
        })
        .collect()
}
