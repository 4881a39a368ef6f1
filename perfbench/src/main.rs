//! The repository benchmark: `firehose serve` driven over loopback.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --server <path>
//! perfbench --smoke --server <path>
//! ```
//!
//! An untraced run (`--trace 0`) starts the served binary as a child
//! process, drives it from one ingest connection and one long-poll reader,
//! checks every response against an in-process replay, and prints the
//! end-to-end metrics. A traced run (`--trace 1`) replays one fixed request
//! log through each layer's public entry point and prints the per-layer
//! ledger. The last stdout line is always the JSON result. See README.md.

mod inputs;
mod layers;
mod load;
mod reference;
mod stats;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use firehose_datagen::{SocialGenConfig, SyntheticSocialGraph};

use crate::inputs::{Deployment, Traffic, TrafficSpec};
use crate::load::{Paced, Plan};
use crate::stats::{median, percentile, result_line, supported_tail, Metrics};
use crate::trace::Tracer;
use crate::wire::{ServeArgs, ServerProc};

/// Posts sent before any timed phase: about twice λt of stream time, so
/// every window is full when timing starts.
const WARMUP_POSTS: usize = 2_048;

/// Share of `--seconds` the paced phase lasts.
const PACED_SHARE: f64 = 0.6;

/// Every timed figure is the median over this many consecutive slices of
/// its phase, so a few seconds of stall on a shared host move one slice,
/// not the figure.
const SLICES: usize = 8;

/// One named workload: a deployment plus a traffic shape.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub users: usize,
    pub strategy: &'static str,
    pub traffic: TrafficSpec,
    /// Paced phase: posts per second (about half the parent's closed-loop
    /// rate, fixed) and posts per request.
    pub paced_rate: f64,
    pub paced_batch: usize,
    /// Closed-loop posts per second of `--seconds`: sized so the closed
    /// loop takes about 40% of the run at the parent's rate. The paced
    /// phase takes the other 60%.
    pub closed_posts_per_s: f64,
    /// Posts after the warm-up that the traced run replays per layer.
    pub traced_posts: usize,
    /// Server starts per untraced run; `setup_s` is their median.
    pub setups: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fanout_5k",
        users: 5_000,
        strategy: "shared",
        traffic: TrafficSpec {
            churn_every: None,
            probe_ops: 1_100,
        },
        paced_rate: 300.0,
        paced_batch: 4,
        closed_posts_per_s: 1_200.0,
        traced_posts: 8_192,
        setups: 3,
    },
    Workload {
        name: "churn_sharded_300",
        users: 300,
        strategy: "sharded:2",
        traffic: TrafficSpec {
            churn_every: Some(30),
            probe_ops: 0,
        },
        paced_rate: 1_500.0,
        paced_batch: 8,
        closed_posts_per_s: 3_200.0,
        traced_posts: 16_384,
        setups: 9,
    },
    Workload {
        name: "wire_light_300",
        users: 300,
        strategy: "shared",
        traffic: TrafficSpec {
            churn_every: None,
            probe_ops: 1_100,
        },
        paced_rate: 6_000.0,
        paced_batch: 32,
        closed_posts_per_s: 11_000.0,
        traced_posts: 131_072,
        setups: 9,
    },
];

/// End-to-end metrics, in print order, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ingest_posts_per_s", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("delivery_p50_ms", "ms"),
    ("churn_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    server: PathBuf,
    run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        server: PathBuf::from(".bench_build/release/firehose"),
        run_dir: PathBuf::from(".bench_run"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--server" => args.server = PathBuf::from(value),
            "--run-dir" => args.run_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything one run needs besides its workload.
pub struct Ctx {
    pub server: PathBuf,
    pub run_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// Inputs of one workload for one seed.
pub struct Prepared {
    pub deployment: Deployment,
    pub traffic: Traffic,
}

impl Ctx {
    fn social(&self) -> SocialGenConfig {
        if self.smoke {
            SocialGenConfig::test_scale()
        } else {
            SocialGenConfig::bench_scale()
        }
    }

    /// Smoke runs keep the workload's shape at test scale: fewer users
    /// and posts, lower rates.
    pub fn shrink(&self, w: &Workload) -> Workload {
        if !self.smoke {
            return *w;
        }
        Workload {
            users: (w.users / 25).max(8),
            traffic: TrafficSpec {
                churn_every: w.traffic.churn_every,
                probe_ops: w.traffic.probe_ops / 20,
            },
            paced_rate: 2_000.0,
            paced_batch: 4,
            traced_posts: 2_048,
            setups: 2,
            ..*w
        }
    }

    /// Inputs for `w` with a stream of at least `posts` posts.
    pub fn prepare(&self, w: &Workload, posts: usize) -> Result<Prepared, String> {
        let social = SyntheticSocialGraph::generate(self.social());
        let dir = self
            .run_dir
            .join(if self.smoke { "smoke" } else { "bench" });
        let deployment = inputs::deployment(&social, w.users, &dir)?;
        let traffic = inputs::traffic(&social, &deployment, &w.traffic, posts, self.seed)?;
        Ok(Prepared {
            deployment,
            traffic,
        })
    }

    pub fn start_server(&self, w: &Workload, d: &Deployment) -> Result<(ServerProc, f64), String> {
        let log = self.run_dir.join(format!("serve-{}.log", w.name));
        ServerProc::start(&ServeArgs {
            binary: &self.server,
            graph: &d.graph_path,
            subscriptions: &d.subs_path,
            strategy: w.strategy,
            log: &log,
        })
    }

    pub fn warmup_posts(&self) -> usize {
        if self.smoke {
            512
        } else {
            WARMUP_POSTS
        }
    }
}

/// The outcome of one run: the four keys of the result line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The run-validity record: host and generator facts, plus the latency
/// tails, which are too noisy on a shared host to gate on. A tail without
/// ten samples beyond it is `null`.
fn validity(out: &mut load::Outcome, interval_ms: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lag_p99_ms = percentile(&mut out.lag_ms, 0.99);
    let behind = lag_p99_ms > 0.25 * interval_ms;
    if behind {
        eprintln!("[perfbench] WARNING: the generator fell behind its paced schedule");
    }
    let mut tails = Vec::new();
    for (name, samples) in [
        ("ingest", &mut out.ingest_ms),
        ("delivery", &mut out.delivery_ms),
        ("churn", &mut out.churn_ms),
    ] {
        let n = samples.len();
        tails.push(format!("\"{name}_samples\": {n}"));
        for (p, label) in [(0.9, "p90"), (0.99, "p99")] {
            let value = if supported_tail(n, p) {
                percentile(samples, p)
            } else {
                f64::NAN
            };
            tails.push(format!(
                "\"{name}_{label}_ms\": {}",
                stats::json_number(value)
            ));
        }
    }
    let threads = load::GENERATOR_THREADS;
    format!(
        "{{\"validity\": {{\"host_cores\": {cores}, \"kernel\": \"{}\", \
         \"generator_threads\": {threads}, \"generator_connections\": {threads}, \
         \"generator_lag_p99_ms\": {}, \"paced_interval_ms\": {}, \
         \"generator_behind_schedule\": {behind}, \"closed_loop_posts\": {}, {}}}}}",
        firehose_simhash::active_kernel().name(),
        stats::json_number(lag_p99_ms),
        stats::json_number(interval_ms),
        out.closed_posts,
        tails.join(", ")
    )
}

/// Posts per second: the median over [`SLICES`] consecutive slices of the
/// closed loop's batches. `marks` holds (posts sent, seconds) after each
/// batch.
fn sliced_rate(marks: &[(usize, f64)]) -> f64 {
    let mut rates = Vec::with_capacity(SLICES);
    let mut prev = (0usize, 0.0f64);
    for k in 1..=SLICES {
        let Some(&mark) = (k * marks.len() / SLICES)
            .checked_sub(1)
            .and_then(|i| marks.get(i))
        else {
            continue;
        };
        if mark.0 > prev.0 {
            rates.push((mark.0 - prev.0) as f64 / (mark.1 - prev.1));
        }
        prev = mark;
    }
    eprintln!("[perfbench] slice rates {rates:.0?}");
    median(&mut rates)
}

/// Percentile `p` of time-ordered `samples`: the median over [`SLICES`]
/// consecutive slices of each slice's own percentile.
fn sliced_percentile(samples: &[f64], p: f64) -> f64 {
    let n = samples.len();
    let mut values: Vec<f64> = (0..SLICES)
        .map(|k| samples[k * n / SLICES..(k + 1) * n / SLICES].to_vec())
        .filter(|slice| !slice.is_empty())
        .map(|mut slice| percentile(&mut slice, p))
        .collect();
    median(&mut values)
}

/// Log the wall time since the run began to stderr.
pub fn stage(name: &str, since: std::time::Instant) {
    eprintln!(
        "[perfbench] {name} done at {:.2} s",
        since.elapsed().as_secs_f64()
    );
}

/// `--trace 0`: the end-to-end run.
fn run_untraced(ctx: &Ctx, w: &Workload) -> Result<RunResult, String> {
    let t = std::time::Instant::now();
    let plan = Plan {
        warmup_posts: ctx.warmup_posts(),
        closed_posts: (w.closed_posts_per_s * ctx.seconds) as usize,
        paced: Some(Paced {
            rate: w.paced_rate,
            batch: w.paced_batch,
            secs: ctx.seconds * PACED_SHARE,
        }),
    };
    let Prepared {
        deployment,
        traffic,
    } = ctx.prepare(w, plan.posts())?;
    stage("inputs", t);

    // Set-up: several starts, the last one serves the load.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..w.setups {
        let (s, secs) = ctx.start_server(w, &deployment)?;
        setups.push(secs);
        if i + 1 < w.setups {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("a workload needs at least one set-up")?;
    stage("set-ups", t);

    let probe = w.traffic.probe_ops > 0;
    let mut tracer = Tracer::new(false);
    let mut out = load::drive(
        server.addr,
        &traffic,
        deployment.watched,
        &plan,
        probe,
        &mut tracer,
    )?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.stop()?;
    stage("load", t);

    let expected = reference::replay(
        &deployment,
        &traffic,
        w.strategy,
        &out.log,
        out.warm_end,
        &mut Tracer::new(false),
    )?;
    stage("reference", t);
    let mut correct = out.failed == 0;
    if expected.digest != out.digest {
        correct = false;
        eprintln!("[perfbench] MISMATCH: response digest differs from the in-process replay");
    }
    if expected.watched != out.watched {
        correct = false;
        eprintln!(
            "[perfbench] MISMATCH: watched stream carried {} posts, reference {}",
            out.watched.len(),
            expected.watched.len()
        );
    }
    if let Some(e) = &out.first_error {
        eprintln!("[perfbench] first failure: {e}");
    }

    let mut m = Metrics::default();
    let mut values = vec![
        median(&mut setups),
        sliced_rate(&out.closed_marks),
        sliced_percentile(&out.ingest_ms, 0.5),
        sliced_percentile(&out.delivery_ms, 0.5),
        sliced_percentile(&out.churn_ms, 0.5),
        peak_rss_mb,
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values.drain(..)) {
        m.push(name, unit, value);
    }
    let interval_ms = w.paced_batch as f64 / w.paced_rate * 1e3;
    println!("{}", validity(&mut out, interval_ms));
    Ok(RunResult {
        correct,
        attempted: out.attempted,
        failed: out.failed,
        metrics: m,
    })
}

fn run(ctx: &Ctx, w: &Workload, traced: bool) -> Result<RunResult, String> {
    let w = ctx.shrink(w);
    std::fs::create_dir_all(&ctx.run_dir).map_err(|e| format!("{}: {e}", ctx.run_dir.display()))?;
    if traced {
        layers::run_traced(ctx, &w)
    } else {
        run_untraced(ctx, &w)
    }
}

/// `--smoke`: every workload, untraced and traced, at test scale. Fails
/// unless each run is correct and prints every declared metric with a
/// finite value and its unit.
fn smoke(ctx: &Ctx) -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    for w in &WORKLOADS {
        for traced in [false, true] {
            let r = run(ctx, w, traced)?;
            println!(
                "{}",
                result_line(r.correct, r.attempted, r.failed, &r.metrics)
            );
            if !r.correct {
                return Err(format!(
                    "{} (trace {traced}): correctness gate failed",
                    w.name
                ));
            }
            let names: &[(&str, &str)] = if traced {
                &layers::PER_LAYER
            } else {
                &END_TO_END
            };
            if r.metrics.0.len() != names.len() {
                return Err(format!("{}: unexpected extra metrics", w.name));
            }
            for &(name, unit) in names {
                match r.metrics.0.iter().find(|m| m.name == name) {
                    Some(m) if m.unit == unit && m.value.is_finite() => {}
                    _ => return Err(format!("{}: metric {name} [{unit}] missing", w.name)),
                }
                if !declared.is_empty() && !declared.contains(&format!("\"name\": \"{name}\"")) {
                    return Err(format!("metric {name} is not declared in BENCHMARK.json"));
                }
            }
        }
    }
    eprintln!("[perfbench] smoke passed: 3 workloads, correctness gate and every metric present");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(&args.server).is_file() {
        eprintln!(
            "perfbench: server binary {} not found",
            args.server.display()
        );
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        server: args.server,
        run_dir: args.run_dir,
        seed: args.seed,
        seconds: if args.smoke { 1.0 } else { args.seconds },
        smoke: args.smoke,
    };
    if ctx.smoke {
        return match smoke(&ctx) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(name) = args.workload else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
        eprintln!("perfbench: unknown workload {name:?}");
        return ExitCode::from(2);
    };
    match run(&ctx, w, args.trace) {
        Ok(r) => {
            println!(
                "{}",
                result_line(r.correct, r.attempted, r.failed, &r.metrics)
            );
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
