//! `Sh_*`: the persistent sharded runner for the shared-component strategy.
//!
//! [`ShardedMulti`] produces decisions, emissions, and counters **identical
//! to [`SharedMulti`](crate::multi::SharedMulti)** while running component
//! engines on N long-lived worker threads. Connected components never share
//! engines (the paper's Section 5 independence argument), so engines
//! partition by slot id (`cid % shards`) with no cross-shard traffic on the
//! offer path.
//!
//! ## Topology
//!
//! The control thread owns the component registry — routing tables,
//! component metadata, subscriptions, and the churn ledger — while the
//! engines themselves live in one of two places:
//!
//! * **deployed** (steady state): each live engine is owned by the worker
//!   for shard `cid % shards`, shipped over that shard's bounded SPSC
//!   request ring (the `ring` module); the registry's engine slots are
//!   empty.
//! * **parked**: an engine sits in its registry slot on the control
//!   thread.
//!
//! A churn op touches only the components of the one user it names (the
//! same independence argument), so churn is **component-local**: the
//! registry plans the op without reading an engine, the control thread
//! recalls just the released engines from their owning shards, the
//! *unchanged* sequential machinery runs (merge/split re-homing through
//! the warm-start path), and only what is parked afterwards — the
//! surviving released engines and the spawned ones — is redeployed. The
//! metrics cache and occupancy gauges follow incrementally. The full park
//! (every engine recalled) is kept for heals and `load_state` only.
//!
//! ## Offer protocol
//!
//! Per post, the control thread replays `SharedMulti::offer_into` exactly:
//! the sweep check runs first against the sequential `λt/2` schedule and, if
//! due, an in-band `Req::Sweep` marker is sent to **every** shard before
//! the post's records, so every engine's eviction counters match the
//! sequential run; the post is fingerprinted once on
//! the control thread (so SimHash pipelines with coverage scans on the
//! shards); one `Req::Offer` per owning component is routed to its shard;
//! responses carry exact per-engine counter deltas, which the control thread
//! folds into an O(1) metrics cache and the sequential live/peak ledger in
//! post order. [`offer_batch`](crate::multi::MultiDiversifier::offer_batch)
//! keeps a bounded window of posts in flight, which is where the
//! multi-core throughput comes from; `offer_into` runs the same pipeline
//! over a single post.
//!
//! ## Ring protocol
//!
//! Every request leaves the control thread through one `send`: push, ring
//! the shard's doorbell, and while the ring is full run the caller's own
//! drain and liveness check. Offers and sweeps are answered one response
//! each; the two requests with many answers — `Req::Recall` and
//! `Req::SaveBlobs` — end on the same `Resp::Done` FIFO barrier and are
//! awaited by one `collect` loop until every addressed shard has answered
//! or died, so nothing they send outlives them in a ring.
//!
//! ## Checkpoints
//!
//! `save_state` asks every shard to serialize its engines in parallel
//! (`Req::SaveBlobs`), waits for each shard's barrier, checks that one blob
//! arrived per live component (an `io::Error` otherwise), and stitches the
//! per-shard blob sets into one FHSNAP04 state keyed by component hash —
//! byte-identical to what `SharedMulti` writes, so sharded state restores
//! into a sequential strategy and vice versa (see `checkpoint.rs` strategy
//! families).
//!
//! ## Supervision
//!
//! A worker panic no longer poisons the engine. Each worker runs under
//! `catch_unwind` with a drop guard that flips its `ShardHealth` `dead`
//! flag while the stack unwinds; the control thread notices on its next
//! wait, counts the in-flight offers that died with the worker, respawns
//! the thread on fresh rings, recalls the surviving shards' engines,
//! rebuilds the lost ones empty, and redeploys. The episode is reported
//! through [`MultiDiversifier::take_shard_failure`] so a facade holding a
//! checkpoint can restore the lost window state and replay the lost posts
//! (`FirehoseService` does exactly that). An optional watchdog
//! ([`ShardedBuilder::watchdog`]) escalates *stalled* shards — a frozen
//! heartbeat with responses outstanding — through the same restart path.
//! Deterministic chaos schedules ([`ShardedBuilder::chaos`]) inject seeded
//! panics and stalls mid-request for resilience tests and
//! `resilience_bench`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use firehose_graph::UndirectedGraph;
use firehose_stream::{
    AuthorId, Post, PostRecord, ShardFault, ShardFaultKind, ShardFaultPlan, Timestamp,
};

use crate::config::EngineConfig;
use crate::engine::AlgorithmKind;
use crate::metrics::EngineMetrics;
use crate::multi::independent::CompactEngine;
use crate::multi::registry::{ComponentRegistry, Rewire, RewireDelta};
use crate::multi::ring::{spsc, Doorbell, SpscReceiver, SpscSender};
use crate::multi::subscriptions::{SubscriptionError, Subscriptions, UserId};
use crate::multi::{
    component_key, write_multi_state, BuildError, ChurnStats, MultiDecision, MultiDiversifier,
    ShardFailure,
};
use crate::obs::{MultiObs, ShardedObs};

/// Request/response ring capacity per shard. Pushes past a full ring drain
/// responses and retry, so this bounds memory, not correctness.
const RING_CAPACITY: usize = 1024;

/// Posts in flight at once in `offer_batch` before the control thread
/// stalls on the oldest.
const MAX_IN_FLIGHT: usize = 512;

/// Consecutive failed redeploys before the supervisor gives up. A worker
/// that cannot survive receiving its own engines is a deterministic crash
/// loop no amount of respawning fixes; chaos schedules stay far below this
/// because each respawn consumes one scheduled fault.
const MAX_RESTART_STORM: usize = 100;

/// Control → worker messages.
enum Req {
    /// Offer a fingerprinted record to the engine of component `cid`.
    Offer {
        seq: u64,
        cid: u32,
        record: PostRecord,
    },
    /// In-band eviction sweep marker: evict expired records from every
    /// engine on this shard, as of stream time `now`.
    Sweep { seq: u64, now: Timestamp },
    /// Take ownership of a component engine.
    Deploy {
        cid: u32,
        engine: Box<CompactEngine>,
    },
    /// Ship the named engines back ([`Resp::Engine`] each; names this
    /// shard does not own are skipped), then answer [`Resp::Done`].
    Recall { cids: Vec<u32> },
    /// Serialize every owned engine ([`Resp::Blob`] each), then answer
    /// [`Resp::Done`].
    SaveBlobs,
    /// Exit the worker loop.
    Shutdown,
}

/// Worker → control messages.
enum Resp {
    /// One engine consulted for `seq`.
    Offered {
        seq: u64,
        cid: u32,
        emitted: bool,
        delta: Counters,
    },
    /// The shard-wide sweep for `seq` completed.
    Swept { seq: u64, delta: Counters },
    /// A recalled engine.
    Engine {
        cid: u32,
        engine: Box<CompactEngine>,
    },
    /// FIFO barrier closing a [`Req::Recall`] or [`Req::SaveBlobs`]:
    /// everything this worker sent before it — engines and blobs, but also
    /// offer/sweep responses abandoned by a failure — has been received
    /// once this arrives.
    Done,
    /// One engine's serialized state.
    Blob {
        cid: u32,
        blob: std::io::Result<Vec<u8>>,
    },
}

/// Shared health record for one shard worker, written by the worker (or
/// its drop guard) and polled by the control thread.
#[derive(Default)]
struct ShardHealth {
    /// Set by the worker's drop guard while it unwinds from a panic, or by
    /// the watchdog when the shard is declared stalled. Once set, the
    /// control thread stops waiting on this shard and schedules a respawn.
    dead: AtomicBool,
    /// Set by the watchdog on a stall escalation: tells a live-but-stuck
    /// worker to exit instead of responding, and the supervisor to detach
    /// (never join) the old thread.
    abandoned: AtomicBool,
    /// Heartbeat: requests handled by the current worker lifetime, bumped
    /// after each one. A frozen value with responses outstanding is a
    /// stall.
    processed: AtomicU64,
}

impl ShardHealth {
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

fn any_dead(health: &[Arc<ShardHealth>]) -> bool {
    health.iter().any(|h| h.is_dead())
}

/// The six non-peak [`EngineMetrics`] counters. A response carries one
/// engine's exact change across an operation (`copies` is signed because
/// sweeps evict); the control side keeps their sum over the deployed
/// engines — added to at every deploy, subtracted at every local recall,
/// emptied by the full park, and advanced by response deltas while the
/// engines are away. That sum makes [`ShardedMulti::metrics`] O(1) —
/// required because the checkpoint manager polls it after every post.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    posts_processed: u64,
    posts_emitted: u64,
    comparisons: u64,
    insertions: u64,
    evictions: u64,
    copies: i64,
}

impl Counters {
    fn of(m: &EngineMetrics) -> Self {
        Self {
            posts_processed: m.posts_processed,
            posts_emitted: m.posts_emitted,
            comparisons: m.comparisons,
            insertions: m.insertions,
            evictions: m.evictions,
            copies: m.copies_stored as i64,
        }
    }

    fn diff(before: &EngineMetrics, after: &EngineMetrics) -> Self {
        let mut d = Self::of(after);
        d.sub(&Self::of(before));
        d
    }

    fn add(&mut self, o: &Self) {
        self.posts_processed += o.posts_processed;
        self.posts_emitted += o.posts_emitted;
        self.comparisons += o.comparisons;
        self.insertions += o.insertions;
        self.evictions += o.evictions;
        self.copies += o.copies;
    }

    fn sub(&mut self, o: &Self) {
        self.posts_processed -= o.posts_processed;
        self.posts_emitted -= o.posts_emitted;
        self.comparisons -= o.comparisons;
        self.insertions -= o.insertions;
        self.evictions -= o.evictions;
        self.copies -= o.copies;
    }
}

/// Saturating `u64 + i64`, mirroring the sequential ledger's saturating
/// arithmetic.
fn add_signed(base: u64, d: i64) -> u64 {
    if d >= 0 {
        base.saturating_add(d as u64)
    } else {
        base.saturating_sub(d.unsigned_abs())
    }
}

/// One shard's channel pair plus its wakeup doorbell.
struct ShardLink {
    req: SpscSender<Req>,
    resp: SpscReceiver<Resp>,
    bell: Arc<Doorbell>,
}

/// The one way a request reaches a shard: push it, then ring the doorbell.
/// While the ring is full, `on_full` runs the caller's drain and liveness
/// check — draining keeps the worker able to answer, so backpressure never
/// deadlocks — and the request comes back once it returns `false`.
fn send(link: &ShardLink, mut req: Req, mut on_full: impl FnMut() -> bool) -> Result<(), Req> {
    loop {
        match link.req.try_push(req) {
            Ok(()) => {
                link.bell.ring();
                return Ok(());
            }
            Err(r) => {
                req = r;
                if !on_full() {
                    return Err(req);
                }
                std::thread::yield_now();
            }
        }
    }
}

/// Send `reqs` — multi-response requests, each to the shard it names —
/// then receive until every addressed shard has closed its request with
/// [`Resp::Done`] or died. Dead shards are not addressed. Every other
/// response goes to `on_resp` with its shard, including while later
/// requests are still being pushed: earlier shards may already be
/// answering. Returns whether every addressed shard answered.
fn collect(
    links: &[ShardLink],
    health: &[Arc<ShardHealth>],
    reqs: impl IntoIterator<Item = (usize, Req)>,
    mut on_resp: impl FnMut(usize, Resp),
) -> bool {
    let mut done = vec![true; links.len()];
    for (shard, req) in reqs {
        if health[shard].is_dead() {
            continue;
        }
        done[shard] = false;
        // A shard that dies mid-push drops its request; the wait below then
        // sees it dead.
        let _ = send(&links[shard], req, || {
            !health[shard].is_dead() && {
                receive(links, &mut done, &mut on_resp);
                true
            }
        });
    }
    loop {
        // Snapshot deaths before draining: a worker's pre-death pushes are
        // visible once its dead flag is, so a drain that runs after seeing
        // the flag has popped everything it ever sent.
        let dead: Vec<bool> = health.iter().map(|h| h.is_dead()).collect();
        let progress = receive(links, &mut done, &mut on_resp);
        if done.iter().zip(&dead).all(|(&d, &x)| d || x) {
            return done.iter().all(|&d| d);
        }
        if !progress {
            std::thread::yield_now();
        }
    }
}

/// [`collect`]'s drain: pop every available response, marking a shard done
/// at its [`Resp::Done`] and handing everything else to `on_resp`. Returns
/// whether anything arrived.
fn receive(links: &[ShardLink], done: &mut [bool], on_resp: &mut impl FnMut(usize, Resp)) -> bool {
    let mut progress = false;
    for (shard, link) in links.iter().enumerate() {
        while let Some(resp) = link.resp.try_pop() {
            progress = true;
            match resp {
                Resp::Done => done[shard] = true,
                resp => on_resp(shard, resp),
            }
        }
    }
    progress
}

/// One post's in-flight bookkeeping: how many responses are still due, the
/// ordered live-copies delta, and which components emitted.
struct PendingPost {
    seq: u64,
    expected: usize,
    delta_copies: i64,
    emitted_cids: Vec<u32>,
}

/// Builder for [`ShardedMulti`]; see [`ShardedMulti::builder`].
pub struct ShardedBuilder<'g> {
    kind: AlgorithmKind,
    config: EngineConfig,
    graph: &'g UndirectedGraph,
    subscriptions: Subscriptions,
    warm_start: bool,
    shards: usize,
    watchdog: Option<Duration>,
    chaos: ShardFaultPlan,
}

impl ShardedBuilder<'_> {
    /// Whether engines spawned by churn inherit their predecessors'
    /// in-window records (default `true`); see
    /// [`IndependentBuilder::warm_start`](crate::multi::IndependentBuilder::warm_start).
    pub fn warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Number of worker shards (default 1). Must be at least 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Stall-watchdog deadline: when a shard owes responses and its
    /// heartbeat does not advance for this long, the worker is declared
    /// stalled, abandoned, and respawned. Unset (the default) disables
    /// stall detection; panics are always supervised.
    pub fn watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// Schedule deterministic thread-level chaos faults (seeded worker
    /// panics and stalls) for resilience testing. Each worker lifetime
    /// consumes at most one scheduled fault at spawn; once a shard's queue
    /// drains, its workers run clean. Stall faults need
    /// [`watchdog`](Self::watchdog) set, or the control thread waits
    /// forever.
    pub fn chaos(mut self, plan: ShardFaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Build the registry, spawn the workers, and deploy the engines.
    pub fn build(self) -> Result<ShardedMulti, BuildError> {
        if self.shards == 0 {
            return Err(BuildError::ZeroThreads);
        }
        let registry = ComponentRegistry::new(
            self.kind,
            self.config,
            Arc::new(self.graph.clone()),
            self.subscriptions,
            self.warm_start,
        );
        let mut chaos: Vec<VecDeque<ShardFault>> = vec![VecDeque::new(); self.shards];
        for fault in self.chaos.faults {
            if fault.shard < self.shards {
                chaos[fault.shard].push_back(fault);
            }
        }
        let mut links = Vec::with_capacity(self.shards);
        let mut workers = Vec::with_capacity(self.shards);
        let mut health = Vec::with_capacity(self.shards);
        for (shard, queue) in chaos.iter_mut().enumerate() {
            let fault = queue.pop_front();
            let (link, handle, h) = spawn_worker(shard, fault);
            links.push(link);
            workers.push(Some(handle));
            health.push(h);
        }
        let mut multi = ShardedMulti {
            registry,
            links,
            workers,
            health,
            chaos,
            watchdog: self.watchdog,
            shards: self.shards,
            deployed: false,
            seq: 0,
            cache: Counters::default(),
            re_homes: 0,
            restarts: 0,
            lost_offers: 0,
            outstanding: vec![0; self.shards],
            quarantined: vec![0; self.shards],
            failure: None,
            obs: None,
            shard_obs: Vec::new(),
        };
        // `ensure_deployed`, not `deploy`: a chaos fault with a tiny
        // threshold can kill a worker during this very first deployment.
        multi.ensure_deployed();
        Ok(multi)
    }
}

/// Spawn one shard worker on fresh rings, optionally carrying a scheduled
/// chaos fault for this lifetime.
fn spawn_worker(
    shard: usize,
    fault: Option<ShardFault>,
) -> (ShardLink, std::thread::JoinHandle<()>, Arc<ShardHealth>) {
    let (req_tx, req_rx) = spsc::<Req>(RING_CAPACITY);
    let (resp_tx, resp_rx) = spsc::<Resp>(RING_CAPACITY);
    let bell = Arc::new(Doorbell::new());
    let health = Arc::new(ShardHealth::default());
    let worker_bell = Arc::clone(&bell);
    let worker_health = Arc::clone(&health);
    let handle = std::thread::Builder::new()
        .name(format!("firehose-shard-{shard}"))
        .spawn(move || worker_loop(req_rx, resp_tx, worker_bell, worker_health, fault))
        .expect("spawn shard worker");
    (
        ShardLink {
            req: req_tx,
            resp: resp_rx,
            bell,
        },
        handle,
        health,
    )
}

/// The persistent sharded shared-component engine (`Sh_UniBin(4)` etc.).
pub struct ShardedMulti {
    /// Routing, metadata, subscriptions, churn ledger — always
    /// authoritative. Engine slots are empty while deployed.
    registry: ComponentRegistry,
    links: Vec<ShardLink>,
    /// Current worker handles; `None` briefly during a respawn.
    workers: Vec<Option<std::thread::JoinHandle<()>>>,
    /// Per-shard health records shared with the workers.
    health: Vec<Arc<ShardHealth>>,
    /// Remaining scheduled chaos faults per shard; each worker lifetime
    /// consumes at most one at spawn.
    chaos: Vec<VecDeque<ShardFault>>,
    /// Stall-detection deadline; `None` disables the watchdog.
    watchdog: Option<Duration>,
    shards: usize,
    /// Whether engines currently live on the workers.
    deployed: bool,
    /// Post sequence number, shared by offers and sweep markers.
    seq: u64,
    /// O(1) metrics cache: the deployed engines' summed counters.
    cache: Counters,
    /// Churn-spawned engines whose warm-start seeds came from a retired
    /// engine on a different shard (see `count_re_homes`).
    re_homes: u64,
    /// Worker respawns over this strategy's lifetime.
    restarts: u64,
    /// Offer/sweep responses lost to worker deaths (lifetime total).
    lost_offers: u64,
    /// Offer/sweep requests awaiting a response, per shard.
    outstanding: Vec<u64>,
    /// Ingest-guard quarantines attributed per shard.
    quarantined: Vec<u64>,
    /// Pending failure report for `take_shard_failure`.
    failure: Option<ShardFailure>,
    obs: Option<MultiObs>,
    /// Per-shard instruments; empty when unobserved.
    shard_obs: Vec<ShardedObs>,
}

impl ShardedMulti {
    /// Build with `shards` workers over the given subscriptions.
    pub fn new(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
        shards: usize,
    ) -> Result<Self, BuildError> {
        Self::builder(kind, config, graph, subscriptions)
            .shards(shards)
            .build()
    }

    /// Start building a `Sh_*` strategy; see [`ShardedBuilder`].
    pub fn builder(
        kind: AlgorithmKind,
        config: EngineConfig,
        graph: &UndirectedGraph,
        subscriptions: Subscriptions,
    ) -> ShardedBuilder<'_> {
        ShardedBuilder {
            kind,
            config,
            graph,
            subscriptions,
            warm_start: true,
            shards: 1,
            watchdog: None,
            chaos: ShardFaultPlan::none(),
        }
    }

    /// Attach strategy-level and per-shard instruments (ring depth,
    /// deployed-engine occupancy, sweep and re-home counters) to `registry`.
    pub fn attach_obs(&mut self, registry: &firehose_obs::Registry) {
        let name = MultiDiversifier::name(self);
        self.obs = Some(MultiObs::register(registry, &name));
        self.shard_obs = (0..self.shards)
            .map(|s| ShardedObs::register(registry, &name, s))
            .collect();
        // Publish the current occupancy immediately; from here on deploys
        // and recalls adjust it.
        let mut occupancy = vec![0i64; self.shards];
        for cid in self.deployed_cids() {
            occupancy[cid as usize % self.shards] += 1;
        }
        for (o, n) in self.shard_obs.iter().zip(occupancy) {
            o.engines.set(n);
        }
    }

    /// Number of distinct components (= number of engines).
    pub fn component_count(&self) -> usize {
        self.registry.component_count()
    }

    /// Author count of the largest single component — the parallelism
    /// ceiling: a component cannot be split across shards (its posts cover
    /// each other), so by Amdahl's law the speedup is bounded by the largest
    /// component's share of the total work.
    pub fn largest_component_size(&self) -> usize {
        self.registry.largest_component_size()
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Churn-spawned engines whose warm-start seeds crossed a shard
    /// boundary (cumulative).
    pub fn re_homes(&self) -> u64 {
        self.re_homes
    }

    /// Worker respawns over this strategy's lifetime.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Offer/sweep responses lost to worker deaths (lifetime total).
    pub fn lost_offers(&self) -> u64 {
        self.lost_offers
    }

    /// Ingest-guard quarantines attributed per shard (see
    /// [`MultiDiversifier::note_quarantined`]).
    pub fn shard_quarantined(&self) -> &[u64] {
        &self.quarantined
    }

    /// Live components whose engine is out on a shard (not parked).
    fn deployed_cids(&self) -> impl Iterator<Item = u32> + '_ {
        let reg = &self.registry;
        (0..reg.meta.len() as u32)
            .filter(|&cid| reg.meta[cid as usize].is_some() && reg.engines[cid as usize].is_none())
    }

    fn first_dead(&self) -> Option<usize> {
        self.health.iter().position(|h| h.is_dead())
    }

    /// Current per-shard heartbeat counters.
    fn heartbeats(&self) -> Vec<u64> {
        self.health
            .iter()
            .map(|h| h.processed.load(Ordering::SeqCst))
            .collect()
    }

    /// Declare stalled every shard that owes responses and whose heartbeat
    /// has not moved since `base`: mark it abandoned (the worker, if it
    /// ever wakes, exits instead of responding) and dead (the supervisor
    /// respawns it). Returns whether any shard was escalated.
    fn abandon_stalled(&mut self, base: &[u64]) -> bool {
        let mut any = false;
        for (shard, &seen) in base.iter().enumerate().take(self.shards) {
            if self.outstanding[shard] == 0 {
                continue;
            }
            let h = &self.health[shard];
            if h.is_dead() || h.processed.load(Ordering::SeqCst) != seen {
                continue;
            }
            h.abandoned.store(true, Ordering::SeqCst);
            h.dead.store(true, Ordering::SeqCst);
            any = true;
        }
        any
    }

    /// Send an offer or sweep to `shard`, draining responses into
    /// `pending`/`cache` while its ring is full. Returns `false` (dropping
    /// the request) once a worker is dead — the caller escalates to
    /// recovery, which discards `pending` anyway.
    fn push_req(&mut self, shard: usize, req: Req, pending: &mut VecDeque<PendingPost>) -> bool {
        let (links, health) = (&self.links, &self.health);
        let sent = send(&links[shard], req, || {
            !any_dead(health) && {
                drain_responses(
                    links,
                    &self.shard_obs,
                    pending,
                    &mut self.cache,
                    &mut self.outstanding,
                );
                true
            }
        });
        if sent.is_err() {
            return false;
        }
        self.outstanding[shard] += 1;
        if let Some(o) = self.shard_obs.get(shard) {
            o.ring_depth.add(1);
        }
        true
    }

    /// Issue one post's sweep marker (if due) and offers, pushing its
    /// bookkeeping onto `pending`. Returns `false` if a worker death cut
    /// the fan-out short.
    fn issue_post(&mut self, post: &Post, pending: &mut VecDeque<PendingPost>) -> bool {
        self.seq += 1;
        let seq = self.seq;
        // The pending entry must exist BEFORE any request is pushed:
        // `push_req` drains responses whenever a ring is full, and a
        // response to this very post's first request may arrive while its
        // later requests are still being pushed. `expected` is bumped
        // ahead of each push for the same reason (it can never underflow:
        // every response matches an already-counted request).
        pending.push_back(PendingPost {
            seq,
            expected: 0,
            delta_copies: 0,
            emitted_cids: Vec::new(),
        });
        // Sequential sweep schedule, checked before the post's records and
        // delivered in-band ahead of them on every shard.
        let sweep_every = (self.registry.config().thresholds.lambda_t / 2).max(1);
        if post.timestamp.saturating_sub(self.registry.last_sweep) >= sweep_every {
            self.registry.last_sweep = post.timestamp;
            for shard in 0..self.shards {
                pending.back_mut().expect("just pushed").expected += 1;
                if !self.push_req(
                    shard,
                    Req::Sweep {
                        seq,
                        now: post.timestamp,
                    },
                    pending,
                ) {
                    return false;
                }
                if let Some(o) = self.shard_obs.get(shard) {
                    o.sweeps.inc();
                }
            }
            if let Some(obs) = &self.obs {
                obs.sweeps.inc();
            }
        }
        // Fingerprint once on the control thread; coverage scans overlap on
        // the shards.
        let record = post.to_record(self.registry.config().simhash);
        let fanout = self.registry.author_components[post.author as usize].len();
        for i in 0..fanout {
            let cid = self.registry.author_components[post.author as usize][i];
            let shard = cid as usize % self.shards;
            pending.back_mut().expect("just pushed").expected += 1;
            if !self.push_req(shard, Req::Offer { seq, cid, record }, pending) {
                return false;
            }
        }
        true
    }

    /// Block until the oldest pending post has all its responses. Returns
    /// `false` if a worker died — or was declared stalled by the watchdog —
    /// while responses were still owed.
    fn wait_front(&mut self, pending: &mut VecDeque<PendingPost>) -> bool {
        let mut idle: u32 = 0;
        let mut watch: Option<(Instant, Vec<u64>)> = None;
        while pending.front().is_some_and(|p| p.expected > 0) {
            if drain_responses(
                &self.links,
                &self.shard_obs,
                pending,
                &mut self.cache,
                &mut self.outstanding,
            ) {
                idle = 0;
                watch = None;
            } else {
                if any_dead(&self.health) {
                    return false;
                }
                idle += 1;
                if idle < 64 {
                    std::hint::spin_loop();
                } else {
                    // Never park: on small machines the workers need this
                    // core.
                    std::thread::yield_now();
                    if let Some(deadline) = self.watchdog {
                        match &watch {
                            None => watch = Some((Instant::now(), self.heartbeats())),
                            Some((t0, base)) if t0.elapsed() >= deadline => {
                                if self.abandon_stalled(base) {
                                    return false;
                                }
                                // Heartbeats moved: the shards are slow, not
                                // stalled. Re-arm.
                                watch = Some((Instant::now(), self.heartbeats()));
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }
        true
    }

    /// Finalize the oldest pending post **in post order**: fold its signed
    /// copies delta into the sequential live/peak ledger and expand its
    /// emitting components to user ids.
    fn finalize_front(&mut self, pending: &mut VecDeque<PendingPost>, out: &mut MultiDecision) {
        let p = pending.pop_front().expect("front pending post");
        debug_assert_eq!(p.expected, 0);
        let reg = &mut self.registry;
        reg.live_copies = add_signed(reg.live_copies, p.delta_copies);
        reg.peak_live_copies = reg.peak_live_copies.max(reg.live_copies);
        out.delivered_to.clear();
        for cid in p.emitted_cids {
            if let Some(meta) = reg.meta[cid as usize].as_ref() {
                out.delivered_to.extend_from_slice(&meta.users);
            }
        }
        out.delivered_to.sort_unstable();
        debug_assert!(out.delivered_to.windows(2).all(|w| w[0] != w[1]));
    }

    /// The one offer pipeline: issue `posts` with up to `MAX_IN_FLIGHT`
    /// in flight, finalize each into `out` strictly in post order, and hand
    /// it to `emit`.
    fn pipeline(
        &mut self,
        posts: &[Post],
        out: &mut MultiDecision,
        mut emit: impl FnMut(&mut MultiDecision),
    ) {
        self.ensure_deployed();
        let mut pending = VecDeque::with_capacity(posts.len().min(MAX_IN_FLIGHT));
        for post in posts {
            // Opportunistically retire completed posts, then respect the
            // in-flight window.
            drain_responses(
                &self.links,
                &self.shard_obs,
                &mut pending,
                &mut self.cache,
                &mut self.outstanding,
            );
            while pending.front().is_some_and(|p| p.expected == 0) {
                self.finalize_front(&mut pending, out);
                emit(out);
            }
            self.settle(&mut pending, MAX_IN_FLIGHT - 1, out, &mut emit);
            if !self.issue_post(post, &mut pending) {
                self.abort(&mut pending, out, &mut emit);
            }
        }
        self.settle(&mut pending, 0, out, &mut emit);
        if let Some(obs) = &self.obs {
            obs.live_copies.set(self.registry.live_copies as i64);
        }
    }

    /// Wait for and finalize the oldest pending posts until at most `keep`
    /// remain.
    fn settle(
        &mut self,
        pending: &mut VecDeque<PendingPost>,
        keep: usize,
        out: &mut MultiDecision,
        emit: &mut impl FnMut(&mut MultiDecision),
    ) {
        while pending.len() > keep {
            if self.wait_front(pending) {
                self.finalize_front(pending, out);
                emit(out);
            } else {
                self.abort(pending, out, emit);
            }
        }
    }

    /// The pipeline's one failure path: a dead worker can never answer, so
    /// every pending post is written off with an empty delivery (keeping
    /// decisions aligned with posts), then full recovery runs. The episode,
    /// these lost posts included, is available via `take_shard_failure`.
    fn abort(
        &mut self,
        pending: &mut VecDeque<PendingPost>,
        out: &mut MultiDecision,
        emit: &mut impl FnMut(&mut MultiDecision),
    ) {
        let lost_posts = pending.len() as u64;
        for _ in pending.drain(..) {
            out.delivered_to.clear();
            emit(out);
        }
        self.recover_and_redeploy(lost_posts);
    }

    /// Ship the parked engines among `cids` to their shards (`cid %
    /// shards`), adding their counters to the metrics cache and their count
    /// to the occupancy gauges; slots in `cids` holding no engine are
    /// skipped. Returns `false` without setting the deployed flag when a
    /// worker is (or goes) dead: the in-hand engine returns to its slot,
    /// already-shipped engines stay out and are reclaimed by the next
    /// `park`.
    fn deploy(&mut self, cids: impl IntoIterator<Item = u32>) -> bool {
        debug_assert!(!self.deployed);
        if any_dead(&self.health) {
            return false;
        }
        for cid in cids {
            let Some(engine) = self.registry.engines[cid as usize].take() else {
                continue;
            };
            let counters = Counters::of(engine.metrics());
            let shard = cid as usize % self.shards;
            let req = Req::Deploy {
                cid,
                engine: Box::new(engine),
            };
            if let Err(req) = send(&self.links[shard], req, || !any_dead(&self.health)) {
                let Req::Deploy { engine, .. } = req else {
                    unreachable!("deploy sends only Deploy requests")
                };
                self.registry.engines[cid as usize] = Some(*engine);
                return false;
            }
            self.cache.add(&counters);
            if let Some(o) = self.shard_obs.get(shard) {
                o.engines.add(1);
            }
        }
        self.deployed = true;
        true
    }

    /// [`deploy`](Self::deploy) every parked engine.
    fn deploy_all(&mut self) -> bool {
        self.deploy(0..self.registry.engines.len() as u32)
    }

    /// Send one [`Req::Recall`] naming its share of `cids` to each live
    /// shard — to every live shard when `every_shard`, otherwise only to
    /// shards owning one of `cids` — and [`collect`] the answers. Recalled
    /// engines land in their registry slots; stale offer/sweep responses
    /// abandoned by a failure are dropped. Returns whether every addressed
    /// shard answered.
    fn recall(&mut self, cids: impl IntoIterator<Item = u32>, every_shard: bool) -> bool {
        let mut wanted = vec![Vec::new(); self.shards];
        for cid in cids {
            wanted[cid as usize % self.shards].push(cid);
        }
        let reqs = wanted
            .into_iter()
            .enumerate()
            .filter(|(_, cids)| every_shard || !cids.is_empty())
            .map(|(shard, cids)| (shard, Req::Recall { cids }));
        collect(&self.links, &self.health, reqs, |shard, resp| match resp {
            Resp::Engine { cid, engine } => {
                self.registry.engines[cid as usize] = Some(*engine);
            }
            // Stale offer-path traffic from before the failure; the posts
            // it belongs to were already written off.
            Resp::Offered { .. } | Resp::Swept { .. } => {
                if let Some(o) = self.shard_obs.get(shard) {
                    o.ring_depth.add(-1);
                }
                self.outstanding[shard] = self.outstanding[shard].saturating_sub(1);
            }
            Resp::Blob { .. } | Resp::Done => {
                unreachable!("saves collect their own blobs; barriers end in `collect`")
            }
        })
    }

    /// Recall every deployed engine on every live shard into its registry
    /// slot; dead shards are skipped (their engines died with them — the
    /// supervisor rebuilds them). Every live shard is addressed, so its
    /// barrier also flushes stale responses. After this the registry is
    /// authoritative for every engine that survived, and the metrics cache
    /// and occupancy gauges restart from empty (lost engines and dropped
    /// responses never reach them; `deploy` re-adds what ships).
    fn park(&mut self) {
        let deployed: Vec<u32> = self.deployed_cids().collect();
        self.recall(deployed, true);
        self.deployed = false;
        self.cache = Counters::default();
        for o in &self.shard_obs {
            o.engines.set(0);
        }
    }

    /// Park every engine and heal every dead worker: count the offers that
    /// died with them, respawn their threads (consuming the next scheduled
    /// chaos fault, if any), rebuild their lost engines empty, and record
    /// the failure episode for `take_shard_failure`. On return all workers
    /// are alive and all surviving state is parked. Degenerates to a plain
    /// park when nothing died.
    fn heal_parked(&mut self, lost_posts: u64) {
        let mut episode_shard = self.first_dead();
        let mut lost_offers = 0u64;
        let mut lost_engines = 0u64;
        let mut restarted = 0u64;
        loop {
            self.park();
            if !any_dead(&self.health) {
                break;
            }
            // A death can also first surface *during* the park (a chaos
            // fault firing on the recall itself), so the episode loops; a
            // parked worker handles no requests, so the second park is
            // always clean.
            episode_shard = episode_shard.or_else(|| self.first_dead());
            for s in 0..self.shards {
                if self.health[s].is_dead() && self.outstanding[s] > 0 {
                    lost_offers += self.outstanding[s];
                    if let Some(o) = self.shard_obs.get(s) {
                        o.lost_offers.add(self.outstanding[s]);
                    }
                    self.outstanding[s] = 0;
                }
            }
            restarted += self.restart_dead_workers();
            lost_engines += self.rebuild_missing_engines();
        }
        if restarted == 0 {
            return;
        }
        self.outstanding.fill(0);
        // Requests abandoned in replaced rings make the depth gauges drift;
        // everything is quiescent now, so reset them.
        for o in &self.shard_obs {
            o.ring_depth.set(0);
        }
        self.lost_offers += lost_offers;
        let restarts = self.restarts;
        let f = self.failure.get_or_insert_with(|| ShardFailure {
            shard: episode_shard.unwrap_or(0),
            ..Default::default()
        });
        f.restarts = restarts;
        f.lost_offers += lost_offers;
        f.lost_posts += lost_posts;
        f.lost_engines += lost_engines;
    }

    /// Respawn every dead worker on fresh rings, consuming its next
    /// scheduled chaos fault. Panicked workers are joined (their threads
    /// already exited through `catch_unwind`); abandoned (stalled) workers
    /// are detached — an injected stall exits on the abandoned flag, a real
    /// runaway thread is leaked rather than waited on forever.
    fn restart_dead_workers(&mut self) -> u64 {
        let mut restarted = 0;
        for shard in 0..self.shards {
            if !self.health[shard].is_dead() {
                continue;
            }
            let abandoned = self.health[shard].abandoned.load(Ordering::SeqCst);
            if let Some(handle) = self.workers[shard].take() {
                if abandoned {
                    drop(handle);
                } else {
                    let _ = handle.join();
                }
            }
            let fault = self.chaos[shard].pop_front();
            // Replacing the link retires the old rings (and whatever stale
            // requests they still held) once the old worker's ends drop.
            let (link, handle, health) = spawn_worker(shard, fault);
            self.links[shard] = link;
            self.workers[shard] = Some(handle);
            self.health[shard] = health;
            self.restarts += 1;
            restarted += 1;
            if let Some(o) = self.shard_obs.get(shard) {
                o.restarts.inc();
            }
        }
        restarted
    }

    /// Rebuild a fresh, empty engine for every live component whose engine
    /// died with its worker. The lost windows' contents are gone — a facade
    /// holding a checkpoint restores them via `load_state`; without one the
    /// engines warm back up from the live stream (graceful degradation).
    fn rebuild_missing_engines(&mut self) -> u64 {
        let mut rebuilt = 0u64;
        for cid in 0..self.registry.engines.len() {
            if self.registry.engines[cid].is_some() {
                continue;
            }
            let members = match self.registry.meta[cid].as_ref() {
                Some(meta) => meta.members.clone(),
                None => continue,
            };
            self.registry.engines[cid] = Some(CompactEngine::build(
                self.registry.kind(),
                *self.registry.config(),
                &self.registry.graph,
                &members,
            ));
            rebuilt += 1;
        }
        if rebuilt > 0 {
            // The sequential live-copies ledger counted the lost windows;
            // re-anchor it to what actually survived. The peak watermark
            // keeps its history.
            self.registry.live_copies = self.registry.metrics_total().copies_stored;
        }
        rebuilt
    }

    /// Full failure recovery: park what survived, respawn dead workers,
    /// rebuild lost engines, redeploy — looping because a scheduled chaos
    /// fault (or a deterministic crash bug) can kill a fresh worker during
    /// the redeploy itself. Panics after [`MAX_RESTART_STORM`] consecutive
    /// failed redeploys: a worker that cannot survive receiving its engines
    /// is a crash loop no supervisor can fix.
    fn recover_and_redeploy(&mut self, lost_posts: u64) {
        let mut lost_posts = lost_posts;
        for _ in 0..MAX_RESTART_STORM {
            self.heal_parked(lost_posts);
            lost_posts = 0; // counted once
            if self.deploy_all() {
                return;
            }
        }
        panic!(
            "shard worker crash loop: {MAX_RESTART_STORM} consecutive redeploys failed \
             ({} restarts so far)",
            self.restarts
        );
    }

    /// Recover the deployed invariant — after a failed restore left the
    /// engine parked, or after a worker death that has not yet been healed.
    fn ensure_deployed(&mut self) {
        if any_dead(&self.health) || (!self.deployed && !self.deploy_all()) {
            self.recover_and_redeploy(0);
        }
    }

    /// Run a planned churn op component-locally: recall only its released
    /// engines from their owning shards, apply the plan with the unchanged
    /// registry logic, count cross-shard re-homes, and redeploy only what
    /// is parked — the surviving released engines plus the spawned ones. A
    /// worker death seen before or during the recall falls back to the full
    /// heal before the op runs; everything is parked and redeployed then.
    /// So does an op on a fleet left parked by a failed restore.
    fn churn(&mut self, plan: &Rewire) {
        let local =
            self.deployed && !any_dead(&self.health) && self.recall_released(&plan.released);
        self.deployed = false;
        if !local {
            self.heal_parked(0);
        }
        let delta = self.registry.rewire(plan);
        self.count_re_homes(&delta);
        let shipped = if local {
            self.deploy(plan.released.iter().chain(&delta.spawned).copied())
        } else {
            self.deploy_all()
        };
        if !shipped {
            self.recover_and_redeploy(0);
        }
    }

    /// Recall the `released` engines into their registry slots and take
    /// them out of the metrics cache and occupancy gauges. Returns `false`
    /// if an owning shard died first; the caller heals.
    fn recall_released(&mut self, released: &[u32]) -> bool {
        if !self.recall(released.iter().copied(), false) {
            return false;
        }
        for &cid in released {
            let engine = self.registry.engines[cid as usize]
                .as_ref()
                .expect("released engine was recalled");
            self.cache.sub(&Counters::of(engine.metrics()));
            if let Some(o) = self.shard_obs.get(cid as usize % self.shards) {
                o.engines.add(-1);
            }
        }
        true
    }

    /// Count engines spawned by the last churn op whose warm-start seeds
    /// came from an engine the op retired on a different shard. A merged
    /// component contains each absorbed component's smallest member (the
    /// registry's own absorption test), so "retired first member ∈ new
    /// members" is the seed-provenance signal. An op spawns before it
    /// releases, so a spawned slot is never one the same op retired.
    fn count_re_homes(&mut self, delta: &RewireDelta) {
        for &cid in &delta.spawned {
            let new_shard = cid as usize % self.shards;
            let members = &self.registry.meta[cid as usize]
                .as_ref()
                .expect("spawned slot is live")
                .members;
            let moved = delta.retired.iter().any(|&(old, first)| {
                old as usize % self.shards != new_shard && members.binary_search(&first).is_ok()
            });
            if moved {
                self.re_homes += 1;
                if let Some(o) = self.shard_obs.get(new_shard) {
                    o.re_homes.inc();
                }
            }
        }
    }
}

/// Pop every available response on every link, folding counter deltas into
/// `cache` and per-post state into `pending`. Returns whether anything
/// arrived.
fn drain_responses(
    links: &[ShardLink],
    shard_obs: &[ShardedObs],
    pending: &mut VecDeque<PendingPost>,
    cache: &mut Counters,
    outstanding: &mut [u64],
) -> bool {
    let mut progress = false;
    for (shard, link) in links.iter().enumerate() {
        while let Some(resp) = link.resp.try_pop() {
            progress = true;
            if let Some(o) = shard_obs.get(shard) {
                o.ring_depth.add(-1);
            }
            outstanding[shard] = outstanding[shard].saturating_sub(1);
            let (seq, cid_emitted, delta) = match resp {
                Resp::Offered {
                    seq,
                    cid,
                    emitted,
                    delta,
                } => (seq, emitted.then_some(cid), delta),
                Resp::Swept { seq, delta } => (seq, None, delta),
                _ => unreachable!("recall/save responses cannot overlap the offer path"),
            };
            cache.add(&delta);
            let front_seq = pending.front().expect("pending post for response").seq;
            let p = &mut pending[(seq - front_seq) as usize];
            p.delta_copies += delta.copies;
            p.expected -= 1;
            if let Some(cid) = cid_emitted {
                p.emitted_cids.push(cid);
            }
        }
    }
    progress
}

/// The worker entry point: runs the request loop under `catch_unwind` so a
/// panic (real or injected) flips the shard's `dead` flag and exits the
/// thread cleanly instead of poisoning the engine. The drop guard covers
/// the unwind itself; the post-`catch_unwind` store covers the (impossible
/// today, cheap forever) case of the guard being skipped.
fn worker_loop(
    rx: SpscReceiver<Req>,
    tx: SpscSender<Resp>,
    bell: Arc<Doorbell>,
    health: Arc<ShardHealth>,
    fault: Option<ShardFault>,
) {
    /// Reports the worker's death to the supervisor while the stack
    /// unwinds.
    struct DeathNotice(Arc<ShardHealth>);
    impl Drop for DeathNotice {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.dead.store(true, Ordering::SeqCst);
            }
        }
    }
    let inner = Arc::clone(&health);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _notice = DeathNotice(Arc::clone(&inner));
        worker_run(rx, tx, bell, &inner, fault);
    }));
    if result.is_err() {
        health.dead.store(true, Ordering::SeqCst);
    }
}

/// The worker request loop: owns the deployed engines of one shard, parks
/// on its doorbell when idle, bumps its heartbeat after every handled
/// request, and fires its scheduled chaos fault (if any) once enough
/// requests have been handled. Returns `None` when it exits because the
/// watchdog abandoned it.
fn worker_run(
    rx: SpscReceiver<Req>,
    tx: SpscSender<Resp>,
    bell: Arc<Doorbell>,
    health: &ShardHealth,
    fault: Option<ShardFault>,
) -> Option<()> {
    // `None` when the shard was abandoned while the response ring was full
    // — the control thread stopped draining, so waiting longer deadlocks;
    // the worker exits instead.
    let respond = |mut resp: Resp| loop {
        match tx.try_push(resp) {
            Ok(()) => break Some(()),
            Err(r) => {
                resp = r;
                if health.abandoned.load(Ordering::SeqCst) {
                    break None;
                }
                std::thread::yield_now();
            }
        }
    };

    let mut engines: std::collections::HashMap<u32, CompactEngine> =
        std::collections::HashMap::new();
    let mut handled: u64 = 0;
    loop {
        let req = next_req(&rx, &bell, health)?;
        if let Some(f) = fault {
            if handled >= f.after_requests {
                match f.kind {
                    // `resume_unwind`, not `panic!`: the drop guard still
                    // fires (`std::thread::panicking()` is true during the
                    // unwind) but the global panic hook does not, keeping
                    // chaos runs quiet.
                    ShardFaultKind::Panic => {
                        std::panic::resume_unwind(Box::new("injected shard fault"))
                    }
                    // Freeze mid-request until the watchdog abandons us.
                    ShardFaultKind::Stall => {
                        while !health.abandoned.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        return None;
                    }
                }
            }
        }
        match req {
            Req::Offer { seq, cid, record } => {
                let (emitted, delta) = match engines.get_mut(&cid) {
                    Some(engine) => {
                        let before = *engine.metrics();
                        let emitted = engine.offer(record).is_some_and(|v| v.is_emitted());
                        (emitted, Counters::diff(&before, engine.metrics()))
                    }
                    // Routing said live but the engine is not here: answer
                    // (the control thread counts responses) without work.
                    None => (false, Counters::default()),
                };
                respond(Resp::Offered {
                    seq,
                    cid,
                    emitted,
                    delta,
                })?;
            }
            Req::Sweep { seq, now } => {
                let mut delta = Counters::default();
                for engine in engines.values_mut() {
                    let before = *engine.metrics();
                    engine.evict_expired(now);
                    delta.add(&Counters::diff(&before, engine.metrics()));
                }
                respond(Resp::Swept { seq, delta })?;
            }
            Req::Deploy { cid, engine } => {
                engines.insert(cid, *engine);
            }
            Req::Recall { cids } => {
                for cid in cids {
                    if let Some(engine) = engines.remove(&cid) {
                        let engine = Box::new(engine);
                        respond(Resp::Engine { cid, engine })?;
                    }
                }
                // FIFO barrier: once the control thread pops this, every
                // response this worker ever sent before it is accounted
                // for.
                respond(Resp::Done)?;
            }
            Req::SaveBlobs => {
                for (&cid, engine) in engines.iter() {
                    let mut blob = Vec::new();
                    let blob = engine.save_state(&mut blob).map(|()| blob);
                    respond(Resp::Blob { cid, blob })?;
                }
                // The same barrier closes a save.
                respond(Resp::Done)?;
            }
            Req::Shutdown => return Some(()),
        }
        handled += 1;
        health.processed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Worker-side blocking pop: spin briefly, yield a while, then park on the
/// doorbell (with the mandatory re-check between announce and sleep).
/// Returns `None` once the watchdog has abandoned this worker — the
/// doorbell's 50ms park timeout bounds how long an abandoned worker sleeps
/// before noticing.
fn next_req(rx: &SpscReceiver<Req>, bell: &Doorbell, health: &ShardHealth) -> Option<Req> {
    let mut idle: u32 = 0;
    loop {
        if let Some(req) = rx.try_pop() {
            return Some(req);
        }
        if health.abandoned.load(Ordering::SeqCst) {
            return None;
        }
        idle += 1;
        if idle < 64 {
            std::hint::spin_loop();
        } else if idle < 256 {
            std::thread::yield_now();
        } else {
            bell.prepare_park();
            match rx.try_pop() {
                Some(req) => {
                    bell.cancel_park();
                    return Some(req);
                }
                None => bell.park(),
            }
            idle = 0;
        }
    }
}

impl MultiDiversifier for ShardedMulti {
    fn offer_into(&mut self, post: &Post, out: &mut MultiDecision) {
        let started = self.obs.is_some().then(Instant::now);
        self.pipeline(std::slice::from_ref(post), out, |_| {});
        if let (Some(t0), Some(obs)) = (started, &self.obs) {
            obs.offer_latency.record_duration(t0.elapsed());
        }
    }

    /// The pipelined throughput path: keeps up to `MAX_IN_FLIGHT` posts
    /// in flight so fingerprinting, routing, and the shards' coverage scans
    /// overlap. Decisions, counters, and the sweep schedule are identical
    /// to offering the posts one at a time.
    fn offer_batch(&mut self, posts: &[Post]) -> Vec<MultiDecision> {
        let mut decisions = Vec::with_capacity(posts.len());
        self.pipeline(posts, &mut MultiDecision::default(), |out| {
            decisions.push(std::mem::take(out))
        });
        decisions
    }

    fn subscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError> {
        let plan = self.registry.subscribe(user, author)?;
        Ok(plan.map(|p| self.churn(&p)).is_some())
    }

    fn unsubscribe(&mut self, user: UserId, author: AuthorId) -> Result<bool, SubscriptionError> {
        let plan = self.registry.unsubscribe(user, author)?;
        Ok(plan.map(|p| self.churn(&p)).is_some())
    }

    fn add_user(&mut self, authors: &[AuthorId]) -> Result<UserId, SubscriptionError> {
        let plan = self.registry.add_user(authors)?;
        self.churn(&plan);
        Ok(plan.u)
    }

    fn remove_user(&mut self, user: UserId) -> Result<(), SubscriptionError> {
        let plan = self.registry.remove_user(user)?;
        self.churn(&plan);
        Ok(())
    }

    fn churn_stats(&self) -> ChurnStats {
        self.registry.churn
    }

    fn subscriptions(&self) -> &Subscriptions {
        &self.registry.subscriptions
    }

    fn metrics(&self) -> EngineMetrics {
        if !self.deployed {
            return self.registry.metrics_total();
        }
        let c = &self.cache;
        let copies_stored = c.copies.max(0) as u64;
        let peak_copies = self.registry.peak_live_copies.max(copies_stored);
        EngineMetrics {
            posts_processed: c.posts_processed,
            posts_emitted: c.posts_emitted,
            comparisons: c.comparisons,
            insertions: c.insertions,
            evictions: c.evictions,
            copies_stored,
            peak_copies,
            peak_memory_bytes: peak_copies * PostRecord::SIZE_BYTES as u64,
        }
    }

    fn name(&self) -> String {
        format!("Sh_{}({})", self.registry.kind(), self.shards)
    }

    /// Stitched sharded checkpoint: every shard serializes its engines in
    /// parallel and the control thread assembles the `(component key, blob)`
    /// pairs into the standard FHSNAP04 state — byte-identical to
    /// `SharedMulti::save_state` over the same engines. The save ends on
    /// each shard's barrier, so a fleet holding other than one engine per
    /// live component fails here instead of hanging or leaving blobs behind.
    fn save_state(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        if !self.deployed {
            return self.registry.save_state(w);
        }
        if any_dead(&self.health) {
            return Err(shard_failed_error());
        }
        let total = self.registry.component_count();
        let mut engines: Vec<(u64, Vec<u8>)> = Vec::with_capacity(total);
        let mut first_err: Option<std::io::Error> = None;
        let reqs = (0..self.shards).map(|shard| (shard, Req::SaveBlobs));
        let answered = collect(&self.links, &self.health, reqs, |_, resp| {
            let Resp::Blob { cid, blob } = resp else {
                unreachable!("only blobs may be in flight during a save")
            };
            match blob {
                Ok(bytes) => {
                    let meta = self.registry.meta[cid as usize]
                        .as_ref()
                        .expect("deployed engine has meta");
                    engines.push((component_key(&meta.members), bytes));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        });
        if !answered || any_dead(&self.health) {
            return Err(shard_failed_error());
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if engines.len() != total {
            return Err(std::io::Error::other(format!(
                "sharded save collected {} engine states for {total} components",
                engines.len()
            )));
        }
        write_multi_state(
            w,
            &self.registry.churn,
            &self.registry.subscriptions,
            [
                self.registry.last_sweep,
                self.registry.live_copies,
                self.registry.peak_live_copies,
            ],
            &mut engines,
        )
    }

    fn load_state(
        &mut self,
        r: &mut dyn std::io::Read,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.heal_parked(0);
        let result = self.registry.load_state(r);
        if result.is_ok() && !self.deploy_all() {
            self.recover_and_redeploy(0);
        }
        // On error we stay parked; the next operation redeploys whatever
        // state the registry was left with (the trait contract requires a
        // rebuild anyway).
        result
    }

    fn take_shard_failure(&mut self) -> Option<ShardFailure> {
        // An unhealed death (e.g. detected by a failed `save_state`, which
        // must not mutate) is healed here so the report is complete.
        if any_dead(&self.health) {
            self.recover_and_redeploy(0);
        }
        self.failure.take()
    }

    fn note_quarantined(&mut self, author: AuthorId) {
        // Attribute the quarantine to the shard that would have processed
        // the author's first owning component; authors with no subscribers
        // hash straight to a shard so every quarantine lands somewhere.
        let shard = self
            .registry
            .author_components
            .get(author as usize)
            .and_then(|cids| cids.first())
            .map(|&cid| cid as usize % self.shards)
            .unwrap_or(author as usize % self.shards);
        self.quarantined[shard] += 1;
        if let Some(o) = self.shard_obs.get(shard) {
            o.quarantined.inc();
        }
    }
}

/// The typed error a failed sharded operation surfaces: the caller should
/// drain [`MultiDiversifier::take_shard_failure`] and retry.
fn shard_failed_error() -> std::io::Error {
    std::io::Error::other("a shard worker failed; recovery pending (take_shard_failure)")
}

impl Drop for ShardedMulti {
    fn drop(&mut self) {
        for (link, health) in self.links.iter().zip(&self.health) {
            if health.is_dead() {
                continue; // nobody is listening
            }
            let _ = send(link, Req::Shutdown, || {
                !health.is_dead() && {
                    while link.resp.try_pop().is_some() {}
                    true
                }
            });
        }
        for (shard, worker) in self.workers.iter_mut().enumerate() {
            let Some(worker) = worker.take() else {
                continue;
            };
            if self.health[shard].abandoned.load(Ordering::SeqCst) {
                // A stalled worker may never exit; detach instead of
                // hanging the drop (an injected stall exits on its own).
                drop(worker);
                continue;
            }
            // Keep the response rings drained so a worker mid-push can
            // always reach its Shutdown message.
            while !worker.is_finished() {
                for link in &self.links {
                    while link.resp.try_pop().is_some() {}
                }
                std::thread::yield_now();
            }
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Thresholds;
    use crate::multi::SharedMulti;
    use firehose_stream::minutes;

    fn config() -> EngineConfig {
        EngineConfig::new(Thresholds::new(18, minutes(30), 0.7).unwrap())
    }

    /// Figure 7: edges 0-1, 0-5, 3-4; u0 follows {0,1,3,5}, u1 follows
    /// {0,1,3,4,5}.
    fn figure7() -> (UndirectedGraph, Subscriptions) {
        let graph = UndirectedGraph::from_edges(6, [(0, 1), (0, 5), (3, 4)]);
        let subs = Subscriptions::new(6, vec![vec![0, 1, 3, 5], vec![0, 1, 3, 4, 5]]).unwrap();
        (graph, subs)
    }

    fn posts(n: u64) -> Vec<Post> {
        (0..n)
            .map(|i| {
                Post::new(
                    i,
                    (i % 6) as u32,
                    i * 90_000,
                    format!("body of post {}", i % 11),
                )
            })
            .collect()
    }

    #[test]
    fn matches_sequential_shared_multi() {
        let (graph, subs) = figure7();
        let stream = posts(120);
        for kind in AlgorithmKind::ALL {
            let mut seq = SharedMulti::new(kind, config(), &graph, subs.clone());
            let expected: Vec<_> = stream.iter().map(|p| seq.offer(p)).collect();
            for shards in [1, 2, 4] {
                let mut sh =
                    ShardedMulti::new(kind, config(), &graph, subs.clone(), shards).unwrap();
                let got: Vec<_> = stream.iter().map(|p| sh.offer(p)).collect();
                assert_eq!(got, expected, "{kind} at {shards} shards");
                assert_eq!(sh.metrics(), seq.metrics(), "{kind} at {shards} shards");
            }
        }
    }

    #[test]
    fn offer_batch_matches_one_at_a_time() {
        let (graph, subs) = figure7();
        let stream = posts(200);
        let mut seq = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone());
        let expected: Vec<_> = stream.iter().map(|p| seq.offer(p)).collect();
        for shards in [1, 3] {
            let mut sh = ShardedMulti::new(
                AlgorithmKind::UniBin,
                config(),
                &graph,
                subs.clone(),
                shards,
            )
            .unwrap();
            let got = sh.offer_batch(&stream);
            assert_eq!(got, expected, "{shards} shards");
            assert_eq!(sh.metrics(), seq.metrics(), "{shards} shards");
        }
    }

    /// A failed restore leaves the fleet parked; a churn op there must take
    /// the full path (nothing to recall, everything to redeploy) and keep
    /// the metrics cache exact.
    #[test]
    fn churn_after_failed_restore_matches_sequential() {
        let (graph, subs) = figure7();
        let stream = posts(60);
        let mut seq = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone());
        let mut sh =
            ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone(), 2).unwrap();
        for post in &stream[..30] {
            assert_eq!(seq.offer(post), sh.offer(post));
        }
        assert!(seq.load_state(&mut &b"not a state"[..]).is_err());
        assert!(sh.load_state(&mut &b"not a state"[..]).is_err());
        assert_eq!(seq.subscribe(0, 4).unwrap(), sh.subscribe(0, 4).unwrap());
        assert_eq!(seq.metrics(), sh.metrics());
        for post in &stream[30..] {
            assert_eq!(seq.offer(post), sh.offer(post));
        }
        assert_eq!(seq.metrics(), sh.metrics());
    }

    #[test]
    fn churn_matches_sequential() {
        let (graph, subs) = figure7();
        let stream = posts(60);
        let mut seq = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone());
        let mut sh =
            ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone(), 2).unwrap();
        for (i, post) in stream.iter().enumerate() {
            match i {
                10 => {
                    assert_eq!(seq.subscribe(0, 4).unwrap(), sh.subscribe(0, 4).unwrap());
                }
                25 => {
                    assert_eq!(
                        seq.unsubscribe(1, 0).unwrap(),
                        sh.unsubscribe(1, 0).unwrap()
                    );
                }
                40 => {
                    assert_eq!(
                        seq.add_user(&[2, 3]).unwrap(),
                        sh.add_user(&[2, 3]).unwrap()
                    );
                }
                50 => {
                    seq.remove_user(0).unwrap();
                    sh.remove_user(0).unwrap();
                }
                _ => {}
            }
            assert_eq!(seq.offer(post), sh.offer(post), "post {i}");
        }
        assert_eq!(seq.churn_stats(), sh.churn_stats());
        assert_eq!(seq.metrics(), sh.metrics());
    }

    #[test]
    fn checkpoint_bytes_identical_to_shared_multi() {
        let (graph, subs) = figure7();
        let stream = posts(80);
        let mut seq = SharedMulti::new(AlgorithmKind::NeighborBin, config(), &graph, subs.clone());
        let mut sh = ShardedMulti::new(
            AlgorithmKind::NeighborBin,
            config(),
            &graph,
            subs.clone(),
            3,
        )
        .unwrap();
        for post in &stream {
            seq.offer(post);
            sh.offer(post);
        }
        let mut a = Vec::new();
        seq.save_state(&mut a).unwrap();
        let mut b = Vec::new();
        sh.save_state(&mut b).unwrap();
        assert_eq!(a, b, "stitched sharded state must match sequential bytes");
    }

    #[test]
    fn state_round_trips_across_shard_counts_and_strategies() {
        let (graph, subs) = figure7();
        let stream = posts(100);
        let mut sh =
            ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone(), 4).unwrap();
        let head = &stream[..60];
        let tail = &stream[60..];
        for post in head {
            sh.offer(post);
        }
        let mut state = Vec::new();
        sh.save_state(&mut state).unwrap();
        let expected_tail: Vec<_> = {
            let mut cont = sh;
            tail.iter().map(|p| cont.offer(p)).collect()
        };
        // Sharded → sharded at a different shard count.
        let mut sh2 =
            ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone(), 2).unwrap();
        sh2.load_state(&mut &state[..]).unwrap();
        let got: Vec<_> = tail.iter().map(|p| sh2.offer(p)).collect();
        assert_eq!(got, expected_tail, "sharded(4) → sharded(2)");
        // Sharded → sequential.
        let mut seq = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone());
        seq.load_state(&mut &state[..]).unwrap();
        let got: Vec<_> = tail.iter().map(|p| seq.offer(p)).collect();
        assert_eq!(got, expected_tail, "sharded → sequential");
        // Sequential → sharded.
        let mut seq2 = SharedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs.clone());
        for post in head {
            seq2.offer(post);
        }
        let mut seq_state = Vec::new();
        seq2.save_state(&mut seq_state).unwrap();
        let mut sh3 = ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs, 3).unwrap();
        sh3.load_state(&mut &seq_state[..]).unwrap();
        let got: Vec<_> = tail.iter().map(|p| sh3.offer(p)).collect();
        assert_eq!(got, expected_tail, "sequential → sharded");
    }

    #[test]
    fn zero_shards_rejected() {
        let (graph, subs) = figure7();
        let err = ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs, 0)
            .err()
            .unwrap();
        assert_eq!(err, BuildError::ZeroThreads);
    }

    #[test]
    fn name_reports_shards() {
        let (graph, subs) = figure7();
        let sh = ShardedMulti::new(AlgorithmKind::CliqueBin, config(), &graph, subs, 4).unwrap();
        assert_eq!(MultiDiversifier::name(&sh), "Sh_CliqueBin(4)");
        // Components {0, 1, 5}, {3} and {3, 4}.
        assert_eq!(sh.component_count(), 3);
        assert_eq!(sh.largest_component_size(), 3);
    }

    #[test]
    fn observed_run_counts_and_quiescent_rings() {
        let registry = firehose_obs::Registry::new();
        let (graph, subs) = figure7();
        let mut sh = ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs, 2).unwrap();
        sh.attach_obs(&registry);
        let stream = posts(50);
        for post in &stream {
            sh.offer(post);
        }
        // The occupancy gauges follow each op kind incrementally and must
        // account for every live engine after each.
        let occupancy =
            |sh: &ShardedMulti| -> i64 { sh.shard_obs.iter().map(|o| o.engines.get()).sum() };
        sh.unsubscribe(1, 0).unwrap();
        assert_eq!(occupancy(&sh) as usize, sh.component_count(), "unsubscribe");
        let u = sh.add_user(&[2, 3]).unwrap();
        assert_eq!(occupancy(&sh) as usize, sh.component_count(), "add_user");
        sh.remove_user(u).unwrap();
        assert_eq!(occupancy(&sh) as usize, sh.component_count(), "remove_user");
        sh.subscribe(0, 4).unwrap();
        assert_eq!(occupancy(&sh) as usize, sh.component_count(), "subscribe");
        let text = registry.render_prometheus();
        // Rings fully drained between posts.
        for shard in 0..2 {
            assert!(
                text.contains(&format!(
                    "firehose_sharded_ring_depth{{shard=\"{shard}\",strategy=\"Sh_UniBin(2)\"}} 0"
                )) || text.contains(&format!(
                    "firehose_sharded_ring_depth{{strategy=\"Sh_UniBin(2)\",shard=\"{shard}\"}} 0"
                )),
                "{text}"
            );
        }
        // Occupancy gauges account for every live engine.
        assert_eq!(occupancy(&sh) as usize, sh.component_count());
        // Offer latency recorded per post.
        assert_eq!(
            sh.obs.as_ref().unwrap().offer_latency.count(),
            stream.len() as u64
        );
    }

    /// The headline regression for supervision: a worker panic must not
    /// terminate the strategy. Offers keep producing aligned decisions, the
    /// worker respawns, and the episode is reported exactly once.
    #[test]
    fn worker_panic_recovers_and_reports() {
        let (graph, subs) = figure7();
        let stream = posts(60);
        let mut sh = ShardedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs)
            .shards(2)
            .chaos(ShardFaultPlan::single(0, 8, ShardFaultKind::Panic))
            .build()
            .unwrap();
        let mut decisions = Vec::new();
        for post in &stream {
            decisions.push(sh.offer(post));
        }
        assert_eq!(decisions.len(), stream.len(), "every post gets a decision");
        assert!(sh.restarts() >= 1, "the dead worker must have respawned");
        let failure = sh.take_shard_failure().expect("episode must be reported");
        assert_eq!(failure.shard, 0);
        assert!(failure.restarts >= 1);
        assert!(
            failure.lost_posts >= 1,
            "the in-flight post died with the worker"
        );
        assert!(
            sh.take_shard_failure().is_none(),
            "an episode is reported exactly once"
        );
        // The survivor keeps working: more posts, a churn op, a checkpoint.
        for post in posts(80).iter().skip(60) {
            sh.offer(post);
        }
        sh.subscribe(0, 4).unwrap();
        let mut state = Vec::new();
        sh.save_state(&mut state).unwrap();
        assert!(!state.is_empty());
    }

    #[test]
    fn batch_stays_aligned_under_seeded_kills() {
        let (graph, subs) = figure7();
        let stream = posts(300);
        for seed in [7u64, 99] {
            // `max_after` stays below either shard's total request count so
            // the first scheduled kill always fires.
            let plan = ShardFaultPlan::seeded(seed, 2, 3, 100);
            let mut sh =
                ShardedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs.clone())
                    .shards(2)
                    .chaos(plan)
                    .build()
                    .unwrap();
            let decisions = sh.offer_batch(&stream);
            assert_eq!(
                decisions.len(),
                stream.len(),
                "seed {seed}: decisions must stay aligned with posts"
            );
            assert!(sh.restarts() >= 1, "seed {seed}: at least one kill fired");
        }
    }

    #[test]
    fn watchdog_escalates_stalled_shard() {
        let (graph, subs) = figure7();
        let stream = posts(40);
        let mut sh = ShardedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs)
            .shards(2)
            .watchdog(Duration::from_millis(50))
            .chaos(ShardFaultPlan::single(1, 6, ShardFaultKind::Stall))
            .build()
            .unwrap();
        for post in &stream {
            sh.offer(post);
        }
        assert!(sh.restarts() >= 1, "the stalled worker must be respawned");
        let failure = sh.take_shard_failure().expect("stall episode reported");
        assert_eq!(failure.shard, 1);
    }

    #[test]
    fn save_fails_typed_then_heals() {
        // One author, one component, one shard: request counts are fully
        // deterministic (no sweeps: all timestamps < λt/2). Deploy is
        // request 0; p offers are 1..=p; the fault at `1 + p` fires on the
        // SaveBlobs request itself.
        let graph = UndirectedGraph::from_edges(1, std::iter::empty::<(u32, u32)>());
        let subs = Subscriptions::new(1, vec![vec![0]]).unwrap();
        let p = 4u64;
        let mut sh = ShardedMulti::builder(AlgorithmKind::UniBin, config(), &graph, subs)
            .shards(1)
            .chaos(ShardFaultPlan::single(0, 1 + p, ShardFaultKind::Panic))
            .build()
            .unwrap();
        for i in 0..p {
            sh.offer(&Post::new(i, 0, i, format!("post {i}")));
        }
        let err = sh.save_state(&mut Vec::new()).expect_err("save must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::Other);
        let failure = sh.take_shard_failure().expect("failure surfaced via save");
        assert!(failure.restarts >= 1);
        // Healed: the retried save succeeds.
        let mut state = Vec::new();
        sh.save_state(&mut state).unwrap();
        assert!(!state.is_empty());
    }

    /// A fleet holding one engine fewer than there are live components
    /// fails its save at the barrier instead of waiting forever for the
    /// missing blob; once the engine is back, the stitched bytes match
    /// `SharedMulti` again.
    #[test]
    fn save_with_a_withheld_engine_fails_promptly() {
        let (graph, subs) = figure7();
        let kind = AlgorithmKind::NeighborBin;
        let mut seq = SharedMulti::new(kind, config(), &graph, subs.clone());
        let mut sh = ShardedMulti::new(kind, config(), &graph, subs, 3).unwrap();
        for post in &posts(80) {
            seq.offer(post);
            sh.offer(post);
        }
        // Recall one engine without redeploying it.
        let cid = sh.registry.meta.iter().position(Option::is_some).unwrap() as u32;
        assert!(sh.recall_released(&[cid]));
        let started = Instant::now();
        let err = sh.save_state(&mut Vec::new()).expect_err("save must fail");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "save must not spin"
        );
        assert!(
            err.to_string()
                .contains("collected 2 engine states for 3 components"),
            "{err}"
        );
        sh.deployed = false;
        assert!(sh.deploy([cid]));
        assert_eq!(sh.metrics(), seq.metrics());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        seq.save_state(&mut a).unwrap();
        sh.save_state(&mut b).unwrap();
        assert_eq!(a, b, "stitched sharded state must match sequential bytes");
    }

    #[test]
    fn quarantines_attributed_to_owning_shard() {
        let (graph, subs) = figure7();
        let mut sh = ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs, 2).unwrap();
        sh.note_quarantined(0);
        sh.note_quarantined(0);
        sh.note_quarantined(3);
        let total: u64 = sh.shard_quarantined().iter().sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn re_homes_counted_across_shard_boundaries() {
        // Line graph 0-1-2-...-7: u0 follows even authors (singleton
        // components), then subscribes to odd ones, merging everything into
        // one component whose seeds come from many slots.
        let graph = UndirectedGraph::from_edges(8, (0..7).map(|i| (i, i + 1)));
        let subs = Subscriptions::new(8, vec![vec![0, 2, 4, 6]]).unwrap();
        let mut sh = ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs, 2).unwrap();
        // Populate windows so merges warm-start.
        for (i, author) in [0u32, 2, 4, 6].iter().enumerate() {
            sh.offer(&Post::new(
                i as u64,
                *author,
                i as u64 * 1_000,
                format!("post from author {author}"),
            ));
        }
        for author in [1u32, 3, 5, 7] {
            sh.subscribe(0, author).unwrap();
        }
        assert!(
            sh.re_homes() > 0,
            "merging singletons across slots must cross a shard boundary at 2 shards"
        );
    }

    /// Requests the workers have handled, summed over shards, once their
    /// heartbeats stop moving (the op under test has already pushed
    /// everything it will; only its deploys may still be in flight).
    fn settled_requests(sh: &ShardedMulti) -> u64 {
        let mut last: u64 = sh.heartbeats().iter().sum();
        let mut stable = 0;
        while stable < 5 {
            std::thread::sleep(Duration::from_millis(2));
            let now: u64 = sh.heartbeats().iter().sum();
            if now == last {
                stable += 1;
            } else {
                (last, stable) = (now, 0);
            }
        }
        last
    }

    /// Component-local churn: each op makes the workers handle requests
    /// bounded by the engines it touches (one recall per owning shard, one
    /// deploy per surviving released or spawned engine), whatever the
    /// number of components; no-op and erroring ops send nothing.
    #[test]
    fn churn_requests_scale_with_touched_engines_only() {
        let mut deltas_by_size = Vec::new();
        for paths in [16u32, 256] {
            // Disjoint paths 3i - 3i+1 - 3i+2; user i follows both ends of
            // path i, so every user holds two singleton components.
            let authors = 3 * paths as usize;
            let graph = UndirectedGraph::from_edges(
                authors,
                (0..paths).flat_map(|i| [(3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2)]),
            );
            let sets: Vec<_> = (0..paths).map(|i| vec![3 * i, 3 * i + 2]).collect();
            let subs = Subscriptions::new(authors, sets).unwrap();
            let mut sh =
                ShardedMulti::new(AlgorithmKind::UniBin, config(), &graph, subs, 2).unwrap();
            assert_eq!(sh.component_count(), 2 * paths as usize);
            let mut deltas = Vec::new();
            let mut measure = |sh: &mut ShardedMulti,
                               what: &str,
                               touched: u64,
                               spawned: u64,
                               op: &dyn Fn(&mut ShardedMulti)| {
                let before = settled_requests(sh);
                let churn = sh.churn_stats();
                op(sh);
                let delta = settled_requests(sh) - before;
                let after = sh.churn_stats();
                assert_eq!(
                    after.engines_spawned - churn.engines_spawned,
                    spawned,
                    "{what}: spawned"
                );
                // At most one recall per touched engine's shard, and one
                // deploy per touched engine that survives or is spawned.
                assert!(
                    delta <= 2 * touched + spawned,
                    "{what} at {paths} paths: {delta} requests for {touched} touched \
                     and {spawned} spawned engines"
                );
                deltas.push(delta);
            };
            // Merge both ends of path 0 through its middle author.
            measure(&mut sh, "subscribe", 2, 1, &|sh| {
                assert!(sh.subscribe(0, 1).unwrap());
            });
            // Split it again.
            measure(&mut sh, "unsubscribe", 1, 2, &|sh| {
                assert!(sh.unsubscribe(0, 1).unwrap());
            });
            measure(&mut sh, "add_user", 0, 1, &|sh| {
                sh.add_user(&[4]).unwrap();
            });
            measure(&mut sh, "remove_user", 2, 0, &|sh| {
                sh.remove_user(1).unwrap();
            });
            // Ops that change nothing touch nothing.
            measure(&mut sh, "duplicate subscribe", 0, 0, &|sh| {
                assert!(!sh.subscribe(0, 0).unwrap());
            });
            measure(&mut sh, "unknown author", 0, 0, &|sh| {
                assert!(sh.subscribe(0, authors as AuthorId).is_err());
            });
            measure(&mut sh, "inactive user", 0, 0, &|sh| {
                assert!(sh.subscribe(1, 0).is_err());
                assert!(sh.remove_user(1).is_err());
            });
            assert_eq!(&deltas[4..], [0, 0, 0], "no-op and erroring ops");
            deltas_by_size.push(deltas);
        }
        assert_eq!(
            deltas_by_size[0], deltas_by_size[1],
            "requests per op must not depend on the component count"
        );
    }
}
