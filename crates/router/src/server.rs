//! The routing tier: a handler on the shared connection loop, a fixed
//! set of proxy workers, the health prober and the stats rollup.
//!
//! Threading model: every thread starts with the router and none is
//! spawned per client or per request. One loop poller
//! ([`gb_service::io_loop`], the same loop `gb-serve` runs) accepts,
//! frames and decodes client traffic and answers `ping` inline. Balance,
//! `stats` and the forwarding half of `shutdown` go through a queue to
//! `max_pool_idle` proxy workers; each worker carries one client frame
//! at a time through blocking upstream exchanges on pooled connections
//! and hands the reply back through the loop. One health-prober thread
//! and, with [`RouterConfig::rebalance`] set, one rebalance tick thread
//! complete the set. The loop stops reading a connection while its
//! frame is with a worker, so per-connection reply order is preserved.
//!
//! Hedging costs no thread either: after `hedge_delay` the worker that
//! owns the request sends the hedge on a second pooled connection and
//! polls both in 1 ms slices, reading each without waiting (a socket
//! read timeout rounds up to the kernel tick, several ms). A partial
//! reply stays buffered between slices. The first clean reply wins;
//! the loser is cancelled — its connection is closed, never repooled —
//! and books neither success nor failure.
//!
//! Failure handling has an active and a passive half sharing one
//! per-upstream consecutive-failure counter: the prober pings every
//! upstream each `health_interval`, and every data-path exchange that
//! errors (connect refused, reset, EOF, hard timeout) counts too. At
//! `fail_threshold` consecutive failures the upstream is marked dead in
//! the [`FailoverRing`] — its vnode arcs re-home onto survivors — and
//! its pool is flushed. A later successful probe (or any successful
//! exchange) marks it alive again, restoring the exact pre-death
//! mapping.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gb_rebal::{RebalanceCounters, RebalanceSettings, RebalanceSnapshot, VnodeLoad};
use gb_service::cache::CacheKey;
use gb_service::fault::{IoShim, Passthrough};
use gb_service::io_loop::{Dispatch, Handler, IoLoop, LoopConfig, Reply};
use gb_service::metrics::{rebal_json, Histogram};
use gb_service::proto::{
    binary_reply_id, json_reply_id, Codec, ErrorCode, Json, Request, Response, WireCodec, BIN_HDR,
    MAGIC,
};
use gb_service::route::{FailoverRing, DEFAULT_VNODES};
use gb_service::shed::StealQueue;

use crate::pool::{reframe, PooledConn, UpstreamPool, UPSTREAM_CONN_BASE};

/// Failover attempts (distinct upstreams tried) per request.
const MAX_ATTEMPTS: usize = 4;

/// Polling period while a worker waits on a primary and its hedge at
/// once.
const HEDGE_SLICE: Duration = Duration::from_millis(1);

/// Configuration for [`RouterServer::start`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Upstream `gb-serve` addresses; ring position = list index.
    pub upstreams: Vec<SocketAddr>,
    /// Virtual nodes per upstream on the ring (0 = [`DEFAULT_VNODES`]).
    pub vnodes: usize,
    /// Hedge delay: if the owning upstream has not replied within this,
    /// race a second attempt on another backend. `None` disables
    /// hedging.
    pub hedge_delay: Option<Duration>,
    /// Per-request budget: total time a proxied request may spend
    /// across all attempts before the client gets a `timeout` error.
    pub reply_timeout: Duration,
    /// Dial timeout for upstream connections.
    pub connect_timeout: Duration,
    /// Period of the active health prober.
    pub health_interval: Duration,
    /// Budget for one health probe (connect + ping round trip).
    pub probe_timeout: Duration,
    /// Consecutive failures (probe or data-path) before an upstream is
    /// declared dead.
    pub fail_threshold: u32,
    /// Timer granularity of the connection loop: how often in-flight
    /// and write-stalled client connections are re-checked.
    pub poll_interval: Duration,
    /// Forward a client `shutdown` frame to every alive upstream before
    /// draining (the whole-fleet stop switch).
    pub forward_shutdown: bool,
    /// Idle connections kept per upstream pool, and the number of proxy
    /// workers (at least 1): each worker holds one upstream exchange at
    /// a time, so no pool has to dial past its idle cap.
    pub max_pool_idle: usize,
    /// Self-balancing vnode placement (`gb-rebal`): when set, a tick
    /// thread periodically re-partitions the vnode set across alive
    /// upstreams with HF over the router-observed per-vnode load and
    /// swaps the ring's explicit assignment atomically between
    /// requests. `None` keeps the static hash placement.
    pub rebalance: Option<RebalanceSettings>,
    /// Fault-injection seam for client-side and upstream-side sockets
    /// (probes run unshimmed so scripted upstream faults cannot blind
    /// the health checker that is supposed to catch them).
    pub shim: Arc<dyn IoShim>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            upstreams: Vec::new(),
            vnodes: 0,
            hedge_delay: None,
            reply_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(1),
            health_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(500),
            fail_threshold: 3,
            poll_interval: Duration::from_millis(100),
            forward_shutdown: true,
            max_pool_idle: 8,
            rebalance: None,
            shim: Arc::new(Passthrough),
        }
    }
}

/// Per-upstream live state.
struct Upstream {
    id: u32,
    pool: UpstreamPool,
    /// Mirror of the ring's alive bit, readable without the ring lock.
    alive: AtomicBool,
    consecutive_failures: AtomicU32,
    inflight: AtomicI64,
    requests: AtomicU64,
    errors: AtomicU64,
    hedge_wins: AtomicU64,
    latency: Histogram,
}

/// Router-wide counters (all monotone).
#[derive(Default)]
struct Counters {
    proxied: AtomicU64,
    hedges_sent: AtomicU64,
    hedges_won: AtomicU64,
    failovers: AtomicU64,
    recoveries: AtomicU64,
    retries: AtomicU64,
    /// Idle pooled connections found closed by the upstream and redialed
    /// transparently (not charged against the failure threshold).
    stale_retries: AtomicU64,
    bad_frames: AtomicU64,
    no_upstream: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
}

struct Shared {
    config: RouterConfig,
    ring: RwLock<FailoverRing>,
    upstreams: Vec<Upstream>,
    counters: Counters,
    /// Per-vnode load observed at the proxy point. The router cannot
    /// reuse upstream-reported vnode stats — each upstream shards over
    /// its *own* vnode space, disjoint from the router's ring over
    /// upstreams — so the proxy path is the one place this ring's
    /// vnodes are visible.
    vnode_load: VnodeLoad,
    rebal: RebalanceCounters,
    started: Instant,
    /// The client-side connection loop.
    io: Arc<IoLoop>,
    /// Frames handed from the loop to the proxy workers: one shard that
    /// every worker pops. Its capacity never binds, because the loop
    /// defers at most one frame per connection.
    jobs: StealQueue<Job>,
}

impl Shared {
    /// One failed exchange (or probe) against `id`; crossing the
    /// threshold re-homes its vnodes onto survivors.
    fn mark_failure(&self, id: u32) {
        let up = &self.upstreams[id as usize];
        up.errors.fetch_add(1, Ordering::Relaxed);
        let fails = up.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if fails >= self.config.fail_threshold {
            self.declare_dead(id);
        }
    }

    /// One successful exchange (or probe) against `id`; a dead upstream
    /// answering is immediately revived.
    fn mark_success(&self, id: u32) {
        let up = &self.upstreams[id as usize];
        up.consecutive_failures.store(0, Ordering::Relaxed);
        if !up.alive.load(Ordering::Relaxed) {
            self.declare_alive(id);
        }
    }

    fn declare_dead(&self, id: u32) {
        let changed = self.ring.write().unwrap().mark_dead(id);
        if changed {
            let up = &self.upstreams[id as usize];
            up.alive.store(false, Ordering::Relaxed);
            up.pool.clear();
            self.counters.failovers.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "gb-router: upstream {} ({}) dead; vnodes re-homed onto survivors",
                id,
                up.pool.addr()
            );
        }
    }

    fn declare_alive(&self, id: u32) {
        let changed = self.ring.write().unwrap().mark_alive(id);
        if changed {
            let up = &self.upstreams[id as usize];
            up.alive.store(true, Ordering::Relaxed);
            up.consecutive_failures.store(0, Ordering::Relaxed);
            self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "gb-router: upstream {} ({}) recovered; vnodes re-homed back",
                id,
                up.pool.addr()
            );
        }
    }
}

/// RAII in-flight counter for one upstream.
struct InflightGuard {
    shared: Arc<Shared>,
    id: u32,
}

impl InflightGuard {
    fn new(shared: &Arc<Shared>, id: u32) -> InflightGuard {
        shared.upstreams[id as usize]
            .inflight
            .fetch_add(1, Ordering::Relaxed);
        InflightGuard {
            shared: Arc::clone(shared),
            id,
        }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.shared.upstreams[self.id as usize]
            .inflight
            .fetch_sub(1, Ordering::Relaxed);
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A complete error-reply frame in the client's codec.
fn error_frame(codec: WireCodec, id: Option<u64>, code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::new();
    codec.encode_response(
        &Response::Error {
            id,
            code,
            message: message.into(),
        },
        &mut out,
    );
    out
}

/// The `id` field of a framed reply, sniffing the codec from the first
/// byte — the router relays frames verbatim, so correlation must read
/// whichever encoding the upstream answered in.
fn reply_id(reply: &[u8]) -> Option<u64> {
    if reply.first() == Some(&MAGIC) {
        binary_reply_id(reply.get(BIN_HDR..)?)
    } else {
        json_reply_id(std::str::from_utf8(reply).ok()?.trim_end())
    }
}

/// Books a clean reply: correlates it by id, records latency and
/// success, and repools the connection.
fn settle_ok(
    shared: &Arc<Shared>,
    id: u32,
    started: Instant,
    conn: PooledConn,
    reply: Vec<u8>,
    want_id: Option<u64>,
) -> io::Result<Vec<u8>> {
    if let Some(want) = want_id {
        if reply_id(&reply) != Some(want) {
            // A reply for some other request means the pooled stream
            // lost frame sync; never repool it, never forward it.
            shared.mark_failure(id);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "upstream reply id mismatch",
            ));
        }
    }
    let up = &shared.upstreams[id as usize];
    up.latency.record(started.elapsed());
    shared.mark_success(id);
    up.pool.publish(conn);
    Ok(reply)
}

/// Proxies one balance frame (pre-framed bytes, relayed verbatim):
/// route by key, fail over across distinct upstreams on send-side
/// errors, hedge on reply-side tail latency. Router-generated errors go
/// out in the client's codec.
fn proxy_balance(
    shared: &Arc<Shared>,
    frame: &[u8],
    key: u64,
    req_id: Option<u64>,
    codec: WireCodec,
) -> Vec<u8> {
    let deadline = Instant::now() + shared.config.reply_timeout;
    let mut tried: Vec<u32> = Vec::new();
    let mut last_err: Option<io::Error> = None;
    while tried.len() < MAX_ATTEMPTS {
        let target = shared.ring.read().unwrap().route_excluding(key, &tried);
        let Some(id) = target else { break };
        if !tried.is_empty() {
            shared.counters.retries.fetch_add(1, Ordering::Relaxed);
        }
        tried.push(id);
        match attempt_on(shared, id, frame, key, req_id, deadline, &tried) {
            Ok(reply) => return reply,
            Err(e) => last_err = Some(e),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    match last_err {
        Some(e) if is_timeout(&e) => error_frame(
            codec,
            req_id,
            ErrorCode::Timeout,
            "upstream did not reply within the router's budget",
        ),
        Some(e) => error_frame(
            codec,
            req_id,
            ErrorCode::Internal,
            &format!("upstream failed: {e}"),
        ),
        None => {
            shared.counters.no_upstream.fetch_add(1, Ordering::Relaxed);
            error_frame(codec, req_id, ErrorCode::Internal, "no alive upstream")
        }
    }
}

/// Whether an exchange error looks like the upstream closed the
/// connection before (or instead of) answering — exactly what a pooled
/// connection exhibits when the upstream restarted or swept it while it
/// sat idle.
fn is_stale_close(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// One attempt against upstream `id`: send, then wait — either to the
/// full deadline, or only to the hedge delay before racing a second
/// backend. A connection reused from the idle pool that fails like a
/// stale close is retried exactly once on a fresh dial before anything
/// is charged against the failure threshold: the upstream restarting is
/// not the upstream being down.
fn attempt_on(
    shared: &Arc<Shared>,
    id: u32,
    frame: &[u8],
    key: u64,
    req_id: Option<u64>,
    deadline: Instant,
    tried: &[u32],
) -> io::Result<Vec<u8>> {
    let up = &shared.upstreams[id as usize];
    up.requests.fetch_add(1, Ordering::Relaxed);
    let guard = InflightGuard::new(shared, id);
    let started = Instant::now();
    let (mut conn, mut reused) = match up.pool.checkout_tracked() {
        Ok(pair) => pair,
        Err(e) => {
            shared.mark_failure(id);
            return Err(e);
        }
    };
    loop {
        let exchange: io::Result<Vec<u8>> = match conn.send_frame(frame) {
            Err(e) => Err(e),
            Ok(()) => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                // Hedging applies only when a distinct alive backend
                // exists and the hedge delay actually precedes the
                // deadline.
                let hedge_plan = shared.config.hedge_delay.and_then(|delay| {
                    if delay >= remaining {
                        return None;
                    }
                    shared
                        .ring
                        .read()
                        .unwrap()
                        .route_excluding(key, tried)
                        .map(|hedge_id| (delay, hedge_id))
                });
                let first_wait = hedge_plan.map_or(remaining, |(delay, _)| delay);
                match conn.read_reply(first_wait.max(Duration::from_millis(1))) {
                    Ok(reply) => return settle_ok(shared, id, started, conn, reply, req_id),
                    Err(e) if is_timeout(&e) => {
                        if let Some((_, hedge_id)) = hedge_plan {
                            return hedged_race(
                                shared, id, hedge_id, guard, conn, frame, req_id, deadline, started,
                            );
                        }
                        // Hard timeout: the upstream accepted the request
                        // but never answered within budget.
                        shared.mark_failure(id);
                        return Err(e);
                    }
                    Err(e) => Err(e),
                }
            }
        };
        let e = exchange.unwrap_err();
        if reused && is_stale_close(&e) {
            match up.pool.dial() {
                Ok(fresh) => {
                    shared
                        .counters
                        .stale_retries
                        .fetch_add(1, Ordering::Relaxed);
                    conn = fresh;
                    reused = false;
                    continue;
                }
                Err(dial_err) => {
                    // Could not even dial: that is a real failure.
                    shared.mark_failure(id);
                    return Err(dial_err);
                }
            }
        }
        shared.mark_failure(id);
        return Err(e);
    }
}

/// Sends a hedge for the primary's request to `hedge_id` and polls both
/// connections every [`HEDGE_SLICE`]; first clean reply wins. The loser
/// is cancelled: its connection is dropped (closed, not repooled) and
/// it books neither success nor failure. A side whose exchange fails
/// books its failure and drops out of the race; at the deadline every
/// side still waiting books a failure.
#[allow(clippy::too_many_arguments)]
fn hedged_race(
    shared: &Arc<Shared>,
    primary: u32,
    hedge_id: u32,
    primary_guard: InflightGuard,
    primary_conn: PooledConn,
    frame: &[u8],
    req_id: Option<u64>,
    deadline: Instant,
    primary_started: Instant,
) -> io::Result<Vec<u8>> {
    shared.counters.hedges_sent.fetch_add(1, Ordering::Relaxed);
    let up = &shared.upstreams[hedge_id as usize];
    up.requests.fetch_add(1, Ordering::Relaxed);
    let hedge_guard = InflightGuard::new(shared, hedge_id);
    let hedge_conn = up.pool.checkout().and_then(|mut conn| {
        conn.send_frame(frame)?;
        Ok(conn)
    });
    let mut last_err: Option<io::Error> = None;
    let hedge_conn = match hedge_conn {
        Ok(conn) => Some(conn),
        Err(e) => {
            shared.mark_failure(hedge_id);
            last_err = Some(e);
            None
        }
    };
    // Each side: upstream id, start time, connection, in-flight guard.
    let mut sides = [
        Some((primary, primary_started, primary_conn, primary_guard)),
        hedge_conn.map(|conn| (hedge_id, Instant::now(), conn, hedge_guard)),
    ];
    loop {
        let expired = Instant::now() >= deadline;
        for (from_hedge, side) in sides.iter_mut().enumerate() {
            let Some((id, _, conn, _)) = side.as_mut() else {
                continue;
            };
            let id = *id;
            let outcome = match conn.poll_reply() {
                Err(e) if is_timeout(&e) && !expired => continue,
                Err(e) => {
                    shared.mark_failure(id);
                    Err(e)
                }
                Ok(reply) => {
                    let (_, started, conn, _guard) = side.take().expect("side checked above");
                    settle_ok(shared, id, started, conn, reply, req_id)
                }
            };
            *side = None;
            match outcome {
                Ok(reply) => {
                    if from_hedge == 1 {
                        shared.counters.hedges_won.fetch_add(1, Ordering::Relaxed);
                        up.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(reply);
                }
                Err(e) => last_err = Some(e),
            }
        }
        if sides.iter().all(Option::is_none) {
            return Err(
                last_err.unwrap_or_else(|| io::Error::other("hedge race produced no outcome"))
            );
        }
        thread::sleep(HEDGE_SLICE);
    }
}

// ---------------------------------------------------------------------------
// Stats rollup
// ---------------------------------------------------------------------------

/// One request as a JSON line, for the router's own upstream calls.
fn json_frame(request: &Request) -> Vec<u8> {
    reframe(WireCodec::Json, request.encode().as_bytes())
}

/// Fetches an upstream's own stats object over a pooled connection.
fn fetch_upstream_stats(shared: &Arc<Shared>, id: u32) -> Option<Json> {
    let up = &shared.upstreams[id as usize];
    if !up.alive.load(Ordering::Relaxed) {
        return None;
    }
    let timeout = shared.config.probe_timeout.max(Duration::from_millis(250));
    let mut conn = up.pool.checkout().ok()?;
    let reply = conn.call(&json_frame(&Request::Stats), timeout).ok()?;
    let json = Json::parse(std::str::from_utf8(&reply).ok()?.trim_end()).ok()?;
    let stats = json.get("stats")?.clone();
    up.pool.publish(conn);
    Some(stats)
}

fn stats_rollup(shared: &Arc<Shared>) -> Json {
    let n = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
    let mut upstream_list = Vec::with_capacity(shared.upstreams.len());
    let mut loads: Vec<f64> = Vec::new();
    for up in &shared.upstreams {
        let alive = up.alive.load(Ordering::Relaxed);
        let nested = fetch_upstream_stats(shared, up.id);
        let nested_num = |section: &str, key: &str| {
            nested
                .as_ref()
                .and_then(|s| s.get(section)?.get(key)?.as_f64())
        };
        let depth = nested_num("queue", "depth").unwrap_or(0.0);
        let upstream_inflight = nested_num("connections", "inflight").unwrap_or(0.0);
        let inflight = up.inflight.load(Ordering::Relaxed);
        if alive {
            // Load gauge per upstream: queued work plus everything the
            // router itself has in flight there (covers requests still
            // on the wire).
            loads.push(depth + upstream_inflight + inflight.max(0) as f64);
        }
        let mut entry = vec![
            ("id".into(), Json::Int(up.id as i64)),
            ("addr".into(), Json::Str(up.pool.addr().to_string())),
            ("alive".into(), Json::Bool(alive)),
            (
                "consecutive_failures".into(),
                Json::Int(up.consecutive_failures.load(Ordering::Relaxed) as i64),
            ),
            ("requests".into(), n(&up.requests)),
            ("errors".into(), n(&up.errors)),
            ("hedge_wins".into(), n(&up.hedge_wins)),
            ("inflight".into(), Json::Int(inflight)),
            ("pool_idle".into(), Json::Int(up.pool.idle_count() as i64)),
            ("latency".into(), up.latency.to_json()),
            ("queue_depth".into(), Json::Num(depth)),
            ("upstream_inflight".into(), Json::Num(upstream_inflight)),
        ];
        if let Some(total) = nested_num("requests", "total") {
            entry.push(("upstream_requests".into(), Json::Int(total as i64)));
        }
        upstream_list.push(Json::Obj(entry));
    }
    let max = loads.iter().cloned().fold(0.0f64, f64::max);
    let mean = if loads.is_empty() {
        0.0
    } else {
        loads.iter().sum::<f64>() / loads.len() as f64
    };
    let ratio = if mean > 0.0 { max / mean } else { 1.0 };
    let (alive, vnodes, vnode_count) = {
        let ring = shared.ring.read().unwrap();
        (ring.alive_count(), ring.vnodes(), ring.vnode_count())
    };
    let rebalance = shared.config.rebalance.as_ref();
    let rebal = rebal_json(
        rebalance,
        rebalance.is_some() && shared.upstreams.len() > 1,
        vnode_count,
        &shared.rebal.snapshot(),
    );
    let c = &shared.counters;
    let router = Json::Obj(vec![
        (
            "uptime_ms".into(),
            Json::Int(shared.started.elapsed().as_millis() as i64),
        ),
        (
            "upstream_count".into(),
            Json::Int(shared.upstreams.len() as i64),
        ),
        ("alive".into(), Json::Int(alive as i64)),
        ("vnodes".into(), Json::Int(vnodes as i64)),
        ("proxied".into(), n(&c.proxied)),
        ("hedges_sent".into(), n(&c.hedges_sent)),
        ("hedges_won".into(), n(&c.hedges_won)),
        ("failovers".into(), n(&c.failovers)),
        ("recoveries".into(), n(&c.recoveries)),
        ("retries".into(), n(&c.retries)),
        ("stale_retries".into(), n(&c.stale_retries)),
        ("bad_frames".into(), n(&c.bad_frames)),
        ("no_upstream".into(), n(&c.no_upstream)),
        ("probes_ok".into(), n(&c.probes_ok)),
        ("probes_failed".into(), n(&c.probes_failed)),
        (
            "imbalance".into(),
            Json::Obj(vec![
                ("max".into(), Json::Num(max)),
                ("mean".into(), Json::Num(mean)),
                ("ratio".into(), Json::Num(ratio)),
            ]),
        ),
        ("rebal".into(), rebal),
        ("engine".into(), Json::Str(shared.io.engine().into())),
    ]);
    Json::Obj(vec![
        ("router".into(), router),
        ("upstreams".into(), Json::Arr(upstream_list)),
        ("faults".into(), shared.io.counters().faults_json()),
        ("connections".into(), shared.io.connections_json()),
    ])
}

// ---------------------------------------------------------------------------
// The loop handler and the proxy workers
// ---------------------------------------------------------------------------

/// Work handed from the loop to a proxy worker.
enum Job {
    /// One balance frame, relayed verbatim to the key's upstream.
    Balance {
        frame: Vec<u8>,
        key: u64,
        req_id: Option<u64>,
        codec: WireCodec,
        reply: Reply,
    },
    /// The stats rollup, which fetches every upstream's own stats.
    Stats { codec: WireCodec, reply: Reply },
    /// Forward a client `shutdown` to every alive upstream.
    ForwardShutdown,
}

impl Handler for Shared {
    fn handle(&self, request: Request, raw: &[u8], out: &mut Dispatch<'_>) {
        let codec = out.codec();
        let job = match request {
            Request::Ping => return out.reply(&Response::Pong),
            Request::Stats => Job::Stats {
                codec,
                reply: out.defer(None),
            },
            Request::Shutdown => {
                // Ack first and write it now, so the drain cannot race
                // it out of the buffer; the forwarding runs on a worker,
                // queued before the queue closes.
                out.reply(&Response::Pong);
                out.flush();
                if self.config.forward_shutdown {
                    let _ = self.jobs.try_push(Job::ForwardShutdown);
                }
                return trigger_shutdown(self);
            }
            Request::Balance(req) => {
                self.counters.proxied.fetch_add(1, Ordering::Relaxed);
                Job::Balance {
                    // The client's own bytes, framing restored — the body
                    // is never re-encoded on the way upstream.
                    frame: reframe(codec, raw),
                    key: CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta)
                        .mix(),
                    req_id: req.id,
                    codec,
                    reply: out.defer(req.id),
                }
            }
        };
        // Refused only once the router has begun draining.
        let refused = match self.jobs.try_push(job) {
            Err((Job::Balance { reply, req_id, .. }, _)) => Some((reply, req_id)),
            Err((Job::Stats { reply, .. }, _)) => Some((reply, None)),
            _ => None,
        };
        if let Some((reply, id)) = refused {
            reply.send_bytes(&error_frame(
                codec,
                id,
                ErrorCode::ShuttingDown,
                "router is draining",
            ));
        }
    }

    fn loop_error(&self, code: ErrorCode) {
        if code == ErrorCode::BadRequest {
            self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.jobs.pop(0) {
        match job {
            Job::Balance {
                frame,
                key,
                req_id,
                codec,
                reply,
            } => {
                if reply.peer_gone() {
                    reply.abandon();
                    continue;
                }
                let vnode = shared.ring.read().unwrap().vnode_of(key);
                let started = Instant::now();
                let bytes = proxy_balance(shared, &frame, key, req_id, codec);
                // Charge the full proxy round trip (queue + compute +
                // wire) to the vnode: it is the cost a move would
                // relocate.
                let micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
                shared.vnode_load.record(vnode, micros);
                reply.send_bytes(&bytes);
            }
            Job::Stats { codec, reply } => {
                reply.send(codec, &Response::Stats(stats_rollup(shared)));
            }
            Job::ForwardShutdown => forward_shutdown(shared),
        }
    }
}

/// Refuses new work and starts the loop's drain; queued frames are
/// still served. Safe to call more than once.
fn trigger_shutdown(shared: &Shared) {
    shared.jobs.close();
    shared.io.trigger_shutdown();
}

/// Forwards `shutdown` to every alive upstream, waiting briefly for
/// each ack.
fn forward_shutdown(shared: &Arc<Shared>) {
    for up in &shared.upstreams {
        if !up.alive.load(Ordering::Relaxed) {
            continue;
        }
        if let Ok(mut conn) = up.pool.checkout() {
            let timeout = shared.config.probe_timeout.max(Duration::from_millis(250));
            let _ = conn.call(&json_frame(&Request::Shutdown), timeout);
            // The upstream is going down; never repool.
        }
    }
}

// ---------------------------------------------------------------------------
// Rebalance tick
// ---------------------------------------------------------------------------

/// Periodic self-balancing tick: observe per-vnode load, plan an HF
/// assignment over the alive upstreams, and swap it into the ring under
/// the write lock (atomic between requests — routing reads take the
/// read lock per frame).
fn rebalance_loop(shared: &Arc<Shared>) {
    let Some(settings) = &shared.config.rebalance else {
        return;
    };
    gb_rebal::run_ticks(
        settings,
        &shared.vnode_load,
        &shared.rebal,
        || shared.io.is_shutting_down(),
        || {
            let ring = shared.ring.read().unwrap();
            let current = ring.assignment().map(<[u32]>::to_vec);
            (
                current.unwrap_or_else(|| ring.default_owners()),
                ring.alive_ids(),
            )
        },
        |owners| shared.ring.write().unwrap().set_assignment(Some(owners)),
    );
}

// ---------------------------------------------------------------------------
// Health prober
// ---------------------------------------------------------------------------

/// One unshimmed connect + ping round trip against `addr`: scripted
/// upstream faults must not blind the checker that is meant to catch
/// them.
fn probe(addr: SocketAddr, timeout: Duration) -> bool {
    let unshimmed: Arc<dyn IoShim> = Arc::new(Passthrough);
    PooledConn::connect(addr, timeout, timeout, &unshimmed, 0)
        .and_then(|mut conn| conn.call(&json_frame(&Request::Ping), timeout))
        .is_ok_and(|reply| {
            let line = String::from_utf8_lossy(&reply);
            matches!(Response::decode(line.trim_end()), Ok(Response::Pong))
        })
}

fn health_loop(shared: &Arc<Shared>) {
    let tick = shared
        .config
        .poll_interval
        .min(Duration::from_millis(25))
        .max(Duration::from_millis(1));
    loop {
        if shared.io.is_shutting_down() {
            return;
        }
        for up in &shared.upstreams {
            if shared.io.is_shutting_down() {
                return;
            }
            if probe(up.pool.addr(), shared.config.probe_timeout) {
                shared.counters.probes_ok.fetch_add(1, Ordering::Relaxed);
                shared.mark_success(up.id);
            } else {
                shared
                    .counters
                    .probes_failed
                    .fetch_add(1, Ordering::Relaxed);
                shared.mark_failure(up.id);
            }
        }
        // Sleep out the interval in small ticks so shutdown stays snappy.
        let wake = Instant::now() + shared.config.health_interval;
        while Instant::now() < wake {
            if shared.io.is_shutting_down() {
                return;
            }
            thread::sleep(tick.min(wake.saturating_duration_since(Instant::now())));
        }
    }
}

// ---------------------------------------------------------------------------
// The server handle
// ---------------------------------------------------------------------------

/// A running router: loop pollers, proxy workers and the health prober,
/// stopped by [`shutdown`](RouterServer::shutdown), a client `shutdown`
/// frame, or drop.
pub struct RouterServer {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterServer")
            .field("local_addr", &self.local_addr())
            .field("upstreams", &self.shared.upstreams.len())
            .finish_non_exhaustive()
    }
}

impl RouterServer {
    /// Binds the listener and spawns every thread the router will ever
    /// run. Fails fast on an empty upstream list.
    pub fn start(config: RouterConfig) -> io::Result<RouterServer> {
        if config.upstreams.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one upstream",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let (io, pollers) = IoLoop::new(
            listener,
            LoopConfig {
                pollers: 1,
                poll_interval: config.poll_interval,
                write_stall: config.reply_timeout,
                // Past the workers' own timeout reply, so the loop's
                // `internal` error is only ever a last resort.
                reply_timeout: config.reply_timeout + config.connect_timeout,
                max_conns: 0,
                shim: Arc::clone(&config.shim),
            },
        )?;
        let vnodes = if config.vnodes == 0 {
            DEFAULT_VNODES
        } else {
            config.vnodes
        };
        let upstreams = config
            .upstreams
            .iter()
            .enumerate()
            .map(|(i, &addr)| Upstream {
                id: i as u32,
                pool: UpstreamPool::new(
                    addr,
                    UPSTREAM_CONN_BASE + i as u64,
                    Arc::clone(&config.shim),
                    config.connect_timeout,
                    config.reply_timeout,
                    config.max_pool_idle,
                ),
                alive: AtomicBool::new(true),
                consecutive_failures: AtomicU32::new(0),
                inflight: AtomicI64::new(0),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                hedge_wins: AtomicU64::new(0),
                latency: Histogram::new(),
            })
            .collect();
        let workers = config.max_pool_idle.max(1);
        let ring = FailoverRing::new(config.upstreams.len(), vnodes);
        let vnode_count = ring.vnode_count();
        let shared = Arc::new(Shared {
            ring: RwLock::new(ring),
            upstreams,
            counters: Counters::default(),
            vnode_load: VnodeLoad::new(vnode_count),
            rebal: RebalanceCounters::new(),
            started: Instant::now(),
            io,
            jobs: StealQueue::new(1, usize::MAX),
            config,
        });
        let spawn = |name: String, run: fn(&Arc<Shared>)| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(name)
                .spawn(move || run(&shared))
        };
        let mut threads = pollers.spawn(Arc::clone(&shared), "gb-router")?;
        for index in 0..workers {
            threads.push(spawn(format!("gb-router-proxy-{index}"), worker_loop)?);
        }
        threads.push(spawn("gb-router-health".into(), health_loop)?);
        // With a single upstream every assignment is the trivial one;
        // skip the tick thread entirely.
        if shared.config.rebalance.is_some() && shared.upstreams.len() > 1 {
            threads.push(spawn("gb-router-rebal".into(), rebalance_loop)?);
        }
        Ok(RouterServer { shared, threads })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.io.local_addr()
    }

    /// Requests shutdown without blocking: the listener closes, queued
    /// frames are still answered.
    pub fn trigger_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Waits for every router thread to finish.
    pub fn join(&mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Graceful stop: trigger + join.
    pub fn shutdown(mut self) {
        self.trigger_shutdown();
        self.join();
    }

    /// The live stats rollup (same object the `stats` op returns).
    pub fn stats_json(&self) -> Json {
        stats_rollup(&self.shared)
    }

    /// Currently-alive upstream ids, for tests asserting failover.
    pub fn alive_ids(&self) -> Vec<u32> {
        self.shared.ring.read().unwrap().alive_ids()
    }

    /// `(hedges_sent, hedges_won)` so far.
    pub fn hedge_counters(&self) -> (u64, u64) {
        (
            self.shared.counters.hedges_sent.load(Ordering::Relaxed),
            self.shared.counters.hedges_won.load(Ordering::Relaxed),
        )
    }

    /// Stale pooled connections transparently redialed so far.
    pub fn stale_retry_count(&self) -> u64 {
        self.shared.counters.stale_retries.load(Ordering::Relaxed)
    }

    /// `(failovers, recoveries)` so far.
    pub fn failover_counters(&self) -> (u64, u64) {
        (
            self.shared.counters.failovers.load(Ordering::Relaxed),
            self.shared.counters.recoveries.load(Ordering::Relaxed),
        )
    }

    /// The rebalance tick bookkeeping, for tests and benches.
    pub fn rebalance_snapshot(&self) -> RebalanceSnapshot {
        self.shared.rebal.snapshot()
    }

    /// The current explicit vnode assignment, if a rebalance tick has
    /// applied one (`None` means hash-default placement).
    pub fn assignment(&self) -> Option<Vec<u32>> {
        self.shared
            .ring
            .read()
            .unwrap()
            .assignment()
            .map(|owners| owners.to_vec())
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.trigger_shutdown();
        self.join();
    }
}
