//! The routing tier: accept loop, proxy path, health prober, rollup.
//!
//! Threading model: one accept thread (nonblocking listener polled
//! against the shutdown flag), one handler thread per client
//! connection, one health-prober thread. Handlers serve their
//! connection's frames sequentially, so per-connection reply order is
//! trivially preserved; a hedged request briefly spawns two racer
//! threads (primary continuation + hedge attempt) joined through a
//! channel.
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

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gb_rebal::{EwmaTracker, RebalanceCounters, RebalanceSettings, RebalanceSnapshot, VnodeLoad};
use gb_service::cache::CacheKey;
use gb_service::fault::{IoShim, Passthrough, ShimStream};
use gb_service::metrics::Histogram;
use gb_service::proto::{
    binary_reply_id, json_reply_id, BalanceRequest, Codec, ErrorCode, Frame, FrameError,
    FrameReader, Json, Request, Response, WireCodec, BIN_HDR, MAGIC, MAX_FRAME,
};
use gb_service::route::{FailoverRing, DEFAULT_VNODES};

use crate::pool::{PooledConn, UpstreamPool, UPSTREAM_CONN_BASE};

/// Failover attempts (distinct upstreams tried) per request.
const MAX_ATTEMPTS: usize = 4;

/// Configuration for [`RouterServer::start`].
#[derive(Clone)]
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
    /// How often blocked client-connection reads wake to poll the
    /// shutdown flag.
    pub poll_interval: Duration,
    /// Forward a client `shutdown` frame to every alive upstream before
    /// draining (the whole-fleet stop switch).
    pub forward_shutdown: bool,
    /// Idle connections kept per upstream pool.
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

impl std::fmt::Debug for RouterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterConfig")
            .field("addr", &self.addr)
            .field("upstreams", &self.upstreams)
            .field("vnodes", &self.vnodes)
            .field("hedge_delay", &self.hedge_delay)
            .field("fail_threshold", &self.fail_threshold)
            .field("rebalance", &self.rebalance)
            .finish_non_exhaustive()
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
    shutdown: AtomicBool,
    started: Instant,
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

/// RAII in-flight counter for one upstream, safe to move across the
/// hedge racer threads.
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

/// A complete reply frame in the given codec.
fn response_frame(codec: WireCodec, resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    codec.encode_response(resp, &mut out);
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

/// Races the primary's continuation against a fresh attempt on
/// `hedge_id`; first clean reply wins. The loser finishes (or fails) on
/// its own thread and books its outcome itself.
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
    let floor = Duration::from_millis(1);
    let (tx, rx) = mpsc::channel::<(bool, io::Result<Vec<u8>>)>();
    // Primary continuation: keep waiting for the original reply.
    {
        let tx = tx.clone();
        let shared = Arc::clone(shared);
        let mut conn = primary_conn;
        thread::spawn(move || {
            let _guard = primary_guard;
            let remaining = deadline
                .saturating_duration_since(Instant::now())
                .max(floor);
            let outcome = match conn.read_reply(remaining) {
                Ok(reply) => settle_ok(&shared, primary, primary_started, conn, reply, req_id),
                Err(e) => {
                    shared.mark_failure(primary);
                    Err(e)
                }
            };
            let _ = tx.send((false, outcome));
        });
    }
    // Hedge attempt on the backend that would own the key next.
    {
        let shared = Arc::clone(shared);
        let frame = frame.to_vec();
        thread::spawn(move || {
            let up = &shared.upstreams[hedge_id as usize];
            up.requests.fetch_add(1, Ordering::Relaxed);
            let _guard = InflightGuard::new(&shared, hedge_id);
            let started = Instant::now();
            let remaining = deadline
                .saturating_duration_since(Instant::now())
                .max(floor);
            let outcome = match up.pool.checkout() {
                Ok(mut conn) => match conn.call(&frame, remaining) {
                    Ok(reply) => settle_ok(&shared, hedge_id, started, conn, reply, req_id),
                    Err(e) => {
                        shared.mark_failure(hedge_id);
                        Err(e)
                    }
                },
                Err(e) => {
                    shared.mark_failure(hedge_id);
                    Err(e)
                }
            };
            let _ = tx.send((true, outcome));
        });
    }
    // Both senders are owned by the racer threads; rx.iter() ends when
    // the last one hangs up.
    let mut last_err: Option<io::Error> = None;
    for (from_hedge, outcome) in rx.iter() {
        match outcome {
            Ok(reply) => {
                if from_hedge {
                    shared.counters.hedges_won.fetch_add(1, Ordering::Relaxed);
                    shared.upstreams[hedge_id as usize]
                        .hedge_wins
                        .fetch_add(1, Ordering::Relaxed);
                }
                return Ok(reply);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("hedge race produced no outcome")))
}

// ---------------------------------------------------------------------------
// Stats rollup
// ---------------------------------------------------------------------------

/// Fetches an upstream's own stats object over a pooled connection.
fn fetch_upstream_stats(shared: &Arc<Shared>, id: u32) -> Option<Json> {
    let up = &shared.upstreams[id as usize];
    if !up.alive.load(Ordering::Relaxed) {
        return None;
    }
    let timeout = shared.config.probe_timeout.max(Duration::from_millis(250));
    let mut conn = up.pool.checkout().ok()?;
    let mut frame = Request::Stats.encode().into_bytes();
    frame.push(b'\n');
    let reply = conn.call(&frame, timeout).ok()?;
    let reply = std::str::from_utf8(&reply).ok()?;
    let json = Json::parse(reply.trim_end()).ok()?;
    let stats = json.get("stats")?.clone();
    up.pool.publish(conn);
    Some(stats)
}

/// Tick-loop bookkeeping for the `stats` rollup — the same shape
/// `gb-serve` emits under `stats.rebal`, so `loadgen bench skew`
/// reads either tier identically.
fn rebal_json(shared: &Arc<Shared>) -> Json {
    let settings = shared.config.rebalance.as_ref();
    let snap = shared.rebal.snapshot();
    Json::Obj(vec![
        (
            "enabled".into(),
            Json::Bool(settings.is_some() && shared.upstreams.len() > 1),
        ),
        (
            "vnode_count".into(),
            Json::Int(shared.ring.read().unwrap().vnode_count() as i64),
        ),
        (
            "interval_ms".into(),
            Json::Int(settings.map_or(0, |s| s.interval.as_millis() as i64)),
        ),
        (
            "trigger".into(),
            Json::Num(settings.map_or(0.0, |s| s.trigger)),
        ),
        (
            "move_budget".into(),
            Json::Int(settings.map_or(0, |s| s.move_budget as i64)),
        ),
        ("ticks".into(), Json::Int(snap.ticks as i64)),
        ("skipped".into(), Json::Int(snap.skipped as i64)),
        ("moved".into(), Json::Int(snap.moved as i64)),
        (
            "max_tick_moves".into(),
            Json::Int(snap.max_tick_moves as i64),
        ),
        ("version".into(), Json::Int(snap.version as i64)),
        ("imbalance_before".into(), Json::Num(snap.imbalance_before)),
        ("imbalance_after".into(), Json::Num(snap.imbalance_after)),
        ("alpha".into(), Json::Num(snap.alpha)),
        ("bound".into(), Json::Num(snap.bound)),
    ])
}

fn stats_rollup(shared: &Arc<Shared>) -> Json {
    let alive_now = shared.ring.read().unwrap().alive_count();
    let mut upstream_list = Vec::with_capacity(shared.upstreams.len());
    let mut loads: Vec<f64> = Vec::new();
    for up in &shared.upstreams {
        let alive = up.alive.load(Ordering::Relaxed);
        let nested = fetch_upstream_stats(shared, up.id);
        let depth = nested
            .as_ref()
            .and_then(|s| s.get("queue")?.get("depth")?.as_f64())
            .unwrap_or(0.0);
        let upstream_inflight = nested
            .as_ref()
            .and_then(|s| s.get("connections")?.get("inflight")?.as_f64())
            .unwrap_or(0.0);
        let upstream_requests = nested
            .as_ref()
            .and_then(|s| s.get("requests")?.get("total")?.as_u64());
        if alive {
            // Load gauge per upstream: queued work plus everything the
            // router itself has in flight there (covers requests still
            // on the wire).
            loads.push(
                depth + upstream_inflight + up.inflight.load(Ordering::Relaxed).max(0) as f64,
            );
        }
        let mut entry = vec![
            ("id".into(), Json::Int(up.id as i64)),
            ("addr".into(), Json::Str(up.pool.addr().to_string())),
            ("alive".into(), Json::Bool(alive)),
            (
                "consecutive_failures".into(),
                Json::Int(up.consecutive_failures.load(Ordering::Relaxed) as i64),
            ),
            (
                "requests".into(),
                Json::Int(up.requests.load(Ordering::Relaxed) as i64),
            ),
            (
                "errors".into(),
                Json::Int(up.errors.load(Ordering::Relaxed) as i64),
            ),
            (
                "hedge_wins".into(),
                Json::Int(up.hedge_wins.load(Ordering::Relaxed) as i64),
            ),
            (
                "inflight".into(),
                Json::Int(up.inflight.load(Ordering::Relaxed)),
            ),
            ("pool_idle".into(), Json::Int(up.pool.idle_count() as i64)),
            ("latency".into(), up.latency.to_json()),
            ("queue_depth".into(), Json::Num(depth)),
            ("upstream_inflight".into(), Json::Num(upstream_inflight)),
        ];
        if let Some(total) = upstream_requests {
            entry.push(("upstream_requests".into(), Json::Int(total as i64)));
        }
        upstream_list.push(Json::Obj(entry));
    }
    let (max, mean) = if loads.is_empty() {
        (0.0, 0.0)
    } else {
        let max = loads.iter().cloned().fold(0.0f64, f64::max);
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        (max, mean)
    };
    let ratio = if mean > 0.0 { max / mean } else { 1.0 };
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
        ("alive".into(), Json::Int(alive_now as i64)),
        (
            "vnodes".into(),
            Json::Int(shared.ring.read().unwrap().vnodes() as i64),
        ),
        (
            "proxied".into(),
            Json::Int(c.proxied.load(Ordering::Relaxed) as i64),
        ),
        (
            "hedges_sent".into(),
            Json::Int(c.hedges_sent.load(Ordering::Relaxed) as i64),
        ),
        (
            "hedges_won".into(),
            Json::Int(c.hedges_won.load(Ordering::Relaxed) as i64),
        ),
        (
            "failovers".into(),
            Json::Int(c.failovers.load(Ordering::Relaxed) as i64),
        ),
        (
            "recoveries".into(),
            Json::Int(c.recoveries.load(Ordering::Relaxed) as i64),
        ),
        (
            "retries".into(),
            Json::Int(c.retries.load(Ordering::Relaxed) as i64),
        ),
        (
            "stale_retries".into(),
            Json::Int(c.stale_retries.load(Ordering::Relaxed) as i64),
        ),
        (
            "bad_frames".into(),
            Json::Int(c.bad_frames.load(Ordering::Relaxed) as i64),
        ),
        (
            "no_upstream".into(),
            Json::Int(c.no_upstream.load(Ordering::Relaxed) as i64),
        ),
        (
            "probes_ok".into(),
            Json::Int(c.probes_ok.load(Ordering::Relaxed) as i64),
        ),
        (
            "probes_failed".into(),
            Json::Int(c.probes_failed.load(Ordering::Relaxed) as i64),
        ),
        (
            "imbalance".into(),
            Json::Obj(vec![
                ("max".into(), Json::Num(max)),
                ("mean".into(), Json::Num(mean)),
                ("ratio".into(), Json::Num(ratio)),
            ]),
        ),
        ("rebal".into(), rebal_json(shared)),
    ]);
    Json::Obj(vec![
        ("router".into(), router),
        ("upstreams".into(), Json::Arr(upstream_list)),
    ])
}

// ---------------------------------------------------------------------------
// Client connections
// ---------------------------------------------------------------------------

/// Routes one balance request: derives the key, relays the pre-framed
/// request bytes verbatim, and charges the round trip to the vnode.
fn proxy_and_record(
    shared: &Arc<Shared>,
    frame: &[u8],
    req: &BalanceRequest,
    codec: WireCodec,
) -> Vec<u8> {
    shared.counters.proxied.fetch_add(1, Ordering::Relaxed);
    let key = CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta).mix();
    let vnode = shared.ring.read().unwrap().vnode_of(key);
    let started = Instant::now();
    let reply = proxy_balance(shared, frame, key, req.id, codec);
    // Charge the full proxy round trip (queue + compute + wire) to the
    // vnode: it is the cost a move would relocate.
    let micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    shared.vnode_load.record(vnode, micros);
    reply
}

/// Handles one decoded text frame; returns the framed reply bytes and
/// whether the connection should stop after it (shutdown acknowledged).
fn handle_line(shared: &Arc<Shared>, line: &str) -> (Vec<u8>, bool) {
    let codec = WireCodec::Json;
    if line.len() > MAX_FRAME {
        shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
        return (
            error_frame(codec, None, ErrorCode::BadRequest, "frame too long"),
            false,
        );
    }
    let json = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => {
            shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            return (
                error_frame(
                    codec,
                    None,
                    ErrorCode::BadRequest,
                    &format!("bad frame: {e}"),
                ),
                false,
            );
        }
    };
    let id = json.get("id").and_then(Json::as_u64);
    match Request::from_json(&json) {
        Ok(Request::Ping) => (response_frame(codec, &Response::Pong), false),
        Ok(Request::Stats) => (
            response_frame(codec, &Response::Stats(stats_rollup(shared))),
            false,
        ),
        Ok(Request::Shutdown) => {
            // Ack first (the frame is answered even while draining),
            // then stop: flag flips before the reply is written, and
            // forwarding happens in the caller after the ack.
            shared.shutdown.store(true, Ordering::SeqCst);
            (response_frame(codec, &Response::Pong), true)
        }
        Ok(Request::Balance(req)) => {
            // Relay the client's own line, newline restored — the body
            // is never re-encoded on the way upstream.
            let mut frame = Vec::with_capacity(line.len() + 1);
            frame.extend_from_slice(line.as_bytes());
            frame.push(b'\n');
            (proxy_and_record(shared, &frame, &req, codec), false)
        }
        Err(e) => {
            shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            (
                error_frame(codec, id, ErrorCode::BadRequest, &e.message),
                false,
            )
        }
    }
}

/// Handles one binary frame payload; same contract as [`handle_line`].
fn handle_binary(shared: &Arc<Shared>, payload: &[u8]) -> (Vec<u8>, bool) {
    let codec = WireCodec::Binary;
    match codec.decode_request(payload) {
        Ok(Request::Ping) => (response_frame(codec, &Response::Pong), false),
        Ok(Request::Stats) => (
            response_frame(codec, &Response::Stats(stats_rollup(shared))),
            false,
        ),
        Ok(Request::Shutdown) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (response_frame(codec, &Response::Pong), true)
        }
        Ok(Request::Balance(req)) => {
            // Re-attach the length prefix around the untouched payload;
            // the body bytes are relayed verbatim.
            let mut frame = Vec::with_capacity(BIN_HDR + payload.len());
            frame.push(MAGIC);
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(payload);
            (proxy_and_record(shared, &frame, &req, codec), false)
        }
        Err(e) => {
            shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            (
                error_frame(codec, None, ErrorCode::BadRequest, &e.message),
                false,
            )
        }
    }
}

/// Forwards `shutdown` to every alive upstream, waiting briefly for
/// each ack.
fn forward_shutdown(shared: &Arc<Shared>) {
    for up in &shared.upstreams {
        if !up.alive.load(Ordering::Relaxed) {
            continue;
        }
        if let Ok(mut conn) = up.pool.checkout() {
            let mut frame = Request::Shutdown.encode().into_bytes();
            frame.push(b'\n');
            let _ = conn.call(
                &frame,
                shared.config.probe_timeout.max(Duration::from_millis(250)),
            );
            // The upstream is going down; never repool.
        }
    }
}

fn serve_client(shared: Arc<Shared>, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.config.reply_timeout));
    let shim = Arc::clone(&shared.config.shim);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut frames = FrameReader::new(ShimStream::new(read_half, Arc::clone(&shim), conn_id));
    let mut writer = ShimStream::new(stream, shim, conn_id);
    // Replies arrive here as complete wire frames (newline or length
    // prefix included), so each one leaves as a single write.
    let mut write_reply = |reply: &[u8]| -> bool { writer.write_all(reply).is_ok() };
    loop {
        match frames.poll_line() {
            Ok(Frame::Line(line)) => {
                let (reply, stop) = handle_line(&shared, &line);
                let wrote = write_reply(&reply);
                if stop {
                    if shared.config.forward_shutdown {
                        forward_shutdown(&shared);
                    }
                    break;
                }
                if !wrote {
                    break;
                }
            }
            Ok(Frame::Binary(payload)) => {
                let (reply, stop) = handle_binary(&shared, &payload);
                let wrote = write_reply(&reply);
                if stop {
                    if shared.config.forward_shutdown {
                        forward_shutdown(&shared);
                    }
                    break;
                }
                if !wrote {
                    break;
                }
            }
            Ok(Frame::Pending) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Ok(Frame::Eof) => break,
            Err(FrameError::TooLong) => {
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                if !write_reply(&error_frame(
                    frames.codec(),
                    None,
                    ErrorCode::BadRequest,
                    "frame too long",
                )) {
                    break;
                }
            }
            Err(FrameError::NotUtf8) => {
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                if !write_reply(&error_frame(
                    frames.codec(),
                    None,
                    ErrorCode::BadRequest,
                    "frame is not valid UTF-8",
                )) {
                    break;
                }
            }
            Err(FrameError::Corrupt) => {
                // The reader resyncs to the next plausible boundary; the
                // connection itself survives.
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                if !write_reply(&error_frame(
                    frames.codec(),
                    None,
                    ErrorCode::BadRequest,
                    "binary frame length is corrupt",
                )) {
                    break;
                }
            }
            Err(FrameError::Torn) => {
                shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(FrameError::Io(_)) => break,
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
fn rebalance_loop(shared: &Arc<Shared>, settings: &RebalanceSettings) {
    let vnodes = shared.ring.read().unwrap().vnode_count();
    let mut tracker = EwmaTracker::new(vnodes, settings.decay);
    let step = settings
        .interval
        .min(Duration::from_millis(20))
        .max(Duration::from_millis(1));
    loop {
        let wake = Instant::now() + settings.interval;
        while Instant::now() < wake {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(step.min(wake.saturating_duration_since(Instant::now())));
        }
        tracker.observe(&shared.vnode_load);
        let (current, alive) = {
            let ring = shared.ring.read().unwrap();
            let current = match ring.assignment() {
                Some(owners) => owners.to_vec(),
                None => ring.default_owners(),
            };
            (current, ring.alive_ids())
        };
        // A dead upstream is excluded from the plan; its vnodes are
        // orphans and re-home as forced moves, exempt from the budget.
        let plan = gb_rebal::plan(
            &tracker.weights(),
            &current,
            &alive,
            settings.trigger,
            settings.move_budget,
        );
        shared.rebal.record_tick(&plan);
        if !plan.skipped && !plan.moves.is_empty() {
            shared
                .ring
                .write()
                .unwrap()
                .set_assignment(Some(plan.owners));
        }
    }
}

// ---------------------------------------------------------------------------
// Health prober
// ---------------------------------------------------------------------------

/// One unshimmed connect + ping round trip against `addr`.
fn probe(addr: SocketAddr, timeout: Duration) -> bool {
    let Ok(sock) = TcpStream::connect_timeout(&addr, timeout) else {
        return false;
    };
    if sock.set_nodelay(true).is_err()
        || sock.set_read_timeout(Some(timeout)).is_err()
        || sock.set_write_timeout(Some(timeout)).is_err()
    {
        return false;
    }
    let Ok(read_half) = sock.try_clone() else {
        return false;
    };
    let mut writer = sock;
    let mut frame = Request::Ping.encode();
    frame.push('\n');
    if writer.write_all(frame.as_bytes()).is_err() {
        return false;
    }
    let mut reply = String::new();
    let mut reader = BufReader::new(read_half);
    match (&mut reader)
        .take(2 * MAX_FRAME as u64)
        .read_line(&mut reply)
    {
        Ok(n) if n > 0 => matches!(Response::decode(reply.trim_end()), Ok(Response::Pong)),
        _ => false,
    }
}

fn health_loop(shared: Arc<Shared>) {
    let tick = shared
        .config
        .poll_interval
        .min(Duration::from_millis(25))
        .max(Duration::from_millis(1));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for up in &shared.upstreams {
            if shared.shutdown.load(Ordering::SeqCst) {
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
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(tick.min(wake.saturating_duration_since(Instant::now())));
        }
    }
}

// ---------------------------------------------------------------------------
// The server handle
// ---------------------------------------------------------------------------

/// A running router: accept loop + health prober, stopped by
/// [`shutdown`](RouterServer::shutdown), a client `shutdown` frame, or
/// drop.
pub struct RouterServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
    rebal: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RouterServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterServer")
            .field("local_addr", &self.local_addr)
            .field("upstreams", &self.shared.upstreams.len())
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let idle = shared
        .config
        .poll_interval
        .min(Duration::from_millis(20))
        .max(Duration::from_millis(1));
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = next_conn;
                next_conn += 1;
                if !shared.config.shim.allow_accept(conn_id) {
                    drop(stream);
                    continue;
                }
                let shared = Arc::clone(&shared);
                handlers.push(thread::spawn(move || serve_client(shared, stream, conn_id)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(idle);
            }
            Err(_) => thread::sleep(idle),
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Drain: handlers observe the flag at their next poll tick and
    // finish their in-flight frame first.
    for handle in handlers {
        let _ = handle.join();
    }
}

impl RouterServer {
    /// Binds the listener and spawns the accept and health threads.
    /// Fails fast on an empty upstream list.
    pub fn start(config: RouterConfig) -> io::Result<RouterServer> {
        if config.upstreams.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one upstream",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
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
        let ring = FailoverRing::new(config.upstreams.len(), vnodes);
        let vnode_count = ring.vnode_count();
        let shared = Arc::new(Shared {
            ring: RwLock::new(ring),
            upstreams,
            counters: Counters::default(),
            vnode_load: VnodeLoad::new(vnode_count),
            rebal: RebalanceCounters::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            config,
        });
        let health = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("gb-router-health".into())
                .spawn(move || health_loop(shared))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("gb-router-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        // With a single upstream every assignment is the trivial one;
        // skip the tick thread entirely.
        let rebal = match &shared.config.rebalance {
            Some(settings) if shared.upstreams.len() > 1 => {
                let shared = Arc::clone(&shared);
                let settings = settings.clone();
                Some(
                    thread::Builder::new()
                        .name("gb-router-rebal".into())
                        .spawn(move || rebalance_loop(&shared, &settings))?,
                )
            }
            _ => None,
        };
        Ok(RouterServer {
            shared,
            local_addr,
            accept: Some(accept),
            health: Some(health),
            rebal,
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown without blocking; threads drain on their next
    /// poll tick.
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the accept loop (and every handler) plus the prober.
    pub fn join(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.health.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.rebal.take() {
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
