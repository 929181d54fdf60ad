//! The routing tier: a handler on the shared connection loop whose
//! poller relays every frame upstream itself, the health prober and the
//! stats rollup.
//!
//! Threading model: every thread starts with the router and none is
//! spawned per client or per request. One loop poller
//! ([`gb_service::io_loop`], the same loop `gb-serve` runs) accepts,
//! frames and decodes client traffic, answers `ping` inline, and relays
//! balance frames, `stats` fetches and the forwarded `shutdown` over
//! nonblocking upstream connections registered on that same poller
//! ([`crate::relay`]): the frame never changes threads. One
//! health-prober thread and, with [`RouterConfig::rebalance`] set, one
//! rebalance tick thread complete the set. A client may pipeline: each
//! frame is relayed on its own, up to [`gb_service::io_loop::WINDOW`]
//! per connection, and the loop writes the replies in request order.
//!
//! Hedging costs no thread either: `hedge_delay` after the primary's
//! frame is written, the poller's timer sends the hedge on a second
//! upstream connection and the relay watches both; a partial reply
//! stays buffered between readiness events. The first clean reply wins;
//! the loser is cancelled — its connection is closed, never repooled —
//! and books neither success nor failure.
//!
//! Failure handling has an active and a passive half sharing one
//! per-upstream consecutive-failure counter: the prober pings every
//! upstream each `health_interval`, and every data-path exchange that
//! errors (connect refused, reset, EOF, hard timeout) counts too. At
//! `fail_threshold` consecutive failures the upstream is marked dead in
//! the [`FailoverRing`] — its vnode arcs re-home onto survivors — and
//! its idle connections are flushed. A later successful probe (or any
//! successful exchange) marks it alive again, restoring the exact
//! pre-death mapping.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gb_rebal::{RebalanceCounters, RebalanceSettings, RebalanceSnapshot, VnodeLoad};
use gb_service::cache::CacheKey;
use gb_service::client::Client;
use gb_service::fault::{IoShim, Passthrough};
use gb_service::io_loop::{Dispatch, Handler, IoLoop, LoopConfig, Ready, Sockets};
use gb_service::metrics::{rebal_json, Histogram};
use gb_service::proto::{ErrorCode, Json, Request, Response};
use gb_service::route::{FailoverRing, DEFAULT_VNODES};

use crate::relay::{Cx, Relay};

/// Configuration for [`RouterServer::start`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Upstream `gb-serve` addresses; ring position = list index.
    pub upstreams: Vec<SocketAddr>,
    /// Virtual nodes per upstream on the ring (0 = [`DEFAULT_VNODES`]).
    pub vnodes: usize,
    /// Hedge delay: if the owning upstream has not replied this long
    /// after the request was written to it, race a second attempt on
    /// another backend. `None` disables hedging.
    pub hedge_delay: Option<Duration>,
    /// Per-request budget: total time a proxied request may spend
    /// across all attempts before the client gets a `timeout` error.
    pub reply_timeout: Duration,
    /// Dial timeout for upstream connections.
    pub connect_timeout: Duration,
    /// Period of the active health prober.
    pub health_interval: Duration,
    /// Budget for one health probe (connect + ping round trip); a stats
    /// fetch or forwarded shutdown gets this, at least 250 ms.
    pub probe_timeout: Duration,
    /// Consecutive failures (probe or data-path) before an upstream is
    /// declared dead.
    pub fail_threshold: u32,
    /// Longest the connection loop blocks between timer checks: how
    /// often in-flight and write-stalled client connections are
    /// re-checked. Relay timers (hedges, connect and reply timeouts)
    /// fire at their own instants, never rounded up to this.
    pub poll_interval: Duration,
    /// Forward a client `shutdown` frame to every alive upstream before
    /// draining (the whole-fleet stop switch).
    pub forward_shutdown: bool,
    /// Open connections per upstream, busy and idle together (at least
    /// 1). An exchange that finds its upstream at the cap waits in a
    /// FIFO for the next connection to come free.
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
pub(crate) struct Upstream {
    pub(crate) id: u32,
    pub(crate) addr: SocketAddr,
    /// Mirror of the ring's alive bit, readable without the ring lock.
    pub(crate) alive: AtomicBool,
    consecutive_failures: AtomicU32,
    pub(crate) inflight: AtomicI64,
    pub(crate) requests: AtomicU64,
    errors: AtomicU64,
    pub(crate) hedge_wins: AtomicU64,
    pub(crate) latency: Histogram,
    /// Times declared dead; the relay flushes idle connections pooled
    /// before the latest.
    pub(crate) deaths: AtomicU64,
    /// Open relay connections, and those carrying an exchange (gauges
    /// the relay publishes).
    pub(crate) open: AtomicUsize,
    pub(crate) busy: AtomicUsize,
}

/// Router-wide counters (all monotone).
#[derive(Default)]
pub(crate) struct Counters {
    proxied: AtomicU64,
    pub(crate) hedges_sent: AtomicU64,
    pub(crate) hedges_won: AtomicU64,
    failovers: AtomicU64,
    recoveries: AtomicU64,
    pub(crate) retries: AtomicU64,
    /// Idle pooled connections found closed by the upstream and redialed
    /// transparently (not charged against the failure threshold).
    pub(crate) stale_retries: AtomicU64,
    bad_frames: AtomicU64,
    pub(crate) no_upstream: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
}

pub(crate) struct Shared {
    pub(crate) config: RouterConfig,
    pub(crate) ring: RwLock<FailoverRing>,
    pub(crate) upstreams: Vec<Upstream>,
    pub(crate) counters: Counters,
    /// Per-vnode load observed at the proxy point. The router cannot
    /// reuse upstream-reported vnode stats — each upstream shards over
    /// its *own* vnode space, disjoint from the router's ring over
    /// upstreams — so the proxy path is the one place this ring's
    /// vnodes are visible.
    pub(crate) vnode_load: VnodeLoad,
    rebal: RebalanceCounters,
    started: Instant,
    /// The client-side connection loop.
    io: Arc<IoLoop>,
    /// Exchanges waiting for a connection under the per-upstream cap (a
    /// gauge the relay publishes).
    pub(crate) relay_waiting: AtomicUsize,
}

impl Shared {
    /// One failed exchange (or probe) against `id`; crossing the
    /// threshold re-homes its vnodes onto survivors.
    pub(crate) fn mark_failure(&self, id: u32) {
        let up = &self.upstreams[id as usize];
        up.errors.fetch_add(1, Ordering::Relaxed);
        let fails = up.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if fails >= self.config.fail_threshold {
            self.declare_dead(id);
        }
    }

    /// One successful exchange (or probe) against `id`; a dead upstream
    /// answering is immediately revived.
    pub(crate) fn mark_success(&self, id: u32) {
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
            up.deaths.fetch_add(1, Ordering::Relaxed);
            self.counters.failovers.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "gb-router: upstream {} ({}) dead; vnodes re-homed onto survivors",
                id, up.addr
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
                id, up.addr
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Stats rollup
// ---------------------------------------------------------------------------

/// The router's stats object. `nested[i]` is upstream `i`'s own stats,
/// when fetched; its queue depth and in-flight count feed the
/// imbalance gauge.
pub(crate) fn stats_rollup(shared: &Shared, nested: &[Option<Json>]) -> Json {
    let n = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
    let gauge = |c: &AtomicUsize| Json::Int(c.load(Ordering::Relaxed) as i64);
    let mut upstream_list = Vec::with_capacity(shared.upstreams.len());
    let mut loads: Vec<f64> = Vec::new();
    for up in &shared.upstreams {
        let alive = up.alive.load(Ordering::Relaxed);
        let nested = nested.get(up.id as usize).and_then(Option::as_ref);
        let nested_num =
            |section: &str, key: &str| nested.and_then(|s| s.get(section)?.get(key)?.as_f64());
        let depth = nested_num("queue", "depth").unwrap_or(0.0);
        let upstream_inflight = nested_num("connections", "inflight").unwrap_or(0.0);
        let inflight = up.inflight.load(Ordering::Relaxed);
        if alive {
            // Load gauge per upstream: queued work plus everything the
            // router itself has in flight there (covers requests still
            // on the wire).
            loads.push(depth + upstream_inflight + inflight.max(0) as f64);
        }
        let open = up.open.load(Ordering::Relaxed);
        let busy = up.busy.load(Ordering::Relaxed);
        let mut entry = vec![
            ("id".into(), Json::Int(up.id as i64)),
            ("addr".into(), Json::Str(up.addr.to_string())),
            ("alive".into(), Json::Bool(alive)),
            (
                "consecutive_failures".into(),
                Json::Int(up.consecutive_failures.load(Ordering::Relaxed) as i64),
            ),
            ("requests".into(), n(&up.requests)),
            ("errors".into(), n(&up.errors)),
            ("hedge_wins".into(), n(&up.hedge_wins)),
            ("inflight".into(), Json::Int(inflight)),
            ("open".into(), Json::Int(open as i64)),
            ("busy".into(), Json::Int(busy as i64)),
            (
                "pool_idle".into(),
                Json::Int(open.saturating_sub(busy) as i64),
            ),
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
            "max_pool_idle".into(),
            Json::Int(shared.config.max_pool_idle.max(1) as i64),
        ),
        ("relay_waiting".into(), gauge(&shared.relay_waiting)),
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
// The loop handler
// ---------------------------------------------------------------------------

impl Handler for Shared {
    type Local = Relay;

    fn handle(&self, relay: &mut Relay, request: Request, raw: &[u8], out: &mut Dispatch<'_>) {
        let codec = out.codec();
        let cx = Cx {
            shared: self,
            sockets: out.sockets(),
        };
        match request {
            Request::Ping => out.reply(&Response::Pong),
            Request::Shutdown => {
                // The drain writes the ack before it closes the
                // connection; the forwarding legs keep the poller's
                // drain waiting until they are answered.
                out.reply(&Response::Pong);
                if self.config.forward_shutdown {
                    relay.start_forward(&cx);
                }
                self.io.trigger_shutdown();
            }
            Request::Stats | Request::Balance(_) if self.io.is_shutting_down() => {
                // Frames read behind a shutdown in the same sweep.
                let id = match &request {
                    Request::Balance(req) => req.id,
                    _ => None,
                };
                out.reply(&Response::Error {
                    id,
                    code: ErrorCode::ShuttingDown,
                    message: "router is draining".into(),
                });
            }
            Request::Stats => relay.start_stats(&cx, out.defer(None), codec),
            Request::Balance(req) => {
                self.counters.proxied.fetch_add(1, Ordering::Relaxed);
                let key =
                    CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta).mix();
                // The client's own bytes, framing included — the body is
                // never re-encoded on the way upstream.
                relay.start_balance(&cx, out.defer(req.id), raw.to_vec(), codec, key, req.id);
            }
        }
    }

    fn loop_error(&self, code: ErrorCode) {
        if code == ErrorCode::BadRequest {
            self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn poll_sockets(&self, relay: &mut Relay, ready: Ready<'_>, sockets: Sockets<'_>) {
        relay.poll(
            &Cx {
                shared: self,
                sockets,
            },
            ready,
        );
    }

    fn next_deadline(&self, relay: &Relay) -> Option<Instant> {
        relay.next_deadline()
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
    Client::connect_timeouts(addr, Some(timeout), Some(timeout))
        .and_then(|mut client| client.call(&Request::Ping))
        .is_ok_and(|reply| matches!(reply, Response::Pong))
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
            if probe(up.addr, shared.config.probe_timeout) {
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

/// A running router: the loop poller, the health prober and, when
/// configured, the rebalance tick; stopped by
/// [`shutdown`](RouterServer::shutdown), a client `shutdown` frame, or
/// drop.
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
                // Past the relay's own timeout reply, so the loop's
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
                addr,
                alive: AtomicBool::new(true),
                consecutive_failures: AtomicU32::new(0),
                inflight: AtomicI64::new(0),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                hedge_wins: AtomicU64::new(0),
                latency: Histogram::new(),
                deaths: AtomicU64::new(0),
                open: AtomicUsize::new(0),
                busy: AtomicUsize::new(0),
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
            started: Instant::now(),
            io,
            relay_waiting: AtomicUsize::new(0),
            config,
        });
        let spawn = |name: String, run: fn(&Arc<Shared>)| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(name)
                .spawn(move || run(&shared))
        };
        let mut threads = pollers.spawn(Arc::clone(&shared), "gb-router")?;
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

    /// Requests shutdown without blocking: the listener closes, frames
    /// in flight are still answered.
    pub fn trigger_shutdown(&self) {
        self.shared.io.trigger_shutdown();
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

    /// The live stats rollup: the object the `stats` op returns, minus
    /// what only the upstreams know (their queue depth and in-flight
    /// count read 0, `upstream_requests` is absent). Upstream I/O
    /// belongs to the poller; this accessor runs on the caller's thread.
    pub fn stats_json(&self) -> Json {
        stats_rollup(&self.shared, &[])
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
