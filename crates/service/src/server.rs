//! The partition-serving daemon.
//!
//! `gb-serve` is one [`Handler`] on the shared connection loop
//! ([`crate::io_loop`]) plus worker threads behind a per-backend steal
//! queue.
//!
//! ```text
//!  clients ──TCP──▶ io_loop: accept, I/O pollers (FrameReader)
//!                                           │ cache hit? ─▶ reply inline
//!                                           │   (fast path, no hand-off)
//!                                           ▼ miss: try_push (shed if full)
//!                                   StealQueue: one deque per worker
//!                                           │ pop own shard / steal
//!                                           ▼
//!                                    worker threads ─▶ gb-parlb pool
//!                                           │   (BA / BA-HF / PHF)
//!                                           ▼
//!                              ShardedCache (TinyLFU admission)
//!                                           │
//!                                           ▼ Reply::send to the socket
//! ```
//!
//! The loop owns accept, readiness (epoll on Linux, the sweep loop as
//! its fallback), framing, write buffering and the reply timeout;
//! `stats.engine` names the readiness backend the pollers run.
//!
//! * **Admission** — each cache miss is pushed to a bounded queue; when
//!   it is full the connection answers `overloaded` immediately
//!   ([`crate::shed`]). The steal queue sheds on its *aggregate* depth.
//! * **Deadlines** — `deadline_ms` is checked at dispatch and again when
//!   a worker dequeues the job; an expired request gets a `timeout`
//!   error instead of burning a core on an answer nobody is waiting for.
//! * **Caching** — results are cached by
//!   `(problem fingerprint, algorithm, N, θ)` in a sharded LRU with
//!   optional TinyLFU admission; specs are deterministic so a hit is
//!   exact ([`crate::cache`]). A hit is answered on the poller itself —
//!   no queue round trip, no context switch.
//! * **Shutdown** — [`Server::shutdown`] (or a client `shutdown` frame)
//!   closes the queue: queued work drains, new work is refused with
//!   `shutting_down`, then all threads are joined.
//!
//! Control frames (`ping`, `stats`, `shutdown`) are answered directly on
//! the poller — they must stay responsive even when the queue is
//! saturated, that is the whole point of having them. The `shutdown`
//! frame is acknowledged with a `pong` before draining begins.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use gb_parlb::ThreadPool;
use gb_rebal::{RebalanceCounters, RebalanceSettings, VnodeLoad};
use gb_store::{SpillHandle, SpillSender, Store};

use crate::cache::{CacheKey, CachedResult, ReplyTail, ShardedCache};
use crate::fault::{IoShim, Passthrough};
use crate::io_loop::{Dispatch, Handler, IoLoop, LoopConfig, Reply};
use crate::metrics::{rebal_json, store_json, ServiceMetrics};
use crate::persist::{self, StoreSettings};
use crate::proto::{
    binary_hit_reply, binary_ok_tail, json_hit_reply, json_ok_tail, BalanceRequest,
    BalanceResponse, ErrorCode, Json, Request, Response, WireCodec,
};
use crate::route::{Router, DEFAULT_VNODES};
use crate::shed::{AggregateCap, FullCause, PushError, SlotGauge, SlotToken, StealQueue};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Balance worker threads (0 = half the available parallelism, ≥ 2).
    pub workers: usize,
    /// Bounded request-queue capacity (load shed beyond this; the steal
    /// queue enforces it as an aggregate across per-worker shards).
    pub queue_capacity: usize,
    /// LRU result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Threads in the work-stealing pool running BA/BA-HF/PHF
    /// (0 = available parallelism).
    pub pool_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 256,
            cache_capacity: 1024,
            pool_threads: 0,
        }
    }
}

/// Hot-path tuning: the connection loop's settings, cache
/// sharding/admission, persistence, sharding and rebalancing.
///
/// Kept separate from [`ServerConfig`] so exhaustive `ServerConfig`
/// literals in existing callers and tests keep compiling; pass it via
/// [`Server::start_tuned`]. [`Server::start`] uses the defaults.
#[derive(Clone, Debug)]
pub struct Tuning {
    /// I/O poller threads (0 = 1). One is right for
    /// anything up to a few thousand connections; parsing is cheap.
    pub io_threads: usize,
    /// Cache shard count, rounded up to a power of two (0 = 8).
    pub cache_shards: usize,
    /// TinyLFU admission filter on the cache (`admission: off` knob).
    pub admission: bool,
    /// Hard cap on how long a connection waits for a worker to answer
    /// one job before giving up with an `internal` error (a worker
    /// died). Default 120 s.
    pub reply_timeout: Duration,
    /// Timer granularity of the pollers: how often in-flight and
    /// write-stalled connections are re-checked, the accept backoff
    /// after fd exhaustion, and the ceiling on the sweep loop's idle
    /// backoff. Default 100 ms.
    pub poll_interval: Duration,
    /// How long a socket may refuse bytes (`WouldBlock` with output
    /// pending) before the connection is declared dead — the client
    /// stopped reading. Default 5 s.
    pub write_stall: Duration,
    /// Fault-injection seam: every accept decision, socket read, socket
    /// write and worker dispatch goes through this shim. The default
    /// [`Passthrough`] adds nothing; tests install a
    /// [`ScriptedShim`](crate::fault::ScriptedShim).
    pub shim: Arc<dyn IoShim>,
    /// Crash-safe persistence (`gb-store`): when set, cached results are
    /// spilled write-behind to an append-only segment log and recovered
    /// into the cache on the next boot. `None` (the default) serves
    /// memory-only, exactly as before.
    pub store: Option<StoreSettings>,
    /// Independent backend pools behind a consistent-hash router
    /// (0 = 1). Each backend owns a queue shard set, worker threads and
    /// a cache, so one hot problem class saturates its own backend
    /// instead of the whole server; all backends share the store.
    pub backends: usize,
    /// Virtual nodes per backend on the router ring
    /// (0 = [`DEFAULT_VNODES`]).
    pub backend_vnodes: usize,
    /// Hard cap on simultaneously open connections (0 = unlimited).
    /// At the cap new accepts are shed with a best-effort `overloaded`
    /// reply and an `accept_shed` count, instead of running the process
    /// into its fd limit — where *every* accept fails and existing
    /// connections start losing `dup`/`fcntl` calls too.
    pub max_conns: usize,
    /// Self-balancing vnode placement (`--rebalance-ms`): when set and
    /// more than one backend is configured, a tick thread periodically
    /// re-partitions the vnode set across backends with HF over the
    /// observed per-vnode load (`gb-rebal`), overriding the hash ring
    /// through an explicit assignment table. `None` (the default) keeps
    /// the static consistent-hash placement.
    pub rebalance: Option<RebalanceSettings>,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            io_threads: 0,
            cache_shards: 0,
            admission: true,
            reply_timeout: Duration::from_secs(120),
            poll_interval: Duration::from_millis(100),
            write_stall: Duration::from_secs(5),
            shim: Arc::new(Passthrough),
            store: None,
            backends: 0,
            backend_vnodes: 0,
            max_conns: 0,
            rebalance: None,
        }
    }
}

struct Job {
    req: BalanceRequest,
    received: Instant,
    /// Codec of the request frame; the reply goes out in the same one.
    codec: WireCodec,
    /// Index of the backend the router homed this job's key to.
    backend: usize,
    /// Ring vnode owning this job's key, for per-vnode load accounting.
    vnode: usize,
    /// The deferred reply the worker answers through.
    reply: Reply,
    /// RAII in-flight slot on the owning backend's gauge: released when
    /// the job is dropped, wherever that happens — worker reply,
    /// dead-connection skip, shed hand-back or shutdown drain — so the
    /// gauge cannot leak.
    _backend_slot: SlotToken,
}

/// One backend pool: a queue, its worker threads, a cache, and a spill
/// endpoint into the shared store. The router assigns each key to
/// exactly one backend, so a hot problem class fills its own queue (and
/// sheds at its local capacity) without starving the siblings.
struct Backend {
    queue: StealQueue<Job>,
    cache: ShardedCache,
    /// Balance jobs between submission and reply on this backend.
    inflight: SlotGauge,
    /// Producer endpoint multiplexed onto the shared store's single
    /// writer thread.
    spill: Option<SpillSender>,
    /// Worker threads dedicated to this backend's queue.
    workers: usize,
    /// Cumulative requests served by this backend — attribution is
    /// fixed at serve time, so delta windows over these counters give
    /// true per-backend load even while assignments move.
    load_hits: AtomicU64,
    /// Cumulative compute micros spent by this backend.
    load_micros: AtomicU64,
}

struct Shared {
    router: Router,
    /// Declared before `spill` on purpose: fields drop in declaration
    /// order, so the backends' `SpillSender`s go first, closing the
    /// spill channel before `SpillHandle::drop` joins the writer.
    backends: Vec<Backend>,
    /// The shared admission budget across all backend queues — the
    /// server-wide overload contract is unchanged by sharding.
    queue_cap: Arc<AggregateCap>,
    metrics: ServiceMetrics,
    pool: ThreadPool,
    /// The connection loop: accept, pollers, write path, fault counters.
    io: Arc<IoLoop>,
    tuning: Tuning,
    /// Write-behind persistence. Dropped with the last `Shared` ref,
    /// which drains the spill queue to disk before the writer joins —
    /// graceful shutdown loses nothing.
    spill: Option<SpillHandle>,
    /// Per-vnode load counters, indexed by the router's ring vnodes.
    vnode_load: VnodeLoad,
    /// The vnode→backend assignment in effect. Starts as the hash
    /// ring's own table; the rebalance tick swaps in HF-planned tables.
    /// Read per request (one shared-lock acquire), written once per
    /// applying tick.
    assignment: RwLock<Vec<u32>>,
    /// Rebalance tick bookkeeping, exposed under `stats.rebal`.
    rebal: RebalanceCounters,
}

impl Shared {
    /// The vnode and backend that own `key` under the assignment in
    /// effect (the hash ring's table until a rebalance tick moves it).
    fn backend_for(&self, key: &CacheKey) -> (usize, usize, &Backend) {
        let vnode = self.router.vnode_of(key.mix());
        let index = self.assignment.read().expect("assignment lock")[vnode] as usize;
        (vnode, index, &self.backends[index])
    }

    /// Accounts one served request: per-vnode (drives the rebalancer)
    /// and per-backend (drives the imbalance measurement). `micros` is
    /// compute time only — cache hits pass 0 and the planner's
    /// per-request hit cost covers their fixed overhead.
    fn record_load(&self, vnode: usize, backend: usize, micros: u64) {
        self.vnode_load.record(vnode, micros);
        let b = &self.backends[backend];
        b.load_hits.fetch_add(1, Ordering::Relaxed);
        b.load_micros.fetch_add(micros, Ordering::Relaxed);
    }
}

/// Splits `total` into `parts` shares by floor-with-remainder (the
/// first `total % parts` shares carry the extra unit), so the shares
/// sum to exactly `total` — except that every share is raised to at
/// least `min`, which only kicks in when `total < parts * min`.
fn split_budget(total: usize, parts: usize, min: usize) -> Vec<usize> {
    let base = total / parts;
    let remainder = total % parts;
    (0..parts)
        .map(|i| (base + usize::from(i < remainder)).max(min))
        .collect()
}

/// A running daemon. Dropping the handle shuts the server down.
pub struct Server {
    shared: Arc<Shared>,
    pollers: Vec<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    rebal: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the serving threads with default [`Tuning`], and
    /// returns.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        Self::start_tuned(config, Tuning::default())
    }

    /// Binds and spawns with explicit hot-path tuning.
    pub fn start_tuned(config: ServerConfig, tuning: Tuning) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers = if config.workers == 0 {
            (thread::available_parallelism().map_or(4, |n| n.get()) / 2).max(2)
        } else {
            config.workers
        };
        let pool_threads = if config.pool_threads == 0 {
            thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            config.pool_threads
        };
        let cache_shards = if tuning.cache_shards == 0 {
            8
        } else {
            tuning.cache_shards
        };
        let backend_count = tuning.backends.max(1);
        let vnodes = if tuning.backend_vnodes == 0 {
            DEFAULT_VNODES
        } else {
            tuning.backend_vnodes
        };
        let router = Router::new(backend_count, vnodes);
        // Per-backend budgets: floor-with-remainder shares of the worker
        // threads, the queue capacity and the cache, so each total
        // matches the configured value exactly — no round-up inflation.
        // Workers and queue slots round individual shares up to 1 (a
        // backend needs at least one of each to function), which is the
        // only case where a sum exceeds its config: totals smaller than
        // the backend count. The shared AggregateCap keeps the
        // server-wide shed point exactly where the single-backend
        // configuration put it regardless.
        let queue_capacity = config.queue_capacity.max(1);
        let queue_cap = AggregateCap::new(queue_capacity);
        let local_capacities = split_budget(queue_capacity, backend_count, 1);
        let worker_shares = split_budget(workers, backend_count, 1);
        let cache_shares = if config.cache_capacity == 0 {
            vec![0; backend_count]
        } else {
            split_budget(config.cache_capacity, backend_count, 0)
        };
        let backends: Vec<Backend> = (0..backend_count)
            .map(|b| Backend {
                queue: StealQueue::with_cap(
                    worker_shares[b],
                    local_capacities[b],
                    Arc::clone(&queue_cap),
                ),
                cache: ShardedCache::new(cache_shares[b], cache_shards, tuning.admission),
                inflight: SlotGauge::new(),
                spill: None,
                workers: worker_shares[b],
                load_hits: AtomicU64::new(0),
                load_micros: AtomicU64::new(0),
            })
            .collect();
        // The shared store: one writer thread; each backend gets its own
        // SpillSender multiplexed onto it. Warm restart: recovery replays
        // each persisted record, as it is read, through the cache (and
        // admission sketch) of the backend the router picks *today*, so
        // records written under a different backend count land correctly;
        // then the store goes to its writer thread.
        let spill = match &tuning.store {
            Some(settings) => {
                let mut undecodable = 0;
                let store = Store::open_with(settings.to_config(), |key, value| {
                    match (persist::decode_key(key), persist::decode_value(value)) {
                        (Some(key), Some(value)) => {
                            let home = router.route(key.mix()) as usize;
                            backends[home].cache.warm(key, value);
                        }
                        // Checksum-valid but undecodable: codec skew.
                        _ => undecodable += 1,
                    }
                })?;
                for _ in 0..undecodable {
                    store.note_corrupt();
                }
                Some(SpillHandle::spawn(store, settings.queue_capacity.max(1)))
            }
            None => None,
        };
        let mut backends = backends;
        if let Some(spill) = &spill {
            for backend in &mut backends {
                backend.spill = Some(spill.sender());
            }
        }
        // The loop (and its readiness backend) must exist before the
        // workers: their replies go out through it.
        let (io, pollers) = IoLoop::new(
            listener,
            LoopConfig {
                pollers: tuning.io_threads,
                poll_interval: tuning.poll_interval,
                write_stall: tuning.write_stall,
                reply_timeout: tuning.reply_timeout,
                max_conns: tuning.max_conns,
                shim: Arc::clone(&tuning.shim),
            },
        )?;
        let vnode_count = router.vnode_count();
        let default_owners = router.default_owners();
        let shared = Arc::new(Shared {
            router,
            backends,
            queue_cap,
            metrics: ServiceMetrics::new(),
            pool: ThreadPool::new(pool_threads),
            io,
            tuning: tuning.clone(),
            spill,
            vnode_load: VnodeLoad::new(vnode_count),
            assignment: RwLock::new(default_owners),
            rebal: RebalanceCounters::new(),
        });

        // The rebalance tick: pointless with a single backend (every
        // plan is trivially balanced), so it only spawns when there is
        // something to move between.
        let rebal = match &tuning.rebalance {
            Some(settings) if backend_count > 1 => {
                let shared = Arc::clone(&shared);
                let settings = settings.clone();
                Some(
                    thread::Builder::new()
                        .name("gb-serve-rebal".into())
                        .spawn(move || rebalance_loop(&shared, settings))
                        .expect("spawn rebalance tick"),
                )
            }
            _ => None,
        };

        let worker_handles = (0..backend_count)
            .flat_map(|b| (0..worker_shares[b]).map(move |w| (b, w)))
            .map(|(b, w)| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gb-serve-worker-{b}-{w}"))
                    .spawn(move || worker_loop(&shared, b, w))
                    .expect("spawn balance worker")
            })
            .collect();

        let pollers = pollers.spawn(Arc::clone(&shared), "gb-serve")?;

        Ok(Server {
            shared,
            pollers,
            workers: worker_handles,
            rebal,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.io.local_addr()
    }

    /// The readiness backend the pollers run: `"epoll"`, or `"sweep"`
    /// when epoll setup failed or the platform has none.
    pub fn engine(&self) -> &'static str {
        self.shared.io.engine()
    }

    /// Initiates shutdown without blocking: refuses new work, wakes the
    /// pollers. Safe to call more than once.
    pub fn trigger_shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Blocks until the server has shut down (triggered via
    /// [`trigger_shutdown`](Self::trigger_shutdown), a client `shutdown`
    /// frame, or [`shutdown`](Self::shutdown)) and all threads are joined.
    pub fn join(mut self) {
        self.join_all();
    }

    /// Graceful shutdown: drains queued work, joins every thread.
    pub fn shutdown(self) {
        self.trigger_shutdown();
        self.join();
    }

    fn join_all(&mut self) {
        // The pollers exit once shutdown is set and their in-flight
        // replies have been written. The queue is closed by now, so
        // workers drain and stop.
        for p in self.pollers.drain(..) {
            let _ = p.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(rebal) = self.rebal.take() {
            let _ = rebal.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        trigger_shutdown(&self.shared);
        self.join_all();
    }
}

fn trigger_shutdown(shared: &Shared) {
    for backend in &shared.backends {
        backend.queue.close();
    }
    shared.io.trigger_shutdown();
}

// ---------------------------------------------------------------------------
// Rebalance tick: HF over observed per-vnode load (gb-rebal)
// ---------------------------------------------------------------------------

/// The self-balancing tick ([`gb_rebal::run_ticks`]) over all backends:
/// in-process backends don't die, so the candidate set is the full
/// membership. Hysteresis permitting, each tick swaps a new assignment
/// table in. Requests racing the swap route by either the old or the
/// new table, both of which are valid backends; a moved vnode's next
/// request simply warms the new owner's cache.
fn rebalance_loop(shared: &Shared, settings: RebalanceSettings) {
    let alive: Vec<u32> = (0..shared.backends.len() as u32).collect();
    gb_rebal::run_ticks(
        &settings,
        &shared.vnode_load,
        &shared.rebal,
        || shared.io.is_shutting_down(),
        || {
            (
                shared.assignment.read().expect("assignment lock").clone(),
                alive.clone(),
            )
        },
        |owners| *shared.assignment.write().expect("assignment lock") = owners,
    );
}

/// The `overloaded` error text, naming the capacity that actually
/// bound: the owning backend's local queue, or the server-wide
/// aggregate budget shared across backends (the local queue may have
/// had room in that case, so reporting its capacity would mislead).
fn overload_message(shared: &Shared, backend: &Backend, cause: FullCause) -> String {
    match cause {
        FullCause::Local => format!("backend queue full ({})", backend.queue.capacity()),
        FullCause::Aggregate => format!("server queue full ({})", shared.queue_cap.capacity()),
    }
}

// ---------------------------------------------------------------------------
// The loop handler: control frames, the cache fast path, queue hand-off
// ---------------------------------------------------------------------------

impl Handler for Shared {
    type Local = ();

    /// Handles one decoded request frame on the poller. Cache hits,
    /// control frames and shed responses are answered inline; only
    /// cache misses cross the queue to a worker. The reply goes out in
    /// the codec the request frame arrived in.
    fn handle(&self, _local: &mut (), request: Request, _raw: &[u8], out: &mut Dispatch<'_>) {
        match request {
            Request::Ping => {
                self.metrics.record_control();
                out.reply(&Response::Pong);
            }
            Request::Stats => {
                self.metrics.record_control();
                out.reply(&Response::Stats(stats_json(self)));
            }
            Request::Shutdown => {
                self.metrics.record_control();
                out.reply(&Response::Pong);
                // The drain must not race the acknowledgement out of the
                // buffer: write it now.
                out.flush();
                trigger_shutdown(self);
            }
            Request::Balance(req) => self.dispatch_balance(req, out),
        }
    }

    fn loop_error(&self, code: ErrorCode) {
        self.metrics.record_error(code);
    }
}

impl Shared {
    fn dispatch_balance(&self, req: BalanceRequest, out: &mut Dispatch<'_>) {
        let received = Instant::now();
        let id = req.id;
        let codec = out.codec();
        if let Some(deadline_ms) = req.deadline_ms {
            if received.elapsed() > Duration::from_millis(deadline_ms) {
                self.metrics.record_error(ErrorCode::Timeout);
                out.reply(&Response::Error {
                    id,
                    code: ErrorCode::Timeout,
                    message: format!("deadline of {deadline_ms} ms expired"),
                });
                return;
            }
        }
        // Fast path: answer cache hits on the poller — no queue round
        // trip, no worker hand-off, no condvar. The router picks the
        // backend whose cache can hold this key.
        let key = CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta);
        let (vnode, backend_index, backend) = self.backend_for(&key);
        if let Some(hit) = backend.cache.get(&key) {
            let latency = received.elapsed();
            self.record_load(vnode, backend_index, 0);
            self.metrics.record_fast_path();
            self.metrics.record_ok(req.algorithm, true, latency);
            encode_hit(out.buf(), codec, &req, &hit, latency);
            return;
        }
        // The worker writes its reply directly to the socket; deferring
        // writes any buffered inline replies first, so the connection's
        // frames stay in request order.
        let job = Job {
            req,
            received,
            codec,
            backend: backend_index,
            vnode,
            reply: out.defer(id),
            _backend_slot: backend.inflight.acquire(),
        };
        let (job, code, message) = match backend.queue.try_push(job) {
            Ok(()) => return,
            Err((job, PushError::Full(cause))) => (
                job,
                ErrorCode::Overloaded,
                overload_message(self, backend, cause),
            ),
            Err((job, PushError::Closed)) => {
                (job, ErrorCode::ShuttingDown, "server is draining".into())
            }
        };
        self.metrics.record_error(code);
        job.reply
            .send(codec, &Response::Error { id, code, message });
    }
}

/// Appends the encoded reply for a cache hit in `codec`, reusing (or
/// building on first use) the entry's per-`(codec, want_pieces)` encoded
/// tail: a warm hit is an id/micros splice plus one memcpy — no JSON
/// printing, no float formatting, no re-serialization.
fn encode_hit(
    out: &mut Vec<u8>,
    codec: WireCodec,
    req: &BalanceRequest,
    hit: &CachedResult,
    latency: Duration,
) {
    let micros = latency.as_micros().min(u64::MAX as u128) as u64;
    let tail = hit.enc.get_or_build(codec, req.want_pieces, || {
        let pieces: &[f64] = if req.want_pieces { &hit.pieces } else { &[] };
        match codec {
            WireCodec::Json => {
                let (bytes, split) = json_ok_tail(
                    req.algorithm,
                    req.n,
                    hit.ratio,
                    hit.bound,
                    hit.alpha,
                    pieces,
                );
                ReplyTail { bytes, split }
            }
            WireCodec::Binary => {
                let mut bytes = Vec::new();
                binary_ok_tail(
                    req.algorithm,
                    req.n,
                    hit.ratio,
                    hit.bound,
                    hit.alpha,
                    pieces,
                    &mut bytes,
                );
                let split = bytes.len();
                ReplyTail { bytes, split }
            }
        }
    });
    match codec {
        WireCodec::Json => json_hit_reply(out, req.id, micros, &tail.bytes, tail.split),
        WireCodec::Binary => binary_hit_reply(out, req.id, micros, &tail.bytes),
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared, backend: usize, index: usize) {
    let queue = &shared.backends[backend].queue;
    while let Some(job) = queue.pop(index) {
        // Fault injection: a scripted stall models a wedged worker.
        if let Some(stall) = shared.tuning.shim.before_execute(job.reply.conn_id()) {
            thread::sleep(stall);
        }
        if job.reply.peer_gone() {
            // The client died while the job sat in the queue: skip the
            // compute, but settle the gate so accounting stays exact.
            job.reply.abandon();
            continue;
        }
        let resp = execute(shared, &job);
        job.reply.send(job.codec, &resp);
    }
}

fn execute(shared: &Shared, job: &Job) -> Response {
    let req = &job.req;
    if let Some(deadline_ms) = req.deadline_ms {
        if job.received.elapsed() > Duration::from_millis(deadline_ms) {
            shared.metrics.record_error(ErrorCode::Timeout);
            return Response::Error {
                id: req.id,
                code: ErrorCode::Timeout,
                message: format!("deadline of {deadline_ms} ms expired in queue"),
            };
        }
    }

    let backend = &shared.backends[job.backend];
    let key = CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta);
    // The poller already probed (and counted) this key as a miss. A
    // second look only dedupes concurrent misses for the same key — a
    // sibling job may have computed it since — so it must not count.
    if let Some(hit) = backend.cache.peek(&key) {
        let latency = job.received.elapsed();
        shared.record_load(job.vnode, job.backend, 0);
        shared.metrics.record_ok(req.algorithm, true, latency);
        return ok_response(req, &hit, true, latency);
    }

    // Load accounting wants compute time, not queue wait: weighing a
    // vnode by its time-in-queue would double-count the very imbalance
    // the rebalancer is trying to remove.
    let compute_started = Instant::now();
    // Without a known α, the HF run that measures α̂ is also the tree the
    // algorithm walks: no second pass (`crate::solve`).
    let solved = crate::solve::solve(&req.problem, req.algorithm, req.n, req.theta, &shared.pool);
    shared.metrics.record_solve(
        solved.bisections,
        solved.tree_reused,
        solved.ratio > solved.bound,
    );
    let result = CachedResult::new(solved.pieces, solved.ratio, solved.bound, solved.alpha);
    backend.cache.put(key, result.clone());
    if let Some(spill) = &backend.spill {
        // Write-behind: O(1) enqueue; a full queue drops the record
        // (counted) rather than stalling the worker.
        spill.spill(persist::encode_key(&key), persist::encode_value(&result));
    }
    let compute_micros = compute_started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    shared.record_load(job.vnode, job.backend, compute_micros);
    let latency = job.received.elapsed();
    shared.metrics.record_ok(req.algorithm, false, latency);
    ok_response(req, &result, false, latency)
}

fn ok_response(
    req: &BalanceRequest,
    result: &CachedResult,
    cached: bool,
    latency: Duration,
) -> Response {
    Response::Ok(BalanceResponse {
        id: req.id,
        algorithm: req.algorithm,
        n: req.n,
        ratio: result.ratio,
        bound: result.bound,
        alpha: result.alpha,
        cached,
        micros: latency.as_micros().min(u64::MAX as u128) as u64,
        pieces: if req.want_pieces {
            result.pieces.clone()
        } else {
            Vec::new()
        },
    })
}

fn stats_json(shared: &Shared) -> Json {
    let int = |v: u64| Json::Int(v as i64);
    let mut json = shared.metrics.to_json();
    if let Json::Obj(entries) = &mut json {
        entries.push(("engine".into(), Json::Str(shared.io.engine().into())));
        entries.push(("faults".into(), shared.io.counters().faults_json()));
        // Cache rollup: the per-backend caches summed, so the section
        // reads exactly as it did with one backend.
        let per_cache: Vec<_> = shared.backends.iter().map(|b| b.cache.stats()).collect();
        let sum = |f: fn(&crate::cache::CacheStats) -> u64| int(per_cache.iter().map(f).sum());
        let (hits, misses): (u64, u64) = per_cache
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
        let hit_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        let first = &shared.backends[0].cache;
        entries.push((
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), int(hits)),
                ("misses".into(), int(misses)),
                ("evictions".into(), sum(|c| c.evictions)),
                ("admission_rejects".into(), sum(|c| c.admission_rejects)),
                ("len".into(), sum(|c| c.len as u64)),
                ("capacity".into(), sum(|c| c.capacity as u64)),
                ("hit_rate".into(), Json::Num(hit_rate)),
                ("shards".into(), int(first.shard_count() as u64)),
                ("admission".into(), Json::Bool(first.admission_enabled())),
            ]),
        ));
        // Queue rollup: the aggregate budget is the server-wide shed
        // point, identical in meaning to the pre-sharding section.
        let queues = || shared.backends.iter().map(|b| &b.queue);
        entries.push((
            "queue".into(),
            Json::Obj(vec![
                ("depth".into(), int(shared.queue_cap.depth() as u64)),
                ("capacity".into(), int(shared.queue_cap.capacity() as u64)),
                (
                    "shards".into(),
                    int(queues().map(|q| q.workers() as u64).sum()),
                ),
                ("steals".into(), int(queues().map(|q| q.steals()).sum())),
            ]),
        ));
        entries.push(("backends".into(), backends_json(shared, &per_cache)));
        let rebalance = shared.tuning.rebalance.as_ref();
        entries.push((
            "rebal".into(),
            rebal_json(
                rebalance,
                rebalance.is_some() && shared.backends.len() > 1,
                shared.vnode_load.len(),
                &shared.rebal.snapshot(),
            ),
        ));
        entries.push(("connections".into(), shared.io.connections_json()));
        let pool = &shared.pool;
        entries.push((
            "pool".into(),
            Json::Obj(vec![
                ("workers".into(), int(pool.workers() as u64)),
                ("injector_depth".into(), int(pool.injector_depth() as u64)),
                ("queued".into(), int(pool.queued() as u64)),
            ]),
        ));
        if let Some(spill) = &shared.spill {
            let mut store = store_json(&spill.stats());
            if let Json::Obj(fields) = &mut store {
                let sync = shared
                    .tuning
                    .store
                    .as_ref()
                    .map_or("none", |s| s.sync.name());
                fields.push(("sync".into(), Json::Str(sync.into())));
            }
            entries.push(("store".into(), store));
        }
    }
    json
}

/// The shard-aware rollup: per-backend gauges plus a `max/mean` load
/// imbalance ratio over `queue_depth + inflight` — the min-max metric a
/// balanced decomposition is judged by.
fn backends_json(shared: &Shared, per_cache: &[crate::cache::CacheStats]) -> Json {
    let int = |v: u64| Json::Int(v as i64);
    let load = |b: &Backend| (b.queue.depth() + b.inflight.occupied()) as u64;
    let max_load = shared.backends.iter().map(load).max().unwrap_or(0);
    let mean_load =
        shared.backends.iter().map(load).sum::<u64>() as f64 / shared.backends.len() as f64;
    let ratio = if mean_load == 0.0 {
        1.0
    } else {
        max_load as f64 / mean_load
    };
    let per_backend: Vec<Json> = shared
        .backends
        .iter()
        .zip(per_cache)
        .map(|(b, cache)| {
            Json::Obj(vec![
                ("queue_depth".into(), int(b.queue.depth() as u64)),
                ("queue_capacity".into(), int(b.queue.capacity() as u64)),
                ("inflight".into(), int(b.inflight.occupied() as u64)),
                ("workers".into(), int(b.workers as u64)),
                ("steals".into(), int(b.queue.steals())),
                ("cache_hits".into(), int(cache.hits)),
                ("cache_misses".into(), int(cache.misses)),
                ("cache_len".into(), int(cache.len as u64)),
                ("hit_rate".into(), Json::Num(cache.hit_rate())),
                ("load_hits".into(), int(b.load_hits.load(Ordering::Relaxed))),
                (
                    "load_micros".into(),
                    int(b.load_micros.load(Ordering::Relaxed)),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("count".into(), int(shared.backends.len() as u64)),
        ("vnodes".into(), int(shared.router.vnodes() as u64)),
        (
            "imbalance".into(),
            Json::Obj(vec![
                ("max".into(), int(max_load)),
                ("mean".into(), Json::Num(mean_load)),
                ("ratio".into(), Json::Num(ratio)),
            ]),
        ),
        ("per_backend".into(), Json::Arr(per_backend)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::Algorithm;
    use crate::spec::ProblemSpec;

    fn test_server() -> Server {
        Server::start(ServerConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 64,
            pool_threads: 2,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port")
    }

    fn synth(seed: u64) -> ProblemSpec {
        ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.25,
            hi: 0.5,
            seed,
        }
    }

    fn balance(seed: u64, algorithm: Algorithm) -> Request {
        Request::Balance(BalanceRequest {
            id: Some(seed),
            algorithm,
            n: 16,
            theta: 1.0,
            deadline_ms: None,
            want_pieces: true,
            problem: synth(seed),
        })
    }

    #[test]
    fn ping_and_stats_round_trip() {
        let server = test_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert!(matches!(
            client.call(&Request::Ping).unwrap(),
            Response::Pong
        ));
        match client.call(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                assert!(stats.get("uptime_ms").is_some());
                assert!(stats.get("cache").is_some());
                assert!(stats.get("queue").is_some());
            }
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn balance_executes_and_caches() {
        let server = test_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let first = match client.call(&balance(7, Algorithm::Ba)).unwrap() {
            Response::Ok(r) => r,
            other => panic!("expected ok, got {other:?}"),
        };
        assert!(!first.cached);
        assert!(first.ratio >= 1.0 && first.ratio <= first.bound);
        assert_eq!(first.pieces.len(), 16);
        let second = match client.call(&balance(7, Algorithm::Ba)).unwrap() {
            Response::Ok(r) => r,
            other => panic!("expected ok, got {other:?}"),
        };
        assert!(second.cached, "identical request must hit the cache");
        assert_eq!(second.pieces, first.pieces);
        server.shutdown();
    }

    #[test]
    fn expired_deadline_times_out() {
        let server = test_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let req = Request::Balance(BalanceRequest {
            id: Some(1),
            algorithm: Algorithm::Hf,
            n: 8,
            theta: 1.0,
            deadline_ms: Some(0),
            want_pieces: false,
            problem: synth(1),
        });
        // deadline 0 ms: by the time it is dispatched, it is late.
        match client.call(&req).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Timeout),
            Response::Ok(_) => {} // a fast dispatch can legitimately win the race
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_bad_request_and_connection_survives() {
        let server = test_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        match client.call_raw("this is not json").unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("unexpected {other:?}"),
        }
        // The same connection still works.
        assert!(matches!(
            client.call(&Request::Ping).unwrap(),
            Response::Pong
        ));
        server.shutdown();
    }

    #[test]
    fn shutdown_frame_stops_the_server() {
        let server = test_server();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::Pong
        ));
        server.join();
        // New connections are refused once the listener is gone; allow a
        // beat for the OS to tear the socket down.
        std::thread::sleep(Duration::from_millis(50));
        let refused = Client::connect(addr)
            .and_then(|mut c| c.call(&Request::Ping))
            .is_err();
        assert!(refused, "server still answering after shutdown");
    }

    /// The sharded configuration must serve correctly (routing is
    /// deterministic, so repeats hit the same backend's cache) and the
    /// stats rollup must expose the per-backend gauges.
    #[test]
    fn sharded_backends_serve_and_report_rollup() {
        let server = Server::start_tuned(
            ServerConfig {
                workers: 2,
                queue_capacity: 64,
                cache_capacity: 64,
                pool_threads: 2,
                ..ServerConfig::default()
            },
            Tuning {
                backends: 4,
                backend_vnodes: 32,
                ..Tuning::default()
            },
        )
        .expect("bind ephemeral port");
        let mut client = Client::connect(server.local_addr()).unwrap();
        for seed in 0..8 {
            match client.call(&balance(seed, Algorithm::Hf)).unwrap() {
                Response::Ok(r) => assert!(!r.cached),
                other => panic!("expected ok, got {other:?}"),
            }
        }
        for seed in 0..8 {
            match client.call(&balance(seed, Algorithm::Hf)).unwrap() {
                Response::Ok(r) => assert!(r.cached, "seed {seed} must re-home to a warm backend"),
                other => panic!("expected ok, got {other:?}"),
            }
        }
        match client.call(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                let backends = stats.get("backends").expect("backends section");
                assert_eq!(
                    backends.get("count").and_then(|v| v.as_u64()),
                    Some(4),
                    "rollup must report the backend count"
                );
                assert_eq!(backends.get("vnodes").and_then(|v| v.as_u64()), Some(32));
                let imbalance = backends.get("imbalance").expect("imbalance gauge");
                assert!(imbalance.get("max").is_some());
                assert!(imbalance.get("mean").is_some());
                assert!(imbalance.get("ratio").is_some());
                match backends.get("per_backend") {
                    Some(Json::Arr(list)) => {
                        assert_eq!(list.len(), 4);
                        let hits: u64 = list
                            .iter()
                            .map(|b| b.get("cache_hits").and_then(|v| v.as_u64()).unwrap())
                            .sum();
                        assert!(hits >= 8, "repeat passes must hit backend caches");
                    }
                    other => panic!("expected per_backend array, got {other:?}"),
                }
                // The aggregate queue contract is unchanged by sharding.
                let capacity = stats
                    .get("queue")
                    .and_then(|q| q.get("capacity"))
                    .and_then(|v| v.as_u64());
                assert_eq!(capacity, Some(64));
            }
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn fast_path_hits_are_reported() {
        let server = test_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for _ in 0..3 {
            match client.call(&balance(11, Algorithm::Hf)).unwrap() {
                Response::Ok(_) => {}
                other => panic!("expected ok, got {other:?}"),
            }
        }
        match client.call(&Request::Stats).unwrap() {
            Response::Stats(stats) => {
                let engine = if cfg!(target_os = "linux") {
                    "epoll"
                } else {
                    "sweep"
                };
                assert_eq!(stats.get("engine").and_then(|e| e.as_str()), Some(engine));
                let fast = stats
                    .get("requests")
                    .and_then(|r| r.get("fast_path"))
                    .and_then(|v| v.as_u64())
                    .expect("requests.fast_path present");
                assert!(fast >= 2, "repeat hits must use the inline fast path");
            }
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }
}
