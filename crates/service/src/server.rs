//! The partition-serving daemon.
//!
//! One serving engine: nonblocking accept, I/O pollers that frame and
//! dispatch requests, and worker threads behind a per-backend steal
//! queue.
//!
//! ```text
//!  clients ──TCP──▶ nonblocking accept ─▶ I/O pollers (FrameReader)
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
//!                                           ▼ write reply to socket
//! ```
//!
//! The readiness backend under the pollers is a platform decision, not
//! an option. On Linux each poller blocks in `epoll_wait` (`epoll_loop`)
//! and services only the connections the kernel (or a worker's eventfd
//! wakeup) reports, so idle connections cost nothing. When the epoll or
//! eventfd setup fails at startup — and on every non-Linux target, where
//! `gb-sys` reports it as unsupported — the pollers run the portable
//! sweep loop (`event_loop`) instead, which probes every connection
//! each pass. Everything above the readiness layer is shared: the same
//! `sweep_conn` services a connection either way. `stats.engine`
//! names the backend the pollers actually run (`"epoll"` or `"sweep"`).
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

use std::fmt;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use gb_core::tree::AlphaRecorder;
use gb_parlb::ThreadPool;
use gb_rebal::{EwmaTracker, RebalanceCounters, RebalanceSettings, VnodeLoad};
use gb_store::{SpillHandle, SpillSender, Store};
use gb_sys as sys;
use parking_lot::Mutex;

use crate::cache::{CacheKey, CachedResult, ReplyTail, ShardedCache};
use crate::fault::{IoShim, Passthrough, ShimStream};
use crate::metrics::{store_json, ServiceMetrics};
use crate::persist::{self, StoreSettings};
use crate::proto::{
    binary_hit_reply, binary_ok_tail, json_hit_reply, json_ok_tail, Algorithm, BalanceRequest,
    BalanceResponse, Codec, ErrorCode, Frame, FrameError, FrameReader, Json, Request, Response,
    WireCodec,
};
use crate::route::{Router, DEFAULT_VNODES};
use crate::shed::{AggregateCap, FullCause, PushError, SlotGauge, SlotToken, StealQueue};
use crate::spec::ServiceProblem;

/// Smallest α used for bound computation, so bounds stay finite even for
/// degenerate empirical measurements.
const MIN_ALPHA: f64 = 1e-3;

/// Lines dispatched from one connection per poller sweep, so one
/// pipelining client cannot starve its siblings on the same poller.
const MAX_LINES_PER_SWEEP: usize = 32;

/// Compaction threshold for a connection's output buffer: once this many
/// written bytes accumulate at the front, the buffer is shifted down.
const OUT_BUF_COMPACT: usize = 64 * 1024;

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

/// Hot-path tuning: poller count, cache sharding/admission, and the
/// timeouts that used to be hard-coded consts (`REPLY_TIMEOUT`,
/// `POLL_INTERVAL`) — hoisted into configuration with the old values as
/// defaults so fault-injection tests can tighten them.
///
/// Kept separate from [`ServerConfig`] so exhaustive `ServerConfig`
/// literals in existing callers and tests keep compiling; pass it via
/// [`Server::start_tuned`]. [`Server::start`] uses the defaults.
#[derive(Clone)]
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
    /// died). Was the `REPLY_TIMEOUT` const; default 120 s.
    pub reply_timeout: Duration,
    /// Timer granularity of the pollers: how often in-flight and
    /// write-stalled connections are re-checked, the accept backoff
    /// after fd exhaustion, and the ceiling on the sweep loop's idle
    /// backoff. Was the `POLL_INTERVAL` const; default 100 ms.
    pub poll_interval: Duration,
    /// How long a socket may refuse bytes (`WouldBlock` with output
    /// pending) before the connection is declared dead — the client
    /// stopped reading. Was the `WRITE_STALL_LIMIT` const; default 5 s.
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

impl fmt::Debug for Tuning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuning")
            .field("io_threads", &self.io_threads)
            .field("cache_shards", &self.cache_shards)
            .field("admission", &self.admission)
            .field("reply_timeout", &self.reply_timeout)
            .field("poll_interval", &self.poll_interval)
            .field("write_stall", &self.write_stall)
            .field("store", &self.store)
            .field("backends", &self.backends)
            .field("backend_vnodes", &self.backend_vnodes)
            .field("max_conns", &self.max_conns)
            .field("rebalance", &self.rebalance)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Connection and reply plumbing
// ---------------------------------------------------------------------------

/// Write half of a connection: the nonblocking socket plus
/// the output buffer that survives `WouldBlock` mid-frame.
///
/// Every writer (poller inline replies, worker replies, timeout errors)
/// appends whole frames to `pending` and then pushes as much as the
/// socket will take; the unwritten tail stays buffered — never dropped,
/// never duplicated — and later sweeps retry it. `sent` marks the start
/// of the unwritten region so retries cannot resend bytes.
struct ConnWriter {
    sink: ShimStream,
    pending: Vec<u8>,
    sent: usize,
    /// First `WouldBlock` with output pending; cleared whenever the
    /// socket accepts bytes again.
    stalled_since: Option<Instant>,
}

impl ConnWriter {
    fn new(sink: ShimStream) -> Self {
        Self {
            sink,
            pending: Vec::new(),
            sent: 0,
            stalled_since: None,
        }
    }

    fn has_pending(&self) -> bool {
        self.sent < self.pending.len()
    }
}

/// Per-connection state shared between the poller that reads requests
/// and the worker that writes the reply.
struct ConnShared {
    /// Accept-order id, the fault shim's addressing scheme.
    conn_id: u64,
    /// Buffered write half. Workers and the poller serialise frames
    /// through this lock.
    writer: Mutex<ConnWriter>,
    /// A balance job from this connection is queued or executing; the
    /// poller stops reading until it clears (responses stay ordered).
    inflight: AtomicBool,
    /// Socket failed on write; the poller drops the connection.
    dead: AtomicBool,
    /// Wakes the owning epoll poller when worker-side state changes
    /// (reply delivered, connection marked dead) — a blocked
    /// `epoll_wait` cannot see an `AtomicBool` flip. `None` under the
    /// sweep fallback, whose pollers rediscover state by sweeping.
    waker: Option<Arc<sys::EventFd>>,
}

impl ConnShared {
    /// Signals the owning epoll poller, if any.
    fn wake(&self) {
        if let Some(w) = &self.waker {
            w.signal();
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
    /// The connection the worker writes the reply to.
    conn: Arc<ConnShared>,
    /// Arbitrates between the worker and a poller-side reply timeout —
    /// whoever flips it first owns the reply.
    answered: Arc<AtomicBool>,
    /// RAII in-flight slot: released when the job is dropped, wherever
    /// that happens — worker reply, dead-connection skip, shed hand-back
    /// or shutdown drain — so the gauge cannot leak.
    _slot: SlotToken,
    /// Same contract for the owning backend's in-flight gauge.
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
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    tuning: Tuning,
    /// Accept-order connection ids (the fault shim's addressing).
    next_conn: AtomicU64,
    /// Live connections (open sockets holding a token).
    open_conns: SlotGauge,
    /// Balance jobs between submission and reply.
    inflight_jobs: SlotGauge,
    /// Accepted connections in transit to their poller.
    inboxes: Vec<Mutex<Vec<Conn>>>,
    /// One epoll wakeup channel per poller. Workers signal the owning
    /// poller after finishing a reply so it can re-arm read interest.
    /// Empty exactly when the pollers run the sweep fallback.
    wakers: Vec<Arc<sys::EventFd>>,
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
    /// The readiness backend the pollers run, as reported in
    /// `stats.engine`.
    fn engine(&self) -> &'static str {
        if self.wakers.is_empty() {
            "sweep"
        } else {
            "epoll"
        }
    }

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
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
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
        let io_threads = tuning.io_threads.clamp(1, 16);
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
        // The readiness backend is decided here, once, for every
        // poller: epoll where the kernel provides it, the sweep loop
        // when setup fails (always, off Linux). Workers hold the
        // wakeup channels through `ConnShared`, so they must exist
        // before the pollers do.
        let (epolls, wakers): (Vec<_>, Vec<_>) =
            open_readiness(&*tuning.shim, &listener, io_threads)
                .unwrap_or_default()
                .into_iter()
                .unzip();
        let vnode_count = router.vnode_count();
        let default_owners = router.default_owners();
        let shared = Arc::new(Shared {
            router,
            backends,
            queue_cap,
            metrics: ServiceMetrics::new(),
            pool: ThreadPool::new(pool_threads),
            shutdown: AtomicBool::new(false),
            local_addr,
            tuning: tuning.clone(),
            next_conn: AtomicU64::new(0),
            open_conns: SlotGauge::new(),
            inflight_jobs: SlotGauge::new(),
            inboxes: (0..io_threads).map(|_| Mutex::new(Vec::new())).collect(),
            wakers,
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
                        .spawn(move || rebalance_loop(&shared, &settings))
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

        // Poller 0 accepts; with epoll the listener is already
        // registered on its instance.
        let mut listener = Some(listener);
        let mut epolls = epolls.into_iter();
        let pollers = (0..io_threads)
            .map(|p| {
                let shared = Arc::clone(&shared);
                let listener = listener.take();
                let ep = epolls.next();
                thread::Builder::new()
                    .name(format!("gb-serve-io-{p}"))
                    .spawn(move || match ep {
                        Some(ep) => epoll_loop(&shared, p, listener, ep),
                        None => event_loop(&shared, p, listener),
                    })
                    .expect("spawn io poller")
            })
            .collect();

        Ok(Server {
            shared,
            pollers,
            workers: worker_handles,
            rebal,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The readiness backend the pollers run: `"epoll"`, or `"sweep"`
    /// when epoll setup failed or the platform has none.
    pub fn engine(&self) -> &'static str {
        self.shared.engine()
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
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    for backend in &shared.backends {
        backend.queue.close();
    }
    // Epoll pollers block in epoll_wait; signal each wakeup channel so
    // the drain starts now rather than at the next timeout.
    for waker in &shared.wakers {
        waker.signal();
    }
}

// ---------------------------------------------------------------------------
// Rebalance tick: HF over observed per-vnode load (gb-rebal)
// ---------------------------------------------------------------------------

/// The self-balancing tick. Every `interval` it snapshots the per-vnode
/// counters into an EWMA, plans an HF re-partition of the vnode
/// multiset over all backends (in-process backends don't die, so the
/// candidate set is the full membership), and — hysteresis permitting —
/// swaps the new assignment table in. Requests racing the swap route by
/// either the old or the new table, both of which are valid backends;
/// a moved vnode's next request simply warms the new owner's cache.
fn rebalance_loop(shared: &Arc<Shared>, settings: &RebalanceSettings) {
    let alive: Vec<u32> = (0..shared.backends.len() as u32).collect();
    let mut tracker = EwmaTracker::new(shared.vnode_load.len(), settings.decay);
    let interval = settings.interval.max(Duration::from_millis(1));
    // Sleep in short steps so shutdown is honoured promptly even with
    // long tick intervals.
    let step = Duration::from_millis(20).min(interval);
    let mut next_tick = Instant::now() + interval;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if Instant::now() < next_tick {
            thread::sleep(step);
            continue;
        }
        next_tick = Instant::now() + interval;
        tracker.observe(&shared.vnode_load);
        let current = shared.assignment.read().expect("assignment lock").clone();
        let plan = gb_rebal::plan(
            &tracker.weights(),
            &current,
            &alive,
            settings.trigger,
            settings.move_budget,
        );
        shared.rebal.record_tick(&plan);
        if !plan.skipped && !plan.moves.is_empty() {
            *shared.assignment.write().expect("assignment lock") = plan.owners;
        }
    }
}

fn protocol_error(shared: &Shared, message: &str) -> Response {
    shared.metrics.record_error(ErrorCode::BadRequest);
    Response::Error {
        id: None,
        code: ErrorCode::BadRequest,
        message: message.into(),
    }
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
// Pollers: nonblocking accept, connection sweep, direct worker writes
// ---------------------------------------------------------------------------

/// One connection owned by an I/O poller.
struct Conn {
    reader: FrameReader<ShimStream>,
    shared: Arc<ConnShared>,
    /// Set while a queued balance request is outstanding: when it was
    /// dispatched, the reply-arbitration flag, and the request id (for
    /// the timeout error frame).
    inflight_since: Option<(Instant, Arc<AtomicBool>, Option<u64>, WireCodec)>,
    /// The read side is finished (EOF or torn frame); the connection
    /// stays around only until buffered replies drain.
    closing: bool,
    /// Open-connection gauge slot, released when the poller drops us.
    _open: SlotToken,
}

impl Conn {
    /// Registers an accepted stream. `None` means the socket died
    /// between `accept` and setup (`fcntl`/`dup` failure, typical under
    /// fd pressure) — the caller must record the death; a client that
    /// connected successfully must not vanish without a metric.
    fn accept(
        stream: TcpStream,
        shared: &Shared,
        conn_id: u64,
        waker: Option<Arc<sys::EventFd>>,
    ) -> Option<Conn> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).ok()?;
        let writer = stream.try_clone().ok()?;
        let shim = &shared.tuning.shim;
        Some(Conn {
            reader: FrameReader::new(ShimStream::new(stream, Arc::clone(shim), conn_id)),
            shared: Arc::new(ConnShared {
                conn_id,
                writer: Mutex::new(ConnWriter::new(ShimStream::new(
                    writer,
                    Arc::clone(shim),
                    conn_id,
                ))),
                inflight: AtomicBool::new(false),
                dead: AtomicBool::new(false),
                waker,
            }),
            inflight_since: None,
            closing: false,
            _open: shared.open_conns.acquire(),
        })
    }
}

/// Accept-side state an accepting poller carries across iterations.
#[derive(Default)]
struct AcceptState {
    /// Round-robin cursor over poller inboxes.
    next_inbox: usize,
    /// Set after a resource-exhaustion accept error: no accept attempts
    /// until this instant. Retrying `EMFILE` hot frees nothing and
    /// starves the connections that already exist.
    backoff_until: Option<Instant>,
}

/// Drains the listener's accept queue, triaging errors instead of the
/// old blanket `Err(_) => break`: `Interrupted` retries immediately,
/// `WouldBlock` ends the batch, resource exhaustion counts
/// `faults.accept_errors` and backs accepts off for one poll interval,
/// and the `--max-conns` cap sheds with a best-effort `overloaded`
/// reply before close. Accepted connections are handed to `deliver`
/// with their target poller index. Returns true if any were accepted.
fn drain_accepts(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    state: &mut AcceptState,
    mut deliver: impl FnMut(usize, Conn),
) -> bool {
    if let Some(until) = state.backoff_until {
        if Instant::now() < until {
            return false;
        }
        state.backoff_until = None;
    }
    let mut progress = false;
    loop {
        // Accept first, shim second: the scripted seam only fires once
        // a real connection is pending, so an idle sweep iteration is a
        // plain `WouldBlock` and never consumes a scripted verdict.
        let attempt = match listener.accept() {
            Ok((stream, _)) => shared.tuning.shim.accept_result().map(|()| stream),
            Err(e) => Err(e),
        };
        match attempt {
            Ok(stream) => {
                progress = true;
                let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
                if !shared.tuning.shim.allow_accept(conn_id) {
                    shared.metrics.record_conn_reset();
                    continue;
                }
                let max = shared.tuning.max_conns;
                if max > 0 && shared.open_conns.occupied() >= max {
                    shed_accept(shared, stream, max);
                    continue;
                }
                let target = state.next_inbox % shared.inboxes.len();
                state.next_inbox = state.next_inbox.wrapping_add(1);
                let waker = shared.wakers.get(target).cloned();
                match Conn::accept(stream, shared, conn_id, waker) {
                    Some(conn) => deliver(target, conn),
                    None => shared.metrics.record_conn_reset(),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if would_block(&e) => break,
            Err(e) => {
                shared.metrics.record_accept_error();
                if sys::is_resource_exhaustion(&e) {
                    state.backoff_until = Some(Instant::now() + shared.tuning.poll_interval);
                }
                break;
            }
        }
    }
    progress
}

/// Best-effort `overloaded` reply to a connection shed at the
/// `--max-conns` cap, then close. One nonblocking write: a peer whose
/// socket cannot take a single frame just sees the close. Shedding
/// happens before the first frame is sniffed, so the reply is always a
/// JSON line — binary clients treat the close itself as the signal.
fn shed_accept(shared: &Shared, stream: TcpStream, cap: usize) {
    shared.metrics.record_accept_shed();
    shared.metrics.record_error(ErrorCode::Overloaded);
    let resp = Response::Error {
        id: None,
        code: ErrorCode::Overloaded,
        message: format!("connection limit ({cap}) reached"),
    };
    let mut line = resp.encode();
    line.push('\n');
    let _ = stream.set_nonblocking(true);
    let _ = (&stream).write(line.as_bytes());
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Queues one frame for delivery and pushes what the socket will take.
fn write_frame(shared: &Shared, conn: &ConnShared, codec: WireCodec, resp: &Response) {
    let mut frame = Vec::new();
    codec.encode_response(resp, &mut frame);
    enqueue_bytes(shared, conn, &frame);
}

/// Appends one encoded frame to a sweep's outgoing reply buffer.
fn push_reply(replies: &mut Vec<u8>, codec: WireCodec, resp: &Response) {
    codec.encode_response(resp, replies);
}

/// Moves a sweep's coalesced replies into the connection's output
/// buffer and flushes what fits, preserving frame order.
fn flush_replies(shared: &Shared, conn: &ConnShared, replies: &mut Vec<u8>) {
    if !replies.is_empty() {
        enqueue_bytes(shared, conn, replies);
        replies.clear();
    }
}

/// Appends bytes to the connection's output buffer and drives the
/// socket. Never blocks and never drops accepted bytes: on `WouldBlock`
/// the tail stays in the buffer for later flushes.
fn enqueue_bytes(shared: &Shared, conn: &ConnShared, buf: &[u8]) {
    let mut w = conn.writer.lock();
    if conn.dead.load(Ordering::Acquire) {
        return;
    }
    w.pending.extend_from_slice(buf);
    drive_writer(shared, conn, &mut w);
}

/// Retries any buffered output without blocking. Returns `true` while
/// unwritten bytes remain.
fn flush_pending(shared: &Shared, conn: &ConnShared) -> bool {
    let mut w = conn.writer.lock();
    drive_writer(shared, conn, &mut w);
    w.has_pending()
}

/// Writes as much buffered output as the socket accepts. A socket that
/// refuses all bytes for `tuning.write_stall` is a peer that stopped
/// reading: the connection is marked dead and the buffer discarded.
fn drive_writer(shared: &Shared, conn: &ConnShared, w: &mut ConnWriter) {
    while w.sent < w.pending.len() {
        match w.sink.write(&w.pending[w.sent..]) {
            Ok(0) => return mark_write_dead(shared, conn, w),
            Ok(k) => {
                w.sent += k;
                w.stalled_since = None;
            }
            Err(e) if would_block(&e) => {
                let since = *w.stalled_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= shared.tuning.write_stall {
                    return mark_write_dead(shared, conn, w);
                }
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return mark_write_dead(shared, conn, w),
        }
    }
    if w.sent == w.pending.len() {
        w.pending.clear();
        w.sent = 0;
    } else if w.sent >= OUT_BUF_COMPACT {
        w.pending.drain(..w.sent);
        w.sent = 0;
    }
}

fn mark_write_dead(shared: &Shared, conn: &ConnShared, w: &mut ConnWriter) {
    conn.dead.store(true, Ordering::Release);
    shared.metrics.record_conn_reset();
    w.pending.clear();
    w.sent = 0;
    w.stalled_since = None;
    // A dead connection must be reaped; an epoll poller blocked in
    // `wait` would otherwise not notice until its timeout.
    conn.wake();
}

/// The poller loop: accept (poller 0), adopt handed-off connections,
/// sweep each connection for readable frames, back off adaptively when
/// idle. Exits when shutdown is set and every in-flight reply has been
/// written.
fn event_loop(shared: &Arc<Shared>, index: usize, mut listener: Option<TcpListener>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut accepts = AcceptState::default();
    let mut idle_spins = 0u32;
    // Reused across sweeps: inline replies are batched here and written
    // with one syscall per connection per sweep.
    let mut replies = Vec::new();
    loop {
        let mut progress = false;
        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining {
            // Dropping the listener refuses new connections immediately.
            listener = None;
        } else if let Some(l) = &listener {
            progress |= drain_accepts(shared, l, &mut accepts, |target, conn| {
                if target == index {
                    conns.push(conn);
                } else {
                    shared.inboxes[target].lock().push(conn);
                }
            });
        }
        {
            let mut inbox = shared.inboxes[index].lock();
            if !inbox.is_empty() {
                progress = true;
                conns.append(&mut inbox);
            }
        }
        conns.retain_mut(|conn| sweep_conn(shared, conn, draining, &mut progress, &mut replies));
        if draining && conns.is_empty() {
            return;
        }
        if progress {
            idle_spins = 0;
        } else {
            idle_spins = idle_spins.saturating_add(1);
            if idle_spins > 3 {
                // Exponential backoff from 50 µs. There is no readiness
                // wakeup — a sleeping poller is blind — so the sleep cap
                // balances wake latency against sweep cost. A flat 1 ms
                // cap meant ONE idle connection held the poller at ~1k
                // full sweeps/sec forever; instead the cap scales with
                // the sweep's own cost (~20 µs of allowance per
                // connection), so a near-empty poller naps cheaply while
                // a loaded one still wakes fast. Only an empty poller
                // may back off all the way to the poll interval.
                let exp = (idle_spins - 3).min(12);
                let backoff = Duration::from_micros(50u64 << exp);
                let cap = if conns.is_empty() {
                    shared.tuning.poll_interval
                } else {
                    let interval = shared.tuning.poll_interval;
                    Duration::from_micros(20 * conns.len() as u64)
                        .min(interval)
                        .max(Duration::from_millis(1).min(interval))
                };
                thread::sleep(backoff.min(cap));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Epoll readiness: wakeups over the same per-connection logic
// ---------------------------------------------------------------------------

/// Registration token for the accept listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Registration token for the poller's eventfd wakeup channel.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// The descriptor epoll registers for a socket.
#[cfg(unix)]
fn raw_fd(sock: &impl std::os::fd::AsRawFd) -> sys::RawFd {
    sock.as_raw_fd()
}

/// Off unix there is no epoll: [`open_readiness`] fails before any
/// descriptor is registered, so this value is never used.
#[cfg(not(unix))]
fn raw_fd<T>(_sock: &T) -> sys::RawFd {
    -1
}

/// Opens one epoll instance and wakeup channel per poller, with the
/// listener registered on poller 0's instance. Any failure — the fault
/// shim's scripted [`IoShim::readiness_setup`] error, `epoll_create1`
/// or `eventfd` refusing under fd exhaustion, or `Unsupported` off
/// Linux — sends every poller to the sweep loop instead: readiness is
/// an optimisation, not a correctness requirement.
fn open_readiness(
    shim: &dyn IoShim,
    listener: &TcpListener,
    pollers: usize,
) -> std::io::Result<Vec<(sys::Epoll, Arc<sys::EventFd>)>> {
    shim.readiness_setup()?;
    (0..pollers)
        .map(|p| {
            let ep = sys::Epoll::new()?;
            let waker = Arc::new(sys::EventFd::new()?);
            ep.add(waker.raw_fd(), WAKER_TOKEN, sys::Interest::READ)?;
            if p == 0 {
                ep.add(raw_fd(listener), LISTENER_TOKEN, sys::Interest::READ)?;
            }
            Ok((ep, waker))
        })
        .collect()
}

/// A connection owned by an epoll poller: the sweep loop's [`Conn`]
/// plus the interest currently registered with the kernel.
struct EpollConn {
    conn: Conn,
    armed: sys::Interest,
}

fn conn_fd(conn: &Conn) -> sys::RawFd {
    raw_fd(conn.reader.get_ref().get_ref())
}

/// Adds a connection to the poller's slab and registers its socket for
/// read readiness. `None` (with `conn_reset` recorded) if the kernel
/// refuses the registration — the socket died between accept and here.
fn epoll_insert(
    ep: &sys::Epoll,
    slots: &mut Vec<Option<EpollConn>>,
    free: &mut Vec<usize>,
    shared: &Shared,
    conn: Conn,
) -> Option<usize> {
    let slot = free.pop().unwrap_or_else(|| {
        slots.push(None);
        slots.len() - 1
    });
    if ep
        .add(conn_fd(&conn), slot as u64, sys::Interest::READ)
        .is_err()
    {
        free.push(slot);
        shared.metrics.record_conn_reset();
        return None;
    }
    slots[slot] = Some(EpollConn {
        conn,
        armed: sys::Interest::READ,
    });
    Some(slot)
}

/// The readiness-driven poller. Per-connection semantics are identical
/// to [`event_loop`] — the work is the same [`sweep_conn`], so the
/// fault shim, reply arbitration, and write-stall accounting are all
/// shared — but instead of sweeping every connection every iteration
/// the poller blocks in `epoll_wait` and services only what the kernel
/// (or a worker's eventfd wakeup) reports. Idle connections therefore
/// cost nothing per iteration; that is the whole point of readiness.
///
/// Level-triggered interest is deliberate: the fault shim may answer a
/// readable wakeup with an injected `WouldBlock`, and level semantics
/// re-deliver the event on the next wait instead of losing it.
///
/// `ep` comes from [`open_readiness`], with this poller's waker (and,
/// on the accepting poller, the listener) already registered.
fn epoll_loop(
    shared: &Arc<Shared>,
    index: usize,
    mut listener: Option<TcpListener>,
    mut ep: sys::Epoll,
) {
    use std::collections::HashSet;

    let waker = Arc::clone(&shared.wakers[index]);
    let mut listener_armed = listener.is_some();

    // Owned connections; the epoll token is the slot index.
    let mut slots: Vec<Option<EpollConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    // Slots needing periodic timer sweeps (job in flight, buffered
    // output, or closing): `reply_timeout` and `write_stall` fire at
    // poll-interval granularity, exactly like the sweep loop.
    let mut watched: HashSet<usize> = HashSet::new();
    // Slots with complete frames buffered in the reader while the
    // socket itself is drained: readiness will never fire for those
    // bytes, so the next wait must not block.
    let mut hot: Vec<usize> = Vec::new();
    let mut due: Vec<usize> = Vec::new();
    let mut events: Vec<sys::Event> = Vec::new();
    let mut accepts = AcceptState::default();
    let mut last_timer = Instant::now();
    let mut replies = Vec::new();

    loop {
        let draining = shared.shutdown.load(Ordering::SeqCst);
        if draining {
            if let Some(l) = listener.take() {
                // Dropping the listener refuses new connections now.
                let _ = ep.delete(raw_fd(&l));
                listener_armed = false;
            }
        }

        // How long may the wait block? Buffered frames demand an
        // immediate pass; anything time-driven — timer sweeps, accept
        // backoff, drain — caps it at the poll interval; a fully idle
        // poller blocks until the kernel or a worker wakes it.
        let timeout = if !hot.is_empty() {
            Some(Duration::ZERO)
        } else if draining {
            Some(Duration::from_millis(1).min(shared.tuning.poll_interval))
        } else if !watched.is_empty() || accepts.backoff_until.is_some() {
            Some(shared.tuning.poll_interval)
        } else {
            None
        };
        if ep.wait(&mut events, timeout).is_err() {
            // A broken wait must not busy-loop; pace by the interval
            // and keep sweeping via the timer path below.
            events.clear();
            thread::sleep(shared.tuning.poll_interval);
        }

        due.clear();
        let mut accept_ready = false;
        let mut waker_fired = false;
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => accept_ready = true,
                WAKER_TOKEN => waker_fired = true,
                t => due.push(t as usize),
            }
        }
        if waker_fired {
            waker.drain();
            // A worker finished (or a write died): the affected
            // connections are exactly the watched ones.
            due.extend(watched.iter().copied());
        }

        // Adopt connections handed over by the accepting poller.
        let adopted = std::mem::take(&mut *shared.inboxes[index].lock());
        for conn in adopted {
            if let Some(slot) = epoll_insert(&ep, &mut slots, &mut free, shared, conn) {
                live += 1;
                due.push(slot);
            }
        }

        // Accept: level-triggered, so gating on readiness loses
        // nothing; backoff expiry must retry even though the listener
        // is deregistered while it lasts.
        if let Some(l) = &listener {
            if accept_ready || accepts.backoff_until.is_some() {
                drain_accepts(shared, l, &mut accepts, |target, conn| {
                    if target == index {
                        if let Some(slot) = epoll_insert(&ep, &mut slots, &mut free, shared, conn) {
                            live += 1;
                            due.push(slot);
                        }
                    } else {
                        shared.inboxes[target].lock().push(conn);
                        if let Some(w) = shared.wakers.get(target) {
                            w.signal();
                        }
                    }
                });
                // Keep the registration in step with backoff: a waiting
                // backlog would otherwise wake the poller continuously
                // during a backoff it cannot act on.
                let want = accepts.backoff_until.is_none();
                if want != listener_armed {
                    let done = if want {
                        ep.add(raw_fd(l), LISTENER_TOKEN, sys::Interest::READ)
                    } else {
                        ep.delete(raw_fd(l))
                    };
                    if done.is_ok() {
                        listener_armed = want;
                    }
                }
            }
        }

        // Merge time-driven work: reader-buffered slots always, watched
        // slots at poll-interval cadence, everything during a drain.
        due.append(&mut hot);
        if !watched.is_empty() && last_timer.elapsed() >= shared.tuning.poll_interval {
            due.extend(watched.iter().copied());
            last_timer = Instant::now();
        }
        if draining {
            due.clear();
            due.extend(
                slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|_| i)),
            );
        }

        for &slot in &due {
            // A slot may appear twice (event + timer) or have been
            // dropped earlier in this pass; servicing is idempotent
            // and empty slots are skipped.
            let keep = {
                let Some(ec) = slots.get_mut(slot).and_then(Option::as_mut) else {
                    continue;
                };
                let mut progress = false;
                sweep_conn(shared, &mut ec.conn, draining, &mut progress, &mut replies)
            };
            if !keep {
                if let Some(ec) = slots[slot].take() {
                    let _ = ep.delete(conn_fd(&ec.conn));
                    live -= 1;
                }
                watched.remove(&slot);
                free.push(slot);
                continue;
            }
            let Some(ec) = slots.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            // Re-arm for the connection's new state. Read interest is
            // dropped while a job is in flight — level-triggered
            // readiness would spin for the whole compute — and
            // restored by the worker's wake; write interest mirrors
            // buffered output, so `EPOLLOUT` re-arming flows through
            // the same write-stall accounting as the sweep loop.
            let desired = sys::Interest {
                readable: !draining && !ec.conn.closing && ec.conn.inflight_since.is_none(),
                writable: ec.conn.shared.writer.lock().has_pending(),
            };
            if desired != ec.armed && ep.modify(conn_fd(&ec.conn), slot as u64, desired).is_ok() {
                ec.armed = desired;
            }
            let needs_timer =
                ec.conn.inflight_since.is_some() || ec.conn.closing || desired.writable;
            if needs_timer {
                watched.insert(slot);
            } else {
                watched.remove(&slot);
            }
            if desired.readable && ec.conn.reader.has_buffered() {
                hot.push(slot);
            }
        }

        if draining && live == 0 && shared.inboxes[index].lock().is_empty() {
            return;
        }
    }
}

/// One sweep over one connection. Returns `false` to drop it.
fn sweep_conn(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    draining: bool,
    progress: &mut bool,
    replies: &mut Vec<u8>,
) -> bool {
    replies.clear();
    if conn.shared.dead.load(Ordering::Acquire) {
        return false;
    }
    if let Some((since, answered, id, codec)) = &conn.inflight_since {
        if conn.shared.inflight.load(Ordering::Acquire) {
            if since.elapsed() <= shared.tuning.reply_timeout {
                // Still waiting on the worker; keep earlier buffered
                // output moving in the meantime.
                flush_pending(shared, &conn.shared);
                return !conn.shared.dead.load(Ordering::Acquire);
            }
            // The worker never answered; claim the reply ourselves.
            if claim_reply(answered) {
                shared.metrics.record_error(ErrorCode::Internal);
                write_frame(
                    shared,
                    &conn.shared,
                    *codec,
                    &Response::Error {
                        id: *id,
                        code: ErrorCode::Internal,
                        message: "worker did not answer".into(),
                    },
                );
                conn.shared.inflight.store(false, Ordering::Release);
            }
        }
        conn.inflight_since = None;
        *progress = true;
    }
    // Retry output a previous sweep (or a worker) could not finish —
    // the partial-write tail must drain before anything else is read.
    let has_pending = flush_pending(shared, &conn.shared);
    if conn.shared.dead.load(Ordering::Acquire) {
        return false;
    }
    if draining || conn.closing {
        // Read side is done (shutdown drain, EOF, or torn frame): hold
        // the connection open only until buffered replies are out. A
        // peer that will not take them is killed by the write-stall
        // timer, so this cannot wedge the poller.
        return has_pending;
    }
    let mut keep = true;
    for _ in 0..MAX_LINES_PER_SWEEP {
        match conn.reader.poll_line() {
            Ok(Frame::Pending) => break,
            Ok(Frame::Eof) => {
                conn.closing = true;
                break;
            }
            Ok(Frame::Line(line)) => {
                *progress = true;
                let decoded = Request::decode(&line);
                match dispatch_event_line(shared, &conn.shared, WireCodec::Json, decoded, replies) {
                    LineOutcome::Answered => {}
                    LineOutcome::Inflight { answered, id } => {
                        // Stop reading until the reply is out; earlier
                        // inline replies were flushed before the push.
                        conn.inflight_since = Some((Instant::now(), answered, id, WireCodec::Json));
                        break;
                    }
                }
                if conn.shared.dead.load(Ordering::Acquire) {
                    keep = false;
                    break;
                }
            }
            Ok(Frame::Binary(payload)) => {
                *progress = true;
                let decoded = WireCodec::Binary.decode_request(&payload);
                match dispatch_event_line(shared, &conn.shared, WireCodec::Binary, decoded, replies)
                {
                    LineOutcome::Answered => {}
                    LineOutcome::Inflight { answered, id } => {
                        conn.inflight_since =
                            Some((Instant::now(), answered, id, WireCodec::Binary));
                        break;
                    }
                }
                if conn.shared.dead.load(Ordering::Acquire) {
                    keep = false;
                    break;
                }
            }
            Err(FrameError::TooLong) => {
                push_reply(
                    replies,
                    conn.reader.codec(),
                    &protocol_error(shared, "frame exceeds the maximum length"),
                );
            }
            Err(FrameError::NotUtf8) => {
                push_reply(
                    replies,
                    conn.reader.codec(),
                    &protocol_error(shared, "frame is not valid UTF-8"),
                );
            }
            Err(FrameError::Corrupt) => {
                // A corrupt binary length is recoverable: the reader
                // resyncs to the next plausible frame boundary and the
                // connection keeps going.
                shared.metrics.record_torn_frame();
                push_reply(
                    replies,
                    conn.reader.codec(),
                    &protocol_error(shared, "binary frame length is corrupt"),
                );
            }
            Err(FrameError::Torn) => {
                // Peer closed its write half mid-frame; tell it (it may
                // still read) and drain out.
                shared.metrics.record_torn_frame();
                push_reply(
                    replies,
                    conn.reader.codec(),
                    &protocol_error(shared, "frame torn by EOF mid-line"),
                );
                conn.closing = true;
                break;
            }
            Err(FrameError::Io(_)) => {
                shared.metrics.record_conn_reset();
                keep = false;
                break;
            }
        }
    }
    flush_replies(shared, &conn.shared, replies);
    if conn.shared.dead.load(Ordering::Acquire) {
        return false;
    }
    if conn.closing {
        // Keep only while buffered replies remain (or a late worker
        // reply is still owed); they drain on subsequent sweeps.
        return conn.shared.writer.lock().has_pending()
            || conn.shared.inflight.load(Ordering::Acquire);
    }
    keep
}

/// What one dispatched line left behind.
enum LineOutcome {
    /// Answered inline (control frame, fast path, shed, or error).
    Answered,
    /// Queued to a worker; the poller must gate reads until it clears.
    Inflight {
        answered: Arc<AtomicBool>,
        id: Option<u64>,
    },
}

/// Handles one decoded request frame on the poller. Cache hits, control
/// frames and shed responses are answered inline; only cache misses
/// cross the queue to a worker. The reply goes out in `codec` — the
/// codec the request frame arrived in.
fn dispatch_event_line(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    codec: WireCodec,
    decoded: Result<Request, crate::proto::ProtoError>,
    replies: &mut Vec<u8>,
) -> LineOutcome {
    let request = match decoded {
        Ok(r) => r,
        Err(e) => {
            push_reply(replies, codec, &protocol_error(shared, &e.message));
            return LineOutcome::Answered;
        }
    };
    match request {
        Request::Ping => {
            shared.metrics.record_control();
            push_reply(replies, codec, &Response::Pong);
            LineOutcome::Answered
        }
        Request::Stats => {
            shared.metrics.record_control();
            push_reply(replies, codec, &Response::Stats(stats_json(shared)));
            LineOutcome::Answered
        }
        Request::Shutdown => {
            shared.metrics.record_control();
            push_reply(replies, codec, &Response::Pong);
            // The drain must not race the acknowledgement out of the
            // buffer: write it now.
            flush_replies(shared, conn, replies);
            trigger_shutdown(shared);
            LineOutcome::Answered
        }
        Request::Balance(req) => {
            let received = Instant::now();
            let id = req.id;
            if let Some(deadline_ms) = req.deadline_ms {
                if received.elapsed() > Duration::from_millis(deadline_ms) {
                    shared.metrics.record_error(ErrorCode::Timeout);
                    push_reply(
                        replies,
                        codec,
                        &Response::Error {
                            id,
                            code: ErrorCode::Timeout,
                            message: format!("deadline of {deadline_ms} ms expired"),
                        },
                    );
                    return LineOutcome::Answered;
                }
            }
            // Fast path: answer cache hits on the poller — no queue
            // round trip, no worker hand-off, no condvar. The router
            // picks the backend whose cache can hold this key.
            let key = CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta);
            let (vnode, backend_index, backend) = shared.backend_for(&key);
            if let Some(hit) = backend.cache.get(&key) {
                let latency = received.elapsed();
                shared.record_load(vnode, backend_index, 0);
                shared.metrics.record_fast_path();
                shared.metrics.record_ok(req.algorithm, true, latency);
                encode_hit(replies, codec, &req, &hit, latency);
                return LineOutcome::Answered;
            }
            // The worker writes its reply directly to the socket, so any
            // buffered inline replies must land first to keep the
            // connection's frames in request order.
            flush_replies(shared, conn, replies);
            let answered = Arc::new(AtomicBool::new(false));
            // Mark in-flight *before* pushing: the worker may finish and
            // clear the flag before try_push even returns.
            conn.inflight.store(true, Ordering::Release);
            let job = Job {
                req,
                received,
                codec,
                backend: backend_index,
                vnode,
                conn: Arc::clone(conn),
                answered: Arc::clone(&answered),
                _slot: shared.inflight_jobs.acquire(),
                _backend_slot: backend.inflight.acquire(),
            };
            match backend.queue.try_push(job) {
                Ok(()) => LineOutcome::Inflight { answered, id },
                Err((_, PushError::Full(cause))) => {
                    conn.inflight.store(false, Ordering::Release);
                    shared.metrics.record_error(ErrorCode::Overloaded);
                    push_reply(
                        replies,
                        codec,
                        &Response::Error {
                            id,
                            code: ErrorCode::Overloaded,
                            message: overload_message(shared, backend, cause),
                        },
                    );
                    LineOutcome::Answered
                }
                Err((_, PushError::Closed)) => {
                    conn.inflight.store(false, Ordering::Release);
                    shared.metrics.record_error(ErrorCode::ShuttingDown);
                    push_reply(
                        replies,
                        codec,
                        &Response::Error {
                            id,
                            code: ErrorCode::ShuttingDown,
                            message: "server is draining".into(),
                        },
                    );
                    LineOutcome::Answered
                }
            }
        }
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
        if let Some(stall) = shared.tuning.shim.before_execute(job.conn.conn_id) {
            thread::sleep(stall);
        }
        let conn = &job.conn;
        if conn.dead.load(Ordering::Acquire) {
            // The client died while the job sat in the queue: skip the
            // compute, but settle the gate so accounting stays exact
            // (dropping the job releases its slot token).
            if claim_reply(&job.answered) {
                conn.inflight.store(false, Ordering::Release);
                conn.wake();
            }
            shared.metrics.record_reply_dropped();
            continue;
        }
        let resp = execute(shared, &job);
        // Lose the race against a poller-side timeout and the reply (and
        // the in-flight token) is no longer ours.
        if claim_reply(&job.answered) {
            write_frame(shared, conn, job.codec, &resp);
            conn.inflight.store(false, Ordering::Release);
            // Wake the owning epoll poller: it dropped read interest
            // while the job was in flight, and a blocked `epoll_wait`
            // cannot see the atomic flip.
            conn.wake();
        } else {
            shared.metrics.record_reply_dropped();
        }
    }
}

/// Takes ownership of a job's reply; `false` if the other side (worker
/// or poller-side reply timeout) already has it.
fn claim_reply(answered: &AtomicBool) -> bool {
    answered
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
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
    let problem = req.problem.build();
    let known = req
        .problem
        .alpha_hint()
        .or_else(|| problem.analytic_alpha());
    let settle = |alpha: Option<f64>| alpha.unwrap_or(0.25).clamp(MIN_ALPHA, 0.5);
    // Without a known α, HF measures α̂ in its own run; the other
    // algorithms need α first and get it from a separate HF pass.
    let estimate =
        |p: &ServiceProblem| settle(known.or_else(|| gb_problems::empirical_alpha(p, req.n)));
    let (partition, alpha) = match req.algorithm {
        Algorithm::Hf => {
            let mut rec = AlphaRecorder::default();
            let partition = gb_core::hf::hf_rec(problem, req.n, &mut rec);
            (partition, settle(known.or(rec.alpha())))
        }
        Algorithm::Ba => {
            let alpha = estimate(&problem);
            (gb_parlb::par_ba(&shared.pool, problem, req.n), alpha)
        }
        Algorithm::BaHf => {
            let alpha = estimate(&problem);
            let partition = gb_parlb::par_ba_hf(&shared.pool, problem, req.n, alpha, req.theta);
            (partition, alpha)
        }
        Algorithm::Phf => {
            let alpha = estimate(&problem);
            (
                gb_parlb::par_phf(&shared.pool, problem, req.n, alpha),
                alpha,
            )
        }
    };
    let bound = match req.algorithm {
        Algorithm::Hf | Algorithm::Phf => gb_core::hf_upper_bound(alpha, req.n),
        Algorithm::Ba => gb_core::ba_upper_bound(alpha, req.n),
        Algorithm::BaHf => gb_core::bahf_upper_bound(alpha, req.theta, req.n),
    };
    let result = CachedResult::new(partition.sorted_weights(), partition.ratio(), bound, alpha);
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
    let mut json = shared.metrics.to_json();
    if let Json::Obj(entries) = &mut json {
        entries.push(("engine".into(), Json::Str(shared.engine().into())));
        // Cache rollup: the per-backend caches summed, so the section
        // reads exactly as it did with one backend.
        let per_cache: Vec<_> = shared.backends.iter().map(|b| b.cache.stats()).collect();
        let sum = |f: fn(&crate::cache::CacheStats) -> u64| per_cache.iter().map(f).sum::<u64>();
        let (hits, misses) = (sum(|c| c.hits), sum(|c| c.misses));
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        entries.push((
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Int(hits as i64)),
                ("misses".into(), Json::Int(misses as i64)),
                ("evictions".into(), Json::Int(sum(|c| c.evictions) as i64)),
                (
                    "admission_rejects".into(),
                    Json::Int(sum(|c| c.admission_rejects) as i64),
                ),
                (
                    "len".into(),
                    Json::Int(per_cache.iter().map(|c| c.len).sum::<usize>() as i64),
                ),
                (
                    "capacity".into(),
                    Json::Int(per_cache.iter().map(|c| c.capacity).sum::<usize>() as i64),
                ),
                ("hit_rate".into(), Json::Num(hit_rate)),
                (
                    "shards".into(),
                    Json::Int(shared.backends[0].cache.shard_count() as i64),
                ),
                (
                    "admission".into(),
                    Json::Bool(shared.backends[0].cache.admission_enabled()),
                ),
            ]),
        ));
        // Queue rollup: the aggregate budget is the server-wide shed
        // point, identical in meaning to the pre-sharding section.
        entries.push((
            "queue".into(),
            Json::Obj(vec![
                ("depth".into(), Json::Int(shared.queue_cap.depth() as i64)),
                (
                    "capacity".into(),
                    Json::Int(shared.queue_cap.capacity() as i64),
                ),
                (
                    "shards".into(),
                    Json::Int(
                        shared
                            .backends
                            .iter()
                            .map(|b| b.queue.workers())
                            .sum::<usize>() as i64,
                    ),
                ),
                (
                    "steals".into(),
                    Json::Int(
                        shared
                            .backends
                            .iter()
                            .map(|b| b.queue.steals())
                            .sum::<u64>() as i64,
                    ),
                ),
            ]),
        ));
        entries.push(("backends".into(), backends_json(shared, &per_cache)));
        entries.push(("rebal".into(), rebal_json(shared)));
        entries.push((
            "connections".into(),
            Json::Obj(vec![
                (
                    "open".into(),
                    Json::Int(shared.open_conns.occupied() as i64),
                ),
                (
                    "inflight".into(),
                    Json::Int(shared.inflight_jobs.occupied() as i64),
                ),
            ]),
        ));
        entries.push((
            "pool".into(),
            Json::Obj(vec![
                ("workers".into(), Json::Int(shared.pool.workers() as i64)),
                (
                    "injector_depth".into(),
                    Json::Int(shared.pool.injector_depth() as i64),
                ),
                ("queued".into(), Json::Int(shared.pool.queued() as i64)),
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

/// The self-balancing rollup: tick counters, the latest imbalance pair,
/// and the observed-α Theorem 2 bound the plan was held to. `enabled`
/// reflects whether a tick thread is actually running.
fn rebal_json(shared: &Shared) -> Json {
    let snap = shared.rebal.snapshot();
    let settings = shared.tuning.rebalance.as_ref();
    let enabled = settings.is_some() && shared.backends.len() > 1;
    Json::Obj(vec![
        ("enabled".into(), Json::Bool(enabled)),
        (
            "vnode_count".into(),
            Json::Int(shared.vnode_load.len() as i64),
        ),
        (
            "interval_ms".into(),
            Json::Int(settings.map_or(0, |s| s.interval.as_millis().min(i64::MAX as u128) as i64)),
        ),
        (
            "trigger".into(),
            Json::Num(settings.map_or(0.0, |s| s.trigger)),
        ),
        (
            "move_budget".into(),
            Json::Int(settings.map_or(0, |s| s.move_budget.min(i64::MAX as usize) as i64)),
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

/// The shard-aware rollup: per-backend gauges plus a `max/mean` load
/// imbalance ratio over `queue_depth + inflight` — the min-max metric a
/// balanced decomposition is judged by.
fn backends_json(shared: &Shared, per_cache: &[crate::cache::CacheStats]) -> Json {
    let loads: Vec<u64> = shared
        .backends
        .iter()
        .map(|b| (b.queue.depth() + b.inflight.occupied()) as u64)
        .collect();
    let max_load = loads.iter().copied().max().unwrap_or(0);
    let mean_load = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
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
                ("queue_depth".into(), Json::Int(b.queue.depth() as i64)),
                (
                    "queue_capacity".into(),
                    Json::Int(b.queue.capacity() as i64),
                ),
                ("inflight".into(), Json::Int(b.inflight.occupied() as i64)),
                ("workers".into(), Json::Int(b.workers as i64)),
                ("steals".into(), Json::Int(b.queue.steals() as i64)),
                ("cache_hits".into(), Json::Int(cache.hits as i64)),
                ("cache_misses".into(), Json::Int(cache.misses as i64)),
                ("cache_len".into(), Json::Int(cache.len as i64)),
                ("hit_rate".into(), Json::Num(cache.hit_rate())),
                (
                    "load_hits".into(),
                    Json::Int(b.load_hits.load(Ordering::Relaxed) as i64),
                ),
                (
                    "load_micros".into(),
                    Json::Int(b.load_micros.load(Ordering::Relaxed) as i64),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("count".into(), Json::Int(shared.backends.len() as i64)),
        ("vnodes".into(), Json::Int(shared.router.vnodes() as i64)),
        (
            "imbalance".into(),
            Json::Obj(vec![
                ("max".into(), Json::Int(max_load as i64)),
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
