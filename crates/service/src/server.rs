//! The partition-serving daemon.
//!
//! `gb-serve` is one [`Handler`] on the shared connection loop
//! ([`crate::io_loop`]) plus worker threads behind one steal queue.
//! Sharding across processes is `gb-router`'s job: one `gb-serve` is one
//! queue, one cache and one write-behind spill channel.
//!
//! ```text
//!  clients ──TCP──▶ io_loop: accept, I/O pollers (FrameReader)
//!                                           │ cache hit? ─▶ reply inline
//!                                           │   (fast path, no hand-off)
//!                                           ▼ miss: try_push (shed if full)
//!                                   StealQueue: one deque per worker
//!                                           │ pop own shard / steal
//!                                           ▼
//!                                    worker threads: solve the miss
//!                                           │   (HF / BA / BA-HF / PHF)
//!                                           ▼
//!                              ShardedCache (TinyLFU admission)
//!                                           │
//!                                           ▼ Reply::send to the poller's inbox
//! ```
//!
//! The loop owns accept, readiness (epoll on Linux, the sweep loop as
//! its fallback), framing, write buffering and the reply timeout;
//! `stats.engine` names the readiness backend the pollers run.
//!
//! * **Admission** — each cache miss is pushed to a bounded queue; when
//!   it is full the connection answers `overloaded` immediately
//!   ([`crate::shed`]). The steal queue sheds on its total depth.
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
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gb_store::{SpillHandle, Store, StoreConfig};

use crate::cache::{CacheKey, CachedResult, ReplyTail, ShardedCache};
use crate::fault::{IoShim, Passthrough};
use crate::io_loop::{Dispatch, Handler, IoLoop, LoopConfig, Reply};
use crate::metrics::{store_json, ServiceMetrics};
use crate::persist;
use crate::proto::{
    binary_hit_reply, binary_ok_tail, json_hit_reply, json_ok_tail, BalanceRequest,
    BalanceResponse, ErrorCode, Json, Request, Response, WireCodec,
};
use crate::shed::{PushError, StealQueue};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Balance worker threads (0 = half the available parallelism, ≥ 2).
    pub workers: usize,
    /// Bounded request-queue capacity (load shed beyond this; the steal
    /// queue enforces it on its total depth across per-worker shards).
    pub queue_capacity: usize,
    /// LRU result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 256,
            cache_capacity: 1024,
        }
    }
}

/// Hot-path tuning: the connection loop's settings, cache
/// sharding/admission and persistence.
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
    /// after fd exhaustion, and the ceiling on the sweep fallback's idle
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
    pub store: Option<StoreConfig>,
    /// Hard cap on simultaneously open connections (0 = unlimited).
    /// At the cap new accepts are shed with a best-effort `overloaded`
    /// reply and an `accept_shed` count, instead of running the process
    /// into its fd limit — where *every* accept fails and existing
    /// connections start losing `fcntl` calls too.
    pub max_conns: usize,
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
            max_conns: 0,
        }
    }
}

/// Cached results that may wait for the store's writer thread before
/// the spill path starts dropping them (`store.spill_dropped`).
const SPILL_QUEUE_DEPTH: usize = 1024;

struct Job {
    req: BalanceRequest,
    received: Instant,
    /// Codec of the request frame; the reply goes out in the same one.
    codec: WireCodec,
    /// The deferred reply the worker answers through.
    reply: Reply,
}

struct Shared {
    queue: StealQueue<Job>,
    cache: ShardedCache,
    metrics: ServiceMetrics,
    /// The connection loop: accept, pollers, write path, fault counters.
    io: Arc<IoLoop>,
    tuning: Tuning,
    /// Write-behind persistence. Dropped with the last `Shared` ref,
    /// which drains the spill queue to disk before the writer joins —
    /// graceful shutdown loses nothing.
    spill: Option<SpillHandle>,
}

/// A running daemon. Dropping the handle shuts the server down.
pub struct Server {
    shared: Arc<Shared>,
    pollers: Vec<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
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
        let cache_shards = if tuning.cache_shards == 0 {
            8
        } else {
            tuning.cache_shards
        };
        let cache = ShardedCache::new(config.cache_capacity, cache_shards, tuning.admission);
        // Warm restart: recovery replays each persisted record, as it is
        // read, through the cache (and admission sketch); then the store
        // goes to its writer thread.
        let spill = match &tuning.store {
            Some(settings) => {
                let mut undecodable = 0;
                let store = Store::open_with(settings.clone(), |key, value| {
                    match (persist::decode_key(key), persist::decode_value(value)) {
                        (Some(key), Some(value)) => cache.warm(key, value),
                        // Checksum-valid but undecodable: codec skew.
                        _ => undecodable += 1,
                    }
                })?;
                for _ in 0..undecodable {
                    store.note_corrupt();
                }
                Some(SpillHandle::spawn(store, SPILL_QUEUE_DEPTH))
            }
            None => None,
        };
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
        let shared = Arc::new(Shared {
            queue: StealQueue::new(workers, config.queue_capacity.max(1)),
            cache,
            metrics: ServiceMetrics::new(),
            io,
            tuning: tuning.clone(),
            spill,
        });

        let worker_handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gb-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn balance worker")
            })
            .collect();

        let pollers = pollers.spawn(Arc::clone(&shared), "gb-serve")?;

        Ok(Server {
            shared,
            pollers,
            workers: worker_handles,
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
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        trigger_shutdown(&self.shared);
        self.join_all();
    }
}

fn trigger_shutdown(shared: &Shared) {
    shared.queue.close();
    shared.io.trigger_shutdown();
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
                // The drain writes the acknowledgement before it closes
                // the connection.
                out.reply(&Response::Pong);
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
        // trip, no worker hand-off, no condvar.
        let key = CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta);
        if let Some(hit) = self.cache.get(&key) {
            let latency = received.elapsed();
            self.metrics.record_fast_path();
            self.metrics.record_ok(req.algorithm, true, latency);
            encode_hit(out.buf(), codec, &req, &hit, latency);
            return;
        }
        // The worker hands its encoded reply to this poller, which
        // writes it in the frame's turn; deferring queues any buffered
        // inline replies first, so the connection's frames stay in
        // request order.
        let job = Job {
            req,
            received,
            codec,
            reply: out.defer(id),
        };
        let (job, code, message) = match self.queue.try_push(job) {
            Ok(()) => return,
            Err((job, PushError::Full)) => (
                job,
                ErrorCode::Overloaded,
                format!("server queue full ({})", self.queue.capacity()),
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

/// Answers a worker gives between returning the heap's free memory to
/// the operating system. A miss's buffers run to megabytes (the problem,
/// HF's pieces, the reply) and each worker frees them into its own malloc
/// arena, which keeps them resident: under perfbench `miss-mixed` the
/// arenas held 13–18 MB free beside 6–9 MB in use. A trim took about
/// 0.3 ms there, some 4 µs per answer.
const TRIM_EVERY: u32 = 64;

fn worker_loop(shared: &Shared, index: usize) {
    let mut answered = 0u32;
    while let Some(job) = shared.queue.pop(index) {
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
        answered = (answered + 1) % TRIM_EVERY;
        if answered == 0 {
            gb_sys::trim_heap();
        }
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

    let key = CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta);
    // The poller already probed (and counted) this key as a miss. A
    // second look only dedupes concurrent misses for the same key — a
    // sibling job may have computed it since — so it must not count.
    if let Some(hit) = shared.cache.peek(&key) {
        let latency = job.received.elapsed();
        shared.metrics.record_ok(req.algorithm, true, latency);
        return ok_response(req, &hit, true, latency);
    }

    // `stats.load` counts compute time, not queue wait: an upstream's
    // time-in-queue is the imbalance a rebalancer exists to remove, so
    // weighing by it would double-count that imbalance.
    let compute_started = Instant::now();
    // Without a known α, the HF run that measures α̂ is also the tree the
    // algorithm walks: no second pass (`crate::solve`).
    let solved = crate::solve::solve(&req.problem, req.algorithm, req.n, req.theta);
    let bound_violated = solved.ratio > solved.bound;
    let (bisections, tree_reused) = (solved.bisections, solved.tree_reused);
    let result = CachedResult::new(solved.pieces, solved.ratio, solved.bound, solved.alpha);
    shared.cache.put(key, result.clone());
    if let Some(spill) = &shared.spill {
        // Write-behind: O(1) enqueue; a full queue drops the record
        // (counted) rather than stalling the worker.
        spill.spill(persist::encode_key(&key), persist::encode_value(&result));
    }
    shared.metrics.record_solve(
        bisections,
        tree_reused,
        bound_violated,
        compute_started.elapsed(),
    );
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
        let cache = shared.cache.stats();
        entries.push((
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), int(cache.hits)),
                ("misses".into(), int(cache.misses)),
                ("evictions".into(), int(cache.evictions)),
                ("admission_rejects".into(), int(cache.admission_rejects)),
                ("len".into(), int(cache.len as u64)),
                ("capacity".into(), int(cache.capacity as u64)),
                ("hit_rate".into(), Json::Num(cache.hit_rate())),
                ("shards".into(), int(shared.cache.shard_count() as u64)),
                (
                    "admission".into(),
                    Json::Bool(shared.cache.admission_enabled()),
                ),
            ]),
        ));
        let queue = &shared.queue;
        entries.push((
            "queue".into(),
            Json::Obj(vec![
                ("depth".into(), int(queue.depth() as u64)),
                ("capacity".into(), int(queue.capacity() as u64)),
                ("shards".into(), int(queue.workers() as u64)),
                ("steals".into(), int(queue.steals())),
            ]),
        ));
        entries.push(("connections".into(), shared.io.connections_json()));
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
    fn store_defaults_keep_their_sizes() {
        let config = StoreConfig::new("unused");
        assert_eq!(config.segment_bytes, 4 * 1024 * 1024);
        assert_eq!(config.budget_bytes, 256 * 1024 * 1024);
        assert_eq!(SPILL_QUEUE_DEPTH, 1024);
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
