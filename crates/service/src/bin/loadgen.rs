//! `loadgen` — drive a gb-service server with concurrent clients.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--clients K] [--requests R] [--n N]
//!         [--distinct D] [--algorithms hf,ba,bahf,phf] [--theta X]
//!         [--deadline-ms MS] [--read-timeout-ms MS] [--write-timeout-ms MS]
//! loadgen --bench [--duration-ms MS] [--out FILE] [--store-dir PATH]
//! loadgen --chaos [--duration-ms MS] [--seed S] [--shutdown] [--store-dir PATH]
//! loadgen --warm-load --addr HOST:PORT [--distinct D]
//! loadgen --warm-replay --addr HOST:PORT [--distinct D] [--min-warm-rate X]
//!         [--metrics-out FILE] [--shutdown]
//! loadgen --warm-bench [--distinct D] [--out FILE]
//! loadgen --shard-bench [--duration-ms MS] [--out FILE]
//! loadgen --router-bench [--duration-ms MS] [--out FILE]
//! loadgen --soak [--conns N] [--active K] [--duration-ms MS] [--out FILE]
//! ```
//!
//! Without `--addr` an in-process server is spawned on an ephemeral port
//! (and shut down gracefully at the end), so
//! `cargo run -p gb-service --release --bin loadgen` is self-contained.
//!
//! `R` requests are spread over `K` connections. Problem seeds cycle
//! through `D` distinct values, so with `R > D·|algorithms|` the run
//! revisits earlier requests and exercises the server's result cache.
//! Prints throughput, the client-observed latency distribution
//! (p50/p95/p99) and the server's own `stats` snapshot.
//!
//! `--bench` runs the fixed serving benchmark instead: the hot-cache
//! workload (8 workers, 64 connections) against the server as it ships,
//! compared with the committed thread-per-connection baseline
//! (39 545 req/s, `results/BENCH_serving.json`), plus scan-resistance
//! hit-rate probes at `--distinct` 16 and 4096 with TinyLFU admission on
//! and off. Results are written as pretty-printed JSON (default
//! `BENCH_serving.json`). A full run fails unless throughput is at least
//! 2x the baseline; `--duration-ms` caps the throughput phase's wall
//! time for smoke runs, which report the ratio without gating it. The
//! hit-rate phases are fixed-size.
//!
//! `--chaos` runs hostile clients instead: for `--duration-ms` (default
//! 5 s) each of `--clients` threads randomly drops connections mid-frame,
//! abandons requests without reading the reply, interleaves garbage and
//! oversized frames with valid traffic, and pipelines normally — all from
//! a deterministic `--seed`. Afterwards it asserts the "never wedges"
//! invariants: queue depth and in-flight count drain to zero and a fresh
//! client still gets a correct `Balance` answer. `--shutdown` then stops
//! the server via a `shutdown` frame (used by the CI chaos-smoke step).
//!
//! `--store-dir` gives any in-process server (the default mode, `--chaos`
//! and `--bench`) a crash-safe `gb-store` result store, so those runs
//! also exercise the spill/recovery path. Directories the run creates
//! are removed on exit; a pre-existing directory is left alone. Bench
//! phases use fresh per-phase subdirectories so no phase warm-starts
//! from another's records.
//!
//! The warm trio drives the crash-recovery story end to end:
//! `--warm-load` primes an external server's hot set and waits until
//! every record is durably appended to its store (safe to SIGKILL);
//! `--warm-replay` replays the same hot set against a restarted server
//! and fails unless the warm hit rate reaches `--min-warm-rate`
//! (default 0.9) with `store.recovered > 0`, optionally writing the
//! stats-endpoint store section to `--metrics-out`; `--warm-bench` runs
//! the committed warm-vs-cold restart experiment in-process and writes
//! `BENCH_store.json`. When the server runs with `--store-sync data|full`
//! (reported in its stats), `--warm-load` additionally waits until the
//! store has *fsynced* every record, so SUCCESS means the set survives
//! power loss, not just a process kill.
//!
//! `--backends N` / `--backend-vnodes V` shard any in-process server the
//! run spawns (the default mode and `--chaos`), and `--store-sync`
//! selects its durability mode when `--store-dir` is also set.
//!
//! `--router-bench` runs the committed cross-process router-tier
//! experiment and writes `results/BENCH_router.json`. It spawns real
//! `gb-serve` and `gb-router` child processes (found as siblings of this
//! binary, built on demand) and measures four things: direct
//! single-process throughput, the same workload proxied through the
//! router (the run fails unless proxied stays within 2x of direct),
//! the client-visible error count when one upstream is SIGKILLed under a
//! pinned flood (plus the vnode re-home window), and tail latency
//! against a deliberately stalled upstream with hedged retries off vs on
//! (the run fails unless hedging lowers p99). `--duration-ms` shrinks
//! every phase for smoke runs.
//!
//! In the default (plain) mode, `--metrics-out FILE` snapshots the
//! server's stats endpoint to FILE after the run and `--shutdown` then
//! stops the server via a `shutdown` frame — together they let CI drive
//! an external server end to end and keep the evidence.
//!
//! `--soak` runs the committed connection-scaling experiment and writes
//! `results/BENCH_soak.json`: `--conns` mostly-idle connections (default
//! 10000) with an `--active` minority (default 1%) sending paced
//! cache-hit requests, held for `--duration-ms` against a real
//! `gb-serve` child. Poller CPU comes from the child's
//! `/proc/<pid>/task/*/stat` deltas over the window. The baseline is a
//! committed sweep-loop measurement of the same shape — 10k conns from
//! `results/BENCH_soak.json`, or the 2k-conn / 5 s CI smoke shape — and
//! other shapes are refused. The run fails unless the epoll poller's
//! CPU share is at most 0.2x the baseline's and the active p99 stays
//! within 1.2x of it.
//!
//! `--shard-bench` runs the committed hot-class isolation experiment and
//! writes `BENCH_sharding.json`: a hot problem class floods the one
//! backend that owns it while a victim class (keys owned by the *other*
//! backends) is probed for latency. Three phases: victims alone
//! (isolated baseline), victims + flood on a 4-backend server (sharded),
//! and victims + flood on a 1-backend server (the unsharded control,
//! where the flood shares the victims' queue and cache). The run fails
//! unless the sharded victim p99 stays within 2x the isolated baseline.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gb_service::cache::CacheKey;
use gb_service::client::Client;
use gb_service::persist::StoreSettings;
use gb_service::proto::{
    Algorithm, BalanceRequest, Codec, ErrorCode, Json, Request, Response, WireCodec, BIN_HDR,
    MAGIC, MAX_FRAME,
};
use gb_service::route::Router;
use gb_service::server::{Server, ServerConfig, Tuning};
use gb_service::spec::ProblemSpec;

struct Options {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    n: usize,
    distinct: usize,
    algorithms: Vec<Algorithm>,
    theta: f64,
    deadline_ms: Option<u64>,
    bench: bool,
    codec_bench: bool,
    codec: WireCodec,
    chaos: bool,
    seed: u64,
    send_shutdown: bool,
    read_timeout_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    duration_ms: Option<u64>,
    out: String,
    store_dir: Option<String>,
    warm_load: bool,
    warm_replay: bool,
    warm_bench: bool,
    shard_bench: bool,
    skew_bench: bool,
    router_bench: bool,
    soak: bool,
    conns: usize,
    active: usize,
    min_warm_rate: f64,
    metrics_out: Option<String>,
    backends: usize,
    backend_vnodes: usize,
    store_sync: Option<gb_store::SyncMode>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: None,
            clients: 8,
            requests: 1000,
            n: 64,
            distinct: 64,
            algorithms: Algorithm::ALL.to_vec(),
            theta: 1.0,
            deadline_ms: None,
            bench: false,
            codec_bench: false,
            codec: WireCodec::Json,
            chaos: false,
            seed: 1,
            send_shutdown: false,
            read_timeout_ms: None,
            write_timeout_ms: None,
            duration_ms: None,
            out: "BENCH_serving.json".into(),
            store_dir: None,
            warm_load: false,
            warm_replay: false,
            warm_bench: false,
            shard_bench: false,
            skew_bench: false,
            router_bench: false,
            soak: false,
            conns: 10_000,
            active: 0,
            min_warm_rate: 0.9,
            metrics_out: None,
            backends: 0,
            backend_vnodes: 0,
            store_sync: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--clients K] [--requests R] [--n N] \
         [--distinct D] [--algorithms hf,ba,bahf,phf] [--theta X] [--deadline-ms MS] \
         [--read-timeout-ms MS] [--write-timeout-ms MS] \
         [--backends N] [--backend-vnodes V] [--store-sync none|data|full] \
         [--codec json|binary]\n\
         \x20      loadgen --bench [--duration-ms MS] [--out FILE] [--store-dir PATH]\n\
         \x20      loadgen --codec-bench [--duration-ms MS] [--out FILE]\n\
         \x20      loadgen --chaos [--duration-ms MS] [--seed S] [--shutdown] [--store-dir PATH] \
         [--backends N] [--metrics-out FILE]\n\
         \x20      loadgen --warm-load --addr HOST:PORT [--distinct D]\n\
         \x20      loadgen --warm-replay --addr HOST:PORT [--distinct D] [--min-warm-rate X] \
         [--metrics-out FILE] [--shutdown]\n\
         \x20      loadgen --warm-bench [--distinct D] [--out FILE]\n\
         \x20      loadgen --shard-bench [--duration-ms MS] [--out FILE]\n\
         \x20      loadgen --skew-bench [--duration-ms MS] [--out FILE]\n\
         \x20      loadgen --router-bench [--duration-ms MS] [--out FILE]\n\
         \x20      loadgen --soak [--conns N] [--active K] [--duration-ms MS] [--out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => opts.addr = Some(value("--addr")),
            "--clients" => opts.clients = parse_usize(&value("--clients"), "--clients").max(1),
            "--requests" => opts.requests = parse_usize(&value("--requests"), "--requests"),
            "--n" => opts.n = parse_usize(&value("--n"), "--n").max(1),
            "--distinct" => opts.distinct = parse_usize(&value("--distinct"), "--distinct").max(1),
            "--theta" => {
                opts.theta = value("--theta").parse().unwrap_or_else(|_| {
                    eprintln!("--theta expects a number");
                    usage()
                })
            }
            "--deadline-ms" => {
                opts.deadline_ms =
                    Some(parse_usize(&value("--deadline-ms"), "--deadline-ms") as u64)
            }
            "--algorithms" => {
                let list = value("--algorithms");
                opts.algorithms = list
                    .split(',')
                    .map(|s| {
                        Algorithm::from_name(s.trim()).unwrap_or_else(|| {
                            eprintln!("unknown algorithm {s:?}");
                            usage()
                        })
                    })
                    .collect();
                if opts.algorithms.is_empty() {
                    usage();
                }
            }
            "--bench" => opts.bench = true,
            "--codec-bench" => opts.codec_bench = true,
            "--codec" => {
                opts.codec = match value("--codec").as_str() {
                    "json" => WireCodec::Json,
                    "binary" => WireCodec::Binary,
                    other => {
                        eprintln!("--codec expects json|binary, got {other:?}");
                        usage()
                    }
                }
            }
            "--chaos" => opts.chaos = true,
            "--seed" => opts.seed = parse_usize(&value("--seed"), "--seed") as u64,
            "--shutdown" => opts.send_shutdown = true,
            "--read-timeout-ms" => {
                opts.read_timeout_ms =
                    Some(parse_usize(&value("--read-timeout-ms"), "--read-timeout-ms") as u64)
            }
            "--write-timeout-ms" => {
                opts.write_timeout_ms =
                    Some(parse_usize(&value("--write-timeout-ms"), "--write-timeout-ms") as u64)
            }
            "--duration-ms" => {
                opts.duration_ms =
                    Some(parse_usize(&value("--duration-ms"), "--duration-ms") as u64)
            }
            "--out" => opts.out = value("--out"),
            "--store-dir" => opts.store_dir = Some(value("--store-dir")),
            "--warm-load" => opts.warm_load = true,
            "--warm-replay" => opts.warm_replay = true,
            "--warm-bench" => opts.warm_bench = true,
            "--shard-bench" => opts.shard_bench = true,
            "--skew-bench" => opts.skew_bench = true,
            "--router-bench" => opts.router_bench = true,
            "--soak" => opts.soak = true,
            "--conns" => opts.conns = parse_usize(&value("--conns"), "--conns").max(1),
            "--active" => opts.active = parse_usize(&value("--active"), "--active"),
            "--backends" => opts.backends = parse_usize(&value("--backends"), "--backends"),
            "--backend-vnodes" => {
                opts.backend_vnodes = parse_usize(&value("--backend-vnodes"), "--backend-vnodes")
            }
            "--store-sync" => {
                let text = value("--store-sync");
                opts.store_sync = Some(gb_store::SyncMode::parse(&text).unwrap_or_else(|| {
                    eprintln!("--store-sync expects none|data|full, got {text:?}");
                    usage()
                }))
            }
            "--min-warm-rate" => {
                opts.min_warm_rate = value("--min-warm-rate").parse().unwrap_or_else(|_| {
                    eprintln!("--min-warm-rate expects a number in [0, 1]");
                    usage()
                })
            }
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    opts
}

fn parse_usize(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects an integer, got {text:?}");
        usage()
    })
}

#[derive(Default)]
struct ClientTally {
    ok: u64,
    cached: u64,
    errors: Vec<(ErrorCode, u64)>,
    latencies_us: Vec<u64>,
}

impl ClientTally {
    fn record_error(&mut self, code: ErrorCode) {
        for (c, n) in &mut self.errors {
            if *c == code {
                *n += 1;
                return;
            }
        }
        self.errors.push((code, 1));
    }
}

fn request_for(opts: &Options, index: usize) -> Request {
    let algorithm = opts.algorithms[index % opts.algorithms.len()];
    let seed = (index / opts.algorithms.len()) % opts.distinct;
    Request::Balance(BalanceRequest {
        id: Some(index as u64),
        algorithm,
        n: opts.n,
        theta: opts.theta,
        deadline_ms: opts.deadline_ms,
        // Piece weights are large; loadgen only needs ratio/bound.
        want_pieces: false,
        problem: ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.2,
            hi: 0.5,
            seed: seed as u64,
        },
    })
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).max(1) - 1;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

// ---------------------------------------------------------------------------
// Store-directory plumbing shared by the modes that honor --store-dir
// ---------------------------------------------------------------------------

/// A store directory claimed for this run. Removed on drop only when the
/// run created it — a pre-existing directory the user pointed at is
/// theirs to keep.
struct StoreDir {
    path: PathBuf,
    owned: bool,
}

impl StoreDir {
    /// Claims `path`, noting whether it already existed.
    fn claim(path: &str) -> StoreDir {
        let path = PathBuf::from(path);
        let owned = !path.exists();
        StoreDir { path, owned }
    }

    /// A fresh run-scoped directory under the system temp dir.
    fn temp(tag: &str) -> StoreDir {
        let path =
            std::env::temp_dir().join(format!("gb-loadgen-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        StoreDir { path, owned: true }
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

static PHASE_DIR: AtomicUsize = AtomicUsize::new(0);

/// A bench phase's private store subdirectory: always fresh (so no phase
/// warm-starts from another phase's records) and removed on drop.
struct PhaseStore(Option<PathBuf>);

impl PhaseStore {
    fn new(root: Option<&Path>, tag: &str) -> PhaseStore {
        PhaseStore(root.map(|root| {
            let n = PHASE_DIR.fetch_add(1, Ordering::Relaxed);
            let path = root.join(format!("{tag}-{n}"));
            let _ = std::fs::remove_dir_all(&path);
            path
        }))
    }

    /// Attaches this phase's store (if any) to `tuning`.
    fn apply(&self, mut tuning: Tuning) -> Tuning {
        if let Some(path) = &self.0 {
            tuning.store = Some(StoreSettings::new(path));
        }
        tuning
    }
}

impl Drop for PhaseStore {
    fn drop(&mut self) {
        if let Some(path) = &self.0 {
            let _ = std::fs::remove_dir_all(path);
        }
    }
}

/// Fetches the server's full stats object.
fn fetch_stats(addr: std::net::SocketAddr) -> Option<Json> {
    match Client::connect(addr).and_then(|mut c| c.call(&Request::Stats)) {
        Ok(Response::Stats(stats)) => Some(stats),
        _ => None,
    }
}

/// Reads `store.<name>` out of a stats object.
fn store_counter(stats: &Json, name: &str) -> Option<u64> {
    stats.get("store")?.get(name)?.as_u64()
}

/// Polls the server until `store.<name> >= want` or the timeout passes.
/// Returns the last observed value (`None` when the server reports no
/// store section at all).
fn await_store_counter(
    addr: std::net::SocketAddr,
    name: &str,
    want: u64,
    timeout: Duration,
) -> Option<u64> {
    let deadline = Instant::now() + timeout;
    let mut last = None;
    loop {
        if let Some(stats) = fetch_stats(addr) {
            last = store_counter(&stats, name);
            if last.is_some_and(|v| v >= want) {
                return last;
            }
        }
        if Instant::now() >= deadline {
            return last;
        }
        thread::sleep(Duration::from_millis(50));
    }
}

// ---------------------------------------------------------------------------
// --bench: the before/after serving benchmark behind BENCH_serving.json
// ---------------------------------------------------------------------------

/// Server shape shared by both throughput phases (the issue's "8 workers,
/// 64 connections" configuration).
const BENCH_WORKERS: usize = 8;
const BENCH_CLIENTS: usize = 64;
const BENCH_QUEUE_CAP: usize = 256;
const BENCH_CACHE_CAP: usize = 1024;
const BENCH_POOL_THREADS: usize = 2;
const BENCH_N: usize = 16;
const BENCH_DISTINCT: u64 = 16;
/// Total requests per throughput phase when no `--duration-ms` cap is set.
const BENCH_REQUESTS: usize = 24_000;
/// Requests kept in flight per connection. The protocol is
/// newline-delimited with request ids, so clients may pipeline; a burst
/// of 16 is what a batching client library would send and it exercises
/// the server's multi-line sweep reads.
const BENCH_PIPELINE: usize = 16;
/// The hit-rate phases squeeze traffic through a small cache so the scan
/// actually evicts: 64 slots against a 2 000-key cold scan.
const HITRATE_CACHE_CAP: usize = 64;
const HITRATE_SCAN_KEYS: u64 = 2_000;

fn bench_request(id: u64, seed: u64) -> Request {
    Request::Balance(BalanceRequest {
        id: Some(id),
        algorithm: Algorithm::Hf,
        n: BENCH_N,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        problem: ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.2,
            hi: 0.5,
            seed,
        },
    })
}

/// Throughput rounds per engine; the best round is reported. A single
/// shared core makes individual rounds noisy (scheduler interference),
/// so best-of-N is the stable point estimate. Capped runs do one round.
const BENCH_ROUNDS: usize = 3;

struct PhaseStats {
    engine: &'static str,
    answered: u64,
    ok: u64,
    cached: u64,
    errors: u64,
    elapsed_s: f64,
    rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
    server_hit_rate: f64,
    rounds_rps: Vec<f64>,
}

impl PhaseStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("engine".into(), Json::Str(self.engine.into())),
            ("requests".into(), Json::Int(self.answered as i64)),
            ("ok".into(), Json::Int(self.ok as i64)),
            ("cached".into(), Json::Int(self.cached as i64)),
            ("errors".into(), Json::Int(self.errors as i64)),
            ("elapsed_s".into(), Json::Num(self.elapsed_s)),
            ("throughput_rps".into(), Json::Num(self.rps)),
            ("p50_us".into(), Json::Int(self.p50_us as i64)),
            ("p95_us".into(), Json::Int(self.p95_us as i64)),
            ("p99_us".into(), Json::Int(self.p99_us as i64)),
            ("max_us".into(), Json::Int(self.max_us as i64)),
            ("cache_hit_rate".into(), Json::Num(self.server_hit_rate)),
            (
                "rounds_rps".into(),
                Json::Arr(self.rounds_rps.iter().map(|&r| Json::Num(r)).collect()),
            ),
        ])
    }
}

fn server_hit_rate(addr: std::net::SocketAddr) -> f64 {
    Client::connect(addr)
        .and_then(|mut c| c.call(&Request::Stats))
        .ok()
        .and_then(|r| match r {
            Response::Stats(stats) => stats
                .get("cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(|v| v.as_f64()),
            _ => None,
        })
        .unwrap_or(0.0)
}

/// One throughput phase: a warmed 16-key hot set served to 64 pipelined
/// connections in one wire codec, on a server with default tuning
/// (sharded cache, TinyLFU, inline fast path).
fn throughput_phase(
    codec: WireCodec,
    cap: Option<Duration>,
    store_root: Option<&Path>,
) -> Result<PhaseStats, String> {
    let store = PhaseStore::new(store_root, codec_name(codec));
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: BENCH_WORKERS,
            queue_capacity: BENCH_QUEUE_CAP,
            cache_capacity: BENCH_CACHE_CAP,
            pool_threads: BENCH_POOL_THREADS,
        },
        store.apply(Tuning::default()),
    )
    .map_err(|e| format!("bench server: {e}"))?;
    let addr = server.local_addr();

    // Warm every distinct key once in the measured codec, so the phase
    // starts with the encoded-reply tails already built.
    {
        let mut client = Client::connect(addr).map_err(|e| format!("warm connect: {e}"))?;
        client.set_codec(codec);
        for seed in 0..BENCH_DISTINCT {
            client
                .call(&bench_request(seed, seed))
                .map_err(|e| format!("warm call: {e}"))?;
        }
    }

    let counter = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let deadline = cap.map(|d| started + d);
    let mut handles = Vec::new();
    for client_index in 0..BENCH_CLIENTS {
        let counter = Arc::clone(&counter);
        handles.push(thread::spawn(move || -> Result<ClientTally, String> {
            let stream = TcpStream::connect(addr)
                .map_err(|e| format!("bench client {client_index}: connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("bench client {client_index}: nodelay: {e}"))?;
            let mut writer = stream
                .try_clone()
                .map_err(|e| format!("bench client {client_index}: clone: {e}"))?;
            let mut reader = BufReader::new(stream);
            let mut tally = ClientTally::default();
            let mut out: Vec<u8> = Vec::new();
            let mut line = String::new();
            let mut payload: Vec<u8> = Vec::new();
            loop {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        break;
                    }
                }
                let start = counter.fetch_add(BENCH_PIPELINE, Ordering::Relaxed);
                if start >= BENCH_REQUESTS {
                    break;
                }
                let burst = BENCH_PIPELINE.min(BENCH_REQUESTS - start);
                out.clear();
                for j in 0..burst {
                    let index = (start + j) as u64;
                    let request = bench_request(index, index % BENCH_DISTINCT);
                    match codec {
                        WireCodec::Json => {
                            out.extend_from_slice(request.encode().as_bytes());
                            out.push(b'\n');
                        }
                        WireCodec::Binary => WireCodec::Binary.encode_request(&request, &mut out),
                    }
                }
                let sent = Instant::now();
                writer
                    .write_all(&out)
                    .map_err(|e| format!("bench client {client_index}: write: {e}"))?;
                for _ in 0..burst {
                    match codec {
                        WireCodec::Json => {
                            line.clear();
                            let k = reader
                                .read_line(&mut line)
                                .map_err(|e| format!("bench client {client_index}: read: {e}"))?;
                            if k == 0 {
                                return Err(format!("bench client {client_index}: server closed"));
                            }
                            if line.contains("\"status\":\"ok\"") {
                                tally.ok += 1;
                                if line.contains("\"cached\":true") {
                                    tally.cached += 1;
                                }
                            } else {
                                match Response::decode(line.trim_end()).map_err(|e| {
                                    format!("bench client {client_index}: decode: {e:?}")
                                })? {
                                    Response::Error { code, .. } => tally.record_error(code),
                                    other => {
                                        return Err(format!(
                                            "bench client {client_index}: unexpected {other:?}"
                                        ))
                                    }
                                }
                            }
                        }
                        WireCodec::Binary => {
                            let mut header = [0u8; BIN_HDR];
                            reader.read_exact(&mut header).map_err(|e| {
                                format!("bench client {client_index}: read header: {e}")
                            })?;
                            if header[0] != MAGIC {
                                return Err(format!(
                                    "bench client {client_index}: bad magic {:#04x}",
                                    header[0]
                                ));
                            }
                            let len = u32::from_le_bytes(header[1..].try_into().unwrap()) as usize;
                            if len > MAX_FRAME {
                                return Err(format!(
                                    "bench client {client_index}: oversized reply ({len})"
                                ));
                            }
                            payload.resize(len, 0);
                            reader.read_exact(&mut payload).map_err(|e| {
                                format!("bench client {client_index}: read payload: {e}")
                            })?;
                            match WireCodec::Binary.decode_response(&payload).map_err(|e| {
                                format!("bench client {client_index}: decode: {e:?}")
                            })? {
                                Response::Ok(ok) => {
                                    tally.ok += 1;
                                    if ok.cached {
                                        tally.cached += 1;
                                    }
                                }
                                Response::Error { code, .. } => tally.record_error(code),
                                other => {
                                    return Err(format!(
                                        "bench client {client_index}: unexpected {other:?}"
                                    ))
                                }
                            }
                        }
                    }
                    let us = sent.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    tally.latencies_us.push(us);
                }
            }
            Ok(tally)
        }));
    }

    let mut ok = 0u64;
    let mut cached = 0u64;
    let mut errors = 0u64;
    let mut latencies = Vec::new();
    for handle in handles {
        let tally = handle.join().expect("bench client panicked")?;
        ok += tally.ok;
        cached += tally.cached;
        errors += tally.errors.iter().map(|(_, n)| n).sum::<u64>();
        latencies.extend(tally.latencies_us);
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    let answered = latencies.len() as u64;
    let hit_rate = server_hit_rate(addr);
    let engine = server.engine();
    server.shutdown();

    let rps = answered as f64 / elapsed.as_secs_f64().max(1e-9);
    Ok(PhaseStats {
        engine,
        answered,
        ok,
        cached,
        errors,
        elapsed_s: elapsed.as_secs_f64(),
        rps,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        server_hit_rate: hit_rate,
        rounds_rps: vec![rps],
    })
}

/// Best-of-N throughput rounds in one codec (one round when capped).
fn throughput_best(
    codec: WireCodec,
    cap: Option<Duration>,
    store_root: Option<&Path>,
) -> Result<PhaseStats, String> {
    let rounds = if cap.is_some() { 1 } else { BENCH_ROUNDS };
    let mut best: Option<PhaseStats> = None;
    let mut rounds_rps = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let round = throughput_phase(codec, cap, store_root)?;
        rounds_rps.push(round.rps);
        if best.as_ref().is_none_or(|b| round.rps > b.rps) {
            best = Some(round);
        }
    }
    let mut best = best.expect("at least one round");
    best.rounds_rps = rounds_rps;
    Ok(best)
}

/// One hit-rate phase: warm a working set of `distinct` keys, wreck the
/// cache with a one-pass cold scan, then probe the working set again and
/// report the probe hit rate. With TinyLFU admission the hot set should
/// survive the scan; with plain LRU it is flushed.
fn hitrate_phase(
    distinct: u64,
    admission: bool,
    store_root: Option<&Path>,
) -> Result<Json, String> {
    let store = PhaseStore::new(store_root, "hitrate");
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: BENCH_QUEUE_CAP,
            cache_capacity: HITRATE_CACHE_CAP,
            pool_threads: 1,
        },
        store.apply(Tuning {
            admission,
            ..Tuning::default()
        }),
    )
    .map_err(|e| format!("hitrate server: {e}"))?;
    let addr = server.local_addr();
    let mut client = Client::connect(addr).map_err(|e| format!("hitrate connect: {e}"))?;

    let mut next_id = 0u64;
    let mut call = |client: &mut Client, seed: u64| -> Result<bool, String> {
        next_id += 1;
        match client
            .call(&bench_request(next_id, seed))
            .map_err(|e| format!("hitrate call: {e}"))?
        {
            Response::Ok(ok) => Ok(ok.cached),
            other => Err(format!("hitrate: unexpected {other:?}")),
        }
    };

    // More warm passes when the working set fits the cache (reuse is what
    // earns admission); a set larger than the cache gets a single pass.
    let warm_passes = if distinct <= HITRATE_CACHE_CAP as u64 {
        4
    } else {
        1
    };
    let probe_passes = if distinct <= HITRATE_CACHE_CAP as u64 {
        2
    } else {
        1
    };
    for _ in 0..warm_passes {
        for k in 0..distinct {
            call(&mut client, k)?;
        }
    }
    for c in 0..HITRATE_SCAN_KEYS {
        call(&mut client, 1_000_000 + c)?;
    }
    let mut probes = 0u64;
    let mut probe_hits = 0u64;
    for _ in 0..probe_passes {
        for k in 0..distinct {
            probes += 1;
            if call(&mut client, k)? {
                probe_hits += 1;
            }
        }
    }
    let overall = server_hit_rate(addr);
    server.shutdown();

    Ok(Json::Obj(vec![
        ("distinct".into(), Json::Int(distinct as i64)),
        ("admission".into(), Json::Bool(admission)),
        ("warm_passes".into(), Json::Int(warm_passes as i64)),
        ("scan_keys".into(), Json::Int(HITRATE_SCAN_KEYS as i64)),
        ("probes".into(), Json::Int(probes as i64)),
        ("probe_hits".into(), Json::Int(probe_hits as i64)),
        (
            "probe_hit_rate".into(),
            Json::Num(probe_hits as f64 / probes.max(1) as f64),
        ),
        ("overall_hit_rate".into(), Json::Num(overall)),
    ]))
}

fn run_bench(opts: &Options) -> ExitCode {
    let cap = opts.duration_ms.map(Duration::from_millis);
    // Honor --store-dir: phases run with per-phase store subdirectories
    // so the spill path is exercised under load; the guard removes a
    // directory this run created.
    let store_guard = opts.store_dir.as_deref().map(StoreDir::claim);
    let store_root = store_guard.as_ref().map(|g| g.path.as_path());
    match bench_report(cap, opts.duration_ms, store_root) {
        Ok((report, pass)) => {
            let out = &opts.out;
            let text = report.encode_pretty() + "\n";
            if let Err(e) = std::fs::write(out, text) {
                eprintln!("bench: failed to write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("bench: wrote {out}");
            if !pass {
                eprintln!("bench: gate failed (see assertion section of {out})");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The committed baseline of the since-removed thread-per-connection
/// engine on the same workload (`results/BENCH_serving.json`,
/// `throughput.before`). Full `--bench` runs gate the hot-hit
/// throughput at [`BENCH_MIN_SPEEDUP`]x its req/s; capped smoke runs
/// only report the ratio.
fn threaded_baseline() -> PhaseStats {
    PhaseStats {
        engine: "threaded",
        answered: 24_000,
        ok: 24_000,
        cached: 24_000,
        errors: 0,
        elapsed_s: 0.606_903_757,
        rps: 39_544.985,
        p50_us: 13_240,
        p95_us: 27_969,
        p99_us: 38_364,
        max_us: 67_622,
        server_hit_rate: 0.999_333_777_481_678_8,
        rounds_rps: vec![35_356.676, 36_038.243, 39_544.985],
    }
}
const BENCH_MIN_SPEEDUP: f64 = 2.0;

fn bench_report(
    cap: Option<Duration>,
    duration_ms: Option<u64>,
    store_root: Option<&Path>,
) -> Result<(Json, bool), String> {
    println!(
        "bench: throughput, hot {}-key working set, {} clients x {} workers",
        BENCH_DISTINCT, BENCH_CLIENTS, BENCH_WORKERS
    );
    let before = threaded_baseline();
    println!(
        "  threaded: {:>8.0} req/s  p50 {} us  p95 {} us  p99 {} us  (committed baseline)",
        before.rps, before.p50_us, before.p95_us, before.p99_us
    );
    let after = throughput_best(WireCodec::Json, cap, store_root)?;
    println!(
        "  {:<9} {:>8.0} req/s  p50 {} us  p95 {} us  p99 {} us  ({} requests)",
        format!("{}:", after.engine),
        after.rps,
        after.p50_us,
        after.p95_us,
        after.p99_us,
        after.answered
    );
    let speedup = after.rps / before.rps;
    println!("  speedup:  {speedup:.2}x (gate {BENCH_MIN_SPEEDUP}x on full runs)");
    let smoke = cap.is_some();
    let pass = smoke || speedup >= BENCH_MIN_SPEEDUP;

    let mut cache_results = Vec::new();
    for &distinct in &[16u64, 4096] {
        for &admission in &[true, false] {
            let result = hitrate_phase(distinct, admission, store_root)?;
            let rate = result
                .get("probe_hit_rate")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            println!(
                "bench: hit rate, distinct {distinct}, admission {}: {:.1}% after cold scan",
                if admission { "on" } else { "off" },
                rate * 100.0
            );
            cache_results.push(result);
        }
    }

    let report = Json::Obj(vec![
        (
            "schema".into(),
            Json::Str("gb-service/bench-serving/v1".into()),
        ),
        (
            "config".into(),
            Json::Obj(vec![
                ("workers".into(), Json::Int(BENCH_WORKERS as i64)),
                ("clients".into(), Json::Int(BENCH_CLIENTS as i64)),
                ("queue_capacity".into(), Json::Int(BENCH_QUEUE_CAP as i64)),
                ("cache_capacity".into(), Json::Int(BENCH_CACHE_CAP as i64)),
                ("pool_threads".into(), Json::Int(BENCH_POOL_THREADS as i64)),
                ("n".into(), Json::Int(BENCH_N as i64)),
                ("distinct".into(), Json::Int(BENCH_DISTINCT as i64)),
                ("requests".into(), Json::Int(BENCH_REQUESTS as i64)),
                ("pipeline".into(), Json::Int(BENCH_PIPELINE as i64)),
                (
                    "duration_ms".into(),
                    match duration_ms {
                        Some(ms) => Json::Int(ms as i64),
                        None => Json::Null,
                    },
                ),
                (
                    "hitrate_cache_capacity".into(),
                    Json::Int(HITRATE_CACHE_CAP as i64),
                ),
            ]),
        ),
        (
            "throughput".into(),
            Json::Obj(vec![
                ("before".into(), before.to_json()),
                ("before_source".into(), Json::Str("committed".into())),
                ("after".into(), after.to_json()),
                ("speedup".into(), Json::Num(speedup)),
            ]),
        ),
        ("cache".into(), Json::Arr(cache_results)),
        (
            "assertion".into(),
            Json::Obj(vec![
                ("pass".into(), Json::Bool(pass)),
                ("smoke".into(), Json::Bool(smoke)),
                ("speedup".into(), Json::Num(speedup)),
                ("min_speedup".into(), Json::Num(BENCH_MIN_SPEEDUP)),
            ]),
        ),
    ]);
    Ok((report, pass))
}

// ---------------------------------------------------------------------------
// --codec-bench: JSON vs binary wire codec on the hot hit path
// ---------------------------------------------------------------------------

/// The committed event-engine hot-hit throughput from before the binary
/// codec and the encoded-reply cache existed (`results/BENCH_serving.json`,
/// `throughput.after`). Full codec-bench runs gate the binary hit path
/// at [`CODEC_MIN_SPEEDUP`]x this number.
const CODEC_BASELINE_RPS: f64 = 104_374.9;
const CODEC_MIN_SPEEDUP: f64 = 2.0;
/// Capped (smoke) runs land on arbitrary CI boxes where an absolute
/// req/s gate is meaningless; they assert the relative floor instead:
/// binary must not fall below this fraction of same-run JSON.
const CODEC_SMOKE_FLOOR: f64 = 0.8;

fn codec_name(codec: WireCodec) -> &'static str {
    match codec {
        WireCodec::Json => "json",
        WireCodec::Binary => "binary",
    }
}

fn run_codec_bench(opts: &Options) -> ExitCode {
    let cap = opts.duration_ms.map(Duration::from_millis);
    let smoke = cap.is_some();
    println!(
        "codec-bench: hot {}-key hit path, {} clients x {} workers",
        BENCH_DISTINCT, BENCH_CLIENTS, BENCH_WORKERS
    );
    let report = (|| -> Result<(Json, bool), String> {
        let json = throughput_best(WireCodec::Json, cap, None)?;
        println!(
            "  json:    {:>8.0} req/s  p50 {} us  p99 {} us  ({} requests, hit rate {:.1}%)",
            json.rps,
            json.p50_us,
            json.p99_us,
            json.answered,
            json.server_hit_rate * 100.0
        );
        let binary = throughput_best(WireCodec::Binary, cap, None)?;
        println!(
            "  binary:  {:>8.0} req/s  p50 {} us  p99 {} us  ({} requests, hit rate {:.1}%)",
            binary.rps,
            binary.p50_us,
            binary.p99_us,
            binary.answered,
            binary.server_hit_rate * 100.0
        );
        let vs_json = binary.rps / json.rps.max(1e-9);
        let vs_baseline = binary.rps / CODEC_BASELINE_RPS;
        println!(
            "  speedup: {vs_baseline:.2}x vs the committed pre-codec baseline \
             ({CODEC_BASELINE_RPS:.0} req/s), {vs_json:.2}x vs same-run json"
        );
        let pass = if smoke {
            binary.rps >= CODEC_SMOKE_FLOOR * json.rps
        } else {
            vs_baseline >= CODEC_MIN_SPEEDUP
        };
        let assertion = Json::Obj(vec![
            ("pass".into(), Json::Bool(pass)),
            ("smoke".into(), Json::Bool(smoke)),
            ("binary_rps".into(), Json::Num(binary.rps)),
            ("json_rps".into(), Json::Num(json.rps)),
            ("baseline_rps".into(), Json::Num(CODEC_BASELINE_RPS)),
            ("speedup_vs_baseline".into(), Json::Num(vs_baseline)),
            (
                "min_speedup_vs_baseline".into(),
                Json::Num(CODEC_MIN_SPEEDUP),
            ),
            ("speedup_vs_json".into(), Json::Num(vs_json)),
            ("smoke_floor_vs_json".into(), Json::Num(CODEC_SMOKE_FLOOR)),
        ]);
        let report = Json::Obj(vec![
            (
                "schema".into(),
                Json::Str("gb-service/bench-codec/v1".into()),
            ),
            (
                "config".into(),
                Json::Obj(vec![
                    ("engine".into(), Json::Str(binary.engine.into())),
                    ("workers".into(), Json::Int(BENCH_WORKERS as i64)),
                    ("clients".into(), Json::Int(BENCH_CLIENTS as i64)),
                    ("n".into(), Json::Int(BENCH_N as i64)),
                    ("distinct".into(), Json::Int(BENCH_DISTINCT as i64)),
                    ("requests".into(), Json::Int(BENCH_REQUESTS as i64)),
                    ("pipeline".into(), Json::Int(BENCH_PIPELINE as i64)),
                    (
                        "duration_ms".into(),
                        match opts.duration_ms {
                            Some(ms) => Json::Int(ms as i64),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            ("json".into(), json.to_json()),
            ("binary".into(), binary.to_json()),
            ("assertion".into(), assertion),
        ]);
        Ok((report, pass))
    })();
    match report {
        Ok((report, pass)) => {
            let out = if opts.out == "BENCH_serving.json" {
                "results/BENCH_codec.json"
            } else {
                opts.out.as_str()
            };
            if let Some(parent) = Path::new(out).parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            if let Err(e) = std::fs::write(out, report.encode_pretty() + "\n") {
                eprintln!("codec-bench: failed to write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("codec-bench: wrote {out}");
            if !pass {
                eprintln!("codec-bench: gate failed (see assertion section of {out})");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("codec-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// --chaos: hostile clients + never-wedges invariant check
// ---------------------------------------------------------------------------

/// Deterministic split-mix style generator so a chaos run is replayable
/// from its `--seed`.
struct ChaosRng(u64);

impl ChaosRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Per-thread tally of hostile actions performed.
#[derive(Default)]
struct ChaosTally {
    valid_ok: u64,
    valid_err: u64,
    dropped_mid_frame: u64,
    abandoned_replies: u64,
    garbage_frames: u64,
    oversized_frames: u64,
    instant_drops: u64,
    io_errors: u64,
}

impl ChaosTally {
    fn merge(&mut self, other: &ChaosTally) {
        self.valid_ok += other.valid_ok;
        self.valid_err += other.valid_err;
        self.dropped_mid_frame += other.dropped_mid_frame;
        self.abandoned_replies += other.abandoned_replies;
        self.garbage_frames += other.garbage_frames;
        self.oversized_frames += other.oversized_frames;
        self.instant_drops += other.instant_drops;
        self.io_errors += other.io_errors;
    }
}

fn chaos_connect(addr: std::net::SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    Ok(stream)
}

/// Reads one reply line; `Ok(true)` if it was a `status: ok` frame.
fn chaos_read_reply(stream: &TcpStream) -> std::io::Result<bool> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    let n = reader.read_line(&mut line)?;
    if n == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(line.contains("\"status\":\"ok\"") || line.contains("\"status\":\"pong\""))
}

/// One hostile exchange on a fresh connection. Every arm is allowed to
/// fail with an I/O error — the server may legitimately kill us — but
/// nothing here may wedge: timeouts bound every read and write.
fn chaos_action(
    rng: &mut ChaosRng,
    opts: &Options,
    addr: std::net::SocketAddr,
    tally: &mut ChaosTally,
) -> std::io::Result<()> {
    let frame = {
        let index = (rng.next() % 1024) as usize;
        let mut f = request_for(opts, index).encode();
        f.push('\n');
        f
    };
    match rng.next() % 8 {
        // Half the actions are plain valid traffic so the hostile ones
        // always interleave with real work.
        0..=2 => {
            let mut stream = chaos_connect(addr)?;
            stream.write_all(frame.as_bytes())?;
            if chaos_read_reply(&stream)? {
                tally.valid_ok += 1;
            } else {
                tally.valid_err += 1;
            }
        }
        3 => {
            // Drop mid-frame: half a JSON object, no newline, close.
            let mut stream = chaos_connect(addr)?;
            let cut = frame.len() / 2;
            stream.write_all(&frame.as_bytes()[..cut.max(1)])?;
            tally.dropped_mid_frame += 1;
        }
        4 => {
            // Send a full request, never read the reply, close. The
            // worker's answer lands on a dead socket.
            let mut stream = chaos_connect(addr)?;
            stream.write_all(frame.as_bytes())?;
            tally.abandoned_replies += 1;
        }
        5 => {
            // Garbage pipelined with a valid request: both must be
            // answered, in order.
            let mut stream = chaos_connect(addr)?;
            stream.write_all(b"!! not json !!\n")?;
            stream.write_all(frame.as_bytes())?;
            let first_ok = chaos_read_reply(&stream)?;
            let second_ok = chaos_read_reply(&stream)?;
            tally.garbage_frames += 1;
            if !first_ok && second_ok {
                tally.valid_ok += 1;
            } else {
                tally.valid_err += 1;
            }
        }
        6 => {
            // Oversized frame, then a valid one after the resync.
            let mut stream = chaos_connect(addr)?;
            let huge = vec![b'x'; gb_service::proto::MAX_FRAME + 64];
            stream.write_all(&huge)?;
            stream.write_all(b"\n")?;
            stream.write_all(frame.as_bytes())?;
            let _ = chaos_read_reply(&stream)?; // the too-long error
            if chaos_read_reply(&stream)? {
                tally.valid_ok += 1;
            } else {
                tally.valid_err += 1;
            }
            tally.oversized_frames += 1;
        }
        _ => {
            // Connect and vanish before sending anything.
            let stream = chaos_connect(addr)?;
            drop(stream);
            tally.instant_drops += 1;
        }
    }
    Ok(())
}

/// Polls the server's stats until queue depth and in-flight count are
/// both zero (or the deadline passes). Returns the final (depth,
/// inflight) pair.
fn await_drained(addr: std::net::SocketAddr, timeout: Duration) -> (i64, i64) {
    let deadline = Instant::now() + timeout;
    let mut last = (i64::MAX, i64::MAX);
    loop {
        if let Ok(Response::Stats(stats)) =
            Client::connect(addr).and_then(|mut c| c.call(&Request::Stats))
        {
            let depth = stats
                .get("queue")
                .and_then(|q| q.get("depth"))
                .and_then(|v| v.as_u64())
                .map_or(i64::MAX, |v| v as i64);
            let inflight = stats
                .get("connections")
                .and_then(|c| c.get("inflight"))
                .and_then(|v| v.as_u64())
                .map_or(i64::MAX, |v| v as i64);
            last = (depth, inflight);
            if depth == 0 && inflight == 0 {
                return last;
            }
        }
        if Instant::now() >= deadline {
            return last;
        }
        thread::sleep(Duration::from_millis(100));
    }
}

fn run_chaos(
    opts: &Arc<Options>,
    addr: std::net::SocketAddr,
    local_server: Option<Server>,
) -> ExitCode {
    let duration = Duration::from_millis(opts.duration_ms.unwrap_or(5_000));
    println!(
        "chaos: {} hostile clients against {} for {:.1} s (seed {})",
        opts.clients,
        addr,
        duration.as_secs_f64(),
        opts.seed
    );
    let deadline = Instant::now() + duration;
    let mut handles = Vec::new();
    for thread_index in 0..opts.clients {
        let opts = Arc::clone(opts);
        handles.push(thread::spawn(move || {
            let mut rng = ChaosRng(opts.seed.wrapping_add(thread_index as u64 * 0x5851_f42d));
            let mut tally = ChaosTally::default();
            while Instant::now() < deadline {
                if chaos_action(&mut rng, &opts, addr, &mut tally).is_err() {
                    // The server is allowed to kill hostile connections;
                    // what matters is that it keeps serving afterwards.
                    tally.io_errors += 1;
                }
            }
            tally
        }));
    }
    let mut total = ChaosTally::default();
    for handle in handles {
        total.merge(&handle.join().expect("chaos thread panicked"));
    }
    println!(
        "chaos: ok {} err {} | mid-frame drops {} abandoned {} garbage {} oversized {} \
         instant drops {} io errors {}",
        total.valid_ok,
        total.valid_err,
        total.dropped_mid_frame,
        total.abandoned_replies,
        total.garbage_frames,
        total.oversized_frames,
        total.instant_drops,
        total.io_errors
    );

    // Invariants: the wreckage must fully drain (no leaked queue slots or
    // in-flight gates) and a fresh, well-behaved client must still get a
    // correct answer.
    let (depth, inflight) = await_drained(addr, Duration::from_secs(15));
    let drained = depth == 0 && inflight == 0;
    println!("chaos: post-run queue depth {depth}, inflight {inflight}");
    let final_ok = Client::connect(addr)
        .and_then(|mut c| c.call(&request_for(opts, 0)))
        .ok()
        .is_some_and(|r| match r {
            Response::Ok(ok) => ok.ratio >= 1.0 && ok.ratio <= ok.bound,
            _ => false,
        });
    println!(
        "chaos: fresh balance request after the storm: {}",
        if final_ok { "ok" } else { "FAILED" }
    );

    // Snapshot the server's own view (including the per-backend rollup
    // when sharded) before tearing it down — CI keeps this as an
    // artifact of the sharded chaos run.
    if let Some(path) = &opts.metrics_out {
        match fetch_stats(addr) {
            Some(stats) => {
                if let Err(e) = std::fs::write(path, stats.encode_pretty() + "\n") {
                    eprintln!("chaos: failed to write {path}: {e}");
                } else {
                    println!("chaos: wrote {path}");
                }
            }
            None => eprintln!("chaos: stats snapshot for {path} failed"),
        }
    }

    if opts.send_shutdown {
        match Client::connect(addr).and_then(|mut c| c.call(&Request::Shutdown)) {
            Ok(_) => println!("chaos: shutdown frame acknowledged"),
            Err(e) => eprintln!("chaos: shutdown frame failed: {e}"),
        }
    }
    if let Some(server) = local_server {
        server.shutdown();
    }
    if drained && final_ok && total.valid_ok > 0 {
        println!("chaos: invariants held");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaos: INVARIANT VIOLATION (drained={drained}, final_ok={final_ok})");
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// --warm-load / --warm-replay / --warm-bench: the crash-recovery story
// ---------------------------------------------------------------------------

/// One sequential pass over the hot set (`distinct` bench keys);
/// returns how many answers came from cache.
fn hot_set_pass(addr: std::net::SocketAddr, distinct: u64, id_base: u64) -> Result<u64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("hot-set connect: {e}"))?;
    let mut cached = 0u64;
    for seed in 0..distinct {
        match client
            .call(&bench_request(id_base + seed, seed))
            .map_err(|e| format!("hot-set call (seed {seed}): {e}"))?
        {
            Response::Ok(ok) => {
                if ok.cached {
                    cached += 1;
                }
            }
            other => return Err(format!("hot-set: unexpected {other:?}")),
        }
    }
    Ok(cached)
}

/// Primes an external server's hot set and blocks until every record is
/// durably appended to its store — after this returns SUCCESS the server
/// can be SIGKILLed and a successor must recover the set.
fn run_warm_load(opts: &Options, addr: std::net::SocketAddr) -> ExitCode {
    let distinct = opts.distinct as u64;
    println!("warm-load: priming {distinct} keys on {addr}");
    // Two passes: the first computes (and spills), the second proves the
    // set is resident in cache.
    let cached = match hot_set_pass(addr, distinct, 0)
        .and_then(|_| hot_set_pass(addr, distinct, distinct))
    {
        Ok(cached) => cached,
        Err(e) => {
            eprintln!("warm-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("warm-load: second pass served {cached}/{distinct} from cache");
    // Durability gate: the spill writer is asynchronous, so wait until
    // the store counted every append before declaring the set safe.
    match await_store_counter(addr, "appended", distinct, Duration::from_secs(10)) {
        Some(appended) if appended >= distinct => {
            println!("warm-load: store.appended = {appended}, hot set survives SIGKILL");
        }
        Some(appended) => {
            eprintln!("warm-load: store.appended stuck at {appended} (< {distinct})");
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!(
                "warm-load: server reports no store section — was it started with --store-dir?"
            );
            return ExitCode::FAILURE;
        }
    }
    // Stronger gate when the server runs a durability mode: every record
    // must also be *fsynced* before the set is declared power-loss safe.
    let sync_mode = fetch_stats(addr)
        .as_ref()
        .and_then(|s| s.get("store")?.get("sync")?.as_str().map(str::to_owned));
    match sync_mode.as_deref() {
        None | Some("none") => ExitCode::SUCCESS,
        Some(mode) => {
            match await_store_counter(addr, "synced", distinct, Duration::from_secs(10)) {
                Some(synced) if synced >= distinct => {
                    println!(
                        "warm-load: store.synced = {synced} under sync mode {mode:?}, \
                         hot set survives power loss"
                    );
                    ExitCode::SUCCESS
                }
                synced => {
                    eprintln!(
                        "warm-load: sync mode is {mode:?} but store.synced stuck at {synced:?} \
                         (< {distinct})"
                    );
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// Replays the pre-kill hot set against a restarted server and verifies
/// the warm hit rate and recovery counters.
fn run_warm_replay(opts: &Options, addr: std::net::SocketAddr) -> ExitCode {
    let distinct = opts.distinct as u64;
    println!("warm-replay: replaying {distinct} keys on {addr}");
    let cached = match hot_set_pass(addr, distinct, 10 * distinct) {
        Ok(cached) => cached,
        Err(e) => {
            eprintln!("warm-replay: {e}");
            return ExitCode::FAILURE;
        }
    };
    let warm_rate = cached as f64 / distinct.max(1) as f64;
    let stats = fetch_stats(addr);
    let store = stats.as_ref().and_then(|s| s.get("store")).cloned();
    let recovered = stats
        .as_ref()
        .and_then(|s| store_counter(s, "recovered"))
        .unwrap_or(0);
    let corrupt_skipped = stats
        .as_ref()
        .and_then(|s| store_counter(s, "corrupt_skipped"))
        .unwrap_or(0);
    println!(
        "warm-replay: {cached}/{distinct} warm hits ({:.1}%), store.recovered {recovered}, \
         store.corrupt_skipped {corrupt_skipped}",
        warm_rate * 100.0
    );

    if let Some(path) = &opts.metrics_out {
        let report = Json::Obj(vec![
            (
                "schema".into(),
                Json::Str("gb-service/warm-replay/v1".into()),
            ),
            ("distinct".into(), Json::Int(distinct as i64)),
            ("warm_hits".into(), Json::Int(cached as i64)),
            ("warm_hit_rate".into(), Json::Num(warm_rate)),
            ("min_warm_rate".into(), Json::Num(opts.min_warm_rate)),
            ("store".into(), store.unwrap_or(Json::Null)),
        ]);
        if let Err(e) = std::fs::write(path, report.encode_pretty() + "\n") {
            eprintln!("warm-replay: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("warm-replay: wrote {path}");
    }
    if opts.send_shutdown {
        match Client::connect(addr).and_then(|mut c| c.call(&Request::Shutdown)) {
            Ok(_) => println!("warm-replay: shutdown frame acknowledged"),
            Err(e) => eprintln!("warm-replay: shutdown frame failed: {e}"),
        }
    }

    if warm_rate >= opts.min_warm_rate && recovered > 0 {
        println!("warm-replay: hot set survived the restart");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "warm-replay: FAILED (warm rate {:.3} < {:.3}, or store.recovered {recovered} == 0)",
            warm_rate, opts.min_warm_rate
        );
        ExitCode::FAILURE
    }
}

/// The committed warm-vs-cold restart experiment, fully in-process:
/// a restart without a store serves the old hot set cold (~0% hits); a
/// restart with a store serves it warm from recovered records.
fn run_warm_bench(opts: &Options) -> ExitCode {
    let distinct = opts.distinct as u64;
    let config = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: BENCH_QUEUE_CAP,
        cache_capacity: BENCH_CACHE_CAP,
        pool_threads: 2,
    };
    let restart_phase =
        |label: &str, store: Option<&Path>| -> Result<(f64, Option<Json>), String> {
            let tuning = |store: Option<&Path>| {
                let mut t = Tuning::default();
                if let Some(path) = store {
                    t.store = Some(StoreSettings::new(path));
                }
                t
            };
            // Life 1: compute the hot set, then shut down gracefully (with a
            // store this drains the spill queue to disk).
            let first = Server::start_tuned(config(), tuning(store))
                .map_err(|e| format!("{label}: first server: {e}"))?;
            hot_set_pass(first.local_addr(), distinct, 0)?;
            first.shutdown();
            // Life 2: a fresh process image — the cache starts empty and only
            // store recovery (if any) can rewarm it.
            let second = Server::start_tuned(config(), tuning(store))
                .map_err(|e| format!("{label}: second server: {e}"))?;
            let addr = second.local_addr();
            let cached = hot_set_pass(addr, distinct, distinct)?;
            let store_section = fetch_stats(addr)
                .as_ref()
                .and_then(|s| s.get("store"))
                .cloned();
            second.shutdown();
            Ok((cached as f64 / distinct.max(1) as f64, store_section))
        };

    println!("warm-bench: {distinct}-key hot set, restart without vs with a store");
    let (cold_rate, _) = match restart_phase("cold", None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("warm-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  cold restart (no store):  {:.1}% warm hits",
        cold_rate * 100.0
    );
    let store_guard = StoreDir::temp("warm-bench");
    let (warm_rate, store_section) = match restart_phase("warm", Some(store_guard.path.as_path())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("warm-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "  warm restart (gb-store):  {:.1}% warm hits",
        warm_rate * 100.0
    );

    let out = if opts.out == "BENCH_serving.json" {
        "BENCH_store.json"
    } else {
        opts.out.as_str()
    };
    let report = Json::Obj(vec![
        (
            "schema".into(),
            Json::Str("gb-service/warm-bench/v1".into()),
        ),
        (
            "config".into(),
            Json::Obj(vec![
                ("distinct".into(), Json::Int(distinct as i64)),
                ("n".into(), Json::Int(BENCH_N as i64)),
                ("workers".into(), Json::Int(2)),
                ("cache_capacity".into(), Json::Int(BENCH_CACHE_CAP as i64)),
            ]),
        ),
        (
            "cold_restart".into(),
            Json::Obj(vec![("warm_hit_rate".into(), Json::Num(cold_rate))]),
        ),
        (
            "warm_restart".into(),
            Json::Obj(vec![
                ("warm_hit_rate".into(), Json::Num(warm_rate)),
                ("store".into(), store_section.unwrap_or(Json::Null)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(out, report.encode_pretty() + "\n") {
        eprintln!("warm-bench: failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("warm-bench: wrote {out}");
    if warm_rate >= opts.min_warm_rate && cold_rate < opts.min_warm_rate {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "warm-bench: FAILED (warm {:.3} should be >= {:.3} and cold {:.3} below it)",
            warm_rate, opts.min_warm_rate, cold_rate
        );
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// --shard-bench: hot-class isolation experiment behind BENCH_sharding.json
// ---------------------------------------------------------------------------

const SHARD_BACKENDS: usize = 4;
const SHARD_VNODES: usize = 64;
const SHARD_WORKERS: usize = 4;
const SHARD_QUEUE_CAP: usize = 256;
const SHARD_CACHE_CAP: usize = 256;
/// Victim working set: keys owned by the non-hot backends, small enough
/// to stay resident in their caches.
const SHARD_VICTIM_KEYS: usize = 24;
/// Victim probe passes per phase (one latency sample per key per pass),
/// paced [`SHARD_ROUND_PACE`] apart so the contended phases observe the
/// flood's steady state — cache churn included — rather than its first
/// half-second.
const SHARD_ROUNDS: usize = 150;
const SHARD_SMOKE_ROUNDS: usize = 8;
const SHARD_ROUND_PACE: Duration = Duration::from_millis(2);
const SHARD_HOT_THREADS: usize = 2;
const SHARD_HOT_PIPELINE: usize = 128;
/// Distinct flood keys — far more than one backend's cache slice, so the
/// flood stays a compute-bound cold scan instead of going cache-warm.
const SHARD_HOT_KEYS: usize = 8192;
/// The hot class asks for a much larger partition than the victims do:
/// each flood miss costs ~0.7 ms of worker compute, so an unsharded
/// queue in front of it visibly delays whoever shares it.
const SHARD_HOT_N: usize = 1024;
/// Sub-millisecond p99 baselines on a single shared core are scheduler
/// noise, so the 2x bound is taken against at least this much.
const SHARD_NOISE_FLOOR_US: u64 = 1_000;

/// The cache key the server derives for a seed at processor count `n` —
/// used to pre-classify seeds by owning backend with the same `Router`
/// the server builds (`n` is part of the key, so the hot and victim
/// classes classify at their own request shapes).
fn shard_cache_key(seed: u64, n: usize) -> CacheKey {
    let spec = ProblemSpec::Synthetic {
        weight: 1.0,
        lo: 0.2,
        hi: 0.5,
        seed,
    };
    CacheKey::new(spec.fingerprint(), Algorithm::Hf, n, 1.0)
}

/// A flood request: same problem family as the victims, but a heavier
/// `n` so every miss costs real worker time.
fn shard_hot_request(seed: u64) -> Request {
    Request::Balance(BalanceRequest {
        id: Some(seed),
        algorithm: Algorithm::Hf,
        n: SHARD_HOT_N,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        problem: ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.2,
            hi: 0.5,
            seed,
        },
    })
}

struct ShardPhase {
    label: &'static str,
    backends: usize,
    contended: bool,
    warm_resident: u64,
    samples: u64,
    ok: u64,
    cached: u64,
    errors: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
    hot_answered: u64,
    hot_ok: u64,
    hot_shed: u64,
    backend_stats: Option<Json>,
}

impl ShardPhase {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.into())),
            ("backends".into(), Json::Int(self.backends as i64)),
            ("contended".into(), Json::Bool(self.contended)),
            ("warm_resident".into(), Json::Int(self.warm_resident as i64)),
            ("victim_samples".into(), Json::Int(self.samples as i64)),
            ("victim_ok".into(), Json::Int(self.ok as i64)),
            ("victim_cached".into(), Json::Int(self.cached as i64)),
            ("victim_errors".into(), Json::Int(self.errors as i64)),
            ("victim_p50_us".into(), Json::Int(self.p50_us as i64)),
            ("victim_p95_us".into(), Json::Int(self.p95_us as i64)),
            ("victim_p99_us".into(), Json::Int(self.p99_us as i64)),
            ("victim_max_us".into(), Json::Int(self.max_us as i64)),
            ("hot_answered".into(), Json::Int(self.hot_answered as i64)),
            ("hot_ok".into(), Json::Int(self.hot_ok as i64)),
            ("hot_shed".into(), Json::Int(self.hot_shed as i64)),
            (
                "server_backends".into(),
                self.backend_stats.clone().unwrap_or(Json::Null),
            ),
        ])
    }
}

/// One flood connection: pipelines bursts of hot-class requests until
/// told to stop, tallying answered/ok/shed. The server may shed most of
/// these (the hot backend's local queue is a quarter of the global cap)
/// — that per-class shedding is part of what the bench demonstrates.
fn shard_hot_flood(
    addr: std::net::SocketAddr,
    seeds: Arc<Vec<u64>>,
    stop: Arc<AtomicBool>,
    thread_index: usize,
) -> (u64, u64, u64) {
    let mut answered = 0u64;
    let mut ok = 0u64;
    let mut shed = 0u64;
    let Ok(stream) = TcpStream::connect(addr) else {
        return (0, 0, 0);
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let Ok(mut writer) = stream.try_clone() else {
        return (0, 0, 0);
    };
    let mut reader = BufReader::new(stream);
    let mut cursor = thread_index * seeds.len() / SHARD_HOT_THREADS;
    let mut out = String::new();
    let mut line = String::new();
    while !stop.load(Ordering::Relaxed) {
        out.clear();
        for j in 0..SHARD_HOT_PIPELINE {
            let seed = seeds[(cursor + j) % seeds.len()];
            out.push_str(&shard_hot_request(seed).encode());
            out.push('\n');
        }
        cursor = (cursor + SHARD_HOT_PIPELINE) % seeds.len();
        if writer.write_all(out.as_bytes()).is_err() {
            break;
        }
        for _ in 0..SHARD_HOT_PIPELINE {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return (answered, ok, shed),
                Ok(_) => {}
            }
            answered += 1;
            if line.contains("\"status\":\"ok\"") {
                ok += 1;
            } else if line.contains("\"overloaded\"") {
                shed += 1;
            }
        }
    }
    (answered, ok, shed)
}

/// One phase: warm the victim class, optionally start the hot flood,
/// probe victim latency for `rounds` passes, snapshot the per-backend
/// stats while the flood is still running, then tear everything down.
fn shard_phase(
    label: &'static str,
    backends: usize,
    contended: bool,
    victims: &Arc<Vec<u64>>,
    hot: &Arc<Vec<u64>>,
    rounds: usize,
) -> Result<ShardPhase, String> {
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: SHARD_WORKERS,
            queue_capacity: SHARD_QUEUE_CAP,
            cache_capacity: SHARD_CACHE_CAP,
            pool_threads: 1,
        },
        Tuning {
            backends,
            backend_vnodes: SHARD_VNODES,
            // Plain LRU everywhere: TinyLFU's scan resistance would let
            // even the *unsharded* control keep the victims cached
            // through the flood, masking exactly the cache-sharing
            // failure the control exists to show. Sharded isolation must
            // not depend on the admission policy.
            admission: false,
            ..Tuning::default()
        },
    )
    .map_err(|e| format!("{label}: server: {e}"))?;
    let addr = server.local_addr();

    // Warm the victim class: first pass computes, second proves residency.
    let mut client = Client::connect(addr).map_err(|e| format!("{label}: connect: {e}"))?;
    let mut warm = |id_base: u64| -> Result<u64, String> {
        let mut resident = 0u64;
        for (i, &seed) in victims.iter().enumerate() {
            match client
                .call(&bench_request(id_base + i as u64, seed))
                .map_err(|e| format!("{label}: warm call: {e}"))?
            {
                Response::Ok(ok) => {
                    if ok.cached {
                        resident += 1;
                    }
                }
                other => return Err(format!("{label}: warm: unexpected {other:?}")),
            }
        }
        Ok(resident)
    };
    warm(0)?;
    let warm_resident = warm(victims.len() as u64)?;

    let stop = Arc::new(AtomicBool::new(false));
    let mut flood = Vec::new();
    if contended {
        for thread_index in 0..SHARD_HOT_THREADS {
            let hot = Arc::clone(hot);
            let stop = Arc::clone(&stop);
            flood.push(thread::spawn(move || {
                shard_hot_flood(addr, hot, stop, thread_index)
            }));
        }
        // Let the flood fill the hot backend's queue before sampling.
        thread::sleep(Duration::from_millis(200));
    }

    let mut latencies = Vec::with_capacity(rounds * victims.len());
    let mut ok_count = 0u64;
    let mut cached = 0u64;
    let mut errors = 0u64;
    for round in 0..rounds {
        if round > 0 {
            thread::sleep(SHARD_ROUND_PACE);
        }
        for (i, &seed) in victims.iter().enumerate() {
            let id = 1_000 + (round * victims.len() + i) as u64;
            let sent = Instant::now();
            match client
                .call(&bench_request(id, seed))
                .map_err(|e| format!("{label}: victim call: {e}"))?
            {
                Response::Ok(ok) => {
                    ok_count += 1;
                    if ok.cached {
                        cached += 1;
                    }
                }
                Response::Error { .. } => errors += 1,
                other => return Err(format!("{label}: victim: unexpected {other:?}")),
            }
            latencies.push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
    }

    // Per-backend rollup while the flood is still applying pressure.
    let backend_stats = if contended {
        fetch_stats(addr).and_then(|s| s.get("backends").cloned())
    } else {
        None
    };

    stop.store(true, Ordering::Relaxed);
    let mut hot_answered = 0u64;
    let mut hot_ok = 0u64;
    let mut hot_shed = 0u64;
    for handle in flood {
        let (answered, ok, shed) = handle.join().expect("flood thread panicked");
        hot_answered += answered;
        hot_ok += ok;
        hot_shed += shed;
    }
    server.shutdown();

    latencies.sort_unstable();
    Ok(ShardPhase {
        label,
        backends,
        contended,
        warm_resident,
        samples: latencies.len() as u64,
        ok: ok_count,
        cached,
        errors,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        hot_answered,
        hot_ok,
        hot_shed,
        backend_stats,
    })
}

fn run_shard_bench(opts: &Options) -> ExitCode {
    let rounds = if opts.duration_ms.is_some() {
        SHARD_SMOKE_ROUNDS
    } else {
        SHARD_ROUNDS
    };
    // Classify seeds with the same ring the 4-backend server will build:
    // the flood all lands on one backend, the victims on the others.
    let router = Router::new(SHARD_BACKENDS, SHARD_VNODES);
    let hot_backend = router.route(shard_cache_key(1_000_000, SHARD_HOT_N).mix());
    let mut hot = Vec::with_capacity(SHARD_HOT_KEYS);
    let mut seed = 1_000_000u64;
    while hot.len() < SHARD_HOT_KEYS {
        if router.route(shard_cache_key(seed, SHARD_HOT_N).mix()) == hot_backend {
            hot.push(seed);
        }
        seed += 1;
    }
    let mut victims = Vec::with_capacity(SHARD_VICTIM_KEYS);
    let mut seed = 0u64;
    while victims.len() < SHARD_VICTIM_KEYS {
        if router.route(shard_cache_key(seed, BENCH_N).mix()) != hot_backend {
            victims.push(seed);
        }
        seed += 1;
    }
    println!(
        "shard-bench: hot class pinned to backend {hot_backend} ({} flood keys), \
         {} victim keys on the other {} backends, {rounds} probe rounds",
        hot.len(),
        victims.len(),
        SHARD_BACKENDS - 1
    );
    let victims = Arc::new(victims);
    let hot = Arc::new(hot);

    let phase = |label, backends, contended| {
        let result = shard_phase(label, backends, contended, &victims, &hot, rounds);
        if let Ok(p) = &result {
            println!(
                "  {label:<22} p50 {:>6} us  p95 {:>6} us  p99 {:>6} us  \
                 (victim ok {} cached {} err {}; hot ok {} shed {})",
                p.p50_us, p.p95_us, p.p99_us, p.ok, p.cached, p.errors, p.hot_ok, p.hot_shed
            );
        }
        result
    };
    let (isolated, sharded, control) = match (|| {
        Ok::<_, String>((
            phase("isolated", SHARD_BACKENDS, false)?,
            phase("sharded + flood", SHARD_BACKENDS, true)?,
            phase("unsharded + flood", 1, true)?,
        ))
    })() {
        Ok(phases) => phases,
        Err(e) => {
            eprintln!("shard-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let baseline_us = isolated.p99_us.max(SHARD_NOISE_FLOOR_US);
    let bound_us = 2 * baseline_us;
    let pass = sharded.p99_us <= bound_us;
    let ratio = sharded.p99_us as f64 / isolated.p99_us.max(1) as f64;
    let control_ratio = control.p99_us as f64 / isolated.p99_us.max(1) as f64;
    println!(
        "shard-bench: sharded victim p99 {} us vs bound {} us (2 x max(isolated p99, \
         {SHARD_NOISE_FLOOR_US} us noise floor)) — {}",
        sharded.p99_us,
        bound_us,
        if pass { "within bound" } else { "EXCEEDED" }
    );
    println!(
        "shard-bench: victim p99 blowup without sharding: {control_ratio:.1}x \
         (with sharding: {ratio:.1}x)"
    );

    let report = Json::Obj(vec![
        (
            "schema".into(),
            Json::Str("gb-service/bench-sharding/v1".into()),
        ),
        (
            "config".into(),
            Json::Obj(vec![
                ("backends".into(), Json::Int(SHARD_BACKENDS as i64)),
                ("backend_vnodes".into(), Json::Int(SHARD_VNODES as i64)),
                ("hot_backend".into(), Json::Int(i64::from(hot_backend))),
                ("workers".into(), Json::Int(SHARD_WORKERS as i64)),
                ("queue_capacity".into(), Json::Int(SHARD_QUEUE_CAP as i64)),
                ("cache_capacity".into(), Json::Int(SHARD_CACHE_CAP as i64)),
                ("victim_keys".into(), Json::Int(SHARD_VICTIM_KEYS as i64)),
                ("probe_rounds".into(), Json::Int(rounds as i64)),
                ("hot_keys".into(), Json::Int(SHARD_HOT_KEYS as i64)),
                (
                    "hot_connections".into(),
                    Json::Int(SHARD_HOT_THREADS as i64),
                ),
                ("hot_pipeline".into(), Json::Int(SHARD_HOT_PIPELINE as i64)),
                (
                    "noise_floor_us".into(),
                    Json::Int(SHARD_NOISE_FLOOR_US as i64),
                ),
            ]),
        ),
        ("isolated".into(), isolated.to_json()),
        ("sharded".into(), sharded.to_json()),
        ("unsharded_control".into(), control.to_json()),
        (
            "assertion".into(),
            Json::Obj(vec![
                ("bound_us".into(), Json::Int(bound_us as i64)),
                ("sharded_p99_us".into(), Json::Int(sharded.p99_us as i64)),
                ("sharded_over_isolated".into(), Json::Num(ratio)),
                ("control_over_isolated".into(), Json::Num(control_ratio)),
                ("pass".into(), Json::Bool(pass)),
            ]),
        ),
    ]);
    let out = if opts.out == "BENCH_serving.json" {
        "BENCH_sharding.json"
    } else {
        opts.out.as_str()
    };
    if let Err(e) = std::fs::write(out, report.encode_pretty() + "\n") {
        eprintln!("shard-bench: failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("shard-bench: wrote {out}");
    if pass {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "shard-bench: FAILED — victim p99 {} us exceeds {} us under a sharded hot flood",
            sharded.p99_us, bound_us
        );
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// --skew-bench: the self-balancing placement experiment behind
// results/BENCH_skew.json
// ---------------------------------------------------------------------------

const SKEW_BACKENDS: usize = 4;
const SKEW_VNODES: usize = 16;
const SKEW_WORKERS: usize = 4;
const SKEW_QUEUE_CAP: usize = 256;
const SKEW_CACHE_CAP: usize = 256;
/// Distinct keys in the zipf working set. With s = 1.0 the hottest key
/// carries ~21% of the traffic — under the 25% per-backend mean, so a
/// balanced assignment exists and HF can find it.
const SKEW_KEYS: usize = 64;
const SKEW_N: usize = 24;
const SKEW_CLIENTS: usize = 2;
const SKEW_WARM_MS: u64 = 2_500;
const SKEW_WINDOW_MS: u64 = 2_500;
const SKEW_SMOKE_FLOOR_MS: u64 = 600;
const SKEW_REBAL_INTERVAL_MS: u64 = 150;
const SKEW_TRIGGER: f64 = 1.05;
const SKEW_BUDGET: usize = 8;
/// Full-run gates: steady-state max/mean of the rebalanced fleet vs
/// the static-ring control over the same measurement window.
const SKEW_REBAL_GATE: f64 = 1.15;
const SKEW_CONTROL_GATE: f64 = 1.3;
/// Minimum expected (analytic) static imbalance when picking the seed
/// block — guarantees the control has something to show.
const SKEW_PICK_FLOOR: f64 = 1.5;

/// Zipf(s=1) selection probabilities for ranks `0..count`, cumulative.
fn skew_zipf_cumulative(count: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..count).map(|k| 1.0 / (k + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cum = Vec::with_capacity(count);
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cum.push(acc);
    }
    cum
}

/// Picks a deterministic block of seeds whose *static* hash placement is
/// lopsided under the zipf weights: the control phase then demonstrates
/// the imbalance the rebalancer erases. Pure function of the ring.
fn skew_pick_seeds(cum: &[f64]) -> (u64, Vec<u64>, f64) {
    let router = Router::new(SKEW_BACKENDS, SKEW_VNODES);
    let ideal = 1.0 / SKEW_BACKENDS as f64;
    let mut base = 0u64;
    loop {
        let seeds: Vec<u64> = (0..SKEW_KEYS as u64).map(|k| base + k).collect();
        let mut per = [0.0f64; SKEW_BACKENDS];
        for (rank, &seed) in seeds.iter().enumerate() {
            let prob = cum[rank] - if rank == 0 { 0.0 } else { cum[rank - 1] };
            per[router.route(shard_cache_key(seed, SKEW_N).mix()) as usize] += prob;
        }
        let expected = per.iter().cloned().fold(0.0, f64::max) / ideal;
        if expected >= SKEW_PICK_FLOOR {
            return (base, seeds, expected);
        }
        base += SKEW_KEYS as u64;
        assert!(base < 1_000_000, "no skewed seed block found");
    }
}

fn skew_request(id: u64, seed: u64) -> Request {
    Request::Balance(BalanceRequest {
        id: Some(id),
        algorithm: Algorithm::Hf,
        n: SKEW_N,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        // Same spec family as shard_cache_key, so pre-classification by
        // Router matches the server's placement exactly.
        problem: ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.2,
            hi: 0.5,
            seed,
        },
    })
}

/// One closed-loop client: draws keys from the zipf distribution with a
/// deterministic per-thread RNG (both phases replay the identical
/// request stream) until told to stop.
fn skew_traffic(
    addr: std::net::SocketAddr,
    seeds: Arc<Vec<u64>>,
    cum: Arc<Vec<f64>>,
    stop: Arc<AtomicBool>,
    thread_index: usize,
) -> u64 {
    let Ok(mut client) = Client::connect(addr) else {
        return 0;
    };
    let mut rng = ChaosRng(0x5eed_ba5e + thread_index as u64);
    let mut sent = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let u = rng.next() as f64 / u64::MAX as f64;
        let rank = cum.partition_point(|&c| c < u).min(seeds.len() - 1);
        if client.call(&skew_request(sent, seeds[rank])).is_err() {
            break;
        }
        sent += 1;
    }
    sent
}

/// Per-backend `(load_hits, load_micros)` from a live stats frame.
fn skew_loads(addr: std::net::SocketAddr) -> Result<Vec<(u64, u64)>, String> {
    let stats = fetch_stats(addr).ok_or("stats fetch failed")?;
    let per = stats
        .get("backends")
        .and_then(|b| b.get("per_backend"))
        .and_then(|p| match p {
            Json::Arr(items) => Some(items.clone()),
            _ => None,
        })
        .ok_or("stats missing backends.per_backend")?;
    per.iter()
        .map(|entry| {
            let hits = entry.get("load_hits").and_then(|v| v.as_u64());
            let micros = entry.get("load_micros").and_then(|v| v.as_u64());
            match (hits, micros) {
                (Some(h), Some(m)) => Ok((h, m)),
                _ => Err("per_backend missing load counters".into()),
            }
        })
        .collect()
}

struct SkewPhase {
    label: &'static str,
    /// max/mean of per-backend load deltas over the window, where load
    /// = micros + HIT_COST_MICROS x hits (the rebalancer's own metric).
    imbalance: f64,
    per_backend: Vec<f64>,
    requests: u64,
    rebal: Option<Json>,
}

impl SkewPhase {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".into(), Json::Str(self.label.into())),
            ("imbalance".into(), Json::Num(self.imbalance)),
            (
                "per_backend_load".into(),
                Json::Arr(self.per_backend.iter().map(|&w| Json::Num(w)).collect()),
            ),
            ("requests".into(), Json::Int(self.requests as i64)),
            ("rebal".into(), self.rebal.clone().unwrap_or(Json::Null)),
        ])
    }
}

/// One phase: start a 4-backend server (rebalancing or static), prime
/// the working set, drive zipf traffic, let placement settle for
/// `warm_ms`, then measure the per-backend load deltas over a
/// `window_ms` steady-state window.
fn skew_phase(
    label: &'static str,
    rebalance: Option<gb_rebal::RebalanceSettings>,
    seeds: &Arc<Vec<u64>>,
    cum: &Arc<Vec<f64>>,
    warm_ms: u64,
    window_ms: u64,
) -> Result<SkewPhase, String> {
    let rebalancing = rebalance.is_some();
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: SKEW_WORKERS,
            queue_capacity: SKEW_QUEUE_CAP,
            cache_capacity: SKEW_CACHE_CAP,
            pool_threads: 1,
        },
        Tuning {
            backends: SKEW_BACKENDS,
            backend_vnodes: SKEW_VNODES,
            rebalance,
            ..Tuning::default()
        },
    )
    .map_err(|e| format!("{label}: server: {e}"))?;
    let addr = server.local_addr();

    // Prime every key once so the measurement window is hit-dominated
    // (the rebalancer then acts on traffic skew, not compute noise).
    let mut client = Client::connect(addr).map_err(|e| format!("{label}: connect: {e}"))?;
    for (i, &seed) in seeds.iter().enumerate() {
        match client
            .call(&skew_request(1_000_000 + i as u64, seed))
            .map_err(|e| format!("{label}: prime: {e}"))?
        {
            Response::Ok(_) => {}
            other => return Err(format!("{label}: prime: unexpected {other:?}")),
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut drivers = Vec::new();
    for thread_index in 0..SKEW_CLIENTS {
        let seeds = Arc::clone(seeds);
        let cum = Arc::clone(cum);
        let stop = Arc::clone(&stop);
        drivers.push(thread::spawn(move || {
            skew_traffic(addr, seeds, cum, stop, thread_index)
        }));
    }
    thread::sleep(Duration::from_millis(warm_ms));
    let before = skew_loads(addr).map_err(|e| format!("{label}: {e}"))?;
    thread::sleep(Duration::from_millis(window_ms));
    let after = skew_loads(addr).map_err(|e| format!("{label}: {e}"))?;
    let rebal = if rebalancing {
        fetch_stats(addr).and_then(|s| s.get("rebal").cloned())
    } else {
        None
    };
    stop.store(true, Ordering::Relaxed);
    let requests = drivers
        .into_iter()
        .map(|h| h.join().expect("skew traffic thread panicked"))
        .sum();
    server.shutdown();

    let per_backend: Vec<f64> = before
        .iter()
        .zip(&after)
        .map(|(&(h0, m0), &(h1, m1))| {
            (m1 - m0) as f64 + gb_rebal::HIT_COST_MICROS * (h1 - h0) as f64
        })
        .collect();
    let mean = per_backend.iter().sum::<f64>() / per_backend.len() as f64;
    let max = per_backend.iter().cloned().fold(0.0, f64::max);
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    Ok(SkewPhase {
        label,
        imbalance,
        per_backend,
        requests,
        rebal,
    })
}

fn run_skew_bench(opts: &Options) -> ExitCode {
    // --duration-ms D shrinks both the settle and measurement windows
    // (CI smoke); the full run uses the fixed defaults.
    let (warm_ms, window_ms) = match opts.duration_ms {
        Some(d) => (
            (d / 2).max(SKEW_SMOKE_FLOOR_MS),
            (d / 2).max(SKEW_SMOKE_FLOOR_MS),
        ),
        None => (SKEW_WARM_MS, SKEW_WINDOW_MS),
    };
    let smoke = opts.duration_ms.is_some();
    let cum = skew_zipf_cumulative(SKEW_KEYS);
    let (base, seeds, expected) = skew_pick_seeds(&cum);
    println!(
        "skew-bench: {SKEW_KEYS} zipf keys from seed base {base} \
         (expected static imbalance {expected:.2}), {SKEW_BACKENDS} backends x \
         {SKEW_VNODES} vnodes, settle {warm_ms} ms + window {window_ms} ms"
    );
    let seeds = Arc::new(seeds);
    let cum = Arc::new(cum);

    let settings = gb_rebal::RebalanceSettings {
        interval: Duration::from_millis(SKEW_REBAL_INTERVAL_MS),
        trigger: SKEW_TRIGGER,
        move_budget: SKEW_BUDGET,
        ..gb_rebal::RebalanceSettings::default()
    };
    let phase = |label, rebalance| {
        let result = skew_phase(label, rebalance, &seeds, &cum, warm_ms, window_ms);
        if let Ok(p) = &result {
            println!(
                "  {label:<18} imbalance {:.3}  ({} requests)",
                p.imbalance, p.requests
            );
        }
        result
    };
    let (rebalanced, control) = match (|| {
        Ok::<_, String>((
            phase("rebalanced", Some(settings.clone()))?,
            phase("static control", None)?,
        ))
    })() {
        Ok(phases) => phases,
        Err(e) => {
            eprintln!("skew-bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let max_tick_moves = rebalanced
        .rebal
        .as_ref()
        .and_then(|r| r.get("max_tick_moves"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let ticks = rebalanced
        .rebal
        .as_ref()
        .and_then(|r| r.get("ticks"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    // No backend dies in this bench, so every move is voluntary and the
    // per-tick budget is a hard cap.
    let moves_ok = max_tick_moves <= SKEW_BUDGET as u64;
    let pass = if smoke {
        // Smoke gate: rebalancing must beat the static ring, and the
        // tick loop must actually have run.
        rebalanced.imbalance < control.imbalance && ticks > 0 && moves_ok
    } else {
        rebalanced.imbalance <= SKEW_REBAL_GATE
            && control.imbalance >= SKEW_CONTROL_GATE
            && ticks > 0
            && moves_ok
    };
    println!(
        "skew-bench: rebalanced {:.3} (gate <= {SKEW_REBAL_GATE}) vs static {:.3} \
         (gate >= {SKEW_CONTROL_GATE}); max tick moves {max_tick_moves} \
         (budget {SKEW_BUDGET}) — {}",
        rebalanced.imbalance,
        control.imbalance,
        if pass { "pass" } else { "FAILED" }
    );

    let report = Json::Obj(vec![
        (
            "schema".into(),
            Json::Str("gb-service/bench-skew/v1".into()),
        ),
        (
            "config".into(),
            Json::Obj(vec![
                ("backends".into(), Json::Int(SKEW_BACKENDS as i64)),
                ("backend_vnodes".into(), Json::Int(SKEW_VNODES as i64)),
                ("workers".into(), Json::Int(SKEW_WORKERS as i64)),
                ("keys".into(), Json::Int(SKEW_KEYS as i64)),
                ("zipf_s".into(), Json::Num(1.0)),
                ("seed_base".into(), Json::Int(base as i64)),
                ("expected_static_imbalance".into(), Json::Num(expected)),
                ("clients".into(), Json::Int(SKEW_CLIENTS as i64)),
                ("n".into(), Json::Int(SKEW_N as i64)),
                ("warm_ms".into(), Json::Int(warm_ms as i64)),
                ("window_ms".into(), Json::Int(window_ms as i64)),
                (
                    "rebalance_interval_ms".into(),
                    Json::Int(SKEW_REBAL_INTERVAL_MS as i64),
                ),
                ("trigger".into(), Json::Num(SKEW_TRIGGER)),
                ("move_budget".into(), Json::Int(SKEW_BUDGET as i64)),
                ("smoke".into(), Json::Bool(smoke)),
            ]),
        ),
        ("rebalanced".into(), rebalanced.to_json()),
        ("static_control".into(), control.to_json()),
        (
            "assertion".into(),
            Json::Obj(vec![
                ("rebalanced_gate".into(), Json::Num(SKEW_REBAL_GATE)),
                ("control_gate".into(), Json::Num(SKEW_CONTROL_GATE)),
                (
                    "rebalanced_imbalance".into(),
                    Json::Num(rebalanced.imbalance),
                ),
                ("control_imbalance".into(), Json::Num(control.imbalance)),
                ("max_tick_moves".into(), Json::Int(max_tick_moves as i64)),
                ("move_budget".into(), Json::Int(SKEW_BUDGET as i64)),
                ("pass".into(), Json::Bool(pass)),
            ]),
        ),
    ]);
    let out = if opts.out == "BENCH_serving.json" {
        "results/BENCH_skew.json"
    } else {
        opts.out.as_str()
    };
    if let Some(parent) = Path::new(out).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    if let Err(e) = std::fs::write(out, report.encode_pretty() + "\n") {
        eprintln!("skew-bench: failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("skew-bench: wrote {out}");
    if pass {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "skew-bench: FAILED — rebalanced {:.3} vs static {:.3} (ticks {ticks}, \
             max tick moves {max_tick_moves})",
            rebalanced.imbalance, control.imbalance
        );
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// --router-bench: the cross-process router-tier experiment behind
// results/BENCH_router.json
// ---------------------------------------------------------------------------

const RB_VNODES: usize = 32;
const RB_CLIENTS: usize = 8;
const RB_REQUESTS: usize = 8_000;
const RB_SMOKE_REQUESTS: usize = 1_500;
const RB_DISTINCT: u64 = 64;
/// Cold-pass partition size: large enough that every request costs real
/// solver time, so the comparison measures the tier's overhead against
/// the work it fronts (the hot pass isolates the per-hop overhead
/// itself).
const RB_COLD_N: usize = 256;
const RB_COLD_REQUESTS: usize = 4_000;
const RB_SMOKE_COLD_REQUESTS: usize = 800;
const RB_FLOOD_THREADS: usize = 3;
const RB_STALL_MS: u64 = 40;
const RB_HEDGE_MS: u64 = 5;
const RB_TAIL_PROBES: usize = 24;
const RB_SMOKE_TAIL_PROBES: usize = 10;

/// Locates a sibling binary of this loadgen (`target/<profile>/<name>`),
/// building the owning package on demand if it is missing.
fn sibling_binary(name: &str, package: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("loadgen has no parent dir")?;
    let bin = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut args: Vec<String> = ["build", "-p", package, "--bin", name]
            .iter()
            .map(|s| s.to_string())
            .collect();
        if !cfg!(debug_assertions) {
            args.push("--release".into());
        }
        let status = std::process::Command::new(cargo)
            .args(&args)
            .status()
            .map_err(|e| format!("cargo build {name}: {e}"))?;
        if !status.success() {
            return Err(format!("building {name} failed"));
        }
    }
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{name} missing at {}", bin.display()))
    }
}

/// A spawned child daemon (`gb-serve` or `gb-router`); killed on drop if
/// it has not already exited.
struct ChildProc {
    child: std::process::Child,
    addr: std::net::SocketAddr,
    // Holding the pipe open keeps the child's shutdown println from
    // landing on a closed fd.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ChildProc {
    fn spawn(bin: &Path, args: &[String]) -> Result<ChildProc, String> {
        let mut child = std::process::Command::new(bin)
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .map_err(|e| format!("read banner from {}: {e}", bin.display()))?;
        // Both daemons print "<name> listening on HOST:PORT ...".
        let addr = banner
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected banner {banner:?}"))?;
        Ok(ChildProc {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// The child's OS pid (for /proc CPU accounting).
    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL — the hard-crash case.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits up to `timeout` for a voluntary exit (a forwarded shutdown
    /// frame), then falls back to killing.
    fn wait_or_kill(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(25)),
                _ => {
                    self.kill();
                    return;
                }
            }
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn spawn_serve_child(extra: &[&str]) -> Result<ChildProc, String> {
    let bin = sibling_binary("gb-serve", "gb-service")?;
    let mut args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "4",
        "--pool-threads",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(extra.iter().map(|s| s.to_string()));
    ChildProc::spawn(&bin, &args)
}

/// `--hedge-ms 0` disables hedging; `--wait-upstreams-ms` makes the
/// spawn order race-free (the banner only prints once the fleet answers).
fn spawn_router_child(
    upstreams: &[std::net::SocketAddr],
    hedge_ms: u64,
) -> Result<ChildProc, String> {
    let bin = sibling_binary("gb-router", "gb-router")?;
    let mut args: Vec<String> = Vec::new();
    for (flag, value) in [
        ("--addr", "127.0.0.1:0".to_string()),
        ("--vnodes", RB_VNODES.to_string()),
        ("--health-interval-ms", "50".into()),
        ("--probe-timeout-ms", "250".into()),
        ("--fail-threshold", "2".into()),
        ("--poll-interval-ms", "20".into()),
        ("--hedge-ms", hedge_ms.to_string()),
        ("--wait-upstreams-ms", "3000".into()),
    ] {
        args.push(flag.into());
        args.push(value);
    }
    for upstream in upstreams {
        args.push("--upstream".into());
        args.push(upstream.to_string());
    }
    ChildProc::spawn(&bin, &args)
}

/// Sends a `shutdown` frame; a router forwards it to its upstreams.
fn send_shutdown(addr: std::net::SocketAddr) {
    let _ = Client::connect(addr).and_then(|mut c| c.call(&Request::Shutdown));
}

struct RouterPass {
    answered: u64,
    ok: u64,
    errors: u64,
    elapsed_s: f64,
    rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
}

impl RouterPass {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("requests".into(), Json::Int(self.answered as i64)),
            ("ok".into(), Json::Int(self.ok as i64)),
            ("errors".into(), Json::Int(self.errors as i64)),
            ("elapsed_s".into(), Json::Num(self.elapsed_s)),
            ("throughput_rps".into(), Json::Num(self.rps)),
            ("p50_us".into(), Json::Int(self.p50_us as i64)),
            ("p95_us".into(), Json::Int(self.p95_us as i64)),
            ("p99_us".into(), Json::Int(self.p99_us as i64)),
            ("max_us".into(), Json::Int(self.max_us as i64)),
        ])
    }
}

/// One request of the throughput workload. The hot pass cycles a warmed
/// `RB_DISTINCT`-key working set (nearly every answer is a cache hit, so
/// the measured cost is the serving/proxy path itself); the cold pass
/// gives every request a unique seed at a heavier `n`, so each one costs
/// real solver time and the router's overhead is measured against the
/// work it fronts.
fn rb_request(index: usize, cold: bool) -> Request {
    if cold {
        Request::Balance(BalanceRequest {
            id: Some(index as u64),
            algorithm: Algorithm::Hf,
            n: RB_COLD_N,
            theta: 1.0,
            deadline_ms: None,
            want_pieces: false,
            problem: ProblemSpec::Synthetic {
                weight: 1.0,
                lo: 0.2,
                hi: 0.5,
                seed: 10_000_000 + index as u64,
            },
        })
    } else {
        bench_request(index as u64, index as u64 % RB_DISTINCT)
    }
}

/// A throughput pass from `RB_CLIENTS` synchronous connections. Both the
/// direct and the proxied phase see the identical workload, so the ratio
/// of their rates is the router's overhead.
fn router_throughput(
    addr: std::net::SocketAddr,
    requests: usize,
    cold: bool,
) -> Result<RouterPass, String> {
    if !cold {
        let mut client = Client::connect(addr).map_err(|e| format!("warm connect: {e}"))?;
        for seed in 0..RB_DISTINCT {
            match client
                .call(&bench_request(seed, seed))
                .map_err(|e| format!("warm call: {e}"))?
            {
                Response::Ok(_) => {}
                other => return Err(format!("warm: unexpected {other:?}")),
            }
        }
    }
    let counter = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_index in 0..RB_CLIENTS {
        let counter = Arc::clone(&counter);
        handles.push(thread::spawn(move || -> Result<ClientTally, String> {
            let mut client =
                Client::connect(addr).map_err(|e| format!("client {client_index}: {e}"))?;
            let mut tally = ClientTally::default();
            loop {
                let index = counter.fetch_add(1, Ordering::Relaxed);
                if index >= requests {
                    break;
                }
                let sent = Instant::now();
                match client
                    .call(&rb_request(index, cold))
                    .map_err(|e| format!("client {client_index}: call: {e}"))?
                {
                    Response::Ok(_) => tally.ok += 1,
                    Response::Error { code, .. } => tally.record_error(code),
                    other => return Err(format!("client {client_index}: unexpected {other:?}")),
                }
                tally
                    .latencies_us
                    .push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
            }
            Ok(tally)
        }));
    }
    let mut ok = 0u64;
    let mut errors = 0u64;
    let mut latencies = Vec::new();
    for handle in handles {
        let tally = handle.join().expect("throughput client panicked")?;
        ok += tally.ok;
        errors += tally.errors.iter().map(|(_, n)| n).sum::<u64>();
        latencies.extend(tally.latencies_us);
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    let answered = latencies.len() as u64;
    Ok(RouterPass {
        answered,
        ok,
        errors,
        elapsed_s: elapsed.as_secs_f64(),
        rps: answered as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
    })
}

/// Cold seeds >= `base` whose keys the two-upstream ring pins to `owner`
/// (the same ring + key derivation `gb-router` uses).
fn rb_seeds_pinned_to(owner: u32, base: u64, count: usize) -> Vec<u64> {
    let ring = Router::new(2, RB_VNODES);
    (base..)
        .filter(|&s| ring.route(shard_cache_key(s, BENCH_N).mix()) == owner)
        .take(count)
        .collect()
}

/// Reads `router.<name>` out of a router stats snapshot.
fn router_counter(stats: &Json, name: &str) -> Option<u64> {
    stats.get("router")?.get(name)?.as_u64()
}

/// SIGKILL one upstream under a pinned flood through the router; report
/// the client-visible error count and the vnode re-home window.
fn router_failover_phase() -> Result<Json, String> {
    let survivor = spawn_serve_child(&[])?;
    let mut victim = spawn_serve_child(&[])?;
    let mut router = spawn_router_child(&[survivor.addr, victim.addr], 0)?;
    let addr = router.addr;

    // The victim is upstream id 1; pin the whole flood onto it.
    let stop = Arc::new(AtomicBool::new(false));
    let oks = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let mut floods = Vec::new();
    for t in 0..RB_FLOOD_THREADS {
        let seeds = rb_seeds_pinned_to(1, 70_000_000 + t as u64 * 1_000_000, 4_000);
        let (stop, oks, errors) = (stop.clone(), oks.clone(), errors.clone());
        floods.push(thread::spawn(move || {
            let Ok(mut client) = Client::connect(addr) else {
                errors.fetch_add(1, Ordering::Relaxed);
                return;
            };
            for seed in seeds {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                match client.call(&bench_request(seed, seed)) {
                    Ok(Response::Ok(_)) => {
                        oks.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        if let Ok(fresh) = Client::connect(addr) {
                            client = fresh;
                        }
                    }
                }
            }
        }));
    }

    thread::sleep(Duration::from_millis(300));
    let killed_at = Instant::now();
    victim.kill();
    // The re-home window: how long until the router's ring drops to one
    // alive upstream.
    let mut window_ms = None;
    let deadline = killed_at + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Some(stats) = fetch_stats(addr) {
            if router_counter(&stats, "alive") == Some(1) {
                window_ms = Some(killed_at.elapsed().as_millis() as u64);
                break;
            }
        }
        thread::sleep(Duration::from_millis(5));
    }
    thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for flood in floods {
        flood.join().expect("flood thread panicked");
    }
    let stats = fetch_stats(addr);
    let failovers = stats
        .as_ref()
        .and_then(|s| router_counter(s, "failovers"))
        .unwrap_or(0);
    let retries = stats
        .as_ref()
        .and_then(|s| router_counter(s, "retries"))
        .unwrap_or(0);

    send_shutdown(addr);
    router.wait_or_kill(Duration::from_secs(3));

    let ok_count = oks.load(Ordering::Relaxed) as u64;
    let err_count = errors.load(Ordering::Relaxed) as u64;
    let window = window_ms.ok_or("router never re-homed the dead upstream's vnodes")?;
    println!(
        "  failover: {ok_count} ok, {err_count} client-visible errors across the kill, \
         re-home window {window} ms ({retries} in-request retries)"
    );
    if failovers == 0 {
        return Err("router never counted a failover".into());
    }
    if err_count > 2 * RB_FLOOD_THREADS as u64 {
        return Err(format!(
            "failover lost {err_count} requests; the loss bound is the flood's concurrency"
        ));
    }
    Ok(Json::Obj(vec![
        ("flood_threads".into(), Json::Int(RB_FLOOD_THREADS as i64)),
        ("ok".into(), Json::Int(ok_count as i64)),
        ("client_errors".into(), Json::Int(err_count as i64)),
        ("error_bound".into(), Json::Int(2 * RB_FLOOD_THREADS as i64)),
        ("rehome_window_ms".into(), Json::Int(window as i64)),
        ("failovers".into(), Json::Int(failovers as i64)),
        ("in_request_retries".into(), Json::Int(retries as i64)),
    ]))
}

/// Tail latency of cold requests pinned to a stalled upstream, with the
/// given hedge delay (0 = off). Returns the phase report and its p99.
fn router_tail_phase(hedge_ms: u64, probes: usize, base: u64) -> Result<(Json, u64), String> {
    let stall = RB_STALL_MS.to_string();
    let stalled = spawn_serve_child(&["--stall-ms", &stall])?;
    let clean = spawn_serve_child(&[])?;
    let mut router = spawn_router_child(&[stalled.addr, clean.addr], hedge_ms)?;
    let addr = router.addr;

    let mut client = Client::connect(addr).map_err(|e| format!("tail connect: {e}"))?;
    let mut latencies = Vec::with_capacity(probes);
    for (i, seed) in rb_seeds_pinned_to(0, base, probes).into_iter().enumerate() {
        let sent = Instant::now();
        match client
            .call(&bench_request(i as u64, seed))
            .map_err(|e| format!("tail call: {e}"))?
        {
            Response::Ok(_) => {}
            other => return Err(format!("tail: unexpected {other:?}")),
        }
        latencies.push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
    }
    let stats = fetch_stats(addr);
    let hedges_sent = stats
        .as_ref()
        .and_then(|s| router_counter(s, "hedges_sent"))
        .unwrap_or(0);
    let hedges_won = stats
        .as_ref()
        .and_then(|s| router_counter(s, "hedges_won"))
        .unwrap_or(0);
    send_shutdown(addr);
    router.wait_or_kill(Duration::from_secs(3));

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "  tail (hedge {}): p50 {p50} us  p99 {p99} us  (hedges sent {hedges_sent}, won {hedges_won})",
        if hedge_ms == 0 {
            "off".into()
        } else {
            format!("{hedge_ms} ms")
        }
    );
    let report = Json::Obj(vec![
        ("hedge_ms".into(), Json::Int(hedge_ms as i64)),
        ("stall_ms".into(), Json::Int(RB_STALL_MS as i64)),
        ("probes".into(), Json::Int(latencies.len() as i64)),
        ("p50_us".into(), Json::Int(p50 as i64)),
        ("p99_us".into(), Json::Int(p99 as i64)),
        (
            "max_us".into(),
            Json::Int(latencies.last().copied().unwrap_or(0) as i64),
        ),
        ("hedges_sent".into(), Json::Int(hedges_sent as i64)),
        ("hedges_won".into(), Json::Int(hedges_won as i64)),
    ]);
    Ok((report, p99))
}

fn run_router_bench(opts: &Options) -> ExitCode {
    let smoke = opts.duration_ms.is_some();
    let requests = if smoke {
        RB_SMOKE_REQUESTS
    } else {
        RB_REQUESTS
    };
    let probes = if smoke {
        RB_SMOKE_TAIL_PROBES
    } else {
        RB_TAIL_PROBES
    };
    let cold_requests = if smoke {
        RB_SMOKE_COLD_REQUESTS
    } else {
        RB_COLD_REQUESTS
    };
    match router_bench_report(requests, cold_requests, probes) {
        Ok(report) => {
            let out = if opts.out == "BENCH_serving.json" {
                "results/BENCH_router.json"
            } else {
                opts.out.as_str()
            };
            if let Some(parent) = Path::new(out).parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            if let Err(e) = std::fs::write(out, report.encode_pretty() + "\n") {
                eprintln!("router-bench: failed to write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("router-bench: wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("router-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One throughput comparison = a direct pass against one gb-serve
/// child, then the identical workload proxied through gb-router over
/// two upstream children (one extra hop, no re-parse).
fn router_compare(
    label: &str,
    count: usize,
    cold: bool,
) -> Result<(RouterPass, RouterPass, f64), String> {
    println!("router-bench: {count} {label} requests over {RB_CLIENTS} clients, direct vs proxied");
    let direct = {
        let mut upstream = spawn_serve_child(&[])?;
        let pass = router_throughput(upstream.addr, count, cold)?;
        send_shutdown(upstream.addr);
        upstream.wait_or_kill(Duration::from_secs(3));
        pass
    };
    println!(
        "  direct:  {:>8.0} req/s  p50 {} us  p99 {} us",
        direct.rps, direct.p50_us, direct.p99_us
    );
    let proxied = {
        let a = spawn_serve_child(&[])?;
        let b = spawn_serve_child(&[])?;
        let mut router = spawn_router_child(&[a.addr, b.addr], 0)?;
        let pass = router_throughput(router.addr, count, cold)?;
        // The router forwards the shutdown to both upstreams.
        send_shutdown(router.addr);
        router.wait_or_kill(Duration::from_secs(3));
        pass
    };
    let ratio = proxied.rps / direct.rps.max(1e-9);
    println!(
        "  proxied: {:>8.0} req/s  p50 {} us  p99 {} us  ({ratio:.2}x of direct)",
        proxied.rps, proxied.p50_us, proxied.p99_us
    );
    Ok((direct, proxied, ratio))
}

fn router_bench_report(
    requests: usize,
    cold_requests: usize,
    probes: usize,
) -> Result<Json, String> {
    // The hot pass isolates the per-hop cost (nearly every request is a
    // cache hit, so proxy overhead is ALL there is to measure); it is
    // reported, not gated. The cold pass is the acceptance comparison:
    // requests cost real solver time, the regime the tier exists for.
    let (hot_direct, hot_proxied, hot_ratio) = router_compare("hot-cache", requests, false)?;
    let added = hot_proxied.p50_us.saturating_sub(hot_direct.p50_us);
    println!("  per-request overhead at p50: +{added} us");
    let (cold_direct, cold_proxied, cold_ratio) = router_compare("cold-miss", cold_requests, true)?;
    if cold_ratio < 0.5 {
        return Err(format!(
            "proxied cold-miss throughput is {cold_ratio:.2}x of direct; \
             the router must stay within 2x"
        ));
    }

    // Phase 3: SIGKILL one upstream under a pinned flood.
    println!("router-bench: failover (SIGKILL one upstream mid-flood)");
    let failover = router_failover_phase()?;

    // Phase 4: tail latency against a stalled upstream, hedging off vs on.
    println!("router-bench: tail latency vs a {RB_STALL_MS} ms stalled upstream");
    let (unhedged, unhedged_p99) = router_tail_phase(0, probes, 80_000_000)?;
    let (hedged, hedged_p99) = router_tail_phase(RB_HEDGE_MS, probes, 90_000_000)?;
    if hedged_p99 >= unhedged_p99 {
        return Err(format!(
            "hedging must cut tail latency: hedged p99 {hedged_p99} us >= \
             unhedged p99 {unhedged_p99} us"
        ));
    }
    println!(
        "  hedging cut p99 {unhedged_p99} us -> {hedged_p99} us ({:.1}x)",
        unhedged_p99 as f64 / hedged_p99.max(1) as f64
    );

    Ok(Json::Obj(vec![
        (
            "schema".into(),
            Json::Str("gb-service/bench-router/v1".into()),
        ),
        (
            "config".into(),
            Json::Obj(vec![
                ("clients".into(), Json::Int(RB_CLIENTS as i64)),
                ("requests".into(), Json::Int(requests as i64)),
                ("distinct".into(), Json::Int(RB_DISTINCT as i64)),
                ("n".into(), Json::Int(BENCH_N as i64)),
                ("cold_requests".into(), Json::Int(cold_requests as i64)),
                ("cold_n".into(), Json::Int(RB_COLD_N as i64)),
                ("vnodes".into(), Json::Int(RB_VNODES as i64)),
                ("upstreams".into(), Json::Int(2)),
                ("upstream_workers".into(), Json::Int(4)),
            ]),
        ),
        (
            "throughput".into(),
            Json::Obj(vec![
                (
                    // Cache-hit workload: isolates the per-hop proxy cost
                    // (reported, not gated — on one core the extra hop's
                    // context switches dominate a ~200 us request).
                    "hot".into(),
                    Json::Obj(vec![
                        ("direct".into(), hot_direct.to_json()),
                        ("proxied".into(), hot_proxied.to_json()),
                        ("proxied_over_direct".into(), Json::Num(hot_ratio)),
                        ("added_p50_us".into(), Json::Int(added as i64)),
                    ]),
                ),
                (
                    // Cache-miss workload: every request pays real solver
                    // time (n = RB_COLD_N), the regime the tier serves.
                    "cold".into(),
                    Json::Obj(vec![
                        ("direct".into(), cold_direct.to_json()),
                        ("proxied".into(), cold_proxied.to_json()),
                        ("proxied_over_direct".into(), Json::Num(cold_ratio)),
                        ("min_ratio".into(), Json::Num(0.5)),
                    ]),
                ),
            ]),
        ),
        ("failover".into(), failover),
        (
            "tail_latency".into(),
            Json::Obj(vec![
                ("unhedged".into(), unhedged),
                ("hedged".into(), hedged),
                (
                    "p99_speedup".into(),
                    Json::Num(unhedged_p99 as f64 / hedged_p99.max(1) as f64),
                ),
            ]),
        ),
    ]))
}

// ---------------------------------------------------------------------------
// --soak: the mostly-idle connection-scaling experiment behind
// results/BENCH_soak.json
// ---------------------------------------------------------------------------

/// Measurement window when no `--duration-ms` cap is set.
const SOAK_WINDOW_MS: u64 = 10_000;
/// Interval between requests on each active connection: slow enough
/// that the herd stays >99% idle, fast enough for a real p99 sample.
const SOAK_PACE: Duration = Duration::from_millis(100);
/// Gates: over the window the epoll pollers must burn at most this
/// fraction of the committed sweep pollers' CPU share, without giving
/// back active-path latency.
const SOAK_MAX_CPU_RATIO: f64 = 0.2;
const SOAK_MAX_P99_RATIO: f64 = 1.2;

/// A committed sweep-loop soak, measured when the sweep loop was still
/// selectable as an engine of its own. Only these shapes can be gated.
struct SoakBaseline {
    conns: usize,
    active: usize,
    window_ms: u64,
    /// Share of one core the sweep io poller burned over the window.
    io_cpu_frac: f64,
    p99_us: u64,
    /// Where the figures come from.
    source: &'static str,
}

const SOAK_BASELINES: [SoakBaseline; 2] = [
    // `results/BENCH_soak.json`, `sweep` section.
    SoakBaseline {
        conns: 10_000,
        active: 100,
        window_ms: 10_000,
        io_cpu_frac: 0.611,
        p99_us: 89_766,
        source: "results/BENCH_soak.json",
    },
    // The CI smoke shape, measured once with the sweep engine on a
    // 2-core x86_64 Linux container (0.770 s of io-poller CPU over the
    // 5 s window, 1020 active requests).
    SoakBaseline {
        conns: 2_000,
        active: 20,
        window_ms: 5_000,
        io_cpu_frac: 0.154,
        p99_us: 13_214,
        source: "sweep engine, 2k conns / 5 s, measured once",
    },
];

struct SoakPhase {
    engine: String,
    io_cpu_s: f64,
    io_cpu_frac: f64,
    window_s: f64,
    requests: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    open_conns: u64,
    accept_errors: u64,
}

impl SoakPhase {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("engine".into(), Json::Str(self.engine.clone())),
            ("io_cpu_s".into(), Json::Num(self.io_cpu_s)),
            ("io_cpu_frac".into(), Json::Num(self.io_cpu_frac)),
            ("window_s".into(), Json::Num(self.window_s)),
            ("requests".into(), Json::Int(self.requests as i64)),
            ("p50_us".into(), Json::Int(self.p50_us as i64)),
            ("p95_us".into(), Json::Int(self.p95_us as i64)),
            ("p99_us".into(), Json::Int(self.p99_us as i64)),
            ("open_conns".into(), Json::Int(self.open_conns as i64)),
            ("accept_errors".into(), Json::Int(self.accept_errors as i64)),
        ])
    }
}

/// Connects with retries: a mass connect can transiently overflow the
/// listener backlog while the accepting poller catches up.
fn soak_connect(addr: std::net::SocketAddr) -> std::io::Result<TcpStream> {
    let mut delay = Duration::from_millis(1);
    for _ in 0..60 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(_) => {
                thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
        }
    }
    TcpStream::connect(addr)
}

/// The soak: a real `gb-serve` child (its own fd budget), a herd of
/// idle connections, an active minority paced at [`SOAK_PACE`], and
/// the io-poller CPU delta over the window.
fn soak_phase(conns: usize, active: usize, window: Duration) -> Result<SoakPhase, String> {
    let mut server = spawn_serve_child(&["--io-threads", "1"])?;
    let addr = server.addr;
    let pid = server.pid();
    let engine = fetch_stats(addr)
        .and_then(|s| Some(s.get("engine")?.as_str()?.to_string()))
        .ok_or("soak: child stats carry no engine")?;

    // Warm the one hot key so active requests measure wakeup-to-reply
    // latency, not solver time.
    Client::connect(addr)
        .and_then(|mut c| c.call(&bench_request(0, 0)))
        .map_err(|e| format!("soak[{engine}]: warm: {e}"))?;

    println!("soak[{engine}]: opening {conns} connections ({active} active)");
    let idle_count = conns.saturating_sub(active);
    let mut idle: Vec<TcpStream> = Vec::with_capacity(idle_count);
    for i in 0..idle_count {
        idle.push(soak_connect(addr).map_err(|e| format!("soak[{engine}]: conn {i}: {e}"))?);
    }
    let open_conns = fetch_stats(addr)
        .and_then(|s| s.get("connections")?.get("open")?.as_u64())
        .unwrap_or(0);

    // The active minority: one paced client per connection. CPU is
    // sampled strictly inside the driving interval, after a settle.
    let stop = Arc::new(AtomicBool::new(false));
    let drivers: Vec<_> = (0..active)
        .map(|i| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || -> Result<Vec<u64>, String> {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("active {i}: connect: {e}"))?;
                let mut latencies = Vec::new();
                let mut id = (i as u64) << 32;
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    client
                        .call(&bench_request(id, 0))
                        .map_err(|e| format!("active {i}: call: {e}"))?;
                    latencies.push(t.elapsed().as_micros() as u64);
                    id += 1;
                    thread::sleep(SOAK_PACE);
                }
                Ok(latencies)
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(500));
    let cpu0 = gb_sys::thread_cpu_seconds(pid, "gb-serve-io-")
        .map_err(|e| format!("soak[{engine}]: cpu sample: {e}"))?;
    let t0 = Instant::now();
    thread::sleep(window);
    let window_s = t0.elapsed().as_secs_f64();
    let cpu1 = gb_sys::thread_cpu_seconds(pid, "gb-serve-io-")
        .map_err(|e| format!("soak[{engine}]: cpu sample: {e}"))?;

    stop.store(true, Ordering::Relaxed);
    let mut latencies: Vec<u64> = Vec::new();
    for driver in drivers {
        latencies.extend(driver.join().map_err(|_| "active client panicked")??);
    }
    latencies.sort_unstable();

    let accept_errors = fetch_stats(addr)
        .and_then(|s| s.get("faults")?.get("accept_errors")?.as_u64())
        .unwrap_or(0);

    // Close the herd before asking for shutdown so the drain is instant.
    drop(idle);
    send_shutdown(addr);
    server.wait_or_kill(Duration::from_secs(5));

    let io_cpu_s = (cpu1 - cpu0).max(0.0);
    let phase = SoakPhase {
        engine,
        io_cpu_s,
        io_cpu_frac: io_cpu_s / window_s.max(1e-9),
        window_s,
        requests: latencies.len() as u64,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        open_conns,
        accept_errors,
    };
    println!(
        "soak[{}]: io cpu {:.3}s over {:.1}s ({:.1}% of a core), \
         {} requests, p50 {} us, p99 {} us",
        phase.engine,
        phase.io_cpu_s,
        phase.window_s,
        phase.io_cpu_frac * 100.0,
        phase.requests,
        phase.p50_us,
        phase.p99_us
    );
    Ok(phase)
}

fn run_soak(opts: &Options) -> ExitCode {
    let conns = opts.conns;
    let active = if opts.active > 0 {
        opts.active
    } else {
        (conns / 100).max(1)
    };
    let window = Duration::from_millis(opts.duration_ms.unwrap_or(SOAK_WINDOW_MS));
    let Some(sweep) = SOAK_BASELINES
        .iter()
        .find(|b| b.conns == conns && b.active == active)
    else {
        let shapes: Vec<String> = SOAK_BASELINES
            .iter()
            .map(|b| format!("--conns {} (active {})", b.conns, b.active))
            .collect();
        eprintln!(
            "soak: no committed sweep baseline for {conns} conns / {active} active; \
             gated shapes: {}",
            shapes.join(", ")
        );
        return ExitCode::FAILURE;
    };
    // Client-side fd headroom for the herd (best-effort: the child
    // server raises its own limit the same way).
    let _ = gb_sys::raise_nofile_limit(conns as u64 + 4096);

    let epoll = match soak_phase(conns, active, window) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("soak: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cpu_ratio = epoll.io_cpu_frac / sweep.io_cpu_frac;
    let p99_ratio = epoll.p99_us as f64 / sweep.p99_us as f64;
    let pass = cpu_ratio <= SOAK_MAX_CPU_RATIO && p99_ratio <= SOAK_MAX_P99_RATIO;
    let report = Json::Obj(vec![
        (
            "schema".into(),
            Json::Str("gb-service/bench-soak/v1".into()),
        ),
        (
            "config".into(),
            Json::Obj(vec![
                ("conns".into(), Json::Int(conns as i64)),
                ("active".into(), Json::Int(active as i64)),
                ("window_ms".into(), Json::Int(window.as_millis() as i64)),
                ("pace_ms".into(), Json::Int(SOAK_PACE.as_millis() as i64)),
                ("io_threads".into(), Json::Int(1)),
                ("upstream_workers".into(), Json::Int(4)),
            ]),
        ),
        (
            "sweep".into(),
            Json::Obj(vec![
                ("engine".into(), Json::Str("sweep".into())),
                ("source".into(), Json::Str(sweep.source.into())),
                ("window_ms".into(), Json::Int(sweep.window_ms as i64)),
                ("io_cpu_frac".into(), Json::Num(sweep.io_cpu_frac)),
                ("p99_us".into(), Json::Int(sweep.p99_us as i64)),
            ]),
        ),
        ("epoll".into(), epoll.to_json()),
        (
            "assertion".into(),
            Json::Obj(vec![
                ("cpu_ratio".into(), Json::Num(cpu_ratio)),
                ("max_cpu_ratio".into(), Json::Num(SOAK_MAX_CPU_RATIO)),
                ("p99_ratio".into(), Json::Num(p99_ratio)),
                ("max_p99_ratio".into(), Json::Num(SOAK_MAX_P99_RATIO)),
                ("pass".into(), Json::Bool(pass)),
            ]),
        ),
    ]);

    let out = if opts.out == "BENCH_serving.json" {
        "results/BENCH_soak.json"
    } else {
        opts.out.as_str()
    };
    if let Some(parent) = Path::new(out).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    if let Err(e) = std::fs::write(out, report.encode_pretty() + "\n") {
        eprintln!("soak: failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("soak: wrote {out}");
    if pass {
        println!(
            "soak: epoll io cpu is {cpu_ratio:.3}x of the committed sweep figure \
             (max {SOAK_MAX_CPU_RATIO}), active p99 {p99_ratio:.2}x (max {SOAK_MAX_P99_RATIO})"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "soak: FAILED — epoll io cpu {cpu_ratio:.3}x of the committed sweep figure \
             (max {SOAK_MAX_CPU_RATIO}), active p99 {p99_ratio:.2}x (max {SOAK_MAX_P99_RATIO})"
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = Arc::new(parse_args());
    if opts.soak {
        return run_soak(&opts);
    }
    if opts.warm_bench {
        return run_warm_bench(&opts);
    }
    if opts.shard_bench {
        return run_shard_bench(&opts);
    }
    if opts.skew_bench {
        return run_skew_bench(&opts);
    }
    if opts.router_bench {
        return run_router_bench(&opts);
    }
    if opts.bench {
        return run_bench(&opts);
    }
    if opts.codec_bench {
        return run_codec_bench(&opts);
    }

    // Claimed before the server starts; dropped (removing a directory
    // this run created) after everything below finishes.
    let store_guard = opts.store_dir.as_deref().map(StoreDir::claim);

    // Spawn an in-process server unless one was pointed at.
    let local_server = if opts.addr.is_none() {
        let mut tuning = Tuning {
            backends: opts.backends,
            backend_vnodes: opts.backend_vnodes,
            ..Tuning::default()
        };
        if let Some(guard) = &store_guard {
            let mut settings = StoreSettings::new(&guard.path);
            if let Some(sync) = opts.store_sync {
                settings.sync = sync;
            }
            tuning.store = Some(settings);
        }
        match Server::start_tuned(ServerConfig::default(), tuning) {
            Ok(s) => {
                println!("loadgen: spawned in-process server on {}", s.local_addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("loadgen: failed to start in-process server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = match &local_server {
        Some(s) => s.local_addr(),
        None => {
            let text = opts.addr.as_deref().expect("addr flag present");
            match text.parse() {
                Ok(a) => a,
                Err(_) => {
                    eprintln!("loadgen: --addr must be HOST:PORT, got {text:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    if opts.warm_load {
        let code = run_warm_load(&opts, addr);
        if let Some(server) = local_server {
            server.shutdown();
        }
        return code;
    }
    if opts.warm_replay {
        let code = run_warm_replay(&opts, addr);
        if let Some(server) = local_server {
            server.shutdown();
        }
        return code;
    }
    if opts.chaos {
        return run_chaos(&opts, addr, local_server);
    }

    println!(
        "loadgen: {} requests over {} clients against {} (n={}, algorithms: {})",
        opts.requests,
        opts.clients,
        addr,
        opts.n,
        opts.algorithms
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(",")
    );

    let started = Instant::now();
    let mut handles = Vec::new();
    for client_index in 0..opts.clients {
        let opts = Arc::clone(&opts);
        handles.push(thread::spawn(move || -> Result<ClientTally, String> {
            // 0 disables the timeout; unset flags keep the client default.
            let timeout = |ms: Option<u64>| match ms {
                Some(0) => None,
                Some(ms) => Some(Duration::from_millis(ms)),
                None => Some(gb_service::client::DEFAULT_TIMEOUT),
            };
            let mut client = Client::connect_timeouts(
                addr,
                timeout(opts.read_timeout_ms),
                timeout(opts.write_timeout_ms),
            )
            .map_err(|e| format!("client {client_index}: connect: {e}"))?;
            client.set_codec(opts.codec);
            let mut tally = ClientTally::default();
            // Request k of client c is global index c + k·K: all clients
            // interleave through the same seed cycle.
            let mut index = client_index;
            while index < opts.requests {
                let request = request_for(&opts, index);
                let sent = Instant::now();
                let response = client
                    .call(&request)
                    .map_err(|e| format!("client {client_index}: call: {e}"))?;
                let us = sent.elapsed().as_micros().min(u64::MAX as u128) as u64;
                tally.latencies_us.push(us);
                match response {
                    Response::Ok(ok) => {
                        tally.ok += 1;
                        if ok.cached {
                            tally.cached += 1;
                        }
                    }
                    Response::Error { code, .. } => tally.record_error(code),
                    other => return Err(format!("client {client_index}: unexpected {other:?}")),
                }
                index += opts.clients;
            }
            Ok(tally)
        }));
    }

    let mut ok = 0u64;
    let mut cached = 0u64;
    let mut errors: Vec<(ErrorCode, u64)> = Vec::new();
    let mut latencies = Vec::with_capacity(opts.requests);
    let mut failures = Vec::new();
    for handle in handles {
        match handle.join().expect("client thread panicked") {
            Ok(tally) => {
                ok += tally.ok;
                cached += tally.cached;
                latencies.extend(tally.latencies_us);
                for (code, count) in tally.errors {
                    match errors.iter_mut().find(|(c, _)| *c == code) {
                        Some((_, n)) => *n += count,
                        None => errors.push((code, count)),
                    }
                }
            }
            Err(e) => failures.push(e),
        }
    }
    let elapsed = started.elapsed();

    let answered = latencies.len() as u64;
    latencies.sort_unstable();
    let throughput = answered as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "loadgen: {answered} responses in {:.3} s  ({throughput:.0} req/s)",
        elapsed.as_secs_f64()
    );
    println!(
        "  ok {ok} (cached {cached}), p50 {} us, p95 {} us, p99 {} us, max {} us",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
        latencies.last().copied().unwrap_or(0),
    );
    for (code, count) in &errors {
        println!("  {}: {count}", code.name());
    }
    for failure in &failures {
        eprintln!("loadgen: {failure}");
    }

    // Ask the server for its own view of the run.
    match Client::connect(addr).and_then(|mut c| c.call(&Request::Stats)) {
        Ok(Response::Stats(stats)) => {
            let hit_rate = stats
                .get("cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            let total = stats
                .get("requests")
                .and_then(|r| r.get("total"))
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
            println!(
                "server: {total} requests served, cache hit rate {:.1}%",
                hit_rate * 100.0
            );
            println!("server stats: {}", stats.encode());
        }
        Ok(other) => eprintln!("loadgen: unexpected stats reply {other:?}"),
        Err(e) => eprintln!("loadgen: stats request failed: {e}"),
    }

    // Snapshot the stats endpoint (a router's rollup included) and/or
    // stop an external server — the CI smoke steps drive both.
    if let Some(path) = &opts.metrics_out {
        match fetch_stats(addr) {
            Some(stats) => match std::fs::write(path, stats.encode_pretty() + "\n") {
                Ok(()) => println!("loadgen: wrote {path}"),
                Err(e) => eprintln!("loadgen: failed to write {path}: {e}"),
            },
            None => eprintln!("loadgen: stats snapshot for {path} failed"),
        }
    }
    if opts.send_shutdown {
        match Client::connect(addr).and_then(|mut c| c.call(&Request::Shutdown)) {
            Ok(_) => println!("loadgen: shutdown frame acknowledged"),
            Err(e) => eprintln!("loadgen: shutdown frame failed: {e}"),
        }
    }

    if let Some(server) = local_server {
        server.shutdown();
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
