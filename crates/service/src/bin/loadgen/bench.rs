//! The seven committed bench scenarios. Each one is a fixed shape (its
//! full run, or with `--smoke` the short CI run), traffic driven through
//! [`Phase`], and gates recorded on one [`Report`].

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gb_core::rng::SplitMix64;
use gb_service::cache::CacheKey;
use gb_service::client::Client;
use gb_service::proto::{Algorithm, BalanceRequest, Json, Request, Response, WireCodec};
use gb_service::route::Router;
use gb_service::server::Tuning;
use gb_service::spec::ProblemSpec;
use gb_store::StoreConfig;

use crate::fleet::{self, fetch_stats, stat_u64};
use crate::report::{int, text, Baseline, Fields, Report};
use crate::runner::{Phase, PhaseStats, Stop, Tally};

/// A scenario runs its full shape, or its smoke shape when passed
/// `true`. `Err` means a phase could not run at all; a failed gate is
/// recorded on the report instead.
type Scenario = fn(bool) -> Result<Report, String>;

/// The bench scenarios by name, in the order `loadgen bench` lists them.
pub const SCENARIOS: [(&str, Scenario); 7] = [
    ("serving", serving),
    ("codec", codec),
    ("store", store),
    ("sharding", sharding),
    ("skew", skew),
    ("router", router),
    ("soak", soak),
];

/// A synthetic-class balance request at processor count `n`. Piece
/// weights are left out: loadgen only needs ratio and bound.
pub fn request(id: u64, algorithm: Algorithm, n: usize, seed: u64) -> Request {
    Request::Balance(BalanceRequest {
        id: Some(id),
        algorithm,
        n,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        problem: spec(seed),
    })
}

/// [`request`] with HF, the algorithm every bench runs.
fn balance(id: u64, n: usize, seed: u64) -> Request {
    request(id, Algorithm::Hf, n, seed)
}

fn spec(seed: u64) -> ProblemSpec {
    ProblemSpec::Synthetic {
        weight: 1.0,
        lo: 0.2,
        hi: 0.5,
        seed,
    }
}

/// The cache key the server derives for [`balance`]`(_, n, seed)` — used
/// to pre-classify seeds by owning upstream with the same ring
/// `gb-router` builds.
fn cache_key(seed: u64, n: usize) -> CacheKey {
    CacheKey::new(spec(seed).fingerprint(), Algorithm::Hf, n, 1.0)
}

/// Request size of the hot-hit workloads.
const BENCH_N: usize = 16;

fn bench_request(id: u64, seed: u64) -> Request {
    balance(id, BENCH_N, seed)
}

/// One sequential pass over the seeds `0..distinct`; fails unless every
/// request is answered `ok`. `cached` counts the warm hits.
pub fn hot_set_pass(addr: SocketAddr, distinct: u64, id_base: u64) -> Result<PhaseStats, String> {
    Phase::new(addr, Stop::after(distinct), move |i| {
        bench_request(id_base + i, i)
    })
    .run()
    .all_ok("hot-set pass")
}

fn ms(d: Duration) -> u64 {
    d.as_millis() as u64
}

// ---------------------------------------------------------------------------
// serving + codec: the hot hit path
// ---------------------------------------------------------------------------

/// Server shape of the hot-hit phases (8 workers, 64 connections).
const BENCH_WORKERS: usize = 8;
const BENCH_CLIENTS: usize = 64;
const BENCH_QUEUE_CAP: usize = 256;
const BENCH_CACHE_CAP: usize = 1024;
const BENCH_DISTINCT: u64 = 16;
/// Requests per hot-hit round; smoke rounds stop at [`BENCH_SMOKE_CAP`].
const BENCH_REQUESTS: u64 = 24_000;
const BENCH_SMOKE_CAP: Duration = Duration::from_millis(500);
/// Requests in flight per connection: a burst of 16 is what a batching
/// client library would send, and it exercises the server's multi-line
/// reads.
const BENCH_PIPELINE: usize = 16;
/// Full runs report the best of this many rounds; smoke runs one.
const BENCH_ROUNDS: usize = 3;
/// The hit-rate probes squeeze traffic through a small cache so the
/// scan actually evicts: 64 slots against a 2 000-key cold scan.
const HITRATE_CACHE_CAP: u64 = 64;
const HITRATE_SCAN_KEYS: u64 = 2_000;

/// The since-deleted thread-per-connection engine on the serving
/// workload. Full serving runs gate JSON hits at 2x its req/s.
const THREADED: Baseline = Baseline {
    value: 39_544.985,
    commit: "a6a9d05",
    what: "threaded engine, hot 16-key JSON hits, best of 3 rounds (req/s)",
};
const SERVING_MIN_SPEEDUP: f64 = 2.0;

/// The event engine's hot-hit throughput before the binary codec and
/// the encoded-reply cache existed. Full codec runs gate binary hits at
/// 2x its req/s.
const PRE_CODEC: Baseline = Baseline {
    value: 104_374.9,
    commit: "a6a9d05",
    what: "event engine before the binary codec, hot 16-key JSON hits (req/s)",
};
const CODEC_MIN_SPEEDUP: f64 = 2.0;
/// Smoke runs land on arbitrary CI boxes where an absolute req/s gate
/// is meaningless; they gate binary at this fraction of same-run JSON.
const CODEC_SMOKE_FLOOR: f64 = 0.8;

/// The committed [`THREADED`] run as a phase.
fn threaded_phase() -> PhaseStats {
    PhaseStats {
        requests: 24_000,
        ok: 24_000,
        cached: 24_000,
        errors: Default::default(),
        io_errors: 0,
        first_io_error: None,
        elapsed_s: 0.606_903_757,
        rps: THREADED.value,
        p50_us: 13_240,
        p95_us: 27_969,
        p99_us: 38_364,
        max_us: 67_622,
        rounds_rps: vec![35_356.676, 36_038.243, 39_544.985],
    }
}

fn hot_hit_config(report: &mut Report, smoke: bool) {
    let cap_ms = smoke.then(|| int(ms(BENCH_SMOKE_CAP)));
    let cap_ms = cap_ms.unwrap_or(Json::Null);
    report.config(vec![
        ("workers", int(BENCH_WORKERS)),
        ("clients", int(BENCH_CLIENTS)),
        ("queue_capacity", int(BENCH_QUEUE_CAP)),
        ("cache_capacity", int(BENCH_CACHE_CAP)),
        ("n", int(BENCH_N)),
        ("distinct", int(BENCH_DISTINCT)),
        ("requests", int(BENCH_REQUESTS)),
        ("pipeline", int(BENCH_PIPELINE)),
        ("rounds", int(if smoke { 1 } else { BENCH_ROUNDS })),
        ("cap_ms", cap_ms),
    ]);
}

/// Best-of-N rounds of the warmed 16-key hot set served to 64 pipelined
/// connections in one codec, each round on a fresh server with default
/// tuning (sharded cache, TinyLFU, inline fast path). Returns the best
/// round's stats and its engine/hit-rate extras.
fn hot_hits(codec: WireCodec, smoke: bool) -> Result<(PhaseStats, Fields), String> {
    let rounds = if smoke { 1 } else { BENCH_ROUNDS };
    let cap = smoke.then_some(BENCH_SMOKE_CAP);
    let mut best: Option<(PhaseStats, Fields)> = None;
    let mut rounds_rps = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let server = fleet::start(
            BENCH_WORKERS,
            BENCH_QUEUE_CAP,
            BENCH_CACHE_CAP,
            Tuning::default(),
        )?;
        let addr = server.local_addr();
        // Warm every key in the measured codec, so the round starts with
        // the encoded-reply tails already built.
        Phase::new(addr, Stop::after(BENCH_DISTINCT), |i| bench_request(i, i))
            .codec(codec)
            .run()
            .all_ok("warm")?;
        let stats = Phase::new(addr, Stop::after(BENCH_REQUESTS).or_within(cap), |i| {
            bench_request(i, i % BENCH_DISTINCT)
        })
        .conns(BENCH_CLIENTS)
        .window(BENCH_PIPELINE)
        .codec(codec)
        .run()
        .checked("hot hits")?;
        let hit_rate = fetch_stats(addr)
            .and_then(|s| s.get("cache")?.get("hit_rate")?.as_f64())
            .unwrap_or(0.0);
        let extras = vec![
            ("engine", text(server.engine())),
            ("cache_hit_rate", Json::Num(hit_rate)),
        ];
        server.shutdown();
        rounds_rps.push(stats.rps);
        if best.as_ref().is_none_or(|(b, _)| stats.rps > b.rps) {
            best = Some((stats, extras));
        }
    }
    let (mut stats, extras) = best.expect("at least one round");
    stats.rounds_rps = rounds_rps;
    Ok((stats, extras))
}

/// One hit-rate probe: warm a working set of `distinct` keys, wreck the
/// cache with a one-pass cold scan, then probe the working set again.
/// With TinyLFU admission the hot set should survive the scan; with
/// plain LRU it is flushed. The returned stats are the probe pass's.
fn hitrate_phase(distinct: u64, admission: bool) -> Result<(PhaseStats, Fields), String> {
    let tuning = Tuning {
        admission,
        ..Tuning::default()
    };
    let server = fleet::start(2, BENCH_QUEUE_CAP, HITRATE_CACHE_CAP as usize, tuning)?;
    let addr = server.local_addr();
    // More warm passes when the working set fits the cache (reuse is
    // what earns admission); a set larger than the cache gets one.
    let fits = distinct <= HITRATE_CACHE_CAP;
    let (warm_passes, probe_passes) = if fits { (4, 2) } else { (1, 1) };
    let working_set = move |i| bench_request(i, i % distinct);
    Phase::new(addr, Stop::after(warm_passes * distinct), working_set)
        .run()
        .all_ok("hitrate warm")?;
    Phase::new(addr, Stop::after(HITRATE_SCAN_KEYS), |i| {
        bench_request(i, 1_000_000 + i)
    })
    .run()
    .all_ok("hitrate scan")?;
    let probes = Phase::new(addr, Stop::after(probe_passes * distinct), working_set)
        .run()
        .all_ok("hitrate probe")?;
    let overall = fetch_stats(addr)
        .and_then(|s| s.get("cache")?.get("hit_rate")?.as_f64())
        .unwrap_or(0.0);
    server.shutdown();
    let probe_hit_rate = probes.cached as f64 / probes.requests.max(1) as f64;
    let extras = vec![
        ("distinct", int(distinct)),
        ("admission", Json::Bool(admission)),
        ("warm_passes", int(warm_passes)),
        ("scan_keys", int(HITRATE_SCAN_KEYS)),
        ("probe_hit_rate", Json::Num(probe_hit_rate)),
        ("overall_hit_rate", Json::Num(overall)),
    ];
    Ok((probes, extras))
}

/// JSON hot hits against the committed threaded baseline, plus
/// scan-resistance probes with TinyLFU admission on and off.
fn serving(smoke: bool) -> Result<Report, String> {
    let mut report = Report::new("serving", smoke);
    hot_hit_config(&mut report, smoke);
    report.config(vec![("hitrate_cache_capacity", int(HITRATE_CACHE_CAP))]);
    println!("bench serving: hot {BENCH_DISTINCT}-key working set, {BENCH_CLIENTS} clients x {BENCH_WORKERS} workers");
    let before = threaded_phase();
    report.phase(
        "threaded",
        &before,
        vec![
            ("source", text("committed")),
            ("commit", text(THREADED.commit)),
        ],
    );
    let (after, mut extras) = hot_hits(WireCodec::Json, smoke)?;
    let speedup = after.rps / before.rps;
    extras.extend(vec![("speedup_vs_threaded", Json::Num(speedup))]);
    report.phase("json", &after, extras);
    for distinct in [16, 4096] {
        for admission in [true, false] {
            let (probes, extras) = hitrate_phase(distinct, admission)?;
            let name = format!(
                "hitrate_{distinct}_{}",
                if admission { "on" } else { "off" }
            );
            report.phase(&name, &probes, extras);
        }
    }
    if !smoke {
        report.gate_vs(
            "json_over_threaded",
            speedup,
            ">=",
            SERVING_MIN_SPEEDUP,
            Some(THREADED),
        );
    }
    report.gate("threaded.p99_us", before.p99_us as f64, ">", 0.0);
    report.gate("json.p99_us", after.p99_us as f64, ">", 0.0);
    Ok(report)
}

/// JSON vs binary wire codec on the warmed hit path.
fn codec(smoke: bool) -> Result<Report, String> {
    let mut report = Report::new("codec", smoke);
    hot_hit_config(&mut report, smoke);
    println!("bench codec: hot {BENCH_DISTINCT}-key hit path, {BENCH_CLIENTS} clients x {BENCH_WORKERS} workers");
    let (json, extras) = hot_hits(WireCodec::Json, smoke)?;
    report.phase("json", &json, extras);
    let (binary, mut extras) = hot_hits(WireCodec::Binary, smoke)?;
    let vs_json = binary.rps / json.rps.max(1e-9);
    let vs_baseline = binary.rps / PRE_CODEC.value;
    extras.extend(vec![
        ("speedup_vs_json", Json::Num(vs_json)),
        ("speedup_vs_pre_codec", Json::Num(vs_baseline)),
    ]);
    report.phase("binary", &binary, extras);
    if smoke {
        report.gate("binary_over_json", vs_json, ">=", CODEC_SMOKE_FLOOR);
    } else {
        report.gate_vs(
            "binary_over_pre_codec",
            vs_baseline,
            ">=",
            CODEC_MIN_SPEEDUP,
            Some(PRE_CODEC),
        );
    }
    report.gate("json.throughput_rps", json.rps, ">", 0.0);
    report.gate("binary.throughput_rps", binary.rps, ">", 0.0);
    Ok(report)
}

// ---------------------------------------------------------------------------
// store: warm vs cold restart
// ---------------------------------------------------------------------------

const STORE_DISTINCT: u64 = 64;
/// A restart counts as warm when at least this share of the old hot set
/// is served from cache on first touch.
pub const MIN_WARM_RATE: f64 = 0.9;

/// A run-scoped directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("gb-loadgen-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The warm-vs-cold restart experiment, in-process: a restart without a
/// store serves the old hot set cold; a restart with one serves it warm
/// from recovered records. (No separate smoke shape.)
fn store(smoke: bool) -> Result<Report, String> {
    let mut report = Report::new("store", smoke);
    report.config(vec![
        ("distinct", int(STORE_DISTINCT)),
        ("n", int(BENCH_N)),
        ("workers", int(2usize)),
        ("cache_capacity", int(BENCH_CACHE_CAP)),
    ]);
    println!("bench store: {STORE_DISTINCT}-key hot set, restart without vs with a store");
    let restart = |store: Option<&Path>| -> Result<(PhaseStats, Option<Json>), String> {
        let boot = || {
            let tuning = Tuning {
                store: store.map(StoreConfig::new),
                ..Tuning::default()
            };
            fleet::start(2, BENCH_QUEUE_CAP, BENCH_CACHE_CAP, tuning)
        };
        // Life 1 computes the hot set and shuts down gracefully (with a
        // store this drains the spill queue to disk).
        let first = boot()?;
        hot_set_pass(first.local_addr(), STORE_DISTINCT, 0)?;
        first.shutdown();
        // Life 2 starts with an empty cache; only store recovery (if
        // any) can rewarm it.
        let second = boot()?;
        let replay = hot_set_pass(second.local_addr(), STORE_DISTINCT, STORE_DISTINCT)?;
        let section = fetch_stats(second.local_addr()).and_then(|s| s.get("store").cloned());
        second.shutdown();
        Ok((replay, section))
    };
    let dir = TempDir::new("store-bench");
    for (name, store) in [
        ("cold_restart", None),
        ("warm_restart", Some(dir.0.as_path())),
    ] {
        let (replay, section) = restart(store)?;
        let rate = replay.cached as f64 / replay.requests.max(1) as f64;
        let extras = vec![
            ("warm_hit_rate", Json::Num(rate)),
            ("store", section.unwrap_or(Json::Null)),
        ];
        report.phase(name, &replay, extras);
        let op = if store.is_some() { ">=" } else { "<" };
        report.gate(&format!("{name}.warm_hit_rate"), rate, op, MIN_WARM_RATE);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// sharding + skew: a gb-router fleet of small gb-serve upstreams
// ---------------------------------------------------------------------------

/// Upstreams behind the router in the sharded and skew phases.
const FLEET_UPSTREAMS: usize = 4;
/// The fleet's total budget, split evenly over its upstreams.
const FLEET_WORKERS: usize = 4;
const FLEET_QUEUE_CAP: usize = 256;
const FLEET_CACHE_CAP: usize = 256;

/// Spawns `upstreams` gb-serve children that share the fleet budget
/// evenly, plus `extra` flags, and one gb-router over them with
/// `router_extra` flags.
fn spawn_fleet(
    upstreams: usize,
    extra: &str,
    vnodes: usize,
    router_extra: &str,
) -> Result<(Vec<fleet::ChildProc>, fleet::ChildProc), String> {
    let flags = format!(
        "--workers {} --queue-cap {} --cache-cap {} {extra}",
        FLEET_WORKERS / upstreams,
        FLEET_QUEUE_CAP / upstreams,
        FLEET_CACHE_CAP / upstreams,
    );
    let children = (0..upstreams)
        .map(|_| fleet::serve_child(&flags))
        .collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<SocketAddr> = children.iter().map(|c| c.addr).collect();
    let router = fleet::router_child(&addrs, vnodes, 0, router_extra)?;
    Ok((children, router))
}

// ---------------------------------------------------------------------------
// sharding: hot-class isolation
// ---------------------------------------------------------------------------

const SHARD_VNODES: usize = 64;
/// Victim working set: keys owned by the non-hot upstreams, small enough
/// to stay resident in their caches.
const SHARD_VICTIM_KEYS: usize = 24;
/// Victim probe rounds (one latency sample per key per round), paced
/// [`SHARD_ROUND_PACE`] apart so the contended phases observe the
/// flood's steady state — cache churn included — rather than its first
/// half-second.
const SHARD_ROUNDS: u64 = 150;
const SHARD_SMOKE_ROUNDS: u64 = 8;
const SHARD_ROUND_PACE: Duration = Duration::from_millis(2);
const SHARD_HOT_THREADS: usize = 2;
const SHARD_HOT_PIPELINE: usize = 128;
/// Distinct flood keys — far more than one upstream's cache, so the
/// flood stays a compute-bound cold scan instead of going cache-warm.
const SHARD_HOT_KEYS: usize = 8192;
/// The hot class asks for a much larger partition than the victims do:
/// each flood miss costs ~0.7 ms of worker compute, so an unsharded
/// queue in front of it visibly delays whoever shares it.
const SHARD_HOT_N: usize = 1024;
/// Sub-millisecond p99 baselines on a single shared core are scheduler
/// noise, so the 2x bound is taken against at least this much.
const SHARD_NOISE_FLOOR_US: u64 = 1_000;

/// One phase: warm the victim class, optionally start the hot flood,
/// probe victim latency for `rounds` rounds, snapshot the router's
/// per-upstream rollup while the flood is still running, then tear the
/// fleet down. Every phase sends its traffic through one gb-router, so
/// each pays the same hop.
fn shard_phase(
    upstreams: usize,
    contended: bool,
    victims: &Arc<Vec<u64>>,
    hot: &Arc<Vec<u64>>,
    rounds: u64,
) -> Result<(PhaseStats, Fields), String> {
    // Plain LRU everywhere: TinyLFU's scan resistance would let even the
    // *unsharded* control keep the victims cached through the flood,
    // masking exactly the cache-sharing failure the control exists to
    // show. Sharded isolation must not depend on the admission policy.
    let (_children, mut router) = spawn_fleet(upstreams, "--admission off", SHARD_VNODES, "")?;
    let addr = router.addr;
    let count = victims.len() as u64;
    let victim = |id_base: u64| {
        let victims = Arc::clone(victims);
        move |i: u64| bench_request(id_base + i, victims[(i % count) as usize])
    };

    // Warm the victim class: the first pass computes, the second proves
    // residency.
    Phase::new(addr, Stop::after(count), victim(0))
        .run()
        .all_ok("victim warm")?;
    let resident = Phase::new(addr, Stop::after(count), victim(count))
        .run()
        .all_ok("victim warm")?
        .cached;

    let stop = Arc::new(AtomicBool::new(false));
    let flood = contended.then(|| {
        let hot = Arc::clone(hot);
        let flood = Phase::new(addr, Stop::on(&stop), move |i| {
            balance(i, SHARD_HOT_N, hot[(i % hot.len() as u64) as usize])
        })
        .conns(SHARD_HOT_THREADS)
        .window(SHARD_HOT_PIPELINE);
        let handle = thread::spawn(move || flood.run());
        // Let the flood reach the hot upstream before sampling.
        thread::sleep(Duration::from_millis(200));
        handle
    });
    let probes = Phase::new(addr, Stop::after(rounds * count), victim(1_000))
        .pace(count, SHARD_ROUND_PACE)
        .run();
    // Per-upstream rollup (queue depth included) while the flood is still
    // applying pressure.
    let upstream_stats = if contended {
        fetch_stats(addr).and_then(|s| s.get("upstreams").cloned())
    } else {
        None
    };
    stop.store(true, Ordering::Relaxed);
    let flood = flood.map(|h| h.join().expect("flood panicked"));
    // The router forwards the shutdown to every upstream.
    router.shutdown(Duration::from_secs(3));

    let extras = vec![
        ("upstream_count", int(upstreams)),
        ("contended", Json::Bool(contended)),
        ("warm_resident", int(resident)),
        (
            "hot",
            flood.map(|f| f.to_json(Vec::new())).unwrap_or(Json::Null),
        ),
        ("upstreams", upstream_stats.unwrap_or(Json::Null)),
    ];
    Ok((probes.checked("victim probes")?, extras))
}

/// A hot class floods the one upstream that owns it while a victim class
/// (keys owned by the other upstreams) is probed for latency, through a
/// gb-router over 4 small gb-serve upstreams and over a 1-upstream
/// control with the whole budget.
fn sharding(smoke: bool) -> Result<Report, String> {
    let rounds = if smoke {
        SHARD_SMOKE_ROUNDS
    } else {
        SHARD_ROUNDS
    };
    // Classify seeds with the ring gb-router builds over 4 upstreams
    // (identical to `Router` while every upstream is alive): the flood
    // all lands on one upstream, the victims on the others.
    let ring = Router::new(FLEET_UPSTREAMS, SHARD_VNODES);
    let owner = |seed: u64, n: usize| ring.route(cache_key(seed, n).mix());
    let hot_upstream = owner(1_000_000, SHARD_HOT_N);
    let hot: Vec<u64> = (1_000_000u64..)
        .filter(|&s| owner(s, SHARD_HOT_N) == hot_upstream)
        .take(SHARD_HOT_KEYS)
        .collect();
    let victims: Vec<u64> = (0u64..)
        .filter(|&s| owner(s, BENCH_N) != hot_upstream)
        .take(SHARD_VICTIM_KEYS)
        .collect();
    println!(
        "bench sharding: hot class pinned to upstream {hot_upstream} ({} flood keys), \
         {} victim keys on the other {} upstreams, {rounds} probe rounds",
        hot.len(),
        victims.len(),
        FLEET_UPSTREAMS - 1
    );
    let mut report = Report::new("sharding", smoke);
    report.config(vec![
        ("upstreams", int(FLEET_UPSTREAMS)),
        ("vnodes", int(SHARD_VNODES)),
        ("hot_upstream", int(u64::from(hot_upstream))),
        ("workers", int(FLEET_WORKERS)),
        ("queue_capacity", int(FLEET_QUEUE_CAP)),
        ("cache_capacity", int(FLEET_CACHE_CAP)),
        ("victim_keys", int(SHARD_VICTIM_KEYS)),
        ("probe_rounds", int(rounds)),
        ("hot_keys", int(SHARD_HOT_KEYS)),
        ("hot_connections", int(SHARD_HOT_THREADS)),
        ("hot_pipeline", int(SHARD_HOT_PIPELINE)),
        ("noise_floor_us", int(SHARD_NOISE_FLOOR_US)),
    ]);
    let (victims, hot) = (Arc::new(victims), Arc::new(hot));
    let mut p99 = Vec::new();
    for (name, upstreams, contended) in [
        ("isolated", FLEET_UPSTREAMS, false),
        ("sharded", FLEET_UPSTREAMS, true),
        ("unsharded_control", 1, true),
    ] {
        let (probes, extras) = shard_phase(upstreams, contended, &victims, &hot, rounds)?;
        report.phase(name, &probes, extras);
        report.gate(&format!("{name}.p99_us"), probes.p99_us as f64, ">", 0.0);
        p99.push(probes.p99_us);
    }
    let bound_us = 2 * p99[0].max(SHARD_NOISE_FLOOR_US);
    println!(
        "bench sharding: victim p99 blowup {:.1}x with sharding, {:.1}x without",
        p99[1] as f64 / p99[0].max(1) as f64,
        p99[2] as f64 / p99[0].max(1) as f64
    );
    // 2 x max(isolated p99, noise floor).
    report.gate("sharded.p99_us", p99[1] as f64, "<=", bound_us as f64);
    Ok(report)
}

// ---------------------------------------------------------------------------
// skew: self-balancing placement under zipf traffic
// ---------------------------------------------------------------------------

const SKEW_VNODES: usize = 16;
/// Distinct keys in the zipf working set. With s = 1.0 the hottest key
/// carries ~21% of the traffic — under the 25% per-upstream mean, so a
/// balanced assignment exists and HF can find it.
const SKEW_KEYS: usize = 64;
const SKEW_N: usize = 24;
const SKEW_CLIENTS: usize = 2;
/// Settle and measurement windows of a full run, and of a smoke run.
const SKEW_WINDOW: Duration = Duration::from_millis(2_500);
const SKEW_SMOKE_WINDOW: Duration = Duration::from_millis(1_000);
const SKEW_REBAL_INTERVAL: Duration = Duration::from_millis(150);
const SKEW_TRIGGER: f64 = 1.05;
const SKEW_BUDGET: usize = 8;
/// Full-run gates: steady-state max/mean of the rebalanced fleet vs
/// the static-ring control over the same measurement window.
const SKEW_REBAL_GATE: f64 = 1.15;
const SKEW_CONTROL_GATE: f64 = 1.3;
/// Minimum expected (analytic) static imbalance when picking the seed
/// block — guarantees the control has something to show.
const SKEW_PICK_FLOOR: f64 = 1.5;
/// Seed of the zipf draw stream; request `i` draws from `derive(_, i)`,
/// so both phases replay the identical request sequence.
const SKEW_STREAM: u64 = 0x5eed_ba5e;

/// Zipf(s=1) selection probabilities for ranks `0..count`, cumulative.
fn zipf_cumulative(count: usize) -> Vec<f64> {
    let total: f64 = (1..=count).map(|k| 1.0 / k as f64).sum();
    (1..=count)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / k as f64 / total;
            Some(*acc)
        })
        .collect()
}

/// Picks a deterministic block of seeds whose *static* hash placement is
/// lopsided under the zipf weights, so the control phase shows the
/// imbalance the rebalancer erases. Pure function of the ring.
fn skew_pick_seeds(cum: &[f64]) -> (u64, Vec<u64>, f64) {
    let ring = Router::new(FLEET_UPSTREAMS, SKEW_VNODES);
    let ideal = 1.0 / FLEET_UPSTREAMS as f64;
    let mut base = 0u64;
    loop {
        let seeds: Vec<u64> = (base..base + SKEW_KEYS as u64).collect();
        let mut per = [0.0f64; FLEET_UPSTREAMS];
        for (rank, &seed) in seeds.iter().enumerate() {
            let prob = cum[rank] - if rank == 0 { 0.0 } else { cum[rank - 1] };
            per[ring.route(cache_key(seed, SKEW_N).mix()) as usize] += prob;
        }
        let expected = per.iter().cloned().fold(0.0, f64::max) / ideal;
        if expected >= SKEW_PICK_FLOOR {
            return (base, seeds, expected);
        }
        base += SKEW_KEYS as u64;
        assert!(base < 1_000_000, "no skewed seed block found");
    }
}

/// Each upstream's cumulative `stats.load` pair `(served, micros)`.
fn skew_loads(upstreams: &[fleet::ChildProc]) -> Result<Vec<(u64, u64)>, String> {
    upstreams
        .iter()
        .map(|child| {
            let stats = fetch_stats(child.addr).ok_or("upstream stats fetch failed")?;
            let served = stat_u64(&stats, &["load", "served"]);
            let micros = stat_u64(&stats, &["load", "micros"]);
            served
                .zip(micros)
                .ok_or_else(|| "upstream stats missing load.served/micros".to_string())
        })
        .collect()
}

/// One phase: start a router over 4 upstreams (rebalancing or static),
/// prime the working set, drive zipf traffic, let placement settle for
/// one window, then measure the per-upstream load deltas over the next.
/// `imbalance` is max/mean of those deltas, where load = micros +
/// HIT_COST_MICROS x served (the rebalancer's own metric).
fn skew_phase(
    rebalancing: bool,
    seeds: &Arc<Vec<u64>>,
    cum: &Arc<Vec<f64>>,
    window: Duration,
) -> Result<(PhaseStats, f64, Option<Json>, Fields), String> {
    let rebalance = if rebalancing {
        format!(
            "--rebalance-ms {} --rebalance-trigger {SKEW_TRIGGER} --rebalance-budget {SKEW_BUDGET}",
            ms(SKEW_REBAL_INTERVAL)
        )
    } else {
        String::new()
    };
    let (children, mut router) = spawn_fleet(FLEET_UPSTREAMS, "", SKEW_VNODES, &rebalance)?;
    let addr = router.addr;

    // Prime every key once so the measurement window is hit-dominated
    // (the rebalancer then acts on traffic skew, not compute noise).
    let primer = Arc::clone(seeds);
    Phase::new(addr, Stop::after(SKEW_KEYS as u64), move |i| {
        balance(1_000_000 + i, SKEW_N, primer[i as usize])
    })
    .run()
    .all_ok("prime")?;

    let stop = Arc::new(AtomicBool::new(false));
    let (seeds, cum) = (Arc::clone(seeds), Arc::clone(cum));
    let traffic = Phase::new(addr, Stop::on(&stop), move |i| {
        let u = SplitMix64::derive(SKEW_STREAM, i) as f64 / u64::MAX as f64;
        let rank = cum.partition_point(|&c| c < u).min(seeds.len() - 1);
        balance(i, SKEW_N, seeds[rank])
    })
    .conns(SKEW_CLIENTS);
    let driver = thread::spawn(move || traffic.run());
    thread::sleep(window);
    let before = skew_loads(&children);
    thread::sleep(window);
    let after = skew_loads(&children);
    // gb-router reports its tick under `router.rebal`.
    let rebal = rebalancing
        .then(|| fetch_stats(addr).and_then(|s| s.get("router")?.get("rebal").cloned()))
        .flatten();
    stop.store(true, Ordering::Relaxed);
    let traffic = driver.join().expect("skew traffic panicked");
    router.shutdown(Duration::from_secs(3));

    let per_upstream: Vec<f64> = before?
        .iter()
        .zip(&after?)
        .map(|(&(s0, m0), &(s1, m1))| {
            (m1 - m0) as f64 + gb_rebal::HIT_COST_MICROS * (s1 - s0) as f64
        })
        .collect();
    let mean = per_upstream.iter().sum::<f64>() / per_upstream.len() as f64;
    let max = per_upstream.iter().cloned().fold(0.0, f64::max);
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
    let extras = vec![
        ("imbalance", Json::Num(imbalance)),
        (
            "per_upstream_load",
            Json::Arr(per_upstream.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("rebal", rebal.clone().unwrap_or(Json::Null)),
    ];
    Ok((traffic, imbalance, rebal, extras))
}

/// Zipf traffic through a rebalancing gb-router over 4 upstreams vs a
/// static-ring control over the same request stream.
fn skew(smoke: bool) -> Result<Report, String> {
    let window = if smoke {
        SKEW_SMOKE_WINDOW
    } else {
        SKEW_WINDOW
    };
    let cum = zipf_cumulative(SKEW_KEYS);
    let (base, seeds, expected) = skew_pick_seeds(&cum);
    println!(
        "bench skew: {SKEW_KEYS} zipf keys from seed base {base} (expected static \
         imbalance {expected:.2}), {FLEET_UPSTREAMS} upstreams x {SKEW_VNODES} vnodes, \
         settle {} ms + window {} ms",
        ms(window),
        ms(window)
    );
    let mut report = Report::new("skew", smoke);
    report.config(vec![
        ("upstreams", int(FLEET_UPSTREAMS)),
        ("vnodes", int(SKEW_VNODES)),
        ("workers", int(FLEET_WORKERS)),
        ("keys", int(SKEW_KEYS)),
        ("zipf_s", Json::Num(1.0)),
        ("seed_base", int(base)),
        ("expected_static_imbalance", Json::Num(expected)),
        ("clients", int(SKEW_CLIENTS)),
        ("n", int(SKEW_N)),
        ("warm_ms", int(ms(window))),
        ("window_ms", int(ms(window))),
        ("rebalance_interval_ms", int(ms(SKEW_REBAL_INTERVAL))),
        ("trigger", Json::Num(SKEW_TRIGGER)),
        ("move_budget", int(SKEW_BUDGET)),
    ]);
    let (seeds, cum) = (Arc::new(seeds), Arc::new(cum));
    let (traffic, rebalanced, rebal, extras) = skew_phase(true, &seeds, &cum, window)?;
    report.phase("rebalanced", &traffic, extras);
    let (traffic, control, _, extras) = skew_phase(false, &seeds, &cum, window)?;
    report.phase("static_control", &traffic, extras);

    let rebal_stat = |name| {
        rebal
            .as_ref()
            .and_then(|r| stat_u64(r, &[name]))
            .unwrap_or(0)
    };
    if !smoke {
        report.gate("rebalanced.imbalance", rebalanced, "<=", SKEW_REBAL_GATE);
        report.gate("static_control.imbalance", control, ">=", SKEW_CONTROL_GATE);
    }
    report.gate("rebalanced_vs_static.imbalance", rebalanced, "<", control);
    report.gate("rebalanced.ticks", rebal_stat("ticks") as f64, ">", 0.0);
    // No upstream dies in this bench, so every move is voluntary and the
    // per-tick budget is a hard cap.
    let moves = rebal_stat("max_tick_moves") as f64;
    report.gate("rebalanced.max_tick_moves", moves, "<=", SKEW_BUDGET as f64);
    Ok(report)
}

// ---------------------------------------------------------------------------
// router: the cross-process routing tier
// ---------------------------------------------------------------------------

const RB_VNODES: usize = 32;
const RB_CLIENTS: usize = 8;
const RB_DISTINCT: u64 = 64;
/// Cold-pass partition size: large enough that every request costs real
/// solver time, so the comparison measures the tier's overhead against
/// the work it fronts (the hot pass isolates the per-hop overhead).
const RB_COLD_N: usize = 256;
/// (hot requests, cold requests, tail probes) of a full and a smoke run.
const RB_FULL: (u64, u64, u64) = (8_000, 4_000, 24);
const RB_SMOKE: (u64, u64, u64) = (1_500, 800, 10);
const RB_MIN_COLD_RATIO: f64 = 0.5;
const RB_FLOOD_THREADS: usize = 3;
/// A failover may lose at most the flood's in-flight requests (twice
/// its concurrency).
const RB_ERROR_BOUND: u64 = 2 * RB_FLOOD_THREADS as u64;
const RB_STALL_MS: u64 = 40;
const RB_HEDGE_MS: u64 = 5;

/// Request `i` of a throughput pass. The hot pass cycles a warmed
/// `RB_DISTINCT`-key working set (nearly every answer is a cache hit);
/// the cold pass gives every request a unique seed at a heavier `n`.
fn rb_request(i: u64, cold: bool) -> Request {
    if cold {
        balance(i, RB_COLD_N, 10_000_000 + i)
    } else {
        bench_request(i, i % RB_DISTINCT)
    }
}

/// Warms the hot pass's working set (the cold pass needs nothing).
fn rb_warm(addr: SocketAddr, cold: bool) -> Result<(), String> {
    if !cold {
        Phase::new(addr, Stop::after(RB_DISTINCT), |i| bench_request(i, i))
            .run()
            .all_ok("warm")?;
    }
    Ok(())
}

/// A throughput pass from `RB_CLIENTS` synchronous connections.
fn rb_throughput(addr: SocketAddr, count: u64, cold: bool) -> Result<PhaseStats, String> {
    Phase::new(addr, Stop::after(count), move |i| rb_request(i, cold))
        .conns(RB_CLIENTS)
        .run()
        .checked("throughput")
}

/// The identical workload direct against one gb-serve child, then
/// proxied through gb-router over two upstream children (one extra hop,
/// no re-parse). Also returns the router process's CPU per proxied
/// request, in microseconds.
fn rb_compare(count: u64, cold: bool) -> Result<(PhaseStats, PhaseStats, f64), String> {
    let direct = {
        let mut upstream = fleet::serve_child("")?;
        rb_warm(upstream.addr, cold)?;
        let stats = rb_throughput(upstream.addr, count, cold)?;
        upstream.shutdown(Duration::from_secs(3));
        stats
    };
    let proxied = {
        let a = fleet::serve_child("")?;
        let b = fleet::serve_child("")?;
        let mut router = fleet::router_child(&[a.addr, b.addr], RB_VNODES, 0, "")?;
        let cpu =
            || gb_sys::process_cpu_seconds(router.pid()).map_err(|e| format!("cpu sample: {e}"));
        rb_warm(router.addr, cold)?;
        let before = cpu()?;
        let stats = rb_throughput(router.addr, count, cold)?;
        let cpu_us = (cpu()? - before) * 1e6 / stats.requests.max(1) as f64;
        // The router forwards the shutdown to both upstreams.
        router.shutdown(Duration::from_secs(3));
        (stats, cpu_us)
    };
    Ok((direct, proxied.0, proxied.1))
}

/// Seeds >= `base` whose keys the two-upstream ring pins to `owner`
/// (the same ring and key derivation `gb-router` uses).
fn rb_seeds_pinned_to(owner: u32, base: u64, count: usize) -> Vec<u64> {
    let ring = Router::new(2, RB_VNODES);
    (base..)
        .filter(|&s| ring.route(cache_key(s, BENCH_N).mix()) == owner)
        .take(count)
        .collect()
}

/// SIGKILL one upstream under a pinned flood through the router; gate
/// the client-visible errors and record the vnode re-home window. The
/// flood reconnects after every failure, which the phase runner does
/// not do, so it keeps its own loop.
fn rb_failover(report: &mut Report) -> Result<(), String> {
    let survivor = fleet::serve_child("")?;
    let mut victim = fleet::serve_child("")?;
    let mut router = fleet::router_child(&[survivor.addr, victim.addr], RB_VNODES, 0, "")?;
    let addr = router.addr;

    // The victim is upstream id 1; pin the whole flood onto it.
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let floods: Vec<_> = (0..RB_FLOOD_THREADS as u64)
        .map(|t| {
            let seeds = rb_seeds_pinned_to(1, 70_000_000 + t * 1_000_000, 4_000);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut tally = Tally::default();
                let mut client = Client::connect(addr);
                for seed in seeds {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let sent = Instant::now();
                    let reply = match &mut client {
                        Ok(c) => c
                            .call(&bench_request(seed, seed))
                            .map_err(|e| e.to_string()),
                        Err(e) => Err(e.to_string()),
                    };
                    match &reply {
                        Ok(response) => tally.reply(response, sent.elapsed()),
                        Err(e) => tally.io_error(e.clone()),
                    }
                    if !matches!(reply, Ok(Response::Ok(_))) {
                        client = Client::connect(addr);
                    }
                }
                tally
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(300));
    let killed_at = Instant::now();
    victim.kill();
    // The re-home window: how long until the router's ring drops to one
    // alive upstream.
    let mut window_ms = None;
    while killed_at.elapsed() < Duration::from_secs(5) {
        if fetch_stats(addr).is_some_and(|s| stat_u64(&s, &["router", "alive"]) == Some(1)) {
            window_ms = Some(ms(killed_at.elapsed()));
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let mut tally = Tally::default();
    for flood in floods {
        tally.merge(flood.join().expect("flood panicked"));
    }
    let flood = tally.finish(started.elapsed());
    let stats = fetch_stats(addr);
    let router_stat = |name| {
        stats
            .as_ref()
            .and_then(|s| stat_u64(s, &["router", name]))
            .unwrap_or(0)
    };
    let (failovers, retries) = (router_stat("failovers"), router_stat("retries"));
    router.shutdown(Duration::from_secs(3));

    let window = window_ms.ok_or("router never re-homed the dead upstream's vnodes")?;
    let client_errors = flood.errors_total() + flood.io_errors;
    println!(
        "  failover: {} ok, {client_errors} client-visible errors across the kill, \
         re-home window {window} ms ({retries} in-request retries)",
        flood.ok
    );
    let extras = vec![
        ("flood_threads", int(RB_FLOOD_THREADS)),
        ("client_errors", int(client_errors)),
        ("error_bound", int(RB_ERROR_BOUND)),
        ("rehome_window_ms", int(window)),
        ("failovers", int(failovers)),
        ("in_request_retries", int(retries)),
    ];
    report.phase("failover", &flood, extras);
    report.gate("failover.failovers", failovers as f64, ">=", 1.0);
    let bound = RB_ERROR_BOUND as f64;
    report.gate("failover.client_errors", client_errors as f64, "<=", bound);
    Ok(())
}

/// Tail latency of requests pinned to a stalled upstream, with the given
/// hedge delay (0 = off).
fn rb_tail(hedge_ms: u64, probes: u64, base: u64) -> Result<(PhaseStats, Fields), String> {
    let stalled = fleet::serve_child(&format!("--stall-ms {RB_STALL_MS}"))?;
    let clean = fleet::serve_child("")?;
    let mut router = fleet::router_child(&[stalled.addr, clean.addr], RB_VNODES, hedge_ms, "")?;
    let seeds = rb_seeds_pinned_to(0, base, probes as usize);
    let stats = Phase::new(router.addr, Stop::after(probes), move |i| {
        bench_request(i, seeds[i as usize])
    })
    .run()
    .all_ok("tail");
    let hedges = fetch_stats(router.addr).map(|s| {
        let stat = |name| stat_u64(&s, &["router", name]).unwrap_or(0);
        (stat("hedges_sent"), stat("hedges_won"))
    });
    router.shutdown(Duration::from_secs(3));
    let (sent, won) = hedges.unwrap_or((0, 0));
    let extras = vec![
        ("hedge_ms", int(hedge_ms)),
        ("stall_ms", int(RB_STALL_MS)),
        ("hedges_sent", int(sent)),
        ("hedges_won", int(won)),
    ];
    Ok((stats?, extras))
}

/// Direct vs proxied throughput (hot and cold), an upstream SIGKILL
/// under load, and hedged vs unhedged tail latency against a stalled
/// upstream.
fn router(smoke: bool) -> Result<Report, String> {
    let (hot_requests, cold_requests, probes) = if smoke { RB_SMOKE } else { RB_FULL };
    let mut report = Report::new("router", smoke);
    report.config(vec![
        ("clients", int(RB_CLIENTS)),
        ("requests", int(hot_requests)),
        ("distinct", int(RB_DISTINCT)),
        ("n", int(BENCH_N)),
        ("cold_requests", int(cold_requests)),
        ("cold_n", int(RB_COLD_N)),
        ("vnodes", int(RB_VNODES)),
        ("upstreams", int(2usize)),
        ("upstream_workers", int(4usize)),
    ]);
    // The hot pass isolates the per-hop cost (nearly every request is a
    // cache hit, so proxy overhead is all there is to measure); it is
    // reported, not gated — on one core the extra hop's context switches
    // dominate a ~200 us request. The cold pass is the acceptance
    // comparison: requests cost real solver time, the regime the tier
    // exists for.
    let mut ratios = Vec::new();
    for (label, count, cold) in [("hot", hot_requests, false), ("cold", cold_requests, true)] {
        println!(
            "bench router: {count} {label} requests over {RB_CLIENTS} clients, direct vs proxied"
        );
        let (direct, proxied, router_cpu_us) = rb_compare(count, cold)?;
        let ratio = proxied.rps / direct.rps.max(1e-9);
        let added = proxied.p50_us.saturating_sub(direct.p50_us);
        report.phase(&format!("{label}_direct"), &direct, Vec::new());
        report.phase(
            &format!("{label}_proxied"),
            &proxied,
            vec![
                ("proxied_over_direct", Json::Num(ratio)),
                ("added_p50_us", int(added)),
                ("router_cpu_us_per_request", Json::Num(router_cpu_us)),
            ],
        );
        println!("  router CPU {router_cpu_us:.1} us per proxied request");
        ratios.push(ratio);
    }
    let cold_ratio = ratios[1];
    report.gate(
        "cold.proxied_over_direct",
        cold_ratio,
        ">=",
        RB_MIN_COLD_RATIO,
    );

    println!("bench router: failover (SIGKILL one upstream mid-flood)");
    rb_failover(&mut report)?;

    println!("bench router: tail latency vs a {RB_STALL_MS} ms stalled upstream");
    let (unhedged, extras) = rb_tail(0, probes, 80_000_000)?;
    report.phase("tail_unhedged", &unhedged, extras);
    let (hedged, extras) = rb_tail(RB_HEDGE_MS, probes, 90_000_000)?;
    report.phase("tail_hedged", &hedged, extras);
    let p99_speedup = unhedged.p99_us as f64 / hedged.p99_us.max(1) as f64;
    report.gate("tail.p99_speedup", p99_speedup, ">", 1.0);
    Ok(report)
}

// ---------------------------------------------------------------------------
// soak: the mostly-idle connection-scaling experiment
// ---------------------------------------------------------------------------

/// Interval between requests on each active connection: slow enough
/// that the herd stays >99% idle, fast enough for a real p99 sample.
const SOAK_PACE: Duration = Duration::from_millis(100);
/// Gates: over the window the epoll pollers must burn at most this
/// fraction of the committed sweep poller's CPU share, without giving
/// back active-path latency.
const SOAK_MAX_CPU_RATIO: f64 = 0.2;
const SOAK_MAX_P99_RATIO: f64 = 1.2;

/// A committed sweep-loop soak, measured when the sweep loop was still
/// selectable as an engine of its own. Each one fixes its shape.
struct SoakBaseline {
    conns: usize,
    active: usize,
    window: Duration,
    /// Share of one core the sweep io poller burned over the window.
    io_cpu_frac: f64,
    p99_us: u64,
    commit: &'static str,
}

/// The full run: 10k connections, 1% active, 10 s.
const SOAK_FULL: SoakBaseline = SoakBaseline {
    conns: 10_000,
    active: 100,
    window: Duration::from_millis(10_000),
    io_cpu_frac: 0.611,
    p99_us: 89_766,
    commit: "bf5d28b",
};

/// The smoke run, measured once with the sweep engine on a 2-core
/// x86_64 Linux container (0.770 s of io-poller CPU over the 5 s
/// window, 1020 active requests).
const SOAK_SMOKE: SoakBaseline = SoakBaseline {
    conns: 2_000,
    active: 20,
    window: Duration::from_millis(5_000),
    io_cpu_frac: 0.154,
    p99_us: 13_214,
    commit: "2343fed",
};

/// Connects with retries: a mass connect can transiently overflow the
/// listener backlog while the accepting poller catches up.
fn soak_connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
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

/// A real `gb-serve` child (its own fd budget) holding a herd of idle
/// connections while an active minority sends paced cache hits; the
/// io-poller CPU comes from the child's `/proc/<pid>/task/*/stat`
/// deltas over the window.
fn soak(smoke: bool) -> Result<Report, String> {
    let base = if smoke { &SOAK_SMOKE } else { &SOAK_FULL };
    let mut report = Report::new("soak", smoke);
    report.config(vec![
        ("conns", int(base.conns)),
        ("active", int(base.active)),
        ("window_ms", int(ms(base.window))),
        ("pace_ms", int(ms(SOAK_PACE))),
        ("io_threads", int(1usize)),
        ("upstream_workers", int(4usize)),
    ]);
    // Client-side fd headroom for the herd (best-effort: the child
    // server raises its own limit the same way).
    let _ = gb_sys::raise_nofile_limit(base.conns as u64 + 4096);

    let mut server = fleet::serve_child("--io-threads 1")?;
    let (addr, pid) = (server.addr, server.pid());
    let engine = fetch_stats(addr)
        .and_then(|s| Some(s.get("engine")?.as_str()?.to_string()))
        .ok_or("child stats carry no engine")?;
    // Warm the one hot key so active requests measure wakeup-to-reply
    // latency, not solver time.
    hot_set_pass(addr, 1, 0)?;

    println!(
        "bench soak[{engine}]: opening {} connections ({} active)",
        base.conns, base.active
    );
    // The idle herd only holds sockets open, so it keeps its own loop.
    let idle = (0..base.conns - base.active)
        .map(|i| soak_connect(addr).map_err(|e| format!("idle conn {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let open_conns = fetch_stats(addr).and_then(|s| stat_u64(&s, &["connections", "open"]));

    // CPU is sampled strictly inside the driving interval, after a
    // settle.
    let stop = Arc::new(AtomicBool::new(false));
    let active = Phase::new(addr, Stop::on(&stop), |i| bench_request(i, 0))
        .conns(base.active)
        .pace(1, SOAK_PACE);
    let driver = thread::spawn(move || active.run());
    thread::sleep(Duration::from_millis(500));
    let cpu =
        || gb_sys::thread_cpu_seconds(pid, "gb-serve-io-").map_err(|e| format!("cpu sample: {e}"));
    let cpu0 = cpu()?;
    let t0 = Instant::now();
    thread::sleep(base.window);
    let window_s = t0.elapsed().as_secs_f64();
    let cpu1 = cpu()?;
    stop.store(true, Ordering::Relaxed);
    let active = driver.join().expect("active clients panicked");
    let accept_errors = fetch_stats(addr).and_then(|s| stat_u64(&s, &["faults", "accept_errors"]));
    // Close the herd before asking for shutdown so the drain is instant.
    drop(idle);
    server.shutdown(Duration::from_secs(5));
    let active = active.checked("active clients")?;

    let io_cpu_s = (cpu1 - cpu0).max(0.0);
    let io_cpu_frac = io_cpu_s / window_s.max(1e-9);
    println!(
        "bench soak[{engine}]: io cpu {io_cpu_s:.3}s over {window_s:.1}s ({:.1}% of a core)",
        io_cpu_frac * 100.0
    );
    report.phase(
        "active",
        &active,
        vec![
            ("engine", text(engine.as_str())),
            ("io_cpu_s", Json::Num(io_cpu_s)),
            ("io_cpu_frac", Json::Num(io_cpu_frac)),
            ("window_s", Json::Num(window_s)),
            ("open_conns", open_conns.map_or(Json::Null, int)),
            ("accept_errors", accept_errors.map_or(Json::Null, int)),
        ],
    );
    let sweep = |value, what| {
        Some(Baseline {
            value,
            commit: base.commit,
            what,
        })
    };
    report.gate_vs(
        "io_cpu_vs_sweep",
        io_cpu_frac / base.io_cpu_frac,
        "<=",
        SOAK_MAX_CPU_RATIO,
        sweep(
            base.io_cpu_frac,
            "sweep io-poller CPU share of one core, same shape",
        ),
    );
    report.gate_vs(
        "p99_vs_sweep",
        active.p99_us as f64 / base.p99_us as f64,
        "<=",
        SOAK_MAX_P99_RATIO,
        sweep(
            base.p99_us as f64,
            "sweep active-request p99 (us), same shape",
        ),
    );
    // The CPU share compares like with like only over the baseline's
    // window.
    report.gate("window_ms", window_s * 1e3, ">=", ms(base.window) as f64);
    report.gate_eq("active.engine", &engine, "epoll");
    Ok(report)
}
