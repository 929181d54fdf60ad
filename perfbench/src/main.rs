//! `perfbench` — drives the real `gb-serve` and `gb-router` binaries from
//! one load-generating process (at most two threads, two connections,
//! closed loop) and prints end-to-end metrics, or with `--trace 1`
//! per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload hit-binary|miss-mixed|proxied-zipf
//!           --seed N --seconds S --trace 0|1
//! ```

mod fleet;
mod gen;
mod load;
mod replay;
mod rounds;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gb_core::problem::Bisectable;
use gb_service::proto::{Json, Request, Response};
use gb_service::Client;
use gb_store::{Store, StoreConfig};

use fleet::{Fleet, RunDir};
use load::{Conn, Lane, Phase, Source};
use replay::{Replayer, Served};
use rounds::{Marker, ROUND};
use stats::{mean, median, quantile, share, Metrics};
use trace::Tracer;
use workload::{Workload, CONNS};

/// Boots per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Records written into the `miss-mixed` store before its first boot.
const STORE_RECORDS: u64 = 50_000;

/// Client spans kept in the trace file (replay spans are all kept).
const TRACE_FILE_SPANS: usize = 1 << 16;

/// Requests at the head of a hit workload's traced phase that the
/// replay walks through the hit path.
const HOT_REPLAY: usize = 4096;

/// Depth-1 request pairs (proxied, then direct to the owning upstream)
/// behind `router.hop_us_p50`.
const HOP_PROBES: usize = 400;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload hit-binary|miss-mixed|proxied-zipf \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Bins {
    serve: PathBuf,
    router: PathBuf,
}

impl Bins {
    fn locate() -> Result<Bins, String> {
        let release = fleet::target_dir().join("release");
        let bins = Bins {
            serve: release.join("gb-serve"),
            router: release.join("gb-router"),
        };
        for bin in [&bins.serve, &bins.router] {
            if !bin.is_file() {
                return Err(format!(
                    "{} is not built (run perfbench/run.sh)",
                    bin.display()
                ));
            }
        }
        Ok(bins)
    }
}

/// A booted fleet: the address clients talk to and every gb-serve's.
struct Booted {
    fleet: Fleet,
    entry: SocketAddr,
    upstreams: Vec<SocketAddr>,
}

fn boot(
    w: Workload,
    bins: &Bins,
    run_dir: &RunDir,
    store: Option<&Seeded>,
) -> Result<Booted, String> {
    let mut fleet = Fleet::new(run_dir);
    let mut upstreams = Vec::new();
    for _ in 0..w.upstreams() {
        let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
        if let Some(cap) = w.cache_cap() {
            args.push("--cache-cap".into());
            args.push(cap.to_string());
        }
        if let Some(seeded) = store {
            args.push("--store-dir".into());
            args.push(seeded.dir.display().to_string());
        }
        upstreams.push(fleet.spawn(&bins.serve, &args)?);
    }
    let entry = if w.proxied() {
        let mut args: Vec<String> = vec!["--addr".into(), "127.0.0.1:0".into()];
        for up in &upstreams {
            args.push("--upstream".into());
            args.push(up.to_string());
        }
        fleet.spawn(&bins.router, &args)?
    } else {
        upstreams[0]
    };
    if store.is_some() {
        let recovered = counter(&stats_of(upstreams[0])?, "store.recovered");
        if recovered != STORE_RECORDS as f64 {
            return Err(format!(
                "gb-serve recovered {recovered} records, {STORE_RECORDS} were seeded"
            ));
        }
    }
    Ok(Booted {
        fleet,
        entry,
        upstreams,
    })
}

fn stats_of(addr: SocketAddr) -> Result<Json, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("stats connect {addr}: {e}"))?;
    match client.call(&Request::Stats) {
        Ok(Response::Stats(json)) => Ok(json),
        other => Err(format!("stats from {addr}: {other:?}")),
    }
}

/// The number at a dotted path of a stats object (0 when absent).
fn counter(json: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(json, |j, part| j.get(part))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The seeded `miss-mixed` store.
struct Seeded {
    dir: PathBuf,
    /// In-process `Store::open` time on the seeded directory.
    recover_s: f64,
}

/// Writes [`STORE_RECORDS`] solved records through the public store and
/// persist codecs (untimed), then times one in-process recovery.
fn seed_store(dir: PathBuf, seed: u64) -> Result<Seeded, String> {
    let (mut store, _) =
        Store::open(StoreConfig::new(&dir)).map_err(|e| format!("creating store: {e}"))?;
    for i in 0..STORE_RECORDS {
        let key = gen::store_key(seed, i);
        let problem = key.spec.build();
        let alpha = key.spec.alpha_hint().expect("store keys are synthetic");
        let partition = gb_core::hf::hf(problem, key.n);
        let value = gb_service::cache::CachedResult::new(
            partition.sorted_weights(),
            partition.ratio(),
            gb_core::hf_upper_bound(alpha, key.n),
            alpha,
        );
        let cache_key =
            gb_service::cache::CacheKey::new(key.spec.fingerprint(), key.algorithm, key.n, 1.0);
        store
            .append(
                &gb_service::persist::encode_key(&cache_key),
                &gb_service::persist::encode_value(&value),
            )
            .map_err(|e| format!("seeding store: {e}"))?;
    }
    drop(store);
    let started = Instant::now();
    let (_, recovered) =
        Store::open(StoreConfig::new(&dir)).map_err(|e| format!("recovering store: {e}"))?;
    let recover_s = started.elapsed().as_secs_f64();
    if recovered.len() as u64 != STORE_RECORDS {
        return Err(format!(
            "store recovered {} of {STORE_RECORDS} seeded records",
            recovered.len()
        ));
    }
    Ok(Seeded { dir, recover_s })
}

fn connect_all(addr: SocketAddr, w: Workload) -> Result<Vec<Conn>, String> {
    (0..CONNS)
        .map(|_| Conn::connect(addr, w.codec()).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

/// Runs one phase on every connection, continuing each connection's
/// request list from `first_k`. The connections are split evenly over
/// `threads` threads, this one included, which also marks the rounds.
fn run_phase(
    conns: &mut [Conn],
    source: &Source,
    first_k: &[u64],
    phase: &Phase,
    fleet: &Fleet,
    traced: bool,
) -> (PhaseResult, Option<Tracer>) {
    let threads = phase.threads;
    let mut marker = Marker::new(phase.start, ROUND, fleet.pids());
    let mut lanes: Vec<Lane> = conns
        .iter_mut()
        .enumerate()
        .map(|(c, conn)| Lane::new(c, conn, first_k[c]))
        .collect();
    let per_thread = lanes.len().div_ceil(threads);
    let run = |lanes: &mut [Lane], marker: Option<&mut Marker>| {
        let mut tracer = traced.then(|| Tracer::new(phase.start));
        load::drive(lanes, source, phase, tracer.as_mut(), marker);
        tracer
    };
    let mut groups = lanes.chunks_mut(per_thread);
    let first = groups.next().expect("at least one connection");
    let mut tracers = std::thread::scope(|scope| {
        let handles: Vec<_> = groups.map(|g| scope.spawn(|| run(g, None))).collect();
        let mut tracers = vec![run(first, Some(&mut marker))];
        tracers.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked")),
        );
        tracers
    });
    let rounds = phase.rounds();
    marker.finish(rounds);
    let mut r = PhaseResult {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        samples: Vec::new(),
        quality: BTreeMap::new(),
        deferred: Vec::new(),
        next_k: Vec::new(),
        rounds,
        marks: marker.marks,
    };
    for lane in lanes {
        let out = lane.out;
        r.attempted += out.attempted;
        r.failed += out.failed;
        r.failures.extend(out.failures);
        r.samples.extend(out.samples);
        r.quality.extend(
            out.quality
                .into_iter()
                .map(|(i, ratio, bound)| (i, (ratio, bound))),
        );
        r.next_k.push(out.next_k);
        r.deferred.extend(out.deferred);
    }
    let mut tracer: Option<Tracer> = None;
    for t in tracers.drain(..).flatten() {
        match tracer.as_mut() {
            Some(all) => all.absorb(t),
            None => tracer = Some(t),
        }
    }
    (r, tracer)
}

/// Everything one phase produced, merged over connections.
struct PhaseResult {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    samples: Vec<load::Sample>,
    quality: BTreeMap<u64, (f64, f64)>,
    deferred: Vec<(u64, load::Checked)>,
    next_k: Vec<u64>,
    rounds: usize,
    /// Host steal and server CPU at each round boundary.
    marks: Vec<rounds::Mark>,
}

/// The end-to-end timings over a phase's clean rounds.
struct Clean {
    rounds: Vec<usize>,
    throughput: f64,
    /// Latencies (µs) of the requests sent in the clean rounds.
    latencies: Vec<f64>,
    cpu_us_per_op: f64,
}

/// Checks the replies whose root weight has no closed form against the
/// weight of the problem built here. This runs after the phase, so
/// building problems never competes with the servers for the cores; a
/// reply that fails leaves the ok samples and counts as failed.
fn check_deferred(r: &mut PhaseResult, source: &Source) {
    let mut bad = std::collections::HashSet::new();
    for (index, checked) in std::mem::take(&mut r.deferred) {
        let (key, _) = source.key(index as usize % CONNS, index / CONNS as u64);
        if let Err(e) = load::check_weights(&checked, key.n, key.spec.build().weight()) {
            bad.insert(index);
            r.failed += 1;
            if r.failures.len() < 5 {
                r.failures.push(format!("request {index}: {e}"));
            }
        }
    }
    r.samples.retain(|s| !bad.contains(&s.index));
    r.quality.retain(|i, _| !bad.contains(i));
}

impl PhaseResult {
    fn replies_per_round(&self) -> Vec<u64> {
        let mut per_round = vec![0; self.rounds];
        for s in &self.samples {
            if let Some(slot) = per_round.get_mut((s.done_us() / ROUND.as_micros() as u64) as usize)
            {
                *slot += 1;
            }
        }
        per_round
    }

    /// Throughput, latencies and CPU per reply over the rounds in which
    /// the host stole the least CPU (see [`rounds`]).
    fn clean(&self) -> Clean {
        let rounds = rounds::clean_rounds(&self.marks, self.rounds);
        let round_us = ROUND.as_micros() as u64;
        let mut is_clean = vec![false; self.rounds];
        for &r in &rounds {
            is_clean[r] = true;
        }
        let in_clean = |us: u64| is_clean.get((us / round_us) as usize) == Some(&true);
        let done = self
            .samples
            .iter()
            .filter(|s| in_clean(s.done_us()))
            .count() as f64;
        let latencies = self
            .samples
            .iter()
            .filter(|s| in_clean(s.sent_us as u64))
            .map(|s| s.lat_ns as f64 / 1e3)
            .collect();
        let cpu_s: f64 = rounds
            .iter()
            .map(|&r| self.marks[r + 1].cpu_s - self.marks[r].cpu_s)
            .sum();
        Clean {
            throughput: done / (rounds.len() as f64 * ROUND.as_secs_f64()),
            latencies,
            cpu_us_per_op: share(cpu_s * 1e6, done),
            rounds,
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    fleet::refuse_strays()?;
    let bins = Bins::locate()?;
    let run_dir = RunDir::create().map_err(|e| format!("creating run directory: {e}"))?;
    let w = args.workload;
    let seeded = match w {
        Workload::MissMixed => Some(seed_store(run_dir.path().join("store"), args.seed)?),
        _ => None,
    };
    let mut source = match w {
        Workload::MissMixed => Source::Miss {
            seed: args.seed,
            codec: w.codec(),
        },
        _ => Source::hot(w, args.seed),
    };
    let frames_digest = source.frames_digest(64);

    // Set-up, SETUPS times: boot, connect, warm; the last one is measured.
    let mut setup_s = Vec::new();
    let mut live: Option<(Booted, Vec<Conn>)> = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let started = Instant::now();
        let booted = boot(w, &bins, &run_dir, seeded.as_ref())?;
        let mut conns = connect_all(booted.entry, w)?;
        if let Source::Hot {
            keys,
            first_answers,
            ..
        } = &mut source
        {
            let first = load::warm_hot(&mut conns[0], w, keys)?;
            let digests = |a: &[load::Checked]| a.iter().map(|c| c.digest).collect::<Vec<_>>();
            if !first_answers.is_empty() && digests(first_answers) != digests(&first) {
                return Err("a hot key answered differently after a reboot".into());
            }
            *first_answers = first;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        live = Some((booted, conns));
    }
    let (booted, mut conns) = live.expect("SETUPS > 0");
    let setup_s = median(&mut setup_s);

    if args.trace {
        return traced_run(
            args,
            &run_dir,
            &booted,
            &mut conns,
            &source,
            seeded.as_ref(),
        );
    }
    let start = Instant::now();
    let phase = Phase {
        start,
        deadline: start + Duration::from_secs_f64(args.seconds),
        prefix: w.quality_prefix() as u64,
        window: w.window(),
        threads: w.threads(),
    };
    let (mut r, _) = run_phase(
        &mut conns,
        &source,
        &[0; CONNS],
        &phase,
        &booted.fleet,
        false,
    );
    let peak_rss_mb = booted.fleet.peak_rss_mb()?;
    check_deferred(&mut r, &source);
    let mut clean = r.clean();
    let (answers, ratio_mean, violations) = quality(&source, &r);
    let ok = r.samples.len() as u64;
    let mut m = Metrics::default();
    m.put("throughput_rps", clean.throughput, "1/s");
    m.put("latency_p50_us", quantile(&mut clean.latencies, 0.5), "us");
    m.put("latency_p99_us", quantile(&mut clean.latencies, 0.99), "us");
    m.put("cpu_us_per_op", clean.cpu_us_per_op, "us");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    m.put("setup_s", setup_s, "s");
    m.put("ok_share", share(ok as f64, r.attempted as f64), "share");
    m.put("ratio_mean", ratio_mean, "ratio");
    m.put(
        "bound_held_share",
        1.0 - share(violations as f64, answers as f64),
        "share",
    );
    eprint!("{}", m.table());
    let samples = clean.latencies.len();
    eprintln!(
        "  latency over {samples} requests ({} beyond p99) sent in clean rounds {:?}\n  \
         replies per round {:?}\n  stolen ticks per round {:?}\n  failed_share {:.6}; \
         bound_violation_share {:.6} over {answers} answers; frames digest {frames_digest:016x}",
        samples / 100,
        clean.rounds,
        r.replies_per_round(),
        rounds::steal_per_round(&r.marks),
        share(r.failed as f64, r.attempted as f64),
        share(violations as f64, answers as f64),
    );
    for f in &r.failures {
        eprintln!("  failure: {f}");
    }
    let correct = r.failed == 0 && samples >= 1000;
    Ok(m.result_line(correct, r.attempted, r.failed))
}

/// The answers `ratio_mean` and `bound_held_share` are taken over: the
/// hot set's first answers, or the replies to the head of the
/// `miss-mixed` list. Both are a pure function of the seed. Returns their
/// count, mean ratio and `ratio > bound` count.
fn quality(source: &Source, r: &PhaseResult) -> (usize, f64, u64) {
    let pairs: Vec<(f64, f64)> = match source {
        Source::Hot { first_answers, .. } => {
            first_answers.iter().map(|a| (a.ratio, a.bound)).collect()
        }
        Source::Miss { .. } => r.quality.values().copied().collect(),
    };
    let ratios: Vec<f64> = pairs.iter().map(|&(ratio, _)| ratio).collect();
    let violations = pairs
        .iter()
        .filter(|&&(ratio, bound)| ratio > bound)
        .count() as u64;
    (pairs.len(), mean(&ratios), violations)
}

/// Counters read through the `stats` op of every gb-serve (and the
/// router), before and after a phase.
struct Snapshot {
    serve: Vec<Json>,
    router: Option<Json>,
}

impl Snapshot {
    fn take(b: &Booted, proxied: bool) -> Result<Snapshot, String> {
        Ok(Snapshot {
            serve: b
                .upstreams
                .iter()
                .map(|&a| stats_of(a))
                .collect::<Result<_, _>>()?,
            router: if proxied {
                Some(stats_of(b.entry)?)
            } else {
                None
            },
        })
    }

    /// A gb-serve counter summed over the fleet.
    fn serve(&self, path: &str) -> f64 {
        self.serve.iter().map(|j| counter(j, path)).sum()
    }

    /// Balance requests answered ok, summed over algorithms and fleet.
    fn balanced(&self) -> f64 {
        ["hf", "ba", "bahf", "phf"]
            .iter()
            .map(|a| self.serve(&format!("requests.by_algorithm.{a}.ok")))
            .sum()
    }

    fn router(&self, path: &str) -> f64 {
        self.router.as_ref().map_or(0.0, |j| counter(j, path))
    }

    /// Requests the router sent to each upstream.
    fn upstream_requests(&self) -> Vec<f64> {
        self.router
            .as_ref()
            .and_then(|j| j.get("upstreams")?.as_arr().map(<[Json]>::to_vec))
            .unwrap_or_default()
            .iter()
            .map(|u| counter(u, "requests"))
            .collect()
    }
}

/// Median self time, in `scale` units of a nanosecond, of the spans
/// named `name` (0 when the layer did no work).
fn median_of(by_name: &BTreeMap<&'static str, Vec<u64>>, name: &str, scale: f64) -> f64 {
    let mut v: Vec<f64> = by_name
        .get(name)
        .map(|v| v.iter().map(|&ns| ns as f64 / scale).collect())
        .unwrap_or_default();
    median(&mut v)
}

fn sum_of(by_name: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    by_name
        .get(name)
        .map_or(0.0, |v| v.iter().map(|&ns| ns as f64).sum())
}

fn mean_of(by_name: &BTreeMap<&'static str, Vec<u64>>, name: &str, scale: f64) -> f64 {
    let n = by_name.get(name).map_or(0, Vec::len);
    share(sum_of(by_name, name) / scale, n as f64)
}

/// The per-layer run: a traced phase from the head of the request list,
/// an untraced phase of the same length after it (the tracing
/// overhead's baseline), the hop probe through the router, and the
/// replay of the traced phase's quality prefix through every layer.
fn traced_run(
    args: &Args,
    run_dir: &RunDir,
    booted: &Booted,
    conns: &mut [Conn],
    source: &Source,
    seeded: Option<&Seeded>,
) -> Result<String, String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let prefix = w.quality_prefix();

    let before = Snapshot::take(booted, w.proxied())?;
    let start = Instant::now();
    let phase = Phase {
        start,
        deadline: start + Duration::from_secs_f64(half),
        prefix: prefix as u64,
        window: w.window(),
        threads: w.threads(),
    };
    let (mut traced, client) = run_phase(conns, source, &[0; CONNS], &phase, &booted.fleet, true);
    let client = client.expect("traced phase records spans");
    let after = Snapshot::take(booted, w.proxied())?;
    check_deferred(&mut traced, source);

    let start = Instant::now();
    let phase = Phase {
        start,
        deadline: start + Duration::from_secs_f64(half),
        prefix: 0,
        window: w.window(),
        threads: w.threads(),
    };
    let (mut plain, _) = run_phase(conns, source, &traced.next_k, &phase, &booted.fleet, false);
    check_deferred(&mut plain, source);

    let hop_us = if w.proxied() {
        hop_probe(booted, w, source)?
    } else {
        0.0
    };

    // Replay on fresh in-process state brought to where the servers
    // stood after set-up. The hit workloads re-derive every hot key's
    // first answer, then replay the head of the traced phase; miss-mixed
    // replays its quality prefix.
    let capacity = w
        .cache_cap()
        .unwrap_or(gb_service::ServerConfig::default().cache_capacity);
    let replay_store = seeded.map(|_| run_dir.path().join("replay-store"));
    let mut replayer = Replayer::new(w.codec(), w.upstreams(), capacity, replay_store.as_deref())?;
    let (mut violations, mut mismatches) = (0, 0);
    let served: Vec<Served> = match source {
        Source::Hot {
            keys,
            first_answers,
            ..
        } => {
            for (key, first) in keys.iter().zip(first_answers) {
                let (ratio, bound) = replayer.warm(key)?;
                violations += u64::from(ratio > bound);
                mismatches += u64::from(ratio != first.ratio || bound != first.bound);
            }
            let mut head: Vec<&load::Sample> = traced.samples.iter().collect();
            head.sort_unstable_by_key(|s| s.index);
            head.iter()
                .take(HOT_REPLAY)
                .map(|s| {
                    let (c, k) = (s.index as usize % CONNS, s.index / CONNS as u64);
                    let (key, id) = source.key(c, k);
                    let first = first_answers[source.hot_index(c, k).expect("hot source")];
                    Served {
                        key: key.into_owned(),
                        id,
                        ratio: first.ratio,
                        bound: first.bound,
                        micros: s.micros as u64,
                    }
                })
                .collect()
        }
        Source::Miss { .. } => {
            let micros: BTreeMap<u64, u64> = traced
                .samples
                .iter()
                .map(|s| (s.index, s.micros as u64))
                .collect();
            traced
                .quality
                .iter()
                .map(|(&index, &(ratio, bound))| {
                    let (key, id) = source.key(index as usize % CONNS, index / CONNS as u64);
                    Served {
                        key: key.into_owned(),
                        id,
                        ratio,
                        bound,
                        micros: micros.get(&index).copied().unwrap_or(0),
                    }
                })
                .collect()
        }
    };
    let mut replay_tracer = Tracer::new(Instant::now());
    let rep = replayer.replay(&served, &mut replay_tracer)?;
    if let Source::Miss { .. } = source {
        violations = rep.violations;
    }
    mismatches += rep.mismatches;
    let (_, _, e2e_violations) = quality(source, &traced);

    let spans_dir = fleet::target_dir().join("perfbench-traces");
    let stem = format!("{}-seed{}", w.name(), args.seed);
    write_traces(&spans_dir, &stem, &client, &replay_tracer)?;

    let c = client.self_times_by_name();
    let r = replay_tracer.self_times_by_name();
    let ops = traced.samples.len() as f64;
    let kops = ops / 1e3;
    let d = |path: &str| after.serve(path) - before.serve(path);
    let mut wire: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| s.lat_ns as f64 / 1e3 - s.micros as f64)
        .collect();
    let mut traced_lat = traced.clean().latencies;
    let mut plain_lat = plain.clean().latencies;
    let hits = d("cache.hits");
    let compute: f64 = [
        "spec.build",
        "alpha.estimate",
        "solve.hf",
        "solve.ba",
        "solve.bahf",
        "solve.phf",
        "bounds.bound",
    ]
    .iter()
    .map(|n| sum_of(&r, n))
    .sum();
    let upstream: Vec<f64> = after
        .upstream_requests()
        .iter()
        .zip(before.upstream_requests())
        .map(|(a, b)| a - b)
        .collect();
    let mut queue_wait = rep.queue_wait_us.clone();

    let mut m = Metrics::default();
    m.put("server.wire_us_p50", median(&mut wire), "us");
    m.put(
        "server.fast_path_share",
        share(
            d("requests.fast_path"),
            after.balanced() - before.balanced(),
        ),
        "share",
    );
    m.put(
        "proto.decode_request_ns",
        median_of(&r, "proto.decode_request", 1.0),
        "ns",
    );
    m.put(
        "proto.hit_reply_ns",
        median_of(&r, "proto.hit_reply", 1.0),
        "ns",
    );
    m.put(
        "proto.encode_response_ns",
        median_of(&r, "proto.encode_response", 1.0),
        "ns",
    );
    m.put(
        "proto.decode_response_ns",
        median_of(&c, "proto.decode_response", 1.0),
        "ns",
    );
    m.put("cache.get_ns", median_of(&r, "cache.get", 1.0), "ns");
    m.put("cache.put_ns", median_of(&r, "cache.put", 1.0), "ns");
    m.put(
        "cache.client_hit_share",
        share(
            traced.samples.iter().filter(|s| s.cached).count() as f64,
            ops,
        ),
        "share",
    );
    m.put(
        "cache.server_hit_rate",
        share(hits, hits + d("cache.misses")),
        "share",
    );
    m.put(
        "cache.evictions_per_kop",
        share(d("cache.evictions"), kops),
        "1/kop",
    );
    m.put(
        "cache.admission_rejects_per_kop",
        share(d("cache.admission_rejects"), kops),
        "1/kop",
    );
    m.put("spec.build_us", mean_of(&r, "spec.build", 1e3), "us");
    m.put(
        "spec.fingerprint_ns",
        median_of(&r, "spec.fingerprint", 1.0),
        "ns",
    );
    m.put(
        "alpha.estimate_us",
        mean_of(&r, "alpha.estimate", 1e3),
        "us",
    );
    m.put(
        "alpha.share_of_compute",
        share(sum_of(&r, "alpha.estimate"), compute),
        "share",
    );
    m.put("solve.hf_us", mean_of(&r, "solve.hf", 1e3), "us");
    m.put("solve.ba_us", mean_of(&r, "solve.ba", 1e3), "us");
    m.put("solve.bahf_us", mean_of(&r, "solve.bahf", 1e3), "us");
    m.put("solve.phf_us", mean_of(&r, "solve.phf", 1e3), "us");
    m.put(
        "solve.phf_over_hf",
        share(mean_of(&r, "solve.phf", 1.0), mean_of(&r, "solve.hf", 1.0)),
        "ratio",
    );
    m.put("bounds.violations", violations as f64, "count");
    m.put("shed.queue_wait_us_p50", median(&mut queue_wait), "us");
    m.put(
        "shed.steals_per_kop",
        share(d("queue.steals"), kops),
        "1/kop",
    );
    m.put("store.append_us", median_of(&r, "store.append", 1e3), "us");
    m.put("store.recover_s", seeded.map_or(0.0, |s| s.recover_s), "s");
    m.put("store.appended", d("store.appended"), "count");
    m.put("store.spill_dropped", d("store.spill_dropped"), "count");
    m.put(
        "route.vnode_of_ns",
        median_of(&r, "route.vnode_of", 1.0),
        "ns",
    );
    m.put("router.hop_us_p50", hop_us, "us");
    m.put(
        "router.retries_per_kop",
        share(
            after.router("router.retries") - before.router("router.retries"),
            kops,
        ),
        "1/kop",
    );
    m.put(
        "router.hedges_sent",
        after.router("router.hedges_sent") - before.router("router.hedges_sent"),
        "count",
    );
    m.put(
        "router.upstream_imbalance",
        share(
            upstream.iter().cloned().fold(0.0, f64::max),
            mean(&upstream),
        ),
        "ratio",
    );
    m.put(
        "trace.coverage",
        share(rep.covered_ns as f64 / 1e3, rep.server_us as f64),
        "share",
    );
    m.put(
        "trace.overhead",
        share(median(&mut traced_lat), median(&mut plain_lat)),
        "ratio",
    );
    eprint!("{}", m.table());
    eprintln!(
        "  replayed {} requests: {violations} violations (end to end {e2e_violations}), \
         {mismatches} ratio/bound mismatches; spans in {}",
        rep.requests,
        spans_dir.join(&stem).display(),
    );
    for f in traced.failures.iter().chain(&plain.failures) {
        eprintln!("  failure: {f}");
    }
    let failed = traced.failed + plain.failed;
    let correct = failed == 0
        && violations == e2e_violations
        && mismatches == 0
        && traced.quality.len() == prefix;
    Ok(m.result_line(correct, traced.attempted + plain.attempted, failed))
}

fn write_traces(dir: &Path, stem: &str, client: &Tracer, replay: &Tracer) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (suffix, tracer, limit) in [
        ("client", client, TRACE_FILE_SPANS),
        ("replay", replay, usize::MAX),
    ] {
        let path = dir.join(format!("{stem}-{suffix}.tsv"));
        tracer
            .write(&path, limit)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Median depth-1 latency through the router minus the same keys sent
/// straight to the upstream that owns them, in µs.
fn hop_probe(b: &Booted, w: Workload, source: &Source) -> Result<f64, String> {
    let Source::Hot { keys, seqs, .. } = source else {
        return Ok(0.0);
    };
    let ring =
        gb_service::route::FailoverRing::new(b.upstreams.len(), gb_service::route::DEFAULT_VNODES);
    let codec = w.codec();
    let connect =
        |addr| Conn::connect(addr, codec).map_err(|e| format!("probe connect {addr}: {e}"));
    let mut via_router = connect(b.entry)?;
    let mut direct: Vec<Conn> = b
        .upstreams
        .iter()
        .map(|&a| connect(a))
        .collect::<Result<_, _>>()?;
    let (mut proxied, mut straight) = (Vec::new(), Vec::new());
    let mut frame = Vec::new();
    for (i, &k) in seqs[0].iter().take(HOP_PROBES).enumerate() {
        let key = &keys[k as usize];
        let mix =
            gb_service::cache::CacheKey::new(key.spec.fingerprint(), key.algorithm, key.n, 1.0)
                .mix();
        let owner = ring.route(mix).unwrap_or(0) as usize;
        let id = PROBE_ID_BASE + i as u64;
        frame.clear();
        gb_service::proto::Codec::encode_request(&codec, &key.request(id), &mut frame);
        for (conn, out) in [
            (&mut via_router, &mut proxied),
            (&mut direct[owner], &mut straight),
        ] {
            let t0 = Instant::now();
            conn.send(&frame).map_err(|e| format!("probe send: {e}"))?;
            let payload = conn.recv().map_err(|e| format!("probe recv: {e}"))?;
            out.push(t0.elapsed().as_secs_f64() * 1e6);
            let resp = gb_service::proto::Codec::decode_response(&codec, payload)
                .map_err(|e| format!("probe decode: {e}"))?;
            load::check_reply(resp, id, key).map_err(|e| format!("probe: {e}"))?;
        }
    }
    Ok(median(&mut proxied) - median(&mut straight))
}

/// Ids of hop-probe requests start here, clear of run and set-up ids.
const PROBE_ID_BASE: u64 = 1 << 41;
