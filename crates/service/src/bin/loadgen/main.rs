//! `loadgen` — drive a gb-service server with concurrent clients, or run
//! one of the committed bench scenarios.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--clients K] [--requests R]
//!         [--metrics-out FILE] [--shutdown]
//! loadgen chaos [--addr HOST:PORT] [--clients K] [--duration-ms MS]
//!         [--seed S] [--metrics-out FILE] [--shutdown]
//! loadgen warm-load --addr HOST:PORT
//! loadgen warm-replay --addr HOST:PORT [--metrics-out FILE] [--shutdown]
//! loadgen bench <serving|codec|store|sharding|skew|router|soak>
//!         [--smoke] [--out FILE]
//! ```
//!
//! Without `--addr` an in-process server is spawned on an ephemeral port
//! (and shut down gracefully at the end), so
//! `cargo run -p gb-service --release --bin loadgen` is self-contained.
//!
//! Plain mode spreads `R` requests over `K` connections; request `i`
//! cycles through the four algorithms and 64 problem seeds, so runs
//! longer than 256 requests revisit keys and exercise the result cache.
//! It prints throughput, the client-observed latency distribution and
//! the server's own stats, and exits non-zero if any request failed —
//! transport failures and error replies alike. `--metrics-out` snapshots
//! the stats endpoint after the run; `--shutdown` then stops the server
//! via a `shutdown` frame.
//!
//! `chaos` runs hostile clients for `--duration-ms` (default 5 s): each
//! of `K` threads randomly drops connections mid-frame, abandons
//! requests without reading the reply, interleaves garbage and oversized
//! frames with valid traffic, and sends normal requests — all replayable
//! from `--seed`. Afterwards it asserts the "never wedges" invariants:
//! queue depth and in-flight count drain to zero and a fresh client
//! still gets a correct answer.
//!
//! `warm-load` primes an external server's 48-key hot set and waits until
//! every record is durably appended to its store (and fsynced, when the
//! server runs a sync mode), so the server can then be SIGKILLed.
//! `warm-replay` replays the set against the restarted server and fails
//! unless at least 90% of it is served warm with `store.recovered > 0`.
//!
//! `bench <scenario>` runs one committed experiment and writes one
//! `gb-bench/v2` report (see `report.rs`) to `results/BENCH_<scenario>.json`,
//! or with `--smoke` the scenario's short CI shape to
//! `target/bench-smoke/BENCH_<scenario>.json`; `--out` overrides either.
//! The exit code is non-zero unless every gate passed:
//!
//! * `serving` — JSON hot hits, 64 pipelined connections, vs the
//!   committed thread-per-connection baseline (full runs gate 2x), plus
//!   TinyLFU scan-resistance probes.
//! * `codec` — JSON vs binary on the same hit path (full runs gate binary
//!   at 2x the committed pre-codec figure, smoke runs at 0.8x same-run
//!   JSON).
//! * `store` — warm vs cold restart of a 64-key hot set.
//! * `sharding` — victim p99 under a hot-class flood stays within 2x the
//!   isolated baseline on a gb-router over 4 gb-serve children.
//! * `skew` — zipf traffic on a rebalancing gb-router fleet vs a static
//!   ring.
//! * `router` — direct vs proxied throughput through real `gb-router`
//!   and `gb-serve` child processes, an upstream SIGKILL under load, and
//!   hedged vs unhedged tail latency.
//! * `soak` — an idle connection herd on a `gb-serve` child; the epoll
//!   poller's CPU share and active p99 vs committed sweep-loop figures.

mod bench;
mod fleet;
mod report;
mod runner;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use gb_core::rng::SplitMix64;
use gb_service::client::Client;
use gb_service::proto::{Algorithm, Request, Response, MAX_FRAME};
use gb_service::server::{Server, ServerConfig};

use bench::MIN_WARM_RATE;
use fleet::{fetch_stats, stat_u64};
use runner::{Phase, Stop, Tally};

const USAGE: &str = "usage: loadgen [--addr HOST:PORT] [--clients K] [--requests R] \
[--metrics-out FILE] [--shutdown]
       loadgen chaos [--addr HOST:PORT] [--clients K] [--duration-ms MS] [--seed S] \
[--metrics-out FILE] [--shutdown]
       loadgen warm-load --addr HOST:PORT
       loadgen warm-replay --addr HOST:PORT [--metrics-out FILE] [--shutdown]
       loadgen bench <serving|codec|store|sharding|skew|router|soak> [--smoke] [--out FILE]";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Plain,
    Chaos,
    WarmLoad,
    WarmReplay,
    /// An index into [`bench::SCENARIOS`].
    Bench(usize),
}

/// Every settable value: the scenario plus nine flags.
struct Options {
    mode: Mode,
    addr: Option<SocketAddr>,
    clients: usize,
    requests: u64,
    seed: u64,
    duration_ms: Option<u64>,
    smoke: bool,
    shutdown: bool,
    out: Option<String>,
    metrics_out: Option<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        mode: Mode::Plain,
        addr: None,
        clients: 8,
        requests: 1000,
        seed: 1,
        duration_ms: None,
        smoke: false,
        shutdown: false,
        out: None,
        metrics_out: None,
    };
    let mut words = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            words.push(arg);
            continue;
        }
        let mut value = || args.next().ok_or(format!("missing value for {arg}"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{arg} expects an integer, got {text:?}"))
        };
        match arg.as_str() {
            "--addr" => {
                let text = value()?;
                let addr = text
                    .parse()
                    .map_err(|_| format!("--addr expects HOST:PORT, got {text:?}"))?;
                opts.addr = Some(addr);
            }
            "--clients" => opts.clients = number(value()?)?.max(1) as usize,
            "--requests" => opts.requests = number(value()?)?,
            "--seed" => opts.seed = number(value()?)?,
            "--duration-ms" => opts.duration_ms = Some(number(value()?)?),
            "--smoke" => opts.smoke = true,
            "--shutdown" => opts.shutdown = true,
            "--out" => opts.out = Some(value()?),
            "--metrics-out" => opts.metrics_out = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    opts.mode = match words.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => Mode::Plain,
        ["chaos"] => Mode::Chaos,
        ["warm-load"] => Mode::WarmLoad,
        ["warm-replay"] => Mode::WarmReplay,
        ["bench", name] => match bench::SCENARIOS.iter().position(|(s, _)| *s == name) {
            Some(index) => Mode::Bench(index),
            None => return Err(format!("unknown bench scenario {name:?}")),
        },
        _ => return Err(format!("expected at most one scenario, got {words:?}")),
    };
    let bench = matches!(opts.mode, Mode::Bench(_));
    if (opts.smoke || opts.out.is_some()) && !bench {
        return Err("--smoke and --out apply only to bench scenarios".into());
    }
    if opts.duration_ms.is_some() && opts.mode != Mode::Chaos {
        return Err("--duration-ms applies only to chaos".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Mode::Bench(index) = opts.mode {
        let (scenario, run) = bench::SCENARIOS[index];
        return match run(opts.smoke) {
            Ok(report) => report.write(opts.out.as_deref()),
            Err(e) => {
                eprintln!("bench {scenario}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Spawn an in-process server unless one was pointed at.
    let local = match opts.addr {
        Some(_) => None,
        None => match Server::start(ServerConfig::default()) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("loadgen: failed to start in-process server: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let addr = local
        .as_ref()
        .map_or_else(|| opts.addr.unwrap(), Server::local_addr);
    if local.is_some() {
        println!("loadgen: spawned in-process server on {addr}");
    }
    let ok = match opts.mode {
        Mode::Plain => run_plain(&opts, addr),
        Mode::Chaos => run_chaos(&opts, addr),
        Mode::WarmLoad => run_warm_load(addr),
        Mode::WarmReplay => run_warm_replay(&opts, addr),
        Mode::Bench(_) => unreachable!("benches returned above"),
    };
    if opts.shutdown {
        match fleet::send_shutdown(addr) {
            Ok(_) => println!("loadgen: shutdown frame acknowledged"),
            Err(e) => eprintln!("loadgen: shutdown frame failed: {e}"),
        }
    }
    if let Some(server) = local {
        server.shutdown();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Processor count of plain-mode and chaos requests.
const PLAIN_N: usize = 64;
/// Problem seeds plain-mode and chaos requests cycle through.
const PLAIN_DISTINCT: u64 = 64;

/// Request `i` cycles the four algorithms, then the seeds.
fn plain_request(i: u64) -> Request {
    let algorithms = Algorithm::ALL.len() as u64;
    let algorithm = Algorithm::ALL[(i % algorithms) as usize];
    bench::request(i, algorithm, PLAIN_N, (i / algorithms) % PLAIN_DISTINCT)
}

/// Writes the server's stats object to `--metrics-out`, if set.
fn snapshot_stats(opts: &Options, addr: SocketAddr) {
    let Some(path) = &opts.metrics_out else {
        return;
    };
    match fetch_stats(addr) {
        Some(stats) => match std::fs::write(path, stats.encode_pretty() + "\n") {
            Ok(()) => println!("loadgen: wrote {path}"),
            Err(e) => eprintln!("loadgen: failed to write {path}: {e}"),
        },
        None => eprintln!("loadgen: stats snapshot for {path} failed"),
    }
}

fn run_plain(opts: &Options, addr: SocketAddr) -> bool {
    println!(
        "loadgen: {} requests over {} clients against {addr} (n={PLAIN_N}, algorithms: all)",
        opts.requests, opts.clients
    );
    let stats = Phase::new(addr, Stop::after(opts.requests), plain_request)
        .conns(opts.clients)
        .run();
    println!(
        "loadgen: {} responses in {:.3} s  ({:.0} req/s)",
        stats.requests, stats.elapsed_s, stats.rps
    );
    println!("  {}", stats.summary());
    if let Some(first) = &stats.first_io_error {
        eprintln!(
            "loadgen: {} connection(s) failed, first: {first}",
            stats.io_errors
        );
    }
    if let Some(stats) = fetch_stats(addr) {
        let hit_rate = stats.get("cache").and_then(|c| c.get("hit_rate")?.as_f64());
        println!(
            "server: {} requests served, cache hit rate {:.1}%",
            stat_u64(&stats, &["requests", "total"]).unwrap_or(0),
            hit_rate.unwrap_or(0.0) * 100.0
        );
    }
    snapshot_stats(opts, addr);
    let failed = stats.io_errors + stats.errors_total();
    if failed > 0 {
        eprintln!("loadgen: FAILED — {failed} request(s) got no ok answer");
    }
    failed == 0
}

// ---------------------------------------------------------------------------
// chaos: hostile clients + never-wedges invariant check
// ---------------------------------------------------------------------------

/// Hostile actions performed, per kind; valid traffic is tallied
/// separately.
const HOSTILE: [&str; 5] = [
    "mid-frame drops",
    "abandoned",
    "garbage",
    "oversized",
    "instant drops",
];
type Hostile = [u64; 5];

fn chaos_connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
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
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(line.contains("\"status\":\"ok\"") || line.contains("\"status\":\"pong\""))
}

/// One hostile exchange on a fresh connection. Every arm may fail with
/// an I/O error — the server may legitimately kill us — but nothing here
/// may wedge: timeouts bound every read and write.
fn chaos_action(
    rng: &mut SplitMix64,
    addr: SocketAddr,
    valid: &mut Tally,
    hostile: &mut Hostile,
) -> std::io::Result<()> {
    let mut frame = plain_request(rng.next_u64() % 1024).encode();
    frame.push('\n');
    let mut count = |ok: bool| {
        if ok {
            valid.ok()
        } else {
            valid.error("error_reply")
        }
    };
    match rng.next_u64() % 8 {
        // Half the actions are plain valid traffic so the hostile ones
        // always interleave with real work.
        0..=2 => {
            let mut stream = chaos_connect(addr)?;
            stream.write_all(frame.as_bytes())?;
            count(chaos_read_reply(&stream)?);
        }
        3 => {
            // Drop mid-frame: half a JSON object, no newline, close.
            let mut stream = chaos_connect(addr)?;
            stream.write_all(&frame.as_bytes()[..(frame.len() / 2).max(1)])?;
            hostile[0] += 1;
        }
        4 => {
            // Send a full request, never read the reply, close. The
            // worker's answer lands on a dead socket.
            let mut stream = chaos_connect(addr)?;
            stream.write_all(frame.as_bytes())?;
            hostile[1] += 1;
        }
        5 => {
            // Garbage pipelined with a valid request: both must be
            // answered, in order.
            let mut stream = chaos_connect(addr)?;
            stream.write_all(b"!! not json !!\n")?;
            stream.write_all(frame.as_bytes())?;
            let first_ok = chaos_read_reply(&stream)?;
            let second_ok = chaos_read_reply(&stream)?;
            hostile[2] += 1;
            count(!first_ok && second_ok);
        }
        6 => {
            // Oversized frame, then a valid one after the resync.
            let mut stream = chaos_connect(addr)?;
            stream.write_all(&vec![b'x'; MAX_FRAME + 64])?;
            stream.write_all(b"\n")?;
            stream.write_all(frame.as_bytes())?;
            let _ = chaos_read_reply(&stream)?; // the too-long error
            count(chaos_read_reply(&stream)?);
            hostile[3] += 1;
        }
        _ => {
            // Connect and vanish before sending anything.
            drop(chaos_connect(addr)?);
            hostile[4] += 1;
        }
    }
    Ok(())
}

/// Polls the server's stats until queue depth and in-flight count are
/// both zero (or the timeout passes). Returns the final pair; a gauge
/// the server did not report reads as `u64::MAX`.
fn await_drained(addr: SocketAddr, timeout: Duration) -> (u64, u64) {
    let deadline = Instant::now() + timeout;
    loop {
        let stats = fetch_stats(addr);
        let gauge = |path: &[&str]| {
            let stats = stats.as_ref();
            stats.and_then(|s| stat_u64(s, path)).unwrap_or(u64::MAX)
        };
        let last = (
            gauge(&["queue", "depth"]),
            gauge(&["connections", "inflight"]),
        );
        if last == (0, 0) || Instant::now() >= deadline {
            return last;
        }
        thread::sleep(Duration::from_millis(100));
    }
}

fn run_chaos(opts: &Options, addr: SocketAddr) -> bool {
    let duration = Duration::from_millis(opts.duration_ms.unwrap_or(5_000));
    println!(
        "chaos: {} hostile clients against {addr} for {:.1} s (seed {})",
        opts.clients,
        duration.as_secs_f64(),
        opts.seed
    );
    let started = Instant::now();
    let handles: Vec<_> = (0..opts.clients as u64)
        .map(|t| {
            let mut rng = SplitMix64::new(opts.seed.wrapping_add(t * 0x5851_f42d));
            thread::spawn(move || {
                let (mut valid, mut hostile) = (Tally::default(), Hostile::default());
                while started.elapsed() < duration {
                    if let Err(e) = chaos_action(&mut rng, addr, &mut valid, &mut hostile) {
                        // The server is allowed to kill hostile
                        // connections; what matters is that it keeps
                        // serving afterwards.
                        valid.io_error(e.to_string());
                    }
                }
                (valid, hostile)
            })
        })
        .collect();
    let (mut valid, mut total) = (Tally::default(), Hostile::default());
    for handle in handles {
        let (v, h) = handle.join().expect("chaos thread panicked");
        valid.merge(v);
        total.iter_mut().zip(h).for_each(|(t, n)| *t += n);
    }
    let valid = valid.finish(started.elapsed());
    let hostile: Vec<String> = HOSTILE
        .iter()
        .zip(total)
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    println!(
        "chaos: ok {} err {} | {} | io errors {}",
        valid.ok,
        valid.errors_total(),
        hostile.join(", "),
        valid.io_errors
    );

    // Invariants: the wreckage must fully drain (no leaked queue slots or
    // in-flight gates) and a fresh, well-behaved client must still get a
    // correct answer.
    let (depth, inflight) = await_drained(addr, Duration::from_secs(15));
    let drained = (depth, inflight) == (0, 0);
    println!("chaos: post-run queue depth {depth}, inflight {inflight}");
    let final_ok = Client::connect(addr)
        .and_then(|mut c| c.call(&plain_request(0)))
        .is_ok_and(|r| matches!(r, Response::Ok(ok) if ok.ratio >= 1.0 && ok.ratio <= ok.bound));
    println!(
        "chaos: fresh balance request after the storm: {}",
        if final_ok { "ok" } else { "FAILED" }
    );
    // The server's own view (the per-backend rollup included) before
    // tearing it down.
    snapshot_stats(opts, addr);
    if drained && final_ok && valid.ok > 0 {
        println!("chaos: invariants held");
        true
    } else {
        eprintln!("chaos: INVARIANT VIOLATION (drained={drained}, final_ok={final_ok})");
        false
    }
}

// ---------------------------------------------------------------------------
// warm-load / warm-replay: the crash-recovery story
// ---------------------------------------------------------------------------

/// Size of the hot set warm-load primes and warm-replay checks.
const WARM_DISTINCT: u64 = 48;

/// Primes an external server's hot set and blocks until every record is
/// durably appended to its store — after this succeeds the server can
/// be SIGKILLed and a successor must recover the set.
fn run_warm_load(addr: SocketAddr) -> bool {
    let n = WARM_DISTINCT;
    println!("warm-load: priming {n} keys on {addr}");
    // Two passes: the first computes (and spills), the second proves the
    // set is resident in cache.
    let second = bench::hot_set_pass(addr, n, 0).and_then(|_| bench::hot_set_pass(addr, n, n));
    match second {
        Ok(stats) => println!(
            "warm-load: second pass served {}/{n} from cache",
            stats.cached
        ),
        Err(e) => {
            eprintln!("warm-load: {e}");
            return false;
        }
    }
    // The spill writer is asynchronous: wait until the store counted
    // every append. When the server runs a durability mode, every record
    // must also be fsynced before the set is declared power-loss safe.
    let sync =
        fetch_stats(addr).and_then(|s| Some(s.get("store")?.get("sync")?.as_str()?.to_string()));
    let mut gates = vec![("appended", "survives SIGKILL")];
    if sync.as_deref().is_some_and(|mode| mode != "none") {
        gates.push(("synced", "survives power loss"));
    }
    for (counter, meaning) in gates {
        match fleet::await_stat(addr, &["store", counter], n, Duration::from_secs(10)) {
            Some(v) if v >= n => println!("warm-load: store.{counter} = {v}, hot set {meaning}"),
            Some(v) => {
                eprintln!("warm-load: store.{counter} stuck at {v} (< {n}, sync mode {sync:?})");
                return false;
            }
            None => {
                eprintln!("warm-load: server reports no store.{counter} — was it started with --store-dir?");
                return false;
            }
        }
    }
    true
}

/// Replays the pre-kill hot set against a restarted server and verifies
/// the warm hit rate and recovery counters.
fn run_warm_replay(opts: &Options, addr: SocketAddr) -> bool {
    let n = WARM_DISTINCT;
    println!("warm-replay: replaying {n} keys on {addr}");
    let cached = match bench::hot_set_pass(addr, n, 10 * n) {
        Ok(stats) => stats.cached,
        Err(e) => {
            eprintln!("warm-replay: {e}");
            return false;
        }
    };
    let warm_rate = cached as f64 / n as f64;
    let stats = fetch_stats(addr);
    let counter = |name| {
        let stats = stats.as_ref();
        stats
            .and_then(|s| stat_u64(s, &["store", name]))
            .unwrap_or(0)
    };
    let recovered = counter("recovered");
    println!(
        "warm-replay: {cached}/{n} warm hits ({:.1}%), store.recovered {recovered}, \
         store.corrupt_skipped {}",
        warm_rate * 100.0,
        counter("corrupt_skipped")
    );
    snapshot_stats(opts, addr);
    if warm_rate >= MIN_WARM_RATE && recovered > 0 {
        println!("warm-replay: hot set survived the restart");
        true
    } else {
        eprintln!(
            "warm-replay: FAILED (warm rate {warm_rate:.3} < {MIN_WARM_RATE}, \
             or store.recovered {recovered} == 0)"
        );
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn args(line: &str) -> Result<Options, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn smoke_reports_never_land_in_results() {
        for (scenario, _) in bench::SCENARIOS {
            let smoke = report::out_path(scenario, true, None);
            assert!(smoke.starts_with("target/bench-smoke"), "{smoke:?}");
            let full = report::out_path(scenario, false, None);
            assert_eq!(
                full,
                Path::new("results").join(format!("BENCH_{scenario}.json"))
            );
        }
        // An explicit --out wins in both shapes, whatever its name.
        for smoke in [true, false] {
            let out = report::out_path("codec", smoke, Some("BENCH_serving.json"));
            assert_eq!(out, Path::new("BENCH_serving.json"));
        }
    }

    #[test]
    fn a_second_scenario_word_is_a_usage_error() {
        for line in [
            "bench serving soak",
            "bench serving bench soak",
            "chaos warm-load",
            "warm-replay chaos",
            "bench",
            "bench nope",
            "serving",
        ] {
            assert!(args(line).is_err(), "{line:?} must be rejected");
        }
        let Mode::Bench(index) = args("bench soak --smoke").unwrap().mode else {
            panic!("bench soak parses as a bench");
        };
        assert_eq!(bench::SCENARIOS[index].0, "soak");
        assert_eq!(args("chaos --seed 42").unwrap().mode, Mode::Chaos);
        assert_eq!(args("--clients 4").unwrap().mode, Mode::Plain);
    }

    #[test]
    fn flags_outside_their_mode_are_rejected() {
        for line in [
            "--smoke",
            "chaos --out x.json",
            "bench codec --duration-ms 500",
            "--distinct 48",
            "bench soak --conns 2000",
        ] {
            assert!(args(line).is_err(), "{line:?} must be rejected");
        }
        let chaos = args("chaos --duration-ms 30000 --seed 43").unwrap();
        assert_eq!((chaos.duration_ms, chaos.seed), (Some(30_000), 43));
    }

    #[test]
    fn chaos_streams_match_the_split_mix_reference() {
        // Chaos threads draw from SplitMix64; `--seed 42`/`43` replay the
        // action sequences the reference generator below produced.
        let reference = |mut state: u64| {
            (0..64)
                .map(|_| {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^ (z >> 31)
                })
                .collect::<Vec<_>>()
        };
        for seed in [42u64, 43, 43 + 7 * 0x5851_f42d] {
            let mut rng = SplitMix64::new(seed);
            let ours: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
            assert_eq!(ours, reference(seed), "seed {seed}");
        }
    }
}
