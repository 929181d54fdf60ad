//! Crash-recovery tests for the persistent result store.
//!
//! Two restart stories:
//!
//! * in-process: a server with a store computes a hot set, shuts down
//!   gracefully (draining the spill queue), and a successor opened on
//!   the same directory serves the whole set from cache;
//! * out-of-process: a real `gb-serve` child is SIGKILLed mid-flight, a
//!   torn frame is stamped onto the newest segment, and the restarted
//!   daemon recovers every durable record, skips the torn tail without
//!   panicking, and serves the pre-kill hot set warm (>= 90% hits).

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use gb_service::client::Client;
use gb_service::proto::{Algorithm, BalanceRequest, Json, Request, Response};
use gb_service::server::{Server, ServerConfig, Tuning};
use gb_service::spec::ProblemSpec;
use gb_store::StoreConfig;

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

/// A unique temp directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "gb-store-recovery-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn hot_request(id: u64, seed: u64) -> Request {
    Request::Balance(BalanceRequest {
        id: Some(id),
        algorithm: Algorithm::Hf,
        n: 16,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        problem: ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.25,
            hi: 0.5,
            seed,
        },
    })
}

/// One pass over the hot set; returns how many replies were cache hits.
fn hot_set_pass(addr: SocketAddr, distinct: u64, id_base: u64) -> u64 {
    let mut client = Client::connect(addr).expect("hot-set connect");
    let mut cached = 0;
    for seed in 0..distinct {
        match client
            .call(&hot_request(id_base + seed, seed))
            .expect("call")
        {
            Response::Ok(ok) => cached += u64::from(ok.cached),
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    cached
}

fn stats(addr: SocketAddr) -> Json {
    match Client::connect(addr)
        .and_then(|mut c| c.call(&Request::Stats))
        .expect("stats call")
    {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

fn store_counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("store")
        .and_then(|s| s.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("stats missing store.{name}"))
}

/// Polls until `store.<name>` reaches `want` — spill writes are
/// asynchronous to the replies that triggered them.
fn await_store_counter(addr: SocketAddr, name: &str, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let have = store_counter(&stats(addr), name);
        if have >= want {
            return have;
        }
        assert!(
            Instant::now() < deadline,
            "store.{name} stuck at {have}, wanted >= {want}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn store_tuning(dir: &Path) -> Tuning {
    Tuning {
        store: Some(StoreConfig::new(dir)),
        ..Tuning::default()
    }
}

fn small_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 256,
        pool_threads: 2,
    }
}

/// Graceful restart: shutdown drains the spill queue, so the successor
/// recovers the full hot set and serves it entirely from cache.
#[test]
fn graceful_restart_serves_hot_set_from_disk() {
    const DISTINCT: u64 = 16;
    let dir = TempDir::new("graceful");

    let first = Server::start_tuned(small_config(), store_tuning(&dir.0)).expect("first server");
    let cached = hot_set_pass(first.local_addr(), DISTINCT, 0);
    assert_eq!(cached, 0, "first pass must be all cold");
    await_store_counter(first.local_addr(), "appended", DISTINCT);
    first.shutdown();

    let second = Server::start_tuned(small_config(), store_tuning(&dir.0)).expect("second server");
    let addr = second.local_addr();
    let cached = hot_set_pass(addr, DISTINCT, DISTINCT);
    assert_eq!(cached, DISTINCT, "every replayed key must be a warm hit");
    let stats = stats(addr);
    assert!(
        store_counter(&stats, "recovered") >= DISTINCT,
        "recovered counter must cover the hot set"
    );
    assert_eq!(store_counter(&stats, "corrupt_skipped"), 0);
    second.shutdown();
}

/// A restart WITHOUT a store directory is the control: the successor
/// starts cold and recovers nothing.
#[test]
fn restart_without_store_is_cold() {
    const DISTINCT: u64 = 8;
    let first = Server::start_tuned(small_config(), Tuning::default()).expect("first server");
    hot_set_pass(first.local_addr(), DISTINCT, 0);
    first.shutdown();

    let second = Server::start_tuned(small_config(), Tuning::default()).expect("second server");
    let cached = hot_set_pass(second.local_addr(), DISTINCT, DISTINCT);
    assert_eq!(cached, 0, "no store: the restart must be fully cold");
    assert!(
        stats(second.local_addr()).get("store").is_none(),
        "stats must not report a store section when none is configured"
    );
    second.shutdown();
}

// ---------------------------------------------------------------------------
// Out-of-process SIGKILL recovery
// ---------------------------------------------------------------------------

/// A spawned `gb-serve` child and its bound address.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(store_dir: &Path) -> Daemon {
        Self::spawn_with(store_dir, &[])
    }

    /// Spawns with extra flags appended after `--store-dir` (so store
    /// modifiers like `--store-sync` are accepted).
    fn spawn_with(store_dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gb-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--store-dir",
                store_dir.to_str().expect("utf8 store dir"),
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gb-serve");
        // The daemon prints "gb-serve listening on ADDR (... engine)".
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("daemon banner line")
            .expect("read daemon banner");
        let addr = banner
            .strip_prefix("gb-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|token| token.parse().ok())
            .unwrap_or_else(|| panic!("unparseable banner: {banner:?}"));
        Daemon { child, addr }
    }

    /// SIGKILL — no drop handlers, no drain, exactly like a crash.
    fn kill(mut self) {
        self.child.kill().expect("kill daemon");
        let _ = self.child.wait();
    }

    fn shutdown(mut self) {
        let _ = Client::connect(self.addr).and_then(|mut c| c.call(&Request::Shutdown));
        let _ = self.child.wait();
    }
}

/// Stamps a torn (half-written) frame onto the newest segment, as a
/// crash mid-append would leave behind.
fn stamp_torn_tail(store_dir: &Path) {
    let newest = std::fs::read_dir(store_dir)
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "gbl")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-"))
        })
        .max()
        .expect("at least one segment");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&newest)
        .expect("open newest segment");
    // A frame header promising 100 payload bytes, followed by only 4:
    // recovery must classify this as a torn tail, not valid data.
    let mut torn = Vec::new();
    torn.extend_from_slice(&100u32.to_le_bytes());
    torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    torn.extend_from_slice(&[0x55; 4]);
    file.write_all(&torn).expect("stamp torn tail");
}

/// The headline acceptance test: SIGKILL a live daemon, corrupt the log
/// tail, restart, and the successor serves the pre-kill hot set warm.
#[test]
fn sigkill_restart_recovers_hot_set_and_skips_torn_tail() {
    const DISTINCT: u64 = 32;
    let dir = TempDir::new("sigkill");

    let first = Daemon::spawn(&dir.0);
    let cached = hot_set_pass(first.addr, DISTINCT, 0);
    assert_eq!(cached, 0, "first pass must be all cold");
    // Durability gate: every record acknowledged by the store before the
    // kill. SIGKILL discards nothing the kernel already has.
    await_store_counter(first.addr, "appended", DISTINCT);
    first.kill();

    stamp_torn_tail(&dir.0);

    let second = Daemon::spawn(&dir.0);
    let cached = hot_set_pass(second.addr, DISTINCT, DISTINCT);
    let warm_rate = cached as f64 / DISTINCT as f64;
    let stats = stats(second.addr);
    let recovered = store_counter(&stats, "recovered");
    let corrupt_skipped = store_counter(&stats, "corrupt_skipped");
    second.shutdown();

    assert!(
        warm_rate >= 0.9,
        "hot set must survive the crash: warm rate {warm_rate} ({cached}/{DISTINCT})"
    );
    assert!(
        recovered >= DISTINCT,
        "recovered {recovered} must cover the hot set"
    );
    assert!(
        corrupt_skipped >= 1,
        "the stamped torn tail must be counted, got {corrupt_skipped}"
    );
}

/// Durability-mode acceptance: under `--store-sync data`, a record the
/// server has *reported synced* must survive a SIGKILL delivered while
/// the spill writer is still mid-stream — zero acknowledged-but-lost
/// entries. The kill lands deliberately before the full set is appended,
/// so the log tail may be torn; recovery must still produce at least
/// every synced record.
#[test]
fn store_sync_data_survives_sigkill_during_append() {
    const DISTINCT: u64 = 32;
    let dir = TempDir::new("sync-kill");

    let first = Daemon::spawn_with(&dir.0, &["--store-sync", "data"]);
    let cached = hot_set_pass(first.addr, DISTINCT, 0);
    assert_eq!(cached, 0, "first pass must be all cold");
    // Wait only until *some* records are fsynced, then kill while the
    // writer may still be appending and syncing the rest.
    await_store_counter(first.addr, "synced", DISTINCT / 4);
    let acknowledged = store_counter(&stats(first.addr), "synced");
    first.kill();

    let second = Daemon::spawn_with(&dir.0, &["--store-sync", "data"]);
    let stats = stats(second.addr);
    let recovered = store_counter(&stats, "recovered");
    let warm = hot_set_pass(second.addr, DISTINCT, DISTINCT);
    second.shutdown();

    assert!(
        recovered >= acknowledged,
        "acknowledged-but-lost entries: synced {acknowledged} before the kill, \
         recovered only {recovered}"
    );
    assert!(
        warm >= acknowledged,
        "warm hits {warm} must cover the {acknowledged} synced records"
    );
}
