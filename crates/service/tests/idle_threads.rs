//! An idle `gb-serve` runs only its own threads, and they sleep.
//!
//! A default daemon (and one with a store) is started as a child
//! process, answers one miss, and is then left idle. Its threads, read
//! from `/proc/<pid>/task`, must be exactly the main thread, the
//! `gb-serve-io-*` pollers and the `gb-serve-worker-*` workers (plus
//! `gb-store-spill` with a store): misses are solved on the worker that
//! takes them, so there is no solver pool. Together they must make fewer
//! than `MAX_SWITCHES_PER_S` voluntary context switches a second: a
//! thread that polls on a timer shows up here even when it burns no
//! measurable CPU.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use gb_service::client::Client;
use gb_service::proto::{Algorithm, BalanceRequest, Request, Response};
use gb_service::spec::ProblemSpec;

/// The quiet window the context switches are counted over.
const QUIET: Duration = Duration::from_secs(2);
/// Voluntary context switches a second all threads together may make.
const MAX_SWITCHES_PER_S: f64 = 20.0;

/// A running `gb-serve` child, killed on drop if it is still running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gb-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gb-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        let addr = banner
            .strip_prefix("gb-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|token| token.parse().ok())
            .unwrap_or_else(|| panic!("unparseable banner: {banner:?}"));
        Daemon {
            child,
            addr,
            _stdout: stdout,
        }
    }

    /// Every thread's name (as the kernel keeps it, at most 15 bytes)
    /// and its voluntary context switches so far.
    fn threads(&self) -> Vec<(String, u64)> {
        let task = PathBuf::from(format!("/proc/{}/task", self.child.id()));
        std::fs::read_dir(&task)
            .expect("read the task directory")
            .filter_map(|entry| {
                let dir = entry.ok()?.path();
                let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
                let status = std::fs::read_to_string(dir.join("status")).ok()?;
                let switches = status
                    .lines()
                    .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
                    .trim()
                    .parse()
                    .ok()?;
                Some((comm.trim_end().to_string(), switches))
            })
            .collect()
    }

    fn shutdown(mut self) {
        let mut client = Client::connect(self.addr).expect("connect");
        let reply = client.call(&Request::Shutdown).expect("shutdown");
        assert!(matches!(reply, Response::Pong), "got {reply:?}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.child.try_wait().expect("poll the child").is_none() {
            assert!(Instant::now() < deadline, "gb-serve did not exit");
            thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The role a thread name belongs to, or `None` for a stranger.
fn role(comm: &str) -> Option<&'static str> {
    match comm {
        "gb-serve" => Some("main"),
        "gb-store-spill" => Some("spill"),
        // `gb-serve-worker-N` is cut to 15 bytes by the kernel.
        _ if comm.starts_with("gb-serve-worker") => Some("worker"),
        _ if comm.starts_with("gb-serve-io-") => Some("io"),
        _ => None,
    }
}

/// Starts `gb-serve` with `extra` flags, has it solve one known-α `ba`
/// miss, and checks its threads and their context switches while idle.
fn idle_daemon_sleeps(extra: &[&str], roles: &[&str]) {
    let daemon = Daemon::spawn(extra);
    let mut client = Client::connect(daemon.addr).expect("connect");
    let miss = Request::Balance(BalanceRequest {
        id: Some(1),
        algorithm: Algorithm::Ba,
        n: 256,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        problem: ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.1,
            hi: 0.5,
            seed: 7,
        },
    });
    match client.call(&miss).expect("balance") {
        Response::Ok(ok) => assert!(!ok.cached),
        other => panic!("unexpected {other:?}"),
    }
    drop(client);
    thread::sleep(Duration::from_millis(200));

    let before = daemon.threads();
    let mut seen: Vec<&str> = before
        .iter()
        .map(|(comm, _)| role(comm).unwrap_or_else(|| panic!("stray thread {comm:?}: {before:?}")))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen, roles, "{before:?}");
    assert_eq!(
        before.iter().filter(|(comm, _)| comm == "gb-serve").count(),
        1,
        "{before:?}"
    );

    let started = Instant::now();
    thread::sleep(QUIET);
    let after = daemon.threads();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(after.len(), before.len(), "{before:?} then {after:?}");
    let total = |threads: &[(String, u64)]| threads.iter().map(|(_, n)| n).sum::<u64>();
    let rate = (total(&after) - total(&before)) as f64 / elapsed;
    println!("{extra:?}: {rate:.1} voluntary context switches/s over {elapsed:.1} s");
    assert!(
        rate < MAX_SWITCHES_PER_S,
        "{rate:.1} voluntary context switches/s while idle: {before:?} then {after:?}"
    );
    daemon.shutdown();
}

#[test]
fn an_idle_daemon_runs_only_its_own_threads_and_they_sleep() {
    idle_daemon_sleeps(&[], &["io", "main", "worker"]);
    let dir = std::env::temp_dir().join(format!("gb-idle-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.to_str().expect("utf-8 temp path");
    idle_daemon_sleeps(&["--store-dir", store], &["io", "main", "spill", "worker"]);
    let _ = std::fs::remove_dir_all(&dir);
}
