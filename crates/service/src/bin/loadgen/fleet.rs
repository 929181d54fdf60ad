//! Servers a scenario talks to: in-process [`Server`]s, `gb-serve` and
//! `gb-router` child processes, and the stats/shutdown frames sent to
//! either.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use gb_service::client::Client;
use gb_service::proto::{Json, Request, Response};
use gb_service::server::{Server, ServerConfig, Tuning};

/// Starts an in-process server on an ephemeral port.
pub fn start(
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
    pool_threads: usize,
    tuning: Tuning,
) -> Result<Server, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity,
        cache_capacity,
        pool_threads,
    };
    Server::start_tuned(config, tuning).map_err(|e| format!("in-process server: {e}"))
}

/// Fetches the server's full stats object.
pub fn fetch_stats(addr: SocketAddr) -> Option<Json> {
    match Client::connect(addr).and_then(|mut c| c.call(&Request::Stats)) {
        Ok(Response::Stats(stats)) => Some(stats),
        _ => None,
    }
}

/// `stats[a][b]...` as a `u64`.
pub fn stat_u64(stats: &Json, path: &[&str]) -> Option<u64> {
    path.iter()
        .try_fold(stats, |json, key| json.get(key))?
        .as_u64()
}

/// Polls the server until `stats[path] >= want` or the timeout passes.
/// Returns the last observed value (`None` when the server never
/// reported one).
pub fn await_stat(addr: SocketAddr, path: &[&str], want: u64, timeout: Duration) -> Option<u64> {
    let deadline = Instant::now() + timeout;
    let mut last = None;
    loop {
        if let Some(stats) = fetch_stats(addr) {
            last = stat_u64(&stats, path);
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

/// Sends a `shutdown` frame (a router forwards it to its upstreams).
pub fn send_shutdown(addr: SocketAddr) -> std::io::Result<Response> {
    Client::connect(addr).and_then(|mut c| c.call(&Request::Shutdown))
}

/// Locates a sibling binary of this loadgen (`target/<profile>/<name>`),
/// building the owning package on demand if it is missing.
fn sibling_binary(name: &str, package: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("loadgen has no parent dir")?;
    let bin = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "-p", package, "--bin", name]);
        if !cfg!(debug_assertions) {
            cmd.arg("--release");
        }
        let status = cmd
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
pub struct ChildProc {
    child: Child,
    pub addr: SocketAddr,
    // Holding the pipe open keeps the child's shutdown println from
    // landing on a closed fd.
    _stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Spawns `bin` with whitespace-separated `flags`.
    fn spawn(bin: &Path, flags: &str) -> Result<ChildProc, String> {
        let mut child = Command::new(bin)
            .args(flags.split_whitespace())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
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
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL — the hard-crash case.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Sends a shutdown frame and waits up to `timeout` for the child to
    /// exit, then falls back to killing.
    pub fn shutdown(&mut self, timeout: Duration) {
        let _ = send_shutdown(self.addr);
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

/// A `gb-serve` child with 4 workers and 2 pool threads, plus `extra`
/// flags.
pub fn serve_child(extra: &str) -> Result<ChildProc, String> {
    let bin = sibling_binary("gb-serve", "gb-service")?;
    ChildProc::spawn(
        &bin,
        &format!("--addr 127.0.0.1:0 --workers 4 --pool-threads 2 {extra}"),
    )
}

/// A `gb-router` child over `upstreams`. `hedge_ms` 0 disables hedging;
/// `--wait-upstreams-ms` makes the spawn order race-free (the banner
/// only prints once the fleet answers).
pub fn router_child(
    upstreams: &[SocketAddr],
    vnodes: usize,
    hedge_ms: u64,
) -> Result<ChildProc, String> {
    let bin = sibling_binary("gb-router", "gb-router")?;
    let mut flags = format!(
        "--addr 127.0.0.1:0 --vnodes {vnodes} --hedge-ms {hedge_ms} --health-interval-ms 50 \
         --probe-timeout-ms 250 --fail-threshold 2 --poll-interval-ms 20 \
         --wait-upstreams-ms 3000"
    );
    for upstream in upstreams {
        flags += &format!(" --upstream {upstream}");
    }
    ChildProc::spawn(&bin, &flags)
}
