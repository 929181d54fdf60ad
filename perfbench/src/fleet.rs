//! Server processes and the run directory. Every spawned server is
//! killed and reaped when its [`Fleet`] drops — on success, error and
//! panic alike — and its pid is listed in a pid file that `run.sh`
//! reads to kill it when the run is stopped by a signal.

use std::fs::{self, File};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to print its address (store recovery
/// included).
const BANNER_TIMEOUT: Duration = Duration::from_secs(30);

/// Where cargo put the binaries (`run.sh` exports `CARGO_TARGET_DIR`).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
}

/// Every server a run spawns carries this variable in its environment,
/// naming the run directory, so a later run can recognise a leaked one.
const MARKER: &str = "PERFBENCH_SERVER";

/// Fails if a server spawned by an earlier run is still alive, such as
/// one leaked when that run was killed outright: on two cores it would
/// skew this run.
pub fn refuse_strays() -> Result<(), String> {
    let needle = format!("{MARKER}=");
    let mut strays = Vec::new();
    for entry in fs::read_dir("/proc").map_err(|e| format!("reading /proc: {e}"))? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .filter(|s| s.bytes().all(|b| b.is_ascii_digit()))
        else {
            continue;
        };
        let Ok(environ) = fs::read(entry.path().join("environ")) else {
            continue;
        };
        if environ
            .split(|&b| b == 0)
            .any(|var| var.starts_with(needle.as_bytes()))
        {
            let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
            strays.push(format!("{} (pid {pid})", comm.trim()));
        }
    }
    if strays.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to start: stray server(s) still running: {}",
            strays.join(", ")
        ))
    }
}

/// This run's scratch directory under the target directory, removed on
/// drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create() -> io::Result<RunDir> {
        let path = target_dir().join(format!("perfbench-run-{}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// A set of running servers.
pub struct Fleet {
    children: Vec<Child>,
    pid_file: PathBuf,
    run_dir: PathBuf,
}

impl Fleet {
    pub fn new(run_dir: &RunDir) -> Fleet {
        Fleet {
            children: Vec::new(),
            pid_file: run_dir.path().join("pids"),
            run_dir: run_dir.path().to_path_buf(),
        }
    }

    /// Starts `bin` with `args`, its standard output going to a file in
    /// the run directory, and waits until that file holds the
    /// "listening on ADDR" banner; returns ADDR.
    pub fn spawn(&mut self, bin: &Path, args: &[String]) -> Result<SocketAddr, String> {
        let out_path = self
            .run_dir
            .join(format!("server-{}.out", self.children.len()));
        let out =
            File::create(&out_path).map_err(|e| format!("creating {}: {e}", out_path.display()))?;
        let child = Command::new(bin)
            .args(args)
            .env(MARKER, &self.run_dir)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        self.children.push(child);
        self.write_pid_file()
            .map_err(|e| format!("writing pid file: {e}"))?;
        let deadline = Instant::now() + BANNER_TIMEOUT;
        loop {
            let text = fs::read_to_string(&out_path).unwrap_or_default();
            let addr = text.lines().find_map(|line| {
                line.split("listening on ")
                    .nth(1)?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            });
            if let Some(addr) = addr {
                return Ok(addr);
            }
            let child = self.children.last_mut().expect("just spawned");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "{} exited ({status}) before listening",
                    bin.display()
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("{} did not start listening", bin.display()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn write_pid_file(&self) -> io::Result<()> {
        let pids: String = self.pids().iter().map(|p| format!("{p}\n")).collect();
        fs::write(&self.pid_file, pids)
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Summed peak resident set (`VmHWM`) of every server, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let mut kib = 0u64;
        for pid in self.pids() {
            let status = fs::read_to_string(format!("/proc/{pid}/status"))
                .map_err(|e| format!("status of pid {pid}: {e}"))?;
            kib += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
                .ok_or_else(|| format!("no VmHWM for pid {pid}"))?;
        }
        Ok(kib as f64 / 1024.0)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        self.children.clear();
        let _ = fs::remove_file(&self.pid_file);
    }
}
