//! Idle pool threads sleep until work arrives.
//!
//! An idle worker that polls on a timer burns no measurable CPU but wakes
//! the scheduler hundreds of times a second. This counts the voluntary
//! context switches of the pool's `gb-worker-*` threads, read from
//! `/proc/self/task/*/status`, so it is a test binary of its own: any
//! other pool alive in the process would be counted too.
#![cfg(target_os = "linux")]

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use gb_parlb::pool::ThreadPool;

/// The quiet window the context switches are counted over.
const QUIET: Duration = Duration::from_secs(1);
/// Voluntary context switches a second the idle workers may make
/// together.
const MAX_SWITCHES_PER_S: f64 = 20.0;

/// Voluntary context switches so far of every `gb-worker-*` thread.
fn worker_switches() -> Vec<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("read the task directory")
        .filter_map(|entry| {
            let dir = entry.ok()?.path();
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            if !comm.starts_with("gb-worker-") {
                return None;
            }
            let status = std::fs::read_to_string(dir.join("status")).ok()?;
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse()
                .ok()
        })
        .collect()
}

#[test]
fn an_idle_pool_sleeps() {
    let pool = ThreadPool::new(2);
    // One job first, so both workers have run and gone idle.
    let (tx, rx) = mpsc::channel();
    pool.spawn(move || tx.send(()).expect("the test waits"));
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the job ran");
    thread::sleep(Duration::from_millis(100));

    let before = worker_switches();
    assert_eq!(before.len(), 2, "both workers are alive: {before:?}");
    let started = Instant::now();
    thread::sleep(QUIET);
    let after = worker_switches();
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(after.len(), 2, "both workers are alive: {after:?}");
    let rate = (after.iter().sum::<u64>() - before.iter().sum::<u64>()) as f64 / elapsed;
    println!("idle pool: {rate:.1} voluntary context switches/s over {elapsed:.1} s");
    assert!(
        rate < MAX_SWITCHES_PER_S,
        "{rate:.1} voluntary context switches/s while idle"
    );

    // The sleeping workers still wake for new work, and for the drop.
    let (tx, rx) = mpsc::channel();
    pool.spawn(move || tx.send(()).expect("the test waits"));
    rx.recv_timeout(Duration::from_secs(10))
        .expect("an idle worker woke for the job");
    drop(pool);
}
