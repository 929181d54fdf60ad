//! Peak memory of a store as its key index grows.
//!
//! Seeds a fresh store with `--seed` records, reopens it `--opens` times
//! (printing the fastest recovery), then appends distinct records up to
//! `--keys` and prints the process's peak resident set (`VmHWM`, Linux
//! only) every 10,000 keys. Keys are 25 bytes and values 560 bytes, the
//! shape of gb-serve's cached results.
//!
//! ```bash
//! cargo run --release -p gb-store --example index_probe -- \
//!     --dir /tmp/index-probe --seed 50000 --keys 200000
//! ```

use std::time::{Duration, Instant};

use gb_store::{Store, StoreConfig};

fn key(i: u64) -> [u8; 25] {
    let mut k = [0u8; 25];
    k[..8].copy_from_slice(&i.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
    k[8..16].copy_from_slice(&i.to_le_bytes());
    k
}

/// Peak resident set in MiB, if the platform reports it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> std::io::Result<()> {
    let mut dir = std::env::temp_dir().join("gb-store-index-probe");
    let (mut seed, mut keys, mut opens) = (50_000u64, 200_000u64, 7usize);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--dir" => dir = value.into(),
            "--seed" => seed = value.parse().expect("--seed N"),
            "--keys" => keys = value.parse().expect("--keys N"),
            "--opens" => opens = value.parse().expect("--opens N"),
            _ => panic!("unknown flag {flag}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let value = vec![0x5A; 560];
    {
        let mut store = Store::open_with(StoreConfig::new(&dir), |_, _| {})?;
        for i in 0..seed {
            store.append(&key(i), &value)?;
        }
    }
    let mut fastest = Duration::MAX;
    let mut store = None;
    for _ in 0..opens.max(1) {
        drop(store.take());
        let started = Instant::now();
        store = Some(Store::open_with(StoreConfig::new(&dir), |_, _| {})?);
        fastest = fastest.min(started.elapsed());
    }
    let mut store = store.expect("opened at least once");
    println!(
        "recovered {} records: fastest of {opens} opens {:.1} ms",
        store.stats().recovered,
        fastest.as_secs_f64() * 1e3
    );
    let report = |n: u64| match peak_rss_mib() {
        Some(mib) => println!("keys {n:>7}  peak_rss_mib {mib:.2}"),
        None => println!("keys {n:>7}  peak_rss_mib n/a"),
    };
    report(seed);
    for i in seed..keys {
        store.append(&key(i), &value)?;
        if (i + 1) % 10_000 == 0 {
            report(i + 1);
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir)
}
