//! `gb-serve` — run the partition-serving daemon.
//!
//! ```text
//! gb-serve [--addr HOST:PORT] [--workers K] [--queue-cap Q]
//!          [--cache-cap C] [--max-conns N] [--admission on|off]
//!          [--reply-timeout-ms MS] [--poll-interval-ms MS]
//!          [--write-stall-ms MS] [--stall-ms MS]
//!          [--store-dir PATH] [--store-segment-bytes N]
//!          [--store-budget-bytes N] [--store-sync none|data|full]
//! ```
//!
//! Prints the bound address on stdout (useful with `--addr 127.0.0.1:0`)
//! and serves until a client sends a `shutdown` frame.
//!
//! One I/O poller accepts and serves every connection. On Linux it
//! blocks in `epoll_wait`: idle connections cost nothing, so tens of
//! thousands of mostly-idle peers leave it near 0% CPU. Where epoll is
//! unavailable (setup fails, or a non-Linux target) it falls back to
//! sweeping every connection; the startup line and `stats.engine` name
//! the backend in use.
//! `--max-conns N` caps live connections; peers past the cap get a
//! best-effort `overloaded` reply and an immediate close instead of
//! driving the process into fd exhaustion.
//!
//! One process is one poller, one queue, one cache and one store. To shard a hot
//! class away from the rest, or to rebalance skewed traffic, run several
//! `gb-serve` processes behind `gb-router` (its `--rebalance-ms` tick
//! re-places vnodes with HF over the load it observes). A `--workers`
//! thread solves each miss it takes itself; there is no solver pool.
//!
//! `--stall-ms MS` injects a sleep before every job execution (via the
//! fault-injection shim) — a deliberately slow-but-alive upstream for
//! exercising `gb-router`'s hedged retries; control frames (`ping`,
//! `stats`) stay fast, so health checks still pass.
//!
//! `--store-dir` enables the crash-safe result store: cached results are
//! spilled write-behind to an append-only segment log under PATH, and a
//! restarted daemon recovers them into its cache before serving —
//! the hot set survives a crash. `--store-sync data|full` adds fsync at
//! segment rotation and spill drain, extending durability from
//! process-crash to power-loss.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use gb_service::fault::ScriptedShim;
use gb_service::server::{Server, ServerConfig, Tuning};
use gb_store::StoreConfig;

fn usage() -> ! {
    eprintln!(
        "usage: gb-serve [--addr HOST:PORT] [--workers K] [--queue-cap Q] \
         [--cache-cap C] [--max-conns N] [--admission on|off] \
         [--reply-timeout-ms MS] [--poll-interval-ms MS] [--write-stall-ms MS] \
         [--stall-ms MS] \
         [--store-dir PATH] [--store-segment-bytes N] [--store-budget-bytes N] \
         [--store-sync none|data|full]"
    );
    std::process::exit(2);
}

fn parse_args() -> (ServerConfig, Tuning) {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7117".into(),
        ..ServerConfig::default()
    };
    let mut tuning = Tuning::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = parse_usize(&value("--workers"), "--workers"),
            "--queue-cap" => {
                config.queue_capacity = parse_usize(&value("--queue-cap"), "--queue-cap").max(1)
            }
            "--cache-cap" => {
                config.cache_capacity = parse_usize(&value("--cache-cap"), "--cache-cap")
            }
            "--max-conns" => tuning.max_conns = parse_usize(&value("--max-conns"), "--max-conns"),
            "--admission" => {
                tuning.admission = match value("--admission").as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        eprintln!("--admission expects on|off, got {other:?}");
                        usage()
                    }
                }
            }
            "--reply-timeout-ms" => {
                tuning.reply_timeout = Duration::from_millis(parse_usize(
                    &value("--reply-timeout-ms"),
                    "--reply-timeout-ms",
                ) as u64)
            }
            "--poll-interval-ms" => {
                tuning.poll_interval = Duration::from_millis(parse_usize(
                    &value("--poll-interval-ms"),
                    "--poll-interval-ms",
                ) as u64)
            }
            "--write-stall-ms" => {
                tuning.write_stall = Duration::from_millis(parse_usize(
                    &value("--write-stall-ms"),
                    "--write-stall-ms",
                ) as u64)
            }
            "--store-dir" => {
                tuning.store = Some(StoreConfig::new(value("--store-dir")));
            }
            "--store-segment-bytes" => {
                let bytes =
                    parse_usize(&value("--store-segment-bytes"), "--store-segment-bytes") as u64;
                match &mut tuning.store {
                    Some(store) => store.segment_bytes = bytes,
                    None => {
                        eprintln!("--store-segment-bytes requires --store-dir first");
                        usage()
                    }
                }
            }
            "--store-budget-bytes" => {
                let bytes =
                    parse_usize(&value("--store-budget-bytes"), "--store-budget-bytes") as u64;
                match &mut tuning.store {
                    Some(store) => store.budget_bytes = bytes,
                    None => {
                        eprintln!("--store-budget-bytes requires --store-dir first");
                        usage()
                    }
                }
            }
            "--store-sync" => {
                let text = value("--store-sync");
                let mode = gb_store::SyncMode::parse(&text).unwrap_or_else(|| {
                    eprintln!("--store-sync expects none|data|full, got {text:?}");
                    usage()
                });
                match &mut tuning.store {
                    Some(store) => store.sync = mode,
                    None => {
                        eprintln!("--store-sync requires --store-dir first");
                        usage()
                    }
                }
            }
            "--stall-ms" => {
                let ms = parse_usize(&value("--stall-ms"), "--stall-ms") as u64;
                if ms > 0 {
                    let shim = ScriptedShim::new();
                    shim.stall_workers(Duration::from_millis(ms));
                    tuning.shim = Arc::new(shim);
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    (config, tuning)
}

fn parse_usize(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects an integer, got {text:?}");
        usage()
    })
}

fn main() -> ExitCode {
    let (config, tuning) = parse_args();
    let server = match Server::start_tuned(config, tuning) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gb-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "gb-serve listening on {} ({} engine)",
        server.local_addr(),
        server.engine()
    );
    // Serve until a client asks us to stop (the `shutdown` frame); join()
    // drains queued work before returning.
    server.join();
    println!("gb-serve: drained and stopped");
    ExitCode::SUCCESS
}
