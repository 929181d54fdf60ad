//! `gb-router` — run the cross-process routing tier.
//!
//! ```text
//! gb-router --upstream HOST:PORT [--upstream HOST:PORT ...]
//!           [--addr HOST:PORT] [--vnodes V] [--hedge-ms MS]
//!           [--reply-timeout-ms MS] [--connect-timeout-ms MS]
//!           [--health-interval-ms MS] [--probe-timeout-ms MS]
//!           [--fail-threshold K] [--poll-interval-ms MS]
//!           [--pool-idle N] [--no-forward-shutdown]
//!           [--rebalance-ms MS] [--rebalance-trigger R]
//!           [--rebalance-budget B] [--wait-upstreams-ms MS]
//! ```
//!
//! Prints the bound address on stdout (useful with `--addr
//! 127.0.0.1:0`) and routes until a client sends a `shutdown` frame —
//! which, unless `--no-forward-shutdown`, is forwarded to every alive
//! upstream so one frame stops the whole fleet.
//!
//! `--rebalance-ms MS` turns on self-balancing vnode placement: a tick
//! thread re-partitions the ring's vnodes across alive upstreams with
//! HF over the load the router itself observed, swapping assignments
//! atomically between requests. `--rebalance-trigger R` (default 1.15)
//! and `--rebalance-budget B` (default 16) bound when and how much a
//! tick may move.
//!
//! `--pool-idle N` (default 8) caps the connections open to each
//! upstream, busy and idle together; a request that finds its upstream
//! at the cap waits for the next connection to come free.
//! `--poll-interval-ms MS` (default 100) is the longest the connection
//! loop blocks between checks of in-flight and write-stalled client
//! connections; hedges and upstream timeouts fire at their own instants.
//! The router spawns every thread at start-up: the loop poller, which
//! also relays every frame upstream, the health prober and, with
//! `--rebalance-ms`, the tick.
//!
//! `--wait-upstreams-ms MS` blocks startup until every upstream answers
//! a connect (with capped exponential backoff between attempts), so a
//! launcher can start the fleet and the router in one shot without
//! ordering races.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use gb_router::{RebalanceSettings, RouterConfig, RouterServer};
use gb_service::client::{Backoff, Client};

fn usage() -> ! {
    eprintln!(
        "usage: gb-router --upstream HOST:PORT [--upstream HOST:PORT ...] \
         [--addr HOST:PORT] [--vnodes V] [--hedge-ms MS] \
         [--reply-timeout-ms MS] [--connect-timeout-ms MS] \
         [--health-interval-ms MS] [--probe-timeout-ms MS] \
         [--fail-threshold K] [--poll-interval-ms MS] [--pool-idle N] \
         [--no-forward-shutdown] [--rebalance-ms MS] [--rebalance-trigger R] \
         [--rebalance-budget B] [--wait-upstreams-ms MS]\n\n\
         --poll-interval-ms MS  longest the connection loop blocks between client \
         timer checks; hedges and upstream timeouts fire on time (default 100)\n\
         --pool-idle N          connections open per upstream, busy and idle; a \
         request past the cap waits for one (default 8)"
    );
    std::process::exit(2);
}

fn parse_usize(text: &str, flag: &str) -> usize {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects an integer, got {text:?}");
        usage()
    })
}

fn parse_addr(text: &str, flag: &str) -> SocketAddr {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects HOST:PORT, got {text:?}");
        usage()
    })
}

fn parse_args() -> (RouterConfig, Duration) {
    let mut config = RouterConfig {
        addr: "127.0.0.1:7130".into(),
        ..RouterConfig::default()
    };
    let mut wait_upstreams = Duration::ZERO;
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
            "--upstream" => config
                .upstreams
                .push(parse_addr(&value("--upstream"), "--upstream")),
            "--upstreams" => {
                // Comma-separated convenience form.
                for part in value("--upstreams").split(',') {
                    let part = part.trim();
                    if !part.is_empty() {
                        config.upstreams.push(parse_addr(part, "--upstreams"));
                    }
                }
            }
            "--vnodes" => config.vnodes = parse_usize(&value("--vnodes"), "--vnodes"),
            "--hedge-ms" => {
                let ms = parse_usize(&value("--hedge-ms"), "--hedge-ms") as u64;
                config.hedge_delay = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--reply-timeout-ms" => {
                config.reply_timeout = Duration::from_millis(parse_usize(
                    &value("--reply-timeout-ms"),
                    "--reply-timeout-ms",
                ) as u64)
            }
            "--connect-timeout-ms" => {
                config.connect_timeout = Duration::from_millis(parse_usize(
                    &value("--connect-timeout-ms"),
                    "--connect-timeout-ms",
                ) as u64)
            }
            "--health-interval-ms" => {
                config.health_interval = Duration::from_millis(parse_usize(
                    &value("--health-interval-ms"),
                    "--health-interval-ms",
                ) as u64)
            }
            "--probe-timeout-ms" => {
                config.probe_timeout = Duration::from_millis(parse_usize(
                    &value("--probe-timeout-ms"),
                    "--probe-timeout-ms",
                ) as u64)
            }
            "--fail-threshold" => {
                config.fail_threshold =
                    parse_usize(&value("--fail-threshold"), "--fail-threshold").max(1) as u32
            }
            "--poll-interval-ms" => {
                config.poll_interval = Duration::from_millis(parse_usize(
                    &value("--poll-interval-ms"),
                    "--poll-interval-ms",
                ) as u64)
            }
            "--pool-idle" => {
                config.max_pool_idle = parse_usize(&value("--pool-idle"), "--pool-idle")
            }
            "--no-forward-shutdown" => config.forward_shutdown = false,
            "--rebalance-ms" => {
                let ms = parse_usize(&value("--rebalance-ms"), "--rebalance-ms") as u64;
                config
                    .rebalance
                    .get_or_insert_with(RebalanceSettings::default)
                    .interval = Duration::from_millis(ms.max(1));
            }
            "--rebalance-trigger" => {
                let text = value("--rebalance-trigger");
                let trigger: f64 = text.parse().unwrap_or_else(|_| {
                    eprintln!("--rebalance-trigger expects a number, got {text:?}");
                    usage()
                });
                match &mut config.rebalance {
                    Some(rebalance) => rebalance.trigger = trigger.max(1.0),
                    None => {
                        eprintln!("--rebalance-trigger requires --rebalance-ms first");
                        usage()
                    }
                }
            }
            "--rebalance-budget" => {
                let budget = parse_usize(&value("--rebalance-budget"), "--rebalance-budget");
                match &mut config.rebalance {
                    Some(rebalance) => rebalance.move_budget = budget,
                    None => {
                        eprintln!("--rebalance-budget requires --rebalance-ms first");
                        usage()
                    }
                }
            }
            "--wait-upstreams-ms" => {
                wait_upstreams = Duration::from_millis(parse_usize(
                    &value("--wait-upstreams-ms"),
                    "--wait-upstreams-ms",
                ) as u64)
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if config.upstreams.is_empty() {
        eprintln!("gb-router: at least one --upstream is required");
        usage()
    }
    (config, wait_upstreams)
}

fn main() -> ExitCode {
    let (config, wait_upstreams) = parse_args();
    if !wait_upstreams.is_zero() {
        for (i, &addr) in config.upstreams.iter().enumerate() {
            let mut backoff = Backoff::with_seed(i as u64);
            if let Err(e) = Client::connect_retry(
                addr,
                Some(config.probe_timeout),
                Some(config.probe_timeout),
                wait_upstreams,
                &mut backoff,
            ) {
                eprintln!("gb-router: upstream {i} ({addr}) never came up: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let upstream_count = config.upstreams.len();
    let hedge = config.hedge_delay;
    let mut router = match RouterServer::start(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gb-router: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "gb-router listening on {} -> {} upstreams (hedge {})",
        router.local_addr(),
        upstream_count,
        match hedge {
            Some(d) => format!("{}ms", d.as_millis()),
            None => "off".into(),
        }
    );
    // Route until a client sends a `shutdown` frame; join() waits for the
    // loop to drain (forwarded shutdowns included) and the prober to stop.
    router.join();
    println!("gb-router: drained and stopped");
    ExitCode::SUCCESS
}
