//! The `gb-serve` binary's command line: one process is one queue, one
//! cache and one store. Sharding and rebalancing across backends belong
//! to `gb-router`, so gb-serve refuses their flags and its `stats` carry
//! no per-backend or rebalance sections. Its workers solve every miss
//! themselves, so there is no pool flag or `pool` section either.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Command, Stdio};

use gb_service::client::Client;
use gb_service::proto::{Request, Response};

fn gb_serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gb-serve"))
}

/// Runs gb-serve with `flag 2` and checks it exits 2 naming the flag.
fn assert_unknown(flag: &str) {
    let out = gb_serve()
        .args(["--addr", "127.0.0.1:0", flag, "2"])
        .stdout(Stdio::null())
        .output()
        .expect("run gb-serve");
    assert_eq!(out.status.code(), Some(2), "{flag} must be a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown flag {flag}")),
        "{flag}: {stderr}"
    );
}

#[test]
fn sharding_and_rebalance_flags_are_unknown() {
    for flag in [
        "--backends",
        "--backend-vnodes",
        "--rebalance-ms",
        "--rebalance-trigger",
        "--rebalance-budget",
    ] {
        assert_unknown(flag);
    }
}

/// Workers solve the misses they take: there is no solver pool to size.
#[test]
fn pool_threads_is_unknown() {
    assert_unknown("--pool-threads");
}

#[test]
fn stats_report_one_queue_and_no_backend_sections() {
    let mut child = gb_serve()
        .args([
            "--addr",
            "127.0.0.1:0",
            "--queue-cap",
            "37",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn gb-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read banner");
    let addr: SocketAddr = banner
        .strip_prefix("gb-serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|token| token.parse().ok())
        .unwrap_or_else(|| panic!("unparseable banner: {banner:?}"));

    let mut client = Client::connect(addr).expect("connect");
    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    assert!(stats.get("backends").is_none(), "{stats:?}");
    assert!(stats.get("rebal").is_none(), "{stats:?}");
    assert!(stats.get("pool").is_none(), "{stats:?}");
    let queue = stats.get("queue").expect("queue section");
    assert_eq!(queue.get("capacity").and_then(|v| v.as_u64()), Some(37));
    assert_eq!(queue.get("shards").and_then(|v| v.as_u64()), Some(2));
    let load = stats.get("load").expect("load section");
    assert_eq!(load.get("served").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(load.get("micros").and_then(|v| v.as_u64()), Some(0));

    assert!(matches!(
        client.call(&Request::Shutdown).expect("shutdown"),
        Response::Pong
    ));
    assert!(child.wait().expect("wait gb-serve").success());
}
