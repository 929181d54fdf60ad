//! Idle pollers do not spin, on either readiness backend.
//!
//! A `gb-serve` holding idle connections must leave its I/O pollers
//! nearly asleep: under epoll they block in `epoll_wait`, and under the
//! sweep fallback (readiness setup scripted to fail) they nap by the
//! adaptive back-off once passes stop making progress. The check sums
//! the CPU of every `gb-serve-io-` thread in this process over a quiet
//! window, so this file is a test binary of its own with one test:
//! nothing else may run pollers alongside it.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gb_service::client::Client;
use gb_service::fault::ScriptedShim;
use gb_service::proto::{Request, Response};
use gb_service::server::{Server, ServerConfig, Tuning};

/// `EMFILE`, the errno the readiness-setup failure is scripted with.
const EMFILE: i32 = 24;
/// Idle connections held open during the window.
const IDLE_CONNS: usize = 8;
/// The quiet window the poller CPU is measured over.
const QUIET: Duration = Duration::from_secs(2);
/// Most of one core the pollers may burn while every connection idles.
const MAX_CORE_SHARE: f64 = 0.25;

/// Starts a server on the given backend, opens `IDLE_CONNS` connections
/// (each answers one ping, so each is adopted by its poller), and
/// returns the pollers' CPU over the quiet window as a share of one core.
fn idle_poller_share(sweep: bool) -> f64 {
    let shim = ScriptedShim::default();
    if sweep {
        shim.fail_readiness(EMFILE);
    }
    let server = Server::start_tuned(
        ServerConfig {
            workers: 1,
            pool_threads: 1,
            ..ServerConfig::default()
        },
        Tuning {
            shim: Arc::new(shim),
            ..Tuning::default()
        },
    )
    .expect("bind an ephemeral port");
    assert_eq!(server.engine(), if sweep { "sweep" } else { "epoll" });
    let clients: Vec<Client> = (0..IDLE_CONNS)
        .map(|_| {
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let reply = client.call(&Request::Ping).expect("ping");
            assert!(matches!(reply, Response::Pong), "got {reply:?}");
            client
        })
        .collect();
    // Let the sweep back-off reach its cap before measuring.
    thread::sleep(Duration::from_millis(200));
    let pid = std::process::id();
    let cpu = || gb_sys::thread_cpu_seconds(pid, "gb-serve-io-").expect("read poller CPU");
    let (before, start) = (cpu(), Instant::now());
    thread::sleep(QUIET);
    let share = (cpu() - before) / start.elapsed().as_secs_f64();
    drop(clients);
    server.shutdown();
    share
}

#[test]
fn idle_pollers_do_not_spin() {
    for (name, sweep) in [("epoll", false), ("sweep", true)] {
        let share = idle_poller_share(sweep);
        println!("{name}: pollers used {:.1}% of a core", share * 100.0);
        assert!(
            share < MAX_CORE_SHARE,
            "{name} pollers used {:.1}% of a core with {IDLE_CONNS} idle connections",
            share * 100.0
        );
    }
}
