//! Contract tests for the serving hot path: the serving engine (one
//! nonblocking poller + one bounded FIFO queue + sharded TinyLFU cache)
//! must keep the wire-visible semantics — `overloaded` at capacity,
//! `timeout` on expired deadlines, graceful drain on shutdown — on both
//! readiness backends, while exposing its machinery (queue depth and
//! capacity, fast-path hits, the backend in use, cache counters that
//! mean what they say) through `stats`.

use std::thread;
use std::time::Duration;

use gb_service::client::Client;
use gb_service::fault::ScriptedShim;
use gb_service::proto::{Algorithm, BalanceRequest, ErrorCode, Json, Request, Response};
use gb_service::server::{Server, ServerConfig, Tuning};
use gb_service::spec::ProblemSpec;

fn heavy_problem(seed: u64) -> ProblemSpec {
    // Distinct seeds keep every request uncacheable; the 4000-refinement
    // tree build is slow enough to hold a single worker busy.
    ProblemSpec::FeTree {
        refinements: 4000 + seed as usize,
        bias: 0.8,
        seed,
    }
}

fn heavy_request(id: u64) -> Request {
    Request::Balance(BalanceRequest {
        id: Some(id),
        algorithm: Algorithm::Hf,
        n: 256,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        problem: heavy_problem(id),
    })
}

#[test]
fn queue_sheds_overloaded_at_capacity() {
    // One worker, queue capacity 2: a burst of 12 concurrent heavy
    // requests must answer `ok` for the admitted few and `overloaded`
    // for the rest.
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 0, // force real work on every request
        },
        Tuning::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let outcomes: Vec<_> = (0..12u64)
        .map(|i| {
            thread::spawn(move || {
                let mut client =
                    Client::connect_timeout(addr, Some(Duration::from_secs(30))).expect("connect");
                client.call(&heavy_request(i)).expect("response")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    let ok = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Ok(_)))
        .count();
    let shed = outcomes
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                }
            )
        })
        .count();
    assert_eq!(
        ok + shed,
        outcomes.len(),
        "every response must be ok or overloaded: {outcomes:?}"
    );
    assert!(ok > 0, "the admitted requests must succeed");

    server.shutdown();
}

#[test]
fn expired_deadline_times_out_on_event_path() {
    // An already-expired deadline on a cold key must be refused with
    // `timeout` — either inline at dispatch or at worker dequeue; both
    // checks live on the new path.
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
        },
        Tuning::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let req = Request::Balance(BalanceRequest {
        id: Some(9),
        algorithm: Algorithm::Hf,
        n: 64,
        theta: 1.0,
        deadline_ms: Some(0),
        want_pieces: false,
        problem: heavy_problem(9),
    });
    match client.call(&req).expect("response") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Timeout),
        other => panic!("expected timeout, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn graceful_drain_answers_queued_work_on_event_path() {
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 0,
        },
        Tuning::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let clients: Vec<_> = (0..6u64)
        .map(|i| {
            thread::spawn(move || {
                let mut client =
                    Client::connect_timeout(addr, Some(Duration::from_secs(30))).expect("connect");
                let request = Request::Balance(BalanceRequest {
                    id: Some(i),
                    algorithm: Algorithm::Ba,
                    n: 64,
                    theta: 1.0,
                    deadline_ms: None,
                    want_pieces: false,
                    problem: ProblemSpec::TaskList {
                        tasks: 5000,
                        heavy: true,
                        seed: i,
                    },
                });
                client.call(&request)
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(20));
    server.shutdown(); // blocks until queued work is drained

    let mut drained = 0;
    for handle in clients {
        match handle.join().expect("client thread") {
            Ok(Response::Ok(_)) => drained += 1,
            Ok(Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }) => {}
            // A connection dropped before its request was read carried
            // no queued work — admissible.
            Err(_) => {}
            other => panic!("unexpected outcome during drain: {other:?}"),
        }
    }
    assert!(drained > 0, "no queued request survived the drain");
}

#[test]
fn tightened_reply_timeout_surfaces_internal_error() {
    // The reply timeout used to be a hard-coded 120 s const; now it is
    // tunable, so fault-injection tests can make a slow worker visible:
    // with a 10 ms budget against ~100 ms of work, the poller must
    // answer `internal` ("worker did not answer") instead of stalling.
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
        },
        Tuning {
            reply_timeout: Duration::from_millis(10),
            ..Tuning::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.call(&heavy_request(3)).expect("response") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Internal),
        // A machine fast enough to finish the tree build inside 10 ms
        // legitimately beats the timeout.
        Response::Ok(_) => {}
        other => panic!("expected internal or ok, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn stats_expose_fast_path_queue_and_cache_layout() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        queue_capacity: 64,
        cache_capacity: 64,
    })
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let request = Request::Balance(BalanceRequest {
        id: Some(1),
        algorithm: Algorithm::Hf,
        n: 16,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        problem: ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.25,
            hi: 0.5,
            seed: 1,
        },
    });
    for _ in 0..4 {
        match client.call(&request).expect("response") {
            Response::Ok(_) => {}
            other => panic!("expected ok, got {other:?}"),
        }
    }
    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    };
    // The backend the poller really runs: epoll wherever the kernel has
    // it, the sweep loop elsewhere.
    let engine = if cfg!(target_os = "linux") {
        "epoll"
    } else {
        "sweep"
    };
    assert_eq!(stats.get("engine").and_then(|e| e.as_str()), Some(engine));
    let queue = stats.get("queue").expect("queue section");
    assert_eq!(queue.get("depth").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(queue.get("capacity").and_then(|v| v.as_u64()), Some(64));
    // One FIFO: no per-worker shard count, no steal counter.
    let Json::Obj(fields) = queue else {
        panic!("queue section is not an object: {queue:?}")
    };
    let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["depth", "capacity"]);
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("shards").and_then(|v| v.as_u64()), Some(8));
    assert_eq!(cache.get("admission").and_then(|v| v.as_bool()), Some(true));
    assert!(cache
        .get("admission_rejects")
        .and_then(|v| v.as_u64())
        .is_some());
    let fast = stats
        .get("requests")
        .and_then(|r| r.get("fast_path"))
        .and_then(|v| v.as_u64())
        .expect("requests.fast_path present");
    assert!(
        fast >= 3,
        "repeats of one key must ride the inline fast path, saw {fast}"
    );
    server.shutdown();
}

/// Tuning whose fault shim makes readiness setup fail with `EMFILE`, so
/// the poller runs the sweep fallback.
fn sweep_fallback() -> Tuning {
    let shim = ScriptedShim::new();
    shim.fail_readiness(24);
    Tuning {
        shim: std::sync::Arc::new(shim),
        ..Tuning::default()
    }
}

#[test]
fn sweep_fallback_matches_wire_semantics() {
    // When epoll setup fails the sweep loop takes over, says so in
    // `stats.engine`, and keeps the same shed behavior.
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 0,
        },
        sweep_fallback(),
    )
    .expect("bind");
    let addr = server.local_addr();
    assert_eq!(server.engine(), "sweep");
    match Client::connect(addr)
        .and_then(|mut c| c.call(&Request::Stats))
        .expect("stats")
    {
        Response::Stats(stats) => {
            assert_eq!(stats.get("engine").and_then(|e| e.as_str()), Some("sweep"));
        }
        other => panic!("unexpected {other:?}"),
    }
    let outcomes: Vec<_> = (0..8u64)
        .map(|i| {
            thread::spawn(move || {
                let mut client =
                    Client::connect_timeout(addr, Some(Duration::from_secs(30))).expect("connect");
                client.call(&heavy_request(100 + i)).expect("response")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    assert!(outcomes.iter().all(|r| matches!(
        r,
        Response::Ok(_)
            | Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }
    )));
    assert!(outcomes.iter().any(|r| matches!(r, Response::Ok(_))));
    server.shutdown();
}

/// A cold key is one cache miss, not two: the worker's second look at
/// the cache only dedupes concurrent misses and leaves the counters
/// alone. The repeat is then exactly one hit.
#[test]
fn cold_request_counts_one_miss_and_repeat_one_hit() {
    for tuning in [Tuning::default(), sweep_fallback()] {
        let server = Server::start_tuned(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_capacity: 16,
                cache_capacity: 64,
            },
            tuning,
        )
        .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let cache_counts = |client: &mut Client| match client.call(&Request::Stats).expect("stats")
        {
            Response::Stats(stats) => {
                let cache = stats.get("cache").expect("cache section");
                let count = |name: &str| cache.get(name).and_then(|v| v.as_u64()).unwrap();
                (count("hits"), count("misses"))
            }
            other => panic!("unexpected {other:?}"),
        };
        let request = heavy_request(7);
        match client.call(&request).expect("cold") {
            Response::Ok(ok) => assert!(!ok.cached),
            other => panic!("expected ok, got {other:?}"),
        }
        assert_eq!(cache_counts(&mut client), (0, 1), "[{}]", server.engine());
        match client.call(&request).expect("repeat") {
            Response::Ok(ok) => assert!(ok.cached),
            other => panic!("expected ok, got {other:?}"),
        }
        assert_eq!(cache_counts(&mut client), (1, 1), "[{}]", server.engine());
        server.shutdown();
    }
}
