//! End-to-end test of the gb-service daemon: a real TCP server on an
//! ephemeral port, hammered by concurrent clients running every
//! algorithm, with the paper's guarantees checked on every response.

mod common;

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gb_core::Partition;
use gb_parlb::ThreadPool;
use gb_service::client::Client;
use gb_service::fault::ScriptedShim;
use gb_service::proto::{
    Algorithm, BalanceRequest, Codec, ErrorCode, Request, Response, WireCodec, BIN_HDR, MAGIC,
};
use gb_service::server::{Server, ServerConfig, Tuning};
use gb_service::spec::{ProblemSpec, ServiceProblem};

const CLIENTS: usize = 32;
const REQUESTS_PER_CLIENT: usize = 12;
/// Synthetic class guarantee: α = LO for every instance.
const LO: f64 = 0.25;
const HI: f64 = 0.5;
/// Distinct problem seeds — small enough that the run repeats requests
/// and must produce cache hits.
const DISTINCT_SEEDS: u64 = 8;
/// gb-serve clamps α into `[MIN_ALPHA, 0.5]` before computing a bound.
const MIN_ALPHA: f64 = 1e-3;

fn spawn_server() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_capacity: 512,
        cache_capacity: 256,
    })
    .expect("bind ephemeral port")
}

#[test]
fn concurrent_clients_get_bounded_partitions_and_cache_hits() {
    let server = spawn_server();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|client_index| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for k in 0..REQUESTS_PER_CLIENT {
                    let index = client_index * REQUESTS_PER_CLIENT + k;
                    let algorithm = Algorithm::ALL[index % Algorithm::ALL.len()];
                    let n = [4, 16, 64][index % 3];
                    let request = Request::Balance(BalanceRequest {
                        id: Some(index as u64),
                        algorithm,
                        n,
                        theta: 1.0,
                        deadline_ms: None,
                        want_pieces: true,
                        problem: ProblemSpec::Synthetic {
                            weight: 1.0,
                            lo: LO,
                            hi: HI,
                            seed: index as u64 % DISTINCT_SEEDS,
                        },
                    });
                    let response = client.call(&request).expect("call");
                    let ok = match response {
                        Response::Ok(ok) => ok,
                        other => panic!("client {client_index}: unexpected {other:?}"),
                    };
                    assert_eq!(ok.id, Some(index as u64));
                    assert_eq!(ok.n, n);
                    // The response's bound is computed for the α the
                    // server established; for the synthetic class that α
                    // is the class guarantee LO, so the analytic
                    // worst-case bound must hold on every response.
                    let expected_bound = match algorithm {
                        Algorithm::Hf | Algorithm::Phf => gb_core::hf_upper_bound(LO, n),
                        Algorithm::Ba => gb_core::ba_upper_bound(LO, n),
                        Algorithm::BaHf => gb_core::bahf_upper_bound(LO, 1.0, n),
                    };
                    assert!(
                        (ok.bound - expected_bound).abs() <= 1e-9 * expected_bound,
                        "server bound {} != analytic bound {expected_bound}",
                        ok.bound
                    );
                    assert!(
                        ok.ratio >= 1.0 - 1e-9 && ok.ratio <= expected_bound + 1e-9,
                        "ratio {} outside [1, {expected_bound}] for {algorithm:?} n={n}",
                        ok.ratio
                    );
                    // Piece weights are a genuine partition of the root.
                    assert_eq!(ok.pieces.len(), n);
                    let total: f64 = ok.pieces.iter().sum();
                    assert!(
                        (total - 1.0).abs() < 1e-6,
                        "pieces sum to {total}, not the root weight"
                    );
                    let max = ok.pieces.iter().cloned().fold(0.0f64, f64::max);
                    let ideal = 1.0 / n as f64;
                    assert!(
                        (max / ideal - ok.ratio).abs() < 1e-9,
                        "reported ratio inconsistent with pieces"
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    // The run repeated (seed, algorithm, n) combinations, so the cache
    // must have served a nonzero share of the requests.
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    };
    let hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_u64())
        .expect("cache.hits present");
    let hit_rate = stats
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(|v| v.as_f64())
        .expect("cache.hit_rate present");
    assert!(hits > 0, "repeated requests produced no cache hits");
    assert!(hit_rate > 0.0);
    let total = stats
        .get("requests")
        .and_then(|r| r.get("total"))
        .and_then(|v| v.as_u64())
        .expect("requests.total present");
    assert_eq!(total, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    // Latency histograms saw every request.
    let latency_count = stats
        .get("latency")
        .and_then(|l| l.get("overall"))
        .and_then(|o| o.get("count"))
        .and_then(|v| v.as_u64())
        .expect("latency.overall.count present");
    assert_eq!(latency_count, total);

    server.shutdown();
}

#[test]
fn load_shedding_answers_overloaded_instead_of_queueing_forever() {
    // A tiny queue with slow-ish work: a burst of concurrent requests
    // must either succeed or be shed with `overloaded` — no hangs, and
    // under a sustained burst at least one of the two outcomes appears
    // quickly on every connection.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 2,
        cache_capacity: 0, // force real work on every request
    })
    .expect("bind");
    let addr = server.local_addr();

    let outcomes: Vec<_> = (0..12u64)
        .map(|i| {
            thread::spawn(move || {
                let mut client =
                    Client::connect_timeout(addr, Some(Duration::from_secs(30))).expect("connect");
                let request = Request::Balance(BalanceRequest {
                    id: Some(i),
                    algorithm: Algorithm::Hf,
                    n: 256,
                    theta: 1.0,
                    deadline_ms: None,
                    want_pieces: false,
                    problem: ProblemSpec::FeTree {
                        refinements: 4000 + i as usize, // distinct => uncacheable
                        bias: 0.8,
                        seed: i,
                    },
                });
                client.call(&request).expect("response")
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
                    code: gb_service::proto::ErrorCode::Overloaded,
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
    assert!(ok > 0, "at least the queued requests must succeed");

    server.shutdown();
}

/// The two-pass reference for one request: α from the hint, the class or
/// a separate HF run, then the algorithm on the pool, then its worst-case
/// bound. Returns the partition, the bound and the α.
fn two_pass_reference(
    spec: &ProblemSpec,
    algorithm: Algorithm,
    n: usize,
    theta: f64,
    pool: &ThreadPool,
) -> (Partition<ServiceProblem>, f64, f64) {
    let p = spec.build();
    let alpha = spec
        .alpha_hint()
        .or_else(|| p.analytic_alpha())
        .or_else(|| gb_problems::empirical_alpha(&p, n))
        .unwrap_or(0.25)
        .clamp(MIN_ALPHA, 0.5);
    let (partition, bound) = match algorithm {
        Algorithm::Hf => (
            gb_core::hf::hf(p.clone(), n),
            gb_core::hf_upper_bound(alpha, n),
        ),
        Algorithm::Ba => (
            gb_parlb::par_ba(pool, p.clone(), n),
            gb_core::ba_upper_bound(alpha, n),
        ),
        Algorithm::BaHf => (
            gb_parlb::par_ba_hf(pool, p.clone(), n, alpha, theta),
            gb_core::bahf_upper_bound(alpha, theta, n),
        ),
        Algorithm::Phf => (
            gb_parlb::par_phf(pool, p.clone(), n, alpha),
            gb_core::hf_upper_bound(alpha, n),
        ),
    };
    (partition, bound, alpha)
}

/// Every algorithm once, and BA-HF, the one θ changes, at three θ.
const REFERENCE_CASES: [(Algorithm, f64); 6] = [
    (Algorithm::Hf, 1.0),
    (Algorithm::Ba, 1.0),
    (Algorithm::BaHf, 0.5),
    (Algorithm::BaHf, 1.0),
    (Algorithm::BaHf, 2.0),
    (Algorithm::Phf, 1.0),
];

/// The reply contract: a cold miss answers with the `ratio`, `bound` and
/// `alpha` of the two-pass reference — α from the hint, the class or a
/// separate HF run, then the algorithm, then its worst-case bound — bit
/// for bit, whichever way the server arrives at them.
#[test]
fn cold_misses_match_the_two_pass_reference() {
    let server = spawn_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pool = ThreadPool::new(2);
    let mut id = 0;
    for n in [64, 256, 1024] {
        for spec in common::served_specs(n, 11) {
            for (algorithm, theta) in REFERENCE_CASES {
                let (partition, bound, alpha) =
                    two_pass_reference(&spec, algorithm, n, theta, &pool);
                id += 1;
                let request = Request::Balance(BalanceRequest {
                    id: Some(id),
                    algorithm,
                    n,
                    theta,
                    deadline_ms: None,
                    want_pieces: false,
                    problem: spec.clone(),
                });
                let ok = match client.call(&request).expect("call") {
                    Response::Ok(ok) => ok,
                    other => panic!("unexpected {other:?}"),
                };
                let what = format!("{} {algorithm:?} n={n} theta={theta}", spec.class());
                assert!(!ok.cached, "{what}: not a cold miss");
                assert_eq!(ok.ratio.to_bits(), partition.ratio().to_bits(), "{what}");
                assert_eq!(ok.bound.to_bits(), bound.to_bits(), "{what}");
                assert_eq!(ok.alpha.to_bits(), alpha.to_bits(), "{what}");
            }
        }
    }
    server.shutdown();
}

/// `solve` against the two-pass reference, pieces included, for every
/// served class at `n` under the algorithms that may share HF's tree.
fn solve_matches_the_two_pass_reference(n: usize) {
    let pool = ThreadPool::new(2);
    for spec in common::served_specs(n, n as u64 + 5) {
        for algorithm in [Algorithm::Ba, Algorithm::BaHf, Algorithm::Phf] {
            let (partition, bound, alpha) = two_pass_reference(&spec, algorithm, n, 1.0, &pool);
            let solved = gb_service::solve(&spec, algorithm, n, 1.0);
            let what = format!("{} {algorithm:?} n={n}", spec.class());
            assert_eq!(solved.pieces, partition.sorted_weights(), "{what}");
            assert_eq!(
                solved.ratio.to_bits(),
                partition.ratio().to_bits(),
                "{what}"
            );
            assert_eq!(solved.bound.to_bits(), bound.to_bits(), "{what}");
            assert_eq!(solved.alpha.to_bits(), alpha.to_bits(), "{what}");
        }
    }
}

#[test]
fn solve_matches_the_two_pass_reference_at_256() {
    solve_matches_the_two_pass_reference(256);
}

/// The n = 4096 case; CI runs it in release mode.
#[test]
#[ignore]
fn solve_matches_the_two_pass_reference_at_4096() {
    solve_matches_the_two_pass_reference(4096);
}

/// A task list whose worst split is below `MIN_ALPHA`: PHF then runs with
/// the clamped α rather than the tree's own, so Theorem 3 does not tie it
/// to HF and `solve` computes it on the problem itself, as the two-pass
/// reference does.
#[test]
fn phf_below_the_alpha_clamp_runs_on_the_problem() {
    let pool = ThreadPool::new(2);
    let spec = ProblemSpec::TaskList {
        tasks: 1024,
        heavy: true,
        seed: 175,
    };
    for n in [16, 64] {
        let measured = gb_problems::empirical_alpha(&spec.build(), n).expect("bisectable");
        assert!(measured < MIN_ALPHA, "n={n}: α̂ = {measured}");
        let (partition, bound, alpha) = two_pass_reference(&spec, Algorithm::Phf, n, 1.0, &pool);
        let solved = gb_service::solve(&spec, Algorithm::Phf, n, 1.0);
        assert_eq!(solved.alpha, MIN_ALPHA);
        assert_eq!(solved.pieces, partition.sorted_weights(), "n={n}");
        assert_eq!(solved.ratio.to_bits(), partition.ratio().to_bits(), "n={n}");
        assert_eq!(solved.bound.to_bits(), bound.to_bits(), "n={n}");
        assert_eq!(solved.alpha.to_bits(), alpha.to_bits(), "n={n}");
        // Both runs happened: the HF pass for α̂, then `par_phf`.
        let runs = 2 * (solved.pieces.len() as u64 - 1);
        assert_eq!((solved.bisections, solved.tree_reused), (runs, 0), "n={n}");
    }
}

/// `stats.solver`: bisections made by computed answers, bisections the
/// shared tree served instead, and answers whose ratio exceeds their
/// bound. A cache hit changes none of them.
#[test]
fn solver_counters_count_computed_answers() {
    let server = spawn_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let solver = |client: &mut Client| -> [i64; 3] {
        let stats = match client.call(&Request::Stats).expect("stats") {
            Response::Stats(stats) => stats,
            other => panic!("unexpected {other:?}"),
        };
        let section = stats.get("solver").expect("solver section");
        ["bisections", "tree_reused", "bound_violations"].map(|k| match section.get(k) {
            Some(gb_service::proto::Json::Int(v)) => *v,
            other => panic!("solver.{k}: {other:?}"),
        })
    };
    let call = |client: &mut Client, algorithm, problem: &ProblemSpec| {
        let request = Request::Balance(BalanceRequest {
            id: Some(1),
            algorithm,
            n: 64,
            theta: 1.0,
            deadline_ms: None,
            want_pieces: false,
            problem: problem.clone(),
        });
        match client.call(&request).expect("call") {
            Response::Ok(ok) => ok,
            other => panic!("unexpected {other:?}"),
        }
    };
    assert_eq!(solver(&mut client), [0, 0, 0]);

    // An HF miss bisects n − 1 times and shares nothing.
    let fe_tree = ProblemSpec::FeTree {
        refinements: 128,
        bias: 0.7,
        seed: 3,
    };
    call(&mut client, Algorithm::Hf, &fe_tree);
    assert_eq!(solver(&mut client), [63, 0, 0]);

    // A PHF miss without a known α is the HF pass alone; a BA miss walks
    // the pass's tree again and bisects only what HF did not.
    call(&mut client, Algorithm::Phf, &fe_tree);
    assert_eq!(solver(&mut client), [126, 0, 0]);
    call(&mut client, Algorithm::Ba, &fe_tree);
    let [bisections, reused, violations] = solver(&mut client);
    let walked = bisections - 126 - 63;
    assert!((0..63).contains(&walked), "{bisections}");
    assert_eq!(reused + walked, 63, "BA bisects n − 1 nodes");
    assert!(reused > 0);
    assert_eq!(violations, 0);

    // A grid whose heaviest HF piece is one unsplittable cell: its ratio
    // exceeds the bound α̂ selects.
    let grid = ProblemSpec::Grid {
        rows: 16,
        cols: 16,
        hotspots: 2,
        seed: 22,
    };
    let ok = call(&mut client, Algorithm::Hf, &grid);
    assert!(ok.ratio > ok.bound, "ratio {} bound {}", ok.ratio, ok.bound);
    let after = solver(&mut client);
    assert_eq!(after[2], 1);

    // Hits are served from the cache and move no counter.
    assert!(call(&mut client, Algorithm::Hf, &grid).cached);
    assert!(call(&mut client, Algorithm::Ba, &fe_tree).cached);
    assert_eq!(solver(&mut client), after);
    server.shutdown();
}

#[test]
fn stats_shape_is_stable_json() {
    // `stats` must be parseable JSON with the documented top-level keys —
    // the contract dashboards would scrape.
    let server = spawn_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let stats = match client.call(&Request::Stats).expect("stats") {
        Response::Stats(stats) => stats,
        other => panic!("unexpected {other:?}"),
    };
    for key in [
        "uptime_ms",
        "requests",
        "latency",
        "cache",
        "queue",
        "connections",
    ] {
        assert!(stats.get(key).is_some(), "stats missing {key:?}");
    }
    // Round-trips through its own encoding.
    let reparsed = gb_service::proto::Json::parse(&stats.encode()).expect("valid JSON");
    assert_eq!(reparsed, stats);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 0,
    })
    .expect("bind");
    let addr = server.local_addr();

    // Launch clients whose requests are queued, then trigger shutdown
    // concurrently: queued work must still be answered (drained), not
    // dropped on the floor.
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
    server.shutdown(); // blocks until drained

    let mut drained = 0;
    for handle in clients {
        match handle.join().expect("client thread") {
            // Either the request made it into the queue (answered while
            // draining) or it arrived after close (shutting_down).
            Ok(Response::Ok(_)) => drained += 1,
            Ok(Response::Error {
                code: gb_service::proto::ErrorCode::ShuttingDown,
                ..
            }) => {}
            // A connection still in the accept backlog when the listener
            // went away sees EOF — admissible, it carried no queued work.
            Err(_) => {}
            other => panic!("unexpected outcome during drain: {other:?}"),
        }
    }
    assert!(drained > 0, "no queued request survived the drain");
}

/// Reads one reply frame in `codec` off a raw connection.
fn read_reply(reader: &mut impl std::io::BufRead, codec: WireCodec) -> Response {
    match codec {
        WireCodec::Json => {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read reply line");
            Response::decode(line.trim_end()).expect("decode JSON reply")
        }
        WireCodec::Binary => {
            let mut header = [0u8; BIN_HDR];
            reader.read_exact(&mut header).expect("read reply header");
            assert_eq!(header[0], MAGIC, "binary reply magic");
            let mut payload =
                vec![0u8; u32::from_le_bytes(header[1..].try_into().unwrap()) as usize];
            reader.read_exact(&mut payload).expect("read reply payload");
            WireCodec::Binary
                .decode_response(&payload)
                .expect("decode binary reply")
        }
    }
}

#[test]
fn pipelined_misses_hits_and_a_malformed_frame_answer_in_order() {
    // Every miss sits at a worker for a while, so the hits read behind
    // it are answered first and must wait their turn.
    let shim = ScriptedShim::new();
    shim.stall_workers(Duration::from_millis(20));
    let server = Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
        },
        Tuning {
            shim: Arc::new(shim),
            ..Tuning::default()
        },
    )
    .expect("bind ephemeral port");
    let request = |id: u64, seed: u64| {
        Request::Balance(BalanceRequest {
            id: Some(id),
            algorithm: Algorithm::ALL[id as usize % Algorithm::ALL.len()],
            n: 32,
            theta: 1.0,
            deadline_ms: None,
            want_pieces: id % 3 == 0,
            problem: ProblemSpec::Synthetic {
                weight: 1.0,
                lo: LO,
                hi: HI,
                seed,
            },
        })
    };
    for (pass, codec) in [WireCodec::Json, WireCodec::Binary].into_iter().enumerate() {
        // `Some(true)`: a hit (its key warmed below), `Some(false)`: a
        // miss, `None`: the malformed frame.
        let plan = [
            Some(false),
            Some(true),
            Some(true),
            None,
            Some(false),
            Some(true),
            Some(false),
            Some(false),
            Some(true),
            Some(false),
            Some(true),
            Some(false),
        ];
        let seed = |i: usize| 900_000 + 100 * pass as u64 + i as u64;
        let mut warm = Client::connect(server.local_addr()).expect("connect");
        for (i, kind) in plan.iter().enumerate() {
            if *kind == Some(true) {
                assert!(matches!(
                    warm.call(&request(i as u64, seed(i))).unwrap(),
                    Response::Ok(_)
                ));
            }
        }

        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut burst = Vec::new();
        for (i, kind) in plan.iter().enumerate() {
            match kind {
                Some(_) => codec.encode_request(&request(i as u64, seed(i)), &mut burst),
                None => match codec {
                    WireCodec::Json => burst.extend_from_slice(b"{\"op\":\"balance\",\"id\":3}\n"),
                    // A payload whose tag names no request.
                    WireCodec::Binary => burst.extend_from_slice(&[MAGIC, 1, 0, 0, 0, 0x7f]),
                },
            }
        }
        (&stream).write_all(&burst).expect("send burst");
        let mut reader = BufReader::new(&stream);
        for (i, kind) in plan.iter().enumerate() {
            match (kind, read_reply(&mut reader, codec)) {
                (Some(hit), Response::Ok(ok)) => {
                    assert_eq!(ok.id, Some(i as u64), "{codec:?}: reply {i} out of order");
                    assert_eq!(ok.cached, *hit, "{codec:?}: reply {i}");
                    assert_eq!(ok.pieces.is_empty(), i % 3 != 0, "{codec:?}: reply {i}");
                }
                (None, Response::Error { code, .. }) => {
                    assert_eq!(code, ErrorCode::BadRequest, "{codec:?}: reply {i}")
                }
                (_, other) => panic!("{codec:?}: reply {i}: {other:?}"),
            }
        }
    }
    server.shutdown();
}
