//! End-to-end router tests against in-process `gb-service` upstreams:
//! proxy round trips, stats rollup, failover + recovery re-homing, and
//! hedged tail-latency retries against a deliberately stalled upstream.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gb_router::{RebalanceSettings, RouterConfig, RouterServer, UPSTREAM_CONN_BASE};
use gb_service::cache::CacheKey;
use gb_service::fault::{ReadOp, ScriptedShim, WriteOp};
use gb_service::proto::{
    Algorithm, BalanceRequest, BalanceResponse, Codec, Json, Request, Response, WireCodec,
};
use gb_service::route::Router;
use gb_service::server::{Server, ServerConfig, Tuning};
use gb_service::spec::ProblemSpec;
use gb_service::Client;

const VNODES: usize = 32;

fn spec(seed: u64) -> ProblemSpec {
    ProblemSpec::Synthetic {
        weight: 1.0,
        lo: 0.25,
        hi: 0.5,
        seed,
    }
}

fn balance(id: u64, seed: u64) -> Request {
    Request::Balance(BalanceRequest {
        id: Some(id),
        algorithm: Algorithm::Hf,
        n: 8,
        theta: 1.0,
        deadline_ms: None,
        want_pieces: false,
        problem: spec(seed),
    })
}

/// The routing key the router derives for [`balance`]`(_, seed)`.
fn key_for(seed: u64) -> u64 {
    CacheKey::new(spec(seed).fingerprint(), Algorithm::Hf, 8, 1.0).mix()
}

/// Seeds whose keys the full 2-upstream ring assigns to `owner`.
fn seeds_owned_by(owner: u32, count: usize) -> Vec<u64> {
    let ring = Router::new(2, VNODES);
    (0u64..)
        .filter(|&s| ring.route(key_for(s)) == owner)
        .take(count)
        .collect()
}

fn start_upstream(addr: &str) -> Server {
    Server::start(ServerConfig {
        addr: addr.into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("upstream start")
}

fn start_stalled_upstream(stall: Duration) -> Server {
    let shim = ScriptedShim::new();
    shim.stall_workers(stall);
    Server::start_tuned(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServerConfig::default()
        },
        Tuning {
            shim: Arc::new(shim),
            ..Tuning::default()
        },
    )
    .expect("stalled upstream start")
}

fn router_over(upstreams: &[&Server], tweak: impl FnOnce(&mut RouterConfig)) -> RouterServer {
    let mut config = RouterConfig {
        upstreams: upstreams.iter().map(|s| s.local_addr()).collect(),
        vnodes: VNODES,
        health_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        fail_threshold: 2,
        reply_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(20),
        ..RouterConfig::default()
    };
    tweak(&mut config);
    RouterServer::start(config).expect("router start")
}

fn expect_ok(resp: Response, id: u64) {
    match resp {
        Response::Ok(ok) => assert_eq!(ok.id, Some(id), "reply correlated to the wrong request"),
        other => panic!("expected ok for id {id}, got {other:?}"),
    }
}

fn await_alive(router: &RouterServer, want: &[u32], budget: Duration) {
    let deadline = Instant::now() + budget;
    loop {
        if router.alive_ids() == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "alive set never became {want:?}, still {:?}",
            router.alive_ids()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn proxies_the_protocol_unchanged_and_rolls_up_stats() {
    let a = start_upstream("127.0.0.1:0");
    let b = start_upstream("127.0.0.1:0");
    let router = router_over(&[&a, &b], |_| {});
    let mut client = Client::connect(router.local_addr()).unwrap();

    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    for (i, seed) in (0u64..40).enumerate() {
        expect_ok(client.call(&balance(i as u64, seed)).unwrap(), i as u64);
    }
    // A second pass hits the upstreams' caches through the same router
    // path (same key → same upstream, by construction).
    for (i, seed) in (0u64..40).enumerate() {
        expect_ok(client.call(&balance(i as u64, seed)).unwrap(), i as u64);
    }

    let stats = match client.call(&Request::Stats).unwrap() {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let r = stats.get("router").expect("router section");
    assert_eq!(r.get("upstream_count").unwrap().as_u64(), Some(2));
    assert_eq!(r.get("alive").unwrap().as_u64(), Some(2));
    assert_eq!(r.get("proxied").unwrap().as_u64(), Some(80));
    let imbalance = r.get("imbalance").expect("imbalance gauge");
    assert!(imbalance.get("max").is_some());
    assert!(imbalance.get("mean").is_some());
    assert!(imbalance.get("ratio").is_some());
    match stats.get("upstreams") {
        Some(Json::Arr(list)) => {
            assert_eq!(list.len(), 2);
            let requests: u64 = list
                .iter()
                .map(|u| u.get("requests").and_then(|v| v.as_u64()).unwrap())
                .sum();
            assert!(requests >= 80, "both upstreams must have carried traffic");
            for u in list {
                assert_eq!(u.get("alive").and_then(Json::as_bool), Some(true));
                assert!(u.get("latency").is_some());
            }
        }
        other => panic!("expected upstreams array, got {other:?}"),
    }

    // Malformed frames are answered locally, not proxied.
    match client.call_raw("{not json").unwrap() {
        Response::Error { code, .. } => {
            assert_eq!(code, gb_service::proto::ErrorCode::BadRequest)
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn failover_rehomes_and_recovery_rehomes_back() {
    let a = start_upstream("127.0.0.1:0");
    let b = start_upstream("127.0.0.1:0");
    let b_addr = b.local_addr();
    let router = router_over(&[&a, &b], |c| c.forward_shutdown = false);
    let mut client = Client::connect(router.local_addr()).unwrap();

    let b_seeds = seeds_owned_by(1, 12);
    for (i, &seed) in b_seeds.iter().enumerate() {
        expect_ok(client.call(&balance(i as u64, seed)).unwrap(), i as u64);
    }

    // Kill B. New requests for B's keys must still succeed (in-request
    // failover retries on A), and the prober must re-home B's vnodes
    // within the health-check interval.
    b.shutdown();
    for (i, &seed) in b_seeds.iter().enumerate() {
        let id = 100 + i as u64;
        expect_ok(client.call(&balance(id, seed + 1_000_000)).unwrap(), id);
    }
    await_alive(&router, &[0], Duration::from_secs(5));
    let (failovers, _) = router.failover_counters();
    assert!(failovers >= 1);

    // Revive B on the exact same port: the prober must mark it alive
    // and the ring must restore the pre-death mapping.
    let b2 = start_upstream(&b_addr.to_string());
    await_alive(&router, &[0, 1], Duration::from_secs(5));
    let (_, recoveries) = router.failover_counters();
    assert!(recoveries >= 1);
    for (i, &seed) in b_seeds.iter().enumerate() {
        let id = 200 + i as u64;
        expect_ok(client.call(&balance(id, seed + 2_000_000)).unwrap(), id);
    }

    router.shutdown();
    a.shutdown();
    b2.shutdown();
}

#[test]
fn hedging_caps_tail_latency_from_a_stalled_upstream() {
    let stall = Duration::from_millis(150);
    let a = start_stalled_upstream(stall);
    let b = start_upstream("127.0.0.1:0");
    let router = router_over(&[&a, &b], |c| {
        c.hedge_delay = Some(Duration::from_millis(15));
        // A slow upstream must stay alive for this scenario: probes are
        // control frames and skip the stalled worker path anyway.
        c.fail_threshold = 50;
    });
    let mut client = Client::connect(router.local_addr()).unwrap();

    // Unique seeds owned by the stalled upstream, so every request is a
    // cache miss that would block ~150 ms without hedging.
    let seeds = seeds_owned_by(0, 6);
    for (i, &seed) in seeds.iter().enumerate() {
        let started = Instant::now();
        expect_ok(client.call(&balance(i as u64, seed)).unwrap(), i as u64);
        let elapsed = started.elapsed();
        assert!(
            elapsed < stall,
            "request {i} took {elapsed:?}; hedging should beat the {stall:?} stall"
        );
    }
    let (sent, won) = router.hedge_counters();
    assert!(sent >= seeds.len() as u64, "every request should hedge");
    assert!(won >= 1, "the clean upstream should win at least one race");

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

/// Upstream 0's `field` in the router's stats.
fn upstream_stat(router: &RouterServer, field: &str) -> Option<u64> {
    router.stats_json().get("upstreams")?.as_arr()?[0]
        .get(field)?
        .as_u64()
}

#[test]
fn restarting_an_upstream_under_pooled_traffic_does_not_trip_failover() {
    for_both_backends(|backend, tweak| {
        let a = start_upstream("127.0.0.1:0");
        let a_addr = a.local_addr();
        let router = router_over(&[&a], |c| {
            // The sharpest possible threshold: a single charged failure
            // kills the upstream. The restart must stay invisible even
            // then. A long health interval keeps the prober from racing
            // the restart window.
            c.fail_threshold = 1;
            c.health_interval = Duration::from_secs(30);
            c.forward_shutdown = false;
            tweak(c);
        });
        let mut client = Client::connect(router.local_addr()).unwrap();

        // Pooled traffic: these exchanges park idle connections to A.
        for (i, seed) in (0u64..6).enumerate() {
            expect_ok(client.call(&balance(i as u64, seed)).unwrap(), i as u64);
        }

        // Restart A on the exact same port. Every pooled connection is
        // now stale: the upstream closed them when it went down.
        a.shutdown();
        if backend == "epoll" {
            // An idle connection that turns readable is closed at once:
            // here, every one of them, on the upstream's close.
            let deadline = Instant::now() + Duration::from_secs(2);
            while upstream_stat(&router, "open") != Some(0) {
                assert!(
                    Instant::now() < deadline,
                    "[{backend}] idle conns stayed open"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let a2 = start_upstream(&a_addr.to_string());

        // Traffic resumes immediately. Under the sweep backend idle
        // connections are never polled, so each stale checkout must be
        // retried once on a fresh dial instead of being charged.
        for (i, seed) in (0u64..6).enumerate() {
            let id = 100 + i as u64;
            expect_ok(client.call(&balance(id, seed + 500_000)).unwrap(), id);
        }
        assert_eq!(
            router.failover_counters(),
            (0, 0),
            "[{backend}] a restart must not trip failover"
        );
        assert_eq!(router.alive_ids(), vec![0], "[{backend}]");
        if backend == "sweep" {
            assert!(
                router.stale_retry_count() >= 1,
                "[{backend}] at least one stale pooled conn should have been redialed"
            );
        }

        router.shutdown();
        a2.shutdown();
    });
}

/// A scripted upstream that answers every request line, and after its
/// first balance reply sends `stray` on the same connection `delay`
/// later. Returns its address.
fn start_stray_upstream(stray: &'static [u8], delay: Duration) -> std::net::SocketAddr {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sent = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(conn) = conn else { return };
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                let mut writer = conn.try_clone().unwrap();
                for line in BufReader::new(conn).lines() {
                    let Ok(line) = line else { return };
                    let reply = match Request::decode(&line) {
                        Ok(Request::Balance(req)) => Response::Ok(BalanceResponse {
                            id: req.id,
                            algorithm: req.algorithm,
                            n: req.n,
                            ratio: 1.0,
                            bound: 2.0,
                            alpha: 0.25,
                            cached: false,
                            micros: 1,
                            pieces: Vec::new(),
                        }),
                        Ok(Request::Stats) => Response::Stats(Json::Obj(Vec::new())),
                        _ => Response::Pong,
                    };
                    let mut frame = Vec::new();
                    WireCodec::Json.encode_response(&reply, &mut frame);
                    if writer.write_all(&frame).is_err() {
                        return;
                    }
                    if matches!(reply, Response::Ok(_))
                        && !sent.swap(true, std::sync::atomic::Ordering::SeqCst)
                    {
                        std::thread::sleep(delay);
                        let _ = writer.write_all(stray);
                    }
                }
            });
        }
    });
    addr
}

/// Bytes an upstream sends after a complete reply, in a later read than
/// the reply's end, never reach the next exchange: the idle connection
/// that turns readable is closed, and the next request gets its own
/// reply on a fresh one, with nothing charged to the upstream.
#[test]
fn late_bytes_on_an_idle_pooled_connection_never_reach_the_next_exchange() {
    let stray = b"{\"id\":999,\"status\":\"ok\",\"pong\":true}\n";
    let addr = start_stray_upstream(stray, Duration::from_millis(20));
    let router = RouterServer::start(RouterConfig {
        upstreams: vec![addr],
        vnodes: VNODES,
        health_interval: Duration::from_secs(30),
        probe_timeout: Duration::from_millis(250),
        fail_threshold: 2,
        reply_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(20),
        forward_shutdown: false,
        ..RouterConfig::default()
    })
    .expect("router start");
    let mut client = Client::connect(router.local_addr()).unwrap();
    expect_ok(client.call(&balance(1, 1)).unwrap(), 1);
    // The stray bytes arrive about 20 ms after the reply.
    std::thread::sleep(Duration::from_millis(120));
    for id in 2..6u64 {
        expect_ok(client.call(&balance(id, id)).unwrap(), id);
    }
    assert_eq!(
        upstream_stat(&router, "errors"),
        Some(0),
        "a failure was charged"
    );
    assert_eq!(upstream_stat(&router, "consecutive_failures"), Some(0));
    assert_eq!(router.failover_counters(), (0, 0));
    router.shutdown();
}

#[test]
fn binary_frames_proxy_through_the_router_unchanged() {
    let a = start_upstream("127.0.0.1:0");
    let b = start_upstream("127.0.0.1:0");
    let router = router_over(&[&a, &b], |_| {});
    let mut client = Client::connect(router.local_addr()).unwrap();
    client.set_codec(gb_service::proto::WireCodec::Binary);

    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    // Cold pass then hot pass: the second must come back cached, which
    // proves the binary reply bytes round-trip the relay intact.
    for (i, seed) in (0u64..20).enumerate() {
        match client.call(&balance(i as u64, seed)).unwrap() {
            Response::Ok(ok) => {
                assert_eq!(ok.id, Some(i as u64));
                assert!(!ok.cached, "first pass must miss");
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }
    for (i, seed) in (0u64..20).enumerate() {
        match client.call(&balance(i as u64, seed)).unwrap() {
            Response::Ok(ok) => {
                assert_eq!(ok.id, Some(i as u64));
                assert!(ok.cached, "second pass must hit the upstream cache");
            }
            other => panic!("expected ok, got {other:?}"),
        }
    }
    // The same connection can drop back to JSON mid-stream; the stats
    // rollup arrives as a binary frame when asked in binary.
    let stats = match client.call(&Request::Stats).unwrap() {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let r = stats.get("router").expect("router section");
    assert_eq!(r.get("proxied").unwrap().as_u64(), Some(40));
    client.set_codec(gb_service::proto::WireCodec::Json);
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));

    router.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn shutdown_frame_drains_router_and_forwards_to_upstreams() {
    let a = start_upstream("127.0.0.1:0");
    let b = start_upstream("127.0.0.1:0");
    let router = router_over(&[&a, &b], |_| {});
    let router_addr = router.local_addr();

    let mut client = Client::connect(router_addr).unwrap();
    expect_ok(client.call(&balance(1, 7)).unwrap(), 1);
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::Pong
    ));

    // The router drains...
    router.shutdown();
    // ...and the upstreams got the forwarded shutdown: join() only
    // returns once a server has fully stopped.
    a.join();
    b.join();
    assert!(
        Client::connect(router_addr).is_err()
            || Client::connect(router_addr)
                .and_then(|mut c| c.call(&Request::Ping))
                .is_err(),
        "router must stop accepting after drain"
    );
}

#[test]
fn rebalance_ticks_exclude_dead_upstreams_and_revival_restores_candidacy() {
    let a = start_upstream("127.0.0.1:0");
    let b = start_upstream("127.0.0.1:0");
    let b_addr = b.local_addr();
    let router = router_over(&[&a, &b], |c| {
        c.forward_shutdown = false;
        // trigger 1.0: every tick plans, so the loop is exercised even
        // under near-uniform load.
        c.rebalance = Some(RebalanceSettings {
            interval: Duration::from_millis(60),
            trigger: 1.0,
            move_budget: usize::MAX,
            decay: 0.5,
        });
    });
    let mut client = Client::connect(router.local_addr()).unwrap();

    // Skewed traffic: hammer a handful of keys so the tick loop sees a
    // lopsided vnode histogram worth acting on.
    for round in 0u64..4 {
        for seed in 0u64..6 {
            let id = round * 10 + seed;
            expect_ok(client.call(&balance(id, seed)).unwrap(), id);
        }
    }
    let tick_deadline = Instant::now() + Duration::from_secs(5);
    while router.rebalance_snapshot().ticks < 2 {
        assert!(
            Instant::now() < tick_deadline,
            "rebalance loop never ticked: {:?}",
            router.rebalance_snapshot()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Kill B mid-rebalance. Requests keep succeeding (per-request
    // fallback + prober re-homing), and once the prober declares B
    // dead, the next applied assignment must target A exclusively.
    b.shutdown();
    for seed in 0u64..6 {
        let id = 100 + seed;
        expect_ok(client.call(&balance(id, seed + 1_000_000)).unwrap(), id);
    }
    await_alive(&router, &[0], Duration::from_secs(5));
    let assign_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        // Keep the load histogram moving so ticks have fresh deltas.
        expect_ok(client.call(&balance(999, 42)).unwrap(), 999);
        if let Some(owners) = router.assignment() {
            if router.alive_ids() == [0] && owners.iter().all(|&o| o == 0) {
                break;
            }
        }
        assert!(
            Instant::now() < assign_deadline,
            "assignment never drained off the dead upstream: {:?}",
            router.assignment()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Revive B on the same port: once alive again it must regain
    // vnodes — a later tick spreads the assignment back over both.
    let b2 = start_upstream(&b_addr.to_string());
    await_alive(&router, &[0, 1], Duration::from_secs(5));
    let spread_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        for seed in 0u64..6 {
            let id = 200 + seed;
            expect_ok(client.call(&balance(id, seed + 2_000_000)).unwrap(), id);
        }
        if let Some(owners) = router.assignment() {
            if owners.contains(&1) {
                break;
            }
        }
        assert!(
            Instant::now() < spread_deadline,
            "revived upstream never regained vnodes: {:?}",
            router.assignment()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let snap = router.rebalance_snapshot();
    assert!(snap.ticks >= 2, "tick loop wedged: {snap:?}");
    assert!(snap.version >= 1, "no assignment ever applied: {snap:?}");

    router.shutdown();
    a.shutdown();
    b2.shutdown();
}

/// The router's two readiness backends: epoll, and the sweep fallback
/// forced by scripting readiness setup to fail (`EMFILE`) in its shim.
fn for_both_backends(scenario: impl Fn(&str, &dyn Fn(&mut RouterConfig))) {
    scenario("epoll", &|_| {});
    scenario("sweep", &|c| {
        let shim = ScriptedShim::new();
        shim.fail_readiness(24);
        c.shim = Arc::new(shim);
    });
}

/// A reply with the fields that legitimately differ between two servers
/// answering the same request (timing and cache state) zeroed.
fn comparable(resp: Response) -> Response {
    match resp {
        Response::Ok(mut ok) => {
            ok.micros = 0;
            ok.cached = false;
            Response::Ok(ok)
        }
        other => other,
    }
}

#[test]
fn pipelined_frames_come_back_in_order_on_both_backends() {
    for_both_backends(|backend, tweak| {
        let direct = start_upstream("127.0.0.1:0");
        let a = start_upstream("127.0.0.1:0");
        let b = start_upstream("127.0.0.1:0");
        let router = router_over(&[&a, &b], |c| tweak(c));
        for codec in [WireCodec::Json, WireCodec::Binary] {
            // Sixteen fresh keys, half owned by each upstream, each asked
            // twice: the first pass misses, the second hits. Every other
            // request wants its pieces, so replies vary in length.
            let pass = if codec == WireCodec::Json {
                0..8
            } else {
                8..16
            };
            let mut keys = seeds_owned_by(0, 16)[pass.clone()].to_vec();
            keys.extend_from_slice(&seeds_owned_by(1, 16)[pass]);
            let requests: Vec<Request> = (0..32u64)
                .map(|i| {
                    let seed = keys[(i % 16) as usize];
                    match balance(i, seed) {
                        Request::Balance(mut req) => {
                            req.want_pieces = i % 2 == 0;
                            Request::Balance(req)
                        }
                        other => other,
                    }
                })
                .collect();
            let mut straight = Client::connect(direct.local_addr()).unwrap();
            straight.set_codec(codec);
            let want: Vec<Response> = requests
                .iter()
                .map(|r| comparable(straight.call(r).unwrap()))
                .collect();

            let mut client = Client::connect(router.local_addr()).unwrap();
            client.set_codec(codec);
            for request in &requests {
                client.send(request).unwrap();
            }
            let mut cached = 0;
            for (i, want) in want.iter().enumerate() {
                let got = client.recv().unwrap();
                if let Response::Ok(ok) = &got {
                    cached += ok.cached as usize;
                }
                assert_eq!(
                    &comparable(got),
                    want,
                    "[{backend} {codec:?}] reply {i} differs from the direct reply"
                );
            }
            assert_eq!(cached, 16, "[{backend} {codec:?}] second pass must hit");
        }
        router.shutdown();
        for server in [direct, a, b] {
            server.shutdown();
        }
    });
}

#[test]
fn a_hedge_goes_out_on_its_own_deadline_not_the_poll_interval() {
    for_both_backends(|backend, tweak| {
        let a = start_stalled_upstream(Duration::from_millis(1_000));
        let b = start_upstream("127.0.0.1:0");
        let router = router_over(&[&a, &b], |c| {
            tweak(c);
            c.hedge_delay = Some(Duration::from_millis(5));
            // The default 100 ms: a hedge that waited for the loop's
            // timer tick could not answer in time.
            c.poll_interval = RouterConfig::default().poll_interval;
            c.fail_threshold = 50;
        });
        let mut client = Client::connect(router.local_addr()).unwrap();
        for (i, seed) in seeds_owned_by(0, 3).into_iter().enumerate() {
            let started = Instant::now();
            expect_ok(client.call(&balance(i as u64, seed)).unwrap(), i as u64);
            let elapsed = started.elapsed();
            assert!(
                elapsed < Duration::from_millis(50),
                "[{backend}] hedged request {i} took {elapsed:?}"
            );
        }
        let (sent, won) = router.hedge_counters();
        assert!(
            sent >= 3 && won >= 3,
            "[{backend}] hedges {sent} sent, {won} won"
        );
        router.shutdown();
        b.shutdown();
        a.shutdown();
    });
}

#[test]
fn torn_upstream_reads_and_writes_are_resumed_on_both_backends() {
    for sweep in [false, true] {
        let backend = if sweep { "sweep" } else { "epoll" };
        let a = start_upstream("127.0.0.1:0");
        // The router's writes to the upstream go out in 7- and 1-byte
        // pieces with a refusal between (enough script for every frame
        // of the run), and its reads are refused twice before each pass:
        // each frame and each reply crosses several readiness events.
        let shim = ScriptedShim::new();
        if sweep {
            shim.fail_readiness(24);
        }
        let link = UPSTREAM_CONN_BASE;
        for _ in 0..500 {
            shim.plan_writes(
                link,
                [WriteOp::Short(7), WriteOp::WouldBlock, WriteOp::Short(1)],
            );
        }
        for _ in 0..60 {
            shim.plan_reads(link, [ReadOp::WouldBlock, ReadOp::WouldBlock, ReadOp::Pass]);
        }
        let router = router_over(&[&a], |c| {
            c.shim = Arc::new(shim.clone());
            c.fail_threshold = 1;
            c.health_interval = Duration::from_secs(30);
        });
        let mut client = Client::connect(router.local_addr()).unwrap();
        for i in 0..20u64 {
            let request = match balance(i, i) {
                Request::Balance(mut req) => {
                    req.want_pieces = true;
                    Request::Balance(req)
                }
                other => other,
            };
            expect_ok(client.call(&request).unwrap(), i);
        }
        assert_eq!(router.failover_counters(), (0, 0), "[{backend}]");
        assert_eq!(router.stale_retry_count(), 0, "[{backend}]");
        router.shutdown();
        a.shutdown();
    }
}

/// Replies far over `MAX_FRAME` (a partition's pieces at n = 16,384 and
/// 65,536, about 0.4 and 1.6 MB in JSON) reach the client through the
/// router exactly as gb-serve sends them, in both codecs, and charge no
/// upstream: the reply path is capped at `MAX_REPLY`, the largest reply
/// gb-serve can encode.
#[test]
fn partitions_at_the_largest_sizes_pass_through_the_router_whole() {
    let direct = start_upstream("127.0.0.1:0");
    let a = start_upstream("127.0.0.1:0");
    let b = start_upstream("127.0.0.1:0");
    let router = router_over(&[&a, &b], |_| {});
    let mut id = 0;
    for n in [16_384, 65_536] {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            id += 1;
            let request = Request::Balance(BalanceRequest {
                id: Some(id),
                algorithm: Algorithm::Hf,
                n,
                theta: 1.0,
                deadline_ms: None,
                want_pieces: true,
                problem: ProblemSpec::Synthetic {
                    weight: 1.0,
                    lo: 0.1,
                    hi: 0.5,
                    seed: n as u64,
                },
            });
            let mut straight = Client::connect(direct.local_addr()).unwrap();
            straight.set_codec(codec);
            let want = comparable(straight.call(&request).unwrap());
            match &want {
                Response::Ok(ok) => assert_eq!(ok.pieces.len(), n, "{codec:?} n = {n}"),
                other => panic!("{codec:?} n = {n}: direct reply {other:?}"),
            }
            let mut client = Client::connect(router.local_addr()).unwrap();
            client.set_codec(codec);
            let got = comparable(client.call(&request).unwrap());
            assert!(got == want, "{codec:?} n = {n}: the proxied reply differs");
        }
    }
    let mut client = Client::connect(router.local_addr()).unwrap();
    let stats = match client.call(&Request::Stats).unwrap() {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    };
    let r = stats.get("router").expect("router section");
    assert_eq!(r.get("alive").and_then(Json::as_u64), Some(2));
    assert_eq!(r.get("failovers").and_then(Json::as_u64), Some(0));
    match stats.get("upstreams") {
        Some(Json::Arr(list)) => {
            for u in list {
                assert_eq!(u.get("alive").and_then(Json::as_bool), Some(true));
                assert_eq!(u.get("errors").and_then(Json::as_u64), Some(0));
            }
        }
        other => panic!("expected upstreams array, got {other:?}"),
    }
    router.shutdown();
    for server in [direct, a, b] {
        server.shutdown();
    }
}
