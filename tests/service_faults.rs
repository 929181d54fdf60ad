//! Fault-injection matrix for the serving path.
//!
//! Every scenario runs against two server shapes: the default `epoll`
//! readiness backend, and the same server with readiness setup scripted
//! to fail (`ScriptedShim::fail_readiness(EMFILE)`), so the pollers run
//! the sweep fallback. The fault shim intercepts reads and writes
//! identically on both, so every injected fault exercises both
//! readiness backends. Each scenario ends with the same "never wedges"
//! invariant check: the queue depth and the in-flight gauge drain to
//! zero, the expected fault counters moved, and a fresh well-behaved
//! client still gets a correct `Balance` reply. Faults are injected two ways: hostile byte streams
//! on real sockets (torn frames, garbage, oversized lines, abrupt
//! closes) and a scripted [`ScriptedShim`] inside the server (short
//! writes, `WouldBlock` storms on either side, read/write resets and
//! errors, stalled workers, accept-time refusals, readiness setup
//! failures).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gb_service::client::Client;
use gb_service::fault::{ReadOp, ScriptedShim, WriteOp};
use gb_service::io_loop::{Dispatch, Handler, IoLoop, LoopConfig, Reply, WINDOW};
use gb_service::proto::{
    Algorithm, BalanceRequest, Codec, ErrorCode, Json, Request, Response, WireCodec, BIN_HDR,
    MAGIC, MAX_FRAME,
};
use gb_service::server::{Server, ServerConfig, Tuning};
use gb_service::spec::ProblemSpec;

/// `EMFILE`, the per-process fd limit: the errno fault scripts inject.
const EMFILE: i32 = 24;

/// Unique cold seeds so "must reach a worker" requests never hit the
/// cache, across every test in this binary.
static NEXT_SEED: AtomicU64 = AtomicU64::new(10_000);

fn cold_seed() -> u64 {
    NEXT_SEED.fetch_add(1, Ordering::Relaxed)
}

fn balance_request(seed: u64, deadline_ms: Option<u64>) -> Request {
    Request::Balance(BalanceRequest {
        id: Some(seed),
        algorithm: Algorithm::Hf,
        n: 16,
        theta: 1.0,
        deadline_ms,
        want_pieces: false,
        problem: ProblemSpec::Synthetic {
            weight: 1.0,
            lo: 0.25,
            hi: 0.5,
            seed,
        },
    })
}

/// One server shape the matrix runs under: whether readiness setup is
/// scripted to fail (forcing the sweep fallback).
#[derive(Clone, Copy)]
struct Setup {
    sweep_fallback: bool,
}

impl Setup {
    const EPOLL: Setup = Setup {
        sweep_fallback: false,
    };

    fn name(&self) -> String {
        let engine = if self.sweep_fallback {
            "sweep-fallback"
        } else {
            "epoll"
        };
        engine.to_string()
    }

    /// The readiness backend the server must report: epoll unless the
    /// fallback is forced or the platform has no epoll.
    fn engine(&self) -> &'static str {
        if self.sweep_fallback || !cfg!(target_os = "linux") {
            "sweep"
        } else {
            "epoll"
        }
    }
}

/// A server plus the script driving its fault shim.
struct Harness {
    server: Option<Server>,
    shim: ScriptedShim,
    setup: Setup,
}

impl Harness {
    fn start(setup: Setup) -> Harness {
        Self::start_with(setup, |_| {})
    }

    fn start_with(setup: Setup, tune: impl FnOnce(&mut Tuning)) -> Harness {
        let shim = ScriptedShim::new();
        if setup.sweep_fallback {
            shim.fail_readiness(EMFILE);
        }
        let mut tuning = Tuning {
            shim: Arc::new(shim.clone()),
            ..Tuning::default()
        };
        tune(&mut tuning);
        let server = Server::start_tuned(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_capacity: 16,
                cache_capacity: 64,
            },
            tuning,
        )
        .expect("bind ephemeral port");
        assert_eq!(server.engine(), setup.engine(), "[{}]", setup.name());
        Harness {
            server: Some(server),
            shim,
            setup,
        }
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server running").local_addr()
    }

    fn stats(&self) -> Json {
        match Client::connect(self.addr())
            .and_then(|mut c| c.call(&Request::Stats))
            .expect("stats call")
        {
            Response::Stats(stats) => stats,
            other => panic!("expected stats, got {other:?}"),
        }
    }

    fn fault_counter(&self, name: &str) -> u64 {
        self.stats()
            .get("faults")
            .and_then(|f| f.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("stats missing faults.{name}"))
    }

    /// Polls until the named fault counter reaches `want` — fault
    /// bookkeeping is asynchronous to the client observing the fault.
    fn await_fault_counter(&self, name: &str, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let have = self.fault_counter(name);
            if have >= want {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "[{}] faults.{name} stuck at {have}, wanted >= {want}",
                self.setup.name()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Deferred frames awaiting their reply (`connections.inflight`).
    fn inflight(&self) -> u64 {
        self.stats()
            .get("connections")
            .and_then(|c| c.get("inflight"))
            .and_then(|v| v.as_u64())
            .expect("stats missing connections.inflight")
    }

    /// Polls `connections.inflight` until it reads `want` (or 5 s
    /// pass); returns the last reading.
    fn await_inflight(&self, want: u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let have = self.inflight();
            if have == want || Instant::now() >= deadline {
                return have;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// The post-scenario invariant: all transient state drains and the
    /// server still answers correctly.
    fn assert_never_wedged(&self) {
        let engine = self.setup.name();
        // The queue depth and the in-flight gauge drop in sequence, so a
        // snapshot can land between the two — poll them together until
        // both read zero.
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut depth, mut inflight): (u64, u64);
        loop {
            let stats = self.stats();
            depth = stats
                .get("queue")
                .and_then(|q| q.get("depth"))
                .and_then(|v| v.as_u64())
                .expect("stats missing queue.depth");
            inflight = stats
                .get("connections")
                .and_then(|c| c.get("inflight"))
                .and_then(|v| v.as_u64())
                .expect("stats missing connections.inflight");
            if depth == 0 && inflight == 0 {
                break;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(depth, 0, "[{engine}] queue depth leaked");
        assert_eq!(inflight, 0, "[{engine}] in-flight gauge leaked");

        let seed = cold_seed();
        let mut client = Client::connect(self.addr()).expect("fresh client connect");
        match client
            .call(&balance_request(seed, None))
            .expect("fresh balance call")
        {
            Response::Ok(ok) => {
                assert!(
                    ok.ratio >= 1.0 && ok.ratio <= ok.bound,
                    "[{engine}] bad ratio {} (bound {})",
                    ok.ratio,
                    ok.bound
                );
            }
            other => panic!("[{engine}] fresh client got {other:?}"),
        }
    }

    fn shutdown(mut self) {
        self.shim.clear_stall();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// A raw protocol connection with bounded reads, for hostile scripts.
struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn open(addr: std::net::SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("raw connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .expect("write timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        RawConn {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("raw write");
    }

    /// Reads one reply line; `None` on EOF.
    fn read_reply(&mut self) -> Option<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("raw read");
        if n == 0 {
            return None;
        }
        Some(Response::decode(line.trim_end()).expect("decode reply"))
    }

    /// Reads one length-prefixed binary reply; `None` on EOF.
    fn read_binary_reply(&mut self) -> Option<Response> {
        let mut header = [0u8; BIN_HDR];
        if let Err(e) = self.reader.read_exact(&mut header) {
            assert_eq!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "binary header read"
            );
            return None;
        }
        assert_eq!(header[0], MAGIC, "binary reply magic");
        let len = u32::from_le_bytes(header[1..].try_into().unwrap()) as usize;
        let mut payload = vec![0u8; len];
        self.reader
            .read_exact(&mut payload)
            .expect("binary payload");
        Some(
            WireCodec::Binary
                .decode_response(&payload)
                .expect("decode binary reply"),
        )
    }

    fn close_write(&self) {
        let _ = self.writer.shutdown(Shutdown::Write);
    }
}

fn request_line(request: &Request) -> Vec<u8> {
    let mut line = request.encode();
    line.push('\n');
    line.into_bytes()
}

/// Runs a scenario on both readiness backends: epoll, and the sweep
/// fallback.
fn for_all(scenario: impl Fn(Setup)) {
    for sweep_fallback in [false, true] {
        scenario(Setup { sweep_fallback });
    }
}

// ---------------------------------------------------------------------------
// Scenario matrix
// ---------------------------------------------------------------------------

/// Scenario 1: connection dropped mid-frame. The torn tail must count as
/// a framing fault, not vanish.
#[test]
fn drop_mid_frame_counts_torn_frame() {
    for_all(|setup| {
        let h = Harness::start(setup);
        {
            let mut conn = RawConn::open(h.addr());
            let line = request_line(&balance_request(cold_seed(), None));
            conn.send(&line[..line.len() / 2]);
            // Full close, newline never sent: a torn frame.
        }
        h.await_fault_counter("torn_frame", 1);
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 2: EOF mid-pipeline with the read half still open. The valid
/// frame is answered, the torn tail gets a best-effort error reply.
#[test]
fn torn_tail_after_valid_pipeline_gets_error_reply() {
    for_all(|setup| {
        let h = Harness::start(setup);
        {
            let mut conn = RawConn::open(h.addr());
            conn.send(b"{\"op\":\"ping\"}\n{\"op\":\"bal");
            conn.close_write();
            match conn.read_reply() {
                Some(Response::Pong) => {}
                other => panic!("[{}] expected pong, got {other:?}", setup.name()),
            }
            match conn.read_reply() {
                Some(Response::Error { code, .. }) => {
                    assert_eq!(code, ErrorCode::BadRequest);
                }
                other => panic!("[{}] expected torn error, got {other:?}", setup.name()),
            }
            assert!(
                conn.read_reply().is_none(),
                "server must close after torn frame"
            );
        }
        h.await_fault_counter("torn_frame", 1);
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 3: garbage frames interleaved with valid pipelined requests —
/// answered in order, connection survives.
#[test]
fn garbage_interleaved_with_valid_pipeline() {
    for_all(|setup| {
        let h = Harness::start(setup);
        {
            let mut conn = RawConn::open(h.addr());
            let mut burst = Vec::new();
            burst.extend_from_slice(b"!!! not json !!!\n");
            burst.extend_from_slice(&request_line(&balance_request(cold_seed(), None)));
            burst.extend_from_slice(b"{\"op\":\"nope\"}\n");
            burst.extend_from_slice(b"{\"op\":\"ping\"}\n");
            conn.send(&burst);
            match conn.read_reply() {
                Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
                other => panic!("[{}] reply 1: {other:?}", setup.name()),
            }
            match conn.read_reply() {
                Some(Response::Ok(_)) => {}
                other => panic!("[{}] reply 2: {other:?}", setup.name()),
            }
            match conn.read_reply() {
                Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
                other => panic!("[{}] reply 3: {other:?}", setup.name()),
            }
            match conn.read_reply() {
                Some(Response::Pong) => {}
                other => panic!("[{}] reply 4: {other:?}", setup.name()),
            }
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 4: an oversized frame answered with `too long`, then the
/// stream resyncs and the same connection keeps working.
#[test]
fn oversized_frame_resyncs_on_same_connection() {
    for_all(|setup| {
        let h = Harness::start(setup);
        {
            let mut conn = RawConn::open(h.addr());
            let mut burst = vec![b'x'; MAX_FRAME + 100];
            burst.push(b'\n');
            burst.extend_from_slice(b"{\"op\":\"ping\"}\n");
            conn.send(&burst);
            match conn.read_reply() {
                Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
                other => panic!("[{}] oversized reply: {other:?}", setup.name()),
            }
            match conn.read_reply() {
                Some(Response::Pong) => {}
                other => panic!("[{}] post-resync reply: {other:?}", setup.name()),
            }
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 5 (partial-write regression): replies forced through
/// single-byte writes interleaved with `WouldBlock` must still arrive
/// byte-perfect — no dropped and no duplicated bytes.
#[test]
fn torn_write_storm_keeps_replies_intact() {
    for_all(|setup| {
        let h = Harness::start(setup);
        // Connection 0's first writes: a storm of 1–3 byte shorts and
        // WouldBlocks, then passthrough.
        let mut plan = Vec::new();
        for k in 0..24 {
            plan.push(WriteOp::Short(1 + k % 3));
            plan.push(WriteOp::WouldBlock);
        }
        h.shim.plan_writes(0, plan);
        {
            let mut conn = RawConn::open(h.addr());
            conn.send(b"{\"op\":\"ping\"}\n");
            match conn.read_reply() {
                Some(Response::Pong) => {}
                other => panic!("[{}] shredded pong: {other:?}", setup.name()),
            }
            // A worker-written reply through the same shredder.
            conn.send(&request_line(&balance_request(cold_seed(), None)));
            match conn.read_reply() {
                Some(Response::Ok(ok)) => {
                    assert!(ok.ratio >= 1.0 && ok.ratio <= ok.bound);
                }
                other => panic!("[{}] shredded balance: {other:?}", setup.name()),
            }
            // And the connection still works once the plan is spent.
            conn.send(b"{\"op\":\"ping\"}\n");
            assert!(matches!(conn.read_reply(), Some(Response::Pong)));
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 6 (poller-starvation regression): while connection 0's reply
/// is stuck in a `WouldBlock` storm, a neighbouring connection on the
/// same poller must still be answered promptly. Pre-fix, the event
/// poller slept inside the write loop and the neighbour waited out the
/// whole storm.
#[test]
fn wouldblock_storm_does_not_starve_neighbours() {
    for_all(|setup| {
        let h = Harness::start(setup);
        h.shim
            .plan_writes(0, [WriteOp::BlockFor(Duration::from_millis(1500))]);
        let mut stuck = RawConn::open(h.addr());
        stuck.send(b"{\"op\":\"ping\"}\n");
        // Give the server a beat to attempt (and block) the first write.
        std::thread::sleep(Duration::from_millis(100));

        let mut neighbour = RawConn::open(h.addr());
        let asked = Instant::now();
        neighbour.send(b"{\"op\":\"ping\"}\n");
        match neighbour.read_reply() {
            Some(Response::Pong) => {}
            other => panic!("[{}] neighbour reply: {other:?}", setup.name()),
        }
        let waited = asked.elapsed();
        assert!(
            waited < Duration::from_millis(1000),
            "[{}] neighbour starved for {waited:?} behind a blocked write",
            setup.name()
        );
        // The stuck reply is delivered intact once the storm passes.
        match stuck.read_reply() {
            Some(Response::Pong) => {}
            other => panic!("[{}] stuck reply: {other:?}", setup.name()),
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 7: a write reset while replying. The connection dies, the
/// reset is counted, and nothing leaks.
#[test]
fn write_reset_counts_conn_reset() {
    for_all(|setup| {
        let h = Harness::start(setup);
        h.shim.plan_writes(0, [WriteOp::Reset]);
        {
            let mut conn = RawConn::open(h.addr());
            conn.send(b"{\"op\":\"ping\"}\n");
            // The reply write is reset server-side; we observe EOF (or a
            // reset of our own, both acceptable).
            let mut line = String::new();
            let _ = conn.reader.read_line(&mut line);
        }
        h.await_fault_counter("conn_reset", 1);
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 8: a stalled worker pushes the request past its deadline —
/// the client gets `timeout`, not silence.
#[test]
fn stalled_worker_turns_deadline_into_timeout() {
    for_all(|setup| {
        let h = Harness::start(setup);
        h.shim.stall_workers(Duration::from_millis(400));
        {
            let mut client = Client::connect(h.addr()).expect("connect");
            match client
                .call(&balance_request(cold_seed(), Some(100)))
                .expect("stalled call")
            {
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::Timeout, "[{}]", setup.name())
                }
                other => panic!("[{}] expected timeout, got {other:?}", setup.name()),
            }
        }
        h.shim.clear_stall();
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 9: the worker outlives `reply_timeout` — the connection gets
/// an `internal` error instead of wedging, and the worker's late reply
/// is dropped and counted (`reply_dropped`: the reply raced the
/// poller-side timeout and lost).
#[test]
fn slow_worker_triggers_reply_timeout() {
    for_all(|setup| {
        let h = Harness::start_with(setup, |t| {
            t.reply_timeout = Duration::from_millis(200);
        });
        h.shim.stall_workers(Duration::from_millis(900));
        {
            let mut client = Client::connect(h.addr()).expect("connect");
            match client
                .call(&balance_request(cold_seed(), None))
                .expect("slow call")
            {
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::Internal, "[{}]", setup.name())
                }
                other => panic!("[{}] expected internal, got {other:?}", setup.name()),
            }
        }
        h.shim.clear_stall();
        h.await_fault_counter("reply_dropped", 1);
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 10 (slot-leak regression): connections killed while their
/// request is queued or at a worker must release the in-flight slot and
/// the queue slot. Pre-fix the gauges did not exist and dead-connection
/// jobs burned workers; post-fix repeated kill cycles leave zero
/// residue and shedding does not tighten.
#[test]
fn killing_connections_mid_request_leaks_nothing() {
    for_all(|setup| {
        let h = Harness::start(setup);
        // Hold jobs at the worker long enough that the close happens
        // while the request is in flight.
        h.shim.stall_workers(Duration::from_millis(150));
        for _ in 0..6 {
            let mut conn = RawConn::open(h.addr());
            conn.send(&request_line(&balance_request(cold_seed(), None)));
            // Drop without reading: the reply lands on a dead socket.
        }
        h.shim.clear_stall();
        // The invariant check asserts depth == 0 and inflight == 0, and
        // that a fresh request is served rather than shed — shedding
        // that "tightens forever" would answer `overloaded` here.
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 11: accept-time reset. The refused connection sees EOF, the
/// reset is counted, and the next connection is served normally.
#[test]
fn accept_reset_refuses_one_connection_cleanly() {
    for_all(|setup| {
        let h = Harness::start(setup);
        h.shim.reset_accept(0); // the first accepted connection
        {
            let mut refused = RawConn::open(h.addr());
            refused.send(b"{\"op\":\"ping\"}\n");
            let mut line = String::new();
            let n = refused.reader.read_line(&mut line).unwrap_or(0);
            assert_eq!(n, 0, "[{}] refused conn must see EOF", setup.name());
        }
        h.await_fault_counter("conn_reset", 1);
        {
            let mut conn = RawConn::open(h.addr());
            conn.send(b"{\"op\":\"ping\"}\n");
            assert!(
                matches!(conn.read_reply(), Some(Response::Pong)),
                "[{}] neighbour of refused conn must be served",
                setup.name()
            );
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 12: a client that vanishes while pipelined requests are
/// queued behind an in-flight one — everything drains, nothing wedges.
#[test]
fn vanishing_pipeline_drains_cleanly() {
    for_all(|setup| {
        let h = Harness::start(setup);
        h.shim.stall_workers(Duration::from_millis(100));
        {
            let mut conn = RawConn::open(h.addr());
            let mut burst = Vec::new();
            for _ in 0..4 {
                burst.extend_from_slice(&request_line(&balance_request(cold_seed(), None)));
            }
            conn.send(&burst);
            // Read one reply so at least one request completed, then die
            // with the rest queued or unread.
            let _ = conn.read_reply();
        }
        h.shim.clear_stall();
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 13: injected read-side failures — a reset on one connection
/// and an unclassified I/O error on another. Both connections die, both
/// are counted as `conn_reset`, and nothing leaks.
#[test]
fn read_reset_and_error_count_conn_reset() {
    for_all(|setup| {
        let h = Harness::start(setup);
        h.shim.plan_reads(0, [ReadOp::Reset]);
        h.shim.plan_reads(1, [ReadOp::Error]);
        for _ in 0..2 {
            let mut conn = RawConn::open(h.addr());
            conn.send(b"{\"op\":\"ping\"}\n");
            // The server-side read fails before a reply exists; we see
            // EOF (or a reset of our own, both acceptable).
            let mut line = String::new();
            let _ = conn.reader.read_line(&mut line);
        }
        h.await_fault_counter("conn_reset", 2);
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 14: a `WouldBlock` storm on the read side. The frame reader
/// must treat every injected `WouldBlock` as "no data yet" — the
/// connection survives the storm and answers once the plan is spent.
#[test]
fn read_wouldblock_storm_connection_survives() {
    for_all(|setup| {
        let h = Harness::start(setup);
        h.shim.plan_reads(0, vec![ReadOp::WouldBlock; 12]);
        {
            let mut conn = RawConn::open(h.addr());
            conn.send(b"{\"op\":\"ping\"}\n");
            match conn.read_reply() {
                Some(Response::Pong) => {}
                other => panic!("[{}] stormed ping: {other:?}", setup.name()),
            }
            // Same connection still serves real work afterwards.
            conn.send(&request_line(&balance_request(cold_seed(), None)));
            match conn.read_reply() {
                Some(Response::Ok(ok)) => {
                    assert!(ok.ratio >= 1.0 && ok.ratio <= ok.bound);
                }
                other => panic!("[{}] post-storm balance: {other:?}", setup.name()),
            }
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 17 (fd-pressure regression): every `accept()` fails with
/// `EMFILE` — the per-process fd limit — while a burst of newcomers
/// knocks. Pre-fix the poller treated any accept error as "stop
/// accepting this sweep" without counting it. Post-fix: `faults.accept_errors` moves,
/// accepts back off for a poll interval instead of spinning, the
/// connections that already exist keep getting answers throughout, and
/// once fds are "freed" fresh clients are served again.
#[test]
fn fd_exhaustion_backs_off_counts_and_recovers() {
    for_all(|setup| {
        let h = Harness::start(setup);
        // A connection established before the pressure.
        let mut existing = RawConn::open(h.addr());
        existing.send(b"{\"op\":\"ping\"}\n");
        assert!(
            matches!(existing.read_reply(), Some(Response::Pong)),
            "[{}] pre-pressure ping",
            setup.name()
        );

        h.shim.fail_accepts(EMFILE);
        // Newcomers during the outage. The kernel may still complete
        // the TCP handshake (listen backlog); what matters is that the
        // server-side accept failure is triaged, not that these sockets
        // get served.
        let pressured: Vec<TcpStream> = (0..5)
            .map(|i| {
                TcpStream::connect(h.addr()).unwrap_or_else(|e| {
                    panic!("[{}] connect {i} under pressure: {e}", setup.name())
                })
            })
            .collect();
        // Fault bookkeeping is asynchronous to the clients observing
        // the outage, and a fresh stats connection cannot itself be
        // accepted while accepts are failing — poll the counter over
        // the connection that predates the pressure.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            existing.send(b"{\"op\":\"stats\"}\n");
            let errors = match existing.read_reply() {
                Some(Response::Stats(stats)) => stats
                    .get("faults")
                    .and_then(|f| f.get("accept_errors"))
                    .and_then(|v| v.as_u64())
                    .expect("stats missing faults.accept_errors"),
                other => panic!("[{}] stats under pressure: {other:?}", setup.name()),
            };
            if errors >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "[{}] faults.accept_errors never moved",
                setup.name()
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        // Existing connections are not starved by the accept storm.
        existing.send(&request_line(&balance_request(cold_seed(), None)));
        match existing.read_reply() {
            Some(Response::Ok(ok)) => assert!(ok.ratio >= 1.0 && ok.ratio <= ok.bound),
            other => panic!(
                "[{}] existing conn under fd pressure: {other:?}",
                setup.name()
            ),
        }

        // fds freed: accepts resume (the backoff is one poll interval,
        // not forever) and fresh clients are served.
        h.shim.clear_accept_failures();
        drop(pressured);
        {
            let mut fresh = RawConn::open(h.addr());
            fresh.send(b"{\"op\":\"ping\"}\n");
            assert!(
                matches!(fresh.read_reply(), Some(Response::Pong)),
                "[{}] post-recovery ping",
                setup.name()
            );
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 18: the `--max-conns` cap. The connection over the cap gets
/// a best-effort `overloaded` error and a close instead of silently
/// consuming an fd; `faults.accept_shed` counts it; and the cap is a
/// gauge, not a ratchet — closing a connection readmits the next one.
#[test]
fn max_conns_cap_sheds_with_overloaded_reply() {
    for_all(|setup| {
        let h = Harness::start_with(setup, |t| t.max_conns = 2);
        let mut a = RawConn::open(h.addr());
        a.send(b"{\"op\":\"ping\"}\n");
        assert!(matches!(a.read_reply(), Some(Response::Pong)));
        let mut b = RawConn::open(h.addr());
        b.send(b"{\"op\":\"ping\"}\n");
        assert!(matches!(b.read_reply(), Some(Response::Pong)));

        // Both slots held: the third connection is shed with a reply
        // that says why, then EOF.
        let mut shed = RawConn::open(h.addr());
        match shed.read_reply() {
            Some(Response::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::Overloaded, "[{}]", setup.name())
            }
            other => panic!("[{}] shed conn got {other:?}", setup.name()),
        }
        assert!(
            shed.read_reply().is_none(),
            "[{}] shed conn must be closed",
            setup.name()
        );

        // Free the slots, then wait until a fresh client is admitted
        // again — the release is asynchronous to our close. (The stats
        // client inside the invariant check needs a free slot too, so
        // this must come first.)
        drop(a);
        drop(b);
        drop(shed);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut fresh = RawConn::open(h.addr());
            fresh.send(b"{\"op\":\"ping\"}\n");
            if matches!(fresh.read_reply(), Some(Response::Pong)) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "[{}] cap never released a slot",
                setup.name()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        h.await_fault_counter("accept_shed", 1);
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 19 (binary codec): one full fault-matrix shape (`epoll`,
/// single backend) exercised end-to-end over the binary codec — control
/// frames, a cold compute, a cached hit served from the encoded-reply
/// cache, per-frame codec switching on one connection, a corrupt length
/// prefix that must resync rather than allocate, and a torn binary tail.
/// The closing invariant check runs over JSON, proving both codecs share
/// the port.
#[test]
fn binary_codec_shape_end_to_end() {
    let h = Harness::start(Setup::EPOLL);
    let mut client = Client::connect(h.addr()).expect("connect");
    client.set_codec(WireCodec::Binary);
    assert!(matches!(
        client.call(&Request::Ping).expect("binary ping"),
        Response::Pong
    ));
    let seed = cold_seed();
    // Cold: crosses a worker; hot: answered from the encoded-reply cache.
    for expect_cached in [false, true] {
        match client
            .call(&balance_request(seed, None))
            .expect("binary balance")
        {
            Response::Ok(ok) => {
                assert_eq!(ok.cached, expect_cached, "cache state on binary path");
                assert_eq!(ok.id, Some(seed), "id echoed through the hit splice");
                assert!(ok.ratio >= 1.0 && ok.ratio <= ok.bound);
            }
            other => panic!("binary balance got {other:?}"),
        }
    }
    // The server sniffs each frame's first byte, so one connection may
    // switch codec per frame.
    client.set_codec(WireCodec::Json);
    match client
        .call(&balance_request(seed, None))
        .expect("json frame on the same connection")
    {
        Response::Ok(ok) => assert!(ok.cached),
        other => panic!("json reply {other:?}"),
    }
    client.set_codec(WireCodec::Binary);
    assert!(matches!(
        client.call(&Request::Stats).expect("binary stats"),
        Response::Stats(_)
    ));

    // Corrupt declared length: a binary error reply, then a bounded
    // resync — the same connection keeps answering.
    {
        let mut conn = RawConn::open(h.addr());
        let mut burst = vec![MAGIC];
        burst.extend_from_slice(&u32::MAX.to_le_bytes());
        burst.push(b'\n'); // resync boundary
        WireCodec::Binary.encode_request(&Request::Ping, &mut burst);
        conn.send(&burst);
        match conn.read_binary_reply() {
            Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("corrupt-length reply: {other:?}"),
        }
        match conn.read_binary_reply() {
            Some(Response::Pong) => {}
            other => panic!("post-resync binary ping: {other:?}"),
        }
    }
    h.await_fault_counter("torn_frame", 1);

    // A binary header cut short by a close is a torn frame, same as a
    // newline that never arrives.
    {
        let mut conn = RawConn::open(h.addr());
        conn.send(&[MAGIC, 0x10, 0x00]);
    }
    h.await_fault_counter("torn_frame", 2);
    h.assert_never_wedged();
    h.shutdown();
}

/// Scenario 21: one connection pipelines a full window of misses while
/// the workers are stalled. Every frame is deferred at once — the
/// connection keeps reading past an outstanding frame — and the replies
/// come back in request order once the workers move.
#[test]
fn one_connection_keeps_a_window_of_deferred_frames() {
    for_all(|setup| {
        let h = Harness::start(setup);
        h.shim.stall_workers(Duration::from_millis(1500));
        let mut conn = RawConn::open(h.addr());
        let seeds: Vec<u64> = (0..WINDOW).map(|_| cold_seed()).collect();
        let burst: Vec<u8> = seeds
            .iter()
            .flat_map(|&seed| request_line(&balance_request(seed, None)))
            .collect();
        conn.send(&burst);
        let seen = h.await_inflight(WINDOW as u64);
        assert_eq!(
            seen,
            WINDOW as u64,
            "[{}] deferred frames in flight on one connection",
            setup.name()
        );
        h.shim.clear_stall();
        for &seed in &seeds {
            match conn.read_reply() {
                Some(Response::Ok(ok)) => assert_eq!(ok.id, Some(seed), "[{}]", setup.name()),
                other => panic!("[{}] reply for {seed}: {other:?}", setup.name()),
            }
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 22: a client pipelines `WINDOW + 4` frames and never reads.
/// The loop stops reading at the window, so the frames past it stay in
/// the socket; the replies cannot be written, the write stall closes
/// the connection, and every deferred frame and queue slot drains.
#[test]
fn pipelining_past_the_window_stops_reading_until_the_write_stall_closes() {
    for_all(|setup| {
        let h = Harness::start_with(setup, |t| {
            t.write_stall = Duration::from_millis(300);
        });
        h.shim.stall_workers(Duration::from_millis(1000));
        // Connection 0 never gets a byte out.
        h.shim
            .plan_writes(0, [WriteOp::BlockFor(Duration::from_secs(60))]);
        let mut conn = RawConn::open(h.addr());
        let burst: Vec<u8> = (0..WINDOW + 4)
            .flat_map(|_| request_line(&balance_request(cold_seed(), None)))
            .collect();
        conn.send(&burst);
        assert_eq!(
            h.await_inflight(WINDOW as u64),
            WINDOW as u64,
            "[{}]",
            setup.name()
        );
        // Still the window a beat later: the reader stopped there.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(h.inflight(), WINDOW as u64, "[{}]", setup.name());
        h.shim.clear_stall();
        h.await_fault_counter("conn_reset", 1);
        // The client sees the close (a reset: its frames went unread).
        let mut buf = [0u8; 64];
        if let Ok(n) = conn.reader.read(&mut buf) {
            assert_eq!(
                n,
                0,
                "[{}] bytes got through a blocked socket",
                setup.name()
            );
        }
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 23: the worker stalls on frame 2 of 3 past the reply
/// timeout. Frame 2 alone answers `internal`; frames 1 and 3 get their
/// answers, and all three come back in request order without waiting
/// for the stalled worker.
#[test]
fn a_stalled_frame_times_out_alone_and_its_neighbours_answer_in_order() {
    for_all(|setup| {
        let h = Harness::start_with(setup, |t| {
            t.reply_timeout = Duration::from_millis(300);
        });
        let stall = Duration::from_millis(1500);
        h.shim.stall_nth_job(0, 1, stall);
        let mut conn = RawConn::open(h.addr());
        let seeds = [cold_seed(), cold_seed(), cold_seed()];
        let started = Instant::now();
        for &seed in &seeds {
            conn.send(&request_line(&balance_request(seed, None)));
            // Spaced, so the workers start the jobs in frame order.
            std::thread::sleep(Duration::from_millis(50));
        }
        for (i, &seed) in seeds.iter().enumerate() {
            match (i, conn.read_reply()) {
                (1, Some(Response::Error { id, code, .. })) => {
                    assert_eq!(
                        (id, code),
                        (Some(seed), ErrorCode::Internal),
                        "[{}]",
                        setup.name()
                    )
                }
                (0 | 2, Some(Response::Ok(ok))) => {
                    assert_eq!(ok.id, Some(seed), "[{}]", setup.name())
                }
                (_, other) => panic!("[{}] reply {i}: {other:?}", setup.name()),
            }
        }
        assert!(
            started.elapsed() < stall,
            "[{}] frame 3 waited {:?} for the stalled worker",
            setup.name(),
            started.elapsed()
        );
        h.await_fault_counter("reply_dropped", 1);
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Scenario 24: a read error drops a connection whose miss is stalled
/// at a worker. The socket closes at once — the client sees EOF before
/// the stall ends, and never a reply — the reset is counted, and the
/// worker's answer is dropped and counted as `reply_dropped`.
#[test]
fn a_dropped_connection_closes_at_once() {
    for_all(|setup| {
        let h = Harness::start(setup);
        let stall = Duration::from_millis(1500);
        h.shim.stall_nth_job(0, 0, stall);
        let started = Instant::now();
        let mut conn = RawConn::open(h.addr());
        conn.send(&request_line(&balance_request(cold_seed(), None)));
        assert_eq!(h.await_inflight(1), 1, "[{}]", setup.name());
        // The connection's next read fails; closing our write half makes
        // it readable.
        h.shim.plan_reads(0, [ReadOp::Error]);
        conn.close_write();
        let mut rest = Vec::new();
        conn.reader
            .read_to_end(&mut rest)
            .unwrap_or_else(|e| panic!("[{}] no EOF: {e}", setup.name()));
        assert!(
            started.elapsed() < stall,
            "[{}] the close waited {:?} for the stalled worker",
            setup.name(),
            started.elapsed()
        );
        assert!(
            rest.is_empty(),
            "[{}] a dropped connection got {:?}",
            setup.name(),
            String::from_utf8_lossy(&rest)
        );
        h.await_fault_counter("reply_dropped", 1);
        assert_eq!(h.fault_counter("conn_reset"), 1, "[{}]", setup.name());
        assert_eq!(h.fault_counter("reply_dropped"), 1, "[{}]", setup.name());
        h.assert_never_wedged();
        h.shutdown();
    });
}

/// Defers every frame and hands its [`Reply`] to the test.
struct HandOver(std::sync::Mutex<mpsc::Sender<Reply>>);

impl Handler for HandOver {
    type Local = ();

    fn handle(&self, _: &mut (), _: Request, _: &[u8], out: &mut Dispatch<'_>) {
        let reply = out.defer(None);
        self.0.lock().unwrap().send(reply).unwrap();
    }

    fn loop_error(&self, _: ErrorCode) {}
}

/// Scenario 25: one poller; a connection dies with a frame deferred, and
/// a new connection takes its slot before the old reply is sent. The
/// new connection gets only its own reply, and the stale one is dropped
/// and counted as `reply_dropped`.
#[test]
fn a_late_reply_never_reaches_a_reused_slot() {
    for_all(|setup| {
        let shim = ScriptedShim::new();
        if setup.sweep_fallback {
            shim.fail_readiness(EMFILE);
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (io, pollers) = IoLoop::new(
            listener,
            LoopConfig {
                pollers: 1,
                poll_interval: Duration::from_millis(100),
                write_stall: Duration::from_secs(5),
                reply_timeout: Duration::from_secs(60),
                max_conns: 0,
                shim: Arc::new(shim.clone()),
            },
        )
        .expect("loop");
        assert_eq!(io.engine(), setup.engine(), "[{}]", setup.name());
        let (tx, rx) = mpsc::channel();
        let threads = pollers
            .spawn(Arc::new(HandOver(std::sync::Mutex::new(tx))), "reuse")
            .expect("spawn");
        let ping = b"{\"op\":\"ping\"}\n";
        let wait = Duration::from_secs(10);

        // Connection 0 defers a frame, then dies on a read error.
        let mut old = RawConn::open(io.local_addr());
        old.send(ping);
        let stale = rx.recv_timeout(wait).expect("old frame deferred");
        shim.plan_reads(0, [ReadOp::Error]);
        old.close_write();
        let mut rest = Vec::new();
        old.reader
            .read_to_end(&mut rest)
            .expect("old connection EOF");
        assert!(rest.is_empty(), "[{}]", setup.name());
        assert!(stale.peer_gone(), "[{}]", setup.name());

        // Connection 1 takes the freed slot and defers a frame too.
        let mut new = RawConn::open(io.local_addr());
        new.send(ping);
        let fresh = rx.recv_timeout(wait).expect("new frame deferred");
        stale.send(
            WireCodec::Json,
            &Response::Error {
                id: Some(0),
                code: ErrorCode::Internal,
                message: "stale".into(),
            },
        );
        fresh.send(WireCodec::Json, &Response::Pong);
        match new.read_reply() {
            Some(Response::Pong) => {}
            other => panic!("[{}] new connection got {other:?}", setup.name()),
        }
        new.close_write();
        let mut rest = Vec::new();
        new.reader
            .read_to_end(&mut rest)
            .expect("new connection EOF");
        assert!(
            rest.is_empty(),
            "[{}] new connection got {:?}",
            setup.name(),
            String::from_utf8_lossy(&rest)
        );
        let dropped = io
            .counters()
            .faults_json()
            .get("reply_dropped")
            .and_then(|v| v.as_u64());
        assert_eq!(dropped, Some(1), "[{}]", setup.name());

        io.trigger_shutdown();
        for t in threads {
            t.join().expect("poller exits");
        }
    });
}

// ---------------------------------------------------------------------------
// Router-tier scenarios. These run real `gb-serve` child processes behind
// an in-process `gb-router` and hold the router to the same never-wedge
// contract as the in-process matrix above: hostile client bytes get
// `gb-serve`'s typed replies, a SIGKILLed backend costs bounded
// client-visible losses, its vnodes re-home onto the survivor within the
// health-check interval, and the exact pre-death mapping returns when
// the backend comes back on the same port. The router runs `gb-serve`'s
// connection loop, so every scenario runs on both of its readiness
// backends: epoll, and the sweep fallback forced by scripting readiness
// setup to fail in the router's shim.
// ---------------------------------------------------------------------------

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;

use gb_router::{RouterConfig, RouterServer};
use gb_service::cache::CacheKey;
use gb_service::route::Router;

const ROUTER_VNODES: usize = 32;

/// The routing key `gb-router` derives for [`balance_request`]`(seed, _)`.
fn router_key(seed: u64) -> u64 {
    let spec = ProblemSpec::Synthetic {
        weight: 1.0,
        lo: 0.25,
        hi: 0.5,
        seed,
    };
    CacheKey::new(spec.fingerprint(), Algorithm::Hf, 16, 1.0).mix()
}

/// Cold seeds >= `base` whose keys the full two-upstream ring pins to
/// `owner` — a hot class aimed entirely at one backend.
fn seeds_pinned_to(owner: u32, base: u64, count: usize) -> Vec<u64> {
    let ring = Router::new(2, ROUTER_VNODES);
    (base..)
        .filter(|&s| ring.route(router_key(s)) == owner)
        .take(count)
        .collect()
}

/// Locates the `gb-serve` binary as a sibling of this test binary
/// (`target/<profile>/gb-serve`), building it on demand if a bare
/// `cargo test --test service_faults` got here before the bins.
fn gb_serve_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binary lives under a target dir");
    let bin = dir.join(format!("gb-serve{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut args = vec!["build", "-p", "gb-service", "--bin", "gb-serve"];
        if !cfg!(debug_assertions) {
            args.push("--release");
        }
        let status = Command::new(cargo)
            .args(&args)
            .status()
            .expect("run cargo build for gb-serve");
        assert!(status.success(), "building gb-serve failed");
    }
    assert!(bin.exists(), "gb-serve missing at {}", bin.display());
    bin
}

/// A real `gb-serve` child process; SIGKILLed on drop.
struct ServeChild {
    child: Child,
    addr: SocketAddr,
    // Keeps the stdout pipe readable so the child's shutdown println can
    // never hit a closed fd.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ServeChild {
    fn spawn(addr: &str, extra: &[&str]) -> ServeChild {
        let mut child = Command::new(gb_serve_binary())
            .args(["--addr", addr, "--workers", "2"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gb-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read gb-serve banner");
        // "gb-serve listening on HOST:PORT (<engine> engine)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unexpected gb-serve banner {line:?}"));
        ServeChild {
            child,
            addr,
            _stdout: stdout,
        }
    }

    /// SIGKILL — no drain, no goodbye; the hard-crash case.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// An in-process router over `upstreams` on the readiness backend
/// `setup` asks for; asserts `stats.router.engine` names it.
fn router_over(
    setup: Setup,
    upstreams: Vec<SocketAddr>,
    tweak: impl FnOnce(&mut RouterConfig),
) -> RouterServer {
    let shim = ScriptedShim::new();
    if setup.sweep_fallback {
        shim.fail_readiness(EMFILE);
    }
    let mut config = RouterConfig {
        upstreams,
        vnodes: ROUTER_VNODES,
        health_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        fail_threshold: 2,
        reply_timeout: Duration::from_secs(3),
        poll_interval: Duration::from_millis(20),
        forward_shutdown: false,
        shim: Arc::new(shim),
        ..RouterConfig::default()
    };
    tweak(&mut config);
    let router = RouterServer::start(config).expect("router start");
    let engine = router
        .stats_json()
        .get("router")
        .and_then(|r| r.get("engine"))
        .and_then(|e| e.as_str())
        .map(str::to_owned);
    assert_eq!(
        engine.as_deref(),
        Some(setup.engine()),
        "[{}]",
        setup.name()
    );
    router
}

fn stat(stats: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |j, key| j.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("stats missing {}", path.join(".")))
}

/// The router's never-wedge invariant: nothing left in flight at the
/// loop or at any upstream, and a fresh client still gets a correct
/// balance reply.
fn assert_router_never_wedged(setup: Setup, router: &RouterServer) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = router.stats_json();
        let loop_inflight = stat(&stats, &["connections", "inflight"]);
        let upstream_inflight: u64 = match stats.get("upstreams") {
            Some(Json::Arr(list)) => list
                .iter()
                .map(|u| u.get("inflight").and_then(|v| v.as_u64()).unwrap_or(0))
                .sum(),
            _ => u64::MAX,
        };
        if loop_inflight == 0 && upstream_inflight == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "[{}] router gauges never drained: loop {loop_inflight}, upstreams {upstream_inflight}",
            setup.name()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut client = Client::connect(router.local_addr()).expect("fresh client connect");
    match client.call(&balance_request(cold_seed(), None)) {
        Ok(Response::Ok(ok)) => assert!(ok.ratio >= 1.0 && ok.ratio <= ok.bound),
        other => panic!("[{}] fresh client got {other:?}", setup.name()),
    }
}

fn await_router_alive(router: &RouterServer, want: &[u32], budget: Duration) {
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

/// Scenario 15: SIGKILL a backend in the middle of a pinned hot-class
/// flood through the router. Client-visible losses stay bounded by the
/// flood's concurrency (in-request failover retries everything that
/// fails cleanly), the victim's vnodes re-home to the survivor within
/// the health-check interval, the router's gauges drain, and reviving
/// the victim on the same port re-homes its keys back.
#[test]
fn router_kill_mid_flood_rehomes_and_never_wedges() {
    for_all(|setup| {
        const FLOOD_THREADS: usize = 3;
        let survivor = ServeChild::spawn("127.0.0.1:0", &[]);
        let mut victim = ServeChild::spawn("127.0.0.1:0", &[]);
        let victim_addr = victim.addr;
        let router = router_over(setup, vec![survivor.addr, victim.addr], |_| {});
        let router_addr = router.local_addr();

        // The victim is upstream id 1; pin the whole flood onto it.
        let stop = Arc::new(AtomicBool::new(false));
        let oks = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let mut floods = Vec::new();
        for t in 0..FLOOD_THREADS {
            let seeds = seeds_pinned_to(1, 5_000_000 + t as u64 * 100_000, 2_000);
            let (stop, oks, errors) = (stop.clone(), oks.clone(), errors.clone());
            floods.push(std::thread::spawn(move || {
                let mut client = Client::connect(router_addr).expect("flood connect");
                for seed in seeds {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match client.call(&balance_request(seed, None)) {
                        Ok(Response::Ok(_)) => {
                            oks.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) | Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            // The connection may have died with the request;
                            // reconnect and keep flooding.
                            if let Ok(fresh) = Client::connect(router_addr) {
                                client = fresh;
                            }
                        }
                    }
                }
            }));
        }

        std::thread::sleep(Duration::from_millis(200));
        assert!(oks.load(Ordering::Relaxed) > 0, "flood never got going");
        victim.kill();
        std::thread::sleep(Duration::from_millis(600));
        stop.store(true, Ordering::Relaxed);
        for flood in floods {
            flood.join().expect("flood thread");
        }

        let (ok_count, err_count) = (oks.load(Ordering::Relaxed), errors.load(Ordering::Relaxed));
        // In-request failover retries every cleanly-failed attempt on the
        // survivor, so only requests racing the SIGKILL itself may surface —
        // a bound on the flood's concurrency, not its volume.
        assert!(
            err_count <= 2 * FLOOD_THREADS as u64,
            "lost {err_count} requests (completed {ok_count}); losses must be bounded by in-flight"
        );
        assert!(
            ok_count >= 50,
            "only {ok_count} requests completed across the kill"
        );

        await_router_alive(&router, &[0], Duration::from_secs(5));
        let (failovers, _) = router.failover_counters();
        assert!(failovers >= 1, "prober never declared the victim dead");

        // Post-failover: the victim's whole key class answers from the
        // survivor.
        let mut client = Client::connect(router_addr).expect("post-failover connect");
        for seed in seeds_pinned_to(1, 9_000_000, 12) {
            match client
                .call(&balance_request(seed, None))
                .expect("post-failover call")
            {
                Response::Ok(ok) => assert!(ok.ratio >= 1.0 && ok.ratio <= ok.bound),
                other => panic!("post-failover got {other:?}"),
            }
        }

        // Never-wedge: the router's own in-flight gauges drain and the
        // rollup reflects exactly one alive upstream.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = router.stats_json();
            let alive = stats
                .get("router")
                .and_then(|r| r.get("alive"))
                .and_then(|v| v.as_u64());
            let inflight: u64 = match stats.get("upstreams") {
                Some(Json::Arr(list)) => list
                    .iter()
                    .map(|u| u.get("inflight").and_then(|v| v.as_u64()).unwrap_or(0))
                    .sum(),
                _ => u64::MAX,
            };
            if alive == Some(1) && inflight == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "router gauges never drained: alive {alive:?}, inflight {inflight}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        // Revive the victim on the exact same port: the prober re-homes its
        // vnodes back and its key class keeps answering.
        let revived = ServeChild::spawn(&victim_addr.to_string(), &[]);
        await_router_alive(&router, &[0, 1], Duration::from_secs(5));
        let (_, recoveries) = router.failover_counters();
        assert!(recoveries >= 1, "revival never counted as a recovery");
        for seed in seeds_pinned_to(1, 9_500_000, 8) {
            match client
                .call(&balance_request(seed, None))
                .expect("post-recovery call")
            {
                Response::Ok(_) => {}
                other => panic!("post-recovery got {other:?}"),
            }
        }

        router.shutdown();
        drop(revived);
        drop(survivor);
    });
}

/// Scenario 16: the SIGKILL lands while a request is mid-flight on a
/// deliberately slow backend. The router sees the connection die,
/// retries on the survivor inside the same request, and the client gets
/// its answer — zero visible loss even for the in-flight case.
#[test]
fn router_answers_the_request_in_flight_at_the_kill() {
    for_all(|setup| {
        let survivor = ServeChild::spawn("127.0.0.1:0", &[]);
        let mut victim = ServeChild::spawn("127.0.0.1:0", &["--stall-ms", "400"]);
        let router = router_over(setup, vec![survivor.addr, victim.addr], |c| {
            c.reply_timeout = Duration::from_secs(5);
            c.fail_threshold = 3;
        });
        let router_addr = router.local_addr();

        // One victim-owned request; the 400 ms worker stall guarantees it is
        // still in flight when the SIGKILL lands ~100 ms in.
        let seed = seeds_pinned_to(1, 6_000_000, 1)[0];
        let call = std::thread::spawn(move || {
            let mut client = Client::connect(router_addr).expect("connect");
            let started = Instant::now();
            (client.call(&balance_request(seed, None)), started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(100));
        victim.kill();
        let (reply, elapsed) = call.join().expect("call thread");
        match reply.expect("the in-flight call must not error") {
            Response::Ok(ok) => assert!(ok.ratio >= 1.0 && ok.ratio <= ok.bound),
            other => panic!("in-flight request got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(3),
            "answered by in-request retry, not by timeout ({elapsed:?})"
        );
        router.shutdown();
    });
}

/// Scenario 17: hostile client bytes against the router — a torn frame,
/// an oversized line, garbage between valid frames, and abrupt closes
/// mid-frame and mid-request. The router frames with `gb-serve`'s loop,
/// so it answers exactly as `gb-serve` does: a typed `bad_request` for
/// every malformed frame (a torn frame included, before the close), the
/// stream resyncs, and the fault counters move.
#[test]
fn router_rejects_hostile_bytes_and_never_wedges() {
    for_all(|setup| {
        let upstream = ServeChild::spawn("127.0.0.1:0", &[]);
        let router = router_over(setup, vec![upstream.addr], |_| {});
        let name = setup.name();

        // Torn frame: the pipelined ping is answered, the torn tail gets
        // a bad_request, then the router closes.
        let mut conn = RawConn::open(router.local_addr());
        conn.send(b"{\"op\":\"ping\"}\n{\"op\":\"bal");
        conn.close_write();
        match conn.read_reply() {
            Some(Response::Pong) => {}
            other => panic!("[{name}] expected pong, got {other:?}"),
        }
        match conn.read_reply() {
            Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("[{name}] expected a torn-frame error, got {other:?}"),
        }
        assert!(conn.read_reply().is_none(), "[{name}] router must close");

        // Oversized line, then garbage around a valid balance frame: all
        // answered in order on one connection.
        let mut conn = RawConn::open(router.local_addr());
        let mut burst = vec![b'x'; MAX_FRAME + 100];
        burst.extend_from_slice(b"\n!!! not json !!!\n");
        burst.extend_from_slice(&request_line(&balance_request(cold_seed(), None)));
        burst.extend_from_slice(b"{\"op\":\"nope\"}\n{\"op\":\"ping\"}\n");
        conn.send(&burst);
        for reply in 0..5 {
            match (reply, conn.read_reply()) {
                (0 | 1 | 3, Some(Response::Error { code, .. })) => {
                    assert_eq!(code, ErrorCode::BadRequest, "[{name}] reply {reply}")
                }
                (2, Some(Response::Ok(_))) | (4, Some(Response::Pong)) => {}
                (_, other) => panic!("[{name}] reply {reply}: {other:?}"),
            }
        }

        // Abrupt closes: half a frame, and a whole request whose reply
        // nobody will read.
        {
            let mut conn = RawConn::open(router.local_addr());
            let line = request_line(&balance_request(cold_seed(), None));
            conn.send(&line[..line.len() / 2]);
        }
        {
            let mut conn = RawConn::open(router.local_addr());
            conn.send(&request_line(&balance_request(cold_seed(), None)));
        }

        let deadline = Instant::now() + Duration::from_secs(10);
        while stat(&router.stats_json(), &["faults", "torn_frame"]) < 2 {
            assert!(
                Instant::now() < deadline,
                "[{name}] torn frames never counted"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = router.stats_json();
        assert!(
            stat(&stats, &["router", "bad_frames"]) >= 4,
            "[{name}] {stats:?}"
        );
        assert_router_never_wedged(setup, &router);
        router.shutdown();
    });
}

/// Environment flag marking the child process that runs the thread-bound
/// measurement on its own.
const THREAD_BOUND_CHILD: &str = "GB_ROUTER_THREAD_BOUND_CHILD";

/// This process's thread count, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

/// This process's router threads by name, from
/// `/proc/self/task/*/comm`, sorted.
#[cfg(target_os = "linux")]
fn router_thread_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with("gb-router"))
        .collect();
    names.sort();
    names
}

/// Scenario 18: a hedge storm costs no threads. 1,000 hedged requests
/// from four client connections go through an in-process router whose
/// primary upstream stalls every job and whose hedge target is clean.
/// Every request hedges and the hedge wins, yet the process never runs
/// more threads than it had after start-up plus the four client threads:
/// the router spawns threads only when it starts, and they are exactly
/// its loop poller and its health prober — no proxy workers.
#[cfg(target_os = "linux")]
#[test]
fn router_thread_count_stays_flat_across_a_hedge_storm() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 1_000;
    // The count is per process and the harness runs tests on parallel
    // threads, so the measurement runs in a child running only this test.
    // The child's output is captured, not inherited: its harness lines
    // would otherwise splice into the parent's report of other tests.
    if std::env::var_os(THREAD_BOUND_CHILD).is_none() {
        let child = Command::new(std::env::current_exe().expect("current_exe"))
            .args([
                "--exact",
                "router_thread_count_stays_flat_across_a_hedge_storm",
                "--test-threads",
                "1",
                "--nocapture",
            ])
            .env(THREAD_BOUND_CHILD, "1")
            .output()
            .expect("run the thread-bound child");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr),
        );
        eprint!("{stderr}");
        assert!(
            child.status.success(),
            "thread-bound child failed\n--- stdout\n{stdout}--- stderr\n{stderr}"
        );
        return;
    }

    // The primary never answers within a request: every job stalls 1 s,
    // and its queue is deep enough never to shed.
    let primary = ServeChild::spawn(
        "127.0.0.1:0",
        &["--stall-ms", "1000", "--queue-cap", "4096"],
    );
    let clean = ServeChild::spawn("127.0.0.1:0", &[]);
    let router = router_over(Setup::EPOLL, vec![primary.addr, clean.addr], |c| {
        c.hedge_delay = Some(Duration::from_millis(2));
        c.reply_timeout = Duration::from_secs(10);
        // Slow is not dead: keep hedging against the stalled primary.
        c.fail_threshold = u32::MAX;
    });
    let router_addr = router.local_addr();
    let baseline = process_threads();
    // The kernel keeps 15 bytes of a thread name. A new thread names
    // itself once it first runs, so give the start-up threads a moment.
    let expected: Vec<String> = ["gb-router-health", "gb-router-io-0"]
        .iter()
        .map(|name| name[..name.len().min(15)].to_string())
        .collect();
    let named_by = Instant::now() + Duration::from_secs(5);
    while router_thread_names() != expected && Instant::now() < named_by {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        router_thread_names(),
        expected,
        "router threads after start-up"
    );

    let seeds = seeds_pinned_to(0, 20_000_000, REQUESTS);
    let done = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = seeds
        .chunks(REQUESTS / CLIENTS)
        .map(|chunk| {
            let (chunk, done) = (chunk.to_vec(), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut client = Client::connect(router_addr).expect("client connect");
                for seed in chunk {
                    match client.call(&balance_request(seed, None)) {
                        Ok(Response::Ok(_)) => {}
                        other => panic!("hedged request {seed} got {other:?}"),
                    }
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    let mut peak = 0;
    while done.load(Ordering::Relaxed) < CLIENTS as u64 {
        peak = peak.max(process_threads());
        std::thread::sleep(Duration::from_millis(1));
    }
    for client in clients {
        client.join().expect("client thread");
    }

    let (sent, won) = router.hedge_counters();
    eprintln!(
        "hedge storm: {sent} hedges, {won} won; {baseline} threads after start-up, peak {peak}"
    );
    assert!(
        sent >= REQUESTS as u64,
        "only {sent} of {REQUESTS} requests hedged"
    );
    assert!(
        won >= REQUESTS as u64,
        "the clean hedge won only {won} races"
    );
    assert!(
        peak <= baseline + CLIENTS,
        "thread count peaked at {peak}, above {baseline} after start-up + {CLIENTS} clients"
    );
    assert_eq!(
        router_thread_names(),
        expected,
        "router threads after the storm"
    );
    router.shutdown();
}

/// Scenario 19: the relay's connection cap holds under a client herd.
/// 64 client connections each send one request through a router that
/// may keep at most 4 connections per upstream; the primary upstream
/// stalls every job, so the requests pile up behind the cap. Sampled
/// throughout, no upstream ever has more than 4 open connections, the
/// excess waits in the relay's FIFO, and every request is answered.
#[test]
fn router_relay_caps_upstream_connections_under_a_client_herd() {
    for_all(|setup| {
        const CLIENTS: usize = 64;
        const CAP: u64 = 4;
        let name = setup.name();
        let primary =
            ServeChild::spawn("127.0.0.1:0", &["--stall-ms", "20", "--queue-cap", "4096"]);
        let clean = ServeChild::spawn("127.0.0.1:0", &[]);
        let router = router_over(setup, vec![primary.addr, clean.addr], |c| {
            c.max_pool_idle = CAP as usize;
            c.reply_timeout = Duration::from_secs(20);
            // Slow is not dead: every request stays on the primary.
            c.fail_threshold = u32::MAX;
        });
        let router_addr = router.local_addr();

        let answered = Arc::new(AtomicU64::new(0));
        let clients: Vec<_> = seeds_pinned_to(0, 30_000_000, CLIENTS)
            .into_iter()
            .map(|seed| {
                let answered = Arc::clone(&answered);
                std::thread::spawn(move || {
                    let mut client = Client::connect(router_addr).expect("client connect");
                    match client.call(&balance_request(seed, None)) {
                        Ok(Response::Ok(_)) => {
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("request {seed} got {other:?}"),
                    }
                })
            })
            .collect();
        let (mut peak_open, mut peak_waiting) = (0, 0);
        let deadline = Instant::now() + Duration::from_secs(30);
        while clients.iter().any(|c| !c.is_finished()) {
            assert!(
                Instant::now() < deadline,
                "[{name}] the herd never finished"
            );
            let stats = router.stats_json();
            let Some(Json::Arr(upstreams)) = stats.get("upstreams") else {
                panic!("[{name}] stats without upstreams: {stats:?}");
            };
            for up in upstreams {
                let open = stat(up, &["open"]);
                assert!(open <= CAP, "[{name}] {open} connections open to {up:?}");
                assert!(stat(up, &["busy"]) <= open, "[{name}] {up:?}");
                peak_open = peak_open.max(open);
            }
            peak_waiting = peak_waiting.max(stat(&stats, &["router", "relay_waiting"]));
            std::thread::sleep(Duration::from_millis(2));
        }
        for client in clients {
            client.join().expect("client thread");
        }
        assert_eq!(
            answered.load(Ordering::Relaxed),
            CLIENTS as u64,
            "[{name}] every request must be answered"
        );
        assert_eq!(peak_open, CAP, "[{name}] the cap was never reached");
        assert!(
            peak_waiting > 0,
            "[{name}] no request ever waited for a connection"
        );
        assert_router_never_wedged(setup, &router);
        router.shutdown();
    });
}

/// Scenario 20: requests queued behind the connection cap fail over
/// when their upstream dies. With one connection allowed per upstream,
/// one request is on the wire to a slow backend and three wait in the
/// relay's FIFO when the backend is SIGKILLed. The closed connection
/// hands its place to the next waiter, whose dial is refused, so every
/// queued request fails over to the survivor at once rather than at its
/// reply timeout.
#[test]
fn router_requests_queued_behind_the_cap_fail_over_when_the_upstream_dies() {
    for_all(|setup| {
        const CLIENTS: usize = 4;
        let name = setup.name();
        let survivor = ServeChild::spawn("127.0.0.1:0", &[]);
        let mut victim = ServeChild::spawn("127.0.0.1:0", &["--stall-ms", "300"]);
        let router = router_over(setup, vec![survivor.addr, victim.addr], |c| {
            c.max_pool_idle = 1;
            c.reply_timeout = Duration::from_secs(10);
            // Only in-request failover may rescue the queued requests.
            c.fail_threshold = u32::MAX;
        });
        let router_addr = router.local_addr();
        let clients: Vec<_> = seeds_pinned_to(1, 40_000_000, CLIENTS)
            .into_iter()
            .map(|seed| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(router_addr).expect("client connect");
                    let started = Instant::now();
                    (client.call(&balance_request(seed, None)), started.elapsed())
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while stat(&router.stats_json(), &["router", "relay_waiting"]) < CLIENTS as u64 - 1 {
            assert!(Instant::now() < deadline, "[{name}] requests never queued");
            std::thread::sleep(Duration::from_millis(2));
        }
        victim.kill();
        for client in clients {
            let (reply, elapsed) = client.join().expect("client thread");
            match reply {
                Ok(Response::Ok(ok)) => assert!(ok.ratio <= ok.bound, "[{name}]"),
                other => panic!("[{name}] queued request got {other:?}"),
            }
            assert!(
                elapsed < Duration::from_secs(3),
                "[{name}] answered after {elapsed:?}, not by prompt failover"
            );
        }
        assert_router_never_wedged(setup, &router);
        router.shutdown();
    });
}
