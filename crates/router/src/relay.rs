//! The upstream relay: the router's loop poller carries every frame to
//! its upstream and the reply back on nonblocking sockets, on its own
//! thread.
//!
//! `Relay` is the poller-local state of the router's handler
//! ([`Handler::Local`](gb_service::io_loop::Handler::Local)). It keeps
//! three tables:
//!
//! * **connections** — one `UpstreamConn` per open upstream socket,
//!   registered on the poller under its slot index. A connection carries
//!   one exchange at a time, or sits idle in its upstream's pool. Each
//!   upstream has at most `max_pool_idle` open connections, busy and idle
//!   together.
//! * **legs** — one exchange: a frame written on one connection and the
//!   one reply read back. A leg that finds its upstream at the
//!   connection cap waits in that upstream's FIFO and takes the next
//!   connection to come free.
//! * **jobs** — what a client frame asked for: a balance relay (a
//!   primary leg, at most one hedge leg per attempt, failover across
//!   distinct upstreams), a stats rollup (one fetch leg per alive
//!   upstream, all at once), or the forwarded shutdown (one leg per
//!   alive upstream, no client reply).
//!
//! Every leg has a deadline, a dial has its `connect_timeout`, and a
//! balance job sending its primary arms a hedge instant; the earliest of
//! them is the poller's next timer (`Relay::next_deadline`), so a hedge
//! goes out `hedge_delay` after the primary's send, never rounded up to
//! a poll tick.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gb_service::fault::{IoShim, ShimStream};
use gb_service::io_loop::{Interest, Ready, Reply, Sockets};
use gb_service::proto::{
    binary_reply_id, json_reply_id, Codec, ErrorCode, Framed, Framer, Json, Request, Response,
    WireCodec, BIN_HDR, MAGIC, MAX_REPLY,
};

use crate::server::{stats_rollup, Shared};

/// Shim connection-id base for upstream-side sockets. Client
/// connections use their accept order (`0, 1, 2, ...`) exactly like the
/// server; every connection to upstream `i` uses
/// `UPSTREAM_CONN_BASE + i`, so a scripted shim can fault the
/// router→upstream link without touching client traffic.
pub const UPSTREAM_CONN_BASE: u64 = 1 << 32;

/// Bytes an upstream connection asks the socket for per read.
const REPLY_READ_SIZE: usize = 16 * 1024;

/// Failover attempts (distinct upstreams tried) per request.
const MAX_ATTEMPTS: usize = 4;

/// Floor on the budget of a stats fetch or a forwarded shutdown.
const CONTROL_BUDGET_FLOOR: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------------
// One upstream connection
// ---------------------------------------------------------------------------

/// One nonblocking connection to an upstream. Exchanges on it are
/// strictly one at a time: a request frame written whole, then one reply
/// frame read whole. Frames move as raw bytes — a JSON line with its
/// newline, or a length-prefixed binary frame — so relaying never
/// re-encodes a body.
#[derive(Debug)]
pub(crate) struct UpstreamConn {
    /// One descriptor for both directions: only the poller touches it.
    stream: ShimStream,
    out: Vec<u8>,
    sent: usize,
    connected: bool,
    /// Frames the reply: one that has not fully arrived stays buffered
    /// until a later readiness event completes it.
    reply: Framer,
}

impl UpstreamConn {
    /// Starts a dial to `addr` without waiting for the handshake (off
    /// Linux the dial blocks for at most `timeout`). Every read and write
    /// goes through `shim` under `conn_id`.
    pub(crate) fn dial(
        addr: SocketAddr,
        timeout: Duration,
        shim: &Arc<dyn IoShim>,
        conn_id: u64,
    ) -> io::Result<UpstreamConn> {
        let sock = gb_sys::connect_nonblocking(&addr, timeout)?;
        sock.set_nodelay(true)?;
        Ok(UpstreamConn {
            stream: ShimStream::new(sock, Arc::clone(shim), conn_id),
            out: Vec::new(),
            sent: 0,
            connected: false,
            reply: Framer::new(MAX_REPLY, REPLY_READ_SIZE),
        })
    }

    /// The socket, for readiness registration.
    pub(crate) fn socket(&self) -> &TcpStream {
        self.stream.get_ref()
    }

    /// Queues one complete pre-framed request (newline or length prefix
    /// included); [`flush`](Self::flush) writes it.
    pub(crate) fn send(&mut self, frame: &[u8]) {
        self.out.clear();
        self.out.extend_from_slice(frame);
        self.sent = 0;
    }

    /// Finishes the handshake and writes what the socket accepts:
    /// `Ok(true)` once the whole frame is out, `Ok(false)` while the
    /// connection must wait to turn writable.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        if !self.connected {
            if !gb_sys::connect_result(self.socket())? {
                return Ok(false);
            }
            self.connected = true;
        }
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(k) => self.sent += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Whether the handshake or part of the frame still waits on the
    /// socket turning writable.
    fn wants_write(&self) -> bool {
        !self.connected || self.sent < self.out.len()
    }

    /// Reads what has arrived of the reply: `Ok(Some(frame))` once it is
    /// whole — the bytes exactly as the upstream sent them, framing
    /// included, so it relays verbatim — and `Ok(None)` while bytes are
    /// still due; a partial frame stays buffered for the next call. Any
    /// error (EOF, reset, a corrupt length, an oversized or non-UTF-8
    /// frame, bytes beyond the one reply) leaves the connection out of
    /// frame sync: it must be closed.
    pub(crate) fn read_reply(&mut self) -> io::Result<Option<Vec<u8>>> {
        read_reply(&mut self.reply, &mut self.stream)
    }
}

/// [`UpstreamConn::read_reply`] over any readable stream.
fn read_reply(reply: &mut Framer, stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    loop {
        if let Framed::Frame(codec) = reply.advance()? {
            if codec == WireCodec::Json {
                reply.text()?;
            }
            if reply.buffered() > 0 {
                return Err(invalid("upstream reply overran its frame"));
            }
            return Ok(Some(reply.take_frame()));
        }
        match stream.read(reply.read_buf()) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "upstream closed the connection",
                ))
            }
            Ok(k) => reply.filled(k),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn invalid(message: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Whether an exchange error looks like the upstream closed the
/// connection before (or instead of) answering — exactly what a pooled
/// connection exhibits when the upstream restarted or swept it while it
/// sat idle.
fn is_stale_close(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// A complete error-reply frame in the client's codec.
fn error_frame(codec: WireCodec, id: Option<u64>, code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::new();
    codec.encode_response(
        &Response::Error {
            id,
            code,
            message: message.into(),
        },
        &mut out,
    );
    out
}

/// The `id` field of a framed reply, sniffing the codec from the first
/// byte — the router relays frames verbatim, so correlation must read
/// whichever encoding the upstream answered in.
fn reply_id(reply: &[u8]) -> Option<u64> {
    if reply.first() == Some(&MAGIC) {
        binary_reply_id(reply.get(BIN_HDR..)?)
    } else {
        json_reply_id(std::str::from_utf8(reply).ok()?.trim_end())
    }
}

// ---------------------------------------------------------------------------
// The relay tables
// ---------------------------------------------------------------------------

/// An open connection and what it is doing.
struct Slot {
    conn: UpstreamConn,
    upstream: u32,
    /// The leg it carries; `None` while idle in the pool.
    leg: Option<u64>,
    /// While the handshake is in flight: when it times out.
    connect_by: Option<Instant>,
    /// The interest registered with the poller.
    armed: Interest,
}

/// One upstream's connections, as the relay sees them.
#[derive(Default)]
struct Pool {
    idle: Vec<usize>,
    open: usize,
    /// Legs waiting for a connection, oldest first.
    waiting: VecDeque<u64>,
    /// The upstream's death count when the idle list was last checked:
    /// connections pooled before a death are flushed.
    deaths: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Primary,
    Hedge,
    Fetch,
    Forward,
}

impl Role {
    /// Balance legs count as upstream requests, in-flight and latency;
    /// the router's own control exchanges do not.
    fn balance(self) -> bool {
        matches!(self, Role::Primary | Role::Hedge)
    }
}

/// One exchange with one upstream.
struct Leg {
    job: u64,
    upstream: u32,
    role: Role,
    /// The connection carrying it; `None` while it waits in the FIFO (or
    /// between a closed connection and its replacement dial).
    slot: Option<usize>,
    /// The connection came from the idle pool: a stale close earns one
    /// fresh dial instead of a charged failure.
    reused: bool,
    started: Instant,
    deadline: Instant,
}

/// What a client frame asked the relay for.
struct Job {
    /// The frame every leg sends.
    frame: Vec<u8>,
    reply: Option<Reply>,
    codec: WireCodec,
    /// Legs still running.
    legs: Vec<u64>,
    kind: JobKind,
}

enum JobKind {
    Balance(Balance),
    /// Each upstream's own stats, filled in as the fetches answer.
    Stats(Vec<Option<Json>>),
    Forward,
}

struct Balance {
    key: u64,
    id: Option<u64>,
    vnode: usize,
    started: Instant,
    deadline: Instant,
    /// Upstreams tried as primaries, in order.
    tried: Vec<u32>,
    /// When the current primary gets its hedge.
    hedge_at: Option<Instant>,
    last_err: Option<io::Error>,
}

/// The borrowed context every relay step needs.
pub(crate) struct Cx<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) sockets: Sockets<'a>,
}

/// The router's poller-local relay state.
#[derive(Default)]
pub(crate) struct Relay {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    pools: Vec<Pool>,
    legs: HashMap<u64, Leg>,
    jobs: HashMap<u64, Job>,
    next_id: u64,
}

impl Relay {
    fn new_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn pool(&mut self, upstream: u32) -> &mut Pool {
        let i = upstream as usize;
        if self.pools.len() <= i {
            self.pools.resize_with(i + 1, Pool::default);
        }
        &mut self.pools[i]
    }

    fn add_job(&mut self, job: Job) -> u64 {
        let id = self.new_id();
        self.jobs.insert(id, job);
        id
    }

    fn balance(&mut self, job: u64) -> Option<&mut Balance> {
        match &mut self.jobs.get_mut(&job)?.kind {
            JobKind::Balance(b) => Some(b),
            _ => None,
        }
    }

    /// Relays one balance frame (pre-framed bytes, sent verbatim):
    /// route by key, fail over across distinct upstreams, hedge on tail
    /// latency. Router-generated errors go out in the client's codec.
    pub(crate) fn start_balance(
        &mut self,
        cx: &Cx<'_>,
        reply: Reply,
        frame: Vec<u8>,
        codec: WireCodec,
        key: u64,
        id: Option<u64>,
    ) {
        let now = Instant::now();
        let vnode = cx.shared.ring.read().unwrap().vnode_of(key);
        let job = self.add_job(Job {
            frame,
            reply: Some(reply),
            codec,
            legs: Vec::new(),
            kind: JobKind::Balance(Balance {
                key,
                id,
                vnode,
                started: now,
                deadline: now + cx.shared.config.reply_timeout,
                tried: Vec::new(),
                hedge_at: None,
                last_err: None,
            }),
        });
        self.next_attempt(cx, job);
        self.publish(cx);
    }

    /// Fetches every alive upstream's own stats at once; the rollup goes
    /// out when the last fetch answers or expires.
    pub(crate) fn start_stats(&mut self, cx: &Cx<'_>, reply: Reply, codec: WireCodec) {
        let count = cx.shared.upstreams.len();
        let mut frame = Vec::new();
        WireCodec::Json.encode_request(&Request::Stats, &mut frame);
        let job = self.add_job(Job {
            frame,
            reply: Some(reply),
            codec,
            legs: Vec::new(),
            kind: JobKind::Stats(vec![None; count]),
        });
        self.fan_out(cx, job, Role::Fetch);
    }

    /// Forwards `shutdown` to every alive upstream. The legs keep the
    /// poller's drain waiting until each is acknowledged or expires.
    pub(crate) fn start_forward(&mut self, cx: &Cx<'_>) {
        let mut frame = Vec::new();
        WireCodec::Json.encode_request(&Request::Shutdown, &mut frame);
        let job = self.add_job(Job {
            frame,
            reply: None,
            codec: WireCodec::Json,
            legs: Vec::new(),
            kind: JobKind::Forward,
        });
        self.fan_out(cx, job, Role::Forward);
    }

    /// One control leg per alive upstream, all registered before any is
    /// assigned, so a leg failing at once cannot settle the job early.
    fn fan_out(&mut self, cx: &Cx<'_>, job: u64, role: Role) {
        let deadline = Instant::now() + cx.shared.config.probe_timeout.max(CONTROL_BUDGET_FLOOR);
        let legs: Vec<u64> = cx
            .shared
            .upstreams
            .iter()
            .filter(|up| up.alive.load(Ordering::Relaxed))
            .map(|up| self.add_leg(cx, job, up.id, role, deadline))
            .collect();
        for leg in legs {
            if self.legs.contains_key(&leg) {
                self.assign(cx, leg);
            }
        }
        self.settle(cx, job);
        self.publish(cx);
    }

    /// Services the ready connections (every busy one under the sweep
    /// backend), then every timer that is due.
    pub(crate) fn poll(&mut self, cx: &Cx<'_>, ready: Ready<'_>) {
        match ready {
            Ready::Tokens(tokens) => {
                for &token in tokens {
                    self.drive(cx, token as usize);
                }
            }
            Ready::All => {
                let busy: Vec<usize> = (0..self.slots.len())
                    .filter(|&i| self.slots[i].as_ref().is_some_and(|s| s.leg.is_some()))
                    .collect();
                for slot in busy {
                    self.drive(cx, slot);
                }
            }
        }
        self.expire(cx, Instant::now());
        self.publish(cx);
    }

    /// The earliest leg deadline, handshake timeout or hedge instant.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let legs = self.legs.values().map(|l| l.deadline);
        let dials = self.slots.iter().flatten().filter_map(|s| s.connect_by);
        let hedges = self.jobs.values().filter_map(|j| match &j.kind {
            JobKind::Balance(b) => b.hedge_at,
            _ => None,
        });
        legs.chain(dials).chain(hedges).min()
    }

    // -- balance jobs -------------------------------------------------------

    /// Sends the job's next primary to the first untried upstream the
    /// ring names, or answers with the error if none is left.
    fn next_attempt(&mut self, cx: &Cx<'_>, job: u64) {
        let Some(b) = self.balance(job) else {
            return;
        };
        b.hedge_at = None;
        let target = if b.tried.len() < MAX_ATTEMPTS && Instant::now() < b.deadline {
            cx.shared
                .ring
                .read()
                .unwrap()
                .route_excluding(b.key, &b.tried)
        } else {
            None
        };
        let Some(upstream) = target else {
            return self.fail_balance(cx, job);
        };
        if !b.tried.is_empty() {
            cx.shared.counters.retries.fetch_add(1, Ordering::Relaxed);
        }
        b.tried.push(upstream);
        let deadline = b.deadline;
        let leg = self.add_leg(cx, job, upstream, Role::Primary, deadline);
        self.assign(cx, leg);
    }

    /// Sends the hedge for a primary still waiting at its hedge instant,
    /// to the backend that would own the key were the tried ones dead.
    fn hedge(&mut self, cx: &Cx<'_>, job: u64) {
        let Some(Job {
            kind: JobKind::Balance(b),
            legs,
            ..
        }) = self.jobs.get_mut(&job)
        else {
            return;
        };
        b.hedge_at = None;
        if legs.len() != 1 {
            return;
        }
        let target = cx
            .shared
            .ring
            .read()
            .unwrap()
            .route_excluding(b.key, &b.tried);
        let Some(upstream) = target else { return };
        cx.shared
            .counters
            .hedges_sent
            .fetch_add(1, Ordering::Relaxed);
        let deadline = b.deadline;
        let leg = self.add_leg(cx, job, upstream, Role::Hedge, deadline);
        self.assign(cx, leg);
    }

    /// No attempt left: the client gets the last error (or `no alive
    /// upstream` if none was tried).
    fn fail_balance(&mut self, cx: &Cx<'_>, job: u64) {
        let Some(Job {
            kind: JobKind::Balance(b),
            codec,
            ..
        }) = self.jobs.get(&job)
        else {
            return;
        };
        let frame = match &b.last_err {
            Some(e) if is_timeout(e) => error_frame(
                *codec,
                b.id,
                ErrorCode::Timeout,
                "upstream did not reply within the router's budget",
            ),
            Some(e) => error_frame(
                *codec,
                b.id,
                ErrorCode::Internal,
                &format!("upstream failed: {e}"),
            ),
            None => {
                cx.shared
                    .counters
                    .no_upstream
                    .fetch_add(1, Ordering::Relaxed);
                error_frame(*codec, b.id, ErrorCode::Internal, "no alive upstream")
            }
        };
        self.finish_balance(cx, job, &frame);
    }

    /// Answers the client and charges the whole relay time (wire plus
    /// upstream compute) to the key's vnode: it is the cost a move would
    /// relocate. Any leg still running is cancelled.
    fn finish_balance(&mut self, cx: &Cx<'_>, job: u64, frame: &[u8]) {
        let Some(job) = self.jobs.remove(&job) else {
            return;
        };
        // The loser of a hedged race is cancelled: its connection is
        // closed, never repooled, and it books neither success nor
        // failure.
        for leg in &job.legs {
            self.end_leg(cx, *leg, false);
        }
        if let JobKind::Balance(b) = &job.kind {
            let micros = b.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
            cx.shared.vnode_load.record(b.vnode, micros);
        }
        if let Some(reply) = job.reply {
            reply.send_bytes(frame);
        }
    }

    /// A control job whose last leg ended: the stats rollup goes out;
    /// the forwarded shutdown is simply done.
    fn settle(&mut self, cx: &Cx<'_>, job: u64) {
        if self.jobs.get(&job).is_none_or(|j| !j.legs.is_empty()) {
            return;
        }
        let Some(job) = self.jobs.remove(&job) else {
            return;
        };
        if let (JobKind::Stats(nested), Some(reply)) = (&job.kind, job.reply) {
            reply.send(job.codec, &Response::Stats(stats_rollup(cx.shared, nested)));
        }
    }

    // -- legs ---------------------------------------------------------------

    fn add_leg(
        &mut self,
        cx: &Cx<'_>,
        job: u64,
        upstream: u32,
        role: Role,
        deadline: Instant,
    ) -> u64 {
        if role.balance() {
            let up = &cx.shared.upstreams[upstream as usize];
            up.requests.fetch_add(1, Ordering::Relaxed);
            up.inflight.fetch_add(1, Ordering::Relaxed);
        }
        let id = self.new_id();
        self.legs.insert(
            id,
            Leg {
                job,
                upstream,
                role,
                slot: None,
                reused: false,
                started: Instant::now(),
                deadline,
            },
        );
        if let Some(j) = self.jobs.get_mut(&job) {
            j.legs.push(id);
        }
        id
    }

    /// Gives a leg a connection: an idle one, a fresh dial under the
    /// cap, or a place in the upstream's FIFO.
    fn assign(&mut self, cx: &Cx<'_>, leg: u64) {
        let Some(upstream) = self.legs.get(&leg).map(|l| l.upstream) else {
            return;
        };
        self.flush_if_died(cx, upstream);
        let cap = cx.shared.config.max_pool_idle.max(1);
        let pool = self.pool(upstream);
        if let Some(slot) = pool.idle.pop() {
            self.bind(cx, leg, slot, true);
        } else if pool.open < cap {
            self.dial(cx, leg);
        } else {
            pool.waiting.push_back(leg);
        }
    }

    /// Drops idle connections pooled before the upstream was last
    /// declared dead.
    fn flush_if_died(&mut self, cx: &Cx<'_>, upstream: u32) {
        let deaths = cx.shared.upstreams[upstream as usize]
            .deaths
            .load(Ordering::Relaxed);
        let pool = self.pool(upstream);
        if pool.deaths == deaths {
            return;
        }
        pool.deaths = deaths;
        for slot in std::mem::take(&mut pool.idle) {
            self.close(cx, slot);
        }
    }

    /// Dials a fresh connection for `leg`; a dial that fails at once is
    /// a charged failure.
    fn dial(&mut self, cx: &Cx<'_>, leg: u64) {
        let Some(upstream) = self.legs.get(&leg).map(|l| l.upstream) else {
            return;
        };
        let config = &cx.shared.config;
        let up = &cx.shared.upstreams[upstream as usize];
        let conn_id = UPSTREAM_CONN_BASE + upstream as u64;
        let dialed = UpstreamConn::dial(up.addr, config.connect_timeout, &config.shim, conn_id);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let registered = dialed.and_then(|conn| {
            let interest = Interest {
                readable: false,
                writable: true,
            };
            cx.sockets
                .register(conn.socket(), slot as u64, interest)
                .map(|()| (conn, interest))
        });
        let (conn, armed) = match registered {
            Ok(pair) => pair,
            Err(e) => {
                self.free.push(slot);
                return self.leg_failed(cx, leg, e, true);
            }
        };
        self.slots[slot] = Some(Slot {
            conn,
            upstream,
            leg: None,
            connect_by: Some(Instant::now() + config.connect_timeout),
            armed,
        });
        self.pool(upstream).open += 1;
        self.bind(cx, leg, slot, false);
    }

    /// Puts `leg`'s frame on the connection in `slot` and starts it.
    fn bind(&mut self, cx: &Cx<'_>, leg: u64, slot: usize, reused: bool) {
        let Some(l) = self.legs.get_mut(&leg) else {
            return;
        };
        l.slot = Some(slot);
        l.reused = reused;
        let (Some(job), Some(s)) = (
            self.jobs.get(&l.job),
            self.slots.get_mut(slot).and_then(Option::as_mut),
        ) else {
            return;
        };
        s.leg = Some(leg);
        s.conn.send(&job.frame);
        self.drive(cx, slot);
    }

    /// Moves the connection in `slot` along: handshake, write, read.
    fn drive(&mut self, cx: &Cx<'_>, slot: usize) {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let Some(leg) = s.leg else {
            // An idle connection keeps the read interest of its last
            // exchange, so whatever reaches it is unasked for: the
            // upstream closing it, an error, or bytes beyond the last
            // reply. Any of them would land in the next exchange on it
            // (late bytes as the head of an unrelated reply), so it is
            // closed, uncharged: no request was waiting on it.
            let upstream = s.upstream;
            self.pool(upstream).idle.retain(|&i| i != slot);
            self.close(cx, slot);
            return self.serve_waiters(cx, upstream);
        };
        let was_writing = s.conn.wants_write();
        let outcome = s
            .conn
            .flush()
            .and_then(|done| if done { s.conn.read_reply() } else { Ok(None) });
        if s.conn.connected {
            s.connect_by = None;
        }
        let just_sent = was_writing && !s.conn.wants_write();
        match outcome {
            Err(e) => self.leg_failed(cx, leg, e, true),
            Ok(Some(reply)) => self.leg_replied(cx, leg, reply),
            Ok(None) => {
                if just_sent {
                    self.frame_sent(cx, leg);
                }
                self.arm(cx, slot);
            }
        }
    }

    /// Registers the interest a busy connection in `slot` now needs. An
    /// idle one keeps its interest, so a pooled connection costs no
    /// `epoll_ctl` between exchanges.
    fn arm(&mut self, cx: &Cx<'_>, slot: usize) {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if s.leg.is_none() {
            return;
        }
        let want = Interest {
            readable: s.conn.connected,
            writable: s.conn.wants_write(),
        };
        if want != s.armed
            && cx
                .sockets
                .modify(s.conn.socket(), slot as u64, want)
                .is_ok()
        {
            s.armed = want;
        }
    }

    /// A primary's frame is fully written: its hedge is due
    /// `hedge_delay` from now, if that precedes the job's deadline.
    fn frame_sent(&mut self, cx: &Cx<'_>, leg: u64) {
        let Some(delay) = cx.shared.config.hedge_delay else {
            return;
        };
        let Some(job) = self
            .legs
            .get(&leg)
            .filter(|l| l.role == Role::Primary)
            .map(|l| l.job)
        else {
            return;
        };
        if let Some(b) = self.balance(job) {
            let at = Instant::now() + delay;
            b.hedge_at = (at < b.deadline).then_some(at);
        }
    }

    /// A leg's reply arrived whole.
    fn leg_replied(&mut self, cx: &Cx<'_>, leg: u64, reply: Vec<u8>) {
        let Some(l) = self.legs.get(&leg) else {
            return;
        };
        let (job, upstream, role, started) = (l.job, l.upstream, l.role, l.started);
        match role {
            Role::Primary | Role::Hedge => {
                let want = self.balance(job).and_then(|b| b.id);
                if want.is_some() && reply_id(&reply) != want {
                    // A reply for some other request means the stream
                    // lost frame sync; never repool it, never forward it.
                    return self.leg_failed(cx, leg, invalid("upstream reply id mismatch"), true);
                }
                let up = &cx.shared.upstreams[upstream as usize];
                up.latency.record(started.elapsed());
                cx.shared.mark_success(upstream);
                self.end_leg(cx, leg, true);
                if role == Role::Hedge {
                    cx.shared
                        .counters
                        .hedges_won
                        .fetch_add(1, Ordering::Relaxed);
                    up.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                self.finish_balance(cx, job, &reply);
            }
            Role::Fetch => {
                let stats = std::str::from_utf8(&reply)
                    .ok()
                    .and_then(|text| Json::parse(text.trim_end()).ok())
                    .and_then(|json| json.get("stats").cloned());
                self.end_leg(cx, leg, stats.is_some());
                if let Some(Job {
                    kind: JobKind::Stats(nested),
                    ..
                }) = self.jobs.get_mut(&job)
                {
                    nested[upstream as usize] = stats;
                }
                self.settle(cx, job);
            }
            Role::Forward => {
                // The upstream is going down; never repool.
                self.end_leg(cx, leg, false);
                self.settle(cx, job);
            }
        }
    }

    /// A leg's exchange failed with `e` (`charge`: the upstream is to
    /// blame, so a balance leg counts toward `fail_threshold`). A stale
    /// close on a pooled connection is retried once on a fresh dial
    /// first: the upstream restarting is not the upstream being down.
    fn leg_failed(&mut self, cx: &Cx<'_>, leg: u64, e: io::Error, charge: bool) {
        let Some(l) = self.legs.get_mut(&leg) else {
            return;
        };
        let upstream = l.upstream;
        let stale = l.reused && is_stale_close(&e);
        l.reused = false;
        let closed = l.slot.take();
        if let Some(slot) = closed {
            self.close(cx, slot);
        }
        if stale {
            cx.shared
                .counters
                .stale_retries
                .fetch_add(1, Ordering::Relaxed);
            self.dial(cx, leg);
        }
        if closed.is_some() {
            // The closed connection's place under the cap goes to the
            // next leg waiting for this upstream.
            self.serve_waiters(cx, upstream);
        }
        if stale {
            return;
        }
        let Some(l) = self.end_leg(cx, leg, false) else {
            return;
        };
        if l.role.balance() && charge {
            cx.shared.mark_failure(upstream);
        }
        match self.jobs.get_mut(&l.job) {
            Some(Job {
                kind: JobKind::Balance(b),
                legs,
                ..
            }) => {
                b.last_err = Some(e);
                // A failed side of a hedged race drops out; the other
                // keeps running. With none left, fail over.
                if legs.is_empty() {
                    self.next_attempt(cx, l.job);
                }
            }
            Some(_) => self.settle(cx, l.job),
            None => {}
        }
    }

    /// Removes a leg from the tables and releases its connection —
    /// back to the pool when `repool`, closed otherwise — or its place
    /// in the FIFO.
    fn end_leg(&mut self, cx: &Cx<'_>, leg: u64, repool: bool) -> Option<Leg> {
        let l = self.legs.remove(&leg)?;
        if let Some(job) = self.jobs.get_mut(&l.job) {
            job.legs.retain(|&other| other != leg);
        }
        if l.role.balance() {
            cx.shared.upstreams[l.upstream as usize]
                .inflight
                .fetch_sub(1, Ordering::Relaxed);
        }
        match l.slot {
            Some(slot) if repool => self.release(cx, slot),
            Some(slot) => {
                self.close(cx, slot);
                self.serve_waiters(cx, l.upstream);
            }
            None => self.pool(l.upstream).waiting.retain(|&w| w != leg),
        }
        Some(l)
    }

    // -- connections --------------------------------------------------------

    /// A clean exchange ended: the connection goes to the next leg
    /// waiting for its upstream, or idles in the pool.
    fn release(&mut self, cx: &Cx<'_>, slot: usize) {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        s.leg = None;
        let upstream = s.upstream;
        match self.pool(upstream).waiting.pop_front() {
            Some(next) => self.bind(cx, next, slot, true),
            None => self.pool(upstream).idle.push(slot),
        }
    }

    /// Closes the connection in `slot` (deregistered first).
    fn close(&mut self, cx: &Cx<'_>, slot: usize) {
        let Some(s) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        cx.sockets.deregister(s.conn.socket());
        self.free.push(slot);
        self.pool(s.upstream).open -= 1;
    }

    /// Dials for the oldest waiting legs while the upstream is under its
    /// connection cap.
    fn serve_waiters(&mut self, cx: &Cx<'_>, upstream: u32) {
        let cap = cx.shared.config.max_pool_idle.max(1);
        loop {
            let pool = self.pool(upstream);
            if pool.open >= cap {
                return;
            }
            let Some(next) = pool.waiting.pop_front() else {
                return;
            };
            self.dial(cx, next);
        }
    }

    /// Fails every leg, handshake and hedge whose time has come.
    fn expire(&mut self, cx: &Cx<'_>, now: Instant) {
        let dials: Vec<u64> = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.connect_by.is_some_and(|t| t <= now))
            .filter_map(|s| s.leg)
            .collect();
        for leg in dials {
            let e = io::Error::new(io::ErrorKind::TimedOut, "upstream connect timed out");
            self.leg_failed(cx, leg, e, true);
        }
        let late: Vec<u64> = self
            .legs
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for leg in late {
            // A leg still waiting in the FIFO never reached its upstream
            // and is not charged; one that was sent timed out there.
            let charge = self.legs.get(&leg).is_some_and(|l| l.slot.is_some());
            let e = io::Error::new(io::ErrorKind::TimedOut, "upstream reply timed out");
            self.leg_failed(cx, leg, e, charge);
        }
        let hedges: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| match &j.kind {
                JobKind::Balance(b) => b.hedge_at.is_some_and(|t| t <= now),
                _ => false,
            })
            .map(|(&id, _)| id)
            .collect();
        for job in hedges {
            self.hedge(cx, job);
        }
    }

    /// Publishes the connection gauges for `stats`.
    fn publish(&mut self, cx: &Cx<'_>) {
        let mut waiting = 0;
        for (up, pool) in cx.shared.upstreams.iter().zip(&self.pools) {
            up.open.store(pool.open, Ordering::Relaxed);
            up.busy
                .store(pool.open - pool.idle.len(), Ordering::Relaxed);
            waiting += pool.waiting.len();
        }
        cx.shared.relay_waiting.store(waiting, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_service::fault::Passthrough;
    use proptest::prelude::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::thread;

    /// How a test waits between tries on a connection: on the kernel's
    /// readiness report (the epoll backend), or a fixed re-check period
    /// (the sweep fallback, which has no readiness to wait on).
    #[derive(Clone, Copy, Debug)]
    enum Backend {
        Epoll,
        Sweep,
    }

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Epoll, Backend::Sweep]
        } else {
            vec![Backend::Sweep]
        }
    }

    /// Waits for `conn`'s next readiness the way `backend` would.
    struct Waiter(Option<gb_sys::Epoll>);

    impl Waiter {
        fn new(backend: Backend, conn: &UpstreamConn) -> Waiter {
            Waiter(match backend {
                Backend::Epoll => {
                    use std::os::fd::AsRawFd;
                    let ep = gb_sys::Epoll::new().expect("epoll");
                    let both = Interest {
                        readable: true,
                        writable: true,
                    };
                    ep.add(conn.socket().as_raw_fd(), 0, both)
                        .expect("register");
                    Some(ep)
                }
                Backend::Sweep => None,
            })
        }

        fn wait(&mut self, conn: &UpstreamConn) {
            match &mut self.0 {
                Some(ep) => {
                    use std::os::fd::AsRawFd;
                    let interest = Interest {
                        readable: conn.connected,
                        writable: conn.wants_write(),
                    };
                    ep.modify(conn.socket().as_raw_fd(), 0, interest)
                        .expect("modify");
                    let mut events = Vec::new();
                    ep.wait(&mut events, Some(Duration::from_secs(2)))
                        .expect("wait");
                }
                None => thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn dial(addr: SocketAddr) -> UpstreamConn {
        let shim: Arc<dyn IoShim> = Arc::new(Passthrough);
        UpstreamConn::dial(addr, Duration::from_secs(1), &shim, UPSTREAM_CONN_BASE).expect("dial")
    }

    /// Drives one exchange the way the relay does — flush, then read —
    /// waiting between tries, until the reply is whole or the exchange
    /// fails. Returns the outcome and whether a partial reply was ever
    /// left buffered across a wait.
    fn exchange(
        conn: &mut UpstreamConn,
        backend: Backend,
        frame: &[u8],
    ) -> (io::Result<Vec<u8>>, bool) {
        let mut waiter = Waiter::new(backend, conn);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut resumed = false;
        conn.send(frame);
        loop {
            let step = conn
                .flush()
                .and_then(|done| if done { conn.read_reply() } else { Ok(None) });
            match step {
                Ok(Some(reply)) => return (Ok(reply), resumed),
                Err(e) => return (Err(e), resumed),
                Ok(None) => {}
            }
            assert!(Instant::now() < deadline, "exchange never finished");
            resumed |= conn.reply.buffered() > 0;
            waiter.wait(conn);
        }
    }

    fn line(s: &str) -> Vec<u8> {
        format!("{s}\n").into_bytes()
    }

    /// An echo server that answers each line with `ok:<line>`, splitting
    /// the reply to `pause_on` around a pause.
    fn echo_server(pause_on: &'static str, pause: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        let body = line.trim_end();
                        let reply = format!("ok:{body}\n");
                        if body == pause_on {
                            let (a, b) = reply.split_at(reply.len() / 2);
                            writer.write_all(a.as_bytes()).unwrap();
                            writer.flush().unwrap();
                            thread::sleep(pause);
                            writer.write_all(b.as_bytes()).unwrap();
                        } else {
                            writer.write_all(reply.as_bytes()).unwrap();
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn a_partial_reply_resumes_across_readiness_events() {
        let addr = echo_server("slow", Duration::from_millis(80));
        for backend in backends() {
            let mut conn = dial(addr);
            // The first half of the reply arrives, then the server pauses:
            // the prefix must stay buffered across the wait and the same
            // frame complete on a later readiness event.
            let (reply, resumed) = exchange(&mut conn, backend, &line("slow"));
            assert_eq!(reply.unwrap(), line("ok:slow"), "{backend:?}");
            assert!(resumed, "{backend:?}: the reply never arrived in two parts");
            // The connection is back in frame sync for the next exchange.
            let (reply, _) = exchange(&mut conn, backend, &line("fast"));
            assert_eq!(reply.unwrap(), line("ok:fast"), "{backend:?}");
        }
    }

    #[test]
    fn binary_frames_round_trip_byte_for_byte() {
        // A raw byte-echo upstream: whatever frame arrives goes back
        // unchanged, length prefix included.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    loop {
                        match stream.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(k) => {
                                if stream.write_all(&buf[..k]).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        for backend in backends() {
            let mut conn = dial(addr);
            // The payload holds a newline and a magic byte: the frame
            // must be delimited by its length prefix alone.
            let payload = [0x03, b'\n', MAGIC, 0x00];
            let mut frame = vec![MAGIC];
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            let (reply, _) = exchange(&mut conn, backend, &frame);
            assert_eq!(reply.unwrap(), frame, "{backend:?}: binary reply altered");
            // A corrupt declared length ends the exchange with an error.
            let mut corrupt = vec![MAGIC];
            corrupt.extend_from_slice(&u32::MAX.to_le_bytes());
            let (reply, _) = exchange(&mut conn, backend, &corrupt);
            let err = reply.unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{backend:?}");
        }
    }

    #[test]
    fn a_dial_to_a_dead_address_fails_fast() {
        // Bind-then-drop reserves a port with no listener behind it.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        for backend in backends() {
            let started = Instant::now();
            let shim: Arc<dyn IoShim> = Arc::new(Passthrough);
            let outcome = UpstreamConn::dial(addr, Duration::from_millis(200), &shim, 0)
                .and_then(|mut conn| exchange(&mut conn, backend, &line("ping")).0);
            assert!(
                outcome.is_err(),
                "{backend:?}: dial to a dead port succeeded"
            );
            assert!(
                started.elapsed() < Duration::from_millis(500),
                "{backend:?}: refused dial took {:?}",
                started.elapsed()
            );
        }
    }

    /// A nonblocking upstream socket seen by `read_reply`: `data` comes
    /// out in reads that end at each cut, with a `WouldBlock` (a wait for
    /// the next readiness event) between them. Once `data` is out, the
    /// upstream either closes (EOF) or keeps the connection open.
    struct Trickle {
        data: Vec<u8>,
        cuts: Vec<usize>,
        pos: usize,
        waited: bool,
        closes: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return match self.closes {
                    true => Ok(0),
                    false => Err(io::ErrorKind::WouldBlock.into()),
                };
            }
            if self.cuts.contains(&self.pos) && !self.waited {
                self.waited = true;
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.waited = false;
            let cut = self
                .cuts
                .iter()
                .copied()
                .filter(|&c| c > self.pos)
                .min()
                .unwrap_or(self.data.len());
            let k = (cut - self.pos).min(buf.len());
            buf[..k].copy_from_slice(&self.data[self.pos..self.pos + k]);
            self.pos += k;
            Ok(k)
        }
    }

    /// What one exchange's reply path makes of `stream`: the reply, the
    /// error that ends it, or `None` while the reply is still due.
    fn reply_outcome(mut stream: Trickle) -> Option<Result<Vec<u8>, (io::ErrorKind, String)>> {
        let mut reply = Framer::new(MAX_REPLY, REPLY_READ_SIZE);
        for _ in 0..=2 * stream.cuts.len() + 2 {
            match read_reply(&mut reply, &mut stream) {
                Ok(Some(frame)) => return Some(Ok(frame)),
                Ok(None) => {}
                Err(e) => return Some(Err((e.kind(), e.to_string()))),
            }
        }
        None
    }

    /// One scripted reply stream: a JSON line, a binary frame, a
    /// corrupt binary length, a non-UTF-8 line or a reply cut short.
    fn reply_stream(kind: u32, body: &[u8]) -> Vec<u8> {
        let text: String = body.iter().map(|&b| char::from(b'a' + b % 26)).collect();
        match kind % 5 {
            0 => format!("{{\"id\":7,\"note\":\"{text}\"}}\r\n").into_bytes(),
            1 => {
                let mut frame = vec![MAGIC];
                frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
                frame.extend_from_slice(body);
                frame
            }
            2 => {
                let mut frame = vec![MAGIC];
                frame.extend_from_slice(&(MAX_REPLY as u32 + 1).to_le_bytes());
                frame.extend_from_slice(body);
                frame
            }
            3 => [&[0xff, 0xfe][..], text.as_bytes(), b"\n"].concat(),
            _ => format!("{{\"id\":7,\"note\":\"{text}").into_bytes(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn a_reply_reads_the_same_however_it_is_split(
            kind in 0u32..5,
            body in prop::collection::vec(any::<u8>(), 0..600),
            trailing in prop::collection::vec(0u8..b'\n', 0..3),
            closes in any::<bool>(),
            cut_seeds in prop::collection::vec(any::<u64>(), 0..10),
        ) {
            let reply = reply_stream(kind, &body);
            let mut data = reply.clone();
            data.extend_from_slice(&trailing);
            // Any read boundary except the one at the reply's end: bytes
            // beyond the reply arrive in the read that completes it.
            let cuts: Vec<usize> = cut_seeds
                .iter()
                .map(|&s| (s % (data.len() as u64 + 1)) as usize)
                .filter(|&c| c != reply.len())
                .collect();
            let whole = reply_outcome(Trickle {
                data: data.clone(),
                cuts: Vec::new(),
                pos: 0,
                waited: false,
                closes,
            });
            let split = reply_outcome(Trickle {
                data,
                cuts: cuts.clone(),
                pos: 0,
                waited: false,
                closes,
            });
            prop_assert_eq!(&whole, &split, "cuts {:?}", cuts);
            let kind_of = |e: (io::ErrorKind, String)| e.0;
            match (kind % 5, trailing.is_empty()) {
                (0 | 1, true) => prop_assert_eq!(whole, Some(Ok(reply))),
                // Bytes beyond the reply, a corrupt length or a non-UTF-8
                // line: the connection is out of frame sync.
                (0..=3, _) => prop_assert_eq!(
                    whole.map(|r| r.map_err(kind_of)),
                    Some(Err(io::ErrorKind::InvalidData))
                ),
                // A reply cut short waits for the rest, or fails at EOF.
                _ if closes => prop_assert!(matches!(whole, Some(Err(_)))),
                _ => prop_assert_eq!(whole, None),
            }
        }
    }
}
