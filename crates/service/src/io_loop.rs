//! The connection event loop both serving tiers run.
//!
//! `gb-serve` and `gb-router` differ only in what they do with a
//! decoded request; everything below that — nonblocking accept, the
//! readiness backend, framing, coalesced inline replies, partial-write
//! buffering, write-stall detection, the reply timeout, the fault shim
//! and the fault counters — lives here once. A tier plugs in through
//! [`Handler`]: the loop decodes each frame and calls
//! [`Handler::handle`], which either answers inline through the
//! [`Dispatch`] it is given or takes a [`Reply`] with
//! [`Dispatch::defer`] and hands it to one of its own worker threads.
//! The worker later answers with [`Reply::send`], and the loop answers
//! `internal` itself if the worker never does. A connection keeps
//! reading while deferred frames are outstanding, up to a window of
//! [`WINDOW`] frames; replies that finish early, and inline answers read
//! behind an outstanding frame, wait their turn, so every reply goes out
//! in request order.
//!
//! A handler may also keep state on the poller itself
//! ([`Handler::Local`], one value per poller, touched only by that
//! poller's thread) and drive sockets of its own there: it registers
//! them through [`Sockets`] under tokens of its choosing, the loop calls
//! [`Handler::poll_sockets`] with the tokens the kernel reported ready,
//! and [`Handler::next_deadline`] caps how long the poller may block, so
//! a handler's timers fire on time instead of at the next
//! `poll_interval`. A [`Reply`] sent from the poller that owns its
//! connection — from any of these callbacks — needs no wakeup: the
//! poller re-arms the connection itself when the callback returns.
//! `gb-router` relays upstream this way; `gb-serve` keeps no local state
//! and registers nothing.
//!
//! The readiness backend is a platform decision, not an option. On
//! Linux each poller blocks in `epoll_wait` (`epoll_loop`) and services
//! only the connections the kernel (or a worker's eventfd wakeup)
//! reports, so idle connections cost nothing. When the epoll or eventfd
//! setup fails at startup — and on every non-Linux target, where
//! `gb-sys` reports it as unsupported — the pollers run the portable
//! sweep loop (`event_loop`) instead, which probes every connection each
//! pass — and hands the handler every pass to probe its own sockets the
//! same way. Both run the same `sweep_conn` per connection.
//! [`IoLoop::engine`] names the backend the pollers actually run
//! (`"epoll"` or `"sweep"`).

use std::cell::RefCell;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gb_sys as sys;
use parking_lot::Mutex;

use crate::fault::{IoShim, ShimStream};
use crate::proto::{
    Codec, ErrorCode, Frame, FrameError, FrameReader, Json, Request, Response, WireCodec,
};
use crate::shed::{SlotGauge, SlotToken};

mod order;

use order::ReplyOrder;
pub use order::WINDOW;

pub use gb_sys::Interest;

/// Frames dispatched from one connection per poller sweep, so one
/// pipelining client cannot starve its siblings on the same poller.
const MAX_LINES_PER_SWEEP: usize = 32;

/// Compaction threshold for a connection's output buffer: once this many
/// written bytes accumulate at the front, the buffer is shifted down.
const OUT_BUF_COMPACT: usize = 64 * 1024;

/// The loop's settings; each tier derives them from its own
/// configuration.
#[derive(Clone, Debug)]
pub struct LoopConfig {
    /// I/O poller threads (clamped to 1..=16).
    pub pollers: usize,
    /// Timer granularity: how often in-flight and write-stalled
    /// connections are re-checked, the accept backoff after fd
    /// exhaustion, and the ceiling on the sweep loop's idle backoff.
    pub poll_interval: Duration,
    /// How long a socket may refuse bytes with output pending before
    /// the connection is declared dead (the peer stopped reading).
    pub write_stall: Duration,
    /// How long a deferred frame may wait for its [`Reply`] before the
    /// loop answers `internal` itself.
    pub reply_timeout: Duration,
    /// Cap on simultaneously open connections (0 = unlimited).
    pub max_conns: usize,
    /// Fault-injection seam for every accept, read and write.
    pub shim: Arc<dyn IoShim>,
}

/// Connection and fault counters of one loop. Both tiers report them
/// under the same keys (`faults.*`, `connections.*`).
#[derive(Debug, Default)]
pub struct LoopCounters {
    /// Connections that died abnormally: reset by the peer, failed a
    /// write, or stalled past the write deadline.
    conn_reset: AtomicU64,
    /// Frames cut off by a peer close, or binary frames with a corrupt
    /// length.
    torn_frame: AtomicU64,
    /// Finished replies that could not be delivered: the connection was
    /// dead, or the loop had already answered for the worker.
    reply_dropped: AtomicU64,
    /// `accept()` failures other than WouldBlock/Interrupted (fd
    /// exhaustion and kindred resource errors).
    accept_errors: AtomicU64,
    /// Connections refused at accept by the `max_conns` cap.
    accept_shed: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl LoopCounters {
    /// The `faults` stats section.
    pub fn faults_json(&self) -> Json {
        let field =
            |name: &str, c: &AtomicU64| (name.into(), Json::Int(c.load(Ordering::Relaxed) as i64));
        Json::Obj(vec![
            field("conn_reset", &self.conn_reset),
            field("torn_frame", &self.torn_frame),
            field("reply_dropped", &self.reply_dropped),
            field("accept_errors", &self.accept_errors),
            field("accept_shed", &self.accept_shed),
        ])
    }
}

/// What a tier does with each decoded frame.
pub trait Handler: Send + Sync + 'static {
    /// State each poller keeps for the handler, created on and touched
    /// only by that poller's thread (`()` when the handler keeps none).
    type Local: Default;

    /// Serves one decoded request. `raw` is the whole frame exactly as
    /// received: the JSON line with its newline, or the binary payload
    /// with its header. Answer inline through `out`, or take
    /// [`out.defer`](Dispatch::defer) and answer from a worker — or from
    /// this poller, through `local` and the sockets it registers.
    fn handle(&self, local: &mut Self::Local, request: Request, raw: &[u8], out: &mut Dispatch<'_>);

    /// The loop answered with `code` itself: a frame that did not
    /// decode (`bad_request`), a connection shed at accept
    /// (`overloaded`), or a deferred frame whose worker never answered
    /// (`internal`).
    fn loop_error(&self, code: ErrorCode);

    /// Services the handler's own sockets and timers: called with the
    /// tokens the kernel reported ready since the last call, or once the
    /// deadline from [`next_deadline`](Self::next_deadline) has passed
    /// (with no tokens, or fewer). Under the sweep backend it is called
    /// every pass with [`Ready::All`]: any registered socket may be
    /// ready.
    fn poll_sockets(&self, _local: &mut Self::Local, _ready: Ready<'_>, _sockets: Sockets<'_>) {}

    /// The earliest instant the handler needs
    /// [`poll_sockets`](Self::poll_sockets) without any readiness: its
    /// next timer. `None` means nothing is pending; a draining poller
    /// exits only then, so a handler's exchanges finish before the loop
    /// stops.
    fn next_deadline(&self, _local: &Self::Local) -> Option<Instant> {
        None
    }
}

/// Which of a handler's sockets [`Handler::poll_sockets`] should look at.
#[derive(Debug, Clone, Copy)]
pub enum Ready<'a> {
    /// The tokens the kernel reported ready (possibly none: a timer is
    /// due).
    Tokens(&'a [u64]),
    /// Every socket: the sweep backend has no readiness to report.
    All,
}

/// Epoll tokens with this bit set belong to the handler's own sockets;
/// the rest of the token is the handler's. Connection slots never reach
/// it, and the listener and waker tokens are matched first.
const HANDLER_TOKEN: u64 = 1 << 62;

/// A poller's registry for the handler's own sockets. Registrations are
/// level-triggered, exactly like the loop's connections. Under the sweep
/// backend every call is a no-op: [`Handler::poll_sockets`] is then
/// called every pass instead.
#[derive(Clone, Copy)]
pub struct Sockets<'a> {
    ep: Option<&'a sys::Epoll>,
}

impl Sockets<'_> {
    /// Registers `sock` under `token` (below `1 << 62`).
    pub fn register(
        &self,
        sock: &TcpStream,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        match self.ep {
            Some(ep) => ep.add(raw_fd(sock), HANDLER_TOKEN | token, interest),
            None => Ok(()),
        }
    }

    /// Changes the interest of a registered socket.
    pub fn modify(&self, sock: &TcpStream, token: u64, interest: Interest) -> std::io::Result<()> {
        match self.ep {
            Some(ep) => ep.modify(raw_fd(sock), HANDLER_TOKEN | token, interest),
            None => Ok(()),
        }
    }

    /// Removes a registration; call it before dropping the socket.
    pub fn deregister(&self, sock: &TcpStream) {
        if let Some(ep) = self.ep {
            let _ = ep.delete(raw_fd(sock));
        }
    }
}

thread_local! {
    /// On an epoll poller's thread: its index, and the connection slots
    /// whose deferred reply was sent from this thread since the poller
    /// last looked. Such a reply needs no eventfd wakeup.
    static ON_POLLER: RefCell<Option<(usize, Vec<usize>)>> = const { RefCell::new(None) };
}

// ---------------------------------------------------------------------------
// Connection and reply plumbing
// ---------------------------------------------------------------------------

/// Write half of a connection: the nonblocking socket plus
/// the output buffer that survives `WouldBlock` mid-frame.
///
/// Every writer (poller inline replies, worker replies, timeout errors)
/// appends whole frames to `pending` and then pushes as much as the
/// socket will take; the unwritten tail stays buffered — never dropped,
/// never duplicated — and later sweeps retry it. `sent` marks the start
/// of the unwritten region so retries cannot resend bytes. `order`
/// decides when a reply may join `pending`.
struct ConnWriter {
    sink: ShimStream,
    pending: Vec<u8>,
    sent: usize,
    order: ReplyOrder,
    /// First `WouldBlock` with output pending; cleared whenever the
    /// socket accepts bytes again.
    stalled_since: Option<Instant>,
}

impl ConnWriter {
    fn has_pending(&self) -> bool {
        self.sent < self.pending.len()
    }
}

/// Per-connection state shared between the poller that reads requests
/// and the worker that writes the reply.
struct ConnShared {
    /// Accept-order id, the fault shim's addressing scheme.
    conn_id: u64,
    /// Buffered write half. Workers and the poller serialise frames
    /// through this lock.
    writer: Mutex<ConnWriter>,
    /// `writer.order.outstanding()`, readable without the lock: frames
    /// issued a turn and not yet written. While it is 0, inline replies
    /// skip the lock; at [`WINDOW`] the poller stops reading.
    inflight: AtomicUsize,
    /// Socket failed on write; the poller drops the connection.
    dead: AtomicBool,
    /// The owning poller's index, and the connection's slot on it (epoll
    /// backend only).
    poller: usize,
    slot: AtomicUsize,
    /// Wakes the owning epoll poller when worker-side state changes
    /// (reply delivered, connection marked dead) — a blocked
    /// `epoll_wait` cannot see an `AtomicBool` flip. `None` under the
    /// sweep fallback, whose pollers rediscover state by sweeping.
    waker: Option<Arc<sys::EventFd>>,
}

impl ConnShared {
    /// Signals the owning epoll poller, if any.
    fn wake(&self) {
        if let Some(w) = &self.waker {
            w.signal();
        }
    }
}

/// A deferred frame the poller still waits on, for its reply timeout.
struct Deferred {
    /// Its turn on the wire.
    seq: u64,
    /// When it was deferred.
    since: Instant,
    /// The reply-arbitration flag shared with its [`Reply`].
    answered: Arc<AtomicBool>,
    /// Request id and codec, for the timeout error frame.
    id: Option<u64>,
    codec: WireCodec,
}

/// One connection owned by an I/O poller.
struct Conn {
    reader: FrameReader<ShimStream>,
    shared: Arc<ConnShared>,
    /// Deferred frames not yet answered, oldest first (at most
    /// [`WINDOW`] unanswered; answered ones are pruned each sweep).
    deferred: Vec<Deferred>,
    /// The read side is finished (EOF or torn frame); the connection
    /// stays around only until buffered replies drain.
    closing: bool,
    /// Open-connection gauge slot, released when the poller drops us.
    _open: SlotToken,
}

impl Conn {
    /// Registers an accepted stream. `None` means the socket died
    /// between `accept` and setup (`fcntl`/`dup` failure, typical under
    /// fd pressure) — the caller must record the death; a client that
    /// connected successfully must not vanish without a metric.
    fn accept(stream: TcpStream, io: &IoLoop, conn_id: u64, poller: usize) -> Option<Conn> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).ok()?;
        let writer = stream.try_clone().ok()?;
        let shim = &io.config.shim;
        Some(Conn {
            reader: FrameReader::new(ShimStream::new(stream, Arc::clone(shim), conn_id)),
            shared: Arc::new(ConnShared {
                conn_id,
                writer: Mutex::new(ConnWriter {
                    sink: ShimStream::new(writer, Arc::clone(shim), conn_id),
                    pending: Vec::new(),
                    sent: 0,
                    stalled_since: None,
                    order: ReplyOrder::default(),
                }),
                inflight: AtomicUsize::new(0),
                dead: AtomicBool::new(false),
                poller,
                slot: AtomicUsize::new(0),
                waker: io.wakers.get(poller).cloned(),
            }),
            deferred: Vec::new(),
            closing: false,
            _open: io.open_conns.acquire(),
        })
    }
}

/// The poller-side context of one decoded frame: its inline reply
/// buffer and the way to defer the answer to a worker.
pub struct Dispatch<'a> {
    io: &'a Arc<IoLoop>,
    conn: &'a Arc<ConnShared>,
    replies: &'a mut Vec<u8>,
    codec: WireCodec,
    deferred: Option<Deferred>,
    sockets: Sockets<'a>,
}

impl<'a> Dispatch<'a> {
    /// The codec the frame arrived in; replies go out in the same one.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// The poller's registry for the handler's own sockets.
    pub fn sockets(&self) -> Sockets<'a> {
        self.sockets
    }

    /// Appends one inline reply in the frame's codec.
    pub fn reply(&mut self, resp: &Response) {
        self.codec.encode_response(resp, self.replies);
    }

    /// The inline reply buffer, for callers that encode frames
    /// themselves. Everything appended here goes out in order, with
    /// one write per connection per sweep.
    pub fn buf(&mut self) -> &mut Vec<u8> {
        self.replies
    }

    /// Writes the buffered inline replies now instead of at the end of
    /// the sweep (behind any outstanding deferred frame, as always).
    pub fn flush(&mut self) {
        settle_inline(self.io, self.conn, self.replies);
        flush_replies(self.io, self.conn, self.replies);
    }

    /// Defers this frame's answer (at most once per frame): buffered
    /// inline replies are written first, the frame takes the next turn
    /// on the wire, and the returned [`Reply`] fills it. The connection
    /// keeps reading meanwhile, up to [`WINDOW`] outstanding frames.
    /// `id` labels the loop's `internal` error should no reply come
    /// within the reply timeout.
    pub fn defer(&mut self, id: Option<u64>) -> Reply {
        self.flush();
        let answered = Arc::new(AtomicBool::new(false));
        // Take the turn *before* the hand-off: the worker may answer
        // before the caller's push even returns.
        let seq = {
            let mut w = self.conn.writer.lock();
            let seq = w.order.issue();
            self.conn
                .inflight
                .store(w.order.outstanding(), Ordering::Release);
            seq
        };
        self.deferred = Some(Deferred {
            seq,
            since: Instant::now(),
            answered: Arc::clone(&answered),
            id,
            codec: self.codec,
        });
        Reply {
            io: Arc::clone(self.io),
            conn: Arc::clone(self.conn),
            answered,
            seq,
            _slot: self.io.inflight.acquire(),
        }
    }
}

/// The right to answer one deferred frame. Whoever holds it writes the
/// reply with [`send`](Self::send); the loop's reply timeout races it,
/// and the loser's reply is dropped and counted as `reply_dropped`.
/// The reply goes out in the frame's turn: after every earlier frame's
/// answer on the connection, however early it finishes.
pub struct Reply {
    io: Arc<IoLoop>,
    conn: Arc<ConnShared>,
    answered: Arc<AtomicBool>,
    /// The frame's turn on the wire.
    seq: u64,
    /// RAII in-flight slot (`connections.inflight`): released wherever
    /// the reply ends — sent, abandoned, or dropped with its job — so
    /// the gauge cannot leak.
    _slot: SlotToken,
}

impl Reply {
    /// The connection's accept-order id (the fault shim's address).
    pub fn conn_id(&self) -> u64 {
        self.conn.conn_id
    }

    /// Whether the connection already died, so nobody will read a reply.
    pub fn peer_gone(&self) -> bool {
        self.conn.dead.load(Ordering::Acquire)
    }

    /// Sends `resp` in `codec`.
    pub fn send(self, codec: WireCodec, resp: &Response) {
        let mut frame = Vec::new();
        codec.encode_response(resp, &mut frame);
        self.send_bytes(&frame);
    }

    /// Sends one complete, already-encoded reply frame.
    pub fn send_bytes(self, frame: &[u8]) {
        if claim_reply(&self.answered) {
            deliver(&self.io, &self.conn, self.seq, frame);
            self.release();
        } else {
            bump(&self.io.counters.reply_dropped);
        }
    }

    /// Gives up on a reply nobody will read ([`peer_gone`](Self::peer_gone)):
    /// the frame's turn passes without a write, so later replies are not
    /// held behind it.
    pub fn abandon(self) {
        if claim_reply(&self.answered) {
            deliver(&self.io, &self.conn, self.seq, &[]);
            self.release();
        }
        bump(&self.io.counters.reply_dropped);
    }

    fn release(&self) {
        // The owning poller may have dropped read interest on a full
        // window, and must re-arm write interest for output the socket
        // did not take. Sent from that poller's own thread, the reply
        // just leaves the slot for it to re-arm; from any other thread,
        // wake it — a blocked `epoll_wait` cannot see the atomic change.
        let local = ON_POLLER.with(|on| match &mut *on.borrow_mut() {
            Some((poller, released)) if *poller == self.conn.poller => {
                released.push(self.conn.slot.load(Ordering::Relaxed));
                true
            }
            _ => false,
        });
        if !local {
            self.conn.wake();
        }
    }
}

/// Takes ownership of a deferred reply; `false` if the other side
/// (worker or the loop's reply timeout) already has it.
fn claim_reply(answered: &AtomicBool) -> bool {
    answered
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

// ---------------------------------------------------------------------------
// The loop handle
// ---------------------------------------------------------------------------

/// Loop-wide state shared by the pollers, the tier's handler and its
/// workers' [`Reply`]s.
pub struct IoLoop {
    config: LoopConfig,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    counters: LoopCounters,
    /// Accept-order connection ids (the fault shim's addressing).
    next_conn: AtomicU64,
    /// Live connections (open sockets holding a token).
    open_conns: SlotGauge,
    /// Deferred frames between [`Dispatch::defer`] and their reply.
    inflight: SlotGauge,
    /// Accepted connections in transit to their poller.
    inboxes: Vec<Mutex<Vec<Conn>>>,
    /// One epoll wakeup channel per poller. Workers signal the owning
    /// poller after finishing a reply so it can re-arm read interest.
    /// Empty exactly when the pollers run the sweep fallback.
    wakers: Vec<Arc<sys::EventFd>>,
}

/// The listener and readiness instances, waiting for
/// [`spawn`](Pollers::spawn) to hand them to poller threads.
pub struct Pollers {
    io: Arc<IoLoop>,
    listener: TcpListener,
    epolls: Vec<sys::Epoll>,
}

impl IoLoop {
    /// Takes over a bound listener and decides the readiness backend,
    /// once, for every poller: epoll where the kernel provides it, the
    /// sweep loop when setup fails (always, off Linux). The pollers
    /// start with [`Pollers::spawn`], once the handler exists.
    pub fn new(
        listener: TcpListener,
        config: LoopConfig,
    ) -> std::io::Result<(Arc<IoLoop>, Pollers)> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let pollers = config.pollers.clamp(1, 16);
        let (epolls, wakers): (Vec<_>, Vec<_>) = open_readiness(&*config.shim, &listener, pollers)
            .unwrap_or_default()
            .into_iter()
            .unzip();
        let io = Arc::new(IoLoop {
            config,
            local_addr,
            shutdown: AtomicBool::new(false),
            counters: LoopCounters::default(),
            next_conn: AtomicU64::new(0),
            open_conns: SlotGauge::new(),
            inflight: SlotGauge::new(),
            inboxes: (0..pollers).map(|_| Mutex::new(Vec::new())).collect(),
            wakers,
        });
        let pollers = Pollers {
            io: Arc::clone(&io),
            listener,
            epolls,
        };
        Ok((io, pollers))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The readiness backend the pollers run: `"epoll"`, or `"sweep"`
    /// when epoll setup failed or the platform has none.
    pub fn engine(&self) -> &'static str {
        if self.wakers.is_empty() {
            "sweep"
        } else {
            "epoll"
        }
    }

    /// Starts the drain: the listener closes, idle connections drop,
    /// and the pollers exit once every deferred reply is written. Safe
    /// to call more than once.
    pub fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Epoll pollers block in epoll_wait; signal each wakeup channel
        // so the drain starts now rather than at the next timeout.
        for waker in &self.wakers {
            waker.signal();
        }
    }

    /// Whether [`trigger_shutdown`](Self::trigger_shutdown) was called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The loop's fault counters.
    pub fn counters(&self) -> &LoopCounters {
        &self.counters
    }

    /// The `connections` stats section: open sockets and deferred
    /// frames awaiting their reply.
    pub fn connections_json(&self) -> Json {
        Json::Obj(vec![
            ("open".into(), Json::Int(self.open_conns.occupied() as i64)),
            (
                "inflight".into(),
                Json::Int(self.inflight.occupied() as i64),
            ),
        ])
    }
}

impl Pollers {
    /// Spawns the poller threads, named `{name}-io-{index}`. Poller 0
    /// accepts and deals connections round-robin to every poller.
    pub fn spawn<H: Handler>(
        self,
        handler: Arc<H>,
        name: &str,
    ) -> std::io::Result<Vec<thread::JoinHandle<()>>> {
        let mut listener = Some(self.listener);
        let mut epolls = self.epolls.into_iter();
        (0..self.io.inboxes.len())
            .map(|p| {
                let io = Arc::clone(&self.io);
                let handler = Arc::clone(&handler);
                let listener = listener.take();
                let ep = epolls.next();
                thread::Builder::new()
                    .name(format!("{name}-io-{p}"))
                    .spawn(move || match ep {
                        Some(ep) => epoll_loop(&io, &*handler, p, listener, ep),
                        None => event_loop(&io, &*handler, p, listener),
                    })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Accept
// ---------------------------------------------------------------------------

/// Accept-side state an accepting poller carries across iterations.
#[derive(Default)]
struct AcceptState {
    /// Round-robin cursor over poller inboxes.
    next_inbox: usize,
    /// Set after a resource-exhaustion accept error: no accept attempts
    /// until this instant. Retrying `EMFILE` hot frees nothing and
    /// starves the connections that already exist.
    backoff_until: Option<Instant>,
}

/// Drains the listener's accept queue, triaging errors: `Interrupted`
/// retries immediately, `WouldBlock` ends the batch, resource
/// exhaustion counts `faults.accept_errors` and backs accepts off for
/// one poll interval, and the `max_conns` cap sheds with a best-effort
/// `overloaded` reply before close. Accepted connections are handed to
/// `deliver` with their target poller index. Returns true if any were
/// accepted.
fn drain_accepts(
    io: &IoLoop,
    handler: &impl Handler,
    listener: &TcpListener,
    state: &mut AcceptState,
    mut deliver: impl FnMut(usize, Conn),
) -> bool {
    if let Some(until) = state.backoff_until {
        if Instant::now() < until {
            return false;
        }
        state.backoff_until = None;
    }
    let mut progress = false;
    loop {
        // Accept first, shim second: the scripted seam only fires once
        // a real connection is pending, so an idle sweep iteration is a
        // plain `WouldBlock` and never consumes a scripted verdict.
        let attempt = match listener.accept() {
            Ok((stream, _)) => io.config.shim.accept_result().map(|()| stream),
            Err(e) => Err(e),
        };
        match attempt {
            Ok(stream) => {
                progress = true;
                let conn_id = io.next_conn.fetch_add(1, Ordering::SeqCst);
                if !io.config.shim.allow_accept(conn_id) {
                    bump(&io.counters.conn_reset);
                    continue;
                }
                let max = io.config.max_conns;
                if max > 0 && io.open_conns.occupied() >= max {
                    shed_accept(io, handler, stream, max);
                    continue;
                }
                let target = state.next_inbox % io.inboxes.len();
                state.next_inbox = state.next_inbox.wrapping_add(1);
                match Conn::accept(stream, io, conn_id, target) {
                    Some(conn) => deliver(target, conn),
                    None => bump(&io.counters.conn_reset),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if would_block(&e) => break,
            Err(e) => {
                bump(&io.counters.accept_errors);
                if sys::is_resource_exhaustion(&e) {
                    state.backoff_until = Some(Instant::now() + io.config.poll_interval);
                }
                break;
            }
        }
    }
    progress
}

/// Best-effort `overloaded` reply to a connection shed at the
/// `max_conns` cap, then close. One nonblocking write: a peer whose
/// socket cannot take a single frame just sees the close. Shedding
/// happens before the first frame is sniffed, so the reply is always a
/// JSON line — binary clients treat the close itself as the signal.
fn shed_accept(io: &IoLoop, handler: &impl Handler, stream: TcpStream, cap: usize) {
    bump(&io.counters.accept_shed);
    handler.loop_error(ErrorCode::Overloaded);
    let resp = Response::Error {
        id: None,
        code: ErrorCode::Overloaded,
        message: format!("connection limit ({cap}) reached"),
    };
    let mut line = resp.encode();
    line.push('\n');
    let _ = stream.set_nonblocking(true);
    let _ = (&stream).write(line.as_bytes());
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------------
// The write path
// ---------------------------------------------------------------------------

/// Moves a sweep's coalesced replies into the connection's output
/// buffer and flushes what fits. Only called with nothing outstanding
/// ahead of them: [`settle_inline`] has taken any that must wait.
fn flush_replies(io: &IoLoop, conn: &ConnShared, replies: &mut Vec<u8>) {
    if !replies.is_empty() {
        write_frames(io, conn, |w| w.pending.extend_from_slice(replies));
        replies.clear();
    }
}

/// Inline replies answered while a deferred frame is outstanding take
/// the next turn on the wire instead of going out with the sweep. With
/// nothing outstanding — one atomic load — they stay in `replies`, and
/// the sweep writes them once, without taking the lock per frame.
fn settle_inline(io: &IoLoop, conn: &ConnShared, replies: &mut Vec<u8>) {
    if replies.is_empty() || conn.inflight.load(Ordering::Acquire) == 0 {
        return;
    }
    write_frames(io, conn, |w| w.order.inline(replies, &mut w.pending));
    replies.clear();
}

/// Fills deferred frame `seq`'s turn with `frame` (empty when nothing
/// is to be written), writing every reply now due.
fn deliver(io: &IoLoop, conn: &ConnShared, seq: u64, frame: &[u8]) {
    write_frames(io, conn, |w| w.order.deliver(seq, frame, &mut w.pending));
}

/// Lets `add` append frames to the connection's output buffer, then
/// drives the socket. Never blocks and never drops accepted bytes: on
/// `WouldBlock` the tail stays in the buffer for later flushes. A dead
/// connection discards what was added; its turns still advance.
fn write_frames(io: &IoLoop, conn: &ConnShared, add: impl FnOnce(&mut ConnWriter)) {
    let mut w = conn.writer.lock();
    add(&mut w);
    conn.inflight
        .store(w.order.outstanding(), Ordering::Release);
    if conn.dead.load(Ordering::Acquire) {
        w.pending.clear();
        w.sent = 0;
        return;
    }
    drive_writer(io, conn, &mut w);
}

/// Retries any buffered output without blocking. Returns `true` while
/// unwritten bytes remain.
fn flush_pending(io: &IoLoop, conn: &ConnShared) -> bool {
    let mut w = conn.writer.lock();
    drive_writer(io, conn, &mut w);
    w.has_pending()
}

/// Writes as much buffered output as the socket accepts. A socket that
/// refuses all bytes for `write_stall` is a peer that stopped reading:
/// the connection is marked dead and the buffer discarded.
fn drive_writer(io: &IoLoop, conn: &ConnShared, w: &mut ConnWriter) {
    while w.sent < w.pending.len() {
        match w.sink.write(&w.pending[w.sent..]) {
            Ok(0) => return mark_write_dead(io, conn, w),
            Ok(k) => {
                w.sent += k;
                w.stalled_since = None;
            }
            Err(e) if would_block(&e) => {
                let since = *w.stalled_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= io.config.write_stall {
                    return mark_write_dead(io, conn, w);
                }
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return mark_write_dead(io, conn, w),
        }
    }
    if w.sent == w.pending.len() {
        w.pending.clear();
        w.sent = 0;
    } else if w.sent >= OUT_BUF_COMPACT {
        w.pending.drain(..w.sent);
        w.sent = 0;
    }
}

fn mark_write_dead(io: &IoLoop, conn: &ConnShared, w: &mut ConnWriter) {
    conn.dead.store(true, Ordering::Release);
    bump(&io.counters.conn_reset);
    w.pending.clear();
    w.sent = 0;
    w.stalled_since = None;
    // A dead connection must be reaped; an epoll poller blocked in
    // `wait` would otherwise not notice until its timeout.
    conn.wake();
}

// ---------------------------------------------------------------------------
// Sweep readiness: the portable fallback
// ---------------------------------------------------------------------------

/// The poller loop: accept (poller 0), adopt handed-off connections,
/// sweep each connection for readable frames, back off adaptively when
/// idle. Exits when shutdown is set and every in-flight reply has been
/// written.
fn event_loop<H: Handler>(
    io: &Arc<IoLoop>,
    handler: &H,
    index: usize,
    mut listener: Option<TcpListener>,
) {
    let mut local = H::Local::default();
    let sockets = Sockets { ep: None };
    let mut conns: Vec<Conn> = Vec::new();
    let mut accepts = AcceptState::default();
    let mut idle_spins = 0u32;
    // Reused across sweeps: inline replies are batched here and written
    // with one syscall per connection per sweep.
    let mut replies = Vec::new();
    loop {
        let mut progress = false;
        let draining = io.is_shutting_down();
        if draining {
            // Dropping the listener refuses new connections immediately.
            listener = None;
        } else if let Some(l) = &listener {
            progress |= drain_accepts(io, handler, l, &mut accepts, |target, conn| {
                if target == index {
                    conns.push(conn);
                } else {
                    io.inboxes[target].lock().push(conn);
                }
            });
        }
        {
            let mut inbox = io.inboxes[index].lock();
            if !inbox.is_empty() {
                progress = true;
                conns.append(&mut inbox);
            }
        }
        // The handler's sockets get their sweep first, so a reply sent
        // from them is picked up by this pass's connection sweep.
        handler.poll_sockets(&mut local, Ready::All, sockets);
        conns.retain_mut(|conn| {
            let (local, progress) = (&mut local, &mut progress);
            sweep_conn(
                io,
                handler,
                local,
                sockets,
                conn,
                draining,
                progress,
                &mut replies,
            )
        });
        let deadline = handler.next_deadline(&local);
        if draining && conns.is_empty() && deadline.is_none() {
            return;
        }
        if progress {
            idle_spins = 0;
        } else {
            idle_spins = idle_spins.saturating_add(1);
            if idle_spins > 3 {
                // Exponential backoff from 50 µs. There is no readiness
                // wakeup — a sleeping poller is blind — so the sleep cap
                // balances wake latency against sweep cost. A flat 1 ms
                // cap meant ONE idle connection held the poller at ~1k
                // full sweeps/sec forever; instead the cap scales with
                // the sweep's own cost (~20 µs of allowance per
                // connection), so a near-empty poller naps cheaply while
                // a loaded one still wakes fast. Only an empty poller
                // may back off all the way to the poll interval.
                let exp = (idle_spins - 3).min(12);
                let backoff = Duration::from_micros(50u64 << exp);
                let interval = io.config.poll_interval;
                let cap = if conns.is_empty() {
                    interval
                } else {
                    Duration::from_micros(20 * conns.len() as u64)
                        .min(interval)
                        .max(Duration::from_millis(1).min(interval))
                };
                // A handler timer must not sleep through its deadline.
                let until_deadline =
                    deadline.map_or(cap, |d| d.saturating_duration_since(Instant::now()));
                thread::sleep(backoff.min(cap).min(until_deadline));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Epoll readiness: wakeups over the same per-connection logic
// ---------------------------------------------------------------------------

/// Registration token for the accept listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Registration token for the poller's eventfd wakeup channel.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// The descriptor epoll registers for a socket.
#[cfg(unix)]
fn raw_fd(sock: &impl std::os::fd::AsRawFd) -> sys::RawFd {
    sock.as_raw_fd()
}

/// Off unix there is no epoll: [`open_readiness`] fails before any
/// descriptor is registered, so this value is never used.
#[cfg(not(unix))]
fn raw_fd<T>(_sock: &T) -> sys::RawFd {
    -1
}

/// Opens one epoll instance and wakeup channel per poller, with the
/// listener registered on poller 0's instance. Any failure — the fault
/// shim's scripted [`IoShim::readiness_setup`] error, `epoll_create1`
/// or `eventfd` refusing under fd exhaustion, or `Unsupported` off
/// Linux — sends every poller to the sweep loop instead: readiness is
/// an optimisation, not a correctness requirement.
fn open_readiness(
    shim: &dyn IoShim,
    listener: &TcpListener,
    pollers: usize,
) -> std::io::Result<Vec<(sys::Epoll, Arc<sys::EventFd>)>> {
    shim.readiness_setup()?;
    (0..pollers)
        .map(|p| {
            let ep = sys::Epoll::new()?;
            let waker = Arc::new(sys::EventFd::new()?);
            ep.add(waker.raw_fd(), WAKER_TOKEN, sys::Interest::READ)?;
            if p == 0 {
                ep.add(raw_fd(listener), LISTENER_TOKEN, sys::Interest::READ)?;
            }
            Ok((ep, waker))
        })
        .collect()
}

/// A connection owned by an epoll poller: the sweep loop's [`Conn`]
/// plus the interest currently registered with the kernel.
struct EpollConn {
    conn: Conn,
    armed: sys::Interest,
}

fn conn_fd(conn: &Conn) -> sys::RawFd {
    raw_fd(conn.reader.get_ref().get_ref())
}

/// Adds a connection to the poller's slab and registers its socket for
/// read readiness. `None` (with `conn_reset` recorded) if the kernel
/// refuses the registration — the socket died between accept and here.
fn epoll_insert(
    ep: &sys::Epoll,
    slots: &mut Vec<Option<EpollConn>>,
    free: &mut Vec<usize>,
    io: &IoLoop,
    conn: Conn,
) -> Option<usize> {
    let slot = free.pop().unwrap_or_else(|| {
        slots.push(None);
        slots.len() - 1
    });
    if ep
        .add(conn_fd(&conn), slot as u64, sys::Interest::READ)
        .is_err()
    {
        free.push(slot);
        bump(&io.counters.conn_reset);
        return None;
    }
    conn.shared.slot.store(slot, Ordering::Relaxed);
    slots[slot] = Some(EpollConn {
        conn,
        armed: sys::Interest::READ,
    });
    Some(slot)
}

/// The readiness-driven poller. Per-connection semantics are identical
/// to [`event_loop`] — the work is the same [`sweep_conn`], so the
/// fault shim, reply arbitration, and write-stall accounting are all
/// shared — but instead of sweeping every connection every iteration
/// the poller blocks in `epoll_wait` and services only what the kernel
/// (or a worker's eventfd wakeup) reports. Idle connections therefore
/// cost nothing per iteration; that is the whole point of readiness.
///
/// Level-triggered interest is deliberate: the fault shim may answer a
/// readable wakeup with an injected `WouldBlock`, and level semantics
/// re-deliver the event on the next wait instead of losing it.
///
/// `ep` comes from [`open_readiness`], with this poller's waker (and,
/// on the accepting poller, the listener) already registered.
fn epoll_loop<H: Handler>(
    io: &Arc<IoLoop>,
    handler: &H,
    index: usize,
    mut listener: Option<TcpListener>,
    mut ep: sys::Epoll,
) {
    use std::collections::HashSet;

    let mut local = H::Local::default();
    // Ready handler-socket tokens, and the handler's next timer.
    let mut ready: Vec<u64> = Vec::new();
    let mut deadline: Option<Instant> = None;
    ON_POLLER.with(|on| *on.borrow_mut() = Some((index, Vec::new())));

    let waker = Arc::clone(&io.wakers[index]);
    let interval = io.config.poll_interval;
    let mut listener_armed = listener.is_some();

    // Owned connections; the epoll token is the slot index.
    let mut slots: Vec<Option<EpollConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    // Slots needing periodic timer sweeps (frames in flight, buffered
    // output, or closing): `reply_timeout` and `write_stall` fire at
    // poll-interval granularity, exactly like the sweep loop.
    let mut watched: HashSet<usize> = HashSet::new();
    // Slots with complete frames buffered in the reader while the
    // socket itself is drained: readiness will never fire for those
    // bytes, so the next wait must not block.
    let mut hot: Vec<usize> = Vec::new();
    let mut due: Vec<usize> = Vec::new();
    let mut events: Vec<sys::Event> = Vec::new();
    let mut accepts = AcceptState::default();
    let mut last_timer = Instant::now();
    let mut replies = Vec::new();

    loop {
        let draining = io.is_shutting_down();
        if draining {
            if let Some(l) = listener.take() {
                // Dropping the listener refuses new connections now.
                let _ = ep.delete(raw_fd(&l));
                listener_armed = false;
            }
        }

        // How long may the wait block? Buffered frames demand an
        // immediate pass; anything time-driven — timer sweeps, accept
        // backoff, drain — caps it at the poll interval; a fully idle
        // poller blocks until the kernel or a worker wakes it.
        let timeout = if !hot.is_empty() {
            Some(Duration::ZERO)
        } else if draining {
            Some(Duration::from_millis(1).min(interval))
        } else if !watched.is_empty() || accepts.backoff_until.is_some() {
            Some(interval)
        } else {
            None
        };
        // The handler's next timer caps the wait, at its own instant
        // rather than at the next poll interval.
        let timeout = match deadline {
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                Some(timeout.map_or(left, |t| t.min(left)))
            }
            None => timeout,
        };
        if ep.wait(&mut events, timeout).is_err() {
            // A broken wait must not busy-loop; pace by the interval
            // and keep sweeping via the timer path below.
            events.clear();
            thread::sleep(interval);
        }

        due.clear();
        let mut accept_ready = false;
        let mut waker_fired = false;
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => accept_ready = true,
                WAKER_TOKEN => waker_fired = true,
                t if t & HANDLER_TOKEN != 0 => ready.push(t & !HANDLER_TOKEN),
                t => due.push(t as usize),
            }
        }
        if waker_fired {
            waker.drain();
            // A worker finished (or a write died): the affected
            // connections are exactly the watched ones.
            due.extend(watched.iter().copied());
        }

        // Adopt connections handed over by the accepting poller.
        let adopted = std::mem::take(&mut *io.inboxes[index].lock());
        for conn in adopted {
            if let Some(slot) = epoll_insert(&ep, &mut slots, &mut free, io, conn) {
                live += 1;
                due.push(slot);
            }
        }

        // Accept: level-triggered, so gating on readiness loses
        // nothing; backoff expiry must retry even though the listener
        // is deregistered while it lasts.
        if let Some(l) = &listener {
            if accept_ready || accepts.backoff_until.is_some() {
                drain_accepts(io, handler, l, &mut accepts, |target, conn| {
                    if target == index {
                        if let Some(slot) = epoll_insert(&ep, &mut slots, &mut free, io, conn) {
                            live += 1;
                            due.push(slot);
                        }
                    } else {
                        io.inboxes[target].lock().push(conn);
                        if let Some(w) = io.wakers.get(target) {
                            w.signal();
                        }
                    }
                });
                // Keep the registration in step with backoff: a waiting
                // backlog would otherwise wake the poller continuously
                // during a backoff it cannot act on.
                let want = accepts.backoff_until.is_none();
                if want != listener_armed {
                    let done = if want {
                        ep.add(raw_fd(l), LISTENER_TOKEN, sys::Interest::READ)
                    } else {
                        ep.delete(raw_fd(l))
                    };
                    if done.is_ok() {
                        listener_armed = want;
                    }
                }
            }
        }

        // The handler's ready sockets and due timers, then — in this same
        // pass — the connections whose replies they sent.
        if !ready.is_empty() || deadline.is_some_and(|d| d <= Instant::now()) {
            let sockets = Sockets { ep: Some(&ep) };
            handler.poll_sockets(&mut local, Ready::Tokens(&ready), sockets);
            ready.clear();
        }
        take_released(&mut due);

        // Merge time-driven work: reader-buffered slots always, watched
        // slots at poll-interval cadence, everything during a drain.
        due.append(&mut hot);
        if !watched.is_empty() && last_timer.elapsed() >= interval {
            due.extend(watched.iter().copied());
            last_timer = Instant::now();
        }
        if draining {
            due.clear();
            due.extend(
                slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|_| i)),
            );
        }

        for &slot in &due {
            // A slot may appear twice (event + timer) or have been
            // dropped earlier in this pass; servicing is idempotent
            // and empty slots are skipped.
            let keep = {
                let Some(ec) = slots.get_mut(slot).and_then(Option::as_mut) else {
                    continue;
                };
                let mut progress = false;
                let sockets = Sockets { ep: Some(&ep) };
                sweep_conn(
                    io,
                    handler,
                    &mut local,
                    sockets,
                    &mut ec.conn,
                    draining,
                    &mut progress,
                    &mut replies,
                )
            };
            if !keep {
                if let Some(ec) = slots[slot].take() {
                    let _ = ep.delete(conn_fd(&ec.conn));
                    live -= 1;
                }
                watched.remove(&slot);
                free.push(slot);
                continue;
            }
            let Some(ec) = slots.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            // Re-arm for the connection's new state. Read interest is
            // dropped while the connection's window is full —
            // level-triggered readiness would spin until a reply frees
            // a turn — and restored once one does; write interest
            // mirrors buffered output, so `EPOLLOUT` re-arming flows
            // through the same write-stall accounting as the sweep loop.
            let inflight = ec.conn.shared.inflight.load(Ordering::Acquire);
            let desired = sys::Interest {
                readable: !draining && !ec.conn.closing && inflight < WINDOW,
                writable: ec.conn.shared.writer.lock().has_pending(),
            };
            if desired != ec.armed && ep.modify(conn_fd(&ec.conn), slot as u64, desired).is_ok() {
                ec.armed = desired;
            }
            let needs_timer = inflight > 0 || ec.conn.closing || desired.writable;
            if needs_timer {
                watched.insert(slot);
            } else {
                watched.remove(&slot);
            }
            if desired.readable && ec.conn.reader.framer().has_buffered() {
                hot.push(slot);
            }
        }

        // Replies sent while the connections were swept (a handler that
        // answered another connection's frame) re-arm on the next pass,
        // which must not block.
        take_released(&mut hot);
        deadline = handler.next_deadline(&local);
        if draining && live == 0 && io.inboxes[index].lock().is_empty() && deadline.is_none() {
            return;
        }
    }
}

/// Moves the slots whose replies this poller sent itself into `into`.
fn take_released(into: &mut Vec<usize>) {
    ON_POLLER.with(|on| {
        if let Some((_, released)) = &mut *on.borrow_mut() {
            into.append(released);
        }
    });
}

// ---------------------------------------------------------------------------
// Per-connection service
// ---------------------------------------------------------------------------

/// Appends a `bad_request` for a frame the loop could not hand over.
fn protocol_error(handler: &impl Handler, replies: &mut Vec<u8>, codec: WireCodec, message: &str) {
    handler.loop_error(ErrorCode::BadRequest);
    let resp = Response::Error {
        id: None,
        code: ErrorCode::BadRequest,
        message: message.into(),
    };
    codec.encode_response(&resp, replies);
}

/// Prunes the connection's answered deferred frames and answers
/// `internal` for those whose worker outlived the reply timeout.
fn expire_deferred(io: &IoLoop, handler: &impl Handler, conn: &mut Conn, progress: &mut bool) {
    let shared = &conn.shared;
    conn.deferred.retain(|d| {
        if !d.answered.load(Ordering::Acquire) {
            if d.since.elapsed() <= io.config.reply_timeout {
                return true;
            }
            // The worker never answered; claim the reply ourselves.
            if claim_reply(&d.answered) {
                handler.loop_error(ErrorCode::Internal);
                let mut frame = Vec::new();
                d.codec.encode_response(
                    &Response::Error {
                        id: d.id,
                        code: ErrorCode::Internal,
                        message: "worker did not answer".into(),
                    },
                    &mut frame,
                );
                deliver(io, shared, d.seq, &frame);
            }
        }
        *progress = true;
        false
    });
}

/// One sweep over one connection. Returns `false` to drop it.
#[allow(clippy::too_many_arguments)]
fn sweep_conn<H: Handler>(
    io: &Arc<IoLoop>,
    handler: &H,
    local: &mut H::Local,
    sockets: Sockets<'_>,
    conn: &mut Conn,
    draining: bool,
    progress: &mut bool,
    replies: &mut Vec<u8>,
) -> bool {
    replies.clear();
    if conn.shared.dead.load(Ordering::Acquire) {
        return false;
    }
    expire_deferred(io, handler, conn, progress);
    // Retry output a previous sweep (or a worker) could not finish —
    // the partial-write tail must drain before anything else is read.
    let has_pending = flush_pending(io, &conn.shared);
    if conn.shared.dead.load(Ordering::Acquire) {
        return false;
    }
    if draining || conn.closing {
        // Read side is done (shutdown drain, EOF, or torn frame): hold
        // the connection open only until every owed reply is written. A
        // worker that never answers is timed out above, and a peer that
        // will not take the bytes is killed by the write-stall timer, so
        // this cannot wedge the poller.
        return has_pending || conn.shared.inflight.load(Ordering::Acquire) > 0;
    }
    let mut keep = true;
    for _ in 0..MAX_LINES_PER_SWEEP {
        if conn.shared.inflight.load(Ordering::Acquire) >= WINDOW {
            // The window is full: the rest waits in the socket (and the
            // reader) until a reply frees a turn.
            break;
        }
        let (codec, decoded) = match conn.reader.poll_line() {
            Ok(Frame::Pending) => break,
            Ok(Frame::Eof) => {
                conn.closing = true;
                break;
            }
            Ok(Frame::Line(line)) => (WireCodec::Json, Request::decode(line)),
            Ok(Frame::Binary(payload)) => {
                (WireCodec::Binary, WireCodec::Binary.decode_request(payload))
            }
            Err(e) => {
                let message = match e {
                    FrameError::TooLong => "frame exceeds the maximum length",
                    FrameError::NotUtf8 => "frame is not valid UTF-8",
                    FrameError::Corrupt => {
                        // A corrupt binary length is recoverable: the
                        // reader resyncs to the next plausible frame
                        // boundary and the connection keeps going.
                        bump(&io.counters.torn_frame);
                        "binary frame length is corrupt"
                    }
                    FrameError::Torn => {
                        // The peer closed its write half mid-frame; tell
                        // it (it may still read) and drain out.
                        bump(&io.counters.torn_frame);
                        conn.closing = true;
                        "frame torn by EOF mid-line"
                    }
                    FrameError::Io(_) => {
                        bump(&io.counters.conn_reset);
                        keep = false;
                        break;
                    }
                };
                protocol_error(handler, replies, conn.reader.framer().codec(), message);
                settle_inline(io, &conn.shared, replies);
                if conn.closing {
                    break;
                }
                continue;
            }
        };
        *progress = true;
        let request = match decoded {
            Ok(request) => request,
            Err(e) => {
                protocol_error(handler, replies, codec, &e.message);
                settle_inline(io, &conn.shared, replies);
                continue;
            }
        };
        let mut out = Dispatch {
            io,
            conn: &conn.shared,
            replies,
            codec,
            deferred: None,
            sockets,
        };
        handler.handle(local, request, conn.reader.framer().frame(), &mut out);
        if let Some(deferred) = out.deferred {
            // A reply already sent (a fast worker, or a hand-off the
            // handler answered itself) leaves nothing to time out.
            if !deferred.answered.load(Ordering::Acquire) {
                conn.deferred.push(deferred);
            }
        }
        settle_inline(io, &conn.shared, replies);
        if conn.shared.dead.load(Ordering::Acquire) {
            keep = false;
            break;
        }
    }
    flush_replies(io, &conn.shared, replies);
    if conn.shared.dead.load(Ordering::Acquire) {
        return false;
    }
    if conn.closing {
        // Keep only while owed replies remain — buffered, or a late
        // worker's; they drain on subsequent sweeps.
        return conn.shared.writer.lock().has_pending()
            || conn.shared.inflight.load(Ordering::Acquire) > 0;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_counters_surface_in_snapshot() {
        let c = LoopCounters::default();
        for counter in [
            &c.conn_reset,
            &c.conn_reset,
            &c.torn_frame,
            &c.reply_dropped,
        ] {
            bump(counter);
        }
        for _ in 0..3 {
            bump(&c.accept_errors);
        }
        bump(&c.accept_shed);
        let faults = c.faults_json();
        assert_eq!(faults.get("conn_reset").unwrap().as_u64(), Some(2));
        assert_eq!(faults.get("torn_frame").unwrap().as_u64(), Some(1));
        assert_eq!(faults.get("reply_dropped").unwrap().as_u64(), Some(1));
        assert_eq!(faults.get("accept_errors").unwrap().as_u64(), Some(3));
        assert_eq!(faults.get("accept_shed").unwrap().as_u64(), Some(1));
    }
}
