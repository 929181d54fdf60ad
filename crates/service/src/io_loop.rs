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
//! `internal` itself if the worker never does.
//!
//! One poller thread owns the listener and every connection: it accepts
//! each connection straight into its slab, and only it reads or writes a
//! client socket, which is one descriptor with no lock around it. A
//! worker encodes its reply and posts it to the poller's inbox and wakes
//! it; the poller checks that the slot still holds the connection the
//! reply was meant for, files the reply in its turn, and writes each
//! connection at most once per pass. A connection keeps reading while
//! deferred frames are outstanding, up to a window of [`WINDOW`] frames;
//! replies that finish early, and inline answers read behind an
//! outstanding frame, wait their turn, so every reply goes out in
//! request order.
//!
//! A handler may also keep state on the poller itself
//! ([`Handler::Local`], the poller's state, touched only by its thread)
//! and drive sockets of its own there: it registers
//! them through [`Sockets`] under tokens of its choosing, the loop calls
//! [`Handler::poll_sockets`] with the tokens the kernel reported ready,
//! and [`Handler::next_deadline`] caps how long the poller may block, so
//! a handler's timers fire on time instead of at the next
//! `poll_interval`. A [`Reply`] sent from the poller — from any of these
//! callbacks — needs no wakeup: the poller reads its own inbox before it
//! waits again.
//! `gb-router` relays upstream this way; `gb-serve` keeps no local state
//! and registers nothing.
//!
//! The readiness backend is a platform decision, not an option. On
//! Linux the poller blocks in `epoll_wait` (mail wakes it through a
//! socket pair, [`sys::Waker`]) and services only the connections the
//! kernel reports or a reply names, so idle connections cost nothing.
//! When the epoll or waker setup fails at startup — and on every
//! non-Linux target, where `gb-sys` reports it as unsupported — the
//! poller falls back to sweeping: every pass probes every connection,
//! and hands the handler every pass to probe its own sockets the same
//! way, napping with an adaptive back-off when nothing moves, in
//! `park_timeout` so that mail cuts the nap short. Both backends run one
//! loop (`poller_loop`), which consults the backend at three points
//! only: how a pass waits, which connections are due, and whether
//! sockets are registered with the kernel. Accept, the inbox, the
//! handler's sockets and deadline, the per-connection `sweep_conn`, the
//! drain and the exit test are written once.
//! [`IoLoop::engine`] names the backend the poller actually runs
//! (`"epoll"` or `"sweep"`).
//!
//! A process runs one poller: framing and replying are cheap next to a
//! solve, and a deployment that needs more runs more `gb-serve`
//! processes behind `gb-router`.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
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
/// pipelining client cannot starve its siblings.
const MAX_LINES_PER_SWEEP: usize = 32;

/// Compaction threshold for a connection's output buffer: once this many
/// written bytes accumulate at the front, the buffer is shifted down.
const OUT_BUF_COMPACT: usize = 64 * 1024;

/// The loop's settings; each tier derives them from its own
/// configuration.
#[derive(Clone, Debug)]
pub struct LoopConfig {
    /// Timer granularity: how often in-flight and write-stalled
    /// connections are re-checked, the accept backoff after fd
    /// exhaustion, and the ceiling on the sweep fallback's idle backoff.
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
    /// Finished replies the loop did not write: abandoned, sent after
    /// the connection was gone, or beaten by the reply timeout.
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
    /// The poller's state for the handler, created on and touched only
    /// by the poller's thread (`()` when the handler keeps none).
    type Local: Default;

    /// Serves one decoded request. `raw` is the whole frame exactly as
    /// received: the JSON line with its newline, or the binary payload
    /// with its header. Answer inline through `out`, or take
    /// [`out.defer`](Dispatch::defer) and answer from a worker — or from
    /// the poller, through `local` and the sockets it registers.
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

/// The poller's registry for the handler's own sockets. Registrations are
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

// ---------------------------------------------------------------------------
// Connection and reply plumbing
// ---------------------------------------------------------------------------

/// Where a deferred frame's reply goes: the connection's slot, and its
/// accept-order id, which tells the connection from a later one that
/// reuses the slot.
#[derive(Clone, Copy, Debug)]
struct Address {
    slot: usize,
    conn_id: u64,
}

/// A connection's output: replies in request order, and the bytes the
/// socket has not yet taken. Only the poller touches it.
///
/// Every reply — inline answers, workers' replies, the loop's own
/// errors — joins `pending` in its turn (`order` decides when), and the
/// poller writes as much as the socket will take; the unwritten tail
/// stays buffered — never dropped, never duplicated — and later passes
/// retry it. `sent` marks the start of the unwritten region so retries
/// cannot resend bytes.
#[derive(Default)]
struct Output {
    order: ReplyOrder,
    pending: Vec<u8>,
    sent: usize,
    /// First `WouldBlock` with output pending; cleared whenever the
    /// socket accepts bytes again.
    stalled_since: Option<Instant>,
    /// The socket failed on write; the poller drops the connection.
    dead: bool,
}

impl Output {
    fn has_pending(&self) -> bool {
        self.sent < self.pending.len()
    }

    /// Queues inline replies: straight behind the output with nothing
    /// outstanding, otherwise in the next turn on the wire.
    fn inline(&mut self, replies: &mut Vec<u8>) {
        if !replies.is_empty() {
            self.order.inline(replies, &mut self.pending);
            replies.clear();
        }
    }

    /// Fills deferred frame `seq`'s turn with `frame` (empty when
    /// nothing is to be written), queueing every reply now due.
    fn deliver(&mut self, seq: u64, frame: &[u8]) {
        self.order.deliver(seq, frame, &mut self.pending);
    }

    /// Writes as much buffered output as the socket accepts, without
    /// blocking. A socket that refuses all bytes for `write_stall` is a
    /// peer that stopped reading: the connection is marked dead and the
    /// buffer discarded.
    fn write(&mut self, io: &IoLoop, mut sink: &ShimStream) {
        while !self.dead && self.sent < self.pending.len() {
            match sink.write(&self.pending[self.sent..]) {
                Ok(0) => self.die(io),
                Ok(k) => {
                    self.sent += k;
                    self.stalled_since = None;
                }
                Err(e) if would_block(&e) => {
                    let since = *self.stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= io.config.write_stall {
                        self.die(io);
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.die(io),
            }
        }
        if self.sent == self.pending.len() {
            self.pending.clear();
            self.sent = 0;
        } else if self.sent >= OUT_BUF_COMPACT {
            self.pending.drain(..self.sent);
            self.sent = 0;
        }
    }

    fn die(&mut self, io: &IoLoop) {
        self.dead = true;
        bump(&io.counters.conn_reset);
        self.pending.clear();
        self.sent = 0;
    }
}

/// A deferred frame the poller still waits on, for its reply timeout.
struct Deferred {
    /// Its turn on the wire.
    seq: u64,
    /// When it was deferred.
    since: Instant,
    /// Request id and codec, for the timeout error frame.
    id: Option<u64>,
    codec: WireCodec,
}

/// One connection owned by the I/O poller: the one descriptor, read and
/// written by the poller alone.
struct Conn {
    reader: FrameReader<ShimStream>,
    to: Address,
    /// Set when the poller drops the connection; [`Reply::peer_gone`].
    gone: Arc<AtomicBool>,
    out: Output,
    /// Deferred frames not yet answered, oldest first (at most
    /// [`WINDOW`]).
    deferred: Vec<Deferred>,
    /// The read side is finished (EOF or torn frame); the connection
    /// stays around only until owed replies drain.
    closing: bool,
    /// The interest registered for the socket with the kernel (epoll
    /// only).
    armed: sys::Interest,
    /// Open-connection gauge slot, released when the poller drops us.
    _open: SlotToken,
}

impl Conn {
    /// Sets up an accepted stream. `None` means the socket died between
    /// `accept` and setup (an `fcntl` failure, typical under fd pressure)
    /// — the caller must record the death; a client that connected
    /// successfully must not vanish without a metric.
    fn accept(stream: TcpStream, io: &IoLoop, conn_id: u64) -> Option<Conn> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).ok()?;
        Some(Conn {
            reader: FrameReader::new(ShimStream::new(
                stream,
                Arc::clone(&io.config.shim),
                conn_id,
            )),
            to: Address { slot: 0, conn_id },
            gone: Arc::default(),
            out: Output::default(),
            deferred: Vec::new(),
            closing: false,
            armed: sys::Interest::READ,
            _open: io.open_conns.acquire(),
        })
    }

    /// Files the reply of deferred frame `seq` (`None`: abandoned).
    /// Returns whether bytes joined the output; a reply that lost to the
    /// reply timeout is not written.
    fn answer(&mut self, seq: u64, frame: Option<Vec<u8>>) -> bool {
        let Some(i) = self.deferred.iter().position(|d| d.seq == seq) else {
            return false;
        };
        self.deferred.remove(i);
        self.out.deliver(seq, frame.as_deref().unwrap_or_default());
        frame.is_some()
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.gone.store(true, Ordering::Release);
    }
}

/// The poller-side context of one decoded frame: its inline reply
/// buffer and the way to defer the answer to a worker.
pub struct Dispatch<'a> {
    io: &'a Arc<IoLoop>,
    out: &'a mut Output,
    deferred: &'a mut Vec<Deferred>,
    replies: &'a mut Vec<u8>,
    to: Address,
    gone: &'a Arc<AtomicBool>,
    codec: WireCodec,
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
    /// one write per connection per pass.
    pub fn buf(&mut self) -> &mut Vec<u8> {
        self.replies
    }

    /// Defers this frame's answer (at most once per frame): buffered
    /// inline replies go out first, the frame takes the next turn on the
    /// wire, and the returned [`Reply`] fills it. The connection keeps
    /// reading meanwhile, up to [`WINDOW`] outstanding frames. `id`
    /// labels the loop's `internal` error should no reply come within
    /// the reply timeout.
    pub fn defer(&mut self, id: Option<u64>) -> Reply {
        self.out.inline(self.replies);
        let seq = self.out.order.issue();
        self.deferred.push(Deferred {
            seq,
            since: Instant::now(),
            id,
            codec: self.codec,
        });
        Reply {
            io: Arc::clone(self.io),
            to: self.to,
            seq,
            gone: Arc::clone(self.gone),
            _slot: self.io.inflight.acquire(),
        }
    }
}

/// The right to answer one deferred frame. Whoever holds it hands the
/// encoded reply to the poller with [`send`](Self::send),
/// which writes it in the frame's turn: after every earlier frame's
/// answer on the connection, however early it finishes. The poller's
/// reply timeout may answer first; a reply that comes later, or after
/// the connection is gone, is dropped and counted as `reply_dropped`.
pub struct Reply {
    io: Arc<IoLoop>,
    to: Address,
    /// The frame's turn on the wire.
    seq: u64,
    gone: Arc<AtomicBool>,
    /// RAII in-flight slot (`connections.inflight`): released wherever
    /// the reply ends — sent, abandoned, or dropped with its job — so
    /// the gauge cannot leak.
    _slot: SlotToken,
}

impl Reply {
    /// The connection's accept-order id (the fault shim's address).
    pub fn conn_id(&self) -> u64 {
        self.to.conn_id
    }

    /// Whether the connection already closed, so nobody will read a
    /// reply.
    pub fn peer_gone(&self) -> bool {
        self.gone.load(Ordering::Acquire)
    }

    /// Sends `resp` in `codec`.
    pub fn send(self, codec: WireCodec, resp: &Response) {
        let mut frame = Vec::new();
        codec.encode_response(resp, &mut frame);
        self.post(Some(frame));
    }

    /// Sends one complete, already-encoded reply frame.
    pub fn send_bytes(self, frame: &[u8]) {
        self.post(Some(frame.to_vec()));
    }

    /// Gives up on a reply nobody will read ([`peer_gone`](Self::peer_gone)):
    /// the frame's turn passes without a write, so later replies are not
    /// held behind it.
    pub fn abandon(self) {
        self.post(None);
    }

    fn post(self, frame: Option<Vec<u8>>) {
        let finished = Finished {
            to: self.to,
            seq: self.seq,
            frame,
        };
        self.io.mailbox.post(finished);
    }
}

/// A finished reply on its way to the poller.
struct Finished {
    to: Address,
    seq: u64,
    /// `None`: abandoned; the frame's turn passes with no bytes.
    frame: Option<Vec<u8>>,
}

/// The poller's inbox of finished replies, and the way to wake it when
/// one arrives.
#[derive(Default)]
struct Mailbox {
    inbox: Mutex<Vec<Finished>>,
    /// The poller's thread, set as it starts: mail it posts itself needs
    /// no wakeup, and the sweep fallback naps in `park_timeout`.
    thread: OnceLock<Thread>,
    /// Epoll only: the wakeup channel in the poller's epoll set — a
    /// poller blocked in `epoll_wait` sees nothing else.
    waker: Option<sys::Waker>,
}

impl Mailbox {
    /// Adds a reply and wakes the poller. Only mail into an empty inbox
    /// wakes it: earlier mail already did, or was posted by the poller
    /// itself, which checks its inbox before it waits.
    fn post(&self, reply: Finished) {
        let was_empty = {
            let mut inbox = self.inbox.lock();
            let was_empty = inbox.is_empty();
            inbox.push(reply);
            was_empty
        };
        if was_empty
            && !self
                .thread
                .get()
                .is_some_and(|t| t.id() == thread::current().id())
        {
            self.wake();
        }
    }

    fn has_mail(&self) -> bool {
        !self.inbox.lock().is_empty()
    }

    fn wake(&self) {
        match (&self.waker, self.thread.get()) {
            (Some(waker), _) => waker.signal(),
            (None, Some(thread)) => thread.unpark(),
            // Not started yet: its first pass reads the inbox.
            (None, None) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The loop handle
// ---------------------------------------------------------------------------

/// Loop-wide state shared by the poller, the tier's handler and its
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
    /// Finished replies on their way to the poller.
    mailbox: Mailbox,
}

/// The listener and the readiness instance, waiting for
/// [`spawn`](Poller::spawn) to hand them to the poller thread.
pub struct Poller {
    io: Arc<IoLoop>,
    listener: TcpListener,
    ep: Option<sys::Epoll>,
}

impl IoLoop {
    /// Takes over a bound listener and decides the readiness backend,
    /// once: epoll where the kernel provides it, the sweep fallback when
    /// setup fails (always, off Linux). The poller starts with
    /// [`Poller::spawn`], once the handler exists.
    pub fn new(
        listener: TcpListener,
        config: LoopConfig,
    ) -> std::io::Result<(Arc<IoLoop>, Poller)> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (ep, waker) = open_readiness(&*config.shim, &listener).ok().unzip();
        let io = Arc::new(IoLoop {
            config,
            local_addr,
            shutdown: AtomicBool::new(false),
            counters: LoopCounters::default(),
            next_conn: AtomicU64::new(0),
            open_conns: SlotGauge::new(),
            inflight: SlotGauge::new(),
            mailbox: Mailbox {
                waker,
                ..Mailbox::default()
            },
        });
        let poller = Poller {
            io: Arc::clone(&io),
            listener,
            ep,
        };
        Ok((io, poller))
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The readiness backend the poller runs: `"epoll"`, or `"sweep"`
    /// when epoll setup failed or the platform has none.
    pub fn engine(&self) -> &'static str {
        if self.mailbox.waker.is_some() {
            "epoll"
        } else {
            "sweep"
        }
    }

    /// Starts the drain: the listener closes, idle connections drop,
    /// and the poller exits once every deferred reply is written. Safe
    /// to call more than once.
    pub fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the poller so the drain starts now rather than at the end
        // of its wait.
        self.mailbox.wake();
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

impl Poller {
    /// Spawns the poller thread, named `{name}-io-0`. It accepts every
    /// connection and serves it until the drain.
    pub fn spawn<H: Handler>(
        self,
        handler: Arc<H>,
        name: &str,
    ) -> std::io::Result<thread::JoinHandle<()>> {
        let Poller { io, listener, ep } = self;
        thread::Builder::new()
            .name(format!("{name}-io-0"))
            .spawn(move || poller_loop(&io, &*handler, listener, ep))
    }
}

// ---------------------------------------------------------------------------
// Accept
// ---------------------------------------------------------------------------

/// Drains the listener's accept queue, triaging errors: `Interrupted`
/// retries immediately, `WouldBlock` ends the batch, resource
/// exhaustion counts `faults.accept_errors` and backs accepts off for
/// one poll interval (`backoff_until`: retrying `EMFILE` hot frees
/// nothing and starves the connections that already exist), and the
/// `max_conns` cap sheds with a best-effort `overloaded` reply before
/// close. Accepted connections are handed to `add`. Returns true if any
/// were accepted.
fn drain_accepts(
    io: &IoLoop,
    handler: &impl Handler,
    listener: &TcpListener,
    backoff_until: &mut Option<Instant>,
    mut add: impl FnMut(Conn),
) -> bool {
    if let Some(until) = *backoff_until {
        if Instant::now() < until {
            return false;
        }
        *backoff_until = None;
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
                match Conn::accept(stream, io, conn_id) {
                    Some(conn) => add(conn),
                    None => bump(&io.counters.conn_reset),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if would_block(&e) => break,
            Err(e) => {
                bump(&io.counters.accept_errors);
                if sys::is_resource_exhaustion(&e) {
                    *backoff_until = Some(Instant::now() + io.config.poll_interval);
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
// The poller loop, over either readiness backend
// ---------------------------------------------------------------------------

/// Registration token for the accept listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Registration token for the poller's wakeup channel.
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

/// Opens the poller's epoll instance and wakeup channel, with both the
/// waker and the listener registered. Any failure — the fault shim's
/// scripted [`IoShim::readiness_setup`] error, `epoll_create1` or
/// `socketpair` refusing under fd exhaustion, or `Unsupported` off
/// Linux — sends the poller to the sweep fallback instead: readiness is
/// an optimisation, not a correctness requirement.
fn open_readiness(
    shim: &dyn IoShim,
    listener: &TcpListener,
) -> std::io::Result<(sys::Epoll, sys::Waker)> {
    shim.readiness_setup()?;
    let ep = sys::Epoll::new()?;
    let waker = sys::Waker::new()?;
    ep.add(waker.raw_fd(), WAKER_TOKEN, sys::Interest::READ)?;
    ep.add(raw_fd(listener), LISTENER_TOKEN, sys::Interest::READ)?;
    Ok((ep, waker))
}

fn conn_fd(conn: &Conn) -> sys::RawFd {
    raw_fd(conn.reader.get_ref().get_ref())
}

/// Adds an accepted connection to the poller's slab and, under epoll,
/// registers its socket for read readiness. `None` (with `conn_reset`
/// recorded) if the kernel refuses the registration — the socket died
/// between accept and here.
fn insert(
    ep: Option<&sys::Epoll>,
    slots: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    io: &IoLoop,
    mut conn: Conn,
) -> Option<usize> {
    let slot = free.pop().unwrap_or_else(|| {
        slots.push(None);
        slots.len() - 1
    });
    if let Some(ep) = ep {
        if ep
            .add(conn_fd(&conn), slot as u64, sys::Interest::READ)
            .is_err()
        {
            free.push(slot);
            bump(&io.counters.conn_reset);
            return None;
        }
    }
    conn.to.slot = slot;
    slots[slot] = Some(conn);
    Some(slot)
}

/// How long a sweep poller naps before its next pass, after `idle_spins`
/// passes in a row made no progress while it owned `conns` connections:
/// nothing for three passes, then exponentially from 50 µs. Mail — a
/// finished reply — cuts the nap short, but sockets have no readiness
/// wakeup, so the cap balances wake latency against sweep cost. A flat
/// 1 ms cap meant ONE idle connection held the poller at ~1k full
/// sweeps/sec forever; instead the cap scales with the sweep's own cost
/// (~20 µs of allowance per connection), so a near-empty poller naps
/// cheaply while a loaded one still wakes fast.
/// Only an empty poller may back off all the way to the poll interval,
/// and a handler timer caps the nap at its deadline.
fn sweep_backoff(
    idle_spins: u32,
    conns: usize,
    interval: Duration,
    deadline: Option<Instant>,
) -> Option<Duration> {
    if idle_spins <= 3 {
        return None;
    }
    let backoff = Duration::from_micros(50u64 << (idle_spins - 3).min(12));
    let cap = if conns == 0 {
        interval
    } else {
        Duration::from_micros(20 * conns as u64)
            .min(interval)
            .max(Duration::from_millis(1).min(interval))
    };
    let until_deadline = deadline.map_or(cap, |d| d.saturating_duration_since(Instant::now()));
    Some(backoff.min(cap).min(until_deadline))
}

/// The poller loop: accept (until the drain drops the listener), service
/// the handler's own sockets, file the inbox's finished replies, then
/// run [`sweep_conn`] once on every due connection — so the fault shim,
/// the reply timeout and write-stall accounting are the same on either
/// backend. Exits once shutdown is set, every connection has drained,
/// the inbox is empty and the handler has no timer pending.
///
/// The backend `ep` decides three things, and nothing else:
/// - how a pass waits: epoll blocks in `epoll_wait` until the kernel,
///   mail (the waker) or a timer needs the poller; the sweep fallback
///   (`None`) naps by [`sweep_backoff`] after idle passes, in
///   `park_timeout` so mail cuts the nap short;
/// - which connections are due: epoll services the ones the kernel
///   reported, the ones a reply was filed for, the ones waiting on a
///   timer, and the ones with frames already buffered, so idle
///   connections cost nothing; the sweep fallback services every
///   connection every pass, as a drain does on either backend;
/// - whether sockets are registered with the kernel.
///
/// Level-triggered interest is deliberate: the fault shim may answer a
/// readable wakeup with an injected `WouldBlock`, and level semantics
/// re-deliver the event on the next wait instead of losing it. `ep`
/// comes from [`open_readiness`], with the waker and the listener
/// already registered.
fn poller_loop<H: Handler>(
    io: &Arc<IoLoop>,
    handler: &H,
    listener: TcpListener,
    mut ep: Option<sys::Epoll>,
) {
    use std::collections::HashSet;

    let mailbox = &io.mailbox;
    let _ = mailbox.thread.set(thread::current());
    let mut mail = Vec::new();
    let mut local = H::Local::default();
    // Ready handler-socket tokens, and the handler's next timer.
    let mut ready: Vec<u64> = Vec::new();
    let mut deadline: Option<Instant> = None;

    let interval = io.config.poll_interval;
    // Dropped when the drain starts.
    let mut listener = Some(listener);
    let mut listener_armed = true;

    // Owned connections; the epoll token is the slot index.
    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut live = 0usize;
    // Slots needing periodic timer sweeps (frames in flight, buffered
    // output, or closing): `reply_timeout` and `write_stall` fire at
    // poll-interval granularity on either backend.
    let mut watched: HashSet<usize> = HashSet::new();
    // Slots with complete frames buffered in the reader while the
    // socket itself is drained: readiness will never fire for those
    // bytes, so the next wait must not block.
    let mut hot: Vec<usize> = Vec::new();
    let mut due: Vec<usize> = Vec::new();
    let mut events: Vec<sys::Event> = Vec::new();
    // Set after a resource-exhaustion accept error (`drain_accepts`).
    let mut accept_backoff: Option<Instant> = None;
    let mut last_timer = Instant::now();
    // Passes in a row without progress, for the sweep fallback's nap.
    let mut idle_spins = 0u32;
    // Reused across frames: a frame's inline replies, before they take
    // their turn in the connection's output.
    let mut replies = Vec::new();

    loop {
        let draining = io.is_shutting_down();
        if draining {
            if let Some(l) = listener.take() {
                // Dropping the listener refuses new connections now.
                if let Some(ep) = &ep {
                    let _ = ep.delete(raw_fd(&l));
                }
            }
        }

        due.clear();
        // Mail the poller posted itself (a reply sent from a handler
        // callback) woke nobody: it must not wait.
        let has_mail = mailbox.has_mail();
        // The sweep fallback tries the listener every pass.
        let mut accept_ready = ep.is_none();
        match &mut ep {
            Some(ep) => {
                // How long may the wait block? Mail and buffered frames
                // demand an immediate pass; anything time-driven — timer
                // sweeps, accept backoff, drain — caps it at the poll
                // interval; a fully idle poller blocks until the kernel
                // or mail wakes it.
                let timeout = if has_mail || !hot.is_empty() {
                    Some(Duration::ZERO)
                } else if draining {
                    Some(Duration::from_millis(1).min(interval))
                } else if !watched.is_empty() || accept_backoff.is_some() {
                    Some(interval)
                } else {
                    None
                };
                // The handler's next timer caps the wait, at its own
                // instant rather than at the next poll interval.
                let timeout = match deadline {
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        Some(timeout.map_or(left, |t| t.min(left)))
                    }
                    None => timeout,
                };
                if ep.wait(&mut events, timeout).is_err() {
                    // A broken wait must not busy-loop; pace by the
                    // interval and keep sweeping via the timer path.
                    events.clear();
                    thread::sleep(interval);
                }
                for ev in &events {
                    match ev.token {
                        LISTENER_TOKEN => accept_ready = true,
                        WAKER_TOKEN => {
                            // The mail itself is read below, every pass.
                            if let Some(waker) = &mailbox.waker {
                                waker.drain();
                            }
                        }
                        t if t & HANDLER_TOKEN != 0 => ready.push(t & !HANDLER_TOKEN),
                        t => due.push(t as usize),
                    }
                }
            }
            None => {
                if let Some(nap) =
                    sweep_backoff(idle_spins, live, interval, deadline).filter(|_| !has_mail)
                {
                    thread::park_timeout(nap);
                }
            }
        }
        let ep = ep.as_ref();
        let sockets = Sockets { ep };
        let mut progress = false;

        // Accept: level-triggered, so gating on readiness loses
        // nothing; backoff expiry must retry even though the listener
        // is deregistered while it lasts.
        if let Some(l) = &listener {
            if accept_ready || accept_backoff.is_some() {
                progress |= drain_accepts(io, handler, l, &mut accept_backoff, |conn| {
                    if let Some(slot) = insert(ep, &mut slots, &mut free, io, conn) {
                        live += 1;
                        due.push(slot);
                    }
                });
                // Keep the registration in step with backoff: a waiting
                // backlog would otherwise wake the poller continuously
                // during a backoff it cannot act on.
                let want = accept_backoff.is_none();
                if let Some(ep) = ep.filter(|_| want != listener_armed) {
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

        // The handler's ready sockets and due timers (every socket,
        // every pass, under the sweep fallback); the replies they send
        // are filed just below, in this same pass.
        if ep.is_none() || !ready.is_empty() || deadline.is_some_and(|d| d <= Instant::now()) {
            let which = if ep.is_some() {
                Ready::Tokens(&ready)
            } else {
                Ready::All
            };
            handler.poll_sockets(&mut local, which, sockets);
            ready.clear();
        }

        // The inbox: file each reply with its connection — unless the
        // slot no longer holds it.
        std::mem::swap(&mut *mailbox.inbox.lock(), &mut mail);
        progress |= !mail.is_empty();
        for reply in mail.drain(..) {
            let slot = reply.to.slot;
            let written = match slots
                .get_mut(slot)
                .and_then(Option::as_mut)
                .filter(|conn| conn.to.conn_id == reply.to.conn_id)
            {
                Some(conn) => {
                    due.push(slot);
                    conn.answer(reply.seq, reply.frame)
                }
                None => false,
            };
            if !written {
                bump(&io.counters.reply_dropped);
            }
        }

        // Merge time-driven work: reader-buffered slots always, watched
        // slots at poll-interval cadence. A drain, and every pass of the
        // sweep fallback, services every slot instead.
        due.append(&mut hot);
        if !watched.is_empty() && last_timer.elapsed() >= interval {
            due.extend(watched.iter().copied());
            last_timer = Instant::now();
        }
        if draining || ep.is_none() {
            due.clear();
            due.extend(
                slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|_| i)),
            );
        } else {
            // Once each: a slot may be due for several reasons.
            due.sort_unstable();
            due.dedup();
        }

        for &slot in &due {
            // A slot dropped earlier (a failed insert) is skipped.
            let Some(conn) = slots.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let keep = sweep_conn(
                io,
                handler,
                &mut local,
                sockets,
                conn,
                draining,
                &mut progress,
                &mut replies,
            );
            if !keep {
                if let Some(ep) = ep {
                    let _ = ep.delete(conn_fd(conn));
                }
                slots[slot] = None;
                live -= 1;
                watched.remove(&slot);
                free.push(slot);
                continue;
            }
            let Some(ep) = ep else {
                continue;
            };
            // Re-arm for the connection's new state. Read interest is
            // dropped while the connection's window is full —
            // level-triggered readiness would spin until a reply frees
            // a turn — and restored once one does; write interest
            // mirrors buffered output, so `EPOLLOUT` re-arming flows
            // through the same write-stall accounting as a sweep.
            let outstanding = conn.out.order.outstanding();
            let desired = sys::Interest {
                readable: !draining && !conn.closing && outstanding < WINDOW,
                writable: conn.out.has_pending(),
            };
            if desired != conn.armed && ep.modify(conn_fd(conn), slot as u64, desired).is_ok() {
                conn.armed = desired;
            }
            let needs_timer = outstanding > 0 || conn.closing || desired.writable;
            if needs_timer {
                watched.insert(slot);
            } else {
                watched.remove(&slot);
            }
            if desired.readable && conn.reader.framer().has_buffered() {
                hot.push(slot);
            }
        }

        deadline = handler.next_deadline(&local);
        if draining && live == 0 && !mailbox.has_mail() && deadline.is_none() {
            return;
        }
        idle_spins = if progress {
            0
        } else {
            idle_spins.saturating_add(1)
        };
    }
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

/// Answers `internal` for the connection's deferred frames whose worker
/// outlived the reply timeout; their late replies are dropped.
fn expire_deferred(io: &IoLoop, handler: &impl Handler, conn: &mut Conn, progress: &mut bool) {
    let out = &mut conn.out;
    conn.deferred.retain(|d| {
        if d.since.elapsed() <= io.config.reply_timeout {
            return true;
        }
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
        out.deliver(d.seq, &frame);
        *progress = true;
        false
    });
}

/// One pass over one connection: time out overdue frames, read and
/// dispatch what the window allows, then write once. Returns `false` to
/// drop the connection.
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
    expire_deferred(io, handler, conn, progress);
    let reading = !(draining || conn.closing);
    if reading && !read_frames(io, handler, local, sockets, conn, progress, replies) {
        return false;
    }
    conn.out.write(io, conn.reader.get_ref());
    if conn.out.dead {
        return false;
    }
    // Once the read side is done (shutdown drain, EOF, or torn frame)
    // the connection stays open only until every owed reply is written.
    // A worker that never answers is timed out above, and a peer that
    // will not take the bytes is killed by the write-stall timer, so
    // this cannot wedge the poller.
    !(draining || conn.closing) || conn.out.has_pending() || conn.out.order.outstanding() > 0
}

/// Reads and dispatches up to [`MAX_LINES_PER_SWEEP`] frames while the
/// window has room, queueing their inline replies. Returns `false` when
/// the socket failed on read.
fn read_frames<H: Handler>(
    io: &Arc<IoLoop>,
    handler: &H,
    local: &mut H::Local,
    sockets: Sockets<'_>,
    conn: &mut Conn,
    progress: &mut bool,
    replies: &mut Vec<u8>,
) -> bool {
    for _ in 0..MAX_LINES_PER_SWEEP {
        if conn.closing || conn.out.order.outstanding() >= WINDOW {
            // A full window leaves the rest in the socket (and the
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
                        return false;
                    }
                };
                protocol_error(handler, replies, conn.reader.framer().codec(), message);
                conn.out.inline(replies);
                continue;
            }
        };
        *progress = true;
        let request = match decoded {
            Ok(request) => request,
            Err(e) => {
                protocol_error(handler, replies, codec, &e.message);
                conn.out.inline(replies);
                continue;
            }
        };
        let mut out = Dispatch {
            io,
            out: &mut conn.out,
            deferred: &mut conn.deferred,
            replies,
            to: conn.to,
            gone: &conn.gone,
            codec,
            sockets,
        };
        handler.handle(local, request, conn.reader.framer().frame(), &mut out);
        conn.out.inline(replies);
    }
    true
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
