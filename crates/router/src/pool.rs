//! Pooled persistent connections to a single upstream.
//!
//! Each upstream gets an [`UpstreamPool`]: checked-out connections are
//! used for exactly one request/response exchange and published back
//! when the reply arrived cleanly. The pool is codec-agnostic: frames
//! move through it as raw bytes — a JSON line with its newline, or a
//! length-prefixed binary frame — so proxying never re-parses a body.
//! Replies are framed by the same [`FrameReader`] that frames requests
//! on the serving side; the newline or length header it strips is put
//! back, so the relayed bytes are the upstream's own. A [`PooledConn`]
//! survives read timeouts mid-reply — the partial frame stays buffered
//! in the reader, so a hedged request can keep waiting on the primary
//! after its hedge fired — but any connection whose exchange ended in
//! an error is dropped, not repooled, so a desynchronised stream can
//! never serve a stale reply to a later request.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gb_service::fault::{IoShim, ShimStream};
use gb_service::proto::{Frame, FrameError, FrameReader, WireCodec, BIN_HDR, MAGIC};

/// Shim connection-id base for upstream-side sockets. Client
/// connections use their accept order (`0, 1, 2, ...`) exactly like the
/// server; every pooled or probe connection to upstream `i` uses
/// `UPSTREAM_CONN_BASE + i`, so a scripted shim can fault the
/// router→upstream link without touching client traffic.
pub const UPSTREAM_CONN_BASE: u64 = 1 << 32;

/// One persistent connection to an upstream, owned by whoever checked
/// it out of the pool.
#[derive(Debug)]
pub struct PooledConn {
    /// Raw handle kept for timeout changes (`set_read_timeout`).
    sock: TcpStream,
    writer: ShimStream,
    /// Frames replies; bytes of a reply that arrived before a read
    /// timeout stay buffered here and the next
    /// [`read_reply`](PooledConn::read_reply) resumes from them. `None`
    /// once an exchange failed: the stream is out of frame sync.
    reader: Option<FrameReader<ShimStream>>,
    /// Last timeout applied to the socket; skips the `setsockopt` pair
    /// on the hot path when the deadline has not changed.
    read_timeout: Option<Duration>,
}

impl PooledConn {
    pub(crate) fn connect(
        addr: SocketAddr,
        connect_timeout: Duration,
        write_timeout: Duration,
        shim: &Arc<dyn IoShim>,
        conn_id: u64,
    ) -> io::Result<PooledConn> {
        let sock = TcpStream::connect_timeout(&addr, connect_timeout)?;
        sock.set_nodelay(true)?;
        sock.set_write_timeout(Some(write_timeout))?;
        let writer = ShimStream::new(sock.try_clone()?, Arc::clone(shim), conn_id);
        let reader = ShimStream::new(sock.try_clone()?, Arc::clone(shim), conn_id);
        Ok(PooledConn {
            sock,
            writer,
            reader: Some(FrameReader::new(reader)),
            read_timeout: None,
        })
    }

    /// Whether a reply frame is partially buffered (the previous read
    /// timed out mid-frame). Such a connection must finish its read
    /// before it can carry another request.
    pub fn has_partial(&self) -> bool {
        self.reader.as_ref().is_some_and(|r| r.buffered_len() > 0)
    }

    /// Writes one complete pre-framed request (newline or length prefix
    /// already included) as a single write.
    pub fn send_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)
    }

    /// Reads one complete reply frame, waiting at most `timeout`, and
    /// returns it verbatim — framing included — so the caller can relay
    /// it without re-encoding.
    ///
    /// A `WouldBlock`/`TimedOut` error means the reply has not arrived
    /// yet; any bytes that did arrive stay buffered and a later call
    /// resumes the same frame. Every other error (EOF, reset, a corrupt
    /// length, an oversized or torn frame) means the connection is
    /// unusable.
    pub fn read_reply(&mut self, timeout: Duration) -> io::Result<Vec<u8>> {
        let timeout = timeout.max(Duration::from_millis(1));
        if self.read_timeout != Some(timeout) {
            self.sock.set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        self.next_reply()
    }

    /// Like [`read_reply`](Self::read_reply), but never waits: a reply
    /// that has not fully arrived reads as a timeout, with its bytes so
    /// far kept buffered. A socket read timeout is rounded up to the
    /// kernel's timer tick (several ms), so a caller that must watch two
    /// connections at once polls with this instead.
    pub fn poll_reply(&mut self) -> io::Result<Vec<u8>> {
        self.sock.set_nonblocking(true)?;
        let reply = self.next_reply();
        if let Err(e) = self.sock.set_nonblocking(false) {
            // A socket stuck nonblocking must never be repooled.
            self.reader = None;
            return Err(e);
        }
        reply
    }

    fn next_reply(&mut self) -> io::Result<Vec<u8>> {
        let Some(reader) = self.reader.as_mut() else {
            return Err(invalid("upstream connection lost frame sync"));
        };
        let reply = match reader.poll_line() {
            Ok(Frame::Pending) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "upstream reply pending",
                ))
            }
            Ok(Frame::Line(line)) => Ok(reframe(WireCodec::Json, line.as_bytes())),
            Ok(Frame::Binary(payload)) => Ok(reframe(WireCodec::Binary, &payload)),
            Ok(Frame::Eof) | Err(FrameError::Torn) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "upstream closed the connection",
            )),
            Err(FrameError::Corrupt) => Err(invalid("upstream binary frame length is corrupt")),
            Err(FrameError::TooLong) => Err(invalid("upstream reply oversized")),
            Err(FrameError::NotUtf8) => Err(invalid("upstream reply is not UTF-8")),
            Err(FrameError::Io(e)) => Err(e),
        };
        // Bytes beyond one reply on a one-request-in-flight stream mean
        // frame sync is gone.
        let reply = reply.and_then(|frame| match reader.buffered_len() {
            0 => Ok(frame),
            _ => Err(invalid("upstream reply overran its frame")),
        });
        if reply.is_err() {
            self.reader = None;
        }
        reply
    }

    /// One full request/response exchange over pre-framed bytes.
    pub fn call(&mut self, frame: &[u8], timeout: Duration) -> io::Result<Vec<u8>> {
        self.send_frame(frame)?;
        self.read_reply(timeout)
    }
}

/// Puts back the framing [`FrameReader`] stripped from a frame body: the
/// newline after a JSON line, the magic byte and length before a binary
/// payload.
pub(crate) fn reframe(codec: WireCodec, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(BIN_HDR + body.len());
    match codec {
        WireCodec::Json => {
            frame.extend_from_slice(body);
            frame.push(b'\n');
        }
        WireCodec::Binary => {
            frame.push(MAGIC);
            frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frame.extend_from_slice(body);
        }
    }
    frame
}

fn invalid(message: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A bounded pool of idle [`PooledConn`]s to one upstream address.
#[derive(Debug)]
pub struct UpstreamPool {
    addr: SocketAddr,
    conn_id: u64,
    shim: Arc<dyn IoShim>,
    connect_timeout: Duration,
    write_timeout: Duration,
    max_idle: usize,
    idle: Mutex<Vec<PooledConn>>,
}

impl UpstreamPool {
    /// A pool for `addr`, wrapping every socket in `shim` under
    /// `conn_id` (see [`UPSTREAM_CONN_BASE`]).
    pub fn new(
        addr: SocketAddr,
        conn_id: u64,
        shim: Arc<dyn IoShim>,
        connect_timeout: Duration,
        write_timeout: Duration,
        max_idle: usize,
    ) -> UpstreamPool {
        UpstreamPool {
            addr,
            conn_id,
            shim,
            connect_timeout,
            write_timeout,
            max_idle: max_idle.max(1),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The upstream's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The idle list, recovering from a poisoned lock. A proxy worker
    /// that panics while holding the lock must not cascade the panic
    /// into every later checkout on this upstream; the inner state may
    /// be half-updated, so the list is cleared — dropping idle sockets
    /// is always safe, they are redialed on demand.
    fn idle_guard(&self) -> MutexGuard<'_, Vec<PooledConn>> {
        self.idle.lock().unwrap_or_else(|poisoned| {
            // Un-poison so recovery happens exactly once, not on every
            // later lock.
            self.idle.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        })
    }

    /// Takes an idle connection, or dials a fresh one.
    pub fn checkout(&self) -> io::Result<PooledConn> {
        self.checkout_tracked().map(|(conn, _)| conn)
    }

    /// Like [`checkout`](Self::checkout), also reporting whether the
    /// connection came from the idle list. A reused connection may have
    /// been closed by the upstream while it sat idle (restart, idle
    /// sweep) — the caller should retry such a failure once on a fresh
    /// dial before counting it against the failure threshold.
    pub fn checkout_tracked(&self) -> io::Result<(PooledConn, bool)> {
        if let Some(conn) = self.idle_guard().pop() {
            return Ok((conn, true));
        }
        self.dial().map(|conn| (conn, false))
    }

    /// Dials a fresh connection, bypassing the idle list.
    pub fn dial(&self) -> io::Result<PooledConn> {
        PooledConn::connect(
            self.addr,
            self.connect_timeout,
            self.write_timeout,
            &self.shim,
            self.conn_id,
        )
    }

    /// Returns a connection after a clean exchange. Connections with a
    /// partial reply pending or a failed exchange behind them are
    /// dropped (out of frame sync), as are any beyond the idle cap.
    pub fn publish(&self, conn: PooledConn) {
        if conn.has_partial() || conn.reader.is_none() {
            return;
        }
        let mut idle = self.idle_guard();
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }

    /// Drops every idle connection (the upstream was declared dead).
    pub fn clear(&self) {
        self.idle_guard().clear();
    }

    /// Number of idle pooled connections.
    pub fn idle_count(&self) -> usize {
        self.idle_guard().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_service::fault::Passthrough;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;
    use std::thread;

    fn shim() -> Arc<dyn IoShim> {
        Arc::new(Passthrough)
    }

    fn line(s: &str) -> Vec<u8> {
        format!("{s}\n").into_bytes()
    }

    /// An echo server that answers each line with `ok:<line>`, optionally
    /// splitting one reply around a pause to exercise partial reads.
    fn echo_server(pause_on: Option<&'static str>, pause: Duration) -> SocketAddr {
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
                        if Some(body) == pause_on {
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
    fn pool_reuses_published_connections() {
        let addr = echo_server(None, Duration::ZERO);
        let pool = UpstreamPool::new(
            addr,
            UPSTREAM_CONN_BASE,
            shim(),
            Duration::from_secs(1),
            Duration::from_secs(1),
            4,
        );
        let (mut conn, reused) = pool.checkout_tracked().unwrap();
        assert!(!reused, "first checkout dials fresh");
        assert_eq!(
            conn.call(&line("hello"), Duration::from_secs(1)).unwrap(),
            line("ok:hello")
        );
        pool.publish(conn);
        assert_eq!(pool.idle_count(), 1);
        let (mut again, reused) = pool.checkout_tracked().unwrap();
        assert!(reused, "second checkout reuses the idle conn");
        assert_eq!(pool.idle_count(), 0, "checkout must drain the idle list");
        assert_eq!(
            again.call(&line("world"), Duration::from_secs(1)).unwrap(),
            line("ok:world")
        );
        pool.publish(again);
        pool.clear();
        assert_eq!(pool.idle_count(), 0);
    }

    #[test]
    fn read_reply_resumes_a_partial_line_after_timeout() {
        let addr = echo_server(Some("slow"), Duration::from_millis(80));
        let pool = UpstreamPool::new(
            addr,
            UPSTREAM_CONN_BASE,
            shim(),
            Duration::from_secs(1),
            Duration::from_secs(1),
            4,
        );
        let mut conn = pool.checkout().unwrap();
        conn.send_frame(&line("slow")).unwrap();
        // The first half of the reply arrives, then the server pauses
        // past our timeout: the read must report a timeout and keep the
        // prefix buffered.
        let err = conn.read_reply(Duration::from_millis(25)).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a timeout, got {err:?}"
        );
        assert!(conn.has_partial(), "the reply prefix must stay buffered");
        // A non-waiting poll returns at once and keeps the prefix; the
        // socket is blocking again for the read below, which must wait
        // out the rest of the server's pause.
        let polled = std::time::Instant::now();
        let err = conn.poll_reply().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a pending poll, got {err:?}"
        );
        assert!(
            polled.elapsed() < Duration::from_millis(20),
            "poll_reply waited"
        );
        assert!(conn.has_partial(), "the prefix must survive a poll");
        // Resuming with a generous timeout completes the same frame.
        assert_eq!(
            conn.read_reply(Duration::from_secs(1)).unwrap(),
            line("ok:slow")
        );
        assert!(!conn.has_partial());
        // A connection that timed out mid-reply must not be repooled
        // while desynchronised.
        conn.send_frame(&line("slow")).unwrap();
        let _ = conn.read_reply(Duration::from_millis(25)).unwrap_err();
        assert!(conn.has_partial());
        pool.publish(conn);
        assert_eq!(pool.idle_count(), 0, "partial conns are dropped");
    }

    #[test]
    fn binary_frames_round_trip_verbatim() {
        // A raw byte-echo upstream: whatever frame arrives goes back
        // unchanged, preserving its length prefix.
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
        let pool = UpstreamPool::new(
            addr,
            UPSTREAM_CONN_BASE,
            shim(),
            Duration::from_secs(1),
            Duration::from_secs(1),
            4,
        );
        let mut conn = pool.checkout().unwrap();
        // Payload contains a newline and a MAGIC byte: the sniffing
        // reader must still frame by the length prefix alone.
        let payload = [0x03, b'\n', MAGIC, 0x00];
        let mut frame = vec![MAGIC];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(
            conn.call(&frame, Duration::from_secs(1)).unwrap(),
            frame,
            "binary reply must come back framing-intact"
        );
        // And a corrupt declared length kills the exchange cleanly.
        let mut corrupt = vec![MAGIC];
        corrupt.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = conn.call(&corrupt, Duration::from_secs(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!conn.has_partial(), "corrupt stream must not stay buffered");
    }

    #[test]
    fn checkout_fails_fast_on_a_dead_address() {
        // Bind-then-drop reserves a port with no listener behind it.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let pool = UpstreamPool::new(
            addr,
            UPSTREAM_CONN_BASE,
            shim(),
            Duration::from_millis(200),
            Duration::from_secs(1),
            4,
        );
        assert!(pool.checkout().is_err());
    }

    #[test]
    fn poisoned_idle_lock_recovers_instead_of_cascading() {
        let addr = echo_server(None, Duration::ZERO);
        let pool = Arc::new(UpstreamPool::new(
            addr,
            UPSTREAM_CONN_BASE,
            shim(),
            Duration::from_secs(1),
            Duration::from_secs(1),
            4,
        ));
        let mut conn = pool.checkout().unwrap();
        assert_eq!(
            conn.call(&line("a"), Duration::from_secs(1)).unwrap(),
            line("ok:a")
        );
        pool.publish(conn);
        assert_eq!(pool.idle_count(), 1);
        // Poison the lock: a panic on a thread that holds the guard.
        let poisoner = Arc::clone(&pool);
        let _ = thread::spawn(move || {
            let _guard = poisoner.idle.lock().unwrap();
            panic!("poison the idle lock");
        })
        .join();
        assert!(
            pool.idle.is_poisoned(),
            "the lock must actually be poisoned"
        );
        // Every pool entry point recovers: the half-updated idle list is
        // cleared once, then normal service resumes.
        assert_eq!(pool.idle_count(), 0, "recovery clears the idle list");
        let (mut fresh, reused) = pool.checkout_tracked().unwrap();
        assert!(!reused, "post-poison checkout dials fresh");
        assert_eq!(
            fresh.call(&line("b"), Duration::from_secs(1)).unwrap(),
            line("ok:b")
        );
        pool.publish(fresh);
        assert_eq!(pool.idle_count(), 1, "publish works after recovery");
        pool.clear();
    }
}
