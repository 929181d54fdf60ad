//! Deterministic fault injection for the serving path.
//!
//! The server threads every socket read and write through an [`IoShim`]
//! so tests can script failures — torn writes, `WouldBlock` storms,
//! connection resets, stalled workers, accept-time refusals, readiness
//! setup failures — without
//! patching the kernel or racing wall-clock timing. Production servers
//! use [`Passthrough`], which compiles down to the plain syscalls.
//!
//! Connections are identified by their accept order (`0, 1, 2, ...`),
//! which is deterministic for a scripted test that opens sockets
//! sequentially. [`ScriptedShim`] holds per-connection plans of
//! [`WriteOp`]s and [`ReadOp`]s consumed one per `write`/`read` call;
//! an exhausted plan acts as passthrough.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hook points on the server's per-connection I/O path.
///
/// All methods take the connection's accept-order id so a script can
/// target one connection while its neighbours run clean. Defaults are
/// passthrough; implementations override only the seams they need.
pub trait IoShim: Send + Sync + std::fmt::Debug {
    /// Called once per accepted connection before it is registered.
    /// Returning `false` makes the server drop the socket immediately
    /// (an accept-time reset).
    fn allow_accept(&self, _conn_id: u64) -> bool {
        true
    }

    /// Called before each `accept()` attempt on the listener. Returning
    /// `Err(e)` makes the accept loop treat the attempt as having
    /// failed with `e` — e.g. the `EMFILE` shape of fd exhaustion —
    /// without touching the real listener, so tests can starve the
    /// accept path while existing connections keep running clean.
    fn accept_result(&self) -> io::Result<()> {
        Ok(())
    }

    /// Called once at startup, before the epoll instances and their
    /// wakeup channels are opened. Returning `Err(e)` makes the server
    /// treat readiness setup as having failed with `e` — e.g.
    /// `epoll_create1` or `socketpair` hitting `EMFILE` — so the pollers run the sweep
    /// fallback, exactly as on a platform without epoll.
    fn readiness_setup(&self) -> io::Result<()> {
        Ok(())
    }

    /// Wraps every socket read.
    fn read(&self, _conn_id: u64, inner: &mut dyn Read, buf: &mut [u8]) -> io::Result<usize> {
        inner.read(buf)
    }

    /// Wraps every socket write.
    fn write(&self, _conn_id: u64, inner: &mut dyn Write, buf: &[u8]) -> io::Result<usize> {
        inner.write(buf)
    }

    /// Called by a worker just before it executes a job; returning
    /// `Some(d)` makes the worker sleep for `d` first (a stalled
    /// worker, e.g. to push a request past its deadline).
    fn before_execute(&self, _conn_id: u64) -> Option<Duration> {
        None
    }
}

/// The no-op shim used outside tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct Passthrough;

impl IoShim for Passthrough {}

/// A `TcpStream` with every read/write routed through a shim.
///
/// Writes also work through a shared reference (`&ShimStream`, like
/// `&TcpStream`), so a connection's one descriptor serves its reader
/// and its writer alike.
#[derive(Debug)]
pub struct ShimStream {
    inner: TcpStream,
    shim: Arc<dyn IoShim>,
    conn_id: u64,
}

impl ShimStream {
    /// Wraps an accepted stream.
    pub fn new(inner: TcpStream, shim: Arc<dyn IoShim>, conn_id: u64) -> Self {
        Self {
            inner,
            shim,
            conn_id,
        }
    }

    /// Access to the raw socket for option calls (timeouts, peer addr).
    pub fn get_ref(&self) -> &TcpStream {
        &self.inner
    }
}

impl Read for ShimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.shim.read(self.conn_id, &mut self.inner, buf)
    }
}

impl Write for ShimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&*self).flush()
    }
}

impl Write for &ShimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.shim.write(self.conn_id, &mut &self.inner, buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&self.inner).flush()
    }
}

/// One scripted behaviour for a single `read` call.
#[derive(Debug, Clone, Copy)]
pub enum ReadOp {
    /// Forward the read unchanged.
    Pass,
    /// Return `WouldBlock` without reading anything.
    WouldBlock,
    /// Return `ConnectionReset` without reading anything.
    Reset,
    /// Return an unclassified I/O error (`Other`).
    Error,
}

/// One scripted behaviour for a single `write` call.
#[derive(Debug, Clone, Copy)]
pub enum WriteOp {
    /// Forward the write unchanged.
    Pass,
    /// Forward at most `n` bytes (a short write).
    Short(usize),
    /// Return `WouldBlock` without writing anything.
    WouldBlock,
    /// Keep returning `WouldBlock` until the duration elapses (measured
    /// from the first write that hits this op), then forward.
    BlockFor(Duration),
    /// Return `ConnectionReset` without writing anything.
    Reset,
}

#[derive(Debug, Default)]
struct ScriptState {
    /// Per-connection read plans, consumed front-first.
    reads: HashMap<u64, Vec<ReadOp>>,
    /// Per-connection write plans, consumed front-first.
    writes: HashMap<u64, Vec<WriteOp>>,
    /// When a `BlockFor` is at the front of a plan, the instant it ends.
    block_until: HashMap<u64, Instant>,
    /// Connections refused at accept time.
    reset_accept: Vec<u64>,
    /// Injected pre-execute stall for every job, while set.
    stall: Option<Duration>,
    /// Stalls for single jobs, by connection and the job's position
    /// among that connection's jobs (0-based).
    job_stalls: HashMap<(u64, u64), Duration>,
    /// Jobs started so far, per connection.
    jobs_started: HashMap<u64, u64>,
    /// While set, every `accept()` attempt fails with this raw errno
    /// (the fd-exhaustion script).
    fail_accepts: Option<i32>,
    /// While set, readiness setup fails with this raw errno.
    fail_readiness: Option<i32>,
}

/// An [`IoShim`] driven by a per-connection script.
///
/// Cheap to clone; clones share state so a test can keep mutating the
/// script after handing it to the server.
#[derive(Debug, Clone, Default)]
pub struct ScriptedShim {
    state: Arc<Mutex<ScriptState>>,
    write_calls: Arc<AtomicU64>,
}

impl ScriptedShim {
    /// An empty (fully passthrough) script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends write ops to connection `conn_id`'s plan.
    pub fn plan_writes(&self, conn_id: u64, ops: impl IntoIterator<Item = WriteOp>) {
        let mut st = self.state.lock().unwrap();
        st.writes.entry(conn_id).or_default().extend(ops);
    }

    /// Appends read ops to connection `conn_id`'s plan.
    pub fn plan_reads(&self, conn_id: u64, ops: impl IntoIterator<Item = ReadOp>) {
        let mut st = self.state.lock().unwrap();
        st.reads.entry(conn_id).or_default().extend(ops);
    }

    /// Makes the server drop connection `conn_id` at accept time.
    pub fn reset_accept(&self, conn_id: u64) {
        self.state.lock().unwrap().reset_accept.push(conn_id);
    }

    /// Injects a sleep before every job execution until cleared.
    pub fn stall_workers(&self, d: Duration) {
        self.state.lock().unwrap().stall = Some(d);
    }

    /// Makes the `nth` job (0-based, in the order workers start them)
    /// of connection `conn_id` sleep for `d` first.
    pub fn stall_nth_job(&self, conn_id: u64, nth: u64, d: Duration) {
        self.state
            .lock()
            .unwrap()
            .job_stalls
            .insert((conn_id, nth), d);
    }

    /// Clears the worker stall.
    pub fn clear_stall(&self) {
        self.state.lock().unwrap().stall = None;
    }

    /// Makes every subsequent `accept()` attempt fail with `errno`
    /// (24 = `EMFILE`, the per-process fd limit) until cleared. Models
    /// fd exhaustion without actually exhausting the test process.
    pub fn fail_accepts(&self, errno: i32) {
        self.state.lock().unwrap().fail_accepts = Some(errno);
    }

    /// Lets accepts through again — fds "freed".
    pub fn clear_accept_failures(&self) {
        self.state.lock().unwrap().fail_accepts = None;
    }

    /// Makes readiness setup fail with `errno` (24 = `EMFILE`) for any
    /// server started with this shim, the way `epoll_create1` or
    /// `socketpair` fail when the process is out of descriptors. The
    /// server then runs the sweep fallback.
    pub fn fail_readiness(&self, errno: i32) {
        self.state.lock().unwrap().fail_readiness = Some(errno);
    }

    /// Total shimmed write calls observed (all connections).
    pub fn write_calls(&self) -> u64 {
        self.write_calls.load(Ordering::Relaxed)
    }
}

impl IoShim for ScriptedShim {
    fn allow_accept(&self, conn_id: u64) -> bool {
        !self.state.lock().unwrap().reset_accept.contains(&conn_id)
    }

    fn accept_result(&self) -> io::Result<()> {
        match self.state.lock().unwrap().fail_accepts {
            Some(errno) => Err(io::Error::from_raw_os_error(errno)),
            None => Ok(()),
        }
    }

    fn readiness_setup(&self) -> io::Result<()> {
        match self.state.lock().unwrap().fail_readiness {
            Some(errno) => Err(io::Error::from_raw_os_error(errno)),
            None => Ok(()),
        }
    }

    fn read(&self, conn_id: u64, inner: &mut dyn Read, buf: &mut [u8]) -> io::Result<usize> {
        let op = {
            let mut st = self.state.lock().unwrap();
            match st.reads.get_mut(&conn_id) {
                Some(plan) if !plan.is_empty() => plan.remove(0),
                _ => ReadOp::Pass,
            }
        };
        match op {
            ReadOp::Pass => inner.read(buf),
            ReadOp::WouldBlock => Err(io::Error::new(io::ErrorKind::WouldBlock, "injected")),
            ReadOp::Reset => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected reset",
            )),
            ReadOp::Error => Err(io::Error::other("injected read error")),
        }
    }

    fn write(&self, conn_id: u64, inner: &mut dyn Write, buf: &[u8]) -> io::Result<usize> {
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        let op = {
            let mut st = self.state.lock().unwrap();
            match st.writes.get_mut(&conn_id) {
                Some(plan) if !plan.is_empty() => {
                    match plan[0] {
                        WriteOp::BlockFor(d) => {
                            let until = *st
                                .block_until
                                .entry(conn_id)
                                .or_insert_with(|| Instant::now() + d);
                            if Instant::now() < until {
                                // Stay at the front of the plan until the
                                // window closes, then fall through to Pass.
                                WriteOp::WouldBlock
                            } else {
                                st.block_until.remove(&conn_id);
                                st.writes.get_mut(&conn_id).unwrap().remove(0);
                                WriteOp::Pass
                            }
                        }
                        op => {
                            st.writes.get_mut(&conn_id).unwrap().remove(0);
                            op
                        }
                    }
                }
                _ => WriteOp::Pass,
            }
        };
        match op {
            // BlockFor is resolved to WouldBlock/Pass above.
            WriteOp::Pass | WriteOp::BlockFor(_) => inner.write(buf),
            WriteOp::Short(n) => {
                let n = n.min(buf.len()).max(usize::from(!buf.is_empty()));
                inner.write(&buf[..n])
            }
            WriteOp::WouldBlock => Err(io::Error::new(io::ErrorKind::WouldBlock, "injected")),
            WriteOp::Reset => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected reset",
            )),
        }
    }

    fn before_execute(&self, conn_id: u64) -> Option<Duration> {
        let mut st = self.state.lock().unwrap();
        let started = st.jobs_started.entry(conn_id).or_default();
        let nth = *started;
        *started += 1;
        st.job_stalls.remove(&(conn_id, nth)).or(st.stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory sink implementing Write, for exercising scripts
    /// without sockets.
    #[derive(Default)]
    struct Sink(Vec<u8>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn scripted_shim_consumes_write_plan_in_order() {
        let shim = ScriptedShim::new();
        shim.plan_writes(7, [WriteOp::Short(2), WriteOp::WouldBlock, WriteOp::Pass]);
        let mut sink = Sink::default();

        assert_eq!(shim.write(7, &mut sink, b"hello").unwrap(), 2);
        let err = shim.write(7, &mut sink, b"llo").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(shim.write(7, &mut sink, b"llo").unwrap(), 3);
        // Plan exhausted: passthrough from here on.
        assert_eq!(shim.write(7, &mut sink, b"!").unwrap(), 1);
        assert_eq!(&sink.0, b"hello!");
    }

    #[test]
    fn scripted_shim_consumes_read_plan_in_order() {
        let shim = ScriptedShim::new();
        shim.plan_reads(5, [ReadOp::WouldBlock, ReadOp::Pass, ReadOp::Reset]);
        let mut src = io::Cursor::new(b"abcdef".to_vec());
        let mut buf = [0u8; 3];

        let err = shim.read(5, &mut src, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(shim.read(5, &mut src, &mut buf).unwrap(), 3);
        assert_eq!(&buf, b"abc");
        let err = shim.read(5, &mut src, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // Plan exhausted: passthrough; neighbour untouched throughout.
        assert_eq!(shim.read(5, &mut src, &mut buf).unwrap(), 3);
        assert_eq!(
            shim.read(6, &mut io::Cursor::new(b"z".to_vec()), &mut buf)
                .unwrap(),
            1
        );
    }

    #[test]
    fn scripted_shim_targets_only_planned_connection() {
        let shim = ScriptedShim::new();
        shim.plan_writes(1, [WriteOp::Reset]);
        let mut sink = Sink::default();

        // Neighbour connection is untouched.
        assert_eq!(shim.write(2, &mut sink, b"ok").unwrap(), 2);
        let err = shim.write(1, &mut sink, b"boom").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn block_for_releases_after_deadline() {
        let shim = ScriptedShim::new();
        shim.plan_writes(3, [WriteOp::BlockFor(Duration::from_millis(30))]);
        let mut sink = Sink::default();

        let err = shim.write(3, &mut sink, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(shim.write(3, &mut sink, b"x").unwrap(), 1);
    }

    #[test]
    fn accept_reset_and_stall_flags() {
        let shim = ScriptedShim::new();
        assert!(shim.allow_accept(0));
        shim.reset_accept(0);
        assert!(!shim.allow_accept(0));
        assert!(shim.allow_accept(1));

        assert_eq!(shim.before_execute(0), None);
        shim.stall_workers(Duration::from_millis(5));
        assert_eq!(shim.before_execute(0), Some(Duration::from_millis(5)));
        shim.clear_stall();
        assert_eq!(shim.before_execute(0), None);

        assert!(shim.readiness_setup().is_ok());
        shim.fail_readiness(24);
        let err = shim.readiness_setup().unwrap_err();
        assert_eq!(err.raw_os_error(), Some(24));
    }
}
