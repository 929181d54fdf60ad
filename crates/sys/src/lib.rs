//! # gb-sys — Linux readiness syscalls behind a safe API
//!
//! The serving engine's epoll backend needs `epoll_create1` / `epoll_ctl` /
//! `epoll_wait` plus a socket-pair wakeup, the router's relay needs a
//! nonblocking `connect` it can finish on readiness, and the connection
//! soak needs
//! `setrlimit(RLIMIT_NOFILE)` and per-thread CPU readings from
//! `/proc`, and gb-serve's workers hand freed heap memory back with
//! `malloc_trim`. The workspace builds in hermetic, network-less containers
//! where the `libc` crate cannot resolve, so the handful of symbols are
//! bound directly with `extern "C"` declarations against the system
//! libc that std already links.
//!
//! Every other crate in the workspace keeps `#![forbid(unsafe_code)]`;
//! the entire unsafe surface of the repository lives in this module,
//! wrapped in owned-fd types that close on drop and return
//! `io::Error` like everything else.
//!
//! On non-Linux targets the same API exists but the constructors return
//! [`std::io::ErrorKind::Unsupported`], so callers gate on the runtime
//! error instead of scattering `cfg` through engine code.

#![warn(missing_docs)]

use std::io;

/// Raw file descriptor, aliased so the non-Linux stub compiles without
/// `std::os::fd`.
#[cfg(unix)]
pub type RawFd = std::os::fd::RawFd;
/// Raw file descriptor (stub alias off unix).
#[cfg(not(unix))]
pub type RawFd = i32;

/// Readiness interest for one registered descriptor. Registrations are
/// level-triggered on purpose: the fault shim may answer a "readable"
/// wakeup with an injected `WouldBlock`, and level semantics re-deliver
/// the event on the next wait instead of losing it the way
/// edge-triggered interest would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (`EPOLLIN`).
    pub readable: bool,
    /// Wake when the descriptor will accept bytes (`EPOLLOUT`).
    pub writable: bool,
}

impl Interest {
    /// Read readiness only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// No readiness at all; the registration stays (hangup/error still
    /// deliver) but neither direction wakes the poller.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// `EPOLLIN` (or `EPOLLERR`/`EPOLLHUP`, which imply a read will
    /// resolve the state).
    pub readable: bool,
    /// `EPOLLOUT`.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest, RawFd};
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    use std::os::raw::{c_int, c_long, c_void};

    // epoll_event is packed on x86-64 (the kernel ABI predates natural
    // alignment there); other architectures use natural layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Debug, Clone, Copy)]
    struct RawEvent {
        events: u32,
        data: u64,
    }

    #[repr(C)]
    struct RLimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const RLIMIT_NOFILE: c_int = 7;
    const SC_CLK_TCK: c_int = 2;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_ERROR: c_int = 4;
    const EINPROGRESS: i32 = 115;
    const EINTR: i32 = 4;
    const ENOTCONN: i32 = 107;

    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port: [u8; 2],
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    #[allow(unsafe_code)]
    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut RawEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
        fn sysconf(name: c_int) -> c_long;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut u32,
        ) -> c_int;
    }

    /// A descriptor that closes itself on drop.
    #[derive(Debug)]
    struct Fd(RawFd);

    impl Drop for Fd {
        fn drop(&mut self) {
            #[allow(unsafe_code)]
            unsafe {
                close(self.0);
            }
        }
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = 0;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// A level-triggered epoll instance plus its reusable event buffer.
    #[derive(Debug)]
    pub struct Epoll {
        fd: Fd,
        buf: Vec<RawEvent>,
    }

    impl Epoll {
        /// Creates an epoll instance (close-on-exec).
        pub fn new() -> io::Result<Epoll> {
            #[allow(unsafe_code)]
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                fd: Fd(fd),
                buf: vec![RawEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = RawEvent {
                events: interest_bits(interest),
                data: token,
            };
            #[allow(unsafe_code)]
            let rc = unsafe { epoll_ctl(self.fd.0, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Replaces the interest of an already-registered descriptor.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Removes a registration. Harmless to call for a descriptor the
        /// kernel already dropped (`ENOENT`/`EBADF` are swallowed).
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            match self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE) {
                Ok(()) => Ok(()),
                Err(e) if matches!(e.raw_os_error(), Some(2) | Some(9)) => Ok(()),
                Err(e) => Err(e),
            }
        }

        /// Waits for readiness, clearing and refilling `out`. `None`
        /// blocks indefinitely; a zero timeout polls. A signal
        /// interruption returns an empty set rather than an error.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            out.clear();
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(t) if t.is_zero() => 0,
                // Round sub-millisecond timeouts up: truncating to zero
                // would turn a short sleep into a busy spin.
                Some(t) => t.as_millis().clamp(1, c_int::MAX as u128) as c_int,
            };
            #[allow(unsafe_code)]
            let n = unsafe {
                epoll_wait(
                    self.fd.0,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for raw in &self.buf[..n as usize] {
                let events = raw.events;
                out.push(Event {
                    token: raw.data,
                    // Error/hangup deliver even with no interest bits
                    // set; folding them into "readable" routes them to
                    // the read path, where they resolve as EOF or a
                    // proper io::Error.
                    readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    /// A cross-thread wakeup channel: other threads `signal()` after
    /// handing a poller work, the poller drains it from its wait loop.
    ///
    /// It is a Unix socket pair rather than an `eventfd`: a socket write
    /// wakes the epoll waiter as a synchronous wakeup, so the scheduler
    /// may run the poller on the signalling thread's CPU once that
    /// thread blocks, instead of queueing it behind a busy one.
    #[derive(Debug)]
    pub struct Waker {
        rx: UnixStream,
        tx: UnixStream,
    }

    impl Waker {
        /// Creates a nonblocking wakeup channel.
        pub fn new() -> io::Result<Waker> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Waker { rx, tx })
        }

        /// The descriptor to register with [`Epoll`].
        pub fn raw_fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }

        /// Wakes the poller. Never blocks; a full socket is already
        /// readable, so the failure needs no handling.
        pub fn signal(&self) {
            let _ = (&self.tx).write(&[1]);
        }

        /// Consumes pending wakeups so level-triggered polling settles.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
        }
    }

    /// Starts a TCP connect to `addr` without waiting for it: the socket
    /// is created nonblocking (and close-on-exec), so `connect` returns
    /// at once with the handshake in flight. The caller waits for the
    /// stream to turn writable and then asks [`connect_result`]; a timer
    /// of its own bounds the handshake, so `_timeout` is unused here.
    pub fn connect_nonblocking(addr: &SocketAddr, _timeout: Duration) -> io::Result<TcpStream> {
        let family = match addr {
            SocketAddr::V4(_) => AF_INET,
            SocketAddr::V6(_) => AF_INET6,
        };
        #[allow(unsafe_code)]
        let fd = unsafe {
            socket(
                family as c_int,
                SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                0,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Owned from here on: every early return closes the descriptor.
        #[allow(unsafe_code)]
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        let rc = match addr {
            SocketAddr::V4(a) => connect_raw(
                fd,
                &SockAddrIn {
                    family: AF_INET,
                    port: a.port().to_be_bytes(),
                    addr: a.ip().octets(),
                    zero: [0; 8],
                },
            ),
            SocketAddr::V6(a) => connect_raw(
                fd,
                &SockAddrIn6 {
                    family: AF_INET6,
                    port: a.port().to_be_bytes(),
                    flowinfo: a.flowinfo(),
                    addr: a.ip().octets(),
                    scope_id: a.scope_id(),
                },
            ),
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            // In progress is the normal answer; an interrupted connect
            // keeps going asynchronously all the same.
            if !matches!(e.raw_os_error(), Some(EINPROGRESS) | Some(EINTR)) {
                return Err(e);
            }
        }
        Ok(stream)
    }

    fn connect_raw<T>(fd: c_int, raw: &T) -> c_int {
        #[allow(unsafe_code)]
        unsafe {
            connect(
                fd,
                (raw as *const T).cast(),
                std::mem::size_of::<T>() as u32,
            )
        }
    }

    /// Where a [`connect_nonblocking`] handshake stands: `Ok(true)`
    /// once connected, `Ok(false)` while still in flight, and the
    /// connect's own error (read from `SO_ERROR`) if it failed.
    pub fn connect_result(stream: &TcpStream) -> io::Result<bool> {
        let mut err: c_int = 0;
        let mut len = std::mem::size_of::<c_int>() as u32;
        #[allow(unsafe_code)]
        let rc = unsafe {
            getsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_ERROR,
                (&mut err as *mut c_int).cast(),
                &mut len,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        if err != 0 {
            return Err(io::Error::from_raw_os_error(err));
        }
        // No error yet: connected exactly when the peer is known.
        match stream.peer_addr() {
            Ok(_) => Ok(true),
            Err(e) if e.raw_os_error() == Some(ENOTCONN) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Raises the soft `RLIMIT_NOFILE` toward `want` (capped at the hard
    /// limit). Returns the resulting soft limit.
    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        let mut lim = RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        #[allow(unsafe_code)]
        let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let target = want.min(lim.rlim_max);
        if target > lim.rlim_cur {
            lim.rlim_cur = target;
            #[allow(unsafe_code)]
            let rc = unsafe { setrlimit(RLIMIT_NOFILE, &lim) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(lim.rlim_cur.max(target))
    }

    fn clock_ticks_per_second() -> f64 {
        #[allow(unsafe_code)]
        let ticks = unsafe { sysconf(SC_CLK_TCK) };
        if ticks > 0 {
            ticks as f64
        } else {
            100.0
        }
    }

    fn stat_cpu_ticks(path: &std::path::Path) -> Option<(String, u64)> {
        let stat = std::fs::read_to_string(path).ok()?;
        // Field 2 (comm) is parenthesised and may itself contain spaces
        // or parens; everything after the *last* ')' is fixed-position.
        let open = stat.find('(')?;
        let close = stat.rfind(')')?;
        let comm = stat.get(open + 1..close)?.to_string();
        let rest: Vec<&str> = stat.get(close + 2..)?.split_whitespace().collect();
        // After comm: state is field 3, so utime (field 14) and stime
        // (field 15) are at rest indices 11 and 12.
        let utime: u64 = rest.get(11)?.parse().ok()?;
        let stime: u64 = rest.get(12)?.parse().ok()?;
        Some((comm, utime + stime))
    }

    /// Total CPU time (user + system) consumed so far by the threads of
    /// `pid` whose name starts with `comm_prefix` — e.g. the
    /// `gb-serve-io-` pollers. Thread names are truncated to 15 bytes by
    /// the kernel, so keep prefixes shorter than that.
    pub fn thread_cpu_seconds(pid: u32, comm_prefix: &str) -> io::Result<f64> {
        let tick = clock_ticks_per_second();
        let mut ticks = 0u64;
        for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            let entry = entry?;
            if let Some((comm, t)) = stat_cpu_ticks(&entry.path().join("stat")) {
                if comm.starts_with(comm_prefix) {
                    ticks += t;
                }
            }
        }
        Ok(ticks as f64 / tick)
    }

    /// Total CPU time (user + system) consumed so far by the whole
    /// process `pid`, from `/proc/<pid>/stat`.
    pub fn process_cpu_seconds(pid: u32) -> io::Result<f64> {
        let path = std::path::PathBuf::from(format!("/proc/{pid}/stat"));
        match stat_cpu_ticks(&path) {
            Some((_, ticks)) => Ok(ticks as f64 / clock_ticks_per_second()),
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unparseable /proc stat",
            )),
        }
    }

    /// Returns every free page of every malloc arena to the operating
    /// system (`malloc_trim(0)`).
    ///
    /// glibc keeps what a thread frees resident in that thread's arena
    /// for reuse, and gives memory back only from the top of an arena
    /// and only once the free top passes a threshold that grows with the
    /// largest block ever freed. A server whose threads each take turns
    /// with large short-lived buffers therefore holds several times its
    /// live memory. Costs a walk of the free lists, a few hundred
    /// microseconds on a heap of tens of megabytes. Does nothing where
    /// the C library is not glibc.
    pub fn trim_heap() {
        #[cfg(target_env = "gnu")]
        {
            #[allow(unsafe_code)]
            extern "C" {
                fn malloc_trim(pad: usize) -> c_int;
            }
            // SAFETY: malloc_trim takes no pointers and only walks the
            // allocator's own free lists, under their locks.
            #[allow(unsafe_code)]
            unsafe {
                malloc_trim(0);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest, RawFd};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll readiness is Linux-only; use the portable sweep engine",
        )
    }

    /// Stub epoll handle; [`Epoll::new`] always fails off Linux.
    #[derive(Debug)]
    pub struct Epoll {}

    impl Epoll {
        /// Always `Unsupported` off Linux.
        pub fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn add(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn wait(
            &mut self,
            _out: &mut Vec<Event>,
            _timeout: Option<Duration>,
        ) -> io::Result<()> {
            Err(unsupported())
        }
    }

    /// Stub wakeup handle; [`Waker::new`] always fails off Linux.
    #[derive(Debug)]
    pub struct Waker {}

    impl Waker {
        /// Always `Unsupported` off Linux.
        pub fn new() -> io::Result<Waker> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn raw_fd(&self) -> RawFd {
            -1
        }

        /// No-op.
        pub fn signal(&self) {}

        /// No-op.
        pub fn drain(&self) {}
    }

    /// Off Linux there is no nonblocking connect binding: the dial is
    /// std's blocking `connect_timeout`, and the stream is switched to
    /// nonblocking once connected.
    pub fn connect_nonblocking(addr: &SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// A [`connect_nonblocking`] stream is connected on return off
    /// Linux; any error is the socket's pending one.
    pub fn connect_result(stream: &TcpStream) -> io::Result<bool> {
        match stream.take_error()? {
            Some(e) => Err(e),
            None => Ok(true),
        }
    }

    /// Always `Unsupported` off Linux.
    pub fn raise_nofile_limit(_want: u64) -> io::Result<u64> {
        Err(unsupported())
    }

    /// Always `Unsupported` off Linux.
    pub fn thread_cpu_seconds(_pid: u32, _comm_prefix: &str) -> io::Result<f64> {
        Err(unsupported())
    }

    /// Always `Unsupported` off Linux.
    pub fn process_cpu_seconds(_pid: u32) -> io::Result<f64> {
        Err(unsupported())
    }

    /// Does nothing off Linux.
    pub fn trim_heap() {}
}

pub use imp::{
    connect_nonblocking, connect_result, process_cpu_seconds, raise_nofile_limit,
    thread_cpu_seconds, trim_heap, Epoll, Waker,
};

/// Whether an I/O error is the resource-exhaustion shape an accept loop
/// must back off from rather than retry hot: `EMFILE` (per-process fd
/// limit), `ENFILE` (system table), `ENOBUFS`/`ENOMEM` (kernel memory).
/// Retrying these immediately busy-spins without freeing anything; the
/// caller should stop accepting for a poll interval and count the event.
pub fn is_resource_exhaustion(e: &io::Error) -> bool {
    // Raw errno values (Linux/Unix): OutOfMemory covers ENOMEM via
    // ErrorKind, but EMFILE/ENFILE/ENOBUFS have no stable kind yet.
    matches!(e.raw_os_error(), Some(23) | Some(24) | Some(105) | Some(12))
        || e.kind() == io::ErrorKind::OutOfMemory
}

/// The classic fd-exhaustion error, for fault scripts that inject the
/// `EMFILE` shape without actually exhausting the process's fd table.
pub fn emfile_error() -> io::Error {
    io::Error::from_raw_os_error(24)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_os = "linux")]
    use std::time::Duration;

    #[test]
    fn exhaustion_classifier_matches_emfile_shape() {
        assert!(is_resource_exhaustion(&emfile_error()));
        assert!(is_resource_exhaustion(&io::Error::from_raw_os_error(23)));
        assert!(!is_resource_exhaustion(&io::Error::from_raw_os_error(11)));
        assert!(!is_resource_exhaustion(&io::Error::new(
            io::ErrorKind::WouldBlock,
            "scripted"
        )));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_waker_readiness() {
        let mut ep = Epoll::new().expect("epoll_create1");
        let wake = Waker::new().expect("socket pair");
        ep.add(wake.raw_fd(), 7, Interest::READ).expect("add");
        let mut events = Vec::new();
        ep.wait(&mut events, Some(Duration::from_millis(0)))
            .expect("wait");
        assert!(events.is_empty(), "an unsignalled waker must not wake");
        wake.signal();
        ep.wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        wake.drain();
        ep.wait(&mut events, Some(Duration::from_millis(0)))
            .expect("wait");
        assert!(events.is_empty(), "a drained waker must settle");
        ep.delete(wake.raw_fd()).expect("delete");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn interest_modify_switches_directions() {
        use std::io::Write;
        let mut ep = Epoll::new().expect("epoll_create1");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        use std::os::fd::AsRawFd;
        let fd = served.as_raw_fd();
        ep.add(fd, 1, Interest::READ).expect("add");
        let mut events = Vec::new();
        ep.wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty(), "no bytes yet");
        (&client).write_all(b"x").unwrap();
        ep.wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        // Swap to write interest: an idle socket is immediately writable.
        ep.modify(
            fd,
            1,
            Interest {
                readable: false,
                writable: true,
            },
        )
        .expect("modify");
        ep.wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        ep.delete(fd).expect("delete");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn nonblocking_connect_finishes_on_writability() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let stream = connect_nonblocking(&addr, Duration::from_secs(1)).expect("connect");
        let mut ep = Epoll::new().expect("epoll_create1");
        let write = Interest {
            readable: false,
            writable: true,
        };
        ep.add(stream.as_raw_fd(), 3, write).expect("add");
        let mut events = Vec::new();
        ep.wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        assert!(connect_result(&stream).expect("SO_ERROR"), "connected");
        let _ = listener.accept().expect("accept");

        // Bind-then-drop reserves a port with no listener behind it: the
        // refusal surfaces from SO_ERROR (or from connect itself).
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let refused = connect_nonblocking(&dead, Duration::from_secs(1)).and_then(|s| {
            std::thread::sleep(Duration::from_millis(50));
            connect_result(&s)
        });
        assert!(refused.is_err(), "a dead port must refuse, got {refused:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn nofile_limit_is_reported() {
        let got = raise_nofile_limit(64).expect("getrlimit");
        assert!(got >= 64);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn own_process_cpu_is_readable() {
        let pid = std::process::id();
        let total = process_cpu_seconds(pid).expect("process stat");
        assert!(total >= 0.0);
        // The test runner's threads are named "tests::..." or similar;
        // a prefix that matches nothing must sum to zero, not error.
        let none = thread_cpu_seconds(pid, "no-such-thread-prefix").expect("task scan");
        assert_eq!(none, 0.0);
    }
}
