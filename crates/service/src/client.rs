//! A minimal blocking client for the gb-service protocol.
//!
//! [`Client::call`] writes a frame and blocks until the matching
//! response arrives. Pipelining callers split it: any number of
//! [`Client::send`]s are buffered, and each [`Client::recv`] flushes them
//! and reads the next reply. Replies come back in request order; the
//! codec is lines of JSON, or length-prefixed binary frames after
//! [`Client::set_codec`].

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::cache::splitmix64;
use crate::proto::{Codec, Request, Response, WireCodec, BIN_HDR, MAGIC, MAX_FRAME};

/// Default socket timeout applied by [`Client::connect`]. A wedged or
/// dead server then fails the call instead of hanging the caller
/// forever; pass explicit timeouts via [`Client::connect_timeouts`]
/// (including `None` to opt back into blocking forever).
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking request/response connection to a gb-service server.
#[derive(Debug)]
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    codec: WireCodec,
    frame: Vec<u8>,
}

impl Client {
    /// Connects with [`DEFAULT_TIMEOUT`] on both reads and writes, so a
    /// server that stops answering (or stops reading) cannot stall the
    /// caller forever.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Self::connect_timeouts(addr, Some(DEFAULT_TIMEOUT), Some(DEFAULT_TIMEOUT))
    }

    /// Connects and applies a read timeout to every call; the write
    /// timeout defaults to [`DEFAULT_TIMEOUT`].
    pub fn connect_timeout(addr: SocketAddr, timeout: Option<Duration>) -> io::Result<Client> {
        Self::connect_timeouts(addr, timeout, Some(DEFAULT_TIMEOUT))
    }

    /// Connects with independent read and write timeouts (`None`
    /// blocks indefinitely on that side).
    pub fn connect_timeouts(
        addr: SocketAddr,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        stream.set_write_timeout(write_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: BufWriter::new(stream),
            reader,
            codec: WireCodec::Json,
            frame: Vec::new(),
        })
    }

    /// Selects the wire codec for subsequent calls. The server sniffs
    /// each frame's first byte, so switching mid-connection is legal.
    pub fn set_codec(&mut self, codec: WireCodec) {
        self.codec = codec;
    }

    /// The wire codec used by [`Client::call`].
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// Sends a request and waits for its response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Buffers one request frame in the current codec. Nothing reaches
    /// the socket until the buffer fills or the next [`Client::recv`].
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.frame.clear();
        match self.codec {
            WireCodec::Json => {
                self.frame.extend_from_slice(request.encode().as_bytes());
                self.frame.push(b'\n');
            }
            WireCodec::Binary => WireCodec::Binary.encode_request(request, &mut self.frame),
        }
        self.writer.write_all(&self.frame)
    }

    /// Flushes buffered requests, then reads the next response frame in
    /// the current codec.
    pub fn recv(&mut self) -> io::Result<Response> {
        self.writer.flush()?;
        match self.codec {
            WireCodec::Json => self.read_json_response(),
            WireCodec::Binary => self.read_binary_response(),
        }
    }

    /// Reads one length-prefixed binary response frame.
    fn read_binary_response(&mut self) -> io::Result<Response> {
        let mut header = [0u8; BIN_HDR];
        self.read_exact_or_eof(&mut header)?;
        if header[0] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected binary frame, got first byte {:#04x}", header[0]),
            ));
        }
        let len = u32::from_le_bytes(header[1..].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("binary frame declares {len} bytes (cap {MAX_FRAME})"),
            ));
        }
        self.frame.resize(len, 0);
        self.reader.read_exact(&mut self.frame)?;
        WireCodec::Binary
            .decode_response(&self.frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// `read_exact` that maps a clean EOF before the first byte to the
    /// same "server closed" error the JSON path reports.
    fn read_exact_or_eof(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.reader.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            } else {
                e
            }
        })
    }

    /// Sends a raw line (no newline) and decodes the response — lets
    /// tests exercise the server's handling of malformed input.
    pub fn call_raw(&mut self, line: &str) -> io::Result<Response> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_json_response()
    }

    /// Reads one newline-terminated JSON response.
    fn read_json_response(&mut self) -> io::Result<Response> {
        let mut reply = String::new();
        // take() guards against an endless line from a broken server.
        let n = (&mut self.reader)
            .take(2 * MAX_FRAME as u64)
            .read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::decode(reply.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Reconnect backoff
// ---------------------------------------------------------------------------

/// Capped exponential backoff with deterministic equal-jitter.
///
/// Attempt `k` sleeps `e/2 + U[0, e/2)` where `e = min(cap, base·2^k)`
/// and the uniform draw comes from a seeded SplitMix64 stream — so two
/// processes hammering a refused port never sync their retries into
/// thundering herds, yet a test can replay the exact schedule from the
/// seed. Used by [`Client::connect_retry`] and by the `gb-router`
/// upstream pools, which must not hot-spin on a dead backend.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// Default first-retry delay.
    pub const DEFAULT_BASE: Duration = Duration::from_millis(10);
    /// Default delay ceiling.
    pub const DEFAULT_CAP: Duration = Duration::from_millis(1_000);

    /// A schedule starting at `base`, doubling up to `cap`, jittered
    /// from `seed`. A zero `base` is bumped to 1 ms so the schedule
    /// actually backs off.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        let base = base.max(Duration::from_millis(1));
        Backoff {
            base,
            cap: cap.max(base),
            attempt: 0,
            // Finalise the seed so consecutive seeds give unrelated
            // streams (the raw counter would correlate low bits).
            rng: splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// The default schedule (10 ms → 1 s) jittered from `seed`.
    pub fn with_seed(seed: u64) -> Backoff {
        Self::new(Self::DEFAULT_BASE, Self::DEFAULT_CAP, seed)
    }

    /// Attempts made since construction or the last [`reset`](Self::reset).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The next delay in the schedule: half the exponential envelope
    /// guaranteed, the other half uniformly jittered.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(20))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        self.rng = splitmix64(self.rng);
        let half = exp.as_nanos().max(2) as u64 / 2;
        Duration::from_nanos(half + self.rng % half)
    }

    /// Restarts the schedule after a successful connect (the jitter
    /// stream keeps advancing, so schedules stay decorrelated).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

impl Client {
    /// Connects with retries: a refused or failing connect sleeps out
    /// the next `backoff` delay and tries again until `overall` has
    /// elapsed, then returns the last error. Timeouts are applied as in
    /// [`Client::connect_timeouts`]. The backoff is borrowed so callers
    /// keep one schedule across calls (and can observe its attempts).
    pub fn connect_retry(
        addr: SocketAddr,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
        overall: Duration,
        backoff: &mut Backoff,
    ) -> io::Result<Client> {
        let deadline = Instant::now() + overall;
        loop {
            match Self::connect_timeouts(addr, read_timeout, write_timeout) {
                Ok(client) => {
                    backoff.reset();
                    return Ok(client);
                }
                Err(e) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(e);
                    }
                    std::thread::sleep(backoff.next_delay().min(remaining));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_replies_come_back_in_order_in_both_codecs() {
        use crate::proto::{Algorithm, BalanceRequest};
        use crate::server::{Server, ServerConfig};
        use crate::spec::ProblemSpec;

        let server = Server::start(ServerConfig::default()).expect("start server");
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let mut client = Client::connect(server.local_addr()).expect("connect");
            client.set_codec(codec);
            for id in 0..16u64 {
                client
                    .send(&Request::Balance(BalanceRequest {
                        id: Some(id),
                        algorithm: Algorithm::ALL[id as usize % 4],
                        n: 8,
                        theta: 1.0,
                        deadline_ms: None,
                        want_pieces: false,
                        problem: ProblemSpec::Synthetic {
                            weight: 1.0,
                            lo: 0.2,
                            hi: 0.5,
                            seed: id % 5,
                        },
                    }))
                    .expect("send");
            }
            for id in 0..16u64 {
                match client.recv().expect("recv") {
                    Response::Ok(ok) => {
                        assert_eq!(ok.id, Some(id), "{codec:?} reply out of order");
                        assert_eq!(ok.algorithm, Algorithm::ALL[id as usize % 4]);
                    }
                    other => panic!("{codec:?}: unexpected {other:?}"),
                }
            }
        }
        server.shutdown();
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        let mut b = Backoff::new(base, cap, 7);
        for attempt in 0..12u32 {
            let exp = base.saturating_mul(1 << attempt.min(20)).min(cap);
            let d = b.next_delay();
            assert!(
                d >= exp / 2 && d < exp,
                "attempt {attempt}: {d:?} outside [{:?}, {:?})",
                exp / 2,
                exp
            );
        }
        // Once capped, every delay stays within the cap envelope.
        let d = b.next_delay();
        assert!(d >= cap / 2 && d < cap);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::with_seed(seed);
            (0..8).map(|_| b.next_delay()).collect()
        };
        assert_eq!(schedule(42), schedule(42));
        assert_ne!(schedule(42), schedule(43), "seeds must decorrelate");
    }

    #[test]
    fn backoff_reset_restarts_the_envelope() {
        let mut b = Backoff::new(Duration::from_millis(8), Duration::from_secs(1), 1);
        for _ in 0..6 {
            b.next_delay();
        }
        assert_eq!(b.attempt(), 6);
        b.reset();
        assert_eq!(b.attempt(), 0);
        let d = b.next_delay();
        assert!(
            d < Duration::from_millis(8),
            "post-reset delay is base-sized, got {d:?}"
        );
    }

    #[test]
    fn connect_retry_gives_up_after_the_deadline() {
        // A port with no listener: bind-then-drop reserves then frees it.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut backoff = Backoff::new(Duration::from_millis(2), Duration::from_millis(8), 9);
        let started = Instant::now();
        let err = Client::connect_retry(addr, None, None, Duration::from_millis(60), &mut backoff);
        assert!(err.is_err());
        assert!(
            backoff.attempt() >= 2,
            "must have retried, not hot-spun once"
        );
        assert!(
            started.elapsed() >= Duration::from_millis(55),
            "gave up before the overall deadline"
        );
    }
}
