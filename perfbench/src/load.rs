//! The closed-loop load generator and the reply checker. Each connection
//! is driven by one thread that keeps a fixed window of requests
//! outstanding and sends the next only when a reply arrives.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gb_service::proto::{Codec, Response, WireCodec, BIN_HDR, MAGIC, MAX_FRAME};

use crate::gen::{self, Key};
use crate::rounds::{Marker, ROUND};
use crate::trace::{Tracer, ROOT};
use crate::workload::{Workload, CONNS};

/// Pre-encoded frames per connection for the hit workloads; request k
/// reuses frame k mod this.
const HOT_CYCLE: usize = 16384;

/// Ids of set-up requests start here, clear of any run index.
const WARM_ID_BASE: u64 = 1 << 40;

/// One connection: a buffered reader and a writer over the same socket.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    codec: WireCodec,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, codec: WireCodec) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(256 * 1024, stream.try_clone()?),
            writer: stream,
            codec,
            buf: Vec::new(),
        })
    }

    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)
    }

    /// Reads one reply frame and returns its de-framed payload.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        self.buf.clear();
        match self.codec {
            WireCodec::Json => {
                self.reader.read_until(b'\n', &mut self.buf)?;
                if self.buf.pop() != Some(b'\n') {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ));
                }
            }
            WireCodec::Binary => {
                let mut header = [0u8; BIN_HDR];
                self.reader.read_exact(&mut header)?;
                let len = u32::from_le_bytes(header[1..].try_into().expect("4 bytes")) as usize;
                if header[0] != MAGIC || len > MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "bad binary frame",
                    ));
                }
                self.buf.resize(len, 0);
                self.reader.read_exact(&mut self.buf)?;
            }
        }
        Ok(&self.buf)
    }
}

/// What a reply must agree with, and the figures taken from it.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    pub ratio: f64,
    pub bound: f64,
    pub cached: bool,
    pub micros: u64,
    /// Digest of ratio, bound, α and pieces: a repeated key must
    /// reproduce its first answer's digest.
    pub digest: u64,
    pub max_piece: f64,
    pub piece_sum: f64,
}

/// Checks one decoded reply against the request that produced it: id,
/// algorithm and n echoed; at most n pieces, present exactly when asked
/// for; and, when the root weight W is known here, pieces summing to W
/// and `max(pieces) / (W / n)` equal to the returned ratio.
pub fn check_reply(resp: Response, id: u64, key: &Key) -> Result<Checked, String> {
    let ok = match resp {
        Response::Ok(ok) => ok,
        Response::Error { code, message, .. } => {
            return Err(format!("error reply {}: {message}", code.name()))
        }
        other => return Err(format!("unexpected reply {other:?}")),
    };
    if ok.id != Some(id) || ok.algorithm != key.algorithm || ok.n != key.n {
        return Err(format!(
            "reply echoes id {:?} {} n={} for request {id} {} n={}",
            ok.id,
            ok.algorithm.name(),
            ok.n,
            key.algorithm.name(),
            key.n
        ));
    }
    if ok.pieces.len() > key.n || ok.pieces.is_empty() == key.want_pieces {
        return Err(format!(
            "{} pieces for n={} (want_pieces {})",
            ok.pieces.len(),
            key.n,
            key.want_pieces
        ));
    }
    if !(ok.ratio.is_finite() && ok.bound.is_finite() && ok.ratio >= 1.0 - 1e-9) {
        return Err(format!(
            "implausible ratio {} / bound {}",
            ok.ratio, ok.bound
        ));
    }
    let mut digest = Fnv::new();
    digest.u64(ok.ratio.to_bits());
    digest.u64(ok.bound.to_bits());
    digest.u64(ok.alpha.to_bits());
    let (mut max_piece, mut piece_sum) = (0.0f64, 0.0f64);
    for &p in &ok.pieces {
        if !(p.is_finite() && p > 0.0) {
            return Err(format!("piece weight {p}"));
        }
        max_piece = max_piece.max(p);
        piece_sum += p;
        digest.u64(p.to_bits());
    }
    let checked = Checked {
        ratio: ok.ratio,
        bound: ok.bound,
        cached: ok.cached,
        micros: ok.micros,
        digest: digest.0,
        max_piece,
        piece_sum,
    };
    if let Some(w) = key.known_weight() {
        check_weights(&checked, key.n, w)?;
    }
    Ok(checked)
}

/// The pieces sum to the root weight `w` and `max(pieces) / (w / n)`
/// equals the returned ratio (skipped when no pieces were asked for).
pub fn check_weights(c: &Checked, n: usize, w: f64) -> Result<(), String> {
    if c.piece_sum == 0.0 {
        return Ok(());
    }
    if (c.piece_sum - w).abs() > 1e-9 * w {
        return Err(format!(
            "pieces sum to {} but the root weighs {w}",
            c.piece_sum
        ));
    }
    let ratio = c.max_piece / (w / n as f64);
    if (ratio - c.ratio).abs() > 1e-9 * ratio {
        return Err(format!("ratio {} but max(pieces)/(W/n) = {ratio}", c.ratio));
    }
    Ok(())
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The request list of one workload run.
pub enum Source {
    /// The hit workloads: a hot set and, per connection, a cycle of
    /// pre-encoded frames over it, plus every key's first answer.
    Hot {
        keys: Vec<Key>,
        seqs: Vec<Vec<u32>>,
        frames: Vec<Vec<Vec<u8>>>,
        first_answers: Vec<Checked>,
    },
    /// `miss-mixed`: request g is `gen::miss_key(seed, g)`, encoded when
    /// it is sent.
    Miss { seed: u64, codec: WireCodec },
}

impl Source {
    pub fn hot(workload: Workload, seed: u64) -> Source {
        let keys = gen::hot_keys(workload, seed);
        let seqs: Vec<Vec<u32>> = (0..CONNS)
            .map(|c| gen::hot_sequence(workload, seed, c, HOT_CYCLE))
            .collect();
        let frames = seqs
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                seq.iter()
                    .enumerate()
                    .map(|(k, &key)| {
                        let mut frame = Vec::new();
                        let id = global_index(c, k as u64);
                        workload
                            .codec()
                            .encode_request(&keys[key as usize].request(id), &mut frame);
                        frame
                    })
                    .collect()
            })
            .collect();
        Source::Hot {
            keys,
            seqs,
            frames,
            first_answers: Vec::new(),
        }
    }

    /// The id request k of connection c carries.
    pub fn id(&self, c: usize, k: u64) -> u64 {
        match self {
            Source::Hot { .. } => global_index(c, k % HOT_CYCLE as u64),
            Source::Miss { .. } => global_index(c, k),
        }
    }

    /// Request k of connection c and the id its reply must echo.
    pub fn key(&self, c: usize, k: u64) -> (Cow<'_, Key>, u64) {
        match self {
            Source::Hot { keys, seqs, .. } => {
                let pos = k as usize % HOT_CYCLE;
                (
                    Cow::Borrowed(&keys[seqs[c][pos] as usize]),
                    global_index(c, pos as u64),
                )
            }
            Source::Miss { seed, .. } => {
                let g = global_index(c, k);
                (Cow::Owned(gen::miss_key(*seed, g)), g)
            }
        }
    }

    /// Hot-set index of request k of connection c.
    pub fn hot_index(&self, c: usize, k: u64) -> Option<usize> {
        match self {
            Source::Hot { seqs, .. } => Some(seqs[c][k as usize % HOT_CYCLE] as usize),
            Source::Miss { .. } => None,
        }
    }

    /// Digest over every frame a connection sends in its first `count`
    /// requests: equal seeds must give equal digests.
    pub fn frames_digest(&self, count: u64) -> u64 {
        let mut fnv = Fnv::new();
        let mut buf = Vec::new();
        for c in 0..CONNS {
            for k in 0..count {
                buf.clear();
                self.frame(c, k, &mut buf, None);
                for chunk in buf.chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    fnv.u64(u64::from_le_bytes(word));
                }
            }
        }
        fnv.0
    }

    fn frame(&self, c: usize, k: u64, out: &mut Vec<u8>, tracer: Option<(&mut Tracer, u32)>) {
        match self {
            Source::Hot { frames, .. } => {
                out.extend_from_slice(&frames[c][k as usize % HOT_CYCLE]);
            }
            Source::Miss { codec, .. } => {
                let (key, id) = self.key(c, k);
                let req = key.request(id);
                match tracer {
                    Some((t, parent)) => {
                        let s = t.begin("proto.encode_request", parent, id);
                        codec.encode_request(&req, out);
                        t.end(s);
                    }
                    None => codec.encode_request(&req, out),
                }
            }
        }
    }
}

/// Global request index of request k on connection c.
pub fn global_index(c: usize, k: u64) -> u64 {
    k * CONNS as u64 + c as u64
}

/// Sends every hot key once, window 8 on one connection, and returns
/// these first answers.
pub fn warm_hot(conn: &mut Conn, workload: Workload, keys: &[Key]) -> Result<Vec<Checked>, String> {
    let mut first = Vec::with_capacity(keys.len());
    let mut inflight = VecDeque::new();
    let mut next = 0;
    let mut frame = Vec::new();
    let codec = workload.codec();
    while next < keys.len() || !inflight.is_empty() {
        while next < keys.len() && inflight.len() < 8 {
            let id = WARM_ID_BASE + next as u64;
            frame.clear();
            codec.encode_request(&keys[next].request(id), &mut frame);
            conn.send(&frame)
                .map_err(|e| format!("warm-up send: {e}"))?;
            inflight.push_back((next, id));
            next += 1;
        }
        let (key, id) = inflight.pop_front().expect("window is non-empty");
        let payload = conn.recv().map_err(|e| format!("warm-up recv: {e}"))?;
        let resp = codec
            .decode_response(payload)
            .map_err(|e| format!("warm-up decode: {e}"))?;
        debug_assert_eq!(key, first.len());
        first.push(check_reply(resp, id, &keys[key]).map_err(|e| format!("warm-up: {e}"))?);
    }
    Ok(first)
}

/// One measured request. Times are in microseconds from the phase start
/// except `lat_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub index: u64,
    pub sent_us: u32,
    pub lat_ns: u32,
    pub micros: u32,
    pub cached: bool,
}

impl Sample {
    pub fn done_us(&self) -> u64 {
        self.sent_us as u64 + self.lat_ns as u64 / 1000
    }
}

/// What one connection saw in one phase.
#[derive(Default)]
pub struct ConnOut {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub samples: Vec<Sample>,
    /// (index, ratio, bound) of every request in the quality prefix.
    pub quality: Vec<(u64, f64, f64)>,
    /// Replies whose root weight is checked after the phase:
    /// (index, checked figures).
    pub deferred: Vec<(u64, Checked)>,
    /// The next request index to send on this connection.
    pub next_k: u64,
}

impl ConnOut {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }
}

/// The bounds of one measured phase.
pub struct Phase {
    pub start: Instant,
    pub deadline: Instant,
    /// Keep sending past the deadline until every request with a global
    /// index below this has been sent.
    pub prefix: u64,
    pub window: usize,
    /// Load threads the connections are split over.
    pub threads: usize,
}

impl Phase {
    /// Whole rounds in the phase, at least one.
    pub fn rounds(&self) -> usize {
        (((self.deadline - self.start).as_secs_f64() / ROUND.as_secs_f64()) as usize).max(1)
    }
}

/// One connection's side of a phase: its window of requests in flight
/// and what it saw.
pub struct Lane<'a> {
    c: usize,
    conn: &'a mut Conn,
    inflight: VecDeque<(u64, Instant, u32)>,
    broken: bool,
    pub out: ConnOut,
}

impl<'a> Lane<'a> {
    /// Connection `c`, continuing its request list from `first_k`.
    pub fn new(c: usize, conn: &'a mut Conn, first_k: u64) -> Lane<'a> {
        Lane {
            c,
            conn,
            inflight: VecDeque::new(),
            broken: false,
            out: ConnOut {
                next_k: first_k,
                ..ConnOut::default()
            },
        }
    }

    /// Gives up on a broken connection: the request that hit the error
    /// and the rest of the window count as failed.
    fn abandon(&mut self, msg: String) {
        self.out.fail(msg);
        self.out.failed += self.inflight.len() as u64;
        self.inflight.clear();
        self.broken = true;
    }

    /// Tops the window up, unless the phase is over.
    fn fill(
        &mut self,
        source: &Source,
        phase: &Phase,
        frame: &mut Vec<u8>,
        mut tracer: Option<&mut Tracer>,
    ) {
        let c = self.c;
        while !self.broken && self.inflight.len() < phase.window {
            if Instant::now() >= phase.deadline && global_index(c, self.out.next_k) >= phase.prefix
            {
                return;
            }
            let k = self.out.next_k;
            let id = source.id(c, k);
            frame.clear();
            let span = match tracer.as_deref_mut() {
                Some(t) => {
                    let s = t.begin("client.request", ROOT, id);
                    source.frame(c, k, frame, Some((t, s)));
                    s
                }
                None => {
                    source.frame(c, k, frame, None);
                    ROOT
                }
            };
            let sent = Instant::now();
            self.out.attempted += 1;
            self.out.next_k += 1;
            if let Err(e) = self.conn.send(frame) {
                self.abandon(format!("send: {e}"));
                return;
            }
            self.inflight.push_back((k, sent, span));
        }
    }

    /// Reads and checks the reply to the oldest request in flight.
    fn receive(&mut self, source: &Source, phase: &Phase, tracer: Option<&mut Tracer>) {
        let Some((k, sent, span)) = self.inflight.pop_front() else {
            return;
        };
        let c = self.c;
        let codec = self.conn.codec;
        let payload = match self.conn.recv() {
            Ok(p) => p,
            Err(e) => return self.abandon(format!("recv: {e}")),
        };
        let done = Instant::now();
        let (key, id) = source.key(c, k);
        let decoded = match tracer {
            Some(t) => {
                t.record("client.wire", span, id, sent, done);
                let s = t.begin("proto.decode_response", span, id);
                let decoded = codec.decode_response(payload);
                t.end(s);
                t.end(span);
                decoded
            }
            None => codec.decode_response(payload),
        };
        let checked = match decoded
            .map_err(|e| format!("undecodable reply: {e}"))
            .and_then(|resp| check_reply(resp, id, &key))
        {
            Ok(checked) => checked,
            Err(e) => return self.out.fail(format!("request {id}: {e}")),
        };
        if let (Source::Hot { first_answers, .. }, Some(hot)) = (source, source.hot_index(c, k)) {
            if first_answers[hot].digest != checked.digest {
                return self
                    .out
                    .fail(format!("request {id}: hot key {hot} changed its answer"));
            }
        }
        let index = global_index(c, k);
        if key.known_weight().is_none() {
            self.out.deferred.push((index, checked));
        }
        if index < phase.prefix {
            self.out.quality.push((index, checked.ratio, checked.bound));
        }
        self.out.samples.push(Sample {
            index,
            sent_us: sent.duration_since(phase.start).as_micros() as u32,
            lat_ns: (done - sent).as_nanos().min(u32::MAX as u128) as u32,
            micros: checked.micros.min(u32::MAX as u64) as u32,
            cached: checked.cached,
        });
    }
}

/// Drives `lanes` round robin on this thread until the deadline, then
/// drains their windows: each turn tops a lane's window up and reads its
/// oldest reply. With a tracer, every request gets a `client.request`
/// span with `proto.encode_request` (when encoded on the fly),
/// `client.wire` and `proto.decode_response` children. A marker is
/// polled between turns.
pub fn drive(
    lanes: &mut [Lane],
    source: &Source,
    phase: &Phase,
    mut tracer: Option<&mut Tracer>,
    mut marker: Option<&mut Marker>,
) {
    let mut frame = Vec::new();
    loop {
        let mut busy = false;
        for lane in lanes.iter_mut() {
            if let Some(m) = marker.as_deref_mut() {
                m.poll(Instant::now());
            }
            lane.fill(source, phase, &mut frame, tracer.as_deref_mut());
            if !lane.inflight.is_empty() {
                busy = true;
                lane.receive(source, phase, tracer.as_deref_mut());
            }
        }
        if !busy {
            return;
        }
    }
}
