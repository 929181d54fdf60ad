//! The one closed-loop phase runner every scenario drives traffic
//! through, and the one [`PhaseStats`] every phase reports.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gb_service::client::Client;
use gb_service::proto::{Json, Request, Response, WireCodec};

use crate::report::{int, obj, Fields};

/// When a phase stops issuing requests: after a total request count, at
/// a deadline measured from the phase start, or when a flag is raised —
/// whichever comes first among those set.
#[derive(Default)]
pub struct Stop {
    requests: Option<u64>,
    within: Option<Duration>,
    flag: Option<Arc<AtomicBool>>,
}

impl Stop {
    pub fn after(requests: u64) -> Stop {
        Stop {
            requests: Some(requests),
            ..Stop::default()
        }
    }

    pub fn on(flag: &Arc<AtomicBool>) -> Stop {
        Stop {
            flag: Some(Arc::clone(flag)),
            ..Stop::default()
        }
    }

    /// Adds a wall-clock cap (`None` leaves the rule as it is).
    pub fn or_within(mut self, cap: Option<Duration>) -> Stop {
        self.within = cap;
        self
    }
}

/// One phase of closed-loop traffic: `conns` connections, each keeping
/// `window` requests in flight (1 = synchronous, >1 = pipelined bursts).
/// The connections draw indices from one shared counter, so together
/// they send requests `0, 1, 2, ...` of the generator exactly once.
pub struct Phase {
    addr: SocketAddr,
    conns: usize,
    window: usize,
    codec: WireCodec,
    stop: Stop,
    /// Sleep `.1` after every `.0` requests on each connection.
    pace: Option<(u64, Duration)>,
    request: Box<dyn Fn(u64) -> Request + Send + Sync>,
}

impl Phase {
    pub fn new(
        addr: SocketAddr,
        stop: Stop,
        request: impl Fn(u64) -> Request + Send + Sync + 'static,
    ) -> Phase {
        Phase {
            addr,
            conns: 1,
            window: 1,
            codec: WireCodec::Json,
            stop,
            pace: None,
            request: Box::new(request),
        }
    }

    pub fn conns(mut self, conns: usize) -> Phase {
        self.conns = conns.max(1);
        self
    }

    pub fn window(mut self, window: usize) -> Phase {
        self.window = window.max(1);
        self
    }

    pub fn codec(mut self, codec: WireCodec) -> Phase {
        self.codec = codec;
        self
    }

    pub fn pace(mut self, every: u64, pause: Duration) -> Phase {
        self.pace = Some((every.max(1), pause));
        self
    }

    /// Drives the phase to its stop rule and merges every connection's
    /// tally. Transport failures end that connection and are counted in
    /// `io_errors`; the caller decides whether they fail the phase.
    pub fn run(self) -> PhaseStats {
        let phase = Arc::new(self);
        let next = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        let handles: Vec<_> = (0..phase.conns)
            .map(|_| {
                let (phase, next) = (Arc::clone(&phase), Arc::clone(&next));
                thread::spawn(move || phase.drive(&next, started))
            })
            .collect();
        let mut total = Tally::default();
        for handle in handles {
            total.merge(handle.join().expect("phase client panicked"));
        }
        total.finish(started.elapsed())
    }

    fn drive(&self, next: &AtomicU64, started: Instant) -> Tally {
        let mut tally = Tally::default();
        let mut client = match Client::connect(self.addr) {
            Ok(client) => client,
            Err(e) => {
                tally.io_error(format!("connect: {e}"));
                return tally;
            }
        };
        client.set_codec(self.codec);
        let window = self.window as u64;
        let mut since_pause = 0u64;
        loop {
            if self
                .stop
                .flag
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
                || self.stop.within.is_some_and(|d| started.elapsed() >= d)
            {
                break;
            }
            let first = next.fetch_add(window, Ordering::Relaxed);
            let burst = match self.stop.requests {
                Some(total) if first >= total => break,
                Some(total) => window.min(total - first),
                None => window,
            };
            let sent = Instant::now();
            for index in first..first + burst {
                if let Err(e) = client.send(&(self.request)(index)) {
                    tally.io_error(format!("send: {e}"));
                    return tally;
                }
            }
            for _ in 0..burst {
                match client.recv() {
                    Ok(response) => tally.reply(&response, sent.elapsed()),
                    Err(e) => {
                        tally.io_error(format!("recv: {e}"));
                        return tally;
                    }
                }
            }
            if let Some((every, pause)) = self.pace {
                since_pause += burst;
                if since_pause >= every {
                    since_pause = 0;
                    thread::sleep(pause);
                }
            }
        }
        tally
    }
}

/// Raw per-connection counts; [`Tally::finish`] turns them into
/// [`PhaseStats`]. Loops the runner does not cover (chaos, the failover
/// flood) tally through this too.
#[derive(Default)]
pub struct Tally {
    ok: u64,
    cached: u64,
    errors: BTreeMap<&'static str, u64>,
    io_errors: u64,
    first_io_error: Option<String>,
    latencies_us: Vec<u64>,
}

impl Tally {
    /// Counts one reply; `Pong`/`Stats` to a balance request count as
    /// `unexpected` errors.
    pub fn reply(&mut self, response: &Response, latency: Duration) {
        match response {
            Response::Ok(ok) => {
                self.ok += 1;
                self.cached += u64::from(ok.cached);
            }
            Response::Error { code, .. } => self.error(code.name()),
            _ => self.error("unexpected"),
        }
        self.latencies_us
            .push(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Counts one error reply that carried no latency sample.
    pub fn error(&mut self, code: &'static str) {
        *self.errors.entry(code).or_default() += 1;
    }

    pub fn ok(&mut self) {
        self.ok += 1;
    }

    pub fn io_error(&mut self, what: String) {
        self.io_errors += 1;
        self.first_io_error.get_or_insert(what);
    }

    pub fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.cached += other.cached;
        for (code, n) in other.errors {
            *self.errors.entry(code).or_default() += n;
        }
        self.io_errors += other.io_errors;
        if self.first_io_error.is_none() {
            self.first_io_error = other.first_io_error;
        }
        self.latencies_us.extend(other.latencies_us);
    }

    pub fn finish(mut self, elapsed: Duration) -> PhaseStats {
        self.latencies_us.sort_unstable();
        let latencies = &self.latencies_us;
        let requests = self.ok + self.errors.values().sum::<u64>();
        let elapsed_s = elapsed.as_secs_f64();
        let rps = requests as f64 / elapsed_s.max(1e-9);
        PhaseStats {
            requests,
            ok: self.ok,
            cached: self.cached,
            io_errors: self.io_errors,
            first_io_error: self.first_io_error,
            elapsed_s,
            rps,
            p50_us: percentile(latencies, 0.50),
            p95_us: percentile(latencies, 0.95),
            p99_us: percentile(latencies, 0.99),
            max_us: latencies.last().copied().unwrap_or(0),
            rounds_rps: vec![rps],
            errors: self.errors,
        }
    }
}

/// What one phase observed, in the shape every report shares.
pub struct PhaseStats {
    /// Replies received (ok + error replies).
    pub requests: u64,
    pub ok: u64,
    pub cached: u64,
    /// Error replies by wire code.
    pub errors: BTreeMap<&'static str, u64>,
    /// Connections that ended on a transport failure.
    pub io_errors: u64,
    pub first_io_error: Option<String>,
    pub elapsed_s: f64,
    pub rps: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// One entry per measured round; the phase reports the best.
    pub rounds_rps: Vec<f64>,
}

impl PhaseStats {
    pub fn errors_total(&self) -> u64 {
        self.errors.values().sum()
    }

    /// Fails the phase on any transport failure.
    pub fn checked(self, what: &str) -> Result<PhaseStats, String> {
        match &self.first_io_error {
            None => Ok(self),
            Some(first) => Err(format!(
                "{what}: {} connection(s) failed, first: {first}",
                self.io_errors
            )),
        }
    }

    /// Fails the phase unless every request was answered `ok`.
    pub fn all_ok(self, what: &str) -> Result<PhaseStats, String> {
        let stats = self.checked(what)?;
        if stats.ok == stats.requests {
            Ok(stats)
        } else {
            Err(format!("{what}: error replies {:?}", stats.errors))
        }
    }

    /// One human-readable line.
    pub fn summary(&self) -> String {
        format!(
            "{:>8.0} req/s  p50 {} us  p95 {} us  p99 {} us  ({} replies, ok {}, cached {}, \
             errors {:?}, io errors {})",
            self.rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.requests,
            self.ok,
            self.cached,
            self.errors,
            self.io_errors
        )
    }

    /// The stats object, followed by scenario-specific `extras`.
    pub fn to_json(&self, extras: Fields) -> Json {
        let errors = self.errors.iter().map(|(&code, &n)| (code, int(n)));
        let rounds = self.rounds_rps.iter().map(|&r| Json::Num(r)).collect();
        let mut fields = vec![
            ("requests", int(self.requests)),
            ("ok", int(self.ok)),
            ("cached", int(self.cached)),
            ("errors", obj(errors.collect())),
            ("io_errors", int(self.io_errors)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("throughput_rps", Json::Num(self.rps)),
            ("p50_us", int(self.p50_us)),
            ("p95_us", int(self.p95_us)),
            ("p99_us", int(self.p99_us)),
            ("max_us", int(self.max_us)),
            ("rounds_rps", Json::Arr(rounds)),
        ];
        fields.extend(extras);
        obj(fields)
    }
}

/// Nearest-rank percentile of an ascending sample.
fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).max(1) - 1;
    sorted_us[rank.min(sorted_us.len() - 1)]
}
