//! Live service metrics: request counters, outcome counters and
//! log-bucketed latency histograms with p50/p95/p99 readout.
//!
//! Everything here is lock-free (`AtomicU64`) so the hot path — worker
//! threads recording one latency sample per request — never contends
//! with a `stats` reader. Quantiles are answered from power-of-two
//! buckets: bucket `i` covers `[2^i, 2^{i+1})` µs, so a reported p99 is
//! exact to within a factor of two, which is plenty for a load shedder
//! and far cheaper than tracking raw samples server-side.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gb_rebal::{RebalanceSettings, RebalanceSnapshot};

use crate::proto::{Algorithm, ErrorCode, Json};

/// Number of histogram buckets: covers `[1 µs, 2^39 µs ≈ 9 days)`.
const BUCKETS: usize = 40;

/// A fixed-bucket, log₂-spaced latency histogram over microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        // 0 and 1 µs land in bucket 0; beyond the last bucket saturates.
        (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest recorded sample in µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Approximate quantile `q ∈ [0, 1]` in µs: the upper edge of the
    /// first bucket whose cumulative count reaches `q·total` (within a
    /// factor of 2 of the true quantile). Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << i).saturating_mul(2).min(self.max_us().max(1));
            }
        }
        self.max_us()
    }

    /// JSON summary used by the stats endpoint.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Int(self.count() as i64)),
            ("mean_us".into(), Json::Num(self.mean_us())),
            ("p50_us".into(), Json::Int(self.quantile_us(0.50) as i64)),
            ("p95_us".into(), Json::Int(self.quantile_us(0.95) as i64)),
            ("p99_us".into(), Json::Int(self.quantile_us(0.99) as i64)),
            ("max_us".into(), Json::Int(self.max_us() as i64)),
        ])
    }
}

/// All service-level counters plus per-algorithm latency histograms.
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    /// Successful balance responses per algorithm.
    ok_by_algorithm: [AtomicU64; 4],
    /// Of the successes, how many were served from cache, per algorithm.
    cached_by_algorithm: [AtomicU64; 4],
    /// Error responses per [`ErrorCode`].
    errors: [AtomicU64; 5],
    /// Stats/ping/shutdown frames served.
    control: AtomicU64,
    /// Cache hits answered inline on an I/O poller, skipping the queue
    /// and worker hand-off entirely.
    fast_path: AtomicU64,
    /// Bisections of the problem made by computed answers.
    bisections: AtomicU64,
    /// Bisections a shared bisection tree answered instead.
    tree_reused: AtomicU64,
    /// Computed answers whose ratio exceeds their bound.
    bound_violations: AtomicU64,
    /// Wall-clock µs spent computing answers (solve, cache put, spill
    /// enqueue), queue wait excluded.
    compute_us: AtomicU64,
    /// Latency over all balance requests (receipt → response ready).
    latency: Histogram,
    /// Latency split per algorithm.
    latency_by_algorithm: [Histogram; 4],
}

impl ServiceMetrics {
    /// Creates zeroed metrics anchored at "now".
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            ok_by_algorithm: std::array::from_fn(|_| AtomicU64::new(0)),
            cached_by_algorithm: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: std::array::from_fn(|_| AtomicU64::new(0)),
            control: AtomicU64::new(0),
            fast_path: AtomicU64::new(0),
            bisections: AtomicU64::new(0),
            tree_reused: AtomicU64::new(0),
            bound_violations: AtomicU64::new(0),
            compute_us: AtomicU64::new(0),
            latency: Histogram::new(),
            latency_by_algorithm: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Records a successful balance response.
    pub fn record_ok(&self, algorithm: Algorithm, cached: bool, latency: Duration) {
        let i = algorithm.index();
        self.ok_by_algorithm[i].fetch_add(1, Ordering::Relaxed);
        if cached {
            self.cached_by_algorithm[i].fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency);
        self.latency_by_algorithm[i].record(latency);
    }

    /// Records an error response.
    pub fn record_error(&self, code: ErrorCode) {
        self.errors[code.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a control-plane frame (stats / ping / shutdown).
    pub fn record_control(&self) {
        self.control.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache hit served inline on the I/O thread (no queue
    /// round trip). Call *in addition to* [`record_ok`](Self::record_ok).
    pub fn record_fast_path(&self) {
        self.fast_path.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the solver work of one computed (not cached) answer and
    /// the time it took.
    pub fn record_solve(
        &self,
        bisections: u64,
        tree_reused: u64,
        bound_violated: bool,
        compute: Duration,
    ) {
        let us = compute.as_micros().min(u64::MAX as u128) as u64;
        self.compute_us.fetch_add(us, Ordering::Relaxed);
        self.bisections.fetch_add(bisections, Ordering::Relaxed);
        self.tree_reused.fetch_add(tree_reused, Ordering::Relaxed);
        if bound_violated {
            self.bound_violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Responses served on the inline fast path so far.
    pub fn fast_path_count(&self) -> u64 {
        self.fast_path.load(Ordering::Relaxed)
    }

    /// Seconds since the server started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Total balance requests answered (ok + error).
    pub fn total_requests(&self) -> u64 {
        let err: u64 = self.errors.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        self.total_ok() + err
    }

    /// Successful balance responses over every algorithm, cached or not.
    fn total_ok(&self) -> u64 {
        self.ok_by_algorithm
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Count of error responses with the given code.
    pub fn error_count(&self, code: ErrorCode) -> u64 {
        self.errors[code.index()].load(Ordering::Relaxed)
    }

    /// Successful responses for one algorithm.
    pub fn ok_count(&self, algorithm: Algorithm) -> u64 {
        self.ok_by_algorithm[algorithm.index()].load(Ordering::Relaxed)
    }

    /// Full JSON snapshot (the `requests`/`solver`/`load`/`latency`
    /// sections of the stats response; cache/queue/connection figures are
    /// merged in by the server). `load` is the cumulative pair a fleet
    /// weighs an upstream by: answers served and compute µs spent.
    pub fn to_json(&self) -> Json {
        let counter = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        let by_algorithm = Json::Obj(
            Algorithm::ALL
                .iter()
                .map(|&a| {
                    let i = a.index();
                    (
                        a.name().to_string(),
                        Json::Obj(vec![
                            (
                                "ok".into(),
                                Json::Int(self.ok_by_algorithm[i].load(Ordering::Relaxed) as i64),
                            ),
                            (
                                "cached".into(),
                                Json::Int(
                                    self.cached_by_algorithm[i].load(Ordering::Relaxed) as i64
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let outcomes = Json::Obj(
            ErrorCode::ALL
                .iter()
                .map(|&c| (c.name().to_string(), Json::Int(self.error_count(c) as i64)))
                .collect(),
        );
        let latency_by_algorithm = Json::Obj(
            Algorithm::ALL
                .iter()
                .map(|&a| {
                    (
                        a.name().to_string(),
                        self.latency_by_algorithm[a.index()].to_json(),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            (
                "uptime_ms".into(),
                Json::Int(self.uptime().as_millis().min(i64::MAX as u128) as i64),
            ),
            (
                "requests".into(),
                Json::Obj(vec![
                    ("total".into(), Json::Int(self.total_requests() as i64)),
                    (
                        "control".into(),
                        Json::Int(self.control.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "fast_path".into(),
                        Json::Int(self.fast_path.load(Ordering::Relaxed) as i64),
                    ),
                    ("by_algorithm".into(), by_algorithm),
                    ("errors".into(), outcomes),
                ]),
            ),
            (
                "solver".into(),
                Json::Obj(vec![
                    ("bisections".into(), counter(&self.bisections)),
                    ("tree_reused".into(), counter(&self.tree_reused)),
                    ("bound_violations".into(), counter(&self.bound_violations)),
                ]),
            ),
            (
                "load".into(),
                Json::Obj(vec![
                    ("served".into(), Json::Int(self.total_ok() as i64)),
                    ("micros".into(), counter(&self.compute_us)),
                ]),
            ),
            (
                "latency".into(),
                Json::Obj(vec![
                    ("overall".into(), self.latency.to_json()),
                    ("by_algorithm".into(), latency_by_algorithm),
                ]),
            ),
        ])
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// The `stats.rebal` section both tiers report: whether a tick thread
/// runs, its settings, the tick counters, the latest imbalance pair, and
/// the observed-α Theorem 2 bound the plan was held to.
pub fn rebal_json(
    settings: Option<&RebalanceSettings>,
    enabled: bool,
    vnode_count: usize,
    snap: &RebalanceSnapshot,
) -> Json {
    let int = |v: u128| Json::Int(v.min(i64::MAX as u128) as i64);
    Json::Obj(vec![
        ("enabled".into(), Json::Bool(enabled)),
        ("vnode_count".into(), int(vnode_count as u128)),
        (
            "interval_ms".into(),
            int(settings.map_or(0, |s| s.interval.as_millis())),
        ),
        (
            "trigger".into(),
            Json::Num(settings.map_or(0.0, |s| s.trigger)),
        ),
        (
            "move_budget".into(),
            int(settings.map_or(0, |s| s.move_budget as u128)),
        ),
        ("ticks".into(), int(snap.ticks.into())),
        ("skipped".into(), int(snap.skipped.into())),
        ("moved".into(), int(snap.moved.into())),
        ("max_tick_moves".into(), int(snap.max_tick_moves.into())),
        ("version".into(), int(snap.version.into())),
        ("imbalance_before".into(), Json::Num(snap.imbalance_before)),
        ("imbalance_after".into(), Json::Num(snap.imbalance_after)),
        ("alpha".into(), Json::Num(snap.alpha)),
        ("bound".into(), Json::Num(snap.bound)),
    ])
}

/// Renders a store counter snapshot as the stats endpoint's `store`
/// section.
pub fn store_json(stats: &gb_store::StoreStats) -> Json {
    Json::Obj(vec![
        ("appended".into(), Json::Int(stats.appended as i64)),
        ("recovered".into(), Json::Int(stats.recovered as i64)),
        (
            "corrupt_skipped".into(),
            Json::Int(stats.corrupt_skipped as i64),
        ),
        ("compacted".into(), Json::Int(stats.compacted as i64)),
        ("synced".into(), Json::Int(stats.synced as i64)),
        (
            "spill_dropped".into(),
            Json::Int(stats.spill_dropped as i64),
        ),
        ("write_errors".into(), Json::Int(stats.write_errors as i64)),
        ("bytes_live".into(), Json::Int(stats.bytes_live as i64)),
        (
            "bytes_on_disk".into(),
            Json::Int(stats.bytes_on_disk as i64),
        ),
        ("segments".into(), Json::Int(stats.segments as i64)),
        ("live_records".into(), Json::Int(stats.live_records as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = Histogram::new();
        // 90 fast samples (~8 µs), 10 slow (~8192 µs).
        for _ in 0..90 {
            h.record(Duration::from_micros(8));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(8192));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        assert!(p50 <= 16, "p50 {p50}");
        assert!(p99 >= 8192, "p99 {p99}");
        assert!(h.max_us() >= 8192);
        assert!(h.mean_us() > 0.0);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn metrics_counts_and_snapshot_are_consistent() {
        let m = ServiceMetrics::new();
        m.record_ok(Algorithm::Hf, false, Duration::from_micros(100));
        m.record_ok(Algorithm::Hf, true, Duration::from_micros(5));
        m.record_ok(Algorithm::Ba, false, Duration::from_micros(300));
        m.record_error(ErrorCode::Overloaded);
        m.record_control();
        assert_eq!(m.total_requests(), 4);
        assert_eq!(m.ok_count(Algorithm::Hf), 2);
        assert_eq!(m.error_count(ErrorCode::Overloaded), 1);
        let json = m.to_json();
        let requests = json.get("requests").unwrap();
        assert_eq!(requests.get("total").unwrap().as_u64(), Some(4));
        let hf = requests.get("by_algorithm").unwrap().get("hf").unwrap();
        assert_eq!(hf.get("ok").unwrap().as_u64(), Some(2));
        assert_eq!(hf.get("cached").unwrap().as_u64(), Some(1));
        let overall = json.get("latency").unwrap().get("overall").unwrap();
        assert_eq!(overall.get("count").unwrap().as_u64(), Some(3));
        m.record_solve(5, 0, false, Duration::from_micros(250));
        let load = m.to_json().get("load").cloned().unwrap();
        assert_eq!(load.get("served").unwrap().as_u64(), Some(3));
        assert_eq!(load.get("micros").unwrap().as_u64(), Some(250));
    }
}
