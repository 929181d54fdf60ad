//! The three workloads and the server shape each one drives. Every
//! server flag not named here stays at its default, so later changes to
//! the defaults show up in the numbers.

use gb_service::proto::WireCodec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warmed binary-codec hits direct to one gb-serve: the engine,
    /// proto and cache hit path do all the work.
    HitBinary,
    /// Distinct JSON keys across every class × algorithm × size, direct
    /// to a gb-serve booted on a pre-seeded store: spec, α estimation,
    /// the solver pool, cache puts and the store's write path.
    MissMixed,
    /// zipf(1.0) JSON traffic through gb-router to two small-cache
    /// upstreams: router relay, pooling and cache eviction/admission.
    ProxiedZipf,
}

/// Connections the load generator opens, one thread each (the box has
/// two cores; more would measure the load generator, not the servers).
pub const CONNS: usize = 2;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HitBinary,
        Workload::MissMixed,
        Workload::ProxiedZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitBinary => "hit-binary",
            Workload::MissMixed => "miss-mixed",
            Workload::ProxiedZipf => "proxied-zipf",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn codec(self) -> WireCodec {
        match self {
            Workload::HitBinary => WireCodec::Binary,
            _ => WireCodec::Json,
        }
    }

    /// Requests each connection keeps outstanding (closed loop).
    pub fn window(self) -> usize {
        match self {
            Workload::MissMixed => 1,
            _ => 4,
        }
    }

    /// Load threads driving the connections. The warmed hit path is
    /// CPU-bound: one thread for both connections keeps the load
    /// generator and the server's poller to one runnable thread per
    /// core. Misses and proxied requests wait on the servers, so each
    /// connection gets its own thread and never waits behind the other.
    pub fn threads(self) -> usize {
        match self {
            Workload::HitBinary => 1,
            _ => CONNS,
        }
    }

    /// `--cache-cap` of each gb-serve; `None` leaves the default.
    pub fn cache_cap(self) -> Option<usize> {
        match self {
            // Holds the whole hot set, so every measured request hits.
            Workload::HitBinary => Some(4096),
            Workload::MissMixed => None,
            // Smaller than the hot set: eviction and TinyLFU admission.
            Workload::ProxiedZipf => Some(256),
        }
    }

    pub fn upstreams(self) -> usize {
        match self {
            Workload::ProxiedZipf => 2,
            _ => 1,
        }
    }

    pub fn proxied(self) -> bool {
        self == Workload::ProxiedZipf
    }

    /// Requests at the head of the `miss-mixed` list over which
    /// `ratio_mean` and `bound_held_share` are taken; the run always
    /// completes them, so both are a pure function of the seed. The hit
    /// workloads take both over their hot set's first answers instead.
    pub fn quality_prefix(self) -> usize {
        match self {
            Workload::MissMixed => 6 * crate::gen::MISS_COMBOS as usize,
            _ => 0,
        }
    }
}
