//! # gb-router — a cross-process routing tier for `gb-serve` fleets
//!
//! The paper's BA recursion splits the processor range `[i, j]`
//! proportionally to load and recurses; PR 5 did that *inside* one
//! process with sharded backends. This crate lifts the same structure
//! across processes: a thin TCP tier that owns the consistent-hash
//! vnode ring ([`gb_service::route`]) and proxies the existing
//! newline-delimited-JSON protocol, unchanged, to N upstream `gb-serve`
//! processes over pooled persistent connections (at most
//! [`RouterConfig::max_pool_idle`] per upstream). Each request frame is
//! parsed exactly once — to validate it and extract the routing key
//! (the same [`CacheKey::mix`](gb_service::cache::CacheKey::mix)
//! fingerprint the upstreams shard by) — and the original bytes are
//! forwarded verbatim.
//!
//! Client connections run on `gb-serve`'s own event loop
//! ([`gb_service::io_loop`]): the router is a second handler on it, and
//! the loop's poller relays each frame upstream and the reply back
//! itself, on nonblocking upstream connections it registers next to the
//! client connections ([`relay`]). No frame changes threads; the router
//! runs its poller, a health prober and, optionally, a rebalance tick
//! ([`server`]).
//!
//! What the tier adds on top of plain proxying:
//!
//! * **Health checks** — a prober thread pings every upstream each
//!   `health_interval`, and the data path counts consecutive failures
//!   per upstream; `fail_threshold` of either kind declares it dead
//!   ([`server`]).
//! * **Monotone vnode failover** — a dead upstream's vnode arcs re-home
//!   onto survivors via [`FailoverRing`](gb_service::route::FailoverRing);
//!   survivors' assignments never move, and recovery restores the exact
//!   pre-death mapping, so a bounced backend gets its keys (and its
//!   warm cache) back.
//! * **Hedged retries** — if the owning upstream has not replied
//!   `hedge_delay` after the request was written to it, the poller's
//!   timer sends a second attempt to the backend that would own the key
//!   if the primary were dead, at that instant rather than at a poll
//!   tick; the first clean answer wins and the loser is cancelled (its
//!   connection closed, or its place in the connection queue given up;
//!   no success or failure booked). Replies are correlated by request id
//!   (`hedges_sent` / `hedges_won` counters). A hedge spawns no thread.
//! * **Self-balancing placement** — with [`RouterConfig::rebalance`]
//!   set, a tick thread measures per-vnode load at the proxy point and
//!   periodically re-partitions the vnode set across alive upstreams
//!   with HF ([`gb_rebal`]), swapping the ring's explicit assignment
//!   atomically between requests; hysteresis (imbalance trigger +
//!   per-tick move budget) keeps cache-cold churn bounded.
//! * **Stats rollup** — the router's own `stats` op fetches every alive
//!   upstream's stats at once and aggregates per-upstream depth,
//!   in-flight count, open and busy connections, latency histogram and
//!   health, plus the max/mean load-imbalance gauge across alive
//!   upstreams.
//!
//! Upstream-side sockets run through the same [`IoShim`]
//! (gb_service::fault::IoShim) seam as the server's, so the chaos suite
//! scripts router-to-upstream faults with the same vocabulary.
//!
//! ```no_run
//! use gb_router::{RouterConfig, RouterServer};
//!
//! let config = RouterConfig {
//!     upstreams: vec!["127.0.0.1:7001".parse().unwrap(),
//!                     "127.0.0.1:7002".parse().unwrap()],
//!     ..RouterConfig::default()
//! };
//! let router = RouterServer::start(config)?;
//! println!("routing on {}", router.local_addr());
//! router.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod relay;
pub mod server;

pub use gb_rebal::{RebalanceSettings, RebalanceSnapshot};
pub use relay::UPSTREAM_CONN_BASE;
pub use server::{RouterConfig, RouterServer};
