//! # gb-service — a partition-serving daemon
//!
//! A long-lived TCP service over the `gb-core`/`gb-parlb` balancing
//! algorithms: clients describe a problem (any `gb-problems` class or the
//! paper's synthetic model), pick an algorithm (`hf`, `ba`, `bahf`,
//! `phf`) and a processor count `N`, and get back the partition's piece
//! weights, the achieved ratio and the analytic worst-case bound for the
//! α in effect.
//!
//! The daemon is production-shaped rather than a demo loop:
//!
//! * newline-delimited JSON protocol with explicit frame limits
//!   ([`proto`]),
//! * bounded admission with load shedding through per-worker stealing
//!   deques under one capacity ([`shed`]),
//! * one connection loop ([`io_loop`]) shared with `gb-router`:
//!   nonblocking accept, I/O pollers on epoll readiness (a portable
//!   sweep loop where epoll is unavailable), write buffering and the
//!   reply timeout; `gb-serve` plugs in its inline cache fast path and
//!   worker hand-off ([`server`]),
//! * deadline enforcement and graceful drain on shutdown ([`server`]),
//! * a sharded, exact LRU result cache with optional TinyLFU admission,
//!   keyed by deterministic problem fingerprints ([`cache`],
//!   `gb_core::fingerprint`),
//! * live counters and log-bucketed latency histograms with p50/p95/p99
//!   readout ([`metrics`]); the loop's fault counters (`conn_reset`,
//!   `torn_frame`, `reply_dropped`) live with the loop,
//! * a deterministic fault-injection seam wrapping every accept, read
//!   and write, used by the chaos test-suite to script torn writes,
//!   read errors, resets and stalled workers ([`fault`]),
//! * optional crash-safe persistence (`--store-dir`): cached results
//!   spill write-behind to a `gb-store` segment log and are recovered —
//!   torn tails skipped, never trusted — into the cache on the next
//!   boot, so a restarted daemon serves its hot set warm ([`persist`],
//!   `gb_store`),
//! * a blocking, pipelining-capable [`client`] plus two binaries:
//!   `gb-serve` (the daemon) and `loadgen` (a concurrent load generator
//!   printing throughput and the latency distribution, whose
//!   `loadgen bench <scenario>` runs write one `gb-bench/v2` report per
//!   scenario to `results/BENCH_<scenario>.json`).
//!
//! ```no_run
//! use gb_service::proto::{Algorithm, BalanceRequest, Request, Response};
//! use gb_service::server::{Server, ServerConfig};
//! use gb_service::spec::ProblemSpec;
//!
//! let server = Server::start(ServerConfig::default())?;
//! let mut client = gb_service::client::Client::connect(server.local_addr())?;
//! let reply = client.call(&Request::Balance(BalanceRequest {
//!     id: Some(1),
//!     algorithm: Algorithm::BaHf,
//!     n: 64,
//!     theta: 1.0,
//!     deadline_ms: Some(1000),
//!     want_pieces: true,
//!     problem: ProblemSpec::Synthetic { weight: 1.0, lo: 0.25, hi: 0.5, seed: 7 },
//! }))?;
//! if let Response::Ok(ok) = reply {
//!     assert!(ok.ratio <= ok.bound);
//! }
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
pub mod io_loop;
pub mod metrics;
pub mod persist;
pub mod proto;
pub mod route;
pub mod server;
pub mod shed;
mod shortest;
pub mod solve;
pub mod spec;

pub use cache::ShardedCache;
pub use client::{Backoff, Client};
pub use fault::{IoShim, Passthrough, ReadOp, ScriptedShim, WriteOp};
pub use persist::StoreSettings;
pub use proto::{Algorithm, ErrorCode, Request, Response};
pub use route::{FailoverRing, Router};
pub use server::{Server, ServerConfig, Tuning};
pub use solve::{solve, Solved};
pub use spec::ProblemSpec;
