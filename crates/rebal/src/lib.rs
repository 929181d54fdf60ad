//! # gb-rebal — self-balancing vnode placement
//!
//! The consistent-hash ring in `gb-service` splits *keyspace* evenly,
//! but production traffic is skewed: per-backend load diverges even
//! when vnode counts match. This crate closes the loop with the paper's
//! own machinery — the vnode set is a multiset of atomic weighted
//! problems (weight = observed load), and such a multiset has good
//! bisectors, so HF (`gb_core::hf`) bounds max-load/mean toward `r_α`
//! (PAPER.md Theorem 2) when used to re-partition vnodes across
//! backends.
//!
//! Three pieces:
//!
//! * [`load`] — always-on per-vnode load accounting for the serving hot
//!   path (two relaxed counter bumps per request) plus an EWMA tracker
//!   that turns the cumulative counters into smoothed per-tick weights.
//! * [`plan`] — the planner: greedy-LPT bisection of the weighted vnode
//!   multiset driven by [`gb_core::hf::hf`], piece→backend matching that
//!   minimises churn against the current assignment, and hysteresis
//!   (imbalance trigger + per-tick move budget).
//! * [`stats`] — shared atomic counters both integration points
//!   (`gb-serve --rebalance-ms`, `gb-router --rebalance-ms`) expose
//!   under their `stats` frames.
//!
//! The assignment itself is applied by the callers through the
//! explicit-assignment layer on `gb_service::route::{Router,
//! FailoverRing}`; this crate only computes plans and never touches
//! sockets or threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod plan;
pub mod stats;

pub use load::{EwmaTracker, VnodeLoad, HIT_COST_MICROS};
pub use plan::{plan, run_ticks, Plan, RebalanceSettings};
pub use stats::{RebalanceCounters, RebalanceSnapshot};
