//! `gb-store`: a crash-safe persistent result cache.
//!
//! An append-only segmented log for `(key, value)` byte records, built
//! for the serving daemon's write-behind spill:
//!
//! - **Framing** ([`record`]): versioned segment headers and CRC32
//!   checksummed length-prefixed frames; torn tails and corruption are
//!   detected, distinguished, and never mis-decoded.
//! - **The log** ([`Store`]): segment rotation at a configurable size,
//!   boot-time recovery that skips damage without panicking, and
//!   compaction that rewrites live records from the oldest segments to
//!   stay under a disk budget.
//! - **The spill path** ([`SpillHandle`]): a dedicated writer thread
//!   behind a bounded channel, so callers on a latency-sensitive path
//!   enqueue in O(1) and a full queue drops (counted) rather than
//!   blocks.
//!
//! The crate is deliberately byte-oriented: the service layer owns the
//! codec between its typed cache entries and the `(key, value)` byte
//! pairs stored here, so format evolution on either side stays
//! independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod log;
pub mod record;
mod spill;

pub use log::{RecoveredRecord, Store, StoreConfig, StoreStats, SyncMode};
pub use spill::SpillHandle;
