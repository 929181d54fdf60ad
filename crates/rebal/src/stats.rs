//! Shared atomic counters for a rebalance tick loop.
//!
//! Both integration points (`gb-serve`'s in-process tick and
//! `gb-router`'s cross-process tick) keep one [`RebalanceCounters`] and
//! expose its [`snapshot`](RebalanceCounters::snapshot) under their
//! `stats` frames, so tests and `loadgen bench skew` read the same
//! shape from either tier.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::plan::Plan;

/// Atomic tick bookkeeping, updated by the tick thread, read by stats.
#[derive(Debug, Default)]
pub struct RebalanceCounters {
    ticks: AtomicU64,
    skipped: AtomicU64,
    moved: AtomicU64,
    max_tick_moves: AtomicU64,
    version: AtomicU64,
    // f64 gauges stored as bits.
    imbalance_before: AtomicU64,
    imbalance_after: AtomicU64,
    alpha: AtomicU64,
    bound: AtomicU64,
}

/// A plain-value copy of [`RebalanceCounters`] for rendering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceSnapshot {
    /// Ticks run (including skipped ones).
    pub ticks: u64,
    /// Ticks that were no-ops (under trigger).
    pub skipped: u64,
    /// Total vnode moves applied across all ticks.
    pub moved: u64,
    /// Largest single-tick move count seen — must stay within
    /// budget + forced orphan moves.
    pub max_tick_moves: u64,
    /// Assignment version: bumped each time a new assignment applies.
    pub version: u64,
    /// Latest tick's max/mean before planning.
    pub imbalance_before: f64,
    /// Latest tick's max/mean after the applied assignment.
    pub imbalance_after: f64,
    /// Latest non-skipped tick's observed α.
    pub alpha: f64,
    /// Latest non-skipped tick's Theorem 2 bound for that α.
    pub bound: f64,
}

impl RebalanceCounters {
    /// Fresh zeroed counters.
    pub fn new() -> RebalanceCounters {
        let counters = RebalanceCounters::default();
        counters.alpha.store(0.5f64.to_bits(), Ordering::Relaxed);
        counters.bound.store(1.0f64.to_bits(), Ordering::Relaxed);
        counters
            .imbalance_before
            .store(1.0f64.to_bits(), Ordering::Relaxed);
        counters
            .imbalance_after
            .store(1.0f64.to_bits(), Ordering::Relaxed);
        counters
    }

    /// Records one planning run; call whether or not it was applied.
    pub fn record_tick(&self, plan: &Plan) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.imbalance_before
            .store(plan.imbalance_before.to_bits(), Ordering::Relaxed);
        self.imbalance_after
            .store(plan.imbalance_after.to_bits(), Ordering::Relaxed);
        if plan.skipped {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.alpha.store(plan.alpha.to_bits(), Ordering::Relaxed);
        self.bound.store(plan.bound.to_bits(), Ordering::Relaxed);
        let moves = plan.moves.len() as u64;
        self.moved.fetch_add(moves, Ordering::Relaxed);
        self.max_tick_moves.fetch_max(moves, Ordering::Relaxed);
        if moves > 0 {
            self.version.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Plain-value copy of the counters.
    pub fn snapshot(&self) -> RebalanceSnapshot {
        RebalanceSnapshot {
            ticks: self.ticks.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            moved: self.moved.load(Ordering::Relaxed),
            max_tick_moves: self.max_tick_moves.load(Ordering::Relaxed),
            version: self.version.load(Ordering::Relaxed),
            imbalance_before: f64::from_bits(self.imbalance_before.load(Ordering::Relaxed)),
            imbalance_after: f64::from_bits(self.imbalance_after.load(Ordering::Relaxed)),
            alpha: f64::from_bits(self.alpha.load(Ordering::Relaxed)),
            bound: f64::from_bits(self.bound.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;

    #[test]
    fn counts_ticks_moves_and_versions() {
        let counters = RebalanceCounters::new();
        let mut weights = vec![1.0; 8];
        weights[0] = 20.0;
        let skewed = plan(&weights, &[0; 8], &[0, 1], 1.1, 16);
        counters.record_tick(&skewed);
        let uniform = plan(&[1.0; 8], &[0, 1, 0, 1, 0, 1, 0, 1], &[0, 1], 1.15, 16);
        counters.record_tick(&uniform);
        let snap = counters.snapshot();
        assert_eq!(snap.ticks, 2);
        assert_eq!(snap.skipped, 1);
        assert_eq!(snap.version, 1);
        assert_eq!(snap.moved, skewed.moves.len() as u64);
        assert_eq!(snap.max_tick_moves, skewed.moves.len() as u64);
        assert!(snap.bound >= 1.0);
    }
}
