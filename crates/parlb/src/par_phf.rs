//! PHF with real threads: HF-quality partitions computed by parallel
//! batch bisection on the work-stealing pool.
//!
//! The simulated-machine [`crate::phf`](mod@crate::phf) establishes the paper's cost
//! claims; this module carries the same algorithmic idea to actual
//! threads, so applications can get HF's (instance-optimal) partition
//! while paying bisection latency only `O(log N + I)` deep instead of
//! `N−1` deep:
//!
//! * pieces heavier than the phase-1 threshold `w(p)·r_α/N` are bisected
//!   eagerly, each task recursing into both children (a parallel
//!   cascade) until its piece is within `LOCAL_GRAIN` times the
//!   threshold, whose subtree it then settles itself;
//! * the surviving pieces are refined in synchronised rounds; each round
//!   bisects — in parallel on the pool — every piece within a `(1−α)`
//!   factor of the current maximum (capped by the remaining budget,
//!   heaviest first), exactly the Figure 2 window rule.
//!
//! The result is bit-identical to [`gb_core::hf::hf`] for the same
//! reasons PHF's is (Theorem 3), which the tests verify.
//! [`inline_phf`] runs the same cascade and rounds on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gb_core::bounds::phf_phase1_threshold;
use gb_core::error::check_alpha;
use gb_core::heap::WeightHeap;
use gb_core::partition::Partition;
use gb_core::problem::Bisectable;
use parking_lot::Mutex;

use crate::pool::{PoolHandle, ThreadPool, WaitGroup};

/// Runs the parallel-HF scheme on the pool; returns HF's partition.
///
/// # Panics
/// Panics if `n == 0` or `alpha ∉ (0, 1/2]`.
pub fn par_phf<P>(pool: &ThreadPool, p: P, n: usize, alpha: f64) -> Partition<P>
where
    P: Bisectable + Send + 'static,
{
    phf_with(
        p,
        n,
        alpha,
        |p, threshold| {
            let settled: Arc<Mutex<Vec<P>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
            let wg = Arc::new(WaitGroup::new());
            wg.add(1);
            cascade(
                pool.handle(),
                p,
                threshold,
                Arc::clone(&settled),
                Arc::clone(&wg),
            );
            wg.wait();
            let pieces = std::mem::take(&mut *settled.lock());
            pieces
        },
        |batch| bisect_round(pool, batch),
    )
}

/// [`par_phf`]'s phase-1 cascade and window rounds on the calling
/// thread: the same partition, with no pool and no `Send` bound.
///
/// With a valid α this is HF's partition (Theorem 3), which
/// [`gb_core::hf::hf`] computes more cheaply; this is for an α that may
/// exceed the problem's smallest split, where the rounds, not HF, define
/// the answer.
///
/// # Panics
/// Panics if `n == 0` or `alpha ∉ (0, 1/2]`.
pub fn inline_phf<P: Bisectable>(p: P, n: usize, alpha: f64) -> Partition<P> {
    phf_with(
        p,
        n,
        alpha,
        |p, threshold| settle(p, threshold, Some),
        |batch| batch.iter().map(Bisectable::bisect).collect(),
    )
}

/// The PHF scheme with its two parallel steps supplied by the caller:
/// `cascade(p, threshold)` returns the pieces phase 1 leaves (every piece
/// heavier than `threshold` bisected, in any order), and `round(batch)`
/// bisects one phase-2 batch, returning the pairs in batch order.
fn phf_with<P: Bisectable>(
    p: P,
    n: usize,
    alpha: f64,
    cascade: impl FnOnce(P, f64) -> Vec<P>,
    mut round: impl FnMut(Vec<P>) -> Vec<(P, P)>,
) -> Partition<P> {
    check_alpha(alpha).expect("invalid alpha");
    assert!(n > 0, "PHF needs at least one processor");
    let total = p.weight();
    if n == 1 {
        return Partition::new(vec![p], total, 1);
    }
    let threshold = phf_phase1_threshold(total, alpha, n);

    // ---- Phase 1: cascade over the > threshold region --------------------
    let pieces = cascade(p, threshold);

    // ---- Phase 2: synchronised window rounds ------------------------------
    // The sequential coordinator picks each round's batch; `round` bisects
    // it.
    let mut live = Live::new(n);
    for q in pieces {
        live.place(q, None);
    }
    let mut count = live.heap.len() + live.atomic.len();
    while count < n && !live.heap.is_empty() {
        let m = live.heap.peek_weight().expect("non-empty heap");
        let window = m * (1.0 - alpha);
        let budget = n - count;
        let mut popped: Vec<usize> = Vec::new();
        while popped.len() < budget {
            match live.heap.peek_weight() {
                Some(w) if w >= window => {
                    popped.push(live.heap.pop().expect("peeked").1 as usize);
                }
                _ => break,
            }
        }
        debug_assert!(!popped.is_empty());
        count += popped.len();
        let batch = popped.iter().map(|&i| live.take(i)).collect();
        for (i, (a, b)) in popped.into_iter().zip(round(batch)) {
            let free = live.place(a, Some(i));
            live.place(b, free);
        }
    }

    let mut pieces = live.atomic;
    pieces.extend(live.heap.into_sorted_indices().into_iter().map(|i| {
        live.slots[i as usize]
            .take()
            .expect("heap entries are occupied")
    }));
    Partition::new(pieces, total, n)
}

/// Phase 2's pieces: bisectable ones stay in place in `slots` and the
/// heap orders their indices; atomic ones drop out in the order they
/// arise.
struct Live<P> {
    heap: WeightHeap,
    slots: Vec<Option<P>>,
    atomic: Vec<P>,
}

impl<P: Bisectable> Live<P> {
    fn new(n: usize) -> Self {
        Live {
            heap: WeightHeap::with_capacity(n),
            slots: Vec::with_capacity(n),
            atomic: Vec::new(),
        }
    }

    /// Takes the piece out of slot `i`, leaving it free.
    fn take(&mut self, i: usize) -> P {
        self.slots[i].take().expect("heap entries are occupied")
    }

    /// Adds `q`, into the `free` slot if there is one; returns the free
    /// slot still unused.
    fn place(&mut self, q: P, free: Option<usize>) -> Option<usize> {
        if !q.can_bisect() {
            self.atomic.push(q);
            return free;
        }
        let i = free.unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let index = u32::try_from(i).expect("at most 2^32 pieces");
        self.heap.push(q.weight(), index);
        self.slots[i] = Some(q);
        None
    }
}

/// A round whose bisections should take less than this in total runs
/// inline: handing work to a pool worker costs a wake-up of about this
/// order, so for cheap bisectors the pool only adds latency.
const INLINE_ROUND: Duration = Duration::from_micros(50);

/// Bisects every piece of one phase-2 round, returning the pairs in batch
/// order. The first bisection, timed, prices the rest: a cheap round runs
/// inline on the coordinator. Otherwise the rest is cut into at most
/// `workers + 1` chunks that the coordinator and `chunks − 1` pool tasks
/// claim one at a time, so a round costs a few tasks however wide it is,
/// and a worker that wakes late finds its share already done instead of
/// holding the round up.
fn bisect_round<P>(pool: &ThreadPool, mut batch: Vec<P>) -> Vec<(P, P)>
where
    P: Bisectable + Send + 'static,
{
    let mut pairs = Vec::with_capacity(batch.len());
    let started = Instant::now();
    pairs.push(batch[0].bisect());
    // One piece left gains nothing from a helper: the coordinator is idle.
    let left = batch.len() - 1;
    let estimate = started
        .elapsed()
        .saturating_mul(u32::try_from(left).unwrap_or(u32::MAX));
    if left < 2 || estimate < INLINE_ROUND {
        pairs.extend(batch[1..].iter().map(Bisectable::bisect));
        return pairs;
    }
    let size = left.div_ceil(left.min(pool.workers() + 1));
    let mut rest = batch.split_off(1);
    let mut chunks = Vec::new();
    while !rest.is_empty() {
        let tail = rest.split_off(size.min(rest.len()));
        chunks.push(Mutex::new(Chunk {
            pieces: std::mem::replace(&mut rest, tail),
            pairs: Vec::new(),
        }));
    }
    let round = Arc::new(Round {
        chunks,
        next: AtomicUsize::new(0),
        finished: WaitGroup::new(),
    });
    round.finished.add(round.chunks.len());
    let handle = pool.handle();
    for _ in 1..round.chunks.len() {
        let round = Arc::clone(&round);
        handle.spawn(move || round.run());
    }
    round.run();
    round.finished.wait();
    for chunk in &round.chunks {
        pairs.append(&mut chunk.lock().pairs);
    }
    pairs
}

/// One phase-2 round, cut into claimable chunks.
struct Round<P> {
    chunks: Vec<Mutex<Chunk<P>>>,
    /// Index of the next unclaimed chunk. It only hands out indices; the
    /// chunk's mutex and `finished` carry the data between threads.
    next: AtomicUsize,
    finished: WaitGroup,
}

/// Some pieces of a round and, once bisected, their pairs.
struct Chunk<P> {
    pieces: Vec<P>,
    pairs: Vec<(P, P)>,
}

impl<P: Bisectable> Round<P> {
    /// Claims and bisects chunks until none is left.
    fn run(&self) {
        while let Some(chunk) = self.chunks.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            let mut chunk = chunk.lock();
            chunk.pairs = chunk.pieces.iter().map(Bisectable::bisect).collect();
            drop(chunk);
            self.finished.done();
        }
    }
}

/// A cascade piece at most this many times the phase-1 threshold is
/// settled by the task that reaches it, on a local stack: its subtree is
/// too small to pay for handing children to other workers.
const LOCAL_GRAIN: f64 = 32.0;

/// Bisects `p` and its descendants until every piece weighs at most
/// `threshold` or is atomic, returning those pieces. The right child of a
/// piece heavier than `LOCAL_GRAIN` times the threshold goes to
/// `hand_off`, which keeps it (`None`) or gives it back to be settled
/// here.
fn settle<P: Bisectable>(p: P, threshold: f64, mut hand_off: impl FnMut(P) -> Option<P>) -> Vec<P> {
    let mut pieces = Vec::new();
    let mut local = vec![p];
    while let Some(mut q) = local.pop() {
        loop {
            if q.weight() <= threshold || !q.can_bisect() {
                pieces.push(q);
                break;
            }
            let inline = q.weight() <= LOCAL_GRAIN * threshold;
            let (a, b) = q.bisect();
            if inline {
                local.push(b);
            } else if let Some(b) = hand_off(b) {
                local.push(b);
            }
            q = a;
        }
    }
    pieces
}

/// Phase 1 on the pool: one task settles `p`, spawning the right child
/// of every heavy piece as a new task.
fn cascade<P>(
    handle: PoolHandle,
    p: P,
    threshold: f64,
    settled: Arc<Mutex<Vec<P>>>,
    wg: Arc<WaitGroup>,
) where
    P: Bisectable + Send + 'static,
{
    let respawn = handle.clone();
    handle.spawn(move || {
        let pieces = settle(p, threshold, |b| {
            wg.add(1);
            cascade(
                respawn.clone(),
                b,
                threshold,
                Arc::clone(&settled),
                Arc::clone(&wg),
            );
            None
        });
        settled.lock().extend(pieces);
        wg.done();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::hf::hf;
    use gb_core::rng::{u64_to_unit_f64, SplitMix64};
    use gb_core::synthetic_alpha::{AtomicAfter, FixedAlpha};

    #[derive(Debug, Clone, Copy)]
    struct RandomSplit {
        w: f64,
        lo: f64,
        seed: u64,
    }

    impl Bisectable for RandomSplit {
        fn weight(&self) -> f64 {
            self.w
        }

        fn bisect(&self) -> (Self, Self) {
            let u = u64_to_unit_f64(SplitMix64::derive(self.seed, 0));
            let frac = self.lo + (0.5 - self.lo) * u;
            let mk = |w, lane| Self {
                w,
                lo: self.lo,
                seed: SplitMix64::derive(self.seed, lane),
            };
            (mk(frac * self.w, 1), mk((1.0 - frac) * self.w, 2))
        }
    }

    #[test]
    fn matches_hf_fixed_alpha() {
        let pool = ThreadPool::new(4);
        for &alpha in &[0.2, 0.35, 0.5] {
            for &n in &[1usize, 2, 17, 100, 512] {
                let p = FixedAlpha::new(1.0, alpha);
                let par = par_phf(&pool, p, n, alpha);
                let seq = hf(p, n);
                assert!(
                    par.approx_same_weights_as(&seq, 1e-12),
                    "alpha={alpha} n={n}"
                );
            }
        }
    }

    #[test]
    fn matches_hf_random_instances_bit_exact() {
        let pool = ThreadPool::new(4);
        for seed in 0..15 {
            let p = RandomSplit {
                w: 1.0,
                lo: 0.15,
                seed,
            };
            let par = par_phf(&pool, p, 200, 0.15);
            let seq = hf(p, 200);
            assert!(par.same_weights_as(&seq), "seed={seed}");
        }
    }

    #[test]
    fn repeated_runs_identical_despite_scheduling() {
        let pool = ThreadPool::new(8);
        let p = RandomSplit {
            w: 1.0,
            lo: 0.1,
            seed: 42,
        };
        let first = par_phf(&pool, p, 333, 0.1);
        for _ in 0..4 {
            assert!(first.same_weights_as(&par_phf(&pool, p, 333, 0.1)));
        }
    }

    /// A bisector slow enough that every round of three or more pieces
    /// goes to the pool.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Slow(FixedAlpha);

    impl Bisectable for Slow {
        fn weight(&self) -> f64 {
            self.0.weight()
        }

        fn bisect(&self) -> (Self, Self) {
            std::thread::sleep(INLINE_ROUND);
            let (a, b) = self.0.bisect();
            (Slow(a), Slow(b))
        }
    }

    #[test]
    fn rounds_return_every_pair_in_batch_order() {
        for workers in [1, 2, 3] {
            let pool = ThreadPool::new(workers);
            for len in 1..12 {
                let batch: Vec<FixedAlpha> =
                    (1..=len).map(|i| FixedAlpha::new(i as f64, 0.3)).collect();
                let expected: Vec<_> = batch.iter().map(Bisectable::bisect).collect();
                assert_eq!(bisect_round(&pool, batch.clone()), expected);
                let slow: Vec<Slow> = batch.into_iter().map(Slow).collect();
                let expected: Vec<_> = slow.iter().map(Bisectable::bisect).collect();
                assert_eq!(
                    bisect_round(&pool, slow),
                    expected,
                    "workers={workers} len={len}"
                );
            }
        }
    }

    #[test]
    fn slow_bisectors_still_match_hf() {
        let pool = ThreadPool::new(2);
        let p = Slow(FixedAlpha::new(1.0, 0.3));
        assert!(par_phf(&pool, p, 40, 0.3).approx_same_weights_as(&hf(p, 40), 1e-12));
    }

    #[test]
    fn atomic_pieces_cap_the_count() {
        let pool = ThreadPool::new(2);
        let p = AtomicAfter::new(1.0, 0.5, 0.3);
        let par = par_phf(&pool, p, 64, 0.5);
        assert_eq!(par.len(), 4);
        assert!(par.check_conservation(1e-12));
    }

    #[test]
    fn conservative_alpha_still_exact() {
        let pool = ThreadPool::new(4);
        let p = RandomSplit {
            w: 1.0,
            lo: 0.3,
            seed: 5,
        };
        let par = par_phf(&pool, p, 128, 0.05);
        assert!(par.same_weights_as(&hf(p, 128)));
    }
}
