//! Load shedding: bounded queues that fail fast when full.
//!
//! The admission policy is deliberately *non-blocking*: when a queue is
//! at capacity, `try_push` returns the job to the caller immediately so
//! the connection layer can answer `overloaded` instead of stacking
//! latency on every queued request behind it. Consumers block on `pop`
//! until work arrives or the queue is closed and drained — closing is
//! how graceful shutdown lets in-flight requests finish while refusing
//! new ones.
//!
//! [`StealQueue`] keeps one bounded deque *per worker* plus stealing, in
//! the idiom of `gb_parlb::pool`: producers round-robin across shards, a
//! worker pops its own shard first and steals from siblings when empty.
//! Capacity is enforced by a single depth counter over every shard, so
//! `overloaded` and `shutting_down` behave exactly as with one global
//! queue — only the lock hand-off contention is gone.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed the load.
    Full,
    /// The queue is closed — the server is shutting down.
    Closed,
}

// ---------------------------------------------------------------------------
// SlotGauge: leak-proof occupancy accounting
// ---------------------------------------------------------------------------

/// An atomic occupancy gauge whose increments are RAII tokens.
///
/// The serving path uses these for accounting that must be exact across
/// *every* exit path — a connection that dies mid-request, a worker that
/// loses the reply race, a thread that panics. A leaked decrement is the
/// "shedding tightens forever" failure mode: the gauge reads as
/// permanently occupied and admission keeps refusing work the server
/// could do. Tying the release to [`Drop`] makes that class of bug
/// unrepresentable — whoever holds the [`SlotToken`] releases the slot
/// by letting go of it, no matter how they exit.
#[derive(Debug, Clone, Default)]
pub struct SlotGauge {
    occupied: Arc<AtomicUsize>,
}

/// One occupied slot in a [`SlotGauge`]; dropping it releases the slot.
#[derive(Debug)]
pub struct SlotToken {
    occupied: Arc<AtomicUsize>,
}

impl SlotGauge {
    /// Creates an empty gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupies one slot; the slot is released when the token drops.
    pub fn acquire(&self) -> SlotToken {
        self.occupied.fetch_add(1, Ordering::AcqRel);
        SlotToken {
            occupied: Arc::clone(&self.occupied),
        }
    }

    /// Number of currently occupied slots.
    pub fn occupied(&self) -> usize {
        self.occupied.load(Ordering::Acquire)
    }
}

impl Drop for SlotToken {
    fn drop(&mut self) {
        self.occupied.fetch_sub(1, Ordering::AcqRel);
    }
}

// ---------------------------------------------------------------------------
// StealQueue: per-worker deques + stealing
// ---------------------------------------------------------------------------

/// A bounded MPMC queue decomposed into one deque per consumer.
///
/// Producers pick a shard round-robin (one cheap, rarely contended lock
/// each); consumer `i` pops shard `i` first and steals FIFO from
/// siblings otherwise, mirroring `gb_parlb::pool`'s worker/stealer
/// split. A single [`depth`](Self::depth) counter preserves the
/// *global* load-shedding contract: `try_push` sheds when the sum across
/// all shards reaches capacity.
///
/// Idle consumers sleep on a condvar until a push or `close` wakes
/// them. Both take the sleep lock before notifying, so a wakeup cannot
/// fall between a consumer's last emptiness check and its sleep.
pub struct StealQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    depth: AtomicUsize,
    capacity: usize,
    closed: AtomicBool,
    sleep_lock: Mutex<()>,
    available: Condvar,
    next_shard: AtomicUsize,
    steals: AtomicU64,
}

impl<T> StealQueue<T> {
    /// Creates a queue with one shard per `workers` consumer, admitting
    /// at most `capacity` items in total.
    pub fn new(workers: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let workers = workers.max(1);
        Self {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            depth: AtomicUsize::new(0),
            capacity,
            closed: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            available: Condvar::new(),
            next_shard: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Attempts to enqueue without blocking; sheds when the total depth
    /// is at capacity.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        if self.closed.load(Ordering::Acquire) {
            return Err((item, PushError::Closed));
        }
        // Reserve a slot first; back out on overflow. This keeps the
        // check-and-insert race window from ever over-admitting.
        if self.depth.fetch_add(1, Ordering::AcqRel) >= self.capacity {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err((item, PushError::Full));
        }
        // Closed may have been set between the first check and the
        // reservation; re-check so shutdown never loses a shed.
        if self.closed.load(Ordering::Acquire) {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err((item, PushError::Closed));
        }
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].lock().push_back(item);
        drop(self.sleep_lock.lock());
        self.available.notify_one();
        Ok(())
    }

    fn try_pop(&self, worker: usize) -> Option<T> {
        let n = self.shards.len();
        // Own shard first, then steal from siblings in ring order.
        for k in 0..n {
            let shard = (worker + k) % n;
            let item = self.shards[shard].lock().pop_front();
            if let Some(item) = item {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                if k != 0 {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(item);
            }
        }
        None
    }

    /// Blocks until an item is available (popping the worker's own shard
    /// first, stealing otherwise) or the queue is closed *and* drained.
    pub fn pop(&self, worker: usize) -> Option<T> {
        loop {
            if let Some(item) = self.try_pop(worker) {
                return Some(item);
            }
            if self.closed.load(Ordering::Acquire) && self.depth.load(Ordering::Acquire) == 0 {
                return None;
            }
            let mut guard = self.sleep_lock.lock();
            // Re-check under the sleep lock: a push or close after this
            // check must take the lock, so it notifies only once we wait.
            if self.depth.load(Ordering::Acquire) == 0 && !self.closed.load(Ordering::Acquire) {
                self.available.wait(&mut guard);
            }
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// consumers drain what is left and then observe `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        drop(self.sleep_lock.lock());
        self.available.notify_all();
    }

    /// Number of items currently queued across all shards.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Configured capacity over all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of per-worker shards.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Pops that had to steal from a sibling shard.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn slot_gauge_tracks_tokens() {
        let g = SlotGauge::new();
        assert_eq!(g.occupied(), 0);
        let a = g.acquire();
        let b = g.acquire();
        assert_eq!(g.occupied(), 2);
        drop(a);
        assert_eq!(g.occupied(), 1);
        drop(b);
        assert_eq!(g.occupied(), 0);
    }

    /// Regression: the slot must be released even when the holder exits
    /// by panicking — a leaked slot is exactly the "shedding tightens
    /// forever" bug the gauge exists to rule out.
    #[test]
    fn slot_gauge_releases_on_panic() {
        let g = SlotGauge::new();
        let g2 = g.clone();
        let result = thread::spawn(move || {
            let _token = g2.acquire();
            panic!("worker died mid-request");
        })
        .join();
        assert!(result.is_err(), "the thread must have panicked");
        assert_eq!(g.occupied(), 0, "panic path leaked a slot");
    }

    #[test]
    fn steal_queue_sheds_on_aggregate_depth() {
        let q = StealQueue::new(4, 3);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.try_push(3).is_ok());
        // Items landed on 3 different shards, but the total depth is
        // what sheds — identical contract to the single queue.
        match q.try_push(4) {
            Err((item, PushError::Full)) => assert_eq!(item, 4),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.depth(), 3);
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.workers(), 4);
    }

    #[test]
    fn steal_queue_worker_steals_from_siblings() {
        let q = StealQueue::new(4, 16);
        // Round-robin spreads these over shards 0..4.
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        // Worker 2 drains everything: one own pop, three steals.
        let mut got = Vec::new();
        for _ in 0..4 {
            got.push(q.pop(2).unwrap());
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(q.steals(), 3);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn steal_queue_close_drains_then_stops() {
        let q = StealQueue::new(2, 8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        let mut got = vec![q.pop(0).unwrap(), q.pop(1).unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
        match q.try_push(3) {
            Err((_, PushError::Closed)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn steal_queue_blocked_pop_sees_later_push() {
        let q = Arc::new(StealQueue::new(3, 8));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop(1));
        thread::sleep(Duration::from_millis(30));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn steal_queue_many_producers_many_consumers() {
        let q = Arc::new(StealQueue::new(4, 4096));
        let seen = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                thread::spawn(move || {
                    while q.pop(w).is_some() {
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..250 {
                        while q.try_push(t * 1000 + i).is_err() {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // Wait for the queue to drain before closing so nothing is lost.
        while q.depth() > 0 {
            thread::yield_now();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(seen.load(Ordering::SeqCst), 1000);
    }
}
