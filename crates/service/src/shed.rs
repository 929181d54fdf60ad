//! Load shedding: a bounded queue that fails fast when full.
//!
//! The admission policy is deliberately *non-blocking*: when the queue is
//! at capacity, `try_push` returns the job to the caller immediately so
//! the connection layer can answer `overloaded` instead of stacking
//! latency on every queued request behind it. Consumers block on `pop`
//! until work arrives or the queue is closed and drained — closing is
//! how graceful shutdown lets in-flight requests finish while refusing
//! new ones.
//!
//! [`BoundedQueue`] is one FIFO under one lock. A `gb-serve` process
//! has one poller, the queue's only producer, and K workers popping it;
//! scaling out is `gb-router`'s job, not the queue's.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
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
// BoundedQueue: one FIFO under one lock
// ---------------------------------------------------------------------------

/// A bounded multi-consumer FIFO: the poller pushes, the workers pop.
///
/// `try_push` sheds at capacity instead of blocking; `pop` sleeps on a
/// condvar until an item arrives or the queue is closed. Items, the
/// closed flag and the sleepers' condition share one lock, so a push or
/// `close` cannot slip between a worker's emptiness check and its wait.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking; sheds when the queue is at capacity.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        {
            let mut state = self.state.lock();
            if state.closed {
                return Err((item, PushError::Closed));
            }
            if state.items.len() >= self.capacity {
                return Err((item, PushError::Full));
            }
            state.items.push_back(item);
        }
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available — the oldest comes first — or
    /// the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.available.wait(&mut state);
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// consumers drain what is left and then observe `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Number of items currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().items.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
    fn queue_sheds_at_capacity() {
        let q = BoundedQueue::new(3);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.try_push(3).is_ok());
        match q.try_push(4) {
            Err((item, PushError::Full)) => assert_eq!(item, 4),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.depth(), 3);
        assert_eq!(q.capacity(), 3);
    }

    #[test]
    fn queue_close_drains_then_stops() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
        match q.try_push(3) {
            Err((_, PushError::Closed)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn queue_blocked_pop_sees_later_push() {
        let q = Arc::new(BoundedQueue::new(8));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(30));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn queue_blocked_pop_sees_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(8));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn queue_many_producers_many_consumers() {
        let q = Arc::new(BoundedQueue::new(64));
        let seen = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let seen = Arc::clone(&seen);
                thread::spawn(move || {
                    while q.pop().is_some() {
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
        // Closing drains what is queued before the consumers stop.
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(seen.load(Ordering::SeqCst), 1000);
    }

    /// One step of the model check: push (the value is the step index),
    /// pop (of an item the model says is there), or close.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Push,
        Pop,
        Close,
    }

    fn op(k: u8) -> Op {
        match k % 8 {
            0..=3 => Op::Push,
            4..=6 => Op::Pop,
            _ => Op::Close,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random pushes, pops and closes against a `VecDeque` model:
        /// items leave in strict FIFO order, `Full` comes exactly at
        /// capacity, `Closed` after close, and a closed queue hands out
        /// what it holds and then `None`.
        #[test]
        fn prop_queue_matches_a_fifo_model(
            capacity in 1usize..6,
            ops in prop::collection::vec(0u8..8, 0..96),
        ) {
            let q = BoundedQueue::new(capacity);
            let mut model = VecDeque::new();
            let mut closed = false;
            for (i, k) in ops.into_iter().enumerate() {
                match op(k) {
                    Op::Push => {
                        let got = q.try_push(i).map_err(|(item, e)| {
                            assert_eq!(item, i, "a refused push returns its item");
                            e
                        });
                        let want = if closed {
                            Err(PushError::Closed)
                        } else if model.len() == capacity {
                            Err(PushError::Full)
                        } else {
                            model.push_back(i);
                            Ok(())
                        };
                        prop_assert_eq!(got, want);
                    }
                    // `pop` blocks on an empty open queue: pop only what
                    // the model holds, or a closed queue.
                    Op::Pop if !model.is_empty() || closed => {
                        prop_assert_eq!(q.pop(), model.pop_front());
                    }
                    Op::Pop => {}
                    Op::Close => {
                        q.close();
                        closed = true;
                    }
                }
                prop_assert_eq!(q.depth(), model.len());
            }
            q.close();
            while let Some(want) = model.pop_front() {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
