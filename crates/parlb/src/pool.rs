//! A small work-stealing fork-join thread pool.
//!
//! Algorithm BA's recursive calls "can be executed in parallel on
//! different processors" with no coordination beyond handing one child to
//! another worker — exactly the computation shape work-stealing schedulers
//! (Blumofe & Leiserson \[3\], cited in §3.4) were designed for. This module
//! provides the minimal runtime needed to run BA/BA-HF with real threads:
//!
//! * each worker owns a LIFO deque (`crossbeam-deque`); tasks spawned from
//!   inside a worker go to its own deque (depth-first execution, bounded
//!   memory), external tasks go to a shared injector;
//! * idle workers steal — first a batch from the injector, then from
//!   sibling deques;
//! * [`WaitGroup`] lets a caller block until a tree of tasks has finished
//!   without shutting the pool down.
//!
//! The pool is deliberately small and safe (`unsafe`-free): tasks are
//! `'static` boxed closures and data flows through `Arc`s. That costs an
//! allocation per task compared to a stack-borrowing scheduler like Rayon,
//! which is irrelevant here because BA tasks each perform a bisection (far
//! heavier than one allocation).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The worker deque of the current thread, tagged with its pool id —
    /// lets `spawn` push locally when called from inside the pool.
    static LOCAL: RefCell<Option<(u64, Worker<Job>)>> = const { RefCell::new(None) };
}

struct Shared {
    id: u64,
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    shutdown: AtomicBool,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("id", &self.id)
            .field("workers", &self.stealers.len())
            .finish()
    }
}

/// A cloneable, `'static` handle for spawning tasks onto a [`ThreadPool`].
#[derive(Clone, Debug)]
pub struct PoolHandle {
    shared: Arc<Shared>,
}

impl PoolHandle {
    /// Schedules `job` for execution.
    ///
    /// Called from inside a pool worker, the job goes to that worker's own
    /// LIFO deque (depth-first, cache-friendly); called from outside, it
    /// goes to the shared injector.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut job: Option<Job> = Some(Box::new(job));
        LOCAL.with(|l| {
            if let Some((pool_id, worker)) = l.borrow().as_ref() {
                if *pool_id == self.shared.id {
                    worker.push(job.take().expect("job present"));
                }
            }
        });
        if let Some(job) = job {
            self.shared.injector.push(job);
        }
        self.shared.idle_cv.notify_one();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.stealers.len()
    }
}

/// The work-stealing pool. Dropping it waits for all queued tasks.
///
/// ```
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use gb_parlb::pool::{ThreadPool, WaitGroup};
///
/// let pool = ThreadPool::new(2);
/// let hits = Arc::new(AtomicU32::new(0));
/// let wg = Arc::new(WaitGroup::new());
/// wg.add(10);
/// for _ in 0..10 {
///     let (hits, wg) = (Arc::clone(&hits), Arc::clone(&wg));
///     pool.spawn(move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///         wg.done();
///     });
/// }
/// wg.wait();
/// assert_eq!(hits.load(Ordering::Relaxed), 10);
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `workers ≥ 1` threads.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a pool needs at least one worker");
        let deques: Vec<Worker<Job>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers = deques.iter().map(|w| w.stealer()).collect();
        let shared = Arc::new(Shared {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        let threads = deques
            .into_iter()
            .enumerate()
            .map(|(index, deque)| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gb-worker-{index}"))
                    .spawn(move || worker_loop(shared, index, deque))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, threads }
    }

    /// A pool sized to the available CPU parallelism.
    pub fn with_available_parallelism() -> Self {
        let n = thread::available_parallelism().map_or(4, |n| n.get());
        Self::new(n)
    }

    /// A cloneable handle for spawning from owned contexts (inside tasks).
    pub fn handle(&self) -> PoolHandle {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Schedules `job` for execution (see [`PoolHandle::spawn`]).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.handle().spawn(job);
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.stealers.len()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.idle_cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize, deque: Worker<Job>) {
    LOCAL.with(|l| *l.borrow_mut() = Some((shared.id, deque)));
    loop {
        if let Some(job) = find_job(&shared, index) {
            job();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Short timed sleep: a lost wakeup only costs 1 ms of latency.
        let mut guard = shared.idle_lock.lock();
        shared
            .idle_cv
            .wait_for(&mut guard, Duration::from_millis(1));
    }
    LOCAL.with(|l| *l.borrow_mut() = None);
}

fn find_job(shared: &Shared, index: usize) -> Option<Job> {
    LOCAL.with(|l| {
        let guard = l.borrow();
        let (_, worker) = guard.as_ref().expect("worker TLS installed");
        // 1. Own deque (LIFO: depth-first on the task tree).
        if let Some(job) = worker.pop() {
            return Some(job);
        }
        // 2. A batch from the global injector.
        loop {
            match shared.injector.steal_batch_and_pop(worker) {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        // 3. Steal from siblings, starting after ourselves (fair-ish).
        let n = shared.stealers.len();
        for k in 1..n {
            let victim = (index + k) % n;
            loop {
                match shared.stealers[victim].steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    })
}

/// A counter that lets a caller wait for a dynamically sized set of tasks
/// (e.g. the whole recursion tree of one BA run) to finish.
#[derive(Debug)]
pub struct WaitGroup {
    count: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Default for WaitGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitGroup {
    /// Creates a group with count 0.
    pub fn new() -> Self {
        Self {
            count: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Registers `n` more outstanding tasks. Must happen *before* the
    /// corresponding [`done`](WaitGroup::done) calls can run.
    pub fn add(&self, n: usize) {
        self.count.fetch_add(n, Ordering::AcqRel);
    }

    /// Marks one task finished.
    ///
    /// # Panics
    /// Panics on underflow (more `done`s than `add`s).
    pub fn done(&self) {
        let prev = self.count.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "WaitGroup::done without matching add");
        if prev == 1 {
            let _guard = self.lock.lock();
            self.cv.notify_all();
        }
    }

    /// Current outstanding count.
    pub fn outstanding(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Blocks until the count reaches 0.
    pub fn wait(&self) {
        let mut guard = self.lock.lock();
        while self.count.load(Ordering::Acquire) != 0 {
            self.cv.wait(&mut guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_spawned_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU32::new(0));
        let wg = Arc::new(WaitGroup::new());
        wg.add(100);
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            let w = Arc::clone(&wg);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
                w.done();
            });
        }
        wg.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_spawns_run_to_completion() {
        // A binary tree of tasks spawned from inside tasks.
        let pool = ThreadPool::new(4);
        let handle = pool.handle();
        let counter = Arc::new(AtomicU32::new(0));
        let wg = Arc::new(WaitGroup::new());

        fn tree(h: PoolHandle, depth: u32, counter: Arc<AtomicU32>, wg: Arc<WaitGroup>) {
            let h2 = h.clone();
            wg.add(1);
            h.spawn(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                if depth > 0 {
                    tree(h2.clone(), depth - 1, Arc::clone(&counter), Arc::clone(&wg));
                    tree(h2, depth - 1, Arc::clone(&counter), Arc::clone(&wg));
                }
                wg.done();
            });
        }

        tree(handle, 9, Arc::clone(&counter), Arc::clone(&wg));
        wg.wait();
        assert_eq!(counter.load(Ordering::Relaxed), (1 << 10) - 1);
    }

    #[test]
    fn single_worker_pool_still_finishes() {
        let pool = ThreadPool::new(1);
        let wg = Arc::new(WaitGroup::new());
        let hits = Arc::new(AtomicU32::new(0));
        wg.add(50);
        for _ in 0..50 {
            let w = Arc::clone(&wg);
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
                w.done();
            });
        }
        wg.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicU32::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..500 {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop waits for the workers, which drain before exiting.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn waitgroup_counts() {
        let wg = WaitGroup::new();
        assert_eq!(wg.outstanding(), 0);
        wg.add(2);
        assert_eq!(wg.outstanding(), 2);
        wg.done();
        assert_eq!(wg.outstanding(), 1);
        wg.done();
        assert_eq!(wg.outstanding(), 0);
        wg.wait(); // returns immediately at zero
    }

    #[test]
    #[should_panic(expected = "without matching add")]
    fn waitgroup_underflow_panics() {
        WaitGroup::new().done();
    }

    #[test]
    fn handles_report_worker_count() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.handle().workers(), 3);
    }
}
