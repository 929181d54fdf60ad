//! BA and BA-HF with real threads on the work-stealing pool.
//!
//! "Algorithm BA is invoked recursively with input `(p_i, N_i)`,
//! `i = 1, 2`. These recursive calls can be executed in parallel on
//! different processors." (§3.2)
//!
//! Each task owns one subproblem: it walks down the left spine of its
//! recursion (bisect, keep `p1`) and spawns one task per right child —
//! the task-tree analogue of the processor-range cascade. A subproblem
//! with at most `LOCAL_GRAIN` processors is finished by the task that
//! reaches it, on a local stack, so tasks stay sized to their work.
//! Because problem bisection is deterministic, the resulting piece
//! *multiset* is bit-identical to the sequential [`gb_core::ba::ba`] run,
//! whatever the interleaving (verified by tests).

use std::sync::Arc;

use gb_core::ba::split_processors;
use gb_core::bahf::switch_threshold;
use gb_core::hf::hf;
use gb_core::partition::Partition;
use gb_core::problem::Bisectable;
use parking_lot::Mutex;

use crate::pool::{PoolHandle, ThreadPool, WaitGroup};

/// Runs BA on the pool with real parallelism.
///
/// # Panics
/// Panics if `n == 0`.
pub fn par_ba<P>(pool: &ThreadPool, p: P, n: usize) -> Partition<P>
where
    P: Bisectable + Send + 'static,
{
    run(pool, p, n, None)
}

/// Runs BA-HF on the pool: parallel BA recursion down to the `θ/α + 1`
/// threshold, sequential HF tails inside each task.
///
/// # Panics
/// Panics if `n == 0`, `alpha ∉ (0, 1/2]` or `theta ≤ 0`.
pub fn par_ba_hf<P>(pool: &ThreadPool, p: P, n: usize, alpha: f64, theta: f64) -> Partition<P>
where
    P: Bisectable + Send + 'static,
{
    let threshold = switch_threshold(alpha, theta);
    run(pool, p, n, Some(threshold))
}

fn run<P>(pool: &ThreadPool, p: P, n: usize, hf_below: Option<f64>) -> Partition<P>
where
    P: Bisectable + Send + 'static,
{
    assert!(n > 0, "parallel BA needs at least one processor");
    let total = p.weight();
    let results: Arc<Mutex<Vec<P>>> = Arc::new(Mutex::new(Vec::with_capacity(n)));
    let wg = Arc::new(WaitGroup::new());
    wg.add(1);
    spawn_task(
        pool.handle(),
        p,
        n,
        hf_below,
        Arc::clone(&results),
        Arc::clone(&wg),
    );
    wg.wait();
    let pieces = std::mem::take(&mut *results.lock());
    Partition::new(pieces, total, n)
}

/// A task with at most this many processors finishes its subtree itself,
/// on a local stack: below it, handing a child to another worker costs
/// more than the bisections it would share.
const LOCAL_GRAIN: usize = 32;

fn spawn_task<P>(
    handle: PoolHandle,
    p: P,
    n: usize,
    hf_below: Option<f64>,
    results: Arc<Mutex<Vec<P>>>,
    wg: Arc<WaitGroup>,
) where
    P: Bisectable + Send + 'static,
{
    let respawn = handle.clone();
    handle.spawn(move || {
        let mut pieces = Vec::new();
        let mut local = vec![(p, n)];
        while let Some((mut q, mut m)) = local.pop() {
            loop {
                // BA-HF switch-over: finish this fragment with sequential HF.
                if let Some(threshold) = hf_below {
                    if (m as f64) < threshold {
                        pieces.extend(hf(q, m).into_pieces());
                        break;
                    }
                }
                if m == 1 || !q.can_bisect() {
                    pieces.push(q);
                    break;
                }
                let (q1, q2) = q.bisect();
                let (n1, n2) = split_processors(q1.weight(), q2.weight(), m);
                if m <= LOCAL_GRAIN {
                    local.push((q2, n2));
                } else {
                    wg.add(1);
                    spawn_task(
                        respawn.clone(),
                        q2,
                        n2,
                        hf_below,
                        Arc::clone(&results),
                        Arc::clone(&wg),
                    );
                }
                q = q1;
                m = n1;
            }
        }
        results.lock().extend(pieces);
        wg.done();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::ba::ba;
    use gb_core::bahf::ba_hf;
    use gb_core::synthetic_alpha::{AtomicAfter, FixedAlpha};

    #[test]
    fn par_ba_matches_sequential_ba() {
        let pool = ThreadPool::new(4);
        for &alpha in &[0.1, 0.3, 0.5] {
            for &n in &[1usize, 2, 17, 128, 1000] {
                let p = FixedAlpha::new(1.0, alpha);
                let par = par_ba(&pool, p, n);
                let seq = ba(p, n);
                assert!(
                    par.same_weights_as(&seq),
                    "alpha={alpha} n={n}: parallel != sequential"
                );
            }
        }
    }

    #[test]
    fn par_ba_hf_matches_sequential_ba_hf() {
        let pool = ThreadPool::new(4);
        let alpha = 0.22;
        for &theta in &[0.5, 1.0, 2.0] {
            for &n in &[2usize, 40, 300] {
                let p = FixedAlpha::new(1.0, alpha);
                let par = par_ba_hf(&pool, p, n, alpha, theta);
                let seq = ba_hf(p, n, alpha, theta);
                assert!(
                    par.same_weights_as(&seq),
                    "theta={theta} n={n}: parallel != sequential"
                );
            }
        }
    }

    #[test]
    fn repeated_runs_are_identical() {
        // Scheduling nondeterminism must not leak into results.
        let pool = ThreadPool::new(8);
        let p = FixedAlpha::new(1.0, 0.37);
        let first = par_ba(&pool, p, 512);
        for _ in 0..5 {
            let again = par_ba(&pool, p, 512);
            assert!(first.same_weights_as(&again));
        }
    }

    #[test]
    fn atomic_problems_short_circuit() {
        let pool = ThreadPool::new(2);
        let p = AtomicAfter::new(1.0, 0.5, 0.3);
        let par = par_ba(&pool, p, 64);
        assert_eq!(par.len(), 4);
        assert!(par.check_conservation(1e-12));
    }

    #[test]
    fn works_on_single_worker() {
        let pool = ThreadPool::new(1);
        let p = FixedAlpha::new(2.0, 0.4);
        let par = par_ba(&pool, p, 100);
        assert_eq!(par.len(), 100);
        assert!(par.same_weights_as(&ba(p, 100)));
    }

    #[test]
    fn concurrent_runs_do_not_interfere() {
        let pool = Arc::new(ThreadPool::new(4));
        let mut joins = Vec::new();
        for i in 0..4u64 {
            let alpha = 0.2 + 0.05 * i as f64;
            let pool2 = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let p = FixedAlpha::new(1.0, alpha);
                let par = par_ba(&pool2, p, 256);
                assert!(par.same_weights_as(&ba(p, 256)), "alpha={alpha}");
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
}
