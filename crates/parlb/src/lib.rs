//! # gb-parlb — the parallel load-balancing algorithms
//!
//! This crate implements §3 of the paper on two substrates:
//!
//! **On the simulated machine** (`gb-pram`), faithfully following the
//! paper's cost model so the running-time/communication claims can be
//! measured:
//!
//! * [`hf_machine`] — sequential HF driven from processor 0
//!   (the `Θ(N)` baseline);
//! * [`phf`](mod@phf) — Algorithm PHF (Figure 2): two phases, the §3.4
//!   free-processor management (a BA′ cascade plus clean-up rounds), and
//!   the synchronised `(1−α)`-window rounds of phase 2. Produces exactly
//!   the same partition as HF (Theorem 3) in `O(log N)` model time for
//!   fixed α;
//! * [`ba_machine`] — Algorithm BA as a communication cascade over
//!   processor ranges: **zero** global operations, `O(log N)` model time;
//! * [`bahf_machine`] — Algorithm BA-HF with either a sequential-HF or a
//!   PHF second phase.
//!
//! **On real threads**, demonstrating that BA's "inherently parallel"
//! structure needs nothing but fork-join:
//!
//! * [`pool`] — a small work-stealing fork-join pool built on
//!   `crossbeam-deque` (local deques + global injector + stealing), in the
//!   spirit of the work-stealing schedulers the paper cites
//!   (Blumofe & Leiserson \[3\]);
//! * [`par_ba`](mod@par_ba) — BA and BA-HF executing with real parallelism on the
//!   pool, bit-identical to their sequential counterparts;
//! * [`par_phf`](mod@par_phf) — the PHF scheme on real threads: HF's (instance-optimal)
//!   partition with parallel batch bisection, and its rounds on the
//!   calling thread for callers that are parallel already.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ba_machine;
pub mod bahf_machine;
pub mod hf_machine;
pub mod managers;
pub mod par_ba;
pub mod par_phf;
pub mod par_process;
pub mod phf;
pub mod pool;

pub use ba_machine::ba_on_machine;
pub use bahf_machine::{ba_hf_on_machine, TailAlgorithm};
pub use hf_machine::hf_on_machine;
pub use managers::{cascade_with_manager, compare_managers, Manager, ManagerComparison};
pub use par_ba::{par_ba, par_ba_hf};
pub use par_phf::{inline_phf, par_phf};
pub use par_process::{balance_and_process, Balancer};
pub use phf::{phf, phf_on_range, PhfReport};
pub use pool::{PoolHandle, ThreadPool, WaitGroup};
