//! The rebalance planner: HF over the weighted vnode multiset.
//!
//! Each vnode is an *atomic* problem whose weight is its observed load
//! ([`crate::load`]). A set of such problems is bisectable with the
//! greedy-LPT split (heaviest item first onto the lighter side), so
//! [`gb_core::hf::hf`] applies verbatim: repeatedly bisect the heaviest
//! piece until there is one piece per alive backend. The α achieved by
//! the run is observed (the worst lighter-side fraction across all
//! bisections) and plugged into [`gb_core::bounds::hf_upper_bound`] to
//! report the Theorem 2 guarantee the plan is held to.
//!
//! Hysteresis keeps churn bounded: a tick below the imbalance `trigger`
//! (and with no orphaned vnodes) is a no-op, and at most `move_budget`
//! vnodes move *voluntarily* per tick — the heaviest wins first, the
//! rest wait for later ticks. Moves forced by a dead owner are exempt
//! from the budget: an orphaned vnode must land somewhere alive now.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

use gb_core::bounds::hf_upper_bound;
use gb_core::hf::hf;
use gb_core::problem::Bisectable;

use crate::load::{EwmaTracker, VnodeLoad};
use crate::stats::RebalanceCounters;

/// Knobs for a rebalance tick loop.
#[derive(Clone, Debug, PartialEq)]
pub struct RebalanceSettings {
    /// Time between ticks.
    pub interval: Duration,
    /// Minimum max/mean imbalance before a tick moves anything
    /// (orphaned vnodes always force a plan).
    pub trigger: f64,
    /// Maximum voluntary vnode moves per tick.
    pub move_budget: usize,
    /// EWMA retention factor for the load tracker.
    pub decay: f64,
}

impl Default for RebalanceSettings {
    fn default() -> RebalanceSettings {
        RebalanceSettings {
            interval: Duration::from_secs(1),
            trigger: 1.15,
            move_budget: 16,
            decay: 0.5,
        }
    }
}

/// The outcome of one planning run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// vnode → backend id, the assignment to apply (equals the current
    /// assignment when [`skipped`](Plan::skipped)).
    pub owners: Vec<u32>,
    /// Vnode indices that change owner (forced + voluntary), sorted.
    pub moves: Vec<usize>,
    /// True when the tick was a no-op (under trigger, no orphans, or no
    /// alive backends).
    pub skipped: bool,
    /// max/mean over alive backends before the plan.
    pub imbalance_before: f64,
    /// max/mean of the *unbudgeted* HF assignment — this is the number
    /// bounded by [`bound`](Plan::bound).
    pub planned_imbalance: f64,
    /// max/mean after applying [`owners`](Plan::owners) (budget capping
    /// can leave this above `planned_imbalance`; later ticks converge).
    pub imbalance_after: f64,
    /// Observed α of the run: the worst lighter-side fraction over all
    /// bisections performed (0.5 when nothing was bisected or the tick
    /// was skipped).
    pub alpha: f64,
    /// Cap on [`planned_imbalance`](Plan::planned_imbalance): the
    /// Theorem 2 bound `hf_upper_bound(alpha, alive.len())`, lifted to
    /// the atomic floor `alive.len() · w_max / W` when one vnode
    /// outweighs its share — a vnode cannot be bisected, so *any*
    /// assignment pays at least that much (1.0 when the tick was
    /// skipped).
    pub bound: f64,
}

/// A multiset of atomic weighted vnodes, bisectable by greedy LPT.
#[derive(Clone, Debug)]
struct VnodeSet {
    /// (vnode index, effective weight), every weight > 0.
    items: Vec<(usize, f64)>,
    weight: f64,
    /// Worst lighter-side fraction seen across all bisections of this
    /// planning run (shared by every piece split off the root).
    min_fraction: Rc<Cell<f64>>,
}

impl Bisectable for VnodeSet {
    fn weight(&self) -> f64 {
        self.weight
    }

    fn can_bisect(&self) -> bool {
        self.items.len() > 1
    }

    fn bisect(&self) -> (VnodeSet, VnodeSet) {
        // Greedy LPT: heaviest item first, each onto the currently
        // lighter side. Deterministic — ties break on vnode index, so
        // equal inputs bisect equally (the trait's contract).
        let mut sorted = self.items.clone();
        sorted.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite weights")
                .then(a.0.cmp(&b.0))
        });
        let (mut left, mut right) = (Vec::new(), Vec::new());
        let (mut lw, mut rw) = (0.0f64, 0.0f64);
        for (v, w) in sorted {
            if lw <= rw {
                left.push((v, w));
                lw += w;
            } else {
                right.push((v, w));
                rw += w;
            }
        }
        let fraction = lw.min(rw) / self.weight;
        self.min_fraction.set(self.min_fraction.get().min(fraction));
        let side = |items: Vec<(usize, f64)>, weight: f64| VnodeSet {
            items,
            weight,
            min_fraction: Rc::clone(&self.min_fraction),
        };
        (side(left, lw), side(right, rw))
    }
}

/// max over alive backends of their summed weight, divided by the ideal
/// (total / alive count).
fn imbalance(owners: &[u32], weights: &[f64], alive: &[u32]) -> f64 {
    let mut sums: BTreeMap<u32, f64> = alive.iter().map(|&b| (b, 0.0)).collect();
    for (v, &owner) in owners.iter().enumerate() {
        if let Some(sum) = sums.get_mut(&owner) {
            *sum += weights[v];
        }
    }
    let total: f64 = sums.values().sum();
    let ideal = total / alive.len() as f64;
    if ideal <= 0.0 {
        return 1.0;
    }
    sums.values().cloned().fold(0.0, f64::max) / ideal
}

/// Computes a vnode→backend assignment for the observed `weights`.
///
/// * `current` — the assignment in effect (one owner per vnode; owners
///   not in `alive` are treated as dead, their vnodes as orphans).
/// * `alive` — the candidate backends; dead backends are never targeted.
/// * `trigger` / `move_budget` — hysteresis, see [`RebalanceSettings`].
///
/// Deterministic: equal inputs yield equal plans.
pub fn plan(
    weights: &[f64],
    current: &[u32],
    alive: &[u32],
    trigger: f64,
    move_budget: usize,
) -> Plan {
    assert_eq!(weights.len(), current.len(), "one weight per vnode");
    let vnodes = weights.len();
    let skip = |imbalance_before: f64| Plan {
        owners: current.to_vec(),
        moves: Vec::new(),
        skipped: true,
        imbalance_before,
        planned_imbalance: imbalance_before,
        imbalance_after: imbalance_before,
        alpha: 0.5,
        bound: 1.0,
    };
    if vnodes == 0 || alive.is_empty() {
        return skip(1.0);
    }
    let alive_set: BTreeSet<u32> = alive.iter().copied().collect();

    // Floor tiny weights so idle vnodes still spread across backends
    // (cold start: all-epsilon weights plan an even split by count).
    let total: f64 = weights.iter().sum();
    let floor = (total * 1e-6).max(1e-9);
    let eff: Vec<f64> = weights.iter().map(|&w| w.max(floor)).collect();

    let orphans = current.iter().any(|owner| !alive_set.contains(owner));
    let imbalance_before = imbalance(current, &eff, alive);
    if !orphans && imbalance_before <= trigger {
        return skip(imbalance_before);
    }

    // HF over the vnode multiset: one piece per alive backend.
    let min_fraction = Rc::new(Cell::new(0.5));
    let root = VnodeSet {
        items: eff.iter().copied().enumerate().collect(),
        weight: eff.iter().sum(),
        min_fraction: Rc::clone(&min_fraction),
    };
    let partition = hf(root, alive.len());

    // Match pieces to backends by maximum weight overlap with the
    // current assignment, so a balanced piece tends to stay where its
    // vnodes (and their warm caches) already live.
    let pieces = partition.pieces();
    let mut scores: Vec<(f64, usize, u32)> = Vec::with_capacity(pieces.len() * alive.len());
    for (pi, piece) in pieces.iter().enumerate() {
        for &backend in alive {
            let overlap: f64 = piece
                .items
                .iter()
                .filter(|&&(v, _)| current[v] == backend)
                .map(|&(_, w)| w)
                .sum();
            scores.push((overlap, pi, backend));
        }
    }
    scores.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite overlaps")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut piece_owner: Vec<Option<u32>> = vec![None; pieces.len()];
    let mut taken: BTreeSet<u32> = BTreeSet::new();
    for (_, pi, backend) in scores {
        if piece_owner[pi].is_none() && taken.insert(backend) {
            piece_owner[pi] = Some(backend);
        }
    }
    let mut planned = current.to_vec();
    for (pi, piece) in pieces.iter().enumerate() {
        let backend = piece_owner[pi].expect("every piece matched: pieces <= alive");
        for &(v, _) in &piece.items {
            planned[v] = backend;
        }
    }
    let planned_imbalance = imbalance(&planned, &eff, alive);

    // Budget: forced moves (dead owner) always apply; voluntary moves
    // are capped, heaviest first, the rest reverting to their current
    // owner until a later tick.
    let mut owners = planned.clone();
    let mut voluntary: Vec<usize> = (0..vnodes)
        .filter(|&v| planned[v] != current[v] && alive_set.contains(&current[v]))
        .collect();
    let forced: Vec<usize> = (0..vnodes)
        .filter(|&v| planned[v] != current[v] && !alive_set.contains(&current[v]))
        .collect();
    if voluntary.len() > move_budget {
        voluntary.sort_by(|&a, &b| {
            eff[b]
                .partial_cmp(&eff[a])
                .expect("finite weights")
                .then(a.cmp(&b))
        });
        for &v in &voluntary[move_budget..] {
            owners[v] = current[v];
        }
        voluntary.truncate(move_budget);
    }
    let mut moves = forced;
    moves.extend(voluntary);
    moves.sort_unstable();
    let imbalance_after = imbalance(&owners, &eff, alive);

    let alpha = min_fraction.get().clamp(1e-6, 0.5);
    // Theorem 2 assumes every piece stays bisectable down to the ideal
    // granularity; an atomic vnode heavier than its share breaks that
    // premise, and the best any assignment can do is the floor
    // n·w_max/W (the heaviest vnode must land somewhere whole).
    let w_max = eff.iter().cloned().fold(0.0, f64::max);
    let atomic_floor = alive.len() as f64 * w_max / eff.iter().sum::<f64>();
    Plan {
        owners,
        moves,
        skipped: false,
        imbalance_before,
        planned_imbalance,
        imbalance_after,
        alpha,
        bound: hf_upper_bound(alpha, alive.len()).max(atomic_floor),
    }
}

/// Runs a tier's rebalance tick loop until `stopped()` says so.
///
/// Every `settings.interval` it folds the per-vnode counters into an
/// EWMA, asks `state()` for the assignment in effect and the alive owner
/// ids, plans with [`plan`], records the tick, and hands a plan that
/// moves anything to `apply`. Owners missing from the alive set are
/// dead: their vnodes re-home as forced moves, exempt from the budget.
/// The stop flag is polled at least every 20 ms, so a long interval
/// never delays shutdown.
pub fn run_ticks(
    settings: &RebalanceSettings,
    load: &VnodeLoad,
    counters: &RebalanceCounters,
    stopped: impl Fn() -> bool,
    state: impl Fn() -> (Vec<u32>, Vec<u32>),
    apply: impl Fn(Vec<u32>),
) {
    let interval = settings.interval.max(Duration::from_millis(1));
    let step = interval.min(Duration::from_millis(20));
    let mut tracker = EwmaTracker::new(load.len(), settings.decay);
    let mut next_tick = Instant::now() + interval;
    while !stopped() {
        let wait = next_tick.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait.min(step));
            continue;
        }
        next_tick = Instant::now() + interval;
        tracker.observe(load);
        let (current, alive) = state();
        let plan = plan(
            &tracker.weights(),
            &current,
            &alive,
            settings.trigger,
            settings.move_budget,
        );
        counters.record_tick(&plan);
        if !plan.skipped && !plan.moves.is_empty() {
            apply(plan.owners);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_load_round_robin_is_a_noop() {
        let weights = vec![1.0; 8];
        let current: Vec<u32> = (0..8).map(|v| v % 2).collect();
        let p = plan(&weights, &current, &[0, 1], 1.15, 16);
        assert!(p.skipped);
        assert!(p.moves.is_empty());
        assert_eq!(p.owners, current);
        assert!((p.imbalance_before - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_load_rebalances_within_bound() {
        // One hot vnode at 40% of total, the rest uniform, all parked
        // on backend 0.
        let mut weights = vec![1.0; 12];
        weights[0] = 8.0;
        let current = vec![0u32; 12];
        let alive = [0u32, 1, 2, 3];
        let p = plan(&weights, &current, &alive, 1.1, usize::MAX);
        assert!(!p.skipped);
        assert!(p.imbalance_before > 3.9, "all load on one of four");
        assert!(
            p.planned_imbalance <= p.bound + 1e-9,
            "planned {} must respect the HF bound {}",
            p.planned_imbalance,
            p.bound
        );
        assert!(p.planned_imbalance < p.imbalance_before);
        assert_eq!(p.imbalance_after, p.planned_imbalance);
        for &owner in &p.owners {
            assert!(alive.contains(&owner));
        }
    }

    #[test]
    fn dead_owner_forces_a_plan_and_is_excluded() {
        let weights = vec![1.0; 6];
        let current = vec![0u32, 0, 1, 1, 2, 2];
        // Backend 2 died: its vnodes are orphans; the plan must fire
        // even though the alive imbalance is tame, and never target 2.
        let p = plan(&weights, &current, &[0, 1], 1.5, 0);
        assert!(!p.skipped);
        for &owner in &p.owners {
            assert!(owner == 0 || owner == 1);
        }
        // Orphan moves are exempt from the zero budget...
        assert!(p.moves.iter().any(|&v| current[v] == 2));
        // ...but voluntary moves are not.
        assert!(p.moves.iter().all(|&v| current[v] == 2));
    }

    #[test]
    fn budget_caps_voluntary_moves() {
        let mut weights = vec![1.0; 16];
        weights[3] = 50.0;
        let current = vec![0u32; 16];
        let p = plan(&weights, &current, &[0, 1, 2, 3], 1.1, 4);
        assert!(!p.skipped);
        assert!(p.moves.len() <= 4, "moves {:?} exceed budget", p.moves);
        // The heaviest vnode that must move, moves first — and the
        // partial application still helps.
        assert!(p.imbalance_after < p.imbalance_before);
    }

    #[test]
    fn no_alive_backends_is_a_safe_noop() {
        let p = plan(&[1.0, 2.0], &[0, 1], &[], 1.0, 16);
        assert!(p.skipped);
        assert_eq!(p.owners, vec![0, 1]);
    }

    #[test]
    fn deterministic_for_equal_inputs() {
        let weights: Vec<f64> = (0..32).map(|v| 1.0 + (v % 7) as f64).collect();
        let current = vec![0u32; 32];
        let a = plan(&weights, &current, &[0, 1, 2], 1.0, 8);
        let b = plan(&weights, &current, &[0, 1, 2], 1.0, 8);
        assert_eq!(a.owners, b.owners);
        assert_eq!(a.moves, b.moves);
    }
}
