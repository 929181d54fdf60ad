//! Consistent-hash routing across backend pools.
//!
//! The router places `vnodes` virtual nodes per backend on a u64 ring
//! (each vnode's position is a SplitMix64 hash of `(backend_id,
//! replica)`), and routes a key hash to the owning backend with a
//! binary search for the first vnode clockwise of the hash. Two
//! properties fall out of this construction:
//!
//! - **Stability**: adding one backend to `S` existing ones only
//!   reassigns the keys that now land on the new backend's vnodes —
//!   about `1/(S+1)` of the keyspace — and never shuffles keys between
//!   surviving backends. Removing a backend reassigns only its keys.
//! - **Determinism**: the ring depends only on the backend id set and
//!   the vnode count, not on insertion order or process history, so a
//!   restarted server re-homes every recovered record to the same
//!   backend a live router would pick.
//!
//! Keys enter as [`CacheKey::mix()`](crate::cache::CacheKey::mix)
//! fingerprints, which are already SplitMix64-finalised and uniform.

use crate::cache::splitmix64;

/// Default virtual nodes per backend; enough that the max/mean keyspace
/// imbalance across backends stays small (~sqrt(S/vnodes) relative
/// spread) without making ring construction or lookup measurable.
pub const DEFAULT_VNODES: usize = 96;

/// A consistent-hash ring over backend ids.
#[derive(Debug, Clone)]
pub struct Router {
    /// `(position, backend_id)` sorted by position.
    ring: Vec<(u64, u32)>,
    backends: usize,
    vnodes: usize,
}

impl Router {
    /// Ring over backends `0..backends` with `vnodes` virtual nodes
    /// each. Panics if either count is zero.
    pub fn new(backends: usize, vnodes: usize) -> Router {
        Self::from_ids((0..backends as u32).collect(), vnodes)
    }

    /// Ring over an explicit backend id set — the membership-change
    /// form: the ring for `{0,1,2}` is a strict subset of the ring for
    /// `{0,1,2,3}` restricted to surviving ids.
    pub fn from_ids(ids: Vec<u32>, vnodes: usize) -> Router {
        assert!(!ids.is_empty(), "router needs at least one backend");
        assert!(vnodes > 0, "router needs at least one vnode per backend");
        let backends = ids.len();
        let mut ring = Vec::with_capacity(backends * vnodes);
        for &id in &ids {
            for replica in 0..vnodes as u64 {
                // Spread id and replica into distinct bit ranges before
                // finalising so (id=1, replica=2) and (id=2, replica=1)
                // cannot collide structurally.
                let position = splitmix64((u64::from(id) << 32) | replica);
                ring.push((position, id));
            }
        }
        ring.sort_unstable();
        Router {
            ring,
            backends,
            vnodes,
        }
    }

    /// The backend owning `hash`: the first vnode at or clockwise of
    /// it, wrapping to the ring's start past the largest position.
    pub fn route(&self, hash: u64) -> u32 {
        self.ring[self.vnode_of(hash)].1
    }

    /// The ring index of the vnode owning `hash` — a stable dense id in
    /// `0..vnode_count()` (the ring is sorted by position and depends
    /// only on the id set), used to key per-vnode load accounting and
    /// explicit assignment tables.
    pub fn vnode_of(&self, hash: u64) -> usize {
        self.ring.partition_point(|&(pos, _)| pos < hash) % self.ring.len()
    }

    /// The backend the hash ring gives vnode `vnode` (its position's
    /// original owner, ignoring any assignment table).
    pub fn owner_of(&self, vnode: usize) -> u32 {
        self.ring[vnode].1
    }

    /// Total vnode count (`backends() * vnodes()`).
    pub fn vnode_count(&self) -> usize {
        self.ring.len()
    }

    /// The hash ring's vnode→backend table — the cold-start default an
    /// assignment layer overrides.
    pub fn default_owners(&self) -> Vec<u32> {
        self.ring.iter().map(|&(_, backend)| backend).collect()
    }

    /// Number of backends on the ring.
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// Virtual nodes per backend.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// The sorted `(position, backend_id)` vnode placements — read-only,
    /// for tests and tooling that reason about per-vnode ownership.
    pub fn positions(&self) -> &[(u64, u32)] {
        &self.ring
    }
}

// ---------------------------------------------------------------------------
// Failover view: a ring plus an alive mask
// ---------------------------------------------------------------------------

/// A consistent-hash ring with liveness: the full membership plus an
/// alive mask, routing over the alive subset only.
///
/// Built on [`Router::from_ids`]'s determinism, failover is *monotone*:
///
/// - [`mark_dead`](FailoverRing::mark_dead) re-homes exactly the dead
///   backend's vnode arcs onto survivors (consistent hashing spreads
///   them ~evenly); survivors' own assignments never move;
/// - [`mark_alive`](FailoverRing::mark_alive) restores the exact
///   pre-death mapping, because the ring depends only on the id set —
///   so a backend that bounces gets all of its keys back and nothing
///   else shuffles.
///
/// This is the structure the `gb-router` tier keys every request off;
/// it is kept here next to [`Router`] so the failover contract is
/// property-tested with the rest of the routing invariants.
///
/// On top of the hash placement sits an optional **assignment table**
/// ([`set_assignment`](FailoverRing::set_assignment)): an explicit
/// vnode→backend map, indexed by the *full* ring's vnode ids, that a
/// rebalancer (`gb-rebal`) swaps in to override hash positions with
/// load-derived ownership. Routing prefers the assigned owner while it
/// is alive and falls back to the monotone hash ring otherwise, so the
/// failover guarantees above still hold between rebalance ticks.
#[derive(Debug, Clone)]
pub struct FailoverRing {
    ids: Vec<u32>,
    alive: Vec<bool>,
    /// Ring over the *complete* membership — stable vnode identity for
    /// load accounting and assignment, independent of liveness. The
    /// ring over any subset of the ids is this ring filtered, because a
    /// vnode's position depends only on its id and replica, so routing
    /// over the alive ids walks it past dead owners.
    full: Router,
    /// Explicit vnode→backend override, indexed like `full`'s vnodes.
    assignment: Option<Vec<u32>>,
}

impl FailoverRing {
    /// A fully-alive ring over backends `0..backends`.
    pub fn new(backends: usize, vnodes: usize) -> FailoverRing {
        Self::from_ids((0..backends as u32).collect(), vnodes)
    }

    /// A fully-alive ring over an explicit id set.
    pub fn from_ids(ids: Vec<u32>, vnodes: usize) -> FailoverRing {
        let full = Router::from_ids(ids.clone(), vnodes);
        let alive = vec![true; ids.len()];
        FailoverRing {
            ids,
            alive,
            full,
            assignment: None,
        }
    }

    fn index_of(&self, id: u32) -> Option<usize> {
        self.ids.iter().position(|&i| i == id)
    }

    /// Total membership (alive or not).
    pub fn backends(&self) -> usize {
        self.ids.len()
    }

    /// Virtual nodes per backend.
    pub fn vnodes(&self) -> usize {
        self.full.vnodes()
    }

    /// Whether `id` is currently alive (unknown ids are dead).
    pub fn is_alive(&self, id: u32) -> bool {
        self.index_of(id).is_some_and(|at| self.alive[at])
    }

    /// The ids currently marked alive, in membership order.
    pub fn alive_ids(&self) -> Vec<u32> {
        self.ids
            .iter()
            .zip(&self.alive)
            .filter(|(_, &alive)| alive)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Number of alive backends.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Marks `id` dead, re-homing its vnode arcs onto survivors.
    /// Returns `true` if the mask changed.
    pub fn mark_dead(&mut self, id: u32) -> bool {
        match self.index_of(id) {
            Some(at) if self.alive[at] => {
                self.alive[at] = false;
                true
            }
            _ => false,
        }
    }

    /// Marks `id` alive again, restoring its exact pre-death
    /// assignments. Returns `true` if the mask changed.
    pub fn mark_alive(&mut self, id: u32) -> bool {
        match self.index_of(id) {
            Some(at) if !self.alive[at] => {
                self.alive[at] = true;
                true
            }
            _ => false,
        }
    }

    /// The full-membership vnode owning `hash` — the index load
    /// accounting and assignment tables are keyed by. Stable across
    /// liveness changes.
    pub fn vnode_of(&self, hash: u64) -> usize {
        self.full.vnode_of(hash)
    }

    /// Total vnode count on the full ring.
    pub fn vnode_count(&self) -> usize {
        self.full.vnode_count()
    }

    /// The full ring's hash-derived vnode→backend table (the cold-start
    /// default assignment).
    pub fn default_owners(&self) -> Vec<u32> {
        self.full.default_owners()
    }

    /// Installs (or with `None` clears) an explicit vnode→backend
    /// assignment, indexed by the full ring's vnode ids.
    ///
    /// Panics if the table's length does not match
    /// [`vnode_count`](FailoverRing::vnode_count) or an owner is not a
    /// member — a planner bug, not a runtime condition: dead-but-member
    /// owners are legal and simply fall back until the next tick.
    pub fn set_assignment(&mut self, owners: Option<Vec<u32>>) {
        if let Some(owners) = &owners {
            assert_eq!(owners.len(), self.vnode_count(), "one owner per vnode");
            for &owner in owners {
                assert!(self.index_of(owner).is_some(), "owner {owner} not a member");
            }
        }
        self.assignment = owners;
    }

    /// The explicit assignment in effect, if any.
    pub fn assignment(&self) -> Option<&[u32]> {
        self.assignment.as_deref()
    }

    /// The assigned owner for `hash`, provided it is alive and not in
    /// `exclude`.
    fn assigned(&self, hash: u64, exclude: &[u32]) -> Option<u32> {
        let owners = self.assignment.as_ref()?;
        let owner = owners[self.full.vnode_of(hash)];
        (self.is_alive(owner) && !exclude.contains(&owner)).then_some(owner)
    }

    /// The alive backend owning `hash`, or `None` when every backend is
    /// dead: the assigned owner when one is installed and alive, else
    /// the monotone hash ring over the alive subset.
    pub fn route(&self, hash: u64) -> Option<u32> {
        self.route_excluding(hash, &[])
    }

    /// The backend that would own `hash` if every id in `exclude` were
    /// also dead — the hedge/failover target: guaranteed alive and not
    /// excluded, or `None` when no such backend exists. `exclude`
    /// empty is exactly [`route`](FailoverRing::route).
    pub fn route_excluding(&self, hash: u64, exclude: &[u32]) -> Option<u32> {
        if let Some(owner) = self.assigned(hash, exclude) {
            return Some(owner);
        }
        // The first vnode at or clockwise of `hash` whose owner remains.
        let ring = self.full.positions();
        let start = self.full.vnode_of(hash);
        ring[start..]
            .iter()
            .chain(&ring[..start])
            .map(|&(_, id)| id)
            .find(|&id| self.is_alive(id) && !exclude.contains(&id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_backend_owns_everything() {
        let router = Router::new(1, DEFAULT_VNODES);
        for k in [0, 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(router.route(k), 0);
        }
    }

    #[test]
    fn routing_is_deterministic_and_membership_ordered() {
        let a = Router::new(4, 64);
        let b = Router::from_ids(vec![0, 1, 2, 3], 64);
        for k in (0..10_000u64).map(splitmix64) {
            assert_eq!(a.route(k), b.route(k));
        }
    }

    #[test]
    fn load_split_is_roughly_uniform() {
        let router = Router::new(4, DEFAULT_VNODES);
        let mut counts = [0u64; 4];
        const SAMPLES: u64 = 40_000;
        for k in 0..SAMPLES {
            counts[router.route(splitmix64(k)) as usize] += 1;
        }
        let mean = SAMPLES as f64 / 4.0;
        for (backend, &count) in counts.iter().enumerate() {
            let skew = count as f64 / mean;
            assert!(
                (0.5..2.0).contains(&skew),
                "backend {backend} holds {count}/{SAMPLES} (skew {skew:.2})"
            );
        }
    }

    #[test]
    fn wraparound_routes_to_the_first_vnode() {
        let router = Router::new(3, 8);
        let (first_pos, first_backend) = router.ring[0];
        let (last_pos, _) = *router.ring.last().unwrap();
        assert!(last_pos < u64::MAX, "test assumes the ring top is free");
        assert_eq!(router.route(last_pos + 1), first_backend);
        assert_eq!(router.route(first_pos), first_backend);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn zero_backends_panics() {
        let _ = Router::new(0, 8);
    }

    #[test]
    fn failover_moves_only_the_dead_backends_keys() {
        let mut ring = FailoverRing::new(4, 64);
        let full = Router::new(4, 64);
        assert!(ring.mark_dead(2));
        assert!(!ring.mark_dead(2), "second mark is a no-op");
        for k in (0..10_000u64).map(splitmix64) {
            let before = full.route(k);
            let after = ring.route(k).expect("survivors remain");
            assert_ne!(after, 2, "routed to a dead backend");
            if before != 2 {
                assert_eq!(before, after, "a survivor's key moved");
            }
        }
    }

    #[test]
    fn revival_restores_the_exact_mapping() {
        let mut ring = FailoverRing::new(5, 48);
        let keys: Vec<u64> = (0..5_000u64).map(splitmix64).collect();
        let before: Vec<_> = keys.iter().map(|&k| ring.route(k)).collect();
        assert!(ring.mark_dead(1));
        assert!(ring.mark_dead(3));
        assert!(ring.mark_alive(3));
        assert!(ring.mark_alive(1));
        let after: Vec<_> = keys.iter().map(|&k| ring.route(k)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn all_dead_routes_to_none_and_revives() {
        let mut ring = FailoverRing::new(2, 16);
        assert!(ring.mark_dead(0));
        assert!(ring.mark_dead(1));
        assert_eq!(ring.alive_count(), 0);
        assert_eq!(ring.route(42), None);
        assert!(ring.mark_alive(0));
        assert_eq!(ring.route(42), Some(0));
    }

    #[test]
    fn route_excluding_skips_the_primary() {
        let mut ring = FailoverRing::new(3, 32);
        for k in (0..2_000u64).map(splitmix64) {
            let primary = ring.route(k).unwrap();
            assert_eq!(ring.route_excluding(k, &[]), Some(primary));
            let hedge = ring.route_excluding(k, &[primary]).unwrap();
            assert_ne!(primary, hedge);
            assert!(ring.route_excluding(k, &[0, 1, 2]).is_none());
        }
        // With one survivor there is no hedge target.
        ring.mark_dead(1);
        ring.mark_dead(2);
        assert_eq!(ring.route_excluding(7, &[0]), None);
        // Unknown ids are reported dead, known-alive ones alive.
        assert!(ring.is_alive(0));
        assert!(!ring.is_alive(9));
    }

    #[test]
    fn assignment_overrides_hash_placement() {
        let mut ring = FailoverRing::new(3, 16);
        // Assign every vnode to backend 2, regardless of position.
        ring.set_assignment(Some(vec![2; ring.vnode_count()]));
        for k in (0..2_000u64).map(splitmix64) {
            assert_eq!(ring.route(k), Some(2));
        }
        // Clearing restores the hash ring exactly.
        ring.set_assignment(None);
        let hash_ring = Router::new(3, 16);
        for k in (0..2_000u64).map(splitmix64) {
            assert_eq!(ring.route(k), Some(hash_ring.route(k)));
        }
    }

    #[test]
    fn dead_assigned_owner_falls_back_and_revives() {
        let mut ring = FailoverRing::new(3, 16);
        ring.set_assignment(Some(vec![1; ring.vnode_count()]));
        assert!(ring.mark_dead(1));
        for k in (0..1_000u64).map(splitmix64) {
            let owner = ring.route(k).expect("survivors remain");
            assert_ne!(owner, 1, "routed to the dead assigned owner");
        }
        // Revival restores the assignment, not just the hash mapping.
        assert!(ring.mark_alive(1));
        for k in (0..1_000u64).map(splitmix64) {
            assert_eq!(ring.route(k), Some(1));
        }
    }

    #[test]
    fn route_excluding_respects_assignment() {
        let mut ring = FailoverRing::new(3, 16);
        let owners: Vec<u32> = (0..ring.vnode_count() as u32).map(|v| v % 3).collect();
        ring.set_assignment(Some(owners.clone()));
        for k in (0..1_000u64).map(splitmix64) {
            let primary = ring.route(k).unwrap();
            assert_eq!(primary, owners[ring.vnode_of(k)]);
            let hedge = ring.route_excluding(k, &[primary]).unwrap();
            assert_ne!(hedge, primary, "hedge must avoid the assigned owner");
        }
    }

    #[test]
    #[should_panic(expected = "one owner per vnode")]
    fn wrong_length_assignment_panics() {
        let mut ring = FailoverRing::new(2, 8);
        ring.set_assignment(Some(vec![0; 3]));
    }
}
