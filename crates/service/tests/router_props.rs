//! Property tests for the consistent-hash router and the recovery
//! re-homing contract.
//!
//! Stability: growing the ring from `S` to `S+1` backends may only move
//! keys *onto* the new backend, and only about `1/(S+1)` of them;
//! shrinking it may only move the removed backend's keys, and nothing
//! ever routes to a backend that is not on the ring. Re-homing: a key
//! that survives the persist codec routes to exactly the backend a live
//! request with the same key routes to — which is what lets recovery
//! warm each record into the backend the router would pick today.

use proptest::prelude::*;

use gb_service::cache::CacheKey;
use gb_service::persist::{decode_key, encode_key};
use gb_service::proto::Algorithm;
use gb_service::route::{FailoverRing, Router};

/// Uniform key-hash samples (the router sees `CacheKey::mix()` outputs,
/// which are SplitMix64-finalised, so uniform u64s model them exactly).
fn hashes() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 512..1024)
}

fn arb_key() -> impl Strategy<Value = CacheKey> {
    (any::<u64>(), 0usize..4, 1usize..100_000, 0.1f64..8.0).prop_map(
        |(problem, algorithm, n, theta)| {
            CacheKey::new(problem, Algorithm::ALL[algorithm], n, theta)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding one backend to `S` existing ones moves at most ~1/(S+1)
    /// of the keyspace (with slack for vnode placement variance), and
    /// every key that moves lands on the NEW backend — surviving
    /// backends never trade keys among themselves.
    #[test]
    fn adding_a_backend_moves_a_bounded_fraction_onto_it(
        backends in 1usize..8,
        vnodes in 32usize..128,
        keys in hashes(),
    ) {
        let before = Router::new(backends, vnodes);
        let after = Router::new(backends + 1, vnodes);
        let new_id = backends as u32;
        let mut moved = 0usize;
        for &hash in &keys {
            let old = before.route(hash);
            let new = after.route(hash);
            if old != new {
                prop_assert_eq!(
                    new, new_id,
                    "key moved between surviving backends: {} -> {}", old, new
                );
                moved += 1;
            }
        }
        // Expected fraction is 1/(S+1); allow 2.5x for the variance of
        // `vnodes` random arc lengths plus sampling noise.
        let bound = (keys.len() as f64 * 2.5 / (backends + 1) as f64).ceil() as usize + 8;
        prop_assert!(
            moved <= bound,
            "moved {}/{} keys to the new backend, bound {}", moved, keys.len(), bound
        );
    }

    /// Removing a backend re-homes ONLY its keys: nothing routes to the
    /// removed id afterwards, and keys owned by surviving backends keep
    /// their owner.
    #[test]
    fn removing_a_backend_only_rehomes_its_keys(
        backends in 2usize..8,
        removed in 0usize..8,
        vnodes in 32usize..128,
        keys in hashes(),
    ) {
        let removed = (removed % backends) as u32;
        let full = Router::new(backends, vnodes);
        let surviving: Vec<u32> =
            (0..backends as u32).filter(|&id| id != removed).collect();
        let shrunk = Router::from_ids(surviving, vnodes);
        for &hash in &keys {
            let old = full.route(hash);
            let new = shrunk.route(hash);
            prop_assert!(new != removed, "routed to a backend not on the ring");
            if old != removed {
                prop_assert_eq!(
                    old, new,
                    "a surviving backend's key moved when another was removed"
                );
            }
        }
    }

    /// The failover contract `gb-router` keys every request off:
    /// marking one backend dead re-homes ONLY that backend's keys —
    /// nothing routes to the dead id, and every survivor keeps exactly
    /// the keys it had on the full ring.
    #[test]
    fn failover_moves_only_the_dead_backends_keys(
        backends in 2usize..8,
        dead in 0usize..8,
        vnodes in 32usize..128,
        keys in hashes(),
    ) {
        let dead = (dead % backends) as u32;
        let full = Router::new(backends, vnodes);
        let mut ring = FailoverRing::new(backends, vnodes);
        prop_assert!(ring.mark_dead(dead));
        prop_assert!(!ring.mark_dead(dead), "second mark must be a no-op");
        for &hash in &keys {
            let before = full.route(hash);
            let after = ring.route(hash).expect("survivors remain");
            prop_assert!(after != dead, "routed to a dead backend");
            if before != dead {
                prop_assert_eq!(
                    before, after,
                    "a survivor's key moved when another backend died"
                );
            }
        }
    }

    /// Failover is monotone: any sequence of deaths, fully undone in
    /// any order, restores the exact pre-death mapping — a bounced
    /// backend gets all of its keys back and nothing else shuffles.
    #[test]
    fn revival_restores_the_exact_predeath_mapping(
        backends in 2usize..8,
        kill_mask in 0u8..255,
        reverse_revival in any::<bool>(),
        vnodes in 32usize..96,
        keys in hashes(),
    ) {
        let mut ring = FailoverRing::new(backends, vnodes);
        let before: Vec<_> = keys.iter().map(|&k| ring.route(k)).collect();
        // Kill the masked subset (never all of them), then revive in
        // forward or reverse order — the end state must not depend on
        // the order deaths and revivals interleaved.
        let mut killed: Vec<u32> = (0..backends as u32)
            .filter(|&id| kill_mask & (1 << id) != 0)
            .collect();
        if killed.len() == backends {
            killed.pop();
        }
        for &id in &killed {
            prop_assert!(ring.mark_dead(id));
        }
        // While down, nothing routes to a dead backend.
        for &hash in &keys {
            let owner = ring.route(hash).expect("survivors remain");
            prop_assert!(!killed.contains(&owner));
        }
        if reverse_revival {
            killed.reverse();
        }
        for &id in &killed {
            prop_assert!(ring.mark_alive(id));
        }
        let after: Vec<_> = keys.iter().map(|&k| ring.route(k)).collect();
        prop_assert_eq!(before, after, "revival must restore the exact mapping");
    }

    /// The hedge target is always alive, never the primary, and agrees
    /// with the ring that would exist if the excluded set were dead —
    /// so a hedged request lands exactly where failover would send it.
    #[test]
    fn hedge_target_matches_the_failover_ring(
        backends in 2usize..8,
        vnodes in 32usize..96,
        keys in hashes(),
    ) {
        let ring = FailoverRing::new(backends, vnodes);
        for &hash in keys.iter().take(128) {
            let primary = ring.route(hash).expect("all alive");
            let hedge = ring
                .route_excluding(hash, &[primary])
                .expect("backends >= 2");
            prop_assert!(hedge != primary, "hedge must avoid the primary");
            let mut without = FailoverRing::new(backends, vnodes);
            prop_assert!(without.mark_dead(primary));
            prop_assert_eq!(without.route(hash), Some(hedge));
        }
    }

    /// Failover and hedging over any dead set and any excluded set route
    /// exactly like a fresh ring built over the ids that remain — `None`
    /// when none do — including at vnode positions themselves, where a
    /// key sits on a boundary.
    #[test]
    fn failover_routes_like_a_ring_of_the_remaining_ids(
        backends in 1usize..8,
        dead_mask in any::<u8>(),
        exclude_mask in any::<u8>(),
        vnodes in 8usize..64,
        keys in hashes(),
    ) {
        let mut ring = FailoverRing::new(backends, vnodes);
        let ids = 0..backends as u32;
        for id in ids.clone().filter(|&id| dead_mask & (1 << id) != 0) {
            prop_assert!(ring.mark_dead(id));
        }
        let excluded: Vec<u32> = ids.filter(|&id| exclude_mask & (1 << id) != 0).collect();
        let ring_of = |skip: &[u32]| {
            let rest: Vec<u32> = ring
                .alive_ids()
                .into_iter()
                .filter(|id| !skip.contains(id))
                .collect();
            (!rest.is_empty()).then(|| Router::from_ids(rest, vnodes))
        };
        let (alive, remaining) = (ring_of(&[]), ring_of(&excluded));
        let boundaries = Router::new(backends, vnodes)
            .positions()
            .iter()
            .flat_map(|&(pos, _)| [pos, pos.wrapping_add(1)])
            .collect::<Vec<_>>();
        for &hash in keys.iter().chain(&boundaries) {
            prop_assert_eq!(ring.route(hash), alive.as_ref().map(|r| r.route(hash)));
            prop_assert_eq!(
                ring.route_excluding(hash, &excluded),
                remaining.as_ref().map(|r| r.route(hash))
            );
        }
    }

    /// The recovery re-homing contract: a key that round-trips through
    /// the persist codec routes to the same backend as the original on
    /// any ring — so warm-loading each recovered record into
    /// `backends[router.route(key.mix())]` puts it exactly where a live
    /// request for the same key will look.
    #[test]
    fn recovered_keys_route_like_live_keys(
        key in arb_key(),
        backends in 1usize..9,
        vnodes in 32usize..128,
    ) {
        let decoded = decode_key(&encode_key(&key)).expect("codec round-trip");
        prop_assert_eq!(&decoded, &key);
        let router = Router::new(backends, vnodes);
        prop_assert_eq!(router.route(decoded.mix()), router.route(key.mix()));
    }
}
