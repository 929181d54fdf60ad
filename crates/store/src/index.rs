//! The log's key index, sharded so that it grows without a doubling
//! cliff.
//!
//! A single `HashMap` doubles its table when it passes its load limit,
//! and the rehash holds the old and the new table at once: at every
//! power-of-two boundary, one append briefly triples the table's memory
//! and leaves it doubled. [`Index`] splits the keys by hash over
//! [`SHARDS`] maps and gives shard `i` a share of the hash space
//! proportional to `2^(i/SHARDS)`. The shares span one doubling, so the
//! shards reach their load limits at index sizes spread evenly (in log
//! scale) over each doubling of the whole: the index grows in steps of
//! about `1/SHARDS` of itself, and one shard rehashes at a time. Equal
//! shares would not do — every shard would reach its limit at the same
//! total, and the index would still double in one go.
//!
//! Keys of up to [`INLINE`] bytes (gb-serve's are 25) live in their
//! bucket, so such a key costs no heap chunk of its own.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// Number of shards.
const SHARDS: usize = 64;

/// Longest key stored inline; with its length byte and the variant tag
/// a [`Key`] is then 32 bytes.
const INLINE: usize = 30;

/// Key bytes, inline when short enough.
#[derive(Debug)]
enum Key {
    Inline(u8, [u8; INLINE]),
    Boxed(Box<[u8]>),
}

impl Key {
    fn bytes(&self) -> &[u8] {
        match self {
            Key::Inline(len, bytes) => &bytes[..*len as usize],
            Key::Boxed(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for Key {
    fn from(bytes: &[u8]) -> Key {
        if bytes.len() <= INLINE {
            let mut inline = [0; INLINE];
            inline[..bytes.len()].copy_from_slice(bytes);
            Key::Inline(bytes.len() as u8, inline)
        } else {
            Key::Boxed(bytes.into())
        }
    }
}

// Lookups borrow a `Key` as its bytes, so hashing and equality must
// be the bytes' own.
impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.bytes()
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bytes().hash(state)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Key {}

/// Map from key bytes to `V`, in [`SHARDS`] staggered hash maps.
#[derive(Debug)]
pub(crate) struct Index<V> {
    shards: Vec<HashMap<Key, V>>,
    /// `bounds[i]` is the smallest hash that falls in shard `i + 1`.
    bounds: Vec<u64>,
    /// Picks the shard; independent of the shards' own hashers.
    hasher: RandomState,
}

impl<V> Index<V> {
    /// An empty index.
    pub(crate) fn new() -> Self {
        // Shard `i` owns `[2^(i/S) - 1, 2^((i+1)/S) - 1)` of the unit
        // interval, a share proportional to `2^(i/S)`.
        let bounds = (1..SHARDS)
            .map(|i| ((2f64.powf(i as f64 / SHARDS as f64) - 1.0) * 2f64.powi(64)) as u64)
            .collect();
        Index {
            shards: (0..SHARDS).map(|_| HashMap::new()).collect(),
            bounds,
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &[u8]) -> usize {
        let h = self.hasher.hash_one(key);
        self.bounds.partition_point(|&b| b <= h)
    }

    /// Keys stored.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// The value stored for `key`.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&V> {
        self.shards[self.shard(key)].get(key)
    }

    /// Stores `value` for `key`, returning the value it replaces.
    pub(crate) fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        let i = self.shard(key);
        self.shards[i].insert(key.into(), value)
    }

    /// Keeps only the entries whose value passes `keep`.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        for shard in &mut self.shards {
            shard.retain(|_, v| keep(v));
        }
    }

    /// Entries the shards hold room for, summed.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.shards.iter().map(HashMap::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Distinct keys of 1 to 47 bytes: inline and boxed.
    fn key(k: u16) -> Vec<u8> {
        format!("{k:0>w$}", w = usize::from(k % 48)).into_bytes()
    }

    proptest! {
        /// Inserts, overwrites and retains agree with one plain map.
        #[test]
        fn prop_matches_a_hash_map(
            ops in prop::collection::vec((0u16..300, any::<u8>()), 0..600),
            cut in any::<u8>(),
        ) {
            let mut index = Index::new();
            let mut model = HashMap::new();
            for (k, v) in ops {
                prop_assert_eq!(index.insert(&key(k), v), model.insert(key(k), v));
            }
            index.retain(|&v| v < cut);
            model.retain(|_, v| *v < cut);
            prop_assert_eq!(index.len(), model.len());
            for k in 0u16..300 {
                prop_assert_eq!(index.get(&key(k)), model.get(&key(k)));
            }
        }
    }
}
