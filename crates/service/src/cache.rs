//! Result caching: an O(1) LRU with optional TinyLFU admission, and a
//! sharded front that removes the single-lock choke point.
//!
//! Because every [`ProblemSpec`](crate::spec::ProblemSpec) is
//! deterministic and the algorithms are pure functions of the problem,
//! a cache entry is not merely "a plausible answer" — it is byte-for-byte
//! the partition the server would recompute. The cache therefore returns
//! full responses, only the latency and `cached` flag differ.
//!
//! Three layers:
//!
//! * [`LruCache`] — `HashMap` into a slab of intrusively doubly-linked
//!   nodes: `O(1)` per touch (the previous implementation kept a
//!   `BTreeMap` recency index, `O(log n)` per touch). Iteration order is
//!   the recency list itself, which is fully deterministic; each node
//!   additionally carries a monotone insertion sequence number so tests
//!   can assert order with an explicit insertion-order tiebreak.
//! * [`TinyLfu`] — an admission filter in the TinyLFU style: a 4-bit
//!   count–min sketch (4 probes, periodic halving) fronted by a
//!   doorkeeper bloom filter that absorbs one-hit wonders. On insertion
//!   into a full cache the candidate is admitted only if its estimated
//!   frequency *exceeds* the eviction victim's — ties lose, which is
//!   what makes a one-pass scan unable to flush the hot set.
//! * [`ShardedCache`] — power-of-two shards selected by problem
//!   fingerprint bits, one `Mutex<LruCache>` per shard, so concurrent
//!   lookups for different problems never serialise on one lock.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::proto::{Algorithm, WireCodec};

/// Sentinel for "no node" in the intrusive list.
const NIL: usize = usize::MAX;

/// Cache key: what uniquely determines a balance result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `ProblemSpec::fingerprint()` of the request's problem.
    pub problem: u64,
    /// Algorithm that ran.
    pub algorithm: Algorithm,
    /// Processor count.
    pub n: usize,
    /// θ bit pattern (only meaningful for BA-HF; fixed for the others).
    pub theta_bits: u64,
}

impl CacheKey {
    /// Builds a key, normalising θ for algorithms that ignore it so
    /// `hf, θ=1` and `hf, θ=2` share an entry.
    pub fn new(problem: u64, algorithm: Algorithm, n: usize, theta: f64) -> Self {
        let theta_bits = match algorithm {
            Algorithm::BaHf => theta.to_bits(),
            _ => 0,
        };
        Self {
            problem,
            algorithm,
            n,
            theta_bits,
        }
    }

    /// A well-mixed 64-bit hash of the key, used both for sketch probes
    /// and shard selection (the problem fingerprint dominates the input,
    /// so one problem's variants spread by algorithm/N/θ).
    pub fn mix(&self) -> u64 {
        let mut x = self.problem;
        x ^= (self.algorithm.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= (self.n as u64).rotate_left(17);
        x ^= self.theta_bits.rotate_left(43);
        splitmix64(x)
    }
}

/// SplitMix64 finaliser: cheap, well-distributed, dependency-free.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A cached balance result (piece weights plus derived figures).
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Piece weights of the partition.
    pub pieces: Vec<f64>,
    /// Achieved ratio.
    pub ratio: f64,
    /// Analytic bound reported with the result.
    pub bound: f64,
    /// α used for the bound.
    pub alpha: f64,
    /// Lazily built encoded reply tails, shared by every clone of this
    /// entry (the cache hands out clones; `Arc` keeps one tail set per
    /// cached entry so the first hit pays the encode and the rest
    /// memcpy).
    pub enc: Arc<EncodedTails>,
}

impl CachedResult {
    /// Builds a result with an empty encoded-tail set.
    pub fn new(pieces: Vec<f64>, ratio: f64, bound: f64, alpha: f64) -> Self {
        Self {
            pieces,
            ratio,
            bound,
            alpha,
            enc: Arc::new(EncodedTails::default()),
        }
    }
}

/// The invariant byte tail of an encoded cache-hit reply: everything
/// except the per-request id and measured micros, which the hit path
/// splices in (see `json_hit_reply`/`binary_hit_reply` in `proto`).
#[derive(Debug)]
pub struct ReplyTail {
    /// Pre-encoded bytes.
    pub bytes: Vec<u8>,
    /// Offset where the micros digits are spliced (JSON); equals
    /// `bytes.len()` when nothing is spliced mid-tail (binary).
    pub split: usize,
}

/// Per-`(codec, want_pieces)` slots of lazily built [`ReplyTail`]s.
///
/// Four slots cover the full reply space: the codec picks the byte
/// format, `want_pieces` picks whether the pieces array rides along.
/// `OnceLock` makes the build race-free without a lock on the hit path.
#[derive(Debug, Default)]
pub struct EncodedTails {
    slots: [OnceLock<ReplyTail>; 4],
}

impl EncodedTails {
    fn slot(codec: WireCodec, want_pieces: bool) -> usize {
        codec.index() * 2 + want_pieces as usize
    }

    /// Returns the tail for `(codec, want_pieces)`, building it on first
    /// use.
    pub fn get_or_build(
        &self,
        codec: WireCodec,
        want_pieces: bool,
        build: impl FnOnce() -> ReplyTail,
    ) -> &ReplyTail {
        self.slots[Self::slot(codec, want_pieces)].get_or_init(build)
    }
}

/// Counter snapshot for the stats endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookup hits since start.
    pub hits: u64,
    /// Lookup misses since start.
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
    /// Insertions refused by the TinyLFU admission filter.
    pub admission_rejects: u64,
    /// Current entry count.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (`0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.admission_rejects += other.admission_rejects;
        self.len += other.len;
    }
}

// ---------------------------------------------------------------------------
// TinyLFU admission filter
// ---------------------------------------------------------------------------

/// TinyLFU-style admission filter: doorkeeper bloom + 4-bit count–min
/// sketch with periodic halving.
///
/// The first sighting of a key only sets doorkeeper bits; repeat
/// sightings increment four 4-bit counters selected by independent
/// probes. The frequency estimate is `min(counters) + doorkeeper_bit`,
/// capped at 16. After a sample window of recordings every counter is
/// halved and the doorkeeper cleared, so the sketch tracks *recent*
/// popularity rather than all of history.
#[derive(Debug)]
pub struct TinyLfu {
    /// 4-bit counters, two per byte. Length is a power of two.
    sketch: Vec<u8>,
    /// `counter_count - 1` (power-of-two mask).
    counter_mask: u64,
    /// Doorkeeper bloom bits, packed into words.
    door: Vec<u64>,
    /// `door_bit_count - 1` (power-of-two mask).
    door_mask: u64,
    /// Recordings since the last halving.
    samples: u64,
    /// Halve when `samples` reaches this.
    window: u64,
}

impl TinyLfu {
    /// Sizes the filter for a cache of `capacity` entries. The sketch is
    /// generously sized (≥ 8192 counters) so the sample window — 16×
    /// the counter count — comfortably outlasts a scan orders of
    /// magnitude larger than the cache without decaying the hot set's
    /// counts, and the doorkeeper (8 bits per counter) stays sparse
    /// through such a scan: a saturated doorkeeper would route every
    /// one-hit wonder into the sketch and inflate cold estimates until
    /// they beat the hot set.
    pub fn new(capacity: usize) -> Self {
        let counters = (capacity.max(1) * 16).next_power_of_two().max(8192);
        let door_bits = (counters * 8).next_power_of_two();
        Self {
            sketch: vec![0u8; counters / 2],
            counter_mask: counters as u64 - 1,
            door: vec![0u64; door_bits / 64],
            door_mask: door_bits as u64 - 1,
            samples: 0,
            window: 16 * counters as u64,
        }
    }

    fn probes(hash: u64) -> [u64; 4] {
        // Double hashing: h1 + i·h2 with h2 forced odd.
        let h1 = hash;
        let h2 = splitmix64(hash) | 1;
        [
            h1,
            h1.wrapping_add(h2),
            h1.wrapping_add(h2.wrapping_mul(2)),
            h1.wrapping_add(h2.wrapping_mul(3)),
        ]
    }

    fn door_bits(hash: u64) -> [u64; 2] {
        [hash, hash.rotate_left(21) ^ 0xA5A5_A5A5_A5A5_A5A5]
    }

    fn door_contains(&self, hash: u64) -> bool {
        Self::door_bits(hash).iter().all(|&b| {
            let bit = b & self.door_mask;
            self.door[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    fn door_set(&mut self, hash: u64) {
        for b in Self::door_bits(hash) {
            let bit = b & self.door_mask;
            self.door[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    fn counter(&self, slot: u64) -> u8 {
        let byte = self.sketch[(slot / 2) as usize];
        if slot % 2 == 0 {
            byte & 0x0F
        } else {
            byte >> 4
        }
    }

    fn bump(&mut self, slot: u64) {
        let i = (slot / 2) as usize;
        if slot % 2 == 0 {
            if self.sketch[i] & 0x0F < 0x0F {
                self.sketch[i] += 1;
            }
        } else if self.sketch[i] >> 4 < 0x0F {
            self.sketch[i] += 0x10;
        }
    }

    /// Records one access to the key with the given hash.
    pub fn record(&mut self, hash: u64) {
        if self.door_contains(hash) {
            for p in Self::probes(hash) {
                self.bump(p & self.counter_mask);
            }
        } else {
            self.door_set(hash);
        }
        self.samples += 1;
        if self.samples >= self.window {
            self.halve();
        }
    }

    /// Estimated access frequency of the key (saturates at 16).
    pub fn estimate(&self, hash: u64) -> u32 {
        let sketch_min = Self::probes(hash)
            .iter()
            .map(|&p| self.counter(p & self.counter_mask) as u32)
            .min()
            .unwrap_or(0);
        sketch_min + u32::from(self.door_contains(hash))
    }

    /// Ages the sketch: halve every counter, clear the doorkeeper.
    fn halve(&mut self) {
        for byte in &mut self.sketch {
            // Halve both nibbles in place.
            *byte = (*byte >> 1) & 0x77;
        }
        self.door.fill(0);
        self.samples /= 2;
    }

    /// Recordings since the last halving (diagnostics/tests).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

// ---------------------------------------------------------------------------
// Slab-backed O(1) LRU
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Node {
    key: CacheKey,
    value: CachedResult,
    prev: usize,
    next: usize,
    /// Monotone insertion sequence — a deterministic tiebreak exposed to
    /// tests (the recency list itself is already a total order).
    seq: u64,
}

/// Bounded LRU cache with optional TinyLFU admission and
/// hit/miss/eviction accounting. All operations are `O(1)`.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: HashMap<CacheKey, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used node.
    head: usize,
    /// Least recently used node (eviction victim).
    tail: usize,
    seq: u64,
    admission: Option<TinyLfu>,
    hits: u64,
    misses: u64,
    evictions: u64,
    admission_rejects: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` results, admitting
    /// every insertion (plain LRU). A capacity of `0` disables caching
    /// (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            seq: 0,
            admission: None,
            hits: 0,
            misses: 0,
            evictions: 0,
            admission_rejects: 0,
        }
    }

    /// Creates a cache with a TinyLFU admission filter sized for
    /// `capacity`.
    pub fn with_admission(capacity: usize) -> Self {
        let mut cache = Self::new(capacity);
        if capacity > 0 {
            cache.admission = Some(TinyLfu::new(capacity));
        }
        cache
    }

    /// Whether an admission filter is active.
    pub fn admission_enabled(&self) -> bool {
        self.admission.is_some()
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up a key, refreshing its recency on a hit and recording the
    /// access in the admission sketch.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedResult> {
        if let Some(lfu) = &mut self.admission {
            lfu.record(key.mix());
        }
        match self.map.get(key).copied() {
            Some(idx) => {
                self.unlink(idx);
                self.push_front(idx);
                self.hits += 1;
                Some(self.slab[idx].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks membership without touching recency, stats, or the
    /// admission sketch.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains_key(key)
    }

    /// Looks up a key without touching recency, stats, or the admission
    /// sketch — for a second look at a key whose access was already
    /// counted.
    pub fn peek(&self, key: &CacheKey) -> Option<CachedResult> {
        self.map.get(key).map(|&idx| self.slab[idx].value.clone())
    }

    /// Warm-loads a recovered entry: records one sighting in the
    /// admission sketch (so replayed entries arrive with non-zero
    /// frequency rather than as strangers the filter would reject) and
    /// inserts. Used by store recovery on boot; hit/miss counters are
    /// untouched.
    pub fn warm(&mut self, key: CacheKey, value: CachedResult) {
        if let Some(lfu) = &mut self.admission {
            lfu.record(key.mix());
        }
        self.put(key, value);
    }

    /// Inserts (or refreshes) a result. With admission enabled, a
    /// candidate that would evict a more popular victim is dropped
    /// instead (counted in [`CacheStats::admission_rejects`]).
    pub fn put(&mut self, key: CacheKey, value: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            // Full: ask the admission filter whether the candidate beats
            // the LRU victim. Ties lose — scan resistance.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full cache must have a tail");
            if let Some(lfu) = &self.admission {
                let candidate_freq = lfu.estimate(key.mix());
                let victim_freq = lfu.estimate(self.slab[victim].key.mix());
                if candidate_freq <= victim_freq {
                    self.admission_rejects += 1;
                    return;
                }
            }
            let victim_key = self.slab[victim].key;
            self.unlink(victim);
            self.map.remove(&victim_key);
            self.free.push(victim);
            self.evictions += 1;
        }
        self.seq += 1;
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
            seq: self.seq,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = node;
                idx
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Keys from least to most recently used, with each node's insertion
    /// sequence number. Deterministic: the list order is total and the
    /// sequence numbers provide an explicit insertion-order tiebreak for
    /// tests that compare reorderings.
    pub fn iter_lru(&self) -> impl Iterator<Item = (CacheKey, u64)> + '_ {
        let mut cursor = self.tail;
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let node = &self.slab[cursor];
            cursor = node.prev;
            Some((node.key, node.seq))
        })
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            admission_rejects: self.admission_rejects,
            len: self.map.len(),
            capacity: self.capacity,
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded front
// ---------------------------------------------------------------------------

/// A sharded cache: power-of-two shards selected by fingerprint bits,
/// each an independently locked [`LruCache`]. Lookups for different
/// problems take different locks, so the serving hot path no longer
/// serialises on a single cache mutex.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<LruCache>>,
    mask: u64,
    capacity: usize,
    admission: bool,
}

impl ShardedCache {
    /// Creates `shards` (rounded up to a power of two) shards sharing
    /// `capacity` entries. `capacity == 0` disables caching entirely.
    pub fn new(capacity: usize, shards: usize, admission: bool) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        let shards: Vec<Mutex<LruCache>> = (0..shards)
            .map(|_| {
                Mutex::new(if admission {
                    LruCache::with_admission(per_shard)
                } else {
                    LruCache::new(per_shard)
                })
            })
            .collect();
        Self {
            mask: shards.len() as u64 - 1,
            shards,
            capacity,
            admission,
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<LruCache> {
        &self.shards[(key.mix() & self.mask) as usize]
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether the TinyLFU admission filter is active.
    pub fn admission_enabled(&self) -> bool {
        self.admission
    }

    /// Looks up a key in its shard.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        self.shard(key).lock().get(key)
    }

    /// Inserts a result into the key's shard.
    pub fn put(&self, key: CacheKey, value: CachedResult) {
        self.shard(&key).lock().put(key, value);
    }

    /// Membership probe that leaves recency/stats untouched.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.shard(key).lock().contains(key)
    }

    /// Lookup that leaves recency/stats untouched (see
    /// [`LruCache::peek`]).
    pub fn peek(&self, key: &CacheKey) -> Option<CachedResult> {
        self.shard(key).lock().peek(key)
    }

    /// Warm-loads a recovered entry into its shard (see
    /// [`LruCache::warm`]).
    pub fn warm(&self, key: CacheKey, value: CachedResult) {
        self.shard(&key).lock().warm(key, value);
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counter snapshot (capacity reports the configured
    /// total, not the per-shard rounding).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            capacity: self.capacity,
            ..CacheStats::default()
        };
        for shard in &self.shards {
            total.merge(&shard.lock().stats());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ratio: f64) -> CachedResult {
        CachedResult::new(vec![ratio], ratio, 10.0, 0.25)
    }

    fn key(problem: u64) -> CacheKey {
        CacheKey::new(problem, Algorithm::Ba, 8, 1.0)
    }

    #[test]
    fn hit_after_put_miss_before() {
        let mut c = LruCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.put(key(1), result(1.5));
        let got = c.get(&key(1)).expect("hit");
        assert_eq!(got.ratio, 1.5);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put(key(1), result(1.0));
        c.put(key(2), result(2.0));
        assert!(c.get(&key(1)).is_some()); // 2 is now LRU
        c.put(key(3), result(3.0)); // evicts 2
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn theta_only_keys_bahf() {
        let a = CacheKey::new(9, Algorithm::Hf, 4, 1.0);
        let b = CacheKey::new(9, Algorithm::Hf, 4, 2.0);
        assert_eq!(a, b);
        let c = CacheKey::new(9, Algorithm::BaHf, 4, 1.0);
        let d = CacheKey::new(9, Algorithm::BaHf, 4, 2.0);
        assert_ne!(c, d);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.put(key(1), result(1.0));
        assert!(c.get(&key(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = LruCache::new(2);
        c.put(key(1), result(1.0));
        c.put(key(1), result(1.5));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(1)).unwrap().ratio, 1.5);
    }

    #[test]
    fn recency_list_order_is_deterministic() {
        let mut c = LruCache::new(4);
        for p in 1..=4 {
            c.put(key(p), result(p as f64));
        }
        // LRU→MRU is insertion order before any touch...
        let order: Vec<u64> = c.iter_lru().map(|(k, _)| k.problem).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        // ...touching 2 moves it to the MRU end, everything else keeps
        // its relative (insertion) order.
        c.get(&key(2));
        let order: Vec<u64> = c.iter_lru().map(|(k, _)| k.problem).collect();
        assert_eq!(order, vec![1, 3, 4, 2]);
        // Sequence numbers expose insertion order as the tiebreak.
        let seqs: Vec<u64> = c.iter_lru().map(|(_, seq)| seq).collect();
        assert_eq!(seqs, vec![1, 3, 4, 2]);
    }

    #[test]
    fn slab_reuses_slots_after_eviction() {
        let mut c = LruCache::new(2);
        for p in 1..=100 {
            c.put(key(p), result(1.0));
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 98);
        // The slab never grows beyond capacity: slots are recycled.
        assert!(c.slab.len() <= 2);
    }

    #[test]
    fn admission_rejects_one_hit_wonders() {
        let mut c = LruCache::with_admission(4);
        // Warm a hot set of 4 keys with several touches each.
        for _ in 0..5 {
            for p in 1..=4 {
                if c.get(&key(p)).is_none() {
                    c.put(key(p), result(1.0));
                }
            }
        }
        assert_eq!(c.len(), 4);
        // A one-pass scan of cold keys cannot displace the hot set.
        for p in 100..600 {
            if c.get(&key(p)).is_none() {
                c.put(key(p), result(1.0));
            }
        }
        for p in 1..=4 {
            assert!(c.contains(&key(p)), "hot key {p} was evicted by a scan");
        }
        assert!(c.stats().admission_rejects > 0);
    }

    #[test]
    fn admission_off_preserves_plain_lru() {
        let mut c = LruCache::new(4);
        for _ in 0..5 {
            for p in 1..=4 {
                if c.get(&key(p)).is_none() {
                    c.put(key(p), result(1.0));
                }
            }
        }
        for p in 100..110 {
            if c.get(&key(p)).is_none() {
                c.put(key(p), result(1.0));
            }
        }
        // Plain LRU: the scan flushed everything; the cache holds the
        // last 4 scanned keys.
        for p in 1..=4 {
            assert!(!c.contains(&key(p)));
        }
        for p in 106..110 {
            assert!(c.contains(&key(p)));
        }
        assert_eq!(c.stats().admission_rejects, 0);
    }

    #[test]
    fn tinylfu_estimates_grow_and_halve() {
        let mut lfu = TinyLfu::new(64);
        let h = key(7).mix();
        assert_eq!(lfu.estimate(h), 0);
        lfu.record(h); // doorkeeper
        assert_eq!(lfu.estimate(h), 1);
        for _ in 0..5 {
            lfu.record(h); // sketch
        }
        assert!(lfu.estimate(h) >= 5);
        let before = lfu.estimate(h);
        lfu.halve();
        let after = lfu.estimate(h);
        assert!(after < before, "halving must decay estimates");
    }

    #[test]
    fn sharded_cache_spreads_and_aggregates() {
        let c = ShardedCache::new(64, 8, false);
        assert_eq!(c.shard_count(), 8);
        for p in 0..32 {
            c.put(key(p), result(p as f64));
        }
        assert_eq!(c.len(), 32);
        for p in 0..32 {
            assert_eq!(c.get(&key(p)).unwrap().ratio, p as f64);
        }
        let s = c.stats();
        assert_eq!(s.hits, 32);
        assert_eq!(s.len, 32);
        assert_eq!(s.capacity, 64);
        // Keys actually landed on more than one shard.
        let populated = c.shards.iter().filter(|s| !s.lock().is_empty()).count();
        assert!(populated > 1, "all keys fell on one shard");
    }

    #[test]
    fn sharded_zero_capacity_disables_caching() {
        let c = ShardedCache::new(0, 4, true);
        c.put(key(1), result(1.0));
        assert!(c.get(&key(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedCache::new(64, 3, false).shard_count(), 4);
        assert_eq!(ShardedCache::new(64, 1, false).shard_count(), 1);
        assert_eq!(ShardedCache::new(64, 0, false).shard_count(), 1);
    }
}
