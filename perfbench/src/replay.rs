//! Per-layer attribution by replay: after the traced load phase, the
//! benchmark walks the same requests through each server layer's public
//! functions, in the order `gb-serve` calls them, with a span around
//! every call. The replay runs on an idle box, so a layer's span is its
//! own cost; what the server reported beyond the replay is waiting.

use gb_parlb::ThreadPool;
use gb_service::cache::{CacheKey, CachedResult, ReplyTail};
use gb_service::proto::{self, Algorithm, BalanceResponse, Codec, Request, Response, WireCodec};
use gb_service::route::{FailoverRing, Router, DEFAULT_VNODES};
use gb_service::{persist, ShardedCache};
use gb_store::{Store, StoreConfig};

use crate::gen::Key;
use crate::trace::{Tracer, ROOT};

/// gb-serve clamps α into `[MIN_ALPHA, 0.5]` before computing a bound.
const MIN_ALPHA: f64 = 1e-3;

/// The in-process stand-ins for one server fleet's state.
pub struct Replayer {
    codec: WireCodec,
    /// The router tier's ring, for the proxied workload.
    ring: Option<FailoverRing>,
    /// Each gb-serve's own (single-backend) ring.
    backend_ring: Router,
    caches: Vec<ShardedCache>,
    pool: ThreadPool,
    store: Option<Store>,
}

/// What the server answered for one replayed request.
pub struct Served {
    pub key: Key,
    pub id: u64,
    pub ratio: f64,
    pub bound: f64,
    pub micros: u64,
}

/// Totals over one replay pass.
#[derive(Debug, Default)]
pub struct ReplayOut {
    pub requests: u64,
    /// Replayed `ratio > bound` count.
    pub violations: u64,
    /// Requests whose replayed ratio or bound differs from the server's.
    pub mismatches: u64,
    /// Sum over requests of the replayed layer time, in ns.
    pub covered_ns: u64,
    /// Sum over requests of the server-reported micros.
    pub server_us: u64,
    /// Per request: server micros minus replayed layer time, in µs.
    pub queue_wait_us: Vec<f64>,
}

impl Replayer {
    /// `upstreams` caches of `capacity` entries each (the server default
    /// shard count and admission), and a store in `store_dir` when the
    /// workload persists.
    pub fn new(
        codec: WireCodec,
        upstreams: usize,
        capacity: usize,
        store_dir: Option<&std::path::Path>,
    ) -> Result<Replayer, String> {
        let store = match store_dir {
            Some(dir) => Some(
                Store::open(StoreConfig::new(dir))
                    .map_err(|e| format!("opening replay store: {e}"))?
                    .0,
            ),
            None => None,
        };
        Ok(Replayer {
            codec,
            ring: (upstreams > 1).then(|| FailoverRing::new(upstreams, DEFAULT_VNODES)),
            backend_ring: Router::new(1, DEFAULT_VNODES),
            caches: (0..upstreams)
                .map(|_| ShardedCache::new(capacity, 0, true))
                .collect(),
            pool: ThreadPool::new(2),
            store,
        })
    }

    /// Serves `key` untimed, bringing the caches to the state the
    /// servers reached in set-up; returns the (ratio, bound) it arrives at.
    pub fn warm(&mut self, key: &Key) -> Result<(f64, f64), String> {
        let mut scratch = Tracer::new(std::time::Instant::now());
        self.serve(key, 0, &mut scratch)
    }

    /// Replays `served` in order under `tracer`, one `server.replay`
    /// root span per request.
    pub fn replay(&mut self, served: &[Served], tracer: &mut Tracer) -> Result<ReplayOut, String> {
        let mut out = ReplayOut::default();
        for s in served {
            let root = tracer.spans.len();
            let (ratio, bound) = self.serve(&s.key, s.id, tracer)?;
            // Layer spans run one after another under the root, so their
            // durations add up to the replayed time without overlap.
            let layers_ns: u64 = tracer.spans[root + 1..]
                .iter()
                .filter(|span| span.parent == root as u32)
                .map(|span| span.end_ns - span.start_ns)
                .sum();
            out.requests += 1;
            out.violations += u64::from(ratio > bound);
            out.mismatches += u64::from(ratio != s.ratio || bound != s.bound);
            out.covered_ns += layers_ns;
            out.server_us += s.micros;
            out.queue_wait_us
                .push((s.micros as f64 - layers_ns as f64 / 1e3).max(0.0));
        }
        Ok(out)
    }

    /// One request through decode, fingerprint, routing, the cache and,
    /// on a miss, build, α, solve, bound, cache put, store append and
    /// encode; returns the (ratio, bound) it arrives at.
    fn serve(&mut self, key: &Key, id: u64, t: &mut Tracer) -> Result<(f64, f64), String> {
        let root = t.begin("server.replay", ROOT, id);
        let mut frame = Vec::new();
        self.codec.encode_request(&key.request(id), &mut frame);
        let payload = match self.codec {
            WireCodec::Json => &frame[..frame.len() - 1],
            WireCodec::Binary => &frame[proto::BIN_HDR..],
        };
        let codec = self.codec;
        let req = match t.time("proto.decode_request", root, id, || {
            codec.decode_request(payload)
        }) {
            Ok(Request::Balance(req)) => req,
            other => return Err(format!("replay decoded {other:?}")),
        };
        let cache_key = t.time("spec.fingerprint", root, id, || {
            CacheKey::new(req.problem.fingerprint(), req.algorithm, req.n, req.theta)
        });
        let mix = cache_key.mix();
        let (ring, backend_ring) = (&self.ring, &self.backend_ring);
        let upstream = t.time("route.vnode_of", root, id, || {
            let upstream = ring.as_ref().map_or(0, |r| {
                r.vnode_of(mix);
                r.route(mix).unwrap_or(0)
            });
            backend_ring.vnode_of(mix);
            upstream as usize
        });
        let cache = &self.caches[upstream];
        let mut reply = Vec::new();
        if let Some(hit) = t.time("cache.get", root, id, || cache.get(&cache_key)) {
            t.time("proto.hit_reply", root, id, || {
                hit_reply(codec, key, &hit, id, &mut reply)
            });
            t.end(root);
            return Ok((hit.ratio, hit.bound));
        }
        let problem = t.time("spec.build", root, id, || req.problem.build());
        let alpha = t.time("alpha.estimate", root, id, || {
            req.problem
                .alpha_hint()
                .or_else(|| problem.analytic_alpha())
                .or_else(|| gb_problems::empirical_alpha(&problem, req.n))
                .unwrap_or(0.25)
                .clamp(MIN_ALPHA, 0.5)
        });
        let (n, theta, pool) = (req.n, req.theta, &self.pool);
        let solve_span = match req.algorithm {
            Algorithm::Hf => "solve.hf",
            Algorithm::Ba => "solve.ba",
            Algorithm::BaHf => "solve.bahf",
            Algorithm::Phf => "solve.phf",
        };
        let partition = t.time(solve_span, root, id, || match req.algorithm {
            Algorithm::Hf => gb_core::hf::hf(problem, n),
            Algorithm::Ba => gb_parlb::par_ba(pool, problem, n),
            Algorithm::BaHf => gb_parlb::par_ba_hf(pool, problem, n, alpha, theta),
            Algorithm::Phf => gb_parlb::par_phf(pool, problem, n, alpha),
        });
        let bound = t.time("bounds.bound", root, id, || match req.algorithm {
            Algorithm::Hf | Algorithm::Phf => gb_core::hf_upper_bound(alpha, n),
            Algorithm::Ba => gb_core::ba_upper_bound(alpha, n),
            Algorithm::BaHf => gb_core::bahf_upper_bound(alpha, theta, n),
        });
        let ratio = partition.ratio();
        let result = CachedResult::new(partition.sorted_weights(), ratio, bound, alpha);
        t.time("cache.put", root, id, || {
            cache.put(cache_key, result.clone())
        });
        if let Some(store) = self.store.as_mut() {
            t.time("store.append", root, id, || {
                store.append(
                    &persist::encode_key(&cache_key),
                    &persist::encode_value(&result),
                )
            })
            .map_err(|e| format!("replay store append: {e}"))?;
        }
        t.time("proto.encode_response", root, id, || {
            codec.encode_response(
                &Response::Ok(BalanceResponse {
                    id: Some(id),
                    algorithm: req.algorithm,
                    n,
                    ratio,
                    bound,
                    alpha,
                    cached: false,
                    micros: 0,
                    pieces: if req.want_pieces {
                        result.pieces.clone()
                    } else {
                        Vec::new()
                    },
                }),
                &mut reply,
            )
        });
        t.end(root);
        Ok((ratio, bound))
    }
}

/// A cached-hit reply as the server's fast path builds it: the encoded
/// tail, built once per entry, with the per-request head spliced on.
fn hit_reply(codec: WireCodec, key: &Key, hit: &CachedResult, id: u64, out: &mut Vec<u8>) {
    let pieces: &[f64] = if key.want_pieces { &hit.pieces } else { &[] };
    let tail = hit
        .enc
        .get_or_build(codec, key.want_pieces, || match codec {
            WireCodec::Json => {
                let (bytes, split) = proto::json_ok_tail(
                    key.algorithm,
                    key.n,
                    hit.ratio,
                    hit.bound,
                    hit.alpha,
                    pieces,
                );
                ReplyTail { bytes, split }
            }
            WireCodec::Binary => {
                let mut bytes = Vec::new();
                proto::binary_ok_tail(
                    key.algorithm,
                    key.n,
                    hit.ratio,
                    hit.bound,
                    hit.alpha,
                    pieces,
                    &mut bytes,
                );
                let split = bytes.len();
                ReplyTail { bytes, split }
            }
        });
    match codec {
        WireCodec::Json => proto::json_hit_reply(out, Some(id), 0, &tail.bytes, tail.split),
        WireCodec::Binary => proto::binary_hit_reply(out, Some(id), 0, &tail.bytes),
    }
}
