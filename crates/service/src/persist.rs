//! Codec between the typed cache entries and the byte records `gb-store`
//! persists.
//!
//! The store is byte-oriented on purpose: this module owns the mapping,
//! so the wire cache types and the on-disk layout can evolve
//! independently. Both encodings are fixed-layout little-endian:
//!
//! ```text
//! key   (25 bytes) = problem u64 | algorithm u8 | n u64 | theta_bits u64
//! value            = ratio f64 | bound f64 | alpha f64
//!                    | piece_count u32 | pieces f64*
//! ```
//!
//! `CacheKey::problem` is a [`gb_core::fingerprint`] FNV-1a digest —
//! process-stable by construction — so a persisted key still names the
//! same problem after a restart. Decoding is total: any length or
//! algorithm-tag mismatch yields `None` (counted by the caller as
//! corruption), never a panic or a wrong entry.

use crate::cache::{CacheKey, CachedResult};
use crate::proto::Algorithm;

/// Encoded [`CacheKey`] length.
const KEY_LEN: usize = 25;

/// Fixed prefix of an encoded [`CachedResult`] before the pieces.
const VALUE_FIXED: usize = 8 + 8 + 8 + 4;

/// Encodes a cache key as a store record key.
pub fn encode_key(key: &CacheKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(KEY_LEN);
    out.extend_from_slice(&key.problem.to_le_bytes());
    out.push(key.algorithm.index() as u8);
    out.extend_from_slice(&(key.n as u64).to_le_bytes());
    out.extend_from_slice(&key.theta_bits.to_le_bytes());
    out
}

/// Decodes a store record key; `None` on any layout mismatch.
pub fn decode_key(bytes: &[u8]) -> Option<CacheKey> {
    if bytes.len() != KEY_LEN {
        return None;
    }
    let problem = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    let algorithm = *Algorithm::ALL.get(bytes[8] as usize)?;
    let n = usize::try_from(u64::from_le_bytes(bytes[9..17].try_into().ok()?)).ok()?;
    let theta_bits = u64::from_le_bytes(bytes[17..25].try_into().ok()?);
    Some(CacheKey {
        problem,
        algorithm,
        n,
        theta_bits,
    })
}

/// Encodes a cached result as a store record value.
pub fn encode_value(value: &CachedResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(VALUE_FIXED + 8 * value.pieces.len());
    out.extend_from_slice(&value.ratio.to_bits().to_le_bytes());
    out.extend_from_slice(&value.bound.to_bits().to_le_bytes());
    out.extend_from_slice(&value.alpha.to_bits().to_le_bytes());
    out.extend_from_slice(&(value.pieces.len() as u32).to_le_bytes());
    for &piece in &value.pieces {
        out.extend_from_slice(&piece.to_bits().to_le_bytes());
    }
    out
}

/// Decodes a store record value; `None` on any layout mismatch.
pub fn decode_value(bytes: &[u8]) -> Option<CachedResult> {
    if bytes.len() < VALUE_FIXED {
        return None;
    }
    let f64_at = |at: usize| -> Option<f64> {
        Some(f64::from_bits(u64::from_le_bytes(
            bytes[at..at + 8].try_into().ok()?,
        )))
    };
    let ratio = f64_at(0)?;
    let bound = f64_at(8)?;
    let alpha = f64_at(16)?;
    let count = u32::from_le_bytes(bytes[24..28].try_into().ok()?) as usize;
    if bytes.len() != VALUE_FIXED + 8 * count {
        return None;
    }
    let mut pieces = Vec::with_capacity(count);
    for i in 0..count {
        pieces.push(f64_at(VALUE_FIXED + 8 * i)?);
    }
    Some(CachedResult::new(pieces, ratio, bound, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_key() -> CacheKey {
        CacheKey::new(0xDEAD_BEEF_CAFE_F00D, Algorithm::BaHf, 12, 1.5)
    }

    fn sample_value() -> CachedResult {
        CachedResult::new(vec![1.0, 2.5, 0.125, 3.75], 1.4, 2.0, 0.25)
    }

    #[test]
    fn key_round_trips_for_every_algorithm() {
        for algorithm in Algorithm::ALL {
            let key = CacheKey::new(42, algorithm, 7, 2.0);
            let decoded = decode_key(&encode_key(&key)).expect("decode");
            assert_eq!(decoded, key);
        }
    }

    #[test]
    fn value_round_trips() {
        let value = sample_value();
        let decoded = decode_value(&encode_value(&value)).expect("decode");
        assert_eq!(decoded.pieces, value.pieces);
        assert_eq!(decoded.ratio, value.ratio);
        assert_eq!(decoded.bound, value.bound);
        assert_eq!(decoded.alpha, value.alpha);
    }

    #[test]
    fn empty_pieces_round_trip() {
        let value = CachedResult::new(vec![], 1.0, 1.0, 0.5);
        let decoded = decode_value(&encode_value(&value)).expect("decode");
        assert!(decoded.pieces.is_empty());
    }

    #[test]
    fn malformed_bytes_decode_to_none_never_panic() {
        assert_eq!(decode_key(b"short"), None);
        assert_eq!(decode_key(&[0u8; 26]), None);
        let mut bad_algo = encode_key(&sample_key());
        bad_algo[8] = 200;
        assert_eq!(decode_key(&bad_algo), None);

        assert!(decode_value(b"short").is_none());
        let mut bad_count = encode_value(&sample_value());
        bad_count[24] = 0xFF; // claims far more pieces than present
        assert!(decode_value(&bad_count).is_none());
        let truncated = encode_value(&sample_value());
        assert!(decode_value(&truncated[..truncated.len() - 3]).is_none());
    }
}
