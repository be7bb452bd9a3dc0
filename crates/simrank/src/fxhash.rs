//! A minimal Fx-style hasher for the hot push loops.
//!
//! The seed-decomposed LocalPush ([`crate::LocalPush::run_decomposed`])
//! spends most of its time in hash-map probes keyed by node-pair
//! identifiers. The standard library's
//! SipHash is collision-resistant but an order of magnitude slower than
//! needed for trusted integer keys, so this module provides the classic
//! "Fx" multiply-rotate hash used by the Rust compiler: one wrapping
//! multiplication and one rotate per 8-byte word. It is *not* DoS-resistant
//! and must only be used for keys derived from graph node identifiers, never
//! for externally controlled strings.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the FxHash scheme (64-bit golden-ratio prime).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state: a single 64-bit accumulator.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path: fold the input 8 bytes at a time. The hot callers
        // below all hit the fixed-width integer fast paths instead.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_to_hash(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_to_hash(value as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`] instances.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast Fx hash (integer keys only).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast Fx hash (integer keys only).
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Packs an ordered node pair into a single 64-bit map key.
#[inline]
pub fn pair_key(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Recovers the ordered node pair from a packed [`pair_key`].
#[inline]
pub fn unpack_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn pair_key_round_trips() {
        for &(u, v) in &[
            (0, 0),
            (1, 2),
            (u32::MAX, 0),
            (0, u32::MAX),
            (123_456, 789_012),
        ] {
            assert_eq!(unpack_pair(pair_key(u, v)), (u, v));
        }
    }

    #[test]
    fn pair_key_is_injective_on_distinct_pairs() {
        let pairs = [(0u32, 1u32), (1, 0), (2, 3), (3, 2), (7, 7)];
        let mut keys: Vec<u64> = pairs.iter().map(|&(u, v)| pair_key(u, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), pairs.len());
    }

    #[test]
    fn hasher_is_deterministic() {
        let build = FxBuildHasher::default();
        let a = build.hash_one(pair_key(3, 4));
        let b = build.hash_one(pair_key(3, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn hasher_separates_nearby_keys() {
        let build = FxBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for u in 0u32..64 {
            for v in 0u32..64 {
                seen.insert(build.hash_one(pair_key(u, v)));
            }
        }
        // All 4096 nearby keys hash to distinct values (no catastrophic
        // clustering for the dense low-integer range LocalPush uses).
        assert_eq!(seen.len(), 64 * 64);
    }

    #[test]
    fn map_and_set_aliases_behave_like_std() {
        let mut map: FxHashMap<u64, f32> = FxHashMap::default();
        map.insert(pair_key(1, 2), 0.5);
        *map.entry(pair_key(1, 2)).or_insert(0.0) += 0.25;
        assert!((map[&pair_key(1, 2)] - 0.75).abs() < 1e-6);

        let mut set: FxHashSet<u32> = FxHashSet::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
    }

    #[test]
    fn generic_write_path_handles_unaligned_lengths() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let tail = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(tail, h2.finish());
        let mut h3 = FxHasher::default();
        h3.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]);
        assert_ne!(tail, h3.finish());
    }
}
