//! One deterministic hasher for the controllers' coordinate-keyed maps.
//!
//! Policy, stated once for every map that uses it: the keys are simulator
//! coordinates — bucket indices, `(bucket, slot)` pairs, block addresses —
//! never attacker-chosen input, so SipHash's flooding resistance buys
//! nothing while its cost sits on the access hot path. No output depends
//! on map order: lookups are order-free, and every walk whose order could
//! reach a report, digest or placement decision either sorts first or
//! follows a deterministic sequence (path order, slot order) instead.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic multiply-rotate [`Hasher`] over simulator coordinates.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CoordHasher(u64);

impl Hasher for CoordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; rotate the well-mixed high bits into
        // the low bits that pick the table position.
        self.0.rotate_left(26)
    }
}

/// The [`std::hash::BuildHasher`] of [`CoordMap`] and [`CoordSet`].
pub(crate) type CoordBuild = BuildHasherDefault<CoordHasher>;

/// A `HashMap` keyed by simulator coordinates, hashed with [`CoordHasher`].
pub(crate) type CoordMap<K, V> = HashMap<K, V, CoordBuild>;

/// A `HashSet` of simulator coordinates, hashed with [`CoordHasher`].
pub(crate) type CoordSet<K> = HashSet<K, CoordBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashing_is_a_pure_function_of_the_key() {
        let a = CoordBuild::default();
        let b = CoordBuild::default();
        for key in [(0u64, 0usize), (7, 3), (1 << 40, 1)] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_ne!(a.hash_one(1u64), a.hash_one(2u64));
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: CoordMap<(u64, usize), u64> = CoordMap::default();
        let mut s: CoordSet<u64> = CoordSet::default();
        for i in 0..1000u64 {
            m.insert((i, (i % 4) as usize), i * 3);
            s.insert(i / 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(s.len(), 500);
        assert_eq!(m.get(&(999, 3)), Some(&2997));
        assert!(s.contains(&499) && !s.contains(&500));
    }
}
