//! A cheap hasher for the memory model's `u64`-keyed maps.
//!
//! The page table, the TLBs and the perfect-I-cache store are looked up on
//! every simulated fetch, load and store, with keys (page and line
//! numbers) the simulator itself produces, so the DoS resistance of the
//! standard SipHash buys nothing. A folded 64×64→128-bit multiply mixes
//! every key bit into both halves of the hash in a few cycles. No caller
//! iterates these maps, so the hasher cannot change any simulated output.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-generated integers.
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` of simulator-generated integers.
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Folded-multiply hasher (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FastHasher(u64);

const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        let product = (self.0 as u128).wrapping_mul(MULTIPLIER as u128);
        (product as u64) ^ ((product >> 64) as u64)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0.rotate_left(8) ^ byte as u64).wrapping_mul(MULTIPLIER);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 ^= value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_sparse_and_dense_keys() {
        let mut map = FastMap::default();
        for k in 1..1000u64 {
            map.insert(k << 40, k);
            map.insert(k, k + 1);
        }
        assert_eq!(map.len(), 2 * 999);
        for k in 1..1000u64 {
            assert_eq!(map.get(&(k << 40)), Some(&k));
            assert_eq!(map.get(&k), Some(&(k + 1)));
        }
    }

    #[test]
    fn nearby_keys_hash_apart() {
        let h = |k: u64| {
            let mut s = FastHasher::default();
            s.write_u64(k);
            s.finish()
        };
        assert_ne!(h(1), h(2));
        // Keys differing only in high bits still differ in the low bits a
        // hash table indexes by.
        assert_ne!(h(1 << 40) & 0xfff, h(2 << 40) & 0xfff);
    }
}
