//! The one hasher behind every in-process hash table.
//!
//! Every key hashed here — interned ids ([`ConstId`](crate::ConstId),
//! [`Symbol`](crate::Symbol), chase elements, packed join keys), names from
//! the deployment's DDL and [`Value`](crate::Value)s read from its own
//! stores — comes from inside the process, so std's keyed SipHash buys no
//! protection and costs a few dozen cycles per key. (The plan cache also
//! hashes request text; its entries keep and compare the full key, so two
//! colliding requests can only evict each other.)
//!
//! [`FastHasher`] is the word-at-a-time multiply of rustc-hash 2: each word
//! `w` makes `h = (h + w) * K`, bytes are folded in 8-byte words after
//! their length, and [`Hasher::finish`] returns `h` rotated left by 26. The
//! rotate is what spreads the keys: hashbrown picks a bucket from the low
//! bits, and the low bits of a product depend only on the low bits of its
//! factors, so without it keys that differ only in their high bits
//! (`a << 32 | b`) would share one bucket.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of rustc-hash 2.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A non-keyed multiply-rotate hasher for in-process keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.add(u64::from_le_bytes(w));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// What builds a [`FastHasher`]: the hasher of every table below and of
/// the kernel's `Distinct`.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed by [`FastHasher`]; build it with `default()`.
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A `HashSet` hashed by [`FastHasher`]; build it with `default()`.
pub type FastSet<K> = HashSet<K, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstId, Symbol, Value};
    use std::hash::{BuildHasher, Hash};

    /// Distinct buckets that `keys` reach in the 8 192-bucket table
    /// hashbrown allocates for 4 096 keys (at most 7/8 full): the low 13
    /// bits of the hash.
    fn buckets<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let build = BuildHasherDefault::<FastHasher>::default();
        let low: FastSet<u64> = keys.map(|k| build.hash_one(k) & 0x1fff).collect();
        low.len()
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_the_low_bits() {
        // Without the rotate in `finish` the first two sets reach 1 bucket.
        let packed = buckets((0..4096u64).map(|a| (a << 32) | 7));
        let ints = buckets((0..4096i64).map(|i| Value::Int(i << 32)));
        let consts = buckets((0..4096i64).map(|i| ConstId::intern(&Value::Int(i))));
        let symbols = buckets((0..4096).map(|i| Symbol::intern(&format!("spread_{i}"))));
        for (set, reached) in [
            ("packed", packed),
            ("ints", ints),
            ("consts", consts),
            ("symbols", symbols),
        ] {
            assert!(reached >= 2048, "{set}: 4096 keys in {reached} buckets");
        }
    }

    #[test]
    fn byte_strings_are_prefix_free() {
        let build = BuildHasherDefault::<FastHasher>::default();
        let hash = |b: &[u8]| {
            let mut h = build.build_hasher();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        assert_ne!(hash(b""), hash(b"\0"));
        assert_ne!(hash(b"12345678"), hash(b"123456789"));
    }
}
