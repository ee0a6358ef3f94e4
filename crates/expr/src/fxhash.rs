//! An unseeded multiply-rotate hasher for the analysis tables.
//!
//! The solver's memos and the explorer's symbol memos and per-run maps
//! hash small integer and short string keys
//! many thousands of times per exploration, and every one of those keys is
//! made by the program itself. std's seeded SipHash defends a `HashMap`
//! against keys an adversary picks; these tables have no such keys, so
//! they use [`FxHasher`]: the rustc hasher's shape (per word: rotate,
//! xor, multiply) plus a final xor-shift that folds the product's
//! well-mixed high half into the low bits a table indexes with. Keys that
//! arrive from a socket or a file — everything `bolt_serve` and
//! `bolt_store` hash — keep std's seeded hasher.
//!
//! Unseeded means the same key hashes the same in every process, as
//! `DefaultHasher::new()`'s fixed keys did before. No result may depend
//! on a map's iteration order either way.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`]. Build one with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Odd multiplier of the per-word step (rustc's `FxHasher` constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fast, unseeded hasher for keys the program makes itself (see the
/// module docs for where it must not be used).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
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
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves a word's low bits depending only on the low
    /// bits below them; the xor-shift brings the high half down so that
    /// `hash & mask` sees every input bit.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn unseeded_and_content_sensitive() {
        assert_eq!(hash_of("pkt@12:2"), hash_of("pkt@12:2"));
        assert_ne!(hash_of("pkt@12:2"), hash_of("pkt@12:4"));
        assert_ne!(hash_of((1u64, 2u8)), hash_of((2u64, 1u8)));
        // A tail shorter than a word still counts.
        assert_ne!(hash_of([1u8; 9].as_slice()), hash_of([1u8; 8].as_slice()));
    }

    #[test]
    fn the_map_alias_works_like_a_map() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("sym{i}"), i);
        }
        assert!((0..1000).all(|i| m[&format!("sym{i}")] == i));
    }
}
