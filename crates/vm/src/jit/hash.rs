//! The one hasher behind every JIT map and set.
//!
//! The compiler's tables are keyed by registers, block ids, bytecode pcs,
//! value-numbering keys and translation-validation value nodes, and the
//! code caches by method, tier and content digests: a few machine words
//! each, built by the VM itself rather than by an adversary. SipHash, the
//! standard library's default, pays per-map random keys and several
//! rounds per word for flooding resistance these tables do not need.
//! [`WordHasher`] folds each written word into one 64-bit state with a
//! rotate, an xor and a multiply (the construction rustc's own
//! `FxHasher` uses).
//!
//! Map hashing never reaches a digest. The JIT only looks keys up, inserts
//! them, filters maps with `retain` and asks order-free questions (`any`
//! over the installed code's keys); no map or set is iterated in an order
//! that reaches IR, a verifier or TV report, or a campaign digest.
//! Swapping the hasher therefore changes nothing but speed, which
//! `tests/jit_compile_pins.rs` and `tests/tv_report_pins.rs` pin.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A word-at-a-time hasher for small compiler-built keys (see the module
/// docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher {
    hash: u64,
}

/// An odd multiplier with well-spread bits (FxHash's 64-bit seed).
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed by [`WordHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A `HashSet` hashed by [`WordHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{Hash, Hasher};

    use super::*;

    fn hash_of(value: impl Hash) -> u64 {
        let mut h = WordHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of((3u32, 7u64)), hash_of((3u32, 7u64)));
        assert_ne!(hash_of(1u32), hash_of(2u32));
        // Byte slices fold in the tail word, so a trailing byte counts.
        assert_ne!(hash_of(&b"abcdefgh"[..]), hash_of(&b"abcdefghi"[..]));
    }

    #[test]
    fn maps_behave_like_the_default_hasher() {
        let mut map: FastMap<u32, u32> = FastMap::default();
        for r in 0..1000 {
            map.insert(r, r * 2);
        }
        map.retain(|&k, _| k % 3 != 0);
        assert_eq!(map.len(), 666);
        assert_eq!(map.get(&10), Some(&20));
        assert_eq!(map.get(&9), None);
    }
}
