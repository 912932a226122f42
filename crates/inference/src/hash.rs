//! A small, fast, non-cryptographic hasher for the engine's internal
//! maps (the Fx multiply-rotate scheme used by rustc).
//!
//! SipHash's per-call cost dominates the short keys the engine hashes —
//! template names, fact ids, value keys, slot fingerprints. Its
//! flooding resistance buys little here: some keys do derive from
//! reports (a process name in a `pid` slot), but every value-keyed map
//! holds only *live* facts and every hit is re-verified against the
//! fact, so crafted collisions can at worst make a lookup walk the
//! template's live facts — the alpha-memory scan the indexes replace.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx hasher state.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fx<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = FxHasher::default();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn distinguishes_short_and_long_keys() {
        assert_eq!(fx("violation"), fx("violation"));
        assert_ne!(fx("violation"), fx("violatioN"));
        assert_ne!(fx("a"), fx("a\0"), "zero padding is length-delimited");
        assert_ne!(fx(&1u64), fx(&2u64));
    }
}
