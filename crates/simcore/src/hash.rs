//! A deterministic, fast hasher for integer keys on the event hot path.
//!
//! The ready queue's key map hashes small `u64` identifiers (job keys)
//! on every keyed push and removal. The standard library's default
//! SipHash is keyed for HashDoS resistance, which such internal,
//! non-adversarial maps do not need — and its per-lookup cost is
//! measurable at millions of events per second.
//!
//! [`FastHasher`] instead runs the written words through the splitmix64
//! finalizer (Steele, Lea & Flood's `mix` constants), a full-avalanche
//! bijection on `u64`. Two properties matter here:
//!
//! * **determinism** — there is no random key, so a given build hashes a
//!   given value identically in every run and every thread. Nothing in
//!   the simulator iterates these maps (order never leaks into results),
//!   but determinism still keeps memory layout and rehash points
//!   reproducible run-to-run, which keeps benchmarks honest;
//! * **avalanche** — job keys are consecutive integers; the
//!   finalizer spreads them uniformly across buckets, so the quadratic
//!   blow-ups that plague identity-hash maps with stride patterns cannot
//!   occur.

use std::hash::{BuildHasherDefault, Hasher};

/// Hash state for [`FastHasher`]: accumulated, mixed words.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

/// `BuildHasher` plugging [`FastHasher`] into `HashMap`/`HashSet`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed by trusted integer ids, hashed with [`FastHasher`].
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// The splitmix64 finalizer: a bijective full-avalanche mix on `u64`.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (str keys, odd widths): fold 8-byte words.
        // The integer fast paths below are the ones the simulator hits.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold in the tail length so "ab" and "ab\0" differ.
            self.write_u64(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = mix(self.0 ^ i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(v: u64) -> u64 {
        let mut h = FastBuildHasher::default().build_hasher();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        // No random state: two independently built hashers agree.
        for v in [0, 1, 42, u64::MAX] {
            assert_eq!(hash_of(v), hash_of(v));
        }
    }

    #[test]
    fn consecutive_ids_spread() {
        // Sequence numbers are consecutive; their hashes must not be.
        // Check that low bits (bucket index bits) vary.
        let mask = 0xff;
        let buckets: std::collections::HashSet<u64> =
            (0..256u64).map(|v| hash_of(v) & mask).collect();
        assert!(
            buckets.len() > 150,
            "256 consecutive keys fell into only {} of 256 low-byte buckets",
            buckets.len()
        );
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FastHashMap<u64, &str> = FastHashMap::default();
        m.insert(3, "three");
        m.insert(u64::MAX, "max");
        assert_eq!(m.get(&3), Some(&"three"));
        assert_eq!(m.remove(&u64::MAX), Some("max"));
    }

    #[test]
    fn generic_write_distinguishes_tails() {
        let h = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
    }

    #[test]
    fn mix_is_splitmix64_finalizer() {
        // Golden values from the splitmix64 reference sequence: seeding
        // splitmix64 with 0 yields these first outputs, each of which is
        // mix(seed + GOLDEN_GAMMA * n).
        const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
        assert_eq!(mix(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix(GOLDEN_GAMMA.wrapping_mul(2)), 0x6e78_9e6a_a1b9_65f4);
    }
}
