//! A fast deterministic hasher for tables keyed by ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher (the FxHash step) for keys built from
/// dense, parser-assigned ids — [`InstrId`](crate::InstrId),
/// [`ClusterId`](crate::ClusterId), functional-unit indices, cycles.
/// Input cannot choose those keys, so SipHash's flood resistance buys
/// nothing; this costs one multiply per word and hashes the same on
/// every run.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    /// The multiply leaves the low bits weakest, and `HashMap` picks a
    /// bucket from them; rotate the strong high bits down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    /// `HashMap` takes the bucket from the low bits and a tag from the
    /// top seven; dense (instruction, cluster) keys must spread over
    /// both, and hash alike on every run.
    #[test]
    fn dense_id_pairs_spread_over_buckets_and_tags() {
        let b = BuildHasherDefault::<IdHasher>::default();
        let mut buckets = vec![false; 4096];
        let mut tags = [false; 128];
        for p in 0..2000u32 {
            for c in 0..16usize {
                let h = b.hash_one((crate::InstrId::new(p), c));
                let mut again = IdHasher::default();
                (crate::InstrId::new(p), c).hash(&mut again);
                assert_eq!(h, again.finish());
                buckets[(h & 4095) as usize] = true;
                tags[(h >> 57) as usize] = true;
            }
        }
        let filled = buckets.iter().filter(|&&f| f).count();
        assert!(filled > 4000, "32 000 keys filled {filled} of 4096 buckets");
        assert!(tags.iter().all(|&t| t), "a top-7-bit tag went unused");
    }
}
