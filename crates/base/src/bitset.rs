//! Dense bitsets over `u64` blocks.
//!
//! The automata kernel manipulates *sets of dense `u32` ids* — NFA state
//! sets during subset construction, realizable-profile sets in the Lemma 14
//! engine, partition blocks in Hopcroft minimization. Representing them as
//! sorted `Vec<u32>`s (the seed implementation) makes every set operation
//! O(n) pointer-chasing and every hash O(n) bytes through SipHash.
//! [`BitSet`] packs them 64 elements per block: union is a word-wise `|`,
//! membership is one shift, equality/hashing touch `⌈n/64⌉` words, and the
//! derived `Hash` feeds the workspace's [`crate::fxhash::FxHashMap`] without
//! any allocation.
//!
//! Invariant: a `BitSet` never stores trailing all-zero blocks beyond
//! `blocks.len()` (it may store *interior* zero blocks). Two sets with the
//! same elements can still differ in block length if one was built with a
//! larger universe hint, so `BitSet::normalize` trims trailing zeros —
//! every mutating operation that can *clear* bits calls it, and the
//! `PartialEq`/`Hash` impls therefore compare representations directly.

use std::fmt;

const BITS: usize = u64::BITS as usize;

/// A growable set of `u32` ids with dense `u64`-block storage.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> BitSet {
        BitSet { blocks: Vec::new() }
    }

    /// Creates an empty set with capacity for ids below `universe`.
    pub fn with_capacity(universe: usize) -> BitSet {
        BitSet {
            blocks: Vec::with_capacity(universe.div_ceil(BITS)),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        // The no-trailing-zero-block invariant makes this O(1)-ish; interior
        // zeros still require the scan, so keep it exact.
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Inserts `x`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, x: u32) -> bool {
        let (block, bit) = (x as usize / BITS, x as usize % BITS);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        fresh
    }

    /// Removes `x`; returns whether it was present.
    pub fn remove(&mut self, x: u32) -> bool {
        let (block, bit) = (x as usize / BITS, x as usize % BITS);
        if block >= self.blocks.len() {
            return false;
        }
        let mask = 1u64 << bit;
        let present = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        if present && block + 1 == self.blocks.len() {
            self.normalize();
        }
        present
    }

    /// Whether `x` is in the set.
    #[inline]
    pub fn contains(&self, x: u32) -> bool {
        let (block, bit) = (x as usize / BITS, x as usize % BITS);
        self.blocks
            .get(block)
            .is_some_and(|b| b & (1u64 << bit) != 0)
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.blocks.clear();
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (a, &b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Intersects `self` with `other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, a) in self.blocks.iter_mut().enumerate() {
            *a &= other.blocks.get(i).copied().unwrap_or(0);
        }
        self.normalize();
    }

    /// Whether the two sets intersect.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Drops trailing zero blocks so equal sets have equal representations.
    fn normalize(&mut self) {
        while self.blocks.last() == Some(&0) {
            self.blocks.pop();
        }
    }

    /// The raw blocks (for hashing/packing tricks in the kernel).
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }
}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> BitSet {
        let mut s = BitSet::new();
        for x in iter {
            s.insert(x);
        }
        s
    }
}

impl Extend<u32> for BitSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for x in iter {
            self.insert(x);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = u32;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over a [`BitSet`]'s elements.
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.block_idx * BITS) as u32 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(s: &BitSet) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn insert_contains_iter() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(0));
        assert!(!s.insert(3));
        assert!(s.contains(0) && s.contains(3) && s.contains(64));
        assert!(!s.contains(1) && !s.contains(63) && !s.contains(1000));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 64]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn equal_sets_hash_equal_across_histories() {
        // Build the same set along different paths (including one that
        // temporarily touched a higher block) and demand representation
        // equality.
        let a: BitSet = [1u32, 200, 7].into_iter().collect();
        let mut b = BitSet::new();
        b.insert(7);
        b.insert(1);
        b.insert(500);
        b.insert(200);
        b.remove(500);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn union_and_intersection() {
        let a: BitSet = [1u32, 5, 100].into_iter().collect();
        let b: BitSet = [5u32, 6, 300].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 6, 100, 300]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5]);
        assert!(a.intersects(&b));
        let c: BitSet = [7u32].into_iter().collect();
        assert!(!a.intersects(&c));
    }

    #[test]
    fn clear_and_empty() {
        let mut s: BitSet = [3u32, 900].into_iter().collect();
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s, BitSet::new());
    }

    #[test]
    fn remove_trims_representation() {
        let mut s = BitSet::new();
        s.insert(1000);
        s.insert(1);
        s.remove(1000);
        let t: BitSet = [1u32].into_iter().collect();
        assert_eq!(s, t);
        assert_eq!(hash_of(&s), hash_of(&t));
    }

    #[test]
    fn block_boundaries() {
        for x in [0u32, 63, 64, 127, 128, 191] {
            let mut s = BitSet::new();
            s.insert(x);
            assert!(s.contains(x));
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![x]);
            assert!(s.remove(x));
            assert!(s.is_empty());
        }
    }
}
