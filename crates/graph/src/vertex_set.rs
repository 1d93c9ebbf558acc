//! Vertex subsets.
//!
//! Every expansion notion in the paper quantifies over vertex subsets
//! `S ⊆ V`: ordinary expansion looks at `Γ⁻(S)`, unique-neighbor expansion at
//! `Γ¹(S)`, and wireless expansion additionally quantifies over subsets
//! `S' ⊆ S`. [`VertexSet`] is the workhorse representation for these sets: a
//! bitset over the universe with its member count, so membership tests,
//! inserts and removals are O(1) and iteration walks the words in ascending
//! vertex order.

use std::fmt;

/// A subset of the vertices `0..n` of a graph.
///
/// Internally a `VertexSet` is a bitset over the universe plus the number of
/// set bits: membership queries, inserts and removals are O(1), set algebra
/// runs word by word, and iteration costs O(n/64 + |S|) and yields members in
/// increasing order. The universe size is fixed at construction; all vertices
/// passed to mutating methods must lie in `0..universe`.
#[derive(Clone, PartialEq, Eq)]
pub struct VertexSet {
    universe: usize,
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

impl VertexSet {
    /// Creates an empty set over the universe `0..universe`.
    pub fn empty(universe: usize) -> Self {
        VertexSet {
            universe,
            words: vec![0u64; universe.div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    /// Creates the full set `{0, 1, …, universe-1}` by filling whole words
    /// directly (O(n/64), with no per-bit insertion).
    pub fn full(universe: usize) -> Self {
        let mut set = VertexSet {
            universe,
            words: vec![!0u64; universe.div_ceil(WORD_BITS)],
            len: universe,
        };
        set.mask_tail();
        set
    }

    /// Creates a set from an iterator of vertices in any order, in
    /// O(k + n/64). Duplicates are ignored.
    ///
    /// # Panics
    /// Panics if any vertex is `>= universe`.
    pub fn from_iter(universe: usize, vertices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(universe);
        for v in vertices {
            s.insert(v);
        }
        s
    }

    /// Creates a set from its bitset words, laid out as
    /// [`VertexSet::as_words`] returns them, in O(n/64). Bits at positions
    /// `>= universe` in the final word are cleared.
    ///
    /// # Panics
    /// Panics if `words` does not hold exactly `universe.div_ceil(64)` words.
    pub fn from_words(universe: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            universe.div_ceil(WORD_BITS),
            "{} words for universe {universe}",
            words.len()
        );
        let mut set = VertexSet {
            universe,
            words,
            len: 0,
        };
        set.mask_tail();
        set.recount();
        set
    }

    /// Clears the bits at positions `>= universe` in the final word.
    fn mask_tail(&mut self) {
        let tail = self.universe % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Recomputes the member count by popcount over the words.
    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// The size of the underlying universe (the graph's vertex count).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The number of vertices in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set contains no vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test in O(1).
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        if v >= self.universe {
            return false;
        }
        (self.words[v / WORD_BITS] >> (v % WORD_BITS)) & 1 == 1
    }

    /// Inserts a vertex in O(1). Returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `v >= universe`.
    #[inline]
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(
            v < self.universe,
            "vertex {v} out of range for universe {}",
            self.universe
        );
        let word = &mut self.words[v / WORD_BITS];
        let bit = 1u64 << (v % WORD_BITS);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Removes a vertex in O(1). Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: usize) -> bool {
        if !self.contains(v) {
            return false;
        }
        self.words[v / WORD_BITS] &= !(1u64 << (v % WORD_BITS));
        self.len -= 1;
        true
    }

    /// Removes all vertices, keeping the allocated words for reuse. Costs
    /// O(n/64): every word is zeroed.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rest: &self.words,
            base: 0usize.wrapping_sub(WORD_BITS),
            bits: 0,
        }
    }

    /// Returns the members as a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<usize> {
        let mut members = Vec::with_capacity(self.len);
        self.iter().for_each(|v| members.push(v));
        members
    }

    /// Returns the underlying bitset words. Bit `v % 64` of word `v / 64` is
    /// set iff vertex `v` is a member; bits at positions `>= universe` in the
    /// final word are always zero. This is the zero-copy entry point for
    /// word-parallel kernels (e.g. the bit-sliced radio engine) that combine
    /// sets with AND/OR/XOR instead of per-vertex loops.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// The set over `self`'s universe whose words are `op` applied to the
    /// word pairs of `self` and `other`.
    fn zip_words(&self, other: &VertexSet, op: impl Fn(u64, u64) -> u64) -> VertexSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let words = self.words.iter().zip(&other.words);
        let mut out = VertexSet {
            universe: self.universe,
            words: words.map(|(&a, &b)| op(a, b)).collect(),
            len: 0,
        };
        out.recount();
        out
    }

    /// Set union (both operands must share the same universe).
    pub fn union(&self, other: &VertexSet) -> VertexSet {
        self.zip_words(other, |a, b| a | b)
    }

    /// Set intersection (both operands must share the same universe).
    pub fn intersection(&self, other: &VertexSet) -> VertexSet {
        self.zip_words(other, |a, b| a & b)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &VertexSet) -> VertexSet {
        self.zip_words(other, |a, b| a & !b)
    }

    /// Complement with respect to the universe.
    pub fn complement(&self) -> VertexSet {
        VertexSet::full(self.universe).difference(self)
    }

    /// `true` if `self ⊆ other`.
    pub fn is_subset_of(&self, other: &VertexSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// `true` if the two sets have no common vertex.
    pub fn is_disjoint_from(&self, other: &VertexSet) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & b == 0)
    }
}

/// Iterator over the members of a [`VertexSet`] in increasing order,
/// returned by [`VertexSet::iter`]: a walk over the bitset words.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    /// The words not yet loaded into `bits`.
    rest: &'a [u64],
    /// The vertex id of bit 0 of the current word (one word below 0,
    /// wrapped, until the first word is loaded).
    base: usize,
    /// The current word's members not yet yielded.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (&word, rest) = self.rest.split_first()?;
            self.rest = rest;
            self.base = self.base.wrapping_add(WORD_BITS);
            self.bits = word;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + b)
    }

    /// Internal iteration (`for_each`, `min_by_key`, `sum`, …) runs a tight
    /// loop per word instead of re-entering `next` per member.
    #[inline]
    fn fold<B, F: FnMut(B, usize) -> B>(mut self, mut acc: B, mut f: F) -> B {
        loop {
            while self.bits != 0 {
                acc = f(acc, self.base + self.bits.trailing_zeros() as usize);
                self.bits &= self.bits - 1;
            }
            let Some((&word, rest)) = self.rest.split_first() else {
                return acc;
            };
            self.rest = rest;
            self.base = self.base.wrapping_add(WORD_BITS);
            self.bits = word;
        }
    }
}

impl fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VertexSet{{n={}, S={:?}}}", self.universe, self.to_vec())
    }
}

impl<'a> IntoIterator for &'a VertexSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = VertexSet::empty(10);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert!(!e.contains(3));

        let f = VertexSet::full(10);
        assert_eq!(f.len(), 10);
        assert!((0..10).all(|v| f.contains(v)));
    }

    #[test]
    fn full_matches_per_bit_construction() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let fast = VertexSet::full(n);
            let slow = VertexSet::from_iter(n, 0..n);
            assert_eq!(fast, slow, "universe {n}");
            assert_eq!(fast.len(), n);
            assert!(!fast.contains(n));
        }
    }

    #[test]
    fn clear_empties_and_allows_reuse() {
        let mut s = VertexSet::from_iter(80, [1, 40, 79]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(40));
        assert!(s.insert(40));
        assert_eq!(s.to_vec(), vec![40]);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = VertexSet::empty(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(90));
        assert!(s.contains(5));
        assert!(s.contains(90));
        assert_eq!(s.len(), 2);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert_eq!(s.to_vec(), vec![90]);
    }

    #[test]
    fn members_stay_sorted() {
        let mut s = VertexSet::empty(50);
        for v in [40, 3, 17, 9, 25, 1] {
            s.insert(v);
        }
        assert_eq!(s.to_vec(), vec![1, 3, 9, 17, 25, 40]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = VertexSet::empty(4);
        s.insert(4);
    }

    #[test]
    fn set_operations() {
        let a = VertexSet::from_iter(10, [1, 2, 3, 4]);
        let b = VertexSet::from_iter(10, [3, 4, 5, 6]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(a.intersection(&b).to_vec(), vec![3, 4]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 2]);
        assert_eq!(b.difference(&a).to_vec(), vec![5, 6]);
        assert_eq!(a.complement().len(), 6);
        assert!(VertexSet::from_iter(10, [1, 2]).is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_disjoint_from(&VertexSet::from_iter(10, [7, 8])));
        assert!(!a.is_disjoint_from(&b));
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = VertexSet::from_iter(4, [0, 1]);
        assert!(!s.contains(100));
    }

    #[test]
    fn from_iter_ignores_duplicates() {
        let s = VertexSet::from_iter(8, [3, 3, 3, 4]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn as_words_exposes_the_bitset() {
        let s = VertexSet::from_iter(130, [0, 63, 64, 129]);
        let words = s.as_words();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0], 1 | (1u64 << 63));
        assert_eq!(words[1], 1);
        assert_eq!(words[2], 1u64 << 1);
    }
}
