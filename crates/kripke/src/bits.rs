//! A compact fixed-capacity bitset.
//!
//! Used for state labels (bits = atom ids) and by the model checker for
//! state sets (bits = state ids). A tiny hand-rolled type keeps the
//! workspace dependency-free and lets us derive `Hash`/`Eq` for use as
//! label keys.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-capacity set of small integers, stored as machine words.
///
/// # Examples
///
/// ```
/// use icstar_kripke::bits::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(97);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Box<[u64]>,
    /// Capacity in bits; set elements must be `< nbits`.
    nbits: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for values `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet {
            words: vec![0u64; nbits.div_ceil(WORD_BITS)].into_boxed_slice(),
            nbits,
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// The set as machine words: element `i` is bit `i % 64` of word
    /// `i / 64`. Bits at or past [`BitSet::capacity`] are clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The words, for writing whole words at a time. Callers must leave
    /// the bits at or past [`BitSet::capacity`] clear: equality, `len`
    /// and iteration count them.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Inserts `bit`. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= capacity()`.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        assert!(bit < self.nbits, "bit {bit} out of range {}", self.nbits);
        let w = &mut self.words[bit / WORD_BITS];
        let mask = 1u64 << (bit % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `bit`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, bit: usize) -> bool {
        if bit >= self.nbits {
            return false;
        }
        let w = &mut self.words[bit / WORD_BITS];
        let mask = 1u64 << (bit % WORD_BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test. Out-of-range bits are simply absent.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        bit < self.nbits && self.words[bit / WORD_BITS] & (1u64 << (bit % WORD_BITS)) != 0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Inserts every element of `other` (capacities must match).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Keeps only elements also in `other` (capacities must match).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// Removes every element of `other` (capacities must match).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
            && self.words[other.words.len().min(self.words.len())..]
                .iter()
                .all(|&w| w == 0)
    }

    /// Whether the two sets share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Complements the set in place with respect to its capacity.
    pub fn complement(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        // Mask off bits beyond nbits in the last word.
        let extra = self.words.len() * WORD_BITS - self.nbits;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Builds a set of the given capacity from an iterator of elements.
    pub fn from_iter_with_capacity(nbits: usize, it: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(nbits);
        for b in it {
            s.insert(b);
        }
        s
    }
}

/// Iterator over the elements of a [`BitSet`], produced by [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(8).insert(8);
    }

    #[test]
    fn set_ops() {
        let a = BitSet::from_iter_with_capacity(70, [1, 3, 65]);
        let b = BitSet::from_iter_with_capacity(70, [3, 65, 66]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 65, 66]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 65]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(d.is_disjoint(&b));
    }

    #[test]
    fn complement_respects_capacity() {
        let mut s = BitSet::from_iter_with_capacity(67, [0, 66]);
        s.complement();
        assert_eq!(s.len(), 65);
        assert!(!s.contains(0));
        assert!(s.contains(1));
        assert!(!s.contains(66));
        // No stray bits beyond capacity.
        assert!(s.iter().all(|b| b < 67));
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(10);
        assert!(s.is_empty());
        s.insert(5);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn eq_and_hash_by_content() {
        use std::collections::HashSet;
        let a = BitSet::from_iter_with_capacity(64, [1, 2]);
        let b = BitSet::from_iter_with_capacity(64, [1, 2]);
        let mut h = HashSet::new();
        h.insert(a);
        assert!(h.contains(&b));
    }

    #[test]
    fn words_expose_the_layout() {
        let mut s = BitSet::from_iter_with_capacity(70, [0, 63, 64, 69]);
        assert_eq!(s.words(), &[1 | 1 << 63, 1 | 1 << 5]);
        s.words_mut()[1] = 1 << 2;
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 66]);
        let mut full = BitSet::new(70);
        full.complement();
        assert_eq!(
            full.words()[1],
            (1 << 6) - 1,
            "bits past capacity stay clear"
        );
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }
}
