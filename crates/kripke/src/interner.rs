//! The label table every [`Kripke`](crate::Kripke) constructor fills as
//! it creates states.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use crate::atom::AtomId;
use crate::bits::BitSet;

/// An empty slot of the lookup table.
const EMPTY: u32 = u32::MAX;

/// The distinct labels of a structure under construction, in first-seen
/// order.
///
/// [`intern`](LabelInterner::intern) sets one state's atom ids in a
/// bitmask, which sorts and deduplicates them, looks the set up, and
/// gives it the next label id if it is new;
/// [`finish`](LabelInterner::finish) turns the table into the label
/// bitsets [`Kripke::from_csr`](crate::Kripke::from_csr) takes. Counter
/// and representative structures carry a few dozen distinct labels over
/// up to millions of states, so a state costs one lookup of a word or
/// two and one `u32`, never a bitset of its own. Labels are stored end
/// to end in one arena, so an explicit structure whose states all differ
/// in label costs no allocation per label either.
///
/// # Examples
///
/// ```
/// use icstar_kripke::{AtomId, LabelInterner};
///
/// let mut table = LabelInterner::new();
/// assert_eq!(table.intern([AtomId(2), AtomId(0)]), 0);
/// assert_eq!(table.intern([AtomId(0), AtomId(2), AtomId(2)]), 0);
/// assert_eq!(table.intern([]), 1);
/// let labels = table.finish(3);
/// assert_eq!(labels[0].iter().collect::<Vec<_>>(), [0, 2]);
/// assert!(labels[1].is_empty());
/// ```
#[derive(Debug)]
pub struct LabelInterner {
    /// Label `l` is the atom-id bitmask `words[heads[l]..heads[l + 1]]`,
    /// without trailing zero words, so equal sets have equal keys.
    heads: Vec<u32>,
    words: Vec<u64>,
    /// Linear-probing slots of label ids: a power of two, at most half
    /// full.
    slots: Vec<u32>,
    /// The label being looked up.
    scratch: Vec<u64>,
    /// Randomly keyed, as `HashMap`'s default: labels derive from client
    /// templates.
    hasher: RandomState,
}

impl Default for LabelInterner {
    fn default() -> Self {
        LabelInterner {
            heads: vec![0],
            words: Vec::new(),
            slots: vec![EMPTY; 16],
            scratch: Vec::new(),
            hasher: RandomState::new(),
        }
    }
}

impl LabelInterner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of the label made of `atoms` (in any order, repeats
    /// allowed), the next id if the label is new.
    pub fn intern(&mut self, atoms: impl IntoIterator<Item = AtomId>) -> u32 {
        self.scratch.clear();
        for a in atoms {
            let word = a.idx() / 64;
            if word >= self.scratch.len() {
                self.scratch.resize(word + 1, 0);
            }
            self.scratch[word] |= 1 << (a.idx() % 64);
        }
        let slot = match self.probe(&self.scratch) {
            Ok(l) => return l,
            Err(slot) => slot,
        };
        let l = (self.heads.len() - 1) as u32;
        self.slots[slot] = l;
        self.words.extend_from_slice(&self.scratch);
        self.heads.push(self.words.len() as u32);
        if 2 * self.heads.len() > self.slots.len() {
            self.slots = vec![EMPTY; self.slots.len() * 2];
            for l in 0..=l {
                let slot = self.probe(self.label(l)).expect_err("labels are distinct");
                self.slots[slot] = l;
            }
        }
        l
    }

    /// The labels as bitsets over `num_atoms` atoms, indexed by label id.
    ///
    /// # Panics
    ///
    /// Panics if some interned atom id is `num_atoms` or more.
    pub fn finish(self, num_atoms: usize) -> Vec<BitSet> {
        let labels = 0..self.heads.len() as u32 - 1;
        let bitset = |l| {
            let words = self.label(l);
            let ids = (0..64 * words.len()).filter(|&a| words[a / 64] >> (a % 64) & 1 == 1);
            BitSet::from_iter_with_capacity(num_atoms, ids)
        };
        labels.map(bitset).collect()
    }

    /// The atom-id bitmask of label `l`.
    fn label(&self, l: u32) -> &[u64] {
        &self.words[self.heads[l as usize] as usize..self.heads[l as usize + 1] as usize]
    }

    /// The id of the label `key`, or the empty slot where it belongs.
    fn probe(&self, key: &[u64]) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(key) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                l if self.label(l) == key => return Ok(l),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_survive_table_growth() {
        let mut table = LabelInterner::new();
        let label = |i: u32| [AtomId(i % 7), AtomId(7 + i / 7)];
        for i in 0..1_000 {
            assert_eq!(table.intern(label(i)), i);
        }
        for i in (0..1_000).rev() {
            assert_eq!(table.intern(label(i)), i);
        }
        let labels = table.finish(150);
        assert_eq!(labels.len(), 1_000);
        assert_eq!(labels[100].iter().collect::<Vec<_>>(), [2, 21]);
    }
}
