//! The Kripke structure `M = (S, R, L, s₀)` of Section 2.

use std::collections::HashMap;
use std::fmt;

use crate::atom::{Atom, AtomId, AtomTable};
use crate::bits::BitSet;

/// A dense identifier for a state of a [`Kripke`] structure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as a `usize`, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Errors reported by [`Kripke::validate`] and the builder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructureError {
    /// The structure has no states at all.
    Empty,
    /// Some state has no outgoing transition; the paper requires the
    /// transition relation to be total.
    NotTotal(StateId),
    /// An edge endpoint does not name an existing state.
    DanglingEdge(StateId, StateId),
    /// The designated initial state does not exist.
    BadInitial(StateId),
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::Empty => write!(f, "structure has no states"),
            StructureError::NotTotal(s) => {
                write!(f, "transition relation is not total: {s} has no successor")
            }
            StructureError::DanglingEdge(a, b) => {
                write!(f, "edge {a} -> {b} references a missing state")
            }
            StructureError::BadInitial(s) => write!(f, "initial state {s} does not exist"),
        }
    }
}

impl std::error::Error for StructureError {}

/// A finite Kripke structure `M = (S, R, L, s₀)`.
///
/// * `S` — states, identified by dense [`StateId`]s;
/// * `R ⊆ S × S` — the transition relation, required to be **total**
///   (every state has at least one successor) so that every finite path
///   extends to an infinite one;
/// * `L : S → 2^AP` — the proposition labeling, stored as bitsets over an
///   interned [`AtomTable`]. The bitsets are interned too: each distinct
///   label is stored once and every state holds a `u32` index into that
///   table, since counter and representative structures carry a few
///   dozen distinct labels over up to millions of states;
/// * `s₀` — the initial state.
///
/// Construct via [`KripkeBuilder`](crate::KripkeBuilder).
///
/// # Examples
///
/// ```
/// use icstar_kripke::{Atom, KripkeBuilder};
///
/// let mut b = KripkeBuilder::new();
/// let red = b.state_labeled("red", [Atom::plain("stop")]);
/// let green = b.state_labeled("green", [Atom::plain("go")]);
/// b.edge(red, green);
/// b.edge(green, red);
/// let m = b.build(red)?;
/// assert_eq!(m.num_states(), 2);
/// assert!(m.satisfies_atom(red, &Atom::plain("stop")));
/// # Ok::<(), icstar_kripke::StructureError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Kripke {
    atoms: AtomTable,
    /// The distinct labels, in first-seen state order.
    labels: Vec<BitSet>,
    /// `labels[label_of[s]]` is the label of state `s`.
    label_of: Vec<u32>,
    succ_heads: Vec<u32>,
    succ_edges: Vec<StateId>,
    pred_heads: Vec<u32>,
    pred_edges: Vec<StateId>,
    init: StateId,
    names: Vec<String>,
}

impl Kripke {
    /// Assembles a structure from compressed-sparse-row parts: state
    /// `s` has successors `succ_edges[succ_heads[s]..succ_heads[s + 1]]`
    /// and label `labels[s]` over `atoms`. Every constructor (the
    /// [`KripkeBuilder`](crate::KripkeBuilder), restriction, relabeling,
    /// the builders of `icstar-sym`) goes through here, so there is
    /// one validator, one predecessor pass and one place where equal
    /// labels are interned into a shared table.
    ///
    /// # Errors
    ///
    /// As [`Kripke::validate`], plus [`StructureError::DanglingEdge`].
    ///
    /// # Panics
    ///
    /// Panics unless `succ_heads` has `|S| + 1` entries, from 0 to
    /// `succ_edges.len()`, and there is one name per state.
    pub fn from_csr(
        atoms: AtomTable,
        labels: Vec<BitSet>,
        succ_heads: Vec<u32>,
        succ_edges: Vec<StateId>,
        init: StateId,
        names: Vec<String>,
    ) -> Result<Self, StructureError> {
        let n = labels.len();
        assert!(
            succ_heads.len() == n + 1
                && succ_heads[0] == 0
                && succ_heads[n] as usize == succ_edges.len()
                && names.len() == n,
            "malformed CSR parts"
        );
        if n == 0 {
            return Err(StructureError::Empty);
        }
        if init.idx() >= n {
            return Err(StructureError::BadInitial(init));
        }
        // Check totality and edge sanity while counting in-degrees.
        let mut pred_heads = vec![0u32; n + 1];
        for s in 0..n {
            let (lo, hi) = (succ_heads[s] as usize, succ_heads[s + 1] as usize);
            if lo >= hi {
                return Err(StructureError::NotTotal(StateId(s as u32)));
            }
            for &t in &succ_edges[lo..hi] {
                if t.idx() >= n {
                    return Err(StructureError::DanglingEdge(StateId(s as u32), t));
                }
                pred_heads[t.idx() + 1] += 1;
            }
        }
        for s in 0..n {
            pred_heads[s + 1] += pred_heads[s];
        }
        let mut cursor = pred_heads[..n].to_vec();
        let mut pred_edges = vec![StateId(0); succ_edges.len()];
        for s in 0..n {
            for &t in &succ_edges[succ_heads[s] as usize..succ_heads[s + 1] as usize] {
                pred_edges[cursor[t.idx()] as usize] = StateId(s as u32);
                cursor[t.idx()] += 1;
            }
        }
        let (labels, label_of) = intern_bitsets(labels);
        Ok(Kripke {
            atoms,
            labels,
            label_of,
            succ_heads,
            succ_edges,
            pred_heads,
            pred_edges,
            init,
            names,
        })
    }

    /// The same states, names and transitions, with `label(s)` as the
    /// label of each state `s`. Atoms are interned in first-seen order, as
    /// [`KripkeBuilder`](crate::KripkeBuilder) interns them.
    pub fn relabel_with(&self, label: impl FnMut(StateId) -> Vec<Atom>) -> Kripke {
        let (atoms, labels) = intern_labels(self.states().map(label));
        self.relabeled(atoms, labels)
            .expect("relabeling preserves a valid structure")
    }

    /// The same states, names and transitions, relabeled over `atoms`.
    pub(crate) fn relabeled(
        &self,
        atoms: AtomTable,
        labels: Vec<BitSet>,
    ) -> Result<Kripke, StructureError> {
        Kripke::from_csr(
            atoms,
            labels,
            self.succ_heads.clone(),
            self.succ_edges.clone(),
            self.init,
            self.names.clone(),
        )
    }

    /// Number of states `|S|`.
    pub fn num_states(&self) -> usize {
        self.label_of.len()
    }

    /// Number of transitions `|R|`.
    pub fn num_transitions(&self) -> usize {
        self.succ_edges.len()
    }

    /// The initial state `s₀`.
    pub fn initial(&self) -> StateId {
        self.init
    }

    /// Iterates over all states in id order.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.num_states() as u32).map(StateId)
    }

    /// The successors of `s` (always non-empty).
    pub fn successors(&self, s: StateId) -> &[StateId] {
        let lo = self.succ_heads[s.idx()] as usize;
        let hi = self.succ_heads[s.idx() + 1] as usize;
        &self.succ_edges[lo..hi]
    }

    /// The predecessors of `s`.
    pub fn predecessors(&self, s: StateId) -> &[StateId] {
        let lo = self.pred_heads[s.idx()] as usize;
        let hi = self.pred_heads[s.idx() + 1] as usize;
        &self.pred_edges[lo..hi]
    }

    /// Whether `(a, b) ∈ R`.
    pub fn has_edge(&self, a: StateId, b: StateId) -> bool {
        self.successors(a).contains(&b)
    }

    /// The atom table used by this structure's labels.
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// The label `L(s)` as a bitset over this structure's atom ids.
    pub fn label(&self, s: StateId) -> &BitSet {
        &self.labels[self.label_of[s.idx()] as usize]
    }

    /// The label `L(s)` as a sorted list of atoms.
    pub fn label_atoms(&self, s: StateId) -> Vec<Atom> {
        let mut v: Vec<Atom> = self
            .label(s)
            .iter()
            .map(|b| self.atoms.atom(AtomId(b as u32)).clone())
            .collect();
        v.sort();
        v
    }

    /// Whether `atom ∈ L(s)`.
    pub fn satisfies_atom(&self, s: StateId, atom: &Atom) -> bool {
        match self.atoms.id(atom) {
            Some(id) => self.label(s).contains(id.idx()),
            None => false,
        }
    }

    /// A human-readable name for `s` (defaults to `s<N>`).
    pub fn state_name(&self, s: StateId) -> &str {
        &self.names[s.idx()]
    }

    /// Finds a state by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId(i as u32))
    }

    /// Checks the structural invariants (non-empty, total, valid initial
    /// state).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant. Structures built through
    /// [`KripkeBuilder`](crate::KripkeBuilder) always validate.
    pub fn validate(&self) -> Result<(), StructureError> {
        if self.num_states() == 0 {
            return Err(StructureError::Empty);
        }
        if self.init.idx() >= self.num_states() {
            return Err(StructureError::BadInitial(self.init));
        }
        for s in self.states() {
            if self.successors(s).is_empty() {
                return Err(StructureError::NotTotal(s));
            }
        }
        Ok(())
    }

    /// The set of states reachable from the initial state.
    pub fn reachable(&self) -> BitSet {
        let mut seen = BitSet::new(self.num_states());
        let mut stack = vec![self.init];
        seen.insert(self.init.idx());
        while let Some(s) = stack.pop() {
            for &t in self.successors(s) {
                if seen.insert(t.idx()) {
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// Restricts the structure to the states reachable from `s₀`,
    /// renumbering states densely. Returns the restriction together with
    /// the mapping `old id → new id`.
    ///
    /// This implements the paper's move from the raw state-transition graph
    /// `G_r` to the Kripke structure `M_r` (Section 5): unreachable states
    /// (such as "all delayed, no token") are dropped, after which the
    /// relation must be total again.
    ///
    /// # Errors
    ///
    /// Returns [`StructureError::NotTotal`] (with the *new* id) if some
    /// reachable state has no successor.
    pub fn restrict_to_reachable(&self) -> Result<(Kripke, Vec<Option<StateId>>), StructureError> {
        let seen = self.reachable();
        let mut remap: Vec<Option<StateId>> = vec![None; self.num_states()];
        let mut next = 0u32;
        for s in self.states() {
            if seen.contains(s.idx()) {
                remap[s.idx()] = Some(StateId(next));
                next += 1;
            }
        }
        let (mut labels, mut names) = (Vec::new(), Vec::new());
        let (mut heads, mut edges) = (vec![0], Vec::new());
        for s in self.states().filter(|s| remap[s.idx()].is_some()) {
            labels.push(self.label(s).clone());
            names.push(self.names[s.idx()].clone());
            edges.extend(self.successors(s).iter().filter_map(|t| remap[t.idx()]));
            heads.push(edges.len() as u32);
        }
        let init = remap[self.init.idx()].expect("initial state is reachable");
        let m = Kripke::from_csr(self.atoms.clone(), labels, heads, edges, init, names)?;
        Ok((m, remap))
    }
}

/// Dedups per-state label bitsets into a table of distinct labels (in
/// first-seen order) and each state's index into it.
fn intern_bitsets(labels: Vec<BitSet>) -> (Vec<BitSet>, Vec<u32>) {
    let mut index: HashMap<BitSet, u32> = HashMap::new();
    let label_of = (labels.into_iter())
        .map(|label| {
            let next = index.len() as u32;
            *index.entry(label).or_insert(next)
        })
        .collect();
    let mut table: Vec<(BitSet, u32)> = index.into_iter().collect();
    table.sort_unstable_by_key(|&(_, id)| id);
    (
        table.into_iter().map(|(label, _)| label).collect(),
        label_of,
    )
}

/// Interns one atom list per state into a fresh table, in first-seen
/// order, and returns the table with the states' label bitsets.
pub(crate) fn intern_labels<L: IntoIterator<Item = Atom>>(
    labels: impl IntoIterator<Item = L>,
) -> (AtomTable, Vec<BitSet>) {
    let mut atoms = AtomTable::new();
    let ids: Vec<Vec<usize>> = (labels.into_iter())
        .map(|label| label.into_iter().map(|a| atoms.intern(a).idx()).collect())
        .collect();
    let nbits = atoms.len();
    let sets = ids
        .into_iter()
        .map(|ids| BitSet::from_iter_with_capacity(nbits, ids));
    (atoms, sets.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KripkeBuilder;

    fn two_state() -> Kripke {
        let mut b = KripkeBuilder::new();
        let a = b.state_labeled("a", [Atom::plain("p")]);
        let c = b.state_labeled("c", [Atom::plain("q")]);
        b.edge(a, c);
        b.edge(c, a);
        b.build(a).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let m = two_state();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.num_transitions(), 2);
        assert_eq!(m.initial(), StateId(0));
        assert_eq!(m.successors(StateId(0)), &[StateId(1)]);
        assert_eq!(m.predecessors(StateId(0)), &[StateId(1)]);
        assert!(m.has_edge(StateId(0), StateId(1)));
        assert!(!m.has_edge(StateId(0), StateId(0)));
        assert_eq!(m.state_name(StateId(1)), "c");
        assert_eq!(m.state_by_name("c"), Some(StateId(1)));
        assert_eq!(m.state_by_name("zzz"), None);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn labels_and_atoms() {
        let m = two_state();
        assert!(m.satisfies_atom(StateId(0), &Atom::plain("p")));
        assert!(!m.satisfies_atom(StateId(0), &Atom::plain("q")));
        assert!(!m.satisfies_atom(StateId(0), &Atom::plain("unknown")));
        assert_eq!(m.label_atoms(StateId(1)), vec![Atom::plain("q")]);
    }

    #[test]
    fn equal_labels_share_one_table_entry() {
        let mut b = KripkeBuilder::new();
        let a = b.state_labeled("a", [Atom::plain("p"), Atom::plain("q")]);
        let c = b.state_labeled("c", [Atom::plain("q")]);
        let d = b.state_labeled("d", [Atom::plain("q"), Atom::plain("p")]);
        let e = b.state("e");
        b.edge(a, c);
        b.edge(c, d);
        b.edge(d, e);
        b.edge(e, a);
        let m = b.build(a).unwrap();
        assert_eq!(m.labels.len(), 3, "{{p, q}}, {{q}} and {{}}");
        assert!(std::ptr::eq(m.label(a), m.label(d)));
        assert!(!std::ptr::eq(m.label(a), m.label(c)));
        assert_eq!(m.label_atoms(a), [Atom::plain("p"), Atom::plain("q")]);
        assert_eq!(m.label_atoms(d), m.label_atoms(a));
        assert_eq!(m.label_atoms(c), [Atom::plain("q")]);
        assert!(m.label(e).is_empty());
        for (s, p, q) in [
            (a, true, true),
            (c, false, true),
            (d, true, true),
            (e, false, false),
        ] {
            assert_eq!(m.satisfies_atom(s, &Atom::plain("p")), p, "p at {s}");
            assert_eq!(m.satisfies_atom(s, &Atom::plain("q")), q, "q at {s}");
        }
        // Restriction and relabeling re-intern through the same path.
        let (r, _) = m.restrict_to_reachable().unwrap();
        assert_eq!(r.labels.len(), 3);
        let flat = m.relabel_with(|_| vec![Atom::plain("x")]);
        assert_eq!(flat.labels.len(), 1);
        assert!(flat
            .states()
            .all(|s| flat.satisfies_atom(s, &Atom::plain("x"))));
    }

    #[test]
    fn totality_enforced() {
        let mut b = KripkeBuilder::new();
        let a = b.state("a");
        let c = b.state("c");
        b.edge(a, c);
        assert_eq!(b.build(a).unwrap_err(), StructureError::NotTotal(c));
    }

    #[test]
    fn empty_rejected() {
        let b = KripkeBuilder::new();
        assert_eq!(b.build(StateId(0)).unwrap_err(), StructureError::Empty);
    }

    #[test]
    fn reachable_restriction_drops_unreachable() {
        let mut b = KripkeBuilder::new();
        let a = b.state("a");
        let c = b.state("c");
        let dead = b.state("dead");
        b.edge(a, c);
        b.edge(c, a);
        b.edge(dead, a);
        b.edge(dead, dead);
        let m = b.build(a).unwrap();
        assert_eq!(m.num_states(), 3);
        let (r, remap) = m.restrict_to_reachable().unwrap();
        assert_eq!(r.num_states(), 2);
        assert_eq!(remap[dead.idx()], None);
        assert_eq!(r.initial(), StateId(0));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn restriction_can_expose_nontotality() {
        // a -> sink, sink has only an edge back into unreachable territory?
        // Build: a -> b, b -> dead is the ONLY edge of b, dead unreachable?
        // dead is reachable through b, so instead: make b's only successor
        // a state that itself is fine; nontotality after restriction cannot
        // happen via reachability (successors of reachable states are
        // reachable). So restriction of a valid structure is always total.
        let mut b = KripkeBuilder::new();
        let a = b.state("a");
        let c = b.state("c");
        b.edge(a, c);
        b.edge(c, c);
        let m = b.build(a).unwrap();
        let (r, _) = m.restrict_to_reachable().unwrap();
        assert!(r.validate().is_ok());
        assert_eq!(r.num_states(), 2);
    }

    #[test]
    fn reachable_set() {
        let mut b = KripkeBuilder::new();
        let a = b.state("a");
        let c = b.state("c");
        let d = b.state("d");
        b.edge(a, a);
        b.edge(c, d);
        b.edge(d, c);
        let m = b.build(a).unwrap();
        let r = m.reachable();
        assert!(r.contains(0));
        assert!(!r.contains(1));
        assert!(!r.contains(2));
    }

    #[test]
    fn display_state_id() {
        assert_eq!(StateId(7).to_string(), "s7");
    }
}
