//! The Kripke structure `M = (S, R, L, s₀)` of Section 2.

use std::fmt;

use crate::atom::{Atom, AtomId, AtomTable};
use crate::bits::BitSet;
use crate::interner::LabelInterner;

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

impl From<StateId> for u32 {
    fn from(s: StateId) -> u32 {
        s.0
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
    /// A state's label id names no label of the label table, or the
    /// label under that id is not a bitset over the atom table.
    BadLabel(u32),
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
            StructureError::BadLabel(l) => {
                write!(f, "label {l} is missing or not sized to the atom table")
            }
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
///   interned [`AtomTable`]. Each distinct label is stored once and every
///   state holds a `u32` index into that table, since counter and
///   representative structures carry a few dozen distinct labels over up
///   to millions of states;
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
    /// and label `labels[label_of[s]]` over `atoms`. Every constructor
    /// (the [`KripkeBuilder`](crate::KripkeBuilder), restriction,
    /// relabeling, the builders of `icstar-sym`) interns each state's
    /// label through a [`LabelInterner`] as it creates the state and
    /// comes through here, so there is one validator and one predecessor
    /// pass.
    ///
    /// # Errors
    ///
    /// As [`Kripke::validate`], plus [`StructureError::DanglingEdge`] and
    /// [`StructureError::BadLabel`].
    ///
    /// # Panics
    ///
    /// Panics unless `succ_heads` has `|S| + 1` entries, from 0 to
    /// `succ_edges.len()`, and there is one name per state, where `|S|`
    /// is `label_of.len()`.
    pub fn from_csr(
        atoms: AtomTable,
        labels: Vec<BitSet>,
        label_of: Vec<u32>,
        succ_heads: Vec<u32>,
        succ_edges: Vec<StateId>,
        init: StateId,
        names: Vec<String>,
    ) -> Result<Self, StructureError> {
        let n = label_of.len();
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
        if let Some(l) = labels.iter().position(|l| l.capacity() != atoms.len()) {
            return Err(StructureError::BadLabel(l as u32));
        }
        if let Some(&l) = label_of.iter().find(|&&l| l as usize >= labels.len()) {
            return Err(StructureError::BadLabel(l));
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
    pub fn relabel_with(&self, mut label: impl FnMut(StateId) -> Vec<Atom>) -> Kripke {
        let (mut atoms, mut table) = (AtomTable::new(), LabelInterner::new());
        let label_of = (self.states())
            .map(|s| table.intern(label(s).into_iter().map(|a| atoms.intern(a))))
            .collect();
        self.with_labels(atoms, table, label_of)
            .expect("relabeling preserves a valid structure")
    }

    /// The same states, names and transitions, relabeled over `atoms`:
    /// each distinct label `l` becomes the label of atoms `map(l)`.
    pub(crate) fn relabeled(
        &self,
        atoms: AtomTable,
        map: impl FnMut(&BitSet) -> Vec<AtomId>,
    ) -> Result<Kripke, StructureError> {
        let (table, label_of) = self.map_labels(self.states(), map);
        self.with_labels(atoms, table, label_of)
    }

    /// The same states, names and transitions, with the labels of `table`
    /// over `atoms`.
    fn with_labels(
        &self,
        atoms: AtomTable,
        table: LabelInterner,
        label_of: Vec<u32>,
    ) -> Result<Kripke, StructureError> {
        let labels = table.finish(atoms.len());
        Kripke::from_csr(
            atoms,
            labels,
            label_of,
            self.succ_heads.clone(),
            self.succ_edges.clone(),
            self.init,
            self.names.clone(),
        )
    }

    /// Interns `map(l)` for each distinct label `l` of `states`, once, the
    /// first time one of `states` carries it, so the new table is in
    /// first-seen order too. Returns the table and the new label id of
    /// each of `states`.
    fn map_labels(
        &self,
        states: impl Iterator<Item = StateId>,
        mut map: impl FnMut(&BitSet) -> Vec<AtomId>,
    ) -> (LabelInterner, Vec<u32>) {
        let mut table = LabelInterner::new();
        let mut mapped: Vec<Option<u32>> = vec![None; self.labels.len()];
        let label_of = states
            .map(|s| {
                let l = self.label_of[s.idx()] as usize;
                *mapped[l].get_or_insert_with(|| table.intern(map(&self.labels[l])))
            })
            .collect();
        (table, label_of)
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

    /// The transition relation in compressed-sparse-row form, as
    /// `(heads, edges)`: the successors of state `s` are
    /// `edges[heads[s]..heads[s + 1]]`, so `heads` has `|S| + 1` entries.
    /// The check kernels walk these slices directly.
    pub fn succ_csr(&self) -> (&[u32], &[StateId]) {
        (&self.succ_heads, &self.succ_edges)
    }

    /// The reverse relation in the same form as [`Kripke::succ_csr`]: the
    /// predecessors of `s` are `edges[heads[s]..heads[s + 1]]`.
    pub fn pred_csr(&self) -> (&[u32], &[StateId]) {
        (&self.pred_heads, &self.pred_edges)
    }

    /// The labeling as `(labels, label_of)`: the distinct labels, in
    /// first-seen state order, and each state's index into them, so
    /// `label(s)` is `labels[label_of[s]]`. A predicate on labels is
    /// decided once per distinct label this way.
    pub fn label_parts(&self) -> (&[BitSet], &[u32]) {
        (&self.labels, &self.label_of)
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
        let kept = || self.states().filter(|s| remap[s.idx()].is_some());
        let atom_ids = |l: &BitSet| l.iter().map(|a| AtomId(a as u32)).collect();
        let (table, label_of) = self.map_labels(kept(), atom_ids);
        let (mut names, mut heads, mut edges) = (Vec::new(), vec![0], Vec::new());
        for s in kept() {
            names.push(self.names[s.idx()].clone());
            edges.extend(self.successors(s).iter().filter_map(|t| remap[t.idx()]));
            heads.push(edges.len() as u32);
        }
        let init = remap[self.init.idx()].expect("initial state is reachable");
        let labels = table.finish(self.atoms.len());
        let atoms = self.atoms.clone();
        let m = Kripke::from_csr(atoms, labels, label_of, heads, edges, init, names)?;
        Ok((m, remap))
    }
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
    fn csr_parts_match_the_row_accessors() {
        let mut b = KripkeBuilder::new();
        let a = b.state_labeled("a", [Atom::plain("p")]);
        let c = b.state("c");
        let d = b.state_labeled("d", [Atom::plain("p")]);
        b.edge(a, c);
        b.edge(a, d);
        b.edge(c, c);
        b.edge(d, a);
        let m = b.build(a).unwrap();
        for (csr, row) in [
            (
                m.succ_csr(),
                Kripke::successors as fn(&Kripke, StateId) -> &[StateId],
            ),
            (m.pred_csr(), Kripke::predecessors),
        ] {
            let (heads, edges) = csr;
            assert_eq!(heads.len(), m.num_states() + 1);
            for s in m.states() {
                let (lo, hi) = (heads[s.idx()] as usize, heads[s.idx() + 1] as usize);
                assert_eq!(&edges[lo..hi], row(&m, s));
            }
        }
        let (labels, label_of) = m.label_parts();
        assert_eq!(labels.len(), 2, "a and d share one label");
        for s in m.states() {
            assert_eq!(&labels[label_of[s.idx()] as usize], m.label(s));
        }
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

    /// The CSR parts of a one-state self-loop over atoms `p`, `q`.
    fn one_state_parts() -> (AtomTable, Vec<u32>, Vec<StateId>, Vec<String>) {
        let mut atoms = AtomTable::new();
        atoms.intern(Atom::plain("p"));
        atoms.intern(Atom::plain("q"));
        (atoms, vec![0, 1], vec![StateId(0)], vec!["s0".into()])
    }

    #[test]
    fn from_csr_rejects_a_label_id_outside_the_table() {
        let (atoms, heads, edges, names) = one_state_parts();
        let labels = vec![BitSet::new(2)];
        let err = Kripke::from_csr(atoms, labels, vec![1], heads, edges, StateId(0), names);
        assert_eq!(err.unwrap_err(), StructureError::BadLabel(1));
    }

    #[test]
    fn from_csr_rejects_a_label_not_sized_to_the_atoms() {
        let (atoms, heads, edges, names) = one_state_parts();
        let labels = vec![BitSet::new(2), BitSet::new(3)];
        let err = Kripke::from_csr(atoms, labels, vec![0], heads, edges, StateId(0), names);
        assert_eq!(err.unwrap_err(), StructureError::BadLabel(1));
    }

    #[test]
    fn restriction_drops_labels_only_unreachable_states_carry() {
        let mut b = KripkeBuilder::new();
        let a = b.state_labeled("a", [Atom::plain("p")]);
        let dead = b.state_labeled("dead", [Atom::plain("q")]);
        let c = b.state_labeled("c", [Atom::plain("r")]);
        let d = b.state_labeled("d", [Atom::plain("p")]);
        b.edges([(a, c), (c, d), (d, a), (dead, a)]);
        let m = b.build(a).unwrap();
        assert_eq!(m.labels.len(), 3);
        let (r, _) = m.restrict_to_reachable().unwrap();
        assert_eq!(r.labels.len(), 2, "{{q}} is carried by `dead` alone");
        assert_eq!(
            r.label_of,
            [0, 1, 0],
            "kept labels stay in first-seen order"
        );
        assert_eq!(r.label_atoms(StateId(1)), [Atom::plain("r")]);
        assert_eq!(r.atoms().len(), 3, "the atom table is kept whole");
    }

    #[test]
    fn builder_interns_equal_atom_sets_once_in_first_seen_order() {
        let (p, q, r) = (Atom::plain("p"), Atom::plain("q"), Atom::plain("r"));
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("s0", [q.clone(), p.clone()]);
        let s1 = b.state_labeled("s1", [r.clone()]);
        let s2 = b.state_labeled("s2", [p.clone(), q.clone(), p.clone()]);
        let s3 = b.state("s3");
        b.add_label(s3, r.clone()).add_label(s3, r.clone());
        // A label added after later states were created still counts.
        b.add_label(s1, q.clone());
        b.edges([(s0, s1), (s1, s2), (s2, s3), (s3, s0)]);
        let m = b.build(s0).unwrap();
        let order: Vec<_> = m.atoms().iter().map(|(_, a)| a.clone()).collect();
        assert_eq!(order, [q, p, r.clone()]);
        assert_eq!(m.label_of, [0, 1, 0, 2]);
        let table: Vec<Vec<usize>> = m.labels.iter().map(|l| l.iter().collect()).collect();
        assert_eq!(
            table,
            [vec![0, 1], vec![0, 2], vec![2]],
            "{{q, p}}, {{r, q}}, {{r}}"
        );
        assert_eq!(m.label_atoms(s3), [r]);
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
