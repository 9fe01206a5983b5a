//! The sequential BFS builder behind the counter structure, and the rows
//! both abstract structures are written into.
//!
//! [`explore`] explores flat `u32` vectors — occupancy vectors, for
//! [`CounterSystem::kripke`](crate::CounterSystem::kripke) and as the
//! reachability sweep the representative lift
//! ([`representative`](crate::representative)) starts from. Its
//! [`StateTable`] is the BFS queue and the dedup table in one: a state's
//! id is its queue position, and packed keys are deduplicated by open
//! addressing over a flat arena, with no allocation per state. Rows of
//! successors are written in CSR form as states are expanded, labels are
//! interned in first-seen order exactly as
//! [`icstar_kripke::KripkeBuilder`] interns them, and [`Rows::freeze`]
//! hands everything to [`Kripke::from_csr`].

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use icstar_kripke::bits::BitSet;
use icstar_kripke::{Atom, AtomTable, Kripke, StateId};

use crate::counter::CounterPacking;

/// An empty slot of the dedup table, or an atom not yet interned.
const NONE: u32 = u32::MAX;

/// The discovered states of one exploration, in discovery order.
pub(crate) struct StateTable {
    packing: CounterPacking,
    /// State `i` is `vecs[i * dim..][..dim]`, its packed key
    /// `keys[i * words..][..words]`.
    vecs: Vec<u32>,
    keys: Vec<u64>,
    dim: usize,
    words: usize,
    /// Linear-probing slots of state ids: a power of two, at most half
    /// full, indexed by the top `64 - shift` bits of the key's hash.
    slots: Vec<u32>,
    shift: u32,
    /// The key being looked up.
    key: Vec<u64>,
    /// Randomly keyed, as `HashMap`'s default: the template, and so
    /// every key, comes from outside the program.
    hasher: RandomState,
}

impl StateTable {
    /// An empty table of vectors packed by `packing`.
    pub(crate) fn new(packing: CounterPacking) -> Self {
        StateTable {
            packing,
            vecs: Vec::new(),
            keys: Vec::new(),
            dim: packing.slots(),
            words: packing.words(),
            slots: vec![NONE; 1024],
            shift: 64 - 10,
            key: vec![0; packing.words()],
            hasher: RandomState::new(),
        }
    }

    /// Number of states discovered so far.
    pub(crate) fn len(&self) -> usize {
        self.keys.len() / self.words
    }

    /// The vector of state `id`.
    pub(crate) fn state(&self, id: usize) -> &[u32] {
        &self.vecs[id * self.dim..][..self.dim]
    }

    /// Every state's vector, in id order.
    pub(crate) fn states(&self) -> impl Iterator<Item = &[u32]> {
        self.vecs.chunks_exact(self.dim)
    }

    /// The id of `v`, discovering it under the next id if it is new (the
    /// flag says whether it was).
    pub(crate) fn intern(&mut self, v: &[u32]) -> (u32, bool) {
        self.packing.pack_into(v, &mut self.key);
        let slot = match self.probe(&self.key) {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };
        let id = self.len() as u32;
        self.slots[slot] = id;
        self.keys.extend_from_slice(&self.key);
        self.vecs.extend_from_slice(v);
        if self.len() * 2 > self.slots.len() {
            self.slots = vec![NONE; self.slots.len() * 2];
            self.shift -= 1;
            for id in 0..self.len() {
                let slot = self.probe(&self.keys[id * self.words..][..self.words]);
                self.slots[slot.expect_err("keys are distinct")] = id as u32;
            }
        }
        (id, true)
    }

    /// The id of `v`, which must already be discovered.
    pub(crate) fn id(&mut self, v: &[u32]) -> u32 {
        let (id, new) = self.intern(v);
        debug_assert!(!new, "moves stay among the reachable states");
        id
    }

    /// The id stored under `key`, or the empty slot where it belongs.
    fn probe(&self, key: &[u64]) -> Result<u32, usize> {
        let mut slot = (self.hasher.hash_one(key) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                NONE => return Err(slot),
                id if self.keys[id as usize * self.words..][..self.words] == *key => return Ok(id),
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }
}

/// Explores breadth-first from `initial` over vectors packed by `packing`
/// and returns the structure's rows, the discovered states and the peak
/// frontier size.
///
/// `describe(v, label)` is called once per new state, in id order: it
/// pushes the state's label (positions in `universe`) and returns its
/// name. `moves(cur, emit)` emits every candidate successor of `cur` in
/// canonical order; each row keeps the first occurrence of each
/// successor, and a state with no candidate stutters.
pub(crate) fn explore(
    packing: CounterPacking,
    universe: Vec<Atom>,
    initial: &[u32],
    mut describe: impl FnMut(&[u32], &mut Vec<u32>) -> String,
    mut moves: impl FnMut(&[u32], &mut dyn FnMut(&[u32])),
) -> (Rows, StateTable, usize) {
    let mut table = StateTable::new(packing);
    let mut rows = Rows::new(universe);
    let mut label = Vec::new();
    let mut discover = |v: &[u32], table: &mut StateTable, rows: &mut Rows| -> u32 {
        let (id, new) = table.intern(v);
        if new {
            label.clear();
            let name = describe(v, &mut label);
            rows.add_state(name, &label);
        }
        id
    };
    discover(initial, &mut table, &mut rows);
    let (mut cur, mut frontier_peak, mut head) = (Vec::new(), 0, 0);
    while head < table.len() {
        frontier_peak = frontier_peak.max(table.len() - head);
        cur.clear();
        cur.extend_from_slice(table.state(head));
        moves(&cur, &mut |succ| {
            let to = discover(succ, &mut table, &mut rows);
            rows.add_edge(to);
        });
        rows.close_row(head as u32);
        head += 1;
    }
    (rows, table, frontier_peak)
}

/// A structure under construction: one row of successors per expanded
/// state, in id order, plus each discovered state's name and label.
pub(crate) struct Rows {
    /// Every atom a label may carry; labels name atoms by position here.
    universe: Vec<Atom>,
    /// Universe position → atom id, [`NONE`] until first seen.
    atom_id: Vec<u32>,
    /// Atom id → universe position: the atom table in first-seen order.
    seen: Vec<u32>,
    label_heads: Vec<u32>,
    label_ids: Vec<u32>,
    names: Vec<String>,
    succ_heads: Vec<u32>,
    succ_edges: Vec<StateId>,
}

impl Rows {
    /// No states yet; labels will name atoms by position in `universe`.
    pub(crate) fn new(universe: Vec<Atom>) -> Self {
        Rows {
            atom_id: vec![NONE; universe.len()],
            universe,
            seen: Vec::new(),
            label_heads: vec![0],
            label_ids: Vec::new(),
            names: Vec::new(),
            succ_heads: vec![0],
            succ_edges: Vec::new(),
        }
    }

    /// Records the next state's name and label (universe positions, in
    /// label order).
    pub(crate) fn add_state(&mut self, name: String, label: &[u32]) {
        for &u in label {
            if self.atom_id[u as usize] == NONE {
                self.atom_id[u as usize] = self.seen.len() as u32;
                self.seen.push(u);
            }
            self.label_ids.push(self.atom_id[u as usize]);
        }
        self.label_heads.push(self.label_ids.len() as u32);
        self.names.push(name);
    }

    /// Adds `to` to the open row unless it is already there.
    pub(crate) fn add_edge(&mut self, to: u32) {
        let row = *self.succ_heads.last().expect("one head per row, plus 0") as usize;
        if !self.succ_edges[row..].contains(&StateId(to)) {
            self.succ_edges.push(StateId(to));
        }
    }

    /// Closes the open row, that of state `from`: a state with no edge
    /// stutters.
    pub(crate) fn close_row(&mut self, from: u32) {
        if self.succ_heads.last() == Some(&(self.succ_edges.len() as u32)) {
            self.succ_edges.push(StateId(from));
        }
        self.succ_heads.push(self.succ_edges.len() as u32);
    }

    /// Number of edges written so far.
    pub(crate) fn num_edges(&self) -> usize {
        self.succ_edges.len()
    }

    /// Interns the atom table and label bitsets and freezes the CSR rows
    /// into a [`Kripke`] whose initial state is the first one discovered.
    pub(crate) fn freeze(self) -> Kripke {
        let mut atoms = AtomTable::new();
        for &u in &self.seen {
            atoms.intern(self.universe[u as usize].clone());
        }
        let labels = self.label_heads.windows(2).map(|w| {
            let ids = &self.label_ids[w[0] as usize..w[1] as usize];
            BitSet::from_iter_with_capacity(self.seen.len(), ids.iter().map(|&id| id as usize))
        });
        let labels = labels.collect();
        let (heads, edges, names) = (self.succ_heads, self.succ_edges, self.names);
        Kripke::from_csr(atoms, labels, heads, edges, StateId(0), names)
            .expect("abstract explorations are stutter-completed, hence total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_table_assigns_discovery_order_ids_across_growth() {
        let mut table = StateTable::new(CounterPacking::new(3, 5_000));
        for i in 0..5_000u32 {
            assert_eq!(table.intern(&[i, 5_000 - i, 0]), (i, true));
        }
        for i in (0..5_000u32).rev() {
            assert_eq!(table.intern(&[i, 5_000 - i, 0]), (i, false));
        }
        assert_eq!(table.len(), 5_000);
        assert_eq!(table.state(17), &[17, 4_983, 0]);
        assert_eq!(table.states().count(), 5_000);
    }

    #[test]
    fn explore_interns_atoms_first_seen_and_stutters_dead_ends() {
        // A counter 0 -> 1 -> 2 over one slot; 2 has no move. State i is
        // labeled with universe atom 2 - i, then atom 0.
        let universe = vec![Atom::plain("a"), Atom::plain("b"), Atom::plain("c")];
        let (rows, table, _) = explore(
            CounterPacking::new(1, 2),
            universe,
            &[0],
            |v, label| {
                label.extend([2 - v[0], 0]);
                format!("s{}", v[0])
            },
            |cur, emit| {
                if cur[0] < 2 {
                    emit(&[cur[0] + 1]);
                    emit(&[cur[0] + 1]);
                }
            },
        );
        assert_eq!(table.len(), 3);
        let k = rows.freeze();
        let order: Vec<String> = k.atoms().iter().map(|(_, a)| a.to_string()).collect();
        assert_eq!(order, ["c", "a", "b"]);
        assert_eq!(k.label(StateId(1)).iter().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(
            k.successors(StateId(0)),
            &[StateId(1)],
            "duplicates dropped"
        );
        assert_eq!(k.successors(StateId(2)), &[StateId(2)], "dead end stutters");
        assert_eq!(k.predecessors(StateId(2)), &[StateId(1), StateId(2)]);
        assert_eq!(k.state_name(StateId(1)), "s1");
    }
}
