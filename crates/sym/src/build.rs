//! The reachability sweep behind every abstract structure, and the rows
//! the one row writer ([`crate::rep`]) fills.
//!
//! [`sweep`] explores a [`CounterSystem`] breadth-first once and records
//! every reachable state's moves: one `(target id, move id)` pair per
//! move [`CounterSystem::each_move`] reports, in that order, duplicates
//! kept, in CSR form. It writes no row, name or label. Its
//! [`StateTable`] is the BFS queue and the dedup table in one: a state's
//! id is its queue position, and packed keys are deduplicated by open
//! addressing over a flat arena, with no allocation per state.
//!
//! The writer lifts the recorded moves into [`Rows`] at any width, the
//! counter structure being width 0. Atoms are numbered in first-seen
//! order and each state's label is interned into a [`LabelInterner`] as
//! the state is written, exactly as [`icstar_kripke::KripkeBuilder`]
//! interns them, so a state keeps one `u32` label id and no label list or
//! bitset of its own; [`Rows::freeze`] hands everything to
//! [`Kripke::from_csr`].

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use icstar_kripke::{Atom, AtomId, AtomTable, Kripke, LabelInterner, StateId};

use crate::counter::CounterPacking;
use crate::explore::CounterSystem;

/// An empty slot of the dedup table, or an atom not yet interned.
const NONE: u32 = u32::MAX;

/// The discovered states of one exploration, in discovery order. The
/// sweep frees its dedup index when it is done, so a swept table only
/// reads states.
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
        self.vecs.len() / self.dim
    }

    /// The vector of state `id`.
    pub(crate) fn state(&self, id: usize) -> &[u32] {
        &self.vecs[id * self.dim..][..self.dim]
    }

    /// Every state's vector, in id order.
    pub(crate) fn states(&self) -> impl Iterator<Item = &[u32]> {
        self.vecs.chunks_exact(self.dim)
    }

    /// The id of `v`, discovering it under the next id if it is new.
    pub(crate) fn intern(&mut self, v: &[u32]) -> u32 {
        self.packing.pack_into(v, &mut self.key);
        let slot = match self.probe(&self.key) {
            Ok(id) => return id,
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

/// One breadth-first sweep of a counter system: the reachable states and
/// every state's moves, recorded once so that a structure of any width is
/// written from them without generating a move again.
pub(crate) struct Sweep {
    /// The reachable states; a state's id is its discovery position.
    pub(crate) states: StateTable,
    /// The largest number of discovered states not yet expanded.
    pub(crate) frontier_peak: usize,
    /// Every state's moves.
    pub(crate) moves: Moves,
}

/// The moves of every swept state, in CSR form: one `(target id, move
/// id)` pair per move, in [`CounterSystem::each_move`] order, duplicates
/// kept.
pub(crate) struct Moves {
    /// State `i`'s moves are `pairs[heads[i]..heads[i + 1]]`.
    heads: Vec<u32>,
    pairs: Vec<(u32, u32)>,
}

impl Moves {
    /// The moves of state `i`.
    pub(crate) fn of(&self, i: usize) -> &[(u32, u32)] {
        &self.pairs[self.heads[i] as usize..self.heads[i + 1] as usize]
    }
}

/// Sweeps `sys` breadth-first from its initial state, recording every
/// enabled move of every reachable state. A state with no move records
/// none; the row writer stutters it.
pub(crate) fn sweep(sys: &CounterSystem) -> Sweep {
    let mut states = StateTable::new(*sys.packing());
    states.intern(sys.initial().counts());
    let (mut heads, mut pairs) = (vec![0], Vec::new());
    let (mut cur, mut next, mut frontier_peak) = (Vec::new(), Vec::new(), 0);
    // State `heads.len() - 1` is the next to expand.
    while heads.len() <= states.len() {
        frontier_peak = frontier_peak.max(states.len() + 1 - heads.len());
        cur.clear();
        cur.extend_from_slice(states.state(heads.len() - 1));
        sys.each_move(&cur, &mut next, |succ, mv| {
            pairs.push((states.intern(succ), mv));
        });
        heads.push(pairs.len() as u32);
    }
    // No state is looked up again: free the dedup index before the rows
    // are written, keeping only the vectors.
    (states.slots, states.keys) = (Vec::new(), Vec::new());
    Sweep {
        states,
        frontier_peak,
        moves: Moves { heads, pairs },
    }
}

/// A structure under construction: one row of successors per state, in
/// id order, plus each state's name and label id.
pub(crate) struct Rows {
    /// Every atom a label may carry; labels name atoms by position here.
    universe: Vec<Atom>,
    /// Universe position → atom id, [`NONE`] until first seen.
    atom_id: Vec<u32>,
    /// Atom id → universe position: the atom table in first-seen order.
    seen: Vec<u32>,
    /// The distinct labels, over atom ids.
    labels: LabelInterner,
    /// Each discovered state's id in `labels`.
    label_of: Vec<u32>,
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
            labels: LabelInterner::new(),
            label_of: Vec::new(),
            names: Vec::new(),
            succ_heads: vec![0],
            succ_edges: Vec::new(),
        }
    }

    /// Records the next state's name and interns its label (universe
    /// positions, in label order).
    pub(crate) fn add_state(&mut self, name: String, label: &[u32]) {
        let (atom_id, seen) = (&mut self.atom_id, &mut self.seen);
        let ids = label.iter().map(|&u| {
            let id = &mut atom_id[u as usize];
            if *id == NONE {
                *id = seen.len() as u32;
                seen.push(u);
            }
            AtomId(*id)
        });
        self.label_of.push(self.labels.intern(ids));
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

    /// Builds the atom table and the distinct label bitsets and freezes
    /// the CSR rows into a [`Kripke`] whose initial state is the first one
    /// written.
    pub(crate) fn freeze(self) -> Kripke {
        let mut atoms = AtomTable::new();
        for &u in &self.seen {
            atoms.intern(self.universe[u as usize].clone());
        }
        let labels = self.labels.finish(atoms.len());
        let (label_of, names) = (self.label_of, self.names);
        let (heads, edges) = (self.succ_heads, self.succ_edges);
        Kripke::from_csr(atoms, labels, label_of, heads, edges, StateId(0), names)
            .expect("abstract explorations are stutter-completed, hence total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::GuardedBuilder;

    #[test]
    fn state_table_assigns_discovery_order_ids_across_growth() {
        let mut table = StateTable::new(CounterPacking::new(3, 5_000));
        for i in 0..5_000u32 {
            assert_eq!(table.intern(&[i, 5_000 - i, 0]), i);
            assert_eq!(table.len(), i as usize + 1);
        }
        for i in (0..5_000u32).rev() {
            assert_eq!(table.intern(&[i, 5_000 - i, 0]), i);
        }
        assert_eq!(table.len(), 5_000);
        assert_eq!(table.state(17), &[17, 4_983, 0]);
        assert_eq!(table.states().count(), 5_000);
    }

    #[test]
    fn sweep_records_every_move_in_order_with_duplicates() {
        // a -> b twice, b -> a, and a broadcast from b whose response
        // map is the identity: it lands where b -> a does.
        let mut b = GuardedBuilder::new();
        let a = b.state("a", ["a"]);
        let bb = b.state("b", ["b"]);
        b.edge(a, bb);
        b.edge(a, bb);
        b.edge(bb, a);
        b.broadcast(bb, a, []);
        let sys = CounterSystem::new(b.build(a), 2);
        let sweep = sweep(&sys);
        let states: Vec<&[u32]> = sweep.states.states().collect();
        assert_eq!(states, [&[2, 0][..], &[1, 1], &[0, 2]], "discovery order");
        // Move ids: edges 0 and 1 are a -> b, edge 2 is b -> a, and the
        // broadcast comes after the edges.
        assert_eq!(sweep.moves.of(0), &[(1, 0), (1, 1)]);
        assert_eq!(sweep.moves.of(1), &[(2, 0), (2, 1), (0, 2), (0, 3)]);
        assert_eq!(sweep.moves.of(2), &[(1, 2), (1, 3)]);
        let moves = sys.template().moves();
        assert_eq!(moves[1].0, (0, 1));
        assert_eq!(moves[3].0, (1, 0));
        assert!(moves[2].1.is_none() && moves[3].1.is_some());
    }
}
