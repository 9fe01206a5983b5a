//! Fair CTL model checking (Clarke–Emerson–Sistla Section 5 / Emerson–Lei
//! style).
//!
//! The paper's token ring needs no fairness (token transfers are forced),
//! but most request/grant protocols do: without it, `AF served` fails on
//! the path where the scheduler ignores a client forever. This module
//! restricts path quantifiers to *fair* paths via the standard fair-SCC
//! construction.
//!
//! A [`TransFairness`] constraint is a conjunction of [`FairReq`]
//! requirements. A path meets a requirement iff infinitely often it is
//! in one of the requirement's *states* or traverses one of its *edges*.
//! The edges express **weak (action) fairness** — "while a move group
//! stays enabled, some move of the group is eventually taken" — which no
//! state set can, because "taken" is a property of a *transition*: the
//! states are where no move of the group is enabled (the requirement is
//! *released* there) and the edges are the group's moves. Classic
//! state-set fairness ("visit this set infinitely often") is the
//! requirement with no edges, `FairReq::new(set, [])`.
//!
//! The operators:
//!
//! * [`eg_fair`] — `E_fair G f`: the backward `f`-closure of the
//!   non-trivial SCCs of the `f`-restricted graph that, for every
//!   requirement, contain a released state or an internal requirement
//!   edge;
//! * [`fair_states`] — states from which some fair path starts
//!   (`E_fair G true`), computed once per constraint and memoized in it;
//! * [`eu_fair`], [`ex_fair`] — the plain operators against
//!   `fair ∧ goal`, and [`er_fair`] from `eu_fair` and `eg_fair`;
//! * [`af_fair`], [`ag_fair`], [`ax_fair`] — by duality
//!   (`AF_fair f = ¬E_fair G ¬f`).
//!
//! `eg_fair` is linear in `|S| + |R|` plus the requirements' sizes, and
//! reads no state's row twice. One `ctl::tarjan` pass over the
//! structure's successor rows, restricted to `f`, numbers the SCCs and
//! decides on the way whether each is non-trivial (it has two states or
//! a self-loop). Each requirement then marks the SCCs it hits from its
//! own flat data, without walking `f`: its released states word by word
//! over `f ∧ released` (64 states per step), and its edges as one
//! sequential sweep of a slice kept sorted by source and deduplicated,
//! so a hit is two SCC-id reads and no lookup. An SCC is fair iff it is
//! non-trivial and every requirement hits it; when none is, the
//! backward closure is skipped.
//!
//! Under the empty constraint every operator *is* the plain primitive of
//! [`crate::ctl`] and no fair-state set is computed. The model checker
//! evaluates formulas through these operators
//! ([`Checker::with_fairness`](crate::Checker::with_fairness)), so plain
//! checking is fair checking with no constraints.

use std::sync::OnceLock;

use icstar_kripke::bits::BitSet;
use icstar_kripke::Kripke;

use crate::ctl;

/// One transition-based fairness requirement: a path meets it iff
/// infinitely often it visits one of `states` **or** traverses one of
/// `edges`.
///
/// For weak (action) fairness of a move group, `states` is the set where
/// no move of the group is enabled (the requirement is *released* there)
/// and `edges` are the transitions realizing a move of the group. For
/// state-set fairness, `edges` is empty.
///
/// `edges` must be edges of the structure the requirement is checked
/// against; pairs outside the transition relation would let the fair-SCC
/// test accept components no actual path can satisfy.
#[derive(Clone, Debug)]
pub struct FairReq {
    states: BitSet,
    /// Sorted by `(source, target)`, without duplicates.
    edges: Box<[(u32, u32)]>,
}

impl FairReq {
    /// A requirement from its released-state set and its edges, in any
    /// order and with repeats allowed.
    pub fn new(states: BitSet, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut edges: Vec<(u32, u32)> = edges.into_iter().collect();
        edges.sort_unstable();
        edges.dedup();
        FairReq {
            states,
            edges: edges.into_boxed_slice(),
        }
    }

    /// The released states (visiting one infinitely often satisfies the
    /// requirement).
    pub fn states(&self) -> &BitSet {
        &self.states
    }

    /// The requirement edges (traversing one infinitely often satisfies
    /// the requirement), sorted by `(source, target)`, each once.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }
}

/// A conjunction of fairness requirements ([`FairReq`]): a path is fair
/// iff it meets **every** requirement. The empty conjunction makes every
/// path fair.
///
/// A non-empty constraint is compiled for **one** structure: its state
/// sets span exactly that structure's states and its edges are that
/// structure's transitions. It is only ever checked against that
/// structure, which is what lets it memoize the structure's fair-state
/// set ([`fair_states`]) on first use and hand it to every later fair
/// `EU`/`EX`/`AG` check. The empty constraint is structure-independent
/// and memoizes nothing, so one unconstrained value serves every
/// structure.
#[derive(Clone, Debug, Default)]
pub struct TransFairness {
    reqs: Vec<FairReq>,
    /// `E_fair G true` over the structure the constraint is compiled
    /// for, filled by the first fair check that needs it.
    fair_states: OnceLock<BitSet>,
}

impl TransFairness {
    /// No requirements: every path is fair.
    pub const fn unconstrained() -> Self {
        TransFairness {
            reqs: Vec::new(),
            fair_states: OnceLock::new(),
        }
    }

    /// Builds a constraint from requirements.
    ///
    /// # Panics
    ///
    /// Panics if the requirements' state sets disagree on capacity.
    pub fn new(reqs: impl IntoIterator<Item = FairReq>) -> Self {
        let reqs: Vec<FairReq> = reqs.into_iter().collect();
        if let Some(first) = reqs.first() {
            assert!(
                reqs.iter()
                    .all(|r| r.states.capacity() == first.states.capacity()),
                "fairness requirements must share a capacity"
            );
        }
        TransFairness {
            reqs,
            fair_states: OnceLock::new(),
        }
    }

    /// The requirements.
    pub fn reqs(&self) -> &[FairReq] {
        &self.reqs
    }

    /// Whether there are no requirements.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// The memoized fair-state set of the non-empty constraint over `m`,
    /// the structure it is compiled for.
    pub(crate) fn fair_set(&self, m: &Kripke) -> &BitSet {
        debug_assert!(!self.is_empty(), "the empty constraint memoizes nothing");
        self.assert_bound_to(m);
        self.fair_states
            .get_or_init(|| eg_fair(m, &ctl::full_set(m), self))
    }

    /// Panics unless the non-empty constraint spans `m`'s states. O(1),
    /// and kept in release builds: a constraint checked against another
    /// structure would read its state sets and edges as that structure's
    /// and answer garbage.
    fn assert_bound_to(&self, m: &Kripke) {
        assert_eq!(
            self.reqs[0].states.capacity(),
            m.num_states(),
            "a fairness constraint is bound to the structure it is compiled for"
        );
    }
}

/// `E_fair G f`: states with a path staying in `f` forever that meets
/// every [`FairReq`] infinitely often.
///
/// Computation: restrict to `f`; an SCC of the restriction hosts a fair
/// cycle iff it is non-trivial and, for every requirement, contains a
/// released state or an internal requirement edge; take the backward
/// `f`-closure of those SCCs. Unconstrained, this is [`ctl::eg`].
pub fn eg_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    if fair.is_empty() {
        return ctl::eg(m, f);
    }
    fair.assert_bound_to(m);
    let (heads, succs) = m.succ_csr();
    let f_words = f.words();
    let in_f = |t: u32| ctl::has_bit(f_words, t as usize);
    // Every `f`-state is a root, so exactly the `f`-states get an SCC.
    let (comp, mut fair_comp) = ctl::tarjan(heads, succs, in_f, f.iter().map(|s| s as u32));
    // A non-trivial SCC is fair iff every requirement hits it.
    let mut hit = vec![false; fair_comp.len()];
    for req in fair.reqs() {
        if !fair_comp.contains(&true) {
            break;
        }
        hit.fill(false);
        // A released state of the SCC, word by word over `f ∧ released`.
        for (w, (&fw, &rw)) in f_words.iter().zip(req.states().words()).enumerate() {
            let mut bits = fw & rw;
            while bits != 0 {
                hit[comp[w * 64 + bits.trailing_zeros() as usize] as usize] = true;
                bits &= bits - 1;
            }
        }
        // An SCC-internal requirement edge, which a path cycling through
        // the SCC can traverse infinitely often.
        for &(u, v) in req.edges() {
            let c = comp[u as usize];
            if c != u32::MAX && c == comp[v as usize] {
                hit[c as usize] = true;
            }
        }
        for (fair, &hit) in fair_comp.iter_mut().zip(&hit) {
            *fair &= hit;
        }
    }
    if !fair_comp.contains(&true) {
        return BitSet::new(m.num_states());
    }
    if !fair_comp.contains(&false) {
        // Every `f`-state lies on a fair SCC of `f`.
        return f.clone();
    }
    // One pass suffices: each seed is a whole fair SCC of the candidate
    // set, and it stays a fair SCC inside the backward closure. A second
    // pass therefore finds the same seeds and the same closure.
    let mut seeds = f.clone();
    for (w, word) in seeds.words_mut().iter_mut().enumerate() {
        let mut bits = *word;
        while bits != 0 {
            let s = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if !fair_comp[comp[s] as usize] {
                *word &= !(1 << (s % 64));
            }
        }
    }
    ctl::eu(m, f, &seeds)
}

/// The states from which some fair path starts (`E_fair G true`).
///
/// Computed once per non-empty constraint (a Tarjan pass plus a backward
/// closure) and memoized inside `fair`, so repeated checks against the
/// same cached structure pay for it once; `m` must be the structure
/// `fair` is compiled for (see [`TransFairness`]). Unconstrained, every
/// state starts a fair path, since the transition relation is total.
pub fn fair_states(m: &Kripke, fair: &TransFairness) -> BitSet {
    if fair.is_empty() {
        return ctl::full_set(m);
    }
    fair.fair_set(m).clone()
}

/// `E_fair[f U g]`: a fair path satisfying the until. Equals
/// `E[f U (g ∧ fair)]` where `fair` marks fair-path starts;
/// unconstrained, this is [`ctl::eu`].
pub fn eu_fair(m: &Kripke, f: &BitSet, g: &BitSet, fair: &TransFairness) -> BitSet {
    if fair.is_empty() {
        return ctl::eu(m, f, g);
    }
    let mut target = g.clone();
    target.intersect_with(fair.fair_set(m));
    ctl::eu(m, f, &target)
}

/// `E_fair[f R g] = E_fair[g U (f ∧ g)] ∨ E_fair G g`; unconstrained,
/// this is [`ctl::er`].
pub fn er_fair(m: &Kripke, f: &BitSet, g: &BitSet, fair: &TransFairness) -> BitSet {
    if fair.is_empty() {
        return ctl::er(m, f, g);
    }
    let mut fg = f.clone();
    fg.intersect_with(g);
    let mut out = eu_fair(m, g, &fg, fair);
    out.union_with(&eg_fair(m, g, fair));
    out
}

/// `EX_fair f`: some successor starting a fair path satisfies `f`;
/// unconstrained, this is [`ctl::pre_exists`].
pub fn ex_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    if fair.is_empty() {
        return ctl::pre_exists(m, f);
    }
    let mut target = f.clone();
    target.intersect_with(fair.fair_set(m));
    ctl::pre_exists(m, &target)
}

/// `AX_fair f = ¬EX_fair ¬f`; unconstrained, this is [`ctl::pre_all`].
pub fn ax_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    if fair.is_empty() {
        return ctl::pre_all(m, f);
    }
    let mut nf = f.clone();
    nf.complement();
    let mut bad = ex_fair(m, &nf, fair);
    bad.complement();
    bad
}

/// `AF_fair f = ¬E_fair G ¬f`: on every fair path, eventually `f`.
pub fn af_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    let mut nf = f.clone();
    nf.complement();
    let mut bad = eg_fair(m, &nf, fair);
    bad.complement();
    bad
}

/// `AG_fair f = ¬E_fair[true U ¬f]`: along every fair path, globally `f`.
pub fn ag_fair(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
    let mut nf = f.clone();
    nf.complement();
    let mut bad = eu_fair(m, &ctl::full_set(m), &nf, fair);
    bad.complement();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_kripke::{Atom, KripkeBuilder, StateId};

    /// A scheduler that may ignore client 2 forever:
    /// s0 (serve nobody) -> s1 (serve 1) -> s0, s0 -> s2 (serve 2) -> s0.
    fn scheduler() -> (Kripke, BitSet, BitSet) {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("idle", [Atom::plain("idle")]);
        let s1 = b.state_labeled("serve1", [Atom::plain("g1")]);
        let s2 = b.state_labeled("serve2", [Atom::plain("g2")]);
        b.edge(s0, s1);
        b.edge(s1, s0);
        b.edge(s0, s2);
        b.edge(s2, s0);
        let m = b.build(s0).unwrap();
        let g1 = BitSet::from_iter_with_capacity(3, [1usize]);
        let g2 = BitSet::from_iter_with_capacity(3, [2usize]);
        (m, g1, g2)
    }

    /// State-set fairness: visit every set infinitely often.
    fn visit_each(sets: impl IntoIterator<Item = BitSet>) -> TransFairness {
        TransFairness::new(sets.into_iter().map(|set| FairReq::new(set, [])))
    }

    #[test]
    fn unconstrained_fairness_is_plain_ctl() {
        let (m, g1, _) = scheduler();
        let fair = TransFairness::unconstrained();
        assert_eq!(af_fair(&m, &g1, &fair), {
            let mut n = ctl::eg(&m, &{
                let mut c = g1.clone();
                c.complement();
                c
            });
            n.complement();
            n
        });
        assert_eq!(fair_states(&m, &fair), ctl::full_set(&m));
    }

    #[test]
    fn fairness_rescues_liveness() {
        let (m, g1, g2) = scheduler();
        // Plain AF g2 fails at s0: the path (s0 s1)^ω never serves 2.
        let plain_af_g2 = {
            let mut n = g2.clone();
            n.complement();
            let mut bad = ctl::eg(&m, &n);
            bad.complement();
            bad
        };
        assert!(!plain_af_g2.contains(0));
        // Under the fairness constraint "serve 2 infinitely often", AF g2
        // holds everywhere.
        let fair = visit_each([g2.clone()]);
        let fair_af = af_fair(&m, &g2, &fair);
        assert!(fair_af.contains(0));
        assert!(fair_af.contains(1));
        // And EG ¬g2 under that fairness is empty.
        let mut ng2 = g2.clone();
        ng2.complement();
        assert!(eg_fair(&m, &ng2, &fair).is_empty());
        // g1's liveness under g2-fairness: serving 1 infinitely often is
        // not required, so AF g1 still fails at s0 (fair path (s0 s2)^ω).
        let fair_af_g1 = af_fair(&m, &g1, &fair);
        assert!(!fair_af_g1.contains(0));
    }

    #[test]
    fn multiple_constraints_intersect() {
        let (m, g1, g2) = scheduler();
        // Fair = serve 1 AND serve 2 infinitely often: both livenesses.
        let fair = visit_each([g1.clone(), g2.clone()]);
        assert!(af_fair(&m, &g1, &fair).contains(0));
        assert!(af_fair(&m, &g2, &fair).contains(0));
        // Fair states: the whole (strongly connected) graph.
        assert_eq!(fair_states(&m, &fair).len(), 3);
    }

    #[test]
    fn unsatisfiable_fairness_empties_everything() {
        let (m, _, _) = scheduler();
        // Constraint set empty: no path can visit it infinitely often.
        let fair = visit_each([BitSet::new(3)]);
        assert!(fair_states(&m, &fair).is_empty());
        let goal = BitSet::from_iter_with_capacity(3, [0usize]);
        // E_fair[true U goal] is empty too (no fair continuation).
        assert!(eu_fair(&m, &ctl::full_set(&m), &goal, &fair).is_empty());
        // AF_fair trivially holds (no fair paths to violate it).
        assert_eq!(af_fair(&m, &goal, &fair).len(), 3);
    }

    #[test]
    fn eg_fair_requires_containment() {
        let (m, g1, g2) = scheduler();
        // E_fair G ¬g1 with fairness g2: loop s0 <-> s2 avoids g1 and
        // serves 2 infinitely often.
        let mut ng1 = g1.clone();
        ng1.complement();
        let fair = visit_each([g2]);
        let r = eg_fair(&m, &ng1, &fair);
        assert!(r.contains(0));
        assert!(r.contains(2));
        assert!(!r.contains(1)); // s1 is a g1 state
    }

    #[test]
    fn ex_fair_filters_successors() {
        let (m, _, g2) = scheduler();
        // Make only s2's lineage fair.
        let fair = visit_each([g2.clone()]);
        // EX_fair g2: a successor in g2 that starts a fair path: s0 -> s2.
        let r = ex_fair(&m, &g2, &fair);
        assert!(r.contains(0));
        assert!(!r.contains(1));
    }

    #[test]
    #[should_panic(expected = "share a capacity")]
    fn trans_mismatched_capacities_rejected() {
        TransFairness::new([
            FairReq::new(BitSet::new(3), []),
            FairReq::new(BitSet::new(4), []),
        ]);
    }

    /// idle -> idle (stutter), idle -> done -> done: weak fairness of the
    /// idle -> done move forbids stuttering forever.
    fn stutter_escape() -> (Kripke, BitSet, TransFairness) {
        let mut b = KripkeBuilder::new();
        let idle = b.state_labeled("idle", [Atom::plain("idle")]);
        let done = b.state_labeled("done", [Atom::plain("done")]);
        b.edge(idle, idle);
        b.edge(idle, done);
        b.edge(done, done);
        let m = b.build(idle).unwrap();
        let done_set = BitSet::from_iter_with_capacity(2, [1usize]);
        let fair = TransFairness::new([FairReq::new(done_set.clone(), [(0u32, 1u32)])]);
        (m, done_set, fair)
    }

    #[test]
    fn edge_fairness_rescues_stutter_liveness() {
        let (m, done, fair) = stutter_escape();
        // Plain AF done fails at idle (the stutter loop) ...
        let mut ndone = done.clone();
        ndone.complement();
        assert!(ctl::eg(&m, &ndone).contains(0));
        // ... but no fair path stutters forever: the idle self-loop SCC has
        // neither a released state nor the idle -> done edge internal.
        assert!(eg_fair(&m, &ndone, &fair).is_empty());
        let af = af_fair(&m, &done, &fair);
        assert!(af.contains(0) && af.contains(1));
        // Every state still starts a fair path.
        assert_eq!(fair_states(&m, &fair).len(), 2);
    }

    #[test]
    fn state_set_fairness_is_the_edge_free_case() {
        // Visiting a set infinitely often is entering it infinitely often:
        // the edge-free requirement on g agrees with the state-free
        // requirement on the edges into g.
        let (m, g1, g2) = scheduler();
        let into = |set: &BitSet| -> Vec<(u32, u32)> {
            m.states()
                .flat_map(|s| m.successors(s).iter().map(move |&t| (s.0, t.0)))
                .filter(|&(_, t)| set.contains(t as usize))
                .collect()
        };
        let sets = visit_each([g1.clone(), g2.clone()]);
        let edges = TransFairness::new([
            FairReq::new(BitSet::new(3), into(&g1)),
            FairReq::new(BitSet::new(3), into(&g2)),
        ]);
        for goal in [&g1, &g2] {
            assert_eq!(af_fair(&m, goal, &sets), af_fair(&m, goal, &edges));
            assert_eq!(eg_fair(&m, goal, &sets), eg_fair(&m, goal, &edges));
        }
        assert_eq!(fair_states(&m, &sets), fair_states(&m, &edges));
    }

    #[test]
    fn internal_edge_only_counts_inside_its_scc() {
        let (m, _, _) = scheduler();
        // Require the s1 -> s0 edge infinitely often: forces serving 1.
        let fair = TransFairness::new([FairReq::new(BitSet::new(3), [(1u32, 0u32)])]);
        let g1 = BitSet::from_iter_with_capacity(3, [1usize]);
        assert!(af_fair(&m, &g1, &fair).contains(0));
        // Restricted to ¬g1, the edge is not internal to any SCC: no fair
        // path avoids g1 forever.
        let mut ng1 = g1.clone();
        ng1.complement();
        assert!(eg_fair(&m, &ng1, &fair).is_empty());
    }

    #[test]
    fn fair_states_are_memoized_once_per_constraint() {
        for (m, fair) in [
            {
                let (m, _, g2) = scheduler();
                (m, visit_each([g2]))
            },
            {
                let (m, _, fair) = stutter_escape();
                (m, fair)
            },
            {
                // Unsatisfiable: the memo is the empty set.
                let (m, ..) = scheduler();
                (m, visit_each([BitSet::new(3)]))
            },
        ] {
            assert!(fair.fair_states.get().is_none());
            let first = fair_states(&m, &fair);
            let memo: *const BitSet = fair.fair_states.get().expect("memo filled");
            assert_eq!(fair_states(&m, &fair), first);
            assert!(std::ptr::eq(fair.fair_set(&m), memo), "computed twice");
            assert_eq!(first, eg_fair(&m, &ctl::full_set(&m), &fair));
            // A clone carries the memo, and agrees with a fresh constraint
            // over the same requirements on every operator.
            let (clone, fresh) = (fair.clone(), TransFairness::new(fair.reqs().to_vec()));
            assert!(clone.fair_states.get().is_some() && fresh.fair_states.get().is_none());
            assert_eq!(fair_states(&m, &clone), fair_states(&m, &fresh));
            for goal in m
                .states()
                .map(|s| BitSet::from_iter_with_capacity(m.num_states(), [s.idx()]))
            {
                assert_eq!(
                    eu_fair(&m, &ctl::full_set(&m), &goal, &clone),
                    eu_fair(&m, &ctl::full_set(&m), &goal, &fresh)
                );
                assert_eq!(ex_fair(&m, &goal, &clone), ex_fair(&m, &goal, &fresh));
                assert_eq!(ag_fair(&m, &goal, &clone), ag_fair(&m, &goal, &fresh));
            }
        }
    }

    #[test]
    fn unconstrained_fair_states_memoize_nothing() {
        // One empty constraint serves structures of every size.
        let fair = TransFairness::unconstrained();
        let (small, ..) = scheduler();
        let (tiny, ..) = stutter_escape();
        assert_eq!(fair_states(&small, &fair).len(), 3);
        assert_eq!(fair_states(&tiny, &fair).len(), 2);
        assert!(fair.fair_states.get().is_none());
    }

    #[test]
    #[should_panic(expected = "bound to the structure")]
    fn constraint_checked_against_another_structure_is_caught() {
        let (_, _, fair) = stutter_escape();
        let (other, ..) = scheduler();
        fair_states(&other, &fair);
    }

    #[test]
    #[should_panic(expected = "bound to the structure")]
    fn fair_eg_against_another_structure_is_caught() {
        let (_, _, fair) = stutter_escape();
        let (other, ..) = scheduler();
        eg_fair(&other, &ctl::full_set(&other), &fair);
    }

    /// `E_fair G f` from its definition, without Tarjan: SCCs of the
    /// `f`-restricted graph from its transitive closure, then the
    /// backward `f`-closure of the fair ones by iterated pre-image.
    fn eg_fair_oracle(m: &Kripke, f: &BitSet, fair: &TransFairness) -> BitSet {
        let n = m.num_states();
        // reach[u][v]: a path of one step or more from u to v inside f.
        let mut reach = vec![vec![false; n]; n];
        for u in f.iter() {
            for t in m.successors(StateId(u as u32)) {
                reach[u][t.idx()] = f.contains(t.idx());
            }
        }
        for k in 0..n {
            for u in 0..n {
                for v in 0..n {
                    reach[u][v] |= reach[u][k] && reach[k][v];
                }
            }
        }
        let mut z = BitSet::new(n);
        for u in f.iter().filter(|&u| reach[u][u]) {
            let scc: Vec<usize> = (0..n).filter(|&v| reach[u][v] && reach[v][u]).collect();
            let hit = |req: &FairReq| {
                scc.iter().any(|&v| req.states().contains(v))
                    || (req.edges().iter())
                        .any(|&(a, b)| scc.contains(&(a as usize)) && scc.contains(&(b as usize)))
            };
            if fair.reqs().iter().all(hit) {
                z.insert(u);
            }
        }
        loop {
            let pre: Vec<usize> = f
                .iter()
                .filter(|&s| !z.contains(s))
                .filter(|&s| {
                    m.successors(StateId(s as u32))
                        .iter()
                        .any(|t| z.contains(t.idx()))
                })
                .collect();
            if pre.is_empty() {
                return z;
            }
            pre.into_iter().for_each(|s| {
                z.insert(s);
            });
        }
    }

    #[test]
    fn eg_fair_matches_the_closure_oracle_on_random_structures() {
        use icstar_kripke::gen::{random_kripke, RandomConfig};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x0fa1_e5cc);
        let (mut self_loops, mut crossing, mut released, mut nonempty) = (0, 0, 0, 0);
        for trial in 0..500 {
            let m = random_kripke(
                &mut rng,
                &RandomConfig {
                    states: 1 + trial % 12,
                    mean_out_degree: 1.0 + (trial % 3) as f64,
                    ..RandomConfig::default()
                },
            );
            let n = m.num_states();
            let subset = |rng: &mut StdRng, density: f64| {
                BitSet::from_iter_with_capacity(n, (0..n).filter(|_| rng.random_bool(density)))
            };
            let f = if trial % 5 == 0 {
                ctl::full_set(&m)
            } else {
                subset(&mut rng, 0.8)
            };
            let all_edges: Vec<(u32, u32)> = m
                .states()
                .flat_map(|s| m.successors(s).iter().map(move |t| (s.0, t.0)))
                .collect();
            let reqs: Vec<FairReq> = (0..1 + trial % 3)
                .map(|_| {
                    let density = [0.0, 0.1, 0.3][rng.random_range(0usize..3)];
                    let states = subset(&mut rng, density);
                    let p = [0.0, 0.2, 0.5][rng.random_range(0usize..3)];
                    let edges: Vec<(u32, u32)> = (all_edges.iter().copied())
                        .filter(|_| rng.random_bool(p))
                        .collect();
                    released += states.len();
                    self_loops += edges.iter().filter(|(a, b)| a == b).count();
                    // Edges leaving the f-restricted SCC of their source.
                    let (heads, succs) = m.succ_csr();
                    let keep = |t: u32| f.contains(t as usize);
                    let (comp, _) = ctl::tarjan(heads, succs, keep, f.iter().map(|s| s as u32));
                    crossing += (edges.iter())
                        .filter(|&&(a, b)| comp[a as usize] != comp[b as usize])
                        .count();
                    // Repeats and disorder are the constructor's to fix.
                    let mut shuffled = edges.clone();
                    shuffled.extend(edges.iter().rev());
                    FairReq::new(states, shuffled)
                })
                .collect();
            let fair = TransFairness::new(reqs);
            let got = eg_fair(&m, &f, &fair);
            assert_eq!(got, eg_fair_oracle(&m, &f, &fair), "trial {trial}");
            nonempty += usize::from(!got.is_empty());
        }
        assert!(
            self_loops > 200,
            "only {self_loops} self-loop requirement edges"
        );
        assert!(
            crossing > 500,
            "only {crossing} requirement edges between SCCs"
        );
        assert!(released > 400, "only {released} released states");
        assert!(nonempty > 100, "only {nonempty} non-empty E_fair G sets");
    }

    #[test]
    fn requirement_edges_are_sorted_and_deduplicated() {
        let req = FairReq::new(BitSet::new(3), [(2, 0), (0, 1), (2, 0), (0, 0)]);
        assert_eq!(req.edges(), &[(0, 0), (0, 1), (2, 0)]);
    }

    mod checker {
        use super::*;
        use crate::{Checker, McError};
        use icstar_logic::{parse_path, parse_state};
        use std::rc::Rc;

        fn check(m: &Kripke, fair: &TransFairness, f: &str) -> bool {
            let parsed = parse_state(f).unwrap();
            Checker::with_fairness(m, fair).holds(&parsed).unwrap()
        }

        #[test]
        fn unconstrained_matches_plain_checker() {
            // Released everywhere: every path is fair, yet every EG takes
            // the fair-SCC route.
            let (m, _, _) = scheduler();
            let fair = visit_each([ctl::full_set(&m)]);
            for f in [
                "AF g1",
                "AF g2",
                "AG (idle -> EX g1)",
                "E[idle U g2]",
                "A[idle U g2]",
                "EG !g2",
                "AG EF idle",
                "AG AF idle",
                "EX g1",
                "AX (g1 | g2)",
                "E[g1 R !g2]",
                "A[g2 R !g1]",
                "EF (g1 & EX idle)",
            ] {
                let parsed = parse_state(f).unwrap();
                let plain = Checker::new(&m).holds(&parsed).unwrap();
                assert_eq!(check(&m, &fair, f), plain, "formula {f}");
            }
        }

        #[test]
        fn fair_liveness_through_formulas() {
            let (m, _, g2) = scheduler();
            let fair = visit_each([BitSet::new(3)]);
            // Unsatisfiable fairness (empty set, no edges): AF holds
            // vacuously, EF fails.
            assert!(check(&m, &fair, "AF g2"));
            assert!(!check(&m, &fair, "EF g2"));
            // Serve-2 fairness: AF g2 and AG AF g2 hold; EG !g2 fails.
            let fair = visit_each([g2]);
            assert!(check(&m, &fair, "AF g2"));
            assert!(check(&m, &fair, "AG AF g2"));
            assert!(!check(&m, &fair, "EG !g2"));
            // But g1 can still starve on the fair path (s0 s2)^ω.
            assert!(!check(&m, &fair, "AF g1"));
        }

        #[test]
        fn edge_fairness_through_formulas() {
            let (m, _, fair) = stutter_escape();
            assert!(check(&m, &fair, "AF done"));
            assert!(check(&m, &fair, "AG AF done"));
            assert!(!check(&m, &fair, "EG idle"));
            // Safety is untouched by (machine-closed) weak fairness.
            assert!(check(&m, &fair, "EF done"));
            assert!(check(&m, &fair, "AG (idle | done)"));
            // A [idle U done]: every fair path eventually leaves idle.
            assert!(check(&m, &fair, "A[idle U done]"));
            // Duals.
            assert!(check(&m, &fair, "A[done R (idle | done)]"));
            assert!(check(&m, &fair, "E[done R (idle | done)]"));
            assert!(check(&m, &fair, "AX (idle | done)"));
        }

        #[test]
        fn non_ctl_rejected() {
            let (m, _, g2) = scheduler();
            let fair = visit_each([g2]);
            for f in ["E(F G g1)", "A(F g1 & F g2)", "E(g1 U (g2 U idle))"] {
                let parsed = parse_state(f).unwrap();
                let err = Checker::with_fairness(&m, &fair)
                    .holds(&parsed)
                    .unwrap_err();
                assert!(
                    matches!(err, McError::NotCtl(_)),
                    "formula {f} gave {err:?}"
                );
            }
        }

        #[test]
        fn recurrence_is_not_ctl_under_fairness() {
            // E(G F p) needs the Büchi route, which ignores fairness: under
            // a constraint it is refused, unconstrained it is answered.
            let (m, _, g2) = scheduler();
            let f = parse_state("E(G F g2)").unwrap();
            let fair = visit_each([g2]);
            assert!(matches!(
                Checker::with_fairness(&m, &fair).holds(&f),
                Err(McError::NotCtl(_))
            ));
            assert!(Checker::new(&m).holds(&f).unwrap());
        }

        #[test]
        fn witness_refused_under_fairness() {
            let (m, _, fair) = stutter_escape();
            let p = parse_path("G idle").unwrap();
            assert!(matches!(
                Checker::with_fairness(&m, &fair).exists_witness(StateId(0), &p),
                Err(McError::FairWitness)
            ));
            // The unconstrained lasso is the stutter loop no fair path takes.
            assert!(Checker::new(&m)
                .exists_witness(StateId(0), &p)
                .unwrap()
                .is_some());
        }

        #[test]
        fn free_variables_and_quantifiers_rejected() {
            let (m, _, _) = scheduler();
            let fair = TransFairness::unconstrained();
            let free = parse_state("AF crit[i]").unwrap();
            assert!(matches!(
                Checker::with_fairness(&m, &fair).holds(&free),
                Err(McError::FreeIndexVariable(_))
            ));
            let quant = parse_state("forall i. AF crit[i]").unwrap();
            assert!(matches!(
                Checker::with_fairness(&m, &fair).holds(&quant),
                Err(McError::QuantifierWithoutIndexSet(_))
            ));
        }

        #[test]
        fn cache_is_shared_across_queries() {
            let (m, _, g2) = scheduler();
            let fair = visit_each([g2]);
            let mut chk = Checker::with_fairness(&m, &fair);
            let f = parse_state("AF g2").unwrap();
            let a = chk.sat(&f).unwrap();
            let b = chk.sat(&f).unwrap();
            assert!(Rc::ptr_eq(&a, &b));
            assert!(chk.holds_at(StateId(2), &f).unwrap());
            assert_eq!(chk.structure().num_states(), 3);
        }
    }
}
