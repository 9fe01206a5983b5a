//! The multi-representative construction.
//!
//! Counting atoms alone cannot express indexed properties like
//! `forall i. AG(try[i] -> EF crit[i])`, let alone nested ones like
//! `forall i. exists j. AG(crit[i] -> !crit[j])`. The fix is classic:
//! track a small tuple of `k` distinguished copies explicitly — their
//! local states, labeled with indexed atoms `p[1] … p[k]` — and abstract
//! the remaining `n - k` copies to a counter vector. The result is the
//! quotient of the explicit composition under the symmetries fixing
//! copies `1..=k` pointwise, so it is strongly bisimilar to the explicit
//! structure with respect to `{p[c] : c ≤ k} ∪ counting atoms`. The
//! width `k` is chosen per formula: the quantifier nesting depth
//! ([`icstar_logic::restricted_depth`]), capped at `n`.
//!
//! **A lift of the counter reachability set.** Premise: full symmetry
//! and one initial local state. So once occupancy `c` is reachable, so
//! is every split `(c − t, t)` with a tuple `t` of tracked locals fitting
//! inside `c` (permute the copies), and its moves are those of `c`,
//! fired by a tracked or an untracked copy. No second exploration runs;
//! this is German–Sistla's "one process plus environment" construction.
//!
//! **Soundness boundary.** Full symmetry makes all copies interchangeable
//! *at the symmetric initial state*: a quantifier with `d` outer index
//! values in scope only distinguishes its candidates up to the equality
//! pattern with those values, so it ranges over `{1..d}` plus one fresh
//! representative ([`icstar_logic::expand_representatives`]). The
//! k-restricted fragment (nesting allowed, no quantifier under `U`-like
//! operators — [`icstar_logic::restricted_depth`]) guarantees index
//! quantifiers are evaluated only at the initial state, where that
//! argument applies. Outside the fragment (e.g. `AG (exists i. c[i])`) a
//! quantifier would be evaluated at non-symmetric states, where the
//! representatives no longer speak for every copy — the engine rejects
//! such formulas instead of answering unsoundly.

use icstar_kripke::{Atom, Index, IndexedKripke};

use crate::build::{self, Rows, StateTable};
use crate::counter::CounterState;
use crate::error::SymError;
use crate::explore::CounterSystem;
use crate::labels::{CountingSpec, LabelTable};

/// The index carried by the first distinguished copy in representative
/// structures; a width-`k` structure labels its tracked copies
/// `REPRESENTATIVE_INDEX..=k`.
pub const REPRESENTATIVE_INDEX: Index = 1;

/// One state of the multi-representative construction: the local state of
/// each tracked copy plus the occupancy vector of the other `n - k`
/// copies.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RepState {
    /// Local states of the distinguished copies, in index order (the
    /// copy labeled `p[c]` is `locals[c - 1]`).
    pub locals: Vec<u32>,
    /// Occupancy of the remaining copies.
    pub others: CounterState,
}

impl RepState {
    /// The occupancy of all `n` copies: `others` plus every tracked copy.
    pub fn total_counts(&self, num_locals: usize) -> CounterState {
        let mut counts = self.others.counts().to_vec();
        debug_assert_eq!(counts.len(), num_locals);
        for &l in &self.locals {
            counts[l as usize] += 1;
        }
        CounterState::new(counts)
    }

    /// The number of tracked copies.
    pub fn width(&self) -> u32 {
        self.locals.len() as u32
    }
}

/// The width-`k` representative abstraction of `sys`: copies `1..=k`
/// explicit, the other `n - k` copies counter-abstracted. The result is
/// an [`IndexedKripke`] with index set `{1..=k}`, ready for
/// [`icstar_mc::IndexedChecker`] or the canonical tuple expansion
/// ([`icstar_logic::expand_representatives`]).
///
/// Transitions mirror the explicit interleaving: one copy — tracked or
/// abstracted — fires a single enabled move, or a broadcast fires, in
/// which case *every* tracked copy that is not the initiator follows the
/// response map along with the abstracted ones (a distinguished copy is
/// distinguished only in its labeling, never in its behavior).
///
/// # Errors
///
/// [`SymError::EmptyFamily`] when the system has no copies;
/// [`SymError::BadRepWidth`] unless `1 ≤ width ≤ n`.
pub fn representative(
    sys: &CounterSystem,
    spec: &CountingSpec,
    width: u32,
) -> Result<IndexedKripke, SymError> {
    representative_with_states(sys, spec, width).map(|(m, _)| m)
}

/// [`representative`] plus the [`RepState`] of every structure state,
/// indexed by [`StateId`](icstar_kripke::StateId) (position `i` is the
/// state with id `i`).
///
/// # Errors
///
/// As for [`representative`].
pub fn representative_with_states(
    sys: &CounterSystem,
    spec: &CountingSpec,
    width: u32,
) -> Result<(IndexedKripke, Vec<RepState>), SymError> {
    let (kripke, lift) = build_rep(sys, spec, width, |_, _, _| {})?;
    let states = (0..lift.counters.len())
        .flat_map(|i| lift.range(i).map(move |s| (i, s)))
        .map(|(i, s)| {
            let locals = lift.tuple(s).to_vec();
            let mut others = lift.counters.state(i).to_vec();
            for &l in &locals {
                others[l as usize] -= 1;
            }
            RepState {
                locals,
                others: CounterState::new(others),
            }
        })
        .collect();
    Ok((kripke, states))
}

/// The states `(c, t)` of a width-`k` structure, numbered by counter
/// state `c` (BFS order), then by fitting tuple `t` (lexicographic): one
/// offset per counter state plus one tuple per structure state.
pub(crate) struct Lift {
    /// The reachable counter states.
    counters: StateTable,
    /// The states over counter state `i` are `heads[i]..heads[i + 1]`.
    heads: Vec<u32>,
    /// The tracked locals of state `s`: `tuples[s * width..][..width]`.
    tuples: Vec<u32>,
    width: usize,
}

impl Lift {
    /// Numbers the fitting tuples of every counter state in `counters`.
    fn new(counters: StateTable, width: usize) -> Self {
        let (mut heads, mut tuples) = (vec![0], Vec::new());
        let (mut free, mut tuple) = (Vec::new(), Vec::with_capacity(width));
        for c in counters.states() {
            // Depth-first over positions, trying local states in order
            // while copies are left in them.
            free.clear();
            free.extend_from_slice(c);
            let mut from = 0;
            loop {
                if tuple.len() == width {
                    tuples.extend_from_slice(&tuple);
                } else if let Some(q) = (from..free.len()).find(|&q| free[q] > 0) {
                    free[q] -= 1;
                    tuple.push(q as u32);
                    from = 0;
                    continue;
                }
                let Some(q) = tuple.pop() else { break };
                free[q as usize] += 1;
                from = q as usize + 1;
            }
            heads.push((tuples.len() / width) as u32);
        }
        Lift {
            counters,
            heads,
            tuples,
            width,
        }
    }

    /// The ids of the states over counter state `i`.
    fn range(&self, i: usize) -> std::ops::Range<u32> {
        self.heads[i]..self.heads[i + 1]
    }

    /// The tracked locals of state `s`.
    fn tuple(&self, s: u32) -> &[u32] {
        &self.tuples[s as usize * self.width..][..self.width]
    }

    /// The id of the state over counter state `i` tracking `tuple`.
    fn id(&self, i: u32, tuple: &[u32]) -> u32 {
        let (mut lo, mut hi) = (self.heads[i as usize], self.heads[i as usize + 1]);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.tuple(mid) < tuple {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        debug_assert_eq!(self.tuple(lo), tuple, "a fitting tuple");
        lo
    }
}

/// Builds the width-`width` structure as a lift of the counter
/// reachability set (see the module docs), calling `on_edge(from, to,
/// (src, tgt))` for every move of every state; returns it with its id
/// map.
pub(crate) fn build_rep(
    sys: &CounterSystem,
    spec: &CountingSpec,
    width: u32,
    mut on_edge: impl FnMut(u32, u32, (u32, u32)),
) -> Result<(IndexedKripke, Lift), SymError> {
    let n = sys.size();
    if n == 0 {
        return Err(SymError::EmptyFamily);
    }
    if width == 0 || width > n {
        return Err(SymError::BadRepWidth { width, n });
    }
    let template = sys.template();
    let num_locals = template.num_states();
    let w = width as usize;

    // Every label draws on one universe: the spec's counting atoms, then
    // the indexed atom `p[c]` of every (tracked copy, prop) pair, listed
    // per (copy, local state) so a label is a slice copy plus a table
    // lookup.
    let (mut universe, labels) = LabelTable::compile(spec, template);
    let props: Vec<&str> = template.props().collect();
    let (base, num_props) = (universe.len() as u32, props.len() as u32);
    universe.extend((0..width).flat_map(|c| {
        (props.iter()).map(move |&p| Atom::indexed(p, REPRESENTATIVE_INDEX + c as Index))
    }));
    let prop = |p: &String| props.iter().position(|q| q == p).expect("a template prop") as u32;
    let indexed: Vec<Vec<u32>> = (0..width)
        .flat_map(|c| (0..num_locals as u32).map(move |l| (c, l)))
        .map(|(c, l)| {
            let props = template.labels(l).iter();
            props.map(|p| base + c * num_props + prop(p)).collect()
        })
        .collect();

    let mut next = Vec::new();
    let (_, counters, _) = build::explore(
        *sys.packing(),
        Vec::new(),
        sys.initial().counts(),
        |_, _| String::new(),
        |cur, emit| sys.each_move(cur, &mut next, |succ, _, _| emit(succ)),
    );
    let mut lift = Lift::new(counters, w);
    let mut rows = Rows::new(universe);
    let (mut cur, mut moves, mut counting) = (Vec::new(), Vec::new(), Vec::new());
    let (mut label, mut others, mut succ, mut name) =
        (Vec::new(), Vec::new(), Vec::new(), String::new());
    for i in 0..lift.counters.len() {
        cur.clear();
        cur.extend_from_slice(lift.counters.state(i));
        moves.clear();
        let counters = &mut lift.counters;
        sys.each_move(&cur, &mut next, |c, mv, bc| {
            moves.push((counters.id(c), mv, bc))
        });
        counting.clear();
        labels.push_labels(&cur, &mut counting);
        for s in lift.range(i) {
            let t = lift.tuple(s);
            label.clear();
            for (c, &l) in t.iter().enumerate() {
                label.extend_from_slice(&indexed[c * num_locals + l as usize]);
            }
            label.extend_from_slice(&counting);
            others.clear();
            others.extend_from_slice(&cur);
            name.clear();
            name.push_str("rep=");
            for (c, &l) in t.iter().enumerate() {
                others[l as usize] -= 1;
                if c > 0 {
                    name.push(',');
                }
                name.push_str(template.state_name(l));
            }
            name.push('|');
            sys.write_name(&others, &mut name);
            // A copy of the scratch name is allocated at its exact length.
            rows.add_state(name.clone(), &label);

            for &(j, mv, bc) in &moves {
                let (src, tgt) = mv;
                succ.clear();
                match bc {
                    None => succ.extend_from_slice(t),
                    Some(b) => succ.extend(t.iter().map(|&l| b.response_of(l))),
                }
                let mut edge = |succ: &[u32]| {
                    let to = lift.id(j, succ);
                    rows.add_edge(to);
                    on_edge(s, to, mv);
                };
                // A tracked copy in the move's source fires it, or an
                // untracked one does.
                for c in 0..w {
                    if t[c] == src {
                        let rest = std::mem::replace(&mut succ[c], tgt);
                        edge(&succ);
                        succ[c] = rest;
                    }
                }
                if others[src as usize] > 0 {
                    edge(&succ);
                }
            }
            rows.close_row(s);
        }
    }
    let indices = (0..width).map(|c| REPRESENTATIVE_INDEX + c as Index);
    Ok((IndexedKripke::new(rows.freeze(), indices.collect()), lift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{mutex_template, GuardedTemplate};
    use icstar_logic::parse_state;
    use icstar_mc::IndexedChecker;
    use icstar_nets::fig41_template;

    #[test]
    fn empty_family_rejected() {
        let sys = CounterSystem::new(mutex_template(), 0);
        let spec = CountingSpec::standard(sys.template());
        assert!(matches!(
            representative(&sys, &spec, 1),
            Err(SymError::EmptyFamily)
        ));
    }

    #[test]
    fn width_must_fit_the_family() {
        let sys = CounterSystem::new(mutex_template(), 2);
        let spec = CountingSpec::standard(sys.template());
        assert!(matches!(
            representative(&sys, &spec, 0),
            Err(SymError::BadRepWidth { width: 0, n: 2 })
        ));
        assert!(matches!(
            representative(&sys, &spec, 3),
            Err(SymError::BadRepWidth { width: 3, n: 2 })
        ));
        assert!(representative(&sys, &spec, 2).is_ok());
    }

    #[test]
    fn single_copy_is_just_the_template() {
        let t = GuardedTemplate::free(fig41_template());
        let sys = CounterSystem::new(t.clone(), 1);
        let m = representative(&sys, &CountingSpec::standard(&t), 1).unwrap();
        assert_eq!(m.kripke().num_states(), 2);
        assert_eq!(m.indices(), &[1]);
        let init = m.kripke().initial();
        assert!(m.kripke().satisfies_atom(init, &Atom::indexed("a", 1)));
    }

    #[test]
    fn rep_structure_answers_indexed_queries() {
        // In the free a -> b (absorbing) product, every copy eventually
        // *can* flip and once flipped stays flipped.
        let t = GuardedTemplate::free(fig41_template());
        let sys = CounterSystem::new(t.clone(), 4);
        let m = representative(&sys, &CountingSpec::standard(&t), 1).unwrap();
        let mut chk = IndexedChecker::new(&m);
        for (src, expect) in [
            ("forall i. EF b[i]", true),
            ("forall i. AG(b[i] -> AG b[i])", true),
            ("exists i. AG a[i]", false),
            ("forall i. AF b[i]", false), // others can starve the rep
        ] {
            let f = parse_state(src).unwrap();
            assert_eq!(chk.holds(&f).unwrap(), expect, "{src}");
        }
    }

    #[test]
    fn width_two_tracks_a_distinguishable_pair() {
        let t = GuardedTemplate::free(fig41_template());
        let sys = CounterSystem::new(t.clone(), 4);
        let m = representative(&sys, &CountingSpec::standard(&t), 2).unwrap();
        assert_eq!(m.indices(), &[1, 2]);
        let mut chk = IndexedChecker::new(&m);
        for (src, expect) in [
            // Copy 1 can flip while copy 2 stays put — only expressible
            // with two tracked copies.
            ("EF (b[1] & a[2])", true),
            ("EF (b[1] & b[2])", true),
            ("AG (a[1] | a[2] | b_ge2)", true),
            ("EF (b[1] & a[2] & b_ge2)", true), // an abstracted copy flips too
        ] {
            let f = parse_state(src).unwrap();
            assert_eq!(chk.plain().holds(&f).unwrap(), expect, "{src}");
        }
    }

    #[test]
    fn mutex_representative_liveness_possibility() {
        let t = mutex_template();
        let sys = CounterSystem::new(t.clone(), 5);
        let m = representative(&sys, &CountingSpec::standard(&t), 1).unwrap();
        let mut chk = IndexedChecker::new(&m);
        // Every trying representative can eventually enter, and critical
        // representatives exclude a second critical copy.
        for (src, expect) in [
            ("forall i. AG(try[i] -> EF crit[i])", true),
            ("forall i. AG(crit[i] -> !crit_ge2)", true),
            ("forall i. AG(crit[i] -> one(crit))", true),
        ] {
            let f = parse_state(src).unwrap();
            assert_eq!(chk.holds(&f).unwrap(), expect, "{src}");
        }
    }

    #[test]
    fn mutex_width_two_separates_the_tracked_pair() {
        let t = mutex_template();
        let sys = CounterSystem::new(t.clone(), 5);
        let m = representative(&sys, &CountingSpec::standard(&t), 2).unwrap();
        let mut chk = IndexedChecker::new(&m);
        for (src, expect) in [
            // The guard protects the *pair*: never both tracked copies
            // critical, and whenever copy 1 is in, copy 2 is out.
            ("AG !(crit[1] & crit[2])", true),
            ("AG (crit[1] -> !crit[2])", true),
            ("EF (crit[1] & try[2])", true),
            ("EF crit[2]", true),
        ] {
            let f = parse_state(src).unwrap();
            assert_eq!(chk.plain().holds(&f).unwrap(), expect, "{src}");
        }
    }

    #[test]
    fn rep_state_count_is_locals_times_counters() {
        // Free 2-state template at n: width-1 rep has 2 local states,
        // others have n occupancy vectors -> 2n reachable rep states;
        // width-2 has 4 * (n - 1) reachable states.
        let t = GuardedTemplate::free(fig41_template());
        let n = 6;
        let sys = CounterSystem::new(t.clone(), n);
        let spec = CountingSpec::standard(&t);
        let m1 = representative(&sys, &spec, 1).unwrap();
        assert_eq!(m1.kripke().num_states() as u32, 2 * n);
        m1.kripke().validate().unwrap();
        let m2 = representative(&sys, &spec, 2).unwrap();
        assert_eq!(m2.kripke().num_states() as u32, 4 * (n - 1));
        m2.kripke().validate().unwrap();
    }

    #[test]
    fn width_n_is_the_fully_explicit_composition() {
        // Tracking every copy leaves nothing abstracted: the state count
        // matches the explicit interleaving's.
        let t = GuardedTemplate::free(fig41_template());
        let sys = CounterSystem::new(t.clone(), 3);
        let m = representative(&sys, &CountingSpec::standard(&t), 3).unwrap();
        assert_eq!(m.kripke().num_states(), 8); // 2^3
        assert_eq!(m.indices(), &[1, 2, 3]);
    }

    #[test]
    fn broadcasts_move_every_tracked_copy() {
        // Barrier: from "everyone at the phase-0 barrier", the release
        // broadcast flips both tracked copies and all abstracted ones.
        let t = crate::workloads::barrier_template();
        let sys = CounterSystem::new(t.clone(), 4);
        let m = representative(&sys, &CountingSpec::standard(&t), 2).unwrap();
        let mut chk = IndexedChecker::new(&m);
        for (src, expect) in [
            // Phases never mix across the tracked pair.
            ("AG !(phase0[1] & phase1[2])", true),
            ("AG !(phase1[1] & phase0[2])", true),
            ("EF (phase1[1] & phase1[2])", true),
        ] {
            let f = parse_state(src).unwrap();
            assert_eq!(chk.plain().holds(&f).unwrap(), expect, "{src}");
        }
    }
}
