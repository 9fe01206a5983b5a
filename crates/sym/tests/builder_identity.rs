//! Both builders against reference constructions.
//!
//! The references explore a BFS through the public pieces —
//! [`CounterSystem::successors`], [`CountingSpec::atoms_for_counter`] and
//! the representative move rules written out over [`RepState`] — and
//! freeze through [`KripkeBuilder`]. Counter abstraction is the exact
//! quotient by full symmetry, so the counter builder must reproduce it
//! *exactly*: the same atom table in the same order, the same names,
//! label bitsets, successor and predecessor lists, initial state and
//! state vectors. The representative builder lifts its states from the
//! counter reachability set instead of exploring them, so it numbers them
//! differently; under the id map given by its [`RepState`]s it must
//! reproduce the reference's state set, initial state, names, label atom
//! sets and successor sets. The fairness compiled onto both structures is
//! checked the same way against a per-declaration, per-move-pair
//! reference.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use icstar_kripke::bits::BitSet;
use icstar_kripke::{Atom, AtomId, Index, Kripke, KripkeBuilder, StateId};
use icstar_mc::fair::TransFairness;
use icstar_nets::fig41_template;
use icstar_sym::arb::{random_guarded_template, RandomGuardedConfig};
use icstar_sym::fairness::{counter_fairness, counter_graph, rep_graph};
use icstar_sym::{
    barrier_template, msi_template, mutex_template, representative_with_states,
    ring_station_template, wakeup_template, CounterState, CounterSystem, CountingSpec,
    GuardedTemplate, RepState, REPRESENTATIVE_INDEX,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [u32; 5] = [0, 1, 2, 7, 40];

fn reference_counter(sys: &CounterSystem, spec: &CountingSpec) -> (Kripke, Vec<CounterState>) {
    let mut b = KripkeBuilder::new();
    let mut ids: HashMap<CounterState, StateId> = HashMap::new();
    let mut queue: Vec<CounterState> = Vec::new();
    let mut add = |state: CounterState, b: &mut KripkeBuilder, queue: &mut Vec<CounterState>| {
        if let Some(&id) = ids.get(&state) {
            return id;
        }
        let atoms = spec.atoms_for_counter(sys.template(), &state);
        let id = b.state_labeled(sys.state_name(&state), atoms);
        ids.insert(state.clone(), id);
        queue.push(state);
        id
    };
    let init = add(sys.initial(), &mut b, &mut queue);
    let mut head = 0;
    while head < queue.len() {
        let state = queue[head].clone();
        for next in sys.successors(&state) {
            let to = add(next, &mut b, &mut queue);
            b.edge(StateId(head as u32), to);
        }
        head += 1;
    }
    (b.build(init).unwrap(), queue)
}

/// The representative move rules, one [`RepState`] at a time.
fn reference_rep_successors(sys: &CounterSystem, state: &RepState) -> Vec<RepState> {
    let t = sys.template();
    let total = state.total_counts(t.num_states());
    let mut succs: Vec<RepState> = Vec::new();
    let mut push = |next: RepState| {
        if !succs.contains(&next) {
            succs.push(next);
        }
    };
    for (c, &q) in state.locals.iter().enumerate() {
        for (k, &q2) in t.successors(q).iter().enumerate() {
            if t.enabled(&total, q, k) {
                let mut locals = state.locals.clone();
                locals[c] = q2;
                push(RepState {
                    locals,
                    others: state.others.clone(),
                });
            }
        }
    }
    for q in 0..t.num_states() as u32 {
        if state.others.count(q) == 0 {
            continue;
        }
        for (k, &q2) in t.successors(q).iter().enumerate() {
            if t.enabled(&total, q, k) {
                push(RepState {
                    locals: state.locals.clone(),
                    others: state.others.move_one(q, q2),
                });
            }
        }
    }
    for bc in t.broadcasts() {
        if !t.broadcast_enabled(&total, bc) {
            continue;
        }
        let responded: Vec<u32> = state.locals.iter().map(|&l| bc.response_of(l)).collect();
        for (c, &q) in state.locals.iter().enumerate() {
            if q == bc.source() {
                let mut locals = responded.clone();
                locals[c] = bc.target();
                push(RepState {
                    locals,
                    others: state.others.respond(bc.response()),
                });
            }
        }
        if state.others.count(bc.source()) > 0 {
            push(RepState {
                locals: responded.clone(),
                others: state
                    .others
                    .broadcast(bc.source(), bc.target(), bc.response()),
            });
        }
    }
    if succs.is_empty() {
        succs.push(state.clone());
    }
    succs
}

fn reference_rep(sys: &CounterSystem, spec: &CountingSpec, width: u32) -> (Kripke, Vec<RepState>) {
    let t = sys.template();
    let mut b = KripkeBuilder::new();
    let mut ids: HashMap<RepState, StateId> = HashMap::new();
    let mut queue: Vec<RepState> = Vec::new();
    let mut add = |state: RepState, b: &mut KripkeBuilder, queue: &mut Vec<RepState>| {
        if let Some(&id) = ids.get(&state) {
            return id;
        }
        let mut atoms: Vec<Atom> = Vec::new();
        for (c, &l) in state.locals.iter().enumerate() {
            for p in t.labels(l) {
                atoms.push(Atom::indexed(p.clone(), REPRESENTATIVE_INDEX + c as Index));
            }
        }
        atoms.extend(spec.atoms_for_counter(t, &state.total_counts(t.num_states())));
        let mut name = String::from("rep=");
        for (c, &l) in state.locals.iter().enumerate() {
            if c > 0 {
                name.push(',');
            }
            name.push_str(t.state_name(l));
        }
        let _ = write!(name, "|{}", sys.state_name(&state.others));
        let id = b.state_labeled(name, atoms);
        ids.insert(state.clone(), id);
        queue.push(state);
        id
    };
    let initial = RepState {
        locals: vec![t.initial(); width as usize],
        others: CounterState::all_in(t.num_states(), t.initial(), sys.size() - width),
    };
    let init = add(initial, &mut b, &mut queue);
    let mut head = 0;
    while head < queue.len() {
        let state = queue[head].clone();
        for next in reference_rep_successors(sys, &state) {
            let to = add(next, &mut b, &mut queue);
            b.edge(StateId(head as u32), to);
        }
        head += 1;
    }
    (b.build(init).unwrap(), queue)
}

/// The fairness compilation written per declaration and move pair, over
/// each state's vector: `moves(state, src, tgt)` lists the states a
/// `src → tgt` move (plain or broadcast-initiating) leads to.
fn reference_fairness<S>(
    t: &GuardedTemplate,
    states: &[S],
    index: impl Fn(&S) -> u32,
    moves: impl Fn(&S, u32, u32) -> Vec<S>,
) -> Vec<(BitSet, BTreeSet<(u32, u32)>)> {
    t.fairness()
        .iter()
        .map(|d| {
            let mut released = BitSet::new(states.len());
            let mut edges = BTreeSet::new();
            for (i, s) in states.iter().enumerate() {
                let targets: Vec<S> = d
                    .moves()
                    .iter()
                    .flat_map(|&(src, tgt)| moves(s, src, tgt))
                    .collect();
                if targets.is_empty() {
                    released.insert(i);
                }
                edges.extend(targets.iter().map(|next| (i as u32, index(next))));
            }
            (released, edges)
        })
        .collect()
}

fn plain_enabled(t: &GuardedTemplate, total: &CounterState, src: u32, tgt: u32) -> bool {
    t.successors(src)
        .iter()
        .enumerate()
        .any(|(k, &q2)| q2 == tgt && t.enabled(total, src, k))
}

fn reference_counter_fairness(
    sys: &CounterSystem,
    states: &[CounterState],
) -> Vec<(BitSet, BTreeSet<(u32, u32)>)> {
    let t = sys.template();
    let ids: HashMap<&CounterState, u32> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect();
    reference_fairness(
        t,
        states,
        |s| ids[s],
        |c, src, tgt| {
            let mut out = Vec::new();
            if c.count(src) == 0 {
                return out;
            }
            if plain_enabled(t, c, src, tgt) {
                out.push(c.move_one(src, tgt));
            }
            for bc in t.broadcasts() {
                if bc.source() == src && bc.target() == tgt && t.broadcast_enabled(c, bc) {
                    out.push(c.broadcast(src, tgt, bc.response()));
                }
            }
            out
        },
    )
}

fn reference_rep_fairness(
    sys: &CounterSystem,
    states: &[RepState],
) -> Vec<(BitSet, BTreeSet<(u32, u32)>)> {
    let t = sys.template();
    let ids: HashMap<&RepState, u32> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect();
    reference_fairness(
        t,
        states,
        |s| ids[s],
        |s, src, tgt| {
            let total = s.total_counts(t.num_states());
            let mut out = Vec::new();
            let tracked = s.locals.iter().enumerate().filter(|&(_, &q)| q == src);
            if plain_enabled(t, &total, src, tgt) {
                for (c, _) in tracked.clone() {
                    let mut locals = s.locals.clone();
                    locals[c] = tgt;
                    out.push(RepState {
                        locals,
                        others: s.others.clone(),
                    });
                }
                if s.others.count(src) > 0 {
                    out.push(RepState {
                        locals: s.locals.clone(),
                        others: s.others.move_one(src, tgt),
                    });
                }
            }
            for bc in t.broadcasts() {
                if bc.source() != src || bc.target() != tgt || !t.broadcast_enabled(&total, bc) {
                    continue;
                }
                let responded: Vec<u32> = s.locals.iter().map(|&l| bc.response_of(l)).collect();
                for (c, _) in tracked.clone() {
                    let mut locals = responded.clone();
                    locals[c] = tgt;
                    out.push(RepState {
                        locals,
                        others: s.others.respond(bc.response()),
                    });
                }
                if s.others.count(src) > 0 {
                    out.push(RepState {
                        locals: responded.clone(),
                        others: s.others.broadcast(src, tgt, bc.response()),
                    });
                }
            }
            out
        },
    )
}

fn reqs(f: &TransFairness) -> Vec<(BitSet, BTreeSet<(u32, u32)>)> {
    f.reqs()
        .iter()
        .map(|r| (r.states().clone(), r.edges().iter().copied().collect()))
        .collect()
}

fn assert_identical(built: &Kripke, reference: &Kripke, what: &str) {
    let atoms = |k: &Kripke| k.atoms().iter().map(|(_, a)| a.clone()).collect::<Vec<_>>();
    assert_eq!(atoms(built), atoms(reference), "{what}: atom table");
    assert_eq!(built.num_states(), reference.num_states(), "{what}: states");
    assert_eq!(built.initial(), reference.initial(), "{what}: initial");
    for s in reference.states() {
        assert_eq!(
            built.state_name(s),
            reference.state_name(s),
            "{what}: name of {s}"
        );
        assert_eq!(built.label(s), reference.label(s), "{what}: label of {s}");
        assert_eq!(
            built.successors(s),
            reference.successors(s),
            "{what}: succ of {s}"
        );
        assert_eq!(
            built.predecessors(s),
            reference.predecessors(s),
            "{what}: pred of {s}"
        );
    }
}

fn specs(t: &GuardedTemplate) -> Vec<CountingSpec> {
    vec![
        CountingSpec::standard(t),
        CountingSpec::exhaustive(t, 3),
        // No atoms at all, and atoms over a prop no local state carries.
        CountingSpec::new(),
        CountingSpec::new()
            .with_at_least("ghost", 1)
            .with_zero("ghost")
            .with_exactly_one("ghost"),
    ]
}

fn check_template(t: &GuardedTemplate, what: &str) {
    for spec in specs(t) {
        for n in SIZES {
            let sys = CounterSystem::new(t.clone(), n);
            let (built, states) = sys.kripke_with_states(&spec);
            let (reference, ref_states) = reference_counter(&sys, &spec);
            let ctx = format!("{what}, counter, n = {n}, spec {spec:?}");
            assert_identical(&built, &reference, &ctx);
            assert_eq!(states, ref_states, "{ctx}: state vectors");
            let ref_fair = reference_counter_fairness(&sys, &ref_states);
            let graph = counter_graph(&sys, &spec);
            assert_eq!(reqs(&graph.fairness), ref_fair, "{ctx}: fairness");
            assert_eq!(reqs(&counter_fairness(&sys, &states)), ref_fair, "{ctx}");
            for width in rep_widths(t, n) {
                let (built, states) = representative_with_states(&sys, &spec, width).unwrap();
                let (reference, ref_states) = reference_rep(&sys, &spec, width);
                let ctx = format!("{what}, width {width}, n = {n}, spec {spec:?}");
                let ids = id_map(&states, &ref_states, &ctx);
                assert_isomorphic(built.kripke(), &reference, &ids, &ctx);
                let ref_fair = reference_rep_fairness(&sys, &ref_states);
                let graph = rep_graph(&sys, &spec, width).unwrap();
                assert_eq!(map_reqs(&graph.fairness, &ids), ref_fair, "{ctx}: fairness");
            }
        }
    }
}

/// Widths 1 and 2, and width `n` wherever the fully explicit structure
/// stays small, all capped at `n`.
fn rep_widths(t: &GuardedTemplate, n: u32) -> Vec<u32> {
    let mut widths: Vec<u32> = [1, 2].into_iter().filter(|&w| w <= n).collect();
    let explicit = (t.num_states() as u64).checked_pow(n);
    if n > 2 && explicit.is_some_and(|size| size <= 5_000) {
        widths.push(n);
    }
    widths
}

/// The reference id of each built state, checking that the two state
/// sets are equal.
fn id_map(built: &[RepState], reference: &[RepState], what: &str) -> Vec<u32> {
    let ids: HashMap<&RepState, u32> = reference
        .iter()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect();
    assert_eq!(built.len(), reference.len(), "{what}: states");
    let map: Vec<u32> = built
        .iter()
        .map(|s| {
            *ids.get(s)
                .unwrap_or_else(|| panic!("{what}: {s:?} unreached"))
        })
        .collect();
    assert_eq!(
        map.iter().collect::<BTreeSet<_>>().len(),
        map.len(),
        "{what}: distinct"
    );
    map
}

fn assert_isomorphic(built: &Kripke, reference: &Kripke, ids: &[u32], what: &str) {
    let map = |s: StateId| StateId(ids[s.0 as usize]);
    let atoms = |k: &Kripke, s: StateId| -> BTreeSet<String> {
        k.label(s)
            .iter()
            .map(|a| k.atoms().atom(AtomId(a as u32)).to_string())
            .collect()
    };
    assert_eq!(built.num_states(), reference.num_states(), "{what}: states");
    assert_eq!(map(built.initial()), reference.initial(), "{what}: initial");
    for s in built.states() {
        let r = map(s);
        assert_eq!(
            built.state_name(s),
            reference.state_name(r),
            "{what}: name of {s}"
        );
        assert_eq!(atoms(built, s), atoms(reference, r), "{what}: label of {s}");
        let succs: BTreeSet<StateId> = built.successors(s).iter().map(|&t| map(t)).collect();
        let ref_succs: BTreeSet<StateId> = reference.successors(r).iter().copied().collect();
        assert_eq!(
            built.successors(s).len(),
            succs.len(),
            "{what}: succ of {s} repeats"
        );
        assert_eq!(succs, ref_succs, "{what}: succ of {s}");
    }
}

/// `f`'s requirements with every state renamed by `ids`.
fn map_reqs(f: &TransFairness, ids: &[u32]) -> Vec<(BitSet, BTreeSet<(u32, u32)>)> {
    f.reqs()
        .iter()
        .map(|r| {
            let released = r.states().iter().map(|s| ids[s] as usize);
            let edges = r
                .edges()
                .iter()
                .map(|&(a, b)| (ids[a as usize], ids[b as usize]));
            (
                BitSet::from_iter_with_capacity(ids.len(), released),
                edges.collect(),
            )
        })
        .collect()
}

#[test]
fn builder_matches_reference_on_the_gallery() {
    for (name, t) in [
        ("mutex", mutex_template()),
        ("free fig41", GuardedTemplate::free(fig41_template())),
        ("ring 3x2", ring_station_template(3, 2)),
        ("barrier", barrier_template()),
        ("msi", msi_template()),
        ("wakeup", wakeup_template()),
    ] {
        check_template(&t, name);
    }
}

#[test]
fn builder_matches_reference_on_random_templates() {
    let cfg = RandomGuardedConfig::default();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(13_000 + seed);
        let t = random_guarded_template(&mut rng, &cfg);
        check_template(&t, &format!("random seed {seed}"));
    }
}

#[test]
fn builder_matches_reference_on_fair_templates() {
    let cfg = RandomGuardedConfig {
        max_fairness: 2,
        ..RandomGuardedConfig::default()
    };
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(14_000 + seed);
        let t = random_guarded_template(&mut rng, &cfg);
        check_template(&t, &format!("fair random seed {seed}"));
    }
}
