//! Compiling template-level weak fairness to transition fairness on each
//! structure.
//!
//! A [`FairnessDecl`] names a *group* of local moves and asks for
//! group-level weak fairness: on every considered path, infinitely often
//! either no move of the group is enabled or some move of the group is
//! taken. "Taken" is a property of a transition, so the declaration
//! compiles to one [`icstar_mc::fair::FairReq`] per structure:
//!
//! * the requirement's **edges** are exactly the structure transitions
//!   realized by a move of the group (a copy firing a selected plain
//!   edge, or a broadcast with a selected `(source, target)` pair);
//! * the requirement's **released states** are the states where no move
//!   of the group is enabled — equivalently, the states with no flagged
//!   outgoing edge, since an enabled group move always realizes at
//!   least one transition.
//!
//! Whether a group move is enabled is a function of the occupancy vector
//! alone (guards count occupancy, and "some copy sits in the source
//! state" is occupancy), and which transition it realizes commutes with
//! the quotient maps — so the counter structure, every width-`k`
//! representative structure, and the explicit composition carry
//! *corresponding* requirements and fair verdicts transfer exactly. The
//! differential battery in `tests/fair.rs` checks precisely this
//! against [`check_fair_explicit`].
//!
//! [`counter_graph`] / [`rep_graph`] bundle each structure with its
//! compiled [`TransFairness`] — the unit the engine caches and checks —
//! filtered from the counter moves, or from the lifted edges' moves.

use std::collections::{BTreeSet, HashMap};

use icstar_kripke::bits::BitSet;
use icstar_kripke::{IndexedKripke, Kripke};
use icstar_logic::StateFormula;
use icstar_mc::expand;
use icstar_mc::fair::{FairReq, TransFairness};
use icstar_mc::Checker;

use crate::build::StateTable;
use crate::counter::CounterState;
use crate::crosscheck::{full_relabel, guarded_interleave_with_states, occupancy};
use crate::error::SymError;
use crate::explore::CounterSystem;
use crate::labels::CountingSpec;
use crate::rep::build_rep;
use crate::template::{FairnessDecl, GuardedTemplate};

/// The counter structure of a system bundled with its compiled fairness
/// requirements — everything a fair (or plain) check over counting atoms
/// needs.
#[derive(Clone, Debug)]
pub struct CounterGraph {
    /// The reachable counter structure ([`CounterSystem::kripke`]).
    pub kripke: Kripke,
    /// The template's fairness declarations compiled onto `kripke`;
    /// unconstrained when the template declares none.
    pub fairness: TransFairness,
}

/// A width-`k` representative structure bundled with its compiled
/// fairness requirements.
#[derive(Clone, Debug)]
pub struct RepGraph {
    /// The representative structure ([`crate::representative`]).
    pub kripke: IndexedKripke,
    /// The template's fairness declarations compiled onto `kripke`;
    /// unconstrained when the template declares none.
    pub fairness: TransFairness,
}

/// Builds the counter structure together with its fairness requirements.
///
/// On a traced system ([`CounterSystem::with_trace`]) a fair template's
/// compilation records a `fairness` span next to the build's `explore`
/// and `freeze` spans.
pub fn counter_graph(sys: &CounterSystem, spec: &CountingSpec) -> CounterGraph {
    let (kripke, mut table) = sys.build(spec);
    let _span = sys.template().is_fair().then(|| sys.phase("fairness"));
    let fairness = counter_moves_fairness(sys, &mut table);
    CounterGraph { kripke, fairness }
}

/// Builds the width-`width` representative structure together with its
/// fairness requirements, filtered from the moves of its lifted edges.
///
/// # Errors
///
/// As for [`crate::representative`].
pub fn rep_graph(
    sys: &CounterSystem,
    spec: &CountingSpec,
    width: u32,
) -> Result<RepGraph, SymError> {
    let decls = sys.template().fairness();
    let mut edges = vec![BTreeSet::new(); decls.len()];
    let (kripke, _) = build_rep(sys, spec, width, |from, to, mv| {
        take(decls, &mut edges, from, to, mv);
    })?;
    let fairness = requirements(edges, kripke.kripke().num_states());
    Ok(RepGraph { kripke, fairness })
}

/// Compiles the template's fairness declarations onto a counter
/// structure, given the id-ordered occupancy vectors from
/// [`CounterSystem::kripke_with_states`].
pub fn counter_fairness(sys: &CounterSystem, states: &[CounterState]) -> TransFairness {
    let mut table = StateTable::new(*sys.packing());
    for s in states {
        table.intern(s.counts());
    }
    counter_moves_fairness(sys, &mut table)
}

fn counter_moves_fairness(sys: &CounterSystem, table: &mut StateTable) -> TransFairness {
    if !sys.template().is_fair() {
        return TransFairness::unconstrained();
    }
    let decls = sys.template().fairness();
    let mut edges = vec![BTreeSet::new(); decls.len()];
    let (mut cur, mut next) = (Vec::new(), Vec::new());
    for i in 0..table.len() {
        cur.clear();
        cur.extend_from_slice(table.state(i));
        sys.each_move(&cur, &mut next, |succ, (src, tgt), _| {
            if decls.iter().any(|d| d.contains(src, tgt)) {
                take(decls, &mut edges, i as u32, table.id(succ), (src, tgt));
            }
        });
    }
    requirements(edges, table.len())
}

/// Records a move `(src, tgt)` — a copy taking it, or initiating a
/// broadcast that does — realizing the transition `from → to`, as an
/// edge of every declaration that selects it.
fn take(
    decls: &[FairnessDecl],
    edges: &mut [BTreeSet<(u32, u32)>],
    from: u32,
    to: u32,
    (src, tgt): (u32, u32),
) {
    for (decl, edges) in decls.iter().zip(edges) {
        if decl.contains(src, tgt) {
            edges.insert((from, to));
        }
    }
}

/// Each declaration's requirement over a structure of `num_states`
/// states: its edges, and as released states those where it selects no
/// move — the states with no edge of its own, since a selected move
/// always realizes one.
fn requirements(edges: Vec<BTreeSet<(u32, u32)>>, num_states: usize) -> TransFairness {
    TransFairness::new(edges.into_iter().map(|edges| {
        let taken = edges.iter().map(|&(from, _)| from as usize);
        let mut released = BitSet::from_iter_with_capacity(num_states, taken);
        released.complement();
        FairReq::new(released, edges)
    }))
}

/// Compiles the template's fairness declarations onto the explicit
/// interleaved composition, given the id-ordered tuples from
/// [`guarded_interleave_with_states`]. Every copy sitting in a group
/// move's source state realizes its own transition.
pub fn explicit_fairness(t: &GuardedTemplate, states: &[Vec<u32>]) -> TransFairness {
    if !t.is_fair() {
        return TransFairness::unconstrained();
    }
    let index: HashMap<&[u32], u32> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_slice(), i as u32))
        .collect();
    let reqs: Vec<FairReq> = t
        .fairness()
        .iter()
        .map(|d| {
            let mut released = BitSet::new(states.len());
            let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
            for (i, locals) in states.iter().enumerate() {
                let counts = occupancy(t, locals);
                let mut any = false;
                for &(src, tgt) in d.moves() {
                    let plain_enabled = t
                        .base()
                        .successors(src)
                        .iter()
                        .enumerate()
                        .any(|(k, &q2)| q2 == tgt && t.enabled(&counts, src, k));
                    for (copy, &q) in locals.iter().enumerate() {
                        if q != src {
                            continue;
                        }
                        if plain_enabled {
                            any = true;
                            let mut next = locals.clone();
                            next[copy] = tgt;
                            edges.insert((i as u32, index[next.as_slice()]));
                        }
                        for bc in t.broadcasts() {
                            if bc.source() == src
                                && bc.target() == tgt
                                && t.broadcast_enabled(&counts, bc)
                            {
                                any = true;
                                let mut next: Vec<u32> =
                                    locals.iter().map(|&l| bc.response_of(l)).collect();
                                next[copy] = bc.target();
                                edges.insert((i as u32, index[next.as_slice()]));
                            }
                        }
                    }
                }
                if !any {
                    released.insert(i);
                }
            }
            FairReq::new(released, edges)
        })
        .collect();
    TransFairness::new(reqs)
}

/// The fair-composition oracle: checks `f` on the **explicit**
/// interleaved composition of `n` copies under the template's fairness
/// declarations, with quantifiers expanded over the concrete indices
/// `1..=n` and labels carrying both every indexed atom and the counting
/// atoms of `spec`.
///
/// This shares *nothing* with the abstraction pipeline beyond the
/// template itself — no counters, no representatives, no quotients — so
/// agreement with the counter or representative verdict at small `n` is
/// genuine cross-validation. With no declarations it degenerates to a
/// plain explicit-composition check.
///
/// # Errors
///
/// [`SymError::Mc`] when the template declares fairness and `f` falls
/// outside the CTL fragment, or when `f` is not closed after expansion.
pub fn check_fair_explicit(
    t: &GuardedTemplate,
    n: u32,
    spec: &CountingSpec,
    f: &StateFormula,
) -> Result<bool, SymError> {
    let (explicit, states) = guarded_interleave_with_states(t, n);
    let fair = explicit_fairness(t, &states);
    let relabeled = full_relabel(explicit.kripke(), spec);
    let expanded = expand(f, explicit.indices());
    Checker::with_fairness(&relabeled, &fair)
        .holds(&expanded)
        .map_err(SymError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::GuardedBuilder;
    use icstar_logic::parse_state;

    /// Two states, a stutter loop on `idle`, one exit `idle -> done`,
    /// `done` absorbing — liveness `AF done_ge1` fails plainly (stutter
    /// forever) and holds under weak fairness on the exit move.
    fn stutter_exit() -> GuardedTemplate {
        let mut b = GuardedBuilder::new();
        let idle = b.state("idle", ["idle"]);
        let done = b.state("done", ["done"]);
        b.edge(idle, idle);
        b.edge(idle, done);
        b.edge(done, done);
        b.fair("exit", [(idle, done)]);
        b.build(idle)
    }

    #[test]
    fn counter_fairness_rescues_stuttered_liveness() {
        let t = stutter_exit();
        let spec = CountingSpec::standard(&t);
        for n in 1..=5u32 {
            let sys = CounterSystem::new(t.clone(), n);
            let g = counter_graph(&sys, &spec);
            assert!(!g.fairness.is_empty());
            let f = parse_state("AF (idle_eq0)").unwrap();
            assert!(
                !Checker::new(&g.kripke).holds(&f).unwrap(),
                "plainly fails at n = {n}"
            );
            assert!(
                Checker::with_fairness(&g.kripke, &g.fairness)
                    .holds(&f)
                    .unwrap(),
                "fairly holds at n = {n}"
            );
        }
    }

    #[test]
    fn rep_and_explicit_agree_with_counter() {
        let t = stutter_exit();
        let spec = CountingSpec::standard(&t);
        for n in 1..=4u32 {
            let sys = CounterSystem::new(t.clone(), n);
            let f = parse_state("AF (idle_eq0)").unwrap();
            let cg = counter_graph(&sys, &spec);
            let counter_verdict = Checker::with_fairness(&cg.kripke, &cg.fairness)
                .holds(&f)
                .unwrap();
            let rg = rep_graph(&sys, &spec, 1).unwrap();
            let rep_verdict = Checker::with_fairness(rg.kripke.kripke(), &rg.fairness)
                .holds(&f)
                .unwrap();
            let explicit_verdict = check_fair_explicit(&t, n, &spec, &f).unwrap();
            assert_eq!(counter_verdict, explicit_verdict, "counter, n = {n}");
            assert_eq!(rep_verdict, explicit_verdict, "rep, n = {n}");
            assert!(explicit_verdict);
        }
    }

    #[test]
    fn indexed_liveness_holds_on_fair_rep() {
        // The tracked copy itself eventually finishes: fair AF done[1].
        let t = stutter_exit();
        let spec = CountingSpec::standard(&t);
        let sys = CounterSystem::new(t.clone(), 3);
        let rg = rep_graph(&sys, &spec, 1).unwrap();
        let f = parse_state("AF done[1]").unwrap();
        assert!(
            !Checker::new(rg.kripke.kripke()).holds(&f).unwrap(),
            "plainly the tracked copy can starve"
        );
        // Weak fairness on the *group* does not force the tracked copy
        // in particular — another copy may take the exit forever — until
        // all others are done, after which only the tracked copy's exit
        // remains in the group. So group fairness does imply AF done[1].
        assert!(Checker::with_fairness(rg.kripke.kripke(), &rg.fairness)
            .holds(&f)
            .unwrap());
        // And the explicit oracle agrees quantifier-wise.
        let q = parse_state("forall i. AF done[i]").unwrap();
        assert!(check_fair_explicit(&t, 3, &spec, &q).unwrap());
    }

    #[test]
    fn unconstrained_template_compiles_to_empty_fairness() {
        let t = crate::template::mutex_template();
        let sys = CounterSystem::new(t.clone(), 3);
        let spec = CountingSpec::standard(&t);
        let g = counter_graph(&sys, &spec);
        assert!(g.fairness.is_empty());
        let rg = rep_graph(&sys, &spec, 1).unwrap();
        assert!(rg.fairness.is_empty());
        assert!(explicit_fairness(&t, &guarded_interleave_with_states(&t, 2).1).is_empty());
    }

    #[test]
    fn broadcast_moves_can_be_fair() {
        // A barrier-ish template where only a broadcast leaves the wait
        // state: fairness on the broadcast move forces the release.
        let mut b = GuardedBuilder::new();
        let wait = b.state("wait", ["wait"]);
        let go = b.state("go", ["go"]);
        b.edge(wait, wait);
        b.edge(go, go);
        b.broadcast(wait, go, [(wait, go)]);
        b.fair("release", [(wait, go)]);
        let t = b.build(wait);
        let spec = CountingSpec::standard(&t);
        let f = parse_state("AF (wait_eq0)").unwrap();
        for n in 1..=4u32 {
            let sys = CounterSystem::new(t.clone(), n);
            let g = counter_graph(&sys, &spec);
            assert!(!Checker::new(&g.kripke).holds(&f).unwrap(), "n = {n}");
            assert!(
                Checker::with_fairness(&g.kripke, &g.fairness)
                    .holds(&f)
                    .unwrap(),
                "n = {n}"
            );
            assert!(check_fair_explicit(&t, n, &spec, &f).unwrap(), "n = {n}");
        }
    }

    #[test]
    fn n_zero_explicit_oracle_is_well_defined() {
        let t = stutter_exit();
        let spec = CountingSpec::standard(&t);
        // At n = 0 the single empty state stutters; the group is never
        // enabled, so the requirement is released everywhere and the
        // vacuous quantifier makes the formula true.
        assert!(
            check_fair_explicit(&t, 0, &spec, &parse_state("forall i. AF done[i]").unwrap())
                .unwrap()
        );
        assert!(!check_fair_explicit(
            &t,
            0,
            &spec,
            &parse_state("AF (idle_eq0 & done_ge1)").unwrap()
        )
        .unwrap());
    }
}
