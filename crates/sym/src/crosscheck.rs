//! Cross-validation of the abstraction against explicit composition.
//!
//! The counter abstraction is the quotient of the explicit interleaved
//! composition under the full symmetric group (for the width-`k`
//! representative construction: under the pointwise stabilizer of copies
//! `1..=k`). Quotients by label-preserving automorphism groups are strong
//! bisimulations, so for any `n` small enough to build explicitly, the
//! abstraction and the explicit structure must *correspond* in the
//! paper's sense ([`icstar_bisim::maximal_correspondence`]).
//! [`verify_counter_abstraction`] checks exactly that — for the counter
//! structure and for every representative width up to
//! [`CROSS_CHECK_MAX_WIDTH`] — and is wired into tests and
//! `SymEngine::cross_check` as the engine's soundness oracle.

use std::collections::HashMap;

use icstar_bisim::maximal_correspondence;
use icstar_kripke::{Atom, Index, IndexedKripke, Kripke, KripkeBuilder, StateId};

use crate::counter::CounterState;
use crate::error::SymError;
use crate::explore::CounterSystem;
use crate::labels::CountingSpec;
use crate::rep::{representative, REPRESENTATIVE_INDEX};
use crate::template::GuardedTemplate;

/// The explicit (tuple-state) interleaved composition of `n` copies of a
/// guarded template, with indices `1..=n`.
///
/// For unguarded templates this coincides with
/// [`icstar_nets::interleave`]. Guards disable transitions based on
/// proposition occupancy; a globally deadlocked state (only possible
/// under guards, or at `n = 0`) gets a stuttering self-loop, matching the
/// counter semantics.
pub fn guarded_interleave(t: &GuardedTemplate, n: u32) -> IndexedKripke {
    guarded_interleave_with_states(t, n).0
}

/// [`guarded_interleave`] plus the local-state tuple of every structure
/// state, indexed by [`StateId`] (position `i` is the tuple of state
/// `i`). The fairness compiler ([`crate::fairness`]) uses the tuples to
/// re-enumerate each state's moves and flag the fair ones.
pub fn guarded_interleave_with_states(
    t: &GuardedTemplate,
    n: u32,
) -> (IndexedKripke, Vec<Vec<u32>>) {
    let mut b = KripkeBuilder::new();
    let mut ids: HashMap<Vec<u32>, StateId> = HashMap::new();
    let mut queue: Vec<Vec<u32>> = Vec::new();

    let add = |locals: Vec<u32>,
               b: &mut KripkeBuilder,
               ids: &mut HashMap<Vec<u32>, StateId>,
               queue: &mut Vec<Vec<u32>>|
     -> StateId {
        if let Some(&id) = ids.get(&locals) {
            return id;
        }
        let mut atoms = Vec::new();
        for (k, &l) in locals.iter().enumerate() {
            for p in t.base().labels(l) {
                atoms.push(Atom::indexed(p.clone(), (k + 1) as Index));
            }
        }
        let name = if locals.is_empty() {
            "empty".to_string()
        } else {
            locals
                .iter()
                .map(|&l| t.base().state_name(l))
                .collect::<Vec<_>>()
                .join("|")
        };
        let id = b.state_labeled(name, atoms);
        ids.insert(locals.clone(), id);
        queue.push(locals);
        id
    };

    let init = add(vec![t.initial(); n as usize], &mut b, &mut ids, &mut queue);
    let mut head = 0;
    while head < queue.len() {
        let locals = queue[head].clone();
        head += 1;
        let from = ids[&locals];
        let counts = occupancy(t, &locals);
        let mut moved = false;
        for (k_copy, &q) in locals.iter().enumerate() {
            for (k, &q2) in t.base().successors(q).iter().enumerate() {
                if !t.enabled(&counts, q, k) {
                    continue;
                }
                let mut next = locals.clone();
                next[k_copy] = q2;
                let to = add(next, &mut b, &mut ids, &mut queue);
                b.edge(from, to);
                moved = true;
            }
        }
        // Broadcast moves: any copy in the source state may initiate;
        // every other copy follows the response map in the same step.
        for bc in t.broadcasts() {
            if !t.broadcast_enabled(&counts, bc) {
                continue;
            }
            for (k_copy, &q) in locals.iter().enumerate() {
                if q != bc.source() {
                    continue;
                }
                let mut next: Vec<u32> = locals.iter().map(|&l| bc.response_of(l)).collect();
                next[k_copy] = bc.target();
                let to = add(next, &mut b, &mut ids, &mut queue);
                b.edge(from, to);
                moved = true;
            }
        }
        if !moved {
            b.edge(from, from);
        }
    }
    let m = IndexedKripke::new(
        b.build(init).expect("interleaving is stutter-completed"),
        (1..=n).collect(),
    );
    (m, queue)
}

/// The occupancy vector of an explicit tuple state.
pub(crate) fn occupancy(t: &GuardedTemplate, locals: &[u32]) -> CounterState {
    let mut counts = vec![0u32; t.num_states()];
    for &q in locals {
        counts[q as usize] += 1;
    }
    CounterState::new(counts)
}

/// Relabels a composed structure with the counting atoms of `spec`,
/// derived from its indexed atoms: `#p` in a state is the number of
/// indices `i` with `p[i]` in the label. The graph is unchanged.
pub fn counting_relabel(m: &Kripke, spec: &CountingSpec) -> Kripke {
    relabel(m, |counts, _| spec.atoms_for(|p| counts(p)))
}

/// Relabels a composed structure keeping *every* indexed atom and adding
/// the counting atoms of `spec` — the union label universe the fair
/// oracle checks formulas over, where both `crit[i]` and `crit_ge1`
/// are meaningful. State ids and edges are unchanged, so a
/// [`icstar_mc::fair::TransFairness`] computed on the original structure stays
/// valid on the relabeling.
pub fn full_relabel(m: &Kripke, spec: &CountingSpec) -> Kripke {
    relabel(m, |counts, label| {
        let mut atoms = label.to_vec();
        atoms.extend(spec.atoms_for(|p| counts(p)));
        atoms
    })
}

/// Relabels a composed structure keeping only the indexed atoms of the
/// tracked copies `reps` plus the counting atoms of `spec` — the label
/// universe of the width-`k` representative construction. The copy
/// `reps[c]` is renamed to canonical index `c + 1`, so relabelings of
/// different tracked tuples share a label universe with the
/// representative structure.
pub fn representative_relabel(m: &Kripke, spec: &CountingSpec, reps: &[Index]) -> Kripke {
    relabel(m, |counts, label| {
        let mut atoms: Vec<Atom> = Vec::new();
        for a in label {
            if let Some(i) = a.index() {
                if let Some(c) = reps.iter().position(|&r| r == i) {
                    atoms.push(a.with_index(REPRESENTATIVE_INDEX + c as Index));
                }
            }
        }
        atoms.extend(spec.atoms_for(|p| counts(p)));
        atoms
    })
}

fn relabel(
    m: &Kripke,
    mut label_fn: impl FnMut(&dyn Fn(&str) -> u32, &[Atom]) -> Vec<Atom>,
) -> Kripke {
    m.relabel_with(|s| {
        let label = m.label_atoms(s);
        let mut counts: HashMap<&str, u32> = HashMap::new();
        for a in label.iter().filter(|a| a.is_indexed()) {
            *counts.entry(a.name()).or_insert(0) += 1;
        }
        label_fn(&|p| counts.get(p).copied().unwrap_or(0), &label)
    })
}

/// The largest representative width [`verify_counter_abstraction`]
/// audits (capped further by `n`). Width 1 is the classic single-copy
/// construction; width 2 is what depth-2 nested quantifiers route
/// through. Larger widths re-run the same code paths over bigger tuples,
/// so auditing the first two keeps the oracle fast without losing
/// coverage of the locals-vector logic.
pub const CROSS_CHECK_MAX_WIDTH: u32 = 2;

/// Verifies, for an explicitly buildable `n`, that the counter
/// abstraction and the representative construction — at every width
/// `1..=min(n, CROSS_CHECK_MAX_WIDTH)` — correspond (in the paper's
/// Section 3 sense, via [`maximal_correspondence`]) to the explicit
/// interleaved composition over their respective label universes.
///
/// # Errors
///
/// Returns [`SymError::AbstractionMismatch`] when a correspondence fails —
/// which would mean the engine is unsound for this template.
pub fn verify_counter_abstraction(
    template: &GuardedTemplate,
    n: u32,
    spec: &CountingSpec,
) -> Result<(), SymError> {
    let explicit = guarded_interleave(template, n);
    let sys = CounterSystem::new(template.clone(), n);

    let counter = sys.kripke(spec);
    let relabeled = counting_relabel(explicit.kripke(), spec);
    let rel = maximal_correspondence(&relabeled, &counter);
    if !rel.related(relabeled.initial(), counter.initial()) {
        return Err(SymError::AbstractionMismatch(format!(
            "counter structure does not correspond to the explicit composition at n = {n}"
        )));
    }

    for width in 1..=n.min(CROSS_CHECK_MAX_WIDTH) {
        verify_representative_width(&explicit, &sys, spec, width)?;
    }
    Ok(())
}

/// The representative half of the oracle at one width: the width-`width`
/// structure must correspond to the explicit composition relabeled to
/// the tracked copies `1..=width` plus counting atoms.
///
/// # Errors
///
/// [`SymError::AbstractionMismatch`] on disagreement; width errors from
/// [`representative`].
pub fn verify_representative_width(
    explicit: &IndexedKripke,
    sys: &CounterSystem,
    spec: &CountingSpec,
    width: u32,
) -> Result<(), SymError> {
    let n = sys.size();
    let reps: Vec<Index> = (1..=width as Index).collect();
    let rep = representative(sys, spec, width)?;
    let rep_relabeled = representative_relabel(explicit.kripke(), spec, &reps);
    let rel = maximal_correspondence(&rep_relabeled, rep.kripke());
    if !rel.related(rep_relabeled.initial(), rep.kripke().initial()) {
        return Err(SymError::AbstractionMismatch(format!(
            "width-{width} representative structure does not correspond \
             to the explicit composition at n = {n}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{mutex_template, GuardedTemplate};
    use icstar_kripke::compare::shared_label_keys;
    use icstar_nets::{fig41_template, interleave};

    #[test]
    fn guarded_interleave_matches_free_interleave() {
        // With no guards the tuple construction must agree with
        // icstar_nets::interleave state-for-state.
        let base = fig41_template();
        let t = GuardedTemplate::free(base.clone());
        for n in 1..=4u32 {
            let ours = guarded_interleave(&t, n);
            let theirs = interleave(&base, n);
            assert_eq!(
                ours.kripke().num_states(),
                theirs.kripke().num_states(),
                "n = {n}"
            );
            assert_eq!(
                ours.kripke().num_transitions(),
                theirs.kripke().num_transitions(),
                "n = {n}"
            );
            let (ka, kb, _) = shared_label_keys(ours.kripke(), theirs.kripke());
            assert_eq!(
                ka[ours.kripke().initial().idx()],
                kb[theirs.kripke().initial().idx()]
            );
        }
    }

    #[test]
    fn guarded_interleave_n_zero_is_total() {
        let t = mutex_template();
        let m = guarded_interleave(&t, 0);
        assert_eq!(m.kripke().num_states(), 1);
        assert!(m.indices().is_empty());
        m.kripke().validate().unwrap();
    }

    #[test]
    fn mutex_guard_prunes_double_critical_states() {
        let t = mutex_template();
        let m = guarded_interleave(&t, 3);
        // No reachable state has two critical copies.
        for s in m.kripke().states() {
            let crits = (1..=3)
                .filter(|&i| m.kripke().satisfies_atom(s, &Atom::indexed("crit", i)))
                .count();
            assert!(crits <= 1, "state {} has {crits} critical copies", s);
        }
    }

    #[test]
    fn abstraction_corresponds_for_free_template() {
        let t = GuardedTemplate::free(fig41_template());
        for n in 0..=4u32 {
            let spec = CountingSpec::exhaustive(&t, n.max(1));
            verify_counter_abstraction(&t, n, &spec).unwrap();
        }
    }

    #[test]
    fn abstraction_corresponds_for_guarded_template() {
        let t = mutex_template();
        for n in 1..=4u32 {
            let spec = CountingSpec::exhaustive(&t, n);
            verify_counter_abstraction(&t, n, &spec).unwrap();
        }
    }

    #[test]
    fn abstraction_corresponds_for_state_guarded_template() {
        // State-occupancy guards must leave the abstraction exact: the
        // oracle compares against the explicit composition, whose guard
        // evaluation goes through the same occupancy semantics.
        let t = crate::template::ring_station_template(3, 1);
        for n in 1..=4u32 {
            let spec = CountingSpec::exhaustive(&t, n);
            verify_counter_abstraction(&t, n, &spec).unwrap();
        }
        let wide = crate::template::ring_station_template(4, 2);
        verify_counter_abstraction(&wide, 3, &CountingSpec::exhaustive(&wide, 3)).unwrap();
    }

    #[test]
    fn representative_corresponds_at_full_width() {
        // Beyond the oracle's default width cap: at width = n nothing is
        // abstracted, and the construction must still correspond to the
        // explicit composition (it *is* one, up to labeling).
        let t = mutex_template();
        let n = 3;
        let spec = CountingSpec::exhaustive(&t, n);
        let explicit = guarded_interleave(&t, n);
        let sys = CounterSystem::new(t.clone(), n);
        for width in 1..=n {
            verify_representative_width(&explicit, &sys, &spec, width).unwrap();
        }
    }

    #[test]
    fn relabel_tracks_arbitrary_tuples() {
        // Relabeling to tracked copies (2, 3) renames them to canonical
        // 1, 2 — the same universe the width-2 representative carries, so
        // the correspondence must hold for *any* tracked tuple (that is
        // the symmetry the construction quotients by).
        let t = mutex_template();
        let n = 3;
        let spec = CountingSpec::exhaustive(&t, n);
        let explicit = guarded_interleave(&t, n);
        let sys = CounterSystem::new(t.clone(), n);
        let rep = representative(&sys, &spec, 2).unwrap();
        for tuple in [[1, 2], [2, 3], [3, 1]] {
            let relabeled = representative_relabel(explicit.kripke(), &spec, &tuple);
            let rel = maximal_correspondence(&relabeled, rep.kripke());
            assert!(
                rel.related(relabeled.initial(), rep.kripke().initial()),
                "tuple {tuple:?}"
            );
        }
    }

    #[test]
    fn broken_relabel_is_detected() {
        // Sanity-check the oracle itself: comparing against a *wrongly*
        // labeled explicit structure must fail.
        let t = GuardedTemplate::free(fig41_template());
        let n = 2;
        let spec = CountingSpec::exhaustive(&t, n);
        let explicit = guarded_interleave(&t, n);
        let sys = CounterSystem::new(t.clone(), n);
        let counter = sys.kripke(&spec);
        // Labels from a *different* spec (missing thresholds) on one side.
        let wrong = counting_relabel(explicit.kripke(), &CountingSpec::new().with_zero("a"));
        let rel = maximal_correspondence(&wrong, &counter);
        assert!(!rel.related(wrong.initial(), counter.initial()));
    }
}
