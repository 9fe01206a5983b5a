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

use crate::build::{self, StateTable};
use crate::counter::{respond_into, CounterPacking, CounterState};
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
    let (kripke, table) = build_rep(sys, spec, width)?;
    let num_locals = sys.template().num_states();
    let states = table
        .states()
        .map(|v| RepState {
            locals: v[num_locals..].to_vec(),
            others: CounterState::new(v[..num_locals].to_vec()),
        })
        .collect();
    Ok((kripke, states))
}

/// The BFS builder of the width-`width` structure; returns it with its
/// discovered states as flat vectors `others ++ locals`: the occupancy of
/// the abstracted copies, then each tracked copy's local state.
pub(crate) fn build_rep(
    sys: &CounterSystem,
    spec: &CountingSpec,
    width: u32,
) -> Result<(IndexedKripke, StateTable), SymError> {
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

    let mut initial = vec![template.initial(); num_locals + w];
    initial[..num_locals].fill(0);
    initial[template.initial() as usize] = n - width;
    let (mut label_total, mut total, mut next) = (Vec::new(), Vec::new(), Vec::new());
    let (rows, table, _) = build::explore(
        CounterPacking::new(num_locals + w, n.max(num_locals as u32)),
        universe,
        &initial,
        |v, label| {
            let (others, locals) = v.split_at(num_locals);
            for (c, &l) in locals.iter().enumerate() {
                label.extend_from_slice(&indexed[c * num_locals + l as usize]);
            }
            total_counts(v, num_locals, &mut label_total);
            labels.push_labels(&label_total, label);
            let mut name = String::from("rep=");
            for (c, &l) in locals.iter().enumerate() {
                if c > 0 {
                    name.push(',');
                }
                name.push_str(template.state_name(l));
            }
            name.push('|');
            sys.write_name(others, &mut name);
            name
        },
        |cur, emit| each_rep_move(sys, cur, &mut total, &mut next, |succ, _| emit(succ)),
    );
    let indices = (0..width).map(|c| REPRESENTATIVE_INDEX + c as Index);
    Ok((IndexedKripke::new(rows.freeze(), indices.collect()), table))
}

/// The occupancy of all copies of the flat representative state `v`,
/// written into `total`.
fn total_counts(v: &[u32], num_locals: usize, total: &mut Vec<u32>) {
    let (others, locals) = v.split_at(num_locals);
    total.clear();
    total.extend_from_slice(others);
    for &l in locals {
        total[l as usize] += 1;
    }
}

/// The representative move semantics: calls `emit(next, (src, tgt))` for
/// every move of the flat state `cur`, in canonical order — one tracked
/// copy takes an enabled `src → tgt`, or one abstracted copy does, or a
/// broadcast whose initiator takes `src → tgt` fires, initiated by a
/// tracked copy (its tracked peers and every abstracted copy respond) or
/// by an abstracted one (all tracked copies respond). Guards read the
/// occupancy of all copies. Several moves may lead to the same state;
/// callers keep the first. `total` and `next` are scratch space.
pub(crate) fn each_rep_move(
    sys: &CounterSystem,
    cur: &[u32],
    total: &mut Vec<u32>,
    next: &mut Vec<u32>,
    mut emit: impl FnMut(&[u32], (u32, u32)),
) {
    let template = sys.template();
    let num_locals = template.num_states();
    total_counts(cur, num_locals, total);
    let (others, locals) = cur.split_at(num_locals);
    for (t, &q) in locals.iter().enumerate() {
        for (k, &q2) in template.successors(q).iter().enumerate() {
            if template.enabled_at(total, q, k) {
                next.clear();
                next.extend_from_slice(cur);
                next[num_locals + t] = q2;
                emit(next, (q, q2));
            }
        }
    }
    for q in 0..num_locals as u32 {
        if others[q as usize] == 0 {
            continue;
        }
        for (k, &q2) in template.successors(q).iter().enumerate() {
            if template.enabled_at(total, q, k) {
                next.clear();
                next.extend_from_slice(cur);
                next[q as usize] -= 1;
                next[q2 as usize] += 1;
                emit(next, (q, q2));
            }
        }
    }
    for bc in template.broadcasts() {
        if !bc.enabled_at(total) {
            continue;
        }
        let mv = (bc.source(), bc.target());
        // Everyone but the initiator follows the response map.
        let respond = |next: &mut Vec<u32>, initiator| {
            respond_into(others, bc.response(), initiator, next);
            next.extend(locals.iter().map(|&l| bc.response_of(l)));
        };
        for (t, &q) in locals.iter().enumerate() {
            if q == bc.source() {
                respond(next, None);
                next[num_locals + t] = bc.target();
                emit(next, mv);
            }
        }
        if others[bc.source() as usize] > 0 {
            respond(next, Some(mv));
            emit(next, mv);
        }
    }
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
