//! The broadcast-era workload gallery, end to end: every shipped
//! template is cross-checked against the explicit `interleave`-style
//! composition at explicitly-buildable sizes (the abstraction oracle of
//! `icstar_sym::verify_counter_abstraction`), and its gallery properties
//! (`docs/WORKLOADS.md`) are verified through `FamilyVerifier` at sizes
//! comfortable in debug builds. The `n = 100,000` runs live in
//! `examples/workloads_demo.rs` (release CI).

use icstar::FamilyVerifier;
use icstar_logic::parse_state;
use icstar_mc::Checker;
use icstar_nets::fig41_template;
use icstar_serve::{CacheKey, SpillStore};
use icstar_sym::{
    barrier_template, check_fair_explicit, msi_template, mutex_template, ring_station_template,
    wakeup_template, CountingSpec, GuardedTemplate, SymEngine, WorkloadKey,
};

/// Every guarded workload the repository ships, with its gallery
/// properties and its depth-2 **nested** property (both kept in sync
/// with `docs/WORKLOADS.md`; the nested column needs the
/// multi-representative backend, width 2).
fn gallery() -> Vec<(
    &'static str,
    GuardedTemplate,
    Vec<&'static str>,
    &'static str,
)> {
    vec![
        (
            "mutex",
            mutex_template(),
            vec!["AG !crit_ge2", "forall i. AG(try[i] -> EF crit[i])"],
            "forall i. exists j. AG (crit[i] -> !crit[j])",
        ),
        (
            "ring-station",
            ring_station_template(4, 1),
            vec!["AG !s1_ge2", "AG !s2_ge2", "AG !s3_ge2"],
            "forall i. exists j. EF (s1[i] & s0[j])",
        ),
        (
            "barrier",
            barrier_template(),
            vec![
                "AG (phase1_ge1 -> phase0_eq0)",
                "AG (phase0_ge1 -> phase1_eq0)",
                "forall i. AG (phase0[i] -> EF phase1[i])",
            ],
            "forall i. forall j. AG !(phase0[i] & phase1[j])",
        ),
        (
            "msi",
            msi_template(),
            vec![
                "AG !modified_ge2",
                "AG (modified_ge1 -> shared_eq0)",
                "AG (modified_ge1 -> one(modified))",
                "forall i. AG (invalid[i] -> EF modified[i])",
            ],
            "forall i. exists j. AG (modified[i] -> !modified[j])",
        ),
        (
            "wakeup",
            wakeup_template(),
            vec![
                "AG ((awake_ge1 | working_ge1) -> asleep_eq0)",
                "AG EF asleep_ge1",
                "forall i. AG (asleep[i] -> EF working[i])",
            ],
            "forall i. forall j. AG !(asleep[i] & awake[j])",
        ),
    ]
}

/// One liveness row: workload name, fair variant, unconstrained
/// original, liveness properties, and the subset that flips unfair.
type LivenessRow = (
    &'static str,
    GuardedTemplate,
    GuardedTemplate,
    Vec<&'static str>,
    Vec<&'static str>,
);

/// The "liveness (weak fairness)" column of `docs/WORKLOADS.md`: every
/// gallery template's weakly fair variant
/// ([`GuardedTemplate::with_fairness`] over the shipped constructor)
/// with the liveness properties that hold under its fairness groups,
/// plus the subset of those properties that **fail** on the
/// unconstrained original (the rows where fairness is load-bearing; for
/// mutex and the station ring every infinite schedule already cycles
/// every move, so their recurrence rows hold unfair too and the flip
/// list is empty).
fn liveness_gallery() -> Vec<LivenessRow> {
    let fig41 = GuardedTemplate::free(fig41_template());
    let mutex = mutex_template();
    let ring = ring_station_template(4, 1);
    let barrier = barrier_template();
    let msi = msi_template();
    let wakeup = wakeup_template();
    vec![
        (
            "fig41",
            // a = 0 falls into absorbing b = 1; only fairness stops the
            // b-spinners from starving the fallers.
            fig41.clone().with_fairness("fall", [(0, 1)]),
            fig41,
            vec!["AF a_eq0", "AG AF b_ge1", "forall i. AF b[i]"],
            vec!["AF a_eq0", "forall i. AF b[i]"],
        ),
        (
            "mutex",
            // idle = 0, try = 1, crit = 2. Degenerate row: the occupancy
            // cycle balance forces every schedule through all three
            // moves, so recurrence holds even unfair.
            mutex.clone().with_fairness("enter", [(1, 2)]),
            mutex,
            vec!["AG AF crit_ge1", "AG AF crit_eq0"],
            vec![],
        ),
        (
            "ring-station",
            // s0..s3 = 0..3; same degenerate cycle-balance argument.
            ring.clone()
                .with_fairness("advance", [(0, 1), (1, 2), (2, 3), (3, 0)]),
            ring,
            vec!["AG AF s3_ge1", "AG AF s0_ge1"],
            vec![],
        ),
        (
            "barrier",
            // work0 = 0, done0 = 1, work1 = 2, done1 = 3. "arrive"
            // drains the working pool, "release" fires the barrier
            // broadcast; together they force perpetual phase
            // alternation, which pure done-spinning violates.
            barrier
                .clone()
                .with_fairness("arrive", [(0, 1), (2, 3)])
                .with_fairness("release", [(1, 2), (3, 0)]),
            barrier,
            vec![
                "AG AF phase1_ge1",
                "AG AF phase0_ge1",
                "forall i. AG AF phase1[i]",
            ],
            vec![
                "AG AF phase1_ge1",
                "AG AF phase0_ge1",
                "forall i. AG AF phase1[i]",
            ],
        ),
        (
            "msi",
            // invalid = 0, shared = 1, modified = 2. The write-miss
            // broadcast loops a writer forever at occupancy (n-1, 0, 1);
            // fair write-back forces the line clean infinitely often.
            msi.clone().with_fairness("writeback", [(2, 0)]),
            msi,
            vec!["AG AF modified_eq0"],
            vec!["AG AF modified_eq0"],
        ),
        (
            "wakeup",
            // asleep = 0, awake = 1, working = 2. Dozing keeps the
            // wake-up broadcast enabled; weak fairness fires it.
            wakeup.clone().with_fairness("wake", [(0, 1)]),
            wakeup,
            vec!["AF asleep_eq0", "AG AF asleep_eq0"],
            vec!["AF asleep_eq0", "AG AF asleep_eq0"],
        ),
    ]
}

#[test]
fn every_workload_cross_checks_against_the_explicit_composition() {
    // The soundness oracle: counter and representative structures must
    // correspond (paper Section 3 sense) to the explicit tuple-state
    // composition — broadcasts and all — at every small n.
    for (name, t, _, _) in gallery() {
        let engine = SymEngine::new(t);
        for n in 1..=4u32 {
            engine
                .cross_check(n)
                .unwrap_or_else(|e| panic!("{name} at n = {n}: {e}"));
        }
    }
}

#[test]
fn gallery_properties_hold_at_moderate_sizes() {
    for (name, t, props, _) in gallery() {
        let mut verifier = FamilyVerifier::counter_abstracted(t);
        for src in &props {
            verifier
                .add_formula(*src, parse_state(src).unwrap())
                .unwrap();
        }
        for n in [1u32, 2, 5, 200] {
            let verdicts = verifier.verify_at(n).unwrap();
            for v in &verdicts {
                assert!(v.holds, "{name}: {} fails at n = {n}", v.name);
            }
        }
    }
}

#[test]
fn liveness_column_holds_at_n200_under_weak_fairness() {
    // The gallery's liveness contract at the same debug-friendly scale
    // as the safety column: every fair variant satisfies its liveness
    // properties at n = 200, with the verdict marked fair.
    for (name, fair_t, _, live, _) in liveness_gallery() {
        assert!(fair_t.is_fair(), "{name}");
        let engine = SymEngine::new(fair_t);
        for n in [1u32, 2, 5, 200] {
            let mut session = engine.session(n);
            for src in &live {
                let run = session.check_described(&parse_state(src).unwrap()).unwrap();
                assert!(run.holds, "{name}: {src} fails at n = {n}");
                assert!(run.fair, "{name}: {src} not fair-checked at n = {n}");
            }
        }
    }
}

#[test]
fn liveness_column_flips_without_fairness() {
    // The rows where fairness is load-bearing: the same properties fail
    // on the unconstrained originals (and the degenerate mutex/ring rows
    // hold either way, pinning *why* their flip list is empty).
    for (name, _, plain_t, live, flips) in liveness_gallery() {
        assert!(!plain_t.is_fair(), "{name}");
        let engine = SymEngine::new(plain_t);
        for n in [2u32, 5] {
            let mut session = engine.session(n);
            for src in &live {
                let run = session.check_described(&parse_state(src).unwrap()).unwrap();
                assert!(!run.fair, "{name}: {src} fair-checked unconstrained");
                let expected = !flips.contains(src);
                assert_eq!(
                    run.holds, expected,
                    "{name}: {src} at n = {n} (plain semantics)"
                );
            }
        }
    }
}

#[test]
fn liveness_column_cross_checks_against_the_explicit_fair_composition() {
    // The oracle anchor: at explicitly buildable sizes, every fair
    // verdict of the liveness column must equal the explicit fair
    // composition's — fairness spelled out copy by copy on the full
    // n-copy interleaving, index quantifiers expanded over concrete
    // copies.
    for (name, fair_t, _, live, _) in liveness_gallery() {
        let engine = SymEngine::new(fair_t.clone());
        for n in 1..=4u32 {
            let mut session = engine.session(n);
            for src in &live {
                let f = parse_state(src).unwrap();
                let abstracted = session.check(&f).unwrap();
                let explicit = check_fair_explicit(&fair_t, n, engine.spec(), &f).unwrap();
                assert_eq!(abstracted, explicit, "{name}: {src} diverges at n = {n}");
                assert!(explicit, "{name}: {src} fails explicitly at n = {n}");
            }
        }
    }
}

#[test]
fn spill_restored_fair_counter_graphs_keep_the_liveness_verdicts() {
    // A graph's compiled fairness memoizes its fair-state set, and the
    // memo is not spilled: the restored graph recomputes it and must
    // agree, state for state, with the original whose memo the first
    // check filled.
    let dir = std::env::temp_dir().join(format!("icstar-workloads-spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = SpillStore::open(&dir).unwrap();
    for (name, fair_t, _, live, _) in liveness_gallery() {
        let engine = SymEngine::new(fair_t.clone());
        let counting: Vec<_> = (live.iter())
            .filter(|src| !src.contains('['))
            .map(|src| (src, parse_state(src).unwrap()))
            .collect();
        for n in [2u32, 5, 50] {
            let original = engine.counter_graph(n);
            let mut chk = Checker::with_fairness(&original.kripke, &original.fairness);
            let before: Vec<_> = (counting.iter())
                .map(|(_, f)| chk.sat(f).unwrap())
                .collect();
            let key = CacheKey::of(&fair_t, engine.spec(), n, 0);
            store.spill(&key, &original);
            let restored =
                (store.restore(&key)).unwrap_or_else(|| panic!("{name}: no restore at n = {n}"));
            let mut chk = Checker::with_fairness(&restored.kripke, &restored.fairness);
            for ((src, f), sat) in counting.iter().zip(&before) {
                assert_eq!(chk.sat(f).unwrap(), *sat, "{name}: {src} at n = {n}");
                assert!(chk.holds(f).unwrap(), "{name}: {src} fails at n = {n}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn broadcast_workloads_are_not_free_and_fingerprint_distinctly() {
    let key = |t: &GuardedTemplate| WorkloadKey::of(t, &CountingSpec::new());
    let all: Vec<(&str, GuardedTemplate)> = gallery()
        .into_iter()
        .map(|(name, t, _, _)| (name, t))
        .collect();
    for (name, t) in &all {
        assert!(!t.is_free(), "{name}");
    }
    for (i, (na, a)) in all.iter().enumerate() {
        for (nb, b) in all.iter().skip(i + 1) {
            assert_ne!(key(a), key(b), "{na} vs {nb}");
        }
    }
    // The three new ones actually use broadcasts.
    assert_eq!(barrier_template().broadcasts().len(), 2);
    assert_eq!(msi_template().broadcasts().len(), 3);
    assert_eq!(wakeup_template().broadcasts().len(), 2);
}

#[test]
fn nested_gallery_properties_hold_with_width_two() {
    // The "nested properties" column of docs/WORKLOADS.md: one depth-2
    // formula per workload, verified through the width-2 representative
    // construction (the seed backend rejected all of these), with the
    // width surfaced on the verdict. Cross-checked against the explicit
    // composition in tests/nested.rs for mutex/MSI; here every workload
    // additionally passes the bisimulation oracle at widths 1 and 2
    // (`every_workload_cross_checks_against_the_explicit_composition`).
    for (name, t, _, nested) in gallery() {
        let mut verifier = FamilyVerifier::counter_abstracted(t);
        verifier
            .add_formula(nested, parse_state(nested).unwrap())
            .unwrap();
        for n in [2u32, 5, 200] {
            let verdicts = verifier.verify_at(n).unwrap();
            assert!(verdicts[0].holds, "{name}: {nested} fails at n = {n}");
            assert_eq!(verdicts[0].rep_width, 2, "{name} at n = {n}");
        }
    }
}
