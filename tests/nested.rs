//! Nested-quantifier properties through the multi-representative
//! backend (`icstar-sym`), cross-checked against explicit composition.
//!
//! Soundness claim under test: for a fully symmetric template and a
//! closed *k-restricted* formula of quantifier nesting depth `k`, the
//! verdict computed on the width-`min(k, n)` representative structure
//! (canonical index-tuple expansion,
//! [`icstar_logic::expand_representatives`]) equals the verdict of the
//! explicit [`IndexedChecker`] on the full `n`-copy composition — i.e.
//! the quantifiers range over **all index tuples**, equal and distinct
//! alike. The oracles are the explicit `interleave`/`guarded_interleave`
//! compositions at `n ≤ 4`, random templates included, plus the Section 6
//! conjecture swept by brute force (explicit `interleave` products above
//! the formula's depth) on both built-in free families.

use icstar::icstar_sym::arb::{
    random_guarded_template, random_nested_formula, RandomGuardedConfig, RandomNestedConfig,
};
use icstar::icstar_sym::{guarded_interleave, GuardedTemplate, SymEngine};
use icstar::{FamilyVerifier, IndexedChecker};
use icstar_logic::{parse_state, restricted_depth};
use icstar_nets::free::cyclic_template;
use icstar_nets::{fig41_template, interleave, random_template, RandomTemplateConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_N: u32 = 4;

fn template_config() -> RandomTemplateConfig {
    RandomTemplateConfig {
        states: 3,
        prop_names: vec!["p".into(), "q".into()],
        ..RandomTemplateConfig::default()
    }
}

#[test]
fn nested_formulas_agree_with_explicit_on_random_free_templates() {
    // Random free templates × random depth-2 and depth-3 formulas: the
    // k-rep backend and the explicit IndexedChecker must agree verdict
    // for verdict at every explicitly buildable size.
    let mut checked = 0usize;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(7_000 + seed);
        let t = random_template(&mut rng, &template_config());
        let engine = SymEngine::new(GuardedTemplate::free(t.clone()));
        for depth in 2..=3usize {
            let cfg = RandomNestedConfig {
                depth,
                matrix_depth: 2,
                ..RandomNestedConfig::default()
            };
            for n in 1..=MAX_N {
                let explicit = interleave(&t, n);
                let mut chk = IndexedChecker::new(&explicit);
                for _ in 0..6 {
                    let f = random_nested_formula(&mut rng, &cfg);
                    assert_eq!(restricted_depth(&f), Ok(depth), "{f}");
                    checked += 1;
                    assert_eq!(
                        engine.check(n, &f).unwrap(),
                        chk.holds(&f).unwrap(),
                        "seed {seed}, n = {n}: verdicts diverge on {f}"
                    );
                }
            }
        }
    }
    assert!(checked > 500, "only {checked} nested formulas exercised");
}

#[test]
fn nested_formulas_agree_with_explicit_on_random_guarded_templates() {
    // The full template language under the nested oracle: guards of
    // every kind plus broadcast moves. The explicit side is
    // `guarded_interleave`, which implements guard/broadcast semantics
    // independently, copy by copy.
    let cfg = RandomGuardedConfig::default();
    let mut checked = 0usize;
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(8_000 + seed);
        let t = random_guarded_template(&mut rng, &cfg);
        let engine = SymEngine::new(t.clone());
        let nested_cfg = RandomNestedConfig {
            depth: 2,
            matrix_depth: 2,
            indexed_props: cfg.base.prop_names.clone(),
        };
        for n in 1..=3u32 {
            let explicit = guarded_interleave(&t, n);
            let mut chk = IndexedChecker::new(&explicit);
            for _ in 0..6 {
                let f = random_nested_formula(&mut rng, &nested_cfg);
                checked += 1;
                assert_eq!(
                    engine.check(n, &f).unwrap(),
                    chk.holds(&f).unwrap(),
                    "seed {seed}, n = {n}: verdicts diverge on {f}"
                );
            }
        }
    }
    assert!(checked > 150, "only {checked} nested formulas exercised");
}

/// The depth-2 battery for the mutex workload: name, source, expected
/// verdict (size-independent for n ≥ 2).
const MUTEX_DEPTH2: &[(&str, &str, bool)] = &[
    (
        "pair exclusion",
        "forall i. exists j. AG(crit[i] -> !crit[j])",
        true,
    ),
    (
        "pairwise guarded",
        "forall i. forall j. AG !(crit[i] & crit[j] & crit_ge2)",
        true,
    ),
    (
        "joint criticality",
        "exists i. exists j. EF (crit[i] & crit[j] & crit_ge2)",
        false,
    ),
    (
        "handover",
        "forall i. exists j. AG(crit[i] -> EF crit[j])",
        true,
    ),
];

/// The depth-2 battery for the MSI cache workload.
const MSI_DEPTH2: &[(&str, &str, bool)] = &[
    (
        "single writer (pairs)",
        "forall i. exists j. AG(modified[i] -> !modified[j])",
        true,
    ),
    (
        "writer excludes readers (pairs)",
        "forall i. forall j. AG !(modified[i] & shared[j])",
        true,
    ),
    (
        "two writers",
        "exists i. exists j. EF (modified[i] & modified[j] & modified_ge2)",
        false,
    ),
];

#[test]
fn mutex_and_msi_depth2_agree_with_explicit_composition() {
    for (template, battery) in [
        (icstar::mutex_template(), MUTEX_DEPTH2),
        (icstar::msi_template(), MSI_DEPTH2),
    ] {
        let engine = SymEngine::new(template.clone());
        for n in 2..=MAX_N {
            let explicit = guarded_interleave(&template, n);
            let mut chk = IndexedChecker::new(&explicit);
            for (name, src, expect) in battery {
                let f = parse_state(src).unwrap();
                let explicit_verdict = chk.holds(&f).unwrap();
                assert_eq!(explicit_verdict, *expect, "{name} explicit at n = {n}");
                assert_eq!(
                    engine.check(n, &f).unwrap(),
                    explicit_verdict,
                    "{name}: k-rep diverges from explicit at n = {n}"
                );
            }
        }
    }
}

#[test]
fn mutex_and_msi_depth2_verify_at_scale_with_width_reported() {
    for (template, battery) in [
        (icstar::mutex_template(), MUTEX_DEPTH2),
        (icstar::msi_template(), MSI_DEPTH2),
    ] {
        let mut v = FamilyVerifier::counter_abstracted(template);
        for (name, src, _) in battery {
            v.add_formula(*name, parse_state(src).unwrap()).unwrap();
        }
        let verdicts = v.verify_at(100).unwrap();
        for (verdict, (name, _, expect)) in verdicts.iter().zip(battery) {
            assert_eq!(verdict.holds, *expect, "{name} at n = 100");
            assert_eq!(verdict.rep_width, 2, "{name} must track two copies");
        }
    }
}

#[test]
fn conjecture_values_at_depth_two_agree_with_krep_backend() {
    // The Section 6 sweep as an oracle for the k-rep semantics: on the
    // two built-in free families, depth-2 restricted formulas evaluated
    // on explicit products by the IndexedChecker at n = 3..=6 must
    // match the counter backend at every swept size — and stay constant
    // beyond the depth, as the conjecture predicts.
    let fig41 = fig41_template();
    let cyclic = cyclic_template();
    let cases: &[(&icstar_nets::ProcessTemplate, &str)] = &[
        (&fig41, "forall i. exists j. EF (b[i] & a[j])"),
        (&fig41, "exists i. forall j. AG (a[i] | b[j])"),
        (&fig41, "forall i. forall j. AG (a[i] | a[j] | b[i] | b[j])"),
        (&cyclic, "exists i. exists j. EF (done[i] & work[j])"),
        (&cyclic, "forall i. exists j. EF (work[i] & idle[j])"),
        (
            &cyclic,
            "exists i. forall j. AG (idle[i] | work[j] | done[j])",
        ),
    ];
    for (t, src) in cases {
        let f = parse_state(src).unwrap();
        assert_eq!(restricted_depth(&f), Ok(2), "{src}");
        let sizes = 3..=6u32;
        let values: Vec<bool> = (sizes.clone())
            .map(|n| IndexedChecker::new(&interleave(t, n)).holds(&f).unwrap())
            .collect();
        assert!(
            values.windows(2).all(|w| w[0] == w[1]),
            "{src}: conjecture sweep not constant: {values:?}"
        );
        let engine = SymEngine::new(GuardedTemplate::free((*t).clone()));
        for (n, &explicit_value) in sizes.zip(&values) {
            let run = engine.session(n).check_described(&f).unwrap();
            assert_eq!(
                run.holds, explicit_value,
                "{src}: k-rep diverges from the conjecture sweep at n = {n}"
            );
            assert_eq!(run.rep_width, 2, "{src} at n = {n}");
        }
    }
}
