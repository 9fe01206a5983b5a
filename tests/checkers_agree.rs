//! Cross-validation of the model checkers against each other and against
//! the naive lasso oracle.
//!
//! Three independent decision procedures coexist in `icstar-mc`:
//!
//! 1. the CTL labeling algorithm (fixpoints),
//! 2. the CTL* automata route (NNF → Büchi tableau → product emptiness),
//! 3. the naive bounded lasso enumerator.
//!
//! They must agree wherever their domains overlap.

use icstar::icstar_kripke::gen::{random_kripke, RandomConfig};
use icstar::{parse_state, Checker};
use icstar_logic::arb::{random_state_formula, FormulaConfig};
use icstar_logic::{build, PathFormula, StateFormula};
use icstar_mc::ctl::full_set;
use icstar_mc::fair::{FairReq, TransFairness};
use icstar_mc::naive::{eval_on_lasso, naive_e_check, simple_lit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(states: usize) -> RandomConfig {
    RandomConfig {
        states,
        atom_names: vec!["p".into(), "q".into()],
        label_density: 0.5,
        mean_out_degree: 2.0,
    }
}

/// Semantically equal (fast-path, general-route) formula pairs: the right
/// column's shape forces the Büchi product.
const EQUIVALENT_PAIRS: &[(&str, &str)] = &[
    ("EF p", "E(F F p)"),
    ("AG p", "A(G G p)"),
    ("EG p", "E(G G p)"),
    ("AF q", "A(F F q)"),
    ("E[p U q]", "E(p U (p U q))"),
    ("A[p U q]", "A(p U (p U q))"),
    ("EX p", "E(!!(X p))"),
    ("E(p R q)", "E(!(!p U !q))"),
    ("A(p R q)", "A(!(!p U !q))"),
    ("EF (p & q)", "E(F(p & F(p & q)))"),
];

#[test]
fn ctl_fast_path_agrees_with_buchi_route() {
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..25 {
        let m = random_kripke(&mut rng, &config(3 + trial % 5));
        let mut chk = Checker::new(&m);
        for (fast_src, general_src) in EQUIVALENT_PAIRS {
            let fast = parse_state(fast_src).unwrap();
            let general = parse_state(general_src).unwrap();
            let a = chk.sat(&fast).unwrap();
            let b = chk.sat(&general).unwrap();
            assert_eq!(*a, *b, "{fast_src} vs {general_src} on trial {trial}");
        }
    }
}

#[test]
fn random_ctl_formulas_stable_under_double_negation() {
    // ¬¬f must produce the same sat set — exercises both routes through
    // the complement logic.
    let mut rng = StdRng::seed_from_u64(22);
    let fcfg = FormulaConfig {
        max_depth: 4,
        allow_next: true,
        ..FormulaConfig::default()
    };
    for trial in 0..20 {
        let m = random_kripke(&mut rng, &config(3 + trial % 4));
        let mut chk = Checker::new(&m);
        for _ in 0..30 {
            let f = random_state_formula(&mut rng, &fcfg);
            let nn = f.clone().not().not();
            assert_eq!(*chk.sat(&f).unwrap(), *chk.sat(&nn).unwrap(), "{f}");
        }
    }
}

#[test]
fn duality_e_and_a() {
    // A(g) == !E(!g) for random path shapes, via the public API.
    let mut rng = StdRng::seed_from_u64(33);
    for trial in 0..15 {
        let m = random_kripke(&mut rng, &config(4));
        let mut chk = Checker::new(&m);
        for src in ["G p", "F q", "p U q", "G F p", "F G q", "p U (q U p)"] {
            let g = icstar::parse_path(src).unwrap();
            let a_form = StateFormula::All(Box::new(g.clone()));
            let not_e_not = StateFormula::Exists(Box::new(PathFormula::Not(Box::new(g)))).not();
            assert_eq!(
                *chk.sat(&a_form).unwrap(),
                *chk.sat(&not_e_not).unwrap(),
                "duality fails for {src} on trial {trial}"
            );
        }
    }
}

#[test]
fn naive_witness_implies_checker_yes() {
    let mut rng = StdRng::seed_from_u64(44);
    for trial in 0..20 {
        let m = random_kripke(&mut rng, &config(4));
        let mut chk = Checker::new(&m);
        for src in ["F q", "G p", "p U q", "G F p", "F (p & q)", "F G !p"] {
            let p = icstar::parse_path(src).unwrap();
            for s in m.states() {
                let mut lit = simple_lit(&m);
                if let Some(w) = naive_e_check(&m, s, &p, 5, &mut lit) {
                    assert!(w.is_path_of(&m));
                    let e = StateFormula::Exists(Box::new(p.clone()));
                    assert!(
                        chk.holds_at(s, &e).unwrap(),
                        "naive found witness for E({src}) at {s} but checker says no (trial {trial})"
                    );
                }
            }
        }
    }
}

#[test]
fn checker_witnesses_validate_on_the_naive_evaluator() {
    let mut rng = StdRng::seed_from_u64(55);
    for trial in 0..20 {
        let m = random_kripke(&mut rng, &config(5));
        let mut chk = Checker::new(&m);
        for src in ["F q", "p U q", "G F p", "F G q", "G (p -> F q)"] {
            let p = icstar::parse_path(src).unwrap();
            let e = StateFormula::Exists(Box::new(p.clone()));
            let sat = chk.sat(&e).unwrap().clone();
            for s in m.states() {
                if sat.contains(s.idx()) {
                    let w = chk
                        .exists_witness(s, &p)
                        .unwrap()
                        .unwrap_or_else(|| panic!("missing witness for E({src}) at {s}"));
                    assert!(w.is_path_of(&m), "trial {trial}");
                    assert_eq!(w.first(), s);
                    let mut lit = simple_lit(&m);
                    assert!(
                        eval_on_lasso(&w, &p, &mut lit),
                        "witness for E({src}) at {s} fails the naive evaluator (trial {trial}): {w}"
                    );
                } else {
                    assert!(chk.exists_witness(s, &p).unwrap().is_none());
                }
            }
        }
    }
}

#[test]
fn unconstrained_fair_checker_collapses_to_plain_ctl() {
    // A fourth decision procedure joined the family: fair CTL, whose
    // `EG` is the fair-SCC construction rather than the fixpoint. Under
    // a requirement released in every state every path is fair, so its
    // sat sets must coincide with the plain labeling algorithm's on every
    // CTL formula — this is the degenerate case that anchors the fair
    // semantics to the unfair one.
    let mut rng = StdRng::seed_from_u64(88);
    let fcfg = FormulaConfig {
        max_depth: 4,
        allow_next: true,
        ctl_only: true,
        ..FormulaConfig::default()
    };
    for trial in 0..20 {
        let m = random_kripke(&mut rng, &config(3 + trial % 5));
        let all_fair = TransFairness::new([FairReq::new(full_set(&m), [])]);
        let mut plain = Checker::new(&m);
        let mut fair = Checker::with_fairness(&m, &all_fair);
        for fixed in ["EG p", "AF q", "AG AF p", "EG (p | EF q)", "A[p U q]"] {
            let f = parse_state(fixed).unwrap();
            assert_eq!(
                *plain.sat(&f).unwrap(),
                *fair.sat(&f).unwrap(),
                "{fixed} on trial {trial}"
            );
        }
        for _ in 0..20 {
            let f = random_state_formula(&mut rng, &fcfg);
            assert_eq!(
                *plain.sat(&f).unwrap(),
                *fair.sat(&f).unwrap(),
                "{f} on trial {trial}"
            );
        }
    }
}

#[test]
fn boolean_identities_hold() {
    let mut rng = StdRng::seed_from_u64(66);
    let m = random_kripke(&mut rng, &config(5));
    let mut chk = Checker::new(&m);
    let p = build::prop("p");
    let q = build::prop("q");
    // De Morgan and friends across the checker.
    let pairs = [
        (
            p.clone().and(q.clone()).not(),
            p.clone().not().or(q.clone().not()),
        ),
        (p.clone().implies(q.clone()), p.clone().not().or(q.clone())),
        (
            p.clone().iff(q.clone()),
            p.clone()
                .implies(q.clone())
                .and(q.clone().implies(p.clone())),
        ),
    ];
    for (a, b) in pairs {
        assert_eq!(*chk.sat(&a).unwrap(), *chk.sat(&b).unwrap(), "{a} vs {b}");
    }
}

#[test]
fn fixpoint_unfolding_identities() {
    // EF f == f | EX EF f ; EG f == f & EX EG f ; A[f U g] == g | (f & AX A[f U g])
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..10 {
        let m = random_kripke(&mut rng, &config(5));
        let mut chk = Checker::new(&m);
        for (lhs, rhs) in [
            ("EF p", "p | EX EF p"),
            ("EG p", "p & EX EG p"),
            ("A[p U q]", "q | (p & AX A[p U q])"),
            ("E[p U q]", "q | (p & EX E[p U q])"),
        ] {
            let a = parse_state(lhs).unwrap();
            let b = parse_state(rhs).unwrap();
            assert_eq!(*chk.sat(&a).unwrap(), *chk.sat(&b).unwrap(), "{lhs}");
        }
    }
}
