//! The cutoff-certification battery: every certificate the engine
//! issues is re-validated against direct verification, and every family
//! that must not certify is pinned as a refusal.
//!
//! A [`CutoffCertificate`] claims that one verdict covers **infinitely
//! many** family sizes, so a wrong certificate is the worst bug this
//! repository can ship — worse than a crash, because nothing downstream
//! can notice. Two oracles guard against it:
//!
//! * the gallery workloads (`docs/WORKLOADS.md`) certify their
//!   documented properties and the certified verdict is compared with a
//!   direct counter-abstraction check at **every** `n ≤ c + 5`;
//! * 100+ random guarded/broadcast templates go through the same
//!   certify-then-revalidate loop over formulas drawn from their own
//!   counting vocabulary.
//!
//! The refusal side is equally load-bearing: a family engineered to
//! keep changing behavior past any small size (a guard bound of 1000)
//! must be *refused*, never certified from the small prefix.

use icstar::Atom;
use icstar_logic::parse_state;
use icstar_serve::{VerifyJob, VerifyService};
use icstar_sym::arb::{random_guarded_template, RandomGuardedConfig};
use icstar_sym::{
    barrier_template, msi_template, mutex_template, ring_station_template, wakeup_template,
    CutoffConfig, CutoffRefusal, Guard, GuardedBuilder, GuardedTemplate, SymEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The six gallery workloads with the properties `docs/WORKLOADS.md`
/// certifies for them (counting, quantified, and depth-2 nested rows).
fn gallery() -> Vec<(&'static str, GuardedTemplate, Vec<&'static str>)> {
    let fig41 = GuardedTemplate::free(icstar_nets::fig41_template());
    vec![
        (
            "mutex",
            mutex_template(),
            vec![
                "AG !crit_ge2",
                "forall i. AG(try[i] -> EF crit[i])",
                "forall i. exists j. AG (crit[i] -> !crit[j])",
            ],
        ),
        (
            "ring-station",
            ring_station_template(3, 2),
            vec!["AG !s1_ge2", "AG !s2_ge2"],
        ),
        (
            "barrier",
            barrier_template(),
            vec![
                "AG (phase1_ge1 -> phase0_eq0)",
                "forall i. AG (phase0[i] -> EF phase1[i])",
            ],
        ),
        (
            "msi",
            msi_template(),
            vec!["AG !modified_ge2", "AG (modified_ge1 -> shared_eq0)"],
        ),
        (
            "wakeup",
            wakeup_template(),
            vec![
                "AG ((awake_ge1 | working_ge1) -> asleep_eq0)",
                "forall i. AG (asleep[i] -> EF working[i])",
            ],
        ),
        ("fig41", fig41, vec!["EF b_ge1", "AG EF b_ge1"]),
    ]
}

/// The battery's core move: a certificate's single verdict must match a
/// direct counter-abstraction check at every covered size up to
/// `c + 5` — the certified region's first few sizes are exactly where a
/// too-early stabilization claim would show. (Sizes below `c` carry no
/// claim: the verdict changing there is why `c` is where it is.)
fn revalidate(name: &str, engine: &SymEngine, src: &str) {
    let f = parse_state(src).unwrap();
    let cert = engine
        .certify_cutoff(&f)
        .unwrap_or_else(|r| panic!("{name}: {src:?} refused: {r}"));
    for n in cert.c..=cert.c + 5 {
        let direct = engine
            .check(n, &f)
            .unwrap_or_else(|e| panic!("{name}: {src:?} at n = {n}: {e}"));
        assert_eq!(
            direct, cert.holds,
            "{name}: certificate (c = {}) disagrees with the direct \
             verdict for {src:?} at n = {n}",
            cert.c
        );
    }
}

#[test]
fn gallery_certificates_agree_with_direct_verification() {
    for (name, t, props) in gallery() {
        let engine = SymEngine::new(t);
        for src in props {
            revalidate(name, &engine, src);
        }
    }
}

#[test]
fn random_templates_certify_only_stabilizing_truths() {
    // Random guarded/broadcast templates (fairness off — fair templates
    // are refused by design), formulas drawn from each template's own
    // counting vocabulary. Every certificate is revalidated; refusals
    // are fine (not every random family stabilizes within the horizon),
    // but the run must certify enough to have teeth.
    let cfg = RandomGuardedConfig::default();
    // A tight scan horizon keeps the 480-certification battery fast in
    // debug builds; random counting formulas stabilize by c = 2 anyway,
    // and the `certified >= 100` floor below would catch a horizon that
    // starts refusing real stabilizations.
    let quick = CutoffConfig {
        max_c: 6,
        samples: 2,
        ..CutoffConfig::default()
    };
    let mut templates = 0u32;
    let mut certified = 0u32;
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        let t = random_guarded_template(&mut rng, &cfg);
        let engine = SymEngine::new(t);
        templates += 1;
        let atoms: Vec<String> = engine
            .spec()
            .atom_universe()
            .into_iter()
            .filter_map(|a| match a {
                Atom::Plain(p) => Some(p),
                _ => None,
            })
            .collect();
        let Some(a) = atoms.first() else {
            continue; // label-free template: no formulas to certify
        };
        let mut sources = vec![format!("AG {a}"), format!("EF {a}"), format!("AG EF {a}")];
        if let Some(b) = atoms.get(1) {
            sources.push(format!("AG ({a} -> EF {b})"));
        }
        for src in &sources {
            let f = parse_state(src).unwrap();
            let Ok(cert) = engine.certify_cutoff_with(&f, &quick) else {
                continue;
            };
            certified += 1;
            for n in cert.c..=cert.c + 3 {
                assert_eq!(
                    engine.check(n, &f).unwrap(),
                    cert.holds,
                    "seed {seed}: certificate (c = {}) disagrees with the \
                     direct verdict for {src:?} at n = {n}",
                    cert.c
                );
            }
        }
    }
    assert!(templates >= 100, "the battery must cover 100+ templates");
    assert!(
        certified >= 100,
        "only {certified} certificates issued — the battery lost its teeth"
    );
}

/// A family engineered to *change* behavior at a large size: copies sit
/// in `wait` until 1000 of them exist, then one may step into `boom`.
/// Every n < 1000 looks identical — exactly the trap a naive
/// small-prefix scan would fall into.
fn late_trigger() -> GuardedTemplate {
    let mut b = GuardedBuilder::new();
    let wait = b.state("wait", ["wait"]);
    let boom = b.state("boom", ["boom"]);
    b.edge(wait, wait);
    b.edge_guarded(wait, boom, [Guard::at_least("wait", 1000)]);
    b.edge(boom, boom);
    b.build(wait)
}

#[test]
fn non_stabilizing_family_is_refused_not_certified() {
    let engine = SymEngine::new(late_trigger());
    let f = parse_state("AG boom_eq0").unwrap();
    // The verdict genuinely flips at the guard bound...
    assert!(engine.check(999, &f).unwrap());
    assert!(!engine.check(1000, &f).unwrap());
    // ...so certification must refuse (the guard floor sits beyond any
    // reasonable scan horizon), never certify the small-n prefix.
    match engine.certify_cutoff(&f) {
        Err(CutoffRefusal::FloorBeyondHorizon { floor, .. }) => assert_eq!(floor, 1000),
        other => panic!("expected a floor refusal, got {other:?}"),
    }
    // Even with the horizon raised, the refusal stays honest: the scan
    // must not certify below the floor.
    let wide = CutoffConfig {
        max_c: 64,
        ..CutoffConfig::default()
    };
    assert!(engine.certify_cutoff_with(&f, &wide).is_err());
}

#[test]
fn pinned_refusals_for_fragment_and_fairness() {
    // Nexttime distinguishes sizes forever (one step changes one
    // counter); the fragment gate refuses it up front.
    let engine = SymEngine::new(mutex_template());
    assert!(matches!(
        engine.certify_cutoff(&parse_state("AX try_ge1").unwrap()),
        Err(CutoffRefusal::Fragment(_))
    ));
    // Fair templates route through a different checker whose verdicts
    // the correspondence argument does not cover.
    let fair = SymEngine::new(mutex_template().with_fairness("enter", [(1, 2)]));
    assert!(matches!(
        fair.certify_cutoff(&parse_state("AG AF crit_ge1").unwrap()),
        Err(CutoffRefusal::Fair)
    ));
}

/// The guard chain: states `s0..s8`, `s_i` labeled `q_i`, every state
/// with a self-loop, and `s_i → s_{i+1}` guarded by `@q_i >= 2`. A copy
/// climbs one level only by leaving another behind, so reaching `s8`
/// takes nine copies — a size no guard or atom constant reveals.
fn guard_chain() -> GuardedTemplate {
    let mut b = GuardedBuilder::new();
    let states: Vec<u32> = (0..9)
        .map(|i| b.state(format!("s{i}"), [format!("q{i}")]))
        .collect();
    for (i, &s) in states.iter().enumerate() {
        b.edge(s, s);
        if let Some(&up) = states.get(i + 1) {
            b.edge_guarded(s, up, [Guard::at_least(format!("q{i}"), 2)]);
        }
    }
    b.build(states[0])
}

#[test]
fn guard_chain_direct_verdicts_are_pinned() {
    // The known counterexample to the certificate's premise: the counter
    // structures of adjacent small sizes correspond after projection to
    // `q8_ge1`, yet the verdict flips at n = 9. A certificate scanned
    // from small sizes (today `c = 2, holds = false`) is wrong from there
    // on; these direct verdicts are what a sound route must reproduce.
    let engine = SymEngine::new(guard_chain());
    let f = parse_state("EF q8_ge1").unwrap();
    for n in 1..=8 {
        assert!(!engine.check(n, &f).unwrap(), "n = {n}");
    }
    for n in [9, 10, 20] {
        assert!(engine.check(n, &f).unwrap(), "n = {n}");
    }
}

#[test]
fn guard_chain_bounded_jobs_get_direct_verdicts_after_certification() {
    // An unbounded job caches whatever the scan concludes for the chain
    // (today `c = 2, holds = false`); a bounded job at n = 9 must still be
    // checked directly, not answered from that certificate.
    let service = VerifyService::with_defaults();
    let f = parse_state("EF q8_ge1").unwrap();
    let unbounded = VerifyJob::new(guard_chain())
        .all_sizes_from(1)
        .formula("chain", f.clone());
    service.submit(unbounded).wait().unwrap();
    let bounded = VerifyJob::new(guard_chain()).at_size(9).formula("chain", f);
    let report = service.submit(bounded).wait().unwrap();
    assert!(matches!(report.verdicts[0].result, Ok(true)));
    assert_eq!(report.verdicts[0].cutoff, None);
}
