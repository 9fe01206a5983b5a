//! The unbounded-size refusal battery: a job's `lo..*` tail is never
//! answered with a truth value, and every bounded size next to it is
//! answered exactly as a direct check answers it.
//!
//! A verdict that claims to cover **infinitely many** family sizes is
//! the worst bug this repository can ship — worse than a crash, because
//! nothing downstream can notice. Agreement between a few small sizes
//! does not imply a cutoff: the guard chain below is false up to
//! `n = 8` and true from `n = 9`, and no guard or atom constant reveals
//! that. Until a proven route exists, the service refuses the tail with
//! [`SymError::NoProvenCutoff`].
//!
//! Every job here asks for `sizes 1 2 … 12 13..*` and must come back
//! with:
//!
//! * a verdict at each `n ≤ 12` equal to [`SymEngine::check`] at `n`;
//! * exactly one `NoProvenCutoff` verdict per formula at `n = 13`, and
//!   never `holds` or `fails` there;
//! * `serve.verdicts.errors` raised by exactly the number of refusals.
//!
//! The families are the gallery workloads (`docs/WORKLOADS.md`), the
//! guard chain, a late-trigger family whose verdict flips at
//! `n = 1000`, and 100 seeded random guarded templates with broadcasts
//! and interval guards.

use icstar::Atom;
use icstar_logic::{parse_state, StateFormula};
use icstar_serve::{VerifyJob, VerifyService};
use icstar_sym::arb::{random_guarded_template, RandomGuardedConfig};
use icstar_sym::{
    barrier_template, msi_template, mutex_template, ring_station_template, wakeup_template, Guard,
    GuardedBuilder, GuardedTemplate, SymEngine, SymError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The largest size every job checks directly; its tail starts one
/// above.
const BOUNDED: u32 = 12;

/// The six gallery workloads with the properties `docs/WORKLOADS.md`
/// lists for them (counting, quantified, and depth-2 nested rows).
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

/// The errors the service has counted so far (`serve.verdicts.errors`).
fn verdict_errors(service: &VerifyService) -> u64 {
    service.telemetry().counter("serve.verdicts.errors").get()
}

/// Submits `sizes 1 … BOUNDED (BOUNDED+1)..*` for `formulas` on `t` and
/// checks the report against direct verification: every bounded verdict
/// equals [`SymEngine::check`], and the tail is one refusal per formula.
/// Returns the bounded verdicts, size-major, for family-specific pins.
fn assert_refused_past_direct_sizes(
    service: &VerifyService,
    name: &str,
    t: &GuardedTemplate,
    formulas: &[(String, StateFormula)],
) -> Vec<(u32, bool)> {
    let job = VerifyJob::new(t.clone())
        .at_sizes(1..=BOUNDED)
        .all_sizes_from(BOUNDED + 1)
        .formulas_from(formulas.to_vec());
    let errors_before = verdict_errors(service);
    let report = service.submit(job).wait().unwrap();
    let errors = verdict_errors(service) - errors_before;

    let per_size = formulas.len();
    let (bounded, tail) = report.verdicts.split_at(BOUNDED as usize * per_size);
    let engine = SymEngine::new(t.clone());
    let mut direct = Vec::with_capacity(bounded.len());
    for (i, v) in bounded.iter().enumerate() {
        // Size-major: every formula at n = 1, then at n = 2, and so on.
        let n = 1 + (i / per_size) as u32;
        let (src, f) = &formulas[i % per_size];
        assert_eq!((&v.name, v.n), (src, n), "{name}: verdicts out of order");
        let expected = engine
            .check(n, f)
            .unwrap_or_else(|e| panic!("{name}: {src} at n = {n}: {e}"));
        assert_eq!(
            v.result,
            Ok(expected),
            "{name}: {src} at n = {n} disagrees with the direct check"
        );
        direct.push((n, expected));
    }

    // The tail: one refusal per formula, in submission order, at lo.
    assert_eq!(tail.len(), per_size, "{name}: one tail verdict per formula");
    for (v, (fname, _)) in tail.iter().zip(formulas) {
        assert_eq!(&v.name, fname);
        assert_eq!(v.n, BOUNDED + 1, "{name}: {fname} refused at lo");
        assert_eq!(
            v.result,
            Err(SymError::NoProvenCutoff),
            "{name}: {fname} must be refused, never answered"
        );
        assert_eq!((v.rep_width, v.fair), (0, false));
    }
    assert_eq!(
        errors, per_size as u64,
        "{name}: serve.verdicts.errors counts each refusal once"
    );
    direct
}

fn named(sources: &[impl AsRef<str>]) -> Vec<(String, StateFormula)> {
    sources
        .iter()
        .map(|s| (s.as_ref().to_string(), parse_state(s.as_ref()).unwrap()))
        .collect()
}

#[test]
fn gallery_unbounded_jobs_are_refused_past_direct_sizes() {
    let service = VerifyService::with_defaults();
    for (name, t, props) in gallery() {
        assert_refused_past_direct_sizes(&service, name, &t, &named(&props));
    }
}

#[test]
fn random_templates_unbounded_jobs_are_refused_past_direct_sizes() {
    // Seeded random guarded templates (fairness off by default) with
    // formulas drawn from each template's own counting vocabulary.
    let cfg = RandomGuardedConfig::default();
    let service = VerifyService::with_defaults();
    let (mut templates, mut with_broadcasts, mut with_intervals) = (0u32, 0u32, 0u32);
    for seed in 0..200u64 {
        if templates == 100 {
            break;
        }
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        let t = random_guarded_template(&mut rng, &cfg);
        let atoms: Vec<String> = SymEngine::new(t.clone())
            .spec()
            .atom_universe()
            .into_iter()
            .filter_map(|a| match a {
                Atom::Plain(p) => Some(p),
                _ => None,
            })
            .collect();
        let Some(a) = atoms.first() else {
            continue; // label-free template: no formulas to submit
        };
        let mut sources = vec![format!("AG {a}"), format!("EF {a}"), format!("AG EF {a}")];
        if let Some(b) = atoms.get(1) {
            sources.push(format!("AG ({a} -> EF {b})"));
        }
        assert_refused_past_direct_sizes(&service, &format!("seed {seed}"), &t, &named(&sources));
        templates += 1;
        with_broadcasts += u32::from(!t.broadcasts().is_empty());
        let interval = |g: &Guard| matches!(g, Guard::InRange(..) | Guard::StateInRange(..));
        let edge_guards = (0..t.num_states() as u32)
            .flat_map(|q| (0..t.successors(q).len()).map(move |k| (q, k)))
            .flat_map(|(q, k)| t.guards(q, k));
        let bcast_guards = t.broadcasts().iter().flat_map(|b| b.guards());
        with_intervals += u32::from(edge_guards.chain(bcast_guards).any(interval));
    }
    assert_eq!(templates, 100, "the battery must cover 100 templates");
    assert!(
        with_broadcasts >= 20,
        "only {with_broadcasts} with broadcasts"
    );
    assert!(
        with_intervals >= 20,
        "only {with_intervals} with interval guards"
    );
}

/// A family engineered to *change* behavior at a large size: copies sit
/// in `wait` until 1000 of them exist, then one may step into `boom`.
/// Every n < 1000 looks identical — exactly the trap a small-prefix
/// scan falls into.
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
    // The verdict genuinely flips at the guard bound; a proven route
    // must reproduce both sides of it.
    assert!(engine.check(999, &f).unwrap());
    assert!(!engine.check(1000, &f).unwrap());
    // Every bounded size agrees, and the tail is still refused.
    let service = VerifyService::with_defaults();
    let direct = assert_refused_past_direct_sizes(
        &service,
        "late trigger",
        &late_trigger(),
        &named(&["AG boom_eq0"]),
    );
    assert!(direct.iter().all(|&(_, holds)| holds));
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
    // The known counterexample to a cutoff read off small sizes: the
    // counter structures of adjacent small sizes correspond after
    // projection to `q8_ge1`, yet the verdict flips at n = 9. These
    // direct verdicts are what a sound route must reproduce.
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
fn guard_chain_job_is_refused_past_its_direct_sizes() {
    let service = VerifyService::with_defaults();
    let direct = assert_refused_past_direct_sizes(
        &service,
        "guard chain",
        &guard_chain(),
        &named(&["EF q8_ge1"]),
    );
    assert_eq!(direct.len(), BOUNDED as usize);
    for (n, holds) in direct {
        assert_eq!(holds, n >= 9, "n = {n}");
    }
    // A refused tail leaves nothing behind: a bounded follow-up past lo
    // is checked directly.
    let bounded = VerifyJob::new(guard_chain())
        .at_sizes([9, BOUNDED + 1])
        .formula("chain", parse_state("EF q8_ge1").unwrap());
    let report = service.submit(bounded).wait().unwrap();
    assert!(report.verdicts.iter().all(|v| v.result == Ok(true)));
}
