//! Integration tests for the verification service (`icstar-serve`).
//!
//! Three claims under test:
//!
//! 1. **Cache transparency** — verdicts served through the memoized
//!    cache agree verdict-for-verdict with a fresh, cache-free
//!    [`SymEngine`] run, over random templates and the guarded demo
//!    workloads.
//! 2. **Service liveness under load** — a small pool drains ≥ 64
//!    concurrent jobs over shared templates, every report arrives, and
//!    overlapping jobs actually share structures (hit-rate > 0).
//! 3. **Scale** — the counter graph of the mutex family builds and
//!    checks at `n = 10^6` (release-mode smoke test, `--ignored` in the
//!    default profile).

use icstar::icstar_sym::{mutex_template, ring_station_template, GuardedTemplate, SymEngine};
use icstar::{ServeConfig, VerifyJob, VerifyService};
use icstar_logic::parse_state;
use icstar_nets::{random_template, RandomTemplateConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_service(workers: usize) -> VerifyService {
    VerifyService::start(ServeConfig {
        workers,
        cache_budget_states: u64::MAX,
        ..ServeConfig::default()
    })
}

/// The workload battery: guarded demo templates plus random free ones.
fn template_pool() -> Vec<GuardedTemplate> {
    let mut pool = vec![mutex_template(), ring_station_template(3, 2)];
    let cfg = RandomTemplateConfig {
        states: 3,
        prop_names: vec!["p".into(), "q".into()],
        ..RandomTemplateConfig::default()
    };
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        pool.push(GuardedTemplate::free(random_template(&mut rng, &cfg)));
    }
    pool
}

/// Formulas over the standard counting atoms of `t`, one per proposition
/// flavor, plus an indexed one.
fn battery_for(t: &GuardedTemplate) -> Vec<(String, icstar_logic::StateFormula)> {
    let mut formulas = Vec::new();
    if let Some(p) = t.props().next() {
        for src in [
            format!("AG ({p}_ge1 -> {p}_ge1)"),
            format!("EF {p}_ge2"),
            format!("AG ({p}_eq0 | {p}_ge1)"),
            format!("forall i. EF {p}[i]"),
        ] {
            formulas.push((src.clone(), parse_state(&src).unwrap()));
        }
    }
    formulas
}

#[test]
fn cached_verdicts_agree_with_fresh_engines() {
    // Every job is submitted twice (the second run hits the cache) and
    // every verdict is cross-checked against a cache-free engine.
    let service = small_service(3);
    let sizes = [1u32, 2, 3, 4];
    for template in template_pool() {
        let formulas = battery_for(&template);
        if formulas.is_empty() {
            continue; // label-free random template: nothing to check
        }
        let job = VerifyJob::new(template.clone())
            .at_sizes(sizes)
            .formulas_from(formulas.clone());
        let first = service.submit(job.clone()).wait().unwrap();
        let second = service.submit(job).wait().unwrap();
        assert_eq!(first.verdicts.len(), second.verdicts.len());

        let engine = SymEngine::new(template);
        for (a, b) in first.verdicts.iter().zip(&second.verdicts) {
            assert_eq!(a, b, "cached rerun diverged");
            let direct = engine.check(a.n, &formulas.iter().find(|(s, _)| *s == a.name).unwrap().1);
            assert_eq!(a.result, direct, "{} at n = {}", a.name, a.n);
        }
    }
    let stats = service.stats();
    assert!(stats.cache_hits > 0, "reruns must hit: {stats:?}");
    assert_eq!(stats.jobs_submitted, stats.jobs_completed);
}

#[test]
fn stress_sixty_four_concurrent_jobs() {
    // 64 jobs over 2 shared templates and mixed sizes, against 4 workers:
    // every report arrives, verdicts are sound, and the overlap shows up
    // as cache hits.
    let service = small_service(4);
    // Ring capacity 1: at most one copy per non-lobby station, so the
    // `!s1_ge2` invariant below is exactly the capacity guard's claim.
    let templates = [mutex_template(), ring_station_template(4, 1)];
    let handles: Vec<_> = (0..64)
        .map(|i| {
            let template = templates[i % 2].clone();
            let n = [20u32, 40, 60][i % 3];
            let job = match i % 2 {
                0 => VerifyJob::new(template)
                    .at_size(n)
                    .formula("mutex", parse_state("AG !crit_ge2").unwrap())
                    .formula(
                        "access",
                        parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
                    ),
                _ => VerifyJob::new(template)
                    .at_size(n)
                    .formula("cap", parse_state("AG !s1_ge2").unwrap())
                    .formula("round trip", parse_state("forall i. EF s2[i]").unwrap()),
            };
            service.submit(job)
        })
        .collect();

    let mut reports = 0;
    for h in handles {
        let report = h.wait().expect("every job must report");
        assert_eq!(report.verdicts.len(), 2);
        assert!(report.all_hold(), "job {}: {:?}", report.job_id, report);
        reports += 1;
    }
    assert_eq!(reports, 64);

    let stats = service.stats();
    assert_eq!(stats.jobs_completed, 64);
    assert_eq!(stats.formulas_checked, 128);
    assert!(stats.cache_hits > 0, "shared workloads must hit: {stats:?}");
    assert!(stats.hit_rate() > 0.0);
    // 2 templates × 3 sizes × (counter + representative) distinct builds.
    assert_eq!(stats.cache_misses, 12);
}

/// Release-mode smoke test for the acceptance bar: materialize and check
/// the mutex family at `n = 10^6`. Run
/// with `cargo test --release --test serve -- --ignored` (CI does); too
/// slow for the default debug profile.
#[test]
#[ignore = "release-mode smoke test (run with --ignored)"]
fn counter_graph_verifies_mutex_at_one_million() {
    let n: u32 = 1_000_000;
    let engine = SymEngine::new(mutex_template());
    let graph = engine.counter_graph(n);
    // Reachable mutex counter states: (#try, #crit ≤ 1) — 2n + 1.
    assert_eq!(graph.kripke.num_states() as u32, 2 * n + 1);
    graph.kripke.validate().unwrap();

    let mut session = engine.session(n);
    session.seed_counter(std::sync::Arc::new(graph));
    assert!(session
        .check(&parse_state("AG !crit_ge2").unwrap())
        .unwrap());
    assert!(session
        .check(&parse_state("AG (try_ge1 -> EF crit_ge1)").unwrap())
        .unwrap());
}
