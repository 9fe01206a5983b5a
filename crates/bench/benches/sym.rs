//! Benchmark: the counter-abstraction engine (`icstar-sym`).
//!
//! Measures the exponential→polynomial collapse directly: building and
//! checking the abstract structure at n up to 10,000, against the
//! explicit free product whose cost doubles per process.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use icstar::icstar_sym::{
    barrier_template, mutex_template, CounterSystem, CountingSpec, GuardedTemplate, SymEngine,
};
use icstar::parse_state;
use icstar_nets::{fig41_template, interleave};
use icstar_serve::{VerifyJob, VerifyService};

fn bench_counter_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym/counter-graph");
    group.sample_size(10);
    let t = mutex_template();
    let spec = CountingSpec::standard(&t);
    for n in [100u32, 1_000, 10_000] {
        let sys = CounterSystem::new(t.clone(), n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let k = sys.kripke(&spec);
                assert_eq!(k.num_states() as u32, 2 * n + 1);
                k
            })
        });
    }
    group.finish();
}

fn bench_abstract_vs_explicit(c: &mut Criterion) {
    // Same workload, both routes: the explicit free product (2^n states)
    // vs its counter abstraction (n + 1 states).
    let mut group = c.benchmark_group("sym/abstract-vs-explicit");
    group.sample_size(10);
    let base = fig41_template();
    let gt = GuardedTemplate::free(base.clone());
    let spec = CountingSpec::standard(&gt);
    for n in [8u32, 12, 14] {
        group.bench_with_input(BenchmarkId::new("explicit", n), &n, |b, &n| {
            b.iter(|| interleave(&base, n))
        });
        group.bench_with_input(BenchmarkId::new("abstract", n), &n, |b, &n| {
            b.iter(|| CounterSystem::new(gt.clone(), n).kripke(&spec))
        });
    }
    group.finish();
}

/// Breadth-first reachability over `CounterSystem::successors` with
/// packed-key dedup: the exploration no build can avoid.
fn reach(sys: &CounterSystem) -> usize {
    let mut seen = std::collections::HashSet::from([sys.packing().pack(&sys.initial())]);
    let mut queue = vec![sys.initial()];
    let mut head = 0;
    while let Some(state) = queue.get(head).cloned() {
        head += 1;
        for next in sys.successors(&state) {
            if seen.insert(sys.packing().pack(&next)) {
                queue.push(next);
            }
        }
    }
    queue.len()
}

fn bench_build_vs_reach(c: &mut Criterion) {
    // What materializing costs over bare reachability: the counter graph
    // and the width-1/2 representative graphs (labels, names and the CSR
    // freeze included) next to the reachability sweep they all contain.
    let mut group = c.benchmark_group("sym/build-vs-reach");
    group.sample_size(10);
    let n = 10_000u32;
    let engine = SymEngine::new(mutex_template());
    let sys = engine.system(n);
    group.bench_function(BenchmarkId::new("reach", n), |b| {
        b.iter(|| assert_eq!(reach(&sys) as u32, 2 * n + 1))
    });
    group.bench_function(BenchmarkId::new("counter_graph", n), |b| {
        b.iter(|| engine.counter_graph(n))
    });
    for width in [1u32, 2] {
        group.bench_function(BenchmarkId::new(format!("rep_w{width}"), n), |b| {
            b.iter(|| engine.representative_graph(n, width).unwrap())
        });
    }
    group.finish();
}

fn bench_mutex_verification(c: &mut Criterion) {
    // The mutex gallery checks on structures their session built once,
    // outside the timed closure, as in `sym/fair-check`: a row times the
    // check, not a build (`sym/build-vs-reach` times those).
    let mut group = c.benchmark_group("sym/verify-mutex");
    group.sample_size(10);
    let engine = SymEngine::new(mutex_template());
    let counting = parse_state("AG !crit_ge2").unwrap();
    let indexed = parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap();
    for n in [1_000u32, 10_000] {
        let mut session = engine.session(n);
        session.graph_arc(0).unwrap();
        session.graph_arc(1).unwrap();
        group.bench_with_input(BenchmarkId::new("counting", n), &n, |b, _| {
            b.iter(|| assert!(session.check(&counting).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| assert!(session.check(&indexed).unwrap()))
        });
    }
    group.finish();
}

fn bench_representative_width(c: &mut Criterion) {
    // The multi-representative construction: building the width-k
    // structure and answering a depth-k query. Width 2 pays |S|× more
    // states than width 1 — this group pins that factor so regressions
    // in the lift's per-state hot path are visible.
    let mut group = c.benchmark_group("sym/representative-width");
    group.sample_size(10);
    let engine = SymEngine::new(mutex_template());
    let n = 2_000u32;
    for width in [1u32, 2] {
        group.bench_with_input(BenchmarkId::new("build", width), &width, |b, &width| {
            b.iter(|| engine.representative_graph(n, width).unwrap())
        });
    }
    // The checks run on a structure their session built once, outside
    // the timed closure (which runs once per sample).
    let depth1 = parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap();
    let depth2 = parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap();
    for (label, width, f) in [("depth1", 1, &depth1), ("depth2", 2, &depth2)] {
        let mut session = engine.session(n);
        session.graph_arc(width).unwrap();
        group.bench_with_input(BenchmarkId::new("check", label), &f, |b, f| {
            b.iter(|| assert!(session.check(f).unwrap()))
        });
    }
    group.finish();
}

fn bench_fair_check(c: &mut Criterion) {
    // The fair-fragment route: weak-fairness groups compiled onto the
    // occupancy structures and discharged by the checker under them.
    // Uses the barrier's fair variant (two groups over broadcasts) on a
    // recurrence property that *fails* unfair, so the fairness machinery
    // is genuinely load-bearing here, not a pass-through. As in
    // `sym/unfair-liveness`, each check runs on a structure its session
    // built once, outside the timed closure, so a row times the fair
    // check, not a build. CI asserts fair liveness is linear in n too:
    // the counting 100000/10000 ratio of the fastest samples must stay
    // near 10.
    let mut group = c.benchmark_group("sym/fair-check");
    group.sample_size(10);
    let engine = SymEngine::new(
        barrier_template()
            .with_fairness("arrive", [(0, 1), (2, 3)])
            .with_fairness("release", [(1, 2), (3, 0)]),
    );
    let counting = parse_state("AG AF phase1_ge1").unwrap();
    let indexed = parse_state("forall i. AG AF phase1[i]").unwrap();
    for n in [1_000u32, 10_000, 100_000] {
        let mut session = engine.session(n);
        session.graph_arc(0).unwrap();
        group.bench_with_input(BenchmarkId::new("counting", n), &n, |b, _| {
            b.iter(|| assert!(session.check(&counting).unwrap()))
        });
        if n <= 10_000 {
            session.graph_arc(1).unwrap();
            group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
                b.iter(|| assert!(session.check(&indexed).unwrap()))
            });
        }
    }
    group.finish();
}

fn bench_unfair_liveness(c: &mut Criterion) {
    // Plain liveness on a template without fairness, checked on a
    // structure the session built once (as the service checks cached
    // structures): the unconstrained checker routes `AF` to the plain
    // `EG`, which counts live successors instead of iterating `EX`
    // rounds, so the check is linear in n. CI asserts it: the
    // 100000/10000 ratio of the fastest samples must stay near 10 (a
    // quadratic `EG` gives about 100).
    let mut group = c.benchmark_group("sym/unfair-liveness");
    group.sample_size(10);
    let engine = SymEngine::new(mutex_template());
    let liveness = parse_state("AG AF crit_ge1").unwrap();
    for n in [1_000u32, 10_000, 100_000] {
        let mut session = engine.session(n);
        session.graph_arc(0).unwrap();
        group.bench_with_input(BenchmarkId::new("counting", n), &n, |b, _| {
            b.iter(|| assert!(session.check(&liveness).unwrap()))
        });
    }
    group.finish();
}

fn bench_cross_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym/cross-check");
    group.sample_size(10);
    let engine = SymEngine::new(mutex_template());
    for n in [2u32, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| engine.cross_check(n).unwrap())
        });
    }
    group.finish();
}

fn bench_cutoff_detect(c: &mut Criterion) {
    // Certification cost: the scan that finds the stabilization point
    // and the independent re-verification behind it. This is the *cold*
    // price paid once per (template, formula) — the serve layer then
    // answers every size from the certificate.
    let mut group = c.benchmark_group("sym/cutoff-detect");
    group.sample_size(10);
    let mutex = SymEngine::new(mutex_template());
    let mutex_f = parse_state("AG !crit_ge2").unwrap();
    group.bench_function("mutex", |b| {
        b.iter(|| {
            let cert = mutex.certify_cutoff(&mutex_f).unwrap();
            assert_eq!(cert.c, 2);
            cert
        })
    });
    let barrier = SymEngine::new(barrier_template());
    let barrier_f = parse_state("AG (phase1_ge1 -> phase0_eq0)").unwrap();
    group.bench_function("barrier", |b| {
        b.iter(|| {
            let cert = barrier.certify_cutoff(&barrier_f).unwrap();
            assert_eq!(cert.c, 1);
            cert
        })
    });
    group.finish();
}

fn bench_cutoff_answer(c: &mut Criterion) {
    // The O(1) certified path end to end: a warmed certificate answers
    // the unbounded tail from n = 10^6 through the full submit/report
    // round-trip without building any structure (bounded sizes are
    // always checked directly). The median here is submission plumbing,
    // not verification — that is the point.
    let mut group = c.benchmark_group("serve/cutoff-answer");
    group.sample_size(10);
    let service = VerifyService::with_defaults();
    let f = parse_state("AG !crit_ge2").unwrap();
    let warm = service
        .submit(
            VerifyJob::new(mutex_template())
                .all_sizes_from(1)
                .formula("mutex", f.clone()),
        )
        .wait()
        .unwrap();
    assert!(warm.verdicts.iter().any(|v| v.cutoff.is_some()));
    group.bench_function("mutex/1000000", |b| {
        b.iter(|| {
            let report = service
                .submit(
                    VerifyJob::new(mutex_template())
                        .all_sizes_from(1_000_000)
                        .formula("mutex", f.clone()),
                )
                .wait()
                .unwrap();
            assert_eq!(report.verdicts.len(), 1);
            assert_eq!(report.verdicts[0].cutoff, Some(2));
            report
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_counter_graph,
    bench_abstract_vs_explicit,
    bench_build_vs_reach,
    bench_mutex_verification,
    bench_representative_width,
    bench_fair_check,
    bench_unfair_liveness,
    bench_cross_check,
    bench_cutoff_detect,
    bench_cutoff_answer
);
criterion_main!(benches);
