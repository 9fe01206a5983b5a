//! Benchmark: the wire layer (`icstar-wire`).
//!
//! The serialization path (print + parse of jobs) must stay negligible
//! next to verification itself, and the TCP front-end's per-job overhead
//! must stay in microseconds — the round trip here includes submit,
//! queue, check at a tiny size, and report streaming. Behind every
//! cached job sits a structure-cache hit, timed on its own in
//! `serve/cache/hit`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use icstar::{parse_state, ServeConfig, VerifyJob, VerifyService};
use icstar_nets::fig41_template;
use icstar_serve::{CacheKey, GraphCache};
use icstar_sym::{
    barrier_template, msi_template, mutex_template, ring_station_template, wakeup_template,
    CountingSpec, GuardedTemplate, SymEngine,
};
use icstar_wire::{parse_job, print_job, WireClient, WireServer};

fn demo_job(sizes: &[u32]) -> VerifyJob {
    VerifyJob::new(mutex_template())
        .at_sizes(sizes.iter().copied())
        .formula("mutex", parse_state("AG !crit_ge2").unwrap())
        .formula(
            "access",
            parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
        )
}

fn bench_print_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/print-parse");
    group.sample_size(50);
    let small = demo_job(&[100]);
    let big = VerifyJob::new(ring_station_template(24, 3))
        .at_sizes((1..=64).collect::<Vec<u32>>())
        .formula("cap", parse_state("AG !s1_ge2").unwrap());
    for (name, job) in [("mutex-job", &small), ("ring24-job", &big)] {
        let text = print_job(job);
        group.bench_function(format!("print/{name}"), |b| {
            b.iter(|| print_job(black_box(job)))
        });
        group.bench_function(format!("parse/{name}"), |b| {
            b.iter(|| parse_job(black_box(&text)).unwrap())
        });
    }
    group.finish();
}

fn bench_socket_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/socket-round-trip");
    group.sample_size(20);
    let server = WireServer::bind(
        "127.0.0.1:0",
        VerifyService::start(ServeConfig {
            workers: 2,
            cache_budget_states: u64::MAX,
            ..ServeConfig::default()
        }),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let job = demo_job(&[10]);
    group.bench_function("submit+result/cached", |b| {
        b.iter(|| {
            let id = client.submit(black_box(&job)).unwrap();
            assert!(client.result(id).unwrap().all_hold());
        })
    });
    group.finish();
}

fn bench_concurrent_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/concurrent-load");
    group.sample_size(10);
    let server = WireServer::bind(
        "127.0.0.1:0",
        VerifyService::start(ServeConfig {
            workers: 2,
            cache_budget_states: u64::MAX,
            ..ServeConfig::default()
        }),
    )
    .unwrap();

    // Pipelining amortizes the round trip: 32 submits go down the pipe
    // before the first answer is read, then 32 RESULTs the same way.
    let jobs: Vec<VerifyJob> = (0..32).map(|_| demo_job(&[10])).collect();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    group.bench_function("pipelined-32/submit+result", |b| {
        b.iter(|| {
            let ids = client.submit_pipelined(black_box(&jobs)).unwrap();
            let reports = client.results_pipelined(&ids).unwrap();
            assert!(reports.iter().all(|r| r.all_hold()));
        })
    });

    // 64 persistent connections: the loop's per-tick sweep cost shows
    // up in each round trip once many conversations are open at once.
    let mut clients: Vec<WireClient> = (0..64)
        .map(|_| WireClient::connect(server.local_addr()).unwrap())
        .collect();
    group.bench_function("ping/64-conns", |b| {
        b.iter(|| {
            for client in clients.iter_mut() {
                client.ping().unwrap();
            }
        })
    });
    for client in clients {
        client.quit().unwrap();
    }
    group.finish();
}

/// The six gallery families, plain and with the fairness their
/// liveness rows declare.
fn gallery() -> Vec<GuardedTemplate> {
    let fig41 = GuardedTemplate::free(fig41_template());
    let ring = ring_station_template(4, 1);
    let plain = vec![
        fig41.clone(),
        mutex_template(),
        ring.clone(),
        barrier_template(),
        msi_template(),
        wakeup_template(),
    ];
    let fair = vec![
        fig41.with_fairness("fall", [(0, 1)]),
        mutex_template().with_fairness("enter", [(1, 2)]),
        ring.with_fairness("advance", [(0, 1), (1, 2), (2, 3), (3, 0)]),
        barrier_template()
            .with_fairness("arrive", [(0, 1), (2, 3)])
            .with_fairness("release", [(1, 2), (3, 0)]),
        msi_template().with_fairness("writeback", [(2, 0)]),
        wakeup_template().with_fairness("wake", [(0, 1)]),
    ];
    plain.into_iter().chain(fair).collect()
}

fn bench_cache_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/cache");
    group.sample_size(50);
    // 12 templates × 4 sizes = 48 warm entries; one call looks each up
    // once, computing its key first as a job does.
    let workloads: Vec<(GuardedTemplate, CountingSpec, u32)> = gallery()
        .into_iter()
        .flat_map(|t| {
            let spec = CountingSpec::standard(&t);
            [10, 20, 40, 80].map(|n| (t.clone(), spec.clone(), n))
        })
        .collect();
    let cache = GraphCache::new(u64::MAX, None);
    for (t, spec, n) in &workloads {
        let engine = SymEngine::with_spec(t.clone(), spec.clone());
        let key = CacheKey::of(t, spec, *n, 0);
        cache.get(&key, || engine.graph(*n, 0)).unwrap();
    }
    assert_eq!(cache.len(), 48);
    group.bench_function("hit", |b| {
        b.iter(|| {
            for (t, spec, n) in &workloads {
                let key = CacheKey::of(black_box(t), spec, *n, 0);
                let graph = cache.get(&key, || unreachable!("warm"));
                black_box(graph.unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_print_parse,
    bench_socket_round_trip,
    bench_concurrent_load,
    bench_cache_hit
);
criterion_main!(benches);
