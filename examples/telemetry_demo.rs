//! Observability end to end: a mutex workload at `n = 100,000` driven
//! through the verification service and the TCP front-end, with every
//! layer's metrics inspected on the way out.
//!
//! Three phases:
//!
//! 1. **Explore** — the service checks a counting + a quantified mutex
//!    property at `n = 100,000`; the telemetry snapshot must show a
//!    nonzero exploration throughput (`sym.explore.states` over
//!    `sym.explore.build_ns`) and one sample in every per-job phase
//!    histogram, with queue wait ≤ total latency.
//! 2. **Wire** — the same registry is fetched over a real TCP socket via
//!    the `METRICS` command and parsed back from the Prometheus text
//!    exposition; the wire view must agree with the in-process one.
//! 3. **Span tree** — the cold job's trace, read back from the service's
//!    flight recorder (`VerifyService::recorder`), must hold the `job`,
//!    `cache_lookup`, `build`, `explore` and `check` spans, with
//!    `explore` parented under `build`.
//!
//! Run with: `cargo run --release --example telemetry_demo`

use std::time::Instant;

use icstar::{ServeConfig, VerifyJob, VerifyService};
use icstar_logic::parse_state;
use icstar_sym::mutex_template;
use icstar_wire::{WireClient, WireServer};

const BIG: u32 = 100_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== observability at n = {BIG} ==\n");

    // ---- Phase 1: a large job, metered at every layer ----
    let service = VerifyService::start(ServeConfig::default());
    let job = VerifyJob::new(mutex_template())
        .at_size(BIG)
        .formula("mutual exclusion", parse_state("AG !crit_ge2")?)
        .formula(
            "access possibility",
            parse_state("forall i. AG(try[i] -> EF crit[i])")?,
        );
    let started = Instant::now();
    let cold = service.submit(job.clone());
    let cold_trace = cold.trace;
    assert!(cold.wait()?.all_hold());
    println!("job 1 (cold): verified in {:.2?}", started.elapsed());
    let started = Instant::now();
    assert!(service.submit(job).wait()?.all_hold());
    println!("job 2 (cached): verified in {:.2?}\n", started.elapsed());

    let snap = service.telemetry_snapshot();
    let states = snap.counter("sym.explore.states").expect("explore states");
    let build = snap.histogram("sym.explore.build_ns").expect("build times");
    assert!(states > 0 && build.sum > 0, "exploration must be metered");
    let throughput = states as f64 / (build.sum as f64 / 1e9);
    assert!(throughput > 0.0, "nonzero exploration throughput");
    println!(
        "exploration: {states} abstract states in {} builds — {:.0} states/sec",
        build.count, throughput
    );

    let queue = snap.histogram("serve.job.queue_wait_ns").expect("queue");
    let total = snap.histogram("serve.job.total_ns").expect("total");
    assert_eq!(queue.count, 2, "one queue-wait sample per job");
    assert_eq!(total.count, 2, "one total-latency sample per job");
    assert!(
        queue.sum <= total.sum,
        "queue wait is part of total latency"
    );
    for name in ["serve.job.build_ns", "serve.job.check_ns"] {
        let h = snap.histogram(name).expect(name);
        println!("{name}: p50 ≈ {}ns over {} jobs", h.p50(), h.count);
    }
    println!(
        "cache: {} hits / {} misses, hit p50 ≈ {}ns vs miss p50 ≈ {}ns\n",
        snap.counter("serve.cache.hits").unwrap_or(0),
        snap.counter("serve.cache.misses").unwrap_or(0),
        snap.histogram("serve.cache.hit_ns").map_or(0, |h| h.p50()),
        snap.histogram("serve.cache.miss_ns").map_or(0, |h| h.p50()),
    );

    // ---- Phase 2: the same registry over TCP, Prometheus-encoded ----
    // The server takes the service; keep a handle on its recorder.
    let recorder = service.recorder().clone();
    let server = WireServer::bind("127.0.0.1:0", service)?;
    let mut client = WireClient::connect(server.local_addr())?;
    let wire = client.metrics()?;
    // The METRICS exposition parses back into the same numbers (names
    // come back wire-mangled: dots become underscores).
    assert_eq!(
        wire.counter("icstar_sym_explore_states"),
        Some(states),
        "the wire view agrees with the in-process snapshot"
    );
    assert_eq!(
        wire.histogram("icstar_serve_job_total_ns").map(|h| h.count),
        Some(2)
    );
    assert_eq!(wire.counter("icstar_wire_cmd_metrics"), Some(1));
    println!(
        "wire: METRICS exported {} metrics over TCP, parsed back loss-free",
        wire.metrics.len()
    );

    client.quit()?;
    server.shutdown();

    // ---- Phase 3: the cold job's span tree, from the flight recorder ----
    let spans = recorder.spans_for(cold_trace);
    for name in ["job", "cache_lookup", "build", "explore", "check"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "the cold job's trace holds a {name:?} span"
        );
    }
    let builds: Vec<_> = spans.iter().filter(|s| s.name == "build").collect();
    assert!(
        spans
            .iter()
            .filter(|s| s.name == "explore")
            .all(|e| builds.iter().any(|b| e.parent == Some(b.id))),
        "every explore span is parented under a build span"
    );
    println!(
        "trace: the cold job recorded {} spans, explore under build",
        spans.len()
    );
    println!("\ndone: every layer metered, exported, and verified at n = {BIG}.");
    Ok(())
}
