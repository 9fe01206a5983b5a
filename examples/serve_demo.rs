//! The verification service end to end: concurrent jobs, a shared
//! structure cache, and a million-process build.
//!
//! Two phases:
//!
//! 1. **Service traffic** — ten jobs over two templates (the test-and-set
//!    mutex and a capacity-guarded station ring) at four family sizes are
//!    submitted up front and drained by the worker pool. The workloads
//!    overlap deliberately: the service stats afterwards show materialized
//!    structures being shared (cache hits).
//! 2. **Scale** — the mutex family at `n = 1,000,000` is materialized
//!    (~2 million abstract states) and mutual exclusion is verified on
//!    it directly.
//!
//! Run with: `cargo run --release --example serve_demo`

use std::time::Instant;

use icstar::{
    mutex_template, ring_station_template, ServeConfig, SymEngine, VerifyJob, VerifyService,
};
use icstar_logic::parse_state;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== icstar-serve: concurrent verification service ==\n");

    // ---- Phase 1: a batch of overlapping jobs through the service ----
    let service = VerifyService::start(ServeConfig::default());
    println!("service up: {} workers\n", service.workers());

    let mutex = mutex_template();
    let ring = ring_station_template(4, 1);
    let sizes = [50u32, 500, 5_000, 50_000];

    let started = Instant::now();
    let mut handles = Vec::new();
    for &n in &sizes {
        // Two callers ask about the same mutex family...
        handles.push(
            service.submit(
                VerifyJob::new(mutex.clone())
                    .at_size(n)
                    .formula("mutual exclusion", parse_state("AG !crit_ge2")?)
                    .formula("non-blocking", parse_state("AG (try_ge1 -> EF crit_ge1)")?),
            ),
        );
        handles.push(
            service.submit(
                VerifyJob::new(mutex.clone())
                    .at_size(n)
                    .formula(
                        "theta invariant",
                        parse_state("AG (crit_ge1 -> one(crit))")?,
                    )
                    .formula(
                        "access possibility",
                        parse_state("forall i. AG(try[i] -> EF crit[i])")?,
                    ),
            ),
        );
    }
    // ...and the ring family rides along at two sizes.
    for &n in &sizes[..2] {
        handles.push(
            service.submit(
                VerifyJob::new(ring.clone())
                    .at_size(n)
                    .formula("station capacity", parse_state("AG !s1_ge2")?)
                    .formula(
                        "every copy can round-trip",
                        parse_state("forall i. EF s3[i]")?,
                    ),
            ),
        );
    }

    let submitted = handles.len();
    println!("{submitted} jobs submitted; draining...\n");
    println!(
        "{:>10} {:>6} {:>32} {:>8}",
        "job", "n", "formula", "verdict"
    );
    let mut all_hold = true;
    for handle in handles {
        let report = handle.wait()?;
        for v in &report.verdicts {
            let verdict = match &v.result {
                Ok(true) => "ok",
                Ok(false) => "FAIL",
                Err(_) => "ERROR",
            };
            all_hold &= v.result == Ok(true);
            println!(
                "{:>10} {:>6} {:>32} {:>8}",
                report.job_id, v.n, v.name, verdict
            );
        }
    }
    let drained = started.elapsed();

    let stats = service.stats();
    println!("\nservice stats after {drained:?}:");
    println!(
        "  jobs       {} submitted / {} completed",
        stats.jobs_submitted, stats.jobs_completed
    );
    println!("  checks     {}", stats.formulas_checked);
    println!(
        "  cache      {} hits / {} misses (hit rate {:.0}%), {} structures held",
        stats.cache_hits,
        stats.cache_misses,
        stats.hit_rate() * 100.0,
        stats.cached_structures
    );

    assert!(all_hold, "a property failed");
    assert!(
        stats.cache_hits >= 1,
        "overlapping jobs must share structures"
    );
    assert_eq!(stats.jobs_completed, submitted as u64);
    service.shutdown();

    // ---- Phase 2: a counter build at n = 10^6 ----
    // (A smaller size under `cargo run` without --release, so the demo
    // stays interactive in debug builds; CI runs release.)
    let n: u32 = if cfg!(debug_assertions) {
        50_000
    } else {
        1_000_000
    };
    println!("\n== counter build: mutex at n = {n} ==\n");
    let engine = SymEngine::new(mutex_template());

    let t = Instant::now();
    let graph = engine.counter_graph(n);
    let built = t.elapsed();
    assert_eq!(graph.kripke.num_states() as u32, 2 * n + 1);
    println!(
        "materialized {} abstract states / {} transitions in {built:?}",
        graph.kripke.num_states(),
        graph.kripke.num_transitions()
    );

    let t = Instant::now();
    let mut session = engine.session(n);
    session.seed_counter(std::sync::Arc::new(graph));
    let mutex_holds = session.check(&parse_state("AG !crit_ge2")?)?;
    println!(
        "AG !crit_ge2 at n = {n}: {} (checked in {:?})",
        if mutex_holds { "ok" } else { "FAIL" },
        t.elapsed()
    );
    assert!(mutex_holds, "mutual exclusion must hold");

    println!("\n(explicit composition would have 3^{n} global states)");
    Ok(())
}
