//! Parametric cutoffs end to end: certify a stabilization point once,
//! then answer *every* family size in O(1).
//!
//! Three phases:
//!
//! 1. **Certify** — the library route: [`SymEngine::certify_cutoff`]
//!    finds and re-verifies the stabilization point for the mutex
//!    (`c = 2`) and the barrier (`c = 1`), with the evidence printed.
//! 2. **Serve** — the wire route: a `sizes 1..*` job goes over TCP and
//!    comes back as finitely many verdicts (the sizes below `c` checked
//!    directly, one certified verdict covering all `n ≥ c`). A follow-up
//!    `sizes 1000000..*` job is answered from the cached certificate:
//!    the `sym.explore.builds` counter must not move — zero structures
//!    built on the certified path. A bounded job is still checked
//!    directly: a certificate is sampled evidence, not a proof.
//! 3. **Audit** — the certified answers must agree with the direct
//!    [`FamilyVerifier::verify_at_many`] route at `n ∈ {c, 10^3, 10^6}`
//!    on a fresh (certificate-free) service, and the certified answer at
//!    `n = 10^6` must be at least 100× faster than that cold check.
//!
//! Run with: `cargo run --release --example cutoff_demo`

use std::time::Instant;

use icstar::{FamilyVerifier, ServeConfig, VerifyJob, VerifyService};
use icstar_logic::parse_state;
use icstar_sym::{barrier_template, mutex_template, SymEngine};
use icstar_wire::{WireClient, WireServer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== icstar cutoffs: one certificate answers all n ==\n");

    // ---- Phase 1: certify through the library ----
    let workloads = [
        ("mutex", mutex_template(), "AG !crit_ge2", 2u32),
        (
            "barrier",
            barrier_template(),
            "AG (phase1_ge1 -> phase0_eq0)",
            1,
        ),
    ];
    for (name, t, src, expect_c) in &workloads {
        let engine = SymEngine::new(t.clone());
        let f = parse_state(src)?;
        let started = Instant::now();
        let cert = engine.certify_cutoff(&f)?;
        assert_eq!(cert.c, *expect_c, "{name} stabilization point moved");
        assert!(cert.holds, "{name}: {src} must hold");
        println!(
            "{name}: {src:?} certified in {:.2?}\n  c = {} (floor {}, {} candidates scanned, \
             {:?} counter / {:?} representative states equated, re-verified at {:?}, \
             sampled agreement at n = {:?})",
            started.elapsed(),
            cert.c,
            cert.evidence.floor,
            cert.evidence.candidates_checked,
            cert.evidence.counter_states,
            cert.evidence.rep_states,
            cert.evidence.reverified,
            cert.evidence.samples,
        );
    }
    println!();

    // ---- Phase 2: the unbounded job over TCP ----
    let server = WireServer::bind("127.0.0.1:0", VerifyService::start(ServeConfig::default()))?;
    let addr = server.local_addr();
    let mut client = WireClient::connect(addr)?;
    println!("server up on {addr}");

    let unbounded = VerifyJob::new(mutex_template())
        .all_sizes_from(1)
        .formula("mutual exclusion", parse_state("AG !crit_ge2")?)
        .formula(
            "access possibility",
            parse_state("forall i. AG(try[i] -> EF crit[i])")?,
        );
    let id = client.submit(&unbounded)?;
    let report = client.result(id)?;
    println!(
        "job {id} (`sizes 1..*`) came back as {} verdicts:",
        report.verdicts.len()
    );
    for v in &report.verdicts {
        println!(
            "  n = {:>2}{}: {:<20} {}",
            v.n,
            if v.cutoff.is_some() { "+" } else { " " },
            v.name,
            match &v.outcome {
                Ok(true) => "holds",
                Ok(false) => "fails",
                Err(_) => "error",
            }
        );
    }
    let certified: Vec<_> = report
        .verdicts
        .iter()
        .filter(|v| v.cutoff.is_some())
        .collect();
    assert_eq!(certified.len(), 2, "one certified verdict per formula");
    assert!(certified.iter().all(|v| v.cutoff == Some(2) && v.n == 2));

    // The certified path must not build anything: pin the exploration
    // counter across an unbounded job from n = 10^6.
    let builds_before = client
        .metrics()?
        .counter("icstar_sym_explore_builds")
        .unwrap_or(0);
    let warm_started = Instant::now();
    let warm_id = client.submit(
        &VerifyJob::new(mutex_template())
            .all_sizes_from(1_000_000)
            .formula("mutual exclusion", parse_state("AG !crit_ge2")?)
            .formula(
                "access possibility",
                parse_state("forall i. AG(try[i] -> EF crit[i])")?,
            ),
    )?;
    let warm = client.result(warm_id)?;
    let warm_elapsed = warm_started.elapsed();
    let builds_after = client
        .metrics()?
        .counter("icstar_sym_explore_builds")
        .unwrap_or(0);
    assert_eq!(warm.verdicts.len(), 2, "one tail verdict per formula");
    assert!(warm
        .verdicts
        .iter()
        .all(|v| v.cutoff == Some(2) && v.n == 1_000_000));
    assert_eq!(
        builds_after, builds_before,
        "the certified path must build zero structures"
    );
    // A bounded size is checked directly, cached certificate or not.
    let bounded_id = client.submit(
        &VerifyJob::new(mutex_template())
            .at_size(5)
            .formula("mutual exclusion", parse_state("AG !crit_ge2")?),
    )?;
    let bounded = client.result(bounded_id)?;
    assert!(bounded.verdicts.iter().all(|v| v.cutoff.is_none()));
    let stats = client.stats()?;
    assert_eq!(stats.cutoffs_certified, 2);
    assert!(stats.cutoff_answers >= 4, "2 unbounded + 2 warm verdicts");
    println!(
        "\nn = 1,000,000 answered from the certificate in {warm_elapsed:.2?} \
         (sym.explore.builds delta: {}; {} certificates, {} certified answers)\n",
        builds_after - builds_before,
        stats.cutoffs_certified,
        stats.cutoff_answers,
    );

    // ---- Phase 3: audit against the direct route ----
    let local = VerifyService::start(ServeConfig::default());
    let mut verifier = FamilyVerifier::counter_abstracted(mutex_template());
    verifier.add_formula("mutual exclusion", parse_state("AG !crit_ge2")?)?;
    verifier.add_formula(
        "access possibility",
        parse_state("forall i. AG(try[i] -> EF crit[i])")?,
    )?;
    let direct_small = verifier.verify_at_many(&local, &[2, 1_000])?;
    let cold_started = Instant::now();
    let direct_large = verifier.verify_at_many(&local, &[1_000_000])?;
    let cold_elapsed = cold_started.elapsed();

    for (n, verdicts) in direct_small.iter().chain(&direct_large) {
        // Each size is re-asked over the wire as the tail `n..*`; every
        // answer comes from the certificate and must match the direct
        // verdict.
        let audit_id = client.submit(
            &VerifyJob::new(mutex_template())
                .all_sizes_from(*n)
                .formula("mutual exclusion", parse_state("AG !crit_ge2")?)
                .formula(
                    "access possibility",
                    parse_state("forall i. AG(try[i] -> EF crit[i])")?,
                ),
        )?;
        let wire = client.result(audit_id)?;
        for (w, d) in wire.verdicts.iter().zip(verdicts) {
            assert_eq!(w.name, d.name);
            assert_eq!(w.cutoff, Some(2), "{} at n = {n} must be certified", w.name);
            assert_eq!(w.n, *n);
            assert_eq!(w.outcome, Ok(d.holds), "{} at n = {n}", w.name);
        }
        println!("audit: certified == direct at n = {n}");
    }

    assert!(
        cold_elapsed >= 100 * warm_elapsed,
        "certified answer must be >= 100x faster than the cold check \
         (cold {cold_elapsed:.2?} vs certified {warm_elapsed:.2?})"
    );
    println!(
        "\ncold direct check at n = 10^6: {cold_elapsed:.2?}; certified answer: \
         {warm_elapsed:.2?} ({}x)",
        (cold_elapsed.as_nanos() / warm_elapsed.as_nanos().max(1))
    );

    client.quit()?;
    server.shutdown();
    println!("\nserver down; every certified answer audited. done.");
    Ok(())
}
