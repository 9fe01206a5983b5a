//! Per-job causal tracing end to end: a mutex workload at
//! `n = 100,000` submitted over a real TCP socket, its span tree pulled
//! back with the `TRACE` command, and the Chrome Trace Event Format
//! export written to disk for Perfetto.
//!
//! The demo asserts the shape the tracing layer promises:
//!
//! 1. **One causal tree per job** — a single `job` root span, with
//!    `queue_wait`, `cache_lookup`, `build`, and `check` as children.
//! 2. **Build phases** — every build is traced alike: the counter
//!    build (`kind=counter`) and the width-1 representative build
//!    (`kind=representative`) each hang `explore` (sweep, rows and
//!    labels) and `freeze` (atom interning plus CSR) spans under their
//!    `build` span, on the lane of the worker that paid for it.
//! 3. **Wire round-trip** — `WireClient::trace_chrome` parses the
//!    server's JSON back into the exact typed [`SpanEvent`]s, and the
//!    `HEALTH` probe agrees with the trace on what happened.
//!
//! The Chrome JSON is written to `ICSTAR_TRACE_OUT` (default
//! `icstar-trace.json` in the working directory) — open it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Run with: `cargo run --release --example trace_demo`
//! (debug builds work but the n = 100,000 build is slow unoptimized).

use std::time::Instant;

use icstar::{ServeConfig, VerifyJob, VerifyService};
use icstar_logic::parse_state;
use icstar_sym::mutex_template;
use icstar_telemetry::{to_chrome_trace, SpanEvent};
use icstar_wire::{WireClient, WireServer};

const BIG: u32 = 100_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== per-job causal tracing at n = {BIG} ==\n");

    let server = WireServer::bind("127.0.0.1:0", VerifyService::start(ServeConfig::default()))?;
    let mut client = WireClient::connect(server.local_addr())?;

    let job = VerifyJob::new(mutex_template())
        .at_size(BIG)
        .formula("mutual exclusion", parse_state("AG !crit_ge2")?)
        .formula(
            "access possibility",
            parse_state("forall i. AG(try[i] -> EF crit[i])")?,
        );
    let started = Instant::now();
    let id = client.submit(&job)?;
    assert!(client.result(id)?.all_hold());
    println!("job {id}: verified in {:.2?} over TCP", started.elapsed());

    // ---- The causal tree, human-readable ----
    let tree = client.trace(id)?;
    println!("\nTRACE {id}:\n{tree}");

    // ---- The same tree, typed, with the promised shape ----
    let spans = client.trace_chrome(id)?;
    let root = spans
        .iter()
        .find(|s| s.parent.is_none() && s.name == "job")
        .expect("one job root span");
    for name in ["queue_wait", "cache_lookup", "build", "check"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == name && s.parent == Some(root.id)),
            "{name} must hang off the job root"
        );
    }
    for kind in ["counter", "representative"] {
        let build = spans
            .iter()
            .find(|s| s.name == "build" && s.attrs.iter().any(|(k, v)| k == "kind" && v == kind))
            .unwrap_or_else(|| panic!("the {kind} build span"));
        let phases: Vec<&SpanEvent> = spans
            .iter()
            .filter(|s| s.parent == Some(build.id))
            .collect();
        for phase in ["explore", "freeze"] {
            assert!(
                phases.iter().any(|s| s.name == phase && s.tid == build.tid),
                "{phase} must hang off the {kind} build, on its worker's lane"
            );
        }
        let phase_ms = |name: &str| {
            phases
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.dur_ns as f64 / 1e6)
        };
        println!(
            "{kind} build {:.1}ms (explore {:.1}ms, freeze {:.1}ms)",
            build.dur_ns as f64 / 1e6,
            phase_ms("explore"),
            phase_ms("freeze")
        );
    }
    println!("trace: {} spans", spans.len());

    // ---- HEALTH agrees with the evidence ----
    let health = client.health()?;
    assert!(health.p50_total_ns > 0, "a job completed");
    assert!(health.p99_total_ns >= health.p50_total_ns);
    assert!(health.traces_retained as usize >= spans.len());
    println!(
        "health: up {}ms, {} workers, p50 {:.1}ms / p99 {:.1}ms, {} spans retained",
        health.uptime_ms,
        health.workers,
        health.p50_total_ns as f64 / 1e6,
        health.p99_total_ns as f64 / 1e6,
        health.traces_retained
    );

    // ---- Chrome JSON artifact for Perfetto ----
    let out = std::env::var("ICSTAR_TRACE_OUT").unwrap_or_else(|_| "icstar-trace.json".into());
    std::fs::write(&out, to_chrome_trace(&spans, "icstar-serve"))?;
    println!("\nwrote {out} — open it at https://ui.perfetto.dev");

    client.quit()?;
    server.shutdown();
    println!("\ndone: one causal tree per job, from socket to build phase and back.");
    Ok(())
}
