//! Cross-crate check: verdicts fetched over the wire protocol agree with
//! the library-level [`FamilyVerifier`] batch path, formula by formula
//! and size by size — the network front-end adds transport, never
//! semantics.

use icstar::FamilyVerifier;
use icstar_logic::parse_state;
use icstar_nets::fixtures::MUTEX_JOB_WIRE;
use icstar_serve::{ServeConfig, VerifyJob, VerifyService};
use icstar_sym::{mutex_template, ring_station_template, GuardedTemplate};
use icstar_wire::{WireClient, WireServer};

fn test_service() -> VerifyService {
    VerifyService::start(ServeConfig {
        workers: 2,
        cache_budget_states: u64::MAX,
        ..ServeConfig::default()
    })
}

/// Checks one workload both ways and demands identical verdicts.
fn assert_wire_matches_library(
    client: &mut WireClient,
    template: GuardedTemplate,
    sizes: &[u32],
    formulas: &[(&str, &str)],
) {
    let mut job = VerifyJob::new(template.clone()).at_sizes(sizes.iter().copied());
    let mut verifier = FamilyVerifier::counter_abstracted(template);
    for (name, text) in formulas {
        let f = parse_state(text).unwrap();
        job = job.formula(*name, f.clone());
        verifier.add_formula(*name, f).unwrap();
    }

    let id = client.submit(&job).unwrap();
    let wire = client.result(id).unwrap();

    let local = test_service();
    let library = verifier.verify_at_many(&local, sizes).unwrap();

    assert_eq!(wire.verdicts.len(), sizes.len() * formulas.len());
    let mut wire_iter = wire.verdicts.iter();
    for (n, verdicts) in library {
        for v in verdicts {
            let w = wire_iter.next().unwrap();
            assert_eq!(w.name, v.name);
            assert_eq!(w.n, n);
            assert_eq!(w.outcome, Ok(v.holds), "{} at n = {n}", v.name);
            assert_eq!(w.rep_width, v.rep_width, "{} at n = {n}", v.name);
        }
    }
}

#[test]
fn wire_verdicts_match_verify_at_many() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    assert_wire_matches_library(
        &mut client,
        mutex_template(),
        &[1, 5, 40],
        &[
            ("mutual exclusion", "AG !crit_ge2"),
            ("access possibility", "forall i. AG(try[i] -> EF crit[i])"),
            ("two in crit reachable", "EF crit_ge2"), // fails: exercised on purpose
            (
                "pair exclusion", // depth 2: routed through two tracked copies
                "forall i. exists j. AG(crit[i] -> !crit[j])",
            ),
        ],
    );
    assert_wire_matches_library(
        &mut client,
        ring_station_template(3, 2),
        &[4, 9],
        &[
            ("station can fill to capacity", "EF s1_ge2"),
            ("round trip", "forall i. EF s2[i]"),
        ],
    );

    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn canonical_job_fixture_runs_over_the_wire() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let id = client.submit_text(MUTEX_JOB_WIRE).unwrap();
    let report = client.result(id).unwrap();
    assert_eq!(report.verdicts.len(), 4); // 2 sizes × 2 formulas
    assert!(report.all_hold());
    assert_eq!(report.at_size(1000).count(), 2);
}
