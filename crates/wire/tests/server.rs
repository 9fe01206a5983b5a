//! The TCP front-end exercised over real sockets: typed and raw
//! submissions, concurrent clients, repeatable results, stats, and the
//! protocol's error answers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use icstar_logic::parse_state;
use icstar_serve::{ServeConfig, VerifyJob, VerifyService};
use icstar_sym::{mutex_template, ring_station_template};
use icstar_telemetry::{SpanEvent, SpanId, TraceId};
use icstar_wire::{JobStatus, WireClient, WireError, WireServer};

fn test_service() -> VerifyService {
    VerifyService::start(ServeConfig {
        workers: 2,
        cache_budget_states: u64::MAX,
        ..ServeConfig::default()
    })
}

fn mutex_job(n: u32) -> VerifyJob {
    VerifyJob::new(mutex_template())
        .at_size(n)
        .formula("mutex", parse_state("AG !crit_ge2").unwrap())
        .formula(
            "access",
            parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
        )
}

#[test]
fn submit_result_status_stats_end_to_end() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let id = client.submit(&mutex_job(20)).unwrap();
    let report = client.result(id).unwrap();
    assert_eq!(report.job_id, id);
    assert_eq!(report.verdicts.len(), 2);
    assert!(report.all_hold());

    // Results are kept: fetching again returns the same report, and
    // STATUS now answers done without blocking.
    assert_eq!(client.result(id).unwrap(), report);
    assert_eq!(client.status(id).unwrap(), JobStatus::Done);

    let stats = client.stats().unwrap();
    assert!(stats.jobs_submitted >= 1);
    assert!(stats.jobs_completed >= 1);
    assert_eq!(stats.formulas_checked, 2);
    assert!(stats.cached_structures >= 1);
    assert!(stats.cached_abstract_states > 0);
    // The server-side snapshot agrees with the wire one.
    assert_eq!(server.stats(), stats);

    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn verdicts_match_the_in_process_service() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let local = test_service();

    for job in [
        mutex_job(7),
        VerifyJob::new(ring_station_template(3, 1))
            .at_sizes([2, 5])
            .formula("capacity", parse_state("AG !s1_ge2").unwrap()),
    ] {
        let id = client.submit(&job).unwrap();
        let over_wire = client.result(id).unwrap();
        let in_process = local.submit(job).wait().unwrap();
        assert_eq!(over_wire, icstar_wire::WireReport::from(&in_process));
    }
}

#[test]
fn many_clients_share_one_service() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let addr = server.local_addr();
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr).unwrap();
                    let id = client.submit(&mutex_job(15)).unwrap();
                    assert!(client.result(id).unwrap().all_hold());
                    id
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Ids are service-global and unique...
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 4);
    // ...and a fresh connection can read any job's report.
    let mut late = WireClient::connect(addr).unwrap();
    for id in ids {
        assert!(late.result(id).unwrap().all_hold());
    }
    // Identical workloads shared cached structures.
    assert!(late.stats().unwrap().cache_hits > 0);
}

#[test]
fn status_polls_to_done() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let id = client.submit(&mutex_job(25)).unwrap();
    loop {
        match client.status(id).unwrap() {
            JobStatus::Done => break,
            JobStatus::Pending => std::thread::yield_now(),
            JobStatus::Lost => panic!("job lost"),
        }
    }
    assert!(client.result(id).unwrap().all_hold());
}

#[test]
fn protocol_errors_are_answered_not_fatal() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    // A malformed job is rejected with a parse error...
    let err = client.submit_text("job { garbage }").unwrap_err();
    match err {
        WireError::Protocol(line) => assert!(line.contains("parse"), "{line}"),
        other => panic!("wanted a protocol error, got {other:?}"),
    }
    // ...an unknown id is named...
    match client.status(999_999).unwrap_err() {
        WireError::Protocol(line) => assert!(line.contains("unknown job"), "{line}"),
        other => panic!("wanted a protocol error, got {other:?}"),
    }
    // ...an oversized payload (many reasonable lines) is drained and
    // refused without being buffered...
    let huge = "// padding padding padding padding padding padding\n".repeat(40_000); // ~2 MiB
    match client.submit_text(&huge).unwrap_err() {
        WireError::Protocol(line) => assert!(line.contains("too large"), "{line}"),
        other => panic!("wanted a protocol error, got {other:?}"),
    }
    // ...and the connection survives all of it: the next command works.
    let id = client.submit(&mutex_job(5)).unwrap();
    assert!(client.result(id).unwrap().all_hold());
}

#[test]
fn newline_free_flood_is_disconnected_not_buffered() {
    use std::io::Write;
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    writeln!(stream, "SUBMIT").unwrap();
    // A single line far past the cap, never newline-terminated: the
    // server must hang up rather than buffer it forever.
    let chunk = [b'x'; 8192];
    let mut disconnected = false;
    for _ in 0..4096 {
        // 32 MiB max — far past cap + socket buffers
        if stream.write_all(&chunk).is_err() {
            disconnected = true; // refused once the server hung up
            break;
        }
    }
    assert!(disconnected, "server should close the connection");
}

#[test]
fn raw_protocol_lines_work_without_the_client() {
    // The protocol is plain text: drive it with a bare socket to pin the
    // framing (PROTOCOL.md's transcript, executable).
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writeln!(writer, "PING").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK pong");

    writeln!(writer, "SUBMIT").unwrap();
    writeln!(writer, "{}", icstar_nets::fixtures::MUTEX_JOB_WIRE).unwrap();
    writeln!(writer, ".").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let id: u64 = line
        .trim_end()
        .strip_prefix("OK id ")
        .expect("submit answer")
        .parse()
        .unwrap();

    writeln!(writer, "RESULT {id}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK report");
    let mut block = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "." {
            break;
        }
        block.push_str(&line);
    }
    let report = icstar_wire::parse_report(&block).unwrap();
    assert_eq!(report.job_id, id);
    assert!(report.all_hold());

    // A broadcast job over the raw socket: `bcast` clauses and the
    // `==`/`in` guard forms are ordinary payload text (PROTOCOL.md §2.1).
    writeln!(writer, "SUBMIT").unwrap();
    writeln!(
        writer,
        "job {{\n  template {{\n    state asleep [asleep];\n    state awake [awake];\n    \
         init asleep;\n    edge asleep -> asleep;\n    edge awake -> awake;\n    \
         bcast asleep -> awake [asleep -> awake] when @awake == 0;\n    \
         bcast awake -> asleep [awake -> asleep] when @awake in 1..2;\n  }}\n  \
         sizes 2 3;\n  check \"all or nothing\": AG (awake_ge1 -> asleep_eq0);\n}}"
    )
    .unwrap();
    writeln!(writer, ".").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let bcast_id: u64 = line
        .trim_end()
        .strip_prefix("OK id ")
        .expect("broadcast submit answer")
        .parse()
        .unwrap();
    writeln!(writer, "RESULT {bcast_id}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK report");
    let mut block = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "." {
            break;
        }
        block.push_str(&line);
    }
    let report = icstar_wire::parse_report(&block).unwrap();
    assert_eq!(report.job_id, bcast_id);
    assert!(report.all_hold());

    // A nested-quantifier job (PROTOCOL.md's third transcript
    // exchange): the verdict must carry the representative width, and
    // the report's server-side bytes are pinned exactly.
    writeln!(writer, "SUBMIT").unwrap();
    writeln!(
        writer,
        "job {{\n  template {{\n    state idle [idle];\n    state try [try];\n    \
         state crit [crit];\n    init idle;\n    edge idle -> try;\n    \
         edge try -> crit when #crit <= 0;\n    edge crit -> idle;\n  }}\n  \
         sizes 100;\n  check \"pair exclusion\": forall i. exists j. AG (crit[i] -> !crit[j]);\n}}"
    )
    .unwrap();
    writeln!(writer, ".").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let nested_id: u64 = line
        .trim_end()
        .strip_prefix("OK id ")
        .expect("nested submit answer")
        .parse()
        .unwrap();
    writeln!(writer, "RESULT {nested_id}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK report");
    let mut block = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "." {
            break;
        }
        block.push_str(&line);
    }
    assert_eq!(
        block,
        format!("report {nested_id} {{\n  verdict \"pair exclusion\" @ 100 = holds k 2;\n}}\n"),
        "nested-quantifier report bytes are pinned by PROTOCOL.md"
    );

    // A fair liveness job (PROTOCOL.md's fourth transcript exchange):
    // the `fair` template clause routes the checks through the fair
    // backend, and every verdict carries the `fair` marker — the
    // quantified one after its `k` width. The report's server-side
    // bytes are pinned exactly.
    writeln!(writer, "SUBMIT").unwrap();
    writeln!(
        writer,
        "job {{\n  template {{\n    state idle [idle];\n    state done [done];\n    \
         init idle;\n    edge idle -> idle;\n    edge idle -> done;\n    \
         edge done -> done;\n    fair exit idle -> done;\n  }}\n  \
         sizes 50;\n  check \"drain\": AF idle_eq0;\n  \
         check \"per-copy drain\": forall i. AF done[i];\n}}"
    )
    .unwrap();
    writeln!(writer, ".").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let fair_id: u64 = line
        .trim_end()
        .strip_prefix("OK id ")
        .expect("fair submit answer")
        .parse()
        .unwrap();
    writeln!(writer, "RESULT {fair_id}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK report");
    let mut block = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "." {
            break;
        }
        block.push_str(&line);
    }
    assert_eq!(
        block,
        format!(
            "report {fair_id} {{\n  verdict \"drain\" @ 50 = holds fair;\n  \
             verdict \"per-copy drain\" @ 50 = holds k 1 fair;\n}}\n"
        ),
        "fair liveness report bytes are pinned by PROTOCOL.md"
    );

    // An unbounded job (PROTOCOL.md's fifth transcript exchange): the
    // `1..*` range asks for every size n ≥ 1, answered via a certified
    // cutoff — direct verdicts below the stabilization point, then one
    // certificate-backed verdict with the `cutoff` clause covering the
    // entire infinite tail. The report's server-side bytes are pinned
    // exactly.
    writeln!(writer, "SUBMIT").unwrap();
    writeln!(
        writer,
        "job {{\n  template {{\n    state idle [idle];\n    state try [try];\n    \
         state crit [crit];\n    init idle;\n    edge idle -> try;\n    \
         edge try -> crit when #crit <= 0;\n    edge crit -> idle;\n  }}\n  \
         sizes 1..*;\n  check \"mutex\": AG !crit_ge2;\n  \
         check \"access\": forall i. AG (try[i] -> EF crit[i]);\n}}"
    )
    .unwrap();
    writeln!(writer, ".").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let unbounded_id: u64 = line
        .trim_end()
        .strip_prefix("OK id ")
        .expect("unbounded submit answer")
        .parse()
        .unwrap();
    writeln!(writer, "RESULT {unbounded_id}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK report");
    let mut block = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "." {
            break;
        }
        block.push_str(&line);
    }
    assert_eq!(
        block,
        format!(
            "report {unbounded_id} {{\n  \
             verdict \"mutex\" @ 1 = holds;\n  \
             verdict \"mutex\" @ 2 = holds cutoff 2;\n  \
             verdict \"access\" @ 1 = holds k 1;\n  \
             verdict \"access\" @ 2 = holds k 1 cutoff 2;\n}}\n"
        ),
        "unbounded report bytes are pinned by PROTOCOL.md"
    );

    writeln!(writer, "NONSENSE").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR unknown command"), "{line}");

    writeln!(writer, "QUIT").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK bye");
}

#[test]
fn unbounded_jobs_certify_over_the_wire() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();

    let job = VerifyJob::new(mutex_template())
        .all_sizes_from(1)
        .formula("mutex", parse_state("AG !crit_ge2").unwrap());
    let id = client.submit(&job).unwrap();
    let report = client.result(id).unwrap();
    assert!(report.all_hold());
    let cert = report.verdicts.last().unwrap();
    let c = cert.cutoff.expect("final verdict carries the cutoff");
    assert!(report.verdicts[..report.verdicts.len() - 1]
        .iter()
        .all(|v| v.cutoff.is_none() && v.n < c));

    // A certificate is sampled evidence: a bounded follow-up at a size
    // ≥ c gets a direct verdict, not the cached certificate's.
    let bounded = VerifyJob::new(mutex_template())
        .at_size(c + 3)
        .formula("mutex", parse_state("AG !crit_ge2").unwrap());
    let id = client.submit(&bounded).unwrap();
    let report = client.result(id).unwrap();
    assert_eq!(report.verdicts[0].outcome, Ok(true));
    assert_eq!(report.verdicts[0].cutoff, None);

    // Both counters crossed the wire, and HEALTH agrees with STATS: only
    // the unbounded job's final verdict came from the certificate.
    let stats = client.stats().unwrap();
    assert_eq!(stats.cutoffs_certified, 1);
    assert_eq!(stats.cutoff_answers, 1);
    let health = client.health().unwrap();
    assert_eq!(health.cutoffs_certified, stats.cutoffs_certified);
    assert_eq!(health.cutoff_answers, stats.cutoff_answers);
}

#[test]
fn shutdown_disconnects_idle_clients() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    server.shutdown();
    // The event loop notices the stop flag and hangs up; the next
    // exchange fails rather than blocking forever.
    assert!(client.ping().is_err());
}

#[test]
fn stats_key_set_is_pinned() {
    // The STATS payload is a stable public surface: existing clients
    // parse these exact keys. Folding the service counters into the
    // telemetry registry must not rename, drop, or reorder them.
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writeln!(writer, "STATS").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK stats");
    let mut keys = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "." {
            break;
        }
        let (key, value) = line.trim_end().split_once(' ').expect("key value");
        value.parse::<u64>().expect("numeric value");
        keys.push(key.to_string());
    }
    assert_eq!(
        keys,
        [
            "jobs_submitted",
            "jobs_completed",
            "formulas_checked",
            "cache_hits",
            "cache_misses",
            "cached_structures",
            "cached_abstract_states",
            "cache_evictions",
            "evicted_abstract_states",
            "cutoffs_certified",
            "cutoff_answers",
            "p50_total_ns",
            "p99_total_ns",
        ],
        "STATS keys are pinned byte-for-byte"
    );
}

#[test]
fn metrics_command_exports_the_full_registry() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let id = client.submit(&mutex_job(30)).unwrap();
    assert!(client.result(id).unwrap().all_hold());
    let id = client.submit(&mutex_job(30)).unwrap();
    assert!(client.result(id).unwrap().all_hold());

    let snap = client.metrics().unwrap();
    // Service layer: jobs, phases, cache — all under wire-mangled names.
    assert_eq!(snap.counter("icstar_serve_jobs_submitted"), Some(2));
    assert_eq!(snap.counter("icstar_serve_jobs_completed"), Some(2));
    assert_eq!(snap.counter("icstar_serve_cache_hits"), Some(2));
    assert_eq!(snap.counter("icstar_serve_cache_misses"), Some(2));
    for name in [
        "icstar_serve_job_queue_wait_ns",
        "icstar_serve_job_build_ns",
        "icstar_serve_job_check_ns",
        "icstar_serve_job_total_ns",
    ] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(h.count, 2, "{name}");
    }
    // Engine layer: the exploration that materialized the structures.
    assert!(snap.counter("icstar_sym_explore_builds").unwrap() >= 1);
    assert!(snap.counter("icstar_sym_explore_states").unwrap() > 0);
    assert_eq!(snap.counter("icstar_sym_rep_builds"), Some(1));
    // Wire layer: this very connection's commands and bytes. The
    // snapshot was taken while handling METRICS, after its counter bump.
    assert_eq!(snap.counter("icstar_wire_cmd_submit"), Some(2));
    assert_eq!(snap.counter("icstar_wire_cmd_result"), Some(2));
    assert_eq!(snap.counter("icstar_wire_cmd_metrics"), Some(1));
    assert_eq!(snap.counter("icstar_wire_cmd_unknown"), Some(0));
    assert!(snap.counter("icstar_wire_bytes_read").unwrap() > 0);
    assert!(snap.counter("icstar_wire_bytes_written").unwrap() > 0);
    assert_eq!(snap.gauge("icstar_wire_connections_active"), Some(1));
    // The server-side view agrees with what went over the wire.
    let local = server.telemetry_snapshot();
    assert_eq!(
        local.counter("serve.jobs.completed"),
        snap.counter("icstar_serve_jobs_completed")
    );
}

#[test]
fn metrics_block_is_dot_terminated_prometheus_text() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writeln!(writer, "METRICS").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK metrics");
    let mut types = 0;
    let mut samples = 0;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let l = line.trim_end();
        if l == "." {
            break;
        }
        if l.starts_with("# TYPE icstar_") {
            types += 1;
        } else if l.starts_with("icstar_") {
            samples += 1;
        } else {
            panic!("unexpected exposition line: {l:?}");
        }
    }
    assert!(types > 0, "every metric carries a # TYPE line");
    assert!(samples >= types, "and at least one sample");
}

#[test]
fn trace_and_health_commands_expose_the_job_record() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let id = client.submit(&mutex_job(20)).unwrap();
    assert!(client.result(id).unwrap().all_hold());

    // Text tree: the job root line, its phases indented under it.
    let tree = client.trace(id).unwrap();
    assert!(tree.starts_with("job "), "{tree}");
    for name in ["queue_wait", "cache_lookup", "build", "check"] {
        assert!(tree.contains(&format!("\n  {name} ")), "{name} in:\n{tree}");
    }

    // Chrome form: parses into typed spans, one root, one trace.
    let spans = client.trace_chrome(id).unwrap();
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].name, "job");
    assert!(spans.iter().all(|s| s.trace == roots[0].trace));
    assert!(spans.len() >= 5, "job + queue_wait + lookups + check");

    // HEALTH: every shared value agrees with STATS and METRICS.
    let health = client.health().unwrap();
    let stats = client.stats().unwrap();
    let snap = client.metrics().unwrap();
    assert_eq!(health.workers, 2);
    assert_eq!(health.queue_depth, 0);
    assert_eq!(
        health.jobs_in_flight,
        stats.jobs_submitted - stats.jobs_completed
    );
    assert_eq!(health.p50_total_ns, stats.p50_total_ns);
    assert_eq!(health.p99_total_ns, stats.p99_total_ns);
    assert!(health.p50_total_ns > 0);
    assert_eq!(
        health.errors,
        snap.counter("icstar_serve_verdicts_errors").unwrap()
    );
    assert!(health.traces_retained > 0, "the job's spans are retained");
    assert_eq!(
        health.traces_dropped,
        snap.counter("icstar_telemetry_trace_dropped").unwrap()
    );
}

#[test]
fn submit_in_trace_joins_the_client_supplied_trace() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    let trace = TraceId::parse_hex("deadbeef").unwrap();
    let id = client.submit_in_trace(&mutex_job(10), trace).unwrap();
    assert!(client.result(id).unwrap().all_hold());
    let spans = client.trace_chrome(id).unwrap();
    assert!(!spans.is_empty());
    assert!(
        spans.iter().all(|s| s.trace == trace),
        "every span joined the client's trace"
    );
}

#[test]
fn trace_rejects_unknown_jobs_and_bad_arguments() {
    let server = WireServer::bind("127.0.0.1:0", test_service()).unwrap();
    let mut client = WireClient::connect(server.local_addr()).unwrap();
    assert!(matches!(client.trace(99), Err(WireError::Protocol(_))));
    assert!(matches!(
        client.trace_chrome(99),
        Err(WireError::Protocol(_))
    ));

    // A malformed trace suffix is rejected after the payload is drained,
    // leaving the connection usable.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    writeln!(writer, "SUBMIT trace not-hex\nignored\n.").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR bad trace id"), "{line}");
    line.clear();
    writeln!(writer, "PING").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK pong");
}

#[test]
fn trace_transcript_is_byte_exact() {
    // The TRACE text rendering is a public surface: pin the bytes of a
    // fully controlled transcript. The job's real (nondeterministically
    // timed) spans are drained out and replaced with hand-built events.
    let config = ServeConfig {
        workers: 1,
        cache_budget_states: u64::MAX,
        ..ServeConfig::default()
    };
    let recorder = config.recorder.clone();
    let server = WireServer::bind("127.0.0.1:0", VerifyService::start(config)).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writeln!(
        writer,
        "SUBMIT trace deadbeef\n\
         job {{\n\
           template {{ state a [a]; init a; edge a -> a; }}\n\
           sizes 3;\n\
           check \"a\": AG a_ge1;\n\
         }}\n\
         ."
    )
    .unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK id 0");
    writeln!(writer, "RESULT 0").unwrap();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "." {
            break;
        }
    }

    let trace = TraceId::parse_hex("deadbeef").unwrap();
    recorder.drain_trace(trace);
    let span =
        |id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64, attrs: &[(&str, &str)]| {
            SpanEvent {
                trace,
                id: SpanId::from_u64(id).unwrap(),
                parent: parent.map(|p| SpanId::from_u64(p).unwrap()),
                name: name.into(),
                start_ns: start,
                dur_ns: dur,
                tid: 0,
                attrs: attrs
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            }
        };
    recorder.record(span(
        101,
        None,
        "job",
        1000,
        5000,
        &[("id", "0"), ("outcome", "ok")],
    ));
    recorder.record(span(102, Some(101), "queue_wait", 1100, 120, &[]));
    recorder.record(span(
        103,
        Some(101),
        "build",
        1300,
        3000,
        &[("kind", "counter")],
    ));
    recorder.record(span(104, Some(103), "shard[0]", 1400, 1500, &[]));

    writeln!(writer, "TRACE 0").unwrap();
    let mut transcript = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        transcript.push_str(&line);
        if line.trim_end() == "." {
            break;
        }
    }
    assert_eq!(
        transcript,
        "OK trace\n\
         job 5000ns id=0 outcome=ok\n\
         \x20 queue_wait 120ns\n\
         \x20 build 3000ns kind=counter\n\
         \x20   shard[0] 1500ns\n\
         .\n"
    );
}

/// The PR's acceptance workload: a forall-mutex job at n = 100,000 over
/// TCP, with the full metric trail inspected over the METRICS command
/// and the build's phases over TRACE. Ignored by
/// default (release-sized); CI runs it with
/// `cargo test --release -p icstar-wire --test server -- --include-ignored`.
#[test]
#[ignore = "release-sized acceptance workload"]
fn large_job_leaves_a_full_metric_trail() {
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

    let job = mutex_job(100_000);
    let first = client.submit(&job).unwrap();
    assert!(client.result(first).unwrap().all_hold());
    // Resubmission is answered from cache: hit latency gets its sample.
    let second = client.submit(&job).unwrap();
    assert!(client.result(second).unwrap().all_hold());

    let snap = client.metrics().unwrap();
    // Exploration throughput: the counter graph at n = 100,000 has
    // 2n + 1 abstract states, discovered by the BFS.
    let states = snap.counter("icstar_sym_explore_states").unwrap();
    assert!(states >= 200_001, "states {states}");
    let build = snap.histogram("icstar_sym_explore_build_ns").unwrap();
    assert!(build.count >= 1 && build.sum > 0, "exploration was timed");
    let throughput = states as f64 / (build.sum as f64 / 1e9);
    assert!(throughput > 0.0, "states/sec is computable and nonzero");
    // Per-phase job latency: one sample per job, queue ≤ total.
    for name in [
        "icstar_serve_job_queue_wait_ns",
        "icstar_serve_job_build_ns",
        "icstar_serve_job_check_ns",
        "icstar_serve_job_total_ns",
    ] {
        let h = snap
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(h.count, 2, "{name}");
    }
    let queue = snap.histogram("icstar_serve_job_queue_wait_ns").unwrap();
    let total = snap.histogram("icstar_serve_job_total_ns").unwrap();
    assert!(queue.sum <= total.sum);
    // Cache: first job misses (counter + width-1 rep), second job hits,
    // each with its latency filed on the right side.
    assert_eq!(snap.counter("icstar_serve_cache_misses"), Some(2));
    assert_eq!(snap.counter("icstar_serve_cache_hits"), Some(2));
    assert_eq!(
        snap.histogram("icstar_serve_cache_miss_ns").unwrap().count,
        2
    );
    assert_eq!(
        snap.histogram("icstar_serve_cache_hit_ns").unwrap().count,
        2
    );
    // A miss at this size is a materialization; a hit is a lookup. The
    // medians must reflect that, massively.
    let miss = snap.histogram("icstar_serve_cache_miss_ns").unwrap();
    let hit = snap.histogram("icstar_serve_cache_hit_ns").unwrap();
    assert!(miss.sum > hit.sum, "misses dominate hit latency");

    // The acceptance trace: fetched over the socket in Chrome Trace
    // Event Format, the first job shows queue_wait, the build with its
    // explore and freeze phases, and the check, all under a single job
    // root.
    let spans = client.trace_chrome(first).unwrap();
    let root = spans
        .iter()
        .find(|s| s.parent.is_none() && s.name == "job")
        .expect("job root span");
    for name in ["queue_wait", "cache_lookup", "build", "check"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == name && s.parent == Some(root.id)),
            "{name} under the job root"
        );
    }
    let build = spans
        .iter()
        .find(|s| s.name == "build" && s.attrs.iter().any(|(k, v)| k == "kind" && v == "counter"))
        .expect("counter build span");
    for phase in ["explore", "freeze"] {
        assert!(
            spans
                .iter()
                .any(|s| s.name == phase && s.parent == Some(build.id)),
            "{phase} under the counter build"
        );
    }

    // And the HEALTH probe reads sane after the workload.
    let health = client.health().unwrap();
    assert_eq!(health.workers, 2);
    assert!(health.p50_total_ns > 0);
    assert!(health.p99_total_ns >= health.p50_total_ns);
    assert!(health.traces_retained > 0);
}
