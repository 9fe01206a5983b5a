//! The server under test, its set-up, the closed loops (over TCP
//! and in-process), the verdict audit and the ledger self-check.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use icstar_serve::{ServeConfig, StatsSnapshot, VerdictReport, VerifyService};
use icstar_telemetry::{parse_chrome_trace, wire_name, SpanEvent, TelemetrySnapshot};
use icstar_wire::{WireClient, WireReport, WireServer};

use crate::client::Conn;
use crate::workload::{Job, Workload};

/// Connections of the closed loop, each with one job outstanding.
pub const CONNECTIONS: usize = 2;

/// Abstract-state budget of the structure cache: about twice the
/// `liveness-check` working set (~0.5 million states), so that workload
/// never evicts, and small enough that `cold-build` evicts within its
/// first few dozen jobs and its memory stays bounded.
pub const CACHE_BUDGET_STATES: u64 = 1_000_000;

/// The service configuration under test: the defaults, with a bounded
/// cache.
pub fn config() -> ServeConfig {
    ServeConfig {
        cache_budget_states: CACHE_BUDGET_STATES,
        ..ServeConfig::default()
    }
}

/// Compares a report with the gallery's verdicts for the job: one
/// verdict per formula, in order, each with the expected outcome, the
/// expected representative width and fairness marker, and no cutoff.
pub fn audit(job: &Job, report: &WireReport) -> Result<(), String> {
    if report.verdicts.len() != job.checks.len() {
        return Err(format!(
            "{} verdicts for {} formulas",
            report.verdicts.len(),
            job.checks.len()
        ));
    }
    for (v, c) in report.verdicts.iter().zip(&job.checks) {
        let want = (
            c.name.as_str(),
            job.n,
            Ok(c.expected),
            c.width,
            job.fair,
            None,
        );
        let got = (
            v.name.as_str(),
            v.n,
            v.outcome.clone(),
            v.rep_width,
            v.fair,
            v.cutoff,
        );
        if got != want {
            return Err(format!(
                "n = {}: `{}` gave {got:?}, expected {want:?}",
                job.n, c.src
            ));
        }
    }
    Ok(())
}

/// One timed request.
pub struct Sample {
    /// Position in the workload's stream.
    pub k: usize,
    pub latency: Duration,
    /// When the result arrived, from the loop's start.
    pub done: Duration,
    /// Why the job failed: `ERR`, lost connection, or a wrong verdict.
    pub error: Option<String>,
    /// The job's server-side spans; empty unless the job was traced.
    pub spans: Vec<SpanEvent>,
}

pub struct LoopOut {
    pub samples: Vec<Sample>,
    /// Loop start to the last result.
    pub window: Duration,
    /// Set when a sequential stream ran out before the deadline.
    pub exhausted: bool,
}

impl LoopOut {
    /// This loop followed by `later`, which continued the same stream.
    pub fn then(mut self, later: LoopOut) -> LoopOut {
        self.samples.extend(later.samples);
        self.window += later.window;
        self.exhausted |= later.exhausted;
        self
    }
}

/// Runs the closed loop: every connection sends its next job as soon as
/// the previous result arrives, until `seconds` have passed; jobs in
/// flight at the deadline are completed and counted. `next` is the
/// stream position, shared so consecutive loops continue the stream.
/// With `trace`, every job's spans are fetched with `TRACE <id> chrome`
/// on its own connection right after its result, before the flight
/// recorder's ring can evict them.
pub fn tcp_loop(
    wl: &Workload,
    conns: &mut [Conn],
    next: &AtomicUsize,
    seconds: f64,
    trace: bool,
) -> LoopOut {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let samples = Mutex::new(Vec::new());
    let exhausted = AtomicBool::new(false);
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (samples, exhausted) = (&samples, &exhausted);
            s.spawn(move || {
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = wl.job(k) else {
                        exhausted.store(true, Ordering::Relaxed);
                        break;
                    };
                    let sent = Instant::now();
                    let result = conn.submit_result(&job.text);
                    let arrived = Instant::now();
                    let (error, job_id, broken) = match &result {
                        Ok(report) => (audit(job, report).err(), report.job_id, false),
                        Err(e) => (Some(e.clone()), 0, true),
                    };
                    let spans = if trace && !broken {
                        conn.trace_chrome(job_id).unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    mine.push(Sample {
                        k,
                        latency: arrived - sent,
                        done: arrived - start,
                        error,
                        spans,
                    });
                    if broken {
                        break;
                    }
                }
                samples.lock().expect("sample list").extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample list");
    samples.sort_by_key(|s| s.k);
    let window = samples.iter().map(|s| s.done).max().unwrap_or_default();
    LoopOut {
        samples,
        window,
        exhausted: exhausted.into_inner(),
    }
}

/// A bound server with the benchmark's connections open. Fields drop in
/// order: the clients hang up before the server shuts down.
pub struct Server {
    pub conns: Vec<Conn>,
    pub control: WireClient,
    _server: WireServer,
}

/// Starts the server and runs the workload's set-up jobs through the
/// closed loop; returns the server and the set-up time (bind to the
/// last set-up result).
pub fn start(wl: &Workload) -> Result<(Server, Duration), String> {
    let started = Instant::now();
    let server = WireServer::bind("127.0.0.1:0", VerifyService::start(config()))
        .map_err(|e| format!("bind: {e}"))?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || -> Result<(), String> {
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = wl.setup.get(k) else {
                            return Ok(());
                        };
                        let report = conn.submit_result(&job.text)?;
                        audit(job, &report).map_err(|e| format!("set-up job {k}: {e}"))?;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("set-up thread"))
    })?;
    let setup = started.elapsed();
    let control = WireClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for conn in &mut conns {
        conn.bytes = 0;
    }
    Ok((
        Server {
            conns,
            control,
            _server: server,
        },
        setup,
    ))
}

/// One job of an in-process loop.
pub struct InProc {
    pub latency: Duration,
    pub result: Result<VerdictReport, String>,
    /// The job's spans from the service's recorder; empty unless traced.
    pub spans: Vec<SpanEvent>,
}

/// Runs `jobs` through an in-process service with the same closed loop
/// (`CONNECTIONS` callers, one job outstanding each): `submit(job)
/// .wait()` per job. With `trace`, each caller then renders and parses
/// the job's Chrome trace from the service's recorder, the work a traced
/// TCP loop's `TRACE` fetch costs without the socket. Returns the jobs in
/// the order of `jobs`.
pub fn inproc_loop(service: &VerifyService, jobs: &[&Job], trace: bool) -> Vec<InProc> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let request = job.job.clone();
                let sent = Instant::now();
                let handle = service.submit(request);
                let trace_id = handle.trace;
                let result = handle.wait();
                let latency = sent.elapsed();
                let spans = if trace {
                    let chrome = service.recorder().chrome_trace(trace_id, "icstar-serve");
                    parse_chrome_trace(&chrome).unwrap_or_default()
                } else {
                    Vec::new()
                };
                let result = result
                    .map_err(|e| e.to_string())
                    .and_then(|r| audit(job, &WireReport::from(&r)).map(|()| r));
                let done = InProc {
                    latency,
                    result,
                    spans,
                };
                out.lock().expect("in-process results").push((i, done));
            });
        }
    });
    let mut out = out.into_inner().expect("in-process results");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, done)| done).collect()
}

/// A fresh in-process service under the benchmark's configuration,
/// with the workload's set-up jobs run through it.
pub fn inproc_service(wl: &Workload) -> Result<VerifyService, String> {
    let service = VerifyService::start(config());
    for job in &wl.setup {
        service
            .submit(job.job.clone())
            .wait()
            .map_err(|e| format!("in-process set-up: {e}"))?;
    }
    Ok(service)
}

/// The server's own counters at one instant.
pub struct Ledger {
    pub stats: StatsSnapshot,
    metrics: TelemetrySnapshot,
}

impl Ledger {
    pub fn read(control: &mut WireClient) -> Result<Ledger, String> {
        Ok(Ledger {
            stats: control.stats().map_err(|e| format!("STATS: {e}"))?,
            metrics: control.metrics().map_err(|e| format!("METRICS: {e}"))?,
        })
    }

    /// A registry counter by its dotted name (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(&wire_name(name)).unwrap_or(0)
    }
}

/// What the ledger must show for the window's jobs, from the generator's
/// own description of them. Returns one line per mismatch.
pub fn reconcile(wl: &Workload, jobs: &[&Job], before: &Ledger, after: &Ledger) -> Vec<String> {
    let (b, a) = (&before.stats, &after.stats);
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let lookups: u64 = jobs.iter().map(|j| j.lookups().len() as u64).sum();
    let reps: u64 = jobs
        .iter()
        .map(|j| j.lookups().iter().filter(|&&w| w > 0).count() as u64)
        .sum();
    let formulas: u64 = jobs.iter().map(|j| j.checks.len() as u64).sum();
    let jobs_n = jobs.len() as u64;
    let (builds, rep_builds, hits, misses) = if wl.cold {
        (jobs_n, reps, 0, lookups)
    } else {
        (0, 0, lookups, 0)
    };
    // The cache evicts exactly when what it holds plus what the window
    // inserted exceeds its budget.
    let inserted = (a.cached_abstract_states + a.evicted_abstract_states)
        - (b.cached_abstract_states + b.evicted_abstract_states);
    let over_budget = b.cached_abstract_states + inserted > CACHE_BUDGET_STATES;
    let evictions = a.cache_evictions - b.cache_evictions;
    let mut bad = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            bad.push(format!("{what}: ledger {got}, generator predicts {want}"));
        }
    };
    expect(
        "jobs completed",
        a.jobs_completed - b.jobs_completed,
        jobs_n,
    );
    expect(
        "formulas checked",
        a.formulas_checked - b.formulas_checked,
        formulas,
    );
    expect("serve.verdicts.errors", delta("serve.verdicts.errors"), 0);
    expect("sym.explore.builds", delta("sym.explore.builds"), builds);
    expect("sym.rep.builds", delta("sym.rep.builds"), rep_builds);
    expect("cache hits", a.cache_hits - b.cache_hits, hits);
    expect("cache misses", a.cache_misses - b.cache_misses, misses);
    expect(
        "evictions > 0",
        u64::from(evictions > 0),
        u64::from(over_budget),
    );
    bad
}
