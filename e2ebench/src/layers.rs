//! The traced run: the per-layer split of the same job stream.
//!
//! Phases, all on one workload and seed, each a fifth of the seconds:
//!
//! 1. **loop** — the closed loop over TCP, first untraced, then
//!    continuing the same stream with `TRACE <id> chrome` fetched after
//!    every job. The traced jobs' spans give the `serve.*` phase self
//!    times; their median latency over the untraced jobs' is the cost of
//!    tracing; the `STATS`/`METRICS` deltas and the client sockets give
//!    cache hits, evictions, loop wakeups and ticks, and bytes per job;
//! 2. **in-process** — every looped job again, in the loop's order,
//!    through `VerifyService::submit(job).wait()` on a fresh service with
//!    the same set-up and closed loop, the traced ones with the trace
//!    fetch mirrored in-process. TCP minus in-process latency of the
//!    untraced jobs is the wire's share; the traced jobs' in-process time
//!    is what their phase self times must add up to;
//! 3. **library replay** — the traced jobs once more, one at a time,
//!    through the public `wire::text`, `logic`, `sym` and `mc` calls the
//!    service makes, timed from outside. Like the service it builds each
//!    structure once and checks on it as often as jobs ask.
//!
//! The program itself records nothing new: every number is a call timed
//! here or a counter or span the server already exports.

use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

use icstar_logic::{expand_representatives, parse_state, StateFormula};
use icstar_serve::{ServeConfig, VerdictReport};
use icstar_sym::fairness::counter_fairness;
use icstar_sym::{PackedCounter, SymEngine, SymSession};
use icstar_telemetry::{Registry, SpanEvent};
use icstar_wire::{parse_job, print_report};

use crate::drive::{self, Ledger};
use crate::gallery::Class;
use crate::workload::{Job, Workload};
use crate::{median, ms, Metrics, Outcome};

/// Largest size at which a metric no replayed job exercises is measured
/// on the first replayed job's family as a reference.
const REFERENCE_MAX_N: u32 = 2_000;

pub fn run(wl: &Workload, seconds: f64) -> Result<Outcome, String> {
    let phase_s = seconds / 5.0;
    let (mut srv, _) = drive::start(wl)?;

    // 1. The loop: untraced, then traced, on one stream.
    let next = AtomicUsize::new(0);
    let before = Ledger::read(&mut srv.control)?;
    let untraced = drive::tcp_loop(wl, &mut srv.conns, &next, phase_s, false);
    let split = untraced.samples.len();
    let looped = untraced.then(drive::tcp_loop(wl, &mut srv.conns, &next, phase_s, true));
    let after = Ledger::read(&mut srv.control)?;
    let bytes: u64 = srv.conns.iter().map(|c| c.bytes).sum();
    drop(srv);
    let mut checks = crate::check_window(wl, &looped, &before, &after);
    crate::input_properties(wl, &looped, &after);
    let per_job = looped.samples.len().max(1) as f64;
    let hits = (after.stats.cache_hits - before.stats.cache_hits) as f64;
    let misses = (after.stats.cache_misses - before.stats.cache_misses) as f64;
    let evictions = (after.stats.cache_evictions - before.stats.cache_evictions) as f64;
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let (untraced, traced) = looped.samples.split_at(split);

    // 2. In-process on a fresh service, in the loop's order: the
    // untraced jobs plain, then the traced ones with the trace fetch
    // mirrored, so the cache fills and evicts as it did over TCP.
    let jobs: Vec<&Job> = looped
        .samples
        .iter()
        .map(|s| wl.job(s.k).expect("sampled jobs exist"))
        .collect();
    let (plain_jobs, traced_jobs) = jobs.split_at(split);
    let service = drive::inproc_service(wl)?;
    let inproc = drive::inproc_loop(&service, plain_jobs, false);
    let inproc_traced = drive::inproc_loop(&service, traced_jobs, true);
    drop(service);

    let failures = looped
        .samples
        .iter()
        .filter_map(|s| s.error.clone())
        .chain(
            inproc
                .iter()
                .chain(&inproc_traced)
                .filter_map(|j| j.result.as_ref().err().cloned()),
        )
        .collect::<Vec<_>>();
    let attempted = (looped.samples.len() + inproc.len() + inproc_traced.len()) as u64;

    // Phase self times from the spans, per traced job.
    let phases: Vec<Option<[f64; 5]>> = traced.iter().map(|s| phase_self_ms(&s.spans)).collect();
    let spanned: Vec<[f64; 5]> = phases.iter().flatten().copied().collect();
    if spanned.len() < traced.len() {
        checks.push(format!(
            "{} of {} traced jobs came back without a job span",
            traced.len() - spanned.len(),
            traced.len()
        ));
    }
    let phase_mean = |i: usize| mean(&spanned.iter().map(|p| p[i]).collect::<Vec<_>>());
    // Per job against the same job in-process, so the comparisons hold
    // on workloads whose jobs differ in size.
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(&inproc)
        .map(|(s, j)| ms(s.latency) - ms(j.latency))
        .collect();
    // The phase self times against the in-process job time, summed over
    // the traced jobs: from the in-process service's own spans (the same
    // run), and from the TCP spans, where the workers share the cores
    // with the event loop.
    let inproc_ms: f64 = inproc_traced.iter().map(|j| ms(j.latency)).sum();
    let phase_sum =
        |phases: &[Option<[f64; 5]>]| -> f64 { phases.iter().flatten().flatten().sum() };
    let local_phases: Vec<Option<[f64; 5]>> = inproc_traced
        .iter()
        .map(|j| phase_self_ms(&j.spans))
        .collect();
    let local_ratio = phase_sum(&local_phases) / inproc_ms;
    let tcp_ratio = phase_sum(&phases) / inproc_ms;
    let p50 = |samples: &[drive::Sample]| {
        median(&samples.iter().map(|s| ms(s.latency)).collect::<Vec<_>>())
    };

    // 3. Library replay.
    let reports: Vec<Option<&VerdictReport>> = inproc_traced
        .iter()
        .map(|j| j.result.as_ref().ok())
        .collect();
    let lib = replay(wl, &jobs[split..], &reports, phase_s);
    checks.extend(lib.mismatches.iter().cloned());
    // The replayed jobs' mc time against their job spans.
    let (mc_ms, replayed_span_ms) = lib
        .check_ms_per_job
        .iter()
        .zip(&phases)
        .filter_map(|(mc, p)| p.map(|p| (*mc, p.iter().sum::<f64>())))
        .fold((0.0, 0.0), |(a, b), (mc, span)| (a + mc, b + span));

    println!(
        "traced: jobs {} untraced {} replayed {} phase_sum_over_in_process_job {local_ratio:.4} \
         tcp_phase_sum_over_in_process_job {tcp_ratio:.4} mc_check_share_of_job {:.4}",
        traced.len(),
        untraced.len(),
        lib.check_ms_per_job.len(),
        mc_ms / replayed_span_ms,
    );
    for line in &lib.references {
        println!("reference: {line}");
    }
    for c in checks.iter().chain(failures.iter().take(5)) {
        println!("CHECK FAILED: {c}");
    }

    let mut metrics: Metrics = vec![
        ("wire.parse_job_us".into(), median(&lib.parse_job_us), "us"),
        (
            "wire.print_report_us".into(),
            median(&lib.print_report_us),
            "us",
        ),
        ("wire.overhead_ms".into(), median(&overhead), "ms"),
        (
            "wire.loop_wakeups_per_job".into(),
            delta("wire.loop.wakeups") / per_job,
            "count",
        ),
        (
            "wire.loop_ticks_per_job".into(),
            delta("wire.loop.ticks") / per_job,
            "count",
        ),
        ("wire.bytes_per_job".into(), bytes as f64 / per_job, "B"),
        ("serve.queue_wait_ms".into(), phase_mean(0), "ms"),
        ("serve.cache_lookup_ms".into(), phase_mean(1), "ms"),
        ("serve.build_ms".into(), phase_mean(2), "ms"),
        ("serve.check_ms".into(), phase_mean(3), "ms"),
        ("serve.job_self_ms".into(), phase_mean(4), "ms"),
        (
            "serve.cache_hit_ratio".into(),
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        (
            "serve.evictions_per_job".into(),
            evictions / per_job,
            "count",
        ),
    ];
    metrics.extend(lib.metrics);
    metrics.push((
        "telemetry.trace_overhead_ratio".into(),
        p50(traced) / p50(untraced),
        "ratio",
    ));
    Ok(Outcome {
        correct: checks.is_empty() && failures.is_empty() && attempted > 0,
        attempted,
        failed: failures.len() as u64,
        metrics,
    })
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Self times in ms of one job's `queue_wait`, `cache_lookup`, `build`,
/// `check` and `job` spans. A span's self time is its duration minus
/// what its children cover. `build` runs inside the `cache_lookup` that
/// missed (both are recorded under `job`, so containment is read from
/// the intervals); the `shard[i]` spans of a sharded build run on other
/// threads inside `build` and are counted as part of it. The five sum to
/// the `job` span's duration.
fn phase_self_ms(spans: &[SpanEvent]) -> Option<[f64; 5]> {
    let job = spans.iter().find(|s| s.name == "job")?;
    let end = |s: &SpanEvent| s.start_ns + s.dur_ns;
    let total = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(job.id))
            .map(|s| s.dur_ns)
            .sum()
    };
    let lookups: Vec<&SpanEvent> = spans.iter().filter(|s| s.name == "cache_lookup").collect();
    let (mut inside, mut outside) = (0u64, 0u64);
    for b in spans.iter().filter(|s| s.name == "build") {
        if lookups
            .iter()
            .any(|l| l.start_ns <= b.start_ns && end(b) <= end(l))
        {
            inside += b.dur_ns;
        } else {
            outside += b.dur_ns;
        }
    }
    let (queue, lookup, check) = (total("queue_wait"), total("cache_lookup"), total("check"));
    let job_self = job.dur_ns.saturating_sub(queue + lookup + check + outside);
    let ns = [
        queue,
        lookup.saturating_sub(inside),
        inside + outside,
        check,
        job_self,
    ];
    Some(ns.map(|v| v as f64 / 1e6))
}

/// What the library replay measured.
struct Replay {
    parse_job_us: Vec<f64>,
    print_report_us: Vec<f64>,
    metrics: Metrics,
    /// `mc` check time of each replayed job, in order.
    check_ms_per_job: Vec<f64>,
    mismatches: Vec<String>,
    references: Vec<String>,
}

/// Per-call samples of every library-level layer metric.
#[derive(Default)]
struct Samples {
    parse_formula_us: Vec<f64>,
    expand_us: Vec<f64>,
    reach_ms: Vec<f64>,
    counter_build_ms: Vec<f64>,
    sharded_build_ms: Vec<f64>,
    rep_build_ms: [Vec<f64>; 2],
    fairness_ms: Vec<f64>,
    states: Vec<f64>,
    edges: Vec<f64>,
    /// Per check: safety, unfair liveness, fair liveness, indexed.
    check_ms: [Vec<f64>; 4],
    unfair_ns_per_state: Vec<f64>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, ms(t.elapsed()))
}

/// Breadth-first reachability over `CounterSystem::successors` with
/// packed-key dedup: the bare exploration a build cannot avoid.
fn reach(engine: &SymEngine, n: u32) -> usize {
    let sys = engine.system(n);
    let mut seen: std::collections::HashSet<PackedCounter> = std::collections::HashSet::new();
    let init = sys.initial();
    seen.insert(sys.packing().pack(&init));
    let mut queue = vec![init];
    let mut head = 0;
    while head < queue.len() {
        let state = queue[head].clone();
        head += 1;
        for next in sys.successors(&state) {
            if seen.insert(sys.packing().pack(&next)) {
                queue.push(next);
            }
        }
    }
    queue.len()
}

fn bucket(class: Class, fair: bool) -> usize {
    match (class, fair) {
        (Class::Safety, _) => 0,
        (Class::Liveness, false) => 1,
        (Class::Liveness, true) => 2,
        (Class::Indexed, _) => 3,
    }
}

/// One formula to check: its class, width, formula and expected verdict.
type CheckRow<'a> = (Class, u32, &'a StateFormula, bool);

/// The structures of one variant at one size, each built once (timed)
/// and then checked on as often as replayed jobs ask, as the service's
/// cache does.
struct Built<'e> {
    engine: &'e SymEngine,
    fair: bool,
    n: u32,
    session: SymSession<'e>,
    /// (states, transitions) per width; 0 is the counter structure.
    sizes: HashMap<u32, (usize, usize)>,
}

impl<'e> Built<'e> {
    /// Builds the counter structure, timing the bare reachability, the
    /// build, the fairness compile (fair variants only) and, at or above
    /// the sharding threshold, the sharded build.
    fn new(s: &mut Samples, engine: &'e SymEngine, fair: bool, n: u32) -> Built<'e> {
        let config = ServeConfig::default();
        let (states, reach_ms) = timed(|| reach(engine, n));
        s.reach_ms.push(reach_ms);
        let (graph, build_ms) = timed(|| engine.counter_graph(n));
        s.counter_build_ms.push(build_ms);
        if fair {
            let sys = engine.system(n);
            let (_, occupancy) = sys.kripke_with_states(engine.spec());
            s.fairness_ms
                .push(timed(|| counter_fairness(&sys, &occupancy)).1);
        }
        if n >= config.sharded_threshold {
            let shards = config.exploration_shards;
            s.sharded_build_ms
                .push(timed(|| engine.counter_graph_sharded(n, shards)).1);
        }
        debug_assert_eq!(states, graph.kripke.num_states());
        let size = (graph.kripke.num_states(), graph.kripke.num_transitions());
        let mut session = engine.session(n);
        session.seed_counter(Arc::new(graph));
        Built {
            engine,
            fair,
            n,
            session,
            sizes: HashMap::from([(0, size)]),
        }
    }

    /// The size of the width-`w` structure, building it (timed) first if
    /// this is its first use.
    fn width(&mut self, s: &mut Samples, w: u32) -> (usize, usize) {
        if let Some(&size) = self.sizes.get(&w) {
            return size;
        }
        let (rep, t) = timed(|| self.engine.representative_graph(self.n, w));
        let rep = rep.expect("gallery widths are valid");
        s.rep_build_ms[w as usize - 1].push(t);
        let k = rep.kripke.kripke();
        let size = (k.num_states(), k.num_transitions());
        self.session.seed_representative(w, Arc::new(rep));
        self.sizes.insert(w, size);
        size
    }

    /// Times every check on structures already built; returns the `mc`
    /// time spent.
    fn check(&mut self, s: &mut Samples, checks: &[CheckRow], mismatches: &mut Vec<String>) -> f64 {
        let mut mc_ms = 0.0;
        for &(class, width, f, expected) in checks {
            let states = self.width(s, width).0;
            let (holds, t) = timed(|| self.session.check(f));
            mc_ms += t;
            if holds.as_ref().ok() != Some(&expected) {
                mismatches.push(format!(
                    "library replay at n = {}: `{f}` gave {holds:?}",
                    self.n
                ));
            }
            let b = bucket(class, self.fair);
            s.check_ms[b].push(t);
            if b == 1 {
                s.unfair_ns_per_state.push(t * 1e6 / states as f64);
            }
        }
        mc_ms
    }
}

fn replay(wl: &Workload, jobs: &[&Job], reports: &[Option<&VerdictReport>], budget: f64) -> Replay {
    let started = Instant::now();
    let mut s = Samples::default();
    let (mut parse_job_us, mut print_report_us) = (Vec::new(), Vec::new());
    let mut mismatches = Vec::new();
    let mut mc_ms = Vec::new();
    let engines: Vec<[SymEngine; 2]> = wl
        .families
        .iter()
        .map(|f| {
            [false, true].map(|fair| {
                SymEngine::new(f.template(fair).clone()).with_telemetry(Registry::new())
            })
        })
        .collect();
    let mut built: HashMap<(usize, bool, u32), Built> = HashMap::new();
    for (job, report) in jobs.iter().zip(reports) {
        if !mc_ms.is_empty() && started.elapsed().as_secs_f64() > budget {
            break;
        }
        parse_job_us.push(1e3 * timed(|| parse_job(&job.text)).1);
        if let Some(r) = report {
            print_report_us.push(1e3 * timed(|| print_report(r)).1);
        }
        let mut formulas = Vec::with_capacity(job.checks.len());
        for c in &job.checks {
            let (f, t) = timed(|| parse_state(c.src));
            s.parse_formula_us.push(1e3 * t);
            let f = f.expect("gallery rows parse");
            if c.width > 0 {
                s.expand_us
                    .push(1e3 * timed(|| expand_representatives(&f, c.width)).1);
            }
            formulas.push(f);
        }
        let key = (job.family, job.fair, job.n);
        let engine = &engines[job.family][usize::from(job.fair)];
        let b = built
            .entry(key)
            .or_insert_with(|| Built::new(&mut s, engine, job.fair, job.n));
        let (mut states, mut edges) = (0, 0);
        for w in job.lookups() {
            let (st, ed) = b.width(&mut s, w);
            states += st;
            edges += ed;
        }
        s.states.push(states as f64);
        s.edges.push(edges as f64);
        let checks: Vec<CheckRow> = job
            .checks
            .iter()
            .zip(&formulas)
            .map(|(c, f)| (c.class, c.width, f, c.expected))
            .collect();
        mc_ms.push(b.check(&mut s, &checks, &mut mismatches));
        if wl.cold {
            // No later job asks for it again.
            built.remove(&key);
        }
    }
    drop(built);
    let references = reference_samples(wl, jobs.first().copied(), &mut s, &mut mismatches);
    let metrics = vec![
        ("sym.reach_ms".into(), mean(&s.reach_ms), "ms"),
        (
            "sym.counter_build_ms".into(),
            mean(&s.counter_build_ms),
            "ms",
        ),
        (
            "sym.build_over_reach".into(),
            s.counter_build_ms.iter().sum::<f64>() / s.reach_ms.iter().sum::<f64>(),
            "ratio",
        ),
        (
            "sym.sharded_build_ms".into(),
            mean(&s.sharded_build_ms),
            "ms",
        ),
        ("sym.rep_build_ms.w1".into(), mean(&s.rep_build_ms[0]), "ms"),
        ("sym.rep_build_ms.w2".into(), mean(&s.rep_build_ms[1]), "ms"),
        ("sym.fairness_compile_ms".into(), mean(&s.fairness_ms), "ms"),
        ("sym.states_per_job".into(), mean(&s.states), "count"),
        ("sym.edges_per_job".into(), mean(&s.edges), "count"),
        ("mc.check_ms.safety".into(), mean(&s.check_ms[0]), "ms"),
        (
            "mc.check_ms.liveness_unfair".into(),
            mean(&s.check_ms[1]),
            "ms",
        ),
        (
            "mc.check_ms.liveness_fair".into(),
            mean(&s.check_ms[2]),
            "ms",
        ),
        ("mc.check_ms.indexed".into(), mean(&s.check_ms[3]), "ms"),
        (
            "mc.liveness_unfair_ns_per_state".into(),
            mean(&s.unfair_ns_per_state),
            "ns",
        ),
        (
            "logic.parse_formula_us".into(),
            median(&s.parse_formula_us),
            "us",
        ),
        ("logic.expand_us".into(), median(&s.expand_us), "us"),
    ];
    Replay {
        parse_job_us,
        print_report_us,
        metrics,
        check_ms_per_job: mc_ms,
        mismatches,
        references,
    }
}

/// Fills every layer sample the workload's own jobs never produce, so
/// each metric carries a measured value: the first replayed job's family
/// at its size (capped at [`REFERENCE_MAX_N`]) is built sharded, at
/// widths 1 and 2, and checked on each formula class it lacks. Returns
/// one line per reference taken; the README lists them per workload.
fn reference_samples(
    wl: &Workload,
    first: Option<&Job>,
    s: &mut Samples,
    mismatches: &mut Vec<String>,
) -> Vec<String> {
    let Some(job) = first else {
        return Vec::new();
    };
    let fam = &wl.families[job.family];
    let n = job.n.min(REFERENCE_MAX_N);
    let mut lines = Vec::new();
    if s.sharded_build_ms.is_empty() {
        let engine = SymEngine::new(fam.plain.clone()).with_telemetry(Registry::new());
        let shards = ServeConfig::default().exploration_shards;
        s.sharded_build_ms
            .push(timed(|| engine.counter_graph_sharded(n, shards)).1);
        lines.push(format!("sym.sharded_build_ms: {} at n = {n}", fam.name));
    }
    // (bucket, fair variant, rows) for every class the replay lacks;
    // the indexed rows also stand in for missing width-1/2 builds.
    let indexed = [fam.depth1, fam.depth2];
    let wanted: [(usize, bool, &[&'static str]); 4] = [
        (0, false, fam.safety),
        (1, false, fam.liveness),
        (2, true, fam.liveness),
        (3, false, &indexed),
    ];
    let rep_missing = s.rep_build_ms.iter().any(Vec::is_empty);
    for (b, fair, rows) in wanted {
        let lacking = s.check_ms[b].is_empty() || (b == 3 && rep_missing);
        if !lacking {
            continue;
        }
        let engine = SymEngine::new(fam.template(fair).clone()).with_telemetry(Registry::new());
        let formulas: Vec<StateFormula> = rows.iter().map(|r| crate::gallery::formula(r)).collect();
        let class = [
            Class::Safety,
            Class::Liveness,
            Class::Liveness,
            Class::Indexed,
        ][b];
        let checks: Vec<CheckRow> = rows
            .iter()
            .zip(&formulas)
            .map(|(r, f)| {
                (
                    class,
                    crate::gallery::depth(r).min(n),
                    f,
                    fam.expected(fair, r),
                )
            })
            .collect();
        // Only the check, width and fairness samples are references;
        // keep the build samples of the workload's own jobs as they were.
        let mut extra = Samples::default();
        Built::new(&mut extra, &engine, fair, n).check(&mut extra, &checks, mismatches);
        for (mine, theirs) in s.check_ms.iter_mut().zip(extra.check_ms) {
            if mine.is_empty() {
                *mine = theirs;
            }
        }
        if s.unfair_ns_per_state.is_empty() {
            s.unfair_ns_per_state = extra.unfair_ns_per_state;
        }
        if s.fairness_ms.is_empty() {
            s.fairness_ms = extra.fairness_ms;
        }
        for (mine, theirs) in s.rep_build_ms.iter_mut().zip(extra.rep_build_ms) {
            if mine.is_empty() && !theirs.is_empty() {
                *mine = theirs;
            }
        }
        lines.push(format!(
            "{} rows of {} ({}) at n = {n}",
            ["safety", "liveness (unfair)", "liveness (fair)", "indexed"][b],
            fam.name,
            if fair { "fair" } else { "plain" }
        ));
    }
    lines
}
