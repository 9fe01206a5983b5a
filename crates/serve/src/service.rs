//! The verification service: a job queue drained by a fixed worker pool.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::AtomicU64;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use icstar_logic::has_index_quantifier;
use icstar_sym::{required_rep_width, CountingSpec, RepGraph, SymEngine, SymError, WorkloadKey};
use icstar_telemetry::{
    FlightRecorder, Registry, SpanContext, SpanEvent, TelemetrySnapshot, TraceId, TraceScope,
};

use crate::cache::{CacheKey, GraphCache};
use crate::job::{JobVerdict, VerdictReport, VerifyJob};
use crate::stats::{ServiceStats, StatsSnapshot};

/// Tuning knobs for a [`VerifyService`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Ignored: every build runs the sequential BFS. Kept so existing
    /// configurations compile.
    pub exploration_shards: usize,
    /// Ignored, like [`ServeConfig::exploration_shards`]; defaults to
    /// `u32::MAX`.
    pub sharded_threshold: u32,
    /// Abstract-state budget of the structure cache: once the total
    /// state count of materialized cached structures exceeds this,
    /// least-recently-used entries are evicted (weighted by state
    /// count — see [`GraphCache::new`]). `u64::MAX` (the
    /// default) disables eviction.
    pub cache_budget_states: u64,
    /// The registry this service's metrics land in (`serve.*`, plus the
    /// `sym.*` metrics of every engine the workers run). Defaults to a
    /// **fresh** registry so colocated services never mix counters; pass
    /// `Registry::global().clone()` to publish into the process-wide
    /// registry instead.
    pub telemetry: Registry,
    /// The flight recorder every job's spans land in — the ring the
    /// `TRACE` wire command reads. Defaults to a fresh recorder with
    /// [`DEFAULT_TRACE_CAPACITY`](icstar_telemetry::DEFAULT_TRACE_CAPACITY)
    /// span slots; pass `FlightRecorder::with_capacity` to size it, or a
    /// clone of an existing recorder to share one ring across services.
    pub recorder: FlightRecorder,
    /// Directory the structure cache persists to (see
    /// [`SpillStore`](crate::SpillStore)): materialized graphs spill to
    /// versioned, checksummed files and memory misses probe the disk
    /// before re-exploring, so restarts and replicas sharing the
    /// directory warm-start. `None` (the default) keeps the cache purely
    /// in-memory. An unopenable directory degrades silently to `None` —
    /// persistence is an optimization, never load-bearing.
    pub cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    /// Workers sized to the machine (at least 2), an unbounded in-memory
    /// cache, and a fresh registry and flight recorder. Each build runs
    /// on the worker that needs it; structurally equal workloads never
    /// build twice (the cache deduplicates in-flight builds).
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        ServeConfig {
            workers: cores.max(2),
            exploration_shards: 1,
            sharded_threshold: u32::MAX,
            cache_budget_states: u64::MAX,
            telemetry: Registry::new(),
            recorder: FlightRecorder::new(),
            cache_dir: None,
        }
    }
}

/// Why a [`JobHandle`] could not produce a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The worker processing the job disappeared before reporting (the
    /// service was dropped mid-job, or the worker panicked).
    JobLost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::JobLost => write!(f, "the job's worker exited before reporting"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A claim ticket for one submitted job.
#[derive(Debug)]
pub struct JobHandle {
    /// The id the report will carry.
    pub id: u64,
    /// The trace every span of this job is recorded under — pass it to
    /// [`FlightRecorder::spans_for`] (via
    /// [`VerifyService::recorder`]) to reconstruct the job's causal
    /// tree. Client-supplied on [`VerifyService::submit_traced`],
    /// freshly minted otherwise.
    pub trace: TraceId,
    rx: mpsc::Receiver<VerdictReport>,
}

impl JobHandle {
    /// Blocks until the job's report arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::JobLost`] if the worker died before reporting.
    pub fn wait(self) -> Result<VerdictReport, ServeError> {
        self.rx.recv().map_err(|_| ServeError::JobLost)
    }

    /// The report, if it has already arrived (never blocks): `Ok(None)`
    /// while the job is still in flight.
    ///
    /// # Errors
    ///
    /// [`ServeError::JobLost`] if the worker died before reporting — a
    /// polling caller must see job loss too, or it would poll forever.
    pub fn try_wait(&self) -> Result<Option<VerdictReport>, ServeError> {
        match self.rx.try_recv() {
            Ok(report) => Ok(Some(report)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(ServeError::JobLost),
        }
    }
}

struct QueuedJob {
    id: u64,
    job: VerifyJob,
    reply: mpsc::Sender<VerdictReport>,
    /// When `submit` accepted the job — start of the queue-wait and
    /// total-latency measurements.
    submitted: Instant,
    /// The same instant on the flight recorder's clock, so recorded
    /// spans line up with `submitted`-derived durations.
    submitted_ns: u64,
    /// The job's trace and the pre-allocated id of its root `job` span.
    /// Children are recorded against `root` as the job progresses; the
    /// root event itself is recorded last, when its duration is known.
    root: SpanContext,
}

/// Everything the workers share.
struct Inner {
    cache: GraphCache,
    stats: ServiceStats,
    config: ServeConfig,
    /// Where workers announce finished job ids (set by
    /// [`VerifyService::set_completion_notifier`]); `None` until a
    /// completion-driven caller registers. Sent for every outcome —
    /// served, panicked, dropped handle — so a waiter never sleeps
    /// through a loss.
    notify: Mutex<Option<mpsc::Sender<u64>>>,
}

/// A concurrent verification service: callers [`submit`](VerifyService::submit)
/// [`VerifyJob`]s from any thread; a fixed pool of workers drains the
/// queue, shares materialized structures through the
/// [`GraphCache`](crate::GraphCache), and sends each job's
/// [`VerdictReport`] back through its [`JobHandle`].
///
/// Dropping the service closes the queue and joins the workers; jobs
/// already queued are still processed first.
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_serve::{VerifyJob, VerifyService};
/// use icstar_sym::mutex_template;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let service = VerifyService::with_defaults();
/// let job = VerifyJob::new(mutex_template())
///     .at_sizes([10, 100])
///     .formula("mutex", parse_state("AG !crit_ge2")?);
/// // Two submissions of the same family: the second is served from cache.
/// let a = service.submit(job.clone());
/// let b = service.submit(job);
/// assert!(a.wait()?.all_hold());
/// assert!(b.wait()?.all_hold());
/// assert!(service.stats().cache_hits > 0);
/// # Ok(())
/// # }
/// ```
pub struct VerifyService {
    /// `Some` until shutdown; dropping it closes the queue.
    tx: Option<mpsc::Sender<QueuedJob>>,
    workers: Vec<JoinHandle<()>>,
    inner: Arc<Inner>,
    next_id: AtomicU64,
}

impl VerifyService {
    /// Starts the worker pool described by `config`.
    pub fn start(config: ServeConfig) -> Self {
        let (tx, rx) = mpsc::channel::<QueuedJob>();
        let rx = Arc::new(Mutex::new(rx));
        let store = config
            .cache_dir
            .as_ref()
            .and_then(|dir| crate::SpillStore::open(dir).ok());
        let cache = GraphCache::new(config.cache_budget_states, store);
        cache.publish_metrics(&config.telemetry);
        let stats = ServiceStats::register(&config.telemetry);
        stats.workers_total.set(config.workers.max(1) as i64);
        let inner = Arc::new(Inner {
            cache,
            stats,
            config: config.clone(),
            notify: Mutex::new(None),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("icstar-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only while waiting; release
                        // before processing so peers can pick up work.
                        let msg = { rx.lock().expect("queue poisoned").recv() };
                        match msg {
                            Ok(q) => {
                                let QueuedJob {
                                    id,
                                    job,
                                    reply,
                                    submitted,
                                    submitted_ns,
                                    root,
                                } = q;
                                let worker = i as u32;
                                let recorder = &inner.config.recorder;
                                inner.stats.queue_depth.dec();
                                let wait = submitted.elapsed();
                                inner.stats.queue_wait_ns.record_duration(wait);
                                recorder.record_span(
                                    root.trace,
                                    Some(root.span),
                                    "queue_wait",
                                    submitted_ns,
                                    wait.as_nanos() as u64,
                                    worker,
                                    Vec::new(),
                                );
                                inner.stats.workers_busy.inc();
                                // Isolate panics: a pathological job must
                                // not shrink the pool (each dead worker
                                // would be one forever, until every
                                // submission reports JobLost). All shared
                                // state is atomics + the build-once cache,
                                // which tolerates an abandoned build, so
                                // unwinding past it is safe.
                                let report =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        process(&inner, id, job, root, worker)
                                    }));
                                inner.stats.workers_busy.dec();
                                // The root `job` span is recorded even for
                                // a panicked job — its trace is often the
                                // only evidence of what the job was doing.
                                let total = submitted.elapsed();
                                let outcome = if report.is_ok() { "ok" } else { "panicked" };
                                recorder.record(SpanEvent {
                                    trace: root.trace,
                                    id: root.span,
                                    parent: None,
                                    name: "job".into(),
                                    start_ns: submitted_ns,
                                    dur_ns: total.as_nanos() as u64,
                                    tid: worker,
                                    attrs: vec![
                                        ("id".into(), id.to_string()),
                                        ("outcome".into(), outcome.into()),
                                    ],
                                });
                                if let Ok(report) = report {
                                    inner.stats.jobs_completed.inc();
                                    inner.stats.total_ns.record_duration(total);
                                    // The caller may have dropped its
                                    // handle; the work still counts.
                                    let _ = reply.send(report);
                                } else {
                                    // On panic the reply sender must drop
                                    // *before* the notification below, so
                                    // a woken waiter's try_wait sees the
                                    // loss, not an empty channel.
                                    drop(reply);
                                }
                                // Announce completion last — report (or
                                // loss) first, wake-up second, so a
                                // completion-driven front-end polling on
                                // the notification always finds the
                                // outcome. Sent for every job, served or
                                // panicked.
                                let notify =
                                    inner.notify.lock().expect("notifier poisoned").clone();
                                if let Some(notify) = notify {
                                    let _ = notify.send(id);
                                }
                                // On panic the job's handle reports
                                // JobLost; its latency is deliberately
                                // not recorded (the phase histograms
                                // describe served jobs).
                            }
                            Err(_) => break, // queue closed: shut down
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        VerifyService {
            tx: Some(tx),
            workers,
            inner,
            next_id: AtomicU64::new(0),
        }
    }

    /// Starts a service with [`ServeConfig::default`].
    pub fn with_defaults() -> Self {
        Self::start(ServeConfig::default())
    }

    /// Enqueues a job and returns the handle its report will arrive on.
    /// Never blocks on the workers. The job records its spans under a
    /// freshly minted trace (see [`JobHandle::trace`]); use
    /// [`submit_traced`](VerifyService::submit_traced) to join a trace
    /// the caller already owns.
    pub fn submit(&self, job: VerifyJob) -> JobHandle {
        self.submit_traced(job, None)
    }

    /// Like [`submit`](VerifyService::submit), but records the job's
    /// spans under `trace` when one is given — the propagation point for
    /// a caller (e.g. the wire server) whose own spans should parent the
    /// job's in one causal tree. With `None` a fresh trace is minted.
    pub fn submit_traced(&self, job: VerifyJob, trace: Option<TraceId>) -> JobHandle {
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (reply, rx) = mpsc::channel();
        self.inner.stats.jobs_submitted.inc();
        self.inner.stats.queue_depth.inc();
        let recorder = &self.inner.config.recorder;
        let trace = trace.unwrap_or_else(|| recorder.new_trace());
        // The root `job` span's id is fixed now so the worker can parent
        // children on it before the root event itself (recorded at
        // completion, when its duration is known) exists in the ring.
        let root = SpanContext {
            trace,
            span: recorder.new_span_id(),
        };
        let queued = QueuedJob {
            id,
            job,
            reply,
            submitted: Instant::now(),
            submitted_ns: recorder.now_ns(),
            root,
        };
        if let Some(tx) = &self.tx {
            // Failure means every worker has died; the handle will then
            // report `JobLost`.
            let _ = tx.send(queued);
        }
        JobHandle { id, trace, rx }
    }

    /// Registers where workers announce finished job ids: after a job's
    /// report is delivered (or its worker panicked and the handle will
    /// report loss), its id is sent on `tx`. One notifier per service —
    /// registering again replaces the previous one. The send happens
    /// strictly *after* the outcome is observable through the job's
    /// handle, so a completion-driven caller (the wire server's event
    /// loop) can `try_wait` on notification without a lost-wakeup race.
    pub fn set_completion_notifier(&self, tx: mpsc::Sender<u64>) {
        *self.inner.notify.lock().expect("notifier poisoned") = Some(tx);
    }

    /// A point-in-time view of the service counters. Reads the same
    /// registry handles [`VerifyService::telemetry_snapshot`] exports —
    /// the flat snapshot is a stable legacy view, not a second ledger.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.inner.stats;
        let total = s.total_ns.snapshot();
        StatsSnapshot {
            jobs_submitted: s.jobs_submitted.get(),
            jobs_completed: s.jobs_completed.get(),
            formulas_checked: s.formulas_checked.get(),
            cache_hits: self.inner.cache.hits(),
            cache_misses: self.inner.cache.misses(),
            cached_structures: self.inner.cache.len() as u64,
            cached_abstract_states: self.inner.cache.abstract_states(),
            cache_evictions: self.inner.cache.evictions(),
            evicted_abstract_states: self.inner.cache.evicted_states(),
            p50_total_ns: total.p50(),
            p99_total_ns: total.p99(),
        }
    }

    /// The registry this service publishes its metrics into (the one
    /// from [`ServeConfig::telemetry`]).
    pub fn telemetry(&self) -> &Registry {
        &self.inner.config.telemetry
    }

    /// The flight recorder this service's jobs record into (the one from
    /// [`ServeConfig::recorder`]) — read a job's causal tree with
    /// [`FlightRecorder::spans_for`] on [`JobHandle::trace`].
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.config.recorder
    }

    /// A coherent snapshot of every registered metric, with the cache
    /// occupancy gauges (`serve.cache.structures`,
    /// `serve.cache.abstract_states`) refreshed first — occupancy is a
    /// property of the cache's maps, not an event stream, so it is
    /// sampled here rather than maintained on the hot path.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let registry = &self.inner.config.telemetry;
        registry
            .gauge("serve.cache.structures")
            .set(self.inner.cache.len() as i64);
        registry
            .gauge("serve.cache.abstract_states")
            .set(self.inner.cache.abstract_states().min(i64::MAX as u64) as i64);
        // Same reasoning for the flight recorder's occupancy gauge
        // (`telemetry.trace.retained`, plus adopting the dropped
        // counter): sampled at snapshot time, not maintained per record.
        self.inner.config.recorder.publish_metrics(registry);
        registry.snapshot()
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Closes the queue, drains queued jobs, and joins the workers.
    /// Equivalent to dropping the service, but explicit.
    pub fn shutdown(self) {}
}

impl Drop for VerifyService {
    fn drop(&mut self) {
        self.tx = None; // close the queue: workers exit after draining
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Times one cache fetch and files its latency under hit or miss: the
/// closure receives a flag it must set iff *this* call ran the build.
/// An in-flight wait (the builder is a peer) counts as a hit — an
/// honest, slow one; the tail of `serve.cache.hit_ns` is contention,
/// not lookup cost. Returns the flag too, so the caller's
/// `cache_lookup` span can carry the outcome.
fn timed_fetch<T>(
    stats: &ServiceStats,
    fetch: impl FnOnce(&Cell<bool>) -> T,
) -> (T, Duration, bool) {
    let built = Cell::new(false);
    let start = Instant::now();
    let out = fetch(&built);
    let dur = start.elapsed();
    if built.get() {
        stats.cache_miss_ns.record_duration(dur);
    } else {
        stats.cache_hit_ns.record_duration(dur);
    }
    (out, dur, built.get())
}

/// Runs one job: for every size, fetch-or-build the structures it
/// needs through the cache — one per distinct width its formulas
/// require, the counter structure being width 0 — then check every
/// formula on a session seeded with them. An unbounded tail
/// ([`VerifyJob::all_from`]) gets one [`SymError::NoProvenCutoff`]
/// verdict per formula and builds nothing. Structure acquisition and
/// checking are timed separately into the per-job phase histograms
/// (`serve.job.build_ns` / `serve.job.check_ns`, one sample per job).
///
/// Every phase also records a span under the job's `root` context —
/// `cache_lookup` (with its hit/miss outcome), `build` (only when this
/// worker actually materialized; under it, the build's `explore`,
/// `freeze` and `fairness` phases), and `check` — all on the flight
/// recorder, tagged with this worker's index as the Chrome-trace lane.
fn process(
    inner: &Inner,
    id: u64,
    job: VerifyJob,
    root: SpanContext,
    worker: u32,
) -> VerdictReport {
    let VerifyJob {
        template,
        spec,
        sizes,
        all_from,
        formulas,
    } = job;
    let spec = spec.unwrap_or_else(|| CountingSpec::standard(&template));
    // The job's identity in the cache, encoded once for all its lookups.
    let workload = WorkloadKey::of(&template, &spec);
    let engine =
        SymEngine::with_spec(template, spec).with_telemetry(inner.config.telemetry.clone());
    let mut build_time = Duration::ZERO;
    let mut check_time = Duration::ZERO;

    // Every bounded size gets a direct verdict.
    let recorder = &inner.config.recorder;
    let mut verdicts = Vec::with_capacity(sizes.len() * formulas.len());
    for &n in &sizes {
        let mut session = engine.session(n);
        // The distinct widths this job needs at this size: 0 for a
        // counting formula, and for an indexed one at n = 0 (it expands
        // over the empty index set). Formulas outside the k-restricted
        // fragment report their error at check time instead.
        let mut widths: Vec<u32> = formulas
            .iter()
            .filter_map(|(_, f)| {
                if n == 0 || !has_index_quantifier(f) {
                    return Some(0);
                }
                required_rep_width(f, n).ok().filter(|&w| w > 0)
            })
            .collect();
        widths.sort_unstable();
        widths.dedup();
        for width in widths {
            let mut lookup = recorder.scope_under(root, "cache_lookup");
            lookup.set_tid(worker);
            tag(&mut lookup, n, width);
            let key = CacheKey {
                workload: workload.clone(),
                n,
                width,
            };
            let (graph, dur, built) = timed_fetch(&inner.stats, |built| {
                inner.cache.get(&key, || {
                    built.set(true);
                    materialize(inner, &engine, n, width, root, worker)
                })
            });
            lookup.attr("outcome", if built { "miss" } else { "hit" });
            drop(lookup);
            build_time += dur;
            // On error the session is left unseeded: each check at this
            // width reproduces the build error as its verdict.
            if let Ok(graph) = graph {
                session.seed(width, graph);
            }
        }
        let mut check = recorder.scope_under(root, "check");
        check.set_tid(worker);
        check.attr("n", n.to_string());
        check.attr("formulas", formulas.len().to_string());
        for (name, f) in &formulas {
            inner.stats.formulas_checked.inc();
            let check_started = Instant::now();
            let run = session.check_described(f);
            check_time += check_started.elapsed();
            let (result, rep_width, fair) = match run {
                Ok(run) => (Ok(run.holds), run.rep_width, run.fair),
                Err(e) => {
                    inner.stats.verdict_errors.inc();
                    (Err(e), 0, false)
                }
            };
            verdicts.push(JobVerdict {
                name: name.clone(),
                n,
                result,
                rep_width,
                fair,
            });
        }
    }
    // The unbounded tail gets one refusal per formula at `lo`: agreement
    // at a few small sizes does not imply a cutoff, so no size past the
    // bounded ones is answered until a proven route exists.
    if let Some(lo) = all_from {
        for (name, _) in &formulas {
            inner.stats.formulas_checked.inc();
            inner.stats.verdict_errors.inc();
            verdicts.push(JobVerdict {
                name: name.clone(),
                n: lo,
                result: Err(SymError::NoProvenCutoff),
                rep_width: 0,
                fair: false,
            });
        }
    }
    inner.stats.build_ns.record_duration(build_time);
    inner.stats.check_ns.record_duration(check_time);
    VerdictReport {
        job_id: id,
        verdicts,
    }
}

/// Tags a lookup or build span with the structure it is for: its
/// `kind`, `n`, and the `width` of a representative.
fn tag(span: &mut TraceScope, n: u32, width: u32) {
    let kind = if width == 0 {
        "counter"
    } else {
        "representative"
    };
    span.attr("kind", kind);
    span.attr("n", n.to_string());
    if width > 0 {
        span.attr("width", width.to_string());
    }
}

/// Builds the width-`width` bundle (structure + compiled fairness) for
/// the cache. The `build` span it records under `root` parents the
/// build's phase spans (`explore`, `freeze`, and `fairness` on fair
/// templates), so the trace shows which worker paid for the
/// materialization and where its time went.
fn materialize(
    inner: &Inner,
    engine: &SymEngine,
    n: u32,
    width: u32,
    root: SpanContext,
    worker: u32,
) -> Result<RepGraph, SymError> {
    let recorder = &inner.config.recorder;
    let mut build = recorder.scope_under(root, "build");
    build.set_tid(worker);
    tag(&mut build, n, width);
    let sys = engine
        .system(n)
        .with_trace(recorder.clone(), build.context(), worker);
    icstar_sym::rep_graph(&sys, engine.spec(), width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_logic::parse_state;
    use icstar_sym::{mutex_template, ring_station_template, SymError};

    fn small_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            cache_budget_states: u64::MAX,
            telemetry: Registry::new(), // isolated: exact counts below
            ..ServeConfig::default()
        }
    }

    #[test]
    fn end_to_end_verdicts_and_cache_sharing() {
        let service = VerifyService::start(small_config());
        let job = VerifyJob::new(mutex_template())
            .at_sizes([5, 10])
            .formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .formula(
                "access",
                parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
            );
        let first = service.submit(job.clone()).wait().unwrap();
        assert_eq!(first.verdicts.len(), 4);
        assert!(first.all_hold());

        let second = service.submit(job).wait().unwrap();
        assert!(second.all_hold());

        let stats = service.stats();
        assert_eq!(stats.jobs_submitted, 2);
        assert_eq!(stats.jobs_completed, 2);
        assert_eq!(stats.formulas_checked, 8);
        // Second job's 2 sizes × (counter + representative) all hit.
        assert_eq!(stats.cache_misses, 4);
        assert_eq!(stats.cache_hits, 4);
        assert!(stats.hit_rate() > 0.0);
        assert_eq!(stats.cached_structures, 4);
        assert!(stats.cached_abstract_states > 0);
    }

    #[test]
    fn fair_jobs_check_fair_paths_and_report_it() {
        // A template with a weak-fairness declaration checks over fair
        // paths only: stuttered liveness that fails on the
        // unconstrained twin holds, and every verdict carries fair: true.
        use icstar_sym::GuardedBuilder;
        let stutter = |fair: bool| {
            let mut b = GuardedBuilder::new();
            let idle = b.state("idle", ["idle"]);
            let done = b.state("done", ["done"]);
            b.edge(idle, idle);
            b.edge(idle, done);
            b.edge(done, done);
            if fair {
                b.fair("exit", [(idle, done)]);
            }
            b.build(idle)
        };
        let service = VerifyService::start(small_config());
        let report = service
            .submit(
                VerifyJob::new(stutter(true))
                    .at_sizes([1, 5, 40])
                    .formula("drain", parse_state("AF idle_eq0").unwrap())
                    .formula("each exits", parse_state("forall i. AF done[i]").unwrap()),
            )
            .wait()
            .unwrap();
        assert!(report.all_hold());
        assert!(report.verdicts.iter().all(|v| v.fair));
        // The indexed formula still routes through a width-1
        // representative bundle.
        let widths: Vec<u32> = report.at_size(5).map(|v| v.rep_width).collect();
        assert_eq!(widths, vec![0, 1]);

        // The unconstrained twin fails the same liveness (a run may
        // stutter in idle forever) and reports fair: false.
        let report = service
            .submit(
                VerifyJob::new(stutter(false))
                    .at_size(5)
                    .formula("drain", parse_state("AF idle_eq0").unwrap()),
            )
            .wait()
            .unwrap();
        assert_eq!(report.verdicts[0].result, Ok(false));
        assert!(!report.verdicts[0].fair);
    }

    #[test]
    fn nested_formulas_get_their_own_width_and_cache_entry() {
        let service = VerifyService::start(small_config());
        let job = VerifyJob::new(mutex_template())
            .at_size(6)
            .formula(
                "depth1",
                parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
            )
            .formula(
                "depth2",
                parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap(),
            );
        let report = service.submit(job.clone()).wait().unwrap();
        assert!(report.all_hold());
        assert_eq!(report.verdicts[0].rep_width, 1);
        assert_eq!(report.verdicts[1].rep_width, 2);
        // Two rep structures (widths 1 and 2) were cached; resubmitting
        // hits both.
        let misses = service.stats().cache_misses;
        assert_eq!(misses, 2);
        service.submit(job).wait().unwrap();
        assert_eq!(service.stats().cache_misses, misses);
        assert_eq!(service.stats().cache_hits, 2);
    }

    #[test]
    fn eviction_counters_flow_into_the_snapshot() {
        let service = VerifyService::start(ServeConfig {
            cache_budget_states: 30,
            ..small_config()
        });
        for n in [10u32, 12, 14] {
            service
                .submit(
                    VerifyJob::new(mutex_template())
                        .at_size(n)
                        .formula("m", parse_state("AG !crit_ge2").unwrap()),
                )
                .wait()
                .unwrap();
        }
        let stats = service.stats();
        assert!(stats.cache_evictions > 0);
        assert!(stats.evicted_abstract_states > 0);
        assert!(stats.cached_abstract_states <= 30 + (2 * 14 + 1));
    }

    #[test]
    fn verdict_errors_are_reported_not_fatal() {
        let service = VerifyService::start(small_config());
        let report = service
            .submit(
                VerifyJob::new(mutex_template())
                    .at_size(3)
                    .formula("bogus", parse_state("AG bogus").unwrap())
                    .formula("fine", parse_state("AG !crit_ge2").unwrap()),
            )
            .wait()
            .unwrap();
        assert!(matches!(
            report.verdicts[0].result,
            Err(SymError::UnknownAtom(_))
        ));
        assert_eq!(report.verdicts[1].result, Ok(true));
    }

    #[test]
    fn n_zero_indexed_formulas_served() {
        let service = VerifyService::start(small_config());
        let report = service
            .submit(
                VerifyJob::new(mutex_template())
                    .at_size(0)
                    .formula("empty forall", parse_state("forall i. AG crit[i]").unwrap())
                    .formula("empty exists", parse_state("exists i. EF crit[i]").unwrap()),
            )
            .wait()
            .unwrap();
        assert_eq!(report.verdicts[0].result, Ok(true));
        assert_eq!(report.verdicts[1].result, Ok(false));
    }

    #[test]
    fn distinct_templates_do_not_collide() {
        let service = VerifyService::start(small_config());
        // Same sizes, different templates: no false sharing.
        let a = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(4)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        let b = service.submit(
            VerifyJob::new(ring_station_template(3, 1))
                .at_size(4)
                .formula("cap", parse_state("AG !s1_ge2").unwrap()),
        );
        assert!(a.wait().unwrap().all_hold());
        assert!(b.wait().unwrap().all_hold());
        assert_eq!(service.stats().cache_hits, 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let service = VerifyService::start(ServeConfig {
            workers: 1,
            ..small_config()
        });
        let handles: Vec<_> = (0..6)
            .map(|i| {
                service.submit(
                    VerifyJob::new(mutex_template())
                        .at_size(3 + i)
                        .formula("m", parse_state("AG !crit_ge2").unwrap()),
                )
            })
            .collect();
        service.shutdown();
        for h in handles {
            assert!(h.wait().unwrap().all_hold());
        }
    }

    #[test]
    fn try_wait_reports_pending_then_ready() {
        let service = VerifyService::start(small_config());
        let h = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(30)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        // Poll until the report lands; `Ok(None)` means still in flight,
        // an error would mean the job was lost.
        loop {
            match h.try_wait() {
                Ok(Some(report)) => {
                    assert!(report.all_hold());
                    break;
                }
                Ok(None) => std::thread::yield_now(),
                Err(e) => panic!("job lost: {e}"),
            }
        }
    }

    #[test]
    fn telemetry_snapshot_mirrors_stats_and_times_phases() {
        let service = VerifyService::start(small_config());
        let job = VerifyJob::new(mutex_template())
            .at_sizes([4, 8])
            .formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .formula(
                "access",
                parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
            );
        service.submit(job.clone()).wait().unwrap();
        service.submit(job).wait().unwrap();

        let stats = service.stats();
        let snap = service.telemetry_snapshot();
        // One ledger: the registry view and the flat snapshot agree.
        assert_eq!(snap.counter("serve.jobs.submitted"), Some(2));
        assert_eq!(snap.counter("serve.jobs.completed"), Some(2));
        assert_eq!(
            snap.counter("serve.formulas.checked"),
            Some(stats.formulas_checked)
        );
        assert_eq!(snap.counter("serve.cache.hits"), Some(stats.cache_hits));
        assert_eq!(snap.counter("serve.cache.misses"), Some(stats.cache_misses));
        assert_eq!(
            snap.gauge("serve.cache.structures"),
            Some(stats.cached_structures as i64)
        );
        assert_eq!(
            snap.gauge("serve.cache.abstract_states"),
            Some(stats.cached_abstract_states as i64)
        );
        // Phase histograms: one sample per job, every phase covered,
        // and per job queue wait ≤ total latency.
        for name in [
            "serve.job.queue_wait_ns",
            "serve.job.build_ns",
            "serve.job.check_ns",
            "serve.job.total_ns",
        ] {
            assert_eq!(snap.histogram(name).map(|h| h.count), Some(2), "{name}");
        }
        let queue = snap.histogram("serve.job.queue_wait_ns").unwrap();
        let total = snap.histogram("serve.job.total_ns").unwrap();
        assert!(queue.sum <= total.sum, "queue wait is part of total");
        // Cache fetch latency is filed under exactly one of hit/miss.
        let hit = snap.histogram("serve.cache.hit_ns").unwrap();
        let miss = snap.histogram("serve.cache.miss_ns").unwrap();
        assert_eq!(hit.count, stats.cache_hits);
        assert_eq!(miss.count, stats.cache_misses);
        // The workers' engines report into the same registry (2 counter
        // structures were materialized; rep builds may add more).
        assert!(snap.counter("sym.explore.builds").unwrap() >= 2);
        assert!(snap.counter("sym.explore.states").unwrap() > 0);
        // Pool gauges: sized at start, idle after the jobs drained.
        assert_eq!(snap.gauge("serve.workers.total"), Some(2));
        assert_eq!(snap.gauge("serve.queue.depth"), Some(0));
        // The snapshot's quantiles come from the same histogram the
        // registry exports — STATS, HEALTH, and METRICS must agree.
        let total_hist = snap.histogram("serve.job.total_ns").unwrap();
        assert_eq!(stats.p50_total_ns, total_hist.p50());
        assert_eq!(stats.p99_total_ns, total_hist.p99());
        assert!(stats.p50_total_ns > 0);
        assert!(stats.p50_total_ns <= stats.p99_total_ns);
        // The flight recorder publishes into the snapshot too.
        assert_eq!(snap.counter("telemetry.trace.dropped"), Some(0));
        assert!(snap.gauge("telemetry.trace.retained").unwrap() > 0);
    }

    #[test]
    fn jobs_record_a_causal_span_tree() {
        let config = small_config();
        let recorder = config.recorder.clone();
        let service = VerifyService::start(config);
        let job = VerifyJob::new(mutex_template())
            .at_size(5)
            .formula("m", parse_state("AG !crit_ge2").unwrap());
        let h = service.submit(job.clone());
        let trace = h.trace;
        h.wait().unwrap();

        let spans = recorder.spans_for(trace);
        let root = spans.iter().find(|s| s.name == "job").expect("job root");
        assert!(root.parent.is_none());
        assert!(root.attrs.iter().any(|(k, v)| k == "outcome" && v == "ok"));
        for name in ["queue_wait", "cache_lookup", "build", "check"] {
            let s = spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("no {name} span in {spans:?}"));
            assert_eq!(s.parent, Some(root.id), "{name} hangs off the job root");
            assert!(s.dur_ns <= root.dur_ns, "{name} fits inside the job");
        }
        let lookup = spans.iter().find(|s| s.name == "cache_lookup").unwrap();
        assert!(lookup
            .attrs
            .iter()
            .any(|(k, v)| k == "outcome" && v == "miss"));

        // Resubmission is served from cache: its trace has a hit
        // lookup and no build span.
        let h = service.submit(job);
        let trace = h.trace;
        h.wait().unwrap();
        let spans = recorder.spans_for(trace);
        let lookup = spans.iter().find(|s| s.name == "cache_lookup").unwrap();
        assert!(lookup
            .attrs
            .iter()
            .any(|(k, v)| k == "outcome" && v == "hit"));
        assert!(!spans.iter().any(|s| s.name == "build"));
    }

    #[test]
    fn submit_traced_joins_the_callers_trace() {
        let config = small_config();
        let recorder = config.recorder.clone();
        let service = VerifyService::start(config);
        let trace = recorder.new_trace();
        let h = service.submit_traced(
            VerifyJob::new(mutex_template())
                .at_size(3)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
            Some(trace),
        );
        assert_eq!(h.trace, trace, "the handle advertises the joined trace");
        h.wait().unwrap();
        assert!(
            recorder.spans_for(trace).iter().any(|s| s.name == "job"),
            "the job's spans landed in the caller's trace"
        );
    }

    #[test]
    fn builds_hang_phase_spans_under_the_build_span() {
        // Every width is traced alike: the counter build of a counting
        // formula and the width-1 build of an indexed one.
        let config = small_config();
        let recorder = config.recorder.clone();
        let service = VerifyService::start(config);
        for (kind, f) in [
            ("counter", "AG !crit_ge2"),
            ("representative", "forall i. AG(try[i] -> EF crit[i])"),
        ] {
            let h = service.submit(
                VerifyJob::new(mutex_template())
                    .at_size(12)
                    .formula("m", parse_state(f).unwrap()),
            );
            let trace = h.trace;
            h.wait().unwrap();
            let spans = recorder.spans_for(trace);
            let build = spans
                .iter()
                .find(|s| {
                    s.name == "build" && s.attrs.iter().any(|(k, v)| k == "kind" && v == kind)
                })
                .unwrap_or_else(|| panic!("a {kind} build span in {spans:?}"));
            let phases: Vec<&str> = spans
                .iter()
                .filter(|s| s.parent == Some(build.id))
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(
                phases,
                ["explore", "freeze"],
                "phases of a plain {kind} build"
            );
            assert!(spans
                .iter()
                .filter(|s| s.parent == Some(build.id))
                .all(|s| s.tid == build.tid));
        }
    }

    #[test]
    fn verdict_errors_feed_the_error_counter() {
        let service = VerifyService::start(small_config());
        service
            .submit(
                VerifyJob::new(mutex_template())
                    .at_size(3)
                    .formula("bogus", parse_state("AG bogus").unwrap())
                    .formula("fine", parse_state("AG !crit_ge2").unwrap()),
            )
            .wait()
            .unwrap();
        let snap = service.telemetry_snapshot();
        assert_eq!(snap.counter("serve.verdicts.errors"), Some(1));
    }

    #[test]
    fn queue_depth_counts_waiting_jobs() {
        // One worker, several queued jobs: depth must reach past zero
        // while jobs wait, and return to zero once drained.
        let service = VerifyService::start(ServeConfig {
            workers: 1,
            ..small_config()
        });
        let depth = service.telemetry().gauge("serve.queue.depth");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                service.submit(
                    VerifyJob::new(mutex_template())
                        .at_size(25)
                        .formula("m", parse_state("AG !crit_ge2").unwrap()),
                )
            })
            .collect();
        // 4 submissions, 1 worker: at the moment of the last submit at
        // least 4 - 1 jobs had been enqueued and at most one picked up.
        assert!(depth.get() >= 3);
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(depth.get(), 0);
        assert_eq!(service.telemetry().gauge("serve.workers.busy").get(), 0);
    }

    #[test]
    fn completion_notifier_announces_after_outcome_is_observable() {
        let service = VerifyService::start(small_config());
        let (tx, rx) = mpsc::channel();
        service.set_completion_notifier(tx);
        let h = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(5)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        let id = rx.recv_timeout(Duration::from_secs(60)).expect("notified");
        assert_eq!(id, h.id);
        // The contract: by notification time the outcome is observable
        // without blocking.
        assert!(h.try_wait().unwrap().is_some());
    }

    #[test]
    fn cache_dir_warm_starts_a_restarted_service() {
        let dir = std::env::temp_dir().join(format!(
            "icstar-serve-restart-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let job = || {
            VerifyJob::new(mutex_template())
                .at_size(40)
                .formula("m", parse_state("AG !crit_ge2").unwrap())
        };
        {
            let service = VerifyService::start(ServeConfig {
                cache_dir: Some(dir.clone()),
                ..small_config()
            });
            service.submit(job()).wait().unwrap();
            let snap = service.telemetry_snapshot();
            assert_eq!(snap.counter("serve.cache.spills"), Some(1));
            assert_eq!(snap.counter("serve.cache.restores"), Some(0));
        }
        // A fresh service over the same directory — the restart — serves
        // its first job by disk restore, with no exploration at all.
        let service = VerifyService::start(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..small_config()
        });
        service.submit(job()).wait().unwrap();
        let snap = service.telemetry_snapshot();
        assert_eq!(snap.counter("serve.cache.restores"), Some(1));
        assert_eq!(snap.counter("sym.explore.builds").unwrap_or(0), 0);
        assert!(snap.gauge("serve.cache.spill_files_warm").unwrap_or(0) >= 1);
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn handle_ids_match_reports() {
        let service = VerifyService::start(small_config());
        let h = service.submit(
            VerifyJob::new(mutex_template())
                .at_size(2)
                .formula("m", parse_state("AG !crit_ge2").unwrap()),
        );
        let id = h.id;
        let report = h.wait().unwrap();
        assert_eq!(report.job_id, id);
    }
}
