//! Service-level metrics and their legacy snapshot form.
//!
//! Since the telemetry refactor there is **one source of truth**: every
//! service counter is a handle into the service's
//! [`Registry`](icstar_telemetry::Registry) (see
//! [`ServeConfig::telemetry`](crate::ServeConfig)). The flat
//! [`StatsSnapshot`] — the `STATS` wire command's payload — is derived
//! from those same handles, so its key set and semantics are unchanged
//! from before the refactor and old clients keep working.

use icstar_telemetry::{Counter, Gauge, Histogram, Registry};

/// The service's registered metric handles, one per worker-visible
/// signal. Registered once at service start; every update afterwards is
/// a relaxed atomic on a cached handle.
#[derive(Clone, Debug)]
pub(crate) struct ServiceStats {
    /// `serve.jobs.submitted` — jobs accepted into the queue.
    pub(crate) jobs_submitted: Counter,
    /// `serve.jobs.completed` — jobs fully processed.
    pub(crate) jobs_completed: Counter,
    /// `serve.formulas.checked` — individual `(formula, size)` checks.
    pub(crate) formulas_checked: Counter,
    /// `serve.verdicts.errors` — checks whose verdict was an error
    /// (unknown atom, unrestricted formula, failed build). The `HEALTH`
    /// wire command's error count.
    pub(crate) verdict_errors: Counter,
    /// `serve.cutoff.certified` — cutoff certificates issued (one per
    /// distinct (template, spec, formula) triple; refusals not counted).
    pub(crate) cutoffs_certified: Counter,
    /// `serve.cutoff.hits` — unbounded-tail verdicts answered from a
    /// certificate instead of building and checking a structure.
    pub(crate) cutoff_answers: Counter,
    /// `serve.queue.depth` — jobs submitted but not yet picked up.
    pub(crate) queue_depth: Gauge,
    /// `serve.workers.busy` — workers currently processing a job.
    pub(crate) workers_busy: Gauge,
    /// `serve.workers.total` — the pool size (set once at start).
    pub(crate) workers_total: Gauge,
    /// `serve.job.queue_wait_ns` — submission to worker pickup.
    pub(crate) queue_wait_ns: Histogram,
    /// `serve.job.build_ns` — per job: total structure acquisition
    /// (cache fetches, including any materialization they triggered).
    pub(crate) build_ns: Histogram,
    /// `serve.job.check_ns` — per job: total model-checking time.
    pub(crate) check_ns: Histogram,
    /// `serve.job.total_ns` — submission to report (≥ queue_wait).
    pub(crate) total_ns: Histogram,
    /// `serve.cache.hit_ns` — latency of cache fetches answered from an
    /// existing or in-flight slot (an in-flight hit waits for the
    /// builder, so the tail here is honest contention, not lookup cost).
    pub(crate) cache_hit_ns: Histogram,
    /// `serve.cache.miss_ns` — latency of fetches that materialized.
    pub(crate) cache_miss_ns: Histogram,
}

impl ServiceStats {
    /// Registers every service metric in `registry` and returns the
    /// handle bundle the workers update.
    pub(crate) fn register(registry: &Registry) -> Self {
        ServiceStats {
            jobs_submitted: registry.counter("serve.jobs.submitted"),
            jobs_completed: registry.counter("serve.jobs.completed"),
            formulas_checked: registry.counter("serve.formulas.checked"),
            verdict_errors: registry.counter("serve.verdicts.errors"),
            cutoffs_certified: registry.counter("serve.cutoff.certified"),
            cutoff_answers: registry.counter("serve.cutoff.hits"),
            queue_depth: registry.gauge("serve.queue.depth"),
            workers_busy: registry.gauge("serve.workers.busy"),
            workers_total: registry.gauge("serve.workers.total"),
            queue_wait_ns: registry.histogram("serve.job.queue_wait_ns"),
            build_ns: registry.histogram("serve.job.build_ns"),
            check_ns: registry.histogram("serve.job.check_ns"),
            total_ns: registry.histogram("serve.job.total_ns"),
            cache_hit_ns: registry.histogram("serve.cache.hit_ns"),
            cache_miss_ns: registry.histogram("serve.cache.miss_ns"),
        }
    }
}

/// A point-in-time view of the service, from
/// [`VerifyService::stats`](crate::VerifyService::stats).
/// `Default` is all-zero — the snapshot of a service that has done
/// nothing yet (wire clients also rely on it: `STATS` keys missing
/// from an older server's answer read as zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted into the queue so far.
    pub jobs_submitted: u64,
    /// Jobs fully processed (their report sent) so far.
    pub jobs_completed: u64,
    /// Individual `(formula, size)` checks performed.
    pub formulas_checked: u64,
    /// Structure requests answered from an existing or in-flight cache
    /// slot.
    pub cache_hits: u64,
    /// Structure requests that had to materialize.
    pub cache_misses: u64,
    /// Structures currently held by the cache.
    pub cached_structures: u64,
    /// Total abstract states across all materialized cached structures —
    /// the cache's memory-shaped weight, for tuning an eviction budget.
    pub cached_abstract_states: u64,
    /// Cache entries evicted to fit the abstract-state budget
    /// ([`ServeConfig::cache_budget_states`](crate::ServeConfig)); zero
    /// on an unbounded cache.
    pub cache_evictions: u64,
    /// Total abstract states carried by evicted entries — together with
    /// `cache_evictions`, the pressure signal for tuning the budget.
    pub evicted_abstract_states: u64,
    /// Cutoff certificates issued so far (one per distinct (template,
    /// spec, formula) triple; refusals are not counted).
    pub cutoffs_certified: u64,
    /// Unbounded-tail verdicts answered from a cutoff certificate —
    /// each one a skipped structure build and model-checking run.
    pub cutoff_answers: u64,
    /// Estimated median of `serve.job.total_ns` — derived from the same
    /// histogram atomics the `METRICS` exposition and the `HEALTH`
    /// command read, via
    /// [`HistogramSnapshot::p50`](icstar_telemetry::HistogramSnapshot::p50)
    /// (log₂ buckets: within 2× of the true order statistic). Zero
    /// before any job completes.
    pub p50_total_ns: u64,
    /// Estimated 99th percentile of `serve.job.total_ns`; same
    /// derivation and accuracy as `p50_total_ns`.
    pub p99_total_ns: u64,
}

impl StatsSnapshot {
    /// Cache hits as a fraction of all structure requests (`0.0` before
    /// any request).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_total_safe() {
        let mut s = StatsSnapshot::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn registration_is_idempotent_per_registry() {
        let registry = Registry::new();
        let a = ServiceStats::register(&registry);
        let b = ServiceStats::register(&registry);
        a.jobs_submitted.inc();
        assert_eq!(b.jobs_submitted.get(), 1, "same underlying counters");
    }
}
