//! The metric registry: a named, namespaced home for counters, gauges,
//! and histograms, snapshotted as one coherent [`TelemetrySnapshot`].
//!
//! A [`Registry`] is a cheap-clone handle (`Arc` inside): components
//! receive one at construction, register the metrics they own once
//! (taking the lock), and from then on update their cached handles with
//! nothing but relaxed atomics. [`Registry::global`] gives the
//! process-wide default; services that need isolation (tests asserting
//! exact counts, multiple services in one process) construct their own
//! with [`Registry::new`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{MetricValue, TelemetrySnapshot};

/// One registered metric, by kind.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A namespaced collection of metrics. Clones share the same
/// underlying store.
///
/// Metric names are dotted paths (`serve.jobs.submitted`) restricted to
/// lowercase ASCII letters, digits, `.` and `_` — this keeps the
/// Prometheus mangling (`.` → `_`, `icstar_` prefix) unambiguous.
///
/// # Examples
///
/// ```
/// use icstar_telemetry::Registry;
///
/// let registry = Registry::new();
/// let jobs = registry.counter("serve.jobs.submitted");
/// jobs.inc();
/// // Re-registering the same name returns a handle on the same metric.
/// assert_eq!(registry.counter("serve.jobs.submitted").get(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Registry(Arc<Inner>);

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry. Library components default to this
    /// unless handed an explicit registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Whether two handles address the same underlying registry.
    pub fn same_as(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    fn validate(name: &str) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
                && !name.starts_with('.')
                && !name.ends_with('.')
                && !name.contains(".."),
            "invalid metric name {name:?}: want dotted lowercase [a-z0-9_] segments"
        );
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is malformed or already registered as another kind —
    /// both are programmer errors, caught at registration, never on the
    /// hot path.
    pub fn counter(&self, name: &str) -> Counter {
        Self::validate(name);
        let mut metrics = self.0.metrics.lock().unwrap();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::detached()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Gauge {
        Self::validate(name);
        let mut metrics = self.0.metrics.lock().unwrap();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::detached()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`].
    pub fn histogram(&self, name: &str) -> Histogram {
        Self::validate(name);
        let mut metrics = self.0.metrics.lock().unwrap();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::detached()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Adopts an existing counter handle under `name`, so components
    /// that keep detached counters (e.g. a cache built before any
    /// registry existed) can publish them later.
    ///
    /// # Panics
    ///
    /// If `name` is malformed, or already registered to a *different*
    /// counter or another kind.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        Self::validate(name);
        let mut metrics = self.0.metrics.lock().unwrap();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(counter.clone()))
        {
            Metric::Counter(existing) => assert!(
                existing.same_as(counter),
                "metric {name:?} already bound to a different counter"
            ),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// A coherent point-in-time copy of every registered metric. The
    /// registration set is frozen under the lock; the values are read
    /// with the per-metric consistency documented on
    /// [`Histogram::snapshot`](crate::Histogram::snapshot).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let metrics = self.0.metrics.lock().unwrap();
        let values = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (name.clone(), value)
            })
            .collect();
        TelemetrySnapshot { metrics: values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("a.b");
        let b = r.counter("a.b");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(a.same_as(&b));
    }

    #[test]
    fn clones_share_the_store() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("x").add(5);
        assert_eq!(r2.counter("x").get(), 5);
        assert!(r.same_as(&r2));
        assert!(!r.same_as(&Registry::new()));
    }

    #[test]
    fn fresh_registries_are_isolated() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("n").inc();
        assert_eq!(b.counter("n").get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("same.name");
        r.gauge("same.name");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_panic() {
        Registry::new().counter("Has.Capitals");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn empty_segments_panic() {
        Registry::new().counter("a..b");
    }

    #[test]
    fn adopt_counter_publishes_existing_handles() {
        let r = Registry::new();
        let c = Counter::detached();
        c.add(7);
        r.adopt_counter("pre.existing", &c);
        assert_eq!(r.counter("pre.existing").get(), 7);
        // Re-adopting the same handle is fine.
        r.adopt_counter("pre.existing", &c);
    }

    #[test]
    #[should_panic(expected = "different counter")]
    fn adopting_a_conflicting_handle_panics() {
        let r = Registry::new();
        r.counter("taken");
        r.adopt_counter("taken", &Counter::detached());
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = Registry::new();
        r.counter("c").add(2);
        r.gauge("g").set(-3);
        r.histogram("h").record(100);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(2));
        assert_eq!(snap.gauge("g"), Some(-3));
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(1));
        assert_eq!(snap.metrics.len(), 3);
        // Names come out sorted (BTreeMap) — stable exposition order.
        let names: Vec<_> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["c", "g", "h"]);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        assert!(Registry::global().same_as(Registry::global()));
    }
}
