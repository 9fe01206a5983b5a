//! Property tests: a [`TelemetrySnapshot`] survives the Prometheus
//! text exposition value-for-value (modulo name mangling), and
//! histogram quantiles bracket the true order statistics. Seeds drive
//! `StdRng` through the vendored proptest shim, the same idiom as the
//! wire round-trip suite.

use icstar_telemetry::{
    wire_name, HistogramSnapshot, MetricValue, Registry, TelemetrySnapshot, BUCKETS,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A random snapshot: up to 12 metrics with random kinds, values, and
/// dotted names. Built through a real [`Registry`] so the shape is
/// exactly what production snapshots look like.
fn random_snapshot(rng: &mut StdRng) -> TelemetrySnapshot {
    let registry = Registry::new();
    let names = [
        "sym.explore.states",
        "sym.explore.dedup",
        "serve.jobs.submitted",
        "serve.queue.depth",
        "serve.workers.busy",
        "serve.job.total_ns",
        "serve.job.queue_wait_ns",
        "serve.cache.hit_ns",
        "wire.cmd.submit",
        "wire.bytes_in",
        "wire.conn.lifetime_ns",
        "wire.rtt_ns",
    ];
    let count = rng.random_range(0usize..names.len() + 1);
    for name in names.into_iter().take(count) {
        match rng.random_range(0u32..3) {
            0 => registry.counter(name).add(rng.random_range(0u64..u64::MAX)),
            1 => registry
                .gauge(name)
                .set(rng.random_range(i64::MIN..i64::MAX)),
            _ => {
                let h = registry.histogram(name);
                for _ in 0..rng.random_range(0usize..40) {
                    // Bias across the full bucket range, extremes included.
                    let bits = rng.random_range(0u32..64);
                    let v = if bits == 0 {
                        0
                    } else {
                        (1u64 << (bits - 1)) | (rng.next_u64() >> (64 - bits))
                    };
                    h.record(v);
                }
            }
        }
    }
    registry.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn prometheus_round_trips_values(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let snap = random_snapshot(&mut rng);
        let text = snap.to_prometheus();
        let parsed = TelemetrySnapshot::parse_prometheus(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(parsed.metrics.len(), snap.metrics.len());
        for (name, value) in &snap.metrics {
            let wire = wire_name(name);
            match value {
                MetricValue::Counter(v) => prop_assert_eq!(parsed.counter(&wire), Some(*v)),
                MetricValue::Gauge(v) => prop_assert_eq!(parsed.gauge(&wire), Some(*v)),
                MetricValue::Histogram(h) => {
                    prop_assert_eq!(parsed.histogram(&wire), Some(h.as_ref()), "{}", name);
                }
            }
        }
    }

    #[test]
    fn quantiles_bound_true_order_statistics(seed in 0u64..u64::MAX) {
        // For arbitrary sub-saturation samples the estimate brackets the
        // truth: truth <= quantile(q) < 2 * truth (0 handled exactly).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values: Vec<u64> = (0..rng.random_range(1usize..200))
            .map(|_| {
                let bits = rng.random_range(0u32..63);
                if bits == 0 { 0 } else { (1u64 << (bits - 1)) | (rng.next_u64() >> (64 - bits)) }
            })
            .collect();
        let h = icstar_telemetry::Histogram::detached();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let est = snap.quantile(q);
            prop_assert!(est >= truth, "q={} est {} < truth {}", q, est, truth);
            if truth > 0 {
                prop_assert!(est < truth.saturating_mul(2), "q={} est {} >= 2x{}", q, est, truth);
            } else {
                prop_assert_eq!(est, 0);
            }
        }
    }
}

#[test]
fn full_buckets_survive() {
    // Every bucket occupied at once — the densest possible histogram.
    let mut h = HistogramSnapshot::default();
    for i in 0..BUCKETS {
        h.buckets[i] = (i as u64 + 1) * 3;
    }
    h.count = h.bucket_total();
    h.sum = u64::MAX;
    let snap = TelemetrySnapshot {
        metrics: vec![("dense".into(), MetricValue::Histogram(Box::new(h)))],
    };
    let parsed = TelemetrySnapshot::parse_prometheus(&snap.to_prometheus()).unwrap();
    assert_eq!(
        parsed.histogram("icstar_dense"),
        snap.histogram("dense"),
        "all 64 buckets reconstruct from the cumulative series"
    );
}
