//! Dependency-free observability core for the icstar verification
//! stack: monotonic [`Counter`]s, signed [`Gauge`]s, log₂-bucketed
//! latency [`Histogram`]s, and a namespaced [`Registry`] that freezes
//! everything into one coherent [`TelemetrySnapshot`].
//!
//! Design constraints, in order:
//!
//! 1. **Lock-light hot paths.** Registration takes a mutex once;
//!    every update after that is a relaxed atomic on a cached handle.
//!    Exploration loops at `n = 10⁶` record millions of events — they
//!    must never contend.
//! 2. **No dependencies.** Like the rest of the workspace, the crate
//!    is `std`-only: Prometheus exposition and the Chrome trace JSON
//!    are hand-rolled plain text.
//! 3. **Bounded error.** The histograms trade precision for a fixed
//!    64-bucket footprint: any quantile estimate is within a factor
//!    of 2 of the truth, which is enough to see a regression without
//!    enough to argue about.
//!
//! A snapshot has one wire form, Prometheus text, which the `METRICS`
//! wire command serves ([`TelemetrySnapshot::to_prometheus`] /
//! [`TelemetrySnapshot::parse_prometheus`]). A region is timed into a
//! histogram with an [`Instant`](std::time::Instant) and
//! [`Histogram::record_duration`].
//!
//! On top of the aggregates sits per-job **causal tracing**: the
//! [`FlightRecorder`] ring buffer retains recent [`SpanEvent`]s keyed
//! by [`TraceId`], [`TraceScope`] guards nest through a thread-local
//! stack, and [`to_chrome_trace`] / [`parse_chrome_trace`] round-trip
//! the Chrome Trace Event Format the wire `TRACE` command serves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod snapshot;
mod trace;

pub use metrics::{
    bucket_bound, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS,
};
pub use registry::Registry;
pub use snapshot::{wire_name, MetricValue, TelemetrySnapshot};
pub use trace::{
    current_context, parse_chrome_trace, to_chrome_trace, to_text_tree, FlightRecorder,
    SpanContext, SpanEvent, SpanId, TraceId, TraceScope, DEFAULT_TRACE_CAPACITY,
};
