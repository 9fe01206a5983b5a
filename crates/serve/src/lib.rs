//! Concurrent verification service over the counter-abstraction engine.
//!
//! `icstar-sym` answers one question about one family cheaply; this crate
//! makes that an always-on **service** answering many questions from many
//! callers, where repeated and overlapping questions are near-free. It is
//! the ROADMAP's "async service layer", and follows the program of Namjoshi–Trefler's *Symmetry
//! Reduction for the Local Mu-Calculus*: build one reduced structure,
//! reuse it across many local queries.
//!
//! # Architecture
//!
//! ```text
//!   callers                 VerifyService
//!   ───────                 ─────────────
//!   submit(VerifyJob) ──▶ [ job queue (mpsc) ]
//!                            │ drained by
//!                            ▼
//!                      ┌─ worker pool ─┐          ┌───────────────────┐
//!                      │ worker 0      │◀──hit────│    GraphCache     │
//!                      │ worker 1      │──miss───▶│ (workload bytes,  │
//!                      │   …           │  build   │  n, width) ↦      │
//!                      └───────┬───────┘          │  Arc<structure>   │
//!                              │                  └───────────────────┘
//!                              ▼ on miss
//!                    sequential BFS build (icstar-sym):
//!                    explore + label, then CSR freeze
//!                              │
//!                              ▼
//!   JobHandle::wait ◀── VerdictReport (one verdict per size × formula)
//! ```
//!
//! * **Queue → pool.** [`VerifyService::submit`] enqueues a [`VerifyJob`]
//!   (template + sizes + formulas) and returns a [`JobHandle`]; a fixed
//!   pool of worker threads drains the queue and sends each job's
//!   [`VerdictReport`] back through its handle. Submission never blocks
//!   on verification.
//! * **Cache.** Workers obtain materialized structures through
//!   [`GraphCache`], keyed **exactly** by [`CacheKey`]: the workload's
//!   canonical bytes ([`WorkloadKey`](icstar_sym::WorkloadKey), computed
//!   once per job), the size and the width — so independently-built but
//!   equal workloads share entries, and distinct ones never do. Entries
//!   are built exactly once (concurrent requesters block on the
//!   in-flight build, then share the [`Arc`](std::sync::Arc)); hit/miss
//!   counts are reported in [`StatsSnapshot`].
//! * **Engine.** Checking runs on [`icstar_sym::SymSession`]s seeded with
//!   the cached structures; misses materialize with the sequential BFS
//!   builder ([`icstar_sym::CounterSystem::kripke`]), whose cost stays
//!   close to bare reachability.
//! * **Persistence.** With [`ServeConfig::cache_dir`] set, the cache is
//!   backed by a [`SpillStore`]: materialized structures spill to
//!   versioned, checksummed files named by a hash of the same key, and a
//!   memory miss probes the disk before exploring — restarts and
//!   horizontally-scaled replicas warm-start instead of re-exploring
//!   (metered as `serve.cache.{spills,restores,restore_rejects}`).
//! * **Tracing.** Every job leaves a causal span tree
//!   (`job` → `queue_wait` / `cache_lookup` / `build` → `explore` /
//!   `freeze` / `fairness`, and `check`) in the service's
//!   [`FlightRecorder`](icstar_telemetry::FlightRecorder)
//!   ([`ServeConfig::recorder`], bounded ring, always on); the job's
//!   [`TraceId`](icstar_telemetry::TraceId) is on its [`JobHandle`],
//!   and [`VerifyService::submit_traced`] joins a caller-supplied
//!   trace so server spans stitch into the caller's own system.
//!
//! # Quickstart
//!
//! ```
//! use icstar_logic::parse_state;
//! use icstar_serve::{VerifyJob, VerifyService};
//! use icstar_sym::mutex_template;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = VerifyService::with_defaults();
//! let handle = service.submit(
//!     VerifyJob::new(mutex_template())
//!         .at_sizes([100, 1_000])
//!         .formula("mutex", parse_state("AG !crit_ge2")?)
//!         .formula("access", parse_state("forall i. AG(try[i] -> EF crit[i])")?),
//! );
//! let report = handle.wait()?;
//! assert!(report.all_hold());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod job;
mod service;
pub mod spill;
mod stats;

pub use cache::{CacheKey, GraphCache};
pub use job::{JobVerdict, VerdictReport, VerifyJob};
pub use service::{JobHandle, ServeConfig, ServeError, VerifyService};
pub use spill::SpillStore;
pub use stats::StatsSnapshot;
