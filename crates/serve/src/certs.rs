//! The service's certificate store: one cutoff certificate (or refusal)
//! per (workload, formula) pair.
//!
//! Certificates answer only the unbounded `all_from` form of a job: once
//! a formula's stabilization point `c` is certified
//! ([`SymEngine::certify_cutoff`]), the job's tail `n ≥ c` is reported as
//! one verdict from the stored outcome. A certificate is sampled
//! evidence, not a proof: the guard chain of the cutoff module docs
//! certifies a verdict that is wrong from `n = 9` on, so every bounded
//! size is checked directly instead, cached certificate or not. Refusals
//! are cached too:
//! re-deriving "this family does not stabilize" on every unbounded
//! request would repeat the full scan.
//!
//! Keys are exact: the [`WorkloadKey`] the [`GraphCache`](crate::GraphCache)
//! uses, plus the formula's text (formulas print and parse back
//! unchanged, so equal text is an equal formula). Structurally equal
//! workloads from different callers share certificates, and distinct
//! ones never do.

use std::collections::HashMap;
use std::sync::Mutex;

use icstar_logic::StateFormula;
use icstar_sym::{CutoffCertificate, SymEngine, WorkloadKey};

use crate::stats::ServiceStats;

/// One cached certification outcome: the certificate, or the refusal's
/// display text.
type Outcome = Result<CutoffCertificate, String>;

/// A concurrent map from (workload, formula text) to certification
/// outcomes. Certification runs *outside* the lock (it builds and
/// compares structures); on a race the first insert wins so every
/// caller sees one consistent outcome.
#[derive(Default)]
pub(crate) struct CertStore {
    slots: Mutex<HashMap<(WorkloadKey, String), Outcome>>,
}

impl CertStore {
    /// The cached outcome for this pair, if any — never certifies.
    fn cached(&self, key: &(WorkloadKey, String)) -> Option<Outcome> {
        let slots = self.slots.lock().expect("cert store poisoned");
        slots.get(key).cloned()
    }

    /// The outcome for `f` on `engine`'s workload (whose key is
    /// `workload`), certifying (outside the lock) on first request. A
    /// freshly issued certificate bumps `serve.cutoff.certified`.
    pub(crate) fn get_or_certify(
        &self,
        engine: &SymEngine,
        workload: &WorkloadKey,
        f: &StateFormula,
        stats: &ServiceStats,
    ) -> Outcome {
        let key = (workload.clone(), f.to_string());
        if let Some(outcome) = self.cached(&key) {
            return outcome;
        }
        let outcome = engine.certify_cutoff(f).map_err(|r| r.to_string());
        let mut slots = self.slots.lock().expect("cert store poisoned");
        (slots.entry(key).or_insert_with(|| {
            if outcome.is_ok() {
                stats.cutoffs_certified.inc();
            }
            outcome
        }))
        .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_logic::parse_state;
    use icstar_sym::mutex_template;
    use icstar_telemetry::Registry;

    #[test]
    fn certifies_once_and_serves_from_cache() {
        let store = CertStore::default();
        let registry = Registry::new();
        let stats = ServiceStats::register(&registry);
        let engine = SymEngine::new(mutex_template());
        let f = parse_state("AG !crit_ge2").unwrap();
        let workload = WorkloadKey::of(engine.template(), engine.spec());
        let key = (workload.clone(), f.to_string());
        assert!(store.cached(&key).is_none(), "lookup never certifies");
        let cert = store
            .get_or_certify(&engine, &workload, &f, &stats)
            .unwrap();
        assert!(cert.holds);
        assert_eq!(stats.cutoffs_certified.get(), 1);
        // Second request: same certificate, no second certification.
        let again = store
            .get_or_certify(&engine, &workload, &f, &stats)
            .unwrap();
        assert_eq!(again, cert);
        assert_eq!(stats.cutoffs_certified.get(), 1);
        assert_eq!(store.cached(&key), Some(Ok(cert)));
    }

    #[test]
    fn refusals_are_cached_and_not_counted_as_certified() {
        let store = CertStore::default();
        let registry = Registry::new();
        let stats = ServiceStats::register(&registry);
        let engine = SymEngine::new(mutex_template());
        let f = parse_state("AX idle_ge1").unwrap();
        let workload = WorkloadKey::of(engine.template(), engine.spec());
        let err = store
            .get_or_certify(&engine, &workload, &f, &stats)
            .unwrap_err();
        assert!(err.contains("fragment"));
        assert_eq!(stats.cutoffs_certified.get(), 0);
        let key = (workload, f.to_string());
        assert_eq!(store.cached(&key), Some(Err(err)));
    }
}
