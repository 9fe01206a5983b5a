//! The service's certificate store: one cutoff certificate (or refusal)
//! per (template, spec, formula) triple.
//!
//! Certificates are the service's O(1) answer path: once a formula's
//! stabilization point `c` is certified
//! ([`SymEngine::certify_cutoff`]), **every** size `n ≥ c` — including
//! the unbounded `all_from` form — is answered from the stored verdict
//! without building or checking anything. A certificate is sampled
//! evidence, not a proof: the guard chain of the cutoff module docs
//! certifies a verdict that is wrong from `n = 9` on, so these answers
//! can be wrong. Refusals are cached too:
//! re-deriving "this family does not stabilize" on every unbounded
//! request would repeat the full scan.
//!
//! Keys are the same structural fingerprints the
//! [`GraphCache`](crate::GraphCache) uses, so structurally equal
//! workloads from different callers share certificates; a fingerprint
//! collision is detected by comparing the stored triple and downgraded
//! to a miss (never a wrong answer).

use std::collections::HashMap;
use std::sync::Mutex;

use icstar_logic::StateFormula;
use icstar_sym::{CountingSpec, CutoffCertificate, GuardedTemplate, SymEngine};

use crate::stats::ServiceStats;

/// One cached certification outcome, plus the exact triple it was
/// computed for (the collision check).
struct CertSlot {
    template: GuardedTemplate,
    spec: CountingSpec,
    formula: StateFormula,
    /// The certificate, or the refusal's display text.
    outcome: Result<CutoffCertificate, String>,
}

/// A concurrent map from (template, spec, formula) fingerprints to
/// certification outcomes. Certification runs *outside* the lock (it
/// builds and compares structures); on a race the first insert wins so
/// every caller sees one consistent outcome.
#[derive(Default)]
pub(crate) struct CertStore {
    slots: Mutex<HashMap<(u64, u64, String), CertSlot>>,
}

impl CertStore {
    fn key(engine: &SymEngine, f: &StateFormula) -> (u64, u64, String) {
        (
            engine.template().fingerprint(),
            engine.spec().fingerprint(),
            f.to_string(),
        )
    }

    /// The cached outcome for this triple, if any — never certifies.
    /// The bounded-size fast path uses this: a certificate a previous
    /// (unbounded) job paid for answers `n ≥ c` for free, but a plain
    /// `sizes` job never triggers the certification scan itself.
    pub(crate) fn cached(
        &self,
        engine: &SymEngine,
        f: &StateFormula,
    ) -> Option<Result<CutoffCertificate, String>> {
        let slots = self.slots.lock().expect("cert store poisoned");
        let slot = slots.get(&Self::key(engine, f))?;
        (slot.template == *engine.template() && slot.spec == *engine.spec() && slot.formula == *f)
            .then(|| slot.outcome.clone())
    }

    /// The outcome for this triple, certifying (outside the lock) on
    /// first request. A freshly issued certificate bumps
    /// `serve.cutoff.certified`.
    pub(crate) fn get_or_certify(
        &self,
        engine: &SymEngine,
        f: &StateFormula,
        stats: &ServiceStats,
    ) -> Result<CutoffCertificate, String> {
        if let Some(outcome) = self.cached(engine, f) {
            return outcome;
        }
        let outcome = engine.certify_cutoff(f).map_err(|r| r.to_string());
        let mut slots = self.slots.lock().expect("cert store poisoned");
        let slot = slots.entry(Self::key(engine, f)).or_insert_with(|| {
            if outcome.is_ok() {
                stats.cutoffs_certified.inc();
            }
            CertSlot {
                template: engine.template().clone(),
                spec: engine.spec().clone(),
                formula: f.clone(),
                outcome: outcome.clone(),
            }
        });
        slot.outcome.clone()
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
        assert!(
            store.cached(&engine, &f).is_none(),
            "lookup never certifies"
        );
        let cert = store.get_or_certify(&engine, &f, &stats).unwrap();
        assert!(cert.holds);
        assert_eq!(stats.cutoffs_certified.get(), 1);
        // Second request: same certificate, no second certification.
        let again = store.get_or_certify(&engine, &f, &stats).unwrap();
        assert_eq!(again, cert);
        assert_eq!(stats.cutoffs_certified.get(), 1);
        assert_eq!(store.cached(&engine, &f), Some(Ok(cert)));
    }

    #[test]
    fn refusals_are_cached_and_not_counted_as_certified() {
        let store = CertStore::default();
        let registry = Registry::new();
        let stats = ServiceStats::register(&registry);
        let engine = SymEngine::new(mutex_template());
        let f = parse_state("AX idle_ge1").unwrap();
        let err = store.get_or_certify(&engine, &f, &stats).unwrap_err();
        assert!(err.contains("fragment"));
        assert_eq!(stats.cutoffs_certified.get(), 0);
        assert_eq!(store.cached(&engine, &f), Some(Err(err)));
    }
}
