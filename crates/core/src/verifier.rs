//! The high-level "verify small, conclude for large" workflow.
//!
//! This is the paper's program as an API, with two selectable backends:
//!
//! * **Explicit transfer** ([`FamilyVerifier::new`]) — model-check a
//!   *base* instance of a family of identical processes, mechanically
//!   establish the premise of the ICTL* correspondence theorem against a
//!   *target* instance, and transfer the verdicts. The target structure
//!   is only ever touched by the correspondence computation — never by
//!   the model checker.
//! * **Counter abstraction** ([`FamilyVerifier::counter_abstracted`]) —
//!   for fully symmetric, template-defined families, skip the explicit
//!   composition entirely: [`FamilyVerifier::verify_at`] checks the
//!   registered formulas directly at any size `n` on the
//!   polynomially-sized counter-abstracted structure
//!   ([`icstar_sym::SymEngine`]), and
//!   [`FamilyVerifier::cross_check_abstraction`] audits the abstraction
//!   against the explicit composition at a small size.

use std::fmt;

use icstar_bisim::{indexed_correspond, IndexRelation, IndexedViolation};
use icstar_kripke::IndexedKripke;
use icstar_logic::{check_restricted, StateFormula};
use icstar_mc::{IndexedChecker, McError};
use icstar_serve::{VerifyJob, VerifyService};
use icstar_sym::{GuardedTemplate, SymEngine, SymError};

/// Which verification strategy a [`FamilyVerifier`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyBackend {
    /// Model-check a small base instance; transfer verdicts through the
    /// Theorem 5 correspondence.
    ExplicitTransfer,
    /// Check directly at the target size on the counter-abstracted
    /// structure (fully symmetric families only).
    CounterAbstraction,
}

impl fmt::Display for FamilyBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyBackend::ExplicitTransfer => write!(f, "explicit-transfer"),
            FamilyBackend::CounterAbstraction => write!(f, "counter-abstraction"),
        }
    }
}

/// Why a family verification could not be completed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FamilyError {
    /// A formula is outside closed restricted ICTL*, so Theorem 5 does not
    /// license transferring its verdict.
    NotRestricted(String, icstar_logic::RestrictionError),
    /// Model checking failed.
    Check(McError),
    /// The correspondence premise failed: the verdicts do *not* transfer.
    NoCorrespondence(IndexedViolation),
    /// The requested operation is not supported by the verifier's backend
    /// (e.g. [`FamilyVerifier::transfer_to`] on a counter-abstracted
    /// verifier). The payload names the operation.
    BackendMismatch(&'static str),
    /// The counter-abstraction engine failed.
    Sym(SymError),
    /// The verification service lost the batch job
    /// ([`FamilyVerifier::verify_at_many`]).
    Serve(icstar_serve::ServeError),
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::NotRestricted(name, e) => {
                write!(f, "formula {name:?} is not restricted ICTL*: {e}")
            }
            FamilyError::Check(e) => write!(f, "model checking failed: {e}"),
            FamilyError::NoCorrespondence(v) => {
                write!(f, "correspondence premise failed: {v}")
            }
            FamilyError::BackendMismatch(op) => {
                write!(f, "operation {op:?} is not supported by this backend")
            }
            FamilyError::Sym(e) => write!(f, "counter abstraction failed: {e}"),
            FamilyError::Serve(e) => write!(f, "verification service failed: {e}"),
        }
    }
}

impl std::error::Error for FamilyError {}

impl From<McError> for FamilyError {
    fn from(e: McError) -> Self {
        FamilyError::Check(e)
    }
}

impl From<SymError> for FamilyError {
    fn from(e: SymError) -> Self {
        FamilyError::Sym(e)
    }
}

/// One transferred verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The formula's name.
    pub name: String,
    /// Whether it holds — on the base instance, and therefore (by
    /// Theorem 5) on the target instance.
    pub holds: bool,
    /// How many distinguished copies the counter backend's
    /// representative construction tracked for this formula — the
    /// smallest sufficient width, i.e. the quantifier nesting depth
    /// capped at the family size. `0` when the formula was answered on
    /// the plain counter structure (quantifier-free, or `n = 0`) and on
    /// the explicit-transfer backend (which never abstracts).
    pub rep_width: u32,
    /// Whether the verdict's path quantifiers ranged over *weakly fair*
    /// paths only — true exactly when the counter backend's template
    /// declares fairness constraints
    /// ([`icstar_sym::GuardedTemplate::is_fair`]). The explicit-transfer
    /// backend never applies fairness, so it always reports `false`.
    pub fair: bool,
    /// `Some(c)` when this verdict is backed by a certified cutoff
    /// ([`icstar_sym::CutoffCertificate`]) with stabilization point `c`:
    /// the same truth value holds at **every** family size `≥ c`, and no
    /// structure was built to answer it. `None` for directly-checked
    /// verdicts (every path except the final verdict of
    /// [`FamilyVerifier::verify_all_from`]).
    pub cutoff: Option<u32>,
}

impl Verdict {
    /// A verdict with no representative width and no fairness (the
    /// explicit-transfer backend, or a counting formula on an
    /// unconstrained template).
    fn plain(name: impl Into<String>, holds: bool) -> Self {
        Verdict {
            name: name.into(),
            holds,
            rep_width: 0,
            fair: false,
            cutoff: None,
        }
    }
}

/// Verifies closed restricted ICTL* formulas for a whole family of
/// identical processes, through one of two backends
/// ([`FamilyBackend`]): model-check a small *base* instance and transfer
/// the verdicts via the correspondence theorem
/// ([`FamilyVerifier::new`] / [`FamilyVerifier::transfer_to`]), or
/// counter-abstract a fully symmetric template and check directly at the
/// target size ([`FamilyVerifier::counter_abstracted`] /
/// [`FamilyVerifier::verify_at`]).
///
/// # Examples
///
/// ```
/// use icstar::{FamilyVerifier, IndexRelation};
/// use icstar_logic::parse_state;
/// use icstar_nets::ring_mutex;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let base = ring_mutex(3);
/// let target = ring_mutex(5);
///
/// let mut verifier = FamilyVerifier::new(base.structure());
/// verifier.add_formula("liveness", parse_state("forall i. AG(d[i] -> AF c[i])")?)?;
///
/// let inrel = IndexRelation::base_vs_many(3, &[1, 2, 3, 4, 5]);
/// let verdicts = verifier.transfer_to(target.structure(), &inrel)?;
/// assert!(verdicts.iter().all(|v| v.holds));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FamilyVerifier<'a> {
    backend: Backend<'a>,
    formulas: Vec<(String, StateFormula)>,
}

#[derive(Debug)]
enum Backend<'a> {
    Explicit { base: &'a IndexedKripke },
    Counter { engine: Box<SymEngine> },
}

impl<'a> FamilyVerifier<'a> {
    /// Creates an explicit-transfer verifier for the given base instance.
    pub fn new(base: &'a IndexedKripke) -> Self {
        FamilyVerifier {
            backend: Backend::Explicit { base },
            formulas: Vec::new(),
        }
    }

    /// Creates a counter-abstraction verifier for the fully symmetric
    /// family generated by `template`. Use [`FamilyVerifier::verify_at`]
    /// to check the registered formulas at any size — `n = 10,000` costs
    /// a polynomially-sized abstract structure, not `|S|^n` states.
    ///
    /// # Examples
    ///
    /// ```
    /// use icstar::FamilyVerifier;
    /// use icstar_logic::parse_state;
    /// use icstar_sym::mutex_template;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut verifier = FamilyVerifier::counter_abstracted(mutex_template());
    /// verifier.add_formula("mutex", parse_state("AG !crit_ge2")?)?;
    /// verifier.add_formula(
    ///     "access possibility",
    ///     parse_state("forall i. AG(try[i] -> EF crit[i])")?,
    /// )?;
    /// let verdicts = verifier.verify_at(10_000)?;
    /// assert!(verdicts.iter().all(|v| v.holds));
    /// # Ok(())
    /// # }
    /// ```
    pub fn counter_abstracted(template: GuardedTemplate) -> FamilyVerifier<'static> {
        FamilyVerifier {
            backend: Backend::Counter {
                engine: Box::new(SymEngine::new(template)),
            },
            formulas: Vec::new(),
        }
    }

    /// The verification strategy this verifier uses.
    pub fn backend(&self) -> FamilyBackend {
        match &self.backend {
            Backend::Explicit { .. } => FamilyBackend::ExplicitTransfer,
            Backend::Counter { .. } => FamilyBackend::CounterAbstraction,
        }
    }

    /// Registers a formula to verify.
    ///
    /// On the explicit-transfer backend it must be closed restricted
    /// ICTL* (quantifier nesting depth ≤ 1) — otherwise the
    /// correspondence theorem does not apply and the verdict would not
    /// transfer. The counter-abstraction backend is exact at the target
    /// size, so *quantifier-free* formulas over counting atoms are
    /// accepted without the restriction (even with the nexttime
    /// operator); quantified formulas must be closed **k-restricted**
    /// ICTL* ([`icstar_logic::restricted_depth`]) — quantifiers may nest
    /// to any depth `k`, and [`FamilyVerifier::verify_at`] routes each
    /// formula through the smallest sufficient representative width
    /// (`min(k, n)`, surfaced as [`Verdict::rep_width`]).
    ///
    /// # Errors
    ///
    /// Returns [`FamilyError::NotRestricted`] for formulas outside the
    /// backend's fragment (e.g. quantifiers under `U`, or — on the
    /// explicit backend — nested index quantifiers or any use of `X`).
    pub fn add_formula(
        &mut self,
        name: impl Into<String>,
        f: StateFormula,
    ) -> Result<&mut Self, FamilyError> {
        let name = name.into();
        match &self.backend {
            Backend::Explicit { .. } => {
                check_restricted(&f).map_err(|e| FamilyError::NotRestricted(name.clone(), e))?;
            }
            // Quantifier-free counting formulas transfer exactly through
            // the strong-bisimulation quotient; the engine validates
            // their atoms at verify time. Quantified ones must sit in
            // the k-restricted fragment the representative construction
            // is sound for. Fair templates additionally confine every
            // formula to the CTL fragment the checker supports under
            // fairness.
            Backend::Counter { engine } => {
                if engine.template().is_fair() {
                    icstar_logic::fair_fragment_depth(&f)
                        .map_err(|e| FamilyError::NotRestricted(name.clone(), e))?;
                } else if icstar_logic::has_index_quantifier(&f) {
                    icstar_logic::restricted_depth(&f)
                        .map_err(|e| FamilyError::NotRestricted(name.clone(), e))?;
                }
            }
        }
        self.formulas.push((name, f));
        Ok(self)
    }

    /// Model-checks all registered formulas on the base instance
    /// (explicit-transfer backend only).
    ///
    /// # Errors
    ///
    /// Propagates model-checking failures;
    /// [`FamilyError::BackendMismatch`] on a counter-abstracted verifier,
    /// which has no base instance — use [`FamilyVerifier::verify_at`].
    pub fn check_base(&self) -> Result<Vec<Verdict>, FamilyError> {
        let Backend::Explicit { base } = &self.backend else {
            return Err(FamilyError::BackendMismatch("check_base"));
        };
        let mut chk = IndexedChecker::new(base);
        self.formulas
            .iter()
            .map(|(name, f)| Ok(Verdict::plain(name.clone(), chk.holds(f)?)))
            .collect()
    }

    /// Establishes the Theorem 5 premise between the base and `target`
    /// under `inrel`, then returns the base verdicts — which, by the
    /// theorem, are also the target's verdicts.
    ///
    /// # Errors
    ///
    /// Returns [`FamilyError::NoCorrespondence`] if some reduction pair
    /// fails to correspond (in which case nothing transfers), a model
    /// checking error from the base run, or
    /// [`FamilyError::BackendMismatch`] on a counter-abstracted verifier.
    pub fn transfer_to(
        &self,
        target: &IndexedKripke,
        inrel: &IndexRelation,
    ) -> Result<Vec<Verdict>, FamilyError> {
        let Backend::Explicit { base } = &self.backend else {
            return Err(FamilyError::BackendMismatch("transfer_to"));
        };
        indexed_correspond(base, target, inrel).map_err(FamilyError::NoCorrespondence)?;
        self.check_base()
    }

    /// Checks all registered formulas directly at family size `n` on the
    /// counter-abstracted structure (counter-abstraction backend only).
    ///
    /// # Errors
    ///
    /// Propagates engine failures ([`FamilyError::Sym`]);
    /// [`FamilyError::BackendMismatch`] on an explicit-transfer verifier,
    /// which verifies through [`FamilyVerifier::transfer_to`] instead.
    pub fn verify_at(&self, n: u32) -> Result<Vec<Verdict>, FamilyError> {
        let Backend::Counter { engine } = &self.backend else {
            return Err(FamilyError::BackendMismatch("verify_at"));
        };
        // One session: the counter structure and one representative
        // structure per required width are materialized at most once
        // each, shared by all formulas.
        let mut session = engine.session(n);
        self.formulas
            .iter()
            .map(|(name, f)| {
                let run = session.check_described(f)?;
                Ok(Verdict {
                    name: name.clone(),
                    holds: run.holds,
                    rep_width: run.rep_width,
                    fair: run.fair,
                    cutoff: None,
                })
            })
            .collect()
    }

    /// Checks all registered formulas at *several* family sizes through a
    /// shared [`VerifyService`] (counter-abstraction backend only),
    /// returning one verdict list per requested size, in order.
    ///
    /// Unlike looping over [`FamilyVerifier::verify_at`], the batch goes
    /// through the service's memoized structure cache: sizes this service
    /// has seen before — from *any* caller with a structurally equal
    /// template and spec — reuse their materialized counter graphs, and
    /// fresh sizes are built once.
    ///
    /// # Examples
    ///
    /// ```
    /// use icstar::FamilyVerifier;
    /// use icstar_logic::parse_state;
    /// use icstar_serve::VerifyService;
    /// use icstar_sym::mutex_template;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = VerifyService::with_defaults();
    /// let mut verifier = FamilyVerifier::counter_abstracted(mutex_template());
    /// verifier.add_formula("mutex", parse_state("AG !crit_ge2")?)?;
    /// let per_size = verifier.verify_at_many(&service, &[10, 100, 1_000])?;
    /// assert_eq!(per_size.len(), 3);
    /// assert!(per_size.iter().all(|(_, vs)| vs.iter().all(|v| v.holds)));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`FamilyError::BackendMismatch`] on an explicit-transfer verifier;
    /// [`FamilyError::Serve`] if the service lost the job;
    /// [`FamilyError::Sym`] if any formula could not be checked.
    pub fn verify_at_many(
        &self,
        service: &VerifyService,
        sizes: &[u32],
    ) -> Result<Vec<(u32, Vec<Verdict>)>, FamilyError> {
        let Backend::Counter { engine } = &self.backend else {
            return Err(FamilyError::BackendMismatch("verify_at_many"));
        };
        if self.formulas.is_empty() {
            return Ok(sizes.iter().map(|&n| (n, Vec::new())).collect());
        }
        let job = VerifyJob {
            template: engine.template().clone(),
            spec: Some(engine.spec().clone()),
            sizes: sizes.to_vec(),
            all_from: None,
            formulas: self.formulas.clone(),
        };
        let report = service.submit(job).wait().map_err(FamilyError::Serve)?;
        // Verdicts arrive size-major, one block of formulas per size.
        debug_assert_eq!(report.verdicts.len(), sizes.len() * self.formulas.len());
        report
            .verdicts
            .chunks(self.formulas.len())
            .zip(sizes)
            .map(|(chunk, &n)| {
                let verdicts = chunk
                    .iter()
                    .map(|v| match &v.result {
                        Ok(holds) => Ok(Verdict {
                            name: v.name.clone(),
                            holds: *holds,
                            rep_width: v.rep_width,
                            fair: v.fair,
                            cutoff: v.cutoff,
                        }),
                        Err(e) => Err(FamilyError::Sym(e.clone())),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((n, verdicts))
            })
            .collect()
    }

    /// Answers every registered formula at **every** family size
    /// `n ≥ lo` through a shared [`VerifyService`] (counter-abstraction
    /// backend only) — finitely many verdicts covering an infinite set
    /// of sizes.
    ///
    /// The service certifies a stabilization point `c` per formula (see
    /// [`icstar_sym::SymEngine::certify_cutoff`]), checks the sizes
    /// `lo ≤ n < c` directly, and reports one certificate-backed verdict
    /// at `max(lo, c)` whose [`Verdict::cutoff`] is `Some(c)` — that
    /// verdict is the answer for every larger size, obtained without
    /// building a single structure. Verdicts come back flat as
    /// `(n, verdict)` pairs, formula-major.
    ///
    /// # Examples
    ///
    /// ```
    /// use icstar::FamilyVerifier;
    /// use icstar_logic::parse_state;
    /// use icstar_serve::VerifyService;
    /// use icstar_sym::mutex_template;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let service = VerifyService::with_defaults();
    /// let mut verifier = FamilyVerifier::counter_abstracted(mutex_template());
    /// verifier.add_formula("mutex", parse_state("AG !crit_ge2")?)?;
    /// let verdicts = verifier.verify_all_from(&service, 1)?;
    /// // Every size n ≥ 1 is covered; the last verdict carries the cutoff.
    /// assert!(verdicts.iter().all(|(_, v)| v.holds));
    /// assert!(verdicts.last().unwrap().1.cutoff.is_some());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`FamilyError::BackendMismatch`] on an explicit-transfer verifier;
    /// [`FamilyError::Serve`] if the service lost the job;
    /// [`FamilyError::Sym`] if a formula could not be checked — including
    /// [`SymError::CutoffRefused`] when no cutoff could be certified
    /// (fairness, formulas outside the cutoff fragment, or a family that
    /// does not stabilize within the scan horizon).
    pub fn verify_all_from(
        &self,
        service: &VerifyService,
        lo: u32,
    ) -> Result<Vec<(u32, Verdict)>, FamilyError> {
        let Backend::Counter { engine } = &self.backend else {
            return Err(FamilyError::BackendMismatch("verify_all_from"));
        };
        let job = VerifyJob {
            template: engine.template().clone(),
            spec: Some(engine.spec().clone()),
            sizes: Vec::new(),
            all_from: Some(lo),
            formulas: self.formulas.clone(),
        };
        let report = service.submit(job).wait().map_err(FamilyError::Serve)?;
        report
            .verdicts
            .into_iter()
            .map(|v| match v.result {
                Ok(holds) => Ok((
                    v.n,
                    Verdict {
                        name: v.name,
                        holds,
                        rep_width: v.rep_width,
                        fair: v.fair,
                        cutoff: v.cutoff,
                    },
                )),
                Err(e) => Err(FamilyError::Sym(e)),
            })
            .collect()
    }

    /// Audits the counter abstraction against the explicit composition at
    /// a small, explicitly-buildable size (counter-abstraction backend
    /// only). See [`icstar_sym::verify_counter_abstraction`].
    ///
    /// # Errors
    ///
    /// [`FamilyError::Sym`] on an abstraction mismatch (an engine bug);
    /// [`FamilyError::BackendMismatch`] on an explicit-transfer verifier.
    pub fn cross_check_abstraction(&self, n: u32) -> Result<(), FamilyError> {
        let Backend::Counter { engine } = &self.backend else {
            return Err(FamilyError::BackendMismatch("cross_check_abstraction"));
        };
        Ok(engine.cross_check(n)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_logic::parse_state;
    use icstar_nets::{buggy_ring, ring_mutex, Mutation};

    #[test]
    fn transfers_ring_properties() {
        let base = ring_mutex(3);
        let target = ring_mutex(4);
        let mut v = FamilyVerifier::new(base.structure());
        for f in icstar_nets::ring_properties() {
            v.add_formula(f.name, f.formula.clone()).unwrap();
        }
        let inrel = IndexRelation::base_vs_many(3, &[1, 2, 3, 4]);
        let verdicts = v.transfer_to(target.structure(), &inrel).unwrap();
        assert_eq!(verdicts.len(), 4);
        assert!(verdicts.iter().all(|v| v.holds));
    }

    #[test]
    fn rejects_unrestricted_formulas() {
        let base = ring_mutex(2);
        let mut v = FamilyVerifier::new(base.structure());
        let err = v
            .add_formula("count", icstar_nets::counting_formula(2))
            .unwrap_err();
        assert!(matches!(err, FamilyError::NotRestricted(..)));
    }

    #[test]
    fn refuses_transfer_without_correspondence() {
        // ring-2 base against ring-4 target: the paper's broken base case.
        let base = ring_mutex(2);
        let target = ring_mutex(4);
        let mut v = FamilyVerifier::new(base.structure());
        v.add_formula("p2", parse_state("forall i. AG(c[i] -> t[i])").unwrap())
            .unwrap();
        let inrel = IndexRelation::two_vs_many(&[1, 2, 3, 4]);
        let err = v.transfer_to(target.structure(), &inrel).unwrap_err();
        assert!(matches!(err, FamilyError::NoCorrespondence(_)));
    }

    #[test]
    fn refuses_transfer_to_mutant() {
        let base = ring_mutex(3);
        let target = buggy_ring(4, Mutation::TokenLoss);
        let mut v = FamilyVerifier::new(base.structure());
        v.add_formula("p4", parse_state("forall i. AG(d[i] -> AF c[i])").unwrap())
            .unwrap();
        let inrel = IndexRelation::base_vs_many(3, &[1, 2, 3, 4]);
        let err = v.transfer_to(&target, &inrel).unwrap_err();
        assert!(matches!(err, FamilyError::NoCorrespondence(_)));
    }

    #[test]
    fn base_check_without_transfer() {
        let base = ring_mutex(2);
        let mut v = FamilyVerifier::new(base.structure());
        v.add_formula("p2", parse_state("forall i. AG(c[i] -> t[i])").unwrap())
            .unwrap();
        let verdicts = v.check_base().unwrap();
        assert_eq!(
            verdicts,
            vec![Verdict {
                name: "p2".into(),
                holds: true,
                rep_width: 0,
                fair: false,
                cutoff: None,
            }]
        );
    }

    #[test]
    fn counter_backend_routes_nested_formulas_to_width_two() {
        // The explicit backend rejects nesting (Theorem 5's fragment)...
        let base = ring_mutex(2);
        let mut explicit = FamilyVerifier::new(base.structure());
        let nested = parse_state("forall i. exists j. AG(c[i] -> !c[j])").unwrap();
        let err = explicit.add_formula("pairs", nested.clone()).unwrap_err();
        assert!(matches!(
            err,
            FamilyError::NotRestricted(_, icstar_logic::RestrictionError::NestedQuantifier)
        ));

        // ...while the counter backend accepts it and reports the width
        // it tracked.
        let mut v = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        v.add_formula(
            "pairs",
            parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap(),
        )
        .unwrap();
        v.add_formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .unwrap();
        for n in [2u32, 10, 200] {
            let verdicts = v.verify_at(n).unwrap();
            assert_eq!(verdicts[0].rep_width, 2, "n = {n}");
            assert!(verdicts[0].holds, "n = {n}");
            assert_eq!(verdicts[1].rep_width, 0, "n = {n}");
            assert!(verdicts[1].holds, "n = {n}");
        }
        // Quantifiers under until-like operators stay out, even nested.
        let err = v
            .add_formula(
                "bad",
                parse_state("forall i. EF (exists j. crit[j])").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, FamilyError::NotRestricted(..)));
    }

    #[test]
    fn error_display() {
        let e = FamilyError::Check(McError::FreeIndexVariable("i".into()));
        assert!(e.to_string().contains("model checking failed"));
        assert!(FamilyError::BackendMismatch("verify_at")
            .to_string()
            .contains("verify_at"));
        assert!(FamilyError::Sym(icstar_sym::SymError::EmptyFamily)
            .to_string()
            .contains("counter abstraction"));
        assert!(FamilyError::Serve(icstar_serve::ServeError::JobLost)
            .to_string()
            .contains("service"));
    }

    #[test]
    fn counter_backend_accepts_nexttime_counting_formulas() {
        // The abstraction is exact, so X is sound for quantifier-free
        // counting formulas — the counter backend must not reject it.
        let mut v = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        v.add_formula("first move", parse_state("AX try_ge1").unwrap())
            .unwrap();
        let verdicts = v.verify_at(100).unwrap();
        assert!(verdicts[0].holds);
        // Quantified formulas still need the restriction...
        let err = v
            .add_formula("bad", parse_state("AG (exists i. crit[i])").unwrap())
            .unwrap_err();
        assert!(matches!(err, FamilyError::NotRestricted(..)));
        // ...and the explicit backend keeps rejecting X outright.
        let base = ring_mutex(2);
        let mut e = FamilyVerifier::new(base.structure());
        let err = e
            .add_formula("x", parse_state("AX t[1]").unwrap())
            .unwrap_err();
        assert!(matches!(err, FamilyError::NotRestricted(..)));
    }

    #[test]
    fn counter_backend_verifies_at_scale() {
        let mut v = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        v.add_formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .unwrap();
        v.add_formula(
            "access possibility",
            parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
        )
        .unwrap();
        assert_eq!(v.backend(), FamilyBackend::CounterAbstraction);
        v.cross_check_abstraction(3).unwrap();
        for n in [1u32, 4, 100] {
            let verdicts = v.verify_at(n).unwrap();
            assert_eq!(verdicts.len(), 2);
            assert!(verdicts.iter().all(|vd| vd.holds), "n = {n}");
        }
    }

    #[test]
    fn counter_backend_applies_template_fairness() {
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
        let mut v = FamilyVerifier::counter_abstracted(stutter(true));
        v.add_formula("drain", parse_state("AF idle_eq0").unwrap())
            .unwrap();
        v.add_formula("each exits", parse_state("forall i. AF done[i]").unwrap())
            .unwrap();
        for n in [1u32, 5, 100] {
            let verdicts = v.verify_at(n).unwrap();
            assert!(verdicts.iter().all(|vd| vd.holds && vd.fair), "n = {n}");
        }
        // The batch path carries the flag through the service too.
        let service = VerifyService::with_defaults();
        let per_size = v.verify_at_many(&service, &[3, 20]).unwrap();
        for (n, verdicts) in &per_size {
            assert!(verdicts.iter().all(|vd| vd.holds && vd.fair), "n = {n}");
            assert_eq!(verdicts, &v.verify_at(*n).unwrap());
        }
        // The unconstrained twin fails the same liveness (runs may
        // stutter in idle forever) and reports fair: false.
        let mut plain = FamilyVerifier::counter_abstracted(stutter(false));
        plain
            .add_formula("drain", parse_state("AF idle_eq0").unwrap())
            .unwrap();
        let verdicts = plain.verify_at(5).unwrap();
        assert!(!verdicts[0].holds);
        assert!(!verdicts[0].fair);
        // Fair templates confine formulas to the CTL fragment the
        // checker supports under fairness, rejected at registration time.
        let err = v
            .add_formula("nonctl", parse_state("A(F idle_eq0 & F done_ge1)").unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            FamilyError::NotRestricted(_, icstar_logic::RestrictionError::NotCtl)
        ));
    }

    #[test]
    fn verify_at_many_batches_through_the_service() {
        let service = VerifyService::with_defaults();
        let mut v = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        v.add_formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .unwrap();
        v.add_formula(
            "access possibility",
            parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap(),
        )
        .unwrap();
        let sizes = [1u32, 4, 50];
        let per_size = v.verify_at_many(&service, &sizes).unwrap();
        assert_eq!(per_size.len(), 3);
        for (i, (n, verdicts)) in per_size.iter().enumerate() {
            assert_eq!(*n, sizes[i]);
            assert_eq!(verdicts.len(), 2);
            assert!(verdicts.iter().all(|v| v.holds), "n = {n}");
            // Batch verdicts agree with the one-shot path.
            assert_eq!(verdicts, &v.verify_at(*n).unwrap());
        }
        // A repeated batch is served from the cache.
        v.verify_at_many(&service, &sizes).unwrap();
        assert!(service.stats().cache_hits > 0);

        // Explicit-transfer verifiers have no batch path.
        let base = ring_mutex(2);
        let explicit = FamilyVerifier::new(base.structure());
        assert_eq!(
            explicit.verify_at_many(&service, &[3]).unwrap_err(),
            FamilyError::BackendMismatch("verify_at_many")
        );
    }

    #[test]
    fn verify_all_from_covers_every_size_with_one_cutoff_verdict() {
        let service = VerifyService::with_defaults();
        let mut v = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        v.add_formula("mutex", parse_state("AG !crit_ge2").unwrap())
            .unwrap();
        let verdicts = v.verify_all_from(&service, 1).unwrap();
        // Direct verdicts below the cutoff, then exactly one certified row.
        let (last_n, last) = verdicts.last().unwrap();
        let c = last.cutoff.expect("final verdict is certificate-backed");
        assert_eq!(*last_n, c.max(1));
        assert!(verdicts.iter().all(|(_, vd)| vd.holds));
        assert!(verdicts[..verdicts.len() - 1]
            .iter()
            .all(|(n, vd)| vd.cutoff.is_none() && *n < c));
        // Certified verdicts agree with direct checks at sizes beyond c.
        for n in [c, c + 7, 500] {
            let direct = v.verify_at(n).unwrap();
            assert_eq!(direct[0].holds, last.holds, "n = {n}");
        }
        // Certificates pay once: the second request is a pure cache hit.
        let before = service.stats().cutoffs_certified;
        let again = v.verify_all_from(&service, 1).unwrap();
        assert_eq!(again, verdicts);
        assert_eq!(service.stats().cutoffs_certified, before);
        assert!(service.stats().cutoff_answers >= 2);

        // Refusals surface as CutoffRefused, not silent wrong answers.
        let mut x = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        x.add_formula("next", parse_state("AX try_ge1").unwrap())
            .unwrap();
        assert!(matches!(
            x.verify_all_from(&service, 1).unwrap_err(),
            FamilyError::Sym(SymError::CutoffRefused(_))
        ));

        // Explicit-transfer verifiers have no unbounded path.
        let base = ring_mutex(2);
        let explicit = FamilyVerifier::new(base.structure());
        assert_eq!(
            explicit.verify_all_from(&service, 1).unwrap_err(),
            FamilyError::BackendMismatch("verify_all_from")
        );
    }

    #[test]
    fn verify_at_many_without_formulas_is_empty_per_size() {
        let service = VerifyService::with_defaults();
        let v = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        let per_size = v.verify_at_many(&service, &[2, 9]).unwrap();
        assert_eq!(per_size, vec![(2, Vec::new()), (9, Vec::new())]);
    }

    #[test]
    fn verify_at_many_surfaces_check_errors() {
        let service = VerifyService::with_defaults();
        let mut v = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        v.add_formula("bogus", parse_state("AG bogus_ge1").unwrap())
            .unwrap();
        assert!(matches!(
            v.verify_at_many(&service, &[3]).unwrap_err(),
            FamilyError::Sym(SymError::UnknownAtom(_))
        ));
    }

    #[test]
    fn backends_reject_foreign_operations() {
        let base = ring_mutex(2);
        let explicit = FamilyVerifier::new(base.structure());
        assert_eq!(explicit.backend(), FamilyBackend::ExplicitTransfer);
        assert_eq!(
            explicit.verify_at(5).unwrap_err(),
            FamilyError::BackendMismatch("verify_at")
        );
        assert_eq!(
            explicit.cross_check_abstraction(2).unwrap_err(),
            FamilyError::BackendMismatch("cross_check_abstraction")
        );

        let counter = FamilyVerifier::counter_abstracted(icstar_sym::mutex_template());
        assert_eq!(
            counter.check_base().unwrap_err(),
            FamilyError::BackendMismatch("check_base")
        );
        let target = ring_mutex(3);
        let inrel = IndexRelation::two_vs_many(&[1, 2, 3]);
        assert_eq!(
            counter.transfer_to(target.structure(), &inrel).unwrap_err(),
            FamilyError::BackendMismatch("transfer_to")
        );
    }
}
