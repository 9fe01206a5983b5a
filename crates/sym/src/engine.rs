//! The high-level counter-abstraction checking engine.
//!
//! [`SymEngine`] bundles a [`GuardedTemplate`] with a [`CountingSpec`] and
//! answers queries at any family size `n` without ever building the
//! `|Q|^n`-state explicit composition:
//!
//! * **counting formulas** — plain CTL* over counting atoms
//!   (`crit_ge2`, `try_eq0`, `one(crit)`, …) are checked on the
//!   materialized counter graph; the abstraction is exact, so even the
//!   nexttime operator is allowed here;
//! * **indexed formulas** — closed *k-restricted* ICTL* with (possibly
//!   nested) quantifiers `forall i.`/`exists j.` is checked on the
//!   multi-representative structure whose width `k` is the formula's
//!   quantifier nesting depth, capped at `n` ([`required_rep_width`]);
//!   see [`crate::rep`] for why the restriction is the soundness
//!   boundary.
//!
//! One entry point serves both: [`SymSession::check_described`] routes
//! the formula and reports the chosen width ([`CheckRun`]);
//! [`SymEngine::check`] and [`SymSession::check`] return its verdict.
//!
//! [`SymEngine::cross_check`] runs the bisimulation oracle of
//! [`crate::crosscheck`] at a small `n`, mechanically auditing the
//! abstraction for the given template.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use icstar_kripke::Atom;
use icstar_logic::{
    expand_representatives, fair_fragment_depth, has_index_quantifier, restricted_depth,
    PathFormula, StateFormula,
};
use icstar_mc::Checker;
use icstar_telemetry::Registry;

use crate::crosscheck::verify_counter_abstraction;
use crate::error::SymError;
use crate::explore::CounterSystem;
use crate::fairness::{self, RepGraph};
use crate::labels::CountingSpec;
use crate::template::GuardedTemplate;

/// The outcome of one check, with the backend routing it used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckRun {
    /// Whether the formula holds.
    pub holds: bool,
    /// How many distinguished copies the representative construction
    /// tracked for this formula — `min(quantifier depth, n)`; `0` when
    /// the formula was checked on the plain counter structure (no index
    /// quantifiers, or `n = 0`).
    pub rep_width: u32,
    /// Whether path quantifiers ranged over *fair* paths only — true
    /// exactly when the template declares weak-fairness constraints
    /// ([`GuardedTemplate::is_fair`]), in which case the checker ran
    /// under the compiled [`icstar_mc::fair::TransFairness`].
    pub fair: bool,
}

/// The representative width [`SymSession::check`] will route `f` through
/// at family size `n`: `0` for quantifier-free formulas and at `n = 0`
/// (both go to the counter structure), otherwise the quantifier nesting
/// depth capped at `n`.
///
/// # Errors
///
/// [`SymError::NotRestricted`] outside the k-restricted fragment.
pub fn required_rep_width(f: &StateFormula, n: u32) -> Result<u32, SymError> {
    if !has_index_quantifier(f) {
        return Ok(0);
    }
    let depth = restricted_depth(f)? as u32;
    Ok(depth.min(n))
}

/// A counter-abstraction model checker for one symmetric family.
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_sym::{mutex_template, SymEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = SymEngine::new(mutex_template());
/// // Mutual exclusion at 10,000 processes, without 3^10000 states:
/// assert!(engine.check(10_000, &parse_state("AG !crit_ge2")?)?);
/// assert!(engine.check(10_000, &parse_state("forall i. AG(try[i] -> EF crit[i])")?)?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SymEngine {
    template: GuardedTemplate,
    spec: CountingSpec,
    telemetry: Registry,
}

impl SymEngine {
    /// An engine with the [`CountingSpec::standard`] labeling.
    ///
    /// Engine metrics (`sym.explore.*`, `sym.rep.*`, `sym.check.ns`) go
    /// to [`Registry::global`]; use [`SymEngine::with_telemetry`] to
    /// redirect them (as `icstar-serve` does, into its per-service
    /// registry).
    pub fn new(template: GuardedTemplate) -> Self {
        let spec = CountingSpec::standard(&template);
        SymEngine {
            template,
            spec,
            telemetry: Registry::global().clone(),
        }
    }

    /// An engine with a custom counting spec.
    pub fn with_spec(template: GuardedTemplate, spec: CountingSpec) -> Self {
        SymEngine {
            template,
            spec,
            telemetry: Registry::global().clone(),
        }
    }

    /// Redirects this engine's metrics (and those of every
    /// [`CounterSystem`] it creates) to `registry`.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = registry;
        self
    }

    /// The registry this engine's metrics land in.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The template.
    pub fn template(&self) -> &GuardedTemplate {
        &self.template
    }

    /// The active counting spec.
    pub fn spec(&self) -> &CountingSpec {
        &self.spec
    }

    /// The counter system at size `n` (on-the-fly, no materialization).
    pub fn system(&self, n: u32) -> CounterSystem {
        CounterSystem::new(self.template.clone(), n).with_telemetry(self.telemetry.clone())
    }

    /// Materializes the width-`width` structure at size `n` bundled with
    /// the template's compiled fairness requirements — the unit sessions
    /// cache and checks run on: the counter structure at width 0, the
    /// distinguished-copies construction indexed formulas are checked
    /// on above it. For templates without
    /// fairness declarations the bundle carries an unconstrained
    /// [`icstar_mc::fair::TransFairness`] at no extra cost.
    ///
    /// # Errors
    ///
    /// [`SymError::EmptyFamily`] for a width ≥ 1 at `n = 0`;
    /// [`SymError::BadRepWidth`] for a width above `n`.
    pub fn graph(&self, n: u32, width: u32) -> Result<RepGraph, SymError> {
        fairness::rep_graph(&self.system(n), &self.spec, width)
    }

    /// [`SymEngine::graph`] at width 0: the counter structure.
    pub fn counter_graph(&self, n: u32) -> RepGraph {
        self.graph(n, 0).expect("width 0 builds at every n")
    }

    /// Forwards to [`SymEngine::counter_graph`]; `shards` is ignored.
    /// Kept only so existing callers compile: every build is sequential.
    pub fn counter_graph_sharded(&self, n: u32, _shards: usize) -> RepGraph {
        self.counter_graph(n)
    }

    /// Forwards to [`SymEngine::graph`].
    ///
    /// # Errors
    ///
    /// As for [`SymEngine::graph`].
    pub fn representative_graph(&self, n: u32, width: u32) -> Result<RepGraph, SymError> {
        self.graph(n, width)
    }

    /// Starts a checking session at size `n`: the abstract structures are
    /// materialized at most once and shared across every formula checked
    /// through it. Prefer this over repeated [`SymEngine::check`] calls
    /// when verifying several formulas at the same size.
    pub fn session(&self, n: u32) -> SymSession<'_> {
        SymSession {
            engine: self,
            n,
            graphs: HashMap::new(),
        }
    }

    /// Checks any supported closed formula at size `n`, dispatching on
    /// whether it uses index quantifiers.
    ///
    /// # Errors
    ///
    /// As [`SymSession::check_described`].
    pub fn check(&self, n: u32, f: &StateFormula) -> Result<bool, SymError> {
        self.session(n).check(f)
    }

    /// Runs the bisimulation oracle at a small, explicitly-buildable `n`:
    /// the counter and representative structures must correspond to the
    /// explicit interleaved composition.
    ///
    /// # Errors
    ///
    /// [`SymError::AbstractionMismatch`] on disagreement.
    pub fn cross_check(&self, n: u32) -> Result<(), SymError> {
        verify_counter_abstraction(&self.template, n, &self.spec)
    }

    fn validate_plain_atoms(&self, used: &UsedAtoms) -> Result<(), SymError> {
        let universe: BTreeSet<Atom> = self.spec.atom_universe().into_iter().collect();
        for p in &used.plain {
            if !universe.contains(&Atom::plain(p.clone())) {
                return Err(SymError::UnknownAtom(format!(
                    "{p} is not a counting atom of the active spec"
                )));
            }
        }
        for p in &used.exactly_one {
            if !universe.contains(&Atom::exactly_one(p.clone())) {
                return Err(SymError::UnknownAtom(format!(
                    "one({p}) is not in the active spec"
                )));
            }
        }
        Ok(())
    }
}

/// A checking session at one family size: materializes one structure
/// *per width* — the counter structure is width 0 — lazily, at most once
/// each, and reuses them for every formula checked through the session.
///
/// Created by [`SymEngine::session`].
///
/// # Examples
///
/// ```
/// use icstar_logic::parse_state;
/// use icstar_sym::{mutex_template, SymEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = SymEngine::new(mutex_template());
/// let mut session = engine.session(10_000);
/// // One counter graph serves both counting formulas; the
/// // representative graph is built only for the quantified one.
/// assert!(session.check(&parse_state("AG !crit_ge2")?)?);
/// assert!(session.check(&parse_state("AG (try_ge1 -> EF crit_ge1)")?)?);
/// assert!(session.check(&parse_state("forall i. AG(try[i] -> EF crit[i])")?)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SymSession<'e> {
    engine: &'e SymEngine,
    n: u32,
    /// Materialized structures by width.
    graphs: HashMap<u32, Arc<RepGraph>>,
}

impl SymSession<'_> {
    /// The family size this session checks at.
    pub fn size(&self) -> u32 {
        self.n
    }

    /// Seeds the session with a pre-materialized width-`width` structure
    /// — typically one obtained from [`SymSession::graph_arc`] of an
    /// earlier session (or a cache of such structures, like
    /// `icstar-serve`'s), avoiding a rebuild.
    ///
    /// The structure must be the one of the *same* engine (template and
    /// spec) at the *same* size and width; seeding anything else makes
    /// later answers meaningless.
    pub fn seed(&mut self, width: u32, graph: Arc<RepGraph>) -> &mut Self {
        self.graphs.insert(width, graph);
        self
    }

    /// [`SymSession::seed`] at width 0, the counter structure.
    pub fn seed_counter(&mut self, counter: Arc<RepGraph>) -> &mut Self {
        self.seed(0, counter)
    }

    /// Forwards to [`SymSession::seed`].
    pub fn seed_representative(&mut self, width: u32, rep: Arc<RepGraph>) -> &mut Self {
        self.seed(width, rep)
    }

    /// The session's width-`width` structure, materializing it on first
    /// use — as a shared handle, suitable for caching and for seeding
    /// other sessions at the same `(template, spec, n, width)`.
    ///
    /// # Errors
    ///
    /// As for [`SymEngine::graph`].
    pub fn graph_arc(&mut self, width: u32) -> Result<Arc<RepGraph>, SymError> {
        let graph = match self.graphs.entry(width) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Arc::new(self.engine.graph(self.n, width)?)),
        };
        Ok(Arc::clone(graph))
    }

    /// Checks any supported closed formula, dispatching as
    /// [`SymEngine::check`].
    ///
    /// # Errors
    ///
    /// As [`SymSession::check_described`].
    pub fn check(&mut self, f: &StateFormula) -> Result<bool, SymError> {
        self.check_described(f).map(|run| run.holds)
    }

    /// Checks any supported closed formula and reports which backend it
    /// went through: [`CheckRun::rep_width`] is the number of
    /// distinguished copies tracked (`0` for the counter structure).
    ///
    /// Quantifier-free formulas over counting atoms are checked on the
    /// counter structure; the abstraction is exact (a strong bisimulation
    /// quotient), so the whole of CTL* — `X` included — transfers to the
    /// explicit `n`-process composition. Closed k-restricted ICTL* goes
    /// through the representative structure of width
    /// [`required_rep_width`], its quantifiers expanded over the
    /// canonical representative tuples. At `n = 0` quantifiers range over
    /// the empty index set (`forall` ⇒ true, `exists` ⇒ false) on the
    /// counter structure.
    ///
    /// # Errors
    ///
    /// [`SymError::UnknownAtom`] for an indexed atom outside every index
    /// quantifier or an atom outside the active spec;
    /// [`SymError::NotRestricted`] outside the sound fragment (on fair
    /// templates, outside its CTL slice); [`SymError::Mc`] on checker
    /// failures.
    pub fn check_described(&mut self, f: &StateFormula) -> Result<CheckRun, SymError> {
        let check_ns = self.engine.telemetry.histogram("sym.check.ns");
        let started = Instant::now();
        let run = self.run(f);
        // Failed checks stay out of the latency distribution.
        if run.is_ok() {
            check_ns.record_duration(started.elapsed());
        }
        run
    }

    fn run(&mut self, f: &StateFormula) -> Result<CheckRun, SymError> {
        let quantified = has_index_quantifier(f);
        let used = used_atoms(f);
        if let (false, Some(v)) = (quantified, used.indexed.iter().next()) {
            return Err(SymError::UnknownAtom(format!(
                "{}[..] (indexed atoms need an index quantifier)",
                v.0
            )));
        }
        let fair = self.engine.template.is_fair();
        if fair {
            // Under fairness the checker is CTL-shaped, so the fragment
            // gate tightens to the CTL slice (which still admits the
            // liveness shapes weak fairness exists for: AF, AG AF, fair
            // EG, and their quantified forms).
            fair_fragment_depth(f)?;
        }
        let width = required_rep_width(f, self.n)?;
        // Plain atoms must come from the spec (a missing threshold atom
        // would silently read as false and give wrong answers); indexed
        // props *outside* the template are fine — they are false on the
        // explicit composition and on the representative alike.
        self.engine.validate_plain_atoms(&used)?;
        let g = self.graph_arc(width)?;
        let mut checker = Checker::with_fairness(&g.kripke, &g.fairness);
        let holds = if quantified {
            checker.holds(&expand_representatives(f, width))?
        } else {
            checker.holds(f)?
        };
        Ok(CheckRun {
            holds,
            rep_width: width,
            fair,
        })
    }
}

/// The atoms appearing in a formula, by kind.
#[derive(Default)]
struct UsedAtoms {
    plain: BTreeSet<String>,
    exactly_one: BTreeSet<String>,
    /// `(prop, index-term rendering)` pairs.
    indexed: BTreeSet<(String, String)>,
}

fn used_atoms(f: &StateFormula) -> UsedAtoms {
    let mut out = UsedAtoms::default();
    collect_state(f, &mut out);
    out
}

fn collect_state(f: &StateFormula, out: &mut UsedAtoms) {
    use StateFormula::*;
    match f {
        True | False => {}
        Prop(p) => {
            out.plain.insert(p.clone());
        }
        ExactlyOne(p) => {
            out.exactly_one.insert(p.clone());
        }
        Indexed(p, term) => {
            out.indexed.insert((p.clone(), format!("{term:?}")));
        }
        Not(g) | ForallIdx(_, g) | ExistsIdx(_, g) => collect_state(g, out),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => {
            collect_state(a, out);
            collect_state(b, out);
        }
        Exists(p) | All(p) => collect_path(p, out),
    }
}

fn collect_path(p: &PathFormula, out: &mut UsedAtoms) {
    use PathFormula::*;
    match p {
        State(f) => collect_state(f, out),
        Not(g) | Eventually(g) | Globally(g) | Next(g) => collect_path(g, out),
        And(a, b) | Or(a, b) | Implies(a, b) | Until(a, b) | Release(a, b) => {
            collect_path(a, out);
            collect_path(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::mutex_template;
    use icstar_logic::parse_state;
    use icstar_nets::fig41_template;

    fn engine() -> SymEngine {
        SymEngine::new(mutex_template())
    }

    #[test]
    fn counting_checks_at_scale() {
        let e = engine();
        for n in [1u32, 2, 10, 100] {
            assert!(e.check(n, &parse_state("AG !crit_ge2").unwrap()).unwrap());
            assert!(e
                .check(n, &parse_state("AG (try_ge1 -> EF crit_ge1)").unwrap())
                .unwrap());
            assert!(e
                .check(n, &parse_state("AG (crit_ge1 -> one(crit))").unwrap())
                .unwrap());
        }
        // With >= 2 processes, two copies *can* be trying at once.
        assert!(e.check(2, &parse_state("EF try_ge2").unwrap()).unwrap());
        assert!(!e.check(1, &parse_state("EF try_ge2").unwrap()).unwrap());
    }

    #[test]
    fn indexed_checks_through_representative() {
        let e = engine();
        let f = parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap();
        for n in [1u32, 2, 5, 20] {
            assert!(e.check(n, &f).unwrap(), "n = {n}");
        }
    }

    #[test]
    fn dispatch_picks_backend() {
        let e = engine();
        assert!(e.check(3, &parse_state("AG !crit_ge2").unwrap()).unwrap());
        assert!(e
            .check(3, &parse_state("exists i. EF crit[i]").unwrap())
            .unwrap());
    }

    #[test]
    fn n_zero_expands_quantifiers_over_empty_index_set() {
        let e = engine();
        assert!(e
            .check(0, &parse_state("forall i. AG crit[i]").unwrap())
            .unwrap());
        assert!(!e
            .check(0, &parse_state("exists i. EF crit[i]").unwrap())
            .unwrap());
        // Counting formulas also stay total at n = 0.
        assert!(e.check(0, &parse_state("AG crit_eq0").unwrap()).unwrap());
    }

    #[test]
    fn unrestricted_indexed_formulas_rejected() {
        let e = engine();
        // Quantifier under AG: outside the sound fragment.
        let f = parse_state("AG (exists i. crit[i])").unwrap();
        assert!(matches!(e.check(2, &f), Err(SymError::NotRestricted(_))));
        // Nesting alone is *not* a rejection anymore — but nesting under
        // an until-like operator still is.
        let g = parse_state("forall i. EF (exists j. crit[j] & try[i])").unwrap();
        assert!(matches!(e.check(3, &g), Err(SymError::NotRestricted(_))));
    }

    #[test]
    fn nested_quantifiers_route_through_width_two() {
        let e = engine();
        let f = parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap();
        for n in [2u32, 5, 20] {
            let mut s = e.session(n);
            let run = s.check_described(&f).unwrap();
            assert!(run.holds, "n = {n}");
            assert_eq!(run.rep_width, 2, "n = {n}");
        }
        // At n = 1 there is no second copy to track: the width caps at 1
        // and the exists collapses onto the diagonal — which fails, since
        // crit[1] -> !crit[1] is violated whenever copy 1 enters.
        let run = e.session(1).check_described(&f).unwrap();
        assert_eq!((run.holds, run.rep_width), (false, 1));
    }

    #[test]
    fn forall_pairs_mutual_exclusion_holds() {
        let e = engine();
        // The depth-2 phrasing of mutual exclusion over *distinct-or-not*
        // pairs: some witness j is never critical together with i.
        let f = parse_state("forall i. forall j. AG !(crit[i] & crit[j] & crit_ge2)").unwrap();
        assert!(e.check(4, &f).unwrap());
    }

    #[test]
    fn check_described_reports_zero_width_for_counting() {
        let e = engine();
        let mut s = e.session(5);
        let run = s
            .check_described(&parse_state("AG !crit_ge2").unwrap())
            .unwrap();
        assert_eq!((run.holds, run.rep_width), (true, 0));
    }

    #[test]
    fn required_rep_width_matches_routing() {
        use super::required_rep_width;
        let counting = parse_state("AG !crit_ge2").unwrap();
        let depth1 = parse_state("forall i. EF crit[i]").unwrap();
        let depth2 = parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap();
        assert_eq!(required_rep_width(&counting, 10).unwrap(), 0);
        assert_eq!(required_rep_width(&depth1, 10).unwrap(), 1);
        assert_eq!(required_rep_width(&depth2, 10).unwrap(), 2);
        assert_eq!(required_rep_width(&depth2, 1).unwrap(), 1);
        assert_eq!(required_rep_width(&depth2, 0).unwrap(), 0);
        assert!(matches!(
            required_rep_width(&parse_state("AG (exists i. crit[i])").unwrap(), 5),
            Err(SymError::NotRestricted(_))
        ));
    }

    #[test]
    fn sessions_cache_one_structure_per_width() {
        let e = engine();
        let mut s = e.session(10);
        assert!(s
            .check(&parse_state("forall i. EF crit[i]").unwrap())
            .unwrap());
        assert!(s
            .check(&parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap())
            .unwrap());
        assert!(s
            .check(&parse_state("exists i. EF try[i]").unwrap())
            .unwrap());
        assert_eq!(s.graphs.len(), 2, "one structure each for widths 1 and 2");
    }

    #[test]
    fn unknown_atoms_rejected() {
        let e = engine();
        assert!(matches!(
            e.check(2, &parse_state("AG bogus").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
        assert!(matches!(
            e.check(2, &parse_state("AG crit_ge3").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
        assert!(matches!(
            e.check(2, &parse_state("AG crit[1]").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
        // Indexed props outside the template are *not* errors: they are
        // false everywhere, exactly as on the explicit composition.
        assert!(!e
            .check(2, &parse_state("exists i. EF bogus[i]").unwrap())
            .unwrap());
        assert!(matches!(
            e.check(2, &parse_state("AG one(bogus)").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
    }

    #[test]
    fn nexttime_allowed_on_counting_path() {
        // Exactness means X is fine for counting formulas: from the
        // initial mutex state the first move sends some copy to `try`.
        let e = engine();
        assert!(e.check(3, &parse_state("AX try_ge1").unwrap()).unwrap());
    }

    #[test]
    fn cross_check_passes_for_both_workload_kinds() {
        engine().cross_check(3).unwrap();
        SymEngine::new(crate::template::GuardedTemplate::free(fig41_template()))
            .cross_check(3)
            .unwrap();
    }

    #[test]
    fn session_reuses_structures_across_formulas() {
        let e = engine();
        let mut s = e.session(50);
        for src in [
            "AG !crit_ge2",
            "AG (try_ge1 -> EF crit_ge1)",
            "forall i. AG(try[i] -> EF crit[i])",
            "exists i. EF crit[i]",
        ] {
            assert!(s.check(&parse_state(src).unwrap()).unwrap(), "{src}");
        }
        // Both structures were materialized exactly once and retained.
        assert!(s.graphs.contains_key(&0));
        assert_eq!(s.graphs.len(), 2);
        assert_eq!(s.size(), 50);
        // Session verdicts match one-shot engine verdicts.
        assert_eq!(
            s.check(&parse_state("EF try_ge2").unwrap()).unwrap(),
            e.check(50, &parse_state("EF try_ge2").unwrap()).unwrap()
        );
    }

    #[test]
    fn seeded_sessions_share_materialized_structures() {
        let e = engine();
        let mut first = e.session(40);
        assert!(first.check(&parse_state("AG !crit_ge2").unwrap()).unwrap());
        assert!(first
            .check(&parse_state("exists i. EF crit[i]").unwrap())
            .unwrap());
        let counter = first.graph_arc(0).unwrap();
        let rep = first.graph_arc(1).unwrap();

        // A second session seeded with the first's structures answers
        // identically without re-materializing (the Arcs are shared).
        let mut second = e.session(40);
        second.seed_counter(std::sync::Arc::clone(&counter));
        second.seed_representative(1, std::sync::Arc::clone(&rep));
        assert!(second
            .check(&parse_state("AG (try_ge1 -> EF crit_ge1)").unwrap())
            .unwrap());
        assert!(second
            .check(&parse_state("forall i. AG(try[i] -> EF crit[i])").unwrap())
            .unwrap());
        assert!(std::sync::Arc::ptr_eq(
            &counter,
            &second.graph_arc(0).unwrap()
        ));
        assert!(std::sync::Arc::ptr_eq(&rep, &second.graph_arc(1).unwrap()));
    }

    #[test]
    fn engine_materializes_representative_and_sharded_structures() {
        let e = engine();
        let rep = e.representative_graph(4, 1).unwrap().kripke;
        assert_eq!(rep.indices(), &[1]);
        let rep2 = e.representative_graph(4, 2).unwrap().kripke;
        assert_eq!(rep2.indices(), &[1, 2]);
        assert!(matches!(
            e.representative_graph(0, 1),
            Err(SymError::EmptyFamily)
        ));
        assert!(matches!(
            e.representative_graph(4, 9),
            Err(SymError::BadRepWidth { .. })
        ));
        // The compatibility forward builds the same structure.
        let seq = e.counter_graph(30).kripke;
        let fwd = e.counter_graph_sharded(30, 4).kripke;
        assert_eq!(seq.num_states(), fwd.num_states());
        assert_eq!(seq.num_transitions(), fwd.num_transitions());
    }

    #[test]
    fn engine_metrics_land_in_the_attached_registry() {
        let registry = icstar_telemetry::Registry::new();
        let e = engine().with_telemetry(registry.clone());
        assert!(e.telemetry().same_as(&registry));
        let mut s = e.session(10);
        assert!(s.check(&parse_state("AG !crit_ge2").unwrap()).unwrap());
        assert!(s
            .check(&parse_state("forall i. exists j. AG(crit[i] -> !crit[j])").unwrap())
            .unwrap());
        let snap = registry.snapshot();
        // One counter exploration, one width-2 representative build
        // (whose interior exploration also counts), two checks timed.
        assert_eq!(snap.counter("sym.rep.builds"), Some(1));
        assert_eq!(snap.histogram("sym.rep.w2.build_ns").unwrap().count, 1);
        assert!(snap.counter("sym.explore.builds").unwrap() >= 1);
        assert_eq!(snap.histogram("sym.check.ns").unwrap().count, 2);
        // Failed checks are counted by neither histogram nor builds.
        assert!(s.check(&parse_state("AG bogus").unwrap()).is_err());
        assert_eq!(
            registry.snapshot().histogram("sym.check.ns").unwrap().count,
            2
        );
    }

    fn fair_stutter_template(fair: bool) -> GuardedTemplate {
        let mut b = crate::template::GuardedBuilder::new();
        let idle = b.state("idle", ["idle"]);
        let done = b.state("done", ["done"]);
        b.edge(idle, idle);
        b.edge(idle, done);
        b.edge(done, done);
        if fair {
            b.fair("exit", [(idle, done)]);
        }
        b.build(idle)
    }

    #[test]
    fn fair_template_routes_liveness_through_fair_checker() {
        let e = SymEngine::new(fair_stutter_template(true));
        let plain = SymEngine::new(fair_stutter_template(false));
        let f = parse_state("AF idle_eq0").unwrap();
        for n in [1u32, 5, 200] {
            let run = e.session(n).check_described(&f).unwrap();
            assert_eq!(
                (run.holds, run.rep_width, run.fair),
                (true, 0, true),
                "n = {n}"
            );
            // Identical template minus the declaration: the stutter loop
            // is a fair counterexample, so plain AF fails.
            let run = plain.session(n).check_described(&f).unwrap();
            assert_eq!((run.holds, run.fair), (false, false), "n = {n}");
        }
    }

    #[test]
    fn fair_template_routes_indexed_liveness_through_rep() {
        let e = SymEngine::new(fair_stutter_template(true));
        let f = parse_state("forall i. AF done[i]").unwrap();
        let mut s = e.session(10);
        let run = s.check_described(&f).unwrap();
        assert_eq!((run.holds, run.rep_width, run.fair), (true, 1, true));
        // Safety still answers (machine closure: fairness never blocks a
        // prefix, so AG verdicts match the plain ones).
        assert!(s
            .check(&parse_state("AG (done_ge1 -> AG done_ge1)").unwrap())
            .unwrap());
        // At n = 0 the quantifier collapses over the empty index set.
        let run = e.session(0).check_described(&f).unwrap();
        assert_eq!((run.holds, run.rep_width, run.fair), (true, 0, true));
    }

    #[test]
    fn fair_template_rejects_non_ctl_formulas() {
        use icstar_logic::RestrictionError;
        let e = SymEngine::new(fair_stutter_template(true));
        let bad = parse_state("A(F idle_eq0 & F done_ge1)").unwrap();
        assert!(matches!(
            e.check(3, &bad),
            Err(SymError::NotRestricted(RestrictionError::NotCtl))
        ));
        // The same formula is fine on the unfair twin (full CTL*).
        let plain = SymEngine::new(fair_stutter_template(false));
        assert!(plain.check(3, &bad).is_ok());
    }

    #[test]
    fn custom_spec_is_honored() {
        let t = mutex_template();
        let spec = CountingSpec::new().with_at_least("crit", 5);
        let e = SymEngine::with_spec(t, spec);
        assert!(!e.check(10, &parse_state("EF crit_ge5").unwrap()).unwrap());
        // The standard atoms are gone under the custom spec.
        assert!(matches!(
            e.check(10, &parse_state("EF crit_ge2").unwrap()),
            Err(SymError::UnknownAtom(_))
        ));
    }
}
