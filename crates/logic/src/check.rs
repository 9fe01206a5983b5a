//! Well-formedness checks from the paper.
//!
//! * [`free_index_vars`] / [`is_closed`] — Section 4 requires closed
//!   formulas: every indexed proposition under a quantifier, no constant
//!   indices.
//! * [`uses_next`] — the logic omits the nexttime operator (it can count
//!   processes; see Section 2's three-process ring example).
//! * [`check_restricted`] — the Section 4 restriction that makes ICTL*
//!   correspondence-invariant: no index quantifier nested under another,
//!   and no index quantifier inside the operands of `U` (hence also `F`,
//!   `G`, `R`, which are until-derived). Without it the logic counts
//!   processes (Fig. 4.1).
//! * [`restricted_depth`] — the *k-restricted* generalization used by the
//!   multi-representative counter backend: quantifiers may nest to any
//!   depth `k` (they are still barred from `U`-like operands, so every
//!   quantifier is evaluated at the symmetric initial state), and the
//!   check reports the depth so the backend can pick `k` tracked copies.
//! * [`is_ctl`] — detects the CTL fragment, which the model checker
//!   dispatches to the linear-time labeling algorithm.

use std::collections::BTreeSet;
use std::fmt;

use crate::ast::{IndexTerm, PathFormula, StateFormula};

/// Why a formula is outside restricted ICTL*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestrictionError {
    /// The nexttime operator appears; the logic excludes it entirely.
    NextUsed,
    /// An index quantifier appears inside the body of another index
    /// quantifier (only reported by [`check_restricted`], the depth ≤ 1
    /// fragment; [`restricted_depth`] admits nesting and reports the
    /// depth instead).
    NestedQuantifier,
    /// An index quantifier appears inside an operand of `U`/`R`/`F`/`G`.
    QuantifierInUntil,
    /// The formula is not closed: an indexed proposition uses a free index
    /// variable.
    FreeIndexVariable(String),
    /// The formula refers to a specific process via a constant index.
    ConstantIndex,
    /// The formula is outside the CTL fragment; the fair backend's
    /// fair-SCC labeling only supports CTL-shaped formulas (see
    /// [`fair_fragment_depth`]).
    NotCtl,
}

impl fmt::Display for RestrictionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestrictionError::NextUsed => {
                write!(f, "the nexttime operator X is not part of the logic")
            }
            RestrictionError::NestedQuantifier => {
                write!(f, "index quantifiers may not be nested")
            }
            RestrictionError::QuantifierInUntil => write!(
                f,
                "index quantifiers may not appear inside until/release/F/G operands"
            ),
            RestrictionError::FreeIndexVariable(v) => {
                write!(f, "free index variable {v:?}; the formula is not closed")
            }
            RestrictionError::ConstantIndex => {
                write!(
                    f,
                    "constant index values are not allowed in closed formulas"
                )
            }
            RestrictionError::NotCtl => write!(
                f,
                "fair checking supports only CTL-shaped formulas (each path \
                 quantifier wrapping one temporal operator over state operands)"
            ),
        }
    }
}

impl std::error::Error for RestrictionError {}

/// Collects the free index variables of a state formula.
pub fn free_index_vars(f: &StateFormula) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    state_free(f, &mut Vec::new(), &mut out);
    out
}

/// Collects the free index variables of a path formula.
pub fn free_index_vars_path(p: &PathFormula) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    path_free(p, &mut Vec::new(), &mut out);
    out
}

fn state_free(f: &StateFormula, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
    use StateFormula::*;
    match f {
        True | False | Prop(_) | ExactlyOne(_) => {}
        Indexed(_, IndexTerm::Var(v)) => {
            if !bound.contains(v) {
                out.insert(v.clone());
            }
        }
        Indexed(_, IndexTerm::Const(_)) => {}
        Not(g) => state_free(g, bound, out),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => {
            state_free(a, bound, out);
            state_free(b, bound, out);
        }
        Exists(p) | All(p) => path_free(p, bound, out),
        ForallIdx(v, g) | ExistsIdx(v, g) => {
            bound.push(v.clone());
            state_free(g, bound, out);
            bound.pop();
        }
    }
}

fn path_free(p: &PathFormula, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
    use PathFormula::*;
    match p {
        State(f) => state_free(f, bound, out),
        Not(g) | Eventually(g) | Globally(g) | Next(g) => path_free(g, bound, out),
        And(a, b) | Or(a, b) | Implies(a, b) | Until(a, b) | Release(a, b) => {
            path_free(a, bound, out);
            path_free(b, bound, out);
        }
    }
}

/// Whether the formula contains a constant index value.
pub fn has_const_index(f: &StateFormula) -> bool {
    use StateFormula::*;
    match f {
        True | False | Prop(_) | ExactlyOne(_) => false,
        Indexed(_, IndexTerm::Const(_)) => true,
        Indexed(_, IndexTerm::Var(_)) => false,
        Not(g) | ForallIdx(_, g) | ExistsIdx(_, g) => has_const_index(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => {
            has_const_index(a) || has_const_index(b)
        }
        Exists(p) | All(p) => has_const_index_path(p),
    }
}

fn has_const_index_path(p: &PathFormula) -> bool {
    use PathFormula::*;
    match p {
        State(f) => has_const_index(f),
        Not(g) | Eventually(g) | Globally(g) | Next(g) => has_const_index_path(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Until(a, b) | Release(a, b) => {
            has_const_index_path(a) || has_const_index_path(b)
        }
    }
}

/// Whether the formula is closed: no free index variables and no constant
/// index values (Section 4: closed formulas cannot name specific
/// processes).
pub fn is_closed(f: &StateFormula) -> bool {
    free_index_vars(f).is_empty() && !has_const_index(f)
}

/// Whether the nexttime operator appears anywhere.
pub fn uses_next(f: &StateFormula) -> bool {
    use StateFormula::*;
    match f {
        True | False | Prop(_) | Indexed(..) | ExactlyOne(_) => false,
        Not(g) | ForallIdx(_, g) | ExistsIdx(_, g) => uses_next(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => uses_next(a) || uses_next(b),
        Exists(p) | All(p) => uses_next_path(p),
    }
}

/// Whether the nexttime operator appears anywhere in a path formula.
pub fn uses_next_path(p: &PathFormula) -> bool {
    use PathFormula::*;
    match p {
        State(f) => uses_next(f),
        Next(_) => true,
        Not(g) | Eventually(g) | Globally(g) => uses_next_path(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Until(a, b) | Release(a, b) => {
            uses_next_path(a) || uses_next_path(b)
        }
    }
}

/// Whether any index quantifier (`forall i.` / `exists i.`) appears.
pub fn has_index_quantifier(f: &StateFormula) -> bool {
    use StateFormula::*;
    match f {
        True | False | Prop(_) | Indexed(..) | ExactlyOne(_) => false,
        ForallIdx(..) | ExistsIdx(..) => true,
        Not(g) => has_index_quantifier(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => {
            has_index_quantifier(a) || has_index_quantifier(b)
        }
        Exists(p) | All(p) => has_index_quantifier_path(p),
    }
}

fn has_index_quantifier_path(p: &PathFormula) -> bool {
    use PathFormula::*;
    match p {
        State(f) => has_index_quantifier(f),
        Not(g) | Eventually(g) | Globally(g) | Next(g) => has_index_quantifier_path(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Until(a, b) | Release(a, b) => {
            has_index_quantifier_path(a) || has_index_quantifier_path(b)
        }
    }
}

/// Maximum nesting depth of index quantifiers (0 = none). Used by the
/// Section 6 conjecture experiments: formulas of depth ≤ k should not
/// distinguish free products with more than k processes.
pub fn quantifier_depth(f: &StateFormula) -> usize {
    use StateFormula::*;
    match f {
        True | False | Prop(_) | Indexed(..) | ExactlyOne(_) => 0,
        ForallIdx(_, g) | ExistsIdx(_, g) => 1 + quantifier_depth(g),
        Not(g) => quantifier_depth(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => {
            quantifier_depth(a).max(quantifier_depth(b))
        }
        Exists(p) | All(p) => quantifier_depth_path(p),
    }
}

fn quantifier_depth_path(p: &PathFormula) -> usize {
    use PathFormula::*;
    match p {
        State(f) => quantifier_depth(f),
        Not(g) | Eventually(g) | Globally(g) | Next(g) => quantifier_depth_path(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Until(a, b) | Release(a, b) => {
            quantifier_depth_path(a).max(quantifier_depth_path(b))
        }
    }
}

/// Checks the Section 4 restriction for closed ICTL* formulas.
///
/// Equivalent to [`restricted_depth`] plus the demand that quantifiers do
/// not nest (depth ≤ 1) — the fragment the paper's Theorem 5 transfers
/// through a *single* index correspondence. The counter backend's
/// multi-representative construction lifts the depth bound; use
/// [`restricted_depth`] there.
///
/// # Errors
///
/// Returns the first violation found: nexttime use, nested quantifiers,
/// quantifiers under until-like operators, free variables, or constant
/// indices.
pub fn check_restricted(f: &StateFormula) -> Result<(), RestrictionError> {
    if restricted_depth(f)? > 1 {
        return Err(RestrictionError::NestedQuantifier);
    }
    Ok(())
}

/// Checks the *k-restricted* fragment and returns the quantifier nesting
/// depth `k`: the formula must be closed, constant-index-free,
/// nexttime-free, and keep every index quantifier outside the operands of
/// `U`/`R`/`F`/`G` — but quantifiers may nest to any depth. Every
/// quantifier is then evaluated only at the (symmetric) initial state,
/// which is what makes checking over `k` distinguished representative
/// copies exact.
///
/// Depth 0 means quantifier-free; [`check_restricted`] is this check with
/// the additional demand `k ≤ 1`.
///
/// # Errors
///
/// Returns the first violation found: nexttime use, quantifiers under
/// until-like operators, free variables, or constant indices.
pub fn restricted_depth(f: &StateFormula) -> Result<usize, RestrictionError> {
    if uses_next(f) {
        return Err(RestrictionError::NextUsed);
    }
    if let Some(v) = free_index_vars(f).into_iter().next() {
        return Err(RestrictionError::FreeIndexVariable(v));
    }
    if has_const_index(f) {
        return Err(RestrictionError::ConstantIndex);
    }
    restricted_state(f)?;
    Ok(quantifier_depth(f))
}

fn restricted_state(f: &StateFormula) -> Result<(), RestrictionError> {
    use StateFormula::*;
    match f {
        True | False | Prop(_) | Indexed(..) | ExactlyOne(_) => Ok(()),
        ForallIdx(_, g) | ExistsIdx(_, g) | Not(g) => restricted_state(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => {
            restricted_state(a)?;
            restricted_state(b)
        }
        Exists(p) | All(p) => restricted_path(p),
    }
}

fn restricted_path(p: &PathFormula) -> Result<(), RestrictionError> {
    use PathFormula::*;
    match p {
        State(f) => restricted_state(f),
        Not(g) => restricted_path(g),
        And(a, b) | Or(a, b) | Implies(a, b) => {
            restricted_path(a)?;
            restricted_path(b)
        }
        Until(a, b) | Release(a, b) => {
            if has_index_quantifier_path(a) || has_index_quantifier_path(b) {
                return Err(RestrictionError::QuantifierInUntil);
            }
            restricted_path(a)?;
            restricted_path(b)
        }
        Eventually(g) | Globally(g) => {
            if has_index_quantifier_path(g) {
                return Err(RestrictionError::QuantifierInUntil);
            }
            restricted_path(g)
        }
        Next(_) => Err(RestrictionError::NextUsed),
    }
}

/// Collapses path-level boolean structure over pure state formulas back
/// into a single embedded state formula where possible.
///
/// For example `And(State f, State g)` becomes `State(f ∧ g)`. This
/// normalization lets [`is_ctl`] recognize formulas like
/// `AG (d -> AF c)` whose parser output nests booleans at the path level.
pub fn collapse_states(p: &PathFormula) -> PathFormula {
    use PathFormula::*;
    match p {
        State(f) => State(f.clone()),
        Not(g) => match collapse_states(g) {
            State(f) => State(Box::new(f.not())),
            other => Not(Box::new(other)),
        },
        And(a, b) => match (collapse_states(a), collapse_states(b)) {
            (State(f), State(g)) => State(Box::new(f.and(*g))),
            (x, y) => And(Box::new(x), Box::new(y)),
        },
        Or(a, b) => match (collapse_states(a), collapse_states(b)) {
            (State(f), State(g)) => State(Box::new(f.or(*g))),
            (x, y) => Or(Box::new(x), Box::new(y)),
        },
        Implies(a, b) => match (collapse_states(a), collapse_states(b)) {
            (State(f), State(g)) => State(Box::new(f.implies(*g))),
            (x, y) => Implies(Box::new(x), Box::new(y)),
        },
        Until(a, b) => Until(Box::new(collapse_states(a)), Box::new(collapse_states(b))),
        Release(a, b) => Release(Box::new(collapse_states(a)), Box::new(collapse_states(b))),
        Eventually(g) => Eventually(Box::new(collapse_states(g))),
        Globally(g) => Globally(Box::new(collapse_states(g))),
        Next(g) => Next(Box::new(collapse_states(g))),
    }
}

/// Whether the formula lies in the CTL fragment: every path quantifier
/// applies to a single temporal operator whose operands are (recursively
/// CTL) state formulas.
pub fn is_ctl(f: &StateFormula) -> bool {
    use StateFormula::*;
    match f {
        True | False | Prop(_) | Indexed(..) | ExactlyOne(_) => true,
        Not(g) => is_ctl(g),
        And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b) => is_ctl(a) && is_ctl(b),
        ForallIdx(_, g) | ExistsIdx(_, g) => is_ctl(g),
        Exists(p) | All(p) => {
            use PathFormula::*;
            match collapse_states(p) {
                Until(a, b) | Release(a, b) => match (&*a, &*b) {
                    (State(x), State(y)) => is_ctl(x) && is_ctl(y),
                    _ => false,
                },
                Eventually(g) | Globally(g) | Next(g) => match &*g {
                    State(x) => is_ctl(x),
                    _ => false,
                },
                State(x) => is_ctl(&x),
                _ => false,
            }
        }
    }
}

/// Checks that `f` fits the fragment the **fair** backend can evaluate
/// and returns the quantifier nesting depth (0 = quantifier-free), the
/// fair counterpart of [`restricted_depth`].
///
/// Fair checking runs the fair-SCC labeling algorithm, so the formula
/// must be CTL-shaped ([`is_ctl`]); unlike the plain restricted fragment,
/// `F`/`G` state operands are the point of the exercise (`AF p`,
/// `AG AF p`) and are accepted. Quantifier-free formulas pass with depth
/// 0 — closedness is the checker's concern there, as in the plain CTL*
/// path. Index-quantified formulas must additionally satisfy
/// [`restricted_depth`] so the representative backend can expand them.
///
/// # Errors
///
/// [`RestrictionError::NotCtl`] outside the CTL fragment; otherwise
/// whatever [`restricted_depth`] reports for quantified formulas.
pub fn fair_fragment_depth(f: &StateFormula) -> Result<usize, RestrictionError> {
    if !is_ctl(f) {
        return Err(RestrictionError::NotCtl);
    }
    if has_index_quantifier(f) {
        restricted_depth(f)
    } else {
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::parse::parse_state;

    #[test]
    fn free_vars_and_closedness() {
        let open = parse_state("d[i] -> AF c[i]").unwrap();
        assert_eq!(
            free_index_vars(&open).into_iter().collect::<Vec<_>>(),
            vec!["i".to_string()]
        );
        assert!(!is_closed(&open));

        let closed = parse_state("forall i. d[i] -> AF c[i]").unwrap();
        assert!(free_index_vars(&closed).is_empty());
        assert!(is_closed(&closed));

        let constant = parse_state("d[3]").unwrap();
        assert!(free_index_vars(&constant).is_empty());
        assert!(!is_closed(&constant));
    }

    #[test]
    fn shadowing_binds_innermost() {
        // exists i. (p[i] & exists i. q[i]) — no free vars.
        let f = exists_idx("i", iprop("p", "i").and(exists_idx("i", iprop("q", "i"))));
        assert!(free_index_vars(&f).is_empty());
    }

    #[test]
    fn next_detection() {
        assert!(uses_next(&parse_state("EX p").unwrap()));
        assert!(uses_next(&parse_state("A(X X p)").unwrap()));
        assert!(!uses_next(&parse_state("AG(p -> AF q)").unwrap()));
    }

    #[test]
    fn restriction_accepts_paper_properties() {
        for src in [
            // the four Section 5 properties
            "!(exists i. EF(!d[i] & !t[i] & E[!d[i] U t[i]]))",
            "forall i. AG(c[i] -> t[i])",
            "forall i. AG(d[i] -> A[d[i] U t[i]])",
            "forall i. AG(d[i] -> AF c[i])",
            // invariants
            "AG one(t)",
            "forall i. AG(d[i] -> !E[d[i] U !d[i] & !t[i]])",
        ] {
            let f = parse_state(src).unwrap();
            assert_eq!(check_restricted(&f), Ok(()), "{src}");
        }
    }

    #[test]
    fn restriction_rejects_nested_quantifiers() {
        let f = parse_state("exists i. p[i] & (exists j. q[j])").unwrap();
        assert_eq!(
            check_restricted(&f),
            Err(RestrictionError::NestedQuantifier)
        );
        // forall counts too (it is ¬⋁¬).
        let g = parse_state("forall i. p[i] | (forall j. q[j])").unwrap();
        assert_eq!(
            check_restricted(&g),
            Err(RestrictionError::NestedQuantifier)
        );
    }

    #[test]
    fn restriction_rejects_quantifier_under_until() {
        // The Fig. 4.1 counting shape: EF with a quantifier inside.
        let f = parse_state("exists i. EF(b[i])").unwrap();
        assert_eq!(check_restricted(&f), Ok(()));
        let g = parse_state("E[true U (exists i. b[i])]").unwrap();
        assert_eq!(
            check_restricted(&g),
            Err(RestrictionError::QuantifierInUntil)
        );
        let h = parse_state("EF (exists i. b[i])").unwrap();
        assert_eq!(
            check_restricted(&h),
            Err(RestrictionError::QuantifierInUntil)
        );
        let gg = parse_state("AG (exists i. b[i])").unwrap();
        assert_eq!(
            check_restricted(&gg),
            Err(RestrictionError::QuantifierInUntil)
        );
    }

    #[test]
    fn restriction_rejects_next_free_and_const() {
        assert_eq!(
            check_restricted(&parse_state("EX p").unwrap()),
            Err(RestrictionError::NextUsed)
        );
        assert_eq!(
            check_restricted(&parse_state("d[i]").unwrap()),
            Err(RestrictionError::FreeIndexVariable("i".into()))
        );
        assert_eq!(
            check_restricted(&parse_state("d[2]").unwrap()),
            Err(RestrictionError::ConstantIndex)
        );
    }

    #[test]
    fn quantifier_depth_counts_nesting() {
        assert_eq!(quantifier_depth(&parse_state("p").unwrap()), 0);
        assert_eq!(quantifier_depth(&parse_state("forall i. p[i]").unwrap()), 1);
        let f = parse_state("exists i. a[i] & EF(b[i] & (exists j. a[j]))").unwrap();
        assert_eq!(quantifier_depth(&f), 2);
    }

    #[test]
    fn restricted_depth_admits_nesting_and_reports_k() {
        for (src, k) in [
            ("AG p", 0),
            ("forall i. AG(d[i] -> AF c[i])", 1),
            ("forall i. exists j. AG(c[i] -> !c[j])", 2),
            ("forall i. forall j. exists l. p[i] & (q[j] | p[l])", 3),
            ("(forall i. EF p[i]) & (exists j. EF q[j])", 1),
        ] {
            let f = parse_state(src).unwrap();
            assert_eq!(restricted_depth(&f), Ok(k), "{src}");
        }
    }

    #[test]
    fn restricted_depth_keeps_the_until_and_closure_rules() {
        assert_eq!(
            restricted_depth(&parse_state("forall i. EF (exists j. p[j] & q[i])").unwrap()),
            Err(RestrictionError::QuantifierInUntil)
        );
        assert_eq!(
            restricted_depth(&parse_state("AG (exists i. b[i])").unwrap()),
            Err(RestrictionError::QuantifierInUntil)
        );
        assert_eq!(
            restricted_depth(&parse_state("forall i. EX p[i]").unwrap()),
            Err(RestrictionError::NextUsed)
        );
        assert_eq!(
            restricted_depth(&parse_state("exists i. p[i] & q[j]").unwrap()),
            Err(RestrictionError::FreeIndexVariable("j".into()))
        );
        assert_eq!(
            restricted_depth(&parse_state("exists i. p[i] & q[2]").unwrap()),
            Err(RestrictionError::ConstantIndex)
        );
    }

    #[test]
    fn ctl_detection() {
        for src in [
            "p",
            "AG p",
            "AG(d -> AF c)",
            "A[p U q]",
            "E[p U q]",
            "EG !p",
            "EX p",
            "AG(c -> t) & AF d",
            "forall i. AG(d[i] -> AF c[i])",
            "E(p R q)",
        ] {
            assert!(is_ctl(&parse_state(src).unwrap()), "{src} should be CTL");
        }
        for src in ["A(G F p)", "E(p U (q U r))", "A(F p -> G q)", "E(!(p U q))"] {
            assert!(
                !is_ctl(&parse_state(src).unwrap()),
                "{src} should not be CTL"
            );
        }
    }

    #[test]
    fn collapse_states_flattens_boolean_path_structure() {
        use crate::ast::PathFormula;
        let p = crate::parse::parse_path("p -> AF q").unwrap();
        match collapse_states(&p) {
            PathFormula::State(f) => {
                assert_eq!(*f, prop("p").implies(af(prop("q"))));
            }
            other => panic!("expected collapse to State, got {other}"),
        }
    }

    #[test]
    fn restriction_error_display() {
        assert!(RestrictionError::NextUsed.to_string().contains("nexttime"));
        assert!(RestrictionError::FreeIndexVariable("i".into())
            .to_string()
            .contains("i"));
        assert!(RestrictionError::NotCtl.to_string().contains("CTL"));
    }

    #[test]
    fn fair_fragment_accepts_ctl_liveness() {
        for (src, k) in [
            ("AF crit_ge1", 0),
            ("AG AF crit_ge1", 0),
            ("EG !crit_ge1", 0),
            ("A[try_ge1 U crit_ge1]", 0),
            ("EX p", 0), // quantifier-free CTL keeps nexttime
            ("forall i. AG(try[i] -> AF crit[i])", 1),
            ("forall i. exists j. AG(crit[i] -> !crit[j])", 2),
        ] {
            let f = parse_state(src).unwrap();
            assert_eq!(fair_fragment_depth(&f), Ok(k), "{src}");
        }
    }

    #[test]
    fn fair_fragment_rejects_non_ctl_and_bad_quantification() {
        assert_eq!(
            fair_fragment_depth(&parse_state("A(G F p)").unwrap()),
            Err(RestrictionError::NotCtl)
        );
        assert_eq!(
            fair_fragment_depth(&parse_state("E(p U (q U r))").unwrap()),
            Err(RestrictionError::NotCtl)
        );
        // Quantified formulas keep the k-restricted rules.
        assert_eq!(
            fair_fragment_depth(&parse_state("AG (exists i. b[i])").unwrap()),
            Err(RestrictionError::QuantifierInUntil)
        );
        assert_eq!(
            fair_fragment_depth(&parse_state("forall i. EX p[i]").unwrap()),
            Err(RestrictionError::NextUsed)
        );
    }
}
