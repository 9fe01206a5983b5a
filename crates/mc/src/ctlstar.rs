//! The CTL* model checker.
//!
//! [`Checker`] labels a structure with the satisfying-state set of any
//! (quantifier-free, closed) CTL* state formula, recursively:
//!
//! * boolean structure and atoms are evaluated directly on the labels;
//! * path quantifications in **CTL shape** (`E[f U g]`, `AG f`, `EX f`, …)
//!   go through the operators of [`crate::fair`], which are the
//!   linear-time fixpoint primitives of [`crate::ctl`] when no fairness
//!   constraint is given — this is the algorithm the paper invokes
//!   (Clarke–Emerson–Sistla);
//! * arbitrary path formulas go through the automata route: maximal state
//!   subformulas are checked recursively and become literals, the rest is
//!   LTL translated to a generalized Büchi automaton ([`crate::buchi`])
//!   and decided on the product ([`crate::product`]). This route ignores
//!   fairness, so under a constraint such formulas are refused.
//!
//! Index quantifiers are *not* handled here — see
//! [`IndexedChecker`](crate::IndexedChecker), which expands them over a
//! concrete index set and delegates to this checker.

use std::collections::HashMap;
use std::rc::Rc;

use icstar_kripke::bits::BitSet;
use icstar_kripke::path::Lasso;
use icstar_kripke::{Atom, Kripke, StateId};
use icstar_logic::{collapse_states, nnf_path, IndexTerm, Nnf, PathFormula, StateFormula};

use crate::buchi::{ltl_to_gba, LitId};
use crate::ctl;
use crate::error::McError;
use crate::fair::{self, TransFairness};
use crate::product::Product;

/// The empty constraint [`Checker::new`] checks under.
static UNCONSTRAINED: TransFairness = TransFairness::unconstrained();

/// A CTL* model checker for one structure under one fairness constraint
/// (none for [`Checker::new`]), with a satisfaction cache shared across
/// formulas (state subformulas are checked once).
///
/// # Examples
///
/// ```
/// use icstar_kripke::{Atom, KripkeBuilder};
/// use icstar_logic::parse_state;
/// use icstar_mc::Checker;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = KripkeBuilder::new();
/// let s0 = b.state_labeled("s0", [Atom::plain("p")]);
/// let s1 = b.state_labeled("s1", [Atom::plain("q")]);
/// b.edge(s0, s1);
/// b.edge(s1, s0);
/// let m = b.build(s0)?;
///
/// let mut chk = Checker::new(&m);
/// assert!(chk.holds(&parse_state("AG (p | q)")?)?);
/// assert!(chk.holds(&parse_state("A(G F p)")?)?); // full CTL*, not CTL
/// assert!(!chk.holds(&parse_state("EG p")?)?);
/// # Ok(())
/// # }
/// ```
pub struct Checker<'a> {
    m: &'a Kripke,
    fair: &'a TransFairness,
    cache: HashMap<StateFormula, Rc<BitSet>>,
}

impl<'a> Checker<'a> {
    /// Creates a checker for `m` with no fairness constraint: path
    /// quantifiers range over all paths.
    pub fn new(m: &'a Kripke) -> Self {
        Checker::with_fairness(m, &UNCONSTRAINED)
    }

    /// Creates a checker for `m` whose path quantifiers range over the
    /// paths that are fair under `fair` only.
    ///
    /// Under a non-empty constraint only the CTL fragment is supported:
    /// every path quantifier must wrap a single temporal operator over
    /// state operands (after [`collapse_states`] normalization), since
    /// the fair-SCC labeling does not extend to arbitrary CTL* path
    /// nesting. Other shapes are rejected with [`McError::NotCtl`].
    ///
    /// # Examples
    ///
    /// ```
    /// use icstar_kripke::{Atom, KripkeBuilder};
    /// use icstar_kripke::bits::BitSet;
    /// use icstar_logic::parse_state;
    /// use icstar_mc::fair::{FairReq, TransFairness};
    /// use icstar_mc::Checker;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // idle -> idle (stutter), idle -> done -> done.
    /// let mut b = KripkeBuilder::new();
    /// let idle = b.state_labeled("idle", [Atom::plain("idle")]);
    /// let done = b.state_labeled("done", [Atom::plain("done")]);
    /// b.edge(idle, idle);
    /// b.edge(idle, done);
    /// b.edge(done, done);
    /// let m = b.build(idle)?;
    ///
    /// // Weak fairness of the idle -> done move: released at `done` (the
    /// // move is disabled there), taken on the idle -> done edge.
    /// let req = FairReq::new(
    ///     BitSet::from_iter_with_capacity(2, [done.idx()]),
    ///     [(idle.0, done.0)],
    /// );
    /// let fair = TransFairness::new([req]);
    ///
    /// // Plain AF done fails (the idle stutter loop); fair AF done holds.
    /// let af_done = parse_state("AF done")?;
    /// assert!(Checker::with_fairness(&m, &fair).holds(&af_done)?);
    /// assert!(!Checker::new(&m).holds(&af_done)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_fairness(m: &'a Kripke, fair: &'a TransFairness) -> Self {
        Checker {
            m,
            fair,
            cache: HashMap::new(),
        }
    }

    /// The structure under analysis.
    pub fn structure(&self) -> &'a Kripke {
        self.m
    }

    /// Whether `f` holds in the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`McError`] if `f` contains free index variables or index
    /// quantifiers, or, under fairness, leaves the CTL fragment.
    pub fn holds(&mut self, f: &StateFormula) -> Result<bool, McError> {
        Ok(self.sat(f)?.contains(self.m.initial().idx()))
    }

    /// Whether `f` holds at state `s`.
    ///
    /// # Errors
    ///
    /// See [`Checker::holds`].
    pub fn holds_at(&mut self, s: StateId, f: &StateFormula) -> Result<bool, McError> {
        Ok(self.sat(f)?.contains(s.idx()))
    }

    /// The set of states satisfying `f`.
    ///
    /// # Errors
    ///
    /// See [`Checker::holds`].
    pub fn sat(&mut self, f: &StateFormula) -> Result<Rc<BitSet>, McError> {
        if let Some(hit) = self.cache.get(f) {
            return Ok(Rc::clone(hit));
        }
        let result = self.compute(f)?;
        let rc = Rc::new(result);
        self.cache.insert(f.clone(), Rc::clone(&rc));
        Ok(rc)
    }

    fn compute(&mut self, f: &StateFormula) -> Result<BitSet, McError> {
        use StateFormula::*;
        Ok(match f {
            True => ctl::full_set(self.m),
            False => ctl::empty_set(self.m),
            Prop(n) => self.sat_atom(&Atom::plain(n.clone())),
            Indexed(n, IndexTerm::Const(c)) => self.sat_atom(&Atom::indexed(n.clone(), *c)),
            Indexed(_, IndexTerm::Var(v)) => return Err(McError::FreeIndexVariable(v.clone())),
            ExactlyOne(n) => self.sat_exactly_one(n),
            Not(g) => {
                let mut s = (*self.sat(g)?).clone();
                s.complement();
                s
            }
            And(a, b) => {
                let mut s = (*self.sat(a)?).clone();
                let sb = self.sat(b)?;
                s.intersect_with(&sb);
                s
            }
            Or(a, b) => {
                let mut s = (*self.sat(a)?).clone();
                let sb = self.sat(b)?;
                s.union_with(&sb);
                s
            }
            Implies(a, b) => {
                let mut s = (*self.sat(a)?).clone();
                s.complement();
                let sb = self.sat(b)?;
                s.union_with(&sb);
                s
            }
            Iff(a, b) => {
                // ¬(a xor b), a word at a time.
                let mut s = (*self.sat(a)?).clone();
                let sb = self.sat(b)?;
                for (w, b) in s.words_mut().iter_mut().zip(sb.words()) {
                    *w ^= b;
                }
                s.complement();
                s
            }
            ForallIdx(v, _) | ExistsIdx(v, _) => {
                return Err(McError::QuantifierWithoutIndexSet(v.clone()))
            }
            Exists(p) => self.sat_quantified(true, p)?,
            All(p) => self.sat_quantified(false, p)?,
        })
    }

    /// The states labeled `atom`, with the atom's id looked up once.
    fn sat_atom(&self, atom: &Atom) -> BitSet {
        match self.m.atoms().id(atom) {
            Some(id) => self.sat_label(|label| label.contains(id.idx())),
            None => BitSet::new(self.m.num_states()),
        }
    }

    /// The states whose label satisfies `holds`, which is decided once
    /// per distinct label; the result is written 64 states to a word.
    fn sat_label(&self, holds: impl Fn(&BitSet) -> bool) -> BitSet {
        let (labels, label_of) = self.m.label_parts();
        let label_holds: Vec<bool> = labels.iter().map(holds).collect();
        let mut out = BitSet::new(self.m.num_states());
        for (word, states) in out.words_mut().iter_mut().zip(label_of.chunks(64)) {
            *word = (states.iter().enumerate())
                .fold(0, |w, (i, &l)| w | (label_holds[l as usize] as u64) << i);
        }
        out
    }

    /// `Θ P`: prefer a baked-in `one(P)` atom (added by
    /// [`IndexedKripke::with_exactly_one`](icstar_kripke::IndexedKripke::with_exactly_one));
    /// otherwise count the indexed instances of `P` present in each label.
    fn sat_exactly_one(&self, name: &str) -> BitSet {
        let theta = Atom::exactly_one(name.to_string());
        if self.m.atoms().id(&theta).is_some() {
            return self.sat_atom(&theta);
        }
        let ids: Vec<usize> = self
            .m
            .atoms()
            .iter()
            .filter(|(_, a)| a.is_indexed() && a.name() == name)
            .map(|(id, _)| id.idx())
            .collect();
        self.sat_label(|label| ids.iter().filter(|&&b| label.contains(b)).count() == 1)
    }

    /// `E p` (`exists = true`) or `A p` (`exists = false`).
    fn sat_quantified(&mut self, exists: bool, p: &PathFormula) -> Result<BitSet, McError> {
        use PathFormula::*;
        let p = collapse_states(p);
        let (m, fair) = (self.m, self.fair);
        // CTL shapes: the fair operators, which are the plain primitives
        // when unconstrained.
        if exists {
            match &p {
                // A state formula holds on some fair path iff it holds
                // here and a fair path starts here.
                State(f) => {
                    let mut s = (*self.sat(f)?).clone();
                    if !fair.is_empty() {
                        s.intersect_with(fair.fair_set(m));
                    }
                    return Ok(s);
                }
                Until(a, b) => {
                    if let (State(f), State(g)) = (&**a, &**b) {
                        let sf = self.sat(f)?;
                        let sg = self.sat(g)?;
                        return Ok(fair::eu_fair(m, &sf, &sg, fair));
                    }
                }
                Release(a, b) => {
                    if let (State(f), State(g)) = (&**a, &**b) {
                        let sf = self.sat(f)?;
                        let sg = self.sat(g)?;
                        return Ok(fair::er_fair(m, &sf, &sg, fair));
                    }
                }
                Eventually(g) => {
                    if let State(f) = &**g {
                        let sf = self.sat(f)?;
                        return Ok(fair::eu_fair(m, &ctl::full_set(m), &sf, fair));
                    }
                }
                Globally(g) => {
                    if let State(f) = &**g {
                        let sf = self.sat(f)?;
                        return Ok(fair::eg_fair(m, &sf, fair));
                    }
                }
                Next(g) => {
                    if let State(f) = &**g {
                        let sf = self.sat(f)?;
                        return Ok(fair::ex_fair(m, &sf, fair));
                    }
                }
                _ => {}
            }
        } else {
            match &p {
                // Vacuously true where no fair path starts.
                State(f) => {
                    let sf = self.sat(f)?;
                    if fair.is_empty() {
                        return Ok((*sf).clone());
                    }
                    let mut s = fair::fair_states(m, fair);
                    s.complement();
                    s.union_with(&sf);
                    return Ok(s);
                }
                // A[f U g] = ¬E[¬g U ¬f∧¬g] ∧ ¬EG ¬g
                Until(a, b) => {
                    if let (State(f), State(g)) = (&**a, &**b) {
                        let nf = self.sat(&(**f).clone().not())?;
                        let ng = self.sat(&(**g).clone().not())?;
                        let mut nfng = (*nf).clone();
                        nfng.intersect_with(&ng);
                        let mut bad = fair::eu_fair(m, &ng, &nfng, fair);
                        bad.union_with(&fair::eg_fair(m, &ng, fair));
                        bad.complement();
                        return Ok(bad);
                    }
                }
                // A[f R g] = ¬E[¬f U ¬g]
                Release(a, b) => {
                    if let (State(f), State(g)) = (&**a, &**b) {
                        let nf = self.sat(&(**f).clone().not())?;
                        let ng = self.sat(&(**g).clone().not())?;
                        let mut bad = fair::eu_fair(m, &nf, &ng, fair);
                        bad.complement();
                        return Ok(bad);
                    }
                }
                Eventually(g) => {
                    if let State(f) = &**g {
                        let sf = self.sat(f)?;
                        return Ok(fair::af_fair(m, &sf, fair));
                    }
                }
                Globally(g) => {
                    if let State(f) = &**g {
                        let sf = self.sat(f)?;
                        return Ok(fair::ag_fair(m, &sf, fair));
                    }
                }
                Next(g) => {
                    if let State(f) = &**g {
                        let sf = self.sat(f)?;
                        return Ok(fair::ax_fair(m, &sf, fair));
                    }
                }
                _ => {}
            }
        }
        // The fair-SCC labeling does not extend to arbitrary path
        // nesting, and the automata route below ignores fairness.
        if !fair.is_empty() {
            return Err(McError::NotCtl(p.to_string()));
        }
        // General CTL* route: A p = ¬E ¬p; E p via the Büchi product.
        let query = if exists { p } else { Not(Box::new(p)) };
        let mut result = self.sat_exists_general(&query)?;
        if !exists {
            result.complement();
        }
        Ok(result)
    }

    /// The automata route for `E p`, arbitrary `p`.
    fn sat_exists_general(&mut self, p: &PathFormula) -> Result<BitSet, McError> {
        let (nnf, lits) = self.literalize(p)?;
        let gba = ltl_to_gba(&nnf);
        let prod = Product::explore(self.m, &gba, &lits);
        Ok(prod.e_states())
    }

    /// A satisfying lasso for `E p` from `s`, if any — the witness (or,
    /// applied to `¬p`, the counterexample) surfaced to users.
    ///
    /// # Errors
    ///
    /// See [`Checker::holds`]; [`McError::FairWitness`] under a non-empty
    /// fairness constraint, since the lasso would ignore it.
    pub fn exists_witness(
        &mut self,
        s: StateId,
        p: &PathFormula,
    ) -> Result<Option<Lasso>, McError> {
        if !self.fair.is_empty() {
            return Err(McError::FairWitness);
        }
        let p = collapse_states(p);
        let (nnf, lits) = self.literalize(&p)?;
        let gba = ltl_to_gba(&nnf);
        let prod = Product::explore(self.m, &gba, &lits);
        Ok(prod.witness(s))
    }

    /// Converts a path formula into NNF over literal ids, checking each
    /// maximal state subformula recursively.
    fn literalize(&mut self, p: &PathFormula) -> Result<(Nnf<LitId>, Vec<BitSet>), McError> {
        let nnf = nnf_path(p);
        let mut table: Vec<BitSet> = Vec::new();
        let mut ids: HashMap<StateFormula, LitId> = HashMap::new();
        let out = self.map_lits(&nnf, &mut table, &mut ids)?;
        Ok((out, table))
    }

    fn map_lits(
        &mut self,
        f: &Nnf<StateFormula>,
        table: &mut Vec<BitSet>,
        ids: &mut HashMap<StateFormula, LitId>,
    ) -> Result<Nnf<LitId>, McError> {
        Ok(match f {
            Nnf::True => Nnf::True,
            Nnf::False => Nnf::False,
            Nnf::Lit { atom, negated } => {
                let id = match ids.get(atom) {
                    Some(&id) => id,
                    None => {
                        let sat = (*self.sat(atom)?).clone();
                        let id = LitId(table.len() as u32);
                        table.push(sat);
                        ids.insert(atom.clone(), id);
                        id
                    }
                };
                Nnf::Lit {
                    atom: id,
                    negated: *negated,
                }
            }
            Nnf::And(a, b) => Nnf::And(
                Rc::new(self.map_lits(a, table, ids)?),
                Rc::new(self.map_lits(b, table, ids)?),
            ),
            Nnf::Or(a, b) => Nnf::Or(
                Rc::new(self.map_lits(a, table, ids)?),
                Rc::new(self.map_lits(b, table, ids)?),
            ),
            Nnf::Until(a, b) => Nnf::Until(
                Rc::new(self.map_lits(a, table, ids)?),
                Rc::new(self.map_lits(b, table, ids)?),
            ),
            Nnf::Release(a, b) => Nnf::Release(
                Rc::new(self.map_lits(a, table, ids)?),
                Rc::new(self.map_lits(b, table, ids)?),
            ),
            Nnf::Next(a) => Nnf::Next(Rc::new(self.map_lits(a, table, ids)?)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_kripke::KripkeBuilder;
    use icstar_logic::parse_state;

    /// The classic microwave-ish example:
    /// s0() -> s1(p) -> s2(p,q) -> s0 ; s2 -> s2 ; s0 -> s3(q) -> s3
    fn sample() -> Kripke {
        let mut b = KripkeBuilder::new();
        let s0 = b.state("s0");
        let s1 = b.state_labeled("s1", [Atom::plain("p")]);
        let s2 = b.state_labeled("s2", [Atom::plain("p"), Atom::plain("q")]);
        let s3 = b.state_labeled("s3", [Atom::plain("q")]);
        b.edge(s0, s1);
        b.edge(s1, s2);
        b.edge(s2, s0);
        b.edge(s2, s2);
        b.edge(s0, s3);
        b.edge(s3, s3);
        b.build(s0).unwrap()
    }

    fn sat_ids(m: &Kripke, src: &str) -> Vec<usize> {
        let mut chk = Checker::new(m);
        let f = parse_state(src).unwrap();
        chk.sat(&f).unwrap().iter().collect()
    }

    #[test]
    fn atoms_and_booleans() {
        let m = sample();
        assert_eq!(sat_ids(&m, "p"), vec![1, 2]);
        assert_eq!(sat_ids(&m, "q"), vec![2, 3]);
        assert_eq!(sat_ids(&m, "p & q"), vec![2]);
        assert_eq!(sat_ids(&m, "p | q"), vec![1, 2, 3]);
        assert_eq!(sat_ids(&m, "!p"), vec![0, 3]);
        assert_eq!(sat_ids(&m, "p -> q"), vec![0, 2, 3]);
        assert_eq!(sat_ids(&m, "p <-> q"), vec![0, 2]);
        assert_eq!(sat_ids(&m, "true").len(), 4);
        assert_eq!(sat_ids(&m, "false").len(), 0);
    }

    #[test]
    fn unknown_atom_is_false_everywhere() {
        let m = sample();
        assert!(sat_ids(&m, "nosuch").is_empty());
    }

    #[test]
    fn ctl_operators() {
        let m = sample();
        assert_eq!(sat_ids(&m, "EX p"), vec![0, 1, 2]); // s2 -> s2 self-loop
        assert_eq!(sat_ids(&m, "AX p"), vec![1]); // s1 -> {s2} only
        assert_eq!(sat_ids(&m, "EF q").len(), 4);
        assert_eq!(sat_ids(&m, "AF q").len(), 4); // every path hits q
        assert_eq!(sat_ids(&m, "EG q"), vec![2, 3]);
        assert_eq!(sat_ids(&m, "AG q"), vec![3]);
        assert_eq!(sat_ids(&m, "E[p U q]"), vec![1, 2, 3]);
        // A[p U q]: s3 trivially (q); s2 (q now); s1: only path via s2: ok.
        assert_eq!(sat_ids(&m, "A[p U q]"), vec![1, 2, 3]);
    }

    #[test]
    fn release_shapes() {
        let m = sample();
        // E[p R q]: q until p∧q (inclusive) or q forever.
        // s3: q forever (s3^ω) ✓. s2: p∧q now ✓.
        assert_eq!(sat_ids(&m, "E(p R q)"), vec![2, 3]);
        // A[p R q] at s3: only path s3^ω stays in q ✓.
        let a_r = sat_ids(&m, "A(p R q)");
        assert!(a_r.contains(&3));
        assert!(!a_r.contains(&0));
    }

    #[test]
    fn full_ctl_star_formulas() {
        let m = sample();
        // A(G F p) — along every path, p infinitely often? The s3 self-loop
        // never sees p, so it fails at s3 and at any state that can reach
        // s3... for A it fails where SOME path violates: everywhere (all
        // states except... s0 -> s3^ω: violates; s1 -> s2 -> s0 -> s3:
        // violates; s2 -> s2^ω has p forever: but A needs ALL paths.
        assert_eq!(sat_ids(&m, "A(G F p)"), Vec::<usize>::new());
        // E(G F p): loop s2^ω visits p infinitely often; reachable from all
        // of s0,s1,s2 but not s3.
        assert_eq!(sat_ids(&m, "E(G F p)"), vec![0, 1, 2]);
        // E(F G q): eventually forever q: s3^ω or s2^ω work.
        assert_eq!(sat_ids(&m, "E(F G q)").len(), 4);
        // A(F G q): s3 only (its single path is s3^ω)? s2 can loop in q
        // forever but can also go s0 -> s1 -> s2... which visits p-only
        // and q-less states infinitely often unless it settles; the path
        // (s2 s0 s1)^ω never settles in q: fails. s3: holds.
        assert_eq!(sat_ids(&m, "A(F G q)"), vec![3]);
        // Boolean path structure: E(F p & F q).
        assert_eq!(sat_ids(&m, "E(F p & F q)"), vec![0, 1, 2]);
        // Until over non-state operands: E((p U q) U (q & !p)).
        let v = sat_ids(&m, "E((p U q) U (q & !p))");
        assert!(v.contains(&3));
    }

    #[test]
    fn ctl_and_ctlstar_agree_on_ctl() {
        // The CTL fast path and the Büchi route must agree: force the
        // general route by wrapping in redundant path structure.
        let m = sample();
        for (ctl_src, star_src) in [
            ("EF q", "E(true U q)"),
            ("AG p", "!E(F !p)"),
            ("AF q", "A(F q)"),
            ("EG q", "E(G q)"),
            ("E[p U q]", "E(p U q)"),
        ] {
            assert_eq!(sat_ids(&m, ctl_src), sat_ids(&m, star_src), "{ctl_src}");
        }
    }

    #[test]
    fn quantifier_without_index_set_errors() {
        let m = sample();
        let mut chk = Checker::new(&m);
        let f = parse_state("forall i. p").unwrap();
        assert!(matches!(
            chk.sat(&f),
            Err(McError::QuantifierWithoutIndexSet(_))
        ));
        let g = parse_state("d[i]").unwrap();
        assert!(matches!(chk.sat(&g), Err(McError::FreeIndexVariable(_))));
    }

    #[test]
    fn witness_for_general_path_formula() {
        let m = sample();
        let mut chk = Checker::new(&m);
        let p = icstar_logic::parse_path("G F p").unwrap();
        let w = chk
            .exists_witness(StateId(0), &p)
            .unwrap()
            .expect("E(GF p) holds at s0");
        assert!(w.is_path_of(&m));
        // The cycle must contain a p-state.
        assert!(w
            .cycle
            .iter()
            .any(|&s| m.satisfies_atom(s, &Atom::plain("p"))));
    }

    #[test]
    fn cache_is_reused() {
        let m = sample();
        let mut chk = Checker::new(&m);
        let f = parse_state("EF q").unwrap();
        let a = chk.sat(&f).unwrap();
        let b = chk.sat(&f).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn exactly_one_computed_on_the_fly() {
        let mut b = KripkeBuilder::new();
        let s0 = b.state_labeled("s0", [Atom::indexed("t", 1)]);
        let s1 = b.state_labeled("s1", [Atom::indexed("t", 1), Atom::indexed("t", 2)]);
        let s2 = b.state("s2");
        b.edge(s0, s1);
        b.edge(s1, s2);
        b.edge(s2, s0);
        let m = b.build(s0).unwrap();
        assert_eq!(sat_ids(&m, "one(t)"), vec![0]);
        assert_eq!(sat_ids(&m, "AG one(t)"), Vec::<usize>::new());
    }
}
