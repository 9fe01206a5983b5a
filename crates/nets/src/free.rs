//! The Section 6 stabilization claim: on free products, formulas with at
//! most `k` levels of index quantifiers cannot distinguish systems with
//! more than `k` processes.
//!
//! The paper: *"if f is a formula with k levels of `⋀_i` and `⋁_i`
//! operators and `M_n` is a Kripke structure obtained as a product of `n`
//! identical processes, then f will hold in `M_n` for `n > k` if and only
//! if f holds in `M_k`"* — easy for free (unsynchronized) products,
//! conjectured in general *in the paper*. For template-defined families
//! it is not decided here: agreement at a few small sizes does not
//! imply a cutoff (the guard chain of `tests/cutoff.rs` flips at
//! `n = 9`), so the service refuses unbounded size ranges until a
//! proven route exists. The tests below keep the brute-force check of
//! the claim on explicitly built free products: [`interleave`] plus
//! [`icstar_mc::IndexedChecker`] at every size above the formula's
//! depth.
//!
//! [`interleave`]: crate::template::interleave

use crate::template::ProcessTemplate;

/// A three-local-state cyclic template (`idle → work → done → idle`) used
/// to exercise the conjecture on a second family.
pub fn cyclic_template() -> ProcessTemplate {
    let mut t = crate::template::TemplateBuilder::new();
    let idle = t.state("idle", ["idle"]);
    let work = t.state("work", ["work"]);
    let done = t.state("done", ["done"]);
    t.edge(idle, work);
    t.edge(work, done);
    t.edge(done, idle);
    t.build(idle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::counting_formula;
    use crate::template::{fig41_template, interleave};
    use icstar_logic::{parse_state, quantifier_depth, StateFormula};
    use icstar_mc::IndexedChecker;

    /// The truth value of `f` on the free product of `n` copies of `t`.
    fn holds(t: &ProcessTemplate, f: &StateFormula, n: u32) -> bool {
        IndexedChecker::new(&interleave(t, n)).holds(f).unwrap()
    }

    #[test]
    fn counting_formulas_are_consistent_beyond_their_depth() {
        let t = fig41_template();
        for k in 1..=3usize {
            let f = counting_formula(k);
            assert_eq!(quantifier_depth(&f), k);
            for n in k as u32 + 1..=k as u32 + 3 {
                assert!(holds(&t, &f, n), "f_{k} holds at n = {n} > {k}");
            }
        }
    }

    #[test]
    fn boundary_case_m1_differs() {
        // Why the claim starts above k: a single process cannot be
        // starved by interleaving, so this depth-1 formula holds in M_1
        // but in no larger free product.
        let t = cyclic_template();
        let f = parse_state("exists i. AF done[i]").unwrap();
        assert!(holds(&t, &f, 1));
        // From n = 2 on, the value is constant — the conjecture.
        for n in 2..=4 {
            assert!(!holds(&t, &f, n), "n = {n}");
        }
    }

    #[test]
    fn depth_one_formulas_consistent_on_cycle() {
        let t = cyclic_template();
        for src in [
            "forall i. AG(idle[i] -> EF work[i])",
            "exists i. AF done[i]",
            "forall i. AG AF (idle[i] | work[i] | done[i])",
            "exists i. EG !done[i]",
        ] {
            let f = parse_state(src).unwrap();
            let values: Vec<bool> = (2..=4).map(|n| holds(&t, &f, n)).collect();
            assert!(values.windows(2).all(|w| w[0] == w[1]), "{src}: {values:?}");
        }
    }
}
