//! CTL* and indexed CTL* (ICTL*) — the specification logic of Browne,
//! Clarke & Grumberg, *"Reasoning about Networks with Many Identical
//! Finite State Processes"*.
//!
//! The logic (paper Sections 2 and 4):
//!
//! * **CTL\*** state/path formulas *without* the nexttime operator
//!   (nexttime can count processes, breaking size-independence);
//! * **indexed propositions** `A_i` and the index quantifiers
//!   `⋀_i f(i)` (`forall i.`) / `⋁_i f(i)` (`exists i.`);
//! * the **restriction** making the logic correspondence-invariant: no
//!   nested index quantifiers and none inside `U` operands
//!   ([`check_restricted`]), plus its *k-restricted* generalization
//!   ([`restricted_depth`]) where quantifiers nest to depth `k` and the
//!   canonical index-tuple expansion ([`expand_representatives`])
//!   evaluates them over `k` representative copies;
//! * the **"exactly one"** extension `Θ P` (`one(P)`).
//!
//! This crate provides the AST ([`StateFormula`], [`PathFormula`]), a
//! parser ([`parse_state`]) and round-tripping printer, the paper's
//! well-formedness checks ([`check`]), negation normal form for the
//! model checker ([`nnf_path`]), quantifier-expansion substitution
//! ([`substitute_index`]) and random formula generation ([`arb`]).
//!
//! # Quickstart
//!
//! ```
//! use icstar_logic::{check_restricted, is_ctl, parse_state};
//!
//! // Property 4 of the paper's mutual-exclusion case study:
//! // every delayed process eventually enters its critical region.
//! let f = parse_state("forall i. AG(d[i] -> AF c[i])")?;
//! assert!(check_restricted(&f).is_ok());
//! assert!(is_ctl(&f));
//! # Ok::<(), icstar_logic::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod parse;
mod print;
mod subst;
mod tuples;

pub mod arb;
pub mod check;
pub mod nnf;

pub use ast::{build, IndexTerm, PathFormula, StateFormula};
pub use check::{
    check_restricted, collapse_states, fair_fragment_depth, free_index_vars, has_const_index,
    has_index_quantifier, is_closed, is_ctl, quantifier_depth, restricted_depth, uses_next,
    uses_next_path, RestrictionError,
};
pub use nnf::{nnf_path, Nnf};
pub use parse::{parse_path, parse_state, ParseError};
pub use subst::{substitute_index, substitute_index_path};
pub use tuples::expand_representatives;
