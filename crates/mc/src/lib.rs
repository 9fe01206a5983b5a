//! Explicit-state model checking for CTL* and indexed CTL* — the
//! algorithmic engine of the `icstar` workspace.
//!
//! The paper's program ("use the temporal logic model checking algorithm
//! to verify the small instance, then transfer the result through the
//! correspondence") needs a checker for its logic. This crate provides:
//!
//! * the **CTL labeling algorithm** of Clarke–Emerson–Sistla as fixpoint
//!   primitives ([`ctl`]), each linear in the size of the structure;
//! * an **LTL → generalized Büchi** tableau ([`buchi`], GPVW-style) and a
//!   **product emptiness** check ([`product`]) that together lift the
//!   checker to full CTL* ([`Checker`]);
//! * **fair CTL**: the same operators restricted to the paths that meet
//!   a [`fair::TransFairness`] constraint (weak fairness of move groups,
//!   or state-set fairness). There is one checker: [`Checker::new`] is
//!   [`Checker::with_fairness`] under the empty constraint, and then
//!   every operator is the plain primitive;
//! * **indexed CTL\*** checking by quantifier expansion over an index set
//!   ([`IndexedChecker`]);
//! * an independent **naive lasso oracle** ([`naive`]) and
//!   **witness extraction** ([`witness`], [`Checker::exists_witness`]) for
//!   cross-validation and diagnostics.
//!
//! # Quickstart
//!
//! ```
//! use icstar_kripke::{Atom, KripkeBuilder};
//! use icstar_logic::parse_state;
//! use icstar_mc::Checker;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = KripkeBuilder::new();
//! let req = b.state_labeled("req", [Atom::plain("waiting")]);
//! let ack = b.state_labeled("ack", [Atom::plain("served")]);
//! b.edge(req, ack);
//! b.edge(ack, req);
//! let m = b.build(req)?;
//!
//! let mut chk = Checker::new(&m);
//! assert!(chk.holds(&parse_state("AG(waiting -> AF served)")?)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctlstar;
mod diagnose;
mod error;
mod indexed;

pub mod buchi;
pub mod ctl;
pub mod fair;
pub mod naive;
pub mod product;
pub mod witness;

pub use ctlstar::Checker;
pub use diagnose::{diagnose, render_lasso, FailureDiagnosis};
pub use error::McError;
pub use indexed::{expand, IndexedChecker};
