//! Kripke structures for `icstar`, the reproduction of Browne, Clarke &
//! Grumberg, *"Reasoning about Networks with Many Identical Finite State
//! Processes"* (PODC'86 / Information & Computation 81, 1989).
//!
//! This crate is the substrate of the workspace: finite labeled state
//! transition graphs (`M = (S, R, L, s₀)`, Section 2 of the paper) with
//!
//! * interned atomic propositions — plain `A`, indexed `A_i`, and the
//!   "exactly one" extension `Θ P` ([`Atom`]);
//! * total transition relations, enforced at construction
//!   ([`KripkeBuilder`]);
//! * indexed structures with index sets and the reduction `M|i`
//!   ([`IndexedKripke`], Section 4);
//! * label canonicalization across structures ([`compare`]), lassos and
//!   exhaustive lasso enumeration ([`path`]), DOT export ([`dot`]), and
//!   random generation plus stutter-inflation metamorphic transforms
//!   ([`gen`]).
//!
//! # Quickstart
//!
//! ```
//! use icstar_kripke::{Atom, KripkeBuilder};
//!
//! // A two-state mutex-ish toy: neutral <-> critical.
//! let mut b = KripkeBuilder::new();
//! let n = b.state_labeled("neutral", [Atom::plain("n")]);
//! let c = b.state_labeled("critical", [Atom::plain("c")]);
//! b.edge(n, c);
//! b.edge(c, n);
//! let m = b.build(n)?;
//! assert!(m.validate().is_ok());
//! assert_eq!(m.successors(n), &[c]);
//! # Ok::<(), icstar_kripke::StructureError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod builder;
mod indexed;
mod interner;
mod structure;

pub mod bits;
pub mod compare;
pub mod dot;
pub mod gen;
pub mod path;

pub use atom::{Atom, AtomId, AtomTable, Index, CANONICAL_INDEX};
pub use builder::KripkeBuilder;
pub use indexed::IndexedKripke;
pub use interner::LabelInterner;
pub use structure::{Kripke, StateId, StructureError};
