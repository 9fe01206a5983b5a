//! Networks of identical finite-state processes — the systems the paper
//! reasons about, built concretely.
//!
//! * [`template`] — process templates and free (interleaved) composition;
//! * [`ring`] — the Section 5 token-ring mutual exclusion family, with
//!   the Appendix rank function and hand-built correspondence, both
//!   explicit and on-the-fly (for 1000-process spot checks);
//! * [`formulas`] — the paper's invariants and the four verified
//!   properties, verbatim;
//! * [`figures`] — reconstructions of Figs. 3.1 and (via [`counting`])
//!   4.1;
//! * [`fixtures`] — canonical `icstar-wire` textual forms of the
//!   recurring workloads (Fig. 4.1, the mutex, the station ring, and
//!   the broadcast gallery: barrier, MSI cache, wake-up/reset);
//! * [`counting`] — the process-counting formulas that motivate the
//!   ICTL* restriction;
//! * [`free`] — the Section 6 nesting-depth conjecture, tested
//!   empirically;
//! * [`buggy`] — mutated rings as negative controls.
//!
//! # Quickstart
//!
//! ```
//! use icstar_mc::IndexedChecker;
//! use icstar_nets::{ring_mutex, ring_properties};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ring = ring_mutex(2); // Fig. 5.1: 8 states
//! let mut chk = IndexedChecker::new(ring.structure());
//! for prop in ring_properties() {
//!     assert!(chk.holds(&prop.formula)?, "{} fails", prop.name);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buggy;
pub mod counting;
pub mod figures;
pub mod fixtures;
pub mod formulas;
pub mod free;
pub mod ring;
pub mod server;
pub mod template;

pub use buggy::{buggy_ring, Mutation};
pub use counting::counting_formula;
pub use figures::{fig31_left, fig31_right};
pub use formulas::{ring_invariants, ring_properties, NamedFormula};
pub use ring::{
    paper_related, rank_sum_degree, repaired_related, ring_mutex, Part, ReducedRing, Ring,
    RingFamily, RingState,
};
pub use server::{client_server, server_properties};
pub use template::{
    fig41_template, interleave, random_template, ProcessTemplate, RandomTemplateConfig,
    TemplateBuilder,
};
