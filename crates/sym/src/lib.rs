//! Counter abstraction for symmetric networks — checking `n = 10,000`
//! identical processes without building `|S|^n` states.
//!
//! The paper's whole program is that networks of *identical* processes
//! should not cost `|S|^n` to verify. Its route is the correspondence
//! theorem (check a small instance, transfer the verdict). This crate
//! adds the complementary route opened by *full symmetry*: when the `n`
//! copies are interchangeable and composed by interleaving, a global
//! state is determined — up to symmetry — by its **occupancy vector**
//! (how many copies sit in each local state). Quotienting by the
//! symmetric group `Sym(n)` collapses the `|Q|^n` explicit states to at
//! most `binom(n + |Q| - 1, |Q| - 1)` counter states: exponential →
//! polynomial, with no approximation.
//!
//! # The abstraction
//!
//! * [`CounterState`] / [`CounterPacking`] — occupancy vectors and their
//!   packed machine-word encoding (the hash keys of exploration).
//! * [`GuardedTemplate`] — the workload: a local process template whose
//!   transitions may carry counting [`Guard`]s (threshold, equality, and
//!   interval tests over proposition or state occupancy — `#crit = 0`-style
//!   test-and-set and richer) plus **broadcast moves** ([`Broadcast`]):
//!   one copy steps and every other copy simultaneously follows a
//!   per-state response map — barriers, invalidation-based coherence,
//!   reset protocols — all still functions of the occupancy vector
//!   alone, so full symmetry (and exactness) is preserved and a
//!   broadcast costs O(|S|) per abstract transition regardless of `n`.
//! * [`CounterSystem`] — the abstract transition system, explored on the
//!   fly; [`CounterSystem::kripke`] materializes the reachable abstract
//!   graph as a stock [`icstar_kripke::Kripke`] labeled with counting
//!   atoms (`crit_ge2`, `try_eq0`, `one(crit)` — see [`labels`]), so the
//!   existing `icstar_mc` checkers run on it unchanged.
//! * [`representative`] — the multi-representative construction: `k`
//!   distinguished copies tracked explicitly (atoms `p[1] … p[k]`) plus
//!   counters for the rest, enabling indexed queries up to quantifier
//!   nesting depth `k` — `forall i. exists j. …` routes through width 2.
//! * [`SymEngine`] — the high-level entry point; dispatches between the
//!   counter and representative structures, picks the smallest
//!   sufficient width per formula ([`required_rep_width`]), and
//!   validates formulas.
//!
//! # Soundness boundary
//!
//! The quotient map from the explicit interleaved composition to the
//! counter structure is a **strong bisimulation** with respect to every
//! counting atom (the atoms are `Sym(n)`-invariant), so *all* of CTL* —
//! the nexttime operator included — transfers exactly for quantifier-free
//! formulas over counting atoms.
//!
//! Indexed formulas go through a width-`k` representative structure,
//! which is the quotient under the pointwise stabilizer of copies
//! `1..=k` — again a strong bisimulation, but only for the label
//! universe `{p[c] : c ≤ k} ∪ counting atoms`. Expanding a quantifier
//! over the bound values in scope plus one fresh representative
//! ([`icstar_logic::expand_representatives`]) is justified only where
//! the untracked copies are interchangeable, i.e. at the symmetric
//! initial state. Closed **k-restricted** ICTL*
//! ([`icstar_logic::restricted_depth`]: quantifiers nest freely but stay
//! outside `U`/`R`/`F`/`G` operands, no nexttime, no constant indices)
//! syntactically guarantees quantifiers are evaluated only there, so
//! that fragment is exactly what [`SymEngine::check`] accepts for
//! indexed formulas, with `k` the nesting depth (capped at `n`).
//! Formulas like `AG (exists i. c[i])`, whose quantifier would be
//! evaluated at non-symmetric states, are rejected rather than answered
//! unsoundly.
//!
//! Everything above is *mechanically audited*: [`verify_counter_abstraction`]
//! rebuilds the explicit composition for a small `n`, relabels it with
//! counting atoms, and demands a correspondence
//! ([`icstar_bisim::maximal_correspondence`]) with both abstract
//! structures.
//!
//! # Quickstart
//!
//! ```
//! use icstar_logic::parse_state;
//! use icstar_sym::{mutex_template, SymEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = SymEngine::new(mutex_template());
//!
//! // Audit the abstraction once at a small size...
//! engine.cross_check(3)?;
//!
//! // ...then check mutual exclusion at four-digit n directly.
//! assert!(engine.check(10_000, &parse_state("AG !crit_ge2")?)?);
//! assert!(engine.check(10_000, &parse_state("forall i. AG(try[i] -> EF crit[i])")?)?);
//! // Nested quantifiers route through two tracked copies.
//! assert!(engine.check(10_000, &parse_state("forall i. exists j. AG(crit[i] -> !crit[j])")?)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod counter;
mod cutoff;
mod engine;
mod error;
mod explore;
mod key;
mod rep;
mod template;
mod workloads;

pub mod arb;
pub mod crosscheck;
pub mod fairness;
pub mod labels;

pub use counter::{CounterPacking, CounterState, PackedCounter};
pub use crosscheck::{
    counting_relabel, full_relabel, guarded_interleave, guarded_interleave_with_states,
    representative_relabel, verify_counter_abstraction, verify_representative_width,
    CROSS_CHECK_MAX_WIDTH,
};
pub use cutoff::{
    guard_floor, spec_floor, CutoffCertificate, CutoffConfig, CutoffEvidence, CutoffRefusal,
};
pub use engine::{required_rep_width, CheckRun, SymEngine, SymSession};
pub use error::SymError;
pub use explore::CounterSystem;
pub use fairness::{check_fair_explicit, counter_graph, rep_graph, RepGraph};
pub use key::WorkloadKey;
pub use labels::CountingSpec;
pub use rep::{representative, representative_with_states, RepState, REPRESENTATIVE_INDEX};
pub use template::{
    mutex_template, ring_station_template, Broadcast, FairnessDecl, Guard, GuardedBuilder,
    GuardedTemplate,
};
pub use workloads::{barrier_template, msi_template, wakeup_template};
