//! Errors of the counter-abstraction engine.

use std::fmt;

use icstar_logic::RestrictionError;
use icstar_mc::McError;

/// Why a symmetric verification could not be completed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymError {
    /// The representative-process construction needs at least one copy.
    EmptyFamily,
    /// The requested number of distinguished copies cannot be tracked at
    /// this family size: the width must satisfy `1 ≤ width ≤ n`.
    BadRepWidth {
        /// The requested number of distinguished copies.
        width: u32,
        /// The family size.
        n: u32,
    },
    /// An indexed formula is outside closed restricted ICTL*. The
    /// representative construction is only sound for the restricted
    /// fragment (see the crate docs on the soundness boundary).
    NotRestricted(RestrictionError),
    /// The formula uses an atom the engine cannot interpret: a plain atom
    /// that is not a counting atom of the active
    /// [`CountingSpec`](crate::CountingSpec), an
    /// indexed or `Θ` proposition unknown to the template, or an indexed
    /// atom outside a quantifier.
    UnknownAtom(String),
    /// Model checking failed.
    Mc(McError),
    /// Cross-validation found a disagreement between the counter
    /// abstraction and the explicit composition — an engine bug, never
    /// expected on released code.
    AbstractionMismatch(String),
    /// An unbounded (`all n ≥ lo`) verification was requested. No size
    /// beyond the ones checked directly is answered: agreement at a few
    /// small sizes does not imply a cutoff, and no proven cutoff exists
    /// yet. Bounded sizes can still be checked directly.
    NoProvenCutoff,
}

impl fmt::Display for SymError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymError::EmptyFamily => {
                write!(f, "representative construction needs at least one process")
            }
            SymError::BadRepWidth { width, n } => {
                write!(
                    f,
                    "cannot track {width} distinguished copies in a family of {n}"
                )
            }
            SymError::NotRestricted(e) => {
                write!(f, "formula is not closed restricted ICTL*: {e}")
            }
            SymError::UnknownAtom(a) => {
                write!(
                    f,
                    "atom {a:?} is not interpretable on the abstract structure"
                )
            }
            SymError::Mc(e) => write!(f, "model checking failed: {e}"),
            SymError::AbstractionMismatch(m) => {
                write!(
                    f,
                    "counter abstraction disagrees with explicit composition: {m}"
                )
            }
            SymError::NoProvenCutoff => {
                write!(f, "no proven cutoff: unbounded sizes are not answered")
            }
        }
    }
}

impl std::error::Error for SymError {}

impl From<McError> for SymError {
    fn from(e: McError) -> Self {
        SymError::Mc(e)
    }
}

impl From<RestrictionError> for SymError {
    fn from(e: RestrictionError) -> Self {
        SymError::NotRestricted(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(SymError::EmptyFamily.to_string().contains("at least one"));
        assert!(SymError::BadRepWidth { width: 3, n: 2 }
            .to_string()
            .contains("3 distinguished copies in a family of 2"));
        assert!(SymError::UnknownAtom("x".into()).to_string().contains("x"));
        assert!(SymError::from(McError::FreeIndexVariable("i".into()))
            .to_string()
            .contains("model checking"));
        assert!(SymError::from(RestrictionError::NextUsed)
            .to_string()
            .contains("restricted"));
        assert!(SymError::AbstractionMismatch("boom".into())
            .to_string()
            .contains("boom"));
        assert!(SymError::NoProvenCutoff
            .to_string()
            .starts_with("no proven cutoff"));
    }
}
