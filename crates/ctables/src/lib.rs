//! # certa-ctables
//!
//! Conditional tables (c-tables) and the approximation algorithms of
//! Greco, Molinaro and Trubitsyna surveyed in §4.2 of the PODS 2020 paper
//! "Coping with Incomplete Data: Recent Advances".
//!
//! A *c-tuple* is a pair `⟨t̄, φ⟩` of a tuple and a condition over nulls and
//! constants; a *c-table* is a set of c-tuples. An ordinary incomplete
//! database is converted into a conditional database in which every
//! condition is `true`, and relational-algebra operators are evaluated
//! *conditionally*: products conjoin conditions, selections add the
//! instantiated selection condition, difference records that a tuple must
//! not be matched by any tuple of the subtrahend, and so on.
//!
//! Conditions can then be *grounded* — reduced to `t`, `f` or `u` — at
//! different points of the evaluation, giving the four approximation
//! strategies of the paper (Theorem 4.9):
//!
//! | strategy | grounding point | extra propagation |
//! |---|---|---|
//! | [`Strategy::Eager`] | after every operator | none |
//! | [`Strategy::SemiEager`] | after every operator | equality propagation |
//! | [`Strategy::Lazy`] | after every difference | equality propagation |
//! | [`Strategy::Aware`] | at the very end | exact (minimal-rewriting) grounding |
//!
//! All four have correctness guarantees (their `t`-tuples are certain
//! answers with nulls) and run in polynomial time; the eager strategy
//! coincides with the `(Q+, Q?)` scheme of Guagliardo & Libkin
//! (`Q+ = Evalᵉ_t`, `Q? = Evalᵉ_p`), which the integration tests check.

pub mod cond;
pub mod ctable;
pub mod eval;

pub use cond::{Cond, CondAtom};
pub use ctable::{CDatabase, CTable, CTuple};
pub use eval::{eval_conditional, CondAnn, ConditionalResult, Strategy};

/// Errors raised by conditional evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtError {
    /// The operator is outside the fragment covered by the c-table
    /// algorithms (plain relational algebra).
    UnsupportedOperator(&'static str),
    /// A base relation is missing from the conditional database.
    UnknownRelation(String),
    /// An error bubbled up from expression validation.
    Algebra(certa_algebra::AlgebraError),
}

impl std::fmt::Display for CtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtError::UnsupportedOperator(op) => {
                write!(
                    f,
                    "operator `{op}` is not supported by conditional evaluation"
                )
            }
            CtError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            CtError::Algebra(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CtError {}

impl From<certa_algebra::AlgebraError> for CtError {
    fn from(e: certa_algebra::AlgebraError) -> Self {
        match e {
            // The engine rejects extended operators for the conditional
            // annotation domain (`SUPPORTS_EXTENDED = false`); surface that
            // with this crate's own diagnostic, as the seed evaluator did.
            certa_algebra::AlgebraError::UnsupportedOperator(op) => {
                CtError::UnsupportedOperator(op)
            }
            other => CtError::Algebra(other),
        }
    }
}

impl CtError {
    /// The governor trip behind this error, if that is what it is: a trip
    /// inside conditional evaluation surfaces through the algebra layer.
    pub fn governor_trip(&self) -> Option<&certa_data::GovernorError> {
        match self {
            CtError::Algebra(e) => e.governor_trip(),
            _ => None,
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CtError>;
