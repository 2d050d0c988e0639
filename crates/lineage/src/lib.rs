//! # certa-lineage
//!
//! Knowledge compilation for c-table lineage: the symbolic alternative to
//! possible-world enumeration.
//!
//! The c-table instantiation of the shared physical engine (§3, §4.2,
//! Theorem 4.9 of the survey) already attaches to every candidate tuple a
//! Boolean *condition* over null valuations — yet the exact certain-answer
//! machinery of `certa-certain` historically decided those conditions by
//! enumerating every possible world, exponential in the number of nulls.
//! This crate compiles the conditions instead, into **reduced, ordered,
//! hash-consed decision diagrams** over a finite-domain encoding of the
//! nulls (each null is a multi-valued variable ranging over the constant
//! pool — an MDD/BDD hybrid, not a binary encoding). On the canonical
//! form:
//!
//! * certainty is a tautology check (the diagram is the `TRUE` terminal),
//! * certain falsity is unsatisfiability (`FALSE`),
//! * `µ_k` is an exact model-count ratio in `u128`,
//! * bag multiplicity bounds `□Q`/`◇Q` are terminal min/max of an
//!   arithmetic diagram,
//!
//! all without visiting a single world — which is what opens instances
//! with dozens to thousands of nulls that enumeration can never reach.
//!
//! Module map:
//!
//! * [`store`] — the hash-consed node store: apply/negation caches,
//!   reduction, canonical terminals, memoized `u128` model counting;
//! * [`encode`] — the finite-domain variable encoding and the condition
//!   compiler, sharing `certa-ctables`' normalizer (NNF, constant folding,
//!   forced-equality substitution, the canonicalizing simplifier);
//! * [`order`] — deterministic variable-ordering heuristics seeded by
//!   `certa-algebra`'s optimizer statistics (null-dependence info);
//! * [`batch`] — [`LineageBatch`]: evaluate the query **once** over
//!   c-tables (aware strategy), compile per-candidate lineage, answer
//!   certain/possible/count queries;
//! * [`bag`] — [`BagLineageBatch`]: weighted conditional rows and
//!   arithmetic decision diagrams for exact multiplicity ranges on the
//!   monus-free fragment.
//!
//! `certa-certain` builds the `*_lineage` entry points on top of this
//! crate. `certa::Pipeline` answers exact requests with the world-mask
//! pass or with lineage: per instance, mask goes first up to a world-count
//! threshold, lineage beyond it, and lineage alone past the world bound.

pub mod bag;
pub mod batch;
pub mod encode;
pub mod order;
pub mod store;

pub use bag::{BagLineageBatch, WeightedCondAnn};
pub use batch::LineageBatch;
pub use encode::Encoding;
pub use order::var_order;
pub use store::{Forest, NodeId, FALSE, TRUE};

/// Errors raised by lineage compilation and counting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageError {
    /// The query lies outside the fragment whose symbolic reading provably
    /// coincides with per-world evaluation (extended operators, syntactic
    /// `const`/`null` predicates, null-bearing literals, bag monus).
    /// Callers try another exact backend.
    Unsupported(&'static str),
    /// A model count exceeded `u128` — the symbolic sibling of the world
    /// engines' `TooManyWorlds`: overflow surfaces as a value, never as a
    /// wrap.
    CountOverflow,
    /// An error bubbled up from conditional evaluation.
    CTable(certa_ctables::CtError),
    /// An error bubbled up from the algebra layer.
    Algebra(certa_algebra::AlgebraError),
    /// The resource governor refused further work — node-cap reached,
    /// deadline passed, or cancellation raised mid-compilation. Like
    /// [`LineageError::CountOverflow`], exhaustion is a value, never a
    /// wrong answer; unlike [`LineageError::Unsupported`], it is **not** a
    /// fragment boundary, so the dispatcher must not retry another backend
    /// under the same spent budget as if the query were out of fragment.
    Exhausted(certa_data::GovernorError),
}

impl std::fmt::Display for LineageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineageError::Unsupported(what) => {
                write!(f, "lineage compilation does not support {what}")
            }
            LineageError::CountOverflow => {
                write!(f, "exact model count exceeds u128")
            }
            LineageError::CTable(e) => write!(f, "{e}"),
            LineageError::Algebra(e) => write!(f, "{e}"),
            LineageError::Exhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LineageError {}

impl From<certa_ctables::CtError> for LineageError {
    fn from(e: certa_ctables::CtError) -> Self {
        match e {
            // The engine's rejection of extended operators is a fragment
            // boundary, not a failure: map it onto the fallback-able
            // variant.
            certa_ctables::CtError::UnsupportedOperator(op) => LineageError::Unsupported(op),
            other => LineageError::CTable(other),
        }
    }
}

impl From<certa_algebra::AlgebraError> for LineageError {
    fn from(e: certa_algebra::AlgebraError) -> Self {
        match e {
            certa_algebra::AlgebraError::UnsupportedOperator(op) => LineageError::Unsupported(op),
            // Normalize governor trips into the one `Exhausted` variant so
            // trip detection never has to chase nesting.
            certa_algebra::AlgebraError::Governor(g) => LineageError::Exhausted(g),
            other => LineageError::Algebra(other),
        }
    }
}

impl LineageError {
    /// `true` when the error marks a fragment boundary rather than a
    /// failure — the dispatcher moves on to the next exact backend.
    pub fn is_unsupported(&self) -> bool {
        matches!(self, LineageError::Unsupported(_))
    }

    /// The governor trip behind this error, if that is what it is — either
    /// a direct [`LineageError::Exhausted`] or a trip that surfaced through
    /// the algebra layer or conditional evaluation.
    pub fn governor_trip(&self) -> Option<&certa_data::GovernorError> {
        match self {
            LineageError::Exhausted(e) => Some(e),
            LineageError::Algebra(e) => e.governor_trip(),
            LineageError::CTable(e) => e.governor_trip(),
            _ => None,
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, LineageError>;
