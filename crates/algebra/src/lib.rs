//! # certa-algebra
//!
//! Relational algebra over incomplete databases, following §2 and §4 of the
//! PODS 2020 survey "Coping with Incomplete Data: Recent Advances".
//!
//! The crate provides:
//!
//! * [`RaExpr`] — the relational-algebra AST with the paper's operators
//!   (selection σ, projection π, product ×, union ∪, intersection ∩,
//!   difference −, division ÷) plus the two *extended* operators used by the
//!   approximation schemes of §4.2: the active-domain power `Domᵏ` and the
//!   unification anti-semijoin `⋉⇑`;
//! * [`Condition`] — selection conditions built with the paper's grammar
//!   `const(A) | null(A) | A = B | A = c | A ≠ B | A ≠ c | θ∨θ | θ∧θ`,
//!   together with negation-propagation, the `θ*` rewriting of Figure 2 and
//!   the SQL-style rewriting used by the SQL front-end;
//! * [`opt`] — the **null-aware logical optimizer**: selection pushdown,
//!   greedy cardinality-estimated join reordering, dead-column pruning and
//!   null-dependence clustering, applied before physical planning
//!   ([`PreparedQuery::prepare_optimized`]);
//! * [`physical`] — the **annotation-generic physical engine**: one
//!   operator pipeline (hash join, scan-pushed selection, hash-resolved
//!   intersection/difference) instantiated over annotation domains, plus
//!   the evaluate-once world split ([`physical::PreparedWorldQuery`]) that
//!   hoists null-independent subplans out of per-world execution;
//! * [`mask`] — **world-mask evaluation** ([`mask::ColumnarExec`]): every
//!   row carries a bitset of the possible worlds containing it, so the whole
//!   possible-worlds quantification is answered in a *single* plan
//!   execution, 64 worlds per word operation — including the extended
//!   operators and the syntactic predicates outside the lineage fragment;
//!   the executor stores all mask words of a relation in one contiguous
//!   arena ([`mask::columnar`]) and drives the plan batch-at-a-time through
//!   the explicit word kernels of [`mask::kernel`];
//! * [`morsel`] — the morsel-driven scheduler ([`morsel::MorselPool`]):
//!   scoped worker threads pulling ~1k-row chunks off an atomic cursor,
//!   with morsel-order result delivery so parallel runs are bit-identical
//!   to sequential ones;
//! * [`eval`](mod@eval) — set-semantics evaluation (nulls treated as plain
//!   values, i.e. the evaluation underlying naïve evaluation), an adapter
//!   over the physical engine at [`physical::SetAnn`];
//! * [`bag_eval`] — bag-semantics evaluation consistent with SQL (§4.2), an
//!   adapter over the physical engine at [`physical::BagAnn`];
//! * [`naive`] — naïve evaluation `Qⁿᵃⁱᵛᵉ(D) = v⁻¹(Q(v(D)))` (§4.1),
//!   routed through [`eval`](mod@eval) and therefore through the engine;
//! * [`reference`](mod@reference) — the seed's recursive clone-per-node
//!   interpreters, kept as oracles for property tests and ablation benches;
//! * [`fragment`] — syntactic classification of queries into the fragments
//!   for which the survey gives naïve-evaluation guarantees (CQ, UCQ /
//!   positive RA, Pos∀G, full RA);
//! * [`builder`] — ergonomic construction of expressions against a schema,
//!   with attribute names resolved to positions.
//!
//! ## One engine, three semantics
//!
//! Set semantics (§4), bag semantics (§5) and conditional tables (§3) are
//! the same relational-algebra evaluation over different *annotation
//! domains* — presence, multiplicity, and local conditions respectively.
//! The [`physical`] module implements the evaluation once, generically over
//! the [`physical::Annotation`] trait; `certa-ctables` instantiates it a
//! third time with c-table conditions. Which paper section each instance
//! implements, the laws the trait demands, and how to add a fourth domain
//! are documented in `ARCHITECTURE.md` at the repository root and on the
//! [`physical`] module itself.

pub mod bag_eval;
pub mod builder;
pub mod eval;
pub mod expr;
pub mod fragment;
pub mod governor;
pub mod mask;
pub mod morsel;
pub mod naive;
pub mod opt;
pub mod physical;
pub mod reference;

pub use builder::QueryBuilder;
pub use eval::eval;
pub use expr::{Condition, Operand, RaExpr};
pub use fragment::{classify, Fragment};
pub use governor::{CancelToken, ExecBudget, Governor, GovernorAccounting};
pub use mask::{ColumnarContext, ColumnarExec, ColumnarRel, ExecStats};
pub use morsel::{effective_threads, MorselPool, MORSEL_ROWS};
pub use naive::naive_eval;
pub use opt::{optimize, optimize_with, Stats};
pub use physical::{
    delta_profile, AnnRel, Annotation, BagAnn, BagValuationSource, DeltaProfile, OpKind, PhysOp,
    PreparedQuery, PreparedWorldQuery, SetAnn, Source, ValuationSource,
};

/// Errors raised while validating or evaluating relational-algebra
/// expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// A base relation mentioned by the query is not in the schema.
    UnknownRelation(String),
    /// An attribute position is out of range for the sub-expression's arity.
    PositionOutOfRange {
        /// The offending position.
        position: usize,
        /// The arity of the sub-expression it was applied to.
        arity: usize,
    },
    /// A binary operator was applied to sub-expressions of different arities.
    ArityMismatch {
        /// Operator name (for diagnostics).
        operator: &'static str,
        /// Arity of the left operand.
        left: usize,
        /// Arity of the right operand.
        right: usize,
    },
    /// Division `R ÷ S` requires `arity(R) > arity(S)`.
    InvalidDivision {
        /// Arity of the dividend.
        dividend: usize,
        /// Arity of the divisor.
        divisor: usize,
    },
    /// An extended operator was evaluated in an annotation domain that does
    /// not support it (e.g. `Domᵏ` under conditional semantics).
    UnsupportedOperator(&'static str),
    /// An error bubbled up from the data layer.
    Data(certa_data::DataError),
    /// The resource governor stopped the execution (budget trip,
    /// cancellation, isolated worker panic, or injected fault).
    Governor(certa_data::GovernorError),
}

impl std::fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgebraError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            AlgebraError::PositionOutOfRange { position, arity } => {
                write!(
                    f,
                    "attribute position {position} out of range for arity {arity}"
                )
            }
            AlgebraError::ArityMismatch {
                operator,
                left,
                right,
            } => {
                write!(f, "arity mismatch for {operator}: {left} vs {right}")
            }
            AlgebraError::InvalidDivision { dividend, divisor } => write!(
                f,
                "invalid division: dividend arity {dividend} must exceed divisor arity {divisor}"
            ),
            AlgebraError::UnsupportedOperator(op) => {
                write!(
                    f,
                    "operator `{op}` is not supported by this annotation domain"
                )
            }
            AlgebraError::Data(e) => write!(f, "{e}"),
            AlgebraError::Governor(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl From<certa_data::DataError> for AlgebraError {
    fn from(e: certa_data::DataError) -> Self {
        AlgebraError::Data(e)
    }
}

impl From<certa_data::GovernorError> for AlgebraError {
    fn from(e: certa_data::GovernorError) -> Self {
        AlgebraError::Governor(e)
    }
}

impl AlgebraError {
    /// The governor trip behind this error, if that is what it is.
    pub fn governor_trip(&self) -> Option<&certa_data::GovernorError> {
        match self {
            AlgebraError::Governor(e) => Some(e),
            _ => None,
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, AlgebraError>;
