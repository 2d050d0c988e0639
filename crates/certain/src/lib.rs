//! # certa-certain
//!
//! The primary contribution of the PODS 2020 survey "Coping with Incomplete
//! Data: Recent Advances": notions of certain answers and the algorithms
//! that compute or approximate them.
//!
//! * [`worlds`] — possible-world enumeration over a bounded constant pool,
//!   the ground-truth machinery behind every exact computation (§2, §3);
//! * [`cert`] — the notions of certainty of §3: intersection-based
//!   certain answers `cert∩`, certain answers with nulls `cert⊥`, and the
//!   certainly-false complement used by the `(Qt,Qf)` scheme;
//! * [`object`] — information-based certain answers `certO` (certain answers
//!   as objects): the greatest lower bound of the query answers in the
//!   information order, computed as the direct product of possible answers
//!   and optionally minimised to its core (§3.1–3.2);
//! * [`mask`] — the **world-mask backend**: one plan execution over
//!   bitset-annotated tuples answers certainty, classification and `µ_k`
//!   for the *entire* valuation space at once (64 worlds per word
//!   operation), covering the full operator language — the exact backend
//!   for mid-range world counts and for every instance outside the
//!   lineage fragment;
//! * [`approx51`] — the translation `Q ↦ (Qt, Qf)` of Figure 2(a)
//!   (Libkin 2016), with correctness guarantees but active-domain products;
//! * [`approx37`] — the translation `Q ↦ (Q+, Q?)` of Figure 2(b)
//!   (Guagliardo & Libkin 2016), the implementation-friendly scheme;
//! * [`bag_bounds`] — certainty under bag semantics: the multiplicity bounds
//!   `□Q` and `◇Q` and the bag reading of `(Q+, Q?)` (Theorem 4.8);
//! * [`prob`] — approximation with probabilistic guarantees: support
//!   counting, the measures `µ_k` and their limit, the 0–1 law of
//!   Theorem 4.10 and conditional probabilities under constraints
//!   (Theorem 4.11);
//! * [`constraints`] — functional and inclusion dependencies and the chase,
//!   used by the conditional-probability machinery;
//! * [`reference`](mod@reference) — the seed's replan-per-world loops, kept
//!   as oracles for the prepared/parallel pipeline (property tests and the
//!   `a06_prepared_worlds` ablation);
//! * [`quality`] — precision/recall of approximate answers against the
//!   exact certain answers (the measurements of the `[27]` study, E4).

pub mod approx37;
pub mod approx51;
pub mod bag_bounds;
pub mod cert;
pub mod constraints;
pub mod mask;
pub mod object;
pub mod prob;
pub mod quality;
pub mod reference;
pub mod worlds;

pub use approx37::{q_plus, q_question, ApproxPair, PreparedApproxPair};
pub use approx51::{q_false, q_true, PreparedTranslationPair, TranslationPair};
pub use cert::{
    cert_intersection, cert_with_nulls, cert_with_nulls_lineage, classify_candidates_lineage,
    is_certain_answer, is_certainly_false,
};
pub use mask::{cert_with_nulls_mask, classify_candidates_mask, MaskBatch, MaskStats};
pub use prob::{
    almost_certainly_true, mu_k, mu_k_conditional, mu_k_lineage, mu_k_mask, mu_limit_lineage,
    support_fraction,
};
pub use quality::AnswerQuality;
pub use worlds::{default_pool, enumerate_worlds, WorldEngine, WorldSpec};

/// Errors raised by the certain-answer machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertainError {
    /// The exact computation would enumerate more worlds than the configured
    /// bound allows (certain answers are coNP-hard; exact computation is
    /// only feasible on small instances).
    TooManyWorlds {
        /// Number of worlds the computation would need.
        worlds: usize,
        /// The configured bound.
        bound: usize,
    },
    /// The query uses an operator not supported by the requested
    /// translation (e.g. division in the Figure 2 schemes).
    UnsupportedOperator(&'static str),
    /// An error bubbled up from the algebra layer.
    Algebra(certa_algebra::AlgebraError),
    /// An error bubbled up from the data layer.
    Data(certa_data::DataError),
    /// An error bubbled up from the lineage (knowledge-compilation)
    /// backend. `Lineage(e)` with `e.is_unsupported()` marks a fragment
    /// boundary the dispatcher answers by falling back to enumeration.
    Lineage(certa_lineage::LineageError),
    /// The resource governor refused further work (deadline, budget,
    /// cancellation, injected fault, or an isolated worker panic). Always a
    /// refusal to continue, never a wrong answer; the pipeline answers it
    /// by degrading down the backend lattice.
    Governor(certa_data::GovernorError),
}

impl std::fmt::Display for CertainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertainError::TooManyWorlds { worlds, bound } => write!(
                f,
                "exact computation needs {worlds} possible worlds, above the bound of {bound}"
            ),
            CertainError::UnsupportedOperator(op) => {
                write!(f, "operator `{op}` is not supported by this translation")
            }
            CertainError::Algebra(e) => write!(f, "{e}"),
            CertainError::Data(e) => write!(f, "{e}"),
            CertainError::Lineage(e) => write!(f, "{e}"),
            CertainError::Governor(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CertainError {}

impl From<certa_algebra::AlgebraError> for CertainError {
    fn from(e: certa_algebra::AlgebraError) -> Self {
        match e {
            // Normalize governor trips into the one `Governor` variant so
            // the pipeline's degradation lattice never chases nesting.
            certa_algebra::AlgebraError::Governor(g) => CertainError::Governor(g),
            other => CertainError::Algebra(other),
        }
    }
}

impl From<certa_data::GovernorError> for CertainError {
    fn from(e: certa_data::GovernorError) -> Self {
        CertainError::Governor(e)
    }
}

impl From<certa_data::DataError> for CertainError {
    fn from(e: certa_data::DataError) -> Self {
        CertainError::Data(e)
    }
}

impl From<certa_lineage::LineageError> for CertainError {
    fn from(e: certa_lineage::LineageError) -> Self {
        match e {
            certa_lineage::LineageError::Exhausted(g) => CertainError::Governor(g),
            other => CertainError::Lineage(other),
        }
    }
}

impl CertainError {
    /// The governor trip behind this error, if that is what it is. The
    /// `From` conversions normalize trips into [`CertainError::Governor`],
    /// but errors built directly from nested variants are looked through
    /// too.
    pub fn governor_trip(&self) -> Option<&certa_data::GovernorError> {
        match self {
            CertainError::Governor(g) => Some(g),
            CertainError::Algebra(e) => e.governor_trip(),
            CertainError::Lineage(e) => e.governor_trip(),
            _ => None,
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CertainError>;
