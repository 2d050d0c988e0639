//! # certa-data
//!
//! Data model for *incomplete relational databases* in the sense of the
//! PODS 2020 survey "Coping with Incomplete Data: Recent Advances"
//! (Console, Guagliardo, Libkin, Toussaint).
//!
//! Databases are populated by two kinds of elements (§2 of the paper):
//!
//! * **constants**, drawn from a countably infinite set `Const`, and
//! * **marked (labelled) nulls**, drawn from a countably infinite set `Null`,
//!   written ⊥₁, ⊥₂, … . Marked nulls may repeat inside a database; Codd
//!   nulls (the SQL model, where every occurrence is distinct) are the
//!   special case in which no null repeats.
//!
//! The crate provides:
//!
//! * [`Value`] — a constant or a marked null;
//! * [`Tuple`] — a fixed-arity row of values;
//! * [`Relation`] — a set-semantics relation, [`BagRelation`] — a
//!   bag-semantics relation with multiplicities;
//! * [`Schema`] and [`Instance`] — named relations with arities and
//!   attribute names, one type for both semantics: [`Database`] holds
//!   [`Relation`]s and [`BagDatabase`] holds [`BagRelation`]s;
//! * [`Valuation`] — a map from nulls to constants, giving the possible
//!   worlds `⟦D⟧ = { v(D) | v a valuation }` under the closed-world
//!   assumption (and, with extra facts, under the open-world assumption);
//! * [`homomorphism`] — homomorphism finding/checking (arbitrary, onto and
//!   strong-onto), the semantic tool behind naïve-evaluation correctness;
//! * [`unify`](mod@unify) — linear-time tuple unification, the building
//!   block of the `⋉⇑` anti-semijoin used by the approximation schemes;
//! * [`wal`] and [`snapshot`] — crash-safe durability: a checksummed
//!   write-ahead delta log plus atomic snapshots, recovered via
//!   [`wal::recover`] / [`wal::recover_bag`]. One implementation serves
//!   set and bag stores alike.

pub mod bag;
mod codec;
pub mod crc32;
pub mod database;
pub mod delta;
pub mod governor;
pub mod homomorphism;
pub mod index;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod tuple;
pub mod unify;
pub mod valuation;
pub mod value;
pub mod wal;

pub use bag::BagRelation;
pub use database::{database_from_literal, BagDatabase, Database, Instance, RelationKind};
pub use delta::{Delta, DELTA_LOG_CAP};
pub use governor::GovernorError;
pub use homomorphism::{find_homomorphism, is_homomorphism, HomKind, Homomorphism};
pub use index::KeyIndex;
pub use relation::Relation;
pub use schema::{RelationSchema, Schema};
pub use tuple::Tuple;
pub use unify::{unifiable, unify};
pub use valuation::Valuation;
pub use value::{Const, NullId, Value};
pub use wal::{recover, recover_bag, DurabilityStats, DurableLog, RecoveryReport, WalRecord};

#[cfg(feature = "fault-injection")]
pub use wal::{arm_crash_site, arm_crashes, disarm_crashes};

/// Crate-wide error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A tuple of the wrong arity was inserted into a relation.
    ArityMismatch {
        /// Name of the relation involved, if known.
        relation: String,
        /// Arity the relation expects.
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// A relation name was not found in a database or schema.
    UnknownRelation(String),
    /// An attribute name was not found in a relation schema.
    UnknownAttribute {
        /// Relation on which the attribute was looked up.
        relation: String,
        /// The missing attribute.
        attribute: String,
    },
    /// A relation with the same name was registered twice.
    DuplicateRelation(String),
    /// A filesystem operation on the durability layer failed.
    Io {
        /// Which durability operation failed (e.g. `wal.append`).
        op: String,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// On-disk durability data failed validation (checksum, framing,
    /// decoding) — recovery treats trailing corruption as a torn tail, but
    /// mid-structure corruption surfaces as this error.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// A crash was injected at a durability fault site (only produced
    /// under the `fault-injection` feature). The attached log is poisoned
    /// as if the process had died at that point.
    CrashInjected {
        /// The fault site that fired (e.g. `wal:frame`).
        site: &'static str,
    },
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch on relation `{relation}`: expected {expected}, got {got}"
            ),
            DataError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            DataError::UnknownAttribute {
                relation,
                attribute,
            } => write!(
                f,
                "unknown attribute `{attribute}` on relation `{relation}`"
            ),
            DataError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` registered twice")
            }
            DataError::Io { op, detail } => write!(f, "io failure in {op}: {detail}"),
            DataError::Corrupt { detail } => write!(f, "corrupt durability data: {detail}"),
            DataError::CrashInjected { site } => {
                write!(f, "crash injected at fault site `{site}`")
            }
        }
    }
}

impl std::error::Error for DataError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, DataError>;
