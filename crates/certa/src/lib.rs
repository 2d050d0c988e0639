//! # certa — certain answers over incomplete relational databases
//!
//! `certa` is a reproduction, as a working Rust library, of the systems and
//! results surveyed in *"Coping with Incomplete Data: Recent Advances"*
//! (Console, Guagliardo, Libkin, Toussaint — PODS 2020). It provides an
//! in-memory relational engine with marked nulls, the classical notions of
//! certain answers, the approximation schemes with correctness guarantees,
//! conditional-table evaluation strategies, probabilistic (almost-certain)
//! answers, the many-valued logics underlying SQL, and a small SQL
//! front-end that reproduces SQL's three-valued evaluation faithfully.
//!
//! ## Crate map
//!
//! | re-export | contents |
//! |---|---|
//! | [`data`] | values, marked nulls, tuples, relations (set & bag), schemas, databases, valuations, homomorphisms, unification |
//! | [`algebra`] | relational algebra: AST, set/bag evaluation, naïve evaluation, fragment classification, query builder |
//! | [`logic`] | Kleene's `L3v`, the epistemic `L6v`, many-valued FO semantics, Boolean-FO capture translations |
//! | [`ctables`] | conditional tables and the eager/semi-eager/lazy/aware approximation strategies |
//! | [`certain`] | certain answers (`cert∩`, `cert⊥`, `certO`), the `(Qt,Qf)` and `(Q+,Q?)` schemes, bag bounds, probabilistic answers, constraints |
//! | [`sql`] | SQL parser, three-valued SQL evaluation, lowering to relational algebra |
//! | [`workload`] | the paper's Figure 1 database, a TPC-H-like generator with null injection, random databases, queries and SQL |
//! | [`pipeline`] | the end-to-end entry point: SQL text → lowered algebra → scheme selection (exact / approx / c-tables) → labeled answers, with prepared plans cached per query and schema |
//!
//! ## Quickstart
//!
//! ```
//! use certa::prelude::*;
//!
//! // The paper's Figure 1 database, with one payment's order id missing.
//! let db = certa::workload::shop_database(true);
//!
//! // "Unpaid orders" as relational algebra.
//! let query = certa::workload::ShopQueries::unpaid_orders();
//!
//! // Treating the null as a plain value says o2 and o3 are unpaid…
//! let naive = naive_eval(&query, &db).unwrap();
//! assert_eq!(naive.len(), 2);
//!
//! // …but no order is *certainly* unpaid.
//! let certain = cert_with_nulls(&query, &db).unwrap();
//! assert!(certain.is_empty());
//!
//! // The (Q+, Q?) rewriting reaches the same conclusion without
//! // enumerating possible worlds.
//! let plus = q_plus(&query, db.schema()).unwrap();
//! assert!(eval(&plus, &db).unwrap().is_empty());
//! ```

pub use certa_algebra as algebra;
pub use certa_certain as certain;
pub use certa_ctables as ctables;
pub use certa_data as data;
pub use certa_lineage as lineage;
pub use certa_logic as logic;
pub use certa_obs as obs;
pub use certa_sql as sql;
pub use certa_workload as workload;

pub mod pipeline;

pub use pipeline::{
    Backend, BackendChoice, Explain, ExplainAnalyze, GovernorReport, Label, LabeledAnswers,
    OpReport, Pipeline, PipelineError, Scheme, Verdict,
};

pub use certa_algebra::governor::{CancelToken, ExecBudget, Governor};
pub use certa_data::GovernorError;
pub use certa_data::{recover, recover_bag, DurabilityStats, RecoveryReport};

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::pipeline::{
        Backend, BackendChoice, Explain, Label, LabeledAnswers, Pipeline, Scheme, Verdict,
    };
    pub use certa_algebra::governor::{CancelToken, ExecBudget, Governor};
    pub use certa_algebra::{
        classify, eval, naive_eval, optimize, optimize_with, Condition, Fragment, PreparedQuery,
        QueryBuilder, RaExpr, Stats,
    };
    pub use certa_certain::{
        almost_certainly_true, cert_intersection, cert_with_nulls, cert_with_nulls_lineage,
        cert_with_nulls_mask, classify_candidates_mask, is_certain_answer, is_certainly_false,
        mu_k, mu_k_lineage, mu_k_mask, q_false, q_plus, q_question, q_true, AnswerQuality,
        MaskBatch,
    };
    pub use certa_ctables::{eval_conditional, Strategy};
    pub use certa_data::GovernorError;
    pub use certa_data::{
        database_from_literal, recover, recover_bag, tup, BagRelation, Const, Database,
        DurabilityStats, RecoveryReport, Relation, Schema, Tuple, Valuation, Value,
    };
    pub use certa_lineage::{BagLineageBatch, LineageBatch};
    pub use certa_logic::{
        eval_formula, query_answers, Assignment, AtomSemantics, Formula, Term, Truth3,
    };
    pub use certa_sql::{execute as sql_execute, lower_to_algebra, parse as sql_parse};
    pub use certa_workload::{
        random_database, random_query, shop_database, RandomDbConfig, RandomQueryConfig,
        ShopQueries, TpchConfig, TpchGenerator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_smoke() {
        let db = shop_database(false);
        let q = ShopQueries::unpaid_orders();
        assert_eq!(eval(&q, &db).unwrap().len(), 1);
        assert_eq!(classify(&q), Fragment::FullRa);
    }
}
