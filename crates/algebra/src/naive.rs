//! Naïve evaluation (§4.1).
//!
//! Naïve evaluation treats nulls as if they were fresh constants: pick a
//! bijective valuation `v` sending the nulls of `D` to constants outside
//! `dom(D)` and outside the constants of the query, evaluate the query on
//! `v(D)` with the usual (complete-database) semantics, and map the fresh
//! constants back:
//!
//! ```text
//! Qⁿᵃⁱᵛᵉ(D) = v⁻¹( Q(v(D)) )
//! ```
//!
//! For generic queries the choice of `v` does not matter. Theorem 4.4 of the
//! survey: naïve evaluation computes certain answers with nulls for UCQs
//! under owa and for Pos∀G queries under cwa; Theorem 4.10: it computes
//! exactly the *almost certainly true* answers for every generic query.
//!
//! `v(D)` is never materialised: the prepared plan runs over a
//! [`ValuationSource`](crate::physical::ValuationSource), which substitutes
//! the fresh constants tuple by tuple during the scans, as the world
//! engines do for every possible world.

use crate::expr::RaExpr;
use crate::physical::PreparedQuery;
use crate::Result;
use certa_data::{Const, Database, Relation, Valuation, Value};
use std::collections::BTreeSet;

/// Evaluate `Q` naïvely on `D`.
///
/// Because the paper's queries are generic, renaming nulls to fresh
/// constants, evaluating, and renaming back is equivalent to evaluating the
/// syntactic-equality semantics directly on the database with nulls — except
/// in the presence of the `const(·)`/`null(·)` predicates, which are not
/// generic. We therefore perform the renaming faithfully, through a
/// valuation source and with no copy of the database
/// ([`naive_eval_prepared`], avoiding `Const(D) ∪ Const(Q)`).
///
/// # Errors
///
/// Returns an error if the expression is ill-formed for the schema.
pub fn naive_eval(expr: &RaExpr, db: &Database) -> Result<Relation> {
    let prepared = PreparedQuery::prepare(expr, db.schema())?;
    let mut avoid = db.consts();
    avoid.extend(expr.consts());
    naive_eval_prepared(&prepared, db, &avoid)
}

/// [`naive_eval`] of a prepared plan, with the bijective renaming `v` taking
/// the nulls of `D` to fresh constants outside `avoid`.
///
/// `avoid` must hold every constant of `D` and of the query (a superset is
/// fine: the renaming stays bijective and fresh, §4.1). The plan runs over
/// `v(D)` presented zero-copy through a
/// [`ValuationSource`](crate::physical::ValuationSource), and the fresh
/// constants of the output are mapped back to their nulls.
///
/// # Errors
///
/// As [`PreparedQuery::eval_set_world`].
pub fn naive_eval_prepared(
    prepared: &PreparedQuery,
    db: &Database,
    avoid: &BTreeSet<Const>,
) -> Result<Relation> {
    let v = Valuation::bijective_fresh(&db.nulls(), avoid);
    let output = prepared.eval_set_world(db, &v)?;
    if v.is_empty() {
        return Ok(output);
    }
    let inverse = v.inverse();
    Ok(output.map(|t| {
        t.map(|value| match value {
            Value::Const(c) => inverse
                .get(c)
                .map_or_else(|| value.clone(), |null| Value::Null(*null)),
            Value::Null(_) => value.clone(),
        })
    }))
}

/// Naïve evaluation restricted to null-free answer tuples,
/// `Qⁿᵃⁱᵛᵉ(D) ∩ Constᵐ` — the object that Theorem 4.1 relates to
/// intersection-based certain answers for UCQs.
///
/// # Errors
///
/// As [`naive_eval`].
pub fn naive_eval_const(expr: &RaExpr, db: &Database) -> Result<Relation> {
    Ok(naive_eval(expr, db)?.const_tuples())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::expr::Condition;
    use certa_data::{database_from_literal, tup};

    #[test]
    fn naive_eval_on_complete_database_is_plain_eval() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![1], tup![2]])]);
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 1));
        assert_eq!(naive_eval(&q, &d).unwrap(), eval(&q, &d).unwrap());
    }

    #[test]
    fn nulls_survive_projection_round_trip() {
        let d = database_from_literal([("R", vec!["a", "b"], vec![tup![1, Value::null(0)]])]);
        let q = RaExpr::rel("R").project(vec![1]);
        let out = naive_eval(&q, &d).unwrap();
        assert_eq!(out, Relation::from_tuples(vec![tup![Value::null(0)]]));
    }

    #[test]
    fn paper_path_example() {
        // Graph {(1,⊥1), (⊥1,2)}: is there a path 1 → 2 of length two?
        let d = database_from_literal([(
            "E",
            vec!["from", "to"],
            vec![tup![1, Value::null(1)], tup![Value::null(1), 2]],
        )]);
        // Q() :– E(1, x), E(x, 2) as σ and join.
        let q = RaExpr::rel("E")
            .join_on(RaExpr::rel("E"), &[(1, 0)], 2)
            .select(Condition::eq_const(0, 1).and(Condition::eq_const(3, 2)))
            .project(Vec::new());
        assert!(naive_eval(&q, &d).unwrap().as_bool());
    }

    #[test]
    fn difference_example_not_certain_but_naive_true() {
        // R = {1}, S = {⊥}: naive evaluation of R − S returns {1}
        // (the certain answer is empty — that is the point of §4.2).
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![1]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ]);
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        assert_eq!(
            naive_eval(&q, &d).unwrap(),
            Relation::from_tuples(vec![tup![1]])
        );
    }

    #[test]
    fn null_predicates_see_fresh_constants() {
        // Under naïve evaluation nulls become constants, so `null(a)` selects
        // nothing — queries with const/null predicates are not generic and
        // naive evaluation treats the renamed database at face value.
        let d = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)], tup![1]])]);
        let q = RaExpr::rel("R").select(Condition::IsNull(0));
        assert!(naive_eval(&q, &d).unwrap().is_empty());
        // Direct evaluation, by contrast, sees the null.
        assert_eq!(eval(&q, &d).unwrap().len(), 1);
    }

    #[test]
    fn query_constants_are_avoided_by_renaming() {
        // The query mentions constant 5; the fresh renaming must not
        // accidentally make ⊥0 equal to 5.
        let d = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)]])]);
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 5));
        assert!(naive_eval(&q, &d).unwrap().is_empty());
    }

    #[test]
    fn join_on_repeated_null_succeeds() {
        // Nulls act as values: ⊥0 joins with ⊥0 but not with ⊥1.
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![Value::null(0)]]),
            (
                "S",
                vec!["a"],
                vec![tup![Value::null(0)], tup![Value::null(1)]],
            ),
        ]);
        let q = RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(0, 0)], 1);
        let out = naive_eval(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tup![Value::null(0), Value::null(0)]));
    }

    #[test]
    fn const_tuples_variant_strips_null_answers() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)], tup![1]])]);
        let q = RaExpr::rel("R");
        assert_eq!(naive_eval(&q, &d).unwrap().len(), 2);
        assert_eq!(
            naive_eval_const(&q, &d).unwrap(),
            Relation::from_tuples(vec![tup![1]])
        );
    }
}
