//! Set-semantics evaluation of relational-algebra expressions.
//!
//! Nulls are treated as ordinary values (syntactic equality), which is the
//! evaluation that underlies naïve evaluation (§4.1). Correctness with
//! respect to certain answers is the business of the higher-level crates.
//!
//! Since the physical-engine refactor, [`eval`] is a thin adapter: it
//! validates the expression and dispatches to [`crate::physical`]'s
//! annotation-generic pipeline instantiated at [`crate::physical::SetAnn`]
//! (hash joins, scan-pushed selections, no per-node set rebuilds). The
//! seed's recursive interpreter survives as
//! [`crate::reference::eval_set_reference`] for oracle testing and
//! ablations.

use crate::expr::RaExpr;
use crate::physical;
use crate::{AlgebraError, Result};
use certa_data::{unify, Database, Relation, Tuple, Value};

/// Evaluate an expression on a database under set semantics.
///
/// # Errors
///
/// Returns an error if the expression is ill-formed with respect to the
/// database's schema (unknown relation, arity mismatch, position out of
/// range).
pub fn eval(expr: &RaExpr, db: &Database) -> Result<Relation> {
    // Validate up front so evaluation code can index freely.
    expr.validate(db.schema())?;
    physical::eval_set(expr, db)
}

/// Relational division `R ÷ S`: tuples `ā` over the first
/// `arity(R) − arity(S)` columns of `R` such that `(ā, b̄) ∈ R` for every
/// `b̄ ∈ S`.
///
/// By convention (matching the standard definition), when `S` is empty the
/// result is the projection of `R` onto its first columns.
pub fn divide(dividend: &Relation, divisor: &Relation) -> Relation {
    let n = dividend.arity() - divisor.arity();
    let head: Vec<usize> = (0..n).collect();
    let candidates = dividend.project(&head);
    candidates.filter(|a| divisor.iter().all(|b| dividend.contains(&a.concat(b))))
}

/// All `k`-tuples over the given domain, in index order (the tuple stream
/// behind the `Domᵏ` operator, shared by every annotation domain).
///
/// # Errors
///
/// [`AlgebraError::DomainPowerOverflow`] when `|domain|ᵏ` does not fit in
/// a `usize`.
pub(crate) fn dom_power_over(domain: &[Value], k: usize) -> Result<Vec<Tuple>> {
    if k == 0 {
        return Ok(vec![Tuple::empty()]);
    }
    if domain.is_empty() {
        return Ok(Vec::new());
    }
    let total = u32::try_from(k)
        .ok()
        .and_then(|exp| domain.len().checked_pow(exp))
        .ok_or(AlgebraError::DomainPowerOverflow {
            domain: domain.len(),
            k,
        })?;
    let mut out = Vec::with_capacity(total);
    for mut idx in 0..total {
        let mut values = Vec::with_capacity(k);
        for _ in 0..k {
            values.push(domain[idx % domain.len()].clone());
            idx /= domain.len();
        }
        out.push(Tuple::new(values));
    }
    Ok(out)
}

/// The active-domain power `Domᵏ(D)`: all `k`-tuples over `dom(D)`.
///
/// This is the (deliberately expensive) building block of the (Qt,Qf)
/// translations of Figure 2(a); its cost is what the (Q+,Q?) scheme avoids.
///
/// # Errors
///
/// [`AlgebraError::DomainPowerOverflow`] when `|dom(D)|ᵏ` does not fit in
/// a `usize`.
pub fn dom_power(db: &Database, k: usize) -> Result<Relation> {
    let domain: Vec<Value> = db.active_domain().into_iter().collect();
    Ok(Relation::with_arity(k, dom_power_over(&domain, k)?))
}

/// The unification anti-semijoin `L ⋉⇑ R`: tuples of `L` that unify with no
/// tuple of `R` (§4.2).
pub fn anti_semijoin_unify(left: &Relation, right: &Relation) -> Relation {
    left.filter(|l| !right.iter().any(|r| unify(l, r).is_some()))
}

/// The unification semijoin: tuples of `L` that unify with at least one
/// tuple of `R`. Provided for completeness and used in tests as the
/// complement of [`anti_semijoin_unify`].
pub fn semijoin_unify(left: &Relation, right: &Relation) -> Relation {
    left.filter(|l| right.iter().any(|r| unify(l, r).is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Condition;
    use certa_data::{database_from_literal, tup};

    fn db() -> Database {
        database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![tup![1, 2], tup![1, 3], tup![2, 2], tup![3, Value::null(0)]],
            ),
            ("S", vec!["c"], vec![tup![2], tup![3]]),
        ])
    }

    #[test]
    fn base_relation_and_literal() {
        let d = db();
        assert_eq!(eval(&RaExpr::rel("R"), &d).unwrap().len(), 4);
        let lit = Relation::from_tuples(vec![tup![9]]);
        assert_eq!(eval(&RaExpr::Literal(lit.clone()), &d).unwrap(), lit);
        assert!(eval(&RaExpr::rel("Z"), &d).is_err());
    }

    #[test]
    fn selection_is_syntactic_on_nulls() {
        let d = db();
        // a = 3 keeps the tuple with the null in b.
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 3));
        let r = eval(&q, &d).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tup![3, Value::null(0)]));
        // b ≠ 2 keeps (1,3) and (3,⊥0) under the syntactic reading.
        let q = RaExpr::rel("R").select(Condition::neq_const(1, 2));
        assert_eq!(eval(&q, &d).unwrap().len(), 2);
        // ... but not under the θ* reading.
        let q = RaExpr::rel("R").select(Condition::neq_const(1, 2).star());
        assert_eq!(eval(&q, &d).unwrap().len(), 1);
    }

    #[test]
    fn projection_union_difference_intersection() {
        let d = db();
        let pa = RaExpr::rel("R").project(vec![0]);
        assert_eq!(eval(&pa, &d).unwrap().len(), 3);
        let u = RaExpr::rel("S").union(RaExpr::rel("R").project(vec![0]));
        assert_eq!(eval(&u, &d).unwrap().len(), 3);
        let i = RaExpr::rel("S").intersect(RaExpr::rel("R").project(vec![0]));
        assert_eq!(eval(&i, &d).unwrap().len(), 2);
        let m = RaExpr::rel("R")
            .project(vec![0])
            .difference(RaExpr::rel("S"));
        assert_eq!(eval(&m, &d).unwrap(), Relation::from_tuples(vec![tup![1]]));
    }

    #[test]
    fn product_and_join() {
        let d = db();
        let p = RaExpr::rel("R").product(RaExpr::rel("S"));
        assert_eq!(eval(&p, &d).unwrap().len(), 8);
        // R ⋈ S on R.b = S.c — planned as a hash join.
        let j = RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(1, 0)], 2);
        let r = eval(&j, &d).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.contains(&tup![1, 2, 2]));
        assert!(r.contains(&tup![1, 3, 3]));
        assert!(r.contains(&tup![2, 2, 2]));
    }

    #[test]
    fn division_finds_universal_tuples() {
        // Classic "employees on all projects".
        let d = database_from_literal([
            (
                "Works",
                vec!["emp", "proj"],
                vec![tup!["ann", "p1"], tup!["ann", "p2"], tup!["bob", "p1"]],
            ),
            ("Projects", vec!["proj"], vec![tup!["p1"], tup!["p2"]]),
        ]);
        let q = RaExpr::rel("Works").divide(RaExpr::rel("Projects"));
        let r = eval(&q, &d).unwrap();
        assert_eq!(r, Relation::from_tuples(vec![tup!["ann"]]));
    }

    #[test]
    fn division_by_empty_is_projection() {
        let d = database_from_literal([
            ("Works", vec!["emp", "proj"], vec![tup!["ann", "p1"]]),
            ("Projects", vec!["proj"], vec![]),
        ]);
        let q = RaExpr::rel("Works").divide(RaExpr::rel("Projects"));
        assert_eq!(
            eval(&q, &d).unwrap(),
            Relation::from_tuples(vec![tup!["ann"]])
        );
    }

    #[test]
    fn dom_power_enumerates_active_domain() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![1], tup![Value::null(0)]])]);
        assert_eq!(dom_power(&d, 0).unwrap().len(), 1);
        assert_eq!(dom_power(&d, 1).unwrap().len(), 2);
        assert_eq!(dom_power(&d, 2).unwrap().len(), 4);
        let q = RaExpr::DomPower(2);
        assert_eq!(eval(&q, &d).unwrap().len(), 4);
    }

    #[test]
    fn dom_power_of_empty_database() {
        let d = database_from_literal([("R", vec!["a"], vec![])]);
        assert_eq!(dom_power(&d, 2).unwrap().len(), 0);
        assert_eq!(dom_power(&d, 0).unwrap().len(), 1);
    }

    #[test]
    fn dom_power_past_usize_is_an_error_not_a_short_relation() {
        // 8,192⁵ = 2⁶⁵ tuples: the size wraps to 0 without a checked power.
        let d = database_from_literal([("R", vec!["a"], (0..8192).map(|i| tup![i]).collect())]);
        let overflow = AlgebraError::DomainPowerOverflow { domain: 8192, k: 5 };
        let q = RaExpr::DomPower(5);
        assert_eq!(eval(&q, &d).unwrap_err(), overflow);
        assert_eq!(
            crate::reference::eval_set_reference(&q, &d).unwrap_err(),
            overflow
        );
    }

    #[test]
    fn anti_semijoin_unify_drops_unifiable() {
        let left = Relation::from_tuples(vec![tup![1, 2], tup![3, 4]]);
        let right = Relation::from_tuples(vec![tup![Value::null(0), 2]]);
        let out = anti_semijoin_unify(&left, &right);
        assert_eq!(out, Relation::from_tuples(vec![tup![3, 4]]));
        let sj = semijoin_unify(&left, &right);
        assert_eq!(sj, Relation::from_tuples(vec![tup![1, 2]]));
        assert_eq!(out.union(&sj), left);
    }

    #[test]
    fn anti_semijoin_in_expression() {
        let d = db();
        let q = RaExpr::rel("R")
            .project(vec![0])
            .anti_semijoin_unify(RaExpr::rel("S"));
        let r = eval(&q, &d).unwrap();
        assert_eq!(r, Relation::from_tuples(vec![tup![1]]));
    }

    #[test]
    fn boolean_query_encoding() {
        let d = db();
        // "Is there a tuple in R with a = 1?" as a 0-ary projection.
        let q = RaExpr::rel("R")
            .select(Condition::eq_const(0, 1))
            .project(Vec::new());
        assert!(eval(&q, &d).unwrap().as_bool());
        let q = RaExpr::rel("R")
            .select(Condition::eq_const(0, 99))
            .project(Vec::new());
        assert!(!eval(&q, &d).unwrap().as_bool());
    }

    #[test]
    fn nested_expression_smoke() {
        let d = db();
        // (π_a R − S) × S
        let q = RaExpr::rel("R")
            .project(vec![0])
            .difference(RaExpr::rel("S"))
            .product(RaExpr::rel("S"));
        let r = eval(&q, &d).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&tup![1, 2]));
        assert!(r.contains(&tup![1, 3]));
    }
}
