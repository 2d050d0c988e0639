//! The seed's recursive, clone-per-node evaluators, kept verbatim as
//! **oracles**.
//!
//! These are the tree-walking interpreters the annotation-generic physical
//! engine ([`crate::physical`]) replaced. They stay in the crate for two
//! reasons:
//!
//! * the property tests assert that the engine agrees with them on randomly
//!   generated expressions and databases (see
//!   `tests/property_engine_agreement.rs` at the workspace root);
//! * the `a05_physical_engine` ablation in `certa-bench` measures the
//!   speedup of the hash-join pipeline against this baseline.
//!
//! Do **not** call these from production paths — they clone whole relations
//! at every operator node by design.

use crate::expr::RaExpr;
use crate::{AlgebraError, Result};
use certa_data::{unify, BagDatabase, BagRelation, Database, Relation, Value};

/// Set-semantics evaluation by structural recursion, cloning the operand
/// relations at every node (the seed's `eval_unchecked`).
///
/// # Errors
///
/// Returns an error on unknown relations; other ill-formedness must be
/// excluded by validating the expression first.
pub fn eval_set_reference(expr: &RaExpr, db: &Database) -> Result<Relation> {
    match expr {
        RaExpr::Relation(name) => Ok(db
            .relation(name)
            .map_err(|_| AlgebraError::UnknownRelation(name.clone()))?
            .clone()),
        RaExpr::Select(e, cond) => {
            let input = eval_set_reference(e, db)?;
            Ok(input.filter(|t| cond.eval(t)))
        }
        RaExpr::Project(e, positions) => Ok(eval_set_reference(e, db)?.project(positions)),
        RaExpr::Product(l, r) => {
            Ok(eval_set_reference(l, db)?.product(&eval_set_reference(r, db)?))
        }
        RaExpr::Union(l, r) => Ok(eval_set_reference(l, db)?.union(&eval_set_reference(r, db)?)),
        RaExpr::Intersect(l, r) => {
            Ok(eval_set_reference(l, db)?.intersection(&eval_set_reference(r, db)?))
        }
        RaExpr::Difference(l, r) => {
            Ok(eval_set_reference(l, db)?.difference(&eval_set_reference(r, db)?))
        }
        RaExpr::Divide(l, r) => {
            let dividend = eval_set_reference(l, db)?;
            let divisor = eval_set_reference(r, db)?;
            Ok(crate::eval::divide(&dividend, &divisor))
        }
        RaExpr::DomPower(k) => crate::eval::dom_power(db, *k),
        RaExpr::AntiSemiJoinUnify(l, r) => {
            let left = eval_set_reference(l, db)?;
            let right = eval_set_reference(r, db)?;
            Ok(left.filter(|l| !right.iter().any(|r| unify(l, r).is_some())))
        }
        RaExpr::Literal(rel) => Ok(rel.clone()),
    }
}

/// Bag-semantics evaluation by structural recursion (the seed's
/// `eval_bag_unchecked`).
///
/// # Errors
///
/// As [`eval_set_reference`].
pub fn eval_bag_reference(expr: &RaExpr, db: &BagDatabase) -> Result<BagRelation> {
    match expr {
        RaExpr::Relation(name) => Ok(db
            .relation(name)
            .map_err(|_| AlgebraError::UnknownRelation(name.clone()))?
            .clone()),
        RaExpr::Select(e, cond) => {
            let input = eval_bag_reference(e, db)?;
            Ok(input.filter(|t| cond.eval(t)))
        }
        RaExpr::Project(e, positions) => Ok(eval_bag_reference(e, db)?.project(positions)),
        RaExpr::Product(l, r) => {
            Ok(eval_bag_reference(l, db)?.product(&eval_bag_reference(r, db)?))
        }
        RaExpr::Union(l, r) => {
            Ok(eval_bag_reference(l, db)?.union_all(&eval_bag_reference(r, db)?))
        }
        RaExpr::Intersect(l, r) => {
            Ok(eval_bag_reference(l, db)?.intersect_all(&eval_bag_reference(r, db)?))
        }
        RaExpr::Difference(l, r) => {
            Ok(eval_bag_reference(l, db)?.difference_all(&eval_bag_reference(r, db)?))
        }
        RaExpr::Divide(l, r) => {
            let dividend = eval_bag_reference(l, db)?.to_set();
            let divisor = eval_bag_reference(r, db)?.to_set();
            Ok(BagRelation::from_set(&crate::eval::divide(
                &dividend, &divisor,
            )))
        }
        RaExpr::DomPower(k) => {
            let domain: Vec<Value> = db.active_domain().into_iter().collect();
            let mut out = BagRelation::empty(*k);
            for t in crate::eval::dom_power_over(&domain, *k)? {
                out.insert(t);
            }
            Ok(out)
        }
        RaExpr::AntiSemiJoinUnify(l, r) => {
            let left = eval_bag_reference(l, db)?;
            let right = eval_bag_reference(r, db)?;
            Ok(left.filter(|t| !right.distinct().any(|s| unify(t, s).is_some())))
        }
        RaExpr::Literal(rel) => Ok(BagRelation::from_set(rel)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Condition;
    use certa_data::{database_from_literal, tup};

    #[test]
    fn reference_still_computes() {
        let d = database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![tup![1, 2], tup![3, Value::null(0)]],
            ),
            ("S", vec!["b"], vec![tup![2]]),
        ]);
        let q = RaExpr::rel("R")
            .join_on(RaExpr::rel("S"), &[(1, 0)], 2)
            .select(Condition::eq_const(0, 1))
            .project(vec![0]);
        let out = eval_set_reference(&q, &d).unwrap();
        assert_eq!(out, Relation::from_tuples(vec![tup![1]]));
        let bag = eval_bag_reference(&q, &d.to_bags()).unwrap();
        assert_eq!(bag.to_set(), out);
    }
}
