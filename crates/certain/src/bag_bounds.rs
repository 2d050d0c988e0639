//! Certainty under bag semantics (§4.2, "Bag semantics").
//!
//! When queries are evaluated on bags, a tuple carries a *range* of
//! multiplicities across the possible worlds:
//!
//! ```text
//! □Q(D, ā) = min over valuations v of #(v(ā), Q(v(D)))
//! ◇Q(D, ā) = max over valuations v of #(v(ā), Q(v(D)))
//! ```
//!
//! `□Q(D, ā) ≥ 1` generalises "ā is a certain answer". Theorem 4.8: the
//! `(Q+, Q?)` translation evaluated under bag semantics brackets the lower
//! bound, `#(ā, Q+(D)) ≤ □Q(D, ā) ≤ #(ā, Q?(D))`, whereas the `(Qt, Qf)`
//! scheme loses its good complexity on bags (computing `◇Q` is already
//! intractable for base relations).

use crate::approx37;
use crate::worlds::{exact_pool, WorldEngine, WorldSpec};
use crate::Result;
use certa_algebra::bag_eval::eval_bag;
use certa_algebra::{PreparedQuery, RaExpr};
use certa_data::{BagDatabase, Database, Tuple};

/// The exact multiplicity range `[□Q(D, ā), ◇Q(D, ā)]` of a tuple, computed
/// by enumerating the valuations of the default pool.
///
/// Valuations are applied to the bag database by *adding* the multiplicities
/// of tuples that collapse, which is the reading consistent with SQL
/// evaluation on the instance `v(D)`.
///
/// # Errors
///
/// Returns an error if the query is ill-formed or the world bound is hit.
pub fn multiplicity_range(
    query: &RaExpr,
    db: &BagDatabase,
    tuple: &Tuple,
) -> Result<(usize, usize)> {
    let set_view = db.to_sets();
    multiplicity_range_with(query, db, tuple, &exact_pool(query, &set_view))
}

/// [`multiplicity_range`] with an explicit world specification.
///
/// # Errors
///
/// As [`multiplicity_range`].
pub fn multiplicity_range_with(
    query: &RaExpr,
    db: &BagDatabase,
    tuple: &Tuple,
    spec: &WorldSpec,
) -> Result<(usize, usize)> {
    let stats = certa_algebra::Stats::from_bag_database(db);
    let prepared = PreparedQuery::prepare_optimized_with(query, db.schema(), &stats)?;
    let set_view = db.to_sets();
    let engine = WorldEngine::new(&set_view, spec)?;
    let range = engine.map_reduce(
        |v| {
            // Zero-copy bag world: collapsing multiplicities are added
            // during the scan, matching `BagDatabase::map_values_add`.
            let answer = prepared.eval_bag_world(db, v)?;
            let m = answer.multiplicity(&v.apply_tuple(tuple));
            Ok((m, m))
        },
        |(min1, max1), (min2, max2)| (min1.min(min2), max1.max(max2)),
        |_| false,
    )?;
    Ok(range.unwrap_or((0, 0)))
}

/// [`multiplicity_range`] by **knowledge compilation**: the monus-free
/// fragment (σ, π, ×, ∪) is evaluated once over weighted conditional rows,
/// each row indicator compiles to a decision diagram, and the summed
/// arithmetic diagram's terminal min/max are exactly `[□Q, ◇Q]` — no world
/// is enumerated. Held to exact agreement with the enumeration backend by
/// `tests/property_lineage_agreement.rs`.
///
/// # Errors
///
/// Returns [`crate::CertainError::Lineage`] outside the fragment
/// (difference/intersection have no row-wise bag reading — callers fall
/// back to enumeration) or for ill-formed queries.
pub fn multiplicity_range_lineage(
    query: &RaExpr,
    db: &BagDatabase,
    tuple: &Tuple,
) -> Result<(usize, usize)> {
    let set_view = db.to_sets();
    multiplicity_range_lineage_with(query, db, tuple, &exact_pool(query, &set_view))
}

/// [`multiplicity_range_lineage`] with an explicit world specification
/// (only the pool matters — nothing is enumerated, so the bound is moot).
///
/// # Errors
///
/// As [`multiplicity_range_lineage`].
pub fn multiplicity_range_lineage_with(
    query: &RaExpr,
    db: &BagDatabase,
    tuple: &Tuple,
    spec: &WorldSpec,
) -> Result<(usize, usize)> {
    let mut batch = certa_lineage::BagLineageBatch::compile(query, db, spec.pool())
        .map_err(crate::CertainError::from)?;
    batch
        .multiplicity_range(tuple)
        .map_err(crate::CertainError::from)
}

/// The certainty lower bound `□Q(D, ā)`.
///
/// # Errors
///
/// As [`multiplicity_range`].
pub fn box_multiplicity(query: &RaExpr, db: &BagDatabase, tuple: &Tuple) -> Result<usize> {
    Ok(multiplicity_range(query, db, tuple)?.0)
}

/// The possibility upper bound `◇Q(D, ā)`.
///
/// # Errors
///
/// As [`multiplicity_range`].
pub fn diamond_multiplicity(query: &RaExpr, db: &BagDatabase, tuple: &Tuple) -> Result<usize> {
    Ok(multiplicity_range(query, db, tuple)?.1)
}

/// The bag reading of the `(Q+, Q?)` scheme: the multiplicities of `ā` in
/// `Q+(D)` and `Q?(D)` evaluated under bag semantics on `D` itself.
/// Theorem 4.8 guarantees `bounds.0 ≤ □Q(D, ā) ≤ bounds.1`.
///
/// # Errors
///
/// Returns an error if the query is ill-formed or unsupported by the
/// translation.
pub fn approx_bag_bounds(
    query: &RaExpr,
    db: &BagDatabase,
    tuple: &Tuple,
) -> Result<(usize, usize)> {
    let pair = approx37::translate(query, db.schema())?;
    let plus = eval_bag(&pair.q_plus, db)?;
    let question = eval_bag(&pair.q_question, db)?;
    Ok((plus.multiplicity(tuple), question.multiplicity(tuple)))
}

/// Convenience: check Theorem 4.8's inequality chain for a given tuple,
/// returning `(lower, □, upper)`.
///
/// # Errors
///
/// As [`approx_bag_bounds`] and [`multiplicity_range`].
pub fn certainty_sandwich(
    query: &RaExpr,
    db: &BagDatabase,
    tuple: &Tuple,
) -> Result<(usize, usize, usize)> {
    let (lower, upper) = approx_bag_bounds(query, db, tuple)?;
    let (bx, _) = multiplicity_range(query, db, tuple)?;
    Ok((lower, bx, upper))
}

/// Set-semantics shortcut: `□Q(D, ā) ≥ 1` on the bag view of a set database
/// coincides with `ā` being a certain answer with nulls.
///
/// # Errors
///
/// As [`multiplicity_range`].
pub fn certain_under_bags(query: &RaExpr, db: &Database, tuple: &Tuple) -> Result<bool> {
    Ok(box_multiplicity(query, &db.to_bags(), tuple)? >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_algebra::Condition;
    use certa_data::{database_from_literal, tup, Value};

    fn bag_db() -> BagDatabase {
        let sets = database_from_literal([("R", vec!["a"], vec![]), ("S", vec!["a"], vec![])]);
        let mut b = BagDatabase::new(sets.schema().clone());
        b.insert_n("R", tup![1], 2).unwrap();
        b.insert_n("R", tup![Value::null(0)], 1).unwrap();
        b.insert_n("S", tup![1], 1).unwrap();
        b
    }

    #[test]
    fn multiplicity_range_of_base_relation() {
        let b = bag_db();
        let q = RaExpr::rel("R");
        // Tuple (1): multiplicity 2 always, plus 1 more when ⊥0 = 1.
        assert_eq!(multiplicity_range(&q, &b, &tup![1]).unwrap(), (2, 3));
        // The null candidate: under a valuation v it becomes v(⊥0), which
        // always has multiplicity ≥ 1 (itself), and 3 when v(⊥0) = 1.
        assert_eq!(
            multiplicity_range(&q, &b, &tup![Value::null(0)]).unwrap(),
            (1, 3)
        );
        // A constant not in R and not reachable: 0 everywhere... except 2 is
        // reachable when ⊥0 = 2 — but 2 is not in the canonical pool? It is:
        // the pool contains database constants {1} plus fresh ones, so the
        // max for (2) is 0 (2 is not in the pool). Use a fresh-free check:
        let (lo, hi) = multiplicity_range(&q, &b, &tup![99]).unwrap();
        assert_eq!((lo, hi), (0, 0));
    }

    #[test]
    fn union_adds_multiplicities_in_every_world() {
        let b = bag_db();
        let q = RaExpr::rel("R").union(RaExpr::rel("S"));
        assert_eq!(multiplicity_range(&q, &b, &tup![1]).unwrap(), (3, 4));
    }

    #[test]
    fn difference_range() {
        let b = bag_db();
        // R − S: (1) has multiplicity 2−1=1 when ⊥0 ≠ 1, and 3−1=2 when ⊥0=1.
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        assert_eq!(multiplicity_range(&q, &b, &tup![1]).unwrap(), (1, 2));
    }

    #[test]
    fn theorem_4_8_sandwich_holds() {
        let b = bag_db();
        let queries = [
            RaExpr::rel("R"),
            RaExpr::rel("R").union(RaExpr::rel("S")),
            RaExpr::rel("R").difference(RaExpr::rel("S")),
            RaExpr::rel("R").select(Condition::eq_const(0, 1)),
            RaExpr::rel("R").product(RaExpr::rel("S")).project(vec![0]),
        ];
        let candidates = [tup![1], tup![Value::null(0)], tup![7]];
        for q in &queries {
            for t in &candidates {
                let (lower, bx, upper) = certainty_sandwich(q, &b, t).unwrap();
                assert!(lower <= bx, "lower {lower} > box {bx} for {q} on {t}");
                assert!(bx <= upper, "box {bx} > upper {upper} for {q} on {t}");
            }
        }
    }

    #[test]
    fn lineage_ranges_match_enumeration_on_the_fragment() {
        let b = bag_db();
        let queries = [
            RaExpr::rel("R"),
            RaExpr::rel("R").union(RaExpr::rel("S")),
            RaExpr::rel("R").select(Condition::eq_const(0, 1)),
            RaExpr::rel("R").product(RaExpr::rel("S")).project(vec![0]),
        ];
        let candidates = [tup![1], tup![Value::null(0)], tup![7]];
        for q in &queries {
            for t in &candidates {
                assert_eq!(
                    multiplicity_range_lineage(q, &b, t).unwrap(),
                    multiplicity_range(q, &b, t).unwrap(),
                    "{q} on {t}"
                );
            }
        }
        // Difference stays on the enumeration path.
        let diff = RaExpr::rel("R").difference(RaExpr::rel("S"));
        assert!(matches!(
            multiplicity_range_lineage(&diff, &b, &tup![1]),
            Err(crate::CertainError::Lineage(e)) if e.is_unsupported()
        ));
    }

    #[test]
    fn set_semantics_certainty_via_bags() {
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![Value::null(0)]]),
            ("S", vec!["a"], vec![tup![2]]),
        ]);
        let q = RaExpr::rel("R");
        assert!(certain_under_bags(&q, &d, &tup![1]).unwrap());
        assert!(certain_under_bags(&q, &d, &tup![Value::null(0)]).unwrap());
        let diff = RaExpr::rel("R").difference(RaExpr::rel("S"));
        // 1 is certain for R − S (⊥0 collapsing with 1 does not matter: 1 ≠ 2).
        assert!(certain_under_bags(&diff, &d, &tup![1]).unwrap());
        // The null tuple is not certain for R − S: ⊥0 could be 2.
        assert!(!certain_under_bags(&diff, &d, &tup![Value::null(0)]).unwrap());
    }

    #[test]
    fn collapse_vs_add_matters_for_multiplicities() {
        // Two copies of ⊥0 and one of 1: when ⊥0 = 1 the "add" reading gives
        // multiplicity 3 for (1).
        let sets = database_from_literal([("R", vec!["a"], vec![])]);
        let mut b = BagDatabase::new(sets.schema().clone());
        b.insert_n("R", tup![Value::null(0)], 2).unwrap();
        b.insert_n("R", tup![1], 1).unwrap();
        let q = RaExpr::rel("R");
        assert_eq!(multiplicity_range(&q, &b, &tup![1]).unwrap(), (1, 3));
    }
}
