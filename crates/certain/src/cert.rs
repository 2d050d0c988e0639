//! Exact certain answers (§3.2): intersection-based certain answers,
//! certain answers with nulls, and the certainly-false complement.
//!
//! All computations here are exact with respect to the closed-world
//! semantics and are obtained by brute-force enumeration of the possible
//! worlds induced by a constant pool; they are the *ground truth* against
//! which naïve evaluation and the approximation schemes are measured. Their
//! cost is exponential in the number of nulls — which is not an
//! implementation defect but the coNP-hardness of Theorem 3.12.
//!
//! Since the prepared-query refactor the loops are
//! compile-once/execute-many: the query is planned a single time with
//! [`certa_algebra::PreparedQuery`], each world is presented zero-copy
//! through a [`certa_algebra::ValuationSource`] (no database clone, no
//! re-planning), and the valuation space is chunked across worker threads
//! by [`crate::worlds::WorldEngine`]. The seed's replan-per-world loops
//! survive in [`crate::reference`] as oracles.
//!
//! Since the optimizer refactor the per-batch compilation goes further:
//! the query is rewritten by the **null-aware logical optimizer**
//! ([`certa_algebra::opt`]) with statistics read off the instance
//! (cardinalities + which relations actually hold nulls, so the join order
//! clusters null-free relations), and the prepared plan is split on
//! null-dependence: maximal subplans that read only complete relations are
//! evaluated **once** (`WorldBatch`) and the materialised rows are
//! spliced into every per-world execution.

use crate::worlds::{exact_pool, WorldEngine, WorldSpec};
use crate::Result;
use certa_algebra::physical::SetSource;
use certa_algebra::{
    naive_eval, AnnRel, PreparedQuery, PreparedWorldQuery, RaExpr, SetAnn, Stats, ValuationSource,
};
use certa_data::{Database, Relation, Tuple, Valuation};

/// Everything a world batch needs per `(query, database)` pair: the
/// optimised plan split on null-dependence, plus the materialised
/// world-invariant cache. Built once per batch; shared read-only across the
/// [`WorldEngine`]'s worker threads.
pub(crate) struct WorldBatch<'a> {
    db: &'a Database,
    query: PreparedWorldQuery,
    cache: Vec<AnnRel<SetAnn>>,
}

impl<'a> WorldBatch<'a> {
    /// Optimize (with instance statistics), plan, split and materialise.
    pub(crate) fn compile(query: &RaExpr, db: &'a Database) -> Result<WorldBatch<'a>> {
        let stats = Stats::from_database(db);
        let prepared = PreparedQuery::prepare_optimized_with(query, db.schema(), &stats)?;
        Self::from_prepared(&prepared, db)
    }

    /// Split and materialise an already-prepared plan (used by callers that
    /// cache the [`PreparedQuery`], like `certa::Pipeline`).
    pub(crate) fn from_prepared(
        prepared: &PreparedQuery,
        db: &'a Database,
    ) -> Result<WorldBatch<'a>> {
        let query = prepared.for_world_db(db);
        let cache = query.materialize(&SetSource(db))?;
        Ok(WorldBatch { db, query, cache })
    }

    /// The engine rows of the query on the world `v(D)`, with hoisted
    /// subplans spliced from the cache — no world is materialised.
    fn rows(&self, v: &Valuation) -> Result<AnnRel<SetAnn>> {
        Ok(self
            .query
            .execute_on(&ValuationSource::new(self.db, v), &self.cache)?)
    }

    /// The answer relation on the world `v(D)`.
    pub(crate) fn answer(&self, v: &Valuation) -> Result<Relation> {
        Ok(self.query.eval_set_world(self.db, v, &self.cache)?)
    }

    /// The output arity.
    fn arity(&self) -> usize {
        self.query.arity()
    }
}

/// [`cert_with_nulls`] decided **symbolically**: the query is evaluated
/// once over c-tables, each candidate's lineage is compiled into a
/// decision diagram over the pool encoding, and certainty is read off as
/// validity — no world is enumerated, so this handles null counts whose
/// valuation spaces are astronomically beyond any enumeration bound.
///
/// Uses the same default pool as [`cert_with_nulls`]; the two are held to
/// exact agreement by `tests/property_lineage_agreement.rs`.
///
/// # Errors
///
/// Returns [`crate::CertainError::Lineage`] when the query lies outside
/// the symbolic fragment (callers fall back to enumeration) or a model
/// count overflows.
pub fn cert_with_nulls_lineage(query: &RaExpr, db: &Database) -> Result<Relation> {
    cert_with_nulls_lineage_with(query, db, &exact_pool(query, db))
}

/// [`cert_with_nulls_lineage`] with an explicit world specification (only
/// the spec's constant pool matters — there is no enumeration to bound).
///
/// # Errors
///
/// As [`cert_with_nulls_lineage`].
pub fn cert_with_nulls_lineage_with(
    query: &RaExpr,
    db: &Database,
    spec: &WorldSpec,
) -> Result<Relation> {
    let candidates = naive_eval(query, db)?;
    let mut batch = certa_lineage::LineageBatch::compile(query, db, spec.pool())?;
    let mut certain = Vec::new();
    for t in candidates.iter() {
        if batch.is_certain(t)? {
            certain.push(t.clone());
        }
    }
    Ok(Relation::with_arity(candidates.arity(), certain))
}

/// [`classify_candidates`] decided symbolically: one c-table evaluation,
/// one diagram per candidate, certainty = validity and possibility =
/// satisfiability — the per-candidate statuses the enumeration backend
/// derives from a full pass over the worlds.
///
/// Takes the logical expression rather than a physical plan: the symbolic
/// backend compiles through the c-table instantiation of the engine, not
/// through a set-semantics plan.
///
/// # Errors
///
/// As [`cert_with_nulls_lineage`].
pub fn classify_candidates_lineage(
    query: &RaExpr,
    db: &Database,
    spec: &WorldSpec,
    tuples: &[Tuple],
) -> Result<Vec<CandidateStatus>> {
    let mut batch = certa_lineage::LineageBatch::compile(query, db, spec.pool())?;
    let mut out = Vec::with_capacity(tuples.len());
    for t in tuples {
        let (certain, possible) = batch.status(t)?;
        out.push(CandidateStatus { certain, possible });
    }
    Ok(out)
}

/// Intersection-based certain answers (Definition 3.7):
/// `cert∩(Q, D) = ⋂_{D' ∈ ⟦D⟧} Q(D')`.
///
/// Only null-free tuples can appear in the result. The default constant pool
/// (database constants, query constants, one fresh constant per null) makes
/// the computation exact for generic queries.
///
/// # Errors
///
/// Returns an error if the query is ill-formed or the world bound is hit.
pub fn cert_intersection(query: &RaExpr, db: &Database) -> Result<Relation> {
    cert_intersection_with(query, db, &exact_pool(query, db))
}

/// [`cert_intersection`] with an explicit world specification.
///
/// # Errors
///
/// As [`cert_intersection`].
pub fn cert_intersection_with(query: &RaExpr, db: &Database, spec: &WorldSpec) -> Result<Relation> {
    let batch = WorldBatch::compile(query, db)?;
    let engine = WorldEngine::new(db, spec)?;
    let out = engine.map_reduce(
        |v| batch.answer(v),
        |acc, answer| acc.intersection(&answer),
        Relation::is_empty,
    )?;
    Ok(out.unwrap_or_else(|| Relation::empty(batch.arity())))
}

/// Certain answers with nulls (Definition 3.9, cwa form):
/// `cert⊥(Q, D) = { t̄ over dom(D) | v(t̄) ∈ Q(v(D)) for every valuation v }`.
///
/// Candidates are drawn from the naïve evaluation of the query: for generic
/// queries `cert⊥(Q, D) ⊆ Qⁿᵃⁱᵛᵉ(D)`, because the bijective fresh valuation
/// of naïve evaluation is itself a valuation.
///
/// # Errors
///
/// Returns an error if the query is ill-formed or the world bound is hit.
pub fn cert_with_nulls(query: &RaExpr, db: &Database) -> Result<Relation> {
    cert_with_nulls_with(query, db, &exact_pool(query, db))
}

/// [`cert_with_nulls`] with an explicit world specification.
///
/// # Errors
///
/// As [`cert_with_nulls`].
pub fn cert_with_nulls_with(query: &RaExpr, db: &Database, spec: &WorldSpec) -> Result<Relation> {
    let candidates = naive_eval(query, db)?;
    let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
    let batch = WorldBatch::compile(query, db)?;
    let mask = survivors_mask(&batch, spec, &tuples, true)?;
    Ok(Relation::with_arity(
        candidates.arity(),
        tuples
            .into_iter()
            .zip(mask)
            .filter_map(|(t, keep)| keep.then_some(t)),
    ))
}

/// How a candidate tuple relates to the possible worlds: whether it is an
/// answer in *every* world and whether it is an answer in *some* world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateStatus {
    /// `v(t̄) ∈ Q(v(D))` for every valuation — a certain answer.
    pub certain: bool,
    /// `v(t̄) ∈ Q(v(D))` for at least one valuation — a possible answer.
    pub possible: bool,
}

/// Whether `v(t̄)` is in a world's answer (as hashed [`WorldBatch::rows`]).
/// Null-free candidates are probed without applying the valuation. This is
/// the **single** definition of the candidate probe shared by every
/// world-batch certainty check, so the certain/possible verdicts can never
/// drift apart.
fn world_hit(answer: &std::collections::HashSet<&Tuple>, v: &Valuation, t: &Tuple) -> bool {
    if t.has_null() {
        answer.contains(&v.apply_tuple(t))
    } else {
        answer.contains(t)
    }
}

/// Classify candidate tuples against all possible worlds in a **single**
/// enumeration, using an already-prepared plan: for each candidate, whether
/// it is certain (in every world's answer) and whether it is possible (in
/// some world's answer). `certa::Pipeline` uses this for its exact scheme,
/// reusing its cached [`PreparedQuery`] so nothing is re-planned per
/// request and the certain/possible/certainly-false labels all come out of
/// one pass over the worlds.
///
/// A candidate stops being checked once both bits are settled (refuted for
/// certainty, witnessed for possibility); the fold is thread-count
/// invariant like the other world batches.
///
/// # Errors
///
/// Returns an error on unknown relations or when the world bound is hit.
pub fn classify_candidates(
    prepared: &PreparedQuery,
    db: &Database,
    spec: &WorldSpec,
    tuples: &[Tuple],
) -> Result<Vec<CandidateStatus>> {
    let batch = WorldBatch::from_prepared(prepared, db)?;
    let engine = WorldEngine::new(db, spec)?;
    // Accumulator bit pairs: (in every world so far, in some world so far).
    let out = engine.fold_reduce(
        || vec![(true, false); tuples.len()],
        |acc: &mut Vec<(bool, bool)>, v: &Valuation| {
            let rows = batch.rows(v)?;
            let answer = rows.rows().iter().map(|(t, _)| t).collect();
            for ((always, ever), t) in acc.iter_mut().zip(tuples) {
                if !*always && *ever {
                    continue; // settled: refuted and witnessed
                }
                let hit = world_hit(&answer, v, t);
                *always &= hit;
                *ever |= hit;
            }
            Ok(())
        },
        |acc, next| {
            acc.iter()
                .zip(&next)
                .map(|((aa, ae), (na, ne))| (*aa && *na, *ae || *ne))
                .collect()
        },
        |acc: &Vec<(bool, bool)>| acc.iter().all(|(always, ever)| !*always && *ever),
    )?;
    // Zero worlds: the universal quantification is vacuously true and the
    // existential one vacuously false, as in the seed loops.
    let out = out.unwrap_or_else(|| vec![(true, false); tuples.len()]);
    Ok(out
        .into_iter()
        .map(|(always, ever)| CandidateStatus {
            certain: always,
            possible: ever,
        })
        .collect())
}

/// The per-candidate survivor mask over all worlds: `mask[i]` is `true` iff
/// `v(tuples[i]) ∈ Q(v(D))` for every valuation `v` (or, with
/// `in_answer = false`, iff it is in **no** world's answer). Candidates are
/// refuted world-by-world with a conjunction bitmask — each worker prunes
/// refuted candidates for the rest of its chunk (the seed loop's `retain`),
/// the per-chunk masks are combined with the associative, commutative
/// conjunction (thread-count invariant), and the all-`false` mask is the
/// absorbing early-exit state. Answers are probed as hashed engine rows;
/// no per-world [`Relation`] is materialised, and null-free candidates are
/// probed without applying the valuation.
fn survivors_mask(
    batch: &WorldBatch<'_>,
    spec: &WorldSpec,
    tuples: &[Tuple],
    in_answer: bool,
) -> Result<Vec<bool>> {
    let engine = WorldEngine::new(batch.db, spec)?;
    let mask = engine.fold_reduce(
        || vec![true; tuples.len()],
        |mask: &mut Vec<bool>, v: &Valuation| {
            let rows = batch.rows(v)?;
            let answer = rows.rows().iter().map(|(t, _)| t).collect();
            for (keep, t) in mask.iter_mut().zip(tuples) {
                if !*keep {
                    continue;
                }
                if world_hit(&answer, v, t) != in_answer {
                    *keep = false;
                }
            }
            Ok(())
        },
        |acc, next| acc.iter().zip(&next).map(|(a, b)| *a && *b).collect(),
        |mask: &Vec<bool>| mask.iter().all(|keep| !keep),
    )?;
    // Zero worlds (nulls with an empty pool): every candidate survives the
    // (vacuous) quantification, as in the seed loop.
    Ok(mask.unwrap_or_else(|| vec![true; tuples.len()]))
}

/// `true` iff the tuple is a certain answer with nulls, i.e.
/// `v(t̄) ∈ Q(v(D))` for every valuation `v` over the default pool.
///
/// # Errors
///
/// As [`cert_with_nulls`].
pub fn is_certain_answer(query: &RaExpr, db: &Database, tuple: &Tuple) -> Result<bool> {
    let spec = exact_pool(query, db);
    let batch = WorldBatch::compile(query, db)?;
    let mask = survivors_mask(&batch, &spec, std::slice::from_ref(tuple), true)?;
    Ok(mask[0])
}

/// `true` iff the tuple is *certainly false*: `v(t̄) ∉ Q(v(D))` for every
/// valuation `v` — i.e. it is a certain answer to the complement of `Q`,
/// the object under-approximated by the `Qf` translation of Figure 2(a).
///
/// # Errors
///
/// As [`cert_with_nulls`].
pub fn is_certainly_false(query: &RaExpr, db: &Database, tuple: &Tuple) -> Result<bool> {
    let spec = exact_pool(query, db);
    let batch = WorldBatch::compile(query, db)?;
    let mask = survivors_mask(&batch, &spec, std::slice::from_ref(tuple), false)?;
    Ok(mask[0])
}

/// All certainly-false tuples among a set of candidates (used to validate
/// the `Qf` translation, which must return a subset of these).
///
/// # Errors
///
/// As [`cert_with_nulls`].
pub fn certainly_false_among(
    query: &RaExpr,
    db: &Database,
    candidates: &Relation,
) -> Result<Relation> {
    let spec = exact_pool(query, db);
    let batch = WorldBatch::compile(query, db)?;
    let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
    let mask = survivors_mask(&batch, &spec, &tuples, false)?;
    Ok(Relation::with_arity(
        candidates.arity(),
        tuples
            .into_iter()
            .zip(mask)
            .filter_map(|(t, keep)| keep.then_some(t)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::enumerate_worlds;
    use certa_algebra::{eval, Condition};
    use certa_data::{database_from_literal, tup, Value};

    /// The Figure 1 database with the NULL perturbation of the introduction.
    fn shop_with_null() -> Database {
        database_from_literal([
            (
                "Orders",
                vec!["oid", "title", "price"],
                vec![
                    tup!["o1", "Big Data", 30],
                    tup!["o2", "SQL", 35],
                    tup!["o3", "Logic", 50],
                ],
            ),
            (
                "Payments",
                vec!["cid", "oid"],
                vec![tup!["c1", "o1"], tup!["c2", Value::null(0)]],
            ),
            (
                "Customers",
                vec!["cid", "name"],
                vec![tup!["c1", "John"], tup!["c2", "Mary"]],
            ),
        ])
    }

    #[test]
    fn unpaid_orders_certain_answers_are_empty_with_null() {
        // §1: with the NULL, we cannot know which order is unpaid, so the
        // certain answers to the unpaid-orders query are empty.
        let d = shop_with_null();
        let q = RaExpr::rel("Orders")
            .project(vec![0])
            .difference(RaExpr::rel("Payments").project(vec![1]));
        assert!(cert_with_nulls(&q, &d).unwrap().is_empty());
        assert!(cert_intersection(&q, &d).unwrap().is_empty());
        // Naïve/SQL evaluation, by contrast, would return o3 — a false
        // positive is avoided, but the answer o3 is genuinely not certain.
        assert!(!is_certain_answer(&q, &d, &tup!["o3"]).unwrap());
    }

    #[test]
    fn or_tautology_certain_answers() {
        // §1: SELECT cid FROM Payments WHERE oid = 'o2' OR oid <> 'o2'
        // has certain answer {c1, c2} even though SQL returns only c1.
        let d = shop_with_null();
        let cond = Condition::eq_const(1, "o2").or(Condition::neq_const(1, "o2"));
        let q = RaExpr::rel("Payments").select(cond).project(vec![0]);
        let cert = cert_with_nulls(&q, &d).unwrap();
        assert!(cert.contains(&tup!["c1"]));
        assert!(cert.contains(&tup!["c2"]));
        assert_eq!(cert.len(), 2);
    }

    #[test]
    fn cert_with_nulls_keeps_null_tuples() {
        // D = {R(⊥)}, Q = R: cert⊥ = {⊥} while cert∩ = ∅ (§3.2).
        let d = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)]])]);
        let q = RaExpr::rel("R");
        assert_eq!(
            cert_with_nulls(&q, &d).unwrap(),
            Relation::from_tuples(vec![tup![Value::null(0)]])
        );
        assert!(cert_intersection(&q, &d).unwrap().is_empty());
    }

    #[test]
    fn proposition_3_10_relationships() {
        // cert∩ = cert⊥ ∩ Const^m, and v(cert⊥) ⊆ Q(v(D)).
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![Value::null(0)], tup![1], tup![2]]),
            ("S", vec!["a"], vec![tup![2]]),
        ]);
        let q = RaExpr::rel("R").union(RaExpr::rel("S"));
        let with_nulls = cert_with_nulls(&q, &d).unwrap();
        let intersection = cert_intersection(&q, &d).unwrap();
        assert_eq!(with_nulls.const_tuples(), intersection);
        assert!(with_nulls.contains(&tup![Value::null(0)]));
        // Check the containment for a sample valuation.
        let spec = exact_pool(&q, &d);
        for (v, world) in enumerate_worlds(&d, &spec).unwrap() {
            let answer = eval(&q, &world).unwrap();
            for t in with_nulls.iter() {
                assert!(answer.contains(&v.apply_tuple(t)));
            }
        }
    }

    #[test]
    fn difference_with_null_kills_certainty() {
        // R = {1}, S = {⊥}: certain answers to R − S are empty (§4.1).
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![1]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ]);
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        assert!(cert_with_nulls(&q, &d).unwrap().is_empty());
        assert!(!is_certain_answer(&q, &d, &tup![1]).unwrap());
        // But 1 is not certainly false either: it is in the answer when ⊥≠1.
        assert!(!is_certainly_false(&q, &d, &tup![1]).unwrap());
    }

    #[test]
    fn certainly_false_detection() {
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![2]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ]);
        // Q = σ(a = 3)(R): 5 can never be an answer; 1 can never be an
        // answer either (selection keeps only 3s); nothing is ever returned.
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 3));
        assert!(is_certainly_false(&q, &d, &tup![5]).unwrap());
        assert!(is_certainly_false(&q, &d, &tup![1]).unwrap());
        // For Q' = R itself, 1 is certainly true, 5 certainly false, and ⊥
        // (as a null candidate) certainly true.
        let q2 = RaExpr::rel("R");
        assert!(is_certain_answer(&q2, &d, &tup![1]).unwrap());
        assert!(is_certainly_false(&q2, &d, &tup![5]).unwrap());
        let falses = certainly_false_among(
            &q2,
            &d,
            &Relation::from_tuples(vec![tup![1], tup![5], tup![7]]),
        )
        .unwrap();
        assert_eq!(falses, Relation::from_tuples(vec![tup![5], tup![7]]));
    }

    #[test]
    fn complete_database_certainty_is_plain_evaluation() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![1], tup![2]])]);
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 1));
        let expected = eval(&q, &d).unwrap();
        assert_eq!(cert_with_nulls(&q, &d).unwrap(), expected);
        assert_eq!(cert_intersection(&q, &d).unwrap(), expected);
    }

    #[test]
    fn ucq_naive_eval_matches_cert_with_nulls() {
        // Theorem 4.4 sanity check on a UCQ: naive evaluation = cert⊥ (cwa).
        let d = database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![tup![1, Value::null(0)], tup![Value::null(1), 2]],
            ),
            ("S", vec!["b"], vec![tup![2], tup![Value::null(0)]]),
        ]);
        let q = RaExpr::rel("R")
            .join_on(RaExpr::rel("S"), &[(1, 0)], 2)
            .project(vec![0])
            .union(RaExpr::rel("S"));
        let naive = naive_eval(&q, &d).unwrap();
        let cert = cert_with_nulls(&q, &d).unwrap();
        assert_eq!(naive, cert);
    }

    #[test]
    fn classify_candidates_matches_the_predicates() {
        let d = database_from_literal([
            ("R", vec!["a"], vec![tup![1]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ]);
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        let spec = exact_pool(&q, &d);
        let prepared = PreparedQuery::prepare(&q, d.schema()).unwrap();
        let candidates = [tup![1], tup![7]];
        let statuses = classify_candidates(&prepared, &d, &spec, &candidates).unwrap();
        // (1) is possible (⊥0 ≠ 1) but not certain (⊥0 = 1 kills it).
        assert_eq!(
            statuses[0],
            CandidateStatus {
                certain: false,
                possible: true
            }
        );
        // (7) is never an answer: 7 ∉ R in any world.
        assert_eq!(
            statuses[1],
            CandidateStatus {
                certain: false,
                possible: false
            }
        );
        for (t, s) in candidates.iter().zip(&statuses) {
            assert_eq!(s.certain, is_certain_answer(&q, &d, t).unwrap());
            assert_eq!(s.possible, !is_certainly_false(&q, &d, t).unwrap());
        }
    }

    #[test]
    fn world_bound_is_enforced() {
        let d = database_from_literal([(
            "R",
            vec!["a", "b", "c"],
            vec![tup![Value::null(0), Value::null(1), Value::null(2)]],
        )]);
        let q = RaExpr::rel("R");
        let spec = WorldSpec::new((0..40).map(certa_data::Const::Int)).with_bound(1000);
        assert!(matches!(
            cert_with_nulls_with(&q, &d, &spec),
            Err(crate::CertainError::TooManyWorlds { .. })
        ));
    }
}
