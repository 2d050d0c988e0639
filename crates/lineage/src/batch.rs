//! Compile a query's c-table lineage once; answer certainty, possibility
//! and model-counting questions per candidate off the diagrams.
//!
//! The pipeline is the symbolic counterpart of the world engines:
//!
//! 1. the query is rewritten by the null-aware logical optimizer (with
//!    instance statistics) and evaluated **once** over the c-table view of
//!    the database with the *aware* strategy — the engine instantiation
//!    whose conditions stay fully symbolic, so by the c-table
//!    representation theorem the resulting table `T` satisfies
//!    `Q(v(D)) = { v(s̄) | ⟨s̄, φ⟩ ∈ T, v ⊨ φ }` for **every** valuation;
//! 2. each row condition is normalised (forced-equality substitution, NNF,
//!    the canonicalizing simplifier shared with the grounding strategies)
//!    and compiled into a hash-consed multi-valued decision diagram over
//!    the finite-domain encoding of the database's nulls;
//! 3. a candidate tuple `t̄`'s *lineage* is `∨_rows (φ ∧ s̄ = t̄)` — then
//!    certainty is validity (the diagram is the `TRUE` terminal), certain
//!    falsity is unsatisfiability (`FALSE`), and `µ_k` is the exact model
//!    count over the support divided by `|pool|^|Null(D)|`, all read
//!    straight off the canonical form.
//!
//! No world is ever enumerated: the cost is polynomial in the diagram
//! sizes, which is what opens null counts (30+, thousands of worlds per
//! null) that enumeration can never reach.

use crate::encode::Encoding;
use crate::order::var_order;
use crate::store::{Forest, NodeId, FALSE, TRUE};
use crate::{LineageError, Result};
use certa_algebra::{optimize_with, Condition, RaExpr, Stats};
use certa_ctables::{eval_conditional, Cond, Strategy};
use certa_data::{Const, Database, Tuple, Valuation};
use std::collections::BTreeSet;

/// A compiled lineage batch for one `(query, database, pool)` triple.
pub struct LineageBatch {
    forest: Forest,
    encoding: Encoding,
    /// Result rows: the tuple, its raw (un-normalised) condition — kept for
    /// the generic-membership path, which evaluates symbolically outside
    /// the pool — and its compiled diagram.
    rows: Vec<(Tuple, Cond, NodeId)>,
    arity: usize,
    db_nulls: BTreeSet<certa_data::NullId>,
    /// Pool empty while nulls exist: the valuation space is empty, and the
    /// certainty quantifier is vacuous (mirrors the world engines).
    zero_worlds: bool,
    /// `false` for [`LineageBatch::compile_rows_only`] batches, which
    /// support only the symbolic (diagram-free) queries.
    diagrams_built: bool,
    /// World-space restrictions applied so far, as `(level, pool index)`
    /// pins. Candidate-equality diagrams built later by
    /// [`LineageBatch::lineage_of`] are restricted by the same pins, so the
    /// whole lineage is evaluated over the restricted space.
    restrictions: Vec<(u32, usize)>,
}

impl LineageBatch {
    /// Optimize, evaluate over c-tables (aware strategy, one pass), and
    /// compile every row condition over `pool`.
    ///
    /// # Errors
    ///
    /// * [`LineageError::Unsupported`] when the query uses operators or
    ///   predicates outside the symbolic fragment (÷, `Domᵏ`, `⋉⇑`,
    ///   syntactic `const(·)`/`null(·)` tests, literals containing marked
    ///   nulls) — callers try another exact backend;
    /// * [`LineageError::Algebra`] for ill-formed queries.
    pub fn compile(query: &RaExpr, db: &Database, pool: &[Const]) -> Result<LineageBatch> {
        Self::compile_inner(query, db, pool, true)
    }

    /// Evaluate the query over c-tables and keep only the symbolic rows —
    /// no diagrams are normalised or built. Sufficient for
    /// [`LineageBatch::generic_membership`] (the 0–1-law limit), which
    /// never consults the pool encoding; the diagram-backed queries
    /// (`status`, `mu_counts`, …) panic on a rows-only batch.
    ///
    /// # Errors
    ///
    /// As [`LineageBatch::compile`].
    pub fn compile_rows_only(query: &RaExpr, db: &Database) -> Result<LineageBatch> {
        Self::compile_inner(query, db, &[], false)
    }

    fn compile_inner(
        query: &RaExpr,
        db: &Database,
        pool: &[Const],
        build_diagrams: bool,
    ) -> Result<LineageBatch> {
        check_symbolic_fragment(query)?;
        let stats = Stats::from_database(db);
        let optimized = optimize_with(query, db.schema(), &stats).map_err(LineageError::Algebra)?;
        let result = eval_conditional(&optimized, db, Strategy::Aware)?;
        let db_nulls = db.nulls();
        let zero_worlds = pool.is_empty() && !db_nulls.is_empty();

        // The variable order covers *all* database nulls (the valuation
        // space quantifies over them even when a condition never mentions
        // them), seeded by the conditions and the optimizer statistics.
        let conds: Vec<&Cond> = result.table().iter().map(|ct| &ct.cond).collect();
        let order = var_order(&db_nulls, conds, Some((&stats, db)));
        let encoding = Encoding::new(pool.to_vec(), order);
        let mut forest = Forest::new(encoding.domains());

        let mut rows = Vec::with_capacity(result.table().len());
        for ct in result.table().iter() {
            if !encoding.covers(&ct.cond) || !ct.tuple.nulls().is_subset(&db_nulls) {
                // A null outside the database can only come from the query
                // itself; its per-world value is not part of the valuation
                // space, so the symbolic reading would diverge from
                // enumeration.
                return Err(LineageError::Unsupported(
                    "query introduces nulls outside the database",
                ));
            }
            let node = if zero_worlds || !build_diagrams {
                FALSE
            } else {
                encoding.compile(&mut forest, &ct.cond)?
            };
            rows.push((ct.tuple.clone(), ct.cond.clone(), node));
        }
        Ok(LineageBatch {
            forest,
            encoding,
            rows,
            arity: result.table().arity(),
            db_nulls,
            zero_worlds,
            diagrams_built: build_diagrams,
            restrictions: Vec::new(),
        })
    }

    /// Apply the resolution ⊥ := value as a **world-space restriction**: every
    /// row diagram is replaced by its [`Forest::restrict`] cofactor at the
    /// null's level, and later candidate lineages are restricted the same
    /// way — no recompilation, no re-evaluation. After the call, `status`
    /// and the `mu_counts` *ratio* answer over the restricted valuation
    /// space, which is exactly the space of the database with the null
    /// resolved (absolute counts keep a factor of `|pool|` per pinned
    /// level, in both numerator and denominator).
    ///
    /// Returns `Ok(false)` — leaving the batch untouched — when the null is
    /// not encoded, the value is outside the pool, or the space is empty;
    /// the caller must recompile in those cases.
    ///
    /// # Errors
    ///
    /// [`LineageError::Exhausted`] when the governor trips mid-restriction.
    /// The batch is left exactly as it was — cofactors are staged and only
    /// committed on full success, so a cancelled refine never leaves half
    /// the rows restricted.
    pub fn restrict_null(&mut self, null: certa_data::NullId, value: &Const) -> Result<bool> {
        assert!(
            self.diagrams_built,
            "LineageBatch: diagram query on a rows-only batch"
        );
        if self.zero_worlds {
            return Ok(false);
        }
        let Some(level) = self.encoding.level(null) else {
            return Ok(false);
        };
        let Some(idx) = self.encoding.pool().iter().position(|c| c == value) else {
            return Ok(false);
        };
        let mut staged = Vec::with_capacity(self.rows.len());
        for i in 0..self.rows.len() {
            staged.push(self.forest.restrict(self.rows[i].2, level, idx)?);
        }
        for (row, node) in self.rows.iter_mut().zip(staged) {
            row.2 = node;
        }
        self.restrictions.push((level, idx));
        Ok(true)
    }

    /// Number of world-space restrictions applied so far.
    pub fn restriction_count(&self) -> usize {
        self.restrictions.len()
    }

    /// The output arity of the compiled query.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of result rows carrying lineage.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Total number of distinct diagram nodes in the shared store — the
    /// size measure `Pipeline::explain` reports.
    pub fn diagram_size(&self) -> usize {
        self.forest.node_count()
    }

    /// The total valuation space, `|pool|^|Null(D)|`.
    ///
    /// # Errors
    ///
    /// [`LineageError::CountOverflow`] past `u128`.
    pub fn world_count(&self) -> Result<u128> {
        self.forest.valuation_count()
    }

    /// Compile the lineage diagram of a candidate tuple:
    /// `∨_rows (φ_row ∧ s̄_row = t̄)`.
    ///
    /// A candidate mentioning nulls outside the database can never equal a
    /// fully-valuated answer tuple, so its lineage is `FALSE` — exactly how
    /// the enumeration probe behaves.
    ///
    /// # Errors
    ///
    /// [`LineageError::Exhausted`] when the governor trips mid-build.
    pub fn lineage_of(&mut self, tuple: &Tuple) -> Result<NodeId> {
        assert!(
            self.diagrams_built,
            "LineageBatch: diagram query on a rows-only batch"
        );
        assert_eq!(
            tuple.arity(),
            self.arity,
            "LineageBatch: candidate arity mismatch"
        );
        if self.zero_worlds || !tuple.nulls().is_subset(&self.db_nulls) {
            return Ok(FALSE);
        }
        // Fold the most *absorbing* terms first: a row whose tuple is the
        // candidate itself contributes its bare condition (the matching
        // condition is a tautology), which usually subsumes the weaker
        // `φ ∧ s̄ = t̄` terms of sibling rows. Folding it first keeps every
        // intermediate disjunction near the final (small) diagram; the
        // naive left-to-right fold instead builds partial disjunctions like
        // `∨ᵢ (⊥ᵢ = ⊥_c ∧ …)` whose ordered diagrams must remember the set
        // of values seen before level `c` — exponential in width. The
        // order only affects diagram-construction cost, never the result.
        let candidate_nulls = tuple.nulls();
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        // Cached keys: `Tuple::nulls` allocates a fresh set per call, so
        // evaluate the rank once per row, not once per comparison.
        order.sort_by_cached_key(|&i| {
            let s = &self.rows[i].0;
            if s == tuple {
                0u8
            } else if !s.nulls().is_disjoint(&candidate_nulls) {
                1
            } else {
                2
            }
        });
        let mut out = FALSE;
        for i in order {
            let row_node = self.rows[i].2;
            if row_node == FALSE {
                continue;
            }
            let matching = Cond::tuple_eq(&self.rows[i].0, tuple);
            let mut eq_node = self.encoding.compile(&mut self.forest, &matching)?;
            // Restriction distributes over ∧/∨: pinning the equality
            // diagrams too makes the disjunction below the restriction of
            // the unrestricted lineage.
            for &(level, value) in &self.restrictions {
                eq_node = self.forest.restrict(eq_node, level, value)?;
            }
            let conjoined = self.forest.and(row_node, eq_node)?;
            out = self.forest.or(out, conjoined)?;
            if out == TRUE {
                break;
            }
        }
        Ok(out)
    }

    /// `(certain, possible)` for a candidate: whether `v(t̄) ∈ Q(v(D))`
    /// holds in every / some world of the pool. With an empty valuation
    /// space the universal quantifier is vacuously true and the existential
    /// one false, matching the world engines.
    pub fn status(&mut self, tuple: &Tuple) -> Result<(bool, bool)> {
        assert!(
            self.diagrams_built,
            "LineageBatch: diagram query on a rows-only batch"
        );
        if self.zero_worlds {
            return Ok((true, false));
        }
        let node = self.lineage_of(tuple)?;
        Ok((self.forest.is_valid(node), self.forest.is_satisfiable(node)))
    }

    /// `true` iff the candidate is an answer in every world of the pool.
    pub fn is_certain(&mut self, tuple: &Tuple) -> Result<bool> {
        Ok(self.status(tuple)?.0)
    }

    /// `true` iff the candidate is an answer in no world of the pool.
    pub fn is_certainly_false(&mut self, tuple: &Tuple) -> Result<bool> {
        Ok(!self.status(tuple)?.1)
    }

    /// Exact `(support, total)` valuation counts for a candidate — the
    /// numerator and denominator of `µ_k` when the pool is the canonical
    /// `k`-prefix.
    ///
    /// # Errors
    ///
    /// [`LineageError::CountOverflow`] when a count exceeds `u128`.
    pub fn mu_counts(&mut self, tuple: &Tuple) -> Result<(u128, u128)> {
        assert!(
            self.diagrams_built,
            "LineageBatch: diagram query on a rows-only batch"
        );
        if self.zero_worlds {
            return Ok((0, 0));
        }
        let node = self.lineage_of(tuple)?;
        let support = self.forest.count_models(node)?;
        let total = self.forest.valuation_count()?;
        Ok((support, total))
    }

    /// Membership under a *generic* (injective, fresh) valuation — the
    /// symbolic route to the 0–1 law: the limit `µ(Q, D, ā)` is 1 exactly
    /// when the lineage holds under a bijective fresh valuation of the
    /// nulls, which coincides with naïve-evaluation membership.
    pub fn generic_membership(&self, tuple: &Tuple) -> bool {
        let mut nulls = self.db_nulls.clone();
        nulls.extend(tuple.nulls());
        let mut avoid: BTreeSet<Const> = tuple.consts();
        for (s, cond, _) in &self.rows {
            avoid.extend(s.consts());
            cond.consts(&mut avoid);
        }
        avoid.extend(self.encoding.pool().iter().cloned());
        let v = Valuation::bijective_fresh(&nulls, &avoid);
        let target = v.apply_tuple(tuple);
        self.rows
            .iter()
            .any(|(s, cond, _)| cond.eval_under(&v) && v.apply_tuple(s) == target)
    }
}

/// Reject queries outside the fragment whose symbolic reading provably
/// coincides with per-world evaluation: the extended operators have no
/// conditional semantics (the engine rejects them too), `const(·)`/
/// `null(·)` selection predicates are *syntactic* tests that per-world
/// evaluation resolves differently (every world is null-free), and query
/// literals carrying marked nulls are never valuated by the world sources.
fn check_symbolic_fragment(expr: &RaExpr) -> Result<()> {
    match expr {
        RaExpr::Relation(_) => Ok(()),
        RaExpr::Literal(rel) => {
            if rel.nulls().is_empty() {
                Ok(())
            } else {
                Err(LineageError::Unsupported(
                    "literal relations with marked nulls",
                ))
            }
        }
        RaExpr::Select(e, cond) => {
            check_condition(cond)?;
            check_symbolic_fragment(e)
        }
        RaExpr::Project(e, _) => check_symbolic_fragment(e),
        RaExpr::Product(l, r)
        | RaExpr::Union(l, r)
        | RaExpr::Intersect(l, r)
        | RaExpr::Difference(l, r) => {
            check_symbolic_fragment(l)?;
            check_symbolic_fragment(r)
        }
        RaExpr::Divide(..) => Err(LineageError::Unsupported("division")),
        RaExpr::DomPower(_) => Err(LineageError::Unsupported("Dom^k")),
        RaExpr::AntiSemiJoinUnify(..) => Err(LineageError::Unsupported("anti-semijoin (⋉⇑)")),
    }
}

/// The bag fragment is stricter: difference and intersection are rejected
/// too, because bag monus and min act on *summed* multiplicities and have
/// no row-wise weighted reading.
pub(crate) fn check_symbolic_fragment_for_bags(expr: &RaExpr) -> Result<()> {
    match expr {
        RaExpr::Difference(..) => Err(LineageError::Unsupported(
            "difference under bag semantics (monus is not row-wise)",
        )),
        RaExpr::Intersect(..) => Err(LineageError::Unsupported(
            "intersection under bag semantics (min is not row-wise)",
        )),
        RaExpr::Select(e, cond) => {
            check_condition(cond)?;
            check_symbolic_fragment_for_bags(e)
        }
        RaExpr::Project(e, _) => check_symbolic_fragment_for_bags(e),
        RaExpr::Product(l, r) | RaExpr::Union(l, r) => {
            check_symbolic_fragment_for_bags(l)?;
            check_symbolic_fragment_for_bags(r)
        }
        other => check_symbolic_fragment(other),
    }
}

fn check_condition(cond: &Condition) -> Result<()> {
    match cond {
        Condition::True | Condition::False | Condition::Eq(..) | Condition::Neq(..) => Ok(()),
        Condition::IsConst(_) | Condition::IsNull(_) => Err(LineageError::Unsupported(
            "syntactic const(·)/null(·) predicates",
        )),
        Condition::And(a, b) | Condition::Or(a, b) => {
            check_condition(a)?;
            check_condition(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_data::{database_from_literal, tup, Value};

    fn pool(k: i64) -> Vec<Const> {
        (0..k).map(Const::Int).collect()
    }

    fn diff_db() -> Database {
        database_from_literal([
            ("R", vec!["a"], vec![tup![1]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ])
    }

    #[test]
    fn difference_example_certainty_and_counts() {
        // R = {1}, S = {⊥}: (1) is an answer of R − S iff ⊥ ≠ 1.
        let db = diff_db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        let mut batch = LineageBatch::compile(&q, &db, &pool(4)).unwrap();
        assert_eq!(batch.status(&tup![1]).unwrap(), (false, true));
        // µ over a 4-pool containing 1: 3 of 4 valuations keep the answer.
        assert_eq!(batch.mu_counts(&tup![1]).unwrap(), (3, 4));
        // (2) is never an answer: not in R.
        assert_eq!(batch.status(&tup![2]).unwrap(), (false, false));
        assert_eq!(batch.mu_counts(&tup![2]).unwrap(), (0, 4));
    }

    #[test]
    fn certain_answers_read_off_validity() {
        let db = database_from_literal([("R", vec!["a"], vec![tup![1], tup![Value::null(0)]])]);
        let q = RaExpr::rel("R");
        let mut batch = LineageBatch::compile(&q, &db, &pool(3)).unwrap();
        // 1 is literally present: certain. The null candidate too (it maps
        // to itself under every valuation).
        assert!(batch.is_certain(&tup![1]).unwrap());
        assert!(batch.is_certain(&tup![Value::null(0)]).unwrap());
        assert!(batch.is_certainly_false(&tup![7]).unwrap());
    }

    #[test]
    fn or_tautology_is_certain_symbolically() {
        // σ(a = 1 ∨ a ≠ 1)(S) keeps the null tuple in every world.
        let db = diff_db();
        let cond = Condition::eq_const(0, 1).or(Condition::neq_const(0, 1));
        let q = RaExpr::rel("S").select(cond);
        let mut batch = LineageBatch::compile(&q, &db, &pool(4)).unwrap();
        assert!(batch.is_certain(&tup![Value::null(0)]).unwrap());
    }

    #[test]
    fn intersection_certainty_and_counts() {
        // R = {1, ⊥0}, S = {1, 2}: R ∩ S certainly contains 1; the null
        // candidate is an answer exactly when v(⊥0) ∈ {1, 2}.
        let db = database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![Value::null(0)]]),
            ("S", vec!["a"], vec![tup![1], tup![2]]),
        ]);
        let q = RaExpr::rel("R").intersect(RaExpr::rel("S"));
        let mut batch = LineageBatch::compile(&q, &db, &pool(4)).unwrap();
        assert_eq!(batch.status(&tup![1]).unwrap(), (true, true));
        assert_eq!(batch.status(&tup![Value::null(0)]).unwrap(), (false, true));
        // Over the pool {0, 1, 2, 3}: 2 of 4 valuations hit {1, 2}.
        assert_eq!(batch.mu_counts(&tup![Value::null(0)]).unwrap(), (2, 4));
        assert_eq!(batch.status(&tup![3]).unwrap(), (false, false));
    }

    #[test]
    fn candidate_with_foreign_null_is_nowhere() {
        let db = diff_db();
        let q = RaExpr::rel("R");
        let mut batch = LineageBatch::compile(&q, &db, &pool(3)).unwrap();
        assert_eq!(batch.status(&tup![Value::null(9)]).unwrap(), (false, false));
    }

    #[test]
    fn unsupported_operators_are_rejected_up_front() {
        let db = diff_db();
        let q = RaExpr::rel("R").anti_semijoin_unify(RaExpr::rel("S"));
        assert!(matches!(
            LineageBatch::compile(&q, &db, &pool(3)),
            Err(LineageError::Unsupported(_))
        ));
        let q = RaExpr::rel("R").select(Condition::IsNull(0));
        assert!(matches!(
            LineageBatch::compile(&q, &db, &pool(3)),
            Err(LineageError::Unsupported(_))
        ));
        let lit = certa_data::Relation::from_tuples(vec![tup![Value::null(3)]]);
        let q = RaExpr::rel("R").union(RaExpr::Literal(lit));
        assert!(matches!(
            LineageBatch::compile(&q, &db, &pool(3)),
            Err(LineageError::Unsupported(_))
        ));
    }

    #[test]
    fn zero_worlds_mirror_the_vacuous_quantifiers() {
        let db = diff_db();
        let q = RaExpr::rel("S");
        let mut batch = LineageBatch::compile(&q, &db, &[]).unwrap();
        assert_eq!(batch.status(&tup![1]).unwrap(), (true, false));
        assert_eq!(batch.mu_counts(&tup![1]).unwrap(), (0, 0));
    }

    #[test]
    fn restriction_agrees_with_recompiling_on_the_resolved_db() {
        // R = {1}, S = {⊥0}: resolving ⊥0 flips the candidate 1 between
        // certainly-false (⊥0 := 1) and certain (⊥0 := 2).
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        for resolved in [1i64, 2] {
            let mut restricted = LineageBatch::compile(&q, &diff_db(), &pool(4)).unwrap();
            assert!(restricted.restrict_null(0, &Const::Int(resolved)).unwrap());
            assert_eq!(restricted.restriction_count(), 1);

            let mut db = diff_db();
            assert_eq!(db.resolve_null(0, Const::Int(resolved)), 1);
            let mut fresh = LineageBatch::compile(&q, &db, &pool(4)).unwrap();

            for t in [tup![1], tup![2], tup![Value::null(0)]] {
                assert_eq!(
                    restricted.status(&t).unwrap(),
                    fresh.status(&t).unwrap(),
                    "⊥0 := {resolved}, {t}"
                );
                // µ ratios agree even though the restricted batch keeps the
                // pinned level's factor in both counts: cross-multiply.
                let (s1, t1) = restricted.mu_counts(&t).unwrap();
                let (s2, t2) = fresh.mu_counts(&t).unwrap();
                assert_eq!(s1 * t2, s2 * t1, "⊥0 := {resolved}, {t}");
            }
        }
    }

    #[test]
    fn restriction_rejects_out_of_pool_values_and_foreign_nulls() {
        let q = RaExpr::rel("S");
        let mut batch = LineageBatch::compile(&q, &diff_db(), &pool(3)).unwrap();
        assert!(!batch.restrict_null(9, &Const::Int(1)).unwrap()); // not encoded
        assert!(!batch.restrict_null(0, &Const::Int(99)).unwrap()); // outside pool
        assert_eq!(batch.restriction_count(), 0);
        // The batch still answers as before.
        assert!(batch.is_certain(&tup![Value::null(0)]).unwrap());
    }

    #[test]
    fn stacked_restrictions_compose() {
        // R = {⊥0, ⊥1}; candidate 2 is certain iff some null resolves to 2.
        let db = database_from_literal([(
            "R",
            vec!["a"],
            vec![tup![Value::null(0)], tup![Value::null(1)]],
        )]);
        let q = RaExpr::rel("R");
        let mut batch = LineageBatch::compile(&q, &db, &pool(4)).unwrap();
        assert_eq!(batch.status(&tup![2]).unwrap(), (false, true));
        assert!(batch.restrict_null(0, &Const::Int(3)).unwrap());
        assert_eq!(batch.status(&tup![2]).unwrap(), (false, true));
        assert!(batch.restrict_null(1, &Const::Int(2)).unwrap());
        assert_eq!(batch.status(&tup![2]).unwrap(), (true, true));
        assert_eq!(batch.status(&tup![3]).unwrap(), (true, true));
        assert_eq!(batch.status(&tup![1]).unwrap(), (false, false));
        assert_eq!(batch.restriction_count(), 2);
    }

    #[test]
    fn generic_membership_matches_naive_evaluation() {
        let db = diff_db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        let batch = LineageBatch::compile(&q, &db, &pool(4)).unwrap();
        let naive = certa_algebra::naive_eval(&q, &db).unwrap();
        for t in [tup![1], tup![2], tup![Value::null(0)]] {
            assert_eq!(batch.generic_membership(&t), naive.contains(&t), "{t}");
        }
    }

    #[test]
    fn thirty_plus_independent_nulls_compile_and_count() {
        // A configuration enumeration can never reach: 32 independent
        // nulls over a 4-pool is 2^64 worlds.
        let rows: Vec<Tuple> = (0..32u32).map(|i| tup![Value::null(i)]).collect();
        let db = database_from_literal([("R", vec!["a"], rows)]);
        let q = RaExpr::rel("R");
        let mut batch = LineageBatch::compile(&q, &db, &pool(4)).unwrap();
        assert_eq!(batch.world_count().unwrap(), 1u128 << 64);
        // ⊥0 is certain (it is its own witness in every world).
        assert!(batch.is_certain(&tup![Value::null(0)]).unwrap());
        // The constant 0 is possible (some null can take it) but not
        // certain, and its exact support is 4^32 − 3^32.
        let (support, total) = batch.mu_counts(&tup![0]).unwrap();
        assert_eq!(total, 1u128 << 64);
        assert_eq!(support, (1u128 << 64) - 3u128.pow(32));
    }
}
