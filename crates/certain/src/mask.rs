//! The **world-mask backend** for exact certainty: a single plan execution
//! answers every possible-world quantification.
//!
//! Where [`crate::cert`] enumerates the valuation space world by world
//! (executing the physical plan `W` times) and the lineage backend compiles
//! decision diagrams (exact, but restricted to the symbolic fragment), the
//! mask backend executes the plan **once** over the columnar mask executor
//! ([`certa_algebra::ColumnarExec`]): every tuple's `⌈W/64⌉`-word world
//! bitset lives in a relation-level contiguous arena, mask combination is a
//! width-selected word kernel over arena slices, and the expensive stages —
//! incomplete-scan expansion, join probes, and the certainty/µ_k
//! aggregation here — run **morsel-parallel** on a
//! [`certa_algebra::MorselPool`] clamped to the host's cores. Certainty,
//! certain falsity, candidate classification and the exact `µ_k` fraction
//! are popcount reads on the output masks:
//!
//! * `t̄` certain  ⇔ every substitution cylinder of `t̄` is covered by the
//!   mask of its ground image (`mask = all worlds` for null-free `t̄`);
//! * `t̄` possible ⇔ some cylinder intersects its ground image's mask;
//! * `µ_k(t̄)` numerator = Σ over cylinders of `popcount(cylinder ∧ mask)`,
//!   denominator = `W` — exact, from the same pass.
//!
//! Parallelism never changes an answer: every output above is a function of
//! the exact tuple → world-set map the plan computes, morsel results merge
//! in morsel order, and `tests/property_mask_agreement.rs` pins
//! bit-identical results at 1/2/8 workers on every differential instance.
//!
//! The mask backend covers the **full operator language** — extended
//! operators, `const(·)`/`null(·)` predicates and null literals included —
//! so it is the dispatcher's answer for every lineage-`Unsupported`
//! instance whose world count fits the bound, and for all mid-range world
//! counts where diagram compilation would cost more than one masked pass.

use crate::cert::CandidateStatus;
use crate::worlds::{exact_pool, WorldSpec};
use crate::{CertainError, Result};
use certa_algebra::mask::{
    kernel, ColumnarContext, ColumnarExec, ColumnarRel, FxHashMap, MaskArena, MaskRef, RowMask,
};
use certa_algebra::{naive_eval, MorselPool, PreparedQuery, RaExpr, Stats};
use certa_data::{Database, Relation, Tuple};

/// Everything one `(query, database, pool)` instance needs for mask-based
/// certainty: the substitution context and the query's output rows with
/// their world masks, produced by a single (morsel-parallel) plan
/// execution. `Sync`, so candidate aggregation fans out over the same pool.
pub struct MaskBatch {
    ctx: ColumnarContext,
    arena: MaskArena,
    rows: FxHashMap<Tuple, RowMask>,
    arity: usize,
    pool: MorselPool,
    /// The **world-space restriction** `R`: the set of worlds still live
    /// after the null resolutions in `restricted`, as the AND of their
    /// stripe masks (`None` = all worlds). Every read below intersects with
    /// `R`, which is sound because restriction only removes worlds: for any
    /// masks `a ⊆ R` produced over the restricted space, `b ⊆ a ⇔
    /// b∧R ⊆ a`, so covers/count reads modulo `R` answer exactly over the
    /// post-resolution database.
    restriction: Option<Vec<u64>>,
    /// The `⊥ := c` resolutions applied as restrictions, in order.
    restricted: Vec<(certa_data::NullId, certa_data::Const)>,
}

impl MaskBatch {
    /// Optimize (with instance statistics), prepare and execute the query
    /// once under the mask domain.
    ///
    /// # Errors
    ///
    /// Returns [`CertainError::TooManyWorlds`] when the valuation space
    /// exceeds the spec's bound, or an algebra error for ill-formed
    /// queries.
    pub fn compile(query: &RaExpr, db: &Database, spec: &WorldSpec) -> Result<MaskBatch> {
        let stats = Stats::from_database(db);
        let prepared = PreparedQuery::prepare_optimized_with(query, db.schema(), &stats)?;
        Self::from_prepared(&prepared, db, spec)
    }

    /// [`MaskBatch::compile`] for an already-prepared plan (used by callers
    /// that cache the [`PreparedQuery`], like `certa::Pipeline`). The plan
    /// is annotation-generic, so the same cached plan the enumeration
    /// backend executes per world runs here once, columnar.
    ///
    /// # Errors
    ///
    /// As [`MaskBatch::compile`].
    pub fn from_prepared(
        prepared: &PreparedQuery,
        db: &Database,
        spec: &WorldSpec,
    ) -> Result<MaskBatch> {
        spec.check(db)?;
        let ctx = context(db, spec)?;
        let pool = MorselPool::new(spec.threads());
        let rel = ColumnarExec::new(db, &ctx, pool).execute(prepared.plan())?;
        let (arena, row_list) = rel.into_parts();
        Ok(MaskBatch {
            ctx,
            arena,
            rows: row_list.into_iter().collect(),
            arity: prepared.arity(),
            pool,
            restriction: None,
            restricted: Vec::new(),
        })
    }

    /// Number of possible worlds (the `µ_k` denominator).
    pub fn worlds(&self) -> usize {
        self.ctx.worlds()
    }

    /// The output arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The worker pool the batch executes and aggregates on.
    pub fn pool(&self) -> &MorselPool {
        &self.pool
    }

    /// The world set of a candidate's ground image, if the plan produced it.
    fn output_mask(&self, ground: &Tuple) -> Option<MaskRef<'_>> {
        self.rows.get(ground).map(|&rm| self.arena.resolve(rm))
    }

    /// A cylinder intersected with the live restriction `R` (identity when
    /// no restriction is active; `buf` backs the materialized AND).
    fn live<'a>(&'a self, cyl: Option<&'a [u64]>, buf: &'a mut Vec<u64>) -> MaskRef<'a> {
        let cyl = cyl.map_or(MaskRef::Full, MaskRef::Words);
        match &self.restriction {
            None => cyl,
            Some(r) => {
                self.ctx.and_materialize(cyl, MaskRef::Words(r), buf);
                MaskRef::Words(buf)
            }
        }
    }

    /// `true` iff `v(t̄) ∈ Q(v(D))` for **every** live valuation `v`: each
    /// substitution cylinder of the candidate, intersected with the
    /// restriction, must be covered by the mask of its ground image. (With
    /// zero live worlds the quantification is vacuously true, matching the
    /// enumeration engines.)
    pub fn is_certain(&self, t: &Tuple) -> bool {
        let mut scratch = Vec::new();
        let mut rbuf = Vec::new();
        let mut certain = true;
        self.ctx.expand_for_each(t, &mut scratch, |ground, cyl| {
            if !certain {
                return;
            }
            let cyl = self.live(cyl, &mut rbuf);
            certain = match self.output_mask(&ground) {
                Some(mask) => self.ctx.covers(mask, cyl),
                None => self.ctx.count(cyl) == 0,
            };
        });
        certain
    }

    /// The candidate's certain/possible bit pair, read off the same masks.
    pub fn status(&self, t: &Tuple) -> CandidateStatus {
        let mut scratch = Vec::new();
        let mut rbuf = Vec::new();
        let mut certain = true;
        let mut possible = false;
        self.ctx.expand_for_each(t, &mut scratch, |ground, cyl| {
            let cyl = self.live(cyl, &mut rbuf);
            match self.output_mask(&ground) {
                Some(mask) => {
                    certain = certain && self.ctx.covers(mask, cyl);
                    possible = possible || self.ctx.count_and(mask, cyl) > 0;
                }
                None => certain = certain && self.ctx.count(cyl) == 0,
            }
        });
        CandidateStatus { certain, possible }
    }

    /// The exact `µ_k` support counts for a candidate:
    /// `(|{v live | v(t̄) ∈ Q(v(D))}|, |live worlds|)`. The substitution
    /// cylinders of `t̄` partition the valuation space, so the numerator is
    /// the sum of per-cylinder popcounts; under a restriction both counts
    /// range over the live sub-space only.
    pub fn mu_counts(&self, t: &Tuple) -> (u128, u128) {
        let mut scratch = Vec::new();
        let mut rbuf = Vec::new();
        let mut numerator = 0usize;
        self.ctx.expand_for_each(t, &mut scratch, |ground, cyl| {
            let cyl = self.live(cyl, &mut rbuf);
            if let Some(mask) = self.output_mask(&ground) {
                numerator += self.ctx.count_and(mask, cyl);
            }
        });
        (numerator as u128, self.live_worlds() as u128)
    }

    /// Classify many candidates off this batch, morsel-parallel over its
    /// worker pool.
    ///
    /// # Errors
    ///
    /// [`CertainError::Governor`] when the installed governor trips (or a
    /// worker panics — isolated by the pool, never unwound across it).
    pub fn classify(&self, tuples: &[Tuple]) -> Result<Vec<CandidateStatus>> {
        let chunks = self.pool.try_run(tuples.len(), |_, range| {
            tuples[range]
                .iter()
                .map(|t| self.status(t))
                .collect::<Vec<CandidateStatus>>()
        })?;
        Ok(chunks.into_iter().flatten().collect())
    }

    /// Worlds still live under the restriction (`worlds()` when none).
    pub fn live_worlds(&self) -> usize {
        match &self.restriction {
            None => self.ctx.worlds(),
            Some(r) => self.ctx.count(MaskRef::Words(r)),
        }
    }

    /// The `⊥ := c` resolutions applied as restrictions, in order.
    pub fn restricted_nulls(&self) -> &[(certa_data::NullId, certa_data::Const)] {
        &self.restricted
    }

    /// `true` iff ⊥ is one of this batch's context nulls and `value` is in
    /// its pool — the preconditions of [`MaskBatch::restrict`].
    pub fn can_restrict(&self, null: certa_data::NullId, value: &certa_data::Const) -> bool {
        self.ctx.stripe_for(null, value).is_some()
    }

    /// `true` iff ⊥ is indexed by this batch's substitution context.
    pub fn indexes_null(&self, null: certa_data::NullId) -> bool {
        self.ctx.null_ordinal(null).is_some()
    }

    /// Apply the resolution ⊥ := value as a **world-space restriction**:
    /// the null's stripe mask `S(⊥, value)` is AND-ed into the live set
    /// `R`, and every later read is intersected with `R`. Nothing is
    /// re-executed: the cached masks stay exact because restriction only
    /// removes worlds (see the field invariant on `restriction`).
    ///
    /// Returns `false` — leaving the batch untouched — when the null is not
    /// part of this batch's context or the value is outside its pool; the
    /// caller must recompute in those cases.
    pub fn restrict(&mut self, null: certa_data::NullId, value: &certa_data::Const) -> bool {
        let Some(stripe) = self.ctx.stripe_for(null, value) else {
            return false;
        };
        let stripe = stripe.to_vec();
        match &mut self.restriction {
            Some(r) => kernel::and_assign(r, &stripe),
            None => self.restriction = Some(stripe),
        }
        self.restricted.push((null, value.clone()));
        true
    }

    /// OR-merge the rows of a delta execution into this batch: new tuples
    /// are adopted (their mask words copied into the batch's arena), known
    /// tuples have the delta's worlds OR-ed into their slot, saturating to
    /// [`RowMask::Full`] when every world is covered.
    fn merge_rows(&mut self, delta: ColumnarRel) {
        let worlds = self.ctx.worlds();
        let (darena, drows) = delta.into_parts();
        for (t, m) in drows {
            let incoming = darena.resolve(m);
            match self.rows.entry(t) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    let rm = match incoming {
                        MaskRef::Full => RowMask::Full,
                        MaskRef::Words(w) => {
                            if kernel::popcount(w) == worlds {
                                RowMask::Full
                            } else {
                                RowMask::Slot(self.arena.push(w))
                            }
                        }
                    };
                    e.insert(rm);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => match (*e.get(), incoming) {
                    (RowMask::Full, _) => {}
                    (RowMask::Slot(_), MaskRef::Full) => *e.get_mut() = RowMask::Full,
                    (RowMask::Slot(s), MaskRef::Words(w)) => {
                        if self.arena.or_into_slot(s, w) == worlds {
                            *e.get_mut() = RowMask::Full;
                        }
                    }
                },
            }
        }
    }

    /// Propagate an **insert delta** through the cached plan: re-execute it
    /// with `relation` overridden to just the freshly inserted `tuples`
    /// (all other relations at their current state) and OR-merge the delta
    /// rows into the batch. Semi-naïve soundness is the *caller's* gate
    /// (see [`certa_algebra::DeltaProfile`]): the plan must be monotone,
    /// free of active-domain powers, and scan `relation` at most once, and
    /// the delta tuples must stay inside this batch's null/pool universe.
    ///
    /// # Errors
    ///
    /// As [`MaskBatch::compile`], from the delta execution.
    pub fn apply_insert_delta(
        &mut self,
        prepared: &PreparedQuery,
        db: &Database,
        relation: &str,
        tuples: &[Tuple],
    ) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        let over = Relation::with_arity(tuples[0].arity(), tuples.iter().cloned());
        let overrides = [(relation.to_string(), over)];
        let delta = ColumnarExec::new(db, &self.ctx, self.pool)
            .with_overrides(&overrides)
            .execute(prepared.plan())?;
        self.merge_rows(delta);
        Ok(())
    }
}

/// Build the columnar mask context for a database under a world spec.
/// Callers must have bound-checked already; a saturated world count is
/// defensively surfaced as [`CertainError::TooManyWorlds`].
fn context(db: &Database, spec: &WorldSpec) -> Result<ColumnarContext> {
    ColumnarContext::new(db.nulls(), spec.pool().iter().cloned()).ok_or(
        CertainError::TooManyWorlds {
            worlds: usize::MAX,
            bound: spec.bound(),
        },
    )
}

/// [`crate::cert::cert_with_nulls`] decided by the world-mask backend: one
/// plan execution, certainty read off as full output masks.
///
/// Uses the same default pool as the enumeration backend; the two are held
/// to exact agreement by `tests/property_mask_agreement.rs`.
///
/// # Errors
///
/// Returns [`CertainError::TooManyWorlds`] past the world bound, or an
/// algebra error for ill-formed queries.
pub fn cert_with_nulls_mask(query: &RaExpr, db: &Database) -> Result<Relation> {
    cert_with_nulls_mask_with(query, db, &exact_pool(query, db))
}

/// [`cert_with_nulls_mask`] with an explicit world specification. The
/// per-candidate certainty checks fan out over the spec's worker pool.
///
/// # Errors
///
/// As [`cert_with_nulls_mask`].
pub fn cert_with_nulls_mask_with(
    query: &RaExpr,
    db: &Database,
    spec: &WorldSpec,
) -> Result<Relation> {
    let candidates = naive_eval(query, db)?;
    let batch = MaskBatch::compile(query, db, spec)?;
    let tuples: Vec<&Tuple> = candidates.iter().collect();
    let keep = batch.pool().try_run(tuples.len(), |_, range| {
        tuples[range]
            .iter()
            .map(|t| batch.is_certain(t))
            .collect::<Vec<bool>>()
    })?;
    Ok(Relation::with_arity(
        candidates.arity(),
        tuples
            .iter()
            .zip(keep.into_iter().flatten())
            .filter(|&(_, k)| k)
            .map(|(t, _)| (*t).clone()),
    ))
}

/// Classify candidate tuples with the world-mask backend: the certain and
/// possible bits of every candidate, all read off one plan execution
/// (where [`crate::cert::classify_candidates`] re-executes the plan per
/// world), with the per-candidate aggregation morsel-parallel over the
/// spec's worker pool. Same signature as the enumeration classifier so
/// `certa::Pipeline` can dispatch between them per instance.
///
/// # Errors
///
/// As [`cert_with_nulls_mask`].
pub fn classify_candidates_mask(
    prepared: &PreparedQuery,
    db: &Database,
    spec: &WorldSpec,
    tuples: &[Tuple],
) -> Result<Vec<CandidateStatus>> {
    let batch = MaskBatch::from_prepared(prepared, db, spec)?;
    batch.classify(tuples)
}

/// Evaluation statistics of one mask-backend pass, reported by
/// `certa::Pipeline::explain` alongside the lineage diagram sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskStats {
    /// Possible worlds — bits per mask.
    pub worlds: usize,
    /// `u64` blocks per mask (`⌈worlds/64⌉`).
    pub words_per_mask: usize,
    /// Annotated rows produced across all operator outputs of the pass.
    pub rows: usize,
    /// Distinct mask values observed across those rows (full masks count
    /// as one value): low numbers mean the pass shared almost all of its
    /// bitsets.
    pub distinct_masks: usize,
    /// Worker threads as requested by the spec (0 = auto).
    pub threads_requested: usize,
    /// Worker threads that actually ran, clamped to the host's cores.
    pub threads: usize,
    /// Morsels dispatched across the pass's parallel stages.
    pub morsels: usize,
    /// Total mask-arena words across operator outputs (8 bytes each).
    pub arena_words: usize,
}

/// Execute the prepared plan once under the mask domain purely to profile
/// it: world count, mask width, distinct masks, and the parallel-plan
/// shape (effective threads, morsel count, arena footprint).
///
/// # Errors
///
/// As [`cert_with_nulls_mask`].
pub fn profile(prepared: &PreparedQuery, db: &Database, spec: &WorldSpec) -> Result<MaskStats> {
    spec.check(db)?;
    let ctx = context(db, spec)?;
    let pool = MorselPool::new(spec.threads());
    let exec = ColumnarExec::new(db, &ctx, pool).profiled();
    let _ = exec.execute(prepared.plan())?;
    let stats = exec.stats();
    Ok(MaskStats {
        worlds: ctx.worlds(),
        words_per_mask: ctx.width(),
        rows: stats.rows,
        distinct_masks: stats.distinct_masks,
        threads_requested: spec.threads(),
        threads: pool.threads(),
        morsels: stats.morsels,
        arena_words: stats.arena_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert;
    use crate::reference;
    use certa_algebra::Condition;
    use certa_data::{database_from_literal, tup, Value};

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
        ])
    }

    #[test]
    fn mask_agrees_with_enumeration_on_the_running_example() {
        let db = shop_with_null();
        let q = RaExpr::rel("Orders")
            .project(vec![0])
            .difference(RaExpr::rel("Payments").project(vec![1]));
        let spec = exact_pool(&q, &db);
        assert_eq!(
            cert_with_nulls_mask_with(&q, &db, &spec).unwrap(),
            cert::cert_with_nulls_with(&q, &db, &spec).unwrap()
        );
        assert!(cert_with_nulls_mask(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn mask_keeps_null_candidates_like_cert_with_nulls() {
        // D = {R(⊥)}, Q = R: cert⊥ = {⊥}.
        let db = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)]])]);
        let q = RaExpr::rel("R");
        assert_eq!(
            cert_with_nulls_mask(&q, &db).unwrap(),
            Relation::from_tuples(vec![tup![Value::null(0)]])
        );
    }

    #[test]
    fn classification_matches_enumeration_and_seed() {
        let db = database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![2], tup![Value::null(0)]]),
            ("S", vec!["a"], vec![tup![Value::null(1)]]),
        ]);
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        let spec = exact_pool(&q, &db);
        let prepared = PreparedQuery::prepare(&q, db.schema()).unwrap();
        let tuples = [tup![1], tup![2], tup![Value::null(0)], tup![99]];
        let by_mask = classify_candidates_mask(&prepared, &db, &spec, &tuples).unwrap();
        let by_worlds = cert::classify_candidates(&prepared, &db, &spec, &tuples).unwrap();
        assert_eq!(by_mask, by_worlds);
        for (t, s) in tuples.iter().zip(&by_mask) {
            assert_eq!(
                s.certain,
                reference::is_certain_answer_seed(&q, &db, t).unwrap(),
                "{t}"
            );
            assert_eq!(
                !s.possible,
                reference::is_certainly_false_seed(&q, &db, t).unwrap(),
                "{t}"
            );
        }
    }

    #[test]
    fn mask_answers_outside_the_lineage_fragment() {
        // σ_{null(a)}(R) is rejected by the lineage backend; the mask
        // backend must answer it exactly like enumeration.
        let db = database_from_literal([(
            "R",
            vec!["a"],
            vec![tup![1], tup![Value::null(0)], tup![Value::null(1)]],
        )]);
        let q = RaExpr::rel("R").select(Condition::IsNull(0));
        let spec = exact_pool(&q, &db);
        assert!(matches!(
            cert::cert_with_nulls_lineage_with(&q, &db, &spec),
            Err(CertainError::Lineage(e)) if e.is_unsupported()
        ));
        let by_mask = cert_with_nulls_mask_with(&q, &db, &spec).unwrap();
        let by_worlds = cert::cert_with_nulls_with(&q, &db, &spec).unwrap();
        assert_eq!(by_mask, by_worlds);
        // Worlds are null-free, so nothing satisfies null(a) anywhere.
        assert!(by_mask.is_empty());
    }

    #[test]
    fn mu_counts_match_enumeration_exactly() {
        let db = database_from_literal([
            ("R", vec!["a"], vec![tup![Value::null(0)], tup![0], tup![1]]),
            ("S", vec!["a"], vec![tup![1]]),
        ]);
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        for k in [2usize, 3, 5] {
            for t in [tup![0], tup![1], tup![Value::null(0)], tup![7]] {
                let by_mask = crate::prob::mu_k_mask(&q, &db, &t, k).unwrap();
                let by_worlds = crate::prob::mu_k(&q, &db, &t, k).unwrap();
                assert_eq!(
                    (by_mask.numerator, by_mask.denominator),
                    (by_worlds.numerator, by_worlds.denominator),
                    "k = {k}, t = {t}"
                );
            }
        }
    }

    #[test]
    fn world_bound_is_enforced() {
        let db = database_from_literal([(
            "R",
            vec!["a", "b", "c"],
            vec![tup![Value::null(0), Value::null(1), Value::null(2)]],
        )]);
        let q = RaExpr::rel("R");
        let spec = WorldSpec::new((0..40).map(certa_data::Const::Int)).with_bound(1000);
        assert!(matches!(
            cert_with_nulls_mask_with(&q, &db, &spec),
            Err(CertainError::TooManyWorlds { .. })
        ));
    }

    #[test]
    fn zero_worlds_are_vacuously_certain() {
        let db = database_from_literal([("R", vec!["a"], vec![tup![Value::null(0)]])]);
        let q = RaExpr::rel("R");
        let spec = WorldSpec::new([]);
        let by_mask = cert_with_nulls_mask_with(&q, &db, &spec).unwrap();
        let by_worlds = cert::cert_with_nulls_with(&q, &db, &spec).unwrap();
        assert_eq!(by_mask, by_worlds);
        assert_eq!(by_mask.len(), 1);
    }

    #[test]
    fn profile_reports_mask_shape_and_parallel_plan() {
        let db = shop_with_null();
        let q = RaExpr::rel("Orders")
            .project(vec![0])
            .difference(RaExpr::rel("Payments").project(vec![1]));
        let spec = exact_pool(&q, &db).with_threads(16);
        let prepared = PreparedQuery::prepare(&q, db.schema()).unwrap();
        let stats = profile(&prepared, &db, &spec).unwrap();
        assert_eq!(stats.worlds, spec.world_count(&db));
        assert_eq!(stats.words_per_mask, stats.worlds.div_ceil(64));
        assert!(stats.rows > 0);
        assert!(stats.distinct_masks >= 2, "full and at least one stripe");
        assert_eq!(stats.threads_requested, 16);
        assert_eq!(stats.threads, spec.effective_threads());
        assert!(stats.threads >= 1);
        assert!(stats.morsels >= 2, "one per scanned base relation");
        assert!(stats.arena_words > 0, "stripe-born masks live in arenas");
    }

    #[test]
    fn restriction_matches_recompiling_on_the_resolved_db() {
        use certa_data::Const;
        let db = shop_with_null();
        let q = RaExpr::rel("Orders")
            .project(vec![0])
            .difference(RaExpr::rel("Payments").project(vec![1]));
        // Pin a shared spec so the restricted batch and the fresh compile
        // quantify over the same pool.
        let spec = exact_pool(&q, &db);
        for value in ["o2", "o3", "zzz"] {
            let c = Const::from(value);
            if !spec.pool().contains(&c) {
                continue;
            }
            let mut restricted = MaskBatch::compile(&q, &db, &spec).unwrap();
            assert!(restricted.restrict(0, &c));
            assert_eq!(restricted.restricted_nulls(), &[(0, c.clone())]);

            let mut resolved = db.clone();
            assert_eq!(resolved.resolve_null(0, c.clone()), 1);
            let fresh = MaskBatch::compile(&q, &resolved, &spec).unwrap();

            for t in [tup!["o1"], tup!["o2"], tup!["o3"], tup!["zzz"]] {
                assert_eq!(
                    restricted.status(&t),
                    fresh.status(&t),
                    "⊥0 := {value}, {t}"
                );
                // µ ratios agree: the restricted batch counts over the live
                // sub-space, the fresh one over the smaller full space of
                // the resolved db (one null fewer) — cross-multiply.
                let (n1, d1) = restricted.mu_counts(&t);
                let (n2, d2) = fresh.mu_counts(&t);
                assert_eq!(n1 * d2, n2 * d1, "⊥0 := {value}, {t}");
            }
        }
    }

    #[test]
    fn restriction_rejects_foreign_nulls_and_out_of_pool_values() {
        use certa_data::Const;
        let db = shop_with_null();
        let q = RaExpr::rel("Payments").project(vec![1]);
        let spec = exact_pool(&q, &db);
        let mut batch = MaskBatch::compile(&q, &db, &spec).unwrap();
        let before = batch.live_worlds();
        assert!(!batch.restrict(99, &Const::from("o1")));
        assert!(!batch.restrict(0, &Const::Int(123456)));
        assert_eq!(batch.live_worlds(), before);
        assert!(batch.restricted_nulls().is_empty());
    }

    #[test]
    fn insert_delta_matches_recompiling_on_the_grown_db() {
        let mut db = shop_with_null();
        let q = RaExpr::rel("Orders")
            .project(vec![0])
            .intersect(RaExpr::rel("Payments").project(vec![1]));
        let spec = exact_pool(&q, &db);
        let prepared = PreparedQuery::prepare(&q, db.schema()).unwrap();
        let profile = certa_algebra::delta_profile(prepared.plan());
        assert!(profile.monotone);
        assert!(profile.insert_delta_ok("Payments"));

        let mut batch = MaskBatch::from_prepared(&prepared, &db, &spec).unwrap();
        // Insert a ground payment for o3 (consts already in the pool) and
        // propagate it as a delta.
        let delta = vec![tup!["c3", "o3"]];
        db.insert_all("Payments", delta.clone()).unwrap();
        batch
            .apply_insert_delta(&prepared, &db, "Payments", &delta)
            .unwrap();

        let fresh = MaskBatch::from_prepared(&prepared, &db, &spec).unwrap();
        for t in [tup!["o1"], tup!["o2"], tup!["o3"], tup!["zzz"]] {
            assert_eq!(batch.status(&t), fresh.status(&t), "{t}");
            assert_eq!(batch.mu_counts(&t), fresh.mu_counts(&t), "{t}");
        }
    }

    #[test]
    fn resolve_then_delta_interleaving_stays_exact() {
        use certa_data::Const;
        // The PR-6 bug class: a restriction applied, then a delta executed
        // against the *post-resolution* database, then reads — the merged
        // masks must still agree with a from-scratch compile.
        let mut db = shop_with_null();
        let q = RaExpr::rel("Orders")
            .project(vec![0])
            .intersect(RaExpr::rel("Payments").project(vec![1]));
        let spec = exact_pool(&q, &db);
        let prepared = PreparedQuery::prepare(&q, db.schema()).unwrap();
        let mut batch = MaskBatch::from_prepared(&prepared, &db, &spec).unwrap();

        assert_eq!(db.resolve_null(0, Const::from("o2")), 1);
        assert!(batch.restrict(0, &Const::from("o2")));
        let delta = vec![tup!["c3", "o3"]];
        db.insert_all("Payments", delta.clone()).unwrap();
        batch
            .apply_insert_delta(&prepared, &db, "Payments", &delta)
            .unwrap();

        let fresh = MaskBatch::compile(&q, &db, &spec).unwrap();
        for t in [tup!["o1"], tup!["o2"], tup!["o3"]] {
            assert_eq!(batch.status(&t), fresh.status(&t), "{t}");
            let (n1, d1) = batch.mu_counts(&t);
            let (n2, d2) = fresh.mu_counts(&t);
            assert_eq!(n1 * d2, n2 * d1, "{t}");
        }
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        let db = shop_with_null();
        let q = RaExpr::rel("Orders")
            .project(vec![0])
            .difference(RaExpr::rel("Payments").project(vec![1]));
        let base = exact_pool(&q, &db);
        let reference = cert_with_nulls_mask_with(&q, &db, &base).unwrap();
        for workers in [1usize, 2, 8] {
            let spec = base.clone().with_threads(workers);
            assert_eq!(
                cert_with_nulls_mask_with(&q, &db, &spec).unwrap(),
                reference,
                "{workers} workers"
            );
        }
    }
}
