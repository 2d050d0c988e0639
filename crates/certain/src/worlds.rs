//! Possible-world enumeration.
//!
//! The semantics of an incomplete database under the closed-world assumption
//! is `⟦D⟧ = { v(D) | v a valuation }` (§2). For exact ground-truth
//! computations we enumerate the valuations whose range lies in a finite
//! *constant pool*. For generic queries this is lossless as long as the pool
//! contains every constant of the database and of the query plus at least
//! `|Null(D)|` fresh constants: any valuation can be renamed, fixing the
//! database and query constants, into one over the pool without affecting
//! membership of an answer tuple (genericity), so quantification over all
//! valuations and over pool valuations agree.

use crate::{CertainError, Result};
use certa_algebra::{governor, RaExpr};
use certa_data::valuation::count_valuations;
use certa_data::{Const, Database, GovernorError, NullId, Valuation};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Default cap on the number of worlds an exact computation may enumerate.
pub const DEFAULT_WORLD_BOUND: usize = 2_000_000;

/// Specification of the possible worlds to enumerate: the constant pool, a
/// safety bound on the number of valuations, and the parallelism used by
/// [`WorldEngine`] batch evaluations (0 = one worker per available core).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSpec {
    pool: Vec<Const>,
    bound: usize,
    threads: usize,
}

impl WorldSpec {
    /// Build a spec with an explicit pool and the default bound.
    pub fn new(pool: impl IntoIterator<Item = Const>) -> Self {
        WorldSpec {
            pool: pool.into_iter().collect(),
            bound: DEFAULT_WORLD_BOUND,
            threads: 0,
        }
    }

    /// Change the bound on the number of worlds.
    #[must_use]
    pub fn with_bound(mut self, bound: usize) -> Self {
        self.bound = bound;
        self
    }

    /// Fix the number of worker threads used by world-batch evaluations
    /// (0 restores the default: one worker per available core). The thread
    /// count never changes results — chunks are reduced in a deterministic
    /// order with associative, commutative combiners.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The configured worker-thread count, as requested (0 = auto).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker-thread count that will actually run: the request clamped
    /// to [`std::thread::available_parallelism`], read once per process
    /// ([`certa_algebra::morsel::effective_threads`]). "16 workers" on a
    /// 1-CPU host is 1 worker, and `explain()` reports it as such.
    pub fn effective_threads(&self) -> usize {
        certa_algebra::morsel::effective_threads(self.threads)
    }

    /// The configured cap on the number of worlds.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The constant pool.
    pub fn pool(&self) -> &[Const] {
        &self.pool
    }

    /// Number of valuations this spec induces on a database.
    pub fn world_count(&self, db: &Database) -> usize {
        count_valuations(db.nulls().len(), self.pool.len())
    }

    /// Check the bound for a database.
    ///
    /// # Errors
    ///
    /// Returns [`CertainError::TooManyWorlds`] when the enumeration would
    /// exceed the bound.
    pub fn check(&self, db: &Database) -> Result<()> {
        let worlds = self.world_count(db);
        if worlds > self.bound {
            return Err(CertainError::TooManyWorlds {
                worlds,
                bound: self.bound,
            });
        }
        Ok(())
    }
}

/// The default pool for exact computations on `(query, database)`: the
/// constants of the database and the query plus `extra_fresh` fresh
/// constants (at least one per null is needed for exactness; more lets the
/// probabilistic module vary `k`).
pub fn default_pool(query: &RaExpr, db: &Database, extra_fresh: usize) -> WorldSpec {
    let mut pool: BTreeSet<Const> = db.consts();
    pool.extend(query.consts());
    let mut pool: Vec<Const> = pool.into_iter().collect();
    for i in 0..extra_fresh {
        pool.push(Const::str(format!("§world{i}")));
    }
    WorldSpec::new(pool)
}

/// A pool suitable for exact certain-answer computation: database and query
/// constants plus `|Null(D)| + arity(Q)` fresh constants.
///
/// The fresh budget makes the bounded enumeration exact for generic
/// queries: for any valuation `w` witnessing that a candidate tuple `t̄` is
/// not (certainly) an answer, a bijection of `Const` fixing the constants
/// of `D`, `Q` and `t̄` can move the at most `|Null(D)|` values of `w`'s
/// range into the pool's fresh constants that do not occur in `t̄`
/// (at most `arity(Q)` of them can), producing a pool valuation with the
/// same behaviour by genericity.
pub fn exact_pool(query: &RaExpr, db: &Database) -> WorldSpec {
    let arity = query.arity(db.schema()).unwrap_or(0);
    default_pool(query, db, (db.nulls().len() + arity).max(1))
}

/// Enumerate the valuations of the database's nulls over the spec's pool,
/// together with the possible world each induces.
///
/// # Errors
///
/// Returns [`CertainError::TooManyWorlds`] if the enumeration would exceed
/// the spec's bound.
pub fn enumerate_worlds<'a>(
    db: &'a Database,
    spec: &'a WorldSpec,
) -> Result<impl Iterator<Item = (Valuation, Database)> + 'a> {
    spec.check(db)?;
    let nulls = db.nulls();
    Ok(all_valuations_owned(nulls, spec.pool()).map(move |v| {
        let world = v.apply_database(db);
        (v, world)
    }))
}

/// Like [`certa_data::valuation::all_valuations`] but owning its inputs, so
/// the iterator can outlive local borrows.
///
/// The world count saturates at `usize::MAX` instead of panicking on
/// overflow; every public entry point bound-checks with [`WorldSpec::check`]
/// (surfacing [`CertainError::TooManyWorlds`]) before an iterator is built,
/// so a saturated count is never actually enumerated.
fn all_valuations_owned(
    nulls: BTreeSet<NullId>,
    pool: &[Const],
) -> impl Iterator<Item = Valuation> + '_ {
    let nulls: Vec<NullId> = nulls.into_iter().collect();
    let total = count_valuations(nulls.len(), pool.len());
    (0..total).map(move |idx| certa_data::valuation::valuation_at(&nulls, pool, idx))
}

/// A bound-checked, parallel evaluator over the possible worlds of a
/// database: the compile-once/execute-many counterpart of
/// [`enumerate_worlds`].
///
/// The engine fixes the null ordering and world count up front
/// (rejecting over-bound enumerations with
/// [`CertainError::TooManyWorlds`] before any work starts) and then runs a
/// *map-reduce* over the valuation space: the valuation index range is split
/// into one contiguous chunk per worker thread
/// (`std::thread::scope`; no external dependencies), each worker folds its
/// chunk locally, and the per-chunk results are reduced in deterministic
/// chunk order. With an associative, commutative `reduce` the result is
/// independent of the thread count — the property the
/// `property_prepared_worlds` suite asserts for 1, 2 and N workers.
///
/// Callers evaluate queries inside `map` with a
/// [`certa_algebra::PreparedQuery`] over a
/// [`certa_algebra::ValuationSource`], so no possible world is ever
/// materialised: the base database is shared read-only across workers and
/// nulls are substituted during scans.
pub struct WorldEngine<'a> {
    db: &'a Database,
    pool: &'a [Const],
    nulls: Vec<NullId>,
    total: usize,
    threads: usize,
}

impl<'a> WorldEngine<'a> {
    /// Build an engine for the worlds of `db` under `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`CertainError::TooManyWorlds`] when the enumeration would
    /// exceed the spec's bound (including counts that overflow `usize`,
    /// which saturate and are therefore always over-bound).
    pub fn new(db: &'a Database, spec: &'a WorldSpec) -> Result<Self> {
        spec.check(db)?;
        let nulls: Vec<NullId> = db.nulls().into_iter().collect();
        let total = count_valuations(nulls.len(), spec.pool().len());
        let threads = spec.effective_threads();
        Ok(WorldEngine {
            db,
            pool: spec.pool(),
            nulls,
            total,
            threads,
        })
    }

    /// The database whose worlds are enumerated.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// Number of worlds the engine will visit.
    pub fn world_count(&self) -> usize {
        self.total
    }

    /// Number of worker threads batches will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The valuation at a given index of the lexicographic enumeration
    /// (same order as [`enumerate_worlds`]; decoded by the shared
    /// [`certa_data::valuation::valuation_at`]).
    fn valuation_at(&self, idx: usize) -> Valuation {
        certa_data::valuation::valuation_at(&self.nulls, self.pool, idx)
    }

    /// Map every world to a value and reduce the values to one.
    ///
    /// `map` is called with each valuation (combine it with a prepared
    /// query over a [`certa_algebra::ValuationSource`] to evaluate on the
    /// world `v(D)` without materialising it); `reduce` combines two
    /// accumulated values and must be associative and commutative;
    /// `absorbing` identifies values that `reduce` can never change again
    /// (the empty relation under intersection, `false` under conjunction),
    /// letting all workers stop early without affecting the result. Use
    /// `|_| false` when no absorbing state exists.
    ///
    /// Returns `Ok(None)` only when there are zero worlds (nulls present
    /// but an empty pool).
    ///
    /// # Errors
    ///
    /// Propagates the first `map` error in deterministic chunk order.
    pub fn map_reduce<T, M, R, A>(&self, map: M, reduce: R, absorbing: A) -> Result<Option<T>>
    where
        T: Send,
        M: Fn(&Valuation) -> Result<T> + Sync,
        R: Fn(T, T) -> T + Sync,
        A: Fn(&T) -> bool + Sync,
    {
        self.fold_reduce(
            || None,
            |acc: &mut Option<T>, v| {
                let value = map(v)?;
                *acc = Some(match acc.take() {
                    None => value,
                    Some(prev) => reduce(prev, value),
                });
                Ok(())
            },
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(reduce(a, b)),
                (a, b) => a.or(b),
            },
            |acc| acc.as_ref().is_some_and(&absorbing),
        )
        .map(Option::flatten)
    }

    /// Like [`WorldEngine::map_reduce`], but each worker threads a mutable
    /// accumulator through its whole chunk: `init` seeds one accumulator
    /// per chunk, `fold` absorbs a world into it, `reduce` combines chunk
    /// accumulators in deterministic chunk order, and `absorbing` allows a
    /// global early exit once an accumulator can no longer change under
    /// `reduce`.
    ///
    /// `init()` **must be an identity of `reduce`** (`reduce(init(), x) =
    /// x`): a chunk whose index range is empty, or that observes the
    /// early-exit flag before its first world, contributes a bare `init()`
    /// to the reduction, and only an identity keeps the result independent
    /// of the thread count. (All-`true` masks under conjunction and
    /// `(true, false)` bit pairs under `(∧, ∨)` are identities; a non-zero
    /// counter under `+` is not.)
    ///
    /// The stateful fold is what lets certainty checks *prune*: a
    /// candidate already refuted inside a chunk is never re-evaluated for
    /// that chunk's remaining worlds, matching the seed loop's `retain`
    /// behaviour while staying thread-count invariant.
    ///
    /// Returns `Ok(None)` only when there are zero worlds.
    ///
    /// # Errors
    ///
    /// Propagates the first `fold` error in deterministic chunk order.
    pub fn fold_reduce<T, I, F, R, A>(
        &self,
        init: I,
        fold: F,
        reduce: R,
        absorbing: A,
    ) -> Result<Option<T>>
    where
        T: Send,
        I: Fn() -> T + Sync,
        F: Fn(&mut T, &Valuation) -> Result<()> + Sync,
        R: Fn(T, T) -> T + Sync,
        A: Fn(&T) -> bool + Sync,
    {
        if self.total == 0 {
            return Ok(None);
        }
        let threads = self.threads.clamp(1, self.total);
        if threads == 1 {
            // Panic isolation covers the sequential path too: a poisoned
            // world (or an injected worker fault) fails the query with a
            // typed error, never the process.
            return catch_unwind(AssertUnwindSafe(|| {
                self.fold_range(0, self.total, &init, &fold, &absorbing, None)
            }))
            .unwrap_or_else(|payload| {
                Err(CertainError::Governor(GovernorError::WorkerPanicked(
                    governor::panic_message(&*payload),
                )))
            })
            .map(Some);
        }
        let chunk = self.total.div_ceil(threads);
        let stop = AtomicBool::new(false);
        let shared = governor::current();
        // Workers re-adopt the spawning thread's trace context so their
        // chunk spans nest under the span that launched the engine.
        let obs_ctx = certa_obs::context();
        let results: Vec<Result<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (init, fold, absorbing, stop, shared, obs_ctx) =
                        (&init, &fold, &absorbing, &stop, &shared, &obs_ctx);
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(self.total);
                    scope.spawn(move || {
                        // The spawning thread's governor (deadline, budgets,
                        // cancel token) applies inside every worker.
                        let _governed = governor::install(shared.clone());
                        let _observed = certa_obs::attach(obs_ctx.as_ref());
                        catch_unwind(AssertUnwindSafe(|| {
                            self.fold_range(lo, hi, init, fold, absorbing, Some(stop))
                        }))
                        .unwrap_or_else(|payload| {
                            stop.store(true, Ordering::Relaxed);
                            Err(CertainError::Governor(GovernorError::WorkerPanicked(
                                governor::panic_message(&*payload),
                            )))
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        // Unreachable in practice (the worker body catches
                        // its own panics), but a join failure must still be
                        // a typed error, not a process abort.
                        Err(CertainError::Governor(GovernorError::WorkerPanicked(
                            governor::panic_message(&*payload),
                        )))
                    })
                })
                .collect()
        });
        let mut acc: Option<T> = None;
        for chunk_result in results {
            let value = chunk_result?;
            acc = Some(match acc {
                None => value,
                Some(prev) => reduce(prev, value),
            });
        }
        Ok(acc)
    }

    /// Fold a contiguous range of world indices into one accumulator.
    /// `stop` is the shared early-exit flag of a parallel run: it is raised
    /// when an absorbing value is reached (sound because absorbing values
    /// survive any further reduction) or on error (the error is still
    /// reported in chunk order).
    fn fold_range<T, I, F, A>(
        &self,
        lo: usize,
        hi: usize,
        init: &I,
        fold: &F,
        absorbing: &A,
        stop: Option<&AtomicBool>,
    ) -> Result<T>
    where
        I: Fn() -> T,
        F: Fn(&mut T, &Valuation) -> Result<()>,
        A: Fn(&T) -> bool,
    {
        let mut acc = init();
        let sp = certa_obs::span("worlds:chunk");
        let registry = certa_obs::metrics();
        registry.add(certa_obs::MetricId::WorldChunks, 1);
        let mut evaluated = 0u64;
        for idx in lo..hi {
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) || absorbing(&acc) {
                registry.add(certa_obs::MetricId::WorldEarlyExits, 1);
                break;
            }
            // Cooperative per-world governance: one relaxed load per world
            // (the deadline read is amortized inside the checkpoint).
            if let Err(e) = governor::checkpoint().and(certa_algebra::faultpoint!("worker:worlds"))
            {
                if let Some(s) = stop {
                    s.store(true, Ordering::Relaxed);
                }
                return Err(e.into());
            }
            let valuation = self.valuation_at(idx);
            evaluated += 1;
            if let Err(e) = fold(&mut acc, &valuation) {
                if let Some(s) = stop {
                    s.store(true, Ordering::Relaxed);
                }
                return Err(e);
            }
            if absorbing(&acc) {
                if let Some(s) = stop {
                    s.store(true, Ordering::Relaxed);
                }
                break;
            }
        }
        registry.add(certa_obs::MetricId::WorldsEvaluated, evaluated);
        sp.add("worlds", evaluated);
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_data::valuation::all_valuations as lib_all_valuations;
    use certa_data::{database_from_literal, tup, Value};

    fn db() -> Database {
        database_from_literal([(
            "R",
            vec!["a", "b"],
            vec![tup![1, Value::null(0)], tup![Value::null(1), 2]],
        )])
    }

    #[test]
    fn default_pool_contains_db_and_query_constants() {
        let q = RaExpr::rel("R").select(certa_algebra::Condition::eq_const(0, 99));
        let spec = default_pool(&q, &db(), 2);
        assert!(spec.pool().contains(&Const::Int(1)));
        assert!(spec.pool().contains(&Const::Int(2)));
        assert!(spec.pool().contains(&Const::Int(99)));
        assert_eq!(spec.pool().len(), 5);
    }

    #[test]
    fn world_count_and_bound() {
        let d = db();
        let spec = WorldSpec::new([Const::Int(1), Const::Int(2), Const::Int(3)]);
        assert_eq!(spec.world_count(&d), 9);
        assert!(spec.check(&d).is_ok());
        let tight = spec.clone().with_bound(8);
        assert!(matches!(
            tight.check(&d),
            Err(CertainError::TooManyWorlds {
                worlds: 9,
                bound: 8
            })
        ));
    }

    #[test]
    fn enumerate_worlds_produces_complete_databases() {
        let d = db();
        let spec = WorldSpec::new([Const::Int(1), Const::Int(2)]);
        let worlds: Vec<_> = enumerate_worlds(&d, &spec).unwrap().collect();
        assert_eq!(worlds.len(), 4);
        for (v, w) in &worlds {
            assert!(w.is_complete());
            assert_eq!(&v.apply_database(&d), w);
        }
        // All four valuations are distinct.
        let distinct: BTreeSet<String> = worlds.iter().map(|(v, _)| v.to_string()).collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn no_nulls_means_single_world() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![1]])]);
        let spec = WorldSpec::new([Const::Int(1)]);
        let worlds: Vec<_> = enumerate_worlds(&d, &spec).unwrap().collect();
        assert_eq!(worlds.len(), 1);
        assert_eq!(worlds[0].1, d);
    }

    #[test]
    fn owned_enumeration_matches_library_enumeration() {
        let d = db();
        let pool = vec![Const::Int(1), Const::Int(7)];
        let owned: Vec<String> = all_valuations_owned(d.nulls(), &pool)
            .map(|v| v.to_string())
            .collect();
        let borrowed: Vec<String> = lib_all_valuations(&d.nulls(), &pool)
            .map(|v| v.to_string())
            .collect();
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn exact_pool_budget_covers_nulls_and_arity() {
        let q = RaExpr::rel("R");
        let spec = exact_pool(&q, &db());
        // 2 database constants + (2 nulls + arity 2) fresh.
        assert_eq!(spec.pool().len(), 6);
    }

    #[test]
    fn overflow_surfaces_as_too_many_worlds_not_a_panic() {
        // 70 nulls over a 3-constant pool: 3^70 overflows usize, so the
        // count saturates at usize::MAX and the bound check must reject the
        // enumeration before any iterator is built.
        let d = database_from_literal([(
            "R",
            vec!["a"],
            (0..70u32).map(|i| tup![Value::null(i)]).collect(),
        )]);
        let spec = WorldSpec::new([Const::Int(1), Const::Int(2), Const::Int(3)]);
        assert_eq!(spec.world_count(&d), usize::MAX);
        assert!(matches!(
            spec.check(&d),
            Err(CertainError::TooManyWorlds {
                worlds: usize::MAX,
                ..
            })
        ));
        assert!(matches!(
            enumerate_worlds(&d, &spec).map(|_| ()),
            Err(CertainError::TooManyWorlds { .. })
        ));
        assert!(matches!(
            WorldEngine::new(&d, &spec).map(|_| ()),
            Err(CertainError::TooManyWorlds { .. })
        ));
    }

    #[test]
    fn world_engine_visits_every_world_for_any_thread_count() {
        let d = db();
        let base = WorldSpec::new([Const::Int(1), Const::Int(2), Const::Int(3)]);
        for threads in [1usize, 2, 5, 16] {
            let spec = base.clone().with_threads(threads);
            let engine = WorldEngine::new(&d, &spec).unwrap();
            assert_eq!(engine.world_count(), 9);
            // Count worlds and collect the distinct valuations.
            let count = engine
                .map_reduce(|_| Ok(1usize), |a, b| a + b, |_| false)
                .unwrap()
                .unwrap();
            assert_eq!(count, 9, "threads = {threads}");
            let vals = engine
                .map_reduce(
                    |v| Ok(BTreeSet::from([v.to_string()])),
                    |mut a, b| {
                        a.extend(b);
                        a
                    },
                    |_| false,
                )
                .unwrap()
                .unwrap();
            assert_eq!(vals.len(), 9, "threads = {threads}");
        }
    }

    #[test]
    fn world_engine_early_exit_preserves_absorbing_result() {
        let d = db();
        let spec = WorldSpec::new([Const::Int(1), Const::Int(2), Const::Int(3)]).with_threads(4);
        let engine = WorldEngine::new(&d, &spec).unwrap();
        // Conjunction with an always-false map: the absorbing `false` must
        // come back regardless of which worker reached it first.
        let out = engine
            .map_reduce(|_| Ok(false), |a, b| a && b, |b| !*b)
            .unwrap()
            .unwrap();
        assert!(!out);
    }

    #[test]
    fn world_engine_zero_worlds_yields_none() {
        let d = db();
        let spec = WorldSpec::new([]);
        let engine = WorldEngine::new(&d, &spec).unwrap();
        assert_eq!(engine.world_count(), 0);
        let out = engine
            .map_reduce(|_| Ok(1usize), |a, b| a + b, |_| false)
            .unwrap();
        assert_eq!(out, None);
    }
}
