//! The end-to-end certain-answer pipeline: SQL text → relational algebra →
//! scheme-specific evaluation → labeled answers.
//!
//! [`Pipeline`] is the crate's front door for serving queries over
//! incomplete databases. It parses SQL with `certa-sql`, lowers it to the
//! paper's relational algebra, compiles the physical plan **once** per
//! `(query, schema)` — including the `(Q+, Q?)` and `(Qt, Qf)` translations
//! when a scheme first needs them — and then answers requests against any
//! database instance of that schema without re-planning:
//!
//! ```
//! use certa::pipeline::{Pipeline, Scheme};
//!
//! let db = certa::workload::shop_database(true);
//! let mut pipeline = Pipeline::new();
//! let sql = "SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM Payments)";
//! let answers = pipeline.execute(sql, &db, Scheme::Approx37).unwrap();
//! // With the NULL of §1 nothing is *certainly* unpaid…
//! assert!(answers.certain().is_empty());
//! // …but o2 and o3 are possibly unpaid.
//! assert_eq!(answers.possible().len(), 2);
//! ```
//!
//! The schemes trade exactness for tractability exactly as in the survey:
//!
//! | scheme | machinery | labels |
//! |---|---|---|
//! | [`Scheme::Exact`] | world-mask single pass or lineage diagrams, per instance | `Certain`, `Possible`, `CertainlyFalse` |
//! | [`Scheme::Approx37`] | `(Q+, Q?)` of Figure 2(b) | `Certain`, `Possible` |
//! | [`Scheme::Approx51`] | `(Qt, Qf)` of Figure 2(a) | `Certain`, `CertainlyFalse` |
//! | [`Scheme::CTable`] | conditional tables (§4.2) | `Certain`, `Possible` |

use certa_algebra::governor::{self, ExecBudget, Governor, GovernorAccounting};
use certa_algebra::{
    delta_profile, naive_eval_prepared, optimize, AlgebraError, DeltaProfile, PreparedQuery,
    RaExpr, Stats,
};
use certa_certain::worlds::WorldSpec;
use certa_certain::{CertainError, MaskBatch, PreparedApproxPair, PreparedTranslationPair};
use certa_ctables::{eval_conditional, CtError, Strategy};
use certa_data::{
    Const, DataError, Database, Delta, GovernorError, NullId, RecoveryReport, Relation, Schema,
    Tuple, Value,
};
use certa_obs::{self as obs, MetricId};
use certa_sql::lower::LoweredQuery;
use certa_sql::{lower_to_algebra, parse, SqlError};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which certain-answer machinery evaluates the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Exact certain answers from the world-mask single pass or lineage
    /// diagrams, tried per instance in the order [`Pipeline::explain`]
    /// reports — exponential in the number of nulls in the worst case
    /// (Theorem 3.12).
    Exact,
    /// The `(Q+, Q?)` approximation of Guagliardo & Libkin (Figure 2(b)):
    /// polynomial, no false positives among `Certain`.
    Approx37,
    /// The `(Qt, Qf)` approximation of Libkin (Figure 2(a)): polynomial but
    /// materialises active-domain powers; labels certainly-false tuples.
    Approx51,
    /// Conditional-table evaluation with the given grounding strategy.
    CTable(Strategy),
}

/// An exact backend for [`Scheme::Exact`]: one *rung* of the list that
/// [`Pipeline::execute`] walks for an instance. Per-world enumeration is
/// not a rung; it stays in `certa-certain` as the differential test oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The world-mask single pass: every tuple carries a bitset of the
    /// worlds containing it, so one plan execution answers the whole
    /// valuation space (64 worlds per word operation). Covers the full
    /// operator language — extended operators, `null(·)`/`const(·)`
    /// predicates, null literals — up to the world bound.
    Mask,
    /// Symbolic lineage: c-table conditions compiled into decision
    /// diagrams; certainty/possibility/counting read off the canonical
    /// form without visiting a single world, at any world count.
    Lineage,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Mask => write!(f, "world mask (single pass)"),
            Backend::Lineage => write!(f, "lineage (knowledge compilation)"),
        }
    }
}

/// World count above which [`Scheme::Exact`] tries the lineage backend
/// before the world-mask single pass: up to a few thousand worlds the
/// masked pass (one plan execution, `⌈worlds/64⌉` words per tuple) is
/// cheaper than compiling diagrams; beyond it the symbolic cost
/// (polynomial in diagram sizes, independent of the world count) wins.
/// Queries outside the symbolic fragment come back to the mask backend up
/// to the world *bound*; past it no exact backend answers them.
pub const LINEAGE_WORLD_THRESHOLD: usize = 4096;

/// The exact backend that answers one `(query, database)` instance,
/// reported by [`Pipeline::explain`]: a dry run of the rung walk
/// [`Pipeline::execute`] takes, probing each rung instead of running it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendChoice {
    /// The backend that answers [`Scheme::Exact`] when no governor trips:
    /// the first rung whose fragment covers the query. `None` when the
    /// query is outside the symbolic fragment and the instance is past the
    /// world bound; execution then fails with `TooManyWorlds`.
    pub backend: Option<Backend>,
    /// Why: the rung order and its inputs, in words, plus the fragment
    /// boundary when the walk crossed one.
    pub reason: String,
    /// Distinct marked nulls in the instance.
    pub nulls: usize,
    /// Size of the exact constant pool (each null's domain).
    pub pool: usize,
    /// Possible worlds of the instance (`pool^nulls`, saturating at
    /// `usize::MAX`).
    pub worlds: usize,
    /// Total diagram nodes after compiling the instance's lineage — set
    /// when the lineage rung answers the dry run.
    pub diagram_nodes: Option<usize>,
    /// Mask-backend statistics (world count, blocks per mask, distinct
    /// masks seen) — set when the mask rung answers the dry run.
    pub mask_stats: Option<certa_certain::MaskStats>,
}

/// The exact rungs for an instance of `worlds` possible worlds, in the
/// order the walk tries them. Up to the mask threshold the masked pass
/// comes first and lineage backs it up; up to the world `bound` lineage
/// comes first and the masked pass covers what lineage cannot express;
/// past the bound only lineage can answer.
fn rungs(worlds: usize, bound: usize) -> &'static [Backend] {
    if worlds <= LINEAGE_WORLD_THRESHOLD {
        &[Backend::Mask, Backend::Lineage]
    } else if worlds <= bound {
        &[Backend::Lineage, Backend::Mask]
    } else {
        &[Backend::Lineage]
    }
}

/// Why [`rungs`] orders the instance as it does, in words, for
/// [`Pipeline::explain`].
fn rungs_reason(spec: &WorldSpec, nulls: usize, worlds: usize) -> String {
    let shown = match worlds {
        usize::MAX => "≥ usize::MAX".to_string(),
        n => n.to_string(),
    };
    let plan = match rungs(worlds, spec.bound()) {
        [Backend::Mask, ..] => format!(
            "is within the mask threshold of {LINEAGE_WORLD_THRESHOLD}: one masked \
             pass decides all worlds at {} block(s) per tuple",
            worlds.div_ceil(64)
        ),
        [Backend::Lineage, Backend::Mask] => format!(
            "exceeds the mask threshold of {LINEAGE_WORLD_THRESHOLD}; compiling \
             lineage diagrams instead"
        ),
        _ => format!(
            "exceeds the mask threshold of {LINEAGE_WORLD_THRESHOLD} and the world \
             bound of {}; compiling lineage diagrams, the only exact backend past it",
            spec.bound()
        ),
    };
    format!(
        "{shown} world(s) ({nulls} null(s) over a {}-constant pool) {plan}",
        spec.pool().len()
    )
}

/// Try `rungs` in order under one set of rules: a fragment boundary moves
/// to the next rung under the same budget, a governor trip moves to the
/// next rung under [`Governor::for_fallback`], and any other error
/// surfaces. Returns the first rung that answers with its answer; the last
/// trip when the rungs run out after one; `None` when they run out without
/// one.
fn walk<T>(
    rungs: &[Backend],
    mut attempt: impl FnMut(Backend) -> Result<T>,
) -> Result<Option<(Backend, T)>> {
    let mut trip = None;
    for &backend in rungs {
        let outcome = if trip.is_none() {
            attempt(backend)
        } else {
            under_fallback_governor(|| attempt(backend))
        };
        match outcome {
            Ok(answer) => return Ok(Some((backend, answer))),
            // A fragment boundary: the backend cannot express the query.
            Err(PipelineError::Certain(CertainError::Lineage(e))) if e.is_unsupported() => {}
            Err(e) if e.governor_trip().is_some() => trip = Some(e),
            Err(e) => return Err(e),
        }
    }
    trip.map_or(Ok(None), Err)
}

/// The certainty label attached to an answer tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// The tuple is an answer in every possible world (or, for the
    /// approximation schemes, is guaranteed to be one).
    Certain,
    /// The tuple is an answer in some possible world (over-approximated by
    /// `Q?` under [`Scheme::Approx37`]) but not certainly.
    Possible,
    /// The tuple is certainly **not** an answer (produced by
    /// [`Scheme::Approx51`]'s `Qf` translation, and by [`Scheme::Exact`]
    /// for naïve candidates that are answers in no world).
    CertainlyFalse,
}

/// How much fidelity an answer carries relative to the requested scheme —
/// the outcome of the **degradation lattice** (`Exact ⊐ Degraded ⊐
/// Refused`). Under a resource budget ([`Pipeline::set_budget`]) a governor
/// trip never produces a wrong answer: the dispatcher either falls to
/// another *exact* backend (still [`Verdict::Exact`]), serves the sound
/// `(Q+, Q?)` approximation ([`Verdict::Degraded`]), or refuses with the
/// diagnosis ([`Verdict::Refused`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The answers are exactly what the requested scheme computes.
    Exact,
    /// A governor trip forced the dispatcher below the exact backends: the
    /// answers come from the `(Q+, Q?)` approximation. `Certain` labels are
    /// still sound (no false positives); `Possible` over-approximates;
    /// `CertainlyFalse` is not produced. The string says what tripped.
    Degraded(String),
    /// Every rung of the lattice tripped the governor (or the approximation
    /// does not cover the query): no rows, with the full diagnosis.
    Refused(String),
}

impl Verdict {
    /// Whether the answers carry full fidelity for the requested scheme.
    pub fn is_exact(&self) -> bool {
        matches!(self, Verdict::Exact)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Exact => write!(f, "exact"),
            Verdict::Degraded(why) => write!(f, "degraded: {why}"),
            Verdict::Refused(why) => write!(f, "refused: {why}"),
        }
    }
}

/// The labeled result of a pipeline execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledAnswers {
    /// Output column names (qualified as `binding.attribute`).
    pub columns: Vec<String>,
    /// Answer tuples with their labels, certain tuples first.
    pub rows: Vec<(Tuple, Label)>,
    /// Fidelity of the answers under the degradation lattice —
    /// [`Verdict::Exact`] on every ungoverned execution.
    pub verdict: Verdict,
}

impl LabeledAnswers {
    /// The tuples carrying a given label, as a relation.
    pub fn with_label(&self, label: Label) -> Relation {
        Relation::with_arity(
            self.columns.len(),
            self.rows
                .iter()
                .filter(|(_, l)| *l == label)
                .map(|(t, _)| t.clone()),
        )
    }

    /// The certain answers.
    pub fn certain(&self) -> Relation {
        self.with_label(Label::Certain)
    }

    /// The possible-but-not-certain answers.
    pub fn possible(&self) -> Relation {
        self.with_label(Label::Possible)
    }

    /// The certainly-false tuples.
    pub fn certainly_false(&self) -> Relation {
        self.with_label(Label::CertainlyFalse)
    }
}

/// Errors raised by the pipeline: any stage's error, unified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Parsing, name resolution, or lowering failed.
    Sql(SqlError),
    /// The algebra layer rejected the expression.
    Algebra(AlgebraError),
    /// The certain-answer machinery failed (e.g. the world bound was hit).
    Certain(CertainError),
    /// Conditional evaluation failed.
    CTable(CtError),
    /// A pipeline invariant was violated (e.g. the plan cache lost an entry
    /// between compilation and lookup) — a bug in the pipeline, surfaced as
    /// an error instead of a panic so servers can degrade gracefully.
    Internal(String),
    /// The data layer failed — durability attach/snapshot/recovery errors
    /// surface here when driven through the pipeline.
    Data(DataError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Sql(e) => write!(f, "sql: {e}"),
            PipelineError::Algebra(e) => write!(f, "algebra: {e}"),
            PipelineError::Certain(e) => write!(f, "certain: {e}"),
            PipelineError::CTable(e) => write!(f, "ctable: {e}"),
            PipelineError::Internal(e) => write!(f, "internal: {e}"),
            PipelineError::Data(e) => write!(f, "data: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl PipelineError {
    /// The governor trip behind this error, if that is what it is — the
    /// predicate the degradation lattice branches on. Anything else (a
    /// parse error, a genuine evaluation failure) is *not* a reason to
    /// degrade and surfaces unchanged.
    pub fn governor_trip(&self) -> Option<&GovernorError> {
        match self {
            PipelineError::Algebra(e) => e.governor_trip(),
            PipelineError::Certain(e) => e.governor_trip(),
            PipelineError::CTable(e) => e.governor_trip(),
            _ => None,
        }
    }
}

impl From<SqlError> for PipelineError {
    fn from(e: SqlError) -> Self {
        PipelineError::Sql(e)
    }
}

impl From<AlgebraError> for PipelineError {
    fn from(e: AlgebraError) -> Self {
        PipelineError::Algebra(e)
    }
}

impl From<CertainError> for PipelineError {
    fn from(e: CertainError) -> Self {
        PipelineError::Certain(e)
    }
}

impl From<CtError> for PipelineError {
    fn from(e: CtError) -> Self {
        PipelineError::CTable(e)
    }
}

impl From<DataError> for PipelineError {
    fn from(e: DataError) -> Self {
        PipelineError::Data(e)
    }
}

/// Result alias for the pipeline.
pub type Result<T> = std::result::Result<T, PipelineError>;

/// Everything compiled for one `(query, schema)` pair.
struct CacheEntry {
    schema: Schema,
    lowered: LoweredQuery,
    /// The lowered expression after the logical optimizer (selection
    /// pushdown, join reordering, dead-column pruning) — what `plain` and
    /// the c-table scheme actually execute.
    optimized: RaExpr,
    plain: PreparedQuery,
    approx37: Option<PreparedApproxPair>,
    approx51: Option<PreparedTranslationPair>,
    /// The epoch-aware **answer cache** for [`Scheme::Exact`]: the labeled
    /// answers of the last execution, keyed by `(instance, epoch)`, plus —
    /// on the mask backend — everything needed to *refine* them under
    /// updates instead of recomputing.
    exact: Option<ExactState>,
    /// Refine-vs-recompute decisions taken for this query so far.
    counters: MaintenanceCounters,
    /// LRU clock value of the last touch, for bounded-cache eviction.
    last_used: u64,
}

impl CacheEntry {
    /// The `(Q+, Q?)` rows on `db`, compiling the pair on first use:
    /// [`Scheme::Approx37`]'s answers, and what [`degrade`] serves.
    fn approx37_rows(&mut self, db: &Database) -> Result<Vec<(Tuple, Label)>> {
        let pair = match &mut self.approx37 {
            Some(pair) => pair,
            slot @ None => slot.insert(
                certa_certain::approx37::translate(&self.lowered.expr, &self.schema)?
                    .prepare(&self.schema)?,
            ),
        };
        let (plus, question) = pair.eval(db)?;
        Ok(labeled(&plus, &question, Label::Possible))
    }
}

/// Rows for a scheme that computes a certain relation and one other:
/// `certain` labeled [`Label::Certain`], then the rest of `other` labeled
/// `label`.
fn labeled(certain: &Relation, other: &Relation, label: Label) -> Vec<(Tuple, Label)> {
    let mut rows: Vec<(Tuple, Label)> = certain
        .iter()
        .map(|t| (t.clone(), Label::Certain))
        .collect();
    rows.extend(
        other
            .iter()
            .filter(|t| !certain.contains(t))
            .map(|t| (t.clone(), label)),
    );
    rows
}

/// The cached exact answers of one `(query, database-instance)` pair at a
/// specific epoch.
struct ExactState {
    /// [`Database::instance`] the answers were computed on — a different
    /// instance (even a clone) always recomputes.
    instance: u64,
    /// [`Database::epoch`] the answers are current at.
    epoch: u64,
    answers: LabeledAnswers,
    /// The incremental-maintenance half, present only on the mask backend
    /// (lineage answers can be served at an unchanged epoch but never
    /// refined).
    mask: Option<MaskState>,
}

/// The refinable mask-backend state: the instance-optimized plan, its delta
/// profile, the compiled batch, and the world spec it quantifies over.
struct MaskState {
    spec: certa_certain::WorldSpec,
    /// Re-optimized **per instance** with [`Stats::from_database`] (the
    /// schema-level `plain` plan stays cached separately): cardinalities
    /// and null-dependence are instance properties and must not leak
    /// across epochs or instances.
    prepared: PreparedQuery,
    profile: DeltaProfile,
    batch: MaskBatch,
}

/// The plan the mask rung executes on `db`: the lowered query optimized
/// with the instance's statistics. [`Pipeline::explain`] profiles this same
/// plan, not the schema-level `plain` one.
fn mask_plan(expr: &RaExpr, db: &Database) -> Result<PreparedQuery> {
    let stats = Stats::from_database(db);
    Ok(PreparedQuery::prepare_optimized_with(
        expr,
        db.schema(),
        &stats,
    )?)
}

/// Counts of the refine-vs-recompute decisions taken for one cached query,
/// reported by [`Pipeline::explain`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceCounters {
    /// Answers served straight from the cache (epoch unchanged, or every
    /// delta provably irrelevant to the query).
    pub served: usize,
    /// Answers refined in place: null resolutions applied as world-space
    /// restrictions and/or insert deltas merged into the cached masks.
    pub refined: usize,
    /// Insert-delta executions merged during refinements.
    pub delta_merged: usize,
    /// Full recomputations (first execution, structural change, delete,
    /// delta outside the cached world space, or log truncation).
    pub recomputed: usize,
}

impl MaintenanceCounters {
    fn absorb(&mut self, other: MaintenanceCounters) {
        self.served += other.served;
        self.refined += other.refined;
        self.delta_merged += other.delta_merged;
        self.recomputed += other.recomputed;
    }
}

/// One answer-cache decision taken, as [`tally`] counts it.
enum Tally {
    Served,
    Refined { merges: usize },
    Recomputed,
}

/// The one site that counts an answer-cache decision: in the entry's
/// counters, in the registry's `cache.answers_*` counters, and as a trace
/// instant.
fn tally(counters: &mut MaintenanceCounters, event: Tally) {
    let registry = obs::metrics();
    let instant = match event {
        Tally::Served => {
            counters.served += 1;
            registry.add(MetricId::AnswersServed, 1);
            "maintain:serve"
        }
        Tally::Refined { merges } => {
            counters.refined += 1;
            counters.delta_merged += merges;
            registry.add(MetricId::AnswersRefined, 1);
            registry.add(MetricId::AnswersDeltaMerged, merges as u64);
            "maintain:refine"
        }
        Tally::Recomputed => {
            counters.recomputed += 1;
            registry.add(MetricId::AnswersRecomputed, 1);
            "maintain:recompute"
        }
    };
    obs::instant(instant);
}

/// What the answer cache will do with a request at the database's current
/// state — the **decision lattice** (documented in ARCHITECTURE.md):
/// serve ⊐ refine ⊐ recompute, taking the cheapest sound option.
enum MaintenanceDecision {
    /// Epoch unchanged, or all deltas target relations the plan never
    /// reads: the cached answers are current.
    Serve,
    /// All deltas are refinable: resolutions become world-space
    /// restrictions, inserts become delta executions merged into the masks.
    Refine {
        resolves: Vec<(NullId, Const)>,
        inserts: Vec<(String, Vec<Tuple>)>,
    },
    /// Something forces a from-scratch execution.
    Recompute { reason: String },
}

/// Decide, from the cached state and the database's delta log, the cheapest
/// sound way to answer at the current epoch. Pure — shared by
/// [`Pipeline::execute`] (which acts on it) and [`Pipeline::explain`]
/// (which reports it).
fn decide(state: Option<&ExactState>, db: &Database) -> MaintenanceDecision {
    let recompute = |reason: &str| MaintenanceDecision::Recompute {
        reason: reason.to_string(),
    };
    let Some(state) = state else {
        return recompute("no cached answers for this instance");
    };
    if state.instance != db.instance() {
        return recompute("answers belong to a different database instance");
    }
    if state.epoch == db.epoch() {
        return MaintenanceDecision::Serve;
    }
    let Some(deltas) = db.deltas_since(state.epoch) else {
        return recompute("the delta log no longer reaches the cached epoch");
    };
    let Some(mask) = &state.mask else {
        return recompute("the cached backend has no incremental path");
    };
    let mut resolves: Vec<(NullId, Const)> = Vec::new();
    let mut inserts: Vec<(String, Vec<Tuple>)> = Vec::new();
    // Nulls that are (or become) pinned: an insert re-introducing one would
    // diverge from the restricted world space.
    let mut pinned: Vec<NullId> = mask
        .batch
        .restricted_nulls()
        .iter()
        .map(|(n, _)| *n)
        .collect();
    for delta in deltas {
        match delta {
            Delta::Structural => return recompute("a structural (whole-relation) mutation"),
            Delta::Delete { .. } => return recompute("a delete (mask merges are monotone)"),
            Delta::Resolve { null, value } => {
                if pinned.contains(null) {
                    return recompute("a null was resolved twice");
                }
                if !mask.batch.can_restrict(*null, value) {
                    return recompute("a resolution outside the cached world space");
                }
                pinned.push(*null);
                resolves.push((*null, value.clone()));
            }
            Delta::Insert { relation, tuples } => {
                if mask.profile.ignores(relation) {
                    continue; // the plan never reads it
                }
                if !mask.profile.insert_delta_ok(relation) {
                    return recompute("the plan is not monotone/linear in an inserted relation");
                }
                for t in tuples {
                    for v in t.iter() {
                        match v {
                            Value::Null(n) => {
                                if pinned.contains(n) || !mask.batch.indexes_null(*n) {
                                    return recompute(
                                        "an insert mentions a null outside the live world space",
                                    );
                                }
                            }
                            Value::Const(c) => {
                                if !mask.spec.pool().contains(c) {
                                    return recompute(
                                        "an insert mentions a constant outside the cached pool",
                                    );
                                }
                            }
                        }
                    }
                }
                inserts.push((relation.clone(), tuples.clone()));
            }
        }
    }
    if resolves.is_empty() && inserts.is_empty() {
        MaintenanceDecision::Serve
    } else {
        MaintenanceDecision::Refine { resolves, inserts }
    }
}

/// Zip candidates with their statuses into labeled rows, certain first.
fn label_rows(
    tuples: Vec<Tuple>,
    statuses: &[certa_certain::cert::CandidateStatus],
) -> Vec<(Tuple, Label)> {
    let mut rows: Vec<(Tuple, Label)> = tuples
        .into_iter()
        .zip(statuses)
        .map(|(t, s)| {
            let label = if s.certain {
                Label::Certain
            } else if s.possible {
                Label::Possible
            } else {
                Label::CertainlyFalse
            };
            (t, label)
        })
        .collect();
    let rank = |l: &Label| match l {
        Label::Certain => 0,
        Label::Possible => 1,
        Label::CertainlyFalse => 2,
    };
    rows.sort_by_key(|(_, l)| rank(l));
    rows
}

/// Default bound on the number of cached `(query, schema)` plans — each of
/// which may hold one instance's cached exact answers, so the bound also
/// caps answer-cache memory.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;

/// The budget and spend of the last governed execution, reported by
/// [`Pipeline::explain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GovernorReport {
    /// The configured limits, as [`ExecBudget::describe`].
    pub budget: String,
    /// The spent-so-far counters when the execution finished.
    pub spent: GovernorAccounting,
}

/// Run one backend attempt with panic isolation: a panic that escapes the
/// worker pools' own isolation becomes a typed governor error instead of
/// unwinding through the pipeline with a half-updated cache.
fn isolated<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(PipelineError::Certain(CertainError::Governor(
            GovernorError::WorkerPanicked(governor::panic_message(&*payload)),
        ))),
    }
}

/// Run the next rung after a trip under the fallback governor: the
/// request's deadline and cancel token stay armed, but the resource-shape
/// budgets the abandoned rung exhausted are lifted — otherwise every
/// fallback would re-trip at its first checkpoint and the request could
/// never degrade gracefully.
fn under_fallback_governor<T>(f: impl FnOnce() -> T) -> T {
    let fallback = governor::current().map(|g| g.for_fallback());
    let _guard = governor::install(fallback);
    f()
}

/// Fall below the exact rungs after `trip`: serve the sound `(Q+, Q?)`
/// approximation under whatever budget remains ([`Verdict::Degraded`]), or
/// refuse with the full diagnosis when even that trips or does not cover
/// the query ([`Verdict::Refused`]). An error that is not a governor trip
/// surfaces unchanged. Never caches: only exact answers enter the answer
/// cache.
fn degrade(
    entry: &mut CacheEntry,
    db: &Database,
    columns: Vec<String>,
    trip: PipelineError,
) -> Result<LabeledAnswers> {
    let Some(trip) = trip.governor_trip().cloned() else {
        return Err(trip);
    };
    let degrade_span = obs::span("degrade:approx37");
    if degrade_span.is_recording() {
        degrade_span.detail(trip.to_string());
    }
    let (rows, verdict) = match under_fallback_governor(|| isolated(|| entry.approx37_rows(db))) {
        Ok(rows) => (
            rows,
            Verdict::Degraded(format!(
                "exact backends refused ({trip}); serving the (Q+, Q?) approximation"
            )),
        ),
        Err(e) => {
            let detail = match e.governor_trip() {
                Some(also) => format!("the (Q+, Q?) approximation refused too ({also})"),
                None => format!("the (Q+, Q?) approximation is unavailable ({e})"),
            };
            (
                Vec::new(),
                Verdict::Refused(format!("exact backends refused ({trip}); {detail}")),
            )
        }
    };
    Ok(LabeledAnswers {
        columns,
        rows,
        verdict,
    })
}

/// Answer a [`Scheme::Exact`] request by labeling every naïve candidate
/// certain, possible, or certainly false (for the generic fragment,
/// cert⊥ ⊆ Qⁿᵃⁱᵛᵉ). The epoch-aware **answer cache** serves the cached
/// labels at an unchanged `(instance, epoch)`, and refines the cached
/// masks in place when the deltas since the cached epoch allow it
/// ([`decide`]). Anything else recomputes: [`walk`] runs the instance's
/// [`rungs`], each panic-isolated, and a trip that leaves no rung
/// [`degrade`]s.
fn execute_exact(
    entry: &mut CacheEntry,
    db: &Database,
    columns: Vec<String>,
) -> Result<LabeledAnswers> {
    match decide(entry.exact.as_ref(), db) {
        MaintenanceDecision::Serve => {
            if let Some(state) = entry.exact.as_mut() {
                tally(&mut entry.counters, Tally::Served);
                state.epoch = db.epoch();
                return Ok(state.answers.clone());
            }
        }
        MaintenanceDecision::Refine { resolves, inserts } => {
            let refined: Result<LabeledAnswers> = (|| {
                let internal = |m: &str| PipelineError::Internal(m.to_string());
                let state = entry
                    .exact
                    .as_mut()
                    .ok_or_else(|| internal("refine decision without cached state"))?;
                let mask = state
                    .mask
                    .as_mut()
                    .ok_or_else(|| internal("refine decision without mask state"))?;
                for (null, value) in &resolves {
                    if !mask.batch.restrict(*null, value) {
                        return Err(internal(
                            "restriction preconditions changed between decide and apply",
                        ));
                    }
                }
                for (relation, tuples) in &inserts {
                    mask.batch
                        .apply_insert_delta(&mask.prepared, db, relation, tuples)
                        .map_err(PipelineError::Certain)?;
                }
                // Candidates are NOT stable under updates (a resolution can
                // create one, e.g. σ_{a=42}(R) over R = {⊥} after ⊥ := 42):
                // always re-derive them on the current database. The cached
                // pool dates from an earlier epoch, so the renaming avoids
                // the current constants instead.
                let mut avoid = db.consts();
                avoid.extend(entry.lowered.expr.consts());
                let candidates = naive_eval_prepared(&entry.plain, db, &avoid)?;
                let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
                let statuses = mask.batch.classify(&tuples)?;
                let answers = LabeledAnswers {
                    columns: columns.clone(),
                    rows: label_rows(tuples, &statuses),
                    verdict: Verdict::Exact,
                };
                state.answers = answers.clone();
                state.epoch = db.epoch();
                Ok(answers)
            })();
            match refined {
                Ok(answers) => {
                    let merges = inserts.len();
                    tally(&mut entry.counters, Tally::Refined { merges });
                    return Ok(answers);
                }
                Err(e) => {
                    // The cached masks may be partially mutated: drop them
                    // rather than serve from them — the next read
                    // recomputes from scratch.
                    entry.exact = None;
                    if e.governor_trip().is_none() {
                        return Err(e);
                    }
                    // A governor trip mid-refine rolls back (the cache is
                    // already dropped) and falls through to the recompute
                    // path, under whatever budget remains.
                }
            }
        }
        MaintenanceDecision::Recompute { .. } => {}
    }
    tally(&mut entry.counters, Tally::Recomputed);
    entry.exact = None;
    let spec = certa_certain::worlds::exact_pool(&entry.lowered.expr, db);
    let worlds = spec.world_count(db);
    let rungs = rungs(worlds, spec.bound());
    obs::metrics().add(
        match rungs[0] {
            Backend::Mask => MetricId::DispatchMask,
            Backend::Lineage => MetricId::DispatchLineage,
        },
        1,
    );
    // Candidate derivation is governed too: a trip here degrades like a
    // trip on the last rung. The cached plan runs over the bijective
    // renaming; the pool holds every constant of the database and of the
    // query, so the renaming that avoids it is fresh.
    let avoid: BTreeSet<Const> = spec.pool().iter().cloned().collect();
    let candidates = match isolated(|| Ok(naive_eval_prepared(&entry.plain, db, &avoid)?)) {
        Ok(candidates) => candidates,
        Err(e) => return degrade(entry, db, columns, e),
    };
    let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
    let run = |backend| {
        isolated(|| match backend {
            Backend::Mask => {
                let _sp = obs::span("backend:mask");
                // Instance-dependent pieces are re-derived here, per
                // `(instance, epoch)`: the instance plan, and its delta
                // profile for the answer cache's refine decisions.
                let prepared = mask_plan(&entry.lowered.expr, db)?;
                let batch = MaskBatch::from_prepared(&prepared, db, &spec)?;
                let statuses = batch.classify(&tuples)?;
                let profile = delta_profile(prepared.plan());
                let state = MaskState {
                    spec: spec.clone(),
                    prepared,
                    profile,
                    batch,
                };
                Ok((statuses, Some(state)))
            }
            Backend::Lineage => {
                let _sp = obs::span("backend:lineage");
                let statuses = certa_certain::cert::classify_candidates_lineage(
                    &entry.optimized,
                    db,
                    &spec,
                    &tuples,
                )?;
                Ok((statuses, None))
            }
        })
    };
    let (statuses, mask) = match walk(rungs, run) {
        Ok(Some((_, answer))) => answer,
        // Without a trip the rungs run out only past the world bound, where
        // lineage is the only rung and the query is outside its fragment.
        Ok(None) => {
            let bound = spec.bound();
            return Err(CertainError::TooManyWorlds { worlds, bound }.into());
        }
        Err(e) => return degrade(entry, db, columns, e),
    };
    let answers = LabeledAnswers {
        columns,
        rows: label_rows(tuples, &statuses),
        verdict: Verdict::Exact,
    };
    // Only full-fidelity answers are cached: a degraded or refused result
    // must never be served — let alone refined — later as if it were exact.
    entry.exact = Some(ExactState {
        instance: db.instance(),
        epoch: db.epoch(),
        answers: answers.clone(),
        mask,
    });
    Ok(answers)
}

/// The compile-once certain-answer pipeline (see the module docs).
///
/// Holds a **bounded** plan cache keyed by SQL text: a hit with the same
/// schema reuses the lowered expression, the physical plan, and any scheme
/// translations already compiled; a schema change invalidates the entry;
/// past the capacity the least-recently-used plan (and its cached answers)
/// is evicted.
pub struct Pipeline {
    cache: HashMap<String, CacheEntry>,
    hits: usize,
    misses: usize,
    evictions: usize,
    capacity: usize,
    /// Monotone LRU clock: bumped on every cache touch.
    tick: u64,
    /// Budget armed (as a fresh [`Governor`]) around every `execute`.
    budget: Option<ExecBudget>,
    /// Accounting of the most recent governed execution.
    last_run: Option<GovernorReport>,
    /// The counters of entries evicted or replaced on a schema change; with
    /// the live entries' counters they make up
    /// [`Pipeline::maintenance_totals`].
    retired: MaintenanceCounters,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline {
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            tick: 0,
            budget: None,
            last_run: None,
            retired: MaintenanceCounters::default(),
        }
    }
}

impl Pipeline {
    /// A pipeline with an empty plan cache of the default capacity.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// A pipeline whose plan cache holds at most `capacity` plans
    /// (clamped to at least 1).
    pub fn with_cache_capacity(capacity: usize) -> Self {
        Pipeline {
            capacity: capacity.max(1),
            ..Pipeline::default()
        }
    }

    /// Open a durable store: create (or take over) `dir`, attach a
    /// write-ahead log to `db`, and return a fresh pipeline to serve it.
    /// From here on every mutation of `db` writes its log frame before it
    /// returns, so once a mutator returns its mutation survives a process
    /// crash (`kill -9`). Frames are not fsynced as they are written: a
    /// mutation survives power loss only once the next
    /// [`Database::sync_durable`], [`Database::snapshot_durable`] or
    /// [`Database::detach_durable`] returns. After a crash,
    /// [`Pipeline::recover`] on the same directory restores the committed
    /// prefix.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Data`] if the durability directory cannot
    /// be initialised.
    pub fn open(db: &mut Database, dir: impl AsRef<std::path::Path>) -> Result<Pipeline> {
        db.attach_durable(dir)?;
        Ok(Pipeline::new())
    }

    /// Recover a durable store after a crash: load the newest valid
    /// snapshot in `dir`, replay the WAL tail, and return the recovered
    /// database plus a fresh pipeline and the recovery report.
    ///
    /// The recovered database carries a **fresh instance id**, so any
    /// answers this or another pipeline cached against the pre-crash
    /// instance can never be served against the recovered one — `decide`
    /// sees the instance mismatch and recomputes (the epoch-keyed cache
    /// discipline from the incremental-maintenance layer).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Data`] when no valid snapshot exists or
    /// the filesystem fails.
    pub fn recover(
        dir: impl AsRef<std::path::Path>,
    ) -> Result<(Database, Pipeline, RecoveryReport)> {
        let _span = obs::span("pipeline:recover");
        let (db, report) = certa_data::recover(dir)?;
        Ok((db, Pipeline::new(), report))
    }

    /// `(cache hits, cache misses)` since construction.
    pub fn cache_stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// Plans evicted from the cache since construction.
    pub fn cache_evictions(&self) -> usize {
        self.evictions
    }

    /// Pipeline-lifetime maintenance totals: the counters of every entry
    /// ever cached, live or since evicted, so unlike the per-entry counters
    /// in [`Explain::maintenance`] they survive LRU eviction.
    pub fn maintenance_totals(&self) -> MaintenanceCounters {
        let mut totals = self.retired;
        for entry in self.cache.values() {
            totals.absorb(entry.counters);
        }
        totals
    }

    /// The plan cache's capacity.
    pub fn cache_capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bound the plan cache (clamped to at least 1), evicting
    /// least-recently-used plans immediately if it now overflows.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.cache.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Configure the resource budget applied to every subsequent
    /// [`Pipeline::execute`] (`None` removes governance). Each execution
    /// arms a **fresh** [`Governor`] from this budget, so deadlines and
    /// counters restart per request, while a [`governor::CancelToken`]
    /// attached to the budget is shared across them all.
    pub fn set_budget(&mut self, budget: Option<ExecBudget>) {
        self.budget = budget;
    }

    /// The configured execution budget, if any.
    pub fn budget(&self) -> Option<&ExecBudget> {
        self.budget.as_ref()
    }

    /// Number of cached `(query, schema)` plans.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Drop the least-recently-used plan (and its cached answers).
    fn evict_lru(&mut self) {
        let oldest = self
            .cache
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(evicted) = oldest.and_then(|key| self.cache.remove(&key)) {
            self.retired.absorb(evicted.counters);
            self.evictions += 1;
            obs::metrics().add(MetricId::CacheEvictions, 1);
            obs::instant("plan_cache:evict");
        }
    }

    /// Parse, lower and compile `sql` for `schema`, or reuse the cache.
    fn entry(&mut self, sql: &str, schema: &Schema) -> Result<&mut CacheEntry> {
        let valid = matches!(self.cache.get(sql), Some(entry) if entry.schema == *schema);
        if valid {
            self.hits += 1;
            obs::metrics().add(MetricId::CacheHits, 1);
            obs::instant("plan_cache:hit");
        } else {
            obs::metrics().add(MetricId::CacheMisses, 1);
            obs::instant("plan_cache:miss");
            let stmt = parse(sql)?;
            let lowered = lower_to_algebra(&stmt, schema)?;
            // The optimizer is on by default: every scheme executes the
            // rewritten plan. Only schema-level statistics are available
            // here (the cache is per query/schema, not per instance);
            // instance-dependent derivations — null-dependence and the
            // instance-statistics re-optimization of the mask backend —
            // live in the per-instance `ExactState`, re-derived per epoch.
            let optimized = optimize(&lowered.expr, schema)?;
            let plain = PreparedQuery::prepare(&optimized, schema)?;
            self.misses += 1;
            // Replacing an invalidated entry never grows the cache; a
            // genuinely new query evicts the least-recently-used plan
            // first when the cache is full.
            while self.cache.len() >= self.capacity && !self.cache.contains_key(sql) {
                self.evict_lru();
            }
            let replaced = self.cache.insert(
                sql.to_string(),
                CacheEntry {
                    schema: schema.clone(),
                    lowered,
                    optimized,
                    plain,
                    approx37: None,
                    approx51: None,
                    exact: None,
                    counters: MaintenanceCounters::default(),
                    last_used: 0,
                },
            );
            if let Some(replaced) = replaced {
                self.retired.absorb(replaced.counters);
            }
        }
        self.tick += 1;
        let tick = self.tick;
        let entry = self.cache.get_mut(sql).ok_or_else(|| {
            PipelineError::Internal(
                "plan cache lost the entry that was just compiled or validated".to_string(),
            )
        })?;
        entry.last_used = tick;
        Ok(entry)
    }

    /// Evaluate the query *plainly* (set semantics, nulls as values) through
    /// the cached prepared plan — the baseline the certainty schemes are
    /// compared against.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed SQL or evaluation failures.
    pub fn query(&mut self, sql: &str, db: &Database) -> Result<Relation> {
        let entry = self.entry(sql, db.schema())?;
        Ok(entry.plain.eval_set(db)?)
    }

    /// Execute `sql` on `db` under the given certainty scheme, returning
    /// labeled answers.
    ///
    /// [`Scheme::Exact`] first asks the answer cache to serve or refine.
    /// Otherwise it recomputes by walking the instance's exact rungs, in
    /// the order [`Pipeline::explain`] reports: the world-mask pass first
    /// up to [`LINEAGE_WORLD_THRESHOLD`] worlds, lineage first beyond it,
    /// and lineage alone past the world bound. A rung outside its fragment
    /// passes to the next under the same budget; a governor trip passes to
    /// the next under [`Governor::for_fallback`]; any other error surfaces.
    ///
    /// When a budget is configured ([`Pipeline::set_budget`]) a fresh
    /// [`Governor`] is armed around the execution. A trip — deadline,
    /// budget exhaustion, cancellation, injected fault, or an isolated
    /// worker panic — that leaves no exact rung serves the `(Q+, Q?)`
    /// approximation instead of erroring: the result is then
    /// [`Verdict::Degraded`] or [`Verdict::Refused`], never a wrong answer
    /// and never a poisoned cache entry (a cancelled refine rolls the cache
    /// back to recompute-on-next-read).
    ///
    /// # Errors
    ///
    /// Returns an error for malformed SQL, ill-formed lowered queries,
    /// [`CertainError::TooManyWorlds`] for an exact request outside the
    /// symbolic fragment and past the world bound, or operators outside a
    /// scheme's fragment (e.g. the `⋉⇑` of a lowered `NOT IN` under
    /// [`Scheme::CTable`]). Governor trips are **not** errors: they come
    /// back as `Ok` with a non-exact [`Verdict`].
    pub fn execute(&mut self, sql: &str, db: &Database, scheme: Scheme) -> Result<LabeledAnswers> {
        let request_span = obs::span("pipeline:execute");
        let started = Instant::now();
        let governor = self.budget.as_ref().map(Governor::arm);
        let out = {
            let _governed = governor::install(governor.clone());
            self.execute_governed(sql, db, scheme)
        };
        if let (Some(g), Some(budget)) = (&governor, &self.budget) {
            let spent = g.accounting();
            // The governor's spent counters are mirrored into the registry:
            // `GovernorReport` stays the per-request view, the registry the
            // cumulative one.
            let registry = obs::metrics();
            registry.add(MetricId::GovernorRows, spent.rows);
            registry.add(MetricId::GovernorArenaWords, spent.arena_words);
            registry.add(MetricId::GovernorNodes, spent.nodes);
            self.last_run = Some(GovernorReport {
                budget: budget.describe(),
                spent,
            });
        }
        obs::metrics().observe(
            certa_obs::HistogramId::RequestMicros,
            started.elapsed().as_micros() as u64,
        );
        let answers = match out {
            Ok(answers) => answers,
            // A trip that escaped the exact rungs (or hit a scheme with no
            // rungs below it): refuse with the diagnosis rather than
            // surface a transient resource condition as a query error.
            Err(e) => match e.governor_trip() {
                Some(trip) => {
                    obs::metrics().add(MetricId::GovernorTrips, 1);
                    LabeledAnswers {
                        columns: self
                            .cache
                            .get(sql)
                            .map(|entry| entry.lowered.columns.clone())
                            .unwrap_or_default(),
                        rows: Vec::new(),
                        verdict: Verdict::Refused(trip.to_string()),
                    }
                }
                None => return Err(e),
            },
        };
        let (id, name) = match &answers.verdict {
            Verdict::Exact => (MetricId::VerdictExact, "verdict:exact"),
            Verdict::Degraded(_) => (MetricId::VerdictDegraded, "verdict:degraded"),
            Verdict::Refused(_) => (MetricId::VerdictRefused, "verdict:refused"),
        };
        obs::metrics().add(id, 1);
        if request_span.is_recording() {
            obs::instant(name);
        }
        Ok(answers)
    }

    fn execute_governed(
        &mut self,
        sql: &str,
        db: &Database,
        scheme: Scheme,
    ) -> Result<LabeledAnswers> {
        let entry = self.entry(sql, db.schema())?;
        let columns = entry.lowered.columns.clone();
        // Honor cancellation (and an already-spent deadline) at request
        // entry — right after parse/lower (query-sized work that names
        // the output columns for the refusal) but before any answer is
        // computed or served: a cancelled request refuses outright, even
        // when the answer could come straight from the cache.
        governor::checkpoint().map_err(|g| PipelineError::Certain(CertainError::Governor(g)))?;
        let rows = match scheme {
            Scheme::Exact => return execute_exact(entry, db, columns),
            Scheme::Approx37 => entry.approx37_rows(db)?,
            Scheme::Approx51 => {
                let pair = match &mut entry.approx51 {
                    Some(pair) => pair,
                    slot @ None => slot.insert(
                        certa_certain::approx51::translate(&entry.lowered.expr, &entry.schema)?
                            .prepare(&entry.schema)?,
                    ),
                };
                let (q_true, q_false) = pair.eval(db)?;
                labeled(&q_true, &q_false, Label::CertainlyFalse)
            }
            Scheme::CTable(strategy) => {
                let result = eval_conditional(&entry.optimized, db, strategy)?;
                labeled(&result.certain(), &result.possible(), Label::Possible)
            }
        };
        Ok(LabeledAnswers {
            columns,
            rows,
            verdict: Verdict::Exact,
        })
    }

    /// Compile `sql` (or reuse the cache) and report what the optimizer did
    /// with it and which exact backend answers it **for this database
    /// instance**: the lowered expression before and after rewriting, the
    /// physical plan, the backend choice, and the plan cache statistics.
    ///
    /// The [`BackendChoice`] is a dry run of [`Pipeline::execute`]'s walk
    /// over the same rungs: each rung is probed instead of run — lineage by
    /// compiling the instance's diagrams, the mask pass by profiling the
    /// plan it executes — and the first probe that succeeds names the
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed SQL or ill-formed lowered queries.
    pub fn explain(&mut self, sql: &str, db: &Database) -> Result<Explain> {
        let entry = self.entry(sql, db.schema())?;
        let spec = certa_certain::worlds::exact_pool(&entry.lowered.expr, db);
        let (nulls, worlds) = (db.nulls().len(), spec.world_count(db));
        let mut reason = rungs_reason(&spec, nulls, worlds);
        let mut boundary = None;
        let walked = walk(rungs(worlds, spec.bound()), |backend| match backend {
            Backend::Lineage => {
                let batch = certa_lineage::LineageBatch::compile(&entry.optimized, db, spec.pool())
                    .map_err(|e| {
                        if e.is_unsupported() {
                            boundary = Some(e.to_string());
                        }
                        PipelineError::Certain(e.into())
                    })?;
                Ok((Some(batch.diagram_size()), None))
            }
            Backend::Mask => {
                let prepared = mask_plan(&entry.lowered.expr, db)?;
                let stats = certa_certain::mask::profile(&prepared, db, &spec)?;
                Ok((None, Some(stats)))
            }
        })?;
        let (backend, (diagram_nodes, mask_stats)) = match walked {
            Some((backend, probe)) => (Some(backend), probe),
            None => (None, (None, None)),
        };
        if let Some(e) = boundary {
            let then = backend.map_or("no exact backend answers it".to_string(), |backend| {
                format!("execution falls back to the {backend}")
            });
            reason = format!(
                "{reason}; but the query is outside the symbolic fragment ({e}), so {then}"
            );
        }
        let backend = BackendChoice {
            backend,
            reason,
            nulls,
            pool: spec.pool().len(),
            worlds,
            diagram_nodes,
            mask_stats,
        };
        let (hits, misses) = (self.hits, self.misses);
        let lifetime = self.maintenance_totals();
        let entry = self.cache.get(sql).ok_or_else(|| {
            PipelineError::Internal(
                "plan cache lost the entry that was just compiled or validated".to_string(),
            )
        })?;
        // Report what the answer cache would do with an Exact request at
        // the database's current state, and how many deltas it would chew
        // through.
        let pending_deltas = (entry.exact.as_ref())
            .filter(|state| state.instance == db.instance())
            .map(|state| (db.epoch() - state.epoch) as usize);
        let decision = match decide(entry.exact.as_ref(), db) {
            MaintenanceDecision::Serve => "serve cached answers".to_string(),
            MaintenanceDecision::Refine { resolves, inserts } => format!(
                "refine cached answers ({} restriction(s), {} delta merge(s))",
                resolves.len(),
                inserts.len()
            ),
            MaintenanceDecision::Recompute { reason } => format!("recompute: {reason}"),
        };
        Ok(Explain {
            sql: sql.to_string(),
            columns: entry.lowered.columns.clone(),
            logical_before: entry.lowered.expr.to_string(),
            logical_after: entry.optimized.to_string(),
            physical: entry.plain.plan().to_string(),
            worlds,
            backend,
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: self.evictions,
            cache_capacity: self.capacity,
            budget: self.budget.as_ref().map(ExecBudget::describe),
            governor: self.last_run.clone(),
            instance_epoch: db.epoch(),
            pending_deltas,
            decision,
            maintenance: entry.counters,
            lifetime,
            durability: db.durability().map(|d| d.describe()),
        })
    }

    /// Execute `sql` under a fresh [`Trace`](obs::Trace) and annotate the
    /// physical plan with **measured** per-operator row counts and wall
    /// time.
    ///
    /// The request first runs through the full pipeline
    /// ([`Pipeline::execute`] with [`Scheme::Exact`]) so the trace captures
    /// the real backend story — dispatch, fallbacks, degradation,
    /// maintenance decisions. Then the cached set-semantics plan is
    /// evaluated once more under a dedicated `analyze:plain` span, which
    /// yields exactly one span per plan operator; those spans are paired
    /// with the rendered plan's lines (both are in pre-order) to produce
    /// the per-operator report.
    ///
    /// The returned [`ExplainAnalyze`] keeps the whole [`Trace`](obs::Trace)
    /// so callers can export it with
    /// [`Trace::to_chrome_json`](obs::Trace::to_chrome_json).
    ///
    /// # Errors
    ///
    /// Returns an error for malformed SQL, ill-formed lowered queries, or a
    /// governor trip during the plain-plan replay.
    pub fn explain_analyze(&mut self, sql: &str, db: &Database) -> Result<ExplainAnalyze> {
        let trace = obs::Trace::new();
        let _installed = obs::install(Some(trace.clone()));
        let started = Instant::now();
        let (verdict, answer_rows) = {
            let _request = obs::span("request");
            let answers = self.execute(sql, db, Scheme::Exact)?;
            (answers.verdict.clone(), answers.rows.len())
        };

        // Replay the cached set-semantics plan under a dedicated span: one
        // op span per plan node, single-threaded, so span ids increase in
        // pre-order — the same order `render()` emits plan lines.
        let entry = self.entry(sql, db.schema())?;
        let plan_text = entry.plain.plan().to_string();
        let analyze_id;
        {
            let sp = obs::span("analyze:plain");
            analyze_id = sp.id();
            entry.plain.eval_set(db)?;
        }
        drop(_installed);
        let total_us = started.elapsed().as_micros() as u64;

        let mut events = trace.events();
        // Spans record on close, so children precede parents in the raw
        // event list; ids are allocated at open, so sorting by id restores
        // pre-order and lets one forward pass collect the descendants of
        // the analyze:plain span.
        events.sort_by_key(|ev| ev.id);
        let mut in_analyze: std::collections::HashSet<u64> = std::collections::HashSet::new();
        in_analyze.insert(analyze_id);
        let mut ops: Vec<(u64, &obs::Event)> = Vec::new();
        for ev in &events {
            if ev.kind != obs::EventKind::Complete || ev.id == analyze_id {
                continue;
            }
            if in_analyze.contains(&ev.parent) {
                in_analyze.insert(ev.id);
                ops.push((ev.id, ev));
            }
        }
        // Self time: an operator's duration minus its direct children's.
        let mut child_us: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (_, ev) in &ops {
            *child_us.entry(ev.parent).or_insert(0) += ev.dur_us;
        }
        let operators: Vec<OpReport> = plan_text
            .lines()
            .zip(ops.iter())
            .map(|(line, (id, ev))| OpReport {
                line: line.to_string(),
                label: ev.detail.clone().unwrap_or_default(),
                rows: ev
                    .args
                    .iter()
                    .find(|(k, _)| *k == "rows")
                    .map_or(0, |(_, v)| *v),
                time_us: ev.dur_us,
                self_time_us: ev.dur_us.saturating_sub(*child_us.get(id).unwrap_or(&0)),
            })
            .collect();
        Ok(ExplainAnalyze {
            sql: sql.to_string(),
            plan: plan_text,
            operators,
            verdict,
            answer_rows,
            total_us,
            trace,
        })
    }
}

/// One operator row of an [`ExplainAnalyze`] report: a rendered plan line
/// paired with the measured span that executed it.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// The operator's line in the rendered physical plan (indented).
    pub line: String,
    /// The operator's header as recorded by the span (`detail`).
    pub label: String,
    /// Rows the operator produced.
    pub rows: u64,
    /// Wall time of the operator **including** its inputs, µs.
    pub time_us: u64,
    /// Wall time minus the direct children's, µs.
    pub self_time_us: u64,
}

/// The report produced by [`Pipeline::explain_analyze`]: the physical plan
/// annotated with measured per-operator rows and wall time, plus the full
/// request [`Trace`](obs::Trace) for Chrome-trace export.
#[derive(Debug, Clone)]
pub struct ExplainAnalyze {
    /// The SQL text.
    pub sql: String,
    /// The rendered physical plan.
    pub plan: String,
    /// Per-operator measurements, in the plan's pre-order.
    pub operators: Vec<OpReport>,
    /// The verdict of the full pipeline request.
    pub verdict: Verdict,
    /// Answer rows the full pipeline request returned.
    pub answer_rows: usize,
    /// Wall time of the whole analyzed request (pipeline run + plan
    /// replay), µs — an upper bound on every operator's `time_us`.
    pub total_us: u64,
    /// The trace of the whole request (pipeline run + plan replay); export
    /// with [`Trace::to_chrome_json`](obs::Trace::to_chrome_json).
    pub trace: obs::Trace,
}

impl fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query: {}", self.sql)?;
        writeln!(
            f,
            "request: {} µs total, {} answer row(s), verdict {}",
            self.total_us,
            self.answer_rows,
            match &self.verdict {
                Verdict::Exact => "exact".to_string(),
                Verdict::Degraded(why) => format!("degraded ({why})"),
                Verdict::Refused(why) => format!("refused ({why})"),
            }
        )?;
        writeln!(f, "physical plan (measured):")?;
        for op in &self.operators {
            writeln!(
                f,
                "  {:<52} rows={:<8} time={} µs (self {} µs)",
                op.line, op.rows, op.time_us, op.self_time_us
            )?;
        }
        write!(
            f,
            "spans recorded: {} (export with `trace.to_chrome_json()`)",
            self.trace.span_count()
        )
    }
}

/// The report produced by [`Pipeline::explain`]: how a query reaches the
/// engine, and which exact backend answers it on the given instance.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The SQL text.
    pub sql: String,
    /// Output column names.
    pub columns: Vec<String>,
    /// The lowered relational-algebra expression, as written.
    pub logical_before: String,
    /// The expression after the null-aware logical optimizer.
    pub logical_after: String,
    /// The physical plan (hash joins, scan-pushed filters) actually cached.
    pub physical: String,
    /// Possible worlds of this database under the exact constant pool.
    pub worlds: usize,
    /// Which exact backend answers [`Scheme::Exact`] on this instance, and
    /// why (null count, pool size, world count, and the diagram size or
    /// mask stats of the rung that answered the dry run).
    pub backend: BackendChoice,
    /// Plan-cache hits so far.
    pub cache_hits: usize,
    /// Plan-cache misses (compilations) so far.
    pub cache_misses: usize,
    /// Plans evicted by the cache's LRU bound so far.
    pub cache_evictions: usize,
    /// The plan cache's capacity.
    pub cache_capacity: usize,
    /// The configured execution budget, described (`None` when the
    /// pipeline is ungoverned).
    pub budget: Option<String>,
    /// Budget and spend of the last governed execution, if any ran.
    pub governor: Option<GovernorReport>,
    /// The database's mutation epoch at explain time.
    pub instance_epoch: u64,
    /// Deltas logged since the cached exact answers' epoch (`None` when no
    /// answers are cached for this instance).
    pub pending_deltas: Option<usize>,
    /// What the answer cache will do with an Exact request right now:
    /// serve, refine (with restriction/merge counts), or recompute (with
    /// the reason).
    pub decision: String,
    /// Refine-vs-recompute decisions taken for this query so far.
    pub maintenance: MaintenanceCounters,
    /// Maintenance decisions across the **whole pipeline lifetime**
    /// ([`Pipeline::maintenance_totals`]): unlike [`Explain::maintenance`],
    /// these survive LRU eviction of the entry.
    pub lifetime: MaintenanceCounters,
    /// Durability state of the database (`None` when no write-ahead log is
    /// attached): WAL frame/byte counts, snapshot progress, and whether the
    /// attachment is poisoned.
    pub durability: Option<String>,
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query: {}", self.sql)?;
        writeln!(f, "columns: {:?}", self.columns)?;
        writeln!(f, "logical (as lowered):  {}", self.logical_before)?;
        writeln!(f, "logical (optimized):   {}", self.logical_after)?;
        writeln!(f, "physical plan:")?;
        for line in self.physical.lines() {
            writeln!(f, "  {line}")?;
        }
        writeln!(f, "possible worlds (exact scheme): {}", self.worlds)?;
        match self.backend.backend {
            Some(backend) => writeln!(f, "exact-scheme backend: {backend}")?,
            None => writeln!(f, "exact-scheme backend: none")?,
        }
        writeln!(f, "  because: {}", self.backend.reason)?;
        if let Some(nodes) = self.backend.diagram_nodes {
            writeln!(
                f,
                "  lineage diagrams: {nodes} node(s) over {} null variable(s), \
                 {}-valued each",
                self.backend.nulls, self.backend.pool
            )?;
        }
        if let Some(stats) = self.backend.mask_stats {
            writeln!(
                f,
                "  world masks: {} world(s) per mask ({} block(s) of 64), \
                 {} distinct mask(s) across {} annotated row(s)",
                stats.worlds, stats.words_per_mask, stats.distinct_masks, stats.rows
            )?;
            writeln!(
                f,
                "  parallel plan: {} worker thread(s) (requested {}), \
                 {} morsel(s) dispatched, {} arena word(s) ({} bytes) of masks",
                stats.threads,
                if stats.threads_requested == 0 {
                    "auto".to_string()
                } else {
                    stats.threads_requested.to_string()
                },
                stats.morsels,
                stats.arena_words,
                stats.arena_words * 8
            )?;
        }
        writeln!(f, "instance epoch: {}", self.instance_epoch)?;
        match &self.durability {
            Some(d) => writeln!(f, "durability: {d}")?,
            None => writeln!(f, "durability: not attached")?,
        }
        match self.pending_deltas {
            Some(n) => writeln!(f, "answer cache: {} (pending delta(s): {n})", self.decision)?,
            None => writeln!(f, "answer cache: {}", self.decision)?,
        }
        writeln!(
            f,
            "exact maintenance: {} served, {} refined ({} delta merge(s)), {} recomputed",
            self.maintenance.served,
            self.maintenance.refined,
            self.maintenance.delta_merged,
            self.maintenance.recomputed
        )?;
        writeln!(
            f,
            "lifetime maintenance (all queries, survives eviction): {} served, \
             {} refined ({} delta merge(s)), {} recomputed, {} evicted",
            self.lifetime.served,
            self.lifetime.refined,
            self.lifetime.delta_merged,
            self.lifetime.recomputed,
            self.cache_evictions
        )?;
        writeln!(
            f,
            "plan cache: {} hit(s), {} miss(es), {} eviction(s) (capacity {})",
            self.cache_hits, self.cache_misses, self.cache_evictions, self.cache_capacity
        )?;
        write!(
            f,
            "governor: budget {}",
            self.budget.as_deref().unwrap_or("unbounded")
        )?;
        if let Some(run) = &self.governor {
            write!(
                f,
                "; last governed run ({}) spent {} row(s), {} arena word(s), \
                 {} diagram node(s)",
                run.budget, run.spent.rows, run.spent.arena_words, run.spent.nodes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_data::{database_from_literal, tup, Value};

    fn shop() -> Database {
        certa_workload::shop_database(true)
    }

    const UNPAID: &str = "SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM Payments)";

    #[test]
    fn exact_scheme_labels_unpaid_orders() {
        let mut p = Pipeline::new();
        let out = p.execute(UNPAID, &shop(), Scheme::Exact).unwrap();
        assert_eq!(out.columns, vec!["Orders.oid"]);
        // §1: no order is certainly unpaid, but o2 and o3 are possibly so.
        assert!(out.certain().is_empty());
        assert_eq!(out.possible().len(), 2);
    }

    #[test]
    fn approx_schemes_agree_on_the_running_example() {
        let db = shop();
        let mut p = Pipeline::new();
        let approx = p.execute(UNPAID, &db, Scheme::Approx37).unwrap();
        assert!(approx.certain().is_empty());
        assert!(approx.possible().contains(&tup!["o3"]));
        let ctable = p
            .execute(UNPAID, &db, Scheme::CTable(Strategy::Eager))
            .unwrap();
        assert_eq!(approx.certain(), ctable.certain());
        assert_eq!(approx.possible(), ctable.possible());
    }

    #[test]
    fn approx51_labels_certainly_false() {
        let db = database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![2]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ]);
        let mut p = Pipeline::new();
        let out = p
            .execute("SELECT a FROM R WHERE a = 1", &db, Scheme::Approx51)
            .unwrap();
        assert_eq!(out.certain(), Relation::from_tuples(vec![tup![1]]));
        assert!(out.certainly_false().contains(&tup![2]));
    }

    #[test]
    fn plan_cache_hits_and_schema_invalidation() {
        let db = shop();
        let mut p = Pipeline::new();
        p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        p.execute(UNPAID, &db, Scheme::Approx37).unwrap();
        p.execute(UNPAID, &db, Scheme::Approx37).unwrap();
        assert_eq!(p.cache_stats(), (2, 1));
        assert_eq!(p.cached_plans(), 1);
        // A different schema under the same SQL recompiles.
        let other = database_from_literal([
            ("Orders", vec!["oid"], vec![tup!["o1"]]),
            ("Payments", vec!["cid", "oid"], vec![tup!["c1", "o1"]]),
        ]);
        p.execute(UNPAID, &other, Scheme::Exact).unwrap();
        assert_eq!(p.cache_stats(), (2, 2));
    }

    #[test]
    fn exact_scheme_labels_match_the_certainty_oracles() {
        let db = database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![2]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ]);
        let sql = "SELECT a FROM R WHERE a NOT IN (SELECT a FROM S)";
        let mut p = Pipeline::new();
        let out = p.execute(sql, &db, Scheme::Exact).unwrap();
        // Every label agrees with the per-tuple certainty predicates.
        let expr = certa_sql::lower_to_algebra(&certa_sql::parse(sql).unwrap(), db.schema())
            .unwrap()
            .expr;
        for (t, label) in &out.rows {
            let certain = certa_certain::is_certain_answer(&expr, &db, t).unwrap();
            let false_everywhere = certa_certain::is_certainly_false(&expr, &db, t).unwrap();
            let expected = if certain {
                Label::Certain
            } else if false_everywhere {
                Label::CertainlyFalse
            } else {
                Label::Possible
            };
            assert_eq!(*label, expected, "{t}");
        }
        // Neither 1 nor 2 is certain (⊥0 could be either), but both are
        // possible.
        assert!(out.certain().is_empty());
        assert_eq!(out.possible().len(), 2);
    }

    #[test]
    fn exact_equals_approx_on_complete_databases() {
        let db = certa_workload::shop_database(false);
        let mut p = Pipeline::new();
        let exact = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        let approx = p.execute(UNPAID, &db, Scheme::Approx37).unwrap();
        assert_eq!(exact.certain(), approx.certain());
        assert_eq!(exact.certain(), Relation::from_tuples(vec![tup!["o3"]]));
        assert!(exact.possible().is_empty());
        assert!(approx.possible().is_empty());
    }

    #[test]
    fn plain_query_uses_cached_plan() {
        let db = shop();
        let mut p = Pipeline::new();
        let naive = p.query(UNPAID, &db).unwrap();
        // Syntactic evaluation treats ⊥ as a value: o2 and o3 look unpaid.
        assert_eq!(naive.len(), 2);
        let again = p.query(UNPAID, &db).unwrap();
        assert_eq!(naive, again);
        assert_eq!(p.cache_stats(), (1, 1));
    }

    #[test]
    fn exact_dispatches_to_lineage_beyond_the_threshold() {
        // 8 distinct nulls: exact_pool gives ~9+ constants, so enumeration
        // would need > 4096 (indeed > the world bound) worlds — the
        // dispatcher must pick the lineage backend and still label exactly.
        let rows: Vec<Tuple> = (0..8u32)
            .map(|i| tup![i64::from(i), Value::null(i)])
            .collect();
        let db =
            database_from_literal([("R", vec!["a", "b"], rows), ("S", vec!["b"], vec![tup![1]])]);
        let sql = "SELECT a FROM R WHERE b <> 1";
        let mut p = Pipeline::new();
        let explain = p.explain(sql, &db).unwrap();
        assert_eq!(explain.backend.backend, Some(Backend::Lineage));
        assert!(explain.backend.worlds > LINEAGE_WORLD_THRESHOLD);
        assert!(explain.backend.diagram_nodes.is_some());
        assert!(explain.to_string().contains("lineage"));
        let out = p.execute(sql, &db, Scheme::Exact).unwrap();
        // No candidate is certain (its ⊥ᵢ could be 1) but every one is
        // possible (⊥ᵢ ≠ 1 is satisfiable).
        assert!(out.certain().is_empty());
        assert_eq!(out.possible().len(), 8);
        assert!(out.certainly_false().is_empty());
    }

    #[test]
    fn lineage_and_mask_agree_where_both_run() {
        // 2 nulls: the mask single pass is the dispatcher's choice; force
        // the lineage path through the certain crate and compare labels.
        let db = database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![2], tup![Value::null(0)]]),
            ("S", vec!["a"], vec![tup![Value::null(1)]]),
        ]);
        let sql = "SELECT a FROM R WHERE a <> 2";
        let mut p = Pipeline::new();
        let explain = p.explain(sql, &db).unwrap();
        assert_eq!(explain.backend.backend, Some(Backend::Mask));
        let stats = explain.backend.mask_stats.expect("mask stats reported");
        assert_eq!(stats.worlds, explain.backend.worlds);
        assert_eq!(stats.words_per_mask, stats.worlds.div_ceil(64));
        assert!(stats.threads >= 1);
        assert!(stats.morsels >= 1);
        assert!(explain.to_string().contains("world masks"));
        assert!(explain.to_string().contains("parallel plan"));
        let out = p.execute(sql, &db, Scheme::Exact).unwrap();
        let expr = certa_sql::lower_to_algebra(&certa_sql::parse(sql).unwrap(), db.schema())
            .unwrap()
            .expr;
        let spec = certa_certain::worlds::exact_pool(&expr, &db);
        let tuples: Vec<Tuple> = out.rows.iter().map(|(t, _)| t.clone()).collect();
        let optimized = certa_algebra::optimize(&expr, db.schema()).unwrap();
        let statuses =
            certa_certain::cert::classify_candidates_lineage(&optimized, &db, &spec, &tuples)
                .unwrap();
        for ((t, label), s) in out.rows.iter().zip(&statuses) {
            let expected = if s.certain {
                Label::Certain
            } else if s.possible {
                Label::Possible
            } else {
                Label::CertainlyFalse
            };
            assert_eq!(*label, expected, "{t}");
        }
    }

    #[test]
    fn unsupported_fragment_over_the_bound_has_no_exact_rung() {
        // `IS NULL` lowers to the syntactic null(·) predicate, outside the
        // symbolic fragment; at 8 nulls the world count also exceeds the
        // world bound, so lineage is the only rung and it cannot express
        // the query: explain reports no backend, and execution hits the
        // world bound.
        let rows: Vec<Tuple> = (0..8u32).map(|i| tup![Value::null(i)]).collect();
        let db = database_from_literal([("R", vec!["a"], rows), ("S", vec!["a"], vec![tup![1]])]);
        let sql = "SELECT a FROM R WHERE a IS NULL";
        let mut p = Pipeline::new();
        let explain = p.explain(sql, &db).unwrap();
        assert_eq!(explain.backend.backend, None);
        let reason = &explain.backend.reason;
        assert!(reason.contains("outside the symbolic fragment"), "{reason}");
        assert!(reason.contains("world bound"), "{reason}");
        assert!(explain.to_string().contains("exact-scheme backend: none"));
        assert!(matches!(
            p.execute(sql, &db, Scheme::Exact),
            Err(PipelineError::Certain(CertainError::TooManyWorlds { .. }))
        ));
    }

    #[test]
    fn unsupported_fragment_within_the_bound_is_answered_by_the_mask_backend() {
        // The same `IS NULL` shape at 5 nulls: still outside the symbolic
        // fragment, but the world count now fits the bound — where the
        // lineage-era dispatcher fell back to per-world enumeration, the
        // mask backend answers in one pass. Labels must match enumeration
        // exactly.
        let rows: Vec<Tuple> = (0..5u32).map(|i| tup![Value::null(i)]).collect();
        let db = database_from_literal([("R", vec!["a"], rows), ("S", vec!["a"], vec![tup![1]])]);
        let sql = "SELECT a FROM R WHERE a IS NULL";
        let mut p = Pipeline::new();
        let explain = p.explain(sql, &db).unwrap();
        assert!(explain.backend.worlds > LINEAGE_WORLD_THRESHOLD);
        assert_eq!(explain.backend.backend, Some(Backend::Mask));
        assert!(explain
            .backend
            .reason
            .contains("outside the symbolic fragment"));
        assert!(explain.backend.mask_stats.is_some());
        let out = p.execute(sql, &db, Scheme::Exact).unwrap();
        // Worlds are null-free, so `a IS NULL` holds in none of them —
        // naïve evaluation (which grounds the nulls) already produces no
        // candidates, and the masked pass agrees without erroring.
        assert!(out.rows.is_empty());
        // Exact agreement with the enumeration oracle on explicit
        // candidates over the same spec.
        let expr = certa_sql::lower_to_algebra(&certa_sql::parse(sql).unwrap(), db.schema())
            .unwrap()
            .expr;
        let spec = certa_certain::worlds::exact_pool(&expr, &db);
        let prepared = certa_algebra::PreparedQuery::prepare(&expr, db.schema()).unwrap();
        let tuples = [tup![Value::null(0)], tup![1], tup![99]];
        let by_mask =
            certa_certain::classify_candidates_mask(&prepared, &db, &spec, &tuples).unwrap();
        let by_worlds =
            certa_certain::cert::classify_candidates(&prepared, &db, &spec, &tuples).unwrap();
        assert_eq!(by_mask, by_worlds);
        // Nothing satisfies null(a) in any (null-free) world.
        for s in &by_mask {
            assert!(!s.certain && !s.possible);
        }
    }

    const PAID: &str = "SELECT oid FROM Orders WHERE oid IN (SELECT oid FROM Payments)";

    #[test]
    fn answer_cache_serves_at_an_unchanged_epoch() {
        let db = shop();
        let mut p = Pipeline::new();
        let first = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        let second = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        assert_eq!(first, second);
        let ex = p.explain(UNPAID, &db).unwrap();
        assert!(ex.decision.contains("serve"), "{}", ex.decision);
        assert_eq!(ex.pending_deltas, Some(0));
        assert_eq!(ex.maintenance.served, 1);
        assert_eq!(ex.maintenance.refined, 0);
        assert_eq!(ex.maintenance.recomputed, 1);
        assert!(ex.to_string().contains("answer cache"));
        // A *different* instance with identical contents must not be served
        // from this instance's cache.
        let clone = db.clone();
        let third = p.execute(UNPAID, &clone, Scheme::Exact).unwrap();
        assert_eq!(first, third);
        let ex = p.explain(UNPAID, &clone).unwrap();
        assert_eq!(ex.maintenance.recomputed, 2);
    }

    #[test]
    fn null_resolution_refines_instead_of_recomputing() {
        let mut db = shop();
        let mut p = Pipeline::new();
        p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        assert_eq!(db.resolve_null(0, certa_data::Const::from("o2")), 1);
        let ex = p.explain(UNPAID, &db).unwrap();
        assert!(ex.decision.contains("refine"), "{}", ex.decision);
        assert_eq!(ex.pending_deltas, Some(1));
        let refined = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        // Bit-identical to a cold pipeline on the resolved database.
        let fresh = Pipeline::new().execute(UNPAID, &db, Scheme::Exact).unwrap();
        assert_eq!(refined, fresh);
        // o2 is now paid: only o3 is (certainly) unpaid.
        assert_eq!(refined.certain(), Relation::from_tuples(vec![tup!["o3"]]));
        assert!(refined.possible().is_empty());
        let ex = p.explain(UNPAID, &db).unwrap();
        assert_eq!(ex.maintenance.refined, 1);
        assert_eq!(ex.maintenance.recomputed, 1);
    }

    #[test]
    fn monotone_insert_refines_by_delta_merge() {
        let mut db = shop();
        let mut p = Pipeline::new();
        let before = p.execute(PAID, &db, Scheme::Exact).unwrap();
        assert!(before.certain().contains(&tup!["o1"]));
        // Insert a ground payment for o3 (all constants already in the
        // database, so inside the cached pool).
        db.insert("Payments", tup!["c1", "o3"]).unwrap();
        let ex = p.explain(PAID, &db).unwrap();
        assert!(ex.decision.contains("refine"), "{}", ex.decision);
        assert!(ex.decision.contains("1 delta merge(s)"), "{}", ex.decision);
        let refined = p.execute(PAID, &db, Scheme::Exact).unwrap();
        let fresh = Pipeline::new().execute(PAID, &db, Scheme::Exact).unwrap();
        assert_eq!(refined, fresh);
        assert!(refined.certain().contains(&tup!["o3"]));
        let ex = p.explain(PAID, &db).unwrap();
        assert_eq!(ex.maintenance.refined, 1);
        assert_eq!(ex.maintenance.delta_merged, 1);
    }

    #[test]
    fn deletes_and_structural_changes_recompute() {
        let mut db = shop();
        let mut p = Pipeline::new();
        p.execute(PAID, &db, Scheme::Exact).unwrap();
        assert!(db.delete("Payments", &tup!["c1", "o1"]).unwrap());
        let ex = p.explain(PAID, &db).unwrap();
        assert!(ex.decision.contains("recompute"), "{}", ex.decision);
        let recomputed = p.execute(PAID, &db, Scheme::Exact).unwrap();
        let fresh = Pipeline::new().execute(PAID, &db, Scheme::Exact).unwrap();
        assert_eq!(recomputed, fresh);
        assert!(!recomputed.certain().contains(&tup!["o1"]));
        let ex = p.explain(PAID, &db).unwrap();
        assert_eq!(ex.maintenance.recomputed, 2);
        assert_eq!(ex.maintenance.refined, 0);
    }

    #[test]
    fn resolve_then_insert_interleaving_refines_exactly() {
        let mut db = shop();
        let mut p = Pipeline::new();
        p.execute(PAID, &db, Scheme::Exact).unwrap();
        // Resolve the payment null, then insert another ground payment:
        // both deltas must be chewed through in one refinement.
        assert_eq!(db.resolve_null(0, certa_data::Const::from("o2")), 1);
        db.insert("Payments", tup!["c2", "o3"]).unwrap();
        let ex = p.explain(PAID, &db).unwrap();
        assert!(ex.decision.contains("refine"), "{}", ex.decision);
        assert_eq!(ex.pending_deltas, Some(2));
        let refined = p.execute(PAID, &db, Scheme::Exact).unwrap();
        let fresh = Pipeline::new().execute(PAID, &db, Scheme::Exact).unwrap();
        assert_eq!(refined, fresh);
        // Every order is now certainly paid.
        assert_eq!(refined.certain().len(), 3);
    }

    #[test]
    fn ungoverned_executions_carry_the_exact_verdict() {
        let db = shop();
        let mut p = Pipeline::new();
        for scheme in [
            Scheme::Exact,
            Scheme::Approx37,
            Scheme::Approx51,
            Scheme::CTable(Strategy::Eager),
        ] {
            let out = p.execute(UNPAID, &db, scheme).unwrap();
            assert!(out.verdict.is_exact(), "{scheme:?}: {}", out.verdict);
        }
    }

    #[test]
    fn spent_deadline_refuses_without_erroring_and_without_poisoning_the_cache() {
        let db = shop();
        let mut p = Pipeline::new();
        // A deadline that is already over when the governor arms: every
        // rung of the lattice trips at its first checkpoint.
        p.set_budget(Some(
            ExecBudget::new().with_deadline(std::time::Duration::ZERO),
        ));
        let out = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        assert!(
            matches!(out.verdict, Verdict::Refused(_)),
            "{}",
            out.verdict
        );
        assert!(out.rows.is_empty());
        assert_eq!(out.columns, vec!["Orders.oid"]);
        // Nothing degraded or refused may enter the answer cache: lifting
        // the budget must produce the exact answers from scratch.
        p.set_budget(None);
        let after = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        let fresh = Pipeline::new().execute(UNPAID, &db, Scheme::Exact).unwrap();
        assert_eq!(after, fresh);
        assert!(after.verdict.is_exact());
    }

    #[test]
    fn node_budget_trip_degrades_to_the_sound_approximation() {
        // The 8-null instance dispatches to the lineage backend (beyond the
        // mask threshold); a node cap of 0 trips it on the first fresh
        // diagram node, and with the world count over the bound the only
        // rung left is the (Q+, Q?) approximation. A row budget of 20 trips
        // it inside c-table evaluation instead, a trip that must degrade
        // the same way rather than surface as a query error.
        let rows: Vec<Tuple> = (0..8u32)
            .map(|i| tup![i64::from(i), Value::null(i)])
            .collect();
        let db =
            database_from_literal([("R", vec!["a", "b"], rows), ("S", vec!["b"], vec![tup![1]])]);
        let sql = "SELECT a FROM R WHERE b <> 1";
        let exact = Pipeline::new().execute(sql, &db, Scheme::Exact).unwrap();
        for (budget, tripped) in [
            (ExecBudget::new().with_node_budget(0), "node"),
            (ExecBudget::new().with_row_budget(20), "row"),
        ] {
            let mut p = Pipeline::new();
            p.set_budget(Some(budget));
            let out = p.execute(sql, &db, Scheme::Exact).unwrap();
            let Verdict::Degraded(why) = &out.verdict else {
                panic!("expected a degraded verdict, got {}", out.verdict);
            };
            assert!(why.contains(tripped), "{why}");
            // Soundness: the degraded certain answers are a subset of the
            // exact ones (here both empty), and every exact certain answer
            // the approximation can see is at least possible.
            for t in out.certain().iter() {
                assert!(exact.certain().contains(t));
            }
            assert_eq!(out.possible().len(), 8);
            // The degraded answers were not cached as exact.
            p.set_budget(None);
            let after = p.execute(sql, &db, Scheme::Exact).unwrap();
            assert_eq!(after, exact);
        }
    }

    #[test]
    fn cancellation_refuses_and_a_cancelled_refine_rolls_back() {
        let mut db = shop();
        let mut p = Pipeline::new();
        p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        // Make the next request a refine, then cancel before it runs: the
        // half-mutated cache entry must be dropped, not served.
        assert_eq!(db.resolve_null(0, certa_data::Const::from("o2")), 1);
        let token = governor::CancelToken::new();
        token.cancel();
        p.set_budget(Some(ExecBudget::new().with_cancel_token(token)));
        let out = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        assert!(
            matches!(out.verdict, Verdict::Refused(_)),
            "{}",
            out.verdict
        );
        // Recompute-on-next-read: with the budget lifted the answers match
        // a cold pipeline bit for bit.
        p.set_budget(None);
        let after = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        let fresh = Pipeline::new().execute(UNPAID, &db, Scheme::Exact).unwrap();
        assert_eq!(after, fresh);
        assert_eq!(after.certain(), Relation::from_tuples(vec![tup!["o3"]]));
    }

    #[test]
    fn plan_cache_evicts_least_recently_used_past_capacity() {
        let db = shop();
        let mut p = Pipeline::with_cache_capacity(2);
        let q1 = "SELECT oid FROM Orders";
        let q2 = "SELECT cid FROM Payments";
        let q3 = "SELECT oid FROM Payments";
        p.execute(q1, &db, Scheme::Approx37).unwrap();
        p.execute(q2, &db, Scheme::Approx37).unwrap();
        // Touch q1 so q2 is the least recently used, then overflow.
        p.execute(q1, &db, Scheme::Approx37).unwrap();
        p.execute(q3, &db, Scheme::Approx37).unwrap();
        assert_eq!(p.cached_plans(), 2);
        assert_eq!(p.cache_evictions(), 1);
        // q1 survived (hit); q2 was evicted (miss recompiles).
        let (hits, misses) = p.cache_stats();
        p.execute(q1, &db, Scheme::Approx37).unwrap();
        assert_eq!(p.cache_stats(), (hits + 1, misses));
        p.execute(q2, &db, Scheme::Approx37).unwrap();
        assert_eq!(p.cache_stats(), (hits + 1, misses + 1));
        let ex = p.explain(q1, &db).unwrap();
        assert!(ex.cache_evictions >= 1);
        assert_eq!(ex.cache_capacity, 2);
        assert!(ex.to_string().contains("eviction"), "{ex}");
    }

    /// `explain` profiles the plan the mask rung executes: the lowered
    /// query optimized with the instance's statistics. On this instance
    /// that plan differs from the schema-level `plain` one, and so do the
    /// mask stats the two produce.
    #[test]
    fn explain_profiles_the_plan_the_mask_rung_runs() {
        let config = certa_workload::TpchConfig {
            customers: 30,
            null_rate: 0.0,
            ..Default::default()
        };
        let mut db = certa_workload::TpchGenerator::new(config).generate();
        // One null, in the first customer's nationkey.
        let customers: Relation = db
            .relation("Customer")
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, t)| match i {
                0 => Tuple::new([t[0].clone(), t[1].clone(), Value::null(0)]),
                _ => t.clone(),
            })
            .collect();
        db.set_relation("Customer", customers).unwrap();
        let sql = "SELECT c.name, o.orderkey FROM Customer c, Orders o \
                   WHERE c.custkey = o.custkey AND c.nationkey = 1";
        let mut p = Pipeline::new();
        let explained = p.explain(sql, &db).unwrap();
        assert_eq!(explained.backend.backend, Some(Backend::Mask));
        let entry = &p.cache[sql];
        let run = mask_plan(&entry.lowered.expr, &db).unwrap();
        assert_ne!(entry.plain.plan().to_string(), run.plan().to_string());
        let spec = certa_certain::worlds::exact_pool(&entry.lowered.expr, &db);
        let profile =
            |plan: &PreparedQuery| certa_certain::mask::profile(plan, &db, &spec).unwrap();
        assert_ne!(profile(&entry.plain), profile(&run));
        assert_eq!(explained.backend.mask_stats, Some(profile(&run)));
    }

    #[test]
    fn explain_reports_the_budget_and_the_last_governed_run() {
        let db = shop();
        let mut p = Pipeline::new();
        let ex = p.explain(UNPAID, &db).unwrap();
        assert_eq!(ex.budget, None);
        assert!(ex.governor.is_none());
        assert!(ex.to_string().contains("governor: budget unbounded"));
        p.set_budget(Some(ExecBudget::new().with_row_budget(1_000_000)));
        let out = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        assert!(out.verdict.is_exact(), "{}", out.verdict);
        let ex = p.explain(UNPAID, &db).unwrap();
        assert_eq!(ex.budget.as_deref(), Some("rows ≤ 1000000"));
        let run = ex.governor.as_ref().expect("a governed run was recorded");
        assert!(run.spent.rows > 0);
        assert!(ex.to_string().contains("last governed run"), "{ex}");
    }

    /// `(Q+, Q?)` on a three-way join stays linear in its input. `Q?`
    /// writes each equi-join as `a = b ∨ null(a) ∨ null(b)`; a plan that
    /// materialises the Customer × Orders product for it spends more rows
    /// than this budget of twenty times the input, and the request refuses.
    #[test]
    fn approx37_three_way_join_fits_a_linear_row_budget() {
        let config = certa_workload::TpchConfig::scaled_to(1000, 0.02, 7);
        let db = certa_workload::TpchGenerator::new(config).generate();
        let input: usize = db.iter().map(|(_, rel)| rel.len()).sum();
        let sql = "SELECT c.name, o.orderkey, l.partkey FROM Customer c, Orders o, Lineitem l \
                   WHERE c.custkey = o.custkey AND o.orderkey = l.orderkey AND c.nationkey = 1";
        let mut p = Pipeline::new();
        p.set_budget(Some(ExecBudget::new().with_row_budget(20 * input as u64)));
        let out = p.execute(sql, &db, Scheme::Approx37).unwrap();
        assert!(out.verdict.is_exact(), "{}", out.verdict);
        assert!(!out.certain().is_empty());
    }

    #[test]
    fn errors_are_unified() {
        let db = shop();
        let mut p = Pipeline::new();
        assert!(matches!(
            p.execute("SELECT FROM", &db, Scheme::Exact),
            Err(PipelineError::Sql(_))
        ));
        assert!(matches!(
            p.execute("SELECT x FROM Nope", &db, Scheme::Exact),
            Err(PipelineError::Sql(_))
        ));
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "certa-pipeline-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_recover_round_trip_preserves_answers() {
        let dir = durable_dir("roundtrip");
        let mut db = shop();
        let mut p = Pipeline::open(&mut db, &dir).unwrap();
        let before = p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        db.sync_durable().unwrap();

        // "kill -9": drop the live database without detaching.
        drop(db);
        let (recovered, mut p2, report) = Pipeline::recover(&dir).unwrap();
        assert!(report.wal_truncated.is_none());
        let after = p2.execute(UNPAID, &recovered, Scheme::Exact).unwrap();
        assert_eq!(before.rows, after.rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_never_serves_pre_crash_cached_answers() {
        let dir = durable_dir("cache-invalidation");
        let mut db = shop();
        let mut p = Pipeline::open(&mut db, &dir).unwrap();
        // Warm the answer cache against the pre-crash instance.
        p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        p.execute(UNPAID, &db, Scheme::Exact).unwrap();
        let warm = p.explain(UNPAID, &db).unwrap();
        assert_eq!(warm.decision, "serve cached answers");
        db.sync_durable().unwrap();
        drop(db);

        let (recovered, _fresh, _) = Pipeline::recover(&dir).unwrap();
        // Even the *old* pipeline (with its warm cache) must recompute for
        // the recovered instance: recovery minted a fresh instance id.
        let ex = p.explain(UNPAID, &recovered).unwrap();
        assert!(
            ex.decision.contains("recompute"),
            "pre-crash cache must not serve: {}",
            ex.decision
        );
        let served_before = ex.lifetime.served;
        let out = p.execute(UNPAID, &recovered, Scheme::Exact).unwrap();
        assert!(out.verdict.is_exact(), "{}", out.verdict);
        let ex = p.explain(UNPAID, &recovered).unwrap();
        assert_eq!(
            ex.lifetime.served, served_before,
            "no pre-crash answer may be served against the recovered instance"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_reports_durability_state() {
        let dir = durable_dir("explain");
        let mut db = shop();
        let mut p = Pipeline::new();
        let ex = p.explain(UNPAID, &db).unwrap();
        assert_eq!(ex.durability, None);
        assert!(ex.to_string().contains("durability: not attached"));
        db.attach_durable(&dir).unwrap();
        db.insert("Orders", tup!["o9", "Recovery", 12]).unwrap();
        let ex = p.explain(UNPAID, &db).unwrap();
        let line = ex.durability.clone().expect("durability attached");
        assert!(line.contains("wal frame(s)"), "{line}");
        assert!(ex.to_string().contains("durability: dir "), "{ex}");
        db.detach_durable().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
