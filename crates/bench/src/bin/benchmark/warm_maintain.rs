//! `warm_maintain`: writes beside reads on one long-lived `Pipeline`. The
//! answer cache (serve, refine, recompute), `MaskBatch` restriction and
//! delta merges and the log-free mutators do the work; the plan cache
//! always hits and no budget arms the governor.

use crate::check::{fingerprint_of, state_fingerprint, Expected};
use crate::cold_exact::instance;
use crate::harness::{shuffle, sub_seed, Class, Recorder, Scale};
use crate::trace::{self, Tracer};
use crate::updates::{fresh_tuple, present_null, present_tuple, Update};
use crate::Workload;
use certa::algebra::{delta_profile, naive_eval, DeltaProfile, PreparedQuery, RaExpr, Stats};
use certa::certain::cert::{classify_candidates, classify_candidates_lineage};
use certa::certain::worlds::exact_pool;
use certa::certain::MaskBatch;
use certa::data::{Const, Database, Delta, Schema, Tuple, Value};
use certa::obs::{self, MetricId, Snapshot};
use certa::sql::{lower_to_algebra, parse};
use certa::{Pipeline, Scheme};
use rand::prelude::*;
use std::collections::HashMap;
use std::ops::Range;

/// Four monotone statements (joins, a disjunction, a semi-join), whose
/// answers inserts refine, and four with `NOT IN`, which inserts force to
/// recompute; resolutions refine both kinds.
const STATEMENTS: [&str; 8] = [
    "SELECT r.a0, s.a1 FROM R r, S s WHERE r.a1 = s.a0",
    "SELECT r.a0 FROM R r WHERE r.a1 = 3 OR r.a1 = 5",
    "SELECT t.a0 FROM T t, S s WHERE t.a0 = s.a0 AND s.a1 <> 2",
    "SELECT s.a0 FROM S s WHERE s.a1 IN (SELECT t.a0 FROM T t)",
    "SELECT r.a0 FROM R r WHERE r.a0 NOT IN (SELECT t.a0 FROM T t)",
    "SELECT s.a0, s.a1 FROM S s WHERE s.a1 NOT IN (SELECT r.a1 FROM R r WHERE r.a0 = 1)",
    "SELECT t.a0 FROM T t WHERE t.a0 NOT IN (SELECT s.a0 FROM S s)",
    "SELECT r.a1 FROM R r WHERE r.a0 = 2 AND r.a1 NOT IN (SELECT s.a1 FROM S s)",
];
const EPISODES: usize = 16;
const RESOLVES: usize = 3;
const INSERTS: usize = 7;
const DELETES: usize = 2;
/// Reads of every statement after each update: the first refines or
/// recomputes, the second is served.
const READS: usize = 2;
/// Base instances per seed; episode `e` starts from base `e % BASES`, so
/// one seed's draw of null positions does not stand for the workload.
const BASES: usize = 4;

#[derive(Debug, Clone, Copy, Hash)]
enum Op {
    /// Start episode `e` on a fresh clone of its base (not timed).
    Begin(usize),
    /// Apply update `step` of the episode.
    Mutate(usize, usize),
    /// Read statement `s` after update `step`.
    Read(usize, usize, usize),
}

/// The benchmark's own copy of a cached mask answer, kept in step with
/// the pipeline's so the traced pass can replay a refinement.
struct Twin {
    epoch: u64,
    prepared: PreparedQuery,
    profile: DeltaProfile,
    batch: MaskBatch,
}

pub struct WarmMaintain {
    schema: Schema,
    bases: Vec<Database>,
    statements: Vec<(String, RaExpr)>,
    episodes: Vec<Vec<Update>>,
    ops: Vec<Op>,
    pipeline: Pipeline,
    /// The current episode's database.
    db: Database,
    /// Trace-only: a log-free twin of `db` and the twin mask answers.
    twin_db: Option<Database>,
    twins: Vec<Option<Twin>>,
}

fn key(episode: usize, step: usize, statement: usize) -> u64 {
    ((episode as u64) << 32) | ((step as u64) << 8) | statement as u64
}

/// An episode's updates, generated against a simulated copy of `base`:
/// resolutions to pool constants, inserts of in-domain tuples (a new
/// constant would grow the pool and rule refinement out) and deletes of
/// present null-free tuples (so every null is still there to resolve), in
/// a seeded order.
fn episode(base: &Database, rng: &mut StdRng) -> Vec<Update> {
    let mut kinds: Vec<u8> = [0u8; RESOLVES]
        .into_iter()
        .chain([1u8; INSERTS])
        .chain([2u8; DELETES])
        .collect();
    shuffle(&mut kinds, rng);
    let domain: Vec<Value> = base.consts().into_iter().map(Value::Const).collect();
    let pool: Vec<Const> = base.consts().into_iter().collect();
    // `T(a0)` already holds every in-domain value, so inserts go to the
    // binary relations.
    let binary = ["R", "S"];
    let all = ["R", "S", "T"];
    let mut db = base.clone();
    let mut out = Vec::new();
    for kind in kinds {
        let update = match kind {
            0 => present_null(&db, rng)
                .map(|n| Update::Resolve(n, pool[rng.gen_range(0..pool.len())].clone())),
            1 => {
                let rel = binary[rng.gen_range(0..binary.len())];
                fresh_tuple(&db, rel, &domain, rng).map(|t| Update::Insert(rel.into(), t))
            }
            _ => {
                let rel = all[rng.gen_range(0..all.len())];
                present_tuple(&db, rel, rng, |t| !t.has_null())
                    .map(|t| Update::Delete(rel.into(), t))
            }
        }
        .expect("the base instance leaves room for every update");
        update.apply(&mut db).expect("generated updates apply");
        out.push(update);
    }
    out
}

impl WarmMaintain {
    fn twin_refine(&mut self, t: &mut Tracer, s: usize) {
        let Some(twin) = self.twins[s].as_mut() else {
            return;
        };
        let db = &self.db;
        let deltas: Vec<Delta> = db
            .deltas_since(twin.epoch)
            .map(|d| d.cloned().collect())
            .unwrap_or_default();
        for delta in &deltas {
            match delta {
                Delta::Resolve { null, value } => {
                    t.phase(trace::MASK_RESTRICT, || twin.batch.restrict(*null, value));
                }
                Delta::Insert { relation, tuples } if !twin.profile.ignores(relation) => {
                    t.phase(trace::MASK_DELTA, || {
                        twin.batch
                            .apply_insert_delta(&twin.prepared, db, relation, tuples)
                            .expect("insert delta merges")
                    });
                }
                _ => {}
            }
        }
        let expr = &self.statements[s].1;
        let candidates = t.phase(trace::NAIVE_EVAL, || {
            naive_eval(expr, db).expect("candidates")
        });
        let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
        t.phase(trace::MASK_CLASSIFY, || {
            twin.batch.classify(&tuples).expect("mask classifies")
        });
        twin.epoch = db.epoch();
    }

    fn twin_recompute(&mut self, t: &mut Tracer, s: usize, lineage: bool) {
        let db = &self.db;
        let expr = &self.statements[s].1;
        let spec = t.phase(trace::WORLDS_POOL, || exact_pool(expr, db));
        let candidates = t.phase(trace::NAIVE_EVAL, || {
            naive_eval(expr, db).expect("candidates")
        });
        let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
        if lineage {
            let optimized = certa::algebra::optimize(expr, &self.schema).expect("optimizes");
            // An unsupported statement falls back to a mask pass the
            // pipeline does not cache; the replay only needs the time.
            let _ = t.phase(trace::LINEAGE_CLASSIFY, || {
                classify_candidates_lineage(&optimized, db, &spec, &tuples)
            });
            self.twins[s] = None;
            return;
        }
        let prepared = t.phase(trace::OPT_REOPT, || {
            let stats = Stats::from_database(db);
            PreparedQuery::prepare_optimized_with(expr, &self.schema, &stats)
                .expect("instance plan prepares")
        });
        let batch = t.phase(trace::MASK_COMPILE, || {
            MaskBatch::from_prepared(&prepared, db, &spec).expect("mask batch compiles")
        });
        t.phase(trace::MASK_CLASSIFY, || {
            batch.classify(&tuples).expect("mask classifies")
        });
        self.twins[s] = Some(Twin {
            epoch: db.epoch(),
            profile: delta_profile(prepared.plan()),
            prepared,
            batch,
        });
    }

    fn replay_read(&mut self, t: &mut Tracer, s: usize, delta: &Snapshot) {
        if delta.get(MetricId::AnswersRefined) > 0 {
            self.twin_refine(t, s);
        } else if delta.get(MetricId::AnswersRecomputed) > 0 {
            self.twin_recompute(t, s, delta.get(MetricId::DispatchLineage) > 0);
        }
    }
}

impl Workload for WarmMaintain {
    fn setup(seed: u64, scale: Scale) -> WarmMaintain {
        let bases: Vec<Database> = (0..BASES)
            .map(|b| instance(sub_seed(seed, 10, b as u64), 60, 8, 3, 6))
            .collect();
        let schema = bases[0].schema().clone();
        let statements: Vec<(String, RaExpr)> = STATEMENTS
            .iter()
            .map(|sql| {
                let stmt = parse(sql).expect("statements parse");
                let lowered = lower_to_algebra(&stmt, &schema).expect("statements lower");
                (sql.to_string(), lowered.expr)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 11, 0));
        let episodes: Vec<Vec<Update>> = (0..scale.pick(EPISODES, 2))
            .map(|e| episode(&bases[e % BASES], &mut rng))
            .collect();
        let reads = scale.pick(READS, 1);
        let mut ops = Vec::new();
        for (e, updates) in episodes.iter().enumerate() {
            ops.push(Op::Begin(e));
            for step in 0..updates.len() {
                ops.push(Op::Mutate(e, step));
                for s in 0..statements.len() {
                    ops.extend((0..reads).map(|_| Op::Read(e, step, s)));
                }
            }
        }
        WarmMaintain {
            db: bases[0].clone(),
            schema,
            bases,
            twins: (0..statements.len()).map(|_| None).collect(),
            statements,
            episodes,
            ops,
            pipeline: Pipeline::new(),
            twin_db: None,
        }
    }

    /// Every state of every episode, answered by a scratch pipeline on a
    /// fresh clone (which can only recompute); each episode's first state
    /// also by world enumeration, which must agree.
    fn verify(&self) -> Result<HashMap<u64, Expected>, String> {
        let mut expected = HashMap::new();
        for (e, updates) in self.episodes.iter().enumerate() {
            let mut db = self.bases[e % BASES].clone();
            for (step, update) in updates.iter().enumerate() {
                update.apply(&mut db)?;
                for (s, (sql, expr)) in self.statements.iter().enumerate() {
                    let answers = Pipeline::new()
                        .execute(sql, &db.clone(), Scheme::Exact)
                        .map_err(|err| format!("{sql}: {err}"))?;
                    let want = Expected::from_rows(&answers.rows);
                    if step == 0 {
                        let candidates: Vec<Tuple> = naive_eval(expr, &db)
                            .map_err(|err| err.to_string())?
                            .iter()
                            .cloned()
                            .collect();
                        let plan = PreparedQuery::prepare(expr, db.schema())
                            .map_err(|err| err.to_string())?;
                        let statuses =
                            classify_candidates(&plan, &db, &exact_pool(expr, &db), &candidates)
                                .map_err(|err| err.to_string())?;
                        if Expected::from_statuses(&candidates, &statuses) != want {
                            return Err(format!(
                                "scratch pipeline and enumeration disagree on `{sql}` \
                                 in episode {e}"
                            ));
                        }
                    }
                    expected.insert(key(e, step, s), want);
                }
            }
        }
        Ok(expected)
    }

    fn describe(&self, key: u64) -> String {
        let (e, step, s) = (key >> 32, (key >> 8) & 0xFF_FFFF, key & 0xFF);
        format!(
            "`{}` after update {step} of episode {e}",
            self.statements[s as usize].0
        )
    }

    fn inputs(&self) -> u64 {
        let bases: Vec<u64> = self.bases.iter().map(state_fingerprint).collect();
        fingerprint_of(&(bases, &self.episodes, &self.ops))
    }

    fn pass_len(&self) -> usize {
        self.ops.len()
    }

    /// The last episode, which starts at an episode boundary.
    fn slice(&self) -> Range<usize> {
        let start = self
            .ops
            .iter()
            .rposition(|op| matches!(op, Op::Begin(_)))
            .unwrap_or(0);
        start..self.ops.len()
    }

    fn run(&mut self, range: Range<usize>, rec: &mut Recorder, mut tracer: Option<&mut Tracer>) {
        for k in range {
            match self.ops[k] {
                Op::Begin(e) => {
                    self.db = self.bases[e % BASES].clone();
                    if tracer.is_some() {
                        self.twin_db = Some(self.db.clone());
                    }
                }
                Op::Mutate(e, step) => {
                    let before = tracer.is_some().then(|| obs::metrics().snapshot());
                    let update = &self.episodes[e][step];
                    let db = &mut self.db;
                    let out = {
                        let _span = obs::span("bench:op:mutate");
                        rec.time(Class::Mutate, || update.apply(db))
                    };
                    if let Err(err) = out {
                        rec.fail(format!("update {step} of episode {e}: {err}"));
                    }
                    if let (Some(t), Some(before)) = (tracer.as_deref_mut(), before) {
                        t.op(&obs::metrics().snapshot().delta(&before));
                        t.mutation();
                        if let Some(twin) = self.twin_db.as_mut() {
                            t.phase(trace::DATA_MUTATE, || update.apply(twin))
                                .expect("the twin takes the same update");
                        }
                        t.close_other();
                    }
                }
                Op::Read(e, step, s) => {
                    let before = tracer.is_some().then(|| obs::metrics().snapshot());
                    let sql = self.statements[s].0.as_str();
                    let db = &self.db;
                    let out = {
                        let _span = obs::span("bench:op:exact");
                        rec.time(Class::Query, || {
                            self.pipeline.execute(sql, db, Scheme::Exact)
                        })
                    };
                    match out {
                        Ok(answers) => rec.answer(key(e, step, s), &answers),
                        Err(err) => rec.fail(format!("`{sql}` in episode {e}: {err}")),
                    }
                    if let (Some(t), Some(before)) = (tracer.as_deref_mut(), before) {
                        let delta = obs::metrics().snapshot().delta(&before);
                        t.op(&delta);
                        self.replay_read(t, s, &delta);
                        t.close_query("exact", rec.last());
                    }
                }
            }
        }
    }
}
