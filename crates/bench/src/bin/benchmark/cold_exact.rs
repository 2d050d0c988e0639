//! `cold_exact`: `Scheme::Exact` SQL on instances the answer cache has
//! never seen, so every request takes the recompute path (plan-cache
//! misses, mask compile and classify, lineage, candidate `naive_eval`,
//! armed governor checkpoints) and the answer cache and WAL do nothing.

use crate::check::{fingerprint_of, state_fingerprint, Expected};
use crate::harness::{apportion, shuffle, sub_seed, Class, Recorder, Scale};
use crate::trace::{self, Tracer};
use crate::Workload;
use certa::algebra::{naive_eval, optimize, PreparedQuery, RaExpr, Stats};
use certa::certain::cert::{classify_candidates, classify_candidates_lineage};
use certa::certain::worlds::exact_pool;
use certa::certain::{classify_candidates_mask, CertainError, MaskBatch};
use certa::data::{Database, Schema, Tuple, Value};
use certa::obs::{self, MetricId, Snapshot};
use certa::sql::ast::{SelectStatement, SqlExpr};
use certa::sql::{lower_to_algebra, parse};
use certa::workload::sqlgen::{random_sql, RandomSqlConfig};
use certa::workload::{random_database, RandomDbConfig};
use certa::{ExecBudget, Pipeline, Scheme};
use rand::prelude::*;
use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The statement corpus is the same for every seed: the seed draws the
/// instances and the request order. Random statements differ in cost by
/// orders of magnitude, so a corpus drawn per seed would make the
/// workload's mean cost, and every metric, depend on which statements the
/// seed happened to draw.
const CORPUS_SEED: u64 = 0xC0_1D;
const STATEMENTS: usize = 64;
/// Instances of each shape: `mask_small` and `lineage_mid`.
const INSTANCES_PER_SHAPE: usize = 16;
/// Every request runs under this deadline; none comes near it.
const DEADLINE: Duration = Duration::from_secs(1);

/// One statement of the corpus, with the lowered and optimized forms the
/// oracle and the traced replays start from.
struct Statement {
    sql: String,
    expr: RaExpr,
    optimized: RaExpr,
    plain: PreparedQuery,
}

pub struct ColdExact {
    schema: Schema,
    instances: Vec<Database>,
    statements: Vec<Statement>,
    /// The frozen pass: `(statement, instance)` per request.
    ops: Vec<(usize, usize)>,
    pipeline: Pipeline,
    /// Trace-only twins that measure what arming the budget costs.
    budgeted: Option<(Pipeline, Pipeline)>,
}

/// A random instance over `R(a0,a1)`, `S(a0,a1)`, `T(a0)` with exactly
/// `nulls` distinct marked nulls in exactly `occurrences` positions: the
/// cost of a request grows with both, so fixing them keeps instances of
/// one shape equally hard.
pub fn instance(seed: u64, tuples: usize, domain: i64, nulls: u32, occurrences: usize) -> Database {
    let positions = tuples * 5;
    (0..)
        .map(|attempt| {
            random_database(&RandomDbConfig {
                relations: vec![("R".into(), 2), ("S".into(), 2), ("T".into(), 1)],
                tuples_per_relation: tuples,
                domain_size: domain,
                null_count: nulls,
                null_rate: occurrences as f64 / positions as f64,
                seed: sub_seed(seed, 0x1_5EED, attempt),
            })
        })
        .find(|db| {
            let placed: usize = db
                .iter()
                .flat_map(|(_, rel)| rel.iter())
                .flat_map(|t| t.iter())
                .filter(|v| v.is_null())
                .count();
            db.nulls().len() == nulls as usize && placed == occurrences
        })
        .expect("some attempt places every null")
}

/// Whether a statement keeps the cost of its cross product bounded: a
/// two-table `FROM` must be joined by a top-level equality between the
/// tables. Unjoined products of 30–60-tuple relations under a membership
/// test cost over a second on the lineage instances (and longer in every
/// oracle), which would swamp every other request.
fn joined(stmt: &SelectStatement) -> bool {
    fn conjuncts<'a>(e: &'a SqlExpr, out: &mut Vec<&'a SqlExpr>) {
        match e {
            SqlExpr::And(a, b) => {
                conjuncts(a, out);
                conjuncts(b, out);
            }
            other => out.push(other),
        }
    }
    if stmt.from.len() < 2 {
        return true;
    }
    let mut parts = Vec::new();
    if let Some(w) = &stmt.where_clause {
        conjuncts(w, &mut parts);
    }
    parts.iter().any(|e| match e {
        SqlExpr::Eq(a, b) => match (a.as_ref(), b.as_ref()) {
            (SqlExpr::Column(x), SqlExpr::Column(y)) => x.table != y.table,
            _ => false,
        },
        _ => false,
    })
}

/// The fixed corpus: lowerable `random_sql` statements over two tables at
/// condition depth 2, every third allowed a membership test.
fn corpus(schema: &Schema, n: usize) -> Vec<Statement> {
    let mut out = Vec::new();
    let mut draw = 0u64;
    while out.len() < n {
        let sql = random_sql(
            schema,
            &RandomSqlConfig {
                max_tables: 2,
                max_cond_depth: 2,
                domain_size: 5,
                allow_membership: out.len() % 3 == 0,
                seed: sub_seed(CORPUS_SEED, 0, draw),
            },
        );
        draw += 1;
        let Ok(stmt) = parse(&sql) else { continue };
        if !joined(&stmt) || out.iter().any(|s: &Statement| s.sql == sql) {
            continue;
        }
        let Ok(lowered) = lower_to_algebra(&stmt, schema) else {
            continue;
        };
        let optimized = optimize(&lowered.expr, schema).expect("lowered statements optimize");
        let plain = PreparedQuery::prepare(&optimized, schema).expect("optimized plans prepare");
        out.push(Statement {
            sql,
            expr: lowered.expr,
            optimized,
            plain,
        });
    }
    out
}

/// The answer key of a `(statement, instance)` request.
fn key(statement: usize, instance: usize) -> u64 {
    ((statement as u64) << 16) | instance as u64
}

impl ColdExact {
    /// Replay the phases the pipeline ran for this request, as its
    /// registry delta reports them.
    fn replay(&self, t: &mut Tracer, s: &Statement, db: &Database, delta: &Snapshot) {
        let schema = &self.schema;
        if delta.get(MetricId::CacheMisses) > 0 {
            let stmt = t.phase(trace::SQL_PARSE, || parse(&s.sql).expect("corpus parses"));
            let lowered = t.phase(trace::SQL_LOWER, || {
                lower_to_algebra(&stmt, schema).expect("corpus lowers")
            });
            let optimized = t.phase(trace::OPT_OPTIMIZE, || {
                optimize(&lowered.expr, schema).expect("corpus optimizes")
            });
            t.phase(trace::OPT_PREPARE, || {
                PreparedQuery::prepare(&optimized, schema).expect("corpus prepares")
            });
        }
        let spec = t.phase(trace::WORLDS_POOL, || exact_pool(&s.expr, db));
        let candidates = t.phase(trace::NAIVE_EVAL, || {
            naive_eval(&s.expr, db).expect("candidates evaluate")
        });
        let tuples: Vec<Tuple> = candidates.iter().cloned().collect();
        let mask = |t: &mut Tracer| {
            let prepared = t.phase(trace::OPT_REOPT, || {
                let stats = Stats::from_database(db);
                PreparedQuery::prepare_optimized_with(&s.expr, schema, &stats)
                    .expect("instance plan prepares")
            });
            let batch = t.phase(trace::MASK_COMPILE, || {
                MaskBatch::from_prepared(&prepared, db, &spec).expect("mask batch compiles")
            });
            t.phase(trace::MASK_CLASSIFY, || {
                batch.classify(&tuples).expect("mask classifies")
            });
        };
        if delta.get(MetricId::DispatchLineage) > 0 {
            let lineage = t.phase(trace::LINEAGE_CLASSIFY, || {
                classify_candidates_lineage(&s.optimized, db, &spec, &tuples)
            });
            if matches!(lineage, Err(CertainError::Lineage(e)) if e.is_unsupported()) {
                mask(t);
            }
        } else if delta.get(MetricId::DispatchMask) > 0 {
            mask(t);
        }
    }

    /// The same request through a budgeted and an unbudgeted twin pipeline
    /// whose plans are all cached: the difference is what arming the
    /// governor and its checkpoints cost.
    fn budget_cost(&mut self, t: &mut Tracer, sql: &str, db: &Database) {
        let (budgeted, free) = self.budgeted.get_or_insert_with(|| {
            let mut budgeted = Pipeline::with_cache_capacity(STATEMENTS);
            budgeted.set_budget(Some(ExecBudget::new().with_deadline(DEADLINE)));
            (budgeted, Pipeline::with_cache_capacity(STATEMENTS))
        });
        for p in [&mut *budgeted, &mut *free] {
            p.query(sql, db).expect("corpus plans");
        }
        let (a, b) = (db.clone(), db.clone());
        let (_, with) = trace::time_us(|| {
            let _span = obs::span("bench:governor:budgeted_execute");
            budgeted.execute(sql, &a, Scheme::Exact)
        });
        let (_, without) = trace::time_us(|| {
            let _span = obs::span("bench:governor:unbudgeted_execute");
            free.execute(sql, &b, Scheme::Exact)
        });
        t.record("governor.budget_cost_us", with - without);
    }
}

impl Workload for ColdExact {
    fn setup(seed: u64, scale: Scale) -> ColdExact {
        // `mask_small`: about 2.2k worlds, dispatched to the mask backend;
        // `lineage_mid`: about 14.6k worlds, dispatched to lineage.
        let per_shape = scale.pick(INSTANCES_PER_SHAPE, 2);
        let mut instances = Vec::new();
        for i in 0..per_shape {
            instances.push(instance(sub_seed(seed, 1, i as u64), 60, 8, 3, 6));
        }
        for i in 0..per_shape {
            instances.push(instance(sub_seed(seed, 2, i as u64), 30, 5, 4, 8));
        }
        let schema = instances[0].schema().clone();
        let statements = corpus(&schema, scale.pick(STATEMENTS, 12));

        // Zipf(s = 1) over the corpus, as an exact multiset per pass; each
        // statement's requests rotate over the instances from a seeded
        // offset, then the pass is shuffled.
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3, 0));
        let weights: Vec<f64> = (1..=statements.len()).map(|r| 1.0 / r as f64).collect();
        let counts = apportion(scale.pick(6000, 60), &weights);
        let mut ops = Vec::new();
        for (s, &count) in counts.iter().enumerate() {
            let offset = rng.gen_range(0..instances.len());
            for j in 0..count.max(1) {
                ops.push((s, (offset + j) % instances.len()));
            }
        }
        shuffle(&mut ops, &mut rng);

        let mut pipeline = Pipeline::new();
        pipeline.set_budget(Some(ExecBudget::new().with_deadline(DEADLINE)));
        ColdExact {
            schema,
            instances,
            statements,
            ops,
            pipeline,
            budgeted: None,
        }
    }

    /// Mask instances are checked against world enumeration, lineage
    /// instances against the mask backend run on the schema-level plan.
    fn verify(&self) -> Result<HashMap<u64, Expected>, String> {
        let mut expected = HashMap::new();
        for &(s, i) in &self.ops {
            if expected.contains_key(&key(s, i)) {
                continue;
            }
            let stmt = &self.statements[s];
            let db = &self.instances[i];
            let candidates: Vec<Tuple> = naive_eval(&stmt.expr, db)
                .map_err(|e| format!("{}: {e}", stmt.sql))?
                .iter()
                .cloned()
                .collect();
            let spec = exact_pool(&stmt.expr, db);
            let statuses = if i < self.instances.len() / 2 {
                classify_candidates(&stmt.plain, db, &spec, &candidates)
            } else {
                classify_candidates_mask(&stmt.plain, db, &spec, &candidates)
            }
            .map_err(|e| format!("{}: {e}", stmt.sql))?;
            expected.insert(key(s, i), Expected::from_statuses(&candidates, &statuses));
        }
        Ok(expected)
    }

    fn describe(&self, key: u64) -> String {
        let (s, i) = ((key >> 16) as usize, (key & 0xFFFF) as usize);
        format!("`{}` on instance {i}", self.statements[s].sql)
    }

    fn inputs(&self) -> u64 {
        let instances: Vec<u64> = self.instances.iter().map(state_fingerprint).collect();
        let statements: Vec<&str> = self.statements.iter().map(|s| s.sql.as_str()).collect();
        fingerprint_of(&(instances, statements, &self.ops))
    }

    fn pass_len(&self) -> usize {
        self.ops.len()
    }

    fn run(&mut self, range: Range<usize>, rec: &mut Recorder, mut tracer: Option<&mut Tracer>) {
        for k in range {
            let (s, i) = self.ops[k];
            let db = self.instances[i].clone();
            let sql = self.statements[s].sql.as_str();
            let before = tracer.is_some().then(|| obs::metrics().snapshot());
            let out = {
                let _span = obs::span("bench:op:exact");
                rec.time(Class::Query, || {
                    self.pipeline.execute(sql, &db, Scheme::Exact)
                })
            };
            match out {
                Ok(answers) => rec.answer(key(s, i), &answers),
                Err(e) => rec.fail(format!("`{sql}` on instance {i}: {e}")),
            }
            if let (Some(t), Some(before)) = (tracer.as_deref_mut(), before) {
                let delta = obs::metrics().snapshot().delta(&before);
                t.op(&delta);
                self.replay(t, &self.statements[s], &db, &delta);
                t.close_query("exact", rec.last());
                let sql = self.statements[s].sql.clone();
                self.budget_cost(t, &sql, &db);
            }
        }
    }

    /// Two deadline probes, run once each with no trace installed: how far
    /// past its deadline a governed request returns.
    fn probes(&mut self, t: &mut Tracer, scale: Scale) {
        let rows = scale.pick(4000, 200) as u32;
        let a12 = certa::data::database_from_literal([
            (
                "R",
                vec!["a"],
                (0..rows)
                    .map(|i| Tuple::new([Value::null(i % 64)]))
                    .collect(),
            ),
            (
                "S",
                vec!["a"],
                vec![Tuple::new([Value::int(0)]), Tuple::new([Value::int(1)])],
            ),
        ]);
        t.set(
            "governor.overshoot_x.a12",
            overshoot(
                &a12,
                "SELECT a FROM R WHERE a <> 1",
                Duration::from_millis(10),
            ),
        );
        if scale == Scale::Full {
            t.set(
                "governor.overshoot_x.selfjoin",
                overshoot(
                    &instance(7, 30, 5, 4, 8),
                    SELFJOIN,
                    Duration::from_millis(20),
                ),
            );
        }
    }
}

/// The statement the governor overshoots most: a self-join under a
/// disequality whose `NOT IN` subquery the checkpoints rarely interrupt.
const SELFJOIN: &str = "SELECT t1.a0, t1.a1, t0.a1 FROM R t0, R t1 \
     WHERE t1.a0 <> t0.a0 AND t1.a0 NOT IN (SELECT s0.a1 FROM R s0 WHERE s0.a1 = s0.a1)";

/// Elapsed time of one governed request as a multiple of its deadline.
fn overshoot(db: &Database, sql: &str, deadline: Duration) -> f64 {
    let mut p = Pipeline::new();
    p.query(sql, db).expect("probe statement plans");
    p.set_budget(Some(ExecBudget::new().with_deadline(deadline)));
    let start = Instant::now();
    let _ = std::hint::black_box(p.execute(sql, db, Scheme::Exact));
    start.elapsed().as_secs_f64() / deadline.as_secs_f64()
}
