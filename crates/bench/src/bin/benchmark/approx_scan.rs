//! `approx_scan`: approximate schemes on an instance with far more nulls
//! than any exact backend takes. The physical engine and `ctables` do the
//! work; no mask, lineage or answer cache is involved and the plan cache
//! always hits.

use crate::check::{fingerprint_of, state_fingerprint, Expected};
use crate::harness::{shuffle, sub_seed, Class, Recorder, Scale};
use crate::trace::{self, Tracer};
use crate::Workload;
use certa::algebra::{optimize, RaExpr};
use certa::certain::{approx37, PreparedApproxPair};
use certa::ctables::{eval_conditional, Strategy};
use certa::data::{Const, Database, Schema};
use certa::obs;
use certa::sql::{lower_to_algebra, parse};
use certa::workload::{TpchConfig, TpchGenerator};
use certa::{Pipeline, Scheme};
use rand::prelude::*;
use std::collections::HashMap;
use std::ops::Range;

/// The W1–W6 shapes of `TpchGenerator::queries()` in SQL, a three-way
/// join with a selection, and an `IS NULL` filter. The SQL fragment has no
/// `UNION` and lowers `IN` only as a top-level conjunct, so W5's union is
/// the union of two selections, written as a disjunction.
const STATEMENTS: [&str; 8] = [
    "SELECT o.orderkey, c.name FROM Orders o, Customer c \
     WHERE o.custkey = c.custkey AND c.nationkey = 0",
    "SELECT c.custkey FROM Customer c WHERE c.custkey NOT IN (SELECT o.custkey FROM Orders o)",
    "SELECT p.partkey FROM Part p WHERE p.partkey NOT IN (SELECT l.partkey FROM Lineitem l)",
    "SELECT o.orderkey FROM Orders o WHERE o.totalprice = 100 OR o.totalprice <> 100",
    "SELECT c.custkey FROM Customer c WHERE c.nationkey = 0 OR c.nationkey = 3",
    "SELECT s.suppkey FROM Supplier s \
     WHERE s.suppkey NOT IN (SELECT l.suppkey FROM Lineitem l WHERE l.partkey = 0)",
    "SELECT c.name, o.orderkey, l.partkey FROM Customer c, Orders o, Lineitem l \
     WHERE c.custkey = o.custkey AND o.orderkey = l.orderkey AND c.nationkey = 1",
    "SELECT o.orderkey FROM Orders o WHERE o.custkey IS NULL",
];
const SCHEMES: [Scheme; 2] = [Scheme::Approx37, Scheme::CTable(Strategy::Eager)];
/// The three-way join runs under c-tables only: its `(Q+, Q?)` pair takes
/// 1.6 s and 1.3 GB at this size, a hundred times any other request.
const THREE_WAY: usize = 6;
/// `IS NULL` is not generic: no value is null in a possible world, so the
/// filter's exact certain answers are empty, while c-table evaluation
/// labels the null rows certain. The soundness check skips it.
const IS_NULL: usize = 7;
/// Requests of each `(statement, scheme)` pair per pass, spread evenly
/// over the instances.
const REPEATS: usize = 80;
/// TPC-H instances per seed: the cost of a request depends on where the
/// generator put the nulls, and averaging over instances keeps one seed's
/// draw from standing for the workload.
const INSTANCES: usize = 16;

struct Statement {
    sql: &'static str,
    expr: RaExpr,
    optimized: RaExpr,
    /// Trace-only: the `(Q+, Q?)` pair the replays evaluate.
    pair: Option<PreparedApproxPair>,
}

pub struct ApproxScan {
    schema: Schema,
    instances: Vec<Database>,
    statements: Vec<Statement>,
    /// The frozen pass: `(statement, scheme, instance)` per request.
    ops: Vec<(usize, usize, usize)>,
    pipeline: Pipeline,
    seed: u64,
}

fn key(statement: usize, scheme: usize, instance: usize) -> u64 {
    ((statement as u64) << 16) | ((scheme as u64) << 8) | instance as u64
}

/// A small TPC-H instance with exactly three nulls, on which exact
/// certain answers are affordable: the other nulls the generator placed
/// are resolved to constants.
fn shrunken(seed: u64) -> Database {
    let config = TpchConfig {
        customers: 6,
        orders_per_customer: 2,
        lineitems_per_order: 2,
        parts: 4,
        suppliers: 3,
        nations: 2,
        null_rate: 0.15,
        seed,
    };
    let mut db = (0..)
        .map(|attempt| {
            TpchGenerator::new(TpchConfig {
                seed: sub_seed(seed, 21, attempt),
                ..config.clone()
            })
            .generate()
        })
        .find(|db| db.nulls().len() >= 3)
        .expect("some attempt places three nulls");
    for null in db.nulls().into_iter().skip(3) {
        db.resolve_null(null, Const::Int(0));
    }
    db
}

impl Workload for ApproxScan {
    fn setup(seed: u64, scale: Scale) -> ApproxScan {
        let instances: Vec<Database> = (0..scale.pick(INSTANCES, 1))
            .map(|i| {
                let config = TpchConfig::scaled_to(
                    scale.pick(5000, 300),
                    0.02,
                    sub_seed(seed, 20, i as u64),
                );
                TpchGenerator::new(config).generate()
            })
            .collect();
        let schema = instances[0].schema().clone();
        let statements = STATEMENTS
            .iter()
            .map(|sql| {
                let stmt = parse(sql).expect("statements parse");
                let expr = lower_to_algebra(&stmt, &schema)
                    .expect("statements lower")
                    .expr;
                Statement {
                    sql,
                    optimized: optimize(&expr, &schema).expect("statements optimize"),
                    expr,
                    pair: None,
                }
            })
            .collect::<Vec<_>>();
        let mut ops = Vec::new();
        for s in 0..statements.len() {
            for scheme in 0..SCHEMES.len() {
                if (s, scheme) == (THREE_WAY, 0) {
                    continue;
                }
                let n = instances.len();
                ops.extend((0..scale.pick(REPEATS, 1)).map(|j| (s, scheme, j % n)));
            }
        }
        shuffle(&mut ops, &mut StdRng::seed_from_u64(sub_seed(seed, 22, 0)));
        ApproxScan {
            schema,
            instances,
            statements,
            ops,
            pipeline: Pipeline::new(),
            seed,
        }
    }

    /// Each scheme's answer through its direct calls — the `(Q+, Q?)`
    /// translation and c-table evaluation — and, on a shrunken instance
    /// with three nulls, a check that neither labels certain a tuple the
    /// exact certain answers lack.
    fn verify(&self) -> Result<HashMap<u64, Expected>, String> {
        let mut expected = HashMap::new();
        let small = shrunken(self.seed);
        for (s, stmt) in self.statements.iter().enumerate() {
            let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", stmt.sql);
            let pair = approx37::translate(&stmt.expr, &self.schema)
                .and_then(|p| p.prepare(&self.schema))
                .map_err(|e| fail(&e))?;
            for (i, db) in self.instances.iter().enumerate() {
                if s != THREE_WAY {
                    let (plus, question) = pair.eval(db).map_err(|e| fail(&e))?;
                    expected.insert(key(s, 0, i), Expected::from_pair(&plus, &question));
                }
                let ct =
                    eval_conditional(&stmt.optimized, db, Strategy::Eager).map_err(|e| fail(&e))?;
                expected.insert(
                    key(s, 1, i),
                    Expected::from_pair(&ct.certain(), &ct.possible()),
                );
            }
            if s == IS_NULL {
                continue;
            }

            let exact = Pipeline::new()
                .execute(stmt.sql, &small, Scheme::Exact)
                .map_err(|e| fail(&e))?;
            let exact = Expected::from_rows(&exact.rows);
            let (small_plus, _) = pair.eval(&small).map_err(|e| fail(&e))?;
            let small_ct = eval_conditional(&stmt.optimized, &small, Strategy::Eager)
                .map_err(|e| fail(&e))?
                .certain();
            let unsound = small_plus
                .iter()
                .chain(small_ct.iter())
                .find(|t| !exact.certain().contains(t))
                .cloned();
            if let Some(t) = unsound {
                return Err(fail(&format!(
                    "an approximation labels {t:?} certain on the shrunken instance, \
                     but it is not a certain answer"
                )));
            }
        }
        Ok(expected)
    }

    fn describe(&self, key: u64) -> String {
        let (s, scheme, i) = (key >> 16, (key >> 8) & 0xFF, key & 0xFF);
        format!(
            "`{}` under {:?} on instance {i}",
            self.statements[s as usize].sql, SCHEMES[scheme as usize]
        )
    }

    fn inputs(&self) -> u64 {
        let instances: Vec<u64> = self.instances.iter().map(state_fingerprint).collect();
        fingerprint_of(&(instances, &self.ops))
    }

    fn pass_len(&self) -> usize {
        self.ops.len()
    }

    fn run(&mut self, range: Range<usize>, rec: &mut Recorder, mut tracer: Option<&mut Tracer>) {
        for k in range {
            let (s, scheme, i) = self.ops[k];
            let sql = self.statements[s].sql;
            let db = &self.instances[i];
            let before = tracer.is_some().then(|| obs::metrics().snapshot());
            let out = {
                let _span = obs::span("bench:op:approx");
                rec.time(Class::Query, || {
                    self.pipeline.execute(sql, db, SCHEMES[scheme])
                })
            };
            match out {
                Ok(answers) => rec.answer(key(s, scheme, i), &answers),
                Err(e) => rec.fail(format!("`{sql}` under {:?}: {e}", SCHEMES[scheme])),
            }
            if let (Some(t), Some(before)) = (tracer.as_deref_mut(), before) {
                t.op(&obs::metrics().snapshot().delta(&before));
                let schema = &self.schema;
                let stmt = &mut self.statements[s];
                if scheme == 0 {
                    let pair = stmt.pair.get_or_insert_with(|| {
                        approx37::translate(&stmt.expr, schema)
                            .and_then(|p| p.prepare(schema))
                            .expect("statements translate")
                    });
                    t.phase(trace::APPROX37_EVAL, || {
                        pair.eval(db).expect("(Q+, Q?) evaluates")
                    });
                    t.close_query("approx37", rec.last());
                } else {
                    t.phase(trace::CTABLES_EVAL, || {
                        eval_conditional(&stmt.optimized, db, Strategy::Eager)
                            .expect("c-tables evaluate")
                    });
                    t.close_query("ctable", rec.last());
                }
            }
        }
    }
}
