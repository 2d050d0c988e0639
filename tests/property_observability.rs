//! Observability property tests (PR 9).
//!
//! The claims:
//!
//! * `Pipeline::explain_analyze` is **measured truth**, not an estimate:
//!   on seeded random SQL, every per-operator row count in the report is
//!   bit-equal to re-executing that exact plan subtree standalone against
//!   the same database — and the report covers every plan line.
//! * The trace a request records is a **deterministic structure**: the
//!   same mask-backend workload traced at 1, 2 and 8 requested morsel
//!   workers yields bit-identical span trees (names, nesting, argument
//!   totals), differing only in timings and thread ids. Worker-layout
//!   facts (who claimed which morsel) go to metrics, never to spans.
//! * On the a07-style TPC-H join, per-operator wall times nest inside the
//!   total request time, and self times telescope back to the plan root.
//! * The pipeline-lifetime maintenance totals survive the LRU eviction
//!   that resets an entry's own counters — the PR 9 fix for the vanishing
//!   `explain()` maintenance story.
//! * `explain()` is a dry run of the rung walk `execute` takes: the exact
//!   backend it names is the one whose span `execute` opened last.

use certa::algebra::physical::{self, PhysOp, SetAnn, SetSource};
use certa::certain::mask::classify_candidates_mask;
use certa::certain::worlds::WorldSpec;
use certa::certain::CertainError;
use certa::obs;
use certa::prelude::*;
use certa::sql::{lower_to_algebra, parse as sql_parse};
use certa::workload::{random_sql, RandomSqlConfig};
use certa::PipelineError;

/// Pre-order walk over a physical plan: the order `render()` prints lines
/// and the order span ids are allocated during single-threaded execution.
fn preorder<'a>(op: &'a PhysOp, out: &mut Vec<&'a PhysOp>) {
    out.push(op);
    match op {
        PhysOp::Scan { .. } | PhysOp::Literal(_) | PhysOp::DomPower(_) => {}
        PhysOp::Select(e, _) | PhysOp::Project(e, _) => preorder(e, out),
        PhysOp::HashJoin { left, right, .. } => {
            preorder(left, out);
            preorder(right, out);
        }
        PhysOp::Product(a, b)
        | PhysOp::Union(a, b)
        | PhysOp::Intersect(a, b)
        | PhysOp::Difference(a, b)
        | PhysOp::Divide(a, b)
        | PhysOp::AntiSemiJoinUnify(a, b) => {
            preorder(a, out);
            preorder(b, out);
        }
    }
}

/// Rebuild the exact plan the pipeline caches for `sql`: parse, lower,
/// schema-statistics optimize, prepare.
fn pipeline_plan(sql: &str, schema: &certa::data::Schema) -> PhysOp {
    let stmt = sql_parse(sql).expect("generated SQL parses");
    let lowered = lower_to_algebra(&stmt, schema).expect("generated SQL lowers");
    let optimized = optimize(&lowered.expr, schema).expect("optimizer accepts the query");
    PreparedQuery::prepare(&optimized, schema)
        .expect("plan prepares")
        .plan()
        .clone()
}

#[test]
fn explain_analyze_rows_match_standalone_subtree_reexecution() {
    let db = random_database(&RandomDbConfig {
        relations: vec![
            ("R".to_string(), 2),
            ("S".to_string(), 3),
            ("T".to_string(), 2),
        ],
        tuples_per_relation: 60,
        domain_size: 4,
        null_count: 0,
        null_rate: 0.0,
        seed: 90,
    });
    let mut pipeline = Pipeline::new();
    let mut analyzed = 0usize;
    for seed in 0..40u64 {
        let sql = random_sql(
            db.schema(),
            &RandomSqlConfig {
                max_tables: 2,
                max_cond_depth: 3,
                domain_size: 4,
                allow_membership: true,
                seed,
            },
        );
        let report = match pipeline.explain_analyze(&sql, &db) {
            Ok(report) => report,
            // Outside the lowered fragment: nothing to analyze.
            Err(_) => continue,
        };
        analyzed += 1;

        let plan = pipeline_plan(&sql, db.schema());
        let mut subtrees = Vec::new();
        preorder(&plan, &mut subtrees);
        assert_eq!(
            report.operators.len(),
            subtrees.len(),
            "one measured operator per plan node for {sql:?}"
        );
        assert_eq!(
            report.operators.len(),
            report.plan.lines().count(),
            "one measured operator per rendered plan line for {sql:?}"
        );
        for (op_report, subtree) in report.operators.iter().zip(&subtrees) {
            assert_eq!(
                op_report.label,
                op_report.line.trim_start(),
                "span detail must be the plan line it annotates for {sql:?}"
            );
            let oracle: certa::algebra::AnnRel<SetAnn> =
                physical::execute(subtree, &SetSource(&db), &mut |_, rel| rel)
                    .expect("standalone subtree re-execution");
            assert_eq!(
                op_report.rows,
                oracle.len() as u64,
                "measured rows must equal the standalone cardinality of\n{subtree}\nfor {sql:?}"
            );
        }
    }
    assert!(
        analyzed >= 20,
        "the generator fragment should mostly analyze, got {analyzed}/40"
    );
}

#[test]
fn trace_structure_is_invariant_across_morsel_worker_counts() {
    // The 2^6-world masked workload from the bench suite: joins, a
    // projection and a difference over marked nulls, so the columnar
    // executor, its kernels and the morsel pool all run.
    let nulls: u32 = 6;
    let mut rows: Vec<Tuple> = (0..nulls)
        .map(|i| tup![i64::from(i), Value::null(i)])
        .collect();
    for j in 0..120i64 {
        rows.push(tup![100 + j, j % 7]);
    }
    let db = database_from_literal([
        ("R", vec!["a", "b"], rows),
        ("S", vec!["b"], vec![tup![1], tup![3], tup![5]]),
        ("T", vec!["a"], vec![tup![101], tup![105]]),
    ]);
    let query = RaExpr::rel("R")
        .join_on(RaExpr::rel("S"), &[(1, 0)], 2)
        .project(vec![0])
        .difference(RaExpr::rel("T"));
    let prepared = PreparedQuery::prepare(&query, db.schema()).unwrap();
    let candidates: Vec<Tuple> = (0..nulls).map(|i| tup![i64::from(i)]).collect();

    let mut signatures: Vec<(usize, String)> = Vec::new();
    let mut results = Vec::new();
    for workers in [1usize, 2, 8] {
        let spec = WorldSpec::new([certa::data::Const::Int(1), certa::data::Const::Int(2)])
            .with_threads(workers);
        let trace = obs::Trace::new();
        {
            let _installed = obs::install(Some(trace.clone()));
            let _root = obs::span("request");
            results.push(classify_candidates_mask(&prepared, &db, &spec, &candidates).unwrap());
        }
        assert!(trace.span_count() > 0, "the traced run must record spans");
        signatures.push((workers, trace.structure_signature()));
    }
    for pair in results.windows(2) {
        assert_eq!(
            pair[0], pair[1],
            "classifications must not depend on workers"
        );
    }
    for ((w0, s0), (w1, s1)) in signatures.iter().zip(signatures.iter().skip(1)) {
        assert_eq!(
            s0, s1,
            "trace structure must be identical at {w0} and {w1} requested worker(s)"
        );
    }
}

#[test]
fn explain_analyze_tpch_join_times_nest_and_telescope() {
    let db = TpchGenerator::new(TpchConfig::scaled_to(120, 0.0, 9)).generate();
    let sql = "SELECT c.name, o.orderkey FROM Customer c, Orders o \
               WHERE c.custkey = o.custkey AND o.totalprice <> 0";
    let mut pipeline = Pipeline::new();
    let report = pipeline.explain_analyze(sql, &db).unwrap();
    assert!(matches!(report.verdict, Verdict::Exact));
    assert!(!report.operators.is_empty());
    assert!(
        report.plan.contains("HashJoin"),
        "the join must survive planning:\n{}",
        report.plan
    );

    // The plan root is the first pre-order operator; every operator's
    // (inclusive) time nests inside it, and it nests inside the request.
    let root = &report.operators[0];
    assert!(root.time_us <= report.total_us);
    for op in &report.operators {
        assert!(op.time_us <= root.time_us + 1);
        assert!(op.self_time_us <= op.time_us);
    }
    // Self times telescope back to the root's inclusive time (µs
    // truncation can lose — never gain — one microsecond per operator).
    let self_sum: u64 = report.operators.iter().map(|o| o.self_time_us).sum();
    assert!(
        self_sum <= root.time_us + report.operators.len() as u64,
        "self times ({self_sum} µs) cannot exceed the root's inclusive time ({} µs)",
        root.time_us
    );

    // The Chrome export of the same trace is non-empty and loadable: every
    // complete event carries the fields a viewer sorts and nests by.
    let chrome = report.trace.to_chrome_json();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("op:HashJoin"));
}

#[test]
fn lifetime_maintenance_totals_survive_lru_eviction() {
    let db = database_from_literal([
        ("R", vec!["a"], vec![tup![0], tup![1], tup![2]]),
        ("S", vec!["a"], vec![tup![1]]),
    ]);
    let q1 = "SELECT r.a FROM R r WHERE r.a <> 1";
    let q2 = "SELECT s.a FROM S s WHERE s.a = 1";

    let mut pipeline = Pipeline::with_cache_capacity(1);
    pipeline.execute(q1, &db, Scheme::Exact).unwrap();
    pipeline.execute(q1, &db, Scheme::Exact).unwrap();
    let explain = pipeline.explain(q1, &db).unwrap();
    assert_eq!(explain.maintenance.served, 1);
    assert_eq!(explain.lifetime.served, 1);
    assert_eq!(explain.lifetime.recomputed, 1);

    // Evict q1's entry (capacity 1), then recompile it: the per-entry
    // counters restart from zero, the lifetime totals do not.
    pipeline.execute(q2, &db, Scheme::Exact).unwrap();
    pipeline.execute(q1, &db, Scheme::Exact).unwrap();
    let explain = pipeline.explain(q1, &db).unwrap();
    assert_eq!(
        explain.maintenance.served, 0,
        "eviction resets the entry's own counters"
    );
    let totals = pipeline.maintenance_totals();
    assert_eq!(totals.served, 1, "lifetime totals survive eviction");
    assert_eq!(totals.recomputed, 3);
    assert!(pipeline.cache_evictions() >= 2);
    assert_eq!(explain.lifetime.served, 1);
    assert_eq!(explain.lifetime.recomputed, 3);
}

/// Across seeded SQL over instances with 1–7 nulls (so both sides of the
/// mask threshold and of the world bound), the backend `explain()` names
/// is the rung that answers `execute`: the `backend:*` span with the
/// highest id in a trace installed around the request. The trace is
/// thread-local, so parallel test threads cannot read each other's spans.
#[test]
fn explain_predicts_the_rung_that_answers_execute() {
    let (mut mask, mut lineage, mut fell_back) = (0usize, 0usize, 0usize);
    for seed in 0..240u64 {
        let db = random_database(&RandomDbConfig {
            relations: vec![("R".to_string(), 2), ("S".to_string(), 1)],
            tuples_per_relation: 6,
            domain_size: 3,
            null_count: 1 + (seed % 7) as u32,
            null_rate: 0.4,
            seed,
        });
        let sql = random_sql(
            db.schema(),
            &RandomSqlConfig {
                seed,
                ..Default::default()
            },
        );
        let mut pipeline = Pipeline::new();
        let Ok(explain) = pipeline.explain(&sql, &db) else {
            continue; // does not lower
        };
        let trace = obs::Trace::new();
        let out = {
            let _installed = obs::install(Some(trace.clone()));
            pipeline.execute(&sql, &db, Scheme::Exact)
        };
        let Some(predicted) = explain.backend.backend else {
            assert!(
                matches!(
                    out,
                    Err(PipelineError::Certain(CertainError::TooManyWorlds { .. }))
                ),
                "seed {seed}: no rung predicted, but execute gave {out:?}\n  {sql}"
            );
            continue;
        };
        let out = out.unwrap_or_else(|e| panic!("seed {seed}: {e}\n  {sql}"));
        assert!(out.verdict.is_exact(), "seed {seed}: {}", out.verdict);
        let mut tried: Vec<obs::Event> = trace
            .events()
            .into_iter()
            .filter(|ev| ev.kind == obs::EventKind::Complete && ev.name.starts_with("backend:"))
            .collect();
        tried.sort_by_key(|ev| ev.id);
        let answered = tried.last().expect("a backend span");
        let expected = match predicted {
            Backend::Mask => "backend:mask",
            Backend::Lineage => "backend:lineage",
        };
        assert_eq!(answered.name, expected, "seed {seed}\n  {sql}");
        match (predicted, tried.len()) {
            (Backend::Mask, 1) => mask += 1,
            (Backend::Mask, _) => fell_back += 1,
            (Backend::Lineage, _) => lineage += 1,
        }
    }
    assert!(mask > 0, "no statement was answered by the mask rung");
    assert!(lineage > 0, "no statement was answered by the lineage rung");
    assert!(fell_back > 0, "no statement fell back from lineage to mask");
}
