//! Headless ablation runner: the one definition of the a05–a13 ablation
//! workloads, timed with plain [`std::time::Instant`] and emitted as
//! machine-readable JSON so the performance trajectory is comparable across
//! PRs. (The criterion suite in `benches/ablations.rs` keeps only a01–a04.)
//!
//! Every variant is verified for cross-backend agreement *before* it is
//! timed — including bit-identical mask results across every swept worker
//! count, refined-equals-recomputed classifications after every update of
//! the incremental ablation, and bit-identical recovery of every durable
//! store the durability ablation replays — so a committed `BENCH_8.json`
//! is also a correctness witness.
//!
//! Usage:
//!
//! ```text
//! bench_json [--quick] [--out PATH] [--threads N,N,...] [--deadline-ms N] [--profile]
//! ```
//!
//! Malformed or unknown flags print a usage error to stderr and exit
//! with status 2 (they never panic).
//!
//! `--quick` shrinks every workload to smoke-test size (used by CI so the
//! emitter can't rot); the default full configuration is what
//! `BENCH_8.json` at the repository root records. `--threads` sets the
//! worker counts the mask-backend sweeps request (default `1,2,4,8`);
//! every requested count is clamped to the host's cores and both numbers
//! are recorded, so a curve measured on a small host is legible as such —
//! on a 1-CPU host the sweep measures scheduling *overhead*, not scaling.
//! `--deadline-ms` sets the budget of the `a12_governor` ablation
//! (default 10): a deadline the heavy lineage instance cannot meet, so
//! the governed run must terminate promptly with a `Degraded`/`Refused`
//! verdict — the emitter asserts this before timing, proving degraded
//! runs terminate and still emit valid JSON. Default output path is
//! `BENCH_8.json` in the current directory.
//!
//! The `a13_durability` ablation measures the crash-safety tax: the same
//! insert sequence against a log-free versus WAL-attached database,
//! snapshot write latency, and recovery latency (snapshot load + WAL
//! replay) at several log sizes — the replay throughput the derived
//! metrics report.
//!
//! `--profile` additionally (1) attaches per-ablation metric-registry
//! deltas to the output under a `"profile"` key, (2) records one traced
//! a10 columnar run and writes it as Chrome `chrome://tracing` JSON next
//! to the output (`<out>.trace.json`), asserting every child span nests
//! inside its parent's time bounds, and (3) asserts the **disabled**
//! tracing overhead: the measured cost of a noop span (no trace
//! installed), multiplied by the span count a traced a10 run records,
//! must stay ≤ 2% of the untraced a10 columnar median.

use certa::certain::cert::{
    cert_with_nulls_with, classify_candidates, classify_candidates_lineage,
};
use certa::certain::mask::{cert_with_nulls_mask_with, classify_candidates_mask, MaskBatch};
use certa::certain::reference::cert_with_nulls_seed;
use certa::certain::worlds::{exact_pool, WorldSpec};
use certa::certain::{prob, CertainError};
use certa::prelude::*;
use std::time::{Duration, Instant};

/// One timed measurement. `threads` is `(requested, effective)` for the
/// worker-sweep variants, `None` for the rest.
struct Entry {
    ablation: &'static str,
    variant: String,
    millis: f64,
    iters: usize,
    threads: Option<(usize, usize)>,
}

/// Median wall time of `iters` runs (after one untimed warmup), in
/// milliseconds.
fn time_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn push(
    out: &mut Vec<Entry>,
    ablation: &'static str,
    variant: impl Into<String>,
    iters: usize,
    f: impl FnMut(),
) {
    push_threaded(out, ablation, variant, iters, None, f);
}

fn push_threaded(
    out: &mut Vec<Entry>,
    ablation: &'static str,
    variant: impl Into<String>,
    iters: usize,
    threads: Option<(usize, usize)>,
    f: impl FnMut(),
) {
    let variant = variant.into();
    let millis = time_ms(iters, f);
    eprintln!("  {ablation}/{variant}: {millis:.3} ms");
    out.push(Entry {
        ablation,
        variant,
        millis,
        iters,
        threads,
    });
}

/// a05: the annotation-generic physical engine versus the seed's
/// clone-per-node interpreter on the three-way TPC-H-style join.
fn a05(out: &mut Vec<Entry>, quick: bool) {
    let customers = if quick { 250 } else { 2000 };
    let db = TpchGenerator::new(TpchConfig::scaled_to(customers, 0.05, 11)).generate();
    let three_way = RaExpr::rel("Customer")
        .join_on(RaExpr::rel("Orders"), &[(0, 1)], 3)
        .join_on(RaExpr::rel("Lineitem"), &[(3, 0)], 6)
        .select(Condition::neq_const(5, 0))
        .project(vec![1, 3, 7]);
    assert_eq!(
        eval(&three_way, &db).unwrap(),
        certa::algebra::reference::eval_set_reference(&three_way, &db).unwrap()
    );
    push(
        out,
        "a05_physical_engine",
        "set_hash_join_engine",
        5,
        || {
            eval(&three_way, &db).unwrap();
        },
    );
    push(
        out,
        "a05_physical_engine",
        "set_clone_per_node_reference",
        3,
        || {
            certa::algebra::reference::eval_set_reference(&three_way, &db).unwrap();
        },
    );
}

/// a06: prepared/parallel world evaluation versus the seed's
/// replan-per-world loop.
fn a06(out: &mut Vec<Entry>, quick: bool) {
    let db = random_database(&RandomDbConfig {
        relations: vec![("R".to_string(), 3), ("S".to_string(), 8)],
        tuples_per_relation: if quick { 200 } else { 1500 },
        domain_size: 3,
        null_count: 4,
        null_rate: 0.01,
        seed: 12,
    });
    let query = RaExpr::rel("R").select(Condition::eq_const(0, 1));
    let spec = exact_pool(&query, &db);
    assert!(db.nulls().len() >= 4);
    assert_eq!(
        cert_with_nulls_seed(&query, &db, &spec).unwrap(),
        cert_with_nulls_with(&query, &db, &spec).unwrap()
    );
    push(
        out,
        "a06_prepared_worlds",
        "replan_per_world_seed",
        3,
        || {
            cert_with_nulls_seed(&query, &db, &spec).unwrap();
        },
    );
    let spec1 = spec.clone().with_threads(1);
    push(
        out,
        "a06_prepared_worlds",
        "prepared_single_thread",
        5,
        || {
            cert_with_nulls_with(&query, &db, &spec1).unwrap();
        },
    );
    push(out, "a06_prepared_worlds", "prepared_parallel", 5, || {
        cert_with_nulls_with(&query, &db, &spec).unwrap();
    });
}

/// a07: the null-aware optimizer across worlds — one prepared query run
/// over every world, unoptimized and optimized with instance statistics.
fn a07(out: &mut Vec<Entry>, quick: bool) {
    use certa::certain::worlds::WorldEngine;

    let base = TpchGenerator::new(TpchConfig {
        customers: 40,
        orders_per_customer: 2,
        lineitems_per_order: 2,
        parts: 12,
        suppliers: 6,
        nations: 4,
        null_rate: 0.0,
        seed: 7,
    })
    .generate();
    let mut db = base.clone();
    let customers: Vec<Tuple> = db.relation("Customer").unwrap().iter().cloned().collect();
    let perturbed: certa::data::Relation = customers
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if i < 3 {
                Tuple::new([t[0].clone(), t[1].clone(), Value::null(i as u32)])
            } else {
                t.clone()
            }
        })
        .collect();
    db.set_relation("Customer", perturbed).unwrap();
    let query = RaExpr::rel("Customer")
        .product(RaExpr::rel("Orders"))
        .product(RaExpr::rel("Lineitem"))
        .select(
            Condition::eq_attr(0, 4)
                .and(Condition::eq_attr(3, 6))
                .and(Condition::neq_const(9, 0)),
        )
        .project(vec![1, 2, 5]);
    let pool = if quick { 4i64 } else { 10 };
    let spec = WorldSpec::new((0..pool).map(certa::data::Const::Int)).with_threads(1);

    let total_answers = |prepared: &PreparedQuery| -> usize {
        let engine = WorldEngine::new(&db, &spec).unwrap();
        engine
            .map_reduce(
                |v| Ok(prepared.eval_set_world(&db, v)?.len()),
                |a, b| a + b,
                |_| false,
            )
            .unwrap()
            .unwrap()
    };

    let unopt = PreparedQuery::prepare(&query, db.schema()).unwrap();
    let opt =
        PreparedQuery::prepare_optimized_with(&query, db.schema(), &Stats::from_database(&db))
            .unwrap();
    assert_eq!(total_answers(&opt), total_answers(&unopt));
    push(out, "a07_optimizer", "unoptimized_prepared", 3, || {
        total_answers(&unopt);
    });
    // The variant keys match the committed BENCH_*.json files, so a07
    // stays comparable across them.
    push(out, "a07_optimizer", "optimized_no_hoist", 3, || {
        total_answers(&opt);
    });
}

/// a08: the symbolic lineage backend versus single-threaded enumeration.
fn a08(out: &mut Vec<Entry>, quick: bool) {
    use certa::certain::cert::cert_with_nulls_lineage_with;

    let nulls: u32 = if quick { 4 } else { 10 };
    let mut rows: Vec<Tuple> = (0..nulls).map(|i| tup![Value::null(i)]).collect();
    rows.push(tup![0]);
    rows.push(tup![1]);
    let db = database_from_literal([("R", vec!["a"], rows), ("S", vec!["a"], vec![tup![1]])]);
    let query = RaExpr::rel("R").difference(RaExpr::rel("S"));
    let spec = WorldSpec::new((0..4i64).map(certa::data::Const::Int)).with_threads(1);
    let by_lineage = cert_with_nulls_lineage_with(&query, &db, &spec).unwrap();
    assert_eq!(
        cert_with_nulls_with(&query, &db, &spec).unwrap(),
        by_lineage
    );
    assert!(by_lineage.contains(&tup![0]));
    assert_eq!(
        prob::mu_k(&query, &db, &tup![0], 4).unwrap(),
        prob::mu_k_lineage(&query, &db, &tup![0], 4).unwrap()
    );
    push(out, "a08_lineage", "enumeration_cert_1_thread", 3, || {
        cert_with_nulls_with(&query, &db, &spec).unwrap();
    });
    push(out, "a08_lineage", "lineage_cert", 10, || {
        cert_with_nulls_lineage_with(&query, &db, &spec).unwrap();
    });
    push(out, "a08_lineage", "enumeration_mu_k4", 3, || {
        prob::mu_k(&query, &db, &tup![0], 4).unwrap();
    });
    push(out, "a08_lineage", "lineage_mu_k4", 10, || {
        prob::mu_k_lineage(&query, &db, &tup![0], 4).unwrap();
    });
}

/// The 2^12-world masked workload shared by a09 and a10: a join–project–
/// difference over a relation with 12 marked nulls and a 2-constant pool.
fn mask_workload(quick: bool) -> (certa::data::Database, RaExpr, WorldSpec) {
    let nulls: u32 = if quick { 6 } else { 12 };
    let mut rows: Vec<Tuple> = (0..nulls)
        .map(|i| tup![i64::from(i), Value::null(i)])
        .collect();
    for j in 0..300i64 {
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
    let spec = WorldSpec::new([certa::data::Const::Int(1), certa::data::Const::Int(2)]);
    assert_eq!(spec.world_count(&db), 1usize << nulls);
    (db, query, spec)
}

/// a09: the world-mask single pass versus prepared/parallel enumeration at
/// 2^12 worlds, plus the lineage-unsupported pair (the instances where the
/// PR 4 dispatcher had only enumeration to fall back to).
fn a09(out: &mut Vec<Entry>, quick: bool, threads_list: &[usize]) {
    let nulls: u32 = if quick { 6 } else { 12 };
    let (db, query, spec) = mask_workload(quick);
    let spec16 = spec.clone().with_threads(16);
    let spec1 = spec.clone().with_threads(1);
    let by_mask = cert_with_nulls_mask_with(&query, &db, &spec).unwrap();
    assert_eq!(cert_with_nulls_with(&query, &db, &spec16).unwrap(), by_mask);
    assert!(!by_mask.is_empty());
    assert_eq!(
        prob::mu_k(&query, &db, &tup![0], 2).unwrap(),
        prob::mu_k_mask(&query, &db, &tup![0], 2).unwrap()
    );
    push(out, "a09_mask", "enumeration_cert_16_threads", 3, || {
        cert_with_nulls_with(&query, &db, &spec16).unwrap();
    });
    push(out, "a09_mask", "enumeration_cert_1_thread", 3, || {
        cert_with_nulls_with(&query, &db, &spec1).unwrap();
    });
    push(out, "a09_mask", "mask_cert_single_pass", 10, || {
        cert_with_nulls_mask_with(&query, &db, &spec).unwrap();
    });
    push(out, "a09_mask", "enumeration_mu_k2", 3, || {
        prob::mu_k(&query, &db, &tup![0], 2).unwrap();
    });
    push(out, "a09_mask", "mask_mu_k2", 10, || {
        prob::mu_k_mask(&query, &db, &tup![0], 2).unwrap();
    });

    // Outside the lineage fragment: the lineage backend must reject this
    // query, after which enumeration was PR 4's only answer.
    let unsupported = RaExpr::rel("R")
        .select(Condition::IsNull(1).or(Condition::eq_const(1, 1)))
        .project(vec![0]);
    let prepared = PreparedQuery::prepare(&unsupported, db.schema()).unwrap();
    let candidates: Vec<Tuple> = (0..nulls).map(|i| tup![i64::from(i)]).collect();
    assert!(matches!(
        classify_candidates_lineage(&unsupported, &db, &spec, &candidates),
        Err(CertainError::Lineage(e)) if e.is_unsupported()
    ));
    let by_mask = classify_candidates_mask(&prepared, &db, &spec, &candidates).unwrap();
    assert_eq!(
        classify_candidates(&prepared, &db, &spec16, &candidates).unwrap(),
        by_mask
    );
    assert!(by_mask.iter().all(|s| s.possible && !s.certain));
    push(
        out,
        "a09_mask",
        "enumeration_classify_unsupported_fragment",
        3,
        || {
            classify_candidates(&prepared, &db, &spec16, &candidates).unwrap();
        },
    );
    push(
        out,
        "a09_mask",
        "mask_classify_unsupported_fragment",
        10,
        || {
            classify_candidates_mask(&prepared, &db, &spec, &candidates).unwrap();
        },
    );
    // Worker sweep on the same lineage-unsupported classification: the
    // syntactic-predicate expansion and per-candidate aggregation are both
    // morsel-parallel stages. Results are pinned bit-identical first.
    let reference = classify_candidates_mask(&prepared, &db, &spec, &candidates).unwrap();
    for &t in threads_list {
        let spec_t = spec.clone().with_threads(t);
        assert_eq!(
            reference,
            classify_candidates_mask(&prepared, &db, &spec_t, &candidates).unwrap(),
            "classification must be bit-identical at {t} requested worker(s)"
        );
        let effective = spec_t.effective_threads();
        push_threaded(
            out,
            "a09_mask",
            format!("mask_classify_unsupported_t{t}"),
            10,
            Some((t, effective)),
            || {
                classify_candidates_mask(&prepared, &db, &spec_t, &candidates).unwrap();
            },
        );
    }
}

/// a10: the columnar mask executor on the same 2^12-world workload, with a
/// worker-count sweep over the batch compile, the certainty filter and
/// candidate classification. Before any timing, every swept worker count is
/// checked to produce **bit-identical** results against the 1-worker run.
fn a10(out: &mut Vec<Entry>, quick: bool, threads_list: &[usize]) {
    let nulls: u32 = if quick { 6 } else { 12 };
    let (db, query, spec) = mask_workload(quick);
    let prepared = PreparedQuery::prepare(&query, db.schema()).unwrap();
    let mut candidates: Vec<Tuple> = (0..nulls).map(|i| tup![i64::from(i)]).collect();
    candidates.push(tup![100]);
    candidates.push(tup![101]);

    let spec1 = spec.clone().with_threads(1);
    let reference_cert = cert_with_nulls_mask_with(&query, &db, &spec1).unwrap();
    let reference_classify = classify_candidates_mask(&prepared, &db, &spec1, &candidates).unwrap();
    for &t in threads_list {
        let spec_t = spec.clone().with_threads(t);
        assert_eq!(
            reference_cert,
            cert_with_nulls_mask_with(&query, &db, &spec_t).unwrap(),
            "cert must be bit-identical at {t} requested worker(s)"
        );
        assert_eq!(
            reference_classify,
            classify_candidates_mask(&prepared, &db, &spec_t, &candidates).unwrap(),
            "classification must be bit-identical at {t} requested worker(s)"
        );
    }

    // The batch compile (plan execution under the mask domain) isolates
    // the executor itself; the cert entries below add the shared
    // naive-evaluation candidate pass and the certainty filter on top.
    for &t in threads_list {
        let spec_t = spec.clone().with_threads(t);
        let effective = spec_t.effective_threads();
        push_threaded(
            out,
            "a10_columnar",
            format!("mask_batch_compile_columnar_t{t}"),
            30,
            Some((t, effective)),
            || {
                MaskBatch::compile(&query, &db, &spec_t).unwrap();
            },
        );
    }
    for &t in threads_list {
        let spec_t = spec.clone().with_threads(t);
        let effective = spec_t.effective_threads();
        push_threaded(
            out,
            "a10_columnar",
            format!("mask_cert_columnar_t{t}"),
            30,
            Some((t, effective)),
            || {
                cert_with_nulls_mask_with(&query, &db, &spec_t).unwrap();
            },
        );
    }
    for &t in threads_list {
        let spec_t = spec.clone().with_threads(t);
        let effective = spec_t.effective_threads();
        push_threaded(
            out,
            "a10_columnar",
            format!("mask_classify_columnar_t{t}"),
            30,
            Some((t, effective)),
            || {
                classify_candidates_mask(&prepared, &db, &spec_t, &candidates).unwrap();
            },
        );
    }
}

/// a11: epoch-safe incremental maintenance versus recompute-per-update on
/// the same 2^12-world instance. "Refine" is the pipeline answer cache's
/// steady state — the mask batch is already compiled, and each update
/// costs one world-space restriction (null resolution) or one semi-naive
/// delta merge (monotone insert) plus re-classification. "Recompute"
/// rebuilds the batch from scratch after every update, which is all a
/// PR-6 caller could do. Before timing, every update step is checked to
/// classify identically on both paths.
fn a11(out: &mut Vec<Entry>, quick: bool) {
    let nulls: u32 = if quick { 6 } else { 12 };
    let (db0, query, spec) = mask_workload(quick);
    let prepared = PreparedQuery::prepare(&query, db0.schema()).unwrap();
    let candidates: Vec<Tuple> = (0..nulls).map(|i| tup![i64::from(i)]).collect();

    // A sequence of null resolutions, one update at a time: resolve half
    // the marked nulls to alternating pool constants.
    let resolutions: Vec<(u32, certa::data::Const)> = (0..nulls / 2)
        .map(|i| (i, certa::data::Const::Int(1 + i64::from(i % 2))))
        .collect();

    let mut maintained = MaskBatch::from_prepared(&prepared, &db0, &spec).unwrap();
    let mut db = db0.clone();
    let mut resolve_dbs: Vec<certa::data::Database> = Vec::new();
    for (n, c) in &resolutions {
        assert_eq!(db.resolve_null(*n, c.clone()), 1);
        assert!(maintained.restrict(*n, c));
        let fresh = MaskBatch::from_prepared(&prepared, &db, &spec).unwrap();
        assert_eq!(
            maintained.classify(&candidates),
            fresh.classify(&candidates),
            "refined and recomputed classifications must agree after resolving null {n} to {c}"
        );
        resolve_dbs.push(db.clone());
    }

    let iters = 20;
    let mut pristine: Vec<MaskBatch> = (0..=iters)
        .map(|_| MaskBatch::from_prepared(&prepared, &db0, &spec).unwrap())
        .collect();
    push(
        out,
        "a11_incremental",
        "resolve_refine_cached",
        iters,
        || {
            let mut batch = pristine.pop().expect("one pristine batch per iteration");
            for (n, c) in &resolutions {
                assert!(batch.restrict(*n, c));
                batch.classify(&candidates).unwrap();
            }
        },
    );
    push(
        out,
        "a11_incremental",
        "resolve_recompute_scratch",
        5,
        || {
            for db_i in &resolve_dbs {
                let batch = MaskBatch::from_prepared(&prepared, db_i, &spec).unwrap();
                batch.classify(&candidates).unwrap();
            }
        },
    );

    // Monotone insert deltas on the join–project sub-query (semi-naive
    // merges require monotonicity, so the outer difference is out).
    let mono = RaExpr::rel("R")
        .join_on(RaExpr::rel("S"), &[(1, 0)], 2)
        .project(vec![0]);
    let mono_prepared = PreparedQuery::prepare(&mono, db0.schema()).unwrap();
    let profile = certa::algebra::delta_profile(mono_prepared.plan());
    assert!(profile.insert_delta_ok("R"));
    let deltas: Vec<Vec<Tuple>> = (0..4i64)
        .map(|j| vec![tup![900 + 2 * j, 1], tup![901 + 2 * j, 3]])
        .collect();

    let mut maintained = MaskBatch::from_prepared(&mono_prepared, &db0, &spec).unwrap();
    let mut db = db0.clone();
    let mut insert_dbs: Vec<certa::data::Database> = Vec::new();
    for d in &deltas {
        db.insert_all("R", d.clone()).unwrap();
        maintained
            .apply_insert_delta(&mono_prepared, &db, "R", d)
            .unwrap();
        let fresh = MaskBatch::from_prepared(&mono_prepared, &db, &spec).unwrap();
        assert_eq!(
            maintained.classify(&candidates),
            fresh.classify(&candidates),
            "merged and recomputed classifications must agree after an insert delta"
        );
        insert_dbs.push(db.clone());
    }

    let mut pristine: Vec<MaskBatch> = (0..=iters)
        .map(|_| MaskBatch::from_prepared(&mono_prepared, &db0, &spec).unwrap())
        .collect();
    push(
        out,
        "a11_incremental",
        "insert_refine_cached",
        iters,
        || {
            let mut batch = pristine.pop().expect("one pristine batch per iteration");
            for (d, db_i) in deltas.iter().zip(&insert_dbs) {
                batch
                    .apply_insert_delta(&mono_prepared, db_i, "R", d)
                    .unwrap();
                batch.classify(&candidates).unwrap();
            }
        },
    );
    push(
        out,
        "a11_incremental",
        "insert_recompute_scratch",
        5,
        || {
            for db_i in &insert_dbs {
                let batch = MaskBatch::from_prepared(&mono_prepared, db_i, &spec).unwrap();
                batch.classify(&candidates).unwrap();
            }
        },
    );
}

/// a12: resource governance. A 64-null lineage instance that needs
/// ~100 ms ungoverned (release) is executed under a deadline it cannot
/// meet: the governed run must terminate promptly with a non-exact
/// verdict (`Degraded`/`Refused`, asserted before timing), while the
/// ungoverned scratch run computes the exact answer at full cost.
fn a12(out: &mut Vec<Entry>, quick: bool, deadline_ms: u64) {
    let rows_n: u32 = if quick { 2000 } else { 4000 };
    let mut rows: Vec<Tuple> = Vec::new();
    for i in 0..rows_n {
        rows.push(tup![Value::null(i % 64)]);
    }
    let db = database_from_literal([
        ("R", vec!["a"], rows),
        ("S", vec!["a"], vec![tup![0], tup![1]]),
    ]);
    let sql = "SELECT a FROM R WHERE a <> 1";

    let mut governed = Pipeline::new();
    governed.set_budget(Some(
        ExecBudget::new().with_deadline(Duration::from_millis(deadline_ms)),
    ));
    let out_governed = governed.execute(sql, &db, Scheme::Exact).unwrap();
    assert!(
        !out_governed.verdict.is_exact(),
        "a {deadline_ms} ms deadline cannot cover the a12 instance, got {}",
        out_governed.verdict
    );
    assert!(Pipeline::new()
        .execute(sql, &db, Scheme::Exact)
        .unwrap()
        .verdict
        .is_exact());

    push(out, "a12_governor", "governed_tight_deadline", 10, || {
        let verdict = governed.execute(sql, &db, Scheme::Exact).unwrap().verdict;
        assert!(!verdict.is_exact(), "governed run must degrade or refuse");
    });
    push(out, "a12_governor", "ungoverned_exact_scratch", 3, || {
        // A fresh pipeline per run: exact answers would otherwise be
        // served from the answer cache at zero cost.
        let verdict = Pipeline::new()
            .execute(sql, &db, Scheme::Exact)
            .unwrap()
            .verdict;
        assert!(verdict.is_exact());
    });
}

/// Mutations per timed a13 insert run.
fn a13_rows(quick: bool) -> usize {
    if quick {
        200
    } else {
        2_000
    }
}

/// WAL sizes (frames to replay) for the a13 recovery sweep.
fn a13_sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[200]
    } else {
        &[1_000, 5_000, 20_000]
    }
}

/// a13: durability. The same insert sequence against a log-free versus a
/// WAL-attached database (the crash-safety tax on the mutation path),
/// snapshot write latency at working-set size, and recovery latency —
/// newest-snapshot load plus checksummed WAL replay — as the replayed
/// tail grows. Every recovery dir is verified to restore the writer's
/// state bit-for-bit *before* it is timed.
fn a13(out: &mut Vec<Entry>, quick: bool) {
    fn a13_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("certa-bench-a13-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
    fn order(i: usize) -> Tuple {
        tup![format!("bo{i}").as_str(), "bench", i as i64]
    }

    let rows = a13_rows(quick);

    // WAL append overhead: identical fresh-database insert sequences, the
    // durable one ending with a flush + fsync so the timed cost is the
    // full price of a crash-consistent log.
    push(out, "a13_durability", "insert_log_free", 5, || {
        let mut db = shop_database(false);
        for i in 0..rows {
            db.insert("Orders", order(i)).unwrap();
        }
    });
    let wal_dir = a13_dir("wal-append");
    push(out, "a13_durability", "insert_wal_logged", 5, || {
        let mut db = shop_database(false);
        db.attach_durable(&wal_dir).unwrap();
        for i in 0..rows {
            db.insert("Orders", order(i)).unwrap();
        }
        db.detach_durable().unwrap();
    });
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Snapshot latency at working-set size (temp-file + atomic rename,
    // retiring the replayed WAL prefix).
    let snap_dir = a13_dir("snapshot");
    let mut snap_db = shop_database(false);
    for i in 0..rows {
        snap_db.insert("Orders", order(i)).unwrap();
    }
    snap_db.attach_durable(&snap_dir).unwrap();
    push(out, "a13_durability", "snapshot_write", 5, || {
        snap_db.snapshot_durable().unwrap();
    });
    snap_db.detach_durable().unwrap();
    drop(snap_db);
    let _ = std::fs::remove_dir_all(&snap_dir);

    // Recovery latency versus log size: the baseline snapshot is written
    // at attach time (near-empty store), so recovery replays the full
    // insert tail — `size` checksummed frames per run.
    for &size in a13_sizes(quick) {
        let dir = a13_dir(&format!("recover-{size}"));
        let mut writer = shop_database(false);
        writer.attach_durable(&dir).unwrap();
        for i in 0..size {
            writer.insert("Orders", order(i)).unwrap();
        }
        writer.sync_durable().unwrap();

        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(
            report.frames_replayed, size,
            "recovery must replay the whole insert tail"
        );
        assert_eq!(
            recovered.relation("Orders").unwrap(),
            writer.relation("Orders").unwrap(),
            "recovered store must match the writer bit-for-bit"
        );
        drop(recovered);

        push(
            out,
            "a13_durability",
            format!("recover_replay_{size}_frames"),
            3,
            || {
                let (db, report) = recover(&dir).unwrap();
                assert_eq!(report.frames_replayed, size);
                std::hint::black_box(db);
            },
        );
        drop(writer);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Run one ablation, optionally bracketing it with registry snapshots so
/// its metric spend (counters + histogram buckets it moved) lands in the
/// `"profile"` section of the output.
fn with_profile(
    profile: bool,
    name: &'static str,
    profiles: &mut Vec<(&'static str, String)>,
    f: impl FnOnce(),
) {
    let before = profile.then(|| certa::obs::metrics().snapshot());
    f();
    if let Some(before) = before {
        let delta = certa::obs::metrics().snapshot().delta(&before);
        profiles.push((name, delta.to_json()));
    }
}

/// The `--profile` trace + overhead story on the a10 columnar workload:
/// record one traced run, validate span nesting, export Chrome JSON, and
/// assert the projected disabled-tracing overhead stays within 2% of the
/// untraced median. Returns the `"trace"` JSON fragment.
fn profile_trace(quick: bool, out_path: &str) -> String {
    use certa::obs;

    let (db, query, spec) = mask_workload(quick);
    let spec2 = spec.clone().with_threads(2);

    // Untraced median: the production configuration (metrics always on,
    // spans on the noop path).
    let disabled_ms = time_ms(10, || {
        cert_with_nulls_mask_with(&query, &db, &spec2).unwrap();
    });

    // One traced run of the same workload.
    let trace = obs::Trace::new();
    {
        let _installed = obs::install(Some(trace.clone()));
        let _root = obs::span("profile:a10_columnar_cert");
        cert_with_nulls_mask_with(&query, &db, &spec2).unwrap();
    }
    let events = trace.events();
    let span_count = trace.span_count();
    assert!(span_count > 0, "the traced a10 run must record spans");

    // Every child span must nest inside its parent's time bounds — the
    // same invariant a Chrome-trace viewer relies on to build flame rows.
    let bounds: std::collections::HashMap<u64, (u64, u64)> = events
        .iter()
        .filter(|e| e.kind == obs::EventKind::Complete)
        .map(|e| (e.id, (e.ts_us, e.ts_us + e.dur_us)))
        .collect();
    for e in &events {
        if e.kind != obs::EventKind::Complete || e.parent == 0 {
            continue;
        }
        let (pstart, pend) = bounds
            .get(&e.parent)
            .unwrap_or_else(|| panic!("span {} has an unrecorded parent {}", e.id, e.parent));
        assert!(
            e.ts_us >= *pstart && e.ts_us + e.dur_us <= *pend,
            "span {} [{}..{}] escapes its parent {} [{pstart}..{pend}]",
            e.id,
            e.ts_us,
            e.ts_us + e.dur_us,
            e.parent
        );
    }

    let trace_path = format!("{out_path}.trace.json");
    std::fs::write(&trace_path, trace.to_chrome_json())
        .unwrap_or_else(|e| panic!("writing {trace_path}: {e}"));
    eprintln!("  profile: wrote {trace_path} ({span_count} span(s))");

    // The disabled-overhead budget: cost of a span when no trace is
    // installed, times the spans an enabled run would have opened.
    let noop_iters: u64 = 2_000_000;
    let start = Instant::now();
    for _ in 0..noop_iters {
        std::hint::black_box(obs::span("noop_overhead_probe"));
    }
    let noop_ns = start.elapsed().as_nanos() as f64 / noop_iters as f64;
    let projected_ms = (span_count as f64 * noop_ns) / 1e6;
    let overhead_pct = 100.0 * projected_ms / disabled_ms;
    eprintln!(
        "  profile: noop span {noop_ns:.1} ns, {span_count} span(s)/run, \
         projected disabled overhead {projected_ms:.4} ms over {disabled_ms:.3} ms \
         ({overhead_pct:.3}%)"
    );
    assert!(
        overhead_pct <= 2.0,
        "disabled tracing overhead {overhead_pct:.3}% exceeds the 2% budget \
         ({span_count} spans x {noop_ns:.1} ns over {disabled_ms:.3} ms)"
    );

    format!(
        "{{\"chrome_trace\": \"{trace_path}\", \"spans_per_run\": {span_count}, \
         \"noop_span_ns\": {noop_ns:.2}, \"disabled_run_ms\": {disabled_ms:.4}, \
         \"disabled_overhead_pct\": {overhead_pct:.4}, \"overhead_budget_pct\": 2.0}}"
    )
}

fn find(entries: &[Entry], ablation: &str, variant: &str) -> f64 {
    entries
        .iter()
        .find(|e| e.ablation == ablation && e.variant == variant)
        .map(|e| e.millis)
        .expect("entry recorded")
}

/// Parsed command-line options, with the documented defaults.
#[derive(Debug)]
struct Opts {
    quick: bool,
    profile: bool,
    out_path: String,
    threads_list: Vec<usize>,
    deadline_ms: u64,
}

const USAGE: &str =
    "usage: bench_json [--quick] [--out PATH] [--threads N,N,...] [--deadline-ms N] [--profile]";

/// Parse the arguments after the program name. Malformed values — a
/// non-numeric or zero worker count, a non-numeric deadline, a flag
/// missing its value, an unknown flag — are reported as usage errors,
/// never panics; `main` prints them to stderr and exits nonzero.
fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        quick: false,
        profile: false,
        out_path: "BENCH_8.json".to_string(),
        threads_list: vec![1, 2, 4, 8],
        deadline_ms: 10,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--profile" => opts.profile = true,
            "--out" => {
                i += 1;
                opts.out_path = args
                    .get(i)
                    .ok_or_else(|| format!("--out requires a path\n{USAGE}"))?
                    .clone();
            }
            "--threads" => {
                i += 1;
                let list = args
                    .get(i)
                    .ok_or_else(|| format!("--threads requires a comma-separated list\n{USAGE}"))?;
                opts.threads_list = list
                    .split(',')
                    .map(|t| {
                        let t = t.trim();
                        match t.parse::<usize>() {
                            Ok(0) | Err(_) => Err(format!(
                                "--threads: `{t}` is not a positive worker count\n{USAGE}"
                            )),
                            Ok(n) => Ok(n),
                        }
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--deadline-ms" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("--deadline-ms requires milliseconds\n{USAGE}"))?;
                opts.deadline_ms = v.trim().parse().map_err(|_| {
                    format!(
                        "--deadline-ms: `{}` is not a millisecond count\n{USAGE}",
                        v.trim()
                    )
                })?;
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Opts {
        quick,
        profile,
        out_path,
        threads_list,
        deadline_ms,
    } = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("bench_json: {msg}");
            std::process::exit(2);
        }
    };

    let mut entries: Vec<Entry> = Vec::new();
    let mut ablation_metrics: Vec<(&'static str, String)> = Vec::new();
    eprintln!(
        "running ablations ({}, worker sweep {threads_list:?}{}):",
        if quick { "quick" } else { "full" },
        if profile { ", profiled" } else { "" }
    );
    let m = &mut ablation_metrics;
    with_profile(profile, "a05_physical_engine", m, || {
        a05(&mut entries, quick)
    });
    with_profile(profile, "a06_prepared_worlds", m, || {
        a06(&mut entries, quick)
    });
    with_profile(profile, "a07_optimizer", m, || a07(&mut entries, quick));
    with_profile(profile, "a08_lineage", m, || a08(&mut entries, quick));
    with_profile(profile, "a09_mask", m, || {
        a09(&mut entries, quick, &threads_list);
    });
    with_profile(profile, "a10_columnar", m, || {
        a10(&mut entries, quick, &threads_list);
    });
    with_profile(profile, "a11_incremental", m, || a11(&mut entries, quick));
    with_profile(profile, "a12_governor", m, || {
        a12(&mut entries, quick, deadline_ms);
    });
    with_profile(profile, "a13_durability", m, || a13(&mut entries, quick));
    let trace_fragment = profile.then(|| profile_trace(quick, &out_path));

    let governed_over_deadline =
        find(&entries, "a12_governor", "governed_tight_deadline") / deadline_ms.max(1) as f64;
    let mask_speedup_16 = find(&entries, "a09_mask", "enumeration_cert_16_threads")
        / find(&entries, "a09_mask", "mask_cert_single_pass");
    let mask_speedup_unsupported =
        find(
            &entries,
            "a09_mask",
            "enumeration_classify_unsupported_fragment",
        ) / find(&entries, "a09_mask", "mask_classify_unsupported_fragment");
    let resolve_refine_speedup = find(&entries, "a11_incremental", "resolve_recompute_scratch")
        / find(&entries, "a11_incremental", "resolve_refine_cached");
    let insert_refine_speedup = find(&entries, "a11_incremental", "insert_recompute_scratch")
        / find(&entries, "a11_incremental", "insert_refine_cached");
    let wal_overhead = find(&entries, "a13_durability", "insert_wal_logged")
        / find(&entries, "a13_durability", "insert_log_free");
    let largest_replay = *a13_sizes(quick)
        .last()
        .expect("a13 sweeps at least one size");
    let replay_frames_per_ms = largest_replay as f64
        / find(
            &entries,
            "a13_durability",
            &format!("recover_replay_{largest_replay}_frames"),
        );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"BENCH_8\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json.push_str(&format!("  \"threads_available\": {threads},\n"));
    json.push_str(&format!(
        "  \"threads_swept\": [{}],\n",
        threads_list
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if threads < 16 {
        json.push_str(&format!(
            "  \"note\": \"requested worker counts are clamped to the host's {threads} \
             CPU(s) (each sweep entry records both numbers), so counts past the clamp \
             measure scheduling overhead, not scaling; the *_16_threads variants \
             likewise degenerate to (near-)sequential execution\",\n"
        ));
    }
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let threads_fields = e.threads.map_or(String::new(), |(req, eff)| {
            format!(", \"threads_requested\": {req}, \"threads_effective\": {eff}")
        });
        json.push_str(&format!(
            "    {{\"ablation\": \"{}\", \"variant\": \"{}\", \"median_ms\": {:.4}, \"iters\": {}{}}}{}\n",
            e.ablation,
            e.variant,
            e.millis,
            e.iters,
            threads_fields,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"derived\": {\n");
    json.push_str(&format!(
        "    \"a09_mask_cert_speedup_over_16_thread_enumeration\": {mask_speedup_16:.1},\n"
    ));
    json.push_str(&format!(
        "    \"a09_mask_classify_speedup_on_lineage_unsupported_fragment\": {mask_speedup_unsupported:.1},\n"
    ));
    json.push_str(&format!(
        "    \"a11_resolve_refine_speedup_over_recompute\": {resolve_refine_speedup:.1},\n"
    ));
    json.push_str(&format!(
        "    \"a11_insert_refine_speedup_over_recompute\": {insert_refine_speedup:.1},\n"
    ));
    json.push_str(&format!("    \"a12_deadline_ms\": {deadline_ms},\n"));
    json.push_str(&format!(
        "    \"a12_governed_run_over_deadline_ratio\": {governed_over_deadline:.2},\n"
    ));
    json.push_str(&format!(
        "    \"a13_wal_logged_insert_overhead_over_log_free\": {wal_overhead:.2},\n"
    ));
    json.push_str(&format!(
        "    \"a13_recovery_replay_frames_per_ms\": {replay_frames_per_ms:.0}\n"
    ));
    json.push_str("  }");
    if let Some(trace_fragment) = &trace_fragment {
        json.push_str(",\n  \"profile\": {\n");
        json.push_str(&format!("    \"trace\": {trace_fragment},\n"));
        json.push_str("    \"ablation_metrics\": {\n");
        for (i, (name, delta)) in ablation_metrics.iter().enumerate() {
            json.push_str(&format!(
                "      \"{name}\": {delta}{}\n",
                if i + 1 < ablation_metrics.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        json.push_str("    }\n");
        json.push_str("  }");
    }
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path}");
    print!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_match_the_documented_usage() {
        let opts = parse_args(&[]).unwrap();
        assert!(!opts.quick);
        assert!(!opts.profile);
        assert_eq!(opts.out_path, "BENCH_8.json");
        assert_eq!(opts.threads_list, vec![1, 2, 4, 8]);
        assert_eq!(opts.deadline_ms, 10);
    }

    #[test]
    fn every_flag_parses() {
        let opts = parse_args(&argv(&[
            "--quick",
            "--out",
            "x.json",
            "--threads",
            "1, 3 ,7",
            "--deadline-ms",
            " 25 ",
            "--profile",
        ]))
        .unwrap();
        assert!(opts.quick && opts.profile);
        assert_eq!(opts.out_path, "x.json");
        assert_eq!(opts.threads_list, vec![1, 3, 7]);
        assert_eq!(opts.deadline_ms, 25);
    }

    #[test]
    fn bad_threads_is_a_usage_error_not_a_panic() {
        let err = parse_args(&argv(&["--threads", "1,banana,4"])).unwrap_err();
        assert!(err.contains("banana"), "names the bad token: {err}");
        assert!(err.contains("usage:"), "includes the usage line: {err}");
        let err = parse_args(&argv(&["--threads", "2,0"])).unwrap_err();
        assert!(err.contains('0'), "rejects zero workers: {err}");
    }

    #[test]
    fn bad_deadline_is_a_usage_error_not_a_panic() {
        let err = parse_args(&argv(&["--deadline-ms", "soon"])).unwrap_err();
        assert!(err.contains("soon"), "names the bad value: {err}");
        assert!(err.contains("usage:"), "includes the usage line: {err}");
        assert!(parse_args(&argv(&["--deadline-ms", "-5"])).is_err());
    }

    #[test]
    fn missing_flag_values_are_reported() {
        for flag in ["--out", "--threads", "--deadline-ms"] {
            let err = parse_args(&argv(&[flag])).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse_args(&argv(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"));
        assert!(err.contains("usage:"));
    }
}
