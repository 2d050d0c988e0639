//! Property tests for resource-governed execution (PR 8).
//!
//! The governor threads budgets, deadlines and cooperative cancellation
//! through every backend, and the pipeline answers a trip by degrading
//! down the backend lattice (`Exact ⊐ Degraded ⊐ Refused`). The claims
//! under test, on seeded random instances:
//!
//! * **no wrong answers** — a governed execution either refuses, degrades
//!   to the sound `(Q+, Q?)` approximation, or returns answers
//!   bit-identical to an ungoverned scratch oracle. Degraded `Certain`
//!   labels are a subset of the exact certain answers, and every exact
//!   certain answer still appears among the degraded rows;
//! * **trips are never errors** — a row budget drawn from what the
//!   request actually spends trips wherever the rows run out, including
//!   inside the c-table evaluation under lineage and under
//!   `Scheme::CTable`; every such run comes back `Ok` with a verdict;
//! * **no poisoned cache** — after any governed request (including
//!   cancellations that interrupt a refine mid-flight), lifting the budget
//!   yields answers bit-identical to a cold pipeline on the same database;
//! * **worker-count invariance** — at the mask layer, governed
//!   classification at 1, 2 and 8 requested workers either agrees
//!   bit-for-bit with the ungoverned statuses or fails with a typed
//!   governor error; never a panic, never a divergent answer;
//! * **termination** — the acceptance instance (a 2²⁰-world lineage
//!   dispatch) under a 10 ms deadline comes back `Degraded`/`Refused`
//!   promptly instead of hanging or aborting.
//!
//! The injected-fault half of the harness lives in
//! `property_fault_injection.rs` (its schedule is process-global, so it
//! gets a test binary of its own), behind the `fault-injection` feature.

use certa::certain::{CertainError, MaskBatch};
use certa::prelude::*;
use rand::prelude::*;
use std::time::{Duration, Instant};

const CASES: u64 = 200;

/// Uniform pick from a slice (the vendored `rand` has no `SliceRandom`).
fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

fn db_config(seed: u64) -> RandomDbConfig {
    RandomDbConfig {
        relations: vec![
            ("R".to_string(), 2),
            ("S".to_string(), 1),
            ("T".to_string(), 3),
        ],
        tuples_per_relation: 4,
        domain_size: 4,
        null_count: 3,
        null_rate: 0.3,
        seed,
    }
}

/// A seeded budget mixing the trip dimensions: sometimes an already-spent
/// deadline, sometimes a tiny row/arena/node budget, sometimes a raised
/// cancel token, sometimes several at once. Roughly a third of the draws
/// are generous enough that the exact backends pass untripped.
fn gen_budget(rng: &mut StdRng) -> (ExecBudget, bool) {
    let mut budget = ExecBudget::new();
    let mut cancelled = false;
    match rng.gen_range(0u32..6) {
        0 => budget = budget.with_deadline(Duration::ZERO),
        1 => budget = budget.with_row_budget(rng.gen_range(0u64..8)),
        2 => budget = budget.with_arena_word_budget(rng.gen_range(0u64..4)),
        3 => budget = budget.with_node_budget(rng.gen_range(0u64..3)),
        4 => {
            let token = CancelToken::new();
            token.cancel();
            budget = budget.with_cancel_token(token);
            cancelled = true;
        }
        _ => {
            // Generous limits: the run should stay exact under them.
            budget = budget
                .with_deadline(Duration::from_secs(60))
                .with_row_budget(1 << 40)
                .with_node_budget(1 << 40);
        }
    }
    if rng.gen_bool(0.2) {
        budget = budget.with_row_budget(rng.gen_range(0u64..8));
    }
    (budget, cancelled)
}

/// Every exact certain answer must still be visible among the degraded
/// rows (`cert ⊆ Q?`), and no degraded `Certain` may be a false positive
/// (`Q+ ⊆ cert`).
fn assert_degraded_sound(degraded: &LabeledAnswers, oracle: &LabeledAnswers, context: &str) {
    let exact_certain = oracle.certain();
    for t in degraded.certain().iter() {
        assert!(
            exact_certain.contains(t),
            "{context}: degraded Certain {t} is not certain"
        );
    }
    for t in exact_certain.iter() {
        assert!(
            degraded.rows.iter().any(|(u, _)| u == t),
            "{context}: certain answer {t} vanished from the degraded rows"
        );
    }
}

#[test]
fn governed_pipeline_runs_never_yield_wrong_answers_or_poisoned_caches() {
    let mut exact = 0usize;
    let mut degraded = 0usize;
    let mut refused = 0usize;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x60D5);
        let mut db = random_database(&db_config(seed));
        let sql = certa::workload::random_sql(
            db.schema(),
            &certa::workload::RandomSqlConfig {
                seed,
                ..Default::default()
            },
        );
        // The ungoverned scratch oracle; skip statements the exact
        // backends cannot answer at all.
        let Ok(oracle) = Pipeline::new().execute(&sql, &db, Scheme::Exact) else {
            continue;
        };
        let mut warm = Pipeline::new();
        warm.execute(&sql, &db, Scheme::Exact).unwrap();
        // Half the runs mutate the database first so the governed request
        // lands on the answer cache's refine path and the trip interrupts
        // a refinement mid-flight.
        let oracle = if rng.gen_bool(0.5) {
            let nulls: Vec<_> = db.nulls().into_iter().collect();
            if let Some(&null) = pick(&mut rng, &nulls) {
                assert!(db.resolve_null(null, Const::from(rng.gen_range(0i64..4))) > 0);
            }
            match Pipeline::new().execute(&sql, &db, Scheme::Exact) {
                Ok(o) => o,
                Err(_) => continue,
            }
        } else {
            oracle
        };

        let (budget, cancelled) = gen_budget(&mut rng);
        warm.set_budget(Some(budget));
        let governed = warm.execute(&sql, &db, Scheme::Exact).unwrap_or_else(|e| {
            panic!("seed {seed}: governed run errored: {e}\n  {sql}\non\n{db}")
        });
        match &governed.verdict {
            Verdict::Exact => {
                assert!(!cancelled, "seed {seed}: a cancelled run claimed exactness");
                assert_eq!(
                    governed, oracle,
                    "seed {seed}: governed exact answers differ from the oracle\n  {sql}\non\n{db}"
                );
                exact += 1;
            }
            Verdict::Degraded(_) => {
                assert_degraded_sound(&governed, &oracle, &format!("seed {seed} ({sql})"));
                degraded += 1;
            }
            Verdict::Refused(_) => {
                assert!(governed.rows.is_empty(), "seed {seed}: refused with rows");
                refused += 1;
            }
        }

        // No poisoned cache: lifting the budget must reproduce the cold
        // pipeline bit for bit, whatever the governed run did.
        warm.set_budget(None);
        let after = warm.execute(&sql, &db, Scheme::Exact).unwrap();
        assert_eq!(
            after, oracle,
            "seed {seed}: the cache was poisoned by a governed run\n  {sql}\non\n{db}"
        );
    }
    // The workload must actually exercise the whole verdict lattice.
    assert!(exact > 0, "no governed run stayed exact");
    assert!(degraded > 0, "no governed run degraded");
    assert!(refused > 0, "no governed run refused");
}

/// Lineage-first instances: 5 nulls put most instances past the mask
/// threshold, so lineage runs first under the request's own row budget
/// instead of after a mask trip under a fallback governor that lifts it.
fn lineage_first_config(seed: u64) -> RandomDbConfig {
    RandomDbConfig {
        relations: vec![("R".to_string(), 2), ("S".to_string(), 1)],
        tuples_per_relation: 6,
        domain_size: 3,
        null_count: 5,
        null_rate: 0.4,
        seed,
    }
}

/// Row budgets small enough to trip only during candidate derivation miss
/// the trips deeper in a request. Each request here runs once metered, and
/// the real row budget is drawn uniformly from zero to the rows that run
/// spent, so trips land anywhere along the request, under both `Exact`
/// and `CTable(Eager)`.
#[test]
fn row_budgets_drawn_from_the_spend_come_back_with_a_verdict() {
    let mut exact = 0usize;
    let mut degraded = 0usize;
    let mut refused = 0usize;
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5BE9D);
        let db = random_database(&lineage_first_config(seed));
        let sql = certa::workload::random_sql(
            db.schema(),
            &certa::workload::RandomSqlConfig {
                seed,
                ..Default::default()
            },
        );
        let Ok(exact_oracle) = Pipeline::new().execute(&sql, &db, Scheme::Exact) else {
            continue;
        };
        for scheme in [Scheme::Exact, Scheme::CTable(Strategy::Eager)] {
            let Ok(oracle) = Pipeline::new().execute(&sql, &db, scheme) else {
                continue;
            };
            let mut metered = Pipeline::new();
            metered.set_budget(Some(ExecBudget::new().with_row_budget(1 << 40)));
            let run = metered.execute(&sql, &db, scheme).unwrap();
            assert!(run.verdict.is_exact(), "seed {seed}: {}", run.verdict);
            let explained = metered.explain(&sql, &db).unwrap();
            let spent = explained.governor.expect("a governed run").spent.rows;

            let budget = rng.gen_range(0..=spent);
            let mut governed = Pipeline::new();
            governed.set_budget(Some(ExecBudget::new().with_row_budget(budget)));
            let context = format!("seed {seed}, {scheme:?}, row budget {budget} ({sql})");
            let out = governed
                .execute(&sql, &db, scheme)
                .unwrap_or_else(|e| panic!("{context}: errored: {e}\non\n{db}"));
            match &out.verdict {
                Verdict::Exact => {
                    assert_eq!(out, oracle, "{context}");
                    exact += 1;
                }
                Verdict::Degraded(_) => {
                    assert_degraded_sound(&out, &exact_oracle, &context);
                    degraded += 1;
                }
                Verdict::Refused(_) => {
                    assert!(out.rows.is_empty(), "{context}: refused with rows");
                    refused += 1;
                }
            }
        }
    }
    assert!(exact > 0, "no budgeted run stayed exact");
    assert!(degraded > 0, "no budgeted run degraded");
    assert!(refused > 0, "no budgeted run refused");
}

#[test]
fn governed_mask_classification_is_worker_invariant_or_typed() {
    let mut governed_ok = 0usize;
    let mut tripped = 0usize;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5CA);
        let db = random_database(&db_config(seed));
        let query = random_query(
            db.schema(),
            &RandomQueryConfig {
                max_depth: 2,
                allow_difference: true,
                allow_disequality: true,
                seed,
            },
        );
        let spec = certa::certain::worlds::exact_pool(&query, &db);
        if spec.check(&db).is_err() {
            continue;
        }
        let Ok(prepared) = PreparedQuery::prepare(&query, db.schema()) else {
            continue;
        };
        let tuples: Vec<Tuple> = naive_eval(&query, &db)
            .unwrap()
            .iter()
            .take(3)
            .cloned()
            .collect();
        let Ok(reference_batch) = MaskBatch::from_prepared(&prepared, &db, &spec) else {
            continue;
        };
        let reference = reference_batch.classify(&tuples).unwrap();
        let (budget, _) = gen_budget(&mut rng);
        let governor = Governor::arm(&budget);
        for workers in [1usize, 2, 8] {
            let outcome = certa::algebra::governor::with_governor(&governor, || {
                MaskBatch::from_prepared(&prepared, &db, &spec.clone().with_threads(workers))
                    .and_then(|batch| batch.classify(&tuples))
            });
            match outcome {
                Ok(statuses) => {
                    assert_eq!(
                        statuses, reference,
                        "seed {seed}: governed mask classification diverged at {workers} workers"
                    );
                    governed_ok += 1;
                }
                Err(e) => {
                    assert!(
                        matches!(&e, CertainError::Governor(_)) || e.governor_trip().is_some(),
                        "seed {seed}: non-governor failure at {workers} workers: {e}"
                    );
                    tripped += 1;
                }
            }
        }
    }
    assert!(governed_ok > 0, "no governed mask run completed");
    assert!(tripped > 0, "no governed mask run tripped");
}

/// The acceptance instance: 64 marked nulls over the exact pool span far
/// more than 2²⁰ possible worlds, which dispatches to the lineage
/// backend. The instance is sized so even a release build needs ~100 ms
/// ungoverned, so a 10 ms budget must come back `Degraded`/`Refused` —
/// promptly, not by hanging or aborting.
#[test]
fn acceptance_two_to_the_twenty_worlds_under_a_ten_ms_deadline() {
    let mut rows: Vec<Tuple> = Vec::new();
    for i in 0..4000u32 {
        rows.push(tup![Value::null(i % 64)]);
    }
    let db = database_from_literal([
        ("R", vec!["a"], rows),
        ("S", vec!["a"], vec![tup![0], tup![1]]),
    ]);
    let sql = "SELECT a FROM R WHERE a <> 1";
    let mut p = Pipeline::new();
    let explain = p.explain(sql, &db).unwrap();
    assert!(
        explain.worlds >= 1 << 20,
        "the instance must span at least 2^20 worlds, got {}",
        explain.worlds
    );
    assert_eq!(explain.backend.backend, Some(Backend::Lineage));

    p.set_budget(Some(
        ExecBudget::new().with_deadline(Duration::from_millis(10)),
    ));
    // Take the faster of two attempts so one scheduler hiccup cannot fail
    // the bound; both must terminate with a non-exact verdict.
    let mut best = Duration::MAX;
    for _ in 0..2 {
        let start = Instant::now();
        let out = p.execute(sql, &db, Scheme::Exact).unwrap();
        let elapsed = start.elapsed();
        assert!(
            !out.verdict.is_exact(),
            "a 10ms deadline cannot cover this instance, got {}",
            out.verdict
        );
        if let Verdict::Degraded(_) = out.verdict {
            // The approximation is sound even here: nothing is certain
            // (every null could be 1), everything is possible.
            assert!(out.certain().is_empty());
        }
        best = best.min(elapsed);
    }
    assert!(
        best <= Duration::from_millis(20),
        "degradation took {best:?}, more than 2x the 10ms deadline"
    );
}
