//! Property tests for the prepared/parallel certain-answer pipeline.
//!
//! The exact machinery of `certa-certain` was rewired from
//! replan-per-world loops (kept verbatim in `certa::certain::reference`)
//! onto compile-once prepared queries, zero-copy `ValuationSource` worlds
//! and the chunked-parallel `WorldEngine`. On random null-heavy instances
//! and random full-RA queries, every scheme must agree with its seed
//! oracle **exactly**, and the worker-thread count (1, 2, and more workers
//! than worlds) must never change a result.

use certa::certain::reference;
use certa::certain::worlds::exact_pool;
use certa::certain::{bag_bounds, cert, prob};
use certa::prelude::*;
use rand::prelude::*;

const CASES: u64 = 60;

/// Thread counts exercised for every case: sequential, two workers, and
/// more workers than there are worlds on these instances.
const THREADS: [usize; 3] = [1, 2, 16];

/// A small database with join-friendly shapes and repeated nulls — small
/// enough that exact_pool world enumeration stays in the hundreds. The
/// third relation `T` is always **complete** (null-free), so the
/// null-aware optimizer's leaf ordering has null-free leaves to cluster.
fn gen_database(rng: &mut StdRng) -> Database {
    let mut r: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(1usize..5) {
        r.push(Tuple::new((0..2).map(|_| gen_value(rng))));
    }
    let mut s: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        s.push(Tuple::new([gen_value(rng)]));
    }
    let mut t: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(1usize..4) {
        t.push(Tuple::new([
            Value::int(rng.gen_range(0i64..3)),
            Value::int(rng.gen_range(0i64..3)),
        ]));
    }
    database_from_literal([
        ("R", vec!["a", "b"], r),
        ("S", vec!["c"], s),
        ("T", vec!["d", "e"], t),
    ])
}

fn gen_value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.3) {
        Value::null(rng.gen_range(0u32..2))
    } else {
        Value::int(rng.gen_range(0i64..3))
    }
}

fn gen_query(rng: &mut StdRng, schema: &Schema) -> RaExpr {
    random_query(
        schema,
        &RandomQueryConfig {
            max_depth: 2,
            allow_difference: true,
            allow_disequality: true,
            seed: rng.gen_range(0u64..1_000_000),
        },
    )
}

#[test]
fn cert_with_nulls_and_intersection_agree_with_seed_for_all_thread_counts() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema());
        let spec = exact_pool(&query, &db);
        let oracle_nulls = reference::cert_with_nulls_seed(&query, &db, &spec).unwrap();
        let oracle_inter = reference::cert_intersection_seed(&query, &db, &spec).unwrap();
        for threads in THREADS {
            let spec = spec.clone().with_threads(threads);
            let got_nulls = cert::cert_with_nulls_with(&query, &db, &spec).unwrap();
            assert_eq!(
                got_nulls, oracle_nulls,
                "seed {seed}, {threads} threads: cert⊥ of {query} on {db}"
            );
            let got_inter = cert::cert_intersection_with(&query, &db, &spec).unwrap();
            assert_eq!(
                got_inter, oracle_inter,
                "seed {seed}, {threads} threads: cert∩ of {query} on {db}"
            );
        }
    }
}

#[test]
fn tuple_certainty_predicates_agree_with_seed() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97) + 1);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema());
        // Candidates: naïve answers (may contain nulls) plus a constant
        // tuple that typically is not an answer.
        let mut candidates: Vec<Tuple> = naive_eval(&query, &db)
            .unwrap()
            .iter()
            .take(2)
            .cloned()
            .collect();
        let arity = query.arity(db.schema()).unwrap();
        candidates.push(Tuple::new((0..arity).map(|_| Value::int(99))));
        let mut expected = Vec::with_capacity(candidates.len());
        for t in &candidates {
            let certain = reference::is_certain_answer_seed(&query, &db, t).unwrap();
            let certainly_false = reference::is_certainly_false_seed(&query, &db, t).unwrap();
            assert_eq!(
                is_certain_answer(&query, &db, t).unwrap(),
                certain,
                "seed {seed}: certainty of {t} for {query} on {db}"
            );
            assert_eq!(
                is_certainly_false(&query, &db, t).unwrap(),
                certainly_false,
                "seed {seed}: certain falsity of {t} for {query} on {db}"
            );
            expected.push(cert::CandidateStatus {
                certain,
                possible: !certainly_false,
            });
        }
        // The one-pass classifier, with its settled-candidate skip and
        // absorbing early exit, at every worker count.
        let stats = Stats::from_database(&db);
        let prepared = PreparedQuery::prepare_optimized_with(&query, db.schema(), &stats).unwrap();
        for threads in THREADS {
            let spec = exact_pool(&query, &db).with_threads(threads);
            assert_eq!(
                cert::classify_candidates(&prepared, &db, &spec, &candidates).unwrap(),
                expected,
                "seed {seed}, {threads} threads: statuses of {candidates:?} for {query} on {db}"
            );
        }
        let pool = Relation::with_arity(arity, candidates);
        assert_eq!(
            cert::certainly_false_among(&query, &db, &pool).unwrap(),
            reference::certainly_false_among_seed(&query, &db, &pool).unwrap(),
            "seed {seed}: certainly-false set for {query} on {db}"
        );
    }
}

#[test]
fn prepared_translation_pairs_match_plain_evaluation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) + 5);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema());
        // (Q+, Q?): prepared evaluation equals the seed eval() path, and
        // the Theorem 4.7 guarantee holds against the parallel cert⊥.
        let pair = certa::certain::approx37::translate(&query, db.schema()).unwrap();
        let prepared = pair.prepare(db.schema()).unwrap();
        let (plus, question) = prepared.eval(&db).unwrap();
        assert_eq!(plus, eval(&pair.q_plus, &db).unwrap(), "seed {seed}");
        assert_eq!(
            question,
            eval(&pair.q_question, &db).unwrap(),
            "seed {seed}"
        );
        let certain = cert_with_nulls(&query, &db).unwrap();
        assert!(
            plus.is_subset_of(&certain),
            "seed {seed}: Q+ ⊄ cert⊥ for {query} on {db}"
        );
        // (Qt, Qf): same for Figure 2(a) — skipped for wide queries, whose
        // Qf materialises Dom^k powers too large for a property loop (the
        // blow-up measured by experiment E3).
        if query.arity(db.schema()).unwrap() > 4 {
            continue;
        }
        let pair = certa::certain::approx51::translate(&query, db.schema()).unwrap();
        let prepared = pair.prepare(db.schema()).unwrap();
        let (q_true, q_false) = prepared.eval(&db).unwrap();
        assert_eq!(q_true, eval(&pair.q_true, &db).unwrap(), "seed {seed}");
        assert_eq!(q_false, eval(&pair.q_false, &db).unwrap(), "seed {seed}");
        assert!(
            q_true.is_subset_of(&certain),
            "seed {seed}: Qt ⊄ cert⊥ for {query} on {db}"
        );
    }
}

#[test]
fn mu_k_agrees_with_seed_counting() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(13) + 3);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema());
        let arity = query.arity(db.schema()).unwrap();
        let tuple = naive_eval(&query, &db)
            .unwrap()
            .iter()
            .next()
            .cloned()
            .unwrap_or_else(|| Tuple::new((0..arity).map(|_| Value::int(0))));
        for k in [2usize, 4] {
            let fast = mu_k(&query, &db, &tuple, k).unwrap();
            let spec = certa::certain::WorldSpec::new(prob::canonical_pool(&query, &db, k));
            let (num, den) =
                reference::mu_k_conditional_seed(&query, &db, &tuple, &spec, |_| true).unwrap();
            assert_eq!(
                (fast.numerator, fast.denominator),
                (num as u128, den as u128),
                "seed {seed}, k = {k}: µ_k of {tuple} for {query} on {db}"
            );
        }
    }
}

#[test]
fn bag_multiplicity_range_agrees_with_seed() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7) + 11);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema());
        let bags = db.to_bags();
        let arity = query.arity(db.schema()).unwrap();
        let tuple = naive_eval(&query, &db)
            .unwrap()
            .iter()
            .next()
            .cloned()
            .unwrap_or_else(|| Tuple::new((0..arity).map(|_| Value::int(1))));
        let spec = exact_pool(&query, &db);
        let oracle = reference::multiplicity_range_seed(&query, &bags, &tuple, &spec).unwrap();
        for threads in THREADS {
            let spec = spec.clone().with_threads(threads);
            let got = bag_bounds::multiplicity_range_with(&query, &bags, &tuple, &spec).unwrap();
            assert_eq!(
                got, oracle,
                "seed {seed}, {threads} threads: □/◇ of {tuple} for {query} on {db}"
            );
        }
    }
}

#[test]
fn prepared_world_evaluation_matches_seed_evaluation() {
    // For every world, the instance-optimized prepared plan run over a
    // `ValuationSource` must produce exactly the rows of the seed's eval()
    // on the materialised world.
    use certa::certain::worlds::enumerate_worlds;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(211) + 9);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema());
        let stats = Stats::from_database(&db);
        let prepared = PreparedQuery::prepare_optimized_with(&query, db.schema(), &stats).unwrap();
        let spec = exact_pool(&query, &db);
        for (v, world) in enumerate_worlds(&db, &spec).unwrap().take(40) {
            assert_eq!(
                prepared.eval_set_world(&db, &v).unwrap(),
                eval(&query, &world).unwrap(),
                "seed {seed}: prepared vs seed eval on world {v} for {query}"
            );
        }
    }
}

#[test]
fn cert_with_nulls_is_thread_count_invariant_via_spec_default() {
    // cert_with_nulls runs with the default (auto) parallelism; its answers
    // must match a single-threaded run of the same spec.
    for seed in 0..20 {
        let mut rng = StdRng::seed_from_u64(seed + 400);
        let db = gen_database(&mut rng);
        let query = gen_query(&mut rng, db.schema());
        let auto = cert_with_nulls(&query, &db).unwrap();
        let spec = exact_pool(&query, &db).with_threads(1);
        let sequential = cert::cert_with_nulls_with(&query, &db, &spec).unwrap();
        assert_eq!(auto, sequential, "seed {seed}: {query} on {db}");
    }
}
