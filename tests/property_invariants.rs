//! Property-based tests for the core invariants of the library:
//! unification, valuations, relational-algebra identities, Kleene-logic
//! laws, and the soundness of the approximation schemes on arbitrary
//! generated instances.
//!
//! The build environment has no access to crates.io, so instead of proptest
//! these properties are checked over deterministic seeded samples: each
//! generator below is driven by the workspace's offline `rand` stand-in, and
//! every case runs a fixed number of trials (64, matching the old
//! `ProptestConfig::with_cases(64)`). Failures print the seed so a case can
//! be replayed by hand.

use certa::certain::approx37;
use certa::prelude::*;
use rand::prelude::*;

const CASES: u64 = 64;

fn gen_value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.35) {
        Value::null(rng.gen_range(0u32..3))
    } else {
        Value::int(rng.gen_range(0i64..5))
    }
}

fn gen_tuple(rng: &mut StdRng, arity: usize) -> Tuple {
    Tuple::new((0..arity).map(|_| gen_value(rng)))
}

fn gen_valuation(rng: &mut StdRng) -> Valuation {
    let mut pairs: Vec<(u32, Const)> = Vec::new();
    for n in 0u32..3 {
        if rng.gen_bool(0.5) {
            pairs.push((n, Const::Int(rng.gen_range(0i64..5))));
        }
    }
    Valuation::from_pairs(pairs)
}

/// A small random database over a fixed 2-relation schema.
fn gen_database(rng: &mut StdRng) -> Database {
    let r: Vec<Tuple> = (0..rng.gen_range(0usize..5))
        .map(|_| gen_tuple(rng, 2))
        .collect();
    let s: Vec<Tuple> = (0..rng.gen_range(0usize..4))
        .map(|_| gen_tuple(rng, 1))
        .collect();
    database_from_literal([("R", vec!["a", "b"], r), ("S", vec!["c"], s)])
}

/// Unification is symmetric, and unifiable tuples have a witnessing
/// valuation that really equalises them.
#[test]
fn unification_symmetry_and_witness() {
    use certa::data::{unifiable, unify};
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen_tuple(&mut rng, 3);
        let b = gen_tuple(&mut rng, 3);
        assert_eq!(unifiable(&a, &b), unifiable(&b, &a), "seed {seed}");
        if let Some(v) = unify(&a, &b) {
            assert_eq!(v.apply_tuple(&a), v.apply_tuple(&b), "seed {seed}");
        }
    }
}

/// A total valuation always produces a complete database, and applying
/// it twice is the same as applying it once (idempotence on the image).
#[test]
fn valuations_complete_and_idempotent() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let nulls = db.nulls();
        let pool: Vec<Const> = (0..4).map(Const::Int).collect();
        let first = certa::data::valuation::all_valuations(&nulls, &pool).next();
        if let Some(v) = first {
            let world = v.apply_database(&db);
            assert!(world.is_complete(), "seed {seed}");
            assert_eq!(v.apply_database(&world), world, "seed {seed}");
        }
    }
}

/// Kleene connectives: commutativity, associativity, De Morgan,
/// distributivity, and monotonicity in the knowledge order — exhaustive
/// over the 27 triples, so no sampling needed.
#[test]
fn kleene_laws() {
    for a in Truth3::ALL {
        for b in Truth3::ALL {
            for c in Truth3::ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.and(b.and(c)), a.and(b).and(c));
                assert_eq!(a.or(b.or(c)), a.or(b).or(c));
                assert_eq!(a.and(b).not(), a.not().or(b.not()));
                assert_eq!(a.and(b.or(c)), a.and(b).or(a.and(c)));
                for x in Truth3::ALL {
                    if x.knowledge_le(a) {
                        assert!(x.and(b).knowledge_le(a.and(b)));
                    }
                }
            }
        }
    }
}

/// Relational-algebra identities under set semantics: commutativity of
/// ∪ and ∩, distributivity of σ over ∪, and π ∘ π composition.
#[test]
fn algebra_identities() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let k = rng.gen_range(0i64..5);
        let r = RaExpr::rel("R");
        let s = RaExpr::rel("R").select(Condition::eq_const(0, k));
        let union_lr = eval(&r.clone().union(s.clone()), &db).unwrap();
        let union_rl = eval(&s.clone().union(r.clone()), &db).unwrap();
        assert_eq!(union_lr, union_rl, "seed {seed}");
        // σ distributes over ∪.
        let cond = Condition::eq_const(1, k);
        let lhs = eval(&r.clone().union(s.clone()).select(cond.clone()), &db).unwrap();
        let rhs = eval(
            &r.clone().select(cond.clone()).union(s.clone().select(cond)),
            &db,
        )
        .unwrap();
        assert_eq!(lhs, rhs, "seed {seed}");
        // Projecting twice is projecting once.
        let p1 = eval(&r.clone().project(vec![0, 1]).project(vec![0]), &db).unwrap();
        let p2 = eval(&r.clone().project(vec![0]), &db).unwrap();
        assert_eq!(p1, p2, "seed {seed}");
    }
}

/// Naïve evaluation commutes with valuations for queries in the positive
/// fragment: v(Qⁿᵃⁱᵛᵉ(D)) ⊆ Q(v(D)) (the preservation property behind
/// Theorem 4.4).
#[test]
fn positive_queries_preserved_under_valuations() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let v = gen_valuation(&mut rng);
        let qseed = rng.gen_range(0u64..20);
        let query = random_query(
            db.schema(),
            &RandomQueryConfig {
                max_depth: 2,
                allow_difference: false,
                allow_disequality: false,
                seed: qseed,
            },
        );
        let naive = naive_eval(&query, &db).unwrap();
        // Make the valuation total on the database's nulls by filling gaps.
        let mut total = v.clone();
        for n in db.nulls() {
            if total.get(n).is_none() {
                total.assign(n, Const::Int(0));
            }
        }
        let world = total.apply_database(&db);
        let answer = eval(&query, &world).unwrap();
        assert!(
            total.apply_relation(&naive).is_subset_of(&answer),
            "seed {seed}: query {query} on db {db}"
        );
    }
}

/// Q+ is always a subset of Q? on the same database, and both collapse
/// to Q on complete databases.
#[test]
fn q_plus_subset_of_q_question() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let qseed = rng.gen_range(0u64..20);
        let query = random_query(
            db.schema(),
            &RandomQueryConfig {
                max_depth: 2,
                allow_difference: true,
                allow_disequality: true,
                seed: qseed,
            },
        );
        let pair = approx37::translate(&query, db.schema()).unwrap();
        let plus = eval(&pair.q_plus, &db).unwrap();
        let question = eval(&pair.q_question, &db).unwrap();
        assert!(
            plus.is_subset_of(&question),
            "seed {seed}: query {query} on db {db}"
        );
        if db.is_complete() {
            let exact = eval(&query, &db).unwrap();
            assert_eq!(plus, exact.clone(), "seed {seed}");
            assert_eq!(question, exact, "seed {seed}");
        }
    }
}

/// The eager conditional-table strategy agrees with (Q+, Q?) on
/// arbitrary generated databases and queries (Theorem 4.9's last claim).
#[test]
fn eager_ctables_match_q_plus() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let qseed = rng.gen_range(0u64..12);
        let query = random_query(
            db.schema(),
            &RandomQueryConfig {
                max_depth: 2,
                allow_difference: true,
                allow_disequality: true,
                seed: qseed,
            },
        );
        let pair = approx37::translate(&query, db.schema()).unwrap();
        let eager = eval_conditional(&query, &db, certa::ctables::Strategy::Eager).unwrap();
        assert_eq!(
            eager.certain(),
            eval(&pair.q_plus, &db).unwrap(),
            "seed {seed}: query {query}"
        );
        assert_eq!(
            eager.possible(),
            eval(&pair.q_question, &db).unwrap(),
            "seed {seed}: query {query}"
        );
    }
}

/// Bag and set evaluation agree after duplicate elimination on
/// duplicate-free inputs.
#[test]
fn bag_eval_matches_set_eval() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let qseed = rng.gen_range(0u64..15);
        let query = random_query(
            db.schema(),
            &RandomQueryConfig {
                max_depth: 2,
                allow_difference: false,
                allow_disequality: true,
                seed: qseed,
            },
        );
        let set_out = eval(&query, &db).unwrap();
        let bag_out = certa::algebra::bag_eval::eval_bag(&query, &db.to_bags()).unwrap();
        assert_eq!(bag_out.to_set(), set_out, "seed {seed}: query {query}");
    }
}

/// µ_k is monotone in the sense of the 0–1 law: if a tuple is in the
/// naive answer, its measure at moderate k has positive support.
#[test]
fn mu_k_respects_naive_membership() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let query = RaExpr::rel("R").project(vec![0]);
        let naive = naive_eval(&query, &db).unwrap();
        for t in naive.iter().take(2) {
            let frac = mu_k(&query, &db, t, 12).unwrap();
            assert!(
                frac.numerator > 0,
                "seed {seed}: tuple {t} should have support"
            );
        }
    }
}

/// Instances for the naïve-evaluation properties: three relations, three
/// marked nulls that repeat across tuples, constants from `0..4`.
fn naive_instance(seed: u64) -> Database {
    random_database(&RandomDbConfig {
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
    })
}

/// `Qⁿᵃⁱᵛᵉ(D)` by its definition (§4.1): rename the nulls with a bijective
/// `v` into constants outside `Const(D) ∪ Const(Q)`, evaluate the renamed
/// database with the seed's recursive interpreter, and map the fresh
/// constants back with `v⁻¹`.
fn naive_by_definition(query: &RaExpr, db: &Database) -> Relation {
    let mut avoid = db.consts();
    avoid.extend(query.consts());
    let v = Valuation::bijective_fresh(&db.nulls(), &avoid);
    let renamed =
        certa::algebra::reference::eval_set_reference(query, &v.apply_database(db)).unwrap();
    let inverse = v.inverse();
    renamed.map(|t| {
        t.map(|x| match x {
            Value::Const(c) => inverse
                .get(c)
                .map_or_else(|| x.clone(), |null| Value::Null(*null)),
            Value::Null(_) => x.clone(),
        })
    })
}

/// The seeded `random_sql` statement over `db`'s schema.
fn sql_for(seed: u64, db: &Database) -> String {
    certa::workload::random_sql(
        db.schema(),
        &certa::workload::RandomSqlConfig {
            seed,
            ..Default::default()
        },
    )
}

/// `naive_eval` equals the definition on queries with difference and
/// disequality, and on lowered SQL with `IS NULL`, `NOT IN` and `NULL`
/// literals (whose `null(·)`/`const(·)` tests are not generic, so the
/// renaming must really happen).
#[test]
fn naive_eval_matches_its_definition() {
    for seed in 0..CASES {
        let db = naive_instance(seed);
        let query = random_query(
            db.schema(),
            &RandomQueryConfig {
                max_depth: 3,
                allow_difference: true,
                allow_disequality: true,
                seed,
            },
        );
        assert_eq!(
            naive_eval(&query, &db).unwrap(),
            naive_by_definition(&query, &db),
            "seed {seed}: query {query}\non\n{db}"
        );
    }
    // Both lowerings: the textbook one the pipeline runs, and the
    // SQL-faithful one, which alone accepts `NULL` literals and guards
    // comparisons with `const(·)`.
    let mut lowered = 0;
    let mut features = [0; 3];
    for seed in 0..CASES {
        let db = naive_instance(seed);
        let sql = sql_for(seed, &db);
        let stmt = sql_parse(&sql).unwrap();
        let lowerings = [
            lower_to_algebra(&stmt, db.schema()),
            certa::sql::lower_to_algebra_3vl(&stmt, db.schema()),
        ];
        for lowering in lowerings.into_iter().flatten() {
            assert_eq!(
                naive_eval(&lowering.expr, &db).unwrap(),
                naive_by_definition(&lowering.expr, &db),
                "seed {seed}: {sql} as {}\non\n{db}",
                lowering.expr
            );
            lowered += 1;
            for (n, feature) in features.iter_mut().zip(["IS NULL", "NOT IN", "= NULL"]) {
                *n += usize::from(sql.contains(feature));
            }
        }
    }
    assert!(lowered >= CASES, "only {lowered} lowerings evaluated");
    assert!(
        features.iter().all(|&n| n > 0),
        "IS NULL / NOT IN / NULL literal lowerings: {features:?}"
    );
}

/// The exact scheme labels every naïve candidate and nothing else: the row
/// tuples of `Pipeline::execute` equal `naive_eval` of the lowered
/// statement on a fresh instance, and again on the same pipeline after a
/// null resolution and an insert inside the cached constant pool, which
/// take the answer cache's refine path.
#[test]
fn exact_rows_are_the_naive_candidates() {
    fn check(p: &mut Pipeline, sql: &str, expr: &RaExpr, db: &Database, seed: u64, step: &str) {
        let answers = p.execute(sql, db, Scheme::Exact).unwrap();
        let rows: std::collections::BTreeSet<Tuple> =
            answers.rows.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(rows.len(), answers.rows.len(), "seed {seed}: repeated row");
        let naive: std::collections::BTreeSet<Tuple> =
            naive_eval(expr, db).unwrap().iter().cloned().collect();
        assert_eq!(rows, naive, "seed {seed} ({step}): {sql}\non\n{db}");
    }
    let mut refined = 0;
    for seed in 0..2 * CASES {
        let mut db = naive_instance(seed);
        let sql = sql_for(seed, &db);
        let Ok(lowered) = lower_to_algebra(&sql_parse(&sql).unwrap(), db.schema()) else {
            continue;
        };
        let expr = lowered.expr;
        let mut p = Pipeline::new();
        check(&mut p, &sql, &expr, &db, seed, "fresh");
        let consts: Vec<Const> = db.consts().into_iter().collect();
        if let (Some(&null), Some(value)) = (db.nulls().first(), consts.first()) {
            assert!(db.resolve_null(null, value.clone()) > 0);
            check(&mut p, &sql, &expr, &db, seed, "after a resolution");
        }
        if let (Some(a), Some(b)) = (consts.first(), consts.last()) {
            let t = Tuple::new([Value::Const(a.clone()), Value::Const(b.clone())]);
            db.insert("R", t).unwrap();
            check(&mut p, &sql, &expr, &db, seed, "after an insert");
        }
        refined += p.explain(&sql, &db).unwrap().maintenance.refined;
    }
    assert!(refined > 0, "no request took the refine path");
}
