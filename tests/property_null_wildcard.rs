//! Differential tests for the kernels that keep `(Q+, Q?)` and c-table
//! requests free of quadratic work:
//!
//! * **null-wildcard hash joins** — `Q?` turns an equi-join `a = b` into
//!   `a = b ∨ null(a) ∨ null(b)`; the planner hashes on it instead of
//!   building the product. On null-heavy instances the compiled pair must
//!   hold no `Product` and agree with the seed interpreter run on the
//!   unoptimized translations;
//! * **the partitioned conditional difference** — its output conditions
//!   must be `==` to a nested loop over every right row, on the c-tables
//!   each strategy feeds into a difference;
//! * **witness-free unification** — `unifiable` must agree with the
//!   witness-building `unify` on seeded pairs with repeated nulls and nulls
//!   shared across the two tuples.

use certa::algebra::physical::{AnnRel, Annotation};
use certa::algebra::reference::eval_set_reference;
use certa::certain::approx37;
use certa::ctables::{Cond, CondAnn};
use certa::data::{unifiable, unify};
use certa::prelude::*;
use rand::prelude::*;

const CASES: u64 = 150;

fn gen_value(rng: &mut StdRng, null_rate: f64) -> Value {
    if rng.gen_bool(null_rate) {
        Value::null(rng.gen_range(0u32..5))
    } else {
        Value::int(rng.gen_range(0i64..4))
    }
}

fn gen_tuples(rng: &mut StdRng, arity: usize, max: usize) -> Vec<Tuple> {
    (0..rng.gen_range(0..=max))
        .map(|_| Tuple::new((0..arity).map(|_| gen_value(rng, 0.4))))
        .collect()
}

/// `R(a, b)`, `S(c, d)`, `T(e)`, with two in five values null.
fn gen_database(rng: &mut StdRng) -> Database {
    database_from_literal([
        ("R", vec!["a", "b"], gen_tuples(rng, 2, 7)),
        ("S", vec!["c", "d"], gen_tuples(rng, 2, 7)),
        ("T", vec!["e"], gen_tuples(rng, 1, 5)),
    ])
}

/// A query whose every product is an equi-join: two- and three-way joins,
/// two-key joins, selections, projections and a difference over a join.
fn gen_join_query(rng: &mut StdRng) -> RaExpr {
    let rs = RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(1, 0)], 2);
    let mut q = match rng.gen_range(0u32..4) {
        0 => rs,
        1 => rs.join_on(RaExpr::rel("T"), &[(3, 0)], 4),
        2 => RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(0, 0), (1, 1)], 2),
        _ => RaExpr::rel("T").join_on(rs.project(vec![0, 3]), &[(0, 1)], 1),
    };
    if rng.gen_bool(0.4) {
        q = q.select(Condition::neq_const(0, rng.gen_range(0i64..4)));
    }
    if rng.gen_bool(0.5) {
        q = q.project(vec![0]);
        if rng.gen_bool(0.5) {
            q = q.difference(RaExpr::rel("T"));
        }
    }
    q
}

#[test]
fn approximation_pair_hash_joins_and_agrees_with_the_seed_interpreter() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        let query = gen_join_query(&mut rng);
        let pair = approx37::translate(&query, db.schema()).unwrap();
        let prepared = pair.prepare(db.schema()).unwrap();
        for (name, plan) in [
            ("Q+", prepared.q_plus.plan()),
            ("Q?", prepared.q_question.plan()),
        ] {
            let rendered = plan.to_string();
            assert!(
                rendered.contains("HashJoin") && !rendered.contains("Product"),
                "seed {seed}: the {name} plan of {query} must hash-join, not build a product:\n{rendered}"
            );
        }
        let (plus, question) = prepared.eval(&db).unwrap();
        assert_eq!(
            plus,
            eval_set_reference(&pair.q_plus, &db).unwrap(),
            "seed {seed}: Q+ of {query} on {db}"
        );
        assert_eq!(
            question,
            eval_set_reference(&pair.q_question, &db).unwrap(),
            "seed {seed}: Q? of {query} on {db}"
        );
    }
}

/// The conditional difference as a nested loop over every right row.
fn nested_loop_difference(left: &AnnRel<CondAnn>, right: &AnnRel<CondAnn>) -> AnnRel<CondAnn> {
    let mut out = AnnRel::new(left.arity());
    for (t, CondAnn(a)) in left.rows() {
        let mut cond = a.clone();
        for (s, CondAnn(b)) in right.rows() {
            if !unifiable(t, s) {
                continue;
            }
            let matched = b.clone().and(Cond::tuple_eq(t, s));
            if matched == Cond::Truth(Truth3::False) {
                continue;
            }
            cond = cond.and(matched.not());
        }
        out.push(t.clone(), CondAnn(cond));
    }
    out
}

fn ann_rel(result: &certa::ctables::ConditionalResult) -> AnnRel<CondAnn> {
    let mut rel = AnnRel::new(result.table().arity());
    for ct in result.table().iter() {
        rel.push(ct.tuple.clone(), CondAnn(ct.cond.clone()));
    }
    rel
}

#[test]
fn conditional_difference_matches_the_nested_loop_under_every_strategy() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = gen_database(&mut rng);
        // Operands whose rows repeat tuples and carry `t`, ground and
        // symbolic conditions, depending on the strategy.
        let left = match rng.gen_range(0u32..3) {
            0 => RaExpr::rel("R").project(vec![1]),
            1 => RaExpr::rel("T"),
            _ => RaExpr::rel("S")
                .select(Condition::neq_const(1, rng.gen_range(0i64..4)))
                .project(vec![0]),
        };
        let right = match rng.gen_range(0u32..3) {
            0 => RaExpr::rel("S").project(vec![0]),
            1 => RaExpr::rel("R")
                .join_on(RaExpr::rel("T"), &[(0, 0)], 2)
                .project(vec![1]),
            _ => RaExpr::rel("T").union(RaExpr::rel("R").project(vec![0])),
        };
        for strategy in Strategy::ALL {
            let l = ann_rel(&eval_conditional(&left, &db, strategy).unwrap());
            let r = ann_rel(&eval_conditional(&right, &db, strategy).unwrap());
            let expected = nested_loop_difference(&l, &r);
            let got = CondAnn::difference(l, &r);
            assert_eq!(
                got.rows(),
                expected.rows(),
                "seed {seed} {strategy:?}: {left} − {right} on {db}"
            );
        }
    }
}

#[test]
fn witness_free_unifiable_agrees_with_unify() {
    let mut rng = StdRng::seed_from_u64(0x0F1F_2F3F);
    let mut unified = 0usize;
    let pairs = 12_000;
    for case in 0..pairs {
        let arity = rng.gen_range(1usize..5);
        // Few null ids and few constants: repeated nulls inside a tuple and
        // nulls shared by both tuples are common.
        let gen = |rng: &mut StdRng| Tuple::new((0..arity).map(|_| gen_value(rng, 0.5)));
        let r = gen(&mut rng);
        let s = if rng.gen_bool(0.1) {
            Tuple::new((0..arity + 1).map(|_| gen_value(&mut rng, 0.5)))
        } else {
            gen(&mut rng)
        };
        let witness = unify(&r, &s);
        assert_eq!(
            unifiable(&r, &s),
            witness.is_some(),
            "case {case}: {r} ⇑ {s}"
        );
        assert_eq!(
            unifiable(&r, &s),
            unifiable(&s, &r),
            "case {case}: symmetry"
        );
        if let Some(v) = witness {
            assert_eq!(v.apply_tuple(&r), v.apply_tuple(&s), "case {case}: witness");
            unified += 1;
        }
    }
    assert!(
        unified > pairs / 10 && unified < pairs * 9 / 10,
        "the generator must produce both outcomes often ({unified} of {pairs} unified)"
    );
}
