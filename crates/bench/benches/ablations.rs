//! Criterion ablation benches a01–a04: the unification anti-semijoin
//! implementation, active-domain product materialisation, c-table condition
//! handling, and µ estimation.
//!
//! The a05–a13 ablations are defined once, in the headless `bench_json`
//! runner (`src/bin/bench_json.rs`), which checks each workload's
//! cross-backend agreement before timing it.

use certa::certain::prob;
use certa::ctables::{Cond, Strategy};
use certa::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// a01: pairwise unification anti-semijoin versus a constant-partitioned
/// variant that first splits the right side into null-free and null-bearing
/// tuples (null-free tuples can be matched by hash lookup).
fn a01_antijoin(c: &mut Criterion) {
    let db = TpchGenerator::new(TpchConfig::scaled_to(800, 0.05, 7)).generate();
    let left = db.relation("Customer").unwrap().project(&[0]);
    let right = db.relation("Orders").unwrap().project(&[1]);
    let mut group = c.benchmark_group("a01_antijoin");
    group.bench_function("pairwise_unification", |b| {
        b.iter(|| certa::algebra::eval::anti_semijoin_unify(&left, &right))
    });
    group.bench_function("partitioned_constants_first", |b| {
        b.iter(|| {
            // Split the right side: exact (constant) matches can use set
            // membership, only null-bearing tuples need unification.
            let (with_nulls, complete): (Vec<_>, Vec<_>) =
                right.iter().cloned().partition(|t| t.has_null());
            let complete: certa::data::Relation = complete.into_iter().collect();
            left.filter(|l| {
                !complete.contains(l) && !with_nulls.iter().any(|r| certa::data::unifiable(l, r))
            })
        })
    });
    group.finish();
}

/// a02: the Dom^k product materialised eagerly versus short-circuiting
/// through the anti-semijoin without materialising Dom^k first.
fn a02_dom_product(c: &mut Criterion) {
    let db = TpchGenerator::new(TpchConfig {
        customers: 6,
        orders_per_customer: 1,
        lineitems_per_order: 1,
        parts: 4,
        suppliers: 2,
        nations: 2,
        null_rate: 0.1,
        seed: 3,
    })
    .generate();
    let mut group = c.benchmark_group("a02_dom_product");
    group.bench_function("materialise_dom_squared", |b| {
        b.iter(|| certa::algebra::eval::dom_power(&db, 2).unwrap())
    });
    group.bench_function("stream_dom_via_antisemijoin", |b| {
        b.iter(|| {
            let orders = db.relation("Orders").unwrap().project(&[0, 1]);
            let dom = certa::algebra::eval::dom_power(&db, 2).unwrap();
            certa::algebra::eval::anti_semijoin_unify(&dom, &orders)
        })
    });
    group.finish();
}

/// a03: eager grounding of c-table conditions versus exact (aware)
/// grounding of the final conditions.
fn a03_ctable_conds(c: &mut Criterion) {
    let db = TpchGenerator::new(TpchConfig {
        customers: 10,
        null_rate: 0.2,
        seed: 5,
        ..TpchConfig::default()
    })
    .generate();
    let query = TpchGenerator::queries()[1].expr.clone();
    let mut group = c.benchmark_group("a03_ctable_conds");
    group.bench_function("eager_grounding", |b| {
        b.iter(|| {
            eval_conditional(&query, &db, Strategy::Eager)
                .unwrap()
                .certain()
        })
    });
    group.bench_function("aware_exact_grounding", |b| {
        b.iter(|| {
            eval_conditional(&query, &db, Strategy::Aware)
                .unwrap()
                .certain()
        })
    });
    group.bench_function("exact_grounding_of_tautology", |b| {
        let cond =
            Cond::eq(Value::null(0), Value::int(1)).or(Cond::neq(Value::null(0), Value::int(1)));
        b.iter(|| cond.ground_exact())
    });
    group.finish();
}

/// a04: exact µ_k counting versus Monte-Carlo estimation.
fn a04_prob_estimation(c: &mut Criterion) {
    let db = database_from_literal([
        (
            "R",
            vec!["a", "b"],
            vec![
                tup![1, Value::null(0)],
                tup![2, Value::null(1)],
                tup![3, Value::null(2)],
            ],
        ),
        ("S", vec!["a"], vec![tup![1]]),
    ]);
    let query = RaExpr::rel("R")
        .project(vec![0])
        .difference(RaExpr::rel("S"));
    let mut group = c.benchmark_group("a04_prob_estimation");
    group.bench_function("exact_mu_k_12", |b| {
        b.iter(|| mu_k(&query, &db, &tup![2], 12).unwrap())
    });
    group.bench_function("monte_carlo_2000_samples", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            prob::mu_k_sampled(&query, &db, &tup![2], 12, &[], 2000, &mut rng).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    a01_antijoin,
    a02_dom_product,
    a03_ctable_conds,
    a04_prob_estimation
);
criterion_main!(benches);
