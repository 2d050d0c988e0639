//! SQL to certain answers, end to end, through `certa::Pipeline`.
//!
//! Runs the introduction's unpaid-orders query over the Figure 1 shop
//! database (with its NULL perturbation) under every evaluation scheme the
//! pipeline offers, showing how each labels the answers, how the compiled
//! plan is reused across requests, and — via `Pipeline::explain` — what the
//! null-aware optimizer rewrote and which exact backend answers the query.
//!
//! Run with: `cargo run --example sql_certain_pipeline`

use certa::ctables::Strategy;
use certa::prelude::*;

fn print_answers(scheme: &str, answers: &LabeledAnswers) {
    println!("  [{scheme}] columns: {:?}", answers.columns);
    if answers.rows.is_empty() {
        println!("    (no answers)");
    }
    for (tuple, label) in &answers.rows {
        println!("    {tuple}  —  {label:?}");
    }
}

fn main() {
    // The Figure 1 database: one payment's order id is unknown (⊥).
    let db = shop_database(true);
    println!("database:\n{db}\n");

    let sql = "SELECT oid FROM Orders WHERE oid NOT IN (SELECT oid FROM Payments)";
    println!("query: {sql}\n");

    let mut pipeline = Pipeline::new();

    // What the optimizer did with the query, and which exact backend
    // answers it on this database, and why.
    let explain = pipeline.explain(sql, &db).expect("explain");
    println!("{explain}\n");

    // Plain evaluation treats the null as a value: o2 and o3 look unpaid.
    let naive = pipeline.query(sql, &db).expect("plain evaluation");
    println!("plain (nulls as values): {naive}\n");

    // Exact certain answers, from the backend `explain` named above.
    let exact = pipeline
        .execute(sql, &db, Scheme::Exact)
        .expect("exact scheme");
    print_answers("exact", &exact);

    // The (Q+, Q?) approximation: same certain answers, no enumeration.
    let approx = pipeline
        .execute(sql, &db, Scheme::Approx37)
        .expect("approx scheme");
    print_answers("approx37 (Q+, Q?)", &approx);

    // Conditional tables with eager grounding.
    let ctable = pipeline
        .execute(sql, &db, Scheme::CTable(Strategy::Eager))
        .expect("c-table scheme");
    print_answers("c-table (eager)", &ctable);

    // The (Qt, Qf) scheme labels certainly-false tuples instead.
    let qtqf = pipeline
        .execute(sql, &db, Scheme::Approx51)
        .expect("(Qt, Qf) scheme");
    print_answers("approx51 (Qt, Qf)", &qtqf);

    let (hits, misses) = pipeline.cache_stats();
    println!(
        "\nplan cache: {} compiled plan(s), {hits} hit(s), {misses} miss(es)",
        pipeline.cached_plans()
    );

    // No order is certainly unpaid — but o2 and o3 are possibly unpaid,
    // and every scheme agrees on that.
    assert!(exact.certain().is_empty());
    assert_eq!(exact.possible(), approx.possible());
    assert_eq!(approx.possible(), ctable.possible());
}
