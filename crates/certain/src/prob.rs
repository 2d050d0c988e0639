//! Approximation with probabilistic guarantees (§4.3).
//!
//! Given a query `Q`, database `D` and candidate tuple `ā`, the *support*
//! `Supp(Q, D, ā)` is the set of valuations witnessing `v(ā) ∈ Q(v(D))`.
//! Restricting valuations to ranges inside the first `k` constants of an
//! enumeration of `Const` gives the measure
//!
//! ```text
//! µ_k(Q, D, ā) = |Supp_k(Q, D, ā)| / |V_k(D)| ,
//! ```
//!
//! whose limit `µ(Q, D, ā)` as `k → ∞` obeys a 0–1 law for generic queries
//! (Theorem 4.10): it is 1 exactly when `ā ∈ Qⁿᵃⁱᵛᵉ(D)` and 0 otherwise.
//! With constraints `Σ`, the conditional measure `µ(Q | Σ, D, ā)` always
//! converges to a rational number, and every rational in `[0, 1]` is
//! attainable (Theorem 4.11).
//!
//! This module provides exact computation of `µ_k` (and its conditional
//! variant) by enumeration, Monte-Carlo estimation for larger `k`, the
//! 0–1-law shortcut via naïve evaluation, and the reduction of functional-
//! dependency conditioning to the chase.

use crate::constraints::{all_satisfied, chase_fds, Constraint, FunctionalDependency};
use crate::worlds::{WorldEngine, WorldSpec};
use crate::Result;
use certa_algebra::{naive_eval, PreparedQuery, RaExpr};
use certa_data::{Const, Database, Tuple};
use rand::prelude::*;
use std::collections::BTreeSet;

/// An exact fraction `numerator / denominator` (with the convention
/// 0/0 = 0, used when no valuation satisfies the constraints).
///
/// Counts are `u128`: the enumeration backends are bounded far below
/// `usize`, but the lineage backend counts valuation spaces like
/// `4^40 ≈ 2^80` exactly — well past the old `usize` fields (which would
/// have overflowed at `2^64`, mirroring the world-count overflow the
/// `TooManyWorlds` fix addressed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fraction {
    /// Number of valuations in the support.
    pub numerator: u128,
    /// Total number of valuations considered.
    pub denominator: u128,
}

impl Fraction {
    /// The fraction as a floating-point value (0.0 when the denominator is 0).
    pub fn as_f64(self) -> f64 {
        if self.denominator == 0 {
            0.0
        } else {
            self.numerator as f64 / self.denominator as f64
        }
    }

    /// Exact equality with `p / q` after cross-multiplication. Both sides
    /// are gcd-reduced first so the products stay in range even for the
    /// `2^80`-scale counts the lineage backend produces; should a reduced
    /// cross-product still overflow, lowest-terms equality decides.
    pub fn equals_ratio(self, p: u128, q: u128) -> bool {
        fn gcd(a: u128, b: u128) -> u128 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let g1 = gcd(self.numerator, self.denominator).max(1);
        let g2 = gcd(p, q).max(1);
        let (n, d) = (self.numerator / g1, self.denominator / g1);
        let (p, q) = (p / g2, q / g2);
        match (n.checked_mul(q), p.checked_mul(d)) {
            (Some(a), Some(b)) => a == b,
            // Coprime pairs this large can only be cross-multiplication
            // equal if they are the same pair.
            _ => (n, d) == (p, q),
        }
    }
}

/// The first `k` constants of the canonical enumeration of `Const` used by
/// this crate: the constants of the database and the query (in their natural
/// order) followed by fresh constants. This matches the paper's requirement
/// that, for generic queries, the limit does not depend on the enumeration
/// once the first `k` elements contain the constants of `Q` and `D`.
pub fn canonical_pool(query: &RaExpr, db: &Database, k: usize) -> Vec<Const> {
    let mut base: Vec<Const> = {
        let mut s: BTreeSet<Const> = db.consts();
        s.extend(query.consts());
        s.into_iter().collect()
    };
    let mut fresh = 0usize;
    while base.len() < k {
        base.push(Const::str(format!("§c{fresh}")));
        fresh += 1;
    }
    base.truncate(k);
    base
}

/// Exact `µ_k(Q, D, ā)`: the fraction of valuations with range in the first
/// `k` constants that witness `ā` being an answer.
///
/// The query is optimised (null-aware, with instance statistics) and
/// prepared once, and each valuation is evaluated zero-copy through a
/// [`certa_algebra::ValuationSource`], with the valuation space chunked
/// across worker threads — no possible world is materialised.
///
/// # Errors
///
/// Returns an error if the query is ill-formed or the number of valuations
/// exceeds the default world bound.
pub fn mu_k(query: &RaExpr, db: &Database, tuple: &Tuple, k: usize) -> Result<Fraction> {
    let spec = WorldSpec::new(canonical_pool(query, db, k));
    let batch = crate::cert::WorldBatch::compile(query, db)?;
    let engine = WorldEngine::new(db, &spec)?;
    let counts = engine.map_reduce(
        |v| {
            let answer = batch.answer(v)?;
            Ok((usize::from(answer.contains(&v.apply_tuple(tuple))), 1usize))
        },
        |(n1, d1), (n2, d2)| (n1 + n2, d1 + d2),
        |_| false,
    )?;
    let (numerator, denominator) = counts.unwrap_or((0, 0));
    Ok(Fraction {
        numerator: numerator as u128,
        denominator: denominator as u128,
    })
}

/// Exact `µ_k(Q, D, ā)` by the **world-mask backend**: one plan execution
/// annotates every answer tuple with the bitset of worlds containing it,
/// and the support size is a popcount over the candidate's substitution
/// cylinders — same numerator and denominator as [`mu_k`], without
/// enumerating a single world. Unlike [`mu_k_lineage`] this covers the
/// full operator language (extended operators, syntactic predicates, null
/// literals); unlike enumeration its per-world cost is one *bit*.
///
/// Held to exact agreement with both by
/// `tests/property_mask_agreement.rs`.
///
/// # Errors
///
/// Returns an error if the query is ill-formed or the number of valuations
/// exceeds the default world bound.
pub fn mu_k_mask(query: &RaExpr, db: &Database, tuple: &Tuple, k: usize) -> Result<Fraction> {
    let spec = WorldSpec::new(canonical_pool(query, db, k));
    let batch = crate::mask::MaskBatch::compile(query, db, &spec)?;
    let (numerator, denominator) = batch.mu_counts(tuple);
    Ok(Fraction {
        numerator,
        denominator,
    })
}

/// Exact `µ_k(Q, D, ā)` by **knowledge compilation**: the candidate's
/// lineage condition is compiled into a decision diagram over the
/// canonical `k`-pool encoding and the support size is an exact model
/// count — no valuation is enumerated, so `k^|Null(D)|` may exceed any
/// enumeration bound (the count itself is exact in `u128`).
///
/// Held to exact numerator/denominator agreement with [`mu_k`] by
/// `tests/property_lineage_agreement.rs` wherever both are feasible.
///
/// # Errors
///
/// Returns [`crate::CertainError::Lineage`] when the query lies outside
/// the symbolic fragment or a count exceeds `u128`.
pub fn mu_k_lineage(query: &RaExpr, db: &Database, tuple: &Tuple, k: usize) -> Result<Fraction> {
    let pool = canonical_pool(query, db, k);
    let mut batch = certa_lineage::LineageBatch::compile(query, db, &pool)?;
    let (numerator, denominator) = batch.mu_counts(tuple).map_err(crate::CertainError::from)?;
    Ok(Fraction {
        numerator,
        denominator,
    })
}

/// The limit `µ(Q, D, ā)` read off the **symbolic lineage**: by the 0–1
/// law the limit is 1 exactly when the candidate's lineage holds under a
/// generic (bijective fresh) valuation of the nulls — which this evaluates
/// directly on the compiled rows, without the naïve-evaluation detour of
/// [`mu_limit`]. The two agree on generic queries.
///
/// # Errors
///
/// As [`mu_k_lineage`].
pub fn mu_limit_lineage(query: &RaExpr, db: &Database, tuple: &Tuple) -> Result<f64> {
    // The generic valuation never consults the pool encoding, so the
    // rows-only compilation skips diagram construction entirely.
    let batch = certa_lineage::LineageBatch::compile_rows_only(query, db)?;
    Ok(if batch.generic_membership(tuple) {
        1.0
    } else {
        0.0
    })
}

/// Exact conditional `µ_k(Q | Σ, D, ā)` where the condition is an arbitrary
/// predicate on possible worlds (use [`mu_k_with_constraints`] for the
/// common case of dependency sets).
///
/// The query is prepared once and valuations are checked in parallel; each
/// world **is** materialised here, because the `sigma` predicate inspects
/// the complete instance — use [`mu_k`] for the unconditional,
/// zero-materialisation path.
///
/// # Errors
///
/// As [`mu_k`].
pub fn mu_k_conditional(
    query: &RaExpr,
    db: &Database,
    tuple: &Tuple,
    k: usize,
    sigma: impl Fn(&Database) -> bool + Sync,
) -> Result<Fraction> {
    let spec = WorldSpec::new(canonical_pool(query, db, k));
    let stats = certa_algebra::Stats::from_database(db);
    let prepared = PreparedQuery::prepare_optimized_with(query, db.schema(), &stats)?;
    let engine = WorldEngine::new(db, &spec)?;
    let counts = engine.map_reduce(
        |v| {
            let world = v.apply_database(db);
            if !sigma(&world) {
                return Ok((0usize, 0usize));
            }
            let answer = prepared.eval_set(&world)?;
            Ok((usize::from(answer.contains(&v.apply_tuple(tuple))), 1usize))
        },
        |(n1, d1), (n2, d2)| (n1 + n2, d1 + d2),
        |_| false,
    )?;
    let (numerator, denominator) = counts.unwrap_or((0, 0));
    Ok(Fraction {
        numerator: numerator as u128,
        denominator: denominator as u128,
    })
}

/// Exact conditional `µ_k(Q | Σ, D, ā)` for a set of constraints.
///
/// # Errors
///
/// As [`mu_k`].
pub fn mu_k_with_constraints(
    query: &RaExpr,
    db: &Database,
    tuple: &Tuple,
    k: usize,
    constraints: &[Constraint],
) -> Result<Fraction> {
    mu_k_conditional(query, db, tuple, k, |world| {
        all_satisfied(constraints, world)
    })
}

/// Monte-Carlo estimate of `µ_k(Q | Σ, D, ā)` using `samples` random
/// valuations (valuations that fail the constraints are rejected and do not
/// count towards the denominator). At `k = 0` a database with a null has no
/// valuation to sample, and the estimate is 0/0, as [`mu_k`] reports.
///
/// # Errors
///
/// Returns an error if the query is ill-formed.
pub fn mu_k_sampled(
    query: &RaExpr,
    db: &Database,
    tuple: &Tuple,
    k: usize,
    constraints: &[Constraint],
    samples: usize,
    rng: &mut impl Rng,
) -> Result<Fraction> {
    let batch = crate::cert::WorldBatch::compile(query, db)?;
    let pool = canonical_pool(query, db, k);
    let nulls: Vec<_> = db.nulls().into_iter().collect();
    if pool.is_empty() && !nulls.is_empty() {
        return Ok(Fraction {
            numerator: 0,
            denominator: 0,
        });
    }
    let mut numerator = 0usize;
    let mut denominator = 0usize;
    for _ in 0..samples {
        let mut v = certa_data::Valuation::new();
        for n in &nulls {
            v.assign(*n, pool[rng.gen_range(0..pool.len())].clone());
        }
        if !constraints.is_empty() {
            // Constraint checking inspects the complete instance.
            let world = v.apply_database(db);
            if !all_satisfied(constraints, &world) {
                continue;
            }
        }
        denominator += 1;
        if batch.answer(&v)?.contains(&v.apply_tuple(tuple)) {
            numerator += 1;
        }
    }
    Ok(Fraction {
        numerator: numerator as u128,
        denominator: denominator as u128,
    })
}

/// The fraction of the support at `k`, as a float — shorthand used by the
/// benches and examples.
///
/// # Errors
///
/// As [`mu_k`].
pub fn support_fraction(query: &RaExpr, db: &Database, tuple: &Tuple, k: usize) -> Result<f64> {
    Ok(mu_k(query, db, tuple, k)?.as_f64())
}

/// The 0–1 law of Theorem 4.10: `µ(Q, D, ā) = 1` iff `ā ∈ Qⁿᵃⁱᵛᵉ(D)`, and 0
/// otherwise. This computes the limit without any enumeration.
///
/// # Errors
///
/// Returns an error if the query is ill-formed.
pub fn almost_certainly_true(query: &RaExpr, db: &Database, tuple: &Tuple) -> Result<bool> {
    Ok(naive_eval(query, db)?.contains(tuple))
}

/// The limit `µ(Q, D, ā)` via the 0–1 law (1.0 or 0.0).
///
/// # Errors
///
/// As [`almost_certainly_true`].
pub fn mu_limit(query: &RaExpr, db: &Database, tuple: &Tuple) -> Result<f64> {
    Ok(if almost_certainly_true(query, db, tuple)? {
        1.0
    } else {
        0.0
    })
}

/// Conditional limit for functional-dependency-only constraint sets, via the
/// reduction of §4.3: `µ(Q | Σ, D, ā) = µ(Q, DΣ, ā)` where `DΣ` is the chase
/// of `D` with `Σ`. Returns 0 when the chase fails (no possible world
/// satisfies the dependencies).
///
/// # Errors
///
/// As [`almost_certainly_true`].
pub fn mu_limit_with_fds(
    query: &RaExpr,
    db: &Database,
    tuple: &Tuple,
    fds: &[FunctionalDependency],
) -> Result<f64> {
    match chase_fds(db, fds) {
        None => Ok(0.0),
        Some(chased) => {
            // The chase may have replaced nulls in the candidate tuple too.
            let mapped = tuple.clone();
            mu_limit(query, &chased, &mapped)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::InclusionDependency;
    use certa_algebra::Condition;
    use certa_data::{database_from_literal, tup, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diff_db() -> Database {
        // R = {1}, S = {⊥}: the running example of §4.3.
        database_from_literal([
            ("R", vec!["a"], vec![tup![1]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ])
    }

    #[test]
    fn mu_k_for_difference_example() {
        // µ_k(R − S, D, (1)) = (k−1)/k: the answer is 1 unless ⊥ = 1.
        let d = diff_db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        for k in [1usize, 2, 5, 10] {
            let frac = mu_k(&q, &d, &tup![1], k).unwrap();
            assert_eq!(frac.denominator, k as u128);
            assert_eq!(frac.numerator, (k - 1) as u128);
        }
        // The limit is 1: (1) is an almost certainly true answer.
        assert!(almost_certainly_true(&q, &d, &tup![1]).unwrap());
        assert_eq!(mu_limit(&q, &d, &tup![1]).unwrap(), 1.0);
        // ... but it is not a certain answer (contrast with §4.2).
        assert!(!crate::cert::is_certain_answer(&q, &d, &tup![1]).unwrap());
    }

    #[test]
    fn zero_one_law_both_directions() {
        let d = diff_db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        // A tuple not in the naive answer has µ → 0; here (2) is never an
        // answer (2 ∉ R), so even µ_k is 0.
        assert!(!almost_certainly_true(&q, &d, &tup![2]).unwrap());
        let frac = mu_k(&q, &d, &tup![2], 4).unwrap();
        assert_eq!(frac.numerator, 0);
        // The null tuple ⊥ is not in the naive answer of R − S either.
        assert!(!almost_certainly_true(&q, &d, &tup![Value::null(0)]).unwrap());
    }

    #[test]
    fn conditional_probability_is_one_half() {
        // T = {1, 2}, S = {⊥}, Σ: S ⊆ T. Then µ(T − S | Σ, D, (1)) = 1/2.
        let d = database_from_literal([
            ("T", vec!["a"], vec![tup![1], tup![2]]),
            ("S", vec!["a"], vec![tup![Value::null(0)]]),
        ]);
        let q = RaExpr::rel("T").difference(RaExpr::rel("S"));
        let sigma = vec![Constraint::Ind(InclusionDependency::new(
            "S",
            vec![0],
            "T",
            vec![0],
        ))];
        for k in [2usize, 4, 8] {
            let frac = mu_k_with_constraints(&q, &d, &tup![1], k, &sigma).unwrap();
            assert_eq!(frac.denominator, 2, "k = {k}");
            assert_eq!(frac.numerator, 1, "k = {k}");
            assert!(frac.equals_ratio(1, 2));
        }
    }

    #[test]
    fn conditional_with_unsatisfiable_constraints_is_zero() {
        let d = database_from_literal([
            ("T", vec!["a"], vec![tup![1]]),
            ("S", vec!["a"], vec![tup![2]]),
        ]);
        let q = RaExpr::rel("T");
        let sigma = vec![Constraint::Ind(InclusionDependency::new(
            "S",
            vec![0],
            "T",
            vec![0],
        ))];
        let frac = mu_k_with_constraints(&q, &d, &tup![1], 3, &sigma).unwrap();
        assert_eq!(frac.denominator, 0);
        assert_eq!(frac.as_f64(), 0.0);
    }

    #[test]
    fn sampled_estimate_is_close_to_exact() {
        let d = diff_db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        let mut rng = StdRng::seed_from_u64(42);
        let exact = mu_k(&q, &d, &tup![1], 10).unwrap().as_f64();
        let sampled = mu_k_sampled(&q, &d, &tup![1], 10, &[], 2000, &mut rng)
            .unwrap()
            .as_f64();
        assert!(
            (exact - sampled).abs() < 0.05,
            "exact {exact} vs sampled {sampled}"
        );
    }

    #[test]
    fn sampled_at_k_zero_matches_exact() {
        // With k = 0 there are no constants to draw from, so a database
        // with a null has no valuations: both give 0/0.
        let d = database_from_literal([("R", vec!["a"], vec![tup![1], tup![Value::null(0)]])]);
        let q = RaExpr::rel("R");
        let mut rng = StdRng::seed_from_u64(7);
        let exact = mu_k(&q, &d, &tup![1], 0).unwrap();
        let sampled = mu_k_sampled(&q, &d, &tup![1], 0, &[], 100, &mut rng).unwrap();
        assert_eq!(sampled, exact);
        assert_eq!(exact.denominator, 0);
    }

    #[test]
    fn fd_conditioning_via_chase() {
        // R(1, ⊥0), R(1, 5); FD a → b forces ⊥0 = 5, so the probability that
        // (1, 5) is an answer to R given the FD is 1.
        let d = database_from_literal([(
            "R",
            vec!["a", "b"],
            vec![tup![1, Value::null(0)], tup![1, 5]],
        )]);
        let q = RaExpr::rel("R");
        let fd = FunctionalDependency::new("R", vec![0], vec![1]);
        assert_eq!(
            mu_limit_with_fds(&q, &d, &tup![1, 5], std::slice::from_ref(&fd)).unwrap(),
            1.0
        );
        // Unconditionally, (1, 5) is certain too (it is literally in R), so
        // compare with a tuple that is only certain under the FD.
        let frac =
            mu_k_with_constraints(&q, &d, &tup![1, Value::null(0)], 4, &[Constraint::Fd(fd)])
                .unwrap();
        assert_eq!(frac.as_f64(), 1.0);
    }

    #[test]
    fn chase_failure_gives_zero() {
        let d = database_from_literal([("R", vec!["a", "b"], vec![tup![1, 2], tup![1, 3]])]);
        let q = RaExpr::rel("R");
        let fd = FunctionalDependency::new("R", vec![0], vec![1]);
        assert_eq!(mu_limit_with_fds(&q, &d, &tup![1, 2], &[fd]).unwrap(), 0.0);
    }

    #[test]
    fn lineage_mu_matches_enumeration() {
        let d = diff_db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        for k in [1usize, 2, 5, 10] {
            let by_worlds = mu_k(&q, &d, &tup![1], k).unwrap();
            let by_lineage = mu_k_lineage(&q, &d, &tup![1], k).unwrap();
            assert_eq!(by_worlds, by_lineage, "k = {k}");
        }
        assert_eq!(mu_limit_lineage(&q, &d, &tup![1]).unwrap(), 1.0);
        assert_eq!(mu_limit_lineage(&q, &d, &tup![2]).unwrap(), 0.0);
        assert_eq!(
            mu_limit_lineage(&q, &d, &tup![1]).unwrap(),
            mu_limit(&q, &d, &tup![1]).unwrap()
        );
    }

    #[test]
    fn lineage_mu_counts_cross_the_old_usize_limit_exactly() {
        use certa_data::Tuple;
        // Regression for the u128 Fraction fields: 32 nulls over the
        // canonical 4-pool give exactly 2^64 valuations — one past
        // usize::MAX, where the old usize counts would have overflowed
        // (the world-count sibling of PR 2's TooManyWorlds fix) — and 40
        // nulls give 2^80. Both count exactly.
        for (nulls, expected) in [(32u32, 1u128 << 64), (40, 1u128 << 80)] {
            let rows: Vec<Tuple> = (0..nulls).map(|i| tup![Value::null(i)]).collect();
            let d = database_from_literal([("R", vec!["a"], rows)]);
            let q = RaExpr::rel("R");
            let frac = mu_k_lineage(&q, &d, &tup![Value::null(0)], 4).unwrap();
            assert_eq!(frac.denominator, expected);
            // The null candidate is its own witness in every valuation.
            assert_eq!(frac.numerator, expected);
            assert_eq!(frac.as_f64(), 1.0);
            // Ratio comparison must survive cross-products that would
            // overflow u128 (2^80 · 2^80).
            assert!(frac.equals_ratio(frac.numerator, frac.denominator));
            assert!(frac.equals_ratio(1, 1));
            assert!(!frac.equals_ratio(1, 2));
            // Enumeration cannot even start at these world counts.
            assert!(matches!(
                mu_k(&q, &d, &tup![Value::null(0)], 4),
                Err(crate::CertainError::TooManyWorlds { .. })
            ));
        }
    }

    #[test]
    fn canonical_pool_grows_with_k_and_contains_query_constants() {
        let d = diff_db();
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 77));
        let pool = canonical_pool(&q, &d, 5);
        assert_eq!(pool.len(), 5);
        assert!(pool.contains(&Const::Int(1)));
        assert!(pool.contains(&Const::Int(77)));
        // Truncation keeps the database/query constants first.
        let small = canonical_pool(&q, &d, 2);
        assert_eq!(small.len(), 2);
    }

    #[test]
    fn complete_database_mu_is_membership() {
        let d = database_from_literal([("R", vec!["a"], vec![tup![1]])]);
        let q = RaExpr::rel("R");
        assert_eq!(mu_k(&q, &d, &tup![1], 3).unwrap().as_f64(), 1.0);
        assert_eq!(mu_k(&q, &d, &tup![2], 3).unwrap().as_f64(), 0.0);
    }
}
