//! **World-mask** evaluation: single-pass multi-world evaluation.
//!
//! The survey's central objects — certain answers (§3.2), candidate
//! classification, and the `µ_k` support measure (§4.3) — are all
//! aggregations over the possible-worlds expansion `⟦D⟧ = { v(D) }` of an
//! incomplete database. The enumeration backend executes the physical plan
//! once *per world*; this module executes it **once in total**, by pushing
//! the quantification over worlds into the rows:
//!
//! * a row carries a fixed-width bitset recording **exactly which worlds
//!   contain it**, one bit per valuation in the lexicographic enumeration
//!   order of [`certa_data::valuation`] (the same order the world engines
//!   decode, so world indices agree);
//! * scans expand each base tuple's null-substitution classes into
//!   `(ground tuple, mask)` pairs: a tuple with `m` distinct nulls over a
//!   `k`-constant pool becomes at most `k^m` ground tuples, each carrying
//!   the *cylinder* of worlds whose valuation makes that substitution;
//! * selection keeps or drops a row (ground rows decide conditions
//!   world-independently), join/∩ AND masks, ∪ and duplicate-collapsing
//!   projection OR them, − and the extended ÷/⋉⇑ AND with complements;
//! * at the output, certainty is `mask = all worlds`, certain falsity is
//!   `mask = ∅`, and `µ_k` is `popcount(mask) / worlds` — all read off the
//!   **same single pass**.
//!
//! Unlike the lineage (knowledge-compilation) backend, mask evaluation has
//! **no fragment boundary**: syntactic `null(·)`/`const(·)` predicates,
//! null-bearing literals and the extended operators (÷, `Domᵏ`, `⋉⇑`) are
//! all exact, because every row the executor touches is already ground (or
//! carries an opaque literal null that valuations never touch — exactly the
//! per-world reading). Its cost is `plan cost × ⌈worlds/64⌉` word
//! operations instead of `plan cost × worlds` plan executions: 64 worlds
//! are decided per instruction.
//!
//! The executor is columnar: [`columnar`] stores every explicit mask of a
//! relation back to back in one arena, [`kernel`] holds the width-selected
//! word loops over those slices, and [`exec`] runs physical plans over the
//! arenas with morsel-parallel scans, probes and aggregation. Its
//! differential oracle is per-world enumeration: the tests of this module
//! and of [`exec`] rebuild every world with
//! [`certa_data::valuation::valuation_at`] and evaluate the query on it
//! with [`crate::reference::eval_set_reference`].

pub mod columnar;
pub mod exec;
pub mod fxhash;
pub mod kernel;

pub use columnar::{ColumnarContext, ColumnarRel, MaskArena, MaskRef, RowMask};
pub use exec::{ColumnarExec, ExecStats};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};

#[cfg(test)]
mod tests {
    //! The module's contract against per-world enumeration, over masks
    //! wider than one word. [`assert_matches_world_enumeration`] is the
    //! differential oracle the executor's own tests share.

    use super::*;
    use crate::expr::{Condition, RaExpr};
    use crate::morsel::MorselPool;
    use crate::physical::plan;
    use certa_data::valuation::valuation_at;
    use certa_data::{database_from_literal, tup, Const, Database, NullId, Tuple, Value};
    use std::collections::BTreeMap;

    /// Canonical form of a mask result: tuple → sorted world indices.
    type WorldSets = BTreeMap<Tuple, Vec<usize>>;

    /// Whether world `idx` is in a mask.
    fn bit(words: &[u64], idx: usize) -> bool {
        words[idx / 64] >> (idx % 64) & 1 == 1
    }

    fn columnar_world_sets(rel: &ColumnarRel, worlds: usize) -> WorldSets {
        let mut out = WorldSets::new();
        for (t, rm) in rel.rows() {
            let set: Vec<usize> = match rel.mask(*rm) {
                MaskRef::Full => (0..worlds).collect(),
                MaskRef::Words(w) => (0..worlds).filter(|&i| bit(w, i)).collect(),
            };
            if !set.is_empty() {
                out.insert(t.clone(), set);
            }
        }
        out
    }

    /// The world sets per-world enumeration produces: build every world
    /// `v(D)` in the engines' index order and evaluate the query on it with
    /// the seed reference evaluator.
    fn enumerated_world_sets(query: &RaExpr, db: &Database, ctx: &ColumnarContext) -> WorldSets {
        let mut out = WorldSets::new();
        for idx in 0..ctx.worlds() {
            let world = valuation_at(ctx.nulls(), ctx.pool(), idx).apply_database(db);
            let answers = crate::reference::eval_set_reference(query, &world).unwrap();
            for t in answers.iter() {
                out.entry(t.clone()).or_default().push(idx);
            }
        }
        out
    }

    /// Execute `query` through the columnar executor at 1, 2 and 8 workers
    /// and assert that every output row's world set is exactly the worlds
    /// whose enumerated evaluation contains it, and that the output is
    /// bit-identical across worker counts, row order included.
    pub(super) fn assert_matches_world_enumeration(query: &RaExpr, db: &Database, pool: &[i64]) {
        let ctx = ColumnarContext::new(db.nulls(), pool.iter().map(|c| Const::Int(*c))).unwrap();
        let physical = plan(query, db.schema()).unwrap();
        let expected = enumerated_world_sets(query, db, &ctx);
        let mut at_one = None;
        for workers in [1usize, 2, 8] {
            let exec = ColumnarExec::new(db, &ctx, MorselPool::new(workers));
            let rel = exec.execute(&physical).unwrap();
            let got = columnar_world_sets(&rel, ctx.worlds());
            assert_eq!(got, expected, "{query} at {workers} workers vs enumeration");
            let shape: Vec<(Tuple, RowMask)> = rel.rows().to_vec();
            match &at_one {
                None => at_one = Some(shape),
                Some(base) => assert_eq!(&shape, base, "{query}: row order at {workers} workers"),
            }
        }
    }

    /// Seven nulls: a null shared by `R` and `S`, a null repeated inside
    /// one tuple, and a tuple of two nulls. A 2-constant pool gives 128
    /// worlds (two full words), a 3-constant pool 2187 (35 words, the last
    /// one partial).
    fn db() -> Database {
        database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![
                    tup![1, Value::null(0)],
                    tup![Value::null(1), 2],
                    tup![1, 2],
                    tup![3, 1],
                    tup![Value::null(2), Value::null(2)],
                    tup![Value::null(3), Value::null(4)],
                ],
            ),
            (
                "S",
                vec!["c"],
                vec![
                    tup![2],
                    tup![Value::null(0)],
                    tup![Value::null(5)],
                    tup![Value::null(6)],
                ],
            ),
        ])
    }

    #[test]
    fn stripes_partition_the_world_space() {
        let ctx = ColumnarContext::new(0..5, (1..=3).map(Const::Int)).unwrap();
        assert_eq!((ctx.worlds(), ctx.width()), (243, 4));
        for p in 0..5 {
            let mut seen = vec![0u64; ctx.width()];
            for c in 0..3 {
                let stripe = ctx.stripe(p, c);
                assert_eq!(kernel::popcount(stripe), 81, "stripe ({p}, {c})");
                assert_eq!(
                    kernel::popcount_and(&seen, stripe),
                    0,
                    "stripes of digit {p} overlap"
                );
                kernel::or_assign(&mut seen, stripe);
            }
            // No bit at or above the world count, so the union is exactly
            // the 243 worlds.
            assert_eq!(seen[3] >> (243 - 3 * 64), 0, "tail bits of digit {p}");
            assert_eq!(
                kernel::popcount(&seen),
                243,
                "stripes of digit {p} must cover"
            );
        }
        // Digit 0 varies fastest: stripe (0, c) is the congruence class
        // idx ≡ c (mod 3), across word boundaries.
        for c in 0..3 {
            for idx in 0..243 {
                assert_eq!(
                    bit(ctx.stripe(0, c), idx),
                    idx % 3 == c,
                    "idx {idx} stripe {c}"
                );
            }
        }
    }

    #[test]
    fn expand_matches_valuation_enumeration() {
        let ctx = ColumnarContext::new(0..7, (1..=2).map(Const::Int)).unwrap();
        // A repeated null and a constant: two nulls, so four classes.
        let t = tup![Value::null(0), 7, Value::null(6), Value::null(0)];
        let mut classes: Vec<(Tuple, Vec<u64>)> = Vec::new();
        ctx.expand_for_each(&t, &mut Vec::new(), |g, m| {
            classes.push((g, m.expect("null tuple has cylinders").to_vec()));
        });
        assert_eq!(classes.len(), 4);
        // Exactly one class holds each world, and its ground tuple is the
        // tuple under that world's valuation.
        for idx in 0..ctx.worlds() {
            let expected = valuation_at(ctx.nulls(), ctx.pool(), idx).apply_tuple(&t);
            let hits: Vec<&Tuple> = classes
                .iter()
                .filter(|(_, m)| bit(m, idx))
                .map(|(g, _)| g)
                .collect();
            assert_eq!(hits, vec![&expected], "world {idx}");
        }
    }

    #[test]
    fn mask_ops_match_per_world_semantics_on_core_operators() {
        let d = db();
        let queries = vec![
            RaExpr::rel("R"),
            RaExpr::rel("R").select(Condition::eq_const(1, 2)),
            RaExpr::rel("R").select(Condition::neq_attr(0, 1)),
            RaExpr::rel("R").project(vec![0]),
            RaExpr::rel("R").product(RaExpr::rel("S")),
            RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(1, 0)], 2),
            RaExpr::rel("S").union(RaExpr::rel("R").project(vec![1])),
            RaExpr::rel("S").intersect(RaExpr::rel("R").project(vec![0])),
            RaExpr::rel("R")
                .project(vec![0])
                .difference(RaExpr::rel("S")),
        ];
        for q in queries {
            assert_matches_world_enumeration(&q, &d, &[1, 2, 3]);
        }
    }

    #[test]
    fn mask_ops_match_per_world_semantics_on_extended_operators() {
        let d = db();
        let queries = vec![
            RaExpr::rel("R").divide(RaExpr::rel("S")),
            RaExpr::rel("R")
                .project(vec![0])
                .anti_semijoin_unify(RaExpr::rel("S")),
            RaExpr::DomPower(1).difference(RaExpr::rel("S")),
            RaExpr::DomPower(2)
                .intersect(RaExpr::rel("R"))
                .project(vec![1]),
        ];
        for q in queries {
            assert_matches_world_enumeration(&q, &d, &[1, 2]);
        }
    }

    #[test]
    fn mask_handles_syntactic_null_predicates_exactly() {
        // null(·)/const(·) are outside the lineage fragment; per-world they
        // are decided on the substituted instance, which the ground mask
        // rows reproduce.
        let d = db();
        let queries = vec![
            RaExpr::rel("R").select(Condition::IsNull(1)),
            RaExpr::rel("R").select(Condition::IsConst(0)),
            RaExpr::rel("R").select(Condition::IsNull(0).or(Condition::eq_const(1, 2))),
        ];
        for q in queries {
            assert_matches_world_enumeration(&q, &d, &[1, 2, 3]);
        }
    }

    #[test]
    fn mask_handles_null_literals_as_opaque_values() {
        // A literal null is never substituted (valuations range over the
        // *database* nulls only): both per-world evaluation and the mask
        // executor treat it as an opaque value present everywhere.
        let d = db();
        let lit = RaExpr::Literal(certa_data::Relation::from_tuples(vec![
            tup![Value::null(9)],
            tup![2],
        ]));
        let queries = vec![
            RaExpr::rel("S").union(lit.clone()),
            RaExpr::rel("S").difference(lit.clone()),
            lit.clone().difference(RaExpr::rel("S")),
            RaExpr::rel("R").project(vec![1]).intersect(lit),
        ];
        for q in queries {
            assert_matches_world_enumeration(&q, &d, &[1, 2, 3]);
        }
    }

    #[test]
    fn zero_pool_yields_zero_worlds() {
        let ctx = ColumnarContext::new(db().nulls(), []).unwrap();
        assert_eq!(ctx.worlds(), 0);
        assert_eq!(ctx.width(), 0);
        let mut classes = 0;
        ctx.expand_for_each(&tup![Value::null(0)], &mut Vec::new(), |_, _| {
            classes += 1;
        });
        assert_eq!(classes, 0, "a null tuple exists in no world");
        // Full and empty coincide on zero worlds, through the counts.
        assert!(ctx.is_full(MaskRef::Full));
        assert!(ctx.is_full(MaskRef::Words(&[])));
        assert_eq!(ctx.count(MaskRef::Full), 0);
    }

    #[test]
    fn overflowing_world_counts_are_rejected() {
        let nulls: Vec<NullId> = (0..70).collect();
        assert!(ColumnarContext::new(nulls, (0..3).map(Const::Int)).is_none());
    }
}
