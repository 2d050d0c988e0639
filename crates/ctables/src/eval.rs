//! Conditional evaluation of relational algebra on c-tables, and the four
//! approximation strategies of Greco et al. (§4.2, Theorem 4.9).
//!
//! Since the physical-engine refactor, conditional evaluation is the third
//! instantiation of `certa_algebra`'s annotation-generic pipeline: the
//! annotation domain is [`CondAnn`] (a c-table local condition), `times` is
//! condition conjunction, selection instantiates the algebraic condition
//! symbolically, and difference/intersection override the engine defaults
//! with symbolic matching (unification-filtered for difference). The four
//! grounding strategies
//! plug in as the engine's per-operator *hook*: eager and semi-eager ground
//! after every operator, lazy after differences only, aware not at all.
//!
//! Join keys made of constants take the same hash path as set/bag
//! evaluation (a constant key either matches syntactically — condition
//! `t` — or cannot match — condition `f`); only rows whose key involves a
//! marked null fall back to symbolic pairing, which is what
//! [`CondAnn`]'s `SYMBOLIC_NULLS` flag requests.
//!
//! The seed's recursive evaluator is kept as
//! [`eval_conditional_reference`], the oracle the property tests compare
//! against.

use crate::cond::Cond;
use crate::ctable::{CDatabase, CTable, CTuple};
use crate::{CtError, Result};
use certa_algebra::physical::{self, AnnRel, Annotation, OpKind, Source};
use certa_algebra::{Condition, Operand, RaExpr};
use certa_data::{Database, Relation, Tuple, Value};
use certa_logic::Truth3;
use std::collections::HashMap;

/// The four evaluation strategies (§4.2): they differ in *when* conditions
/// are grounded and whether forced equalities are propagated into tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Ground conditions immediately after each operator.
    Eager,
    /// Like eager, but first propagate forced equalities into the tuple.
    SemiEager,
    /// Propagate and ground only on the result of each difference operator.
    Lazy,
    /// Postpone everything to the very end, then ground exactly
    /// (on a minimal rewriting of the conditions).
    Aware,
}

impl Strategy {
    /// All four strategies, in the paper's order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Eager,
        Strategy::SemiEager,
        Strategy::Lazy,
        Strategy::Aware,
    ];

    /// The superscript used in the paper (`e`, `s`, `ℓ`, `a`).
    pub fn symbol(self) -> &'static str {
        match self {
            Strategy::Eager => "e",
            Strategy::SemiEager => "s",
            Strategy::Lazy => "ℓ",
            Strategy::Aware => "a",
        }
    }

    /// The grounding function this strategy uses when extracting answers.
    ///
    /// The condition is first canonicalized with [`Cond::simplify`] — every
    /// simplification rule is a lattice identity in both the Kleene and the
    /// exact two-valued semantics, so the verdict is unchanged, but the
    /// lazy/aware strategies (which reach answer extraction with large
    /// symbolic conditions) ground a much smaller formula; in particular
    /// the aware strategy's exact grounding enumerates valuations only for
    /// the nulls that survive folding.
    fn final_ground(self, cond: &Cond) -> Truth3 {
        let cond = cond.simplify();
        match self {
            Strategy::Aware => cond.ground_exact(),
            _ => cond.ground_eager(),
        }
    }
}

/// The c-table annotation: a local condition. `times` is conjunction (the
/// product rule), `plus` is disjunction, zero is the ground-false condition,
/// and selection conjoins the symbolically instantiated algebra condition.
///
/// This is the third [`Annotation`] instance of the shared physical engine,
/// next to `SetAnn` (§4, presence) and `BagAnn` (§5, multiplicity); it
/// implements the conditional evaluation of §3/§4.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondAnn(pub Cond);

impl Annotation for CondAnn {
    // Two c-tuples with the same tuple but different conditions are distinct
    // information: never merge rows.
    const MERGE_DUPLICATES: bool = false;
    // A null in a join key may *symbolically* equal other values; such rows
    // must bypass the syntactic hash path.
    const SYMBOLIC_NULLS: bool = true;
    // ÷, Dom^k and ⋉⇑ are support-based; they have no conditional reading.
    const SUPPORTS_EXTENDED: bool = false;

    fn one() -> Self {
        CondAnn(Cond::truth())
    }

    fn is_zero(&self) -> bool {
        self.0 == Cond::Truth(Truth3::False)
    }

    fn plus(&mut self, other: Self) {
        self.0 = std::mem::replace(&mut self.0, Cond::truth()).or(other.0);
    }

    fn times(&self, other: &Self) -> Self {
        CondAnn(self.0.clone().and(other.0.clone()))
    }

    fn monus(&self, other: &Self) -> Self {
        CondAnn(self.0.clone().and(other.0.clone().not()))
    }

    fn select(&self, cond: &Condition, tuple: &Tuple) -> Self {
        CondAnn(self.0.clone().and(instantiate_condition(cond, tuple)))
    }

    /// Conditional difference: a left row survives each right row `⟨s̄, β⟩`
    /// unless that row is present *and* coincides with it, so the condition
    /// accumulates `¬(β ∧ s̄ = t̄)` over every unifiable right row
    /// (non-unifiable rows can never coincide and contribute nothing).
    ///
    /// The right side is partitioned into complete tuples, hashed to their
    /// row indices, and null-bearing rows. A complete left tuple unifies
    /// only with an equal complete tuple or a null-bearing row, so it visits
    /// its bucket and the null-bearing rows, merged in ascending row order:
    /// the conjuncts come out in the order a scan of every row gives. A
    /// null-bearing left tuple still scans every row.
    fn difference(left: AnnRel<Self>, right: &AnnRel<Self>) -> AnnRel<Self> {
        let rows = right.rows();
        let mut complete: HashMap<&Tuple, Vec<usize>> = HashMap::new();
        let mut with_nulls: Vec<usize> = Vec::new();
        for (i, (s, _)) in rows.iter().enumerate() {
            if s.has_null() {
                with_nulls.push(i);
            } else {
                complete.entry(s).or_default().push(i);
            }
        }
        let mut out = AnnRel::new(left.arity());
        for (t, CondAnn(a)) in left.into_rows() {
            let cond = if t.has_null() {
                rows.iter()
                    .fold(a, |cond, (s, CondAnn(b))| subtract_row(cond, &t, s, b))
            } else {
                let bucket = complete.get(&t).map_or(&[][..], Vec::as_slice);
                merge_ascending(bucket, &with_nulls).fold(a, |cond, i| {
                    let (s, CondAnn(b)) = &rows[i];
                    subtract_row(cond, &t, s, b)
                })
            };
            out.push(t, CondAnn(cond));
        }
        out
    }

    /// Conditional intersection: every pair contributes the left tuple
    /// under `α ∧ β ∧ t̄ = s̄`. Non-unifiable pairs are **not** pruned, to
    /// match the seed evaluator atom-for-atom: their matching condition is
    /// unsatisfiable but grounds eagerly to `u` (e.g. `⊥₀ = 1 ∧ ⊥₀ = 2`),
    /// and the oracle keeps such rows in `Eval_p`.
    fn intersect(left: AnnRel<Self>, right: &AnnRel<Self>) -> AnnRel<Self> {
        let mut out = AnnRel::new(left.arity());
        for (t, CondAnn(a)) in left.rows() {
            for (s, CondAnn(b)) in right.rows() {
                let matching = Cond::tuple_eq(t, s);
                let combined = a.clone().and(b.clone()).and(matching);
                out.push(t.clone(), CondAnn(combined));
            }
        }
        out
    }
}

/// `cond ∧ ¬(β ∧ s̄ = t̄)` for one right row `⟨s̄, β⟩` of a difference, or
/// `cond` unchanged when the row cannot coincide with `t̄`.
fn subtract_row(cond: Cond, t: &Tuple, s: &Tuple, b: &Cond) -> Cond {
    if !certa_data::unifiable(t, s) {
        return cond;
    }
    let matched = b.clone().and(Cond::tuple_eq(t, s));
    if matched == Cond::Truth(Truth3::False) {
        return cond;
    }
    cond.and(matched.not())
}

/// The union of two ascending, disjoint index lists, in ascending order.
fn merge_ascending<'a>(a: &'a [usize], b: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, None) => return None,
        };
        Some(next)
    })
}

/// Source adapter: scan an incomplete database as c-tables whose base rows
/// all carry the condition `t`, applying pushed-down selections
/// symbolically.
struct CondSource<'a>(&'a Database);

impl Source<CondAnn> for CondSource<'_> {
    fn scan(
        &self,
        name: &str,
        filter: Option<&Condition>,
    ) -> certa_algebra::Result<AnnRel<CondAnn>> {
        let rel = self
            .0
            .relation(name)
            .map_err(|_| certa_algebra::AlgebraError::UnknownRelation(name.to_string()))?;
        let mut out = AnnRel::new(rel.arity());
        for t in rel.iter() {
            let ann = match filter {
                Some(cond) => CondAnn::one().select(cond, t),
                None => CondAnn::one(),
            };
            out.push(t.clone(), ann);
        }
        Ok(out)
    }

    fn active_domain(&self) -> Vec<Value> {
        // Extended operators are rejected before execution; nothing scans
        // the active domain under conditional semantics.
        Vec::new()
    }
}

/// The result of a conditional evaluation: the final c-table plus the
/// strategy that produced it, from which the certain (`Eval_t`) and possible
/// (`Eval_p`) answer sets of equations (9a)/(9b) are extracted.
#[derive(Debug, Clone)]
pub struct ConditionalResult {
    table: CTable,
    strategy: Strategy,
}

impl ConditionalResult {
    /// The final conditional table.
    pub fn table(&self) -> &CTable {
        &self.table
    }

    /// `Eval_t(Q, D)`: tuples whose condition grounds to `t` — these are
    /// certain answers with nulls (correctness guarantee of Theorem 4.9).
    pub fn certain(&self) -> Relation {
        self.table
            .tuples_with(&[Truth3::True], |c| self.strategy.final_ground(c))
    }

    /// `Eval_p(Q, D)`: tuples whose condition grounds to `t` or `u` — an
    /// over-approximation of possible answers.
    pub fn possible(&self) -> Relation {
        self.table
            .tuples_with(&[Truth3::True, Truth3::Unknown], |c| {
                self.strategy.final_ground(c)
            })
    }

    /// Total condition size of the result (cost measure for benches).
    pub fn condition_size(&self) -> usize {
        self.table.condition_size()
    }
}

/// Evaluate a relational-algebra query conditionally on an incomplete
/// database with the given strategy, through the shared physical engine.
///
/// # Errors
///
/// Returns an error if the expression is ill-formed or uses an operator
/// outside plain relational algebra (division, `Domᵏ`, `⋉⇑`).
pub fn eval_conditional(
    expr: &RaExpr,
    db: &Database,
    strategy: Strategy,
) -> Result<ConditionalResult> {
    expr.validate(db.schema())?;
    let physical_plan = physical::plan(expr, db.schema())?;
    let mut hook = |kind: OpKind, rel: AnnRel<CondAnn>| -> AnnRel<CondAnn> {
        match strategy {
            Strategy::Eager => normalize_rel(rel, false),
            Strategy::SemiEager => normalize_rel(rel, true),
            Strategy::Lazy if kind == OpKind::Difference => normalize_rel(rel, true),
            Strategy::Lazy | Strategy::Aware => rel,
        }
    };
    let out = physical::execute(&physical_plan, &CondSource(db), &mut hook)?;
    // The lazy strategy grounds at differences only; the aware strategy not
    // at all: both keep symbolic conditions in the final table, which the
    // accessors ground on demand.
    Ok(ConditionalResult {
        table: to_ctable(out),
        strategy,
    })
}

fn to_ctable(rel: AnnRel<CondAnn>) -> CTable {
    let mut out = CTable::empty(rel.arity());
    for (tuple, CondAnn(cond)) in rel.into_rows() {
        out.push(CTuple { tuple, cond });
    }
    out
}

/// Ground every condition (after optional equality propagation), dropping
/// c-tuples whose condition became false — the engine-hook version of the
/// strategy normalisation.
///
/// Equality propagation rewrites the *tuple* using the equalities forced by
/// the condition (the paper's example: `⟨⊥₂, ⊥₁ = c ∧ ⊥₁ = ⊥₂⟩` becomes
/// `⟨c, u⟩`), but the truth value is still that of the original condition —
/// the forced equality is a hypothesis of the c-tuple, not a fact, so it
/// must not make the condition true.
fn normalize_rel(rel: AnnRel<CondAnn>, propagate_equalities: bool) -> AnnRel<CondAnn> {
    let mut out = AnnRel::new(rel.arity());
    for (tuple, CondAnn(cond)) in rel.into_rows() {
        let ground = cond.ground_eager();
        if ground == Truth3::False {
            continue;
        }
        let tuple = if propagate_equalities {
            cond.forced_equalities().apply_tuple(&tuple)
        } else {
            tuple
        };
        out.push(tuple, CondAnn(Cond::Truth(ground)));
    }
    out
}

/// Instantiate an algebraic selection condition on a concrete tuple,
/// producing a c-table condition. Comparisons involving nulls stay symbolic;
/// `const`/`null` tests are resolved syntactically. Public because every
/// annotation domain built on [`Cond`] (this crate's [`CondAnn`], the
/// weighted variant in `certa-lineage`) shares this one instantiation.
pub fn instantiate_condition(cond: &Condition, tuple: &Tuple) -> Cond {
    match cond {
        Condition::True => Cond::truth(),
        Condition::False => Cond::Truth(Truth3::False),
        Condition::IsConst(i) => Cond::Truth(Truth3::from_bool(tuple[*i].is_const())),
        Condition::IsNull(i) => Cond::Truth(Truth3::from_bool(tuple[*i].is_null())),
        Condition::Eq(a, b) => Cond::eq(resolve(a, tuple), resolve(b, tuple)),
        Condition::Neq(a, b) => Cond::neq(resolve(a, tuple), resolve(b, tuple)),
        Condition::And(a, b) => {
            instantiate_condition(a, tuple).and(instantiate_condition(b, tuple))
        }
        Condition::Or(a, b) => instantiate_condition(a, tuple).or(instantiate_condition(b, tuple)),
    }
}

fn resolve(op: &Operand, tuple: &Tuple) -> Value {
    match op {
        Operand::Attr(i) => tuple[*i].clone(),
        Operand::Const(c) => Value::Const(c.clone()),
    }
}

/// The seed's recursive conditional evaluator, kept as the **oracle** for
/// the property tests (`tests/property_engine_agreement.rs` asserts that
/// [`eval_conditional`] produces the same certain and possible answers on
/// random instances for every strategy).
///
/// # Errors
///
/// As [`eval_conditional`].
pub fn eval_conditional_reference(
    expr: &RaExpr,
    db: &Database,
    strategy: Strategy,
) -> Result<ConditionalResult> {
    expr.validate(db.schema())?;
    let cdb = CDatabase::from_database(db);
    let table = eval_rec_reference(expr, &cdb, strategy)?;
    Ok(ConditionalResult { table, strategy })
}

fn eval_rec_reference(expr: &RaExpr, cdb: &CDatabase, strategy: Strategy) -> Result<CTable> {
    let raw = match expr {
        RaExpr::Relation(name) => cdb
            .table(name)
            .cloned()
            .ok_or_else(|| CtError::UnknownRelation(name.clone()))?,
        RaExpr::Literal(rel) => CTable::from_relation(rel),
        RaExpr::Select(e, cond) => {
            let input = eval_rec_reference(e, cdb, strategy)?;
            let mut out = CTable::empty(input.arity());
            for ct in input.iter() {
                let instantiated = instantiate_condition(cond, &ct.tuple);
                let combined = ct.cond.clone().and(instantiated);
                if combined != Cond::Truth(Truth3::False) {
                    out.push(CTuple {
                        tuple: ct.tuple.clone(),
                        cond: combined,
                    });
                }
            }
            out
        }
        RaExpr::Project(e, positions) => {
            let input = eval_rec_reference(e, cdb, strategy)?;
            let mut out = CTable::empty(positions.len());
            for ct in input.iter() {
                out.push(CTuple {
                    tuple: ct.tuple.project(positions),
                    cond: ct.cond.clone(),
                });
            }
            out
        }
        RaExpr::Product(l, r) => {
            let (left, right) = (
                eval_rec_reference(l, cdb, strategy)?,
                eval_rec_reference(r, cdb, strategy)?,
            );
            let mut out = CTable::empty(left.arity() + right.arity());
            for a in left.iter() {
                for b in right.iter() {
                    out.push(CTuple {
                        tuple: a.tuple.concat(&b.tuple),
                        cond: a.cond.clone().and(b.cond.clone()),
                    });
                }
            }
            out
        }
        RaExpr::Union(l, r) => {
            let (left, right) = (
                eval_rec_reference(l, cdb, strategy)?,
                eval_rec_reference(r, cdb, strategy)?,
            );
            let mut out = CTable::empty(left.arity());
            for ct in left.iter().chain(right.iter()) {
                out.push(ct.clone());
            }
            out
        }
        RaExpr::Intersect(l, r) => {
            let (left, right) = (
                eval_rec_reference(l, cdb, strategy)?,
                eval_rec_reference(r, cdb, strategy)?,
            );
            let mut out = CTable::empty(left.arity());
            for a in left.iter() {
                for b in right.iter() {
                    let matching = Cond::tuple_eq(&a.tuple, &b.tuple);
                    let combined = a.cond.clone().and(b.cond.clone()).and(matching);
                    if combined != Cond::Truth(Truth3::False) {
                        out.push(CTuple {
                            tuple: a.tuple.clone(),
                            cond: combined,
                        });
                    }
                }
            }
            out
        }
        RaExpr::Difference(l, r) => {
            let (left, right) = (
                eval_rec_reference(l, cdb, strategy)?,
                eval_rec_reference(r, cdb, strategy)?,
            );
            let mut out = CTable::empty(left.arity());
            for a in left.iter() {
                let mut cond = a.cond.clone();
                for b in right.iter() {
                    // a survives only if b is absent or differs from a. A
                    // non-unifiable b can never coincide with a (repeated
                    // nulls make this stronger than position-wise equality),
                    // so it contributes nothing to the condition.
                    if !certa_data::unifiable(&a.tuple, &b.tuple) {
                        continue;
                    }
                    let matched = b.cond.clone().and(Cond::tuple_eq(&a.tuple, &b.tuple));
                    if matched == Cond::Truth(Truth3::False) {
                        continue;
                    }
                    cond = cond.and(matched.not());
                }
                if cond != Cond::Truth(Truth3::False) {
                    out.push(CTuple {
                        tuple: a.tuple.clone(),
                        cond,
                    });
                }
            }
            // The lazy strategy grounds (with equality propagation) exactly
            // on the results of difference operators.
            if strategy == Strategy::Lazy {
                return Ok(normalize(out, true));
            }
            out
        }
        RaExpr::Divide(..) => return Err(CtError::UnsupportedOperator("division")),
        RaExpr::DomPower(_) => return Err(CtError::UnsupportedOperator("Dom^k")),
        RaExpr::AntiSemiJoinUnify(..) => {
            return Err(CtError::UnsupportedOperator("anti-semijoin (⋉⇑)"))
        }
    };
    Ok(match strategy {
        Strategy::Eager => normalize(raw, false),
        Strategy::SemiEager => normalize(raw, true),
        Strategy::Lazy | Strategy::Aware => raw,
    })
}

/// The c-table form of [`normalize_rel`], used by the reference evaluator.
fn normalize(table: CTable, propagate_equalities: bool) -> CTable {
    let mut out = CTable::empty(table.arity());
    for ct in table.iter() {
        let ground = ct.cond.ground_eager();
        if ground == Truth3::False {
            continue;
        }
        let tuple = if propagate_equalities {
            ct.cond.forced_equalities().apply_tuple(&ct.tuple)
        } else {
            ct.tuple.clone()
        };
        out.push(CTuple {
            tuple,
            cond: Cond::Truth(ground),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_algebra::Condition;
    use certa_data::{database_from_literal, tup};

    fn db() -> Database {
        database_from_literal([
            ("R", vec!["a"], vec![tup![1], tup![2]]),
            ("S", vec!["a"], vec![tup![Value::null(0)], tup![2]]),
        ])
    }

    #[test]
    fn base_relation_and_projection() {
        let d = db();
        let q = RaExpr::rel("S").project(vec![0]);
        for strat in Strategy::ALL {
            let out = eval_conditional(&q, &d, strat).unwrap();
            assert_eq!(out.certain().len(), 2, "{strat:?}");
            assert_eq!(out.possible().len(), 2);
        }
    }

    #[test]
    fn selection_keeps_symbolic_conditions() {
        let d = db();
        // σ(a = 1) over S: the null tuple is possible, not certain.
        let q = RaExpr::rel("S").select(Condition::eq_const(0, 1));
        let out = eval_conditional(&q, &d, Strategy::Eager).unwrap();
        assert!(out.certain().is_empty());
        assert_eq!(
            out.possible(),
            Relation::from_tuples(vec![tup![Value::null(0)]])
        );
    }

    #[test]
    fn difference_example_from_section_4_2() {
        // R − S with R = {1, 2}, S = {⊥0, 2}: 1 is possible (if ⊥0 ≠ 1) but
        // not certain; 2 is certainly excluded.
        let d = db();
        let q = RaExpr::rel("R").difference(RaExpr::rel("S"));
        for strat in Strategy::ALL {
            let out = eval_conditional(&q, &d, strat).unwrap();
            assert!(out.certain().is_empty(), "{strat:?}");
            let possible = out.possible();
            assert!(possible.contains(&tup![1]), "{strat:?}");
            assert!(!possible.contains(&tup![2]), "{strat:?}");
        }
    }

    #[test]
    fn intersection_with_null() {
        let d = db();
        let q = RaExpr::rel("R").intersect(RaExpr::rel("S"));
        let out = eval_conditional(&q, &d, Strategy::Eager).unwrap();
        // 2 is certainly in both; 1 only if ⊥0 = 1.
        assert_eq!(out.certain(), Relation::from_tuples(vec![tup![2]]));
        assert_eq!(out.possible().len(), 2);
    }

    #[test]
    fn aware_strategy_detects_tautological_conditions() {
        // σ(a = 2 ∨ a ≠ 2) over S: for the null tuple the condition is a
        // tautology; eager grounding reports u, exact grounding reports t.
        let d = db();
        let cond = Condition::eq_const(0, 2).or(Condition::neq_const(0, 2));
        let q = RaExpr::rel("S").select(cond);
        let eager = eval_conditional(&q, &d, Strategy::Eager).unwrap();
        let aware = eval_conditional(&q, &d, Strategy::Aware).unwrap();
        assert_eq!(eager.certain(), Relation::from_tuples(vec![tup![2]]));
        assert_eq!(aware.certain().len(), 2);
        // Containment between strategies (the strict-containment direction
        // exercised in E9): eager ⊆ aware.
        assert!(eager.certain().is_subset_of(&aware.certain()));
    }

    #[test]
    fn semi_eager_propagates_equalities() {
        // π_b σ(a = 5)(T) with T = {(⊥1, ⊥2)} and a join-style condition
        // forcing ⊥1 = 5: the semi-eager strategy resolves ⊥1 but keeps ⊥2
        // conditional; with an additional ⊥1 = ⊥2 constraint it resolves the
        // output tuple to the constant 5.
        let d = database_from_literal([(
            "T",
            vec!["a", "b"],
            vec![tup![Value::null(1), Value::null(1)]],
        )]);
        let q = RaExpr::rel("T")
            .select(Condition::eq_const(0, 5))
            .project(vec![1]);
        let eager = eval_conditional(&q, &d, Strategy::Eager).unwrap();
        let semi = eval_conditional(&q, &d, Strategy::SemiEager).unwrap();
        // Eager keeps ⟨⊥1, u⟩; semi-eager improves it to ⟨5, u⟩.
        assert!(eager.possible().contains(&tup![Value::null(1)]));
        assert!(semi.possible().contains(&tup![5]));
    }

    #[test]
    fn unsupported_operators_are_rejected() {
        let d = db();
        assert!(matches!(
            eval_conditional(&RaExpr::DomPower(1), &d, Strategy::Eager),
            Err(CtError::UnsupportedOperator(_))
        ));
        assert!(matches!(
            eval_conditional(
                &RaExpr::rel("R").anti_semijoin_unify(RaExpr::rel("S")),
                &d,
                Strategy::Eager
            ),
            Err(CtError::UnsupportedOperator(_))
        ));
        let div = RaExpr::rel("R")
            .product(RaExpr::rel("R"))
            .divide(RaExpr::rel("S"))
            .project(vec![0]);
        assert!(matches!(
            eval_conditional(&div, &d, Strategy::Eager),
            Err(CtError::UnsupportedOperator("division"))
        ));
    }

    #[test]
    fn certain_answers_are_sound_under_every_valuation() {
        // Soundness check on a small query: every certain tuple appears in
        // the query answer on every possible world generated from a small
        // constant pool.
        use certa_data::valuation::all_valuations;
        use certa_data::Const;
        let d = db();
        let q = RaExpr::rel("R")
            .difference(RaExpr::rel("S"))
            .union(RaExpr::rel("R"));
        let pool: Vec<Const> = vec![Const::Int(1), Const::Int(2), Const::Int(3)];
        for strat in Strategy::ALL {
            let out = eval_conditional(&q, &d, strat).unwrap();
            for v in all_valuations(&d.nulls(), &pool) {
                let world = v.apply_database(&d);
                let answer = certa_algebra::eval(&q, &world).unwrap();
                for t in out.certain().iter() {
                    assert!(
                        answer.contains(&v.apply_tuple(t)),
                        "{strat:?}: {t} not in answer on world {world}"
                    );
                }
            }
        }
    }

    #[test]
    fn boolean_query_via_projection() {
        let d = db();
        // Is 2 certainly in S? — yes. Is 1 certainly in S? — no, but possible
        // (⊥0 could be 1).
        let yes = RaExpr::rel("S")
            .select(Condition::eq_const(0, 2))
            .project(Vec::new());
        let no = RaExpr::rel("S")
            .select(Condition::eq_const(0, 1))
            .project(Vec::new());
        let out_yes = eval_conditional(&yes, &d, Strategy::Eager).unwrap();
        let out_no = eval_conditional(&no, &d, Strategy::Eager).unwrap();
        assert!(out_yes.certain().as_bool());
        assert!(!out_no.certain().as_bool());
        assert!(out_no.possible().as_bool());
    }

    #[test]
    fn engine_agrees_with_reference_on_joins_with_nulls() {
        // A join whose key column carries nulls exercises both the hash
        // path (constant keys) and the symbolic fallback.
        let d = database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![tup![1, 2], tup![2, Value::null(0)], tup![3, 3]],
            ),
            (
                "S",
                vec!["c"],
                vec![tup![2], tup![Value::null(0)], tup![Value::null(1)]],
            ),
        ]);
        let queries = vec![
            RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(1, 0)], 2),
            RaExpr::rel("R")
                .join_on(RaExpr::rel("S"), &[(1, 0)], 2)
                .project(vec![0]),
            RaExpr::rel("R")
                .product(RaExpr::rel("S"))
                .select(Condition::eq_attr(1, 2).and(Condition::neq_const(0, 3))),
            RaExpr::rel("R")
                .project(vec![1])
                .difference(RaExpr::rel("S")),
            RaExpr::rel("R")
                .project(vec![1])
                .intersect(RaExpr::rel("S")),
            RaExpr::rel("R").project(vec![0]).union(RaExpr::rel("S")),
        ];
        for q in queries {
            for strat in Strategy::ALL {
                let fast = eval_conditional(&q, &d, strat).unwrap();
                let slow = eval_conditional_reference(&q, &d, strat).unwrap();
                assert_eq!(fast.certain(), slow.certain(), "{strat:?}: certain of {q}");
                assert_eq!(
                    fast.possible(),
                    slow.possible(),
                    "{strat:?}: possible of {q}"
                );
            }
        }
    }
}
