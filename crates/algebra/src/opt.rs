//! The null-aware logical optimizer: rewrites an [`RaExpr`] into an
//! equivalent one that the physical planner turns into a better plan.
//!
//! The optimizer sits between SQL lowering (which produces the textbook
//! `π(σ(R₁ × … × Rₙ))` shape) and [`crate::physical::plan`]. It performs
//! three classical rewrites plus one rewrite that exists only because this
//! engine quantifies queries over *possible worlds*:
//!
//! 1. **Selection pushdown** — `σ`-conjuncts move through products (to the
//!    side they mention), unions (to both sides), projections (positions
//!    remapped) and the left side of `−`/`∩`, so filters run before joins
//!    and the planner can fuse them into scans.
//! 2. **Cross-product-to-equi-join conversion and greedy join reordering**
//!    — maximal `σ/×` clusters are flattened into a leaf multiset plus a
//!    conjunct pool; a greedy pass rebuilds a left-deep tree that joins
//!    connected, low-cardinality leaves first (cross products only as a
//!    last resort), with each equi-conjunct placed directly above the
//!    product it joins so the planner emits a [`crate::physical::PhysOp`]
//!    hash join.
//! 3. **Projection pushdown** — dead columns are pruned as early as
//!    possible: join inputs narrow to the columns a condition or the output
//!    still needs, and cascaded projections collapse.
//! 4. **Null-aware leaf ordering** — when [`Stats`] knows which relations
//!    contain marked nulls, the greedy join order clusters *null-free*
//!    leaves first and pushes null-dependent ones towards the root of the
//!    join tree. A subplan over null-free relations produces the same rows
//!    in every possible world; the world-mask executor ([`crate::mask`])
//!    gives such rows the full mask, which stores no mask words, so this
//!    order keeps mask words out of the join prefix.
//!
//! Every rewrite is an identity in *all* annotation domains of the physical
//! engine — sets, bags and c-table conditions alike. That restricts the
//! rule set to semiring-valid transformations: selections only ever move to
//! the **left** operand of `−`/`∩` (pushing into the right would change
//! monus/meet results), projections never cross `−`/`∩`/`÷`/`⋉⇑`
//! boundaries (those operators compare full tuples), and the extended
//! operators plus `Domᵏ` act as rewrite barriers (their children are
//! optimised, the nodes themselves are untouched).
//! `tests/property_optimizer_agreement.rs` holds optimised plans to
//! agreement with the unoptimised ones under all three annotation domains
//! on hundreds of random queries.

use crate::expr::{Condition, Operand, RaExpr};
use crate::Result;
use certa_data::{BagDatabase, Database, Schema};
use std::collections::{BTreeMap, BTreeSet};

/// Per-relation statistics the optimizer may exploit: cardinalities for the
/// greedy join order and null presence for the null-aware leaf ordering.
///
/// [`Stats::schema_only`] (the default) knows nothing: every relation gets
/// the same default cardinality and is assumed null-free, which reduces the
/// greedy order to "connected leaves before cross products, selective
/// filters first". [`Stats::from_database`] reads both cardinalities and
/// null presence from an instance — the certain-answer machinery builds it
/// per request, where the cost (one `is_complete` scan per relation) is
/// noise next to the possible-worlds evaluation it plans.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    cards: BTreeMap<String, usize>,
    with_nulls: BTreeSet<String>,
}

/// The cardinality assumed for relations absent from the statistics.
const DEFAULT_CARD: f64 = 1000.0;

impl Stats {
    /// Statistics that know nothing beyond the schema.
    pub fn schema_only() -> Stats {
        Stats::default()
    }

    /// Read cardinalities and null presence from a set database.
    pub fn from_database(db: &Database) -> Stats {
        let mut stats = Stats::default();
        for (name, rel) in db.iter() {
            stats.cards.insert(name.to_string(), rel.len());
            if !rel.is_complete() {
                stats.with_nulls.insert(name.to_string());
            }
        }
        stats
    }

    /// Read cardinalities (distinct-tuple counts, the row counts the
    /// engine's operators iterate over) and null presence from a bag
    /// database.
    pub fn from_bag_database(db: &BagDatabase) -> Stats {
        let mut stats = Stats::default();
        for (name, rel) in db.iter() {
            stats.cards.insert(name.to_string(), rel.distinct_len());
            if !rel.is_complete() {
                stats.with_nulls.insert(name.to_string());
            }
        }
        stats
    }

    /// Estimated cardinality of a base relation.
    fn card(&self, name: &str) -> f64 {
        self.cards
            .get(name)
            .map_or(DEFAULT_CARD, |&n| (n as f64).max(1.0))
    }

    /// Whether the relation is known to contain marked nulls.
    pub fn has_nulls(&self, name: &str) -> bool {
        self.with_nulls.contains(name)
    }

    /// The relations known to contain marked nulls, in name order. The
    /// lineage subsystem seeds its variable-ordering heuristics with this:
    /// nulls hosted by the same relation tend to co-occur in compiled
    /// conditions, so they are kept adjacent in the diagram order.
    pub fn null_relations(&self) -> impl Iterator<Item = &str> {
        self.with_nulls.iter().map(String::as_str)
    }

    /// The recorded cardinality of a relation, if the statistics know it.
    pub fn cardinality(&self, name: &str) -> Option<usize> {
        self.cards.get(name).copied()
    }

    /// Whether the expression depends on any null-bearing relation (or on
    /// the active domain, which varies with the valuation). This is the
    /// null-dependence test the leaf ordering uses.
    pub fn null_dependent(&self, expr: &RaExpr) -> bool {
        if contains_dom_power(expr) {
            return true;
        }
        expr.relations().iter().any(|r| self.has_nulls(r))
    }
}

fn contains_dom_power(expr: &RaExpr) -> bool {
    match expr {
        RaExpr::DomPower(_) => true,
        RaExpr::Relation(_) | RaExpr::Literal(_) => false,
        RaExpr::Select(e, _) | RaExpr::Project(e, _) => contains_dom_power(e),
        RaExpr::Product(l, r)
        | RaExpr::Union(l, r)
        | RaExpr::Intersect(l, r)
        | RaExpr::Difference(l, r)
        | RaExpr::Divide(l, r)
        | RaExpr::AntiSemiJoinUnify(l, r) => contains_dom_power(l) || contains_dom_power(r),
    }
}

/// Optimize an expression with schema information only (uniform
/// cardinalities, no null awareness).
///
/// # Errors
///
/// Returns an error if the expression is ill-formed for the schema.
pub fn optimize(expr: &RaExpr, schema: &Schema) -> Result<RaExpr> {
    optimize_with(expr, schema, &Stats::schema_only())
}

/// Optimize an expression using per-relation statistics.
///
/// # Errors
///
/// As [`optimize`].
pub fn optimize_with(expr: &RaExpr, schema: &Schema, stats: &Stats) -> Result<RaExpr> {
    expr.validate(schema)?;
    // Each rewrite pass is timed into the registry (and spanned when a
    // trace is ambient): plan preparation is a cold path, so the clock
    // reads here cost nothing where it matters.
    let registry = certa_obs::metrics();
    registry.add(certa_obs::MetricId::OptRuns, 1);
    let timed = |name: &'static str,
                 nanos: certa_obs::MetricId,
                 f: &mut dyn FnMut() -> Result<RaExpr>|
     -> Result<RaExpr> {
        let _sp = certa_obs::span(name);
        let start = std::time::Instant::now();
        let out = f()?;
        let spent = start.elapsed();
        registry.add(nanos, spent.as_nanos() as u64);
        registry.observe(
            certa_obs::HistogramId::OptPassMicros,
            spent.as_micros() as u64,
        );
        Ok(out)
    };
    let pushed = timed(
        "opt:pushdown",
        certa_obs::MetricId::OptPushdownNanos,
        &mut || push_into(expr.clone(), Vec::new(), schema),
    )?;
    let reordered = timed(
        "opt:reorder",
        certa_obs::MetricId::OptReorderNanos,
        &mut || reorder(&pushed, schema, stats),
    )?;
    let arity = reordered.arity(schema)?;
    let all: BTreeSet<usize> = (0..arity).collect();
    let pruned = timed("opt:prune", certa_obs::MetricId::OptPruneNanos, &mut || {
        prune(&reordered, &all, schema)
    })?;
    debug_assert_eq!(
        pruned.arity(schema)?,
        expr.arity(schema)?,
        "optimizer changed the output arity of {expr}"
    );
    Ok(pruned)
}

// ---------------------------------------------------------------------------
// Pass 1: selection pushdown
// ---------------------------------------------------------------------------

/// Split a condition into its top-level `∧`-conjuncts.
fn conjuncts_of(cond: &Condition) -> Vec<Condition> {
    fn walk(cond: &Condition, out: &mut Vec<Condition>) {
        match cond {
            Condition::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Condition::True => {}
            other => out.push(other.clone()),
        }
    }
    let mut out = Vec::new();
    walk(cond, &mut out);
    out
}

/// Rebuild a conjunction (`True` when empty).
fn conjoin(conds: impl IntoIterator<Item = Condition>) -> Condition {
    conds.into_iter().fold(Condition::True, Condition::and)
}

/// Attribute positions referenced by a condition.
fn condition_attrs(cond: &Condition) -> BTreeSet<usize> {
    fn operand(op: &Operand, out: &mut BTreeSet<usize>) {
        if let Operand::Attr(i) = op {
            out.insert(*i);
        }
    }
    fn walk(cond: &Condition, out: &mut BTreeSet<usize>) {
        match cond {
            Condition::IsConst(a) | Condition::IsNull(a) => {
                out.insert(*a);
            }
            Condition::Eq(x, y) | Condition::Neq(x, y) => {
                operand(x, out);
                operand(y, out);
            }
            Condition::And(a, b) | Condition::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Condition::True | Condition::False => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(cond, &mut out);
    out
}

/// Rewrite every attribute reference through `map` (which must cover every
/// referenced position).
fn remap_condition(cond: &Condition, map: &BTreeMap<usize, usize>) -> Condition {
    let at = |i: &usize| map[i];
    let operand = |op: &Operand| match op {
        Operand::Attr(i) => Operand::Attr(at(i)),
        c @ Operand::Const(_) => c.clone(),
    };
    match cond {
        Condition::IsConst(a) => Condition::IsConst(at(a)),
        Condition::IsNull(a) => Condition::IsNull(at(a)),
        Condition::Eq(x, y) => Condition::Eq(operand(x), operand(y)),
        Condition::Neq(x, y) => Condition::Neq(operand(x), operand(y)),
        Condition::And(a, b) => Condition::And(
            Box::new(remap_condition(a, map)),
            Box::new(remap_condition(b, map)),
        ),
        Condition::Or(a, b) => Condition::Or(
            Box::new(remap_condition(a, map)),
            Box::new(remap_condition(b, map)),
        ),
        Condition::True => Condition::True,
        Condition::False => Condition::False,
    }
}

/// Shift every attribute reference down by `offset` (all referenced
/// positions must be ≥ `offset`).
fn shift_condition(cond: &Condition, offset: usize) -> Condition {
    let map: BTreeMap<usize, usize> = condition_attrs(cond)
        .into_iter()
        .map(|i| (i, i - offset))
        .collect();
    remap_condition(cond, &map)
}

/// Push a pool of conjuncts as deep into the expression as the annotation
/// semantics allow, merging with selections encountered on the way.
fn push_into(expr: RaExpr, mut pool: Vec<Condition>, schema: &Schema) -> Result<RaExpr> {
    match expr {
        RaExpr::Select(e, cond) => {
            pool.extend(conjuncts_of(&cond));
            push_into(*e, pool, schema)
        }
        RaExpr::Product(l, r) => {
            let left_arity = l.arity(schema)?;
            let mut left = Vec::new();
            let mut right = Vec::new();
            let mut cross = Vec::new();
            for c in pool {
                let attrs = condition_attrs(&c);
                if !attrs.is_empty() && attrs.iter().all(|&a| a < left_arity) {
                    left.push(c);
                } else if attrs.iter().all(|&a| a >= left_arity) && !attrs.is_empty() {
                    right.push(shift_condition(&c, left_arity));
                } else {
                    // Cross-side conjuncts stay above the product, where the
                    // join reordering pass (and ultimately the hash-join
                    // planner) picks them up. Attribute-free conjuncts stay
                    // here too: they are cheap anywhere.
                    cross.push(c);
                }
            }
            let product = push_into(*l, left, schema)?.product(push_into(*r, right, schema)?);
            Ok(apply_conjuncts(product, cross))
        }
        RaExpr::Union(l, r) => {
            // σ distributes over ∪ in every annotation domain (`select`
            // scales each side's annotations identically).
            let left = push_into(*l, pool.clone(), schema)?;
            let right = push_into(*r, pool, schema)?;
            Ok(left.union(right))
        }
        RaExpr::Project(e, positions) => {
            let map: BTreeMap<usize, usize> = positions.iter().copied().enumerate().collect();
            let pushed: Vec<Condition> = pool
                .iter()
                .map(|c| {
                    let remap: BTreeMap<usize, usize> = condition_attrs(c)
                        .into_iter()
                        .map(|i| (i, map[&i]))
                        .collect();
                    remap_condition(c, &remap)
                })
                .collect();
            Ok(push_into(*e, pushed, schema)?.project(positions))
        }
        RaExpr::Intersect(l, r) => {
            // Only the left side: the output rows (and their annotations'
            // left factor) come from the left operand, so filtering it first
            // is an identity; filtering the right would change `meet`.
            let left = push_into(*l, pool, schema)?;
            let right = push_into(*r, Vec::new(), schema)?;
            Ok(left.intersect(right))
        }
        RaExpr::Difference(l, r) => {
            let left = push_into(*l, pool, schema)?;
            let right = push_into(*r, Vec::new(), schema)?;
            Ok(left.difference(right))
        }
        RaExpr::Divide(l, r) => {
            // ÷ is support-based over the *full* dividend: a rewrite
            // barrier. Children are still optimised below the node.
            let node =
                push_into(*l, Vec::new(), schema)?.divide(push_into(*r, Vec::new(), schema)?);
            Ok(apply_conjuncts(node, pool))
        }
        RaExpr::AntiSemiJoinUnify(l, r) => {
            // ⋉⇑ keeps left rows whose tuple unifies with no right tuple; a
            // selection on the left filters rows independently, so it may
            // move inside.
            let left = push_into(*l, pool, schema)?;
            let right = push_into(*r, Vec::new(), schema)?;
            Ok(left.anti_semijoin_unify(right))
        }
        leaf @ (RaExpr::Relation(_) | RaExpr::Literal(_) | RaExpr::DomPower(_)) => {
            Ok(apply_conjuncts(leaf, pool))
        }
    }
}

/// Wrap an expression in a selection for the given conjuncts (no-op when
/// empty).
fn apply_conjuncts(expr: RaExpr, conds: Vec<Condition>) -> RaExpr {
    let cond = conjoin(conds);
    if cond == Condition::True {
        expr
    } else {
        expr.select(cond)
    }
}

// ---------------------------------------------------------------------------
// Pass 2: join reordering
// ---------------------------------------------------------------------------

/// A flattened `σ/×` cluster leaf.
struct Leaf {
    expr: RaExpr,
    /// Original column range `[start, start + arity)` in the cluster layout.
    start: usize,
    arity: usize,
    est: f64,
    null_dep: bool,
}

/// Recursively reorder every maximal `σ/×` cluster of the expression.
fn reorder(expr: &RaExpr, schema: &Schema, stats: &Stats) -> Result<RaExpr> {
    match expr {
        RaExpr::Product(..) => reorder_cluster(expr, schema, stats),
        RaExpr::Select(e, _) if matches!(**e, RaExpr::Product(..)) => {
            reorder_cluster(expr, schema, stats)
        }
        RaExpr::Select(e, cond) => Ok(reorder(e, schema, stats)?.select(cond.clone())),
        RaExpr::Project(e, positions) => Ok(reorder(e, schema, stats)?.project(positions.clone())),
        RaExpr::Union(l, r) => Ok(reorder(l, schema, stats)?.union(reorder(r, schema, stats)?)),
        RaExpr::Intersect(l, r) => {
            Ok(reorder(l, schema, stats)?.intersect(reorder(r, schema, stats)?))
        }
        RaExpr::Difference(l, r) => {
            Ok(reorder(l, schema, stats)?.difference(reorder(r, schema, stats)?))
        }
        RaExpr::Divide(l, r) => Ok(reorder(l, schema, stats)?.divide(reorder(r, schema, stats)?)),
        RaExpr::AntiSemiJoinUnify(l, r) => {
            Ok(reorder(l, schema, stats)?.anti_semijoin_unify(reorder(r, schema, stats)?))
        }
        RaExpr::Relation(_) | RaExpr::Literal(_) | RaExpr::DomPower(_) => Ok(expr.clone()),
    }
}

/// Flatten a `σ/×` cluster into leaves and a conjunct pool. Positions in the
/// returned conjuncts refer to the cluster's original (as-written) layout.
fn flatten_cluster(
    expr: &RaExpr,
    offset: usize,
    schema: &Schema,
    leaves: &mut Vec<(RaExpr, usize)>,
    pool: &mut Vec<Condition>,
) -> Result<usize> {
    match expr {
        RaExpr::Product(l, r) => {
            let la = flatten_cluster(l, offset, schema, leaves, pool)?;
            let ra = flatten_cluster(r, offset + la, schema, leaves, pool)?;
            Ok(la + ra)
        }
        RaExpr::Select(e, cond) if matches!(**e, RaExpr::Product(..) | RaExpr::Select(..)) => {
            let arity = flatten_cluster(e, offset, schema, leaves, pool)?;
            let up: BTreeMap<usize, usize> = condition_attrs(cond)
                .into_iter()
                .map(|i| (i, i + offset))
                .collect();
            pool.extend(conjuncts_of(cond).iter().map(|c| {
                let attrs = condition_attrs(c);
                let local: BTreeMap<usize, usize> = attrs.iter().map(|&a| (a, up[&a])).collect();
                remap_condition(c, &local)
            }));
            Ok(arity)
        }
        leaf => {
            let arity = leaf.arity(schema)?;
            leaves.push((leaf.clone(), arity));
            Ok(arity)
        }
    }
}

/// Crude cardinality estimate for greedy ordering. Precision is irrelevant;
/// monotone, deterministic ranking is what matters.
fn estimate(expr: &RaExpr, stats: &Stats) -> f64 {
    match expr {
        RaExpr::Relation(name) => stats.card(name),
        RaExpr::Literal(rel) => (rel.len() as f64).max(1.0),
        RaExpr::Select(e, cond) => estimate(e, stats) * selectivity(cond),
        RaExpr::Project(e, _) => estimate(e, stats),
        RaExpr::Product(l, r) => estimate(l, stats) * estimate(r, stats),
        RaExpr::Union(l, r) => estimate(l, stats) + estimate(r, stats),
        RaExpr::Intersect(l, r) => estimate(l, stats).min(estimate(r, stats)),
        RaExpr::Difference(l, r) | RaExpr::AntiSemiJoinUnify(l, r) => {
            let _ = r;
            estimate(l, stats)
        }
        RaExpr::Divide(l, r) => (estimate(l, stats) / estimate(r, stats).max(1.0)).max(1.0),
        RaExpr::DomPower(k) => DEFAULT_CARD.powi(*k as i32),
    }
}

/// Heuristic fraction of rows surviving a selection.
fn selectivity(cond: &Condition) -> f64 {
    match cond {
        Condition::Eq(Operand::Attr(_), Operand::Const(_))
        | Condition::Eq(Operand::Const(_), Operand::Attr(_)) => 0.1,
        Condition::Eq(..) => 0.2,
        Condition::Neq(..) => 0.9,
        Condition::IsConst(_) | Condition::IsNull(_) => 0.5,
        Condition::And(a, b) => selectivity(a) * selectivity(b),
        Condition::Or(a, b) => (selectivity(a) + selectivity(b)).min(1.0),
        Condition::True => 1.0,
        Condition::False => 0.0,
    }
}

/// The selectivity applied per equi-join conjunct when estimating a join
/// result.
const JOIN_SELECTIVITY: f64 = 0.1;

/// Reorder one flattened cluster greedily and rebuild it as a left-deep
/// `σ(×)` chain with a restoring projection.
fn reorder_cluster(expr: &RaExpr, schema: &Schema, stats: &Stats) -> Result<RaExpr> {
    let mut raw_leaves: Vec<(RaExpr, usize)> = Vec::new();
    let mut pool: Vec<Condition> = Vec::new();
    let total_arity = flatten_cluster(expr, 0, schema, &mut raw_leaves, &mut pool)?;
    if raw_leaves.len() < 2 {
        // A degenerate cluster (single leaf under a select): recurse into
        // the leaf and re-apply the conjuncts.
        let (leaf, _) = raw_leaves.pop().expect("flatten yields at least one leaf");
        return Ok(apply_conjuncts(reorder(&leaf, schema, stats)?, pool));
    }

    // Attach single-leaf conjuncts to their leaf; keep the rest pooled.
    let mut leaves: Vec<Leaf> = Vec::new();
    let mut start = 0usize;
    for (leaf_expr, arity) in raw_leaves {
        let optimized = reorder(&leaf_expr, schema, stats)?;
        leaves.push(Leaf {
            expr: optimized,
            start,
            arity,
            est: 0.0,
            null_dep: stats.null_dependent(&leaf_expr),
        });
        start += arity;
    }
    debug_assert_eq!(start, total_arity);
    let leaf_of = |attr: usize, leaves: &[Leaf]| -> usize {
        leaves
            .iter()
            .position(|l| attr >= l.start && attr < l.start + l.arity)
            .expect("attribute inside cluster layout")
    };
    let mut joinable: Vec<Condition> = Vec::new();
    for cond in pool {
        let attrs = condition_attrs(&cond);
        let touched: BTreeSet<usize> = attrs.iter().map(|&a| leaf_of(a, &leaves)).collect();
        if touched.len() == 1 {
            let li = *touched.iter().next().expect("one touched leaf");
            let local: BTreeMap<usize, usize> =
                attrs.iter().map(|&a| (a, a - leaves[li].start)).collect();
            let local_cond = remap_condition(&cond, &local);
            let inner = std::mem::replace(&mut leaves[li].expr, RaExpr::DomPower(0));
            leaves[li].expr = inner.select(local_cond);
        } else {
            joinable.push(cond);
        }
    }
    for leaf in &mut leaves {
        leaf.est = estimate(&leaf.expr, stats);
    }

    // Greedy order: null-independent leaves first (rule 4 of the module
    // doc), connected leaves before cross products, smaller estimates
    // before larger, original order as the deterministic tie-break.
    let edge_leaves = |cond: &Condition, leaves: &[Leaf]| -> BTreeSet<usize> {
        condition_attrs(cond)
            .iter()
            .map(|&a| leaf_of(a, leaves))
            .collect()
    };
    let n = leaves.len();
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut in_tree = vec![false; n];
    let first = (0..n)
        .min_by(|&a, &b| {
            (leaves[a].null_dep, leaves[a].est)
                .partial_cmp(&(leaves[b].null_dep, leaves[b].est))
                .expect("estimates are finite")
        })
        .expect("non-empty cluster");
    chosen.push(first);
    in_tree[first] = true;
    let mut acc_est = leaves[first].est;
    while chosen.len() < n {
        let connected: Vec<usize> = (0..n)
            .filter(|&i| !in_tree[i])
            .filter(|&i| {
                joinable.iter().any(|c| {
                    let touched = edge_leaves(c, &leaves);
                    touched.contains(&i) && touched.iter().any(|t| in_tree[*t])
                })
            })
            .collect();
        let candidates: Vec<usize> = if connected.is_empty() {
            (0..n).filter(|&i| !in_tree[i]).collect()
        } else {
            connected
        };
        let next = candidates
            .into_iter()
            .min_by(|&a, &b| {
                let cost = |i: usize| {
                    let edges = joinable
                        .iter()
                        .filter(|c| {
                            let touched = edge_leaves(c, &leaves);
                            touched.contains(&i) && touched.iter().all(|t| in_tree[*t] || *t == i)
                        })
                        .count() as i32;
                    (
                        leaves[i].null_dep,
                        acc_est * leaves[i].est * JOIN_SELECTIVITY.powi(edges),
                    )
                };
                cost(a).partial_cmp(&cost(b)).expect("estimates are finite")
            })
            .expect("candidates non-empty");
        let edges = joinable
            .iter()
            .filter(|c| {
                let touched = edge_leaves(c, &leaves);
                touched.contains(&next) && touched.iter().all(|t| in_tree[*t] || *t == next)
            })
            .count() as i32;
        acc_est = (acc_est * leaves[next].est * JOIN_SELECTIVITY.powi(edges)).max(1.0);
        chosen.push(next);
        in_tree[next] = true;
    }

    // Rebuild: left-deep products, each conjunct applied at the first point
    // all of its leaves are available, positions remapped to the new layout.
    let mut new_pos: BTreeMap<usize, usize> = BTreeMap::new();
    let mut applied = vec![false; joinable.len()];
    let mut tree: Option<RaExpr> = None;
    let mut width = 0usize;
    for &li in &chosen {
        let leaf = &leaves[li];
        for a in 0..leaf.arity {
            new_pos.insert(leaf.start + a, width + a);
        }
        width += leaf.arity;
        tree = Some(match tree {
            None => leaf.expr.clone(),
            Some(acc) => acc.product(leaf.expr.clone()),
        });
        let ready: Vec<Condition> = joinable
            .iter()
            .zip(applied.iter_mut())
            .filter(|(c, done)| {
                !**done && condition_attrs(c).iter().all(|a| new_pos.contains_key(a))
            })
            .map(|(c, done)| {
                *done = true;
                remap_condition(c, &new_pos)
            })
            .collect();
        tree = Some(apply_conjuncts(tree.expect("just set"), ready));
    }
    let mut out = tree.expect("cluster has leaves");
    // Every conjunct was placed: attribute-free ones are vacuously ready at
    // the first leaf, and the last leaf completes every attribute set.
    debug_assert!(applied.iter().all(|done| *done));
    // Restore the original column order.
    let restore: Vec<usize> = (0..total_arity).map(|orig| new_pos[&orig]).collect();
    if restore.iter().enumerate().any(|(i, &p)| i != p) {
        out = out.project(restore);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Pass 3: projection pushdown (dead-column pruning)
// ---------------------------------------------------------------------------

/// Return an expression computing exactly the `needed` columns of `expr`,
/// in ascending original-position order. `needed` must be non-empty unless
/// the caller genuinely wants an arity-0 (boolean) result.
fn prune(expr: &RaExpr, needed: &BTreeSet<usize>, schema: &Schema) -> Result<RaExpr> {
    let arity = expr.arity(schema)?;
    let full = needed.len() == arity;
    match expr {
        RaExpr::Relation(_) | RaExpr::Literal(_) | RaExpr::DomPower(_) => Ok(if full {
            expr.clone()
        } else {
            expr.clone()
                .project(needed.iter().copied().collect::<Vec<_>>())
        }),
        RaExpr::Select(e, cond) => {
            let mut child_needed: BTreeSet<usize> = needed.clone();
            child_needed.extend(condition_attrs(cond));
            let child = prune(e, &child_needed, schema)?;
            let rank: BTreeMap<usize, usize> = child_needed
                .iter()
                .copied()
                .enumerate()
                .map(|(i, p)| (p, i))
                .collect();
            let mut out = child.select(remap_condition(cond, &rank));
            if needed.len() < child_needed.len() {
                out = out.project(needed.iter().map(|p| rank[p]).collect::<Vec<_>>());
            }
            Ok(out)
        }
        RaExpr::Project(e, positions) => {
            let child_needed: BTreeSet<usize> = needed.iter().map(|&i| positions[i]).collect();
            let child = prune(e, &child_needed, schema)?;
            let rank: BTreeMap<usize, usize> = child_needed
                .iter()
                .copied()
                .enumerate()
                .map(|(i, p)| (p, i))
                .collect();
            let new_positions: Vec<usize> = needed.iter().map(|&i| rank[&positions[i]]).collect();
            let child_arity = child_needed.len();
            if new_positions.len() == child_arity
                && new_positions.iter().enumerate().all(|(i, &p)| i == p)
            {
                Ok(child)
            } else {
                Ok(child.project(new_positions))
            }
        }
        RaExpr::Product(l, r) => {
            let left_arity = l.arity(schema)?;
            let left_needed: BTreeSet<usize> =
                needed.iter().copied().filter(|&p| p < left_arity).collect();
            let right_needed: BTreeSet<usize> = needed
                .iter()
                .copied()
                .filter(|&p| p >= left_arity)
                .map(|p| p - left_arity)
                .collect();
            Ok(prune(l, &left_needed, schema)?.product(prune(r, &right_needed, schema)?))
        }
        RaExpr::Union(l, r) => {
            // Both children emit `needed` in the same ascending order, so
            // the union stays positionally aligned.
            Ok(prune(l, needed, schema)?.union(prune(r, needed, schema)?))
        }
        RaExpr::Intersect(..)
        | RaExpr::Difference(..)
        | RaExpr::Divide(..)
        | RaExpr::AntiSemiJoinUnify(..) => {
            // These compare whole tuples: children keep every column, and
            // the narrowing happens above the node.
            let inner = match expr {
                RaExpr::Intersect(l, r) => prune_full(l, schema)?.intersect(prune_full(r, schema)?),
                RaExpr::Difference(l, r) => {
                    prune_full(l, schema)?.difference(prune_full(r, schema)?)
                }
                RaExpr::Divide(l, r) => prune_full(l, schema)?.divide(prune_full(r, schema)?),
                RaExpr::AntiSemiJoinUnify(l, r) => {
                    prune_full(l, schema)?.anti_semijoin_unify(prune_full(r, schema)?)
                }
                _ => unreachable!("outer match covers these variants"),
            };
            Ok(if full {
                inner
            } else {
                inner.project(needed.iter().copied().collect::<Vec<_>>())
            })
        }
    }
}

/// Prune an expression keeping all of its columns (recursing to clean up
/// nested projections).
fn prune_full(expr: &RaExpr, schema: &Schema) -> Result<RaExpr> {
    let arity = expr.arity(schema)?;
    let all: BTreeSet<usize> = (0..arity).collect();
    prune(expr, &all, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{plan, PhysOp};
    use certa_data::{database_from_literal, tup, Value};

    fn db() -> Database {
        database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![tup![1, 2], tup![1, 3], tup![2, 2], tup![3, Value::null(0)]],
            ),
            ("S", vec!["c"], vec![tup![2], tup![3]]),
            ("T", vec!["d", "e"], vec![tup![2, 5], tup![3, 6]]),
        ])
    }

    fn assert_equivalent(q: &RaExpr, d: &Database) {
        let opt = optimize(q, d.schema()).unwrap();
        let base = crate::eval::eval(q, d).unwrap();
        let fast = crate::eval::eval(&opt, d).unwrap();
        assert_eq!(base, fast, "query {q} optimized to {opt}");
    }

    #[test]
    fn pushdown_moves_single_side_conjuncts_below_product() {
        let d = db();
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(Condition::eq_const(0, 1).and(Condition::eq_attr(1, 2)));
        let opt = optimize(&q, d.schema()).unwrap();
        // The σ(a=1) must sit on R, below the product.
        let txt = opt.to_string();
        assert!(
            txt.contains("σ[#0 = 1](R)") || txt.contains("σ[#0 = 1](π"),
            "expected pushed selection in {txt}"
        );
        assert_equivalent(&q, &d);
    }

    #[test]
    fn pushdown_distributes_over_union_and_projection() {
        let d = db();
        let q = RaExpr::rel("R")
            .project(vec![1, 0])
            .union(RaExpr::rel("R"))
            .select(Condition::eq_const(1, 2));
        assert_equivalent(&q, &d);
        let opt = optimize(&q, d.schema()).unwrap();
        assert!(
            !matches!(opt, RaExpr::Select(..)),
            "selection should have moved inside the union: {opt}"
        );
    }

    #[test]
    fn pushdown_enters_left_of_difference_only() {
        let d = db();
        let q = RaExpr::rel("R")
            .project(vec![0])
            .difference(RaExpr::rel("S"))
            .select(Condition::neq_const(0, 2));
        assert_equivalent(&q, &d);
        let opt = optimize(&q, d.schema()).unwrap();
        match &opt {
            RaExpr::Difference(l, r) => {
                assert!(l.to_string().contains('σ'), "left side filtered: {l}");
                assert!(!r.to_string().contains('σ'), "right side untouched: {r}");
            }
            other => panic!("expected difference at root, got {other}"),
        }
    }

    #[test]
    fn reorder_produces_hash_joins_for_three_way_cluster() {
        let d = db();
        // As lowered from SQL: one big σ above a product chain.
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .product(RaExpr::rel("T"))
            .select(Condition::eq_attr(1, 2).and(Condition::eq_attr(2, 3)))
            .project(vec![0, 4]);
        assert_equivalent(&q, &d);
        let opt = optimize(&q, d.schema()).unwrap();
        let phys = plan(&opt, d.schema()).unwrap();
        fn count_ops(op: &PhysOp, joins: &mut usize, products: &mut usize) {
            match op {
                PhysOp::HashJoin { left, right, .. } => {
                    *joins += 1;
                    count_ops(left, joins, products);
                    count_ops(right, joins, products);
                }
                PhysOp::Product(l, r) => {
                    *products += 1;
                    count_ops(l, joins, products);
                    count_ops(r, joins, products);
                }
                PhysOp::Select(e, _) | PhysOp::Project(e, _) => count_ops(e, joins, products),
                _ => {}
            }
        }
        let (mut joins, mut products) = (0, 0);
        count_ops(&phys, &mut joins, &mut products);
        assert_eq!(joins, 2, "both equi-conjuncts become hash joins: {phys:?}");
        assert_eq!(products, 0, "no cross product survives: {phys:?}");
    }

    #[test]
    fn null_aware_order_clusters_complete_relations_first() {
        // R carries the null; the greedy order must join S ⋈ T first so the
        // null-free prefix is maximal.
        let d = db();
        let stats = Stats::from_database(&d);
        assert!(stats.has_nulls("R"));
        assert!(!stats.has_nulls("S"));
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .product(RaExpr::rel("T"))
            .select(Condition::eq_attr(1, 2).and(Condition::eq_attr(2, 3)));
        let opt = optimize_with(&q, d.schema(), &stats).unwrap();
        // The first (deepest-left) leaf must be null-free.
        fn leftmost(expr: &RaExpr) -> &RaExpr {
            match expr {
                RaExpr::Product(l, _) => leftmost(l),
                RaExpr::Select(e, _) | RaExpr::Project(e, _) => leftmost(e),
                other => other,
            }
        }
        let first = leftmost(&opt);
        assert!(
            !stats.null_dependent(first),
            "leftmost leaf {first} should be null-free in {opt}"
        );
        assert_equivalent(&q, &d);
    }

    #[test]
    fn pruning_drops_dead_columns_below_joins() {
        let d = db();
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("T"))
            .select(Condition::eq_attr(1, 2))
            .project(vec![0]);
        let opt = optimize(&q, d.schema()).unwrap();
        // T's second column is dead: some projection must narrow T before
        // the join.
        let txt = opt.to_string();
        assert!(
            txt.contains("π[0](T)"),
            "expected T pruned to its join column in {txt}"
        );
        assert_equivalent(&q, &d);
    }

    #[test]
    fn optimizer_is_identity_safe_on_extended_operators() {
        let d = db();
        let queries = [
            RaExpr::rel("R").divide(RaExpr::rel("S")),
            RaExpr::rel("R")
                .project(vec![0])
                .anti_semijoin_unify(RaExpr::rel("S")),
            RaExpr::DomPower(2),
            RaExpr::rel("R")
                .project(vec![0])
                .intersect(RaExpr::rel("S"))
                .select(Condition::neq_const(0, 3)),
        ];
        for q in queries {
            assert_equivalent(&q, &d);
        }
    }

    #[test]
    fn optimizer_handles_empty_projection() {
        let d = db();
        let q = RaExpr::rel("R")
            .select(Condition::eq_const(0, 1))
            .project(Vec::new());
        assert_equivalent(&q, &d);
    }

    #[test]
    fn optimizer_preserves_bag_multiplicities() {
        let d = db();
        let bags = d.to_bags();
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(Condition::eq_attr(1, 2))
            .project(vec![0]);
        let opt = optimize(&q, d.schema()).unwrap();
        let base = crate::bag_eval::eval_bag(&q, &bags).unwrap();
        let fast = crate::bag_eval::eval_bag(&opt, &bags).unwrap();
        assert_eq!(base, fast);
    }

    #[test]
    fn optimizer_is_deterministic() {
        let d = db();
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .product(RaExpr::rel("T"))
            .select(Condition::eq_attr(1, 2).and(Condition::eq_attr(2, 3)));
        let a = optimize(&q, d.schema()).unwrap();
        let b = optimize(&q, d.schema()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_report_cardinalities_and_nulls() {
        let d = db();
        let stats = Stats::from_database(&d);
        assert!(stats.has_nulls("R"));
        assert!(!stats.has_nulls("S"));
        assert!(stats.null_dependent(&RaExpr::rel("R").project(vec![0])));
        assert!(!stats.null_dependent(&RaExpr::rel("S")));
        assert!(stats.null_dependent(&RaExpr::DomPower(1)));
    }
}
