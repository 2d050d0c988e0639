//! The annotation-generic physical evaluation engine.
//!
//! The survey's three evaluation semantics — sets (§4), bags (§5/SQL) and
//! conditional tables (§3/§4.2) — are the *same* relational-algebra
//! evaluation instantiated over different annotation domains: a tuple is
//! annotated with its *presence* (sets), its *multiplicity* (bags) or its
//! *local condition* (c-tables), and each algebra operator combines
//! annotations with domain operations that form a commutative-semiring-style
//! structure:
//!
//! | operator | annotation operation |
//! |---|---|
//! | union, duplicate-collapsing projection | [`Annotation::plus`] |
//! | product, join | [`Annotation::times`] |
//! | intersection | [`Annotation::meet`] |
//! | difference | [`Annotation::monus`] |
//! | selection σ_θ | [`Annotation::select`] |
//!
//! This module implements that evaluation **once**, as a pipeline of
//! physical operators over [`AnnRel`] (a vector of annotated rows), and the
//! public evaluators — [`crate::eval::eval`], [`crate::bag_eval::eval_bag`]
//! and `certa_ctables::eval_conditional` — are thin adapters that pick an
//! annotation domain and convert the result back to their legacy types.
//!
//! Compared with the seed's clone-per-node tree-walking interpreters, the
//! engine:
//!
//! * plans `σ_θ(E₁ × E₂)` with equi-join conjuncts into a **hash join**
//!   ([`PhysOp::HashJoin`]), probing a [`certa_data::KeyIndex`] instead of
//!   materialising the product (rows whose key involves a null fall back to
//!   symbolic pairing when the domain demands it, see
//!   [`Annotation::SYMBOLIC_NULLS`]); the *null-wildcard* equalities
//!   `l = r ∨ null(l) ∨ null(r)` that the `(Q+, Q?)` rewriting makes of
//!   equi-joins hash too, with null-bearing rows paired symbolically;
//! * pushes selections into scans ([`PhysOp::Scan`]'s `filter`), so
//!   filtered-out base tuples are never materialised;
//! * moves intermediate results through operators by value — no
//!   `BTreeSet` is rebuilt per operator node;
//! * resolves intersection and difference by hash lookup on the full tuple
//!   rather than by pairwise scans.
//!
//! Adding a new annotation domain (provenance polynomials, access levels,
//! probabilities, …) means implementing [`Annotation`] and a [`Source`];
//! every operator, the planner and the hash-join fast path come for free.
//! See `ARCHITECTURE.md` for the full design discussion.

use crate::expr::{Condition, Operand, RaExpr};
use crate::{AlgebraError, Result};
use certa_data::index::{extract_key, key_has_null, KeyIndex};
use certa_data::{BagDatabase, BagRelation, Database, Relation, Schema, Tuple, Valuation, Value};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// An annotation domain: the commutative-semiring-style structure an
/// evaluation semantics attaches to tuples.
///
/// Laws expected by the engine (for rows that survive, i.e. non-[`is_zero`]
/// annotations): `plus` and `times` are commutative and associative with
/// units `zero`/[`one`]; `times` distributes over `plus`; `select` with
/// [`Condition::True`] is the identity. Domains whose duplicate rows carry
/// independent information (c-tables) opt out of duplicate merging via
/// [`MERGE_DUPLICATES`].
///
/// The engine evaluates the extended operators (÷, `Domᵏ`, `⋉⇑`) on tuple
/// support alone, the same way in every domain; a domain opts out of them
/// with [`SUPPORTS_EXTENDED`].
///
/// [`is_zero`]: Annotation::is_zero
/// [`one`]: Annotation::one
/// [`MERGE_DUPLICATES`]: Annotation::MERGE_DUPLICATES
/// [`SUPPORTS_EXTENDED`]: Annotation::SUPPORTS_EXTENDED
pub trait Annotation: Clone + Sized {
    /// Whether equal tuples should be merged with [`Annotation::plus`]
    /// (sets, bags) or kept as separate rows (c-tables, where two rows with
    /// the same tuple but different conditions are distinct information).
    const MERGE_DUPLICATES: bool;

    /// Whether join keys containing marked nulls must bypass the syntactic
    /// hash path and be paired *symbolically* through
    /// [`Annotation::select`]. Set- and bag-semantics compare nulls
    /// syntactically (⊥ᵢ = ⊥ᵢ), so they hash everything; conditional
    /// evaluation keeps `⊥ᵢ = c` as a symbolic condition instead.
    const SYMBOLIC_NULLS: bool;

    /// Whether the extended operators (÷, `Domᵏ`, `⋉⇑`), which are defined
    /// on tuple *support* only, make sense in this domain. ÷ and `Domᵏ`
    /// annotate their rows with [`Annotation::one`]; `⋉⇑` keeps the left
    /// annotations. Domains without support reject all three.
    const SUPPORTS_EXTENDED: bool;

    /// The annotation of an unconditionally present base tuple.
    fn one() -> Self;

    /// `true` iff the annotation is absorbing — the row carries no
    /// information and is dropped.
    fn is_zero(&self) -> bool;

    /// Merge the annotations of two copies of the same tuple
    /// (union, duplicate-collapsing projection).
    fn plus(&mut self, other: Self);

    /// Combine annotations across a join or product.
    fn times(&self, other: &Self) -> Self;

    /// Combine annotations for intersection. Defaults to [`times`]
    /// (presence ∧ presence); bags override with `min`.
    ///
    /// [`times`]: Annotation::times
    fn meet(&self, other: &Self) -> Self {
        self.times(other)
    }

    /// Remove `other`'s contribution for difference: the annotation of a
    /// left row whose tuple also appears on the right with annotation
    /// `other`.
    fn monus(&self, other: &Self) -> Self;

    /// Evaluate a selection condition against the row's tuple, scaling the
    /// annotation (to zero when the condition rejects the row; to a
    /// symbolic condition under conditional semantics).
    fn select(&self, cond: &Condition, tuple: &Tuple) -> Self;

    /// Difference `left − right`. The default resolves matches by hash
    /// lookup on the full tuple (syntactic equality) and combines with
    /// [`Annotation::monus`]; conditional semantics overrides this with
    /// unification-aware symbolic matching.
    ///
    /// The default requires [`MERGE_DUPLICATES`] (at most one right-side
    /// row per tuple); non-merging domains must override it, as the
    /// hash lookup would silently drop duplicate rows' contributions.
    ///
    /// [`MERGE_DUPLICATES`]: Annotation::MERGE_DUPLICATES
    fn difference(left: AnnRel<Self>, right: &AnnRel<Self>) -> AnnRel<Self> {
        debug_assert!(
            Self::MERGE_DUPLICATES,
            "default Annotation::difference requires duplicate-merged rows; override it"
        );
        let map = right.tuple_map();
        let mut out = AnnRel::new(left.arity());
        for (t, a) in left.rows {
            let ann = match map.get(&t) {
                Some(b) => a.monus(b),
                None => a,
            };
            out.push(t, ann);
        }
        out
    }

    /// Intersection `left ∩ right`. The default resolves matches by hash
    /// lookup on the full tuple and combines with [`Annotation::meet`];
    /// conditional semantics overrides this with pairwise symbolic
    /// matching.
    ///
    /// Like [`Annotation::difference`], the default requires
    /// [`MERGE_DUPLICATES`]; non-merging domains must override it.
    ///
    /// [`MERGE_DUPLICATES`]: Annotation::MERGE_DUPLICATES
    fn intersect(left: AnnRel<Self>, right: &AnnRel<Self>) -> AnnRel<Self> {
        debug_assert!(
            Self::MERGE_DUPLICATES,
            "default Annotation::intersect requires duplicate-merged rows; override it"
        );
        let map = right.tuple_map();
        let mut out = AnnRel::new(left.arity());
        for (t, a) in left.rows {
            if let Some(b) = map.get(&t) {
                let ann = a.meet(b);
                out.push(t, ann);
            }
        }
        out
    }
}

/// Set-semantics annotation: presence. `times`/`meet` are conjunction,
/// `plus` is disjunction, and difference zeroes a row whose tuple appears on
/// the right — reproducing [`certa_data::Relation`]'s set operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetAnn(pub bool);

impl Annotation for SetAnn {
    const MERGE_DUPLICATES: bool = true;
    const SYMBOLIC_NULLS: bool = false;
    const SUPPORTS_EXTENDED: bool = true;

    fn one() -> Self {
        SetAnn(true)
    }

    fn is_zero(&self) -> bool {
        !self.0
    }

    fn plus(&mut self, other: Self) {
        self.0 |= other.0;
    }

    fn times(&self, other: &Self) -> Self {
        SetAnn(self.0 && other.0)
    }

    fn monus(&self, other: &Self) -> Self {
        SetAnn(self.0 && !other.0)
    }

    fn select(&self, cond: &Condition, tuple: &Tuple) -> Self {
        SetAnn(self.0 && cond.eval(tuple))
    }
}

/// Bag-semantics annotation: multiplicity. `plus` adds (`UNION ALL`),
/// `times` multiplies (products), `meet` takes the minimum
/// (`INTERSECT ALL`) and `monus` subtracts down to zero (`EXCEPT ALL`),
/// reproducing [`certa_data::BagRelation`]'s operations (§5 of the survey).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BagAnn(pub usize);

impl Annotation for BagAnn {
    const MERGE_DUPLICATES: bool = true;
    const SYMBOLIC_NULLS: bool = false;
    const SUPPORTS_EXTENDED: bool = true;

    fn one() -> Self {
        BagAnn(1)
    }

    fn is_zero(&self) -> bool {
        self.0 == 0
    }

    fn plus(&mut self, other: Self) {
        self.0 += other.0;
    }

    fn times(&self, other: &Self) -> Self {
        BagAnn(self.0 * other.0)
    }

    fn meet(&self, other: &Self) -> Self {
        BagAnn(self.0.min(other.0))
    }

    fn monus(&self, other: &Self) -> Self {
        BagAnn(self.0.saturating_sub(other.0))
    }

    fn select(&self, cond: &Condition, tuple: &Tuple) -> Self {
        if cond.eval(tuple) {
            *self
        } else {
            BagAnn(0)
        }
    }
}

/// A relation annotated over a domain `A`: a fixed arity plus rows of
/// `(tuple, annotation)` pairs. Rows with zero annotations are never stored.
#[derive(Debug, Clone)]
pub struct AnnRel<A> {
    arity: usize,
    rows: Vec<(Tuple, A)>,
}

impl<A: Annotation> AnnRel<A> {
    /// An empty annotated relation of the given arity.
    pub fn new(arity: usize) -> Self {
        AnnRel {
            arity,
            rows: Vec::new(),
        }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows.
    pub fn rows(&self) -> &[(Tuple, A)] {
        &self.rows
    }

    /// Consume the relation, yielding its rows.
    pub fn into_rows(self) -> Vec<(Tuple, A)> {
        self.rows
    }

    /// Append a row, dropping it if the annotation is zero.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn push(&mut self, tuple: Tuple, ann: A) {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "AnnRel::push: arity mismatch (relation {}, tuple {})",
            self.arity,
            tuple.arity()
        );
        if !ann.is_zero() {
            self.rows.push((tuple, ann));
        }
    }

    /// Collapse duplicate tuples with [`Annotation::plus`] when the domain
    /// merges duplicates; a no-op otherwise.
    fn merged(mut self) -> Self {
        if !A::MERGE_DUPLICATES || self.rows.len() < 2 {
            return self;
        }
        let mut map: HashMap<Tuple, A> = HashMap::with_capacity(self.rows.len());
        for (t, a) in self.rows.drain(..) {
            match map.entry(t) {
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().plus(a),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(a);
                }
            }
        }
        self.rows = map.into_iter().filter(|(_, a)| !a.is_zero()).collect();
        self
    }

    /// Hash map from tuple to annotation (duplicate-merged domains only;
    /// used by the default difference/intersection).
    fn tuple_map(&self) -> HashMap<&Tuple, &A> {
        self.rows.iter().map(|(t, a)| (t, a)).collect()
    }

    /// The support: distinct tuples with non-zero annotations, as a plain
    /// set relation.
    pub fn support(&self) -> Relation {
        Relation::with_arity(self.arity, self.rows.iter().map(|(t, _)| t.clone()))
    }
}

/// A provider of annotated base relations: the database type an annotation
/// domain evaluates over.
pub trait Source<A: Annotation> {
    /// Scan a base relation, applying a pushed-down selection while
    /// converting (filtered-out rows are never materialised).
    ///
    /// # Errors
    ///
    /// Returns an error if the relation does not exist.
    fn scan(&self, name: &str, filter: Option<&Condition>) -> Result<AnnRel<A>>;

    /// The active domain (for the `Domᵏ` extended operator).
    fn active_domain(&self) -> Vec<Value>;
}

/// Set-semantics source: a [`Database`] scanned with [`SetAnn`] presence.
pub struct SetSource<'a>(pub &'a Database);

impl Source<SetAnn> for SetSource<'_> {
    fn scan(&self, name: &str, filter: Option<&Condition>) -> Result<AnnRel<SetAnn>> {
        let rel = self
            .0
            .relation(name)
            .map_err(|_| AlgebraError::UnknownRelation(name.to_string()))?;
        let mut out = AnnRel::new(rel.arity());
        for t in rel.iter() {
            if filter.is_none_or(|c| c.eval(t)) {
                out.push(t.clone(), SetAnn::one());
            }
        }
        Ok(out)
    }

    fn active_domain(&self) -> Vec<Value> {
        self.0.active_domain().into_iter().collect()
    }
}

/// Bag-semantics source: a [`BagDatabase`] scanned with [`BagAnn`]
/// multiplicities.
pub struct BagSource<'a>(pub &'a BagDatabase);

impl Source<BagAnn> for BagSource<'_> {
    fn scan(&self, name: &str, filter: Option<&Condition>) -> Result<AnnRel<BagAnn>> {
        let rel = self
            .0
            .relation(name)
            .map_err(|_| AlgebraError::UnknownRelation(name.to_string()))?;
        let mut out = AnnRel::new(rel.arity());
        for (t, n) in rel.iter() {
            if filter.is_none_or(|c| c.eval(t)) {
                out.push(t.clone(), BagAnn(n));
            }
        }
        Ok(out)
    }

    fn active_domain(&self) -> Vec<Value> {
        self.0.active_domain().into_iter().collect()
    }
}

/// A *zero-copy* set-semantics source presenting "base database +
/// valuation" as if it were the possible world `v(D)`: nulls are substituted
/// tuple-by-tuple **during the scan**, so evaluating a query over many
/// worlds never clones or materialises the database.
///
/// Substitution can collapse distinct base tuples into one (e.g. `⊥₀ ↦ 1`
/// collapses `R(⊥₀)` and `R(1)`). The scan does **not** pay to deduplicate:
/// under set semantics duplicate rows carry the same idempotent presence
/// annotation, every merging operator collapses them, and the final
/// [`Relation`] is a set — so results equal those over the materialised
/// `v(D)` while null-free tuples stream through without substitution.
pub struct ValuationSource<'a> {
    db: &'a Database,
    valuation: &'a Valuation,
}

impl<'a> ValuationSource<'a> {
    /// View `db` under `valuation` without materialising `v(D)`.
    pub fn new(db: &'a Database, valuation: &'a Valuation) -> Self {
        ValuationSource { db, valuation }
    }
}

impl Source<SetAnn> for ValuationSource<'_> {
    fn scan(&self, name: &str, filter: Option<&Condition>) -> Result<AnnRel<SetAnn>> {
        let rel = self
            .db
            .relation(name)
            .map_err(|_| AlgebraError::UnknownRelation(name.to_string()))?;
        let mut out = AnnRel::new(rel.arity());
        for t in rel.iter() {
            if t.has_null() {
                let t = self.valuation.apply_tuple(t);
                if filter.is_none_or(|c| c.eval(&t)) {
                    out.push(t, SetAnn::one());
                }
            } else if filter.is_none_or(|c| c.eval(t)) {
                out.push(t.clone(), SetAnn::one());
            }
        }
        Ok(out)
    }

    fn active_domain(&self) -> Vec<Value> {
        // dom(v(D)) = { v(x) | x ∈ dom(D) }: map and re-deduplicate.
        let domain: BTreeSet<Value> = self
            .db
            .active_domain()
            .iter()
            .map(|v| self.valuation.apply_value(v))
            .collect();
        domain.into_iter().collect()
    }
}

/// The bag-semantics counterpart of [`ValuationSource`]: multiplicities of
/// tuples that collapse under the valuation are *added*, which is the
/// reading consistent with SQL evaluation on the instance `v(D)`
/// (the semantics of [`BagDatabase::map_values_add`]).
pub struct BagValuationSource<'a> {
    db: &'a BagDatabase,
    valuation: &'a Valuation,
}

impl<'a> BagValuationSource<'a> {
    /// View `db` under `valuation` without materialising `v(D)`.
    pub fn new(db: &'a BagDatabase, valuation: &'a Valuation) -> Self {
        BagValuationSource { db, valuation }
    }
}

impl Source<BagAnn> for BagValuationSource<'_> {
    fn scan(&self, name: &str, filter: Option<&Condition>) -> Result<AnnRel<BagAnn>> {
        let rel = self
            .db
            .relation(name)
            .map_err(|_| AlgebraError::UnknownRelation(name.to_string()))?;
        let mut out = AnnRel::new(rel.arity());
        if self.valuation.is_empty() || rel.is_complete() {
            // Nothing can be substituted, so nothing can collapse: stream
            // the rows without the per-scan hash merge.
            for (t, n) in rel.iter() {
                if filter.is_none_or(|c| c.eval(t)) {
                    out.push(t.clone(), BagAnn(n));
                }
            }
            return Ok(out);
        }
        // Merge collapsing tuples during the scan (unlike sets, bags must
        // *add* the multiplicities of tuples the valuation identifies, and
        // downstream difference/intersection rely on at most one row per
        // tuple in merged domains).
        let mut counts: HashMap<Tuple, usize> = HashMap::new();
        for (t, n) in rel.iter() {
            let t = self.valuation.apply_tuple(t);
            if filter.is_none_or(|c| c.eval(&t)) {
                *counts.entry(t).or_insert(0) += n;
            }
        }
        for (t, n) in counts {
            out.push(t, BagAnn(n));
        }
        Ok(out)
    }

    fn active_domain(&self) -> Vec<Value> {
        let domain: BTreeSet<Value> = self
            .db
            .active_domain()
            .iter()
            .map(|v| self.valuation.apply_value(v))
            .collect();
        domain.into_iter().collect()
    }
}

/// The operator kind an executed node reported to the evaluation hook —
/// conditional evaluation uses this to decide where each grounding strategy
/// normalises (e.g. the lazy strategy grounds after differences only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Base-relation scan (possibly with a pushed-down selection).
    Scan,
    /// Literal relation.
    Literal,
    /// Selection σ_θ.
    Select,
    /// Projection π.
    Project,
    /// Hash join (a fused σ×).
    Join,
    /// Cartesian product.
    Product,
    /// Union.
    Union,
    /// Intersection.
    Intersect,
    /// Difference.
    Difference,
    /// Division.
    Divide,
    /// Active-domain power.
    DomPower,
    /// Unification anti-semijoin.
    AntiSemiJoinUnify,
    /// A hoisted subplan spliced in from a world-invariant cache.
    Cached,
}

/// A physical operator tree, produced by [`plan`] from an [`RaExpr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysOp {
    /// Scan of a base relation with an optional pushed-down selection.
    Scan {
        /// Relation name.
        name: String,
        /// Selection applied while scanning.
        filter: Option<Condition>,
    },
    /// A literal relation.
    Literal(Relation),
    /// Selection over a sub-plan.
    Select(Box<PhysOp>, Condition),
    /// Projection onto positions.
    Project(Box<PhysOp>, Vec<usize>),
    /// Hash equi-join: the fusion of `σ_θ(L × R)` where `θ` contains
    /// equality conjuncts between the two sides.
    HashJoin {
        /// Left input.
        left: Box<PhysOp>,
        /// Right input.
        right: Box<PhysOp>,
        /// Arity of the left input (key positions on the right are relative
        /// to the right input).
        left_arity: usize,
        /// Equi-join key pairs `(left position, right position)`.
        pairs: Vec<(usize, usize)>,
        /// Null-wildcard key pairs `(left position, right position)`: the
        /// conjuncts `l = r ∨ null(l) ∨ null(r)`. A row with a null in one
        /// of these columns pairs with the whole other side through `on`
        /// (in every domain); every other row hashes on them.
        wildcard: Vec<(usize, usize)>,
        /// Conjuncts of `θ` that are neither key kind, applied to the
        /// concatenated tuple.
        residual: Condition,
        /// The original `θ`, applied whole to symbolically-paired rows.
        on: Condition,
    },
    /// Cartesian product.
    Product(Box<PhysOp>, Box<PhysOp>),
    /// Union.
    Union(Box<PhysOp>, Box<PhysOp>),
    /// Intersection.
    Intersect(Box<PhysOp>, Box<PhysOp>),
    /// Difference.
    Difference(Box<PhysOp>, Box<PhysOp>),
    /// Division (extended; support-based).
    Divide(Box<PhysOp>, Box<PhysOp>),
    /// Active-domain power (extended; support-based).
    DomPower(usize),
    /// Unification anti-semijoin (extended; support-based).
    AntiSemiJoinUnify(Box<PhysOp>, Box<PhysOp>),
    /// A slot of a materialised world-invariant cache: the subplan
    /// originally here depends on no null-bearing relation (and not on the
    /// active domain), so [`PreparedWorldQuery`] evaluated it **once** and
    /// every per-world execution splices the stored rows in.
    Cached {
        /// Index into the [`PreparedWorldQuery`]'s hoisted-subplan list.
        slot: usize,
    },
}

impl PhysOp {
    /// The operator's span name for tracing: a `'static` kind tag
    /// (`"op:Scan"`, …) so opening a span allocates nothing.
    pub fn span_name(&self) -> &'static str {
        match self {
            PhysOp::Scan { .. } => "op:Scan",
            PhysOp::Literal(_) => "op:Literal",
            PhysOp::Select(..) => "op:Select",
            PhysOp::Project(..) => "op:Project",
            PhysOp::HashJoin { .. } => "op:HashJoin",
            PhysOp::Product(..) => "op:Product",
            PhysOp::Union(..) => "op:Union",
            PhysOp::Intersect(..) => "op:Intersect",
            PhysOp::Difference(..) => "op:Difference",
            PhysOp::Divide(..) => "op:Divide",
            PhysOp::DomPower(_) => "op:DomPower",
            PhysOp::AntiSemiJoinUnify(..) => "op:AntiSemiJoinUnify",
            PhysOp::Cached { .. } => "op:Cached",
        }
    }

    /// This node's header as a single line — the same text [`fmt::Display`]
    /// prints for it, without the subtree. Used as the span `detail` so
    /// `EXPLAIN ANALYZE` can annotate the rendered plan line by line.
    pub fn label(&self) -> String {
        let rendered = self.to_string();
        rendered.lines().next().unwrap_or_default().to_string()
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            PhysOp::Scan { name, filter } => match filter {
                Some(cond) => writeln!(f, "{pad}Scan {name} σ[{cond}]"),
                None => writeln!(f, "{pad}Scan {name}"),
            },
            PhysOp::Literal(rel) => writeln!(f, "{pad}Literal ({} tuples)", rel.len()),
            PhysOp::Select(e, cond) => {
                writeln!(f, "{pad}Select σ[{cond}]")?;
                e.render(f, indent + 1)
            }
            PhysOp::Project(e, positions) => {
                writeln!(f, "{pad}Project π{positions:?}")?;
                e.render(f, indent + 1)
            }
            PhysOp::HashJoin {
                left,
                right,
                pairs,
                wildcard,
                residual,
                ..
            } => {
                write!(f, "{pad}HashJoin on ")?;
                let keys = pairs
                    .iter()
                    .map(|p| (p, ""))
                    .chain(wildcard.iter().map(|p| (p, " (∨ nulls)")));
                for (i, ((l, r), nulls)) in keys.enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "#{l} = right.#{r}{nulls}")?;
                }
                if *residual != crate::expr::Condition::True {
                    write!(f, " residual [{residual}]")?;
                }
                writeln!(f)?;
                left.render(f, indent + 1)?;
                right.render(f, indent + 1)
            }
            PhysOp::Product(l, r) => {
                writeln!(f, "{pad}Product ×")?;
                l.render(f, indent + 1)?;
                r.render(f, indent + 1)
            }
            PhysOp::Union(l, r) => {
                writeln!(f, "{pad}Union ∪")?;
                l.render(f, indent + 1)?;
                r.render(f, indent + 1)
            }
            PhysOp::Intersect(l, r) => {
                writeln!(f, "{pad}Intersect ∩")?;
                l.render(f, indent + 1)?;
                r.render(f, indent + 1)
            }
            PhysOp::Difference(l, r) => {
                writeln!(f, "{pad}Difference −")?;
                l.render(f, indent + 1)?;
                r.render(f, indent + 1)
            }
            PhysOp::Divide(l, r) => {
                writeln!(f, "{pad}Divide ÷")?;
                l.render(f, indent + 1)?;
                r.render(f, indent + 1)
            }
            PhysOp::DomPower(k) => writeln!(f, "{pad}DomPower Dom^{k}"),
            PhysOp::AntiSemiJoinUnify(l, r) => {
                writeln!(f, "{pad}AntiSemiJoinUnify ⋉⇑")?;
                l.render(f, indent + 1)?;
                r.render(f, indent + 1)
            }
            PhysOp::Cached { slot } => {
                writeln!(
                    f,
                    "{pad}Cached #{slot} (evaluated once, shared across worlds)"
                )
            }
        }
    }
}

impl fmt::Display for PhysOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// Split a condition into its top-level conjuncts (`∧`-chain leaves).
fn conjuncts(cond: &Condition, out: &mut Vec<Condition>) {
    match cond {
        Condition::And(a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Rebuild a conjunction from conjuncts (`True` when empty).
fn conjoin(conds: impl IntoIterator<Item = Condition>) -> Condition {
    conds.into_iter().fold(Condition::True, |acc, c| acc.and(c))
}

/// Translate a (validated) algebra expression into a physical plan,
/// detecting hash joins and pushing selections into scans.
///
/// # Errors
///
/// Returns an error if the expression is ill-formed for the schema (the
/// planner needs sub-expression arities to split join conditions).
pub fn plan(expr: &RaExpr, schema: &Schema) -> Result<PhysOp> {
    Ok(match expr {
        RaExpr::Relation(name) => PhysOp::Scan {
            name: name.clone(),
            filter: None,
        },
        RaExpr::Literal(rel) => PhysOp::Literal(rel.clone()),
        RaExpr::Select(e, cond) => plan_select(e, cond, schema)?,
        RaExpr::Project(e, positions) => {
            PhysOp::Project(Box::new(plan(e, schema)?), positions.clone())
        }
        RaExpr::Product(l, r) => {
            PhysOp::Product(Box::new(plan(l, schema)?), Box::new(plan(r, schema)?))
        }
        RaExpr::Union(l, r) => {
            PhysOp::Union(Box::new(plan(l, schema)?), Box::new(plan(r, schema)?))
        }
        RaExpr::Intersect(l, r) => {
            PhysOp::Intersect(Box::new(plan(l, schema)?), Box::new(plan(r, schema)?))
        }
        RaExpr::Difference(l, r) => {
            PhysOp::Difference(Box::new(plan(l, schema)?), Box::new(plan(r, schema)?))
        }
        RaExpr::Divide(l, r) => {
            PhysOp::Divide(Box::new(plan(l, schema)?), Box::new(plan(r, schema)?))
        }
        RaExpr::DomPower(k) => PhysOp::DomPower(*k),
        RaExpr::AntiSemiJoinUnify(l, r) => {
            PhysOp::AntiSemiJoinUnify(Box::new(plan(l, schema)?), Box::new(plan(r, schema)?))
        }
    })
}

/// The key pair `(left position, right position)` of an equality between
/// attributes on opposite sides of a product with a left side of
/// `left_arity` columns.
fn cross_pair(i: usize, j: usize, left_arity: usize) -> Option<(usize, usize)> {
    let (lo, hi) = (i.min(j), i.max(j));
    (lo < left_arity && hi >= left_arity).then(|| (lo, hi - left_arity))
}

/// Recognize a *null-wildcard* equality `l = r ∨ null(l) ∨ null(r)`, with
/// `l` and `r` on opposite sides of the product and the disjuncts in any
/// order or nesting — the shape `possible_condition` gives an equi-join
/// conjunct in the `Q?` translation. Returns its key pair.
fn wildcard_pair(cond: &Condition, left_arity: usize) -> Option<(usize, usize)> {
    fn disjuncts<'c>(cond: &'c Condition, out: &mut Vec<&'c Condition>) {
        match cond {
            Condition::Or(a, b) => {
                disjuncts(a, out);
                disjuncts(b, out);
            }
            other => out.push(other),
        }
    }
    let mut leaves = Vec::with_capacity(3);
    disjuncts(cond, &mut leaves);
    let mut eq = None;
    let mut tested = Vec::with_capacity(2);
    for leaf in leaves {
        match leaf {
            Condition::Eq(Operand::Attr(i), Operand::Attr(j)) if eq.is_none() => {
                eq = Some((*i, *j))
            }
            Condition::IsNull(a) => tested.push(*a),
            _ => return None,
        }
    }
    let (i, j) = eq?;
    tested.sort_unstable();
    if tested != [i.min(j), i.max(j)] {
        return None;
    }
    cross_pair(i, j, left_arity)
}

/// Plan a selection: fuse `σ_θ(L × R)` into a hash join when `θ` has
/// cross-side equality or null-wildcard conjuncts, push the filter into a
/// bare scan, or fall back to a plain select node.
fn plan_select(input: &RaExpr, cond: &Condition, schema: &Schema) -> Result<PhysOp> {
    if let RaExpr::Product(l, r) = input {
        let left_arity = l.arity(schema)?;
        let mut leaves = Vec::new();
        conjuncts(cond, &mut leaves);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut wildcard: Vec<(usize, usize)> = Vec::new();
        let mut residual: Vec<Condition> = Vec::new();
        for leaf in leaves {
            match &leaf {
                Condition::Eq(Operand::Attr(i), Operand::Attr(j)) => {
                    match cross_pair(*i, *j, left_arity) {
                        Some(pair) => pairs.push(pair),
                        None => residual.push(leaf),
                    }
                }
                Condition::Or(..) => match wildcard_pair(&leaf, left_arity) {
                    Some(pair) => wildcard.push(pair),
                    None => residual.push(leaf),
                },
                _ => residual.push(leaf),
            }
        }
        if !pairs.is_empty() || !wildcard.is_empty() {
            return Ok(PhysOp::HashJoin {
                left: Box::new(plan(l, schema)?),
                right: Box::new(plan(r, schema)?),
                left_arity,
                pairs,
                wildcard,
                residual: conjoin(residual),
                on: cond.clone(),
            });
        }
    }
    let inner = plan(input, schema)?;
    if let PhysOp::Scan { name, filter: None } = inner {
        return Ok(PhysOp::Scan {
            name,
            filter: Some(cond.clone()),
        });
    }
    Ok(PhysOp::Select(Box::new(inner), cond.clone()))
}

/// Execute a physical plan over a source, reporting every produced
/// intermediate to `hook` (which may rewrite it — conditional evaluation
/// uses this to implement the grounding strategies; set/bag evaluation
/// passes the identity).
///
/// # Errors
///
/// Returns an error on unknown relations, or on extended operators in a
/// domain that does not support them.
pub fn execute<A, S, H>(op: &PhysOp, source: &S, hook: &mut H) -> Result<AnnRel<A>>
where
    A: Annotation,
    S: Source<A>,
    H: FnMut(OpKind, AnnRel<A>) -> AnnRel<A>,
{
    execute_with_cache(op, source, hook, &[])
}

/// [`execute`] with a world-invariant cache resolving [`PhysOp::Cached`]
/// slots (produced by [`PreparedWorldQuery::materialize`]). Plans without
/// `Cached` nodes ignore the cache entirely.
///
/// # Errors
///
/// As [`execute`], plus an error when a `Cached` slot has no materialised
/// entry.
pub fn execute_with_cache<A, S, H>(
    op: &PhysOp,
    source: &S,
    hook: &mut H,
    cache: &[AnnRel<A>],
) -> Result<AnnRel<A>>
where
    A: Annotation,
    S: Source<A>,
    H: FnMut(OpKind, AnnRel<A>) -> AnnRel<A>,
{
    // Every operator is a cooperative governor boundary: an installed
    // budget can stop the plan between operators, and each output is
    // metered against the row budget below.
    crate::governor::checkpoint()?;
    crate::faultpoint!("physical::operator")?;
    // One span per operator node, opened before the children recurse so the
    // span tree mirrors the plan tree. With no ambient trace this is the
    // noop path: no clock read, no label rendering.
    let sp = certa_obs::span(op.span_name());
    let op_start = if sp.is_recording() {
        sp.detail(op.label());
        Some(std::time::Instant::now())
    } else {
        None
    };
    let (kind, rel) = match op {
        PhysOp::Cached { slot } => {
            let rel = cache
                .get(*slot)
                .cloned()
                .ok_or(AlgebraError::UnsupportedOperator(
                    "cached subplan executed without a materialised world cache",
                ))?;
            (OpKind::Cached, rel)
        }
        PhysOp::Scan { name, filter } => {
            let rel = source.scan(name, filter.as_ref())?;
            (
                if filter.is_some() {
                    OpKind::Select
                } else {
                    OpKind::Scan
                },
                rel,
            )
        }
        PhysOp::Literal(lit) => {
            let mut rel = AnnRel::new(lit.arity());
            for t in lit.iter() {
                rel.push(t.clone(), A::one());
            }
            (OpKind::Literal, rel)
        }
        PhysOp::Select(e, cond) => {
            let input = execute_with_cache(e, source, hook, cache)?;
            (OpKind::Select, select_rel(input, cond))
        }
        PhysOp::Project(e, positions) => {
            let input = execute_with_cache(e, source, hook, cache)?;
            let mut out = AnnRel::new(positions.len());
            for (t, a) in input.into_rows() {
                out.push(t.project(positions), a);
            }
            (OpKind::Project, out.merged())
        }
        PhysOp::HashJoin {
            left,
            right,
            left_arity,
            pairs,
            wildcard,
            residual,
            on,
        } => {
            let l = execute_with_cache(left, source, hook, cache)?;
            let r = execute_with_cache(right, source, hook, cache)?;
            debug_assert_eq!(l.arity(), *left_arity);
            (
                OpKind::Join,
                hash_join(&l, &r, pairs, wildcard, residual, on),
            )
        }
        PhysOp::Product(le, re) => {
            let l = execute_with_cache(le, source, hook, cache)?;
            let r = execute_with_cache(re, source, hook, cache)?;
            let mut out = AnnRel::new(l.arity() + r.arity());
            for (lt, la) in l.rows() {
                for (rt, ra) in r.rows() {
                    out.push(lt.concat(rt), la.times(ra));
                }
            }
            (OpKind::Product, out)
        }
        PhysOp::Union(le, re) => {
            let mut l = execute_with_cache(le, source, hook, cache)?;
            let r = execute_with_cache(re, source, hook, cache)?;
            for (t, a) in r.into_rows() {
                l.push(t, a);
            }
            (OpKind::Union, l.merged())
        }
        PhysOp::Intersect(le, re) => {
            let l = execute_with_cache(le, source, hook, cache)?;
            let r = execute_with_cache(re, source, hook, cache)?;
            (OpKind::Intersect, A::intersect(l, &r))
        }
        PhysOp::Difference(le, re) => {
            let l = execute_with_cache(le, source, hook, cache)?;
            let r = execute_with_cache(re, source, hook, cache)?;
            (OpKind::Difference, A::difference(l, &r))
        }
        PhysOp::Divide(le, re) => {
            let l = execute_with_cache(le, source, hook, cache)?;
            let r = execute_with_cache(re, source, hook, cache)?;
            (OpKind::Divide, divide(l, &r)?)
        }
        PhysOp::DomPower(k) => (OpKind::DomPower, dom_power(source, *k)?),
        PhysOp::AntiSemiJoinUnify(le, re) => {
            let l = execute_with_cache(le, source, hook, cache)?;
            let r = execute_with_cache(re, source, hook, cache)?;
            (OpKind::AntiSemiJoinUnify, anti_unify(l, &r)?)
        }
    };
    crate::governor::consume_rows(rel.len())?;
    let rel = hook(kind, rel);
    certa_obs::metrics().add(certa_obs::MetricId::PhysOps, 1);
    certa_obs::metrics().add(certa_obs::MetricId::PhysRows, rel.len() as u64);
    sp.add("rows", rel.len() as u64);
    if let Some(start) = op_start {
        certa_obs::metrics().observe(
            certa_obs::HistogramId::PhysOpMicros,
            start.elapsed().as_micros() as u64,
        );
    }
    Ok(rel)
}

fn require_extended<A: Annotation>(name: &'static str) -> Result<()> {
    if A::SUPPORTS_EXTENDED {
        Ok(())
    } else {
        Err(AlgebraError::UnsupportedOperator(name))
    }
}

/// Apply a selection to every row through the domain's filter hook.
fn select_rel<A: Annotation>(input: AnnRel<A>, cond: &Condition) -> AnnRel<A> {
    let mut out = AnnRel::new(input.arity());
    for (t, a) in input.into_rows() {
        let ann = a.select(cond, &t);
        out.push(t, ann);
    }
    out
}

/// Hash equi-join. Rows whose key is free of nulls (or, for domains with
/// syntactic null equality, whose wildcard key is) are matched through a
/// [`KeyIndex`] on the plain and wildcard keys together; the rest are
/// paired symbolically with the whole other side and filtered through
/// [`Annotation::select`] with the full join condition.
///
/// A null in a wildcard key column satisfies its conjunct whatever the
/// other side holds, so such a row cannot hash in any domain. Two rows with
/// constants there satisfy it exactly when the constants are equal, which
/// is what the index checks.
fn hash_join<A: Annotation>(
    left: &AnnRel<A>,
    right: &AnnRel<A>,
    pairs: &[(usize, usize)],
    wildcard: &[(usize, usize)],
    residual: &Condition,
    on: &Condition,
) -> AnnRel<A> {
    let lkeys: Vec<usize> = pairs.iter().chain(wildcard).map(|&(l, _)| l).collect();
    let rkeys: Vec<usize> = pairs.iter().chain(wildcard).map(|&(_, r)| r).collect();
    let symbolic = |t: &Tuple, keys: &[usize]| {
        let (plain, wild) = keys.split_at(pairs.len());
        (A::SYMBOLIC_NULLS && key_has_null(t, plain)) || key_has_null(t, wild)
    };
    let out_arity = left.arity() + right.arity();
    let mut out = AnnRel::new(out_arity);

    // Partition the right side: hashable rows vs. rows needing symbolic
    // pairing.
    let mut index = KeyIndex::new();
    let mut right_symbolic: Vec<usize> = Vec::new();
    for (i, (t, _)) in right.rows().iter().enumerate() {
        if symbolic(t, &rkeys) {
            right_symbolic.push(i);
        } else {
            index.insert(t, &rkeys, i);
        }
    }

    let push_symbolic = |out: &mut AnnRel<A>, lt: &Tuple, la: &A, rt: &Tuple, ra: &A| {
        let t = lt.concat(rt);
        let ann = la.times(ra).select(on, &t);
        out.push(t, ann);
    };

    for (lt, la) in left.rows() {
        if symbolic(lt, &lkeys) {
            // Symbolic left row: pair with everything on the right.
            for (rt, ra) in right.rows() {
                push_symbolic(&mut out, lt, la, rt, ra);
            }
            continue;
        }
        let key = extract_key(lt, &lkeys);
        for &i in index.probe_key(&key) {
            let (rt, ra) = &right.rows()[i];
            let t = lt.concat(rt);
            let mut ann = la.times(ra);
            if *residual != Condition::True {
                ann = ann.select(residual, &t);
            }
            out.push(t, ann);
        }
        // Hashable left row against symbolic right rows.
        for &i in &right_symbolic {
            let (rt, ra) = &right.rows()[i];
            push_symbolic(&mut out, lt, la, rt, ra);
        }
    }
    out
}

/// Division `left ÷ right` (extended operator), on supports: a candidate
/// prefix survives, annotated [`Annotation::one`], when every divisor tuple
/// pairs with it in the dividend. The rows are iterated **by reference**:
/// no annotation-dropping copy of either input is materialised.
///
/// Rejects domains without [`Annotation::SUPPORTS_EXTENDED`].
fn divide<A: Annotation>(left: AnnRel<A>, right: &AnnRel<A>) -> Result<AnnRel<A>> {
    require_extended::<A>("division")?;
    let n = left.arity() - right.arity();
    let head: Vec<usize> = (0..n).collect();
    let dividend: HashSet<&Tuple> = left.rows().iter().map(|(t, _)| t).collect();
    let mut out = AnnRel::new(n);
    let mut seen: HashSet<Tuple> = HashSet::with_capacity(left.rows().len());
    for (t, _) in left.rows() {
        let cand = t.project(&head);
        if !seen.insert(cand.clone()) {
            continue;
        }
        if right
            .rows()
            .iter()
            .all(|(b, _)| dividend.contains(&cand.concat(b)))
        {
            out.push(cand, A::one());
        }
    }
    Ok(out)
}

/// The `Domᵏ` extended operator: all `k`-tuples over the source's active
/// domain, annotated [`Annotation::one`].
///
/// Rejects domains without [`Annotation::SUPPORTS_EXTENDED`].
fn dom_power<A: Annotation, S: Source<A>>(source: &S, k: usize) -> Result<AnnRel<A>> {
    require_extended::<A>("Dom^k")?;
    let domain = source.active_domain();
    let mut out = AnnRel::new(k);
    for t in crate::eval::dom_power_over(&domain, k) {
        out.push(t, A::one());
    }
    Ok(out)
}

/// The unification anti-semijoin `left ⋉⇑ right` (extended operator), on
/// supports, keeping left annotations. The right side is partitioned into
/// complete tuples (matched by hash lookup) and null-bearing tuples
/// (matched by pairwise unification).
///
/// Rejects domains without [`Annotation::SUPPORTS_EXTENDED`].
fn anti_unify<A: Annotation>(left: AnnRel<A>, right: &AnnRel<A>) -> Result<AnnRel<A>> {
    require_extended::<A>("anti-semijoin (⋉⇑)")?;
    let mut complete: HashSet<&Tuple> = HashSet::new();
    let mut with_nulls: Vec<&Tuple> = Vec::new();
    for (t, _) in right.rows() {
        if t.has_null() {
            with_nulls.push(t);
        } else {
            complete.insert(t);
        }
    }
    let mut out = AnnRel::new(left.arity());
    for (t, a) in left.rows {
        let survives = if t.has_null() {
            // A null-bearing left tuple can unify with complete tuples too.
            !complete.iter().any(|r| certa_data::unifiable(&t, r))
                && !with_nulls.iter().any(|r| certa_data::unifiable(&t, r))
        } else {
            !complete.contains(&t) && !with_nulls.iter().any(|r| certa_data::unifiable(&t, r))
        };
        if survives {
            out.push(t, a);
        }
    }
    Ok(out)
}

/// The identity hook: no per-operator rewriting (set and bag semantics).
pub fn identity_hook<A: Annotation>(_: OpKind, rel: AnnRel<A>) -> AnnRel<A> {
    rel
}

/// A query compiled **once** against a schema — the physical plan plus the
/// resolved output arity — and executable **many times** against different
/// [`Source`] implementations.
///
/// This is the compile-once/execute-many entry point of the engine: the
/// certain-answer machinery prepares the query a single time and then runs
/// it over every possible world through a [`ValuationSource`] (or
/// [`BagValuationSource`]), so the per-world cost is pure execution — no
/// re-planning, no re-validation, and no database clone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedQuery {
    plan: PhysOp,
    arity: usize,
}

impl PreparedQuery {
    /// Validate and plan an expression against a schema.
    ///
    /// # Errors
    ///
    /// Returns an error if the expression is ill-formed for the schema
    /// (unknown relation, arity mismatch, position out of range).
    pub fn prepare(expr: &RaExpr, schema: &Schema) -> Result<PreparedQuery> {
        let arity = expr.arity(schema)?;
        let plan = plan(expr, schema)?;
        Ok(PreparedQuery { plan, arity })
    }

    /// Like [`PreparedQuery::prepare`], but run the logical optimizer
    /// ([`crate::opt::optimize`]) over the expression first: selection
    /// pushdown, greedy join reordering and dead-column pruning, with
    /// schema-only (uniform) statistics.
    ///
    /// # Errors
    ///
    /// As [`PreparedQuery::prepare`].
    pub fn prepare_optimized(expr: &RaExpr, schema: &Schema) -> Result<PreparedQuery> {
        Self::prepare_optimized_with(expr, schema, &crate::opt::Stats::schema_only())
    }

    /// [`PreparedQuery::prepare_optimized`] with per-relation statistics —
    /// cardinalities feed the greedy join order and null presence makes the
    /// order *world-aware*: null-free leaves cluster at the bottom of the
    /// join tree so [`PreparedQuery::for_world_db`] can hoist a maximal
    /// world-invariant prefix.
    ///
    /// # Errors
    ///
    /// As [`PreparedQuery::prepare`].
    pub fn prepare_optimized_with(
        expr: &RaExpr,
        schema: &Schema,
        stats: &crate::opt::Stats,
    ) -> Result<PreparedQuery> {
        let optimized = crate::opt::optimize_with(expr, schema, stats)?;
        Self::prepare(&optimized, schema)
    }

    /// Split the plan for possible-world evaluation: every maximal subplan
    /// that reads only *world-invariant* relations (per the predicate) and
    /// never touches the active domain is hoisted out, to be evaluated
    /// **once** by [`PreparedWorldQuery::materialize`] and spliced into all
    /// per-world executions.
    pub fn for_worlds(&self, invariant: impl Fn(&str) -> bool) -> PreparedWorldQuery {
        let mut hoisted = Vec::new();
        let plan = hoist(&self.plan, &invariant, &mut hoisted);
        PreparedWorldQuery {
            plan,
            hoisted,
            arity: self.arity,
        }
    }

    /// [`PreparedQuery::for_worlds`] against a set database: a relation is
    /// world-invariant exactly when it contains no marked nulls (then every
    /// valuation scans it unchanged).
    pub fn for_world_db(&self, db: &Database) -> PreparedWorldQuery {
        self.for_worlds(|name| db.relation(name).is_ok_and(Relation::is_complete))
    }

    /// [`PreparedQuery::for_worlds`] against a bag database.
    pub fn for_world_bags(&self, db: &BagDatabase) -> PreparedWorldQuery {
        self.for_worlds(|name| db.relation(name).is_ok_and(BagRelation::is_complete))
    }

    /// The output arity resolved at preparation time.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The physical plan.
    pub fn plan(&self) -> &PhysOp {
        &self.plan
    }

    /// Execute the plan over a source with an explicit per-operator hook.
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn execute_hooked<A, S, H>(&self, source: &S, hook: &mut H) -> Result<AnnRel<A>>
    where
        A: Annotation,
        S: Source<A>,
        H: FnMut(OpKind, AnnRel<A>) -> AnnRel<A>,
    {
        execute(&self.plan, source, hook)
    }

    /// Execute the plan over a source with the identity hook.
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn execute_on<A, S>(&self, source: &S) -> Result<AnnRel<A>>
    where
        A: Annotation,
        S: Source<A>,
    {
        execute(&self.plan, source, &mut identity_hook)
    }

    /// Execute under set semantics on a database.
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn eval_set(&self, db: &Database) -> Result<Relation> {
        self.collect_set(self.execute_on(&SetSource(db))?)
    }

    /// Execute under set semantics on the possible world `v(D)`, presented
    /// zero-copy through a [`ValuationSource`].
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn eval_set_world(&self, db: &Database, valuation: &Valuation) -> Result<Relation> {
        self.collect_set(self.execute_on(&ValuationSource::new(db, valuation))?)
    }

    /// Execute under bag semantics on a bag database.
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn eval_bag(&self, db: &BagDatabase) -> Result<BagRelation> {
        self.collect_bag(self.execute_on(&BagSource(db))?)
    }

    /// Execute under bag semantics on the possible world `v(D)` (collapsing
    /// multiplicities added), zero-copy through a [`BagValuationSource`].
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn eval_bag_world(&self, db: &BagDatabase, valuation: &Valuation) -> Result<BagRelation> {
        self.collect_bag(self.execute_on(&BagValuationSource::new(db, valuation))?)
    }

    fn collect_set(&self, out: AnnRel<SetAnn>) -> Result<Relation> {
        Ok(Relation::with_arity(
            self.arity,
            out.into_rows().into_iter().map(|(t, _)| t),
        ))
    }

    fn collect_bag(&self, out: AnnRel<BagAnn>) -> Result<BagRelation> {
        Ok(BagRelation::from_counted(
            self.arity,
            out.into_rows().into_iter().map(|(t, BagAnn(n))| (t, n)),
        ))
    }
}

/// `true` iff executing the subplan yields the same rows in every possible
/// world: all scanned relations are invariant under valuations and the
/// active domain (which varies with the valuation) is never consulted.
/// Literals are invariant by construction — the engine never applies
/// valuations to them.
fn is_invariant(op: &PhysOp, invariant: &impl Fn(&str) -> bool) -> bool {
    match op {
        PhysOp::Scan { name, .. } => invariant(name),
        PhysOp::Literal(_) | PhysOp::Cached { .. } => true,
        PhysOp::DomPower(_) => false,
        PhysOp::Select(e, _) | PhysOp::Project(e, _) => is_invariant(e, invariant),
        PhysOp::HashJoin { left, right, .. } => {
            is_invariant(left, invariant) && is_invariant(right, invariant)
        }
        PhysOp::Product(l, r)
        | PhysOp::Union(l, r)
        | PhysOp::Intersect(l, r)
        | PhysOp::Difference(l, r)
        | PhysOp::Divide(l, r)
        | PhysOp::AntiSemiJoinUnify(l, r) => {
            is_invariant(l, invariant) && is_invariant(r, invariant)
        }
    }
}

/// Whether hoisting the subplan actually saves per-world work: leaves
/// (scans without filters, literals) cost the same to re-scan as to clone,
/// so only operator nodes (including filtered scans, whose condition
/// evaluation is saved) are worth a cache slot.
fn worth_hoisting(op: &PhysOp) -> bool {
    !matches!(
        op,
        PhysOp::Scan { filter: None, .. } | PhysOp::Literal(_) | PhysOp::Cached { .. }
    )
}

/// Replace maximal invariant subplans by [`PhysOp::Cached`] slots, pushing
/// the originals into `hoisted`.
fn hoist(op: &PhysOp, invariant: &impl Fn(&str) -> bool, hoisted: &mut Vec<PhysOp>) -> PhysOp {
    if is_invariant(op, invariant) && worth_hoisting(op) {
        hoisted.push(op.clone());
        return PhysOp::Cached {
            slot: hoisted.len() - 1,
        };
    }
    match op {
        PhysOp::Scan { .. } | PhysOp::Literal(_) | PhysOp::DomPower(_) | PhysOp::Cached { .. } => {
            op.clone()
        }
        PhysOp::Select(e, cond) => {
            PhysOp::Select(Box::new(hoist(e, invariant, hoisted)), cond.clone())
        }
        PhysOp::Project(e, positions) => {
            PhysOp::Project(Box::new(hoist(e, invariant, hoisted)), positions.clone())
        }
        PhysOp::HashJoin {
            left,
            right,
            left_arity,
            pairs,
            wildcard,
            residual,
            on,
        } => PhysOp::HashJoin {
            left: Box::new(hoist(left, invariant, hoisted)),
            right: Box::new(hoist(right, invariant, hoisted)),
            left_arity: *left_arity,
            pairs: pairs.clone(),
            wildcard: wildcard.clone(),
            residual: residual.clone(),
            on: on.clone(),
        },
        PhysOp::Product(l, r) => PhysOp::Product(
            Box::new(hoist(l, invariant, hoisted)),
            Box::new(hoist(r, invariant, hoisted)),
        ),
        PhysOp::Union(l, r) => PhysOp::Union(
            Box::new(hoist(l, invariant, hoisted)),
            Box::new(hoist(r, invariant, hoisted)),
        ),
        PhysOp::Intersect(l, r) => PhysOp::Intersect(
            Box::new(hoist(l, invariant, hoisted)),
            Box::new(hoist(r, invariant, hoisted)),
        ),
        PhysOp::Difference(l, r) => PhysOp::Difference(
            Box::new(hoist(l, invariant, hoisted)),
            Box::new(hoist(r, invariant, hoisted)),
        ),
        PhysOp::Divide(l, r) => PhysOp::Divide(
            Box::new(hoist(l, invariant, hoisted)),
            Box::new(hoist(r, invariant, hoisted)),
        ),
        PhysOp::AntiSemiJoinUnify(l, r) => PhysOp::AntiSemiJoinUnify(
            Box::new(hoist(l, invariant, hoisted)),
            Box::new(hoist(r, invariant, hoisted)),
        ),
    }
}

/// A prepared query split for possible-world evaluation: the residual plan
/// (with [`PhysOp::Cached`] slots) plus the hoisted *null-independent*
/// subplans.
///
/// The split realises the evaluate-once contract of the null-aware
/// optimizer: a subplan whose reachable base relations contain no marked
/// nulls produces identical rows in every world `v(D)`, so it is evaluated
/// **once** on the base database ([`PreparedWorldQuery::materialize_set`] /
/// [`PreparedWorldQuery::materialize_bag`]) and the stored rows are spliced
/// into each of the (often 10⁴+) per-world executions. When the *whole*
/// plan is invariant — the query never touches an incomplete relation —
/// per-world execution degenerates to returning the cached result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedWorldQuery {
    plan: PhysOp,
    hoisted: Vec<PhysOp>,
    arity: usize,
}

impl PreparedWorldQuery {
    /// The output arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The residual plan executed per world.
    pub fn plan(&self) -> &PhysOp {
        &self.plan
    }

    /// The hoisted subplans, in cache-slot order.
    pub fn hoisted_plans(&self) -> &[PhysOp] {
        &self.hoisted
    }

    /// Number of hoisted subplans.
    pub fn hoisted_count(&self) -> usize {
        self.hoisted.len()
    }

    /// `true` iff the entire plan is world-invariant (the per-world
    /// execution just returns the cached result).
    pub fn fully_invariant(&self) -> bool {
        matches!(self.plan, PhysOp::Cached { .. })
    }

    /// Evaluate every hoisted subplan once over a source, producing the
    /// cache the per-world executions splice in. The source must present
    /// the *base* database (not a world): hoisted subplans only read
    /// world-invariant relations, on which base and world scans agree.
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn materialize<A, S>(&self, source: &S) -> Result<Vec<AnnRel<A>>>
    where
        A: Annotation,
        S: Source<A>,
    {
        self.hoisted
            .iter()
            .map(|op| execute(op, source, &mut identity_hook))
            .collect()
    }

    /// [`PreparedWorldQuery::materialize`] under set semantics.
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn materialize_set(&self, db: &Database) -> Result<Vec<AnnRel<SetAnn>>> {
        self.materialize(&SetSource(db))
    }

    /// [`PreparedWorldQuery::materialize`] under bag semantics.
    ///
    /// # Errors
    ///
    /// As [`execute`].
    pub fn materialize_bag(&self, db: &BagDatabase) -> Result<Vec<AnnRel<BagAnn>>> {
        self.materialize(&BagSource(db))
    }

    /// Execute the residual plan over a source, splicing the cache into
    /// [`PhysOp::Cached`] slots.
    ///
    /// # Errors
    ///
    /// As [`execute_with_cache`].
    pub fn execute_on<A, S>(&self, source: &S, cache: &[AnnRel<A>]) -> Result<AnnRel<A>>
    where
        A: Annotation,
        S: Source<A>,
    {
        execute_with_cache(&self.plan, source, &mut identity_hook, cache)
    }

    /// The cache entry backing the whole plan, when it is fully invariant —
    /// the evaluation short-circuit used by the world entry points below to
    /// skip the engine (and the per-world deep clone of the cached rows).
    fn cached_root<'c, A: Annotation>(&self, cache: &'c [AnnRel<A>]) -> Option<&'c AnnRel<A>> {
        match self.plan {
            PhysOp::Cached { slot } => cache.get(slot),
            _ => None,
        }
    }

    /// Evaluate on the world `v(D)` under set semantics, reusing the
    /// materialised cache. A fully invariant plan never enters the engine:
    /// the output is built straight off the borrowed cache rows.
    ///
    /// # Errors
    ///
    /// As [`execute_with_cache`].
    pub fn eval_set_world(
        &self,
        db: &Database,
        valuation: &Valuation,
        cache: &[AnnRel<SetAnn>],
    ) -> Result<Relation> {
        if let Some(rows) = self.cached_root(cache) {
            return Ok(Relation::with_arity(
                self.arity,
                rows.rows().iter().map(|(t, _)| t.clone()),
            ));
        }
        let out = self.execute_on(&ValuationSource::new(db, valuation), cache)?;
        Ok(Relation::with_arity(
            self.arity,
            out.into_rows().into_iter().map(|(t, _)| t),
        ))
    }

    /// Evaluate on the world `v(D)` under bag semantics, reusing the
    /// materialised cache. A fully invariant plan never enters the engine:
    /// the output is built straight off the borrowed cache rows.
    ///
    /// # Errors
    ///
    /// As [`execute_with_cache`].
    pub fn eval_bag_world(
        &self,
        db: &BagDatabase,
        valuation: &Valuation,
        cache: &[AnnRel<BagAnn>],
    ) -> Result<BagRelation> {
        if let Some(rows) = self.cached_root(cache) {
            return Ok(BagRelation::from_counted(
                self.arity,
                rows.rows().iter().map(|(t, BagAnn(n))| (t.clone(), *n)),
            ));
        }
        let out = self.execute_on(&BagValuationSource::new(db, valuation), cache)?;
        Ok(BagRelation::from_counted(
            self.arity,
            out.into_rows().into_iter().map(|(t, BagAnn(n))| (t, n)),
        ))
    }
}

/// Evaluate a validated expression under set semantics through the physical
/// engine.
///
/// # Errors
///
/// Returns an error on unknown relations (other ill-formedness is caught by
/// the caller's validation).
pub fn eval_set(expr: &RaExpr, db: &Database) -> Result<Relation> {
    let physical = plan(expr, db.schema())?;
    let out = execute(&physical, &SetSource(db), &mut identity_hook)?;
    let arity = out.arity();
    Ok(Relation::with_arity(
        arity,
        out.into_rows().into_iter().map(|(t, _)| t),
    ))
}

/// Evaluate a validated expression under bag semantics through the physical
/// engine.
///
/// # Errors
///
/// As [`eval_set`].
pub fn eval_bag_physical(expr: &RaExpr, db: &BagDatabase) -> Result<BagRelation> {
    let physical = plan(expr, db.schema())?;
    let out = execute(&physical, &BagSource(db), &mut identity_hook)?;
    let arity = out.arity();
    Ok(BagRelation::from_counted(
        arity,
        out.into_rows().into_iter().map(|(t, BagAnn(n))| (t, n)),
    ))
}

/// What a plan's shape allows an incremental maintainer to do with insert
/// deltas, produced by [`delta_profile`].
///
/// Semi-naïve insert propagation (run the plan once with a changed relation
/// replaced by its delta rows, OR the output into the cached answer) is
/// sound exactly when the plan is **monotone** in the changed relation and
/// **linear** in it (the relation is scanned once — a self-join would need
/// per-occurrence substitution the scan-by-name override cannot express).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaProfile {
    /// `true` iff every operator is monotone (no `−`, `÷`, `⋉⇑`): inserting
    /// rows can only add derivations, never retract one.
    pub monotone: bool,
    /// `true` iff the plan materialises active-domain powers, which read
    /// the *whole* database (every insert changes them, overrides or not).
    pub uses_dom_power: bool,
    /// Scan occurrences per base relation name.
    pub scans: HashMap<String, usize>,
}

impl DeltaProfile {
    /// `true` iff inserts into `relation` can be propagated by one delta
    /// execution: monotone plan, no active-domain dependence, and the
    /// relation scanned at most once.
    pub fn insert_delta_ok(&self, relation: &str) -> bool {
        self.monotone && !self.uses_dom_power && self.scans.get(relation).copied().unwrap_or(0) <= 1
    }

    /// `true` iff the plan never reads `relation` (changes there cannot
    /// affect the output). Active-domain powers read everything.
    pub fn ignores(&self, relation: &str) -> bool {
        !self.uses_dom_power && !self.scans.contains_key(relation)
    }
}

/// Walk a plan and report its [`DeltaProfile`].
pub fn delta_profile(op: &PhysOp) -> DeltaProfile {
    fn walk(op: &PhysOp, p: &mut DeltaProfile) {
        match op {
            PhysOp::Scan { name, .. } => {
                *p.scans.entry(name.clone()).or_insert(0) += 1;
            }
            PhysOp::Literal(_) => {}
            PhysOp::Select(e, _) | PhysOp::Project(e, _) => walk(e, p),
            PhysOp::HashJoin { left, right, .. } => {
                walk(left, p);
                walk(right, p);
            }
            PhysOp::Product(l, r) | PhysOp::Union(l, r) | PhysOp::Intersect(l, r) => {
                walk(l, p);
                walk(r, p);
            }
            PhysOp::Difference(l, r) | PhysOp::Divide(l, r) | PhysOp::AntiSemiJoinUnify(l, r) => {
                p.monotone = false;
                walk(l, p);
                walk(r, p);
            }
            PhysOp::DomPower(_) => p.uses_dom_power = true,
            // An opaque hoisted slot: its sources are invisible here, so
            // nothing incremental can be said about the plan.
            PhysOp::Cached { .. } => {
                p.monotone = false;
                p.uses_dom_power = true;
            }
        }
    }
    let mut p = DeltaProfile {
        monotone: true,
        uses_dom_power: false,
        scans: HashMap::new(),
    };
    walk(op, &mut p);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Condition;
    use certa_data::{database_from_literal, tup};

    fn db() -> Database {
        database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![tup![1, 2], tup![1, 3], tup![2, 2], tup![3, Value::null(0)]],
            ),
            ("S", vec!["c"], vec![tup![2], tup![3]]),
        ])
    }

    #[test]
    fn planner_detects_hash_join() {
        let d = db();
        let q = RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(1, 0)], 2);
        let p = plan(&q, d.schema()).unwrap();
        match p {
            PhysOp::HashJoin {
                left_arity,
                pairs,
                residual,
                ..
            } => {
                assert_eq!(left_arity, 2);
                assert_eq!(pairs, vec![(1, 0)]);
                assert_eq!(residual, Condition::True);
            }
            other => panic!("expected hash join, got {other:?}"),
        }
    }

    #[test]
    fn planner_keeps_residual_conjuncts() {
        let d = db();
        let cond = Condition::eq_attr(1, 2).and(Condition::eq_const(0, 1));
        let q = RaExpr::rel("R").product(RaExpr::rel("S")).select(cond);
        match plan(&q, d.schema()).unwrap() {
            PhysOp::HashJoin {
                pairs, residual, ..
            } => {
                assert_eq!(pairs, vec![(1, 0)]);
                assert_eq!(residual, Condition::eq_const(0, 1));
            }
            other => panic!("expected hash join, got {other:?}"),
        }
    }

    #[test]
    fn planner_pushes_selection_into_scan() {
        let d = db();
        let q = RaExpr::rel("R").select(Condition::eq_const(0, 1));
        match plan(&q, d.schema()).unwrap() {
            PhysOp::Scan {
                filter: Some(_), ..
            } => {}
            other => panic!("expected filtered scan, got {other:?}"),
        }
    }

    #[test]
    fn planner_leaves_disjunctive_conditions_on_product() {
        let d = db();
        let cond = Condition::eq_attr(1, 2).or(Condition::eq_const(0, 1));
        let q = RaExpr::rel("R").product(RaExpr::rel("S")).select(cond);
        match plan(&q, d.schema()).unwrap() {
            PhysOp::Select(inner, _) => assert!(matches!(*inner, PhysOp::Product(..))),
            other => panic!("expected select over product, got {other:?}"),
        }
    }

    /// `R(a, b) × U(c, d)`, with nulls in every column.
    fn wildcard_db() -> Database {
        database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![
                    tup![1, 2],
                    tup![2, Value::null(0)],
                    tup![Value::null(1), 3],
                    tup![3, 3],
                ],
            ),
            (
                "U",
                vec!["c", "d"],
                vec![
                    tup![2, 1],
                    tup![Value::null(0), 2],
                    tup![3, Value::null(2)],
                    tup![4, 3],
                ],
            ),
        ])
    }

    /// `i = j ∨ null(i) ∨ null(j)`, as `possible_condition` writes it.
    fn wild(i: usize, j: usize) -> Condition {
        Condition::eq_attr(i, j)
            .or(Condition::IsNull(i))
            .or(Condition::IsNull(j))
    }

    /// Plain pairs, wildcard pairs and residual of a planned hash join.
    type JoinKeys = (Vec<(usize, usize)>, Vec<(usize, usize)>, Condition);

    /// Plan `σ_cond(R × U)` and return its hash-join keys and residual, or
    /// `None` when the planner kept the product.
    fn join_keys(cond: Condition) -> Option<JoinKeys> {
        let q = RaExpr::rel("R").product(RaExpr::rel("U")).select(cond);
        match plan(&q, wildcard_db().schema()).unwrap() {
            PhysOp::HashJoin {
                pairs,
                wildcard,
                residual,
                ..
            } => Some((pairs, wildcard, residual)),
            PhysOp::Select(inner, _) if matches!(*inner, PhysOp::Product(..)) => None,
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn planner_detects_wildcard_pairs_in_both_operand_orders() {
        let expected = Some((vec![], vec![(1, 0)], Condition::True));
        assert_eq!(join_keys(wild(1, 2)), expected);
        assert_eq!(join_keys(wild(2, 1)), expected);
        // Disjuncts in another order and nesting.
        let shuffled = Condition::IsNull(2).or(Condition::eq_attr(2, 1).or(Condition::IsNull(1)));
        assert_eq!(join_keys(shuffled), expected);
    }

    #[test]
    fn planner_detects_conjoined_and_mixed_wildcard_pairs() {
        assert_eq!(
            join_keys(wild(0, 3).and(wild(1, 2))),
            Some((vec![], vec![(0, 1), (1, 0)], Condition::True))
        );
        let mixed = wild(0, 3)
            .and(Condition::eq_attr(2, 1))
            .and(Condition::neq_const(0, 7));
        assert_eq!(
            join_keys(mixed),
            Some((vec![(1, 0)], vec![(0, 1)], Condition::neq_const(0, 7)))
        );
    }

    #[test]
    fn planner_rejects_wildcard_near_misses() {
        // The null tests must cover exactly the two compared attributes.
        let wrong_attr = Condition::eq_attr(1, 2)
            .or(Condition::IsNull(1))
            .or(Condition::IsNull(3));
        let one_sided = Condition::eq_attr(1, 2).or(Condition::IsNull(1));
        for cond in [wrong_attr, one_sided] {
            assert_eq!(join_keys(cond.clone()), None, "{cond}");
            // Beside a plain pair, the near miss stays a residual conjunct.
            assert_eq!(
                join_keys(Condition::eq_attr(0, 3).and(cond.clone())),
                Some((vec![(0, 1)], vec![], cond))
            );
        }
        // Both attributes on one side: no join key at all.
        assert_eq!(join_keys(wild(0, 1)), None);
    }

    #[test]
    fn wildcard_pairs_render_in_explain() {
        let q = RaExpr::rel("R")
            .product(RaExpr::rel("U"))
            .select(wild(1, 2).and(Condition::eq_attr(0, 3)));
        let rendered = plan(&q, wildcard_db().schema()).unwrap().label();
        assert_eq!(
            rendered,
            "HashJoin on #0 = right.#1, #1 = right.#0 (∨ nulls)"
        );
        let only_wild = RaExpr::rel("R")
            .product(RaExpr::rel("U"))
            .select(wild(1, 2));
        let rendered = plan(&only_wild, wildcard_db().schema()).unwrap().label();
        assert_eq!(rendered, "HashJoin on #1 = right.#0 (∨ nulls)");
    }

    #[test]
    fn wildcard_hash_join_equals_filtered_product() {
        let d = wildcard_db();
        let conds = [
            wild(1, 2),
            wild(0, 3).and(wild(1, 2)),
            wild(1, 2).and(Condition::eq_attr(0, 3)),
            wild(0, 2).and(Condition::neq_const(3, 1)),
        ];
        for cond in conds {
            let q = RaExpr::rel("R").product(RaExpr::rel("U")).select(cond);
            assert!(matches!(
                plan(&q, d.schema()).unwrap(),
                PhysOp::HashJoin { .. }
            ));
            assert_eq!(
                eval_set(&q, &d).unwrap(),
                crate::reference::eval_set_reference(&q, &d).unwrap(),
                "{q}"
            );
            let bags = d.to_bags();
            assert_eq!(
                eval_bag_physical(&q, &bags).unwrap(),
                crate::reference::eval_bag_reference(&q, &bags).unwrap(),
                "{q}"
            );
        }
    }

    #[test]
    fn hash_join_matches_nested_loop_on_nulls() {
        // Nulls hash syntactically under set semantics: ⊥0 joins with ⊥0.
        let d = database_from_literal([
            ("L", vec!["a"], vec![tup![Value::null(0)], tup![1]]),
            (
                "P",
                vec!["b"],
                vec![tup![Value::null(0)], tup![Value::null(1)], tup![1]],
            ),
        ]);
        let q = RaExpr::rel("L").join_on(RaExpr::rel("P"), &[(0, 0)], 1);
        let out = eval_set(&q, &d).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tup![Value::null(0), Value::null(0)]));
        assert!(out.contains(&tup![1, 1]));
    }

    #[test]
    fn set_engine_matches_reference_on_operators() {
        let d = db();
        let queries = vec![
            RaExpr::rel("R"),
            RaExpr::rel("R").select(Condition::neq_const(1, 2)),
            RaExpr::rel("R").project(vec![0]),
            RaExpr::rel("R").product(RaExpr::rel("S")),
            RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(1, 0)], 2),
            RaExpr::rel("S").union(RaExpr::rel("R").project(vec![1])),
            RaExpr::rel("S").intersect(RaExpr::rel("R").project(vec![0])),
            RaExpr::rel("R")
                .project(vec![0])
                .difference(RaExpr::rel("S")),
            RaExpr::rel("R").divide(RaExpr::rel("S")),
            RaExpr::rel("R")
                .project(vec![0])
                .anti_semijoin_unify(RaExpr::rel("S")),
            RaExpr::DomPower(2),
        ];
        for q in queries {
            let fast = eval_set(&q, &d).unwrap();
            let slow = crate::reference::eval_set_reference(&q, &d).unwrap();
            assert_eq!(fast, slow, "query {q}");
        }
    }

    #[test]
    fn bag_engine_multiplicities() {
        let sets = database_from_literal([("R", vec!["a"], vec![]), ("S", vec!["a"], vec![])]);
        let mut b = BagDatabase::new(sets.schema().clone());
        b.insert_n("R", tup![1], 3).unwrap();
        b.insert_n("R", tup![2], 1).unwrap();
        b.insert_n("S", tup![1], 2).unwrap();
        let q = RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(0, 0)], 1);
        let out = eval_bag_physical(&q, &b).unwrap();
        assert_eq!(out.multiplicity(&tup![1, 1]), 6);
        assert_eq!(out.total_len(), 6);
    }

    #[test]
    fn extended_operators_rejected_without_support() {
        // A toy annotation that opts out of extended operators.
        #[derive(Clone)]
        struct NoExt;
        impl Annotation for NoExt {
            const MERGE_DUPLICATES: bool = false;
            const SYMBOLIC_NULLS: bool = false;
            const SUPPORTS_EXTENDED: bool = false;
            fn one() -> Self {
                NoExt
            }
            fn is_zero(&self) -> bool {
                false
            }
            fn plus(&mut self, _: Self) {}
            fn times(&self, _: &Self) -> Self {
                NoExt
            }
            fn monus(&self, _: &Self) -> Self {
                NoExt
            }
            fn select(&self, _: &Condition, _: &Tuple) -> Self {
                NoExt
            }
        }
        struct Empty;
        impl Source<NoExt> for Empty {
            fn scan(&self, _: &str, _: Option<&Condition>) -> Result<AnnRel<NoExt>> {
                Ok(AnnRel::new(1))
            }
            fn active_domain(&self) -> Vec<Value> {
                Vec::new()
            }
        }
        let err = execute(&PhysOp::DomPower(2), &Empty, &mut identity_hook::<NoExt>);
        assert!(matches!(
            err,
            Err(AlgebraError::UnsupportedOperator("Dom^k"))
        ));
    }

    #[test]
    fn merged_collapses_duplicates() {
        let mut rel: AnnRel<BagAnn> = AnnRel::new(1);
        rel.push(tup![1], BagAnn(2));
        rel.push(tup![1], BagAnn(3));
        rel.push(tup![2], BagAnn(1));
        let merged = rel.merged();
        assert_eq!(merged.len(), 2);
        let m: usize = merged
            .rows()
            .iter()
            .find(|(t, _)| *t == tup![1])
            .map(|(_, BagAnn(n))| *n)
            .unwrap();
        assert_eq!(m, 5);
    }
}
