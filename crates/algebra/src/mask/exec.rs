//! The columnar, batch-at-a-time mask executor.
//!
//! [`ColumnarExec`] evaluates the same [`PhysOp`] trees the generic engine
//! runs, but over [`ColumnarRel`] batches whose rows carry world masks:
//! every mask op is a kernel call over contiguous arena slices, and the
//! expensive stages — incomplete-scan expansion, hash-join probe, product —
//! are **morsel-parallel** through a [`MorselPool`].
//!
//! Semantics are those of evaluating the plan in every possible world at
//! once: scans expand null-substitution classes and OR collapsing classes,
//! join/∩ AND, ∪/π OR, −/÷/⋉⇑ AND-NOT, selections decide uniformly on
//! ground rows. The differential tests below hold every operator to
//! per-world enumeration: the world set of each output row must be exactly
//! the worlds whose reference evaluation contains it.
//!
//! Determinism is structural: parallel stages produce per-morsel partial
//! relations that are merged **in morsel order**, so the executor's output
//! — row order included — is bit-identical at every worker count.

use crate::expr::Condition;
use crate::governor;
use crate::morsel::MorselPool;
use crate::physical::PhysOp;
use crate::{AlgebraError, Result};
use certa_data::index::extract_key;
use certa_data::{Database, KeyIndex, Tuple, Value};
use std::cell::RefCell;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::hash::{Hash, Hasher};

use super::columnar::{ColumnarContext, ColumnarRel, MaskArena, MaskRef, Merger, RowMask};
use super::fxhash::{FxHashMap, FxHashSet};
use super::kernel;

/// Counters gathered while executing one plan: the parallel-plan shape
/// [`crate::mask`]-backed callers surface through `explain()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total rows across operator outputs.
    pub rows: usize,
    /// Distinct mask fingerprints across operator outputs (profile mode
    /// only; 0 otherwise).
    pub distinct_masks: usize,
    /// Morsels dispatched to the worker pool across all parallel stages.
    pub morsels: usize,
    /// Total mask-arena words across operator outputs.
    pub arena_words: usize,
}

/// The executor: one database + valuation context + worker pool.
pub struct ColumnarExec<'a> {
    db: &'a Database,
    ctx: &'a ColumnarContext,
    pool: MorselPool,
    /// Relation contents substituted for the database's during scans —
    /// the semi-naïve delta hook: running the plan with one relation
    /// replaced by its *delta* rows (others at their current state)
    /// produces exactly the output rows the delta contributes.
    overrides: &'a [(String, certa_data::Relation)],
    profile: bool,
    /// The one accounting path: a per-run view that mirrors every
    /// increment into the global `certa_obs` registry. [`ExecStats`] is a
    /// thin read over it.
    local: certa_obs::LocalMetrics,
    fingerprints: RefCell<FxHashSet<u64>>,
}

impl<'a> ColumnarExec<'a> {
    /// An executor over `db`'s world space as described by `ctx`, running
    /// parallel stages on `pool`.
    pub fn new(db: &'a Database, ctx: &'a ColumnarContext, pool: MorselPool) -> ColumnarExec<'a> {
        ColumnarExec {
            db,
            ctx,
            pool,
            overrides: &[],
            profile: false,
            local: certa_obs::LocalMetrics::new(),
            fingerprints: RefCell::new(FxHashSet::default()),
        }
    }

    /// Substitute relation contents during scans (delta execution): a scan
    /// of a listed relation reads the override instead of the database.
    /// Other operators (notably [`PhysOp::DomPower`], which reads the
    /// database's active domain directly) are unaffected — delta callers
    /// must gate on plans without such operators.
    pub fn with_overrides(
        mut self,
        overrides: &'a [(String, certa_data::Relation)],
    ) -> ColumnarExec<'a> {
        self.overrides = overrides;
        self
    }

    /// Enable mask-fingerprint profiling (distinct-mask counting costs a
    /// hash of every output mask, so it is opt-in for `explain`).
    pub fn profiled(mut self) -> ColumnarExec<'a> {
        self.profile = true;
        self
    }

    /// The worker pool (effective/requested widths for stats).
    pub fn pool(&self) -> &MorselPool {
        &self.pool
    }

    /// The valuation context.
    pub fn context(&self) -> &ColumnarContext {
        self.ctx
    }

    /// Counters accumulated so far — a thin view over this executor's
    /// registry-backed per-run metrics.
    pub fn stats(&self) -> ExecStats {
        use certa_obs::MetricId;
        ExecStats {
            rows: self.local.get(MetricId::MaskRows) as usize,
            distinct_masks: self.fingerprints.borrow().len(),
            morsels: self.local.get(MetricId::MaskMorsels) as usize,
            arena_words: self.local.get(MetricId::MaskArenaWords) as usize,
        }
    }

    /// Execute a plan, returning the columnar result.
    ///
    /// Every operator boundary is a cooperative governor checkpoint (and a
    /// fault-injection site): an installed [`crate::governor::Governor`]
    /// can stop the plan between operators, and output rows are metered
    /// against its row budget.
    pub fn execute(&self, op: &PhysOp) -> Result<ColumnarRel> {
        governor::checkpoint()?;
        crate::faultpoint!("mask::operator")?;
        // One span per operator, opened before the children recurse, so the
        // trace mirrors the plan tree; noop (no clock, no label) untraced.
        let sp = certa_obs::span(op.span_name());
        let op_start = if sp.is_recording() {
            sp.detail(op.label());
            Some(std::time::Instant::now())
        } else {
            None
        };
        let rel = self.execute_op(op)?;
        governor::consume_rows(rel.len())?;
        certa_obs::metrics().add(certa_obs::MetricId::MaskOps, 1);
        sp.add("rows", rel.len() as u64);
        if let Some(start) = op_start {
            certa_obs::metrics().observe(
                certa_obs::HistogramId::MaskOpMicros,
                start.elapsed().as_micros() as u64,
            );
        }
        Ok(rel)
    }

    fn execute_op(&self, op: &PhysOp) -> Result<ColumnarRel> {
        let rel = match op {
            PhysOp::Scan { name, filter } => self.scan(name, filter.as_ref())?,
            PhysOp::Literal(lit) => {
                let mut out = ColumnarRel::new(lit.arity(), self.ctx.width());
                for t in lit.iter() {
                    out.push_full(t.clone());
                }
                out
            }
            PhysOp::Select(e, cond) => {
                let mut input = self.execute(e)?;
                input.retain_rows(|t| cond.eval(t));
                input
            }
            PhysOp::Project(e, positions) => {
                let input = self.execute(e)?;
                let mut m = Merger::new(positions.len(), self.ctx.width(), self.ctx.worlds());
                for (t, rm) in input.rows() {
                    m.add(t.project(positions), input.mask(*rm));
                }
                m.finish()
            }
            PhysOp::HashJoin {
                left,
                right,
                left_arity: _,
                pairs,
                wildcard,
                residual,
                on,
            } => {
                let l = self.execute(left)?;
                let r = self.execute(right)?;
                // Null-wildcard conjuncts are checked as part of the whole
                // join condition rather than hashed.
                let residual = if wildcard.is_empty() { residual } else { on };
                self.join(&l, &r, pairs, residual)?
            }
            PhysOp::Product(le, re) => {
                let l = self.execute(le)?;
                let r = self.execute(re)?;
                self.join(&l, &r, &[], &Condition::True)?
            }
            PhysOp::Union(le, re) => {
                let l = self.execute(le)?;
                let r = self.execute(re)?;
                let mut m = Merger::new(l.arity(), self.ctx.width(), self.ctx.worlds());
                m.merge_from(l);
                m.merge_from(r);
                m.finish()
            }
            PhysOp::Intersect(le, re) => {
                let l = self.execute(le)?;
                let r = self.execute(re)?;
                let width = self.ctx.width();
                let map = tuple_map(&r);
                let mut out = ColumnarRel::new(l.arity(), width);
                let mut scratch = Vec::new();
                let (larena, lrows) = l.into_parts();
                for (t, rm) in lrows {
                    if let Some(&rrm) = map.get(&t) {
                        let lm = larena.resolve(rm);
                        push_and(width, &mut out, t, lm, r.mask(rrm), &mut scratch);
                    }
                }
                out
            }
            PhysOp::Difference(le, re) => {
                let l = self.execute(le)?;
                let r = self.execute(re)?;
                let width = self.ctx.width();
                let worlds = self.ctx.worlds();
                let map = tuple_map(&r);
                let mut out = ColumnarRel::new(l.arity(), width);
                let mut scratch = Vec::new();
                let (larena, lrows) = l.into_parts();
                for (t, rm) in lrows {
                    let lm = larena.resolve(rm);
                    match map.get(&t) {
                        Some(&rrm) => {
                            push_andnot(width, worlds, &mut out, t, lm, r.mask(rrm), &mut scratch);
                        }
                        None => out.push_mask(t, lm),
                    }
                }
                out
            }
            PhysOp::Divide(le, re) => {
                let l = self.execute(le)?;
                let r = self.execute(re)?;
                self.divide(&l, &r)
            }
            PhysOp::DomPower(k) => self.dom_power(*k)?,
            PhysOp::AntiSemiJoinUnify(le, re) => {
                let l = self.execute(le)?;
                let r = self.execute(re)?;
                self.anti_unify(l, &r)
            }
        };
        self.record(&rel);
        Ok(rel)
    }

    /// Account one operator output into the counters.
    fn record(&self, rel: &ColumnarRel) {
        use certa_obs::MetricId;
        self.local.add(MetricId::MaskRows, rel.len() as u64);
        self.local
            .add(MetricId::MaskArenaWords, rel.arena().words_len() as u64);
        certa_obs::span_add("arena_words", rel.arena().words_len() as u64);
        if self.profile {
            let mut seen = self.fingerprints.borrow_mut();
            for (_, rm) in rel.rows() {
                let mut h = DefaultHasher::new();
                match rel.mask(*rm) {
                    MaskRef::Full => 1u8.hash(&mut h),
                    MaskRef::Words(w) => {
                        2u8.hash(&mut h);
                        w.hash(&mut h);
                    }
                }
                if seen.insert(h.finish()) {
                    self.local.add(MetricId::MaskDistinctMasks, 1);
                }
            }
        }
    }

    /// Dispatch `f(morsel, range)` over `0..len` through the pool,
    /// accounting the morsel count. Governed and panic-isolated: a budget
    /// trip or a worker panic surfaces as [`AlgebraError::Governor`].
    fn par<T: Send>(
        &self,
        len: usize,
        f: impl Fn(usize, std::ops::Range<usize>) -> T + Sync,
    ) -> Result<Vec<T>> {
        self.local.add(
            certa_obs::MetricId::MaskMorsels,
            MorselPool::morsels_for(len) as u64,
        );
        Ok(self.pool.try_run(len, f)?)
    }

    /// Scan a base relation: complete relations stream through with full
    /// masks; incomplete relations expand null-substitution classes
    /// morsel-parallel, then merge collapsing classes in morsel order.
    fn scan(&self, name: &str, filter: Option<&Condition>) -> Result<ColumnarRel> {
        let rel = match self.overrides.iter().find(|(n, _)| n == name) {
            Some((_, over)) => over,
            None => self
                .db
                .relation(name)
                .map_err(|_| AlgebraError::UnknownRelation(name.to_string()))?,
        };
        let width = self.ctx.width();
        let base: Vec<&Tuple> = rel.iter().collect();
        if rel.is_complete() {
            let locals = self.par(base.len(), |_, range| {
                let mut local = ColumnarRel::new(rel.arity(), width);
                for t in &base[range] {
                    if filter.is_none_or(|c| c.eval(t)) {
                        local.push_full((*t).clone());
                    }
                }
                local
            })?;
            let mut out = ColumnarRel::new(rel.arity(), width);
            for local in locals {
                out.append(local);
            }
            return Ok(out);
        }
        // Distinct base tuples can collapse onto one ground tuple (e.g.
        // `R(⊥₀)` and `R(1)` under `⊥₀ ↦ 1`): expansion is parallel, the
        // class-collapsing OR runs over the morsel results in order.
        let ctx = self.ctx;
        let locals = self.par(base.len(), |_, range| {
            let mut local = ColumnarRel::new(rel.arity(), width);
            let mut scratch = Vec::new();
            for t in &base[range] {
                if !t.has_null() {
                    if filter.is_none_or(|c| c.eval(t)) {
                        local.push_full((*t).clone());
                    }
                    continue;
                }
                ctx.expand_for_each(t, &mut scratch, |ground, cyl| {
                    if filter.is_none_or(|c| c.eval(&ground)) {
                        match cyl {
                            None => local.push_full(ground),
                            Some(w) => local.push_words(ground, w),
                        }
                    }
                });
            }
            local
        })?;
        let mut m = Merger::new(rel.arity(), width, self.ctx.worlds());
        for local in locals {
            m.merge_from(local);
        }
        Ok(m.finish())
    }

    /// Hash equi-join (or, with no key pairs, the Cartesian product):
    /// build a key index over the right side, probe the left side
    /// morsel-parallel, concatenate partial outputs in morsel order.
    /// The mask domain compares nulls syntactically, so every row hashes.
    fn join(
        &self,
        l: &ColumnarRel,
        r: &ColumnarRel,
        pairs: &[(usize, usize)],
        residual: &Condition,
    ) -> Result<ColumnarRel> {
        let lkeys: Vec<usize> = pairs.iter().map(|&(lp, _)| lp).collect();
        let rkeys: Vec<usize> = pairs.iter().map(|&(_, rp)| rp).collect();
        let out_arity = l.arity() + r.arity();
        let width = self.ctx.width();
        let index =
            (!pairs.is_empty()).then(|| KeyIndex::build(r.rows().iter().map(|(t, _)| t), &rkeys));
        let all_right: Vec<usize> = if index.is_none() {
            (0..r.len()).collect()
        } else {
            Vec::new()
        };
        let locals = self.par(l.len(), |_, range| {
            let mut out = ColumnarRel::new(out_arity, width);
            let mut scratch = Vec::new();
            for (lt, lm) in &l.rows()[range] {
                let matches: &[usize] = match &index {
                    Some(idx) => idx.probe_key(&extract_key(lt, &lkeys)),
                    None => &all_right,
                };
                for &i in matches {
                    let (rt, rm) = &r.rows()[i];
                    let t = lt.concat(rt);
                    if *residual != Condition::True && !residual.eval(&t) {
                        continue;
                    }
                    push_and(width, &mut out, t, l.mask(*lm), r.mask(*rm), &mut scratch);
                }
            }
            out
        })?;
        let mut out = ColumnarRel::new(out_arity, width);
        for local in locals {
            out.append(local);
        }
        Ok(out)
    }

    /// Division `L ÷ R` under the per-world reading: for each candidate
    /// prefix, `present AND NOT ⋁_{b̄∈R} (mask_R(b̄) AND NOT mask_L(cand·b̄))`.
    fn divide(&self, l: &ColumnarRel, r: &ColumnarRel) -> ColumnarRel {
        let n = l.arity() - r.arity();
        let head: Vec<usize> = (0..n).collect();
        let width = self.ctx.width();
        let dividend = tuple_map(l);
        // Candidate prefixes with the OR of their witnesses' masks.
        let mut candidates = Merger::new(n, width, self.ctx.worlds());
        for (t, rm) in l.rows() {
            candidates.add(t.project(&head), l.mask(*rm));
        }
        let (carena, crows) = candidates.finish().into_parts();
        let mut out = ColumnarRel::new(n, width);
        let mut bad = vec![0u64; width];
        let mut miss = Vec::new();
        let mut keep = Vec::new();
        for (cand, rm) in crows {
            bad.iter_mut().for_each(|w| *w = 0);
            for (b, brm) in r.rows() {
                // Worlds where b̄ is in the divisor but cand·b̄ missing.
                match dividend.get(&cand.concat(b)) {
                    Some(&lrm) => {
                        self.ctx.materialize(r.mask(*brm), &mut miss);
                        match l.mask(lrm) {
                            MaskRef::Full => continue,
                            MaskRef::Words(w) => kernel::andnot_assign(&mut miss, w),
                        }
                        kernel::or_assign(&mut bad, &miss);
                    }
                    None => {
                        self.ctx.materialize(r.mask(*brm), &mut miss);
                        kernel::or_assign(&mut bad, &miss);
                    }
                }
            }
            if kernel::is_zero(&bad) {
                let m = carena.resolve(rm);
                out.push_mask(cand, m);
            } else {
                self.ctx.materialize(carena.resolve(rm), &mut keep);
                kernel::andnot_assign(&mut keep, &bad);
                out.push_words(cand, &keep);
            }
        }
        out
    }

    /// Active-domain power, per world: base constants are in every world's
    /// domain; a null contributes each pool constant on its stripe. Output
    /// size is exponential in `k`, so every generation of the k-fold
    /// product is a governor checkpoint.
    fn dom_power(&self, k: usize) -> Result<ColumnarRel> {
        let width = self.ctx.width();
        // Members in active-domain (sorted) order, merged where a null's
        // substitution collides with a base constant. Member masks live in
        // their own arena, which every round resolves against — it must
        // never be swapped out, unlike the per-generation prefix arena.
        let mut members: Vec<(Value, RowMask)> = Vec::new();
        let mut marena = MaskArena::new(width);
        let mut index: FxHashMap<Value, usize> = FxHashMap::default();
        let mut add = |v: Value, m: Option<&[u64]>, members: &mut Vec<(Value, RowMask)>| match index
            .entry(v)
        {
            Entry::Occupied(e) => {
                let i = *e.get();
                match (members[i].1, m) {
                    (RowMask::Full, _) => {}
                    (RowMask::Slot(s), Some(w)) => kernel::or_assign(marena.row_mut(s), w),
                    (RowMask::Slot(_), None) => members[i].1 = RowMask::Full,
                }
            }
            Entry::Vacant(e) => {
                let rm = match m {
                    None => RowMask::Full,
                    Some(w) => RowMask::Slot(marena.push(w)),
                };
                members.push((e.key().clone(), rm));
                e.insert(members.len() - 1);
            }
        };
        for v in self.db.active_domain() {
            match &v {
                Value::Const(_) => add(v.clone(), None, &mut members),
                Value::Null(n) => match self.ctx.null_ordinal(*n) {
                    Some(p) => {
                        for (ci, c) in self.ctx.pool().iter().enumerate() {
                            add(
                                Value::Const(c.clone()),
                                Some(self.ctx.stripe(p, ci)),
                                &mut members,
                            );
                        }
                    }
                    // A null outside the context is opaque: present as
                    // itself in every world (defensive).
                    None => add(v.clone(), None, &mut members),
                },
            }
        }
        // k-fold product, ANDing member masks across positions. Prefix
        // masks of the current generation live in `arena`; member masks
        // stay in `marena` for every round.
        let mut rows: Vec<(Vec<Value>, RowMask)> = vec![(Vec::new(), RowMask::Full)];
        let mut arena = MaskArena::new(width);
        let mut scratch = Vec::new();
        for _ in 0..k {
            governor::checkpoint()?;
            governor::consume_rows(rows.len())?;
            let mut next_arena = MaskArena::new(width);
            let mut next = Vec::with_capacity(rows.len() * members.len().max(1));
            for (prefix, rm) in &rows {
                let pm = match rm {
                    RowMask::Full => MaskRef::Full,
                    RowMask::Slot(s) => MaskRef::Words(arena.row(*s)),
                };
                for (v, vrm) in &members {
                    let vm = match vrm {
                        RowMask::Full => MaskRef::Full,
                        RowMask::Slot(s) => MaskRef::Words(marena.row(*s)),
                    };
                    let combined = match (pm, vm) {
                        (MaskRef::Full, MaskRef::Full) => RowMask::Full,
                        (MaskRef::Full, MaskRef::Words(w)) | (MaskRef::Words(w), MaskRef::Full) => {
                            if kernel::is_zero(w) {
                                continue;
                            }
                            RowMask::Slot(next_arena.push(w))
                        }
                        (MaskRef::Words(a), MaskRef::Words(b)) => {
                            scratch.clear();
                            scratch.resize(width, 0);
                            kernel::and_into(&mut scratch, a, b);
                            if kernel::is_zero(&scratch) {
                                continue;
                            }
                            RowMask::Slot(next_arena.push(&scratch))
                        }
                    };
                    let mut values = prefix.clone();
                    values.push(v.clone());
                    next.push((values, combined));
                }
            }
            // Re-home: prefix masks of the new generation move into the
            // arena the next round (or the output) reads from. Member
            // masks are untouched — they stay valid in `marena`.
            rows = next;
            arena = next_arena;
        }
        let mut out = ColumnarRel::new(k, width);
        for (values, rm) in rows {
            match rm {
                RowMask::Full => out.push_full(Tuple::new(values)),
                RowMask::Slot(s) => out.push_words(Tuple::new(values), arena.row(s)),
            }
        }
        Ok(out)
    }

    /// Unification anti-semijoin: a left row survives in the worlds where
    /// no unifiable right row is present.
    fn anti_unify(&self, l: ColumnarRel, r: &ColumnarRel) -> ColumnarRel {
        let width = self.ctx.width();
        // Partition the right side: complete rows match null-free left rows
        // by hash; everything else pairs through `unifiable`.
        let mut complete: FxHashMap<&Tuple, RowMask> = FxHashMap::default();
        let mut with_nulls: Vec<(&Tuple, RowMask)> = Vec::new();
        for (t, rm) in r.rows() {
            if t.has_null() {
                with_nulls.push((t, *rm));
            } else {
                complete.insert(t, *rm);
            }
        }
        let mut out = ColumnarRel::new(l.arity(), width);
        let mut bad = vec![0u64; width];
        let mut scratch = Vec::new();
        let (larena, lrows) = l.into_parts();
        for (t, rm) in lrows {
            bad.iter_mut().for_each(|w| *w = 0);
            let mut bad_full = false;
            let or_in = |m: MaskRef<'_>, bad: &mut Vec<u64>, bad_full: &mut bool| match m {
                MaskRef::Full => *bad_full = true,
                MaskRef::Words(w) => kernel::or_assign(bad, w),
            };
            if t.has_null() {
                for (rt, rrm) in &complete {
                    if certa_data::unifiable(&t, rt) {
                        or_in(r.mask(*rrm), &mut bad, &mut bad_full);
                    }
                }
            } else if let Some(rrm) = complete.get(&t) {
                or_in(r.mask(*rrm), &mut bad, &mut bad_full);
            }
            for (rt, rrm) in &with_nulls {
                if certa_data::unifiable(&t, rt) {
                    or_in(r.mask(*rrm), &mut bad, &mut bad_full);
                }
            }
            if bad_full {
                continue;
            }
            if kernel::is_zero(&bad) {
                let m = larena.resolve(rm);
                out.push_mask(t, m);
            } else {
                self.ctx.materialize(larena.resolve(rm), &mut scratch);
                kernel::andnot_assign(&mut scratch, &bad);
                out.push_words(t, &scratch);
            }
        }
        out
    }
}

/// Push `a AND b` for tuple `t` into `out` (zero rows dropped). Free
/// function so morsel-worker closures stay `Sync` without capturing the
/// executor's interior-mutable counters.
fn push_and(
    width: usize,
    out: &mut ColumnarRel,
    t: Tuple,
    a: MaskRef<'_>,
    b: MaskRef<'_>,
    scratch: &mut Vec<u64>,
) {
    match (a, b) {
        (MaskRef::Full, m) | (m, MaskRef::Full) => out.push_mask(t, m),
        (MaskRef::Words(x), MaskRef::Words(y)) => {
            scratch.clear();
            scratch.resize(width, 0);
            kernel::and_into(scratch, x, y);
            out.push_words(t, scratch);
        }
    }
}

/// Push `a AND NOT b` for tuple `t` into `out` (zero rows dropped).
fn push_andnot(
    width: usize,
    worlds: usize,
    out: &mut ColumnarRel,
    t: Tuple,
    a: MaskRef<'_>,
    b: MaskRef<'_>,
    scratch: &mut Vec<u64>,
) {
    scratch.clear();
    scratch.resize(width, 0);
    match (a, b) {
        (_, MaskRef::Full) => {}
        (MaskRef::Full, MaskRef::Words(y)) => {
            kernel::not_into(scratch, y, worlds);
            out.push_words(t, scratch);
        }
        (MaskRef::Words(x), MaskRef::Words(y)) => {
            kernel::andnot_into(scratch, x, y);
            out.push_words(t, scratch);
        }
    }
}

/// Full-tuple lookup map over a columnar relation's rows (rows are
/// duplicate-merged, so the last write per tuple is also the only one).
fn tuple_map(rel: &ColumnarRel) -> FxHashMap<&Tuple, RowMask> {
    rel.rows().iter().map(|(t, m)| (t, *m)).collect()
}

#[cfg(test)]
mod tests {
    use super::super::tests::assert_matches_world_enumeration;
    use super::*;
    use crate::expr::RaExpr;
    use crate::physical::plan;
    use certa_data::{database_from_literal, tup, Const};

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
                ],
            ),
            ("S", vec!["c"], vec![tup![2], tup![Value::null(0)]]),
        ])
    }

    #[test]
    fn columnar_matches_world_enumeration_on_core_operators() {
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
    fn columnar_matches_world_enumeration_on_extended_operators() {
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

    /// Regression: member masks must survive the per-round prefix-arena
    /// swap in `dom_power`. A nulls-only base makes every member mask a
    /// stripe (no Full short-circuit), and k >= 3 forces a resolve after
    /// at least two swaps — the stale-arena read returned wrong world
    /// sets (or panicked out of bounds) here before the member arena was
    /// split out.
    #[test]
    fn dom_power_fresh_pool_constants_at_high_k() {
        let nulls_only = database_from_literal([(
            "N",
            vec!["a"],
            vec![tup![Value::null(0)], tup![Value::null(1)]],
        )]);
        for q in [
            RaExpr::DomPower(3),
            RaExpr::DomPower(4),
            RaExpr::DomPower(3).difference(RaExpr::DomPower(3).select(Condition::eq_attr(0, 1))),
        ] {
            assert_matches_world_enumeration(&q, &nulls_only, &[1, 2]);
        }
        // Mixed base constants and nulls, pool disjoint from the base
        // active domain: striped members sit after Full ones, so their
        // slot indices cannot coincidentally realign.
        let d = db();
        for q in [
            RaExpr::DomPower(3),
            RaExpr::DomPower(3).intersect(RaExpr::rel("R").product(RaExpr::rel("S"))),
        ] {
            assert_matches_world_enumeration(&q, &d, &[5, 6]);
        }
    }

    #[test]
    fn columnar_handles_syntactic_predicates_and_literals() {
        let d = db();
        let lit = RaExpr::Literal(certa_data::Relation::from_tuples(vec![
            tup![Value::null(9)],
            tup![2],
        ]));
        let queries = vec![
            RaExpr::rel("R").select(Condition::IsNull(1)),
            RaExpr::rel("R").select(Condition::IsConst(0)),
            RaExpr::rel("R").select(Condition::IsNull(0).or(Condition::eq_const(1, 2))),
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
    fn stats_count_rows_morsels_and_arena_words() {
        let d = db();
        let ctx = ColumnarContext::new(d.nulls(), (1..=2).map(Const::Int)).unwrap();
        let exec = ColumnarExec::new(&d, &ctx, MorselPool::new(1)).profiled();
        let q = RaExpr::rel("R").join_on(RaExpr::rel("S"), &[(1, 0)], 2);
        let physical = plan(&q, d.schema()).unwrap();
        exec.execute(&physical).unwrap();
        let stats = exec.stats();
        assert!(stats.rows > 0);
        assert!(stats.distinct_masks > 0);
        assert!(stats.morsels >= 2, "one morsel per scanned base relation");
        assert!(stats.arena_words > 0);
    }
}
