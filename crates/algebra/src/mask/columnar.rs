//! Columnar mask storage: contiguous arenas of mask words, indexed by row.
//!
//! A relation owns **one** `Vec<u64>` arena holding every explicit mask
//! back to back ([`MaskArena`]), and each row carries only a 4-byte slot
//! index ([`RowMask`]). Batch operations — AND a join's matches, OR a
//! projection's duplicates, popcount an output — become loops over
//! contiguous slices, dispatched to the width-selected kernels of
//! [`super::kernel`], with no pointer chased per tuple.
//!
//! Two canonical row states avoid storing trivial masks at all: `Full`
//! (every world; the ubiquitous null-free rows) is a variant, and
//! empty-mask rows are simply never stored (the engine's zero-row drop
//! invariant). [`ColumnarContext`] describes the valuation space: the null
//! order, the constant pool, and the stripe masks in one contiguous arena,
//! with the substitution-class expansion writing cylinders straight into
//! caller scratch. It is `Send + Sync`, so morsel workers share it by
//! reference.

use certa_data::valuation::count_valuations;
use certa_data::{Const, NullId, Tuple, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use super::fxhash::FxHashMap;
use super::kernel;

/// A relation-level arena of mask blocks: `width` words per row slot, all
/// slots contiguous in one `Vec<u64>`.
#[derive(Debug, Clone)]
pub struct MaskArena {
    width: usize,
    words: Vec<u64>,
    slots: usize,
}

impl MaskArena {
    /// An empty arena whose slots are `width` words wide.
    pub fn new(width: usize) -> MaskArena {
        MaskArena {
            width,
            words: Vec::new(),
            slots: 0,
        }
    }

    /// An empty arena with room for `rows` slots pre-reserved.
    pub fn with_capacity(width: usize, rows: usize) -> MaskArena {
        MaskArena {
            width,
            words: Vec::with_capacity(width * rows),
            slots: 0,
        }
    }

    /// Words per slot.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of allocated slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Total words held (arena footprint; `slots × width`).
    pub fn words_len(&self) -> usize {
        self.words.len()
    }

    /// Append a slot holding a copy of `src` (must be `width` words).
    ///
    /// Arena growth is metered against the thread's governor (the word
    /// budget trips at the next cooperative checkpoint — per morsel, per
    /// operator — not here, so the buffer path stays infallible).
    pub fn push(&mut self, src: &[u64]) -> u32 {
        debug_assert_eq!(src.len(), self.width);
        let slot = self.slots;
        self.words.extend_from_slice(src);
        self.slots += 1;
        crate::governor::note_arena_words(self.width);
        u32::try_from(slot).expect("mask arena slot count exceeds u32")
    }

    /// Append a zeroed slot. Metered like [`MaskArena::push`].
    pub fn push_zeroed(&mut self) -> u32 {
        let slot = self.slots;
        self.words.resize(self.words.len() + self.width, 0);
        self.slots += 1;
        crate::governor::note_arena_words(self.width);
        u32::try_from(slot).expect("mask arena slot count exceeds u32")
    }

    /// The blocks of slot `s`.
    pub fn row(&self, s: u32) -> &[u64] {
        let lo = s as usize * self.width;
        &self.words[lo..lo + self.width]
    }

    /// The blocks of slot `s`, mutably.
    pub fn row_mut(&mut self, s: u32) -> &mut [u64] {
        let lo = s as usize * self.width;
        &mut self.words[lo..lo + self.width]
    }

    /// Resolve a row mask against this arena.
    pub fn resolve(&self, m: RowMask) -> MaskRef<'_> {
        match m {
            RowMask::Full => MaskRef::Full,
            RowMask::Slot(s) => MaskRef::Words(self.row(s)),
        }
    }

    /// OR `words` into slot `s` in place, returning the slot's resulting
    /// popcount (so callers can canonicalize saturated masks to
    /// [`RowMask::Full`]). The delta-merge primitive: incremental insert
    /// deltas OR their world sets into existing rows.
    pub fn or_into_slot(&mut self, s: u32, words: &[u64]) -> usize {
        let row = self.row_mut(s);
        kernel::or_assign(row, words);
        kernel::popcount(row)
    }
}

/// A row's mask, relative to its relation's arena. Rows whose mask would be
/// empty are dropped instead of stored, so `Zero` needs no variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowMask {
    /// Present in every world (no blocks stored).
    Full,
    /// An explicit bitset at the given arena slot.
    Slot(u32),
}

/// A borrowed view of one row's world set.
#[derive(Debug, Clone, Copy)]
pub enum MaskRef<'a> {
    /// Every world.
    Full,
    /// An explicit bitset.
    Words(&'a [u64]),
}

/// A columnar annotated relation: tuples plus row masks over one arena.
#[derive(Debug, Clone)]
pub struct ColumnarRel {
    arity: usize,
    rows: Vec<(Tuple, RowMask)>,
    arena: MaskArena,
}

impl ColumnarRel {
    /// An empty relation of the given arity over `width`-word masks.
    pub fn new(arity: usize, width: usize) -> ColumnarRel {
        ColumnarRel {
            arity,
            rows: Vec::new(),
            arena: MaskArena::new(width),
        }
    }

    /// Arity of the tuples.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The rows, in deterministic (construction) order.
    pub fn rows(&self) -> &[(Tuple, RowMask)] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The backing arena.
    pub fn arena(&self) -> &MaskArena {
        &self.arena
    }

    /// Resolve a row mask against this relation's arena.
    pub fn mask(&self, m: RowMask) -> MaskRef<'_> {
        self.arena.resolve(m)
    }

    /// Append a row present in every world.
    pub fn push_full(&mut self, t: Tuple) {
        self.rows.push((t, RowMask::Full));
    }

    /// Append a row with an explicit mask, dropping it if the mask is
    /// empty (the zero-row invariant).
    pub fn push_words(&mut self, t: Tuple, words: &[u64]) {
        if kernel::is_zero(words) {
            return;
        }
        let slot = self.arena.push(words);
        self.rows.push((t, RowMask::Slot(slot)));
    }

    /// Append a row given a borrowed mask view (from any arena).
    pub fn push_mask(&mut self, t: Tuple, m: MaskRef<'_>) {
        match m {
            MaskRef::Full => self.push_full(t),
            MaskRef::Words(w) => self.push_words(t, w),
        }
    }

    /// Keep only rows whose tuple passes `pred` (selection; ground rows
    /// decide conditions world-independently, so masks pass through
    /// untouched and dead arena slots are simply left behind).
    pub fn retain_rows(&mut self, mut pred: impl FnMut(&Tuple) -> bool) {
        self.rows.retain(|(t, _)| pred(t));
    }

    /// Decompose into the arena and the row list (tuples moved out, masks
    /// still resolving against the returned arena) — for consumers that
    /// want to re-key the rows without cloning the tuples.
    pub fn into_parts(self) -> (MaskArena, Vec<(Tuple, RowMask)>) {
        (self.arena, self.rows)
    }

    /// Move every row of `other` into `self`, re-homing explicit masks
    /// into this relation's arena (the morsel-merge step: worker-local
    /// relations concatenate in morsel order).
    pub fn append(&mut self, other: ColumnarRel) {
        debug_assert_eq!(self.arity, other.arity);
        for (t, m) in other.rows {
            match m {
                RowMask::Full => self.rows.push((t, RowMask::Full)),
                RowMask::Slot(s) => {
                    let slot = self.arena.push(other.arena.row(s));
                    self.rows.push((t, RowMask::Slot(slot)));
                }
            }
        }
    }
}

/// A duplicate-merging builder over a [`ColumnarRel`]: rows with the same
/// tuple have their world sets ORed in place (duplicate-collapsing π, ∪,
/// scan-class collapse). Row order is first-insertion order, so the result
/// is deterministic regardless of hash-map iteration.
#[derive(Debug)]
pub struct Merger {
    arity: usize,
    arena: MaskArena,
    // The index owns each tuple exactly once; `masks` carries the per-row
    // state in first-insertion order, reunited with the tuples at `finish`.
    masks: Vec<RowMask>,
    index: FxHashMap<Tuple, usize>,
    worlds: usize,
}

impl Merger {
    /// An empty merger for tuples of `arity` over `width`-word masks in a
    /// `worlds`-world space.
    pub fn new(arity: usize, width: usize, worlds: usize) -> Merger {
        Merger {
            arity,
            arena: MaskArena::new(width),
            masks: Vec::new(),
            index: FxHashMap::default(),
            worlds,
        }
    }

    /// OR a mask into the row for `t`, creating the row if new.
    pub fn add(&mut self, t: Tuple, m: MaskRef<'_>) {
        if let MaskRef::Words(w) = m {
            if kernel::is_zero(w) {
                return;
            }
        }
        match self.index.entry(t) {
            Entry::Occupied(e) => {
                let i = *e.get();
                match (self.masks[i], m) {
                    (RowMask::Full, _) => {}
                    (RowMask::Slot(s), MaskRef::Words(w)) => {
                        let row = self.arena.row_mut(s);
                        kernel::or_assign(row, w);
                        // A merged mask that reaches saturation collapses
                        // to the canonical Full row (dead slot stays).
                        if kernel::popcount(row) == self.worlds {
                            self.masks[i] = RowMask::Full;
                        }
                    }
                    (RowMask::Slot(_), MaskRef::Full) => {
                        self.masks[i] = RowMask::Full;
                    }
                }
            }
            Entry::Vacant(e) => {
                let rm = match m {
                    MaskRef::Full => RowMask::Full,
                    MaskRef::Words(w) => RowMask::Slot(self.arena.push(w)),
                };
                e.insert(self.masks.len());
                self.masks.push(rm);
            }
        }
    }

    /// Move every row of `other` in (the cross-morsel merge step: tuples
    /// move, only masks are re-homed into this merger's arena).
    pub fn merge_from(&mut self, other: ColumnarRel) {
        debug_assert_eq!(self.arity, other.arity);
        for (t, m) in other.rows {
            match m {
                RowMask::Full => self.add(t, MaskRef::Full),
                RowMask::Slot(s) => self.add(t, MaskRef::Words(other.arena.row(s))),
            }
        }
    }

    /// The merged relation, rows in first-insertion order.
    pub fn finish(self) -> ColumnarRel {
        let mut rows: Vec<(Tuple, RowMask)> = Vec::with_capacity(self.masks.len());
        rows.resize_with(self.masks.len(), || (Tuple::new([]), RowMask::Full));
        for (t, i) in self.index {
            rows[i] = (t, self.masks[i]);
        }
        ColumnarRel {
            arity: self.arity,
            rows,
            arena: self.arena,
        }
    }
}

/// The columnar valuation context: null order, constant pool, and stripe
/// masks `S(p, c) = { idx | digit_p(idx) = c }` stored contiguously.
/// `Send + Sync` (no interior pointers), so one context serves every
/// morsel worker by shared reference.
#[derive(Debug)]
pub struct ColumnarContext {
    nulls: Vec<NullId>,
    null_index: HashMap<NullId, usize>,
    pool: Vec<Const>,
    worlds: usize,
    width: usize,
    /// Stripe slot `p * |pool| + c` holds `S(p, c)`.
    stripes: MaskArena,
}

impl ColumnarContext {
    /// Build a context for the given nulls (ascending order, matching the
    /// engines' world indexing) over a constant pool. `None` when the world
    /// count `|pool|^|nulls|` overflows `usize`.
    pub fn new(
        nulls: impl IntoIterator<Item = NullId>,
        pool: impl IntoIterator<Item = Const>,
    ) -> Option<ColumnarContext> {
        let nulls: Vec<NullId> = nulls.into_iter().collect();
        let pool: Vec<Const> = pool.into_iter().collect();
        let worlds = count_valuations(nulls.len(), pool.len());
        if worlds == usize::MAX {
            return None;
        }
        let width = kernel::words_for(worlds);
        let k = pool.len();
        let mut stripes = MaskArena::with_capacity(width, nulls.len() * k);
        let mut step = 1usize; // k^p
        for _ in 0..nulls.len() {
            for c in 0..k {
                let slot = stripes.push_zeroed();
                let words = stripes.row_mut(slot);
                let mut lo = c * step;
                while lo < worlds {
                    let hi = (lo + step).min(worlds);
                    kernel::set_range(words, lo, hi);
                    lo += step * k;
                }
            }
            step = step.saturating_mul(k);
        }
        let null_index = nulls.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        Some(ColumnarContext {
            nulls,
            null_index,
            pool,
            worlds,
            width,
            stripes,
        })
    }

    /// Number of possible worlds.
    pub fn worlds(&self) -> usize {
        self.worlds
    }

    /// Words per mask (`⌈worlds/64⌉`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The constant pool.
    pub fn pool(&self) -> &[Const] {
        &self.pool
    }

    /// The nulls, in world-index digit order.
    pub fn nulls(&self) -> &[NullId] {
        &self.nulls
    }

    /// The context ordinal of a database null, if indexed.
    pub fn null_ordinal(&self, n: NullId) -> Option<usize> {
        self.null_index.get(&n).copied()
    }

    /// The stripe mask for a null ordinal and a pool index.
    pub fn stripe(&self, null_ordinal: usize, pool_index: usize) -> &[u64] {
        self.stripes
            .row(u32::try_from(null_ordinal * self.pool.len() + pool_index).expect("stripe slot"))
    }

    /// Number of worlds in a borrowed mask.
    pub fn count(&self, m: MaskRef<'_>) -> usize {
        match m {
            MaskRef::Full => self.worlds,
            MaskRef::Words(w) => kernel::popcount(w),
        }
    }

    /// Number of worlds in the intersection of two borrowed masks.
    pub fn count_and(&self, a: MaskRef<'_>, b: MaskRef<'_>) -> usize {
        match (a, b) {
            (MaskRef::Full, x) | (x, MaskRef::Full) => self.count(x),
            (MaskRef::Words(x), MaskRef::Words(y)) => kernel::popcount_and(x, y),
        }
    }

    /// `true` iff the mask holds every world (certainty).
    pub fn is_full(&self, m: MaskRef<'_>) -> bool {
        self.count(m) == self.worlds
    }

    /// `true` iff `small ⊆ big` as world sets.
    pub fn covers(&self, big: MaskRef<'_>, small: MaskRef<'_>) -> bool {
        match (big, small) {
            (MaskRef::Full, _) => true,
            (MaskRef::Words(b), MaskRef::Full) => kernel::popcount(b) == self.worlds,
            (MaskRef::Words(b), MaskRef::Words(s)) => kernel::covers(b, s),
        }
    }

    /// The stripe mask of "`⊥_null` takes the value `value`", by database
    /// null id and pool constant — the **world-space restriction** a null
    /// resolution induces. `None` when the null is not indexed by this
    /// context or the constant is outside the pool (the caller must then
    /// recompute instead of refining).
    pub fn stripe_for(&self, null: NullId, value: &Const) -> Option<&[u64]> {
        let p = self.null_ordinal(null)?;
        let c = self.pool.iter().position(|x| x == value)?;
        Some(self.stripe(p, c))
    }

    /// Materialize `a AND b` into `buf` (bit-slice selection: restricting a
    /// mask or cylinder to a sub-space of the worlds).
    pub fn and_materialize(&self, a: MaskRef<'_>, b: MaskRef<'_>, buf: &mut Vec<u64>) {
        self.materialize(a, buf);
        if let MaskRef::Words(w) = b {
            kernel::and_assign(buf, w);
        }
    }

    /// Materialize a borrowed mask into `buf` (resized to the width).
    pub fn materialize(&self, m: MaskRef<'_>, buf: &mut Vec<u64>) {
        buf.clear();
        buf.resize(self.width, 0);
        match m {
            MaskRef::Full => kernel::fill(buf, self.worlds),
            MaskRef::Words(w) => buf.copy_from_slice(w),
        }
    }

    /// Expand a tuple's null-substitution classes, invoking `f` once per
    /// `(ground tuple, cylinder)` pair. `None` means the full mask (the
    /// null-free class); explicit cylinders are borrowed — single-null
    /// tuples hand back the stripe itself, multi-null tuples AND stripes
    /// into `scratch` (caller-provided so per-morsel expansion reuses one
    /// allocation).
    ///
    /// With an empty pool there are no valuations and no classes: `f` is
    /// never called for a tuple carrying database nulls.
    pub fn expand_for_each(
        &self,
        t: &Tuple,
        scratch: &mut Vec<u64>,
        mut f: impl FnMut(Tuple, Option<&[u64]>),
    ) {
        // Distinct database nulls of the tuple, as context ordinals.
        let mut present: Vec<usize> = Vec::new();
        for v in t.iter() {
            if let Value::Null(n) = v {
                if let Some(&p) = self.null_index.get(n) {
                    if !present.contains(&p) {
                        present.push(p);
                    }
                }
            }
        }
        if present.is_empty() {
            f(t.clone(), None);
            return;
        }
        let k = self.pool.len();
        if k == 0 {
            return;
        }
        let total = k.pow(present.len() as u32);
        let mut choice = vec![0usize; present.len()];
        for combo in 0..total {
            let mut c = combo;
            for slot in choice.iter_mut() {
                *slot = c % k;
                c /= k;
            }
            let ground = t.map(|v| match v {
                Value::Null(n) => match self.null_index.get(n) {
                    Some(&p) => {
                        let j = present
                            .iter()
                            .position(|&q| q == p)
                            .expect("collected above");
                        Value::Const(self.pool[choice[j]].clone())
                    }
                    None => v.clone(),
                },
                Value::Const(_) => v.clone(),
            });
            if present.len() == 1 {
                f(ground, Some(self.stripe(present[0], choice[0])));
            } else {
                scratch.clear();
                scratch.extend_from_slice(self.stripe(present[0], choice[0]));
                for (j, &p) in present.iter().enumerate().skip(1) {
                    kernel::and_assign(scratch, self.stripe(p, choice[j]));
                }
                f(ground, Some(scratch));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_data::tup;
    use certa_data::valuation::valuation_at;

    fn ctx(nulls: usize, pool: usize) -> ColumnarContext {
        ColumnarContext::new(
            (0..nulls as NullId).collect::<Vec<_>>(),
            (0..pool as i64).map(Const::Int),
        )
        .unwrap()
    }

    /// Whether world `idx` is in a mask.
    fn bit(words: &[u64], idx: usize) -> bool {
        words[idx / 64] >> (idx % 64) & 1 == 1
    }

    #[test]
    fn stripes_match_the_valuation_order() {
        let c = ctx(2, 3);
        assert_eq!((c.worlds(), c.width()), (9, 1));
        // World idx is in stripe (p, ci) iff the idx-th valuation maps null
        // p to pool constant ci — the order the world engines decode, so
        // each digit's stripes partition the worlds. Digit 0 varies
        // fastest: stripe (0, ci) is the congruence class idx ≡ ci (mod 3).
        for idx in 0..c.worlds() {
            let v = valuation_at(c.nulls(), c.pool(), idx);
            for (p, &n) in c.nulls().iter().enumerate() {
                for (ci, k) in c.pool().iter().enumerate() {
                    let expected = v.get(n) == Some(k);
                    assert_eq!(
                        bit(c.stripe(p, ci), idx),
                        expected,
                        "idx {idx} stripe ({p}, {ci})"
                    );
                }
            }
            for ci in 0..3 {
                assert_eq!(bit(c.stripe(0, ci), idx), idx % 3 == ci);
            }
        }
    }

    #[test]
    fn expand_cylinders_partition_the_worlds() {
        let c = ctx(2, 2);
        let t = tup![Value::null(0), Value::null(1)];
        let mut scratch = Vec::new();
        let mut classes: Vec<(Tuple, usize)> = Vec::new();
        c.expand_for_each(&t, &mut scratch, |g, m| {
            classes.push((g, kernel::popcount(m.expect("null tuple has cylinders"))));
        });
        assert_eq!(classes.len(), 4);
        let total: usize = classes.iter().map(|(_, n)| n).sum();
        assert_eq!(total, c.worlds());
    }

    #[test]
    fn merger_ors_duplicates_and_canonicalizes_full() {
        let c = ctx(1, 2);
        let mut m = Merger::new(1, c.width(), c.worlds());
        // The two stripes of the single null: together they cover all
        // worlds, so the merged row must collapse to Full.
        m.add(tup![7], MaskRef::Words(c.stripe(0, 0)));
        m.add(tup![7], MaskRef::Words(c.stripe(0, 1)));
        m.add(tup![8], MaskRef::Words(c.stripe(0, 0)));
        let rel = m.finish();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.rows()[0].0, tup![7]);
        assert_eq!(rel.rows()[0].1, RowMask::Full);
        assert!(matches!(rel.rows()[1].1, RowMask::Slot(_)));
    }

    #[test]
    fn zero_rows_are_dropped() {
        let mut rel = ColumnarRel::new(1, 2);
        rel.push_words(tup![1], &[0, 0]);
        assert!(rel.is_empty());
        rel.push_words(tup![1], &[1, 0]);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.arena().words_len(), 2);
    }

    #[test]
    fn append_rehomes_masks() {
        let mut a = ColumnarRel::new(1, 1);
        a.push_words(tup![1], &[0b01]);
        let mut b = ColumnarRel::new(1, 1);
        b.push_full(tup![2]);
        b.push_words(tup![3], &[0b10]);
        a.append(b);
        assert_eq!(a.len(), 3);
        let MaskRef::Words(w) = a.mask(a.rows()[2].1) else {
            panic!("expected explicit mask")
        };
        assert_eq!(w, &[0b10]);
    }

    #[test]
    fn context_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<ColumnarContext>();
        check::<ColumnarRel>();
    }
}
