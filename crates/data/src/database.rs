//! Incomplete relational database instances.
//!
//! One type, [`Instance`], holds a database under either reading the
//! survey uses: a [`Database`] holds set-semantics [`Relation`]s and a
//! [`BagDatabase`] holds bag-semantics [`BagRelation`]s. The sealed
//! [`RelationKind`] trait carries what differs between the two kinds: the
//! on-disk tags and relation codec, and how an insert, a delete or a tuple
//! mapping applies to a relation. The identity layer, the delta log and
//! the durability attachment are written once, for both.
//!
//! Beyond schema + relations, every instance carries an **identity layer**
//! used by downstream caches: a process-unique *instance id*, a
//! monotonically increasing *epoch* bumped by every mutation, and a bounded
//! log of [`Delta`]s describing what changed between epochs. A cache that
//! remembers `(instance, epoch)` can later ask [`Instance::deltas_since`]
//! for exactly the changes it missed and decide whether to serve, refine,
//! or recompute. Mutations the log cannot describe exactly (wholesale
//! relation replacement, mutable relation access) are logged as
//! [`Delta::Structural`], which conservatively forces recomputation.

use crate::bag::BagRelation;
use crate::codec::{put_bag_relation, put_relation, Reader};
use crate::delta::{Delta, DELTA_LOG_CAP};
use crate::relation::Relation;
use crate::schema::{RelationSchema, Schema};
use crate::snapshot::{self, SnapshotContents};
use crate::tuple::Tuple;
use crate::value::{Const, NullId, Value};
use crate::wal::{DurabilityStats, DurableLog, WalRecord};
use crate::{DataError, Result};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide instance-id allocator. Ids are never reused, so a cache
/// keyed on `(instance, epoch)` can never confuse two databases — including
/// a database and its clone, which receive distinct ids (their epochs
/// advance independently once they diverge).
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

fn next_instance_id() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// The nulls mentioned in `t`, in position order.
fn tuple_nulls(t: &Tuple) -> impl Iterator<Item = NullId> + '_ {
    t.iter().filter_map(Value::as_null)
}

/// The relations an [`Instance`] holds: [`Relation`] under set semantics,
/// [`BagRelation`] under bag semantics.
///
/// The trait is sealed: the durable format knows exactly these two kinds.
pub trait RelationKind: kind::Sealed {}

impl RelationKind for Relation {}
impl RelationKind for BagRelation {}

/// The part of an [`Instance`] that differs between the two kinds.
mod kind {
    use super::*;

    pub trait Sealed: Clone + PartialEq + fmt::Debug {
        /// The kind byte of a snapshot body.
        const SNAPSHOT_KIND: u8;
        /// Whether a snapshot body records the null allocator.
        const SNAPSHOT_NEXT_NULL: bool;
        /// The WAL record tag of a reset frame.
        const RESET_TAG: u8;
        /// Why a store of the other kind does not recover as this kind.
        const WRONG_KIND: &'static str;

        fn empty(arity: usize) -> Self;
        fn encode(&self, buf: &mut Vec<u8>);
        fn decode(r: &mut Reader<'_>) -> Result<Self>;
        /// The distinct tuples, in canonical order.
        fn tuples(&self) -> impl Iterator<Item = &Tuple>;
        /// Add one occurrence of `t`: one tuple of a logged insert.
        fn insert_one(&mut self, t: Tuple);
        /// Remove every occurrence of each of `tuples`: a logged delete,
        /// and the removal behind `retain`. Returns the occurrences removed.
        fn remove_all(&mut self, tuples: &[Tuple]) -> usize;
        /// Apply `f` to every tuple; in a bag, tuples that collapse add
        /// their multiplicities.
        fn map_tuples(&self, f: impl FnMut(&Tuple) -> Tuple) -> Self;
    }

    impl Sealed for Relation {
        const SNAPSHOT_KIND: u8 = 0;
        const SNAPSHOT_NEXT_NULL: bool = true;
        const RESET_TAG: u8 = 1;
        const WRONG_KIND: &'static str = "durable store holds a bag database; use recover_bag";

        fn empty(arity: usize) -> Self {
            Relation::empty(arity)
        }

        fn encode(&self, buf: &mut Vec<u8>) {
            put_relation(buf, self);
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self> {
            r.relation()
        }

        fn tuples(&self) -> impl Iterator<Item = &Tuple> {
            self.iter()
        }

        fn insert_one(&mut self, t: Tuple) {
            self.insert(t);
        }

        fn remove_all(&mut self, tuples: &[Tuple]) -> usize {
            tuples.iter().map(|t| usize::from(self.remove(t))).sum()
        }

        fn map_tuples(&self, f: impl FnMut(&Tuple) -> Tuple) -> Self {
            self.map(f)
        }
    }

    impl Sealed for BagRelation {
        const SNAPSHOT_KIND: u8 = 1;
        const SNAPSHOT_NEXT_NULL: bool = false;
        const RESET_TAG: u8 = 2;
        const WRONG_KIND: &'static str = "durable store holds a set database; use recover";

        fn empty(arity: usize) -> Self {
            BagRelation::empty(arity)
        }

        fn encode(&self, buf: &mut Vec<u8>) {
            put_bag_relation(buf, self);
        }

        fn decode(r: &mut Reader<'_>) -> Result<Self> {
            r.bag_relation()
        }

        fn tuples(&self) -> impl Iterator<Item = &Tuple> {
            self.distinct()
        }

        fn insert_one(&mut self, t: Tuple) {
            self.insert(t);
        }

        fn remove_all(&mut self, tuples: &[Tuple]) -> usize {
            let gone: BTreeSet<&Tuple> = tuples.iter().collect();
            let removed = gone.iter().map(|t| self.multiplicity(t)).sum();
            if removed > 0 {
                *self = self.filter(|t| !gone.contains(t));
            }
            removed
        }

        fn map_tuples(&self, f: impl FnMut(&Tuple) -> Tuple) -> Self {
            self.map_add(f)
        }
    }
}

/// An incomplete relational database instance `D` whose relations are of
/// kind `R`: [`Database`] under set semantics, [`BagDatabase`] under bag
/// semantics.
///
/// Equality ([`PartialEq`]) compares schema and contents only; the identity
/// layer (instance id, epoch, delta log, null allocator) is bookkeeping and
/// never participates in comparisons.
#[derive(Debug)]
pub struct Instance<R> {
    schema: Schema,
    relations: BTreeMap<String, R>,
    /// Process-unique identity; fresh per construction and per clone.
    instance: u64,
    /// Mutation counter: bumped by exactly one per logged delta.
    epoch: u64,
    /// The log covers epochs `(log_base, epoch]`; `log[i]` produced epoch
    /// `log_base + 1 + i`. Entries older than [`DELTA_LOG_CAP`] are dropped
    /// from the front (raising `log_base`), after which `deltas_since` for
    /// pre-gap epochs reports `None`.
    log_base: u64,
    log: VecDeque<Delta>,
    /// Next null id [`Database::fresh_null`] will hand out. Monotonic per
    /// database: never decreases, and always kept above every null that has
    /// ever been observed in the instance.
    next_null: NullId,
    /// Optional durability attachment: when present, every logged mutation
    /// appends a WAL frame before the mutator returns (see [`crate::wal`]).
    durable: Option<DurableLog>,
}

/// An incomplete database under set semantics: each relation name of the
/// [`Schema`] is interpreted as a set-semantics [`Relation`] over
/// `Const ∪ Null`. Bag-semantics interpretations are obtained on demand via
/// [`Database::to_bags`], or by building a [`BagDatabase`] directly.
pub type Database = Instance<Relation>;

/// A database whose relations are interpreted under bag semantics.
pub type BagDatabase = Instance<BagRelation>;

impl<R: Clone> Clone for Instance<R> {
    fn clone(&self) -> Self {
        Instance {
            schema: self.schema.clone(),
            relations: self.relations.clone(),
            // A clone is a *different* instance: its epoch line diverges
            // from the original's at the point of cloning, so sharing the
            // id would let a cache built against one be served the other.
            instance: next_instance_id(),
            epoch: self.epoch,
            log_base: self.log_base,
            log: self.log.clone(),
            next_null: self.next_null,
            // A clone never inherits the durability attachment: two writers
            // interleaving frames in one WAL would corrupt both histories.
            durable: None,
        }
    }
}

impl<R: PartialEq> PartialEq for Instance<R> {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.relations == other.relations
    }
}

impl<R: Eq> Eq for Instance<R> {}

impl<R: RelationKind> Instance<R> {
    /// Create an empty database over a schema (every relation empty).
    pub fn new(schema: Schema) -> Self {
        let relations = schema
            .iter()
            .map(|r| (r.name().to_string(), R::empty(r.arity())))
            .collect();
        Self::from_parts(schema, relations)
    }

    fn from_parts(schema: Schema, relations: BTreeMap<String, R>) -> Self {
        let next_null = relations
            .values()
            .flat_map(|r| r.tuples().flat_map(tuple_nulls))
            .max()
            .map_or(0, |m| m + 1);
        Instance {
            schema,
            relations,
            instance: next_instance_id(),
            epoch: 0,
            log_base: 0,
            log: VecDeque::new(),
            next_null,
            durable: None,
        }
    }

    /// Rebuild a database from recovered snapshot + WAL state. The result
    /// is a **fresh instance** with an empty in-memory delta log based at
    /// the snapshot's epoch: caches stamped with the pre-crash instance can
    /// never be served against it, and `deltas_since` any pre-crash epoch
    /// is `None`.
    pub(crate) fn from_snapshot(contents: SnapshotContents<R>) -> Self {
        let mut db = Self::from_parts(contents.schema, contents.relations);
        db.epoch = contents.epoch;
        db.log_base = contents.epoch;
        db.next_null = db.next_null.max(contents.next_null);
        db
    }

    pub(crate) fn set_durable(&mut self, d: DurableLog) {
        self.durable = Some(d);
    }

    /// Apply one recovered WAL record without logging it. Used only by
    /// [`crate::wal::recover`] and [`crate::wal::recover_bag`]; a record
    /// that cannot be applied (unknown relation) is reported as corruption
    /// and recovery treats it as the start of the torn tail.
    pub(crate) fn replay_record(&mut self, epoch: u64, record: &WalRecord<R>) -> Result<()> {
        match record {
            WalRecord::Delta(Delta::Insert { relation, tuples }) => {
                let rel = self.relation_entry(relation)?;
                for t in tuples {
                    rel.insert_one(t.clone());
                }
                self.note_nulls(tuples.iter().flat_map(tuple_nulls));
            }
            WalRecord::Delta(Delta::Delete { relation, tuples }) => {
                self.relation_entry(relation)?.remove_all(tuples);
            }
            WalRecord::Delta(Delta::Resolve { null, value }) => {
                self.substitute_null(*null, value);
            }
            WalRecord::Delta(Delta::Structural) => {
                // The WAL writer never emits content-free structural
                // deltas (they become `Reset` frames); one on disk is
                // unreplayable history.
                return Err(DataError::Corrupt {
                    detail: "content-free structural delta in wal".to_string(),
                });
            }
            WalRecord::Reset { relation, rel } => {
                *self.relation_entry(relation)? = rel.clone();
                self.note_nulls(rel.tuples().flat_map(tuple_nulls));
            }
        }
        self.epoch = epoch;
        self.log_base = epoch;
        Ok(())
    }

    /// Write any deferred structural reset frames (from
    /// [`Instance::relation_mut`] borrows) to the WAL. Consecutive deferred
    /// resets of the same relation collapse into the newest epoch — the
    /// relation's current contents are only known to match the *latest*
    /// structural epoch, and a frame per intermediate epoch would claim
    /// states that never existed.
    fn wal_flush_pending(&mut self) -> Result<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        let pending = d.take_pending();
        if pending.is_empty() {
            return Ok(());
        }
        let mut latest: BTreeMap<String, u64> = BTreeMap::new();
        for (epoch, name) in pending {
            let e = latest.entry(name).or_insert(epoch);
            *e = (*e).max(epoch);
        }
        let mut ordered: Vec<(u64, String)> = latest.into_iter().map(|(n, e)| (e, n)).collect();
        ordered.sort();
        for (epoch, name) in ordered {
            let rel = self
                .relations
                .get(&name)
                .ok_or_else(|| DataError::UnknownRelation(name.clone()))?;
            d.append_reset(epoch, &name, rel)?;
        }
        Ok(())
    }

    /// Append the most recently recorded delta to the WAL.
    fn wal_append_last(&mut self) -> Result<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        if let Some(delta) = self.log.back() {
            d.append_delta(self.epoch, delta)?;
        }
        Ok(())
    }

    /// Write the named relation's current contents as an immediate reset
    /// frame at the current epoch, for a change the delta vocabulary cannot
    /// express.
    fn wal_reset_now(&mut self, name: &str) -> Result<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        let rel = self
            .relations
            .get(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))?;
        d.append_reset(self.epoch, name, rel)
    }

    /// Attach crash-safe durability rooted at `dir`: the directory is
    /// created, a fresh WAL is opened, and the current contents are
    /// published as the baseline snapshot. Any previous durable state in
    /// `dir` is replaced: every snapshot already there is removed first, so
    /// another store's snapshot can never win recovery over this one's.
    /// From here on every logged mutation appends a checksummed WAL frame
    /// before the mutator returns (a [`Instance::relation_mut`] borrow's
    /// frame is written at the next mutation or sync); recover the store
    /// later with [`crate::wal::recover`] or [`crate::wal::recover_bag`].
    ///
    /// A crash before this returns acknowledges nothing of the new store:
    /// between removing the old snapshots and publishing the baseline, `dir`
    /// holds no snapshot and recovery reports [`DataError::Corrupt`].
    ///
    /// Frames are written without fsync. Once a mutator returns, its
    /// mutation survives a process crash (`kill -9`); it survives power
    /// loss only once the next [`Instance::sync_durable`],
    /// [`Instance::snapshot_durable`] or [`Instance::detach_durable`]
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Io`] if the directory or files cannot be
    /// written or the old snapshots cannot be removed.
    pub fn attach_durable(&mut self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        snapshot::prune(dir, 0)?;
        self.durable = Some(DurableLog::attach(dir)?);
        let written = snapshot::write(
            dir,
            &self.schema,
            &self.relations,
            self.epoch,
            self.next_null,
        );
        self.finish_snapshot(written)
    }

    /// Publish a full snapshot of the current contents and restart the WAL
    /// (the snapshot covers everything logged so far). The write is atomic:
    /// a crash mid-snapshot leaves the previous snapshot loadable.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Io`] if no durable log is attached or the
    /// filesystem fails, and [`DataError::CrashInjected`] when a crash
    /// fault site fires.
    pub fn snapshot_durable(&mut self) -> Result<()> {
        self.wal_flush_pending()?;
        let Some(d) = self.durable.as_ref() else {
            return Err(DataError::Io {
                op: "snapshot".to_string(),
                detail: "no durable log attached".to_string(),
            });
        };
        let written = snapshot::write(
            d.dir(),
            &self.schema,
            &self.relations,
            self.epoch,
            self.next_null,
        );
        self.finish_snapshot(written)
    }

    fn finish_snapshot(&mut self, written: Result<u64>) -> Result<()> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        match written {
            Ok(bytes) => d.note_snapshot(self.epoch, bytes),
            Err(e) => {
                d.mark_failed(format!("snapshot failed: {e}"));
                Err(e)
            }
        }
    }

    /// Flush deferred structural resets and fsync the WAL.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Io`] on filesystem failure or a poisoned log;
    /// a no-op without an attachment.
    pub fn sync_durable(&mut self) -> Result<()> {
        self.wal_flush_pending()?;
        match self.durable.as_mut() {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Detach durability, flushing and fsyncing first where possible. The
    /// on-disk state stays recoverable; a poisoned log detaches without
    /// further writes.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Io`] if the final fsync of a healthy log fails.
    pub fn detach_durable(&mut self) -> Result<()> {
        if self.durability_crashed().is_none() {
            self.wal_flush_pending()?;
        }
        if let Some(mut d) = self.durable.take() {
            if d.failed().is_none() {
                d.sync()?;
            }
        }
        Ok(())
    }

    /// Observable durability state, if a log is attached.
    pub fn durability(&self) -> Option<DurabilityStats> {
        self.durable.as_ref().map(DurableLog::stats)
    }

    /// Why the attached log stopped accepting writes, if it did (an
    /// injected crash or real I/O failure poisons it permanently).
    pub fn durability_crashed(&self) -> Option<&str> {
        self.durable.as_ref().and_then(DurableLog::failed)
    }

    /// Append one delta to the bounded log and advance the epoch.
    fn record(&mut self, delta: Delta) {
        self.epoch += 1;
        self.log.push_back(delta);
        while self.log.len() > DELTA_LOG_CAP {
            self.log.pop_front();
            self.log_base += 1;
        }
    }

    /// Keep the null allocator above every null in `nulls`.
    fn note_nulls(&mut self, nulls: impl IntoIterator<Item = NullId>) {
        for n in nulls {
            if n >= self.next_null {
                self.next_null = n + 1;
            }
        }
    }

    /// Process-unique identity of this instance. Fresh per construction
    /// and per clone; never reused within a process.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The current epoch: the number of logged mutations since
    /// construction. Strictly monotonic — every mutating call that changes
    /// the instance bumps it by exactly one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The deltas applied after epoch `since` (exclusive), oldest first.
    /// In a bag, a [`Delta::Delete`] means *all occurrences* of the listed
    /// tuples were removed.
    ///
    /// Returns `None` when the question cannot be answered exactly: `since`
    /// lies in the future, or the bounded log has already dropped entries
    /// from that range. Callers holding a cache stamped `since` must then
    /// recompute.
    pub fn deltas_since(&self, since: u64) -> Option<impl Iterator<Item = &Delta> + Clone> {
        if since > self.epoch || since < self.log_base {
            return None;
        }
        let skip = usize::try_from(since - self.log_base).ok()?;
        Some(self.log.iter().skip(skip))
    }

    /// The database's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Look up a relation by name.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownRelation`] if the name is not in the schema.
    pub fn relation(&self, name: &str) -> Result<&R> {
        self.relations
            .get(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// The named relation, for a mutator that logs its own change.
    fn relation_entry(&mut self, name: &str) -> Result<&mut R> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to a relation by name.
    ///
    /// The borrow allows arbitrary edits the delta log cannot describe, so
    /// this is logged as a [`Delta::Structural`] change (and bumps the
    /// epoch) even if the caller never writes through it. Prefer the typed
    /// mutators ([`Database::insert`], [`BagDatabase::insert_n`],
    /// [`Database::delete`], [`Instance::retain`],
    /// [`Instance::resolve_null`]) — they keep cached answers refinable.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownRelation`] if the name is not in the schema.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut R> {
        self.wal_flush_pending()?;
        if !self.relations.contains_key(name) {
            return Err(DataError::UnknownRelation(name.to_string()));
        }
        self.record(Delta::Structural);
        let epoch = self.epoch;
        if let Some(d) = self.durable.as_mut() {
            // The WAL frame must carry the relation's contents *after* the
            // caller's edits through this borrow, which haven't happened
            // yet: defer the reset until the next logged mutation or sync.
            d.defer_reset(epoch, name);
        }
        self.relation_entry(name)
    }

    /// Remove every occurrence of `tuple` from `relation`: the one body of
    /// [`Database::delete`] and [`BagDatabase::delete`]. Returns the
    /// occurrences removed; the epoch is bumped (with a [`Delta::Delete`])
    /// only if there were any.
    fn delete_all(&mut self, relation: &str, tuple: &Tuple) -> Result<usize> {
        self.wal_flush_pending()?;
        let removed = self
            .relation_entry(relation)?
            .remove_all(std::slice::from_ref(tuple));
        if removed > 0 {
            self.record(Delta::Delete {
                relation: relation.to_string(),
                tuples: vec![tuple.clone()],
            });
            self.wal_append_last()?;
        }
        Ok(removed)
    }

    /// Keep only the tuples of `relation` satisfying `pred` (in a bag,
    /// every occurrence of a failing tuple is dropped); the removed tuples
    /// are logged as one [`Delta::Delete`]. Returns how many distinct
    /// tuples were removed (zero removals bump nothing).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownRelation`] if the relation is unknown.
    pub fn retain(
        &mut self,
        relation: &str,
        mut pred: impl FnMut(&Tuple) -> bool,
    ) -> Result<usize> {
        self.wal_flush_pending()?;
        let rel = self.relation_entry(relation)?;
        let removed: Vec<Tuple> = rel.tuples().filter(|t| !pred(t)).cloned().collect();
        let n = removed.len();
        if n > 0 {
            rel.remove_all(&removed);
            self.record(Delta::Delete {
                relation: relation.to_string(),
                tuples: removed,
            });
            self.wal_append_last()?;
        }
        Ok(n)
    }

    /// Resolve a marked null: substitute the constant `value` for every
    /// occurrence of `⊥_null` across all relations (the evidence "⊥ is
    /// actually `value`" arriving). In a bag, tuples that collapse add
    /// their multiplicities. Returns the number of distinct tuples
    /// rewritten; if the null does not occur, nothing is logged and the
    /// epoch is unchanged.
    pub fn resolve_null(&mut self, null: NullId, value: Const) -> usize {
        // This mutator reports a count, not a Result: WAL failures poison
        // the attachment (observable via `durability_crashed`) instead of
        // being surfaced here.
        let _ = self.wal_flush_pending();
        let touched = self.substitute_null(null, &value);
        if touched > 0 {
            self.record(Delta::Resolve { null, value });
            let _ = self.wal_append_last();
        }
        touched
    }

    /// The substitution behind [`Instance::resolve_null`], shared with WAL
    /// replay: rewrite every occurrence of `⊥_null` to `value` without
    /// touching the identity layer. Returns the number of distinct tuples
    /// rewritten.
    fn substitute_null(&mut self, null: NullId, value: &Const) -> usize {
        let mut touched = 0usize;
        for rel in self.relations.values_mut() {
            let hits = rel
                .tuples()
                .filter(|t| tuple_nulls(t).any(|n| n == null))
                .count();
            if hits > 0 {
                touched += hits;
                *rel = rel.map_tuples(|t| {
                    t.map(|v| {
                        if *v == Value::Null(null) {
                            Value::Const(value.clone())
                        } else {
                            v.clone()
                        }
                    })
                });
            }
        }
        touched
    }

    /// Iterate over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &R)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Set of nulls occurring in the database, `Null(D)`.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.relations
            .values()
            .flat_map(|r| r.tuples().flat_map(tuple_nulls))
            .collect()
    }

    /// The active domain `dom(D) = Const(D) ∪ Null(D)`.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.relations
            .values()
            .flat_map(|r| r.tuples().flat_map(|t| t.iter().cloned()))
            .collect()
    }

    /// `true` iff the database mentions no nulls (it is *complete*, §2).
    pub fn is_complete(&self) -> bool {
        self.relations
            .values()
            .all(|r| r.tuples().all(Tuple::all_const))
    }
}

impl Database {
    /// Insert a tuple into the named relation.
    ///
    /// Bumps the epoch (logging a [`Delta::Insert`]) only if the tuple was
    /// not already present.
    ///
    /// # Errors
    ///
    /// Returns an error if the relation is unknown or the arity does not
    /// match the schema.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<()> {
        self.insert_all(relation, [tuple])
    }

    /// Insert many tuples into the named relation. All insertions of one
    /// call land in a single [`Delta::Insert`] (one epoch bump); tuples
    /// already present are not logged.
    ///
    /// # Errors
    ///
    /// As [`Database::insert`].
    pub fn insert_all(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<()> {
        self.wal_flush_pending()?;
        let expected = self.schema.relation(relation)?.arity();
        let rel = self.relation_entry(relation)?;
        let mut added: Vec<Tuple> = Vec::new();
        for t in tuples {
            if t.arity() != expected {
                // Roll nothing back: tuples before the mismatch stay
                // inserted, and are logged below so caches stay coherent.
                // The arity error outranks any WAL failure; a poisoned log
                // stays observable via `durability_crashed`.
                if !added.is_empty() {
                    self.note_nulls(added.iter().flat_map(tuple_nulls));
                    self.record(Delta::Insert {
                        relation: relation.to_string(),
                        tuples: added,
                    });
                    let _ = self.wal_append_last();
                }
                return Err(DataError::ArityMismatch {
                    relation: relation.to_string(),
                    expected,
                    got: t.arity(),
                });
            }
            if rel.insert(t.clone()) {
                added.push(t);
            }
        }
        if !added.is_empty() {
            self.note_nulls(added.iter().flat_map(tuple_nulls));
            self.record(Delta::Insert {
                relation: relation.to_string(),
                tuples: added,
            });
            self.wal_append_last()?;
        }
        Ok(())
    }

    /// Delete a tuple from the named relation. Returns whether the tuple
    /// was present; the epoch is bumped (with a [`Delta::Delete`]) only if
    /// it was.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownRelation`] if the relation is unknown.
    pub fn delete(&mut self, relation: &str, tuple: &Tuple) -> Result<bool> {
        Ok(self.delete_all(relation, tuple)? > 0)
    }

    /// Replace the contents of a relation wholesale. Logged as a
    /// [`Delta::Structural`] change (the log cannot express the diff).
    ///
    /// # Errors
    ///
    /// Returns an error if the relation is unknown or arities mismatch.
    pub fn set_relation(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.wal_flush_pending()?;
        let expected = self.schema.relation(name)?.arity();
        if rel.arity() != expected && !rel.is_empty() {
            return Err(DataError::ArityMismatch {
                relation: name.to_string(),
                expected,
                got: rel.arity(),
            });
        }
        self.note_nulls(rel.iter().flat_map(tuple_nulls));
        self.relations.insert(name.to_string(), rel);
        self.record(Delta::Structural);
        // Unlike `relation_mut`, the new contents are fully known here, so
        // the structural change goes to the WAL as an immediate reset.
        self.wal_reset_now(name)
    }

    /// Set of constants occurring in the database, `Const(D)`, collected in
    /// one pass into one set.
    pub fn consts(&self) -> BTreeSet<Const> {
        self.relations
            .values()
            .flat_map(Relation::iter)
            .flat_map(Tuple::iter)
            .filter_map(Value::as_const)
            .cloned()
            .collect()
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Allocate a fresh null identifier.
    ///
    /// Allocation is monotonic *per database*: consecutive calls return
    /// strictly increasing ids even without intervening inserts, and the
    /// allocator never dips below a null already observed in the instance
    /// (inserts and `set_relation` advance it past any nulls they carry).
    /// Allocation is bookkeeping, not a mutation: the epoch is unchanged.
    pub fn fresh_null(&mut self) -> NullId {
        let observed = self.nulls().iter().max().map_or(0, |m| m + 1);
        let id = self.next_null.max(observed);
        self.next_null = id + 1;
        id
    }

    /// Apply a per-value mapping to every tuple of every relation.
    ///
    /// This is how valuations `v(D)` and naïve-evaluation renamings are
    /// implemented. The result is a fresh instance (new id, epoch 0).
    pub fn map_values(&self, mut f: impl FnMut(&Value) -> Value) -> Database {
        let relations = self
            .relations
            .iter()
            .map(|(n, r)| (n.clone(), r.map(|t| t.map(&mut f))))
            .collect();
        Database::from_parts(self.schema.clone(), relations)
    }

    /// `true` iff `self ⊆ other` relation-wise (used for the owa semantics:
    /// `D' ∈ ⟦D⟧owa` iff `v(D) ⊆ D'` for some valuation `v`).
    pub fn is_subinstance_of(&self, other: &Database) -> bool {
        self.relations.iter().all(|(name, rel)| {
            other
                .relations
                .get(name)
                .is_some_and(|o| rel.is_subset_of(o))
        })
    }

    /// Union of two databases over the same schema (relation-wise union).
    /// The result is a fresh instance.
    ///
    /// # Panics
    ///
    /// Panics if the schemas differ.
    pub fn union(&self, other: &Database) -> Database {
        assert_eq!(
            self.schema, other.schema,
            "Database::union: schema mismatch"
        );
        let relations = self
            .relations
            .iter()
            .map(|(n, r)| (n.clone(), r.union(&other.relations[n])))
            .collect();
        Database::from_parts(self.schema.clone(), relations)
    }

    /// Convert every relation into a bag with multiplicity 1 per tuple.
    pub fn to_bags(&self) -> BagDatabase {
        let relations = self
            .relations
            .iter()
            .map(|(n, r)| (n.clone(), BagRelation::from_set(r)))
            .collect();
        BagDatabase::from_parts(self.schema.clone(), relations)
    }
}

/// Convenience constructor: build a database from `(name, attributes,
/// tuples)` triples, inferring the schema. Intended for tests and examples
/// where the input is a literal.
///
/// # Panics
///
/// Panics on arity mismatches or duplicate relation names.
pub fn database_from_literal(
    rels: impl IntoIterator<Item = (&'static str, Vec<&'static str>, Vec<Tuple>)>,
) -> Database {
    let mut schema = Schema::new();
    let mut contents: Vec<(String, Vec<Tuple>)> = Vec::new();
    for (name, attrs, tuples) in rels {
        schema
            .add(RelationSchema::new(name, attrs))
            .expect("duplicate relation in literal database");
        contents.push((name.to_string(), tuples));
    }
    let mut db = Database::new(schema);
    for (name, tuples) in contents {
        db.insert_all(&name, tuples)
            .expect("literal database arity mismatch");
    }
    db
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, rel)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{name} = {rel}")?;
        }
        Ok(())
    }
}

impl BagDatabase {
    /// Insert `n` occurrences of a tuple into the named relation.
    ///
    /// A first occurrence is logged as [`Delta::Insert`]; raising the
    /// multiplicity of an existing tuple is not expressible in the delta
    /// vocabulary and is logged as [`Delta::Structural`].
    ///
    /// # Errors
    ///
    /// Returns an error on unknown relation or arity mismatch.
    pub fn insert_n(&mut self, relation: &str, tuple: Tuple, n: usize) -> Result<()> {
        self.wal_flush_pending()?;
        let expected = self.schema.relation(relation)?.arity();
        if tuple.arity() != expected {
            return Err(DataError::ArityMismatch {
                relation: relation.to_string(),
                expected,
                got: tuple.arity(),
            });
        }
        if n == 0 {
            return Ok(());
        }
        let rel = self.relation_entry(relation)?;
        let fresh = rel.multiplicity(&tuple) == 0;
        rel.insert_n(tuple.clone(), n);
        if fresh && n == 1 {
            self.record(Delta::Insert {
                relation: relation.to_string(),
                tuples: vec![tuple],
            });
            self.wal_append_last()?;
        } else {
            // Multiplicity changes aren't expressible as deltas; persist
            // the relation's new contents wholesale.
            self.record(Delta::Structural);
            self.wal_reset_now(relation)?;
        }
        Ok(())
    }

    /// Remove *all* occurrences of a tuple from the named relation,
    /// returning the multiplicity removed (zero removals bump nothing).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownRelation`] if the relation is unknown.
    pub fn delete(&mut self, relation: &str, tuple: &Tuple) -> Result<usize> {
        self.delete_all(relation, tuple)
    }

    /// Forget multiplicities, producing the set-semantics database.
    pub fn to_sets(&self) -> Database {
        let relations = self
            .relations
            .iter()
            .map(|(n, r)| (n.clone(), r.to_set()))
            .collect();
        Database::from_parts(self.schema.clone(), relations)
    }

    /// Apply a per-value mapping, adding multiplicities of collapsing tuples.
    pub fn map_values_add(&self, mut f: impl FnMut(&Value) -> Value) -> BagDatabase {
        let relations = self
            .relations
            .iter()
            .map(|(n, r)| (n.clone(), r.map_add(|t| t.map(&mut f))))
            .collect();
        BagDatabase::from_parts(self.schema.clone(), relations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn db() -> Database {
        database_from_literal([
            (
                "R",
                vec!["a", "b"],
                vec![tup![1, 2], tup![3, Value::null(0)]],
            ),
            ("S", vec!["c"], vec![tup![Value::null(1)]]),
        ])
    }

    #[test]
    fn construction_and_lookup() {
        let d = db();
        assert_eq!(d.schema().len(), 2);
        assert_eq!(d.relation("R").unwrap().len(), 2);
        assert_eq!(d.relation("S").unwrap().len(), 1);
        assert!(d.relation("T").is_err());
        assert_eq!(d.total_tuples(), 3);
    }

    #[test]
    fn insert_checks_arity() {
        let mut d = db();
        assert!(d.insert("R", tup![1]).is_err());
        assert!(d.insert("R", tup![9, 9]).is_ok());
        assert_eq!(d.relation("R").unwrap().len(), 3);
        assert!(d.insert("Nope", tup![1]).is_err());
    }

    #[test]
    fn domains() {
        let mut d = db();
        assert_eq!(d.nulls().len(), 2);
        assert_eq!(d.consts().len(), 3);
        assert_eq!(d.active_domain().len(), 5);
        assert!(!d.is_complete());
        assert_eq!(d.fresh_null(), 2);
    }

    #[test]
    fn fresh_null_is_monotonic_without_inserts() {
        // Regression: two allocations with no intervening insert used to
        // return the same id, so "fresh" nulls could collide.
        let mut d = db();
        let a = d.fresh_null();
        let b = d.fresh_null();
        assert_eq!(a, 2);
        assert_eq!(b, 3);
        // Inserting a null past the allocator advances it.
        d.insert("S", tup![Value::null(17)]).unwrap();
        assert_eq!(d.fresh_null(), 18);
        // Allocation alone is bookkeeping, not a mutation.
        let e = d.epoch();
        d.fresh_null();
        assert_eq!(d.epoch(), e);
    }

    #[test]
    fn epochs_and_deltas_track_mutations() {
        let mut d = db();
        let e0 = d.epoch();
        d.insert("R", tup![9, 9]).unwrap();
        assert_eq!(d.epoch(), e0 + 1);
        // Re-inserting an existing tuple is a no-op: no epoch bump.
        d.insert("R", tup![9, 9]).unwrap();
        assert_eq!(d.epoch(), e0 + 1);
        assert!(d.delete("R", &tup![9, 9]).unwrap());
        assert!(!d.delete("R", &tup![9, 9]).unwrap());
        assert_eq!(d.epoch(), e0 + 2);
        let removed = d.retain("R", |t| t[0] != Value::int(1)).unwrap();
        assert_eq!(removed, 1);
        let deltas: Vec<Delta> = d.deltas_since(e0).unwrap().cloned().collect();
        assert_eq!(
            deltas,
            vec![
                Delta::Insert {
                    relation: "R".into(),
                    tuples: vec![tup![9, 9]]
                },
                Delta::Delete {
                    relation: "R".into(),
                    tuples: vec![tup![9, 9]]
                },
                Delta::Delete {
                    relation: "R".into(),
                    tuples: vec![tup![1, 2]]
                },
            ]
        );
        // Future epochs are unanswerable.
        assert!(d.deltas_since(d.epoch() + 1).is_none());
    }

    #[test]
    fn resolve_null_substitutes_and_logs() {
        let mut d = db();
        let e0 = d.epoch();
        assert_eq!(d.resolve_null(0, Const::int(42)), 1);
        assert!(d.relation("R").unwrap().contains(&tup![3, 42]));
        assert!(!d.nulls().contains(&0));
        assert_eq!(d.epoch(), e0 + 1);
        // Resolving an absent null is a no-op.
        assert_eq!(d.resolve_null(99, Const::int(7)), 0);
        assert_eq!(d.epoch(), e0 + 1);
        let deltas: Vec<Delta> = d.deltas_since(e0).unwrap().cloned().collect();
        assert_eq!(
            deltas,
            vec![Delta::Resolve {
                null: 0,
                value: Const::int(42)
            }]
        );
    }

    #[test]
    fn structural_mutations_are_logged_opaquely() {
        let mut d = db();
        let e0 = d.epoch();
        d.set_relation("S", Relation::from_tuples(vec![tup![5]]))
            .unwrap();
        let _ = d.relation_mut("R").unwrap();
        assert_eq!(d.epoch(), e0 + 2);
        assert!(d
            .deltas_since(e0)
            .unwrap()
            .all(|delta| delta.is_structural()));
    }

    #[test]
    fn clones_are_distinct_instances() {
        let d = db();
        let mut c = d.clone();
        assert_ne!(d.instance(), c.instance());
        assert_eq!(d, c);
        c.insert("R", tup![8, 8]).unwrap();
        assert_ne!(d, c);
    }

    #[test]
    fn delta_log_is_bounded() {
        let mut d = db();
        let e0 = d.epoch();
        for i in 0..(DELTA_LOG_CAP as i64 + 10) {
            d.insert("R", tup![1000 + i, 0]).unwrap();
        }
        // The oldest deltas fell off the front: the original epoch is no
        // longer answerable, but recent ones are.
        assert!(d.deltas_since(e0).is_none());
        let recent = d.epoch() - 5;
        assert_eq!(d.deltas_since(recent).unwrap().count(), 5);
    }

    #[test]
    fn map_values_applies_valuation_like_maps() {
        let d = db();
        let complete = d.map_values(|v| match v {
            Value::Null(_) => Value::int(0),
            other => other.clone(),
        });
        assert!(complete.is_complete());
        assert!(complete.relation("R").unwrap().contains(&tup![3, 0]));
    }

    #[test]
    fn subinstance_and_union() {
        let d = db();
        let mut bigger = d.clone();
        bigger.insert("R", tup![7, 7]).unwrap();
        assert!(d.is_subinstance_of(&bigger));
        assert!(!bigger.is_subinstance_of(&d));
        let u = d.union(&bigger);
        assert_eq!(u.relation("R").unwrap().len(), 3);
    }

    #[test]
    fn set_relation_validates() {
        let mut d = db();
        assert!(d
            .set_relation("S", Relation::from_tuples(vec![tup![5]]))
            .is_ok());
        assert!(d
            .set_relation("S", Relation::from_tuples(vec![tup![5, 6]]))
            .is_err());
        assert!(d.set_relation("S", Relation::empty(9)).is_ok());
    }

    #[test]
    fn bag_database_round_trip() {
        let d = db();
        let bags = d.to_bags();
        assert!(!bags.is_complete());
        assert_eq!(bags.relation("R").unwrap().total_len(), 2);
        let back = bags.to_sets();
        assert_eq!(back, d);
    }

    #[test]
    fn bag_database_insert_and_map() {
        let mut b = BagDatabase::new(db().schema().clone());
        b.insert_n("R", tup![1, 1], 3).unwrap();
        assert!(b.insert_n("R", tup![1], 1).is_err());
        assert_eq!(b.relation("R").unwrap().multiplicity(&tup![1, 1]), 3);
        let mapped = b.map_values_add(|v| v.clone());
        assert_eq!(mapped.relation("R").unwrap().total_len(), 3);
        assert_eq!(b.active_domain().len(), 1);
        assert_eq!(b.nulls().len(), 0);
    }

    #[test]
    fn bag_database_mutation_api() {
        let mut b = BagDatabase::new(db().schema().clone());
        let e0 = b.epoch();
        b.insert_n("R", tup![1, Value::null(3)], 2).unwrap();
        assert_eq!(b.epoch(), e0 + 1);
        assert_eq!(b.resolve_null(3, Const::int(9)), 1);
        assert_eq!(b.relation("R").unwrap().multiplicity(&tup![1, 9]), 2);
        assert_eq!(b.delete("R", &tup![1, 9]).unwrap(), 2);
        assert_eq!(b.delete("R", &tup![1, 9]).unwrap(), 0);
        b.insert_n("R", tup![2, 2], 1).unwrap();
        b.insert_n("R", tup![3, 3], 1).unwrap();
        assert_eq!(b.retain("R", |t| t[0] == Value::int(2)).unwrap(), 1);
        assert_eq!(b.relation("R").unwrap().distinct_len(), 1);
        assert!(b.deltas_since(b.epoch() + 1).is_none());
        assert!(b.deltas_since(e0).unwrap().count() > 0);
    }

    #[test]
    fn display_lists_relations() {
        let s = db().to_string();
        assert!(s.contains("R = "));
        assert!(s.contains("S = "));
    }

    #[test]
    fn deltas_since_truncation_boundary_is_exact() {
        // Regression pin for the refine-vs-recompute lattice: after the
        // bounded log drops entries, `deltas_since` at *exactly* the
        // truncation epoch (log_base) must answer, and one epoch earlier
        // must not.
        let mut d = db();
        for i in 0..(DELTA_LOG_CAP as i64 + 10) {
            d.insert("R", tup![2000 + i, 0]).unwrap();
        }
        let base = d.epoch() - DELTA_LOG_CAP as u64;
        let at_base = d.deltas_since(base);
        assert!(at_base.is_some(), "boundary epoch must be answerable");
        assert_eq!(at_base.unwrap().count(), DELTA_LOG_CAP);
        assert!(
            d.deltas_since(base - 1).is_none(),
            "one past the boundary must force recomputation"
        );
        // The two degenerate ends: the current epoch answers with an empty
        // iterator, the future does not answer.
        assert_eq!(d.deltas_since(d.epoch()).unwrap().count(), 0);
        assert!(d.deltas_since(d.epoch() + 1).is_none());
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "certa-db-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_mutations_recover_exactly() {
        let dir = durable_dir("set-roundtrip");
        let mut d = db();
        d.attach_durable(&dir).unwrap();
        let pre_instance = d.instance();
        d.insert("R", tup![9, 9]).unwrap();
        d.insert_all("R", vec![tup![10, 10], tup![11, Value::null(5)]])
            .unwrap();
        d.delete("R", &tup![1, 2]).unwrap();
        d.retain("R", |t| t[0] != Value::int(3)).unwrap();
        assert_eq!(d.resolve_null(1, Const::int(77)), 1);
        d.set_relation("S", Relation::from_tuples(vec![tup![5]]))
            .unwrap();
        // Structural borrow with deferred reset, flushed by the next sync.
        d.relation_mut("R").unwrap().insert(tup![42, 42]);
        d.sync_durable().unwrap();
        let stats = d.durability().unwrap();
        assert!(stats.appends > 0);
        assert!(stats.reset_frames >= 2);
        assert!(stats.failed.is_none());

        let (r, report) = crate::wal::recover(&dir).unwrap();
        assert_eq!(r, d, "recovered contents must be bit-identical");
        assert_eq!(report.recovered_epoch, d.epoch());
        assert!(report.wal_truncated.is_none());
        assert_ne!(r.instance(), pre_instance, "recovery mints a fresh id");
        // Pre-crash epochs are unanswerable on the recovered instance.
        assert!(r.deltas_since(0).is_none());
        assert_eq!(r.deltas_since(r.epoch()).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_database_keeps_appending() {
        let dir = durable_dir("set-reappend");
        let mut d = db();
        d.attach_durable(&dir).unwrap();
        d.insert("R", tup![5, 5]).unwrap();
        d.detach_durable().unwrap();

        let (mut r, _) = crate::wal::recover(&dir).unwrap();
        r.insert("R", tup![6, 6]).unwrap();
        r.snapshot_durable().unwrap();
        r.insert("R", tup![7, 7]).unwrap();
        r.detach_durable().unwrap();

        let (r2, report) = crate::wal::recover(&dir).unwrap();
        assert_eq!(r2, r);
        assert_eq!(report.frames_replayed, 1, "snapshot absorbed the rest");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_null_allocator_survives_recovery() {
        let dir = durable_dir("set-nulls");
        let mut d = db();
        d.attach_durable(&dir).unwrap();
        d.insert("S", tup![Value::null(30)]).unwrap();
        d.detach_durable().unwrap();
        let expected = {
            let mut c = d.clone();
            c.fresh_null()
        };
        let (mut r, _) = crate::wal::recover(&dir).unwrap();
        assert_eq!(r.fresh_null(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clones_do_not_inherit_durability() {
        let dir = durable_dir("set-clone");
        let mut d = db();
        d.attach_durable(&dir).unwrap();
        let c = d.clone();
        assert!(c.durability().is_none());
        assert!(d.durability().is_some());
        d.detach_durable().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bag_durable_mutations_recover_exactly() {
        let dir = durable_dir("bag-roundtrip");
        let mut b = BagDatabase::new(db().schema().clone());
        b.attach_durable(&dir).unwrap();
        b.insert_n("R", tup![1, Value::null(3)], 1).unwrap();
        b.insert_n("R", tup![1, Value::null(3)], 2).unwrap(); // multiplicity → reset frame
        b.insert_n("R", tup![2, 2], 4).unwrap(); // n > 1 → reset frame
        assert_eq!(b.resolve_null(3, Const::int(9)), 1);
        assert_eq!(b.delete("R", &tup![2, 2]).unwrap(), 4);
        b.relation_mut("S").unwrap().insert_n(tup![8], 6);
        b.sync_durable().unwrap();

        let (r, report) = crate::wal::recover_bag(&dir).unwrap();
        assert_eq!(r, b);
        assert_eq!(report.recovered_epoch, b.epoch());
        assert_eq!(r.relation("R").unwrap().multiplicity(&tup![1, 9]), 3);
        assert_eq!(r.relation("S").unwrap().multiplicity(&tup![8]), 6);
        assert!(r.deltas_since(0).is_none());
        b.detach_durable().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_mismatch_is_reported_not_misread() {
        let dir = durable_dir("kind-mismatch");
        let mut d = db();
        d.attach_durable(&dir).unwrap();
        d.detach_durable().unwrap();
        let err = crate::wal::recover_bag(&dir).unwrap_err();
        assert!(matches!(err, DataError::Corrupt { .. }));
        assert!(crate::wal::recover(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
