//! Crash-safe write-ahead logging for [`Database`] / [`BagDatabase`].
//!
//! The durability layer serializes the existing [`Delta`] vocabulary into a
//! **length-prefixed, CRC32-checksummed, epoch-ordered** append-only log
//! (`wal.log`), paired with periodic full snapshots (see
//! [`crate::snapshot`]) written via temp-file + atomic rename. Recovery
//! ([`recover`] / [`recover_bag`]) loads the newest valid snapshot and
//! replays the WAL tail, tolerating torn, truncated or bit-flipped trailing
//! records by stopping at the first bad frame instead of failing the whole
//! store — exactly the contract a kill -9 leaves behind.
//!
//! ## Frame format
//!
//! ```text
//! ┌───────────┬───────────┬────────────────────────────┐
//! │ len: u32  │ crc: u32  │ payload (len bytes)        │
//! │ (LE)      │ (LE)      │   epoch: u64 (LE)          │
//! │           │           │   record: WalRecord        │
//! └───────────┴───────────┴────────────────────────────┘
//! ```
//!
//! `crc` is the [CRC-32/IEEE](crate::crc32) of the payload. Frame epochs
//! are strictly increasing; a frame whose epoch does not advance is treated
//! as corruption. Structural mutations — which the delta vocabulary cannot
//! replay — are persisted as `Reset` frames carrying the relation's full
//! post-change contents ([`WalRecord::ResetSet`] / [`WalRecord::ResetBag`]);
//! for `relation_mut` the reset is deferred until the outstanding borrow
//! has provably ended (the next logged mutation, or an explicit
//! [`Database::sync_durable`]).
//!
//! ## Crash injection
//!
//! Under the `fault-injection` feature, `arm_crashes` installs a seeded
//! schedule that deterministically truncates or bit-flips the file mid-write
//! at the `wal:frame`, `snapshot:tmp` and `snapshot:rename` sites and
//! poisons the attached log (as if the process died there);
//! `arm_crash_site` targets one site's n-th hit exactly. Production builds
//! compile the checks away, and both functions with them.

use crate::bag::BagRelation;
use crate::crc32::crc32;
use crate::database::{BagDatabase, Database};
use crate::delta::Delta;
use crate::relation::Relation;
use crate::schema::{RelationSchema, Schema};
use crate::snapshot::{self, SnapshotContents};
use crate::tuple::Tuple;
use crate::value::{Const, Value};
use crate::{DataError, Result};
use certa_obs as obs;
use obs::{HistogramId, MetricId};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Name of the write-ahead log inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Upper bound on a single frame's payload; anything larger in the length
/// prefix is treated as corruption rather than an allocation request.
const MAX_FRAME: usize = 1 << 26;

pub(crate) fn corrupt(detail: impl Into<String>) -> DataError {
    DataError::Corrupt {
        detail: detail.into(),
    }
}

pub(crate) fn io_err(op: &str, e: &std::io::Error) -> DataError {
    DataError::Io {
        op: op.to_string(),
        detail: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Binary codec (shared with the snapshot module)
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_const(buf: &mut Vec<u8>, c: &Const) {
    match c {
        Const::Int(i) => {
            buf.push(0);
            put_u64(buf, *i as u64);
        }
        Const::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

pub(crate) fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Const(c) => {
            buf.push(0);
            put_const(buf, c);
        }
        Value::Null(n) => {
            buf.push(1);
            put_u32(buf, *n);
        }
    }
}

pub(crate) fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u32(buf, t.arity() as u32);
    for v in t.iter() {
        put_value(buf, v);
    }
}

pub(crate) fn put_relation(buf: &mut Vec<u8>, r: &Relation) {
    put_u32(buf, r.arity() as u32);
    put_u32(buf, r.len() as u32);
    for t in r.iter() {
        put_tuple(buf, t);
    }
}

pub(crate) fn put_bag_relation(buf: &mut Vec<u8>, r: &BagRelation) {
    put_u32(buf, r.arity() as u32);
    put_u32(buf, r.distinct_len() as u32);
    for (t, n) in r.iter() {
        put_tuple(buf, t);
        put_u64(buf, n as u64);
    }
}

pub(crate) fn put_schema(buf: &mut Vec<u8>, s: &Schema) {
    put_u32(buf, s.len() as u32);
    for rel in s.iter() {
        put_str(buf, rel.name());
        put_u32(buf, rel.attributes().len() as u32);
        for a in rel.attributes() {
            put_str(buf, a);
        }
    }
}

pub(crate) fn put_delta(buf: &mut Vec<u8>, d: &Delta) {
    match d {
        Delta::Insert { relation, tuples } => {
            buf.push(0);
            put_str(buf, relation);
            put_u32(buf, tuples.len() as u32);
            for t in tuples {
                put_tuple(buf, t);
            }
        }
        Delta::Delete { relation, tuples } => {
            buf.push(1);
            put_str(buf, relation);
            put_u32(buf, tuples.len() as u32);
            for t in tuples {
                put_tuple(buf, t);
            }
        }
        Delta::Resolve { null, value } => {
            buf.push(2);
            put_u32(buf, *null);
            put_const(buf, value);
        }
        Delta::Structural => buf.push(3),
    }
}

/// Bounded cursor over an encoded payload; every read is length-checked and
/// reports a typed [`DataError::Corrupt`] instead of panicking.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("payload ends mid-field"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let b = self.bytes(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| corrupt("string field is not utf-8"))
    }

    pub(crate) fn const_(&mut self) -> Result<Const> {
        match self.u8()? {
            0 => Ok(Const::Int(self.u64()? as i64)),
            1 => Ok(Const::str(self.str()?)),
            t => Err(corrupt(format!("unknown const tag {t}"))),
        }
    }

    pub(crate) fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Const(self.const_()?)),
            1 => Ok(Value::Null(self.u32()?)),
            t => Err(corrupt(format!("unknown value tag {t}"))),
        }
    }

    pub(crate) fn tuple(&mut self) -> Result<Tuple> {
        let arity = self.u32()? as usize;
        if arity > self.buf.len() - self.pos {
            return Err(corrupt("tuple arity exceeds payload"));
        }
        let mut vs = Vec::with_capacity(arity);
        for _ in 0..arity {
            vs.push(self.value()?);
        }
        Ok(Tuple::new(vs))
    }

    pub(crate) fn relation(&mut self) -> Result<Relation> {
        let arity = self.u32()? as usize;
        let count = self.u32()? as usize;
        if count > self.buf.len() - self.pos {
            return Err(corrupt("relation count exceeds payload"));
        }
        let mut tuples = Vec::with_capacity(count);
        for _ in 0..count {
            let t = self.tuple()?;
            if t.arity() != arity {
                return Err(corrupt("relation tuple arity mismatch"));
            }
            tuples.push(t);
        }
        Ok(Relation::with_arity(arity, tuples))
    }

    pub(crate) fn bag_relation(&mut self) -> Result<BagRelation> {
        let arity = self.u32()? as usize;
        let count = self.u32()? as usize;
        if count > self.buf.len() - self.pos {
            return Err(corrupt("bag relation count exceeds payload"));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            let t = self.tuple()?;
            if t.arity() != arity {
                return Err(corrupt("bag relation tuple arity mismatch"));
            }
            let n = self.u64()?;
            let n = usize::try_from(n).map_err(|_| corrupt("bag multiplicity overflow"))?;
            items.push((t, n));
        }
        Ok(BagRelation::from_counted(arity, items))
    }

    pub(crate) fn schema(&mut self) -> Result<Schema> {
        let count = self.u32()? as usize;
        if count > self.buf.len() - self.pos {
            return Err(corrupt("schema relation count exceeds payload"));
        }
        let mut rels = Vec::with_capacity(count);
        for _ in 0..count {
            let name = self.str()?;
            let n_attrs = self.u32()? as usize;
            if n_attrs > self.buf.len() - self.pos {
                return Err(corrupt("schema attribute count exceeds payload"));
            }
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                attrs.push(self.str()?);
            }
            rels.push(RelationSchema::new(name, attrs));
        }
        Schema::from_relations(rels).map_err(|e| corrupt(format!("invalid schema: {e}")))
    }

    pub(crate) fn delta(&mut self) -> Result<Delta> {
        match self.u8()? {
            0 | 1 => {
                let is_insert = self.buf[self.pos - 1] == 0;
                let relation = self.str()?;
                let count = self.u32()? as usize;
                if count > self.buf.len() - self.pos {
                    return Err(corrupt("delta tuple count exceeds payload"));
                }
                let mut tuples = Vec::with_capacity(count);
                for _ in 0..count {
                    tuples.push(self.tuple()?);
                }
                Ok(if is_insert {
                    Delta::Insert { relation, tuples }
                } else {
                    Delta::Delete { relation, tuples }
                })
            }
            2 => Ok(Delta::Resolve {
                null: self.u32()?,
                value: self.const_()?,
            }),
            3 => Ok(Delta::Structural),
            t => Err(corrupt(format!("unknown delta tag {t}"))),
        }
    }

    pub(crate) fn record(&mut self) -> Result<WalRecord> {
        match self.u8()? {
            0 => Ok(WalRecord::Delta(self.delta()?)),
            1 => Ok(WalRecord::ResetSet {
                relation: self.str()?,
                rel: self.relation()?,
            }),
            2 => Ok(WalRecord::ResetBag {
                relation: self.str()?,
                rel: self.bag_relation()?,
            }),
            t => Err(corrupt(format!("unknown wal record tag {t}"))),
        }
    }

    pub(crate) fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after record"))
        }
    }
}

/// One replayable WAL entry. [`Delta`]s are replayed as the mutation they
/// describe; `Reset` frames carry a relation's full post-change contents
/// (the durable form of [`Delta::Structural`], which by itself says only
/// "something changed").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A typed mutation, replayed through the delta vocabulary.
    Delta(Delta),
    /// Wholesale replacement of a set-semantics relation.
    ResetSet {
        /// Target relation name.
        relation: String,
        /// The relation's complete contents after the structural change.
        rel: Relation,
    },
    /// Wholesale replacement of a bag-semantics relation.
    ResetBag {
        /// Target relation name.
        relation: String,
        /// The relation's complete contents after the structural change.
        rel: BagRelation,
    },
}

// ---------------------------------------------------------------------------
// Crash injection (fault-injection feature)
// ---------------------------------------------------------------------------

/// Deterministic crash scheduling for the durability fault sites.
#[cfg(feature = "fault-injection")]
mod faults {
    use certa_obs as obs;
    use obs::MetricId;
    use std::collections::HashMap;
    use std::sync::Mutex;

    enum Mode {
        /// Fire pseudo-randomly at roughly 1-in-`one_in` site checks.
        Schedule { seed: u64, one_in: u64 },
        /// Fire exactly at the `nth` check of `site` (1-based).
        Site { site: String, nth: u64 },
    }

    struct Armed {
        mode: Mode,
        calls: HashMap<&'static str, u64>,
    }

    static ARMED: Mutex<Option<Armed>> = Mutex::new(None);

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn site_hash(site: &str) -> u64 {
        // FNV-1a, enough to decorrelate sites under one seed.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in site.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    pub fn arm(seed: u64, one_in: u64) {
        *ARMED.lock().unwrap() = Some(Armed {
            mode: Mode::Schedule {
                seed,
                one_in: one_in.max(1),
            },
            calls: HashMap::new(),
        });
    }

    pub fn arm_site(site: &str, nth: u64) {
        *ARMED.lock().unwrap() = Some(Armed {
            mode: Mode::Site {
                site: site.to_string(),
                nth: nth.max(1),
            },
            calls: HashMap::new(),
        });
    }

    pub fn disarm() {
        *ARMED.lock().unwrap() = None;
    }

    pub(super) fn fires(site: &'static str) -> Option<u64> {
        obs::metrics().add(MetricId::FaultChecks, 1);
        let mut guard = ARMED.lock().unwrap();
        let armed = guard.as_mut()?;
        let count = armed.calls.entry(site).or_insert(0);
        *count += 1;
        let fired = match &armed.mode {
            Mode::Site { site: s, nth } => {
                if s == site && *count == *nth {
                    Some(splitmix(site_hash(site) ^ *nth))
                } else {
                    None
                }
            }
            Mode::Schedule { seed, one_in } => {
                let r = splitmix(seed ^ site_hash(site).wrapping_add(*count));
                if r.is_multiple_of(*one_in) {
                    Some(splitmix(r))
                } else {
                    None
                }
            }
        };
        if fired.is_some() {
            obs::metrics().add(MetricId::FaultFired, 1);
            obs::instant_detail("crash:fired", site);
        }
        fired
    }
}

/// Arm the seeded crash schedule: each durability fault site check fires
/// with probability roughly 1-in-`one_in`, deterministically in `seed`.
/// A fired site mangles the in-flight write (truncation or a bit flip),
/// poisons the attached log, and surfaces [`DataError::CrashInjected`].
#[cfg(feature = "fault-injection")]
pub fn arm_crashes(seed: u64, one_in: u64) {
    faults::arm(seed, one_in);
}

/// Arm a targeted crash: exactly the `nth` check (1-based) of `site` fires.
/// Sites: `wal:frame`, `snapshot:tmp`, `snapshot:rename`.
#[cfg(feature = "fault-injection")]
pub fn arm_crash_site(site: &str, nth: u64) {
    faults::arm_site(site, nth);
}

/// Disarm any crash schedule installed by [`arm_crashes`] /
/// [`arm_crash_site`].
#[cfg(feature = "fault-injection")]
pub fn disarm_crashes() {
    faults::disarm();
}

#[cfg(feature = "fault-injection")]
pub(crate) fn crash_fires(site: &'static str) -> Option<u64> {
    faults::fires(site)
}

#[cfg(not(feature = "fault-injection"))]
#[inline]
pub(crate) fn crash_fires(_site: &'static str) -> Option<u64> {
    None
}

/// Mangle a frame the way a mid-write crash would: either cut it short at a
/// pseudo-random boundary or flip one byte. Driven by the crash schedule's
/// per-fire random word so schedules are reproducible.
pub(crate) fn mangle(bytes: &[u8], r: u64) -> Vec<u8> {
    if bytes.is_empty() {
        return Vec::new();
    }
    if r & 1 == 0 {
        let cut = (r >> 1) as usize % bytes.len();
        bytes[..cut].to_vec()
    } else {
        let mut out = bytes.to_vec();
        let idx = (r >> 1) as usize % out.len();
        out[idx] ^= 0x40;
        out
    }
}

// ---------------------------------------------------------------------------
// WAL scanning
// ---------------------------------------------------------------------------

pub(crate) struct ScannedFrame {
    pub(crate) epoch: u64,
    pub(crate) record: WalRecord,
    /// Byte offset where this frame starts, for truncate-on-replay-failure.
    pub(crate) start: u64,
}

pub(crate) struct ScannedWal {
    pub(crate) frames: Vec<ScannedFrame>,
    /// Prefix length (bytes) covered by valid frames; everything after is
    /// torn/corrupt tail and is truncated away on reattach.
    pub(crate) valid_bytes: u64,
    /// Why scanning stopped before end-of-file, if it did.
    pub(crate) truncated: Option<String>,
}

/// Scan a WAL file, stopping (not erroring) at the first bad frame. A
/// missing file is an empty log.
pub(crate) fn scan_wal(path: &Path) -> Result<ScannedWal> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ScannedWal {
                frames: Vec::new(),
                valid_bytes: 0,
                truncated: None,
            })
        }
        Err(e) => return Err(io_err("wal.read", &e)),
    };
    let mut frames: Vec<ScannedFrame> = Vec::new();
    let mut pos = 0usize;
    let mut truncated = None;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            truncated = Some("torn frame header".to_string());
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        if len > MAX_FRAME {
            truncated = Some("frame length out of range".to_string());
            break;
        }
        if bytes.len() - pos - 8 < len {
            truncated = Some("torn frame payload".to_string());
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            truncated = Some("frame checksum mismatch".to_string());
            break;
        }
        let mut r = Reader::new(payload);
        let decoded = (|| -> Result<(u64, WalRecord)> {
            let epoch = r.u64()?;
            let record = r.record()?;
            r.done()?;
            Ok((epoch, record))
        })();
        let (epoch, record) = match decoded {
            Ok(x) => x,
            Err(e) => {
                truncated = Some(format!("undecodable frame: {e}"));
                break;
            }
        };
        if let Some(prev) = frames.last() {
            if epoch <= prev.epoch {
                truncated = Some("epoch order violation".to_string());
                break;
            }
        }
        frames.push(ScannedFrame {
            epoch,
            record,
            start: pos as u64,
        });
        pos += 8 + len;
    }
    Ok(ScannedWal {
        frames,
        valid_bytes: pos as u64,
        truncated,
    })
}

// ---------------------------------------------------------------------------
// The attached durable log
// ---------------------------------------------------------------------------

/// Observable state of an attached [`DurableLog`], for `explain()` and
/// operational reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityStats {
    /// The durability directory.
    pub dir: PathBuf,
    /// WAL frames appended since attach/recovery.
    pub appends: u64,
    /// Bytes appended to the WAL since attach/recovery.
    pub append_bytes: u64,
    /// How many of the appended frames were structural `Reset` frames.
    pub reset_frames: u64,
    /// Snapshots written since attach/recovery.
    pub snapshots: u64,
    /// Epoch of the most recent successful snapshot.
    pub last_snapshot_epoch: u64,
    /// Structural changes awaiting their deferred `Reset` frame.
    pub pending_structural: usize,
    /// Why the log stopped accepting writes, if it did (an injected crash
    /// or a real I/O failure poisons the log permanently).
    pub failed: Option<String>,
}

impl DurabilityStats {
    /// One-line human summary, used by `Pipeline::explain`.
    pub fn describe(&self) -> String {
        format!(
            "dir {} · {} wal frame(s) ({} bytes, {} reset(s)) · {} snapshot(s), last at epoch {}{}{}",
            self.dir.display(),
            self.appends,
            self.append_bytes,
            self.reset_frames,
            self.snapshots,
            self.last_snapshot_epoch,
            if self.pending_structural > 0 {
                format!(" · {} pending structural reset(s)", self.pending_structural)
            } else {
                String::new()
            },
            match &self.failed {
                Some(f) => format!(" · POISONED: {f}"),
                None => String::new(),
            }
        )
    }
}

/// The durability attachment of a [`Database`] / [`BagDatabase`]: an open
/// append handle on the WAL plus the bookkeeping that every mutation flows
/// through before the mutator returns.
///
/// Frames are appended with a plain `write_all`, with no fsync: a written
/// frame survives a process crash (`kill -9`), but survives power loss only
/// once the owner's [`Database::sync_durable`],
/// [`Database::snapshot_durable`] or [`Database::detach_durable`] (or the
/// [`BagDatabase`] equivalent) has returned.
///
/// A poisoned log (injected crash or real I/O error) permanently stops
/// writing — modelling a dead process, so the on-disk prefix stays exactly
/// what a recovery will see. Clones of the owning database do **not**
/// inherit the attachment (two writers on one file would interleave
/// frames).
#[derive(Debug)]
pub struct DurableLog {
    dir: PathBuf,
    file: File,
    /// Deferred structural resets: `(epoch, relation)` recorded by
    /// `relation_mut`, written out at the next mutation or explicit sync.
    pending: Vec<(u64, String)>,
    failed: Option<String>,
    appends: u64,
    append_bytes: u64,
    reset_frames: u64,
    snapshots: u64,
    last_snapshot_epoch: u64,
}

impl DurableLog {
    /// Create (or take over) a durability directory: `wal.log` is opened
    /// fresh. The caller writes the baseline snapshot.
    pub(crate) fn attach(dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("wal.create_dir", &e))?;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join(WAL_FILE))
            .map_err(|e| io_err("wal.open", &e))?;
        Ok(DurableLog {
            dir: dir.to_path_buf(),
            file,
            pending: Vec::new(),
            failed: None,
            appends: 0,
            append_bytes: 0,
            reset_frames: 0,
            snapshots: 0,
            last_snapshot_epoch: 0,
        })
    }

    /// Reopen an existing WAL after recovery, truncating away any torn or
    /// corrupt tail so new frames append to the last *valid* byte.
    pub(crate) fn reattach(dir: &Path, valid_bytes: u64, snapshot_epoch: u64) -> Result<Self> {
        // `set_len` below performs the (partial) truncation; the open
        // itself must preserve the valid prefix.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(WAL_FILE))
            .map_err(|e| io_err("wal.open", &e))?;
        file.set_len(valid_bytes)
            .map_err(|e| io_err("wal.truncate", &e))?;
        file.seek(SeekFrom::Start(valid_bytes))
            .map_err(|e| io_err("wal.seek", &e))?;
        Ok(DurableLog {
            dir: dir.to_path_buf(),
            file,
            pending: Vec::new(),
            failed: None,
            appends: 0,
            append_bytes: 0,
            reset_frames: 0,
            snapshots: 0,
            last_snapshot_epoch: snapshot_epoch,
        })
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    pub(crate) fn failed(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    pub(crate) fn mark_failed(&mut self, why: impl Into<String>) {
        if self.failed.is_none() {
            self.failed = Some(why.into());
        }
    }

    pub(crate) fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            dir: self.dir.clone(),
            appends: self.appends,
            append_bytes: self.append_bytes,
            reset_frames: self.reset_frames,
            snapshots: self.snapshots,
            last_snapshot_epoch: self.last_snapshot_epoch,
            pending_structural: self.pending.len(),
            failed: self.failed.clone(),
        }
    }

    pub(crate) fn defer_reset(&mut self, epoch: u64, relation: &str) {
        self.pending.push((epoch, relation.to_string()));
    }

    pub(crate) fn take_pending(&mut self) -> Vec<(u64, String)> {
        std::mem::take(&mut self.pending)
    }

    fn write_frame(&mut self, payload: Vec<u8>) -> Result<()> {
        if let Some(f) = &self.failed {
            return Err(DataError::Io {
                op: "wal.append".to_string(),
                detail: format!("durable log is poisoned: {f}"),
            });
        }
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        if let Some(r) = crash_fires("wal:frame") {
            let mangled = mangle(&frame, r);
            let _ = self.file.write_all(&mangled);
            let _ = self.file.sync_data();
            self.failed = Some("crash injected at wal:frame".to_string());
            return Err(DataError::CrashInjected { site: "wal:frame" });
        }
        if let Err(e) = self.file.write_all(&frame) {
            self.failed = Some(format!("wal append failed: {e}"));
            return Err(io_err("wal.append", &e));
        }
        self.appends += 1;
        self.append_bytes += frame.len() as u64;
        obs::metrics().add(MetricId::WalAppends, 1);
        obs::metrics().add(MetricId::WalAppendBytes, frame.len() as u64);
        Ok(())
    }

    pub(crate) fn append_delta(&mut self, epoch: u64, delta: &Delta) -> Result<()> {
        let mut payload = Vec::new();
        put_u64(&mut payload, epoch);
        payload.push(0); // WalRecord::Delta
        put_delta(&mut payload, delta);
        self.write_frame(payload)
    }

    pub(crate) fn append_reset_set(
        &mut self,
        epoch: u64,
        name: &str,
        rel: &Relation,
    ) -> Result<()> {
        let mut payload = Vec::new();
        put_u64(&mut payload, epoch);
        payload.push(1); // WalRecord::ResetSet
        put_str(&mut payload, name);
        put_relation(&mut payload, rel);
        self.write_frame(payload)?;
        self.reset_frames += 1;
        obs::metrics().add(MetricId::WalResetFrames, 1);
        Ok(())
    }

    pub(crate) fn append_reset_bag(
        &mut self,
        epoch: u64,
        name: &str,
        rel: &BagRelation,
    ) -> Result<()> {
        let mut payload = Vec::new();
        put_u64(&mut payload, epoch);
        payload.push(2); // WalRecord::ResetBag
        put_str(&mut payload, name);
        put_bag_relation(&mut payload, rel);
        self.write_frame(payload)?;
        self.reset_frames += 1;
        obs::metrics().add(MetricId::WalResetFrames, 1);
        Ok(())
    }

    /// Record a successful snapshot at `epoch`: the WAL restarts empty (the
    /// snapshot covers everything logged so far).
    pub(crate) fn note_snapshot(&mut self, epoch: u64, bytes: u64) -> Result<()> {
        if self.failed.is_some() {
            return Ok(());
        }
        self.file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)).map(|_| ()))
            .map_err(|e| io_err("wal.restart", &e))?;
        self.snapshots += 1;
        self.last_snapshot_epoch = epoch;
        obs::metrics().add(MetricId::SnapshotWrites, 1);
        obs::metrics().add(MetricId::SnapshotBytes, bytes);
        Ok(())
    }

    pub(crate) fn sync(&mut self) -> Result<()> {
        if let Some(f) = &self.failed {
            return Err(DataError::Io {
                op: "wal.sync".to_string(),
                detail: format!("durable log is poisoned: {f}"),
            });
        }
        self.file.sync_all().map_err(|e| io_err("wal.sync", &e))
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What a [`recover`] / [`recover_bag`] run found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the snapshot the recovery started from.
    pub snapshot_epoch: u64,
    /// Snapshot files that failed validation and were passed over for an
    /// older one (partial writes, bad checksums).
    pub snapshots_skipped: usize,
    /// WAL frames replayed on top of the snapshot.
    pub frames_replayed: usize,
    /// Valid WAL frames at or below the snapshot epoch (already covered).
    pub frames_skipped: usize,
    /// Why the WAL tail was cut short, if it was (torn write, checksum
    /// mismatch, undecodable or out-of-order frame). The bad tail is
    /// truncated so subsequent appends extend valid history.
    pub wal_truncated: Option<String>,
    /// The recovered database's epoch.
    pub recovered_epoch: u64,
}

fn recover_inner(dir: &Path) -> Result<(SnapshotContents, usize, ScannedWal)> {
    let contents = {
        let _s = obs::span("recovery:load_snapshot");
        snapshot::load_latest(dir)?
    };
    let scanned = scan_wal(&dir.join(WAL_FILE))?;
    Ok((contents.0, contents.1, scanned))
}

/// Recover a set-semantics [`Database`] from a durability directory: load
/// the newest valid snapshot, replay the WAL tail up to the first bad
/// frame, truncate the bad tail, and re-attach the log so further mutations
/// keep appending.
///
/// The recovered database is a **fresh instance** (new instance id, empty
/// in-memory delta log): any answer cache keyed on the pre-crash
/// `(instance, epoch)` can never be served against it.
///
/// # Errors
///
/// Returns [`DataError::Corrupt`] when no snapshot in `dir` validates (a
/// valid store always has at least its attach-time baseline), or
/// [`DataError::Io`] on filesystem failures.
pub fn recover(dir: impl AsRef<Path>) -> Result<(Database, RecoveryReport)> {
    let dir = dir.as_ref();
    let t0 = Instant::now();
    let _span = obs::span("recovery:recover");
    let (contents, snapshots_skipped, scanned) = recover_inner(dir)?;
    let SnapshotContents::Set {
        schema,
        relations,
        epoch: snapshot_epoch,
        next_null,
    } = contents
    else {
        return Err(corrupt(
            "durable store holds a bag database; use recover_bag",
        ));
    };
    let mut db = Database::from_snapshot(schema, relations, snapshot_epoch, next_null);
    let mut report = RecoveryReport {
        snapshot_epoch,
        snapshots_skipped,
        frames_replayed: 0,
        frames_skipped: 0,
        wal_truncated: scanned.truncated.clone(),
        recovered_epoch: snapshot_epoch,
    };
    let mut valid_bytes = scanned.valid_bytes;
    {
        let _s = obs::span("recovery:replay");
        for f in &scanned.frames {
            if f.epoch <= snapshot_epoch {
                report.frames_skipped += 1;
                continue;
            }
            match db.replay_record(f.epoch, &f.record) {
                Ok(()) => report.frames_replayed += 1,
                Err(e) => {
                    report.wal_truncated = Some(format!("replay stopped: {e}"));
                    valid_bytes = f.start;
                    break;
                }
            }
        }
    }
    let log = DurableLog::reattach(dir, valid_bytes, snapshot_epoch)?;
    db.set_durable(log);
    report.recovered_epoch = db.epoch();
    finish_recovery_metrics(&report, t0);
    Ok((db, report))
}

/// Recover a bag-semantics [`BagDatabase`]; see [`recover`].
///
/// # Errors
///
/// As [`recover`], plus [`DataError::Corrupt`] when the store holds a
/// set-semantics database.
pub fn recover_bag(dir: impl AsRef<Path>) -> Result<(BagDatabase, RecoveryReport)> {
    let dir = dir.as_ref();
    let t0 = Instant::now();
    let _span = obs::span("recovery:recover");
    let (contents, snapshots_skipped, scanned) = recover_inner(dir)?;
    let SnapshotContents::Bag {
        schema,
        relations,
        epoch: snapshot_epoch,
    } = contents
    else {
        return Err(corrupt("durable store holds a set database; use recover"));
    };
    let mut db = BagDatabase::from_snapshot(schema, relations, snapshot_epoch);
    let mut report = RecoveryReport {
        snapshot_epoch,
        snapshots_skipped,
        frames_replayed: 0,
        frames_skipped: 0,
        wal_truncated: scanned.truncated.clone(),
        recovered_epoch: snapshot_epoch,
    };
    let mut valid_bytes = scanned.valid_bytes;
    {
        let _s = obs::span("recovery:replay");
        for f in &scanned.frames {
            if f.epoch <= snapshot_epoch {
                report.frames_skipped += 1;
                continue;
            }
            match db.replay_record(f.epoch, &f.record) {
                Ok(()) => report.frames_replayed += 1,
                Err(e) => {
                    report.wal_truncated = Some(format!("replay stopped: {e}"));
                    valid_bytes = f.start;
                    break;
                }
            }
        }
    }
    let log = DurableLog::reattach(dir, valid_bytes, snapshot_epoch)?;
    db.set_durable(log);
    report.recovered_epoch = db.epoch();
    finish_recovery_metrics(&report, t0);
    Ok((db, report))
}

fn finish_recovery_metrics(report: &RecoveryReport, t0: Instant) {
    let m = obs::metrics();
    m.add(MetricId::RecoveryRuns, 1);
    m.add(
        MetricId::RecoveryReplayedFrames,
        report.frames_replayed as u64,
    );
    if report.wal_truncated.is_some() {
        m.add(MetricId::WalBadFrames, 1);
    }
    m.observe(
        HistogramId::RecoveryMicros,
        u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn roundtrip_delta(d: &Delta) {
        let mut buf = Vec::new();
        put_delta(&mut buf, d);
        let mut r = Reader::new(&buf);
        assert_eq!(&r.delta().unwrap(), d);
        r.done().unwrap();
    }

    #[test]
    fn codec_round_trips_every_delta_variant() {
        roundtrip_delta(&Delta::Insert {
            relation: "R".into(),
            tuples: vec![tup![1, "x"], tup![Value::null(7), -3]],
        });
        roundtrip_delta(&Delta::Delete {
            relation: "S".into(),
            tuples: vec![tup![Value::null(0)]],
        });
        roundtrip_delta(&Delta::Resolve {
            null: 42,
            value: Const::str("résolu"),
        });
        roundtrip_delta(&Delta::Structural);
    }

    #[test]
    fn codec_round_trips_relations_and_schemas() {
        let rel = Relation::with_arity(2, vec![tup![1, 2], tup![Value::null(3), "a"]]);
        let mut buf = Vec::new();
        put_relation(&mut buf, &rel);
        let mut r = Reader::new(&buf);
        assert_eq!(r.relation().unwrap(), rel);
        r.done().unwrap();

        let bag = BagRelation::from_counted(1, vec![(tup![5], 3), (tup![Value::null(1)], 1)]);
        let mut buf = Vec::new();
        put_bag_relation(&mut buf, &bag);
        let mut r = Reader::new(&buf);
        assert_eq!(r.bag_relation().unwrap(), bag);

        let schema = Schema::from_relations(vec![
            RelationSchema::new("R", vec!["a", "b"]),
            RelationSchema::new("S", vec!["c"]),
        ])
        .unwrap();
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        let mut r = Reader::new(&buf);
        assert_eq!(r.schema().unwrap(), schema);
    }

    #[test]
    fn decoder_rejects_garbage_with_typed_errors() {
        let mut r = Reader::new(&[9, 9, 9]);
        assert!(matches!(r.record(), Err(DataError::Corrupt { .. })));
        let mut r = Reader::new(&[]);
        assert!(matches!(r.u32(), Err(DataError::Corrupt { .. })));
        // A tuple claiming more values than the payload can hold must not
        // attempt the allocation.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.tuple(), Err(DataError::Corrupt { .. })));
    }

    #[test]
    fn scan_stops_at_torn_and_corrupt_tails() {
        let dir = std::env::temp_dir().join(format!(
            "certa-wal-scan-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut log = DurableLog::attach(&dir).unwrap();
        for e in 1..=4u64 {
            log.append_delta(
                e,
                &Delta::Insert {
                    relation: "R".into(),
                    tuples: vec![tup![e as i64]],
                },
            )
            .unwrap();
        }
        drop(log);
        let clean = std::fs::read(&path).unwrap();
        let full = scan_wal(&path).unwrap();
        assert_eq!(full.frames.len(), 4);
        assert_eq!(full.valid_bytes, clean.len() as u64);
        assert!(full.truncated.is_none());
        assert_eq!(
            full.frames.iter().map(|f| f.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );

        // Truncate at every possible byte boundary: the scan must keep the
        // longest valid frame prefix and report the tear.
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let s = scan_wal(&path).unwrap();
            assert!(s.frames.len() <= 4);
            assert!(s.valid_bytes <= cut as u64);
            if cut < clean.len() {
                // Either we cut exactly on a frame boundary (no tear) or
                // the tail is reported torn.
                assert_eq!(s.truncated.is_some(), s.valid_bytes != cut as u64);
            }
            for (i, f) in s.frames.iter().enumerate() {
                assert_eq!(f.epoch, (i + 1) as u64);
            }
        }

        // Flip one byte in the *last* frame: the first three must survive.
        let mut flipped = clean.clone();
        let last = flipped.len() - 3;
        flipped[last] ^= 0xFF;
        std::fs::write(&path, &flipped).unwrap();
        let s = scan_wal(&path).unwrap();
        assert_eq!(s.frames.len(), 3);
        assert!(s.truncated.is_some());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wal_is_an_empty_log() {
        let s = scan_wal(Path::new("/nonexistent/certa/wal.log")).unwrap();
        assert!(s.frames.is_empty());
        assert_eq!(s.valid_bytes, 0);
        assert!(s.truncated.is_none());
    }

    #[test]
    fn mangle_is_deterministic_and_always_damages() {
        let frame: Vec<u8> = (0..64u8).collect();
        for r in [0u64, 1, 2, 3, 1234, u64::MAX, 0xDEAD_BEEF] {
            let a = mangle(&frame, r);
            let b = mangle(&frame, r);
            assert_eq!(a, b);
            assert_ne!(a, frame);
        }
    }
}
