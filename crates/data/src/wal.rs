//! Crash-safe write-ahead logging for an [`Instance`], set or bag.
//!
//! The durability layer serializes the existing [`Delta`] vocabulary into a
//! **length-prefixed, CRC32-checksummed, epoch-ordered** append-only log
//! (`wal.log`), paired with periodic full snapshots (see
//! [`crate::snapshot`]) written via temp-file + atomic rename. Recovery
//! ([`recover`] / [`recover_bag`]) loads the newest valid snapshot and
//! replays the WAL tail, tolerating torn, truncated or bit-flipped trailing
//! records by stopping at the first bad frame instead of failing the whole
//! store — exactly the contract a kill -9 leaves behind. One implementation
//! serves both kinds of store; only the relation codec differs.
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
//! replay — are persisted as [`WalRecord::Reset`] frames carrying the
//! relation's full post-change contents (tag 1 in a set store, 2 in a bag
//! store); for `relation_mut` the reset is deferred until the outstanding
//! borrow has provably ended (the next logged mutation, or an explicit
//! [`Instance::sync_durable`]).
//!
//! ## Crash injection
//!
//! Under the `fault-injection` feature, `arm_crashes` installs a seeded
//! schedule that deterministically truncates or bit-flips the file mid-write
//! at the `wal:frame`, `snapshot:tmp` and `snapshot:rename` sites and
//! poisons the attached log (as if the process died there);
//! `arm_crash_site` targets one site's n-th hit exactly. Production builds
//! compile the checks away, and both functions with them.

use crate::codec::{put_delta, put_str, put_u32, put_u64, Reader};
use crate::crc32::crc32;
use crate::database::{BagDatabase, Database, Instance, RelationKind};
use crate::delta::Delta;
use crate::snapshot;
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

pub(crate) fn io_err(op: &str, e: &std::io::Error) -> DataError {
    DataError::Io {
        op: op.to_string(),
        detail: e.to_string(),
    }
}

/// One replayable WAL entry. [`Delta`]s are replayed as the mutation they
/// describe; `Reset` frames carry a relation's full post-change contents
/// (the durable form of [`Delta::Structural`], which by itself says only
/// "something changed").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord<R> {
    /// A typed mutation, replayed through the delta vocabulary.
    Delta(Delta),
    /// Wholesale replacement of a relation of the store's kind.
    Reset {
        /// Target relation name.
        relation: String,
        /// The relation's complete contents after the structural change.
        rel: R,
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

pub(crate) struct ScannedFrame<R> {
    pub(crate) epoch: u64,
    pub(crate) record: WalRecord<R>,
    /// Byte offset where this frame starts, for truncate-on-replay-failure.
    pub(crate) start: u64,
}

pub(crate) struct ScannedWal<R> {
    pub(crate) frames: Vec<ScannedFrame<R>>,
    /// Prefix length (bytes) covered by valid frames; everything after is
    /// torn/corrupt tail and is truncated away on reattach.
    pub(crate) valid_bytes: u64,
    /// Why scanning stopped before end-of-file, if it did.
    pub(crate) truncated: Option<String>,
}

/// Scan a WAL file, stopping (not erroring) at the first bad frame. A
/// missing file is an empty log.
pub(crate) fn scan_wal<R: RelationKind>(path: &Path) -> Result<ScannedWal<R>> {
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
    let mut frames: Vec<ScannedFrame<R>> = Vec::new();
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
        let decoded = (|| -> Result<(u64, WalRecord<R>)> {
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

/// The durability attachment of an [`Instance`]: an open append handle on
/// the WAL plus the bookkeeping that every mutation flows through before
/// the mutator returns.
///
/// Frames are appended with a plain `write_all`, with no fsync: a written
/// frame survives a process crash (`kill -9`), but survives power loss only
/// once the owner's [`Instance::sync_durable`],
/// [`Instance::snapshot_durable`] or [`Instance::detach_durable`] has
/// returned.
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
    /// fresh. The caller removes the old snapshots first and writes the
    /// baseline snapshot after.
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

    pub(crate) fn append_reset<R: RelationKind>(
        &mut self,
        epoch: u64,
        name: &str,
        rel: &R,
    ) -> Result<()> {
        let mut payload = Vec::new();
        put_u64(&mut payload, epoch);
        payload.push(R::RESET_TAG); // WalRecord::Reset
        put_str(&mut payload, name);
        rel.encode(&mut payload);
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
/// valid store always has at least its attach-time baseline) or the store
/// holds a bag-semantics database, and [`DataError::Io`] on filesystem
/// failures.
pub fn recover(dir: impl AsRef<Path>) -> Result<(Database, RecoveryReport)> {
    recover_store(dir.as_ref())
}

/// Recover a bag-semantics [`BagDatabase`]; see [`recover`].
///
/// # Errors
///
/// As [`recover`], plus [`DataError::Corrupt`] when the store holds a
/// set-semantics database.
pub fn recover_bag(dir: impl AsRef<Path>) -> Result<(BagDatabase, RecoveryReport)> {
    recover_store(dir.as_ref())
}

/// The recovery behind [`recover`] and [`recover_bag`].
fn recover_store<R: RelationKind>(dir: &Path) -> Result<(Instance<R>, RecoveryReport)> {
    let t0 = Instant::now();
    let _span = obs::span("recovery:recover");
    let (contents, snapshots_skipped) = {
        let _s = obs::span("recovery:load_snapshot");
        snapshot::load_latest::<R>(dir)?
    };
    let scanned = scan_wal::<R>(&dir.join(WAL_FILE))?;
    let snapshot_epoch = contents.epoch;
    let mut db = Instance::from_snapshot(contents);
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
    use crate::bag::BagRelation;
    use crate::codec::{put_bag_relation, put_relation, put_schema};
    use crate::relation::Relation;
    use crate::schema::{RelationSchema, Schema};
    use crate::tup;
    use crate::value::{Const, Value};

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
        assert!(matches!(
            r.record::<Relation>(),
            Err(DataError::Corrupt { .. })
        ));
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
        let full = scan_wal::<Relation>(&path).unwrap();
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
            let s = scan_wal::<Relation>(&path).unwrap();
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
        let s = scan_wal::<Relation>(&path).unwrap();
        assert_eq!(s.frames.len(), 3);
        assert!(s.truncated.is_some());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wal_is_an_empty_log() {
        let s = scan_wal::<Relation>(Path::new("/nonexistent/certa/wal.log")).unwrap();
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
