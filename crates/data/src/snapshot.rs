//! Atomic full-database snapshots for the durability layer.
//!
//! A snapshot is one file, `snap-<epoch:020>.snap`, written in full to a
//! `.tmp` sibling and then published with `fs::rename` — so a reader (and
//! in particular [`crate::wal::recover`]) either sees the previous complete
//! snapshot or the new complete snapshot, never a partial one. The epoch is
//! zero-padded so lexicographic directory order is numeric epoch order.
//!
//! ## File format
//!
//! ```text
//! magic    b"CERTSNAP"            8 bytes
//! version  u32 LE                 currently 1
//! body_len u64 LE
//! body_crc u32 LE                 CRC-32/IEEE of body
//! body:
//!   kind      u8                  0 = set semantics, 1 = bag semantics
//!   epoch     u64 LE
//!   next_null u32 LE              (set kind only)
//!   schema                        see the codec module
//!   count     u32 LE              relations
//!   (name, relation)*             sorted by name (BTreeMap order)
//! ```
//!
//! Loading tries the newest snapshot first and silently falls back to older
//! ones when validation fails (truncated body, checksum mismatch, bad
//! magic): a crash during snapshot writing must never make the store
//! unrecoverable. The last two snapshots are retained for exactly this
//! reason; older ones are pruned after each successful write, and attaching
//! a store to a directory removes them all first. A valid snapshot of the
//! other kind is not skipped: it means the directory holds the other kind
//! of store, and loading reports that.
//!
//! One writer and one loader serve both kinds; the kind byte, the
//! `next_null` field and the relation codec come from the
//! [`RelationKind`].

use crate::codec::{corrupt, put_schema, put_str, put_u32, put_u64, Reader};
use crate::crc32::crc32;
use crate::database::RelationKind;
use crate::schema::Schema;
use crate::value::NullId;
use crate::wal::{crash_fires, io_err, mangle};
use crate::{DataError, Result};
use certa_obs as obs;
use obs::HistogramId;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

const MAGIC: &[u8; 8] = b"CERTSNAP";
const VERSION: u32 = 1;
const SNAP_SUFFIX: &str = ".snap";
const TMP_SUFFIX: &str = ".snap.tmp";

/// How many published snapshots to retain (newest first). Two, so a crash
/// while writing snapshot N+1 always leaves snapshot N loadable.
const RETAIN: usize = 2;

/// Decoded snapshot body, before it becomes a database.
#[derive(Debug)]
pub(crate) struct SnapshotContents<R> {
    pub(crate) schema: Schema,
    pub(crate) relations: BTreeMap<String, R>,
    pub(crate) epoch: u64,
    /// The null allocator; 0 for a bag snapshot, which does not record it.
    pub(crate) next_null: NullId,
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snap-{epoch:020}{SNAP_SUFFIX}"))
}

fn encode_file(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 24);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, body.len() as u64);
    put_u32(&mut out, crc32(body));
    out.extend_from_slice(body);
    out
}

/// Write `body` as the snapshot for `epoch` via temp-file + atomic rename.
/// Returns the published file's size in bytes.
fn publish(dir: &Path, epoch: u64, body: Vec<u8>) -> Result<u64> {
    let t0 = Instant::now();
    let _span = obs::span("snapshot:write");
    let bytes = encode_file(&body);
    let tmp = dir.join(format!("snap-{epoch:020}{TMP_SUFFIX}"));
    let dest = snapshot_path(dir, epoch);

    if let Some(r) = crash_fires("snapshot:tmp") {
        // Die mid-write of the temp file: a mangled .tmp is left behind,
        // which recovery must ignore entirely.
        let _ = fs::write(&tmp, mangle(&bytes, r));
        return Err(DataError::CrashInjected {
            site: "snapshot:tmp",
        });
    }
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err("snapshot.create", &e))?;
        f.write_all(&bytes)
            .map_err(|e| io_err("snapshot.write", &e))?;
        f.sync_all().map_err(|e| io_err("snapshot.sync", &e))?;
    }
    if crash_fires("snapshot:rename").is_some() {
        // Die after the temp file is complete but before it is published:
        // the previous snapshot must remain the loadable one.
        return Err(DataError::CrashInjected {
            site: "snapshot:rename",
        });
    }
    fs::rename(&tmp, &dest).map_err(|e| io_err("snapshot.rename", &e))?;
    // Durably record the rename in the directory where supported; failure
    // to fsync a directory is not worth failing the snapshot over.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    // The new snapshot is published; a stale file left behind is harmless.
    let _ = prune(dir, RETAIN);
    obs::metrics().observe(
        HistogramId::SnapshotMicros,
        u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
    );
    Ok(bytes.len() as u64)
}

/// Remove stray temp files and all snapshots but the newest `keep`. A
/// missing directory has nothing to remove.
///
/// # Errors
///
/// Returns [`DataError::Io`] if a file cannot be removed.
pub(crate) fn prune(dir: &Path, keep: usize) -> Result<()> {
    let remove = |p: &Path| fs::remove_file(p).map_err(|e| io_err("snapshot.prune", &e));
    // `list_snapshots` sorts newest-first.
    for p in list_snapshots(dir).into_iter().skip(keep) {
        remove(&p)?;
    }
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().ends_with(TMP_SUFFIX) {
                remove(&entry.path())?;
            }
        }
    }
    Ok(())
}

/// All published snapshot files in `dir`, newest first.
fn list_snapshots(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("snap-") && name.ends_with(SNAP_SUFFIX) {
                out.push(entry.path());
            }
        }
    }
    // Zero-padded epochs make lexicographic order numeric; newest first.
    out.sort();
    out.reverse();
    out
}

/// Serialize and publish a snapshot. Only a set snapshot records
/// `next_null`.
pub(crate) fn write<R: RelationKind>(
    dir: &Path,
    schema: &Schema,
    relations: &BTreeMap<String, R>,
    epoch: u64,
    next_null: NullId,
) -> Result<u64> {
    let mut body = Vec::new();
    body.push(R::SNAPSHOT_KIND);
    put_u64(&mut body, epoch);
    if R::SNAPSHOT_NEXT_NULL {
        put_u32(&mut body, next_null);
    }
    put_schema(&mut body, schema);
    put_u32(&mut body, relations.len() as u32);
    for (name, rel) in relations {
        put_str(&mut body, name);
        rel.encode(&mut body);
    }
    publish(dir, epoch, body)
}

/// Validate and decode one snapshot file. `Ok(None)` is a valid snapshot
/// of the other kind.
fn load_file<R: RelationKind>(path: &Path) -> Result<Option<SnapshotContents<R>>> {
    let bytes = fs::read(path).map_err(|e| io_err("snapshot.read", &e))?;
    if bytes.len() < 24 || &bytes[..8] != MAGIC {
        return Err(corrupt("snapshot header invalid"));
    }
    let mut hdr = Reader::new(&bytes[8..24]);
    let version = hdr.u32()?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let body_len = hdr.u64()? as usize;
    let body_crc = hdr.u32()?;
    if bytes.len() - 24 != body_len {
        return Err(corrupt("snapshot body length mismatch"));
    }
    let body = &bytes[24..];
    if crc32(body) != body_crc {
        return Err(corrupt("snapshot checksum mismatch"));
    }
    let mut r = Reader::new(body);
    match r.u8()? {
        k if k == R::SNAPSHOT_KIND => {}
        0 | 1 => return Ok(None),
        k => return Err(corrupt(format!("unknown snapshot kind {k}"))),
    }
    let epoch = r.u64()?;
    let next_null = if R::SNAPSHOT_NEXT_NULL { r.u32()? } else { 0 };
    let schema = r.schema()?;
    let count = r.u32()? as usize;
    let mut relations = BTreeMap::new();
    for _ in 0..count {
        let name = r.str()?;
        let rel = R::decode(&mut r)?;
        relations.insert(name, rel);
    }
    r.done()?;
    Ok(Some(SnapshotContents {
        schema,
        relations,
        epoch,
        next_null,
    }))
}

/// Load the newest valid snapshot in `dir`, skipping over invalid ones.
/// Returns the contents and how many newer snapshots were skipped.
///
/// # Errors
///
/// Returns [`DataError::Corrupt`] when no snapshot validates, or when the
/// newest valid one holds the other kind of store.
pub(crate) fn load_latest<R: RelationKind>(dir: &Path) -> Result<(SnapshotContents<R>, usize)> {
    let snaps = list_snapshots(dir);
    let mut skipped = 0usize;
    for path in &snaps {
        match load_file(path) {
            Ok(Some(c)) => return Ok((c, skipped)),
            Ok(None) => return Err(corrupt(R::WRONG_KIND)),
            Err(_) => skipped += 1,
        }
    }
    Err(corrupt(format!(
        "no valid snapshot in {} ({} candidate(s) rejected)",
        dir.display(),
        skipped
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::RelationSchema;
    use crate::tup;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "certa-snap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> (Schema, BTreeMap<String, Relation>) {
        let schema = Schema::from_relations(vec![
            RelationSchema::new("R", vec!["a", "b"]),
            RelationSchema::new("S", vec!["c"]),
        ])
        .unwrap();
        let mut rels = BTreeMap::new();
        rels.insert(
            "R".to_string(),
            Relation::with_arity(2, vec![tup![1, 2], tup![3, crate::Value::null(0)]]),
        );
        rels.insert(
            "S".to_string(),
            Relation::with_arity(1, vec![tup![crate::Value::null(1)]]),
        );
        (schema, rels)
    }

    #[test]
    fn snapshot_round_trip() {
        let dir = tmp_dir("roundtrip");
        let (schema, rels) = sample();
        write(&dir, &schema, &rels, 7, 2).unwrap();
        let (contents, skipped) = load_latest::<Relation>(&dir).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(contents.schema, schema);
        assert_eq!(contents.relations, rels);
        assert_eq!(contents.epoch, 7);
        assert_eq!(contents.next_null, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_corrupt_snapshot_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let (schema, rels) = sample();
        write(&dir, &schema, &rels, 3, 2).unwrap();
        write(&dir, &schema, &rels, 9, 2).unwrap();
        // Corrupt the newer snapshot's body.
        let newer = snapshot_path(&dir, 9);
        let mut bytes = fs::read(&newer).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newer, &bytes).unwrap();
        let (contents, skipped) = load_latest::<Relation>(&dir).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(contents.epoch, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_is_rejected_not_fatal() {
        let dir = tmp_dir("truncated");
        let (schema, rels) = sample();
        write(&dir, &schema, &rels, 2, 2).unwrap();
        write(&dir, &schema, &rels, 5, 2).unwrap();
        let newer = snapshot_path(&dir, 5);
        let bytes = fs::read(&newer).unwrap();
        fs::write(&newer, &bytes[..bytes.len() / 2]).unwrap();
        let (contents, skipped) = load_latest::<Relation>(&dir).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(contents.epoch, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_snapshots_are_pruned_to_two() {
        let dir = tmp_dir("prune");
        let (schema, rels) = sample();
        for epoch in [1u64, 2, 3, 4, 5] {
            write(&dir, &schema, &rels, epoch, 2).unwrap();
        }
        let snaps = list_snapshots(&dir);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0], snapshot_path(&dir, 5));
        assert_eq!(snaps[1], snapshot_path(&dir, 4));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_reports_no_valid_snapshot() {
        let dir = tmp_dir("empty");
        let err = load_latest::<Relation>(&dir).unwrap_err();
        assert!(matches!(err, DataError::Corrupt { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }
}
