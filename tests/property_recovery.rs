//! Crash-recovery property tests (PR 10).
//!
//! PR 10 gives the store a durability subsystem: every mutation appends a
//! checksummed frame to a write-ahead delta log before returning,
//! snapshots retire the replayed prefix via temp-file + atomic rename,
//! and `recover` rebuilds the newest snapshot plus the valid WAL tail,
//! truncating at the first torn, bit-flipped or out-of-order frame. The
//! claims this suite checks, across seeded mutation sequences crossed
//! with seeded crash schedules:
//!
//! * **prefix consistency** — whatever the crash point (an injected
//!   mid-write crash, a torn tail, a flipped byte, a crash between the
//!   snapshot temp-file and its rename), the recovered database is
//!   bit-identical to a state the writer actually committed — never a
//!   torn hybrid, never a state that existed only in memory;
//! * **oracle agreement** — a recovered store answers certain-answer
//!   queries exactly like the committed state it recovered to, under the
//!   seed's possible-worlds oracle;
//! * **cache hygiene** — recovery mints a fresh instance, so a pipeline
//!   that cached answers before the crash never serves them afterwards:
//!   zero pre-crash cache hits, every post-recovery answer recomputed.
//!
//! The crash schedule is process-global, so every test in this file holds
//! `FILE_LOCK`: a test that only writes would otherwise hit a crash armed
//! by another. The byte-surgery, clean-shutdown, file-format and takeover
//! tests need no feature; the injected-crash tests run under `--features
//! fault-injection` (CI drives them over a seed matrix via
//! `CERTA_RECOVERY_SEED_BASE`).

use certa::certain::reference;
use certa::prelude::*;
use rand::prelude::*;
use std::path::{Path, PathBuf};

/// Seeded crash schedules the fuzz test drives (≥ 200 per the PR-10
/// acceptance bar); at least `MIN_FIRED` of them must actually crash.
#[cfg(feature = "fault-injection")]
const SCHEDULES: u64 = 220;
#[cfg(feature = "fault-injection")]
const MIN_FIRED: usize = 150;

/// CI shifts the whole seed window with `CERTA_RECOVERY_SEED_BASE` so
/// different matrix rows explore different schedules.
#[cfg(feature = "fault-injection")]
fn seed_base() -> u64 {
    std::env::var("CERTA_RECOVERY_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The crash schedule is process-global and the harness runs `#[test]`s
/// concurrently, so a test writing a WAL while another has crashes armed
/// can crash. Every test in the file holds this lock while it runs.
static FILE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    // A failed test poisons the lock; the other tests still run.
    FILE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "certa-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn gen_value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.25) {
        Value::null(rng.gen_range(0u32..4))
    } else {
        Value::int(rng.gen_range(0i64..5))
    }
}

/// A small two-relation instance with repeated nulls — big enough for
/// joins and differences, small enough for the possible-worlds oracle.
fn base_db(rng: &mut StdRng) -> Database {
    let r: Vec<Tuple> = (0..rng.gen_range(2usize..5))
        .map(|_| Tuple::new([gen_value(rng), gen_value(rng)]))
        .collect();
    let s: Vec<Tuple> = (0..rng.gen_range(1usize..4))
        .map(|_| Tuple::new([gen_value(rng)]))
        .collect();
    database_from_literal([("R", vec!["a", "b"], r), ("S", vec!["c"], s)])
}

/// Apply one random mutation, spanning every WAL path: plain deltas
/// (insert/delete/resolve), an immediate full-content reset
/// (`set_relation`), and the deferred reset of `relation_mut` whose
/// frame is only flushed by the *next* mutator. Returns the mutator's
/// own result; injected crashes surface here or as sticky poison.
fn mutate_step(rng: &mut StdRng, db: &mut Database) -> Result<(), certa::data::DataError> {
    match rng.gen_range(0u32..10) {
        0..=3 => {
            let (rel, arity) = if rng.gen_bool(0.5) {
                ("R", 2)
            } else {
                ("S", 1)
            };
            let tuples: Vec<Tuple> = (0..rng.gen_range(1usize..3))
                .map(|_| Tuple::new((0..arity).map(|_| gen_value(rng))))
                .collect();
            db.insert_all(rel, tuples)
        }
        4..=5 => {
            let rel = if rng.gen_bool(0.5) { "R" } else { "S" };
            let victim = {
                let r = db.relation(rel).unwrap();
                if r.is_empty() {
                    None
                } else {
                    r.iter().nth(rng.gen_range(0..r.len())).cloned()
                }
            };
            match victim {
                Some(t) => db.delete(rel, &t).map(|_| ()),
                None => Ok(()),
            }
        }
        6..=7 => {
            let nulls: Vec<_> = db.nulls().into_iter().collect();
            if nulls.is_empty() {
                return Ok(());
            }
            let null = nulls[rng.gen_range(0..nulls.len())];
            let _ = db.resolve_null(null, Const::Int(rng.gen_range(0i64..5)));
            Ok(())
        }
        8 => {
            let t = Tuple::new([gen_value(rng), gen_value(rng)]);
            db.relation_mut("R").map(|rel| {
                rel.insert(t);
            })
        }
        _ => {
            let tuples: Vec<Tuple> = (0..rng.gen_range(0usize..3))
                .map(|_| Tuple::new([gen_value(rng)]))
                .collect();
            db.set_relation("S", Relation::with_arity(1, tuples))
        }
    }
}

/// Drive a seeded mutation sequence against an attached database,
/// recording a clone after every *successfully logged* step (a clone
/// drops the durability attachment, so recording never perturbs the
/// log). Stops at the first WAL failure. Returns the committed states,
/// oldest first, and whether the log died.
fn run_sequence(rng: &mut StdRng, db: &mut Database, steps: usize) -> (Vec<Database>, bool) {
    run_sequence_with(rng, db, steps, 0.12)
}

/// [`run_sequence`] with an explicit per-step snapshot probability (the
/// byte-surgery test passes 0.0 so the WAL keeps every frame).
fn run_sequence_with(
    rng: &mut StdRng,
    db: &mut Database,
    steps: usize,
    snapshot_p: f64,
) -> (Vec<Database>, bool) {
    let mut states = vec![db.clone()];
    for _ in 0..steps {
        let ok = mutate_step(rng, db).is_ok();
        if !ok || db.durability_crashed().is_some() {
            return (states, true);
        }
        states.push(db.clone());
        if snapshot_p > 0.0
            && rng.gen_bool(snapshot_p)
            && (db.snapshot_durable().is_err() || db.durability_crashed().is_some())
        {
            return (states, true);
        }
    }
    (states, false)
}

/// The recovered database must be bit-identical to one of the recorded
/// committed states; returns its index.
fn assert_committed_prefix(
    recovered: &Database,
    states: &[Database],
    report: &RecoveryReport,
    context: &str,
) -> usize {
    states
        .iter()
        .position(|s| s == recovered)
        .unwrap_or_else(|| {
            panic!(
                "{context}: recovered state ({} R-tuples, {} S-tuples, epoch {}) \
                 matches none of the {} committed states ({report:?})",
                recovered.relation("R").unwrap().len(),
                recovered.relation("S").unwrap().len(),
                recovered.epoch(),
                states.len(),
            )
        })
}

/// Certain answers on the recovered store must agree with the seed's
/// possible-worlds oracle evaluated on the committed state it matched.
fn assert_oracle_agreement(recovered: &Database, committed: &Database, seed: u64, context: &str) {
    let query = random_query(
        recovered.schema(),
        &RandomQueryConfig {
            max_depth: 2,
            allow_difference: true,
            allow_disequality: true,
            seed,
        },
    );
    let spec = certa::certain::worlds::exact_pool(&query, committed);
    let on_recovered = cert_with_nulls(&query, recovered).unwrap();
    let oracle = reference::cert_with_nulls_seed(&query, committed, &spec).unwrap();
    assert_eq!(
        on_recovered, oracle,
        "{context}: certain answers diverge from the seed oracle after recovery"
    );
}

// ---------------------------------------------------------------------
// No-feature tests: clean shutdown, kill -9, and byte surgery on the log.
// ---------------------------------------------------------------------

/// A clean detach flushes any deferred reset; recovery then reproduces
/// the final state exactly, and keeps doing so across further sessions.
#[test]
fn clean_shutdown_recovers_the_final_state_exactly() {
    let _guard = serialize();
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let dir = test_dir(&format!("clean-{seed}"));
        let mut db = base_db(&mut rng);
        db.attach_durable(&dir).unwrap();
        let steps = rng.gen_range(5usize..25);
        let (_, crashed) = run_sequence(&mut rng, &mut db, steps);
        assert!(!crashed, "no faults are armed");
        db.detach_durable().unwrap();

        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(recovered, db, "seed {seed}: clean recovery must be exact");
        assert!(report.wal_truncated.is_none(), "seed {seed}: {report:?}");

        // Second generation: keep mutating the recovered store, recover
        // again — post-recovery appends must extend valid history.
        let mut db2 = recovered;
        let (_, crashed) = run_sequence(&mut rng, &mut db2, 6);
        assert!(!crashed);
        db2.detach_durable().unwrap();
        let (recovered2, _) = recover(&dir).unwrap();
        assert_eq!(recovered2, db2, "seed {seed}: second-generation recovery");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Dropping the writer without detaching models `kill -9` with an intact
/// log: the recovered state is one of the committed states (the very
/// last one, unless a deferred structural reset was still pending).
#[test]
fn kill_minus_nine_recovers_a_committed_state() {
    let _guard = serialize();
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5851_F42D).wrapping_add(3));
        let dir = test_dir(&format!("kill-{seed}"));
        let mut db = base_db(&mut rng);
        db.attach_durable(&dir).unwrap();
        let steps = rng.gen_range(5usize..25);
        let (states, crashed) = run_sequence(&mut rng, &mut db, steps);
        assert!(!crashed);
        drop(db); // no detach: the OS reclaims the process mid-flight

        let (recovered, report) = recover(&dir).unwrap();
        let matched =
            assert_committed_prefix(&recovered, &states, &report, &format!("seed {seed}"));
        if seed % 4 == 0 {
            assert_oracle_agreement(&recovered, &states[matched], seed, &format!("seed {seed}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Byte surgery on the log: truncate the WAL at arbitrary offsets and
/// flip single bytes in its tail. Recovery must stop at the damage and
/// land on a committed prefix — never crash, never resurrect the tail.
#[test]
fn torn_and_flipped_wal_tails_recover_to_a_committed_prefix() {
    let _guard = serialize();
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64).wrapping_add(9));
        let src = test_dir(&format!("surgery-src-{seed}"));
        let mut db = base_db(&mut rng);
        db.attach_durable(&src).unwrap();
        let (states, crashed) = run_sequence_with(&mut rng, &mut db, 20, 0.0);
        assert!(!crashed);
        drop(db);

        let wal = std::fs::read(src.join("wal.log")).unwrap();
        assert!(!wal.is_empty(), "seed {seed}: the sequence must log frames");

        let scratch = test_dir(&format!("surgery-dst-{seed}"));
        // Truncations: a sweep of cut points including both edges.
        for i in 0..=12usize {
            let cut = wal.len() * i / 12;
            restore_dir(&src, &scratch);
            std::fs::write(scratch.join("wal.log"), &wal[..cut]).unwrap();
            let (recovered, report) = recover(&scratch).unwrap();
            assert_committed_prefix(
                &recovered,
                &states,
                &report,
                &format!("seed {seed}, truncate at {cut}/{}", wal.len()),
            );
        }
        // Bit flips: damage bytes across the tail 60% of the log.
        for i in 0..8usize {
            let pos = wal.len() * 2 / 5 + (wal.len() * 3 / 5) * i / 8;
            let mut bad = wal.clone();
            bad[pos] ^= 0x40;
            restore_dir(&src, &scratch);
            std::fs::write(scratch.join("wal.log"), &bad).unwrap();
            let (recovered, report) = recover(&scratch).unwrap();
            assert_committed_prefix(
                &recovered,
                &states,
                &report,
                &format!("seed {seed}, flip at {pos}/{}", wal.len()),
            );
            assert!(
                report.wal_truncated.is_some(),
                "seed {seed}: a flipped byte at {pos} must cut the tail ({report:?})"
            );
        }

        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

/// Reset `dst` to an exact copy of the durability dir `src`.
fn restore_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Every file in `dir` as `"<name> <length> <CRC-32 in hex>"`, in name
/// order.
fn store_files(dir: &Path) -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let bytes = std::fs::read(entry.path()).unwrap();
            format!(
                "{} {} {:08x}",
                entry.file_name().to_string_lossy(),
                bytes.len(),
                certa::data::crc32::crc32(&bytes)
            )
        })
        .collect();
    files.sort();
    files
}

/// The on-disk format is pinned: a fixed script over a set store and a
/// bag store, covering every WAL frame kind (insert, delete and resolve
/// deltas, set and bag resets, immediate and deferred) and both snapshot
/// kinds, must write exactly these files. Every other durability test
/// writes and reads with the same code, so a format change that still
/// round-trips would pass them and break stores written by earlier builds.
#[test]
fn durable_files_keep_their_bytes() {
    let _guard = serialize();

    let dir = test_dir("bytes-set");
    let r = vec![tup![1, 2], tup![3, Value::null(0)]];
    let mut db = database_from_literal([
        ("R", vec!["a", "b"], r),
        ("S", vec!["c"], vec![tup![Value::null(1)]]),
    ]);
    db.attach_durable(&dir).unwrap();
    db.insert("R", tup![9, 9]).unwrap();
    db.insert_all("R", vec![tup![10, "x"], tup![11, Value::null(5)]])
        .unwrap();
    db.delete("R", &tup![1, 2]).unwrap();
    db.retain("R", |t| t[0] != Value::int(3)).unwrap();
    assert_eq!(db.resolve_null(1, Const::int(77)), 1);
    db.set_relation("S", Relation::from_tuples(vec![tup![5], tup!["y"]]))
        .unwrap();
    db.relation_mut("R").unwrap().insert(tup![42, 42]);
    db.detach_durable().unwrap();
    assert_eq!(
        store_files(&dir),
        [
            "snap-00000000000000000002.snap 156 7c9672aa",
            "wal.log 419 7530ff00"
        ],
        "set store"
    );
    assert_eq!(recover(&dir).unwrap().0, db);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = test_dir("bytes-bag");
    let mut bag = certa::data::BagDatabase::new(db.schema().clone());
    bag.attach_durable(&dir).unwrap();
    bag.insert_n("R", tup![1, Value::null(3)], 1).unwrap();
    bag.insert_n("R", tup![1, Value::null(3)], 2).unwrap();
    bag.insert_n("R", tup![2, "z"], 4).unwrap();
    assert_eq!(bag.resolve_null(3, Const::int(9)), 1);
    assert_eq!(bag.delete("R", &tup![2, "z"]).unwrap(), 4);
    bag.relation_mut("S").unwrap().insert_n(tup![8], 6);
    bag.insert_n("S", tup![Value::null(4)], 1).unwrap();
    assert_eq!(bag.retain("S", |t| t[0] == Value::int(8)).unwrap(), 1);
    bag.detach_durable().unwrap();
    assert_eq!(
        store_files(&dir),
        [
            "snap-00000000000000000000.snap 100 0d7833ee",
            "wal.log 392 b9594683"
        ],
        "bag store"
    );
    assert_eq!(recover_bag(&dir).unwrap().0, bag);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Attaching a store to a directory another store used replaces that
/// store's snapshots: recovery returns the new store, never the old one,
/// even when the old snapshots are newer by epoch. Recovering the new
/// store as the other kind names the function that recovers it.
#[test]
fn attach_replaces_another_stores_snapshots() {
    let _guard = serialize();
    for bag_b in [false, true] {
        let dir = test_dir(&format!("takeover-{bag_b}"));
        let schema = database_from_literal([("R", vec!["a"], vec![])])
            .schema()
            .clone();
        let mut a = Database::new(schema.clone());
        a.attach_durable(&dir).unwrap();
        for i in 0..11 {
            a.insert("R", tup![i]).unwrap();
        }
        a.snapshot_durable().unwrap();
        a.insert("R", tup![11]).unwrap();
        a.snapshot_durable().unwrap();
        assert_eq!(a.epoch(), 12);
        a.detach_durable().unwrap();

        if bag_b {
            let mut b = certa::data::BagDatabase::new(schema);
            b.insert_n("R", tup![100], 1).unwrap();
            assert_eq!(b.epoch(), 1);
            b.attach_durable(&dir).unwrap();
            b.insert_n("R", tup![101], 1).unwrap();
            b.sync_durable().unwrap();
            let (recovered, report) = recover_bag(&dir).unwrap();
            assert_eq!(recovered, b, "bag store B: {report:?}");
            assert_eq!(recovered.epoch(), 2);
            let err = recover(&dir).unwrap_err();
            assert!(
                err.to_string()
                    .contains("holds a bag database; use recover_bag"),
                "{err}"
            );
        } else {
            let mut b = database_from_literal([("R", vec!["a"], vec![tup![100]])]);
            assert_eq!(b.epoch(), 1);
            b.attach_durable(&dir).unwrap();
            b.insert("R", tup![101]).unwrap();
            b.sync_durable().unwrap();
            let (recovered, report) = recover(&dir).unwrap();
            assert_eq!(recovered, b, "set store B: {report:?}");
            assert_eq!(recovered.epoch(), 2);
            let err = recover_bag(&dir).unwrap_err();
            assert!(
                err.to_string()
                    .contains("holds a set database; use recover"),
                "{err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Injected-crash tests (`--features fault-injection`).
// ---------------------------------------------------------------------

/// The headline fuzz: seeded mutation sequences crossed with seeded
/// crash schedules over every durability fault site. Whatever fired —
/// a mangled in-flight frame, a mangled snapshot temp file, a lost
/// rename — recovery lands on a committed prefix, and (sampled) answers
/// certain-answer queries exactly like that prefix.
#[cfg(feature = "fault-injection")]
#[test]
fn seeded_crash_schedules_recover_to_a_committed_prefix() {
    use certa::data::{arm_crashes, disarm_crashes};
    let _guard = serialize();
    let base = seed_base();
    let mut fired = 0usize;
    for case in 0..SCHEDULES {
        let seed = base.wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(11));
        let dir = test_dir("fuzz");
        let mut db = base_db(&mut rng);
        db.attach_durable(&dir).unwrap();

        arm_crashes(seed.wrapping_mul(0x517C_C1B7).wrapping_add(5), 8);
        let steps = rng.gen_range(10usize..30);
        let (states, crashed) = run_sequence(&mut rng, &mut db, steps);
        disarm_crashes();
        if crashed {
            fired += 1;
            assert!(
                db.durability_crashed().is_some(),
                "case {case}: a WAL failure must poison the attachment"
            );
        }
        drop(db); // the modeled kill -9

        let (recovered, report) = recover(&dir).unwrap();
        let context = format!("case {case} (crashed={crashed})");
        let matched = assert_committed_prefix(&recovered, &states, &report, &context);
        if case % 8 == 0 {
            assert_oracle_agreement(&recovered, &states[matched], seed, &context);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        fired >= MIN_FIRED,
        "only {fired} of {SCHEDULES} schedules crashed — the schedule rate is too low \
         for the fuzz to mean anything"
    );
}

/// Snapshot atomicity: a crash between writing the snapshot temp file
/// and renaming it into place must leave the *previous* snapshot
/// loadable, with the full WAL still covering the tail — recovery is
/// exact either way.
#[cfg(feature = "fault-injection")]
#[test]
fn snapshot_crash_leaves_previous_snapshot_loadable() {
    use certa::data::{arm_crash_site, disarm_crashes};
    let _guard = serialize();
    for (case, site) in ["snapshot:tmp", "snapshot:rename"].iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xDEAD_0000 + case as u64);
        let dir = test_dir(&format!("snapcrash-{case}"));
        let mut db = base_db(&mut rng);
        db.attach_durable(&dir).unwrap();
        let baseline_epoch = db.epoch();
        let (_, crashed) = run_sequence_with(&mut rng, &mut db, 12, 0.0);
        assert!(!crashed);

        arm_crash_site(site, 1);
        let err = db.snapshot_durable().unwrap_err();
        disarm_crashes();
        assert!(
            err.to_string().contains(site),
            "the injected {site} crash must surface: {err}"
        );
        assert!(db.durability_crashed().is_some());

        // The store in memory was never touched by the failed snapshot;
        // the baseline snapshot plus the intact WAL reproduce it exactly.
        let (recovered, report) = recover(&dir).unwrap();
        assert_eq!(recovered, db, "{site}: recovery must reproduce the writer");
        assert_eq!(
            report.snapshot_epoch, baseline_epoch,
            "{site}: recovery must fall back to the baseline snapshot ({report:?})"
        );
        assert_eq!(
            report.snapshots_skipped, 0,
            "{site}: a crashed snapshot must not leave a candidate file behind ({report:?})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cache hygiene across a crash: answers cached before the crash are
/// never served after recovery — the recovered instance is fresh, the
/// warm pipeline recomputes, and a cold pipeline starts at zero hits.
#[cfg(feature = "fault-injection")]
#[test]
fn recovery_serves_zero_pre_crash_cache_hits() {
    use certa::data::{arm_crash_site, disarm_crashes};
    let _guard = serialize();
    let dir = test_dir("cachehygiene");
    let mut db =
        database_from_literal([("R", vec!["a"], vec![tup![1], tup![2], tup![Value::null(0)]])]);
    let mut pipeline = Pipeline::open(&mut db, &dir).unwrap();
    let sql = "SELECT a FROM R WHERE a <> 2";

    let warm = pipeline.execute(sql, &db, Scheme::Exact).unwrap();
    pipeline.execute(sql, &db, Scheme::Exact).unwrap();
    let served_before = pipeline.maintenance_totals().served;
    assert!(
        served_before > 0,
        "the second execution must serve the cache"
    );

    // Crash the very next WAL append, mid-mutation.
    arm_crash_site("wal:frame", 1);
    assert!(db.insert("R", tup![3]).is_err());
    disarm_crashes();
    drop(db);

    let (recovered, pipeline2, report) = Pipeline::recover(&dir).unwrap();
    assert_eq!(
        report.frames_replayed, 0,
        "nothing survived the crash: {report:?}"
    );
    assert_eq!(pipeline2.maintenance_totals().served, 0);

    // The warm pipeline sees a fresh instance: recompute, not serve —
    // even though the recovered contents and epoch look identical.
    let recomputed_before = pipeline.maintenance_totals().recomputed;
    let after = pipeline.execute(sql, &recovered, Scheme::Exact).unwrap();
    let totals = pipeline.maintenance_totals();
    assert_eq!(
        totals.served, served_before,
        "a pre-crash cached answer was served against the recovered instance"
    );
    assert!(
        totals.recomputed > recomputed_before,
        "the post-recovery answer must be recomputed from scratch"
    );
    assert_eq!(warm.certain(), after.certain(), "answers agree nonetheless");

    let _ = std::fs::remove_dir_all(&dir);
}
