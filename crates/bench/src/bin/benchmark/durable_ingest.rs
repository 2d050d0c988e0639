//! `durable_ingest`: mutations, commits, snapshots and recovery of a
//! durable store, with no reads. The WAL, snapshots and recovery do all
//! the work and no backend runs; the mutators are the ones `warm_maintain`
//! drives log-free.
//!
//! The client commits after every eight mutations and waits for the
//! commit, so its op is a transaction: eight mutator calls and one
//! `sync_durable`, timed as the sum of the nine calls. Snapshots and the
//! recovery at the end of an episode are ops of their own.
//!
//! Flush policy: WAL frames are written without fsync; a commit
//! (`sync_durable`) and a snapshot fsync.

use crate::check::{fingerprint_of, state_fingerprint, Expected};
use crate::harness::{sub_seed, Class, Recorder, Scale};
use crate::trace::{self, Tracer};
use crate::updates::{fresh_tuple, present_null, present_tuple, Update};
use crate::Workload;
use certa::data::{Const, Database, Tuple, Value};
use certa::obs;
use certa::workload::{TpchConfig, TpchGenerator};
use certa::Pipeline;
use rand::prelude::*;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const EPISODES: usize = 4;
const MUTATIONS: usize = 2048;
/// Mutations per commit.
const COMMIT_EVERY: usize = 8;
/// Mutations per snapshot; none at the episode's end, so recovery replays
/// the last stretch of the log.
const SNAPSHOT_EVERY: usize = 1024;
/// Rows of one `insert_all`.
const BATCH: usize = 8;

/// Where the durable stores live: under the working directory, removed
/// when the workload is dropped.
const TMP_ROOT: &str = ".bench_tmp";

#[derive(Debug, Clone, Copy, Hash)]
enum Op {
    /// Open a fresh durable store on a clone of the base (not timed).
    Begin,
    Mutate(usize, usize),
    Commit,
    Snapshot,
    /// Recover the store and compare it with the writer.
    Recover(usize),
}

pub struct DurableIngest {
    base: Database,
    episodes: Vec<Vec<Update>>,
    ops: Vec<Op>,
    dir: PathBuf,
    writer: Option<Database>,
    /// Time spent so far in the mutations of the open transaction.
    transaction_ms: f64,
    /// Trace-only: the same mutations applied to a log-free copy.
    twin: Option<Database>,
    disk_bytes_per_mutation: f64,
}

/// An episode's mutations against a simulated copy of `base`: 75%
/// inserts, 10% `insert_all` of eight rows, 10% deletes, 5% null
/// resolutions while nulls remain.
fn episode(base: &Database, mutations: usize, rng: &mut StdRng) -> Vec<Update> {
    let mut db = base.clone();
    let values: Vec<Value> = (0..2000).map(Value::int).collect();
    let targets = ["Orders", "Lineitem", "Customer"];
    let mut out = Vec::new();
    while out.len() < mutations {
        let rel = targets[rng.gen_range(0..targets.len())];
        let roll = rng.gen_range(0..100);
        let update = if roll < 75 {
            fresh_tuple(&db, rel, &values, rng).map(|t| Update::Insert(rel.into(), t))
        } else if roll < 85 {
            let rows: Vec<Tuple> = (0..BATCH)
                .filter_map(|_| fresh_tuple(&db, "Lineitem", &values, rng))
                .collect();
            Some(Update::InsertAll("Lineitem".into(), rows))
        } else if roll < 95 {
            present_tuple(&db, rel, rng, |_| true).map(|t| Update::Delete(rel.into(), t))
        } else {
            present_null(&db, rng).map(|n| Update::Resolve(n, Const::Int(rng.gen_range(0..50))))
        };
        if let Some(update) = update {
            update.apply(&mut db).expect("generated mutations apply");
            out.push(update);
        }
    }
    out
}

fn key(episode: usize) -> u64 {
    episode as u64
}

/// Bytes of every file in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Drop for DurableIngest {
    fn drop(&mut self) {
        self.writer = None;
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

impl Workload for DurableIngest {
    fn setup(seed: u64, scale: Scale) -> DurableIngest {
        static STORES: AtomicUsize = AtomicUsize::new(0);
        let base =
            TpchGenerator::new(TpchConfig::scaled_to(500, 0.02, sub_seed(seed, 30, 0))).generate();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 31, 0));
        let mutations = scale.pick(MUTATIONS, 64);
        let episodes: Vec<Vec<Update>> = (0..scale.pick(EPISODES, 1))
            .map(|_| episode(&base, mutations, &mut rng))
            .collect();
        let (commit, snapshot) = match scale {
            Scale::Full => (COMMIT_EVERY, SNAPSHOT_EVERY),
            Scale::Smoke => (COMMIT_EVERY, 32),
        };
        let mut ops = Vec::new();
        for (e, updates) in episodes.iter().enumerate() {
            ops.push(Op::Begin);
            for i in 0..updates.len() {
                ops.push(Op::Mutate(e, i));
                let done = i + 1;
                if done % commit == 0 {
                    ops.push(Op::Commit);
                }
                if done % snapshot == 0 && done < updates.len() {
                    ops.push(Op::Snapshot);
                }
            }
            ops.push(Op::Recover(e));
        }
        let dir = Path::new(TMP_ROOT).join(format!(
            "durable-{}-{}",
            std::process::id(),
            STORES.fetch_add(1, Ordering::Relaxed)
        ));
        DurableIngest {
            base,
            episodes,
            ops,
            dir,
            writer: None,
            transaction_ms: 0.0,
            twin: None,
            disk_bytes_per_mutation: 0.0,
        }
    }

    /// Each episode's final state, from its mutations applied log-free.
    fn verify(&self) -> Result<HashMap<u64, Expected>, String> {
        let mut expected = HashMap::new();
        for (e, updates) in self.episodes.iter().enumerate() {
            let mut db = self.base.clone();
            for update in updates {
                update.apply(&mut db)?;
            }
            expected.insert(key(e), Expected::state(state_fingerprint(&db)));
        }
        Ok(expected)
    }

    fn describe(&self, key: u64) -> String {
        format!("the recovered state of episode {key}")
    }

    fn inputs(&self) -> u64 {
        fingerprint_of(&(state_fingerprint(&self.base), &self.episodes, &self.ops))
    }

    fn pass_len(&self) -> usize {
        self.ops.len()
    }

    /// The last episode, which starts at an episode boundary.
    fn slice(&self) -> Range<usize> {
        let start = self
            .ops
            .iter()
            .rposition(|op| matches!(op, Op::Begin))
            .unwrap_or(0);
        start..self.ops.len()
    }

    fn run(&mut self, range: Range<usize>, rec: &mut Recorder, mut tracer: Option<&mut Tracer>) {
        for k in range {
            let before = tracer.is_some().then(|| obs::metrics().snapshot());
            match self.ops[k] {
                Op::Begin => {
                    self.writer = None;
                    let _ = std::fs::remove_dir_all(&self.dir);
                    let mut db = self.base.clone();
                    match Pipeline::open(&mut db, &self.dir) {
                        Ok(_) => self.writer = Some(db),
                        Err(e) => rec.fail(format!("opening {}: {e}", self.dir.display())),
                    }
                    if tracer.is_some() {
                        self.twin = Some(self.base.clone());
                    }
                    continue;
                }
                Op::Mutate(e, i) => {
                    let Some(db) = self.writer.as_mut() else {
                        continue;
                    };
                    let update = &self.episodes[e][i];
                    let out = {
                        let _span = obs::span("bench:op:mutate");
                        rec.time_part(Class::Mutate, || update.apply(db))
                    };
                    self.transaction_ms += rec.last();
                    if let Err(err) = out {
                        rec.fail(format!("mutation {i} of episode {e}: {err}"));
                    }
                    if let (Some(t), Some(twin)) = (tracer.as_deref_mut(), self.twin.as_mut()) {
                        t.mutation();
                        t.phase(trace::DATA_MUTATE, || update.apply(twin))
                            .expect("the log-free copy takes the same mutation");
                        t.record("wal.append_us", rec.last() * 1e3 - t.last_phase_us());
                    }
                }
                Op::Commit => {
                    let Some(db) = self.writer.as_mut() else {
                        continue;
                    };
                    let out = {
                        let _span = obs::span("bench:op:commit");
                        rec.time_part(Class::Commit, || db.sync_durable())
                    };
                    let commit_ms = rec.last();
                    rec.record(
                        Class::Transaction,
                        std::mem::take(&mut self.transaction_ms) + commit_ms,
                    );
                    if let Err(err) = out {
                        rec.fail(format!("commit: {err}"));
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record("wal.sync_us", commit_ms * 1e3);
                    }
                }
                Op::Snapshot => {
                    let Some(db) = self.writer.as_mut() else {
                        continue;
                    };
                    let out = {
                        let _span = obs::span("bench:op:snapshot");
                        rec.time(Class::Snapshot, || db.snapshot_durable())
                    };
                    if let Err(err) = out {
                        rec.fail(format!("snapshot: {err}"));
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record("snapshot.write_us", rec.last() * 1e3);
                    }
                }
                Op::Recover(e) => {
                    let Some(writer) = self.writer.as_ref() else {
                        continue;
                    };
                    let mutations = self.episodes[e].len() as f64;
                    self.disk_bytes_per_mutation = dir_bytes(&self.dir) as f64 / mutations;
                    let out = {
                        let _span = obs::span("bench:op:recover");
                        rec.time(Class::Recover, || Pipeline::recover(&self.dir))
                    };
                    match out {
                        Ok((recovered, _, report)) => {
                            if recovered != *writer {
                                rec.fail(format!("episode {e}: recovered store differs"));
                            }
                            rec.state(key(e), state_fingerprint(&recovered));
                            if let Some(t) = tracer.as_deref_mut() {
                                let frames = report.frames_replayed as f64;
                                t.record("recovery.frames_replayed", frames);
                                t.record("recovery.replay_frames_per_ms", frames / rec.last());
                            }
                        }
                        Err(err) => rec.fail(format!("recovering episode {e}: {err}")),
                    }
                }
            }
            if let (Some(t), Some(before)) = (tracer.as_deref_mut(), before) {
                t.op(&obs::metrics().snapshot().delta(&before));
                t.close_other();
            }
        }
    }

    fn extra_metrics(&self) -> std::collections::BTreeMap<&'static str, f64> {
        [("disk_bytes_per_mutation", self.disk_bytes_per_mutation)]
            .into_iter()
            .collect()
    }
}
