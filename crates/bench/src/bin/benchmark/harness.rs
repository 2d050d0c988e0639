//! Measurement plumbing shared by the four workloads: the per-op latency
//! recorder, pass summaries, and the metric tables `BENCHMARK.json`
//! mirrors.

use crate::check::{Expected, Summary};
use certa::LabeledAnswers;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// How big the workloads are. `Smoke` shrinks every dimension so the unit
/// tests finish in a debug build; `Full` is what `BENCHMARK.json` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full` at `Full`, `smoke` at `Smoke`.
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// The kind of call a timed op makes; latencies are kept per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `Pipeline::execute`.
    Query,
    /// `Database::{insert, insert_all, delete, resolve_null}`.
    Mutate,
    /// `Database::sync_durable`.
    Commit,
    /// `Database::snapshot_durable`.
    Snapshot,
    /// `Pipeline::recover`.
    Recover,
    /// A group of mutations ending in a commit, timed as the sum of its
    /// parts.
    Transaction,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Query,
        Class::Mutate,
        Class::Commit,
        Class::Snapshot,
        Class::Recover,
        Class::Transaction,
    ];
}

/// Latencies, response summaries and check outcomes of the ops run since
/// the recorder was made. One recorder covers one pass.
#[derive(Debug, Default)]
pub struct Recorder {
    samples: BTreeMap<Class, Vec<f64>>,
    /// Classes timed as parts of a larger op (a transaction's mutations
    /// and commit): they get their own per-class metrics but are not ops.
    parts: BTreeSet<Class>,
    last_ms: f64,
    /// Distinct responses per answer key, with how many ops gave each.
    answers: HashMap<u64, Vec<(Summary, usize)>>,
    failures: Vec<String>,
    failed: usize,
    queries: usize,
    exact: usize,
}

/// Failure messages kept for the report; the count is exact regardless.
const KEPT_FAILURES: usize = 5;

impl Recorder {
    /// Time one op of `class` with wall-clock `Instant`s, keeping its
    /// result alive past the clock read.
    pub fn time<T>(&mut self, class: Class, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        self.record(class, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Time a call that is part of a larger op; see [`Class::Transaction`].
    pub fn time_part<T>(&mut self, class: Class, f: impl FnOnce() -> T) -> T {
        self.parts.insert(class);
        self.time(class, f)
    }

    /// Record an op of `class` that took `ms`.
    pub fn record(&mut self, class: Class, ms: f64) {
        self.samples.entry(class).or_default().push(ms);
        self.last_ms = ms;
    }

    /// The latencies of whole ops.
    fn op_samples(&self) -> impl Iterator<Item = &f64> {
        self.samples
            .iter()
            .filter(|(c, _)| !self.parts.contains(c))
            .flat_map(|(_, v)| v)
    }

    /// Milliseconds the most recent timed op took.
    pub fn last(&self) -> f64 {
        self.last_ms
    }

    /// Milliseconds spent inside timed ops.
    pub fn busy_ms(&self) -> f64 {
        self.op_samples().sum()
    }

    /// Keep a query's response for the check against the answer expected
    /// under `key`, and count whether it carried `Verdict::Exact`.
    pub fn answer(&mut self, key: u64, got: &LabeledAnswers) {
        self.queries += 1;
        self.exact += usize::from(got.verdict.is_exact());
        self.keep(key, Summary::of(got), 1);
    }

    /// Keep a state fingerprint for the check against `key`.
    pub fn state(&mut self, key: u64, fingerprint: u64) {
        self.keep(key, Summary::Exact(fingerprint), 1);
    }

    fn keep(&mut self, key: u64, summary: Summary, ops: usize) {
        let seen = self.answers.entry(key).or_default();
        match seen.iter_mut().find(|(s, _)| *s == summary) {
            Some((_, n)) => *n += ops,
            None => seen.push((summary, ops)),
        }
    }

    /// Check every kept response against the expected answers; each op
    /// whose response fails counts as failed.
    pub fn check(&mut self, expected: &HashMap<u64, Expected>, describe: impl Fn(u64) -> String) {
        let mut answers: Vec<(u64, Vec<(Summary, usize)>)> =
            std::mem::take(&mut self.answers).into_iter().collect();
        answers.sort_by_key(|(key, _)| *key);
        for (key, seen) in answers {
            for (summary, count) in seen {
                let outcome = expected
                    .get(&key)
                    .ok_or_else(|| "no expected answer".to_string())
                    .and_then(|want| want.check(&summary));
                if let Err(e) = outcome {
                    self.fail_n(format!("{}: {e}", describe(key)), count);
                }
            }
        }
    }

    /// Record an op that errored or failed a check made on the spot.
    pub fn fail(&mut self, what: String) {
        self.fail_n(what, 1);
    }

    fn fail_n(&mut self, what: String, ops: usize) {
        self.failed += ops;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    pub fn ops(&self) -> usize {
        self.op_samples().count()
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Move `pass`'s kept responses and failures into this run-level
    /// store, so a pass keeps only its latencies.
    pub fn absorb(&mut self, pass: &mut Recorder) {
        for (key, seen) in std::mem::take(&mut pass.answers) {
            for (summary, n) in seen {
                self.keep(key, summary, n);
            }
        }
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures
            .extend(std::mem::take(&mut pass.failures).into_iter().take(room));
        self.failed += std::mem::take(&mut pass.failed);
        self.queries += std::mem::take(&mut pass.queries);
        self.exact += std::mem::take(&mut pass.exact);
    }

    /// `error_ratio` and `exact_ratio` of a run-level store over `ops`
    /// timed ops.
    pub fn ratios(&self, ops: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        if ops > 0 {
            out.insert("error_ratio", self.failed as f64 / ops as f64);
        }
        if self.queries > 0 {
            out.insert("exact_ratio", self.exact as f64 / self.queries as f64);
        }
        out
    }

    /// This pass's latency metrics.
    pub fn summary(&self) -> BTreeMap<&'static str, f64> {
        latency_metrics(&self.samples, &self.parts)
    }

    /// The run's latency metrics over passes that ran the same frozen
    /// sequence: each op's latency is the median of its repetitions, and
    /// the percentiles and throughput are taken over those medians. A
    /// burst of contention from another tenant of the host lands on some
    /// repetitions of an op, not on most of them.
    pub fn combined(passes: &[Recorder]) -> BTreeMap<&'static str, f64> {
        let mut per_op: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
        for class in Class::ALL {
            let runs: Vec<&Vec<f64>> = passes
                .iter()
                .filter_map(|r| r.samples.get(&class))
                .collect();
            let Some(first) = runs.first() else { continue };
            let medians = (0..first.len())
                .map(|k| {
                    let reps: Vec<f64> = runs.iter().filter_map(|r| r.get(k).copied()).collect();
                    median(&reps)
                })
                .collect();
            per_op.insert(class, medians);
        }
        let parts = passes.first().map(|p| p.parts.clone()).unwrap_or_default();
        latency_metrics(&per_op, &parts)
    }
}

/// Latency metrics over per-class samples. Throughput counts ops per
/// second of time spent inside timed calls, so the harness's own work
/// between ops (cloning inputs, keeping responses) is the closed loop's
/// think time and not charged to the system.
fn latency_metrics(
    samples: &BTreeMap<Class, Vec<f64>>,
    parts: &BTreeSet<Class>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let all: Vec<f64> = samples
        .iter()
        .filter(|(c, _)| !parts.contains(c))
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    let busy_s: f64 = all.iter().sum::<f64>() / 1e3;
    if busy_s > 0.0 {
        out.insert("throughput_ops", all.len() as f64 / busy_s);
    }
    if !all.is_empty() {
        out.insert("op_p50_ms", percentile(&all, 0.50));
        out.insert("op_p90_ms", percentile(&all, 0.90));
        out.insert("op_p99_ms", percentile(&all, 0.99));
    }
    for (class, class_samples) in samples {
        let (p50, p99) = CLASS_METRICS[*class as usize];
        out.insert(p50, percentile(class_samples, 0.50));
        if let Some(p99) = p99 {
            out.insert(p99, percentile(class_samples, 0.99));
        }
    }
    out
}

/// Per-class latency metric names: `(p50, p99)`. Snapshots and recoveries
/// are a handful per pass, too few for a 99th percentile.
const CLASS_METRICS: [(&str, Option<&str>); 6] = [
    ("query_p50_ms", Some("query_p99_ms")),
    ("mutate_p50_ms", Some("mutate_p99_ms")),
    ("commit_p50_ms", Some("commit_p99_ms")),
    ("snapshot_p50_ms", None),
    ("recover_p50_ms", None),
    ("transaction_p50_ms", Some("transaction_p99_ms")),
];

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples (the lower middle for an even count, so the
/// value is always one that was measured).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Whether a smaller or a larger value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may move the wrong way before `--compare` calls it
/// worse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base value.
    Relative(f64),
    /// An absolute difference (ratios that must not move at all use 0).
    Absolute(f64),
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some` for the metrics `--compare` judges.
    pub bound: Option<Bound>,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<Bound>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};
use Bound::{Absolute, Relative};

/// The end-to-end metrics every workload reports on its last output line
/// (`BENCHMARK.json`'s `end_to_end`, in the same order and with the same
/// bounds).
pub const END_TO_END: [MetricDef; 5] = [
    metric("setup_s", "s", Lower, Some(Relative(0.25))),
    metric("throughput_ops", "1/s", Higher, Some(Relative(0.25))),
    metric("op_p50_ms", "ms", Lower, Some(Relative(0.25))),
    metric("op_p90_ms", "ms", Lower, Some(Relative(0.25))),
    metric("peak_rss_mb", "MB", Lower, Some(Relative(0.15))),
];

/// End-to-end metrics the record carries and `--compare` judges but
/// `BENCHMARK.json` does not list: the 99th percentile, which on a noisy
/// host is an extreme order statistic of a few request types and spreads
/// too widely across seeds to gate on, and the per-class metrics, which
/// exist only on the workloads whose ops include the class.
pub const RECORDED_END_TO_END: [MetricDef; 15] = [
    metric("op_p99_ms", "ms", Lower, Some(Relative(0.25))),
    metric("query_p50_ms", "ms", Lower, Some(Relative(0.25))),
    metric("query_p99_ms", "ms", Lower, Some(Relative(0.25))),
    metric("mutate_p50_ms", "ms", Lower, Some(Relative(0.25))),
    metric("mutate_p99_ms", "ms", Lower, Some(Relative(0.25))),
    metric("commit_p50_ms", "ms", Lower, Some(Relative(0.25))),
    metric("commit_p99_ms", "ms", Lower, Some(Relative(0.25))),
    metric("snapshot_p50_ms", "ms", Lower, Some(Relative(0.25))),
    metric("recover_p50_ms", "ms", Lower, Some(Relative(0.25))),
    metric("transaction_p50_ms", "ms", Lower, Some(Relative(0.25))),
    metric("transaction_p99_ms", "ms", Lower, Some(Relative(0.25))),
    metric("exact_ratio", "ratio", Higher, Some(Absolute(0.0))),
    metric("error_ratio", "ratio", Lower, Some(Absolute(0.0))),
    metric("disk_bytes_per_mutation", "B", Lower, Some(Relative(0.0))),
    metric("verify_s", "s", Lower, None),
];

/// Every metric `--compare` knows, end-to-end first.
pub fn all_end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(RECORDED_END_TO_END.iter())
}

/// Per-layer metrics from the traced pass (`BENCHMARK.json`'s
/// `per_layer`). A metric whose layer a workload never reaches reads 0
/// there. `_us` metrics are medians per call; counts are registry deltas
/// per timed op.
pub const PER_LAYER: [MetricDef; 45] = [
    metric("sql.parse_us", "us", Lower, None),
    metric("sql.lower_us", "us", Lower, None),
    metric("opt.optimize_us", "us", Lower, None),
    metric("opt.prepare_us", "us", Lower, None),
    metric("opt.instance_reopt_us", "us", Lower, None),
    metric("pipeline.plan_hit_ratio", "ratio", Higher, None),
    metric("pipeline.served_share", "ratio", Higher, None),
    metric("pipeline.refined_share", "ratio", Higher, None),
    metric("pipeline.recomputed_share", "ratio", Lower, None),
    metric("pipeline.dispatch_mask_share", "ratio", Higher, None),
    metric("pipeline.dispatch_lineage_share", "ratio", Lower, None),
    metric("pipeline.residual_us", "us", Lower, None),
    metric("pipeline.residual_share.exact", "ratio", Lower, None),
    metric("pipeline.residual_share.approx37", "ratio", Lower, None),
    metric("pipeline.residual_share.ctable", "ratio", Lower, None),
    metric("worlds.pool_us", "us", Lower, None),
    metric("physical.naive_eval_us", "us", Lower, None),
    metric("physical.rows_per_op", "count", Lower, None),
    metric("mask.compile_us", "us", Lower, None),
    metric("mask.classify_us", "us", Lower, None),
    metric("mask.rows_per_op", "count", Lower, None),
    metric("mask.arena_words_per_op", "count", Lower, None),
    metric("mask.restrict_us", "us", Lower, None),
    metric("mask.delta_merge_us", "us", Lower, None),
    metric("morsel.workers_effective", "count", Higher, None),
    metric("morsel.runs_per_op", "count", Lower, None),
    metric("lineage.classify_us", "us", Lower, None),
    metric("lineage.nodes_per_op", "count", Lower, None),
    metric("lineage.apply_hit_ratio", "ratio", Higher, None),
    metric("worlds.evaluated_per_op", "count", Lower, None),
    metric("approx37.eval_us", "us", Lower, None),
    metric("ctables.eval_us", "us", Lower, None),
    metric("governor.budget_cost_us", "us", Lower, None),
    metric("governor.overshoot_x.a12", "x", Lower, None),
    metric("governor.overshoot_x.selfjoin", "x", Lower, None),
    metric("data.mutate_us", "us", Lower, None),
    metric("wal.append_us", "us", Lower, None),
    metric("wal.sync_us", "us", Lower, None),
    metric("wal.bytes_per_mutation", "B", Lower, None),
    metric("wal.frames_per_mutation", "count", Lower, None),
    metric("snapshot.write_us", "us", Lower, None),
    metric("snapshot.bytes", "B", Lower, None),
    metric("recovery.replay_frames_per_ms", "1/ms", Higher, None),
    metric("recovery.frames_replayed", "count", Lower, None),
    metric("obs.trace_overhead_pct", "%", Lower, None),
];

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A seed for one generated input, derived from the run's seed and the
/// input's place (SplitMix64 finalizer), so inputs do not share streams.
pub fn sub_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl rand::Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `n` draws spread over `weights` in proportion (largest remainder), so a
/// pass holds an exact multiset instead of a sample of one.
pub fn apportion(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}
