//! The traced pass: per-layer times from replaying each op's phases
//! through the layers' public functions, each inside a `bench:` span this
//! benchmark opens itself, plus registry deltas around every op.

use crate::harness::{median, PER_LAYER};
use certa::obs::{self, Snapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One replayed call: the span it runs in and the per-layer metric its
/// per-call time feeds.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    span: &'static str,
    metric: &'static str,
}

const fn phase(span: &'static str, metric: &'static str) -> Phase {
    Phase { span, metric }
}

pub const SQL_PARSE: Phase = phase("bench:sql:parse", "sql.parse_us");
pub const SQL_LOWER: Phase = phase("bench:sql:lower", "sql.lower_us");
pub const OPT_OPTIMIZE: Phase = phase("bench:opt:optimize", "opt.optimize_us");
pub const OPT_PREPARE: Phase = phase("bench:opt:prepare", "opt.prepare_us");
pub const OPT_REOPT: Phase = phase("bench:opt:instance_reopt", "opt.instance_reopt_us");
pub const WORLDS_POOL: Phase = phase("bench:worlds:exact_pool", "worlds.pool_us");
pub const NAIVE_EVAL: Phase = phase("bench:physical:naive_eval", "physical.naive_eval_us");
pub const MASK_COMPILE: Phase = phase("bench:mask:from_prepared", "mask.compile_us");
pub const MASK_CLASSIFY: Phase = phase("bench:mask:classify", "mask.classify_us");
pub const MASK_RESTRICT: Phase = phase("bench:mask:restrict", "mask.restrict_us");
pub const MASK_DELTA: Phase = phase("bench:mask:apply_insert_delta", "mask.delta_merge_us");
pub const LINEAGE_CLASSIFY: Phase = phase("bench:lineage:classify", "lineage.classify_us");
pub const APPROX37_EVAL: Phase = phase("bench:approx37:eval", "approx37.eval_us");
pub const CTABLES_EVAL: Phase = phase("bench:ctables:eval_conditional", "ctables.eval_us");
pub const DATA_MUTATE: Phase = phase("bench:data:mutate", "data.mutate_us");

/// Everything the traced pass measures.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Per-call microseconds by per-layer metric name.
    per_call: BTreeMap<&'static str, Vec<f64>>,
    /// Registry counter deltas summed over the timed ops.
    counters: BTreeMap<&'static str, u64>,
    ops: usize,
    mutations: usize,
    /// Phase time replayed for the current op so far.
    replayed_us: f64,
    last_phase_us: f64,
    /// `(op µs, replayed µs)` totals per query class.
    residual_totals: BTreeMap<&'static str, (f64, f64)>,
    residual_us: Vec<f64>,
    /// Values set directly (probes, ratios the workload computes).
    values: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// Replay one phase: run `f` inside its span and record its time.
    pub fn phase<T>(&mut self, p: Phase, f: impl FnOnce() -> T) -> T {
        let _span = obs::span(p.span);
        let start = Instant::now();
        let out = black_box(f());
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.record(p.metric, us);
        self.replayed_us += us;
        self.last_phase_us = us;
        out
    }

    /// Microseconds the most recent phase took.
    pub fn last_phase_us(&self) -> f64 {
        self.last_phase_us
    }

    /// Record one per-call time that is not a replayed phase of the
    /// current op (a mutator's WAL share, a commit, a budget replay).
    pub fn record(&mut self, metric: &'static str, us: f64) {
        self.per_call.entry(metric).or_default().push(us);
    }

    /// Set a per-layer metric directly.
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, value);
    }

    /// Account one timed op's registry delta.
    pub fn op(&mut self, delta: &Snapshot) {
        self.ops += 1;
        for (name, v) in delta.nonzero_counters() {
            *self.counters.entry(name).or_default() += v;
        }
    }

    /// Count one timed mutation (the denominator of the WAL ratios).
    pub fn mutation(&mut self) {
        self.mutations += 1;
    }

    /// Close a query op of `class` that took `op_ms`: whatever the
    /// replayed phases do not account for is the pipeline's residual.
    pub fn close_query(&mut self, class: &'static str, op_ms: f64) {
        let op_us = op_ms * 1e3;
        let replayed = std::mem::take(&mut self.replayed_us);
        let totals = self.residual_totals.entry(class).or_default();
        totals.0 += op_us;
        totals.1 += replayed;
        self.residual_us.push(op_us - replayed);
    }

    /// Close a non-query op: its replayed phases are not a residual split.
    pub fn close_other(&mut self) {
        self.replayed_us = 0.0;
    }

    /// A registry counter summed over the timed ops.
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The registry counters summed over the timed ops, for the
    /// determinism checks.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Every per-layer metric, 0 where this workload never reached the
    /// layer.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let ops = self.ops.max(1) as f64;
        let per_op = |name: &str| self.counter(name) as f64 / ops;
        let share = |part: &str, parts: &[&str]| {
            let total: u64 = parts.iter().map(|p| self.counter(p)).sum();
            if total == 0 {
                0.0
            } else {
                self.counter(part) as f64 / total as f64
            }
        };
        let per_mutation = |name: &str| {
            if self.mutations == 0 {
                0.0
            } else {
                self.counter(name) as f64 / self.mutations as f64
            }
        };
        let answers = [
            "cache.answers_served",
            "cache.answers_refined",
            "cache.answers_recomputed",
        ];
        let dispatch = ["dispatch.mask", "dispatch.lineage", "dispatch.enum"];
        let lookups = ["cache.plan_hits", "cache.plan_misses"];
        let applies = ["lineage.apply_hits", "lineage.apply_misses"];

        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, samples) in &self.per_call {
            out.insert(name, median(samples));
        }
        out.insert(
            "pipeline.plan_hit_ratio",
            share("cache.plan_hits", &lookups),
        );
        out.insert("pipeline.served_share", share(answers[0], &answers));
        out.insert("pipeline.refined_share", share(answers[1], &answers));
        out.insert("pipeline.recomputed_share", share(answers[2], &answers));
        out.insert(
            "pipeline.dispatch_mask_share",
            share(dispatch[0], &dispatch),
        );
        out.insert(
            "pipeline.dispatch_lineage_share",
            share(dispatch[1], &dispatch),
        );
        if !self.residual_us.is_empty() {
            out.insert("pipeline.residual_us", median(&self.residual_us));
        }
        for (class, (op_us, replayed)) in &self.residual_totals {
            let name = match *class {
                "exact" => "pipeline.residual_share.exact",
                "approx37" => "pipeline.residual_share.approx37",
                _ => "pipeline.residual_share.ctable",
            };
            if *op_us > 0.0 {
                out.insert(name, (op_us - replayed) / op_us);
            }
        }
        out.insert("physical.rows_per_op", per_op("phys.rows"));
        out.insert("mask.rows_per_op", per_op("mask.rows"));
        out.insert("mask.arena_words_per_op", per_op("mask.arena_words"));
        out.insert("morsel.runs_per_op", per_op("morsel.runs"));
        if self.counter("morsel.runs") > 0 {
            out.insert(
                "morsel.workers_effective",
                self.counter("morsel.workers") as f64 / self.counter("morsel.runs") as f64,
            );
        }
        out.insert("lineage.nodes_per_op", per_op("lineage.nodes"));
        out.insert(
            "lineage.apply_hit_ratio",
            share("lineage.apply_hits", &applies),
        );
        out.insert("worlds.evaluated_per_op", per_op("worlds.evaluated"));
        out.insert("wal.bytes_per_mutation", per_mutation("wal.append_bytes"));
        out.insert("wal.frames_per_mutation", per_mutation("wal.appends"));
        if self.counter("snapshot.writes") > 0 {
            out.insert(
                "snapshot.bytes",
                self.counter("snapshot.bytes") as f64 / self.counter("snapshot.writes") as f64,
            );
        }
        for (name, v) in &self.values {
            out.insert(name, *v);
        }
        for def in &PER_LAYER {
            out.entry(def.name).or_insert(0.0);
        }
        out.retain(|name, _| PER_LAYER.iter().any(|d| d.name == *name));
        out
    }
}

/// Time `f` in microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}
