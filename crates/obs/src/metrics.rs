//! Lock-free global metrics registry plus a `Cell`-based per-run view.
//!
//! The registry is a fixed, statically allocated table of atomic counters
//! and fixed-bucket histograms — no maps, no locks, no allocation on the
//! recording path. Identifiers are a closed enum so an increment compiles
//! to one indexed `fetch_add`. Snapshots subtract to per-request deltas.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! metric_ids {
    ($($variant:ident => $name:literal,)+) => {
        /// Every named counter in the workspace. Closed on purpose: a
        /// metric is an index into a static array, not a string lookup.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u16)]
        pub enum MetricId { $($variant,)+ }

        /// Number of counters in the registry.
        pub const METRIC_COUNT: usize = 0 $(+ { let _ = $name; 1 })+;

        /// Dotted display names, indexed by `MetricId as usize`.
        pub const METRIC_NAMES: [&str; METRIC_COUNT] = [$($name,)+];
    };
}

metric_ids! {
    // Physical engine (per-PhysOp set/bag execution).
    PhysOps => "phys.ops",
    PhysRows => "phys.rows",
    // Columnar mask executor + kernels.
    MaskOps => "mask.ops",
    MaskRows => "mask.rows",
    MaskDistinctMasks => "mask.distinct_masks",
    MaskMorsels => "mask.morsels",
    MaskArenaWords => "mask.arena_words",
    // Morsel pool scheduling.
    MorselRuns => "morsel.runs",
    MorselWorkers => "morsel.workers",
    MorselClaimed => "morsel.claimed",
    MorselIdlePolls => "morsel.idle_polls",
    // WorldEngine chunked enumeration.
    WorldChunks => "worlds.chunks",
    WorldsEvaluated => "worlds.evaluated",
    WorldEarlyExits => "worlds.early_exits",
    // Lineage forest caches + node growth.
    LineageApplyHits => "lineage.apply_hits",
    LineageApplyMisses => "lineage.apply_misses",
    LineageCofactorHits => "lineage.cofactor_hits",
    LineageCofactorMisses => "lineage.cofactor_misses",
    LineageNodes => "lineage.nodes",
    // Optimizer rewrite passes.
    OptRuns => "opt.runs",
    OptPushdownNanos => "opt.pushdown_nanos",
    OptReorderNanos => "opt.reorder_nanos",
    OptPruneNanos => "opt.prune_nanos",
    // Pipeline plan cache + answer maintenance (lifetime, eviction-proof).
    CacheHits => "cache.plan_hits",
    CacheMisses => "cache.plan_misses",
    CacheEvictions => "cache.plan_evictions",
    AnswersServed => "cache.answers_served",
    AnswersRefined => "cache.answers_refined",
    AnswersDeltaMerged => "cache.answers_delta_merged",
    AnswersRecomputed => "cache.answers_recomputed",
    // Backend dispatch + degradation lattice.
    DispatchMask => "dispatch.mask",
    DispatchLineage => "dispatch.lineage",
    VerdictExact => "verdict.exact",
    VerdictDegraded => "verdict.degraded",
    VerdictRefused => "verdict.refused",
    // Governor budget spend, mirrored after each governed run.
    GovernorRows => "governor.rows",
    GovernorArenaWords => "governor.arena_words",
    GovernorNodes => "governor.nodes",
    GovernorTrips => "governor.trips",
    // Fault injection audit trail.
    FaultChecks => "fault.checks",
    FaultFired => "fault.fired",
    // Durability: write-ahead log, snapshots, recovery.
    WalAppends => "wal.appends",
    WalAppendBytes => "wal.append_bytes",
    WalResetFrames => "wal.reset_frames",
    WalBadFrames => "wal.bad_frames",
    SnapshotWrites => "snapshot.writes",
    SnapshotBytes => "snapshot.bytes",
    RecoveryRuns => "recovery.runs",
    RecoveryReplayedFrames => "recovery.replayed_frames",
}

impl MetricId {
    /// The dotted display name (`"mask.rows"`, …).
    pub fn name(self) -> &'static str {
        METRIC_NAMES[self as usize]
    }
}

macro_rules! histogram_ids {
    ($($variant:ident => $name:literal,)+) => {
        /// Fixed-bucket (log2-of-microseconds) latency histograms.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u16)]
        pub enum HistogramId { $($variant,)+ }

        /// Number of histograms in the registry.
        pub const HISTOGRAM_COUNT: usize = 0 $(+ { let _ = $name; 1 })+;

        /// Dotted display names, indexed by `HistogramId as usize`.
        pub const HISTOGRAM_NAMES: [&str; HISTOGRAM_COUNT] = [$($name,)+];
    };
}

histogram_ids! {
    PhysOpMicros => "phys.op_micros",
    MaskOpMicros => "mask.op_micros",
    MorselMicros => "morsel.morsel_micros",
    MorselsPerWorker => "morsel.per_worker",
    WorldChunkMicros => "worlds.chunk_micros",
    OptPassMicros => "opt.pass_micros",
    RequestMicros => "pipeline.request_micros",
    SnapshotMicros => "snapshot.micros",
    RecoveryMicros => "recovery.micros",
}

impl HistogramId {
    /// The dotted display name (`"morsel.per_worker"`, …).
    pub fn name(self) -> &'static str {
        HISTOGRAM_NAMES[self as usize]
    }
}

/// Buckets per histogram: bucket `i < 15` counts values `v` with
/// `log2(v+1) == i` (i.e. `v+1` in `[2^i, 2^(i+1))`); bucket 15 is the
/// unbounded overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 16;

fn bucket_of(value: u64) -> usize {
    let b = (64 - value.saturating_add(1).leading_zeros() - 1) as usize;
    b.min(HISTOGRAM_BUCKETS - 1)
}

/// The process-global registry: one atomic slot per counter, one fixed
/// bucket array per histogram. All recording is `Ordering::Relaxed` —
/// these are statistics, not synchronisation.
pub struct Registry {
    counters: [AtomicU64; METRIC_COUNT],
    histograms: [[AtomicU64; HISTOGRAM_BUCKETS]; HISTOGRAM_COUNT],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; HISTOGRAM_BUCKETS] = [ZERO; HISTOGRAM_BUCKETS];

static REGISTRY: Registry = Registry {
    counters: [ZERO; METRIC_COUNT],
    histograms: [ZERO_ROW; HISTOGRAM_COUNT],
};

/// The process-global [`Registry`].
pub fn metrics() -> &'static Registry {
    &REGISTRY
}

impl Registry {
    /// Add `n` to a counter (lock-free, relaxed).
    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        if n != 0 {
            self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one observation into a histogram (lock-free, relaxed).
    #[inline]
    pub fn observe(&self, id: HistogramId, value: u64) {
        self.histograms[id as usize][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn get(&self, id: MetricId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter and histogram. Snapshots are
    /// cheap (a few hundred relaxed loads) and are meant to bracket a
    /// request: `after.delta(&before)` is that request's spend plus
    /// whatever concurrent work overlapped it.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            histograms: std::array::from_fn(|h| {
                std::array::from_fn(|b| self.histograms[h][b].load(Ordering::Relaxed))
            }),
        }
    }
}

/// A point-in-time copy of the registry (see [`Registry::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    counters: [u64; METRIC_COUNT],
    histograms: [[u64; HISTOGRAM_BUCKETS]; HISTOGRAM_COUNT],
}

impl Snapshot {
    /// Counter value by id.
    pub fn get(&self, id: MetricId) -> u64 {
        self.counters[id as usize]
    }

    /// Histogram bucket counts by id.
    pub fn buckets(&self, id: HistogramId) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.histograms[id as usize]
    }

    /// Pointwise `self - earlier` (saturating): the spend between two
    /// snapshots of the same registry.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: std::array::from_fn(|i| self.counters[i].saturating_sub(earlier.counters[i])),
            histograms: std::array::from_fn(|h| {
                std::array::from_fn(|b| {
                    self.histograms[h][b].saturating_sub(earlier.histograms[h][b])
                })
            }),
        }
    }

    /// Every counter with a non-zero value, in declaration order.
    pub fn nonzero_counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0)
            .map(|(i, v)| (METRIC_NAMES[i], *v))
    }

    /// Every histogram with at least one observation, in declaration order.
    pub fn nonzero_histograms(
        &self,
    ) -> impl Iterator<Item = (&'static str, &[u64; HISTOGRAM_BUCKETS])> + '_ {
        self.histograms
            .iter()
            .enumerate()
            .filter(|(_, b)| b.iter().any(|v| *v != 0))
            .map(|(i, b)| (HISTOGRAM_NAMES[i], b))
    }

    /// Render as a JSON object: counters as numbers, histograms as bucket
    /// arrays under a `"histograms"` key. Hand-built on purpose — the
    /// workspace has no serde and the shape is flat.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, v) in self.nonzero_counters() {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{name}\": {v}"));
        }
        let hists: Vec<_> = self.nonzero_histograms().collect();
        if !hists.is_empty() {
            if !first {
                out.push_str(", ");
            }
            out.push_str("\"histograms\": {");
            for (i, (name, buckets)) in hists.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let cells: Vec<String> = buckets.iter().map(|v| v.to_string()).collect();
                out.push_str(&format!("\"{name}\": [{}]", cells.join(", ")));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A per-run counter view: `Cell`-based (single-threaded, owned by one
/// executor) so one run's spend can be read back exactly even while
/// concurrent executors record into the same global registry. Every
/// increment is mirrored into the global [`Registry`] — this is the one
/// accounting path; `ExecStats` / `MaskStats` style structs are plain
/// reads over a `LocalMetrics`.
#[derive(Debug)]
pub struct LocalMetrics {
    values: [Cell<u64>; METRIC_COUNT],
}

impl Default for LocalMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalMetrics {
    /// A fresh all-zero view.
    pub fn new() -> Self {
        LocalMetrics {
            values: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// Add `n` locally and in the global registry.
    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        if n != 0 {
            let slot = &self.values[id as usize];
            slot.set(slot.get() + n);
            REGISTRY.add(id, n);
        }
    }

    /// This run's value for one counter.
    pub fn get(&self, id: MetricId) -> u64 {
        self.values[id as usize].get()
    }

    /// Reset the local view (the global registry is monotone and is not
    /// rolled back).
    pub fn reset(&self) {
        for slot in &self.values {
            slot.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2_with_overflow() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1 << 14), 14);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn local_mirrors_into_global() {
        let before = metrics().snapshot();
        let local = LocalMetrics::new();
        local.add(MetricId::MaskRows, 7);
        local.add(MetricId::MaskRows, 5);
        assert_eq!(local.get(MetricId::MaskRows), 12);
        let delta = metrics().snapshot().delta(&before);
        assert!(delta.get(MetricId::MaskRows) >= 12);
    }

    #[test]
    fn snapshot_json_is_flat_and_nonzero_only() {
        metrics().add(MetricId::PhysRows, 3);
        metrics().observe(HistogramId::PhysOpMicros, 100);
        let snap = metrics().snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"phys.rows\""));
        assert!(json.contains("\"histograms\""));
    }
}
