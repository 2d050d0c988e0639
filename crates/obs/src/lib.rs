//! Unified tracing + metrics for the certa workspace.
//!
//! This crate is the observability substrate every execution layer records
//! into. It is deliberately dependency-free and sits between `certa-data`
//! and `certa-algebra` in the dependency flow so that the physical engine,
//! the columnar mask executor, the morsel pool, the lineage forest, the
//! optimizer and the pipeline can all share one vocabulary:
//!
//! * **Spans** ([`span`](fn@span), [`SpanGuard`]) — a TLS-ambient call
//!   tree, installed per request exactly like `certa_algebra::governor`.
//!   When no [`Trace`] is installed, opening a span is a single
//!   thread-local read and a branch (the `Span::noop` path); nothing is
//!   allocated and nothing is recorded, which is what keeps instrumented
//!   hot loops within noise of the uninstrumented build. Worker threads (the morsel pool, the world
//!   engine) carry the trace across the spawn boundary with an explicit
//!   [`SpanContext`] handle — [`context`] before spawning, [`attach`]
//!   inside the worker — so parallel execution nests under the operator
//!   that launched it.
//! * **Metrics** ([`metrics`](fn@metrics), [`MetricId`], [`HistogramId`]) —
//!   a global registry of named counters and fixed-bucket histograms backed by
//!   plain atomics: lock-free on the hot path, snapshot-able between
//!   requests ([`Registry::snapshot`], [`Snapshot::delta`]). Per-run
//!   attribution (what one executor did, concurrent siblings excluded)
//!   goes through [`LocalMetrics`], a `Cell`-based view that mirrors every
//!   increment into the global registry — the existing `ExecStats` /
//!   `MaskStats` style structs are thin reads over it.
//! * **Traces** ([`Trace`]) — the recorded event buffer, exportable as
//!   Chrome `chrome://tracing` JSON ([`Trace::to_chrome_json`]) and
//!   reducible to a timing-free structural signature
//!   ([`Trace::structure_signature`]) used by the worker-count invariance
//!   property tests.

pub mod metrics;
pub mod span;

pub use metrics::{
    metrics, HistogramId, LocalMetrics, MetricId, Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use span::{
    attach, context, current_trace, install, instant, instant_detail, span, span_add, AttachGuard,
    Event, EventKind, InstallGuard, SpanContext, SpanGuard, Trace,
};
