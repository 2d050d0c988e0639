//! Morsel-driven intra-query parallelism.
//!
//! The columnar mask executor parallelizes *within one instance* — one scan
//! expansion, one join probe, one certainty aggregation — by cutting its row
//! ranges into ~1k-row **morsels** and letting a scoped worker pool pull them
//! off a shared atomic cursor (the classic morsel-driven scheme: dynamic
//! work stealing without queues, because the cursor *is* the queue).
//!
//! Determinism contract: workers return one result per morsel, tagged with
//! the morsel index, and [`MorselPool::run`] hands them back **sorted by
//! morsel index** — so any order-sensitive reduction the caller performs
//! over the results is thread-count invariant by construction. Scheduling
//! decides only *who* computes a morsel, never *what* the morsel is.
//!
//! The pool is std-only (`std::thread::scope` + one `AtomicUsize`), worker
//! counts are clamped to [`std::thread::available_parallelism`], read once
//! per process (a request for 16 workers on a 1-CPU host runs 1 worker and
//! reports so), and every morsel runs under `catch_unwind`, so a panicking
//! worker comes back as a typed [`GovernorError::WorkerPanicked`] instead
//! of unwinding the scope.

use crate::governor;
use certa_data::GovernorError;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Rows per morsel: small enough that the columnar chunk (rows + mask
/// words) stays cache-resident, large enough to amortize the cursor fetch.
pub const MORSEL_ROWS: usize = 1024;

/// Clamp a requested worker count to the host: `0` means "all available",
/// anything else is capped at [`std::thread::available_parallelism`].
/// Always at least 1.
///
/// The host value is read once per process and kept: on Linux
/// `available_parallelism` reads the cgroup CPU quota from `/proc` and
/// `/sys`, tens of microseconds per call, and every mask pass builds a
/// pool. A later change of the process's CPU quota therefore no longer
/// changes the pool width. That can change speed, never an answer: output
/// is bit-identical for every worker count.
pub fn effective_threads(requested: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let available = *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    match requested {
        0 => available,
        n => n.min(available),
    }
}

/// A scoped morsel scheduler: fixed effective worker count, one atomic
/// cursor per [`run`](MorselPool::run) call.
#[derive(Debug, Clone, Copy)]
pub struct MorselPool {
    requested: usize,
    threads: usize,
}

impl MorselPool {
    /// A pool with the given requested worker count (`0` = all available),
    /// clamped by [`effective_threads`] to the host's parallelism as read
    /// once per process.
    pub fn new(requested: usize) -> MorselPool {
        MorselPool {
            requested,
            threads: effective_threads(requested),
        }
    }

    /// The worker count as requested (before clamping; `0` = auto).
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// The effective worker count after clamping — what actually runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of morsels a row range of `len` rows cuts into.
    pub fn morsels_for(len: usize) -> usize {
        len.div_ceil(MORSEL_ROWS)
    }

    /// The row range of morsel `m` within `0..len`.
    pub fn morsel_range(m: usize, len: usize) -> Range<usize> {
        let lo = m * MORSEL_ROWS;
        lo..((lo + MORSEL_ROWS).min(len))
    }

    /// Run `f(morsel_index, row_range)` over every morsel of `0..len` and
    /// return the per-morsel results **in morsel order**.
    ///
    /// Sequential (no threads spawned) when one worker suffices — a single
    /// morsel, or an effective width of 1 — so the 1-thread path has zero
    /// scheduling overhead and is trivially identical to the parallel one.
    ///
    /// # Panics
    ///
    /// Panics if a worker panics or the installed governor trips — this is
    /// the legacy infallible entry; governed query paths go through
    /// [`MorselPool::try_run`], which converts both into typed errors.
    pub fn run<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        self.try_run(len, f)
            .unwrap_or_else(|e| panic!("morsel pool: {e}"))
    }

    /// Like [`MorselPool::run`], but governed and panic-isolated: the
    /// spawning thread's governor is re-installed inside every worker, each
    /// morsel is preceded by a cooperative [`governor::checkpoint`], the
    /// user closure runs under `catch_unwind`, and the first failure —
    /// budget trip, cancellation, injected fault, or worker panic — stops
    /// all workers and comes back as a [`GovernorError`] instead of
    /// unwinding across the pool (or aborting the process).
    pub fn try_run<T, F>(&self, len: usize, f: F) -> Result<Vec<T>, GovernorError>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let morsels = Self::morsels_for(len);
        let workers = self.threads.min(morsels);
        // The pool span carries only thread-count-invariant facts (morsel
        // count); scheduling facts (worker count, claims per worker) go to
        // the metrics registry so traces stay structurally identical across
        // 1/2/8-worker runs of the same work.
        let pool_span = certa_obs::span("morsel:pool");
        pool_span.add("morsels", morsels as u64);
        let registry = certa_obs::metrics();
        registry.add(certa_obs::MetricId::MorselRuns, 1);
        registry.add(certa_obs::MetricId::MorselWorkers, workers.max(1) as u64);
        if workers <= 1 {
            let mut out = Vec::with_capacity(morsels);
            for m in 0..morsels {
                governor::checkpoint()?;
                // The faultpoint sits inside the catch_unwind so injected
                // worker panics surface as typed errors on this path too.
                let value = catch_unwind(AssertUnwindSafe(|| {
                    let msp = certa_obs::span("morsel");
                    msp.add("m", m as u64);
                    crate::faultpoint!("worker:morsel")?;
                    Ok(f(m, Self::morsel_range(m, len)))
                }))
                .map_err(|p| GovernorError::WorkerPanicked(governor::panic_message(&*p)))??;
                registry.add(certa_obs::MetricId::MorselClaimed, 1);
                out.push(value);
            }
            registry.observe(certa_obs::HistogramId::MorselsPerWorker, morsels as u64);
            return Ok(out);
        }
        let shared = governor::current();
        // Workers re-install the spawning thread's trace context alongside
        // its governor: their morsel spans nest under this pool span.
        let obs_ctx = certa_obs::context();
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let failure: Mutex<Option<GovernorError>> = Mutex::new(None);
        let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (f, cursor, stop, failure, shared, obs_ctx) =
                        (&f, &cursor, &stop, &failure, &shared, &obs_ctx);
                    scope.spawn(move || {
                        let _governed = governor::install(shared.clone());
                        let _observed = certa_obs::attach(obs_ctx.as_ref());
                        let mut local: Vec<(usize, T)> = Vec::new();
                        let fail = |e: GovernorError| {
                            stop.store(true, Ordering::Relaxed);
                            let mut slot = failure.lock().unwrap_or_else(|p| p.into_inner());
                            slot.get_or_insert(e);
                        };
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let m = cursor.fetch_add(1, Ordering::Relaxed);
                            if m >= morsels {
                                // The cursor is the queue: a fetch past the
                                // end is this worker's one idle poll.
                                certa_obs::metrics().add(certa_obs::MetricId::MorselIdlePolls, 1);
                                break;
                            }
                            certa_obs::metrics().add(certa_obs::MetricId::MorselClaimed, 1);
                            if let Err(e) = governor::checkpoint() {
                                fail(e);
                                break;
                            }
                            // The faultpoint runs under catch_unwind so an
                            // injected panic comes back as a typed error.
                            match catch_unwind(AssertUnwindSafe(|| {
                                let msp = certa_obs::span("morsel");
                                msp.add("m", m as u64);
                                crate::faultpoint!("worker:morsel")?;
                                Ok(f(m, Self::morsel_range(m, len)))
                            })) {
                                Ok(Ok(value)) => local.push((m, value)),
                                Ok(Err(e)) => {
                                    fail(e);
                                    break;
                                }
                                Err(payload) => {
                                    fail(GovernorError::WorkerPanicked(governor::panic_message(
                                        &*payload,
                                    )));
                                    break;
                                }
                            }
                        }
                        certa_obs::metrics()
                            .observe(certa_obs::HistogramId::MorselsPerWorker, local.len() as u64);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        // Unreachable in practice (the worker body catches
                        // its own panics), but a join failure must still be
                        // a typed error, not a poisoned scope.
                        stop.store(true, Ordering::Relaxed);
                        let mut slot = failure.lock().unwrap_or_else(|p| p.into_inner());
                        slot.get_or_insert(GovernorError::WorkerPanicked(governor::panic_message(
                            &*payload,
                        )));
                        Vec::new()
                    })
                })
                .collect()
        });
        if let Some(e) = failure.lock().unwrap_or_else(|p| p.into_inner()).take() {
            return Err(e);
        }
        tagged.sort_unstable_by_key(|(m, _)| *m);
        Ok(tagged.into_iter().map(|(_, t)| t).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_ranges_tile_the_row_space() {
        for len in [
            0usize,
            1,
            MORSEL_ROWS - 1,
            MORSEL_ROWS,
            MORSEL_ROWS + 1,
            5000,
        ] {
            let morsels = MorselPool::morsels_for(len);
            let mut covered = 0usize;
            for m in 0..morsels {
                let r = MorselPool::morsel_range(m, len);
                assert_eq!(r.start, covered, "contiguous at len {len}");
                assert!(r.end <= len);
                covered = r.end;
            }
            assert_eq!(covered, len, "morsels must cover 0..{len}");
        }
    }

    #[test]
    fn effective_threads_clamps_to_the_host() {
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(effective_threads(0), available);
        assert_eq!(effective_threads(1), 1);
        assert!(effective_threads(usize::MAX) <= available);
        assert!(effective_threads(16) >= 1);
        let pool = MorselPool::new(16);
        assert_eq!(pool.requested(), 16);
        assert_eq!(pool.threads(), effective_threads(16));
    }

    #[test]
    fn results_come_back_in_morsel_order_at_any_width() {
        let len = 4 * MORSEL_ROWS + 37;
        let expect: Vec<usize> = (0..MorselPool::morsels_for(len))
            .map(|m| MorselPool::morsel_range(m, len).sum::<usize>())
            .collect();
        for requested in [1usize, 2, 8] {
            let got = MorselPool::new(requested).run(len, |_, range| range.sum::<usize>());
            assert_eq!(got, expect, "requested {requested} workers");
        }
    }

    #[test]
    fn poisoned_morsel_fails_the_query_not_the_process() {
        // One morsel out of many panics; try_run must surface a typed
        // error (with the panic message) at every worker width instead of
        // unwinding across the scope.
        let len = 6 * MORSEL_ROWS;
        for requested in [1usize, 2, 8] {
            let pool = MorselPool::new(requested);
            let result = pool.try_run(len, |m, range| {
                assert!(m != 3, "poisoned morsel 3");
                range.len()
            });
            match result {
                Err(GovernorError::WorkerPanicked(msg)) => {
                    assert!(msg.contains("poisoned morsel 3"), "{msg}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
        // An untouched pool still works afterwards.
        let ok = MorselPool::new(2).try_run(len, |_, range| range.len());
        assert_eq!(ok.unwrap().iter().sum::<usize>(), len);
    }

    #[test]
    fn governor_trip_stops_the_pool_with_a_typed_error() {
        let token = governor::CancelToken::new();
        let budget = governor::ExecBudget::new().with_cancel_token(token.clone());
        let armed = governor::Governor::arm(&budget);
        token.cancel();
        for requested in [1usize, 2, 8] {
            let result = governor::with_governor(&armed, || {
                MorselPool::new(requested).try_run(4 * MORSEL_ROWS, |_, range| range.len())
            });
            assert_eq!(result, Err(GovernorError::Cancelled), "{requested} workers");
        }
    }
}
