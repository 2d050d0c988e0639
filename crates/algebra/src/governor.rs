//! Resource-governed execution: budgets, cooperative cancellation, and a
//! deterministic fault-injection harness.
//!
//! A [`Governor`] is an armed [`ExecBudget`]: a wall-clock deadline, a
//! cancel token shared with the caller, and countdown budgets on the three
//! quantities the engines actually allocate — output rows (physical
//! operators, columnar mask operators), arena words (the columnar mask
//! buffers), and diagram nodes (the lineage forest). The governor is
//! installed in thread-local storage for the duration of a query
//! ([`install`] / [`with_governor`]); every check site reads it from there,
//! so deeply nested layers (lineage forests compiled three crates away from
//! the pipeline) stay governed without threading a handle through every
//! signature. Worker threads spawned by the morsel pool and the world
//! engine re-install the spawner's governor, so budgets are global to the
//! query, not per thread.
//!
//! Checks are *cooperative*: nothing is pre-empted. The sites are
//!
//! * operator boundaries in `physical::execute` and `mask::exec`,
//! * every morsel in [`crate::morsel::MorselPool`],
//! * every world chunk in the `certa-certain` world engine,
//! * arena growth in `mask::columnar` (metered at [`note_arena_words`],
//!   tripped at the next boundary check), and
//! * node allocation in the lineage forest ([`consume_nodes`]).
//!
//! A trip surfaces as a [`GovernorError`] and unwinds as an ordinary
//! error; partial results are dropped, never served.
//!
//! The fault-injection harness ([`fault_hit`] /
//! [`faultpoint!`](crate::faultpoint!)) is a no-op unless the
//! `fault-injection` cargo feature is enabled *and* a seeded schedule is
//! armed; then each site fires deterministically from
//! `hash(seed, site, call#)`, as an injected error everywhere and as an
//! injected panic at `worker:`-prefixed sites (which sit inside
//! `catch_unwind` isolation).

use certa_data::GovernorError;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many governed consume calls may pass between wall-clock reads:
/// `Instant::now` is far cheaper than an operator but not free, and node
/// allocation can run millions of times per query.
const DEADLINE_POLL_MASK: u64 = 0xFF;

/// A shared cancellation flag. Cloning shares the flag; raising it makes
/// every governed execution holding the token fail its next checkpoint
/// with [`GovernorError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, unraised token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raise the flag. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A declarative resource budget. All limits are optional; an empty budget
/// governs nothing (but still arms the cancel token, if one is attached).
#[derive(Debug, Clone, Default)]
pub struct ExecBudget {
    /// Wall-clock deadline, measured from [`Governor::arm`].
    pub deadline: Option<Duration>,
    /// Cap on output rows summed across all operator boundaries.
    pub row_budget: Option<u64>,
    /// Cap on 64-bit words appended to columnar mask arenas.
    pub arena_word_budget: Option<u64>,
    /// Cap on freshly allocated lineage diagram nodes (hash-cons hits are
    /// free — they allocate nothing).
    pub node_budget: Option<u64>,
    /// Cancellation flag shared with the caller.
    pub cancel: Option<CancelToken>,
}

impl ExecBudget {
    /// An unconstrained budget.
    pub fn new() -> ExecBudget {
        ExecBudget::default()
    }

    /// Set the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> ExecBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Set the output-row budget.
    #[must_use]
    pub fn with_row_budget(mut self, rows: u64) -> ExecBudget {
        self.row_budget = Some(rows);
        self
    }

    /// Set the arena-word budget.
    #[must_use]
    pub fn with_arena_word_budget(mut self, words: u64) -> ExecBudget {
        self.arena_word_budget = Some(words);
        self
    }

    /// Set the diagram-node budget.
    #[must_use]
    pub fn with_node_budget(mut self, nodes: u64) -> ExecBudget {
        self.node_budget = Some(nodes);
        self
    }

    /// Attach a cancel token.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> ExecBudget {
        self.cancel = Some(token);
        self
    }

    /// A one-line human description of the configured limits, for
    /// `explain()` output.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(d) = self.deadline {
            parts.push(format!("deadline {}ms", d.as_millis()));
        }
        if let Some(r) = self.row_budget {
            parts.push(format!("rows ≤ {r}"));
        }
        if let Some(w) = self.arena_word_budget {
            parts.push(format!("arena words ≤ {w}"));
        }
        if let Some(n) = self.node_budget {
            parts.push(format!("nodes ≤ {n}"));
        }
        if self.cancel.is_some() {
            parts.push("cancellable".to_string());
        }
        if parts.is_empty() {
            "unbounded".to_string()
        } else {
            parts.join(", ")
        }
    }
}

#[derive(Debug)]
struct Inner {
    deadline: Option<(Instant, u64)>,
    cancel: CancelToken,
    row_budget: Option<u64>,
    arena_word_budget: Option<u64>,
    node_budget: Option<u64>,
    rows_spent: AtomicU64,
    arena_words_spent: AtomicU64,
    nodes_spent: AtomicU64,
    /// Amortizes `Instant::now` across consume calls.
    polls: AtomicU64,
}

/// An armed budget, shared across the worker threads of one governed
/// execution. Cheap to clone (one `Arc`).
#[derive(Debug, Clone)]
pub struct Governor(Arc<Inner>);

/// Spent-so-far counters of a governor, for `explain()` accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorAccounting {
    /// Output rows consumed across operator boundaries.
    pub rows: u64,
    /// Words appended to columnar mask arenas.
    pub arena_words: u64,
    /// Lineage diagram nodes allocated.
    pub nodes: u64,
}

impl Governor {
    /// Arm a budget: the deadline clock starts now.
    pub fn arm(budget: &ExecBudget) -> Governor {
        Governor(Arc::new(Inner {
            deadline: budget
                .deadline
                .map(|d| (Instant::now() + d, d.as_millis() as u64)),
            cancel: budget.cancel.clone().unwrap_or_default(),
            row_budget: budget.row_budget,
            arena_word_budget: budget.arena_word_budget,
            node_budget: budget.node_budget,
            rows_spent: AtomicU64::new(0),
            arena_words_spent: AtomicU64::new(0),
            nodes_spent: AtomicU64::new(0),
            polls: AtomicU64::new(0),
        }))
    }

    /// The cancel token this governor watches.
    pub fn cancel_token(&self) -> CancelToken {
        self.0.cancel.clone()
    }

    /// Full cooperative check: cancellation, deadline, and every budget
    /// metered so far (including arena words noted by other threads).
    pub fn checkpoint(&self) -> Result<(), GovernorError> {
        let inner = &*self.0;
        if inner.cancel.is_cancelled() {
            return Err(GovernorError::Cancelled);
        }
        if let Some((at, limit_ms)) = inner.deadline {
            if Instant::now() >= at {
                return Err(GovernorError::DeadlineExceeded { limit_ms });
            }
        }
        if let Some(budget) = inner.row_budget {
            if inner.rows_spent.load(Ordering::Relaxed) > budget {
                return Err(GovernorError::RowBudgetExhausted { budget });
            }
        }
        if let Some(budget) = inner.arena_word_budget {
            if inner.arena_words_spent.load(Ordering::Relaxed) > budget {
                return Err(GovernorError::ArenaBudgetExhausted { budget });
            }
        }
        if let Some(budget) = inner.node_budget {
            if inner.nodes_spent.load(Ordering::Relaxed) > budget {
                return Err(GovernorError::NodeBudgetExhausted { budget });
            }
        }
        Ok(())
    }

    /// Cancellation plus an amortized deadline read — the cheap check for
    /// per-allocation call sites.
    fn fast_check(&self) -> Result<(), GovernorError> {
        let inner = &*self.0;
        if inner.cancel.is_cancelled() {
            return Err(GovernorError::Cancelled);
        }
        if let Some((at, limit_ms)) = inner.deadline {
            let n = inner.polls.fetch_add(1, Ordering::Relaxed);
            if n & DEADLINE_POLL_MASK == 0 && Instant::now() >= at {
                return Err(GovernorError::DeadlineExceeded { limit_ms });
            }
        }
        Ok(())
    }

    /// Meter `n` output rows and trip if the row budget is exhausted.
    pub fn consume_rows(&self, n: usize) -> Result<(), GovernorError> {
        let spent = self.0.rows_spent.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        if let Some(budget) = self.0.row_budget {
            if spent > budget {
                return Err(GovernorError::RowBudgetExhausted { budget });
            }
        }
        self.fast_check()
    }

    /// Meter `n` arena words without tripping — arena growth happens deep
    /// inside infallible buffer code; the overdraft is caught by the next
    /// checkpoint.
    pub fn note_arena_words(&self, n: usize) {
        self.0
            .arena_words_spent
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Meter `n` freshly allocated diagram nodes and trip if the node
    /// budget is exhausted.
    pub fn consume_nodes(&self, n: usize) -> Result<(), GovernorError> {
        let spent = self.0.nodes_spent.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        if let Some(budget) = self.0.node_budget {
            if spent > budget {
                return Err(GovernorError::NodeBudgetExhausted { budget });
            }
        }
        self.fast_check()
    }

    /// A governor for a degraded fallback attempt, after this one tripped:
    /// the request-global constraints survive — the original deadline keeps
    /// ticking and the cancel token stays shared — but the resource-shape
    /// budgets (rows, arena words, nodes) are dropped, because they metered
    /// the backend the dispatcher just abandoned and would otherwise trip
    /// every lower rung of the lattice at its first checkpoint. Counters
    /// start fresh; [`Governor::accounting`] on the original governor keeps
    /// reporting the primary attempt's spend.
    pub fn for_fallback(&self) -> Governor {
        Governor(Arc::new(Inner {
            deadline: self.0.deadline,
            cancel: self.0.cancel.clone(),
            row_budget: None,
            arena_word_budget: None,
            node_budget: None,
            rows_spent: AtomicU64::new(0),
            arena_words_spent: AtomicU64::new(0),
            nodes_spent: AtomicU64::new(0),
            polls: AtomicU64::new(0),
        }))
    }

    /// Spent-so-far counters.
    pub fn accounting(&self) -> GovernorAccounting {
        GovernorAccounting {
            rows: self.0.rows_spent.load(Ordering::Relaxed),
            arena_words: self.0.arena_words_spent.load(Ordering::Relaxed),
            nodes: self.0.nodes_spent.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Governor>> = const { RefCell::new(None) };
}

/// The governor installed on this thread, if any. Worker pools capture
/// this before spawning and re-[`install`] it inside each worker.
pub fn current() -> Option<Governor> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `governor` on this thread until the guard drops (the previous
/// installation, if any, is restored — installations nest).
pub fn install(governor: Option<Governor>) -> InstallGuard {
    let previous = CURRENT.with(|c| c.replace(governor));
    InstallGuard { previous }
}

/// Restores the previously installed governor on drop; also restores on
/// panic, so `catch_unwind` callers never observe a stale governor.
pub struct InstallGuard {
    previous: Option<Governor>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| c.replace(previous));
    }
}

/// Run `f` with `governor` installed on this thread.
pub fn with_governor<R>(governor: &Governor, f: impl FnOnce() -> R) -> R {
    let _guard = install(Some(governor.clone()));
    f()
}

/// Cooperative checkpoint against the thread's governor; `Ok(())` when no
/// governor is installed.
pub fn checkpoint() -> Result<(), GovernorError> {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(g) => g.checkpoint(),
        None => Ok(()),
    })
}

/// Meter output rows against the thread's governor.
pub fn consume_rows(n: usize) -> Result<(), GovernorError> {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(g) => g.consume_rows(n),
        None => Ok(()),
    })
}

/// Meter arena-word growth against the thread's governor (accounting only;
/// the trip surfaces at the next checkpoint).
pub fn note_arena_words(n: usize) {
    CURRENT.with(|c| {
        if let Some(g) = c.borrow().as_ref() {
            g.note_arena_words(n);
        }
    });
}

/// Meter diagram-node allocation against the thread's governor.
pub fn consume_nodes(n: usize) -> Result<(), GovernorError> {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(g) => g.consume_nodes(n),
        None => Ok(()),
    })
}

/// Extract a readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection (behind the `fault-injection` feature)
// ---------------------------------------------------------------------------

/// A fault-injection site. Expands to a `Result<(), GovernorError>`; use
/// `?` behind a `From<GovernorError>` conversion. Compiles to `Ok(())`
/// unless the `fault-injection` feature is on and a schedule is armed.
#[macro_export]
macro_rules! faultpoint {
    ($site:literal) => {
        $crate::governor::fault_hit($site)
    };
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::GovernorError;
    use std::collections::HashMap;
    use std::sync::Mutex;

    struct Schedule {
        seed: u64,
        one_in: u64,
        calls: HashMap<&'static str, u64>,
    }

    static SCHEDULE: Mutex<Option<Schedule>> = Mutex::new(None);

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn site_hash(site: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in site.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Arm the global schedule: roughly one in `one_in` site calls fires,
    /// chosen by `hash(seed, site, call#)`. Deterministic for a fixed seed
    /// and per-site call sequence.
    pub fn arm_faults(seed: u64, one_in: u64) {
        let mut guard = SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(Schedule {
            seed,
            one_in: one_in.max(1),
            calls: HashMap::new(),
        });
    }

    /// Disarm the schedule; every site reverts to a no-op.
    pub fn disarm_faults() {
        let mut guard = SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
        *guard = None;
    }

    pub fn hit(site: &'static str) -> Result<(), GovernorError> {
        let mut guard = SCHEDULE.lock().unwrap_or_else(|e| e.into_inner());
        let Some(schedule) = guard.as_mut() else {
            return Ok(());
        };
        // Audit trail: every site check under an armed schedule counts, and
        // every firing is visible as a trace instant + counter even when the
        // injected error is later swallowed by a fallback path.
        certa_obs::metrics().add(certa_obs::MetricId::FaultChecks, 1);
        let nth = schedule.calls.entry(site).or_insert(0);
        *nth += 1;
        let h = splitmix(schedule.seed ^ site_hash(site).wrapping_add(*nth));
        if !h.is_multiple_of(schedule.one_in) {
            return Ok(());
        }
        certa_obs::metrics().add(certa_obs::MetricId::FaultFired, 1);
        certa_obs::instant_detail("fault:fired", site);
        // Panics are only injected at sites that sit inside catch_unwind
        // isolation (worker loops); everywhere else the fault is a typed
        // error so it exercises the degradation lattice, not abort paths.
        if site.starts_with("worker:") && (h >> 32) & 1 == 0 {
            drop(guard);
            panic!("injected fault at `{site}`");
        }
        Err(GovernorError::InjectedFault { site })
    }
}

#[cfg(feature = "fault-injection")]
pub use faults::{arm_faults, disarm_faults};

/// The runtime entry behind [`faultpoint!`](crate::faultpoint!). Always
/// compiled so call sites need no feature gates of their own; inert without
/// the `fault-injection` feature.
#[inline]
pub fn fault_hit(site: &'static str) -> Result<(), GovernorError> {
    #[cfg(feature = "fault-injection")]
    {
        faults::hit(site)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbudgeted_checks_pass() {
        assert!(checkpoint().is_ok());
        assert!(consume_rows(1 << 20).is_ok());
        assert!(consume_nodes(1 << 20).is_ok());
        note_arena_words(1 << 20);
        assert!(current().is_none());
    }

    #[test]
    fn cancel_token_trips_checkpoint() {
        let token = CancelToken::new();
        let budget = ExecBudget::new().with_cancel_token(token.clone());
        let g = Governor::arm(&budget);
        assert!(g.checkpoint().is_ok());
        token.cancel();
        assert_eq!(g.checkpoint(), Err(GovernorError::Cancelled));
        assert_eq!(g.consume_rows(1), Err(GovernorError::Cancelled));
    }

    #[test]
    fn row_budget_trips_after_overdraft() {
        let g = Governor::arm(&ExecBudget::new().with_row_budget(10));
        assert!(g.consume_rows(10).is_ok());
        assert_eq!(
            g.consume_rows(1),
            Err(GovernorError::RowBudgetExhausted { budget: 10 })
        );
        assert_eq!(g.accounting().rows, 11);
    }

    #[test]
    fn node_budget_trips_after_overdraft() {
        let g = Governor::arm(&ExecBudget::new().with_node_budget(2));
        assert!(g.consume_nodes(1).is_ok());
        assert!(g.consume_nodes(1).is_ok());
        assert_eq!(
            g.consume_nodes(1),
            Err(GovernorError::NodeBudgetExhausted { budget: 2 })
        );
    }

    #[test]
    fn arena_words_are_noted_and_trip_at_checkpoint() {
        let g = Governor::arm(&ExecBudget::new().with_arena_word_budget(100));
        g.note_arena_words(64);
        assert!(g.checkpoint().is_ok());
        g.note_arena_words(64);
        assert_eq!(
            g.checkpoint(),
            Err(GovernorError::ArenaBudgetExhausted { budget: 100 })
        );
    }

    #[test]
    fn expired_deadline_trips() {
        let g = Governor::arm(&ExecBudget::new().with_deadline(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(
            g.checkpoint(),
            Err(GovernorError::DeadlineExceeded { limit_ms: 0 })
        );
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(current().is_none());
        let outer = Governor::arm(&ExecBudget::new().with_row_budget(1));
        {
            let _a = install(Some(outer.clone()));
            assert!(current().is_some());
            {
                let _b = install(None);
                assert!(current().is_none());
            }
            assert!(current().is_some());
        }
        assert!(current().is_none());
    }

    #[test]
    fn thread_local_checks_see_installed_budget() {
        let g = Governor::arm(&ExecBudget::new().with_row_budget(5));
        let result = with_governor(&g, || consume_rows(6));
        assert_eq!(result, Err(GovernorError::RowBudgetExhausted { budget: 5 }));
        assert!(consume_rows(6).is_ok());
    }

    #[test]
    fn budget_description_lists_limits() {
        let b = ExecBudget::new()
            .with_deadline(Duration::from_millis(10))
            .with_node_budget(1000);
        let text = b.describe();
        assert!(text.contains("deadline 10ms"), "{text}");
        assert!(text.contains("nodes ≤ 1000"), "{text}");
        assert_eq!(ExecBudget::new().describe(), "unbounded");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_schedule_is_deterministic() {
        // Serialized against other fault tests by the global schedule:
        // arm, sample, disarm.
        arm_faults(42, 3);
        let first: Vec<bool> = (0..64).map(|_| fault_hit("test:site").is_err()).collect();
        arm_faults(42, 3);
        let second: Vec<bool> = (0..64).map(|_| fault_hit("test:site").is_err()).collect();
        disarm_faults();
        assert_eq!(first, second);
        assert!(first.iter().any(|&b| b));
        assert!(first.iter().any(|&b| !b));
        assert!(fault_hit("test:site").is_ok());
    }
}
