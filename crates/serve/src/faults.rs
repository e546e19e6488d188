//! Serve-side fault injection — the chaos-test harness.
//!
//! The PR-6 [`FaultPlan`](mbs_train::FaultPlan) made checkpoint damage a
//! deterministic, scriptable event instead of a race; [`ServeFaultPlan`]
//! extends the same discipline into the serving path. A plan names the
//! **global dispatch indices** (every batch any worker dispatches
//! increments one shared counter) at which a worker should panic — the
//! poison pill that exercises supervision — or stall, simulating a slow
//! or wedged worker. Corrupt *swap* files need no hook here: tests damage
//! checkpoint bytes on disk the same way the PR-6 fault kinds do, and the
//! swap path's load validation must refuse them.
//!
//! Plans are inert by default ([`ServeFaultPlan::default`] injects
//! nothing) and servers started via
//! [`Server::start`](crate::Server::start) carry an empty plan — the
//! production path never consults a non-trivial plan.

use std::time::Duration;

/// Deterministic fault script for a running server (test-only harness;
/// the serving loop itself never fails on purpose in production).
///
/// # Examples
///
/// ```
/// use mbs_serve::ServeFaultPlan;
///
/// // Panic while dispatching batches 2 and 5, stall batch 3 for 1 ms.
/// let plan = ServeFaultPlan::default()
///     .panic_at(2)
///     .panic_at(5)
///     .stall_at(3, core::time::Duration::from_millis(1));
/// assert!(plan.should_panic(2) && plan.should_panic(5));
/// assert!(!plan.should_panic(3));
/// assert_eq!(plan.stall_for(3), Some(core::time::Duration::from_millis(1)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    /// Global dispatch indices (0-based) at which the dispatching worker
    /// panics *after* assembling the batch but before running inference —
    /// every request in the doomed batch must still be answered.
    pub panic_at_batches: Vec<u64>,
    /// `(dispatch index, stall)` pairs: the dispatching worker sleeps
    /// this long before running the batch, simulating a slow worker.
    pub stalls: Vec<(u64, Duration)>,
}

impl ServeFaultPlan {
    /// Adds a worker panic at dispatch index `batch`.
    #[must_use]
    pub fn panic_at(mut self, batch: u64) -> Self {
        self.panic_at_batches.push(batch);
        self
    }

    /// Adds a `stall`-long sleep at dispatch index `batch`.
    #[must_use]
    pub fn stall_at(mut self, batch: u64, stall: Duration) -> Self {
        self.stalls.push((batch, stall));
        self
    }

    /// Whether the worker dispatching batch `index` should panic.
    pub fn should_panic(&self, index: u64) -> bool {
        self.panic_at_batches.contains(&index)
    }

    /// How long the worker dispatching batch `index` should stall first.
    pub fn stall_for(&self, index: u64) -> Option<Duration> {
        self.stalls
            .iter()
            .find(|&&(i, _)| i == index)
            .map(|&(_, d)| d)
    }
}
