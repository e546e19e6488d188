//! Every serving decision, as pure values: the dynamic-batch sizing
//! policy, the admission-controlled queue, and the [`Dispatcher`] that
//! decides with them.
//!
//! Collection is **work-conserving**: a free worker takes
//! `min(queued, max_batch)` requests the moment anything is queued and
//! dispatches at once ([`BatchPolicy::take`]). A lone request is never
//! held for batch-mates; a batch larger than one is exactly the arrivals
//! that accumulated while every worker was busy. The effective max batch
//! is the smaller of the configured limit and the cache-budget bound: the
//! same per-sample footprint model the scheduler uses
//! ([`mbs_core::footprint::max_sub_batch`]) applied to the serving
//! [`HardwareConfig`](mbs_core::HardwareConfig) budget, so a dynamic batch
//! never outgrows the on-chip buffer MBS sizes work against.
//!
//! [`ShedQueue`] is the overload side of the same discipline: a bounded
//! priority queue whose non-blocking admission ([`ShedQueue::offer`])
//! sheds the **most-expired, then lowest-priority** queued request to
//! admit more important work, and rejects the incoming request when
//! nothing queued is less important. Expired requests are harvested
//! ([`ShedQueue::take_expired`]) *before* batching, so a request past its
//! deadline never wastes a forward pass.
//!
//! [`Dispatcher`] owns the queue and makes every other decision too —
//! admission, expiry, batch formation, the respawn breaker, the degraded
//! drain, the swap's reset, and the [`ServeStats`] they produce. Nothing
//! here holds a thread or reads a clock (time is the caller's `now`), so
//! the server's workers, which hold the dispatcher under one lock, and
//! the tests, which drive it on virtual clocks, run the same decisions.

use mbs_core::footprint;

use crate::server::{ServeConfig, ServeError, ServeStats, SubmitOptions};

/// Ceiling on the budget-derived batch cap, so footprint-free models
/// (`per_sample_bytes == 0`) still get a finite batch size.
const MAX_BATCH_CEILING: usize = 1024;

/// Base of the worker-respawn exponential backoff, in milliseconds
/// (doubled per consecutive panic, capped at [`BACKOFF_CAP_MS`]).
const BACKOFF_BASE_MS: u64 = 2;

/// Ceiling of the worker-respawn backoff, in milliseconds.
const BACKOFF_CAP_MS: u64 = 200;

/// How many queued requests a free worker takes into its next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch the policy ever assembles (already clamped to the
    /// cache-budget bound by [`BatchPolicy::new`]).
    pub max_batch: usize,
}

impl BatchPolicy {
    /// Builds a policy from a configured batch limit, the per-sample
    /// footprint of the served model, and the hardware cache budget. The
    /// effective max batch is `min(limit, budget cap)`, never zero.
    pub fn new(limit: usize, per_sample_bytes: usize, buffer_bytes: usize) -> Self {
        Self {
            max_batch: limit
                .max(1)
                .min(Self::budget_batch_cap(per_sample_bytes, buffer_bytes)),
        }
    }

    /// The cache-budget bound on batch size: how many samples fit the
    /// on-chip buffer through the model's widest node, clamped to
    /// `1..=1024`. A sample that does not fit at all still serves alone
    /// (batch 1), exactly like the scheduler's spill fallback.
    pub fn budget_batch_cap(per_sample_bytes: usize, buffer_bytes: usize) -> usize {
        let (cap, _fits) = footprint::max_sub_batch(per_sample_bytes, buffer_bytes);
        cap.clamp(1, MAX_BATCH_CEILING)
    }

    /// The whole collection rule: a free worker facing `queued` requests
    /// takes `min(queued, max_batch)` of them now. Zero only when nothing
    /// is queued — the one case in which a worker waits.
    pub fn take(&self, queued: usize) -> usize {
        queued.min(self.max_batch)
    }
}

/// Queue-resident metadata of one admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedMeta {
    /// Request priority; **higher values are more important**. Only
    /// strictly lower-priority work may be shed to admit a request.
    pub priority: u8,
    /// Absolute expiry timestamp on the caller's clock (the same clock
    /// `now_us` arguments use), or `None` for no deadline.
    pub deadline_us: Option<u128>,
    /// When the request was admitted, on the same clock.
    pub enqueued_us: u128,
    /// Admission order stamp — FIFO tiebreaker within a priority level.
    pub seq: u64,
}

impl QueuedMeta {
    /// Whether this request is past its deadline at `now_us`.
    pub fn expired(&self, now_us: u128) -> bool {
        self.deadline_us.is_some_and(|d| d <= now_us)
    }
}

/// What [`ShedQueue::offer`] did with an incoming request.
#[derive(Debug)]
pub enum Offer<T> {
    /// The queue had room; the request is in.
    Admitted,
    /// The queue was full, but a queued request was less important: it
    /// was evicted and the incoming request admitted in its place. The
    /// caller must answer the victim (`expired` says whether it was past
    /// its deadline — answer "deadline exceeded" — or merely outranked —
    /// answer "overloaded").
    Shed {
        /// The evicted request.
        victim: (QueuedMeta, T),
        /// `true` when the victim was shed because its deadline passed,
        /// `false` when it was shed for being lower priority.
        expired: bool,
    },
    /// The queue is full of equal-or-higher-priority, unexpired work; the
    /// incoming request itself is refused (returned to the caller).
    Full(T),
}

/// A bounded queue with priority-ordered service and shed-on-full
/// admission — the pure core the server wraps in a mutex/condvar pair.
///
/// Service order ([`ShedQueue::pop`]): highest priority first, FIFO
/// within a priority level, expired entries never returned (they are
/// harvested separately via [`ShedQueue::take_expired`]).
///
/// Shed order ([`ShedQueue::offer`] on a full queue): the most-expired
/// queued request first regardless of priority (its waiter can no longer
/// be satisfied anyway); otherwise the lowest-priority queued request
/// strictly below the incoming priority, tie-broken toward the soonest
/// deadline and then the newest arrival — so among equals the queue
/// sheds from the tail, preserving the oldest request's wait investment.
///
/// # Examples
///
/// ```
/// use mbs_serve::batcher::{Offer, ShedQueue};
///
/// let mut q: ShedQueue<&str> = ShedQueue::new(2);
/// assert!(matches!(q.offer(0, None, 0, "background"), Offer::Admitted));
/// assert!(matches!(q.offer(0, Some(50), 0, "expiring"), Offer::Admitted));
/// // Full queue: an urgent request evicts the lower-priority entry that
/// // expires soonest.
/// match q.offer(2, None, 10, "urgent") {
///     Offer::Shed { victim, expired } => {
///         assert_eq!(victim.1, "expiring");
///         assert!(!expired);
///     }
///     other => panic!("expected a shed, got {other:?}"),
/// }
/// // Service is priority-first: the urgent request jumps the queue.
/// assert_eq!(q.pop(10).unwrap().1, "urgent");
/// assert_eq!(q.pop(10).unwrap().1, "background");
/// ```
#[derive(Debug)]
pub struct ShedQueue<T> {
    capacity: usize,
    next_seq: u64,
    items: Vec<(QueuedMeta, T)>,
}

impl<T> ShedQueue<T> {
    /// An empty queue holding at most `capacity` requests (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            next_seq: 0,
            items: Vec::with_capacity(capacity.max(1)),
        }
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether a plain [`ShedQueue::push`] would fit without shedding.
    pub fn has_room(&self) -> bool {
        self.items.len() < self.capacity
    }

    /// Unconditionally admits a request (the blocking-submit path, whose
    /// caller already waited for [`ShedQueue::has_room`]) at `now_us`.
    /// Never sheds; may overfill if the caller lied about room.
    pub fn push(&mut self, priority: u8, deadline_us: Option<u128>, now_us: u128, item: T) {
        let meta = QueuedMeta {
            priority,
            deadline_us,
            enqueued_us: now_us,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.items.push((meta, item));
    }

    /// Non-blocking admission: pushes when there is room, sheds a less
    /// important queued request when full, refuses the incoming request
    /// when nothing queued is less important. See [`Offer`].
    pub fn offer(
        &mut self,
        priority: u8,
        deadline_us: Option<u128>,
        now_us: u128,
        item: T,
    ) -> Offer<T> {
        if self.has_room() {
            self.push(priority, deadline_us, now_us, item);
            return Offer::Admitted;
        }
        match self.shed_victim(priority, now_us) {
            Some(at) => {
                let victim = self.items.remove(at);
                let expired = victim.0.expired(now_us);
                self.push(priority, deadline_us, now_us, item);
                Offer::Shed { victim, expired }
            }
            None => Offer::Full(item),
        }
    }

    /// Index of the request [`ShedQueue::offer`] would evict for an
    /// incoming request of `priority`, or `None` when the queue holds
    /// only equal-or-higher-priority unexpired work.
    fn shed_victim(&self, priority: u8, now_us: u128) -> Option<usize> {
        // Most expired first: a waiter past its deadline is lost either
        // way, so it is always the cheapest thing to drop.
        if let Some((at, _)) = self
            .items
            .iter()
            .enumerate()
            .filter(|(_, (m, _))| m.expired(now_us))
            .min_by_key(|(_, (m, _))| m.deadline_us)
        {
            return Some(at);
        }
        // Otherwise the least important strictly-lower-priority request:
        // lowest priority, then soonest deadline (None sorts last), then
        // newest arrival.
        self.items
            .iter()
            .enumerate()
            .filter(|(_, (m, _))| m.priority < priority)
            .min_by_key(|(_, (m, _))| {
                (
                    m.priority,
                    m.deadline_us.unwrap_or(u128::MAX),
                    u64::MAX - m.seq,
                )
            })
            .map(|(at, _)| at)
    }

    /// Removes and returns the next request to serve: the oldest request
    /// of the highest priority present, skipping expired entries (those
    /// wait for [`ShedQueue::take_expired`]).
    pub fn pop(&mut self, now_us: u128) -> Option<(QueuedMeta, T)> {
        let at = self
            .items
            .iter()
            .enumerate()
            .filter(|(_, (m, _))| !m.expired(now_us))
            .min_by_key(|(_, (m, _))| (u8::MAX - m.priority, m.seq))
            .map(|(at, _)| at)?;
        Some(self.items.remove(at))
    }

    /// Removes and returns every queued request already past its deadline
    /// at `now_us`, in arrival order. Collectors call this before every
    /// pop so expired requests are answered instead of batched.
    pub fn take_expired(&mut self, now_us: u128) -> Vec<(QueuedMeta, T)> {
        let mut expired = Vec::new();
        let mut i = 0;
        while i < self.items.len() {
            if self.items[i].0.expired(now_us) {
                expired.push(self.items.remove(i));
            } else {
                i += 1;
            }
        }
        expired
    }

    /// Removes and returns everything queued, in arrival order — the
    /// drain path for shutdown and degraded mode.
    pub fn drain_all(&mut self) -> Vec<(QueuedMeta, T)> {
        let mut items = std::mem::take(&mut self.items);
        items.sort_by_key(|(m, _)| m.seq);
        items
    }
}

/// What [`Dispatcher::admit`] did with a submission.
#[derive(Debug)]
pub enum Admit<J> {
    /// The request is queued. A shedding admission may have evicted a
    /// less important request to make room; the caller answers that
    /// victim with the error given.
    Queued(Option<(J, ServeError)>),
    /// The queue is full and this admission does not shed: the job comes
    /// back, and a blocking caller offers it again once room appears.
    Full(J),
    /// The request is refused: [`ServeError::Rejected`] when closed,
    /// [`ServeError::WorkerFailed`] when degraded, and
    /// [`ServeError::Overloaded`] when a shedding admission finds nothing
    /// queued less important.
    Refused(ServeError),
}

/// What a free worker does after [`Dispatcher::next`] has named the
/// requests to answer.
#[derive(Debug)]
pub enum Action<J> {
    /// Run these requests as one batch.
    Run {
        /// The batch, in service order.
        jobs: Vec<J>,
        /// Batches handed out before this one, over every worker — the
        /// dispatch index a [`ServeFaultPlan`](crate::ServeFaultPlan)
        /// names.
        index: u64,
        /// Summed over `jobs`: admission until now, in nanoseconds.
        queue_wait_ns: u64,
    },
    /// Nothing is queued: sleep until a submission or a close.
    Wait,
    /// The server is closed and nothing is queued: the worker exits.
    Exit,
}

/// Every serving decision, as a plain value: admission and shedding,
/// deadline expiry, batch formation, the respawn circuit breaker, the
/// degraded drain and the swap, with the [`ServeStats`] they produce.
///
/// It holds no threads and reads no clock. Each method takes the
/// caller's `now_ns` (nanoseconds on one monotonic clock) and returns
/// what to do; the server's threads hold it under one mutex and carry
/// that out, and tests drive it on a virtual clock. `J` is the queued
/// job, opaque here.
///
/// The lifecycle is three states: accepting, degraded after
/// `max_respawns + 1` consecutive panics ([`Dispatcher::panicked`]), back
/// to accepting on a swap ([`Dispatcher::swapped`]); either way
/// [`Dispatcher::close`] stops intake, and once the queue is drained
/// [`Dispatcher::next`] says [`Action::Exit`].
#[derive(Debug)]
pub struct Dispatcher<J> {
    queue: ShedQueue<J>,
    policy: BatchPolicy,
    config: ServeConfig,
    closed: bool,
    degraded: bool,
    /// Worker panics since the last successful batch or swap.
    consecutive_panics: u32,
    /// EWMA of forward nanoseconds per served request; `0` until the
    /// first batch. Feeds the `retry_after_us` hint.
    request_ns: f64,
    /// Batches handed out so far.
    dispatched: u64,
    stats: ServeStats,
}

impl<J> Dispatcher<J> {
    /// An accepting dispatcher with an empty queue of
    /// `config.queue_depth` (minimum 1) and batches of at most
    /// `config.max_batch` (minimum 1).
    pub fn new(config: ServeConfig) -> Self {
        Self {
            queue: ShedQueue::new(config.queue_depth),
            policy: BatchPolicy {
                max_batch: config.max_batch.max(1),
            },
            config,
            closed: false,
            degraded: false,
            consecutive_panics: 0,
            request_ns: 0.0,
            dispatched: 0,
            stats: ServeStats::default(),
        }
    }

    /// Offers a request submitted at `now_ns`. Its priority is clamped to
    /// `0..priority_levels` and its deadline, explicit or the configured
    /// default, counts from `now_ns` — a blocking caller offering again
    /// after [`Admit::Full`] passes its original submission time. With
    /// `shed`, a full queue evicts by [`ShedQueue::offer`]'s rules
    /// instead of returning the job.
    pub fn admit(&mut self, opts: SubmitOptions, now_ns: u128, job: J, shed: bool) -> Admit<J> {
        if self.closed {
            return Admit::Refused(ServeError::Rejected);
        }
        if self.degraded {
            return Admit::Refused(ServeError::WorkerFailed);
        }
        let priority = opts.priority.min(self.config.priority_levels.max(1) - 1);
        let default = (self.config.deadline_us > 0).then_some(u128::from(self.config.deadline_us));
        // The queue keeps microseconds. Rounded up, so a queue wait
        // computed from it is never longer than the real one.
        let now_us = now_ns.div_ceil(1_000);
        let deadline_us = opts
            .deadline
            .map(|d| d.as_micros())
            .or(default)
            .map(|d| now_us + d);
        if !shed && !self.queue.has_room() {
            return Admit::Full(job);
        }
        match self.queue.offer(priority, deadline_us, now_us, job) {
            Offer::Admitted => Admit::Queued(None),
            Offer::Shed {
                victim: (_, victim),
                expired,
            } => {
                let err = if expired {
                    self.stats.expired += 1;
                    ServeError::DeadlineExceeded
                } else {
                    self.stats.shed += 1;
                    self.overloaded()
                };
                Admit::Queued(Some((victim, err)))
            }
            Offer::Full(_) => Admit::Refused(self.overloaded()),
        }
    }

    /// An overloaded answer whose retry hint covers the current queue;
    /// see [`retry_hint_us`].
    fn overloaded(&self) -> ServeError {
        ServeError::Overloaded {
            retry_after_us: retry_hint_us(self.queue.len(), self.request_ns, self.config.workers),
        }
    }

    /// A free worker's next step at `now_ns`. First the requests to
    /// answer at once: everything past its deadline
    /// ([`ServeError::DeadlineExceeded`], never batched), or, while
    /// degraded, everything queued ([`ServeError::WorkerFailed`]). Then
    /// [`Action::Run`] with [`BatchPolicy::take`] of what is left, in
    /// service order; [`Action::Wait`] when nothing is; [`Action::Exit`]
    /// when nothing is and the dispatcher is closed. Never runs a batch
    /// while degraded.
    pub fn next(&mut self, now_ns: u128) -> (Vec<(J, ServeError)>, Action<J>) {
        let now_us = now_ns / 1_000;
        let (answered, err) = if self.degraded {
            let drained = self.queue.drain_all();
            self.stats.failed += drained.len() as u64;
            (drained, ServeError::WorkerFailed)
        } else {
            let expired = self.queue.take_expired(now_us);
            self.stats.expired += expired.len() as u64;
            (expired, ServeError::DeadlineExceeded)
        };
        let answers = answered
            .into_iter()
            .map(|(_, job)| (job, err.clone()))
            .collect();
        let take = self.policy.take(self.queue.len());
        let action = if take > 0 {
            let mut queue_wait_ns = 0;
            // Nothing left in the queue is expired at `now_us`, so every
            // pop yields.
            let jobs = std::iter::from_fn(|| self.queue.pop(now_us))
                .take(take)
                .map(|(meta, job)| {
                    queue_wait_ns += now_ns.saturating_sub(meta.enqueued_us * 1_000) as u64;
                    job
                })
                .collect();
            self.dispatched += 1;
            Action::Run {
                jobs,
                index: self.dispatched - 1,
                queue_wait_ns,
            }
        } else if self.closed {
            Action::Exit
        } else {
            Action::Wait
        };
        (answers, action)
    }

    /// Records a batch of `k` that ran and answered every member, with
    /// its stage times `[queue_wait, collect, forward, fan_out]` in
    /// nanoseconds (see [`ServeStats`]). A success resets the breaker's
    /// count, and the forward time feeds the retry hint.
    pub fn finished(&mut self, k: usize, stage_ns: [u64; 4]) {
        let [queue_wait_ns, collect_ns, forward_ns, fan_out_ns] = stage_ns;
        self.consecutive_panics = 0;
        self.request_ns = fold_request_ns(self.request_ns, forward_ns as f64, k);
        let s = &mut self.stats;
        if s.histogram.len() <= k {
            s.histogram.resize(k + 1, 0);
        }
        s.histogram[k] += 1;
        s.batches += 1;
        s.requests += k as u64;
        s.queue_wait_ns += queue_wait_ns;
        s.collect_ns += collect_ns;
        s.forward_ns += forward_ns;
        s.fan_out_ns += fan_out_ns;
    }

    /// Records a worker panic that left `unanswered` members of its batch
    /// for the caller to answer [`ServeError::WorkerFailed`], and returns
    /// the backoff in milliseconds before that worker serves again (2 ms
    /// doubled per consecutive panic, at most 200 ms). The
    /// `max_respawns + 1`-th consecutive panic trips the breaker: the
    /// dispatcher turns degraded, is not counted as a respawn, and from
    /// then on refuses and drains everything until [`Dispatcher::swapped`].
    pub fn panicked(&mut self, unanswered: usize) -> u64 {
        self.consecutive_panics += 1;
        let tripped = self.consecutive_panics > self.config.max_respawns;
        self.degraded |= tripped;
        self.stats.panics += 1;
        self.stats.respawns += u64::from(!tripped);
        self.stats.failed += unanswered as u64;
        (BACKOFF_BASE_MS << self.consecutive_panics.min(6)).min(BACKOFF_CAP_MS)
    }

    /// Records a successful model swap: the breaker resets and a degraded
    /// dispatcher accepts again.
    pub fn swapped(&mut self) {
        self.consecutive_panics = 0;
        self.degraded = false;
        self.stats.swaps += 1;
    }

    /// Stops intake for good: later admissions are
    /// [`ServeError::Rejected`], and what is queued is still served.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether the breaker has tripped and no swap has healed it yet.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }
}

/// The per-request service-time EWMA after a forward pass of `dt_ns`
/// over `k` requests. Dividing by the batch's own size — not by the
/// largest batch the policy allows — keeps the estimate right whether
/// batches run full or, as at light load, hold one request each. `prev`
/// is `0` before the first measurement.
fn fold_request_ns(prev: f64, dt_ns: f64, k: usize) -> f64 {
    let per_request = dt_ns / k.max(1) as f64;
    if prev <= 0.0 {
        per_request
    } else {
        0.8 * prev + 0.2 * per_request
    }
}

/// Microseconds until a request admitted behind `queue_len` others would
/// be served: `(queue_len + 1) × request_ns ÷ workers`. Before the first
/// measured batch (`request_ns` 0) there is nothing to go on, and the
/// hint is the smallest one.
fn retry_hint_us(queue_len: usize, request_ns: f64, workers: usize) -> u64 {
    let drain_ns = (queue_len as f64 + 1.0) * request_ns / workers.max(1) as f64;
    ((drain_ns / 1e3).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The EWMA after `n` identical forward passes of `dt_ns` over `k`.
    fn settled(dt_ns: f64, k: usize, n: usize) -> f64 {
        (0..n).fold(0.0, |ewma, _| fold_request_ns(ewma, dt_ns, k))
    }

    #[test]
    fn retry_hint_is_the_queue_drain_time_at_singleton_batches() {
        // 1 ms forwards of one request each, 8 queued, one worker: the
        // refused request would be the ninth in line.
        let request_ns = settled(1e6, 1, 20);
        assert_eq!(request_ns, 1e6);
        assert_eq!(retry_hint_us(8, request_ns, 1), 9_000);
    }

    #[test]
    fn retry_hint_does_not_depend_on_how_requests_were_batched() {
        // The same service rate, reached in full batches: 8 ms per 8.
        assert_eq!(settled(8e6, 8, 20), settled(1e6, 1, 20));
        assert_eq!(retry_hint_us(8, settled(8e6, 8, 20), 1), 9_000);
        // A mix converges on the same per-request time too.
        let mixed = (0..40).fold(0.0, |ewma, i| {
            let k = [1, 8, 3][i % 3];
            fold_request_ns(ewma, k as f64 * 1e6, k)
        });
        assert!((mixed - 1e6).abs() < 1.0, "mixed batches read {mixed} ns");
    }

    #[test]
    fn retry_hint_splits_the_queue_across_workers() {
        assert_eq!(retry_hint_us(8, 1e6, 2), 4_500);
        assert_eq!(retry_hint_us(0, 1e6, 2), 500);
        assert_eq!(retry_hint_us(8, 1e6, 0), 9_000, "zero workers reads as one");
    }

    #[test]
    fn retry_hint_before_any_measurement_is_the_smallest() {
        assert_eq!(retry_hint_us(64, 0.0, 1), 1);
    }

    #[test]
    fn budget_cap_mirrors_the_scheduler_footprint_model() {
        // 10 KiB budget / 1 KiB per sample -> 10 samples.
        assert_eq!(BatchPolicy::budget_batch_cap(1024, 10 * 1024), 10);
        // Too big to fit -> serve alone, like the scheduler's fallback.
        assert_eq!(BatchPolicy::budget_batch_cap(1 << 30, 1024), 1);
        // No footprint -> finite ceiling, not usize::MAX.
        assert_eq!(BatchPolicy::budget_batch_cap(0, 1024), MAX_BATCH_CEILING);
    }

    #[test]
    fn new_clamps_the_limit_to_the_budget() {
        let p = BatchPolicy::new(64, 1024, 8 * 1024);
        assert_eq!(p.max_batch, 8);
        let p = BatchPolicy::new(4, 1024, 8 * 1024);
        assert_eq!(p.max_batch, 4);
        let p = BatchPolicy::new(0, 1024, 8 * 1024);
        assert_eq!(p.max_batch, 1, "a zero limit still serves one at a time");
    }

    #[test]
    fn take_is_everything_queued_up_to_the_cap() {
        let p = BatchPolicy::new(4, 0, 0);
        assert_eq!(p.take(0), 0, "an empty queue is the only wait");
        assert_eq!(p.take(1), 1, "a lone request goes at once");
        assert_eq!(p.take(3), 3, "a partial batch is not held for more");
        assert_eq!(p.take(4), 4);
        assert_eq!(p.take(9), 4, "the rest waits for the next free worker");
    }

    #[test]
    fn pop_serves_priority_first_fifo_within() {
        let mut q: ShedQueue<u32> = ShedQueue::new(8);
        q.push(0, None, 0, 10);
        q.push(2, None, 0, 20);
        q.push(0, None, 0, 11);
        q.push(2, None, 0, 21);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop(0)).map(|(_, v)| v).collect();
        assert_eq!(order, vec![20, 21, 10, 11]);
    }

    #[test]
    fn pop_never_returns_expired_entries() {
        let mut q: ShedQueue<u32> = ShedQueue::new(8);
        q.push(5, Some(100), 0, 1); // high priority but expired at t=100
        q.push(0, None, 0, 2);
        assert_eq!(q.pop(100).unwrap().1, 2, "expired high-prio is skipped");
        assert!(q.pop(100).is_none(), "only the expired entry remains");
        let expired = q.take_expired(100);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].1, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn offer_sheds_expired_before_lower_priority() {
        let mut q: ShedQueue<u32> = ShedQueue::new(2);
        q.push(0, None, 0, 1);
        q.push(3, Some(50), 0, 2); // expires at t=50
                                   // At t=60 the expired high-priority entry is the victim even
                                   // though the no-deadline entry has lower priority.
        match q.offer(1, None, 60, 3) {
            Offer::Shed { victim, expired } => {
                assert_eq!(victim.1, 2);
                assert!(expired);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn offer_sheds_only_strictly_lower_priority() {
        let mut q: ShedQueue<u32> = ShedQueue::new(2);
        q.push(1, None, 0, 1);
        q.push(1, None, 0, 2);
        // Equal priority does not shed: the incoming request is refused.
        assert!(matches!(q.offer(1, None, 0, 3), Offer::Full(3)));
        // Higher priority sheds the newest of the lowest level.
        match q.offer(2, None, 0, 4) {
            Offer::Shed { victim, expired } => {
                assert_eq!(victim.1, 2, "ties shed from the tail");
                assert!(!expired);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // Served order: the admitted high-priority request first.
        assert_eq!(q.pop(0).unwrap().1, 4);
        assert_eq!(q.pop(0).unwrap().1, 1);
    }

    #[test]
    fn drain_all_returns_arrival_order() {
        let mut q: ShedQueue<u32> = ShedQueue::new(4);
        q.push(0, None, 0, 1);
        q.push(7, None, 0, 2);
        q.push(3, Some(1), 0, 3);
        let drained: Vec<u32> = q.drain_all().into_iter().map(|(_, v)| v).collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert!(q.is_empty());
    }
}
