//! Dynamic-batch sizing policy and the admission-controlled queue.
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
//! nothing queued is less important. Collectors harvest expired requests
//! ([`ShedQueue::take_expired`]) *before* batching, so a request past its
//! deadline never wastes a forward pass.
//!
//! Policy and queue are both pure — plain integers for sizes and
//! priorities, microsecond timestamps (`u128`) for time — so the worker
//! loop and the property-test simulations drive the exact same
//! arithmetic, the former from [`std::time::Instant`] deltas and the
//! latter from virtual clocks.

use mbs_core::footprint;

/// Ceiling on the budget-derived batch cap, so footprint-free models
/// (`per_sample_bytes == 0`) still get a finite batch size.
const MAX_BATCH_CEILING: usize = 1024;

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

#[cfg(test)]
mod tests {
    use super::*;

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
