//! Property tests for the collection policy on a virtual microsecond
//! clock *with service time*: W workers, a service-time table `t(k)`,
//! seeded arrivals, and the server's own decider — a [`Dispatcher`]
//! asked to `admit`, `next` and `finished` exactly as a worker asks it.
//! The invariants proved here are the ones the server runs under:
//!
//! 1. no batch exceeds the configured max batch size or the cache-budget
//!    bound, and every request lands in exactly one batch, in order;
//! 2. **zero hold** — a batch starts at `max(its oldest member's arrival,
//!    the instant its worker became free)`, never later;
//! 3. **work conservation** — there is no instant at which a worker is
//!    idle while a request is queued;
//! 4. **natural batching** — a batch larger than one holds only requests
//!    that arrived while every worker was busy, and when `max_batch` or
//!    more are queued at a worker's release its next batch is full.
//!
//! The deleted full-or-deadline rule lives on below as an oracle: in the
//! benchmark's regime the work-conserving rule must beat it by most of
//! its 2 ms timer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mbs_serve::{
    Action, Admit, BatchPolicy, Dispatcher, Offer, ServeConfig, ShedQueue, SubmitOptions,
};

/// One simulated dispatch, in virtual µs.
#[derive(Debug)]
struct SimBatch {
    worker: usize,
    /// When its worker finished its previous batch (0 before the first).
    free_us: u128,
    /// When the batch was popped; its forward pass starts at once.
    start_us: u128,
    done_us: u128,
    /// Queued before the pop (members included).
    queued: usize,
    /// Each member's arrival time, in pop order.
    arrivals: Vec<u128>,
}

/// The dispatcher's clock reads nanoseconds.
fn ns(us: u128) -> u128 {
    us * 1_000
}

/// Replays the server's worker loop over sorted arrival times: whichever
/// worker is free first sleeps only while nothing is queued, then asks
/// the dispatcher for its next batch and is busy for `service_us(size)`.
fn simulate(
    policy: BatchPolicy,
    workers: usize,
    arrivals: &[u128],
    service_us: impl Fn(usize) -> u128,
) -> Vec<SimBatch> {
    let mut dispatcher: Dispatcher<usize> = Dispatcher::new(ServeConfig {
        workers,
        max_batch: policy.max_batch,
        queue_depth: arrivals.len(),
        ..ServeConfig::default()
    });
    let mut free_at = vec![0u128; workers];
    let mut batches = Vec::new();
    let (mut admitted, mut served) = (0, 0);
    while served < arrivals.len() {
        let (worker, free_us) = free_at
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(w, t)| (t, w))
            .expect("at least one worker");
        // The oldest unserved request is queued already, or the worker
        // sleeps until it arrives.
        let start_us = free_us.max(arrivals[served]);
        while admitted < arrivals.len() && arrivals[admitted] <= start_us {
            let opts = SubmitOptions::default();
            let admit = dispatcher.admit(opts, ns(arrivals[admitted]), admitted, false);
            assert!(
                matches!(admit, Admit::Queued(None)),
                "the queue holds every arrival"
            );
            admitted += 1;
        }
        let queued = admitted - served;
        let (answers, action) = dispatcher.next(ns(start_us));
        assert!(answers.is_empty(), "nothing expires without a deadline");
        let Action::Run {
            jobs,
            queue_wait_ns,
            ..
        } = action
        else {
            panic!("a free worker facing {queued} queued requests did not run them")
        };
        let members: Vec<u128> = jobs
            .iter()
            .map(|&id| {
                assert_eq!(id, served, "requests of one priority are served in order");
                served += 1;
                arrivals[id]
            })
            .collect();
        let waited: u128 = members.iter().map(|&a| ns(start_us - a)).sum();
        assert_eq!(
            u128::from(queue_wait_ns),
            waited,
            "queue wait is admission to pop"
        );
        let done_us = start_us + service_us(members.len());
        let forward_ns = ns(done_us - start_us) as u64;
        dispatcher.finished(members.len(), [queue_wait_ns, 0, forward_ns, 0]);
        free_at[worker] = done_us;
        batches.push(SimBatch {
            worker,
            free_us,
            start_us,
            done_us,
            queued,
            arrivals: members,
        });
    }
    assert_eq!(dispatcher.stats().requests, arrivals.len() as u64);
    batches
}

/// Whether every worker is inside a batch at `t_us` (the instants a batch
/// starts and ends count as busy).
fn all_busy_at(batches: &[SimBatch], workers: usize, t_us: u128) -> bool {
    (0..workers).all(|w| {
        batches
            .iter()
            .any(|b| b.worker == w && b.start_us <= t_us && t_us <= b.done_us)
    })
}

/// The first `(worker, from, to)` during which a worker sat idle although
/// a request that had arrived was still queued, if any.
fn idle_while_queued(batches: &[SimBatch], workers: usize) -> Option<(usize, u128, u128)> {
    for w in 0..workers {
        // The gaps between this worker's batches, the one before its
        // first and the one after its last included.
        let mine = || batches.iter().filter(move |b| b.worker == w);
        let ends = std::iter::once(0).chain(mine().map(|b| b.done_us));
        let starts = mine().map(|b| b.start_us).chain(std::iter::once(u128::MAX));
        for (idle_from, idle_to) in ends.zip(starts) {
            for b in batches {
                for &arrived in &b.arrivals {
                    let (from, to) = (idle_from.max(arrived), idle_to.min(b.start_us));
                    if from < to {
                        return Some((w, from, to));
                    }
                }
            }
        }
    }
    None
}

/// Cumulative arrival times from gaps.
fn arrivals_from(gaps: &[u64]) -> Vec<u128> {
    let mut t: u128 = 0;
    gaps.iter()
        .map(|&g| {
            t += u128::from(g);
            t
        })
        .collect()
}

/// The deleted full-or-deadline rule on one worker, kept as the oracle
/// the work-conserving rule is compared against: the collector picks up
/// the oldest request when it is free, then holds the batch until it is
/// full or `max_wait_us` have passed *since the pickup*. Returns each
/// request's latency (arrival to end of its forward pass).
fn full_or_deadline_latencies(
    max_batch: usize,
    max_wait_us: u128,
    arrivals: &[u128],
    service_us: impl Fn(usize) -> u128,
) -> Vec<u128> {
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut free_us: u128 = 0;
    let mut i = 0;
    while i < arrivals.len() {
        let first = i;
        let mut now = free_us.max(arrivals[i]);
        let deadline = now + max_wait_us;
        i += 1;
        while i - first < max_batch {
            match arrivals.get(i) {
                Some(&t) if t.max(now) < deadline => {
                    now = t.max(now);
                    i += 1;
                }
                _ => {
                    now = deadline;
                    break;
                }
            }
        }
        free_us = now + service_us(i - first);
        latencies.extend(arrivals[first..i].iter().map(|&a| free_us - a));
    }
    latencies
}

/// `(median, mean, 99th percentile)` of latencies in µs.
fn summary(mut latencies: Vec<u128>) -> (f64, f64, f64) {
    latencies.sort_unstable();
    let n = latencies.len();
    let mean = latencies.iter().sum::<u128>() as f64 / n as f64;
    (
        latencies[n / 2] as f64,
        mean,
        latencies[n * 99 / 100] as f64,
    )
}

/// The benchmark's regime — Poisson arrivals at 300 and 600 requests per
/// second, one worker, `t(k) = 310·k µs` (the measured `batch_gain` ≈ 1),
/// batches of up to 8 — against the deleted rule at its 2 000 µs default.
/// Seeded, so the numbers repeat exactly.
#[test]
fn work_conserving_beats_the_deleted_timer_in_the_benchmark_regime() {
    let service_us = |k: usize| 310 * k as u128;
    for (seed, rps) in [(1u64, 300.0f64), (2, 600.0)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t_us = 0.0f64;
        let arrivals: Vec<u128> = (0..20_000)
            .map(|_| {
                t_us += -(1.0 - rng.gen_range(0.0f64..1.0)).ln() / rps * 1e6;
                t_us as u128
            })
            .collect();
        let policy = BatchPolicy::new(8, 0, 0);
        let new: Vec<u128> = simulate(policy, 1, &arrivals, service_us)
            .iter()
            .flat_map(|b| b.arrivals.iter().map(|&a| b.done_us - a))
            .collect();
        let old = full_or_deadline_latencies(8, 2_000, &arrivals, service_us);
        assert_eq!(new.len(), old.len());
        let (new_p50, new_mean, new_p99) = summary(new);
        let (old_p50, old_mean, old_p99) = summary(old);
        assert!(
            old_p50 - new_p50 >= 1_500.0,
            "{rps} rps: median {new_p50} µs against {old_p50} µs"
        );
        assert!(
            old_mean - new_mean >= 1_500.0,
            "{rps} rps: mean {new_mean:.0} µs against {old_mean:.0} µs"
        );
        assert!(
            new_p99 <= old_p99,
            "{rps} rps: 99th percentile {new_p99} µs against {old_p99} µs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn batches_respect_caps_conservation_and_never_idle_on_queued_work(
        limit in 1usize..24,
        per_sample_bytes in 0usize..4096,
        buffer_bytes in 0usize..65536,
        workers in 1usize..4,
        table in proptest::collection::vec(1u64..3000, 24usize),
        gaps in proptest::collection::vec(0u64..2000, 1usize..80),
    ) {
        let policy = BatchPolicy::new(limit, per_sample_bytes, buffer_bytes);
        // Arrival stream: cumulative jittered gaps (bursts when gap 0).
        let arrivals = arrivals_from(&gaps);
        let batches = simulate(policy, workers, &arrivals, |k| u128::from(table[k - 1]));
        let budget_cap = BatchPolicy::budget_batch_cap(per_sample_bytes, buffer_bytes);
        for b in &batches {
            let size = b.arrivals.len();
            prop_assert!(size >= 1, "empty batch dispatched");
            prop_assert!(
                size <= limit,
                "batch of {size} exceeds the configured limit {limit}"
            );
            prop_assert!(
                size <= budget_cap,
                "batch of {size} exceeds the cache-budget bound {budget_cap}"
            );
            // Zero hold.
            prop_assert_eq!(
                b.start_us,
                b.free_us.max(b.arrivals[0]),
                "batch held after its worker was free and its oldest member queued"
            );
            // Everything queued goes, up to the cap.
            prop_assert_eq!(size, b.queued.min(policy.max_batch));
        }
        // Conservation: every arrival is in exactly one batch, in order.
        let served: Vec<u128> = batches.iter().flat_map(|b| b.arrivals.iter().copied()).collect();
        prop_assert_eq!(&served, &arrivals);
        // Work conservation.
        let idle = idle_while_queued(&batches, workers);
        prop_assert!(idle.is_none(), "worker idle while work was queued: {idle:?}");
    }

    #[test]
    fn batches_larger_than_one_form_only_behind_busy_workers(
        limit in 2usize..12,
        workers in 1usize..4,
        table in proptest::collection::vec(1u64..3000, 12usize),
        // Distinct arrival times: simultaneous arrivals may share a batch
        // at an idle worker, which is not batching behind anything.
        gaps in proptest::collection::vec(1u64..1500, 1usize..80),
    ) {
        let policy = BatchPolicy::new(limit, 0, 0);
        let arrivals = arrivals_from(&gaps);
        let batches = simulate(policy, workers, &arrivals, |k| u128::from(table[k - 1]));
        for b in batches.iter().filter(|b| b.arrivals.len() > 1) {
            prop_assert_eq!(
                b.start_us, b.free_us,
                "a batch of {} went out later than its worker's release", b.arrivals.len()
            );
            for &arrived in &b.arrivals {
                prop_assert!(
                    all_busy_at(&batches, workers, arrived),
                    "a request that arrived at {arrived} with a worker idle was batched: {b:?}"
                );
            }
        }
        // With a full batch's worth queued at a release, the batch is full.
        for b in batches.iter().filter(|b| b.queued >= policy.max_batch) {
            prop_assert_eq!(b.arrivals.len(), policy.max_batch);
        }
    }

    /// Replays a random admit/serve interleaving through a [`ShedQueue`]
    /// on a virtual clock and checks the shedding invariants the server
    /// relies on:
    ///
    /// 1. an expired request never enters a batch (`pop` skips it),
    /// 2. shedding only ever evicts expired or strictly-lower-priority
    ///    work — an unexpired request is never displaced by an equal or
    ///    lower priority arrival, and
    /// 3. every request is accounted for exactly once (admitted and
    ///    served, shed, refused, expired, or still queued at the end).
    #[test]
    fn shed_queue_preserves_priority_and_conservation(
        capacity in 1usize..12,
        ops in proptest::collection::vec(
            // (advance clock by, priority, deadline offset: 0 = none, pop instead of offer)
            (0u64..40, 0u8..4, 0u64..60, proptest::bool::ANY),
            1usize..120,
        ),
    ) {
        let mut q: ShedQueue<usize> = ShedQueue::new(capacity);
        let mut now: u128 = 0;
        let mut offered = 0usize;
        let mut served = 0usize;
        let mut shed = 0usize;
        let mut refused = 0usize;
        let mut expired_count = 0usize;
        for (advance, priority, deadline_offset, is_pop) in ops {
            let (advance, deadline_offset) = (u128::from(advance), u128::from(deadline_offset));
            now += advance;
            // The collector's pre-pop harvest: expired entries leave the
            // queue through the deadline path, never through a batch.
            expired_count += q.take_expired(now).len();
            if is_pop {
                if let Some((meta, _)) = q.pop(now) {
                    prop_assert!(
                        !meta.expired(now),
                        "pop returned an expired request (deadline {:?} at t={now})",
                        meta.deadline_us
                    );
                    served += 1;
                }
                continue;
            }
            let deadline = (deadline_offset > 0).then(|| now + deadline_offset);
            let id = offered;
            offered += 1;
            match q.offer(priority, deadline, now, id) {
                Offer::Admitted => {}
                Offer::Shed { victim: (meta, _), expired } => {
                    prop_assert!(
                        expired == meta.expired(now),
                        "shed mislabeled its victim"
                    );
                    prop_assert!(
                        expired || meta.priority < priority,
                        "unexpired priority-{} victim shed for a priority-{priority} arrival",
                        meta.priority
                    );
                    if expired { expired_count += 1; } else { shed += 1; }
                }
                Offer::Full(_) => refused += 1,
            }
        }
        let leftover = q.drain_all().len();
        prop_assert_eq!(
            served + shed + refused + expired_count + leftover,
            offered,
            "requests lost or duplicated across admit/serve/shed paths"
        );
    }
}
