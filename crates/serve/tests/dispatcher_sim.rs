//! A seeded simulation of the server's decider. The [`Dispatcher`] is
//! driven the way the server's threads drive it — blocking and shedding
//! submissions at mixed priorities and deadlines, workers that take
//! batches and then finish or panic, swaps, a close and a drain — on a
//! virtual nanosecond clock, with no threads, no sleeps and no `Instant`.
//! Over hundreds of seeded schedules it checks the contract the
//! real-thread suites (`chaos.rs`, `swap.rs`, `stress.rs`) rely on:
//!
//! 1. every admitted request is answered exactly once, and
//!    `stats().answered()` counts exactly those answers;
//! 2. a batch never exceeds `max_batch`, holds only the most important
//!    queued work, and none is handed out while degraded;
//! 3. `Overloaded` and `DeadlineExceeded` occur only where
//!    [`ShedQueue`](mbs_serve::ShedQueue)'s rules say, and `WorkerFailed`
//!    only for a panicked batch or a degraded drain;
//! 4. the breaker trips on the `max_respawns + 1`-th consecutive panic and
//!    a swap heals it;
//! 5. blocked submitters are refused `Rejected` once the server closes;
//! 6. the same seed gives the same decision log.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mbs_serve::{Action, Admit, Dispatcher, ServeConfig, ServeError, SubmitOptions};

/// `true` with probability `p`.
fn chance(rng: &mut StdRng, p: f64) -> bool {
    rng.gen_range(0.0f64..1.0) < p
}

/// The simulation's view of one queued request, on the queue's
/// microsecond clock.
#[derive(Debug, Clone, Copy)]
struct Queued {
    priority: u8,
    deadline_us: Option<u128>,
}

impl Queued {
    fn expired(&self, now_us: u128) -> bool {
        self.deadline_us.is_some_and(|d| d <= now_us)
    }
}

/// A blocking submitter waiting for queue room.
struct Blocked {
    id: u64,
    opts: SubmitOptions,
    submitted_ns: u128,
}

/// One serving worker.
#[derive(Default)]
struct Worker {
    /// The batch it is running, if any.
    batch: Option<Vec<u64>>,
    /// Asleep in its respawn backoff until then.
    back_at_ns: u128,
    /// Told to exit.
    exited: bool,
}

struct Sim {
    d: Dispatcher<u64>,
    config: ServeConfig,
    rng: StdRng,
    now_ns: u128,
    next_id: u64,
    /// Shadow of the dispatcher's queue.
    queued: BTreeMap<u64, Queued>,
    blocked: Vec<Blocked>,
    workers: Vec<Worker>,
    /// Every answer given, by request id: `None` for a prediction.
    answers: BTreeMap<u64, Option<ServeError>>,
    admitted: u64,
    /// Batches handed out.
    dispatched: u64,
    closed: bool,
    /// The breaker as the rules say it should stand.
    consecutive_panics: u32,
    degraded: bool,
    log: Vec<String>,
}

impl Sim {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ServeConfig {
            workers: rng.gen_range(1usize..4),
            max_batch: rng.gen_range(0usize..6),
            max_wait_us: 0,
            queue_depth: rng.gen_range(0usize..8),
            deadline_us: if chance(&mut rng, 0.5) {
                0
            } else {
                rng.gen_range(1u64..2_000)
            },
            priority_levels: rng.gen_range(0u8..5),
            max_respawns: rng.gen_range(0u32..4),
        };
        let log = vec![format!("{config:?}")];
        Self {
            d: Dispatcher::new(config),
            config,
            rng,
            now_ns: 0,
            next_id: 0,
            queued: BTreeMap::new(),
            blocked: Vec::new(),
            workers: (0..config.workers).map(|_| Worker::default()).collect(),
            answers: BTreeMap::new(),
            admitted: 0,
            dispatched: 0,
            closed: false,
            consecutive_panics: 0,
            degraded: false,
            log,
        }
    }

    fn capacity(&self) -> usize {
        self.config.queue_depth.max(1)
    }

    fn answer(&mut self, id: u64, answer: Option<ServeError>) {
        let earlier = self.answers.insert(id, answer);
        assert!(earlier.is_none(), "request {id} answered twice");
    }

    /// Offers request `id`, submitted at `submitted_ns`, and checks the
    /// outcome against the admission rules. Returns whether a blocking
    /// submitter has to keep waiting.
    fn admit(&mut self, id: u64, opts: SubmitOptions, submitted_ns: u128, shed: bool) -> bool {
        // The queue's clock: admission rounds up to the microsecond.
        let now_us = submitted_ns.div_ceil(1_000);
        let priority = opts.priority.min(self.config.priority_levels.max(1) - 1);
        let default = (self.config.deadline_us > 0).then_some(u128::from(self.config.deadline_us));
        let deadline_us = opts
            .deadline
            .map(|d| d.as_micros())
            .or(default)
            .map(|d| now_us + d);
        let full = self.queued.len() == self.capacity();
        let outcome = self.d.admit(opts, submitted_ns, id, shed);
        self.log
            .push(format!("{} admit {id} {shed} -> {outcome:?}", self.now_ns));
        match outcome {
            Admit::Queued(victim) => {
                assert!(
                    !self.closed && !self.degraded,
                    "admitted while closed or degraded"
                );
                if let Some((victim, err)) = victim {
                    assert!(
                        shed && full,
                        "shed without a shedding offer at a full queue"
                    );
                    let v = self.queued.remove(&victim).expect("the victim was queued");
                    let any_expired = self.queued.values().any(|q| q.expired(now_us));
                    match err {
                        ServeError::DeadlineExceeded => assert!(v.expired(now_us)),
                        ServeError::Overloaded { retry_after_us } => {
                            assert!(retry_after_us > 0);
                            assert!(
                                !v.expired(now_us) && !any_expired,
                                "expired work goes first"
                            );
                            assert!(
                                v.priority < priority,
                                "only strictly lower priority is shed"
                            );
                            let lowest = self.queued.values().map(|q| q.priority).min();
                            assert!(lowest.is_none_or(|p| v.priority <= p));
                        }
                        other => panic!("a victim answered {other:?}"),
                    }
                    self.answer(victim, Some(err));
                } else {
                    assert!(!full, "a full queue admitted without shedding");
                }
                self.queued.insert(
                    id,
                    Queued {
                        priority,
                        deadline_us,
                    },
                );
                self.admitted += 1;
                false
            }
            Admit::Full(back) => {
                assert_eq!(back, id);
                assert!(!shed && full && !self.closed && !self.degraded);
                true
            }
            Admit::Refused(err) => {
                match err {
                    ServeError::Rejected => assert!(self.closed),
                    ServeError::WorkerFailed => assert!(!self.closed && self.degraded),
                    ServeError::Overloaded { retry_after_us } => {
                        assert!(shed && full && !self.closed && !self.degraded);
                        assert!(retry_after_us > 0);
                        assert!(
                            self.queued
                                .values()
                                .all(|q| !q.expired(now_us) && q.priority >= priority),
                            "refused although something queued was less important"
                        );
                    }
                    other => panic!("refused with {other:?}"),
                }
                false
            }
        }
    }

    fn submit(&mut self) {
        let id = self.next_id;
        self.next_id += 1;
        let mut opts = SubmitOptions::priority(self.rng.gen_range(0u8..6));
        if chance(&mut self.rng, 0.4) {
            opts = opts.deadline(Duration::from_micros(self.rng.gen_range(1u64..800)));
        }
        let shed = chance(&mut self.rng, 0.5);
        if self.admit(id, opts, self.now_ns, shed) {
            self.blocked.push(Blocked {
                id,
                opts,
                submitted_ns: self.now_ns,
            });
        }
    }

    /// Room may have appeared: every blocked submitter offers again, at
    /// its original submission time.
    fn wake_blocked(&mut self) {
        for b in std::mem::take(&mut self.blocked) {
            if self.admit(b.id, b.opts, b.submitted_ns, false) {
                self.blocked.push(b);
            }
        }
    }

    /// Worker `w`, free, asks for its next step.
    fn next(&mut self, w: usize) {
        let now_us = self.now_ns / 1_000;
        let (answers, action) = self.d.next(self.now_ns);
        self.log.push(format!(
            "{} next {w} -> {answers:?} {action:?}",
            self.now_ns
        ));
        for (id, err) in answers {
            let q = self.queued.remove(&id).expect("answered from the queue");
            match err {
                ServeError::DeadlineExceeded => assert!(!self.degraded && q.expired(now_us)),
                ServeError::WorkerFailed => assert!(self.degraded, "failed while healthy"),
                other => panic!("next answered {other:?}"),
            }
            self.answer(id, Some(err));
        }
        assert!(
            self.degraded || self.queued.values().all(|q| !q.expired(now_us)),
            "an expired request was left queued"
        );
        match action {
            Action::Run { jobs, index, .. } => {
                assert!(!self.degraded, "a batch was handed out while degraded");
                assert_eq!(index, self.dispatched, "dispatch indices count batches");
                self.dispatched += 1;
                let cap = self.config.max_batch.max(1);
                assert_eq!(
                    jobs.len(),
                    self.queued.len().min(cap),
                    "work-conserving take"
                );
                let popped: Vec<Queued> = jobs
                    .iter()
                    .map(|id| self.queued.remove(id).expect("batched from the queue"))
                    .collect();
                let least = popped
                    .iter()
                    .map(|q| q.priority)
                    .min()
                    .expect("non-empty batch");
                assert!(
                    self.queued.values().all(|q| q.priority <= least),
                    "a batch left more important work queued"
                );
                self.workers[w].batch = Some(jobs);
            }
            Action::Wait => assert!(self.queued.is_empty() && !self.closed),
            Action::Exit => {
                assert!(self.queued.is_empty() && self.closed);
                self.workers[w].exited = true;
            }
        }
    }

    /// Worker `w`'s batch ends: it answers every member, or it panics and
    /// they are answered `WorkerFailed`.
    fn complete(&mut self, w: usize, panic: bool) {
        let jobs = self.workers[w].batch.take().expect("a busy worker");
        if panic {
            let backoff_ms = self.d.panicked(jobs.len());
            self.consecutive_panics += 1;
            let want = (2u64 << self.consecutive_panics.min(6)).min(200);
            assert_eq!(backoff_ms, want, "exponential backoff, capped");
            self.degraded |= self.consecutive_panics > self.config.max_respawns;
            self.workers[w].back_at_ns = self.now_ns + u128::from(backoff_ms) * 1_000_000;
            self.log
                .push(format!("{} panicked {w} -> {backoff_ms}", self.now_ns));
            for id in jobs {
                self.answer(id, Some(ServeError::WorkerFailed));
            }
        } else {
            let k = jobs.len();
            self.d.finished(k, [k as u64, 1, 2, 3]);
            self.consecutive_panics = 0;
            self.log.push(format!("{} finished {w} {k}", self.now_ns));
            for id in jobs {
                self.answer(id, None);
            }
        }
        assert_eq!(self.d.is_degraded(), self.degraded, "the breaker's state");
    }

    fn swap(&mut self) {
        self.d.swapped();
        self.consecutive_panics = 0;
        self.degraded = false;
        self.log.push(format!("{} swapped", self.now_ns));
    }

    fn free_workers(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| {
                let wk = &self.workers[w];
                wk.batch.is_none() && !wk.exited && wk.back_at_ns <= self.now_ns
            })
            .collect()
    }

    fn busy_workers(&self) -> Vec<usize> {
        (0..self.workers.len())
            .filter(|&w| self.workers[w].batch.is_some())
            .collect()
    }

    /// One random event.
    fn step(&mut self) {
        match self.rng.gen_range(0u32..100) {
            0..=39 => self.submit(),
            40..=54 => self.wake_blocked(),
            55..=74 => {
                let free = self.free_workers();
                if !free.is_empty() {
                    let w = free[self.rng.gen_range(0..free.len())];
                    self.next(w);
                }
            }
            75..=89 => {
                let busy = self.busy_workers();
                if !busy.is_empty() {
                    let w = busy[self.rng.gen_range(0..busy.len())];
                    let panic = chance(&mut self.rng, 0.2);
                    self.complete(w, panic);
                }
            }
            90..=91 => self.swap(),
            _ => self.now_ns += u128::from(self.rng.gen_range(0u64..400_000)),
        }
    }

    /// Closes the server and serves until every worker has exited.
    fn close_and_drain(&mut self) {
        self.d.close();
        self.closed = true;
        self.log.push(format!(
            "{} closed, {} blocked",
            self.now_ns,
            self.blocked.len()
        ));
        let waiting = self.blocked.len();
        self.wake_blocked();
        assert!(
            self.blocked.is_empty(),
            "{waiting} blocked submitters left waiting"
        );
        let mut rounds = 0;
        while self.workers.iter().any(|w| !w.exited) {
            rounds += 1;
            assert!(rounds < 10_000, "the drain does not end");
            self.submit();
            for w in self.busy_workers() {
                let panic = chance(&mut self.rng, 0.1);
                self.complete(w, panic);
            }
            for w in self.free_workers() {
                self.next(w);
            }
            self.now_ns += 1_000_000;
        }
    }

    /// The end-of-run accounting.
    fn check_accounting(&self) {
        assert_eq!(
            self.answers.len() as u64,
            self.admitted,
            "admitted but never answered"
        );
        let stats = self.d.stats();
        assert_eq!(stats.answered(), self.answers.len() as u64);
        let count = |want: fn(&Option<ServeError>) -> bool| {
            self.answers.values().filter(|a| want(a)).count() as u64
        };
        assert_eq!(stats.requests, count(|a| a.is_none()));
        assert_eq!(
            stats.expired,
            count(|a| *a == Some(ServeError::DeadlineExceeded))
        );
        assert_eq!(
            stats.failed,
            count(|a| *a == Some(ServeError::WorkerFailed))
        );
        assert_eq!(
            stats.shed,
            count(|a| matches!(a, Some(ServeError::Overloaded { .. })))
        );
        assert_eq!(stats.histogram.iter().sum::<u64>(), stats.batches);
        assert!(stats
            .histogram
            .iter()
            .enumerate()
            .all(|(k, &n)| n == 0 || (1..=self.config.max_batch.max(1)).contains(&k)));
    }
}

/// Runs one seeded schedule to the end and returns its decision log.
fn simulate(seed: u64) -> Vec<String> {
    let mut sim = Sim::new(seed);
    let steps = sim.rng.gen_range(50usize..400);
    for _ in 0..steps {
        sim.step();
    }
    sim.close_and_drain();
    sim.check_accounting();
    sim.log
}

#[test]
fn every_schedule_answers_each_request_once_by_the_rules() {
    let log: Vec<String> = (0..300).flat_map(simulate).collect();
    // Each rule was exercised somewhere, so no check above is vacuous.
    for path in [
        ["admit", "-> Queued(Some(", "Overloaded"],
        ["admit", "-> Queued(Some(", "DeadlineExceeded"],
        ["admit", "-> Refused(Overloaded", ""],
        ["admit", "-> Refused(WorkerFailed)", ""],
        ["admit", "-> Refused(Rejected)", ""],
        ["admit", "-> Full(", ""],
        ["next", "DeadlineExceeded)]", "Run"],
        ["next", "WorkerFailed)]", "Wait"],
        ["next", "Run", ""],
        ["panicked", "", ""],
        ["closed,", "blocked", ""],
    ] {
        assert!(
            log.iter()
                .any(|line| path.iter().all(|p| line.contains(p))
                    && !line.contains("closed, 0 blocked")),
            "no schedule took the path {path:?}"
        );
    }
}

#[test]
fn the_same_seed_makes_the_same_decisions() {
    for seed in [0, 7, 299] {
        let log = simulate(seed);
        assert!(log.len() > 10, "seed {seed} decided almost nothing");
        assert_eq!(log, simulate(seed), "seed {seed}");
    }
}

/// The breaker in one fixed schedule: `max_respawns` respawns, the next
/// panic degrades, a degraded dispatcher refuses and drains, and a swap
/// heals it.
#[test]
fn the_breaker_trips_after_max_respawns_and_a_swap_heals() {
    let mut d: Dispatcher<u64> = Dispatcher::new(ServeConfig {
        max_respawns: 2,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let opts = SubmitOptions::default();
    for (i, want_ms) in [4, 8, 16].into_iter().enumerate() {
        assert!(matches!(
            d.admit(opts, 0, i as u64, false),
            Admit::Queued(None)
        ));
        let (answers, action) = d.next(0);
        assert!(answers.is_empty() && matches!(action, Action::Run { .. }));
        assert_eq!(d.panicked(1), want_ms);
        assert_eq!(d.is_degraded(), i == 2, "after panic {}", i + 1);
    }
    assert!(matches!(
        d.admit(opts, 0, 9, false),
        Admit::Refused(ServeError::WorkerFailed)
    ));
    assert!(matches!(d.next(0), (a, Action::Wait) if a.is_empty()));
    d.swapped();
    assert!(!d.is_degraded());
    assert!(matches!(d.admit(opts, 0, 10, true), Admit::Queued(None)));
    let stats = d.stats();
    assert_eq!(
        (stats.panics, stats.respawns, stats.failed, stats.swaps),
        (3, 2, 3, 1)
    );
}
