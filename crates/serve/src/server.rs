//! The in-process request loop: admission control, supervision, hot swap.
//!
//! [`Server::start`] spawns thread-per-core workers behind one bounded,
//! priority-ordered request queue (a [`ShedQueue`] under a mutex/condvar
//! pair). Each request carries its own oneshot response slot; a
//! [`Client`] submits a single sample and gets a [`Pending`] handle to
//! wait on. Collection is work-conserving: a free worker sleeps only
//! while the queue is empty, then takes `min(queued, max_batch)` requests
//! ([`BatchPolicy::take`]) and dispatches at once — a lone request is
//! never held for batch-mates, and a batch larger than one is exactly
//! what queued up while every worker was busy. Each worker installs a
//! [`LocalArena`](mbs_tensor::arena::LocalArena) so scratch-buffer reuse
//! never contends across workers. [`ServeStats`] splits the time a
//! request spends in the server into queue-wait, collect, forward and
//! fan-out.
//!
//! **Overload.** [`Client::submit`] blocks while the queue is full (the
//! classic backpressure path); [`Client::try_submit`] never blocks —
//! when the queue is full it sheds the most-expired, then
//! lowest-priority queued request to admit more important work, and
//! refuses the incoming request with [`ServeError::Overloaded`] (carrying
//! a `retry_after_us` computed from the measured per-request service
//! time) when nothing queued is less important.
//! Collectors answer already-expired requests with
//! [`ServeError::DeadlineExceeded`] *before* batching, so no forward pass
//! is wasted on a result nobody will read.
//!
//! **Supervision.** Every worker runs its collect/dispatch loop under
//! [`std::panic::catch_unwind`]. A panic mid-batch answers every request
//! in the doomed batch with [`ServeError::WorkerFailed`] (a drop guard
//! owns the batch, so even the panic path answers), then the worker
//! respawns with exponential backoff. A run of consecutive panics with no
//! successful batch in between trips the circuit breaker
//! ([`ServeConfig::max_respawns`]): the server flips into **degraded**
//! mode, where submissions and queued work are rejected fast with
//! `WorkerFailed` instead of being fed to a model that keeps crashing.
//! A successful [`Server::swap`] heals a degraded server.
//!
//! **Hot swap.** [`Server::swap`] (and the file/directory conveniences
//! [`Server::swap_file`] / [`Server::swap_latest`]) validates the
//! replacement model *off* the worker path — checkpoint checksum and
//! fingerprint guards via the loading path, geometry compatibility, and
//! a probe forward — then flips the shared handle between batches. Every
//! in-flight batch finishes on the handle it started with, so each
//! response is attributable to exactly one model version; a failed load
//! or probe leaves the previous model serving (automatic rollback).
//!
//! The server lifecycle is a three-state machine:
//!
//! ```text
//! accepting ──(max_respawns+1 consecutive panics)──▶ degraded
//!     ▲                                                 │
//!     └────────────(successful Server::swap)────────────┘
//! accepting | degraded ──(shutdown / drop)──▶ shut down (terminal)
//! ```
//!
//! Shutdown closes the queue; workers drain whatever is already queued
//! (every accepted request still gets its response), then exit.
//! Submissions after shutdown fail fast with [`ServeError::Rejected`] —
//! no hangs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mbs_cnn::{FeatureShape, Network};
use mbs_core::{HardwareConfig, Schedule};
use mbs_tensor::{arena, Tensor};
use mbs_train::checkpoint::LoadReport;

use crate::batcher::{BatchPolicy, Offer, ShedQueue};
use crate::faults::ServeFaultPlan;
use crate::model::{ModelError, ModelHandle, ModelRunner, Prediction};

/// Base of the worker-respawn exponential backoff, in milliseconds
/// (doubled per consecutive panic, capped at [`BACKOFF_CAP_MS`]).
const BACKOFF_BASE_MS: u64 = 2;

/// Ceiling of the worker-respawn backoff, in milliseconds.
const BACKOFF_CAP_MS: u64 = 200;

/// Longest a worker sleeps on a condvar before re-checking the
/// closed/degraded flags — bounds how stale a state flip can go
/// unnoticed, never how long a request waits.
const POLL_CAP: Duration = Duration::from_millis(25);

/// Why a request failed. Every variant's `Display` text names the
/// recovery action, so surfacing the error *is* the runbook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server is shutting down (or already shut down) and accepts no
    /// new work. Terminal — do not retry against this server.
    Rejected,
    /// The server is saturated: the queue is full of equal-or-higher
    /// priority unexpired work (or this request was shed to admit more
    /// important work). Retry after backing off.
    Overloaded {
        /// Suggested backoff before retrying, in microseconds: how long
        /// the current queue takes to drain at the measured per-request
        /// service time, spread over the workers.
        retry_after_us: u64,
    },
    /// The request's deadline passed before a result was ready — it was
    /// never batched, so no compute was wasted on it. Retry with a longer
    /// deadline or at lower load.
    DeadlineExceeded,
    /// A serving worker crashed while this request was in its batch (or
    /// the server is degraded after repeated crashes). The request was
    /// never answered from the model, so retrying is safe; a degraded
    /// server heals on the next successful model swap.
    WorkerFailed,
    /// The sample's shape does not match the served model's input.
    Shape {
        /// The `[c, h, w]` shape the model expects.
        expected: Vec<usize>,
        /// The shape that was submitted.
        found: Vec<usize>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected => {
                write!(f, "server is shut down; submit to a live server instead")
            }
            Self::Overloaded { retry_after_us } => write!(
                f,
                "server is overloaded and shed this request; retry after ~{retry_after_us}us"
            ),
            Self::DeadlineExceeded => write!(
                f,
                "deadline passed before a result was ready; retry with a \
                 longer deadline or at lower load"
            ),
            Self::WorkerFailed => write!(
                f,
                "a serving worker failed before answering; the request was \
                 not served — safe to retry (a degraded server heals on the \
                 next successful model swap)"
            ),
            Self::Shape { expected, found } => {
                write!(
                    f,
                    "sample shape {found:?} does not match model input {expected:?}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Why [`Server::swap`] refused to flip to a new model. In every case the
/// previously served model keeps serving untouched — rollback is the
/// absence of the flip, so a failed swap can never lose or mis-answer an
/// in-flight request.
#[derive(Debug)]
pub enum SwapError {
    /// The replacement checkpoint failed to load or validate (corrupt
    /// file, checksum mismatch, wrong network, state that does not fit).
    Load(ModelError),
    /// The replacement model serves a different input/output geometry
    /// than the running one, so queued requests would stop matching.
    Incompatible {
        /// Geometry of the model currently serving.
        expected: String,
        /// Geometry of the rejected replacement.
        found: String,
    },
    /// The replacement loaded but its probe forward panicked — it would
    /// have taken the workers down with it.
    Probe,
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Load(e) => write!(f, "swap rejected, old model keeps serving: {e}"),
            Self::Incompatible { expected, found } => write!(
                f,
                "swap rejected, old model keeps serving: replacement serves \
                 {found} but the server was started for {expected}"
            ),
            Self::Probe => write!(
                f,
                "swap rejected, old model keeps serving: the replacement's \
                 probe forward panicked"
            ),
        }
    }
}

impl std::error::Error for SwapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SwapError {
    fn from(e: ModelError) -> Self {
        Self::Load(e)
    }
}

/// Per-request submission options: a priority level and an optional
/// deadline. The default is the lowest priority with no explicit deadline
/// (the server's [`ServeConfig::deadline_us`] default still applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// Priority level, clamped to `0..ServeConfig::priority_levels`;
    /// **higher is more important**. Admission control only sheds work of
    /// strictly lower priority.
    pub priority: u8,
    /// Deadline measured from submission; `None` falls back to the
    /// server's configured default (which may be "no deadline"). A
    /// request past its deadline is answered
    /// [`ServeError::DeadlineExceeded`] instead of being batched.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Options at `priority` with no explicit deadline.
    pub fn priority(priority: u8) -> Self {
        Self {
            priority,
            deadline: None,
        }
    }

    /// Returns `self` with the deadline set.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Sizing and robustness settings for one [`Server`]. Build it by hand
/// for exact control (tests pin batch sizes this way) or from the model +
/// hardware budget via [`ServeConfig::for_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads (each owns a private [`ModelRunner`]). Minimum 1.
    pub workers: usize,
    /// Largest dynamic batch a worker assembles. `for_model` clamps this
    /// to the cache-budget bound; hand-built configs are taken as-is.
    pub max_batch: usize,
    /// **Ignored.** Nothing is held to wait for batch-mates (see
    /// [`BatchPolicy::take`]); the field is accepted for source
    /// compatibility and goes when the repository benchmark stops
    /// setting it.
    pub max_wait_us: u64,
    /// Bound of the shared request queue — full-queue [`Client::submit`]
    /// calls block (backpressure) and [`Client::try_submit`] calls shed
    /// or refuse ([`ServeError::Overloaded`]).
    pub queue_depth: usize,
    /// Default per-request deadline in microseconds, applied when
    /// [`SubmitOptions::deadline`] is `None`; `0` means no default
    /// deadline.
    pub deadline_us: u64,
    /// Number of priority levels; submitted priorities are clamped to
    /// `0..priority_levels`. Minimum 1.
    pub priority_levels: u8,
    /// Circuit breaker: how many times a panicked worker is respawned
    /// with no successful batch in between before the server flips into
    /// reject-fast degraded mode.
    pub max_respawns: u32,
}

impl Default for ServeConfig {
    /// Small, safe defaults for hand-built configs: 1 worker, batch 8,
    /// queue 32, no default deadline, 4 priority levels, breaker at 3
    /// respawns (`max_wait_us` is ignored, whatever it holds).
    fn default() -> Self {
        Self {
            workers: 1,
            max_batch: 8,
            max_wait_us: 0,
            queue_depth: 32,
            deadline_us: 0,
            priority_levels: 4,
            max_respawns: 3,
        }
    }
}

impl ServeConfig {
    /// Derives a config from the served model and the hardware budget:
    /// one worker per core, max batch = the cache-budget cap
    /// ([`BatchPolicy::budget_batch_cap`]), a queue deep enough for
    /// every worker to have a full batch in flight, no default deadline,
    /// 4 priority levels, and a breaker at 3 respawns (the ignored
    /// `max_wait_us` is left at 0).
    pub fn for_model(model: &ModelHandle, hw: &HardwareConfig) -> Self {
        let workers = hw.cores.max(1);
        let max_batch =
            BatchPolicy::budget_batch_cap(model.per_sample_bytes(), hw.global_buffer_bytes);
        Self {
            workers,
            max_batch,
            max_wait_us: 0,
            queue_depth: (workers * max_batch * 2).max(8),
            deadline_us: 0,
            priority_levels: 4,
            max_respawns: 3,
        }
    }
}

/// Counters a running server accumulates; snapshot via [`Server::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with a prediction.
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// `histogram[k]` = number of batches that held exactly `k` samples
    /// (`histogram[0]` is always 0).
    pub histogram: Vec<u64>,
    /// Requests shed by admission control and answered
    /// [`ServeError::Overloaded`].
    pub shed: u64,
    /// Requests answered [`ServeError::DeadlineExceeded`] (expired in the
    /// queue, or shed while already expired).
    pub expired: u64,
    /// Requests answered [`ServeError::WorkerFailed`] (in a panicked
    /// batch, or drained in degraded mode).
    pub failed: u64,
    /// Worker panics caught by the supervisor.
    pub panics: u64,
    /// Worker respawns performed (panics that did not trip the breaker).
    pub respawns: u64,
    /// Successful model swaps.
    pub swaps: u64,
    /// Nanoseconds served requests spent queued, summed per request:
    /// from submission (a blocking submit's wait for queue room
    /// included) until a free worker popped them.
    pub queue_wait_ns: u64,
    /// Nanoseconds from a batch's pop to the start of its forward pass
    /// (runner refresh, stacking, an injected stall), summed per batch.
    pub collect_ns: u64,
    /// Nanoseconds inside the model's forward pass, summed per batch.
    pub forward_ns: u64,
    /// Nanoseconds from the end of a forward pass until the batch's last
    /// response was ready for its slot, summed per batch. Waking that
    /// last waiter is not included, so the four sums never exceed what
    /// the clients observed.
    pub fan_out_ns: u64,
}

impl ServeStats {
    fn record_batch(&mut self, size: usize) {
        if self.histogram.len() <= size {
            self.histogram.resize(size + 1, 0);
        }
        self.histogram[size] += 1;
        self.batches += 1;
        self.requests += size as u64;
    }

    /// Requests answered in total, over every outcome: predictions,
    /// sheds, expiries, and worker failures.
    pub fn answered(&self) -> u64 {
        self.requests + self.shed + self.expired + self.failed
    }
}

/// Locks a mutex, recovering the guard if a panicking worker poisoned it
/// — supervision must keep running exactly when panics happen.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One waiter's response slot: a hand-rolled oneshot whose abandoned
/// state lets a late worker send be dropped immediately (the buffer is
/// reclaimed right away) instead of erroring the worker loop.
#[derive(Debug)]
struct ResponseSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Debug)]
enum SlotState {
    /// The waiter has not received a result yet.
    Waiting,
    /// A result is parked for the waiter.
    Filled(Result<Prediction, ServeError>),
    /// The waiter gave up (timeout or dropped [`Pending`]); any late fill
    /// is dropped on the spot — the slot is reclaimed, never an error.
    Abandoned,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Waiting),
            cv: Condvar::new(),
        })
    }

    /// Parks `result` for the waiter (exactly-once; later fills of a
    /// filled or abandoned slot are dropped silently).
    fn fill(&self, result: Result<Prediction, ServeError>) {
        let mut s = lock(&self.state);
        if matches!(*s, SlotState::Waiting) {
            *s = SlotState::Filled(result);
            self.cv.notify_all();
        }
        // Filled twice cannot happen (each job is answered once); an
        // Abandoned slot drops `result` here, reclaiming it immediately.
    }
}

/// One queued request: the sample plus its oneshot response slot.
struct Job {
    sample: Tensor,
    slot: Arc<ResponseSlot>,
}

/// The response side of one submitted request.
pub struct Pending {
    slot: Arc<ResponseSlot>,
    taken: bool,
}

impl Pending {
    /// Blocks until the result arrives (a prediction or the structured
    /// error the server answered with).
    ///
    /// # Errors
    ///
    /// Whatever the server answered: [`ServeError::DeadlineExceeded`],
    /// [`ServeError::Overloaded`] (shed), or [`ServeError::WorkerFailed`].
    pub fn wait(mut self) -> Result<Prediction, ServeError> {
        let mut s = lock(&self.slot.state);
        loop {
            if let SlotState::Filled(_) = *s {
                let r = std::mem::replace(&mut *s, SlotState::Abandoned);
                self.taken = true;
                match r {
                    SlotState::Filled(result) => return result,
                    _ => unreachable!("checked Filled above"),
                }
            }
            s = self.slot.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Like [`Pending::wait`] but gives up after `timeout`. Giving up
    /// marks the slot abandoned, so a worker that answers later drops the
    /// result immediately — the slot is reclaimed, the worker loop never
    /// errors, and no buffer leaks.
    ///
    /// # Errors
    ///
    /// [`ServeError::DeadlineExceeded`] when `timeout` passes first; any
    /// error the server answered with.
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<Prediction, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut s = lock(&self.slot.state);
        loop {
            if let SlotState::Filled(_) = *s {
                let r = std::mem::replace(&mut *s, SlotState::Abandoned);
                self.taken = true;
                match r {
                    SlotState::Filled(result) => return result,
                    _ => unreachable!("checked Filled above"),
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                *s = SlotState::Abandoned;
                self.taken = true;
                return Err(ServeError::DeadlineExceeded);
            }
            let (guard, _) = self
                .slot
                .cv
                .wait_timeout(s, left)
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if !self.taken {
            let mut s = lock(&self.slot.state);
            *s = SlotState::Abandoned;
        }
    }
}

/// The queue plus its closed flag, under one mutex.
struct QueueState {
    queue: ShedQueue<Job>,
    closed: bool,
}

/// State shared between the server handle, its clients, and its workers.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when work arrives or the closed/degraded state flips.
    not_empty: Condvar,
    /// Signalled when queue room appears (blocking submit backpressure).
    not_full: Condvar,
    stats: Mutex<ServeStats>,
    /// The served model; [`Server::swap`] replaces the `Arc` and bumps
    /// `model_version`, and workers re-clone their runner when the
    /// version they cached goes stale — an ArcSwap without the crate.
    model: Mutex<Arc<ModelHandle>>,
    model_version: AtomicU64,
    /// Circuit-breaker state: consecutive worker panics with no
    /// successful batch in between, and the reject-fast degraded flag.
    consecutive_panics: AtomicU32,
    degraded: AtomicBool,
    /// EWMA of forward nanoseconds per served *request* (bits of an
    /// `f64`); `0` until the first batch. Feeds `retry_after_us`.
    request_ns_ewma: AtomicU64,
    /// Global dispatch counter driving the fault plan.
    batch_counter: AtomicU64,
    fault: ServeFaultPlan,
    /// Epoch all queue timestamps (admission, deadlines) and stage
    /// boundaries are measured against.
    epoch: Instant,
    input: FeatureShape,
    classes: usize,
    policy: BatchPolicy,
    config: ServeConfig,
}

impl Shared {
    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Resolves submit options against the config and reads the
    /// request's one clock: clamped priority, absolute deadline (explicit
    /// or the configured default), admission time — both in microseconds
    /// since the epoch.
    fn admission(&self, opts: SubmitOptions) -> (u8, Option<u128>, u128) {
        let priority = opts.priority.min(self.config.priority_levels.max(1) - 1);
        let deadline = opts.deadline.map(|d| d.as_micros()).or_else(|| {
            (self.config.deadline_us > 0).then_some(u128::from(self.config.deadline_us))
        });
        // Rounded up, so a queue wait computed from it is never longer
        // than the real one.
        let now_us = self.epoch.elapsed().as_nanos().div_ceil(1_000);
        (priority, deadline.map(|d| now_us + d), now_us)
    }

    /// Suggested retry backoff for an overloaded answer; see
    /// [`retry_hint_us`].
    fn retry_after_us(&self, queue_len: usize) -> u64 {
        let request_ns = f64::from_bits(self.request_ns_ewma.load(Ordering::Relaxed));
        retry_hint_us(queue_len, request_ns, self.config.workers)
    }

    /// Folds one measured forward pass over `k` requests into the
    /// per-request service-time EWMA.
    fn note_batch_time(&self, dt_ns: f64, k: usize) {
        let prev = f64::from_bits(self.request_ns_ewma.load(Ordering::Relaxed));
        let next = fold_request_ns(prev, dt_ns, k);
        self.request_ns_ewma
            .store(next.to_bits(), Ordering::Relaxed);
    }

    /// Answers and counts a shed victim (from `try_submit` admission).
    fn answer_victim(&self, job: Job, expired: bool, queue_len: usize) {
        let mut stats = lock(&self.stats);
        if expired {
            stats.expired += 1;
        } else {
            stats.shed += 1;
        }
        drop(stats);
        let err = if expired {
            ServeError::DeadlineExceeded
        } else {
            ServeError::Overloaded {
                retry_after_us: self.retry_after_us(queue_len),
            }
        };
        job.slot.fill(Err(err));
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

/// A running dynamic-batching inference server. Dropping it (or calling
/// [`Server::shutdown`]) stops intake, drains queued requests, and joins
/// the workers.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawns `config.workers` threads serving `model` and starts
    /// accepting requests.
    pub fn start(model: &ModelHandle, config: ServeConfig) -> Self {
        Self::start_with_faults(model, config, ServeFaultPlan::default())
    }

    /// Like [`Server::start`], with a [`ServeFaultPlan`] injecting
    /// deterministic worker panics and stalls — the chaos-test harness.
    /// Production servers carry the default (empty) plan.
    pub fn start_with_faults(
        model: &ModelHandle,
        config: ServeConfig,
        fault: ServeFaultPlan,
    ) -> Self {
        let policy = BatchPolicy {
            max_batch: config.max_batch.max(1),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                queue: ShedQueue::new(config.queue_depth.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            stats: Mutex::new(ServeStats::default()),
            model: Mutex::new(Arc::new(model.clone())),
            model_version: AtomicU64::new(0),
            consecutive_panics: AtomicU32::new(0),
            degraded: AtomicBool::new(false),
            request_ns_ewma: AtomicU64::new(0),
            batch_counter: AtomicU64::new(0),
            fault,
            epoch: Instant::now(),
            input: model.input(),
            classes: model.classes(),
            policy,
            config,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mbs-serve-{i}"))
                    .spawn(move || worker_thread(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// A handle for submitting requests; clone one per producer thread.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshot of the counters so far.
    pub fn stats(&self) -> ServeStats {
        lock(&self.shared.stats).clone()
    }

    /// Whether the circuit breaker has flipped the server into
    /// reject-fast degraded mode (healed by a successful [`Server::swap`]).
    pub fn is_degraded(&self) -> bool {
        self.shared.is_degraded()
    }

    /// Replaces the served model with `handle`, validated off the worker
    /// path: the geometry must match the running model and a probe
    /// forward must survive. The flip happens between batches — every
    /// in-flight batch finishes on the model it started with, so no
    /// request is lost or answered by a half-swapped model. A successful
    /// swap also heals a degraded server (the breaker resets).
    ///
    /// # Errors
    ///
    /// [`SwapError::Incompatible`] or [`SwapError::Probe`]; on any error
    /// the previous model keeps serving untouched.
    pub fn swap(&self, handle: ModelHandle) -> Result<(), SwapError> {
        if handle.input() != self.shared.input || handle.classes() != self.shared.classes {
            let geometry = |input: FeatureShape, classes: usize| {
                format!(
                    "input [{}, {}, {}] -> {} classes",
                    input.channels, input.height, input.width, classes
                )
            };
            return Err(SwapError::Incompatible {
                expected: geometry(self.shared.input, self.shared.classes),
                found: geometry(handle.input(), handle.classes()),
            });
        }
        // Probe forward on this thread, off the worker path: a model that
        // panics must be rejected here, not take a worker down later.
        let input = handle.input();
        let mut probe = handle.runner();
        let zero = Tensor::zeros(&[input.channels, input.height, input.width]);
        catch_unwind(AssertUnwindSafe(|| probe.infer_one(&zero))).map_err(|_| SwapError::Probe)?;

        let mut model = lock(&self.shared.model);
        *model = Arc::new(handle);
        // Bump under the model lock so workers that re-clone observe a
        // consistent (version, handle) pair.
        self.shared.model_version.fetch_add(1, Ordering::Release);
        drop(model);
        // Self-heal: a validated new model resets the breaker.
        self.shared.consecutive_panics.store(0, Ordering::Release);
        self.shared.degraded.store(false, Ordering::Release);
        lock(&self.shared.stats).swaps += 1;
        // Wake degraded drains so they resume serving promptly.
        self.shared.not_empty.notify_all();
        Ok(())
    }

    /// Loads one checkpoint file for `net` and [`Server::swap`]s to it —
    /// checksum, fingerprint, and state guards included. A corrupt or
    /// mismatched file is a structured error and the old model keeps
    /// serving (automatic rollback).
    ///
    /// # Errors
    ///
    /// [`SwapError::Load`] for everything
    /// [`ModelHandle::load_file`] reports, plus the [`Server::swap`]
    /// errors.
    pub fn swap_file(&self, net: &Network, path: &Path) -> Result<(), SwapError> {
        let handle = ModelHandle::load_file(net, path)?;
        self.swap(handle)
    }

    /// Swaps to the newest checkpoint in `dir` matching the
    /// `(net, schedule)` fingerprint, returning the [`LoadReport`] naming
    /// every corrupt file the scan skipped — "serve checkpoint N while
    /// N+1 loads" with corruption surfaced instead of warned to stderr.
    ///
    /// # Errors
    ///
    /// [`SwapError::Load`] for everything
    /// [`ModelHandle::load_latest_with_report`] reports, plus the
    /// [`Server::swap`] errors.
    pub fn swap_latest(
        &self,
        net: &Network,
        schedule: &Schedule,
        dir: &Path,
    ) -> Result<LoadReport, SwapError> {
        let (handle, report) = ModelHandle::load_latest_with_report(net, schedule, dir)?;
        self.swap(handle)?;
        Ok(report)
    }

    /// Stops intake, waits for the workers to drain every queued request,
    /// and returns the final counters. Requests submitted after this
    /// starts get [`ServeError::Rejected`].
    pub fn shutdown(mut self) -> ServeStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Submits single-sample requests to a [`Server`]. Cheap to clone; safe
/// to share across producer threads.
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Shape-checks a sample and builds its job/pending pair.
    fn make_job(&self, sample: &Tensor) -> Result<(Job, Pending), ServeError> {
        let want = self.shared.input;
        let expected = [want.channels, want.height, want.width];
        let shape = sample.shape();
        let ok = shape == expected || (shape.len() == 4 && shape[0] == 1 && shape[1..] == expected);
        if !ok {
            return Err(ServeError::Shape {
                expected: expected.to_vec(),
                found: shape.to_vec(),
            });
        }
        let slot = ResponseSlot::new();
        Ok((
            Job {
                sample: sample.clone(),
                slot: Arc::clone(&slot),
            },
            Pending { slot, taken: false },
        ))
    }

    /// Submits one sample (shape `[c, h, w]` or `[1, c, h, w]`) at the
    /// default priority and deadline. Blocks only while the request queue
    /// is full (backpressure), never after shutdown — a closed server
    /// rejects immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shape`] for a sample that does not match the model
    /// input, [`ServeError::Rejected`] when the server is shut down,
    /// [`ServeError::WorkerFailed`] when it is degraded.
    pub fn submit(&self, sample: &Tensor) -> Result<Pending, ServeError> {
        self.submit_with(sample, SubmitOptions::default())
    }

    /// Like [`Client::submit`] with an explicit priority and deadline.
    ///
    /// # Errors
    ///
    /// Same as [`Client::submit`].
    pub fn submit_with(&self, sample: &Tensor, opts: SubmitOptions) -> Result<Pending, ServeError> {
        let (job, pending) = self.make_job(sample)?;
        let (priority, deadline_us, now_us) = self.shared.admission(opts);
        let mut qs = lock(&self.shared.queue);
        loop {
            if qs.closed {
                return Err(ServeError::Rejected);
            }
            if self.shared.is_degraded() {
                return Err(ServeError::WorkerFailed);
            }
            if qs.queue.has_room() {
                qs.queue.push(priority, deadline_us, now_us, job);
                drop(qs);
                self.shared.not_empty.notify_one();
                return Ok(pending);
            }
            let (guard, _) = self
                .shared
                .not_full
                .wait_timeout(qs, POLL_CAP)
                .unwrap_or_else(PoisonError::into_inner);
            qs = guard;
        }
    }

    /// Non-blocking admission-controlled submit. When the queue is full,
    /// the least important queued request (most expired first, then
    /// lowest priority strictly below `opts.priority`) is shed — answered
    /// [`ServeError::DeadlineExceeded`] or [`ServeError::Overloaded`] —
    /// to admit this one; when nothing queued is less important, *this*
    /// request is refused with [`ServeError::Overloaded`] carrying a
    /// measured-service-rate backoff hint. Never blocks, never silently
    /// drops.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when refused at a full queue, plus
    /// everything [`Client::submit`] reports.
    pub fn try_submit(&self, sample: &Tensor, opts: SubmitOptions) -> Result<Pending, ServeError> {
        let (job, pending) = self.make_job(sample)?;
        let (priority, deadline_us, now_us) = self.shared.admission(opts);
        let mut qs = lock(&self.shared.queue);
        if qs.closed {
            return Err(ServeError::Rejected);
        }
        if self.shared.is_degraded() {
            return Err(ServeError::WorkerFailed);
        }
        match qs.queue.offer(priority, deadline_us, now_us, job) {
            Offer::Admitted => {
                drop(qs);
                self.shared.not_empty.notify_one();
                Ok(pending)
            }
            Offer::Shed { victim, expired } => {
                let queue_len = qs.queue.len();
                drop(qs);
                let (_, job) = victim;
                self.shared.answer_victim(job, expired, queue_len);
                self.shared.not_empty.notify_one();
                Ok(pending)
            }
            Offer::Full(_) => {
                let queue_len = qs.queue.len();
                drop(qs);
                Err(ServeError::Overloaded {
                    retry_after_us: self.shared.retry_after_us(queue_len),
                })
            }
        }
    }
}

/// The requests one free worker took off the queue together.
struct Batch {
    jobs: Vec<Job>,
    /// When they were popped, since the epoch.
    popped: Duration,
    /// Summed over `jobs`: submission until `popped`, in nanoseconds.
    queue_wait_ns: u64,
}

/// What one collection attempt produced.
enum Collected {
    Batch(Batch),
    /// The server degraded while this worker waited; the caller loops
    /// into the degraded drain.
    Degraded,
    /// The queue is closed and fully drained; the worker exits.
    Closed,
}

/// Answers every queued request already expired at `now_us` with
/// `DeadlineExceeded` — called before each pop so an expired request
/// never enters a batch.
fn answer_expired(shared: &Shared, qs: &mut QueueState, now_us: u128) {
    let expired = qs.queue.take_expired(now_us);
    if expired.is_empty() {
        return;
    }
    lock(&shared.stats).expired += expired.len() as u64;
    for (_, job) in expired {
        job.slot.fill(Err(ServeError::DeadlineExceeded));
    }
    shared.not_full.notify_all();
}

/// Work-conserving batch assembly for one free worker: sleep (in bounded
/// slices, so closed/degraded flips are noticed) only while nothing is
/// poppable, then take what [`BatchPolicy::take`] allows in one pass
/// under the queue lock and return. Nothing is ever held for batch-mates.
fn collect(shared: &Shared) -> Collected {
    let mut qs = lock(&shared.queue);
    loop {
        let popped = shared.epoch.elapsed();
        let (now_us, popped_ns) = (popped.as_micros(), popped.as_nanos());
        answer_expired(shared, &mut qs, now_us);
        let take = shared.policy.take(qs.queue.len());
        if take > 0 {
            let mut jobs = Vec::with_capacity(take);
            let mut queue_wait_ns = 0;
            // Nothing left in the queue is expired at `now_us`, so every
            // pop yields.
            for (meta, job) in std::iter::from_fn(|| qs.queue.pop(now_us)).take(take) {
                queue_wait_ns += popped_ns.saturating_sub(meta.enqueued_us * 1_000) as u64;
                jobs.push(job);
            }
            drop(qs);
            shared.not_full.notify_all();
            return Collected::Batch(Batch {
                jobs,
                popped,
                queue_wait_ns,
            });
        }
        if qs.closed {
            return Collected::Closed;
        }
        if shared.is_degraded() {
            return Collected::Degraded;
        }
        let (guard, _) = shared
            .not_empty
            .wait_timeout(qs, POLL_CAP)
            .unwrap_or_else(PoisonError::into_inner);
        qs = guard;
    }
}

/// Owns a batch through dispatch: any job still unanswered when this
/// drops — i.e. the dispatching worker panicked — is answered
/// [`ServeError::WorkerFailed`], so even the panic path answers every
/// request exactly once.
struct BatchGuard<'a> {
    shared: &'a Shared,
    jobs: Vec<Option<Job>>,
}

impl<'a> BatchGuard<'a> {
    fn new(shared: &'a Shared, batch: Vec<Job>) -> Self {
        Self {
            shared,
            jobs: batch.into_iter().map(Some).collect(),
        }
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        let unanswered: Vec<Job> = self.jobs.iter_mut().filter_map(Option::take).collect();
        if unanswered.is_empty() {
            return;
        }
        lock(&self.shared.stats).failed += unanswered.len() as u64;
        for job in unanswered {
            job.slot.fill(Err(ServeError::WorkerFailed));
        }
    }
}

/// Stacks a batch into one `[k, c, h, w]` tensor, runs the inference
/// forward on the *current* model version (re-cloning the runner if a
/// swap happened since the last batch), and fans the per-row logits back
/// to the response slots. A requester that already gave up (dropped or
/// timed-out [`Pending`]) is skipped silently. May panic — by injected
/// fault or a genuine model bug — in which case the [`BatchGuard`]
/// answers the batch and the supervisor respawns the worker.
fn dispatch(shared: &Shared, runner: &mut Option<(ModelRunner, u64)>, batch: Batch) {
    let mut guard = BatchGuard::new(shared, batch.jobs);
    let index = shared.batch_counter.fetch_add(1, Ordering::Relaxed);
    if !shared.fault.is_empty() {
        if let Some(stall) = shared.fault.stall_for(index) {
            thread::sleep(stall);
        }
        assert!(
            !shared.fault.should_panic(index),
            "mbs-serve fault injection: worker panic at batch {index}"
        );
    }
    // Refresh the runner inside the guard: even a panicking model clone
    // must answer the batch.
    let version = shared.model_version.load(Ordering::Acquire);
    let stale = runner.as_ref().is_none_or(|&(_, v)| v != version);
    if stale {
        let model = lock(&shared.model);
        let v = shared.model_version.load(Ordering::Acquire);
        *runner = Some((model.runner(), v));
    }
    let (runner, _) = runner.as_mut().expect("runner refreshed above");

    let k = guard.jobs.len();
    let shape = runner.input();
    let mut data = Vec::with_capacity(k * shape.elems());
    for job in guard.jobs.iter().flatten() {
        data.extend_from_slice(job.sample.data());
    }
    let x = Tensor::from_vec(&[k, shape.channels, shape.height, shape.width], data);
    let forward_start = shared.epoch.elapsed();
    let y = runner.infer(x);
    let forward_end = shared.epoch.elapsed();
    let forward_ns = (forward_end - forward_start).as_nanos() as u64;
    shared.note_batch_time(forward_ns as f64, k);
    let classes = runner.classes();
    let out = y.data();
    let mut fanned_out = forward_end;
    for i in 0..k {
        let job = guard.jobs[i].take().expect("each job answered once");
        let logits = out[i * classes..(i + 1) * classes].to_vec();
        let prediction = Prediction::from_logits(logits);
        if i + 1 == k {
            // Read before the last waiter can wake; see `fan_out_ns`.
            fanned_out = shared.epoch.elapsed();
        }
        job.slot.fill(Ok(prediction));
    }
    drop(guard);
    let mut stats = lock(&shared.stats);
    stats.record_batch(k);
    stats.queue_wait_ns += batch.queue_wait_ns;
    stats.collect_ns += (forward_start - batch.popped).as_nanos() as u64;
    stats.forward_ns += forward_ns;
    stats.fan_out_ns += (fanned_out - forward_end).as_nanos() as u64;
}

/// Reject-fast service while degraded: every queued (and newly arriving)
/// request is answered [`ServeError::WorkerFailed`] without touching the
/// model. Returns `true` when the server healed (a swap cleared the
/// flag) and serving should resume, `false` when the queue closed.
fn degraded_drain(shared: &Shared) -> bool {
    let mut qs = lock(&shared.queue);
    loop {
        let drained = qs.queue.drain_all();
        if !drained.is_empty() {
            lock(&shared.stats).failed += drained.len() as u64;
            for (_, job) in drained {
                job.slot.fill(Err(ServeError::WorkerFailed));
            }
            shared.not_full.notify_all();
        }
        if !shared.is_degraded() {
            return true;
        }
        if qs.closed {
            return false;
        }
        let (guard, _) = shared
            .not_empty
            .wait_timeout(qs, POLL_CAP)
            .unwrap_or_else(PoisonError::into_inner);
        qs = guard;
    }
}

/// One supervised serving incarnation: collect and dispatch until the
/// queue closes. Panics propagate to the supervisor in
/// [`worker_thread`]; a normal return means clean shutdown.
fn worker_run(shared: &Shared) {
    let _arena = arena::LocalArena::install();
    // The worker's private runner, tagged with the model version it was
    // cloned from; `dispatch` re-clones after a swap.
    let mut runner: Option<(ModelRunner, u64)> = None;
    loop {
        if shared.is_degraded() {
            if degraded_drain(shared) {
                // Healed by a swap: drop the stale runner and resume.
                runner = None;
                continue;
            }
            return;
        }
        match collect(shared) {
            Collected::Closed => return,
            Collected::Degraded => continue,
            Collected::Batch(batch) => {
                dispatch(shared, &mut runner, batch);
                // A successful batch proves the model serves: reset the
                // breaker.
                shared.consecutive_panics.store(0, Ordering::Release);
            }
        }
    }
}

/// The supervisor wrapping one worker thread: runs [`worker_run`] under
/// `catch_unwind`, and on a panic counts it, backs off exponentially,
/// and respawns the loop — or, past [`ServeConfig::max_respawns`]
/// consecutive failures, flips the server into degraded mode (the
/// respawned loop then rejects fast until a swap heals it).
fn worker_thread(shared: &Arc<Shared>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_run(shared))) {
            Ok(()) => return,
            Err(_) => {
                let consecutive = shared.consecutive_panics.fetch_add(1, Ordering::AcqRel) + 1;
                let tripped = consecutive > shared.config.max_respawns;
                {
                    let mut stats = lock(&shared.stats);
                    stats.panics += 1;
                    if !tripped {
                        stats.respawns += 1;
                    }
                }
                if tripped && !shared.degraded.swap(true, Ordering::AcqRel) {
                    // Newly degraded: wake every waiter so blocked
                    // submitters and collectors learn fast.
                    shared.not_empty.notify_all();
                    shared.not_full.notify_all();
                }
                let backoff = (BACKOFF_BASE_MS << consecutive.min(6)).min(BACKOFF_CAP_MS);
                thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
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
}
