//! The in-process request loop: threads that carry out what one
//! [`Dispatcher`] decides.
//!
//! [`Server::start`] spawns thread-per-core workers around **one lock**:
//! a mutex over the [`Dispatcher`] — the bounded, priority-ordered
//! request queue and every serving decision — and the served model.
//! Each request carries its own oneshot response slot; a [`Client`]
//! submits a single sample and gets a [`Pending`] handle to wait on. A
//! worker's loop is: lock, ask [`Dispatcher::next`], then, outside the
//! lock, answer what it names and run the batch it hands out — or sleep
//! on a condvar until a submission or a close. Every state change
//! happens under that lock and wakes whoever sleeps on it, so no wait
//! has a timeout and nothing polls. Collection is work-conserving: a
//! free worker takes `min(queued, max_batch)` requests
//! ([`BatchPolicy::take`]) and dispatches at once — a lone request is
//! never held for batch-mates, and a batch larger than one is exactly
//! what queued up while every worker was busy. Each worker recycles its
//! scratch through its own thread's [`mbs_tensor::arena`] pool, so buffer
//! reuse never contends across workers. [`ServeStats`] splits the time a
//! request spends in the server into queue-wait, collect, forward and
//! fan-out.
//!
//! **Overload.** [`Client::submit`] blocks while the queue is full (the
//! classic backpressure path); [`Client::try_submit`] never blocks —
//! when the queue is full it sheds the most-expired, then
//! lowest-priority queued request to admit more important work, and
//! refuses the incoming request with [`ServeError::Overloaded`] (carrying
//! a `retry_after_us` computed from the measured per-request service
//! time) when nothing queued is less important. Already-expired requests
//! are answered [`ServeError::DeadlineExceeded`] *before* batching, so no
//! forward pass is wasted on a result nobody will read.
//!
//! **Supervision.** A worker runs each batch under
//! [`std::panic::catch_unwind`]. A panic mid-batch answers every
//! unanswered request in it with [`ServeError::WorkerFailed`], drops the
//! worker's runner (the respawn) and sleeps the backoff the dispatcher
//! returns. A run of consecutive panics with no successful batch in
//! between trips the circuit breaker ([`ServeConfig::max_respawns`]):
//! the server turns **degraded**, where submissions and queued work are
//! rejected fast with `WorkerFailed` instead of being fed to a model
//! that keeps crashing. A successful [`Server::swap`] heals a degraded
//! server.
//!
//! **Hot swap.** [`Server::swap`] (and the file/directory conveniences
//! [`Server::swap_file`] / [`Server::swap_latest`]) validates the
//! replacement model *off* the worker path — checkpoint checksum and
//! fingerprint guards via the loading path, geometry compatibility, and
//! a probe forward — then flips the shared handle under the lock. A
//! worker takes the model current when it pops a batch, so every
//! response is attributable to exactly one model version; a failed load
//! or probe leaves the previous model serving (automatic rollback).
//!
//! The server lifecycle is the dispatcher's three-state machine:
//!
//! ```text
//! accepting ──(max_respawns+1 consecutive panics)──▶ degraded
//!     ▲                                                 │
//!     └────────────(successful Server::swap)────────────┘
//! accepting | degraded ──(shutdown / drop)──▶ shut down (terminal)
//! ```
//!
//! Shutdown closes the dispatcher; workers drain whatever is already
//! queued (every accepted request still gets its response), then exit.
//! Submissions after shutdown fail fast with [`ServeError::Rejected`] —
//! no hangs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mbs_cnn::{FeatureShape, Network};
use mbs_core::{HardwareConfig, Schedule};
use mbs_tensor::Tensor;
use mbs_train::checkpoint::LoadReport;

use crate::batcher::{Action, Admit, BatchPolicy, Dispatcher};
use crate::faults::ServeFaultPlan;
use crate::model::{ModelError, ModelHandle, ModelRunner, Prediction};

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
    /// Worker panics caught mid-batch.
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

/// The response side of one submitted request. Dropping it, answered or
/// not, abandons its slot.
pub struct Pending {
    slot: Arc<ResponseSlot>,
}

impl Pending {
    /// Blocks until the result arrives (a prediction or the structured
    /// error the server answered with).
    ///
    /// # Errors
    ///
    /// Whatever the server answered: [`ServeError::DeadlineExceeded`],
    /// [`ServeError::Overloaded`] (shed), or [`ServeError::WorkerFailed`].
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.wait_until(None)
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
    pub fn wait_timeout(self, timeout: Duration) -> Result<Prediction, ServeError> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    /// Waits for the slot to fill, or until `deadline` when one is given.
    fn wait_until(self, deadline: Option<Instant>) -> Result<Prediction, ServeError> {
        let mut s = lock(&self.slot.state);
        loop {
            match std::mem::replace(&mut *s, SlotState::Abandoned) {
                SlotState::Filled(result) => return result,
                other => *s = other,
            }
            let cv = &self.slot.cv;
            s = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => cv.wait(s).unwrap_or_else(PoisonError::into_inner),
                Some(left) if left.is_zero() => return Err(ServeError::DeadlineExceeded),
                Some(left) => {
                    cv.wait_timeout(s, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        *lock(&self.slot.state) = SlotState::Abandoned;
    }
}

/// State shared between the server handle, its clients, and its workers.
struct Shared {
    /// The one lock: every serving decision and the served model.
    state: Mutex<State>,
    /// Signalled when work is queued, the server closes or it degrades.
    work: Condvar,
    /// Signalled when queue room appears, the server closes or it
    /// degrades (blocking-submit backpressure).
    room: Condvar,
    fault: ServeFaultPlan,
    /// Epoch of the one clock every decision and stage time reads.
    epoch: Instant,
    input: FeatureShape,
    classes: usize,
}

/// What [`Shared::state`] guards.
struct State {
    dispatcher: Dispatcher<Job>,
    /// The served model; [`Server::swap`] replaces it and bumps
    /// `version`, and a worker re-clones its runner when the version it
    /// cached goes stale.
    model: Arc<ModelHandle>,
    version: u64,
}

impl Shared {
    fn now_ns(&self) -> u128 {
        self.epoch.elapsed().as_nanos()
    }
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
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                dispatcher: Dispatcher::new(config),
                model: Arc::new(model.clone()),
                version: 0,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
            fault,
            epoch: Instant::now(),
            input: model.input(),
            classes: model.classes(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mbs-serve-{i}"))
                    .spawn(move || worker(&shared))
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
        lock(&self.shared.state).dispatcher.stats().clone()
    }

    /// Whether the circuit breaker has flipped the server into
    /// reject-fast degraded mode (healed by a successful [`Server::swap`]).
    pub fn is_degraded(&self) -> bool {
        lock(&self.shared.state).dispatcher.is_degraded()
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

        let mut state = lock(&self.shared.state);
        state.model = Arc::new(handle);
        state.version += 1;
        state.dispatcher.swapped();
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
        lock(&self.shared.state).dispatcher.close();
        self.shared.work.notify_all();
        self.shared.room.notify_all();
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
        self.offer(sample, opts, false)
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
        self.offer(sample, opts, true)
    }

    /// Shape-checks a sample and offers it to the dispatcher, waiting for
    /// room while a non-shedding offer finds the queue full.
    fn offer(
        &self,
        sample: &Tensor,
        opts: SubmitOptions,
        shed: bool,
    ) -> Result<Pending, ServeError> {
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
        let mut job = Job {
            sample: sample.clone(),
            slot: Arc::clone(&slot),
        };
        // The request's one clock read: its queue wait and deadline count
        // from here, a blocking submit's wait for room included.
        let now_ns = self.shared.now_ns();
        let mut state = lock(&self.shared.state);
        loop {
            match state.dispatcher.admit(opts, now_ns, job, shed) {
                Admit::Queued(victim) => {
                    drop(state);
                    self.shared.work.notify_one();
                    if let Some((victim, err)) = victim {
                        victim.slot.fill(Err(err));
                    }
                    return Ok(Pending { slot });
                }
                Admit::Full(back) => {
                    job = back;
                    state = self
                        .shared
                        .room
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Admit::Refused(err) => return Err(err),
            }
        }
    }
}

/// One serving thread: under the lock it asks the dispatcher what to do,
/// outside it does that — answers requests, runs a batch, sleeps until
/// something changes, or exits.
fn worker(shared: &Shared) {
    // The worker's private runner, tagged with the model version it was
    // cloned from; re-cloned after a swap, dropped after a panic.
    let mut runner: Option<(ModelRunner, u64)> = None;
    let mut state = lock(&shared.state);
    loop {
        let popped_ns = shared.now_ns();
        let (answers, action) = state.dispatcher.next(popped_ns);
        if answers.is_empty() && matches!(action, Action::Wait) {
            state = shared
                .work
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        // The model current at the pop serves the batch; the runner is
        // cloned from it outside the lock.
        let fresh = (matches!(action, Action::Run { .. })
            && runner.as_ref().map(|&(_, v)| v) != Some(state.version))
        .then(|| (Arc::clone(&state.model), state.version));
        drop(state);
        shared.room.notify_all();
        for (job, err) in answers {
            job.slot.fill(Err(err));
        }
        let (jobs, index, queue_wait_ns) = match action {
            Action::Run {
                jobs,
                index,
                queue_wait_ns,
            } => (jobs, index, queue_wait_ns),
            Action::Wait => {
                state = lock(&shared.state);
                continue;
            }
            Action::Exit => return,
        };
        let mut answered = 0;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_batch(
                shared,
                &mut runner,
                fresh,
                &jobs,
                index,
                popped_ns,
                &mut answered,
            )
        }));
        state = lock(&shared.state);
        if let Ok([collect_ns, forward_ns, fan_out_ns]) = ran {
            let stages = [queue_wait_ns, collect_ns, forward_ns, fan_out_ns];
            state.dispatcher.finished(jobs.len(), stages);
            continue;
        }
        let unanswered = &jobs[answered..];
        let backoff_ms = state.dispatcher.panicked(unanswered.len());
        drop(state);
        // The server may have just turned degraded: wake every waiter.
        shared.work.notify_all();
        shared.room.notify_all();
        for job in unanswered {
            job.slot.fill(Err(ServeError::WorkerFailed));
        }
        runner = None;
        thread::sleep(Duration::from_millis(backoff_ms));
        state = lock(&shared.state);
    }
}

/// Runs batch `index`: the fault plan's stall or panic, a runner
/// re-clone when `fresh` carries a newer model, the forward over the
/// stacked `[k, c, h, w]` samples, and the fan-out of each row's logits
/// to its slot (a requester that gave up is skipped silently). Counts
/// the answered jobs in `answered`, so after a panic — injected or a
/// model bug — the caller answers the rest. Returns the collect, forward
/// and fan-out nanoseconds.
fn run_batch(
    shared: &Shared,
    runner: &mut Option<(ModelRunner, u64)>,
    fresh: Option<(Arc<ModelHandle>, u64)>,
    jobs: &[Job],
    index: u64,
    popped_ns: u128,
    answered: &mut usize,
) -> [u64; 3] {
    if let Some(stall) = shared.fault.stall_for(index) {
        thread::sleep(stall);
    }
    assert!(
        !shared.fault.should_panic(index),
        "mbs-serve fault injection: worker panic at batch {index}"
    );
    if let Some((model, version)) = fresh {
        *runner = Some((model.runner(), version));
    }
    let (runner, _) = runner.as_mut().expect("the first batch brings a model");
    let shape = runner.input();
    let mut data = Vec::with_capacity(jobs.len() * shape.elems());
    for job in jobs {
        data.extend_from_slice(job.sample.data());
    }
    let x = Tensor::from_vec(
        &[jobs.len(), shape.channels, shape.height, shape.width],
        data,
    );
    let forward_start = shared.now_ns();
    let y = runner.infer(x);
    let forward_end = shared.now_ns();
    let mut fanned_out = forward_end;
    for (job, logits) in jobs.iter().zip(y.data().chunks_exact(runner.classes())) {
        let prediction = Prediction::from_logits(logits.to_vec());
        if *answered + 1 == jobs.len() {
            // Read before the last waiter can wake; see `fan_out_ns`.
            fanned_out = shared.now_ns();
        }
        job.slot.fill(Ok(prediction));
        *answered += 1;
    }
    [
        forward_start - popped_ns,
        forward_end - forward_start,
        fanned_out - forward_end,
    ]
    .map(|ns| ns as u64)
}
