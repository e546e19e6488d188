//! `mbs-serve`: an overload-safe dynamic-batching inference front-end
//! over the lowered CNN runtime.
//!
//! The paper's central discipline — size work to the on-chip cache budget
//! in [`HardwareConfig`](mbs_core::HardwareConfig) — applies to serving
//! just as it does to training: requests arriving one sample at a time
//! are coalesced into dynamic batches bounded by the cache-budget cap the
//! scheduler's footprint model yields ([`BatchPolicy`]). Batching is
//! work-conserving: a free worker dispatches whatever is queued at once,
//! so batches form only from requests that arrived while every worker
//! was busy, and no request is held on a timer. The pieces:
//!
//! - [`ModelHandle`] ([`model`]): a frozen, `Send + Sync` model loaded
//!   from a [`TrainCheckpoint`](mbs_train::TrainCheckpoint) through the
//!   inference lowering path ([`mbs_train::lower_inference`]) — state
//!   imported, batch norms folded into their convolutions, no training
//!   caches.
//! - [`BatchPolicy`] / [`ShedQueue`] / [`Dispatcher`] ([`batcher`]): the
//!   pure collection rule (take `min(queued, max_batch)`), the bounded
//!   priority queue with shed-on-full admission, and the one clock-free
//!   decider over them — admission, deadline shedding
//!   ([`ServeError::DeadlineExceeded`]), measured-backoff refusals
//!   ([`ServeError::Overloaded`]), the respawn circuit breaker
//!   ([`ServeError::WorkerFailed`]) and [`ServeStats`].
//! - [`Server`] / [`Client`] ([`server`]): thread-per-core workers that
//!   hold the dispatcher and the model under one lock and carry out its
//!   decisions — no wait polls — with per-request oneshot slots, panic
//!   supervision, graceful drain on shutdown, and validated hot model
//!   swap with automatic rollback ([`Server::swap`]).
//! - [`ServeFaultPlan`] ([`faults`]): deterministic worker panics and
//!   stalls, the serving counterpart of the checkpoint
//!   [`FaultPlan`](mbs_train::FaultPlan), driving the chaos tests.
//!
//! Batched serving is **bitwise-identical** to running the same samples
//! one at a time through the same handle: every inference-mode operator
//! is per-sample (or per-element), and the kernels reduce each output
//! element in a batch-independent order. The `equivalence` test suite
//! pins this for every toy net in the zoo, and the swap tests extend it
//! across model versions: every response is bitwise attributable to
//! exactly one served model.

#![warn(missing_docs)]

pub mod batcher;
pub mod faults;
pub mod model;
pub mod server;

pub use batcher::{Action, Admit, BatchPolicy, Dispatcher, Offer, QueuedMeta, ShedQueue};
pub use faults::ServeFaultPlan;
pub use model::{ModelError, ModelHandle, ModelRunner, Prediction};
pub use server::{
    Client, Pending, ServeConfig, ServeError, ServeStats, Server, SubmitOptions, SwapError,
};
