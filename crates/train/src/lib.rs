#![warn(missing_docs)]

//! CNN training substrate for the MBS reproduction (paper §3.1 / Fig. 6).
//!
//! Implements from scratch everything the Fig. 6 experiment needs:
//! trainable layers with backward passes ([`layers`]), batch and group
//! normalization ([`norm`]), a residual CNN ([`model`]), SGD with momentum
//! ([`optim`]), a seeded synthetic dataset ([`data`]), and — centrally —
//! the **MBS serialized executor** ([`executor`]): sub-batch propagation
//! with cross-sub-batch gradient accumulation that is numerically
//! equivalent to full-mini-batch training for group normalization and
//! provably *not* equivalent for batch normalization.
//!
//! Since the schedule-driven-execution PR this crate is also where the
//! repo's two halves meet: [`lower::lower`] compiles an
//! [`mbs_cnn::Network`] (the IR the scheduler consumes — including
//! Inception-style `Concat` blocks, padded/average pooling, and local
//! response norm, so the full zoo lowers) into a runnable [`LoweredNet`],
//! [`grouped::GroupedExecutor`] runs the training step exactly as an
//! `mbs_core` [`mbs_core::Schedule`] prescribes — per-group sub-batch
//! sizes, boundary staging, and a **cache-stashing** backward that keeps
//! every chunk's layer caches alive instead of re-running forwards
//! (`MBS_STASH=0` restores the replay strategy) — and
//! [`training::train_grouped`] drives the full epoch loop (shuffling,
//! evaluation, stepped LR) through that executor.
//!
//! Grouped training is **crash-safe**: [`checkpoint`] provides durable,
//! atomically written, checksummed checkpoints (model state, momentum,
//! shuffle-RNG position, epoch/step cursor) guarded by a
//! schedule fingerprint, and `train_grouped` resumes from the newest
//! valid one — a killed-and-resumed run reproduces the unkilled epoch
//! curve bitwise. See `docs/ARCHITECTURE.md` § Durable state.
//!
//! The training set no longer has to fit in memory: [`loader`] defines
//! the chunked, checksummed `*.mbsds` on-disk dataset format (same
//! atomic-write discipline as checkpoints), a streaming synthetic-
//! ImageNet generator, and a background-prefetch [`loader::StreamLoader`]
//! feeding recycled arena-pooled batch buffers.
//! [`training::train_grouped_source`] trains off either source; the
//! streamed path is **bitwise identical** to the in-memory one — loss
//! curve, final parameters, and checkpoint kill/resume — across every
//! prefetch depth. See `docs/ARCHITECTURE.md` § Data pipeline.
//!
//! # Examples
//!
//! ```
//! use mbs_train::data::generate;
//! use mbs_train::executor::{train_step_full, train_step_mbs};
//! use mbs_train::model::MiniResNet;
//! use mbs_train::norm::NormChoice;
//! use mbs_train::optim::Sgd;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let d = generate(8, 8, 0.3, 7);
//! // Identical seeds => identical models.
//! let mut full = MiniResNet::new(3, 4, 1, NormChoice::Group(4), &mut StdRng::seed_from_u64(1));
//! let mut mbs = MiniResNet::new(3, 4, 1, NormChoice::Group(4), &mut StdRng::seed_from_u64(1));
//! let (mut oa, mut ob) = (Sgd::new(0.05, 0.9, 0.0), Sgd::new(0.05, 0.9, 0.0));
//!
//! let loss_full = train_step_full(&mut full, &d.images, &d.labels, &mut oa);
//! let loss_mbs = train_step_mbs(&mut mbs, &d.images, &d.labels, 2, &mut ob);
//! assert!((loss_full - loss_mbs).abs() < 1e-4); // MBS does not change training
//! ```

pub mod checkpoint;
pub mod data;
pub mod executor;
pub mod grouped;
pub mod layers;
pub mod loader;
pub mod lower;
pub mod model;
pub mod module;
pub mod norm;
pub mod optim;
pub mod training;

pub use checkpoint::{
    CheckpointConfig, CheckpointError, CheckpointWriter, Fault, FaultPlan, LoadReport,
    TrainCheckpoint,
};
pub use executor::{evaluate, train_step_full, train_step_mbs};
pub use grouped::{stash_enabled, GroupedExecutor};
pub use loader::{generate_to, save_dataset, DiskDataset, LoaderError, LoaderStats, StreamLoader};
pub use lower::{lower, lower_inference, InferenceLowerError, LowerError, LoweredNet};
pub use model::MiniResNet;
pub use module::{CacheStash, Module, Param, StateDict, StateEntry, StateError};
pub use norm::{Norm, NormChoice};
pub use optim::Sgd;
pub use training::{
    train, train_grouped, train_grouped_source, train_grouped_source_with_stats, DataSource,
    EpochStats, TrainConfig, TrainError,
};
