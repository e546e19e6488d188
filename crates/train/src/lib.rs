#![warn(missing_docs)]

//! CNN training substrate for the MBS reproduction (paper §3.1 / Fig. 6).
//!
//! Implements from scratch everything the Fig. 6 experiment needs:
//! trainable layers with backward passes ([`layers`]), batch and group
//! normalization ([`norm`]), SGD with momentum ([`optim`]), a seeded
//! synthetic dataset ([`data`]), and — centrally — the **MBS serialized
//! step**: sub-batch propagation with cross-sub-batch gradient
//! accumulation that is numerically equivalent to the full-mini-batch
//! step ([`executor::train_step_full`]) for group normalization and
//! provably *not* equivalent for batch normalization.
//!
//! There is one training stack, and it is where the repo's two halves
//! meet: [`lower::lower`] compiles an [`mbs_cnn::Network`] (the IR the
//! scheduler consumes — including Inception-style `Concat` blocks,
//! padded/average pooling, and local response norm, so the full zoo
//! lowers) into a runnable [`LoweredNet`], [`grouped::GroupedExecutor`]
//! runs the training step exactly as an `mbs_core`
//! [`mbs_core::Schedule`] prescribes — per-group sub-batch sizes,
//! boundary staging, and a **cache-stashing** backward that keeps every
//! chunk's layer caches alive instead of re-running forwards
//! (`MBS_STASH=0` restores the replay strategy) — and
//! [`training::train_grouped`] drives the full epoch loop (shuffling,
//! evaluation, stepped LR) through that executor. A uniform sub-batch
//! step (paper Tab. 3's MBS-FS), and with `sub = batch` the conventional
//! step, is the one-group [`mbs_core::Schedule::uniform`].
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
//! use mbs_cnn::{networks::toy, NormKind};
//! use mbs_core::Schedule;
//! use mbs_train::data::generate;
//! use mbs_train::executor::train_step_full;
//! use mbs_train::grouped::GroupedExecutor;
//! use mbs_train::lower::lower;
//! use mbs_train::optim::Sgd;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let d = generate(8, 8, 0.3, 7);
//! let net = toy::fig6_resnet(8, 4, 1, Some(NormKind::Group { groups: 4 }), 8);
//! // Identical seeds => identical models.
//! let mut full = lower(&net, &mut StdRng::seed_from_u64(1)).unwrap();
//! let mut mbs = lower(&net, &mut StdRng::seed_from_u64(1)).unwrap();
//! let (mut oa, mut ob) = (Sgd::new(0.05, 0.9, 0.0), Sgd::new(0.05, 0.9, 0.0));
//! // MBS-FS: the whole network propagates 2 samples at a time.
//! let mut exec = GroupedExecutor::new(&Schedule::uniform(&net, 8, 2), mbs.len());
//!
//! let loss_full = train_step_full(&mut full, &d.images, &d.labels, &mut oa);
//! let loss_mbs = exec.train_step(&mut mbs, &d.images, &d.labels, &mut ob);
//! assert!((loss_full - loss_mbs).abs() < 1e-4); // MBS does not change training
//! ```

pub mod checkpoint;
pub mod data;
pub mod executor;
pub mod grouped;
pub mod layers;
pub mod loader;
pub mod lower;
pub mod module;
pub mod norm;
pub mod optim;
pub mod training;

pub use checkpoint::{
    CheckpointConfig, CheckpointError, CheckpointWriter, Fault, FaultPlan, LoadReport,
    TrainCheckpoint,
};
pub use executor::{evaluate, train_step_full};
pub use grouped::{stash_enabled, GroupedExecutor};
pub use loader::{generate_to, save_dataset, DiskDataset, LoaderError, LoaderStats, StreamLoader};
pub use lower::{lower, lower_inference, InferenceLowerError, LowerError, LoweredNet};
pub use module::{CacheStash, Module, Param, StateDict, StateEntry, StateError};
pub use norm::{Norm, NormChoice};
pub use optim::Sgd;
pub use training::{
    train_grouped, train_grouped_source, train_grouped_source_with_stats, DataSource, EpochStats,
    TrainConfig, TrainError,
};
