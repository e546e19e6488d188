//! The training loop: [`train_grouped`] runs epochs (shuffling, per-epoch
//! evaluation and pre-activation probes, stepped learning rate) with every
//! training step executed by a [`GroupedExecutor`] running an `mbs_core`
//! [`Schedule`] over a lowered IR network. The Fig. 6 experiment's legs —
//! BN full-batch, GN at a uniform sub-batch, no normalization — are this
//! loop under a one-group [`Schedule::uniform`].

use std::fmt;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

use mbs_cnn::Network;
use mbs_core::Schedule;
use mbs_tensor::arena::LocalArena;

use crate::checkpoint::{
    self, CheckpointConfig, CheckpointError, CheckpointWriter, FaultPlan, TrainCheckpoint,
};
use crate::container;
use crate::data::Dataset;
use crate::executor::evaluate;
use crate::grouped::GroupedExecutor;
use crate::loader::{self, DiskDataset, LoaderStats, StreamLoader};
use crate::lower::{lower, LowerError, LoweredNet};
use crate::module::{slice_batch, Module, StateDict, StateError};
use crate::optim::{step_lr, Sgd};

/// Experiment configuration (a scaled-down Fig. 6: the paper trains
/// ResNet50 on ImageNet for 90 epochs with decays at 30/60/80).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Base learning rate (paper Fig. 6 uses 0.05).
    pub base_lr: f32,
    /// Epochs at which the learning rate decays by 10x.
    pub lr_milestones: Vec<usize>,
    /// Momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// RNG seed for init and shuffling.
    pub seed: u64,
    /// Crash-safe checkpointing for [`train_grouped`] (`None` = no
    /// checkpoints; [`CheckpointConfig::new`] turns it on).
    pub checkpoint: Option<CheckpointConfig>,
    /// Grouped backward strategy: `None` or `Some(true)` stashes caches,
    /// `Some(false)` replays chunk forwards instead, holding no stash (see
    /// [`GroupedExecutor::set_stashing`]).
    pub stashing: Option<bool>,
    /// Test-only fault-injection plan for checkpoint saves (`None` in
    /// real runs). See [`FaultPlan`].
    pub fault_plan: Option<FaultPlan>,
    /// Prefetch depth for streamed sources (`None` = depth 2,
    /// [`loader::DEFAULT_PREFETCH`]; `1` is the degenerate near-synchronous
    /// mode). Ignored for in-memory sources —
    /// the prefetch depth never changes *what* is trained, only whether
    /// the step loop waits on disk.
    pub prefetch: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch: 16,
            base_lr: 0.05,
            lr_milestones: vec![15, 25],
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 1234,
            checkpoint: None,
            stashing: None,
            fault_plan: None,
            prefetch: None,
        }
    }
}

/// Where [`train_grouped_source`] reads training samples from. The
/// validation split stays in memory either way (it is read once per
/// epoch, sequentially — nothing to stream).
#[derive(Debug)]
pub enum DataSource {
    /// A fully materialized in-memory dataset (the classic path).
    Memory(Dataset),
    /// A `*.mbsds` file streamed through a background-prefetch
    /// [`StreamLoader`] — bitwise-equivalent to loading the same file
    /// into memory and training on it, across every prefetch depth
    /// (pinned by `tests/loader_equivalence.rs`).
    Stream(PathBuf),
}

impl From<Dataset> for DataSource {
    fn from(set: Dataset) -> Self {
        Self::Memory(set)
    }
}

impl From<PathBuf> for DataSource {
    fn from(path: PathBuf) -> Self {
        Self::Stream(path)
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f32,
    /// Validation top-1 error in percent.
    pub val_error_pct: f64,
    /// Mean input of the first top-level ReLU: the first pre-activation
    /// (`0.0` if the network has no top-level ReLU). See
    /// [`LoweredNet::preactivation_means`].
    pub preact_first: f32,
    /// Mean input of the last top-level ReLU.
    pub preact_last: f32,
}

/// Why [`train_grouped`] could not run (or finish) a training job.
#[derive(Debug)]
pub enum TrainError {
    /// Lowering rejected the network geometry.
    Lower(LowerError),
    /// A dataset split's images do not match the network input shape.
    DatasetMismatch {
        /// Network name.
        net: String,
        /// Which split mismatched (`"train"` or `"validation"`).
        split: &'static str,
        /// Per-sample shape the network expects (channels, height, width).
        expected: [usize; 3],
        /// Image tensor shape the split actually carries.
        found: Vec<usize>,
    },
    /// A dataset split has a different number of images and labels.
    LabelMismatch {
        /// Which split mismatched (`"train"` or `"validation"`).
        split: &'static str,
        /// Number of images in the split.
        images: usize,
        /// Number of labels in the split.
        labels: usize,
    },
    /// The schedule covers a different node count than the network.
    ScheduleMismatch {
        /// Network name.
        net: String,
        /// Nodes the schedule's groups cover.
        schedule_nodes: usize,
        /// Nodes the network actually has.
        net_nodes: usize,
        /// Name of the first network node the schedule leaves uncovered
        /// (`None` when the schedule covers *too many* nodes).
        first_uncovered: Option<String>,
    },
    /// Saving or loading a checkpoint failed.
    Checkpoint(CheckpointError),
    /// Opening or streaming the on-disk training set failed (bad file,
    /// chunk corruption, I/O error).
    Loader(container::Error),
    /// A resumed checkpoint's state did not fit the lowered model —
    /// format drift the fingerprint could not catch.
    State(StateError),
    /// The run was deterministically killed by the configured
    /// [`FaultPlan`] after completing this many checkpoint saves
    /// (test harness only; real crashes do not produce an error value).
    Killed {
        /// Checkpoint saves completed before the kill.
        saves: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lower(e) => write!(f, "lowering failed: {e}"),
            Self::DatasetMismatch {
                net,
                split,
                expected,
                found,
            } => write!(
                f,
                "{split} images have shape {found:?} but net {net:?} expects \
                 [N, {}, {}, {}]",
                expected[0], expected[1], expected[2]
            ),
            Self::LabelMismatch {
                split,
                images,
                labels,
            } => write!(f, "{split} split has {images} images but {labels} labels"),
            Self::ScheduleMismatch {
                net,
                schedule_nodes,
                net_nodes,
                first_uncovered,
            } => {
                write!(
                    f,
                    "schedule covers {schedule_nodes} nodes but net {net:?} has {net_nodes}"
                )?;
                if let Some(name) = first_uncovered {
                    write!(f, " (first uncovered node: {name:?})")?;
                }
                Ok(())
            }
            Self::Checkpoint(e) => write!(f, "checkpointing failed: {e}"),
            Self::Loader(e) => write!(f, "streaming the training set failed: {e}"),
            Self::State(e) => write!(f, "resumed state does not fit the model: {e}"),
            Self::Killed { saves } => {
                write!(f, "run killed by fault plan after {saves} checkpoint saves")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Lower(e) => Some(e),
            Self::Checkpoint(e) => Some(e),
            Self::Loader(e) => Some(e),
            Self::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LowerError> for TrainError {
    fn from(e: LowerError) -> Self {
        Self::Lower(e)
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<StateError> for TrainError {
    fn from(e: StateError) -> Self {
        Self::State(e)
    }
}

impl From<container::Error> for TrainError {
    fn from(e: container::Error) -> Self {
        Self::Loader(e)
    }
}

/// Trains a network **as the scheduler planned it**: `net` is lowered to a
/// runnable model and every training step runs through a
/// [`GroupedExecutor`] executing `schedule` — per-group sub-batch sizes,
/// boundary staging, cache-stashing backward (or replay with
/// `cfg.stashing = Some(false)`). The epoch loop shuffles per epoch (seeded by
/// `cfg.seed`), steps the learning rate at `cfg.lr_milestones`, and
/// validates after every epoch; the schedule carries the serialization
/// plan — [`Schedule::uniform`] for one sub-batch size over the whole
/// network, `sub = batch` for the conventional step.
///
/// The pre-activation probes of the returned [`EpochStats`] report the
/// mean input of the first and last *top-level* ReLU nodes (`0.0` if the
/// network has none) — the Fig. 6 diagnostic.
///
/// # Crash safety
///
/// With `cfg.checkpoint` set, the run saves durable checkpoints — always
/// at epoch boundaries, plus every [`CheckpointConfig::every_steps`]
/// steps — and resumes from the newest valid one on restart. A save costs the step loop one copy of
/// the state: a [`CheckpointWriter`] thread makes it durable behind the
/// next steps and is joined before this function returns, `Ok` or `Err`,
/// so a returned call means the newest checkpoint is on disk (mid-run it
/// may trail the trainer by one save). **Guarantee:** a run killed at any point
/// and resumed from its checkpoint directory produces the same epoch
/// curve as the unkilled run — bitwise, because the checkpoint restores
/// the exact shuffle-RNG state alongside parameters, running statistics,
/// and momentum. The equivalence is pinned by the kill/resume matrix in
/// `tests/checkpoint_resume.rs` across both backward strategies.
///
/// # Errors
///
/// Returns a structured [`TrainError`] when the inputs disagree before
/// any training happens — dataset shape or label-count mismatches,
/// a schedule whose groups do not cover the network (naming the first
/// uncovered node), or a geometry lowering rejects — and when
/// checkpointing fails or a resumed checkpoint does not fit.
///
/// # Examples
///
/// ```
/// use mbs_cnn::networks::toy;
/// use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
/// use mbs_train::data::generate;
/// use mbs_train::training::{train_grouped, TrainConfig, TrainError};
///
/// fn main() -> Result<(), TrainError> {
///     let net = toy::runtime_mix(8, 8);
///     let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
///     let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
///     let train_set = generate(16, 8, 0.3, 1);
///     let val_set = generate(8, 8, 0.3, 2);
///     let cfg = TrainConfig { epochs: 1, batch: 8, ..TrainConfig::default() };
///     let curve = train_grouped(&net, &schedule, &train_set, &val_set, &cfg)?;
///     assert_eq!(curve.len(), 1);
///     Ok(())
/// }
/// ```
pub fn train_grouped(
    net: &Network,
    schedule: &Schedule,
    train_set: &Dataset,
    val_set: &Dataset,
    cfg: &TrainConfig,
) -> Result<Vec<EpochStats>, TrainError> {
    let _arena = LocalArena::install();
    run_grouped(net, schedule, Feed::Memory(train_set), val_set, cfg).map(|(curve, _)| curve)
}

/// [`train_grouped`] over a [`DataSource`]: identical semantics whether
/// the training set is in memory or streamed off disk. The streamed path
/// shuffles with the *same* trainer-side RNG calls as the in-memory one
/// (the loader thread only materializes the order it is handed), so loss
/// curves, final parameters, and checkpoint kill/resume are **bitwise**
/// unchanged across sources and prefetch depths — pinned by
/// `tests/loader_equivalence.rs`.
///
/// # Errors
///
/// Everything [`train_grouped`] returns, plus [`TrainError::Loader`]
/// when the `*.mbsds` file cannot be opened or a chunk fails its
/// checksum mid-stream. On any error the loader thread is joined before
/// returning — a failed run leaks neither the thread nor its buffers.
///
/// # Examples
///
/// ```
/// use mbs_cnn::networks::toy;
/// use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
/// use mbs_train::loader::generate_to;
/// use mbs_train::training::{train_grouped_source, DataSource, TrainConfig, TrainError};
///
/// fn main() -> Result<(), TrainError> {
///     let dir = std::env::temp_dir().join("mbsds-doc-train");
///     let path = dir.join("train.mbsds");
///     generate_to(&path, 16, 8, 0.3, 1)?;
///     let net = toy::runtime_mix(8, 8);
///     let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
///     let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
///     let val_set = mbs_train::data::generate(8, 8, 0.3, 2);
///     let cfg = TrainConfig { epochs: 1, batch: 8, ..TrainConfig::default() };
///     let curve = train_grouped_source(&net, &schedule, &DataSource::Stream(path), &val_set, &cfg)?;
///     assert_eq!(curve.len(), 1);
///     # let _ = std::fs::remove_dir_all(&dir);
///     Ok(())
/// }
/// ```
pub fn train_grouped_source(
    net: &Network,
    schedule: &Schedule,
    source: &DataSource,
    val_set: &Dataset,
    cfg: &TrainConfig,
) -> Result<Vec<EpochStats>, TrainError> {
    train_grouped_source_with_stats(net, schedule, source, val_set, cfg).map(|(curve, _)| curve)
}

/// [`train_grouped_source`] that also returns the loader's counters
/// (`None` for in-memory sources) — prefetch stalls, bytes off disk,
/// chunk reads: what the repository benchmark reports as
/// `train.loader.{stalls, bytes_read, chunk_loads}`.
///
/// # Errors
///
/// Same as [`train_grouped_source`].
pub fn train_grouped_source_with_stats(
    net: &Network,
    schedule: &Schedule,
    source: &DataSource,
    val_set: &Dataset,
    cfg: &TrainConfig,
) -> Result<(Vec<EpochStats>, Option<LoaderStats>), TrainError> {
    let _arena = LocalArena::install();
    let feed = match source {
        DataSource::Memory(set) => Feed::Memory(set),
        DataSource::Stream(path) => {
            let disk = DiskDataset::open(path)?;
            let prefetch = cfg.prefetch.unwrap_or(loader::DEFAULT_PREFETCH);
            let loader = StreamLoader::new(&disk, prefetch)?;
            Feed::Stream { disk, loader }
        }
    };
    run_grouped(net, schedule, feed, val_set, cfg)
}

/// The training set as the epoch loop sees it. The two arms must stay
/// observably identical per step — same batch bits, same trainer-side
/// RNG consumption — or the streamed/in-memory bitwise contract breaks.
enum Feed<'a> {
    Memory(&'a Dataset),
    Stream {
        disk: DiskDataset,
        loader: StreamLoader,
    },
}

impl Feed<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Memory(set) => set.len(),
            Self::Stream { disk, .. } => disk.len(),
        }
    }

    fn image_shape(&self) -> Vec<usize> {
        match self {
            Self::Memory(set) => set.images.shape().to_vec(),
            Self::Stream { disk, .. } => disk.shape().to_vec(),
        }
    }

    fn label_count(&self) -> usize {
        match self {
            Self::Memory(set) => set.labels.len(),
            // The format stores exactly one label per record.
            Self::Stream { disk, .. } => disk.len(),
        }
    }

    /// The pre-activation probe batch: the first `k` samples, bitwise
    /// identical across arms (disk round trips are bitwise).
    fn probe(&self, k: usize) -> Result<mbs_tensor::Tensor, TrainError> {
        match self {
            Self::Memory(set) => Ok(slice_batch(&set.images, 0, k)),
            Self::Stream { disk, .. } => Ok(disk.read_prefix(k)?.0),
        }
    }

    /// Announces the epoch's shuffled order so the prefetch thread can
    /// run ahead. No-op for in-memory feeds.
    fn begin_epoch(&mut self, order: &[usize], batch: usize, skip: usize) {
        if let Self::Stream { loader, .. } = self {
            loader.begin_epoch(order, batch, skip);
        }
    }

    fn stats(&self) -> Option<LoaderStats> {
        match self {
            Self::Memory(_) => None,
            Self::Stream { loader, .. } => Some(loader.stats()),
        }
    }
}

/// One training run. Its callers open the run's arena scope
/// ([`LocalArena`]) before building `feed`, so everything the run leaves
/// pooled — the loader's queued batches included, which drop with `feed`
/// at the end of this call — is freed when the scope ends, and the next
/// run's peak is its own rather than stacked on this run's idle buffers.
fn run_grouped(
    net: &Network,
    schedule: &Schedule,
    mut feed: Feed<'_>,
    val_set: &Dataset,
    cfg: &TrainConfig,
) -> Result<(Vec<EpochStats>, Option<LoaderStats>), TrainError> {
    validate_inputs(net, schedule, &feed, val_set)?;
    let fingerprint = schedule.fingerprint(net);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = lower(net, &mut rng)?;
    let mut exec = GroupedExecutor::new(schedule, model.len());
    if let Some(stashing) = cfg.stashing {
        exec.set_stashing(stashing);
    }
    let mut opt = Sgd::new(cfg.base_lr, cfg.momentum, cfg.weight_decay);
    let n = feed.len();
    let probe = feed.probe(n.min(8))?;
    let mut order: Vec<usize> = (0..n).collect();
    let mut curve = Vec::with_capacity(cfg.epochs);

    // Resume bookkeeping: where to continue and how much of the first
    // epoch is already done. The writer starts first: it sweeps torn
    // `.tmp` files and numbers its saves past every file already in the
    // directory, even corrupt ones.
    let mut start_epoch = 0usize;
    let mut resumed_steps = 0usize;
    let mut resumed_loss_sum = 0.0f32;
    let mut writer = None;
    if let Some(ck) = &cfg.checkpoint {
        writer = Some(CheckpointWriter::new(ck, cfg.fault_plan.clone())?);
        if ck.resume {
            let (found, report) = checkpoint::load_latest(&ck.dir, fingerprint)?;
            if !report.is_clean() {
                eprintln!("warning: resume in {}: {report}", ck.dir.display());
            }
            if let Some((_, loaded)) = found {
                restore(&loaded, &mut model, &mut opt, &mut rng)?;
                start_epoch = loaded.epoch;
                resumed_steps = loaded.step_in_epoch;
                resumed_loss_sum = loaded.loss_sum;
                curve = loaded.curve;
            }
        }
    }
    let plan = cfg.fault_plan.as_ref();

    for epoch in start_epoch..cfg.epochs {
        // Shuffle-RNG state at the top of the epoch: a mid-epoch
        // checkpoint stores it so the resumed run replays the same
        // permutation and skips the completed prefix.
        let epoch_rng = rng.state();
        opt.lr = step_lr(cfg.base_lr, 0.1, &cfg.lr_milestones, epoch);
        reshuffle(&mut order, &mut rng);
        let skip = if epoch == start_epoch {
            resumed_steps
        } else {
            0
        };
        let mut loss_sum = if epoch == start_epoch {
            resumed_loss_sum
        } else {
            0.0
        };
        feed.begin_epoch(&order, cfg.batch, skip);
        let mut steps = skip;
        let mut start = skip * cfg.batch;
        while start < n {
            let end = (start + cfg.batch).min(n);
            loss_sum += match &mut feed {
                Feed::Memory(set) => {
                    let (xs, ls) = gather(set, &order[start..end]);
                    exec.train_step(&mut model, &xs, &ls, &mut opt)
                }
                Feed::Stream { loader, .. } => {
                    let batch = loader.next_batch()?;
                    let loss = exec.train_step(&mut model, &batch.images, &batch.labels, &mut opt);
                    loader.recycle(batch);
                    loss
                }
            };
            steps += 1;
            start = end;
            if let (Some(ck), Some(writer)) = (&cfg.checkpoint, &mut writer) {
                if ck.every_steps > 0 && steps % ck.every_steps == 0 && start < n {
                    let cursor = (epoch, steps, loss_sum, epoch_rng);
                    persist(writer, plan, |buf| {
                        snapshot(
                            buf,
                            fingerprint,
                            net.name(),
                            cursor,
                            &mut model,
                            &opt,
                            &curve,
                        )
                    })?;
                }
            }
        }
        let (_, err) = evaluate(&mut model, &val_set.images, &val_set.labels, cfg.batch);
        let (first, last) = model.preactivation_means(&probe, cfg.batch);
        curve.push(EpochStats {
            epoch,
            train_loss: loss_sum / steps.max(1) as f32,
            val_error_pct: err,
            preact_first: first,
            preact_last: last,
        });
        if let Some(writer) = &mut writer {
            // Epoch-boundary save: cursor at the top of the next epoch.
            let cursor = (epoch + 1, 0, 0.0, rng.state());
            persist(writer, plan, |buf| {
                snapshot(
                    buf,
                    fingerprint,
                    net.name(),
                    cursor,
                    &mut model,
                    &opt,
                    &curve,
                )
            })?;
        }
    }
    // "The call returned" means "the newest checkpoint is on disk": the
    // error paths above get the same join from the writer's `Drop`.
    if let Some(writer) = writer {
        writer.finish()?;
    }
    Ok((curve, feed.stats()))
}

/// Rejects input disagreements up front with named-network errors, so the
/// executor's internal panics never fire on user mistakes.
fn validate_inputs(
    net: &Network,
    schedule: &Schedule,
    feed: &Feed<'_>,
    val_set: &Dataset,
) -> Result<(), TrainError> {
    let covered = schedule.node_count();
    let nodes = net.nodes().len();
    if covered != nodes {
        return Err(TrainError::ScheduleMismatch {
            net: net.name().to_string(),
            schedule_nodes: covered,
            net_nodes: nodes,
            first_uncovered: net.nodes().get(covered).map(|n| n.name().to_string()),
        });
    }
    let input = net.input();
    let expected = [input.channels, input.height, input.width];
    let splits = [
        ("train", feed.image_shape(), feed.label_count()),
        (
            "validation",
            val_set.images.shape().to_vec(),
            val_set.labels.len(),
        ),
    ];
    for (split, shape, labels) in splits {
        if shape.len() != 4 || shape[1..] != expected {
            return Err(TrainError::DatasetMismatch {
                net: net.name().to_string(),
                split,
                expected,
                found: shape,
            });
        }
        if labels != shape[0] {
            return Err(TrainError::LabelMismatch {
                split,
                images: shape[0],
                labels,
            });
        }
    }
    Ok(())
}

/// Overwrites `buf` with the full resumable state at `cursor` = (epoch,
/// completed steps of it, their loss sum, shuffle-RNG state at its top).
/// `buf` is one of the writer's two recycled checkpoints: every vector is
/// refilled in place, so after a run's first two saves this is a memcpy
/// per tensor and no allocation.
fn snapshot(
    buf: &mut TrainCheckpoint,
    fingerprint: u64,
    net: &str,
    (epoch, step_in_epoch, loss_sum, rng_state): (usize, usize, f32, [u64; 4]),
    model: &mut LoweredNet,
    opt: &Sgd,
    curve: &[EpochStats],
) {
    buf.fingerprint = fingerprint;
    buf.net.clear();
    buf.net.push_str(net);
    buf.epoch = epoch;
    buf.step_in_epoch = step_in_epoch;
    buf.loss_sum = loss_sum;
    buf.steps = step_in_epoch;
    buf.rng.clear();
    buf.rng.extend_from_slice(&rng_state);
    let mut dict = StateDict::recycling(std::mem::take(&mut buf.model));
    model.export_state(&mut dict);
    buf.model = dict.into_entries();
    let mut dict = StateDict::recycling(std::mem::take(&mut buf.velocities));
    opt.export_state(&mut dict);
    buf.velocities = dict.into_entries();
    buf.curve.clear();
    buf.curve.extend_from_slice(curve);
}

/// Hands a snapshot to the writer and enforces the fault plan's
/// deterministic kill point: the run "dies" only once the save that
/// triggers it has drained, exactly as a process killed right after that
/// save would have.
fn persist(
    writer: &mut CheckpointWriter,
    plan: Option<&FaultPlan>,
    fill: impl FnOnce(&mut TrainCheckpoint),
) -> Result<(), TrainError> {
    let saves = writer.submit(fill)?;
    if plan.is_some_and(|p| p.should_kill(saves)) {
        writer.flush()?;
        return Err(TrainError::Killed { saves });
    }
    Ok(())
}

/// Imports a loaded checkpoint into the freshly lowered model, the
/// optimizer, and the shuffle RNG.
fn restore(
    loaded: &TrainCheckpoint,
    model: &mut LoweredNet,
    opt: &mut Sgd,
    rng: &mut StdRng,
) -> Result<(), TrainError> {
    let mut dict = StateDict::from_entries(loaded.model.clone());
    model.import_state(&mut dict)?;
    if !dict.is_empty() {
        return Err(TrainError::State(StateError::Leftover {
            remaining: dict.len(),
        }));
    }
    let mut vdict = StateDict::from_entries(loaded.velocities.clone());
    opt.import_state(&mut vdict)?;
    let words: [u64; 4] = loaded.rng.as_slice().try_into().map_err(|_| {
        TrainError::Checkpoint(CheckpointError::Container(container::Error::Format(
            format!("RNG state has {} words (want 4)", loaded.rng.len()),
        )))
    })?;
    *rng = StdRng::from_state(words);
    Ok(())
}

/// Re-deals the identity permutation and shuffles it. Starting from the
/// identity every epoch (instead of shuffling the previous epoch's order
/// in place) makes an epoch's batch composition a function of the RNG
/// state at its start alone — the property checkpoint resume relies on
/// to skip completed epochs without replaying their shuffles.
fn reshuffle(order: &mut [usize], rng: &mut StdRng) {
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    order.shuffle(rng);
}

fn gather(set: &Dataset, idx: &[usize]) -> (mbs_tensor::Tensor, Vec<usize>) {
    let mut shape = set.images.shape().to_vec();
    shape[0] = idx.len();
    let row = set.images.len() / set.len().max(1);
    let mut data = Vec::with_capacity(idx.len() * row);
    let mut labels = Vec::with_capacity(idx.len());
    for &i in idx {
        data.extend_from_slice(&set.images.data()[i * row..(i + 1) * row]);
        labels.push(set.labels[i]);
    }
    (mbs_tensor::Tensor::from_vec(&shape, data), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate;

    #[test]
    fn grouped_training_learns_the_synthetic_task() {
        use mbs_cnn::networks::toy;
        use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};

        let net = toy::runtime_mix(8, 16);
        // A small budget forces a genuinely multi-group schedule.
        let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
        let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
            .with_batch(16)
            .schedule();
        assert!(schedule.groups().len() >= 2, "want a multi-group plan");
        let train_set = generate(96, 8, 0.25, 35);
        let val_set = generate(48, 8, 0.25, 36);
        let cfg = TrainConfig {
            epochs: 8,
            batch: 16,
            lr_milestones: vec![6],
            ..TrainConfig::default()
        };
        let curve = train_grouped(&net, &schedule, &train_set, &val_set, &cfg).unwrap();
        assert_eq!(curve.len(), 8);
        let first = curve.first().unwrap().val_error_pct;
        let last = curve.last().unwrap().val_error_pct;
        assert!(
            last < first.max(50.0),
            "validation error should improve: {first} -> {last}"
        );
        assert!(last < 55.0, "final error {last}");
        // runtime_mix has top-level GN nodes, so the probes are live.
        assert!(curve.iter().all(|e| e.preact_first != 0.0));
    }

    #[test]
    fn grouped_curves_are_deterministic_given_seed() {
        use mbs_cnn::networks::toy;
        use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};

        let net = toy::runtime_mix(8, 8);
        let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
        let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
        let train_set = generate(24, 8, 0.25, 37);
        let val_set = generate(16, 8, 0.25, 38);
        let cfg = TrainConfig {
            epochs: 2,
            batch: 8,
            ..TrainConfig::default()
        };
        let a = train_grouped(&net, &schedule, &train_set, &val_set, &cfg).unwrap();
        let b = train_grouped(&net, &schedule, &train_set, &val_set, &cfg).unwrap();
        assert_eq!(a, b);
    }
}
