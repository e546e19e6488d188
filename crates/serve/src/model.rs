//! Frozen inference models.
//!
//! A [`ModelHandle`] is the serving-side view of a trained network: the IR
//! is lowered through [`mbs_train::lower_inference`] (state imported, batch
//! norms folded into their convolutions) and then never mutated again. The
//! handle itself is `Send + Sync` and cheap to share behind an [`std::sync::Arc`];
//! each worker thread clones a private [`ModelRunner`] from it, because the
//! lowered modules keep per-forward scratch state and so cannot be shared
//! mutably.

use std::fmt;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs_cnn::{FeatureShape, Network};
use mbs_core::{footprint, Schedule};
use mbs_tensor::Tensor;
use mbs_train::checkpoint::{self, CheckpointError, LoadReport, TrainCheckpoint};
use mbs_train::lower::{lower, lower_inference, InferenceLowerError, LowerError};
use mbs_train::{LoweredNet, Module, StateDict, StateError};

/// The seed for the throwaway initial parameters that the imported
/// checkpoint state immediately overwrites — any value works; pinning one
/// keeps handle construction deterministic even for unfolded layers.
const INIT_SEED: u64 = 0x6d62_735f_7365_7276; // "mbs_serv"

/// The answer to one inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Raw classifier outputs, one per class.
    pub logits: Vec<f32>,
    /// Index of the largest logit (first one on exact ties).
    pub class: usize,
}

impl Prediction {
    /// Builds a prediction from raw logits, taking the argmax. Ties break
    /// toward the lower index so the result is deterministic.
    pub fn from_logits(logits: Vec<f32>) -> Self {
        let mut class = 0;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[class] {
                class = i;
            }
        }
        Self { logits, class }
    }
}

/// Why a model failed to load.
#[derive(Debug)]
pub enum ModelError {
    /// The checkpoint file could not be read or decoded (I/O error,
    /// corrupt frame, checksum mismatch, unsupported version, or a
    /// fingerprint that does not match the requested schedule).
    Checkpoint(CheckpointError),
    /// [`ModelHandle::load_latest`] found no usable checkpoint in the
    /// directory.
    NoCheckpoint,
    /// The checkpoint records a different network name than the one being
    /// loaded.
    NetworkMismatch {
        /// Name of the network the caller asked to serve.
        expected: String,
        /// Name recorded in the checkpoint.
        found: String,
    },
    /// The network itself does not lower to a runnable model.
    Lower(LowerError),
    /// The checkpoint state does not fit the lowered model (wrong entry
    /// count or tensor shapes — a checkpoint from a different
    /// architecture that happens to share the name).
    State(StateError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Checkpoint(e) => write!(f, "cannot load checkpoint: {e}"),
            Self::NoCheckpoint => write!(f, "no usable checkpoint found"),
            Self::NetworkMismatch { expected, found } => {
                write!(f, "checkpoint is for network {found:?}, not {expected:?}")
            }
            Self::Lower(e) => write!(f, "{e}"),
            Self::State(e) => write!(f, "checkpoint state does not fit the model: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            Self::Lower(e) => Some(e),
            Self::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ModelError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<InferenceLowerError> for ModelError {
    fn from(e: InferenceLowerError) -> Self {
        match e {
            InferenceLowerError::Lower(e) => Self::Lower(e),
            InferenceLowerError::State(e) => Self::State(e),
        }
    }
}

/// A frozen, inference-ready model: the lowered net with trained weights
/// imported and batch norms folded, plus the metadata the server needs to
/// validate requests and size batches.
///
/// `ModelHandle` is immutable after construction and `Send + Sync`; share
/// it behind an `Arc` and clone per-thread [`ModelRunner`]s from it.
#[derive(Debug, Clone)]
pub struct ModelHandle {
    name: String,
    net: LoweredNet,
    input: FeatureShape,
    classes: usize,
    per_sample_bytes: usize,
}

impl ModelHandle {
    fn from_parts(source: &Network, net: LoweredNet) -> Self {
        let per_sample_bytes = source
            .nodes()
            .iter()
            .map(footprint::node_space_independent)
            .max()
            .unwrap_or(0);
        Self {
            name: source.name().to_string(),
            net,
            input: source.input(),
            classes: source.output().elems(),
            per_sample_bytes,
        }
    }

    /// Freezes a model straight from a lowered network with *random*
    /// (seed-deterministic) weights — no checkpoint involved. Tests and
    /// benches use this; real deployments load a checkpoint.
    ///
    /// # Errors
    ///
    /// [`ModelError::Lower`] if the network does not lower.
    pub fn from_network(net: &Network, seed: u64) -> Result<Self, ModelError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lowered = lower(net, &mut rng).map_err(ModelError::Lower)?;
        lowered.fold_batch_norms();
        Ok(Self::from_parts(net, lowered))
    }

    /// Freezes a model from a [`TrainCheckpoint`] produced by
    /// [`mbs_train::train_grouped`]: verifies the checkpoint names this
    /// network, imports its model state, and folds batch norms.
    ///
    /// # Errors
    ///
    /// [`ModelError::NetworkMismatch`] if the checkpoint belongs to a
    /// different network, [`ModelError::Lower`] / [`ModelError::State`]
    /// if the state does not fit.
    pub fn from_checkpoint(net: &Network, ckpt: &TrainCheckpoint) -> Result<Self, ModelError> {
        if ckpt.net != net.name() {
            return Err(ModelError::NetworkMismatch {
                expected: net.name().to_string(),
                found: ckpt.net.clone(),
            });
        }
        let mut state = StateDict::from_entries(ckpt.model.clone());
        let mut rng = StdRng::seed_from_u64(INIT_SEED);
        let lowered = lower_inference(net, &mut state, &mut rng)?;
        Ok(Self::from_parts(net, lowered))
    }

    /// Loads one checkpoint file and freezes it via
    /// [`ModelHandle::from_checkpoint`].
    ///
    /// # Errors
    ///
    /// [`ModelError::Checkpoint`] for unreadable/corrupt files, plus
    /// everything `from_checkpoint` reports.
    pub fn load_file(net: &Network, path: &Path) -> Result<Self, ModelError> {
        let ckpt = checkpoint::load_file(path).map_err(CheckpointError::from)?;
        Self::from_checkpoint(net, &ckpt)
    }

    /// Loads the newest checkpoint in `dir` whose fingerprint matches the
    /// `(net, schedule)` pair — the serving counterpart of the resume path
    /// in [`mbs_train::train_grouped`].
    ///
    /// # Errors
    ///
    /// [`ModelError::NoCheckpoint`] when the directory holds no usable
    /// checkpoint, [`ModelError::Checkpoint`] when the newest decodable
    /// one belongs to a different `(net, schedule)` fingerprint, plus
    /// everything `from_checkpoint` reports.
    pub fn load_latest(net: &Network, schedule: &Schedule, dir: &Path) -> Result<Self, ModelError> {
        Self::load_latest_with_report(net, schedule, dir).map(|(handle, _)| handle)
    }

    /// Like [`ModelHandle::load_latest`], but also returns the
    /// [`LoadReport`] naming every corrupt file the scan had to skip —
    /// the hot-swap path surfaces this so operators learn that the
    /// "latest" model they just swapped in is older than the newest file
    /// on disk.
    ///
    /// # Errors
    ///
    /// Same as [`ModelHandle::load_latest`].
    pub fn load_latest_with_report(
        net: &Network,
        schedule: &Schedule,
        dir: &Path,
    ) -> Result<(Self, LoadReport), ModelError> {
        let fingerprint = schedule.fingerprint(net);
        let (found, report) = checkpoint::load_latest(dir, fingerprint)?;
        match found {
            Some((_, ckpt)) => Ok((Self::from_checkpoint(net, &ckpt)?, report)),
            None => Err(ModelError::NoCheckpoint),
        }
    }

    /// Name of the served network.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Expected per-sample input shape.
    pub fn input(&self) -> FeatureShape {
        self.input
    }

    /// Length of each prediction's logits: the per-sample output element
    /// count (the class count for classifier nets; the flattened feature
    /// map size for headless ones).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Peak on-chip bytes one sample needs through the widest node — the
    /// same independent-footprint model the scheduler sizes sub-batches
    /// with, used here to cap dynamic batches to the cache budget.
    pub fn per_sample_bytes(&self) -> usize {
        self.per_sample_bytes
    }

    /// Clones a private, mutable runner for one worker thread.
    pub fn runner(&self) -> ModelRunner {
        ModelRunner {
            net: self.net.clone(),
            input: self.input,
            classes: self.classes,
        }
    }
}

/// A worker-private copy of the lowered net. Forward passes mutate
/// internal scratch, so each thread owns one; all runners cloned from the
/// same handle compute bitwise-identical outputs.
#[derive(Debug, Clone)]
pub struct ModelRunner {
    net: LoweredNet,
    input: FeatureShape,
    classes: usize,
}

impl ModelRunner {
    /// Expected per-sample input shape.
    pub fn input(&self) -> FeatureShape {
        self.input
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Inference-only forward over a `[n, c, h, w]` batch, returning the
    /// `[n, classes]` logits. Never trains: no caches are retained, no
    /// running statistics move.
    pub fn infer(&mut self, batch: Tensor) -> Tensor {
        self.net.forward_owned(batch, false)
    }

    /// Runs one sample (shape `[c, h, w]` or `[1, c, h, w]`) and returns
    /// its prediction — the reference path dynamic batching must match
    /// bitwise.
    pub fn infer_one(&mut self, sample: &Tensor) -> Prediction {
        let c = self.input;
        let batched = Tensor::from_vec(&[1, c.channels, c.height, c.width], sample.data().to_vec());
        let y = self.infer(batched);
        Prediction::from_logits(y.data().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_handle_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<ModelHandle>();
        check::<ModelRunner>();
        check::<Prediction>();
    }

    #[test]
    fn prediction_argmax_breaks_ties_low() {
        let p = Prediction::from_logits(vec![0.5, 2.0, 2.0, -1.0]);
        assert_eq!(p.class, 1);
    }
}
