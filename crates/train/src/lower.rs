//! Lowering: compile an [`mbs_cnn::Network`] (the analytical IR the MBS
//! scheduler consumes) into a runnable chain of [`Module`] layers.
//!
//! This is the bridge between the repo's two halves. The IR side describes
//! networks as shapes and layer kinds so `mbs_core::MbsScheduler` can size
//! sub-batches and form groups; this module turns the *same* description
//! into live `mbs_train` layers with initialized parameters, one
//! [`NodeModule`] per IR [`Node`] — exactly the granularity schedules are
//! expressed in, so a [`crate::grouped::GroupedExecutor`] can map each
//! schedule group straight onto a contiguous module range.
//!
//! Every [`LayerKind`] the IR can express lowers: convolution (bias-free,
//! rectangular kernels allowed), group / batch / local-response
//! normalization, ReLU, max and average pooling (padded or not), global
//! average pooling, fully-connected (with flattening), two-branch residual
//! blocks merged by `Add`, and N-branch Inception-style blocks merged by
//! `Concat` — which is what lets the full zoo networks
//! (`mbs_cnn::networks::{inception_v3, alexnet, resnet}`) lower and train.
//! The remaining rejections are shapes the IR builders never produce: a
//! *degenerate* pool whose padding reaches the window size (some windows
//! would lie entirely in padding — the [`LowerError`] names the layer and
//! its full geometry) and malformed blocks (an `Add` merge without
//! exactly two branches, a `Concat` with an empty branch).

use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;

use mbs_cnn::{Layer, LayerKind, Network, Node, NormKind, PoolKind};
use mbs_tensor::ops::{concat_channels, slice_channels, Conv2dCfg};
use mbs_tensor::Tensor;

use crate::layers::{AvgPool2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Relu};
use crate::module::{slice_batch_owned, CacheStash, Module, Param, StateDict, StateError};
use crate::norm::{BatchNorm2d, GroupNorm, LocalResponseNorm};

/// Error raised when a network uses an IR construct the training runtime
/// does not implement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    layer: String,
    reason: String,
}

impl LowerError {
    fn new(layer: &str, reason: impl Into<String>) -> Self {
        Self {
            layer: layer.to_owned(),
            reason: reason.into(),
        }
    }

    /// Name of the IR layer that could not be lowered.
    pub fn layer(&self) -> &str {
        &self.layer
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot lower layer {}: {}", self.layer, self.reason)
    }
}

impl std::error::Error for LowerError {}

/// Error raised by [`lower_inference`]: the network either does not lower
/// at all, or the supplied checkpoint state does not fit the lowered model.
#[derive(Debug)]
pub enum InferenceLowerError {
    /// The network uses an IR construct the runtime does not implement.
    Lower(LowerError),
    /// The state entries do not match the model (wrong count or shapes —
    /// typically a checkpoint from a different network).
    State(StateError),
}

impl fmt::Display for InferenceLowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lower(e) => write!(f, "{e}"),
            Self::State(e) => write!(f, "checkpoint state does not fit the model: {e}"),
        }
    }
}

impl std::error::Error for InferenceLowerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Lower(e) => Some(e),
            Self::State(e) => Some(e),
        }
    }
}

impl From<LowerError> for InferenceLowerError {
    fn from(e: LowerError) -> Self {
        Self::Lower(e)
    }
}

impl From<StateError> for InferenceLowerError {
    fn from(e: StateError) -> Self {
        Self::State(e)
    }
}

/// One lowered IR layer. [`LayerModule::module`] is the one place a layer
/// kind is dispatched.
#[derive(Debug, Clone)]
enum LayerModule {
    Conv(Conv2d),
    BatchNorm(BatchNorm2d),
    GroupNorm(GroupNorm),
    LocalNorm(LocalResponseNorm),
    Relu(Relu),
    MaxPool(MaxPool2d),
    AvgPool(AvgPool2d),
    GlobalAvgPool(GlobalAvgPool),
    Fc(Linear),
}

impl LayerModule {
    fn module(&mut self) -> &mut dyn Module {
        match self {
            LayerModule::Conv(m) => m,
            LayerModule::BatchNorm(m) => m,
            LayerModule::GroupNorm(m) => m,
            LayerModule::LocalNorm(m) => m,
            LayerModule::Relu(m) => m,
            LayerModule::MaxPool(m) => m,
            LayerModule::AvgPool(m) => m,
            LayerModule::GlobalAvgPool(m) => m,
            LayerModule::Fc(m) => m,
        }
    }
}

/// How a node's branch outputs combine.
#[derive(Debug, Clone)]
enum Merge {
    /// A single IR layer: one branch, nothing to combine.
    Single,
    /// A residual block: the branch outputs add element-wise.
    Add,
    /// An Inception-style block: the branch outputs concatenate
    /// channel-wise; the output channels of each branch.
    Concat(Vec<usize>),
}

/// One lowered scheduling unit: the runtime mirror of [`mbs_cnn::Node`].
#[derive(Debug, Clone)]
pub struct NodeModule {
    name: String,
    /// Layer chains that each start from the node input: a single node's
    /// one chain (empty once a batch norm folded away), a residual block's
    /// main then shortcut (empty = identity), an Inception block's
    /// branches in order.
    branches: Vec<Vec<LayerModule>>,
    merge: Merge,
    /// Layers after the merge (the IR puts a residual block's output ReLU
    /// here).
    post: Vec<LayerModule>,
}

impl NodeModule {
    /// Name of the IR node this module was lowered from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's layers in walk order: each branch in order, then post.
    /// Cache stashing, checkpoint state and the optimizer all follow this
    /// order (the checkpoint format depends on it); it is written only
    /// here.
    fn layers(&mut self) -> impl Iterator<Item = &mut dyn Module> + '_ {
        self.branches
            .iter_mut()
            .flatten()
            .chain(&mut self.post)
            .map(LayerModule::module)
    }

    /// The node's one chain, if it is a single IR layer.
    fn single_chain(&mut self) -> Option<&mut Vec<LayerModule>> {
        match self.merge {
            Merge::Single => Some(&mut self.branches[0]),
            _ => None,
        }
    }

    /// Whether this node is a single ReLU layer.
    fn is_relu(&self) -> bool {
        matches!(self.merge, Merge::Single)
            && matches!(self.branches[0][..], [LayerModule::Relu(_)])
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let (last, rest) = self
            .branches
            .split_last_mut()
            .expect("a node has at least one branch");
        // Every branch but the last borrows the shared input...
        let mut outs: Vec<Tensor> = rest
            .iter_mut()
            .map(|chain| match chain.split_first_mut() {
                Some((first, tail)) => {
                    forward_chain(tail, first.module().forward(&x, train), train)
                }
                None => x.clone(),
            })
            .collect();
        // ...and the last consumes it, so the buffer recycles in place.
        let h = forward_chain(last, x, train);
        let y = match &self.merge {
            Merge::Single => h,
            Merge::Add => {
                let mut y = outs.pop().expect("a residual block has a main branch");
                y.add_assign(&h);
                drop(h);
                y
            }
            Merge::Concat(_) => {
                outs.push(h);
                let refs: Vec<&Tensor> = outs.iter().collect();
                concat_channels(&refs)
            }
        };
        drop(outs);
        forward_chain(&mut self.post, y, train)
    }

    /// Backward through the node, accumulating parameter gradients. With
    /// `want_dx` returns the gradient with respect to the node input;
    /// without, each branch's first layer runs [`Module::backward_params`]
    /// and nothing is returned.
    fn backward(&mut self, dy: &Tensor, want_dx: bool) -> Option<Tensor> {
        // With no post-merge layers (every node but a residual block), `g`
        // is `dy` itself, uncopied.
        let post = backward_chain(&mut self.post, dy);
        let g = post.as_ref().unwrap_or(dy);
        let mut dx: Option<Tensor> = None;
        let mut c_off = 0;
        for (b, chain) in self.branches.iter_mut().enumerate() {
            let sliced;
            let gb = match &self.merge {
                Merge::Concat(channels) => {
                    sliced = slice_channels(g, c_off, channels[b]);
                    c_off += channels[b];
                    &sliced
                }
                // Every add operand receives `g`.
                Merge::Single | Merge::Add => g,
            };
            if !want_dx {
                if let Some((first, tail)) = chain.split_first_mut() {
                    let d = backward_chain(tail, gb);
                    first.module().backward_params(d.as_ref().unwrap_or(gb));
                }
                continue;
            }
            // An empty branch (identity shortcut) passes `gb` through.
            match (&mut dx, backward_chain(chain, gb)) {
                (Some(acc), d) => acc.add_assign(d.as_ref().unwrap_or(gb)),
                (None, d) => dx = Some(d.unwrap_or_else(|| gb.clone())),
            }
        }
        dx
    }
}

/// Forward through `chain`, consuming the input.
fn forward_chain(chain: &mut [LayerModule], mut x: Tensor, train: bool) -> Tensor {
    for m in chain {
        x = m.module().forward_owned(x, train);
    }
    x
}

/// Backward through `chain` in reverse; `None` for an empty chain, whose
/// input gradient is `dy` itself.
fn backward_chain(chain: &mut [LayerModule], dy: &Tensor) -> Option<Tensor> {
    let mut d: Option<Tensor> = None;
    for m in chain.iter_mut().rev() {
        d = Some(m.module().backward(d.as_ref().unwrap_or(dy)));
    }
    d
}

/// Every layer of `nodes`, in walk order ([`NodeModule::layers`]).
fn walk(nodes: &mut [NodeModule]) -> impl Iterator<Item = &mut dyn Module> + '_ {
    nodes.iter_mut().flat_map(NodeModule::layers)
}

/// A network lowered from the IR: one [`NodeModule`] per IR node, runnable
/// whole (it implements [`Module`]) or range-wise (the entry points the
/// grouped executor uses).
#[derive(Debug, Clone)]
pub struct LoweredNet {
    name: String,
    nodes: Vec<NodeModule>,
}

impl LoweredNet {
    /// Name of the source network.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scheduling units — equals `net.nodes().len()` of the
    /// source IR, so schedule node indices map 1:1.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The lowered scheduling units in execution order.
    pub fn nodes(&self) -> &[NodeModule] {
        &self.nodes
    }

    /// Forward through nodes `range` only, consuming the input — the
    /// grouped executor streams each schedule group through this.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn forward_range(&mut self, range: Range<usize>, mut x: Tensor, train: bool) -> Tensor {
        for node in &mut self.nodes[range] {
            x = node.forward(x, train);
        }
        x
    }

    /// Backward through nodes `range` in reverse, returning the gradient
    /// with respect to the range's input.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or a node in the range has no
    /// cached training forward.
    pub fn backward_range(&mut self, range: Range<usize>, dy: &Tensor) -> Tensor {
        backward_nodes(&mut self.nodes[range], dy)
    }

    /// [`LoweredNet::backward_range`] for a caller that discards the
    /// range's input gradient: the same parameter gradients accumulate,
    /// but the first layer of each branch of the range's first node runs
    /// [`Module::backward_params`] and so skips computing a gradient
    /// nobody reads. The grouped training step runs the network's first
    /// group through this.
    ///
    /// # Panics
    ///
    /// As [`LoweredNet::backward_range`].
    pub(crate) fn backward_range_params(&mut self, range: Range<usize>, dy: &Tensor) {
        let Some((first, rest)) = self.nodes[range].split_first_mut() else {
            return;
        };
        let d = (!rest.is_empty()).then(|| backward_nodes(rest, dy));
        first.backward(d.as_ref().unwrap_or(dy), false);
    }

    /// Moves the backward caches of nodes `range` (the state the last
    /// training forward through that range left behind) into `stash`, in
    /// walk order. The grouped executor calls this after each chunk of a
    /// multi-iteration group so the next chunk's forward cannot overwrite
    /// the caches — see [`crate::grouped::GroupedExecutor`].
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn stash_range(&mut self, range: Range<usize>, stash: &mut CacheStash) {
        for m in walk(&mut self.nodes[range]) {
            m.stash_caches(stash);
        }
    }

    /// Restores caches previously moved out by [`LoweredNet::stash_range`]
    /// for the same node range, consuming the stash's entries.
    ///
    /// # Panics
    ///
    /// Panics if the stash was produced by a different range (entry
    /// sequence mismatch).
    pub fn unstash_range(&mut self, range: Range<usize>, stash: &mut CacheStash) {
        for m in walk(&mut self.nodes[range]) {
            m.unstash_caches(stash);
        }
    }

    /// Mean **input** of the first and last **top-level** ReLU nodes on
    /// `probe`, evaluated in inference mode: literally the network's first
    /// and last pre-activations (the Fig. 6 diagnostic). Returns
    /// `(0.0, 0.0)` if the network has no top-level ReLU node (ReLUs
    /// inside blocks are not probed). Where a ReLU directly follows a norm
    /// node, as in every zoo and toy network with norms, this is that
    /// norm's output; a net without norms still has pre-activations.
    ///
    /// The probe runs `chunk` samples at a time and stops before the last
    /// top-level ReLU, so its activations are no larger than a training
    /// step's at batch `chunk` and the arena buffers they leave behind are
    /// ones training reuses. Every node is per-sample and each mean's f32
    /// sum continues across chunks in element order, so the result is
    /// bitwise the same for every `chunk`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn preactivation_means(&mut self, probe: &Tensor, chunk: usize) -> (f32, f32) {
        assert!(chunk > 0, "probe chunk must be positive");
        let Some((first, last)) = self.probed_relus() else {
            return (0.0, 0.0);
        };
        // (running sum, elements) of the first and last ReLU's inputs.
        let mut sums: [(Option<f32>, usize); 2] = [(None, 0); 2];
        let n = probe.shape()[0];
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let mut x = slice_batch_owned(probe, start, end);
            for i in 0..=last {
                for (at, (sum, elems)) in [first, last].into_iter().zip(&mut sums) {
                    if i == at {
                        // `Tensor::sum` is a left fold: continuing it from
                        // the previous chunk's partial is the one-shot sum.
                        *sum = Some(match *sum {
                            None => x.sum(),
                            Some(s) => x.data().iter().fold(s, |a, &v| a + v),
                        });
                        *elems += x.len();
                    }
                }
                if i < last {
                    x = self.nodes[i].forward(x, false);
                }
            }
            start = end;
        }
        let [first, last] = sums.map(|(sum, elems)| sum.map_or(0.0, |s| s / elems as f32));
        (first, last)
    }

    /// Indices of the first and last top-level ReLU nodes: the nodes whose
    /// inputs [`LoweredNet::preactivation_means`] probes.
    fn probed_relus(&self) -> Option<(usize, usize)> {
        let nodes = &self.nodes;
        Some((
            nodes.iter().position(NodeModule::is_relu)?,
            nodes.iter().rposition(NodeModule::is_relu)?,
        ))
    }

    /// Folds every batch norm that directly follows a convolution into
    /// that convolution's weights and bias, removing the norm from its
    /// chain. Returns the number of norms folded.
    ///
    /// This is an **inference-only** transform: eval-mode batch norm is
    /// the affine `y = scale · x + shift` per channel (see
    /// [`crate::norm::BatchNorm2d::eval_affine`]), which commutes into
    /// the preceding conv. Group and local-response norms are per-sample
    /// and data-dependent, so they are left in place (they already run
    /// batch-invariantly in eval mode). Call this only after importing
    /// trained state — folding bakes the *current* running statistics
    /// into the weights — and never export state from a folded net.
    ///
    /// Covers conv→norm pairs inside every branch and post chain, and
    /// across adjacent top-level single-layer nodes (the builders emit
    /// conv and norm as separate nodes; the norm's node is left empty).
    pub fn fold_batch_norms(&mut self) -> usize {
        let mut folded = 0;
        for node in &mut self.nodes {
            for chain in node.branches.iter_mut().chain([&mut node.post]) {
                let mut i = 1;
                while i < chain.len() {
                    let (head, tail) = chain.split_at_mut(i);
                    if fold_into(head.last_mut(), &tail[0]) {
                        chain.remove(i);
                        folded += 1;
                    }
                    i += 1;
                }
            }
        }
        for i in 1..self.nodes.len() {
            let (head, tail) = self.nodes.split_at_mut(i);
            if let (Some(a), Some(b)) = (head[i - 1].single_chain(), tail[0].single_chain()) {
                if b.first().is_some_and(|norm| fold_into(a.last_mut(), norm)) {
                    b.remove(0);
                    folded += 1;
                }
            }
        }
        folded
    }
}

/// Backward through `nodes` in reverse, returning the gradient with
/// respect to the first node's input (`dy` itself for an empty slice).
fn backward_nodes(nodes: &mut [NodeModule], dy: &Tensor) -> Tensor {
    let mut d: Option<Tensor> = None;
    for node in nodes.iter_mut().rev() {
        d = node.backward(d.as_ref().unwrap_or(dy), true);
    }
    d.unwrap_or_else(|| dy.clone())
}

/// If `conv` is a convolution and `norm` a batch norm, folds the norm's
/// eval affine into the conv; the caller then removes the norm. Returns
/// whether a fold happened.
fn fold_into(conv: Option<&mut LayerModule>, norm: &LayerModule) -> bool {
    let (Some(LayerModule::Conv(conv)), LayerModule::BatchNorm(bn)) = (conv, norm) else {
        return false;
    };
    let (scale, shift) = bn.eval_affine();
    conv.fold_affine(&scale, &shift);
    true
}

impl Module for LoweredNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_owned(x.clone(), train)
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        let len = self.len();
        self.forward_range(0..len, x, train)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let len = self.len();
        self.backward_range(0..len, dy)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for m in walk(&mut self.nodes) {
            m.visit_params(f);
        }
    }

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        let len = self.len();
        self.stash_range(0..len, stash);
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        let len = self.len();
        self.unstash_range(0..len, stash);
    }

    fn export_state(&mut self, dict: &mut StateDict) {
        for m in walk(&mut self.nodes) {
            m.export_state(dict);
        }
    }

    fn import_state(&mut self, dict: &mut StateDict) -> Result<(), StateError> {
        for m in walk(&mut self.nodes) {
            m.import_state(dict)?;
        }
        Ok(())
    }
}

/// Compiles `net` into a [`LoweredNet`], initializing parameters from
/// `rng` (Kaiming for convolutions and the classifier, ones/zeros for norm
/// scale/shift).
///
/// Every IR construct the zoo uses lowers: conv, GN/BN/LRN, ReLU, max and
/// average pooling (padded or not), GAP, FC, residual (`Add`) blocks, and
/// Inception-style (`Concat`) blocks — so `inception_v3()`, `alexnet()`,
/// and `resnet(50)` all compile to runnable models.
///
/// # Examples
///
/// ```
/// use mbs_train::lower::lower;
/// use mbs_train::Module;
/// use mbs_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // A toy Inception-style network: concat block + padded pools.
/// let net = mbs_cnn::networks::toy::tiny_inception(16, 4);
/// let mut model = lower(&net, &mut StdRng::seed_from_u64(1)).unwrap();
/// assert_eq!(model.len(), net.nodes().len()); // one module per IR node
/// let y = model.forward(&Tensor::full(&[2, 3, 16, 16], 0.1), false);
/// assert_eq!(y.shape(), &[2, net.output().channels]);
/// ```
///
/// # Errors
///
/// Returns a [`LowerError`] naming the offending layer for degenerate
/// pools (`pad >= kernel`) and for malformed block shapes the builders
/// never produce (an `Add` block without exactly two branches, a `Concat`
/// block with an empty branch, or a merge that is neither).
pub fn lower(net: &Network, rng: &mut StdRng) -> Result<LoweredNet, LowerError> {
    let nodes = net
        .nodes()
        .iter()
        .map(|node| lower_node(node, rng))
        .collect::<Result<Vec<_>, LowerError>>()?;
    Ok(LoweredNet {
        name: net.name().to_owned(),
        nodes,
    })
}

fn lower_layer(layer: &Layer, rng: &mut StdRng) -> Result<LayerModule, LowerError> {
    match layer.kind {
        LayerKind::Conv {
            kernel_h,
            kernel_w,
            stride,
            pad_h,
            pad_w,
        } => {
            let cfg = Conv2dCfg {
                kernel_h,
                kernel_w,
                stride,
                pad_h,
                pad_w,
            };
            Ok(LayerModule::Conv(Conv2d::from_cfg(
                layer.input.channels,
                layer.output.channels,
                cfg,
                rng,
            )))
        }
        LayerKind::Norm { kind } => Ok(match kind {
            NormKind::Group { groups } => {
                LayerModule::GroupNorm(GroupNorm::new(layer.input.channels, groups))
            }
            NormKind::Batch => LayerModule::BatchNorm(BatchNorm2d::new(layer.input.channels)),
            NormKind::Local => LayerModule::LocalNorm(LocalResponseNorm::alexnet()),
        }),
        LayerKind::Relu => Ok(LayerModule::Relu(Relu::new())),
        LayerKind::Pool {
            kind,
            kernel,
            stride,
            pad,
        } => {
            if pad >= kernel {
                // A window at the padded edge would contain no input cell.
                return Err(LowerError::new(
                    &layer.name,
                    format!(
                        "degenerate pool geometry: pad {pad} >= kernel {kernel} leaves \
                         all-padding windows ({kind:?} pool, kernel {kernel}x{kernel}, \
                         stride {stride}, pad {pad})"
                    ),
                ));
            }
            Ok(match kind {
                PoolKind::Max => LayerModule::MaxPool(MaxPool2d::with_pad(kernel, stride, pad)),
                PoolKind::Avg => LayerModule::AvgPool(AvgPool2d::new(kernel, stride, pad)),
            })
        }
        LayerKind::GlobalAvgPool => Ok(LayerModule::GlobalAvgPool(GlobalAvgPool::new())),
        LayerKind::FullyConnected => Ok(LayerModule::Fc(Linear::new(
            layer.input.elems(),
            layer.output.channels,
            rng,
        ))),
        LayerKind::Add | LayerKind::Concat => Err(LowerError::new(
            &layer.name,
            "merge layers only occur inside blocks; a top-level merge has no second operand",
        )),
    }
}

/// Compiles `net` into an inference-ready [`LoweredNet`]: lowers the IR,
/// imports the trained `state` (consuming it), verifies nothing is left
/// over, and folds batch norms into their convolutions
/// ([`LoweredNet::fold_batch_norms`]). The serving front-end loads models
/// through this entry point.
///
/// `rng` only seeds the throwaway initial parameters that `state`
/// immediately overwrites, so any seed yields the same model.
///
/// # Examples
///
/// ```
/// use mbs_train::lower::{lower, lower_inference};
/// use mbs_train::{Module, StateDict};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let net = mbs_cnn::networks::toy::fig1_toy();
/// let mut trained = lower(&net, &mut StdRng::seed_from_u64(1)).unwrap();
/// let mut state = StateDict::default();
/// trained.export_state(&mut state);
/// let model = lower_inference(&net, &mut state, &mut StdRng::seed_from_u64(99)).unwrap();
/// assert_eq!(model.len(), net.nodes().len());
/// ```
///
/// # Errors
///
/// [`InferenceLowerError::Lower`] if the network does not lower, and
/// [`InferenceLowerError::State`] if `state` has too few entries, a shape
/// mismatch, or leftover entries — the symptoms of a checkpoint from a
/// different architecture.
pub fn lower_inference(
    net: &Network,
    state: &mut StateDict,
    rng: &mut StdRng,
) -> Result<LoweredNet, InferenceLowerError> {
    let mut model = lower(net, rng)?;
    model.import_state(state)?;
    if !state.is_empty() {
        return Err(StateError::Leftover {
            remaining: state.len(),
        }
        .into());
    }
    model.fold_batch_norms();
    Ok(model)
}

fn lower_chain(layers: &[Layer], rng: &mut StdRng) -> Result<Vec<LayerModule>, LowerError> {
    layers
        .iter()
        .map(|l| lower_layer(l, rng))
        .collect::<Result<Vec<_>, _>>()
}

fn lower_node(node: &Node, rng: &mut StdRng) -> Result<NodeModule, LowerError> {
    let (branches, merge, post) = match node {
        Node::Single(layer) => (
            vec![vec![lower_layer(layer, rng)?]],
            Merge::Single,
            Vec::new(),
        ),
        Node::Block(block) => {
            let merge = match block.merge.kind {
                LayerKind::Add if block.branches.len() != 2 => {
                    return Err(LowerError::new(
                        &block.name,
                        format!(
                            "residual lowering expects 2 branches, found {}",
                            block.branches.len()
                        ),
                    ));
                }
                LayerKind::Add => Merge::Add,
                LayerKind::Concat if block.branches.iter().any(Vec::is_empty) => {
                    return Err(LowerError::new(
                        &block.name,
                        "concat lowering requires non-empty branches",
                    ));
                }
                LayerKind::Concat => Merge::Concat(
                    (0..block.branches.len())
                        .map(|b| block.branch_output(b).channels)
                        .collect(),
                ),
                _ => {
                    return Err(LowerError::new(
                        &block.merge.name,
                        "block merge must be Add (residual) or Concat (inception)",
                    ))
                }
            };
            let branches = block
                .branches
                .iter()
                .map(|b| lower_chain(b, rng))
                .collect::<Result<Vec<_>, _>>()?;
            (branches, merge, lower_chain(&block.post, rng)?)
        }
    };
    Ok(NodeModule {
        name: node.name().to_owned(),
        branches,
        merge,
        post,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_cnn::networks::toy;
    use mbs_cnn::{Block, FeatureShape, NetworkBuilder};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn lowers_the_runtime_mix_network() {
        let net = toy::runtime_mix(8, 4);
        let mut m = lower(&net, &mut rng()).expect("runtime_mix must lower");
        assert_eq!(m.len(), net.nodes().len());
        let x = Tensor::from_vec(
            &[2, 3, 8, 8],
            (0..2 * 3 * 64)
                .map(|v| ((v % 13) as f32 - 6.0) / 4.0)
                .collect(),
        );
        let y = m.forward(&x, true);
        assert_eq!(y.shape(), &[2, net.output().channels]);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let dx = m.backward(&Tensor::full(y.shape(), 0.1));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn lowered_forward_shapes_match_ir_shape_inference() {
        // Every node's runtime output must agree with the IR's per-node
        // shape inference — the property the grouped executor relies on
        // when it sizes boundary buffers from live chunks.
        let net = toy::runtime_mix(8, 4);
        let mut m = lower(&net, &mut rng()).unwrap();
        let mut x = Tensor::full(&[2, 3, 8, 8], 0.5);
        for (i, node) in net.nodes().iter().enumerate() {
            x = m.forward_range(i..i + 1, x, false);
            let out = node.output();
            let want: Vec<usize> = if x.shape().len() == 4 {
                vec![2, out.channels, out.height, out.width]
            } else {
                vec![2, out.elems()]
            };
            assert_eq!(x.shape(), &want[..], "node {}", node.name());
        }
    }

    #[test]
    fn range_execution_composes_to_full_execution() {
        let net = toy::conv_chain(&[4, 8], FeatureShape::new(3, 8, 8), 4);
        let mut a = lower(&net, &mut rng()).unwrap();
        let mut b = lower(&net, &mut rng()).unwrap();
        let x = Tensor::from_vec(
            &[2, 3, 8, 8],
            (0..2 * 3 * 64)
                .map(|v| ((v % 11) as f32 - 5.0) / 3.0)
                .collect(),
        );
        let y_full = a.forward(&x, true);
        let mid = net.nodes().len() / 2;
        let h = b.forward_range(0..mid, x.clone(), true);
        let y_split = b.forward_range(mid..net.nodes().len(), h, true);
        assert_eq!(y_full, y_split);

        let dy = Tensor::full(y_full.shape(), 0.25);
        let dx_full = a.backward(&dy);
        let dmid = b.backward_range(mid..net.nodes().len(), &dy);
        let dx_split = b.backward_range(0..mid, &dmid);
        assert_eq!(dx_full, dx_split);
    }

    #[test]
    fn param_counts_match_the_ir() {
        let net = toy::runtime_mix(8, 4);
        let mut m = lower(&net, &mut rng()).unwrap();
        let mut elems = 0usize;
        m.visit_params(&mut |p| elems += p.value.len());
        assert_eq!(elems, net.param_elems());
    }

    #[test]
    fn concat_blocks_lower_and_round_trip_gradients() {
        let net = toy::tiny_inception(8, 2);
        let mut m = lower(&net, &mut rng()).expect("tiny_inception must lower");
        let x = Tensor::from_vec(
            &[2, 3, 8, 8],
            (0..2 * 3 * 64)
                .map(|v| ((v % 13) as f32 - 6.0) / 4.0)
                .collect(),
        );
        let y = m.forward(&x, true);
        assert_eq!(y.shape(), &[2, net.output().channels]);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let dx = m.backward(&Tensor::full(y.shape(), 0.1));
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn padded_and_average_pooling_lower() {
        let net = NetworkBuilder::new("p", FeatureShape::new(3, 8, 8), 4)
            .pool("maxp", mbs_cnn::PoolKind::Max, 3, 2, 1)
            .unwrap()
            .pool("avgp", mbs_cnn::PoolKind::Avg, 3, 1, 1)
            .unwrap()
            .build();
        let mut m = lower(&net, &mut rng()).expect("padded pools must lower");
        let x = Tensor::full(&[1, 3, 8, 8], 0.5);
        let y = m.forward(&x, true);
        // 8 -> (8+2-3)/2+1 = 4, then 3x3/1 pad 1 preserves 4.
        assert_eq!(y.shape(), &[1, 3, 4, 4]);
    }

    #[test]
    fn degenerate_pool_error_names_layer_and_geometry() {
        let net = NetworkBuilder::new("p", FeatureShape::new(3, 8, 8), 4)
            .pool("stem.pool", mbs_cnn::PoolKind::Avg, 2, 2, 2)
            .unwrap()
            .build();
        let err = lower(&net, &mut rng()).unwrap_err();
        assert_eq!(err.layer(), "stem.pool");
        let msg = err.to_string();
        // The message must carry the node name and the full geometry.
        for needle in [
            "stem.pool",
            "Avg",
            "kernel 2x2",
            "stride 2",
            "pad 2",
            "all-padding windows",
        ] {
            assert!(msg.contains(needle), "missing {needle:?} in {msg:?}");
        }
    }

    #[test]
    fn full_zoo_networks_lower() {
        // The acceptance bar of the full-network-lowering PR: InceptionV3
        // (concat blocks, avg pools, rectangular kernels) and AlexNet
        // (LRN, big FCs) compile without LowerError, with one module per
        // scheduling unit and IR-truthful parameter counts.
        for net in [
            mbs_cnn::networks::inception_v3(),
            mbs_cnn::networks::alexnet(),
        ] {
            let mut m = lower(&net, &mut rng())
                .unwrap_or_else(|e| panic!("{} must lower: {e}", net.name()));
            assert_eq!(m.len(), net.nodes().len(), "{}", net.name());
            let mut elems = 0usize;
            m.visit_params(&mut |p| elems += p.value.len());
            assert_eq!(elems, net.param_elems(), "{}", net.name());
        }
    }

    #[test]
    fn stash_range_round_trip_matches_unstashed_backward() {
        let net = toy::runtime_mix(8, 4);
        let mut a = lower(&net, &mut rng()).unwrap();
        let mut b = lower(&net, &mut rng()).unwrap();
        let x = Tensor::from_vec(
            &[2, 3, 8, 8],
            (0..2 * 3 * 64)
                .map(|v| ((v % 7) as f32 - 3.0) / 2.0)
                .collect(),
        );
        let ya = a.forward(&x, true);
        let _ = b.forward(&x, true);
        // Stash b's caches, clobber them with a second forward, restore.
        let mut stash = CacheStash::default();
        let len = b.len();
        b.stash_range(0..len, &mut stash);
        let _ = b.forward(&Tensor::full(x.shape(), 0.25), true);
        b.unstash_range(0..len, &mut stash);
        assert!(stash.is_empty(), "every entry must be consumed");
        let dy = Tensor::full(ya.shape(), 0.5);
        // Restored caches must reproduce the original backward bitwise.
        assert_eq!(a.backward(&dy), b.backward(&dy));
    }

    /// The probe's chunking is invisible: chunks of 1, 3 and all 8
    /// samples give bitwise the means of the whole probe pushed through
    /// the net in one shot, node by node, as the unchunked probe did.
    #[test]
    fn chunked_preactivation_probe_matches_one_shot_bitwise() {
        for (net, size) in [
            (toy::tiny_resnet(1, 4), 32),
            (toy::tiny_inception(8, 4), 8),
            (toy::runtime_mix(8, 4), 8),
        ] {
            let mut m = lower(&net, &mut rng()).unwrap();
            let x = probe(&[8, 3, size, size]);
            let norms: Vec<usize> = (0..net.nodes().len())
                .filter(|&i| {
                    matches!(&net.nodes()[i], Node::Single(l)
                        if matches!(l.kind, LayerKind::Norm { .. }))
                })
                .collect();
            assert!(!norms.is_empty(), "{}: needs a top-level norm", net.name());
            let mut means = Vec::new();
            let mut h = x.clone();
            for i in 0..net.nodes().len() {
                h = m.forward_range(i..i + 1, h, false);
                if norms.contains(&i) {
                    means.push(h.mean());
                }
            }
            let one_shot = (means[0], means[means.len() - 1]);
            for chunk in [1, 3, 8] {
                let (first, last) = m.preactivation_means(&x, chunk);
                assert_eq!(
                    (first.to_bits(), last.to_bits()),
                    (one_shot.0.to_bits(), one_shot.1.to_bits()),
                    "{} chunk {chunk}",
                    net.name()
                );
            }
        }
    }

    /// The probe reads the input of the first and last top-level ReLU. On
    /// the networks the benchmark and the tests train, each of those ReLUs
    /// directly follows a top-level norm, so the probed tensors are exactly
    /// the first and last top-level norm outputs (checked on structure
    /// alone, no forward). A net without norms still probes a live,
    /// non-zero pre-activation.
    #[test]
    fn preactivation_probe_reads_the_first_and_last_norm_outputs() {
        for net in [
            toy::tiny_resnet(1, 8),
            toy::tiny_inception(16, 16),
            toy::runtime_mix(8, 8),
            mbs_cnn::networks::resnet_custom("ResNet14", [1, 1, 1, 1], 16, 2),
        ] {
            let norms: Vec<usize> = (0..net.nodes().len())
                .filter(|&i| {
                    matches!(&net.nodes()[i], Node::Single(l)
                        if matches!(l.kind, LayerKind::Norm { .. }))
                })
                .collect();
            let m = lower(&net, &mut rng()).unwrap();
            let (first, last) = m.probed_relus().expect("a top-level ReLU");
            assert_eq!(
                (first - 1, last - 1),
                (norms[0], norms[norms.len() - 1]),
                "{}",
                net.name()
            );
        }
        let net = toy::fig6_resnet(8, 4, 1, None, 4);
        let mut m = lower(&net, &mut rng()).unwrap();
        let (first, last) = m.preactivation_means(&probe(&[4, 3, 8, 8]), 2);
        assert!(first != 0.0 && last != 0.0, "{first} / {last}");
        assert!(first.is_finite() && last.is_finite());
    }

    /// End-to-end gradient check through stem, residual block (projection
    /// shortcut included) and classifier: the analytic gradient of the
    /// first convolution's weights matches central finite differences.
    #[test]
    fn fig6_resnet_gradient_matches_finite_difference() {
        // Finite differences through a bf16-quantized GEMM are noise, not
        // gradients — f32 only (see `layers::tests::grad_check`).
        if mbs_tensor::ops::Exec::process().precision != mbs_tensor::prec::Precision::F32 {
            return;
        }
        let gn = NormKind::Group { groups: 4 };
        let mut m = lower(&toy::fig6_resnet(8, 3, 1, Some(gn), 2), &mut rng()).unwrap();
        let x = Tensor::from_vec(
            &[2, 3, 8, 8],
            (0..2 * 3 * 64)
                .map(|v| ((v % 17) as f32 - 8.0) / 5.0)
                .collect(),
        );
        let y = m.forward(&x, true);
        let dy = Tensor::from_vec(
            y.shape(),
            (0..y.len()).map(|v| (v as f32 - 2.5) / 4.0).collect(),
        );
        m.zero_grad();
        let _ = m.backward(&dy);
        let mut grad = None;
        m.visit_params(&mut |p| {
            grad.get_or_insert_with(|| p.grad.clone());
        });
        let grad = grad.expect("the stem conv has weights");
        let eps = 1e-2;
        let loss = |m: &mut LoweredNet| -> f32 {
            let y = m.forward(&x, false);
            y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum()
        };
        for idx in [0usize, 5] {
            let nudge = |m: &mut LoweredNet, delta: f32| {
                let mut first = true;
                m.visit_params(&mut |p| {
                    if std::mem::take(&mut first) {
                        p.value.data_mut()[idx] += delta;
                    }
                });
            };
            nudge(&mut m, eps);
            let lp = loss(&mut m);
            nudge(&mut m, -2.0 * eps);
            let lm = loss(&mut m);
            nudge(&mut m, eps);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[idx]).abs() < 0.05,
                "idx {idx}: fd {fd} analytic {}",
                grad.data()[idx]
            );
        }
    }

    /// A small conv→BN net with a second BN that does *not* follow a conv
    /// (it follows a ReLU), so exactly one fold must happen.
    fn bn_net() -> Network {
        NetworkBuilder::new("bn_fold", FeatureShape::new(3, 8, 8), 4)
            .conv("c1", 6, 3, 1, 1)
            .unwrap()
            .norm("n1", NormKind::Batch)
            .relu("r1")
            .norm("n2", NormKind::Batch)
            .global_avg_pool("gap")
            .fully_connected("fc", 5)
            .build()
    }

    /// Eval-output tolerance for fold comparisons: folding rearranges the
    /// weight arithmetic, so at f32 the two sides agree to rounding
    /// (1e-4); under `MBS_PREC=bf16` each side also quantizes its
    /// (different) packed weights, widening agreement to the 2⁻⁸ budget.
    fn fold_tol() -> f32 {
        match mbs_tensor::ops::Exec::process().precision {
            mbs_tensor::prec::Precision::F32 => 1e-4,
            mbs_tensor::prec::Precision::Bf16 => 2e-2,
        }
    }

    fn probe(shape: &[usize]) -> Tensor {
        Tensor::from_vec(
            shape,
            (0..shape.iter().product::<usize>())
                .map(|v| ((v % 11) as f32 - 5.0) / 3.0)
                .collect(),
        )
    }

    #[test]
    fn fold_batch_norms_matches_unfolded_eval() {
        let net = bn_net();
        let mut m = lower(&net, &mut rng()).unwrap();
        // Move the running statistics off their init so the fold bakes in
        // non-trivial means/vars.
        for step in 0..4 {
            let mut x = probe(&[4, 3, 8, 8]);
            x.scale(1.0 + step as f32 * 0.3);
            let _ = m.forward_owned(x, true);
        }
        let mut folded = m.clone();
        // Only the conv→BN pair folds; the BN after the ReLU stays.
        assert_eq!(folded.fold_batch_norms(), 1);
        let x = probe(&[2, 3, 8, 8]);
        let ye = m.forward(&x, false);
        let yf = folded.forward(&x, false);
        assert_eq!(ye.shape(), yf.shape());
        for (a, b) in ye.data().iter().zip(yf.data()) {
            assert!((a - b).abs() < fold_tol(), "unfolded {a} vs folded {b}");
        }
        // Folding is idempotent: nothing left to fold.
        assert_eq!(folded.fold_batch_norms(), 0);
    }

    #[test]
    fn fold_batch_norms_reaches_inside_residual_blocks() {
        let input = FeatureShape::new(4, 8, 8);
        let main = vec![
            Layer::conv("b_c1", input, 4, 3, 1, 1).unwrap(),
            Layer::norm("b_n1", input, NormKind::Batch),
            Layer::relu("b_r1", input),
        ];
        let block = Block::residual("res", input, main, vec![]).unwrap();
        let net = NetworkBuilder::new("bn_block", input, 4)
            .conv("stem", 4, 3, 1, 1)
            .unwrap()
            .norm("stem_n", NormKind::Batch)
            .block(block)
            .global_avg_pool("gap")
            .fully_connected("fc", 3)
            .build();
        let mut m = lower(&net, &mut rng()).unwrap();
        for _ in 0..3 {
            let _ = m.forward_owned(probe(&[4, 4, 8, 8]), true);
        }
        let mut folded = m.clone();
        // One fold inside the block chain, one across the top-level
        // stem conv → stem norm node pair.
        assert_eq!(folded.fold_batch_norms(), 2);
        let x = probe(&[2, 4, 8, 8]);
        let ye = m.forward(&x, false);
        let yf = folded.forward(&x, false);
        for (a, b) in ye.data().iter().zip(yf.data()) {
            assert!((a - b).abs() < fold_tol(), "unfolded {a} vs folded {b}");
        }
    }

    #[test]
    fn fold_leaves_group_and_local_norms_alone() {
        // tiny_resnet is all group norms; tiny_alexnet has LRN. Neither
        // folds, and both still evaluate identically afterwards.
        for net in [toy::tiny_resnet(1, 4), toy::tiny_alexnet(8, 4)] {
            let mut m = lower(&net, &mut rng()).unwrap();
            let mut folded = m.clone();
            assert_eq!(folded.fold_batch_norms(), 0, "{}", net.name());
            let sh = net.input();
            let x = probe(&[2, sh.channels, sh.height, sh.width]);
            assert_eq!(m.forward(&x, false), folded.forward(&x, false));
        }
    }

    #[test]
    fn lower_inference_round_trips_state_and_rejects_mismatches() {
        let net = bn_net();
        let mut trained = lower(&net, &mut rng()).unwrap();
        for _ in 0..3 {
            let _ = trained.forward_owned(probe(&[4, 3, 8, 8]), true);
        }
        let mut state = StateDict::default();
        trained.export_state(&mut state);
        let entries = state.clone();
        let mut served = lower_inference(&net, &mut state, &mut StdRng::seed_from_u64(99)).unwrap();
        // The served model must agree with the trained model's eval path
        // up to fold rounding (different init seed proves state wins).
        let x = probe(&[2, 3, 8, 8]);
        let ye = trained.forward(&x, false);
        let yf = served.forward(&x, false);
        for (a, b) in ye.data().iter().zip(yf.data()) {
            assert!((a - b).abs() < fold_tol(), "trained {a} vs served {b}");
        }
        // Leftover entries are an error (state from a bigger model)...
        let mut extra = entries.clone();
        extra.push_slice(&[1.0, 2.0]);
        match lower_inference(&net, &mut extra, &mut rng()) {
            Err(InferenceLowerError::State(StateError::Leftover { remaining: 1 })) => {}
            other => panic!("expected leftover error, got {other:?}"),
        }
        // ...and so is running dry (state from a smaller model).
        let mut short = StateDict::default();
        let mut n = entries.len();
        let mut full = entries;
        while n > 1 {
            short.push(full.pop(0).unwrap());
            n -= 1;
        }
        match lower_inference(&net, &mut short, &mut rng()) {
            Err(InferenceLowerError::State(StateError::Missing { .. })) => {}
            other => panic!("expected missing error, got {other:?}"),
        }
    }
}
