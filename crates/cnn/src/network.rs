//! Whole-network IR: a sequential chain of [`Node`]s plus a builder that
//! tracks the running feature shape.

use std::fmt;

use crate::block::{Block, Node};
use crate::layer::{FeatureShape, Layer, NormKind, PoolKind, ShapeError};

/// A CNN described as a sequential chain of scheduling units.
///
/// Multi-branch structure lives *inside* [`Node::Block`] values; at the top
/// level every node consumes the previous node's output, which is exactly
/// the granularity at which the paper's scheduler forms layer groups.
///
/// # Examples
///
/// ```
/// use mbs_cnn::networks::resnet;
///
/// let net = resnet(50);
/// // stem conv/norm/relu + pool + 16 blocks + norm/relu + pool + fc
/// assert_eq!(net.nodes().len(), 24);
/// assert_eq!(net.output().channels, 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    input: FeatureShape,
    nodes: Vec<Node>,
    default_batch: usize,
}

impl Network {
    /// Network name (e.g. `ResNet50`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-sample input shape.
    pub fn input(&self) -> FeatureShape {
        self.input
    }

    /// Per-sample output shape of the last node.
    pub fn output(&self) -> FeatureShape {
        self.nodes.last().map_or(self.input, Node::output)
    }

    /// The scheduling units in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The per-core mini-batch size used in the paper's evaluation for this
    /// network (32 for the deep CNNs, 64 for AlexNet).
    pub fn default_batch(&self) -> usize {
        self.default_batch
    }

    /// Iterates over every layer of the network in execution order.
    pub fn layers(&self) -> impl Iterator<Item = &Layer> {
        self.nodes.iter().flat_map(|n| n.layers())
    }

    /// Total learnable parameter elements.
    pub fn param_elems(&self) -> usize {
        self.nodes.iter().map(Node::param_elems).sum()
    }

    /// Total forward multiply-accumulates per sample.
    pub fn forward_macs(&self) -> usize {
        self.nodes.iter().map(Node::forward_macs).sum()
    }

    /// Input shape of node `i` (output of node `i - 1`).
    pub fn node_input(&self, i: usize) -> FeatureShape {
        if i == 0 {
            self.input
        } else {
            self.nodes[i - 1].output()
        }
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (input {}, batch {})",
            self.name, self.input, self.default_batch
        )?;
        for node in &self.nodes {
            writeln!(f, "  {node}")?;
        }
        Ok(())
    }
}

/// Incremental [`Network`] builder that tracks the running per-sample shape.
///
/// # Examples
///
/// ```
/// use mbs_cnn::{NetworkBuilder, FeatureShape, NormKind, PoolKind};
///
/// # fn main() -> Result<(), mbs_cnn::ShapeError> {
/// let net = NetworkBuilder::new("tiny", FeatureShape::new(3, 32, 32), 16)
///     .conv("conv1", 16, 3, 1, 1)?
///     .norm("norm1", NormKind::Group { groups: 4 })
///     .relu("relu1")
///     .pool("pool1", PoolKind::Max, 2, 2, 0)?
///     .global_avg_pool("gap")
///     .fully_connected("fc", 10)
///     .build();
/// assert_eq!(net.output().channels, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    input: FeatureShape,
    nodes: Vec<Node>,
    cursor: FeatureShape,
    default_batch: usize,
}

impl NetworkBuilder {
    /// Starts a network with the given input shape and default per-core
    /// mini-batch size.
    pub fn new(name: impl Into<String>, input: FeatureShape, default_batch: usize) -> Self {
        Self {
            name: name.into(),
            input,
            nodes: Vec::new(),
            cursor: input,
            default_batch,
        }
    }

    /// Current running shape.
    pub fn shape(&self) -> FeatureShape {
        self.cursor
    }

    /// Appends a pre-built node; its input must match the running shape.
    ///
    /// # Panics
    ///
    /// Panics if the node input does not match the running shape — this is a
    /// construction-time bug, not a runtime condition.
    pub fn push(mut self, node: Node) -> Self {
        assert_eq!(
            node.input(),
            self.cursor,
            "node {} input does not match running shape",
            node.name()
        );
        self.cursor = node.output();
        self.nodes.push(node);
        self
    }

    /// Appends a convolution layer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the kernel does not fit.
    pub fn conv(
        self,
        name: &str,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ShapeError> {
        let layer = Layer::conv(name, self.cursor, out_channels, kernel, stride, pad)?;
        Ok(self.push(Node::Single(layer)))
    }

    /// Appends a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the window does not fit.
    pub fn pool(
        self,
        name: &str,
        kind: PoolKind,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ShapeError> {
        let layer = Layer::pool(name, self.cursor, kind, kernel, stride, pad)?;
        Ok(self.push(Node::Single(layer)))
    }

    /// Appends a normalization layer.
    pub fn norm(self, name: &str, kind: NormKind) -> Self {
        let layer = Layer::norm(name, self.cursor, kind);
        self.push(Node::Single(layer))
    }

    /// Appends a ReLU layer.
    pub fn relu(self, name: &str) -> Self {
        let layer = Layer::relu(name, self.cursor);
        self.push(Node::Single(layer))
    }

    /// Appends a global average pooling layer.
    pub fn global_avg_pool(self, name: &str) -> Self {
        let layer = Layer::global_avg_pool(name, self.cursor);
        self.push(Node::Single(layer))
    }

    /// Appends a fully-connected layer.
    pub fn fully_connected(self, name: &str, out_features: usize) -> Self {
        let layer = Layer::fully_connected(name, self.cursor, out_features);
        self.push(Node::Single(layer))
    }

    /// Appends a multi-branch block.
    pub fn block(self, block: Block) -> Self {
        self.push(Node::Block(block))
    }

    /// Finishes the network.
    pub fn build(self) -> Network {
        Network {
            name: self.name,
            input: self.input,
            nodes: self.nodes,
            default_batch: self.default_batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_shape() {
        let b = NetworkBuilder::new("t", FeatureShape::new(3, 8, 8), 4)
            .conv("c", 8, 3, 1, 1)
            .unwrap();
        assert_eq!(b.shape(), FeatureShape::new(8, 8, 8));
        let net = b.relu("r").build();
        assert_eq!(net.nodes().len(), 2);
        assert_eq!(net.node_input(0), FeatureShape::new(3, 8, 8));
        assert_eq!(net.node_input(1), FeatureShape::new(8, 8, 8));
    }

    #[test]
    #[should_panic(expected = "does not match running shape")]
    fn builder_rejects_shape_mismatch() {
        let layer = Layer::relu("r", FeatureShape::new(5, 5, 5));
        let _ = NetworkBuilder::new("t", FeatureShape::new(3, 8, 8), 4).push(Node::Single(layer));
    }

    #[test]
    fn empty_network_output_is_input() {
        let net = NetworkBuilder::new("e", FeatureShape::new(3, 8, 8), 4).build();
        assert_eq!(net.output(), net.input());
        assert_eq!(net.param_elems(), 0);
    }

    #[test]
    fn display_contains_layers() {
        let net = NetworkBuilder::new("t", FeatureShape::new(3, 8, 8), 4)
            .conv("c", 8, 3, 1, 1)
            .unwrap()
            .build();
        let s = net.to_string();
        assert!(s.contains('c'));
        assert!(s.contains("8x8x8"));
    }
}
