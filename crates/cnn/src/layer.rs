//! Single-layer IR: shapes, layer kinds, shape inference, and per-layer
//! arithmetic/parameter statistics.

use std::fmt;

use crate::WORD_BYTES;

/// Shape of one feature map for a single sample (`C × H × W`).
///
/// # Examples
///
/// ```
/// use mbs_cnn::FeatureShape;
///
/// let s = FeatureShape::new(64, 56, 56);
/// assert_eq!(s.elems(), 64 * 56 * 56);
/// assert_eq!(s.bytes(), s.elems() * 2); // 16-bit words
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureShape {
    /// Number of channels.
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
}

impl FeatureShape {
    /// Creates a new shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Creates a `C × 1 × 1` vector shape (used for fully-connected layers).
    pub fn vector(channels: usize) -> Self {
        Self {
            channels,
            height: 1,
            width: 1,
        }
    }

    /// Number of scalar elements per sample.
    pub fn elems(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Size in bytes per sample at 16-bit precision.
    pub fn bytes(&self) -> usize {
        self.elems() * WORD_BYTES
    }
}

impl fmt::Display for FeatureShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling. Requires the forward input during back propagation.
    Max,
    /// Average pooling. Back propagation needs only the output gradient.
    Avg,
}

/// Feature-normalization flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormKind {
    /// Batch normalization: statistics across the whole per-processor
    /// mini-batch. Incompatible with MBS serialization (paper §3.1).
    Batch,
    /// Group normalization over `groups` channel groups of a single sample.
    /// Compatible with MBS.
    Group {
        /// Number of channel groups.
        groups: usize,
    },
    /// Local response normalization (AlexNet); per-sample, MBS-compatible.
    Local,
}

/// The operator computed by a [`Layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution (no bias; the zoo pairs convolutions with norms).
    Conv {
        /// Filter height (R in the paper's Tab. 1).
        kernel_h: usize,
        /// Filter width (S in the paper's Tab. 1).
        kernel_w: usize,
        /// Stride (same in both dimensions).
        stride: usize,
        /// Zero padding rows added on each vertical edge.
        pad_h: usize,
        /// Zero padding columns added on each horizontal edge.
        pad_w: usize,
    },
    /// Spatial pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding on each edge.
        pad: usize,
    },
    /// Global average pooling down to `C × 1 × 1`.
    GlobalAvgPool,
    /// Feature normalization.
    Norm {
        /// Normalization flavor.
        kind: NormKind,
    },
    /// Element-wise activation (ReLU).
    Relu,
    /// Fully-connected layer (with bias).
    FullyConnected,
    /// Element-wise sum merging a residual block's branches.
    Add,
    /// Channel-wise concatenation merging inception branches.
    Concat,
}

impl LayerKind {
    /// Short layer-type tag used for reporting breakdowns (paper Fig. 12).
    pub fn type_tag(&self) -> &'static str {
        match self {
            LayerKind::Conv { .. } => "conv",
            LayerKind::Pool { .. } | LayerKind::GlobalAvgPool => "pool",
            LayerKind::Norm { .. } => "norm",
            LayerKind::Relu => "relu",
            LayerKind::FullyConnected => "fc",
            LayerKind::Add => "sum",
            LayerKind::Concat => "concat",
        }
    }

    /// Whether the layer runs on the systolic array (convolutions and
    /// fully-connected layers); everything else uses the vector units.
    pub fn is_systolic(&self) -> bool {
        matches!(self, LayerKind::Conv { .. } | LayerKind::FullyConnected)
    }

    /// Whether back propagation through this layer re-reads the layer's
    /// forward *input* (so the producer of that tensor must store it to
    /// DRAM during the forward pass).
    ///
    /// - Convolution / FC need the input for the weight-gradient GEMM.
    /// - Normalization needs the input to compute parameter gradients and
    ///   the input gradient.
    /// - Max pooling needs the input to locate the argmax.
    /// - ReLU needs only the *sign* of its input, handled separately
    ///   (1-bit masks under MBS, see paper §3 "Back Propagation").
    pub fn needs_input_in_backward(&self) -> bool {
        matches!(
            self,
            LayerKind::Conv { .. }
                | LayerKind::FullyConnected
                | LayerKind::Norm { .. }
                | LayerKind::Pool {
                    kind: PoolKind::Max,
                    ..
                }
        )
    }
}

/// Error produced when shape inference fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    message: String,
}

impl ShapeError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape inference failed: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

/// A single CNN layer with resolved input and output shapes.
///
/// # Examples
///
/// ```
/// use mbs_cnn::{FeatureShape, Layer};
///
/// # fn main() -> Result<(), mbs_cnn::ShapeError> {
/// let input = FeatureShape::new(3, 224, 224);
/// let conv = Layer::conv("conv1", input, 64, 7, 2, 3)?;
/// assert_eq!(conv.output, FeatureShape::new(64, 112, 112));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Human-readable layer name (unique within a network by construction).
    pub name: String,
    /// Operator kind.
    pub kind: LayerKind,
    /// Per-sample input shape.
    pub input: FeatureShape,
    /// Per-sample output shape.
    pub output: FeatureShape,
}

fn conv_extent(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<usize, ShapeError> {
    let padded = input + 2 * pad;
    if kernel == 0 || stride == 0 {
        return Err(ShapeError::new("kernel and stride must be non-zero"));
    }
    if padded < kernel {
        return Err(ShapeError::new(format!(
            "kernel {kernel} larger than padded input {padded}"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

impl Layer {
    /// Builds a square-ish convolution layer with symmetric padding.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the kernel does not fit the padded input.
    pub fn conv(
        name: impl Into<String>,
        input: FeatureShape,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ShapeError> {
        Self::conv_rect(
            name,
            input,
            out_channels,
            (kernel, kernel),
            stride,
            (pad, pad),
        )
    }

    /// Builds a rectangular convolution layer (used by Inception's 1×7 / 7×1
    /// factorized convolutions).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the kernel does not fit the padded input.
    pub fn conv_rect(
        name: impl Into<String>,
        input: FeatureShape,
        out_channels: usize,
        kernel: (usize, usize),
        stride: usize,
        pad: (usize, usize),
    ) -> Result<Self, ShapeError> {
        let (kernel_h, kernel_w) = kernel;
        let (pad_h, pad_w) = pad;
        let out_h = conv_extent(input.height, kernel_h, stride, pad_h)?;
        let out_w = conv_extent(input.width, kernel_w, stride, pad_w)?;
        Ok(Self {
            name: name.into(),
            kind: LayerKind::Conv {
                kernel_h,
                kernel_w,
                stride,
                pad_h,
                pad_w,
            },
            input,
            output: FeatureShape::new(out_channels, out_h, out_w),
        })
    }

    /// Builds a pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the window does not fit the padded input.
    pub fn pool(
        name: impl Into<String>,
        input: FeatureShape,
        kind: PoolKind,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ShapeError> {
        let out_h = conv_extent(input.height, kernel, stride, pad)?;
        let out_w = conv_extent(input.width, kernel, stride, pad)?;
        Ok(Self {
            name: name.into(),
            kind: LayerKind::Pool {
                kind,
                kernel,
                stride,
                pad,
            },
            input,
            output: FeatureShape::new(input.channels, out_h, out_w),
        })
    }

    /// Builds a global average pooling layer.
    pub fn global_avg_pool(name: impl Into<String>, input: FeatureShape) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::GlobalAvgPool,
            input,
            output: FeatureShape::vector(input.channels),
        }
    }

    /// Builds a normalization layer (shape preserving).
    pub fn norm(name: impl Into<String>, input: FeatureShape, kind: NormKind) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Norm { kind },
            input,
            output: input,
        }
    }

    /// Builds a ReLU activation layer (shape preserving).
    pub fn relu(name: impl Into<String>, input: FeatureShape) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Relu,
            input,
            output: input,
        }
    }

    /// Builds a fully-connected layer over the flattened input.
    pub fn fully_connected(
        name: impl Into<String>,
        input: FeatureShape,
        out_features: usize,
    ) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::FullyConnected,
            input,
            output: FeatureShape::vector(out_features),
        }
    }

    /// Builds the element-wise sum layer at a residual merge point.
    pub fn add(name: impl Into<String>, input: FeatureShape) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Add,
            input,
            output: input,
        }
    }

    /// Builds a concat layer merging `branch_channels` into one tensor.
    pub fn concat(name: impl Into<String>, spatial: FeatureShape, total_channels: usize) -> Self {
        Self {
            name: name.into(),
            kind: LayerKind::Concat,
            input: spatial,
            output: FeatureShape::new(total_channels, spatial.height, spatial.width),
        }
    }

    /// Number of learnable parameter elements.
    pub fn param_elems(&self) -> usize {
        match self.kind {
            LayerKind::Conv {
                kernel_h, kernel_w, ..
            } => self.output.channels * self.input.channels * kernel_h * kernel_w,
            LayerKind::FullyConnected => {
                self.input.elems() * self.output.channels + self.output.channels
            }
            // Scale and shift per channel; LRN is parameterless (its
            // constants are hyperparameters, not learned).
            LayerKind::Norm {
                kind: NormKind::Local,
            } => 0,
            LayerKind::Norm { .. } => 2 * self.input.channels,
            _ => 0,
        }
    }

    /// Parameter size in bytes at 16-bit precision.
    pub fn param_bytes(&self) -> usize {
        self.param_elems() * WORD_BYTES
    }

    /// Multiply-accumulate operations per sample in the forward pass.
    pub fn forward_macs(&self) -> usize {
        match self.kind {
            LayerKind::Conv {
                kernel_h, kernel_w, ..
            } => self.output.elems() * self.input.channels * kernel_h * kernel_w,
            LayerKind::FullyConnected => self.input.elems() * self.output.channels,
            LayerKind::Pool { kernel, .. } => self.output.elems() * kernel * kernel,
            LayerKind::GlobalAvgPool => self.input.elems(),
            // Two passes: statistics + normalize (paper §2).
            LayerKind::Norm { .. } => 2 * self.input.elems(),
            LayerKind::Relu | LayerKind::Add => self.input.elems(),
            LayerKind::Concat => 0,
        }
    }

    /// Input size in bytes per sample.
    pub fn input_bytes(&self) -> usize {
        self.input.bytes()
    }

    /// Output size in bytes per sample.
    pub fn output_bytes(&self) -> usize {
        self.output.bytes()
    }

    /// Inter-layer data (input + output) bytes per sample: the quantity the
    /// paper plots per layer in Fig. 3 and uses for sub-batch sizing.
    pub fn inter_layer_bytes(&self) -> usize {
        self.input_bytes() + self.output_bytes()
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} -> {}",
            self.name,
            self.kind.type_tag(),
            self.input,
            self.output
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_inference_matches_resnet_stem() {
        let input = FeatureShape::new(3, 224, 224);
        let conv = Layer::conv("conv1", input, 64, 7, 2, 3).unwrap();
        assert_eq!(conv.output, FeatureShape::new(64, 112, 112));
        let pool = Layer::pool("pool1", conv.output, PoolKind::Max, 3, 2, 1).unwrap();
        assert_eq!(pool.output, FeatureShape::new(64, 56, 56));
    }

    #[test]
    fn conv_valid_padding_matches_inception_stem() {
        let input = FeatureShape::new(3, 299, 299);
        let conv = Layer::conv("stem1", input, 32, 3, 2, 0).unwrap();
        assert_eq!(conv.output, FeatureShape::new(32, 149, 149));
        let conv2 = Layer::conv("stem2", conv.output, 32, 3, 1, 0).unwrap();
        assert_eq!(conv2.output, FeatureShape::new(32, 147, 147));
    }

    #[test]
    fn rect_conv_preserves_shape_with_same_padding() {
        let input = FeatureShape::new(192, 17, 17);
        let c = Layer::conv_rect("b", input, 224, (1, 7), 1, (0, 3)).unwrap();
        assert_eq!(c.output, FeatureShape::new(224, 17, 17));
        let c = Layer::conv_rect("b", input, 224, (7, 1), 1, (3, 0)).unwrap();
        assert_eq!(c.output, FeatureShape::new(224, 17, 17));
    }

    #[test]
    fn conv_param_and_mac_counts() {
        let input = FeatureShape::new(64, 56, 56);
        let conv = Layer::conv("c", input, 64, 3, 1, 1).unwrap();
        assert_eq!(conv.param_elems(), 64 * 64 * 3 * 3);
        assert_eq!(conv.forward_macs(), 64 * 56 * 56 * 64 * 3 * 3);
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let input = FeatureShape::new(3, 4, 4);
        assert!(Layer::conv("bad", input, 8, 7, 1, 0).is_err());
        let err = Layer::conv("bad", input, 8, 7, 1, 0).unwrap_err();
        assert!(err.to_string().contains("kernel"));
    }

    #[test]
    fn zero_stride_is_rejected() {
        let input = FeatureShape::new(3, 8, 8);
        assert!(Layer::conv("bad", input, 8, 3, 0, 1).is_err());
    }

    #[test]
    fn backward_input_requirements() {
        let s = FeatureShape::new(8, 8, 8);
        assert!(Layer::conv("c", s, 8, 3, 1, 1)
            .unwrap()
            .kind
            .needs_input_in_backward());
        assert!(Layer::norm("n", s, NormKind::Batch)
            .kind
            .needs_input_in_backward());
        assert!(!Layer::relu("r", s).kind.needs_input_in_backward());
        assert!(Layer::pool("p", s, PoolKind::Max, 2, 2, 0)
            .unwrap()
            .kind
            .needs_input_in_backward());
        assert!(!Layer::pool("p", s, PoolKind::Avg, 2, 2, 0)
            .unwrap()
            .kind
            .needs_input_in_backward());
    }

    #[test]
    fn norm_params_are_two_per_channel() {
        let s = FeatureShape::new(256, 14, 14);
        let n = Layer::norm("n", s, NormKind::Group { groups: 32 });
        assert_eq!(n.param_elems(), 512);
    }

    #[test]
    fn fully_connected_params_include_bias() {
        let s = FeatureShape::vector(2048);
        let fc = Layer::fully_connected("fc", s, 1000);
        assert_eq!(fc.param_elems(), 2048 * 1000 + 1000);
    }
}
