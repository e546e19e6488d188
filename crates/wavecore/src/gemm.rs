//! im2col GEMM dimensioning for CNN training (paper Tab. 1).
//!
//! WaveCore lowers every convolution to a general matrix multiply via
//! im2col. Each training step runs up to three GEMMs per convolution:
//! forward, data gradient, and weight gradient, with dimensions:
//!
//! | Phase           | Gh            | Gw  | K             |
//! |-----------------|---------------|-----|---------------|
//! | Forward         | N · Ho · Wo   | Co  | Ci · R · S    |
//! | Data gradient   | N · Hi · Wi   | Ci  | Co · R · S    |
//! | Weight gradient | Ci · R · S    | Co  | N · Ho · Wo   |

use mbs_cnn::{Layer, LayerKind};

/// The three GEMMs of one convolution/FC training step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingPhase {
    /// Output = input ∗ weights.
    Forward,
    /// dInput = dOutput ∗ weightsᵀ.
    DataGradient,
    /// dWeights = inputᵀ ∗ dOutput.
    WeightGradient,
}

impl TrainingPhase {
    /// All three phases in execution order.
    pub fn all() -> [TrainingPhase; 3] {
        [
            TrainingPhase::Forward,
            TrainingPhase::DataGradient,
            TrainingPhase::WeightGradient,
        ]
    }
}

/// Dimensions of one im2col GEMM: `(Gh × K) · (K × Gw)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmDims {
    /// Output rows.
    pub gh: usize,
    /// Output columns.
    pub gw: usize,
    /// Reduction depth.
    pub k: usize,
}

impl GemmDims {
    /// Creates GEMM dimensions.
    pub fn new(gh: usize, gw: usize, k: usize) -> Self {
        Self { gh, gw, k }
    }

    /// Multiply-accumulate count of the GEMM.
    pub fn macs(&self) -> u64 {
        self.gh as u64 * self.gw as u64 * self.k as u64
    }
}

/// GEMM dimensions for a systolic-array layer in a given phase with
/// `sub_batch` samples, or `None` for non-systolic layers.
///
/// # Examples
///
/// ```
/// use mbs_cnn::{FeatureShape, Layer};
/// use mbs_wavecore::gemm::{gemm_dims, TrainingPhase};
///
/// # fn main() -> Result<(), mbs_cnn::ShapeError> {
/// let conv = Layer::conv("c", FeatureShape::new(64, 56, 56), 64, 3, 1, 1)?;
/// let d = gemm_dims(&conv, TrainingPhase::Forward, 4).unwrap();
/// assert_eq!((d.gh, d.gw, d.k), (4 * 56 * 56, 64, 64 * 3 * 3));
/// # Ok(())
/// # }
/// ```
pub fn gemm_dims(layer: &Layer, phase: TrainingPhase, sub_batch: usize) -> Option<GemmDims> {
    match layer.kind {
        LayerKind::Conv {
            kernel_h, kernel_w, ..
        } => {
            let (ci, co) = (layer.input.channels, layer.output.channels);
            let rs = kernel_h * kernel_w;
            let out_hw = layer.output.height * layer.output.width;
            let in_hw = layer.input.height * layer.input.width;
            Some(match phase {
                TrainingPhase::Forward => GemmDims::new(sub_batch * out_hw, co, ci * rs),
                TrainingPhase::DataGradient => GemmDims::new(sub_batch * in_hw, ci, co * rs),
                TrainingPhase::WeightGradient => GemmDims::new(ci * rs, co, sub_batch * out_hw),
            })
        }
        LayerKind::FullyConnected => {
            let (i, o) = (layer.input.elems(), layer.output.channels);
            Some(match phase {
                TrainingPhase::Forward => GemmDims::new(sub_batch, o, i),
                TrainingPhase::DataGradient => GemmDims::new(sub_batch, i, o),
                TrainingPhase::WeightGradient => GemmDims::new(i, o, sub_batch),
            })
        }
        _ => None,
    }
}

/// All training GEMMs of a layer for one sub-batch iteration.
///
/// The first network layer (`is_first = true`) skips the data-gradient
/// GEMM: no gradient with respect to the input samples is needed.
pub fn training_gemms(layer: &Layer, sub_batch: usize, is_first: bool) -> Vec<GemmDims> {
    TrainingPhase::all()
        .into_iter()
        .filter(|p| !(is_first && *p == TrainingPhase::DataGradient))
        .filter_map(|p| gemm_dims(layer, p, sub_batch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_cnn::FeatureShape;

    fn conv() -> Layer {
        Layer::conv("c", FeatureShape::new(64, 56, 56), 128, 3, 2, 1).unwrap()
    }

    #[test]
    fn forward_dims_match_tab1() {
        let d = gemm_dims(&conv(), TrainingPhase::Forward, 8).unwrap();
        assert_eq!(d, GemmDims::new(8 * 28 * 28, 128, 64 * 9));
    }

    #[test]
    fn data_gradient_dims_match_tab1() {
        let d = gemm_dims(&conv(), TrainingPhase::DataGradient, 8).unwrap();
        assert_eq!(d, GemmDims::new(8 * 56 * 56, 64, 128 * 9));
    }

    #[test]
    fn weight_gradient_dims_match_tab1() {
        let d = gemm_dims(&conv(), TrainingPhase::WeightGradient, 8).unwrap();
        assert_eq!(d, GemmDims::new(64 * 9, 128, 8 * 28 * 28));
    }

    #[test]
    fn forward_and_weight_gradient_macs_match() {
        // Both multiply the same three extents, so MAC counts agree.
        let f = gemm_dims(&conv(), TrainingPhase::Forward, 4).unwrap();
        let w = gemm_dims(&conv(), TrainingPhase::WeightGradient, 4).unwrap();
        assert_eq!(f.macs(), w.macs());
    }

    #[test]
    fn forward_macs_match_layer_macs() {
        let l = conv();
        let d = gemm_dims(&l, TrainingPhase::Forward, 1).unwrap();
        assert_eq!(d.macs(), l.forward_macs() as u64);
    }

    #[test]
    fn fc_dims() {
        let fc = Layer::fully_connected("fc", FeatureShape::vector(2048), 1000);
        let d = gemm_dims(&fc, TrainingPhase::Forward, 16).unwrap();
        assert_eq!(d, GemmDims::new(16, 1000, 2048));
    }

    #[test]
    fn non_systolic_layers_have_no_gemm() {
        let r = Layer::relu("r", FeatureShape::new(8, 8, 8));
        assert!(gemm_dims(&r, TrainingPhase::Forward, 4).is_none());
    }

    #[test]
    fn first_layer_skips_data_gradient() {
        let all = training_gemms(&conv(), 4, false);
        let first = training_gemms(&conv(), 4, true);
        assert_eq!(all.len(), 3);
        assert_eq!(first.len(), 2);
    }
}
