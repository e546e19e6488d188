//! The residual CNN used by the Fig. 6 training experiments: a scaled-down
//! ResNet (stem → residual blocks → global pool → classifier) with a
//! pluggable normalization layer.

use rand::rngs::StdRng;

use mbs_tensor::Tensor;

use crate::layers::{Conv2d, GlobalAvgPool, Linear, Relu};
use crate::module::{Module, Param, StateDict, StateError};
use crate::norm::{Norm, NormChoice};

/// A two-conv residual block with optional projection shortcut.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    norm1: Norm,
    relu1: Relu,
    conv2: Conv2d,
    norm2: Norm,
    shortcut: Option<(Conv2d, Norm)>,
    relu_out: Relu,
}

impl ResidualBlock {
    /// Builds a block `in_channels → out_channels` with the given stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        norm: NormChoice,
        rng: &mut StdRng,
    ) -> Self {
        let shortcut = if stride != 1 || in_channels != out_channels {
            Some((
                Conv2d::new(in_channels, out_channels, 1, stride, 0, rng),
                Norm::new(norm, out_channels),
            ))
        } else {
            None
        };
        Self {
            conv1: Conv2d::new(in_channels, out_channels, 3, stride, 1, rng),
            norm1: Norm::new(norm, out_channels),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_channels, out_channels, 3, 1, 1, rng),
            norm2: Norm::new(norm, out_channels),
            shortcut,
            relu_out: Relu::new(),
        }
    }

    /// Output of the block's last normalization on `x` (a pre-activation
    /// probe for the Fig. 6 right-hand plots).
    pub fn preactivation(&mut self, x: &Tensor) -> Tensor {
        let h = self.conv1.forward(x, false);
        let h = self.norm1.forward(&h, false);
        let h = self.relu1.forward(&h, false);
        let h = self.conv2.forward(&h, false);
        self.norm2.forward(&h, false)
    }
}

impl Module for ResidualBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_owned(x.clone(), train)
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        // Intermediates are owned, so every hop uses the owned entry
        // point: ReLUs clamp in place, convs move their backward cache,
        // and the shortcut consumes `x` instead of cloning it.
        let h = self.conv1.forward(&x, train);
        let h = self.norm1.forward_owned(h, train);
        let h = self.relu1.forward_owned(h, train);
        let h = self.conv2.forward_owned(h, train);
        let mut h = self.norm2.forward_owned(h, train);
        let s = match &mut self.shortcut {
            Some((conv, norm)) => {
                let s = conv.forward_owned(x, train);
                norm.forward_owned(s, train)
            }
            None => x,
        };
        h.add_assign(&s);
        drop(s);
        self.relu_out.forward_owned(h, train)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let g = self.relu_out.backward(dy);
        // Main path.
        let d = self.norm2.backward(&g);
        let d = self.conv2.backward(&d);
        let d = self.relu1.backward(&d);
        let d = self.norm1.backward(&d);
        let mut dx = self.conv1.backward(&d);
        // Shortcut path.
        let ds = match &mut self.shortcut {
            Some((conv, norm)) => {
                let d = norm.backward(&g);
                conv.backward(&d)
            }
            None => g,
        };
        dx.add_assign(&ds);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.norm1.visit_params(f);
        self.conv2.visit_params(f);
        self.norm2.visit_params(f);
        if let Some((conv, norm)) = &mut self.shortcut {
            conv.visit_params(f);
            norm.visit_params(f);
        }
    }

    fn export_state(&mut self, dict: &mut StateDict) {
        self.conv1.export_state(dict);
        self.norm1.export_state(dict);
        self.conv2.export_state(dict);
        self.norm2.export_state(dict);
        if let Some((conv, norm)) = &mut self.shortcut {
            conv.export_state(dict);
            norm.export_state(dict);
        }
    }

    fn import_state(&mut self, dict: &mut StateDict) -> Result<(), StateError> {
        self.conv1.import_state(dict)?;
        self.norm1.import_state(dict)?;
        self.conv2.import_state(dict)?;
        self.norm2.import_state(dict)?;
        if let Some((conv, norm)) = &mut self.shortcut {
            conv.import_state(dict)?;
            norm.import_state(dict)?;
        }
        Ok(())
    }
}

/// The Fig. 6 experiment model: stem conv/norm/relu, two stages of
/// residual blocks, global average pooling, and a linear classifier.
#[derive(Debug, Clone)]
pub struct MiniResNet {
    stem_conv: Conv2d,
    stem_norm: Norm,
    stem_relu: Relu,
    blocks: Vec<ResidualBlock>,
    pool: GlobalAvgPool,
    head: Linear,
}

impl MiniResNet {
    /// Builds the model for `in_channels`-channel square inputs and
    /// `classes` outputs; `blocks_per_stage` residual blocks in each of two
    /// stages (16 and 32 channels, the second stage stride 2).
    pub fn new(
        in_channels: usize,
        classes: usize,
        blocks_per_stage: usize,
        norm: NormChoice,
        rng: &mut StdRng,
    ) -> Self {
        let widths = [16usize, 32usize];
        let mut blocks = Vec::new();
        let mut cur = widths[0];
        for (stage, &width) in widths.iter().enumerate() {
            for i in 0..blocks_per_stage {
                let stride = if stage > 0 && i == 0 { 2 } else { 1 };
                blocks.push(ResidualBlock::new(cur, width, stride, norm, rng));
                cur = width;
            }
        }
        Self {
            stem_conv: Conv2d::new(in_channels, widths[0], 3, 1, 1, rng),
            stem_norm: Norm::new(norm, widths[0]),
            stem_relu: Relu::new(),
            blocks,
            pool: GlobalAvgPool::new(),
            head: Linear::new(cur, classes, rng),
        }
    }

    /// Mean output of the first and last normalization layers on `x`
    /// (the paper's Fig. 6 pre-activation probes).
    pub fn preactivation_means(&mut self, x: &Tensor) -> (f32, f32) {
        let h = self.stem_conv.forward(x, false);
        let first = self.stem_norm.forward(&h, false);
        let mut cur = self.stem_relu.forward(&first, false);
        let n = self.blocks.len();
        let mut last_mean = first.mean();
        for (i, b) in self.blocks.iter_mut().enumerate() {
            if i + 1 == n {
                last_mean = b.preactivation(&cur).mean();
            }
            cur = b.forward(&cur, false);
        }
        (first.mean(), last_mean)
    }
}

impl Module for MiniResNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let h = self.stem_conv.forward(x, train);
        let h = self.stem_norm.forward_owned(h, train);
        let mut h = self.stem_relu.forward_owned(h, train);
        for b in &mut self.blocks {
            h = b.forward_owned(h, train);
        }
        let h = self.pool.forward_owned(h, train);
        self.head.forward_owned(h, train)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d = self.head.backward(dy);
        let mut d = self.pool.backward(&d);
        for b in self.blocks.iter_mut().rev() {
            d = b.backward(&d);
        }
        let d = self.stem_relu.backward(&d);
        let d = self.stem_norm.backward(&d);
        self.stem_conv.backward(&d)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem_conv.visit_params(f);
        self.stem_norm.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn export_state(&mut self, dict: &mut StateDict) {
        self.stem_conv.export_state(dict);
        self.stem_norm.export_state(dict);
        for b in &mut self.blocks {
            b.export_state(dict);
        }
        self.head.export_state(dict);
    }

    fn import_state(&mut self, dict: &mut StateDict) -> Result<(), StateError> {
        self.stem_conv.import_state(dict)?;
        self.stem_norm.import_state(dict)?;
        for b in &mut self.blocks {
            b.import_state(dict)?;
        }
        self.head.import_state(dict)
    }
}

/// A norm-free conv–bias–ReLU stack (stem → `depth` same-width conv
/// layers → global pool → classifier): every layer is a fused
/// conv+bias+ReLU, so this is the model where the epilogue pipeline
/// carries the *whole* per-layer post-processing (the steady-state
/// allocation test trains it).
#[derive(Debug, Clone)]
pub struct ConvNet {
    convs: Vec<Conv2d>,
    pool: GlobalAvgPool,
    head: Linear,
}

impl ConvNet {
    /// Builds the stack for `in_channels`-channel inputs, `classes`
    /// outputs, `width` channels per conv layer, and `depth` conv layers
    /// (≥ 1).
    pub fn new(
        in_channels: usize,
        classes: usize,
        width: usize,
        depth: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(depth >= 1, "ConvNet needs at least one conv layer");
        let mut convs = Vec::with_capacity(depth);
        let mut cur = in_channels;
        for _ in 0..depth {
            convs.push(Conv2d::with_bias_relu(cur, width, 3, 1, 1, true, true, rng));
            cur = width;
        }
        Self {
            convs,
            pool: GlobalAvgPool::new(),
            head: Linear::new(cur, classes, rng),
        }
    }
}

impl Module for ConvNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = self.convs[0].forward(x, train);
        for c in &mut self.convs[1..] {
            h = c.forward_owned(h, train);
        }
        let h = self.pool.forward_owned(h, train);
        self.head.forward_owned(h, train)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d = self.head.backward(dy);
        let mut d = self.pool.backward(&d);
        for c in self.convs.iter_mut().rev() {
            d = c.backward(&d);
        }
        d
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for c in &mut self.convs {
            c.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn export_state(&mut self, dict: &mut StateDict) {
        for c in &mut self.convs {
            c.export_state(dict);
        }
        self.head.export_state(dict);
    }

    fn import_state(&mut self, dict: &mut StateDict) -> Result<(), StateError> {
        for c in &mut self.convs {
            c.import_state(dict)?;
        }
        self.head.import_state(dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    fn input(n: usize) -> Tensor {
        let len = n * 3 * 8 * 8;
        Tensor::from_vec(
            &[n, 3, 8, 8],
            (0..len).map(|v| ((v % 17) as f32 - 8.0) / 5.0).collect(),
        )
    }

    #[test]
    fn forward_produces_logits() {
        for choice in [NormChoice::Batch, NormChoice::Group(4), NormChoice::None] {
            let mut m = MiniResNet::new(3, 4, 1, choice, &mut rng());
            let y = m.forward(&input(2), true);
            assert_eq!(y.shape(), &[2, 4]);
            assert!(y.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut m = MiniResNet::new(3, 4, 1, NormChoice::Group(4), &mut rng());
        let x = input(2);
        let y = m.forward(&x, true);
        let dx = m.backward(&Tensor::full(y.shape(), 0.1));
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.max_abs() > 0.0);
    }

    #[test]
    fn model_gradient_matches_finite_difference() {
        // Finite differences through a bf16-quantized GEMM are noise, not
        // gradients — f32 only (see `layers::tests::grad_check`).
        if mbs_tensor::prec::precision() != mbs_tensor::prec::Precision::F32 {
            return;
        }
        // End-to-end gradient check through stem + block + head.
        let mut m = MiniResNet::new(3, 3, 1, NormChoice::Group(4), &mut rng());
        let x = input(2);
        let y = m.forward(&x, true);
        let dy = Tensor::from_vec(
            y.shape(),
            (0..y.len()).map(|v| (v as f32 - 2.5) / 4.0).collect(),
        );
        m.zero_grad();
        let _ = m.backward(&dy);

        // Check the first convolution's first weights.
        let mut analytic = Vec::new();
        m.visit_params(&mut |p| {
            if analytic.is_empty() {
                analytic.push((p.value.clone(), p.grad.clone()));
            }
        });
        let (_, grad) = &analytic[0];
        let eps = 1e-2;
        for idx in [0usize, 5] {
            let perturb = |delta: f32, m: &mut MiniResNet| {
                let mut first = true;
                m.visit_params(&mut |p| {
                    if first {
                        p.value.data_mut()[idx] += delta;
                        first = false;
                    }
                });
            };
            perturb(eps, &mut m);
            let lp: f32 = m
                .forward(&x, false)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            perturb(-2.0 * eps, &mut m);
            let lm: f32 = m
                .forward(&x, false)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            perturb(eps, &mut m);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[idx]).abs() < 0.05,
                "idx {idx}: fd {fd} analytic {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn preactivation_probe_reports_two_layers() {
        let mut m = MiniResNet::new(3, 4, 2, NormChoice::Group(4), &mut rng());
        let (first, last) = m.preactivation_means(&input(2));
        assert!(first.is_finite() && last.is_finite());
        // Normalized outputs have small means.
        assert!(first.abs() < 1.0 && last.abs() < 1.0);
    }

    #[test]
    fn param_count_varies_with_norm() {
        let count = |choice| {
            let mut m = MiniResNet::new(3, 4, 1, choice, &mut rng());
            let mut c = 0usize;
            m.visit_params(&mut |p| c += p.value.len());
            c
        };
        assert!(count(NormChoice::Group(4)) > count(NormChoice::None));
        assert_eq!(count(NormChoice::Group(4)), count(NormChoice::Batch));
    }
}
