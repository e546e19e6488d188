//! Basic trainable layers: convolution (with optional fused bias +
//! activation), linear (fused bias, optional fused activation), ReLU,
//! pooling.

use rand::rngs::StdRng;

use mbs_tensor::init::kaiming_normal;
use mbs_tensor::ops::{
    avgpool2d, avgpool2d_backward, conv2d_backward_data, conv2d_backward_weights_into,
    conv2d_fused, global_avg_pool, global_avg_pool_backward, matmul, matmul_a_bt_fused,
    matmul_at_b, maxpool2d_backward, maxpool2d_padded, relu_backward, relu_clamp, relu_inplace,
    BitMask, Conv2dCfg,
};
use mbs_tensor::Tensor;

use crate::module::{stash_mismatch, CacheEntry, CacheStash, Module, Param};

/// 2-D convolution, optionally with a per-channel bias and a fused ReLU.
///
/// The model zoo's default ([`Conv2d::new`]) is bias-free and
/// activation-free because convs there pair with normalization layers. A
/// conv built with [`Conv2d::with_bias_relu`] runs conv + bias + ReLU as
/// one op: the bias and the clamp (plus its 1-bit backward mask) ride the
/// direct kernel's store into the NCHW output, so neither costs a pass
/// over it.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    cfg: Conv2dCfg,
    fuse_relu: bool,
    cache_x: Option<Tensor>,
    mask: Option<BitMask>,
}

impl Conv2d {
    /// Kaiming-initialized convolution, bias-free, no activation.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self::with_bias_relu(
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            false,
            false,
            rng,
        )
    }

    /// Kaiming-initialized convolution with an optional zero-initialized
    /// bias and an optional fused ReLU.
    #[allow(clippy::too_many_arguments)]
    pub fn with_bias_relu(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        relu: bool,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(kaiming_normal(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            rng,
        ));
        Self {
            weight,
            bias: bias.then(|| Param::new(Tensor::zeros(&[out_channels]))),
            cfg: Conv2dCfg::square(kernel, stride, pad),
            fuse_relu: relu,
            cache_x: None,
            mask: None,
        }
    }

    /// Kaiming-initialized convolution over an arbitrary (possibly
    /// rectangular-kernel, asymmetrically padded) geometry, bias-free and
    /// activation-free. The IR lowering path uses this: `mbs_cnn` conv
    /// layers carry a full [`Conv2dCfg`]-shaped geometry rather than the
    /// square kernels [`Conv2d::new`] assumes.
    pub fn from_cfg(
        in_channels: usize,
        out_channels: usize,
        cfg: Conv2dCfg,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * cfg.kernel_h * cfg.kernel_w;
        let weight = Param::new(kaiming_normal(
            &[out_channels, in_channels, cfg.kernel_h, cfg.kernel_w],
            fan_in,
            rng,
        ));
        Self {
            weight,
            bias: None,
            cfg,
            fuse_relu: false,
            cache_x: None,
            mask: None,
        }
    }

    /// The convolution geometry.
    pub fn cfg(&self) -> Conv2dCfg {
        self.cfg
    }

    /// Immutable access to the weights (tests, inspection).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Folds a per-output-channel affine transform into the layer so that
    /// the folded forward computes `scale[o]·conv(x)[o] + shift[o]` in one
    /// pass — the norm-folding primitive inference lowering uses to erase
    /// an eval-mode BatchNorm that follows this convolution. Scales each
    /// output channel's weights and rewrites (installing if absent) the
    /// bias as `b'[o] = scale[o]·b[o] + shift[o]`.
    ///
    /// A folded layer's parameter list may grow by the installed bias, so
    /// fold only *after* any `import_state` and never export the result —
    /// the state layout no longer matches the training-time module.
    ///
    /// # Panics
    ///
    /// Panics if `scale`/`shift` lengths differ from the output-channel
    /// count.
    pub fn fold_affine(&mut self, scale: &[f32], shift: &[f32]) {
        let out_channels = self.weight.value.shape()[0];
        assert_eq!(scale.len(), out_channels, "scale length");
        assert_eq!(shift.len(), out_channels, "shift length");
        let per_channel = self.weight.value.len() / out_channels;
        let wd = self.weight.value.data_mut();
        for (o, &s) in scale.iter().enumerate() {
            for w in &mut wd[o * per_channel..(o + 1) * per_channel] {
                *w *= s;
            }
        }
        match &mut self.bias {
            Some(bias) => {
                let bd = bias.value.data_mut();
                for o in 0..out_channels {
                    bd[o] = bd[o] * scale[o] + shift[o];
                }
            }
            None => {
                self.bias = Some(Param::new(Tensor::from_vec(
                    &[out_channels],
                    shift.to_vec(),
                )));
            }
        }
    }

    /// Forward body shared by the borrowed and owned entry points. Only a
    /// training forward records the backward sign mask; inference applies
    /// a mask-free clamp instead of building bits nobody will read.
    fn run_forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (mut y, mask) = conv2d_fused(
            x,
            &self.weight.value,
            self.bias.as_ref().map(|b| b.value.data()),
            self.fuse_relu && train,
            self.cfg,
        );
        if train {
            self.mask = mask;
        } else if self.fuse_relu {
            relu_clamp(&mut y);
        }
        y
    }

    /// Backward body: accumulates the parameter gradients and, only when
    /// `want_dx`, computes the input gradient.
    fn run_backward(&mut self, dy: &Tensor, want_dx: bool) -> Option<Tensor> {
        let x = self
            .cache_x
            .as_ref()
            .expect("backward requires a training forward");
        // Undo the fused activation first: dL/d(pre-activation) is dy
        // masked by the stored sign bits.
        let masked;
        let dy = if self.fuse_relu {
            let mask = self.mask.as_ref().expect("fused ReLU stores a mask");
            masked = relu_backward(dy, mask);
            &masked
        } else {
            dy
        };
        if let Some(bias) = &mut self.bias {
            // dL/db[c] = Σ_{n,h,w} dy[n,c,h,w].
            let [_, co, ho, wo]: [usize; 4] = dy.shape().try_into().expect("conv dy must be 4-D");
            let hw = ho * wo;
            let gb = bias.grad.data_mut();
            for (chunk_idx, chunk) in dy.data().chunks_exact(hw).enumerate() {
                gb[chunk_idx % co] += chunk.iter().sum::<f32>();
            }
        }
        conv2d_backward_weights_into(x, dy, self.cfg, &mut self.weight.grad);
        want_dx.then(|| conv2d_backward_data(dy, &self.weight.value, x.shape(), self.cfg))
    }
}

impl Module for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.run_forward(x, train);
        if train {
            self.cache_x = Some(x.clone());
        }
        y
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        let y = self.run_forward(&x, train);
        if train {
            // Move the input into the cache — the clone `forward` pays is
            // the only difference between the two entry points.
            self.cache_x = Some(x);
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.run_backward(dy, true)
            .expect("a backward that wants dx returns it")
    }

    /// Skips the data-gradient convolution — as costly as the weight
    /// gradient — whose result the caller would discard.
    fn backward_params(&mut self, dy: &Tensor) {
        let _ = self.run_backward(dy, false);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(bias) = &mut self.bias {
            f(bias);
        }
    }

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        stash.push(CacheEntry::Tensor(self.cache_x.take()));
        stash.push(CacheEntry::Mask(self.mask.take()));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Tensor(t) => self.cache_x = t,
            other => stash_mismatch("conv input", &other),
        }
        match stash.pop() {
            CacheEntry::Mask(m) => self.mask = m,
            other => stash_mismatch("conv mask", &other),
        }
    }
}

/// Fully-connected layer with bias and an optional fused ReLU.
///
/// The bias is always folded into the GEMM's C write-back
/// ([`mbs_tensor::ops::Epilogue`]) — the seed's separate `y += b` pass over
/// the output is gone. [`Linear::with_relu`] additionally fuses the
/// activation (and its 1-bit backward mask) into the same store.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param, // [out, in]
    bias: Param,   // [out]
    fuse_relu: bool,
    cache_x: Option<Tensor>,
    mask: Option<BitMask>,
}

impl Linear {
    /// Kaiming-initialized linear layer (no activation).
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let mut layer = Self::with_relu(in_features, out_features, rng);
        layer.fuse_relu = false;
        layer
    }

    /// Kaiming-initialized linear layer with a fused ReLU activation.
    pub fn with_relu(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self {
            weight: Param::new(kaiming_normal(
                &[out_features, in_features],
                in_features,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_features])),
            fuse_relu: true,
            cache_x: None,
            mask: None,
        }
    }

    /// Forward body shared by the borrowed and owned entry points. As for
    /// [`Conv2d`], inference skips the mask machinery and clamps instead.
    fn run_forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (mut y, mask) = matmul_a_bt_fused(
            x,
            &self.weight.value,
            self.bias.value.data(),
            self.fuse_relu && train,
        );
        if train {
            self.mask = mask;
        } else if self.fuse_relu {
            relu_clamp(&mut y);
        }
        y
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.run_forward(x, train);
        if train {
            self.cache_x = Some(x.clone());
        }
        y
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        let y = self.run_forward(&x, train);
        if train {
            self.cache_x = Some(x);
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cache_x
            .as_ref()
            .expect("backward requires a training forward");
        let masked;
        let dy = if self.fuse_relu {
            let mask = self.mask.as_ref().expect("fused ReLU stores a mask");
            masked = relu_backward(dy, mask);
            &masked
        } else {
            dy
        };
        let dw = matmul_at_b(dy, x); // [out, in]
        self.weight.grad.add_assign(&dw);
        let (n, o) = (dy.shape()[0], dy.shape()[1]);
        let dyd = dy.data();
        let gb = self.bias.grad.data_mut();
        for i in 0..n {
            for j in 0..o {
                gb[j] += dyd[i * o + j];
            }
        }
        matmul(dy, &self.weight.value) // [n, in]
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        stash.push(CacheEntry::Tensor(self.cache_x.take()));
        stash.push(CacheEntry::Mask(self.mask.take()));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Tensor(t) => self.cache_x = t,
            other => stash_mismatch("linear input", &other),
        }
        match stash.pop() {
            CacheEntry::Mask(m) => self.mask = m,
            other => stash_mismatch("linear mask", &other),
        }
    }
}

/// ReLU with the paper's 1-bit backward mask.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<BitMask>,
}

impl Relu {
    /// A fresh ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_owned(x.clone(), train)
    }

    fn forward_owned(&mut self, mut x: Tensor, train: bool) -> Tensor {
        // Owned input → clamp in place; no output tensor is allocated.
        let mask = relu_inplace(&mut x);
        if train {
            self.mask = Some(mask);
        }
        x
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward requires a training forward");
        relu_backward(dy, mask)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        stash.push(CacheEntry::Mask(self.mask.take()));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Mask(m) => self.mask = m,
            other => stash_mismatch("relu mask", &other),
        }
    }
}

/// Max pooling, optionally with symmetric zero padding (windows are
/// clipped to the valid region, so padding never wins an argmax).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input shape)
}

impl MaxPool2d {
    /// A `kernel × kernel` max pool with the given stride, unpadded.
    pub fn new(kernel: usize, stride: usize) -> Self {
        Self::with_pad(kernel, stride, 0)
    }

    /// A `kernel × kernel` max pool with `pad` zero rows/columns on each
    /// edge (the ResNet-stem `3×3/2 pad 1` geometry).
    ///
    /// # Examples
    ///
    /// ```
    /// use mbs_train::layers::MaxPool2d;
    /// use mbs_train::module::Module;
    /// use mbs_tensor::Tensor;
    ///
    /// let mut pool = MaxPool2d::with_pad(3, 2, 1);
    /// let x = Tensor::from_vec(&[1, 1, 7, 7], (0..49).map(|v| v as f32).collect());
    /// let y = pool.forward(&x, false);
    /// assert_eq!(y.shape(), &[1, 1, 4, 4]); // 7 -> 4, the ResNet pool1 rule
    /// ```
    pub fn with_pad(kernel: usize, stride: usize, pad: usize) -> Self {
        Self {
            kernel,
            stride,
            pad,
            cache: None,
        }
    }
}

impl Module for MaxPool2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (y, arg) = maxpool2d_padded(x, self.kernel, self.stride, self.pad);
        if train {
            self.cache = Some((arg, x.shape().to_vec()));
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (arg, shape) = self
            .cache
            .as_ref()
            .expect("backward requires a training forward");
        maxpool2d_backward(dy, arg, shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        stash.push(CacheEntry::Pool(self.cache.take()));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Pool(p) => self.cache = p,
            other => stash_mismatch("max-pool argmax", &other),
        }
    }
}

/// Average pooling over square windows with symmetric zero padding. The
/// divisor is the full window area (padding included), matching the
/// Inception-style `Pool { kind: Avg }` IR layers this lowers from;
/// backward needs only the input shape, not the activations.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    pad: usize,
    cache_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// A `kernel × kernel` average pool with the given stride and padding.
    ///
    /// # Examples
    ///
    /// ```
    /// use mbs_train::layers::AvgPool2d;
    /// use mbs_train::module::Module;
    /// use mbs_tensor::Tensor;
    ///
    /// // The Inception pooled-projection geometry: 3x3/1 pad 1 preserves
    /// // the spatial extent.
    /// let mut pool = AvgPool2d::new(3, 1, 1);
    /// let x = Tensor::full(&[1, 2, 5, 5], 1.0);
    /// let y = pool.forward(&x, false);
    /// assert_eq!(y.shape(), x.shape());
    /// assert_eq!(y.get(&[0, 0, 2, 2]), 1.0); // interior window: 9/9
    /// ```
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        Self {
            kernel,
            stride,
            pad,
            cache_shape: None,
        }
    }
}

impl Module for AvgPool2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cache_shape = Some(x.shape().to_vec());
        }
        avgpool2d(x, self.kernel, self.stride, self.pad)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let shape = self
            .cache_shape
            .as_ref()
            .expect("backward requires a training forward");
        avgpool2d_backward(dy, shape, self.kernel, self.stride, self.pad)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        stash.push(CacheEntry::Shape(self.cache_shape.take()));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Shape(s) => self.cache_shape = s,
            other => stash_mismatch("avg-pool shape", &other),
        }
    }
}

/// Global average pooling to `[n, c]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cache_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// A fresh pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cache_shape = Some(x.shape().to_vec());
        }
        global_avg_pool(x)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let shape = self
            .cache_shape
            .as_ref()
            .expect("backward requires a training forward");
        global_avg_pool_backward(dy, shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        stash.push(CacheEntry::Shape(self.cache_shape.take()));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Shape(s) => self.cache_shape = s,
            other => stash_mismatch("gap shape", &other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn seeded(shape: &[usize], salt: usize) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|v| (((v * 13 + salt * 7) % 19) as f32 - 9.0) / 5.0)
                .collect(),
        )
    }

    /// Generic finite-difference gradient check through a module.
    ///
    /// Only meaningful at f32: under `MBS_PREC=bf16` the packed-operand
    /// quantization makes the forward a step function at the ±1e-2 probe
    /// scale, so the finite difference is noise, not a gradient. The
    /// analytic gradient code being checked is precision-independent, and
    /// bf16 numerics are pinned by the precision equivalence tests.
    fn grad_check(m: &mut dyn Module, x: &Tensor, tol: f32) {
        if mbs_tensor::ops::Exec::process().precision != mbs_tensor::prec::Precision::F32 {
            return;
        }
        let y = m.forward(x, true);
        let dy = seeded(y.shape(), 99);
        let dx = m.backward(&dy);
        let eps = 1e-2;
        let loss = |m: &mut dyn Module, x: &Tensor| -> f32 {
            m.forward(x, false)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for idx in [0usize, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp = loss(m, &xp);
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm = loss(m, &xm);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[idx]).abs() < tol,
                "idx {idx}: fd {fd} analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn conv_module_gradient() {
        let mut m = Conv2d::new(2, 3, 3, 1, 1, &mut rng());
        grad_check(&mut m, &seeded(&[2, 2, 5, 5], 1), 1e-2);
    }

    #[test]
    fn linear_module_gradient() {
        let mut m = Linear::new(6, 4, &mut rng());
        grad_check(&mut m, &seeded(&[3, 6], 2), 1e-2);
    }

    #[test]
    fn gap_module_gradient() {
        let mut m = GlobalAvgPool::new();
        grad_check(&mut m, &seeded(&[2, 3, 4, 4], 3), 1e-3);
    }

    #[test]
    fn relu_module_masks_gradient() {
        let mut m = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, -3.0, 4.0]);
        let _ = m.forward(&x, true);
        let dx = m.backward(&Tensor::full(&[4], 1.0));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn conv_with_bias_gradient() {
        // Bias but no ReLU: the layer is smooth, so the generic
        // finite-difference check covers the bias-gradient path too.
        let mut m = Conv2d::with_bias_relu(2, 3, 3, 1, 1, true, false, &mut rng());
        m.visit_params(&mut |p| {
            // Perturb the zero-init bias so the check exercises it.
            if p.value.shape().len() == 1 {
                for (i, v) in p.value.data_mut().iter_mut().enumerate() {
                    *v = (i as f32 - 1.0) / 4.0;
                }
            }
        });
        grad_check(&mut m, &seeded(&[2, 2, 5, 5], 4), 1e-2);
    }

    #[test]
    fn conv_bias_gradient_sums_output_gradient() {
        let mut m = Conv2d::with_bias_relu(1, 2, 3, 1, 1, true, false, &mut rng());
        let x = seeded(&[2, 1, 4, 4], 7);
        let y = m.forward(&x, true);
        let _ = m.backward(&Tensor::full(y.shape(), 1.0));
        // db[c] = Σ dy over (n, h, w) = 2·4·4 = 32 per channel.
        let mut biases = Vec::new();
        m.visit_params(&mut |p| {
            if p.value.shape().len() == 1 {
                biases.push(p.grad.clone());
            }
        });
        assert_eq!(biases.len(), 1);
        assert!(biases[0].max_abs_diff(&Tensor::full(&[2], 32.0)) < 1e-4);
    }

    /// A fused conv+bias+ReLU layer must match the composition the zoo
    /// previously ran (conv, separate bias, Relu module) bitwise — forward
    /// output, input gradient, and weight gradient.
    #[test]
    fn fused_conv_relu_layer_matches_composition() {
        let x = seeded(&[2, 2, 6, 6], 8);
        let dy = seeded(&[2, 3, 6, 6], 9);
        let mut fused = Conv2d::with_bias_relu(2, 3, 3, 1, 1, false, true, &mut rng());
        let mut plain = Conv2d::new(2, 3, 3, 1, 1, &mut rng());
        let mut act = Relu::new();

        let y_f = fused.forward(&x, true);
        let y_p = act.forward_owned(plain.forward(&x, true), true);
        assert_eq!(y_f, y_p, "fused forward must equal conv-then-ReLU");

        let dx_f = fused.backward(&dy);
        let dx_p = plain.backward(&act.backward(&dy));
        assert_eq!(dx_f, dx_p, "fused backward must equal conv-then-ReLU");
        assert_eq!(fused.weight().grad, plain.weight().grad);
    }

    #[test]
    fn fused_linear_relu_matches_composition() {
        let x = seeded(&[3, 6], 12);
        let dy = seeded(&[3, 4], 13);
        let mut fused = Linear::with_relu(6, 4, &mut rng());
        let mut plain = Linear::new(6, 4, &mut rng());
        let mut act = Relu::new();

        let y_f = fused.forward(&x, true);
        let y_p = act.forward_owned(plain.forward(&x, true), true);
        assert_eq!(y_f, y_p);

        let dx_f = fused.backward(&dy);
        let dx_p = plain.backward(&act.backward(&dy));
        assert_eq!(dx_f, dx_p);
    }

    #[test]
    fn inference_forward_matches_training_forward_values() {
        // train=false skips the mask machinery (relu_clamp path) but must
        // produce the same activations as a training forward.
        let x = seeded(&[2, 2, 5, 5], 16);
        let mut m = Conv2d::with_bias_relu(2, 3, 3, 1, 1, true, true, &mut rng());
        let y_train = m.forward(&x, true);
        let y_eval = m.forward(&x, false);
        assert_eq!(y_train, y_eval);

        let mut l = Linear::with_relu(6, 4, &mut rng());
        let x = seeded(&[3, 6], 17);
        assert_eq!(l.forward(&x, true), l.forward(&x, false));
    }

    #[test]
    fn forward_owned_matches_forward_and_caches_for_backward() {
        let x = seeded(&[2, 2, 5, 5], 14);
        let dy = seeded(&[2, 3, 5, 5], 15);
        let mut a = Conv2d::new(2, 3, 3, 1, 1, &mut rng());
        let mut b = a.clone();
        let ya = a.forward(&x, true);
        let yb = b.forward_owned(x.clone(), true);
        assert_eq!(ya, yb);
        assert_eq!(a.backward(&dy), b.backward(&dy));
    }

    #[test]
    fn conv_accumulates_gradients_across_backwards() {
        let mut m = Conv2d::new(1, 1, 3, 1, 1, &mut rng());
        let x = seeded(&[1, 1, 4, 4], 5);
        let y = m.forward(&x, true);
        let dy = Tensor::full(y.shape(), 1.0);
        let _ = m.backward(&dy);
        let g1 = m.weight().grad.clone();
        let _ = m.forward(&x, true);
        let _ = m.backward(&dy);
        let mut twice = g1.clone();
        twice.add_assign(&g1);
        assert!(m.weight().grad.max_abs_diff(&twice) < 1e-5);
    }

    #[test]
    fn zero_grad_clears_all_params() {
        let mut m = Linear::new(3, 2, &mut rng());
        let x = seeded(&[2, 3], 6);
        let y = m.forward(&x, true);
        let _ = m.backward(&Tensor::full(y.shape(), 1.0));
        m.zero_grad();
        m.visit_params(&mut |p| assert_eq!(p.grad.max_abs(), 0.0));
    }
}
