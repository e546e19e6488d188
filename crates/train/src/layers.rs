//! Basic trainable layers: convolution, linear (fused bias), ReLU,
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

/// 2-D convolution, bias-free: convs pair with normalization layers. Only
/// the inference-only [`Conv2d::fold_affine`] installs a bias, which the
/// direct kernel adds in its store.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    cfg: Conv2dCfg,
    cache_x: Option<Tensor>,
}

impl Conv2d {
    /// Kaiming-initialized convolution over an arbitrary (possibly
    /// rectangular-kernel, asymmetrically padded) geometry.
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
            cache_x: None,
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

    fn run_forward(&self, x: &Tensor) -> Tensor {
        let bias = self.bias.as_ref().map(|b| b.value.data());
        conv2d_fused(x, &self.weight.value, bias, self.cfg)
    }

    /// Backward body: accumulates the weight gradient and, only when
    /// `want_dx`, computes the input gradient.
    fn run_backward(&mut self, dy: &Tensor, want_dx: bool) -> Option<Tensor> {
        assert!(self.bias.is_none(), "a folded conv is inference-only");
        let x = self
            .cache_x
            .as_ref()
            .expect("backward requires a training forward");
        conv2d_backward_weights_into(x, dy, self.cfg, &mut self.weight.grad);
        want_dx.then(|| conv2d_backward_data(dy, &self.weight.value, x.shape(), self.cfg))
    }
}

impl Module for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.run_forward(x);
        if train {
            self.cache_x = Some(x.clone());
        }
        y
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        let y = self.run_forward(&x);
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
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Tensor(t) => self.cache_x = t,
            other => stash_mismatch("conv input", &other),
        }
    }
}

/// Fully-connected layer with bias, flattening a 4-D input to
/// `[n, c·h·w]` (and restoring that shape on the input gradient).
///
/// The bias is folded into the GEMM's C write-back
/// ([`mbs_tensor::ops::matmul_a_bt_fused`]), not added in a separate pass.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param, // [out, in]
    bias: Param,   // [out]
    cache_x: Option<Tensor>,
    /// The un-flattened input shape of the last training forward, if it
    /// was not already 2-D.
    in_shape: Option<Vec<usize>>,
}

impl Linear {
    /// Kaiming-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self {
            weight: Param::new(kaiming_normal(
                &[out_features, in_features],
                in_features,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cache_x: None,
            in_shape: None,
        }
    }
}

impl Module for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_owned(x.clone(), train)
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        let (x, in_shape) = if x.shape().len() > 2 {
            let shape = x.shape().to_vec();
            let flat = x.len() / shape[0].max(1);
            (x.into_reshaped(&[shape[0], flat]), Some(shape))
        } else {
            (x, None)
        };
        let y = matmul_a_bt_fused(&x, &self.weight.value, self.bias.value.data());
        if train {
            self.cache_x = Some(x);
            self.in_shape = in_shape;
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cache_x
            .as_ref()
            .expect("backward requires a training forward");
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
        let dx = matmul(dy, &self.weight.value); // [n, in]
        match &self.in_shape {
            Some(shape) => dx.into_reshaped(shape),
            None => dx,
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        stash.push(CacheEntry::Tensor(self.cache_x.take()));
        stash.push(CacheEntry::Shape(self.in_shape.take()));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Tensor(t) => self.cache_x = t,
            other => stash_mismatch("linear input", &other),
        }
        match stash.pop() {
            CacheEntry::Shape(s) => self.in_shape = s,
            other => stash_mismatch("linear input shape", &other),
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
        // Owned input → clamp in place; no output tensor is allocated, and
        // an eval forward builds no mask.
        if train {
            self.mask = Some(relu_inplace(&mut x));
        } else {
            relu_clamp(&mut x);
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

/// Max pooling, optionally with symmetric padding (padding never wins an
/// argmax). A training forward keeps each output's argmax as a one-byte
/// window-tap index; an eval forward computes none.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<(Vec<u8>, Vec<usize>)>, // (window-tap indices, input shape)
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
        if !train {
            return maxpool2d_padded(x, self.kernel, self.stride, self.pad, None);
        }
        let mut taps = Vec::new();
        let y = maxpool2d_padded(x, self.kernel, self.stride, self.pad, Some(&mut taps));
        self.cache = Some((taps, x.shape().to_vec()));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (taps, shape) = self
            .cache
            .as_ref()
            .expect("backward requires a training forward");
        maxpool2d_backward(dy, taps, shape, self.kernel, self.stride, self.pad)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        stash.push(CacheEntry::Pool(self.cache.take()));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        match stash.pop() {
            CacheEntry::Pool(p) => self.cache = p,
            other => stash_mismatch("max-pool tap indices", &other),
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
    use mbs_tensor::prec::Precision;
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
        let mut m = Conv2d::from_cfg(2, 3, Conv2dCfg::square(3, 1, 1), &mut rng());
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
    fn relu_eval_forward_matches_training_and_keeps_no_mask() {
        let x = seeded(&[2, 3, 5, 5], 18);
        let mut m = Relu::new();
        let y_eval = m.forward(&x, false);
        let mut stash = CacheStash::with_precision(Precision::F32);
        m.stash_caches(&mut stash);
        assert!(matches!(stash.pop(), CacheEntry::Mask(None)));
        let y_train = m.forward(&x, true);
        assert_eq!(bits(&y_eval), bits(&y_train));
    }

    #[test]
    fn inference_forward_matches_training_forward_values() {
        // train=false caches nothing but must produce the same
        // activations as a training forward.
        let x = seeded(&[2, 2, 5, 5], 16);
        let mut m = Conv2d::from_cfg(2, 3, Conv2dCfg::square(3, 1, 1), &mut rng());
        let y_train = m.forward(&x, true);
        let y_eval = m.forward(&x, false);
        assert_eq!(y_train, y_eval);

        let mut l = Linear::new(6, 4, &mut rng());
        let x = seeded(&[3, 6], 17);
        assert_eq!(l.forward(&x, true), l.forward(&x, false));
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn maxpool_eval_forward_matches_training_forward_bitwise() {
        // `seeded` repeats values, so windows hold ties; the eval forward
        // computes no argmax but must pick the same values.
        let x = seeded(&[2, 3, 7, 7], 21);
        for (k, s, p) in [(3, 2, 1), (3, 1, 1), (2, 2, 0), (3, 2, 0)] {
            let mut m = MaxPool2d::with_pad(k, s, p);
            let y_train = m.forward(&x, true);
            assert_eq!(bits(&y_train), bits(&m.forward(&x, false)), "{k}/{s}/{p}");
        }
    }

    #[test]
    fn maxpool_tap_cache_survives_a_stash_round_trip() {
        let x = seeded(&[2, 3, 7, 7], 22);
        let other = seeded(&[2, 3, 7, 7], 23);
        for prec in [Precision::F32, Precision::Bf16] {
            let mut m = MaxPool2d::with_pad(3, 2, 1);
            let y = m.forward(&x, true);
            let dy = seeded(y.shape(), 24);
            let want = m.backward(&dy);
            let _ = m.forward(&x, true);
            let mut stash = CacheStash::with_precision(prec);
            m.stash_caches(&mut stash);
            // A later chunk's forward would overwrite an unstashed cache.
            let _ = m.forward(&other, true);
            m.unstash_caches(&mut stash);
            assert!(stash.is_empty());
            assert_eq!(bits(&m.backward(&dy)), bits(&want), "{prec:?}");
        }
    }

    #[test]
    fn forward_owned_matches_forward_and_caches_for_backward() {
        let x = seeded(&[2, 2, 5, 5], 14);
        let dy = seeded(&[2, 3, 5, 5], 15);
        let mut a = Conv2d::from_cfg(2, 3, Conv2dCfg::square(3, 1, 1), &mut rng());
        let mut b = a.clone();
        let ya = a.forward(&x, true);
        let yb = b.forward_owned(x.clone(), true);
        assert_eq!(ya, yb);
        assert_eq!(a.backward(&dy), b.backward(&dy));
    }

    #[test]
    fn conv_accumulates_gradients_across_backwards() {
        let mut m = Conv2d::from_cfg(1, 1, Conv2dCfg::square(3, 1, 1), &mut rng());
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
