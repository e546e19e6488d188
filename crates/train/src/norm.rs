//! Feature normalization: batch, group, and local response normalization.
//!
//! BN normalizes each channel over the whole per-processor mini-batch, so
//! it fundamentally cannot be serialized into sub-batches — the statistics
//! change. GN normalizes channel groups *within a single sample* (Wu & He
//! 2018), which is why the paper adopts it for MBS (§3.1): sub-batch
//! serialization leaves GN's arithmetic bit-for-bit unchanged. LRN
//! (AlexNet's cross-channel normalization) is likewise per-sample and
//! MBS-compatible; the IR models it as `NormKind::Local` and the lowering
//! maps it onto [`LocalResponseNorm`].
//!
//! # GroupNorm's reduction order
//!
//! Every GN reduction runs over one contiguous NCHW span: the forward's
//! Σx and Σx² over a (sample, group) span of `channels/groups · h · w`
//! elements, the backward's Σdy and Σdy·x̂ over a (sample, channel) plane
//! of `h · w`. Element `i` of a span accumulates into f32 lane `i % 16`,
//! and the 16 lanes then combine as a fixed binary tree (lane `l` takes
//! `l + 8`, then `l + 4`, `l + 2`, `l + 1`). The backward's group sums
//! Σγ·dy and Σγ·dy·x̂ are the per-channel sums weighted by γ and added
//! in channel order; dγ and dβ add each sample's per-channel sums in
//! sample order. Rust never contracts `a·b + c` into a fused
//! multiply-add, so the order alone fixes every rounding: results are
//! deterministic on every ISA and thread count, and a sample's outputs
//! never depend on the rest of the batch. Before PR 25 each sum was one
//! serial f32 chain (the compiler may not reassociate it, so it ran
//! scalar at 1–1.5 ns per element); the lanes add the same terms in a
//! different order, so results differ from then only by f32 rounding —
//! smaller, if anything, since each lane's chain is 16× shorter.
//!
//! The variance is the one-pass `E[x²] − μ²`: it loses relative accuracy
//! as `(μ/σ)²·2⁻²⁴` when a group's mean dwarfs its spread (bounded
//! against an f64 reference in the tests). An inference forward
//! (`train = false`) writes only `y`; x̂ is materialized for the backward
//! cache alone, and both paths round `y` identically.

#![allow(clippy::needless_range_loop)] // indexed loops read several parallel buffers

use mbs_tensor::Tensor;

use crate::module::{stash_mismatch, CacheEntry, CacheStash, Module, Param, StateDict, StateError};

const EPS: f32 = 1e-5;

/// Batch normalization over `[n, c, h, w]`.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    ivar: Vec<f32>,
}

impl BatchNorm2d {
    /// BN over `channels` with running-stat momentum 0.1.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            cache: None,
        }
    }

    /// The per-channel affine `(scale, shift)` an inference forward
    /// applies: `y[c] = scale[c]·x[c] + shift[c]` with
    /// `scale[c] = γ_c/√(var_c + ε)` and `shift[c] = β_c − mean_c·scale[c]`
    /// over the **running** statistics. This is what norm folding bakes
    /// into the preceding convolution's weights at model-load time (see
    /// [`crate::lower::LoweredNet::fold_batch_norms`]) — eval-mode BN is a
    /// fixed elementwise transform, unlike the data-dependent train mode.
    pub fn eval_affine(&self) -> (Vec<f32>, Vec<f32>) {
        let gd = self.gamma.value.data();
        let bd = self.beta.value.data();
        let mut scale = Vec::with_capacity(gd.len());
        let mut shift = Vec::with_capacity(gd.len());
        for c in 0..gd.len() {
            let s = gd[c] / (self.running_var[c] + EPS).sqrt();
            scale.push(s);
            shift.push(bd[c] - self.running_mean[c] * s);
        }
        (scale, shift)
    }
}

impl Module for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("bn expects 4-D");
        let m = (n * h * w) as f32;
        let xd = x.data();
        let mut y = Tensor::zeros(x.shape());
        let mut xhat = Tensor::zeros(x.shape());
        let mut ivar = vec![0.0f32; c];
        let gd = self.gamma.value.data().to_vec();
        let bd = self.beta.value.data().to_vec();

        for ci in 0..c {
            let (mean, var) = if train {
                let mut sum = 0.0;
                let mut sq = 0.0;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for &v in &xd[base..base + h * w] {
                        sum += v;
                        sq += v * v;
                    }
                }
                let mean = sum / m;
                let var = (sq / m - mean * mean).max(0.0);
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ci], self.running_var[ci])
            };
            let iv = 1.0 / (var + EPS).sqrt();
            ivar[ci] = iv;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    let xh = (xd[i] - mean) * iv;
                    xhat.data_mut()[i] = xh;
                    y.data_mut()[i] = gd[ci] * xh + bd[ci];
                }
            }
        }
        if train {
            self.cache = Some(BnCache { xhat, ivar });
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("backward requires a training forward");
        let [n, c, h, w]: [usize; 4] = dy.shape().try_into().expect("bn expects 4-D");
        let m = (n * h * w) as f32;
        let dyd = dy.data();
        let xh = cache.xhat.data();
        let gd = self.gamma.value.data().to_vec();
        let mut dx = Tensor::zeros(dy.shape());

        for ci in 0..c {
            let mut sum_dy = 0.0;
            let mut sum_dy_xhat = 0.0;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    sum_dy += dyd[i];
                    sum_dy_xhat += dyd[i] * xh[i];
                }
            }
            self.beta.grad.data_mut()[ci] += sum_dy;
            self.gamma.grad.data_mut()[ci] += sum_dy_xhat;
            let scale = gd[ci] * cache.ivar[ci] / m;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    dx.data_mut()[i] = scale * (m * dyd[i] - sum_dy - xh[i] * sum_dy_xhat);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        let (xhat, ivar) = match self.cache.take() {
            Some(c) => (Some(c.xhat), Some(c.ivar)),
            None => (None, None),
        };
        stash.push(CacheEntry::Tensor(xhat));
        stash.push(CacheEntry::Stats(ivar));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        let xhat = match stash.pop() {
            CacheEntry::Tensor(t) => t,
            other => stash_mismatch("bn xhat", &other),
        };
        let ivar = match stash.pop() {
            CacheEntry::Stats(s) => s,
            other => stash_mismatch("bn ivar", &other),
        };
        self.cache = match (xhat, ivar) {
            (Some(xhat), Some(ivar)) => Some(BnCache { xhat, ivar }),
            _ => None,
        };
    }

    fn export_state(&mut self, dict: &mut StateDict) {
        // Scale/shift parameters, then the running statistics — the
        // inference-time state `visit_params` cannot see.
        dict.push_tensor(&self.gamma.value);
        dict.push_tensor(&self.beta.value);
        dict.push_slice(&self.running_mean);
        dict.push_slice(&self.running_var);
    }

    fn import_state(&mut self, dict: &mut StateDict) -> Result<(), StateError> {
        dict.pop_into_tensor(&mut self.gamma.value)?;
        dict.pop_into_tensor(&mut self.beta.value)?;
        dict.pop_into_slice(&mut self.running_mean)?;
        dict.pop_into_slice(&mut self.running_var)
    }
}

/// Group normalization over `[n, c, h, w]` with `groups` channel groups.
#[derive(Debug, Clone)]
pub struct GroupNorm {
    groups: usize,
    gamma: Param,
    beta: Param,
    cache: Option<GnCache>,
}

#[derive(Debug, Clone)]
struct GnCache {
    xhat: Tensor,
    ivar: Vec<f32>, // per (sample, group)
}

impl GroupNorm {
    /// GN with the given group count.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide `channels`.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(
            groups > 0 && channels.is_multiple_of(groups),
            "groups must divide channels"
        );
        Self {
            groups,
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            cache: None,
        }
    }
}

/// Accumulator lanes of every GroupNorm reduction.
const LANES: usize = 16;

/// `(Σ a, Σ a·b)` over two equal-length slices: element `i` accumulates
/// into f32 lane `i % LANES`, then [`pairwise`] combines the lanes. The
/// independent lanes are what lets the compiler keep the sums in vector
/// registers; the order depends only on the slice length.
fn sum_and_dot(a: &[f32], b: &[f32]) -> (f32, f32) {
    assert_eq!(a.len(), b.len(), "reduction operands must match");
    let (a_body, a_tail) = a.as_chunks::<LANES>();
    let (b_body, b_tail) = b.as_chunks::<LANES>();
    let mut sum = [0.0f32; LANES];
    let mut dot = [0.0f32; LANES];
    for (ca, cb) in a_body.iter().zip(b_body) {
        for l in 0..LANES {
            sum[l] += ca[l];
            dot[l] += ca[l] * cb[l];
        }
    }
    for (l, (&va, &vb)) in a_tail.iter().zip(b_tail).enumerate() {
        sum[l] += va;
        dot[l] += va * vb;
    }
    (pairwise(sum), pairwise(dot))
}

/// Sums the lanes as a fixed binary tree: lane `l` takes lane
/// `l + LANES/2`, then `l + LANES/4`, … down to lane 0.
fn pairwise(mut lanes: [f32; LANES]) -> f32 {
    let mut width = LANES / 2;
    while width > 0 {
        for l in 0..width {
            lanes[l] += lanes[l + width];
        }
        width /= 2;
    }
    lanes[0]
}

impl Module for GroupNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("gn expects 4-D");
        let hw = h * w;
        let cpg = c / self.groups;
        // One (sample, group) pair owns `span` contiguous NCHW elements.
        let span = cpg * hw;
        let m = span as f32;
        let gd = self.gamma.value.data();
        let bd = self.beta.value.data();
        let mut y = Tensor::uninit(x.shape());
        // Only a training forward materializes x̂: inference writes y alone.
        let mut xhat = train.then(|| Tensor::uninit(x.shape()));
        let mut ivar = vec![0.0f32; n * self.groups];

        let spans = x
            .data()
            .chunks_exact(span)
            .zip(y.data_mut().chunks_exact_mut(span));
        for (s, (xs, ys)) in spans.enumerate() {
            let (sum, sq) = sum_and_dot(xs, xs);
            let mean = sum / m;
            let var = (sq / m - mean * mean).max(0.0);
            let iv = 1.0 / (var + EPS).sqrt();
            ivar[s] = iv;
            let c0 = (s % self.groups) * cpg;
            let affine = gd[c0..c0 + cpg].iter().zip(&bd[c0..c0 + cpg]);
            let channels = xs.chunks_exact(hw).zip(ys.chunks_exact_mut(hw)).zip(affine);
            // Both arms evaluate `γ·((x − μ)·σ⁻¹) + β` identically, so eval
            // and training outputs agree bitwise.
            match &mut xhat {
                Some(xhat) => {
                    let xhs = xhat.data_mut()[s * span..(s + 1) * span].chunks_exact_mut(hw);
                    for (((xc, yc), (&g, &b)), xhc) in channels.zip(xhs) {
                        for (&v, xh) in xc.iter().zip(xhc.iter_mut()) {
                            *xh = (v - mean) * iv;
                        }
                        for (&t, yv) in xhc.iter().zip(yc) {
                            *yv = g * t + b;
                        }
                    }
                }
                None => {
                    for ((xc, yc), (&g, &b)) in channels {
                        for (&v, yv) in xc.iter().zip(yc) {
                            *yv = g * ((v - mean) * iv) + b;
                        }
                    }
                }
            }
        }
        if let Some(xhat) = xhat {
            self.cache = Some(GnCache { xhat, ivar });
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self
            .cache
            .as_ref()
            .expect("backward requires a training forward");
        let [_, c, h, w]: [usize; 4] = dy.shape().try_into().expect("gn expects 4-D");
        let hw = h * w;
        let cpg = c / self.groups;
        let span = cpg * hw;
        let m = span as f32;
        let gd = self.gamma.value.data();
        let dgamma = self.gamma.grad.data_mut();
        let dbeta = self.beta.grad.data_mut();
        // Every element of dx is written below (the (sample, group) spans
        // tile the tensor), so the buffer starts uninitialized.
        let mut dx = Tensor::uninit(dy.shape());

        let spans = dy
            .data()
            .chunks_exact(span)
            .zip(cache.xhat.data().chunks_exact(span))
            .zip(dx.data_mut().chunks_exact_mut(span));
        for (s, ((dys, xhs), dxs)) in spans.enumerate() {
            let c0 = (s % self.groups) * cpg;
            // Per-(sample, channel) Σdy and Σdy·x̂ feed dβ and dγ directly
            // and, weighted by γ, the group sums Σγ·dy and Σγ·dy·x̂.
            let mut sum_g = 0.0;
            let mut sum_gx = 0.0;
            for (k, (dc, xc)) in dys.chunks_exact(hw).zip(xhs.chunks_exact(hw)).enumerate() {
                let cc = c0 + k;
                let (s_dy, s_dyx) = sum_and_dot(dc, xc);
                dbeta[cc] += s_dy;
                dgamma[cc] += s_dyx;
                sum_g += gd[cc] * s_dy;
                sum_gx += gd[cc] * s_dyx;
            }
            let scale = cache.ivar[s] / m;
            let channels = dys
                .chunks_exact(hw)
                .zip(xhs.chunks_exact(hw))
                .zip(dxs.chunks_exact_mut(hw));
            for (((dc, xc), dxc), &g) in channels.zip(&gd[c0..c0 + cpg]) {
                for ((&d, &xv), out) in dc.iter().zip(xc).zip(dxc) {
                    *out = scale * (m * (g * d) - sum_g - xv * sum_gx);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        let (xhat, ivar) = match self.cache.take() {
            Some(c) => (Some(c.xhat), Some(c.ivar)),
            None => (None, None),
        };
        stash.push(CacheEntry::Tensor(xhat));
        stash.push(CacheEntry::Stats(ivar));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        let xhat = match stash.pop() {
            CacheEntry::Tensor(t) => t,
            other => stash_mismatch("gn xhat", &other),
        };
        let ivar = match stash.pop() {
            CacheEntry::Stats(s) => s,
            other => stash_mismatch("gn ivar", &other),
        };
        self.cache = match (xhat, ivar) {
            (Some(xhat), Some(ivar)) => Some(GnCache { xhat, ivar }),
            _ => None,
        };
    }
}

/// Local response normalization (Krizhevsky et al. 2012): each activation
/// is scaled by a power of the sum of squares of its cross-channel
/// neighborhood,
///
/// ```text
/// y[c] = x[c] · (k + α/n · Σ_{c' ∈ W(c)} x[c']²)^(-β)
/// ```
///
/// with `W(c)` the `n`-wide channel window centered on `c` (clamped at the
/// edges). Per-sample and parameterless, so — like GN — it is exactly
/// invariant under MBS sub-batch serialization. Defaults are AlexNet's
/// (`n = 5`, `α = 1e-4`, `β = 0.75`, `k = 2`); the IR's
/// `NormKind::Local` lowers to exactly this configuration.
///
/// # Examples
///
/// ```
/// use mbs_train::norm::LocalResponseNorm;
/// use mbs_train::module::Module;
/// use mbs_tensor::Tensor;
///
/// let mut lrn = LocalResponseNorm::alexnet();
/// let x = Tensor::full(&[2, 8, 4, 4], 1.0);
/// let y = lrn.forward(&x, false);
/// // Every output shrinks toward zero but keeps the input's sign.
/// assert!(y.data().iter().all(|&v| v > 0.0 && v < 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct LocalResponseNorm {
    size: usize,
    alpha: f32,
    beta: f32,
    k: f32,
    /// (input, per-element scale denominator `k + α/n·Σx²`).
    cache: Option<(Tensor, Tensor)>,
}

impl LocalResponseNorm {
    /// LRN with an explicit window size and constants.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize, alpha: f32, beta: f32, k: f32) -> Self {
        assert!(size > 0, "window size must be positive");
        Self {
            size,
            alpha,
            beta,
            k,
            cache: None,
        }
    }

    /// The AlexNet configuration: `n = 5`, `α = 1e-4`, `β = 0.75`, `k = 2`.
    pub fn alexnet() -> Self {
        Self::new(5, 1e-4, 0.75, 2.0)
    }

    /// The per-element scale denominator `s = k + α/n · Σ_{W(c)} x²`.
    fn scales(&self, x: &Tensor) -> Tensor {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("lrn expects 4-D");
        let hw = h * w;
        let half = self.size / 2;
        let coef = self.alpha / self.size as f32;
        let xd = x.data();
        let mut s = Tensor::uninit(x.shape());
        let sd = s.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let lo = ci.saturating_sub(half);
                let hi = (ci + half + 1).min(c);
                let base = (ni * c + ci) * hw;
                for p in 0..hw {
                    let mut sq = 0.0f32;
                    for cj in lo..hi {
                        let v = xd[(ni * c + cj) * hw + p];
                        sq += v * v;
                    }
                    sd[base + p] = self.k + coef * sq;
                }
            }
        }
        s
    }
}

impl Module for LocalResponseNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let s = self.scales(x);
        let mut y = Tensor::uninit(x.shape());
        let yd = y.data_mut();
        for ((&xv, &sv), out) in x.data().iter().zip(s.data()).zip(yd.iter_mut()) {
            *out = xv * sv.powf(-self.beta);
        }
        if train {
            self.cache = Some((x.clone(), s));
        }
        y
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = self.scales(&x);
        let mut y = Tensor::uninit(x.shape());
        let yd = y.data_mut();
        for ((&xv, &sv), out) in x.data().iter().zip(s.data()).zip(yd.iter_mut()) {
            *out = xv * sv.powf(-self.beta);
        }
        if train {
            // Move the input into the cache instead of cloning it.
            self.cache = Some((x, s));
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, s) = self
            .cache
            .as_ref()
            .expect("backward requires a training forward");
        let [n, c, h, w]: [usize; 4] = dy.shape().try_into().expect("lrn expects 4-D");
        let hw = h * w;
        let half = self.size / 2;
        let coef = 2.0 * self.alpha * self.beta / self.size as f32;
        let xd = x.data();
        let sd = s.data();
        let dyd = dy.data();
        // u[c] = dy[c]·x[c]·s[c]^(-β-1); the cross-channel term of dx[j]
        // is a windowed sum of u (the window relation is symmetric).
        let mut u = Tensor::uninit(dy.shape());
        let ud = u.data_mut();
        for i in 0..dy.len() {
            ud[i] = dyd[i] * xd[i] * sd[i].powf(-self.beta - 1.0);
        }
        let mut dx = Tensor::uninit(dy.shape());
        let dxd = dx.data_mut();
        for ni in 0..n {
            for cj in 0..c {
                let lo = cj.saturating_sub(half);
                let hi = (cj + half + 1).min(c);
                let base = (ni * c + cj) * hw;
                for p in 0..hw {
                    let mut cross = 0.0f32;
                    for ci in lo..hi {
                        cross += ud[(ni * c + ci) * hw + p];
                    }
                    let i = base + p;
                    dxd[i] = dyd[i] * sd[i].powf(-self.beta) - coef * xd[i] * cross;
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn stash_caches(&mut self, stash: &mut CacheStash) {
        let (x, s) = match self.cache.take() {
            Some((x, s)) => (Some(x), Some(s)),
            None => (None, None),
        };
        stash.push(CacheEntry::Tensor(x));
        stash.push(CacheEntry::Tensor(s));
    }

    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        let x = match stash.pop() {
            CacheEntry::Tensor(t) => t,
            other => stash_mismatch("lrn input", &other),
        };
        let s = match stash.pop() {
            CacheEntry::Tensor(t) => t,
            other => stash_mismatch("lrn scale", &other),
        };
        self.cache = match (x, s) {
            (Some(x), Some(s)) => Some((x, s)),
            _ => None,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::slice_batch;

    fn seeded(shape: &[usize], salt: usize) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|v| (((v * 29 + salt * 13) % 31) as f32 - 15.0) / 6.0)
                .collect(),
        )
    }

    #[test]
    fn bn_normalizes_channel_statistics() {
        let mut bn = BatchNorm2d::new(3);
        let x = seeded(&[4, 3, 5, 5], 1);
        let y = bn.forward(&x, true);
        // Per-channel mean ~0, var ~1.
        for c in 0..3 {
            let mut vals = Vec::new();
            for n in 0..4 {
                for h in 0..5 {
                    for w in 0..5 {
                        vals.push(y.get(&[n, c, h, w]));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gn_normalizes_per_sample_groups() {
        let mut gn = GroupNorm::new(4, 2);
        let x = seeded(&[2, 4, 3, 3], 2);
        let y = gn.forward(&x, true);
        for n in 0..2 {
            for g in 0..2 {
                let mut vals = Vec::new();
                for c in g * 2..(g + 1) * 2 {
                    for h in 0..3 {
                        for w in 0..3 {
                            vals.push(y.get(&[n, c, h, w]));
                        }
                    }
                }
                let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
                assert!(mean.abs() < 1e-4, "sample {n} group {g} mean {mean}");
            }
        }
    }

    /// The property MBS relies on (§3.1): GN of a sub-batch equals the
    /// corresponding rows of GN of the full batch; BN does not.
    #[test]
    fn gn_is_subbatch_invariant_bn_is_not() {
        let x = seeded(&[4, 4, 3, 3], 3);
        let first_two = slice_batch(&x, 0, 2);

        let mut gn = GroupNorm::new(4, 2);
        let full = gn.forward(&x, false);
        let mut gn2 = GroupNorm::new(4, 2);
        let part = gn2.forward(&first_two, false);
        assert!(slice_batch(&full, 0, 2).max_abs_diff(&part) < 1e-6);

        let mut bn = BatchNorm2d::new(4);
        let full = bn.forward(&x, true);
        let mut bn2 = BatchNorm2d::new(4);
        let part = bn2.forward(&first_two, true);
        assert!(slice_batch(&full, 0, 2).max_abs_diff(&part) > 1e-3);
    }

    fn grad_check_norm(norm: &mut dyn Module, shape: &[usize]) {
        let x = seeded(shape, 4);
        let y = norm.forward(&x, true);
        let dy = seeded(y.shape(), 5);
        let dx = norm.backward(&dy);
        let eps = 1e-2;
        for idx in [0usize, x.len() / 3, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp: f32 = norm
                .forward(&xp, true)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm: f32 = norm
                .forward(&xm, true)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[idx]).abs() < 2e-2,
                "idx {idx}: fd {fd} analytic {}",
                dx.data()[idx]
            );
        }
        // Restore the cache for callers (forward mutated it).
        let _ = norm.forward(&x, true);
    }

    #[test]
    fn bn_gradient_matches_finite_difference() {
        let mut bn = BatchNorm2d::new(2);
        grad_check_norm(&mut bn, &[3, 2, 4, 4]);
    }

    #[test]
    fn gn_gradient_matches_finite_difference() {
        let mut gn = GroupNorm::new(4, 2);
        grad_check_norm(&mut gn, &[2, 4, 4, 4]);
    }

    /// `len` values of `offset + spread·u`, `u` uniform in `[-1, 1)` from a
    /// seeded LCG (aperiodic at every test length, unlike [`seeded`]).
    fn lcg(len: usize, seed: u64, offset: f32, spread: f32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = (s >> 40) as f32 / (1u64 << 24) as f32;
                offset + spread * (2.0 * u - 1.0)
            })
            .collect()
    }

    /// A GN layer with non-trivial γ and β.
    fn gn_with_affine(c: usize, groups: usize) -> GroupNorm {
        let mut gn = GroupNorm::new(c, groups);
        gn.gamma.value = Tensor::from_vec(&[c], lcg(c, 11, 1.0, 0.5));
        gn.beta.value = Tensor::from_vec(&[c], lcg(c, 12, 0.0, 0.5));
        gn
    }

    /// What the f64 reference computes for one GN forward and backward.
    struct GnReference {
        y: Vec<f64>,
        xhat: Vec<f64>,
        ivar: Vec<f64>,
        dx: Vec<f64>,
        dgamma: Vec<f64>,
        dbeta: Vec<f64>,
    }

    /// GN forward and backward in f64 with a two-pass variance — the
    /// textbook formulas, no shared code with the f32 kernels.
    fn gn_reference(
        x: &[f32],
        dy: &[f32],
        shape: [usize; 4],
        groups: usize,
        gamma: &[f32],
        beta: &[f32],
    ) -> GnReference {
        let [n, c, h, w] = shape;
        let span = c / groups * h * w;
        let m = span as f64;
        let mut r = GnReference {
            y: vec![0.0; x.len()],
            xhat: vec![0.0; x.len()],
            ivar: vec![0.0; n * groups],
            dx: vec![0.0; x.len()],
            dgamma: vec![0.0; c],
            dbeta: vec![0.0; c],
        };
        let chan = |i: usize| i / (h * w) % c;
        for s in 0..n * groups {
            let idx = s * span..(s + 1) * span;
            let mean = idx.clone().map(|i| x[i] as f64).sum::<f64>() / m;
            let var = idx
                .clone()
                .map(|i| (x[i] as f64 - mean).powi(2))
                .sum::<f64>()
                / m;
            let iv = 1.0 / (var + EPS as f64).sqrt();
            r.ivar[s] = iv;
            let (mut sum_g, mut sum_gx) = (0.0, 0.0);
            for i in idx.clone() {
                let g = gamma[chan(i)] as f64;
                let xh = (x[i] as f64 - mean) * iv;
                r.xhat[i] = xh;
                r.y[i] = g * xh + beta[chan(i)] as f64;
                r.dbeta[chan(i)] += dy[i] as f64;
                r.dgamma[chan(i)] += dy[i] as f64 * xh;
                sum_g += g * dy[i] as f64;
                sum_gx += g * dy[i] as f64 * xh;
            }
            for i in idx {
                let g = gamma[chan(i)] as f64 * dy[i] as f64;
                r.dx[i] = iv / m * (m * g - sum_g - r.xhat[i] * sum_gx);
            }
        }
        r
    }

    /// Largest absolute error relative to the largest reference magnitude.
    fn rel_err(got: &[f32], want: &[f64]) -> f64 {
        assert_eq!(got.len(), want.len());
        let scale = want.iter().fold(0.0f64, |a, v| a.max(v.abs())).max(1e-30);
        let err = got
            .iter()
            .zip(want)
            .fold(0.0f64, |a, (&g, &r)| a.max((g as f64 - r).abs()));
        err / scale
    }

    /// Every GN output — `y`, the cached `x̂` and `σ⁻¹`, and `dx`, `dγ`,
    /// `dβ` — against the f64 reference, over spans that are and are not
    /// multiples of the 16 accumulator lanes, one channel per group, one
    /// group, several samples, and inputs whose mean dwarfs their spread
    /// (where the one-pass `E[x²] − μ²` variance loses the most).
    #[test]
    fn gn_matches_f64_reference() {
        // (shape, groups, input offset, input spread, bound). The spread
        // is uniform, so σ = spread/√3. The one-pass variance cancels
        // relative error ~(μ/σ)²·2⁻²⁴ into σ⁻¹: observed 7e-5 at μ/σ ≈ 28
        // and 1.2e-3 at μ/σ ≈ 104, against ~2e-7 for centred inputs.
        let cases: [([usize; 4], usize, f32, f32, f64); 6] = [
            ([2, 4, 3, 5], 2, 0.0, 2.0, 1e-5),
            ([1, 6, 7, 7], 6, 0.5, 1.0, 1e-5),
            ([3, 4, 5, 4], 1, -1.0, 3.0, 1e-5),
            ([2, 8, 16, 16], 4, 0.0, 1.0, 1e-5),
            ([2, 6, 9, 9], 3, 8.0, 0.5, 2e-4),
            ([1, 4, 11, 13], 2, 30.0, 0.5, 5e-3),
        ];
        for (ci, (shape, groups, offset, spread, bound)) in cases.into_iter().enumerate() {
            let len: usize = shape.iter().product();
            let x = Tensor::from_vec(&shape, lcg(len, ci as u64, offset, spread));
            let dy = Tensor::from_vec(&shape, lcg(len, 100 + ci as u64, 0.0, 1.0));
            let mut gn = gn_with_affine(shape[1], groups);
            let want = gn_reference(
                x.data(),
                dy.data(),
                shape,
                groups,
                gn.gamma.value.data(),
                gn.beta.value.data(),
            );
            let y = gn.forward(&x, true);
            let cache = gn.cache.as_ref().expect("training forward caches");
            let errs = [
                ("y", rel_err(y.data(), &want.y)),
                ("xhat", rel_err(cache.xhat.data(), &want.xhat)),
                ("ivar", rel_err(&cache.ivar, &want.ivar)),
            ];
            let dx = gn.backward(&dy);
            let errs = errs.into_iter().chain([
                ("dx", rel_err(dx.data(), &want.dx)),
                ("dgamma", rel_err(gn.gamma.grad.data(), &want.dgamma)),
                ("dbeta", rel_err(gn.beta.grad.data(), &want.dbeta)),
            ]);
            for (what, err) in errs {
                assert!(
                    err <= bound,
                    "case {ci} {shape:?}/{groups} (mean {offset}, spread {spread}): \
                     {what} relative error {err:e} > {bound:e}"
                );
            }
        }
    }

    /// GN is per-sample (the property MBS relies on), and so is its
    /// arithmetic: a batch's `y` and `dx` equal each sample's own, bitwise.
    #[test]
    fn gn_batched_equals_per_sample_bitwise() {
        let shape = [3, 6, 5, 7];
        let len: usize = shape.iter().product();
        let x = Tensor::from_vec(&shape, lcg(len, 1, 0.3, 2.0));
        let dy = Tensor::from_vec(&shape, lcg(len, 2, 0.0, 1.0));
        let mut batched = gn_with_affine(6, 3);
        let y = batched.forward(&x, true);
        let dx = batched.backward(&dy);
        for i in 0..3 {
            let mut single = gn_with_affine(6, 3);
            let yi = single.forward(&slice_batch(&x, i, i + 1), true);
            assert_eq!(yi, slice_batch(&y, i, i + 1), "sample {i} y");
            let dxi = single.backward(&slice_batch(&dy, i, i + 1));
            assert_eq!(dxi, slice_batch(&dx, i, i + 1), "sample {i} dx");
        }
    }

    /// An inference forward writes only `y` — bitwise the training
    /// forward's — and materializes no backward cache.
    #[test]
    fn gn_eval_forward_matches_train_and_caches_nothing() {
        let shape = [2, 8, 9, 9];
        let len: usize = shape.iter().product();
        let x = Tensor::from_vec(&shape, lcg(len, 3, 1.0, 2.0));
        let mut gn = gn_with_affine(8, 4);
        let y_eval = gn.forward(&x, false);
        assert!(gn.cache.is_none(), "an eval forward must not cache x̂");
        let y_train = gn.forward(&x, true);
        assert_eq!(y_eval, y_train);
        assert!(gn.cache.is_some());
    }

    #[test]
    fn bn_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(2);
        let x = seeded(&[4, 2, 3, 3], 6);
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        let train_out = bn.forward(&x, true);
        let eval_out = bn.forward(&x, false);
        // After many updates the running stats converge to batch stats.
        assert!(train_out.max_abs_diff(&eval_out) < 0.05);
    }

    #[test]
    #[should_panic(expected = "groups must divide")]
    fn gn_rejects_bad_groups() {
        let _ = GroupNorm::new(6, 4);
    }

    #[test]
    fn lrn_gradient_matches_finite_difference() {
        // Exaggerated constants so the cross-channel term is visible above
        // the finite-difference tolerance.
        let mut lrn = LocalResponseNorm::new(3, 0.5, 0.75, 2.0);
        grad_check_norm(&mut lrn, &[2, 5, 3, 3]);
    }

    #[test]
    fn lrn_is_subbatch_invariant() {
        // Like GN: per-sample arithmetic, so sub-batch rows match exactly.
        let x = seeded(&[4, 6, 3, 3], 7);
        let first_two = slice_batch(&x, 0, 2);
        let mut a = LocalResponseNorm::alexnet();
        let full = a.forward(&x, false);
        let mut b = LocalResponseNorm::alexnet();
        let part = b.forward(&first_two, false);
        assert_eq!(slice_batch(&full, 0, 2), part);
    }

    #[test]
    fn lrn_stash_round_trip_preserves_backward() {
        use crate::module::CacheStash;
        let x = seeded(&[2, 5, 3, 3], 8);
        let dy = seeded(&[2, 5, 3, 3], 9);
        let mut a = LocalResponseNorm::alexnet();
        let mut b = LocalResponseNorm::alexnet();
        let _ = a.forward(&x, true);
        let _ = b.forward(&x, true);
        let mut stash = CacheStash::default();
        b.stash_caches(&mut stash);
        // A second forward overwrites b's live caches...
        let _ = b.forward(&seeded(&[2, 5, 3, 3], 10), true);
        b.unstash_caches(&mut stash);
        // ...but the restored stash reproduces a's backward bitwise.
        assert_eq!(a.backward(&dy), b.backward(&dy));
    }
}
