//! 2-D convolution: forward, data gradient and weight gradient — the
//! three GEMM-shaped reductions of the paper's Tab. 1 — as the public
//! entry points over the direct kernels of [`crate::ops::direct`].
//!
//! Every geometry runs the same path: each sample is staged once into
//! zero-padded planes and correlated by a register tile that writes NCHW
//! output in place; no im2col matrix, column gradient or pixel-major
//! staging buffer exists. [`conv2d_fused`] additionally applies a
//! per-channel bias and a ReLU (with its 1-bit sign mask) in the tile's
//! store — bias and activation in **zero extra passes** over the output,
//! bitwise equal to the separate passes.
//!
//! [`conv2d_naive`] keeps the plain loop nest as the reference
//! implementation the equivalence tests pin everything against.

use crate::ops::activation::{relu_inplace, BitMask};
use crate::ops::direct::{self, Exec};
use crate::ops::im2col::Conv2dCfg;
use crate::tensor::Tensor;

/// Loop-nest convolution forward; the reference for the direct path.
pub fn conv2d_naive(x: &Tensor, w: &Tensor, cfg: Conv2dCfg) -> Tensor {
    let [n, ci, h, wd]: [usize; 4] = x.shape().try_into().expect("conv expects 4-D input");
    let co = w.shape()[0];
    assert_eq!(
        w.shape(),
        &[co, ci, cfg.kernel_h, cfg.kernel_w],
        "weights/config mismatch"
    );
    let (ho, wo) = cfg.out_extent(h, wd);
    let mut out = Tensor::zeros(&[n, co, ho, wo]);
    let xd = x.data();
    let wdat = w.data();
    let od = out.data_mut();
    for ni in 0..n {
        for c_out in 0..co {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0;
                    for c in 0..ci {
                        for ky in 0..cfg.kernel_h {
                            let iy = (oy * cfg.stride + ky) as isize - cfg.pad_h as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..cfg.kernel_w {
                                let ix = (ox * cfg.stride + kx) as isize - cfg.pad_w as isize;
                                if ix < 0 || ix as usize >= wd {
                                    continue;
                                }
                                acc += xd[((ni * ci + c) * h + iy as usize) * wd + ix as usize]
                                    * wdat[((c_out * ci + c) * cfg.kernel_h + ky) * cfg.kernel_w
                                        + kx];
                            }
                        }
                    }
                    od[((ni * co + c_out) * ho + oy) * wo + ox] = acc;
                }
            }
        }
    }
    out
}

/// Convolution forward: `y[n, co] = Σ_{ci, ky, kx} w[co, ci, ky, kx] ·
/// x[n, ci, s·oy + ky - pad_h, s·ox + kx - pad_w]`, by direct correlation
/// of the staged input ([`direct::forward`]).
///
/// # Examples
///
/// ```
/// use mbs_tensor::ops::{conv2d, Conv2dCfg};
/// use mbs_tensor::Tensor;
///
/// // A 3×3 all-ones kernel over an all-ones 5×5 image (stride 1, pad 1):
/// // interior outputs see the full 9-tap window.
/// let x = Tensor::full(&[1, 1, 5, 5], 1.0);
/// let w = Tensor::full(&[1, 1, 3, 3], 1.0);
/// let y = conv2d(&x, &w, Conv2dCfg::square(3, 1, 1));
/// assert_eq!(y.shape(), &[1, 1, 5, 5]);
/// assert_eq!(y.get(&[0, 0, 2, 2]), 9.0); // interior
/// assert_eq!(y.get(&[0, 0, 0, 0]), 4.0); // corner: 2×2 window in-bounds
/// ```
pub fn conv2d(x: &Tensor, w: &Tensor, cfg: Conv2dCfg) -> Tensor {
    direct::forward(x, w, None, false, cfg, Exec::process()).0
}

/// [`conv2d`] with a per-channel bias and optional ReLU fused in: both
/// ride the register tile's store into the NCHW output — zero extra passes
/// over it. The mask (when `relu`) is in NCHW element order, ready for
/// [`crate::ops::relu_backward`].
///
/// # Panics
///
/// Panics on shape mismatches or if a provided `bias` is not one value
/// per output channel.
pub fn conv2d_fused(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    relu: bool,
    cfg: Conv2dCfg,
) -> (Tensor, Option<BitMask>) {
    conv2d_fused_with(x, w, bias, relu, cfg, true)
}

/// [`conv2d_fused`] with the fused/unfused decision made explicitly.
/// `fused = false` is the test oracle: plain [`conv2d`], then a bias
/// pass, then [`relu_inplace`]; the parity tests pin it bitwise-equal to
/// the fused store.
pub fn conv2d_fused_with(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    relu: bool,
    cfg: Conv2dCfg,
    fused: bool,
) -> (Tensor, Option<BitMask>) {
    if fused {
        return direct::forward(x, w, bias, relu, cfg, Exec::process());
    }
    let mut y = conv2d(x, w, cfg);
    if let Some(b) = bias {
        assert_eq!(b.len(), y.shape()[1], "one bias per output channel");
        let hw = y.shape()[2] * y.shape()[3];
        for (chunk, &bv) in y.data_mut().chunks_exact_mut(hw).zip(b.iter().cycle()) {
            for v in chunk {
                *v += bv;
            }
        }
    }
    let mask = relu.then(|| relu_inplace(&mut y));
    (y, mask)
}

/// Gradient of the loss with respect to the convolution input: `dy`
/// correlated with the flipped, channel-swapped kernel, one pass per
/// stride phase ([`direct::backward_data`]); only one sample's padded `dy`
/// is ever staged.
///
/// # Panics
///
/// Panics if `w` is not `[co, ci, kernel_h, kernel_w]` for `dy`'s `co` and
/// `x_shape`'s `ci`, or `dy` does not match the output extent.
///
/// # Examples
///
/// ```
/// use mbs_tensor::ops::{conv2d_backward_data, Conv2dCfg};
/// use mbs_tensor::Tensor;
///
/// let dy = Tensor::full(&[2, 4, 8, 8], 1.0);
/// let w = Tensor::full(&[4, 3, 3, 3], 0.5);
/// let dx = conv2d_backward_data(&dy, &w, &[2, 3, 8, 8], Conv2dCfg::square(3, 1, 1));
/// assert_eq!(dx.shape(), &[2, 3, 8, 8]); // gradient matches the input shape
/// ```
pub fn conv2d_backward_data(dy: &Tensor, w: &Tensor, x_shape: &[usize], cfg: Conv2dCfg) -> Tensor {
    direct::backward_data(dy, w, x_shape, cfg, Exec::process())
}

/// Gradient of the loss with respect to the weights: `dW[co, ci, ky, kx] =
/// Σ_{n, oy, ox} dy[n, co, oy, ox] · x[n, ci, s·oy + ky - pad_h, s·ox + kx
/// - pad_w]`, as a new tensor ([`conv2d_backward_weights_into`] on zeros).
///
/// # Examples
///
/// ```
/// use mbs_tensor::ops::{conv2d_backward_weights, Conv2dCfg};
/// use mbs_tensor::Tensor;
///
/// let x = Tensor::full(&[2, 3, 8, 8], 1.0);
/// let dy = Tensor::full(&[2, 4, 8, 8], 1.0);
/// let dw = conv2d_backward_weights(&x, &dy, Conv2dCfg::square(3, 1, 1));
/// assert_eq!(dw.shape(), &[4, 3, 3, 3]); // gradient matches the weight shape
/// // The center tap sees every one of the 2·8·8 output pixels.
/// assert_eq!(dw.get(&[0, 0, 1, 1]), 128.0);
/// ```
pub fn conv2d_backward_weights(x: &Tensor, dy: &Tensor, cfg: Conv2dCfg) -> Tensor {
    let (ci, co) = (x.shape()[1], dy.shape()[1]);
    let mut dw = Tensor::zeros(&[co, ci, cfg.kernel_h, cfg.kernel_w]);
    conv2d_backward_weights_into(x, dy, cfg, &mut dw);
    dw
}

/// `grad += dW` without materializing `dW`: each weight's sum over every
/// sample and pixel completes in registers and is added to `grad` once, so
/// the result is bitwise equal to [`conv2d_backward_weights`] followed by
/// an element-wise add ([`direct::backward_weights_into`]).
///
/// # Panics
///
/// Panics if `dy` is not `[n, co, ho, wo]` for `x`'s batch and output
/// extent, or `grad` is not `[co, ci, kernel_h, kernel_w]`.
pub fn conv2d_backward_weights_into(x: &Tensor, dy: &Tensor, cfg: Conv2dCfg, grad: &mut Tensor) {
    direct::backward_weights_into(x, dy, cfg, grad, Exec::process());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(shape: &[usize], salt: usize) -> Tensor {
        let len: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..len)
                .map(|v| (((v * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0)
                .collect(),
        )
    }

    #[test]
    fn fused_path_matches_naive_forward() {
        for (stride, pad) in [(1, 0), (1, 1), (2, 1)] {
            let cfg = Conv2dCfg::square(3, stride, pad);
            let x = seeded(&[2, 3, 7, 7], 1);
            let w = seeded(&[4, 3, 3, 3], 2);
            let a = conv2d_naive(&x, &w, cfg);
            let b = conv2d(&x, &w, cfg);
            assert!(a.max_abs_diff(&b) < 1e-4, "stride {stride} pad {pad}");
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let x = seeded(&[1, 2, 5, 5], 3);
        let mut w = seeded(&[3, 2, 3, 3], 4);
        let dy = seeded(&[1, 3, 5, 5], 5);

        let dw = conv2d_backward_weights(&x, &dy, cfg);
        // Check a handful of weight coordinates against (L(w+e) - L(w-e)) /
        // 2e where L = <conv(x, w), dy>.
        let eps = 1e-2;
        for idx in [0usize, 7, 23, 41] {
            let orig = w.data()[idx];
            w.data_mut()[idx] = orig + eps;
            let lp: f32 = conv2d(&x, &w, cfg)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            w.data_mut()[idx] = orig - eps;
            let lm: f32 = conv2d(&x, &w, cfg)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            w.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dw.data()[idx]).abs() < 1e-2,
                "idx {idx}: fd {fd} analytic {}",
                dw.data()[idx]
            );
        }
    }

    #[test]
    fn data_gradient_matches_finite_difference() {
        let cfg = Conv2dCfg::square(3, 2, 1);
        let mut x = seeded(&[1, 2, 6, 6], 6);
        let w = seeded(&[3, 2, 3, 3], 7);
        let dy = seeded(&[1, 3, 3, 3], 8);

        let dx = conv2d_backward_data(&dy, &w, x.shape(), cfg);
        let eps = 1e-2;
        for idx in [0usize, 11, 35, 71] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let lp: f32 = conv2d(&x, &w, cfg)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            x.data_mut()[idx] = orig - eps;
            let lm: f32 = conv2d(&x, &w, cfg)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            x.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[idx]).abs() < 1e-2,
                "idx {idx}: fd {fd} analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn conv_is_linear_in_input() {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let a = seeded(&[1, 2, 5, 5], 9);
        let b = seeded(&[1, 2, 5, 5], 10);
        let w = seeded(&[2, 2, 3, 3], 11);
        let lhs = conv2d(&a.add(&b), &w, cfg);
        let rhs = conv2d(&a, &w, cfg).add(&conv2d(&b, &w, cfg));
        assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn non_square_inputs_and_kernels_work() {
        let cfg = Conv2dCfg {
            kernel_h: 3,
            kernel_w: 2,
            stride: 1,
            pad_h: 1,
            pad_w: 0,
        };
        let x = seeded(&[2, 3, 9, 6], 12);
        let w = seeded(&[5, 3, 3, 2], 13);
        let a = conv2d_naive(&x, &w, cfg);
        let b = conv2d(&x, &w, cfg);
        assert!(a.max_abs_diff(&b) < 1e-4);
    }

    #[test]
    #[should_panic(expected = "conv weights must be [3, 2, 3, 3]")]
    fn data_gradient_rejects_weights_with_the_wrong_channels() {
        // 4 input channels instead of 2: large enough to index, wrong
        // stride — it used to be read silently.
        let dy = seeded(&[1, 3, 5, 5], 1);
        let w = seeded(&[3, 4, 3, 3], 2);
        conv2d_backward_data(&dy, &w, &[1, 2, 5, 5], Conv2dCfg::square(3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "conv weights must be [3, 2, 3, 3]")]
    fn data_gradient_rejects_a_kernel_that_disagrees_with_cfg() {
        let dy = seeded(&[1, 3, 5, 5], 1);
        let w = seeded(&[3, 2, 5, 5], 2);
        conv2d_backward_data(&dy, &w, &[1, 2, 5, 5], Conv2dCfg::square(3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "dy shape mismatch: [1, 3, 5, 5] for a batch of 2 5×5 inputs")]
    fn weight_gradient_rejects_a_batch_mismatch() {
        let x = seeded(&[2, 2, 5, 5], 1);
        let dy = seeded(&[1, 3, 5, 5], 2);
        conv2d_backward_weights(&x, &dy, Conv2dCfg::square(3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "weight gradient shape mismatch")]
    fn weight_gradient_rejects_a_channel_mismatch() {
        let x = seeded(&[1, 2, 5, 5], 1);
        let dy = seeded(&[1, 3, 5, 5], 2);
        let mut grad = Tensor::zeros(&[4, 2, 3, 3]);
        conv2d_backward_weights_into(&x, &dy, Conv2dCfg::square(3, 1, 1), &mut grad);
    }

    #[test]
    fn weights_into_accumulates_bitwise_like_alloc_then_add() {
        let cfg = Conv2dCfg::square(3, 2, 1);
        let x = seeded(&[3, 5, 9, 8], 14);
        let dy = seeded(&[3, 9, 5, 4], 15);
        let mut grad = seeded(&[9, 5, 3, 3], 16);
        let mut want = grad.clone();
        want.add_assign(&conv2d_backward_weights(&x, &dy, cfg));
        conv2d_backward_weights_into(&x, &dy, cfg, &mut grad);
        assert_eq!(grad, want);
    }
}
