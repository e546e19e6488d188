//! Convolution geometry ([`Conv2dCfg`]) and the im2col / col2im lowering
//! (the transformation WaveCore uses to map convolutions onto its systolic
//! array, paper §4.1). The runtime convolutions are direct
//! ([`crate::ops::direct`]) and never lower; [`im2col`] and [`col2im`] stay
//! as the reference the conv tests compare against.

use crate::tensor::Tensor;

/// Convolution geometry shared by the conv/im2col operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dCfg {
    /// Filter height.
    pub kernel_h: usize,
    /// Filter width.
    pub kernel_w: usize,
    /// Stride (both dimensions).
    pub stride: usize,
    /// Zero padding rows on each vertical edge.
    pub pad_h: usize,
    /// Zero padding columns on each horizontal edge.
    pub pad_w: usize,
}

impl Conv2dCfg {
    /// Square kernel with symmetric padding.
    pub fn square(kernel: usize, stride: usize, pad: usize) -> Self {
        Self {
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            pad_h: pad,
            pad_w: pad,
        }
    }

    /// Output spatial extent for an input extent.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_extent(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.pad_h;
        let pw = w + 2 * self.pad_w;
        assert!(
            ph >= self.kernel_h && pw >= self.kernel_w,
            "kernel does not fit padded input"
        );
        (
            (ph - self.kernel_h) / self.stride + 1,
            (pw - self.kernel_w) / self.stride + 1,
        )
    }
}

/// Lowers `x: [n, ci, h, w]` to a matrix `[n·ho·wo, ci·kh·kw]` whose rows
/// are flattened receptive fields.
///
/// # Panics
///
/// Panics if `x` is not 4-D or the kernel does not fit.
pub fn im2col(x: &Tensor, cfg: Conv2dCfg) -> Tensor {
    let [n, ci, h, w]: [usize; 4] = x.shape().try_into().expect("im2col expects 4-D input");
    let (ho, wo) = cfg.out_extent(h, w);
    let cols_w = ci * cfg.kernel_h * cfg.kernel_w;
    let mut out = Tensor::zeros(&[n * ho * wo, cols_w]);
    let xd = x.data();
    let od = out.data_mut();

    for ni in 0..n {
        for oy in 0..ho {
            for ox in 0..wo {
                let row = ((ni * ho) + oy) * wo + ox;
                let base = row * cols_w;
                for c in 0..ci {
                    for ky in 0..cfg.kernel_h {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.pad_h as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..cfg.kernel_w {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.pad_w as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            let col = (c * cfg.kernel_h + ky) * cfg.kernel_w + kx;
                            od[base + col] =
                                xd[((ni * ci + c) * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// Adjoint of [`im2col`]: scatters column gradients back to the input
/// layout `[n, ci, h, w]` (overlapping fields accumulate) — the same loop
/// nest, with the assignment turned around.
///
/// # Panics
///
/// Panics if `cols` does not match the geometry implied by the arguments.
pub fn col2im(cols: &Tensor, n: usize, ci: usize, h: usize, w: usize, cfg: Conv2dCfg) -> Tensor {
    let (ho, wo) = cfg.out_extent(h, w);
    let cols_w = ci * cfg.kernel_h * cfg.kernel_w;
    assert_eq!(
        cols.shape(),
        &[n * ho * wo, cols_w],
        "col2im shape mismatch"
    );
    let mut out = Tensor::zeros(&[n, ci, h, w]);
    let cd = cols.data();
    let od = out.data_mut();
    for ni in 0..n {
        for oy in 0..ho {
            for ox in 0..wo {
                let base = (((ni * ho) + oy) * wo + ox) * cols_w;
                for c in 0..ci {
                    for ky in 0..cfg.kernel_h {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.pad_h as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..cfg.kernel_w {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.pad_w as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            let col = (c * cfg.kernel_h + ky) * cfg.kernel_w + kx;
                            od[((ni * ci + c) * h + iy as usize) * w + ix as usize] +=
                                cd[base + col];
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2col_rows_are_receptive_fields() {
        // 1x1 input channel, 3x3 image, 2x2 kernel, no pad.
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let cols = im2col(&x, Conv2dCfg::square(2, 1, 0));
        assert_eq!(cols.shape(), &[4, 4]);
        // Top-left field: 1 2 / 4 5.
        assert_eq!(&cols.data()[0..4], &[1.0, 2.0, 4.0, 5.0]);
        // Bottom-right field: 5 6 / 8 9.
        assert_eq!(&cols.data()[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn padding_produces_zero_border() {
        let x = Tensor::full(&[1, 1, 2, 2], 1.0);
        let cols = im2col(&x, Conv2dCfg::square(3, 1, 1));
        assert_eq!(cols.shape(), &[4, 9]);
        // Top-left field has zeros along its first row and column.
        let first = &cols.data()[0..9];
        assert_eq!(first, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish tensors: the
        // defining property of an adjoint pair (used by conv backward).
        let x = Tensor::from_vec(
            &[2, 3, 5, 5],
            (0..150).map(|v| (v % 13) as f32 - 6.0).collect(),
        );
        let cfg = Conv2dCfg::square(3, 2, 1);
        let cols = im2col(&x, cfg);
        let y = Tensor::from_vec(
            cols.shape(),
            (0..cols.len()).map(|v| (v % 7) as f32 - 3.0).collect(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, 2, 3, 5, 5, cfg);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn out_extent_matches_formula() {
        let cfg = Conv2dCfg::square(3, 2, 1);
        assert_eq!(cfg.out_extent(56, 56), (28, 28));
    }
}
