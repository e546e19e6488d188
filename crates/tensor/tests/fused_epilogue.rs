//! Bitwise parity pins for the bias the GEMM and the direct convolution
//! add in their output store.
//!
//! The contract under test: for **every** registered micro-kernel
//! (`scalar-8x8`, `avx2-fma-8x8`, `avx512-fma-16x16` where the CPU has
//! them), every thread count, both operand precisions, and shapes that
//! exercise edge tiles, the fused store is **bitwise identical** to the
//! unfused sequence: the plain op, then a separate bias pass. The same
//! holds for the layer-level entry points (`matmul_a_bt_fused`,
//! `conv2d_fused`), checked here against test-local unfused oracles.

use proptest::prelude::*;

use mbs_tensor::ops::{
    conv2d, conv2d_fused, gemm, kernel, matmul_a_bt, matmul_a_bt_fused, Conv2dCfg, Exec, MatSrc,
};
use mbs_tensor::prec::Precision;
use mbs_tensor::Tensor;

fn filled(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|v| (((v * 13 + salt * 7) % 19) as f32 - 9.0) / 5.0)
        .collect()
}

/// Shapes chosen to hit full tiles, edge tiles in both directions, single
/// elements, and multi-depth-panel reductions (k > KC = 128).
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (7, 9, 5),
    (16, 16, 16),
    (17, 31, 7),
    (64, 256, 128),
    (65, 257, 129),
    (100, 3, 300),
    (33, 48, 129),
];

/// The separate bias pass: `y[i][j] += bias[j]` over rows of `n` columns.
fn add_column_bias(y: &mut [f32], n: usize, bias: &[f32]) {
    for row in y.chunks_exact_mut(n.max(1)) {
        for (v, &bv) in row.iter_mut().zip(bias) {
            *v += bv;
        }
    }
}

/// The separate bias pass of an NCHW output: `y[n][c] += bias[c]`.
fn add_channel_bias(y: &mut Tensor, bias: &[f32]) {
    let hw = y.shape()[2] * y.shape()[3];
    for (plane, &bv) in y.data_mut().chunks_exact_mut(hw).zip(bias.iter().cycle()) {
        for v in plane {
            *v += bv;
        }
    }
}

/// Unfused GEMM reference: the plain GEMM with the same `exec`, then the
/// bias pass.
fn reference(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    m: usize,
    n: usize,
    k: usize,
    exec: Exec,
    bias: &[f32],
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm(a, b, &mut c, m, n, k, None, exec);
    add_column_bias(&mut c, n, bias);
    c
}

#[test]
fn fused_bias_matches_unfused_bitwise_for_every_kernel() {
    for kern in kernel::available() {
        for &(m, n, k) in SHAPES {
            let a = filled(m * k, 1);
            let b = filled(k * n, 2);
            let bias = filled(n, 3);
            let asrc = MatSrc::RowMajor {
                data: &a,
                stride: k,
            };
            let bsrc = MatSrc::RowMajor {
                data: &b,
                stride: n,
            };
            for precision in [Precision::F32, Precision::Bf16] {
                for threads in [1usize, 2, 3] {
                    let exec = Exec {
                        kernel: kern,
                        threads,
                        precision,
                    };
                    let want = reference(&asrc, &bsrc, m, n, k, exec, &bias);
                    let mut got = vec![f32::NAN; m * n];
                    gemm(&asrc, &bsrc, &mut got, m, n, k, Some(&bias), exec);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{} {} ({m},{n},{k}) t={threads}",
                        kern.name,
                        precision.name()
                    );
                }
            }
        }
    }
}

#[test]
fn fused_epilogue_is_thread_count_invariant() {
    // The bias store must preserve the GEMM core's bitwise
    // thread-invariance.
    let (m, n, k) = (70, 45, 140);
    let a = filled(m * k, 4);
    let b = filled(k * n, 5);
    let bias = filled(n, 6);
    let asrc = MatSrc::RowMajor {
        data: &a,
        stride: k,
    };
    let bsrc = MatSrc::RowMajor {
        data: &b,
        stride: n,
    };
    for kern in kernel::available() {
        let exec = Exec {
            kernel: kern,
            threads: 1,
            ..Exec::process()
        };
        let mut c1 = vec![0.0f32; m * n];
        gemm(&asrc, &bsrc, &mut c1, m, n, k, Some(&bias), exec);
        for threads in [2usize, 3, 8] {
            let mut cn = vec![0.0f32; m * n];
            gemm(
                &asrc,
                &bsrc,
                &mut cn,
                m,
                n,
                k,
                Some(&bias),
                Exec { threads, ..exec },
            );
            assert_eq!(bits(&c1), bits(&cn), "{} t={threads}", kern.name);
        }
    }
}

#[test]
fn zero_channel_conv_keeps_fused_unfused_parity() {
    // ci = 0: the reduction is empty, so the store writes the bias alone —
    // exactly what an all-zero conv output plus a bias pass gives.
    let x = Tensor::zeros(&[2, 0, 5, 5]);
    let w = Tensor::zeros(&[3, 0, 3, 3]);
    let bias = [0.5f32, -1.0, 2.0];
    let cfg = Conv2dCfg::square(3, 1, 1);
    let y_f = conv2d_fused(&x, &w, Some(&bias), cfg);
    let mut y_u = conv2d(&x, &w, cfg);
    add_channel_bias(&mut y_u, &bias);
    assert_eq!(bits(y_f.data()), bits(y_u.data()));
    assert_eq!(y_f.get(&[0, 0, 0, 0]), 0.5);
    assert_eq!(y_f.get(&[0, 1, 0, 0]), -1.0);
    assert_eq!(y_f.get(&[1, 2, 4, 4]), 2.0);
}

#[test]
fn zero_depth_linear_is_the_broadcast_bias() {
    // k = 0 never reaches the GEMM's store: the entry point falls back to
    // zeros plus the bias, which must equal the unfused oracle.
    let a = Tensor::zeros(&[3, 0]);
    let b = Tensor::zeros(&[4, 0]);
    let bias = [0.5f32, -1.0, -0.0, 2.0];
    let y = matmul_a_bt_fused(&a, &b, &bias);
    let mut want = matmul_a_bt(&a, &b);
    add_column_bias(want.data_mut(), 4, &bias);
    assert_eq!(y.shape(), &[3, 4]);
    assert_eq!(bits(y.data()), bits(want.data()));
    for row in y.data().chunks_exact(4) {
        assert_eq!(row, &[0.5, -1.0, 0.0, 2.0]);
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn tensor_strategy(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-2.0f32..2.0, len)
        .prop_map(move |data| Tensor::from_vec(&shape, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Linear-forward entry point: fused == GEMM then bias pass,
    /// bitwise, on arbitrary shapes.
    #[test]
    fn linear_fused_matches_unfused(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..35,
        x in (0usize..1000),
    ) {
        let a = Tensor::from_vec(&[m, k], filled(m * k, x));
        let b = Tensor::from_vec(&[n, k], filled(n * k, x + 1));
        let bias = filled(n, x + 2);
        let y_f = matmul_a_bt_fused(&a, &b, &bias);
        let mut y_u = matmul_a_bt(&a, &b);
        add_column_bias(y_u.data_mut(), n, &bias);
        prop_assert_eq!(bits(y_f.data()), bits(y_u.data()));
    }

    /// The conv-forward entry point: fused == conv then bias pass, with
    /// and without a bias, across strides and padding.
    #[test]
    fn conv_fused_matches_unfused(
        x in tensor_strategy(vec![2, 3, 9, 7]),
        w in tensor_strategy(vec![4, 3, 3, 3]),
        bias in proptest::collection::vec(-1.0f32..1.0, 4),
        with_bias in proptest::bool::ANY,
        stride in 1usize..3,
    ) {
        let cfg = Conv2dCfg::square(3, stride, 1);
        let b = with_bias.then_some(&bias[..]);
        let y_f = conv2d_fused(&x, &w, b, cfg);
        let mut y_u = conv2d(&x, &w, cfg);
        if let Some(b) = b {
            add_channel_bias(&mut y_u, b);
        }
        prop_assert_eq!(bits(y_f.data()), bits(y_u.data()));
    }
}
