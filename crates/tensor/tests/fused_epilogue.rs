//! Bitwise parity pins for the fused GEMM epilogue.
//!
//! The contract under test: for **every** registered micro-kernel
//! (`scalar-8x8`, `avx2-fma-8x8`, `avx512-fma-16x16` where the CPU has
//! them), every thread count, and shapes that exercise edge tiles, the
//! fused path — bias and ReLU folded into the C write-back, sign mask
//! emitted by the store — is **bitwise identical** to the unfused
//! sequence: GEMM, then a bias pass, then ReLU. Same for the layer-level
//! entry points (`matmul_a_bt_fused_with`, `conv2d_fused_with`), whose
//! `fused = false` arm is that unfused oracle.

use proptest::prelude::*;

use mbs_tensor::ops::kernel;
use mbs_tensor::ops::pack::{gemm_fused_with, gemm_with_kernel, Epilogue, MatSrc};
use mbs_tensor::ops::{
    conv2d_fused_with, matmul_a_bt_fused_with, relu_inplace, Conv2dCfg, MaskSink,
};
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

/// Unfused reference: GEMM with the same kernel/threads, then a bias row
/// pass, then a scalar ReLU recording its own mask.
#[allow(clippy::too_many_arguments)]
fn reference(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &'static kernel::MicroKernel,
    bias: &[f32],
    relu: bool,
) -> (Vec<f32>, Vec<bool>) {
    let mut c = vec![0.0f32; m * n];
    gemm_with_kernel(a, b, &mut c, m, n, k, threads, kern);
    for row in c.chunks_exact_mut(n) {
        for (v, &bv) in row.iter_mut().zip(bias) {
            *v += bv;
        }
    }
    let mut mask = vec![false; m * n];
    if relu {
        for (v, bit) in c.iter_mut().zip(&mut mask) {
            if *v > 0.0 {
                *bit = true;
            } else {
                *v = 0.0;
            }
        }
    }
    (c, mask)
}

#[test]
fn fused_bias_and_relu_match_unfused_bitwise_for_every_kernel() {
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
            for threads in [1usize, 2, 5] {
                // Bias only.
                let (want, _) = reference(&asrc, &bsrc, m, n, k, threads, kern, &bias, false);
                let mut got = vec![f32::NAN; m * n];
                gemm_fused_with(
                    &asrc,
                    &bsrc,
                    &mut got,
                    m,
                    n,
                    k,
                    threads,
                    kern,
                    &Epilogue::Bias(&bias),
                );
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} bias ({m},{n},{k}) t={threads}",
                    kern.name
                );

                // Bias + ReLU, with the mask emitted by the store.
                let (want, want_mask) =
                    reference(&asrc, &bsrc, m, n, k, threads, kern, &bias, true);
                let mut got = vec![f32::NAN; m * n];
                let sink = MaskSink::new(m * n);
                gemm_fused_with(
                    &asrc,
                    &bsrc,
                    &mut got,
                    m,
                    n,
                    k,
                    threads,
                    kern,
                    &Epilogue::BiasRelu(&bias, &sink),
                );
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} bias+relu ({m},{n},{k}) t={threads}",
                    kern.name
                );
                let mask = sink.into_mask();
                for (i, &want_bit) in want_mask.iter().enumerate() {
                    assert_eq!(
                        mask.get(i),
                        want_bit,
                        "{} mask bit {i} ({m},{n},{k}) t={threads}",
                        kern.name
                    );
                }
            }
        }
    }
}

#[test]
fn fused_epilogue_is_thread_count_invariant() {
    // The mask sink publishes bits with commutative ORs, so the fused
    // write-back must preserve the GEMM core's bitwise thread-invariance.
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
        let mut c1 = vec![0.0f32; m * n];
        let sink1 = MaskSink::new(m * n);
        gemm_fused_with(
            &asrc,
            &bsrc,
            &mut c1,
            m,
            n,
            k,
            1,
            kern,
            &Epilogue::BiasRelu(&bias, &sink1),
        );
        let mask1 = sink1.into_mask();
        for threads in [2usize, 3, 8] {
            let mut cn = vec![0.0f32; m * n];
            let sinkn = MaskSink::new(m * n);
            gemm_fused_with(
                &asrc,
                &bsrc,
                &mut cn,
                m,
                n,
                k,
                threads,
                kern,
                &Epilogue::BiasRelu(&bias, &sinkn),
            );
            assert_eq!(bits(&c1), bits(&cn), "{} t={threads}", kern.name);
            assert_eq!(mask1, sinkn.into_mask(), "{} mask t={threads}", kern.name);
        }
    }
}

#[test]
fn zero_channel_conv_keeps_fused_unfused_parity() {
    // k = ci·kh·kw = 0: the GEMM epilogue can never fire, so the fused
    // entry point must fall back to the separate-pass path instead of
    // panicking — and both must agree (all-zero conv output, then bias,
    // then ReLU).
    let x = Tensor::zeros(&[2, 0, 5, 5]);
    let w = Tensor::zeros(&[3, 0, 3, 3]);
    let bias = [0.5f32, -1.0, 2.0];
    let cfg = Conv2dCfg::square(3, 1, 1);
    let (y_f, m_f) = conv2d_fused_with(&x, &w, Some(&bias), true, cfg, true);
    let (y_u, m_u) = conv2d_fused_with(&x, &w, Some(&bias), true, cfg, false);
    assert_eq!(bits(y_f.data()), bits(y_u.data()));
    assert_eq!(m_f.unwrap(), m_u.unwrap());
    // Channel 1's bias is negative, so its plane clamps to zero.
    assert_eq!(y_f.get(&[0, 0, 0, 0]), 0.5);
    assert_eq!(y_f.get(&[0, 1, 0, 0]), 0.0);
    assert_eq!(y_f.get(&[1, 2, 4, 4]), 2.0);
}

#[test]
fn nan_sums_clamp_to_zero_with_a_false_mask_bit() {
    // NaN > 0 is false, so a NaN pre-activation must become 0 with its
    // mask bit clear — on the fused path exactly as on `ops::relu`.
    let a = vec![f32::NAN, 1.0];
    let b = vec![1.0f32, 1.0];
    let bias = vec![0.5f32];
    let asrc = MatSrc::RowMajor {
        data: &a,
        stride: 1,
    };
    let bsrc = MatSrc::RowMajor {
        data: &b,
        stride: 1,
    };
    for kern in kernel::available() {
        let mut c = vec![7.0f32; 2];
        let sink = MaskSink::new(2);
        gemm_fused_with(
            &asrc,
            &bsrc,
            &mut c,
            2,
            1,
            1,
            1,
            kern,
            &Epilogue::BiasRelu(&bias, &sink),
        );
        let mask = sink.into_mask();
        assert_eq!(c, vec![0.0, 1.5], "{}", kern.name);
        assert!(!mask.get(0) && mask.get(1), "{}", kern.name);
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

    /// The Linear-forward entry point: fused == unfused, output and mask,
    /// bitwise, on arbitrary shapes.
    #[test]
    fn linear_fused_matches_unfused(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..35,
        relu in proptest::bool::ANY,
        x in (0usize..1000),
    ) {
        let a = Tensor::from_vec(&[m, k], filled(m * k, x));
        let b = Tensor::from_vec(&[n, k], filled(n * k, x + 1));
        let bias = filled(n, x + 2);
        let (y_f, m_f) = matmul_a_bt_fused_with(&a, &b, &bias, relu, true);
        let (y_u, m_u) = matmul_a_bt_fused_with(&a, &b, &bias, relu, false);
        prop_assert_eq!(bits(y_f.data()), bits(y_u.data()));
        match (m_f, m_u) {
            (Some(mf), Some(mu)) => prop_assert_eq!(mf, mu),
            (None, None) => prop_assert!(!relu),
            _ => prop_assert!(false, "mask presence must not depend on fusion"),
        }
    }

    /// The conv-forward entry point: fused == unfused across bias/ReLU
    /// combinations, strides, and padding.
    #[test]
    fn conv_fused_matches_unfused(
        x in tensor_strategy(vec![2, 3, 9, 7]),
        w in tensor_strategy(vec![4, 3, 3, 3]),
        bias in proptest::collection::vec(-1.0f32..1.0, 4),
        with_bias in proptest::bool::ANY,
        relu in proptest::bool::ANY,
        stride in 1usize..3,
    ) {
        let cfg = Conv2dCfg::square(3, stride, 1);
        let b = with_bias.then_some(&bias[..]);
        let (y_f, m_f) = conv2d_fused_with(&x, &w, b, relu, cfg, true);
        let (y_u, m_u) = conv2d_fused_with(&x, &w, b, relu, cfg, false);
        prop_assert_eq!(bits(y_f.data()), bits(y_u.data()));
        match (m_f, m_u) {
            (Some(mf), Some(mu)) => prop_assert_eq!(mf, mu),
            (None, None) => prop_assert!(!relu),
            _ => prop_assert!(false, "mask presence must not depend on fusion"),
        }
    }

    /// Fused conv with ReLU agrees with conv-then-relu_inplace (the
    /// mask-producing composition the layers previously ran).
    #[test]
    fn conv_fused_relu_matches_composition(
        x in tensor_strategy(vec![1, 2, 6, 6]),
        w in tensor_strategy(vec![3, 2, 3, 3]),
    ) {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let (y_f, m_f) = conv2d_fused_with(&x, &w, None, true, cfg, true);
        let mut y_u = mbs_tensor::ops::conv2d(&x, &w, cfg);
        let m_u = relu_inplace(&mut y_u);
        prop_assert_eq!(bits(y_f.data()), bits(y_u.data()));
        prop_assert_eq!(m_f.expect("relu emits a mask"), m_u);
    }
}
