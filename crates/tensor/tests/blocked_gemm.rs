//! Property tests pinning the packed blocked GEMM core and the public
//! convolution entry points against their naive references, across
//! non-tile-divisible shapes, padding, stride, thread counts, and every
//! SIMD micro-kernel available on this CPU. (`direct_conv.rs` sweeps the
//! convolution geometry grid.)

use proptest::prelude::*;

use mbs_tensor::ops::{
    col2im, conv2d, conv2d_backward_data, conv2d_backward_weights, conv2d_naive, direct, gemm,
    im2col, kernel, matmul, matmul_a_bt, matmul_at_b, matmul_naive, Conv2dCfg, Exec, MatSrc,
};
use mbs_tensor::prec::Precision;
use mbs_tensor::Tensor;

fn tensor_strategy(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-2.0f32..2.0, len)
        .prop_map(move |data| Tensor::from_vec(&shape, data))
}

/// Max |a - b| with a tolerance scaled by the reduction depth.
fn assert_close(a: &Tensor, b: &Tensor, k: usize, what: &str) {
    let tol = 1e-5 * (k as f32).max(1.0) * 4.0;
    let diff = a.max_abs_diff(b);
    assert!(diff < tol, "{what}: diff {diff} tol {tol}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The blocked core matches the naive triple loop on shapes that are
    /// deliberately not multiples of MR/NR/MC/KC/NC.
    #[test]
    fn blocked_matmul_matches_naive(
        m in 1usize..70,
        k in 1usize..140,
        n in 1usize..40,
        seed in 0usize..1000,
    ) {
        let a = Tensor::from_vec(
            &[m, k],
            (0..m * k).map(|v| ((v * 31 + seed) % 17) as f32 / 4.0 - 2.0).collect(),
        );
        let b = Tensor::from_vec(
            &[k, n],
            (0..k * n).map(|v| ((v * 13 + seed * 7) % 19) as f32 / 4.0 - 2.0).collect(),
        );
        assert_close(&matmul(&a, &b), &matmul_naive(&a, &b), k, "matmul");
    }

    /// Transposed-view variants equal transpose-then-multiply.
    #[test]
    fn transposed_variants_match_naive(
        m in 1usize..40,
        k in 1usize..80,
        n in 1usize..30,
    ) {
        let av = Tensor::from_vec(&[m, k], (0..m * k).map(|v| (v % 11) as f32 - 5.0).collect());
        let bv = Tensor::from_vec(&[k, n], (0..k * n).map(|v| (v % 7) as f32 - 3.0).collect());
        let reference = matmul_naive(&av, &bv);

        let mut at = Tensor::zeros(&[k, m]);
        for i in 0..m {
            for p in 0..k {
                at.set(&[p, i], av.get(&[i, p]));
            }
        }
        assert_close(&matmul_at_b(&at, &bv), &reference, k, "matmul_at_b");

        let mut bt = Tensor::zeros(&[n, k]);
        for p in 0..k {
            for j in 0..n {
                bt.set(&[j, p], bv.get(&[p, j]));
            }
        }
        assert_close(&matmul_a_bt(&av, &bt), &reference, k, "matmul_a_bt");
    }

    /// Fused conv forward equals the direct loop nest for every geometry,
    /// including non-square kernels and non-divisible channel counts.
    #[test]
    fn fused_conv_matches_naive(
        x in tensor_strategy(vec![2, 3, 9, 7]),
        w in tensor_strategy(vec![5, 3, 3, 3]),
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let cfg = Conv2dCfg::square(3, stride, pad);
        let a = conv2d_naive(&x, &w, cfg);
        let b = conv2d(&x, &w, cfg);
        assert_close(&a, &b, 27, "conv2d");
    }

    /// Fused weight gradient equals the materialized-im2col reference
    /// (`dW = dy₂dᵀ · im2col(x)` computed with the naive kernel).
    #[test]
    fn fused_weight_grad_matches_reference(
        x in tensor_strategy(vec![2, 2, 6, 6]),
        dy_seed in 0usize..100,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let cfg = Conv2dCfg::square(3, stride, pad);
        let (ho, wo) = cfg.out_extent(6, 6);
        let co = 4;
        let dy = Tensor::from_vec(
            &[2, co, ho, wo],
            (0..2 * co * ho * wo)
                .map(|v| ((v * 17 + dy_seed) % 13) as f32 / 3.0 - 2.0)
                .collect(),
        );
        let fused = conv2d_backward_weights(&x, &dy, cfg);

        // Reference: materialize im2col and dy rows, multiply naively.
        let cols = im2col(&x, cfg);
        let mut dy_rows = Tensor::zeros(&[2 * ho * wo, co]);
        for ni in 0..2 {
            for o in 0..co {
                for p in 0..ho * wo {
                    dy_rows.set(&[ni * ho * wo + p, o], dy.data()[(ni * co + o) * ho * wo + p]);
                }
            }
        }
        let mut dyt = Tensor::zeros(&[co, 2 * ho * wo]);
        for r in 0..2 * ho * wo {
            for o in 0..co {
                dyt.set(&[o, r], dy_rows.get(&[r, o]));
            }
        }
        let reference = matmul_naive(&dyt, &cols).reshape(&[co, 2, 3, 3]);
        assert_close(&fused, &reference, 2 * ho * wo, "conv2d_backward_weights");
    }

    /// Data gradient equals the materialized reference
    /// (`dX = col2im(dy₂d · W₂d)` with the naive kernel).
    #[test]
    fn data_grad_matches_reference(
        w in tensor_strategy(vec![4, 2, 3, 3]),
        dy_seed in 0usize..100,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let cfg = Conv2dCfg::square(3, stride, pad);
        let (ho, wo) = cfg.out_extent(6, 6);
        let co = 4;
        let dy = Tensor::from_vec(
            &[2, co, ho, wo],
            (0..2 * co * ho * wo)
                .map(|v| ((v * 23 + dy_seed) % 11) as f32 / 3.0 - 1.5)
                .collect(),
        );
        let fast = conv2d_backward_data(&dy, &w, &[2, 2, 6, 6], cfg);

        let mut dy_rows = Tensor::zeros(&[2 * ho * wo, co]);
        for ni in 0..2 {
            for o in 0..co {
                for p in 0..ho * wo {
                    dy_rows.set(&[ni * ho * wo + p, o], dy.data()[(ni * co + o) * ho * wo + p]);
                }
            }
        }
        let w2d = w.reshape(&[co, 18]);
        let dcols = matmul_naive(&dy_rows, &w2d);
        let reference = col2im(&dcols, 2, 2, 6, 6, cfg);
        assert_close(&fast, &reference, co, "conv2d_backward_data");
    }

    /// Bitwise determinism: the blocked GEMM produces *identical* bits for
    /// 1 thread and any other thread count.
    #[test]
    fn gemm_is_bitwise_deterministic_across_threads(
        m in 1usize..200,
        n in 1usize..50,
        k in 1usize..100,
        threads in 2usize..6,
    ) {
        let a: Vec<f32> = (0..m * k).map(|v| (v % 23) as f32 / 7.0 - 1.5).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v % 19) as f32 / 5.0 - 1.8).collect();
        let one = Exec { threads: 1, ..Exec::process() };
        let c1 = row_major_gemm(&a, &b, m, n, k, one);
        let cn = row_major_gemm(&a, &b, m, n, k, Exec { threads, ..one });
        prop_assert_eq!(c1, cn);
    }

    /// The same bitwise guarantee where convolution threads: the forward
    /// pass and the data gradient split `(sample, channel block)` items,
    /// the weight gradient channel blocks.
    #[test]
    fn fused_conv_gemm_is_bitwise_deterministic(
        x in tensor_strategy(vec![3, 2, 6, 5]),
        threads in 2usize..5,
    ) {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let w = Tensor::from_vec(&[4, 2, 3, 3], (0..72).map(|v| (v % 13) as f32 / 3.0 - 2.0).collect());
        let dy = Tensor::from_vec(&[3, 4, 6, 5], (0..360).map(|v| (v % 9) as f32 - 4.0).collect());
        let run = |threads: usize| {
            let exec = Exec { threads, ..Exec::process() };
            let mut dw = Tensor::zeros(w.shape());
            direct::backward_weights_into(&x, &dy, cfg, &mut dw, exec);
            (
                direct::forward(&x, &w, None, cfg, exec),
                direct::backward_data(&dy, &w, x.shape(), cfg, exec),
                dw,
            )
        };
        let (y1, dx1, dw1) = run(1);
        let (yn, dxn, dwn) = run(threads);
        prop_assert_eq!(y1.data(), yn.data());
        prop_assert_eq!(dx1.data(), dxn.data());
        prop_assert_eq!(dw1.data(), dwn.data());
    }

    /// Every micro-kernel available on this CPU (AVX-512, AVX2, scalar), at
    /// both precisions, matches the naive triple loop on arbitrary shapes,
    /// and for each kernel and precision the shared-B-panel multi-thread
    /// schedule reproduces the single-thread result bit-for-bit. The data
    /// are multiples of 1/4 in [-2, 2], exact in bf16, so both precisions
    /// meet the same reference. `m` ranges past 6·MC so `threads in 2..7`
    /// actually spawns up to 6 workers (the GEMM clamps threads to
    /// `m.div_ceil(MC)` row blocks) — exercising the multi-worker strip
    /// partition, remainder distribution, and empty-share barrier
    /// participation.
    #[test]
    fn every_kernel_matches_naive_and_is_thread_invariant(
        m in 1usize..400,
        k in 1usize..150,
        n in 1usize..45,
        threads in 2usize..7,
        seed in 0usize..1000,
    ) {
        let a: Vec<f32> =
            (0..m * k).map(|v| ((v * 31 + seed) % 17) as f32 / 4.0 - 2.0).collect();
        let b: Vec<f32> =
            (0..k * n).map(|v| ((v * 13 + seed * 7) % 19) as f32 / 4.0 - 2.0).collect();
        let reference = matmul_naive(
            &Tensor::from_vec(&[m, k], a.clone()),
            &Tensor::from_vec(&[k, n], b.clone()),
        );
        for kernel in kernel::available() {
            for precision in [Precision::F32, Precision::Bf16] {
                let exec = Exec { kernel, threads: 1, precision };
                let c1 = row_major_gemm(&a, &b, m, n, k, exec);
                let what = format!("{} {}", kernel.name, precision.name());
                assert_close(&Tensor::from_vec(&[m, n], c1.clone()), &reference, k, &what);
                let cn = row_major_gemm(&a, &b, m, n, k, Exec { threads, ..exec });
                prop_assert_eq!(&c1, &cn, "{} must be thread-invariant", what);
            }
        }
    }

    /// The conv forward agrees across every kernel's tier and stays
    /// thread-invariant per kernel.
    #[test]
    fn every_kernel_agrees_on_fused_conv_gemm(
        x in tensor_strategy(vec![2, 3, 7, 6]),
        threads in 2usize..6,
    ) {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let w = Tensor::from_vec(&[5, 3, 3, 3], (0..135).map(|v| (v % 13) as f32 / 3.0 - 2.0).collect());
        let mut reference: Option<Tensor> = None;
        for kern in kernel::available() {
            let exec = Exec { kernel: kern, threads: 1, ..Exec::process() };
            let y1 = direct::forward(&x, &w, None, cfg, exec);
            let yn = direct::forward(&x, &w, None, cfg, Exec { threads, ..exec });
            prop_assert_eq!(y1.data(), yn.data(), "{} conv thread invariance", kern.name);
            match &reference {
                None => reference = Some(y1),
                // Different tiers round differently (FMA vs separate
                // mul+add), so cross-kernel equality is only approximate.
                Some(want) => assert_close(&y1, want, 27, kern.name),
            }
        }
    }
}

/// Plain `gemm` of row-major `a: [m, k]` and `b: [k, n]` into a fresh C.
fn row_major_gemm(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, exec: Exec) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm(
        &MatSrc::RowMajor { data: a, stride: k },
        &MatSrc::RowMajor { data: b, stride: n },
        &mut c,
        m,
        n,
        k,
        None,
        exec,
    );
    c
}

/// Every kernel × precision × {1, 2} threads: what each edge-shape case
/// runs on.
fn every_exec() -> Vec<Exec> {
    let mut execs = Vec::new();
    for kern in kernel::available() {
        for precision in [Precision::F32, Precision::Bf16] {
            for threads in [1, 2] {
                execs.push(Exec {
                    kernel: kern,
                    threads,
                    precision,
                });
            }
        }
    }
    execs
}

/// Edge tiles: shapes straddling every registered tile boundary (8 and 16
/// wide/tall, ±1) stay correct for every kernel, precision and thread
/// count — the packed zero-padding lanes must never leak into C. The
/// operands are multiples of ¼ no larger than 3, exact in bf16, so one
/// tolerance holds at both precisions.
#[test]
fn edge_tiles_around_every_tile_boundary() {
    for &(m, n, k) in &[
        (1usize, 1usize, 1usize),
        (7, 9, 5),
        (8, 8, 8),
        (9, 7, 8),
        (15, 17, 16),
        (16, 16, 16),
        (17, 15, 33),
        (31, 33, 130),
        (63, 257, 129),
        (65, 255, 127),
    ] {
        let a = Tensor::from_vec(
            &[m, k],
            (0..m * k).map(|v| (v % 23) as f32 / 4.0 - 2.5).collect(),
        );
        let b = Tensor::from_vec(
            &[k, n],
            (0..k * n).map(|v| (v % 19) as f32 / 4.0 - 2.0).collect(),
        );
        let want = matmul_naive(&a, &b);
        for exec in every_exec() {
            let c = row_major_gemm(a.data(), b.data(), m, n, k, exec);
            let got = Tensor::from_vec(&[m, n], c);
            let what = format!(
                "{} {:?} x{} ({m},{n},{k})",
                exec.kernel.name, exec.precision, exec.threads
            );
            assert_close(&got, &want, k, &what);
        }
    }
}

/// `gemm` at empty extents, as documented: `m == 0` or `n == 0` is a
/// no-op (a bias included), and `k == 0` leaves C as it was — not zeroed.
#[test]
fn empty_extents_follow_the_gemm_contract() {
    for exec in every_exec() {
        for (m, n, k) in [(0, 5, 3), (4, 0, 3), (0, 0, 7), (0, 5, 0), (4, 0, 0)] {
            let (a, b, bias) = (vec![1.0; m * k], vec![1.0; k * n], vec![1.0; n]);
            let mut c = Vec::new();
            let bias = (k > 0).then_some(&bias[..]);
            let a = MatSrc::RowMajor {
                data: &a,
                stride: k,
            };
            let b = MatSrc::RowMajor {
                data: &b,
                stride: n,
            };
            gemm(&a, &b, &mut c, m, n, k, bias, exec);
        }
        let (m, n) = (5, 7);
        let before: Vec<f32> = (0..m * n).map(|v| v as f32 - 3.5).collect();
        let mut c = before.clone();
        let a = MatSrc::RowMajor {
            data: &[],
            stride: 0,
        };
        let b = MatSrc::RowMajor {
            data: &[],
            stride: n,
        };
        gemm(&a, &b, &mut c, m, n, 0, None, exec);
        assert_eq!(c, before, "k == 0 on {exec:?}");
    }
}

/// An empty reduction never reaches the store that adds the bias, so a
/// bias with `k == 0` is refused rather than silently dropped.
#[test]
#[should_panic(expected = "a bias needs a non-empty reduction")]
fn a_bias_with_an_empty_reduction_panics() {
    let mut c = vec![0.0f32; 4];
    gemm(
        &MatSrc::RowMajor {
            data: &[],
            stride: 0,
        },
        &MatSrc::RowMajor {
            data: &[],
            stride: 2,
        },
        &mut c,
        2,
        2,
        0,
        Some(&[1.0, 2.0]),
        Exec::process(),
    );
}

/// The production entry points (`matmul`, `conv2d`, …) run on the
/// process-selected kernel; pin that the selection is stable within a
/// process and is one of the advertised kernels.
#[test]
fn selected_kernel_is_stable_and_registered() {
    let first = kernel::selected();
    assert!(std::ptr::eq(first, kernel::selected()));
    assert!(kernel::available().iter().any(|k| std::ptr::eq(*k, first)));
}

/// NaN/Inf propagation: the old kernels' `a == 0.0` skip is gone.
#[test]
fn non_finite_values_propagate() {
    let a = Tensor::from_vec(&[1, 3], vec![0.0, 0.0, 0.0]);
    let b = Tensor::from_vec(&[3, 2], vec![f32::NAN, 1.0, f32::INFINITY, 1.0, 0.5, 1.0]);
    let c = matmul(&a, &b);
    assert!(
        c.data()[0].is_nan(),
        "0·NaN + 0·Inf must be NaN, got {}",
        c.data()[0]
    );
    assert_eq!(c.data()[1], 0.0);
}
