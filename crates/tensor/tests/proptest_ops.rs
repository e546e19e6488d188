//! Property-based tests of the tensor substrate's operator algebra.

use proptest::prelude::*;

use mbs_tensor::ops::{
    col2im, conv2d, conv2d_backward_data, conv2d_backward_weights, conv2d_naive, im2col, matmul,
    relu_backward, relu_inplace, softmax, softmax_xent_backward, Conv2dCfg,
};
use mbs_tensor::Tensor;

fn tensor_strategy(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let len: usize = shape.iter().product();
    proptest::collection::vec(-2.0f32..2.0, len)
        .prop_map(move |data| Tensor::from_vec(&shape, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The im2col GEMM convolution equals the direct loop nest.
    #[test]
    fn im2col_conv_equals_naive(
        x in tensor_strategy(vec![2, 3, 6, 6]),
        w in tensor_strategy(vec![4, 3, 3, 3]),
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let cfg = Conv2dCfg::square(3, stride, pad);
        let a = conv2d_naive(&x, &w, cfg);
        let b = conv2d(&x, &w, cfg);
        prop_assert!(a.max_abs_diff(&b) < 1e-3);
    }

    /// Convolution is linear: conv(x1 + x2) = conv(x1) + conv(x2).
    #[test]
    fn conv_is_linear(
        x1 in tensor_strategy(vec![1, 2, 5, 5]),
        x2 in tensor_strategy(vec![1, 2, 5, 5]),
        w in tensor_strategy(vec![3, 2, 3, 3]),
    ) {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let lhs = conv2d(&x1.add(&x2), &w, cfg);
        let rhs = conv2d(&x1, &w, cfg).add(&conv2d(&x2, &w, cfg));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    /// col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
    #[test]
    fn col2im_is_adjoint(
        x in tensor_strategy(vec![1, 2, 5, 5]),
        stride in 1usize..3,
        pad in 0usize..2,
        salt in 0usize..100,
    ) {
        let cfg = Conv2dCfg::square(3, stride, pad);
        let cols = im2col(&x, cfg);
        let y = Tensor::from_vec(
            cols.shape(),
            (0..cols.len()).map(|v| ((v * 7 + salt) % 11) as f32 / 5.0 - 1.0).collect(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, 1, 2, 5, 5, cfg);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "lhs {lhs} rhs {rhs}");
    }

    /// The weight- and data-gradient operators satisfy the bilinear adjoint
    /// identity: <conv(x, w), dy> == <w, dW(x, dy)> == <x, dX(dy, w)>.
    #[test]
    fn conv_gradients_are_adjoints(
        x in tensor_strategy(vec![1, 2, 5, 5]),
        w in tensor_strategy(vec![3, 2, 3, 3]),
        dy in tensor_strategy(vec![1, 3, 5, 5]),
    ) {
        let cfg = Conv2dCfg::square(3, 1, 1);
        let y = conv2d(&x, &w, cfg);
        let inner_y: f32 = y.data().iter().zip(dy.data()).map(|(a, b)| a * b).sum();

        let dw = conv2d_backward_weights(&x, &dy, cfg);
        let inner_w: f32 = w.data().iter().zip(dw.data()).map(|(a, b)| a * b).sum();
        prop_assert!((inner_y - inner_w).abs() < 2e-2, "{inner_y} vs {inner_w}");

        let dx = conv2d_backward_data(&dy, &w, x.shape(), cfg);
        let inner_x: f32 = x.data().iter().zip(dx.data()).map(|(a, b)| a * b).sum();
        prop_assert!((inner_y - inner_x).abs() < 2e-2, "{inner_y} vs {inner_x}");
    }

    /// ReLU is idempotent and its mask routes exactly the positive slots.
    #[test]
    fn relu_properties(x in tensor_strategy(vec![32])) {
        let mut y = x.clone();
        let mask = relu_inplace(&mut y);
        let mut y2 = y.clone();
        let _ = relu_inplace(&mut y2);
        prop_assert_eq!(y.data(), y2.data());
        let ones = Tensor::full(&[32], 1.0);
        let dx = relu_backward(&ones, &mask);
        for (i, &v) in x.data().iter().enumerate() {
            prop_assert_eq!(dx.data()[i] == 1.0, v > 0.0);
        }
    }

    /// Softmax rows are probability distributions; its gradient rows sum to
    /// zero (shift invariance of cross-entropy in logit space).
    #[test]
    fn softmax_gradient_rows_sum_to_zero(
        logits in tensor_strategy(vec![3, 5]),
        labels in proptest::collection::vec(0usize..5, 3),
    ) {
        let p = softmax(&logits);
        for i in 0..3 {
            let s: f32 = p.data()[i * 5..(i + 1) * 5].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
        let g = softmax_xent_backward(&p, &labels, 3);
        for i in 0..3 {
            let s: f32 = g.data()[i * 5..(i + 1) * 5].iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {i} grad sum {s}");
        }
    }

    /// Matmul distributes over addition on the right.
    #[test]
    fn matmul_distributes(
        a in tensor_strategy(vec![3, 4]),
        b1 in tensor_strategy(vec![4, 2]),
        b2 in tensor_strategy(vec![4, 2]),
    ) {
        let lhs = matmul(&a, &b1.add(&b2));
        let rhs = matmul(&a, &b1).add(&matmul(&a, &b2));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }
}
