#![warn(missing_docs)]
//! Dense f32 tensor substrate for the MBS training experiments.
//!
//! This is the computational foundation of the Fig. 6 reproduction: a
//! from-scratch CPU implementation of the operators CNN training needs —
//! GEMM, direct convolution with data and weight gradients (the three
//! reductions of the paper's Tab. 1), pooling, ReLU with 1-bit sign masks (the
//! storage trick MBS uses in back propagation), and softmax cross-entropy.
//!
//! # Examples
//!
//! ```
//! use mbs_tensor::ops::{conv2d, Conv2dCfg};
//! use mbs_tensor::Tensor;
//!
//! let x = Tensor::full(&[1, 3, 8, 8], 1.0);
//! let w = Tensor::full(&[4, 3, 3, 3], 0.1);
//! let y = conv2d(&x, &w, Conv2dCfg::square(3, 1, 1));
//! assert_eq!(y.shape(), &[1, 4, 8, 8]);
//! ```

pub mod arena;
pub mod env;
pub mod init;
pub mod ops;
pub mod prec;
pub mod tensor;

pub use tensor::Tensor;
