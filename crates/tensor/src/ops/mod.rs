//! Tensor operators: packed blocked GEMM (`Linear`, `matmul*`), direct
//! NCHW convolution (forward and both gradients), pooling, activations,
//! and softmax cross-entropy.

pub mod activation;
pub mod concat;
pub mod conv;
pub mod direct;
pub mod im2col;
pub mod kernel;
pub mod matmul;
pub mod pack;
pub mod pool;
pub mod softmax;

pub use activation::{relu, relu_backward, relu_clamp, relu_inplace, BitMask, MaskSink};
pub use concat::{concat_channels, slice_channels};
pub use conv::{
    conv2d, conv2d_backward_data, conv2d_backward_weights, conv2d_backward_weights_into,
    conv2d_fused, conv2d_fused_with, conv2d_naive,
};
pub use im2col::{col2im, im2col, Conv2dCfg};
pub use kernel::MicroKernel;
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_fused, matmul_a_bt_fused_with, matmul_at_b, matmul_naive,
};
pub use pack::{
    configured_threads, gemm, gemm_fused, gemm_fused_prec, gemm_fused_with, gemm_with_kernel,
    gemm_with_threads, Epilogue, MatSrc,
};
pub use pool::{
    avgpool2d, avgpool2d_backward, global_avg_pool, global_avg_pool_backward, maxpool2d,
    maxpool2d_backward, maxpool2d_padded,
};
pub use softmax::{accuracy, correct, cross_entropy, softmax, softmax_xent_backward};
