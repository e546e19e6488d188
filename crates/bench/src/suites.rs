//! Shared Criterion bench bodies for the tensor substrate and the training
//! step, used by both the `cargo bench` harnesses (`benches/tensor_ops.rs`,
//! `benches/training_step.rs`) and the quick-mode `bench` binary that
//! writes `BENCH_tensor.json`.
//!
//! Each suite pairs the blocked/packed kernels with their naive references
//! (`conv2d_naive`, `matmul_naive`) so one run shows the speedup the
//! blocked core delivers; shapes follow the Fig. 6 training configuration
//! (batch 16, sub-batches of 4, 8×8 inputs — plus a mid-size conv layer).

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs_tensor::ops::{
    conv2d, conv2d_backward_data, conv2d_backward_weights, conv2d_naive, matmul, matmul_naive,
    Conv2dCfg,
};
use mbs_tensor::Tensor;
use mbs_train::data::generate;
use mbs_train::executor::{train_step_full, train_step_mbs};
use mbs_train::model::MiniResNet;
use mbs_train::norm::NormChoice;
use mbs_train::optim::Sgd;

fn tensor(shape: &[usize], salt: usize) -> Tensor {
    let len: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..len)
            .map(|v| (((v * 7 + salt) % 17) as f32 - 8.0) / 4.0)
            .collect(),
    )
}

/// Tensor substrate operators: the three conv GEMMs (fused/blocked vs
/// naive) and square GEMMs (blocked vs naive).
pub fn tensor_ops(c: &mut Criterion) {
    let cfg = Conv2dCfg::square(3, 1, 1);
    let x = tensor(&[4, 8, 16, 16], 1);
    let w = tensor(&[16, 8, 3, 3], 2);
    let dy = tensor(&[4, 16, 16, 16], 3);

    c.bench_function("conv2d", |b| b.iter(|| conv2d(&x, &w, cfg)));
    c.bench_function("conv2d_naive", |b| b.iter(|| conv2d_naive(&x, &w, cfg)));
    c.bench_function("conv2d_backward_data", |b| {
        b.iter(|| conv2d_backward_data(&dy, &w, x.shape(), cfg))
    });
    c.bench_function("conv2d_backward_weights", |b| {
        b.iter(|| conv2d_backward_weights(&x, &dy, cfg))
    });

    let a = tensor(&[128, 128], 4);
    let bm = tensor(&[128, 128], 5);
    c.bench_function("matmul_128", |b| b.iter(|| matmul(&a, &bm)));
    c.bench_function("matmul_naive_128", |b| b.iter(|| matmul_naive(&a, &bm)));

    let a2 = tensor(&[256, 256], 6);
    let b2 = tensor(&[256, 256], 7);
    c.bench_function("matmul_256", |b| b.iter(|| matmul(&a2, &b2)));
    c.bench_function("matmul_naive_256", |b| b.iter(|| matmul_naive(&a2, &b2)));
}

/// Substrate training steps — full-batch vs MBS serialized at the Fig. 6
/// configuration (batch 16, GN, sub-batches of 2 and 4).
pub fn training_step(c: &mut Criterion) {
    let d = generate(16, 8, 0.3, 55);

    c.bench_function("train_step_full_batch16", |b| {
        let mut m = MiniResNet::new(3, 4, 1, NormChoice::Group(4), &mut StdRng::seed_from_u64(1));
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        b.iter(|| train_step_full(&mut m, &d.images, &d.labels, &mut opt))
    });

    for sub in [2usize, 4] {
        c.bench_function(&format!("train_step_mbs_sub{sub}"), |b| {
            let mut m =
                MiniResNet::new(3, 4, 1, NormChoice::Group(4), &mut StdRng::seed_from_u64(1));
            let mut opt = Sgd::new(0.05, 0.9, 1e-4);
            b.iter(|| train_step_mbs(&mut m, &d.images, &d.labels, sub, &mut opt))
        });
    }
}
