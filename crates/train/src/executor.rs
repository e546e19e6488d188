//! The conventional full-mini-batch training step and evaluation.
//!
//! [`train_step_full`] is the naive oracle the paper's correctness claim
//! (§3) is measured against: every serialized step — a
//! [`crate::grouped::GroupedExecutor`] running a multi-group schedule, or
//! the uniform one-group [`mbs_core::Schedule::uniform`] — keeps the
//! synchronization points (loss gradients scaled by the *total* mini-batch
//! size, parameter gradients accumulated across sub-batches before the one
//! optimizer step), so for per-sample normalizations like GN it produces
//! the same parameter updates as this step up to f32 rounding, while
//! batch normalization's do not match. The test suites pin both.

use mbs_tensor::ops::{cross_entropy, softmax, softmax_xent_backward};
use mbs_tensor::Tensor;

use crate::module::{slice_batch_owned, Module};
use crate::optim::Sgd;

/// One conventional training step over the full mini-batch. Returns the
/// mean loss.
///
/// # Panics
///
/// Panics if `labels` length differs from the batch size.
pub fn train_step_full(model: &mut dyn Module, x: &Tensor, labels: &[usize], opt: &mut Sgd) -> f32 {
    let n = x.shape()[0];
    assert_eq!(labels.len(), n, "one label per sample");
    model.zero_grad();
    let logits = model.forward(x, true);
    let probs = softmax(&logits);
    let loss = cross_entropy(&probs, labels);
    let dlogits = softmax_xent_backward(&probs, labels, n);
    let _ = model.backward(&dlogits);
    opt.step(model);
    loss
}

/// Mean loss and classification error (%) of `model` on a labeled set,
/// evaluated in inference mode in chunks of `batch`.
pub fn evaluate(
    model: &mut dyn Module,
    images: &Tensor,
    labels: &[usize],
    batch: usize,
) -> (f32, f64) {
    let n = images.shape()[0];
    let mut loss_sum = 0.0f32;
    let mut hits = 0usize;
    let mut start = 0;
    while start < n {
        let end = (start + batch.max(1)).min(n);
        // The chunk is a private arena-pooled staging buffer, so hand the
        // chain ownership: ReLUs clamp it in place instead of allocating,
        // and no layer pays a defensive clone. Dropping each chunk returns
        // its storage to the pool for the next one (pure hits).
        let xs = slice_batch_owned(images, start, end);
        let ls = &labels[start..end];
        let logits = model.forward_owned(xs, false);
        let probs = softmax(&logits);
        loss_sum += cross_entropy(&probs, ls) * (end - start) as f32;
        // Count top-1 hits directly — reconstructing them by rounding
        // `accuracy * chunk` mis-counts when the product lands on a .5
        // boundary in f64.
        hits += mbs_tensor::ops::correct(&logits, ls);
        start = end;
    }
    let loss = loss_sum / n as f32;
    let err = 100.0 * (1.0 - hits as f64 / n as f64);
    (loss, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate;
    use crate::grouped::GroupedExecutor;
    use crate::lower::{lower, LoweredNet};
    use mbs_cnn::networks::toy;
    use mbs_cnn::NormKind;
    use mbs_core::Schedule;
    use mbs_tensor::ops::Exec;
    use mbs_tensor::prec::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BATCH: usize = 8;
    const GN: Option<NormKind> = Some(NormKind::Group { groups: 4 });

    /// The f32 pin, widened to the bf16 rounding budget under
    /// `MBS_PREC=bf16`.
    fn tol(f32_tol: f32) -> f32 {
        match Exec::process().precision {
            Precision::F32 => f32_tol,
            Precision::Bf16 => f32_tol.max(2e-2),
        }
    }

    fn max_param_diff(a: &mut LoweredNet, b: &mut LoweredNet) -> f32 {
        let mut pa = Vec::new();
        a.visit_params(&mut |p| pa.push(p.value.clone()));
        let mut i = 0;
        let mut worst = 0.0f32;
        b.visit_params(&mut |p| {
            worst = worst.max(pa[i].max_abs_diff(&p.value));
            i += 1;
        });
        worst
    }

    /// Two steps of `train_step_full` against the uniform one-group
    /// schedule (MBS-FS) at `sub` on lowered twins of the Fig. 6 model
    /// (same seed, so identical initial weights), the executor stashing
    /// caches or replaying forwards. Returns the max param diff and
    /// whether every step's losses agreed bit for bit.
    fn uniform_vs_full(norm: Option<NormKind>, sub: usize, stashing: bool) -> (f32, bool) {
        let d = generate(BATCH, 8, 0.3, 93);
        let net = toy::fig6_resnet(8, 4, 1, norm, BATCH);
        let mut full = lower(&net, &mut StdRng::seed_from_u64(11)).unwrap();
        let mut mbs = lower(&net, &mut StdRng::seed_from_u64(11)).unwrap();
        let mut opt_a = Sgd::new(0.05, 0.9, 1e-4);
        let mut opt_b = Sgd::new(0.05, 0.9, 1e-4);
        let mut exec = GroupedExecutor::new(&Schedule::uniform(&net, BATCH, sub), mbs.len());
        exec.set_stashing(stashing);
        let mut bitwise = true;
        for _ in 0..2 {
            let l_full = train_step_full(&mut full, &d.images, &d.labels, &mut opt_a);
            let l_mbs = exec.train_step(&mut mbs, &d.images, &d.labels, &mut opt_b);
            bitwise &= l_full.to_bits() == l_mbs.to_bits();
        }
        (max_param_diff(&mut full, &mut mbs), bitwise)
    }

    /// The paper's central correctness claim: GN + MBS == GN unserialized,
    /// and so is a model without normalization — at a sub-batch that does
    /// not divide the batch. At `sub = batch` the one-group schedule *is*
    /// the full-batch step, bit for bit.
    #[test]
    fn gn_mbs_step_equals_full_batch_step() {
        for (label, norm) in [("GN", GN), ("none", None)] {
            for stashing in [true, false] {
                let (diff, _) = uniform_vs_full(norm, 3, stashing);
                assert!(
                    diff < tol(5e-4),
                    "{label} sub 3 stash={stashing} diverged: {diff}"
                );
            }
            let (diff, bitwise) = uniform_vs_full(norm, BATCH, true);
            assert!(bitwise && diff == 0.0, "{label} sub = batch: {diff}");
        }
    }

    /// And the reason BN is incompatible: serialized BN sees different
    /// statistics, so the updates differ — unless nothing is serialized.
    #[test]
    fn bn_mbs_step_differs_from_full_batch_step() {
        let bn = Some(NormKind::Batch);
        for sub in [1, 3] {
            for stashing in [true, false] {
                let (diff, _) = uniform_vs_full(bn, sub, stashing);
                assert!(
                    diff > 1e-5,
                    "BN sub {sub} stash={stashing} should NOT be invariant: {diff}"
                );
            }
        }
        let (diff, bitwise) = uniform_vs_full(bn, BATCH, true);
        assert!(bitwise && diff == 0.0, "BN sub = batch: {diff}");
    }

    #[test]
    fn sub_batch_size_one_also_matches() {
        // Full serialization (one sample at a time) — the extreme case the
        // paper discusses in §3.
        for (label, norm) in [("GN", GN), ("none", None)] {
            for stashing in [true, false] {
                let (diff, _) = uniform_vs_full(norm, 1, stashing);
                assert!(
                    diff < tol(5e-4),
                    "{label} stash={stashing} full serialization diverged: {diff}"
                );
            }
        }
    }

    #[test]
    fn evaluate_reports_loss_and_error() {
        let d = generate(16, 8, 0.3, 25);
        let net = toy::fig6_resnet(8, 4, 1, GN, 4);
        let mut m = lower(&net, &mut StdRng::seed_from_u64(10)).unwrap();
        let (loss, err) = evaluate(&mut m, &d.images, &d.labels, 4);
        assert!(loss > 0.0);
        assert!((0.0..=100.0).contains(&err));
    }
}
