//! Property-based test of the paper's central claim (§3): MBS sub-batch
//! serialization with GN is numerically equivalent to full-mini-batch
//! training for *any* sub-batch size, seed, and data. The serialized step
//! is the uniform one-group schedule (MBS-FS) over the lowered Fig. 6
//! model, whose backward either restores stashed caches or replays chunk
//! forwards; boundaries and stashes are kept at f32 so the properties hold
//! under every `MBS_PREC` (the bf16 storage budget is pinned in
//! `grouped_exec.rs`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs_cnn::networks::toy;
use mbs_cnn::NormKind;
use mbs_core::Schedule;
use mbs_tensor::prec::Precision;
use mbs_train::data::generate;
use mbs_train::executor::train_step_full;
use mbs_train::grouped::GroupedExecutor;
use mbs_train::lower::{lower, LoweredNet};
use mbs_train::optim::Sgd;
use mbs_train::Module;

const BATCH: usize = 8;

/// Identically seeded twins of the Fig. 6 model, and an executor that
/// steps the second one `sub_batch` samples at a time, stashing caches or
/// replaying forwards.
fn twins(
    norm: Option<NormKind>,
    seed: u64,
    sub_batch: usize,
    stashing: bool,
) -> (LoweredNet, LoweredNet, GroupedExecutor) {
    let net = toy::fig6_resnet(8, 4, 1, norm, BATCH);
    let full = lower(&net, &mut StdRng::seed_from_u64(seed)).unwrap();
    let mbs = lower(&net, &mut StdRng::seed_from_u64(seed)).unwrap();
    let mut exec = GroupedExecutor::new(&Schedule::uniform(&net, BATCH, sub_batch), mbs.len());
    exec.set_precision(Precision::F32);
    exec.set_stashing(stashing);
    (full, mbs, exec)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// GN + MBS == GN full-batch, for arbitrary sub-batch sizes (including
    /// ones that do not divide the batch), arbitrary seeds and both
    /// backward strategies.
    #[test]
    fn gn_serialization_is_faithful(
        sub_batch in 1usize..9,
        data_seed in 0u64..500,
        model_seed in 0u64..500,
    ) {
        let d = generate(BATCH, 8, 0.3, data_seed);
        let gn = Some(NormKind::Group { groups: 4 });
        for stashing in [true, false] {
            let (mut full, mut mbs, mut exec) = twins(gn, model_seed, sub_batch, stashing);
            let mut oa = Sgd::new(0.05, 0.9, 1e-4);
            let mut ob = Sgd::new(0.05, 0.9, 1e-4);
            for _ in 0..2 {
                let lf = train_step_full(&mut full, &d.images, &d.labels, &mut oa);
                let lm = exec.train_step(&mut mbs, &d.images, &d.labels, &mut ob);
                prop_assert!((lf - lm).abs() < 1e-3, "stash={stashing}: loss {lf} vs {lm}");
            }
            let diff = max_param_diff(&mut full, &mut mbs);
            prop_assert!(diff < 1e-3, "sub {sub_batch} stash={stashing}: diff {diff}");
        }
    }

    /// Without normalization the equivalence also holds (it is a property
    /// of gradient accumulation, not of GN specifically), under both
    /// backward strategies.
    #[test]
    fn no_norm_serialization_is_faithful(
        sub_batch in 1usize..9,
        model_seed in 0u64..500,
    ) {
        let d = generate(BATCH, 8, 0.3, 777);
        for stashing in [true, false] {
            let (mut full, mut mbs, mut exec) = twins(None, model_seed, sub_batch, stashing);
            let mut oa = Sgd::new(0.02, 0.9, 0.0);
            let mut ob = Sgd::new(0.02, 0.9, 0.0);
            let _ = train_step_full(&mut full, &d.images, &d.labels, &mut oa);
            let _ = exec.train_step(&mut mbs, &d.images, &d.labels, &mut ob);
            let diff = max_param_diff(&mut full, &mut mbs);
            prop_assert!(diff < 1e-3, "sub {sub_batch} stash={stashing}: diff {diff}");
        }
    }

    /// BN breaks the equivalence whenever serialization actually splits the
    /// batch (the statistics differ), under both backward strategies.
    #[test]
    fn bn_serialization_differs(sub_batch in 2usize..5) {
        let d = generate(BATCH, 8, 0.3, 888);
        for stashing in [true, false] {
            let (mut full, mut mbs, mut exec) =
                twins(Some(NormKind::Batch), 3, sub_batch, stashing);
            let mut oa = Sgd::new(0.05, 0.9, 0.0);
            let mut ob = Sgd::new(0.05, 0.9, 0.0);
            let _ = train_step_full(&mut full, &d.images, &d.labels, &mut oa);
            let _ = exec.train_step(&mut mbs, &d.images, &d.labels, &mut ob);
            let diff = max_param_diff(&mut full, &mut mbs);
            prop_assert!(diff > 1e-6, "stash={stashing}: BN should diverge, diff {diff}");
        }
    }
}
