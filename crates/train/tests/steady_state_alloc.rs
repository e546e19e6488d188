//! Pins the activation-planner claim: after a warm-up step, the MBS
//! serialized training loop runs with **zero arena misses** — every layer
//! output, gradient, backward cache, GEMM packing panel, and staging
//! buffer is served from the pooled arena, so steady-state sub-batch
//! iterations perform no fresh f32-storage allocations.
//!
//! The loop here is MBS-FS: the Fig. 6 GN model under the uniform
//! one-group schedule at several sub-batch sizes, then chunked
//! evaluation. Multi-group schedules, the streamed data path and
//! checkpointing are pinned by `grouped_steady_state.rs`.
//!
//! This lives in its own integration-test binary because the arena's
//! hit/miss counters are process-global: unit tests running concurrently
//! would pollute them.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs_cnn::networks::toy;
use mbs_cnn::NormKind;
use mbs_core::Schedule;
use mbs_tensor::arena;
use mbs_train::data::generate;
use mbs_train::executor::evaluate;
use mbs_train::grouped::GroupedExecutor;
use mbs_train::lower::lower;
use mbs_train::optim::Sgd;

#[test]
fn steady_state_mbs_training_is_arena_miss_free() {
    let d = generate(16, 8, 0.3, 77);

    // GN residual model — the paper's Fig. 6 configuration.
    let net = toy::fig6_resnet(8, 4, 1, Some(NormKind::Group { groups: 4 }), 16);
    let mut resnet = lower(&net, &mut StdRng::seed_from_u64(2)).expect("fig6_resnet lowers");
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);

    for sub in [2usize, 4] {
        let mut exec = GroupedExecutor::new(&Schedule::uniform(&net, 16, sub), resnet.len());
        // Warm the pool: the first step at each sub-batch size populates
        // it with every buffer shape the loop cycles through.
        for _ in 0..2 {
            let _ = exec.train_step(&mut resnet, &d.images, &d.labels, &mut opt);
        }
        arena::reset_stats();
        let _ = exec.train_step(&mut resnet, &d.images, &d.labels, &mut opt);
        let (hits, misses) = arena::stats();
        assert!(hits > 0, "the training step must route through the arena");
        assert_eq!(
            misses, 0,
            "steady-state sub-batch loop (sub={sub}) allocated fresh buffers"
        );
    }

    // Inference chunks reuse the same pools.
    let _ = evaluate(&mut resnet, &d.images, &d.labels, 4);
    arena::reset_stats();
    let _ = evaluate(&mut resnet, &d.images, &d.labels, 4);
    let (_, misses) = arena::stats();
    assert_eq!(misses, 0, "steady-state evaluation allocated fresh buffers");
}
