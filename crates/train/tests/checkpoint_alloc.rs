//! Pins the snapshot's steady-state cost on the trainer thread: after a
//! run's first two saves (which create the writer's two recycled
//! buffers), one more checkpoint costs the training thread **no
//! allocation at all** — state is copied into vectors that already have
//! the capacity, and the bounded channels to the writer thread never
//! allocate per message.
//!
//! Measured through the real entry point, differentially: a run of twice
//! the steps makes twice the saves, and whatever else a step allocates
//! (gathered batches, tensor shapes) it allocates with or without
//! checkpoints. So `(long − long_plain) − (short − short_plain)` is the
//! allocation count of the extra saves alone, and must be zero.
//!
//! This binary's allocator counts requests per thread, so the writer
//! thread's own work (paths, directory listings) is not in the numbers.
//! A single `#[test]`, so no concurrent test shares the process while it
//! counts.

use mbs_cnn::networks::toy;
use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
use mbs_train::checkpoint;
use mbs_train::data::generate;
use mbs_train::training::{train_grouped, TrainConfig};
use mbs_train::CheckpointConfig;

mod common;

#[global_allocator]
static ALLOC: common::Probe = common::Probe;

#[test]
fn a_steady_state_save_allocates_nothing_on_the_trainer_thread() {
    let net = toy::tiny_inception(8, 8);
    let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
        .with_batch(8)
        .schedule();
    let val_set = generate(8, 8, 0.3, 92);
    let root = std::env::temp_dir().join(format!("mbs-ckpt-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // One epoch of `samples / 8` steps, a checkpoint after every step
    // (or none): allocation requests of this thread over the whole call.
    let requests = |samples: usize, ckpt_dir: Option<&str>| -> u64 {
        let train_set = generate(samples, 8, 0.3, 91);
        let cfg = TrainConfig {
            epochs: 1,
            batch: 8,
            checkpoint: ckpt_dir.map(|name| CheckpointConfig {
                dir: root.join(name),
                every_steps: 1,
                keep: 2,
                resume: false,
            }),
            // Replay's arena traffic depends on the pool's history, which
            // would leak into the difference; the snapshot is the same
            // code under either backward strategy.
            stashing: Some(true),
            ..TrainConfig::default()
        };
        // The same run first, uncounted: it leaves the tensor arena's pool
        // (and the runtime's one-time thread-spawn set-up) in the state
        // this configuration itself produces, whatever ran before.
        train_grouped(&net, &schedule, &train_set, &val_set, &cfg).expect("warm-up run");
        let before = common::requests();
        train_grouped(&net, &schedule, &train_set, &val_set, &cfg).expect("training run");
        common::requests() - before
    };

    let short_plain = requests(32, None);
    let short = requests(32, Some("short"));
    let long_plain = requests(64, None);
    let long = requests(64, Some("long"));
    assert_eq!(checkpoint::list(&root.join("short")).unwrap().len(), 2);
    assert_eq!(
        checkpoint::list(&root.join("long"))
            .unwrap()
            .last()
            .unwrap()
            .0,
        15,
        "a long run makes 8 saves, a short one 4"
    );
    assert!(short > short_plain, "the first two saves do allocate");
    assert_eq!(
        long - long_plain,
        short - short_plain,
        "4 extra saves cost the trainer thread allocations \
         (plain {short_plain} → {long_plain}, checkpointed {short} → {long})"
    );
    let _ = std::fs::remove_dir_all(&root);
}
