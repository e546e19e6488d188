//! The streaming contract, end to end: training off a `*.mbsds` file
//! through the background-prefetch [`StreamLoader`] must be **bitwise**
//! identical to training off the same data in memory — loss curve and
//! final parameters — across {TinyResNet, TinyInception} × prefetch
//! depth {1, 2, 4} × {cache stashing, backward replay}, and a streamed
//! run killed mid-epoch and resumed from its checkpoints must reproduce
//! the uninterrupted curve bitwise, exactly as the in-memory path does.
//!
//! [`StreamLoader`]: mbs_train::loader::StreamLoader

use std::path::{Path, PathBuf};

use mbs_cnn::networks::toy;
use mbs_cnn::Network;
use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler, Schedule};
use mbs_train::checkpoint;
use mbs_train::data::{generate, Dataset};
use mbs_train::loader::save_dataset_chunked;
use mbs_train::training::{
    train_grouped, train_grouped_source, DataSource, TrainConfig, TrainError,
};
use mbs_train::{CheckpointConfig, EpochStats, FaultPlan};

struct Case {
    name: &'static str,
    net: Network,
    schedule: Schedule,
    train_set: Dataset,
    val_set: Dataset,
}

fn cases() -> Vec<Case> {
    let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let resnet = toy::tiny_resnet(1, 8);
    let resnet_schedule = MbsScheduler::new(&resnet, &hw, ExecConfig::Mbs1)
        .with_batch(8)
        .schedule();
    let inception = toy::tiny_inception(8, 8);
    let inception_schedule = MbsScheduler::new(&inception, &hw, ExecConfig::Mbs1)
        .with_batch(8)
        .schedule();
    vec![
        Case {
            name: "tiny_resnet",
            net: resnet,
            schedule: resnet_schedule,
            train_set: generate(16, 32, 0.3, 61),
            val_set: generate(8, 32, 0.3, 62),
        },
        Case {
            name: "tiny_inception",
            net: inception,
            schedule: inception_schedule,
            train_set: generate(16, 8, 0.3, 63),
            val_set: generate(8, 8, 0.3, 64),
        },
    ]
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbsequiv-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch: 8,
        lr_milestones: vec![1],
        ..TrainConfig::default()
    }
}

fn ckpt(dir: &Path) -> CheckpointConfig {
    CheckpointConfig {
        dir: dir.to_path_buf(),
        every_steps: 0, // epoch boundaries only: the final save IS the final params
        keep: 2,
        resume: true,
    }
}

/// Curves must match to the bit, not to a tolerance: compare the raw bit
/// patterns of every field (f32 `==` would already reject NaN and accept
/// -0.0 vs 0.0 — bitwise is the contract the whole repo pins).
fn assert_curves_bitwise(label: &str, got: &[EpochStats], want: &[EpochStats]) {
    assert_eq!(got.len(), want.len(), "{label}: epoch count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.epoch, w.epoch, "{label}");
        assert_eq!(
            g.train_loss.to_bits(),
            w.train_loss.to_bits(),
            "{label}: epoch {} train_loss {} vs {}",
            g.epoch,
            g.train_loss,
            w.train_loss
        );
        assert_eq!(
            g.val_error_pct.to_bits(),
            w.val_error_pct.to_bits(),
            "{label}: epoch {} val_error",
            g.epoch
        );
        assert_eq!(
            g.preact_first.to_bits(),
            w.preact_first.to_bits(),
            "{label}"
        );
        assert_eq!(g.preact_last.to_bits(), w.preact_last.to_bits(), "{label}");
    }
}

/// The final parameters, bitwise: the encoded bytes of the newest
/// (epoch-boundary) checkpoint — model state, momentum, RNG cursor, the
/// lot. Two runs that agree here ended in the same state, exactly.
fn final_state_bytes(dir: &Path, case: &Case) -> Vec<u8> {
    let fingerprint = case.schedule.fingerprint(&case.net);
    let (found, report) = checkpoint::load_latest(dir, fingerprint).expect("readable dir");
    assert!(report.is_clean(), "{}: {report}", dir.display());
    let (_, ckpt) = found.expect("final checkpoint exists");
    checkpoint::encode(&ckpt)
}

/// The headline matrix. The dataset goes to disk with a chunk size (5)
/// that divides neither the batch (8) nor the set (16), so every batch
/// crosses a chunk boundary — the layout the loader must get right.
#[test]
fn streamed_training_is_bitwise_equal_to_in_memory() {
    for case in cases() {
        let dir = scratch(case.name);
        let path = dir.join("train.mbsds");
        save_dataset_chunked(&case.train_set, &path, 5).unwrap();

        for stashing in [true, false] {
            let mut cfg = base_cfg();
            cfg.stashing = Some(stashing);
            let mem_dir = dir.join(format!("mem-stash{stashing}"));
            cfg.checkpoint = Some(ckpt(&mem_dir));
            let baseline = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            )
            .expect("in-memory baseline");
            let baseline_state = final_state_bytes(&mem_dir, &case);

            for prefetch in [1usize, 2, 4] {
                let label = format!("{}-stash{stashing}-prefetch{prefetch}", case.name);
                let stream_dir = dir.join(format!("stream-{stashing}-{prefetch}"));
                cfg.checkpoint = Some(ckpt(&stream_dir));
                cfg.prefetch = Some(prefetch);
                let streamed = train_grouped_source(
                    &case.net,
                    &case.schedule,
                    &DataSource::Stream(path.clone()),
                    &case.val_set,
                    &cfg,
                )
                .expect("streamed run");
                assert_curves_bitwise(&label, &streamed, &baseline);
                assert_eq!(
                    final_state_bytes(&stream_dir, &case),
                    baseline_state,
                    "{label}: final params + optimizer state must match bitwise"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Kill/resume over a streamed source: a run killed after its first
/// mid-epoch checkpoint save, resumed from the directory, must reproduce
/// the *uninterrupted in-memory* curve bitwise — the two contracts
/// (crash safety and streamed equivalence) compose — at prefetch depth 1
/// (every trainer/loader handoff serializes) and at the default depth 2.
#[test]
fn streamed_kill_resume_reproduces_the_uninterrupted_curve() {
    let case = &cases()[1]; // inception is the cheaper of the two
    let dir = scratch("killresume");
    let path = dir.join("train.mbsds");
    save_dataset_chunked(&case.train_set, &path, 5).unwrap();
    let source = DataSource::Stream(path);

    let baseline = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &base_cfg(),
    )
    .expect("uninterrupted in-memory baseline");

    for prefetch in [1usize, 2] {
        let mut cfg = base_cfg();
        cfg.prefetch = Some(prefetch);
        // 16 samples / batch 8 = 2 steps per epoch: every_steps = 1 puts
        // the first save mid-epoch, where the resume cursor meets the
        // prefetch plan's `skip`.
        cfg.checkpoint = Some(CheckpointConfig {
            dir: dir.join(format!("ckpts-prefetch{prefetch}")),
            every_steps: 1,
            keep: 3,
            resume: true,
        });
        cfg.fault_plan = Some(FaultPlan::kill_after(1));
        let killed = train_grouped_source(&case.net, &case.schedule, &source, &case.val_set, &cfg);
        assert!(
            matches!(killed, Err(TrainError::Killed { saves: 1 })),
            "prefetch {prefetch}: first streamed run should die after one save: {killed:?}"
        );

        // Kill the first resume too — recovery of a recovery, streamed.
        cfg.fault_plan = Some(FaultPlan::kill_after(1));
        let killed_again =
            train_grouped_source(&case.net, &case.schedule, &source, &case.val_set, &cfg);
        assert!(
            matches!(killed_again, Err(TrainError::Killed { .. })),
            "prefetch {prefetch}: second streamed run should also die: {killed_again:?}"
        );

        cfg.fault_plan = None;
        let resumed = train_grouped_source(&case.net, &case.schedule, &source, &case.val_set, &cfg)
            .expect("streamed resume");
        let label = format!("streamed-kill-resume-prefetch{prefetch}");
        assert_curves_bitwise(&label, &resumed, &baseline);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An in-memory `DataSource` is the same code path as `train_grouped` —
/// trivially, but it pins the wrapper against drift.
#[test]
fn memory_source_matches_train_grouped() {
    let case = &cases()[1];
    let cfg = base_cfg();
    let direct = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .unwrap();
    let via_source = train_grouped_source(
        &case.net,
        &case.schedule,
        &DataSource::Memory(case.train_set.clone()),
        &case.val_set,
        &cfg,
    )
    .unwrap();
    assert_curves_bitwise("memory-source", &via_source, &direct);
}
