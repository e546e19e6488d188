//! The crash-safety contract, end to end: a grouped training run killed
//! at a deterministic point and resumed from its checkpoint directory
//! must reproduce the unkilled run's epoch curve **bitwise** — across
//! both toy architectures and both backward strategies — and every
//! injected checkpoint fault must degrade gracefully (fall back to an
//! older checkpoint or a cold start) instead of panicking.

use std::path::{Path, PathBuf};

use mbs_cnn::networks::toy;
use mbs_cnn::Network;
use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler, Schedule};
use mbs_train::checkpoint::{self, CheckpointWriter};
use mbs_train::data::{generate, Dataset};
use mbs_train::training::{train_grouped, TrainConfig, TrainError};
use mbs_train::{CheckpointConfig, CheckpointError, Fault, FaultPlan};

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
    let dir = std::env::temp_dir().join(format!("mbsresume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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

fn ckpt(dir: &Path, every: usize, keep: usize) -> CheckpointConfig {
    CheckpointConfig {
        dir: dir.to_path_buf(),
        every_steps: every,
        keep,
        resume: true,
    }
}

/// The tentpole guarantee, as a matrix: {TinyResNet, TinyInception} ×
/// {cache stashing, backward replay}. Each cell kills the run after its
/// first (mid-epoch) checkpoint save, kills the first resume again one
/// save later, and requires the second resume to finish with an epoch
/// curve identical to the never-killed baseline.
#[test]
fn killed_and_resumed_runs_reproduce_the_baseline_curve() {
    for case in cases() {
        for stashing in [true, false] {
            let mut cfg = base_cfg();
            cfg.stashing = Some(stashing);
            let baseline = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            )
            .expect("baseline run");

            let label = format!("{}-stash{}", case.name, stashing);
            let dir = scratch(&label);
            // 16 samples / batch 8 = 2 steps per epoch: every_steps = 1
            // puts the first save mid-epoch, where resume is hardest.
            cfg.checkpoint = Some(ckpt(&dir, 1, 3));
            cfg.fault_plan = Some(FaultPlan::kill_after(1));
            let killed = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            );
            assert!(
                matches!(killed, Err(TrainError::Killed { saves: 1 })),
                "{label}: first run should die after one save: {killed:?}"
            );

            // Kill the first resume too: crashes during recovery must
            // also be recoverable.
            cfg.fault_plan = Some(FaultPlan::kill_after(1));
            let killed_again = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            );
            assert!(
                matches!(killed_again, Err(TrainError::Killed { .. })),
                "{label}: second run should also die: {killed_again:?}"
            );

            cfg.fault_plan = None;
            let resumed = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            )
            .expect("resumed run");
            assert_eq!(
                resumed, baseline,
                "{label}: resumed curve must match the unkilled baseline bitwise"
            );
            let _ = std::fs::remove_dir_all(&dir);

            // The window the background writer opens: the state of save 1
            // was copied, then the process died before the writer touched
            // the disk. Only save 0 exists; resume comes from it.
            cfg.fault_plan = Some(FaultPlan {
                faults: vec![(1, Fault::KillBeforeWrite)],
                kill_after_saves: Some(2),
            });
            let killed = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            );
            assert!(
                matches!(killed, Err(TrainError::Killed { saves: 2 })),
                "{label}: should die with save 1 snapshotted but unwritten: {killed:?}"
            );
            let on_disk: Vec<usize> = checkpoint::list(&dir)
                .unwrap()
                .into_iter()
                .map(|(seq, _)| seq)
                .collect();
            assert_eq!(on_disk, [0], "{label}: save 1 must have left nothing");
            cfg.fault_plan = None;
            let resumed = train_grouped(
                &case.net,
                &case.schedule,
                &case.train_set,
                &case.val_set,
                &cfg,
            )
            .expect("resume from the previous file");
            assert_eq!(
                resumed, baseline,
                "{label}: a kill between snapshot and write must not change the curve"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Resuming a directory whose newest checkpoints are damaged must fall
/// back to the newest intact one — for every fault kind — and still
/// reproduce the baseline.
#[test]
fn corrupt_checkpoints_fall_back_without_losing_equivalence() {
    let case = &cases()[1]; // inception is the cheaper of the two
    let mut cfg = base_cfg();
    let baseline = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("baseline run");

    for (label, fault) in [
        ("unwritten", Fault::KillBeforeWrite),
        ("torn", Fault::KillMidWrite),
        ("truncated", Fault::Truncate(25)),
        ("flipped", Fault::FlipByte(60)),
    ] {
        let dir = scratch(&format!("fault-{label}"));
        cfg.checkpoint = Some(ckpt(&dir, 1, 4));
        // Save 0 lands intact; save 1 is damaged; die after save 2.
        cfg.fault_plan = Some(FaultPlan {
            faults: vec![(1, fault)],
            kill_after_saves: Some(2),
        });
        let killed = train_grouped(
            &case.net,
            &case.schedule,
            &case.train_set,
            &case.val_set,
            &cfg,
        );
        assert!(killed.is_err(), "{label}: run should die");

        cfg.fault_plan = None;
        let resumed = train_grouped(
            &case.net,
            &case.schedule,
            &case.train_set,
            &case.val_set,
            &cfg,
        )
        .expect("resume must survive a damaged newest checkpoint");
        assert_eq!(resumed, baseline, "{label}: fallback resume must match");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// When *every* checkpoint in the directory is damaged, resume degrades
/// to a cold start — same curve, no panic, no error.
#[test]
fn all_corrupt_checkpoints_degrade_to_a_cold_start() {
    let case = &cases()[1];
    let mut cfg = base_cfg();
    let baseline = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("baseline run");

    let dir = scratch("all-corrupt");
    cfg.checkpoint = Some(ckpt(&dir, 1, 4));
    cfg.fault_plan = Some(FaultPlan {
        faults: vec![(0, Fault::Truncate(30)), (1, Fault::FlipByte(11))],
        kill_after_saves: Some(2),
    });
    assert!(train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .is_err());

    cfg.fault_plan = None;
    let resumed = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("cold start past corrupt files");
    assert_eq!(resumed, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn `.tmp` files do not live forever: a run killed mid-write leaves
/// one, and the next run's writer sweeps it before its first save — the
/// directory ends up holding finished files only, within `keep`.
#[test]
fn torn_tmp_files_are_swept_by_the_next_run() {
    let case = &cases()[1];
    let dir = scratch("sweep");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ckpt(&dir, 1, 2));
    cfg.fault_plan = Some(FaultPlan {
        faults: vec![(1, Fault::KillMidWrite)],
        kill_after_saves: Some(2),
    });
    let killed = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    );
    assert!(matches!(killed, Err(TrainError::Killed { saves: 2 })));
    let torn = dir.join("ckpt-00000001.mbsckpt.tmp");
    assert!(torn.exists(), "the killed run leaves its torn write behind");

    cfg.fault_plan = None;
    train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("resumed run");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    // Saves 0 and 1 (torn) before the kill, then 1..=3 after the resume
    // from save 0 (the torn one never became a finished file, so its
    // number is reused); `keep` = 2 leaves the newest two.
    assert_eq!(names, ["ckpt-00000002.mbsckpt", "ckpt-00000003.mbsckpt"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writer failures are structured. A checkpoint `dir` that is a regular
/// file fails before any training; a directory that *becomes* unwritable
/// mid-run fails the save on the writer thread and surfaces at the next
/// `submit` (or at `finish`), never as a hang or a silently missing file.
#[test]
fn unwritable_checkpoint_dir_is_an_io_error() {
    let case = &cases()[1];
    let root = scratch("notadir");
    std::fs::create_dir_all(&root).unwrap();
    let file = root.join("occupied");
    std::fs::write(&file, b"not a directory").unwrap();
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ckpt(&file, 1, 3));
    let err = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect_err("a file cannot hold checkpoints");
    assert!(
        matches!(err, TrainError::Checkpoint(CheckpointError::Io(_))),
        "{err}"
    );

    let dir = root.join("ckpts");
    let mut writer = CheckpointWriter::new(&ckpt(&dir, 1, 3), None).unwrap();
    writer.submit(|c| c.epoch = 1).unwrap();
    writer.flush().expect("the first save lands");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::write(&dir, b"now a file").unwrap();
    // This save fails behind the caller; the submit itself still returns.
    writer.submit(|c| c.epoch = 2).unwrap();
    let err = writer.submit(|c| c.epoch = 3).expect_err("surfaces here");
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    // The failed save handed its buffer back, so the writer is still
    // usable — and still failing, now reported by `finish`.
    writer.submit(|c| c.epoch = 4).unwrap();
    let err = writer.finish().expect_err("and here");
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A panic on the writer thread is an error out of `train_grouped`, with
/// the thread joined (the run returns instead of hanging on a dead
/// channel) and the checkpoints written before it intact.
#[test]
fn a_panicking_save_is_a_structured_error() {
    let case = &cases()[1];
    let dir = scratch("panic");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ckpt(&dir, 1, 3));
    cfg.fault_plan = Some(FaultPlan::fault_at(1, Fault::Panic));
    let err = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect_err("the second save panics");
    match err {
        TrainError::Checkpoint(CheckpointError::Io(e)) => {
            assert!(e.to_string().contains("panicked"), "{e}");
        }
        other => panic!("want a checkpoint I/O error, got {other}"),
    }
    let (found, report) =
        checkpoint::load_latest(&dir, case.schedule.fingerprint(&case.net)).unwrap();
    assert_eq!(found.map(|(seq, _)| seq), Some(0));
    assert!(report.is_clean());

    // At the writer's own surface: the panic surfaces once, and a dead
    // writer keeps refusing work instead of pretending to save.
    let plan = FaultPlan::fault_at(0, Fault::Panic);
    let mut writer = CheckpointWriter::new(&ckpt(&dir, 1, 3), Some(plan)).unwrap();
    writer.submit(|c| c.epoch = 1).unwrap();
    let err = writer.flush().expect_err("the save panicked");
    assert!(err.to_string().contains("panicked"), "{err}");
    assert!(writer.submit(|c| c.epoch = 2).is_err());
    drop(writer); // must return at once: the thread is already joined
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory written by a build that still encoded version 1 (JSON
/// payload) is not resumed from: version 1 is refused, so every one of
/// its files lands in the `LoadReport`'s skipped list and the run trains
/// from scratch to the baseline curve. The interrupted run's files are
/// overwritten here with the committed v1 golden checkpoint.
#[test]
fn a_version_1_directory_is_skipped_and_trains_from_scratch() {
    let case = &cases()[1];
    let mut cfg = base_cfg();
    let baseline = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("baseline run");

    let dir = scratch("v1-dir");
    cfg.checkpoint = Some(ckpt(&dir, 1, 3));
    cfg.fault_plan = Some(FaultPlan::kill_after(3));
    assert!(train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .is_err());
    let v1 =
        std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden-v1.mbsckpt"))
            .unwrap();
    let files = checkpoint::list(&dir).unwrap();
    assert_eq!(files.len(), 3);
    for (_, path) in &files {
        std::fs::write(path, &v1).unwrap();
    }
    let fingerprint = case.schedule.fingerprint(&case.net);
    let (found, report) = checkpoint::load_latest(&dir, fingerprint).unwrap();
    assert!(found.is_none(), "no v1 file may load");
    let skipped: Vec<&PathBuf> = report.skipped.iter().map(|(p, _)| p).collect();
    let mut named: Vec<&PathBuf> = files.iter().map(|(_, p)| p).collect();
    named.reverse(); // the report lists newest first
    assert_eq!(skipped, named);

    cfg.fault_plan = None;
    let resumed = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("a v1 directory trains from scratch");
    assert_eq!(resumed, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint directory from a *different* (network, schedule) pair is
/// a hard error, never a silent wrong-weights resume.
#[test]
fn mismatched_checkpoint_directory_is_refused() {
    let all = cases();
    let (a, b) = (&all[0], &all[1]);
    let dir = scratch("mismatch");
    let mut cfg = base_cfg();
    cfg.epochs = 1;
    cfg.checkpoint = Some(ckpt(&dir, 0, 3));
    train_grouped(&a.net, &a.schedule, &a.train_set, &a.val_set, &cfg).expect("seed the dir");

    let err = train_grouped(&b.net, &b.schedule, &b.train_set, &b.val_set, &cfg)
        .expect_err("resuming another net's directory must fail");
    match err {
        TrainError::Checkpoint(CheckpointError::FingerprintMismatch { net, .. }) => {
            assert_eq!(net, "TinyResNet1");
        }
        other => panic!("want FingerprintMismatch, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming a directory whose newest checkpoint is already at the final
/// epoch returns the stored curve without training further.
#[test]
fn resume_from_a_finished_run_returns_the_full_curve() {
    let case = &cases()[1];
    let dir = scratch("finished");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ckpt(&dir, 0, 3));
    let first = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("first run");
    let second = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect("re-run resumes from the final checkpoint");
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The structured pre-validation errors: each input disagreement is
/// reported by name before any training work happens.
#[test]
fn input_mismatches_are_structured_errors() {
    let case = &cases()[0];
    let cfg = base_cfg();

    // Images whose spatial size does not match the network input.
    let wrong_images = generate(8, 8, 0.3, 71);
    let err = train_grouped(
        &case.net,
        &case.schedule,
        &wrong_images,
        &case.val_set,
        &cfg,
    )
    .expect_err("8x8 images into a 32x32 net");
    match err {
        TrainError::DatasetMismatch {
            net,
            split,
            expected,
            found,
        } => {
            assert_eq!(net, "TinyResNet1");
            assert_eq!(split, "train");
            assert_eq!(expected, [3, 32, 32]);
            assert_eq!(found, vec![8, 3, 8, 8]);
        }
        other => panic!("want DatasetMismatch, got {other}"),
    }

    // A label list that disagrees with the image count.
    let mut torn_labels = generate(8, 32, 0.3, 72);
    torn_labels.labels.pop();
    let err = train_grouped(
        &case.net,
        &case.schedule,
        &case.train_set,
        &torn_labels,
        &cfg,
    )
    .expect_err("missing label");
    match err {
        TrainError::LabelMismatch {
            split,
            images,
            labels,
        } => {
            assert_eq!((split, images, labels), ("validation", 8, 7));
        }
        other => panic!("want LabelMismatch, got {other}"),
    }

    // A schedule planned for a deeper network (more nodes).
    let deeper = toy::tiny_resnet(2, 8);
    let other_schedule = MbsScheduler::new(
        &deeper,
        &HardwareConfig::cpu().with_global_buffer(3 * 1024),
        ExecConfig::Mbs1,
    )
    .with_batch(8)
    .schedule();
    let err = train_grouped(
        &case.net,
        &other_schedule,
        &case.train_set,
        &case.val_set,
        &cfg,
    )
    .expect_err("schedule covers the wrong node count");
    match err {
        TrainError::ScheduleMismatch {
            net,
            schedule_nodes,
            net_nodes,
            first_uncovered,
        } => {
            assert_eq!(net, "TinyResNet1");
            assert_ne!(schedule_nodes, net_nodes);
            // The inception plan is shorter, so some resnet node is named.
            if schedule_nodes < net_nodes {
                assert!(first_uncovered.is_some());
            }
        }
        other => panic!("want ScheduleMismatch, got {other}"),
    }
}
