//! A training run's scratch memory is its own: every `train_grouped*` run
//! is under an arena scope, so what the run leaves pooled goes back to the
//! allocator when it returns, and the next run's peak is its own rather
//! than stacked on the last run's idle buffers. A streamed run's loader,
//! with batches still queued in its channels, is dropped inside the scope
//! too.
//!
//! Its own test binary, with a single `#[test]`: `VmHWM` (the resident
//! high-water mark) is per process.

use mbs_cnn::networks::toy;
use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
use mbs_tensor::arena;
use mbs_train::data::generate;
use mbs_train::loader::save_dataset_chunked;
use mbs_train::training::{
    train_grouped, train_grouped_source, DataSource, EpochStats, TrainConfig, TrainError,
};
use mbs_train::{CheckpointConfig, FaultPlan};

/// The process's resident high-water mark in KiB (Linux; `None` elsewhere).
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn bits(curve: &[EpochStats]) -> Vec<(u32, u64, u32, u32)> {
    curve
        .iter()
        .map(|e| {
            (
                e.train_loss.to_bits(),
                e.val_error_pct.to_bits(),
                e.preact_first.to_bits(),
                e.preact_last.to_bits(),
            )
        })
        .collect()
}

#[test]
fn back_to_back_runs_free_their_scratch() {
    let net = toy::tiny_resnet(1, 8);
    let hw = HardwareConfig::cpu().with_global_buffer(64 * 1024);
    let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
        .with_batch(8)
        .schedule();
    let train_set = generate(16, 32, 0.3, 91);
    let val_set = generate(8, 32, 0.3, 92);
    let long_set = generate(48, 32, 0.3, 93);
    let cfg = TrainConfig {
        epochs: 1,
        batch: 8,
        ..TrainConfig::default()
    };
    let before = arena::pooled();
    let mut curves = Vec::new();
    let mut peaks = Vec::new();
    for run in 0..3 {
        let curve = train_grouped(&net, &schedule, &train_set, &val_set, &cfg).expect("trains");
        assert_eq!(
            arena::pooled(),
            before,
            "run {run} left buffers in the thread's pool"
        );
        curves.push(bits(&curve));
        peaks.push(vm_hwm_kib());
    }
    assert!(
        curves.iter().all(|c| *c == curves[0]),
        "the runs' curves differ: {curves:?}"
    );
    if let [Some(first), _, Some(third)] = peaks[..] {
        assert!(
            third - first < 1024,
            "the third run raised the peak by {} KiB over the first ({first} KiB)",
            third - first
        );
    }

    // The same runs streamed off disk, two batches prefetched.
    let dir = std::env::temp_dir().join(format!("mbs-back-to-back-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train.mbsds");
    save_dataset_chunked(&train_set, &path, 5).unwrap();
    let source = DataSource::Stream(path);
    let streamed = TrainConfig {
        prefetch: Some(2),
        ..cfg
    };
    for run in 0..3 {
        let curve =
            train_grouped_source(&net, &schedule, &source, &val_set, &streamed).expect("trains");
        assert_eq!(
            arena::pooled(),
            before,
            "streamed run {run} left buffers in the thread's pool"
        );
        assert_eq!(
            bits(&curve),
            curves[0],
            "streamed run {run}'s curve differs"
        );
    }

    // A streamed run killed after its first of six steps returns with the
    // next batches still queued in the loader's channel.
    let long = dir.join("long.mbsds");
    save_dataset_chunked(&long_set, &long, 8).unwrap();
    let killed = TrainConfig {
        checkpoint: Some(CheckpointConfig {
            dir: dir.join("ckpt"),
            every_steps: 1,
            keep: 1,
            resume: false,
        }),
        fault_plan: Some(FaultPlan::kill_after(1)),
        ..streamed
    };
    let run = train_grouped_source(
        &net,
        &schedule,
        &DataSource::Stream(long),
        &val_set,
        &killed,
    );
    assert!(
        matches!(run, Err(TrainError::Killed { saves: 1 })),
        "the run should die after one save: {run:?}"
    );
    assert_eq!(
        arena::pooled(),
        before,
        "the killed run's queued batches joined the thread's pool"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
