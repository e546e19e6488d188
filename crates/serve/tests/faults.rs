//! Fault paths: loading damaged or mismatched checkpoints must produce
//! structured [`ModelError`]s (never panics, never silently-wrong
//! models), and a server that has shut down must reject — not hang —
//! late requests. Corruption styles mirror the PR-6 `FaultPlan` kinds:
//! byte flips, truncation, and outright garbage.

use std::fs;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs_cnn::networks::toy;
use mbs_cnn::{FeatureShape, Network};
use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
use mbs_serve::{ModelError, ModelHandle, ServeConfig, ServeError, Server};
use mbs_tensor::Tensor;
use mbs_train::checkpoint::{self, CheckpointError, TrainCheckpoint};
use mbs_train::container;
use mbs_train::{lower, Module, StateDict};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbsserve-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A checkpoint holding real exported state for `net`, as
/// `train_grouped` would have written after step zero.
fn checkpoint_for(net: &Network, fingerprint: u64) -> TrainCheckpoint {
    let mut model = lower(net, &mut StdRng::seed_from_u64(3)).expect("lower");
    let mut state = StateDict::default();
    model.export_state(&mut state);
    TrainCheckpoint {
        fingerprint,
        net: net.name().to_string(),
        epoch: 0,
        step_in_epoch: 0,
        loss_sum: 0.0,
        steps: 0,
        rng: vec![1, 2, 3, 4],
        model: state.into_entries(),
        velocities: Vec::new(),
        curve: Vec::new(),
    }
}

fn cheap_net() -> Network {
    toy::conv_chain(&[4, 8], FeatureShape::new(3, 8, 8), 4)
}

#[test]
fn byte_flipped_checkpoint_is_a_format_error() {
    let dir = temp_dir("flip");
    let net = cheap_net();
    let path = checkpoint::save(&dir, 1, &checkpoint_for(&net, 11), 3).expect("save");
    let mut bytes = fs::read(&path).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40; // FaultPlan-style single-byte flip
    fs::write(&path, &bytes).expect("write");
    match ModelHandle::load_file(&net, &path) {
        Err(ModelError::Checkpoint(CheckpointError::Container(container::Error::Format(_)))) => {}
        other => panic!("expected a format error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_is_a_format_error() {
    let dir = temp_dir("trunc");
    let net = cheap_net();
    let path = checkpoint::save(&dir, 1, &checkpoint_for(&net, 12), 3).expect("save");
    let bytes = fs::read(&path).expect("read");
    fs::write(&path, &bytes[..bytes.len() / 3]).expect("write");
    match ModelHandle::load_file(&net, &path) {
        Err(ModelError::Checkpoint(CheckpointError::Container(container::Error::Format(_)))) => {}
        other => panic!("expected a format error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_file_is_a_format_error() {
    let dir = temp_dir("garbage");
    fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ckpt-00000001.mbsckpt");
    fs::write(&path, b"this was never a checkpoint").expect("write");
    match ModelHandle::load_file(&cheap_net(), &path) {
        Err(ModelError::Checkpoint(CheckpointError::Container(container::Error::Format(_)))) => {}
        other => panic!("expected a format error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_for_another_network_is_a_mismatch_error() {
    let net = cheap_net();
    let ckpt = checkpoint_for(&net, 13);
    let other = toy::runtime_mix(8, 4);
    match ModelHandle::from_checkpoint(&other, &ckpt) {
        Err(ModelError::NetworkMismatch { expected, found }) => {
            assert_eq!(expected, other.name());
            assert_eq!(found, net.name());
        }
        other => panic!("expected a network mismatch, got {other:?}"),
    }
}

#[test]
fn checkpoint_with_foreign_state_is_a_state_error() {
    // Same name, different architecture: the positional state walk must
    // notice (shape mismatch / missing / leftover), not mis-assign.
    let net = cheap_net();
    let other = toy::runtime_mix(8, 4);
    let mut ckpt = checkpoint_for(&other, 14);
    ckpt.net = net.name().to_string();
    match ModelHandle::from_checkpoint(&net, &ckpt) {
        Err(ModelError::State(_)) => {}
        other => panic!("expected a state error, got {other:?}"),
    }
}

#[test]
fn load_latest_enforces_the_schedule_fingerprint() {
    let dir = temp_dir("fingerprint");
    let net = cheap_net();
    let hw = HardwareConfig::new();
    let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
    let fp = schedule.fingerprint(&net);

    // Empty (nonexistent) directory: structured NoCheckpoint.
    match ModelHandle::load_latest(&net, &schedule, &dir) {
        Err(ModelError::NoCheckpoint) => {}
        other => panic!("expected NoCheckpoint, got {other:?}"),
    }

    // A checkpoint for some *other* (net, schedule) pair: hard error.
    checkpoint::save(&dir, 1, &checkpoint_for(&net, fp ^ 0xdead), 3).expect("save");
    match ModelHandle::load_latest(&net, &schedule, &dir) {
        Err(ModelError::Checkpoint(CheckpointError::FingerprintMismatch { .. })) => {}
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }

    // The matching checkpoint loads and serves.
    checkpoint::save(&dir, 2, &checkpoint_for(&net, fp), 3).expect("save");
    let handle = ModelHandle::load_latest(&net, &schedule, &dir).expect("load");
    let shape = handle.input();
    let sample = Tensor::full(&[shape.channels, shape.height, shape.width], 0.25);
    let p = handle.runner().infer_one(&sample);
    assert_eq!(p.logits.len(), handle.classes());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn requests_after_shutdown_reject_cleanly() {
    let handle = ModelHandle::from_network(&cheap_net(), 5).expect("freeze");
    let server = Server::start(
        &handle,
        ServeConfig {
            workers: 1,
            max_batch: 2,
            queue_depth: 4,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let shape = handle.input();
    let sample = Tensor::full(&[shape.channels, shape.height, shape.width], 0.5);
    // Sanity: the live server answers.
    client
        .submit(&sample)
        .expect("submit")
        .wait_timeout(std::time::Duration::from_secs(30))
        .expect("response");
    server.shutdown();
    // A late request fails fast with a structured rejection — no hang.
    assert!(matches!(client.submit(&sample), Err(ServeError::Rejected)));
    // Shape errors are structured too, shutdown or not.
    let bad = Tensor::full(&[1, 2, 2], 0.0);
    assert!(matches!(client.submit(&bad), Err(ServeError::Shape { .. })));
}
