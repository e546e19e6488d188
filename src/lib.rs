//! # MBS: Mini-batch Serialization for CNN training
//!
//! A Rust reproduction of *“Mini-batch Serialization: CNN Training with
//! Inter-layer Data Reuse”* (Lym et al., MLSys 2019): the MBS scheduling
//! algorithm, a byte-exact CNN-training DRAM-traffic model, the WaveCore
//! systolic-array accelerator simulator, and a from-scratch CPU training
//! substrate demonstrating GN+MBS training equivalence.
//!
//! This facade crate re-exports the workspace crates:
//!
//! - [`cnn`] — network IR + zoo (ResNet, Inception v3/v4, AlexNet),
//! - [`core`] — the MBS scheduler and traffic model,
//! - [`wavecore`] — the accelerator simulator (timing/energy/utilization),
//! - [`tensor`] — dense f32 tensor ops (GEMM, direct convolution),
//! - [`train`] — the training substrate (BN/GN, MBS serialized executor),
//! - [`serve`] — the dynamic-batching inference front-end (frozen model
//!   handles, cache-budget batch sizing, thread-per-core request loop,
//!   priority admission control with deadline shedding, panic-supervised
//!   workers, and validated hot model swap).
//!
//! # Quickstart
//!
//! ```
//! use mbs::cnn::networks::resnet;
//! use mbs::core::{ExecConfig, HardwareConfig, MbsScheduler};
//!
//! let net = resnet(50);
//! let hw = HardwareConfig::default();
//! let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs2).schedule();
//! assert!(schedule.groups().len() >= 1);
//! ```

pub use mbs_cnn as cnn;
pub use mbs_core as core;
pub use mbs_serve as serve;
pub use mbs_tensor as tensor;
pub use mbs_train as train;
pub use mbs_wavecore as wavecore;
