//! Dynamic batching must not change the numbers: for every toy net in the
//! zoo, serving through batches of any size is **bitwise-identical** to
//! running each sample alone through the same frozen handle. This is the
//! contract that lets the server coalesce freely — batch composition is
//! purely a throughput decision, never a correctness one.
//!
//! Each net is checked across batch caps {1, 3, 7, max} (max = the
//! cache-budget cap for a 1 MiB buffer, the same bound
//! `ServeConfig::for_model` would derive) and both 1 and 2 worker
//! threads. The server only batches what queues up behind busy workers,
//! so every leg stalls each worker's first dispatch, submits its burst
//! into the stall, and requires from the batch histogram that full
//! batches really formed — otherwise the comparison would quietly become
//! single ≡ single.

use std::time::Duration;

use mbs_cnn::networks::toy;
use mbs_cnn::{FeatureShape, Network};
use mbs_serve::{BatchPolicy, ModelHandle, Prediction, ServeConfig, ServeFaultPlan, Server};
use mbs_tensor::Tensor;

/// How long each worker's first dispatch is stalled: far longer than
/// submitting a burst takes, so the burst is queued when the stall ends.
const STALL: Duration = Duration::from_millis(100);

/// Deterministic, sample-unique input data.
fn sample(shape: FeatureShape, salt: usize) -> Tensor {
    Tensor::from_vec(
        &[shape.channels, shape.height, shape.width],
        (0..shape.elems())
            .map(|v| (((v * 31 + salt * 97) % 23) as f32 - 11.0) / 7.0)
            .collect(),
    )
}

/// The "max" batch size of the satellite spec: what the budget policy
/// yields for a 1 MiB cache buffer (kept small so debug-mode forwards
/// stay fast), never below 2 so it differs from the trivial cap.
fn max_cap(handle: &ModelHandle) -> usize {
    BatchPolicy::budget_batch_cap(handle.per_sample_bytes(), 1 << 20).max(2)
}

fn check_net(net: &Network) {
    let handle = ModelHandle::from_network(net, 42).expect("freeze model");
    let mut reference = handle.runner();
    let caps = [1, 3, 7, max_cap(&handle)];
    let n = 3 * caps.iter().max().copied().unwrap() + 1;
    let samples: Vec<Tensor> = (0..n).map(|i| sample(handle.input(), i)).collect();
    let expected: Vec<Prediction> = samples.iter().map(|s| reference.infer_one(s)).collect();

    for max_batch in caps {
        for workers in [1, 2] {
            // The stalled first dispatches take at most `max_batch`
            // each; more than a full batch is left queued behind them.
            let count = (workers + 1) * max_batch + 1;
            let stalls = (0..workers as u64)
                .fold(ServeFaultPlan::default(), |plan, i| plan.stall_at(i, STALL));
            let server = Server::start_with_faults(
                &handle,
                ServeConfig {
                    workers,
                    max_batch,
                    queue_depth: count.max(8),
                    ..ServeConfig::default()
                },
                stalls,
            );
            let client = server.client();
            let pending: Vec<_> = samples[..count]
                .iter()
                .map(|s| client.submit(s).expect("submit"))
                .collect();
            let got: Vec<Prediction> = pending
                .into_iter()
                .map(|p| p.wait_timeout(Duration::from_secs(120)).expect("response"))
                .collect();
            let stats = server.shutdown();
            for (i, (e, g)) in expected[..count].iter().zip(&got).enumerate() {
                assert_eq!(
                    e,
                    g,
                    "{}: sample {i} diverged at max_batch={max_batch} workers={workers}",
                    net.name()
                );
            }
            assert_eq!(stats.requests, count as u64, "{}", net.name());
            for (size, &batches) in stats.histogram.iter().enumerate() {
                assert!(
                    batches == 0 || size <= max_batch,
                    "{}: dispatched a batch of {size} past the cap {max_batch}",
                    net.name()
                );
            }
            // Real batches were compared: once the stalls end everything
            // is queued, so all but the stalled dispatches and one
            // remainder are full — and at least one is.
            let full = stats.histogram.get(max_batch).copied().unwrap_or(0);
            assert!(
                full >= 1 && stats.batches - full <= workers as u64 + 1,
                "{}: max_batch={max_batch} workers={workers} dispatched {:?}",
                net.name(),
                stats.histogram
            );
        }
    }
}

#[test]
fn fig1_toy_batched_equals_single() {
    check_net(&toy::fig1_toy());
}

#[test]
fn tiny_resnet_batched_equals_single() {
    check_net(&toy::tiny_resnet(1, 4));
}

#[test]
fn runtime_mix_batched_equals_single() {
    check_net(&toy::runtime_mix(8, 4));
}

#[test]
fn tiny_inception_batched_equals_single() {
    check_net(&toy::tiny_inception(8, 4));
}

#[test]
fn tiny_alexnet_batched_equals_single() {
    check_net(&toy::tiny_alexnet(8, 4));
}

#[test]
fn conv_chain_batched_equals_single() {
    check_net(&toy::conv_chain(&[4, 8], FeatureShape::new(3, 8, 8), 4));
}
