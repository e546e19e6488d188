//! Hot model swap: every response must be bitwise attributable to
//! exactly one model version (never a blend, never a half-swapped
//! model), a failed swap must leave the old model serving (rollback is
//! the absence of the flip), and a successful swap must heal a server
//! that the panic circuit breaker degraded.

use std::fs;
use std::sync::{mpsc, Once};
use std::thread;
use std::time::{Duration, Instant};

use mbs_cnn::networks::toy;
use mbs_cnn::{FeatureShape, Network};
use mbs_serve::{
    ModelHandle, Prediction, ServeConfig, ServeError, ServeFaultPlan, Server, SwapError,
};
use mbs_tensor::Tensor;

/// Runs `body` on a helper thread and panics if it does not finish within
/// `secs`.
fn with_timeout(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("swap test body panicked"),
        Err(_) => panic!("swap scenario deadlocked (exceeded {secs}s)"),
    }
}

/// Silences injected worker panics (marked "fault injection"); real
/// panics still report.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("fault injection") {
                default_hook(info);
            }
        }));
    });
}

fn cheap_net() -> Network {
    toy::conv_chain(&[4, 8], FeatureShape::new(3, 8, 8), 4)
}

fn sample(shape: FeatureShape, salt: usize) -> Tensor {
    Tensor::from_vec(
        &[shape.channels, shape.height, shape.width],
        (0..shape.elems())
            .map(|v| (((v * 13 + salt * 101) % 19) as f32 - 9.0) / 5.0)
            .collect(),
    )
}

/// Two same-architecture models with different weights, plus per-sample
/// reference predictions from each — the attribution oracle.
struct Versions {
    a: ModelHandle,
    b: ModelHandle,
    samples: Vec<Tensor>,
    ref_a: Vec<Prediction>,
    ref_b: Vec<Prediction>,
}

/// Builds the oracle over `n` probe samples. Panics if the versions are
/// indistinguishable on the probe set (they never are for distinct
/// seeds).
fn two_versions(n: usize) -> Versions {
    let net = cheap_net();
    let a = ModelHandle::from_network(&net, 1).expect("freeze A");
    let b = ModelHandle::from_network(&net, 2).expect("freeze B");
    let samples: Vec<Tensor> = (0..n).map(|i| sample(a.input(), i)).collect();
    let (mut ra, mut rb) = (a.runner(), b.runner());
    let ref_a: Vec<Prediction> = samples.iter().map(|s| ra.infer_one(s)).collect();
    let ref_b: Vec<Prediction> = samples.iter().map(|s| rb.infer_one(s)).collect();
    assert!(
        ref_a.iter().zip(&ref_b).any(|(x, y)| x.logits != y.logits),
        "versions must be distinguishable for attribution to mean anything"
    );
    Versions {
        a,
        b,
        samples,
        ref_a,
        ref_b,
    }
}

/// Before the swap every response is bitwise version A; after it, bitwise
/// version B; and a stream crossing repeated swaps only ever sees one of
/// the two — exactly one model answers each request.
#[test]
fn every_response_is_bitwise_attributable_to_one_version() {
    with_timeout(120, || {
        const N: usize = 24;
        let Versions {
            a,
            b,
            samples,
            ref_a,
            ref_b,
        } = two_versions(N);
        // Both workers' first dispatches stall, so the first wave queues
        // up behind them and is served in real batches.
        let stall = Duration::from_millis(50);
        let server = Server::start_with_faults(
            &a,
            ServeConfig {
                workers: 2,
                max_batch: 4,
                queue_depth: 32,
                ..ServeConfig::default()
            },
            ServeFaultPlan::default()
                .stall_at(0, stall)
                .stall_at(1, stall),
        );
        let client = server.client();
        let wave = |client: &mbs_serve::Client| -> Vec<Prediction> {
            samples
                .iter()
                .map(|s| client.submit(s).expect("submit"))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|p| p.wait_timeout(Duration::from_secs(60)).expect("response"))
                .collect()
        };

        // Wave 1: all version A, bitwise.
        for (i, (got, want)) in wave(&client).iter().zip(&ref_a).enumerate() {
            assert_eq!(
                got.logits, want.logits,
                "pre-swap sample {i} is not version A"
            );
        }
        server.swap(b.clone()).expect("swap to B");
        // Wave 2: all version B, bitwise.
        for (i, (got, want)) in wave(&client).iter().zip(&ref_b).enumerate() {
            assert_eq!(
                got.logits, want.logits,
                "post-swap sample {i} is not version B"
            );
        }

        // A stream crossing many swaps: every response matches exactly
        // one of the two references — no torn reads, no blended model.
        let streamer = {
            let client = server.client();
            let samples = samples.clone();
            let (ref_a, ref_b) = (ref_a.clone(), ref_b.clone());
            thread::spawn(move || {
                for round in 0..8 {
                    for (i, s) in samples.iter().enumerate() {
                        let got = client
                            .submit(s)
                            .expect("stream submit")
                            .wait_timeout(Duration::from_secs(60))
                            .expect("stream response");
                        let is_a = got.logits == ref_a[i].logits;
                        let is_b = got.logits == ref_b[i].logits;
                        assert!(
                            is_a ^ is_b,
                            "round {round} sample {i}: response matches {} versions",
                            if is_a && is_b { "both" } else { "neither" }
                        );
                    }
                }
            })
        };
        for flip in 0..6 {
            thread::sleep(Duration::from_millis(5));
            let next = if flip % 2 == 0 { a.clone() } else { b.clone() };
            server.swap(next).expect("mid-stream swap");
        }
        streamer.join().expect("streamer panicked");
        let stats = server.shutdown();
        assert_eq!(stats.swaps, 7, "every accepted swap counted");
        assert_eq!(stats.failed, 0, "no request was lost across swaps");
        assert!(
            stats.histogram.iter().skip(2).any(|&batches| batches > 0),
            "attribution was only checked on singleton batches: {:?}",
            stats.histogram
        );
    });
}

/// A corrupt swap file and a geometry-mismatched replacement are both
/// refused — and the refusal *is* the rollback: the old model keeps
/// answering bitwise-identically.
#[test]
fn failed_swaps_leave_the_old_model_serving() {
    with_timeout(60, || {
        const N: usize = 8;
        let Versions {
            a, samples, ref_a, ..
        } = two_versions(N);
        let server = Server::start(
            &a,
            ServeConfig {
                workers: 1,
                max_batch: 4,
                queue_depth: 16,
                ..ServeConfig::default()
            },
        );
        let client = server.client();

        // Corrupt checkpoint file: refused at load.
        let dir = std::env::temp_dir().join(format!("mbsserve-swaproll-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt-00000001.mbsckpt");
        fs::write(&path, b"MBSCKPT but not really").expect("write");
        match server.swap_file(&cheap_net(), &path) {
            Err(SwapError::Load(_)) => {}
            other => panic!("expected a load refusal, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);

        // Geometry mismatch: a model with a different input/output shape
        // is refused before any flip.
        let other_net = toy::conv_chain(&[4], FeatureShape::new(1, 4, 4), 2);
        let other = ModelHandle::from_network(&other_net, 3).expect("freeze other");
        match server.swap(other) {
            Err(SwapError::Incompatible { .. }) => {}
            other => panic!("expected a geometry refusal, got {other:?}"),
        }

        // Rollback check: still version A, bitwise.
        for (i, s) in samples.iter().enumerate() {
            let got = client
                .submit(s)
                .expect("submit")
                .wait_timeout(Duration::from_secs(30))
                .expect("response");
            assert_eq!(got.logits, ref_a[i].logits, "sample {i} is not version A");
        }
        let stats = server.shutdown();
        assert_eq!(stats.swaps, 0, "no refused swap may count as a flip");
    });
}

/// The circuit breaker: repeated consecutive panics flip the server into
/// reject-fast degraded mode (every pending and new request answered
/// `WorkerFailed`, nothing hangs), and a successful swap heals it back
/// into service.
#[test]
fn circuit_breaker_degrades_and_a_swap_heals() {
    quiet_injected_panics();
    with_timeout(60, || {
        let net = cheap_net();
        let a = ModelHandle::from_network(&net, 1).expect("freeze");
        // Panic at the first two dispatches with a breaker allowing one
        // respawn: the second consecutive panic trips it.
        let server = Server::start_with_faults(
            &a,
            ServeConfig {
                workers: 1,
                max_batch: 1,
                queue_depth: 8,
                max_respawns: 1,
                ..ServeConfig::default()
            },
            ServeFaultPlan::default().panic_at(0).panic_at(1),
        );
        let client = server.client();
        let s = sample(a.input(), 5);

        // Both doomed batches answer WorkerFailed — never hang, never a
        // prediction from a crashed worker.
        for i in 0..2 {
            let got = client
                .submit(&s)
                .expect("submit into doomed batch")
                .wait_timeout(Duration::from_secs(30));
            assert_eq!(got, Err(ServeError::WorkerFailed), "doomed request {i}");
        }

        // The breaker trips shortly after the second panic; once tripped,
        // submissions reject fast instead of feeding a crashing model.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.is_degraded() {
            assert!(Instant::now() < deadline, "breaker never tripped");
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            client.submit(&s).map(|_| ()),
            Err(ServeError::WorkerFailed),
            "degraded servers reject fast"
        );

        // A validated swap heals: the breaker resets and serving resumes
        // (dispatch indices 0 and 1 are spent, so no more injected
        // panics).
        let b = ModelHandle::from_network(&net, 2).expect("freeze B");
        let want = b.runner().infer_one(&s);
        server.swap(b).expect("healing swap");
        assert!(!server.is_degraded(), "swap resets the breaker");
        let got = client
            .submit(&s)
            .expect("submit after heal")
            .wait_timeout(Duration::from_secs(30))
            .expect("healed server answers");
        assert_eq!(
            got.logits, want.logits,
            "healed server serves the new model"
        );

        let stats = server.shutdown();
        assert_eq!(stats.panics, 2);
        assert_eq!(stats.respawns, 1, "the tripping panic is not a respawn");
        assert_eq!(
            stats.failed, 2,
            "both doomed requests answered WorkerFailed"
        );
        assert_eq!(stats.swaps, 1);
    });
}
