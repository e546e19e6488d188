//! Chaos: sustained overload, injected worker panics, slow-worker
//! stalls, and corrupt swap files — all at once, under jittered
//! concurrent producers. The invariant is exact accounting: **every
//! admitted request gets exactly one response** (a prediction or a
//! structured error), the server keeps serving after every fault, and a
//! request refused at admission is refused with a structured
//! [`ServeError::Overloaded`], never silently dropped. Each scenario
//! runs under a hard timeout so a hang fails instead of wedging the
//! suite.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mbs_cnn::networks::toy;
use mbs_cnn::FeatureShape;
use mbs_serve::{
    ModelHandle, ServeConfig, ServeError, ServeFaultPlan, Server, SubmitOptions, SwapError,
};
use mbs_tensor::Tensor;

/// Runs `body` on a helper thread and panics if it does not finish within
/// `secs` — the anti-deadlock harness for every scenario here.
fn with_timeout(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("chaos body panicked"),
        Err(_) => panic!("chaos scenario deadlocked (exceeded {secs}s)"),
    }
}

/// Silences the *injected* worker panics (their message carries the
/// "fault injection" marker) so chaos runs do not spam stderr; every
/// other panic still reports through the default hook.
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

fn cheap_handle() -> ModelHandle {
    let net = toy::conv_chain(&[4, 8], FeatureShape::new(3, 8, 8), 4);
    ModelHandle::from_network(&net, 7).expect("freeze model")
}

fn sample(shape: FeatureShape, salt: usize) -> Tensor {
    Tensor::from_vec(
        &[shape.channels, shape.height, shape.width],
        (0..shape.elems())
            .map(|v| (((v * 13 + salt * 101) % 19) as f32 - 9.0) / 5.0)
            .collect(),
    )
}

/// Serving-worker count for the chaos run.
const CHAOS_WORKERS: usize = 2;

/// The headline chaos run: jittered producers at well over queue
/// capacity, two injected worker panics, one slow-worker stall, one
/// corrupt swap file, and one good hot swap — all while counting every
/// outcome. Accounting must balance exactly and the server must still
/// serve at the end.
#[test]
fn overload_panics_and_swaps_keep_exact_accounting() {
    quiet_injected_panics();
    with_timeout(120, || {
        const PRODUCERS: usize = 4;
        const REQUESTS: usize = 60;
        let handle = Arc::new(cheap_handle());
        let fault = ServeFaultPlan::default()
            .panic_at(3)
            .panic_at(9)
            .stall_at(6, Duration::from_millis(2));
        let server = Server::start_with_faults(
            &handle,
            ServeConfig {
                workers: CHAOS_WORKERS,
                max_batch: 4,
                queue_depth: 8,
                ..ServeConfig::default()
            },
            fault,
        );

        let ok = Arc::new(AtomicU64::new(0));
        let structured = Arc::new(AtomicU64::new(0));
        let refused = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let client = server.client();
                let shape = handle.input();
                let (ok, structured, refused) = (
                    Arc::clone(&ok),
                    Arc::clone(&structured),
                    Arc::clone(&refused),
                );
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(p as u64);
                    for j in 0..REQUESTS {
                        let s = sample(shape, p * REQUESTS + j);
                        let opts = SubmitOptions::priority((j % 3) as u8)
                            .deadline(Duration::from_millis(500));
                        // Half the traffic uses backpressure (blocking)
                        // submission, half non-blocking admission — both
                        // paths must account exactly.
                        let pending = if j % 2 == 0 {
                            client.submit_with(&s, opts)
                        } else {
                            client.try_submit(&s, opts)
                        };
                        match pending {
                            Ok(pending) => match pending.wait_timeout(Duration::from_secs(60)) {
                                Ok(_) => {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(
                                    ServeError::DeadlineExceeded
                                    | ServeError::Overloaded { .. }
                                    | ServeError::WorkerFailed,
                                ) => {
                                    structured.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("producer {p} request {j}: unexpected {e}"),
                            },
                            Err(ServeError::Overloaded { retry_after_us }) => {
                                assert!(retry_after_us > 0, "refusals carry a backoff hint");
                                refused.fetch_add(1, Ordering::Relaxed);
                            }
                            // Blocking submits only fail like this if the
                            // breaker tripped — two isolated panics must
                            // not trip it.
                            Err(e) => panic!("producer {p} request {j}: unexpected {e}"),
                        }
                        thread::sleep(Duration::from_micros(rng.gen_range(0u64..300)));
                    }
                })
            })
            .collect();

        // Mid-storm: a corrupt swap file must be refused with the old
        // model still serving, and a good swap must go through.
        thread::sleep(Duration::from_millis(30));
        let dir = std::env::temp_dir().join(format!("mbsserve-chaos-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let corrupt = dir.join("ckpt-00000001.mbsckpt");
        fs::write(&corrupt, b"not a checkpoint at all").expect("write corrupt");
        let net = toy::conv_chain(&[4, 8], FeatureShape::new(3, 8, 8), 4);
        match server.swap_file(&net, &corrupt) {
            Err(SwapError::Load(_)) => {}
            other => panic!("corrupt swap file must be refused, got {other:?}"),
        }
        let replacement = ModelHandle::from_network(&net, 8).expect("freeze replacement");
        server.swap(replacement).expect("valid swap");
        let _ = fs::remove_dir_all(&dir);

        for p in producers {
            p.join().expect("producer panicked");
        }

        // The server survived: it still answers after panics, the stall,
        // the refused swap, and the real swap.
        let probe = sample(handle.input(), 424242);
        server
            .client()
            .submit(&probe)
            .expect("post-chaos submit")
            .wait_timeout(Duration::from_secs(30))
            .expect("post-chaos response");
        assert!(
            !server.is_degraded(),
            "isolated panics must not trip the breaker"
        );

        let stats = server.shutdown();
        let offered = (PRODUCERS * REQUESTS) as u64;
        let (ok, structured, refused) = (
            ok.load(Ordering::Relaxed),
            structured.load(Ordering::Relaxed),
            refused.load(Ordering::Relaxed),
        );
        // Exact accounting: every offered request is exactly one of
        // answered-with-prediction, answered-with-structured-error, or
        // refused at admission.
        assert_eq!(ok + structured + refused, offered);
        // The server's own counters agree with what the producers saw
        // (+1 for the probe request above).
        assert_eq!(stats.requests, ok + 1);
        assert_eq!(stats.answered(), ok + structured + 1);
        assert_eq!(stats.panics, 2, "both injected panics were caught");
        assert_eq!(stats.respawns, 2, "both panicked workers respawned");
        assert_eq!(stats.swaps, 1, "only the valid swap flipped the model");
        // Both paths actually ran under this load.
        assert!(ok > 0, "some requests must be served under overload");
    });
}

/// Expired requests are answered before batching: while a stalled worker
/// blocks the (single-worker) server, queued requests whose deadlines
/// pass are answered `DeadlineExceeded` by the collector's harvest and
/// never reach the model.
#[test]
fn expired_requests_never_reach_the_model() {
    quiet_injected_panics();
    with_timeout(60, || {
        let handle = cheap_handle();
        let server = Server::start_with_faults(
            &handle,
            ServeConfig {
                workers: 1,
                max_batch: 1, // singleton batches: the stall pins batch 0
                queue_depth: 8,
                ..ServeConfig::default()
            },
            ServeFaultPlan::default().stall_at(0, Duration::from_millis(100)),
        );
        let client = server.client();
        let s = sample(handle.input(), 1);
        // Batch 0: served, but stalled 100 ms.
        let first = client.submit(&s).expect("submit first");
        thread::sleep(Duration::from_millis(10));
        // Queued behind the stall with 2 ms deadlines: they expire long
        // before the worker frees up.
        let doomed: Vec<_> = (0..3)
            .map(|i| {
                client
                    .try_submit(
                        &sample(handle.input(), 10 + i),
                        SubmitOptions::default().deadline(Duration::from_millis(2)),
                    )
                    .expect("try_submit")
            })
            .collect();
        first
            .wait_timeout(Duration::from_secs(30))
            .expect("stalled batch still answers");
        for (i, d) in doomed.into_iter().enumerate() {
            assert_eq!(
                d.wait_timeout(Duration::from_secs(30)),
                Err(ServeError::DeadlineExceeded),
                "doomed request {i}"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.expired, 3, "all three deadlines harvested");
        assert_eq!(stats.requests, 1, "expired requests never batched");
    });
}

/// A waiter that times out abandons its slot: the worker's late answer is
/// dropped on the spot (no error, no leak), and the server keeps serving.
#[test]
fn timed_out_waiter_reclaims_its_slot() {
    quiet_injected_panics();
    with_timeout(60, || {
        let handle = cheap_handle();
        let server = Server::start_with_faults(
            &handle,
            ServeConfig {
                workers: 1,
                max_batch: 1,
                queue_depth: 4,
                ..ServeConfig::default()
            },
            ServeFaultPlan::default().stall_at(0, Duration::from_millis(80)),
        );
        let client = server.client();
        let s = sample(handle.input(), 3);
        // The waiter gives up at 5 ms; the stalled worker answers at
        // ~80 ms into an abandoned slot.
        let impatient = client.submit(&s).expect("submit");
        assert_eq!(
            impatient.wait_timeout(Duration::from_millis(5)),
            Err(ServeError::DeadlineExceeded)
        );
        // The late fill must not hurt the worker: the next request is
        // served normally.
        let second = client.submit(&s).expect("submit after timeout");
        second
            .wait_timeout(Duration::from_secs(30))
            .expect("server still serves after an abandoned slot");
        let stats = server.shutdown();
        assert_eq!(
            stats.requests, 2,
            "both batches dispatched; the late answer was dropped, not an error"
        );
    });
}

/// The backoff hint of a refusal is the time the queue really takes to
/// drain: served one request per batch, then refused at a full queue
/// behind a stalled worker, a client is told to come back after at least
/// `queue_len` measured forward passes — not an eighth of that, which is
/// what dividing by `max_batch` on the assumption of full batches gave.
#[test]
fn refusal_hint_covers_the_queue_at_the_measured_singleton_rate() {
    with_timeout(60, || {
        const WARM: u64 = 30;
        const QUEUE: usize = 4;
        let handle = cheap_handle();
        let server = Server::start_with_faults(
            &handle,
            ServeConfig {
                workers: 1,
                max_batch: 8,
                queue_depth: QUEUE,
                ..ServeConfig::default()
            },
            ServeFaultPlan::default().stall_at(WARM, Duration::from_millis(200)),
        );
        let client = server.client();
        let s = sample(handle.input(), 5);

        // One request at a time: every batch is a singleton, and the
        // forward time of each is read off the stats before the next.
        let mut forward_ns = Vec::new();
        let mut total_ns = 0;
        for served in 1..=WARM {
            client
                .submit(&s)
                .expect("submit")
                .wait_timeout(Duration::from_secs(30))
                .expect("response");
            // The answer is out before the batch is recorded.
            let stats = loop {
                let stats = server.stats();
                if stats.batches == served {
                    break stats;
                }
                thread::yield_now();
            };
            forward_ns.push(stats.forward_ns - total_ns);
            total_ns = stats.forward_ns;
        }
        assert_eq!(server.stats().histogram, vec![0, WARM]);
        let (fastest, slowest) = (
            *forward_ns.iter().min().expect("warm-up ran"),
            *forward_ns.iter().max().expect("warm-up ran"),
        );

        // Dispatch `WARM` stalls with whatever it popped (a queue's worth
        // at most); behind it the queue fills, and the first submission
        // past that is refused.
        let mut admitted = Vec::new();
        let hint_us = loop {
            match client.try_submit(&s, SubmitOptions::default()) {
                Ok(pending) => admitted.push(pending),
                Err(ServeError::Overloaded { retry_after_us }) => break retry_after_us,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
            assert!(admitted.len() <= 2 * QUEUE, "the queue never filled");
        };
        // The estimate is an average of the measured singleton forwards,
        // over the `QUEUE` requests ahead and the refused one itself.
        let hint_ns = hint_us * 1_000;
        assert!(
            hint_ns >= QUEUE as u64 * fastest,
            "hint {hint_us} us is below {QUEUE} forwards of at least {fastest} ns"
        );
        assert!(
            hint_ns <= (QUEUE as u64 + 1) * slowest + 1_000,
            "hint {hint_us} us is above {} forwards of at most {slowest} ns",
            QUEUE + 1
        );
        for pending in admitted {
            pending
                .wait_timeout(Duration::from_secs(30))
                .expect("queued behind the stall, still answered");
        }
        server.shutdown();
    });
}
