//! Concurrency stress: many producers hammering one server with jittered
//! arrivals. Every request must get exactly one response — none lost,
//! none duplicated, all correct — and shutdown must drain the queue
//! without deadlocking. Each scenario runs under a hard timeout so a hang
//! fails the test instead of wedging the suite.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mbs_cnn::networks::toy;
use mbs_cnn::FeatureShape;
use mbs_serve::{ModelHandle, Pending, Prediction, ServeConfig, ServeError, ServeStats, Server};
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
        Ok(()) => worker.join().expect("stress body panicked"),
        Err(_) => panic!("stress scenario deadlocked (exceeded {secs}s)"),
    }
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

#[test]
fn every_request_gets_exactly_one_correct_response() {
    with_timeout(120, || {
        const PRODUCERS: usize = 4;
        const REQUESTS: usize = 25;
        let handle = Arc::new(cheap_handle());
        let server = Server::start(
            &handle,
            ServeConfig {
                workers: 2,
                max_batch: 5,
                queue_depth: 16,
                ..ServeConfig::default()
            },
        );
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let client = server.client();
                let handle = Arc::clone(&handle);
                thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(p as u64);
                    let mut reference = handle.runner();
                    let mut answered = 0usize;
                    for j in 0..REQUESTS {
                        let s = sample(handle.input(), p * REQUESTS + j);
                        let expect = reference.infer_one(&s);
                        let pending = client.submit(&s).expect("submit");
                        // Randomized arrival jitter so batches form with
                        // every size and worker interleaving.
                        thread::sleep(Duration::from_micros(rng.gen_range(0u64..400)));
                        let got: Prediction = pending
                            .wait_timeout(Duration::from_secs(60))
                            .expect("response");
                        assert_eq!(expect, got, "producer {p} request {j}");
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        let answered: usize = producers
            .into_iter()
            .map(|p| p.join().expect("producer panicked"))
            .sum();
        assert_eq!(answered, PRODUCERS * REQUESTS);
        let stats = server.shutdown();
        // Exactly one response per request: the counters agree with the
        // histogram, nothing lost, nothing duplicated.
        assert_eq!(stats.requests, (PRODUCERS * REQUESTS) as u64);
        let hist_total: u64 = stats
            .histogram
            .iter()
            .enumerate()
            .map(|(size, &count)| size as u64 * count)
            .sum();
        assert_eq!(hist_total, stats.requests);
        assert_eq!(stats.histogram.iter().sum::<u64>(), stats.batches);
    });
}

#[test]
fn shutdown_drains_queued_requests() {
    with_timeout(60, || {
        // Not a multiple of max_batch: whatever is left queued when the
        // queue closes still goes out, as a partial batch.
        const BURST: usize = 10;
        let handle = cheap_handle();
        let mut reference = handle.runner();
        let server = Server::start(
            &handle,
            ServeConfig {
                workers: 2,
                max_batch: 4,
                queue_depth: BURST,
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let samples: Vec<Tensor> = (0..BURST).map(|i| sample(handle.input(), i)).collect();
        let pending: Vec<_> = samples
            .iter()
            .map(|s| client.submit(s).expect("submit"))
            .collect();
        // Shut down with the burst still in flight: every accepted
        // request must be answered, not abandoned.
        let stats = server.shutdown();
        assert_eq!(stats.requests, BURST as u64);
        for (i, (p, s)) in pending.into_iter().zip(&samples).enumerate() {
            let got = p
                .wait_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("request {i} lost in shutdown: {e}"));
            assert_eq!(got, reference.infer_one(s), "request {i}");
        }
        // The server is gone: new submissions reject cleanly, no hang.
        assert_eq!(
            client.submit(&samples[0]).map(|_| ()),
            Err(ServeError::Rejected)
        );
    });
}

/// The four stage sums of `ServeStats` account for where a request's time
/// went: over a seeded closed loop they add up to no more than what the
/// client observed from submit to answer, and every stage a request
/// goes through is counted. With one request outstanding every batch is a singleton
/// and the difference is the two thread wake-ups the server cannot see;
/// with three, batches form, and a batch's shared stages are counted
/// once, not once per member. `max_wait_us` is as large as it gets:
/// nothing is held for it, or this would not finish.
#[test]
fn stage_sums_account_for_the_observed_latency() {
    with_timeout(60, || {
        const REQUESTS: usize = 200;
        let handle = cheap_handle();
        let stage_sum =
            |s: &ServeStats| s.queue_wait_ns + s.collect_ns + s.forward_ns + s.fan_out_ns;
        for window in [1, 3] {
            let server = Server::start(
                &handle,
                ServeConfig {
                    workers: 1,
                    max_batch: 4,
                    max_wait_us: u64::MAX,
                    queue_depth: 8,
                    ..ServeConfig::default()
                },
            );
            assert_eq!(stage_sum(&server.stats()), 0, "nothing served yet");

            let client = server.client();
            let mut rng = StdRng::seed_from_u64(17);
            let mut outstanding: VecDeque<(Instant, Pending)> = VecDeque::new();
            let mut observed_ns = 0u128;
            let mut halfway = None;
            for i in 0..REQUESTS + window {
                if i >= window {
                    let (sent, pending) = outstanding.pop_front().expect("window is full");
                    pending
                        .wait_timeout(Duration::from_secs(30))
                        .expect("response");
                    observed_ns += sent.elapsed().as_nanos();
                }
                if i == REQUESTS / 2 {
                    halfway = Some(server.stats());
                }
                if i < REQUESTS {
                    let s = sample(handle.input(), rng.gen_range(0usize..64));
                    let sent = Instant::now();
                    outstanding.push_back((sent, client.submit(&s).expect("submit")));
                }
            }
            let halfway = halfway.expect("snapshot taken");
            let stats = server.shutdown();

            assert_eq!(stats.requests, REQUESTS as u64);
            assert_eq!(stats.answered(), REQUESTS as u64);
            assert!(
                u128::from(stage_sum(&stats)) <= observed_ns,
                "window {window}: stages sum to {} ns, the client observed {observed_ns} ns",
                stage_sum(&stats)
            );
            assert!(stats.queue_wait_ns > 0 && stats.collect_ns > 0 && stats.forward_ns > 0);
            // Monotone: no sum ever runs backwards.
            assert!(stage_sum(&halfway) > 0);
            for (earlier, later) in [
                (halfway.queue_wait_ns, stats.queue_wait_ns),
                (halfway.collect_ns, stats.collect_ns),
                (halfway.forward_ns, stats.forward_ns),
                (halfway.fan_out_ns, stats.fan_out_ns),
            ] {
                assert!(earlier <= later);
            }
        }
    });
}
