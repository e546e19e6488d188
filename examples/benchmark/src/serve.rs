//! The serving workload: forward-only use of the same lowering and
//! kernels through a frozen `ModelHandle`, batches assembled dynamically.
//!
//! Load comes from this process: one pacer thread submits on a seeded
//! Poisson schedule whatever the server does (an open loop), one
//! collector thread waits for the answers, and the server runs one
//! worker. Latency counts from the moment a request was *due*, so a stall
//! charges every request it delays.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mbs::cnn::networks::toy;
use mbs::cnn::Network;
use mbs::serve::{Client, ModelHandle, ModelRunner, Pending, ServeConfig, Server};
use mbs::tensor::Tensor;
use mbs::train::data::generate;

use crate::host::HostProbe;
use crate::json::Json;
use crate::layers::{self, median_ms};
use crate::stats::{highest_supported_percentile, median, percentile, poisson_schedule, sorted};
use crate::trace::Tracer;
use crate::{Outcome, Run};

pub const NAME: &str = "serve_open_loop";

const IMAGE: usize = 32;
const SAMPLES: usize = 256;
const NOISE: f32 = 0.3;
/// About a third of what one worker can answer on the reference host.
const NOMINAL_RPS: f64 = 300.0;
/// Twice that: still below capacity, batches start to fill.
const MID_RPS: f64 = 600.0;
/// A request is good when answered correctly within this long of its due time.
const LIMIT_MS: f64 = 30.0;
/// Outstanding requests in the saturated closed-loop phase.
const WINDOW: usize = 64;
/// Consecutive answers the saturated throughput is read over (under a second's worth).
const BEST_RUN: usize = 1000;
const WARM_REQUESTS: usize = 500;
/// Buffer the scheduler-side metrics are computed for (the server itself
/// takes its batch cap from `MAX_BATCH`).
const BUFFER_BYTES: usize = 128 * 1024;

const MAX_BATCH: usize = 8;

/// Given in full, never taken from `MBS_SERVE_*`.
fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: MAX_BATCH,
        max_wait_us: 2_000,
        queue_depth: 64,
        ..Default::default()
    }
}

fn build() -> Network {
    toy::tiny_resnet(1, 8)
}

/// A running server and the samples to send it.
struct Setup {
    handle: ModelHandle,
    server: Server,
    samples: Vec<Tensor>,
}

fn set_up(seed: u64) -> Result<Setup, String> {
    let net = build();
    let data = generate(SAMPLES, IMAGE, NOISE, seed);
    let row = 3 * IMAGE * IMAGE;
    let samples: Vec<Tensor> = data
        .images
        .data()
        .chunks(row)
        .map(|r| Tensor::from_vec(&[3, IMAGE, IMAGE], r.to_vec()))
        .collect();
    let handle = ModelHandle::from_network(&net, seed).map_err(|e| e.to_string())?;
    let server = Server::start(&handle, config());
    let warm = closed_loop(&server.client(), &samples, 8, Stop::Requests(WARM_REQUESTS));
    if warm.ok != WARM_REQUESTS {
        return Err(format!("warm-up answered {} of {WARM_REQUESTS}", warm.ok));
    }
    Ok(Setup {
        handle,
        server,
        samples,
    })
}

/// One request's life, in nanoseconds from the phase's start.
struct Reply {
    due_ns: u64,
    submit_ns: u64,
    submitted_ns: u64,
    done_ns: u64,
    /// The answer's logits; `None` when the request was not answered OK.
    logits: Option<Vec<f32>>,
}

impl Reply {
    fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Sleeps until a millisecond before `due_ns` after `origin`, then
/// yields in a loop: a sleeping thread on this host can wake milliseconds
/// late, which would be charged to the server as latency.
fn wait_until(origin: Instant, due_ns: u64) {
    let due = Duration::from_nanos(due_ns);
    loop {
        let now = origin.elapsed();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(1_500) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Submits request `i` at `schedule[i]` no matter how the server is
/// doing, and collects every answer on a second thread.
fn open_loop(client: &Client, samples: &[Tensor], schedule: &[u64]) -> Vec<Reply> {
    let origin = Instant::now();
    let now_ns = || origin.elapsed().as_nanos() as u64;
    let (tx, rx) = mpsc::channel::<(usize, Pending)>();
    let mut replies: Vec<Reply> = Vec::with_capacity(schedule.len());
    let answers = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(i, pending)| {
                    let logits = pending.wait().ok().map(|p| p.logits);
                    (i, now_ns(), logits)
                })
                .collect::<Vec<_>>()
        });
        for (i, &due_ns) in schedule.iter().enumerate() {
            wait_until(origin, due_ns);
            let submit_ns = now_ns();
            let pending = client.submit(&samples[i % samples.len()]);
            let submitted_ns = now_ns();
            replies.push(Reply {
                due_ns,
                submit_ns,
                submitted_ns,
                done_ns: submitted_ns,
                logits: None,
            });
            if let Ok(pending) = pending {
                tx.send((i, pending))
                    .expect("the collector outlives the pacer");
            }
        }
        drop(tx);
        collector.join().expect("the collector does not panic")
    });
    for (i, done_ns, logits) in answers {
        replies[i].done_ns = done_ns;
        replies[i].logits = logits;
    }
    replies
}

enum Stop {
    Requests(usize),
    After(Duration),
}

struct ClosedLoop {
    submitted: usize,
    ok: usize,
    seconds: f64,
    /// When each OK answer arrived, in seconds from the start, ascending.
    answered_at: Vec<f64>,
}

impl ClosedLoop {
    /// Answers per second over the fastest run of `BEST_RUN` consecutive
    /// answers: what the server sustains when nothing else has its cores
    /// (on this host something often has).
    fn best_rate(&self) -> f64 {
        let t = &self.answered_at;
        let run = BEST_RUN.min(t.len());
        if run < 2 {
            return 0.0;
        }
        t.windows(run)
            .map(|w| (run - 1) as f64 / (w[run - 1] - w[0]))
            .fold(0.0, f64::max)
    }
}

/// Keeps `window` blocking submits outstanding: each answer admits the
/// next request, so the server sets the pace.
fn closed_loop(client: &Client, samples: &[Tensor], window: usize, stop: Stop) -> ClosedLoop {
    let start = Instant::now();
    let mut outstanding: VecDeque<Pending> = VecDeque::with_capacity(window);
    let mut submitted = 0usize;
    let mut answered_at = Vec::new();
    let more = |submitted: usize| match stop {
        Stop::Requests(n) => submitted < n,
        Stop::After(d) => start.elapsed() < d,
    };
    loop {
        while outstanding.len() < window && more(submitted) {
            if let Ok(p) = client.submit(&samples[submitted % samples.len()]) {
                outstanding.push_back(p);
            }
            submitted += 1;
        }
        match outstanding.pop_front() {
            Some(p) => {
                if p.wait().is_ok() {
                    answered_at.push(start.elapsed().as_secs_f64());
                }
            }
            None => break,
        }
    }
    ClosedLoop {
        submitted,
        ok: answered_at.len(),
        seconds: start.elapsed().as_secs_f64(),
        answered_at,
    }
}

/// Every 50th answer against `infer_one` on the same sample, bit for bit:
/// batching must not change a single answer.
fn check_bitwise(replies: &[Reply], s: &Setup, out: &mut Outcome) {
    let mut runner = s.handle.runner();
    let mut compared = 0usize;
    let mut differing = 0usize;
    for (i, reply) in replies.iter().enumerate().step_by(50) {
        let Some(logits) = &reply.logits else {
            continue;
        };
        let alone = runner.infer_one(&s.samples[i % s.samples.len()]);
        compared += 1;
        let same = alone.logits.len() == logits.len()
            && alone
                .logits
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        differing += usize::from(!same);
    }
    out.check(
        "every 50th answer equals infer_one bit for bit",
        compared > 0 && differing == 0,
        format!("{compared} compared, {differing} differ"),
    );
}

fn latencies(replies: &[Reply]) -> Vec<f64> {
    sorted(
        &replies
            .iter()
            .filter(|r| r.logits.is_some())
            .map(Reply::latency_ms)
            .collect::<Vec<_>>(),
    )
}

/// How late the pacer submitted, in milliseconds, ascending.
fn pacer_lateness(replies: &[Reply]) -> Vec<f64> {
    let late: Vec<f64> = replies
        .iter()
        .map(|r| r.submit_ns.saturating_sub(r.due_ns) as f64 / 1e6)
        .collect();
    sorted(&late)
}

fn gen_late_p99_ms(replies: &[Reply]) -> f64 {
    percentile(&pacer_lateness(replies), 99.0)
}

/// `--trace 0`: set-up, the nominal open loop, the saturated closed loop.
pub fn run_untraced(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut seconds = Vec::new();
    let s = loop {
        let start = Instant::now();
        let setup = set_up(run.seed)?;
        seconds.push(start.elapsed().as_secs_f64());
        if !run.sets_up_again(seconds.len(), seconds.iter().sum()) {
            break setup;
        }
        // `setup` drops here: the server stops (its worker joins) before
        // the next set-up is timed.
    };
    out.metrics.set("setup_s", median(&seconds));

    let client = s.server.client();
    let schedule = poisson_schedule(run.seed, NOMINAL_RPS, run.seconds * 0.7);
    let mut replies = Vec::new();
    let mut sat = None;
    let probe = HostProbe::around(|| {
        replies = open_loop(&client, &s.samples, &schedule);
        sat = Some(closed_loop(
            &client,
            &s.samples,
            WINDOW,
            Stop::After(Duration::from_secs_f64(run.seconds * 0.3)),
        ));
    });
    let sat = sat.expect("the probe ran the phases");
    let stats = s.server.stats();

    let lat = latencies(&replies);
    let good = replies
        .iter()
        .filter(|r| r.logits.is_some() && r.latency_ms() <= LIMIT_MS)
        .count();
    let lateness = pacer_lateness(&replies);
    let late = percentile(&lateness, 99.0);
    out.attempted = (replies.len() + sat.submitted) as u64;
    out.failed = (replies.len() - lat.len() + sat.submitted - sat.ok) as u64;
    out.metrics.set("op_ms_typical", percentile(&lat, 50.0));
    out.metrics
        .set("good_share", good as f64 / replies.len().max(1) as f64);
    out.metrics.set("samples_per_s", sat.best_rate());
    out.host = Some(probe);
    out.pacer_late_p99_ms = Some(late);
    out.notes.push(format!(
        "nominal: open loop, {NOMINAL_RPS} rps, {} offered, {} answered, p50 {:.3} ms, p95 {:.3} ms, \
         p99 {:.3} ms, highest supported percentile {:?}; pacer late p50 {:.3} ms, p99 {late:.3} ms, \
         max {:.3} ms",
        replies.len(),
        lat.len(),
        percentile(&lat, 50.0),
        percentile(&lat, 95.0),
        percentile(&lat, 99.0),
        highest_supported_percentile(lat.len()),
        percentile(&lateness, 50.0),
        percentile(&lateness, 100.0),
    ));
    out.notes.push(format!(
        "saturated: closed loop, window {WINDOW}, {} submitted, {} answered in {:.2} s \
         ({:.1}/s overall, {:.1}/s over the fastest {BEST_RUN})",
        sat.submitted,
        sat.ok,
        sat.seconds,
        sat.ok as f64 / sat.seconds,
        sat.best_rate()
    ));
    out.notes.push(format!(
        "server: {} batches, {} shed, {} expired, {} failed",
        stats.batches, stats.shed, stats.expired, stats.failed
    ));
    out.check(
        "every request offered was answered",
        lat.len() == replies.len() && sat.ok == sat.submitted,
        format!("{} + {} answered", lat.len(), sat.ok),
    );
    check_bitwise(&replies, &s, &mut out);
    drop(s);
    out.metrics.set("peak_rss_mib", crate::host::peak_rss_mib());
    Ok(out)
}

/// Median milliseconds of `infer` on a batch of `n`.
fn infer_ms(runner: &mut ModelRunner, samples: &[Tensor], n: usize) -> f64 {
    let data: Vec<f32> = samples[..n]
        .iter()
        .flat_map(|s| s.data().iter().copied())
        .collect();
    let batch = Tensor::from_vec(&[n, 3, IMAGE, IMAGE], data);
    median_ms(20, Duration::from_millis(150), || {
        std::hint::black_box(runner.infer(batch.clone()));
    })
}

/// `--trace 1`: the model alone, then the nominal rate with and without
/// spans, then twice the rate.
pub fn run_traced(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let m = &mut out.metrics;
    let (net, _, schedule) = layers::model_side(build, MAX_BATCH, BUFFER_BYTES, m);
    layers::gemm_reference(m);
    layers::conv_top(&net, &schedule, m);
    m.set("train.params", net.param_elems() as f64);
    m.set(
        "serve.model.load_ms",
        median_ms(3, Duration::from_millis(50), || {
            ModelHandle::from_network(&net, run.seed).expect("the toy net lowers");
        }),
    );

    let s = set_up(run.seed)?;
    let mut runner = s.handle.runner();
    let b1 = infer_ms(&mut runner, &s.samples, 1);
    let b4 = infer_ms(&mut runner, &s.samples, 4);
    let b8 = infer_ms(&mut runner, &s.samples, 8);
    let m = &mut out.metrics;
    m.set("serve.model.infer_ms_b1", b1);
    m.set("serve.model.infer_ms_b4", b4);
    m.set("serve.model.infer_ms_b8", b8);
    m.set("serve.model.batch_gain", 8.0 * b1 / b8);

    let client = s.server.client();
    let phase = run.seconds * 0.25;
    // The same arrivals twice: once as the reference, once for the spans.
    let nominal_schedule = poisson_schedule(run.seed, NOMINAL_RPS, phase);
    let mid_schedule = poisson_schedule(run.seed.wrapping_add(1), MID_RPS, phase);
    let (mut plain, mut traced, mut mid) = (Vec::new(), Vec::new(), Vec::new());
    let (mut before, mut after) = (s.server.stats(), s.server.stats());
    let probe = HostProbe::around(|| {
        plain = open_loop(&client, &s.samples, &nominal_schedule);
        before = s.server.stats();
        traced = open_loop(&client, &s.samples, &nominal_schedule);
        after = s.server.stats();
        mid = open_loop(&client, &s.samples, &mid_schedule);
    });
    let end = s.server.stats();
    out.host = Some(probe);

    // Spans of the traced phase, built from the clock reads each thread
    // took: `submit` on the pacer, `wait` from admission to the answer.
    let mut tracer = Tracer::new(true);
    for (i, r) in traced.iter().enumerate() {
        let request = tracer.push("request", r.due_ns, r.done_ns, None, i as u64);
        tracer.push(
            "serve.server.submit",
            r.submit_ns,
            r.submitted_ns,
            Some(request),
            i as u64,
        );
        tracer.push(
            "serve.server.wait",
            r.submitted_ns,
            r.done_ns,
            Some(request),
            i as u64,
        );
    }

    let lat = latencies(&traced);
    let lat_plain = latencies(&plain);
    let lat_mid = latencies(&mid);
    let batches = (after.batches - before.batches).max(1) as f64;
    let mean_batch = (after.requests - before.requests) as f64 / batches;
    // `infer` time at the mean batch, read off the three measured sizes.
    let forward_ms = if mean_batch <= 4.0 {
        b1 + (b4 - b1) * (mean_batch - 1.0).max(0.0) / 3.0
    } else {
        b4 + (b8 - b4) * (mean_batch - 4.0).min(4.0) / 4.0
    };
    let p50 = percentile(&lat, 50.0);
    let late = gen_late_p99_ms(&traced).max(gen_late_p99_ms(&mid));
    let last_submit = mid.iter().map(|r| r.submitted_ns).max().unwrap_or(0);
    let m = &mut out.metrics;
    m.set("serve.server.requests_traced", traced.len() as f64);
    m.set(
        "serve.server.submit_us_p50",
        median(&tracer.durations_ms("serve.server.submit")) * 1e3,
    );
    m.set("serve.server.mean_batch", mean_batch);
    m.set("serve.server.batches", batches);
    m.set("serve.server.nonforward_ms_p50", p50 - forward_ms);
    m.set("serve.server.p95_ms", percentile(&lat, 95.0));
    m.set("serve.server.p99_ms", percentile(&lat, 99.0));
    m.set("serve.server.p50_ms_mid", percentile(&lat_mid, 50.0));
    m.set("serve.server.p95_ms_mid", percentile(&lat_mid, 95.0));
    m.set(
        "serve.server.backlog_end_mid",
        mid.iter().filter(|r| r.done_ns > last_submit).count() as f64,
    );
    m.set("serve.server.shed", end.shed as f64);
    m.set("serve.server.expired", end.expired as f64);
    m.set("serve.server.failed", end.failed as f64);
    m.set("serve.server.gen_late_p99_ms", late);
    let plain_p50 = percentile(&lat_plain, 50.0);
    m.set("trace.overhead_share", (p50 - plain_p50) / plain_p50);
    out.pacer_late_p99_ms = Some(late);

    let offered = plain.len() + traced.len() + mid.len();
    let answered = lat_plain.len() + lat.len() + lat_mid.len();
    out.attempted = offered as u64;
    out.failed = (offered - answered) as u64;
    out.check(
        "every request offered was answered",
        answered == offered,
        format!("{answered} of {offered}"),
    );
    check_bitwise(&traced, &s, &mut out);
    out.notes.push(format!(
        "traced nominal phase: {} requests, highest supported percentile {:?}",
        lat.len(),
        highest_supported_percentile(lat.len())
    ));
    out.trace.push(("spans".into(), tracer.to_json()));
    out.trace.push(("nodes".into(), Json::Arr(Vec::new())));
    Ok(out)
}
