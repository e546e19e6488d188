//! The three training workloads.
//!
//! With `--trace 0` the timed section is the library's own entry point,
//! `train_grouped_source_with_stats`, called for whole rounds of a fixed
//! number of epochs until the time is used up: every round trains a fresh
//! model from the same seed, so every round must return the same curve,
//! bit for bit. With `--trace 1` the benchmark drives the same public
//! pieces itself — loader, grouped forward, loss, grouped backward,
//! optimizer, checkpoint — with a span around each call, then times every
//! lowered node alone.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mbs::cnn::networks::{resnet_custom, toy};
use mbs::cnn::Network;
use mbs::core::traffic::analyze;
use mbs::core::Schedule;
use mbs::tensor::arena;
use mbs::tensor::ops::{cross_entropy, softmax, softmax_xent_backward};
use mbs::tensor::Tensor;
use mbs::train::checkpoint::{self, CheckpointConfig, TrainCheckpoint};
use mbs::train::data::{generate, Dataset};
use mbs::train::grouped::GroupedExecutor;
use mbs::train::loader::{generate_to, Batch, DiskDataset, LoaderStats, StreamLoader};
use mbs::train::lower::{lower, LoweredNet};
use mbs::train::module::{Module, StateDict};
use mbs::train::optim::Sgd;
use mbs::train::training::{train_grouped_source_with_stats, DataSource, EpochStats, TrainConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::host::HostProbe;
use crate::json::Json;
use crate::layers::{self, full_batch_schedule, median_ms, seeded_tensor, time_ms};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::{Outcome, Run};

/// One training workload, frozen: changing a number here changes what
/// every recorded result means.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub name: &'static str,
    build: fn() -> Network,
    /// Square input extent of the generated images.
    image: usize,
    batch: usize,
    /// On-chip buffer the scheduler plans for, in bytes.
    buffer_bytes: usize,
    train_samples: usize,
    val_samples: usize,
    /// Epochs of one timed round.
    epochs: usize,
    /// Prefetch depth of the streamed `*.mbsds` file; `None` trains from memory.
    prefetch: Option<usize>,
    /// Checkpoint every this many steps (and at every epoch end); `None` never.
    ckpt_every: Option<usize>,
    lr: f32,
    /// Most steps one pass of the benchmark's own step loop takes.
    trace_steps: usize,
}

const NOISE: f32 = 0.3;
const MOMENTUM: f32 = 0.9;
const WEIGHT_DECAY: f32 = 1e-4;
const CKPT_KEEP: usize = 3;
/// Name of the check whose detail is the whole loss curve; `--aa`
/// compares that line between its two runs.
pub const LOSS_CHECK: &str = "loss is finite in every epoch";

pub const SPECS: [TrainSpec; 3] = [
    // Conv/GEMM does almost all the work and stays in cache; loader,
    // executor bookkeeping and checkpoints are present but small.
    TrainSpec {
        name: "train_stream_conv",
        build: || toy::tiny_resnet(1, 8),
        image: 32,
        batch: 8,
        buffer_bytes: 128 * 1024,
        train_samples: 256,
        val_samples: 64,
        epochs: 4,
        prefetch: Some(2),
        ckpt_every: Some(16),
        lr: 0.002,
        trace_steps: 100,
    },
    // The same layer kinds used the opposite way: tiny GEMMs, sixteen
    // sub-batch iterations a step, a checkpoint write every step, a
    // loader with no slack.
    TrainSpec {
        name: "train_overhead_incep",
        build: || toy::tiny_inception(16, 16),
        image: 16,
        batch: 16,
        buffer_bytes: 8 * 1024,
        train_samples: 512,
        val_samples: 64,
        epochs: 8,
        prefetch: Some(1),
        ckpt_every: Some(1),
        lr: 0.002,
        trace_steps: 100,
    },
    // Real 224x224 geometry: boundaries of megabytes per sample and a
    // stash of tens, far beyond the caches. No loader, no checkpoint.
    // Rounds are kept short (eight steps of half a second) so that one of
    // them is likely to fall in a quiet stretch of the host.
    TrainSpec {
        name: "train_dram_resnet",
        build: || resnet_custom("ResNet14", [1, 1, 1, 1], 16, 2),
        image: 224,
        batch: 2,
        buffer_bytes: 4 << 20,
        train_samples: 8,
        val_samples: 2,
        epochs: 2,
        prefetch: None,
        ckpt_every: None,
        lr: 0.0005,
        trace_steps: 4,
    },
];

impl TrainSpec {
    fn steps_per_epoch(&self) -> usize {
        self.train_samples.div_ceil(self.batch)
    }

    fn config(&self, seed: u64, epochs: usize, ckpt_dir: Option<&Path>) -> TrainConfig {
        TrainConfig {
            epochs,
            batch: self.batch,
            base_lr: self.lr,
            lr_milestones: Vec::new(),
            momentum: MOMENTUM,
            weight_decay: WEIGHT_DECAY,
            seed,
            checkpoint: self
                .ckpt_every
                .zip(ckpt_dir)
                .map(|(every, dir)| CheckpointConfig {
                    dir: dir.to_path_buf(),
                    every_steps: every,
                    keep: CKPT_KEEP,
                    resume: false,
                }),
            stashing: Some(true),
            prefetch: self.prefetch,
            ..Default::default()
        }
    }

    /// Training data of `n` samples: a streamed file under `dir`, or memory.
    fn source(&self, n: usize, seed: u64, dir: &Path, file: &str) -> Result<DataSource, String> {
        Ok(match self.prefetch {
            Some(_) => {
                let path = dir.join(file);
                generate_to(&path, n, self.image, NOISE, seed).map_err(|e| e.to_string())?;
                DataSource::Stream(path)
            }
            None => DataSource::Memory(generate(n, self.image, NOISE, seed)),
        })
    }
}

/// Everything a timed section needs, built before the clock starts.
struct Setup {
    net: Network,
    schedule: Schedule,
    source: DataSource,
    val: Dataset,
    ckpt_dir: PathBuf,
}

/// One whole set-up: IR, schedule, generated data, and a two-step
/// training call that fills the arena and touches the data once.
fn set_up(spec: &TrainSpec, seed: u64, dir: &Path) -> Result<Setup, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let net = (spec.build)();
    let (_, schedule) = layers::plan(&net, spec.batch, spec.buffer_bytes);
    let source = spec.source(spec.train_samples, seed, dir, "train.mbsds")?;
    let val = generate(spec.val_samples, spec.image, NOISE, seed.wrapping_add(1));
    let warm = spec.source(2 * spec.batch, seed.wrapping_add(2), dir, "warm.mbsds")?;
    let warm_ckpt = dir.join("warm-ckpt");
    train_grouped_source_with_stats(
        &net,
        &schedule,
        &warm,
        &val,
        &spec.config(seed, 1, Some(&warm_ckpt)),
    )
    .map_err(|e| format!("warm-up training failed: {e}"))?;
    Ok(Setup {
        net,
        schedule,
        source,
        val,
        ckpt_dir: dir.join("ckpt"),
    })
}

/// Sets up several times (a fresh directory each) and returns the last
/// set-up with the median set-up time in seconds.
fn set_up_repeatedly(spec: &TrainSpec, run: &Run) -> Result<(Setup, f64), String> {
    let mut seconds = Vec::new();
    loop {
        let dir = run.work.join(format!("setup-{}", seconds.len()));
        let start = Instant::now();
        let setup = set_up(spec, run.seed, &dir)?;
        seconds.push(start.elapsed().as_secs_f64());
        if !run.sets_up_again(seconds.len(), seconds.iter().sum()) {
            return Ok((setup, median(&seconds)));
        }
    }
}

/// One timed call of the library's training entry point.
struct Round {
    wall_s: f64,
    curve: Vec<EpochStats>,
    loader: Option<LoaderStats>,
}

fn timed_round(spec: &TrainSpec, s: &Setup, seed: u64) -> Result<Round, String> {
    // A fresh directory, so every round writes the same files.
    let _ = std::fs::remove_dir_all(&s.ckpt_dir);
    let cfg = spec.config(seed, spec.epochs, Some(&s.ckpt_dir));
    let start = Instant::now();
    let (curve, loader) =
        train_grouped_source_with_stats(&s.net, &s.schedule, &s.source, &s.val, &cfg)
            .map_err(|e| e.to_string())?;
    Ok(Round {
        wall_s: start.elapsed().as_secs_f64(),
        curve,
        loader,
    })
}

fn same_curve(a: &[EpochStats], b: &[EpochStats]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.train_loss.to_bits() == y.train_loss.to_bits()
                && x.val_error_pct.to_bits() == y.val_error_pct.to_bits()
        })
}

/// `--trace 0`: set-up, timed rounds, correctness checks.
pub fn run_untraced(spec: &TrainSpec, run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup, setup_s) = set_up_repeatedly(spec, run)?;
    out.metrics.set("setup_s", setup_s);

    let steps_per_round = (spec.steps_per_epoch() * spec.epochs) as u64;
    let mut rounds: Vec<Round> = Vec::new();
    let probe = HostProbe::around(|| {
        let start = Instant::now();
        loop {
            out.attempted += steps_per_round;
            match timed_round(spec, &setup, run.seed) {
                Ok(round) => rounds.push(round),
                Err(e) => {
                    out.failed += steps_per_round;
                    out.notes.push(format!("round failed: {e}"));
                    return;
                }
            }
            // Stop at the round boundary nearest the asked-for time.
            let last = rounds.last().map_or(0.0, |r| r.wall_s);
            if start.elapsed().as_secs_f64() + 0.5 * last >= run.seconds {
                return;
            }
        }
    });
    out.host = Some(probe);
    let Some(first) = rounds.first() else {
        return Err("no training round completed".into());
    };

    // Whatever else runs on this host's cores slows a round by up to half,
    // for seconds to minutes, and nothing ever speeds one up: the fastest
    // round is the steadiest reading of what the code can do.
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let wall: f64 = walls.iter().sum();
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let samples_per_round = (spec.train_samples * spec.epochs) as f64;
    out.metrics
        .set("samples_per_s", samples_per_round / fastest);
    out.metrics
        .set("op_ms_typical", fastest * 1e3 / steps_per_round as f64);
    out.notes.push(format!(
        "{} rounds of {} epochs ({} steps each), {:.2} s timed; round walls {:.3?} s",
        rounds.len(),
        spec.epochs,
        steps_per_round,
        wall,
        walls
    ));
    if let Some(l) = first.loader {
        out.notes.push(format!(
            "loader per round: {} stalls, {} chunk loads, {} B read",
            l.stalls, l.chunk_loads, l.bytes_read
        ));
    }

    let (head, tail) = (first.curve.first(), first.curve.last());
    let (Some(head), Some(tail)) = (head, tail) else {
        return Err("training returned an empty curve".into());
    };
    out.check(
        LOSS_CHECK,
        first.curve.iter().all(|e| e.train_loss.is_finite()),
        format!(
            "{:?}",
            first.curve.iter().map(|e| e.train_loss).collect::<Vec<_>>()
        ),
    );
    out.check(
        "last epoch's loss is below the first's",
        tail.train_loss < head.train_loss,
        format!("{} -> {}", head.train_loss, tail.train_loss),
    );
    out.check(
        "every round returns the same curve bit for bit",
        rounds.iter().all(|r| same_curve(&r.curve, &first.curve)),
        format!("{} rounds", rounds.len()),
    );
    check_checkpoint(spec, &setup, &mut out);
    check_grouped_against_full_batch(spec, &setup, run.seed, &mut out);

    let completed = (out.attempted - out.failed) as f64;
    out.metrics
        .set("good_share", completed / out.attempted as f64);
    out.metrics.set("peak_rss_mib", crate::host::peak_rss_mib());
    Ok(out)
}

/// The newest checkpoint the last round wrote must load through
/// `load_latest` under the schedule's fingerprint, at the end of training.
fn check_checkpoint(spec: &TrainSpec, s: &Setup, out: &mut Outcome) {
    if spec.ckpt_every.is_none() {
        return;
    }
    let fingerprint = s.schedule.fingerprint(&s.net);
    let (ok, detail) = match checkpoint::load_latest(&s.ckpt_dir, fingerprint) {
        Ok((Some((seq, ckpt)), report)) => (
            ckpt.epoch == spec.epochs && ckpt.step_in_epoch == 0 && report.is_clean(),
            format!(
                "seq {seq}, epoch {}, step {}",
                ckpt.epoch, ckpt.step_in_epoch
            ),
        ),
        Ok((None, _)) => (false, "no checkpoint found".into()),
        Err(e) => (false, e.to_string()),
    };
    out.check(
        "newest checkpoint loads under the schedule fingerprint",
        ok,
        detail,
    );
}

/// Serialising must not change what is computed: the grouped schedule's
/// logits against those of one full-batch group, same weights, same batch.
fn check_grouped_against_full_batch(spec: &TrainSpec, s: &Setup, seed: u64, out: &mut Outcome) {
    let x = seeded_tensor(&[spec.batch, 3, spec.image, spec.image], seed);
    let logits = |schedule: &Schedule| -> Result<Vec<f32>, String> {
        let mut model =
            lower(&s.net, &mut StdRng::seed_from_u64(seed)).map_err(|e| e.to_string())?;
        let mut exec = GroupedExecutor::new(schedule, model.len());
        Ok(exec.forward(&mut model, &x, true).data().to_vec())
    };
    let full = full_batch_schedule(&s.net, spec.batch);
    let (ok, detail) = match (logits(&s.schedule), logits(&full)) {
        (Ok(a), Ok(b)) => {
            let diff = a
                .iter()
                .zip(&b)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0f32, f32::max);
            (
                a.len() == b.len() && diff <= 5e-4,
                format!("max |diff| {diff:e}"),
            )
        }
        (Err(e), _) | (_, Err(e)) => (false, e),
    };
    out.check(
        "grouped logits match one full-batch group within 5e-4",
        ok,
        detail,
    );
}

/// What one pass of the benchmark's own step loop saw.
struct LoopStats {
    losses: Vec<f32>,
    step_ms: Vec<f64>,
    wall_s: f64,
    /// Arena `(hits, misses)` over the pass.
    arena: (u64, u64),
    loader: Option<LoaderStats>,
    boundary_bytes: usize,
    stash_bytes: usize,
    last_ckpt: Option<(TrainCheckpoint, PathBuf)>,
    model: LoweredNet,
}

/// Batches for the benchmark's own loop, from either kind of source.
enum Feed<'a> {
    Memory(&'a Dataset),
    Stream(StreamLoader),
}

fn gather(set: &Dataset, idx: &[usize]) -> Batch {
    let mut shape = set.images.shape().to_vec();
    shape[0] = idx.len();
    let row = set.images.len() / set.len().max(1);
    let mut data = Vec::with_capacity(idx.len() * row);
    for &i in idx {
        data.extend_from_slice(&set.images.data()[i * row..(i + 1) * row]);
    }
    Batch {
        images: Tensor::from_vec(&shape, data),
        labels: idx.iter().map(|&i| set.labels[i]).collect(),
    }
}

/// The training step written out over public calls, one span per call.
/// Stops after `max_steps` steps or `budget`, whichever comes first.
fn step_loop(
    spec: &TrainSpec,
    s: &Setup,
    seed: u64,
    tracer: &mut Tracer,
    max_steps: usize,
    budget: Duration,
) -> Result<LoopStats, String> {
    let _ = std::fs::remove_dir_all(&s.ckpt_dir);
    let fingerprint = s.schedule.fingerprint(&s.net);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = lower(&s.net, &mut rng).map_err(|e| e.to_string())?;
    let mut exec = GroupedExecutor::new(&s.schedule, model.len());
    let mut opt = Sgd::new(spec.lr, MOMENTUM, WEIGHT_DECAY);
    let mut feed = match &s.source {
        DataSource::Memory(set) => Feed::Memory(set),
        DataSource::Stream(path) => {
            let disk = DiskDataset::open(path).map_err(|e| e.to_string())?;
            let depth = spec.prefetch.unwrap_or(1);
            Feed::Stream(StreamLoader::new(&disk, depth).map_err(|e| e.to_string())?)
        }
    };
    let mut order: Vec<usize> = (0..spec.train_samples).collect();
    let (mut losses, mut step_ms) = (Vec::new(), Vec::new());
    let (mut boundary_bytes, mut stash_bytes) = (0usize, 0usize);
    let mut last_ckpt = None;
    // One step nothing records comes first: a freshly lowered model and
    // a new executor allocate every buffer in their first step.
    let traced = tracer.set_enabled(false);
    let mut warm = true;
    let mut arena_before = arena::stats();
    let mut start = Instant::now();
    let mut step = 0u64;
    'epochs: for epoch in 0.. {
        let epoch_rng = rng.state();
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i;
        }
        order.shuffle(&mut rng);
        if let Feed::Stream(loader) = &mut feed {
            loader.begin_epoch(&order, spec.batch, 0);
        }
        let mut loss_sum = 0.0f32;
        for (in_epoch, idx) in order.chunks(spec.batch).enumerate() {
            if !warm && (step as usize >= max_steps || start.elapsed() >= budget) {
                break 'epochs;
            }
            let step_start = Instant::now();
            tracer.begin("step", step);
            let batch = match &mut feed {
                Feed::Memory(set) => tracer.span("bench.gather", step, || gather(set, idx)),
                Feed::Stream(loader) => tracer
                    .span("train.loader.next_batch", step, || loader.next_batch())
                    .map_err(|e| e.to_string())?,
            };
            model.zero_grad();
            tracer.begin("train.grouped.forward", step);
            let logits = exec.forward(&mut model, &batch.images, true);
            tracer.end();
            tracer.begin("tensor.loss", step);
            let probs = softmax(logits);
            let loss = cross_entropy(&probs, &batch.labels);
            let dlogits = softmax_xent_backward(&probs, &batch.labels, batch.labels.len());
            drop(probs);
            tracer.end();
            boundary_bytes = boundary_bytes.max(exec.boundary_bytes());
            stash_bytes = stash_bytes.max(exec.stash_tensor_bytes());
            tracer.begin("train.grouped.backward", step);
            exec.backward_from_logits(&mut model, &batch.images, dlogits);
            tracer.end();
            tracer.span("train.optim.step", step, || opt.step(&mut model));
            loss_sum += loss;
            if let Feed::Stream(loader) = &mut feed {
                tracer.span("train.loader.recycle", step, || loader.recycle(batch));
            }

            if warm {
                warm = false;
                tracer.set_enabled(traced);
                arena_before = arena::stats();
                start = Instant::now();
                continue;
            }
            losses.push(loss);

            if spec
                .ckpt_every
                .is_some_and(|every| (step + 1).is_multiple_of(every as u64))
            {
                tracer.begin("train.checkpoint.save", step);
                let mut dict = StateDict::default();
                model.export_state(&mut dict);
                let mut velocities = StateDict::default();
                opt.export_state(&mut velocities);
                let ckpt = TrainCheckpoint {
                    fingerprint,
                    net: s.net.name().to_string(),
                    epoch,
                    step_in_epoch: in_epoch + 1,
                    loss_sum,
                    steps: in_epoch + 1,
                    rng: epoch_rng.to_vec(),
                    model: dict.into_entries(),
                    velocities: velocities.into_entries(),
                    curve: Vec::new(),
                };
                let path = checkpoint::save(&s.ckpt_dir, step as usize, &ckpt, CKPT_KEEP)
                    .map_err(|e| e.to_string())?;
                tracer.end();
                last_ckpt = Some((ckpt, path));
            }
            tracer.end();
            step_ms.push(step_start.elapsed().as_secs_f64() * 1e3);
            step += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let arena_after = arena::stats();
    Ok(LoopStats {
        losses,
        step_ms,
        wall_s,
        arena: (
            arena_after.0 - arena_before.0,
            arena_after.1 - arena_before.1,
        ),
        loader: match feed {
            Feed::Stream(loader) => Some(loader.finish()),
            Feed::Memory(_) => None,
        },
        boundary_bytes,
        stash_bytes,
        last_ckpt,
        model,
    })
}

/// One lowered node timed alone at its group's sub-batch, beside what
/// the traffic model says the same node moves.
struct NodeRow {
    node: usize,
    name: String,
    group: usize,
    sub_batch: usize,
    iterations: usize,
    fwd_ms: f64,
    bwd_ms: f64,
    macs_per_sample: usize,
    modeled_dram_bytes: u64,
}

impl NodeRow {
    /// Forward plus backward of the whole mini-batch through this node.
    fn ms_per_step(&self) -> f64 {
        self.iterations as f64 * (self.fwd_ms + self.bwd_ms)
    }

    /// FLOPs of one forward and backward at the sub-batch: the backward
    /// pass counts as two forwards (data and weight gradients).
    fn flop(&self) -> f64 {
        6.0 * (self.macs_per_sample * self.sub_batch) as f64
    }

    fn to_json(&self) -> Json {
        let ns = (self.fwd_ms + self.bwd_ms) * 1e6;
        Json::Obj(vec![
            ("node".into(), Json::Int(self.node as u64)),
            ("name".into(), Json::str(&self.name)),
            ("group".into(), Json::Int(self.group as u64)),
            ("sub_batch".into(), Json::Int(self.sub_batch as u64)),
            ("iterations".into(), Json::Int(self.iterations as u64)),
            ("fwd_ns".into(), Json::Int((self.fwd_ms * 1e6) as u64)),
            ("bwd_ns".into(), Json::Int((self.bwd_ms * 1e6) as u64)),
            ("gflops".into(), Json::Num(self.flop() / ns.max(1.0))),
            (
                "modeled_dram_bytes".into(),
                Json::Int(self.modeled_dram_bytes),
            ),
            (
                "modeled_bytes_per_flop".into(),
                Json::Num(if self.flop() > 0.0 {
                    self.modeled_dram_bytes as f64 / (self.flop() * self.iterations as f64)
                } else {
                    0.0
                }),
            ),
        ])
    }
}

/// `rows` batch rows of `x`, repeated from the top as often as needed.
fn with_rows(x: &Tensor, rows: usize) -> Tensor {
    let mut shape = x.shape().to_vec();
    let row = x.len() / shape[0];
    shape[0] = rows;
    let data = x.data().iter().copied().cycle().take(rows * row).collect();
    Tensor::from_vec(&shape, data)
}

/// Times every node of `model` in isolation: `forward_range(i..i+1)` and
/// `backward_range(i..i+1)` on a chunk of its group's sub-batch, fed by
/// the previous node's output so every shape is the real one.
fn node_pass(spec: &TrainSpec, s: &Setup, model: &mut LoweredNet, seed: u64) -> Vec<NodeRow> {
    let report = analyze(&s.net, &s.schedule, spec.buffer_bytes);
    let mut cur = seeded_tensor(&[1, 3, spec.image, spec.image], seed);
    let mut rows = Vec::new();
    for (g, group) in s.schedule.groups().iter().enumerate() {
        for i in group.start..group.end {
            if cur.shape()[0] != group.sub_batch {
                cur = with_rows(&cur, group.sub_batch);
            }
            let mut out = model.forward_range(i..i + 1, cur.clone(), true);
            let dy = seeded_tensor(out.shape(), seed.wrapping_add(i as u64));
            model.backward_range(i..i + 1, &dy);
            let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
            let start = Instant::now();
            while fwd.len() < 3 || start.elapsed() < Duration::from_millis(30) {
                let x = cur.clone();
                let (y, ms) = time_ms(|| model.forward_range(i..i + 1, x, true));
                fwd.push(ms);
                bwd.push(time_ms(|| model.backward_range(i..i + 1, &dy)).1);
                out = y;
            }
            rows.push(NodeRow {
                node: i,
                name: s.net.nodes()[i].name().to_string(),
                group: g,
                sub_batch: group.sub_batch,
                iterations: spec.batch.div_ceil(group.sub_batch),
                fwd_ms: median(&fwd),
                bwd_ms: median(&bwd),
                macs_per_sample: s.net.nodes()[i].forward_macs(),
                modeled_dram_bytes: report
                    .layers
                    .iter()
                    .filter(|l| l.node == i)
                    .map(|l| l.dram_total())
                    .sum(),
            });
            cur = out;
        }
    }
    model.zero_grad();
    rows
}

/// `train.loader.drain_mib_per_s`: one epoch of `next_batch`/`recycle`
/// with no compute between them — the most the loader can deliver.
fn loader_drain_mib_per_s(spec: &TrainSpec, path: &Path) -> Result<f64, String> {
    let disk = DiskDataset::open(path).map_err(|e| e.to_string())?;
    let mut loader =
        StreamLoader::new(&disk, spec.prefetch.unwrap_or(1)).map_err(|e| e.to_string())?;
    let order: Vec<usize> = (0..spec.train_samples).collect();
    let start = Instant::now();
    loader.begin_epoch(&order, spec.batch, 0);
    let mut bytes = 0usize;
    for _ in 0..spec.steps_per_epoch() {
        let batch = loader.next_batch().map_err(|e| e.to_string())?;
        bytes += batch.images.len() * 4;
        loader.recycle(batch);
    }
    Ok(bytes as f64 / (1 << 20) as f64 / start.elapsed().as_secs_f64())
}

/// `--trace 1`: the same step, driven by the benchmark, twice — spans off,
/// then on — followed by the per-node pass and the isolated probes.
pub fn run_traced(spec: &TrainSpec, run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let m = &mut out.metrics;
    layers::model_side(spec.build, spec.batch, spec.buffer_bytes, m);
    layers::gemm_reference(m);
    let setup = set_up(spec, run.seed, &run.work.join("setup-0"))?;
    layers::conv_top(&setup.net, &setup.schedule, m);
    m.set(
        "train.lower_ms",
        median_ms(3, Duration::from_millis(20), || {
            lower(&setup.net, &mut StdRng::seed_from_u64(run.seed)).expect("set-up lowered it");
        }),
    );
    m.set("train.params", setup.net.param_elems() as f64);

    // Plain, traced, traced, plain: whatever drifts over the run (clocks,
    // page cache) falls on both kinds alike.
    const TRACED: [bool; 4] = [false, true, true, false];
    let budget = Duration::from_secs_f64(run.seconds * 0.15);
    let mut tracer = Tracer::new(true);
    let mut passes: Result<Vec<LoopStats>, String> = Ok(Vec::new());
    let probe = HostProbe::around(|| {
        passes = TRACED
            .iter()
            .try_fold(Vec::new(), |mut done: Vec<LoopStats>, &traced| {
                // Every later pass takes exactly as many steps as the first.
                let (steps, time) = match done.first() {
                    Some(first) => (first.losses.len(), budget * 8),
                    None => (spec.trace_steps, budget),
                };
                let mut off = Tracer::new(false);
                let t = if traced { &mut tracer } else { &mut off };
                done.push(step_loop(spec, &setup, run.seed, t, steps, time)?);
                Ok(done)
            });
    });
    out.host = Some(probe);
    let mut passes = passes?;
    let first_losses = passes[0].losses.clone();
    if first_losses.is_empty() {
        return Err("the step loop took no step".into());
    }
    out.attempted = passes.iter().map(|p| p.losses.len() as u64).sum();
    out.failed = passes
        .iter()
        .flat_map(|p| &p.losses)
        .filter(|l| !l.is_finite())
        .count() as u64;
    out.check(
        "per-step losses of all four passes are bit-identical",
        passes.iter().all(|p| {
            p.losses.len() == first_losses.len()
                && p.losses
                    .iter()
                    .zip(&first_losses)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }),
        format!("{} steps a pass", first_losses.len()),
    );
    let last = &passes[3];
    let step_ms_of = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .zip(TRACED)
            .filter(|(_, t)| *t == traced)
            .flat_map(|(p, _)| p.step_ms.iter().copied())
            .collect()
    };
    let (plain_ms, traced_ms) = (step_ms_of(false), step_ms_of(true));
    let traced_passes = &passes[1..3];
    let steps = traced_ms.len();
    let traced_wall_s: f64 = traced_passes.iter().map(|p| p.wall_s).sum();
    let sum = |f: fn(&LoopStats) -> u64| traced_passes.iter().map(f).sum::<u64>() as f64;

    let m = &mut out.metrics;
    let per_step = |name: &str| tracer.total_ms(name) / steps as f64;
    let fwd = per_step("train.grouped.forward");
    let bwd = per_step("train.grouped.backward");
    let macs = (setup.net.forward_macs() * spec.batch) as f64;
    let (boundary_bytes, stash_bytes) = (last.boundary_bytes, last.stash_bytes);
    m.set("train.steps_traced", steps as f64);
    m.set("train.grouped.fwd_ms_per_step", fwd);
    m.set("train.grouped.bwd_ms_per_step", bwd);
    m.set("train.grouped.eff_gflops", 6.0 * macs / ((fwd + bwd) * 1e6));
    m.set("tensor.loss_ms_per_step", per_step("tensor.loss"));
    m.set("train.optim.step_ms", per_step("train.optim.step"));
    m.set(
        "tensor.arena_hits_per_step",
        sum(|p| p.arena.0) / steps as f64,
    );
    m.set(
        "tensor.arena_misses_per_step",
        sum(|p| p.arena.1) / steps as f64,
    );
    m.set("train.grouped.boundary_bytes", boundary_bytes as f64);
    m.set("train.grouped.stash_bytes", stash_bytes as f64);
    let modeled_stash = setup.schedule.stash_bytes(&setup.net);
    if modeled_stash > 0 {
        m.set(
            "train.grouped.stash_vs_model_ratio",
            stash_bytes as f64 / modeled_stash as f64,
        );
    }
    let step_sorted = sorted(&tracer.durations_ms("step"));
    m.set("train.step_ms_p50", percentile(&step_sorted, 50.0));
    m.set("train.step_ms_p95", percentile(&step_sorted, 95.0));
    m.set("train.step_self_ms", mean(&tracer.self_ms("step")));
    let plain_mean = mean(&plain_ms);
    m.set(
        "trace.overhead_share",
        (mean(&traced_ms) - plain_mean) / plain_mean,
    );

    if last.loader.is_some() {
        m.set(
            "train.loader.wait_ms_per_step",
            per_step("train.loader.next_batch"),
        );
        m.set(
            "train.loader.stalls",
            sum(|p| p.loader.map_or(0, |l| l.stalls)),
        );
        m.set(
            "train.loader.bytes_read",
            sum(|p| p.loader.map_or(0, |l| l.bytes_read)),
        );
        m.set(
            "train.loader.chunk_loads",
            sum(|p| p.loader.map_or(0, |l| l.chunk_loads)),
        );
    }
    if let DataSource::Stream(path) = &setup.source {
        m.set(
            "train.loader.drain_mib_per_s",
            loader_drain_mib_per_s(spec, path)?,
        );
    }
    // The directory holds what the last pass wrote.
    if let Some((ckpt, path)) = &last.last_ckpt {
        m.set(
            "train.checkpoint.save_ms_p50",
            median(&tracer.durations_ms("train.checkpoint.save")),
        );
        m.set(
            "train.checkpoint.stall_share",
            tracer.total_ms("train.checkpoint.save") / (traced_wall_s * 1e3),
        );
        m.set(
            "train.checkpoint.encode_ms_p50",
            median_ms(3, Duration::from_millis(50), || {
                std::hint::black_box(checkpoint::encode(ckpt));
            }),
        );
        m.set(
            "train.checkpoint.file_bytes",
            std::fs::metadata(path).map_or(0.0, |f| f.len() as f64),
        );
        let (loaded, load_ms) =
            time_ms(|| checkpoint::load_latest(&setup.ckpt_dir, ckpt.fingerprint));
        m.set("train.checkpoint.load_ms", load_ms);
        let same = matches!(&loaded, Ok((Some((_, l)), _)) if l == ckpt);
        out.check(
            "newest checkpoint loads under the schedule fingerprint",
            same,
            path.display().to_string(),
        );
    }

    let mut model = passes.pop().expect("four passes").model;
    let nodes = node_pass(spec, &setup, &mut model, run.seed);
    let node_sum: f64 = nodes.iter().map(NodeRow::ms_per_step).sum();
    let m = &mut out.metrics;
    m.set("train.grouped.node_sum_ms_per_step", node_sum);
    m.set("train.grouped.overhead_share", 1.0 - node_sum / (fwd + bwd));
    m.set(
        "train.grouped.iterations_per_step",
        setup
            .schedule
            .groups()
            .iter()
            .map(|g| spec.batch.div_ceil(g.sub_batch))
            .sum::<usize>() as f64,
    );

    // One round of the library's own loop, to see what it spends outside
    // its steps: evaluation, probes, lowering, shuffling.
    let round = timed_round(spec, &setup, run.seed)?;
    let explained = (spec.steps_per_epoch() * spec.epochs) as f64 * plain_mean / 1e3;
    m.set("train.epoch_residual_share", 1.0 - explained / round.wall_s);
    if let Some(last) = round.curve.last() {
        m.set("train.final_loss", f64::from(last.train_loss));
    }

    out.trace.push(("spans".into(), tracer.to_json()));
    out.trace.push((
        "nodes".into(),
        Json::Arr(nodes.iter().map(NodeRow::to_json).collect()),
    ));
    Ok(out)
}
