//! Generate → train (streamed) → kill → resume → serve: the full
//! lifecycle on a tiny net, off **one on-disk dataset**.
//!
//! Generates a synthetic-ImageNet `*.mbsds` file straight to disk,
//! trains `TinyResNet1` over it through the background-prefetch
//! [`StreamLoader`](mbs::train::StreamLoader) with crash-safe
//! checkpointing, kills the run mid-epoch (deterministically, via the
//! test fault plan), resumes it from the checkpoint directory — the
//! resumed curve is bitwise the one the unkilled run would have produced
//! — then loads the newest checkpoint into a frozen
//! [`ModelHandle`](mbs::serve::ModelHandle) (state imported, batch norms
//! folded), starts the dynamic-batching server sized by the hardware
//! cache budget, and fields a burst of single-sample requests.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```

use std::time::Instant;

use mbs::cnn::networks::toy;
use mbs::core::{ExecConfig, HardwareConfig, MbsScheduler};
use mbs::serve::{ModelHandle, ServeConfig, Server};
use mbs::train::data::generate;
use mbs::train::loader::generate_to_chunked;
use mbs::train::module::slice_batch;
use mbs::train::training::{train_grouped_source, DataSource, TrainConfig, TrainError};
use mbs::train::{CheckpointConfig, FaultPlan};

fn main() {
    let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let net = toy::tiny_resnet(1, 8);
    let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
        .with_batch(8)
        .schedule();
    let dir = std::env::temp_dir().join(format!("mbs-serve-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt_dir = dir.join("ckpts");

    // 1. Generate the training set straight to disk: 32 samples of
    //    32x32 in 8-sample checksummed chunks. The file is bitwise what
    //    `generate(32, 32, 0.3, 61)` would build in memory — the
    //    training loop below never materializes more than a few batches.
    let data_path = dir.join("train.mbsds");
    let disk = generate_to_chunked(&data_path, 32, 32, 0.3, 61, 8).expect("generate dataset");
    println!(
        "generated {}: {} samples {:?}, {} chunks, {} B",
        data_path.display(),
        disk.len(),
        disk.shape(),
        disk.num_chunks(),
        std::fs::metadata(&data_path).map(|m| m.len()).unwrap_or(0)
    );
    let source = DataSource::Stream(data_path);
    let val_set = generate(8, 32, 0.3, 62);

    // 2. Train over the streamed source with per-step checkpoints — and
    //    kill the run after its first mid-epoch save (the FaultPlan is
    //    the test harness's deterministic stand-in for `kill -9`).
    let mut cfg = TrainConfig {
        epochs: 1,
        batch: 8,
        checkpoint: Some(CheckpointConfig {
            dir: ckpt_dir.clone(),
            every_steps: 1,
            keep: 2,
            resume: true,
        }),
        fault_plan: Some(FaultPlan::kill_after(1)),
        ..TrainConfig::default()
    };
    match train_grouped_source(&net, &schedule, &source, &val_set, &cfg) {
        Err(TrainError::Killed { saves }) => {
            println!("killed mid-epoch after {saves} checkpoint save(s), as planned")
        }
        other => panic!("expected the planned kill, got {other:?}"),
    }

    // 3. Resume from the checkpoint directory. The checkpoint carries the
    //    epoch-start RNG state, so the resumed run replays the same
    //    shuffle and finishes with bitwise the curve and parameters the
    //    uninterrupted run would have produced — streamed or not.
    cfg.fault_plan = None;
    let curve = train_grouped_source(&net, &schedule, &source, &val_set, &cfg).expect("resume");
    let last = curve.last().expect("one epoch");
    println!(
        "resumed + finished {}: loss {:.4}, val error {:.1}%",
        net.name(),
        last.train_loss,
        last.val_error_pct
    );

    // 4. Freeze the newest checkpoint into a serving handle. The same
    //    schedule fingerprint that guards resume guards serving.
    let model = ModelHandle::load_latest(&net, &schedule, &ckpt_dir).expect("load checkpoint");
    println!(
        "serving {}: input {:?}, {} classes, {} B/sample through the widest node",
        model.name(),
        model.input(),
        model.classes(),
        model.per_sample_bytes()
    );

    // 5. Serve: workers per core, batches capped by the cache budget.
    let serve_hw = HardwareConfig::new();
    let config = ServeConfig::for_model(&model, &serve_hw);
    println!(
        "server: {} workers, max batch {} (budget-capped)",
        config.workers, config.max_batch
    );
    let server = Server::start(&model, config);
    let client = server.client();

    // 6. Query: a burst of single-sample requests from the val set.
    let t0 = Instant::now();
    let pending: Vec<_> = (0..val_set.len())
        .map(|i| {
            let sample = slice_batch(&val_set.images, i, i + 1);
            client.submit(&sample).expect("submit")
        })
        .collect();
    let mut correct = 0;
    for (i, p) in pending.into_iter().enumerate() {
        let prediction = p.wait().expect("response");
        if prediction.class == val_set.labels[i] {
            correct += 1;
        }
    }
    let elapsed = t0.elapsed();
    let stats = server.shutdown();
    println!(
        "answered {} requests in {:.1} ms ({} batches); {}/{} match the labels",
        stats.requests,
        elapsed.as_secs_f64() * 1e3,
        stats.batches,
        correct,
        val_set.len()
    );
    for (size, &count) in stats.histogram.iter().enumerate() {
        if count > 0 {
            println!("  batch size {size}: {count}x");
        }
    }
    // Where the server spent that time, per answered request. Batches
    // form only from what queues up behind a busy (or still starting)
    // worker; nothing is held to wait for batch-mates.
    let per_request_us = |ns: u64| ns as f64 / 1e3 / stats.requests.max(1) as f64;
    println!(
        "  per request: queue wait {:.1} us, collect {:.1} us, forward {:.1} us, fan-out {:.1} us",
        per_request_us(stats.queue_wait_ns),
        per_request_us(stats.collect_ns),
        per_request_us(stats.forward_ns),
        per_request_us(stats.fan_out_ns)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
