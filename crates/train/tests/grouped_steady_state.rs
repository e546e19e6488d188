//! Pins the grouped executor's memory-planning claim: after a warm-up
//! step, a schedule-driven grouped training step — boundary staging,
//! **cache stashing**, gradient re-slicing and all — runs with **zero
//! arena misses**: every chunk slice, layer output, boundary buffer,
//! gradient stage, and stashed cache tensor is served from the pooled
//! arena or from the executor's persistent staging buffers. Stashing
//! moves cache tensors by ownership (their arena storage travels with
//! them), so the stash path must be exactly as allocation-free as the
//! replay path (`set_stashing(false)`) — the test pins both.
//!
//! The streamed data path must not weaken the claim: a training step fed
//! by the background-prefetch [`StreamLoader`] — batch decode, cross-
//! thread buffer handoff and all — must also run with zero arena misses
//! after warm-up (the loader's fixed buffer ring is why), and the loader
//! must join its thread without leaking buffers even when training
//! errors out mid-epoch. Nor may checkpointing: a step that also
//! snapshots its state into the background [`CheckpointWriter`]'s
//! recycled buffer stays arena-miss free, and a run that dies — by a kill
//! point or by a panicking save — leaves neither the loader's nor the
//! writer's thread behind.
//!
//! Like `steady_state_alloc.rs`, this lives in its own integration-test
//! binary (with a single `#[test]`) because the arena's hit/miss counters
//! are process-global and concurrently running tests would pollute them.
//!
//! [`StreamLoader`]: mbs_train::loader::StreamLoader
//! [`CheckpointWriter`]: mbs_train::checkpoint::CheckpointWriter

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs_cnn::networks::toy;
use mbs_cnn::{Block, FeatureShape, Layer, Network, NetworkBuilder, Node, NormKind};
use mbs_core::{ExecConfig, Group, Schedule};
use mbs_tensor::arena;
use mbs_train::checkpoint::CheckpointWriter;
use mbs_train::data::generate;
use mbs_train::grouped::GroupedExecutor;
use mbs_train::loader::{save_dataset_chunked, DiskDataset, StreamLoader};
use mbs_train::lower::lower;
use mbs_train::training::{train_grouped_source, DataSource, TrainConfig, TrainError};
use mbs_train::{
    container, CheckpointConfig, CheckpointError, Fault, FaultPlan, Module, Sgd, StateDict,
};

/// Names of this process's live threads (Linux; empty elsewhere, which
/// makes the leak checks below vacuous rather than wrong).
fn live_thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// No `mbs-*` thread is alive. A joined thread's task entry can outlive
/// `join()` for a moment, so the check polls for up to two seconds before
/// it fails: a thread that was joined is gone by then, a leaked one is not.
fn assert_no_background_threads(when: &str) {
    let leaked = || -> Vec<String> {
        live_thread_names()
            .into_iter()
            .filter(|n| n.starts_with("mbs-"))
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut left = leaked();
    while !left.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        left = leaked();
    }
    assert!(left.is_empty(), "{when}: leaked threads {left:?}");
}

/// A group norm of `shape` named `name`.
fn gn(name: String, shape: FeatureShape) -> Layer {
    Layer::norm(name, shape, NormKind::Group { groups: 4 })
}

/// A bottleneck block: 1×1 → 3×3 at `stride` → 1×1, each normed, beside
/// a 1×1 projection shortcut at `stride`.
fn bottleneck(name: &str, input: FeatureShape, mid: usize, out: usize, stride: usize) -> Block {
    let conv = |part: &str, input, out, kernel, stride, pad| {
        Layer::conv(format!("{name}.{part}"), input, out, kernel, stride, pad)
            .expect("the kernel fits")
    };
    let c1 = conv("1", input, mid, 1, 1, 0);
    let c2 = conv("2", c1.output, mid, 3, stride, 1);
    let c3 = conv("3", c2.output, out, 1, 1, 0);
    let (s1, s2, s3) = (c1.output, c2.output, c3.output);
    let main = vec![
        c1,
        gn(format!("{name}.1.norm"), s1),
        Layer::relu(format!("{name}.1.relu"), s1),
        c2,
        gn(format!("{name}.2.norm"), s2),
        Layer::relu(format!("{name}.2.relu"), s2),
        c3,
        gn(format!("{name}.3.norm"), s3),
    ];
    let shortcut = vec![
        conv("sc", input, out, 1, stride, 0),
        gn(format!("{name}.sc.norm"), s3),
    ];
    Block::residual(name, input, main, shortcut).expect("the branches agree")
}

/// A stem and two bottlenecks (the second at stride 2) on 32×32 inputs.
fn pointwise_miniature() -> Network {
    let mut b = NetworkBuilder::new("PointwiseMini", FeatureShape::new(3, 32, 32), 8);
    let stem = Layer::conv("stem", b.shape(), 16, 3, 1, 1).expect("the kernel fits");
    let shape = stem.output;
    b = b
        .push(Node::Single(stem))
        .push(Node::Single(gn("stem.norm".into(), shape)))
        .relu("stem.relu");
    let first = bottleneck("a", b.shape(), 8, 32, 1);
    b = b.block(first);
    let second = bottleneck("b", b.shape(), 16, 64, 2);
    b.block(second)
        .global_avg_pool("gap")
        .fully_connected("fc", 10)
        .build()
}

#[test]
fn steady_state_grouped_training_is_arena_miss_free() {
    let net = toy::runtime_mix(8, 8);
    let nodes = net.nodes().len();
    // Distinct per-group sub-batches so every boundary re-slices, and
    // multi-iteration groups so the stash path genuinely engages.
    let schedule = Schedule::new(
        ExecConfig::Mbs1,
        8,
        vec![
            Group::new(0, 2, 2, 8),
            Group::new(2, nodes - 1, 4, 8),
            Group::new(nodes - 1, nodes, 8, 8),
        ],
        true,
    );
    assert!(schedule.groups().iter().any(|g| g.iterations > 1));
    let d = generate(8, 8, 0.3, 78);
    let mut model = lower(&net, &mut StdRng::seed_from_u64(4)).expect("runtime_mix lowers");
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut exec = GroupedExecutor::new(&schedule, model.len());

    for (label, stashing) in [("stash", true), ("replay", false)] {
        exec.set_stashing(stashing);
        // Warm the pool, the executor's persistent boundary buffers, and
        // (in stash mode) the per-chunk stash slots.
        for _ in 0..2 {
            let _ = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
        }
        arena::reset_stats();
        let _ = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
        let (hits, misses) = arena::stats();
        assert!(
            hits > 0,
            "{label}: the grouped step must route through the arena"
        );
        assert_eq!(
            misses, 0,
            "{label}: steady-state grouped step allocated fresh buffers"
        );
    }

    // ---- Benchmark leg: `train_overhead_incep`'s net and schedule (an
    // 8 KiB buffer: the first six nodes at sub-batch 1, sixteen times a
    // step, then the classifier at 16), whose pooling layers each take a
    // staging scratch per call. Stash and replay both stay miss-free.
    {
        let net = toy::tiny_inception(16, 16);
        let hw = mbs_core::HardwareConfig::cpu().with_global_buffer(8 * 1024);
        let schedule = mbs_core::MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
            .with_batch(16)
            .schedule();
        let groups: Vec<_> = schedule
            .groups()
            .iter()
            .map(|g| (g.start, g.end, g.sub_batch, g.iterations))
            .collect();
        assert_eq!(
            groups,
            [(0, 6, 1, 16), (6, 7, 16, 1)],
            "the benchmark's schedule"
        );
        let d = generate(16, 16, 0.3, 81);
        let mut model = lower(&net, &mut StdRng::seed_from_u64(5)).expect("tiny_inception lowers");
        let mut exec = GroupedExecutor::new(&schedule, model.len());
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        for (label, stashing) in [("inception stash", true), ("inception replay", false)] {
            exec.set_stashing(stashing);
            for _ in 0..2 {
                let _ = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
            }
            arena::reset_stats();
            let _ = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
            let (hits, misses) = arena::stats();
            assert!(
                hits > 0,
                "{label}: the grouped step must route through the arena"
            );
            assert_eq!(
                misses, 0,
                "{label}: steady-state step allocated fresh buffers"
            );
            println!("{label}: {hits} arena hits per step");
        }
    }

    // ---- Pointwise leg: a miniature of `train_dram_resnet`'s bottlenecks
    // (1×1 convs at strides 1 and 2) in two groups at sub-batches 2 and 4,
    // run the way `train_grouped` runs it: in a scope of its own, from an
    // empty pool. Its gradients and momentum are run-long; the momentum is
    // made inside the first step, while that step's activations sit
    // pooled, so a pooled buffer would settle it in an activation's
    // capacity and the pool would take steps to re-balance (the third
    // step missed three times when it did).
    {
        let _run = arena::LocalArena::install();
        let net = pointwise_miniature();
        let nodes = net.nodes().len();
        let schedule = Schedule::new(
            ExecConfig::Mbs1,
            8,
            vec![Group::new(0, 4, 2, 8), Group::new(4, nodes, 4, 8)],
            true,
        );
        let d = generate(8, 32, 0.3, 82);
        let mut model = lower(&net, &mut StdRng::seed_from_u64(6)).expect("the miniature lowers");
        let mut exec = GroupedExecutor::new(&schedule, model.len());
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        for _ in 0..2 {
            let _ = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
        }
        for step in 2..5 {
            arena::reset_stats();
            let _ = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
            let (hits, misses) = arena::stats();
            assert!(hits > 0, "pointwise: the step must route through the arena");
            assert_eq!(misses, 0, "pointwise: step {step} allocated fresh buffers");
        }
    }

    // ---- Streamed leg: the same claim with batches coming off disk. ----
    // 16 samples / batch 8 keeps every batch the same shape, so after the
    // loader's buffer ring fills (prefetch + 2 buffers, all created in
    // the first few fills) the prefetch thread refills buffers in place
    // and performs no arena operation at all — the measured step's only
    // arena traffic is the executor's, which the legs above proved clean.
    let dir = std::env::temp_dir().join(format!("mbs-steady-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("train.mbsds");
    let streamed_set = generate(16, 8, 0.3, 79);
    save_dataset_chunked(&streamed_set, &path, 4).unwrap();
    let disk = DiskDataset::open(&path).unwrap();
    let mut loader = StreamLoader::new(&disk, 2).unwrap();
    let order: Vec<usize> = (0..16).collect();
    exec.set_stashing(true);
    // Every step also checkpoints, the way `train_grouped` does it: model
    // and momentum copied into the writer's recycled buffer, the save
    // itself running behind the next step on the writer's thread.
    let ckpt_cfg = CheckpointConfig::new(dir.join("steady-ckpts"));
    let mut writer = CheckpointWriter::new(&ckpt_cfg, None).unwrap();
    let mut save = |model: &mut mbs_train::LoweredNet, opt: &Sgd| {
        let saved = writer.submit(|buf| {
            let mut dict = StateDict::recycling(std::mem::take(&mut buf.model));
            model.export_state(&mut dict);
            buf.model = dict.into_entries();
            let mut dict = StateDict::recycling(std::mem::take(&mut buf.velocities));
            opt.export_state(&mut dict);
            buf.velocities = dict.into_entries();
        });
        saved.expect("background save");
    };
    // Warm-up: three full epochs (6 batches) — more than enough fills for
    // the ring to reach its fixed size, after which creation is disabled,
    // and more than the two saves that create the writer's buffers.
    for _ in 0..3 {
        loader.begin_epoch(&order, 8, 0);
        for _ in 0..2 {
            let batch = loader.next_batch().unwrap();
            let _ = exec.train_step(&mut model, &batch.images, &batch.labels, &mut opt);
            loader.recycle(batch);
            save(&mut model, &opt);
        }
    }
    arena::reset_stats();
    loader.begin_epoch(&order, 8, 0);
    let batch = loader.next_batch().unwrap();
    let _ = exec.train_step(&mut model, &batch.images, &batch.labels, &mut opt);
    loader.recycle(batch);
    save(&mut model, &opt);
    let (hits, misses) = arena::stats();
    assert!(
        hits > 0,
        "streamed: the grouped step must route through the arena"
    );
    assert_eq!(
        misses, 0,
        "streamed: steady-state step with a prefetch loader allocated fresh buffers"
    );
    // Both background threads are visible to the leak check while alive.
    let alive = live_thread_names();
    if !alive.is_empty() {
        for name in ["mbs-loader", "mbs-ckpt"] {
            assert!(alive.iter().any(|n| n == name), "{name} not in {alive:?}");
        }
    }
    // Drain the epoch so shutdown happens mid-flight with a full queue.
    let stats = loader.finish();
    assert!(
        stats.batches_filled >= 7,
        "prefetch thread should have run ahead"
    );
    writer.finish().expect("every background save landed");
    assert_no_background_threads("after finishing the loader and the writer");

    // ---- Shutdown leg: training errors mid-epoch must still join the
    // loader thread and the checkpoint writer's (run_grouped drops the
    // Feed and the writer, whose Drops close every channel and join; a
    // leak or deadlock would hang this test). The FaultPlan kills the run
    // right after the first mid-epoch checkpoint save, prefetch still
    // full — and then, in a second run, makes a save panic instead.
    let net2 = toy::runtime_mix(8, 8);
    let hw = mbs_core::HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let schedule2 = mbs_core::MbsScheduler::new(&net2, &hw, ExecConfig::Mbs1)
        .with_batch(8)
        .schedule();
    let mut cfg = TrainConfig {
        epochs: 2,
        batch: 8,
        checkpoint: Some(CheckpointConfig {
            dir: dir.join("ckpts"),
            every_steps: 1,
            keep: 2,
            resume: true,
        }),
        fault_plan: Some(FaultPlan::kill_after(1)),
        prefetch: Some(4),
        ..TrainConfig::default()
    };
    let val_set = generate(8, 8, 0.3, 80);
    let killed = train_grouped_source(
        &net2,
        &schedule2,
        &DataSource::Stream(path.clone()),
        &val_set,
        &cfg,
    );
    assert!(
        matches!(killed, Err(TrainError::Killed { saves: 1 })),
        "streamed run should die mid-epoch: {killed:?}"
    );
    assert_no_background_threads("after a killed run");

    cfg.fault_plan = Some(FaultPlan::fault_at(0, Fault::Panic));
    let panicked = train_grouped_source(
        &net2,
        &schedule2,
        &DataSource::Stream(path.clone()),
        &val_set,
        &cfg,
    );
    assert!(
        matches!(
            panicked,
            Err(TrainError::Checkpoint(CheckpointError::Container(
                container::Error::Io(_)
            )))
        ),
        "a panicking save is an error: {panicked:?}"
    );
    assert_no_background_threads("after a panicked save");
    let _ = std::fs::remove_dir_all(&dir);
}
