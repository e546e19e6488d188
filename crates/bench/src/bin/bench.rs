//! Quick-mode bench runner: executes the tensor-ops and training-step
//! Criterion suites plus two GEMM-core sweeps — a per-micro-kernel
//! comparison and an `MBS_THREADS` scaling run — and writes
//! `BENCH_tensor.json`, then sweeps the **serialized training step**
//! (sub-batch size × fused/unfused epilogues, plus steady-state arena
//! stats) into `BENCH_train.json`, and finally drives the dynamic-batching
//! server through an open-loop load sweep (p50/p99 latency per offered
//! rate, dispatched-batch histogram) into `BENCH_serve.json` — so the
//! kernel-level, executor-level, and serving-level perf trajectories are
//! all tracked from PR to PR.
//!
//! ```text
//! cargo run --release -p mbs-bench --bin bench [-- <out_dir>]
//! ```
//!
//! See `docs/ARCHITECTURE.md` ("BENCH_tensor.json schema",
//! "BENCH_train.json schema", and "BENCH_serve.json schema") for the full
//! layout of the reports.

use std::collections::HashMap;
use std::path::PathBuf;

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use mbs_cnn::networks::toy;
use mbs_serve::{ModelHandle, ServeConfig, Server};
use mbs_tensor::arena;
use mbs_tensor::ops::direct::{self, Exec};
use mbs_tensor::ops::kernel;
use mbs_tensor::ops::{gemm_fused_prec, gemm_with_kernel, Conv2dCfg, Epilogue, MatSrc};
use mbs_tensor::prec::Precision;
use mbs_tensor::Tensor;
use mbs_train::data::generate;
use mbs_train::executor::train_step_mbs;
use mbs_train::model::{ConvNet, MiniResNet};
use mbs_train::norm::NormChoice;
use mbs_train::optim::Sgd;
use mbs_train::Module;

/// The report written to `BENCH_tensor.json`.
#[derive(Debug, Clone, Serialize)]
struct Report {
    /// GEMM worker threads the suites ran with (the process default).
    threads: usize,
    /// The micro-kernel every suite measurement used.
    kernel: String,
    /// Raw measurements from all suites and sweeps.
    measurements: Vec<criterion::Measurement>,
    /// `blocked-vs-naive` mean-time ratios (naive / blocked; >1 is a win).
    speedups: Vec<Speedup>,
    /// Single-core GEMM core, one entry per micro-kernel available on this
    /// CPU (hand-written FMA tiles vs the autovectorized scalar tile).
    kernel_comparison: Vec<KernelBench>,
    /// Multi-thread GEMM core at `MBS_THREADS ∈ {1, 2, 4, max}` (deduped),
    /// with bitwise-identity checks against the 1-thread result.
    thread_scaling: Vec<ThreadScale>,
    /// f32 vs bf16 packed operands on the same fused GEMM core (the
    /// `MBS_PREC` knob, swept in-process via the explicit-precision entry
    /// point).
    precision: Vec<PrecisionGemmBench>,
}

#[derive(Debug, Clone, Serialize)]
struct Speedup {
    /// Blocked-kernel bench name.
    fast: String,
    /// Naive-reference bench name.
    baseline: String,
    /// `mean(baseline) / mean(fast)`.
    ratio: f64,
}

/// One micro-kernel's single-core GEMM-core measurement.
#[derive(Debug, Clone, Serialize)]
struct KernelBench {
    /// Kernel identifier (`scalar-8x8`, `avx2-fma-8x8`, …).
    kernel: String,
    /// Register tile shape, `mr x nr`.
    tile: String,
    /// Mean ns for the 256×256×256 GEMM core, 1 thread.
    matmul_256_mean_ns: f64,
    /// `mean(scalar) / mean(this)` — >1 means the hand-written kernel
    /// beats the autovectorized one.
    speedup_vs_scalar: f64,
    /// Whether this is the kernel [`kernel::selected`] picked.
    selected: bool,
}

/// One thread count of the scaling sweep.
#[derive(Debug, Clone, Serialize)]
struct ThreadScale {
    /// Sweep workload (`matmul_256` or `conv_fwd`).
    bench: String,
    /// Worker threads (the value `MBS_THREADS` would be set to).
    threads: usize,
    /// Workers that actually ran: the GEMM clamps to the row-block count
    /// (`m.div_ceil(MC)`), so small workloads cap out — flat scaling
    /// beyond this value is the workload, not the scheduler.
    effective_threads: usize,
    /// Mean ns at this thread count.
    mean_ns: f64,
    /// `mean(1 thread) / mean(this)` — >1 is a multi-core win.
    speedup_vs_1: f64,
    /// Whether the output matched the 1-thread run bit-for-bit (the
    /// shared-B-panel determinism guarantee).
    bitwise_equal_to_1_thread: bool,
}

/// One precision leg of the packed-operand GEMM comparison
/// (`BENCH_tensor.json` `precision` section).
#[derive(Debug, Clone, Serialize)]
struct PrecisionGemmBench {
    /// Precision the A/B panels were packed at (`f32` / `bf16`).
    precision: String,
    /// Best-of-rounds ns for the 256×256×256 fused GEMM core, 1 thread,
    /// on the selected kernel.
    matmul_256_best_ns: f64,
    /// `best(f32) / best(this)` — >1 means the half-width panels win.
    /// The win is packed-panel memory *traffic* (arithmetic still
    /// accumulates in f32), so it needs bandwidth-bound shapes and
    /// hardware; on a cache-resident 256³ toy the per-element encode
    /// cost can put this below 1.
    speedup_vs_f32: f64,
    /// Max |bf16 − f32| over the 256×256 output (0 for the f32 row): the
    /// cost of one round-to-nearest-even per packed operand element.
    max_abs_err_vs_f32: f64,
}

/// The report written to `BENCH_train.json`: the serialized training step
/// at executor level, swept over sub-batch sizes with fused epilogues on
/// and off.
#[derive(Debug, Clone, Serialize)]
struct TrainReport {
    /// GEMM worker threads the steps ran with (the process default).
    threads: usize,
    /// The micro-kernel every measurement used.
    kernel: String,
    /// One row per (model, sub-batch): fused vs unfused step time.
    train_step: Vec<TrainStepBench>,
    /// A/A control for the step sweep: two *identical* fused models
    /// measured by the same interleaved harness. How far this sits from
    /// 1.0 is the measurement noise floor — step-sweep speedups inside
    /// that band are not significant (on the shared 1-CPU dev container
    /// the floor is ~±2%, which swallows the few-percent epilogue win at
    /// toy activation sizes).
    aa_noise_ratio: f64,
    /// Layer-level fused-vs-unfused comparison on shapes whose outputs
    /// outgrow L1/L2 — the regime the epilogue targets. Read against
    /// `aa_noise_ratio`: on the dev container the deltas sit at the noise
    /// floor (the separate passes it eliminates stream from cache at full
    /// speed there); the eliminated passes are real memory traffic on
    /// bandwidth-bound hardware.
    layer_fused: Vec<LayerFusedBench>,
    /// Arena hit/miss counters over one steady-state `train_step_mbs`
    /// call (pool pre-warmed by the benches above); `arena_misses` must be
    /// 0 — the sub-batch loop allocates no fresh f32 storage.
    steady_state: SteadyState,
    /// Grouped (schedule-driven) vs uniform serialized training step on
    /// lowered-IR networks, with the grouped step swept **stash vs
    /// replay**: `grouped_best_ns` is the cache-stashing default,
    /// `replay_best_ns` is the same executor under the `MBS_STASH=0`
    /// strategy (backward re-forwards multi-iteration groups), and the
    /// uniform baseline is `train_step_mbs` at the schedule's *minimum*
    /// sub-batch (what an MBS-FS-style single-group serialization of the
    /// same net would have to use). Stashing must not lose to replay
    /// (`speedup_stash_vs_replay >= ~1.0`): it strictly removes forward
    /// work and the two are bitwise-equivalent otherwise.
    grouped: Vec<GroupedBench>,
    /// The schedules themselves: chosen groups and per-group sub-batches
    /// per model, with the modeled DRAM traffic — the plan the grouped
    /// executor runs for the runtime nets, and the paper-default plans for
    /// the zoo networks.
    schedule: Vec<ScheduleInfo>,
    /// Checkpoint durability costs per model: atomic save and validated
    /// load latency, on-disk size, and the end-to-end grouped-training
    /// overhead of checkpointing every step vs every 10 steps.
    checkpoint: Vec<CheckpointBench>,
    /// The streaming data pipeline: steady-state grouped step time with
    /// batches prefetched off a `*.mbsds` file vs gathered from memory,
    /// swept over prefetch depths, with the loader's stall and disk-
    /// traffic counters. Streamed and in-memory steps are bitwise-
    /// identical in output, so the ratio is pure data-path overhead.
    loader: Vec<LoaderBench>,
    /// f32 vs bf16 *storage* precision on the grouped executor (stash
    /// entries + boundary buffers), per network: measured resident bytes
    /// and step-time delta. GEMM operand precision stays process-wide
    /// (`MBS_PREC`), so the kernel-level f32-vs-bf16 timing lives in
    /// `BENCH_tensor.json`'s `precision` section instead.
    precision: Vec<TrainPrecisionBench>,
}

/// One network's f32-vs-bf16 storage-precision row in `BENCH_train.json`.
#[derive(Debug, Clone, Serialize)]
struct TrainPrecisionBench {
    /// Network name.
    network: String,
    /// Mini-batch size of the measured step.
    batch: usize,
    /// [`mbs_core::Schedule::stash_bytes_at`] at f32: the scheduler's
    /// modeled per-sample stash footprint.
    f32_stash_model_bytes: usize,
    /// Same at bf16 — exactly half the f32 figure (pinned by tests).
    bf16_stash_model_bytes: usize,
    /// Measured resident bytes of the interior boundary-stage buffers
    /// after a training forward, f32 executor.
    f32_boundary_bytes: usize,
    /// Same on the bf16-storage executor — exactly half.
    bf16_boundary_bytes: usize,
    /// Measured resident bytes of tensor-valued stash entries after a
    /// training forward (before backward drains them), f32 executor.
    f32_stash_tensor_bytes: usize,
    /// Same on the bf16-storage executor — exactly half.
    bf16_stash_tensor_bytes: usize,
    /// Best-of-rounds grouped `train_step` ns, f32 storage.
    f32_step_best_ns: f64,
    /// Same with bf16 storage: the encode/decode cost of compressing
    /// stashes and boundaries rides on top of the identical GEMM work.
    bf16_step_best_ns: f64,
    /// `f32 / bf16` step ratio — <1 quantifies the compression overhead
    /// paid for the halved footprint at these (cache-resident) toy sizes.
    speedup_bf16_storage: f64,
}

/// One model's checkpoint cost row in `BENCH_train.json`.
#[derive(Debug, Clone, Serialize)]
struct CheckpointBench {
    /// Network name.
    model: String,
    /// On-disk checkpoint size (header + JSON payload).
    file_bytes: u64,
    /// Best-of-rounds latency of one atomic save (encode, tmp write,
    /// fsync, rename, directory fsync, rotation).
    save_best_ns: f64,
    /// Best-of-rounds latency of one fully validated load (read, header
    /// checks, checksum, JSON parse).
    load_best_ns: f64,
    /// Wall-clock overhead (percent, vs the same run without
    /// checkpointing) of saving after **every** training step.
    overhead_pct_every_1: f64,
    /// Same, saving every 10th step (plus the epoch-boundary saves both
    /// configurations share).
    overhead_pct_every_10: f64,
}

/// One prefetch-depth row of the `loader` section in `BENCH_train.json`.
#[derive(Debug, Clone, Serialize)]
struct LoaderBench {
    /// Network the steps ran on.
    model: String,
    /// Samples in the on-disk dataset.
    samples: usize,
    /// Mini-batch size (also the measured steps per epoch × batch).
    batch: usize,
    /// Prefetch depth of this row (`1` = degenerate synchronous).
    prefetch: usize,
    /// Samples per chunk in the `*.mbsds` file.
    chunk_samples: usize,
    /// On-disk dataset size (header + index + chunks).
    file_bytes: u64,
    /// Best-of-rounds steady-state step with the batch **gathered from
    /// memory** (copy + train_step), the baseline data path.
    memory_step_best_ns: f64,
    /// Same step with the batch handed over by the prefetch thread
    /// (recv + train_step + recycle).
    streamed_step_best_ns: f64,
    /// `streamed / memory` — 1.0 means the prefetch thread fully hides
    /// the disk; the prefetch-1 row shows what synchrony costs.
    ratio_streamed_vs_memory: f64,
    /// Times the measured epochs' `next_batch` found the queue empty and
    /// blocked (prefetch stalls) — 0 means training never waited.
    stalls: u64,
    /// Chunk bytes read off disk across the streamed phase (cache
    /// misses re-read; a full sequential pass is `~file_bytes`).
    bytes_read: u64,
    /// `bytes_read` over the streamed phase's wall-clock — the effective
    /// off-disk bandwidth while training overlapped the reads.
    bytes_per_sec: f64,
    /// Chunk reads the loader thread performed (LRU-cache misses).
    chunk_loads: u64,
}

/// One schedule group, as recorded in `BENCH_train.json`.
#[derive(Debug, Clone, Serialize)]
struct GroupInfo {
    /// First node index (inclusive).
    start: usize,
    /// Last node index (exclusive).
    end: usize,
    /// Samples per sub-batch iteration.
    sub_batch: usize,
    /// Sub-batch iterations over the mini-batch.
    iterations: usize,
}

impl GroupInfo {
    fn from_schedule(s: &mbs_core::Schedule) -> Vec<GroupInfo> {
        s.groups()
            .iter()
            .map(|g| GroupInfo {
                start: g.start,
                end: g.end,
                sub_batch: g.sub_batch,
                iterations: g.iterations,
            })
            .collect()
    }
}

/// One network's chosen schedule under one configuration.
#[derive(Debug, Clone, Serialize)]
struct ScheduleInfo {
    /// Network name.
    network: String,
    /// Execution configuration label (`MBS1`, `MBS2`, …).
    config: String,
    /// Per-core mini-batch size.
    batch: usize,
    /// Global-buffer bytes the schedule was sized against.
    buffer_bytes: usize,
    /// The chosen groups.
    groups: Vec<GroupInfo>,
    /// Modeled DRAM bytes per training step under this schedule.
    dram_bytes: u64,
    /// Bytes of backward caches a cache-stashing executor keeps stashed
    /// across the forward pass (`Schedule::stash_bytes`) — the memory the
    /// `MBS_STASH=0` replay mode trades back for recompute.
    stash_bytes: u64,
    /// Whether every group fits the buffer at ≥ 1 sample.
    fits: bool,
}

/// One grouped-vs-uniform measurement.
#[derive(Debug, Clone, Serialize)]
struct GroupedBench {
    /// Lowered network name.
    network: String,
    /// Mini-batch size of the measured step.
    batch: usize,
    /// The executed schedule's groups.
    groups: Vec<GroupInfo>,
    /// Sub-batch of the uniform baseline (`schedule.min_sub_batch()`).
    uniform_sub_batch: usize,
    /// Best (minimum-over-rounds) ns per grouped `train_step` with cache
    /// stashing (the default backward strategy).
    grouped_best_ns: f64,
    /// Best ns per grouped `train_step` with backward replay
    /// (`MBS_STASH=0` / `set_stashing(false)`).
    replay_best_ns: f64,
    /// Best ns per uniform `train_step_mbs` at the minimum sub-batch.
    uniform_best_ns: f64,
    /// `uniform / grouped(stash)` — >1 means the schedule-driven step wins.
    speedup_grouped: f64,
    /// `replay / stash` — >1 means cache stashing beats backward replay
    /// (expected whenever any group runs more than one iteration).
    speedup_stash_vs_replay: f64,
}

/// One layer-level fused-vs-unfused measurement.
#[derive(Debug, Clone, Serialize)]
struct LayerFusedBench {
    /// Operation + epilogue under test.
    op: String,
    /// Operand shape description.
    shape: String,
    /// Best (minimum-over-rounds) ns per call with the epilogue fused
    /// into the write-back — a min, not a mean: the interleaved harness
    /// keeps each side's best block to discard steal-time outliers.
    fused_best_ns: f64,
    /// Best ns per call as GEMM/conv, then bias pass, then ReLU pass.
    unfused_best_ns: f64,
    /// `unfused / fused` — >1 means fusion wins.
    speedup_fused: f64,
}

/// One (model, sub-batch) row of the executor-level sweep.
#[derive(Debug, Clone, Serialize)]
struct TrainStepBench {
    /// `mini_resnet_gn` (Fig. 6 configuration) or `convnet_fused_stack`
    /// (norm-free conv+bias+ReLU layers — every epilogue fused).
    model: String,
    /// Samples per serialized sub-batch (batch is 16).
    sub_batch: usize,
    /// Best (minimum-over-rounds) ns per `train_step_mbs` with fused
    /// epilogues — a min, not a mean (see `LayerFusedBench::fused_best_ns`).
    fused_best_ns: f64,
    /// Best ns per step with `set_fused(false)` (separate bias/ReLU
    /// passes).
    unfused_best_ns: f64,
    /// `unfused / fused` — >1 means the fused write-back wins.
    speedup_fused: f64,
}

/// Arena counters over one steady-state training step.
#[derive(Debug, Clone, Serialize)]
struct SteadyState {
    /// Pool reuses during the step.
    arena_hits: u64,
    /// Fresh allocations during the step (the planner's target: 0).
    arena_misses: u64,
}

fn filled(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|v| (((v * 7 + salt) % 17) as f32 - 8.0) / 4.0)
        .collect()
}

/// Benches the bare GEMM core (256×256×256, row-major) under every
/// available micro-kernel, single-threaded.
fn kernel_comparison(c: &mut Criterion) -> Vec<KernelBench> {
    const DIM: usize = 256;
    let a = filled(DIM * DIM, 6);
    let b = filled(DIM * DIM, 7);
    let asrc = MatSrc::RowMajor {
        data: &a,
        stride: DIM,
    };
    let bsrc = MatSrc::RowMajor {
        data: &b,
        stride: DIM,
    };
    let kernels = kernel::available();
    for kern in &kernels {
        let mut out = vec![0.0f32; DIM * DIM];
        c.bench_function(&format!("matmul_256_kernel/{}", kern.name), |bch| {
            bch.iter(|| gemm_with_kernel(&asrc, &bsrc, &mut out, DIM, DIM, DIM, 1, kern))
        });
    }
    let means: HashMap<String, f64> = c
        .measurements()
        .iter()
        .map(|m| (m.name.clone(), m.mean_ns))
        .collect();
    let scalar_mean = means
        .get(&format!("matmul_256_kernel/{}", kernel::SCALAR_8X8.name))
        .copied()
        .unwrap_or(f64::NAN);
    kernels
        .iter()
        .map(|kern| {
            let mean = means
                .get(&format!("matmul_256_kernel/{}", kern.name))
                .copied()
                .unwrap_or(f64::NAN);
            KernelBench {
                kernel: kern.name.to_string(),
                tile: format!("{}x{}", kern.mr, kern.nr),
                matmul_256_mean_ns: mean,
                speedup_vs_scalar: scalar_mean / mean,
                selected: std::ptr::eq(*kern, kernel::selected()),
            }
        })
        .collect()
}

/// f32 vs bf16 packed operands on the same fused GEMM core, interleaved
/// so both precisions see the same machine state. Uses
/// [`gemm_fused_prec`]'s explicit precision so the sweep runs in one
/// process regardless of `MBS_PREC`.
fn precision_gemm() -> Vec<PrecisionGemmBench> {
    const DIM: usize = 256;
    const ROUNDS: usize = 6;
    // Thirds are not bf16-representable (unlike `filled`'s quarters), so
    // the error column actually exercises the per-element rounding.
    let third = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|v| (((v * 7 + salt) % 17) as f32 - 8.0) / 3.0)
            .collect()
    };
    let a = third(DIM * DIM, 10);
    let b = third(DIM * DIM, 11);
    let asrc = MatSrc::RowMajor {
        data: &a,
        stride: DIM,
    };
    let bsrc = MatSrc::RowMajor {
        data: &b,
        stride: DIM,
    };
    let kern = kernel::selected();
    let mut out32 = vec![0.0f32; DIM * DIM];
    let mut out16 = vec![0.0f32; DIM * DIM];
    let gemm_at = |out: &mut [f32], prec: Precision| {
        gemm_fused_prec(
            &asrc,
            &bsrc,
            out,
            DIM,
            DIM,
            DIM,
            1,
            kern,
            &Epilogue::None,
            prec,
        );
    };
    gemm_at(&mut out32, Precision::F32);
    gemm_at(&mut out16, Precision::Bf16);
    let max_err = out32
        .iter()
        .zip(&out16)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    let mut scratch = vec![0.0f32; DIM * DIM];
    let best = interleaved_best_n::<2>(ROUNDS, 8, &mut |slot| {
        let prec = if slot == 0 {
            Precision::F32
        } else {
            Precision::Bf16
        };
        gemm_at(criterion::black_box(&mut scratch), prec);
    });
    println!(
        "precision matmul_256: f32 {:.0} ns, bf16 {:.0} ns ({:.2}x), max |Δ| {:.3e}",
        best[0],
        best[1],
        best[0] / best[1],
        max_err
    );
    vec![
        PrecisionGemmBench {
            precision: Precision::F32.name().to_string(),
            matmul_256_best_ns: best[0],
            speedup_vs_f32: 1.0,
            max_abs_err_vs_f32: 0.0,
        },
        PrecisionGemmBench {
            precision: Precision::Bf16.name().to_string(),
            matmul_256_best_ns: best[1],
            speedup_vs_f32: best[0] / best[1],
            max_abs_err_vs_f32: max_err as f64,
        },
    ]
}

/// One workload of the thread-scaling sweep: `run(threads)` computes the
/// named workload's output at a thread count (`effective(threads)` of
/// which it can actually use) on the process-selected kernel.
fn scale_workload(
    c: &mut Criterion,
    bench: &str,
    counts: &[usize],
    effective: impl Fn(usize) -> usize,
    run: impl Fn(usize) -> Vec<f32>,
) -> Vec<ThreadScale> {
    let reference = run(1);
    let mut rows = Vec::with_capacity(counts.len());
    let mut base_mean = f64::NAN;
    for &threads in counts {
        let bitwise = run(threads) == reference;
        c.bench_function(&format!("thread_scaling/{bench}/{threads}"), |bch| {
            bch.iter(|| run(threads))
        });
        let mean = c
            .measurements()
            .last()
            .map(|meas| meas.mean_ns)
            .unwrap_or(f64::NAN);
        if threads == 1 {
            base_mean = mean;
        }
        rows.push(ThreadScale {
            bench: bench.to_string(),
            threads,
            effective_threads: effective(threads),
            mean_ns: mean,
            speedup_vs_1: base_mean / mean,
            bitwise_equal_to_1_thread: bitwise,
        });
    }
    rows
}

/// Sweeps `MBS_THREADS ∈ {1, 2, 4, max}` (deduped, sorted) over a square
/// GEMM and the direct conv forward at the tensor_ops suite shape.
fn thread_scaling(c: &mut Criterion) -> Vec<ThreadScale> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 2, 4, max];
    counts.sort_unstable();
    counts.dedup();
    let kern = kernel::selected();

    const DIM: usize = 256;
    let a = filled(DIM * DIM, 8);
    let b = filled(DIM * DIM, 9);
    let mut rows = scale_workload(
        c,
        "matmul_256",
        &counts,
        |threads| mbs_tensor::ops::pack::effective_workers(DIM, threads),
        |threads| {
            let mut out = vec![0.0f32; DIM * DIM];
            let src = |data| MatSrc::RowMajor { data, stride: DIM };
            gemm_with_kernel(&src(&a), &src(&b), &mut out, DIM, DIM, DIM, threads, kern);
            out
        },
    );

    // x[4, 8, 16, 16] against 16 3×3 filters.
    let cfg = Conv2dCfg::square(3, 1, 1);
    let x = Tensor::from_vec(&[4, 8, 16, 16], filled(4 * 8 * 16 * 16, 1));
    let w = Tensor::from_vec(&[16, 8, 3, 3], filled(16 * 8 * 9, 2));
    rows.extend(scale_workload(
        c,
        "conv_fwd",
        &counts,
        |threads| direct::effective_workers(kern, 4, 16, threads),
        |threads| {
            let exec = Exec {
                kernel: kern,
                threads,
                ..Exec::process()
            };
            direct::forward(&x, &w, None, false, cfg, exec)
                .0
                .data()
                .to_vec()
        },
    ));
    rows
}

/// Sweeps the serialized training step: (model × sub-batch × fused) with
/// the fused/unfused decision flipped per model instance via `set_fused` —
/// both paths are bitwise identical (pinned by tests), so the delta is
/// pure epilogue/allocation overhead.
///
/// Measurement is **interleaved**: fused and unfused blocks alternate over
/// several rounds and each variant keeps its best (minimum) per-step time.
/// A sequential A-then-B timing on a shared 1-CPU container drifts by more
/// than the few-percent effect under test; alternating blocks see the same
/// machine state, and the min discards steal-time outliers.
fn train_steps() -> Vec<TrainStepBench> {
    const ROUNDS: usize = 6;
    let d8 = generate(16, 8, 0.3, 55);
    // 16×16 inputs × 32-channel convs: activations outgrow L1/L2, which is
    // the regime the fused epilogue targets (whole-tensor passes removed).
    let d16 = generate(16, 16, 0.3, 55);
    let mut rows = Vec::new();
    for model_name in [
        "mini_resnet_gn",
        "convnet_fused_stack",
        "convnet_wide_16x16",
    ] {
        let d = if model_name == "convnet_wide_16x16" {
            &d16
        } else {
            &d8
        };
        for sub in [1usize, 2, 4, 8] {
            // One long-lived (model, optimizer) pair per variant, so both
            // see identical warm pools and parameter trajectories.
            let build = |fused: bool| -> (Box<dyn Module>, Sgd) {
                let model: Box<dyn Module> = match model_name {
                    "mini_resnet_gn" => {
                        let mut m = MiniResNet::new(
                            3,
                            4,
                            1,
                            NormChoice::Group(4),
                            &mut StdRng::seed_from_u64(1),
                        );
                        m.set_fused(fused);
                        Box::new(m)
                    }
                    "convnet_fused_stack" => {
                        let mut m = ConvNet::new(3, 4, 16, 3, &mut StdRng::seed_from_u64(1));
                        m.set_fused(fused);
                        Box::new(m)
                    }
                    _ => {
                        let mut m = ConvNet::new(3, 4, 32, 3, &mut StdRng::seed_from_u64(1));
                        m.set_fused(fused);
                        Box::new(m)
                    }
                };
                (model, Sgd::new(0.05, 0.9, 1e-4))
            };
            let (mut model_f, mut opt_f) = build(true);
            let (mut model_u, mut opt_u) = build(false);
            // Warm both models (and the arena pool), and size the
            // measurement block to ~80 ms so every (model, sub) pair gets
            // comparable statistics regardless of its step time.
            let warm0 = std::time::Instant::now();
            for _ in 0..4 {
                criterion::black_box(train_step_mbs(
                    &mut *model_f,
                    &d.images,
                    &d.labels,
                    sub,
                    &mut opt_f,
                ));
                criterion::black_box(train_step_mbs(
                    &mut *model_u,
                    &d.images,
                    &d.labels,
                    sub,
                    &mut opt_u,
                ));
            }
            let approx_step_ns = warm0.elapsed().as_nanos() as f64 / 8.0;
            let block_iters = ((80e6 / approx_step_ns) as usize).clamp(4, 64);
            let best = interleaved_best(
                ROUNDS,
                block_iters,
                || {
                    criterion::black_box(train_step_mbs(
                        &mut *model_f,
                        &d.images,
                        &d.labels,
                        sub,
                        &mut opt_f,
                    ));
                },
                || {
                    criterion::black_box(train_step_mbs(
                        &mut *model_u,
                        &d.images,
                        &d.labels,
                        sub,
                        &mut opt_u,
                    ));
                },
            );
            println!(
                "train_step/{model_name}/sub{sub}: fused {:.0} ns, unfused {:.0} ns",
                best[0], best[1]
            );
            rows.push(TrainStepBench {
                model: model_name.to_string(),
                sub_batch: sub,
                fused_best_ns: best[0],
                unfused_best_ns: best[1],
                speedup_fused: best[1] / best[0],
            });
        }
    }
    rows
}

/// Generic interleaved N-way timer: round-robins `N` variants of `run`
/// over `rounds` rounds (starting slot rotated each round, so block
/// position cancels) and returns each variant's minimum per-call
/// nanoseconds.
fn interleaved_best_n<const N: usize>(
    rounds: usize,
    iters: usize,
    run: &mut impl FnMut(usize),
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for slot in 0..N {
        run(slot);
    }
    for round in 0..rounds {
        for i in 0..N {
            let slot = (round + i) % N;
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                run(slot);
            }
            best[slot] = best[slot].min(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    best
}

/// Generic interleaved A/B timer: alternates two closures over `rounds`
/// rounds (order flipped each round, so block position cancels) and
/// returns each side's minimum per-call nanoseconds.
fn interleaved_best(
    rounds: usize,
    iters: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> [f64; 2] {
    interleaved_best_n::<2>(rounds, iters, &mut |slot| {
        if slot == 0 {
            a();
        } else {
            b();
        }
    })
}

/// Measures the A/A noise floor of the step harness: two identical fused
/// models through the same interleaved timer.
fn aa_noise() -> f64 {
    let d = generate(16, 8, 0.3, 55);
    let build = || {
        let mut m = MiniResNet::new(3, 4, 1, NormChoice::Group(4), &mut StdRng::seed_from_u64(1));
        m.set_fused(true);
        (m, Sgd::new(0.05, 0.9, 1e-4))
    };
    let (mut m1, mut o1) = build();
    let (mut m2, mut o2) = build();
    let best = interleaved_best(
        6,
        16,
        || {
            criterion::black_box(train_step_mbs(&mut m1, &d.images, &d.labels, 4, &mut o1));
        },
        || {
            criterion::black_box(train_step_mbs(&mut m2, &d.images, &d.labels, 4, &mut o2));
        },
    );
    best[1] / best[0]
}

/// Layer-level fused-vs-unfused on L2-busting shapes: a 64-channel 32×32
/// conv and a 1024-wide linear, bias+ReLU and bias-only.
fn layer_fused() -> Vec<LayerFusedBench> {
    use mbs_tensor::ops::{conv2d_fused_with, matmul_a_bt_fused_with};
    use mbs_tensor::Tensor;
    let mut rows = Vec::new();

    let cfg = Conv2dCfg::square(3, 1, 1);
    let x = Tensor::from_vec(&[8, 64, 32, 32], filled(8 * 64 * 1024, 21));
    let w = Tensor::from_vec(&[64, 64, 3, 3], filled(64 * 64 * 9, 22));
    let cb = filled(64, 23);
    let best = interleaved_best(
        10,
        6,
        || {
            criterion::black_box(conv2d_fused_with(&x, &w, Some(&cb), true, cfg, true));
        },
        || {
            criterion::black_box(conv2d_fused_with(&x, &w, Some(&cb), true, cfg, false));
        },
    );
    rows.push(LayerFusedBench {
        op: "conv2d bias+relu".into(),
        shape: "x[8,64,32,32] w[64,64,3,3]".into(),
        fused_best_ns: best[0],
        unfused_best_ns: best[1],
        speedup_fused: best[1] / best[0],
    });

    let a = Tensor::from_vec(&[256, 1024], filled(256 * 1024, 24));
    let b = Tensor::from_vec(&[1024, 1024], filled(1024 * 1024, 25));
    let lb = filled(1024, 26);
    for (label, relu) in [("linear bias+relu", true), ("linear bias", false)] {
        let best = interleaved_best(
            10,
            6,
            || {
                criterion::black_box(matmul_a_bt_fused_with(&a, &b, &lb, relu, true));
            },
            || {
                criterion::black_box(matmul_a_bt_fused_with(&a, &b, &lb, relu, false));
            },
        );
        rows.push(LayerFusedBench {
            op: label.into(),
            shape: "a[256,1024] w[1024,1024]".into(),
            fused_best_ns: best[0],
            unfused_best_ns: best[1],
            speedup_fused: best[1] / best[0],
        });
    }
    rows
}

/// The schedules behind the numbers: paper-default plans for three zoo
/// networks plus the CPU-budget plans the grouped sweep actually executes.
fn schedule_section() -> Vec<ScheduleInfo> {
    use mbs_cnn::networks::{alexnet, inception_v3, resnet, toy};
    use mbs_core::{analyze, ExecConfig, HardwareConfig, MbsScheduler};

    let mut rows = Vec::new();
    let mut record = |net: &mbs_cnn::Network, hw: &HardwareConfig, cfg: ExecConfig| {
        let s = MbsScheduler::new(net, hw, cfg).schedule();
        rows.push(ScheduleInfo {
            network: net.name().to_string(),
            config: cfg.label().to_string(),
            batch: s.batch(),
            buffer_bytes: hw.global_buffer_bytes,
            groups: GroupInfo::from_schedule(&s),
            dram_bytes: analyze(net, &s, hw.global_buffer_bytes).dram_bytes(),
            stash_bytes: s.stash_bytes(net) as u64,
            fits: s.fits(),
        });
    };

    let paper_hw = HardwareConfig::default();
    for net in [resnet(50), inception_v3(), alexnet()] {
        for cfg in [ExecConfig::Mbs1, ExecConfig::Mbs2] {
            record(&net, &paper_hw, cfg);
        }
    }
    // The runtime nets, sized against the (shrunken) CPU budgets the
    // grouped sweep uses below.
    record(
        &toy::runtime_mix(16, 16),
        &HardwareConfig::cpu().with_global_buffer(16 * 1024),
        ExecConfig::Mbs1,
    );
    record(
        &toy::tiny_resnet(1, 8),
        &HardwareConfig::cpu().with_global_buffer(128 * 1024),
        ExecConfig::Mbs1,
    );
    record(
        &toy::tiny_inception(16, 16),
        &HardwareConfig::cpu().with_global_buffer(8 * 1024),
        ExecConfig::Mbs1,
    );
    record(
        &toy::tiny_alexnet(16, 16),
        &HardwareConfig::cpu().with_global_buffer(8 * 1024),
        ExecConfig::Mbs1,
    );
    rows
}

/// Grouped (schedule-driven, stash **and** replay backward) vs uniform
/// serialized step on lowered-IR networks, through the same interleaved
/// min-of-rounds harness as the `train_steps` sweep — three variants
/// round-robined per round so all see the same machine state.
fn grouped_steps() -> Vec<GroupedBench> {
    use mbs_cnn::networks::toy;
    use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
    use mbs_train::grouped::GroupedExecutor;
    use mbs_train::lower::lower;

    const ROUNDS: usize = 6;
    let mut rows = Vec::new();
    let cases = [
        (toy::runtime_mix(16, 16), 16usize * 1024, 16usize, 16usize),
        (toy::tiny_resnet(1, 8), 128 * 1024, 32, 8),
        (toy::tiny_inception(16, 16), 8 * 1024, 16, 16),
        (toy::tiny_alexnet(16, 16), 8 * 1024, 16, 16),
    ];
    for (net, buffer, img_size, batch) in cases {
        let hw = HardwareConfig::cpu().with_global_buffer(buffer);
        let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
            .with_batch(batch)
            .schedule();
        let uniform_sub = schedule.min_sub_batch();
        let d = generate(batch, img_size, 0.3, 57);
        let mut stash_model = lower(&net, &mut StdRng::seed_from_u64(2)).expect("net lowers");
        let mut replay_model = lower(&net, &mut StdRng::seed_from_u64(2)).expect("net lowers");
        let mut uniform_model = lower(&net, &mut StdRng::seed_from_u64(2)).expect("net lowers");
        let mut exec_s = GroupedExecutor::new(&schedule, stash_model.len());
        exec_s.set_stashing(true);
        let mut exec_r = GroupedExecutor::new(&schedule, replay_model.len());
        exec_r.set_stashing(false);
        let mut opt_s = Sgd::new(0.05, 0.9, 1e-4);
        let mut opt_r = Sgd::new(0.05, 0.9, 1e-4);
        let mut opt_u = Sgd::new(0.05, 0.9, 1e-4);

        let mut run = |slot: usize| match slot {
            0 => {
                criterion::black_box(exec_s.train_step(
                    &mut stash_model,
                    &d.images,
                    &d.labels,
                    &mut opt_s,
                ));
            }
            1 => {
                criterion::black_box(exec_r.train_step(
                    &mut replay_model,
                    &d.images,
                    &d.labels,
                    &mut opt_r,
                ));
            }
            _ => {
                criterion::black_box(train_step_mbs(
                    &mut uniform_model,
                    &d.images,
                    &d.labels,
                    uniform_sub,
                    &mut opt_u,
                ));
            }
        };
        let warm0 = std::time::Instant::now();
        for _ in 0..2 {
            for slot in 0..3 {
                run(slot);
            }
        }
        let approx_step_ns = warm0.elapsed().as_nanos() as f64 / 6.0;
        let block_iters = ((80e6 / approx_step_ns) as usize).clamp(2, 64);
        let best = interleaved_best_n::<3>(ROUNDS, block_iters, &mut run);
        println!(
            "grouped/{}: stash {:.0} ns, replay {:.0} ns ({} groups, subs {:?}), uniform(sub{uniform_sub}) {:.0} ns",
            net.name(),
            best[0],
            best[1],
            schedule.groups().len(),
            schedule.sub_batches(),
            best[2]
        );
        rows.push(GroupedBench {
            network: net.name().to_string(),
            batch,
            groups: GroupInfo::from_schedule(&schedule),
            uniform_sub_batch: uniform_sub,
            grouped_best_ns: best[0],
            replay_best_ns: best[1],
            uniform_best_ns: best[2],
            speedup_grouped: best[2] / best[0],
            speedup_stash_vs_replay: best[1] / best[0],
        });
    }
    rows
}

/// f32 vs bf16 storage precision on the grouped executor: same schedule,
/// same identically-seeded model, one executor per storage precision,
/// steps interleaved. Also records the modeled stash footprint at both
/// precisions and the *measured* resident boundary/stash bytes after a
/// training forward — the bf16 columns must come out at exactly half.
fn precision_steps() -> Vec<TrainPrecisionBench> {
    use mbs_cnn::networks::toy;
    use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
    use mbs_train::grouped::GroupedExecutor;
    use mbs_train::lower::lower;

    const ROUNDS: usize = 6;
    let mut rows = Vec::new();
    let cases = [
        (toy::runtime_mix(16, 16), 16usize * 1024, 16usize, 16usize),
        (toy::tiny_resnet(1, 8), 128 * 1024, 32, 8),
    ];
    for (net, buffer, img_size, batch) in cases {
        let hw = HardwareConfig::cpu().with_global_buffer(buffer);
        let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
            .with_batch(batch)
            .schedule();
        let d = generate(batch, img_size, 0.3, 58);
        let mut model32 = lower(&net, &mut StdRng::seed_from_u64(3)).expect("net lowers");
        let mut model16 = lower(&net, &mut StdRng::seed_from_u64(3)).expect("net lowers");
        let mut exec32 = GroupedExecutor::new(&schedule, model32.len());
        exec32.set_precision(Precision::F32);
        let mut exec16 = GroupedExecutor::new(&schedule, model16.len());
        exec16.set_precision(Precision::Bf16);
        let mut opt32 = Sgd::new(0.05, 0.9, 1e-4);
        let mut opt16 = Sgd::new(0.05, 0.9, 1e-4);
        let mut run = |slot: usize| {
            if slot == 0 {
                criterion::black_box(exec32.train_step(
                    &mut model32,
                    &d.images,
                    &d.labels,
                    &mut opt32,
                ));
            } else {
                criterion::black_box(exec16.train_step(
                    &mut model16,
                    &d.images,
                    &d.labels,
                    &mut opt16,
                ));
            }
        };
        let warm0 = std::time::Instant::now();
        for slot in 0..2 {
            run(slot);
        }
        let approx_step_ns = warm0.elapsed().as_nanos() as f64 / 2.0;
        let block_iters = ((80e6 / approx_step_ns) as usize).clamp(2, 64);
        let best = interleaved_best_n::<2>(ROUNDS, block_iters, &mut run);
        // Resident-footprint snapshot: a training forward populates the
        // boundary stages and (all but each group's last chunk of) the
        // stashes; the next forward clears the leftovers.
        let _ = exec32.forward(&mut model32, &d.images, true);
        let _ = exec16.forward(&mut model16, &d.images, true);
        let row = TrainPrecisionBench {
            network: net.name().to_string(),
            batch,
            f32_stash_model_bytes: schedule.stash_bytes_at(&net, Precision::F32),
            bf16_stash_model_bytes: schedule.stash_bytes_at(&net, Precision::Bf16),
            f32_boundary_bytes: exec32.boundary_bytes(),
            bf16_boundary_bytes: exec16.boundary_bytes(),
            f32_stash_tensor_bytes: exec32.stash_tensor_bytes(),
            bf16_stash_tensor_bytes: exec16.stash_tensor_bytes(),
            f32_step_best_ns: best[0],
            bf16_step_best_ns: best[1],
            speedup_bf16_storage: best[0] / best[1],
        };
        println!(
            "precision {:>13}: step f32 {:.0} ns, bf16-storage {:.0} ns ({:.2}x); boundary {} -> {} B, stash {} -> {} B",
            row.network,
            row.f32_step_best_ns,
            row.bf16_step_best_ns,
            row.speedup_bf16_storage,
            row.f32_boundary_bytes,
            row.bf16_boundary_bytes,
            row.f32_stash_tensor_bytes,
            row.bf16_stash_tensor_bytes
        );
        rows.push(row);
    }
    rows
}

/// One steady-state training step with the pool already warm: the arena
/// counters must show pure reuse (`arena_misses == 0`).
fn steady_state() -> SteadyState {
    let d = generate(16, 8, 0.3, 56);
    let mut m = MiniResNet::new(3, 4, 1, NormChoice::Group(4), &mut StdRng::seed_from_u64(1));
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    for _ in 0..2 {
        let _ = train_step_mbs(&mut m, &d.images, &d.labels, 4, &mut opt);
    }
    arena::reset_stats();
    let _ = train_step_mbs(&mut m, &d.images, &d.labels, 4, &mut opt);
    let (arena_hits, arena_misses) = arena::stats();
    SteadyState {
        arena_hits,
        arena_misses,
    }
}

/// Checkpoint cost per model: save/load latency and file size on a
/// stepped model (live momentum buffers), plus the end-to-end overhead
/// of `checkpoint_every` ∈ {1, 10} on a short grouped run.
fn checkpoint_benches() -> Vec<CheckpointBench> {
    use mbs_cnn::networks::toy;
    use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
    use mbs_train::checkpoint::{self, TrainCheckpoint};
    use mbs_train::lower::lower;
    use mbs_train::module::StateDict;
    use mbs_train::training::{train_grouped, TrainConfig};
    use mbs_train::{CheckpointConfig, GroupedExecutor};
    use std::time::Instant;

    const ROUNDS: usize = 7;
    let mut rows = Vec::new();
    let cases = [
        (toy::runtime_mix(8, 8), 8usize, 8usize),
        (toy::tiny_inception(8, 8), 8, 8),
    ];
    for (net, img_size, batch) in cases {
        let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
        let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
            .with_batch(batch)
            .schedule();
        // A stepped model so the snapshot carries live momentum buffers.
        let d = generate(batch, img_size, 0.3, 41);
        let mut model = lower(&net, &mut StdRng::seed_from_u64(9)).expect("net lowers");
        let mut exec = GroupedExecutor::new(&schedule, model.len());
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        let _ = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
        let mut dict = StateDict::default();
        model.export_state(&mut dict);
        let mut vdict = StateDict::default();
        opt.export_state(&mut vdict);
        let ckpt = TrainCheckpoint {
            fingerprint: schedule.fingerprint(&net),
            net: net.name().to_string(),
            epoch: 1,
            step_in_epoch: 0,
            loss_sum: 0.0,
            steps: 0,
            rng: vec![1, 2, 3, 4],
            model: dict.into_entries(),
            velocities: vdict.into_entries(),
            curve: Vec::new(),
        };

        let dir = std::env::temp_dir().join(format!("mbsbench-ckpt-{}", std::process::id()));
        let mut save_best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            criterion::black_box(checkpoint::save(&dir, 0, &ckpt, 2).expect("save"));
            save_best = save_best.min(t0.elapsed().as_nanos() as f64);
        }
        let path = dir.join(checkpoint::file_name(0));
        let file_bytes = std::fs::metadata(&path).expect("saved file").len();
        let mut load_best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            criterion::black_box(checkpoint::load_file(&path).expect("load"));
            load_best = load_best.min(t0.elapsed().as_nanos() as f64);
        }
        let _ = std::fs::remove_dir_all(&dir);

        // End-to-end overhead: the same short run with and without
        // per-step checkpointing, best-of-rounds each.
        let data = generate(batch * 4, img_size, 0.3, 42);
        let val = generate(batch, img_size, 0.3, 43);
        let timed_run = |every: Option<usize>| -> f64 {
            let mut cfg = TrainConfig {
                epochs: 2,
                batch,
                lr_milestones: vec![1],
                ..TrainConfig::default()
            };
            let ckdir = std::env::temp_dir().join(format!("mbsbench-ovh-{}", std::process::id()));
            if let Some(every) = every {
                let mut ck = CheckpointConfig::new(&ckdir);
                ck.every_steps = every;
                ck.resume = false;
                cfg.checkpoint = Some(ck);
            }
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let _ = std::fs::remove_dir_all(&ckdir);
                let t0 = Instant::now();
                criterion::black_box(
                    train_grouped(&net, &schedule, &data, &val, &cfg).expect("bench run"),
                );
                best = best.min(t0.elapsed().as_nanos() as f64);
            }
            let _ = std::fs::remove_dir_all(&ckdir);
            best
        };
        let base_ns = timed_run(None);
        let every1_ns = timed_run(Some(1));
        let every10_ns = timed_run(Some(10));
        rows.push(CheckpointBench {
            model: net.name().to_string(),
            file_bytes,
            save_best_ns: save_best,
            load_best_ns: load_best,
            overhead_pct_every_1: (every1_ns - base_ns) / base_ns * 100.0,
            overhead_pct_every_10: (every10_ns - base_ns) / base_ns * 100.0,
        });
    }
    rows
}

/// Steady-state grouped step fed off disk vs from memory, swept over
/// prefetch depths. Same harness as the steady-state arena test: warm an
/// epoch so the loader's buffer ring and the executor's staging buffers
/// exist, then time whole epochs and divide by the step count.
fn loader_benches() -> Vec<LoaderBench> {
    use mbs_cnn::networks::toy;
    use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
    use mbs_train::loader::{save_dataset_chunked, DiskDataset, StreamLoader};
    use mbs_train::lower::lower;
    use mbs_train::GroupedExecutor;
    use std::time::Instant;

    const ROUNDS: usize = 3;
    const CHUNK: usize = 16;
    let (net, img_size, batch, samples) = (toy::runtime_mix(8, 8), 8usize, 8usize, 64usize);
    let steps = samples / batch;
    let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
        .with_batch(batch)
        .schedule();
    let set = generate(samples, img_size, 0.3, 51);
    let dir = std::env::temp_dir().join(format!("mbsbench-loader-{}", std::process::id()));
    let path = dir.join("bench.mbsds");
    save_dataset_chunked(&set, &path, CHUNK).expect("save bench dataset");
    let file_bytes = std::fs::metadata(&path).expect("saved file").len();
    let order: Vec<usize> = (0..samples).collect();

    let mut model = lower(&net, &mut StdRng::seed_from_u64(7)).expect("net lowers");
    let mut exec = GroupedExecutor::new(&schedule, model.len());
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);

    // In-memory baseline: gather (row copies) + train_step, the data
    // path `train_grouped` runs today.
    let gather = |idx: &[usize]| {
        let row = set.images.len() / samples;
        let mut data = Vec::with_capacity(idx.len() * row);
        let mut labels = Vec::with_capacity(idx.len());
        for &i in idx {
            data.extend_from_slice(&set.images.data()[i * row..(i + 1) * row]);
            labels.push(set.labels[i]);
        }
        (
            mbs_tensor::Tensor::from_vec(&[idx.len(), 3, img_size, img_size], data),
            labels,
        )
    };
    let run_memory_epoch =
        |exec: &mut GroupedExecutor, model: &mut mbs_train::LoweredNet, opt: &mut Sgd| {
            for s in 0..steps {
                let (xs, ls) = gather(&order[s * batch..(s + 1) * batch]);
                criterion::black_box(exec.train_step(model, &xs, &ls, opt));
            }
        };
    run_memory_epoch(&mut exec, &mut model, &mut opt); // warm
    let mut memory_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        run_memory_epoch(&mut exec, &mut model, &mut opt);
        memory_best = memory_best.min(t0.elapsed().as_nanos() as f64 / steps as f64);
    }

    let disk = DiskDataset::open(&path).expect("open bench dataset");
    let mut rows = Vec::new();
    for prefetch in [1usize, 2, 4] {
        let mut loader = StreamLoader::new(&disk, prefetch).expect("spawn loader");
        let run_streamed_epoch = |loader: &mut StreamLoader,
                                  exec: &mut GroupedExecutor,
                                  model: &mut mbs_train::LoweredNet,
                                  opt: &mut Sgd| {
            loader.begin_epoch(&order, batch, 0);
            for _ in 0..steps {
                let b = loader.next_batch().expect("bench batch");
                criterion::black_box(exec.train_step(model, &b.images, &b.labels, opt));
                loader.recycle(b);
            }
        };
        run_streamed_epoch(&mut loader, &mut exec, &mut model, &mut opt); // warm
        let warm_stats = loader.stats();
        let mut streamed_best = f64::INFINITY;
        let phase0 = Instant::now();
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            run_streamed_epoch(&mut loader, &mut exec, &mut model, &mut opt);
            streamed_best = streamed_best.min(t0.elapsed().as_nanos() as f64 / steps as f64);
        }
        let phase_secs = phase0.elapsed().as_secs_f64();
        let stats = loader.finish();
        let bytes_read = stats.bytes_read - warm_stats.bytes_read;
        rows.push(LoaderBench {
            model: net.name().to_string(),
            samples,
            batch,
            prefetch,
            chunk_samples: CHUNK,
            file_bytes,
            memory_step_best_ns: memory_best,
            streamed_step_best_ns: streamed_best,
            ratio_streamed_vs_memory: streamed_best / memory_best,
            stalls: stats.stalls - warm_stats.stalls,
            bytes_read,
            bytes_per_sec: bytes_read as f64 / phase_secs.max(1e-9),
            chunk_loads: stats.chunk_loads - warm_stats.chunk_loads,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

/// The report written to `BENCH_serve.json`: dynamic-batching serving
/// latency under synthetic open-loop load, one row per offered rate.
#[derive(Debug, Clone, Serialize)]
struct ServeReport {
    /// GEMM worker threads the forwards ran with (the process default).
    threads: usize,
    /// The micro-kernel every forward used.
    kernel: String,
    /// Served network.
    model: String,
    /// Serving worker threads.
    workers: usize,
    /// Effective max batch (cache-budget capped).
    max_batch: usize,
    /// Batching deadline in microseconds.
    max_wait_us: u64,
    /// One row per offered open-loop load point.
    load_points: Vec<ServeLoad>,
    /// Behavior under sustained overload (non-blocking admission at 4×
    /// the highest sweep rate against a small queue).
    overload: ServeOverload,
}

/// One offered-rate point of the serve sweep.
#[derive(Debug, Clone, Serialize)]
struct ServeLoad {
    /// Offered request rate (open loop: requests are paced at this rate
    /// regardless of completions).
    offered_rps: u64,
    /// Requests issued at this point.
    requests: usize,
    /// Median submit→response latency, microseconds.
    p50_latency_us: f64,
    /// 99th-percentile latency, microseconds.
    p99_latency_us: f64,
    /// Mean latency, microseconds.
    mean_latency_us: f64,
    /// Mean dispatched batch size.
    mean_batch: f64,
    /// `histogram[k]` = batches that carried exactly `k` requests.
    batch_histogram: Vec<u64>,
}

/// The overload point of the serve sweep: `try_submit` admission control
/// at 4× the highest paced rate, small queue, mixed priorities.
#[derive(Debug, Clone, Serialize)]
struct ServeOverload {
    /// Offered request rate (4× the top sweep point).
    offered_rps: u64,
    /// Requests offered.
    offered: usize,
    /// Requests admitted (answered with a prediction or a structured
    /// error later).
    accepted: usize,
    /// Requests refused at admission with `ServeError::Overloaded`.
    refused: usize,
    /// Admitted requests answered with a prediction.
    answered_ok: usize,
    /// Requests shed from the queue to admit higher-priority work
    /// (server counter).
    shed: u64,
    /// Requests answered `DeadlineExceeded` (server counter).
    expired: u64,
    /// Median submit→response latency of the *successful* requests,
    /// microseconds — what admission control buys the requests it keeps.
    p50_latency_us: f64,
    /// 99th-percentile successful-request latency, microseconds.
    p99_latency_us: f64,
    /// Mean `retry_after_us` hint carried by the refusals.
    mean_retry_after_us: f64,
}

/// Open-loop load sweep against the dynamic-batching server: a pacer
/// submits single-sample requests at a fixed offered rate while a
/// collector thread drains the responses in submission order and records
/// per-request latency. A fresh server per load point keeps the batch
/// histograms separable.
fn serve_section() -> ServeReport {
    use std::sync::mpsc;
    use std::thread;
    use std::time::{Duration, Instant};

    let net = toy::runtime_mix(8, 8);
    let model = ModelHandle::from_network(&net, 42).expect("freeze model");
    let hw = mbs_core::HardwareConfig::new();
    let base = ServeConfig::for_model(&model, &hw);
    let config = ServeConfig {
        workers: 2,
        max_batch: base.max_batch.min(16),
        max_wait_us: 1_000,
        queue_depth: 64,
        ..ServeConfig::default()
    };
    let shape = model.input();
    let sample = Tensor::full(&[shape.channels, shape.height, shape.width], 0.25);

    let mut load_points = Vec::new();
    for offered_rps in [500u64, 2_000, 8_000] {
        let requests = 300usize;
        let server = Server::start(&model, config);
        let client = server.client();
        let (tx, rx) = mpsc::channel::<(Instant, mbs_serve::Pending)>();
        let collector = thread::spawn(move || {
            let mut latencies_us: Vec<f64> = Vec::with_capacity(requests);
            while let Ok((t0, pending)) = rx.recv() {
                let r = pending.wait().expect("serve bench response");
                criterion::black_box(r);
                latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
            latencies_us
        });
        let interval = Duration::from_nanos(1_000_000_000 / offered_rps);
        let start = Instant::now();
        for i in 0..requests {
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let pending = client.submit(&sample).expect("serve bench submit");
            tx.send((Instant::now(), pending)).expect("collector alive");
        }
        drop(tx);
        let mut latencies_us = collector.join().expect("collector panicked");
        let stats = server.shutdown();
        latencies_us.sort_by(f64::total_cmp);
        let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p) as usize];
        load_points.push(ServeLoad {
            offered_rps,
            requests,
            p50_latency_us: pct(0.50),
            p99_latency_us: pct(0.99),
            mean_latency_us: latencies_us.iter().sum::<f64>() / latencies_us.len() as f64,
            mean_batch: stats.requests as f64 / (stats.batches.max(1)) as f64,
            batch_histogram: stats.histogram,
        });
    }
    // Overload point: non-blocking admission at 4× the top sweep rate
    // against a deliberately small queue, priorities cycling over the
    // four levels, a 20 ms deadline on every request.
    let overload = {
        use mbs_serve::SubmitOptions;
        let offered_rps = 32_000u64;
        let offered = 1_200usize;
        let server = Server::start(
            &model,
            ServeConfig {
                queue_depth: 16,
                ..config
            },
        );
        let client = server.client();
        let (tx, rx) = mpsc::channel::<(Instant, mbs_serve::Pending)>();
        let collector = thread::spawn(move || {
            let mut ok_latencies_us: Vec<f64> = Vec::new();
            while let Ok((t0, pending)) = rx.recv() {
                if let Ok(r) = pending.wait() {
                    criterion::black_box(r);
                    ok_latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                }
            }
            ok_latencies_us
        });
        let interval = Duration::from_nanos(1_000_000_000 / offered_rps);
        let start = Instant::now();
        let (mut accepted, mut refused) = (0usize, 0usize);
        let mut retry_hints_us: Vec<f64> = Vec::new();
        for i in 0..offered {
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let opts = SubmitOptions::priority((i % 4) as u8).deadline(Duration::from_millis(20));
            match client.try_submit(&sample, opts) {
                Ok(pending) => {
                    accepted += 1;
                    tx.send((Instant::now(), pending)).expect("collector alive");
                }
                Err(mbs_serve::ServeError::Overloaded { retry_after_us }) => {
                    refused += 1;
                    retry_hints_us.push(retry_after_us as f64);
                }
                Err(e) => panic!("unexpected overload-bench error: {e}"),
            }
        }
        drop(tx);
        let mut ok_latencies_us = collector.join().expect("collector panicked");
        let stats = server.shutdown();
        ok_latencies_us.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            if ok_latencies_us.is_empty() {
                0.0
            } else {
                ok_latencies_us[((ok_latencies_us.len() - 1) as f64 * p) as usize]
            }
        };
        ServeOverload {
            offered_rps,
            offered,
            accepted,
            refused,
            answered_ok: ok_latencies_us.len(),
            shed: stats.shed,
            expired: stats.expired,
            p50_latency_us: pct(0.50),
            p99_latency_us: pct(0.99),
            mean_retry_after_us: if retry_hints_us.is_empty() {
                0.0
            } else {
                retry_hints_us.iter().sum::<f64>() / retry_hints_us.len() as f64
            },
        }
    };

    ServeReport {
        threads: mbs_tensor::ops::configured_threads(),
        kernel: kernel::selected().name.to_string(),
        model: net.name().to_string(),
        workers: config.workers,
        max_batch: config.max_batch,
        max_wait_us: config.max_wait_us,
        load_points,
        overload,
    }
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| ".".into());

    let mut c = Criterion::with_quick(true);
    println!("== tensor_ops (quick mode) ==");
    mbs_bench::suites::tensor_ops(&mut c);
    println!("== training_step (quick mode) ==");
    mbs_bench::suites::training_step(&mut c);
    println!("== kernel comparison (1 thread) ==");
    let kernel_comparison = kernel_comparison(&mut c);
    println!("== thread scaling (MBS_THREADS sweep) ==");
    let thread_scaling = thread_scaling(&mut c);
    println!("== train_step sweep (sub-batch x fused/unfused) ==");
    let train_step = train_steps();
    println!("== layer-level fused epilogue (L2-busting shapes) ==");
    let layer_fused = layer_fused();
    println!("== grouped vs uniform serialized step (lowered IR) ==");
    let grouped = grouped_steps();
    println!("== precision (f32 vs bf16 packed operands / storage) ==");
    let precision_tensor = precision_gemm();
    let precision_train = precision_steps();
    println!("== checkpoint save/load + training overhead ==");
    let checkpoint = checkpoint_benches();
    println!("== loader (streamed vs in-memory step, prefetch sweep) ==");
    let loader = loader_benches();
    println!("== serve (open-loop load sweep) ==");
    let serve_report = serve_section();
    let schedule = schedule_section();
    let aa_noise_ratio = aa_noise();
    let steady = steady_state();

    let means: HashMap<&str, f64> = c
        .measurements()
        .iter()
        .map(|m| (m.name.as_str(), m.mean_ns))
        .collect();
    let pairs = [
        ("conv2d", "conv2d_naive"),
        ("matmul_128", "matmul_naive_128"),
        ("matmul_256", "matmul_naive_256"),
    ];
    let speedups: Vec<Speedup> = pairs
        .iter()
        .filter_map(|&(fast, baseline)| {
            let (f, b) = (means.get(fast)?, means.get(baseline)?);
            Some(Speedup {
                fast: fast.to_string(),
                baseline: baseline.to_string(),
                ratio: b / f,
            })
        })
        .collect();
    for s in &speedups {
        println!(
            "speedup {:>24} vs {:<24} {:>6.2}x",
            s.fast, s.baseline, s.ratio
        );
    }
    for kb in &kernel_comparison {
        println!(
            "kernel {:>20} ({}) {:>12.0} ns  {:>5.2}x vs scalar{}",
            kb.kernel,
            kb.tile,
            kb.matmul_256_mean_ns,
            kb.speedup_vs_scalar,
            if kb.selected { "  [selected]" } else { "" }
        );
    }
    for ts in &thread_scaling {
        println!(
            "threads {:>14} x{:<2} {:>12.0} ns  {:>5.2}x vs 1 thread  bitwise_equal={}",
            ts.bench, ts.threads, ts.mean_ns, ts.speedup_vs_1, ts.bitwise_equal_to_1_thread
        );
    }

    for ts in &train_step {
        println!(
            "train_step {:>22} sub{:<2} fused {:>12.0} ns  unfused {:>12.0} ns  {:>5.2}x",
            ts.model, ts.sub_batch, ts.fused_best_ns, ts.unfused_best_ns, ts.speedup_fused
        );
    }
    for lf in &layer_fused {
        println!(
            "layer {:>18} {:<28} fused {:>12.0} ns  unfused {:>12.0} ns  {:>5.3}x",
            lf.op, lf.shape, lf.fused_best_ns, lf.unfused_best_ns, lf.speedup_fused
        );
    }
    for g in &grouped {
        println!(
            "grouped {:>13} batch {:<2} stash {:>11.0} ns  replay {:>11.0} ns ({:>5.2}x)  uniform(sub{}) {:>11.0} ns  {:>5.2}x",
            g.network,
            g.batch,
            g.grouped_best_ns,
            g.replay_best_ns,
            g.speedup_stash_vs_replay,
            g.uniform_sub_batch,
            g.uniform_best_ns,
            g.speedup_grouped
        );
    }
    for s in &schedule {
        let subs: Vec<usize> = s.groups.iter().map(|g| g.sub_batch).collect();
        println!(
            "schedule {:>13} {:<5} batch {:>2} buffer {:>9}: {} group(s), subs {:?}, {:.1} MiB DRAM, {:.1} KiB stash",
            s.network,
            s.config,
            s.batch,
            s.buffer_bytes,
            s.groups.len(),
            subs,
            s.dram_bytes as f64 / (1024.0 * 1024.0),
            s.stash_bytes as f64 / 1024.0
        );
    }
    for cb in &checkpoint {
        println!(
            "checkpoint {:>13} {:>8} B  save {:>10.0} ns  load {:>10.0} ns  overhead every1 {:>5.1}%  every10 {:>5.1}%",
            cb.model,
            cb.file_bytes,
            cb.save_best_ns,
            cb.load_best_ns,
            cb.overhead_pct_every_1,
            cb.overhead_pct_every_10
        );
    }
    for lb in &loader {
        println!(
            "loader {:>14} prefetch {:<2} streamed {:>10.0} ns  memory {:>10.0} ns ({:>5.3}x)  stalls {:>3}  {:>8.1} MiB/s off disk",
            lb.model,
            lb.prefetch,
            lb.streamed_step_best_ns,
            lb.memory_step_best_ns,
            lb.ratio_streamed_vs_memory,
            lb.stalls,
            lb.bytes_per_sec / (1024.0 * 1024.0)
        );
    }
    for lp in &serve_report.load_points {
        println!(
            "serve {:>12} @{:>5} rps  p50 {:>8.0} us  p99 {:>8.0} us  mean batch {:>5.2}",
            serve_report.model, lp.offered_rps, lp.p50_latency_us, lp.p99_latency_us, lp.mean_batch
        );
    }
    println!("A/A step-harness noise ratio: {aa_noise_ratio:.3} (1.0 = noise-free)");
    println!(
        "steady-state arena: {} hits, {} misses",
        steady.arena_hits, steady.arena_misses
    );

    let report = Report {
        threads: mbs_tensor::ops::configured_threads(),
        kernel: kernel::selected().name.to_string(),
        measurements: c.measurements().to_vec(),
        speedups,
        kernel_comparison,
        thread_scaling,
        precision: precision_tensor,
    };
    match mbs_bench::write_json(&out_dir, "BENCH_tensor", &report) {
        Ok(()) => println!("wrote {}", out_dir.join("BENCH_tensor.json").display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_tensor.json: {e}");
            std::process::exit(1);
        }
    }
    let train_report = TrainReport {
        threads: mbs_tensor::ops::configured_threads(),
        kernel: kernel::selected().name.to_string(),
        train_step,
        aa_noise_ratio,
        layer_fused,
        steady_state: steady,
        grouped,
        schedule,
        checkpoint,
        loader,
        precision: precision_train,
    };
    match mbs_bench::write_json(&out_dir, "BENCH_train", &train_report) {
        Ok(()) => println!("wrote {}", out_dir.join("BENCH_train.json").display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_train.json: {e}");
            std::process::exit(1);
        }
    }
    match mbs_bench::write_json(&out_dir, "BENCH_serve", &serve_report) {
        Ok(()) => println!("wrote {}", out_dir.join("BENCH_serve.json").display()),
        Err(e) => {
            eprintln!("error: could not write BENCH_serve.json: {e}");
            std::process::exit(1);
        }
    }
}
