//! Per-layer measurements every workload shares: the tensor kernels in
//! isolation, and what the IR, the scheduler, the traffic model and the
//! accelerator simulator say about the workload's network.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mbs::cnn::layer::LayerKind;
use mbs::cnn::{Layer, Network};
use mbs::core::traffic::analyze;
use mbs::core::{ExecConfig, Group, HardwareConfig, MbsScheduler, Schedule};
use mbs::tensor::ops::{conv2d, conv2d_backward_data, conv2d_backward_weights, matmul, Conv2dCfg};
use mbs::tensor::Tensor;
use mbs::wavecore::WaveCore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Metrics;
use crate::stats::median;

/// Milliseconds `f` took.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Median milliseconds of one call of `f`, over at least `min_reps` calls
/// and at least `min_time` of calling (one untimed call first).
pub fn median_ms(min_reps: usize, min_time: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_reps || start.elapsed() < min_time {
        times.push(time_ms(&mut f).1);
    }
    median(&times)
}

/// A tensor of seeded values in `[-0.5, 0.5)`.
pub fn seeded_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..shape.iter().product::<usize>())
        .map(|_| rng.gen_range(-0.5f32..0.5))
        .collect();
    Tensor::from_vec(shape, data)
}

/// The scheduler's plan for `net` at `batch` under a buffer of
/// `buffer_bytes`: given, never read from the host's cache sizes.
pub fn plan(net: &Network, batch: usize, buffer_bytes: usize) -> (HardwareConfig, Schedule) {
    let hw = HardwareConfig::cpu().with_global_buffer(buffer_bytes);
    let schedule = MbsScheduler::new(net, &hw, ExecConfig::Mbs1)
        .with_batch(batch)
        .schedule();
    (hw, schedule)
}

/// The one-group schedule that propagates the whole mini-batch at once.
pub fn full_batch_schedule(net: &Network, batch: usize) -> Schedule {
    let group = Group::new(0, net.nodes().len(), batch, batch);
    Schedule::new(ExecConfig::Mbs1, batch, vec![group], true)
}

/// `tensor.gemm_ref_gflops`: a 256³ matmul, the kernel with nothing around it.
pub fn gemm_reference(metrics: &mut Metrics) {
    let a = seeded_tensor(&[256, 256], 1);
    let b = seeded_tensor(&[256, 256], 2);
    let ms = median_ms(20, Duration::from_millis(100), || {
        black_box(matmul(black_box(&a), black_box(&b)));
    });
    metrics.set("tensor.gemm_ref_gflops", 2.0 * 256f64.powi(3) / (ms * 1e6));
}

/// The convolution with the most forward MACs, and the node holding it.
fn top_conv(net: &Network) -> Option<(usize, &Layer)> {
    net.nodes()
        .iter()
        .enumerate()
        .flat_map(|(i, node)| node.layers().map(move |l| (i, l)))
        .filter(|(_, l)| matches!(l.kind, LayerKind::Conv { .. }))
        .max_by_key(|(_, l)| l.forward_macs())
}

/// `tensor.conv_top_*`: the network's heaviest convolution, alone, at the
/// sub-batch the schedule runs it at.
pub fn conv_top(net: &Network, schedule: &Schedule, metrics: &mut Metrics) {
    let Some((node, layer)) = top_conv(net) else {
        return;
    };
    let LayerKind::Conv {
        kernel_h,
        kernel_w,
        stride,
        pad_h,
        pad_w,
    } = layer.kind
    else {
        return;
    };
    let cfg = Conv2dCfg {
        kernel_h,
        kernel_w,
        stride,
        pad_h,
        pad_w,
    };
    let sub = schedule.group_of(node).sub_batch;
    let (i, o) = (layer.input, layer.output);
    let x_shape = [sub, i.channels, i.height, i.width];
    let x = seeded_tensor(&x_shape, 3);
    let w = seeded_tensor(&[o.channels, i.channels, kernel_h, kernel_w], 4);
    let dy = seeded_tensor(&[sub, o.channels, o.height, o.width], 5);
    let budget = Duration::from_millis(150);
    let fwd = median_ms(5, budget, || {
        black_box(conv2d(black_box(&x), black_box(&w), cfg));
    });
    let bwd_data = median_ms(5, budget, || {
        black_box(conv2d_backward_data(
            black_box(&dy),
            black_box(&w),
            &x_shape,
            cfg,
        ));
    });
    let bwd_weights = median_ms(5, budget, || {
        black_box(conv2d_backward_weights(black_box(&x), black_box(&dy), cfg));
    });
    metrics.set("tensor.conv_top_fwd_ms", fwd);
    metrics.set("tensor.conv_top_bwd_data_ms", bwd_data);
    metrics.set("tensor.conv_top_bwd_weights_ms", bwd_weights);
    let flop = 2.0 * (layer.forward_macs() * sub) as f64;
    metrics.set("tensor.conv_top_gflops", flop / (fwd * 1e6));
}

/// `cnn.*`, `core.*`, `wavecore.*`: what the model side predicts for this
/// network and schedule — exact counts, set beside the measured times.
pub fn model_side(
    build: fn() -> Network,
    batch: usize,
    buffer_bytes: usize,
    metrics: &mut Metrics,
) -> (Network, HardwareConfig, Schedule) {
    let (net, build_ms) = time_ms(build);
    let ((hw, schedule), schedule_ms) = time_ms(|| plan(&net, batch, buffer_bytes));
    let (report, analyze_ms) = time_ms(|| analyze(&net, &schedule, buffer_bytes));
    let full = analyze(&net, &full_batch_schedule(&net, batch), buffer_bytes);
    let (sim, simulate_ms) = time_ms(|| WaveCore::new(hw).simulate_scheduled(&net, &schedule));

    metrics.set("cnn.build_ms", build_ms);
    metrics.set("cnn.fwd_gmacs_per_sample", net.forward_macs() as f64 / 1e9);
    metrics.set("core.schedule_ms", schedule_ms);
    metrics.set("core.analyze_ms", analyze_ms);
    metrics.set("core.groups", schedule.groups().len() as f64);
    metrics.set("core.min_sub_batch", schedule.min_sub_batch() as f64);
    metrics.set("core.modeled_dram_bytes", report.dram_bytes() as f64);
    metrics.set(
        "core.modeled_dram_ratio_vs_full",
        report.dram_bytes() as f64 / full.dram_bytes().max(1) as f64,
    );
    metrics.set(
        "core.modeled_stash_bytes",
        schedule.stash_bytes(&net) as f64,
    );
    metrics.set("wavecore.simulate_ms", simulate_ms);
    metrics.set("wavecore.sim_step_ms", sim.time_s * 1e3);
    metrics.set("wavecore.sim_dram_bytes", sim.dram_bytes as f64);
    (net, hw, schedule)
}
