//! The metric names, units and bounds the benchmark reports. They mirror
//! `BENCHMARK.json`; `--self-test` fails when the two disagree.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these with `--trace 0`; what each
/// means on a training and on a serving workload is in README.md.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "samples/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_typical",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "good_share",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.05,
    },
];

/// Per-layer metrics, reported with `--trace 1`. The prefix is the module
/// measured. A metric a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_ref_gflops", "GFLOP/s"),
    ("tensor.conv_top_fwd_ms", "ms"),
    ("tensor.conv_top_bwd_data_ms", "ms"),
    ("tensor.conv_top_bwd_weights_ms", "ms"),
    ("tensor.conv_top_gflops", "GFLOP/s"),
    ("tensor.arena_hits_per_step", "count"),
    ("tensor.arena_misses_per_step", "count"),
    ("tensor.loss_ms_per_step", "ms"),
    ("cnn.build_ms", "ms"),
    ("cnn.fwd_gmacs_per_sample", "GMAC"),
    ("core.schedule_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("core.groups", "count"),
    ("core.min_sub_batch", "count"),
    ("core.modeled_dram_bytes", "B"),
    ("core.modeled_dram_ratio_vs_full", "ratio"),
    ("core.modeled_stash_bytes", "B"),
    ("wavecore.simulate_ms", "ms"),
    ("wavecore.sim_step_ms", "ms"),
    ("wavecore.sim_dram_bytes", "B"),
    ("train.lower_ms", "ms"),
    ("train.params", "count"),
    ("train.grouped.fwd_ms_per_step", "ms"),
    ("train.grouped.bwd_ms_per_step", "ms"),
    ("train.grouped.eff_gflops", "GFLOP/s"),
    ("train.grouped.node_sum_ms_per_step", "ms"),
    ("train.grouped.overhead_share", "ratio"),
    ("train.grouped.iterations_per_step", "count"),
    ("train.grouped.boundary_bytes", "B"),
    ("train.grouped.stash_bytes", "B"),
    ("train.grouped.stash_vs_model_ratio", "ratio"),
    ("train.optim.step_ms", "ms"),
    ("train.loader.wait_ms_per_step", "ms"),
    ("train.loader.stalls", "count"),
    ("train.loader.bytes_read", "B"),
    ("train.loader.chunk_loads", "count"),
    ("train.loader.drain_mib_per_s", "MiB/s"),
    ("train.checkpoint.save_ms_p50", "ms"),
    ("train.checkpoint.encode_ms_p50", "ms"),
    ("train.checkpoint.load_ms", "ms"),
    ("train.checkpoint.file_bytes", "B"),
    ("train.checkpoint.stall_share", "ratio"),
    ("train.step_ms_p50", "ms"),
    ("train.step_ms_p95", "ms"),
    ("train.step_self_ms", "ms"),
    ("train.steps_traced", "count"),
    ("train.epoch_residual_share", "ratio"),
    ("train.final_loss", "nats"),
    ("serve.model.load_ms", "ms"),
    ("serve.model.infer_ms_b1", "ms"),
    ("serve.model.infer_ms_b4", "ms"),
    ("serve.model.infer_ms_b8", "ms"),
    ("serve.model.batch_gain", "ratio"),
    ("serve.server.submit_us_p50", "us"),
    ("serve.server.mean_batch", "count"),
    ("serve.server.batches", "count"),
    ("serve.server.nonforward_ms_p50", "ms"),
    ("serve.server.requests_traced", "count"),
    ("serve.server.p95_ms", "ms"),
    ("serve.server.p99_ms", "ms"),
    ("serve.server.p50_ms_mid", "ms"),
    ("serve.server.p95_ms_mid", "ms"),
    ("serve.server.backlog_end_mid", "count"),
    ("serve.server.shed", "count"),
    ("serve.server.expired", "count"),
    ("serve.server.failed", "count"),
    ("serve.server.gen_late_p99_ms", "ms"),
    ("host.nproc", "count"),
    ("host.spin_ms_before", "ms"),
    ("host.spin_ms_after", "ms"),
    ("host.disturbed", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Whether `name` keeps to the contract's charset and length.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Values measured so far, by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists: that is a bug in the
    /// benchmark, and `BENCHMARK.json` would not know the metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric {name:?} is in neither table of metrics.rs"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` of every end-to-end metric, or the first
    /// name that was never measured.
    pub fn end_to_end(&self) -> Result<Vec<(&'static str, f64, &'static str)>, &'static str> {
        END_TO_END
            .iter()
            .map(|m| self.get(m.name).map(|v| (m.name, v, m.unit)).ok_or(m.name))
            .collect()
    }

    /// `(name, value, unit)` of every per-layer metric; 0 where the
    /// workload never touched the layer.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}
