//! Roofline model of a training GPU (NVIDIA V100 class) for the paper's
//! Fig. 13 comparison.
//!
//! The paper measured a V100 running Caffe. We model the device from public
//! characteristics: peak FP16 throughput, HBM2 bandwidth, and an
//! efficiency curve that penalizes small GEMMs (layers with little data
//! parallelism cannot fill the wide SM array — the effect the paper calls
//! out when explaining why the gap grows with network depth), plus a fixed
//! per-layer kernel/framework overhead.

use mbs_cnn::Network;
use mbs_core::{analyze, ExecConfig, HardwareConfig, MbsScheduler};

use crate::gemm::{training_gemms, GemmDims};

/// A roofline GPU device model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak multiply-accumulate throughput (MAC/s). 125 TFLOPS FP16 =
    /// 62.5 T-MAC/s for the V100.
    pub peak_macs_per_s: f64,
    /// Memory bandwidth in bytes/s (V100: 900 GB/s HBM2).
    pub mem_bw_bytes: f64,
    /// Efficiency achieved on large GEMMs (Caffe-era FP16 kernels).
    pub base_efficiency: f64,
    /// GEMM size (MACs) at which efficiency halves; smaller layers
    /// underutilize the device.
    pub half_eff_macs: f64,
    /// Fixed per-layer overhead (kernel launches, framework) in seconds.
    pub layer_overhead_s: f64,
    /// On-chip buffering assumed for inter-layer reuse (L2 + shared
    /// memory + registers; Tab. 2 lists 33 MiB for V100).
    pub on_chip_bytes: usize,
}

impl GpuModel {
    /// An NVIDIA TESLA V100 running a Caffe-class framework.
    pub fn v100() -> Self {
        Self {
            peak_macs_per_s: 62.5e12,
            mem_bw_bytes: 900.0e9,
            base_efficiency: 0.35,
            half_eff_macs: 1.5e9,
            layer_overhead_s: 30.0e-6,
            on_chip_bytes: 33 * 1024 * 1024,
        }
    }

    /// Effective fraction of peak for one GEMM: large-kernel efficiency
    /// scaled down for small total work and for narrow output widths
    /// (GEMMs with few output channels underfill the GPU's wide MMA
    /// tiles — the low-data-parallelism effect the paper cites).
    pub fn efficiency(&self, dims: &GemmDims) -> f64 {
        let m = dims.macs() as f64;
        let size = m / (m + self.half_eff_macs);
        let width = (dims.gw.min(128) as f64 / 128.0).sqrt();
        self.base_efficiency * size * width
    }

    /// Time of one training step over the whole `batch` (the GPU trains
    /// the full chip-level mini-batch as one device).
    ///
    /// Traffic follows the conventional layer-by-layer flow (the GPU has no
    /// MBS), computed by the same traffic model in `InterLayer` mode with
    /// the GPU's on-chip capacity: cuDNN fuses and caches what fits.
    pub fn step_time(&self, net: &Network, batch: usize) -> f64 {
        // A pseudo hardware description carrying the GPU's buffer size for
        // the traffic model; bandwidth fields are unused here.
        let hw = HardwareConfig::default().with_global_buffer(self.on_chip_bytes);
        let schedule = MbsScheduler::new(net, &hw, ExecConfig::InterLayer)
            .with_batch(batch)
            .schedule();
        let traffic = analyze(net, &schedule, self.on_chip_bytes);

        let mut total = 0.0;
        for (i, rec) in traffic.layers.iter().enumerate() {
            let bytes = (rec.dram_fwd + rec.dram_bwd + rec.dram_serial) as f64;
            let mem_s = bytes / self.mem_bw_bytes;
            let compute_s: f64 = training_gemms(&rec.layer, batch, i == 0)
                .iter()
                .map(|d| d.macs() as f64 / (self.peak_macs_per_s * self.efficiency(d)))
                .sum();
            total += compute_s.max(mem_s) + self.layer_overhead_s;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_cnn::networks::resnet;

    #[test]
    fn efficiency_grows_with_size_and_width() {
        let gpu = GpuModel::v100();
        let small = GemmDims::new(1 << 10, 256, 1 << 10);
        let large = GemmDims::new(1 << 17, 256, 1 << 17);
        assert!(gpu.efficiency(&small) < gpu.efficiency(&large));
        assert!(gpu.efficiency(&large) <= gpu.base_efficiency);
        let narrow = GemmDims::new(1 << 17, 32, 1 << 17);
        assert!(gpu.efficiency(&narrow) < gpu.efficiency(&large) / 1.5);
    }

    #[test]
    fn v100_resnet50_step_time_is_tens_of_ms() {
        let gpu = GpuModel::v100();
        let t = gpu.step_time(&resnet(50), 64);
        assert!(
            (0.02..0.25).contains(&t),
            "V100 ResNet50 batch-64 step = {t} s"
        );
    }

    #[test]
    fn deeper_networks_take_longer() {
        let gpu = GpuModel::v100();
        let t50 = gpu.step_time(&resnet(50), 64);
        let t152 = gpu.step_time(&resnet(152), 64);
        assert!(t152 > 1.8 * t50, "t50 {t50} t152 {t152}");
    }
}
