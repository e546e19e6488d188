//! Multi-accelerator scaling (paper §4.2 "Scalability").
//!
//! The paper notes that compute throughput scales by distributing larger
//! mini-batches across accelerators or cores, with each device running MBS
//! locally and communicating only for loss computation and parameter
//! reduction/update. This module models that data-parallel regime: per-step
//! time = local MBS step time + an all-reduce of the weight gradients over
//! an inter-accelerator link.

use mbs_cnn::Network;
use mbs_core::{ExecConfig, HardwareConfig};

use crate::accelerator::WaveCore;

/// Inter-accelerator interconnect description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Per-device link bandwidth in bytes/s.
    pub link_bw_bytes: f64,
    /// Per-step synchronization latency in seconds.
    pub latency_s: f64,
}

impl Interconnect {
    /// A PCIe-3 x16-class link (~12 GB/s effective).
    pub fn pcie3() -> Self {
        Self {
            link_bw_bytes: 12.0e9,
            latency_s: 20.0e-6,
        }
    }

    /// A proprietary accelerator fabric (~100 GB/s, NVLink/ICI-class).
    pub fn fabric() -> Self {
        Self {
            link_bw_bytes: 100.0e9,
            latency_s: 5.0e-6,
        }
    }
}

/// One point of a scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Number of accelerators.
    pub devices: usize,
    /// Global mini-batch (devices × chip batch).
    pub global_batch: usize,
    /// Per-step time in seconds (compute + all-reduce).
    pub time_s: f64,
    /// All-reduce time in seconds.
    pub allreduce_s: f64,
    /// Throughput in samples per second.
    pub samples_per_s: f64,
    /// Parallel efficiency vs a single device.
    pub efficiency: f64,
}

/// Models weak-scaling of MBS training: each added device trains another
/// chip-sized shard, and a ring all-reduce of the weight gradients
/// (`2·(n−1)/n` of the parameter bytes over the link) synchronizes steps.
///
/// # Examples
///
/// ```
/// use mbs_cnn::networks::resnet;
/// use mbs_core::{ExecConfig, HardwareConfig};
/// use mbs_wavecore::scaling::{weak_scaling, Interconnect};
///
/// let points = weak_scaling(
///     &resnet(50), ExecConfig::Mbs2, &HardwareConfig::default(),
///     Interconnect::fabric(), &[1, 2, 4, 8],
/// );
/// assert!(points[3].efficiency > 0.8); // near-linear weak scaling
/// ```
pub fn weak_scaling(
    net: &Network,
    config: ExecConfig,
    hw: &HardwareConfig,
    link: Interconnect,
    device_counts: &[usize],
) -> Vec<ScalePoint> {
    let wc = WaveCore::new(*hw);
    let local = wc.simulate(net, config);
    let chip_batch = local.batch_per_core * hw.cores;
    let param_bytes = net.param_elems() as f64 * mbs_cnn::WORD_BYTES as f64;

    device_counts
        .iter()
        .map(|&n| {
            let allreduce_s = if n > 1 {
                // Ring all-reduce: 2(n-1)/n of the gradient volume crosses
                // each link, plus latency per step.
                2.0 * (n as f64 - 1.0) / n as f64 * param_bytes / link.link_bw_bytes
                    + link.latency_s
            } else {
                0.0
            };
            let time_s = local.time_s + allreduce_s;
            let global_batch = chip_batch * n;
            let samples_per_s = global_batch as f64 / time_s;
            let single = chip_batch as f64 / local.time_s;
            ScalePoint {
                devices: n,
                global_batch,
                time_s,
                allreduce_s,
                samples_per_s,
                efficiency: samples_per_s / (single * n as f64),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_cnn::networks::resnet;

    fn points(link: Interconnect) -> Vec<ScalePoint> {
        weak_scaling(
            &resnet(50),
            ExecConfig::Mbs2,
            &HardwareConfig::default(),
            link,
            &[1, 2, 4, 8, 16],
        )
    }

    #[test]
    fn single_device_has_no_communication() {
        let p = points(Interconnect::fabric());
        assert_eq!(p[0].devices, 1);
        assert_eq!(p[0].allreduce_s, 0.0);
        assert!((p[0].efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_grows_with_devices() {
        let p = points(Interconnect::fabric());
        for w in p.windows(2) {
            assert!(w[1].samples_per_s > w[0].samples_per_s);
        }
    }

    #[test]
    fn efficiency_degrades_monotonically_but_stays_high_on_fabric() {
        let p = points(Interconnect::fabric());
        for w in p.windows(2) {
            assert!(w[1].efficiency <= w[0].efficiency + 1e-12);
        }
        assert!(
            p.last().unwrap().efficiency > 0.9,
            "{}",
            p.last().unwrap().efficiency
        );
    }

    #[test]
    fn slow_links_cost_more() {
        let fast = points(Interconnect::fabric());
        let slow = points(Interconnect::pcie3());
        assert!(slow[4].efficiency < fast[4].efficiency);
    }

    #[test]
    fn global_batch_tracks_devices() {
        let p = points(Interconnect::fabric());
        assert_eq!(p[2].global_batch, p[0].global_batch * 4);
    }
}
