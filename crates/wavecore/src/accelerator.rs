//! The top-level WaveCore simulator: schedules a network, runs the traffic
//! and timing models, and produces per-step reports (execution time,
//! energy, DRAM traffic, utilization, per-layer-type breakdowns).

use mbs_cnn::Network;
use mbs_core::{analyze, ExecConfig, HardwareConfig, MbsScheduler, Schedule, TrafficBreakdown};

use crate::energy::{step_energy, EnergyParams, EnergyReport};
use crate::timing::{layer_time, LayerTime};

/// Simulation result for one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Network name.
    pub network: String,
    /// Execution configuration.
    pub config: ExecConfig,
    /// Samples per core (the chip trains `cores ×` this).
    pub batch_per_core: usize,
    /// Number of cores.
    pub cores: usize,
    /// Execution time of one training step in seconds (cores run disjoint
    /// shards in parallel; only loss/gradient reduction is shared).
    pub time_s: f64,
    /// Chip-level DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Chip-level global-buffer traffic in bytes.
    pub gbuf_bytes: u64,
    /// MAC-weighted systolic-array utilization over conv/FC layers,
    /// independent of memory bandwidth (the paper's Fig. 14 isolates
    /// utilization with unlimited DRAM bandwidth).
    pub utilization: f64,
    /// Energy of the step, by component.
    pub energy: EnergyReport,
    /// Per-layer timings in execution order.
    pub layer_times: Vec<LayerTime>,
    /// DRAM traffic by cause (per core).
    pub traffic_breakdown: TrafficBreakdown,
}

impl StepReport {
    /// Total step energy in joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total()
    }

    /// Execution time accumulated per layer-type tag, for the paper's
    /// Fig. 12 breakdown (`conv`, `fc`, `norm`, `pool`, `sum`, ...).
    pub fn time_by_type(&self) -> Vec<(String, f64)> {
        let mut acc: Vec<(String, f64)> = Vec::new();
        for lt in &self.layer_times {
            match acc.iter_mut().find(|(t, _)| *t == lt.tag) {
                Some((_, v)) => *v += lt.time_s,
                None => acc.push((lt.tag.clone(), lt.time_s)),
            }
        }
        acc
    }
}

/// The WaveCore accelerator simulator.
///
/// # Examples
///
/// ```
/// use mbs_cnn::networks::resnet;
/// use mbs_core::{ExecConfig, HardwareConfig};
/// use mbs_wavecore::WaveCore;
///
/// let wc = WaveCore::new(HardwareConfig::default());
/// let report = wc.simulate(&resnet(50), ExecConfig::Mbs2);
/// assert!(report.time_s > 0.0);
/// assert!(report.utilization > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct WaveCore {
    hw: HardwareConfig,
}

impl WaveCore {
    /// Creates a simulator for the given hardware.
    pub fn new(hw: HardwareConfig) -> Self {
        Self { hw }
    }

    /// The hardware configuration.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// Schedules `net` under `config` (with the network's default per-core
    /// mini-batch) and simulates one training step.
    pub fn simulate(&self, net: &Network, config: ExecConfig) -> StepReport {
        let schedule = MbsScheduler::new(net, &self.hw, config).schedule();
        self.simulate_scheduled(net, &schedule)
    }

    /// Like [`WaveCore::simulate`] with an explicit per-core batch size.
    pub fn simulate_with_batch(
        &self,
        net: &Network,
        config: ExecConfig,
        batch: usize,
    ) -> StepReport {
        let schedule = MbsScheduler::new(net, &self.hw, config)
            .with_batch(batch)
            .schedule();
        self.simulate_scheduled(net, &schedule)
    }

    /// Simulates one training step under a pre-built schedule.
    pub fn simulate_scheduled(&self, net: &Network, schedule: &Schedule) -> StepReport {
        let config = schedule.config();
        let traffic = analyze(net, schedule, self.hw.global_buffer_bytes);
        let batch = schedule.batch();
        let db = config.double_buffering();

        let mut layer_times = Vec::with_capacity(traffic.layers.len());
        let mut time_s = 0.0;
        let mut cycles = 0u64;
        let mut macs = 0u64;
        for (i, rec) in traffic.layers.iter().enumerate() {
            let lt = layer_time(rec, batch, &self.hw, db, i == 0);
            time_s += lt.time_s;
            cycles += lt.cycles;
            macs += lt.macs;
            layer_times.push(lt);
        }

        let pes = (self.hw.array_rows * self.hw.array_cols) as f64;
        let utilization = if cycles == 0 {
            0.0
        } else {
            macs as f64 / (cycles as f64 * pes)
        };

        let cores = self.hw.cores as u64;
        let dram_bytes = traffic.dram_bytes() * cores;
        let gbuf_bytes = traffic.gbuf_bytes() * cores;
        let params = EnergyParams::for_memory(&self.hw.memory);
        let energy = step_energy(dram_bytes, gbuf_bytes, macs * cores, time_s, &params);

        StepReport {
            network: net.name().to_owned(),
            config,
            batch_per_core: batch,
            cores: self.hw.cores,
            time_s,
            dram_bytes,
            gbuf_bytes,
            utilization,
            energy,
            layer_times,
            traffic_breakdown: traffic.breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_cnn::networks::{resnet, toy};

    #[test]
    fn archopt_is_faster_than_baseline() {
        let wc = WaveCore::new(HardwareConfig::default());
        let net = resnet(50);
        let base = wc.simulate(&net, ExecConfig::Baseline);
        let opt = wc.simulate(&net, ExecConfig::ArchOpt);
        assert!(opt.time_s < base.time_s);
        assert!(opt.utilization > base.utilization);
    }

    #[test]
    fn mbs2_is_fastest_on_resnet50() {
        let wc = WaveCore::new(HardwareConfig::default());
        let net = resnet(50);
        let base = wc.simulate(&net, ExecConfig::Baseline);
        let mbs2 = wc.simulate(&net, ExecConfig::Mbs2);
        assert!(
            mbs2.time_s < base.time_s / 1.3,
            "mbs2 {} base {}",
            mbs2.time_s,
            base.time_s
        );
        assert!(mbs2.energy_j() < base.energy_j());
        assert!(mbs2.dram_bytes < base.dram_bytes / 2);
    }

    #[test]
    fn report_time_equals_sum_of_layers() {
        let wc = WaveCore::new(HardwareConfig::default());
        let r = wc.simulate(&toy::tiny_resnet(2, 8), ExecConfig::Mbs1);
        let sum: f64 = r.layer_times.iter().map(|l| l.time_s).sum();
        assert!((sum - r.time_s).abs() < 1e-12);
        let by_type: f64 = r.time_by_type().iter().map(|(_, t)| t).sum();
        assert!((by_type - r.time_s).abs() < 1e-9);
    }

    #[test]
    fn custom_batch_scales_traffic() {
        let wc = WaveCore::new(HardwareConfig::default());
        let net = toy::fig1_toy();
        let small = wc.simulate_with_batch(&net, ExecConfig::Baseline, 4);
        let large = wc.simulate_with_batch(&net, ExecConfig::Baseline, 8);
        assert!(large.dram_bytes > small.dram_bytes);
        assert!(large.time_s > small.time_s);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let wc = WaveCore::new(HardwareConfig::default());
        for cfg in ExecConfig::all() {
            let r = wc.simulate(&toy::tiny_resnet(1, 8), cfg);
            assert!(
                (0.0..=1.0).contains(&r.utilization),
                "{cfg}: {}",
                r.utilization
            );
        }
    }
}
