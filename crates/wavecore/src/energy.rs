//! System energy model (paper §4.2 "Power Modeling" and the §6 energy
//! discussion).
//!
//! Energy per training step is the sum of
//!
//! - DRAM access energy (per-byte cost from the memory technology),
//! - global-buffer access energy (8× cheaper than DRAM per the paper §6),
//! - arithmetic energy for the multiply-accumulates actually performed
//!   (WaveCore skips MACs with a zero operand; post-ReLU feature sparsity
//!   makes this significant),
//! - static/leakage energy proportional to execution time.
//!
//! Constants are calibrated so the Baseline configuration reproduces the
//! paper's reported DRAM energy share (~21.6% on ResNet50) and a ~56 W
//! peak (Tab. 2).

use mbs_core::MemoryConfig;

/// Energy model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// DRAM energy per byte (8 bits × per-bit cost of the technology).
    pub dram_pj_per_byte: f64,
    /// Global-buffer energy per byte (DRAM ÷ 8, paper §6).
    pub gbuf_pj_per_byte: f64,
    /// Energy of one 16-bit multiply + 32-bit accumulate.
    pub mac_pj: f64,
    /// Fraction of MACs skipped by zero detection (post-ReLU sparsity).
    pub zero_skip_fraction: f64,
    /// Static power of the whole chip in watts.
    pub static_w: f64,
}

impl EnergyParams {
    /// Parameters for a given memory technology.
    pub fn for_memory(memory: &MemoryConfig) -> Self {
        let dram_pj_per_byte = memory.pj_per_bit * 8.0;
        Self {
            dram_pj_per_byte,
            gbuf_pj_per_byte: dram_pj_per_byte / 8.0,
            // Multiplier + 32-bit adder + the operand-forwarding registers
            // each MAC hops through (Fig. 8a's per-PE pipeline).
            mac_pj: 2.5,
            zero_skip_fraction: 0.40,
            static_w: 10.0,
        }
    }
}

/// Energy of one training step, by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyReport {
    /// DRAM access energy in joules.
    pub dram_j: f64,
    /// Global-buffer access energy in joules.
    pub gbuf_j: f64,
    /// Arithmetic energy in joules (after zero skipping).
    pub compute_j: f64,
    /// Static/leakage energy in joules.
    pub static_j: f64,
}

impl EnergyReport {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.dram_j + self.gbuf_j + self.compute_j + self.static_j
    }

    /// DRAM share of the total (the paper quotes 21.6% for Baseline,
    /// 8.7% under MBS1 on the deep CNNs).
    pub fn dram_share(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.dram_j / t
        }
    }
}

/// Computes step energy from chip-level totals.
pub fn step_energy(
    dram_bytes: u64,
    gbuf_bytes: u64,
    macs: u64,
    time_s: f64,
    p: &EnergyParams,
) -> EnergyReport {
    EnergyReport {
        dram_j: dram_bytes as f64 * p.dram_pj_per_byte * 1e-12,
        gbuf_j: gbuf_bytes as f64 * p.gbuf_pj_per_byte * 1e-12,
        compute_j: macs as f64 * (1.0 - p.zero_skip_fraction) * p.mac_pj * 1e-12,
        static_j: p.static_w * time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_core::MemoryKind;

    #[test]
    fn gbuf_is_eight_times_cheaper() {
        let p = EnergyParams::for_memory(&MemoryConfig::preset(MemoryKind::Hbm2));
        assert!((p.dram_pj_per_byte / p.gbuf_pj_per_byte - 8.0).abs() < 1e-9);
    }

    #[test]
    fn energy_components_add_up() {
        let p = EnergyParams::for_memory(&MemoryConfig::preset(MemoryKind::Hbm2));
        let r = step_energy(1 << 30, 1 << 31, 1 << 40, 0.05, &p);
        let total = r.dram_j + r.gbuf_j + r.compute_j + r.static_j;
        assert!((r.total() - total).abs() < 1e-12);
        assert!(r.dram_share() > 0.0 && r.dram_share() < 1.0);
    }

    #[test]
    fn lower_traffic_means_lower_energy() {
        let p = EnergyParams::for_memory(&MemoryConfig::preset(MemoryKind::Hbm2));
        let hi = step_energy(10 << 30, 2 << 30, 1 << 40, 0.05, &p);
        let lo = step_energy(2 << 30, 10 << 30, 1 << 40, 0.05, &p);
        // Moving traffic from DRAM to the 8x-cheaper buffer saves energy.
        assert!(lo.total() < hi.total());
    }
}
