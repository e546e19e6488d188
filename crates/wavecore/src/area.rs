//! Die area and power estimation (paper §4.2 and Tab. 2).
//!
//! Component constants follow the sources the paper cites: a 12,173 µm²
//! PE (24T flip-flops from Kim et al. 2014, FP multiplier/adder from
//! Hickmann et al. 2007), CACTI-style SRAM buffers, Orion 2.0 NoC numbers.

use serde::Serialize;

/// Per-component area model for one WaveCore chip (two cores).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Area of one processing element in µm².
    pub pe_um2: f64,
    /// PEs per core.
    pub pes_per_core: usize,
    /// Global buffer area per core in mm².
    pub gbuf_mm2: f64,
    /// Vector compute units per core in mm².
    pub vector_mm2: f64,
    /// Crossbar, NoC, memory controllers, and I/O for the whole chip in
    /// mm².
    pub interconnect_mm2: f64,
    /// Cores per chip.
    pub cores: usize,
}

impl AreaModel {
    /// The paper's WaveCore at 32 nm.
    pub fn wavecore() -> Self {
        Self {
            pe_um2: 12_173.0,
            pes_per_core: 128 * 128,
            gbuf_mm2: 18.65,
            vector_mm2: 4.33,
            interconnect_mm2: 88.44,
            cores: 2,
        }
    }

    /// PE array area of one core in mm² (paper: 199.45 mm²).
    pub fn pe_array_mm2(&self) -> f64 {
        self.pe_um2 * self.pes_per_core as f64 / 1e6
    }

    /// Total die area in mm² (paper: 534.0 mm²).
    pub fn total_mm2(&self) -> f64 {
        self.cores as f64 * (self.pe_array_mm2() + self.gbuf_mm2 + self.vector_mm2)
            + self.interconnect_mm2
    }
}

/// Peak power model for the chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Energy per MAC in pJ (multiplier + adder at 32 nm).
    pub mac_pj: f64,
    /// Pipeline-register energy per PE per cycle in pJ (24T flip-flops).
    pub regs_pj: f64,
    /// Buffer, NoC, and other dynamic power in watts at peak.
    pub uncore_w: f64,
    /// Static/leakage power in watts.
    pub static_w: f64,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// Total PEs on the chip.
    pub pes: usize,
}

impl PowerModel {
    /// The paper's WaveCore (0.7 GHz, 2 × 128×128 PEs).
    pub fn wavecore() -> Self {
        Self {
            mac_pj: 1.1,
            regs_pj: 0.35,
            uncore_w: 6.5,
            static_w: 16.0,
            clock_hz: 0.7e9,
            pes: 2 * 128 * 128,
        }
    }

    /// Peak power in watts with all PEs active every cycle (paper: 56 W).
    pub fn peak_w(&self) -> f64 {
        let dynamic = (self.mac_pj + self.regs_pj) * 1e-12 * self.pes as f64 * self.clock_hz;
        dynamic + self.uncore_w + self.static_w
    }
}

/// One row of the paper's Tab. 2 accelerator comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AcceleratorSpec {
    /// Device name.
    pub name: String,
    /// Process technology in nm.
    pub technology_nm: u32,
    /// Die area in mm² (0 when not public).
    pub die_area_mm2: f64,
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// Peak TOPS and the number format.
    pub tops: f64,
    /// Number format of the TOPS figure.
    pub format: String,
    /// Peak power in watts (0 when not public).
    pub peak_power_w: f64,
    /// On-chip buffers in MiB.
    pub on_chip_mib: f64,
}

/// The full Tab. 2: V100, TPU v1, TPU v2, and the modeled WaveCore.
pub fn comparison_table() -> Vec<AcceleratorSpec> {
    let area = AreaModel::wavecore();
    let power = PowerModel::wavecore();
    vec![
        AcceleratorSpec {
            name: "V100".into(),
            technology_nm: 12,
            die_area_mm2: 812.0,
            clock_ghz: 1.53,
            tops: 125.0,
            format: "FP16".into(),
            peak_power_w: 250.0,
            on_chip_mib: 33.0,
        },
        AcceleratorSpec {
            name: "TPU v1".into(),
            technology_nm: 28,
            die_area_mm2: 331.0,
            clock_ghz: 0.7,
            tops: 92.0,
            format: "INT8".into(),
            peak_power_w: 43.0,
            on_chip_mib: 24.0,
        },
        AcceleratorSpec {
            name: "TPU v2".into(),
            technology_nm: 0,
            die_area_mm2: 0.0,
            clock_ghz: 0.7,
            tops: 45.0,
            format: "FP16".into(),
            peak_power_w: 0.0,
            on_chip_mib: 0.0,
        },
        AcceleratorSpec {
            name: "WaveCore".into(),
            technology_nm: 32,
            die_area_mm2: area.total_mm2(),
            clock_ghz: 0.7,
            tops: 45.9,
            format: "FP16".into(),
            peak_power_w: power.peak_w(),
            on_chip_mib: 20.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_array_area_matches_paper() {
        let a = AreaModel::wavecore();
        assert!(
            (a.pe_array_mm2() - 199.45).abs() < 0.1,
            "{}",
            a.pe_array_mm2()
        );
    }

    #[test]
    fn total_die_area_matches_paper() {
        let a = AreaModel::wavecore();
        assert!((a.total_mm2() - 534.0).abs() < 1.0, "{}", a.total_mm2());
    }

    #[test]
    fn peak_power_matches_paper() {
        let p = PowerModel::wavecore();
        assert!((p.peak_w() - 56.0).abs() < 1.5, "{}", p.peak_w());
    }

    #[test]
    fn comparison_table_has_four_rows() {
        let t = comparison_table();
        assert_eq!(t.len(), 4);
        assert_eq!(t[3].name, "WaveCore");
        assert!(t[3].die_area_mm2 < t[0].die_area_mm2); // smaller than V100
    }
}
