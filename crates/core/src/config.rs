//! Execution configurations (paper Tab. 3) and hardware/memory
//! configurations (paper Tab. 4 and §4.2).

use mbs_tensor::env::parse_byte_size;
use mbs_tensor::prec::Precision;
use serde::{Deserialize, Serialize};

/// The six execution configurations evaluated in the paper (Tab. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecConfig {
    /// Two-level GEMM input blocking only; no inter-layer reuse, and the
    /// systolic array pays the weight-load idle time between waves.
    Baseline,
    /// `Baseline` + per-PE weight double buffering (gap-less waves). All
    /// subsequent configurations build on `ArchOpt`.
    ArchOpt,
    /// `ArchOpt` + inter-layer reuse, but only when the whole-mini-batch
    /// footprint of adjacent layers fits the global buffer (prior-work
    /// style, no serialization).
    InterLayer,
    /// Naive MBS: the full network is one group with a single sub-batch
    /// size picked to fit the largest layer.
    MbsFs,
    /// MBS with greedy layer grouping balancing intra-/inter-layer reuse.
    Mbs1,
    /// `Mbs1` + inter-branch data reuse inside residual/inception blocks
    /// (buffer provisioning per paper Eq. 1/Eq. 2).
    Mbs2,
}

impl ExecConfig {
    /// All configurations in the paper's presentation order.
    pub fn all() -> [ExecConfig; 6] {
        [
            ExecConfig::Baseline,
            ExecConfig::ArchOpt,
            ExecConfig::InterLayer,
            ExecConfig::MbsFs,
            ExecConfig::Mbs1,
            ExecConfig::Mbs2,
        ]
    }

    /// Display label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ExecConfig::Baseline => "Baseline",
            ExecConfig::ArchOpt => "ArchOpt",
            ExecConfig::InterLayer => "IL",
            ExecConfig::MbsFs => "MBS-FS",
            ExecConfig::Mbs1 => "MBS1",
            ExecConfig::Mbs2 => "MBS2",
        }
    }

    /// One-line description (paper Tab. 3).
    pub fn description(&self) -> &'static str {
        match self {
            ExecConfig::Baseline => "2-level GEMM blocking",
            ExecConfig::ArchOpt => "Baseline + weight double buffering",
            ExecConfig::InterLayer => "ArchOpt + inter-layer data reuse",
            ExecConfig::MbsFs => "IL + serialize all layers using the same sub-batch size",
            ExecConfig::Mbs1 => "IL + greedy layer grouping",
            ExecConfig::Mbs2 => "MBS1 + inter-branch data reuse",
        }
    }

    /// Whether the systolic array double-buffers weights (everything except
    /// `Baseline`).
    pub fn double_buffering(&self) -> bool {
        !matches!(self, ExecConfig::Baseline)
    }

    /// Whether producer→consumer tensors may stay on chip at all.
    pub fn inter_layer_reuse(&self) -> bool {
        !matches!(self, ExecConfig::Baseline | ExecConfig::ArchOpt)
    }

    /// Whether the mini-batch is serialized into sub-batches.
    pub fn is_mbs(&self) -> bool {
        matches!(
            self,
            ExecConfig::MbsFs | ExecConfig::Mbs1 | ExecConfig::Mbs2
        )
    }

    /// Whether multi-branch block data (shared inputs, merge operands) is
    /// kept on chip (paper Eq. 1 / Eq. 2 provisioning).
    pub fn branch_reuse(&self) -> bool {
        matches!(self, ExecConfig::Mbs2)
    }
}

impl std::fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Off-chip memory technologies evaluated in the paper (Tab. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryKind {
    /// One HBM2 stack: 300 GiB/s, 8 GiB, 8 channels (default).
    Hbm2,
    /// Two HBM2 stacks: 600 GiB/s, 16 GiB.
    Hbm2X2,
    /// Twelve GDDR5 chips: 384 GiB/s, 12 GiB.
    Gddr5,
    /// Eight LPDDR4 chips: 239.2 GiB/s, 16 GiB.
    Lpddr4,
}

/// A concrete off-chip memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Technology.
    pub kind: MemoryKind,
    /// Bandwidth of one chip/stack in GiB/s.
    pub per_chip_gib_s: f64,
    /// Number of chips/stacks.
    pub chips: usize,
    /// Capacity per chip in GiB.
    pub per_chip_capacity_gib: f64,
    /// DRAM access energy in picojoules per bit (paper §4.2 cites the
    /// Rambus power model; values are representative per technology).
    pub pj_per_bit: f64,
}

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

impl MemoryConfig {
    /// Builds the paper's Tab. 4 configuration for `kind`.
    pub fn preset(kind: MemoryKind) -> Self {
        match kind {
            MemoryKind::Hbm2 => Self {
                kind,
                per_chip_gib_s: 300.0,
                chips: 1,
                per_chip_capacity_gib: 8.0,
                pj_per_bit: 7.0,
            },
            MemoryKind::Hbm2X2 => Self {
                kind,
                per_chip_gib_s: 300.0,
                chips: 2,
                per_chip_capacity_gib: 8.0,
                pj_per_bit: 7.0,
            },
            MemoryKind::Gddr5 => Self {
                kind,
                per_chip_gib_s: 32.0,
                chips: 12,
                per_chip_capacity_gib: 1.0,
                pj_per_bit: 14.0,
            },
            MemoryKind::Lpddr4 => Self {
                kind,
                per_chip_gib_s: 29.9,
                chips: 8,
                per_chip_capacity_gib: 2.0,
                pj_per_bit: 5.0,
            },
        }
    }

    /// Total bandwidth in bytes per second.
    pub fn total_bw_bytes(&self) -> f64 {
        self.per_chip_gib_s * self.chips as f64 * GIB
    }

    /// Total bandwidth in GiB/s (Tab. 4's "Total BW" column).
    pub fn total_bw_gib_s(&self) -> f64 {
        self.per_chip_gib_s * self.chips as f64
    }

    /// Total capacity in GiB.
    pub fn total_capacity_gib(&self) -> f64 {
        self.per_chip_capacity_gib * self.chips as f64
    }
}

/// WaveCore hardware parameters (paper §4.2, Fig. 9, Tab. 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareConfig {
    /// Global buffer bytes per core (default 10 MiB).
    pub global_buffer_bytes: usize,
    /// Number of cores on the chip (default 2, as in TPU v2).
    pub cores: usize,
    /// Systolic array height (K direction; weights shift down this many
    /// rows), default 128.
    pub array_rows: usize,
    /// Systolic array width (output columns), default 128.
    pub array_cols: usize,
    /// Half-buffer bytes for the streamed `A` operand (default 64 KiB);
    /// determines the GEMM tile height `m`.
    pub local_a_buffer_bytes: usize,
    /// Clock frequency in Hz (default 0.7 GHz).
    pub clock_hz: f64,
    /// Global-buffer bandwidth per core in bytes/s (Fig. 9: 501 GiB/s).
    pub gbuf_bw_bytes: f64,
    /// Vector lanes per core for norm/pool/activation layers.
    pub vector_lanes: usize,
    /// Off-chip memory.
    pub memory: MemoryConfig,
}

impl HardwareConfig {
    /// The paper's default WaveCore: 2 cores, 10 MiB global buffer per
    /// core, 128×128 array, one HBM2 stack.
    pub fn new() -> Self {
        Self {
            global_buffer_bytes: 10 * 1024 * 1024,
            cores: 2,
            array_rows: 128,
            array_cols: 128,
            local_a_buffer_bytes: 64 * 1024,
            clock_hz: 0.7e9,
            gbuf_bw_bytes: 501.0 * GIB,
            vector_lanes: 1024,
            memory: MemoryConfig::preset(MemoryKind::Hbm2),
        }
    }

    /// A CPU preset for driving the **training runtime** with the
    /// scheduler: one core, and a global buffer sized from the machine's
    /// last-level cache so [`crate::footprint::max_sub_batch`] sizes
    /// groups against the actual LLC instead of the paper's 10 MiB GPU
    /// SRAM.
    ///
    /// The LLC byte budget comes from `MBS_CACHE_BUDGET` when set (plain
    /// bytes, or with a `K`/`M`/`G` suffix, e.g. `MBS_CACHE_BUDGET=16M`),
    /// else from sysfs cache topology on Linux, else an 8 MiB fallback.
    /// The runtime precision comes from the `MBS_PREC` knob
    /// ([`mbs_tensor::ops::Exec::process`]); see
    /// [`HardwareConfig::cpu_with_precision`] for how it scales the
    /// modeled buffer.
    pub fn cpu() -> Self {
        Self::cpu_with_precision(mbs_tensor::ops::Exec::process().precision)
    }

    /// [`HardwareConfig::cpu`] with an explicit runtime precision instead
    /// of the process-wide `MBS_PREC` knob.
    ///
    /// The footprint model counts [`crate::WORD_BYTES`]-byte (16-bit)
    /// words — the paper accelerator's datapath width — while the CPU
    /// runtime stores packed operands and caches at `prec`. The modeled
    /// buffer is therefore the byte budget scaled by
    /// `WORD_BYTES / prec.word_bytes()`: **half** the budget at f32
    /// (every modeled word occupies two runtime words' worth of cache)
    /// and the **full** budget at bf16 (the runtime matches the model's
    /// 16-bit words exactly, so no correction is needed). A group the
    /// model says fits then genuinely fits the cache at the precision the
    /// runtime actually uses.
    pub fn cpu_with_precision(prec: Precision) -> Self {
        let budget = cache_budget_bytes();
        let modeled = budget.saturating_mul(crate::WORD_BYTES) / prec.word_bytes();
        Self {
            global_buffer_bytes: modeled.max(1),
            cores: 1,
            ..Self::new()
        }
    }

    /// Same hardware with a different memory system.
    pub fn with_memory(mut self, kind: MemoryKind) -> Self {
        self.memory = MemoryConfig::preset(kind);
        self
    }

    /// Same hardware with a different per-core global buffer size.
    pub fn with_global_buffer(mut self, bytes: usize) -> Self {
        self.global_buffer_bytes = bytes;
        self
    }

    /// DRAM bandwidth available to one core (channels are split evenly
    /// between the cores, paper §4.2).
    pub fn per_core_dram_bw(&self) -> f64 {
        self.memory.total_bw_bytes() / self.cores as f64
    }

    /// GEMM tile height `m = local A buffer / array_rows` in 16-bit words
    /// (paper Fig. 7).
    pub fn tile_rows(&self) -> usize {
        self.local_a_buffer_bytes / (self.array_rows * crate::WORD_BYTES)
    }

    /// Peak multiply-accumulate throughput of one core in MAC/s.
    pub fn peak_macs_per_core(&self) -> f64 {
        (self.array_rows * self.array_cols) as f64 * self.clock_hz
    }
}

impl Default for HardwareConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The CPU cache budget in bytes: the `MBS_CACHE_BUDGET` override when
/// set and parseable, else the detected last-level cache size, else 8 MiB.
/// Malformed or zero values warn and fall back to detection (the shared
/// `MBS_*` knob discipline, `mbs_tensor::env`).
pub fn cache_budget_bytes() -> usize {
    mbs_tensor::env::knob(
        "MBS_CACHE_BUDGET",
        "a positive byte size (e.g. 8388608, 8192K, or 8M)",
        |s| parse_byte_size(s).filter(|&b| b > 0),
    )
    .unwrap_or_else(|| detect_llc_bytes().unwrap_or(8 * 1024 * 1024))
}

/// Largest cache reported by sysfs for cpu0 (the LLC) on Linux; `None`
/// elsewhere or when the topology is unreadable.
fn detect_llc_bytes() -> Option<usize> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<usize> = None;
    for entry in std::fs::read_dir(base).ok()? {
        // One unreadable entry must not discard sizes already found.
        let Ok(entry) = entry else { continue };
        let size = std::fs::read_to_string(entry.path().join("size")).ok();
        if let Some(bytes) = size.as_deref().and_then(parse_byte_size) {
            best = Some(best.map_or(bytes, |b| b.max(bytes)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_flags_follow_tab3() {
        assert!(!ExecConfig::Baseline.double_buffering());
        assert!(ExecConfig::ArchOpt.double_buffering());
        assert!(!ExecConfig::ArchOpt.inter_layer_reuse());
        assert!(ExecConfig::InterLayer.inter_layer_reuse());
        assert!(!ExecConfig::InterLayer.is_mbs());
        assert!(ExecConfig::MbsFs.is_mbs());
        assert!(!ExecConfig::Mbs1.branch_reuse());
        assert!(ExecConfig::Mbs2.branch_reuse());
    }

    #[test]
    fn memory_totals_match_tab4() {
        assert_eq!(
            MemoryConfig::preset(MemoryKind::Hbm2).total_bw_gib_s(),
            300.0
        );
        assert_eq!(
            MemoryConfig::preset(MemoryKind::Hbm2X2).total_bw_gib_s(),
            600.0
        );
        assert_eq!(
            MemoryConfig::preset(MemoryKind::Gddr5).total_bw_gib_s(),
            384.0
        );
        let lp = MemoryConfig::preset(MemoryKind::Lpddr4);
        assert!((lp.total_bw_gib_s() - 239.2).abs() < 1e-9);
        assert_eq!(lp.total_capacity_gib(), 16.0);
    }

    #[test]
    fn default_hardware_matches_paper() {
        let hw = HardwareConfig::default();
        assert_eq!(hw.global_buffer_bytes, 10 * 1024 * 1024);
        assert_eq!(hw.tile_rows(), 256);
        // 45 TOPS/chip = 2 ops/MAC * 2 cores * 128*128 PEs * 0.7 GHz
        let tops = 2.0 * hw.cores as f64 * hw.peak_macs_per_core() / 1e12;
        assert!((tops - 45.9).abs() < 0.1, "tops {tops}");
    }

    #[test]
    fn per_core_bandwidth_is_half_chip() {
        let hw = HardwareConfig::default();
        assert!((hw.per_core_dram_bw() * 2.0 - hw.memory.total_bw_bytes()).abs() < 1.0);
    }

    #[test]
    fn byte_size_parsing() {
        assert_eq!(parse_byte_size("8388608"), Some(8 * 1024 * 1024));
        assert_eq!(parse_byte_size("8192K"), Some(8 * 1024 * 1024));
        assert_eq!(parse_byte_size(" 8M "), Some(8 * 1024 * 1024));
        assert_eq!(parse_byte_size("1g"), Some(1 << 30));
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size(""), None);
        // Suffixed products that overflow usize are rejected, not wrapped.
        assert_eq!(parse_byte_size("18446744073709551615G"), None);
        assert_eq!(parse_byte_size(&format!("{}G", usize::MAX >> 29)), None);
    }

    #[test]
    fn cpu_preset_scales_the_byte_budget_by_precision() {
        let budget = cache_budget_bytes();
        // f32 runtime words are twice the model's 16-bit words: budget/2.
        let f32_hw = HardwareConfig::cpu_with_precision(Precision::F32);
        assert_eq!(f32_hw.cores, 1);
        assert_eq!(f32_hw.global_buffer_bytes, (budget / 2).max(1));
        // bf16 runtime words match the model's words: the full budget.
        let bf16_hw = HardwareConfig::cpu_with_precision(Precision::Bf16);
        assert_eq!(bf16_hw.global_buffer_bytes, budget.max(1));
        // cpu() follows the active MBS_PREC knob.
        let hw = HardwareConfig::cpu();
        assert_eq!(
            hw.global_buffer_bytes,
            HardwareConfig::cpu_with_precision(mbs_tensor::ops::Exec::process().precision)
                .global_buffer_bytes
        );
    }

    #[test]
    fn bf16_budget_grows_max_sub_batch() {
        // The larger modeled buffer at bf16 feeds straight into sub-batch
        // sizing: at least twice the f32 sub-batch for the same footprint.
        let per_sample = 1024;
        let (s32, _) = crate::footprint::max_sub_batch(
            per_sample,
            HardwareConfig::cpu_with_precision(Precision::F32).global_buffer_bytes,
        );
        let (s16, _) = crate::footprint::max_sub_batch(
            per_sample,
            HardwareConfig::cpu_with_precision(Precision::Bf16).global_buffer_bytes,
        );
        assert!(s16 >= 2 * s32, "bf16 {s16} vs f32 {s32}");
        assert!(s16 > s32);
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = ExecConfig::all().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            ["Baseline", "ArchOpt", "IL", "MBS-FS", "MBS1", "MBS2"]
        );
        for c in ExecConfig::all() {
            assert!(!c.description().is_empty());
        }
    }
}
