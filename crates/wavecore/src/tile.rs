//! Analytic cycle model for the systolic array: GEMM tiling, waves, and the
//! inter-wave idle time removed by weight double buffering (paper §4.1,
//! Figs. 7 and 8).
//!
//! A GEMM is blocked into `m×n` output tiles (`n` = array width, `m` =
//! local-buffer rows). Each tile is computed in `ceil(K/k)` waves; a wave
//! pre-loads a `k×n` block of B (weights) and streams `m` rows of A through
//! the array. Without double buffering the array idles for the `k`-cycle
//! weight load between waves; with the extra per-PE register the next
//! wave's weights load *during* the current wave, so a whole tile runs
//! gap-free (modulo short tiles whose stream time cannot cover the load).

use crate::gemm::GemmDims;

/// Systolic-array geometry used by the cycle model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayGeometry {
    /// Array height `k` (reduction direction).
    pub rows: usize,
    /// Array width `n` (output columns).
    pub cols: usize,
    /// Tile height `m` (rows of A streamed per wave; local-buffer bound).
    pub tile_rows: usize,
}

impl ArrayGeometry {
    /// WaveCore's geometry: 128×128 array, 256-row tiles (64 KiB A buffer).
    pub fn wavecore() -> Self {
        Self {
            rows: 128,
            cols: 128,
            tile_rows: 256,
        }
    }

    /// Number of processing elements.
    pub fn pes(&self) -> usize {
        self.rows * self.cols
    }
}

/// Cycle accounting for one GEMM on the systolic array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleReport {
    /// Total cycles including fills, stalls, and drains.
    pub cycles: u64,
    /// Useful multiply-accumulates.
    pub macs: u64,
    /// Cycles lost to weight loads that compute cannot hide.
    pub idle_cycles: u64,
}

impl CycleReport {
    /// Compute-unit utilization: useful MACs over PE-cycles.
    pub fn utilization(&self, geometry: ArrayGeometry) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * geometry.pes() as f64)
    }

    /// Accumulates another report.
    pub fn add(&mut self, other: CycleReport) {
        self.cycles += other.cycles;
        self.macs += other.macs;
        self.idle_cycles += other.idle_cycles;
    }
}

/// Cycles to execute `dims` on the array, with or without weight double
/// buffering.
///
/// Consecutive tiles of one GEMM pipeline through the array back to back:
/// the initial weight fill and the final drain are paid once per GEMM,
/// while per-wave weight loads are paid every wave without double
/// buffering and only when a wave's stream is too short to hide the next
/// load with it (see [`gemm_cycles_isolated`] for the per-tile view the
/// functional simulator reproduces exactly).
///
/// # Examples
///
/// ```
/// use mbs_wavecore::gemm::GemmDims;
/// use mbs_wavecore::tile::{gemm_cycles, ArrayGeometry};
///
/// let g = ArrayGeometry::wavecore();
/// let dims = GemmDims::new(4096, 256, 512);
/// let base = gemm_cycles(dims, g, false);
/// let opt = gemm_cycles(dims, g, true);
/// assert!(opt.cycles < base.cycles); // double buffering removes idle time
/// assert_eq!(opt.macs, base.macs);
/// ```
pub fn gemm_cycles(dims: GemmDims, g: ArrayGeometry, double_buffered: bool) -> CycleReport {
    let mut report = CycleReport::default();
    if dims.gh == 0 || dims.gw == 0 || dims.k == 0 {
        return report;
    }
    // Column folding for narrow GEMMs: when the output width uses at most
    // half the array, several K-blocks are packed side by side and their
    // partial sums reduced in the accumulation buffer, multiplying the
    // reduction depth handled per wave. Each column still shifts its own
    // weights in, so the load time per wave is the per-column depth.
    let fold = if dims.gw * 2 <= g.cols {
        g.cols / dims.gw
    } else {
        1
    };
    let k_per_wave = g.rows * fold;
    let waves = dims.k.div_ceil(k_per_wave);
    let mut first_wave = true;
    let mut prev_stream = 0u64;
    let mut n_last = 0u64;
    let mut col = 0;
    while col < dims.gw {
        let n_t = (dims.gw - col).min(g.cols);
        n_last = ((n_t * fold).min(g.cols)) as u64;
        let mut row = 0;
        while row < dims.gh {
            let m_t = ((dims.gh - row).min(g.tile_rows)) as u64;
            for w in 0..waves {
                let k_chunk = (dims.k - w * k_per_wave).min(k_per_wave);
                let k_t = (k_chunk.div_ceil(fold).min(g.rows)) as u64;
                if double_buffered && !first_wave {
                    // The load ran during the previous wave's stream; any
                    // uncovered remainder stalls the array.
                    let stall = k_t.saturating_sub(prev_stream);
                    report.cycles += stall;
                    report.idle_cycles += stall;
                } else {
                    report.cycles += k_t;
                    report.idle_cycles += k_t;
                }
                report.cycles += m_t;
                prev_stream = m_t;
                first_wave = false;
            }
            row += m_t as usize;
        }
        col += n_t;
    }
    // The last wave's results travel down the physical array and across
    // the used columns.
    let drain = g.rows as u64 + n_last.saturating_sub(1);
    report.cycles += drain;
    report.idle_cycles += drain;
    report.macs = dims.macs();
    report
}

/// Per-GEMM cycles when every tile is processed in isolation (fill and
/// drain paid per tile). This is exactly what [`crate::systolic`]'s
/// register-level simulator does, so tests compare against this composition
/// rather than the pipelined [`gemm_cycles`].
pub fn gemm_cycles_isolated(
    dims: GemmDims,
    g: ArrayGeometry,
    double_buffered: bool,
) -> CycleReport {
    let mut report = CycleReport::default();
    if dims.gh == 0 || dims.gw == 0 || dims.k == 0 {
        return report;
    }
    let waves = dims.k.div_ceil(g.rows);
    let mut col = 0;
    while col < dims.gw {
        let n_t = (dims.gw - col).min(g.cols);
        let mut row = 0;
        while row < dims.gh {
            let m_t = (dims.gh - row).min(g.tile_rows);
            report.add(tile_cycles_isolated(
                dims.k,
                waves,
                m_t,
                n_t,
                g,
                double_buffered,
            ));
            row += m_t;
        }
        col += n_t;
    }
    report.macs = dims.macs();
    report
}

/// Cycle count of one isolated `m_t × n_t` tile (fill + waves + drain).
fn tile_cycles_isolated(
    k_total: usize,
    waves: usize,
    m_t: usize,
    n_t: usize,
    g: ArrayGeometry,
    double_buffered: bool,
) -> CycleReport {
    let mut cycles = 0u64;
    let mut idle = 0u64;
    for w in 0..waves {
        let k_t = (k_total - w * g.rows).min(g.rows) as u64;
        if double_buffered {
            if w == 0 {
                // Initial fill of the first weight block.
                cycles += k_t;
                idle += k_t;
            } else {
                // The next block loaded during the previous wave's stream;
                // any part the stream could not cover stalls the array.
                let stall = k_t.saturating_sub(m_t as u64);
                cycles += stall;
                idle += stall;
            }
            cycles += m_t as u64;
        } else {
            // Weight shift-in serializes with compute every wave (Fig. 8b
            // top).
            cycles += k_t + m_t as u64;
            idle += k_t;
        }
    }
    // Pipeline drain: the last input row's partial sums travel down the
    // array's physical height and across the tile's columns.
    let drain = (g.rows + n_t - 1) as u64;
    cycles += drain;
    idle += drain;
    CycleReport {
        cycles,
        macs: 0,
        idle_cycles: idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> ArrayGeometry {
        ArrayGeometry::wavecore()
    }

    #[test]
    fn full_tile_utilization_bounds() {
        // One full tile, K = 4 waves: baseline utilization ~ m/(m+k).
        let dims = GemmDims::new(256, 128, 512);
        let base = gemm_cycles(dims, g(), false);
        let expect = 4 * (128 + 256) + (128 + 128 - 1);
        assert_eq!(base.cycles, expect as u64);
        let opt = gemm_cycles(dims, g(), true);
        assert_eq!(opt.cycles, (128 + 4 * 256 + 255) as u64);
        assert!(opt.utilization(g()) > base.utilization(g()));
    }

    #[test]
    fn double_buffering_never_slower() {
        for (gh, gw, k) in [
            (100, 64, 64),
            (1000, 256, 576),
            (9, 1000, 4608),
            (64, 4096, 9216),
        ] {
            let dims = GemmDims::new(gh, gw, k);
            let base = gemm_cycles(dims, g(), false);
            let opt = gemm_cycles(dims, g(), true);
            assert!(opt.cycles <= base.cycles, "{dims:?}");
            assert_eq!(opt.macs, base.macs);
        }
    }

    #[test]
    fn short_tiles_still_stall_with_double_buffering() {
        // m_t = 9 rows cannot hide a 128-cycle weight load.
        let dims = GemmDims::new(9, 128, 512);
        let opt = gemm_cycles(dims, g(), true);
        // waves = 4: fill 128 + 3 stalls of (128-9) + 4*9 + drain 255
        assert_eq!(opt.cycles, 128 + 3 * 119 + 4 * 9 + 255);
    }

    #[test]
    fn utilization_approaches_one_for_huge_gemms() {
        let dims = GemmDims::new(1 << 16, 1 << 11, 1 << 12);
        let opt = gemm_cycles(dims, g(), true);
        assert!(opt.utilization(g()) > 0.95, "{}", opt.utilization(g()));
    }

    #[test]
    fn empty_gemm_is_free() {
        let r = gemm_cycles(GemmDims::new(0, 128, 128), g(), true);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.macs, 0);
    }

    #[test]
    fn idle_fraction_shrinks_with_double_buffering() {
        let dims = GemmDims::new(4096, 512, 1024);
        let base = gemm_cycles(dims, g(), false);
        let opt = gemm_cycles(dims, g(), true);
        // Double buffering removes the 8 per-wave loads; only the initial
        // fill and the pipeline drain remain.
        assert!(opt.idle_cycles < base.idle_cycles / 2);
    }
}
