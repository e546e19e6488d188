//! Per-layer execution-time model.
//!
//! Convolutions and fully-connected layers run on the systolic array; their
//! compute time comes from the analytic tile/wave cycle model, evaluated
//! per sub-batch iteration (small sub-batches shrink `Gh` and pay more
//! fill/drain overhead — exactly the MBS utilization effect of Fig. 14).
//! Normalization, pooling, activation, and merge layers run on the vector
//! units and are bandwidth bound.
//!
//! Layer time = max(compute, overlappable DRAM time) + serial DRAM time,
//! where the serial component is the weight-gradient partial-sum traffic
//! that the paper notes "cannot be hidden" (§6, MBS-FS discussion).

use mbs_core::{HardwareConfig, LayerTraffic};

use crate::gemm::training_gemms;
use crate::tile::{gemm_cycles, ArrayGeometry, CycleReport};

/// Timing of one layer's forward + backward work.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Layer name.
    pub name: String,
    /// Layer-type tag (`conv`, `fc`, `norm`, `pool`, `sum`, `relu`,
    /// `concat`).
    pub tag: String,
    /// Compute time in seconds (systolic cycles or vector-unit time).
    pub compute_s: f64,
    /// Overlappable DRAM transfer time.
    pub dram_s: f64,
    /// Non-overlappable DRAM time (gradient partial sums).
    pub serial_s: f64,
    /// Resulting layer time: `max(compute, dram) + serial`.
    pub time_s: f64,
    /// Systolic cycles (0 for vector layers).
    pub cycles: u64,
    /// Useful MACs on the systolic array (0 for vector layers).
    pub macs: u64,
}

/// Geometry helper from the hardware configuration.
pub fn geometry(hw: &HardwareConfig) -> ArrayGeometry {
    ArrayGeometry {
        rows: hw.array_rows,
        cols: hw.array_cols,
        tile_rows: hw.tile_rows(),
    }
}

/// Computes the systolic cycle total of one layer across all sub-batch
/// iterations (a full mini-batch), honoring the remainder iteration.
pub fn layer_cycles(
    rec: &LayerTraffic,
    batch: usize,
    geom: ArrayGeometry,
    double_buffered: bool,
    is_first: bool,
) -> CycleReport {
    let mut total = CycleReport::default();
    let sub = rec.sub_batch.min(batch).max(1);
    let full_iters = batch / sub;
    let rem = batch % sub;
    for (count, s) in [(full_iters, sub), (usize::from(rem > 0), rem)] {
        if count == 0 || s == 0 {
            continue;
        }
        let mut per_iter = CycleReport::default();
        for dims in training_gemms(&rec.layer, s, is_first) {
            per_iter.add(gemm_cycles(dims, geom, double_buffered));
        }
        total.cycles += per_iter.cycles * count as u64;
        total.macs += per_iter.macs * count as u64;
        total.idle_cycles += per_iter.idle_cycles * count as u64;
    }
    total
}

/// Computes the time of one layer given its traffic record.
pub fn layer_time(
    rec: &LayerTraffic,
    batch: usize,
    hw: &HardwareConfig,
    double_buffered: bool,
    is_first: bool,
) -> LayerTime {
    let dram_bw = hw.per_core_dram_bw();
    let dram_s = (rec.dram_fwd + rec.dram_bwd) as f64 / dram_bw;
    let serial_s = rec.dram_serial as f64 / dram_bw;

    let (compute_s, cycles, macs) = if rec.layer.kind.is_systolic() {
        let rep = layer_cycles(rec, batch, geometry(hw), double_buffered, is_first);
        (rep.cycles as f64 / hw.clock_hz, rep.cycles, rep.macs)
    } else {
        // Vector units: roughly three element passes (forward statistics /
        // apply, backward gradient) bounded by lane throughput and the
        // global-buffer bandwidth that feeds them.
        let ops = 3.0 * rec.layer.forward_macs() as f64 * batch as f64;
        let vec_s = ops / (hw.vector_lanes as f64 * hw.clock_hz);
        let bytes = (rec.gbuf_fwd + rec.gbuf_bwd + rec.dram_fwd + rec.dram_bwd) as f64;
        let gbuf_s = bytes / hw.gbuf_bw_bytes;
        (vec_s.max(gbuf_s), 0, 0)
    };

    let time_s = compute_s.max(dram_s) + serial_s;
    LayerTime {
        name: rec.layer.name.clone(),
        tag: rec.layer.kind.type_tag().to_owned(),
        compute_s,
        dram_s,
        serial_s,
        time_s,
        cycles,
        macs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_cnn::networks::resnet;
    use mbs_core::{analyze, ExecConfig, MbsScheduler};

    fn records(cfg: ExecConfig) -> (Vec<LayerTraffic>, usize, HardwareConfig) {
        let net = resnet(50);
        let hw = HardwareConfig::default();
        let s = MbsScheduler::new(&net, &hw, cfg).schedule();
        let t = analyze(&net, &s, hw.global_buffer_bytes);
        (t.layers, s.batch(), hw)
    }

    #[test]
    fn conv_layers_are_systolic_with_macs() {
        let (recs, batch, hw) = records(ExecConfig::ArchOpt);
        let conv = recs.iter().find(|r| r.layer.kind.is_systolic()).unwrap();
        let t = layer_time(conv, batch, &hw, true, true);
        assert!(t.cycles > 0);
        assert!(t.macs > 0);
        assert!(t.compute_s > 0.0);
    }

    #[test]
    fn double_buffering_speeds_up_compute() {
        let (recs, batch, hw) = records(ExecConfig::Baseline);
        let conv = recs.iter().find(|r| r.layer.kind.is_systolic()).unwrap();
        let base = layer_time(conv, batch, &hw, false, false);
        let opt = layer_time(conv, batch, &hw, true, false);
        assert!(opt.cycles < base.cycles);
    }

    #[test]
    fn vector_layers_have_no_cycles() {
        let (recs, batch, hw) = records(ExecConfig::ArchOpt);
        let norm = recs
            .iter()
            .find(|r| r.layer.kind.type_tag() == "norm")
            .unwrap();
        let t = layer_time(norm, batch, &hw, true, false);
        assert_eq!(t.cycles, 0);
        assert!(t.compute_s > 0.0);
    }

    #[test]
    fn serial_time_appears_only_with_iterations() {
        let (recs, batch, hw) = records(ExecConfig::MbsFs);
        let conv = recs
            .iter()
            .find(|r| r.layer.kind.is_systolic() && r.iterations > 1)
            .unwrap();
        let t = layer_time(conv, batch, &hw, true, false);
        assert!(t.serial_s > 0.0);
        assert!((t.time_s - (t.compute_s.max(t.dram_s) + t.serial_s)).abs() < 1e-12);
    }

    #[test]
    fn remainder_iteration_counts_cycles() {
        // sub_batch 5 over batch 8: one full + one remainder iteration.
        let (recs, _, hw) = records(ExecConfig::ArchOpt);
        let conv = recs.iter().find(|r| r.layer.kind.is_systolic()).unwrap();
        let mut rec = conv.clone();
        rec.sub_batch = 5;
        let five_three = layer_cycles(&rec, 8, geometry(&hw), true, false);
        rec.sub_batch = 8;
        let eight = layer_cycles(&rec, 8, geometry(&hw), true, false);
        assert_eq!(five_three.macs, eight.macs);
        assert!(five_three.cycles >= eight.cycles);
    }
}
