//! Per-layer footprint statistics (the paper's Fig. 3 analysis).

use serde::Serialize;

use crate::layer::Layer;
use crate::network::Network;

/// Footprint of one layer for a given mini-batch size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LayerFootprint {
    /// Layer name.
    pub name: String,
    /// Layer type tag (`conv`, `norm`, ...).
    pub kind: String,
    /// Inter-layer data (input + output features) bytes for the whole
    /// mini-batch.
    pub inter_layer_bytes: usize,
    /// Parameter bytes.
    pub param_bytes: usize,
}

/// Computes the per-layer footprints of `net` for a mini-batch of `batch`
/// samples, in execution order.
///
/// # Examples
///
/// ```
/// use mbs_cnn::{networks::resnet, stats};
///
/// let fp = stats::layer_footprints(&resnet(50), 32);
/// assert!(fp.len() > 100); // >100 layers in ResNet50
/// ```
pub fn layer_footprints(net: &Network, batch: usize) -> Vec<LayerFootprint> {
    net.layers().map(|l| layer_footprint(l, batch)).collect()
}

fn layer_footprint(layer: &Layer, batch: usize) -> LayerFootprint {
    LayerFootprint {
        name: layer.name.clone(),
        kind: layer.kind.type_tag().to_owned(),
        inter_layer_bytes: layer.inter_layer_bytes() * batch,
        param_bytes: layer.param_bytes(),
    }
}

/// Summary of how much inter-layer data a given on-chip buffer could reuse
/// under conventional (whole-mini-batch) training — the paper's "only 9.3%
/// of inter-layer data can be reused even with 10MiB" observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReuseSummary {
    /// Total inter-layer bytes across all layers.
    pub total_inter_layer_bytes: usize,
    /// Inter-layer bytes belonging to layers whose whole-mini-batch
    /// footprint fits in the buffer.
    pub reusable_bytes: usize,
    /// `reusable / total` as a percentage.
    pub reusable_pct: f64,
}

/// Computes the fraction of inter-layer data reusable on chip when whole
/// mini-batch footprints must fit in `buffer_bytes`.
pub fn reuse_summary(net: &Network, batch: usize, buffer_bytes: usize) -> ReuseSummary {
    let fps = layer_footprints(net, batch);
    let total: usize = fps.iter().map(|f| f.inter_layer_bytes).sum();
    let reusable: usize = fps
        .iter()
        .filter(|f| f.inter_layer_bytes <= buffer_bytes)
        .map(|f| f.inter_layer_bytes)
        .sum();
    ReuseSummary {
        total_inter_layer_bytes: total,
        reusable_bytes: reusable,
        reusable_pct: if total == 0 {
            0.0
        } else {
            100.0 * reusable as f64 / total as f64
        },
    }
}

/// Total bytes of all feature maps that must be stored during the forward
/// pass for reuse in back propagation (conv/FC/norm/max-pool inputs), for
/// one mini-batch.
pub fn backward_store_bytes(net: &Network, batch: usize) -> usize {
    net.layers()
        .filter(|l| l.kind.needs_input_in_backward())
        .map(|l| l.input_bytes() * batch)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks::{resnet, toy};

    #[test]
    fn footprints_scale_linearly_with_batch() {
        let net = toy::fig1_toy();
        let f1 = layer_footprints(&net, 1);
        let f8 = layer_footprints(&net, 8);
        for (a, b) in f1.iter().zip(&f8) {
            assert_eq!(a.inter_layer_bytes * 8, b.inter_layer_bytes);
            assert_eq!(a.param_bytes, b.param_bytes);
        }
    }

    #[test]
    fn resnet50_reuse_under_10mib_is_small() {
        // Paper Fig. 3: only ~9.3% of ResNet50 inter-layer data fits a
        // 10MiB buffer at mini-batch 32. Our layer decomposition differs
        // slightly (norm/relu counted separately), so allow a band.
        let s = reuse_summary(&resnet(50), 32, 10 * 1024 * 1024);
        assert!(s.reusable_pct < 25.0, "reusable {:.1}%", s.reusable_pct);
        assert!(s.reusable_pct > 0.0);
    }

    #[test]
    fn larger_buffer_reuses_more() {
        let net = resnet(50);
        let small = reuse_summary(&net, 32, 5 * 1024 * 1024);
        let large = reuse_summary(&net, 32, 40 * 1024 * 1024);
        assert!(large.reusable_bytes > small.reusable_bytes);
    }

    #[test]
    fn backward_stores_are_positive_and_below_total() {
        let net = resnet(50);
        let stores = backward_store_bytes(&net, 32);
        let total: usize = layer_footprints(&net, 32)
            .iter()
            .map(|f| f.inter_layer_bytes)
            .sum();
        assert!(stores > 0);
        assert!(stores < total);
    }
}
