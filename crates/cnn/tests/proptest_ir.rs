//! Property-based tests of the CNN IR: shape inference and statistics stay
//! coherent over randomized layer stacks.

use proptest::prelude::*;

use mbs_cnn::networks::toy::conv_chain;
use mbs_cnn::stats::{backward_store_bytes, layer_footprints, reuse_summary};
use mbs_cnn::{FeatureShape, Layer, PoolKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conv shape inference matches the closed-form extent formula for any
    /// geometry where the kernel fits.
    #[test]
    fn conv_extent_formula(
        h in 4usize..64,
        w in 4usize..64,
        kernel in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
        ci in 1usize..16,
        co in 1usize..16,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let input = FeatureShape::new(ci, h, w);
        let conv = Layer::conv("c", input, co, kernel, stride, pad).unwrap();
        prop_assert_eq!(conv.output.height, (h + 2 * pad - kernel) / stride + 1);
        prop_assert_eq!(conv.output.width, (w + 2 * pad - kernel) / stride + 1);
        prop_assert_eq!(conv.output.channels, co);
        // MACs = out elems x kernel volume x input channels.
        prop_assert_eq!(
            conv.forward_macs(),
            conv.output.elems() * ci * kernel * kernel
        );
    }

    /// Pooling preserves channels and never grows the spatial extent when
    /// unpadded.
    #[test]
    fn pooling_shrinks(
        h in 4usize..40,
        kernel in 2usize..4,
        stride in 1usize..4,
    ) {
        prop_assume!(h >= kernel);
        let input = FeatureShape::new(8, h, h);
        let pool = Layer::pool("p", input, PoolKind::Max, kernel, stride, 0).unwrap();
        prop_assert_eq!(pool.output.channels, 8);
        prop_assert!(pool.output.height <= h);
    }

    /// Footprints scale linearly with batch; parameters do not.
    #[test]
    fn footprints_scale_with_batch(
        widths in proptest::collection::vec(2usize..32, 1..5),
        batch in 1usize..16,
    ) {
        let net = conv_chain(&widths, FeatureShape::new(3, 32, 32), batch);
        let f1 = layer_footprints(&net, 1);
        let fb = layer_footprints(&net, batch);
        for (a, b) in f1.iter().zip(&fb) {
            prop_assert_eq!(a.inter_layer_bytes * batch, b.inter_layer_bytes);
            prop_assert_eq!(a.param_bytes, b.param_bytes);
        }
    }

    /// Reuse percentage is monotone in buffer size and bounded by 100.
    #[test]
    fn reuse_is_monotone_in_buffer(
        widths in proptest::collection::vec(2usize..32, 1..4),
        buf_kib in 16usize..4096,
    ) {
        let net = conv_chain(&widths, FeatureShape::new(3, 32, 32), 8);
        let small = reuse_summary(&net, 8, buf_kib * 1024);
        let large = reuse_summary(&net, 8, buf_kib * 2048);
        prop_assert!(small.reusable_pct <= large.reusable_pct + 1e-9);
        prop_assert!(large.reusable_pct <= 100.0);
    }

    /// Backward stores never exceed total inter-layer data.
    #[test]
    fn backward_stores_bounded(
        widths in proptest::collection::vec(2usize..32, 1..4),
        batch in 1usize..8,
    ) {
        let net = conv_chain(&widths, FeatureShape::new(3, 32, 32), batch);
        let stores = backward_store_bytes(&net, batch);
        let total: usize = layer_footprints(&net, batch)
            .iter()
            .map(|f| f.inter_layer_bytes)
            .sum();
        prop_assert!(stores <= total);
    }
}
