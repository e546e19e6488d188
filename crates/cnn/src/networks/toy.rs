//! Small synthetic networks for tests, examples, and property-based fuzzing
//! of the scheduler.

use crate::block::{Block, Node};
use crate::layer::{FeatureShape, Layer, NormKind, PoolKind};
use crate::network::{Network, NetworkBuilder};

use super::{conv_norm, conv_norm_relu};

/// The paper's Fig. 1 toy network: convolutions and pooling whose early
/// layers exceed a small on-chip buffer.
pub fn fig1_toy() -> Network {
    NetworkBuilder::new("Fig1Toy", FeatureShape::new(3, 64, 64), 8)
        .conv("conv1", 16, 3, 1, 1)
        .expect("conv1")
        .relu("relu1")
        .pool("pool1", PoolKind::Max, 2, 2, 0)
        .expect("pool1")
        .conv("conv2", 32, 3, 1, 1)
        .expect("conv2")
        .relu("relu2")
        .pool("pool2", PoolKind::Max, 2, 2, 0)
        .expect("pool2")
        .conv("conv3", 64, 3, 1, 1)
        .expect("conv3")
        .relu("relu3")
        .global_avg_pool("gap")
        .fully_connected("fc", 10)
        .build()
}

/// A small residual network (stem + `blocks` bottleneck-free residual pairs
/// per stage over two stages), useful for exercising block scheduling
/// without ResNet-scale compute.
pub fn tiny_resnet(blocks: usize, default_batch: usize) -> Network {
    let mut b = NetworkBuilder::new(
        format!("TinyResNet{blocks}"),
        FeatureShape::new(3, 32, 32),
        default_batch,
    );
    for l in conv_norm_relu("stem", b.shape(), 16, (3, 3), 1, (1, 1)) {
        b = b.push(Node::Single(l));
    }
    for stage in 0..2 {
        let channels = 16 << stage;
        for i in 0..blocks {
            let input = b.shape();
            let stride = if stage > 0 && i == 0 { 2 } else { 1 };
            let name = format!("res{stage}_{i}");
            let mut main = conv_norm_relu(
                &format!("{name}.1"),
                input,
                channels,
                (3, 3),
                stride,
                (1, 1),
            );
            let mid = main.last().expect("non-empty").output;
            main.extend(conv_norm(
                &format!("{name}.2"),
                mid,
                channels,
                (3, 3),
                1,
                (1, 1),
            ));
            let shortcut = if stride != 1 || input.channels != channels {
                conv_norm(
                    &format!("{name}.sc"),
                    input,
                    channels,
                    (1, 1),
                    stride,
                    (0, 0),
                )
            } else {
                Vec::new()
            };
            let block = Block::residual(&name, input, main, shortcut)
                .unwrap_or_else(|e| panic!("tiny_resnet block {name}: {e}"));
            b = b.block(block);
        }
    }
    b = b.global_avg_pool("gap");
    b.fully_connected("fc", 10).build()
}

/// The paper's Fig. 6 training model, scaled down: a 3×3 stem conv, two
/// stages of `blocks` two-conv residual blocks (16 and 32 channels, the
/// second stage entering at stride 2, projection shortcuts where the shape
/// changes), then — as in [`super::resnet_custom`] — a top-level norm →
/// ReLU before global average pooling and a `classes`-way classifier, on
/// `size`×`size` RGB inputs. Every conv is followed by a `norm` layer of
/// the given kind; `None` builds the same net without any norm layer (the
/// figure's un-normalized leg).
pub fn fig6_resnet(
    size: usize,
    classes: usize,
    blocks: usize,
    norm: Option<NormKind>,
    default_batch: usize,
) -> Network {
    // Conv (same-padded) followed by the optional norm.
    let conv_norm = |prefix: &str, input: FeatureShape, out: usize, kernel: usize, stride| {
        let conv = Layer::conv(
            format!("{prefix}.conv"),
            input,
            out,
            kernel,
            stride,
            kernel / 2,
        )
        .unwrap_or_else(|e| panic!("fig6_resnet {prefix}: {e}"));
        let shape = conv.output;
        let mut layers = vec![conv];
        layers.extend(norm.map(|kind| Layer::norm(format!("{prefix}.norm"), shape, kind)));
        layers
    };
    let mut b = NetworkBuilder::new(
        format!("Fig6ResNet{blocks}"),
        FeatureShape::new(3, size, size),
        default_batch,
    );
    for l in conv_norm("stem", b.shape(), 16, 3, 1) {
        b = b.push(Node::Single(l));
    }
    b = b.relu("stem.relu");
    for (stage, width) in [16, 32].into_iter().enumerate() {
        for i in 0..blocks {
            let input = b.shape();
            let stride = if stage > 0 && i == 0 { 2 } else { 1 };
            let name = format!("res{stage}_{i}");
            let mut main = conv_norm(&format!("{name}.1"), input, width, 3, stride);
            let mid = main.last().expect("non-empty").output;
            main.push(Layer::relu(format!("{name}.1.relu"), mid));
            main.extend(conv_norm(&format!("{name}.2"), mid, width, 3, 1));
            let shortcut = if stride != 1 || input.channels != width {
                conv_norm(&format!("{name}.sc"), input, width, 1, stride)
            } else {
                Vec::new()
            };
            let block = Block::residual(&name, input, main, shortcut)
                .unwrap_or_else(|e| panic!("fig6_resnet block {name}: {e}"));
            b = b.block(block);
        }
    }
    if let Some(kind) = norm {
        b = b.norm("final.norm", kind);
    }
    b.relu("final.relu")
        .global_avg_pool("gap")
        .fully_connected("fc", classes)
        .build()
}

/// The runtime-lowering showcase: a network that exercises every IR
/// construct the training substrate implements (conv / group norm / ReLU,
/// unpadded max pooling, an identity-shortcut residual block, global
/// average pooling, fully-connected) at a spatial size small enough to
/// train on the CPU in tests and demos. `size` is the square input extent
/// (must be even — the stem pools by 2); `default_batch` is the per-core
/// mini-batch recorded in the IR.
pub fn runtime_mix(size: usize, default_batch: usize) -> Network {
    assert!(
        size >= 4 && size.is_multiple_of(2),
        "size must be even and >= 4"
    );
    let mut b = NetworkBuilder::new(
        "RuntimeMix",
        FeatureShape::new(3, size, size),
        default_batch,
    );
    for l in conv_norm_relu("stem", b.shape(), 8, (3, 3), 1, (1, 1)) {
        b = b.push(Node::Single(l));
    }
    b = b
        .pool("pool1", PoolKind::Max, 2, 2, 0)
        .expect("even input halves cleanly");
    let input = b.shape();
    let mut main = conv_norm_relu("res.1", input, 8, (3, 3), 1, (1, 1));
    main.extend(conv_norm("res.2", input, 8, (3, 3), 1, (1, 1)));
    let block = Block::residual("res", input, main, Vec::new()).expect("shapes are preserved");
    b.block(block)
        .global_avg_pool("gap")
        .fully_connected("fc", 10)
        .build()
}

/// A structurally faithful miniature of Inception v3: a conv stem, one
/// `inception_a`-shaped concat block (1×1 / 3×3 / pooled-projection
/// branches, the pooled branch using the padded 3×3/1 **average** pool),
/// a reduction block whose third branch is a bare max pool, then GAP and
/// the classifier. Exercises every construct full Inception needs from
/// the lowering — `Concat` merges, average pooling, padded pooling —
/// at a size small enough to train in tests. `size` is the square input
/// extent (must be even); `default_batch` is the IR's mini-batch.
pub fn tiny_inception(size: usize, default_batch: usize) -> Network {
    assert!(
        size >= 8 && size.is_multiple_of(2),
        "size must be even and >= 8"
    );
    let mut b = NetworkBuilder::new(
        "TinyInception",
        FeatureShape::new(3, size, size),
        default_batch,
    );
    for l in conv_norm_relu("stem", b.shape(), 8, (3, 3), 1, (1, 1)) {
        b = b.push(Node::Single(l));
    }

    // inception_a in miniature: 1x1, 1x1->3x3, and avg-pool->1x1 branches.
    let input = b.shape();
    let b1 = conv_norm_relu("mix.b1", input, 4, (1, 1), 1, (0, 0));
    let mut b2 = conv_norm_relu("mix.b2a", input, 4, (1, 1), 1, (0, 0));
    b2.extend(conv_norm_relu(
        "mix.b2b",
        b2.last().expect("non-empty").output,
        8,
        (3, 3),
        1,
        (1, 1),
    ));
    let pool = Layer::pool("mix.b3.pool", input, PoolKind::Avg, 3, 1, 1)
        .expect("same-padded avg pool fits");
    let mut b3 = vec![pool];
    b3.extend(conv_norm_relu(
        "mix.b3.proj",
        b3[0].output,
        4,
        (1, 1),
        1,
        (0, 0),
    ));
    let block =
        Block::inception("mix", input, vec![b1, b2, b3]).expect("branch spatials all match");
    b = b.block(block);

    // reduction_a in miniature: strided conv branch + bare max-pool branch.
    let input = b.shape();
    let r1 = conv_norm_relu("red.b1", input, 8, (3, 3), 2, (0, 0));
    let r2 =
        vec![Layer::pool("red.pool", input, PoolKind::Max, 3, 2, 0).expect("reduction pool fits")];
    let block = Block::inception("red", input, vec![r1, r2]).expect("spatials match");
    b = b.block(block);

    b = b.global_avg_pool("gap");
    b.fully_connected("fc", 10).build()
}

/// A structurally faithful miniature of AlexNet: conv → ReLU → **LRN** →
/// padded max pool stages followed by two fully-connected layers — the
/// norm-after-activation, FC-heavy shape that makes AlexNet the paper's
/// contrast case, with every layer kind the full `alexnet()` needs from
/// the lowering (local response norm, padded pooling, multiple FCs).
pub fn tiny_alexnet(size: usize, default_batch: usize) -> Network {
    assert!(size >= 8, "size must be >= 8");
    let mut b = NetworkBuilder::new(
        "TinyAlexNet",
        FeatureShape::new(3, size, size),
        default_batch,
    );
    b = b
        .conv("conv1", 8, 3, 1, 1)
        .expect("conv1")
        .relu("relu1")
        .norm("lrn1", NormKind::Local)
        .pool("pool1", PoolKind::Max, 3, 2, 1)
        .expect("pool1")
        .conv("conv2", 16, 3, 1, 1)
        .expect("conv2")
        .relu("relu2")
        .norm("lrn2", NormKind::Local)
        .pool("pool2", PoolKind::Max, 3, 2, 1)
        .expect("pool2");
    b = b.fully_connected("fc3", 32).relu("relu3");
    b.fully_connected("fc4", 10).build()
}

/// A plain chain of conv/norm/relu stages with the given output channel
/// counts, downsampling by 2 at each stage; handy for property tests where
/// footprints must vary monotonically.
pub fn conv_chain(channels: &[usize], input: FeatureShape, default_batch: usize) -> Network {
    let mut b = NetworkBuilder::new("ConvChain", input, default_batch);
    for (i, &c) in channels.iter().enumerate() {
        let stride = if i == 0 { 1 } else { 2 };
        for l in conv_norm_relu(&format!("s{i}"), b.shape(), c, (3, 3), stride, (1, 1)) {
            b = b.push(Node::Single(l));
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_toy_builds() {
        let net = fig1_toy();
        assert_eq!(net.output().channels, 10);
    }

    #[test]
    fn tiny_resnet_has_blocks() {
        let net = tiny_resnet(2, 8);
        assert_eq!(net.nodes().iter().filter(|n| n.is_block()).count(), 4);
        assert_eq!(net.output().channels, 10);
    }

    #[test]
    fn fig6_resnet_has_two_stages_and_optional_norms() {
        let norms = |net: &Network| {
            net.layers()
                .filter(|l| matches!(l.kind, crate::LayerKind::Norm { .. }))
                .count()
        };
        let gn = fig6_resnet(8, 4, 2, Some(NormKind::Group { groups: 4 }), 8);
        assert_eq!(gn.nodes().iter().filter(|n| n.is_block()).count(), 4);
        // Stride-2 second stage, 32 channels into the classifier.
        let last_block = gn.nodes().iter().rfind(|n| n.is_block()).unwrap();
        assert_eq!(last_block.output(), FeatureShape::new(32, 4, 4));
        assert_eq!(gn.output().channels, 4);
        // Stem + 2 per block + 1 projection shortcut + the final norm.
        assert_eq!(norms(&gn), 1 + 2 * 4 + 1 + 1);
        let plain = fig6_resnet(8, 4, 2, None, 8);
        assert_eq!(norms(&plain), 0);
        assert_eq!(plain.nodes().len(), gn.nodes().len() - 2);
    }

    #[test]
    fn runtime_mix_covers_the_lowerable_kinds() {
        let net = runtime_mix(8, 4);
        assert_eq!(net.output().channels, 10);
        assert_eq!(net.nodes().iter().filter(|n| n.is_block()).count(), 1);
        let tags: Vec<String> = net.nodes().iter().map(Node::tag).collect();
        for want in ["CONV", "NORM", "RELU", "POOL", "RES_BLK", "FC"] {
            assert!(tags.iter().any(|t| t == want), "missing {want} in {tags:?}");
        }
    }

    #[test]
    fn conv_chain_downsamples() {
        let net = conv_chain(&[8, 16, 32], FeatureShape::new(3, 32, 32), 4);
        assert_eq!(net.output(), FeatureShape::new(32, 8, 8));
    }

    #[test]
    fn tiny_inception_has_concat_blocks_and_avg_pool() {
        let net = tiny_inception(16, 4);
        assert_eq!(net.nodes().iter().filter(|n| n.is_block()).count(), 2);
        assert!(net.layers().any(|l| matches!(
            l.kind,
            crate::LayerKind::Pool {
                kind: PoolKind::Avg,
                pad: 1,
                ..
            }
        )));
        // Concat: 4 + 8 + 4 channels out of the mixing block.
        let mix = net.nodes().iter().find(|n| n.name() == "mix").unwrap();
        assert_eq!(mix.output().channels, 16);
        assert_eq!(net.output().channels, 10);
    }

    #[test]
    fn tiny_alexnet_has_lrn_and_padded_pools() {
        let net = tiny_alexnet(16, 4);
        assert!(net.layers().any(|l| matches!(
            l.kind,
            crate::LayerKind::Norm {
                kind: NormKind::Local
            }
        )));
        assert!(net.layers().any(|l| matches!(
            l.kind,
            crate::LayerKind::Pool {
                kind: PoolKind::Max,
                pad: 1,
                ..
            }
        )));
        // 16 -> pool1 -> 8 -> pool2 -> 4.
        let pool2 = net.nodes().iter().find(|n| n.name() == "pool2").unwrap();
        assert_eq!(pool2.output(), FeatureShape::new(16, 4, 4));
        assert_eq!(net.output().channels, 10);
    }
}
