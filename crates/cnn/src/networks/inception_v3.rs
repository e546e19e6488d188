//! Inception v3 for 299×299 inputs (Szegedy et al., 2015).
//!
//! The 8×8 "InceptionC" modules contain branches that split *internally*
//! (one 1×1 feeding both a 1×3 and a 3×1 convolution). The IR models a
//! block as independent branches from a shared input, so the shared 1×1
//! prefix is duplicated into both branches. This slightly overstates compute
//! and intra-branch traffic for those two modules; every other module is
//! modeled exactly.

use crate::block::{Block, Node};
use crate::layer::{FeatureShape, Layer, PoolKind};
use crate::network::{Network, NetworkBuilder};

use super::conv_norm_relu;

fn cnr(
    prefix: &str,
    input: FeatureShape,
    co: usize,
    kernel: (usize, usize),
    stride: usize,
    pad: (usize, usize),
) -> Vec<Layer> {
    conv_norm_relu(prefix, input, co, kernel, stride, pad)
}

fn chain(input: FeatureShape, parts: Vec<Vec<Layer>>) -> Vec<Layer> {
    let mut out = Vec::new();
    let mut cur = input;
    for part in parts {
        debug_assert_eq!(part.first().expect("chain part non-empty").input, cur);
        cur = part.last().expect("chain part non-empty").output;
        out.extend(part);
    }
    out
}

fn avg_pool_proj(prefix: &str, input: FeatureShape, proj: usize) -> Vec<Layer> {
    let pool = Layer::pool(format!("{prefix}.pool"), input, PoolKind::Avg, 3, 1, 1)
        .expect("inception pool");
    let mut v = vec![pool];
    let p = v[0].output;
    v.extend(cnr(&format!("{prefix}.proj"), p, proj, (1, 1), 1, (0, 0)));
    v
}

/// 35×35 module: 1×1, 5×5, double-3×3 and pooled-projection branches.
fn inception_a(name: &str, input: FeatureShape, pool_proj: usize) -> Block {
    let b1 = cnr(&format!("{name}.b1"), input, 64, (1, 1), 1, (0, 0));
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, 48, (1, 1), 1, (0, 0)),
            cnr(
                &format!("{name}.b2b"),
                FeatureShape::new(48, input.height, input.width),
                64,
                (5, 5),
                1,
                (2, 2),
            ),
        ],
    );
    let s96 = FeatureShape::new(96, input.height, input.width);
    let b3 = chain(
        input,
        vec![
            cnr(&format!("{name}.b3a"), input, 64, (1, 1), 1, (0, 0)),
            cnr(
                &format!("{name}.b3b"),
                FeatureShape::new(64, input.height, input.width),
                96,
                (3, 3),
                1,
                (1, 1),
            ),
            cnr(&format!("{name}.b3c"), s96, 96, (3, 3), 1, (1, 1)),
        ],
    );
    let b4 = avg_pool_proj(&format!("{name}.b4"), input, pool_proj);
    Block::inception(name, input, vec![b1, b2, b3, b4])
        .unwrap_or_else(|e| panic!("inception_a {name}: {e}"))
}

/// 35→17 grid reduction.
fn reduction_a(name: &str, input: FeatureShape) -> Block {
    let b1 = cnr(&format!("{name}.b1"), input, 384, (3, 3), 2, (0, 0));
    let s = input;
    let b2 = chain(
        s,
        vec![
            cnr(&format!("{name}.b2a"), s, 64, (1, 1), 1, (0, 0)),
            cnr(
                &format!("{name}.b2b"),
                FeatureShape::new(64, s.height, s.width),
                96,
                (3, 3),
                1,
                (1, 1),
            ),
            cnr(
                &format!("{name}.b2c"),
                FeatureShape::new(96, s.height, s.width),
                96,
                (3, 3),
                2,
                (0, 0),
            ),
        ],
    );
    let b3 = vec![
        Layer::pool(format!("{name}.pool"), input, PoolKind::Max, 3, 2, 0).expect("reduction pool"),
    ];
    Block::inception(name, input, vec![b1, b2, b3])
        .unwrap_or_else(|e| panic!("reduction_a {name}: {e}"))
}

/// 17×17 module with factorized 7×7 convolutions; `c7` is the bottleneck
/// width (128, 160, 160, 192 across the four modules).
fn inception_b(name: &str, input: FeatureShape, c7: usize) -> Block {
    let sp = |c| FeatureShape::new(c, input.height, input.width);
    let b1 = cnr(&format!("{name}.b1"), input, 192, (1, 1), 1, (0, 0));
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, c7, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b2b"), sp(c7), c7, (1, 7), 1, (0, 3)),
            cnr(&format!("{name}.b2c"), sp(c7), 192, (7, 1), 1, (3, 0)),
        ],
    );
    let b3 = chain(
        input,
        vec![
            cnr(&format!("{name}.b3a"), input, c7, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b3b"), sp(c7), c7, (7, 1), 1, (3, 0)),
            cnr(&format!("{name}.b3c"), sp(c7), c7, (1, 7), 1, (0, 3)),
            cnr(&format!("{name}.b3d"), sp(c7), c7, (7, 1), 1, (3, 0)),
            cnr(&format!("{name}.b3e"), sp(c7), 192, (1, 7), 1, (0, 3)),
        ],
    );
    let b4 = avg_pool_proj(&format!("{name}.b4"), input, 192);
    Block::inception(name, input, vec![b1, b2, b3, b4])
        .unwrap_or_else(|e| panic!("inception_b {name}: {e}"))
}

/// 17→8 grid reduction.
fn reduction_b(name: &str, input: FeatureShape) -> Block {
    let sp = |c| FeatureShape::new(c, input.height, input.width);
    let b1 = chain(
        input,
        vec![
            cnr(&format!("{name}.b1a"), input, 192, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b1b"), sp(192), 320, (3, 3), 2, (0, 0)),
        ],
    );
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, 192, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b2b"), sp(192), 192, (1, 7), 1, (0, 3)),
            cnr(&format!("{name}.b2c"), sp(192), 192, (7, 1), 1, (3, 0)),
            cnr(&format!("{name}.b2d"), sp(192), 192, (3, 3), 2, (0, 0)),
        ],
    );
    let b3 = vec![
        Layer::pool(format!("{name}.pool"), input, PoolKind::Max, 3, 2, 0).expect("reduction pool"),
    ];
    Block::inception(name, input, vec![b1, b2, b3])
        .unwrap_or_else(|e| panic!("reduction_b {name}: {e}"))
}

/// 8×8 module with the expanded 1×3/3×1 filter bank (split branches
/// duplicated, see module docs).
fn inception_c(name: &str, input: FeatureShape) -> Block {
    let sp = |c| FeatureShape::new(c, input.height, input.width);
    let b1 = cnr(&format!("{name}.b1"), input, 320, (1, 1), 1, (0, 0));
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, 384, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b2b"), sp(384), 384, (1, 3), 1, (0, 1)),
        ],
    );
    let b3 = chain(
        input,
        vec![
            cnr(&format!("{name}.b3a"), input, 384, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b3b"), sp(384), 384, (3, 1), 1, (1, 0)),
        ],
    );
    let b4 = chain(
        input,
        vec![
            cnr(&format!("{name}.b4a"), input, 448, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b4b"), sp(448), 384, (3, 3), 1, (1, 1)),
            cnr(&format!("{name}.b4c"), sp(384), 384, (1, 3), 1, (0, 1)),
        ],
    );
    let b5 = chain(
        input,
        vec![
            cnr(&format!("{name}.b5a"), input, 448, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b5b"), sp(448), 384, (3, 3), 1, (1, 1)),
            cnr(&format!("{name}.b5c"), sp(384), 384, (3, 1), 1, (1, 0)),
        ],
    );
    let b6 = avg_pool_proj(&format!("{name}.b6"), input, 192);
    Block::inception(name, input, vec![b1, b2, b3, b4, b5, b6])
        .unwrap_or_else(|e| panic!("inception_c {name}: {e}"))
}

/// Builds Inception v3 (299×299 input, 1000 classes).
///
/// # Examples
///
/// ```
/// let net = mbs_cnn::networks::inception_v3();
/// assert_eq!(net.output().channels, 1000);
/// ```
pub fn inception_v3() -> Network {
    let mut b = NetworkBuilder::new("InceptionV3", FeatureShape::new(3, 299, 299), 32);
    for l in cnr("stem1", b.shape(), 32, (3, 3), 2, (0, 0)) {
        b = b.push(Node::Single(l));
    }
    for l in cnr("stem2", b.shape(), 32, (3, 3), 1, (0, 0)) {
        b = b.push(Node::Single(l));
    }
    for l in cnr("stem3", b.shape(), 64, (3, 3), 1, (1, 1)) {
        b = b.push(Node::Single(l));
    }
    b = b
        .pool("stem.pool1", PoolKind::Max, 3, 2, 0)
        .expect("stem pool1");
    for l in cnr("stem4", b.shape(), 80, (1, 1), 1, (0, 0)) {
        b = b.push(Node::Single(l));
    }
    for l in cnr("stem5", b.shape(), 192, (3, 3), 1, (0, 0)) {
        b = b.push(Node::Single(l));
    }
    b = b
        .pool("stem.pool2", PoolKind::Max, 3, 2, 0)
        .expect("stem pool2");

    let blk = inception_a("mixed0", b.shape(), 32);
    b = b.block(blk);
    let blk = inception_a("mixed1", b.shape(), 64);
    b = b.block(blk);
    let blk = inception_a("mixed2", b.shape(), 64);
    b = b.block(blk);
    let blk = reduction_a("mixed3", b.shape());
    b = b.block(blk);
    for (i, c7) in [128usize, 160, 160, 192].iter().enumerate() {
        let blk = inception_b(&format!("mixed{}", 4 + i), b.shape(), *c7);
        b = b.block(blk);
    }
    let blk = reduction_b("mixed8", b.shape());
    b = b.block(blk);
    let blk = inception_c("mixed9", b.shape());
    b = b.block(blk);
    let blk = inception_c("mixed10", b.shape());
    b = b.block(blk);
    b = b.global_avg_pool("pool_final");
    b.fully_connected("fc", 1000).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_reaches_35x35x192() {
        let net = inception_v3();
        let first_block = net
            .nodes()
            .iter()
            .find(|n| n.is_block())
            .expect("has blocks");
        assert_eq!(first_block.input(), FeatureShape::new(192, 35, 35));
    }

    #[test]
    fn module_output_channels() {
        let net = inception_v3();
        let blocks: Vec<_> = net.nodes().iter().filter(|n| n.is_block()).collect();
        assert_eq!(blocks.len(), 11);
        let chans: Vec<usize> = blocks.iter().map(|b| b.output().channels).collect();
        assert_eq!(
            chans,
            [256, 288, 288, 768, 768, 768, 768, 768, 1280, 2048, 2048]
        );
    }

    #[test]
    fn grid_sizes() {
        let net = inception_v3();
        let blocks: Vec<_> = net.nodes().iter().filter(|n| n.is_block()).collect();
        assert_eq!(blocks[0].output().height, 35);
        assert_eq!(blocks[3].output().height, 17);
        assert_eq!(blocks[8].output().height, 8);
    }

    #[test]
    fn param_count_plausible() {
        // ~24M canonical; split-branch duplication adds the shared 1x1/3x3
        // prefixes of the two C modules (~+5M).
        let p = inception_v3().param_elems();
        assert!((22_000_000..33_000_000).contains(&p), "params {p}");
    }
}
