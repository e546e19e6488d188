//! Inception v4 for 299×299 inputs (Szegedy et al., 2017).
//!
//! As in [`super::inception_v3`], branches that split internally in the 8×8
//! "C" modules are duplicated into independent branches (shared prefixes
//! re-computed), since the IR models blocks as independent branches from a
//! shared input. As there, this slightly overstates the compute and
//! intra-branch traffic of the "C" modules only.

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

fn inception_a(name: &str, input: FeatureShape) -> Block {
    let sp = |c| FeatureShape::new(c, input.height, input.width);
    let b1 = cnr(&format!("{name}.b1"), input, 96, (1, 1), 1, (0, 0));
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, 64, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b2b"), sp(64), 96, (3, 3), 1, (1, 1)),
        ],
    );
    let b3 = chain(
        input,
        vec![
            cnr(&format!("{name}.b3a"), input, 64, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b3b"), sp(64), 96, (3, 3), 1, (1, 1)),
            cnr(&format!("{name}.b3c"), sp(96), 96, (3, 3), 1, (1, 1)),
        ],
    );
    let b4 = avg_pool_proj(&format!("{name}.b4"), input, 96);
    Block::inception(name, input, vec![b1, b2, b3, b4])
        .unwrap_or_else(|e| panic!("inception_a {name}: {e}"))
}

fn reduction_a(name: &str, input: FeatureShape) -> Block {
    let sp = |c| FeatureShape::new(c, input.height, input.width);
    let b1 = cnr(&format!("{name}.b1"), input, 384, (3, 3), 2, (0, 0));
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, 192, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b2b"), sp(192), 224, (3, 3), 1, (1, 1)),
            cnr(&format!("{name}.b2c"), sp(224), 256, (3, 3), 2, (0, 0)),
        ],
    );
    let b3 = vec![
        Layer::pool(format!("{name}.pool"), input, PoolKind::Max, 3, 2, 0).expect("reduction pool"),
    ];
    Block::inception(name, input, vec![b1, b2, b3])
        .unwrap_or_else(|e| panic!("reduction_a {name}: {e}"))
}

fn inception_b(name: &str, input: FeatureShape) -> Block {
    let sp = |c| FeatureShape::new(c, input.height, input.width);
    let b1 = cnr(&format!("{name}.b1"), input, 384, (1, 1), 1, (0, 0));
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, 192, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b2b"), sp(192), 224, (1, 7), 1, (0, 3)),
            cnr(&format!("{name}.b2c"), sp(224), 256, (7, 1), 1, (3, 0)),
        ],
    );
    let b3 = chain(
        input,
        vec![
            cnr(&format!("{name}.b3a"), input, 192, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b3b"), sp(192), 192, (7, 1), 1, (3, 0)),
            cnr(&format!("{name}.b3c"), sp(192), 224, (1, 7), 1, (0, 3)),
            cnr(&format!("{name}.b3d"), sp(224), 224, (7, 1), 1, (3, 0)),
            cnr(&format!("{name}.b3e"), sp(224), 256, (1, 7), 1, (0, 3)),
        ],
    );
    let b4 = avg_pool_proj(&format!("{name}.b4"), input, 128);
    Block::inception(name, input, vec![b1, b2, b3, b4])
        .unwrap_or_else(|e| panic!("inception_b {name}: {e}"))
}

fn reduction_b(name: &str, input: FeatureShape) -> Block {
    let sp = |c| FeatureShape::new(c, input.height, input.width);
    let b1 = chain(
        input,
        vec![
            cnr(&format!("{name}.b1a"), input, 192, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b1b"), sp(192), 192, (3, 3), 2, (0, 0)),
        ],
    );
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, 256, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b2b"), sp(256), 256, (1, 7), 1, (0, 3)),
            cnr(&format!("{name}.b2c"), sp(256), 320, (7, 1), 1, (3, 0)),
            cnr(&format!("{name}.b2d"), sp(320), 320, (3, 3), 2, (0, 0)),
        ],
    );
    let b3 = vec![
        Layer::pool(format!("{name}.pool"), input, PoolKind::Max, 3, 2, 0).expect("reduction pool"),
    ];
    Block::inception(name, input, vec![b1, b2, b3])
        .unwrap_or_else(|e| panic!("reduction_b {name}: {e}"))
}

fn inception_c(name: &str, input: FeatureShape) -> Block {
    let sp = |c| FeatureShape::new(c, input.height, input.width);
    let b1 = cnr(&format!("{name}.b1"), input, 256, (1, 1), 1, (0, 0));
    let b2 = chain(
        input,
        vec![
            cnr(&format!("{name}.b2a"), input, 384, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b2b"), sp(384), 256, (1, 3), 1, (0, 1)),
        ],
    );
    let b3 = chain(
        input,
        vec![
            cnr(&format!("{name}.b3a"), input, 384, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b3b"), sp(384), 256, (3, 1), 1, (1, 0)),
        ],
    );
    let b4 = chain(
        input,
        vec![
            cnr(&format!("{name}.b4a"), input, 384, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b4b"), sp(384), 448, (3, 1), 1, (1, 0)),
            cnr(&format!("{name}.b4c"), sp(448), 512, (1, 3), 1, (0, 1)),
            cnr(&format!("{name}.b4d"), sp(512), 256, (1, 3), 1, (0, 1)),
        ],
    );
    let b5 = chain(
        input,
        vec![
            cnr(&format!("{name}.b5a"), input, 384, (1, 1), 1, (0, 0)),
            cnr(&format!("{name}.b5b"), sp(384), 448, (3, 1), 1, (1, 0)),
            cnr(&format!("{name}.b5c"), sp(448), 512, (1, 3), 1, (0, 1)),
            cnr(&format!("{name}.b5d"), sp(512), 256, (3, 1), 1, (1, 0)),
        ],
    );
    let b6 = avg_pool_proj(&format!("{name}.b6"), input, 256);
    Block::inception(name, input, vec![b1, b2, b3, b4, b5, b6])
        .unwrap_or_else(|e| panic!("inception_c {name}: {e}"))
}

/// Builds Inception v4 (299×299 input, 1000 classes).
///
/// # Examples
///
/// ```
/// let net = mbs_cnn::networks::inception_v4();
/// assert_eq!(net.output().channels, 1000);
/// ```
pub fn inception_v4() -> Network {
    let mut b = NetworkBuilder::new("InceptionV4", FeatureShape::new(3, 299, 299), 32);
    for l in cnr("stem1", b.shape(), 32, (3, 3), 2, (0, 0)) {
        b = b.push(Node::Single(l));
    }
    for l in cnr("stem2", b.shape(), 32, (3, 3), 1, (0, 0)) {
        b = b.push(Node::Single(l));
    }
    for l in cnr("stem3", b.shape(), 64, (3, 3), 1, (1, 1)) {
        b = b.push(Node::Single(l));
    }

    // Stem split 1: maxpool || conv3x3/2 -> 160 @ 73
    let s = b.shape();
    let pool_branch =
        vec![Layer::pool("stem4.pool", s, PoolKind::Max, 3, 2, 0).expect("stem pool")];
    let conv_branch = cnr("stem4.conv", s, 96, (3, 3), 2, (0, 0));
    b = b.block(Block::inception("stem4", s, vec![conv_branch, pool_branch]).expect("stem4"));

    // Stem split 2: two conv chains -> 192 @ 71
    let s = b.shape();
    let sp = |c| FeatureShape::new(c, s.height, s.width);
    let br1 = chain(
        s,
        vec![
            cnr("stem5.b1a", s, 64, (1, 1), 1, (0, 0)),
            cnr("stem5.b1b", sp(64), 96, (3, 3), 1, (0, 0)),
        ],
    );
    let br2 = chain(
        s,
        vec![
            cnr("stem5.b2a", s, 64, (1, 1), 1, (0, 0)),
            cnr("stem5.b2b", sp(64), 64, (7, 1), 1, (3, 0)),
            cnr("stem5.b2c", sp(64), 64, (1, 7), 1, (0, 3)),
            cnr("stem5.b2d", sp(64), 96, (3, 3), 1, (0, 0)),
        ],
    );
    b = b.block(Block::inception("stem5", s, vec![br1, br2]).expect("stem5"));

    // Stem split 3: conv3x3/2 || maxpool -> 384 @ 35
    let s = b.shape();
    let br1 = cnr("stem6.conv", s, 192, (3, 3), 2, (0, 0));
    let br2 = vec![Layer::pool("stem6.pool", s, PoolKind::Max, 3, 2, 0).expect("stem pool")];
    b = b.block(Block::inception("stem6", s, vec![br1, br2]).expect("stem6"));

    for i in 0..4 {
        let blk = inception_a(&format!("incA{i}"), b.shape());
        b = b.block(blk);
    }
    let blk = reduction_a("redA", b.shape());
    b = b.block(blk);
    for i in 0..7 {
        let blk = inception_b(&format!("incB{i}"), b.shape());
        b = b.block(blk);
    }
    let blk = reduction_b("redB", b.shape());
    b = b.block(blk);
    for i in 0..3 {
        let blk = inception_c(&format!("incC{i}"), b.shape());
        b = b.block(blk);
    }
    b = b.global_avg_pool("pool_final");
    b.fully_connected("fc", 1000).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stem_reaches_384_at_35() {
        let net = inception_v4();
        let a0 = net
            .nodes()
            .iter()
            .find(|n| n.name() == "incA0")
            .expect("has incA0");
        assert_eq!(a0.input(), FeatureShape::new(384, 35, 35));
        assert_eq!(a0.output(), FeatureShape::new(384, 35, 35));
    }

    #[test]
    fn grid_and_channel_progression() {
        let net = inception_v4();
        let red_a = net.nodes().iter().find(|n| n.name() == "redA").unwrap();
        assert_eq!(red_a.output(), FeatureShape::new(1024, 17, 17));
        let red_b = net.nodes().iter().find(|n| n.name() == "redB").unwrap();
        assert_eq!(red_b.output(), FeatureShape::new(1536, 8, 8));
    }

    #[test]
    fn deeper_than_v3() {
        let v3 = super::super::inception_v3();
        let v4 = inception_v4();
        assert!(v4.layers().count() > v3.layers().count());
        assert!(v4.forward_macs() > v3.forward_macs());
    }

    #[test]
    fn param_count_plausible() {
        // ~43M canonical; split-branch duplication adds the shared prefixes
        // of the three C modules.
        let p = inception_v4().param_elems();
        assert!((38_000_000..56_000_000).contains(&p), "params {p}");
    }
}
