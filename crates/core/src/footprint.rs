//! Per-sample on-chip buffer requirements: the quantity MBS uses to size
//! sub-batches (paper §3, Eq. 1 for residual blocks, Eq. 2 for inception
//! modules).

use mbs_cnn::{Block, BlockKind, Layer, LayerKind, Node, NormKind};

/// Bytes of buffer space needed to stream one sample through `layer` while
/// keeping its live inter-layer data on chip.
///
/// Input and output must be resident simultaneously for layers that change
/// the tensor shape. Element-wise layers operate in place:
///
/// - ReLU overwrites its input (space = input),
/// - normalization runs its statistics pass first and then scales in place
///   (space = input),
/// - the residual `Add` sums one operand into the other (space = both
///   operands),
/// - `Concat` writes branches into one pre-provisioned output area
///   (space = output).
pub fn layer_space(layer: &Layer) -> usize {
    match layer.kind {
        LayerKind::Add => 2 * layer.output.bytes(),
        LayerKind::Concat => layer.output.bytes(),
        LayerKind::Relu | LayerKind::Norm { .. } => layer.input.bytes(),
        _ => layer.input.bytes() + layer.output.bytes(),
    }
}

/// Per-sample space for a whole scheduling unit under MBS1 semantics
/// (branches processed independently; shared block data goes through DRAM,
/// so no `Dcond` terms).
pub fn node_space_independent(node: &Node) -> usize {
    node.layers().map(layer_space).max().unwrap_or(0)
}

/// Per-sample space under MBS2 semantics: block inputs and pending branch
/// outputs are provisioned on chip (paper Eq. 1 / Eq. 2).
pub fn node_space_branch_reuse(node: &Node) -> usize {
    match node {
        Node::Single(layer) => layer_space(layer),
        Node::Block(block) => block_space(block),
    }
}

/// Space for one node under the given semantics.
pub fn node_space(node: &Node, branch_reuse: bool) -> usize {
    if branch_reuse {
        node_space_branch_reuse(node)
    } else {
        node_space_independent(node)
    }
}

fn block_space(block: &Block) -> usize {
    let block_in = block.input.bytes();
    let block_out = block.output.bytes();
    let mut worst = 0usize;

    for (b, branch) in block.branches.iter().enumerate() {
        let len = branch.len();
        for (l, layer) in branch.iter().enumerate() {
            let cond = match block.kind {
                // Eq. 1: the main branch (b = 0) keeps the block input live
                // after its first layer so the shortcut can still read it;
                // other branches keep the already-computed main output live
                // while they execute.
                BlockKind::Residual => {
                    if b == 0 {
                        if l != 0 {
                            block_in
                        } else {
                            0
                        }
                    } else {
                        block_out
                    }
                }
                // Eq. 2: every branch keeps the shared block input live
                // (except while its first layer consumes it) and the concat
                // output area live (except while its last layer writes it).
                BlockKind::Inception => {
                    let keep_in = if l != 0 { block_in } else { 0 };
                    let keep_out = if l + 1 != len { block_out } else { 0 };
                    keep_in + keep_out
                }
            };
            worst = worst.max(layer_space(layer) + cond);
        }
        // An identity shortcut holds the block input alongside the pending
        // main output while the merge executes.
        if branch.is_empty() {
            worst = worst.max(block_in + block_out);
        }
    }
    for layer in std::iter::once(&block.merge).chain(block.post.iter()) {
        worst = worst.max(layer_space(layer));
    }
    worst
}

/// Per-sample bytes of backward caches one node retains after its forward
/// — the tensors a cache-stashing executor must keep alive per stashed
/// sample. Per layer kind, mirroring what the runtime actually stashes:
///
/// - conv / FC / GN / BN: the input (or input-sized `xhat`) tensor;
/// - LRN: **two** input-sized tensors (the input and the scale
///   denominator);
/// - max pooling: nothing input-sized — the runtime keeps a one-byte
///   window-tap index per *output*, not the input;
/// - ReLU: nothing (a 1-bit sign mask).
///
/// Small residue (ReLU masks, max-pool tap indices, per-group statistics
/// vectors) is ignored.
pub fn node_stash_bytes(node: &Node) -> usize {
    node.layers()
        .map(|l| match l.kind {
            LayerKind::Norm {
                kind: NormKind::Local,
            } => 2 * l.input_bytes(),
            LayerKind::Pool { .. } => 0,
            _ if l.kind.needs_input_in_backward() => l.input_bytes(),
            _ => 0,
        })
        .sum()
}

/// Largest sub-batch (≥ 1) whose live data fits in `buffer_bytes`, and
/// whether even one sample fits.
///
/// The paper's networks fit one sample comfortably in 5 MiB; the `fits`
/// flag exists so pathological inputs degrade loudly rather than silently.
pub fn max_sub_batch(space_per_sample: usize, buffer_bytes: usize) -> (usize, bool) {
    if space_per_sample == 0 {
        return (usize::MAX, true);
    }
    let s = buffer_bytes / space_per_sample;
    if s == 0 {
        (1, false)
    } else {
        (s, true)
    }
}

/// Whether the *whole mini-batch* footprint of a layer fits on chip — the
/// reuse condition of the prior-work `IL` configuration (paper Tab. 3).
pub fn whole_batch_fits(layer: &Layer, batch: usize, buffer_bytes: usize) -> bool {
    layer_space(layer).saturating_mul(batch) <= buffer_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_cnn::networks::{resnet, toy};
    use mbs_cnn::{FeatureShape, NormKind};

    #[test]
    fn conv_space_is_input_plus_output() {
        let l = Layer::conv("c", FeatureShape::new(3, 8, 8), 16, 3, 1, 1).unwrap();
        assert_eq!(layer_space(&l), (3 * 64 + 16 * 64) * 2);
    }

    #[test]
    fn norm_runs_in_place() {
        let s = FeatureShape::new(16, 8, 8);
        let l = Layer::norm("n", s, NormKind::Group { groups: 4 });
        assert_eq!(layer_space(&l), s.bytes());
    }

    #[test]
    fn elementwise_layers_run_in_place() {
        let s = FeatureShape::new(16, 8, 8);
        assert_eq!(layer_space(&Layer::relu("r", s)), s.bytes());
        assert_eq!(layer_space(&Layer::add("a", s)), 2 * s.bytes());
        assert_eq!(
            layer_space(&Layer::concat("c", FeatureShape::new(0, 8, 8), 16)),
            s.bytes()
        );
    }

    #[test]
    fn branch_reuse_space_is_at_least_independent() {
        let net = resnet(50);
        for node in net.nodes() {
            assert!(
                node_space_branch_reuse(node) >= node_space_independent(node),
                "node {}",
                node.name()
            );
        }
    }

    #[test]
    fn resnet_first_block_space_matches_eq1_by_hand() {
        // First bottleneck (56x56): the worst point is the projection
        // shortcut conv (in 64 + out 256 channels) with the main-branch
        // output (256 channels) pending for the merge (Eq. 1's Dcond for
        // b != 1), all at 56x56 spatial, 2 bytes/word.
        let net = resnet(50);
        let block = net
            .nodes()
            .iter()
            .find_map(|n| match n {
                Node::Block(b) => Some(b),
                _ => None,
            })
            .unwrap();
        let unit = 56 * 56 * 2; // bytes per channel
        let expected = (64 + 256 + 256) * unit;
        assert_eq!(
            node_space_branch_reuse(&Node::Block(block.clone())),
            expected
        );
    }

    #[test]
    fn sub_batch_sizing() {
        assert_eq!(max_sub_batch(1024, 10 * 1024), (10, true));
        assert_eq!(max_sub_batch(10 * 1024, 1024), (1, false));
        assert_eq!(max_sub_batch(0, 1024), (usize::MAX, true));
    }

    #[test]
    fn whole_batch_fit_rule() {
        let l = Layer::conv("c", FeatureShape::new(3, 8, 8), 16, 3, 1, 1).unwrap();
        let space = layer_space(&l);
        assert!(whole_batch_fits(&l, 4, space * 4));
        assert!(!whole_batch_fits(&l, 5, space * 4));
    }

    #[test]
    fn toy_network_spaces_decrease_with_depth() {
        let net = toy::conv_chain(&[16, 32, 64], FeatureShape::new(3, 64, 64), 4);
        let spaces: Vec<usize> = net.nodes().iter().map(node_space_independent).collect();
        // Down-sampling shrinks footprints across stages.
        assert!(spaces.first().unwrap() > spaces.last().unwrap());
    }
}
