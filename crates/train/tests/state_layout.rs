//! The checkpoint state layout, pinned: the entries a lowered net exports
//! are its on-disk format, so their order and shapes must follow the IR.
//! The expected list is derived here from the IR alone — nodes in order,
//! a block's branches in index order (a residual block's main before its
//! shortcut), then its post-merge layers — never from the runtime's walk.

use mbs_cnn::networks::toy;
use mbs_cnn::{Layer, LayerKind, Network, Node, NormKind};
use mbs_train::lower::lower;
use mbs_train::{Module, StateDict};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The state entry shapes one IR layer contributes, in export order.
fn layer_entries(layer: &Layer) -> Vec<Vec<usize>> {
    let (ci, co) = (layer.input.channels, layer.output.channels);
    match layer.kind {
        LayerKind::Conv {
            kernel_h, kernel_w, ..
        } => vec![vec![co, ci, kernel_h, kernel_w]],
        // γ, β.
        LayerKind::Norm {
            kind: NormKind::Group { .. },
        } => vec![vec![ci]; 2],
        // γ, β, running mean, running var.
        LayerKind::Norm {
            kind: NormKind::Batch,
        } => vec![vec![ci]; 4],
        LayerKind::FullyConnected => vec![vec![co, layer.input.elems()], vec![co]],
        _ => Vec::new(),
    }
}

fn ir_entries(net: &Network) -> Vec<Vec<usize>> {
    let mut want = Vec::new();
    for node in net.nodes() {
        match node {
            Node::Single(layer) => want.extend(layer_entries(layer)),
            Node::Block(block) => {
                for layer in block.branches.iter().flatten().chain(&block.post) {
                    want.extend(layer_entries(layer));
                }
            }
        }
    }
    want
}

#[test]
fn exported_state_follows_the_ir_walk() {
    let nets = [
        toy::fig1_toy(),
        toy::runtime_mix(8, 4),
        toy::tiny_resnet(2, 4),
        toy::tiny_inception(8, 4),
        toy::tiny_alexnet(8, 4),
        toy::fig6_resnet(8, 4, 1, Some(NormKind::Batch), 4),
    ];
    for net in nets {
        let mut model = lower(&net, &mut StdRng::seed_from_u64(3)).unwrap();
        let mut dict = StateDict::default();
        model.export_state(&mut dict);
        let got: Vec<Vec<usize>> = dict.into_entries().into_iter().map(|e| e.shape).collect();
        let want = ir_entries(&net);
        assert!(!want.is_empty(), "{}", net.name());
        assert_eq!(got, want, "{}", net.name());
    }
}
