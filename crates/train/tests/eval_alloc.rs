//! Pins that an eval-mode ReLU builds no backward mask: serving runs one
//! ReLU forward per activation of every request, and a mask there would
//! be a heap allocation (its words live in a `Vec`, not the arena) that
//! nothing ever reads.
//!
//! This binary's allocator counts requests per thread, so the counts
//! below see only the forward under test.

use mbs_tensor::Tensor;
use mbs_train::layers::Relu;
use mbs_train::Module;

mod common;

#[global_allocator]
static ALLOC: common::Probe = common::Probe;

#[test]
fn eval_relu_forward_makes_no_allocation() {
    let x = Tensor::from_vec(&[2, 3, 8, 8], (0..384).map(|v| v as f32 - 192.5).collect());
    let mut relu = Relu::new();
    let before = common::requests();
    let y = relu.forward_owned(x, false);
    assert_eq!(common::requests(), before, "an eval ReLU allocated");

    // The training forward does allocate: its mask is what eval skips.
    let _ = relu.forward_owned(y, true);
    assert!(common::requests() > before, "a training ReLU keeps a mask");
}
