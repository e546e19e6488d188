//! The paper's correctness claim, live: training with MBS sub-batch
//! serialization is numerically equivalent to conventional full-mini-batch
//! training when the normalization is per-sample (GN) — and demonstrably
//! NOT equivalent with batch normalization.
//!
//! ```sh
//! cargo run --release --example train_equivalence
//! ```
//!
//! Exits non-zero unless GN+MBS stays faithful (max parameter difference
//! below 1e-3) and BN diverges.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbs::cnn::networks::toy;
use mbs::cnn::NormKind;
use mbs::core::Schedule;
use mbs::train::data::generate;
use mbs::train::executor::{evaluate, train_step_full};
use mbs::train::grouped::GroupedExecutor;
use mbs::train::lower::{lower, LoweredNet};
use mbs::train::optim::Sgd;
use mbs::train::Module;

/// Largest parameter difference that still counts as "the same training".
const FAITHFUL: f32 = 1e-3;

fn max_param_diff(a: &mut LoweredNet, b: &mut LoweredNet) -> f32 {
    let mut pa = Vec::new();
    a.visit_params(&mut |p| pa.push(p.value.clone()));
    let mut i = 0;
    let mut worst = 0.0f32;
    b.visit_params(&mut |p| {
        worst = worst.max(pa[i].max_abs_diff(&p.value));
        i += 1;
    });
    worst
}

fn main() {
    let train_set = generate(64, 8, 0.25, 404);
    let val_set = generate(32, 8, 0.25, 405);
    let batch = train_set.len();
    let mut as_claimed = true;

    for (label, norm) in [
        ("GroupNorm", NormKind::Group { groups: 4 }),
        ("BatchNorm", NormKind::Batch),
    ] {
        // Identically seeded twins: one trains conventionally, one with MBS
        // (the whole network propagating 4 samples at a time).
        let net = toy::fig6_resnet(8, 4, 1, Some(norm), batch);
        let mut full = lower(&net, &mut StdRng::seed_from_u64(42)).expect("fig6_resnet lowers");
        let mut mbs = lower(&net, &mut StdRng::seed_from_u64(42)).expect("fig6_resnet lowers");
        let mut exec = GroupedExecutor::new(&Schedule::uniform(&net, batch, 4), mbs.len());
        let mut oa = Sgd::new(0.05, 0.9, 1e-4);
        let mut ob = Sgd::new(0.05, 0.9, 1e-4);

        for step in 0..10 {
            let lf = train_step_full(&mut full, &train_set.images, &train_set.labels, &mut oa);
            let lm = exec.train_step(&mut mbs, &train_set.images, &train_set.labels, &mut ob);
            if step % 3 == 0 {
                println!(
                    "{label} step {step}: loss full={lf:.4} mbs={lm:.4}, max param diff {:.2e}",
                    max_param_diff(&mut full, &mut mbs)
                );
            }
        }
        let diff = max_param_diff(&mut full, &mut mbs);
        let (_, err_full) = evaluate(&mut full, &val_set.images, &val_set.labels, 16);
        let (_, err_mbs) = evaluate(&mut mbs, &val_set.images, &val_set.labels, 16);
        println!(
            "{label}: after 10 steps, max param diff {:.2e}; val error full {:.1}% vs mbs {:.1}%",
            diff, err_full, err_mbs
        );
        let faithful = diff < FAITHFUL;
        if faithful {
            println!("=> {label} + MBS is numerically faithful to full-batch training\n");
        } else {
            println!(
                "=> {label} diverges under serialization (expected for BN: its \
                      statistics need the whole mini-batch)\n"
            );
        }
        // GN must stay faithful; BN must not.
        as_claimed &= faithful == matches!(norm, NormKind::Group { .. });
    }
    if !as_claimed {
        eprintln!("error: GN+MBS must match full-batch training and BN must diverge");
        std::process::exit(1);
    }
}
