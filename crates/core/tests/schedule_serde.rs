//! Serde round-trip coverage for [`Schedule`]: schedules are now consumed
//! across crate boundaries (the grouped training runtime), so
//! serialize → deserialize must reproduce them exactly —
//! matching the `Network` round-trip coverage in `cnn/tests/proptest_ir.rs`.

use mbs_cnn::networks::{resnet, toy};
use mbs_core::{ExecConfig, Group, HardwareConfig, MbsScheduler, Schedule};

fn round_trip(s: &Schedule) -> Schedule {
    let json = serde_json::to_string(s).expect("serialize schedule");
    serde_json::from_str(&json).expect("deserialize schedule")
}

#[test]
fn scheduler_output_round_trips_for_every_config() {
    let net = resnet(50);
    let hw = HardwareConfig::default();
    for cfg in ExecConfig::all() {
        let s = MbsScheduler::new(&net, &hw, cfg).schedule();
        assert_eq!(round_trip(&s), s, "{cfg} schedule must round-trip");
    }
}

#[test]
fn hand_built_and_toy_schedules_round_trip() {
    let hand = Schedule::new(
        ExecConfig::Mbs1,
        8,
        vec![Group::new(0, 3, 2, 8), Group::new(3, 7, 8, 8)],
        false,
    );
    assert_eq!(round_trip(&hand), hand);

    let net = toy::runtime_mix(8, 8);
    let hw = HardwareConfig::cpu().with_global_buffer(3 * 1024);
    let s = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).optimal_schedule();
    let back = round_trip(&s);
    assert_eq!(back, s);
    // Accessors read identically through the round trip.
    assert_eq!(back.sub_batches(), s.sub_batches());
    assert_eq!(back.node_count(), s.node_count());
    assert_eq!(back.min_sub_batch(), s.min_sub_batch());
}
