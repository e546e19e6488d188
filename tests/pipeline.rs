//! End-to-end integration: network IR → MBS schedule → traffic model →
//! WaveCore simulation, checking cross-crate coherence.

use mbs::cnn::networks::resnet;
use mbs::core::{analyze, ExecConfig, HardwareConfig, MbsScheduler};
use mbs::wavecore::WaveCore;

#[test]
fn schedule_traffic_and_simulation_agree_on_bytes() {
    let net = resnet(50);
    let hw = HardwareConfig::default();
    for cfg in ExecConfig::all() {
        let schedule = MbsScheduler::new(&net, &hw, cfg).schedule();
        let traffic = analyze(&net, &schedule, hw.global_buffer_bytes);
        let report = WaveCore::new(hw).simulate_scheduled(&net, &schedule);
        // The simulator reports chip-level bytes = cores x per-core bytes.
        assert_eq!(
            report.dram_bytes,
            traffic.dram_bytes() * hw.cores as u64,
            "{cfg}"
        );
    }
}

#[test]
fn every_network_simulates_under_every_config() {
    let hw = HardwareConfig::default();
    let wc = WaveCore::new(hw);
    for net in mbs::cnn::networks::evaluation_suite() {
        for cfg in ExecConfig::all() {
            let r = wc.simulate(&net, cfg);
            assert!(r.time_s > 0.0, "{} {cfg}", net.name());
            assert!(r.energy_j() > 0.0, "{} {cfg}", net.name());
            assert!(r.dram_bytes > 0, "{} {cfg}", net.name());
            assert!(
                (0.0..=1.0).contains(&r.utilization),
                "{} {cfg}: {}",
                net.name(),
                r.utilization
            );
        }
    }
}

#[test]
fn layer_records_cover_every_layer_of_every_network() {
    let hw = HardwareConfig::default();
    for net in mbs::cnn::networks::evaluation_suite() {
        let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs2).schedule();
        let traffic = analyze(&net, &schedule, hw.global_buffer_bytes);
        assert_eq!(traffic.layers.len(), net.layers().count(), "{}", net.name());
    }
}

#[test]
fn bigger_buffers_never_hurt_mbs() {
    let net = resnet(50);
    let mut last = u64::MAX;
    for mib in [5usize, 10, 20, 40] {
        let hw = HardwareConfig::default().with_global_buffer(mib * 1024 * 1024);
        let s = MbsScheduler::new(&net, &hw, ExecConfig::Mbs2).schedule();
        let t = analyze(&net, &s, hw.global_buffer_bytes).dram_bytes();
        assert!(t <= last, "{mib} MiB: {t} > {last}");
        last = t;
    }
}

#[test]
fn group_count_shrinks_as_buffer_grows() {
    let net = resnet(50);
    let small = HardwareConfig::default().with_global_buffer(5 * 1024 * 1024);
    let large = HardwareConfig::default().with_global_buffer(64 * 1024 * 1024);
    let gs = MbsScheduler::new(&net, &small, ExecConfig::Mbs2).schedule();
    let gl = MbsScheduler::new(&net, &large, ExecConfig::Mbs2).schedule();
    // With a big enough buffer everything collapses toward fewer, larger
    // sub-batch groups.
    assert!(gl.groups().len() <= gs.groups().len());
    assert!(
        gl.groups().iter().map(|g| g.sub_batch).max()
            >= gs.groups().iter().map(|g| g.sub_batch).max()
    );
}
