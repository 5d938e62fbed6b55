//! Coarse, fast assertions that the paper's headline result *shapes* hold
//! (the full-resolution versions live in the `drain-bench` binaries).

use drain_repro::power::{network_model, MechanismKind};
use drain_repro::prelude::*;

/// `scheme` on `topo` at its Table II config, uniform traffic at `rate`,
/// seeded `seed`; DRAIN runs one message class with drain epoch `epoch`.
fn sim(scheme: Scheme, topo: &Topology, full_mesh: bool, rate: f64, seed: u64, epoch: u64) -> Sim {
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, rate, 1, seed);
    let mut config = SimConfig {
        seed,
        ..scheme.config()
    };
    if let Scheme::Drain(_) = scheme {
        config.num_classes = 1;
    }
    let drain = DrainConfig {
        epoch,
        ..DrainConfig::default()
    };
    scheme
        .build(topo, full_mesh, Box::new(traffic), config, drain)
        .unwrap()
}

const DRAIN: Scheme = Scheme::Drain(DrainVariant::Vn1Vc2);
const EPOCH: u64 = Scheme::DEFAULT_EPOCH;

/// Fig 9 shape: DRAIN saves the majority of router area and power.
#[test]
fn fig9_shape_power_savings() {
    let topo = Topology::mesh(8, 8);
    let esc = network_model(&topo, 3, 2, MechanismKind::EscapeVc, 0, 1, 1.0);
    let spin = network_model(&topo, 3, 1, MechanismKind::Spin, 0, 1, 1.0);
    let drain = network_model(&topo, 1, 1, MechanismKind::Drain, 0, 1, 1.0);
    let area_saving = 1.0 - drain.router_area_um2 / esc.router_area_um2;
    let power_saving = 1.0 - drain.router_static_mw / esc.router_static_mw;
    assert!((0.60..0.85).contains(&area_saving), "area saving {area_saving}");
    assert!(
        (0.65..0.90).contains(&power_saving),
        "power saving {power_saving}"
    );
    assert!(spin.router_area_um2 < esc.router_area_um2);
    assert!(spin.router_area_um2 > drain.router_area_um2);
}

/// Fig 4 shape: most virtual-network power is wasted at application loads.
#[test]
fn fig4_shape_wasted_power_dominates() {
    let topo = Topology::mesh(4, 4);
    let mut sim = sim(Scheme::EscapeVc, &topo, true, 0.03, 1, EPOCH);
    sim.run(10_000);
    let p = network_model(
        &topo,
        3,
        2,
        MechanismKind::EscapeVc,
        sim.stats().flit_hops,
        sim.core().cycle(),
        1.0,
    );
    assert!(
        p.wasted_mw > 2.0 * p.active_mw,
        "wasted {} vs active {}",
        p.wasted_mw,
        p.active_mw
    );
}

/// Fig 5 shape: up*/down* is never faster than the ideal adaptive oracle
/// on a faulty mesh, in latency or throughput.
#[test]
fn fig5_shape_updown_below_ideal() {
    let topo = FaultInjector::new(2)
        .remove_links(&Topology::mesh(6, 6), 8)
        .unwrap();
    let mut ud = sim(Scheme::UpDown, &topo, false, 0.05, 3, EPOCH);
    ud.warmup_and_measure(2_000, 8_000);
    let mut ideal = sim(Scheme::Ideal, &topo, false, 0.05, 3, EPOCH);
    ideal.warmup_and_measure(2_000, 8_000);
    assert!(ud.stats().net_latency.mean() >= ideal.stats().net_latency.mean() * 0.98);
    let n = topo.num_nodes();
    assert!(
        ud.stats().throughput(ud.core().cycle(), n)
            <= ideal.stats().throughput(ideal.core().cycle(), n) * 1.05
    );
}

/// Figs 10/11 shape: at low load DRAIN matches SPIN closely.
#[test]
fn fig11_shape_drain_matches_spin_at_low_load() {
    let topo = FaultInjector::new(7)
        .remove_links(&Topology::mesh(6, 6), 4)
        .unwrap();
    let mut spin = sim(Scheme::Spin, &topo, false, 0.02, 5, EPOCH);
    spin.warmup_and_measure(2_000, 8_000);
    let mut drain = sim(DRAIN, &topo, false, 0.02, 5, EPOCH);
    drain.warmup_and_measure(2_000, 8_000);
    let ls = spin.stats().net_latency.mean();
    let ld = drain.stats().net_latency.mean();
    assert!(
        (ld - ls).abs() / ls < 0.15,
        "low-load latency should match (spin {ls:.1}, drain {ld:.1})"
    );
}

/// Fig 14 shape: a tiny epoch (continuous draining) hurts latency.
#[test]
fn fig14_shape_tiny_epoch_hurts() {
    let topo = Topology::mesh(4, 4);
    let lat_at = |epoch: u64| {
        let mut sim = sim(DRAIN, &topo, true, 0.05, 8, epoch);
        sim.warmup_and_measure(2_000, 8_000);
        sim.stats().net_latency.mean()
    };
    let tiny = lat_at(16);
    let large = lat_at(16_384);
    assert!(
        tiny > large * 1.3,
        "16-cycle epoch ({tiny:.1}) must be clearly worse than 16K ({large:.1})"
    );
}
