//! End-to-end deadlock-freedom guarantees across the whole stack.

use drain_repro::prelude::*;
use drain_repro::netsim::mechanism::NoMechanism;
use drain_repro::netsim::VcRef;

/// Builds the Fig 8 scripted double-deadlock on the 3x3 faulty mesh.
fn fig8_deadlock_sim(mechanism: Box<dyn drain_repro::netsim::mechanism::Mechanism>) -> Sim {
    let topo = drain_repro::topology::chiplet::fig8_topology();
    let config = SimConfig {
        vns: 1,
        vcs_per_vn: 1,
        num_classes: 1,
        escape_sticky: true,
        watchdog_threshold: 0,
        ..SimConfig::default()
    };
    // Strictly minimal adaptive routing: the scripted knots of Fig 8 are
    // deadlocks only when blocked packets cannot deflect sideways.
    let mut sim = Sim::new(
        topo.clone(),
        config,
        FullyAdaptive::with_deflection(&topo, None),
        mechanism,
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
    let placements = [
        ((1u16, 0u16), 6u16),
        ((0, 3), 5),
        ((3, 4), 2),
        ((4, 1), 0),
        ((7, 4), 5),
        ((4, 5), 8),
        ((5, 8), 7),
        ((8, 7), 4),
    ];
    for &((src, at), dest) in &placements {
        let link = topo.link_between(NodeId(src), NodeId(at)).unwrap();
        sim.core_mut().place_packet(
            VcRef { link, vn: 0, vc: 0 },
            NodeId(src),
            NodeId(dest),
            MessageClass::REQUEST,
            1,
        );
    }
    sim
}

#[test]
fn scripted_deadlock_is_real() {
    let sim = fig8_deadlock_sim(Box::new(NoMechanism));
    let report = drain_repro::netsim::deadlock::detect(sim.core());
    assert_eq!(report.deadlocked.len(), 8, "all eight packets are knotted");
}

#[test]
fn unprotected_never_recovers() {
    let mut sim = fig8_deadlock_sim(Box::new(NoMechanism));
    sim.run(10_000);
    assert_eq!(sim.stats().ejected, 0);
    assert_eq!(sim.core().packets_in_network(), 8);
}

#[test]
fn drain_removes_scripted_deadlock() {
    let topo = drain_repro::topology::chiplet::fig8_topology();
    let path = DrainPath::compute(&topo).unwrap();
    let mech = DrainMechanism::new(
        path,
        DrainConfig {
            epoch: 100,
            ..DrainConfig::default()
        },
    );
    let mut sim = fig8_deadlock_sim(Box::new(mech));
    sim.run(3_000);
    assert_eq!(sim.stats().ejected, 8, "all packets delivered after drains");
    assert!(sim.stats().drains + sim.stats().full_drains >= 1);
}

#[test]
fn spin_removes_scripted_deadlock() {
    let mech = SpinMechanism::new(drain_repro::baselines::SpinConfig { timeout: 50 });
    let mut sim = fig8_deadlock_sim(Box::new(mech));
    sim.run(5_000);
    assert_eq!(sim.stats().ejected, 8, "all packets delivered after spins");
    assert!(sim.stats().spins >= 1);
}

#[test]
fn single_vn_mesi_wedges_without_drain_and_survives_with_it() {
    let topo = Topology::mesh(4, 4);
    let build = |protected: bool| -> Sim {
        let engine = CoherenceEngine::new(
            &topo,
            CoherenceConfig::default(),
            Box::new(SyntheticMemTrace::uniform(0.05, 0.4, 256, 11)),
        );
        let config = SimConfig {
            vns: 1,
            vcs_per_vn: 2,
            num_classes: 3,
            inj_queue_capacity: topo.num_nodes() + 8,
            escape_sticky: true,
            watchdog_threshold: 20_000,
            ..SimConfig::default()
        };
        let mechanism: Box<dyn drain_repro::netsim::mechanism::Mechanism> = if protected {
            Box::new(DrainMechanism::new(
                DrainPath::compute(&topo).unwrap(),
                DrainConfig {
                    epoch: 8_192,
                    ..DrainConfig::default()
                },
            ))
        } else {
            Box::new(NoMechanism)
        };
        Sim::new(
            topo.clone(),
            config,
            FullyAdaptive::new(&topo),
            mechanism,
            Box::new(engine),
        )
    };
    let mut unprotected = build(false);
    unprotected.run(150_000);
    assert!(
        unprotected.stats().watchdog_deadlock,
        "single-VN MESI under write pressure must deadlock unprotected"
    );
    let mut drained = build(true);
    drained.run(150_000);
    assert!(!drained.stats().watchdog_deadlock, "DRAIN keeps it live");
    // The unprotected network wedges at some point and stops delivering;
    // DRAIN keeps delivering to the end of the run.
    assert!(
        drained.stats().ejected > unprotected.stats().ejected,
        "DRAIN delivers more ({} vs {})",
        drained.stats().ejected,
        unprotected.stats().ejected
    );
}

#[test]
fn escape_vc_baseline_needs_three_vns_for_protocol_freedom() {
    // The proactive baseline with its full 3 virtual networks stays live
    // under the same load that wedges the single-VN configuration.
    let topo = Topology::mesh(4, 4);
    let engine = CoherenceEngine::new(
        &topo,
        CoherenceConfig::default(),
        Box::new(SyntheticMemTrace::uniform(0.05, 0.4, 256, 11)),
    );
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            inj_queue_capacity: topo.num_nodes() + 8,
            escape_sticky: true,
            watchdog_threshold: 30_000,
            ..SimConfig::escape_vc_baseline()
        },
        EscapeVcRouting::with_dor(&topo),
        Box::new(NoMechanism),
        Box::new(engine),
    );
    sim.run(120_000);
    assert!(!sim.stats().watchdog_deadlock);
    assert!(sim.stats().ejected > 1_000);
}

#[test]
fn drain_survives_irregular_torture() {
    // Faulty topology + moderate load + small epoch: every injected packet
    // must eventually be delivered once injection stops.
    let topo = FaultInjector::new(3)
        .remove_links(&Topology::mesh(5, 5), 6)
        .unwrap();
    let path = DrainPath::compute(&topo).unwrap();
    let mech = DrainMechanism::new(
        path,
        DrainConfig {
            epoch: 2_048,
            full_drain_period: 8,
            ..DrainConfig::default()
        },
    );
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            num_classes: 1,
            watchdog_threshold: 0,
            ..SimConfig::drain_default()
        },
        FullyAdaptive::new(&topo),
        Box::new(mech),
        Box::new(
            SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.15, 1, 13)
                .stop_injection_at(20_000),
        ),
    );
    let outcome = sim.run(200_000);
    assert_eq!(outcome, RunOutcome::WorkloadFinished, "network must empty");
    assert_eq!(sim.stats().injected, sim.stats().ejected);
}
