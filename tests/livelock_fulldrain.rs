//! Livelock/starvation backstop (paper §III-C2, §III-D3): when ejection
//! ports stay busy, drained packets can be misrouted repeatedly; the
//! periodic *full drain* walks every packet past its destination with an
//! ejection opportunity at each visit, bounding starvation.

use drain_repro::netsim::traffic::Endpoints;
use drain_repro::prelude::*;

/// An endpoint model that refuses to consume ejections until a given
/// cycle — modeling a long ejection-port outage — then consumes freely.
struct StalledSink {
    resume_at: u64,
}

impl Endpoints for StalledSink {
    fn name(&self) -> &str {
        "stalled-sink"
    }

    fn pre_cycle(&mut self, core: &mut drain_repro::netsim::SimCore) {
        if core.cycle() < self.resume_at {
            return;
        }
        let n = core.topology().num_nodes();
        for ni in 0..n {
            let node = NodeId(ni as u16);
            while core.pop_ejection(node, MessageClass::REQUEST).is_some() {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn build(full_drain_period: u64) -> Sim {
    let topo = Topology::mesh(3, 3);
    let path = DrainPath::compute(&topo).unwrap();
    let mech = DrainMechanism::new(
        path,
        DrainConfig {
            epoch: 256,
            full_drain_period,
            ..DrainConfig::default()
        },
    );
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            vns: 1,
            vcs_per_vn: 1,
            num_classes: 1,
            ej_queue_capacity: 1,
            escape_sticky: true,
            watchdog_threshold: 0,
            ..SimConfig::default()
        },
        FullyAdaptive::with_deflection(&topo, None),
        Box::new(mech),
        Box::new(StalledSink { resume_at: 8_000 }),
    );
    // Seed traffic while the sink is stalled: many cross-mesh packets.
    for i in 0..9u16 {
        for j in 0..2 {
            let dest = NodeId((i + 4 + j) % 9);
            sim.core_mut()
                .try_enqueue_packet(NodeId(i), dest, MessageClass::REQUEST, 1, 0);
        }
    }
    sim
}

#[test]
fn full_drain_keeps_packets_moving_through_an_ejection_outage() {
    let mut sim = build(4); // full drain every 4 windows
    // During the outage the network cannot deliver more than the queue
    // capacity, but drains keep everything moving (no stuck knot).
    sim.run(8_000);
    let s = sim.stats();
    assert!(s.full_drains > 0, "full drains ran during the outage");
    assert!(
        s.forced_hops > 50,
        "packets kept circulating: {} forced hops",
        s.forced_hops
    );
    // Once the sink resumes, everything delivers.
    let outcome = sim.run(30_000);
    assert_eq!(sim.core().live_packets(), 0, "all packets delivered");
    assert_eq!(sim.stats().injected, sim.stats().ejected);
    let _ = outcome;
}

#[test]
fn full_drain_ejects_at_every_destination_visit() {
    // With the sink consuming normally, a full drain flushes every
    // escape-VC packet: each one passes its destination router during the
    // walk (the drain path visits every router).
    let topo = Topology::mesh(3, 3);
    let path = DrainPath::compute(&topo).unwrap();
    let mech = DrainMechanism::new(
        path,
        DrainConfig {
            epoch: 100,
            full_drain_period: 1,
            ..DrainConfig::default()
        },
    );
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            vns: 1,
            vcs_per_vn: 1,
            num_classes: 1,
            escape_sticky: true,
            watchdog_threshold: 0,
            ..SimConfig::default()
        },
        FullyAdaptive::with_deflection(&topo, None),
        Box::new(mech),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
    // Fill several escape VCs with far-destination packets via the
    // scripted deadlock placement pattern.
    use drain_repro::netsim::VcRef;
    let placements = [((0u16, 1u16), 8u16), ((1, 2), 6), ((3, 4), 2), ((7, 8), 0)];
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
    sim.run(1_000);
    assert!(sim.stats().full_drains > 0);
    assert_eq!(sim.stats().ejected, 4, "every packet delivered");
}
