//! Regression tests for the structural deadlock detector
//! ([`drain_netsim::deadlock::detect`]): a known-negative (idle irregular
//! network) and a deterministic hand-built known-positive (a 4-router
//! cyclic wait that must be reported in full).

use drain_netsim::deadlock::detect;
use drain_netsim::mechanism::NoMechanism;
use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
use drain_netsim::{CheckConfig, MessageClass, Sim, SimConfig, VcRef};
use drain_topology::chiplet::random_connected;
use drain_topology::{NodeId, Topology};

/// A simulator with nothing injected: 1 VN × 1 VC so a single cyclic wait
/// has no sibling buffer to escape into.
fn single_vc_sim(topo: &Topology) -> Sim {
    Sim::new(
        topo.clone(),
        SimConfig {
            vns: 1,
            vcs_per_vn: 1,
            num_classes: 1,
            watchdog_threshold: 0,
            ..SimConfig::default()
        },
        FullyAdaptive::new(topo),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 7)),
    )
}

#[test]
fn idle_irregular_network_reports_zero_deadlocked_vcs() {
    for topo in [
        Topology::mesh(4, 4),
        Topology::ring(5),
        random_connected(12, 3.0, 42),
    ] {
        let sim = single_vc_sim(&topo);
        let report = detect(sim.core());
        assert!(
            report.deadlocked.is_empty(),
            "idle {} reported {} deadlocked VCs",
            topo.name(),
            report.deadlocked.len()
        );
    }
}

#[test]
fn hand_built_four_router_cyclic_wait_is_fully_reported() {
    // Ring of 4 routers, one VC per link. Every one of the 8 directed
    // links holds a packet destined two hops past the link's head router:
    // no packet can eject where it sits, and every forward buffer is
    // occupied by another member of the wait cycle — a textbook circular
    // wait. The detector must convict all 8 VCs.
    let topo = Topology::ring(4);
    let mut sim = single_vc_sim(&topo);
    let n = topo.num_nodes() as u16;
    for l in topo.link_ids() {
        let edge = topo.link(l);
        let dest = NodeId((edge.dst.0 + 2) % n);
        sim.core_mut().place_packet(
            VcRef { link: l, vn: 0, vc: 0 },
            edge.src,
            dest,
            MessageClass(0),
            1,
        );
    }
    let report = detect(sim.core());
    assert!(report.is_deadlocked());
    assert_eq!(
        report.deadlocked.len(),
        topo.num_unidirectional_links(),
        "every occupied VC is part of the cyclic wait: {:?}",
        report.deadlocked
    );
    // The runtime invariant checker must agree this state is stuck
    // *without* flagging it as a bookkeeping violation: occupancy,
    // conservation and reachability all hold — only progress is absent.
    let checks = CheckConfig {
        deep_interval: 1,
        ..CheckConfig::full()
    };
    drain_netsim::check::run_checks(sim.core(), &checks)
        .expect("a deadlock is not a bookkeeping bug");
}
