//! Fig 8: walk-through — two routing deadlock cycles on a 3×3 mesh with a
//! faulty 2–5 link, removed by a single drain window.
//!
//! Eight packets are placed exactly so that each one's only productive
//! next-hop buffer is occupied by the next packet: two four-packet
//! deadlock cycles (routers 0-3-4-1 and 4-5-8-7). The structural oracle
//! confirms the deadlock; DRAIN's drain window forces every packet one hop
//! along the offline drain path, after which adaptive routing delivers
//! everything.

use drain_bench::engine::SweepEngine;
use drain_bench::report::write_csv;
use drain_bench::table::banner;
use drain_bench::Scale;
use drain_core::{DrainConfig, DrainMechanism};
use drain_netsim::deadlock;
use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
use drain_netsim::{MessageClass, Sim, SimConfig, VcRef};
use drain_path::DrainPath;
use drain_topology::{chiplet::fig8_topology, NodeId};

fn main() {
    let scale = Scale::from_env();
    banner("Fig 8", "walk-through: drain removes two deadlock cycles", scale);
    let engine = SweepEngine::new("fig08", scale);
    let topo = fig8_topology();
    println!(
        "\ntopology: 3x3 mesh, faulty link 2-5 removed ({} bidirectional links)",
        topo.num_bidirectional_links()
    );
    let path = DrainPath::compute(&topo).unwrap();
    println!("drain path ({} links): computed by the offline algorithm", path.len());

    let config = SimConfig {
        vns: 1,
        vcs_per_vn: 1,
        num_classes: 1,
        escape_sticky: true,
        watchdog_threshold: 0,
        ..SimConfig::default()
    };
    let mech = DrainMechanism::new(
        path,
        DrainConfig {
            epoch: 50,
            hops_per_drain: 1,
            full_drain_period: 0,
        },
    );
    let mut sim = Sim::new(
        topo.clone(),
        config,
        // Strictly minimal adaptive: the walk-through's knots require
        // packets that cannot deflect sideways.
        FullyAdaptive::with_deflection(&topo, None),
        Box::new(mech),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );

    // The two deadlock cycles: (buffer of link a->b, destination).
    let placements = [
        // Cycle 1: routers 0 -> 3 -> 4 -> 1 -> 0.
        ((1u16, 0u16), 6u16), // packet 0 sits at router 0, only path to 6 is via 3
        ((0, 3), 5),          // packet 1 at router 3, only path to 5 is via 4
        ((3, 4), 2),          // packet 2 at router 4, only path to 2 is via 1
        ((4, 1), 0),          // packet 3 at router 1, next hop to 0
        // Cycle 2: routers 4 -> 5 -> 8 -> 7 -> 4 (link 4-5 still alive).
        ((7, 4), 5),
        ((4, 5), 8),
        ((5, 8), 7),
        ((8, 7), 4),
    ];
    println!("\n(a) before: eight packets, each waiting on the next one's buffer");
    for (i, &((src, at), dest)) in placements.iter().enumerate() {
        let link = topo
            .link_between(NodeId(src), NodeId(at))
            .expect("placement uses live links");
        let r = VcRef { link, vn: 0, vc: 0 };
        sim.core_mut()
            .place_packet(r, NodeId(src), NodeId(dest), MessageClass::REQUEST, 1);
        println!(
            "  packet {i}: in buffer of link {src}->{at} (at router {at}), destination {dest}"
        );
    }
    let report = deadlock::detect(sim.core());
    println!(
        "\noracle: {} VCs in a deadlock knot {}",
        report.deadlocked.len(),
        if report.is_deadlocked() { "— DEADLOCKED ✓" } else { "" }
    );
    assert!(report.is_deadlocked(), "the walk-through must start deadlocked");

    // Let the epoch expire and the drain window fire.
    sim.run(80);
    println!("\n(b)+(c) drain window at epoch 50: all packets forced one hop along the path");
    println!("  drains executed: {}", sim.stats().drains);
    println!("  forced hops: {}", sim.stats().forced_hops);
    let after = deadlock::detect(sim.core());
    println!(
        "  oracle after drain: {} deadlocked VCs",
        after.deadlocked.len()
    );
    for (r, pid) in sim.core().occupied_vcs() {
        let e = topo.link(r.link);
        let p = sim.core().packet(pid);
        println!(
            "  {:?} now in buffer of link {}->{} heading to {}",
            pid, e.src, e.dst, p.dest
        );
    }
    // Run on: adaptive routing must now deliver everything.
    sim.run(2_000);
    println!(
        "\nfinal: {} of 8 packets delivered; {} still in network",
        sim.stats().ejected,
        sim.core().packets_in_network()
    );
    assert_eq!(sim.stats().ejected, 8, "all packets must be delivered");
    println!("\nDraining for one hop successfully breaks both deadlocks (paper: 'In some cases, more than one drain window may be required').");
    write_csv(
        "fig08",
        &["deadlocked_vcs_before", "drains", "forced_hops", "deadlocked_vcs_after", "delivered"],
        &[vec![
            report.deadlocked.len().to_string(),
            sim.stats().drains.to_string(),
            sim.stats().forced_hops.to_string(),
            after.deadlocked.len().to_string(),
            sim.stats().ejected.to_string(),
        ]],
    );
    engine.finish();
}
