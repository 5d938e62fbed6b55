//! Wear-out lifetime demo (paper §II-D): links fail one by one over the
//! chip's life; after each failure the offline algorithm recomputes the
//! drain path and service continues on the degraded, irregular topology —
//! no turn-restriction redesign, no topology assumptions.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use drain_repro::drain::reconfigure::FaultTolerantNetwork;
use drain_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = Topology::mesh(6, 6);
    let mut net = FaultTolerantNetwork::new(
        topo,
        SimConfig {
            num_classes: 1,
            ..SimConfig::drain_default()
        },
        DrainConfig {
            epoch: 4_096,
            full_drain_period: 16,
            ..DrainConfig::default()
        },
        SyntheticPattern::UniformRandom,
        0.04,
        9,
    )?;

    println!("6x6 mesh entering service; links will wear out one by one\n");
    for event in 0..6 {
        net.serve(20_000);
        let delivered = net.delivered();
        println!(
            "service period {event}: topology {} links, {} packets delivered so far",
            net.topology().num_bidirectional_links(),
            delivered
        );
        if let Some(link) = FaultInjector::new(1234).pick_removable_link(net.topology(), event) {
            let e = net.topology().link(link);
            let fault_cycle = net.sim().core().cycle();
            let retired = net.fault_link(link)?;
            println!(
                "  !! link {}-{} failed; flushed in {} cycles, drain path recomputed",
                e.src,
                e.dst,
                retired.core().cycle() - fault_cycle
            );
            assert_eq!(
                retired.core().live_packets(),
                0,
                "the flush delivers every packet"
            );
        }
    }
    net.serve(20_000);
    let rec = net.record();
    println!("\nlifetime summary:");
    println!("  faults survived          : {}", rec.faults_survived);
    println!("  total packets delivered  : {}", net.delivered());
    println!("  reconfiguration overhead : {} cycles", rec.reconfiguration_cycles);
    assert_eq!(rec.faults_survived, 6);
    assert!(net.topology().is_connected());
    Ok(())
}
