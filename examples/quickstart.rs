//! Quickstart: bring up a DRAIN-protected network on a faulty mesh and
//! watch it deliver traffic that would deadlock an unprotected network.
//!
//! Run with: `cargo run --release --example quickstart`

use drain_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64-node mesh that has lost 8 links to wear-out faults, as in the
    // paper's irregular-topology evaluation.
    let topo = FaultInjector::new(42).remove_links(&Topology::mesh(8, 8), 8)?;
    println!(
        "topology: {} ({} nodes, {} bidirectional links, connected: {})",
        topo.name(),
        topo.num_nodes(),
        topo.num_bidirectional_links(),
        topo.is_connected()
    );

    // The offline algorithm: one cycle covering every unidirectional link.
    let path = DrainPath::compute(&topo)?;
    println!(
        "drain path: {} links covered exactly once (verified: {:?})",
        path.len(),
        path.verify(&topo).is_ok()
    );

    // A DRAIN-protected simulation as the paper evaluates it (Table II):
    // fully adaptive routing (not deadlock-free by itself!), one virtual
    // network with two VCs, and the paper's 64K-cycle drain epoch.
    let drain = Scheme::Drain(DrainVariant::Vn1Vc2);
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.05, 1, 7);
    let mut sim = drain.build(
        topo,
        false,
        Box::new(traffic),
        SimConfig {
            num_classes: 1,
            seed: 7,
            ..drain.config()
        },
        DrainConfig {
            epoch: 65_536,
            ..DrainConfig::default()
        },
    )?;
    sim.run(50_000);

    let s = sim.stats();
    println!("\nafter 50K cycles at 5% uniform-random injection:");
    println!("  packets delivered : {}", s.ejected);
    println!("  mean latency      : {:.1} cycles", s.net_latency.mean());
    println!("  p99 latency       : {} cycles", s.net_latency.p99());
    println!("  avg hops          : {:.2}", s.avg_hops());
    println!("  drain windows     : {}", s.drains);
    println!("  drained hops      : {}", s.forced_hops);
    println!(
        "  misroutes/packet  : {:.4}",
        s.misroutes as f64 / s.ejected.max(1) as f64
    );
    assert!(s.ejected > 0);
    Ok(())
}
