//! Determinism and conservation invariants across the full stack.

use drain_repro::prelude::*;

/// `scheme` on `topo` at its Table II config, uniform traffic at `rate`,
/// seeded `seed`; DRAIN runs one message class with drain epoch `epoch`.
fn sim(scheme: Scheme, topo: &Topology, rate: f64, seed: u64, epoch: u64) -> Sim {
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
        .build(topo, false, Box::new(traffic), config, drain)
        .unwrap()
}

const DRAIN: Scheme = Scheme::Drain(DrainVariant::Vn1Vc2);

#[test]
fn identical_seeds_identical_runs() {
    let topo = FaultInjector::new(5)
        .remove_links(&Topology::mesh(5, 5), 4)
        .unwrap();
    for b in [Scheme::EscapeVc, Scheme::Spin, Scheme::Ideal] {
        let run = |seed: u64| {
            let mut sim = sim(b, &topo, 0.08, seed, Scheme::DEFAULT_EPOCH);
            sim.run(8_000);
            (
                sim.stats().injected,
                sim.stats().ejected,
                sim.stats().hops,
                sim.stats().net_latency.count(),
            )
        };
        assert_eq!(run(3), run(3), "{:?} must be deterministic", b);
        assert_ne!(run(3), run(4), "{:?} must respond to the seed", b);
    }
}

#[test]
fn drain_runs_are_deterministic() {
    let topo = Topology::mesh(4, 4);
    let run = |seed: u64| {
        let mut sim = sim(DRAIN, &topo, 0.1, seed, 1_024);
        sim.run(12_000);
        (sim.stats().ejected, sim.stats().drains, sim.stats().forced_hops)
    };
    assert_eq!(run(9), run(9));
}

#[test]
fn packets_conserved_under_every_scheme() {
    let topo = FaultInjector::new(8)
        .remove_links(&Topology::mesh(5, 5), 4)
        .unwrap();
    for b in [
        Scheme::EscapeVc,
        Scheme::Spin,
        Scheme::UpDown,
        Scheme::Ideal,
    ] {
        let mut sim = sim(b, &topo, 0.1, 2, Scheme::DEFAULT_EPOCH);
        sim.run(10_000);
        let s = sim.stats();
        let live = sim.core().live_packets() as u64;
        let backlog = sim.core().ejection_backlog() as u64;
        // Delivered-but-unconsumed packets are both "ejected" and "live".
        assert_eq!(
            s.generated + backlog,
            s.ejected + live,
            "{:?}: generated = consumed + live",
            b
        );
        assert!(s.injected >= s.ejected);
    }
}

#[test]
fn drain_conserves_packets_through_forced_moves() {
    let topo = Topology::mesh(4, 4);
    // Drain aggressively to stress forced moves.
    let mut sim = sim(DRAIN, &topo, 0.15, 4, 256);
    sim.run(20_000);
    let s = sim.stats();
    assert!(s.drains > 10);
    assert_eq!(
        s.generated + sim.core().ejection_backlog() as u64,
        s.ejected + sim.core().live_packets() as u64
    );
}

#[test]
fn coherence_transactions_complete_and_conserve() {
    let topo = Topology::mesh(3, 3);
    let engine = CoherenceEngine::new(
        &topo,
        CoherenceConfig::default(),
        Box::new(SyntheticMemTrace::uniform(0.1, 0.3, 64, 6).with_quota(100)),
    );
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            inj_queue_capacity: 64,
            escape_sticky: true,
            ..SimConfig::escape_vc_baseline()
        },
        EscapeVcRouting::with_dor(&topo),
        Box::new(drain_repro::netsim::mechanism::NoMechanism),
        Box::new(engine),
    );
    let outcome = sim.run(400_000);
    assert_eq!(outcome, RunOutcome::WorkloadFinished);
    assert_eq!(sim.core().live_packets(), 0, "no stray messages at the end");
}

#[test]
fn stats_quantiles_are_monotone() {
    let topo = Topology::mesh(4, 4);
    let mut sim = sim(Scheme::Spin, &topo, 0.2, 7, Scheme::DEFAULT_EPOCH);
    sim.run(10_000);
    let h = &sim.stats().net_latency;
    assert!(h.quantile(0.5) <= h.quantile(0.9));
    assert!(h.quantile(0.9) <= h.quantile(0.99));
    assert!(h.p99() <= h.max());
    assert!(h.mean() > 0.0);
}
