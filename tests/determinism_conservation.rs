//! Determinism and conservation invariants across the full stack.

use drain_repro::baselines::{baseline_sim, Baseline};
use drain_repro::prelude::*;

fn traffic(rate: f64, seed: u64) -> Box<SyntheticTraffic> {
    Box::new(SyntheticTraffic::new(
        SyntheticPattern::UniformRandom,
        rate,
        1,
        seed,
    ))
}

#[test]
fn identical_seeds_identical_runs() {
    let topo = FaultInjector::new(5)
        .remove_links(&Topology::mesh(5, 5), 4)
        .unwrap();
    for b in [Baseline::EscapeVc, Baseline::Spin, Baseline::Ideal] {
        let run = |seed: u64| {
            let mut sim = baseline_sim(&topo, b, false, traffic(0.08, seed), seed);
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
        let mut sim = DrainNetworkBuilder::new(topo.clone())
            .epoch(1_024)
            .injection_rate(0.1)
            .seed(seed)
            .build()
            .unwrap();
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
        Baseline::EscapeVc,
        Baseline::Spin,
        Baseline::UpDown,
        Baseline::Ideal,
    ] {
        let mut sim = baseline_sim(&topo, b, false, traffic(0.1, 2), 2);
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
    let mut sim = DrainNetworkBuilder::new(topo)
        .epoch(256) // drain aggressively to stress forced moves
        .injection_rate(0.15)
        .seed(4)
        .build()
        .unwrap();
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
    let mut sim = baseline_sim(&topo, Baseline::Spin, true, traffic(0.2, 7), 7);
    sim.run(10_000);
    let h = &sim.stats().net_latency;
    assert!(h.quantile(0.5) <= h.quantile(0.9));
    assert!(h.quantile(0.9) <= h.quantile(0.99));
    assert!(h.p99() <= h.max());
    assert!(h.mean() > 0.0);
}
