//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use drain_repro::netsim::CheckConfig;
use drain_repro::path::{Algorithm, DrainPath};
use drain_repro::prelude::*;
use drain_repro::topology::chiplet::random_connected;
use drain_repro::topology::depgraph::DependencyGraph;
use drain_repro::topology::distance::DistanceMap;
use drain_repro::topology::updown::{LinkDirection, Phase, UpDownRouting};

/// Strategy: an arbitrary connected topology (faulty mesh or random graph).
fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        // Faulty meshes: dims 3..=6, faults bounded by removable links.
        (3u16..=6, 3u16..=6, 0usize..=6, any::<u64>()).prop_map(|(w, h, faults, seed)| {
            let base = Topology::mesh(w, h);
            if faults == 0 {
                base
            } else {
                FaultInjector::new(seed)
                    .remove_links(&base, faults)
                    .unwrap_or(base)
            }
        }),
        // Random connected graphs.
        (6u16..=24, any::<u64>()).prop_map(|(n, seed)| random_connected(n, 3.0, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn drain_path_covers_every_link(topo in arb_topology()) {
        let p = DrainPath::compute(&topo).unwrap();
        prop_assert_eq!(p.len(), topo.num_unidirectional_links());
        prop_assert!(p.verify(&topo).is_ok());
        prop_assert!(p.turn_table().is_permutation());
    }

    #[test]
    fn both_offline_algorithms_agree_on_coverage(topo in arb_topology()) {
        let a = DrainPath::compute_with(&topo, Algorithm::Hierholzer).unwrap();
        let b = DrainPath::compute_with(&topo, Algorithm::HawickJames).unwrap();
        prop_assert_eq!(a.len(), b.len());
        prop_assert!(b.verify(&topo).is_ok());
    }

    #[test]
    fn offline_algorithms_produce_identical_turn_tables(topo in arb_topology()) {
        // Stronger than agreeing on coverage: both offline algorithms must
        // install the *same* next-hop permutation at every router, so a
        // deployment can switch algorithms without changing behaviour.
        let a = DrainPath::compute_with(&topo, Algorithm::Hierholzer).unwrap();
        let b = DrainPath::compute_with(&topo, Algorithm::HawickJames).unwrap();
        for l in topo.link_ids() {
            prop_assert!(
                a.next_link(l) == b.next_link(l),
                "turn tables diverge at link {}",
                l.index()
            );
        }
    }

    #[test]
    fn drain_path_is_closed_walk_in_dependency_graph(topo in arb_topology()) {
        let p = DrainPath::compute(&topo).unwrap();
        let dep = DependencyGraph::new(&topo);
        prop_assert!(dep.is_closed_walk(p.circuit()));
    }

    #[test]
    fn fault_injection_preserves_connectivity(
        seed in any::<u64>(),
        faults in 1usize..=10,
    ) {
        let base = Topology::mesh(6, 6);
        let t = FaultInjector::new(seed).remove_links(&base, faults).unwrap();
        prop_assert!(t.is_connected());
        prop_assert_eq!(t.num_bidirectional_links(), base.num_bidirectional_links() - faults);
        prop_assert_eq!(t.num_nodes(), base.num_nodes());
    }

    #[test]
    fn distances_satisfy_triangle_step(topo in arb_topology()) {
        let d = DistanceMap::new(&topo);
        for l in topo.link_ids() {
            let e = topo.link(l);
            for dest in topo.nodes() {
                let a = d.distance(e.src, dest);
                let b = d.distance(e.dst, dest);
                // One hop changes distance by at most one.
                prop_assert!(a.abs_diff(b) <= 1);
            }
        }
    }

    #[test]
    fn updown_routes_all_pairs(topo in arb_topology()) {
        let ud = UpDownRouting::new(&topo);
        for s in topo.nodes() {
            for t in topo.nodes() {
                if s == t { continue; }
                prop_assert!(
                    ud.legal_distance(s, t, Phase::CanUp) != u16::MAX,
                    "no legal up*/down* path {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn updown_next_hops_are_the_minimal_legal_links(topo in arb_topology()) {
        // The table contract, restated from the tables' own `direction` /
        // `legal_distance`: a next hop is an out-link that is legal in the
        // current phase and lands one hop closer, in `out_links` order.
        let ud = UpDownRouting::new(&topo);
        for cur in topo.nodes() {
            for dest in topo.nodes() {
                for phase in [Phase::CanUp, Phase::DownOnly] {
                    let d = ud.legal_distance(cur, dest, phase);
                    let expected: Vec<LinkId> = topo
                        .out_links(cur)
                        .iter()
                        .copied()
                        .filter(|&l| {
                            let next = match (phase, ud.direction(l)) {
                                (Phase::CanUp, LinkDirection::Up) => Phase::CanUp,
                                (_, LinkDirection::Down) => Phase::DownOnly,
                                (Phase::DownOnly, LinkDirection::Up) => return false,
                            };
                            cur != dest
                                && d != u16::MAX
                                && ud.legal_distance(topo.link(l).dst, dest, next) == d - 1
                        })
                        .collect();
                    prop_assert!(
                        ud.next_hops(cur, dest, phase) == &expected[..],
                        "next hops {cur:?}->{dest:?} in {phase:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn updown_legal_turns_form_no_cycle(topo in arb_topology()) {
        // The static half of "up*/down* is deadlock-free on every topology
        // we generate": the link graph restricted to legal turns (no
        // down->up) is acyclic, so Kahn's algorithm retires every link.
        let ud = &UpDownRouting::new(&topo);
        let legal_next = |l: LinkId| {
            let outs = topo.out_links(topo.link(l).dst).iter().copied();
            outs.filter(move |&next| ud.is_legal_turn(l, next))
        };
        let mut indegree = vec![0usize; topo.num_unidirectional_links()];
        for l in topo.link_ids() {
            for next in legal_next(l) {
                indegree[next.index()] += 1;
            }
        }
        let mut ready: Vec<LinkId> =
            topo.link_ids().filter(|l| indegree[l.index()] == 0).collect();
        let mut retired = 0;
        while let Some(l) = ready.pop() {
            retired += 1;
            for next in legal_next(l) {
                indegree[next.index()] -= 1;
                if indegree[next.index()] == 0 {
                    ready.push(next);
                }
            }
        }
        prop_assert!(retired == indegree.len(), "a cycle of legal turns survives");
    }

    #[test]
    fn short_drain_sim_conserves_packets(
        topo in arb_topology(),
        seed in any::<u64>(),
        rate in 0.01f64..0.2,
    ) {
        // Full runtime invariant checks ride along (panic-on-violation, so
        // any conservation/occupancy/reachability breach fails the case
        // with a replayable seed), on arbitrary irregular topologies.
        let mut sim = DrainNetworkBuilder::new(topo)
            .sim_config(SimConfig {
                num_classes: 1,
                checks: CheckConfig::full().with_progress_horizon(4_096),
                ..SimConfig::drain_default()
            })
            .epoch(512)
            .injection_rate(rate)
            .seed(seed)
            .build()
            .unwrap();
        sim.run(3_000);
        let s = sim.stats();
        prop_assert_eq!(
            s.generated + sim.core().ejection_backlog() as u64,
            s.ejected + sim.core().live_packets() as u64
        );
        prop_assert!(s.injected >= s.ejected);
    }

    #[test]
    fn wake_scheduler_never_misses_a_wake(
        topo in arb_topology(),
        seed in any::<u64>(),
        rate in 0.05f64..0.4,
    ) {
        // Missed-wake oracle on arbitrary irregular topologies: a parked
        // VC that the dense Phase A scan would move this cycle is a
        // violation. The deep check sweep re-runs that oracle every 64
        // cycles during the run (panic-on-violation with a replayable
        // seed); the explicit call below re-checks the final state, and
        // the dense re-run pins down end-to-end equivalence — if any wake
        // had been missed, the runs would diverge.
        let build = |topo: Topology, wake: bool| {
            let mut sim = DrainNetworkBuilder::new(topo)
                .sim_config(SimConfig {
                    num_classes: 1,
                    checks: CheckConfig::full().with_progress_horizon(4_096),
                    ..SimConfig::drain_default()
                })
                .epoch(512)
                .injection_rate(rate)
                .seed(seed)
                .build()
                .unwrap();
            sim.set_wake_scheduler(wake);
            sim
        };
        let mut sim = build(topo.clone(), true);
        sim.run(3_000);
        prop_assert!(
            sim.core().validate_wake_parking().is_ok(),
            "missed wake: {:?}",
            sim.core().validate_wake_parking()
        );
        let mut dense = build(topo, false);
        dense.run(3_000);
        prop_assert_eq!(sim.stats(), dense.stats());
    }
}
