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

/// DRAIN VN-1/VC-2 on `topo`: one message class, drain epoch 512,
/// uniform traffic at `rate`, seeded `seed`.
fn drain_sim(topo: Topology, rate: f64, seed: u64) -> Sim {
    let drain = Scheme::Drain(DrainVariant::Vn1Vc2);
    let config = SimConfig {
        num_classes: 1,
        seed,
        ..drain.config()
    };
    let drain_config = DrainConfig {
        epoch: 512,
        ..DrainConfig::default()
    };
    let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, rate, 1, seed);
    drain
        .build(topo, false, Box::new(traffic), config, drain_config)
        .unwrap()
}

/// Hop counts to one destination by a plain queue BFS over reversed edges
/// — the routine the tables were built with before the bit-parallel one.
/// `seeds` are the states at distance 0, `preds(v)` the states with an
/// edge into `v`.
fn queue_bfs(states: usize, seeds: &[usize], preds: impl Fn(usize) -> Vec<usize>) -> Vec<u16> {
    let mut dist = vec![u16::MAX; states];
    let mut queue = std::collections::VecDeque::new();
    for &s in seeds {
        dist[s] = 0;
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        for u in preds(v) {
            if dist[u] == u16::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// `DistanceMap` against its definition: distances are BFS hop counts, and
/// the productive set is, in `out_links` order, the links whose far end is
/// one hop closer (empty on the diagonal and toward unreachable nodes).
fn assert_distance_map_matches_bfs(topo: &Topology) {
    let d = DistanceMap::new(topo);
    for dest in topo.nodes() {
        let bfs = queue_bfs(topo.num_nodes(), &[dest.index()], |v| {
            let into_v = topo.in_links(NodeId(v as u16)).iter();
            into_v.map(|&l| topo.link(l).src.index()).collect()
        });
        for cur in topo.nodes() {
            let here = bfs[cur.index()];
            assert_eq!(d.distance(cur, dest), here, "distance {cur:?}->{dest:?}");
            let closer = |l: &LinkId| {
                here != u16::MAX && here != 0 && bfs[topo.link(*l).dst.index()] == here - 1
            };
            let expected: Vec<LinkId> =
                topo.out_links(cur).iter().copied().filter(closer).collect();
            let ports = d.productive_ports(cur, dest);
            let got: Vec<LinkId> = topo.port_links(cur, ports).collect();
            assert_eq!(got, expected, "productive set {cur:?}->{dest:?}");
            assert_eq!(
                ports.count_ones() as usize,
                expected.len(),
                "stray bit in {ports:#b}"
            );
        }
    }
}

/// `UpDownRouting::legal_distance` against a queue BFS over the
/// phase-expanded graph (state `phase * n + node`, both states of the
/// destination at 0, the three legal transitions).
fn assert_updown_distances_match_bfs(topo: &Topology) {
    let ud = UpDownRouting::new(topo);
    let n = topo.num_nodes();
    for dest in topo.nodes() {
        let bfs = queue_bfs(2 * n, &[dest.index(), n + dest.index()], |state| {
            let mut preds = Vec::new();
            for &l in topo.in_links(NodeId((state % n) as u16)) {
                let u = topo.link(l).src.index();
                match (ud.direction(l), state >= n) {
                    (LinkDirection::Up, false) => preds.push(u),
                    (LinkDirection::Down, true) => preds.extend([u, n + u]),
                    _ => {}
                }
            }
            preds
        });
        for cur in topo.nodes() {
            for phase in [Phase::CanUp, Phase::DownOnly] {
                assert_eq!(
                    ud.legal_distance(cur, dest, phase),
                    bfs[phase as usize * n + cur.index()],
                    "legal distance {cur:?}->{dest:?} in {phase:?}"
                );
            }
        }
    }
}

/// The bit-parallel BFS handles 64 destinations per pass; `arb_topology()`
/// tops out at 36 nodes, so these sizes are what reaches the second and
/// third pass and a last pass of every width class (63, 64, 1, 17 wide).
#[test]
fn tables_match_queue_bfs_across_the_64_destination_batch_edge() {
    let mut topos: Vec<Topology> = [63, 64, 65, 129]
        .iter()
        .map(|&n| random_connected(n, 3.0, u64::from(n)))
        .collect();
    topos.push(
        FaultInjector::new(5)
            .remove_links(&Topology::mesh(9, 9), 6)
            .unwrap(),
    );
    for topo in &topos {
        assert_distance_map_matches_bfs(topo);
        assert_updown_distances_match_bfs(topo);
    }
}

#[test]
fn distance_map_of_two_components_marks_the_unreachable() {
    // A 66-node path and a triangle: the first pass of the BFS holds
    // destinations of the path only, the second of both components.
    let mut edges: Vec<(u16, u16)> = (0..65).map(|i| (i, i + 1)).collect();
    edges.extend([(66, 67), (67, 68), (68, 66)]);
    let topo = Topology::from_edges("two-components", 69, &edges).unwrap();
    assert_distance_map_matches_bfs(&topo);
    let d = DistanceMap::new(&topo);
    for (a, b) in [(0, 66), (68, 65), (67, 0)] {
        assert_eq!(d.distance(NodeId(a), NodeId(b)), u16::MAX);
        assert_eq!(d.productive_ports(NodeId(a), NodeId(b)), 0);
    }
    for node in topo.nodes() {
        assert_eq!(d.distance(node, node), 0);
        assert_eq!(d.productive_ports(node, node), 0);
    }
    assert_eq!(d.diameter(), 65);
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
    fn distance_map_matches_queue_bfs(topo in arb_topology()) {
        assert_distance_map_matches_bfs(&topo);
    }

    #[test]
    fn updown_legal_distances_match_queue_bfs(topo in arb_topology()) {
        assert_updown_distances_match_bfs(&topo);
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
                    let ports = ud.next_hop_ports(cur, dest, phase);
                    prop_assert!(
                        topo.port_links(cur, ports).eq(expected.iter().copied())
                            && ports.count_ones() as usize == expected.len(),
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
        let mut sim = drain_sim(topo, rate, seed);
        sim.set_checks(CheckConfig::full().with_progress_horizon(4_096));
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
            let mut sim = drain_sim(topo, rate, seed);
            sim.set_checks(CheckConfig::full().with_progress_horizon(4_096));
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
