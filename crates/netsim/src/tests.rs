//! Engine-level unit tests: forced moves, freeze semantics, placement and
//! allocation invariants that the mechanism implementations rely on.

use crate::mechanism::{ControlAction, ForcedKind, ForcedMove, Mechanism, NoMechanism};
use crate::routing::FullyAdaptive;
use crate::traffic::{InjectionEvent, SyntheticPattern, SyntheticTraffic, TraceTraffic};
use crate::{MessageClass, Sim, SimConfig, VcRef};
use drain_topology::{NodeId, Topology};

fn quiet_sim(topo: &Topology, config: SimConfig) -> Sim {
    Sim::new(
        topo.clone(),
        config,
        FullyAdaptive::with_deflection(topo, None),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    )
}

fn single_vc_config() -> SimConfig {
    SimConfig {
        vns: 1,
        vcs_per_vn: 1,
        num_classes: 1,
        watchdog_threshold: 0,
        ..SimConfig::default()
    }
}

#[test]
fn placed_packet_routes_to_destination() {
    let topo = Topology::mesh(3, 3);
    let mut sim = quiet_sim(&topo, single_vc_config());
    let link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    sim.core_mut().place_packet(
        VcRef { link, vn: 0, vc: 0 },
        NodeId(0),
        NodeId(8),
        MessageClass::REQUEST,
        1,
    );
    sim.run(50);
    assert_eq!(sim.stats().ejected, 1);
    assert_eq!(sim.core().packets_in_network(), 0);
    // 1 -> 8 is 3 hops on the mesh.
    assert_eq!(sim.stats().hops, 3);
}

#[test]
#[should_panic(expected = "occupied")]
fn double_placement_rejected() {
    let topo = Topology::mesh(3, 3);
    let mut sim = quiet_sim(&topo, single_vc_config());
    let link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    let r = VcRef { link, vn: 0, vc: 0 };
    sim.core_mut()
        .place_packet(r, NodeId(0), NodeId(8), MessageClass::REQUEST, 1);
    sim.core_mut()
        .place_packet(r, NodeId(0), NodeId(7), MessageClass::REQUEST, 1);
}

/// A mechanism that freezes forever after cycle `from`.
struct FreezeAfter(u64);
impl Mechanism for FreezeAfter {
    fn name(&self) -> &str {
        "freeze-after"
    }
    fn control(&mut self, core: &mut crate::SimCore) -> ControlAction {
        if core.cycle() >= self.0 {
            ControlAction::Freeze
        } else {
            ControlAction::Normal
        }
    }
}

#[test]
fn freeze_stops_all_movement() {
    let topo = Topology::mesh(3, 3);
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        FullyAdaptive::new(&topo),
        Box::new(FreezeAfter(20)),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.3, 1, 5)),
    );
    sim.run(20);
    let moved_before = sim.stats().hops;
    assert!(moved_before > 0, "sanity: traffic moved before the freeze");
    let in_net = sim.core().packets_in_network();
    sim.run(100);
    assert_eq!(sim.stats().hops, moved_before, "no hops while frozen");
    assert_eq!(sim.core().packets_in_network(), in_net);
}

/// A mechanism that emits one forced move at a scripted cycle.
struct ForceOnce {
    at: u64,
    mv: ForcedMove,
    done: bool,
}
impl Mechanism for ForceOnce {
    fn name(&self) -> &str {
        "force-once"
    }
    fn control(&mut self, core: &mut crate::SimCore) -> ControlAction {
        if !self.done && core.cycle() == self.at {
            self.done = true;
            ControlAction::Forced(vec![self.mv], ForcedKind::Drain)
        } else {
            ControlAction::Freeze // isolate the forced move
        }
    }
}

#[test]
fn forced_move_relocates_packet() {
    let topo = Topology::mesh(3, 3);
    let from_link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    let to_link = topo.link_between(NodeId(1), NodeId(2)).unwrap();
    let mv = ForcedMove {
        from: VcRef { link: from_link, vn: 0, vc: 0 },
        to: VcRef { link: to_link, vn: 0, vc: 0 },
    };
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        FullyAdaptive::new(&topo),
        Box::new(ForceOnce { at: 3, mv, done: false }),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
    let pid = sim.core_mut().place_packet(
        VcRef { link: from_link, vn: 0, vc: 0 },
        NodeId(0),
        NodeId(6),
        MessageClass::REQUEST,
        1,
    );
    sim.run(10);
    let p = sim.core().packet(pid);
    assert_eq!(
        p.loc,
        crate::Location::Vc { link: to_link, vn: 0, vc: 0 }
    );
    assert_eq!(p.forced_hops, 1);
    assert_eq!(p.hops, 1);
    // Moving 1 -> 2 while heading for 6 is a misroute.
    assert_eq!(p.misroutes, 1);
    assert_eq!(sim.stats().drains, 1);
}

#[test]
fn forced_move_ejects_at_destination() {
    let topo = Topology::mesh(3, 3);
    let from_link = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    let to_link = topo.link_between(NodeId(1), NodeId(2)).unwrap();
    let mv = ForcedMove {
        from: VcRef { link: from_link, vn: 0, vc: 0 },
        to: VcRef { link: to_link, vn: 0, vc: 0 },
    };
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        FullyAdaptive::new(&topo),
        Box::new(ForceOnce { at: 3, mv, done: false }),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
    // Destination is router 2 = head of the forced hop: must eject.
    sim.core_mut().place_packet(
        VcRef { link: from_link, vn: 0, vc: 0 },
        NodeId(0),
        NodeId(2),
        MessageClass::REQUEST,
        1,
    );
    sim.run(10);
    assert_eq!(sim.stats().ejected, 1);
    assert_eq!(sim.core().packets_in_network(), 0);
}

#[test]
fn cyclic_forced_moves_swap_ring_occupants() {
    // Fill a 4-cycle of buffers and rotate them one hop — the drain/spin
    // permutation primitive.
    let topo = Topology::mesh(3, 3);
    let ring = [(0u16, 1u16), (1, 4), (4, 3), (3, 0)];
    let links: Vec<_> = ring
        .iter()
        .map(|&(a, b)| topo.link_between(NodeId(a), NodeId(b)).unwrap())
        .collect();
    let moves: Vec<ForcedMove> = (0..4)
        .map(|i| ForcedMove {
            from: VcRef { link: links[i], vn: 0, vc: 0 },
            to: VcRef { link: links[(i + 1) % 4], vn: 0, vc: 0 },
        })
        .collect();
    struct ForceSet {
        at: u64,
        moves: Vec<ForcedMove>,
        done: bool,
    }
    impl Mechanism for ForceSet {
        fn name(&self) -> &str {
            "force-set"
        }
        fn control(&mut self, core: &mut crate::SimCore) -> ControlAction {
            if !self.done && core.cycle() == self.at {
                self.done = true;
                ControlAction::Forced(self.moves.clone(), ForcedKind::Spin)
            } else {
                ControlAction::Freeze
            }
        }
    }
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        FullyAdaptive::new(&topo),
        Box::new(ForceSet { at: 2, moves, done: false }),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.0, 1, 0)),
    );
    let mut pids = Vec::new();
    for &l in &links {
        // Destinations far away so nobody ejects during the rotation.
        pids.push(sim.core_mut().place_packet(
            VcRef { link: l, vn: 0, vc: 0 },
            NodeId(0),
            NodeId(8),
            MessageClass::REQUEST,
            1,
        ));
    }
    sim.run(5);
    assert_eq!(sim.stats().spins, 1);
    for (i, &pid) in pids.iter().enumerate() {
        let p = sim.core().packet(pid);
        assert_eq!(
            p.loc,
            crate::Location::Vc { link: links[(i + 1) % 4], vn: 0, vc: 0 },
            "packet {i} rotated one slot"
        );
    }
}

#[test]
fn trace_traffic_injects_on_schedule() {
    let topo = Topology::mesh(3, 3);
    let events = vec![
        InjectionEvent {
            cycle: 5,
            src: NodeId(0),
            dest: NodeId(8),
            class: MessageClass::REQUEST,
            len_flits: 1,
        },
        InjectionEvent {
            cycle: 10,
            src: NodeId(8),
            dest: NodeId(0),
            class: MessageClass::REQUEST,
            len_flits: 5,
        },
    ];
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            num_classes: 1,
            vns: 1,
            vcs_per_vn: 2,
            ..SimConfig::default()
        },
        FullyAdaptive::new(&topo),
        Box::new(NoMechanism),
        Box::new(TraceTraffic::new(events)),
    );
    sim.run(4);
    assert_eq!(sim.stats().generated, 0);
    sim.run(2);
    assert_eq!(sim.stats().generated, 1);
    let outcome = sim.run(200);
    assert_eq!(outcome, crate::RunOutcome::WorkloadFinished);
    assert_eq!(sim.stats().ejected, 2);
}

#[test]
fn serialization_throttles_long_packets() {
    // With 5-flit packets, a single link sustains at most 1/5 packets per
    // cycle; check accepted throughput respects serialization.
    let topo = Topology::ring(3);
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            num_classes: 1,
            vns: 1,
            vcs_per_vn: 2,
            watchdog_threshold: 0,
            ..SimConfig::default()
        },
        FullyAdaptive::new(&topo),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::Neighbor, 1.0, 5, 3)),
    );
    sim.warmup_and_measure(500, 2_000);
    let thpt = sim.stats().throughput(sim.core().cycle(), 3);
    assert!(thpt > 0.05, "some traffic flows: {thpt}");
    assert!(thpt <= 0.21, "serialization caps neighbor traffic: {thpt}");
}

#[test]
fn ejection_queue_capacity_backpressures() {
    // An endpoint that never consumes: the ejection queue fills to its
    // capacity and the network backs up, but nothing is lost.
    struct NoConsume;
    impl crate::traffic::Endpoints for NoConsume {
        fn name(&self) -> &str {
            "no-consume"
        }
        fn pre_cycle(&mut self, _core: &mut crate::SimCore) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }
    let topo = Topology::mesh(3, 3);
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig {
            num_classes: 1,
            vns: 1,
            vcs_per_vn: 2,
            ej_queue_capacity: 2,
            watchdog_threshold: 0,
            ..SimConfig::default()
        },
        FullyAdaptive::new(&topo),
        Box::new(NoMechanism),
        Box::new(NoConsume),
    );
    // Script packets toward one node.
    for i in 0..6u16 {
        let src = NodeId(i);
        sim.core_mut()
            .try_enqueue_packet(src, NodeId(8), MessageClass::REQUEST, 1, 0);
    }
    sim.run(200);
    assert_eq!(
        sim.core().ejection_len(NodeId(8), MessageClass::REQUEST),
        2,
        "queue fills to capacity and holds"
    );
    assert_eq!(sim.stats().ejected, 2);
    let live = sim.core().live_packets();
    assert_eq!(live, 6, "undelivered packets remain live in the network");
}

/// Mixed packet lengths, two vacates of one link inside one tail: a head
/// parked behind both VCs of `1 -> 2` sees the 5-flit tenant leave first
/// (its slot accepts packets five cycles later) and the 1-flit tenant a
/// cycle after (two cycles later). The first fire consumes the head's
/// one-shot subscription; it must wake the head to re-route and
/// re-subscribe, not hand it the first slot's deadline — or the second,
/// earlier slot is slept through.
#[test]
fn second_vacate_inside_a_long_tail_still_wakes_the_parked_head() {
    let topo = Topology::mesh(4, 1);
    let config = SimConfig {
        vns: 1,
        vcs_per_vn: 2,
        num_classes: 1,
        watchdog_threshold: 0,
        ..SimConfig::default()
    };
    let mut sim = quiet_sim(&topo, config);
    // Off cycle 0, where a delivered wake and "never parked" coincide.
    sim.run(10);
    let upstream = topo.link_between(NodeId(0), NodeId(1)).unwrap();
    let contested = topo.link_between(NodeId(1), NodeId(2)).unwrap();
    let slot = |link, vc| VcRef { link, vn: 0, vc };
    let mut place = |at: VcRef, src, dest, len_flits| {
        let (src, dest) = (NodeId(src), NodeId(dest));
        sim.core_mut()
            .place_packet(at, src, dest, MessageClass::REQUEST, len_flits)
    };
    // Both tenants eject at node 2, one per cycle; the tie goes to VC 0.
    place(slot(contested, 0), 1, 2, 5);
    place(slot(contested, 1), 1, 2, 1);
    let head = place(slot(upstream, 0), 0, 3, 1);
    sim.step();
    let parks = sim.core().wake_counters().parks;
    assert_eq!(parks, 1, "the head parks behind two full VCs");
    while sim.stats().ejected < 3 {
        sim.step();
        sim.core()
            .validate_wake_parking()
            .unwrap_or_else(|e| panic!("cycle {}: {e}", sim.core().cycle()));
        // VC 1 accepts packets from cycle 12 (ejected at 11, one flit);
        // the dense scan moves the head in that cycle.
        if sim.core().cycle() == 13 {
            assert_eq!(sim.core().vc(slot(contested, 1)).occ, Some(head));
        }
    }
    let wakes = sim.core().wake_counters().wakes;
    assert_eq!(wakes, 2, "each vacate wakes the head");
}

/// Steps once, then holds the wake scheduler to its soundness oracle.
fn step_checked(sim: &mut Sim) {
    sim.step();
    sim.core()
        .validate_wake_parking()
        .unwrap_or_else(|e| panic!("cycle {}: {e}", sim.core().cycle()));
}

/// Injection draws so far (one per routed, unparked queue head).
fn injection_draws(sim: &Sim) -> u64 {
    sim.core().rng_draw_counts()[crate::DrawSite::Injection.index()]
}

/// A source-queue head whose only out-buffer is held parks on that
/// buffer, draws nothing while it sleeps, and wakes on the buffer's
/// vacate: `1 -> 2` holds a packet queued behind a 5-flit tenant of
/// `2 -> 3`, which ejects at once and leaves its buffer cooling for five
/// cycles.
#[test]
fn injection_head_parks_on_its_occupied_out_buffer_and_wakes_on_its_vacate() {
    let topo = Topology::mesh(4, 1);
    let mut sim = quiet_sim(&topo, single_vc_config());
    sim.run(10);
    let slot = |a, b| VcRef {
        link: topo.link_between(NodeId(a), NodeId(b)).unwrap(),
        vn: 0,
        vc: 0,
    };
    let core = sim.core_mut();
    core.place_packet(slot(2, 3), NodeId(2), NodeId(3), MessageClass::REQUEST, 5);
    core.place_packet(slot(1, 2), NodeId(1), NodeId(3), MessageClass::REQUEST, 1);
    let queued = core
        .try_enqueue_packet(NodeId(1), NodeId(2), MessageClass::REQUEST, 1, 0)
        .unwrap();
    step_checked(&mut sim);
    let w = sim.core().wake_counters();
    assert_eq!(
        w.injection_parks, 1,
        "the queue head parks on the held buffer: {w:?}"
    );
    let draws = injection_draws(&sim);
    // The `1 -> 2` tenant leaves at cycle 15 (its next buffer accepts
    // packets from 10 + 5); that vacate wakes the queue head, which
    // injects at 16, when the buffer accepts again.
    while sim.core().cycle() < 16 {
        step_checked(&mut sim);
    }
    let w = sim.core().wake_counters();
    assert_eq!(
        injection_draws(&sim),
        draws,
        "a parked queue head draws nothing"
    );
    assert!(
        w.injection_skips >= 4,
        "the head slept through 11..=15: {w:?}"
    );
    assert_eq!(sim.stats().injected, 2, "not injected before the vacate");
    step_checked(&mut sim);
    assert_eq!(
        sim.core().vc(slot(1, 2)).occ,
        Some(queued),
        "injected at 16"
    );
    assert_eq!(
        injection_draws(&sim),
        draws + 1,
        "one draw, on the woken visit"
    );
}

/// Subscriptions are keyed by the VC kind a head can use. Escape-sticky
/// with entry patience, a source-queue head may only claim non-escape VCs
/// (it holds no network resource to justify an escape VC). Both VCs of
/// its one out-link are held by packets that eject at node 2, the escape
/// tenant first: that vacate must leave the head asleep, the non-escape
/// one a cycle later must wake it.
#[test]
fn non_escape_head_sleeps_through_an_escape_vacate_and_wakes_on_a_non_escape_one() {
    let topo = Topology::mesh(4, 1);
    let config = SimConfig {
        vns: 1,
        vcs_per_vn: 2,
        num_classes: 1,
        escape_sticky: true,
        watchdog_threshold: 0,
        ..SimConfig::default()
    };
    let mut sim = quiet_sim(&topo, config);
    sim.run(10);
    let link = topo.link_between(NodeId(1), NodeId(2)).unwrap();
    let slot = |vc| VcRef { link, vn: 0, vc };
    let core = sim.core_mut();
    core.place_packet(slot(0), NodeId(1), NodeId(2), MessageClass::REQUEST, 1);
    core.place_packet(slot(1), NodeId(1), NodeId(2), MessageClass::REQUEST, 1);
    core.try_enqueue_packet(NodeId(1), NodeId(3), MessageClass::REQUEST, 1, 0)
        .unwrap();
    step_checked(&mut sim);
    assert_eq!(
        sim.core().vc(slot(0)).occ,
        None,
        "the escape tenant ejects first"
    );
    assert!(sim.core().vc(slot(1)).occ.is_some());
    let w = sim.core().wake_counters();
    assert_eq!(w.injection_parks, 1, "{w:?}");
    assert_eq!(
        w.wakes, 0,
        "an escape vacate does not wake a non-escape head"
    );
    step_checked(&mut sim);
    let w = sim.core().wake_counters();
    assert_eq!(
        w.injection_skips, 1,
        "still asleep after the escape vacate: {w:?}"
    );
    assert_eq!(
        sim.core().vc(slot(1)).occ,
        None,
        "the non-escape tenant ejects next"
    );
    assert_eq!(w.wakes, 1, "a non-escape vacate wakes it");
    step_checked(&mut sim);
    assert_eq!(
        sim.stats().injected,
        3,
        "injected into the freed non-escape VC"
    );
    assert!(sim.core().vc(slot(1)).occ.is_some());
}

/// A mechanism that runs one empty forced drain at cycle `at` (as a
/// DRAIN window does on an idle network) and is otherwise inert.
struct EmptyDrainAt(u64);
impl Mechanism for EmptyDrainAt {
    fn name(&self) -> &str {
        "empty-drain-at"
    }
    fn control(&mut self, core: &mut crate::SimCore) -> ControlAction {
        if core.cycle() == self.0 {
            ControlAction::Forced(Vec::new(), ForcedKind::Drain)
        } else {
            ControlAction::Normal
        }
    }
}

/// Two events outside the subscription graph release a parked queue: a
/// forced cycle's `wake_all` (the head re-routes on the next visit,
/// drawing again, and re-parks), and a head change (the next packet
/// starts fresh — its first park is no spurious wake of the old head's).
#[test]
fn head_change_and_forced_wake_all_release_a_parked_queue() {
    let topo = Topology::mesh(4, 1);
    let mut sim = Sim::new(
        topo.clone(),
        single_vc_config(),
        FullyAdaptive::with_deflection(&topo, None),
        Box::new(EmptyDrainAt(12)),
        Box::new(SyntheticTraffic::new(
            SyntheticPattern::UniformRandom,
            0.0,
            1,
            0,
        )),
    );
    sim.run(10);
    let slot = |a, b| VcRef {
        link: topo.link_between(NodeId(a), NodeId(b)).unwrap(),
        vn: 0,
        vc: 0,
    };
    let core = sim.core_mut();
    core.place_packet(slot(2, 3), NodeId(2), NodeId(3), MessageClass::REQUEST, 5);
    core.place_packet(slot(1, 2), NodeId(1), NodeId(3), MessageClass::REQUEST, 1);
    for _ in 0..2 {
        core.try_enqueue_packet(NodeId(1), NodeId(2), MessageClass::REQUEST, 1, 0)
            .unwrap();
    }
    // Cycle 10: the queue head parks behind `1 -> 2`; 11: asleep.
    step_checked(&mut sim);
    step_checked(&mut sim);
    assert_eq!(sim.core().wake_counters().injection_parks, 1);
    let draws = injection_draws(&sim);
    // Cycle 12: the empty drain wakes everything; 13: the queue head
    // re-routes (one draw), finds `1 -> 2` still held and re-parks.
    step_checked(&mut sim);
    assert_eq!(sim.core().wake_counters().wake_alls, 1);
    assert_eq!(
        injection_draws(&sim),
        draws,
        "no allocation on a forced cycle"
    );
    step_checked(&mut sim);
    assert_eq!(
        injection_draws(&sim),
        draws + 1,
        "wake_all released the queue head"
    );
    let w = sim.core().wake_counters();
    assert_eq!(w.injection_parks, 2, "{w:?}");
    // The first head injects at 16 and holds `1 -> 2` until it ejects at
    // 18; the second parks behind it at 17, fresh.
    let spurious = w.spurious_wakes;
    while sim.stats().ejected < 4 {
        step_checked(&mut sim);
    }
    let w = sim.core().wake_counters();
    assert_eq!(w.injection_parks, 3, "{w:?}");
    assert_eq!(
        w.spurious_wakes, spurious,
        "a new head's first park is not a spurious wake of the old head"
    );
}

// ---------------------------------------------------------------------
// Observability: event bus wiring and the flight recorder
// ---------------------------------------------------------------------

/// A saturated 1-VC ring with U-turn-free minimal routing deadlocks fast
/// (same scenario as the detector's own test); with tracing, a flight
/// recorder directory and a progress horizon in no-panic mode, the run
/// must stop with a violation and leave a replayable dump whose final
/// event is the invariant violation carrying the sim seed.
#[test]
fn flight_recorder_dumps_on_invariant_violation() {
    use crate::trace::{TraceConfig, TraceEvent};

    let dir = std::env::temp_dir().join(format!("drain-flightrec-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Topology::ring(4);
    let config = SimConfig {
        vns: 1,
        vcs_per_vn: 1,
        num_classes: 1,
        watchdog_threshold: 0,
        seed: 0xF11E,
        trace: TraceConfig::events_on().with_flight_recorder(&dir),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        topo.clone(),
        config,
        FullyAdaptive::new(&topo),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.9, 1, 3)),
    );
    sim.set_checks(
        crate::CheckConfig::full()
            .with_progress_horizon(2_000)
            .no_panic(),
    );
    let outcome = sim.run(20_000);
    assert_eq!(outcome, crate::RunOutcome::InvariantViolation);
    let v = sim.violation().expect("violation recorded");
    assert_eq!(v.seed, 0xF11E);
    let path = sim.flight_record().expect("flight record written").to_owned();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("\"flightrec\":\"v1\""));
    assert!(header.contains("\"seed\":61726"), "header: {header}");
    let last = text.lines().last().expect("non-empty dump");
    match TraceEvent::parse_jsonl(last) {
        Ok(TraceEvent::InvariantViolation { seed, kind, .. }) => {
            assert_eq!(seed, 0xF11E);
            assert_eq!(kind, v.kind);
        }
        other => panic!("final dump line should be the violation, got {other:?} from {last}"),
    }
    // Every event line in the dump must parse (snapshot/header lines are
    // the only non-event lines and carry their own discriminators).
    for line in text.lines().skip(1) {
        if line.starts_with("{\"snapshot\"") {
            continue;
        }
        TraceEvent::parse_jsonl(line).unwrap_or_else(|e| panic!("bad dump line {line}: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The watchdog trip emits a trace event and dumps exactly one flight
/// record per run.
#[test]
fn watchdog_trip_emits_event_and_dump() {
    use crate::trace::{TraceConfig, TraceEvent, TraceSink};

    let dir = std::env::temp_dir().join(format!("drain-watchdog-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let topo = Topology::ring(4);
    let config = SimConfig {
        watchdog_threshold: 500,
        trace: TraceConfig::events_on().with_flight_recorder(&dir),
        ..single_vc_config()
    };
    let mut sim = Sim::new(
        topo.clone(),
        config,
        FullyAdaptive::new(&topo),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.9, 1, 3)),
    );
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    sim.run(5_000);
    assert!(sim.stats().watchdog_deadlock, "saturated 1-VC ring wedges");
    let events = sim.core_mut().tracer_mut().take_memory().unwrap();
    let trips: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::WatchdogTrip { .. }))
        .collect();
    assert_eq!(trips.len(), 1, "watchdog trip recorded once");
    assert!(sim.flight_record().is_some());
    let dumps = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(dumps, 1, "one dump per run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dump is named by what it records: the same point dumped into two
/// fresh directories gets the same name (and the same bytes), and a
/// further dump of it into a directory that has one gets the next free
/// suffix instead of overwriting it.
#[test]
fn flight_record_names_repeat_across_runs_and_never_overwrite() {
    use crate::trace::{flight_record, TraceConfig};

    let root = std::env::temp_dir().join(format!("drain-frname-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run_into = |dir: std::path::PathBuf| {
        let topo = Topology::ring(4);
        let config = SimConfig {
            seed: 0xF11E,
            trace: TraceConfig::events_on().with_flight_recorder(dir),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo.clone(),
            config,
            FullyAdaptive::new(&topo),
            Box::new(NoMechanism),
            Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.3, 1, 3)),
        );
        sim.run(50);
        sim
    };
    let (a, b) = (run_into(root.join("a")), run_into(root.join("b")));
    let first = flight_record(a.core(), "test").unwrap();
    let twin = flight_record(b.core(), "test").unwrap();
    let name = |p: &std::path::Path| p.file_name().unwrap().to_str().unwrap().to_owned();
    assert_eq!(name(&first), "fr-test-seedf11e-c50-adaptive.jsonl");
    assert_eq!(name(&twin), name(&first));
    let body = std::fs::read_to_string(&first).unwrap();
    assert_eq!(std::fs::read_to_string(&twin).unwrap(), body);

    std::fs::write(&first, "kept").unwrap();
    let second = flight_record(a.core(), "test").unwrap();
    let third = flight_record(a.core(), "test").unwrap();
    assert_eq!(name(&second), "fr-test-seedf11e-c50-adaptive-1.jsonl");
    assert_eq!(name(&third), "fr-test-seedf11e-c50-adaptive-2.jsonl");
    assert_eq!(std::fs::read_to_string(&first).unwrap(), "kept");
    assert_eq!(std::fs::read_to_string(&second).unwrap(), body);
    assert_eq!(std::fs::read_dir(root.join("a")).unwrap().count(), 3);
    let _ = std::fs::remove_dir_all(&root);
}

/// Hot-path emission: a tiny traced run produces matched inject/eject
/// pairs plus VC-alloc and link-traverse events consistent with stats.
#[test]
fn traced_run_matches_stats() {
    use crate::trace::{TraceEvent, TraceSink};

    let topo = Topology::mesh(2, 2);
    let mut sim = quiet_sim(&topo, single_vc_config());
    sim.set_trace_sink(TraceSink::Memory(Vec::new()));
    for i in 0..3u16 {
        sim.core_mut()
            .try_enqueue_packet(NodeId(i), NodeId(3 - i % 2), MessageClass::REQUEST, 1, 0);
    }
    sim.run(100);
    let stats_ejected = sim.stats().ejected;
    let stats_hops = sim.stats().hops;
    assert!(stats_ejected > 0);
    let events = sim.core_mut().tracer_mut().take_memory().unwrap();
    let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    assert_eq!(count(|e| matches!(e, TraceEvent::Inject { .. })), sim.stats().injected);
    assert_eq!(count(|e| matches!(e, TraceEvent::Eject { .. })), stats_ejected);
    assert_eq!(count(|e| matches!(e, TraceEvent::LinkTraverse { .. })), stats_hops);
    assert_eq!(count(|e| matches!(e, TraceEvent::VcAlloc { .. })), stats_hops);
}

/// Telemetry sampling: cadence, occupancy accounting and sample bounding
/// on a live simulation.
#[test]
fn telemetry_samples_on_cadence() {
    use crate::trace::TraceConfig;

    let topo = Topology::mesh(4, 4);
    let config = SimConfig {
        trace: TraceConfig::default().with_telemetry(64),
        ..single_vc_config()
    };
    let mut sim = Sim::new(
        topo.clone(),
        config,
        FullyAdaptive::new(&topo),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.1, 1, 11)),
    );
    sim.run(640);
    let samples: Vec<_> = sim.core().telemetry().samples().cloned().collect();
    assert_eq!(samples.len(), 10, "one sample per 64-cycle window");
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.cycle, 64 * (i as u64 + 1) - 1, "samples on window boundaries");
        assert_eq!(s.routers.len(), 16);
        assert_eq!(s.link_flits.len(), topo.num_unidirectional_links());
    }
    let total_flits: u64 = samples.iter().map(|s| s.total_flits()).sum();
    assert!(total_flits > 0, "uniform traffic moves flits");
    assert!(total_flits <= sim.stats().flit_hops);
}

/// The all-pairs distance table is built once per simulation: the core
/// adopts the routing's allocation instead of computing a copy, and still
/// builds its own for routings that hold none.
#[test]
fn core_shares_the_routings_distance_map() {
    use crate::routing::{DorAll, EscapeVcRouting, Routing};

    let topo = Topology::mesh(4, 4);
    let routings: [Routing; 2] = [
        FullyAdaptive::new(&topo).into(),
        EscapeVcRouting::with_updown(&topo).into(),
    ];
    for routing in routings {
        let shared = routing
            .shared_distance_map()
            .expect("adaptive routings hold a distance table");
        let core = crate::SimCore::new(&topo, SimConfig::default(), routing);
        assert!(std::ptr::eq(core.distance_map(), &*shared));
    }
    let core = crate::SimCore::new(&topo, SimConfig::default(), DorAll::new(&topo));
    assert_eq!(core.distance_map().distance(NodeId(0), NodeId(15)), 6);
}
