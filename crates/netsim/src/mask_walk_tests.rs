//! Differential test of Phase A's mask walk ([`SimCore::route_or_park`])
//! against the per-slot reference over the expanded candidate list
//! ([`SimCore::choose_feasible`] plus a parking fold that reads `vc_occ`
//! rather than the `free_at` sentinel), on seeded random arenas: every
//! routing variant, 2 and 6 VCs per VN, 1 and 3 VNs, 1- and 5-flit
//! tails, escape patience 0, 1 and 8, and heads blocked past the
//! deflection threshold.

use drain_topology::faults::FaultInjector;
use drain_topology::{NodeId, Topology};

use super::{Head, PhaseAOutcome, SimCore, EMPTY};
use crate::config::SimConfig;
use crate::packet::MessageClass;
use crate::routing::{
    Candidate, DorAll, EscapeVcRouting, FullyAdaptive, Routing, TargetVc, UpDownAll,
};
use crate::wake::ParkNote;
use crate::VcRef;

/// splitmix64: the arenas' only randomness.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Cycle the arenas are frozen at (room below it for old deadlines).
const NOW: u64 = 100;

/// The reference outcome for `head`: `choose_feasible`'s move, or the
/// wake decision folded over the expanded candidate list, occupancy read
/// from `vc_occ`. Also returns the candidates a walk examines before it
/// stops (escape targets closed to the head are not examined).
fn reference(core: &SimCore, id: usize, head: &Head) -> (PhaseAOutcome, u64) {
    let mut cands: Vec<Candidate> = Vec::new();
    let feasible = core.choose_feasible(head, &mut cands);
    let open = |c: &&Candidate| head.allow_escape || c.target != TargetVc::EscapeOnly;
    let downgrade = |t: TargetVc| match (t, head.allow_escape) {
        (TargetVc::Any, false) => TargetVc::NonEscapeOnly,
        (t, _) => t,
    };
    if let Some((link, target)) = feasible {
        let at = cands
            .iter()
            .filter(open)
            .position(|c| c.link == link && downgrade(c.target) == target)
            .expect("the chosen move is a candidate");
        let route = PhaseAOutcome::Route(link, target, head.ctx.blocked_for);
        return (route, at as u64 + 1);
    }
    let now = core.cycle;
    let vcs = core.config.vcs_per_vn as u8;
    let out_links = core.topo.out_links(head.ctx.cur);
    let mut wake_at = head.changes_at;
    let mut subs = 0u64;
    let mut examined = 0;
    for cand in cands.iter().filter(open) {
        examined += 1;
        let (lo, hi) = match downgrade(cand.target) {
            TargetVc::EscapeOnly => (0, 1),
            TargetVc::NonEscapeOnly => (1, vcs),
            TargetVc::Any => (0, vcs),
        };
        let link_busy = core.link_busy[cand.link.index()];
        for vc in lo..hi {
            let s = core.vc_index(VcRef {
                link: cand.link,
                vn: head.vn,
                vc,
            });
            if core.vc_occ[s] != EMPTY {
                let j = out_links.iter().position(|&l| l == cand.link).unwrap();
                subs |= 1 << (2 * j + usize::from(vc != 0));
            } else {
                wake_at = wake_at.min(link_busy.max(core.vc_free_at[s]));
            }
        }
    }
    let outcome = if !core.wake.may_park() || wake_at <= now + 1 {
        PhaseAOutcome::Stall
    } else {
        PhaseAOutcome::Park(ParkNote {
            id: id as u32,
            here: head.ctx.cur.0,
            vn: head.vn,
            wake_at,
            subs,
        })
    };
    (outcome, examined)
}

/// A core for `routing` at cycle [`NOW`] whose arena, link clocks and
/// injection queues are drawn from `draws`: each slot occupied with
/// probability ~1/2 (its head blocked for 0–39 cycles), each empty slot
/// and each link freeing somewhere between 4 cycles ago and 5 ahead (a
/// 1- or 5-flit tail), one queued packet at every third queue.
fn random_core(topo: &Topology, config: SimConfig, routing: Routing, draws: &mut Draws) -> SimCore {
    let mut core = SimCore::new(topo, config, routing);
    core.cycle = NOW;
    let n = topo.num_nodes() as u64;
    let classes = core.config.num_classes;
    let refs: Vec<VcRef> = core.vc_refs().collect();
    for r in refs {
        let idx = core.vc_index(r);
        let here = topo.link(r.link).dst;
        if draws.below(2) == 0 {
            let mut dest = NodeId(draws.below(n) as u16);
            if dest == here {
                dest = NodeId(((u64::from(dest.0) + 1) % n) as u16);
            }
            // Class `vn` rides VN `vn` (`class % vns`).
            let class = MessageClass(r.vn);
            let len = [1, 5][draws.below(2) as usize];
            core.place_packet(r, here, dest, class, len);
            let since = NOW - draws.below(40);
            core.vc_entered_at[idx] = since;
            core.vc_ready_at[idx] = since;
        } else {
            core.vc_free_at[idx] = NOW - 4 + draws.below(10);
        }
    }
    for busy in core.link_busy.iter_mut() {
        *busy = NOW - 4 + draws.below(10);
    }
    for node in topo.nodes() {
        for class in 0..classes {
            if draws.below(3) == 0 {
                let dest = NodeId(((u64::from(node.0) + 1 + draws.below(n - 1)) % n) as u16);
                core.force_enqueue_packet(node, dest, MessageClass(class as u8), 1, 0);
            }
        }
    }
    core
}

/// Holds every head of `core` — VC slots, then queues — to the reference.
/// Returns how many heads routed and how many parked.
fn check_every_head(core: &SimCore, draws: &mut Draws) -> (u32, u32) {
    let (mut routed, mut parked) = (0, 0);
    let mut check = |id: usize, head: &Head| {
        let mut probes = 0;
        let walked = core.route_or_park(id, head, &mut probes);
        let (expected, examined) = reference(core, id, head);
        assert_eq!(walked, expected, "head {id}: {head:?}");
        assert_eq!(probes, examined, "ports probed by head {id}: {head:?}");
        match walked {
            PhaseAOutcome::Route(..) => routed += 1,
            PhaseAOutcome::Park(_) => parked += 1,
            PhaseAOutcome::Stall => {}
        }
    };
    let occupied: Vec<usize> = core.occupied_vc_indices().collect();
    for idx in occupied {
        check(idx, &core.vc_head(idx, draws.next()));
    }
    let first_queue = core.wake.first_queue();
    for (q, queue) in core.inj.iter().enumerate() {
        if let Some(&(_, dest)) = queue.front() {
            check(first_queue + q, &core.injection_head(q, dest, draws.next()));
        }
    }
    (routed, parked)
}

fn routings(topo: &Topology, full_mesh: bool) -> Vec<Routing> {
    let mut all: Vec<Routing> = vec![
        FullyAdaptive::new(topo).into(),
        EscapeVcRouting::with_updown(topo).into(),
        UpDownAll::new(topo).into(),
    ];
    if full_mesh {
        all.push(EscapeVcRouting::with_dor(topo).into());
        all.push(DorAll::new(topo).into());
    }
    all
}

#[test]
fn mask_walk_matches_the_reference_on_random_arenas() {
    let faulty = FaultInjector::new(5)
        .remove_links(&Topology::mesh(5, 5), 5)
        .unwrap();
    let mut draws = Draws(0x5EED);
    let (mut routed, mut parked) = (0, 0);
    for (topo, full_mesh) in [(Topology::mesh(4, 4), true), (faulty, false)] {
        for routing in routings(&topo, full_mesh) {
            for (vcs_per_vn, vns) in [(2, 1), (2, 3), (6, 1), (6, 3)] {
                for patience in [0, 1, 8] {
                    let config = SimConfig {
                        vns,
                        vcs_per_vn,
                        num_classes: vns,
                        escape_sticky: true,
                        escape_entry_patience: patience,
                        ..SimConfig::default()
                    };
                    let core = random_core(&topo, config, routing.clone(), &mut draws);
                    let (r, p) = check_every_head(&core, &mut draws);
                    routed += r;
                    parked += p;
                }
            }
        }
    }
    // The arenas exercise both answers.
    assert!(routed > 1_000, "only {routed} heads routed");
    assert!(parked > 100, "only {parked} heads parked");
}

#[test]
fn occupied_slots_read_the_free_at_sentinel() {
    let topo = Topology::mesh(3, 3);
    let mut draws = Draws(7);
    let core = random_core(
        &topo,
        SimConfig::default(),
        FullyAdaptive::new(&topo).into(),
        &mut draws,
    );
    core.validate_active_index().expect("a consistent arena");
    for idx in 0..core.vc_occ.len() {
        let occupied = core.vc_occ[idx] != EMPTY;
        assert_eq!(core.vc_free_at[idx] == u64::MAX, occupied, "slot {idx}");
        assert_eq!(core.vc_state_of_index(idx).occ.is_some(), occupied);
    }
}

#[test]
fn deep_sweep_catches_a_corrupted_free_at_word() {
    let topo = Topology::mesh(3, 3);
    let arena = || {
        let routing = FullyAdaptive::new(&topo).into();
        random_core(&topo, SimConfig::default(), routing, &mut Draws(11))
    };
    let clean = arena();
    clean.validate_active_index().expect("a consistent arena");
    let occupied = clean.occupied_vc_indices().next().unwrap();
    let empty = (0..clean.vc_occ.len())
        .find(|&i| clean.vc_occ[i] == EMPTY)
        .unwrap();
    // An occupied slot that reads claimable, and an empty one that reads
    // occupied: each is one corrupted word, and each is a violation.
    for (idx, word) in [(occupied, NOW), (empty, u64::MAX)] {
        let mut core = arena();
        core.vc_free_at[idx] = word;
        let err = match core.validate_active_index() {
            Err(e) => e,
            Ok(()) => panic!("corrupted free_at at slot {idx} went unnoticed"),
        };
        assert!(err.contains("free_at sentinel"), "{err}");
    }
}
