//! Routing algorithms (paper Table II).
//!
//! The routing function is consulted once per cycle per head packet and
//! returns *candidate moves* in preference order: an output link plus which
//! kind of downstream VC may be targeted. The allocation engine takes the
//! first candidate whose link and VC are free.
//!
//! The table-driven implementations read a `u32` out-port mask per
//! (cur, dest) from `drain_topology` (bit `j` = `out_links(cur)[j]`) and
//! list its ports through `push_rotated`, against the `Arc<Topology>`
//! the simulation shares.
//!
//! | Implementation | Paper usage |
//! |---|---|
//! | [`FullyAdaptive`] | DRAIN and SPIN ("fully adaptive random"), Fig 3's non-deadlock-free network |
//! | [`EscapeVcRouting`] | escape-VC baseline: adaptive VCs + restricted escape VC (DoR or up*/down*) |
//! | [`UpDownAll`] | pure up*/down* network (Fig 5) |
//! | [`DorAll`] | dimension-order reference on fault-free meshes |

mod adaptive;
mod dor;
mod escape;
mod updown_all;

pub use adaptive::{FullyAdaptive, DEFAULT_DEFLECT_AFTER};
pub use dor::{dor_next_hop, DorAll, DorTable};
pub use escape::{EscapeKind, EscapeVcRouting};
pub use updown_all::UpDownAll;

use std::sync::Arc;

use drain_topology::{distance::DistanceMap, LinkId, NodeId};

/// Which downstream VCs a candidate move may claim.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TargetVc {
    /// Prefer non-escape VCs, fall back to the escape VC.
    Any,
    /// Only the escape VC (index 0 of the packet's VN).
    EscapeOnly,
    /// Only non-escape VCs.
    NonEscapeOnly,
}

/// One candidate move.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// Output link to traverse.
    pub link: LinkId,
    /// Downstream VC kind that may be claimed.
    pub target: TargetVc,
}

/// Inputs to a routing decision.
#[derive(Clone, Copy, Debug)]
pub struct RouteCtx {
    /// Router the packet currently occupies.
    pub cur: NodeId,
    /// Packet destination.
    pub dest: NodeId,
    /// Link the packet arrived on (`None` right after injection).
    pub arrived_via: Option<LinkId>,
    /// Whether the packet is restricted to escape VCs (it occupies an
    /// escape VC and the configuration is escape-sticky).
    pub in_escape: bool,
    /// How long the packet has been waiting in its current buffer —
    /// adaptive routings may widen their candidate set under pressure.
    pub blocked_for: u64,
    /// Deterministic tie-break sample (rotates adaptive choices).
    pub sample: u64,
}

/// How a routing's candidate *set* evolves while a head packet stays put,
/// as a function of `RouteCtx::blocked_for` (all other context fields are
/// frozen while the packet occupies the same VC). The wake-driven Phase A
/// scheduler (see `state.rs`) may park a blocked head and skip re-routing
/// it only if the set cannot silently change under it.
///
/// `sample` must only *reorder* candidates (the standard `push_rotated`
/// idiom: the set ports of a next-hop mask, `sample` choosing only where
/// the list starts); a routing whose set membership depends on `sample`
/// must report [`WakeProfile::Unstable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeProfile {
    /// The candidate set is independent of `blocked_for`: once computed
    /// it stays valid until the packet moves.
    Stable,
    /// The set is constant below the threshold and constant (possibly
    /// wider) at/above it: valid until `blocked_for` crosses the value.
    WidensAt(u64),
    /// No guarantee — the scheduler must re-route such heads every cycle.
    Unstable,
}

/// A routing algorithm.
///
/// Implementations must be deterministic functions of the context (the
/// `sample` field carries all randomness) so simulations are reproducible.
pub trait Routing: Send {
    /// Short human-readable name (e.g. `"adaptive"`).
    fn name(&self) -> &str;

    /// Appends candidate moves for `ctx` to `out` in preference order.
    /// An empty result means the packet cannot move this cycle (it will be
    /// retried every cycle).
    fn candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>);

    /// How the candidate set depends on `blocked_for` (see
    /// [`WakeProfile`]). The default is the conservative answer: never
    /// park, re-route every cycle.
    fn wake_profile(&self) -> WakeProfile {
        WakeProfile::Unstable
    }

    /// The all-pairs distance table of the topology this routing was built
    /// for, when it holds one. [`crate::SimCore::new`] adopts the handle
    /// for its misroute accounting instead of running the all-pairs BFS a
    /// second time; routings without a table return `None` and the core
    /// builds its own.
    fn shared_distance_map(&self) -> Option<Arc<DistanceMap>> {
        None
    }
}

/// Appends the out-links whose port is set in `ports` (bit `j` stands for
/// `out_links[j]`, as in the `drain_topology` next-hop tables) to `out` as
/// candidates with `target` — the standard way implementations randomize
/// tie-breaks. `sample` only rotates: the links come in port order,
/// starting at set bit number `sample % ports.count_ones()` and wrapping
/// around, so the set offered never depends on it.
#[inline]
pub(crate) fn push_rotated(
    out_links: &[LinkId],
    ports: u32,
    sample: u64,
    target: TargetVc,
    out: &mut Vec<Candidate>,
) {
    let candidate = |port: u32| Candidate {
        link: out_links[port as usize],
        target,
    };
    // One or two ports are all a mesh's minimal sets ever hold, and the
    // whole of low-load traffic: no count, no division, no loop.
    if ports == 0 {
        return;
    }
    let low = ports.trailing_zeros();
    let above_low = ports & (ports - 1);
    if above_low == 0 {
        out.push(candidate(low));
        return;
    }
    if above_low & (above_low - 1) == 0 {
        let pair = [low, above_low.trailing_zeros()];
        let start = (sample % 2) as usize;
        out.push(candidate(pair[start]));
        out.push(candidate(pair[1 - start]));
        return;
    }
    let count = ports.count_ones();
    let start = (sample % u64::from(count)) as u32;
    // The port of set bit number `start`: drop the lowest set bit `start`
    // times. Both loops run `count` times whatever `sample` is — a draw
    // that steered a branch would be a misprediction every other call.
    let mut from_start = ports;
    for dropped in 0..count - 1 {
        if dropped < start {
            from_start &= from_start - 1;
        }
    }
    let first = from_start.trailing_zeros();
    let mut turned = ports.rotate_right(first);
    while turned != 0 {
        out.push(candidate((first + turned.trailing_zeros()) % u32::BITS));
        turned &= turned - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_topology::faults::FaultInjector;
    use drain_topology::updown::{LinkDirection, Phase, UpDownRouting};
    use drain_topology::Topology;

    /// The order every table-driven routing promises, spelled out: filter
    /// `out_links(cur)`, rotate left by `sample % len`.
    fn rotated(
        topo: &Topology,
        cur: NodeId,
        keep: impl Fn(LinkId) -> bool,
        sample: u64,
        target: TargetVc,
    ) -> Vec<Candidate> {
        let mut links = topo.out_links(cur).to_vec();
        links.retain(|&l| keep(l));
        let len = links.len() as u64;
        if len != 0 {
            links.rotate_left((sample % len) as usize);
        }
        let candidate = |link| Candidate { link, target };
        links.into_iter().map(candidate).collect()
    }

    /// Runs `check(ctx)` for every (cur, dest) — `cur == dest` included,
    /// the empty-mask case — every arrival link (and injection), both
    /// escape states, calm and past the deflection threshold, and every
    /// `sample` in `0..8`.
    fn for_every_ctx(topo: &Topology, mut check: impl FnMut(&RouteCtx)) {
        for cur in topo.nodes() {
            let arrivals = topo.in_links(cur).iter().map(|&l| Some(l));
            for arrived_via in arrivals.chain([None]) {
                for dest in topo.nodes() {
                    for (in_escape, blocked_for) in [(false, 0), (true, 15), (false, 16)] {
                        for sample in 0..8 {
                            check(&RouteCtx {
                                cur,
                                dest,
                                arrived_via,
                                in_escape,
                                blocked_for,
                                sample,
                            });
                        }
                    }
                }
            }
        }
    }

    /// The two fixtures, each with whether it is a full mesh (DoR escape
    /// is defined only there).
    fn topologies() -> [(Topology, bool); 2] {
        let faulty = FaultInjector::new(3).remove_links(&Topology::mesh(6, 6), 6);
        [(Topology::mesh(5, 5), true), (faulty.unwrap(), false)]
    }

    fn emitted(routing: &dyn Routing, ctx: &RouteCtx) -> Vec<Candidate> {
        let mut out = Vec::new();
        routing.candidates(ctx, &mut out);
        out
    }

    #[test]
    fn candidates_are_the_filtered_out_links_rotated_by_sample() {
        for (topo, full_mesh) in topologies() {
            let dmap = DistanceMap::new(&topo);
            let ud = UpDownRouting::new(&topo);
            let adaptive = FullyAdaptive::new(&topo);
            let escape_updown = EscapeVcRouting::with_updown(&topo);
            let escape_dor = full_mesh.then(|| EscapeVcRouting::with_dor(&topo));
            let updown_all = UpDownAll::new(&topo);
            for_every_ctx(&topo, |ctx| {
                let minimal = |l: LinkId| {
                    dmap.distance(topo.link(l).dst, ctx.dest) + 1
                        == dmap.distance(ctx.cur, ctx.dest)
                };
                let legal_in = |phase: Phase| {
                    let ud = &ud;
                    let topo = &topo;
                    move |l: LinkId| {
                        let after = match (phase, ud.direction(l)) {
                            (Phase::CanUp, LinkDirection::Up) => Phase::CanUp,
                            (_, LinkDirection::Down) => Phase::DownOnly,
                            (Phase::DownOnly, LinkDirection::Up) => return false,
                        };
                        // `u16::MAX` (no legal path in this phase) is one
                        // more than no distance.
                        u32::from(ud.legal_distance(topo.link(l).dst, ctx.dest, after)) + 1
                            == u32::from(ud.legal_distance(ctx.cur, ctx.dest, phase))
                    }
                };
                let arrival_phase = ud.phase_after(ctx.arrived_via);
                let here = |keep: &dyn Fn(LinkId) -> bool, sample, target| {
                    rotated(&topo, ctx.cur, keep, sample, target)
                };

                let target = if ctx.in_escape {
                    TargetVc::EscapeOnly
                } else {
                    TargetVc::Any
                };
                let mut expected = here(&minimal, ctx.sample, target);
                if ctx.blocked_for >= DEFAULT_DEFLECT_AFTER {
                    let back = ctx.arrived_via.map(|l| l.reverse());
                    let deflects = |l: LinkId| !minimal(l) && Some(l) != back;
                    expected.extend(here(&deflects, ctx.sample ^ 0x5A, target));
                }
                assert_eq!(emitted(&adaptive, ctx), expected, "adaptive {ctx:?}");

                let expected = here(&legal_in(arrival_phase), ctx.sample, target);
                assert_eq!(emitted(&updown_all, ctx), expected, "updown {ctx:?}");

                let escape_list = |escape_hops: Vec<Candidate>| {
                    if ctx.in_escape {
                        return escape_hops;
                    }
                    let mut list = here(&minimal, ctx.sample, TargetVc::NonEscapeOnly);
                    list.extend(escape_hops);
                    list
                };
                // In the escape VC the phase follows the arrival link; a
                // packet entering it starts in `CanUp`.
                let phase = if ctx.in_escape {
                    arrival_phase
                } else {
                    Phase::CanUp
                };
                let hops = here(&legal_in(phase), ctx.sample, TargetVc::EscapeOnly);
                let got = emitted(&escape_updown, ctx);
                assert_eq!(got, escape_list(hops), "escape-vc(updown) {ctx:?}");

                if let Some(escape_dor) = &escape_dor {
                    let xy = dor_next_hop(&topo, ctx.cur, ctx.dest);
                    let hops = here(&|l| Some(l) == xy, 0, TargetVc::EscapeOnly);
                    let got = emitted(escape_dor, ctx);
                    assert_eq!(got, escape_list(hops), "escape-vc(dor) {ctx:?}");
                }
            });
        }
    }

    #[test]
    fn push_rotated_with_no_port_one_port_and_every_port() {
        let links: Vec<LinkId> = (100..132).map(LinkId).collect();
        let pushed = |ports: u32, sample: u64| {
            let mut out = Vec::new();
            push_rotated(&links, ports, sample, TargetVc::Any, &mut out);
            out.iter()
                .map(|c: &Candidate| c.link.0)
                .collect::<Vec<u32>>()
        };
        for sample in [0, 1, 7, u64::MAX] {
            assert_eq!(pushed(0, sample), [0u32; 0], "an empty mask offers nothing");
            assert_eq!(pushed(1 << 5, sample), [105], "one port has one order");
            assert_eq!(pushed(1 << 31, sample), [131]);
        }
        assert_eq!(pushed(0b1011, 0), [100, 101, 103]);
        assert_eq!(pushed(0b1011, 1), [101, 103, 100]);
        assert_eq!(pushed(0b1011, 5), [103, 100, 101]);
        let all: Vec<u32> = (100..132).collect();
        let mut from_seven = all.clone();
        from_seven.rotate_left(7);
        assert_eq!(pushed(u32::MAX, 32), all);
        assert_eq!(pushed(u32::MAX, 39), from_seven);
    }
}
