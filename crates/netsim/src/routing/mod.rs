//! Routing algorithms (paper Table II).
//!
//! The routing function is consulted once per cycle per head packet and
//! answers with at most two *port sets* in preference order: an out-port
//! mask of the packet's router (bit `j` = `out_links(cur)[j]`, the form
//! the `drain_topology` next-hop tables store), a rotation sample, and
//! which kind of downstream VC the ports may claim. The allocation engine
//! walks the set ports in rotated order and takes the first whose link and
//! a VC of that kind are free; [`Routing::candidates`] expands the same
//! answer into a list for the callers that want one (the deadlock
//! detector, SPIN's probes, the reference walk).
//!
//! | Variant | Paper usage |
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

use drain_topology::{distance::DistanceMap, LinkId, NodeId, Topology};

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

/// One set of next hops: the out-ports of the packet's router whose bit
/// is set in `ports`, offered in the order [`PortSet::rotated`] gives,
/// each with the same `target` kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortSet {
    /// Bit `j` stands for `out_links(cur)[j]`.
    pub ports: u32,
    /// Picks where the rotated order starts; never which ports are in it.
    pub sample: u64,
    /// Downstream VC kind the ports may claim.
    pub target: TargetVc,
}

impl PortSet {
    /// The set that offers nothing.
    pub const EMPTY: PortSet = PortSet {
        ports: 0,
        sample: 0,
        target: TargetVc::Any,
    };

    /// The set ports in preference order: ascending port order, starting
    /// at set bit number `sample % ports.count_ones()` and wrapping
    /// around, so the set offered never depends on `sample`.
    #[inline]
    pub fn rotated(self) -> RotatedPorts {
        let first = start_port(self.ports, self.sample);
        RotatedPorts {
            first,
            turned: self.ports.rotate_right(first),
        }
    }
}

/// A routing's answer: two port sets in preference order (the second is
/// [`PortSet::EMPTY`] when the routing has one).
pub type PortSets = [PortSet; 2];

/// The port indices of a [`PortSet`] in preference order.
#[derive(Clone, Copy, Debug)]
pub struct RotatedPorts {
    first: u32,
    /// The mask rotated so that bit 0 is port `first`.
    turned: u32,
}

impl Iterator for RotatedPorts {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.turned == 0 {
            return None;
        }
        let port = (self.first + self.turned.trailing_zeros()) % u32::BITS;
        self.turned &= self.turned - 1;
        Some(port)
    }
}

/// The port of set bit number `sample % ports.count_ones()` (32, which
/// no walk reads, for an empty mask).
#[inline]
fn start_port(ports: u32, sample: u64) -> u32 {
    // One or two ports are all a mesh's minimal sets ever hold, and the
    // whole of low-load traffic: no count, no division, no loop, and no
    // branch on how many of the two there are.
    let low = ports.trailing_zeros();
    let above_low = ports & ports.wrapping_sub(1);
    if above_low & above_low.wrapping_sub(1) == 0 {
        let odd = sample & 1 == 1;
        return if odd && above_low != 0 {
            above_low.trailing_zeros()
        } else {
            low
        };
    }
    let count = ports.count_ones();
    let start = (sample % u64::from(count)) as u32;
    // Drop the lowest set bit `start` times. The loop runs `count` times
    // whatever `sample` is — a draw that steered a branch would be a
    // misprediction every other call.
    let mut from_start = ports;
    for dropped in 0..count - 1 {
        if dropped < start {
            from_start &= from_start - 1;
        }
    }
    from_start.trailing_zeros()
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
/// `sample` only *rotates* a [`PortSet`], so no routing's set membership
/// depends on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeProfile {
    /// The candidate set is independent of `blocked_for`: once computed
    /// it stays valid until the packet moves.
    Stable,
    /// The set is constant below the threshold and constant (possibly
    /// wider) at/above it: valid until `blocked_for` crosses the value.
    WidensAt(u64),
}

/// A routing algorithm: one of the four this crate implements.
///
/// Every variant is a deterministic function of the context (the `sample`
/// field carries all randomness) so simulations are reproducible. Build
/// one from a variant with `.into()`; [`crate::Sim::new`] and
/// [`crate::SimCore::new`] accept the variants directly.
#[derive(Clone, Debug)]
pub enum Routing {
    /// Fully adaptive random minimal routing.
    Adaptive(FullyAdaptive),
    /// Adaptive VCs over a restricted escape VC.
    EscapeVc(EscapeVcRouting),
    /// Up*/down* on every VC.
    UpDown(UpDownAll),
    /// Dimension order on every VC.
    Dor(DorAll),
}

impl Routing {
    /// Short human-readable name (e.g. `"adaptive"`).
    pub fn name(&self) -> &'static str {
        match self {
            Routing::Adaptive(_) => "adaptive",
            Routing::EscapeVc(r) => r.name(),
            Routing::UpDown(_) => "updown",
            Routing::Dor(_) => "dor",
        }
    }

    /// The next hops for `ctx`: two port sets in preference order. Empty
    /// sets mean the packet cannot move this cycle (it will be retried).
    #[inline]
    pub fn port_sets(&self, ctx: &RouteCtx) -> PortSets {
        match self {
            Routing::Adaptive(r) => r.port_sets(ctx),
            Routing::EscapeVc(r) => r.port_sets(ctx),
            Routing::UpDown(r) => r.port_sets(ctx),
            Routing::Dor(r) => r.port_sets(ctx),
        }
    }

    /// Appends [`Routing::port_sets`]' answer for `ctx` to `out` as
    /// candidate moves, in preference order.
    pub fn candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>) {
        let out_links = self.topology().out_links(ctx.cur);
        for set in self.port_sets(ctx) {
            push_rotated(out_links, set, out);
        }
    }

    /// How the candidate set depends on `blocked_for` (see
    /// [`WakeProfile`]).
    pub fn wake_profile(&self) -> WakeProfile {
        match self {
            // The minimal set is static; deflection widens it exactly
            // once, when `blocked_for` reaches the threshold.
            Routing::Adaptive(r) => r
                .deflect_after()
                .map_or(WakeProfile::Stable, WakeProfile::WidensAt),
            // The others read only cur / dest / arrived_via / in_escape,
            // frozen while the packet stays put.
            Routing::EscapeVc(_) | Routing::UpDown(_) | Routing::Dor(_) => WakeProfile::Stable,
        }
    }

    /// The all-pairs distance table of the topology this routing was built
    /// for, when it holds one. [`crate::SimCore::new`] adopts the handle
    /// for its misroute accounting instead of running the all-pairs BFS a
    /// second time; routings without a table return `None` and the core
    /// builds its own.
    pub fn shared_distance_map(&self) -> Option<Arc<DistanceMap>> {
        match self {
            Routing::Adaptive(r) => Some(r.shared_distance_map()),
            Routing::EscapeVc(r) => Some(r.shared_distance_map()),
            Routing::UpDown(_) | Routing::Dor(_) => None,
        }
    }

    /// The topology whose ports the masks name.
    fn topology(&self) -> &Topology {
        match self {
            Routing::Adaptive(r) => r.topology(),
            Routing::EscapeVc(r) => r.topology(),
            Routing::UpDown(r) => r.topology(),
            Routing::Dor(r) => r.topology(),
        }
    }
}

impl From<FullyAdaptive> for Routing {
    fn from(r: FullyAdaptive) -> Self {
        Routing::Adaptive(r)
    }
}

impl From<EscapeVcRouting> for Routing {
    fn from(r: EscapeVcRouting) -> Self {
        Routing::EscapeVc(r)
    }
}

impl From<UpDownAll> for Routing {
    fn from(r: UpDownAll) -> Self {
        Routing::UpDown(r)
    }
}

impl From<DorAll> for Routing {
    fn from(r: DorAll) -> Self {
        Routing::Dor(r)
    }
}

/// Per link: the port it leaves its tail router by (its index in
/// `out_links(src)`) — a next-hop link turned back into a mask bit.
fn out_ports(topo: &Topology) -> Vec<u8> {
    let mut out_port = vec![0u8; topo.num_unidirectional_links()];
    for node in topo.nodes() {
        for (port, &l) in topo.out_links(node).iter().enumerate() {
            out_port[l.index()] = port as u8;
        }
    }
    out_port
}

/// Appends the out-links of `set`'s ports (bit `j` stands for
/// `out_links[j]`) to `out` in [`PortSet::rotated`] order, as candidates
/// with `set.target`.
#[inline]
fn push_rotated(out_links: &[LinkId], set: PortSet, out: &mut Vec<Candidate>) {
    out.extend(set.rotated().map(|port| Candidate {
        link: out_links[port as usize],
        target: set.target,
    }));
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

    fn emitted(routing: &Routing, ctx: &RouteCtx) -> Vec<Candidate> {
        let mut out = Vec::new();
        routing.candidates(ctx, &mut out);
        out
    }

    #[test]
    fn candidates_are_the_filtered_out_links_rotated_by_sample() {
        for (topo, full_mesh) in topologies() {
            let dmap = DistanceMap::new(&topo);
            let ud = UpDownRouting::new(&topo);
            let adaptive = Routing::from(FullyAdaptive::new(&topo));
            let escape_updown = Routing::from(EscapeVcRouting::with_updown(&topo));
            let escape_dor = full_mesh.then(|| Routing::from(EscapeVcRouting::with_dor(&topo)));
            let dor_all = full_mesh.then(|| Routing::from(DorAll::new(&topo)));
            let updown_all = Routing::from(UpDownAll::new(&topo));
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

                if let (Some(escape_dor), Some(dor_all)) = (&escape_dor, &dor_all) {
                    let xy = dor_next_hop(&topo, ctx.cur, ctx.dest);
                    let is_xy = |l: LinkId| Some(l) == xy;
                    let hops = here(&is_xy, 0, TargetVc::EscapeOnly);
                    let got = emitted(escape_dor, ctx);
                    assert_eq!(got, escape_list(hops), "escape-vc(dor) {ctx:?}");
                    let expected = here(&is_xy, 0, target);
                    assert_eq!(emitted(dor_all, ctx), expected, "dor {ctx:?}");
                }
            });
        }
    }

    #[test]
    fn push_rotated_with_no_port_one_port_and_every_port() {
        let links: Vec<LinkId> = (100..132).map(LinkId).collect();
        let pushed = |ports: u32, sample: u64| {
            let mut out = Vec::new();
            let target = TargetVc::Any;
            push_rotated(
                &links,
                PortSet {
                    ports,
                    sample,
                    target,
                },
                &mut out,
            );
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
