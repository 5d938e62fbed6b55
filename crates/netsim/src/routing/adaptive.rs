//! Fully adaptive random minimal routing.
//!
//! Each cycle a head packet may claim any output link on a minimal path to
//! its destination, with a rotating tie-break — the paper's "fully adaptive
//! random" routing used by both DRAIN and SPIN. It is **not** deadlock-free
//! on its own: cyclic buffer dependencies can and do form (that is Fig 3's
//! point); DRAIN/SPIN make it safe.

use std::sync::Arc;

use drain_topology::{distance::DistanceMap, IntoSharedTopology, Topology};

use super::{out_ports, PortSet, PortSets, RouteCtx, TargetVc};

/// Fully adaptive random minimal routing over a [`DistanceMap`], whose
/// port masks it reads against the topology's `out_links`.
///
/// # Examples
///
/// ```
/// use drain_topology::{Topology, NodeId};
/// use drain_netsim::routing::{FullyAdaptive, Routing, RouteCtx};
///
/// let topo = Topology::mesh(4, 4);
/// let r = Routing::from(FullyAdaptive::new(&topo));
/// let mut out = Vec::new();
/// r.candidates(&RouteCtx {
///     cur: NodeId(0), dest: NodeId(15), arrived_via: None,
///     in_escape: false, blocked_for: 0, sample: 0,
/// }, &mut out);
/// assert_eq!(out.len(), 2); // both mesh directions are productive
/// ```
#[derive(Clone, Debug)]
pub struct FullyAdaptive {
    dmap: Arc<DistanceMap>,
    topo: Arc<Topology>,
    deflect_after: Option<u64>,
    /// Per link: the port it leaves its tail router by (the U-turn a
    /// deflection must not take is `out_port[arrived_via.reverse()]`).
    out_port: Vec<u8>,
}

/// Default blocked-cycles threshold before non-minimal candidates are
/// offered.
pub const DEFAULT_DEFLECT_AFTER: u64 = 16;

impl FullyAdaptive {
    /// Builds the routing for `topo` (computes all-pairs distances), with
    /// the default deflection pressure threshold. Accepts an owned or
    /// borrowed topology, or an `Arc` to share one without cloning.
    pub fn new(topo: impl IntoSharedTopology) -> Self {
        Self::with_deflection(topo, Some(DEFAULT_DEFLECT_AFTER))
    }

    /// Builds the routing with an explicit deflection threshold (`None`
    /// = strictly minimal, never deflect).
    pub fn with_deflection(topo: impl IntoSharedTopology, deflect_after: Option<u64>) -> Self {
        let topo = topo.into_shared();
        FullyAdaptive {
            dmap: Arc::new(DistanceMap::new(&topo)),
            out_port: out_ports(&topo),
            topo,
            deflect_after,
        }
    }

    /// The underlying distance map.
    pub fn distance_map(&self) -> &DistanceMap {
        &self.dmap
    }

    /// The deflection threshold in blocked cycles.
    pub fn deflect_after(&self) -> Option<u64> {
        self.deflect_after
    }

    pub(super) fn topology(&self) -> &Topology {
        &self.topo
    }

    pub(super) fn shared_distance_map(&self) -> Arc<DistanceMap> {
        Arc::clone(&self.dmap)
    }

    /// The minimal ports, then — under sustained pressure — every other
    /// port except the U-turn.
    #[inline]
    pub(super) fn port_sets(&self, ctx: &RouteCtx) -> PortSets {
        let productive = self.dmap.productive_ports(ctx.cur, ctx.dest);
        let target = if ctx.in_escape {
            TargetVc::EscapeOnly
        } else {
            TargetVc::Any
        };
        let minimal = PortSet {
            ports: productive,
            sample: ctx.sample,
            target,
        };
        // Under sustained pressure, offer the remaining (non-minimal)
        // output links as last-resort deflections — the "random" part of
        // the paper's fully adaptive random routing. All turns including
        // U-turns are architecturally permitted (§III-A).
        if self
            .deflect_after
            .is_none_or(|after| ctx.blocked_for < after)
        {
            return [minimal, PortSet::EMPTY];
        }
        // Never deflect straight back where the packet came from — that
        // swaps packets endlessly instead of making progress.
        let back_bit = ctx
            .arrived_via
            .map_or(0, |l| 1u32 << self.out_port[l.reverse().index()]);
        let all_ports = ((1u64 << self.topo.degree(ctx.cur)) - 1) as u32;
        let deflect = PortSet {
            ports: all_ports & !productive & !back_bit,
            sample: ctx.sample ^ 0x5A,
            target,
        };
        [minimal, deflect]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Routing;
    use drain_topology::NodeId;

    fn ctx(cur: u16, dest: u16, sample: u64) -> RouteCtx {
        RouteCtx {
            cur: NodeId(cur),
            dest: NodeId(dest),
            arrived_via: None,
            in_escape: false,
            blocked_for: 0,
            sample,
        }
    }

    #[test]
    fn deflection_only_under_pressure() {
        let topo = Topology::mesh(4, 4);
        let r = Routing::from(FullyAdaptive::new(&topo));
        let mut calm = Vec::new();
        r.candidates(&ctx(5, 10, 0), &mut calm);
        let mut pressured = Vec::new();
        r.candidates(
            &RouteCtx {
                blocked_for: 1_000,
                ..ctx(5, 10, 0)
            },
            &mut pressured,
        );
        assert!(pressured.len() > calm.len(), "pressure widens choices");
        // Every output link of the router is offered under pressure.
        assert_eq!(pressured.len(), topo.degree(NodeId(5)));
    }

    #[test]
    fn candidates_are_productive() {
        let topo = Topology::mesh(4, 4);
        let adaptive = FullyAdaptive::new(&topo);
        let dmap = adaptive.distance_map().clone();
        let mut out = Vec::new();
        Routing::from(adaptive).candidates(&ctx(0, 15, 3), &mut out);
        for c in &out {
            let next = topo.link(c.link).dst;
            assert!(dmap.distance(next, NodeId(15)) < dmap.distance(NodeId(0), NodeId(15)));
        }
    }

    #[test]
    fn sample_rotates_preference() {
        let topo = Topology::mesh(4, 4);
        let r = Routing::from(FullyAdaptive::new(&topo));
        let mut a = Vec::new();
        let mut b = Vec::new();
        r.candidates(&ctx(0, 15, 0), &mut a);
        r.candidates(&ctx(0, 15, 1), &mut b);
        assert_eq!(a.len(), b.len());
        assert_ne!(a[0].link, b[0].link, "tie-break should rotate");
    }

    #[test]
    fn escape_restriction_narrows_targets() {
        let topo = Topology::mesh(4, 4);
        let r = Routing::from(FullyAdaptive::new(&topo));
        let mut out = Vec::new();
        r.candidates(
            &RouteCtx {
                in_escape: true,
                ..ctx(0, 15, 0)
            },
            &mut out,
        );
        assert!(out.iter().all(|c| c.target == TargetVc::EscapeOnly));
    }
}
