//! Fully adaptive random minimal routing.
//!
//! Each cycle a head packet may claim any output link on a minimal path to
//! its destination, with a rotating tie-break — the paper's "fully adaptive
//! random" routing used by both DRAIN and SPIN. It is **not** deadlock-free
//! on its own: cyclic buffer dependencies can and do form (that is Fig 3's
//! point); DRAIN/SPIN make it safe.

use std::sync::Arc;

use drain_topology::{distance::DistanceMap, IntoSharedTopology, Topology};

use super::{push_rotated, Candidate, RouteCtx, Routing, TargetVc, WakeProfile};

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
/// let r = FullyAdaptive::new(&topo);
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
}

impl Routing for FullyAdaptive {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>) {
        let out_links = self.topo.out_links(ctx.cur);
        let productive = self.dmap.productive_ports(ctx.cur, ctx.dest);
        let target = if ctx.in_escape {
            TargetVc::EscapeOnly
        } else {
            TargetVc::Any
        };
        push_rotated(out_links, productive, ctx.sample, target, out);
        // Under sustained pressure, offer the remaining (non-minimal)
        // output links as last-resort deflections — the "random" part of
        // the paper's fully adaptive random routing. All turns including
        // U-turns are architecturally permitted (§III-A).
        let deflect = self.deflect_after;
        if deflect.is_some_and(|after| ctx.blocked_for >= after) {
            // Never deflect straight back where the packet came from —
            // that swaps packets endlessly instead of making progress.
            let back = ctx.arrived_via.map(|l| l.reverse());
            let back_port = out_links.iter().position(|&l| Some(l) == back);
            let back_bit = back_port.map_or(0, |j| 1u32 << j);
            let all_ports = ((1u64 << out_links.len()) - 1) as u32;
            let rest = all_ports & !productive & !back_bit;
            push_rotated(out_links, rest, ctx.sample ^ 0x5A, target, out);
        }
    }

    fn shared_distance_map(&self) -> Option<Arc<DistanceMap>> {
        Some(Arc::clone(&self.dmap))
    }

    fn wake_profile(&self) -> WakeProfile {
        // The minimal set is static; deflection widens it exactly once,
        // when `blocked_for` reaches the threshold. `sample` only rotates
        // (both `push_rotated` calls), never changes membership.
        self.deflect_after
            .map_or(WakeProfile::Stable, WakeProfile::WidensAt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let r = FullyAdaptive::new(&topo);
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
        let r = FullyAdaptive::new(&topo);
        let mut out = Vec::new();
        r.candidates(&ctx(0, 15, 3), &mut out);
        for c in &out {
            let next = topo.link(c.link).dst;
            assert!(
                r.distance_map().distance(next, NodeId(15))
                    < r.distance_map().distance(NodeId(0), NodeId(15))
            );
        }
    }

    #[test]
    fn sample_rotates_preference() {
        let topo = Topology::mesh(4, 4);
        let r = FullyAdaptive::new(&topo);
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
        let r = FullyAdaptive::new(&topo);
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
