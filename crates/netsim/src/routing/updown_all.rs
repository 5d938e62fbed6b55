//! Pure up*/down* routing on every VC (Fig 5 baseline).

use std::sync::Arc;

use drain_topology::{updown::UpDownRouting, IntoSharedTopology, Topology};

use super::{PortSet, PortSets, RouteCtx, TargetVc};

/// Topology-agnostic up*/down* routing applied to all VCs: deadlock-free by
/// construction, at the cost of non-minimal paths and reduced path
/// diversity — the performance gap Fig 5 quantifies.
#[derive(Clone, Debug)]
pub struct UpDownAll {
    /// Names the ports of the table's masks.
    topo: Arc<Topology>,
    ud: UpDownRouting,
}

impl UpDownAll {
    /// Builds up*/down* tables for `topo`. Accepts an owned or borrowed
    /// topology, or an `Arc` to share one without cloning.
    pub fn new(topo: impl IntoSharedTopology) -> Self {
        let topo = topo.into_shared();
        UpDownAll {
            ud: UpDownRouting::new(&topo),
            topo,
        }
    }

    /// The underlying tables.
    pub fn tables(&self) -> &UpDownRouting {
        &self.ud
    }

    pub(super) fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The legal minimal ports in the phase the arrival link leaves.
    #[inline]
    pub(super) fn port_sets(&self, ctx: &RouteCtx) -> PortSets {
        let phase = self.ud.phase_after(ctx.arrived_via);
        let target = if ctx.in_escape {
            TargetVc::EscapeOnly
        } else {
            TargetVc::Any
        };
        let legal = PortSet {
            ports: self.ud.next_hop_ports(ctx.cur, ctx.dest, phase),
            sample: ctx.sample,
            target,
        };
        [legal, PortSet::EMPTY]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_topology::faults::FaultInjector;
    use drain_topology::NodeId;

    #[test]
    fn candidates_follow_phase() {
        let topo = FaultInjector::new(4)
            .remove_links(&Topology::mesh(6, 6), 6)
            .unwrap();
        let updown = UpDownAll::new(&topo);
        let ud = updown.tables().clone();
        let r = crate::routing::Routing::from(updown);
        let mut out = Vec::new();
        for cur in topo.nodes() {
            for dest in topo.nodes() {
                if cur == dest {
                    continue;
                }
                out.clear();
                r.candidates(
                    &RouteCtx {
                        cur,
                        dest,
                        arrived_via: None,
                        in_escape: false,
                        blocked_for: 0,
                        sample: 1,
                    },
                    &mut out,
                );
                assert!(!out.is_empty(), "injected packet must have a route");
            }
        }
        // Phase restriction: after arriving on a down link, only down links
        // may be candidates.
        let down = topo
            .link_ids()
            .find(|&l| matches!(ud.direction(l), drain_topology::updown::LinkDirection::Down))
            .unwrap();
        let at = topo.link(down).dst;
        for dest in topo.nodes() {
            if dest == at {
                continue;
            }
            out.clear();
            r.candidates(
                &RouteCtx {
                    cur: at,
                    dest,
                    arrived_via: Some(down),
                    in_escape: false,
                    blocked_for: 0,
                    sample: 0,
                },
                &mut out,
            );
            for c in &out {
                assert!(matches!(
                    ud.direction(c.link),
                    drain_topology::updown::LinkDirection::Down
                ));
            }
        }
        let _ = NodeId(0);
    }
}
