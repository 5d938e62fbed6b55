//! Pure up*/down* routing on every VC (Fig 5 baseline).

use std::sync::Arc;

use drain_topology::{updown::UpDownRouting, IntoSharedTopology, Topology};

use super::{push_rotated, Candidate, RouteCtx, Routing, TargetVc, WakeProfile};

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
}

impl Routing for UpDownAll {
    fn name(&self) -> &str {
        "updown"
    }

    fn candidates(&self, ctx: &RouteCtx, out: &mut Vec<Candidate>) {
        let phase = self.ud.phase_after(ctx.arrived_via);
        let ports = self.ud.next_hop_ports(ctx.cur, ctx.dest, phase);
        let target = if ctx.in_escape {
            TargetVc::EscapeOnly
        } else {
            TargetVc::Any
        };
        push_rotated(self.topo.out_links(ctx.cur), ports, ctx.sample, target, out);
    }

    fn wake_profile(&self) -> WakeProfile {
        // Hops depend only on (cur, dest, phase(arrived_via)); `sample`
        // only rotates.
        WakeProfile::Stable
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
        let r = UpDownAll::new(&topo);
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
            .find(|&l| {
                matches!(
                    r.tables().direction(l),
                    drain_topology::updown::LinkDirection::Down
                )
            })
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
                    r.tables().direction(c.link),
                    drain_topology::updown::LinkDirection::Down
                ));
            }
        }
        let _ = NodeId(0);
    }
}
