//! up*/down* routing support.
//!
//! up*/down* [Schroeder et al.] is the classic topology-agnostic
//! deadlock-free routing used by the paper's escape-VC baseline on irregular
//! topologies (§II-C, Fig 5): routers are numbered via a BFS spanning tree;
//! every unidirectional link is *up* (toward the root) or *down* (away from
//! it); a legal path is zero or more up links followed by zero or more down
//! links, i.e. the down→up turn is forbidden, which breaks every cycle.
//!
//! [`UpDownRouting`] precomputes, for every (current node, destination,
//! phase), the set of next hops on a *minimal legal* path, as a mask of
//! output ports like [`crate::distance::DistanceMap`]'s (bit `j` stands for
//! `topo.out_links(cur)[j]`; with the `u16` legal distance, 12 bytes per
//! (cur, dest) pair over both phases). The phase — whether the packet has
//! already traversed a down link — is derivable at a router from the
//! direction of the input link, exactly as in hardware implementations.

use std::collections::VecDeque;

use crate::distance::{all_pairs_bfs, mark_closer};
use crate::{LinkId, NodeId, Topology};

/// Direction of a unidirectional link relative to the spanning-tree root.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkDirection {
    /// Toward the root (to a lower (level, id) label).
    Up,
    /// Away from the root.
    Down,
}

/// Routing phase of a packet under up*/down* rules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// No down link taken yet: both up and down links are legal.
    CanUp,
    /// A down link was taken: only down links are legal.
    DownOnly,
}

/// Precomputed up*/down* labeling and minimal legal-path routing tables.
///
/// # Examples
///
/// ```
/// use drain_topology::{Topology, NodeId, updown::{UpDownRouting, Phase}};
///
/// let t = Topology::mesh(4, 4);
/// let ud = UpDownRouting::new(&t);
/// let ports = ud.next_hop_ports(NodeId(0), NodeId(15), Phase::CanUp);
/// assert!(t.port_links(NodeId(0), ports).next().is_some());
/// // All routes terminate: distances are finite from the CanUp phase.
/// assert!(ud.legal_distance(NodeId(3), NodeId(12), Phase::CanUp) < u16::MAX);
/// ```
#[derive(Clone, Debug)]
pub struct UpDownRouting {
    root: NodeId,
    level: Vec<u16>,
    num_nodes: usize,
    /// Direction per unidirectional link.
    dir: Vec<LinkDirection>,
    /// `dist[(phase * n + u) * n + dest]`: minimal legal hop count,
    /// `u16::MAX` if unreachable in that phase.
    dist: Vec<u16>,
    /// `ports[(phase * n + u) * n + dest]`: bit `j` set iff
    /// `out_links(u)[j]` is legal in `phase` and starts a minimal legal
    /// path to `dest`.
    ports: Vec<u32>,
}

impl UpDownRouting {
    /// Builds the labeling and tables using the highest-degree node
    /// (lowest id tie-break) as root — the usual heuristic.
    pub fn new(topo: &Topology) -> Self {
        let root = topo
            .nodes()
            .max_by_key(|&n| (topo.degree(n), std::cmp::Reverse(n.0)))
            .expect("topology is non-empty");
        Self::with_root(topo, root)
    }

    /// Builds the labeling and tables from a chosen root.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is disconnected (up*/down* labels require a spanning
    /// tree reaching every node).
    pub fn with_root(topo: &Topology, root: NodeId) -> Self {
        let n = topo.num_nodes();
        // BFS levels from the root.
        let mut level = vec![u16::MAX; n];
        level[root.index()] = 0;
        let mut q = VecDeque::new();
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for &l in topo.out_links(u) {
                let v = topo.link(l).dst;
                if level[v.index()] == u16::MAX {
                    level[v.index()] = level[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        assert!(
            level.iter().all(|&l| l != u16::MAX),
            "up*/down* requires a connected topology"
        );
        // A link u -> v is Up iff v's (level, id) label is smaller.
        let label = |x: NodeId| (level[x.index()], x.0);
        let dir: Vec<LinkDirection> = topo
            .link_ids()
            .map(|l| {
                let e = topo.link(l);
                if label(e.dst) < label(e.src) {
                    LinkDirection::Up
                } else {
                    LinkDirection::Down
                }
            })
            .collect();

        // The phase-expanded graph: state `phase * n + u`, with the legal
        // transitions (u, CanUp) --up--> (v, CanUp)
        //             (u, CanUp) --down--> (v, DownOnly)
        //             (u, DownOnly) --down--> (v, DownOnly)
        // and both states of a destination at distance 0.
        let down_only = |u: usize| n + u;
        let dir_of = |l: LinkId| dir[l.index()];
        // Its predecessor array: state `phase * n + v` is entered from
        // `u` over an up link only in `CanUp`, and from both states of
        // `u` over a down link only in `DownOnly`.
        let mut start = Vec::with_capacity(2 * n + 1);
        let mut preds = Vec::with_capacity(3 * topo.num_unidirectional_links() / 2);
        start.push(0);
        for arrives_down_only in [false, true] {
            for v in topo.nodes() {
                for &l in topo.in_links(v) {
                    let u = u32::from(topo.link(l).src.0);
                    match (dir_of(l), arrives_down_only) {
                        (LinkDirection::Up, false) => preds.push(u),
                        (LinkDirection::Down, true) => preds.extend([u, n as u32 + u]),
                        _ => {}
                    }
                }
                start.push(preds.len() as u32);
            }
        }
        let dist = all_pairs_bfs(n, &start, &preds);
        let mut ports = vec![0u32; 2 * n * n];
        let row = |state: usize| state * n..(state + 1) * n;
        for u in topo.nodes() {
            for (port, &l) in topo.out_links(u).iter().enumerate() {
                let v = topo.link(l).dst.index();
                // (state here, state after the hop) pairs this link serves;
                // the down->up turn is forbidden.
                let hops: &[(usize, usize)] = match dir_of(l) {
                    LinkDirection::Up => &[(u.index(), v)],
                    LinkDirection::Down => &[
                        (u.index(), down_only(v)),
                        (down_only(u.index()), down_only(v)),
                    ],
                };
                for &(here, there) in hops {
                    mark_closer(
                        &mut ports[row(here)],
                        &dist[row(here)],
                        &dist[row(there)],
                        port,
                    );
                }
            }
        }
        UpDownRouting {
            root,
            level,
            num_nodes: n,
            dir,
            dist,
            ports,
        }
    }

    /// The spanning-tree root used for the labeling.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// BFS level of node `n` (root is 0).
    pub fn level(&self, n: NodeId) -> u16 {
        self.level[n.index()]
    }

    /// Direction of unidirectional link `l`.
    pub fn direction(&self, l: LinkId) -> LinkDirection {
        self.dir[l.index()]
    }

    /// Whether the turn `from -> to` is legal under up*/down* rules
    /// (down→up is the forbidden turn).
    pub fn is_legal_turn(&self, from: LinkId, to: LinkId) -> bool {
        !(self.dir[from.index()] == LinkDirection::Down
            && self.dir[to.index()] == LinkDirection::Up)
    }

    /// Phase implied by the link a packet arrived on (`None` = injected
    /// here, so no down link taken yet).
    pub fn phase_after(&self, arrived_via: Option<LinkId>) -> Phase {
        match arrived_via {
            Some(l) if self.dir[l.index()] == LinkDirection::Down => Phase::DownOnly,
            _ => Phase::CanUp,
        }
    }

    /// Minimal legal hop count from `cur` (in `phase`) to `dest`
    /// (`u16::MAX` if unreachable in that phase).
    pub fn legal_distance(&self, cur: NodeId, dest: NodeId, phase: Phase) -> u16 {
        self.dist[self.entry(cur, dest, phase)]
    }

    /// Out-ports of `cur` on a minimal legal path to `dest` given the
    /// packet's `phase`: bit `j` stands for `topo.out_links(cur)[j]`
    /// ([`Topology::port_links`] lists the links).
    #[inline]
    pub fn next_hop_ports(&self, cur: NodeId, dest: NodeId, phase: Phase) -> u32 {
        self.ports[self.entry(cur, dest, phase)]
    }

    #[inline]
    fn entry(&self, cur: NodeId, dest: NodeId, phase: Phase) -> usize {
        (phase as usize * self.num_nodes + cur.index()) * self.num_nodes + dest.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;

    fn check_all_pairs_route(topo: &Topology, ud: &UpDownRouting) {
        // Follow the first next hop from every (src, dest): must terminate.
        for src in topo.nodes() {
            for dest in topo.nodes() {
                if src == dest {
                    continue;
                }
                let mut cur = src;
                let mut phase = Phase::CanUp;
                let mut hops = 0;
                while cur != dest {
                    let ports = ud.next_hop_ports(cur, dest, phase);
                    let l = topo.port_links(cur, ports).next().unwrap_or_else(|| {
                        panic!("no legal next hop from {cur:?} to {dest:?} in {phase:?}")
                    });
                    phase = match (phase, ud.direction(l)) {
                        (Phase::CanUp, LinkDirection::Up) => Phase::CanUp,
                        _ => Phase::DownOnly,
                    };
                    cur = topo.link(l).dst;
                    hops += 1;
                    assert!(hops <= topo.num_nodes() as u32 * 2, "routing loop");
                }
            }
        }
    }

    #[test]
    fn routes_complete_on_mesh() {
        let t = Topology::mesh(4, 4);
        let ud = UpDownRouting::new(&t);
        check_all_pairs_route(&t, &ud);
    }

    #[test]
    fn routes_complete_on_faulty_mesh() {
        for seed in 0..5 {
            let t = FaultInjector::new(seed)
                .remove_links(&Topology::mesh(8, 8), 12)
                .unwrap();
            let ud = UpDownRouting::new(&t);
            check_all_pairs_route(&t, &ud);
        }
    }

    #[test]
    fn up_down_direction_antisymmetric() {
        let t = Topology::mesh(5, 5);
        let ud = UpDownRouting::new(&t);
        for l in t.link_ids() {
            assert_ne!(
                ud.direction(l),
                ud.direction(l.reverse()),
                "a link and its reverse must have opposite directions"
            );
        }
    }

    #[test]
    fn root_has_highest_degree() {
        let t = Topology::mesh(5, 5);
        let ud = UpDownRouting::new(&t);
        assert_eq!(t.degree(ud.root()), t.max_degree());
        assert_eq!(ud.level(ud.root()), 0);
    }

    #[test]
    fn non_minimal_paths_exist_under_updown() {
        // up*/down* often forces non-minimal routes; verify at least one
        // pair on a faulty mesh pays extra hops vs. the unrestricted
        // shortest path (this is the Fig 5 latency-gap mechanism).
        let t = FaultInjector::new(1)
            .remove_links(&Topology::mesh(8, 8), 8)
            .unwrap();
        let ud = UpDownRouting::new(&t);
        let d = crate::distance::DistanceMap::new(&t);
        let mut stretched = 0;
        for a in t.nodes() {
            for b in t.nodes() {
                if a == b {
                    continue;
                }
                let legal = ud.legal_distance(a, b, Phase::CanUp);
                let min = d.distance(a, b);
                assert!(legal >= min);
                assert_ne!(legal, u16::MAX);
                if legal > min {
                    stretched += 1;
                }
            }
        }
        assert!(stretched > 0, "expected some non-minimal up*/down* routes");
    }
}
