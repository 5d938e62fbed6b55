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
//! phase), the set of next-hop links on a *minimal legal* path. The phase —
//! whether the packet has already traversed a down link — is derivable at a
//! router from the direction of the input link, exactly as in hardware
//! implementations.

use std::collections::VecDeque;

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
/// let hops = ud.next_hops(NodeId(0), NodeId(15), Phase::CanUp);
/// assert!(!hops.is_empty());
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
    /// `dist[phase][u * n + dest]`: minimal legal hop count, `u16::MAX` if
    /// unreachable in that phase.
    dist: [Vec<u16>; 2],
    /// Minimal legal next-hop links in CSR form, like `DistanceMap`'s
    /// productive links: the set for `p = u * n + dest` is
    /// `hop_links[phase][hop_off[phase][p] .. hop_off[phase][p + 1]]`.
    hop_off: [Vec<u32>; 2],
    hop_links: [Vec<LinkId>; 2],
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

        // Per-destination BFS over the phase-expanded graph, reversed.
        // Forward transitions: (u, CanUp) --up--> (v, CanUp)
        //                      (u, CanUp) --down--> (v, DownOnly)
        //                      (u, DownOnly) --down--> (v, DownOnly)
        let mut dist = [vec![u16::MAX; n * n], vec![u16::MAX; n * n]];
        const CAN_UP: usize = 0;
        const DOWN_ONLY: usize = 1;
        for dest in topo.nodes() {
            let di = dest.index();
            dist[CAN_UP][di * n + di] = 0;
            dist[DOWN_ONLY][di * n + di] = 0;
            // BFS on reversed edges from both destination states.
            let mut q: VecDeque<(NodeId, usize)> = VecDeque::new();
            q.push_back((dest, CAN_UP));
            q.push_back((dest, DOWN_ONLY));
            while let Some((v, phase)) = q.pop_front() {
                let dv = dist[phase][v.index() * n + di];
                for &l in topo.in_links(v) {
                    let u = topo.link(l).src;
                    // Which forward transitions produce (v, phase)?
                    let preds: &[usize] = match (dir[l.index()], phase) {
                        (LinkDirection::Up, CAN_UP) => &[CAN_UP],
                        (LinkDirection::Down, DOWN_ONLY) => &[CAN_UP, DOWN_ONLY],
                        _ => &[],
                    };
                    for &p in preds {
                        let slot = &mut dist[p][u.index() * n + di];
                        if *slot == u16::MAX {
                            *slot = dv + 1;
                            q.push_back((u, p));
                        }
                    }
                }
            }
        }
        // Next-hop sets from the distance tables: the (u, dest) row-major
        // visit order is the offset order, so each phase's links append
        // to one flat buffer.
        let mut hop_off = [vec![0u32], vec![0u32]];
        let mut hop_links = [Vec::new(), Vec::new()];
        for u in topo.nodes() {
            for dest in topo.nodes() {
                for phase in [CAN_UP, DOWN_ONLY] {
                    let du = dist[phase][u.index() * n + dest.index()];
                    if u != dest && du != u16::MAX {
                        hop_links[phase].extend(topo.out_links(u).iter().copied().filter(|&l| {
                            let v = topo.link(l).dst;
                            let next_phase = match (phase, dir[l.index()]) {
                                (CAN_UP, LinkDirection::Up) => CAN_UP,
                                (_, LinkDirection::Down) => DOWN_ONLY,
                                // Down→up turn is forbidden.
                                (_, LinkDirection::Up) => return false,
                            };
                            dist[next_phase][v.index() * n + dest.index()] == du - 1
                        }));
                    }
                    hop_off[phase].push(hop_links[phase].len() as u32);
                }
            }
        }
        UpDownRouting {
            root,
            level,
            num_nodes: n,
            dir,
            dist,
            hop_off,
            hop_links,
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
        self.dist[phase as usize][cur.index() * self.num_nodes + dest.index()]
    }

    /// Next-hop links on a minimal legal path from `cur` to `dest` given the
    /// packet's `phase`.
    #[inline]
    pub fn next_hops(&self, cur: NodeId, dest: NodeId, phase: Phase) -> &[LinkId] {
        let off = &self.hop_off[phase as usize];
        let p = cur.index() * self.num_nodes + dest.index();
        &self.hop_links[phase as usize][off[p] as usize..off[p + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;

    fn check_all_pairs_route(topo: &Topology, ud: &UpDownRouting) {
        // Follow next_hops greedily from every (src, dest): must terminate.
        for src in topo.nodes() {
            for dest in topo.nodes() {
                if src == dest {
                    continue;
                }
                let mut cur = src;
                let mut phase = Phase::CanUp;
                let mut hops = 0;
                while cur != dest {
                    let nh = ud.next_hops(cur, dest, phase);
                    assert!(
                        !nh.is_empty(),
                        "no legal next hop from {cur:?} to {dest:?} in {phase:?}"
                    );
                    let l = nh[0];
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
