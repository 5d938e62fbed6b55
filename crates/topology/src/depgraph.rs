//! Channel-dependency graph.
//!
//! Following §III-B of the paper, the input topology is represented as a
//! dependency graph `G` where *each node is a unidirectional link* of the
//! topology and *each directed edge is a turn* between two unidirectional
//! links that meet at a router. U-turns (a link followed by its own reverse)
//! are included, matching the paper's assumption §III-A(3) that every input
//! port can route to every output port.
//!
//! The offline drain-path algorithm searches this graph for an elementary
//! cycle that covers every link.

use crate::{LinkId, NodeId, Topology};

/// A turn: arriving on `from` and departing on `to`, pivoting at the router
/// `from.dst == to.src`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Turn {
    /// Incoming unidirectional link.
    pub from: LinkId,
    /// Outgoing unidirectional link.
    pub to: LinkId,
}

/// The channel-dependency graph of a topology.
///
/// # Examples
///
/// ```
/// use drain_topology::{Topology, depgraph::DependencyGraph};
///
/// let t = Topology::mesh(3, 3);
/// let g = DependencyGraph::new(&t);
/// assert_eq!(g.num_links(), t.num_unidirectional_links());
/// // A corner router (degree 2) contributes 2 outgoing turns per incoming
/// // link (one of which is the U-turn).
/// let l = t.out_links(drain_topology::NodeId(0))[0];
/// assert!(g.successors(l).contains(&l.reverse()));
/// ```
#[derive(Clone, Debug)]
pub struct DependencyGraph {
    /// `succ[l]` = links reachable from link `l` via one turn.
    succ: Vec<Vec<LinkId>>,
}

impl DependencyGraph {
    /// Builds the dependency graph with U-turns allowed (the paper's
    /// baseline assumption).
    pub fn new(topo: &Topology) -> Self {
        Self::with_u_turns(topo, true)
    }

    /// Builds the dependency graph, optionally excluding U-turns.
    pub fn with_u_turns(topo: &Topology, allow_u_turns: bool) -> Self {
        let mut succ = vec![Vec::new(); topo.num_unidirectional_links()];
        for l in topo.link_ids() {
            let pivot: NodeId = topo.link(l).dst;
            for &out in topo.out_links(pivot) {
                if !allow_u_turns && out == l.reverse() {
                    continue;
                }
                succ[l.index()].push(out);
            }
        }
        DependencyGraph { succ }
    }

    /// Number of unidirectional links (nodes of this graph).
    pub fn num_links(&self) -> usize {
        self.succ.len()
    }

    /// Number of turns (edges of this graph).
    pub fn num_turns(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Links reachable from `l` via a single turn.
    #[inline]
    pub fn successors(&self, l: LinkId) -> &[LinkId] {
        &self.succ[l.index()]
    }

    /// Iterator over every turn in the graph.
    pub fn turns(&self) -> impl Iterator<Item = Turn> + '_ {
        self.succ.iter().enumerate().flat_map(|(i, outs)| {
            outs.iter().map(move |&to| Turn {
                from: LinkId(i as u32),
                to,
            })
        })
    }

    /// Validates that `path` is a closed walk in this graph: consecutive
    /// links (cyclically) are connected by a turn.
    pub fn is_closed_walk(&self, path: &[LinkId]) -> bool {
        if path.is_empty() {
            return false;
        }
        (0..path.len()).all(|i| {
            let from = path[i];
            let to = path[(i + 1) % path.len()];
            self.succ[from.index()].contains(&to)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turn_counts_mesh() {
        let t = Topology::mesh(3, 3);
        let g = DependencyGraph::new(&t);
        // Each link l arriving at router r contributes degree(r) turns.
        let expected: usize = t
            .link_ids()
            .map(|l| t.degree(t.link(l).dst))
            .sum();
        assert_eq!(g.num_turns(), expected);
    }

    #[test]
    fn u_turn_exclusion() {
        let t = Topology::mesh(3, 3);
        let g = DependencyGraph::with_u_turns(&t, false);
        for l in t.link_ids() {
            assert!(!g.successors(l).contains(&l.reverse()));
        }
        let g_u = DependencyGraph::new(&t);
        assert_eq!(
            g_u.num_turns(),
            g.num_turns() + t.num_unidirectional_links()
        );
    }

    #[test]
    fn successors_share_pivot() {
        let t = Topology::mesh(4, 4);
        let g = DependencyGraph::new(&t);
        for l in t.link_ids() {
            for &s in g.successors(l) {
                assert_eq!(t.link(l).dst, t.link(s).src);
            }
        }
    }

    #[test]
    fn closed_walk_validation() {
        let t = Topology::ring(4);
        let g = DependencyGraph::new(&t);
        // Walk around the ring in one direction: links 0->1->2->3->0.
        let mut path = Vec::new();
        let mut cur = crate::NodeId(0);
        for _ in 0..4 {
            let l = t
                .out_links(cur)
                .iter()
                .copied()
                .find(|&l| t.link(l).dst.0 == (cur.0 + 1) % 4)
                .unwrap();
            path.push(l);
            cur = t.link(l).dst;
        }
        assert!(g.is_closed_walk(&path));
        path.swap(1, 2);
        assert!(!g.is_closed_walk(&path));
        assert!(!g.is_closed_walk(&[]));
    }
}
