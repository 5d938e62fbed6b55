//! Deterministic edge-cut partitioning of a topology into router shards.
//!
//! The sharded simulation kernel (`drain-netsim`) assigns every router to
//! exactly one of `K` shards; one worker thread per shard runs Phase A for
//! the shard's routers, and a grant on a *cut* link (endpoints in
//! different shards) is what the kernel counts as cross-shard traffic. The
//! partitioner here only decides the node → shard map; it is a locality
//! heuristic, not an optimal min-cut: nodes are laid out in breadth-first
//! order (so neighbourhoods stay together) and the BFS sequence is split
//! into `K` contiguous, balanced blocks.
//!
//! Everything is deterministic: the BFS starts from the lowest unvisited
//! node id and expands neighbours in the topology's stable out-link order,
//! so the same `(topology, K)` pair always yields byte-identical maps —
//! a prerequisite for the kernel's bit-identity contract across shard
//! counts and across runs.

use crate::graph::{LinkId, NodeId, Topology};

/// A node → shard assignment (see the module docs).
///
/// # Examples
///
/// ```
/// use drain_topology::{partition::Partition, Topology};
///
/// let topo = Topology::mesh(4, 4);
/// let part = Partition::balanced(&topo, 4);
/// assert_eq!(part.num_shards(), 4);
/// assert_eq!(part.shard_sizes().iter().sum::<usize>(), topo.num_nodes());
/// assert!(part.cut_links(&topo) > 0, "a 4-way split of a mesh has cut links");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    k: usize,
    shard_of: Vec<u16>,
}

impl Partition {
    /// Splits `topo` into `k` balanced shards of BFS-contiguous nodes.
    ///
    /// Shard sizes differ by at most one (`n mod k` shards hold
    /// `ceil(n / k)` nodes, the rest `floor(n / k)`); with `k > n` the
    /// trailing shards are empty. Disconnected topologies are handled by
    /// restarting the BFS at the lowest unvisited node.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn balanced(topo: &Topology, k: usize) -> Partition {
        assert!(k > 0, "need at least one shard");
        let n = topo.num_nodes();
        // BFS layout: visit order groups each node with its neighbourhood.
        let mut order: Vec<u16> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        for root in 0..n {
            if seen[root] {
                continue;
            }
            seen[root] = true;
            queue.push_back(root as u16);
            while let Some(cur) = queue.pop_front() {
                order.push(cur);
                for &l in topo.out_links(NodeId(cur)) {
                    let next = topo.link(l).dst;
                    if !seen[next.index()] {
                        seen[next.index()] = true;
                        queue.push_back(next.0);
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), n, "BFS must visit every node once");
        // Contiguous balanced blocks over the BFS sequence.
        let base = n / k;
        let extra = n % k;
        let mut shard_of = vec![0u16; n];
        let mut at = 0usize;
        for s in 0..k {
            let size = base + usize::from(s < extra);
            for &node in &order[at..at + size] {
                shard_of[node as usize] = s as u16;
            }
            at += size;
        }
        Partition { k, shard_of }
    }

    /// Number of shards (including empty ones when `k > num_nodes`).
    pub fn num_shards(&self) -> usize {
        self.k
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range for the partitioned topology.
    pub fn shard_of(&self, node: NodeId) -> u16 {
        self.shard_of[node.index()]
    }

    /// Node count per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Whether `link` crosses a shard boundary (its endpoints live in
    /// different shards). Grants on these links are the sharded kernel's
    /// cross-shard traffic count.
    pub fn is_cross(&self, topo: &Topology, link: LinkId) -> bool {
        let l = topo.link(link);
        self.shard_of[l.src.index()] != self.shard_of[l.dst.index()]
    }

    /// Number of unidirectional links crossing shard boundaries (the edge
    /// cut the heuristic tries to keep small).
    pub fn cut_links(&self, topo: &Topology) -> usize {
        topo.link_ids().filter(|&l| self.is_cross(topo, l)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_node_exactly_once() {
        let topo = Topology::mesh(5, 3);
        for k in 1..=8 {
            let p = Partition::balanced(&topo, k);
            assert_eq!(p.shard_sizes().iter().sum::<usize>(), 15);
            for n in 0..15u16 {
                assert!((p.shard_of(NodeId(n)) as usize) < k);
            }
        }
    }

    #[test]
    fn balanced_within_one() {
        let topo = Topology::mesh(4, 4);
        for k in [2usize, 3, 5, 7] {
            let sizes = Partition::balanced(&topo, k).shard_sizes();
            let (min, max) = (
                sizes.iter().copied().min().unwrap(),
                sizes.iter().copied().max().unwrap(),
            );
            assert!(max - min <= 1, "k={k}: sizes {sizes:?}");
        }
    }

    #[test]
    fn deterministic_and_single_shard_trivial() {
        let topo = Topology::mesh(4, 4);
        assert_eq!(
            Partition::balanced(&topo, 4),
            Partition::balanced(&topo, 4)
        );
        let p1 = Partition::balanced(&topo, 1);
        assert_eq!(p1.cut_links(&topo), 0);
        assert_eq!(p1.shard_sizes(), vec![16]);
    }

    #[test]
    fn more_shards_than_nodes_leaves_empty_tails() {
        let topo = Topology::ring(3);
        let p = Partition::balanced(&topo, 8);
        let sizes = p.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 3);
        assert_eq!(sizes[3..], [0, 0, 0, 0, 0]);
    }

    #[test]
    fn cross_classification_is_endpoint_symmetric() {
        let topo = Topology::mesh(4, 4);
        let p = Partition::balanced(&topo, 4);
        for l in topo.link_ids() {
            assert_eq!(
                p.is_cross(&topo, l),
                p.is_cross(&topo, l.reverse()),
                "a link and its reverse must classify identically"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        Partition::balanced(&Topology::ring(4), 0);
    }
}
