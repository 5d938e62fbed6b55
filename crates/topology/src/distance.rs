//! All-pairs shortest-path machinery for minimal adaptive routing.
//!
//! The simulator's fully-adaptive router consults a [`DistanceMap`] to find
//! the set of *productive* output ports (those on some minimal path to the
//! destination). Distances are hop counts from BFS over the unidirectional
//! link graph, recomputed whenever the topology changes (fault events).
//!
//! A next-hop set is stored the way a hardware forwarding table stores it:
//! as output *ports*, one `u32` mask per (cur, dest) pair whose bit `j`
//! stands for `topo.out_links(cur)[j]` ([`crate::MAX_DEGREE`] is the mask
//! width). Together with the `u16` distance that is 6 bytes per pair.
//! [`Topology::port_links`] turns a mask back into links.
//!
//! The distances under the masks come from `all_pairs_bfs`, which
//! [`crate::updown::UpDownRouting`] runs too, on its phase-expanded graph.

use crate::{NodeId, Topology};

/// Hop counts to every destination from every state of a graph, by a
/// breadth-first search that walks the edges backwards from 64
/// destinations at once.
///
/// The graph has `states` states, a multiple of the `n` destinations;
/// state `s` stands for node `s % n` and is at distance 0 from that
/// destination. `preds(v)` yields the states with an edge into `v`.
/// Returns `dist[s * n + dest]`, `u16::MAX` where `dest` is unreachable.
///
/// One pass keeps three words per state — the destinations that have
/// `seen` it, the ones that reached it in the last level (`frontier`) and
/// in this one (`next`) — so a level is `next[u] |= frontier[v]` over the
/// edges, and the bits of `next[u] & !seen[u]` are written, as the level
/// number, into the 64 consecutive entries of row `u` the pass owns.
pub(crate) fn all_pairs_bfs<I: Iterator<Item = usize>>(
    n: usize,
    states: usize,
    preds: impl Fn(usize) -> I,
) -> Vec<u16> {
    let mut dist = vec![u16::MAX; states * n];
    let mut seen = vec![0u64; states];
    let mut frontier = vec![0u64; states];
    let mut next = vec![0u64; states];
    for base in (0..n).step_by(64) {
        let width = (n - base).min(64);
        seen.fill(0);
        for dest in base..base + width {
            for s in (dest..states).step_by(n) {
                seen[s] = 1 << (dest - base);
                frontier[s] = seen[s];
                dist[s * n + dest] = 0;
            }
        }
        let mut level = 0u16;
        loop {
            level += 1;
            for (v, &reached) in frontier.iter().enumerate() {
                if reached != 0 {
                    for u in preds(v) {
                        next[u] |= reached;
                    }
                }
            }
            let mut any = 0;
            for u in 0..states {
                let mut fresh = std::mem::take(&mut next[u]) & !seen[u];
                seen[u] |= fresh;
                frontier[u] = fresh;
                any |= fresh;
                while fresh != 0 {
                    dist[u * n + base + fresh.trailing_zeros() as usize] = level;
                    fresh &= fresh - 1;
                }
            }
            // The last level found nothing new, so `frontier` and `next`
            // are all zero again for the next pass.
            if any == 0 {
                break;
            }
        }
    }
    dist
}

/// Sets bit `port` of `ports[dest]` for every `dest` that is one hop
/// closer from the neighbour behind that port (`there[dest]`) than from
/// here (`here[dest]`). Unreachable destinations and `here` itself — the
/// zero of its own row — get no bit.
pub(crate) fn mark_closer(ports: &mut [u32], here: &[u16], there: &[u16], port: usize) {
    let bit = 1u32 << port;
    for ((mask, &d), &via) in ports.iter_mut().zip(here).zip(there) {
        // All in `u16`, which is what lets the loop vectorise: `d - 1`
        // wraps the two distances that get no bit (0 and `u16::MAX`) to
        // the top of the range.
        let closer = via.wrapping_add(1) == d && d.wrapping_sub(1) < u16::MAX - 1;
        *mask |= if closer { bit } else { 0 };
    }
}

/// Dense all-pairs hop-count table plus per-(node, dest) productive-port
/// masks.
///
/// # Examples
///
/// ```
/// use drain_topology::{Topology, NodeId, distance::DistanceMap};
///
/// let t = Topology::mesh(4, 4);
/// let d = DistanceMap::new(&t);
/// assert_eq!(d.distance(NodeId(0), NodeId(15)), 6);
/// assert_eq!(d.diameter(), 6);
/// // From a corner toward the opposite corner, both mesh directions are
/// // productive.
/// let ports = d.productive_ports(NodeId(0), NodeId(15));
/// assert_eq!(ports, 0b11);
/// assert_eq!(t.port_links(NodeId(0), ports).count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DistanceMap {
    num_nodes: usize,
    /// `dist[src * n + dst]`, `u16::MAX` = unreachable.
    dist: Vec<u16>,
    /// `ports[cur * n + dst]`: bit `j` set iff `out_links(cur)[j]` lies on
    /// a minimal path to `dst`. One lookup is one load — the per-packet
    /// routing query in the simulator's hot loop.
    ports: Vec<u32>,
    diameter: u16,
    avg_distance: f64,
}

impl DistanceMap {
    /// Computes BFS distances and productive-port masks for `topo`.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let dist = all_pairs_bfs(n, n, |v| {
            let into_v = topo.in_links(NodeId(v as u16)).iter();
            into_v.map(|&l| topo.link(l).src.index())
        });
        let mut ports = vec![0u32; n * n];
        for cur in topo.nodes() {
            let row = cur.index() * n..(cur.index() + 1) * n;
            for (port, &l) in topo.out_links(cur).iter().enumerate() {
                let next = topo.link(l).dst.index();
                mark_closer(
                    &mut ports[row.clone()],
                    &dist[row.clone()],
                    &dist[next * n..(next + 1) * n],
                    port,
                );
            }
        }
        // The diagonal is all zeros: it adds nothing to the sum or the
        // maximum, and `n` to the count of reachable entries.
        let (mut diameter, mut sum, mut unreachable) = (0u16, 0u64, 0usize);
        for &d in &dist {
            let d = if d == u16::MAX {
                unreachable += 1;
                0
            } else {
                d
            };
            diameter = diameter.max(d);
            sum += u64::from(d);
        }
        let pairs = dist.len() - unreachable - n;
        DistanceMap {
            num_nodes: n,
            dist,
            ports,
            diameter,
            avg_distance: if pairs == 0 {
                0.0
            } else {
                sum as f64 / pairs as f64
            },
        }
    }

    /// Hop count from `src` to `dst` (`u16::MAX` if unreachable).
    #[inline]
    pub fn distance(&self, src: NodeId, dst: NodeId) -> u16 {
        self.dist[src.index() * self.num_nodes + dst.index()]
    }

    /// Out-ports of `cur` that lie on a minimal path to `dest`: bit `j`
    /// stands for `topo.out_links(cur)[j]` ([`Topology::port_links`] lists
    /// the links). 0 when `cur == dest` or `dest` is unreachable.
    #[inline]
    pub fn productive_ports(&self, cur: NodeId, dest: NodeId) -> u32 {
        self.ports[cur.index() * self.num_nodes + dest.index()]
    }

    /// Longest shortest path between any reachable pair.
    pub fn diameter(&self) -> u16 {
        self.diameter
    }

    /// Mean shortest-path hop count over all ordered reachable pairs.
    pub fn avg_distance(&self) -> f64 {
        self.avg_distance
    }

    /// Average number of minimal next hops over all (cur, dest) pairs with
    /// `cur != dest` — a simple path-diversity metric.
    pub fn path_diversity(&self) -> f64 {
        let n = self.num_nodes;
        if n < 2 {
            return 0.0;
        }
        // Diagonal masks are empty.
        let hops: u64 = self.ports.iter().map(|m| u64::from(m.count_ones())).sum();
        hops as f64 / (n * (n - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;

    #[test]
    fn mesh_distances_are_manhattan() {
        let t = Topology::mesh(5, 5);
        let d = DistanceMap::new(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                let (ax, ay) = t.coord(a).unwrap();
                let (bx, by) = t.coord(b).unwrap();
                let manhattan = ax.abs_diff(bx) + ay.abs_diff(by);
                assert_eq!(d.distance(a, b), manhattan);
            }
        }
    }

    #[test]
    fn productive_ports_decrease_distance() {
        let t = FaultInjector::new(11)
            .remove_links(&Topology::mesh(6, 6), 8)
            .unwrap();
        let d = DistanceMap::new(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                if a == b {
                    continue;
                }
                let ports = d.productive_ports(a, b);
                assert_ne!(ports, 0, "connected graph must have a next hop");
                for l in t.port_links(a, ports) {
                    let next = t.link(l).dst;
                    assert_eq!(d.distance(next, b) + 1, d.distance(a, b));
                }
            }
        }
    }

    #[test]
    fn faults_increase_average_distance() {
        let base = Topology::mesh(8, 8);
        let d0 = DistanceMap::new(&base);
        let faulty = FaultInjector::new(2).remove_links(&base, 12).unwrap();
        let d1 = DistanceMap::new(&faulty);
        assert!(d1.avg_distance() >= d0.avg_distance());
        assert!(d1.path_diversity() <= d0.path_diversity());
    }

    #[test]
    fn ring_diameter() {
        let t = Topology::ring(8);
        let d = DistanceMap::new(&t);
        assert_eq!(d.diameter(), 4);
    }
}
