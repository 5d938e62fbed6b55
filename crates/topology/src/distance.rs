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
//! [`crate::updown::UpDownRouting`] runs too, on its phase-expanded graph;
//! each table hands it its graph as a flat predecessor array.

use crate::{NodeId, Topology};

/// Destinations one wide pass of [`all_pairs_bfs`] takes: two words of
/// lanes per state.
const WIDE: usize = 128;

/// Hop counts to every destination from every state of a graph, by a
/// breadth-first search that walks the edges backwards from a batch of
/// destinations at once.
///
/// The graph has `start.len() - 1` states, a multiple of the `n`
/// destinations; state `s` stands for node `s % n` and is at distance 0
/// from that destination. Its edges come as a flat predecessor array:
/// the states with an edge into `v` are
/// `preds[start[v] as usize..start[v + 1] as usize]`.
/// Returns `dist[s * n + dest]`, `u16::MAX` where `dest` is unreachable.
///
/// Destinations are taken [`WIDE`] at a time while a wide pass fills,
/// then 64 at a time: each level of a pass sweeps every state whatever
/// its width, so a wide pass halves that sweep per destination, but over
/// a batch it cannot fill it costs more than a narrow one (mesh(8, 8):
/// 9 µs against 7).
pub(crate) fn all_pairs_bfs(n: usize, start: &[u32], preds: &[u32]) -> Vec<u16> {
    let states = start.len() - 1;
    let mut dist = vec![u16::MAX; states * n];
    let wide_end = n / WIDE * WIDE;
    if wide_end > 0 {
        let mut pass = BfsPass::<2>::new(states);
        for base in (0..wide_end).step_by(WIDE) {
            pass.run(&mut dist, n, base..base + WIDE, start, preds);
        }
    }
    if wide_end < n {
        let mut pass = BfsPass::<1>::new(states);
        for base in (wide_end..n).step_by(64) {
            pass.run(&mut dist, n, base..n.min(base + 64), start, preds);
        }
    }
    dist
}

/// The per-state words of one [`all_pairs_bfs`] pass, `W` words (64 `W`
/// destinations) each: the destinations that have `seen` a state, the
/// ones that reached it in the last level (`frontier`) and in this one
/// (`next`).
struct BfsPass<const W: usize> {
    seen: Vec<[u64; W]>,
    frontier: Vec<[u64; W]>,
    next: Vec<[u64; W]>,
}

impl<const W: usize> BfsPass<W> {
    fn new(states: usize) -> Self {
        BfsPass {
            seen: vec![[0; W]; states],
            frontier: vec![[0; W]; states],
            next: vec![[0; W]; states],
        }
    }

    /// Fills the columns `dests` (at most `64 * W` of them) of `dist`.
    /// A level is `next[u] |= frontier[v]` over the edges `u -> v` of
    /// each non-empty frontier, which it empties; then for each non-empty
    /// `next[u]` the bits of `next[u] & !seen[u]` are written, as the
    /// level number, into the entries of row `u` the pass owns, and become
    /// its frontier. A state no frontier reached costs one compare per
    /// sweep, no store.
    fn run(
        &mut self,
        dist: &mut [u16],
        n: usize,
        dests: std::ops::Range<usize>,
        start: &[u32],
        preds: &[u32],
    ) {
        let states = self.seen.len();
        let base = dests.start;
        self.seen.fill([0; W]);
        for dest in dests.clone() {
            let lane = dest - base;
            for s in (dest..states).step_by(n) {
                self.seen[s][lane / 64] |= 1 << (lane % 64);
                dist[s * n + dest] = 0;
            }
        }
        self.frontier.copy_from_slice(&self.seen);
        let mut level = 0u16;
        loop {
            level += 1;
            for (v, frontier) in self.frontier.iter_mut().enumerate() {
                if *frontier == [0; W] {
                    continue;
                }
                let reached = std::mem::replace(frontier, [0; W]);
                for &u in &preds[start[v] as usize..start[v + 1] as usize] {
                    let into = &mut self.next[u as usize];
                    for w in 0..W {
                        into[w] |= reached[w];
                    }
                }
            }
            let mut any = 0;
            for u in 0..states {
                if self.next[u] == [0; W] {
                    continue;
                }
                let row = &mut dist[u * n + base..u * n + dests.end];
                for w in 0..W {
                    let mut fresh = std::mem::take(&mut self.next[u][w]) & !self.seen[u][w];
                    self.seen[u][w] |= fresh;
                    self.frontier[u][w] = fresh;
                    any |= fresh;
                    while fresh != 0 {
                        row[w * 64 + fresh.trailing_zeros() as usize] = level;
                        fresh &= fresh - 1;
                    }
                }
            }
            // The last level found nothing new, so `frontier` and `next`
            // are all zero again for the next pass.
            if any == 0 {
                break;
            }
        }
    }
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
}

impl DistanceMap {
    /// Computes BFS distances and productive-port masks for `topo`.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        // `in_links(v)[j]` is `out_links(v)[j].reverse()`, so the nodes
        // with a link into `v` are the far ends of its out-links, in port
        // order: one array of neighbours is both the BFS's predecessors
        // and each port's next node below.
        let mut start = Vec::with_capacity(n + 1);
        let mut neighbours = Vec::with_capacity(topo.num_unidirectional_links());
        start.push(0);
        for v in topo.nodes() {
            let outs = topo.out_links(v).iter();
            neighbours.extend(outs.map(|&l| u32::from(topo.link(l).dst.0)));
            start.push(neighbours.len() as u32);
        }
        let dist = all_pairs_bfs(n, &start, &neighbours);
        let mut ports = vec![0u32; n * n];
        for cur in 0..n {
            let row = cur * n..(cur + 1) * n;
            let here = start[cur] as usize..start[cur + 1] as usize;
            for (port, &next) in neighbours[here].iter().enumerate() {
                let next = next as usize;
                mark_closer(
                    &mut ports[row.clone()],
                    &dist[row.clone()],
                    &dist[next * n..(next + 1) * n],
                    port,
                );
            }
        }
        DistanceMap {
            num_nodes: n,
            dist,
            ports,
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

    /// Longest shortest path between any reachable pair. A scan of the
    /// whole table, computed on each call.
    pub fn diameter(&self) -> u16 {
        let reachable = self.dist.iter().filter(|&&d| d != u16::MAX);
        reachable.copied().max().unwrap_or(0)
    }

    /// Mean shortest-path hop count over all ordered reachable pairs. A
    /// scan of the whole table, computed on each call.
    pub fn avg_distance(&self) -> f64 {
        let reachable = self.dist.iter().filter(|&&d| d != u16::MAX);
        let (sum, count) = reachable.fold((0u64, 0usize), |(sum, count), &d| {
            (sum + u64::from(d), count + 1)
        });
        // The diagonal is all zeros: `n` of the reachable entries.
        let pairs = count - self.num_nodes;
        if pairs == 0 {
            0.0
        } else {
            sum as f64 / pairs as f64
        }
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

    /// The summaries are scans on demand; these are the values the
    /// table computed eagerly before, pinned bit for bit, on a mesh, a
    /// ring, a faulty mesh and a graph of two components (a 66-node path
    /// and a triangle), whose unreachable pairs count in none of them.
    #[test]
    fn summaries_are_pinned() {
        let mut edges: Vec<(u16, u16)> = (0..65).map(|i| (i, i + 1)).collect();
        edges.extend([(66, 67), (67, 68), (68, 66)]);
        let cases = [
            (Topology::mesh(4, 4), 6, 2.6666666666666665, 1.6),
            (Topology::ring(8), 4, 2.2857142857142856, 1.1428571428571428),
            (
                FaultInjector::new(2)
                    .remove_links(&Topology::mesh(8, 8), 12)
                    .unwrap(),
                14,
                5.583333333333333,
                1.5873015873015872,
            ),
            (
                Topology::from_edges("two-components", 69, &edges).unwrap(),
                65,
                22.303538175046555,
                0.9156010230179028,
            ),
        ];
        for (t, diameter, avg_distance, path_diversity) in cases {
            let d = DistanceMap::new(&t);
            assert_eq!(d.diameter(), diameter, "{}", t.name());
            assert_eq!(d.avg_distance(), avg_distance, "{}", t.name());
            assert_eq!(d.path_diversity(), path_diversity, "{}", t.name());
        }
    }

    #[test]
    fn ring_diameter() {
        let t = Topology::ring(8);
        let d = DistanceMap::new(&t);
        assert_eq!(d.diameter(), 4);
    }
}
