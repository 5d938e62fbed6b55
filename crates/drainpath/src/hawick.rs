//! Hawick–James-style circuit search over the channel-dependency graph.
//!
//! The paper (§III-B) builds on the elementary-circuit enumeration of
//! Hawick and James — a recursive tree search with vertex blocking, in the
//! family of Johnson's algorithm — "augmented to terminate early as soon as
//! a single cycle is found that covers all links".
//!
//! A cycle in the dependency graph covering every link is a Hamiltonian
//! cycle of that graph, so a naive enumeration order can backtrack
//! exponentially. Our early-terminating search therefore orders successors
//! with **Fleury's bridge rule** on the remaining-unvisited-link multigraph:
//! prefer moves that keep the remaining links reachable. With that ordering
//! the first root-to-leaf branch of the recursive search already yields a
//! covering cycle on every Eulerian input, while the search remains a
//! faithful backtracking enumeration (it would still explore alternatives
//! if a prefix dead-ended).

use drain_topology::{LinkId, Topology};

use crate::DrainPathError;

/// Finds a single elementary cycle in the dependency graph of `topo` that
/// covers every unidirectional link, terminating as soon as one is found.
///
/// # Errors
///
/// [`DrainPathError::NoLinks`] / [`DrainPathError::Disconnected`] for
/// degenerate inputs, [`DrainPathError::SearchExhausted`] if the bounded
/// backtracking budget runs out (not observed for valid inputs thanks to
/// the bridge-avoidance ordering).
pub fn find_covering_cycle(topo: &Topology) -> Result<Vec<LinkId>, DrainPathError> {
    let m = topo.num_unidirectional_links();
    if m == 0 {
        return Err(DrainPathError::NoLinks);
    }
    if !topo.is_connected() {
        return Err(DrainPathError::Disconnected);
    }
    let mut search = CoveringSearch {
        topo,
        used: vec![false; m],
        path: Vec::with_capacity(m),
        // Generous budget: the bridge heuristic makes backtracking rare, but
        // the search stays a genuine backtracker.
        budget: 64 * (m as u64 + 4) * (m as u64 + 4),
    };
    let start = LinkId(0);
    search.used[start.index()] = true;
    search.path.push(start);
    if search.extend(start, start) {
        Ok(search.path)
    } else if search.budget == 0 {
        Err(DrainPathError::SearchExhausted)
    } else {
        // Connected bidirectional graphs are Eulerian, so this is
        // unreachable in practice; report as exhausted regardless.
        Err(DrainPathError::SearchExhausted)
    }
}

struct CoveringSearch<'a> {
    topo: &'a Topology,
    used: Vec<bool>,
    path: Vec<LinkId>,
    budget: u64,
}

impl CoveringSearch<'_> {
    /// Recursive tree search: extend the elementary path of links; succeed
    /// when all links are used and the last link turns back onto the first.
    fn extend(&mut self, first: LinkId, cur: LinkId) -> bool {
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        if self.path.len() == self.used.len() {
            // All links used; need a closing turn back to `first`.
            return self.topo.link(cur).dst == self.topo.link(first).src;
        }
        let pivot = self.topo.link(cur).dst;
        // Candidate next links: unused out-links of the pivot, ordered by
        // Fleury's rule (non-bridges of the remaining multigraph first).
        let mut candidates: Vec<LinkId> = self
            .topo
            .out_links(pivot)
            .iter()
            .copied()
            .filter(|l| !self.used[l.index()])
            .collect();
        if candidates.len() > 1 {
            let scores: Vec<bool> = candidates
                .iter()
                .map(|&l| self.is_safe_move(l))
                .collect();
            let mut ordered: Vec<LinkId> = Vec::with_capacity(candidates.len());
            for (i, &l) in candidates.iter().enumerate() {
                if scores[i] {
                    ordered.push(l);
                }
            }
            for (i, &l) in candidates.iter().enumerate() {
                if !scores[i] {
                    ordered.push(l);
                }
            }
            candidates = ordered;
        }
        for l in candidates {
            self.used[l.index()] = true;
            self.path.push(l);
            if self.extend(first, l) {
                return true;
            }
            self.path.pop();
            self.used[l.index()] = false;
        }
        false
    }

    /// Fleury-style safety check: after taking `l`, are all remaining unused
    /// links still reachable from `l`'s endpoint through unused links?
    fn is_safe_move(&self, l: LinkId) -> bool {
        let m = self.used.len();
        let remaining = m - self.path.len();
        if remaining <= 1 {
            return true;
        }
        // BFS over nodes through unused links (excluding `l`).
        let start = self.topo.link(l).dst;
        let mut seen_node = vec![false; self.topo.num_nodes()];
        let mut reached_links = 0usize;
        let mut queue = std::collections::VecDeque::new();
        seen_node[start.index()] = true;
        queue.push_back(start);
        let mut counted = vec![false; m];
        counted[l.index()] = true;
        while let Some(v) = queue.pop_front() {
            for &ol in self.topo.out_links(v) {
                if self.used[ol.index()] || ol == l || counted[ol.index()] {
                    continue;
                }
                counted[ol.index()] = true;
                reached_links += 1;
                let d = self.topo.link(ol).dst;
                if !seen_node[d.index()] {
                    seen_node[d.index()] = true;
                    queue.push_back(d);
                }
            }
            // Also traverse unused in-links backwards: reachability for
            // Eulerian purposes is over the underlying undirected structure.
            for &il in self.topo.in_links(v) {
                if self.used[il.index()] || il == l {
                    continue;
                }
                if !counted[il.index()] {
                    counted[il.index()] = true;
                    reached_links += 1;
                }
                let s = self.topo.link(il).src;
                if !seen_node[s.index()] {
                    seen_node[s.index()] = true;
                    queue.push_back(s);
                }
            }
        }
        reached_links == remaining - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_topology::{depgraph::DependencyGraph, faults::FaultInjector};

    #[test]
    fn covering_cycle_on_meshes() {
        for (w, h) in [(2, 2), (3, 3), (4, 4), (8, 8)] {
            let t = Topology::mesh(w, h);
            let c = find_covering_cycle(&t).unwrap();
            assert_eq!(c.len(), t.num_unidirectional_links());
        }
    }

    #[test]
    fn covering_cycle_on_faulty_mesh() {
        for seed in 0..5 {
            let t = FaultInjector::new(seed)
                .remove_links(&Topology::mesh(6, 6), 8)
                .unwrap();
            let c = find_covering_cycle(&t).unwrap();
            assert_eq!(c.len(), t.num_unidirectional_links());
            let dep = DependencyGraph::new(&t);
            assert!(dep.is_closed_walk(&c));
        }
    }

    #[test]
    fn matches_hierholzer_coverage() {
        let t = Topology::mesh(5, 5);
        let hj = find_covering_cycle(&t).unwrap();
        let eu = crate::euler::hierholzer_circuit(&t).unwrap();
        let mut a: Vec<u32> = hj.iter().map(|l| l.0).collect();
        let mut b: Vec<u32> = eu.iter().map(|l| l.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "both algorithms must cover the same link set");
    }
}
