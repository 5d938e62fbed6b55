//! Offline drain-path algorithm (paper §III-B).
//!
//! Given any topology satisfying the paper's baseline assumptions
//! (connected, bidirectional links, all turns including U-turns possible),
//! DRAIN needs a *drain path*: a single cycle in the channel-dependency
//! graph that covers **every unidirectional link exactly once**. During each
//! drain window, every packet sitting in an escape VC is forced one hop
//! along this path.
//!
//! Such a cycle is precisely an **Eulerian circuit** of the topology viewed
//! as a symmetric digraph: every bidirectional link contributes one incoming
//! and one outgoing unidirectional link at each endpoint, so in-degree
//! equals out-degree everywhere, and the graph is connected — an Eulerian
//! circuit therefore always exists. (The paper argues existence via a
//! spanning tree plus U-turns; the Eulerian view subsumes that argument and
//! covers *all* links, not just tree links.)
//!
//! Two constructions are implemented:
//!
//! * [`euler`] — Hierholzer's algorithm, O(E), the default.
//! * [`hawick`] — the paper's cited Hawick–James recursive tree search over
//!   the dependency graph, augmented (a) to terminate as soon as one
//!   covering cycle is found and (b) with Fleury's bridge-avoidance rule as
//!   successor ordering so the search completes without exponential
//!   backtracking.
//!
//! The result is wrapped in a [`DrainPath`], which also carries the
//! [`TurnTable`] each router consults while draining (paper Fig 7; the
//! drain windows themselves are §III-C, implemented in `drain-core`).
//!
//! # Examples
//!
//! ```
//! use drain_topology::Topology;
//! use drain_path::DrainPath;
//!
//! let topo = Topology::mesh(4, 4);
//! let path = DrainPath::compute(&topo)?;
//! assert_eq!(path.len(), topo.num_unidirectional_links());
//! path.verify(&topo)?;
//! # Ok::<(), drain_path::DrainPathError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod euler;
pub mod hawick;
mod turntable;

use std::fmt;

use drain_topology::{depgraph::DependencyGraph, LinkId, Topology};

pub use turntable::TurnTable;

/// Errors from drain-path construction or verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DrainPathError {
    /// The topology is disconnected, so no covering cycle exists.
    Disconnected,
    /// The topology has no links at all (single node).
    NoLinks,
    /// A claimed path failed verification.
    Invalid(&'static str),
    /// The bounded search gave up before finding a covering cycle.
    SearchExhausted,
}

impl fmt::Display for DrainPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainPathError::Disconnected => write!(f, "topology is disconnected"),
            DrainPathError::NoLinks => write!(f, "topology has no links"),
            DrainPathError::Invalid(why) => write!(f, "invalid drain path: {why}"),
            DrainPathError::SearchExhausted => {
                write!(f, "search budget exhausted before a covering cycle was found")
            }
        }
    }
}

impl std::error::Error for DrainPathError {}

/// Which offline construction to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Algorithm {
    /// Hierholzer's Eulerian-circuit algorithm (linear; the default).
    #[default]
    Hierholzer,
    /// The paper's Hawick–James-style recursive search with early
    /// termination.
    HawickJames,
}

/// A drain path: a cyclic sequence of unidirectional links covering every
/// link of the topology exactly once, plus the per-router [`TurnTable`]
/// derived from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DrainPath {
    circuit: Vec<LinkId>,
    turn_table: TurnTable,
    /// `position[link] = index` of the link within the circuit.
    position: Vec<u32>,
}

impl DrainPath {
    /// Computes the drain path for `topo` with the default (Hierholzer)
    /// algorithm.
    ///
    /// # Errors
    ///
    /// [`DrainPathError::Disconnected`] if the topology is not connected;
    /// [`DrainPathError::NoLinks`] for a single-node network.
    pub fn compute(topo: &Topology) -> Result<Self, DrainPathError> {
        Self::compute_with(topo, Algorithm::Hierholzer)
    }

    /// Computes the drain path with an explicit algorithm choice.
    ///
    /// # Errors
    ///
    /// As for [`DrainPath::compute`]; additionally the Hawick–James search
    /// may report [`DrainPathError::SearchExhausted`] on pathological inputs
    /// (never observed for connected bidirectional topologies).
    pub fn compute_with(topo: &Topology, algorithm: Algorithm) -> Result<Self, DrainPathError> {
        if topo.num_unidirectional_links() == 0 {
            return Err(DrainPathError::NoLinks);
        }
        if !topo.is_connected() {
            return Err(DrainPathError::Disconnected);
        }
        let circuit = match algorithm {
            Algorithm::Hierholzer => euler::hierholzer_circuit(topo)?,
            Algorithm::HawickJames => hawick::find_covering_cycle(topo)?,
        };
        Self::from_circuit(topo, circuit)
    }

    /// Wraps an externally produced circuit, verifying it first.
    ///
    /// # Errors
    ///
    /// [`DrainPathError::Invalid`] if the circuit is not a covering cycle of
    /// `topo`.
    pub fn from_circuit(topo: &Topology, circuit: Vec<LinkId>) -> Result<Self, DrainPathError> {
        verify_circuit(topo, &circuit)?;
        let mut position = vec![u32::MAX; topo.num_unidirectional_links()];
        for (i, &l) in circuit.iter().enumerate() {
            position[l.index()] = i as u32;
        }
        let turn_table = TurnTable::from_circuit(topo, &circuit);
        Ok(DrainPath {
            circuit,
            turn_table,
            position,
        })
    }

    /// The covering cycle as a link sequence. `circuit()[i+1]` is the link a
    /// drained packet on `circuit()[i]`'s escape VC is forced onto.
    pub fn circuit(&self) -> &[LinkId] {
        &self.circuit
    }

    /// Number of links in the cycle (equals the number of unidirectional
    /// links of the topology).
    pub fn len(&self) -> usize {
        self.circuit.len()
    }

    /// A drain path is never empty (construction fails on linkless
    /// topologies), but this is provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.circuit.is_empty()
    }

    /// The per-router turn-table (paper Fig 7): where each input link's
    /// escape VC is forced to turn during a drain.
    pub fn turn_table(&self) -> &TurnTable {
        &self.turn_table
    }

    /// The link following `l` on the drain path.
    pub fn next_link(&self, l: LinkId) -> LinkId {
        self.turn_table.next(l)
    }

    /// Index of link `l` within the circuit.
    pub fn position(&self, l: LinkId) -> usize {
        self.position[l.index()] as usize
    }

    /// Test-only fault seeding: corrupts the turn-table entry for `from`
    /// (see [`TurnTable::corrupt_entry_for_tests`]), leaving the circuit
    /// untouched. Used by the fuzz harness's `--seed-fault` mode to prove
    /// the runtime invariant checker catches a broken drain table.
    pub fn corrupt_turn_for_tests(&mut self, from: LinkId, to: LinkId) {
        self.turn_table.corrupt_entry_for_tests(from, to);
    }

    /// Re-verifies this path against a topology.
    ///
    /// # Errors
    ///
    /// [`DrainPathError::Invalid`] describing the first violated property.
    pub fn verify(&self, topo: &Topology) -> Result<(), DrainPathError> {
        verify_circuit(topo, &self.circuit)
    }
}

/// Checks that `circuit` is an elementary cycle in the dependency graph of
/// `topo` covering every unidirectional link exactly once.
fn verify_circuit(topo: &Topology, circuit: &[LinkId]) -> Result<(), DrainPathError> {
    let m = topo.num_unidirectional_links();
    if circuit.len() != m {
        return Err(DrainPathError::Invalid(
            "circuit length differs from the number of unidirectional links",
        ));
    }
    let mut seen = vec![false; m];
    for &l in circuit {
        if l.index() >= m {
            return Err(DrainPathError::Invalid("link id out of range"));
        }
        if seen[l.index()] {
            return Err(DrainPathError::Invalid("link visited more than once"));
        }
        seen[l.index()] = true;
    }
    // All covered follows from len == m plus uniqueness.
    let dep = DependencyGraph::new(topo);
    if !dep.is_closed_walk(circuit) {
        return Err(DrainPathError::Invalid(
            "consecutive links are not joined by a turn",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_topology::faults::FaultInjector;
    use drain_topology::NodeId;

    #[test]
    fn mesh_paths_verify_for_both_algorithms() {
        for algo in [Algorithm::Hierholzer, Algorithm::HawickJames] {
            let topo = Topology::mesh(4, 4);
            let p = DrainPath::compute_with(&topo, algo).unwrap();
            assert_eq!(p.len(), topo.num_unidirectional_links());
            p.verify(&topo).unwrap();
        }
    }

    #[test]
    fn faulty_mesh_paths_verify() {
        for faults in [1, 4, 8, 12] {
            for seed in 0..3 {
                let topo = FaultInjector::new(seed)
                    .remove_links(&Topology::mesh(8, 8), faults)
                    .unwrap();
                let p = DrainPath::compute(&topo).unwrap();
                p.verify(&topo).unwrap();
            }
        }
    }

    #[test]
    fn irregular_and_random_topologies() {
        let t = drain_topology::chiplet::demo_heterogeneous_system(1);
        DrainPath::compute(&t).unwrap().verify(&t).unwrap();
        let r = drain_topology::chiplet::random_connected(24, 3.0, 7);
        DrainPath::compute(&r).unwrap().verify(&r).unwrap();
    }

    #[test]
    fn two_node_network_uses_u_turns() {
        let t = Topology::from_edges("pair", 2, &[(0, 1)]).unwrap();
        let p = DrainPath::compute(&t).unwrap();
        assert_eq!(p.len(), 2);
        // The only covering cycle is l -> reverse(l) -> l, a double U-turn.
        assert_eq!(p.circuit()[1], p.circuit()[0].reverse());
    }

    #[test]
    fn disconnected_rejected() {
        let t = Topology::from_edges("dis", 4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(DrainPath::compute(&t), Err(DrainPathError::Disconnected));
    }

    #[test]
    fn single_node_rejected() {
        let t = Topology::from_edges("one", 1, &[]).unwrap();
        assert_eq!(DrainPath::compute(&t), Err(DrainPathError::NoLinks));
    }

    #[test]
    fn from_circuit_rejects_bad_paths() {
        let t = Topology::ring(4);
        let p = DrainPath::compute(&t).unwrap();
        let mut truncated = p.circuit().to_vec();
        truncated.pop();
        assert!(matches!(
            DrainPath::from_circuit(&t, truncated),
            Err(DrainPathError::Invalid(_))
        ));
        let mut dup = p.circuit().to_vec();
        let last = dup.len() - 1;
        dup[last] = dup[0];
        assert!(matches!(
            DrainPath::from_circuit(&t, dup),
            Err(DrainPathError::Invalid(_))
        ));
    }

    #[test]
    fn next_link_walks_whole_circuit() {
        let topo = FaultInjector::new(5)
            .remove_links(&Topology::mesh(5, 5), 4)
            .unwrap();
        let p = DrainPath::compute(&topo).unwrap();
        let start = p.circuit()[0];
        let mut cur = start;
        for _ in 0..p.len() {
            cur = p.next_link(cur);
        }
        assert_eq!(cur, start, "next_link must traverse the full cycle");
    }

    #[test]
    fn position_is_inverse_of_circuit() {
        let topo = Topology::mesh(3, 3);
        let p = DrainPath::compute(&topo).unwrap();
        for (i, &l) in p.circuit().iter().enumerate() {
            assert_eq!(p.position(l), i);
        }
    }

    #[test]
    fn both_algorithms_cover_fig8_topology() {
        let topo = drain_topology::chiplet::fig8_topology();
        for algo in [Algorithm::Hierholzer, Algorithm::HawickJames] {
            let p = DrainPath::compute_with(&topo, algo).unwrap();
            p.verify(&topo).unwrap();
            // The path visits every router.
            let mut visited = vec![false; topo.num_nodes()];
            for &l in p.circuit() {
                visited[topo.link(l).src.index()] = true;
            }
            assert!(visited.iter().all(|&v| v));
        }
    }

    #[test]
    fn recompute_after_fault() {
        let t0 = Topology::mesh(4, 4);
        let p0 = DrainPath::compute(&t0).unwrap();
        let l = t0.link_between(NodeId(5), NodeId(6)).unwrap();
        let t1 = t0.without_link(l).unwrap();
        // Old path no longer verifies (wrong length), new one does.
        assert!(p0.verify(&t1).is_err());
        let p1 = DrainPath::compute(&t1).unwrap();
        p1.verify(&t1).unwrap();
        assert_eq!(p1.len(), p0.len() - 2);
    }
}
