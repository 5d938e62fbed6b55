//! Connectivity-preserving random link-failure injection.
//!
//! The paper evaluates DRAIN on irregular topologies derived from a regular
//! mesh by removing randomly chosen bidirectional links *while ensuring
//! connectivity is maintained* (§IV). [`FaultInjector`] reproduces that
//! methodology deterministically from a seed, so every experiment's "10
//! randomly selected fault patterns" are reproducible.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{LinkId, Topology, TopologyError};

/// Deterministic, connectivity-preserving fault-pattern generator.
///
/// # Examples
///
/// ```
/// use drain_topology::{Topology, faults::FaultInjector};
///
/// let mesh = Topology::mesh(8, 8);
/// let faulty = FaultInjector::new(7).remove_links(&mesh, 12)?;
/// assert!(faulty.is_connected());
/// assert_eq!(faulty.num_bidirectional_links(), mesh.num_bidirectional_links() - 12);
/// # Ok::<(), drain_topology::TopologyError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FaultInjector {
    seed: u64,
}

impl FaultInjector {
    /// Creates an injector whose patterns are a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed }
    }

    /// The seed this injector was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Removes `count` random bidirectional links from `base`, keeping the
    /// network connected.
    ///
    /// Candidate links are shuffled deterministically; a link is removed only
    /// if the remaining graph stays connected, otherwise the next candidate
    /// is tried. Several passes are made because removing one link can make a
    /// previously skipped link removable (and vice versa).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::TooManyFaults`] if fewer than `count` links
    /// can be removed without disconnecting the network (e.g. asking a tree
    /// to lose links).
    pub fn remove_links(&self, base: &Topology, count: usize) -> Result<Topology, TopologyError> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut topo = base.clone();
        let mut removed = 0;
        // `num_nodes - 1` links must remain for a spanning tree.
        let max_removable = base
            .num_bidirectional_links()
            .saturating_sub(base.num_nodes().saturating_sub(1));
        if count > max_removable {
            return Err(TopologyError::TooManyFaults {
                requested: count,
                achievable: max_removable,
            });
        }
        // Link ids are recompacted by `without_link`, so candidates are
        // re-derived from the current topology before every removal.
        while removed < count {
            let mut candidates: Vec<u32> = (0..topo.num_bidirectional_links() as u32).collect();
            candidates.shuffle(&mut rng);
            let picked = candidates
                .into_iter()
                .map(|k| LinkId(k * 2))
                .find(|&l| topo.connected_without(l));
            match picked {
                Some(l) => {
                    topo = topo.without_link(l).expect("checked connectivity");
                    removed += 1;
                }
                None => {
                    return Err(TopologyError::TooManyFaults {
                        requested: count,
                        achievable: removed,
                    });
                }
            }
        }
        topo.set_name(format!("{}-f{}s{}", base.name(), count, self.seed));
        Ok(topo)
    }

    /// Picks one random removable bidirectional link of `topo`, or `None` if
    /// every link is a bridge.
    ///
    /// Used to model a single wear-out failure event at runtime.
    pub fn pick_removable_link(&self, topo: &Topology, salt: u64) -> Option<LinkId> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut candidates: Vec<u32> = (0..topo.num_bidirectional_links() as u32).collect();
        candidates.shuffle(&mut rng);
        candidates
            .into_iter()
            .map(|k| LinkId(k * 2))
            .find(|&l| topo.connected_without(l))
    }

    /// Generates `n` independent faulty variants of `base`, each with
    /// `faults` links removed — the paper's "10 randomly selected fault
    /// patterns" per configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`TopologyError::TooManyFaults`] from any pattern.
    pub fn patterns(
        &self,
        base: &Topology,
        faults: usize,
        n: usize,
    ) -> Result<Vec<Topology>, TopologyError> {
        (0..n)
            .map(|i| {
                FaultInjector::new(self.seed.wrapping_add(i as u64).wrapping_mul(0x100000001B3))
                    .remove_links(base, faults)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removal_preserves_connectivity() {
        let mesh = Topology::mesh(8, 8);
        for faults in [1, 4, 8, 12] {
            let t = FaultInjector::new(42).remove_links(&mesh, faults).unwrap();
            assert!(t.is_connected(), "{faults} faults disconnected the mesh");
            assert_eq!(
                t.num_bidirectional_links(),
                mesh.num_bidirectional_links() - faults
            );
            assert_eq!(t.num_nodes(), mesh.num_nodes());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mesh = Topology::mesh(6, 6);
        let a = FaultInjector::new(9).remove_links(&mesh, 6).unwrap();
        let b = FaultInjector::new(9).remove_links(&mesh, 6).unwrap();
        assert_eq!(a.edge_list(), b.edge_list());
        let c = FaultInjector::new(10).remove_links(&mesh, 6).unwrap();
        assert_ne!(a.edge_list(), c.edge_list());
    }

    #[test]
    fn too_many_faults_rejected() {
        let ring = Topology::ring(5);
        // A 5-ring has 5 links; spanning tree needs 4, so only 1 removable.
        assert!(FaultInjector::new(0).remove_links(&ring, 1).is_ok());
        assert!(matches!(
            FaultInjector::new(0).remove_links(&ring, 2),
            Err(TopologyError::TooManyFaults { .. })
        ));
    }

    #[test]
    fn patterns_are_distinct() {
        let mesh = Topology::mesh(8, 8);
        let ps = FaultInjector::new(1).patterns(&mesh, 8, 10).unwrap();
        assert_eq!(ps.len(), 10);
        let mut sets: Vec<_> = ps.iter().map(|t| t.edge_list()).collect();
        sets.dedup();
        assert!(sets.len() > 1, "fault patterns should differ");
    }

    #[test]
    fn pick_removable_on_tree_is_none() {
        let path = Topology::from_edges("p", 4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(FaultInjector::new(3).pick_removable_link(&path, 0), None);
    }

    #[test]
    fn pick_removable_on_mesh_is_some() {
        let mesh = Topology::mesh(4, 4);
        let l = FaultInjector::new(3).pick_removable_link(&mesh, 5).unwrap();
        assert!(mesh.connected_without(l));
    }
}
