//! Dimension-order (XY) routing for fault-free meshes.
//!
//! XY routing is deadlock-free by construction (its channel-dependency
//! graph is acyclic) and is the paper's escape-VC routing on the regular
//! mesh (Table II).

use std::sync::Arc;

use drain_topology::{IntoSharedTopology, LinkId, NodeId, Topology};

use super::{PortSet, PortSets, RouteCtx, TargetVc};

/// The unique XY next hop from `cur` toward `dest` on a mesh topology, or
/// `None` when `cur == dest`.
///
/// # Panics
///
/// Panics if `topo` has no mesh coordinates or the required mesh link is
/// missing (i.e. the mesh is faulty — DoR is only valid on full meshes).
pub fn dor_next_hop(topo: &Topology, cur: NodeId, dest: NodeId) -> Option<LinkId> {
    if cur == dest {
        return None;
    }
    let (cx, cy) = topo.coord(cur).expect("DoR requires mesh coordinates");
    let (dx, dy) = topo.coord(dest).expect("DoR requires mesh coordinates");
    let (w, _) = topo.mesh_dims().expect("DoR requires mesh dimensions");
    let next = if cx != dx {
        // X first.
        if dx > cx {
            NodeId(cur.0 + 1)
        } else {
            NodeId(cur.0 - 1)
        }
    } else if dy > cy {
        NodeId(cur.0 + w)
    } else {
        NodeId(cur.0 - w)
    };
    Some(
        topo.link_between(cur, next)
            .expect("DoR requires a full (fault-free) mesh"),
    )
}

/// Precomputed XY next hops for every `(cur, dest)` pair, as out-ports.
///
/// `dor_next_hop` recomputes coordinates and scans the adjacency list on
/// every call; in the simulator's hot loop the escape candidate is built
/// for each occupied VC head each cycle, so the table turns that into a
/// single load from a dense `n * n` byte array (4 KiB on an 8×8 mesh —
/// resident in L1). An entry is the port `j` of `out_links(cur)` the hop
/// takes, the form of the other next-hop tables' masks (bit `j`), or
/// `u8::MAX` for `cur == dest`.
#[derive(Clone, Debug)]
pub struct DorTable {
    num_nodes: usize,
    /// `next[cur * n + dest]` = XY next-hop port.
    next: Vec<u8>,
}

impl DorTable {
    /// The entry for `cur == dest`.
    const NONE: u8 = u8::MAX;

    /// Tabulates [`dor_next_hop`] over all pairs, in closed form: a row
    /// `cur = (cx, cy)` is, in each mesh row of destinations, the west
    /// port left of column `cx`, the east port right of it, and at `cx`
    /// itself the north port above `cy`, the south port below it and
    /// none at `cur` — four port lookups and three slice fills per mesh
    /// row, with no per-pair search.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is not a full fault-free mesh.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let (w, _) = topo.mesh_dims().expect("DoR requires mesh dimensions");
        let w = usize::from(w);
        let mut next = vec![Self::NONE; n * n];
        for (cur, row) in topo.nodes().zip(next.chunks_exact_mut(n)) {
            let (cx, cy) = topo.coord(cur).expect("DoR requires mesh coordinates");
            let (cx, cy) = (usize::from(cx), usize::from(cy));
            // The port toward node `to`, a neighbour on the mesh, where
            // the link must exist.
            let port = |to: usize| {
                let mut outs = topo.out_links(cur).iter();
                let j = outs.position(|&l| topo.link(l).dst.index() == to);
                j.expect("DoR requires a full (fault-free) mesh") as u8
            };
            let i = cur.index();
            let west = if cx > 0 { port(i - 1) } else { Self::NONE };
            let east = if cx + 1 < w { port(i + 1) } else { Self::NONE };
            let north = if cy > 0 { port(i - w) } else { Self::NONE };
            let south = if i + w < n { port(i + w) } else { Self::NONE };
            for (dy, dests) in row.chunks_exact_mut(w).enumerate() {
                dests[..cx].fill(west);
                dests[cx + 1..].fill(east);
                dests[cx] = match dy.cmp(&cy) {
                    std::cmp::Ordering::Less => north,
                    std::cmp::Ordering::Equal => Self::NONE,
                    std::cmp::Ordering::Greater => south,
                };
            }
        }
        DorTable { num_nodes: n, next }
    }

    /// The XY next hop from `cur` toward `dest` as a port mask of
    /// `out_links(cur)`: one bit, or none when `cur == dest`.
    #[inline]
    pub fn ports(&self, cur: NodeId, dest: NodeId) -> u32 {
        let port = self.next[cur.index() * self.num_nodes + dest.index()];
        1u32.checked_shl(u32::from(port)).unwrap_or(0)
    }
}

/// Pure dimension-order routing on every VC.
#[derive(Clone, Debug)]
pub struct DorAll {
    /// Names the ports of the table's masks.
    topo: Arc<Topology>,
    table: DorTable,
}

impl DorAll {
    /// Builds XY routing for a mesh topology. Accepts an owned or borrowed
    /// topology, or an `Arc` to share one without cloning.
    ///
    /// # Panics
    ///
    /// Panics if `topo` lacks mesh coordinates.
    pub fn new(topo: impl IntoSharedTopology) -> Self {
        let topo = topo.into_shared();
        assert!(
            topo.coord(NodeId(0)).is_some(),
            "DoR requires a mesh-derived topology"
        );
        DorAll {
            table: DorTable::new(&topo),
            topo,
        }
    }

    pub(super) fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The one XY port; no sample, no pressure.
    #[inline]
    pub(super) fn port_sets(&self, ctx: &RouteCtx) -> PortSets {
        let target = if ctx.in_escape {
            TargetVc::EscapeOnly
        } else {
            TargetVc::Any
        };
        let xy = PortSet {
            ports: self.table.ports(ctx.cur, ctx.dest),
            sample: ctx.sample,
            target,
        };
        [xy, PortSet::EMPTY]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_goes_x_first() {
        let t = Topology::mesh(4, 4);
        // From (0,0) to (2,1): first hop must be +x (node 1).
        let l = dor_next_hop(&t, NodeId(0), NodeId(6)).unwrap();
        assert_eq!(t.link(l).dst, NodeId(1));
        // From (2,0) to (2,3): x aligned, hop must be +y (node 6).
        let l = dor_next_hop(&t, NodeId(2), NodeId(14)).unwrap();
        assert_eq!(t.link(l).dst, NodeId(6));
    }

    #[test]
    fn xy_reaches_destination() {
        let t = Topology::mesh(5, 5);
        for s in t.nodes() {
            for d in t.nodes() {
                let mut cur = s;
                let mut hops = 0;
                while cur != d {
                    let l = dor_next_hop(&t, cur, d).unwrap();
                    cur = t.link(l).dst;
                    hops += 1;
                    assert!(hops <= 8);
                }
            }
        }
    }

    /// The closed-form table against [`dor_next_hop`] pair by pair, on
    /// meshes with a single node, a single row, a single column, an odd
    /// width and an even one.
    #[test]
    fn table_ports_are_the_xy_links() {
        for (w, h) in [(1, 1), (1, 8), (8, 1), (7, 3), (5, 4)] {
            let t = Topology::mesh(w, h);
            let table = DorTable::new(&t);
            for cur in t.nodes() {
                for dest in t.nodes() {
                    let port = t
                        .out_links(cur)
                        .iter()
                        .position(|&l| Some(l) == dor_next_hop(&t, cur, dest));
                    let mask = port.map_or(0, |j| 1 << j);
                    assert_eq!(
                        table.ports(cur, dest),
                        mask,
                        "{w}x{h}: {cur:?} -> {dest:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "DoR requires a full (fault-free) mesh")]
    fn table_refuses_a_faulty_mesh() {
        let t = drain_topology::faults::FaultInjector::new(1)
            .remove_links(&Topology::mesh(4, 4), 1)
            .unwrap();
        DorTable::new(&t);
    }

    #[test]
    fn at_destination_no_hop() {
        let t = Topology::mesh(3, 3);
        assert_eq!(dor_next_hop(&t, NodeId(4), NodeId(4)), None);
    }

    #[test]
    fn routing_trait_emits_single_candidate() {
        let t = Topology::mesh(4, 4);
        let r = crate::routing::Routing::from(DorAll::new(&t));
        let mut out = Vec::new();
        r.candidates(
            &RouteCtx {
                cur: NodeId(0),
                dest: NodeId(15),
                arrived_via: None,
                in_escape: false,
                blocked_for: 0,
                sample: 9,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }
}
