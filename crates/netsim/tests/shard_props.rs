//! Property tests for the sharded kernel's building blocks.
//!
//! Hand-rolled randomized properties (same idiom as `slab_props`): a
//! seeded ChaCha stream generates topologies and inputs, assertions
//! state the invariant. Covered here:
//!
//! * the balanced partitioner assigns every router to exactly one shard,
//!   with sizes differing by at most one;
//! * cross-shard link classification agrees from both endpoints of a
//!   bidirectional pair, and with the kernel's cut-link bitmap;
//! * a sharded simulation conserves packets and produces bit-identical
//!   statistics to the serial kernel.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use drain_netsim::mechanism::NoMechanism;
use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
use drain_netsim::{ShardMap, Sim, SimConfig};
use drain_topology::chiplet::random_connected;
use drain_topology::partition::Partition;
use drain_topology::{NodeId, Topology};

/// Every router lands in exactly one shard, shard sizes are balanced to
/// within one, and empty shards appear only when `k > n` — across random
/// connected topologies and every legal shard count.
#[test]
fn partitioner_assigns_every_router_exactly_once() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5AAD_0001);
    for _ in 0..40 {
        let n = rng.gen_range(4..=40u16);
        let topo = random_connected(n, 3.0, rng.gen());
        for k in 1..=8usize {
            let part = Partition::balanced(&topo, k);
            let sizes = part.shard_sizes();
            assert_eq!(sizes.len(), k);
            assert_eq!(sizes.iter().sum::<usize>(), topo.num_nodes());
            let mut counted = vec![0usize; k];
            for node in 0..topo.num_nodes() {
                counted[part.shard_of(NodeId(node as u16)) as usize] += 1;
            }
            assert_eq!(counted, sizes, "shard_of and shard_sizes disagree");
            let lo = sizes.iter().copied().min().unwrap();
            let hi = sizes.iter().copied().max().unwrap();
            assert!(
                hi - lo.min(hi) <= 1,
                "unbalanced shards {sizes:?} for n={n} k={k}"
            );
        }
    }
}

/// A link is cross-shard iff its reverse is: classification must be
/// consistent when inspected from either endpoint.
#[test]
fn cross_link_classification_is_endpoint_symmetric() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5AAD_0002);
    for _ in 0..40 {
        let n = rng.gen_range(4..=40u16);
        let topo = random_connected(n, 3.0, rng.gen());
        let k = rng.gen_range(1..=8usize);
        let part = Partition::balanced(&topo, k);
        let map = ShardMap::new(&topo, k, 6);
        for l in topo.link_ids() {
            assert_eq!(
                part.is_cross(&topo, l),
                part.is_cross(&topo, l.reverse()),
                "asymmetric classification for {l:?}"
            );
            // The ownership tables agree with the partition's view.
            let cross = map.shard_of_node(topo.link(l).src) != map.shard_of_node(topo.link(l).dst);
            assert_eq!(part.is_cross(&topo, l), cross);
            assert_eq!(part.is_cross(&topo, l), map.is_cut(l), "cut bitmap wrong at {l:?}");
        }
        assert_eq!(map.cut_links(), part.cut_links(&topo));
    }
}

fn conservation_sim(shards: usize) -> Sim {
    let topo = Topology::mesh(4, 4);
    let config = SimConfig {
        vns: 1,
        vcs_per_vn: 2,
        num_classes: 1,
        seed: 0x5AAD_0004,
        watchdog_threshold: 0,
        shards,
        ..SimConfig::default()
    };
    Sim::new(
        topo.clone(),
        config,
        Box::new(FullyAdaptive::new(&topo)),
        Box::new(NoMechanism),
        Box::new(SyntheticTraffic::new(
            SyntheticPattern::UniformRandom,
            0.20,
            1,
            7,
        )),
    )
}

/// A sharded run conserves packets (generated = ejected + still live)
/// and its entire `Stats` matches the serial kernel's bit for bit, at
/// every shard count.
#[test]
fn sharded_sim_conserves_packets_and_matches_serial() {
    let mut serial = conservation_sim(1);
    serial.run(3_000);
    let want = format!("{:?}", serial.stats());
    for k in [2, 4, 8] {
        let mut sim = conservation_sim(k);
        sim.run(3_000);
        let s = sim.stats();
        // Conservation: every generated packet is either delivered
        // (`ejected` counts deliveries, including those still parked in
        // an ejection queue awaiting the endpoint) or still live and
        // undelivered.
        let undelivered = (sim.core().live_packets() - sim.core().ejection_backlog()) as u64;
        assert_eq!(
            s.generated,
            s.ejected + undelivered,
            "conservation violated at k={k}"
        );
        assert_eq!(
            format!("{:?}", s),
            want,
            "sharded stats diverge from serial at k={k}"
        );
        assert_eq!(sim.core().cycle(), serial.core().cycle());
    }
}
