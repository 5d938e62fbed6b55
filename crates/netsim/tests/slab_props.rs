//! Property tests for packet-slab/freelist recycling.
//!
//! The struct-of-arrays kernel relies on the slab recycling retired slots
//! so that steady-state traffic allocates nothing. These tests drive the
//! slab — directly and through whole simulations — and check the
//! recycling invariants:
//!
//! * an id is never handed out twice while its first tenant is live;
//! * every slot is either live or on the freelist, exactly once
//!   (no leaks, no double-frees);
//! * the slot count plateaus at the high-water mark of concurrently live
//!   packets — epochs of traffic recycle instead of growing.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
use drain_netsim::{Location, MessageClass, Packet, PacketId, PacketSlab, Sim, SimConfig};
use drain_topology::{NodeId, Topology};

fn dummy(tag: u64) -> Packet {
    Packet {
        src: NodeId(0),
        dest: NodeId(1),
        class: MessageClass::REQUEST,
        len_flits: 1,
        birth_cycle: 0,
        inject_cycle: u64::MAX,
        loc: Location::InjectionQueue(NodeId(0)),
        hops: 0,
        misroutes: 0,
        forced_hops: 0,
        tag,
    }
}

/// Slot accounting must balance after any interleaving of inserts and
/// removes: `slot_count == len + free_count`.
fn assert_balanced(slab: &PacketSlab) {
    assert_eq!(
        slab.slot_count(),
        slab.len() + slab.free_count(),
        "slots must be exactly live + freelist"
    );
}

/// Randomized insert/remove interleavings: no id reuse while live, no
/// leaks, tenant payloads never cross slots.
#[test]
fn random_churn_never_reuses_live_ids() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x51AB_F5EE);
    let mut slab = PacketSlab::new();
    let mut live: Vec<(PacketId, u64)> = Vec::new();
    let mut next_tag = 0u64;
    for step in 0..20_000 {
        let insert = live.is_empty() || rng.gen_bool(0.55);
        if insert {
            let tag = next_tag;
            next_tag += 1;
            let id = slab.insert(dummy(tag));
            assert!(
                live.iter().all(|&(l, _)| l != id),
                "step {step}: id {id:?} handed out while still live"
            );
            live.push((id, tag));
        } else {
            let k = rng.gen_range(0..live.len());
            let (id, tag) = live.swap_remove(k);
            let p = slab.remove(id);
            assert_eq!(p.tag, tag, "step {step}: wrong tenant in slot {id:?}");
        }
        assert_eq!(slab.len(), live.len());
        assert_balanced(&slab);
        // Every live id must resolve to its own payload.
        if step % 997 == 0 {
            for &(id, tag) in &live {
                assert_eq!(slab.get(id).tag, tag);
            }
            assert_eq!(slab.iter().count(), live.len());
        }
    }
}

/// Draining the slab empty and refilling it must reuse the same slots:
/// the slot count is the high-water mark, not the cumulative population.
#[test]
fn epochs_recycle_instead_of_growing() {
    let mut slab = PacketSlab::new();
    let mut high_water = 0;
    for epoch in 0..50 {
        let population = 64 + (epoch % 7) * 16;
        let ids: Vec<PacketId> = (0..population).map(|i| slab.insert(dummy(i))).collect();
        high_water = high_water.max(population as usize);
        assert_eq!(
            slab.slot_count(),
            high_water,
            "epoch {epoch}: slab grew past the high-water mark"
        );
        for id in ids {
            slab.remove(id);
        }
        assert!(slab.is_empty());
        assert_eq!(slab.free_count(), slab.slot_count(), "epoch {epoch}: leak");
        assert_balanced(&slab);
    }
}

/// The same invariant observed through a full simulation: after warmup, a
/// saturated run's live-packet population (queues + network) fully
/// accounts for every generated packet, across many drain epochs.
#[test]
fn saturated_sim_conserves_packets_across_epochs() {
    let topo = Topology::mesh(4, 4);
    let mut sim = Sim::new(
        topo.clone(),
        SimConfig::drain_default(),
        FullyAdaptive::new(&topo),
        Box::new(drain_netsim::mechanism::NoMechanism),
        Box::new(SyntheticTraffic::new(
            SyntheticPattern::UniformRandom,
            0.30,
            11,
            4,
        )),
    );
    for _ in 0..10 {
        sim.run(500);
        let s = sim.stats();
        let core = sim.core();
        // Every generated packet is either still live in the slab
        // (injection queues, VC buffers, or parked in an ejection queue)
        // or already consumed by the endpoint model. Ejected counts both
        // parked and consumed packets, so subtract the parked backlog.
        let consumed = s.ejected as usize - core.ejection_backlog();
        assert_eq!(
            s.generated as usize,
            core.live_packets() + consumed,
            "live population must account for every generated packet"
        );
    }
}
