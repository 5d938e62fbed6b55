//! Message-level protocol FSM tests: scripted transactions on a tiny
//! system, checking the stable states the MESI tables prescribe.

use crate::{
    CoherenceConfig, CoherenceEngine, DirState, LineState, ScriptedTrace,
};
use drain_netsim::mechanism::NoMechanism;
use drain_netsim::routing::EscapeVcRouting;
use drain_netsim::{Sim, SimConfig};
use drain_topology::{NodeId, Topology};

/// 2x2 mesh, deadlock-free escape-VC network, scripted ops.
fn scripted_sim(script: ScriptedTrace) -> Sim {
    let topo = Topology::mesh(2, 2);
    let engine = CoherenceEngine::new(&topo, CoherenceConfig::default(), Box::new(script));
    Sim::new(
        topo.clone(),
        SimConfig {
            inj_queue_capacity: 64,
            escape_sticky: true,
            watchdog_threshold: 10_000,
            ..SimConfig::escape_vc_baseline()
        },
        EscapeVcRouting::with_dor(&topo),
        Box::new(NoMechanism),
        Box::new(engine),
    )
}

fn engine(sim: &Sim) -> &CoherenceEngine {
    sim.endpoints_as::<CoherenceEngine>()
        .expect("endpoint is the coherence engine")
}

// Address 1 is homed at node 1; cores 0/2/3 are remote requesters.
const A: u32 = 1;

#[test]
fn load_miss_grants_exclusive_from_idle() {
    let mut sim = scripted_sim(ScriptedTrace::new(4).op(0, 0, A, false));
    sim.run(200);
    let e = engine(&sim);
    assert_eq!(e.line_state(NodeId(0), A), Some(LineState::E), "DataE grant");
    assert_eq!(e.dir_state(A), DirState::EM(NodeId(0)));
    assert_eq!(e.outstanding(NodeId(0)), 0, "MSHR retired");
    assert_eq!(e.stats().completed, 1);
}

#[test]
fn store_miss_grants_modified() {
    let mut sim = scripted_sim(ScriptedTrace::new(4).op(2, 0, A, true));
    sim.run(200);
    let e = engine(&sim);
    assert_eq!(e.line_state(NodeId(2), A), Some(LineState::M));
    assert_eq!(e.dir_state(A), DirState::EM(NodeId(2)));
}

#[test]
fn read_after_remote_write_downgrades_owner() {
    // Core 2 writes, then core 3 reads: FwdGetS path; owner ends S, reader
    // ends S, directory ends S.
    let mut sim = scripted_sim(
        ScriptedTrace::new(4)
            .op(2, 0, A, true)
            .op(3, 300, A, false),
    );
    sim.run(1_000);
    let e = engine(&sim);
    assert_eq!(e.line_state(NodeId(2), A), Some(LineState::S), "owner downgraded");
    assert_eq!(e.line_state(NodeId(3), A), Some(LineState::S), "reader shares");
    assert_eq!(e.dir_state(A), DirState::S);
    assert_eq!(e.stats().completed, 2);
}

#[test]
fn write_after_sharers_invalidates_them() {
    // Cores 0 and 3 read (sharers), then core 2 writes: Inv + InvAck path.
    let mut sim = scripted_sim(
        ScriptedTrace::new(4)
            .op(0, 0, A, false)
            .op(3, 300, A, false)
            .op(2, 600, A, true),
    );
    sim.run(2_000);
    let e = engine(&sim);
    assert_eq!(e.line_state(NodeId(2), A), Some(LineState::M), "writer owns");
    assert_eq!(e.line_state(NodeId(0), A), None, "sharer invalidated");
    assert_eq!(e.line_state(NodeId(3), A), None, "sharer invalidated");
    assert_eq!(e.dir_state(A), DirState::EM(NodeId(2)));
    e.check_single_writer();
    assert_eq!(e.stats().completed, 3);
}

#[test]
fn write_after_remote_write_transfers_ownership() {
    // Core 0 writes, core 3 writes: FwdGetM path.
    let mut sim = scripted_sim(
        ScriptedTrace::new(4)
            .op(0, 0, A, true)
            .op(3, 300, A, true),
    );
    sim.run(1_000);
    let e = engine(&sim);
    assert_eq!(e.line_state(NodeId(3), A), Some(LineState::M));
    assert_eq!(e.line_state(NodeId(0), A), None, "old owner invalidated");
    assert_eq!(e.dir_state(A), DirState::EM(NodeId(3)));
    e.check_single_writer();
}

#[test]
fn silent_store_upgrade_on_exclusive() {
    // Load then store by the same core: E -> M silently, one transaction.
    let mut sim = scripted_sim(
        ScriptedTrace::new(4)
            .op(0, 0, A, false)
            .op(0, 300, A, true),
    );
    sim.run(1_000);
    let e = engine(&sim);
    assert_eq!(e.line_state(NodeId(0), A), Some(LineState::M));
    assert_eq!(e.stats().completed, 1, "the store was a silent hit");
    assert_eq!(e.stats().hits, 1);
}

#[test]
fn store_upgrade_from_shared_needs_getm() {
    // Two readers, then one of them writes: upgrade GetM with one Inv.
    let mut sim = scripted_sim(
        ScriptedTrace::new(4)
            .op(0, 0, A, false)
            .op(3, 300, A, false)
            .op(0, 600, A, true),
    );
    sim.run(2_000);
    let e = engine(&sim);
    assert_eq!(e.line_state(NodeId(0), A), Some(LineState::M));
    assert_eq!(e.line_state(NodeId(3), A), None);
    assert_eq!(e.dir_state(A), DirState::EM(NodeId(0)));
    assert_eq!(e.stats().completed, 3);
}

#[test]
fn many_addresses_home_distribution() {
    // Touch several addresses; each ends owned at its requester with the
    // directory of its own home tracking it.
    let mut script = ScriptedTrace::new(4);
    for a in 0..8u32 {
        script = script.op((a % 4) as u16, (a as u64) * 150, 100 + a, true);
    }
    let mut sim = scripted_sim(script);
    sim.run(4_000);
    let e = engine(&sim);
    for a in 0..8u32 {
        let owner = NodeId((a % 4) as u16);
        assert_eq!(e.line_state(owner, 100 + a), Some(LineState::M));
        assert_eq!(e.dir_state(100 + a), DirState::EM(owner));
    }
    e.check_single_writer();
}
