//! Shared by the differential suites `determinism.rs`, `golden_pin.rs`
//! and `metrics.rs`, and by `wedge.rs` (each uses its own subset).

#![allow(dead_code)]

use drain_bench::scheme::DrainVariant;
use drain_bench::{Scale, Scheme};
use drain_core::DrainConfig;
use drain_netsim::traffic::{InjectionEvent, TraceTraffic};
use drain_netsim::{MessageClass, RunOutcome, Sim, SimConfig, TraceConfig};
use drain_topology::faults::FaultInjector;
use drain_topology::{NodeId, Topology};

/// [`Sim::run`] with every parked head woken before every cycle, so each
/// head is re-routed every cycle: the reference the wake differentials
/// hold the default run to. Returns what `Sim::run` would.
pub fn run_rerouting(sim: &mut Sim, cycles: u64) -> RunOutcome {
    for _ in 0..cycles {
        sim.core_mut().wake_all();
        let outcome = sim.run(1);
        if outcome != RunOutcome::BudgetExhausted {
            return outcome;
        }
    }
    RunOutcome::BudgetExhausted
}

/// The small irregular topology the differentials run on.
pub fn irregular_topo() -> Topology {
    FaultInjector::new(9)
        .remove_links(&Topology::mesh(4, 4), 2)
        .expect("mesh(4,4) tolerates two removals")
}

/// `app_jobs`' seed for Fig 12's 8 faults, pattern 1.
pub const WEDGE_CELL_SEED: u64 = (8 * 7919 + 1) ^ 0xA44;
const _: () = assert!(WEDGE_CELL_SEED == 64_829);

/// The Fig 12 cell that used to wedge (see `wedge.rs`): pagerank on
/// mesh(8,8) minus 8 links, fault pattern 1, at the quick-scale quota —
/// built exactly as `AppJob::run` builds it, so the numbers are the ones
/// behind `results/fig12.txt`. It is the one pinned workload that mixes
/// 5-flit data with 1-flit control packets.
pub fn wedge_cell_sim(scheme: Scheme, epoch: u64) -> Sim {
    let topo = FaultInjector::new(WEDGE_CELL_SEED)
        .remove_links(&Topology::mesh(8, 8), 8)
        .expect("mesh(8,8) tolerates eight removals");
    let app = drain_workloads::app_by_name("pagerank").expect("pagerank model");
    let quota = Some(Scale::Quick.app_quota());
    scheme.coherence_sim(&topo, false, &app, quota, WEDGE_CELL_SEED, epoch)
}

/// A mostly idle workload: three scripted bursts separated by thousands
/// of idle cycles, under DRAIN with a short epoch, so drain windows fire
/// on an empty network. Returns the simulation and the number of scripted
/// packets.
pub fn bursty_sim(trace: TraceConfig) -> (Sim, u64) {
    let topo = irregular_topo();
    let n = topo.num_nodes() as u16;
    let mut events = Vec::new();
    for (burst, start) in [(0u64, 0u64), (1, 5_000), (2, 15_000)] {
        for i in 0..8u16 {
            events.push(InjectionEvent {
                cycle: start + u64::from(i / 4),
                // src ≡ 3i+b, dest ≡ 5i+7+b (mod n): equal only when
                // 2i ≡ -7, impossible for even n — no self-addressed packets.
                src: NodeId((i * 3 + burst as u16) % n),
                dest: NodeId((i * 5 + 7 + burst as u16) % n),
                class: MessageClass::REQUEST,
                len_flits: 1,
            });
        }
    }
    let packets = events.len() as u64;
    let drain = Scheme::Drain(DrainVariant::Vn1Vc2);
    let config = SimConfig {
        num_classes: 1,
        seed: 5,
        trace,
        ..drain.config()
    };
    let drain_config = DrainConfig {
        epoch: 2_048,
        ..DrainConfig::default()
    };
    let sim = drain
        .build(
            topo,
            false,
            Box::new(TraceTraffic::new(events)),
            config,
            drain_config,
        )
        .expect("connected");
    (sim, packets)
}
