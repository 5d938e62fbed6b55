//! Fault-event reconfiguration (paper §II-D, §III-B).
//!
//! When a link wears out, the paper reruns the offline drain-path algorithm
//! and reloads the turn-tables ("turn-tables can be configured at boot
//! time, which will permit a new drain path to be computed ... in the event
//! of a link fault"). [`FaultTolerantNetwork`] models that flow on top of
//! the simulator: on a fault event the network stops accepting traffic,
//! flushes in-flight packets, the topology loses the link, the drain path
//! and routing tables are recomputed, and service resumes on the degraded
//! network.

use std::sync::Arc;

use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
use drain_netsim::{RunOutcome, Sim, SimConfig};
use drain_path::{DrainPath, DrainPathError};
use drain_topology::{LinkId, Topology, TopologyError};

use crate::{DrainConfig, DrainMechanism};

/// Cycles a flush may run before [`FaultTolerantNetwork::fault_link`]
/// retires the simulation with whatever it still holds (the caller sees
/// that in the retired simulation's `live_packets()`).
const FLUSH_BUDGET: u64 = 500_000;

/// Cumulative service record across fault events.
#[derive(Clone, Debug, Default)]
pub struct ServiceRecord {
    /// Fault events survived.
    pub faults_survived: usize,
    /// Total packets delivered across all epochs of service.
    pub total_delivered: u64,
    /// Total cycles of service.
    pub total_cycles: u64,
    /// Cycles spent flushing + reconfiguring at fault events.
    pub reconfiguration_cycles: u64,
}

/// A DRAIN network that survives link wear-out by recomputing its drain
/// path.
pub struct FaultTolerantNetwork {
    topo: Topology,
    sim: Sim,
    sim_config: SimConfig,
    drain_config: DrainConfig,
    pattern: SyntheticPattern,
    injection_rate: f64,
    seed: u64,
    record: ServiceRecord,
}

impl FaultTolerantNetwork {
    /// Brings up the network on `topo` with synthetic traffic.
    ///
    /// # Errors
    ///
    /// [`DrainPathError`] if no drain path exists for `topo`.
    pub fn new(
        topo: Topology,
        sim_config: SimConfig,
        drain_config: DrainConfig,
        pattern: SyntheticPattern,
        injection_rate: f64,
        seed: u64,
    ) -> Result<Self, DrainPathError> {
        let sim = Self::assemble(
            &topo,
            &sim_config,
            &drain_config,
            &pattern,
            injection_rate,
            seed,
        )?;
        Ok(FaultTolerantNetwork {
            topo,
            sim,
            sim_config,
            drain_config,
            pattern,
            injection_rate,
            seed,
            record: ServiceRecord::default(),
        })
    }

    /// One service epoch's simulation. Wired here rather than through
    /// `drain_bench::Scheme`, which sits in a crate above this one.
    fn assemble(
        topo: &Topology,
        sim_config: &SimConfig,
        drain_config: &DrainConfig,
        pattern: &SyntheticPattern,
        injection_rate: f64,
        seed: u64,
    ) -> Result<Sim, DrainPathError> {
        let path = DrainPath::compute(topo)?;
        let mech = DrainMechanism::new(path, drain_config.clone());
        let traffic = SyntheticTraffic::new(pattern.clone(), injection_rate, 1, seed ^ 0xFA17);
        // One clone of the (per-epoch) topology, shared between routing
        // and core.
        let topo = std::sync::Arc::new(topo.clone());
        Ok(Sim::new(
            Arc::clone(&topo),
            sim_config.clone(),
            FullyAdaptive::new(topo),
            Box::new(mech),
            Box::new(traffic),
        ))
    }

    /// Current topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The underlying simulation for the current service epoch.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Service record so far.
    pub fn record(&self) -> &ServiceRecord {
        &self.record
    }

    /// Runs normal service for `cycles`.
    pub fn serve(&mut self, cycles: u64) {
        self.sim.run(cycles);
        self.record.total_cycles += cycles;
    }

    /// A link wears out: the network stops accepting traffic and flushes
    /// the packets it holds, the link is dropped, the drain path and
    /// routing are recomputed on the degraded topology, and service
    /// resumes there. Returns the retired simulation, whose
    /// `live_packets()` is 0 unless its flush ran out of budget.
    ///
    /// # Errors
    ///
    /// [`TopologyError::WouldDisconnect`] when the failed link is a bridge:
    /// service cannot continue (the paper's connectivity assumption), and
    /// the network is left as it was. Any other degraded topology is
    /// connected, so its drain path exists.
    pub fn fault_link(&mut self, link: LinkId) -> Result<Sim, TopologyError> {
        let new_topo = self.topo.without_link(link)?;
        self.record.reconfiguration_cycles += self.flush_in_place();
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        let next = Self::assemble(
            &new_topo,
            &self.sim_config,
            &self.drain_config,
            &self.pattern,
            self.injection_rate,
            self.seed,
        )
        .expect("degraded topology is connected, so a drain path exists");
        self.topo = new_topo;
        let retired = std::mem::replace(&mut self.sim, next);
        self.record.total_delivered += retired.stats().ejected;
        self.record.faults_survived += 1;
        Ok(retired)
    }

    /// Stops injection and runs the current simulation until it holds no
    /// packet, or for [`FLUSH_BUDGET`] cycles (in hardware the packets
    /// drain in place; full drains bound the tail). Returns the cycles it
    /// took.
    fn flush_in_place(&mut self) -> u64 {
        let start = self.sim.core().cycle();
        let traffic = self
            .sim
            .endpoints_as_mut::<SyntheticTraffic>()
            .expect("service traffic is synthetic");
        *traffic = traffic.clone().stop_injection_at(start);
        self.sim.run(FLUSH_BUDGET);
        self.sim.core().cycle() - start
    }

    /// Total packets delivered including the current service epoch.
    pub fn delivered(&self) -> u64 {
        self.record.total_delivered + self.sim.stats().ejected
    }

    /// Convenience: run a full wear-out scenario — serve, fail a random
    /// removable link, repeat `faults` times. Returns the outcome of the
    /// final service period.
    pub fn wear_out_scenario(
        &mut self,
        serve_cycles: u64,
        faults: usize,
        fault_seed: u64,
    ) -> RunOutcome {
        use drain_topology::faults::FaultInjector;
        for i in 0..faults {
            self.serve(serve_cycles);
            if let Some(link) =
                FaultInjector::new(fault_seed).pick_removable_link(&self.topo, i as u64)
            {
                self.fault_link(link).expect("picked a removable link");
            }
        }
        self.serve(serve_cycles);
        RunOutcome::BudgetExhausted
    }
}

impl std::fmt::Debug for FaultTolerantNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultTolerantNetwork")
            .field("topology", &self.topo.name())
            .field("record", &self.record)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_netsim::CheckConfig;
    use drain_topology::faults::FaultInjector;

    fn network(injection_rate: f64) -> FaultTolerantNetwork {
        FaultTolerantNetwork::new(
            Topology::mesh(4, 4),
            SimConfig {
                num_classes: 1,
                ..SimConfig::drain_default()
            },
            DrainConfig {
                epoch: 512,
                full_drain_period: 8,
                ..DrainConfig::default()
            },
            SyntheticPattern::UniformRandom,
            injection_rate,
            3,
        )
        .unwrap()
    }

    #[test]
    fn survives_sequential_faults() {
        let mut net = network(0.05);
        net.wear_out_scenario(2_000, 3, 42);
        assert_eq!(net.record().faults_survived, 3);
        assert!(net.delivered() > 0);
        assert!(net.topology().is_connected());
        assert_eq!(
            net.topology().num_bidirectional_links(),
            Topology::mesh(4, 4).num_bidirectional_links() - 3
        );
    }

    #[test]
    fn faults_under_load_lose_no_packet() {
        // Every service epoch runs under the full invariant checks, and
        // each fault arrives with packets in flight: the retired
        // simulation must have delivered every packet it created.
        let mut net = network(0.15);
        net.sim.set_checks(CheckConfig::full());
        for i in 0..3 {
            net.serve(2_000);
            let link = FaultInjector::new(42)
                .pick_removable_link(net.topology(), i)
                .unwrap();
            let retired = net.fault_link(link).unwrap();
            net.sim.set_checks(CheckConfig::full());
            let s = retired.stats();
            assert!(retired.violation().is_none(), "fault {i}");
            assert_eq!(retired.core().live_packets(), 0, "fault {i}");
            assert!(s.generated > 0, "fault {i}");
            assert_eq!(s.generated, s.ejected, "fault {i}");
        }
        assert_eq!(net.record().faults_survived, 3);
    }

    #[test]
    fn bridge_fault_rejected() {
        // Shrink to a tree-ish topology where some link is a bridge.
        let topo = Topology::from_edges("t", 4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]).unwrap();
        let mut net = FaultTolerantNetwork::new(
            topo.clone(),
            SimConfig {
                num_classes: 1,
                ..SimConfig::drain_default()
            },
            DrainConfig {
                epoch: 256,
                ..DrainConfig::default()
            },
            SyntheticPattern::UniformRandom,
            0.02,
            1,
        )
        .unwrap();
        // Fail links until one becomes a bridge.
        let mut rejected = false;
        for _ in 0..5 {
            let l = LinkId(0);
            match net.fault_link(l) {
                Ok(_) => {}
                Err(TopologyError::WouldDisconnect { .. }) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected, "a bridge failure must be rejected");
    }
}
