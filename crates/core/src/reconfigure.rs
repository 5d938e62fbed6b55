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
use drain_path::DrainPath;
use drain_topology::{LinkId, Topology, TopologyError};

use crate::{DrainBuildError, DrainConfig, DrainMechanism};

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
    /// [`DrainBuildError`] if no drain path exists for `topo`.
    pub fn new(
        topo: Topology,
        sim_config: SimConfig,
        drain_config: DrainConfig,
        pattern: SyntheticPattern,
        injection_rate: f64,
        seed: u64,
    ) -> Result<Self, DrainBuildError> {
        let sim = Self::assemble(
            &topo,
            &sim_config,
            &drain_config,
            &pattern,
            injection_rate,
            seed,
            None,
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

    fn assemble(
        topo: &Topology,
        sim_config: &SimConfig,
        drain_config: &DrainConfig,
        pattern: &SyntheticPattern,
        injection_rate: f64,
        seed: u64,
        stop_injection_at: Option<u64>,
    ) -> Result<Sim, DrainBuildError> {
        let path = DrainPath::compute(topo)?;
        let mech = DrainMechanism::new(path, drain_config.clone());
        let mut traffic = SyntheticTraffic::new(pattern.clone(), injection_rate, 1, seed ^ 0xFA17);
        if let Some(c) = stop_injection_at {
            traffic = traffic.stop_injection_at(c);
        }
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

    /// A link wears out: flush traffic, drop the link, recompute the drain
    /// path + routing, resume. Returns the flush duration in cycles.
    ///
    /// # Errors
    ///
    /// [`TopologyError::WouldDisconnect`] when the failed link was a bridge
    /// (service cannot continue — the paper's connectivity assumption), or
    /// a [`DrainBuildError`] wrapped in `Ok(Err(..))` is impossible since
    /// connectivity was just verified; path errors become panics.
    pub fn fault_link(&mut self, link: LinkId) -> Result<u64, TopologyError> {
        let new_topo = self.topo.without_link(link)?;
        // Flush in-flight traffic on the old topology (in hardware the
        // packets drain in place; full drains bound the tail).
        let flushed = self.flush_in_place();
        self.record.reconfiguration_cycles += flushed;
        // Reconfigure on the degraded topology.
        self.record.total_delivered += self.sim.stats().ejected;
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        self.topo = new_topo;
        self.sim = Self::assemble(
            &self.topo,
            &self.sim_config,
            &self.drain_config,
            &self.pattern,
            self.injection_rate,
            self.seed,
            None,
        )
        .expect("degraded topology is connected, so a drain path exists");
        self.record.faults_survived += 1;
        Ok(flushed)
    }

    /// Runs the current simulation in short slices until the network is
    /// empty or a generous budget is spent. Injection keeps running in the
    /// old simulation; at fault-tolerance traffic rates delivery outpaces
    /// injection, and full drains bound the tail.
    fn flush_in_place(&mut self) -> u64 {
        let start = self.sim.core().cycle();
        let mut waited = 0u64;
        while self.sim.core().live_packets() > 0 && waited < 500_000 {
            let before = self.sim.core().live_packets();
            self.sim.run(256);
            waited += 256;
            if self.sim.core().live_packets() >= before && waited > 8_192 {
                break;
            }
        }
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

    fn network() -> FaultTolerantNetwork {
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
            0.05,
            3,
        )
        .unwrap()
    }

    #[test]
    fn survives_sequential_faults() {
        let mut net = network();
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
