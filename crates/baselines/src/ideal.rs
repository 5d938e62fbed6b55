//! The ideal deadlock-free fully-adaptive reference (Fig 5).
//!
//! An oracle that lets packets route fully adaptively with no restrictions
//! and no extra buffers, and — should a structural deadlock ever form —
//! resolves it at zero cost by teleporting one blocked packet to its
//! destination. This is not implementable hardware; it is the upper bound
//! the paper plots up*/down* against ("ideal deadlock-free fully adaptive
//! routing").

use drain_netsim::deadlock;
use drain_netsim::mechanism::{ControlAction, Mechanism};
use drain_netsim::SimCore;

/// The oracle mechanism.
#[derive(Clone, Debug)]
pub struct IdealMechanism {
    /// Cycles between oracle sweeps.
    check_interval: u64,
}

impl IdealMechanism {
    /// Creates the oracle, sweeping every `check_interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `check_interval` is zero.
    pub fn new(check_interval: u64) -> Self {
        assert!(check_interval > 0, "check interval must be positive");
        IdealMechanism { check_interval }
    }
}

impl Default for IdealMechanism {
    fn default() -> Self {
        IdealMechanism::new(32)
    }
}

impl Mechanism for IdealMechanism {
    fn name(&self) -> &str {
        "ideal"
    }

    fn control(&mut self, core: &mut SimCore) -> ControlAction {
        if core.cycle() % self.check_interval == self.check_interval - 1 {
            let report = deadlock::detect(core);
            if let Some(&victim) = report.deadlocked.first() {
                core.oracle_deliver(victim);
            }
        }
        ControlAction::Normal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_netsim::routing::FullyAdaptive;
    use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
    use drain_netsim::{Sim, SimConfig};
    use drain_topology::Topology;

    #[test]
    fn oracle_keeps_saturated_ring_alive() {
        let topo = Topology::ring(4);
        let mut sim = Sim::new(
            topo.clone(),
            SimConfig {
                vns: 1,
                vcs_per_vn: 1,
                num_classes: 1,
                watchdog_threshold: 20_000,
                ..SimConfig::default()
            },
            FullyAdaptive::new(&topo),
            Box::new(IdealMechanism::new(16)),
            Box::new(
                SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.6, 1, 8)
                    .stop_injection_at(3_000),
            ),
        );
        let outcome = sim.run(40_000);
        assert_eq!(outcome, drain_netsim::RunOutcome::WorkloadFinished);
        assert!(!sim.stats().watchdog_deadlock);
        assert_eq!(sim.stats().injected, sim.stats().ejected);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        IdealMechanism::new(0);
    }
}
