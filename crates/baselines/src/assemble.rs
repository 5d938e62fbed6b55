//! Correctly wired baseline simulations.
//!
//! Each baseline is a (configuration, routing, mechanism) triple; getting
//! the combination right matters (e.g. escape VCs are useless without a
//! sticky escape and restricted escape routing). These helpers encode the
//! paper's Table II setups.

use drain_netsim::mechanism::NoMechanism;
use drain_netsim::routing::{EscapeVcRouting, FullyAdaptive, Routing, UpDownAll};
use drain_netsim::traffic::Endpoints;
use drain_netsim::{Sim, SimConfig};
use drain_topology::IntoSharedTopology;

use crate::ideal::IdealMechanism;
use crate::spin::SpinMechanism;

/// Baseline selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Baseline {
    /// Escape VCs: 3 VNs × 2 VCs, sticky escape with DoR (full mesh) or
    /// up*/down* (irregular) escape routing, adaptive elsewhere.
    EscapeVc,
    /// SPIN: 3 VNs × 2 VCs, fully adaptive, probes + spins.
    Spin,
    /// Pure up*/down* on all VCs (Fig 5's restricted baseline).
    UpDown,
    /// Ideal deadlock-free fully adaptive (Fig 5's oracle reference).
    Ideal,
    /// Fully adaptive with no protection at all (Fig 3's deadlock-prone
    /// network).
    Unprotected,
}

impl Baseline {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::EscapeVc => "escape-vc",
            Baseline::Spin => "spin",
            Baseline::UpDown => "updown",
            Baseline::Ideal => "ideal",
            Baseline::Unprotected => "none",
        }
    }

    /// The scheme's default simulator configuration (Table II).
    pub fn default_config(self) -> SimConfig {
        match self {
            Baseline::EscapeVc => SimConfig::escape_vc_baseline(),
            Baseline::Spin => SimConfig::spin_baseline(),
            Baseline::UpDown | Baseline::Ideal | Baseline::Unprotected => SimConfig::default(),
        }
    }
}

/// Builds a baseline simulation on `topo`.
///
/// `full_mesh` selects the escape-VC escape routing (DoR on an intact mesh,
/// up*/down* otherwise, per the paper's §V-B setup). `seed` drives all
/// stochastic choices.
pub fn baseline_sim(
    topo: impl IntoSharedTopology,
    baseline: Baseline,
    full_mesh: bool,
    endpoints: Box<dyn Endpoints>,
    seed: u64,
) -> Sim {
    let mut config = baseline.default_config();
    config.seed = seed;
    baseline_sim_with_config(topo, baseline, full_mesh, endpoints, config)
}

/// Builds a baseline simulation with an explicit configuration (used by the
/// sensitivity studies that vary VC counts).
pub fn baseline_sim_with_config(
    topo: impl IntoSharedTopology,
    baseline: Baseline,
    full_mesh: bool,
    endpoints: Box<dyn Endpoints>,
    config: SimConfig,
) -> Sim {
    // One shared topology for the routing function and the core.
    let topo = topo.into_shared();
    let routing: Routing = match baseline {
        Baseline::EscapeVc => EscapeVcRouting::auto(&topo, full_mesh).into(),
        Baseline::UpDown => UpDownAll::new(&topo).into(),
        Baseline::Spin | Baseline::Ideal | Baseline::Unprotected => {
            FullyAdaptive::new(&topo).into()
        }
    };
    let mechanism: Box<dyn drain_netsim::mechanism::Mechanism> = match baseline {
        Baseline::Spin => Box::new(SpinMechanism::with_defaults()),
        Baseline::Ideal => Box::new(IdealMechanism::default()),
        Baseline::EscapeVc | Baseline::UpDown | Baseline::Unprotected => Box::new(NoMechanism),
    };
    Sim::new(topo, config, routing, mechanism, endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
    use drain_topology::faults::FaultInjector;
    use drain_topology::Topology;

    fn traffic(rate: f64, seed: u64) -> Box<dyn Endpoints> {
        Box::new(SyntheticTraffic::new(
            SyntheticPattern::UniformRandom,
            rate,
            1,
            seed,
        ))
    }

    #[test]
    fn all_baselines_deliver_on_mesh() {
        let topo = Topology::mesh(4, 4);
        for b in [
            Baseline::EscapeVc,
            Baseline::Spin,
            Baseline::UpDown,
            Baseline::Ideal,
            Baseline::Unprotected,
        ] {
            let mut sim = baseline_sim(&topo, b, true, traffic(0.05, 2), 2);
            sim.run(3_000);
            assert!(
                sim.stats().ejected > 100,
                "{} delivered {}",
                b.name(),
                sim.stats().ejected
            );
        }
    }

    #[test]
    fn escape_vc_deadlock_free_on_faulty_mesh() {
        // Moderate load, faulty topology, long run: the escape-VC baseline
        // must never trip the watchdog.
        let topo = FaultInjector::new(9)
            .remove_links(&Topology::mesh(6, 6), 8)
            .unwrap();
        let mut sim = baseline_sim(&topo, Baseline::EscapeVc, false, traffic(0.1, 3), 3);
        sim.run(30_000);
        assert!(!sim.stats().deadlocked());
        assert!(sim.stats().ejected > 1_000);
    }

    #[test]
    fn updown_latency_worse_than_ideal() {
        // Fig 5's qualitative shape at low load: up*/down* pays extra hops.
        let topo = FaultInjector::new(5)
            .remove_links(&Topology::mesh(8, 8), 8)
            .unwrap();
        let mut ud = baseline_sim(&topo, Baseline::UpDown, false, traffic(0.02, 4), 4);
        ud.warmup_and_measure(3_000, 10_000);
        let mut ideal = baseline_sim(&topo, Baseline::Ideal, false, traffic(0.02, 4), 4);
        ideal.warmup_and_measure(3_000, 10_000);
        let l_ud = ud.stats().net_latency.mean();
        let l_id = ideal.stats().net_latency.mean();
        assert!(
            l_ud > l_id,
            "up*/down* ({l_ud:.2}) should be slower than ideal ({l_id:.2})"
        );
    }
}
