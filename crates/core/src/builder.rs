//! One-stop assembly of a DRAIN-protected network simulation.

use std::fmt;

use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{Endpoints, SyntheticPattern, SyntheticTraffic};
use drain_netsim::{Sim, SimConfig};
use drain_path::{DrainPath, DrainPathError};
use drain_topology::Topology;

use crate::{DrainConfig, DrainMechanism};

/// Errors from [`DrainNetworkBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DrainBuildError {
    /// The drain path could not be computed.
    Path(DrainPathError),
}

impl fmt::Display for DrainBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainBuildError::Path(e) => write!(f, "drain path construction failed: {e}"),
        }
    }
}

impl std::error::Error for DrainBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrainBuildError::Path(e) => Some(e),
        }
    }
}

impl From<DrainPathError> for DrainBuildError {
    fn from(e: DrainPathError) -> Self {
        DrainBuildError::Path(e)
    }
}

/// Builder for a [`Sim`] protected by DRAIN: fully adaptive routing, the
/// paper's default VN-1/VC-2 configuration, and an offline-computed drain
/// path.
///
/// # Examples
///
/// ```
/// use drain_topology::{Topology, faults::FaultInjector};
/// use drain_core::builder::DrainNetworkBuilder;
///
/// let topo = FaultInjector::new(3).remove_links(&Topology::mesh(8, 8), 8).unwrap();
/// let sim = DrainNetworkBuilder::new(topo)
///     .epoch(4096)
///     .injection_rate(0.02)
///     .build()?;
/// assert_eq!(sim.mechanism_name(), "drain");
/// # Ok::<(), drain_core::DrainBuildError>(())
/// ```
pub struct DrainNetworkBuilder {
    topo: Topology,
    sim_config: SimConfig,
    drain_config: DrainConfig,
    endpoints: Option<Box<dyn Endpoints>>,
    injection_rate: f64,
    pattern: SyntheticPattern,
    seed: u64,
}

impl fmt::Debug for DrainNetworkBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DrainNetworkBuilder")
            .field("topology", &self.topo.name())
            .field("sim_config", &self.sim_config)
            .field("drain_config", &self.drain_config)
            .field(
                "endpoints",
                &self.endpoints.as_ref().map(|e| e.name().to_string()),
            )
            .field("injection_rate", &self.injection_rate)
            .field("seed", &self.seed)
            .finish()
    }
}

impl DrainNetworkBuilder {
    /// Starts a builder for `topo` with the paper's defaults (VN-1, VC-2,
    /// 64K epoch, uniform-random traffic at 2%).
    pub fn new(topo: Topology) -> Self {
        DrainNetworkBuilder {
            topo,
            sim_config: SimConfig {
                num_classes: 1,
                ..SimConfig::drain_default()
            },
            drain_config: DrainConfig::default(),
            endpoints: None,
            injection_rate: 0.02,
            pattern: SyntheticPattern::UniformRandom,
            seed: 1,
        }
    }

    /// Overrides the full simulator configuration.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim_config = cfg;
        self
    }

    /// Overrides the full DRAIN configuration.
    pub fn drain_config(mut self, cfg: DrainConfig) -> Self {
        self.drain_config = cfg;
        self
    }

    /// Sets the drain epoch (cycles between drain windows).
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.drain_config.epoch = epoch;
        self
    }

    /// Uses a custom endpoint model instead of synthetic traffic.
    pub fn endpoints(mut self, endpoints: Box<dyn Endpoints>) -> Self {
        self.endpoints = Some(endpoints);
        self
    }

    /// Synthetic traffic injection rate (ignored when custom endpoints are
    /// set).
    pub fn injection_rate(mut self, rate: f64) -> Self {
        self.injection_rate = rate;
        self
    }

    /// Synthetic traffic pattern (ignored when custom endpoints are set).
    pub fn pattern(mut self, pattern: SyntheticPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Seed for traffic and allocation randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Computes the drain path and assembles the simulation.
    ///
    /// # Errors
    ///
    /// [`DrainBuildError::Path`] if the topology admits no drain path
    /// (disconnected or linkless).
    pub fn build(self) -> Result<Sim, DrainBuildError> {
        // One shared topology: the drain path reads it, the routing holds
        // a reference, and the core takes the same allocation.
        let topo = std::sync::Arc::new(self.topo);
        let path = DrainPath::compute(&topo)?;
        let mech = DrainMechanism::new(path, self.drain_config);
        let routing = FullyAdaptive::new(&topo);
        let mut sim_config = self.sim_config;
        sim_config.seed = self.seed;
        let endpoints = self.endpoints.unwrap_or_else(|| {
            Box::new(SyntheticTraffic::new(
                self.pattern,
                self.injection_rate,
                1,
                self.seed ^ 0x5EED,
            ))
        });
        Ok(Sim::new(
            topo,
            sim_config,
            routing,
            Box::new(mech),
            endpoints,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_run() {
        let mut sim = DrainNetworkBuilder::new(Topology::mesh(4, 4))
            .epoch(512)
            .build()
            .unwrap();
        sim.run(2_000);
        assert!(sim.stats().ejected > 0);
        assert_eq!(sim.core().config().vns, 1);
        assert_eq!(sim.core().config().vcs_per_vn, 2);
    }

    #[test]
    fn builder_rejects_disconnected() {
        let topo = Topology::from_edges("dis", 4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            DrainNetworkBuilder::new(topo).build(),
            Err(DrainBuildError::Path(DrainPathError::Disconnected))
        ));
    }

    #[test]
    fn builder_seed_is_deterministic() {
        let run = |seed| {
            let mut sim = DrainNetworkBuilder::new(Topology::mesh(4, 4))
                .epoch(256)
                .seed(seed)
                .injection_rate(0.1)
                .build()
                .unwrap();
            sim.run(2_000);
            (sim.stats().injected, sim.stats().ejected)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
