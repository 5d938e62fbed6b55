//! Evaluated schemes and their correct assembly (paper Table II).

use drain_baselines::assemble::{baseline_sim_with_config, Baseline};
use drain_coherence::{CoherenceConfig, CoherenceEngine};
use drain_core::{DrainConfig, DrainMechanism};
use drain_netsim::routing::FullyAdaptive;
use drain_netsim::traffic::{Endpoints, SyntheticPattern, SyntheticTraffic};
use drain_netsim::{Sim, SimConfig, TraceConfig};
use drain_path::DrainPath;
use drain_topology::Topology;
use drain_workloads::{AppModel, AppTrace};

/// DRAIN buffer configurations evaluated in Figs 12/13.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DrainVariant {
    /// VN-1, VC-2 (the paper's default).
    Vn1Vc2,
    /// VN-3, VC-2 (same virtual networks as the baselines).
    Vn3Vc2,
    /// VN-1, VC-6 (same total VCs as the baselines).
    Vn1Vc6,
}

impl DrainVariant {
    /// Label used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            DrainVariant::Vn1Vc2 => "DRAIN (VN-1,VC-2)",
            DrainVariant::Vn3Vc2 => "DRAIN (VN-3,VC-2)",
            DrainVariant::Vn1Vc6 => "DRAIN (VN-1,VC-6)",
        }
    }
}

/// One evaluated scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Escape-VC proactive baseline.
    EscapeVc,
    /// SPIN reactive baseline.
    Spin,
    /// DRAIN with the given buffer configuration.
    Drain(DrainVariant),
    /// Pure up*/down* (Fig 5 only).
    UpDown,
    /// Ideal deadlock-free adaptive oracle (Fig 5 only).
    Ideal,
    /// No protection (Fig 3 only).
    Unprotected,
}

impl Scheme {
    /// The three schemes of the headline comparisons (Figs 10/11/15).
    pub fn headline() -> [Scheme; 3] {
        [
            Scheme::EscapeVc,
            Scheme::Spin,
            Scheme::Drain(DrainVariant::Vn1Vc2),
        ]
    }

    /// Label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::EscapeVc => "EscapeVC",
            Scheme::Spin => "SPIN",
            Scheme::Drain(v) => v.label(),
            Scheme::UpDown => "up*/down*",
            Scheme::Ideal => "Ideal",
            Scheme::Unprotected => "Unprotected",
        }
    }

    /// The drain epoch used by experiments (paper default 64K; override
    /// via `epoch` for the Fig 14 sweep).
    pub const DEFAULT_EPOCH: u64 = 65_536;

    #[allow(clippy::too_many_arguments)]
    fn build(
        self,
        topo: &Topology,
        full_mesh: bool,
        endpoints: Box<dyn Endpoints>,
        mut config: SimConfig,
        epoch: u64,
        hops_per_drain: u32,
        seed: u64,
    ) -> Sim {
        config.seed = seed;
        match self {
            Scheme::Drain(_) => {
                let path = DrainPath::compute(topo).expect("connected topology");
                let mech = DrainMechanism::new(
                    path,
                    DrainConfig {
                        epoch,
                        hops_per_drain,
                        ..DrainConfig::default()
                    },
                );
                // One clone, shared between routing and core.
                let topo = std::sync::Arc::new(topo.clone());
                Sim::new(
                    std::sync::Arc::clone(&topo),
                    config,
                    FullyAdaptive::new(topo),
                    Box::new(mech),
                    endpoints,
                )
            }
            Scheme::EscapeVc => {
                baseline_sim_with_config(topo, Baseline::EscapeVc, full_mesh, endpoints, config)
            }
            Scheme::Spin => {
                baseline_sim_with_config(topo, Baseline::Spin, full_mesh, endpoints, config)
            }
            Scheme::UpDown => {
                baseline_sim_with_config(topo, Baseline::UpDown, full_mesh, endpoints, config)
            }
            Scheme::Ideal => {
                baseline_sim_with_config(topo, Baseline::Ideal, full_mesh, endpoints, config)
            }
            Scheme::Unprotected => baseline_sim_with_config(
                topo,
                Baseline::Unprotected,
                full_mesh,
                endpoints,
                config,
            ),
        }
    }

    /// The scheme's buffer provisioning (Table II), before the workload
    /// sets its message classes, queues and watchdog.
    fn base_config(self) -> SimConfig {
        match self {
            Scheme::Drain(DrainVariant::Vn1Vc2) => SimConfig::drain_default(),
            Scheme::Drain(DrainVariant::Vn3Vc2) => SimConfig::drain_vn3(),
            Scheme::Drain(DrainVariant::Vn1Vc6) => SimConfig::drain_vc6(),
            Scheme::EscapeVc => SimConfig::escape_vc_baseline(),
            Scheme::Spin => SimConfig::spin_baseline(),
            Scheme::UpDown | Scheme::Ideal | Scheme::Unprotected => SimConfig::default(),
        }
    }

    /// Builds a synthetic-traffic simulation (Figs 5/10/11/14).
    pub fn synthetic_sim(
        self,
        topo: &Topology,
        full_mesh: bool,
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
        epoch: u64,
    ) -> Sim {
        self.synthetic_sim_hops(topo, full_mesh, pattern, rate, seed, epoch, 1)
    }

    /// [`Scheme::synthetic_sim`] with an explicit hops-per-drain-window
    /// setting (the Fig 14 footnote-3 ablation; every other experiment
    /// uses the paper's 1 hop per window).
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic_sim_hops(
        self,
        topo: &Topology,
        full_mesh: bool,
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
        epoch: u64,
        hops_per_drain: u32,
    ) -> Sim {
        self.synthetic_sim_traced(
            topo,
            full_mesh,
            pattern,
            rate,
            seed,
            epoch,
            hops_per_drain,
            TraceConfig::default(),
        )
    }

    /// [`Scheme::synthetic_sim_hops`] with an observability configuration
    /// (event capture / telemetry sampling / flight recorder); used by the
    /// `drain-trace` inspector. A sink is installed separately via
    /// [`Sim::set_trace_sink`].
    #[allow(clippy::too_many_arguments)]
    pub fn synthetic_sim_traced(
        self,
        topo: &Topology,
        full_mesh: bool,
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
        epoch: u64,
        hops_per_drain: u32,
        trace: TraceConfig,
    ) -> Sim {
        let traffic = SyntheticTraffic::new(pattern, rate, 1, seed ^ 0x7AFF1C);
        // One message class, watchdog off: measurement harnesses decide
        // their own instrumentation.
        let config = SimConfig {
            num_classes: 1,
            watchdog_threshold: 0,
            trace,
            ..self.base_config()
        };
        self.build(
            topo,
            full_mesh,
            Box::new(traffic),
            config,
            epoch,
            hops_per_drain,
            seed,
        )
    }

    /// Builds a coherence-workload simulation (Figs 12/13/15). The
    /// watchdog threshold is set above the drain epoch so DRAIN's
    /// let-it-deadlock window is not misreported.
    pub fn coherence_sim(
        self,
        topo: &Topology,
        full_mesh: bool,
        app: &AppModel,
        quota: Option<u64>,
        seed: u64,
        epoch: u64,
    ) -> Sim {
        let config = SimConfig {
            num_classes: 3,
            inj_queue_capacity: (topo.num_nodes() + 8).max(64),
            watchdog_threshold: 4 * epoch,
            ..self.base_config()
        };
        let mut trace = AppTrace::new(app.clone(), topo.num_nodes(), seed ^ 0xA99);
        if let Some(q) = quota {
            trace = trace.with_quota(q);
        }
        let engine = CoherenceEngine::new(
            topo,
            CoherenceConfig {
                seed: seed ^ 0xC0,
                ..CoherenceConfig::default()
            },
            Box::new(trace),
        );
        self.build(topo, full_mesh, Box::new(engine), config, epoch, 1, seed)
    }
}

/// Workload family used by a figure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Open-loop synthetic pattern.
    Synthetic,
    /// Closed-loop coherence application model.
    Application,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_schemes_build_and_run() {
        let topo = Topology::mesh(4, 4);
        for s in Scheme::headline() {
            let mut sim = s.synthetic_sim(
                &topo,
                true,
                SyntheticPattern::UniformRandom,
                0.05,
                1,
                Scheme::DEFAULT_EPOCH,
            );
            sim.run(2_000);
            assert!(sim.stats().ejected > 0, "{}", s.label());
        }
    }

    #[test]
    fn coherence_schemes_build_and_run() {
        let topo = Topology::mesh(4, 4);
        let app = drain_workloads::app_by_name("blackscholes").unwrap();
        for s in [Scheme::EscapeVc, Scheme::Drain(DrainVariant::Vn1Vc2)] {
            let mut sim = s.coherence_sim(&topo, true, &app, None, 2, 8_192);
            sim.run(5_000);
            assert!(sim.stats().ejected > 0, "{}", s.label());
        }
    }

    #[test]
    fn labels_are_unique() {
        let all = [
            Scheme::EscapeVc,
            Scheme::Spin,
            Scheme::Drain(DrainVariant::Vn1Vc2),
            Scheme::Drain(DrainVariant::Vn3Vc2),
            Scheme::Drain(DrainVariant::Vn1Vc6),
            Scheme::UpDown,
            Scheme::Ideal,
            Scheme::Unprotected,
        ];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}
