//! Evaluated schemes and their assembly (paper Table II).
//!
//! [`Scheme`] is the one place that maps a scheme to its buffer
//! provisioning ([`Scheme::config`]), its routing and deadlock-freedom
//! mechanism ([`Scheme::build`]), and its names.

use std::str::FromStr;

use drain_baselines::{IdealMechanism, SpinMechanism};
use drain_coherence::{CoherenceConfig, CoherenceEngine};
use drain_core::{DrainConfig, DrainMechanism};
use drain_netsim::mechanism::{Mechanism, NoMechanism};
use drain_netsim::routing::{EscapeVcRouting, FullyAdaptive, Routing, UpDownAll};
use drain_netsim::traffic::{Endpoints, SyntheticPattern, SyntheticTraffic};
use drain_netsim::{Sim, SimConfig, TraceConfig};
use drain_path::{DrainPath, DrainPathError};
use drain_topology::{IntoSharedTopology, Topology};
use drain_workloads::{AppModel, AppTrace};

/// XORed into the seed of every synthetic traffic source the harness
/// builds ([`Scheme::synthetic_sim_traced`] and the differential oracle),
/// so an oracle run replays identically through the figure harness.
pub const SYNTHETIC_TRAFFIC_SALT: u64 = 0x7AFF1C;

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

/// Every scheme and its three names: the short name (`--scheme`,
/// `--baseline`, the oracle's leg labels), the cache key (hashed into
/// every cached point's key, so renaming one orphans its cache entries)
/// and the label of the figures' tables.
const NAMES: [(Scheme, &str, &str, &str); 8] = [
    (Scheme::EscapeVc, "escape-vc", "escapevc", "EscapeVC"),
    (Scheme::Spin, "spin", "spin", "SPIN"),
    (
        Scheme::Drain(DrainVariant::Vn1Vc2),
        "drain",
        "drain-vn1vc2",
        "DRAIN (VN-1,VC-2)",
    ),
    (
        Scheme::Drain(DrainVariant::Vn3Vc2),
        "drain-vn3vc2",
        "drain-vn3vc2",
        "DRAIN (VN-3,VC-2)",
    ),
    (
        Scheme::Drain(DrainVariant::Vn1Vc6),
        "drain-vn1vc6",
        "drain-vn1vc6",
        "DRAIN (VN-1,VC-6)",
    ),
    (Scheme::UpDown, "updown", "updown", "up*/down*"),
    (Scheme::Ideal, "ideal", "ideal", "Ideal"),
    (
        Scheme::Unprotected,
        "unprotected",
        "unprotected",
        "Unprotected",
    ),
];

impl Scheme {
    /// The three schemes of the headline comparisons (Figs 10/11/15).
    pub fn headline() -> [Scheme; 3] {
        [
            Scheme::EscapeVc,
            Scheme::Spin,
            Scheme::Drain(DrainVariant::Vn1Vc2),
        ]
    }

    /// Every scheme, in table order.
    pub fn all() -> impl Iterator<Item = Scheme> {
        NAMES.iter().map(|row| row.0)
    }

    fn names(self) -> &'static (Scheme, &'static str, &'static str, &'static str) {
        NAMES
            .iter()
            .find(|row| row.0 == self)
            .expect("every scheme has a row in NAMES")
    }

    /// Short name, as the command lines spell it (see [`FromStr`]).
    pub fn name(self) -> &'static str {
        self.names().1
    }

    /// Canonical cache-key fragment (stable across label edits).
    pub fn key(self) -> &'static str {
        self.names().2
    }

    /// Label used in tables (the paper's legends).
    pub fn label(self) -> &'static str {
        self.names().3
    }

    /// The drain epoch used by experiments (paper default 64K; override
    /// via `epoch` for the Fig 14 sweep).
    pub const DEFAULT_EPOCH: u64 = 65_536;

    /// The scheme's buffer provisioning (Table II), before the workload
    /// sets its message classes, queues, watchdog and seed.
    pub fn config(self) -> SimConfig {
        match self {
            Scheme::Drain(DrainVariant::Vn1Vc2) => SimConfig::drain_default(),
            Scheme::Drain(DrainVariant::Vn3Vc2) => SimConfig {
                vns: 3,
                ..SimConfig::drain_default()
            },
            Scheme::Drain(DrainVariant::Vn1Vc6) => SimConfig {
                vcs_per_vn: 6,
                ..SimConfig::drain_default()
            },
            Scheme::EscapeVc => SimConfig::escape_vc_baseline(),
            Scheme::Spin | Scheme::UpDown | Scheme::Ideal | Scheme::Unprotected => {
                SimConfig::default()
            }
        }
    }

    /// Assembles the scheme on `topo` with Table II's routing and
    /// mechanism, around the caller's `endpoints` and `config` (start from
    /// [`Scheme::config`]; the seed is `config.seed`). `full_mesh` picks
    /// the escape-VC baseline's escape routing: DoR on an intact mesh,
    /// up*/down* otherwise (§V-B). Only the DRAIN schemes read `drain`.
    ///
    /// # Errors
    ///
    /// A DRAIN scheme on a topology with no drain path (disconnected or
    /// linkless).
    pub fn build(
        self,
        topo: impl IntoSharedTopology,
        full_mesh: bool,
        endpoints: Box<dyn Endpoints>,
        config: SimConfig,
        drain: DrainConfig,
    ) -> Result<Sim, DrainPathError> {
        // One shared topology for the drain path, the routing and the core.
        let topo = topo.into_shared();
        let (routing, mechanism): (Routing, Box<dyn Mechanism>) = match self {
            Scheme::Drain(_) => {
                let mechanism = Box::new(DrainMechanism::new(DrainPath::compute(&topo)?, drain));
                (FullyAdaptive::new(&topo).into(), mechanism)
            }
            Scheme::EscapeVc => (
                EscapeVcRouting::auto(&topo, full_mesh).into(),
                Box::new(NoMechanism),
            ),
            Scheme::Spin => (
                FullyAdaptive::new(&topo).into(),
                Box::new(SpinMechanism::with_defaults()),
            ),
            Scheme::UpDown => (UpDownAll::new(&topo).into(), Box::new(NoMechanism)),
            Scheme::Ideal => (
                FullyAdaptive::new(&topo).into(),
                Box::new(IdealMechanism::default()),
            ),
            Scheme::Unprotected => (FullyAdaptive::new(&topo).into(), Box::new(NoMechanism)),
        };
        Ok(Sim::new(topo, config, routing, mechanism, endpoints))
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
        self.synthetic_sim_traced(
            topo,
            full_mesh,
            pattern,
            rate,
            seed,
            epoch,
            1,
            TraceConfig::default(),
        )
    }

    /// [`Scheme::synthetic_sim`] with a hops-per-drain-window setting (the
    /// Fig 14 footnote-3 ablation; every other experiment drains 1 hop per
    /// window) and an observability configuration (event capture /
    /// telemetry sampling / flight recorder, used by the `drain-trace`
    /// inspector). A sink is installed separately via
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
        let traffic = SyntheticTraffic::new(pattern, rate, 1, seed ^ SYNTHETIC_TRAFFIC_SALT);
        // One message class, watchdog off: measurement harnesses decide
        // their own instrumentation.
        let config = SimConfig {
            num_classes: 1,
            watchdog_threshold: 0,
            trace,
            seed,
            ..self.config()
        };
        let drain = DrainConfig {
            epoch,
            hops_per_drain,
            ..DrainConfig::default()
        };
        self.build(topo, full_mesh, Box::new(traffic), config, drain)
            .expect("connected topology")
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
            seed,
            ..self.config()
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
        let drain = DrainConfig {
            epoch,
            ..DrainConfig::default()
        };
        self.build(topo, full_mesh, Box::new(engine), config, drain)
            .expect("connected topology")
    }
}

/// Parses a [`Scheme::name`]; the error lists every name.
impl FromStr for Scheme {
    type Err = String;

    fn from_str(name: &str) -> Result<Scheme, String> {
        NAMES
            .iter()
            .find(|row| row.1 == name)
            .map(|row| row.0)
            .ok_or_else(|| {
                let names: Vec<&str> = NAMES.iter().map(|row| row.1).collect();
                format!("one of {}", names.join(", "))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drain_topology::faults::FaultInjector;

    fn traffic(rate: f64, seed: u64) -> Box<dyn Endpoints> {
        Box::new(SyntheticTraffic::new(
            SyntheticPattern::UniformRandom,
            rate,
            1,
            seed,
        ))
    }

    /// `scheme` on `topo` with its Table II config, seeded `seed`, the
    /// default drain config and uniform traffic at `rate`.
    fn sim(scheme: Scheme, topo: &Topology, full_mesh: bool, rate: f64, seed: u64) -> Sim {
        let config = SimConfig {
            seed,
            ..scheme.config()
        };
        scheme
            .build(
                topo,
                full_mesh,
                traffic(rate, seed),
                config,
                DrainConfig::default(),
            )
            .unwrap()
    }

    /// DRAIN VN-1/VC-2 with one message class and drain epoch `epoch`.
    fn drain_sim(topo: Topology, epoch: u64, rate: f64, seed: u64) -> Result<Sim, DrainPathError> {
        let drain = Scheme::Drain(DrainVariant::Vn1Vc2);
        let config = SimConfig {
            num_classes: 1,
            seed,
            ..drain.config()
        };
        let drain_config = DrainConfig {
            epoch,
            ..DrainConfig::default()
        };
        drain.build(topo, true, traffic(rate, seed), config, drain_config)
    }

    #[test]
    fn headline_schemes_build_and_run() {
        let topo = Topology::mesh(4, 4);
        for s in Scheme::all() {
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
    fn table_ii_provisioning() {
        let vcs = |s: Scheme| {
            let c = s.config();
            (c.vns, c.vcs_per_vn, c.escape_sticky)
        };
        assert_eq!(vcs(Scheme::Drain(DrainVariant::Vn1Vc2)), (1, 2, true));
        assert_eq!(vcs(Scheme::Drain(DrainVariant::Vn3Vc2)), (3, 2, true));
        assert_eq!(vcs(Scheme::Drain(DrainVariant::Vn1Vc6)), (1, 6, true));
        assert_eq!(vcs(Scheme::EscapeVc), (3, 2, true));
        for s in [
            Scheme::Spin,
            Scheme::UpDown,
            Scheme::Ideal,
            Scheme::Unprotected,
        ] {
            assert_eq!(vcs(s), (3, 2, false), "{}", s.label());
        }
    }

    #[test]
    fn labels_are_unique() {
        for column in [Scheme::name, Scheme::key, Scheme::label] {
            let mut names: Vec<&str> = Scheme::all().map(column).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), NAMES.len());
        }
    }

    #[test]
    fn names_parse_back_and_the_pinned_strings_hold() {
        for s in Scheme::all() {
            assert_eq!(s.name().parse::<Scheme>(), Ok(s));
        }
        // Both columns are contracts: scripts and fuzz reports spell the
        // names, and the keys are hashed into every cached point.
        let names: Vec<&str> = Scheme::all().map(Scheme::name).collect();
        assert_eq!(
            names.join(" "),
            "escape-vc spin drain drain-vn3vc2 drain-vn1vc6 updown ideal unprotected"
        );
        let keys: Vec<&str> = Scheme::all().map(Scheme::key).collect();
        assert_eq!(
            keys.join(" "),
            "escapevc spin drain-vn1vc2 drain-vn3vc2 drain-vn1vc6 updown ideal unprotected"
        );
        assert_eq!(
            "bogus".parse::<Scheme>(),
            Err(format!("one of {}", names.join(", ")))
        );
    }

    #[test]
    fn builder_defaults_run() {
        let mut sim = drain_sim(Topology::mesh(4, 4), 512, 0.02, 1).unwrap();
        sim.run(2_000);
        assert!(sim.stats().ejected > 0);
        assert_eq!(sim.core().config().vns, 1);
        assert_eq!(sim.core().config().vcs_per_vn, 2);
    }

    #[test]
    fn builder_rejects_disconnected() {
        let topo = Topology::from_edges("dis", 4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            drain_sim(topo, Scheme::DEFAULT_EPOCH, 0.02, 1),
            Err(DrainPathError::Disconnected)
        ));
    }

    #[test]
    fn builder_seed_is_deterministic() {
        let run = |seed| {
            let mut sim = drain_sim(Topology::mesh(4, 4), 256, 0.1, seed).unwrap();
            sim.run(2_000);
            (sim.stats().injected, sim.stats().ejected)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn all_baselines_deliver_on_mesh() {
        let topo = Topology::mesh(4, 4);
        for b in [
            Scheme::EscapeVc,
            Scheme::Spin,
            Scheme::UpDown,
            Scheme::Ideal,
            Scheme::Unprotected,
        ] {
            let mut sim = sim(b, &topo, true, 0.05, 2);
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
        let mut sim = sim(Scheme::EscapeVc, &topo, false, 0.1, 3);
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
        let mut ud = sim(Scheme::UpDown, &topo, false, 0.02, 4);
        ud.warmup_and_measure(3_000, 10_000);
        let mut ideal = sim(Scheme::Ideal, &topo, false, 0.02, 4);
        ideal.warmup_and_measure(3_000, 10_000);
        let l_ud = ud.stats().net_latency.mean();
        let l_id = ideal.stats().net_latency.mean();
        assert!(
            l_ud > l_id,
            "up*/down* ({l_ud:.2}) should be slower than ideal ({l_id:.2})"
        );
    }
}
