//! # drain-repro — DRAIN: Deadlock Removal for Arbitrary Irregular Networks
//!
//! A from-scratch Rust reproduction of the HPCA 2020 paper *DRAIN: Deadlock
//! Removal for Arbitrary Irregular Networks* (Parasar, Farrokhbakht,
//! Enright Jerger, Gratz, Krishna, San Miguel): a **subactive**
//! deadlock-freedom scheme that neither avoids nor detects deadlocks but
//! periodically and obliviously *drains* escape-VC packets one hop along a
//! precomputed cyclic path covering every link of the network.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`topology`] | `drain-topology` | meshes/irregular/chiplet topologies, fault injection, up*/down*, dependency graphs |
//! | [`path`] | `drain-path` | the offline drain-path algorithm (Eulerian circuits, Hawick–James search, turn-tables) |
//! | [`netsim`] | `drain-netsim` | the cycle-driven VCT NoC simulator (Garnet2.0 substitute) |
//! | [`drain`] | `drain-core` | the DRAIN mechanism: epoch register, pre-drain freeze, drain windows, full drains |
//! | [`baselines`] | `drain-baselines` | SPIN (reactive) and the ideal oracle |
//! | [`coherence`] | `drain-coherence` | MESI-lite directory protocol with finite MSHRs/TBEs |
//! | [`workloads`] | `drain-workloads` | PARSEC/SPLASH-2/Ligra statistical models |
//! | [`power`] | `drain-power` | DSENT-substitute area/power model (11 nm) |
//! | [`bench`](mod@bench) | `drain-bench` | [`Scheme`](bench::Scheme): every evaluated scheme's Table II wiring; the figure harness |
//!
//! # Quickstart
//!
//! ```
//! use drain_repro::prelude::*;
//!
//! // An 8x8 mesh that has lost 8 links to wear-out.
//! let topo = FaultInjector::new(42).remove_links(&Topology::mesh(8, 8), 8)?;
//!
//! // DRAIN as the paper evaluates it (Table II): fully adaptive routing,
//! // one virtual network with two VCs, drain path computed offline.
//! let drain = Scheme::Drain(DrainVariant::Vn1Vc2);
//! let traffic = SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.05, 1, 7);
//! let mut sim = drain.build(
//!     topo,
//!     false,
//!     Box::new(traffic),
//!     SimConfig { num_classes: 1, ..drain.config() },
//!     DrainConfig { epoch: 65_536, ..DrainConfig::default() },
//! )?;
//! sim.run(10_000);
//! assert!(sim.stats().ejected > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use drain_baselines as baselines;
pub use drain_bench as bench;
pub use drain_coherence as coherence;
pub use drain_core as drain;
pub use drain_netsim as netsim;
pub use drain_path as path;
pub use drain_power as power;
pub use drain_topology as topology;
pub use drain_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use drain_baselines::{IdealMechanism, SpinMechanism};
    pub use drain_bench::scheme::{DrainVariant, Scheme};
    pub use drain_coherence::{CoherenceConfig, CoherenceEngine, SyntheticMemTrace};
    pub use drain_core::{DrainConfig, DrainMechanism};
    pub use drain_netsim::routing::{EscapeVcRouting, FullyAdaptive, UpDownAll};
    pub use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
    pub use drain_netsim::{MessageClass, RunOutcome, Sim, SimConfig};
    pub use drain_path::{Algorithm, DrainPath};
    pub use drain_topology::{faults::FaultInjector, LinkId, NodeId, Topology};
    pub use drain_workloads::{app_by_name, ligra, parsec, splash2, AppTrace};
}
