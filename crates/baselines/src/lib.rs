//! The deadlock-freedom baselines the paper compares DRAIN against.
//!
//! * [`spin::SpinMechanism`] — a reimplementation of SPIN (paper ref \[5\]): per-VC
//!   timeout counters suspect a deadlock, a probe walks the chain of
//!   blocked packets, and a confirmed cycle performs a coordinated
//!   one-hop *spin*. Reactive; needs per-class virtual networks for
//!   protocol-level deadlock freedom.
//! * Escape VCs — proactive; implemented entirely by
//!   [`drain_netsim::routing::EscapeVcRouting`] plus a sticky escape VC, so
//!   its "mechanism" is [`drain_netsim::mechanism::NoMechanism`].
//! * [`ideal::IdealMechanism`] — the zero-cost deadlock-free oracle used as
//!   the "ideal fully adaptive" reference in Fig 5: structural deadlocks
//!   are resolved by teleporting a blocked packet to its destination.
//!
//! Which routing, mechanism and buffer provisioning each scheme runs with
//! (paper Table II) is decided in one place, `drain_bench::Scheme`.
//!
//! # Examples
//!
//! ```
//! use drain_baselines::SpinMechanism;
//! use drain_netsim::routing::FullyAdaptive;
//! use drain_netsim::traffic::{SyntheticPattern, SyntheticTraffic};
//! use drain_netsim::{Sim, SimConfig};
//! use drain_topology::Topology;
//!
//! // SPIN: 3 VNs x 2 VCs, fully adaptive routing, probes and spins.
//! let topo = Topology::mesh(4, 4);
//! let mut sim = Sim::new(
//!     &topo,
//!     SimConfig::default(),
//!     FullyAdaptive::new(&topo),
//!     Box::new(SpinMechanism::with_defaults()),
//!     Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.05, 1, 3)),
//! );
//! sim.run(2_000);
//! assert!(sim.stats().ejected > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ideal;
pub mod spin;

pub use ideal::IdealMechanism;
pub use spin::{SpinConfig, SpinMechanism};
