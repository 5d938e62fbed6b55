//! Cycle-driven network-on-chip simulator for the DRAIN reproduction.
//!
//! This crate is the from-scratch substitute for gem5/Garnet2.0 used by the
//! paper: virtual-cut-through routers with a 1-cycle pipeline, virtual
//! networks and virtual channels holding a single packet each, credit-based
//! flow control, per-class injection/ejection queues, pluggable routing
//! functions and pluggable deadlock-freedom mechanisms.
//!
//! Structure (with the paper sections each module reproduces):
//!
//! * [`SimConfig`] — the Table II parameters (§V-A methodology).
//! * [`state::SimCore`] — buffers, queues, timers, allocation engine.
//! * [`Sim`] — the per-cycle driver (endpoints → mechanism → allocation).
//!   `Sim` is `Send`; the bench crate's parallel sweep engine runs whole
//!   simulations on worker threads.
//! * [`routing`] — DoR, up*/down* (§II baselines, Fig 5), fully-adaptive,
//!   escape-VC composite.
//! * [`traffic`] — synthetic patterns and trace replay ([`traffic::Endpoints`]
//!   is also implemented by the MESI engine in `drain-coherence`).
//! * [`mechanism`] — the deadlock-freedom hook DRAIN (§III-C drain
//!   windows) and SPIN plug into.
//! * [`deadlock`] — the structural wait-for-graph oracle backing the §II-A
//!   deadlock-likelihood study (Fig 3) and the §V evaluation's
//!   deadlock-detection instrumentation.
//! * [`stats`] — latency histograms (mean/p99), throughput windows, event
//!   counters (the §V metrics: Figs 10–15).
//! * [`check`] — opt-in runtime invariant checks (conservation, VC
//!   occupancy, reachability, forward progress, forced-move validity) and
//!   the delivery-fingerprint recorder behind the differential oracle in
//!   the bench crate.
//! * [`trace`] — opt-in structured event bus (typed events, bounded ring
//!   buffer, JSONL/memory sinks) and the flight recorder that dumps the
//!   last events + a VC snapshot when a run dies. Distinct from
//!   [`traffic::TraceTraffic`], which *replays* workload traces.
//! * [`json`] — the workspace's one JSON reader and writer (cache entries,
//!   reports, metrics lines, trace events), with an exact `u64` path.
//! * [`telemetry`] — opt-in periodic sampler: per-router VC occupancy,
//!   queue depths, credit stalls and per-link utilization time series.
//! * [`metrics`] — the unified metrics registry (counters / gauges /
//!   histograms under one stable `drain_` namespace, written as one
//!   JSONL line) and the sampled kernel phase profiler. Pure
//!   observers: enabling them cannot perturb results.
//! * [`rng`] — the determinism contract for stochastic tie-breaks: every
//!   draw is a pure function of `(seed, cycle, site, id)`.
//!
//! # Examples
//!
//! Simulate uniform-random traffic on a faulty 8×8 mesh with fully adaptive
//! routing and no deadlock protection (the Fig 3 setup):
//!
//! ```
//! use drain_topology::{Topology, faults::FaultInjector};
//! use drain_netsim::{Sim, SimConfig};
//! use drain_netsim::routing::FullyAdaptive;
//! use drain_netsim::mechanism::NoMechanism;
//! use drain_netsim::traffic::{SyntheticTraffic, SyntheticPattern};
//!
//! let topo = FaultInjector::new(1).remove_links(&Topology::mesh(8, 8), 8)?;
//! let mut sim = Sim::new(
//!     topo.clone(),
//!     SimConfig { vns: 1, vcs_per_vn: 2, num_classes: 1,
//!                 deadlock_check_interval: 256, ..SimConfig::default() },
//!     FullyAdaptive::new(&topo),
//!     Box::new(NoMechanism),
//!     Box::new(SyntheticTraffic::new(SyntheticPattern::UniformRandom, 0.05, 1, 42)),
//! );
//! sim.run(2_000);
//! assert!(sim.stats().ejected > 0);
//! # Ok::<(), drain_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod config;
pub mod deadlock;
pub mod json;
pub mod mechanism;
pub mod metrics;
pub mod packet;
pub mod rng;
pub mod routing;
pub mod sim;
pub mod state;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod traffic;
mod wake;

pub use check::{CheckConfig, PacketFingerprint, RecordingEndpoints, Violation, ViolationKind};
pub use config::SimConfig;
pub use metrics::{
    HistogramSnapshot, MetricFamily, MetricKind, MetricSample, MetricValue, MetricsSnapshot, Phase,
    PhaseProfiler,
};
pub use packet::{Location, MessageClass, Packet, PacketId, PacketSlab};
pub use rng::DrawSite;
pub use sim::{RunOutcome, Sim};
pub use state::{SimCore, VcRef, VcState};
pub use stats::{KernelWork, Stats, WakeCounters};
pub use telemetry::{RouterTelemetry, Telemetry, TelemetrySample};
pub use trace::{TraceConfig, TraceEvent, TraceSink, Tracer};

#[cfg(test)]
mod tests;
