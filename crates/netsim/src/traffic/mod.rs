//! Endpoint models: what creates and consumes packets.
//!
//! The simulator is endpoint-agnostic: a [`Endpoints`] implementation is
//! called once per cycle before the network moves, and is responsible for
//! injecting new packets (via [`SimCore::try_enqueue_packet`]) and for
//! consuming delivered packets from the ejection queues (via
//! [`SimCore::pop_ejection`]).
//!
//! [`SyntheticTraffic`] provides the classic open-loop patterns the paper's
//! synthetic experiments use (uniform random, transpose, …);
//! [`TraceTraffic`] replays scripted injections (used by the Fig 8
//! walk-through and adversarial tests). The MESI coherence engine in the
//! `drain-coherence` crate is the third implementation.

mod synthetic;
mod trace;

pub use synthetic::{SyntheticPattern, SyntheticTraffic};
pub use trace::{InjectionEvent, TraceTraffic};

use crate::state::SimCore;

/// An endpoint model: the sources and sinks attached to every router.
pub trait Endpoints: Send + std::any::Any {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Runs once per cycle before network allocation: consume ejection
    /// queues, issue new packets.
    fn pre_cycle(&mut self, core: &mut SimCore);

    /// Whether the workload is complete (closed-loop models); open-loop
    /// traffic always returns `false`.
    fn finished(&self, _core: &SimCore) -> bool {
        false
    }

    /// Downcast support so tests and reports can reach the concrete model
    /// behind a running simulation (e.g. the coherence engine's protocol
    /// statistics).
    fn as_any(&self) -> &dyn std::any::Any;
}
